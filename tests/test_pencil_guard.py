"""One Jacobi check decides a Lie pencil in `report` and `pencil`.

With T and S = rho(D1).T both Lie, every member alpha*T + beta*S with
alpha*beta != 0 is Lie exactly when T + S is, so the pencil checks build
one member tensor, T + S, and Jacobi-check it once.  On a pencil whose T is
not Lie every sampled member is still built and checked on its own.  The
counts come from wrapping `tensor_combination` and `check_jacobi` where the
commands reach them.
"""

import pytest

from liepencil import cli, tensors
from liepencil.cli import MEMBER_SAMPLES

from test_report_agreement import call, fixtures  # noqa: F401  (fixture)


def counted(monkeypatch):
    """(built, checked): the coefficients and result of every
    tensor_combination call, and the tensor of every check_jacobi call."""
    built, checked = [], []
    combine, jacobi = tensors.tensor_combination, tensors.check_jacobi

    def tensor_combination(pairs):
        result = combine(pairs)
        built.append(([c for c, _ in pairs], result))
        return result

    def check_jacobi(tensor):
        checked.append(tensor)
        return jacobi(tensor)

    for module in (tensors, cli):
        monkeypatch.setattr(module, "tensor_combination", tensor_combination, raising=False)
        monkeypatch.setattr(module, "check_jacobi", check_jacobi)
    return built, checked


@pytest.mark.parametrize("argv", [
    "report --algebra sl4.json --operator sl4-nilsquare-op.json --seed 5",
    "pencil --algebra sl3.json --operator sl3-grading-op.json",
])
def test_a_lie_pencil_builds_and_checks_one_member(fixtures, monkeypatch, argv):
    built, checked = counted(monkeypatch)
    _, code = call(argv.split())
    assert code == 0
    assert [coeffs for coeffs, _ in built] == [[1, 1]]
    member = built[0][1]
    assert sum(t is member for t in checked) == 1


@pytest.mark.parametrize("argv", [
    "report --algebra graded-nonlie.json --operator graded-nonlie-weight-op.json --seed 4",
    "pencil --algebra graded-nonlie.json --operator graded-nonlie-weight-op.json",
])
def test_a_pencil_off_lie_checks_each_member(fixtures, monkeypatch, argv):
    built, checked = counted(monkeypatch)
    _, code = call(argv.split())
    assert code == 1
    # report stops at the first member that is not Lie; pencil lists them all
    samples = MEMBER_SAMPLES[:1] if argv.startswith("report") else MEMBER_SAMPLES
    members = built[:len(samples)]
    assert [tuple(coeffs) for coeffs, _ in members] == list(samples)
    for _, member in members:
        assert sum(t is member for t in checked) == 1
