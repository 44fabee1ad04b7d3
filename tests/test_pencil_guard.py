"""A Lie pencil is decided by claim (1) in `report`, `pencil` and `classify`.

With T Lie and D tagged anything but not-near, T' = rho(D).T and every
member alpha*T + beta*S of the pencil are Lie (the proof is in
`tensors.pencil_lie`), so the commands build no member tensor and scan
only T.  On a pencil whose T is not Lie every sampled member is still built
and checked on its own.  The counts come from wrapping `tensor_combination`
and `check_jacobi` where the commands reach them.
"""

import pytest

from liepencil import cli, tensors
from liepencil.cli import MEMBER_SAMPLES

from test_report_agreement import call, fixtures  # noqa: F401  (fixture)


def counted(monkeypatch, scanned=None):
    """(built, checked): the coefficients and result of every
    tensor_combination call, and the tensor of every check_jacobi call;
    scanned, when given, gets the tensor of every call that scans (one
    with no verdict kept on the tensor yet)."""
    built, checked = [], []
    combine, jacobi = tensors.tensor_combination, tensors.check_jacobi

    def tensor_combination(pairs):
        result = combine(pairs)
        built.append(([c for c, _ in pairs], result))
        return result

    def check_jacobi(tensor):
        checked.append(tensor)
        if scanned is not None and tensor._jacobi is None:
            scanned.append(tensor)
        return jacobi(tensor)

    for module in (tensors, cli):
        monkeypatch.setattr(module, "tensor_combination", tensor_combination, raising=False)
        monkeypatch.setattr(module, "check_jacobi", check_jacobi)
    return built, checked


@pytest.mark.parametrize("argv", [
    "report --algebra sl4.json --operator sl4-nilsquare-op.json --seed 5",
    "pencil --algebra sl3.json --operator sl3-grading-op.json",
    "classify --algebra sl3.json --operator sl3-conjugated-op.json",
])
def test_a_lie_pencil_builds_no_member_and_scans_only_t(fixtures, monkeypatch, argv):
    scanned, actions = [], []
    built, checked = counted(monkeypatch, scanned)
    classify = cli.classify_operator
    monkeypatch.setattr(cli, "classify_operator",
                        lambda tensor, op: actions.append(classify(tensor, op)) or actions[-1])
    _, code = call(argv.split())
    assert code == 0
    (act,) = actions
    assert act.tag in (tensors.TAG_QUASI, tensors.TAG_NEAR)
    assert built == []
    assert scanned == [act.tensor]
    # T' is reached only by report's guard of its derived index, which
    # reads the verdict claim (1) kept on T'
    calls_on_derived = sum(t is act.derived for t in checked)
    assert calls_on_derived == (1 if argv.startswith("report") else 0)
    assert all(t is act.tensor or t is act.derived for t in checked)


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
