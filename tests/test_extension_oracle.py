"""The quasi-grading extension against the route it replaced.

`constructions.quasi_grading_extension` writes its table by re-indexing
the tensor's integer form.  The reference below builds the direct sum
q (+) q0' with `helpers.direct_sum`, brackets the adapted basis vectors
there with the dense `StructureTensor.apply`, and reads each bracket back
in the adapted basis with one `helpers.coordinates` reader.  Both must give
the same extension (integer form, key order and labels), the same
quasi-grading and the same weight operator on the inner gradings
w(E_ij) = (a_i - a_j) mod m of gl3, sl3 and sl4.
"""

from fractions import Fraction
from itertools import product

import pytest

from liepencil import cli, constructions
from liepencil.constructions import (GradingSpec, basis_matrices, build_classical,
                                     grading_operator, quasi_grading_extension)
from liepencil.exact import ONE
from liepencil.tensors import IdentityFailed, StructureTensor, pair_table

from helpers import coordinates, direct_sum, unit_vector


def restrict(tensor, idx):
    """Substructure tensor on a list of basis indices (must be closed)."""
    pos = {i: p for p, i in enumerate(idx)}
    table = {}
    for (i, j), vec in tensor.table.items():
        if i in pos and j in pos:
            assert all(k in pos for k in vec), "index set is not closed under the bracket"
            table[(pos[i], pos[j])] = {pos[k]: c for k, c in vec.items()}
    return StructureTensor(len(idx), table, [tensor.labels[i] for i in idx])


def reference_extension(tensor, spec):
    """(extension, quasi spec, weight operator) through q (+) q0' and one
    solve per adapted bracket."""
    n, dim = spec.modulus, tensor.dim
    zero_idx = list(spec.eigenspace(0))
    big_dim = dim + len(zero_idx)
    adapted, labels, weights = [], [], []
    for pos, i in enumerate(zero_idx):
        v = unit_vector(big_dim, i)
        v[dim + pos] = ONE
        adapted.append(v)
        labels.append("%s+%s'" % (tensor.labels[i], tensor.labels[i]))
        weights.append(0)
    for w in range(1, n):
        for i in spec.eigenspace(w):
            adapted.append(unit_vector(big_dim, i))
            labels.append(tensor.labels[i])
            weights.append(w)
    for i in zero_idx:
        adapted.append(unit_vector(big_dim, i))
        labels.append(tensor.labels[i])
        weights.append(n)
    big = direct_sum(tensor, restrict(tensor, zero_idx))
    read = coordinates(adapted)

    def entry(a, b):
        coords = read(big.apply(adapted[a], adapted[b]))
        assert coords is not None, "adapted basis failed to close"
        return {k: c for k, c in enumerate(coords) if c}

    ext = StructureTensor(big_dim, pair_table(big_dim, entry, skew=True), labels)
    quasi = GradingSpec(tuple(weights), kind="quasi")
    return ext, quasi, grading_operator(quasi)


def inner_gradings(family, n, moduli):
    """The distinct gradings w(E_ij) = (a_i - a_j) mod m, a_0 = 0, of the
    family's basis, for each m in moduli; a diagonal matrix has weight 0."""
    mats = basis_matrices(family, n)[0]
    entries = [next((i, j) for i, row in enumerate(m.rows) for j, x in enumerate(row) if x)
               for m in mats]
    seen = {}
    for m in moduli:
        for a in product(range(m), repeat=n - 1):
            a = (0,) + a
            weights = tuple((a[i] - a[j]) % m for i, j in entries)
            seen.setdefault((weights, m), GradingSpec(weights, kind="periodic", modulus=m))
    return list(seen.values())


def assert_same_extension(tensor, spec):
    ext, quasi, op = quasi_grading_extension(tensor, spec)
    want, want_quasi, want_op = reference_extension(tensor, spec)
    den, ints = ext.integer_form()
    want_den, want_ints = want.integer_form()
    assert (den, list(ints.items())) == (want_den, list(want_ints.items()))
    assert ext.labels == want.labels
    assert quasi == want_quasi
    assert op == want_op


# moduli 2 and 3 give 61 gradings in under a second; modulus 4 adds 96 more
@pytest.mark.parametrize("moduli", [(2, 3), (4,)], ids=["mod2-3", "mod4"])
@pytest.mark.parametrize("family, n", [("gl", 3), ("sl", 3), ("sl", 4)],
                         ids=["gl3", "sl3", "sl4"])
def test_extension_matches_the_direct_sum_route(family, n, moduli):
    tensor = build_classical(family, n)
    for spec in inner_gradings(family, n, moduli):
        assert_same_extension(tensor, spec)


def test_extension_keeps_a_denominator():
    # the scaled bracket 2/3 [x, y] is a Lie bracket with denominator 3
    tensor = build_classical("sl", 3).scale(Fraction(2, 3))
    assert tensor.integer_form()[0] == 3
    for spec in inner_gradings("sl", 3, (3,)):
        assert_same_extension(tensor, spec)


def test_extension_guard_is_an_identity_failure(monkeypatch, tmp_path):
    # a validated input grading leaves no input that breaks the
    # quasi-grading, so a failing closing check is a bug: exit 3
    real = GradingSpec.validate
    monkeypatch.setattr(GradingSpec, "validate",
                        lambda self, t: real(self, t) if self.kind == "periodic"
                        else (False, (0, 0, 0)))
    spec = GradingSpec((1, 0, 1), kind="periodic", modulus=2)
    with pytest.raises(IdentityFailed, match="quasi-grading"):
        constructions.quasi_grading_extension(build_classical("sl", 2), spec)
    monkeypatch.chdir(tmp_path)
    argv = ["example", "quasi-grading", "sl", "2", "--weights", "1,0,1", "--modulus", "2"]
    assert cli.main(argv) == cli.EXIT_INTERNAL
