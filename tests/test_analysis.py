"""Index, centre, and lower-central-series computations."""

import contextlib
import io
from fractions import Fraction as F

import pytest

from liepencil import analysis, cli
from liepencil.exact import generic_rank
from liepencil.tensors import StructureTensor, derived
from liepencil.constructions import build_classical, nilpotent_square, sl2_complete
from liepencil.analysis import lie_centre, lie_index, lower_central_series

from helpers import linear_forms, structure_matrix
from paper_checks import (IndexTheoremReport, build_gl_associative, centraliser,
                          nilpotency_class, verify_index_theorem)


def sl2():
    return build_classical("sl", 2)


def test_structure_matrix_sl2():
    m = structure_matrix(sl2())
    names = ["x0", "x1", "x2"]
    assert m[0][2].format(names) == "x1"       # [e, f] = h
    assert m[2][0].format(names) == "-x1"
    assert m[0][0].is_zero()
    assert generic_rank(linear_forms(m)) == 2


def test_lie_index_exact_sl2():
    rep = lie_index(sl2(), mode="exact")
    assert (rep.dim, rep.rank, rep.index) == (3, 2, 1)
    assert rep.method == "exact-symbolic"


def test_lie_index_prob_sl2():
    rep = lie_index(sl2(), mode="prob", seed=7)
    assert rep.index == 1
    assert rep.method == "probabilistic"
    assert rep.samples == 5
    assert "lower bound" in rep.note
    again = lie_index(sl2(), mode="prob", seed=7)
    assert again.rank == rep.rank


def test_lie_index_gl3():
    t = build_classical("gl", 3)
    assert lie_index(t, mode="exact").index == 3
    assert lie_index(t, mode="prob", seed=1).index == 3


@pytest.mark.parametrize("family, n, index", [("sl", 5, 4), ("sl", 6, 5), ("sl", 7, 6),
                                              ("gl", 6, 6), ("sp", 6, 3), ("so", 7, 3)],
                         ids=["sl5", "sl6", "sl7", "gl6", "sp6", "so7"])
def test_lie_index_is_the_rank_of_a_reductive_algebra(family, n, index):
    # ind g = rank g for reductive g: at these sizes each sample's point
    # rank runs the most elimination steps of any call the commands make
    t = build_classical(family, n)
    for seed in (5, 11):
        assert lie_index(t, mode="prob", seed=seed).index == index


@pytest.mark.parametrize("family, index", [("sl", 3), ("gl", 4)])
def test_exact_lie_index_is_the_rank_above_the_default_cap(family, index):
    # dim 15 and 16: the exact index takes its point pivots from `_pivots_mod`
    rep = lie_index(build_classical(family, 4), mode="exact", max_exact_dim=16)
    assert (rep.index, rep.method) == (index, "exact-symbolic")


def count_point_ranks(monkeypatch):
    """The ranks `lie_index` samples, one per call of its kernel."""
    ranks = []
    real = analysis._pivots_mod

    def counted(rows):
        pivots = real(rows)
        ranks.append(len(pivots))
        return pivots
    monkeypatch.setattr(analysis, "_pivots_mod", counted)
    return ranks


@pytest.mark.parametrize("n, partition", [(3, (2, 1)), (4, (2, 2))], ids=["sl3", "sl4"])
def test_lie_index_stops_at_the_centre_bound(monkeypatch, n, partition):
    # the centre lies in every stabiliser, so a sample of rank n - dim z is
    # the maximum: the derived index of `report` takes one sample, not five
    triple = sl2_complete("sl", n, partition)
    d = nilpotent_square(triple.tensor, triple.e)[1].derived
    z = len(lie_centre(d))
    ranks = count_point_ranks(monkeypatch)
    full = lie_index(d, mode="prob", seed=5)
    assert len(ranks) == 5 and max(ranks) == d.dim - z
    del ranks[:]
    early = lie_index(d, mode="prob", seed=5, least_index=z)
    assert len(ranks) == 1
    assert (early.rank, early.index, early.samples) == (full.rank, full.index, full.samples)


@pytest.mark.parametrize("n, partition, samples", [(3, "2,1", 1), (4, "2,2", 5)],
                         ids=["sl3-exact-bound", "sl4-above-the-cap"])
def test_report_index_stops_at_the_exact_index(monkeypatch, tmp_path, n, partition, samples):
    # report proves the exact index first when dim <= --max-exact-dim (12),
    # and the input's sampled index stops once it reaches that bound; sl4
    # (dim 15) has no exact index, so its samples run to the end
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["example", "nilpotent-square", "sl", str(n),
                         "--partition", partition]) == 0
    taken = []     # kernel calls per probabilistic lie_index call, in order
    ranks = count_point_ranks(monkeypatch)
    real = cli.lie_index

    def counted(tensor, mode="prob", **kw):
        before = len(ranks)
        rep = real(tensor, mode, **kw)
        if mode == "prob":
            taken.append(len(ranks) - before)
        return rep
    monkeypatch.setattr(cli, "lie_index", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["report", "--algebra", "sl%d.json" % n, "--operator",
                         "sl%d-nilsquare-op.json" % n, "--seed", "5"]) == 0
    assert taken == [samples, 1]    # the input's, then the derived bracket's at dim z


def test_lie_index_refuses_non_lie():
    with pytest.raises(ValueError):
        lie_index(build_gl_associative(2))


def test_lie_index_exact_dimension_cap():
    t = build_classical("sl", 4)   # dim 15 > default cap
    with pytest.raises(ValueError):
        lie_index(t, mode="exact")
    small = sl2()
    with pytest.raises(ValueError):
        lie_index(small, mode="exact", max_exact_dim=2)
    assert lie_index(small, mode="exact", max_exact_dim=3).index == 1


def test_lie_centre():
    assert lie_centre(sl2()) == []
    zg = lie_centre(build_classical("gl", 2))
    assert len(zg) == 1   # scalar matrices only


def test_centraliser_dims():
    t = sl2()
    e = [F(1), F(0), F(0)]
    h = [F(0), F(1), F(0)]
    assert len(centraliser(t, e)) == 1
    assert len(centraliser(t, h)) == 1


def test_lower_central_series():
    assert lower_central_series(sl2()) == [3, 3]
    t = sl2()
    op, _ = nilpotent_square(t, [1, 0, 0])
    assert lower_central_series(derived(t, op)) == [3, 1, 0]


def test_nilpotency_class():
    t = sl2()
    op, _ = nilpotent_square(t, [1, 0, 0])
    assert nilpotency_class(derived(t, op)) == 2
    abelian = StructureTensor(2, {})
    assert nilpotency_class(abelian) == 1
    with pytest.raises(ValueError):
        nilpotency_class(sl2())


def test_index_theorem_smallest_case():
    rep = verify_index_theorem("sl", 2, (2,), seed=3)
    assert rep.consistent
    assert rep.index_prob == rep.index_exact == 1
    assert rep.centraliser_dim == rep.centre_dim == 1
    assert rep.nilpotency_class == 2
    assert rep.dim == 3


def reference_index_theorem(family, n, partition, seed):
    """The report with the index computed by symbolic elimination."""
    triple = sl2_complete(family, n, partition)
    t = nilpotent_square(triple.tensor, triple.e)[1].derived
    prob = lie_index(t, mode="prob", seed=seed).index
    exact = lie_index(t, mode="exact", max_exact_dim=t.dim).index
    cent = len(centraliser(triple.tensor, triple.e))
    centre = len(lie_centre(t))
    cls = nilpotency_class(t)
    return IndexTheoremReport(t.dim, prob, exact, cent, centre, cls,
                              prob == exact == cent == centre and cls <= 2)


THEOREM_CASES = [(2, (2,)), (3, (2, 1)), (4, (2, 2)), (5, (2, 2, 1))]


@pytest.mark.parametrize("n, partition", THEOREM_CASES,
                         ids=["sl%d" % n for n, _ in THEOREM_CASES])
def test_index_theorem_needs_no_symbolic_elimination(monkeypatch, n, partition):
    want = reference_index_theorem("sl", n, partition, seed=7)
    calls = []
    monkeypatch.setattr(analysis, "generic_rank", lambda mat: calls.append(mat))
    assert verify_index_theorem("sl", n, partition, seed=7) == want
    assert want.consistent
    assert calls == []


def conjugate(partition):
    return [sum(1 for p in partition if p > i) for i in range(max(partition))]


@pytest.mark.parametrize("n, partition, index", [(6, (2, 2, 2), 17), (7, (2, 2, 2, 1), 24)],
                         ids=["sl6", "sl7"])
def test_index_theorem_at_larger_sizes(n, partition, index):
    # the centraliser of e in sl_n has dimension sum of squared column
    # lengths of the partition, minus 1
    assert index == sum(c * c for c in conjugate(partition)) - 1
    rep = verify_index_theorem("sl", n, partition, seed=1)
    assert rep.consistent
    assert (rep.index_prob == rep.index_exact == rep.centraliser_dim == rep.centre_dim
            == index)
    assert rep.nilpotency_class == 2


def smaller_centre(monkeypatch):
    real = analysis.lie_centre
    monkeypatch.setattr(analysis, "lie_centre", lambda t: real(t)[1:])


def larger_prob_index(monkeypatch):
    real = analysis.lie_index

    def shifted(tensor, mode="prob", **kw):
        rep = real(tensor, mode, **kw)
        rep.index += 1
        return rep
    monkeypatch.setattr(analysis, "lie_index", shifted)


@pytest.mark.parametrize("shift", [smaller_centre, larger_prob_index],
                         ids=["centre", "prob-index"])
def test_index_theorem_without_a_certificate_is_inconsistent(monkeypatch, shift):
    # the centre no longer meets the probabilistic bound, so the index is
    # not certified and the check fails
    shift(monkeypatch)
    rep = verify_index_theorem("sl", 3, (2, 1), seed=1)
    assert rep.index_exact is None
    assert rep.consistent is False
    assert rep.centraliser_dim == 4
