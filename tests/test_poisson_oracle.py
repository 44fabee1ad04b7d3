"""The integer Poisson kernels against Fraction references.

The references below are the plain Fraction versions of `poisson_bracket`,
`centre_candidates`, the skew and Jacobi gate of `from_tensor`, `pc_verify`'s
loop over every generator pair and `pc_generate`'s orbit loop with a rank
of the whole family at every step.  The library runs the same computations on
integers over common denominators (`pc_verify` on packed monomials), so on
generated inputs (polynomials with mixed denominators and zero terms;
linear tables of Lie algebras moved to random rational bases, abelian
tables and non-Lie tables, constant tables, tables of arbitrary
polynomials) the results must agree exactly: equal term dicts, only
`Fraction` coefficients, the same kernel-basis order and the same verdicts
and witnesses.  `centre_candidates` reads a tensor: one that is not skew
is refused, on a Lie tensor it builds rows only for a chosen set of
generators, and on any other it builds rows for every generator.  A
Fraction closure checks that the chosen set and the centre generate the
algebra, and the reference, which uses every generator, checks the kernel
on both routes, the every-generator one on skew tensors that fail Jacobi.
It also solves only for the monomials of weight 0 under the basis
elements that act diagonally; tables graded by integer weights, Lie or
not, check that kernel and count the columns it solves for.  Those elements build no rows: a spy on
`_centrality_rows` counts the rows of each generator, and on sl4 and gl4
the same spy and one on `_Echelon` check that the rows reach the
elimination in ascending key order.  A table whose
weights drive a field of the packed weight key to the largest value its
width allows checks that width.  `from_tensor` wraps the tensor's own
integer form, which must equal, key orders included, the form the table
constructor clears from one polynomial per pair, also on tensors whose
pairs reduce to different denominators.  Each candidate has {x_i, f} = 0
by Fraction brackets, and `check_central` names the reference's first
failing seed and generator on any list of seeds.
Hypothesis is test-only; the library itself stays stdlib-only.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import gcd
from operator import add, mul

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from liepencil.analysis import lie_centre
from liepencil import poisson as pois
from liepencil.constructions import build_classical
from liepencil.exact import (DEGREE_CAP, ZERO, RatMatrix, SparsePoly, _pmuladd, _unpack,
                             generic_rank, kernel_basis, rank_exact)
from liepencil.poisson import (PCFamily, PoissonStructure, SeedNotCentral, centre_candidates,
                               check_central, from_tensor, pc_generate, pc_verify,
                               poisson_bracket)
from liepencil.tensors import StructureTensor

from helpers import (bracket_table, linear, linear_forms, partial, structure_matrix, terms,
                     unit_vector, variable)
from test_tensor_oracle import (ENTRIES, LIE, NONZERO, NON_LIE, change_of_basis, fixed_lists,
                                operators, standard, tensors, transport)

# the example budget is the "liepencil" profile in conftest.py


def reference_poisson_bracket(struct, f, g):
    """Leibniz sum in SparsePoly (Fraction) arithmetic."""
    n = struct.nvars
    df = [partial(f, i) for i in range(n)]
    dg = [partial(g, i) for i in range(n)]
    total = SparsePoly.zero(n)
    for (i, j), b in bracket_table(struct).items():
        piece = df[i] * dg[j] - df[j] * dg[i]
        if not piece.is_zero():
            total = total + b * piece
    return total


def reference_centre_candidates(struct, max_degree):
    """Centrality system from Fraction brackets (`fraction_bracket`) of every
    monomial with every generator: one sparse {column: Fraction} row per
    (generator, result monomial) with a nonzero entry, solved by
    `kernel_basis` in as many columns as there are monomials."""
    n = struct.nvars
    x = [variable(n, i) for i in range(n)]
    out = []
    for d in range(1, max_degree + 1):
        monos = []
        for combo in combinations_with_replacement(range(n), d):
            e = [0] * n
            for i in combo:
                e[i] += 1
            monos.append(tuple(e))
        rows = {}
        for col, m in enumerate(monos):
            mono = SparsePoly.monomial(n, m)
            for i in range(n):
                for r, c in fraction_bracket(struct, mono, x[i]).items():
                    rows.setdefault((i, r), {})[col] = c
        for vec in kernel_basis(list(rows.values()), len(monos)):
            out.append(SparsePoly(n, {m: c for m, c in zip(monos, vec) if c}))
    return out


def linear_table(tensor):
    """The Poisson structure of the upper triangle i < j, with no gate."""
    n = tensor.dim
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            vec = tensor.bracket(i, j)
            if vec:
                table[(i, j)] = linear([vec.get(k, ZERO) for k in range(n)])
    return PoissonStructure(n, table)


def fraction_bracket(struct, f, g):
    """{f, g} as {exponent tuple: Fraction}, by the Leibniz sum on `Fraction`
    term dicts read through `terms`: no `SparsePoly` is built, so it holds
    brackets of any degree, above the degree cap too."""
    def partials(p):
        t = terms(p)
        return [{e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in t.items() if e[i]}
                for i in range(struct.nvars)]
    df, dg = partials(f), partials(g)
    out = {}
    for (i, j), b in bracket_table(struct).items():
        products = [(sign, p, q) for sign, p, q in ((1, df[i], dg[j]), (-1, df[j], dg[i]))
                    if p and q]
        tb = terms(b) if products else {}
        for sign, p, q in products:
            for e1, c1 in tb.items():
                for e2, c2 in p.items():
                    for e3, c3 in q.items():
                        e = tuple(a + b + c for a, b, c in zip(e1, e2, e3))
                        out[e] = out.get(e, 0) + sign * c1 * c2 * c3
    return {e: c for e, c in out.items() if c}


def linear_tensor(struct):
    """The skew tensor whose linear table struct is: c_ij^k is the
    coefficient of x_k in {x_i, x_j}, and c_ji^k = -c_ij^k."""
    table = {}
    for (i, j), p in bracket_table(struct).items():
        vec = {e.index(1): c for e, c in terms(p).items()}
        table[(i, j)], table[(j, i)] = vec, {k: -c for k, c in vec.items()}
    return StructureTensor(struct.nvars, table)


def reference_pc_generate(operator, seeds):
    """(generators, provenance) of pc_generate's orbit loop, each step ranking
    the family and the candidate from scratch in Fraction arithmetic."""
    gens, prov = [], []
    for s_idx, seed in enumerate(seeds):
        current, power = seed, 0
        while True:
            family = gens + [current]
            monos = sorted({m for p in family for m in terms(p)})
            if rank_exact([[terms(p).get(m, ZERO) for m in monos] for p in family]) == len(gens):
                break
            gens.append(current)
            prov.append("seed%d" % s_idx if power == 0 else "seed%d:D^%d" % (s_idx, power))
            current = operator(current)
            power += 1
    return gens, prov


def reference_jacobi_verdict(tensor):
    """Jacobi on the basis triples i < j < k of a skew tensor, by Fraction
    sums over its table: sum_m c_ij^m c_mk^r, summed cyclically, is 0 for
    every r."""
    table = tensor.table
    for triple in combinations(range(tensor.dim), 3):
        total = {}
        for a, b, c in (triple, triple[1:] + triple[:1], triple[2:] + triple[:2]):
            for m, x in table.get((a, b), {}).items():
                for r, y in table.get((m, c), {}).items():
                    total[r] = total.get(r, 0) + x * y
        if any(total.values()):
            return False
    return True


@st.composite
def polys(draw, n, max_exp=2, max_terms=5):
    """A polynomial in n variables with mixed denominators; some drawn
    coefficients are zero, so the term dict drops them."""
    exps = st.tuples(*[st.integers(0, max_exp)] * n)
    return SparsePoly(n, draw(st.dictionaries(exps, ENTRIES, max_size=max_terms)))


# the Heisenberg algebra with its centre in the middle, [x0, x2] = x1: x0
# commutes with x0 and x1 but not with x2, so the last generator's equations
# are not implied by the others (they are for any algebra that n - 1 of its
# basis vectors generate, such as a Lie algebra on a generic basis)
HEISENBERG_MIDDLE = (3, [(0, 2, 1, 1)])


@st.composite
def linear_tensors(draw):
    """A Lie algebra or the non-Lie tensor moved to a random basis, or an
    abelian tensor of dim 1..4."""
    kind = draw(st.sampled_from(["lie", "non-lie", "abelian"]))
    if kind == "abelian":
        return StructureTensor.zero(draw(st.integers(1, 4)))
    base = standard(draw(st.sampled_from(LIE + [HEISENBERG_MIDDLE]))
                    if kind == "lie" else NON_LIE)
    return transport(base, draw(change_of_basis(base.dim)))


@st.composite
def lower_junk(draw):
    """A linear tensor whose diagonal and lower triangle are partly replaced
    by arbitrary entries, which `from_tensor` refuses unless the draw
    happens to be skew."""
    base = draw(linear_tensors())
    n = base.dim
    table = {(i, j): vec for (i, j), vec in base.table.items() if i < j}
    lower = [(i, j) for i in range(n) for j in range(i + 1)]
    for ij in draw(st.lists(st.sampled_from(lower), unique=True, min_size=1, max_size=3)):
        table[ij] = draw(st.dictionaries(st.integers(0, n - 1), ENTRIES,
                                         min_size=1, max_size=2))
    return StructureTensor(n, table)


TABLE_KINDS = ["linear", "constant", "polynomial"]


@st.composite
def tables(draw, kind, nonzero=False):
    """A table of one kind: the linear table of a linear tensor, constants,
    or arbitrary polynomials (the bracket does not need Jacobi) on 1..3
    generators.  Drawn entries may be 0, which the structure drops, and no
    pair need be set; with nonzero there are 2..3 generators, at least one
    pair is set and no entry is 0."""
    if kind == "linear":
        return linear_table(draw(linear_tensors()))
    n = draw(st.integers(2 if nonzero else 1, 3))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = (draw(st.lists(st.sampled_from(pairs), unique=True, min_size=int(nonzero)))
              if pairs else [])
    entries = (polys(n) if kind == "polynomial"
               else ENTRIES.map(lambda c: SparsePoly.const(n, c)))
    if nonzero:
        entries = entries.filter(bool)
    return PoissonStructure(n, {ij: draw(entries) for ij in chosen})


def structures():
    """A table of any kind, zero entries and empty tables included."""
    return st.sampled_from(TABLE_KINDS).flatmap(tables)


def is_linear(struct):
    return all(sum(e) == 1 for p in bracket_table(struct).values() for e in terms(p))


@st.composite
def families(draw, struct):
    """Generators for `pc_verify`, shuffled: central ones z (constants,
    generators no table pair touches, and on a linear table its centre
    candidates), raised to powers; z h^m + p(h) for one drawn h, which
    commute with each other on any table; and single generators x_k and
    arbitrary polynomials, which mostly do not commute.  m is 1 to 4, so
    generators reach degree 6 and more."""
    n = struct.nvars
    h = draw(polys(n, max_terms=3), label="h")
    touched = {k for ij in bracket_table(struct) for k in ij}
    central = [SparsePoly.const(n, 1)]
    central += [variable(n, k) for k in range(n) if k not in touched]
    if is_linear(struct):
        central += centre_candidates(linear_tensor(struct), 2 if n <= 4 else 1)
    gens = []
    kinds = ["h", "central", "any", "variable"]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=2, max_size=6)):
        if kind == "any":
            gens.append(draw(polys(n)))
            continue
        if kind == "variable":
            gens.append(variable(n, draw(st.integers(0, n - 1))))
            continue
        z = draw(st.sampled_from(central)) ** draw(st.integers(0, 3)) * draw(ENTRIES)
        if kind == "h":
            for c in draw(st.lists(ENTRIES, min_size=1, max_size=4)):
                z = z * h + SparsePoly.const(n, c)
        gens.append(z)
    return draw(st.permutations(gens))


def term_layout(p):
    return p.nvars, list(terms(p).items())


def only_fractions(p):
    return all(type(c) is Fraction for c in terms(p).values())


@given(structures(), st.data())
def test_poisson_bracket_matches_reference(struct, data):
    n = struct.nvars
    f = data.draw(polys(n), label="f")
    g = data.draw(polys(n), label="g")
    got = poisson_bracket(struct, f, g)
    # term order is not compared: a term that cancels partway through the
    # Leibniz sum may come back in another place, and io and format sort
    assert terms(got) == terms(reference_poisson_bracket(struct, f, g))
    assert got.nvars == n and only_fractions(got)


def unpacked(form, nvars, den):
    """{exponent tuple: Fraction} of a packed integer polynomial over den."""
    return {_unpack(m, nvars): Fraction(c, den) for m, c in form.items()}


def check_pc_verify(struct, gens):
    """pc_verify against the reference loop over pairs in lexicographic
    order, which stops at the first pair whose `fraction_bracket` is not 0.
    Every gradient and pi grad f that pc_verify forms, and every pair sum
    grad f_a . pi grad f_b up to the witness, formed again from them by
    `_pmuladd` and read back through `_unpack`, has the terms of its
    Fraction reference: no two monomials share a packed int, and no field
    of a product of three overflowed.  The witness pair's bracket, built
    by `poisson_bracket`, is the reference bracket, or is refused when it
    is above the degree cap."""
    family = PCFamily(list(gens), ["g%d" % k for k in range(len(gens))])
    forms = []
    pi_gradients = pois._pi_gradients
    pois._pi_gradients = lambda *args: forms.append(pi_gradients(*args)) or forms[-1]
    try:
        cert = pc_verify(family, struct)
    finally:
        pois._pi_gradients = pi_gradients
    n = struct.nvars
    x = [variable(n, i) for i in range(n)]
    assert len(forms) == 1
    for f, (grad, image) in zip(gens, forms[0]):
        assert [unpacked(part, n, f.den) for part in grad] == [terms(partial(f, i))
                                                                for i in range(n)]
        assert ([unpacked(entry, n, struct.den * f.den) for entry in image]
                == [fraction_bracket(struct, x[i], f) for i in range(n)])
    witness = bracket = None
    for a, b in combinations(range(len(gens)), 2):
        acc = {}
        for part, entry in zip(forms[0][a][0], forms[0][b][1]):
            _pmuladd(acc, part, entry)
        bracket = fraction_bracket(struct, gens[a], gens[b])
        assert unpacked(acc, n, gens[a].den * struct.den * gens[b].den) == bracket
        if bracket:
            witness = (a, b)
            break
    assert (cert.ok, cert.witness) == (witness is None, witness)
    if witness is not None:
        if max(map(sum, bracket)) <= DEGREE_CAP:
            got = poisson_bracket(struct, *(gens[k] for k in witness))
            assert terms(got) == bracket and only_fractions(got)
        else:
            with pytest.raises(ValueError, match="above the cap"):
                poisson_bracket(struct, *(gens[k] for k in witness))


@pytest.mark.parametrize("kind", TABLE_KINDS)
@given(data=st.data())
def test_pc_verify_matches_reference(kind, data):
    struct = data.draw(tables(kind, nonzero=True), label="table")
    check_pc_verify(struct, data.draw(families(struct), label="generators"))


def test_pc_verify_fields_hold_the_top_degree():
    # {x0, x1} = 1 on three generators: {x0 x2^2 + x1^3 / 3, x0 x1} is
    # x0 x2^2 - x1^3, two monomials of degree 3 that must stay apart
    n = 3
    x = [variable(n, i) for i in range(n)]
    struct = PoissonStructure(n, {(0, 1): SparsePoly.const(n, 1)})
    f = x[0] * x[2] * x[2] + x[1] * x[1] * x[1] * Fraction(1, 3)
    check_pc_verify(struct, [f, x[0] * x[1]])
    check_pc_verify(struct, [x[2], f, x[0] * x[1]])
    # at the cap c: {x0, x1} = x0^c, {x0^c, x0^(c-1) x1} = c x0^(3c-2), the
    # largest degree a kernel forms, all of it in one exponent field; above
    # the cap, so poisson_bracket refuses it
    c = DEGREE_CAP
    struct = PoissonStructure(2, {(0, 1): SparsePoly(2, {(c, 0): 1})})
    top = SparsePoly(2, {(c, 0): Fraction(1, 2), (0, c): 3})
    check_pc_verify(struct, [top, SparsePoly(2, {(c - 1, 1): -2, (1, 0): 1})])
    # three monomials of degree c on three variables, one field each at c
    struct = PoissonStructure(3, {(0, 1): SparsePoly(3, {(0, 0, c): 1, (c, 0, 0): 5}),
                                  (1, 2): SparsePoly(3, {(0, c, 0): Fraction(2, 3)})})
    check_pc_verify(struct, [SparsePoly(3, {(0, 0, c): 1, (c, 0, 0): -1}),
                             SparsePoly(3, {(0, c, 0): 1, (1, 1, c - 2): 7})])


def test_pc_verify_fields_hold_a_lone_generator():
    # {x0, x1} = 1: pi grad (x0 - x1)^2 = (-2 x0 + 2 x1, -2 x0 + 2 x1), two
    # monomials of degree 1 that must stay apart in a generator in no pair
    n = 2
    x = [variable(n, i) for i in range(n)]
    struct = PoissonStructure(n, {(0, 1): SparsePoly.const(n, 1)})
    f = (x[0] - x[1]) ** 2
    check_pc_verify(struct, [f])
    check_pc_verify(struct, [SparsePoly.const(n, 3), f])
    check_pc_verify(struct, [f, SparsePoly.const(n, 3), SparsePoly.const(n, 0)])
    # at the cap c: pi grad of x0^c + x1^c under {x0, x1} = x0^c reaches
    # degree 2c - 1, in x0 alone
    c = DEGREE_CAP
    struct = PoissonStructure(n, {(0, 1): SparsePoly(n, {(c, 0): 1})})
    check_pc_verify(struct, [SparsePoly(n, {(c, 0): 1, (0, c): -4})])


def generated_dimension(tensor, vectors):
    """The dimension of the Lie subalgebra that vectors (dense lists)
    generate, by Fraction brackets: a vector that raises the rank of the
    basis joins it, and its brackets with the basis are queued."""
    basis, queue = [], list(vectors)
    while queue:
        v = queue.pop()
        if rank_exact(basis + [v]) > len(basis):
            basis.append(v)
            queue.extend(tensor.apply(v, w) for w in basis)
    return len(basis)


def chosen_centre_candidates(tensor, degree, mutate=lambda chosen: chosen):
    """(centre_candidates(tensor, degree), the generators it built rows for,
    or None when it built every row); mutate may alter the chosen list."""
    chosen = []
    generating_set = pois._generating_set
    pois._generating_set = lambda lin: chosen.append(mutate(generating_set(lin))) or chosen[-1]
    try:
        got = centre_candidates(tensor, degree)
    finally:
        pois._generating_set = generating_set
    assert len(chosen) <= 1
    return got, chosen[0] if chosen else None


def check_centre_candidates(tensor, degree):
    """centre_candidates on a skew tensor against the reference on its
    linear table: on a Lie tensor it builds rows for a chosen set only,
    which with the centre must generate q; on any other it builds every
    row.  Each candidate has {x_i, f} = 0 for every i.  Returns the chosen
    set (None for every row)."""
    got, chosen = chosen_centre_candidates(tensor, degree)
    assert (chosen is not None) == reference_jacobi_verdict(tensor)
    if chosen is not None:
        n = tensor.dim
        gens = [unit_vector(n, i) for i in chosen] + lie_centre(tensor)
        assert generated_dimension(tensor, gens) == n
    struct = linear_table(tensor)
    assert ([term_layout(p) for p in got]
            == [term_layout(p) for p in reference_centre_candidates(struct, degree)])
    assert all(only_fractions(p) for p in got)
    x = [variable(tensor.dim, i) for i in range(tensor.dim)]
    assert not any(fraction_bracket(struct, xi, f) for f in got for xi in x)
    return chosen


@given(linear_tensors(), st.data())
def test_centre_candidates_matches_reference(tensor, data):
    check_centre_candidates(tensor, data.draw(
        st.integers(1, 3 if tensor.dim <= 4 else 2), label="degree"))


@given(st.sampled_from(LIE + [HEISENBERG_MIDDLE]), st.data())
def test_centre_candidates_on_a_generating_set_matches_reference(algebra, data):
    # the Lie tables moved to random bases pass Jacobi
    base = standard(algebra)
    moved = transport(base, data.draw(change_of_basis(base.dim), label="P"))
    assert check_centre_candidates(moved, data.draw(st.integers(1, 3), label="degree")) is not None


@pytest.mark.parametrize("algebra", LIE + [HEISENBERG_MIDDLE, NON_LIE])
def test_centre_candidates_on_standard_bases(algebra):
    # NON_LIE fails Jacobi, so it takes the every-row route
    degree = 3 if algebra[0] <= 4 else 2
    chosen = check_centre_candidates(standard(algebra), degree)
    assert (chosen is None) == (algebra is NON_LIE)


@pytest.mark.parametrize("family, n, kept", [("sl", 3, [0, 1, 2, 4]), ("sp", 4, [0, 1, 2, 3, 6]),
                                             ("sl", 4, [0, 1, 2, 3, 6, 9]),
                                             ("gl", 4, [0, 1, 2, 3, 4, 8, 12])])
def test_generating_set_of_classical_algebras(family, n, kept):
    assert check_centre_candidates(build_classical(family, n), 1) == kept


def test_dropping_the_last_chosen_generator_is_caught():
    # on sl3's standard basis the diagonal H1, H2 leave 12 weight-0 columns
    # at degree 3, where E12, E13, E21 already give the 2-vector kernel; so
    # the mutation that drops the last chosen generator runs on sl3 moved by
    # P = I + superdiagonal, a basis on which no element acts diagonally.
    # There the rest generate less than q, and the kernel at degree 3 grows
    # from 2 vectors (the quadratic and cubic Casimirs) to 3, so both checks
    # catch it
    tensor = build_classical("sl", 3)
    got, _ = chosen_centre_candidates(tensor, 3)
    assert ([term_layout(p) for p in got]
            == [term_layout(p) for p in reference_centre_candidates(from_tensor(tensor), 3)])
    P = RatMatrix([[Fraction(int(j in (i, i + 1))) for j in range(8)] for i in range(8)])
    moved = transport(tensor, P)
    assert diagonal_weights(moved) == []
    got, chosen = chosen_centre_candidates(moved, 3)
    mutated, dropped = chosen_centre_candidates(moved, 3, mutate=lambda c: c[:-1])
    assert dropped == chosen[:-1] == [0, 1, 2] and lie_centre(moved) == []
    assert generated_dimension(moved, [unit_vector(8, i) for i in dropped]) == 5
    reference = [term_layout(p) for p in reference_centre_candidates(from_tensor(moved), 3)]
    assert [term_layout(p) for p in got] == reference
    assert (len(got), len(mutated)) == (2, 3)
    assert [term_layout(p) for p in mutated] != reference


def diagonal_elements(tensor):
    """{h: the weight vector (w_i)} for the basis elements x_h with
    [x_h, x_i] = w_i x_i for every i, by Fraction brackets."""
    n = tensor.dim
    out = {}
    for h in range(n):
        brackets = [tensor.bracket(h, i) for i in range(n)]
        if all(set(vec) <= {i} for i, vec in enumerate(brackets)):
            out[h] = [vec.get(i, ZERO) for i, vec in enumerate(brackets)]
    return out


def diagonal_weights(tensor):
    """The weight vectors of `diagonal_elements`, in basis order."""
    return list(diagonal_elements(tensor).values())


def solved_columns(tensor, max_degree):
    """The number of columns `centre_candidates` solves for at each degree,
    read off the integer kernel reads (`kernel_forms`) of its eliminations."""
    seen = []

    class Recording(pois._Echelon):
        __slots__ = ()

        def kernel_forms(self, ncols):
            seen.append(ncols)
            return super().kernel_forms(ncols)

    echelon = pois._Echelon
    pois._Echelon = Recording
    try:
        centre_candidates(tensor, max_degree)
    finally:
        pois._Echelon = echelon
    return seen


def weight_zero_count(tensor, degree):
    """The degree-d monomials m with sum_i m_i w_i = 0 for every diagonal
    element's weights w."""
    weights = diagonal_weights(tensor)
    return sum(all(sum(w[i] for i in combo) == 0 for w in weights)
               for combo in combinations_with_replacement(range(tensor.dim), degree))


@st.composite
def graded_tensors(draw):
    """A skew tensor of dim 4..5 graded by integer weights in Z^r, r = 1, 2:
    one to dim - 3 basis elements x_h have weight 0 and act by a functional
    a_h of the weights, [x_h, x_i] = s_h (a_h . wt_i) x_i with s_h a nonzero
    rational, so ad x_h is a derivation and (h, i, j) passes Jacobi.  Every
    other pair brackets into the span of the x_k with wt_k = wt_i + wt_j,
    with nonzero drawn coefficients, or, for an abelian rest, to 0.  At
    least three x_i are not diagonal, so a drawn rest often fails Jacobi;
    the abelian rest, on which the x_h act as commuting diagonal maps,
    passes it."""
    n = draw(st.integers(4, 5), label="dim")
    r = draw(st.integers(1, 2), label="rank")
    diagonal = draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1, max_size=n - 3),
                    label="diagonal")
    grade = fixed_lists(st.integers(-1, 1), r)
    wt = [(0,) * r if i in diagonal else tuple(draw(grade, label="weight")) for i in range(n)]
    triples = []
    for h in diagonal:
        a, scale = draw(grade, label="a"), draw(NONZERO, label="scale")
        triples += [(h, i, i, scale * sum(map(mul, a, wt[i]))) for i in range(n) if i != h]
    if not draw(st.booleans(), label="abelian rest"):
        for i, j in combinations([i for i in range(n) if i not in diagonal], 2):
            target = tuple(map(add, wt[i], wt[j]))
            triples += [(i, j, k, draw(NONZERO)) for k in range(n) if wt[k] == target]
    table = {}
    for i, j, k, c in triples:
        if c:
            table.setdefault((i, j), {})[k] = c
            table.setdefault((j, i), {})[k] = -c
    return StructureTensor(n, table)


@given(graded_tensors(), st.data())
def test_centre_candidates_on_graded_tables_matches_reference(tensor, data):
    # every row when the table fails Jacobi, as a drawn rest often does, a
    # chosen set when it passes; and the search solves for exactly the
    # weight-0 monomials
    degree = data.draw(st.integers(1, 3 if tensor.dim <= 4 else 2), label="degree")
    check_centre_candidates(tensor, degree)
    assert (solved_columns(tensor, degree)
            == [weight_zero_count(tensor, d) for d in range(1, degree + 1)])


def test_a_central_diagonal_element_filters_nothing():
    # x0 is central, so it acts diagonally with every weight 0, beside the
    # Heisenberg bracket [x1, x2] = x3: every monomial is a column
    tensor = standard((4, [(1, 2, 3, 1)]))
    assert diagonal_weights(tensor)[0] == [0, 0, 0, 0]
    check_centre_candidates(tensor, 3)
    assert solved_columns(tensor, 3) == [4, 10, 20]


def graded_table(n, weights, rest=()):
    """A tensor on n basis elements where each x_h in weights acts diagonally,
    [x_h, x_i] = weights[h][i] x_i, and rest holds (i, j, k, c) for the
    other brackets [x_i, x_j] = c x_k."""
    table = {}
    for h, w in weights.items():
        for i, c in enumerate(w):
            if c:
                table.setdefault((h, i), {})[i] = c
                table.setdefault((i, h), {})[i] = -c
    for i, j, k, c in rest:
        table.setdefault((i, j), {})[k] = c
        table.setdefault((j, i), {})[k] = -c
    return StructureTensor(n, table)


def test_weight_key_field_at_its_bound():
    # x0 and x1 act diagonally on the abelian span of x2, x3, x4 with the
    # weights w0 = (0, 0, 5, 3, -5) and w1 = (0, 0, -1, 0, 1): at degree 3
    # the key fields are b = (3 * 5).bit_length() = 4 bits wide, and x2^3
    # drives field 0 to 15 = 2^4 - 1, the largest |m . w| the proof allows.
    # In fields one bit narrower, x2 x3 (weights 8 and -1) keys to
    # 8 - 2^3 = 0; no rows are built for x0, x1 and the abelian x2, x3, x4
    # give x2 x3 none, so it would come out central.  The one central
    # monomial is x2 x4, of weight 0
    w0, w1 = [0, 0, 5, 3, -5], [0, 0, -1, 0, 1]
    tensor = graded_table(5, {0: w0, 1: w1})
    assert diagonal_weights(tensor) == [w0, w1]
    largest = max(abs(sum(w[i] for i in combo)) for w in (w0, w1)
                  for combo in combinations_with_replacement(range(5), 3))
    assert largest == 2 ** (3 * 5).bit_length() - 1
    check_centre_candidates(tensor, 3)
    got = centre_candidates(tensor, 3)
    assert [terms(p) for p in got] == [{(0, 0, 1, 0, 1): 1}]
    assert (solved_columns(tensor, 3)
            == [weight_zero_count(tensor, d) for d in range(1, 4)])


def built_rows(tensor, max_degree):
    """(centre_candidates(tensor, max_degree), Counter of the generators of
    the rows it built): a row keyed r * n + i is generator i's."""
    built = Counter()
    rows = pois._centrality_rows

    def recording(n, columns, terms):
        out = rows(n, columns, terms)
        built.update(key % n for key in out)
        return out
    pois._centrality_rows = recording
    try:
        got = centre_candidates(tensor, max_degree)
    finally:
        pois._centrality_rows = rows
    return got, built


def check_no_diagonal_rows(tensor, degree):
    """No row is built for a basis element that acts diagonally with nonzero
    weights, and the candidates are the every-row reference's.  Returns the
    Counter of generators with rows."""
    got, built = built_rows(tensor, degree)
    filters = [h for h, w in diagonal_elements(tensor).items() if any(w)]
    assert [built[h] for h in filters] == [0] * len(filters)
    reference = reference_centre_candidates(linear_table(tensor), degree)
    assert [term_layout(p) for p in got] == [term_layout(p) for p in reference]
    return built


def test_diagonal_generators_build_no_rows_on_sl3():
    # H1, H2 (6, 7) act diagonally: the chosen E12, E13, E21, E31 build rows
    tensor = build_classical("sl", 3)
    assert sorted(h for h, w in diagonal_elements(tensor).items() if any(w)) == [6, 7]
    assert sorted(check_no_diagonal_rows(tensor, 3)) == [0, 1, 2, 4]


def test_diagonal_generators_build_no_rows_on_a_non_lie_table():
    # x0 acts with weights (0, 1, -1, 0, 0) beside [x1, x2] = x3 and
    # [x3, x4] = x3 + x4, a graded table that fails Jacobi at (x1, x2, x4);
    # x1 x2 has weight 0, and its entries in x0's rows would cancel.  Every
    # other generator builds rows, on the every-row route
    tensor = graded_table(5, {0: [0, 1, -1, 0, 0]},
                          [(1, 2, 3, 1), (3, 4, 3, 1), (3, 4, 4, 1)])
    assert not reference_jacobi_verdict(tensor)
    assert list(diagonal_elements(tensor)) == [0]
    assert sorted(check_no_diagonal_rows(tensor, 3)) == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        from_tensor(tensor)


@given(graded_tensors(), st.data())
def test_diagonal_generators_build_no_rows_on_graded_tables(tensor, data):
    check_no_diagonal_rows(tensor, data.draw(st.integers(1, 3 if tensor.dim <= 4 else 2),
                                             label="degree"))


@pytest.mark.parametrize("family", ["sl", "gl"])
def test_rows_go_to_the_echelon_in_ascending_key_order(family, monkeypatch):
    # at each degree the nonempty rows of `_centrality_rows` reach `add` in
    # ascending key order, the order measured fastest: `owned`
    # lists the rows `add` took, in the order it took them.  The rows are
    # built in another order, so handing them over as built fails here
    built, taken = [], []
    rows_of = pois._centrality_rows

    def recording(n, columns, terms):
        out = rows_of(n, columns, terms)
        built.append((list(out), [out[k] for k in sorted(out) if out[k]]))
        return out

    class Recording(pois._Echelon):
        __slots__ = ()

        def kernel_forms(self, ncols):
            taken.append(list(self.owned))
            return super().kernel_forms(ncols)

    monkeypatch.setattr(pois, "_centrality_rows", recording)
    monkeypatch.setattr(pois, "_Echelon", Recording)
    centre_candidates(build_classical(family, 4), 4)
    assert len(built) == len(taken) == 4
    assert any(keys != sorted(keys) for keys, _ in built)
    for (_, ordered), owned in zip(built, taken):
        assert len(owned) == len(ordered)
        assert all(a is b for a, b in zip(owned, ordered))


@given(st.sampled_from(LIE), st.data())
def test_generic_rank_on_moved_structure_matrices(algebra, data):
    base = standard(algebra)
    moved = transport(base, data.draw(change_of_basis(base.dim), label="P"))
    # the generic rank of the bracket form does not depend on the basis
    assert (generic_rank(linear_forms(structure_matrix(moved)))
            == generic_rank(linear_forms(structure_matrix(base))))


def reference_skew(tensor):
    """Whether the Fraction table is skew: c_ji = -c_ij for every pair."""
    table = tensor.table
    return all(table.get((j, i), {}) == {k: -c for k, c in vec.items()}
               for (i, j), vec in table.items())


@st.composite
def rescaled_tensors(draw):
    """A standard Lie algebra on its basis vectors scaled by drawn nonzero
    rationals: x_i -> a_i x_i moves c_ij^k to c_ij^k a_i a_j / a_k, so the
    pairs' entries carry different contents and denominators."""
    base = standard(draw(st.sampled_from(LIE)))
    scale = draw(fixed_lists(NONZERO, base.dim), label="scale")
    return transport(base, RatMatrix.diagonal(scale))


def form_layout(struct):
    """A structure's form with its key orders: (den, [(pair, [(monomial,
    int)])])."""
    return struct.den, [(ij, list(form.items())) for ij, form in struct.ints.items()]


@given(st.one_of(tensors(), linear_tensors(), lower_junk(), graded_tensors(),
                 rescaled_tensors()))
def test_from_tensor_gate_matches_reference(tensor):
    # skew tensors only: one that is not, such as most of lower_junk's, is
    # refused like a table that fails Jacobi.  A tensor that passes is
    # wrapped as its own form; the table constructor clears one SparsePoly
    # per pair to the lcm of their reduced denominators, and the two forms
    # agree, key orders included, with gcd 1
    if not (reference_skew(tensor) and reference_jacobi_verdict(tensor)):
        with pytest.raises(ValueError):
            from_tensor(tensor)
        return
    struct = from_tensor(tensor)
    assert form_layout(struct) == form_layout(linear_table(tensor))
    assert gcd(struct.den, *(c for form in struct.ints.values() for c in form.values())) == 1


def test_from_tensor_form_when_the_pairs_reduce_apart():
    # sl2 on e/2, h, 3f: [E, F] = 3/2 H, [H, E] = 2E, [H, F] = -2F, so one
    # pair reduces to denominator 2 and two to denominator 1; den is 2
    tensor = transport(standard(LIE[0]), RatMatrix.diagonal([Fraction(1, 2), 1, 3]))
    struct = from_tensor(tensor)
    table = bracket_table(struct)
    assert sorted(p.den for p in table.values()) == [1, 1, 2]
    assert form_layout(struct) == form_layout(linear_table(tensor))
    assert struct.den == 2
    assert [sorted(form.values()) for form in struct.ints.values()] == [[-4], [3], [-4]]


def reference_seed_witness(struct, seeds):
    """(seed index, generator index) of the first seed s with a nonzero
    Fraction bracket {x_i, s}, at its first such i; None if there is none."""
    n = struct.nvars
    for s_idx, seed in enumerate(seeds):
        for i in range(n):
            if fraction_bracket(struct, variable(n, i), seed):
                return s_idx, i
    return None


def check_seeds(struct, seeds):
    """check_central raises SeedNotCentral with the reference's indices, or
    returns when every seed is central."""
    want = reference_seed_witness(struct, seeds)
    if want is None:
        check_central(struct, seeds)
        return
    with pytest.raises(SeedNotCentral) as exc:
        check_central(struct, seeds)
    assert (exc.value.seed_index, exc.value.var_index) == want


@given(st.one_of(linear_tensors(), graded_tensors()), st.data())
def test_check_central_names_the_reference_witness(tensor, data):
    # centre candidates, equal copies of them and drawn polynomials, in any
    # order: the indices count the whole list
    n = tensor.dim
    cands = centre_candidates(tensor, 2)
    copies = [SparsePoly._of(n, f.den, dict(f.ints)) for f in cands]
    drawn = data.draw(st.lists(polys(n, max_exp=1, max_terms=3), max_size=3), label="drawn")
    seeds = data.draw(st.permutations(cands + copies + drawn), label="seeds")
    check_seeds(linear_table(tensor), seeds)


def test_a_seed_after_the_candidates_keeps_its_index():
    # on sl3 at degree 3 the two Casimirs are central; x0 after them, and
    # the candidates of the abelian tensor, are not
    tensor = build_classical("sl", 3)
    struct, n = from_tensor(tensor), tensor.dim
    cands = centre_candidates(tensor, 3)
    assert len(cands) == 2
    check_seeds(struct, cands)
    check_seeds(struct, cands + [variable(n, 0)])
    with pytest.raises(SeedNotCentral) as exc:
        check_central(struct, cands + [variable(n, 0)])
    assert exc.value.seed_index == 2
    check_seeds(struct, cands + centre_candidates(StructureTensor.zero(n), 1))


def test_centre_search_route_follows_the_jacobi_verdict(monkeypatch):
    # a tensor that is not skew is refused; on a skew tensor that fails
    # Jacobi (NON_LIE moved so that no element acts diagonally) every
    # generator builds rows and no generating set is formed; on a Lie
    # tensor the generating set is formed once
    with pytest.raises(ValueError):
        centre_candidates(StructureTensor(2, {(0, 1): {0: Fraction(1)}}), 2)
    P = RatMatrix([[Fraction(int(j in (i, i + 1))) for j in range(3)] for i in range(3)])
    moved = transport(standard(NON_LIE), P)
    assert not reference_jacobi_verdict(moved) and diagonal_weights(moved) == []
    assert check_centre_candidates(moved, 3) is None
    assert sorted(built_rows(moved, 3)[1]) == [0, 1, 2]
    calls, generating_set = [], pois._generating_set
    monkeypatch.setattr(pois, "_generating_set",
                        lambda lin: calls.append(lin) or generating_set(lin))
    centre_candidates(build_classical("sl", 3), 3)
    assert len(calls) == 1


@given(lower_junk(), st.integers(1, 2))
def test_centre_search_refuses_a_tensor_that_is_not_skew(tensor, degree):
    if reference_skew(tensor):
        check_centre_candidates(tensor, degree)
    else:
        with pytest.raises(ValueError):
            centre_candidates(tensor, degree)


@st.composite
def orbits(draw):
    """(n, operator, seeds) for pc_generate on the zero table of n
    generators, where every polynomial is central: the lift of a matrix or a
    directional derivative, and seeds that are drawn polynomials (zero
    among them) or combinations of earlier seeds and their images, so that
    orbits also close early or at once."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans(), label="lifted"):
        operator = pois.lifted(draw(operators(n), label="op"))
    else:
        operator = pois.directional(draw(fixed_lists(ENTRIES, n), label="gamma"))
    seeds = []
    for _ in range(draw(st.integers(1, 4))):
        if seeds and draw(st.booleans(), label="combination"):
            a, b = draw(st.sampled_from(seeds)), draw(st.sampled_from(seeds))
            seeds.append(a * SparsePoly.const(n, draw(ENTRIES))
                         + operator(b) * SparsePoly.const(n, draw(ENTRIES)))
        else:
            seeds.append(draw(polys(n, max_exp=1, max_terms=4)))
    return n, operator, seeds


@given(orbits())
def test_pc_generate_matches_whole_family_rank(orbit):
    # pc_generate eliminates only each candidate against the family's kept
    # reduced rows; the reference ranks the whole family at every step
    n, operator, seeds = orbit
    family = pc_generate(operator, seeds)
    gens, prov = reference_pc_generate(operator, seeds)
    assert family.provenance == prov
    assert family.generators == gens
