"""`SparsePoly` on its integer form against a `Fraction` reference.

`Reference` below is the polynomial class as it stood when every
coefficient was a `Fraction` in a term dict, kept here as the oracle.  On
generated polynomials in 0 to 3 variables, with mixed denominators and
zero terms, the tests check that:

* every operation gives the reference's terms, term for term and in the
  same order, and every coefficient read back is a `Fraction`;
* forms are canonical: den > 0, gcd(den, ints) = 1 and no zero int, so
  equal polynomials have equal forms;
* no operation changes its operands' form;
* the Poisson kernels that read forms directly (the lifted and directional
  derivations and the seed centrality check) agree with their `Fraction`
  definitions;
* the printer, which reads only the nonzero fields of a packed monomial,
  prints what `helpers.reference_format` prints, in 0 to 9 variables.
"""

from fractions import Fraction as F
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from liepencil.exact import DEGREE_CAP, RatMatrix, SparsePoly, _pack, format_rat
from liepencil.poisson import (PoissonStructure, SeedNotCentral, check_central, directional,
                               lifted, poisson_bracket)

from helpers import (coeff_vector, eval_at, linear, partial, reference_format, terms,
                     total_degree, variable)
from test_poisson_oracle import polys, structures

# the example budget is the "liepencil" profile in conftest.py


class Reference:
    """Sparse multivariate polynomial over Q as {exponent tuple: Fraction}."""

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        for exps, c in (terms or {}).items():
            c = F(c)
            if c:
                self.terms[tuple(int(e) for e in exps)] = c

    @classmethod
    def _of(cls, nvars, terms):
        p = cls(nvars)
        p.terms = terms
        return p

    def __neg__(self):
        return Reference._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, Reference):
            other = Reference(self.nvars, {(0,) * self.nvars: F(other)})
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, F(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Reference._of(self.nvars, out)

    def __sub__(self, other):
        if isinstance(other, Reference):
            return self + -other
        return self + Reference(self.nvars, {(0,) * self.nvars: -F(other)})

    def __mul__(self, other):
        if not isinstance(other, Reference):
            c = F(other)
            return Reference._of(self.nvars, {e: c * v for e, v in self.terms.items()}
                                 if c else {})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Reference._of(self.nvars, out)

    def __pow__(self, k):
        acc = Reference(self.nvars, {(0,) * self.nvars: 1})
        for _ in range(k):
            acc = acc * self
        return acc

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def partial(self, i):
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = c * e[i]
        return Reference._of(self.nvars, out)

    def eval_at(self, point):
        point = [F(x) for x in point]
        total = F(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                for _ in range(k):
                    v *= x
            total += v
        return total

    def leading(self):
        if not self.terms:
            return None
        e = max(self.terms, key=lambda t: (sum(t), t))
        return e, self.terms[e]

    def exact_div(self, divisor):
        if not divisor.terms:
            raise ZeroDivisionError("polynomial division by zero")
        quot = Reference(self.nvars)
        rem = self
        lt_d, lc_d = divisor.leading()
        while rem.terms:
            lt_r, lc_r = rem.leading()
            diff = tuple(a - b for a, b in zip(lt_r, lt_d))
            if any(d < 0 for d in diff):
                raise ArithmeticError("inexact polynomial division")
            mono = Reference(self.nvars, {diff: lc_r / lc_d})
            quot = quot + mono
            rem = rem - divisor * mono
        return quot

    def coeff_vector(self, monomials):
        return [self.terms.get(m, F(0)) for m in monomials]

    def format(self, names=None):
        if not self.terms:
            return "0"
        if names is None:
            names = ["x%d" % i for i in range(self.nvars)]
        parts = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            c = self.terms[e]
            factors = [names[i] if k == 1 else "%s^%d" % (names[i], k)
                       for i, k in enumerate(e) if k]
            body = "*".join(factors)
            if not body:
                chunk = format_rat(abs(c))
            elif abs(c) == 1:
                chunk = body
            else:
                chunk = "%s*%s" % (format_rat(abs(c)), body)
            parts.append(("-" if c < 0 else "+", chunk))
        text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, chunk in parts[1:]:
            text += " %s %s" % (sign, chunk)
        return text


ENTRIES = st.one_of(st.just(F(0)), st.integers(-4, 4),
                    st.fractions(min_value=-9, max_value=9, max_denominator=12))


@st.composite
def term_dicts(draw, n, max_terms=5):
    """Terms in n variables with mixed denominators; some coefficients are
    zero, so both classes drop them."""
    exps = st.tuples(*[st.integers(0, 2)] * n)
    return draw(st.dictionaries(exps, ENTRIES, max_size=max_terms))


def pair(n, terms):
    return SparsePoly(n, terms), Reference(n, terms)


def layout(p):
    return p.nvars, list(terms(p).items())


def assert_same(p, ref):
    """The reference's terms in its order, from a canonical form."""
    assert layout(p) == (ref.nvars, list(ref.terms.items()))
    assert all(type(c) is F for c in terms(p).values())
    assert p.den > 0 and gcd(p.den, *p.ints.values()) == 1
    assert all(type(c) is int and c for c in p.ints.values())
    assert list(p.ints) == [_pack(e) for e in terms(p)]


def form(p):
    return p.nvars, p.den, list(p.ints.items())


NVARS = st.integers(0, 3)


@given(NVARS, st.data())
def test_operations_match_the_reference(n, data):
    (f, rf), (g, rg) = (pair(n, data.draw(term_dicts(n), label=name)) for name in "fg")
    c = data.draw(ENTRIES, label="c")
    before = [form(f), form(g)]
    assert_same(f, rf)
    assert_same(-f, -rf)
    assert_same(f + g, rf + rg)
    assert_same(f - g, rf - rg)
    assert_same(f - f, rf - rf)
    assert_same(f + c, rf + c)
    assert_same(f - c, rf - c)
    assert_same(f * g, rf * rg)
    assert_same(f * c, rf * c)
    assert_same(c * f, rf * c)
    k = data.draw(st.integers(0, 3), label="k")
    assert_same(f ** k, rf ** k)
    for i in range(n):
        assert_same(partial(f, i), rf.partial(i))
    point = data.draw(st.lists(ENTRIES, min_size=n, max_size=n), label="point")
    assert eval_at(f, point) == rf.eval_at(point)
    assert type(eval_at(f, point)) is F
    assert f.leading() == rf.leading()
    assert total_degree(f) == rf.total_degree()
    monos = sorted(set(terms(f)) | set(terms(g)) | {(1,) * n})
    assert coeff_vector(f, monos) == rf.coeff_vector(monos)
    assert all(type(x) is F for x in coeff_vector(f, monos))
    assert str(f) == rf.format()
    assert f.format(["a", "b", "c"][:n]) == rf.format(["a", "b", "c"][:n])
    assert repr(f) == "SparsePoly(%d, %s)" % (n, rf.format())
    assert f.is_zero() == (not rf.terms) == (not f)
    assert (f == g) == (rf.terms == rg.terms)
    assert [form(f), form(g)] == before


@st.composite
def printed_polys(draw):
    """(polynomial, names) in 0..9 variables: exponents 0..3, or one term
    whose one nonzero exponent is DEGREE_CAP; coefficients negative,
    fractional or 0 (dropped), a constant term among them; names None or
    drawn strings, as many as the variables or more."""
    n = draw(st.integers(0, 9), label="nvars")
    exps = st.tuples(*[st.integers(0, 3)] * n)
    terms = draw(st.dictionaries(exps, ENTRIES, max_size=6), label="terms")
    if draw(st.booleans(), label="constant"):
        terms[(0,) * n] = draw(ENTRIES, label="constant term")
    if n and draw(st.booleans(), label="at the cap"):
        top = [0] * n
        top[draw(st.integers(0, n - 1), label="capped variable")] = DEGREE_CAP
        terms[tuple(top)] = draw(ENTRIES, label="capped coefficient")
    names = draw(st.none() | st.lists(st.text("abxyz_0123^*", min_size=1, max_size=3),
                                      min_size=n, max_size=n + 2), label="names")
    return SparsePoly(n, terms), names


@given(printed_polys())
def test_format_matches_the_unpacking_printer(drawn):
    # the printer reads only the nonzero fields of each packed monomial; its
    # text is the unpacking printer's, byte for byte
    p, names = drawn
    assert p.format(names) == reference_format(p, names)
    assert str(p) == reference_format(p)


def test_format_at_the_edges():
    cap = SparsePoly(9, {(0,) * 8 + (DEGREE_CAP,): F(-3, 2), (1,) + (0,) * 8: 1,
                         (0,) * 9: F(5, 7)})
    assert str(cap) == reference_format(cap) == "-3/2*x8^%d + x0 + 5/7" % DEGREE_CAP
    assert SparsePoly.const(0, F(-4, 6)).format() == "-2/3"
    assert SparsePoly.zero(0).format() == "0"
    p = SparsePoly(3, {(2, 0, 1): F(-1), (0, 3, 0): F(2, 3)})
    assert p.format(["e", "h", "f", "unused"]) == reference_format(p, ["e", "h", "f", "unused"])
    assert p.format(["e", "h", "f"]) == "-e^2*f + 2/3*h^3"


@given(NVARS, st.data())
def test_exact_division_matches_the_reference(n, data):
    (f, rf), (g, rg) = (pair(n, data.draw(term_dicts(n, 3), label=name)) for name in "fg")
    before = [form(f), form(g)]
    if g.is_zero():
        with pytest.raises(ZeroDivisionError):
            f.exact_div(g)
        return
    assert_same((f * g).exact_div(g), (rf * rg).exact_div(rg))
    try:
        expected = rf.exact_div(rg)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            f.exact_div(g)
    else:
        assert_same(f.exact_div(g), expected)
    assert [form(f), form(g)] == before


@given(NVARS, st.data())
def test_forms_are_canonical(n, data):
    f, rf = pair(n, data.draw(term_dicts(n), label="f"))
    g = SparsePoly(n, data.draw(term_dicts(n), label="g"))
    # the same polynomial by other routes has the same form
    assert form((f * F(2, 3)) * F(3, 2)) == form(f)
    assert form(f + g - g) == form(f)
    assert form(f - f) == form(SparsePoly.zero(n)) == (n, 1, [])
    assert form(f * 0) == (n, 1, [])
    k = data.draw(st.integers(2, 30), label="k")
    spelled = SparsePoly._of(n, f.den * k, {e: c * k for e, c in f.ints.items()})
    assert spelled == f and form(spelled) == form(f)
    # the constructors agree with the reference's
    coeffs = data.draw(st.lists(ENTRIES, min_size=n, max_size=n), label="coeffs")
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    assert_same(linear(coeffs),
                Reference(n, {u: c for u, c in zip(units, coeffs)}))
    c = data.draw(ENTRIES, label="c")
    assert_same(SparsePoly.const(n, c), Reference(n, {(0,) * n: c}))
    if n:
        assert_same(variable(n, n - 1), Reference(n, {units[-1]: 1}))
        assert_same(SparsePoly.monomial(n, (2,) * n, c), Reference(n, {(2,) * n: c}))
    with pytest.raises(AttributeError):
        f.terms = rf.terms


def test_bad_exponents_are_refused():
    with pytest.raises(ValueError, match="bad exponent"):
        SparsePoly(2, {(1,): 1})
    with pytest.raises(ValueError, match="bad exponent"):
        SparsePoly(2, {(1, -1): 1})
    assert SparsePoly(2, {(1, 0): 0}).is_zero()
    assert SparsePoly(1, {(1,): F(1, 2), (2,): F(1, 3)}).den == 6


@given(NVARS, st.data())
def test_derivations_match_their_fraction_sums(n, data):
    f, rf = pair(n, data.draw(term_dicts(n), label="f"))
    rows = data.draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n),
                              min_size=n, max_size=n), label="op")
    gamma = data.draw(st.lists(ENTRIES, min_size=n, max_size=n), label="gamma")
    op = RatMatrix(rows) if n else RatMatrix.zero(0)
    before = form(f)
    lift, direction = Reference(n), Reference(n)
    for i in range(n):
        image = Reference(n, {tuple(int(r == k) for k in range(n)): rows[r][i]
                              for r in range(n)})
        lift = lift + image * rf.partial(i)
        direction = direction + rf.partial(i) * gamma[i]
    # term order is not compared: a term that cancels partway through a sum
    # may come back in another place
    assert terms(lifted(op)(f)) == lift.terms
    assert terms(directional(gamma)(f)) == direction.terms
    assert form(f) == before


@given(structures(), st.data())
def test_seed_check_names_the_first_generator_it_fails(struct, data):
    n = struct.nvars
    seed = data.draw(polys(n), label="seed")
    brackets = [poisson_bracket(struct, seed, variable(n, i)) for i in range(n)]
    first = next((i for i, b in enumerate(brackets) if not b.is_zero()), None)
    if first is None:
        check_central(struct, [seed])
    else:
        with pytest.raises(SeedNotCentral) as exc:
            check_central(struct, [seed])
        assert (exc.value.seed_index, exc.value.var_index) == (0, first)


def test_seed_check_sums_both_sides_of_each_pair():
    # {x0, x1} = {x1, x2} = 1: {x0 + c x2, x1} = 1 - c, and x0 + c x2
    # commutes with x0 and x2, so only c = 1 makes a central seed
    one = SparsePoly.const(3, 1)
    struct = PoissonStructure(3, {(0, 1): one, (1, 2): one})
    x = [variable(3, i) for i in range(3)]
    check_central(struct, [x[0] + x[2]])
    with pytest.raises(SeedNotCentral) as exc:
        check_central(struct, [x[0] + x[2] * 2])
    assert exc.value.var_index == 1
