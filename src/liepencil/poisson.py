"""Poisson brackets on polynomial algebras and commutative families.

A Poisson structure is stored as the bracket table {x_i, x_j} for i < j with
polynomial values; the bracket of two polynomials is the Leibniz extension

    {f, g} = sum_(i<j) {x_i, x_j} (df/dx_i dg/dx_j - df/dx_j dg/dx_i).

Linear tables come from structure tensors.  Operators lift to derivations
of the symmetric algebra; iterating a lifted operator on a central seed
produces a Poisson-commutative family.

The kernels read integer forms: each `SparsePoly`'s, and the table's over
one denominator, formed once per structure.  The bracket, the centrality
check and the lifted derivations take partials straight from a form; no
kernel clears a polynomial.  A family is checked through pi grad f, the
vector with entries {x_i, f} = sum_j {x_i, x_j} df/dx_j: a seed is central
when it is 0, and {f, g} = grad f . pi grad g, so `pc_verify` forms each
generator's gradient and pi grad once, on monomials packed into ints, and
a pair costs n products.  The CLI reads the verdict of an argument-shift
family and of a classified lift from a proof (`cli._pc_family`), so it
runs `pc_verify` only on the orbit of a not-near lift; the tests keep it
as the oracle of that proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import lcm
from operator import mul

from .exact import (RatMatrix, SparsePoly, _Echelon, _linear_forms, _muladd, _packing,
                    _pmuladd, _primitive)
from .tensors import check_jacobi

# pc_generate gives up on an orbit that has not closed after this many steps
MAX_ORBIT_STEPS = 1000


class SeedNotCentral(ValueError):
    """A proposed seed fails centrality; carries the witness generator index."""

    def __init__(self, seed_index, var_index):
        self.seed_index = seed_index
        self.var_index = var_index
        super().__init__("seed %d does not commute with generator %d"
                         % (seed_index, var_index))


@dataclass
class PoissonStructure:
    """Bracket table on n polynomial generators.

    table maps (i, j) with i < j to the polynomial {x_i, x_j}; missing pairs
    bracket to zero.  jacobi_verified records the generator-triple check.
    The kernels read table[(i, j)] as ints[(i, j)] / den, the table's form.
    """

    nvars: int
    table: dict
    jacobi_verified: bool = False

    def __post_init__(self):
        clean = {}
        for (i, j), p in self.table.items():
            if not (0 <= i < j < self.nvars):
                raise ValueError("table keys must satisfy i < j")
            if not p.is_zero():
                clean[(i, j)] = p
        self.table = clean
        self.den = den = lcm(*(p.den for p in clean.values()))
        self.ints = {ij: {e: c * (den // p.den) for e, c in p.ints.items()}
                     for ij, p in clean.items()}


def poisson_bracket(struct, f, g):
    """Leibniz-extended bracket of two polynomials, summed on integers."""
    df, dg = _gradient(f), _gradient(g)
    total = {}
    for (i, j), b in struct.ints.items():
        piece = _muladd(_muladd({}, df[i], dg[j]), df[j], dg[i], -1)
        if piece:
            _muladd(total, b, piece)
    return SparsePoly._of(struct.nvars, struct.den * f.den * g.den, total)


def _gradient(f):
    """The partials of f as integer polynomial dicts over f.den, x_0 first."""
    grad = [{} for _ in range(f.nvars)]
    for e, c in f.ints.items():
        for i, k in enumerate(e):
            if k:
                grad[i][e[:i] + (k - 1,) + e[i + 1:]] = c * k
    return grad


def _derivation(images, den):
    """f -> sum_i images[i] * df/dx_i, each image an integer polynomial dict
    over den: one integer accumulation per call, on images built once."""
    n = len(images)

    def apply(f):
        if f.nvars != n:
            raise ValueError("variable count mismatch")
        acc = {}
        for image, part in zip(images, _gradient(f)):
            if part:
                _muladd(acc, image, part)
        return SparsePoly._of(n, den * f.den, acc)
    return apply


def from_tensor(tensor):
    """Linear Poisson structure {x_i, x_j} = sum_k c_ij^k x_k of a Lie tensor.

    Skew tensors only: the table reads the pairs i < j, in row-major
    order, and `check_jacobi`, whose (cached) verdict on generator triples
    is recorded, raises ValueError on a tensor that is not skew.
    """
    if not check_jacobi(tensor)[0]:
        raise ValueError("bracket table violates Jacobi on generators")
    n, (den, ints) = tensor.dim, tensor.integer_form()
    linear = _linear_forms(n)
    return PoissonStructure(n, {(i, j): SparsePoly._of(n, den, linear(sorted(vec.items())))
                                for (i, j), vec in sorted(ints.items()) if i < j}, True)


def lifted(op):
    """The derivation of the symmetric algebra extending a linear map, as a
    polynomial endomap.

    The lift sends f to sum_i (D x_i) * df/dx_i; it preserves polynomial
    degree and restricts to D on the generators.  The images D x_i are
    integer linear forms over op.den.
    """
    linear = _linear_forms(op.nrows)
    return _derivation([linear(enumerate(col)) for col in zip(*op.ints)], op.den)


def directional(gamma):
    """f -> sum_i gamma_i df/dx_i (the frozen-direction derivative)."""
    g = RatMatrix([gamma])
    one = (0,) * g.ncols
    return _derivation([{one: x} if x else {} for x in g.ints[0]], g.den)


@dataclass
class PCFamily:
    """Generators of a Poisson-commutative family with their provenance."""

    generators: list
    provenance: list


def pc_generate(struct, operator, seeds):
    """Iterate a derivation on central seeds until linear dependence.

    Each seed s must commute with every generator: {x_i, s} is entry i of
    pi grad s (`_pi_gradients`), so one gradient checks them all, and
    SeedNotCentral names the first i that fails.  Every seed is checked
    before any orbit is run.  The literal operator orbit is returned,
    de-duplicated by linear span across everything collected so far: one
    `_Echelon` holds the span, and each orbit step adds one row to it.
    """
    if any(seed.nvars != struct.nvars for seed in seeds):
        raise ValueError("seed variable count mismatch")
    extra = max([seed.total_degree() - 1 for seed in seeds] + [0])
    for s_idx, (_, image) in enumerate(_pi_gradients(struct, seeds, extra)):
        witness = next((i for i, v in enumerate(image) if v), None)
        if witness is not None:
            raise SeedNotCentral(s_idx, witness)
    gens = []
    prov = []
    span = _Echelon([])
    for s_idx, seed in enumerate(seeds):
        current = seed
        power = 0
        while True:
            if power > MAX_ORBIT_STEPS:
                raise ValueError("orbit failed to close after %d steps" % MAX_ORBIT_STEPS)
            if not span.add(dict(current.ints)):
                break
            gens.append(current)
            prov.append("seed%d" % s_idx if power == 0
                        else "seed%d:D^%d" % (s_idx, power))
            current = operator(current)
            power += 1
    return PCFamily(gens, prov)


@dataclass
class Certificate:
    ok: bool
    witness: tuple | None
    bracket: SparsePoly | None


def pc_verify(family, struct):
    """Check all generator pairs commute; returns a certificate naming
    the first pair (a, b), a < b in lexicographic order, that does not,
    with its bracket.

    Reads {f_a, f_b} = sum_i df_a/dx_i (pi grad f_b)_i.  Each generator's
    gradient and pi grad are formed once (`_pi_gradients`), so a pair costs
    n packed products, and a generator with pi grad f = 0 (a central one)
    is in no pair, since {f, g} = -{g, f} = 0 for every g.  Only the
    witness pair's bracket is built, by `poisson_bracket`.  A product's
    total degree is at most deg f_a + deg f_b + t - 2, t the table's
    largest degree, and pi grad f reaches t + deg f - 1, so the monomials
    are packed in fields for total degree t + max(d_1 + max(d_2, 1) - 2, 0),
    d_1 >= d_2 the two largest generator degrees (d_2 = 0 for a lone
    generator): it bounds every product, every pi grad f, every gradient
    and every table entry.
    """
    gens = family.generators
    d2, d1 = ([0, 0] + sorted(g.total_degree() for g in gens))[-2:]
    forms = _pi_gradients(struct, gens, max(d1 + max(d2, 1) - 2, 0))
    live = [(a, grad, image) for a, (grad, image) in enumerate(forms) if any(image)]
    for k, (a, grad, _) in enumerate(live):
        for b, _, image in live[k + 1:]:
            acc = {}
            for part, entry in zip(grad, image):
                _pmuladd(acc, part, entry)
            if acc:
                return Certificate(False, (a, b), poisson_bracket(struct, gens[a], gens[b]))
    return Certificate(True, None, None)


def _pi_gradients(struct, polys, extra):
    """[(grad f, pi grad f) for f in polys], each a list of n packed integer
    polynomials over f.den and struct.den * f.den: entry i of pi grad f is
    sum_j {x_i, x_j} df/dx_j = {x_i, f}.  Monomials are packed by
    `_packing` in fields of (t + extra).bit_length() bits, t the table's
    largest degree, which hold every monomial of total degree up to
    t + extra.  pi grad f reaches t + deg f - 1, so extra must be at least
    deg f - 1 for every f.
    """
    t = max((sum(e) for b in struct.ints.values() for e in b), default=0)
    pack = _packing(struct.nvars, (t + extra).bit_length())
    table = [(i, j, {pack(e): c for e, c in b.items()}) for (i, j), b in struct.ints.items()]
    out = []
    for f in polys:
        grad = [{pack(e): c for e, c in part.items()} for part in _gradient(f)]
        image = [{} for _ in grad]
        for i, j, b in table:
            _pmuladd(image[i], b, grad[j])
            _pmuladd(image[j], b, grad[i], -1)
        out.append((grad, image))
    return out


def centre_candidates(struct, max_degree=2):
    """Basis of central polynomials per homogeneous degree 1..max_degree.

    Requires a linear bracket table (degree is then preserved, so centrality
    decouples by degree).  Returns the canonical kernel bases as polynomials,
    lowest degree first.  The system is built from the table's integer form,
    {m, x_i} = sum_j m_j x^(m - e_j) sum_k c_ji^k x_k, one sparse
    {monomial column: int} row per (generator, result monomial) pair.
    Entries that cancel are dropped as the rows are built, and an
    `_Echelon` takes the rows without a copy.  The canonical kernel basis
    does not depend on row order, row scaling or zero rows.

    On a table that passed Jacobi (`jacobi_verified`) the rows are built
    only for the generators i that `_generating_set` keeps.  There the
    Poisson bracket of S(q) satisfies Jacobi, so {f, .} is a derivation of
    it, and the x in q with {f, x} = 0 form a Lie subalgebra.  It holds
    every central x, since {x, x_j} = 0 for all j gives {x, f} = 0 by
    Leibniz.  So f is central once it commutes with a set that generates q
    together with the central basis vectors, and the restricted system has
    the same kernel.  Any other table keeps every row.

    The unknowns are only the monomials of weight 0.  A basis element x_h
    acts diagonally when {x_h, x_i} = w_i x_i for every i, read off the
    table; each one with a nonzero weight vector w is a filter.  The bracket
    is extended by Leibniz, whatever the table, so {x_h, x^m} = (m . w) x^m,
    and the rows of generator h in the system with every row read
    (m . w) c_m = 0: a central f has c_m = 0 unless m . w = 0.  On a table
    that passed Jacobi the restricted rows have the kernel of the full
    system, as above, and the full system holds generator h's rows whether
    or not h is kept; on any other table every row is built, h's included.
    Jacobi is not needed either way.  So the kernel K of every system
    built lies in the span of the weight-0 columns, and dropping the other
    columns leaves K itself, read on fewer coordinates.  The canonical
    kernel basis depends on K alone, with the columns in order: its free
    columns are the last nonzero columns of the vectors of K, and the
    vector of a free column f is the one in K with a 1 at f and 0 at every
    other free column.  A column of nonzero weight is 0 on K, so it is a
    pivot, never free, and each basis vector is 0 there; the kept columns
    are in their old order, so the basis read on them is the same.  The
    row keys still number every monomial, since a row's result monomial
    need not have weight 0.
    """
    n = struct.nvars
    # lin[j][i] = {k: c}: {x_j, x_i} = sum_k c x_k, times the table's den
    lin = [[{} for _ in range(n)] for _ in range(n)]
    for (a, b), terms in struct.ints.items():
        for e, c in terms.items():
            if sum(e) != 1:
                raise ValueError("centre candidates need a linear bracket table")
            k = e.index(1)
            lin[a][b][k] = c
            lin[b][a][k] = -c
    kept = _generating_set(lin) if struct.jacobi_verified else range(n)
    # the weight vectors of the basis elements that act diagonally
    weights = {tuple(row.get(i, 0) for i, row in enumerate(lin_h)) for lin_h in lin
               if any(lin_h) and all(row.keys() <= {i} for i, row in enumerate(lin_h))}
    out = []
    for d in range(1, max_degree + 1):
        monos = [tuple(_exps(n, combo)) for combo in
                 combinations_with_replacement(range(n), d)]
        size = len(monos)
        column = {m: col for col, m in enumerate(monos)}
        unknowns = monos
        for w in weights:
            unknowns = [m for m in unknowns if not sum(map(mul, w, m))]
        # raised[b][k]: the index of b + e_k in monos, for b of degree d - 1
        raised = {}
        # row i * size + column(r): generator i, result monomial r; terms[j]
        # lists (i * size, k, c) for each {x_j, x_i} = ... + c x_k, i kept
        rows = {}
        terms = [[(i * size, k, c) for i in kept for k, c in lin_j[i].items()]
                 for lin_j in lin]
        for col, m in enumerate(unknowns):
            for j, mj in enumerate(m):
                if not mj:
                    continue
                base = m[:j] + (mj - 1,) + m[j + 1:]
                up = raised.get(base)
                if up is None:
                    up = raised[base] = [column[base[:k] + (base[k] + 1,) + base[k + 1:]]
                                         for k in range(n)]
                for off, k, c in terms[j]:
                    row = rows.setdefault(off + up[k], {})
                    s = row.get(col, 0) + mj * c
                    if s:
                        row[col] = s
                    else:
                        del row[col]
        for vec in _Echelon(list(rows.values())).kernel(len(unknowns)):
            out.append(SparsePoly(n, {m: c for m, c in zip(unknowns, vec) if c}))
    return out


def _generating_set(lin):
    """The generators i, in order, whose x_i with the central basis vectors
    generate the Lie algebra of the linear table lin (as in
    `centre_candidates`).  A central x_i is skipped, and so is an x_i
    already in the subalgebra generated so far; each kept x_i is added and
    the span closed under the bracket.  One `_Echelon` holds the span, and
    every new bracket goes in through `add`: a bracket that grows the rank
    is a new spanning vector, to be bracketed with every earlier one."""
    n = len(lin)
    span = _Echelon([])
    basis = []
    kept = []
    for i, lin_i in enumerate(lin):
        if not any(lin_i) or not span.add({i: 1}):
            continue
        kept.append(i)
        new = [{i: 1}]
        while new and len(span.pivot) < n:
            u = new.pop()
            for v in basis:
                w = {}
                for a, ua in u.items():
                    for b, vb in v.items():
                        for k, c in lin[a][b].items():
                            w[k] = w.get(k, 0) + ua * vb * c
                w = {k: c for k, c in w.items() if c}
                if w:
                    _primitive(w)
                    if span.add(dict(w)):
                        new.append(w)
            basis.append(u)
    return kept


def _exps(n, combo):
    e = [0] * n
    for i in combo:
        e[i] += 1
    return e
