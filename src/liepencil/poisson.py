"""Poisson brackets on polynomial algebras and commutative families.

A Poisson structure is stored as the bracket table {x_i, x_j} for i < j, its
polynomial values as one integer form; the bracket of two polynomials is
the Leibniz extension

    {f, g} = sum_(i<j) {x_i, x_j} (df/dx_i dg/dx_j - df/dx_j dg/dx_i).

Linear tables come from structure tensors.  Operators lift to derivations
of the symmetric algebra; iterating a lifted operator on a central seed
produces a Poisson-commutative family.

The kernels read integer forms: each `SparsePoly`'s, and the table's over
one denominator, formed once per structure; `from_tensor` takes that form
straight from the tensor's, with no polynomial per pair.  Every product is
`exact._pmuladd` on the stored packed monomials, which `SparsePoly`'s
degree cap keeps exact, and partials come straight from a form
(`exact._gradient`): no kernel clears, repacks or sizes a field.  The
centre search builds its system on packed monomials too and hands its
kernel, read as integer forms, straight to `SparsePoly._of`, and the
structure records what it returned: those seeds are central by the
search's proof, so `pc_generate` checks only the others.  A family is
checked through pi grad f, the vector with entries {x_i, f} =
sum_j {x_i, x_j} df/dx_j: a seed is central when it is 0, and {f, g} =
grad f . pi grad g, so `pc_verify` forms each generator's gradient and
pi grad once, and a pair costs n products.  The CLI reads the verdict of
an argument-shift family and of a classified lift from a proof
(`cli._pc_family`), so it runs `pc_verify` only on the orbit of a not-near
lift; the tests keep it as the oracle of that proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .exact import (RatMatrix, SparsePoly, _Echelon, _gradient, _linear_forms, _pmuladd,
                    _primitive, _unpack, _variables, _weight_zero)
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


class PoissonStructure:
    """Bracket table on n polynomial generators, as one integer form:
    {x_i, x_j} for i < j is ints[(i, j)] / den, a packed integer
    polynomial over den > 0, with the whole form divided by its gcd;
    missing pairs bracket to zero.  `PoissonStructure(n, table)` takes
    {(i, j): SparsePoly} from outside, `_of` wraps a form the library
    builds.  jacobi_verified records the generator-triple check, and
    `_central` the polynomials the last `centre_candidates` search on this
    structure returned, which its proof makes central; only the
    constructors and that search write it.  Nothing writes the form once
    built.
    """

    def __init__(self, nvars, table, jacobi_verified=False):
        clean = {}
        for (i, j), p in table.items():
            if not (0 <= i < j < nvars):
                raise ValueError("table keys must satisfy i < j")
            if not p.is_zero():
                clean[(i, j)] = p
        self.nvars, self.jacobi_verified, self._central = nvars, jacobi_verified, ()
        self.den = den = lcm(*(p.den for p in clean.values()))
        self.ints = {ij: {e: c * (den // p.den) for e, c in p.ints.items()}
                     for ij, p in clean.items()}

    @classmethod
    def _of(cls, nvars, den, ints, jacobi_verified):
        """Trusted constructor: ints maps pairs i < j to nonzero packed
        integer polynomials in nvars variables, and (den, ints) has gcd 1;
        kept, no copy and no check."""
        s = object.__new__(cls)
        s.nvars, s.jacobi_verified, s._central = nvars, jacobi_verified, ()
        s.den, s.ints = den, ints
        return s


def poisson_bracket(struct, f, g):
    """Leibniz-extended bracket of two polynomials, summed on integers."""
    df, dg = _gradient(f), _gradient(g)
    total = {}
    for (i, j), b in struct.ints.items():
        piece = _pmuladd(_pmuladd({}, df[i], dg[j]), df[j], dg[i], -1)
        if piece:
            _pmuladd(total, b, piece)
    return SparsePoly._of(struct.nvars, struct.den * f.den * g.den, total)


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
                _pmuladd(acc, image, part)
        return SparsePoly._of(n, den * f.den, acc)
    return apply


def from_tensor(tensor):
    """Linear Poisson structure {x_i, x_j} = sum_k c_ij^k x_k of a Lie tensor.

    Skew tensors only: the table reads the pairs i < j, in row-major
    order, and `check_jacobi`, whose (cached) verdict on generator triples
    is recorded, raises ValueError on a tensor that is not skew.  The
    structure is the tensor's integer form (den, ints) itself, each pair's
    vector written as a packed linear form.  That form has gcd 1, and on a
    skew tensor the pairs i < j hold every entry up to sign, so their part
    has gcd 1 too: den is already the lcm of the pairs' reduced
    denominators, which `PoissonStructure(n, table)` would form.
    """
    if not check_jacobi(tensor)[0]:
        raise ValueError("bracket table violates Jacobi on generators")
    n, (den, ints) = tensor.dim, tensor.integer_form()
    linear = _linear_forms(n)
    return PoissonStructure._of(n, den, {(i, j): linear(sorted(vec.items()))
                                         for (i, j), vec in sorted(ints.items())
                                         if i < j and vec}, True)


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
    return _derivation([{0: x} if x else {} for x in g.ints[0]], g.den)


@dataclass
class PCFamily:
    """Generators of a Poisson-commutative family with their provenance."""

    generators: list
    provenance: list


def pc_generate(struct, operator, seeds):
    """Iterate a derivation on central seeds until linear dependence.

    Each seed s must commute with every generator.  A seed that the last
    `centre_candidates` search on struct returned (the very object, held
    in `struct._central`) is central by that search's proof, and is not
    checked again.  Any other seed is: {x_i, s} is entry i of pi grad s
    (`_pi_gradients`), so one gradient checks them all, and SeedNotCentral
    names the first i that fails, with the seed's index in seeds.  Every
    seed is checked before any orbit is run.  The literal operator orbit
    is returned, de-duplicated by linear span across everything collected
    so far: one `_Echelon` holds the span, and each orbit step adds one
    row to it.
    """
    if any(seed.nvars != struct.nvars for seed in seeds):
        raise ValueError("seed variable count mismatch")
    proven = set(map(id, struct._central))
    checked = [s_idx for s_idx, seed in enumerate(seeds) if id(seed) not in proven]
    for s_idx, (_, image) in zip(checked, _pi_gradients(struct, [seeds[k] for k in checked])):
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


def pc_verify(family, struct):
    """Check all generator pairs commute; returns a certificate naming
    the first pair (a, b), a < b in lexicographic order, that does not.

    Reads {f_a, f_b} = sum_i df_a/dx_i (pi grad f_b)_i.  Each generator's
    gradient and pi grad are formed once (`_pi_gradients`), so a pair costs
    n products of stored forms, and a generator with pi grad f = 0 (a
    central one) is in no pair, since {f, g} = -{g, f} = 0 for every g.
    No bracket is built: the sum is only tested for zero.
    """
    forms = _pi_gradients(struct, family.generators)
    live = [(a, grad, image) for a, (grad, image) in enumerate(forms) if any(image)]
    for k, (a, grad, _) in enumerate(live):
        for b, _, image in live[k + 1:]:
            acc = {}
            for part, entry in zip(grad, image):
                _pmuladd(acc, part, entry)
            if acc:
                return Certificate(False, (a, b))
    return Certificate(True, None)


def _pi_gradients(struct, polys):
    """[(grad f, pi grad f) for f in polys], each a list of n packed integer
    polynomials over f.den and struct.den * f.den: entry i of pi grad f is
    sum_j {x_i, x_j} df/dx_j = {x_i, f}, formed on the stored forms."""
    out = []
    for f in polys:
        grad = _gradient(f)
        image = [{} for _ in grad]
        for (i, j), b in struct.ints.items():
            _pmuladd(image[i], b, grad[j])
            _pmuladd(image[j], b, grad[i], -1)
        out.append((grad, image))
    return out


def centre_candidates(struct, max_degree=2):
    """Basis of central polynomials per homogeneous degree 1..max_degree.

    Requires a linear bracket table (degree is then preserved, so centrality
    decouples by degree).  Returns the canonical kernel bases as polynomials,
    lowest degree first.  The system is built from the table's integer form,
    {x^m, x_i} = sum_j m_j x^(m - e_j) sum_k c_ji^k x_k, one sparse
    {column: int} row per (generator, result monomial) pair
    (`_centrality_rows`), on packed monomials.  Entries that cancel are
    dropped as the rows are built, and an `_Echelon` takes the rows without
    a copy, in ascending key order (the row keys are below).  The canonical
    kernel basis depends only on the kernel K, not on row order, row
    scaling or zero rows, so any order gives the same basis.  This order is
    used because it was measured: in the order the rows are built in, the
    search took 2.6-6 times as long on sl5, gl5 and sl6 at degree 5 and on
    sl6 at degree 6.  The basis is read as integer forms (`kernel_forms`),
    which `SparsePoly._of` takes with their terms in column order.  Each
    returned polynomial is in that kernel, so it is central, and the list
    is recorded on struct (`_central`) for `pc_generate` to read as this
    proof.

    On a table that passed Jacobi (`jacobi_verified`) the rows are built
    only for the generators i that `_generating_set` keeps.  There the
    Poisson bracket of S(q) satisfies Jacobi, so {f, .} is a derivation of
    it, and the x in q with {f, x} = 0 form a Lie subalgebra.  It holds
    every central x, since {x, x_j} = 0 for all j gives {x, f} = 0 by
    Leibniz.  So f is central once it commutes with a set that generates q
    together with the central basis vectors, and the restricted system has
    the same kernel.  Any other table keeps every generator.

    The unknowns are only the monomials of weight 0.  A basis element x_h
    acts diagonally when {x_h, x_i} = w_i x_i for every i, read off the
    table; each one with a nonzero weight vector w is a filter.  The bracket
    is extended by Leibniz, whatever the table, so {x_h, x^m} = (m . w) x^m,
    and the rows of generator h in the system with every row read
    (m . w) c_m = 0: a central f has c_m = 0 unless m . w = 0.  On a table
    that passed Jacobi the restricted rows have the kernel of the full
    system, as above, and the full system holds generator h's rows whether
    or not h is kept; on any other table every generator is kept, h
    included.  Jacobi is not needed either way.  So the kernel K of every
    system lies in the span of the weight-0 columns, and dropping the other
    columns leaves K itself, read on fewer coordinates.  The canonical
    kernel basis depends on K alone, with the columns in order: its free
    columns are the last nonzero columns of the vectors of K, and the
    vector of a free column f is the one in K with a 1 at f and 0 at every
    other free column.  A column of nonzero weight is 0 on K, so it is a
    pivot, never free, and each basis vector is 0 there; the kept columns
    are in their old order, so the basis read on them is the same.

    No rows are built for a filter h, kept or not.  On the weight-0
    columns, h's row at x^m reads (m . w) c_m = 0 with m . w = 0 for every
    column m, so each of its rows is zero there, and a zero row does not
    change a kernel.  This too uses Leibniz only, not Jacobi.

    The columns come from one packed weight key (`exact._weight_zero`).
    Each degree is enumerated from the one before as x^m x_k, k at least
    the last variable of x^m, which is the order of
    `combinations_with_replacement`, and each monomial carries the key
    sum_f (m . w_f) 2^(b f) over the filters w_f, added up one variable at
    a time.  A monomial is a column when its key is 0, one int comparison.
    The width: every field is balanced, |m . w_f| <= max_degree * max|w|,
    and with 2^b above that bound a sum sum_f s_f 2^(b f) is 0 only when
    every s_f is.  At the lowest f with s_f != 0 the sum is
    2^(b f) (s_f + 2^b * rest), and 2^b does not divide s_f, as
    0 < |s_f| < 2^b.  So b is the bit length of max_degree * max|w|: a zero
    test needs no sign bit, one bit less than reading a field back would.
    The exponents of a column are read off its packed int (`_unpack`), and
    a row is keyed r * n + i, r the packed result monomial and i the
    generator, so each (generator, result monomial) pair has its own key.
    """
    n = struct.nvars
    unit = _variables(n)
    variable = {u: k for k, u in enumerate(unit)}
    # lin[j][i] = {k: c}: {x_j, x_i} = sum_k c x_k, times the table's den
    lin = [[{} for _ in range(n)] for _ in range(n)]
    for (a, b), form in struct.ints.items():
        for m, c in form.items():
            k = variable.get(m)
            if k is None:
                raise ValueError("centre candidates need a linear bracket table")
            lin[a][b][k] = c
            lin[b][a][k] = -c
    # the filters: basis elements that act diagonally, with a nonzero weight vector
    diagonal = [h for h, lin_h in enumerate(lin)
                if any(lin_h) and all(row.keys() <= {i} for i, row in enumerate(lin_h))]
    weights = dict.fromkeys(tuple(row.get(i, 0) for i, row in enumerate(lin[h]))
                            for h in diagonal)
    kept = _generating_set(lin) if struct.jacobi_verified else range(n)
    gens = [i for i in kept if i not in diagonal]
    # terms[j]: (offset, c) for each {x_j, x_i} = ... + c x_k, i in gens: the
    # row of generator i at x^r, r = m - e_j + e_k, is keyed r * n + i = m * n + offset
    terms = [[((unit[k] - unit[j]) * n + i, c) for i in gens for k, c in lin_j[i].items()]
             for j, lin_j in enumerate(lin)]
    out = []
    for columns in _weight_zero(n, max_degree, list(weights)):
        rows = _centrality_rows(n, columns, terms)
        for den, form in _Echelon([rows[k] for k in sorted(rows)]).kernel_forms(len(columns)):
            out.append(SparsePoly._of(n, den, {columns[c]: x for c, x in form.items()}))
    struct._central = tuple(out)
    return out


def _centrality_rows(n, columns, terms):
    """The system of `centre_candidates` on the packed monomials columns in
    n variables, as {row key: {column: nonzero int}}: column col, x^m, has
    m_j c in the row keyed m * n + offset for each (offset, c) in terms[j]."""
    rows = {}
    for col, m in enumerate(columns):
        base = m * n
        for mj, terms_j in zip(_unpack(m, n), terms):
            if not mj:
                continue
            for off, c in terms_j:
                key = base + off
                row = rows.get(key)
                if row is None:
                    rows[key] = {col: mj * c}
                    continue
                s = row.get(col, 0) + mj * c
                if s:
                    row[col] = s
                else:
                    del row[col]
    return rows


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

