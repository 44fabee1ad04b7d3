"""Command-line front end tying the engine together.

Subcommands: classify, derive, pencil, index, torsion, nijenhuis-check,
exp-check, pc-check, example, report.  All file formats are the JSON
interchange of the io module; reports print as "key: value" text or as a JSON
document with deterministic field order.  Exit codes: 0 all checks pass,
1 a mathematical check failed (witness in the report), 2 input error,
3 an unexpected error (a bug; one stderr line names the exception type).

Each subcommand NAME is a function cmd_NAME from the parsed arguments to
(document, exit code) that prints nothing.  `main` is the one place that
prints: it emits the document, or names the error on stderr.  So every
command's document passes through `main`, which is where a `--trace` of
stages and timings would hook in.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import __version__
from . import constructions as cons
from . import io as iomod
from . import nijenhuis as nij
from . import poisson as pois
from .analysis import lie_centre, lie_index, lower_central_series
from .exact import _INTEGER, DEGREE_CAP, format_rat, parse_rat
from .tensors import (ArgumentError, IrrationalEigenvalues, TAG_DERIVATION, TAG_NEAR,
                      TAG_NOT_NEAR, TAG_QUASI, TAG_SCALAR, check_jacobi, classify_operator,
                      derived_iter, is_lie, near_theorem, normalize_pencil, pencil_lie)

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

SEED_ENV = "LIEPENCIL_SEED"

# the flag or positional of each engine parameter an `ArgumentError` can name:
# the engine owns each refusal, and `main` names the input at fault from here
ARGUMENTS = {"family": "FAMILY", "n": "N", "weights": "--weights", "partition": "--partition",
             "part_a": "--sub", "part_b": "--complement", "parts": "--sub/--complement",
             "modulus": "--modulus", "tensor": "--algebra", "op": "--operator", "m": "--m",
             "points": "--points", "k": "--power"}

# the comma-list options: argparse reads a next word such as "-1,0,2" as an
# option, so `main` joins it to its option as "--gamma=-1,0,2"
LIST_OPTIONS = {"--gamma", "--points", "--weights", "--partition", "--sub", "--complement"}

# fixed pencil sample points (alpha, beta) used by `pencil` and `report`
MEMBER_SAMPLES = ((1, 1), (1, 2), (2, 1), (1, -1), (3, 5))


class InputProblem(Exception):
    pass


def _emit(doc, args):
    if getattr(args, "json", False):
        print(json.dumps(doc, indent=2))
    else:
        _print_text(doc)


def _print_text(doc, indent=0):
    pad = "  " * indent
    for key, value in doc.items():
        if isinstance(value, dict):
            print("%s%s:" % (pad, key))
            _print_text(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print("%s%s:" % (pad, key))
            for item in value:
                _print_text(item, indent + 1)
                if item is not value[-1]:
                    print("%s  -" % pad)
        else:
            print("%s%s: %s" % (pad, key, _scalar_text(value)))


def _scalar_text(value):
    if isinstance(value, list):
        return "[" + ", ".join(str(x) for x in value) + "]"
    if value is None:
        return "-"
    return str(value)


def _load(args):
    """The algebra of --algebra and the operator of --operator, whose
    dimension must match the algebra's."""
    tensor, _ = iomod.load_algebra(args.algebra)
    return tensor, _load_operator(args.operator, tensor.dim)


def _load_operator(path, dim):
    op = iomod.load_operator(path)
    if op.nrows != dim:
        raise InputProblem("operator dimension %d does not match algebra dimension %d"
                           % (op.nrows, dim))
    return op


def _parse_rationals(text, flag):
    """The comma-separated rationals in text, each read by `parse_rat`."""
    try:
        return [parse_rat(part) for part in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise InputProblem("cannot parse %s %r: rationals expected" % (flag, text))


def _integer(text):
    """The int text spells as an optional sign and ASCII digits (the integer
    part of `parse_rat`'s rule), spaces around it dropped; else None.  Every
    integer the CLI reads, from an argument, an option or the environment,
    is read by this rule."""
    text = text.strip()
    return int(text) if _INTEGER.fullmatch(text) else None


def _int_option(text):
    """argparse type of the integer options; argparse names the option and
    exits 2 on a value outside the rule."""
    value = _integer(text)
    if value is None:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    return value


def _parse_ints(text, flag):
    """The comma-separated integers in text, each read by `_integer`."""
    ints = [_integer(part) for part in text.split(",")]
    if None in ints:
        raise InputProblem("cannot parse %s %r: integers expected" % (flag, text))
    return ints


def _at_least(value, low, flag):
    if value < low:
        raise InputProblem("%s must be at least %d, got %d" % (flag, low, value))


def _env_seed(args):
    if getattr(args, "seed", None) is not None:
        return args.seed
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return None
    seed = _integer(raw)
    if seed is None:
        raise InputProblem("%s must be an integer, got %r" % (SEED_ENV, raw))
    return seed


def _classify_doc(tensor, op):
    act = classify_operator(tensor, op)
    doc = {
        "tag": act.tag,
        "a": format_rat(act.a) if act.a is not None else None,
        "b": format_rat(act.b) if act.b is not None else None,
        "mode": None,
        "degenerate_lines": None,
    }
    if act.tag == TAG_SCALAR:
        doc["scalar"] = format_rat(act.scalar)
    norm = None
    if act.tag in (TAG_QUASI, TAG_NEAR):
        try:
            norm = normalize_pencil(act)
            doc["mode"] = norm.mode
            doc["degenerate_lines"] = len(norm.degenerate_lines)
        except IrrationalEigenvalues as exc:
            doc["mode"] = "irrational-eigenvalues"
            doc["note"] = str(exc)
    checks = {"input_skew": tensor.is_skew(), "input_jacobi": check_jacobi(tensor)[0]}
    if not act.derived.is_zero():
        checks["derived_skew"] = act.derived.is_skew()
        checks["derived_jacobi"] = near_theorem(act) or check_jacobi(act.derived)[0]
    doc["jacobi_checks"] = checks
    return act, norm, doc


def _tensor_doc(doc, result, out, metadata, **extra):
    """doc with the entries of the skew result (its upper triangle), then
    extra; with out (--out) set, result is written there as an algebra file."""
    doc["entries"] = [[i, j, k, format_rat(c)] for i, j, k, c in result.support() if i < j]
    doc.update(extra)
    if out:
        iomod.save_algebra(result, out, metadata=metadata)
        doc["written"] = out
    return doc


def _eigenvalue_witnesses(tors, op):
    """{"eigenvalue_witnesses": [...]} for a diagonal op, else {}: the
    support of its torsion tors, since for op = diag(mu) the torsion is
    (mu_k - mu_i)(mu_k - mu_j) c_ij^k, nonzero exactly where an eigenvalue
    obstruction lies."""
    if not op.is_diagonal():
        return {}
    return {"eigenvalue_witnesses": [[i, j, k, format_rat(c)] for i, j, k, c in tors.support()]}


def cmd_classify(args):
    return _classify_doc(*_load(args))[2], EXIT_OK


def cmd_derive(args):
    tensor, op = _load(args)
    result = derived_iter(tensor, op, args.power)
    doc = {"power": args.power, "zero": result.is_zero(), "skew": result.is_skew(),
           "lie": is_lie(result)}
    return _tensor_doc(doc, result, args.out, {"derived_power": args.power}), EXIT_OK


def cmd_pencil(args):
    tensor, op = _load(args)
    act, norm, doc = _classify_doc(tensor, op)
    if act.tag == TAG_NOT_NEAR:
        doc["error"] = "second derived bracket leaves the pencil"
        return doc, EXIT_CHECK
    if act.tag in (TAG_DERIVATION, TAG_SCALAR):
        doc["note"] = "pencil is a single line; nothing to normalize"
        return doc, EXIT_OK
    if norm is None:
        return doc, EXIT_CHECK    # irrational eigenvalues: honest refusal
    doc["shift"] = format_rat(norm.shift)
    doc["eigenvalues"] = [format_rat(v) for v in norm.eigenvalues]
    doc["normalized_b"] = format_rat(norm.b)
    lie = pencil_lie(act, norm)
    doc["members"] = [{"alpha": alpha, "beta": beta, "lie": lie(alpha, beta)}
                      for alpha, beta in MEMBER_SAMPLES]
    doc["degenerate_lines_lie"] = all(lie(*line) for line in norm.degenerate_lines)
    ok = all(m["lie"] for m in doc["members"]) and doc["degenerate_lines_lie"]
    return doc, EXIT_OK if ok else EXIT_CHECK


def cmd_index(args):
    _at_least(args.samples, 1, "--samples")
    _at_least(args.max_exact_dim, 0, "--max-exact-dim")
    tensor, _ = iomod.load_algebra(args.algebra)
    if args.mode == "exact" and tensor.dim > args.max_exact_dim:
        raise InputProblem("--max-exact-dim: exact-symbolic index refused above dimension %d; "
                           "--algebra has dimension %d" % (args.max_exact_dim, tensor.dim))
    rep = lie_index(tensor, mode=args.mode, samples=args.samples, seed=_env_seed(args))
    doc = {
        "dim": rep.dim,
        "rank": rep.rank,
        "index": rep.index,
        "method": rep.method,
    }
    if rep.method == "probabilistic":
        doc["samples"] = rep.samples
        doc["note"] = rep.note
    return doc, EXIT_OK


def cmd_torsion(args):
    tensor, op = _load(args)
    tors = nij.torsion(tensor, op)
    doc = _tensor_doc({"zero": tors.is_zero()}, tors, args.out, {"torsion": "true"},
                      **_eigenvalue_witnesses(tors, op))
    return doc, EXIT_OK


def cmd_nijenhuis_check(args):
    _at_least(args.depth, 1, "--depth")
    tensor, op = _load(args)
    rep = nij.check_N_properties(tensor, op, depth=args.depth)
    first = min(rep.torsion.integer_form()[1], default=None)   # the least pair of nonzero torsion
    doc = {"nijenhuis": first is None, "witness": list(first) if first else None}
    if first:
        doc.update(_eigenvalue_witnesses(rep.torsion, op))
        return doc, EXIT_CHECK
    doc["depth"] = args.depth
    doc["powers"] = [{
        "k": st.k,
        "power_is_nijenhuis": st.power_is_nijenhuis,
        "iterate_matches_power": st.iterate_matches_power,
        "iterate_is_lie": st.iterate_is_lie,
    } for st in rep.steps]
    doc["pairwise_compatible"] = rep.pairwise_compatible
    if not rep.pairwise_compatible:
        doc["compat_witness"] = list(rep.compat_witness)
    doc["ok"] = rep.ok
    return doc, EXIT_OK if rep.ok else EXIT_CHECK


def cmd_exp_check(args):
    tensor, op = _load(args)
    points = (_parse_rationals(args.points, "--points") if args.points else None)
    if args.kind == "nijenhuis":
        if args.m is not None:
            raise InputProblem("--m applies to --kind near only")
        if bool(points) == args.certified:
            raise InputProblem("give exactly one of --points and --certified")
        rep = nij.exp_identity_nijenhuis(tensor, op, points)
    else:
        if args.certified:
            raise InputProblem("--certified applies to --kind nijenhuis only")
        if args.m is None:
            raise InputProblem("--kind near requires --m")
        if not points:
            raise InputProblem("--kind near requires --points")
        rep = nij.exp_identity_near(tensor, op, args.m, points)
    doc = {
        "kind": args.kind,
        "ok": rep.ok,
        "precondition_ok": rep.precondition_ok,
        "points_checked": [format_rat(p) for p in rep.points],
        "witness": list(rep.witness) if rep.witness else None,
    }
    return doc, EXIT_OK if rep.ok and rep.precondition_ok else EXIT_CHECK


def _pc_inputs(args, tensor, op=None):
    """The orbit operator of a family check, its description, the seeds
    read from --seed-file (None without one) and the matrix it lifts (None
    for the directional orbit of --gamma); op is the operator already read
    from --operator, if any."""
    _at_least(args.degree_bound, 1, "--degree-bound")
    if args.degree_bound > DEGREE_CAP:    # the polynomial degree cap
        raise InputProblem("--degree-bound must be at most %d, got %d"
                           % (DEGREE_CAP, args.degree_bound))
    lift = None
    if args.gamma:
        gamma = _parse_rationals(args.gamma, "--gamma covector")
        if len(gamma) != tensor.dim:
            raise InputProblem("--gamma covector has %d entries, the algebra has dimension %d"
                               % (len(gamma), tensor.dim))
        operator, op_desc = pois.directional(gamma), "directional"
    elif op is None and not args.operator:
        raise InputProblem("pc-check needs --operator or --gamma")
    else:
        lift = op if op is not None else _load_operator(args.operator, tensor.dim)
        operator, op_desc = pois.lifted(lift), "lifted"
    seeds = iomod.load_seeds(args.seed_file, tensor.dim) if args.seed_file else None
    if seeds == []:
        raise InputProblem("--seed-file %s holds no seeds" % args.seed_file)
    return operator, op_desc, seeds, lift


def _pc_family(args, tensor, operator, seeds, act):
    """(family, certificate) of a family check: the orbit of operator
    through the seeds `_pc_inputs` read, or through the centre candidates up
    to --degree-bound when seeds is None, and its commutation verdict.  act
    is `classify_operator`'s action of the lifted matrix, None for --gamma.
    A seed that is not central raises `SeedNotCentral`.

    The verdict is read from a proof, with no bracket formed, for --gamma
    and for a lift with `near_theorem(act)`; only a not-near lift is
    scanned pair by pair (`pc_verify`), for its witness; the Poisson form
    (`from_tensor`) is built for those two readers only.  The
    proof rests on every seed F being central, {x_i, F}_T = 0 for every
    generator: a centre candidate is central by the proof of
    `centre_candidates`, and `check_central` checks every --seed-file seed
    before any orbit step.  The generators are then D^k F for seeds F,
    de-duplicated by span (`pc_generate`).

    (a) Lemma.  Let P and Q be skew brackets on S(q), F a Casimir of P and
    G a Casimir of Q.  Then {F, G}_P = 0, and {F, G}_Q = -{G, F}_Q = 0, so
    {F, G}_R = 0 for every R in span{P, Q}.  Only skewness is used, not
    Jacobi.

    (b) --gamma.  The orbit steps are the Taylor coefficients of the shift
    F(x + t gamma) = sum_k t^k d_gamma^k F / k!.  The shift is an
    automorphism of S(q) that adds the constant t gamma_i to x_i, so it
    carries {x_i, x_j}_T = sum_k c_ij^k x_k to that of pi_T + t pi_gamma,
    pi_gamma the constant bracket gamma([x_i, x_j]); constants are central,
    so F(x + t gamma) is a Casimir of pi_T + t pi_gamma.  For t != s these
    two span a plane that holds pi_T (or both are pi_T when pi_gamma = 0),
    so (a) gives {F(x + t gamma), G(x + s gamma)}_T = 0.  The left side is
    a polynomial in (t, s) that vanishes off the diagonal, so it is 0, and
    its coefficients {d_gamma^k F, d_gamma^l G}_T / (k! l!) are 0.

    (c) A lift.  `lifted` extends D to the derivation of S(q), and
    exp(sD), the automorphism it integrates to, carries {,}_T to {,}_T_s
    for T_s = exp(s rho(D)).T, with rho(D).T = D T - T(D., .) - T(., D.)
    the `derived` of `classify_operator` (the same D, as the tests check on
    generators); so exp(sD)F is a Casimir of T_s.  If T' = 0
    (derivation) or T' = lambda T (scalar-type), T_s is a multiple of T,
    every D^k F is central and every pair commutes.  Otherwise (quasi,
    near) T'' = a T + b T' makes span{T, T'} rho(D)-stable, so T_s lies in
    it, with coordinates exp(sM)(1, 0) for M = [[0, a], [1, b]].  Their
    determinant at (s, s') is analytic and, near 0, is s' - s plus higher
    terms, so T_s and T_s' span the plane off a proper analytic set; there
    (a) gives {exp(sD)F, exp(s'D)G}_T = 0, so it is 0 everywhere, and its
    Taylor coefficients {D^k F, D^l G}_T / (k! l!) are 0.
    """
    struct = None
    if seeds is None:
        seeds = pois.centre_candidates(tensor, args.degree_bound)
        if not seeds:
            raise InputProblem("no seeds: empty centre up to degree %d" % args.degree_bound)
    else:
        struct = pois.from_tensor(tensor)
        pois.check_central(struct, seeds)
    family = pois.pc_generate(operator, seeds)
    if act is None or near_theorem(act):
        return family, pois.Certificate(True, None)
    return family, pois.pc_verify(family, struct or pois.from_tensor(tensor))


def cmd_pc_check(args):
    if args.gamma and args.operator:
        raise InputProblem("pc-check takes --gamma or --operator, not both")
    tensor, _ = iomod.load_algebra(args.algebra)
    if not is_lie(tensor):
        raise InputProblem("--algebra is not a Lie algebra; pc-check needs one")
    operator, op_desc, seeds, lift = _pc_inputs(args, tensor)
    act = None if lift is None else classify_operator(tensor, lift)
    seed_desc = args.seed_file or "centre candidates up to degree %d" % args.degree_bound
    doc = {"operator": op_desc, "seeds": seed_desc}
    try:
        family, cert = _pc_family(args, tensor, operator, seeds, act)
    except pois.SeedNotCentral as exc:
        doc.update(error=str(exc), seed_index=exc.seed_index, witness_generator=exc.var_index)
        return doc, EXIT_CHECK
    doc.update(family_size=len(family.generators), provenance=family.provenance,
               generators=[str(g) for g in family.generators], commutes=cert.ok,
               witness=list(cert.witness) if cert.witness else None)
    return doc, EXIT_OK if cert.ok else EXIT_CHECK


def _size(text):
    """The matrix size N of an example: an integer >= 0, read by `_integer`."""
    n = _integer(text)
    if n is None or n < 0:
        raise InputProblem("N must be an integer >= 0, got %r" % text)
    return n


def cmd_example(args):
    name = args.name
    params = list(args.params)
    written = []
    doc = {"written": written}

    def take_family_n():
        if len(params) < 2:
            raise InputProblem("expected FAMILY N")
        return params[0], _size(params[1])

    def out(suffix):
        """The path --out-dir/FAMILY N SUFFIX.json, added to the written list;
        --out-dir is made here, at the first write, so a refused example
        leaves no directory behind."""
        os.makedirs(args.out_dir, exist_ok=True)
        written.append(os.path.join(args.out_dir, "%s%d%s.json" % (family, n, suffix)))
        return written[-1]

    if name in ("gl", "sl", "so", "sp"):
        if len(params) != 1:
            raise InputProblem("expected: example %s N" % name)
        family, n = name, _size(params[0])
        tensor = cons.build_classical(family, n)
        iomod.save_algebra(tensor, out(""), metadata={"family": family})
    elif name in ("grading", "quasi-grading"):
        family, n = take_family_n()
        if not args.weights or args.modulus is None:
            raise InputProblem("%s needs --weights and --modulus" % name)
        weights = _parse_ints(args.weights, "--weights")
        tensor = cons.build_classical(family, n)
        if len(weights) != tensor.dim:
            raise InputProblem("--weights has %d entries, the algebra has dimension %d"
                               % (len(weights), tensor.dim))
        spec = cons.GradingSpec(weights=tuple(weights), kind="periodic", modulus=args.modulus)
        ok, witness = spec.validate(tensor)
        if not ok:
            raise InputProblem("--weights do not grade the algebra (witness %r)"
                               % (witness,))
        if name == "grading":
            meta = {"family": family, "modulus": str(args.modulus),
                    "weights": ",".join(str(w) for w in weights)}
            iomod.save_algebra(tensor, out(""), metadata=meta)
            iomod.save_operator(cons.grading_operator(spec), out("-grading-op"))
        else:
            ext, ext_spec, op = cons.quasi_grading_extension(tensor, spec)
            meta = {"family": family,
                    "weights": ",".join(str(w) for w in ext_spec.weights)}
            iomod.save_algebra(ext, out("-quasi-extension"), metadata=meta)
            iomod.save_operator(op, out("-quasi-weight-op"))
    elif name == "nilpotent-square":
        family, n = take_family_n()
        if not args.partition:
            raise InputProblem("nilpotent-square needs --partition")
        partition = tuple(_parse_ints(args.partition, "--partition"))
        triple = cons.sl2_complete(family, n, partition)
        op, report = cons.nilpotent_square(triple.tensor, triple.e)
        iomod.save_algebra(triple.tensor, out(""), metadata={"family": family})
        iomod.save_operator(op, out("-nilsquare-op"))
        iomod.save_algebra(report.derived, out("-nilsquare-derived"))
        doc["diagnostics"] = {
            "ad_e_cubed_zero": report.ad_e_cubed_zero,
            "d_squared_zero": report.d_squared_zero,
            "image_bracket_zero": report.image_bracket_zero,
            "image_in_kernel": report.image_in_kernel,
            "formula_check": report.formula_check,
        }
    elif name == "splitting":
        family, n = take_family_n()
        if not args.sub or not args.complement:
            raise InputProblem("splitting needs --sub and --complement index lists")
        part_a = _parse_ints(args.sub, "--sub")
        part_b = _parse_ints(args.complement, "--complement")
        tensor = cons.build_classical(family, n)
        d1, d2 = cons.splitting_operators(tensor, part_a, part_b)
        iomod.save_algebra(tensor, out(""), metadata={"family": family})
        iomod.save_operator(d1, out("-proj-sub"))
        iomod.save_operator(d2, out("-proj-complement"))
    else:
        raise InputProblem("unknown example %r" % name)
    return doc, EXIT_OK


def cmd_report(args):
    _at_least(args.max_exact_dim, 0, "--max-exact-dim")
    tensor, op = _load(args)
    family_check = args.pc or args.gamma or args.seed_file
    if family_check:
        # read before any check, so a bad --gamma or --seed-file is always named
        operator, op_desc, seeds, lift = _pc_inputs(args, tensor, op)
    checks = []
    diagnostics = {}

    def gate(name, ok, **detail):
        entry = {"name": name, "ok": ok}
        entry.update(detail)
        checks.append(entry)
        return ok

    jc, jcw = check_jacobi(tensor)
    gate("input-lie", jc, witness=None if jc else list(jcw))

    act, norm, class_doc = _classify_doc(tensor, op)
    gate("classification", act.tag != TAG_NOT_NEAR, tag=act.tag,
         a=class_doc["a"], b=class_doc["b"], mode=class_doc["mode"])

    if act.tag in (TAG_QUASI, TAG_NEAR):
        lie = pencil_lie(act, norm)
        witness = next(([alpha, beta] for alpha, beta in MEMBER_SAMPLES
                        if not lie(alpha, beta)), None)
        gate("pencil-members-lie", witness is None, witness=witness)
        if norm is not None:
            gate("degenerate-lines-lie", all(lie(*line) for line in norm.degenerate_lines),
                 count=len(norm.degenerate_lines))

    if jc:
        # the exact index, when it runs first, is a proven bound the samples stop at
        rep_e = None
        if tensor.dim <= args.max_exact_dim:
            rep_e = lie_index(tensor, mode="exact")
        rep_p = lie_index(tensor, mode="prob", seed=_env_seed(args),
                          least_index=rep_e.index if rep_e else 0)
        detail = {"dim": rep_p.dim, "index": rep_p.index, "method": rep_p.method}
        if rep_e:
            detail["index_exact"] = rep_e.index
            gate("index-modes-agree", rep_p.index == rep_e.index, **detail)
        else:
            gate("index-probabilistic", True, **detail)

    # rho(D)^2.T = 2 tau - rho(D^2).T holds for every bilinear T and every D
    # (proved at `nijenhuis.torsion_decomposition`), so the gate reads the proof
    gate("torsion-decomposition", True)

    flat, wit = nij.is_nijenhuis(tensor, op)
    diagnostics["nijenhuis"] = flat
    if not flat:
        diagnostics["nijenhuis_witness"] = list(wit)

    if act.tag in (TAG_QUASI, TAG_NEAR) and (near_theorem(act) or is_lie(act.derived)):
        series = lower_central_series(act.derived)
        diagnostics["derived_lower_central_series"] = series
        centre_dim = len(lie_centre(act.derived))
        diagnostics["derived_centre_dim"] = centre_dim
        if series[-1] == 0 and not act.derived.is_zero():
            di = lie_index(act.derived, mode="prob", seed=_env_seed(args),
                           least_index=centre_dim)
            diagnostics["derived_index"] = di.index
            diagnostics["derived_index_equals_centre"] = di.index == centre_dim

    if jc and family_check:
        try:
            family, cert = _pc_family(args, tensor, operator, seeds,
                                      None if lift is None else act)
        except pois.SeedNotCentral as exc:
            gate("pc-family-commutes", False, error=str(exc))
        else:
            gate("pc-family-commutes", cert.ok, operator=op_desc,
                 size=len(family.generators),
                 witness=list(cert.witness) if cert.witness else None)
            diagnostics["pc_generators"] = [str(g) for g in family.generators]

    all_ok = all(c["ok"] for c in checks)
    doc = {
        "algebra": args.algebra,
        "operator": args.operator,
        "ok": all_ok,
        "checks": checks,
        "diagnostics": diagnostics,
    }
    return doc, EXIT_OK if all_ok else EXIT_CHECK


@functools.cache
def build_parser():
    """The argument parser, built once per process; parse_args leaves it
    unchanged, so every `main` call reuses it.  Subcommand NAME runs the
    function cmd_NAME (dashes as underscores), looked up when it runs."""
    parser = argparse.ArgumentParser(
        prog="liepencil",
        description="Exact engine for derived brackets, pencils, and torsion "
                    "on finite-dimensional algebras.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, operator=True):
        p.add_argument("--algebra", required=True, help="algebra JSON file")
        if operator:
            p.add_argument("--operator", required=True, help="operator JSON file")
        p.add_argument("--json", action="store_true", help="JSON output")

    def family(p):
        """The options of the commutative-family check."""
        p.add_argument("--gamma", help="comma-separated covector for the directional orbit")
        p.add_argument("--seed-file", help="seed polynomials JSON")
        p.add_argument("--degree-bound", type=_int_option, default=2,
                       help="centre search degree when no seed file is given")

    p = sub.add_parser("classify", help="classify an operator against a bracket")
    common(p)

    p = sub.add_parser("derive", help="k-fold derived bracket")
    common(p)
    p.add_argument("--power", type=_int_option, default=1)
    p.add_argument("--out", help="write the result as an algebra file")

    p = sub.add_parser("pencil", help="normalize the pencil of a near-derivation")
    common(p)

    p = sub.add_parser("index", help="index of a Lie algebra")
    common(p, operator=False)
    p.add_argument("--mode", choices=("prob", "exact"), default="prob")
    p.add_argument("--samples", type=_int_option, default=5)
    p.add_argument("--seed", type=_int_option, default=None,
                   help="sampling seed (default: %s env var)" % SEED_ENV)
    p.add_argument("--max-exact-dim", type=_int_option, default=12)

    p = sub.add_parser("torsion", help="torsion tensor of an operator")
    common(p)
    p.add_argument("--out", help="write the torsion as an algebra file")

    p = sub.add_parser("nijenhuis-check", help="vanishing torsion and power properties")
    common(p)
    p.add_argument("--depth", type=_int_option, default=3)

    p = sub.add_parser("exp-check", help="exponential deformation identities")
    common(p)
    p.add_argument("--kind", choices=("nijenhuis", "near"), required=True)
    p.add_argument("--m", type=_int_option, default=None,
                   help="proportionality scalar for --kind near")
    p.add_argument("--points", help="comma-separated rational evaluation points")
    p.add_argument("--certified", action="store_true",
                   help="nijenhuis kind: check enough points to certify")

    p = sub.add_parser("pc-check", help="generate and verify a commutative family")
    common(p, operator=False)
    p.add_argument("--operator", help="operator file; its lift drives the orbit")
    family(p)

    p = sub.add_parser("example", help="write bundled example files")
    p.add_argument("name", help="gl|sl|so|sp|grading|nilpotent-square|splitting|quasi-grading")
    p.add_argument("params", nargs="*", help="family and size arguments")
    p.add_argument("--weights", help="comma-separated grading weights")
    p.add_argument("--modulus", type=_int_option)
    p.add_argument("--partition", help="comma-separated partition entries")
    p.add_argument("--sub", help="comma-separated basis indices of the subalgebra")
    p.add_argument("--complement", help="comma-separated indices of the complement")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("report", help="aggregate pipeline with one verdict per check")
    common(p)
    p.add_argument("--seed", type=_int_option, default=None)
    p.add_argument("--max-exact-dim", type=_int_option, default=12)
    p.add_argument("--pc", action="store_true",
                   help="include the commutative-family check with centre seeds")
    family(p)

    return parser


def _joined_lists(argv):
    """argv with each word that starts with "-" and a digit joined to a
    comma-list option right before it, as OPTION=WORD."""
    out = []
    for word in argv:
        if out and out[-1] in LIST_OPTIONS and re.match("-[0-9]", word):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_joined_lists(sys.argv[1:] if argv is None else argv))
    try:
        # an option given "" is refused by its name; positionals are left to their command
        blank = [dest for dest, value in vars(args).items() if value == "" and dest != "name"]
        if blank:
            raise InputProblem("--%s needs a value" % blank[0].replace("_", "-"))
        doc, code = globals()["cmd_" + args.command.replace("-", "_")](args)
        _emit(doc, args)
        return code
    except ArgumentError as exc:
        print("input error: %s: %s" % (ARGUMENTS[exc.argument], exc), file=sys.stderr)
        return EXIT_INPUT
    except (InputProblem, ValueError, OSError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, " ".join(str(exc).split())),
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
