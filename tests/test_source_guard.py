"""Source guard: no code changes a tensor's, a polynomial's or a matrix's
storage.

`StructureTensor`, `SparsePoly` and `RatMatrix` each store one integer
form, and a tensor caches its skew and Jacobi verdicts on the instance,
which is sound only while nothing writes to a form once the object exists.
`table` and `rows` are views rebuilt from the form on each read, so a
write into them would be lost; `terms` is guarded too, so that no
polynomial grows a second store beside its form.  This test scans the
package source with `ast`.  A write to or into a guarded attribute (an
assignment, an augmented assignment, a subscript store or a `del`) is
allowed only on `self` inside `__init__`/`__post_init__`, and anywhere
inside the trusted constructors `_of`.  No method fills a form later: a
tensor's form slot `._integer` is written by its constructors only.  A
tensor's skew verdict `._skew` is written only in `StructureTensor.__init__`,
in `StructureTensor._of`, which records a builder's verdict, and by the
`is_skew` cache; no builder marks a tensor after it is built.

No `assert` statement appears in the package: `python -O` strips them, and
a check that guards a returned result raises `IdentityFailed` instead.

No float enters the package: it holds no float or complex literal, calls
no `float`, and imports from `math` only the integer functions `gcd`,
`isqrt`, `lcm` and `prod` (`import math` itself is refused).

A second rule keeps a polynomial's storage inside `exact`: `poisson.py` and
`analysis.py` read a `SparsePoly`'s integer form (`den`, `ints`), and neither
imports the clearing rule `_cleared` nor reads `.terms`.  The packed
monomial layout stays there too: no other module names the field width
`_WIDTH` or mask `_FIELD`, and no module but `exact` and `tensors` (whose
contraction kernel packs its own fields) shifts an int, so every other
module takes monomials apart only through `_unpack`, `_pack` and
`_gradient`.

Every name an import binds in the package is read by its module: an
import left behind by a deletion is flagged, `from __future__` aside.

Two more rules keep the front end a single pass.  In `cli.py`, `print` and
`_emit` are called only from `main`, `_emit` and `_print_text`: a command
returns its document, and `main` prints it.  `io.py` names no `Fraction`,
and uses `StructureTensor`, `SparsePoly` and `RatMatrix` only to call their
`_of`: each file is parsed once, straight into its integer form.  The
engine owns each refusal of an argument: every `ArgumentError` it raises
names the parameter by a literal that `cli.ARGUMENTS` maps to an option of
the parser or to a positional label, so `main` prints the flag at fault.

The last rule keeps `src/` to what the CLI runs, down to class members:
every top-level function and class of the package is reached by name from
`cli.py`, or is named by the benchmark tracer (`perfbench/tracing.py`), and
every method, classmethod and property of a reached class is read as an
attribute by reached code or named by the tracer.  Code that only the tests
call lives in the tests.
"""

import argparse
import ast
import runpy
from pathlib import Path

import liepencil
from liepencil import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

GUARDED = {"table", "terms", "_integer", "den", "ints", "nrows", "ncols", "rows"}
CONSTRUCTORS = {"__init__", "__post_init__"}
TRUSTED = {"_of"}


def _leaves(target):
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _leaves(elt)
    elif isinstance(target, ast.Starred):
        yield from _leaves(target.value)
    else:
        yield target


def _guarded_attribute(target):
    """The guarded attribute a target writes to or into, or None."""
    while isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Attribute) and target.attr in GUARDED:
        return target
    return None


def _allowed(attr, func):
    if func in TRUSTED:
        return True
    on_self = isinstance(attr.value, ast.Name) and attr.value.id == "self"
    return on_self and func in CONSTRUCTORS


def _written(node):
    """The leaf targets a statement writes to: an assignment, an augmented
    or annotated assignment, or a `del`."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        targets = []
    return [leaf for target in targets for leaf in _leaves(target)]


def offences(source):
    """(line, target) of every write the rule forbids."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        for leaf in _written(node):
            attr = _guarded_attribute(leaf)
            if attr is not None and not _allowed(attr, func):
                out.append((node.lineno, ast.unparse(leaf)))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return out


def test_guard_catches_writes_after_construction():
    source = """
def scale(self, c):
    t = StructureTensor(self.dim)
    t.table = {}
    t.table[(0, 1)] = {}
    p.terms, q = {}, None
class Poly:
    def __init__(self, other):
        self.terms = {}
        other.terms = {}
    @classmethod
    def _of(cls, terms):
        p = object.__new__(cls)
        p.terms = terms
class Tensor:
    def __init__(self):
        self._integer = None
    @classmethod
    def _of(cls, integer):
        t = object.__new__(cls)
        t._integer = integer
    def integer_form(self, other):
        self._integer = 1, {}
        other._integer = 1, {}
        self._integer[1][(0, 1)] = {}
        return self._integer
    def scale(self, c):
        self._integer = None
        self.table = {}
def contract(t):
    t._integer = 1, {}
"""
    assert [line for line, _ in offences(source)] == [4, 5, 6, 10, 23, 24, 25, 28, 29, 31]


def test_guard_allows_form_writes_only_in_constructors():
    # `_integer` is written on self in `__init__`/`__post_init__` and on any
    # name in `_of`; no other method fills it, not even a form accessor
    source = """
class Tensor:
    def __init__(self, other):
        self._integer = 1, {}
        other._integer = 1, {}
    def __post_init__(self):
        self._integer = 1, {}
    @classmethod
    def _of(cls, integer):
        t = object.__new__(cls)
        t._integer = integer
    def integer_form(self):
        self._integer = 1, {}
        return self._integer
    def __getattr__(self, name):
        self.table = {}
        return self.table
    def scale(self, c):
        del self._integer
def integer_form(t):
    t._integer = 1, {}
"""
    assert [line for line, _ in offences(source)] == [5, 13, 16, 19, 21]


def test_no_table_or_terms_written_after_construction():
    package = Path(liepencil.__file__).parent
    found = {path.name: offences(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


# (class, function) of the writers of a tensor's skew verdict
SKEW_WRITERS = {("StructureTensor", "__init__"), ("StructureTensor", "_of"),
                ("StructureTensor", "is_skew")}


def skew_offences(source):
    """(line, target) of every write to or into a `._skew` attribute outside
    SKEW_WRITERS, (class, function) pairs (class None at top level)."""
    out = []

    def visit(node, cls, func):
        if isinstance(node, ast.ClassDef):
            cls, func = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        for leaf in _written(node):
            target = leaf
            while isinstance(target, ast.Subscript):
                target = target.value
            if (isinstance(target, ast.Attribute) and target.attr == "_skew"
                    and (cls, func) not in SKEW_WRITERS):
                out.append((node.lineno, ast.unparse(leaf)))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, func)

    visit(ast.parse(source), None, None)
    return out


def test_guard_catches_skew_marks_after_construction():
    # the constructor records a builder's verdict; a loader that marks the
    # tensor after building it is flagged
    source = """
class StructureTensor:
    def __init__(self):
        self._skew = None
    @classmethod
    def _of(cls, skew=None):
        t = object.__new__(cls)
        t._skew = skew or None
        return t
    def is_skew(self):
        if self._skew is None:
            self._skew = check_skew(self)[0]
        return self._skew
    def scale(self, c):
        self._skew = True
def algebra_from_dict(doc):
    tensor = StructureTensor._of(2)
    tensor._skew = True
    return tensor
class Other:
    def _of(cls, t):
        t._skew, t.dim = True, 2
"""
    assert skew_offences(source) == [(15, "self._skew"), (18, "tensor._skew"), (22, "t._skew")]
    package = Path(liepencil.__file__).parent
    found = {path.name: skew_offences(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def assert_offences(source):
    """Line of every `assert` statement."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def test_no_assert_statement_in_the_package():
    # a guard written as `assert` would vanish under `python -O`
    source = """
def check(x):
    assert x, "not x"
    if not x:
        raise IdentityFailed("not x")
    return x
assert check(1)
"""
    assert assert_offences(source) == [3, 7]
    package = Path(liepencil.__file__).parent
    found = {path.name: assert_offences(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


# the integer functions of `math`; every other one takes or returns floats
INTEGER_MATH = {"gcd", "isqrt", "lcm", "prod"}


def float_offences(source):
    """(line, what) of every float literal, call of `float` and import from
    `math` other than INTEGER_MATH."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append((node.lineno, repr(node.value)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            out.append((node.lineno, "float()"))
        elif isinstance(node, ast.Import):
            out += [(node.lineno, "import " + a.name) for a in node.names
                    if a.name.split(".")[0] == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            out += [(node.lineno, "math." + a.name) for a in node.names
                    if a.name not in INTEGER_MATH]
    return sorted(out)


def test_no_float_in_the_package():
    source = """
import math
from math import gcd, isqrt, lcm, prod
from math import sqrt, log2
def f(x):
    half = 0.5
    big = 1e6
    return float(x) * half + 2j, gcd(4, 6), "0.5", 5
"""
    assert float_offences(source) == [(2, "import math"), (4, "math.log2"), (4, "math.sqrt"),
                                      (6, "0.5"), (7, "1000000.0"), (8, "2j"), (8, "float()")]
    package = Path(liepencil.__file__).parent
    found = {path.name: float_offences(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def unused_imports(source):
    """(line, name) of every name an import binds that the module never
    reads; `from __future__` imports bind none."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out += [(node.lineno, name) for name in
                    ((a.asname or a.name).split(".")[0] for a in node.names)
                    if name not in read]
    return sorted(out)


def test_every_import_is_read():
    source = """
from __future__ import annotations
import os.path
import re as regex
from math import lcm, prod
from .exact import (SparsePoly,
                    _reduced)
def f(p: SparsePoly):
    return lcm(2, 3), os.sep
"""
    assert unused_imports(source) == [(4, "regex"), (5, "prod"), (6, "_reduced")]
    package = Path(liepencil.__file__).parent
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def form_offences(source):
    """(line, what) of every import or read of the clearing rule `_cleared`
    and every read of a `.terms` attribute."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            out += [(node.lineno, "import " + a.name) for a in node.names
                    if a.name == "_cleared"]
        elif isinstance(node, ast.Attribute) and node.attr in ("_cleared", "terms"):
            out.append((node.lineno, ast.unparse(node)))
    return sorted(out)


def test_poisson_and_analysis_read_polynomial_forms():
    # the Poisson kernels and the index read a polynomial's integer form
    # (den, ints); only `exact` clears `Fraction`s to such a form
    source = """
from .exact import SparsePoly, _cleared
from . import exact
def bracket(f, g):
    L, df = exact._cleared(f.partial(0).terms for _ in g.ints)
    return f.den * g.den, f.ints
"""
    assert form_offences(source) == [(2, "import _cleared"), (5, "exact._cleared"),
                                     (5, "f.partial(0).terms")]
    package = Path(liepencil.__file__).parent
    found = {name: form_offences((package / name).read_text(encoding="utf-8"))
             for name in ("poisson.py", "analysis.py")}
    assert found == {"poisson.py": [], "analysis.py": []}


# the one place that prints: commands return their documents to `main`
LAYOUT = {"_WIDTH", "_FIELD"}
# the modules that pack ints in fields of their own
OWN_FIELDS = {"exact.py", "tensors.py"}


def layout_offences(source, shifts=True):
    """(line, what) of every import or read of the monomial layout's width
    or mask, and, if shifts, of every << or >>."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            out += [(node.lineno, "import " + a.name) for a in node.names if a.name in LAYOUT]
        elif isinstance(node, ast.Name) and node.id in LAYOUT:
            out.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in LAYOUT:
            out.append((node.lineno, ast.unparse(node)))
        elif (shifts and isinstance(node, (ast.BinOp, ast.AugAssign))
              and isinstance(node.op, (ast.LShift, ast.RShift))):
            out.append((node.lineno, "shift"))
    return sorted(out)


def test_only_exact_reads_the_monomial_fields():
    source = """
from .exact import SparsePoly, _WIDTH, _unpack
from . import exact
def degree(p):
    return max(p.ints) >> exact._WIDTH * p.nvars
def exponents(p, m):
    m >>= 1
    return _unpack(m, p.nvars), 1 << 3
"""
    assert layout_offences(source) == [(2, "import _WIDTH"), (5, "exact._WIDTH"), (5, "shift"),
                                       (7, "shift"), (8, "shift")]
    assert layout_offences(source, shifts=False) == [(2, "import _WIDTH"), (5, "exact._WIDTH")]
    package = Path(liepencil.__file__).parent
    found = {path.name: layout_offences(path.read_text(encoding="utf-8"),
                                        path.name not in OWN_FIELDS)
             for path in sorted(package.glob("*.py")) if path.name != "exact.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


PRINTERS = {"main", "_emit", "_print_text"}


def print_offences(source):
    """(line, function) of every call of `print` or `_emit` outside PRINTERS."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("print", "_emit") and func not in PRINTERS):
            out.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return out


def test_cli_prints_only_from_main():
    source = """
def _emit(doc, args):
    print(doc)
def _print_text(doc):
    print(doc)
def main(argv):
    _emit(cmd(argv), argv)
def cmd_index(args):
    doc = {}
    _emit(doc, args)
    def inner():
        print("x")
    return doc
print("at import")
"""
    assert print_offences(source) == [(10, "cmd_index"), (12, "inner"), (14, None)]
    package = Path(liepencil.__file__).parent
    assert print_offences((package / "cli.py").read_text(encoding="utf-8")) == []


def refused_arguments(source):
    """The literal parameter names of every `ArgumentError(name, ...)` call."""
    return {node.args[0].value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and node.args
            and isinstance(node.args[0], ast.Constant)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ArgumentError"}


def test_every_refused_argument_names_a_flag():
    # the engine owns each refusal and names its parameter; `cli.ARGUMENTS`
    # maps that name to the flag or positional `main` prints, so each name
    # must be a key and each value a real option of the parser
    source = """
raise ArgumentError("op", "must be nilpotent")
raise tensors.ArgumentError("k", "negative")
raise ArgumentError(name, "not a subalgebra")
raise ValueError("x", "y")
"""
    assert refused_arguments(source) == {"op", "k"}
    package = Path(liepencil.__file__).parent
    names = set().union(*(refused_arguments(path.read_text(encoding="utf-8"))
                          for path in package.glob("*.py")))
    assert {"op", "m", "points", "k", "modulus", "tensor"} <= names <= set(cli.ARGUMENTS)
    commands = next(action.choices for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    options = {flag for parser in commands.values() for flag in parser._option_string_actions}
    for label in cli.ARGUMENTS.values():
        assert set(label.split("/")) <= options | {"FAMILY", "N"}, label


# the integer forms io builds go straight to the engine's trusted constructors
FORM_CLASSES = {"StructureTensor", "SparsePoly", "RatMatrix"}


def io_offences(source):
    """(line, what) of every `Fraction` named, imported or read as an
    attribute, and of every use of a form class other than a call of its
    `_of`."""
    tree = ast.parse(source)
    through_of = {id(node.func.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "_of"}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            out += [(node.lineno, "import Fraction") for a in node.names
                    if a.name == "Fraction"]
        elif isinstance(node, ast.Attribute) and node.attr == "Fraction":
            out.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Name) and (node.id == "Fraction" or (
                node.id in FORM_CLASSES and id(node) not in through_of)):
            out.append((node.lineno, node.id))
    return sorted(out)


def test_io_builds_forms_without_fraction():
    source = """
from fractions import Fraction
import fractions
from .exact import SparsePoly, RatMatrix
from .tensors import StructureTensor
def parse(doc):
    c = fractions.Fraction(1, 2)
    a = StructureTensor._of(2, None, ("a", "b"), (1, {}))
    b = StructureTensor(2, {}, ("a", "b"))
    p = SparsePoly.const(3, 1)
    m = RatMatrix._of(1, [[c]]) or RatMatrix
    return Fraction(1)
"""
    assert io_offences(source) == [(2, "import Fraction"), (7, "fractions.Fraction"),
                                   (9, "StructureTensor"), (10, "SparsePoly"),
                                   (11, "RatMatrix"), (12, "Fraction")]
    package = Path(liepencil.__file__).parent
    assert io_offences((package / "io.py").read_text(encoding="utf-8")) == []


def _reads(node):
    """(name, is an attribute) of every name and attribute name read inside
    a node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id, False
        elif isinstance(sub, ast.Attribute):
            yield sub.attr, True


def _member(node):
    """Whether a class-body statement is a non-dunder function: a method,
    classmethod, staticmethod or property."""
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__")))


def unreached(sources, roots):
    """(module, name) of every top-level function and class of sources
    ({module: source}) that no chain of names reaches from the roots, and
    (module, "Class.member") of every non-dunder function in the body of a
    reached class that is not reached.

    The roots are the given names, every definition of `cli` (`main`
    finds its commands by name), and every name read by a top-level
    statement other than an import, which runs when the module is loaded.
    A reached definition reaches every name read in its body, wherever
    that name is defined.  A reached class reaches its bases, decorators,
    dunders and the rest of its body except its other functions; such a
    member is reached when reached code reads an attribute of its name, or
    when a root names it (the tracer names `SparsePoly.exact_div`), and
    then reaches what its own body reads.  Matching by name
    over-approximates: an attribute `x.f` reaches every top-level `f` and
    every member `f`.
    """
    defs = {}
    pending = [(name, True) for name in roots]
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((module, node))
                if module == "cli":
                    pending.append((node.name, False))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                pending.extend(_reads(node))
    reached, attrs = set(), set()
    members = {}    # name -> [(module, class, node)] of the members of reached classes
    while pending:
        name, attr = pending.pop()
        if attr and name not in attrs:
            attrs.add(name)
            for _, _, node in members.get(name, ()):
                pending.extend(_reads(node))
        if name in reached:
            continue
        reached.add(name)
        for module, node in defs.get(name, ()):
            if not isinstance(node, ast.ClassDef):
                pending.extend(_reads(node))
                continue
            for part in node.bases + node.keywords + node.decorator_list:
                pending.extend(_reads(part))
            for stmt in node.body:
                if _member(stmt):
                    members.setdefault(stmt.name, []).append((module, node.name, stmt))
                    if stmt.name in attrs:
                        pending.extend(_reads(stmt))
                else:
                    pending.extend(_reads(stmt))
    return sorted([(module, name) for name, found in defs.items() if name not in reached
                   for module, _ in found]
                  + [(module, "%s.%s" % (cls, name)) for name, found in members.items()
                     if name not in attrs for module, cls, _ in found])


def test_reachability_guard_flags_library_only_code():
    sources = {
        "cli": """
def main(argv):
    return cmd_run(argv)
def cmd_run(args):
    return eng.solve(args)
""",
        "eng": """
from .util import orphan
LIMIT = bound()
def bound():
    return 3
def solve(x):
    return helper(x)
def helper(x):
    return x
def traced(x):
    return traced_helper(x)
def traced_helper(x):
    return x
def orphan(x):
    return Report(x)
class Report:
    def run(self):
        return solve(self)
class Checker:
    pass
""",
    }
    assert unreached(sources, ["traced"]) == [("eng", "Checker"), ("eng", "Report"),
                                              ("eng", "orphan")]
    assert unreached(sources, []) == [("eng", "Checker"), ("eng", "Report"), ("eng", "orphan"),
                                      ("eng", "traced"), ("eng", "traced_helper")]


def test_reachability_guard_flags_unread_methods():
    sources = {
        "cli": """
def main(argv):
    return cmd_run(argv)
def cmd_run(args):
    solver = eng.Solver()
    return solver.solve(args)
""",
        "eng": """
def orphan(x):
    return Solver().hidden(x)
class Solver:
    __slots__ = ("limit",)
    def __init__(self):
        self.limit = self._bound()
    def __eq__(self, other):
        return self.limit == other.limit
    def _bound(self):
        return 3
    def solve(self, x):
        return x
    def traced(self, x):
        return self.traced_helper(x)
    def traced_helper(self, x):
        return x
    def hidden(self, x):
        return x
    @property
    def size(self):
        return 0
""",
    }
    # `hidden` is read only from `orphan`, and nothing reads `size`; `solve`
    # is read by a command, `_bound` from a dunder, `traced` by the tracer
    assert unreached(sources, ["traced"]) == [("eng", "Solver.hidden"), ("eng", "Solver.size"),
                                              ("eng", "orphan")]
    assert unreached(sources, []) == [("eng", "Solver.hidden"), ("eng", "Solver.size"),
                                      ("eng", "Solver.traced"), ("eng", "Solver.traced_helper"),
                                      ("eng", "orphan")]


def test_every_definition_runs_in_a_command_or_the_tracer():
    package = Path(liepencil.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py")) if path.stem != "__init__"}
    tracing = runpy.run_path(str(TRACING))
    roots = [part for _, attr in list(tracing["SPANS"]) + list(tracing["COUNTS"])
             for part in attr.split(".")]
    assert unreached(sources, roots) == []
