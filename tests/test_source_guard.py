"""Source guard: no code changes a tensor's table, a polynomial's terms or
a matrix's storage.

`StructureTensor` caches its integer form and its skew and Jacobi verdicts
on the instance, which is sound only while nothing writes to a `table` once
the tensor exists; the same rule holds for `SparsePoly.terms` and for the
integer form of a `RatMatrix` (`den`, `ints` and its shape), whose `rows`
are rebuilt on each read, so a write into them would be lost.  This test
scans the package source with `ast`.  A write to or into a guarded
attribute (an assignment, an augmented assignment, a subscript store or a
`del`) is allowed only on `self` inside `__init__`/`__post_init__`, and
anywhere inside the trusted constructors `_of`.  The integer-form slot
`._integer` follows the same rule, and may also be written on `self` by
its single cache fill, `integer_form`; likewise `.table` by its fill on
first read, `__getattr__`, for a tensor built from its integer form alone.

A second rule keeps a polynomial's storage inside `exact`: `poisson.py` and
`analysis.py` read a `SparsePoly`'s integer form (`den`, `ints`), and neither
imports the clearing rule `_cleared` nor reads `.terms`.

Two more rules keep the front end a single pass.  In `cli.py`, `print` and
`_emit` are called only from `main`, `_emit` and `_print_text`: a command
returns its document, and `main` prints it.  `io.py` names no `Fraction`,
and uses `StructureTensor`, `SparsePoly` and `RatMatrix` only to call their
`_of`: each file is parsed once, straight into its integer form.
"""

import ast
from pathlib import Path

import liepencil

GUARDED = {"table", "terms", "_integer", "den", "ints", "nrows", "ncols", "rows"}
CONSTRUCTORS = {"__init__", "__post_init__"}
TRUSTED = {"_of"}
# slot -> the one method that fills it on self as a cache
CACHE_FILLS = {"_integer": "integer_form", "table": "__getattr__"}


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
    return on_self and (func in CONSTRUCTORS or func == CACHE_FILLS.get(attr.attr))


def offences(source):
    """(line, target) of every write the rule forbids."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            targets = []
        for target in targets:
            for leaf in _leaves(target):
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
    assert [line for line, _ in offences(source)] == [4, 5, 6, 10, 24, 28, 29, 31]


def test_guard_allows_only_the_table_fill():
    source = """
class Tensor:
    def __getattr__(self, name):
        self.table = {}
        return self.table
    def __getattr__(self, other):
        other.table = {}
        self.terms = {}
        self._integer = 1, {}
        self.table[(0, 1)] = {}
    def integer_form(self):
        self.table = {}
    def scale(self, c):
        self.table = {}
        del self.table
def __getattr__(t):
    t.table = {}
"""
    assert [line for line, _ in offences(source)] == [7, 8, 9, 12, 14, 15, 17]


def test_no_table_or_terms_written_after_construction():
    package = Path(liepencil.__file__).parent
    found = {path.name: offences(path.read_text(encoding="utf-8"))
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
