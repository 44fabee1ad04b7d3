"""Every name CI's timing script imports still resolves, and every call it
makes into the engine still binds.

The step `TIMING_STEP` of `.github/workflows/tier1.yml` times the paper's
objects at the sizes that matter, on one leg only and printing only.  A
rename in the engine, or a parameter dropped from a signature, would fail
that step alone, long after the change.  Here the script is cut out of the
workflow by the step's name (no YAML library: the heredoc between
`<<'EOF'` and `EOF`), compiled, and each of its imports is checked:
`liepencil.*`, the standard library and the tests' `helpers` are imported,
and perfbench's `inputs` and `workloads` are only read, by their top-level
definitions.
Each call to a name imported from `liepencil.*`, or to an attribute of
one, is bound to the callee's signature (`inspect.Signature.bind`) with
its positional count and keyword names.
"""

import ast
import importlib
import inspect
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
TIMING_STEP = "Time of the paper-size cases, best of 3 calls each"
PERFBENCH = ("inputs", "workloads")


def step_script(name):
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    starts = [k for k, line in enumerate(lines) if line.strip() == "- name: " + name]
    assert len(starts) == 1, "%d steps named %r" % (len(starts), name)
    begin = next(k for k in range(starts[0], len(lines)) if lines[k].endswith("<<'EOF'"))
    end = next(k for k in range(begin + 1, len(lines)) if lines[k].strip() == "EOF")
    return textwrap.dedent("\n".join(lines[begin + 1:end])) + "\n"


def top_level_names(module):
    tree = ast.parse((ROOT / "perfbench" / (module + ".py")).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def resolves(module, name):
    if module in PERFBENCH:
        return name in top_level_names(module)
    found = importlib.import_module(module)
    if name is None or hasattr(found, name):
        return True
    try:                                  # `from package import submodule`
        importlib.import_module(module + "." + name)
    except ImportError:
        return False
    return True


def imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.module, alias.name) for alias in node.names)


def test_every_name_the_timing_script_imports_resolves():
    tree = ast.parse(step_script(TIMING_STEP))
    compile(tree, TIMING_STEP, "exec")
    names = list(imported(tree))
    engine = [(m, n) for m, n in names if m.split(".")[0] == "liepencil"]
    assert len(engine) >= 15 and {m for m, _ in names} >= set(PERFBENCH)
    assert [(m, n) for m, n in names if not resolves(m, n)] == []


def engine_objects(tree):
    """{name: object} of every name the script imports from `liepencil.*`."""
    out = {}
    for module, name in imported(tree):
        if module.split(".")[0] == "liepencil" and name is not None:
            found = importlib.import_module(module)
            out[name] = (getattr(found, name) if hasattr(found, name)
                         else importlib.import_module(module + "." + name))
    return out


def callee(func, objects):
    """The engine object a call's func expression names (a name imported
    from `liepencil.*`, or an attribute chain on one), or None."""
    if isinstance(func, ast.Name):
        return objects.get(func.id)
    if isinstance(func, ast.Attribute):
        owner = callee(func.value, objects)
        return None if owner is None else getattr(owner, func.attr)
    return None


def unbound_calls(tree):
    """(line, call) of every engine call whose positional count and keyword
    names the callee's signature does not take."""
    objects = engine_objects(tree)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = callee(node.func, objects)
        if target is None or inspect.ismodule(target):
            continue
        assert not any(isinstance(a, ast.Starred) for a in node.args), ast.unparse(node)
        assert all(k.arg is not None for k in node.keywords), ast.unparse(node)
        try:
            inspect.signature(target).bind(*node.args, **{k.arg: k for k in node.keywords})
        except TypeError:
            out.append((node.lineno, ast.unparse(node)))
    return out


def test_every_engine_call_in_the_timing_script_binds():
    tree = ast.parse(step_script(TIMING_STEP))
    assert unbound_calls(tree) == []
    # a dropped keyword, a missing argument and one too many are caught
    probe = ast.parse("""
from liepencil import cli
from liepencil.analysis import lie_index
from liepencil.exact import RatMatrix
lie_index(t, mode="exact", max_exact_dim=16)
cli.main(argv, out)
RatMatrix.diagonal(d, 2)
lie_index(t, "exact", 5, None, 0)
""")
    assert [line for line, _ in unbound_calls(probe)] == [5, 6, 7]
