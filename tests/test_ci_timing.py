"""Every name CI's timing script imports still resolves.

The step `TIMING_STEP` of `.github/workflows/tier1.yml` times the paper's
objects at the sizes that matter, on one leg only and printing only.  A
rename in the engine would fail that step alone, long after the rename.
Here the script is cut out of the workflow by the step's name (no YAML
library: the heredoc between `<<'EOF'` and `EOF`), compiled, and each of
its imports is checked: `liepencil.*` and the standard library are
imported, and perfbench's `inputs` and `workloads` are only read, by
their top-level definitions.
"""

import ast
import importlib
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
