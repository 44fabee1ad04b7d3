"""Every function the benchmark tracer wraps still exists.

`perfbench/tracing.py` rebinds each `(layer, attr)` of its SPANS and COUNTS
lists by name.  A rename in the engine would make a traced run fail, or
lose a layer's metrics, long after the rename.  The tracer is loaded here
by path and only read: attr must name a callable of the module, or, as
`Class.method`, a function in the class's own `__dict__` (where the tracer
patches it).
"""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def resolves(layer, attr):
    module = importlib.import_module("liepencil." + layer)
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(module, cls_name, None)
        return isinstance(cls, type) and callable(vars(cls).get(method))
    return callable(getattr(module, attr, None))


def test_every_traced_target_resolves():
    tracing = runpy.run_path(str(TRACING))
    targets = list(tracing["SPANS"]) + list(tracing["COUNTS"])
    assert len(targets) == len(set(targets)) >= 32
    assert [t for t in targets if not resolves(*t)] == []
