"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces each listed liepencil function by a wrapper at
every place the function is bound: its defining module and every module
that imported it by name (`derived` is bound in tensors, cli, nijenhuis,
analysis and constructions).  Spans (name, start, end, parent) are kept in
flat arrays in memory and written out once, when the run ends.
"""

from __future__ import annotations

import array
import json
import sys
from time import perf_counter

# (layer, attribute path in the layer's module); a layer is a module name
SPANS = [
    ("cli", "main"),
    ("io", "load_algebra"), ("io", "load_operator"),
    ("io", "save_algebra"), ("io", "save_operator"),
    ("constructions", "build_classical"), ("constructions", "nilpotent_square"),
    ("constructions", "sl2_complete"),
    ("tensors", "derived"), ("tensors", "check_jacobi"), ("tensors", "check_skew"),
    ("tensors", "classify_operator"), ("tensors", "normalize_pencil"),
    ("nijenhuis", "torsion"), ("nijenhuis", "is_nijenhuis"),
    ("nijenhuis", "torsion_decomposition"),
    ("analysis", "lie_index"), ("analysis", "lie_centre"),
    ("analysis", "lower_central_series"),
    ("poisson", "from_tensor"), ("poisson", "centre_candidates"),
    ("poisson", "pc_generate"), ("poisson", "pc_verify"),
    ("exact", "rref"), ("exact", "kernel_basis"), ("exact", "solve_columns"),
    ("exact", "rank_exact"), ("exact", "generic_rank"),
    ("exact", "SparsePoly.__mul__"), ("exact", "SparsePoly.exact_div"),
    ("exact", "RatMatrix.__mul__"),
]
# counted, not spanned: thousands of calls per command
COUNTS = [("poisson", "poisson_bracket")]
# elimination entry points also record their input size in cells
CELLS = {"exact.rref", "exact.kernel_basis", "exact.solve_columns",
         "exact.rank_exact", "exact.generic_rank"}
# functions that only run while fixtures are written; reported per setup pass
SETUP_ONLY = {"io.save_algebra", "io.save_operator", "constructions.build_classical",
              "constructions.nilpotent_square", "constructions.sl2_complete"}


def _cells(name, args):
    """rows x cols of an elimination entry point's input."""
    if name == "exact.solve_columns":
        cols, target = args[0], args[1]
        return len(target) * (len(cols) + 1)
    rows = getattr(args[0], "rows", args[0])
    return len(rows) * (len(rows[0]) if rows else 0)


def _tensor_key(tensor):
    return tuple(sorted((ij, tuple(sorted(vec.items()))) for ij, vec in tensor.table.items()))


class Tracer:
    def __init__(self):
        self.names = []                 # span names, lie_index split by mode
        for layer, attr in SPANS:
            name = "%s.%s" % (layer, attr)
            self.names += ([name + ".prob", name + ".exact"]
                           if name == "analysis.lie_index" else [name])
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.outer = array.array("b")   # 1 unless a span of the same name is open
        self.factor = array.array("d")  # speed factor of the call the span is in
        self._open = [0] * len(self.names)
        self._stack = []
        self._jacobi_seen = set()
        self._patches = []
        self.reset_counters()

    def reset_counters(self):
        """Zero the call counts, cell counts and check_jacobi repeat counts."""
        self.counts = {"%s.%s" % c: 0 for c in COUNTS}
        self.cells = {n: 0 for n in sorted(CELLS)}
        self.jacobi_calls = 0
        self.jacobi_distinct = 0

    # -- recording ---------------------------------------------------------

    def _enter(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outer.append(0 if self._open[nid] else 1)
        self._open[nid] += 1
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _exit(self, idx, nid):
        self.end[idx] = perf_counter()
        self._stack.pop()
        self._open[nid] -= 1

    def _hook(self, name):
        """Bookkeeping to run before a call of `name`, or None."""
        if name == "cli.main":          # distinct tensors are counted per command
            return lambda args: self._jacobi_seen.clear()
        if name == "tensors.check_jacobi":
            def hook(args):
                self.jacobi_calls += 1
                key = _tensor_key(args[0])
                if key not in self._jacobi_seen:
                    self._jacobi_seen.add(key)
                    self.jacobi_distinct += 1
            return hook
        if name in CELLS:
            def hook(args):
                self.cells[name] += _cells(name, args)
            return hook
        return None

    def _span_wrapper(self, name, fn):
        enter, exit_, hook = self._enter, self._exit, self._hook(name)
        if name == "analysis.lie_index":
            prob, exact = self._ids[name + ".prob"], self._ids[name + ".exact"]

            def pick(args, kwargs):
                mode = kwargs.get("mode", args[1] if len(args) > 1 else "prob")
                return exact if mode == "exact" else prob
        else:
            nid = self._ids[name]

            def pick(args, kwargs):
                return nid

        def wrapper(*args, **kwargs):
            if hook:
                hook(args)
            nid = pick(args, kwargs)
            idx = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(idx, nid)
        return wrapper

    def _count_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every listed function wherever liepencil binds it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "liepencil" or k.startswith("liepencil."))]
        for targets, make in ((SPANS, self._span_wrapper), (COUNTS, self._count_wrapper)):
            for layer, attr in targets:
                name = "%s.%s" % (layer, attr)
                home = sys.modules["liepencil." + layer]
                if "." in attr:                      # a method: patch the class
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, make(name, original))
                    continue
                original = getattr(home, attr)
                wrapper = make(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches = []

    def mark(self):
        """Index of the next span, to split the record into phases."""
        return len(self.start)

    def scale(self, first, factor):
        """Give spans from index `first` on the speed factor of their call."""
        self.factor.extend([1.0] * (first - len(self.factor)))
        self.factor.extend([factor] * (len(self.start) - first))

    # -- aggregation -------------------------------------------------------

    def aggregate(self, lo, hi):
        """{name: [calls, self_s, total_s]} over spans with index in [lo, hi).

        Durations are scaled by their call's speed factor.  Self time is a
        span's duration minus the durations of its direct child spans; total
        time counts only spans with no open ancestor of the same name.
        """
        self.scale(len(self.start), 1.0)
        n = hi - lo
        dur = [(self.end[lo + k] - self.start[lo + k]) * self.factor[lo + k]
               for k in range(n)]
        child = [0.0] * n
        for k in range(n):
            p = self.parent[lo + k]
            if p >= lo:
                child[p - lo] += dur[k]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for k in range(n):
            row = out[self.names[self.name_id[lo + k]]]
            row[0] += 1
            row[1] += dur[k] - child[k]
            if self.outer[lo + k]:
                row[2] += dur[k]
        return out

    def write(self, stem, meta):
        """Write spans to <stem>.spans (raw arrays) and <stem>.json (header)."""
        with open(stem + ".spans", "wb") as fp:
            self.scale(len(self.start), 1.0)
            for arr in (self.name_id, self.parent, self.start, self.end, self.factor):
                arr.tofile(fp)
        header = dict(meta)
        header.update({
            "names": self.names,
            "count": len(self.start),
            "layout": "five consecutive native arrays of `count` items: "
                      "name_id int32, parent int32 (-1 for none), start float64, "
                      "end float64 (perf_counter seconds), factor float64 (speed "
                      "factor of the enclosing call)",
        })
        with open(stem + ".json", "w", encoding="utf-8") as fp:
            json.dump(header, fp, indent=1)

