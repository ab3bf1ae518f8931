"""Span recording around pairbath's public functions, from outside the package.

`Tracer.install` replaces every module-level binding of the traced functions
in every pairbath module (for example `rhs_components` is bound in
`generator`, `steady_state` and `selfcheck`, and `convert` in five modules)
with a wrapper that records one span per call: name, start, end, parent span
and operation id.  Spans are recorded only while `active` is set, which the
benchmark does around each call of `cli.main`, so its own checks leave none.
Spans stay in memory in flat arrays and are written out
once, at the end of the run.  Self time is a span's duration minus the
durations of its direct children.
"""

import gzip
import importlib
import pkgutil
from array import array
from collections import defaultdict
from functools import wraps
from time import perf_counter

import pairbath

# layer (module) -> public functions whose calls are spans
TRACED = {
    "config": ("load_config",),
    "bath": ("make_bath", "principal_frame"),
    "generator": ("evolve", "rhs_components"),
    "pauli_algebra": ("convert", "tau_of"),
    "entanglement": ("concurrence", "partial_transpose", "concurrence_closed"),
    "steady_state": ("liouvillian_null_space", "stationary_family",
                     "equilibrium_components"),
    "cli": ("main",),
}


def _modules():
    yield pairbath
    for info in pkgutil.iter_modules(pairbath.__path__):
        yield importlib.import_module(f"pairbath.{info.name}")


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._saved = []
        self.op = -1
        self.active = False

    def _wrap(self, nid, fn):
        name_id, parent, op_id = self.name_id, self.parent, self.op_id
        start, end, stack = self.start, self.end, self._stack

        @wraps(fn)
        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_id.append(self.op)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
        return span

    def install(self):
        """Wrap every binding of a traced function in every pairbath module."""
        originals = {}
        for layer, fns in TRACED.items():
            mod = importlib.import_module(f"pairbath.{layer}")
            for fn in fns:
                originals[id(getattr(mod, fn))] = self.names.index(f"{layer}.{fn}")
        wrappers = {}
        for mod in _modules():
            for attr, value in list(vars(mod).items()):
                nid = originals.get(id(value))
                if nid is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(nid, value)
                self._saved.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)])

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def per_op(self, n_ops):
        """Per-operation totals: calls and self time (ms) of every traced
        function, and the convert calls made directly by the null-space
        line search."""
        n = len(self.start)
        dur = [self.end[k] - self.start[k] for k in range(n)]
        child = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += dur[k]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        null_space = self.names.index("steady_state.liouvillian_null_space")
        convert = self.names.index("pauli_algebra.convert")
        min_eig_evals = 0
        for k in range(n):
            nid = self.name_id[k]
            calls[nid] += 1
            self_s[nid] += dur[k] - child[k]
            p = self.parent[k]
            if nid == convert and p >= 0 and self.name_id[p] == null_space:
                min_eig_evals += 1
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid] / n_ops
            out[f"{name}.self_ms"] = 1e3 * self_s[nid] / n_ops
        out["steady_state.min_eig_evals"] = min_eig_evals / n_ops
        return out

    def write(self, path):
        """Spans as gzipped CSV: name, start_s, end_s, parent index, operation id."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for k in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[k]]},{self.start[k]!r},"
                         f"{self.end[k]!r},{self.parent[k]},{self.op_id[k]}\n")
