"""Outside-in tracing of the rrdps layers, installed from the benchmark.

``Tracer.install`` wraps every public function of the layer modules and
rebinds the wrapper in every module namespace that bound the function by
name.  Patching only the defining module would miss calls such as
``cli -> optimize_mu`` or ``sources -> key_rate``, which go through names
imported with ``from .x import y``.

Each call becomes one span (name, start, end, parent), kept in flat arrays
in memory and written to an ``.npz`` file by ``dump``.  ``summarize``
reads that file back and derives per-name calls, inclusive time and self
time (span minus the spans it directly caused).  Two counters ride along:
the distinct ``phase_error_upper`` arguments and the summed length of the
dense joint states the oracle builds.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("cli", "sources", "security", "simulate", "oracle")

# Spans whose arguments are recorded, to count distinct calls.
_ARGS_RECORDED = "security.phase_error_upper"
# Spans whose returned dense state length is summed.
_DENSE = ("oracle.conditioned_state", "oracle.reference_state", "oracle.decompose_side_channel")


class Tracer:
    """Span recorder for one process; ``install`` once, ``dump`` at exit."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.distinct_args: set = set()
        self.dense_amplitudes = 0

    def install(self) -> None:
        modules = [importlib.import_module(f"rrdps.{layer}") for layer in LAYERS]
        namespaces = modules + [sys.modules["rrdps"]]
        for layer, module in zip(LAYERS, modules):
            for attr, fn in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapper)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        record_args = name == _ARGS_RECORDED
        count_dense = name in _DENSE
        stack = self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            if record_args:
                self.distinct_args.add(args + tuple(sorted(kwargs.items())))
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count_dense:
                state = getattr(result, "phi_ref", result)
                self.dense_amplitudes += len(state.amplitudes)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            distinct_args=np.int64(len(self.distinct_args)),
            dense_amplitudes=np.int64(self.dense_amplitudes),
        )


def summarize(path: str) -> dict:
    """Per-span-name ``calls``, ``total_s`` and ``self_s`` plus the counters."""
    import numpy as np

    with np.load(path) as z:
        names = [str(n) for n in z["names"]]
        name_id, parent = z["name_id"], z["parent"]
        dur = z["end"] - z["start"]
        caused = parent >= 0
        child_s = np.bincount(parent[caused], weights=dur[caused], minlength=len(dur))
        k = len(names)
        calls = np.bincount(name_id, minlength=k)
        total_s = np.bincount(name_id, weights=dur, minlength=k)
        self_s = np.bincount(name_id, weights=dur - child_s, minlength=k)
        spans = {
            names[i]: {
                "calls": int(calls[i]),
                "total_s": float(total_s[i]),
                "self_s": float(self_s[i]),
            }
            for i in range(k)
            if calls[i]
        }
        return {
            "spans": spans,
            "distinct_args": int(z["distinct_args"]),
            "dense_amplitudes": int(z["dense_amplitudes"]),
        }
