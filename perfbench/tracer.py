"""Outside-in tracing of the program's layers.

`Tracer.install()` wraps every public function of each layer module, and the
constructor, product and public methods of each public class, then binds
each wrapper into every flagforge module that holds the name: modules import
with `from .x import y`, so patching only the defining module would miss
most calls.  Each wrapped call records one span (name, start, end, parent
span, operation id) in flat arrays kept in memory and written out once, at
the end of the run.  Self time is the span's duration minus the time of the
wrapped calls it made, computed from a call stack as the calls return.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

LAYERS = (
    "exactnum",
    "epcore",
    "pairedspace",
    "genflag",
    "finitary",
    "coherence",
    "sampling",
    "finoracle",
    "serial",
    "cli",
)

# Leaf helpers called once per matrix entry or per index probe.  Spanning
# them would multiply the tracing overhead without telling anything about a
# layer: their time stays in the self time of the wrapped caller.
SKIPPED = {
    "exactnum.rat",
    "exactnum.format_rational",
    "epcore.EpSet.member",
    "epcore.EpSeq.value",
    "pairedspace.Vector.is_zero",
    "pairedspace.Vector.support_bound",
    "pairedspace.Vector.to_sparse",
    "pairedspace.PairedSpaceModel.augs",
    "pairedspace.PairedSpaceModel.cross_value",
}

# Dunder methods that stand for layer work: object construction and the
# matrix product.
DUNDERS = ("__init__", "__mul__")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.calls: list[int] = []
        self.self_time: list[float] = []
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op_id = -1
        self._stack: list = []  # [span index, start, child time]

    # -- installation -------------------------------------------------------

    def install(self):
        modules = {name: importlib.import_module(f"flagforge.{name}") for name in LAYERS}
        replaced = {}
        for layer_idx, (layer, mod) in enumerate(modules.items()):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self._wrap(obj, f"{layer}.{name}", layer_idx)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, f"{layer}.{name}", layer_idx)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "flagforge" or mod_name.startswith("flagforge."):
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in replaced:
                        setattr(mod, name, replaced[obj])

    def _wrap_class(self, cls, qual, layer_idx):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in DUNDERS:
                continue
            label = f"{qual}.{name}"
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(attr.__func__, label, layer_idx)))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self._wrap(attr.__func__, label, layer_idx)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(attr, label, layer_idx))

    def _wrap(self, fn, label, layer_idx):
        if label in SKIPPED:
            return fn
        nid = len(self.names)
        self.names.append(label)
        self.layer_of.append(layer_idx)
        self.calls.append(0)
        self.self_time.append(0.0)
        stack = self._stack
        calls, self_time = self.calls, self.self_time
        names, ops, parents = self.span_name, self.span_op, self.span_parent
        starts, ends = self.span_start, self.span_end
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            ops.append(tracer.op_id)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[1]
                starts[idx] = frame[1]
                ends[idx] = end
                calls[nid] += 1
                self_time[nid] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur

        return wrapper

    # -- results ------------------------------------------------------------

    def count(self, *labels) -> int:
        return sum(self.calls[i] for i, name in enumerate(self.names) if name in labels)

    def layer_totals(self):
        calls = {layer: 0 for layer in LAYERS}
        self_s = {layer: 0.0 for layer in LAYERS}
        for nid, layer_idx in enumerate(self.layer_of):
            layer = LAYERS[layer_idx]
            calls[layer] += self.calls[nid]
            self_s[layer] += self.self_time[nid]
        return calls, self_s

    def write(self, path):
        """Header line (JSON) then the five span columns as raw arrays:
        int32 name id, int32 operation id, int32 parent span (-1 at the
        top), float64 start and float64 end (perf_counter seconds)."""
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "columns": ["name:i4", "op:i4", "parent:i4", "start:f8", "end:f8"],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for col in (self.span_name, self.span_op, self.span_parent,
                        self.span_start, self.span_end):
                col.tofile(fh)
