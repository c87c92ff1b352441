"""Per-layer tracing of the pachner package, installed from outside it.

``Tracer.install`` wraps the public functions and methods of each layer
module and rebinds every module-level name that pointed at an original
(``statesum`` holds its own ``contract``, ``find_move_sites`` and so on).
Each wrapped call pushes a frame; on return its duration is charged to
the caller's frame, so a layer's self time is its calls' durations minus
the time covered by wrapped calls beneath them.

Calls in the leaf layers ``scalars`` and ``groups``, and a few accessors
called once per tensor entry or facet, are folded into counters plus
accumulated time.  Every other call becomes a span (name, parent span,
op id, start, end) kept in memory until ``write_spans``.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import json
import sys
import time
import types

LAYERS = ("scalars", "groups", "tensors", "simplicial", "solutions", "verify", "statesum")
FOLDED_LAYERS = {"scalars", "groups"}
FOLDED_CALLS = {
    "tensors.GroupTensor.entry",
    "simplicial.Triangulation.facet",
    "simplicial.boundary_face",
}
# Operators are the public API of Scalar and LinMap; constructors count
# tensor and complex builds.  Other dunders (hash, eq, bool) stay unwrapped.
DUNDERS = {"__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__", "__matmul__"}
JOINS = ("tensors.contract", "tensors.self_contract", "tensors.GroupTensor.outer", "tensors.LinMap.compose")


class Tracer:
    def __init__(self):
        self.calls = collections.Counter()
        self.self_s = collections.defaultdict(float)
        self.total_s = collections.defaultdict(float)
        self.stack = [[0.0, -1]]  # [child time, span id]; the base frame has no span
        self.spans = []
        self.names = []
        self.name_ids = {}
        self.op = -1
        self.nnz_out = 0
        self.peak_nnz = 0
        self.peak_arity = 0
        self.sites_found = 0
        self.entries_compared = 0
        self._restore = []

    # -- installation -----------------------------------------------------

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"pachner.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, enum.Enum):
                        self._wrap_class(layer, obj)
                elif callable(obj):
                    wrappers[id(obj)] = (obj, self._wrapper(obj, f"{layer}.{name}", layer))
        importers = [m for n, m in list(sys.modules.items()) if n == "pachner" or n.startswith("pachner.")]
        for mod in importers:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def uninstall(self):
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _wrap_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            public = not name.startswith("_") or name in DUNDERS
            if name == "__init__":
                public = layer not in FOLDED_LAYERS and not dataclasses.is_dataclass(cls)
            if not public:
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, (staticmethod, classmethod)):
                wrapped = type(attr)(self._wrapper(attr.__func__, qual, layer))
            elif isinstance(attr, types.FunctionType):
                wrapped = self._wrapper(attr, qual, layer)
            else:
                continue
            self._restore.append((cls, name, attr))
            setattr(cls, name, wrapped)

    # -- the wrapper ------------------------------------------------------

    def _wrapper(self, fn, qual, layer):
        stack, spans, calls = self.stack, self.spans, self.calls
        self_s, total_s = self.self_s, self.total_s
        post = self._post_hook(qual)
        perf = time.perf_counter
        folded = layer in FOLDED_LAYERS or qual in FOLDED_CALLS
        name_id = self._name_id(qual)

        def wrapper(*args, **kwargs):
            if folded:
                frame = [0.0, stack[-1][1]]
            else:
                frame = [0.0, len(spans)]
                spans.append(None)
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                parent = stack[-1]
                elapsed = t1 - t0
                parent[0] += elapsed
                calls[qual] += 1
                self_s[qual] += elapsed - frame[0]
                total_s[qual] += elapsed
                if not folded:
                    spans[frame[1]] = (name_id, parent[1], self.op, t0, t1)
            if post is not None:
                post(args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", qual)
        wrapper.__qualname__ = getattr(fn, "__qualname__", qual)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def _name_id(self, qual):
        if qual not in self.name_ids:
            self.name_ids[qual] = len(self.names)
            self.names.append(qual)
        return self.name_ids[qual]

    def _post_hook(self, qual):
        if qual == "tensors.GroupTensor.__init__":
            def built(args, _result):
                tensor = args[0]
                self.peak_nnz = max(self.peak_nnz, len(tensor.entries))
                self.peak_arity = max(self.peak_arity, len(tensor.variances))
            return built
        if qual in JOINS:
            def joined(_args, result):
                tensor = getattr(result, "tensor", result)
                self.nnz_out += len(tensor.entries)
            return joined
        if qual == "simplicial.find_move_sites":
            def found(_args, result):
                self.sites_found += len(result)
            return found
        if qual.startswith("verify."):
            def compared(_args, result):
                checks = getattr(result, "checks", None)
                if isinstance(checks, int) and hasattr(result, "verdict"):
                    self.entries_compared += checks
            return compared
        return None

    # -- results ----------------------------------------------------------

    def layer_self(self, layer):
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def count(self, *quals):
        return sum(self.calls[q] for q in quals)

    def metrics(self, overhead_ratio: float) -> dict:
        """The per-layer metrics, name -> (value, unit)."""
        muls = ("scalars.Scalar.__mul__", "scalars.Scalar.__rmul__")
        mul_calls = self.count(*muls)
        mul_s = sum(self.self_s[q] for q in muls)
        applied = self.count("simplicial.apply_move")
        return {
            "scalars.mul_calls": (mul_calls, "count"),
            "scalars.add_calls": (self.count("scalars.Scalar.__add__", "scalars.Scalar.__radd__"), "count"),
            "scalars.conj_calls": (self.count("scalars.Scalar.conj"), "count"),
            "scalars.self_s": (self.layer_self("scalars"), "s"),
            "scalars.mul_us": (mul_s / mul_calls * 1e6 if mul_calls else 0.0, "us"),
            "tensors.join_calls": (self.count(*JOINS), "count"),
            "tensors.nnz_out": (self.nnz_out, "count"),
            "tensors.peak_nnz": (self.peak_nnz, "count"),
            "tensors.peak_arity": (self.peak_arity, "slots"),
            "tensors.construct_calls": (self.count("tensors.GroupTensor.__init__"), "count"),
            "tensors.self_s": (self.layer_self("tensors"), "s"),
            "simplicial.face_classes_calls": (self.count("simplicial.Triangulation.face_classes"), "count"),
            "simplicial.find_move_sites_calls": (self.count("simplicial.find_move_sites"), "count"),
            "simplicial.sites_found": (self.sites_found, "count"),
            "simplicial.apply_move_calls": (applied, "count"),
            "simplicial.site_yield": (applied / self.sites_found if self.sites_found else 0.0, "ratio"),
            "simplicial.self_s": (self.layer_self("simplicial"), "s"),
            "statesum.build_assignment_calls": (self.count("statesum.build_assignment"), "count"),
            "statesum.partition_calls": (self.count("statesum.partition"), "count"),
            "statesum.self_s": (self.layer_self("statesum"), "s"),
            "verify.entries_compared": (self.entries_compared, "count"),
            "verify.dense_s": (self.total_s["verify.dense_p33_oracle"], "s"),
            "verify.self_s": (self.layer_self("verify"), "s"),
            "solutions.self_s": (self.layer_self("solutions"), "s"),
            "groups.self_s": (self.layer_self("groups"), "s"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }

    def write_spans(self, path):
        """Write the names table, call counts and every span as JSON."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "parent", "op", "start_s", "end_s"],
                    "names": self.names,
                    "calls": dict(sorted(self.calls.items())),
                    "spans": [s for s in self.spans if s is not None],
                },
                fh,
                separators=(",", ":"),
            )
