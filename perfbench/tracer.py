"""Outside-in tracer: wraps the public functions of ppverify's modules.

Spans are recorded from the benchmark's own files, around calls into
each layer; nothing inside the package is edited.  A function is
replaced both in its defining module and in every ppverify module that
imported it by name (`proofchecks` imports `char_sum`, `_char_sums`,
... from `pptest`; patching only `pptest` would miss those calls).
Class methods are patched once on the class.  `restore()` puts every
original back.

Spans stay in memory as (name, start, end, busy, parent) tuples; self
time is derived afterwards from the parent links.  Generator functions
(`value_chunks`, `format_table_lines`, ...) get one span whose busy time
is the sum of the time spent inside the generator between resumes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

import numpy as np

# The layers, in the order the report lists them.  binpoly, gf2linalg and
# linearized stay below 1% of every workload and are left unmeasured.
LAYERS = ["field", "blocks", "maps", "constructions", "pptest", "proofchecks", "cli"]

# Private functions that are layer boundaries all the same.
EXTRA_PRIVATE = {"pptest": ["_char_sums"], "cli": ["_atomic_write"]}

# Reported names that differ from `<module>.<qualname>`.
ALIASES = {"pptest._char_sums": "pptest.char_sums"}

# Scalar entry points called up to millions of times per pass: a span
# would cost more than the work, so they are counted only.  The whole
# `field` layer is scalar arithmetic.
COUNT_ONLY_LAYERS = {"field"}
COUNT_ONLY = {"maps.FieldMap.__call__"}


def _charsum_key(f, a):
    ctx = f.ctx
    return (f.name, ctx.m, ctx.modulus, ctx.tower, int(a))


class Tracer:
    """Collects spans and counters while installed; one instance per traced pass."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.charsum_keys: set = set()
        self._stack: list[int] = []
        self._patches: list = []
        self.wrapped: set[str] = set()   # reported names of everything patched

    # -- recording ---------------------------------------------------------

    def _extra(self, name: str, args, kwargs) -> None:
        """Work counters measured where the work happens."""
        counts = self.counts
        if name == "blocks.mul_block":
            counts["blocks.mul_block.elems"] += np.broadcast(args[1], args[2]).size
        elif name == "blocks.LinearTable.__call__":
            counts["blocks.LinearTable.elems"] += np.asarray(args[1]).size
        elif name == "blocks.parity":
            counts["blocks.parity.elems"] += np.asarray(args[0]).size
        elif name == "maps.FieldMap.eval_block":
            fmap, xs = args[0], args[1]
            if fmap._table is None:   # a real evaluation, not a table lookup
                counts["maps.domain_evals.elems"] += len(xs) / fmap.ctx.order
        elif name == "pptest._char_sums":
            f = args[0]
            a_values = args[1] if len(args) > 1 else kwargs["a_values"]
            counts["pptest.char_sums.a_values"] += len(a_values)
            self.charsum_keys.update(_charsum_key(f, a) for a in a_values)

    def _span_wrapper(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            tracer._extra(name, args, kwargs)
            spans, stack = tracer.spans, tracer._stack
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, t1 - t0, parent)

        return functools.update_wrapper(wrapper, fn)

    def _generator_wrapper(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            spans, stack = tracer.spans, tracer._stack
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            busy = 0.0
            first = last = None
            gen = fn(*args, **kwargs)
            try:
                while True:
                    stack.append(idx)
                    t0 = time.perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        t1 = time.perf_counter()
                        stack.pop()
                        busy += t1 - t0
                        first = t0 if first is None else first
                        last = t1
                    yield item
            finally:
                gen.close()
                spans[idx] = (name, first or 0.0, last or 0.0, busy, parent)

        return functools.update_wrapper(wrapper, fn)

    def _count_wrapper(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def _wrap(self, layer: str, name: str, fn):
        self.wrapped.add(_public_name(name))
        if layer in COUNT_ONLY_LAYERS or name in COUNT_ONLY:
            return self._count_wrapper(name, fn)
        if inspect.isgeneratorfunction(fn):
            return self._generator_wrapper(name, fn)
        return self._span_wrapper(name, fn)

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Patch every public function and method of the measured layers."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None and (key == "ppverify" or key.startswith("ppverify."))]
        for layer in LAYERS:
            module = sys.modules[f"ppverify.{layer}"]
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                public = not attr.startswith("_") or attr in EXTRA_PRIVATE.get(layer, ())
                if not public:
                    continue
                if inspect.isclass(obj):
                    self._patch_class(layer, obj)
                elif inspect.isfunction(obj):
                    wrapped = self._wrap(layer, f"{layer}.{attr}", obj)
                    for mod in modules:
                        for name, value in list(vars(mod).items()):
                            if value is obj:
                                self._patches.append((mod, name, obj))
                                setattr(mod, name, wrapped)

    def _patch_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                replacement = type(member)(self._wrap(layer, name, member.__func__))
            elif inspect.isfunction(member):
                replacement = self._wrap(layer, name, member)
            else:
                continue   # properties and plain attributes
            self._patches.append((cls, attr, member))
            setattr(cls, attr, replacement)

    def restore(self) -> None:
        """Put every original function back, in reverse order of patching."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Per-name calls, inclusive s, self_s, and the work counters."""
        spans = self.spans
        child_busy = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[4] >= 0:
                child_busy[span[4]] += span[3]
        out: dict[str, float] = {}
        for idx, span in enumerate(spans):
            if span is None:
                continue
            name = span[0]
            out[name + ".s"] = out.get(name + ".s", 0.0) + span[3]
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + span[3] - child_busy[idx]
        for name, value in self.counts.items():
            out[name] = value
        out["maps.domain_evals"] = self.counts.get("maps.domain_evals.elems", 0.0)
        out.pop("maps.domain_evals.elems", None)
        distinct = len(self.charsum_keys)
        out["pptest.charsum.recompute_ratio"] = (
            self.counts.get("pptest.char_sums.a_values", 0) / distinct if distinct else 0.0)
        return {_public_name(name): value for name, value in out.items()}


def _public_name(name: str) -> str:
    """Map a raw recorded name onto the reported `<module>.<function>.<stat>`."""
    for raw, alias in ALIASES.items():
        if name == raw or name.startswith(raw + "."):
            name = alias + name[len(raw):]
    return name.replace(".__call__", "")
