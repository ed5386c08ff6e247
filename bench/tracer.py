"""Span tracer for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: the
public functions of every survmae module are replaced, wherever a module
looks them up, by a wrapper that opens a span around the call. The
originals are put back by :meth:`Tracer.uninstall`. Nothing under ``src/``
is modified.

Per span name the tracer keeps a call count, the time covered by its
outermost spans ("busy" time: a name nested in itself is not counted twice)
and its self time (duration minus the time covered by its direct child
spans). A span may also count toward group keys, e.g. every ``StepCurve``
method counts toward ``core.StepCurve``. Aggregates are reset per iteration
with :meth:`Tracer.take`; the raw spans of one chosen iteration are kept in
memory for the span log written at the end of the run.
"""

from __future__ import annotations

import importlib
import time
import types
from collections import defaultdict

LAYERS = ("core", "estimators", "mae", "metrics", "synth", "harness", "cli")

# class methods traced besides the modules' public functions
CLASS_METHODS = {
    ("core", "StepCurve"): (
        "__post_init__",
        "value",
        "value_before",
        "integrate",
        "median_time",
        "mean_time",
    ),
    ("core", "SurvivalDataset"): ("subset", "from_arrays"),
}

# span name -> extra keys its busy time also counts toward
GROUPS = {
    **{
        f"core.StepCurve.{m}": ("core.StepCurve",)
        for m in CLASS_METHODS[("core", "StepCurve")]
    },
    **{
        f"mae.{f}": ("mae.point_scores",)
        for f in ("mae_uncensored", "mae_hinge", "mae_ipcw_d", "weighted_mae", "true_mae")
    },
}


class Tracer:
    """Records nested spans around wrapped callables."""

    def __init__(self):
        self._stack = []  # open spans: [span id, child seconds]
        self._open = defaultdict(int)  # key -> number of open spans counting toward it
        self._next_id = 0
        self._patches = []  # (owner, attribute, original value)
        self.log = None  # list of finished spans while logging, else None
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)

    def take(self) -> dict:
        """Return and clear the aggregates gathered since the last call."""
        snap = {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self_s": dict(self.self_s),
        }
        self.reset()
        return snap

    def wrap(self, name, fn):
        keys = (name,) + GROUPS.get(name, ())
        stack, open_count, clock = self._stack, self._open, time.perf_counter

        def traced(*args, **kwargs):
            outermost = [k for k in keys if not open_count[k]]
            for k in keys:
                open_count[k] += 1
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                for k in keys:
                    open_count[k] -= 1
                for k in outermost:
                    self.busy[k] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if self.log is not None:
                    self.log.append((span_id, parent, name, start, end))

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer's public functions and the traced class methods."""
        modules = {layer: importlib.import_module(f"survmae.{layer}") for layer in LAYERS}
        lookups = list(modules.values()) + [importlib.import_module("survmae")]
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ("main",)):
                fn = getattr(mod, attr)
                if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                    continue
                traced = self.wrap(f"{layer}.{attr}", fn)
                for owner in lookups:
                    for key in [k for k, v in vars(owner).items() if v is fn]:
                        self._patch(owner, key, traced)
        for (layer, cls_name), methods in CLASS_METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for method in methods:
                raw = cls.__dict__[method]
                name = f"{layer}.{cls_name}.{method}"
                if isinstance(raw, classmethod):
                    self._patch(cls, method, classmethod(self.wrap(name, raw.__func__)))
                else:
                    self._patch(cls, method, self.wrap(name, raw))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
