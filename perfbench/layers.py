"""Run-time probes for one benchmark run: drain timer and per-layer spans.

Nothing here edits the library's sources.  A :class:`Probe` patches the
library's classes and module functions in the running process, so it
must be installed after the library is imported and before the
environment is built (instances cache bound methods at construction).

Two levels:

* untraced -- only :meth:`GridEnvironment.run` and
  :meth:`Runtime.create_array` are wrapped, each called once or twice per
  run, so the run stays on the library's default code path;
* traced -- additionally every function defined in a layer's modules is
  wrapped in a span.  Spans nest on one stack; a layer's self time is its
  spans' wall minus their child spans, and the engine is also billed the
  drain wall that no span covers, so the layers' self times add up to the
  traced drain wall exactly.
"""

from __future__ import annotations

import functools
import gc
import importlib
import pkgutil
import sys
import time
import types

#: Layer -> the library modules (or packages) whose functions it owns.
LAYERS = {
    "engine": ("repro.sim.engine",),
    "scheduler": ("repro.core.scheduler", "repro.core.queue"),
    "rts": ("repro.core.rts", "repro.core.reduction",
            "repro.core.collectives", "repro.core.proxy", "repro.core.ids"),
    "fabric": ("repro.network.fabric", "repro.network.topology"),
    "chain": ("repro.network.chain", "repro.network.devices",
              "repro.network.delay", "repro.network.faults"),
    "reliable": ("repro.network.reliable",),
    "app": ("repro.apps.stencil", "repro.apps.leanmd"),
    "obs": ("repro.sim.trace", "repro.obs"),
}
LAYER_NAMES = tuple(LAYERS)

#: Numerical kernels inside the app layer, timed on top of their span;
#: only kernels that some workload calls are listed.
KERNELS = {
    ("repro.apps.stencil.kernel", "jacobi_step_into"),
}

#: The one dunder that is a layer's entry point: calling a proxy's
#: bound entry sends the message.  Other dunders (``__init__``,
#: ``__hash__``, ``__eq__``, ...) are small and called several times per
#: event, so a span would cost more than the work it attributes; their
#: time stays with the calling layer.
_WRAPPED_DUNDERS = {"__call__"}

_ENTRY_ATTR = "__repro_entry__"


def _layer_modules():
    """``{module name: layer}`` for every module of every layer, imported."""
    owner = {}
    for layer, roots in LAYERS.items():
        for root in roots:
            mod = importlib.import_module(root)
            owner[root] = layer
            if hasattr(mod, "__path__"):
                for info in pkgutil.walk_packages(mod.__path__, root + "."):
                    importlib.import_module(info.name)
                    owner[info.name] = layer
    return owner


def _defined_in(fn, module) -> bool:
    code = getattr(fn, "__code__", None)
    return code is not None and code.co_filename == module.__file__


class Probe:
    """Timers (always) and per-layer spans (when *traced*) for one run."""

    def __init__(self, traced: bool) -> None:
        from repro.core.rts import Runtime
        from repro.grid.environment import GridEnvironment

        self.clock = time.perf_counter
        self.drain_s = 0.0
        #: Wall of the spans opened directly by the drain.
        self.top_s = 0.0
        self.array_s = 0.0
        self.run_started_at = None
        self.gen0 = 0
        n = len(LAYER_NAMES)
        self.self_s = [0.0] * n
        self.calls = [0] * n
        #: Child-time accumulator per open span (slot 0: no span open).
        self.stack = [0.0]
        #: Layer index of the innermost open span, -1 outside all spans.
        self.current = [-1]
        #: ``(module, qualname) -> [calls]`` for every wrapped function.
        self.fn_calls = {}
        self.entry_keys = set()
        self.kernel = [0, 0.0, 0, 0]  # calls, seconds, cells, bytes
        self.heap_peak = [0]
        #: Drain-end copies of the span accumulators (see :meth:`_snapshot`).
        self.snap = None
        if traced:
            self._install_spans()
        self._wrap_drain(GridEnvironment)
        self._wrap_create_array(Runtime)

    # -- always-on timers ----------------------------------------------------

    def _wrap_drain(self, cls) -> None:
        orig = cls.run
        probe = self

        @functools.wraps(orig)
        def run(env, *args, **kwargs):
            if probe.run_started_at is None:
                probe.run_started_at = probe.clock()
                probe._start_recording()
            # Spans the drain opens are children of whatever span encloses
            # this call (the app's ``run``); their wall lands in its slot.
            stack = probe.stack
            depth = len(stack)
            base = stack[-1]
            outer = probe.current[0]
            probe.current[0] = -1
            g0 = gc.get_stats()[0]["collections"]
            t0 = probe.clock()
            try:
                return orig(env, *args, **kwargs)
            finally:
                probe.drain_s += probe.clock() - t0
                probe.top_s += stack[depth - 1] - base
                probe.current[0] = outer
                probe.gen0 += gc.get_stats()[0]["collections"] - g0
                probe._snapshot()

        cls.run = run

    def _wrap_create_array(self, cls) -> None:
        orig = cls.create_array
        probe = self

        @functools.wraps(orig)
        def create_array(rts, *args, **kwargs):
            t0 = probe.clock()
            try:
                return orig(rts, *args, **kwargs)
            finally:
                probe.array_s += probe.clock() - t0

        cls.create_array = create_array

    def _start_recording(self) -> None:
        """Forget the set-up work: per-layer figures cover the drain only."""
        n = len(LAYER_NAMES)
        self.self_s[:] = [0.0] * n
        self.calls[:] = [0] * n
        for cell in self.fn_calls.values():
            cell[0] = 0
        self.kernel[:] = [0, 0.0, 0, 0]
        self.heap_peak[0] = 0

    def _snapshot(self) -> None:
        """Freeze the span figures as the drain ends, before results are
        collected, so post-run work is not billed to any layer."""
        self.snap = {
            "self_s": list(self.self_s),
            "calls": list(self.calls),
            "fn_calls": {k: c[0] for k, c in self.fn_calls.items()},
            "kernel": list(self.kernel),
            "heap_peak": self.heap_peak[0],
        }

    # -- spans ---------------------------------------------------------------

    def _install_spans(self) -> None:
        owner = _layer_modules()
        from repro.sim.engine import Engine
        replaced = {}
        for modname, layer in owner.items():
            mod = sys.modules[modname]
            idx = LAYER_NAMES.index(layer)
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and \
                        _defined_in(obj, mod):
                    wrapped = self._span(obj, idx, (modname, name))
                    replaced[obj] = wrapped
                    setattr(mod, name, wrapped)
                elif isinstance(obj, type) and obj.__module__ == modname:
                    self._wrap_class(obj, mod, idx)
        # Rebind names other modules imported with ``from x import f``.
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in replaced:
                    setattr(mod, name, replaced[obj])
        self._track_heap_peak(Engine)

    def _wrap_class(self, cls, mod, idx) -> None:
        for name, obj in list(vars(cls).items()):
            if not isinstance(obj, types.FunctionType):
                continue
            if name.startswith("__") and name not in _WRAPPED_DUNDERS:
                continue
            if not _defined_in(obj, mod):
                continue
            setattr(cls, name,
                    self._span(obj, idx, (mod.__name__, obj.__qualname__)))

    def _track_heap_peak(self, engine_cls) -> None:
        """Sample the live event count after every post, inside its span."""
        span_post = engine_cls.post
        orig = span_post.__wrapped__
        peak = self.heap_peak

        def post(engine, *args, **kwargs):
            handle = orig(engine, *args, **kwargs)
            pending = engine.pending
            if pending > peak[0]:
                peak[0] = pending
            return handle

        key = ("repro.sim.engine", "Engine.post")
        del self.fn_calls[key]
        engine_cls.post = self._span(functools.wraps(orig)(post),
                                     LAYER_NAMES.index("engine"), key)

    def _span(self, fn, idx, key):
        clock = self.clock
        stack = self.stack
        self_s = self.self_s
        calls = self.calls
        cell = self.fn_calls.setdefault(key, [0])
        if getattr(fn, _ENTRY_ATTR, None) is not None:
            self.entry_keys.add(key)
        if key in KERNELS:
            fn = self._kernel_timer(fn)

        current = self.current

        @functools.wraps(fn)
        def span(*args, **kwargs):
            calls[idx] += 1
            cell[0] += 1
            if current[0] == idx:
                # A call inside the same layer moves no time between
                # layers, so it is counted but not timed.
                return fn(*args, **kwargs)
            outer = current[0]
            current[0] = idx
            t0 = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[idx] += dt - stack.pop()
                stack[-1] += dt
                current[0] = outer

        return span

    def _kernel_timer(self, fn):
        clock = self.clock
        acc = self.kernel
        import numpy as np

        @functools.wraps(fn)
        def kernel(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            acc[1] += clock() - t0
            acc[0] += 1
            outs = out if isinstance(out, tuple) else (out,)
            seen = set()
            for a in args + tuple(kwargs.values()) + outs:
                if isinstance(a, np.ndarray) and id(a) not in seen:
                    seen.add(id(a))
                    acc[3] += a.nbytes
            acc[2] += sum(o.size for o in outs if isinstance(o, np.ndarray))
            return out

        return kernel

    # -- results (as the drain ended) ------------------------------------------

    def count(self, module: str, qualname: str) -> int:
        """Calls to one wrapped function during the drain."""
        return self.snap["fn_calls"].get((module, qualname), 0)

    def layer_self_s(self) -> dict:
        """Self seconds per layer; they sum to :attr:`drain_s`."""
        out = dict(zip(LAYER_NAMES, self.snap["self_s"]))
        out["engine"] += self.drain_s - self.top_s
        return out

    def layer_calls(self) -> dict:
        return dict(zip(LAYER_NAMES, self.snap["calls"]))

    def entry_calls(self) -> int:
        return sum(self.snap["fn_calls"][k] for k in self.entry_keys)
