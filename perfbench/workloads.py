"""The benchmark's workloads and the checks every run's outputs must pass.

Each workload is one application run on one preset environment.  The
seed reaches the library only through the presets' and apps' ``seed=``
(fault RNG, network RNG and initial mesh).  Why each workload exists is
recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_PATH = os.path.join(HERE, "pinned.json")


@dataclass(frozen=True)
class Workload:
    name: str
    steps: int
    #: ``make_env(seed) -> GridEnvironment``: the first preset call.
    make_env: Callable
    #: ``run_app(env, seed, steps) -> dict`` of the app's outputs.
    run_app: Callable
    #: Most of the wall is a numpy kernel.  Contention from the host's
    #: other tenants slows array code differently from interpreted
    #: Python, so such a workload's speed reference blends both
    #: calibration loops (``run.slowdown``).
    kernel_bound: bool = False


def _stencil_wan64_env(seed):
    from repro.grid.presets import artificial_latency_env
    from repro.units import ms
    return artificial_latency_env(64, ms(2.0), seed=seed)


def _stencil_real8_env(seed):
    from repro.grid.presets import artificial_latency_env
    from repro.units import ms
    return artificial_latency_env(8, ms(2.0), seed=seed)


def _leanmd_lossy8_env(seed):
    from repro.grid.presets import lossy_wan_env
    from repro.units import ms
    return lossy_wan_env(8, ms(2.0), seed=seed, stats=False)


def _run_stencil(objects, payload):
    def run_app(env, seed, steps):
        from repro.apps.stencil import StencilApp
        app = StencilApp(env, mesh=(2048, 2048), objects=objects,
                         payload=payload, kernel="numpy", seed=seed)
        result = app.run(steps)
        return {"steps_done": result.steps,
                "ms_per_step": result.time_per_step_ms,
                "checksum": result.checksum}
    return run_app


def _run_leanmd(env, seed, steps):
    from repro.apps.leanmd import LeanMDApp
    app = LeanMDApp(env, cells=(6, 6, 6), payload="modeled", seed=seed)
    result = app.run(steps)
    return {"steps_done": result.steps,
            "ms_per_step": result.time_per_step_ms}


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("stencil-wan64", 16, _stencil_wan64_env,
                 _run_stencil(1024, "modeled")),
        Workload("stencil-real8", 64, _stencil_real8_env,
                 _run_stencil(16, "real"), kernel_bound=True),
        Workload("leanmd-lossy8", 4, _leanmd_lossy8_env, _run_leanmd),
    )
}

#: Outputs pinned for a seed, per workload, besides ``ms_per_step``.
PINNED_KEYS = {
    "stencil-wan64": ("ms_per_step", "wan_msgs"),
    "stencil-real8": ("ms_per_step", "checksum"),
    "leanmd-lossy8": ("ms_per_step",),
}

#: Outputs a traced run must reproduce exactly from the untraced run.
REPRODUCED_KEYS = ("steps_done", "ms_per_step", "checksum", "events",
                   "wan_msgs", "retransmits")


def load_pinned(path: str = PINNED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check(name: str, seed: int, out: dict, pinned: dict) -> List[str]:
    """Problems with one run's outputs; an empty list means it passed."""
    if "error" in out:
        return [out["error"]]
    problems = []
    steps = WORKLOADS[name].steps
    if out["steps_done"] != steps:
        problems.append(f"{out['steps_done']} of {steps} steps completed")
    ms = out["ms_per_step"]
    if not (math.isfinite(ms) and ms > 0):
        problems.append(f"virtual ms/step {ms!r} is not a positive number")
    if out["events"] <= 0:
        problems.append("no events processed")
    if name == "stencil-real8" and not (
            math.isfinite(out["checksum"]) and out["checksum"] != 0.0):
        problems.append(f"checksum {out['checksum']!r} is not a real sum")
    if name == "stencil-wan64" and out["wan_msgs"] <= 0:
        problems.append("no message crossed the WAN")
    if name == "leanmd-lossy8":
        if out["reliable_failures"] != 0:
            problems.append(
                f"{out['reliable_failures']} reliable transfers failed")
        if out["acked"] != out["transfers"]:
            problems.append(f"{out['acked']} of {out['transfers']} "
                            "reliable transfers acked")
    want = pinned.get(name, {}).get(str(seed))
    if want is not None:
        for key in PINNED_KEYS[name]:
            if out[key] != want[key]:
                problems.append(f"{key} {out[key]!r} != pinned {want[key]!r}")
    return problems


def check_reproduced(untraced: dict, traced: dict) -> List[str]:
    """Problems if the traced run's virtual results differ from untraced."""
    if "error" in untraced or "error" in traced:
        return []
    return [f"traced {k} {traced[k]!r} != untraced {untraced[k]!r}"
            for k in REPRODUCED_KEYS if traced.get(k) != untraced.get(k)]
