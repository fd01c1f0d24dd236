"""One benchmark run in a fresh process; prints one JSON line of results.

    python3 perfbench/child.py <workload> <seed> <0|1 traced>

Imports are done before the clock starts.  Set-up time runs from the
first preset call to the first call into ``GridEnvironment.run``; the
drain is the time spent inside ``GridEnvironment.run``.  Two fixed
calibration loops, which call no program code, are timed before and
after the run, outside both.  A run that raises, including a library
that fails to import, still prints a result line, with an ``error`` key.
"""

from __future__ import annotations

import importlib
import json
import mmap
import os
import resource
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Library modules imported before the clock starts.
LIBRARY = ("repro.apps.leanmd", "repro.apps.stencil", "repro.grid.presets",
           "repro.units")


def _outputs(env, app_out: dict) -> dict:
    out = dict(app_out)
    out["events"] = env.engine.events_processed
    out["wan_msgs"] = env.fabric.wan_sent
    rstats = getattr(env.transport, "rstats", None)
    out["transfers"] = rstats.transfers if rstats else 0
    out["retransmits"] = rstats.retransmits if rstats else 0
    out["acked"] = rstats.acked if rstats else 0
    out["acks_sent"] = rstats.acks_sent if rstats else 0
    out["reliable_failures"] = rstats.failures if rstats else 0
    return out


def _layer_figures(env, probe: layers.Probe) -> dict:
    """Per-layer counts and self times of a traced run's drain."""
    pes = env.runtime.scheduler.pes
    kcalls, ks, kcells, kbytes = probe.snap["kernel"]
    return {
        "self_s": probe.layer_self_s(),
        "calls": probe.layer_calls(),
        "engine.posts": probe.count("repro.sim.engine", "Engine.post"),
        "engine.cancels": probe.count("repro.sim.engine", "Engine.cancel"),
        "engine.heap_peak": probe.snap["heap_peak"],
        "scheduler.executions": sum(ps.stats.executions for ps in pes),
        "scheduler.queue_peak": max(ps.queue.high_water for ps in pes),
        "rts.sends": probe.count("repro.core.rts", "Runtime.send"),
        "rts.bundles": probe.count("repro.core.collectives",
                                   "send_bundled"),
        "rts.reduction_partials": probe.count(
            "repro.core.reduction", "ReductionManager.on_partial"),
        "fabric.sends": probe.count("repro.network.fabric",
                                    "NetworkFabric.send"),
        "fabric.bytes": env.fabric.stats.total_bytes,
        "chain.resolves": probe.count("repro.network.chain",
                                      "DeviceChain.resolve"),
        "app.entry_calls": probe.entry_calls(),
        "app.kernel_calls": kcalls,
        "app.kernel_s": ks,
        "app.kernel_cells": kcells,
        "app.kernel_bytes": kbytes,
    }


def calibrate(passes: int = 8) -> float:
    """Mean seconds of one pass of a fixed pure-Python loop that calls no
    program code: how fast this host runs Python right now."""
    t0 = time.perf_counter()
    for _ in range(passes):
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) / passes


def calibrate_numpy(passes: int = 8) -> float:
    """Mean seconds of one pass of a fixed numpy five-point sweep over a
    512x512 block, written here and not taken from the program: how fast
    this host runs array code right now.

    The arrays live in an anonymous ``mmap`` of their own, not in memory
    from ``malloc``: freeing a large ``malloc`` block raises glibc's mmap
    threshold, which would change how the program's arrays are allocated
    and so its speed and peak memory."""
    n_src, n_dst = 514 * 514, 512 * 512
    with mmap.mmap(-1, 8 * (n_src + n_dst)) as buf:
        src = np.frombuffer(buf, np.float64, n_src).reshape(514, 514)
        dst = np.frombuffer(buf, np.float64, n_dst, 8 * n_src).reshape(
            512, 512)
        src[...] = 1.0
        t0 = time.perf_counter()
        for _ in range(passes):
            for _ in range(40):
                np.add(src[:-2, 1:-1], src[2:, 1:-1], out=dst)
                np.add(dst, src[1:-1, :-2], out=dst)
                np.add(dst, src[1:-1, 2:], out=dst)
                np.multiply(dst, 0.25, out=dst)
        seconds = (time.perf_counter() - t0) / passes
        del src, dst  # the views must go before the map can close
    return seconds


def main(argv) -> int:
    name, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    wl = WORKLOADS[name]
    result = {"workload": name, "seed": seed, "traced": traced}
    calib_before = calibrate(), calibrate_numpy()
    try:
        for module in LIBRARY:
            importlib.import_module(module)
        probe = layers.Probe(traced)
        t0 = time.perf_counter()
        env = wl.make_env(seed)
        result["env_s"] = time.perf_counter() - t0
        app_out = wl.run_app(env, seed, wl.steps)
        result["setup_s"] = probe.run_started_at - t0
        result["array_s"] = probe.array_s
        result["drain_s"] = probe.drain_s
        result["gen0"] = probe.gen0
        result.update(_outputs(env, app_out))
        if traced:
            result["layers"] = _layer_figures(env, probe)
    except Exception:  # noqa: BLE001 - a failed run is a result to report
        result["error"] = traceback.format_exc(limit=3).strip()
    # Read before the calibration arrays below can raise the peak.
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    # The host's speed around the run, sampled before and after it.
    result["calib_s"] = (calib_before[0] + calibrate()) / 2.0
    result["calib_np_s"] = (calib_before[1] + calibrate_numpy()) / 2.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
