#!/usr/bin/env python3
"""Benchmark runner: host seconds per simulated step, per workload.

One set of runs measures one workload for ``--seconds`` seconds, one run
at a time, each in a fresh child process (``perfbench/child.py``) on the
library's default code path, and checks every run's outputs.

    python3 perfbench/run.py --workload stencil-wan64 --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` from
untraced runs; their times are scaled to a reference host speed by
calibration loops timed in each run (see :func:`slowdown`).  ``--trace 1``
alternates untraced and traced runs and reports the per-layer metrics.
Either way the last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` (runs that raised or whose outputs
failed a check) and ``metrics``.

    python3 perfbench/run.py --all --seconds 20

runs every workload both ways, prints every metric with its unit, median
and sample count, one row per workload, and writes a record file
(default ``perfbench/out/record.json``).

Run from the root of a checkout; the library is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import (  # noqa: E402
    WORKLOADS,
    check,
    check_reproduced,
    load_pinned,
)
from layers import LAYER_NAMES  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
DEFAULT_RECORD = os.path.join(HERE, "out", "record.json")

#: A set of runs must end within this many seconds (the limit is 180).
HARD_LIMIT_S = 150.0
#: No new run starts after this many seconds, whatever ``--seconds``.
LAST_START_S = 90.0
#: Fewest untraced runs in a ``--trace 0`` set, whatever ``--seconds``.
MIN_RUNS = 3
#: Seconds of one pass of each calibration loop (``child.calibrate`` and
#: ``child.calibrate_numpy``) on the reference host, a shared 2-core
#: 2.0 GHz virtual machine when its other tenants are quiet.  End-to-end
#: times are divided by their own run's :func:`slowdown`, so they read as
#: seconds on that host however busy it is; ``host_drift.py`` checks
#: that this tracks each workload.
CALIB_REF_S = 0.029
CALIB_NP_REF_S = 0.0406


class HarnessError(RuntimeError):
    """The benchmark itself cannot run: there are no library sources."""


def spawn(name: str, seed: int, traced: bool, timeout: float) -> dict:
    """Run one child to completion and return its result.  A child that
    times out, crashes or prints no result gives an ``error`` result,
    which the checks count as a failed run."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, name, str(seed), "1" if traced else "0"],
            capture_output=True, text=True, timeout=timeout, env=env,
            cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"run exceeded {timeout:.0f} s", "timeout": True}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except ValueError:
            pass
    return {"error": f"child exited {proc.returncode} without a result: "
                     f"{proc.stderr.strip()[-2000:]}"}


def run_set(name: str, seed: int, seconds: float, traced: bool,
            log=print) -> dict:
    """Runs of one workload for *seconds*; every run is checked."""
    pinned = load_pinned()
    start = time.perf_counter()
    plain, traced_runs, failures = [], [], []

    def elapsed() -> float:
        return time.perf_counter() - start

    def one(trace: bool) -> dict:
        r = spawn(name, seed, trace, max(10.0, HARD_LIMIT_S - elapsed()))
        problems = check(name, seed, r, pinned)
        if trace and plain:
            problems += check_reproduced(plain[-1], r)
        r["problems"] = problems
        if problems:
            failures.append(problems)
        log(f"  {name} seed={seed} {'traced' if trace else 'untraced'}: "
            + (f"drain {r['drain_s']:.3f} s, setup {r['setup_s']:.4f} s, "
               f"host slowdown {slowdown(r):.3f}"
               if "drain_s" in r else "no timings")
            + (f"  FAILED: {'; '.join(problems)}" if problems else ""))
        return r

    while True:
        plain.append(one(False))
        if traced:
            traced_runs.append(one(True))
        if plain[-1].get("timeout") or elapsed() > LAST_START_S:
            break
        if len(failures) >= MIN_RUNS and \
                len(failures) == len(plain) + len(traced_runs):
            break  # every run fails: more runs would tell nothing new
        if elapsed() >= seconds and (traced or len(plain) >= MIN_RUNS):
            break
    runs = plain + traced_runs
    return {"workload": name, "seed": seed, "plain": plain,
            "traced": traced_runs, "attempted": len(runs),
            "failed": len(failures)}


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def slowdown(r: dict) -> float:
    """How many times slower than the reference host this run's host ran
    code like the workload's: the Python loop's ratio or, for a
    kernel-bound workload, the geometric mean of both loops' ratios."""
    python = r["calib_s"] / CALIB_REF_S
    if WORKLOADS[r["workload"]].kernel_bound:
        return math.sqrt(python * r["calib_np_s"] / CALIB_NP_REF_S)
    return python


def _at_reference_speed(r: dict, seconds: float) -> float:
    return seconds / slowdown(r)


def end_to_end(rs: dict) -> dict:
    """Median end-to-end figures over the untraced runs that finished."""
    ok = [r for r in rs["plain"] if "error" not in r]
    steps = WORKLOADS[rs["workload"]].steps
    return {
        "host_s_per_step": _median(
            _at_reference_speed(r, r["drain_s"] / steps) for r in ok),
        "setup_s": _median(_at_reference_speed(r, r["setup_s"]) for r in ok),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in ok),
    }


def per_layer(rs: dict) -> dict:
    """Median per-layer figures: spans from traced runs, set-up and
    allocation figures from the untraced runs."""
    plain = [r for r in rs["plain"] if "error" not in r]
    traced = [r for r in rs["traced"] if "error" not in r]
    out = {}

    def med(fn, runs=traced):
        return _median(fn(r) for r in runs)

    for layer in LAYER_NAMES:
        out[f"{layer}.self_s"] = med(
            lambda r, la=layer: r["layers"]["self_s"][la])
        out[f"{layer}.share"] = med(
            lambda r, la=layer: r["layers"]["self_s"][la] / r["drain_s"])

    def per_event(layer):
        return med(lambda r: r["layers"]["calls"][layer] / r["events"])

    def ratio(num, den):
        return num / den if den else 0.0

    out.update({
        "engine.events": med(lambda r: r["events"]),
        "engine.posts_per_event": med(
            lambda r: r["layers"]["engine.posts"] / r["events"]),
        "engine.cancels": med(lambda r: r["layers"]["engine.cancels"]),
        "engine.heap_peak": med(lambda r: r["layers"]["engine.heap_peak"]),
        "scheduler.calls_per_event": per_event("scheduler"),
        "scheduler.executions": med(
            lambda r: r["layers"]["scheduler.executions"]),
        "scheduler.queue_peak": med(
            lambda r: r["layers"]["scheduler.queue_peak"]),
        "rts.calls_per_event": per_event("rts"),
        "rts.sends": med(lambda r: r["layers"]["rts.sends"]),
        "rts.bundles": med(lambda r: r["layers"]["rts.bundles"]),
        "rts.reduction_partials": med(
            lambda r: r["layers"]["rts.reduction_partials"]),
        "fabric.calls_per_event": per_event("fabric"),
        "fabric.sends": med(lambda r: r["layers"]["fabric.sends"]),
        "fabric.wan_msgs": med(lambda r: r["wan_msgs"]),
        "fabric.bytes": med(lambda r: r["layers"]["fabric.bytes"]),
        "chain.resolves": med(lambda r: r["layers"]["chain.resolves"]),
        "reliable.transfers": med(lambda r: r["transfers"]),
        "reliable.retransmits": med(lambda r: r["retransmits"]),
        "reliable.acks_sent": med(lambda r: r["acks_sent"]),
        "reliable.goodput": med(lambda r: ratio(
            r["transfers"], r["transfers"] + r["retransmits"])),
        "reliable.failures": med(lambda r: r["reliable_failures"]),
        "app.entry_calls": med(lambda r: r["layers"]["app.entry_calls"]),
        "app.kernel_calls": med(lambda r: r["layers"]["app.kernel_calls"]),
        "app.kernel_s": med(lambda r: r["layers"]["app.kernel_s"]),
        "app.kernel_cells_per_s": med(lambda r: ratio(
            r["layers"]["app.kernel_cells"], r["layers"]["app.kernel_s"])),
        "app.kernel_mb": med(
            lambda r: r["layers"]["app.kernel_bytes"] / 1e6),
        "obs.sink_calls_per_event": per_event("obs"),
        "setup.self_s": med(lambda r: r["setup_s"], plain),
        "setup.share": med(
            lambda r: r["setup_s"] / (r["setup_s"] + r["drain_s"]), plain),
        "setup.env_s": med(lambda r: r["env_s"], plain),
        "setup.array_s": med(lambda r: r["array_s"], plain),
        "gc.gen0_per_kevent": med(
            lambda r: r["gen0"] / (r["events"] / 1000.0), plain),
        "trace.drain_s": med(lambda r: r["drain_s"]),
        "wall.host_s_per_step": med(
            lambda r: r["drain_s"] / WORKLOADS[r["workload"]].steps, plain),
        "host.calib_s": med(lambda r: r["calib_s"], plain),
        "host.calib_np_s": med(lambda r: r["calib_np_s"], plain),
    })
    plain_drain = med(lambda r: r["drain_s"], plain)
    if out["trace.drain_s"] is not None and plain_drain:
        out["trace.overhead"] = out["trace.drain_s"] / plain_drain - 1.0
    else:
        out["trace.overhead"] = None
    return out


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def as_metrics(values: dict, specs: list) -> dict:
    """The figures named by *specs*, with units; ``None`` where no run
    measured one."""
    return {s["name"]: {"value": values.get(s["name"]), "unit": s["unit"]}
            for s in specs}


def measured(metrics: dict) -> bool:
    return all(m["value"] is not None for m in metrics.values())


def preflight() -> None:
    """Fail fast, printing no result, when the library is not there."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise HarnessError(f"no library sources under {ROOT}/src")


def single(args, spec) -> int:
    rs = run_set(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        metrics = as_metrics(per_layer(rs), spec["per_layer"])
    else:
        metrics = as_metrics(end_to_end(rs), spec["end_to_end"])
    for name, m in metrics.items():
        print(f"  {name} = {_fmt(m['value'])} {m['unit']}")
    print(json.dumps({"correct": rs["failed"] == 0 and measured(metrics),
                      "attempted": rs["attempted"], "failed": rs["failed"],
                      "metrics": metrics}))
    return 0


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4g}"
    return str(int(value))


def report(args, spec) -> int:
    """Every workload, untraced and traced: tables plus a record file."""
    record = {"seed": args.seed, "seconds": args.seconds,
              "calib_ref_s": CALIB_REF_S, "calib_np_ref_s": CALIB_NP_REF_S,
              "host": {"python": platform.python_version(),
                       "machine": platform.machine(),
                       "cpus": os.cpu_count()},
              "workloads": {}}
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        e2e = run_set(name, args.seed, args.seconds, False)
        layer = run_set(name, args.seed, args.seconds, True)
        record["workloads"][name] = {
            "end_to_end": as_metrics(end_to_end(e2e), spec["end_to_end"]),
            "end_to_end_n": len(e2e["plain"]),
            "per_layer": as_metrics(per_layer(layer), spec["per_layer"]),
            "per_layer_n": len(layer["traced"]),
            "attempted": e2e["attempted"] + layer["attempted"],
            "failed": e2e["failed"] + layer["failed"],
            "runs": e2e["plain"] + layer["plain"] + layer["traced"],
        }
    print(f"\nend to end: median over n untraced runs; times scaled to a "
          f"host whose calibration passes take {CALIB_REF_S} s (Python) "
          f"and {CALIB_NP_REF_S} s (numpy)")
    heads = [f"{s['name']} [{s['unit']}]" for s in spec["end_to_end"]]
    print("  ".join([f"{'workload':<15}"] + [f"{h:>20}" for h in heads]
                    + ["   n", " failed_frac"]))
    for name, w in record["workloads"].items():
        cells = [f"{_fmt(w['end_to_end'][s['name']]['value']):>20}"
                 for s in spec["end_to_end"]]
        print("  ".join([f"{name:<15}"] + cells
                        + [f"{w['end_to_end_n']:>4}",
                           f" {w['failed']}/{w['attempted']}"]))
    print("\nper layer: median over n traced runs "
          "(setup.*, gc.*, wall.*, host.*: untraced runs)")
    for name, w in record["workloads"].items():
        rows = {}
        for metric, m in w["per_layer"].items():
            group = metric.split(".")[0]
            rows.setdefault(group, []).append(
                f"{metric.split('.', 1)[1]}={_fmt(m['value'])} {m['unit']}")
        for group, cells in rows.items():
            print(f"{name:<15} n={w['per_layer_n']}  {group:<9} "
                  + ", ".join(cells))
    path = args.record or DEFAULT_RECORD
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"\nrecord written to {path}")
    return 0 if all(w["failed"] == 0
                    for w in record["workloads"].values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload (or --workload) both "
                             "ways; print tables and write a record")
    parser.add_argument("--record", help="record file for --all")
    args = parser.parse_args(argv)
    try:
        preflight()
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.all:
            return report(args, spec)
        if args.workload is None:
            parser.error("--workload is required without --all")
        return single(args, spec)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
