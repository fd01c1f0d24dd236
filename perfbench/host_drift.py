#!/usr/bin/env python3
"""Does scaling by the calibration loops track each workload's slowdown?

    python3 perfbench/host_drift.py --rounds 25
    python3 perfbench/host_drift.py --from perfbench/out/host_drift.jsonl

The end-to-end times are divided by their own run's ``run.slowdown``,
measured by calibration loops.  That is only sound for a workload whose
wall time moves with the loops when the host's speed drifts.  This
script runs every workload in turn, untraced, ``--rounds`` times, one
fresh child per run, so that all workloads see the same drift.  It
appends each run's raw figures to ``perfbench/out/host_drift.jsonl``.

It then splits each workload's runs into the third the host ran fastest
and the third it ran slowest, by ``run.slowdown``, and prints, for
``host_s_per_step`` and ``setup_s``, the median of each third, raw and
scaled, and the gap between the two medians as a share of the fast one.
A scaled gap well inside the metric's bound means the scaling tracks the
workload; a raw gap near the scaled one means the host did not drift
during the record, and the record shows nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_OUT = os.path.join(HERE, "out", "host_drift.jsonl")

#: ``name -> seconds of one run`` for the two scaled end-to-end times.
TIMES = {
    "host_s_per_step": lambda r: r["drain_s"] / WORKLOADS[r["workload"]].steps,
    "setup_s": lambda r: r["setup_s"],
}


def record(path: str, rounds: int, seed: int) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "a") as out:
        for i in range(rounds):
            for name in WORKLOADS:
                r = run.spawn(name, seed, False, run.HARD_LIMIT_S)
                if "error" in r:
                    raise SystemExit(f"{name} run failed: {r['error']}")
                out.write(json.dumps(r) + "\n")
                out.flush()
            print(f"round {i + 1}/{rounds} done", file=sys.stderr)


def gaps(runs: list) -> dict:
    """``{workload: {metric: (fast raw, slow raw, fast scaled, slow
    scaled)}}`` over the fastest and slowest thirds of the runs."""
    out = {}
    for name in WORKLOADS:
        rs = sorted((r for r in runs if r["workload"] == name),
                    key=run.slowdown)
        third = len(rs) // 3
        if third == 0:
            continue
        fast, slow = rs[:third], rs[-third:]
        out[name] = {}
        for metric, seconds in TIMES.items():
            def med(group, scaled):
                return statistics.median(
                    seconds(r) / (run.slowdown(r) if scaled else 1.0)
                    for r in group)
            out[name][metric] = (med(fast, False), med(slow, False),
                                 med(fast, True), med(slow, True))
        out[name]["slowdown"] = (statistics.median(map(run.slowdown, fast)),
                                 statistics.median(map(run.slowdown, slow)),
                                 len(fast))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=25)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--from", dest="source",
                        help="analyse this record instead of running")
    args = parser.parse_args(argv)
    if args.source is None:
        run.preflight()
        record(args.out, args.rounds, args.seed)
    with open(args.source or args.out) as fh:
        runs = [json.loads(line) for line in fh if line.strip()]
    print(f"{'workload':<15} {'metric':<16} {'slowdown fast/slow':>18}  "
          f"{'raw fast':>9} {'raw slow':>9} {'gap':>6}  "
          f"{'scaled fast':>11} {'scaled slow':>11} {'gap':>6}")
    for name, figures in gaps(runs).items():
        cf, cs, n = figures.pop("slowdown")
        for metric, (rf, rs, sf, ss) in figures.items():
            print(f"{name:<15} {metric:<16} {cf:>12.3f}/{cs:.3f}  "
                  f"{rf:>9.4g} {rs:>9.4g} {rs / rf - 1:>+6.2f}  "
                  f"{sf:>11.4g} {ss:>11.4g} {ss / sf - 1:>+6.2f}")
        print(f"{'':<15} ({n} runs in each third)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
