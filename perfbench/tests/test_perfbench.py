"""Tests of the benchmark itself (not collected by the library's suite).

    python3 -m pytest perfbench/tests -q

Runs every workload twice untraced and twice traced, in fresh child
processes, and asserts that every deterministic count repeats exactly,
that tracing leaves the virtual results alone, that the traced table
shows the workload split the benchmark is built on, and that a wrong
pinned value is caught as a failed run.
"""

import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402
from workloads import WORKLOADS, check, check_reproduced, load_pinned  # noqa: E402

#: Counts a later change may cite: each must repeat exactly run to run.
TRACED_COUNTS = (
    "engine.posts", "engine.cancels", "engine.heap_peak",
    "scheduler.executions", "scheduler.queue_peak", "rts.sends",
    "rts.bundles", "rts.reduction_partials", "fabric.sends",
    "fabric.bytes", "chain.resolves", "app.entry_calls",
    "app.kernel_calls", "app.kernel_cells", "app.kernel_bytes",
)
OUTPUT_COUNTS = ("events", "wan_msgs", "transfers", "retransmits",
                 "acks_sent", "reliable_failures", "ms_per_step")


@pytest.fixture(scope="module")
def runs():
    out = {}
    for name in WORKLOADS:
        out[name] = {
            "plain": [run.spawn(name, 0, False, 170) for _ in range(2)],
            "traced": [run.spawn(name, 0, True, 170) for _ in range(2)],
        }
        for r in out[name]["plain"] + out[name]["traced"]:
            assert "error" not in r, r["error"]
    return out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_exactly(runs, name):
    a, b = runs[name]["traced"]
    for key in OUTPUT_COUNTS:
        assert a[key] == b[key], key
    assert a["layers"]["calls"] == b["layers"]["calls"]
    for key in TRACED_COUNTS:
        assert a["layers"][key] == b["layers"][key], key
    p, q = runs[name]["plain"]
    for key in OUTPUT_COUNTS:
        assert p[key] == q[key], key
    # gc.gen0_per_kevent is read from untraced runs.
    assert p["gen0"] == q["gen0"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_runs_pass_checks_and_tracing_changes_no_result(runs, name):
    pinned = load_pinned()
    for r in runs[name]["plain"] + runs[name]["traced"]:
        assert check(name, 0, r, pinned) == []
    for t in runs[name]["traced"]:
        assert check_reproduced(runs[name]["plain"][0], t) == []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layer_self_times_sum_to_drain(runs, name):
    for r in runs[name]["traced"]:
        total = sum(r["layers"]["self_s"].values())
        assert math.isclose(total, r["drain_s"], rel_tol=1e-9)
        assert min(r["layers"]["self_s"].values()) >= 0.0


def test_traced_table_shows_the_workload_split(runs):
    def self_s(name):
        return runs[name]["traced"][0]["layers"]["self_s"]

    real8 = self_s("stencil-real8")
    assert max(real8, key=real8.get) == "app"
    for name in ("stencil-wan64", "leanmd-lossy8"):
        assert runs[name]["traced"][0]["layers"]["app.kernel_calls"] == 0
    for name in ("stencil-wan64", "stencil-real8"):
        assert self_s(name)["reliable"] == 0.0
    assert self_s("leanmd-lossy8")["reliable"] > 0.0
    assert self_s("leanmd-lossy8")["obs"] == 0.0
    assert runs["leanmd-lossy8"]["traced"][0]["layers"]["calls"]["obs"] == 0
    assert self_s("stencil-wan64")["obs"] > 0.0


def test_wrong_pinned_value_is_caught(runs):
    name = "stencil-real8"
    good = runs[name]["plain"][0]
    pinned = load_pinned()
    for key in ("ms_per_step", "checksum"):
        wrong = {name: {"0": dict(pinned[name]["0"])}}
        value = wrong[name]["0"][key]
        wrong[name]["0"][key] = math.nextafter(value, math.inf)
        assert check(name, 0, good, wrong), key
    wan = runs["stencil-wan64"]["plain"][0]
    wrong = {"stencil-wan64": {"0": dict(pinned["stencil-wan64"]["0"])}}
    wrong["stencil-wan64"]["0"]["wan_msgs"] += 1
    assert check("stencil-wan64", 0, wan, wrong)


def test_wrong_pin_counts_as_failed_run(monkeypatch):
    name = "leanmd-lossy8"
    pinned = load_pinned()
    pinned[name]["0"]["ms_per_step"] *= 1.0 + 1e-12
    monkeypatch.setattr(run, "load_pinned", lambda: pinned)
    rs = run.run_set(name, 0, 0.0, False, log=lambda _line: None)
    assert rs["attempted"] == run.MIN_RUNS
    assert rs["failed"] == rs["attempted"]


def test_crashed_child_counts_as_failed_run(monkeypatch, tmp_path):
    crash = tmp_path / "crash.py"
    crash.write_text("import sys\nsys.exit('library failed to import')\n")
    monkeypatch.setattr(run, "CHILD", str(crash))
    r = run.spawn("stencil-wan64", 0, False, 30)
    assert "library failed to import" in r["error"]
    rs = run.run_set("stencil-wan64", 0, 0.0, False, log=lambda _line: None)
    assert rs["failed"] == rs["attempted"] == run.MIN_RUNS


def test_unpinned_seed_gets_only_the_invariants(runs):
    name = "leanmd-lossy8"
    r = dict(runs[name]["plain"][0], ms_per_step=1.0)
    assert check(name, 12345, r, load_pinned()) == []
    assert check(name, 12345, dict(r, reliable_failures=1), load_pinned())


def test_end_to_end_times_are_scaled_to_reference_speed():
    # A run on a host that runs Python twice as slowly as the reference:
    # raw times halve.
    r = {"workload": "stencil-wan64", "drain_s": 3.2, "setup_s": 0.1,
         "peak_rss_mb": 70.0, "calib_s": 2 * run.CALIB_REF_S,
         "calib_np_s": run.CALIB_NP_REF_S}
    e2e = run.end_to_end({"workload": "stencil-wan64", "plain": [r]})
    assert math.isclose(e2e["host_s_per_step"], 3.2 / 16 / 2)
    assert math.isclose(e2e["setup_s"], 0.05)
    assert e2e["peak_rss_mb"] == 70.0
    # The kernel-bound workload blends in the numpy loop, here at
    # reference speed: the slowdown is the geometric mean, sqrt(2).
    real8 = dict(r, workload="stencil-real8")
    assert math.isclose(run.slowdown(real8), math.sqrt(2.0))
    real8["calib_np_s"] = 2 * run.CALIB_NP_REF_S
    assert math.isclose(run.slowdown(real8), 2.0)
