"""Unit tests for the watchdog rules, governor and timed sink."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.health import (
    OBS_LEVELS,
    HealthConfig,
    HealthEvent,
    HealthMonitor,
    HealthSample,
    ObsGovernor,
    TimedSink,
)


def sample(t, executions=0, utils=None, idle=0.0, wan_sends=0,
           retransmits=0, queue_depth=0, wan_in_flight=0):
    return HealthSample(
        t=t, executions=executions,
        utilization=utils if utils is not None else {0: 1.0 - idle},
        idle_fraction=idle, queue_depth=queue_depth,
        wan_in_flight=wan_in_flight, wan_sends=wan_sends,
        retransmits=retransmits)


# -- HealthEvent -----------------------------------------------------------


def test_health_event_round_trip_and_render():
    ev = HealthEvent(t=0.25, severity="warning", rule="unmasking",
                     metric="idle.fraction_ema", value=0.5, threshold=0.33,
                     message="idle too high")
    d = ev.to_dict()
    assert d["rule"] == "unmasking" and d["t"] == 0.25
    assert "WARNING" in ev.render() and "unmasking" in ev.render()


def test_health_config_validation():
    with pytest.raises(ConfigurationError):
        HealthConfig(stall_factor=1.0)
    with pytest.raises(ConfigurationError):
        HealthConfig(storm_rate=0.0)
    with pytest.raises(ConfigurationError):
        HealthConfig(imbalance_ratio=0.5)
    with pytest.raises(ConfigurationError):
        HealthConfig(unmasked_idle_threshold=1.0)


def test_default_unmasking_threshold_matches_knee_tolerance():
    # 1.5x step-time tolerance <=> one third of the step is stall.
    assert HealthConfig().unmasked_idle_threshold == \
        pytest.approx(1.0 - 1.0 / 1.5)


# -- stall rule ------------------------------------------------------------


def test_stall_fires_after_factor_times_median_gap():
    mon = HealthMonitor(HealthConfig(stall_factor=4.0, stall_min_history=3))
    # Regular progress: one execution per 1 s sample.
    events = []
    for i in range(5):
        events += mon.observe(sample(float(i), executions=i))
    assert events == []
    # Now freeze progress; gap median is 1 s, so the rule arms at > 4 s.
    for i in range(5, 9):
        events += mon.observe(sample(float(i), executions=4))
    assert events == []
    events += mon.observe(sample(9.0, executions=4))  # stalled 5 s > 4 s
    assert [e.rule for e in events] == ["stall"]
    assert events[0].severity == "critical"


def test_stall_is_one_event_per_episode():
    mon = HealthMonitor(HealthConfig(stall_factor=4.0, stall_min_history=3))
    for i in range(5):
        mon.observe(sample(float(i), executions=i))
    fired = []
    for i in range(5, 20):
        fired += mon.observe(sample(float(i), executions=4))
    assert len(fired) == 1  # persists, but only the transition fires
    # Recovery, then a second stall -> a second event.
    for i in range(20, 26):
        mon.observe(sample(float(i), executions=i))
    fired2 = []
    for i in range(26, 40):
        fired2 += mon.observe(sample(float(i), executions=25))
    assert len(fired2) == 1


# -- retransmit-storm rule -------------------------------------------------


def test_storm_fires_on_windowed_rate():
    mon = HealthMonitor(HealthConfig(storm_rate=0.5,
                                     storm_min_retransmits=3))
    mon.observe(sample(0.0, wan_sends=10, retransmits=0))
    events = mon.observe(sample(1.0, wan_sends=15, retransmits=4))
    assert [e.rule for e in events] == ["retransmit-storm"]
    assert mon.last_retransmit_rate == pytest.approx(4 / 5)


def test_storm_needs_minimum_retransmits():
    mon = HealthMonitor(HealthConfig(storm_rate=0.5,
                                     storm_min_retransmits=3))
    mon.observe(sample(0.0, wan_sends=10, retransmits=0))
    # Rate 1.0 but only 2 retransmits in the window: noise, no alert.
    events = mon.observe(sample(1.0, wan_sends=12, retransmits=2))
    assert events == []


# -- load-imbalance rule ---------------------------------------------------


def test_imbalance_fires_past_warmup():
    cfg = HealthConfig(imbalance_ratio=2.0, warmup_samples=2)
    mon = HealthMonitor(cfg)
    skew = {0: 0.9, 1: 0.1, 2: 0.1, 3: 0.1}
    events = []
    for i in range(5):
        events += mon.observe(sample(float(i), executions=i, utils=skew))
    assert [e.rule for e in events] == ["load-imbalance"]


def test_imbalance_ignores_idle_system():
    cfg = HealthConfig(imbalance_ratio=2.0, warmup_samples=0,
                       imbalance_min_util=0.05)
    mon = HealthMonitor(cfg)
    near_zero = {0: 0.004, 1: 0.0001}  # huge ratio, tiny mean
    for i in range(5):
        assert mon.observe(sample(float(i), executions=i,
                                  utils=near_zero)) == []


# -- unmasking rule --------------------------------------------------------


def test_unmasking_fires_only_with_wan_traffic():
    cfg = HealthConfig(warmup_samples=1)
    mon = HealthMonitor(cfg)
    for i in range(4):
        assert mon.observe(
            sample(float(i), executions=i, idle=0.9, wan_sends=0)) == []
    events = mon.observe(sample(5.0, executions=5, idle=0.9, wan_sends=1))
    assert [e.rule for e in events] == ["unmasking"]


def test_unmasking_respects_warmup():
    cfg = HealthConfig(warmup_samples=5)
    mon = HealthMonitor(cfg)
    events = []
    for i in range(5):
        events += mon.observe(
            sample(float(i), executions=i, idle=0.9, wan_sends=10))
    assert events == []


# -- governor --------------------------------------------------------------


def fake_clock(start=0.0):
    state = {"t": start}

    def advance(dt):
        state["t"] += dt

    return (lambda: state["t"]), advance


def test_governor_overhead_fraction_with_mocked_clock():
    clock, advance = fake_clock()
    gov = ObsGovernor(budget=None, clock=clock)
    cost = {"s": 0.0}
    gov.add_cost_source("x", lambda: cost["s"])
    advance(10.0)
    cost["s"] = 1.0
    assert gov.overhead_fraction() == pytest.approx(0.1)
    assert gov.overhead_seconds() == 1.0


def test_governor_downgrades_one_level_per_check():
    clock, advance = fake_clock()
    gov = ObsGovernor(budget=0.05, clock=clock)
    cost = {"s": 0.0}
    gov.add_cost_source("x", lambda: cost["s"])
    seen = []
    gov.on_downgrade("sampling", lambda: seen.append("sampling"))
    gov.on_downgrade("counters", lambda: seen.append("counters"))

    advance(10.0)
    assert gov.check(1.0) is None  # under budget
    assert gov.level == "full"

    cost["s"] = 5.0  # 50% overhead
    ev1 = gov.check(2.0)
    assert gov.level == "sampling" and ev1.rule == "obs-governor"
    ev2 = gov.check(3.0)
    assert gov.level == "counters" and ev2 is not None
    assert gov.check(4.0) is None  # already at the floor
    assert seen == ["sampling", "counters"]
    assert [e.t for e in gov.events] == [2.0, 3.0]


def test_governor_no_budget_never_downgrades():
    clock, advance = fake_clock()
    gov = ObsGovernor(budget=None, clock=clock)
    gov.add_cost_source("x", lambda: 100.0)
    advance(1.0)
    assert gov.check(0.0) is None
    assert gov.level == OBS_LEVELS[0]


def test_governor_as_metrics_shape():
    gov = ObsGovernor()
    m = gov.as_metrics()
    assert set(m) == {"obs.overhead_fraction", "obs.overhead_s",
                      "obs.level"}
    assert m["obs.level"] == 0


def test_governor_budget_validation():
    with pytest.raises(ConfigurationError):
        ObsGovernor(budget=0.0)
    with pytest.raises(ConfigurationError):
        ObsGovernor().on_downgrade("turbo", lambda: None)


# -- TimedSink -------------------------------------------------------------


class _NullSink:
    enabled = True

    def __init__(self):
        self.calls = 0

    def begin_execute(self, *a, **kw):
        self.calls += 1

    def end_execute(self, *a, **kw):
        self.calls += 1

    def message_sent(self, *a, **kw):
        self.calls += 1

    def message_delivered(self, *a, **kw):
        self.calls += 1

    def message_dropped(self, *a, **kw):
        self.calls += 1

    def note_retransmit(self):
        self.calls += 1

    def note_dup_suppressed(self, seq):
        self.calls += 1


def test_timed_sink_delegates_and_estimates_cost():
    clock, advance = fake_clock()
    inner = _NullSink()
    # Wrap the clock so each timed window appears to take 1 ms.
    ticks = {"n": 0}

    def stepping_clock():
        ticks["n"] += 1
        advance(0.5e-3)
        return clock()

    sink = TimedSink(inner, stride=4, clock=stepping_clock)
    for _ in range(8):
        sink.note_retransmit()
    assert inner.calls == 8
    # Two timed windows (calls 4 and 8), each measured 0.5 ms and scaled
    # by the stride of 4.
    assert sink.cost_s == pytest.approx(2 * 0.5e-3 * 4)


def test_timed_sink_enabled_tracks_inner():
    inner = _NullSink()
    sink = TimedSink(inner)
    assert sink.enabled
    inner.enabled = False
    assert not sink.enabled


def test_timed_sink_stride_validation():
    with pytest.raises(ConfigurationError):
        TimedSink(_NullSink(), stride=0)
