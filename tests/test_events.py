import dataclasses
import math

import numpy as np
import pytest

from motionbands.config import BandParams, Config, EventsConfig
from motionbands.errors import InvalidParameterError, RejectedInputError
from motionbands.events import ActivityEvent, EventGate, scalar_activity
from motionbands.filters import CascadeFilter
from motionbands.isochron import IsochronalStore
from motionbands.motion import MotionFrame
from motionbands.sim import EventPlan, Scenario, gen_stream

from inputs import moving_blocks, zero_frame


def _band(density):
    d = np.atleast_2d(np.asarray(density, dtype=float))
    return MotionFrame(density=d, dir_hist=np.zeros(d.shape + (8,)))


def _stats(mean, std, days=10):
    return (mean, std, days)


def _gate(**events):
    """A 1 Hz gate built from an ``EventsConfig`` of ``events``."""
    return EventGate("cam0", EventsConfig(**events), 1.0)


class TestGateDecision:
    def test_zero_bands_zero_stats(self):
        gate = _gate(k_sigma=1.0, min_days=0)
        decision, _ = gate.step(_band([[0.0]]), _band([[0.0]]), _stats(0.0, 0.0), 0)
        assert decision == 0

    def test_threshold_arithmetic(self):
        # a = 5, mean 1, std 1, k=2 -> 5 > 3 fires.
        gate = _gate(k_sigma=2.0, min_days=0)
        decision, _ = gate.step(_band([[5.0]]), _band([[0.0]]), _stats(1.0, 1.0), 0)
        assert decision == 1
        gate2 = _gate(k_sigma=5.0, min_days=0)
        decision, _ = gate2.step(_band([[5.0]]), _band([[0.0]]), _stats(1.0, 1.0), 0)
        assert decision == 0

    def test_scalar_activity_is_blockwise_max_mean(self):
        s1 = _band([[1.0, 0.0], [3.0, 0.0]])
        s2 = _band([[0.0, 2.0], [1.0, 0.0]])
        assert scalar_activity(s1, s2) == pytest.approx((1 + 2 + 3 + 0) / 4)

    def test_grid_mismatch_rejected(self):
        gate = _gate()
        with pytest.raises(RejectedInputError):
            gate.step(_band([[1.0]]), _band([[1.0, 2.0]]), _stats(0, 0), 0)

    def test_cold_start_uses_floor(self):
        gate = _gate(k_sigma=2.0, min_threshold=0.5, min_days=3)
        # Learned stats say "fire", but with 1 day observed the floor rules.
        decision, _ = gate.step(_band([[0.4]]), _band([[0.0]]), _stats(0.0, 0.0, days=1), 0)
        assert decision == 0
        decision, _ = gate.step(_band([[0.6]]), _band([[0.0]]), _stats(0.0, 0.0, days=1), 1000)
        assert decision == 1

    def test_trigger_band_labels(self):
        gate = _gate(min_days=0)
        gate.step(_band([[5.0]]), _band([[1.0]]), _stats(0, 0), 0)
        assert gate.flush().band == "in-place"
        gate = _gate(min_days=0)
        gate.step(_band([[1.0]]), _band([[5.0]]), _stats(0, 0), 0)
        assert gate.flush().band == "moving"
        gate = _gate(min_days=0)
        gate.step(_band([[2.0]]), _band([[2.0]]), _stats(0, 0), 0)
        assert gate.flush().band == "both"


    def test_event_keeps_its_threshold(self):
        gate = _gate(k_sigma=2.5, min_days=0)
        gate.step(_band([[5.0]]), _band([[1.0]]), _stats(0.25, 0.5), 2000)
        assert gate.flush() == ActivityEvent(
            camera_id="cam0",
            start_ms=2000,
            end_ms=3000,
            peak=5.0,
            band="in-place",
            threshold_mean=0.25,
            threshold_std=0.5,
            k_sigma=2.5,
        )


class TestHysteresis:
    def test_event_spans_gap_shorter_than_cooldown(self):
        gate = _gate(cooldown_s=3.0, min_days=0, min_threshold=0.5)
        hot, cold = _band([[1.0]]), _band([[0.0]])
        closed = []
        pattern = [1, 1, 0, 0, 1, 1, 0, 0, 0, 0]
        for i, on in enumerate(pattern):
            _, c = gate.step(hot if on else cold, cold, _stats(0, 0, 0), i * 1000)
            if c:
                closed.append(c)
        assert len(closed) == 1
        ev = closed[0]
        assert ev.start_ms == 0
        assert ev.end_ms == 6000  # last firing tick (t=5s) plus its 1 s span
        assert ev.peak == pytest.approx(1.0)

    def test_events_split_when_gap_reaches_cooldown(self):
        gate = _gate(cooldown_s=2.0, min_days=0, min_threshold=0.5)
        hot, cold = _band([[1.0]]), _band([[0.0]])
        closed = []
        for i, on in enumerate([1, 0, 0, 1, 0, 0]):
            _, c = gate.step(hot if on else cold, cold, _stats(0, 0, 0), i * 1000)
            if c:
                closed.append(c)
        assert len(closed) == 2

    def test_flush_closes_open_event(self):
        gate = _gate(min_days=0, min_threshold=0.5)
        gate.step(_band([[1.0]]), _band([[0.0]]), _stats(0, 0, 0), 5000)
        ev = gate.flush()
        assert ev is not None and ev.start_ms == 5000 and ev.end_ms == 6000
        assert gate.flush() is None


import functools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from motionbands.filters import BandOutputs
from motionbands.isochron import minute_of_day
from motionbands.pipeline import CameraPipeline


@dataclass
class GateReport:
    """Outcome of running the gate over a band stream."""

    events: list[ActivityEvent]
    detector_invocations: int
    frames_processed: int
    decisions: int = 0
    detections: list[int] = field(default_factory=list)  # t_ms of each detector request


def _reference_gate_pipeline(
    band_stream: Iterable[BandOutputs] | Iterator[BandOutputs],
    store: IsochronalStore,
    k_sigma: float = 2.0,
    cooldown_s: float = 3.0,
    min_threshold: float = 0.02,
    min_days: int = 3,
    decision_rate_hz: float = 1.0,
    reinvoke_every_s: float = 0.0,
) -> GateReport:
    """The second gating loop that ``CameraPipeline`` replaced, kept as the
    oracle of its detector policy.

    The detector runs once per event onset; ``reinvoke_every_s`` > 0 adds
    periodic re-invocation while an event stays open (off by default).
    """
    gate = EventGate(
        store.camera_id,
        EventsConfig(
            k_sigma=k_sigma, cooldown_s=cooldown_s, min_threshold=min_threshold, min_days=min_days
        ),
        decision_rate_hz,
    )
    events: list[ActivityEvent] = []
    detections: list[int] = []
    invocations = 0
    frames = 0
    decisions = 0
    in_event = False
    last_invoke_ms = 0

    for bands in band_stream:
        t = bands.timestamp_ms
        stats = store.scalar_stats(minute_of_day(t))
        decision, closed = gate.step(bands.m_s1, bands.m_s2, stats, t)
        frames += 1
        decisions += decision
        if closed is not None:
            events.append(closed)
            in_event = False
        if decision:
            invoke = False
            if not in_event:
                in_event = True
                invoke = True
            elif reinvoke_every_s > 0 and t - last_invoke_ms >= reinvoke_every_s * 1000.0:
                invoke = True
            if invoke:
                detections.append(t)
                invocations += 1
                last_invoke_ms = t

    tail = gate.flush()
    if tail is not None:
        events.append(tail)
    return GateReport(
        events=events,
        detector_invocations=invocations,
        frames_processed=frames,
        decisions=decisions,
        detections=detections,
    )


_ONE_HZ = BandParams(frame_rate=1.0, shortterm_rate=1.0)


def _run_pipeline(frames, gw, gh, **events) -> GateReport:
    """Drive ``CameraPipeline`` at 1 Hz, one decision per frame, and note
    when the pipeline asks for the detector."""
    config = Config(filter=_ONE_HZ, events=EventsConfig(**events))
    pipe = CameraPipeline("cam0", gw, gh, config)
    detections = []
    decisions = 0
    for frame in frames:
        result = pipe.ingest(frame)
        decisions += result.decision
        if result.invoke_detector:
            detections.append(frame.timestamp_ms)
    pipe.finish()
    return GateReport(
        events=pipe.events,
        detector_invocations=pipe.detector_invocations,
        frames_processed=pipe.frames_ingested,
        decisions=decisions,
        detections=detections,
    )


def _run_reference(frames, gw, gh, **events) -> GateReport:
    cascade = CascadeFilter(gw, gh, _ONE_HZ)
    store = IsochronalStore("cam0", gw, gh)  # fresh: cold-start floor applies
    return _reference_gate_pipeline(
        (cascade.step(f) for f in frames), store, **events
    )


@functools.lru_cache(maxsize=None)
def _event_day():
    """A quiet 10 h day at 1 Hz with ~300 planted events."""
    scenario = Scenario(
        grid_w=16,
        grid_h=12,
        day_hours=10.0,
        rate_hz=1.0,
        events=EventPlan(
            mean_per_day=300, duration_s=10.0, amplitude=1.0, width_blocks=4, min_gap_s=15.0
        ),
        noise_sigma=0.002,
        seed=19,
    )
    frames, truth = gen_stream(scenario, days=1)
    return tuple(frames), truth


@functools.lru_cache(maxsize=None)
def _run_event_day(k_sigma=2.0, cooldown_s=3.0, min_threshold=0.016, reinvoke=0.0):
    """Shared fixture: the planted day through the pipeline. It sees one
    day, fewer than ``min_days``, so the cold-start floor decides."""
    frames, truth = _event_day()
    report = _run_pipeline(
        frames,
        16,
        12,
        k_sigma=k_sigma,
        cooldown_s=cooldown_s,
        min_threshold=min_threshold,
        reinvoke_every_s=reinvoke,
    )
    return report, truth


def _quiet_frames():
    return [zero_frame(4, 3, i * 1000) for i in range(600)]


def _continuous_frames():
    hot = np.full((2, 2), 2.0)
    return [
        MotionFrame(density=hot, dir_hist=np.zeros((2, 2, 8)), timestamp_ms=i * 1000)
        for i in range(1800)
    ]


class TestGatePipeline:
    def test_zero_activity_day_invokes_nothing(self):
        report = _run_pipeline(_quiet_frames(), 4, 3, min_threshold=0.01)
        assert report.detector_invocations == 0
        assert report.events == []
        assert report.frames_processed == 600

    def test_planted_day_recall_count_and_duty(self):
        report, truth = _run_event_day()
        planted = truth.event_intervals_ms()
        assert len(planted) == 299

        # Recall: a planted event is found if a gated event overlaps it.
        found = 0
        for start, end in planted:
            if any(e.start_ms < end and (e.end_ms or end) > start for e in report.events):
                found += 1
        assert found / len(planted) >= 0.95

        assert abs(len(report.events) - 300) <= 30
        assert abs(report.detector_invocations - 300) <= 30

        # Share of the 10 h day that the events cover.
        duty = sum(e.end_ms - e.start_ms for e in report.events) / (10 * 3600 * 1000)
        assert duty == pytest.approx(0.083, abs=0.005)

    def test_detector_sees_planted_blocks(self):
        report, truth = _run_event_day()
        assert not truth.scenario.walkers and not truth.scenario.dwellers
        # Each onset request falls while a planted front is on the grid.
        assert report.detections
        assert all(moving_blocks(truth, t / 1000) for t in report.detections)

    def test_gate_monotone_in_k_sigma(self):
        # With a learned-stats day the k matters; here the floor dominates,
        # so raising the floor must not increase invocations either.
        lo, _ = _run_event_day(min_threshold=0.016)
        hi, _ = _run_event_day(min_threshold=0.05)
        assert hi.detector_invocations <= lo.detector_invocations
        assert hi.decisions <= lo.decisions

    def test_invocations_bounded_by_events_and_frames(self):
        report, _ = _run_event_day()
        assert report.detector_invocations <= len(report.events) + 1
        assert len(report.events) <= report.frames_processed

    def test_continuous_activity_is_one_event(self):
        report = _run_pipeline(_continuous_frames(), 2, 2, min_threshold=0.01)
        assert report.detector_invocations == 1
        assert len(report.events) == 1
        duty = sum(e.end_ms - e.start_ms for e in report.events) / (0.5 * 3600 * 1000)
        assert duty == pytest.approx(1.0, abs=0.01)

    def test_reinvocation_during_long_events(self):
        base, _ = _run_event_day(reinvoke=0.0)
        again, _ = _run_event_day(reinvoke=4.0)
        # 10 s events re-invoked every 4 s: roughly double the invocations.
        assert again.detector_invocations > 1.5 * base.detector_invocations


@pytest.mark.parametrize("name", ["planted", "planted-reinvoke-4", "quiet", "continuous"])
def test_pipeline_policy_matches_the_reference_loop(name):
    if name.startswith("planted"):
        reinvoke = 4.0 if name.endswith("4") else 0.0
        got, _ = _run_event_day(reinvoke=reinvoke)
        frames, gw, gh = _event_day()[0], 16, 12
        events = {"min_threshold": 0.016, "reinvoke_every_s": reinvoke}
    else:
        quiet = name == "quiet"
        frames, gw, gh = (_quiet_frames(), 4, 3) if quiet else (_continuous_frames(), 2, 2)
        events = {"min_threshold": 0.01}
        got = _run_pipeline(frames, gw, gh, **events)
    want = _run_reference(frames, gw, gh, **events)

    def summary(e):
        return (e.start_ms, e.end_ms, e.peak, e.band)

    assert [summary(e) for e in got.events] == [summary(e) for e in want.events]
    assert got.detections == want.detections
    assert got.detector_invocations == want.detector_invocations
    assert got.decisions == want.decisions
    assert got.frames_processed == want.frames_processed == len(frames)
    if name.startswith("planted"):
        assert len(want.events) > 250 and want.detector_invocations > 250


@pytest.mark.parametrize(
    "name, value",
    [
        ("k_sigma", math.nan),
        ("k_sigma", math.inf),
        ("min_threshold", math.nan),
        ("cooldown_s", math.nan),
        ("decision_rate_hz", math.nan),
    ],
)
def test_gate_rejects_non_finite_parameters(name, value):
    # The gate's settings reach it only through an EventsConfig, which
    # checks them when built; the decision rate the gate checks itself.
    with pytest.raises(InvalidParameterError, match=name):
        if name == "decision_rate_hz":
            EventGate("cam0", EventsConfig(), value)
        else:
            _gate(**{name: value})


@pytest.mark.parametrize(
    "value", [math.nan, 2.5, 3.0, -1, "3"], ids=["nan", "fraction", "float", "negative", "string"]
)
def test_gate_rejects_a_day_count_that_is_not_a_whole_number(value):
    # A NaN day count was accepted, and then the cold-start floor never
    # applied: threshold(0, 0, 0) gave 0.0 in place of the 0.02 floor.
    with pytest.raises(InvalidParameterError, match="min_days"):
        _gate(min_days=value)
    assert _gate(min_days=np.int64(3)).threshold(0.0, 0.0, 0) == 0.02


def test_gate_rejects_a_negative_threshold_floor():
    # While the store is cold the floor decides alone, and a negative one
    # fires on an all-zero band.
    with pytest.raises(InvalidParameterError, match="min_threshold"):
        _gate(min_threshold=-0.01)


@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
def test_pipeline_rejects_a_bad_reinvocation_period(value):
    # The pipeline does not check the period again: no EventsConfig is
    # built with a bad one, and none can be given one afterwards.
    with pytest.raises(InvalidParameterError, match="reinvoke_every_s"):
        CameraPipeline("cam0", 4, 3, Config(events=EventsConfig(reinvoke_every_s=value)))
    config = Config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.events.reinvoke_every_s = value
