import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from motionbands.config import BandParams, Config, EventsConfig
from motionbands.errors import InvalidParameterError, RejectedInputError
from motionbands.events import scalar_activity
from motionbands.isochron import MINUTES_PER_DAY, IsochronalStore, minute_of_day
from motionbands.motion import MotionFrame, extract_motion
from motionbands.pipeline import CameraPipeline, _MinuteAccumulator
from motionbands.sim import Dweller, EventPlan, Scenario, Walker, gen_stream

from inputs import V3Store, blob_frames, zero_frame


def test_blob_pixels_flow_through_pipeline_into_store():
    # A blob crossing the frame over two seconds that straddle the
    # boundary between minutes 9 and 10.
    start_ms = 10 * 60_000 - 1_000
    frames = [
        dataclasses.replace(f, timestamp_ms=start_ms + f.timestamp_ms)
        for f in blob_frames(96, 64, 60, radius=8.0, speed_px=1.0)
    ]
    config = Config()
    block, floor = config.motion.block_size, config.motion.noise_floor
    pipe = None
    minutes = set()
    crossed = 0
    for prev, curr in zip(frames, frames[1:]):
        motion = extract_motion(prev, curr, block, floor)
        if pipe is None:
            pipe = CameraPipeline("cam0", motion.grid_w, motion.grid_h, config)
        result = pipe.ingest(motion)
        minutes.add(minute_of_day(curr.timestamp_ms))

        assert np.isfinite(result.activity)
        for band in (result.bands.m_l1, result.bands.m_s1, result.bands.m_s2):
            assert np.all(np.isfinite(band.density)) and np.all(np.isfinite(band.dir_hist))
        # The noise-free band is non-zero exactly on the blocks the blob crossed.
        moved = motion.density > 0
        crossed += int(moved.sum())
        assert np.all(result.bands.m_l1.density[moved] > 0)
        assert np.all(result.bands.m_l1.density[~moved] == 0)

    assert crossed > 0
    assert minutes == {9, 10}
    pipe.finish()
    days = [pipe.store.query(m)[2] for m in range(MINUTES_PER_DAY)]
    assert [m for m, d in enumerate(days) if d] == [9, 10]
    assert days[9] == days[10] == 1


def _noise_frames(n, grid=(5, 4), start_ms=600 * 60_000, seed=3):
    gw, gh = grid
    rng = np.random.default_rng(seed)
    return [
        MotionFrame(
            density=rng.uniform(0, 1, (gh, gw)) * (rng.random((gh, gw)) < 0.4),
            dir_hist=rng.uniform(0, 1, (gh, gw, 8)),
            timestamp_ms=start_ms + i * 33,
        )
        for i in range(n)
    ]


def test_rejected_frame_is_counted_and_leaves_the_pipeline_unchanged():
    frames = _noise_frames(100)
    bad = MotionFrame(frames[40].density.copy(), frames[40].dir_hist.copy(), frames[40].timestamp_ms)
    bad.dir_hist[1, 2, 3] = np.nan
    config = Config()
    pipe = CameraPipeline("cam0", 5, 4, config)
    clean = CameraPipeline("cam0", 5, 4, config)
    for i, frame in enumerate(frames):
        if i == 40:
            with pytest.raises(RejectedInputError):
                pipe.ingest(bad)
        got, want = pipe.ingest(frame), clean.ingest(frame)
        assert (got.decision, got.activity) == (want.decision, want.activity)
        for a, b in zip(
            (got.bands.m_l1, got.bands.m_s1, got.bands.m_s2),
            (want.bands.m_l1, want.bands.m_s1, want.bands.m_s2),
        ):
            np.testing.assert_array_equal(a.density, b.density)
            np.testing.assert_array_equal(a.dir_hist, b.dir_hist)
    assert (pipe.frames_rejected, pipe.frames_ingested) == (1, 100)
    assert clean.frames_rejected == 0
    pipe.finish()
    clean.finish()
    assert pipe.store.equals(clean.store)


def test_rejected_frame_across_a_minute_boundary_flushes_nothing():
    frames = _noise_frames(40)
    pipe = CameraPipeline("cam0", 5, 4, Config())
    for frame in frames:
        pipe.ingest(frame)
    late = zero_frame(5, 4, timestamp_ms=frames[-1].timestamp_ms + 60_000)
    late.density[0, 0] = -1.0
    with pytest.raises(RejectedInputError):
        pipe.ingest(late)
    assert pipe.frames_rejected == 1
    assert pipe.store.query(minute_of_day(frames[0].timestamp_ms))[2] == 0


@pytest.mark.parametrize("grid", [(4, 3), (5, 4), (3, 5)], ids=["narrower", "taller", "transposed"])
def test_store_on_another_grid_rejected_at_construction(grid):
    # Accepted, such a store failed every minute flush after the cascade
    # had stepped: frames at 59, 60 and 61 s each raised from the store.
    with pytest.raises(InvalidParameterError, match="store grid"):
        CameraPipeline("cam0", 5, 3, Config(), store=IsochronalStore("cam0", *grid))
    pipe = CameraPipeline("cam0", 5, 3, Config(), store=IsochronalStore("cam0", 5, 3))
    for t in (59_000, 60_000, 61_000):
        pipe.ingest(zero_frame(5, 3, timestamp_ms=t))
    assert pipe.store.query(0)[2] == 1


def test_store_with_another_decay_span_rejected_at_construction():
    # Accepted, the store's span decided how the pipeline learned, and
    # config.filter.t_l2_days was silently ignored.
    with pytest.raises(InvalidParameterError, match="decay span 2.0 days"):
        CameraPipeline("cam0", 5, 3, Config(), store=IsochronalStore("cam0", 5, 3, t_l2_days=2.0))
    config = Config(filter=BandParams(t_l2_days=2.0))
    pipe = CameraPipeline("cam0", 5, 3, config, store=IsochronalStore("cam0", 5, 3, t_l2_days=2.0))
    assert pipe.store.t_l2_days == CameraPipeline("cam0", 5, 3, config).store.t_l2_days == 2.0


@pytest.mark.parametrize("camera_id", ["camA", 7], ids=["other", "not a str"])
def test_store_of_another_camera_rejected_at_construction(camera_id):
    # Accepted, the gate labelled events with the pipeline's id while the
    # store learned and saved under its own.
    with pytest.raises(InvalidParameterError, match=f"'camB' do not match .* {camera_id!r}$"):
        CameraPipeline(camera_id, 5, 4, Config(), store=IsochronalStore("camB", 5, 4))
    pipe = CameraPipeline("camB", 5, 4, Config(), store=IsochronalStore("camB", 5, 4))
    assert pipe.gate.camera_id == pipe.store.camera_id == "camB"


def test_activity_is_the_value_the_gate_tested():
    pipe = CameraPipeline("cam0", 5, 4, Config())
    tested = None
    for frame in _noise_frames(200):
        result = pipe.ingest(frame)
        if pipe.frames_ingested % pipe.params.stride == 0:
            tested = scalar_activity(result.bands.m_s1, result.bands.m_s2)
            assert result.activity == pipe.gate.last_activity
        if tested is None:
            assert result.activity == 0.0
        else:
            assert result.activity == tested
    assert tested is not None and tested > 0


def test_late_and_duplicate_timestamps_rejected_before_any_change():
    frame = _noise_frames(1)[0]
    pipe = CameraPipeline("cam0", 5, 4, Config())
    clean = CameraPipeline("cam0", 5, 4, Config())
    for t, late in ((0, False), (60_000, False), (0, True), (60_000, True), (0, True)):
        f = dataclasses.replace(frame, timestamp_ms=t)
        if late:
            with pytest.raises(RejectedInputError, match="not after the last accepted"):
                pipe.ingest(f)
        else:
            got, want = pipe.ingest(f), clean.ingest(f)
            np.testing.assert_array_equal(got.bands.m_l1.density, want.bands.m_l1.density)
    after = dataclasses.replace(frame, timestamp_ms=60_033)
    np.testing.assert_array_equal(
        pipe.ingest(after).bands.m_l1.density, clean.ingest(after).bands.m_l1.density
    )
    pipe.finish()
    clean.finish()
    assert pipe.store.query(0)[2] == pipe.store.query(1)[2] == 1
    assert (pipe.frames_late, pipe.frames_rejected, pipe.frames_ingested) == (3, 0, 3)
    assert pipe.store.equals(clean.store)



def _frame_at(t, seed=3):
    return dataclasses.replace(_noise_frames(1, seed=seed)[0], timestamp_ms=t)


def test_frames_after_finish_in_a_flushed_minute_store_no_second_sample():
    pipe = CameraPipeline("cam0", 5, 4, Config())
    pipe.ingest(_frame_at(0))
    pipe.finish()
    result = pipe.ingest(_frame_at(1_000))
    pipe.finish()
    assert pipe.store.query(0)[2] == 1
    # The frame still went through the cascade.
    assert pipe.frames_ingested == 2 and result.bands.m_l1.timestamp_ms == 1_000
    pipe.ingest(_frame_at(60_000))
    pipe.finish()
    assert pipe.store.query(0)[2] == 1
    assert pipe.store.query(1)[2] == 1
    assert pipe.samples_skipped == 1


def _run(pipe, times):
    for t in times:
        pipe.ingest(_frame_at(t))
    pipe.finish()
    return pipe


_RESTART_TIMES = [600 * 60_000 + 500 * i for i in range(3 * 120 + 1)]  # minutes 600-603, 2 Hz


@pytest.mark.parametrize(
    "last, replay, skipped",
    [
        (60, False, 1),  # mid-minute: the last frame before the restart is 30 s into minute 600
        (120, False, 1),  # at a boundary: the last frame is minute 601's first, at its 0 s
        (119, False, 0),  # the last frame is minute 600's last
        (180, True, 1),  # mid-minute, and the feed resends minute 601 from its start
        (240, True, 1),  # at minute 602's first frame, and the feed resends it
    ],
)
def test_a_restarted_pipeline_stores_each_minute_once(tmp_path, last, replay, skipped):
    # The first run ends with ``finish`` after frame ``last``, and a second
    # run on the saved store takes the feed from there, or from the start of
    # that frame's minute if the feed resends it.
    uninterrupted = _run(CameraPipeline("cam0", 5, 4, Config()), _RESTART_TIMES)
    first = _run(CameraPipeline("cam0", 5, 4, Config()), _RESTART_TIMES[: last + 1])
    first.store.save(tmp_path / "cam0.iso")
    end = _RESTART_TIMES[last]
    resume = end // 60_000 * 60_000 if replay else end + 1
    second = CameraPipeline("cam0", 5, 4, Config(), store=IsochronalStore.load(tmp_path / "cam0.iso"))
    _run(second, [t for t in _RESTART_TIMES if t >= resume])
    days = [second.store.query(m)[2] for m in range(MINUTES_PER_DAY)]
    assert days == [uninterrupted.store.query(m)[2] for m in range(MINUTES_PER_DAY)]
    assert [m for m, d in enumerate(days) if d] == [600, 601, 602, 603]
    assert second.samples_skipped == skipped


def test_a_replayed_day_stores_nothing():
    day_ms = MINUTES_PER_DAY * 60_000
    times = [day_ms + 1_000 * i for i in range(3 * 60)]
    pipe = _run(CameraPipeline("cam0", 5, 4, Config()), times)
    stored = IsochronalStore("cam0", 5, 4)
    stored._slots[...] = pipe.store._slots
    replay = _run(CameraPipeline("cam0", 5, 4, Config(), store=pipe.store), times)
    assert replay.samples_skipped == 3
    assert replay.store.equals(stored)
    _run(replay, [t + day_ms for t in times])
    assert [replay.store.query(m)[2] for m in (0, 1, 2, 3)] == [2, 2, 2, 0]


def test_a_frame_outside_the_days_a_store_can_date_is_rejected():
    # A store dates its samples by day since the epoch, from 0 to 2**31 - 1.
    # Accepted, such a frame made every later minute flush raise.
    end_ms = 2**31 * _DAY_MS
    pipe = CameraPipeline("cam0", 5, 4, Config())
    for t in (-1, -60_000, end_ms, end_ms + 60_000):
        with pytest.raises(RejectedInputError, match=f"frame at {t} ms is not within days 0 to 2147483647"):
            pipe.ingest(_frame_at(t))
    assert (pipe.frames_rejected, pipe.frames_late, pipe.frames_ingested) == (4, 0, 0)
    pipe.ingest(_frame_at(0))
    with pytest.raises(RejectedInputError, match="not after the last accepted frame at 0 ms"):
        pipe.ingest(_frame_at(0))
    assert (pipe.frames_rejected, pipe.frames_late, pipe.frames_ingested) == (4, 1, 1)
    _run(pipe, [end_ms - 60_001, end_ms - 1])
    assert pipe.store.query(MINUTES_PER_DAY - 2)[2] == pipe.store.query(MINUTES_PER_DAY - 1)[2] == 1
    assert pipe.store._last_day[MINUTES_PER_DAY - 1] == 2**31 - 1


def _cascade_state(pipe):
    """Copies of every state the cascade and the minute accumulator keep."""
    c, acc = pipe.cascade, pipe._acc
    return (
        [a.copy() for a in (c._lp_l1, c._acc, c._lp_s1, c._fir)],
        (c._acc_n, c._fir_n),
        None if acc is None else (acc.minute, acc.density.copy(), acc.count),
    )


def _assert_same_state(got, want):
    (arrays, counts, acc), (want_arrays, want_counts, want_acc) = got, want
    for a, b in zip(arrays, want_arrays):
        np.testing.assert_array_equal(a, b)
    assert counts == want_counts
    assert (acc is None) == (want_acc is None)
    if acc is not None:
        assert (acc[0], acc[2]) == (want_acc[0], want_acc[2])
        np.testing.assert_array_equal(acc[1], want_acc[1])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("big", [65504.5, 1e39, 1e308], ids=repr)
@pytest.mark.parametrize("where", ["density", "dir_hist"])
def test_a_value_the_store_cannot_hold_is_refused_at_the_door(big, where):
    # Every density and bin must fit a store record, at most 65504. The
    # cascade took such frames: the second of two 1e308 frames overflowed
    # inside it, and under -W error its RuntimeWarning escaped ingest with
    # the frame counted nowhere.
    frames = _noise_frames(120, start_ms=600 * 60_000 - 2_000)  # minutes 599 and 600
    pipe, clean = CameraPipeline("cam0", 5, 4, Config()), CameraPipeline("cam0", 5, 4, Config())
    rejected = 0
    for i, frame in enumerate(frames):
        if i in (30, 31, 90):
            bad = dataclasses.replace(frame, density=frame.density.copy(), dir_hist=frame.dir_hist.copy())
            getattr(bad, where)[1, 2] = big
            state, store = _cascade_state(pipe), pipe.store._slots.copy()
            for _ in range(2):
                with pytest.raises(RejectedInputError, match="or one above 65504$"):
                    pipe.ingest(bad)
                rejected += 1
            _assert_same_state(_cascade_state(pipe), state)
            assert pipe.store._slots.tobytes() == store.tobytes()
        got, want = pipe.ingest(frame), clean.ingest(frame)
        assert (got.decision, got.activity) == (want.decision, want.activity)
        for band in ("m_l1", "m_s1", "m_s2"):
            np.testing.assert_array_equal(getattr(got.bands, band).density, getattr(want.bands, band).density)
    assert (pipe.frames_rejected, pipe.frames_ingested, pipe.samples_skipped) == (rejected, 120, 0)
    pipe.finish()
    clean.finish()
    assert pipe.store.equals(clean.store)


@pytest.mark.filterwarnings("error")
def test_the_largest_density_a_record_holds_is_learned(tmp_path):
    # A frame at exactly 65504 passes the door, and a minute of such frames
    # stores a mean of 65504, which saves and loads as it is.
    pipe = CameraPipeline("cam0", 5, 4, Config())
    top = np.full((4, 5), 65504.0)
    for t in range(0, 60_000, 1_000):
        pipe.ingest(MotionFrame(top, np.full((4, 5, 8), 65504.0), t))
    pipe.finish()
    assert (pipe.frames_rejected, pipe.frames_ingested, pipe.samples_skipped) == (0, 60, 0)
    mean, std, days = pipe.store.query(0)
    assert days == 1 and 0.0 < mean.density.min() <= mean.density.max() <= 65504.0
    assert np.all(np.isfinite(std))
    pipe.store.save(tmp_path / "cam0.iso")
    assert IsochronalStore.load(tmp_path / "cam0.iso").equals(pipe.store)


@pytest.mark.filterwarnings("error")
def test_a_frame_the_store_cannot_hold_is_refused_and_the_store_stays_empty(tmp_path):
    # A finite density above 65504 gives minute means the store's float16
    # records cannot hold. Such frames once passed the cascade, and the
    # store skipped their minutes at each flush; now the cascade refuses
    # each frame, and the store stays empty and round-trips as such.
    pipe = CameraPipeline("cam0", 5, 4, Config())
    huge = dataclasses.replace(_frame_at(0), density=np.full((4, 5), 1e39))
    for t in (0, 60_000, 61_000):
        with pytest.raises(RejectedInputError, match=f"frame at {t} ms has a non-finite or negative"):
            pipe.ingest(dataclasses.replace(huge, timestamp_ms=t))
    pipe.finish()
    assert (pipe.samples_skipped, pipe.frames_ingested, pipe.frames_rejected) == (0, 0, 3)
    assert pipe.store.equals(IsochronalStore("cam0", 5, 4))
    pipe.store.save(tmp_path / "cam0.iso")
    assert IsochronalStore.load(tmp_path / "cam0.iso").equals(pipe.store)


@pytest.mark.parametrize(
    "stamp", [1000.5, 1000.0, np.float64(1000.0), True, np.bool_(True), "1000"], ids=repr
)
def test_a_stamp_that_is_not_an_integer_is_refused_before_any_change(stamp):
    # Float stamps ran until the first decision tick, whose minute of day
    # was a float that scalar_stats refused, after the cascade and the
    # minute accumulator had taken the frame; True was taken as 1 ms.
    pipe = CameraPipeline("cam0", 5, 4, Config())
    pipe.ingest(_frame_at(500))
    state = _cascade_state(pipe)
    with pytest.raises(RejectedInputError, match="is not an integer number of ms"):
        pipe.ingest(dataclasses.replace(_frame_at(0), timestamp_ms=stamp))
    _assert_same_state(_cascade_state(pipe), state)
    assert (pipe.frames_rejected, pipe.frames_late, pipe.frames_ingested) == (1, 0, 1)


@pytest.mark.parametrize("kind", [np.int64, np.uint32, np.int32])
def test_numpy_integer_stamps_are_taken(kind):
    pipe, plain = CameraPipeline("cam0", 5, 4, Config()), CameraPipeline("cam0", 5, 4, Config())
    frames = _noise_frames(90, start_ms=59_000)
    for frame in frames:
        got = pipe.ingest(dataclasses.replace(frame, timestamp_ms=kind(frame.timestamp_ms)))
        want = plain.ingest(frame)
        assert (got.decision, got.activity) == (want.decision, want.activity)
    pipe.finish()
    plain.finish()
    assert pipe.frames_ingested == 90 and pipe.store.equals(plain.store)


# A 3-minute day at 2 Hz with a looping walker, a dweller, planted events
# and stream noise, replayed for 6 days with a 2-day learning floor: from
# day 2 on the learned mean and std set the gate's threshold.
_ORACLE_SCENARIO = Scenario(
    grid_w=12,
    grid_h=8,
    day_hours=0.05,
    rate_hz=2.0,
    walkers=(Walker(path=tuple((x, 2) for x in range(10)), speed_bps=1.0, amplitude=0.5, loop=True),),
    dwellers=(Dweller(block=(9, 6), start_s=30.0, duration_s=60.0, amplitude=0.5),),
    events=EventPlan(mean_per_day=4.0, duration_s=8.0, amplitude=1.0, width_blocks=3, min_gap_s=15.0),
    noise_sigma=0.02,
    seed=23,
)
_ORACLE_CONFIG = Config(
    filter=BandParams(t_l1_s=60.0, t_s1_s=4.0, t_s2_s=2.0, frame_rate=2.0, shortterm_rate=1.0),
    events=EventsConfig(cooldown_s=2.0, min_days=2),
)


def test_the_float16_store_decides_as_the_float32_oracle_did():
    days = 6
    frames, _ = gen_stream(_ORACLE_SCENARIO, days=days)
    gw, gh = _ORACLE_SCENARIO.grid_w, _ORACLE_SCENARIO.grid_h
    oracle = V3Store(gw, gh, _ORACLE_CONFIG.filter.t_l2_days)
    pipes = [CameraPipeline("cam0", gw, gh, _ORACLE_CONFIG), CameraPipeline("cam0", gw, gh, _ORACLE_CONFIG, oracle)]
    decisions = ([], [])
    learned = 0
    for frame in frames:
        for pipe, out in zip(pipes, decisions):
            result = pipe.ingest(frame)
            out.append((result.decision, result.invoke_detector))
        learned += pipes[0].store.scalar_stats(minute_of_day(frame.timestamp_ms))[2] >= 2
    for pipe in pipes:
        pipe.finish()
    assert decisions[0] == decisions[1]
    assert pipes[0].detector_invocations == pipes[1].detector_invocations > 0
    assert pipes[0].samples_skipped == pipes[1].samples_skipped == 0
    assert [pipes[0].store.query(m)[2] for m in range(4)] == [days, days, days, 0]
    # Decisions on learned days, with events among them.
    assert learned > len(decisions[0]) / 2
    assert any(e.start_ms >= 2 * _DAY_MS for e in pipes[0].events)
    # The events match but for their threshold, whose mean and std the
    # float16 store holds within float16's rounding of the oracle's.
    got, want = ([dataclasses.astuple(e) for e in pipe.events] for pipe in pipes)
    assert [e[:5] + e[7:] for e in got] == [e[:5] + e[7:] for e in want] and len(got) > 0
    for g, w in zip(got, want):
        assert g[5] == pytest.approx(w[5], rel=2e-3, abs=1e-7)
        assert g[6] == pytest.approx(w[6], rel=4e-3, abs=1e-7)


def test_a_day_long_gap_starts_a_new_sample_for_the_same_minute_of_day():
    day_ms = MINUTES_PER_DAY * 60_000
    pipe = CameraPipeline("cam0", 5, 4, Config())
    for t in (0, day_ms, day_ms + 60_000):
        pipe.ingest(_frame_at(t))
    pipe.finish()
    assert pipe.store.query(0)[2] == 2
    assert pipe.store.query(1)[2] == 1


class TestMinuteAccumulator:
    @staticmethod
    def _sum(densities, minute=0):
        acc = _MinuteAccumulator(minute, np.zeros(np.shape(densities[0])))
        for d in densities:
            acc.add(np.asarray(d, dtype=float))
        return acc.aggregate()

    def test_single_frame_identity(self):
        d = np.array([[1.5, 2.0]])
        agg = self._sum([d], minute=1)
        np.testing.assert_array_equal(agg.density, d)
        assert agg.dir_hist.shape == (1, 2, 0)
        assert agg.timestamp_ms == 60_000  # the minute's start

    def test_two_frame_mean(self):
        agg = self._sum([[[2.0]], [[4.0]]])
        assert agg.density[0, 0] == pytest.approx(3.0)

    def test_many_frames_match_double_precision_oracle(self):
        rng = np.random.default_rng(11)
        frames = [rng.uniform(0, 5, (3, 4)) for _ in range(1800)]
        agg = self._sum(frames)
        oracle = np.zeros((3, 4))
        for d in frames:
            oracle += d
        oracle /= len(frames)
        np.testing.assert_allclose(agg.density, oracle, rtol=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        frames = [rng.uniform(0, 5, (2, 2)) for _ in range(50)]
        fwd = self._sum(frames)
        rev = self._sum(frames[::-1])
        np.testing.assert_allclose(fwd.density, rev.density, atol=1e-12)

    def test_empty_and_mixed_grids_rejected(self):
        # The pipeline opens a minute only with a frame, and a frame on
        # another grid is rejected before it reaches the minute's sum.
        pipe = CameraPipeline("cam0", 5, 4, Config())
        pipe.finish()
        assert all(pipe.store.query(m)[2] == 0 for m in range(MINUTES_PER_DAY))
        frame = _noise_frames(1)[0]
        first = pipe.ingest(frame).bands.m_l1.density.copy()
        with pytest.raises(RejectedInputError):
            pipe.ingest(zero_frame(4, 5, timestamp_ms=frame.timestamp_ms + 33))
        pipe.finish()
        minute = minute_of_day(frame.timestamp_ms)
        mean, _, days = pipe.store.query(minute)
        assert days == 1
        np.testing.assert_array_equal(mean.density, first.astype(np.float16))


_DAY_MS = MINUTES_PER_DAY * 60_000
_PERIOD_MS = 500
# Short spans so that a few dozen 2 Hz frames open and close events, and
# min_days = 2 so that a gap of a day brings the learned threshold in.
_MACHINE_CONFIG = Config(
    filter=BandParams(
        t_l1_s=60.0, t_l2_days=2.0, t_s1_s=4.0, t_s2_s=2.0, frame_rate=2.0, shortterm_rate=1.0
    ),
    events=EventsConfig(k_sigma=1.0, cooldown_s=1.0, min_threshold=0.05, min_days=2),
)


class PipelineMachine(RuleBasedStateMachine):
    """One pipeline under ingest, gaps, late frames, ``finish`` and store
    round trips, against a twin that sees only the frames it accepted and
    keeps its store in memory."""

    def __init__(self):
        super().__init__()
        self.pipe = CameraPipeline("cam0", 3, 2, _MACHINE_CONFIG)
        self.twin = CameraPipeline("cam0", 3, 2, _MACHINE_CONFIG)
        self.tmp = tempfile.TemporaryDirectory()
        self.next_ms = 0
        self.last_ms = None
        self.days_seen = set()
        self.invoked = 0
        self.last_bands = None

    def teardown(self):
        self.tmp.cleanup()

    @rule(level=st.sampled_from([0.0, 0.01, 0.08, 0.4, 2.0]), hot=st.integers(0, 5))
    def ingest(self, level, hot):
        density = np.full((2, 3), level / 4)
        density.flat[hot] = level
        frame = MotionFrame(density, np.zeros((2, 3, 8)), self.next_ms)
        got, want = self.pipe.ingest(frame), self.twin.ingest(frame)
        self.last_bands = got.bands
        assert (got.decision, got.activity, got.invoke_detector) == (
            want.decision,
            want.activity,
            want.invoke_detector,
        )
        for a, b in zip(
            (got.bands.m_l1, got.bands.m_s1, got.bands.m_s2),
            (want.bands.m_l1, want.bands.m_s1, want.bands.m_s2),
        ):
            np.testing.assert_array_equal(a.density, b.density)
        self.invoked += got.invoke_detector
        self.days_seen.add(self.next_ms // _DAY_MS)
        self.last_ms = self.next_ms
        self.next_ms += _PERIOD_MS

    @rule(minutes=st.one_of(st.integers(1, 90), st.sampled_from([1439, 1440, 1441, 2880])))
    def gap(self, minutes):
        self.next_ms += minutes * 60_000

    @precondition(lambda self: self.last_ms is not None)
    @rule(back=st.integers(0, 5_000))
    def late_or_duplicate(self, back):
        pipe = self.pipe
        before = (pipe.frames_ingested, pipe.frames_rejected, len(pipe.events))
        late = pipe.frames_late
        frame = zero_frame(3, 2, max(self.last_ms - back, 0))
        frame.density[:] = 1.0
        with pytest.raises(RejectedInputError, match="not after the last accepted"):
            pipe.ingest(frame)
        assert (pipe.frames_ingested, pipe.frames_rejected, len(pipe.events)) == before
        assert pipe.frames_late == late + 1

    @rule()
    def finish(self):
        self.pipe.finish()
        self.twin.finish()

    @rule()
    def save_and_load(self):
        path = Path(self.tmp.name) / "cam0.iso"
        self.pipe.store.save(path)
        loaded = IsochronalStore.load(path)
        assert loaded.equals(self.pipe.store)
        self.pipe.store = loaded

    @invariant()
    def bands_and_activity_are_finite(self):
        bands = self.last_bands
        if bands is not None:
            for band in (bands.m_l1, bands.m_s1, bands.m_s2):
                assert np.all(np.isfinite(band.density))
        assert math.isfinite(self.pipe.gate.last_activity)

    @invariant()
    def no_slot_has_more_days_than_calendar_days_seen(self):
        assert int(self.pipe.store._days.max()) <= len(self.days_seen)

    @invariant()
    def closed_events_are_ordered_and_disjoint(self):
        events = self.pipe.events
        assert all(e.start_ms < e.end_ms for e in events)
        assert all(a.end_ms <= b.start_ms for a, b in zip(events, events[1:]))

    @invariant()
    def one_detector_request_per_event_opened(self):
        opened = len(self.pipe.events) + self.pipe.gate.in_event
        assert self.pipe.detector_invocations == self.invoked == opened

    @invariant()
    def rejected_frames_and_store_round_trips_change_nothing(self):
        assert self.pipe.store.equals(self.twin.store)
        assert self.pipe.events == self.twin.events


PipelineMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)
TestPipelineStateMachine = PipelineMachine.TestCase
