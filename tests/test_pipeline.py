import dataclasses

import numpy as np
import pytest

from motionbands.config import Config
from motionbands.errors import RejectedInputError
from motionbands.events import scalar_activity
from motionbands.isochron import MINUTES_PER_DAY, minute_of_day
from motionbands.motion import MotionFrame, extract_motion
from motionbands.pipeline import CameraPipeline, _MinuteAccumulator
from motionbands.sim import gen_blob_frames


def test_blob_pixels_flow_through_pipeline_into_store():
    # A blob crossing the frame over two seconds that straddle the
    # boundary between minutes 9 and 10.
    start_ms = 10 * 60_000 - 1_000
    frames = [
        dataclasses.replace(f, timestamp_ms=start_ms + f.timestamp_ms)
        for f in gen_blob_frames(96, 64, 60, radius=8.0, speed_px=1.0)
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
    bad = frames[40].copy()
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
    late = MotionFrame.zeros(5, 4, timestamp_ms=frames[-1].timestamp_ms + 60_000)
    late.density[0, 0] = -1.0
    with pytest.raises(RejectedInputError):
        pipe.ingest(late)
    assert pipe.frames_rejected == 1
    assert pipe.store.query(minute_of_day(frames[0].timestamp_ms))[2] == 0


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
            pipe.ingest(MotionFrame.zeros(4, 5, timestamp_ms=frame.timestamp_ms + 33))
        pipe.finish()
        minute = minute_of_day(frame.timestamp_ms)
        mean, _, days = pipe.store.query(minute)
        assert days == 1
        np.testing.assert_array_equal(mean.density, first)
