import numpy as np
import pytest

from motionbands.errors import InvalidParameterError
from motionbands.sim import (
    SECONDS_PER_DAY,
    Dweller,
    EventPlan,
    Scenario,
    Walker,
    gen_blob_frames,
    gen_daily_profile,
    gen_stream,
    serpentine_path,
)


def _frame_bytes(frame):
    """Everything a motion frame holds, as bytes to compare."""
    return (
        frame.timestamp_ms,
        frame.dir_hist.shape,
        frame.density.tobytes(),
        frame.dir_hist.tobytes(),
    )


class TestDailyProfile:
    def test_office_shape(self):
        p = gen_daily_profile("office", amplitude=2.0)
        assert p.shape == (1440,)
        assert np.all(p >= 0)
        assert np.all(p[:360] == 0)          # quiet before 06:00
        assert np.all(p[1261:] == 0)         # gone by 21:00
        lull = p[750]                        # 12:30
        assert lull < p[600] and lull < p[990]
        assert p.max() == pytest.approx(2.0)

    def test_flat_zero_level(self):
        p = gen_daily_profile("flat", amplitude=0.0)
        assert np.all(p == 0)

    @pytest.mark.parametrize("template", ["flat", "office", "university"])
    def test_negative_amplitude_rejected(self, template):
        with pytest.raises(InvalidParameterError, match="amplitude"):
            gen_daily_profile(template, amplitude=-1.0)

    def test_university_hourly_peaks(self):
        p = gen_daily_profile("university")
        assert np.all(p[:475] == 0) and np.all(p[1085:] == 0)
        for hour_start in range(540, 1080, 60):
            # Each hour change is a local peak against the mid-hour base.
            assert p[hour_start] > p[hour_start - 30]
            assert p[hour_start] > p[hour_start + 29]

    def test_unknown_template(self):
        with pytest.raises(InvalidParameterError):
            gen_daily_profile("mall")


class TestScenarioValidation:
    def test_paths_must_stay_inside_grid(self):
        with pytest.raises(InvalidParameterError):
            Scenario(grid_w=4, grid_h=4, walkers=(Walker(path=((5, 0),)),))
        with pytest.raises(InvalidParameterError):
            Scenario(grid_w=4, grid_h=4, dwellers=(Dweller(block=(0, 9)),))

    def test_bad_template_rejected_at_construction(self):
        with pytest.raises(InvalidParameterError):
            Scenario(grid_w=4, grid_h=4, template="mall")


class TestGenStream:
    def test_zero_intensity_profile_gives_zero_stream(self):
        scn = Scenario(grid_w=4, grid_h=3, day_hours=0.05, rate_hz=2.0, noise_sigma=0.0)
        frames, truth = gen_stream(scn, days=1)
        for f in frames:
            assert np.all(f.density == 0)
        assert truth.events == []
        assert np.all(truth.per_minute == 0)

    def test_same_seed_byte_identical(self):
        scn = Scenario(
            grid_w=6,
            grid_h=4,
            day_hours=0.1,
            rate_hz=5.0,
            walkers=(Walker(path=serpentine_path(6, 4), speed_bps=1.0),),
            events=EventPlan(mean_per_day=200, duration_s=5.0, width_blocks=2, min_gap_s=2.0),
            noise_sigma=0.05,
            seed=77,
        )
        a, _ = gen_stream(scn, days=1)
        b, _ = gen_stream(scn, days=1)
        for fa, fb in zip(a, b, strict=True):
            assert _frame_bytes(fa) == _frame_bytes(fb)

    def test_different_seed_differs(self):
        base = dict(grid_w=4, grid_h=4, day_hours=0.05, rate_hz=5.0, noise_sigma=0.05)
        a, _ = gen_stream(Scenario(seed=1, **base), days=1)
        b, _ = gen_stream(Scenario(seed=2, **base), days=1)
        assert any(_frame_bytes(fa) != _frame_bytes(fb) for fa, fb in zip(a, b))

    def test_office_profile_weights_event_starts(self):
        # One tick a minute: only the events' placement is under test.
        scn = Scenario(
            grid_w=6,
            grid_h=4,
            rate_hz=1 / 60,
            template="office",
            events=EventPlan(mean_per_day=300, duration_s=5.0, width_blocks=2),
            seed=3,
        )
        _, truth = gen_stream(scn, days=3)
        minutes = np.array([int(ev.start_s % SECONDS_PER_DAY) // 60 for ev in truth.events])
        assert len(minutes) > 600
        profile = scn.profile
        assert np.all(profile[minutes] > 0)
        per_hour = np.bincount(minutes // 60, minlength=24)
        assert np.corrcoef(per_hour, profile.reshape(24, 60).sum(axis=1))[0, 1] >= 0.9

    def test_ground_truth_events_overlap_emitted_activity(self):
        scn = Scenario(
            grid_w=8,
            grid_h=6,
            day_hours=0.5,
            rate_hz=1.0,
            events=EventPlan(mean_per_day=40, duration_s=6.0, width_blocks=2, min_gap_s=10.0),
            noise_sigma=0.0,
            seed=5,
        )
        frames, truth = gen_stream(scn, days=1)
        by_t = {f.timestamp_ms: f for f in frames}
        assert truth.events
        for ev in truth.events:
            t_ms = int(np.ceil(ev.start_s)) * 1000
            frame = by_t[t_ms]
            active = truth.moving_blocks(t_ms / 1000.0)
            assert active
            assert any(frame.density[by, bx] > 0 for bx, by in active)

    def test_planted_events_respect_min_gap(self):
        scn = Scenario(
            grid_w=16,
            grid_h=12,
            day_hours=10.0,
            events=EventPlan(mean_per_day=300, duration_s=10.0, min_gap_s=15.0),
            seed=19,
        )
        _, truth = gen_stream(scn, days=1)
        evs = sorted(truth.events, key=lambda e: e.start_s)
        gaps = [b.start_s - a.end_s for a, b in zip(evs, evs[1:])]
        assert min(gaps) >= 15.0

    def test_quiet_blocks_stay_below_noise_floor(self):
        scn = Scenario(
            grid_w=6,
            grid_h=4,
            day_hours=0.05,
            rate_hz=2.0,
            dwellers=(Dweller(block=(2, 2), duration_s=600.0, amplitude=1.0),),
            noise_sigma=0.01,
            seed=8,
        )
        frames, truth = gen_stream(scn, days=1)
        for f in frames:
            quiet = f.density.copy()
            quiet[2, 2] = 0.0
            assert quiet.max() < 0.1  # noise only

    def test_walkable_mask_is_actor_union(self):
        path = ((1, 1), (2, 1))
        scn = Scenario(
            grid_w=4,
            grid_h=3,
            walkers=(Walker(path=path),),
            dwellers=(Dweller(block=(0, 2)),),
        )
        _, truth = gen_stream(scn, days=1)
        expected = np.zeros((3, 4), dtype=bool)
        expected[1, 1] = expected[1, 2] = expected[2, 0] = True
        np.testing.assert_array_equal(truth.walkable_mask, expected)

    def test_invalid_days(self):
        scn = Scenario(grid_w=2, grid_h=2)
        with pytest.raises(InvalidParameterError):
            gen_stream(scn, days=0)


class TestBlobFrames:
    def test_blob_moves_right(self):
        frames = list(gen_blob_frames(64, 32, 4, radius=5.0, speed_px=6.0))
        centers = []
        for f in frames:
            ys, xs = np.nonzero(f.pixels)
            centers.append(xs.mean())
        assert all(b - a == pytest.approx(6.0, abs=1.0) for a, b in zip(centers, centers[1:]))

    def test_deterministic(self):
        a = [f.pixels.tobytes() for f in gen_blob_frames(32, 32, 3)]
        b = [f.pixels.tobytes() for f in gen_blob_frames(32, 32, 3)]
        assert a == b
