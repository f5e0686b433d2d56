import itertools
import tracemalloc

import numpy as np
import pytest

from motionbands import sim
from motionbands.errors import InvalidParameterError
from motionbands.motion import N_DIR_BINS
from motionbands.sim import (
    SECONDS_PER_DAY,
    Dweller,
    EventPlan,
    Scenario,
    Walker,
    _fit_front,
    gen_daily_profile,
    gen_stream,
)

from inputs import moving_blocks


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

    def test_office_zero_level(self):
        p = gen_daily_profile("office", amplitude=0.0)
        assert np.all(p == 0)

    @pytest.mark.parametrize("template", ["office", "university"])
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
            # A boustrophedon sweep over the interior blocks.
            walkers=(Walker(path=((1, 1), (2, 1), (3, 1), (4, 1), (4, 2), (3, 2), (2, 2), (1, 2))),),
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

    def test_per_minute_truth_is_the_mean_of_the_emitted_minute(self):
        scn = Scenario(
            grid_w=8,
            grid_h=6,
            day_hours=0.5,
            walkers=(Walker(path=((1, 1), (2, 1), (2, 2), (1, 2)), amplitude=0.5, loop=True),),
            dwellers=(Dweller(block=(5, 4), start_s=300.0, duration_s=600.0),),
            events=EventPlan(mean_per_day=30, duration_s=4.0, width_blocks=2, min_gap_s=5.0),
            noise_sigma=0.0,
            seed=21,
        )
        frames, truth = gen_stream(scn, days=2)
        by_minute = {}
        for f in frames:
            by_minute.setdefault(f.timestamp_ms // 60_000, []).append(f.density)
        assert len(by_minute) == 2 * 30 and len(truth.events) > 40
        # Minutes past the 30-minute day get no tick and must stay zero.
        emitted = np.zeros_like(truth.per_minute)
        for minute, densities in by_minute.items():
            emitted[minute] = np.mean(densities, axis=0)
        np.testing.assert_allclose(truth.per_minute, emitted, rtol=0, atol=1e-12)

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
            active = moving_blocks(truth, t_ms / 1000.0)
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

    def test_invalid_days(self):
        scn = Scenario(grid_w=2, grid_h=2)
        with pytest.raises(InvalidParameterError):
            gen_stream(scn, days=0)


def _reference_fit_front(scenario, direction, width, travel, rng):
    """The front fitter as it was before its two axes shared one body."""
    gw, gh = scenario.grid_w, scenario.grid_h
    dx, dy = direction
    if dy == 0:  # horizontal travel, vertical front
        span_x = travel + 1
        max_x0 = gw - span_x
        max_y0 = gh - width
        if max_x0 < 0 or max_y0 < 0:
            raise InvalidParameterError("event front does not fit in the grid")
        x0 = int(rng.integers(0, max_x0 + 1))
        if dx < 0:
            x0 = gw - 1 - x0
        y0 = int(rng.integers(0, max_y0 + 1))
        return (x0, y0)
    span_y = travel + 1
    max_y0 = gh - span_y
    max_x0 = gw - width
    if max_y0 < 0 or max_x0 < 0:
        raise InvalidParameterError("event front does not fit in the grid")
    y0 = int(rng.integers(0, max_y0 + 1))
    if dy < 0:
        y0 = gh - 1 - y0
    x0 = int(rng.integers(0, max_x0 + 1))
    return (x0, int(y0))


def test_fit_front_draws_as_the_reference():
    # Same origin and same generator state afterwards, so every planted
    # event, and every draw after it, is unchanged.
    fitted = 0
    for gw, gh in [(1, 1), (3, 5), (8, 6), (12, 4), (40, 30)]:
        scn = Scenario(grid_w=gw, grid_h=gh)
        for width in (1, 2, 4):
            for travel in (0, 1, 3, 7):
                for direction in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    along, across = (gw, gh) if direction[1] == 0 else (gh, gw)
                    if along < travel + 1 or across < width:
                        continue  # _feasible_directions never offers it
                    for seed in range(8):
                        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                        got = _fit_front(scn, direction, width, travel, ours)
                        assert got == _reference_fit_front(scn, direction, width, travel, ref)
                        assert ours.bit_generator.state == ref.bit_generator.state
                        fitted += 1
    assert fitted > 500


# The per-minute truth as ``gen_stream`` built it eagerly, before it was
# built on first read: the tick loop and the minute means, frozen.
_PARENT_DIR_BIN = {(1, 0): 0, (0, -1): 2, (-1, 0): 4, (0, 1): 6}


def _parent_ticks(scenario, events, days):
    ticks_per_day = int(round(scenario.day_seconds * scenario.rate_hz))
    shape = (scenario.grid_h, scenario.grid_w)
    pending = sorted(events, key=lambda e: e.start_s)
    next_event = 0
    active = []
    for day in range(days):
        for i in range(ticks_per_day):
            t_s = day * SECONDS_PER_DAY + i / scenario.rate_hz
            while next_event < len(pending) and pending[next_event].start_s <= t_s:
                active.append(pending[next_event])
                next_event += 1
            active = [e for e in active if t_s < e.end_s]
            density = np.zeros(shape)
            hist = np.zeros((*shape, N_DIR_BINS))
            day_t = t_s % SECONDS_PER_DAY
            for w in scenario.walkers:
                block = w.block_at(day_t)
                if block is None:
                    continue
                bx, by = block
                density[by, bx] += w.amplitude
                hist[by, bx, _PARENT_DIR_BIN.get(w.step_dir(day_t), 0)] += w.amplitude
            for d in scenario.dwellers:
                if d.active(day_t):
                    bx, by = d.block
                    density[by, bx] += d.amplitude
                    hist[by, bx] += d.amplitude / N_DIR_BINS
            for ev in active:
                for bx, by in ev.blocks_at(t_s):
                    if 0 <= bx < scenario.grid_w and 0 <= by < scenario.grid_h:
                        density[by, bx] += ev.plan.amplitude
                        hist[by, bx, _PARENT_DIR_BIN.get(ev.direction, 0)] += ev.plan.amplitude
            yield t_s, density, hist


def _parent_per_minute_planted(scenario, events, days):
    out = np.zeros((days * 1440, scenario.grid_h, scenario.grid_w))
    per_min_ticks = np.zeros(days * 1440)
    for t_s, density, _ in _parent_ticks(scenario, events, days):
        idx = int(t_s // 60)
        out[idx] += density
        per_min_ticks[idx] += 1
    nonzero = per_min_ticks > 0
    out[nonzero] /= per_min_ticks[nonzero, None, None]
    return out


def _busy_scenario(noise_sigma, seed=4):
    """Three-minute days on an 8 x 6 grid: a looping walker, one that walks
    its path once, a dweller and planted events."""
    return Scenario(
        grid_w=8,
        grid_h=6,
        day_hours=0.05,
        rate_hz=2.0,
        walkers=(
            Walker(path=((1, 1), (2, 1), (2, 2), (1, 2)), amplitude=0.5, loop=True),
            Walker(path=((6, 0), (6, 1), (6, 2), (5, 2), (4, 2)), speed_bps=0.1, start_s=20.0),
        ),
        dwellers=(Dweller(block=(3, 4), start_s=50.0, duration_s=70.0, amplitude=0.7),),
        events=EventPlan(mean_per_day=5, duration_s=4.0, width_blocks=2, min_gap_s=2.0),
        noise_sigma=noise_sigma,
        seed=seed,
    )


class TestLazyTruth:
    @pytest.mark.parametrize("days", [1, 2, 3])
    @pytest.mark.parametrize("noise_sigma", [0.0, 0.05])
    @pytest.mark.parametrize("read", ["before", "during", "after"])
    def test_per_minute_equals_the_eager_truth(self, days, noise_sigma, read):
        scn = _busy_scenario(noise_sigma)
        untouched, _ = gen_stream(scn, days=days)
        frames, truth = gen_stream(scn, days=days)
        assert truth.events
        want = _parent_per_minute_planted(scn, truth.events, days)
        got = []
        if read == "before":
            got.append(truth.per_minute)
        for i, (fa, fb) in enumerate(zip(frames, untouched, strict=True)):
            # Reading the truth leaves the stream as it would have been.
            assert _frame_bytes(fa) == _frame_bytes(fb)
            if read == "during" and i == 200:
                got.append(truth.per_minute)
        got.append(truth.per_minute)
        assert got[0] is got[-1]  # built once, then kept
        assert got[0].shape == want.shape and got[0].dtype == want.dtype
        assert got[0].tobytes() == want.tobytes()

    def test_a_stream_read_without_its_truth_never_builds_it(self, monkeypatch):
        calls = []
        real = sim._per_minute_planted
        monkeypatch.setattr(sim, "_per_minute_planted", lambda *args: calls.append(args) or real(*args))
        scn = _busy_scenario(0.05)
        frames, truth = gen_stream(scn, days=2)
        assert sum(1 for _ in frames) == 2 * 360
        assert truth.events and truth.event_intervals_ms()
        assert calls == []
        truth.per_minute
        truth.per_minute
        assert len(calls) == 1

    def test_generation_allocates_no_per_minute_truth(self):
        # One benchmark replay camera: a 40 x 30 grid, eight days of three
        # minutes at 30 Hz. An eager truth would allocate its
        # (8 * 1440, 30, 40) float64 array, about 110 MB.
        scn = Scenario(
            grid_w=40,
            grid_h=30,
            day_hours=0.05,
            rate_hz=30.0,
            walkers=(Walker(path=tuple((x, 5) for x in range(3, 30)), amplitude=0.5, loop=True),),
            dwellers=(Dweller(block=(20, 20), start_s=30.0, duration_s=60.0, amplitude=0.5),),
            events=EventPlan(mean_per_day=4.0, duration_s=10.0, width_blocks=8, min_gap_s=15.0),
            noise_sigma=0.02,
            seed=3,
        )
        tracemalloc.start()
        try:
            frames, truth = gen_stream(scn, days=8)
            assert sum(1 for _ in itertools.islice(frames, 1000)) == 1000
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert truth.events
        assert peak < 5e6
