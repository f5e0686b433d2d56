import math
import re
import struct
import tracemalloc
import zlib
from io import BytesIO
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

from motionbands.config import alpha_from_decay
from motionbands.errors import InvalidParameterError, RejectedInputError, StoreLoadError
from motionbands.isochron import MINUTES_PER_DAY, IsochronalStore, _slot_dtype, minute_of_day
from motionbands.motion import N_DIR_BINS, MotionFrame

from inputs import V3Store


def _frame(density, t=0):
    d = np.atleast_2d(np.asarray(density, dtype=float))
    hist = np.zeros(d.shape + (8,))
    hist[..., 0] = d
    return MotionFrame(density=d, dir_hist=hist, timestamp_ms=t)


def _variance(store):
    """``store``'s per-block density variance, the square of its std, as
    the formats before v4 held it."""
    return store._std.astype(np.float64) ** 2


# The store file format v1 as the per-slot writer produced it. Version 1
# is no longer read; these files check that it is rejected. The writer
# takes a store's fields plus direction bins (see ``_with_bins``).

def _reference_save(store, path):
    buf = BytesIO()
    buf.write(b"ISO1")
    buf.write(struct.pack("<H", 1))
    buf.write(struct.pack("<d", store.t_l2_days))
    cam = store.camera_id.encode("utf-8")
    buf.write(struct.pack("<H", len(cam)))
    buf.write(cam)
    buf.write(struct.pack("<HH", store.grid_w, store.grid_h))
    for m in range(MINUTES_PER_DAY):
        buf.write(store._mean_density[m].astype("<f8").tobytes())
        buf.write(store._mean_hist[m].astype("<f8").tobytes())
        buf.write(store._var[m].astype("<f8").tobytes())
        buf.write(struct.pack("<I", int(store._days[m])))
    payload = buf.getvalue()
    Path(path).write_bytes(payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


def _with_bins(store, seed=0):
    """``store``'s fields with random direction bins beside them, as a v1
    store held them."""
    rng = np.random.default_rng(seed)
    return SimpleNamespace(
        camera_id=store.camera_id,
        t_l2_days=store.t_l2_days,
        grid_w=store.grid_w,
        grid_h=store.grid_h,
        _mean_density=store._mean_density,
        _mean_hist=rng.uniform(0, 1, store._mean_density.shape + (N_DIR_BINS,)),
        _var=_variance(store),
        _days=store._days,
    )


def _reference_save_v2(store, path):
    """Per-slot writer of the v2 format: v1 without the bins. Version 2 is
    no longer read either."""
    buf = BytesIO()
    buf.write(b"ISO1")
    buf.write(struct.pack("<H", 2))
    buf.write(struct.pack("<d", store.t_l2_days))
    cam = store.camera_id.encode("utf-8")
    buf.write(struct.pack("<H", len(cam)))
    buf.write(cam)
    buf.write(struct.pack("<HH", store.grid_w, store.grid_h))
    var = _variance(store)
    for m in range(MINUTES_PER_DAY):
        buf.write(store._mean_density[m].astype("<f8").tobytes())
        buf.write(var[m].astype("<f8").tobytes())
        buf.write(struct.pack("<I", int(store._days[m])))
    payload = buf.getvalue()
    Path(path).write_bytes(payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


def _reference_save_v3(store, path):
    """Per-slot writer of the v3 format: the v2 header padded with zeros to
    a multiple of 8 bytes, then float32 means and variances, the days and
    the last dated day. Version 3 is no longer read either."""
    _reference_save_padded(store, path, 3, store._mean_density.astype("<f4"), _variance(store).astype("<f4"))


def _reference_save_v4(store, path):
    """Per-slot writer of the v4 format: the v3 layout with float16 means
    and float16 stds in place of the float32 means and variances."""
    _reference_save_padded(store, path, 4, store._mean_density.astype("<f2"), store._std.astype("<f2"))


def _reference_save_padded(store, path, version, means, spreads):
    buf = BytesIO()
    buf.write(b"ISO1")
    buf.write(struct.pack("<H", version))
    buf.write(struct.pack("<d", store.t_l2_days))
    cam = store.camera_id.encode("utf-8")
    buf.write(struct.pack("<H", len(cam)))
    buf.write(cam)
    buf.write(struct.pack("<HH", store.grid_w, store.grid_h))
    buf.write(bytes(-buf.tell() % 8))
    for m in range(MINUTES_PER_DAY):
        buf.write(means[m].tobytes())
        buf.write(spreads[m].tobytes())
        buf.write(struct.pack("<Ii", int(store._days[m]), int(store._last_day[m])))
    payload = buf.getvalue()
    Path(path).write_bytes(payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


def _populated(camera_id, grid_w, grid_h, seed, t_l2_days=10.0):
    """A store with random samples on a scatter of minutes, some seen on
    several days, and random direction bins. Samples on odd minutes are
    dated, the rest undated."""
    rng = np.random.default_rng(seed)
    store = IsochronalStore(camera_id, grid_w, grid_h, t_l2_days=t_l2_days)
    for day in range(4):
        for minute in rng.choice(MINUTES_PER_DAY, 200, replace=False):
            store.update(
                int(minute),
                MotionFrame(
                    rng.uniform(0, 2, (grid_h, grid_w)),
                    rng.uniform(0, 1, (grid_h, grid_w, N_DIR_BINS)),
                ),
                day if minute % 2 else None,
            )
    return store


def _f32(x):
    """``x`` rounded to float32 and widened back, as a v3 store kept it."""
    return np.asarray(x, np.float32).astype(np.float64)


def _f16(x):
    """``x`` rounded to float16 and widened back, as the store keeps it."""
    return np.asarray(x, np.float16).astype(np.float64)


def _rewrite(path, edit):
    """Apply ``edit`` to the file's bytes before the CRC, then write the
    result with a valid CRC, so that only the check under test can fire."""
    payload = bytearray(Path(path).read_bytes()[:-4])
    edit(payload)
    Path(path).write_bytes(bytes(payload) + struct.pack("<I", zlib.crc32(payload)))


class TestMinuteOfDay:
    def test_wraps_daily(self):
        assert minute_of_day(0) == 0
        assert minute_of_day(60_000) == 1
        assert minute_of_day(86_400_000) == 0
        assert minute_of_day(86_400_000 + 61_000) == 1
        assert minute_of_day(1439 * 60_000) == 1439


class TestUpdateQuery:
    def test_fresh_store_is_empty(self):
        store = IsochronalStore("cam0", 2, 2)
        mean, std, days = store.query(100)
        assert days == 0
        assert np.all(mean.density == 0)
        assert np.all(std == 0)

    def test_bootstrap_takes_first_sample(self):
        store = IsochronalStore("cam0", 2, 1)
        store.update(30, _frame([[1.0, 2.0]]))
        mean, std, days = store.query(30)
        assert days == 1
        np.testing.assert_array_equal(mean.density, [[1.0, 2.0]])
        np.testing.assert_array_equal(std, [[0.0, 0.0]])

    def test_constant_stream_is_fixed_point(self):
        store = IsochronalStore("cam0", 1, 1, t_l2_days=10)
        for _ in range(30):
            store.update(5, _frame([[3.5]]))
        mean, std, days = store.query(5)
        assert days == 30
        assert mean.density[0, 0] == pytest.approx(3.5, abs=1e-9)
        assert std[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_alternating_stream_matches_recursion_oracle(self):
        # Plain-float oracle of the same blend, in Finch's unscaled form;
        # its mean is rounded to float16 after each update, as stored.
        alpha = alpha_from_decay(1, 10)
        store = IsochronalStore("cam0", 1, 1, t_l2_days=10)
        mean = None
        var = None
        for day in range(40):
            x = 10.0 if day % 2 else 0.0
            store.update(7, _frame([[x]]))
            if mean is None:
                mean, var = x, 0.0
            else:
                dev = x - mean
                mean = _f16(alpha * mean + (1 - alpha) * x)
                var = alpha * (var + (1 - alpha) * dev * dev)
        got_mean, got_std, _ = store.query(7)
        assert got_mean.density[0, 0] == mean
        # The stored std is rounded to float16 after each update: within
        # a few of float16's 2**-11 relative roundings of the oracle's.
        assert got_std[0, 0] == pytest.approx((var * (1 + alpha) / (2 * alpha)) ** 0.5, rel=2e-3)

    def test_randomized_stream_matches_oracle(self):
        rng = np.random.default_rng(7)
        alpha = alpha_from_decay(1, 10)
        store = IsochronalStore("cam0", 2, 3, t_l2_days=10)
        mean = None
        var = np.zeros((3, 2))
        for _ in range(20):
            sample = rng.uniform(0, 4, (3, 2))
            store.update(0, _frame(sample))
            if mean is None:
                mean = _f16(sample)
            else:
                dev = sample - mean
                mean = _f16(alpha * mean + (1 - alpha) * sample)
                var = alpha * (var + (1 - alpha) * dev * dev)
        got_mean, got_std, days = store.query(0)
        assert days == 20
        np.testing.assert_array_equal(got_mean.density, mean)
        # The stored std is rounded to float16 after each update too; the
        # unscaled form is the oracle's own, so it agrees to float16's
        # precision.
        np.testing.assert_allclose(got_std, np.sqrt(var * (1 + alpha) / (2 * alpha)), rtol=2e-3)

    def test_update_matches_the_blend_written_out_bit_for_bit(self):
        # The mean goes through the cascade's EMA, rounded as
        # a * mean + (1 - a) * x in float64; the variance is the widened
        # std squared, blended as a * var + gain * (dev * dev); and the mean
        # and the variance's root are rounded to float16 once, when stored.
        # The samples span float16's subnormals, its normal range and its
        # largest value.
        rng = np.random.default_rng(5)
        store = IsochronalStore("cam0", 5, 3, t_l2_days=4.0)
        a, gain = store.alpha_l2, store._var_gain
        for minute, scale in ((0, 2.0), (1, 1e-4), (2, 65504.0)):
            mean = _f16(rng.uniform(0, scale, (3, 5)))
            std = np.zeros((3, 5))
            store.update(minute, _frame(mean))
            for _ in range(6):
                x = rng.uniform(0, scale, (3, 5))
                store.update(minute, _frame(x))
                dev = x - mean
                mean, std = _f16(a * mean + (1.0 - a) * x), _f16(np.sqrt(a * std**2 + gain * (dev * dev)))
            assert store._mean_density.dtype == store._std.dtype == np.float16
            np.testing.assert_array_equal(store._mean_density[minute], mean)
            np.testing.assert_array_equal(store._std[minute], std)

    def test_stationary_stream_std_estimates_sigma(self):
        # 400 days of N(1, 0.1^2) per block: the learned spread must mean
        # what it says, not the 0.08 the deviation-from-the-new-mean
        # recursion used to settle at.
        sigma = 0.1
        rng = np.random.default_rng(11)
        store = IsochronalStore("cam0", 40, 30, t_l2_days=10)
        for _ in range(400):
            store.update(3, _frame(1.0 + rng.normal(0.0, sigma, (30, 40))))
        _, std, _ = store.query(3)
        assert float((std**2).mean()) == pytest.approx(sigma**2, rel=0.05)
        assert store.scalar_stats(3)[1] == pytest.approx(sigma, rel=0.05)

    def test_slot_isolation(self):
        store = IsochronalStore("cam0", 1, 1)
        store.update(100, _frame([[2.0]]))
        for minute in (99, 101, 0, 1439):
            _, _, days = store.query(minute)
            assert days == 0

    def test_impulse_decay_to_ten_percent(self):
        store = IsochronalStore("cam0", 1, 1, t_l2_days=10)
        store.update(0, _frame([[5.0]]))  # bootstrap impulse day
        post_impulse = want = store.query(0)[0].density[0, 0]
        for _ in range(10):
            store.update(0, _frame([[0.0]]))
            want = _f16(store.alpha_l2 * want + (1.0 - store.alpha_l2) * 0.0)
        final = store.query(0)[0].density[0, 0]
        assert final == want
        # Ten float16 roundings away from the exact 0.1.
        assert final / post_impulse == pytest.approx(0.1, rel=5e-3)

    def test_minute_range_checked(self):
        store = IsochronalStore("cam0", 1, 1)
        for minute in (-1, MINUTES_PER_DAY):
            with pytest.raises(InvalidParameterError):
                store.update(minute, _frame([[1.0]]))
            with pytest.raises(InvalidParameterError):
                store.query(minute)

    @pytest.mark.parametrize(
        "minute", [5.5, 5.0, np.float64(5.0), "5"], ids=["fraction", "float", "numpy-float", "string"]
    )
    def test_non_integer_minute_rejected(self, minute):
        # 5.5 raised numpy's IndexError from update, query and scalar_stats.
        store = IsochronalStore("cam0", 1, 1)
        for call in (
            lambda: store.update(minute, _frame([[1.0]])),
            lambda: store.query(minute),
            lambda: store.scalar_stats(minute),
        ):
            with pytest.raises(InvalidParameterError, match="must be an integer"):
                call()
        assert store.equals(IsochronalStore("cam0", 1, 1))
        store.update(np.int64(5), _frame([[1.0]]))
        assert store.scalar_stats(np.int16(5)) == (1.0, 0.0, 1)

    @pytest.mark.parametrize("span", [math.nan, math.inf])
    def test_non_finite_decay_span_rejected(self, span):
        # A NaN span built, and read (nan, nan, 2) from scalar_stats after
        # two updates.
        with pytest.raises(InvalidParameterError, match="duration must be finite"):
            IsochronalStore("c", 2, 2, t_l2_days=span)

    def test_grid_mismatch_rejected(self):
        store = IsochronalStore("cam0", 2, 2)
        with pytest.raises(RejectedInputError):
            store.update(0, _frame([[1.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-9])
    @pytest.mark.parametrize("where", ["density", "dir_hist"])
    def test_bad_sample_rejected_before_any_change(self, bad, where):
        store = _populated("cam0", 3, 2, seed=4)
        before = IsochronalStore("cam0", 3, 2)
        before._mean_density[...] = store._mean_density
        before._std[...] = store._std
        before._days[...] = store._days
        before._last_day[...] = store._last_day
        stats = store.scalar_stats(5)
        mask = store.binarize()
        sample = MotionFrame(np.full((2, 3), 0.5), np.full((2, 3, N_DIR_BINS), 0.1))
        getattr(sample, where)[1, 2] = bad
        for minute in (5, 6):
            with pytest.raises(RejectedInputError, match="non-finite or negative"):
                store.update(minute, sample)
        assert store.equals(before)
        assert store.scalar_stats(5) == stats
        np.testing.assert_array_equal(store.binarize(), mask)
        assert not math.isnan(store.scalar_stats(6)[0])

    def test_negative_zero_sample_accepted(self):
        store = IsochronalStore("cam0", 3, 2)
        zero = IsochronalStore("cam0", 3, 2)
        store.update(7, MotionFrame(np.full((2, 3), -0.0), np.full((2, 3, N_DIR_BINS), -0.0)))
        zero.update(7, MotionFrame(np.zeros((2, 3)), np.zeros((2, 3, 0))))
        assert store.equals(zero)
        assert store.scalar_stats(7)[0] == 0.0
        # Stored as +0.0, whose bits sort below every positive value's.
        assert not store._mean_density.view(np.uint16).any() and not store._std.view(np.uint16).any()
        store.update(7, MotionFrame(np.full((2, 3), -0.0), np.zeros((2, 3, 0))))
        assert not store._mean_density.view(np.uint16).any() and not store._std.view(np.uint16).any()


class TestUnholdableSample:
    """A record holds float16 means and stds, whose largest finite value is
    65504. A sample with a density above it is refused before the store
    changes; any other keeps the record finite."""

    @pytest.mark.parametrize("big", [65504.5, 65520.0, 7e4, 1e39, 1.7976931348623157e308], ids=repr)
    @pytest.mark.parametrize("day", [None, 0, 9])
    def test_refused_before_any_change(self, tmp_path, big, day):
        # Accepted, a density of 1e39 stored inf: save then wrote a file
        # that load refused, and under -W error the cast's warning raised
        # after the last day and both caches had changed.
        store = _populated("cam0", 3, 2, seed=4)
        snapshot = IsochronalStore("cam0", 3, 2)
        snapshot._slots[...] = store._slots
        stats, mask = store.scalar_stats(3), store.binarize()
        sample = np.full((2, 3), 0.5)
        sample[1, 2] = big
        for minute in (3, 4, 1439):
            with pytest.raises(
                RejectedInputError,
                match=f"sample for minute {minute} has a non-finite or negative density or bin, or one above 65504$",
            ):
                store.update(minute, _frame(sample), day)
        assert store.equals(snapshot)
        assert store.scalar_stats(3) is stats and store.binarize() is mask
        store.save(tmp_path / "s.iso")
        assert IsochronalStore.load(tmp_path / "s.iso").equals(snapshot)

    def test_non_finite_or_negative_is_reported_as_such(self):
        store = IsochronalStore("cam0", 2, 1)
        for bad in (math.inf, math.nan, -1.0):
            with pytest.raises(RejectedInputError, match="non-finite or negative"):
                store.update(0, _frame([[1e39, bad]]))
        assert store.equals(IsochronalStore("cam0", 2, 1))

    def test_swings_of_the_largest_value_stay_finite(self, tmp_path):
        # A mean of 65504 and the widest std its swings can build: blends
        # of values in [0, 65504] stay in that range, up to float64
        # roundings that round back to 65504.
        store = IsochronalStore("cam0", 3, 1, t_l2_days=0.5)
        for day in range(60):
            x = 65504.0 if day % 2 else 0.0
            assert store.update(0, _frame([[x, 65504.0 - x, 65504.0]]), day)
        mean, std, days = store.query(0)
        assert days == 60
        assert np.all(np.isfinite(mean.density)) and np.all(np.isfinite(std))
        assert mean.density.max() <= 65504.0 and std.max() <= 65504.0 and std[0, :2].min() > 30000.0
        assert mean.density[0, 2] == 65504.0 and std[0, 2] == 0.0
        store.save(tmp_path / "s.iso")
        assert IsochronalStore.load(tmp_path / "s.iso").equals(store)


class _TwoRowStore:
    """The store's update as it blended before it went through the record's
    fields, frozen as the oracle of the current one: a (1440, 2, gh, gw)
    float16 view of the packed records' mean and std, widened to float64,
    blended as one two-row array (the cascade's EMA on the mean, Finch's
    rule on the std squared) and stored whole after ``+ 0.0``."""

    def __init__(self, grid_w, grid_h, t_l2_days):
        self._slots = np.zeros(MINUTES_PER_DAY, _slot_dtype(grid_w, grid_h))
        self._slots["last_day"] = -1
        self._mean_std = as_strided(
            self._slots["density"],
            (MINUTES_PER_DAY, 2, grid_h, grid_w),
            (self._slots.itemsize, 2 * grid_h * grid_w, 2 * grid_w, 2),
        )
        self.alpha_l2 = a = alpha_from_decay(1.0, t_l2_days)
        self._var_gain = (1.0 - a) * (1.0 + a) / 2.0

    def update(self, minute, x, day=None):
        a, gain = self.alpha_l2, self._var_gain
        if day is not None:
            last = int(self._slots["last_day"][minute])
            if day <= last:
                return False
            if last >= 0:
                a = a ** int(day - last)
                gain = (1.0 - a) * (1.0 + a) / 2.0
            self._slots["last_day"][minute] = day
        record = self._mean_std[minute]
        if self._slots["days"][minute] == 0:
            blended = np.zeros(record.shape)
            blended[0] = x
        else:
            blended = record.astype(np.float64)
            mean, var = blended  # var holds the std until it is squared
            fresh = np.empty_like(blended)
            dev = np.subtract(x, mean, out=fresh[1])
            np.multiply(x, 1.0 - a, out=fresh[0])
            np.multiply(dev, dev, out=dev)
            np.multiply(dev, gain, out=dev)
            np.multiply(var, var, out=var)
            np.multiply(blended, a, out=blended)
            np.add(blended, fresh, out=blended)
            np.sqrt(var, out=var)
        np.add(blended, 0.0, out=blended)
        record[...] = blended
        self._slots["days"][minute] += 1
        return True

    def scalar_stats(self, minute):
        mean, std = self._mean_std[minute].astype(np.float64)
        return float(mean.mean()), float(std.mean()), int(self._slots["days"][minute])


class TestTwoRowOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_update_stores_the_two_row_blends_bytes(self, seed):
        # First observations, undated samples, dated days consecutive,
        # gapped and replayed, means and stds in float16's subnormals
        # (samples below 1e-4), its normal range and at 65504.
        rng = np.random.default_rng(seed)
        store, oracle = IsochronalStore("cam0", 5, 3, t_l2_days=3.0), _TwoRowStore(5, 3, 3.0)
        last = {}
        subnormal = top = False
        for _ in range(600):
            minute = int(rng.integers(6))
            scale = (1e-4, 2.0, 65504.0)[rng.integers(3)]
            x = rng.uniform(0.0, scale, (3, 5)) * (rng.random((3, 5)) < 0.8)
            x[rng.random((3, 5)) < 0.1] = scale
            if rng.random() < 0.3:
                day = None
            else:
                day = max(last.get(minute, 0) + int(rng.choice([-1, 0, 1, 1, 2, 9])), 0)
                last[minute] = max(day, last.get(minute, 0))
            assert store.update(minute, _frame(x), day) == oracle.update(minute, x, day)
            assert store._slots.tobytes() == oracle._slots.tobytes()
            got, want = store.scalar_stats(minute), oracle.scalar_stats(minute)
            assert struct.pack("<ddq", *got) == struct.pack("<ddq", *want)
            std = store._std[minute]
            subnormal |= bool(((std > 0) & (std < 6.1e-5)).any())
            top |= bool((store._mean_density[minute] == 65504.0).any())
        assert subnormal and top


class TestV3Oracle:
    def test_the_oracle_is_v3s_blend_written_out_bit_for_bit(self):
        # The frozen v3 arithmetic: float32 mean and variance, each widened,
        # blended in float64 and rounded once to float32 when stored.
        rng = np.random.default_rng(5)
        store = V3Store(5, 3, t_l2_days=4.0)
        a, gain = store.alpha_l2, store._var_gain
        mean = _f32(rng.uniform(0, 2, (3, 5)))
        var = np.zeros((3, 5))
        store.update(0, _frame(mean), 1)
        for day in range(2, 9):
            x = rng.uniform(0, 2, (3, 5))
            assert store.update(0, _frame(x), day)
            dev = x - mean
            mean, var = _f32(a * mean + (1.0 - a) * x), _f32(a * var + gain * dev * dev)
        assert not store.update(0, _frame(x), 8)
        np.testing.assert_array_equal(store._mean[0], mean)
        np.testing.assert_array_equal(store._var[0], var)
        assert store.scalar_stats(0) == (float(mean.mean()), float(np.sqrt(var).mean()), 8)

    def test_a_v4_store_holds_the_oracle_within_float16_rounding(self):
        rng = np.random.default_rng(8)
        v3, v4 = V3Store(5, 3, t_l2_days=10.0), IsochronalStore("cam0", 5, 3)
        for day in range(30):
            x = rng.uniform(0, 0.2, (3, 5)) * rng.uniform(0, 1, (3, 5)) ** 4
            assert v3.update(0, _frame(x), day) and v4.update(0, _frame(x), day)
        mean, std, days = v4.query(0)
        np.testing.assert_allclose(mean.density, v3._mean[0], rtol=2e-3, atol=6e-8)
        np.testing.assert_allclose(std, np.sqrt(v3._var[0].astype(np.float64)), rtol=4e-3, atol=6e-8)
        assert days == 30

    def test_density_only_sample_updates_like_one_with_bins(self):
        rng = np.random.default_rng(6)
        with_bins, without = IsochronalStore("cam0", 3, 2), IsochronalStore("cam0", 3, 2)
        for _ in range(5):
            d = rng.uniform(0, 1, (2, 3))
            with_bins.update(9, MotionFrame(d, rng.uniform(0, 1, (2, 3, N_DIR_BINS))))
            without.update(9, MotionFrame(d, np.zeros((2, 3, 0))))
        assert with_bins.equals(without)
        bad = MotionFrame(np.full((2, 3), math.nan), np.zeros((2, 3, 0)))
        with pytest.raises(RejectedInputError, match="non-finite or negative"):
            without.update(9, bad)
        assert with_bins.equals(without)
        mean, _, _ = without.query(9)
        assert mean.dir_hist.shape == (2, 3, 0)

    def test_query_returns_snapshot(self):
        store = IsochronalStore("cam0", 1, 1)
        store.update(0, _frame([[1.0]]))
        mean, _, _ = store.query(0)
        mean.density[0, 0] = 99.0
        assert store.query(0)[0].density[0, 0] == 1.0


class TestDatedUpdate:
    """A dated sample blends with a' = a ** (days since the slot's last
    dated sample), and one on or before that day is refused."""

    def test_days_0_1_and_6_match_the_closed_form(self):
        rng = np.random.default_rng(14)
        store = IsochronalStore("cam0", 3, 2, t_l2_days=10)
        x0, x1, x6 = (rng.uniform(0, 2, (2, 3)) for _ in range(3))
        for day, x in ((0, x0), (1, x1), (6, x6)):
            assert store.update(9, _frame(x), day) is True
        mean, std = _f16(x0), np.zeros((2, 3))
        for a, x in ((store.alpha_l2, x1), (store.alpha_l2**5, x6)):
            dev = x - mean
            gain = (1.0 - a) * (1.0 + a) / 2.0
            mean, std = _f16(a * mean + (1.0 - a) * x), _f16(np.sqrt(a * std**2 + gain * (dev * dev)))
        got_mean, got_std, days = store.query(9)
        assert days == 3 and store._last_day[9] == 6
        np.testing.assert_array_equal(got_mean.density, mean)
        np.testing.assert_array_equal(got_std, std)

    def test_a_decay_span_of_absence_leaves_a_tenth_of_the_old_mean(self):
        store = IsochronalStore("cam0", 1, 1, t_l2_days=10)
        store.update(0, _frame([[5.0]]), 3)
        store.update(0, _frame([[1.0]]), 13)
        assert store.query(0)[0].density[0, 0] == pytest.approx(0.1 * 5.0 + 0.9 * 1.0, rel=1e-3)

    def test_a_refused_day_changes_nothing(self):
        store = _populated("cam0", 3, 2, seed=4)
        assert store.update(5, _frame(np.full((2, 3), 0.5)), 3)
        snapshot = IsochronalStore("cam0", 3, 2)
        snapshot._slots[...] = store._slots
        stats, mask = store.scalar_stats(5), store.binarize()
        for day in (3, 2, 0, np.int32(1)):
            assert store.update(5, _frame(np.full((2, 3), 9.0)), day) is False
        assert store.equals(snapshot)
        assert store.scalar_stats(5) is stats and store.binarize() is mask

    def test_an_undated_sample_keeps_the_last_day(self):
        dated, undated = IsochronalStore("cam0", 2, 1), IsochronalStore("cam0", 2, 1)
        for x, day in (([[1.0, 2.0]], 4), ([[3.0, 0.5]], None), ([[2.0, 2.0]], 5)):
            assert dated.update(8, _frame(x), day)
            undated.update(8, _frame(x))
        assert dated._last_day[8] == 5 and undated._last_day[8] == -1
        # Day 5 is one day after the last dated day, 4: it blends with a,
        # as the undated store's third sample does.
        for name in ("_mean_density", "_std", "_days"):
            np.testing.assert_array_equal(getattr(dated, name), getattr(undated, name))
        assert not dated.update(8, _frame([[0.0, 0.0]]), 5)

    def test_the_first_dated_sample_after_an_undated_history_blends_with_a(self):
        rng = np.random.default_rng(2)
        history, x = rng.uniform(0, 2, (3, 2, 3)), rng.uniform(0, 2, (2, 3))
        stores = IsochronalStore("cam0", 3, 2), IsochronalStore("cam0", 3, 2)
        for store, day in zip(stores, (None, 700)):
            for h in history:
                store.update(0, _frame(h))
            assert store.update(0, _frame(x), day)
        np.testing.assert_array_equal(stores[0]._mean_density, stores[1]._mean_density)
        np.testing.assert_array_equal(stores[0]._std, stores[1]._std)
        assert stores[1]._last_day[0] == 700 and stores[1].query(0)[2] == 4

    @pytest.mark.parametrize("day", [-1, 2.0, 2.5, True, "3", 2**31], ids=repr)
    def test_bad_day_rejected_before_any_change(self, day):
        store = _populated("cam0", 3, 2, seed=4)
        snapshot = IsochronalStore("cam0", 3, 2)
        snapshot._slots[...] = store._slots
        with pytest.raises(InvalidParameterError, match="day must be an integer >= 0"):
            store.update(5, _frame(np.ones((2, 3))), day)
        assert store.equals(snapshot)
        assert store.update(5, _frame(np.ones((2, 3))), 2**31 - 1)
        assert store._last_day[5] == 2**31 - 1


class TestBinarize:
    def test_all_zero_store(self):
        store = IsochronalStore("cam0", 3, 2)
        assert np.all(store.binarize(0.01) == 0)

    def test_single_support_point(self):
        store = IsochronalStore("cam0", 3, 2)
        d = np.zeros((2, 3))
        d[1, 2] = 5.0
        store.update(600, _frame(d))
        flags = store.binarize(0.01)
        expected = np.zeros((2, 3), dtype=np.uint8)
        expected[1, 2] = 1
        np.testing.assert_array_equal(flags, expected)

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(3)
        store = IsochronalStore("cam0", 4, 4)
        for minute in range(0, 1440, 97):
            store.update(minute, _frame(rng.uniform(0, 1, (4, 4))))
        previous = None
        for eps in (0.0, 0.1, 0.3, 0.7, 1.5):
            flags = store.binarize(eps)
            if previous is not None:
                assert np.all(flags <= previous)
            previous = flags

    def test_negative_or_nan_epsilon_rejected(self):
        store = IsochronalStore("cam0", 2, 2)
        for eps in (-1e-3, float("nan")):
            with pytest.raises(InvalidParameterError):
                store.binarize(eps)

    def test_negative_zero_beside_a_positive_value_in_one_block(self):
        # The block maxima come from float16 bit patterns, and -0.0's,
        # 0x8000, sort above every positive value's as unsigned integers.
        # update stores +0.0 in its place, but load admits -0.0 from a file,
        # so the store's memory may hold it beside a positive value.
        store = IsochronalStore("cam0", 3, 2)
        store.update(600, _frame(np.full((2, 3), 0.5)))
        for minute in (0, 599, 601, 1439):
            store._mean_density[minute] = -0.0
        store._mean_density[1439, 0, 0] = 0.25
        store._mean_density[600, 1, 2] = 0.0
        assert np.signbit(store._mean_density[599, 1, 1])
        expected = [[1, 1, 1], [1, 1, 0]]
        assert store.binarize(0.01).tolist() == expected
        assert store.binarize(0.0).tolist() == expected
        assert store.binarize(0.3).tolist() == [[1, 1, 1], [1, 1, 0]]
        assert store.binarize(0.5).tolist() == [[0, 0, 0], [0, 0, 0]]

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_float64_reduction(self, seed):
        # Random bit patterns of every finite float16 >= +0.0, and -0.0,
        # against each epsilon a stored value equals, those next to it, and
        # the ends of the range.
        rng = np.random.default_rng(seed)
        store = IsochronalStore("cam0", 4, 3)
        bits = store._mean_density.view(np.uint16)
        bits[...] = rng.integers(0, 0x7C00, bits.shape) >> rng.integers(0, 16, bits.shape)
        bits[rng.random(bits.shape) < 0.2] = 0x8000
        top = store._mean_density.astype(np.float64).max(axis=0)
        for eps in [0.0, 2.0**-24, 65504.0, *top.ravel(), *np.nextafter(top, 0.0).ravel()]:
            want = (store._mean_density.astype(np.float64).max(axis=0) > eps).astype(np.uint8)
            np.testing.assert_array_equal(store.binarize(float(eps)), want)


class TestBinarizeCache:
    def test_update_raising_a_slot_sets_its_block(self):
        store = IsochronalStore("cam0", 2, 1)
        assert store.binarize(0.01).tolist() == [[0, 0]]
        store.update(5, _frame([[0.0, 1.0]]))
        assert store.binarize(0.01).tolist() == [[0, 1]]

    def test_update_lowering_a_slot_clears_its_block(self):
        store = IsochronalStore("cam0", 2, 1)
        store.update(5, _frame([[0.0, 0.02]]))
        assert store.binarize(0.01).tolist() == [[0, 1]]
        while store.query(5)[0].density[0, 1] > 0.01:
            store.update(5, _frame([[0.0, 0.0]]))
            # The cache may only be reused while the slot is unchanged.
            expected = int(store.query(5)[0].density[0, 1] > 0.01)
            assert store.binarize(0.01).tolist() == [[0, expected]]
        assert store.binarize(0.01).tolist() == [[0, 0]]

    def test_other_epsilon_is_not_served_from_cache(self):
        store = IsochronalStore("cam0", 2, 1)
        store.update(5, _frame([[0.05, 0.5]]))
        assert store.binarize(0.01).tolist() == [[1, 1]]
        assert store.binarize(0.1).tolist() == [[0, 1]]
        assert store.binarize(0.01).tolist() == [[1, 1]]

    def test_mutating_a_returned_mask_leaves_the_store_alone(self):
        store = IsochronalStore("cam0", 2, 1)
        store.update(5, _frame([[0.0, 1.0]]))
        mask = store.binarize(0.01)
        with pytest.raises(ValueError, match="read-only"):
            mask[:] = 7
        assert store.binarize(0.01).tolist() == [[0, 1]]

    def test_freshly_loaded_store(self, tmp_path):
        store = IsochronalStore("cam0", 2, 1)
        store.update(5, _frame([[0.0, 1.0]]))
        path = tmp_path / "cam0.iso"
        store.save(path)
        loaded = IsochronalStore.load(path)
        assert loaded.binarize(0.01).tolist() == [[0, 1]]
        loaded.update(6, _frame([[1.0, 0.0]]))
        assert loaded.binarize(0.01).tolist() == [[1, 1]]
        assert store.binarize(0.01).tolist() == [[0, 1]]


def _uncached_stats(store, minute):
    mean, std, days = store.query(minute)
    return float(mean.density.mean()), float(std.mean()), days


class TestScalarStatsCache:
    def _store(self):
        rng = np.random.default_rng(9)
        store = IsochronalStore("cam0", 3, 2)
        for _ in range(4):
            for m in (5, 6, 7):
                store.update(m, _frame(rng.uniform(0, 1, (2, 3))))
        return store

    def test_update_changes_only_that_minutes_stats(self):
        store = self._store()
        before = {m: store.scalar_stats(m) for m in (5, 6, 7, 8)}
        store.update(6, _frame(np.full((2, 3), 0.9)))
        after = {m: store.scalar_stats(m) for m in (5, 6, 7, 8)}
        assert after[6] != before[6]
        assert after[6][2] == before[6][2] + 1
        assert after[6] == _uncached_stats(store, 6)
        for m in (5, 7, 8):
            assert after[m] == before[m]

    def test_cached_values_equal_the_uncached_expression(self):
        store = self._store()
        for m in (5, 6, 7, 8):
            first = store.scalar_stats(m)
            assert first == _uncached_stats(store, m)
            assert store.scalar_stats(m) is first  # served from the cache
        # Bit for bit, against the store's own arrays widened to float64.
        mean = float(store._mean_density[7].astype(np.float64).mean())
        std = float(store._std[7].astype(np.float64).mean())
        assert store.scalar_stats(7) == (mean, std, 4)

    def test_freshly_loaded_store(self, tmp_path):
        store = self._store()
        cached = {m: store.scalar_stats(m) for m in (5, 6, 7, 8)}
        path = tmp_path / "cam0.iso"
        store.save(path)
        loaded = IsochronalStore.load(path)
        assert {m: loaded.scalar_stats(m) for m in (5, 6, 7, 8)} == cached
        loaded.update(5, _frame(np.zeros((2, 3))))
        assert loaded.scalar_stats(5) == _uncached_stats(loaded, 5)
        assert store.scalar_stats(5) == cached[5]

    def test_minute_range_still_checked(self):
        store = self._store()
        for bad in (-1, MINUTES_PER_DAY):
            with pytest.raises(InvalidParameterError):
                store.scalar_stats(bad)


class TestPersistence:
    def test_fresh_round_trip(self, tmp_path):
        store = IsochronalStore("camA", 2, 2)
        path = tmp_path / "camA.iso"
        store.save(path)
        assert IsochronalStore.load(path).equals(store)

    def test_populated_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        store = IsochronalStore("hallway-3", 3, 2, t_l2_days=10)
        for day in range(10):
            for minute in range(0, 1440, 13):
                store.update(minute, _frame(rng.uniform(0, 2, (2, 3))))
        path = tmp_path / "store.iso"
        store.save(path)
        loaded = IsochronalStore.load(path)
        assert loaded.equals(store)
        # Save again: byte-identical file.
        path2 = tmp_path / "store2.iso"
        loaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_truncated_file_rejected_whole(self, tmp_path):
        store = IsochronalStore("cam0", 2, 2)
        store.update(0, _frame([[1.0, 2.0], [3.0, 4.0]]))
        path = tmp_path / "s.iso"
        store.save(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(StoreLoadError, match="checksum|truncated"):
            IsochronalStore.load(path)

    def test_corrupt_magic_rejected(self, tmp_path):
        store = IsochronalStore("cam0", 1, 1)
        path = tmp_path / "s.iso"
        store.save(path)
        data = bytearray(path.read_bytes())
        data[0] = 0x58
        path.write_bytes(bytes(data))
        with pytest.raises(StoreLoadError):
            IsochronalStore.load(path)

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        store = IsochronalStore("cam0", 1, 1)
        path = tmp_path / "s.iso"
        store.save(path)
        data = bytearray(path.read_bytes())
        data[100] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(StoreLoadError, match="checksum"):
            IsochronalStore.load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(StoreLoadError, match="cannot read"):
            IsochronalStore.load(tmp_path / "absent.iso")

    @pytest.mark.parametrize(
        "camera_id",
        [5, None, b"cam0", "x" * 70_000, "\u00e9" * 32_768, "ok\udcff"],
        ids=["int", "none", "bytes", "70000-chars", "65536-bytes", "lone-surrogate"],
    )
    def test_a_camera_id_save_cannot_write_is_refused_when_built(self, camera_id):
        # Each built, and failed only at its first save, with
        # AttributeError, struct.error or UnicodeEncodeError.
        with pytest.raises(InvalidParameterError, match="camera id"):
            IsochronalStore(camera_id, 5, 4)

    @pytest.mark.parametrize("camera_id", ["", "x" * 65_535, "\u00e9" * 32_767 + "x"], ids=["empty", "65535-chars", "65535-bytes"])
    def test_the_longest_camera_id_round_trips(self, tmp_path, camera_id):
        store = IsochronalStore(camera_id, 2, 1)
        store.save(tmp_path / "s.iso")
        assert IsochronalStore.load(tmp_path / "s.iso").camera_id == camera_id


def _traced_peak(call):
    """``call()``'s result and the peak bytes allocated while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSlotLayout:
    """The slot array is the store: load keeps the file's slot bytes and
    save writes them, each without a second copy."""

    def _saved(self, tmp_path, seed=0):
        store = IsochronalStore("cam0", 40, 30)
        rng = np.random.default_rng(seed)
        for minute in (0, 1, 599, 600, 1439):
            store.update(minute, _frame(rng.uniform(0, 2, (30, 40))))
        path = tmp_path / f"s{seed}.iso"
        store.save(path)
        return store, path

    def test_load_peak_is_about_the_file_size(self, tmp_path):
        store, path = self._saved(tmp_path)
        loaded, peak = _traced_peak(lambda: IsochronalStore.load(path))
        assert loaded.equals(store)
        assert peak <= 1.01 * path.stat().st_size + 64 * 1024

    def test_save_peak_is_under_a_megabyte(self, tmp_path):
        store, path = self._saved(tmp_path)
        _, peak = _traced_peak(lambda: store.save(tmp_path / "again.iso"))
        assert peak < 1_000_000
        assert (tmp_path / "again.iso").read_bytes() == path.read_bytes()

    def test_rewriting_the_file_in_place_leaves_a_loaded_store_alone(self, tmp_path):
        store, path = self._saved(tmp_path)
        _, other = self._saved(tmp_path, seed=1)
        loaded = IsochronalStore.load(path)
        with open(path, "r+b") as f:
            f.write(other.read_bytes())
        assert loaded.equals(store)
        assert not IsochronalStore.load(path).equals(store)

    def test_two_loads_share_no_memory(self, tmp_path):
        store, path = self._saved(tmp_path)
        first, second = IsochronalStore.load(path), IsochronalStore.load(path)
        for name in ("_mean_density", "_std", "_days", "_last_day"):
            assert not np.shares_memory(getattr(first, name), getattr(second, name))
        first.update(5, _frame(np.ones((30, 40))))
        assert second.equals(store)


class _StoreDamage:
    """Damaged files of one format version, each behind a valid CRC where
    the CRC is not what the case tests."""

    VERSION = 0
    SLOT = _slot_dtype(3, 2)  # a record of the saved stores
    SPREAD = "std"  # the record's field that holds the density's spread

    def _saved(self, tmp_path):
        raise NotImplementedError

    def _rejected(self, path, match):
        """Loading ``path``, damaged past its version field, fails the check
        that ``match`` names."""
        with pytest.raises(StoreLoadError, match=match):
            IsochronalStore.load(path)

    def test_flipped_byte_anywhere_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        data = path.read_bytes()
        for pos in (0, 5, 10, 17, 30, len(data) // 2, len(data) - 5, len(data) - 1):
            damaged = bytearray(data)
            damaged[pos] ^= 0x01
            path.write_bytes(bytes(damaged))
            with pytest.raises(StoreLoadError, match="checksum"):
                IsochronalStore.load(path)

    @pytest.mark.parametrize("keep", [0, 3, 9, 20, -4, -1])
    def test_truncated_file_rejected(self, tmp_path, keep):
        path = self._saved(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:keep] if keep >= 0 else data[:keep])
        with pytest.raises(StoreLoadError, match="checksum|truncated"):
            IsochronalStore.load(path)

    def test_bad_version_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        for version in (0, 1, 2, 3, 5, 0xFFFF):
            _rewrite(path, lambda b: b.__setitem__(slice(4, 6), struct.pack("<H", version)))
            with pytest.raises(StoreLoadError, match=f"unsupported store version {version}"):
                IsochronalStore.load(path)

    def test_slots_of_the_other_version_rejected(self, tmp_path):
        # Only version 4 is read: v1, v2 and v3 slots labelled 4 fail the
        # size check, and v4 slots labelled 1, 2 or 3 the version check.
        path = self._saved(tmp_path)
        for other in sorted({1, 2, 3, 4} - {self.VERSION}):
            _rewrite(path, lambda b: b.__setitem__(slice(4, 6), struct.pack("<H", other)))
            with pytest.raises(
                StoreLoadError, match="payload bytes" if other == 4 else f"store version {other} "
            ):
                IsochronalStore.load(path)

    def test_bad_magic_with_valid_checksum_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        _rewrite(path, lambda b: b.__setitem__(slice(0, 4), b"ISO2"))
        with pytest.raises(StoreLoadError, match="bad magic"):
            IsochronalStore.load(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda b: b.extend(b"\0"),  # one byte too many
            lambda b: b.__delitem__(slice(-3, None)),  # last slot's days cut short
            # grid_h 2 -> 3; it sits after magic, version, decay, id length, "cam0", grid_w
            lambda b: b.__setitem__(slice(22, 24), struct.pack("<H", 3)),
        ],
        ids=["extra-byte", "short-slot", "wrong-grid"],
    )
    def test_wrong_payload_size_rejected(self, tmp_path, edit):
        path = self._saved(tmp_path)
        _rewrite(path, edit)
        self._rejected(path, "payload bytes")

    @pytest.mark.parametrize("span", [math.nan, math.inf])
    def test_non_finite_decay_span_rejected(self, tmp_path, span):
        path = self._saved(tmp_path)
        _rewrite(path, lambda b: b.__setitem__(slice(6, 14), struct.pack("<d", span)))
        self._rejected(path, "bad header.*duration must be finite")

    @pytest.mark.parametrize(
        "field, value",
        [("density", math.nan), ("spread", -5.0), ("spread", math.inf), ("spread", -math.inf)],
        ids=["nan-mean", "negative-spread", "inf-spread", "minus-inf-spread"],
    )
    def test_bad_slot_value_rejected(self, tmp_path, field, value):
        # Behind a valid CRC, these loaded and read (nan, nan, 1) from
        # scalar_stats(600).
        path = self._saved(tmp_path)
        self._set_value(path, 600, field, 4, value)
        self._rejected(path, f"{re.escape(str(path))} .* at minute 600$")

    def _set_value(self, path, minute, field, block, value):
        """Write ``value`` as ``block``'s entry of ``field`` ("spread" for
        the std or variance) in ``minute``'s record, in the field's own
        width. The saved stores are 3x2 with the id "cam0": a 24-byte
        header, which needs no padding."""
        dtype, offset = self.SLOT.fields[self.SPREAD if field == "spread" else field][:2]
        at = 24 + minute * self.SLOT.itemsize + offset + dtype.base.itemsize * block
        raw = np.array(value, dtype.base).tobytes()
        _rewrite(path, lambda b: b.__setitem__(slice(at, at + len(raw)), raw))

    @pytest.mark.parametrize(
        "rest",
        [
            struct.pack("<H", 50) + b"cam",  # cut inside the camera id
            struct.pack("<H", 3) + b"cam" + struct.pack("<H", 2),  # cut inside the grid dims
            struct.pack("<H", 2) + b"\xff\xfe" + struct.pack("<HH", 1, 1),  # id not UTF-8
            struct.pack("<H", 1) + b"c" + struct.pack("<HH", 0, 1),  # empty grid
        ],
        ids=["short-id", "short-grid", "bad-utf8", "zero-grid"],
    )
    def test_bad_header_with_valid_checksum_rejected(self, tmp_path, rest):
        path = tmp_path / "s.iso"
        payload = b"ISO1" + struct.pack("<Hd", self.VERSION, 10.0) + rest
        path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload)))
        self._rejected(path, "bad header")


class TestPersistenceAgainstReference(_StoreDamage):
    """``save`` writes v4 as the per-slot v4 writer does, and ``load``
    reads what that writer wrote. The damage cases run on v4."""

    VERSION = 4
    STORES = [
        ("fresh", lambda: IsochronalStore("camA", 2, 2)),
        ("one-block", lambda: _populated("c", 1, 1, seed=1)),
        ("wide", lambda: _populated("hallway-3", 7, 3, seed=2, t_l2_days=3.5)),
        ("unicode-id", lambda: _populated("caméra-β", 4, 5, seed=3)),
        ("empty-id", lambda: _populated("", 2, 3, seed=5)),
    ]

    @pytest.mark.parametrize("make", [m for _, m in STORES], ids=[n for n, _ in STORES])
    def test_save_is_byte_identical_to_reference(self, tmp_path, make):
        store = make()
        store.save(tmp_path / "new.iso")
        _reference_save_v4(store, tmp_path / "ref.iso")
        data = (tmp_path / "new.iso").read_bytes()
        assert data == (tmp_path / "ref.iso").read_bytes()
        header = 20 + len(store.camera_id.encode("utf-8"))
        header += -header % 8
        cells = store.grid_w * store.grid_h
        assert len(data) == header + MINUTES_PER_DAY * (4 * cells + 8) + 4

    @pytest.mark.parametrize("make", [m for _, m in STORES], ids=[n for n, _ in STORES])
    def test_load_equals_reference_load(self, tmp_path, make):
        # A file from the per-slot writer loads as the store it was written
        # from.
        store = make()
        path = tmp_path / "ref.iso"
        _reference_save_v4(store, path)
        loaded = IsochronalStore.load(path)
        assert loaded.equals(store)
        for name in ("_mean_density", "_std", "_days", "_last_day"):
            got, want = getattr(loaded, name), getattr(store, name)
            assert got.dtype == want.dtype and got.flags.writeable and got.flags.aligned
            assert not np.shares_memory(got, want)
        # Saving it again writes the same bytes.
        loaded.save(tmp_path / "again.iso")
        assert (tmp_path / "again.iso").read_bytes() == path.read_bytes()
        loaded.update(0, _frame(np.ones((store.grid_h, store.grid_w))))
        assert loaded.query(0)[2] == store.query(0)[2] + 1

    @pytest.mark.parametrize("make", [m for _, m in STORES], ids=[n for n, _ in STORES])
    def test_loaded_store_updated_and_saved_matches_reference(self, tmp_path, make):
        # The updates land in the slot array that load kept from the file.
        store = make()
        store.save(tmp_path / "s.iso")
        loaded = IsochronalStore.load(tmp_path / "s.iso")
        rng = np.random.default_rng(len(store.camera_id))
        for minute, day in ((0, None), (1, 7), (600, 7), (1439, None), (600, 9)):
            loaded.update(minute, _frame(rng.uniform(0, 2, (store.grid_h, store.grid_w))), day)
        assert loaded.query(600)[2] == store.query(600)[2] + 2
        assert loaded._last_day[600] == 9
        loaded.save(tmp_path / "new.iso")
        _reference_save_v4(loaded, tmp_path / "ref.iso")
        assert (tmp_path / "new.iso").read_bytes() == (tmp_path / "ref.iso").read_bytes()
        assert IsochronalStore.load(tmp_path / "new.iso").equals(loaded)

    def test_negative_zero_mean_loads(self, tmp_path):
        path = self._saved(tmp_path)
        self._set_value(path, 600, "density", 4, -0.0)
        loaded = IsochronalStore.load(path)
        assert math.copysign(1.0, loaded._mean_density[600, 1, 1]) == -1.0

    @pytest.mark.parametrize("last_day", [-2, -(2**31)])
    def test_last_day_below_minus_one_rejected(self, tmp_path, last_day):
        path = self._saved(tmp_path)
        self._set_value(path, 600, "last_day", 0, last_day)
        self._rejected(path, f"{re.escape(str(path))} has a last day below -1 at minute 600$")
        self._set_value(path, 600, "last_day", 0, -1)
        assert IsochronalStore.load(path)._last_day[600] == -1

    def test_non_zero_header_padding_rejected(self, tmp_path):
        # The id "c" leaves 21 header bytes: three zero bytes pad it to 24.
        path = tmp_path / "s.iso"
        _populated("c", 3, 2, seed=9).save(path)
        assert Path(path).read_bytes()[21:24] == bytes(3)
        for pos in (21, 23):
            _rewrite(path, lambda b: b.__setitem__(pos, 1))
            self._rejected(path, "bad header.*padding is not 3 zero bytes")
            _rewrite(path, lambda b: b.__setitem__(pos, 0))
        IsochronalStore.load(path)

    def _saved(self, tmp_path):
        path = tmp_path / "s.iso"
        _populated("cam0", 3, 2, seed=9).save(path)
        return path


@pytest.mark.parametrize("grid_w, grid_h", [(5, 3), (1, 1), (7, 1), (4, 3)])
@pytest.mark.parametrize("id_bytes", range(1, 10))
def test_every_field_of_a_loaded_store_is_aligned(tmp_path, id_bytes, grid_w, grid_h):
    # Version 2 kept packed float64 records of 16 * cells + 4 bytes after an
    # unpadded header, so most of these fields sat off alignment. A v4
    # record of 4 * cells + 8 bytes is 4 mod 8 bytes for an odd cell count,
    # so record k starts 4 * k bytes off a multiple of 8; every field needs
    # at most 4-byte alignment and starts at a multiple of its own width
    # within the record, so each stays aligned for every id.
    cells = grid_w * grid_h
    slot = _slot_dtype(grid_w, grid_h)
    assert slot.itemsize == 4 * cells + 8 and slot.itemsize % 8 == (4 if cells % 2 else 0)
    store = _populated("c" * id_bytes, grid_w, grid_h, seed=id_bytes)
    store.save(tmp_path / "s.iso")
    loaded = IsochronalStore.load(tmp_path / "s.iso")
    assert loaded.equals(store)
    for name in slot.names:
        assert store._slots[name].flags.aligned
        assert loaded._slots[name].flags.aligned, name
    assert loaded._mean_density.flags.aligned and loaded._std.flags.aligned


def test_a_failed_save_leaves_no_temp_file(tmp_path, monkeypatch):
    store = _populated("cam0", 3, 2, seed=9)
    store.save(tmp_path / "s.iso")
    before = sorted(tmp_path.iterdir())

    def fail(self, target):
        raise OSError("disk full")

    monkeypatch.setattr(Path, "replace", fail)
    store.update(5, _frame(np.ones((2, 3))))
    with pytest.raises(OSError, match="disk full"):
        store.save(tmp_path / "s.iso")
    assert sorted(tmp_path.iterdir()) == before
    monkeypatch.undo()
    assert not IsochronalStore.load(tmp_path / "s.iso").equals(store)


class TestV3FileDamage(_StoreDamage):
    """Version 3 files, whose records held float32 means and variances,
    are no longer read. As for versions 1 and 2, damage that a check
    before the version check catches is still reported as that damage;
    the rest is reported as the version."""

    VERSION = 3
    SLOT = np.dtype([("density", "<f4", (2, 3)), ("var", "<f4", (2, 3)), ("days", "<u4"), ("last_day", "<i4")])
    SPREAD = "var"

    def _saved(self, tmp_path):
        path = tmp_path / "s.iso"
        _reference_save_v3(_populated("cam0", 3, 2, seed=9), path)
        return path

    def _rejected(self, path, match):
        with pytest.raises(StoreLoadError, match="unsupported store version 3 "):
            IsochronalStore.load(path)


class TestV2FileDamage(_StoreDamage):
    """Version 2 files, whose records held float64 means and variances
    and no last day, are no longer read. As for version 1, damage that a
    check before the version check catches is still reported as that
    damage; the rest is reported as the version."""

    VERSION = 2
    SLOT = np.dtype([("density", "<f8", (2, 3)), ("var", "<f8", (2, 3)), ("days", "<u4")])
    SPREAD = "var"

    def _saved(self, tmp_path):
        path = tmp_path / "s.iso"
        _reference_save_v2(_populated("cam0", 3, 2, seed=9), path)
        return path

    def _rejected(self, path, match):
        with pytest.raises(StoreLoadError, match="unsupported store version 2 "):
            IsochronalStore.load(path)


class TestV1FileDamage(_StoreDamage):
    """Version 1 files, whose records also held direction bins, are no
    longer read. Damage that a check before the version check catches is
    still reported as that damage; the rest is reported as the version."""

    VERSION = 1
    SLOT = np.dtype(
        [("density", "<f8", (2, 3)), ("hist", "<f8", (2, 3, N_DIR_BINS)), ("var", "<f8", (2, 3)), ("days", "<u4")]
    )
    SPREAD = "var"

    def _saved(self, tmp_path):
        path = tmp_path / "s.iso"
        _reference_save(_with_bins(_populated("cam0", 3, 2, seed=9)), path)
        return path

    def _rejected(self, path, match):
        with pytest.raises(StoreLoadError, match="unsupported store version 1 "):
            IsochronalStore.load(path)
