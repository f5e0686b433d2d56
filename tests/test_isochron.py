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

from motionbands.config import alpha_from_decay
from motionbands.errors import InvalidParameterError, RejectedInputError, StoreLoadError
from motionbands.isochron import MINUTES_PER_DAY, IsochronalStore, _slot_dtype, minute_of_day
from motionbands.motion import N_DIR_BINS, MotionFrame


def _frame(density, t=0):
    d = np.atleast_2d(np.asarray(density, dtype=float))
    hist = np.zeros(d.shape + (8,))
    hist[..., 0] = d
    return MotionFrame(density=d, dir_hist=hist, timestamp_ms=t)


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
        _var=store._var,
        _days=store._days,
    )


def _reference_save_v2(store, path):
    """Per-slot writer of the v2 format: v1 without the bins."""
    buf = BytesIO()
    buf.write(b"ISO1")
    buf.write(struct.pack("<H", 2))
    buf.write(struct.pack("<d", store.t_l2_days))
    cam = store.camera_id.encode("utf-8")
    buf.write(struct.pack("<H", len(cam)))
    buf.write(cam)
    buf.write(struct.pack("<HH", store.grid_w, store.grid_h))
    for m in range(MINUTES_PER_DAY):
        buf.write(store._mean_density[m].astype("<f8").tobytes())
        buf.write(store._var[m].astype("<f8").tobytes())
        buf.write(struct.pack("<I", int(store._days[m])))
    payload = buf.getvalue()
    Path(path).write_bytes(payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


def _populated(camera_id, grid_w, grid_h, seed, t_l2_days=10.0):
    """A store with random samples on a scatter of minutes, some seen on
    several days, and random direction bins."""
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
            )
    return store


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
        # Plain-float oracle of the same blend.
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
                mean = alpha * mean + (1 - alpha) * x
                var = alpha * (var + (1 - alpha) * dev * dev)
        got_mean, got_std, _ = store.query(7)
        assert got_mean.density[0, 0] == pytest.approx(mean, abs=1e-6)
        assert got_std[0, 0] == pytest.approx((var * (1 + alpha) / (2 * alpha)) ** 0.5, abs=1e-6)

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
                mean = sample.copy()
            else:
                dev = sample - mean
                mean = alpha * mean + (1 - alpha) * sample
                var = alpha * (var + (1 - alpha) * dev * dev)
        got_mean, got_std, days = store.query(0)
        assert days == 20
        np.testing.assert_allclose(got_mean.density, mean, atol=1e-12)
        np.testing.assert_allclose(got_std, np.sqrt(var * (1 + alpha) / (2 * alpha)), atol=1e-12)

    def test_update_matches_the_blend_written_out_bit_for_bit(self):
        # The mean goes through the cascade's EMA, rounded as
        # a * mean + (1 - a) * x; odd minutes' records sit off alignment.
        rng = np.random.default_rng(5)
        store = IsochronalStore("cam0", 5, 3, t_l2_days=4.0)
        a, gain = store.alpha_l2, store._var_gain
        for minute in (0, 1):
            mean = rng.uniform(0, 2, (3, 5))
            var = np.zeros((3, 5))
            store.update(minute, _frame(mean))
            for _ in range(6):
                x = rng.uniform(0, 2, (3, 5))
                store.update(minute, _frame(x))
                dev = x - mean
                mean, var = a * mean + (1.0 - a) * x, a * var + gain * dev * dev
            np.testing.assert_array_equal(store._mean_density[minute], mean)
            np.testing.assert_array_equal(store._var[minute], var)

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
        post_impulse = store.query(0)[0].density[0, 0]
        for _ in range(10):
            store.update(0, _frame([[0.0]]))
        final = store.query(0)[0].density[0, 0]
        assert final / post_impulse == pytest.approx(0.1, abs=1e-9)

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
        before._var[...] = store._var
        before._days[...] = store._days
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
        # Bit for bit, against the store's own arrays.
        mean = float(store._mean_density[7].mean())
        std = float(np.sqrt(store._var[7]).mean())
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
        for name in ("_mean_density", "_var", "_days"):
            assert not np.shares_memory(getattr(first, name), getattr(second, name))
        first.update(5, _frame(np.ones((30, 40))))
        assert second.equals(store)


class _StoreDamage:
    """Damaged files of one format version, each behind a valid CRC where
    the CRC is not what the case tests."""

    VERSION = 0
    SLOT = _slot_dtype(3, 2)  # a record of the saved stores

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
        for version in (0, 1, 3, 0xFFFF):
            _rewrite(path, lambda b: b.__setitem__(slice(4, 6), struct.pack("<H", version)))
            with pytest.raises(StoreLoadError, match=f"unsupported store version {version}"):
                IsochronalStore.load(path)

    def test_slots_of_the_other_version_rejected(self, tmp_path):
        # Only version 2 is read: v1 slots labelled 2 fail the size check,
        # and v2 slots labelled 1 the version check.
        path = self._saved(tmp_path)
        other = 3 - self.VERSION
        _rewrite(path, lambda b: b.__setitem__(slice(4, 6), struct.pack("<H", other)))
        with pytest.raises(StoreLoadError, match="payload bytes" if other == 2 else "store version 1 "):
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
        [("density", math.nan), ("var", -5.0), ("var", math.inf)],
        ids=["nan-mean", "negative-var", "inf-var"],
    )
    def test_bad_slot_value_rejected(self, tmp_path, field, value):
        # Behind a valid CRC, these loaded and read (nan, nan, 1) from
        # scalar_stats(600).
        path = self._saved(tmp_path)
        at = self._value_offset(600, field, block=4)
        _rewrite(path, lambda b: b.__setitem__(slice(at, at + 8), struct.pack("<d", value)))
        self._rejected(path, f"{re.escape(str(path))} .* at minute 600$")

    def _value_offset(self, minute, field, block):
        # The saved stores are 3x2 with the id "cam0": a 24-byte header.
        return 24 + minute * self.SLOT.itemsize + self.SLOT.fields[field][1] + 8 * block

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
    """``save`` writes v2 as the per-slot v2 writer does, and ``load``
    reads what that writer wrote. The damage cases run on v2."""

    VERSION = 2
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
        _reference_save_v2(store, tmp_path / "ref.iso")
        data = (tmp_path / "new.iso").read_bytes()
        assert data == (tmp_path / "ref.iso").read_bytes()
        header = 20 + len(store.camera_id.encode("utf-8"))
        cells = store.grid_w * store.grid_h
        assert len(data) == header + MINUTES_PER_DAY * (16 * cells + 4) + 4

    @pytest.mark.parametrize("make", [m for _, m in STORES], ids=[n for n, _ in STORES])
    def test_load_equals_reference_load(self, tmp_path, make):
        # A file from the per-slot writer loads as the store it was written
        # from.
        store = make()
        path = tmp_path / "ref.iso"
        _reference_save_v2(store, path)
        loaded = IsochronalStore.load(path)
        assert loaded.equals(store)
        for name in ("_mean_density", "_var", "_days"):
            got, want = getattr(loaded, name), getattr(store, name)
            assert got.dtype == want.dtype and got.flags.writeable
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
        for minute in (0, 1, 600, 1439, 600):
            loaded.update(minute, _frame(rng.uniform(0, 2, (store.grid_h, store.grid_w))))
        assert loaded.query(600)[2] == store.query(600)[2] + 2
        loaded.save(tmp_path / "new.iso")
        _reference_save_v2(loaded, tmp_path / "ref.iso")
        assert (tmp_path / "new.iso").read_bytes() == (tmp_path / "ref.iso").read_bytes()
        assert IsochronalStore.load(tmp_path / "new.iso").equals(loaded)

    def test_negative_zero_mean_loads(self, tmp_path):
        path = self._saved(tmp_path)
        at = self._value_offset(600, "density", block=4)
        _rewrite(path, lambda b: b.__setitem__(slice(at, at + 8), struct.pack("<d", -0.0)))
        loaded = IsochronalStore.load(path)
        assert math.copysign(1.0, loaded._mean_density[600, 1, 1]) == -1.0

    def _saved(self, tmp_path):
        path = tmp_path / "s.iso"
        _populated("cam0", 3, 2, seed=9).save(path)
        return path


class TestV1FileDamage(_StoreDamage):
    """Version 1 files, whose records also held direction bins, are no
    longer read. Damage that a check before the version check catches is
    still reported as that damage; the rest is reported as the version."""

    VERSION = 1
    SLOT = np.dtype(
        [("density", "<f8", (2, 3)), ("hist", "<f8", (2, 3, N_DIR_BINS)), ("var", "<f8", (2, 3)), ("days", "<u4")]
    )

    def _saved(self, tmp_path):
        path = tmp_path / "s.iso"
        _reference_save(_with_bins(_populated("cam0", 3, 2, seed=9)), path)
        return path

    def _rejected(self, path, match):
        with pytest.raises(StoreLoadError, match="unsupported store version 1 "):
            IsochronalStore.load(path)
