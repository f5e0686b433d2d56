import numpy as np
import pytest

from motionbands.errors import InvalidParameterError, RejectedInputError, StoreLoadError
from motionbands.filters import alpha_from_decay
from motionbands.isochron import MINUTES_PER_DAY, IsochronalStore, minute_of_day
from motionbands.motion import MotionFrame


def _frame(density, t=0):
    d = np.atleast_2d(np.asarray(density, dtype=float))
    hist = np.zeros(d.shape + (8,))
    hist[..., 0] = d
    return MotionFrame(density=d, dir_hist=hist, timestamp_ms=t)


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
                mean = alpha * mean + (1 - alpha) * x
                dev = x - mean
                var = alpha * var + (1 - alpha) * dev * dev
        got_mean, got_std, _ = store.query(7)
        assert got_mean.density[0, 0] == pytest.approx(mean, abs=1e-6)
        assert got_std[0, 0] == pytest.approx(var**0.5, abs=1e-6)

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
                mean = alpha * mean + (1 - alpha) * sample
                dev = sample - mean
                var = alpha * var + (1 - alpha) * dev * dev
        got_mean, got_std, days = store.query(0)
        assert days == 20
        np.testing.assert_allclose(got_mean.density, mean, atol=1e-12)
        np.testing.assert_allclose(got_std, np.sqrt(var), atol=1e-12)

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

    def test_grid_mismatch_rejected(self):
        store = IsochronalStore("cam0", 2, 2)
        with pytest.raises(RejectedInputError):
            store.update(0, _frame([[1.0]]))

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


class TestProfileCsv:
    def test_header_and_length(self):
        store = IsochronalStore("cam0", 1, 1)
        store.update(10, _frame([[2.0]]))
        csv = store.profile_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "minute,mean_activity,std_activity"
        assert len(lines) == 1 + 1440
        assert lines[11].startswith("10,2.0,")
