import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionbands.errors import InvalidParameterError, RejectedInputError
from motionbands.motion import (
    _OCTANT,
    GrayFrame,
    MotionFrame,
    _magnitude_and_octant,
    extract_motion,
    motion_from_json,
    motion_to_json,
    read_pgm,
    write_pgm,
)
from motionbands.sim import gen_blob_frames

SOBEL_MAX = 4.0 * math.sqrt(2.0) * 255.0


def _oracle_features(prev, curr, block_size, noise_floor):
    """Plain-loop reimplementation of the block feature definition."""
    p = prev.astype(float)
    c = curr.astype(float)
    h, w = p.shape
    avg = (p + c) / 2.0
    gh = math.ceil(h / block_size)
    gw = math.ceil(w / block_size)
    dens = np.zeros((gh, gw))
    hist = np.zeros((gh, gw, 8))
    counts = np.zeros((gh, gw))

    def px(img, r, col):
        r = min(max(r, 0), h - 1)
        col = min(max(col, 0), w - 1)
        return img[r, col]

    for r in range(h):
        for col in range(w):
            counts[r // block_size, col // block_size] += 1
    for r in range(h):
        for col in range(w):
            d = abs(c[r, col] - p[r, col])
            if d < noise_floor:
                continue
            gx = (
                px(avg, r - 1, col + 1) + 2 * px(avg, r, col + 1) + px(avg, r + 1, col + 1)
                - px(avg, r - 1, col - 1) - 2 * px(avg, r, col - 1) - px(avg, r + 1, col - 1)
            )
            gy = (
                px(avg, r + 1, col - 1) + 2 * px(avg, r + 1, col) + px(avg, r + 1, col + 1)
                - px(avg, r - 1, col - 1) - 2 * px(avg, r - 1, col) - px(avg, r - 1, col + 1)
            )
            gmag = math.hypot(gx, gy)
            weight = (d / 255.0) * (gmag / SOBEL_MAX)
            if weight == 0:
                continue
            by, bx = r // block_size, col // block_size
            dens[by, bx] += weight
            sign = 1.0 if c[r, col] > p[r, col] else -1.0
            vx = -sign * gx
            vy = sign * gy  # y measured upward
            ang = math.atan2(vy, vx)
            b = int(round(ang / (math.pi / 4))) % 8
            hist[by, bx, b] += weight
    return dens / counts, hist / counts[..., None]


def _reference_sobel(img):
    p = np.pad(img, 1, mode="edge")
    gx = (p[:-2, 2:] + 2.0 * p[1:-1, 2:] + p[2:, 2:]) - (
        p[:-2, :-2] + 2.0 * p[1:-1, :-2] + p[2:, :-2]
    )
    gy = (p[2:, :-2] + 2.0 * p[2:, 1:-1] + p[2:, 2:]) - (
        p[:-2, :-2] + 2.0 * p[:-2, 1:-1] + p[:-2, 2:]
    )
    return gx, gy


def _reference_extract(prev, curr, block_size, noise_floor):
    """Full-frame float64 extraction, kept as the oracle for the
    active-pixel implementation: (density, dir_hist)."""
    p = prev.astype(np.float64)
    c = curr.astype(np.float64)
    h, w = c.shape

    signed = c - p
    diff = np.abs(signed)
    diff[diff < noise_floor] = 0.0

    gx, gy = _reference_sobel((p + c) * 0.5)
    gmag = np.hypot(gx, gy)
    weight = (diff / 255.0) * (gmag / SOBEL_MAX)

    grid_h = -(-h // block_size)
    grid_w = -(-w // block_size)
    brow = np.arange(h) // block_size
    bcol = np.arange(w) // block_size
    flat = (brow[:, None] * grid_w + bcol[None, :]).ravel()

    counts = np.bincount(flat, minlength=grid_h * grid_w).astype(np.float64)
    density = np.bincount(flat, weights=weight.ravel(), minlength=grid_h * grid_w)
    density = (density / counts).reshape(grid_h, grid_w)

    moving = weight.ravel() > 0.0
    hist = np.zeros(grid_h * grid_w * 8)
    if moving.any():
        vx = (-np.sign(signed) * gx).ravel()[moving]
        vy = (np.sign(signed) * gy).ravel()[moving]
        ang = np.arctan2(vy, vx)
        bins = np.round(ang / (math.pi / 4.0)).astype(np.int64) % 8
        idx = flat[moving] * 8 + bins
        hist = np.bincount(idx, weights=weight.ravel()[moving], minlength=hist.size)
    dir_hist = hist.reshape(grid_h, grid_w, 8) / counts.reshape(grid_h, grid_w, 1)
    return density, dir_hist


@st.composite
def _frame_pairs(draw):
    """(prev, curr) pixel arrays: identical, sparsely changed or dense random."""
    h = draw(st.integers(1, 70))
    w = draw(st.integers(1, 90))
    kind = draw(st.sampled_from(["identical", "sparse", "dense"]))
    dtype = draw(st.sampled_from([np.uint8, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def pixels():
        if dtype is np.uint8:
            return rng.integers(0, 256, (h, w)).astype(np.uint8)
        return rng.uniform(0, 255, (h, w))

    prev = pixels()
    if kind == "identical":
        curr = prev.copy()
    elif kind == "dense":
        curr = pixels()
    else:
        curr = prev.copy()
        changed = rng.random((h, w)) < 0.03
        curr[changed] = pixels()[changed]
    return prev, curr


def _gray(arr, t=0):
    return GrayFrame(pixels=np.asarray(arr, dtype=np.uint8), timestamp_ms=t)


class TestExtractMotion:
    def test_identical_frames_all_zero(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (48, 64), dtype=np.uint8)
        mf = extract_motion(_gray(img), _gray(img), block_size=16, noise_floor=0)
        assert np.all(mf.density == 0)
        assert np.all(mf.dir_hist == 0)

    def test_white_square_lights_only_overlapped_blocks(self):
        prev = np.zeros((64, 64), dtype=np.uint8)
        curr = prev.copy()
        curr[9 : 9 + 16, 21 : 21 + 16] = 255  # misaligned 16x16 square
        mf = extract_motion(_gray(prev), _gray(curr), block_size=16, noise_floor=0)

        overlapped = set()
        for r in range(9, 25):
            for col in range(21, 37):
                overlapped.add((col // 16, r // 16))
        for by in range(mf.grid_h):
            for bx in range(mf.grid_w):
                if (bx, by) in overlapped:
                    assert mf.density[by, bx] > 0, (bx, by)
                else:
                    assert mf.density[by, bx] == 0, (bx, by)

        dens, hist = _oracle_features(prev, curr, 16, 0)
        np.testing.assert_allclose(mf.density, dens, atol=1e-12)
        np.testing.assert_allclose(mf.dir_hist, hist, atol=1e-12)

    def test_rightward_disc_dominates_zero_degree_bin(self):
        frames = list(gen_blob_frames(96, 48, 6, radius=8.0, speed_px=5.0))
        prev, curr = frames[2], frames[3]
        mf = extract_motion(prev, curr, block_size=16, noise_floor=0)
        total = mf.dir_hist.sum(axis=(0, 1))
        assert total.argmax() == 0
        assert all(total[0] > total[b] for b in range(1, 8))

        _, hist = _oracle_features(prev.pixels, curr.pixels, 16, 0)
        np.testing.assert_allclose(mf.dir_hist, hist, atol=1e-12)

    def test_rightward_square_blob_votes_zero_degrees_per_block(self):
        # Square blob spanning exactly one block row: only its vertical
        # edges change under horizontal motion, so every crossed block
        # must vote the 0-degree bin.
        frames = list(
            gen_blob_frames(
                96, 48, 6, radius=7.5, speed_px=5.0, center_y=23.5, shape="square"
            )
        )
        prev, curr = frames[2], frames[3]
        mf = extract_motion(prev, curr, block_size=16, noise_floor=0)
        crossed = mf.density > 0
        assert crossed.any()
        assert np.all(mf.dir_hist[crossed].argmax(axis=1) == 0)

        _, hist = _oracle_features(prev.pixels, curr.pixels, 16, 0)
        np.testing.assert_allclose(mf.dir_hist, hist, atol=1e-12)

    def test_oracle_agreement_on_random_frames(self):
        rng = np.random.default_rng(42)
        prev = rng.integers(0, 256, (33, 41), dtype=np.uint8)  # truncated edge blocks
        curr = rng.integers(0, 256, (33, 41), dtype=np.uint8)
        mf = extract_motion(_gray(prev), _gray(curr), block_size=16, noise_floor=8)
        dens, hist = _oracle_features(prev, curr, 16, 8)
        np.testing.assert_allclose(mf.density, dens, atol=1e-12)
        np.testing.assert_allclose(mf.dir_hist, hist, atol=1e-12)

    def test_histogram_mass_equals_density(self):
        rng = np.random.default_rng(7)
        prev = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        curr = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        mf = extract_motion(_gray(prev), _gray(curr), block_size=8, noise_floor=4)
        np.testing.assert_allclose(mf.dir_hist.sum(axis=2), mf.density, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(RejectedInputError):
            extract_motion(_gray(np.zeros((8, 8))), _gray(np.zeros((8, 9))))

    def test_zero_block_size_rejected(self):
        f = _gray(np.zeros((8, 8)))
        with pytest.raises(InvalidParameterError):
            extract_motion(f, f, block_size=0)
        with pytest.raises(InvalidParameterError):
            extract_motion(f, f, noise_floor=-1)
        with pytest.raises(InvalidParameterError):
            extract_motion(f, f, noise_floor=math.nan)

    @given(
        pair=_frame_pairs(),
        block_size=st.one_of(st.sampled_from([1, 128]), st.integers(2, 40)),
        noise_floor=st.sampled_from([0, 0.5, 7.5, 8, 255]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_full_frame_reference(self, pair, block_size, noise_floor):
        prev, curr = pair
        mf = extract_motion(
            GrayFrame(prev), GrayFrame(curr), block_size=block_size, noise_floor=noise_floor
        )
        dens, hist = _reference_extract(prev, curr, block_size, noise_floor)
        np.testing.assert_allclose(mf.density, dens, rtol=0, atol=1e-9)
        np.testing.assert_allclose(mf.dir_hist, hist, rtol=0, atol=1e-9)

    @given(seed=st.integers(0, 2**31 - 1), floor=st.floats(0, 64))
    @settings(max_examples=25, deadline=None)
    def test_features_nonnegative(self, seed, floor):
        rng = np.random.default_rng(seed)
        prev = rng.integers(0, 256, (24, 24), dtype=np.uint8)
        curr = rng.integers(0, 256, (24, 24), dtype=np.uint8)
        mf = extract_motion(_gray(prev), _gray(curr), block_size=8, noise_floor=floor)
        assert np.all(mf.density >= 0)
        assert np.all(mf.dir_hist >= 0)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_density_monotone_in_noise_floor(self, seed):
        rng = np.random.default_rng(seed)
        prev = rng.integers(0, 256, (24, 24), dtype=np.uint8)
        curr = rng.integers(0, 256, (24, 24), dtype=np.uint8)
        low = extract_motion(_gray(prev), _gray(curr), block_size=8, noise_floor=4)
        high = extract_motion(_gray(prev), _gray(curr), block_size=8, noise_floor=32)
        assert np.all(high.density <= low.density + 1e-15)

    def test_zero_difference_property_any_frame(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            img = rng.integers(0, 256, (20, 28), dtype=np.uint8)
            mf = extract_motion(_gray(img), _gray(img), block_size=7, noise_floor=0)
            assert np.all(mf.density == 0) and np.all(mf.dir_hist == 0)


# |gx|, |gy| bound of the Sobel of the sum of two 8-bit frames: 4 * 510.
SOBEL_SUM_MAX = 2040


def _atan2_bins(vx, vy):
    """Direction bins as the full-frame reference computes them."""
    return np.round(np.arctan2(vy, vx) / (math.pi / 4.0)).astype(np.int64) & 7


def _integer_gradients(rows=256):
    """Every integer gradient pair in [-2040, 2040]^2, in int16 chunks of
    ``rows`` gx values by all gy values."""
    gy = np.arange(-SOBEL_SUM_MAX, SOBEL_SUM_MAX + 1, dtype=np.int16)
    for start in range(-SOBEL_SUM_MAX, SOBEL_SUM_MAX + 1, rows):
        gx = np.arange(start, min(start + rows, SOBEL_SUM_MAX + 1), dtype=np.int16)
        gxx, gyy = np.meshgrid(gx, gy, indexing="ij")
        yield gxx.ravel(), gyy.ravel()


class TestGradientArithmetic:
    def test_octant_equals_rounded_atan2_on_every_integer_gradient(self):
        checked = 0
        for gx, gy in _integer_gradients():
            # A zero gradient has zero weight, so its bin never counts.
            moving = (gx != 0) | (gy != 0)
            for sign in (1, -1):
                _, key = _magnitude_and_octant(gx, gy, np.full(gx.shape, sign < 0))
                want = _atan2_bins(-sign * gx.astype(np.int64), sign * gy.astype(np.int64))
                np.testing.assert_array_equal(_OCTANT[key][moving], want[moving])
                checked += int(moving.sum())
        assert checked == 2 * ((2 * SOBEL_SUM_MAX + 1) ** 2 - 1)

    def test_magnitude_within_one_ulp_of_hypot(self):
        for gx, gy in _integer_gradients():
            magnitude, _ = _magnitude_and_octant(gx, gy, np.zeros(gx.shape, dtype=bool))
            assert magnitude.dtype == np.float64
            want = np.hypot(gx.astype(np.float64), gy.astype(np.float64))
            assert np.all(np.abs(magnitude - want) <= np.spacing(want))

    def test_float_gradients_match_atan2_and_hypot(self):
        rng = np.random.default_rng(17)
        gx = rng.uniform(-SOBEL_SUM_MAX, SOBEL_SUM_MAX, 200_000)
        gy = rng.uniform(-SOBEL_SUM_MAX, SOBEL_SUM_MAX, 200_000)
        negative = rng.random(200_000) < 0.5
        magnitude, key = _magnitude_and_octant(gx, gy, negative)
        sign = np.where(negative, -1.0, 1.0)
        np.testing.assert_array_equal(_OCTANT[key], _atan2_bins(-sign * gx, sign * gy))
        np.testing.assert_allclose(magnitude, np.hypot(gx, gy), rtol=1e-15, atol=0)

    def test_direction_bins_bit_identical_on_integer_frames(self):
        # One moving pixel per block isolates each pixel's bin in the
        # histogram; the reference bins it with atan2.
        rng = np.random.default_rng(23)
        prev = rng.integers(0, 256, (64, 96), dtype=np.uint8)
        curr = prev.copy()
        curr[2::4, 1::4] = rng.integers(0, 256, curr[2::4, 1::4].shape)
        mf = extract_motion(_gray(prev), _gray(curr), block_size=4, noise_floor=1)
        _, hist = _reference_extract(prev, curr, 4, 1)
        np.testing.assert_array_equal(mf.dir_hist > 0, hist > 0)
        np.testing.assert_allclose(mf.dir_hist, hist, rtol=1e-14, atol=0)


class TestGrayFrame:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, -0.5, 255.5, 256.0])
    def test_bad_float_pixel_rejected(self, bad):
        px = np.full((4, 5), 100.0)
        px[2, 3] = bad
        with pytest.raises(RejectedInputError):
            GrayFrame(px)

    @pytest.mark.parametrize("bad", [-1, 256])
    def test_out_of_range_integer_pixel_rejected(self, bad):
        px = np.full((4, 5), 100, dtype=np.int64)
        px[0, 0] = bad
        with pytest.raises(RejectedInputError):
            GrayFrame(px)

    def test_non_numeric_pixels_rejected(self):
        with pytest.raises(RejectedInputError):
            GrayFrame(np.full((2, 2), 1 + 1j))

    def test_range_limits_accepted(self):
        for px in (np.array([[0.0, 255.0]]), np.array([[0, 255]]), np.array([[True, False]])):
            assert GrayFrame(px).pixels.shape == (1, 2)


class TestMotionFrame:
    @pytest.mark.parametrize("bins", [8, 0])
    def test_eight_or_no_bins_accepted(self, bins):
        f = MotionFrame(np.ones((2, 3)), np.ones((2, 3, bins)))
        assert f.dir_hist.shape == (2, 3, bins)

    @pytest.mark.parametrize("hist_shape", [(2, 3, 1), (2, 3, 7), (2, 3, 9), (3, 2, 8), (2, 3)])
    def test_other_histogram_shapes_rejected(self, hist_shape):
        with pytest.raises(RejectedInputError):
            MotionFrame(np.ones((2, 3)), np.ones(hist_shape))

    @pytest.mark.parametrize("bins", [8, 0])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300])
    def test_finite_nonnegative(self, bins, bad):
        f = MotionFrame(np.zeros((2, 3)), np.zeros((2, 3, bins)))
        assert f.finite_nonnegative()
        f.density[1, 2] = bad
        assert not f.finite_nonnegative()
        if bins:
            f.density[1, 2] = 0.0
            f.dir_hist[0, 1, 7] = bad
            assert not f.finite_nonnegative()


class TestInterchange:
    def test_jsonl_round_trip(self):
        rng = np.random.default_rng(2)
        f = MotionFrame(
            density=rng.uniform(0, 3, (2, 3)),
            dir_hist=rng.uniform(0, 1, (2, 3, 8)),
            timestamp_ms=1234,
        )
        line = motion_to_json(f)
        obj = json.loads(line)
        assert list(obj.keys()) == ["t", "gw", "gh", "blocks"]
        back, band = motion_from_json(line)
        assert band is None
        np.testing.assert_array_equal(back.density, f.density)
        np.testing.assert_array_equal(back.dir_hist, f.dir_hist)
        assert back.timestamp_ms == 1234

    def test_density_only_round_trip(self):
        f = MotionFrame(np.array([[0.25, 1.5]]), np.zeros((1, 2, 0)), timestamp_ms=9)
        back, band = motion_from_json(motion_to_json(f, band="L1"))
        assert band == "L1"
        np.testing.assert_array_equal(back.density, f.density)
        assert back.dir_hist.shape == (1, 2, 0)
        assert back.timestamp_ms == 9

    def test_blocks_with_unequal_bin_counts_rejected(self):
        line = motion_to_json(MotionFrame.zeros(2, 1))
        obj = json.loads(line)
        obj["blocks"][1][1] = [0.0]
        with pytest.raises(RejectedInputError):
            motion_from_json(json.dumps(obj))

    def test_band_label_round_trip(self):
        f = MotionFrame.zeros(2, 2, 7)
        _, band = motion_from_json(motion_to_json(f, band="S1"))
        assert band == "S1"

    def test_full_float_precision_survives(self):
        f = MotionFrame.zeros(1, 1)
        f.density[0, 0] = 0.123456789123456789
        back, _ = motion_from_json(motion_to_json(f))
        assert back.density[0, 0] == f.density[0, 0]

    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        frame = GrayFrame(rng.integers(0, 256, (13, 17), dtype=np.uint8), timestamp_ms=5)
        path = tmp_path / "frame.pgm"
        write_pgm(path, frame)
        back = read_pgm(path, timestamp_ms=5)
        np.testing.assert_array_equal(back.pixels, frame.pixels)
        assert back.timestamp_ms == 5
