import math
import os
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionbands.errors import InvalidParameterError, RejectedInputError
from motionbands.motion import (
    _FULL_FRAME_ONE_IN,
    _OCTANT,
    GrayFrame,
    MotionFrame,
    _in_density_range,
    _magnitude_and_octant,
    _octant_buffers,
    block_mean,
    extract_motion,
)

from inputs import blob_frames

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


def _reference_active_extract(prev, curr, block_size, noise_floor):
    """The active-pixel ``extract_motion`` before the per-shape extractor,
    frozen as the oracle for both Sobel paths: (density, dir_hist).
    Integer frames must match it bit for bit."""
    h, w = curr.shape
    integral = prev.dtype.kind in "biu" and curr.dtype.kind in "biu"
    work = np.int16 if integral else np.float64
    floor = math.ceil(min(noise_floor, 256.0)) if integral else noise_floor

    signed = np.subtract(curr, prev, dtype=work).ravel()
    active = np.flatnonzero(np.abs(signed) >= floor)
    signed = signed[active]

    total = np.empty((h + 2, w + 2), dtype=work)
    np.add(prev, curr, out=total[1:-1, 1:-1], dtype=work)
    total[0, 1:-1] = total[1, 1:-1]
    total[-1, 1:-1] = total[-2, 1:-1]
    total[:, 0] = total[:, 1]
    total[:, -1] = total[:, -2]
    total = total.ravel()
    index = np.int32 if len(_OCTANT) * h * w < 2**31 else np.intp
    flat = active.astype(index)
    row = flat // w
    wp = w + 2
    corner = (flat + 2 * row).astype(np.intp)
    nw, n, ne, west, east, sw, s, se = (
        total[k:][corner] for k in (0, 1, 2, wp, wp + 2, 2 * wp, 2 * wp + 1, 2 * wp + 2)
    )
    se -= nw
    ne -= sw
    east -= west
    east *= 2
    s -= n
    s *= 2
    gx = se + ne
    gx += east
    gy = se - ne
    gy += s

    # Magnitude and octant key, as ``_magnitude_and_octant`` computed them.
    wide = np.int32 if gx.dtype.kind == "i" else np.float64
    gx = gx.astype(wide)
    gy = gy.astype(wide)
    negative = signed < 0
    gx2 = gx * gx
    gy2 = gy * gy
    magnitude = (gx2 + gy2).astype(np.float64)
    np.sqrt(magnitude, out=magnitude)
    l1_sq = np.abs(gx)
    l1_sq += np.abs(gy)
    l1_sq *= l1_sq
    gx2 += gx2
    gy2 += gy2
    key = (l1_sq < gx2).view(np.uint8) * np.uint8(8)
    key += (l1_sq < gy2).view(np.uint8) * np.uint8(4)
    key += ((gx < 0) ^ negative).view(np.uint8) * np.uint8(2)
    key += (gy > 0) ^ negative

    weight = magnitude
    weight *= np.abs(signed)
    weight *= 0.5 / (255.0 * SOBEL_MAX)

    grid_h = -(-h // block_size)
    grid_w = -(-w // block_size)
    n_blocks = grid_h * grid_w
    flat -= row * w
    slot = row // block_size * grid_w + flat // block_size
    slot *= len(_OCTANT)
    slot += key
    per_key = np.bincount(slot, weights=weight, minlength=n_blocks * len(_OCTANT))
    hist = (per_key.reshape(n_blocks, len(_OCTANT)) @ np.eye(8)[_OCTANT]).reshape(
        grid_h, grid_w, 8
    )
    counts = np.outer(
        np.minimum(block_size, h - block_size * np.arange(grid_h)),
        np.minimum(block_size, w - block_size * np.arange(grid_w)),
    )
    return hist.sum(axis=2) / counts, hist / counts[..., None]


@st.composite
def _frame_pairs(draw):
    """(prev, curr) pixel arrays: identical, sparsely changed or dense random."""
    h = draw(st.integers(1, 70))
    w = draw(st.integers(1, 90))
    kind = draw(st.sampled_from(["identical", "sparse", "dense"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def pixels():
        return rng.integers(0, 256, (h, w)).astype(np.uint8)

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
        frames = blob_frames(96, 48, 6, radius=8.0, speed_px=5.0)
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
        frames = blob_frames(96, 48, 6, radius=7.5, speed_px=5.0, center_y=23.5, shape="square")
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

    @pytest.mark.parametrize("block_size", [2.5, 16.0, True], ids=["fraction", "float", "bool"])
    def test_block_size_that_is_not_an_integer_rejected(self, block_size):
        # A fractional block size reached numpy's floor division and raised
        # its UFuncTypeError in place of a parameter error.
        f = _gray(np.zeros((8, 8)))
        with pytest.raises(InvalidParameterError, match="block_size"):
            extract_motion(f, f, block_size=block_size)
        assert extract_motion(f, f, block_size=np.int64(4)).density.shape == (2, 2)

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



def _changed_pixels(shape, count, seed):
    """uint8 pair differing by 128 at exactly ``count`` pixels."""
    rng = np.random.default_rng(seed)
    prev = rng.integers(0, 256, shape).astype(np.uint8)
    curr = prev.copy().ravel()
    idx = rng.choice(curr.size, count, replace=False)
    curr[idx] += np.uint8(128)
    return prev, curr.reshape(shape)


def _vga_scene_pair(seed, flicker):
    """Two 480x640 frames of a fixed camera: smooth textured background,
    sensor noise, a moving disc and, with ``flicker``, a region of foliage
    (about half the frame) that changes every frame."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:480, 0:640]
    bg = 120 + 50 * np.sin(xx / 23.0) * np.cos(yy / 17.0) + rng.integers(-30, 31, (480, 640))
    foliage = ((xx - 320) / 300.0) ** 2 + ((yy - 240) / 210.0) ** 2 <= 1.0
    frames = []
    for k in range(2):
        img = bg + rng.integers(-3, 4, bg.shape)
        if flicker:
            img[foliage] += rng.integers(-40, 41, int(foliage.sum()))
        disc = (xx - 100 - 4 * k) ** 2 + (yy - 200) ** 2 <= 18**2
        img[disc] = 240
        frames.append(np.clip(img, 0, 255).astype(np.uint8))
    return frames


def _extract(prev, curr, block_size=16, noise_floor=8):
    mf = extract_motion(GrayFrame(prev), GrayFrame(curr), block_size, noise_floor)
    return mf.density, mf.dir_hist


def _assert_same(got, want):
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


class TestSobelPaths:
    """Both Sobel paths against the frozen active-pixel implementation, bit
    for bit on integer frames. Above one active pixel in
    ``_FULL_FRAME_ONE_IN`` the gradient is computed over the whole frame;
    at or below, from the neighbours of the active pixels."""

    @pytest.mark.parametrize("count", [480, 481])
    def test_either_side_of_the_full_frame_threshold(self, count):
        # 480 is exactly one pixel in _FULL_FRAME_ONE_IN of this frame.
        shape = (60, 8 * _FULL_FRAME_ONE_IN)
        prev, curr = _changed_pixels(shape, count, seed=count)
        for block_size in (7, 16):
            _assert_same(
                _extract(prev, curr, block_size),
                _reference_active_extract(prev, curr, block_size, 8),
            )

    def test_zero_noise_floor(self):
        rng = np.random.default_rng(31)
        prev = rng.integers(0, 256, (45, 70)).astype(np.uint8)
        curr = rng.integers(0, 256, (45, 70)).astype(np.uint8)
        _assert_same(_extract(prev, curr, 8, 0), _reference_active_extract(prev, curr, 8, 0))
        _assert_same(_extract(prev, prev, 8, 0), _reference_active_extract(prev, prev, 8, 0))

    @pytest.mark.parametrize("floor", [0, 8])
    def test_saturated_checkerboards_use_the_full_int16_range(self, floor):
        # Edges between 0 and 255 in both frames give |gx|, |gy| = 2040,
        # the largest Sobel response of the sum frame.
        yy, xx = np.mgrid[0:48, 0:64]
        prev = (255 * ((yy // 4 + xx // 4) % 2)).astype(np.uint8)
        curr = (255 * ((yy // 4 + (xx + 1) // 4) % 2)).astype(np.uint8)
        _assert_same(
            _extract(prev, curr, 16, floor), _reference_active_extract(prev, curr, 16, floor)
        )

    @pytest.mark.parametrize("flicker", [False, True])
    def test_vga_scenes(self, flicker):
        prev, curr = _vga_scene_pair(seed=5, flicker=flicker)
        active = np.mean(np.abs(curr.astype(int) - prev) >= 8)
        assert (active > 0.1) == flicker
        _assert_same(_extract(prev, curr), _reference_active_extract(prev, curr, 16, 8))


class TestPixelLayouts:
    """Any integer pixel dtype and memory layout gives the contiguous uint8
    result, bit for bit; float pixels are refused."""

    @pytest.fixture(params=[0.02, 0.5], ids=["sparse", "dense"])
    def pair(self, request):
        rng = np.random.default_rng(13)
        prev = rng.integers(0, 256, (37, 53)).astype(np.uint8)
        curr = prev.copy()
        changed = rng.random(prev.shape) < request.param
        curr[changed] = rng.integers(0, 256, int(changed.sum()))
        return prev, curr

    @pytest.mark.parametrize("dtype", [np.uint16, np.int32, np.int64])
    def test_integer_dtypes(self, pair, dtype):
        prev, curr = pair
        _assert_same(_extract(prev.astype(dtype), curr.astype(dtype)), _extract(prev, curr))

    def test_bool_pixels(self, pair):
        prev, curr = (p % 2 for p in pair)
        _assert_same(
            _extract(prev.astype(bool), curr.astype(bool), noise_floor=1),
            _extract(prev, curr, noise_floor=1),
        )

    def test_fortran_order_and_negative_strides(self, pair):
        prev, curr = pair
        want = _extract(prev, curr)
        _assert_same(_extract(np.asfortranarray(prev), np.asfortranarray(curr)), want)
        flipped = [p[::-1, ::-1].copy()[::-1, ::-1] for p in (prev, curr)]
        assert flipped[0].strides[0] < 0
        _assert_same(_extract(*flipped), want)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_float_frames_refused(self, pair, dtype):
        with pytest.raises(RejectedInputError, match="integers"):
            GrayFrame(pair[1].astype(dtype))


def _jumps(shape, where, seed):
    """uint8 pair on a random background where the pixels of ``where`` jump
    between 0 and 255, half of them each way."""
    rng = np.random.default_rng(seed)
    prev = rng.integers(0, 256, shape).astype(np.uint8)
    curr = prev.copy()
    rows, cols = np.nonzero(where)
    up = rng.random(rows.size) < 0.5
    prev[rows, cols] = np.where(up, 0, 255)
    curr[rows, cols] = np.where(up, 255, 0)
    return prev, curr


def _edges(shape, which):
    h, w = shape
    where = np.zeros(shape, bool)
    if which in ("first row", "ring"):
        where[0] = True
    if which in ("last row", "ring"):
        where[-1] = True
    if which in ("first column", "ring"):
        where[:, 0] = True
    if which in ("last column", "ring"):
        where[:, -1] = True
    if which == "corners":
        where[[0, 0, -1, -1], [0, -1, 0, -1]] = True
    return where


class TestNeighbourPathEdges:
    """The neighbour path reads its Sobel neighbours from the two pixel
    frames, clamped at the frame's edges, and thresholds in the pixel
    dtype. These cases pin it, bit for bit, against the frozen active-pixel
    implementation, whose edge-padded sum frame and int16 difference they
    can tell from a wrapped uint8 difference, an unclamped edge neighbour
    or a gather from an empty shifted view."""

    @pytest.mark.parametrize(
        "which", ["first row", "last row", "first column", "last column", "corners", "ring"]
    )
    @pytest.mark.parametrize("block_size", [1, 7, 16])
    def test_active_pixels_only_on_the_edges(self, which, block_size):
        shape = (40, 50)  # the ring is 176 of 2000 pixels
        where = _edges(shape, which)
        assert where.sum() * _FULL_FRAME_ONE_IN <= where.size
        prev, curr = _jumps(shape, where, seed=len(which))
        want = _reference_active_extract(prev, curr, block_size, 8)
        assert np.count_nonzero(want[0]) > 0
        _assert_same(_extract(prev, curr, block_size), want)

    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 40), (40, 1), (2, 2), (2, 30), (3, 3), (3, 41), (37, 3)]
    )
    @pytest.mark.parametrize("share", [0.02, 0.1, 0.5])
    def test_small_and_thin_frames(self, shape, share):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        for _ in range(5):
            where = rng.random(shape) < share
            where.flat[rng.integers(where.size)] = True
            prev, curr = _jumps(shape, where, seed=int(rng.integers(2**32)))
            for floor in (1, 8):
                _assert_same(
                    _extract(prev, curr, 2, floor),
                    _reference_active_extract(prev, curr, 2, floor),
                )

    def test_vga_frame_with_active_edges(self):
        shape = (480, 640)
        rng = np.random.default_rng(61)
        where = _edges(shape, "ring") | (rng.random(shape) < 0.01)
        prev, curr = _jumps(shape, where, seed=62)
        assert where.sum() * _FULL_FRAME_ONE_IN <= where.size
        _assert_same(_extract(prev, curr), _reference_active_extract(prev, curr, 16, 8))

    @pytest.mark.parametrize("floor", [1, 8, 255, 256, math.inf])
    def test_jumps_between_0_and_255(self, floor):
        # A uint8 curr - prev would wrap 0 - 255 to 1; the neighbour sum of
        # two 255s is 510. Floors above 255 leave no pixel active, which a
        # floor clamped into the uint8 range would not.
        shape = (30, 40)
        where = np.zeros(shape, bool)
        where[5:25:3, 4:36:5] = True
        where |= _edges(shape, "corners")
        prev, curr = _jumps(shape, where, seed=63)
        # Saturated neighbours: a 0 <-> 255 jump next to pixels at 255 in
        # both frames.
        prev[10:13, 20:23] = curr[10:13, 20:23] = 255
        prev[11, 21], curr[11, 21] = 0, 255
        want = _reference_active_extract(prev, curr, 8, floor)
        assert (np.count_nonzero(want[0]) > 0) == (floor <= 255)
        _assert_same(_extract(prev, curr, 8, floor), want)

    @pytest.mark.parametrize("dtype", [np.uint16, np.int64, bool])
    def test_other_pixel_dtypes(self, dtype):
        shape = (36, 45)
        rng = np.random.default_rng(64)
        where = _edges(shape, "ring") & (rng.random(shape) < 0.5) | (rng.random(shape) < 0.03)
        prev, curr = _jumps(shape, where, seed=65)
        if dtype is bool:
            prev, curr = prev > 127, curr > 127
        prev, curr = prev.astype(dtype), curr.astype(dtype)
        floor = 1 if dtype is bool else 8
        active = np.abs(curr.astype(int) - prev.astype(int)) >= floor
        assert 0 < active.sum() * _FULL_FRAME_ONE_IN <= active.size
        _assert_same(
            _extract(prev, curr, 8, floor), _reference_active_extract(prev, curr, 8, floor)
        )


class TestReusedBuffers:
    def test_threads_extracting_at_once_match_a_serial_run(self):
        def sequence(seed):
            rng = np.random.default_rng(seed)
            return [rng.integers(0, 256, (40, 56)).astype(np.uint8) for _ in range(30)]

        seqs = [sequence(seed) for seed in range(4)]

        def run(frames, floor):
            return [_extract(a, b, 8, floor) for a, b in zip(frames, frames[1:])]

        # Floors 8 and 200 put the two halves of the threads on different paths.
        floors = [8, 200, 8, 200]
        want = [run(f, floor) for f, floor in zip(seqs, floors)]
        got = [None] * len(seqs)
        errors = []

        def worker(i):
            try:
                got[i] = run(seqs[i], floors[i])
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(seqs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        for g, w in zip(got, want):
            for a, b in zip(g, w):
                _assert_same(a, b)

    @pytest.mark.parametrize("floor", [8, 200])
    def test_a_later_call_leaves_an_earlier_result_unchanged(self, floor):
        rng = np.random.default_rng(41)
        frames = [rng.integers(0, 256, (33, 47)).astype(np.uint8) for _ in range(4)]
        first = _extract(frames[0], frames[1], 8, floor)
        kept = tuple(a.copy() for a in first)
        _extract(frames[2], frames[3], 8, floor)
        _assert_same(first, kept)
        # Writing into a result does not reach the next call either.
        first[0][...] = -1.0
        first[1][...] = -1.0
        _assert_same(_extract(frames[0], frames[1], 8, floor), kept)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_processes_extracting_at_once_stay_correct(self):
        # A process that extracted and then forked keeps its thread's
        # extractor in the child. Both then extract the same shape at once;
        # neither may see the other's writes.
        rng = np.random.default_rng(47)
        frames = [rng.integers(0, 256, (120, 160)).astype(np.uint8) for _ in range(81)]
        pairs = list(zip(frames, frames[1:]))
        floors = [8, 200] * (len(pairs) // 2)
        want = [_reference_active_extract(a, b, 8, f) for (a, b), f in zip(pairs, floors)]
        _extract(*pairs[0], 8)
        half = len(pairs) // 2

        def matches(part):
            got = [_extract(a, b, 8, f) for (a, b), f in list(zip(pairs, floors))[part]]
            return all(
                np.array_equal(g[0], w[0]) and np.array_equal(g[1], w[1])
                for g, w in zip(got, want[part])
            )

        pid = os.fork()
        if pid == 0:
            try:
                os._exit(0 if matches(slice(half, None)) else 1)
            finally:
                os._exit(2)
        parent_ok = matches(slice(None, half))
        _, status = os.waitpid(pid, 0)
        assert parent_ok
        assert os.waitstatus_to_exitcode(status) == 0

    def test_interleaved_shapes_and_block_sizes(self):
        rng = np.random.default_rng(43)
        cases = [((h, w), bs) for h, w in ((20, 30), (31, 17), (8, 64)) for bs in (4, 16)]
        pairs = {
            case: [rng.integers(0, 256, case[0]).astype(np.uint8) for _ in range(2)]
            for case in cases
        }
        for _ in range(3):
            for case in cases:
                prev, curr = pairs[case]
                for floor in (0, 8, 200):
                    _assert_same(
                        _extract(prev, curr, case[1], floor),
                        _reference_active_extract(prev, curr, case[1], floor),
                    )


# |gx|, |gy| bound of the Sobel of the sum of two 8-bit frames: 4 * 510.
SOBEL_SUM_MAX = 2040


def _magnitude_and_key(gx, gy, negative):
    """``_magnitude_and_octant`` with fresh work buffers."""
    return _magnitude_and_octant(gx, gy, negative, _octant_buffers(len(gx)))


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
                _, key = _magnitude_and_key(gx, gy, np.full(gx.shape, sign < 0))
                want = _atan2_bins(-sign * gx.astype(np.int64), sign * gy.astype(np.int64))
                np.testing.assert_array_equal(_OCTANT[key][moving], want[moving])
                checked += int(moving.sum())
        assert checked == 2 * ((2 * SOBEL_SUM_MAX + 1) ** 2 - 1)

    def test_magnitude_within_one_ulp_of_hypot(self):
        for gx, gy in _integer_gradients():
            magnitude, _ = _magnitude_and_key(gx, gy, np.zeros(gx.shape, dtype=bool))
            assert magnitude.dtype == np.float64
            want = np.hypot(gx.astype(np.float64), gy.astype(np.float64))
            assert np.all(np.abs(magnitude - want) <= np.spacing(want))

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
        with pytest.raises(RejectedInputError, match="must be integers, got dtype float64"):
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
        for px in (np.array([[0, 255]]), np.array([[True, False]])):
            assert GrayFrame(px).pixels.shape == (1, 2)
        # Whole-numbered floats are floats all the same.
        with pytest.raises(RejectedInputError, match="must be integers"):
            GrayFrame(np.array([[0.0, 255.0]]))

    def test_held_as_contiguous_uint8(self):
        px = np.arange(20, dtype=np.uint8).reshape(4, 5)
        assert GrayFrame(px).pixels is px
        for other in (px.astype(np.int64), np.asfortranarray(px), px[::-1, ::-1], px > 9):
            held = GrayFrame(other).pixels
            assert held.dtype == np.uint8 and held.flags.c_contiguous
            np.testing.assert_array_equal(held, other)


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
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300, 65504.5, 1e308])
    def test_in_density_range(self, bins, bad):
        f = MotionFrame(np.full((2, 3), 65504.0), np.zeros((2, 3, bins)))
        assert f.in_density_range()
        f.density[1, 2] = bad
        assert not f.in_density_range()
        if bins:
            f.density[1, 2] = 0.0
            f.dir_hist[0, 1, 7] = bad
            assert not f.in_density_range()

    def test_negative_zero_accepted(self):
        f = MotionFrame(np.full((2, 3), -0.0), np.full((2, 3, 8), -0.0))
        assert f.in_density_range()

    @pytest.mark.parametrize(
        "bad", [[[None]], [["0.5"]], [[0.5 + 0j]]], ids=["object", "string", "complex"]
    )
    def test_non_real_arrays_rejected(self, bad):
        # An object array became a NaN frame, a string one raised numpy's
        # ValueError, and a complex one dropped its imaginary part with a
        # ComplexWarning.
        with pytest.raises(RejectedInputError, match="real numbers"):
            MotionFrame(np.array(bad), np.zeros((1, 1, 0)))
        with pytest.raises(RejectedInputError, match="real numbers"):
            MotionFrame(np.zeros((1, 1)), np.array(bad)[..., None].repeat(8, axis=2))

    def test_integer_and_bool_arrays_become_float64(self):
        f = MotionFrame(np.array([[1, 2]], np.int64), np.zeros((1, 2, 8), bool))
        assert f.density.dtype == f.dir_hist.dtype == np.float64
        np.testing.assert_array_equal(f.density, [[1.0, 2.0]])


# Float64 bit patterns at the edges of the fast check: quiet and signalling
# NaNs of both signs and payloads, +-inf, +-0, the smallest and largest
# subnormals and the largest finite value, of both signs; then the
# ceiling, 65504, its next float up and down, 65504.5, 65519.99 and 65520.
_EDGE_BITS = [
    0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF0000000000001,
    0x7FFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF, 0x7FF4000000000000,
    0x7FF0000000000000, 0xFFF0000000000000,
    0x0000000000000000, 0x8000000000000000,
    0x0000000000000001, 0x8000000000000001, 0x000FFFFFFFFFFFFF, 0x800FFFFFFFFFFFFF,
    0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,
    0x40EFFC0000000000, 0x40EFFC0000000001, 0x40EFFBFFFFFFFFFF,
    0x40EFFC1000000000, 0x40EFFDFFAE147AE1, 0x40EFFE0000000000,
]


# The same edges of float16. The ceiling is the largest finite float16,
# 0x7BFF, whose next float up is inf; 65504.5 and 65519.99 round to 65504,
# and 65520 to inf, so the only new pattern is 65504's next float down.
_EDGE_BITS16 = [
    0x7E00, 0xFE00, 0x7C01, 0xFC01, 0x7FFF, 0xFFFF, 0x7D00,
    0x7C00, 0xFC00,
    0x0000, 0x8000,
    0x0001, 0x8001, 0x03FF, 0x83FF,
    0x7BFF, 0xFBFF,
    0x7BFE,
]


# The bit pattern of the ceiling, 65504.0, as a float64.
_DENSITY_MAX_BITS = 0x40EFFC0000000000


def _exact_in_density_range(values):
    return bool(np.all(np.isfinite(values) & (values >= 0.0) & (values <= 65504.0)))


class TestInDensityRange:
    """The one-reduction fast pass over the bit patterns and the exact check
    behind it must agree on every float64 and float16."""

    @pytest.mark.parametrize("bits", _EDGE_BITS)
    def test_edge_bit_patterns(self, bits):
        values = np.array([0, bits, 1 << 62], np.uint64).view(np.float64)
        assert _in_density_range(values) == _exact_in_density_range(values)
        assert _in_density_range(values[1:2]) == _exact_in_density_range(values[1:2])

    @pytest.mark.parametrize(
        "value", [65504.0, math.nextafter(65504.0, math.inf), math.nextafter(65504.0, 0.0), 65504.5, 65519.99, 65520.0]
    )
    @pytest.mark.parametrize("dtype", [np.float64, np.float16])
    def test_the_ceiling_is_65504_in_either_width(self, value, dtype):
        with np.errstate(over="ignore"):  # 65520 rounds to inf in float16
            values = np.array([0.0, value, 1.0], dtype)
        want = float(values[1]) <= 65504.0  # 65504.5 and 65519.99 round to 65504 in float16
        assert _in_density_range(values) == _exact_in_density_range(values) == want
        assert _in_density_range(values[1:2]) == want

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(st.sampled_from(_EDGE_BITS), st.integers(0, 2**64 - 1)),
            min_size=1,
            max_size=24,
        ),
        st.sampled_from([(-1,), (2, -1)]),
    )
    def test_random_bit_patterns(self, bits, shape):
        values = np.array(bits * 2, np.uint64).view(np.float64).reshape(shape)
        assert _in_density_range(values) == _exact_in_density_range(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, _DENSITY_MAX_BITS), min_size=1, max_size=24))
    def test_clean_bit_patterns_pass(self, bits):
        values = np.array(bits, np.uint64).view(np.float64)
        assert _in_density_range(values)

    def test_empty_passes(self):
        assert _in_density_range(np.zeros((2, 3, 0)))

    @pytest.mark.parametrize("bits", _EDGE_BITS16)
    def test_float16_edge_bit_patterns(self, bits):
        values = np.array([0, bits, 1 << 14], np.uint16).view(np.float16)
        assert _in_density_range(values) == _exact_in_density_range(values)
        assert _in_density_range(values[1:2]) == _exact_in_density_range(values[1:2])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(st.sampled_from(_EDGE_BITS16), st.integers(0, 2**16 - 1)),
            min_size=1,
            max_size=24,
        ),
        st.sampled_from(["contiguous", "record"]),
    )
    def test_float16_random_bit_patterns(self, bits, layout):
        values = np.array(bits, np.uint16).view(np.float16)
        if layout == "record":
            # A float16 field strided by packed records, as the isochronal
            # store's load check reads its means and stds.
            records = np.zeros(len(bits), [("mean", "<f2"), ("std", "<f2"), ("days", "<u4"), ("last_day", "<i4")])
            records["std"] = values
            values = records["std"]
        assert _in_density_range(values) == _exact_in_density_range(values)

    def test_every_float16_bit_pattern(self):
        values = np.arange(2**16, dtype=np.uint32).astype(np.uint16).view(np.float16)
        fast = np.array([_in_density_range(v) for v in values.reshape(-1, 1)])
        exact = np.isfinite(values) & (values >= 0.0) & (values <= 65504.0)
        np.testing.assert_array_equal(fast, exact)


class TestBlockMean:
    """``block_mean`` must return the bits of ``float(values.mean())``."""

    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([5e-324, 1e-300, 1.0, 1e300, 1.7976931348623157e308]),
        layout=st.sampled_from(["contiguous", "strided", "record"]),
        edges=st.lists(st.sampled_from(_EDGE_BITS), max_size=3),
    )
    def test_bits_of_mean(self, shape, seed, scale, layout, edges):
        rng = np.random.default_rng(seed)
        rows, cols = shape
        wide = rng.uniform(-1.0, 1.0, (rows, 2 * cols)) * scale
        if layout == "contiguous":
            values = wide[:, :cols].copy()
        elif layout == "strided":
            values = wide[:, ::2]
        else:  # a field of packed records
            records = np.zeros(rows, [("density", "<f8", (cols,)), ("days", "<u4")])
            records["density"] = wide[:, :cols]
            values = records["density"]
        for bits in edges:
            values[rng.integers(rows), rng.integers(cols)] = np.uint64(bits).view(np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            want = float(values.mean())
            got = block_mean(values)
        assert struct.pack("<d", got) == struct.pack("<d", want)
