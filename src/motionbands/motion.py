"""Block-motion feature extraction from grayscale frame pairs.

A frame pair is reduced to a coarse grid of blocks, each carrying two
features: a motion *density* (dimensionless magnitude in [0, 1]) and an
8-bin histogram of quantized motion directions. Densities are means over
the block's pixels of ``|curr - prev| * gradient magnitude`` (both
normalized), so a block full of unchanged pixels scores exactly zero.

Direction is the angle of the spatial gradient oriented along the apparent
motion: the gradient of the mean frame, sign-corrected by the temporal
difference, so a bright object moving right votes into the 0-degree bin on
both its leading and trailing edges.

Extraction costs a few passes over the frame plus work in proportion to
the pixels whose ``|curr - prev|`` clears the noise floor; only those
pixels get a gradient, a direction and a block vote. The activity mask is
``max(prev, curr) - min(prev, curr) >= floor``, computed in the pixel
dtype: uint8 for integer frames (``GrayFrame`` holds them to [0, 255]),
float64 otherwise. The test is exact, since both sides equal
``|curr - prev|``. With a noise floor of 0 every pixel is active and the
cost is that of a dense pass.

The Sobel gradient at the active pixels comes from one of two paths,
chosen per frame by the active count. Above one active pixel in eleven,
the full-frame path computes the int16 difference and the edge-padded sum
frame, runs a separable Sobel over the whole sum frame in the work dtype
([1, 2, 1] smoothing across, then a difference along) and gathers gx, gy
and the difference at the active pixels. At or below that share, the
neighbour path does no full-frame work after the mask: it gathers each
active pixel's eight neighbours, and the pixel itself, from the two pixel
frames through flat views shifted from its north-west neighbour, widens
them once to the work dtype and sums them. Pixels on the first or last row
or column are gathered again with clamped rows and columns, which is what
the edge-replicated pad gives. Both paths give the same integers.
Crossover on the benchmark's flicker VGA scene, noise floor varied (p50
per frame with the path forced each way, mean of two runs of 288 frames;
2-vCPU Intel Xeon, Python 3.11, numpy 2.4, glibc malloc thresholds
pinned); the two cost the same near 9%:

    active pixels   neighbour gathers   full frame
         5.2%             2.12 ms          2.66 ms
         7.3%             2.69 ms          2.97 ms
         8.6%             3.13 ms          3.17 ms
         9.5%             3.42 ms          3.33 ms
        13.9%             3.71 ms          3.31 ms
        25.1%             5.61 ms          3.93 ms
        48.4%            10.28 ms          5.83 ms

Work buffers are fixed by (frame shape, work dtype, block size); each
thread keeps the buffers of the last key it extracted and rebuilds them
when the key changes. They are the difference, mask, padded sum,
full-frame gradient and scratch frames (the max and min of the two frames
live in the scratch and difference frames until the mask is made), a
per-pixel table of block slots in place of row, column and block
arithmetic, and active-pixel buffers. The neighbour path keeps its
gathers and their sums in the padded-sum and gradient frames, which only
the full-frame path uses. A VGA uint8 extractor reserves about 16 MB. A
frame on the full-frame path writes about 4.6 MB of it, and one on the
neighbour path about 2.2 MB; each active pixel adds about 37 bytes, and
about 34 more on the neighbour path (about 10 MB with half the pixels
active).
Returned arrays are always fresh: they never alias these buffers, so a
later call, in any thread or in a forked process, cannot change an
earlier result.

On integer frames the gradient arithmetic is exact. The Sobel gradient of
the sum frame is an integer pair with |gx|, |gy| <= 2040; its magnitude is
the correctly rounded ``sqrt`` of the exact int32 sum gx**2 + gy**2, and
its direction bin comes from an exact octant test instead of ``atan2``:
the vector lies within 22.5 degrees of the x-axis iff (|gx| + |gy|)**2 <
2 gx**2, and of the y-axis iff (|gx| + |gy|)**2 < 2 gy**2. Those two flags
and the signs of the motion vector index a 16-entry lookup of the bin.
Float frames take the same arithmetic in float64.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .config import MotionConfig, checked
from .errors import RejectedInputError

N_DIR_BINS = 8

# Peak response of a 3x3 Sobel pair on 8-bit input: (4*255, 4*255).
_SOBEL_MAX = 4.0 * math.sqrt(2.0) * 255.0
# Weight of a pixel per unit of |curr - prev| times the Sobel magnitude of
# the sum frame, which is twice that of the mean frame.
_WEIGHT_SCALE = 0.5 / (255.0 * _SOBEL_MAX)

# Direction bin by octant key 8 * near_x + 4 * near_y + 2 * (vx > 0) +
# (vy > 0) (see ``_magnitude_and_octant``). Bin b is centred on b * 45
# degrees, counter-clockwise from +x. near_x and near_y exclude each other,
# so keys 12..15 never occur.
_OCTANT = np.array([5, 3, 7, 1, 6, 2, 6, 2, 4, 4, 0, 0, 0, 0, 0, 0])
_KEY_TO_BIN = np.eye(N_DIR_BINS)[_OCTANT]

# Above one active pixel in this many, the Sobel gradient is computed over
# the whole frame and gathered at the active pixels; at or below, it is
# built from neighbour gathers in the two pixel frames (crossover measured
# on VGA frames; see the module docstring).
_FULL_FRAME_ONE_IN = 11

# (row, column) offsets from an active pixel's north-west neighbour that the
# neighbour path gathers: the eight Sobel neighbours in the order se, ne,
# east, south, nw, sw, west, north (each of the first four pairs with the
# one four places on), then the pixel itself. _FULL_FRAME_ONE_IN must be at
# least its length, for the neighbour path's buffers to fit in a frame.
_NEIGHBOURS = np.array(
    [(2, 2), (0, 2), (1, 2), (2, 1), (0, 0), (2, 0), (1, 0), (0, 1), (1, 1)]
)


@dataclass(frozen=True)
class GrayFrame:
    """Single grayscale frame, row-major luminance in [0, 255].

    Pixels must be real numbers, finite and within [0, 255]; anything else
    is rejected here rather than turning into NaN densities downstream.
    """

    pixels: np.ndarray
    timestamp_ms: int = 0

    def __post_init__(self) -> None:
        px = np.asarray(self.pixels)
        if px.ndim != 2 or px.shape[0] < 1 or px.shape[1] < 1:
            raise RejectedInputError(f"expected 2-D pixel array, got shape {px.shape}")
        if px.dtype.kind not in "biuf":
            raise RejectedInputError(f"pixels must be real numbers, got dtype {px.dtype}")
        # NaN fails both comparisons, so this also rejects non-finite pixels.
        if px.dtype != np.uint8 and not (px.min() >= 0 and px.max() <= 255):
            raise RejectedInputError("pixels must be finite and within [0, 255]")
        object.__setattr__(self, "pixels", px)



@dataclass
class MotionFrame:
    """Grid of block-motion features at one instant.

    ``density`` has shape (grid_h, grid_w). ``dir_hist`` has shape
    (grid_h, grid_w, 8) on a frame from :func:`extract_motion`, and
    (grid_h, grid_w, 0) on everything downstream of it: the cascade's
    bands and the isochronal store's means carry density only, because no
    decision reads direction, so their frames hold an empty histogram
    rather than eight bins of nothing. Blocks are addressed as (bx, by)
    with bx the column index.
    """

    density: np.ndarray
    dir_hist: np.ndarray
    timestamp_ms: int = 0

    def __post_init__(self) -> None:
        d = np.asarray(self.density, dtype=np.float64)
        h = np.asarray(self.dir_hist, dtype=np.float64)
        if d.ndim != 2 or d.size == 0:
            raise RejectedInputError(f"density must be a non-empty 2-D grid, got shape {d.shape}")
        if h.shape not in (d.shape + (N_DIR_BINS,), d.shape + (0,)):
            raise RejectedInputError(
                f"dir_hist shape {h.shape} does not match density grid {d.shape}"
            )
        self.density = d
        self.dir_hist = h

    @classmethod
    def _wrap(
        cls, density: np.ndarray, dir_hist: np.ndarray, timestamp_ms: int
    ) -> "MotionFrame":
        """Frame over float64 arrays whose shapes the caller guarantees;
        skips the conversions and checks of ``__init__``."""
        frame = object.__new__(cls)
        frame.density = density
        frame.dir_hist = dir_hist
        frame.timestamp_ms = timestamp_ms
        return frame

    def in_density_range(self) -> bool:
        """True iff every density and bin is in [0, 65504] (see
        :func:`_in_density_range`)."""
        return _in_density_range(self.density) and _in_density_range(self.dir_hist)

    @property
    def grid_w(self) -> int:
        return self.density.shape[1]

    @property
    def grid_h(self) -> int:
        return self.density.shape[0]


# The largest density or bin the camera path takes: 65504, the largest
# finite float16 and so the largest value a store record holds. The cascade
# and the store refuse anything above it, so no state behind them can
# overflow: sums and means of values at most 65504 round to at most 65504.
_DENSITY_MAX = 65504.0

# Per float width in bytes: the unsigned integer of that width and the bit
# pattern of 65504.0. A float lies in [+0.0, 65504] iff its bits, read as
# that unsigned integer, are at most 65504's.
_MAX_BITS = {
    8: (np.uint64, 0x40EFFC0000000000),
    2: (np.uint16, 0x7BFF),
}


def _in_density_range(values: np.ndarray) -> bool:
    """True iff every entry of a float64 or float16 array is in [0, 65504]:
    finite, >= 0 and at most :data:`_DENSITY_MAX`.

    A clean array passes on one unsigned max over its bit patterns; any
    other (NaN, infinite, negative, above 65504, or -0.0, which passes)
    goes on to the exact check. There a NaN fails the comparison with zero,
    like a negative value. An empty array passes: the reductions have no
    identity to return for it.
    """
    bits, top = _MAX_BITS[values.itemsize]
    return values.size == 0 or bool(
        np.maximum.reduce(values.view(bits), axis=None) <= top
        or (
            np.minimum.reduce(values, axis=None) >= 0.0
            and np.maximum.reduce(values, axis=None) <= _DENSITY_MAX
        )
    )


def block_mean(values: np.ndarray) -> float:
    """The mean of a non-empty float64 array, with the bits of
    ``values.mean()`` (one pairwise ``add.reduce``, one division) in less
    than half the time: 2.9 against 6.3 us on a 40x30 grid (2-vCPU Xeon),
    because ``mean`` pays for its generality on every call."""
    return float(np.add.reduce(values, axis=None)) / values.size


def extract_motion(
    prev: GrayFrame,
    curr: GrayFrame,
    block_size: int = MotionConfig.block_size,
    noise_floor: float = MotionConfig.noise_floor,
) -> MotionFrame:
    """Reduce a frame pair to block-motion features.

    The cost is a few passes over the frame in the pixel dtype (maximum,
    minimum and threshold) plus work proportional to the number of
    *active* pixels, those with ``|curr - prev| >= noise_floor``: only they
    get a direction and a block vote. When more than one pixel in eleven
    is active, their Sobel gradients are gathered from a gradient computed
    over the whole frame in a few more passes; otherwise they are built
    from each pixel's eight neighbours in the two frames (see the module
    docstring for the crossover). ``noise_floor=0`` makes every pixel
    active. Integer pixel arrays are thresholded in ``uint8`` and their
    gradients computed in ``int16``, so the gradients are exact and both
    paths give the same bits; other dtypes use ``float64``. The gradient
    magnitude is the square root of the exact sum of squares, and the
    direction bin is the octant of the motion vector from integer
    comparisons, equal to ``round(atan2(vy, vx) / 45 deg) mod 8``.

    Each thread keeps the work buffers of its last (frame shape, work
    dtype, block size), so repeated calls on one stream allocate little;
    the returned arrays are always fresh and never share memory with them
    or with an earlier result.

    Parameters
    ----------
    prev, curr : GrayFrame
        Consecutive frames of identical dimensions.
    block_size : int
        Block edge in pixels, an integer >= 1. Edge blocks narrower than
        this are averaged over their actual pixel count.
    noise_floor : float
        Per-pixel |curr - prev| below this contributes nothing: a real
        number >= 0 (both via ``config.checked``); at +inf no pixel is active.

    Returns
    -------
    MotionFrame
        One block per ceil(h/bs) x ceil(w/bs) cell; density and histogram
        entries are non-negative, and a block with zero density has an
        all-zero histogram.
    """
    checked("block_size", block_size, 1, integral=True)
    checked("noise_floor", noise_floor, high=math.inf)
    if prev.pixels.shape != curr.pixels.shape:
        raise RejectedInputError(
            f"frame dimensions differ: {prev.pixels.shape} vs {curr.pixels.shape}"
        )

    h, w = curr.pixels.shape
    # From max(h, w) on, one block covers the frame: keep huge ints out of numpy.
    block_size = min(block_size, max(h, w))
    integral = prev.pixels.dtype.kind in "biu" and curr.pixels.dtype.kind in "biu"
    work = np.dtype(np.int16 if integral else np.float64)
    # Differences are at most 255, so a floor past 256 selects what 256 does;
    # integer ones are whole numbers, so the rounded-up floor selects the same.
    floor = math.ceil(min(noise_floor, 256.0)) if integral else min(noise_floor, 256.0)
    density, dir_hist = _extractor(h, w, work, block_size).extract(
        prev.pixels, curr.pixels, floor
    )
    return MotionFrame._wrap(density, dir_hist, curr.timestamp_ms)


# One extractor per thread, so that threads never share buffers.
_local = threading.local()


def _extractor(h: int, w: int, work: np.dtype, block_size: int) -> "_Extractor":
    """This thread's extractor, rebuilt when the key differs from the last."""
    extractor = getattr(_local, "extractor", None)
    if extractor is None or extractor.key != (h, w, work, block_size):
        extractor = _local.extractor = _Extractor(h, w, work, block_size)
    return extractor


class _Extractor:
    """Buffers and indices fixed by the frame shape, the work dtype and the
    block size.

    The activity mask is computed in the pixel dtype: uint8 for integer
    frames, float64 otherwise. A per-pixel table of each pixel's first
    (block, octant key) slot replaces the row, column and block arithmetic.
    Active-pixel arrays are the first n entries of buffers sized for a fully
    active frame, and the neighbour path's gathers the first n columns of
    rows sized for its largest active count; the extractor never writes
    pages a scene does not reach.
    """

    def __init__(self, h: int, w: int, work: np.dtype, block_size: int):
        self.key = (h, w, work, block_size)
        self.h, self.w = h, w
        n = h * w
        self.pixel = np.dtype(np.uint8 if work.kind == "i" else np.float64)
        self._diff = np.empty((h, w), work)
        self._mask = np.empty((h, w), bool)
        self._sum = np.empty((h + 2, w + 2), work)
        self._gx = np.empty((h, w), work)
        self._gy = np.empty((h, w), work)
        # Holds max(prev, curr), then each separable Sobel's smoothing.
        self._scratch = np.empty(max(h * (w + 2), (h + 2) * w), work)
        # min(prev, curr) goes in the difference frame, which the full-frame
        # path fills only after the mask.
        self._high = self._scratch.view(self.pixel)[:n].reshape(h, w)
        self._low = self._diff.view(self.pixel).reshape(-1)[:n].reshape(h, w)

        grid_h = -(-h // block_size)
        grid_w = -(-w // block_size)
        self.grid = (grid_h, grid_w)
        index = np.int32 if grid_h * grid_w * len(_OCTANT) < 2**31 else np.intp
        row, col = np.divmod(np.arange(n), w)
        self._slot = np.empty(n, index)
        np.multiply(
            row // block_size * grid_w + col // block_size, len(_OCTANT), out=self._slot
        )
        self.counts = np.outer(
            np.minimum(block_size, h - block_size * np.arange(grid_h)),
            np.minimum(block_size, w - block_size * np.arange(grid_w)),
        ).astype(np.float64)
        self._bin_counts = np.repeat(self.counts[..., None], N_DIR_BINS, axis=2)

        self._active_gx = np.empty(n, work)
        self._active_gy = np.empty(n, work)
        self._active_diff = np.empty(n, work)
        self._active_slot = np.empty(n, index)
        self._negative = np.empty(n, bool)
        self._octant = _octant_buffers(n, np.int32 if work.kind == "i" else np.float64)

        # Frames of at most one active pixel in _FULL_FRAME_ONE_IN take the
        # neighbour path. Its gathers from each frame and their sums live in
        # the padded-sum and gradient frames, which only the full-frame path
        # uses; each holds len(_NEIGHBOURS) rows of the largest active count.
        self._neighbour_max = m = n // _FULL_FRAME_ONE_IN
        self._shifts = [int(dr) * w + int(dc) for dr, dc in _NEIGHBOURS]
        k = len(_NEIGHBOURS)
        self._near = tuple(
            frame.view(self.pixel).reshape(-1)[: k * m].reshape(k, m)
            for frame in (self._sum, self._gy)
        )
        self._near_sum = self._gx.reshape(-1)[: (k - 1) * m].reshape(k - 1, m)

    def extract(
        self, prev: np.ndarray, curr: np.ndarray, floor: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """(density, dir_hist) of a frame pair, as fresh arrays."""
        prev = np.ascontiguousarray(prev, self.pixel)
        curr = np.ascontiguousarray(curr, self.pixel)
        # max - min is |curr - prev|, exact in the pixel dtype.
        high = np.maximum(prev, curr, out=self._high)
        high -= np.minimum(prev, curr, out=self._low)
        active = np.flatnonzero(np.greater_equal(high, floor, out=self._mask))
        n = active.size

        gx, gy = self._active_gx[:n], self._active_gy[:n]
        signed = self._active_diff[:n]
        if n <= self._neighbour_max:
            self._neighbour_sobel(prev.ravel(), curr.ravel(), active, gx, gy, signed)
        else:
            self._full_frame_sobel(prev, curr, active, gx, gy, signed)

        # Motion direction: gradient of the mean frame, sign-corrected by the
        # temporal difference (y measured upward, i.e. toward decreasing rows).
        negative = np.less(signed, 0, out=self._negative[:n])
        magnitude, key = _magnitude_and_octant(gx, gy, negative, self._octant)
        # Per-pixel weight (|curr - prev| / 255) * (|Sobel of the mean| /
        # _SOBEL_MAX), in [0, 1]; zero wherever either factor vanishes.
        weight = magnitude
        weight *= np.abs(signed, out=signed)
        weight *= _WEIGHT_SCALE

        # One weighted vote per pixel into (block, octant key); the lookup then
        # folds each block's 16 key sums into its 8 direction bins. A bin draws
        # on at most two keys, so the fold adds at most two nonzero terms.
        slot = np.take(self._slot, active, out=self._active_slot[:n], mode="wrap")
        slot += key
        grid_h, grid_w = self.grid
        n_blocks = grid_h * grid_w
        per_key = np.bincount(slot, weights=weight, minlength=n_blocks * len(_OCTANT))
        hist = (per_key.reshape(n_blocks, len(_OCTANT)) @ _KEY_TO_BIN).reshape(
            grid_h, grid_w, N_DIR_BINS
        )
        density = hist.sum(axis=2)
        density /= self.counts
        hist /= self._bin_counts
        return density, hist

    def _full_frame_sobel(
        self,
        prev: np.ndarray,
        curr: np.ndarray,
        active: np.ndarray,
        gx: np.ndarray,
        gy: np.ndarray,
        signed: np.ndarray,
    ) -> None:
        """Write the Sobel gradient of the sum frame (twice that of the mean
        frame) and ``curr - prev`` at the active pixels into ``gx``, ``gy``
        and ``signed``, from a separable Sobel over the whole frame in the
        work dtype: gx is the horizontal difference of the [1, 2, 1]
        vertical smoothing, gy the vertical difference of the horizontal
        one."""
        h, w = self.h, self.w
        np.subtract(curr, prev, out=self._diff, dtype=self._diff.dtype)
        # The edges are copied by hand: ``np.pad`` costs about 50 us more
        # per VGA frame.
        total = self._sum
        np.add(prev, curr, out=total[1:-1, 1:-1], dtype=total.dtype)
        total[0, 1:-1] = total[1, 1:-1]
        total[-1, 1:-1] = total[-2, 1:-1]
        total[:, 0] = total[:, 1]
        total[:, -1] = total[:, -2]
        smooth = self._scratch[: h * (w + 2)].reshape(h, w + 2)
        np.add(total[:-2], total[2:], out=smooth)
        smooth += total[1:-1]
        smooth += total[1:-1]
        np.subtract(smooth[:, 2:], smooth[:, :-2], out=self._gx)
        smooth = self._scratch[: (h + 2) * w].reshape(h + 2, w)
        np.add(total[:, :-2], total[:, 2:], out=smooth)
        smooth += total[:, 1:-1]
        smooth += total[:, 1:-1]
        np.subtract(smooth[2:], smooth[:-2], out=self._gy)
        # Every index is in range, so ``take`` skips its bounds copy under
        # mode="wrap".
        np.take(self._gx.ravel(), active, out=gx, mode="wrap")
        np.take(self._gy.ravel(), active, out=gy, mode="wrap")
        np.take(self._diff.ravel(), active, out=signed, mode="wrap")

    def _neighbour_sobel(
        self,
        prev: np.ndarray,
        curr: np.ndarray,
        active: np.ndarray,
        gx: np.ndarray,
        gy: np.ndarray,
        signed: np.ndarray,
    ) -> None:
        """Write what :meth:`_full_frame_sobel` writes, from each active
        pixel's eight neighbours and centre in the flat pixel frames.

        ``corner`` indexes each active pixel's north-west neighbour, and
        the pixel (dr, dc) further on is ``frame[dr * w + dc:][corner]``.
        On the first or last row or column those gathers wrap; such pixels
        are gathered again with clamped rows and columns, which is what the
        full-frame path's edge-replicated pad gives. Frames with fewer than
        3 rows or columns have only such pixels, and shifted views that can
        be empty, so they skip the first gathers.
        """
        h, w = self.h, self.w
        n = active.size
        corner = active - (w + 1)
        near = [gathered[:, :n] for gathered in self._near]
        if min(h, w) >= 3:
            for frame, gathered in zip((prev, curr), near):
                for shift, out in zip(self._shifts, gathered):
                    frame[shift:].take(corner, out=out, mode="wrap")
        # The active pixels on the frame's edges (a corner may come twice),
        # and their places in ``active``, which is sorted.
        mask = self._mask
        edge = np.concatenate(
            (
                np.flatnonzero(mask[0]),
                np.flatnonzero(mask[-1]) + (h - 1) * w,
                np.flatnonzero(mask[:, 0]) * w,
                np.flatnonzero(mask[:, -1]) * w + (w - 1),
            )
        )
        if edge.size:
            row, col = np.divmod(edge, w)
            index = np.clip(row + _NEIGHBOURS[:, :1] - 1, 0, h - 1)
            index *= w
            index += np.clip(col + _NEIGHBOURS[:, 1:] - 1, 0, w - 1)
            at = np.searchsorted(active, edge)
            near[0][:, at] = prev[index]
            near[1][:, at] = curr[index]

        # Neighbour sums, widened once to the work dtype, then their
        # differences a = se - nw, b = ne - sw, east - west and south -
        # north: gx = a + b + 2 (east - west), gy = a - b + 2 (south -
        # north).
        total = self._near_sum[:, :n]
        np.add(near[0][:-1], near[1][:-1], out=total, dtype=total.dtype)
        np.subtract(total[:4], total[4:], out=total[:4])
        a, b, across, down = total[:4]
        total[2:4] += total[2:4]
        np.add(a, b, out=gx)
        gx += across
        np.subtract(a, b, out=gy)
        gy += down
        np.subtract(near[1][-1], near[0][-1], out=signed, dtype=signed.dtype)


def _octant_buffers(n: int, wide: type) -> tuple[np.ndarray, ...]:
    """Work arrays for :func:`_magnitude_and_octant` on up to ``n``
    gradients: four in ``wide``, the magnitudes, a mask and the keys."""
    return (
        *(np.empty(n, wide) for _ in range(4)),
        np.empty(n, np.float64),
        np.empty(n, bool),
        np.empty(n, np.uint8),
    )


def _magnitude_and_octant(
    gx: np.ndarray,
    gy: np.ndarray,
    negative: np.ndarray,
    buffers: tuple[np.ndarray, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient magnitude and direction key of the motion vectors
    ``(vx, vy) = (-sign * gx, sign * gy)``, where ``negative`` marks the
    pixels whose sign is negative.

    Integer gradients (|gx|, |gy| <= 2040) are squared in int32, so the
    magnitude ``sqrt(gx**2 + gy**2)`` is the correctly rounded root of an
    exact sum. The key is ``8 * near_x + 4 * near_y + 2 * (vx > 0) +
    (vy > 0)`` as uint8, and ``_OCTANT[key]`` is the direction bin,
    ``round(atan2(vy, vx) / (pi / 4)) mod 8``. The vector lies within
    22.5 degrees of the x-axis iff |gy| < tan(22.5 deg) |gx| =
    (sqrt(2) - 1) |gx|, that is iff (|gx| + |gy|)**2 < 2 gx**2, and
    likewise for the y-axis. tan(22.5 deg) is irrational, so no integer
    gradient lies on a bin edge and the test is exact. A sign bit is
    arbitrary where its component is zero; the vector is then near the
    other axis (or zero), whose bins ignore that bit. Float gradients go
    through the same arithmetic in float64.

    ``buffers`` (from :func:`_octant_buffers`, at least ``len(gx)`` long)
    receive the work and the results, which are views of them. The inputs
    are only read.
    """
    n = len(gx)
    x2, y2, l1_sq, wide, magnitude, mask, key = (b[:n] for b in buffers)
    # The bits go in with sums and products, which numpy vectorises on
    # uint8; it does not vectorise shifts. vx = -sign * gx > 0 iff gx < 0
    # xor sign < 0, and vy = sign * gy > 0 iff gy > 0 xor sign < 0.
    bit = mask.view(np.uint8)
    np.not_equal(np.less(gx, 0, out=mask), negative, out=mask)
    np.add(bit, bit, out=key)
    np.not_equal(np.greater(gy, 0, out=mask), negative, out=mask)
    key += bit
    # Widening copies first: a ufunc that casts its inputs costs about
    # twice as much as a copy and a same-type operation.
    np.copyto(x2, gx)
    np.copyto(y2, gy)
    np.abs(x2, out=l1_sq)
    l1_sq += np.abs(y2, out=wide)
    l1_sq *= l1_sq
    x2 *= x2
    y2 *= y2
    np.copyto(magnitude, np.add(x2, y2, out=wide))
    np.sqrt(magnitude, out=magnitude)
    x2 += x2
    np.less(l1_sq, x2, out=mask)
    bit *= np.uint8(8)
    key += bit
    y2 += y2
    np.less(l1_sq, y2, out=mask)
    bit *= np.uint8(4)
    key += bit
    return magnitude, key
