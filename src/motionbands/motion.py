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

Extraction costs a few integer passes over the frame plus work in
proportion to the pixels whose ``|curr - prev|`` clears the noise floor;
only those pixels get a gradient, a direction and a block vote. With a
noise floor of 0 every pixel is active and the cost is that of a dense
pass.

The Sobel gradient at the active pixels comes from one of two paths,
chosen per frame by the active count. Above one active pixel in ten, a
separable Sobel runs over the whole sum frame in the work dtype ([1, 2, 1]
smoothing across, then a difference along) and gx, gy are gathered at the
active pixels: two gathers. At or below that share, the eight neighbours
of each active pixel are gathered from the sum frame. Both give the same
integers. Crossover on the benchmark's flicker VGA scene, noise floor
varied (p50 per frame; 2-vCPU Intel Xeon, Python 3.11, numpy 2.4, glibc
malloc thresholds pinned):

    active pixels   neighbour gathers   full frame
        5.5%             1.91 ms          2.09 ms
       10.2%             2.03 ms          2.23 ms
       13.2%             2.41 ms          2.38 ms
       16.7%             2.96 ms          2.58 ms
       25.0%             3.83 ms          3.16 ms
       49.4%             6.33 ms          4.43 ms

Work buffers are fixed by (frame shape, work dtype, block size); each
thread keeps the buffers of the last key it extracted and rebuilds them
when the key changes. They are the difference, mask, padded sum and
full-frame gradient frames, a per-pixel table of block slots in place of
row, column and block arithmetic, and active-pixel buffers. A VGA uint8
extractor reserves about 16 MB and writes about 4.6 MB plus about 37
bytes per active pixel (about 10 MB with half the pixels active).
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

import json
import math
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import InvalidParameterError, RejectedInputError

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
# built from eight neighbour gathers per active pixel (crossover measured on
# VGA frames; see the module docstring).
_FULL_FRAME_ONE_IN = 10


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

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


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

    @classmethod
    def zeros(cls, grid_w: int, grid_h: int, timestamp_ms: int = 0) -> "MotionFrame":
        if grid_w < 1 or grid_h < 1:
            raise InvalidParameterError("grid dimensions must be positive")
        return cls(
            density=np.zeros((grid_h, grid_w)),
            dir_hist=np.zeros((grid_h, grid_w, N_DIR_BINS)),
            timestamp_ms=timestamp_ms,
        )

    def finite_nonnegative(self) -> bool:
        """True iff every density and bin is finite and >= 0."""
        return _finite_nonnegative(self.density) and _finite_nonnegative(self.dir_hist)

    @property
    def grid_w(self) -> int:
        return self.density.shape[1]

    @property
    def grid_h(self) -> int:
        return self.density.shape[0]

    @property
    def n_blocks(self) -> int:
        return self.density.size

    def copy(self) -> "MotionFrame":
        return MotionFrame(self.density.copy(), self.dir_hist.copy(), self.timestamp_ms)


def _finite_nonnegative(values: np.ndarray) -> bool:
    # A NaN fails the comparison with zero, like a negative value. An empty
    # array passes: the reductions have no identity to return for it.
    return values.size == 0 or bool(
        np.minimum.reduce(values, axis=None) >= 0.0
        and np.maximum.reduce(values, axis=None) < math.inf
    )


def extract_motion(
    prev: GrayFrame,
    curr: GrayFrame,
    block_size: int = 16,
    noise_floor: float = 8.0,
) -> MotionFrame:
    """Reduce a frame pair to block-motion features.

    The cost is a few integer passes over the frame (difference, threshold,
    sum image) plus work proportional to the number of *active* pixels,
    those with ``|curr - prev| >= noise_floor``: only they get a direction
    and a block vote. Their Sobel gradients are gathered from a gradient
    computed over the whole frame when more than one pixel in ten is
    active, and from their eight neighbours in the sum frame otherwise
    (see the module docstring for the crossover). ``noise_floor=0`` makes
    every pixel active. Integer pixel arrays are processed in ``int16``,
    so the gradients are exact and both paths give the same bits; other
    dtypes use ``float64``. The gradient magnitude is the square root of
    the exact sum of squares, and the direction bin is the octant of the
    motion vector from integer comparisons, equal to
    ``round(atan2(vy, vx) / 45 deg) mod 8``.

    Each thread keeps the work buffers of its last (frame shape, work
    dtype, block size), so repeated calls on one stream allocate little;
    the returned arrays are always fresh and never share memory with them
    or with an earlier result.

    Parameters
    ----------
    prev, curr : GrayFrame
        Consecutive frames of identical dimensions.
    block_size : int
        Block edge in pixels. Edge blocks narrower than this are averaged
        over their actual pixel count.
    noise_floor : float
        Per-pixel |curr - prev| below this contributes nothing.

    Returns
    -------
    MotionFrame
        One block per ceil(h/bs) x ceil(w/bs) cell; density and histogram
        entries are non-negative, and a block with zero density has an
        all-zero histogram.
    """
    if block_size < 1:
        raise InvalidParameterError(f"block_size must be >= 1, got {block_size}")
    if not noise_floor >= 0:
        raise InvalidParameterError(f"noise_floor must be >= 0, got {noise_floor}")
    if prev.pixels.shape != curr.pixels.shape:
        raise RejectedInputError(
            f"frame dimensions differ: {prev.pixels.shape} vs {curr.pixels.shape}"
        )

    h, w = curr.pixels.shape
    integral = prev.pixels.dtype.kind in "biu" and curr.pixels.dtype.kind in "biu"
    work = np.dtype(np.int16 if integral else np.float64)
    # Integer differences are whole numbers (at most 255 in magnitude), so
    # the rounded-up floor selects the same pixels.
    floor = math.ceil(min(noise_floor, 256.0)) if integral else noise_floor
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

    A per-pixel table of each pixel's first (block, octant key) slot
    replaces the row, column and block arithmetic; only the neighbour
    path, on at most a tenth of the pixels, still derives rows. Active-pixel
    arrays are the first n entries of buffers sized for a fully active
    frame; the extractor never writes pages a scene does not reach.
    """

    def __init__(self, h: int, w: int, work: np.dtype, block_size: int):
        self.key = (h, w, work, block_size)
        self.h, self.w = h, w
        n = h * w
        self._diff = np.empty((h, w), work)
        self._mask = np.empty((h, w), bool)
        self._sum = np.empty((h + 2, w + 2), work)
        self._gx = np.empty((h, w), work)
        self._gy = np.empty((h, w), work)
        # Holds |curr - prev|, then each separable Sobel's smoothing.
        self._scratch = np.empty(max(h * (w + 2), (h + 2) * w), work)

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
        )

        self._active_gx = np.empty(n, work)
        self._active_gy = np.empty(n, work)
        self._active_diff = np.empty(n, work)
        self._active_slot = np.empty(n, index)
        self._negative = np.empty(n, bool)
        self._octant = _octant_buffers(n, np.int32 if work.kind == "i" else np.float64)

    def extract(
        self, prev: np.ndarray, curr: np.ndarray, floor: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """(density, dir_hist) of a frame pair, as fresh arrays."""
        h, w = self.h, self.w
        diff = self._diff
        np.subtract(curr, prev, out=diff, dtype=diff.dtype)
        absolute = self._scratch[: h * w].reshape(h, w)
        np.greater_equal(np.abs(diff, out=absolute), floor, out=self._mask)
        active = np.flatnonzero(self._mask)
        n = active.size

        # Sobel of the sum frame (twice the Sobel of the mean frame), exact
        # in int16. The edges are copied by hand: ``np.pad`` costs about
        # 50 us more per VGA frame.
        total = self._sum
        np.add(prev, curr, out=total[1:-1, 1:-1], dtype=total.dtype)
        total[0, 1:-1] = total[1, 1:-1]
        total[-1, 1:-1] = total[-2, 1:-1]
        total[:, 0] = total[:, 1]
        total[:, -1] = total[:, -2]
        gx, gy = self._active_gx[:n], self._active_gy[:n]
        # Every index is in range, so ``take`` skips its bounds copy under
        # mode="wrap".
        if n * _FULL_FRAME_ONE_IN > h * w:
            # Separable full-frame Sobel: gx is the horizontal difference of
            # the [1, 2, 1] vertical smoothing, gy the vertical difference
            # of the horizontal one. Then two gathers.
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
            np.take(self._gx.ravel(), active, out=gx, mode="wrap")
            np.take(self._gy.ravel(), active, out=gy, mode="wrap")
        else:
            # Eight neighbour gathers from the sum frame: ``corner`` indexes
            # each active pixel's top-left neighbour in the padded sum, and
            # the neighbour k places further on is total[k:][corner]. gx =
            # (ne + 2 east + se) - (nw + 2 west + sw) and gy = (sw + 2 s +
            # se) - (nw + 2 n + ne), from the diagonals a = se - nw and b =
            # ne - sw. The full-frame gradient buffers, unused on this path,
            # hold the scratch.
            corner = active // w
            corner *= 2
            corner += active
            total = total.ravel()
            wp = w + 2
            a, b = self._gx.ravel()[:n], self._gy.ravel()[:n]

            def neighbour(k: int, out: np.ndarray) -> np.ndarray:
                return np.take(total[k:], corner, out=out, mode="wrap")

            np.subtract(neighbour(2 * wp + 2, gx), neighbour(0, a), out=a)
            np.subtract(neighbour(2, gy), neighbour(2 * wp, b), out=b)
            np.add(a, b, out=gx)
            np.subtract(a, b, out=gy)
            np.subtract(neighbour(wp + 2, a), neighbour(wp, b), out=a)
            a += a
            gx += a
            np.subtract(neighbour(2 * wp + 1, a), neighbour(1, b), out=a)
            a += a
            gy += a

        # Motion direction: gradient of the mean frame, sign-corrected by the
        # temporal difference (y measured upward, i.e. toward decreasing rows).
        signed = np.take(diff.ravel(), active, out=self._active_diff[:n], mode="wrap")
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
        return hist.sum(axis=2) / self.counts, hist / self.counts[..., None]


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
    # The bits go in with adds and multiplies, which numpy vectorises on
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


# ---------------------------------------------------------------------------
# Interchange: JSON-lines and PGM
# ---------------------------------------------------------------------------

def motion_to_json(frame: MotionFrame, band: str | None = None) -> str:
    """One JSON line: {"t", "gw", "gh", "blocks": [[density, [h0..h7]], ...]}.

    Field order is fixed; floats keep full precision. A density-only frame
    writes an empty bin list per block. ``band`` appends a band label for
    filtered streams.
    """
    blocks = [
        [float(frame.density[by, bx]), [float(v) for v in frame.dir_hist[by, bx]]]
        for by in range(frame.grid_h)
        for bx in range(frame.grid_w)
    ]
    obj: dict = {"t": frame.timestamp_ms, "gw": frame.grid_w, "gh": frame.grid_h, "blocks": blocks}
    if band is not None:
        obj["band"] = band
    return json.dumps(obj, separators=(",", ":"))


def motion_from_json(line: str) -> tuple[MotionFrame, str | None]:
    """Inverse of :func:`motion_to_json`; returns (frame, band-or-None)."""
    obj = json.loads(line)
    gw, gh = int(obj["gw"]), int(obj["gh"])
    blocks = obj["blocks"]
    if len(blocks) != gw * gh:
        raise RejectedInputError(f"expected {gw * gh} blocks, got {len(blocks)}")
    n_bins = len(blocks[0][1]) if blocks else 0
    density = np.empty((gh, gw))
    hist = np.empty((gh, gw, n_bins))
    for i, (d, bins) in enumerate(blocks):
        if len(bins) != n_bins:
            raise RejectedInputError(f"block {i} has {len(bins)} bins, block 0 has {n_bins}")
        by, bx = divmod(i, gw)
        density[by, bx] = d
        hist[by, bx] = bins
    frame = MotionFrame(density=density, dir_hist=hist, timestamp_ms=int(obj["t"]))
    return frame, obj.get("band")


def write_jsonl(path: str | Path, frames: Iterable[MotionFrame]) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for frame in frames:
            fh.write(motion_to_json(frame) + "\n")
            n += 1
    return n


def read_jsonl(path: str | Path) -> Iterator[MotionFrame]:
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield motion_from_json(line)[0]


def write_pgm(path: str | Path, frame: GrayFrame) -> None:
    """Binary (P5) PGM, maxval 255, no comment lines."""
    px = np.clip(np.round(frame.pixels), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{px.shape[1]} {px.shape[0]}\n255\n".encode("ascii"))
        fh.write(px.tobytes())


def read_pgm(path: str | Path, timestamp_ms: int = 0) -> GrayFrame:
    with open(path, "rb") as fh:
        data = fh.read()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    if fields[0] != b"P5":
        raise RejectedInputError(f"not a binary PGM (magic {fields[0]!r})")
    width, height, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval > 255:
        raise RejectedInputError(f"16-bit PGM unsupported (maxval {maxval})")
    pos += 1  # single whitespace after maxval
    raster = data[pos : pos + width * height]
    if len(raster) != width * height:
        raise RejectedInputError("PGM raster truncated")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    return GrayFrame(pixels=pixels.copy(), timestamp_ms=timestamp_ms)
