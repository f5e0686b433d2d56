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
    those with ``|curr - prev| >= noise_floor``: only they get a Sobel
    gradient, a direction and a block vote. ``noise_floor=0`` makes every
    pixel active. Integer pixel arrays are processed in ``int16``, so the
    gradients are exact; other dtypes use ``float64``. The gradient
    magnitude is the square root of the exact sum of squares, and the
    direction bin is the octant of the motion vector from integer
    comparisons, equal to ``round(atan2(vy, vx) / 45 deg) mod 8``.

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
    work = np.int16 if integral else np.float64
    # Integer differences are whole numbers (at most 255 in magnitude), so
    # the rounded-up floor selects the same pixels.
    floor = math.ceil(min(noise_floor, 256.0)) if integral else noise_floor

    signed = np.subtract(curr.pixels, prev.pixels, dtype=work).ravel()
    active = np.flatnonzero(np.abs(signed) >= floor)
    signed = signed[active]

    # Sobel of the sum frame (twice the Sobel of the mean frame), exact in
    # int16. Neighbours are gathered from the flattened, edge-padded sum at
    # the active pixels only. The edges are copied by hand: ``np.pad``
    # costs about 50 us more per VGA frame.
    total = np.empty((h + 2, w + 2), dtype=work)
    np.add(prev.pixels, curr.pixels, out=total[1:-1, 1:-1], dtype=work)
    total[0, 1:-1] = total[1, 1:-1]
    total[-1, 1:-1] = total[-2, 1:-1]
    total[:, 0] = total[:, 1]
    total[:, -1] = total[:, -2]
    total = total.ravel()
    # Index arithmetic runs in int32 whenever the largest index below,
    # the (block, key) slot, fits; int32 divides about three times as fast.
    index = np.int32 if len(_OCTANT) * h * w < 2**31 else np.intp
    flat = active.astype(index)
    row = flat // w
    # ``corner`` indexes each active pixel's top-left neighbour in the
    # padded sum; the neighbour ``k`` places further on is total[k:][corner].
    wp = w + 2
    corner = (flat + 2 * row).astype(np.intp)
    nw, n, ne, west, east, sw, s, se = (
        total[k:][corner] for k in (0, 1, 2, wp, wp + 2, 2 * wp, 2 * wp + 1, 2 * wp + 2)
    )
    # gx = (ne + 2 east + se) - (nw + 2 west + sw) and
    # gy = (sw + 2 s + se) - (nw + 2 n + ne), from the two diagonals.
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

    # Motion direction: gradient of the mean frame, sign-corrected by the
    # temporal difference (y measured upward, i.e. toward decreasing rows).
    magnitude, key = _magnitude_and_octant(gx, gy, signed < 0)
    # Per-pixel weight (|curr - prev| / 255) * (|Sobel of the mean| /
    # _SOBEL_MAX), in [0, 1]; zero wherever either factor vanishes.
    weight = magnitude
    weight *= np.abs(signed)
    weight *= _WEIGHT_SCALE

    grid_h = -(-h // block_size)
    grid_w = -(-w // block_size)
    n_blocks = grid_h * grid_w
    flat -= row * w  # now the column
    slot = row // block_size * grid_w + flat // block_size
    # One weighted vote per pixel into (block, octant key); the lookup then
    # folds each block's 16 key sums into its 8 direction bins. A bin draws
    # on at most two keys, so the fold adds at most two nonzero terms.
    slot *= len(_OCTANT)
    slot += key
    per_key = np.bincount(slot, weights=weight, minlength=n_blocks * len(_OCTANT))
    hist = (per_key.reshape(n_blocks, len(_OCTANT)) @ _KEY_TO_BIN).reshape(
        grid_h, grid_w, N_DIR_BINS
    )
    counts = np.outer(
        np.minimum(block_size, h - block_size * np.arange(grid_h)),
        np.minimum(block_size, w - block_size * np.arange(grid_w)),
    )
    return MotionFrame(
        density=hist.sum(axis=2) / counts,
        dir_hist=hist / counts[..., None],
        timestamp_ms=curr.timestamp_ms,
    )


def _magnitude_and_octant(
    gx: np.ndarray, gy: np.ndarray, negative: np.ndarray
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
    """
    wide = np.int32 if gx.dtype.kind == "i" else np.float64
    gx = gx.astype(wide)
    gy = gy.astype(wide)
    gx2 = gx * gx
    gy2 = gy * gy
    magnitude = (gx2 + gy2).astype(np.float64)
    np.sqrt(magnitude, out=magnitude)
    l1_sq = np.abs(gx)
    l1_sq += np.abs(gy)
    l1_sq *= l1_sq
    gx2 += gx2
    gy2 += gy2
    # The bits go in with multiplies and adds, which numpy vectorises on
    # uint8; it does not vectorise shifts. vx = -sign * gx > 0 iff gx < 0
    # xor sign < 0, and vy = sign * gy > 0 iff gy > 0 xor sign < 0.
    key = (l1_sq < gx2).view(np.uint8) * np.uint8(8)
    key += (l1_sq < gy2).view(np.uint8) * np.uint8(4)
    key += ((gx < 0) ^ negative).view(np.uint8) * np.uint8(2)
    key += (gy > 0) ^ negative
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
