"""Long-term activity statistics per minute of day.

One store per camera holds 1440 slots, one per minute of day. Each slot
keeps an EMA of the per-minute density aggregate (the cascade's
``filters._ema``), an exponentially weighted density variance, and a day
counter. Updates arrive once per slot per day; the EMA constant ``a`` is
parameterized by a 10%-decay span in days.

The variance follows Finch (2009), "Incremental calculation of weighted
mean and variance": with ``d`` the sample's deviation from the mean
before the update, ``var <- a * (var + (1 - a) * d^2)``. On a stationary
stream that settles at ``2a / (1 + a)`` times the true variance, because
the mean it is measured from is itself a noisy estimate, so the store
keeps it scaled by ``(1 + a) / (2a)``: ``var <- a * var + (1 - a)(1 + a)
/ 2 * d^2``. The reported std then estimates the stream's standard
deviation.

The first observation of a slot initializes the mean directly instead of
blending with the all-zero prior, avoiding a multi-day warm-up bias.

``binarize`` caches the support mask of the last epsilon asked for, and
``scalar_stats`` caches each minute's (mean, std, days); ``update`` drops
the mask and the updated minute's stats, and a freshly constructed or
loaded store starts with empty caches. ``binarize`` hands out the cached
mask itself, read-only like the cascade's bands, so no caller can alter
it and no call copies it.

File format v2 (little-endian): magic ``ISO1``, version u16 = 2, decay
span f64, camera id length u16 and its UTF-8 bytes, grid dims u16 x2
(width, height), then 1440 slots of (density mean f64[gh*gw], density
variance f64[gh*gw], days u32), closed by a CRC32 trailer over everything
before it: 16 * gh * gw + 4 bytes per minute, 19,204 on a 40x30 grid.
Writes go to a temp file renamed into place, so readers never observe a
partial store.

The store's memory is the v2 slot layout: one packed structured array of
1440 such records, of which the mean, variance and day counts are field
views. ``save`` writes the header, that array's bytes and the CRC, with no
copy. ``load`` reads the whole file once into a fresh buffer and, after
its checks, keeps the slot bytes of that buffer as the store's array. A
load's peak allocation is the file's size plus about 64 KB, numpy's
buffer for the value check over unaligned records: 27.72 MB for a
27.65 MB file. Nothing maps the file: rewriting it after a load leaves the store alone.

``load`` reads version 2 only. Its checks, in order: CRC, magic, version,
header fields, a payload size that must match the slot layout exactly,
and finite, non-negative means and variances.

The price of the packed layout is alignment. A 40x30 record is 19,204
bytes, so every other minute's fields sit 4 bytes off an 8-byte boundary
(in a loaded store, every minute's when the header's length is not a
multiple of 8), and numpy takes its slower unaligned path over them.
Medians of six alternating processes on a 40x30 store (2-vCPU Xeon),
three separate aligned arrays against this layout: ``binarize`` 0.71 ->
1.15 ms (cached until the next update), ``update`` 14.4 -> 21.0 us (once
per camera-minute), ``minute_curve`` 0.76 -> 1.41 ms. Padding the records
would change the file format.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from pathlib import Path
from tempfile import NamedTemporaryFile

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .config import BandParams, alpha_from_decay, checked
from .errors import InvalidParameterError, RejectedInputError, StoreLoadError
from .filters import _ema, _frozen
from .motion import MotionFrame, _finite_nonnegative, block_mean

MINUTES_PER_DAY = 1440

_MAGIC = b"ISO1"
_VERSION = 2


def _slot_dtype(grid_w: int, grid_h: int) -> np.dtype:
    """One minute's record, packed: density mean, density variance, days."""
    grid = (grid_h, grid_w)
    return np.dtype([("density", "<f8", grid), ("var", "<f8", grid), ("days", "<u4")])


def _first_bad_minute(slots: np.ndarray, cells: int) -> int | None:
    """The first minute whose density mean or variance is non-finite or
    negative, or None. The check is one pass over a (1440, 2 * cells)
    float64 view of ``slots`` with the record stride: in a record the
    variance follows the mean, and the days are left out."""
    values = as_strided(
        slots["density"], (MINUTES_PER_DAY, 2 * cells), (slots.itemsize, 8), writeable=False
    )
    if _finite_nonnegative(values):
        return None
    return int(np.argmin(((values >= 0.0) & (values < math.inf)).all(axis=1)))


def minute_of_day(timestamp_ms: int) -> int:
    return (timestamp_ms // 60_000) % MINUTES_PER_DAY


class IsochronalStore:
    """Per-minute-of-day motion density statistics for one camera.

    ``config.checked`` holds the grid to integers >= 1, ``t_l2_days`` (before
    ``float``) to > 0, minutes to integers in [0, 1439] and ``epsilon`` to >= 0."""

    def __init__(
        self, camera_id: str, grid_w: int, grid_h: int, t_l2_days: float = BandParams.t_l2_days
    ):
        self._configure(camera_id, grid_w, grid_h, t_l2_days)
        self._adopt(np.zeros(MINUTES_PER_DAY, dtype=_slot_dtype(grid_w, grid_h)))

    def _configure(self, camera_id: str, grid_w: int, grid_h: int, t_l2_days: float) -> None:
        self.camera_id = camera_id
        self.grid_w = checked("grid_w", grid_w, 1, integral=True)
        self.grid_h = checked("grid_h", grid_h, 1, integral=True)
        self.alpha_l2 = a = alpha_from_decay(1.0, t_l2_days)
        self.t_l2_days = float(t_l2_days)
        # Finch's a * (var + (1 - a) * d^2) scaled by (1 + a) / (2a).
        self._var_gain = (1.0 - a) * (1.0 + a) / 2.0

    def _adopt(self, slots: np.ndarray) -> None:
        """Make ``slots``, 1440 records, the store's memory, with empty
        caches."""
        self._slots = slots
        self._mean_density = slots["density"]
        self._var = slots["var"]
        self._days = slots["days"]
        self._support: tuple[float, np.ndarray] | None = None  # (epsilon, mask)
        self._stats: dict[int, tuple[float, float, int]] = {}  # minute -> scalar_stats

    # ------------------------------------------------------------------ update

    def _check_minute(self, minute: int) -> None:
        checked("minute-of-day", minute, 0, MINUTES_PER_DAY - 1, integral=True)

    def update(self, minute: int, sample: MotionFrame) -> None:
        """Blend one per-minute aggregate's density into the slot's
        statistics.

        Callers feed at most one sample per slot per day. The sample may
        carry direction bins, which are checked and not stored. A sample
        with a NaN, infinite or negative density or bin raises
        :class:`RejectedInputError` and leaves the store unchanged.
        """
        self._check_minute(minute)
        if (sample.grid_h, sample.grid_w) != (self.grid_h, self.grid_w):
            raise RejectedInputError(
                f"sample grid {(sample.grid_h, sample.grid_w)} does not match "
                f"store grid {(self.grid_h, self.grid_w)}"
            )
        if not sample.finite_nonnegative():
            raise RejectedInputError(
                f"sample for minute {minute} has a non-finite or negative density or bin"
            )
        self._support = None
        self._stats.pop(minute, None)
        a, mean = self.alpha_l2, self._mean_density[minute]
        if self._days[minute] == 0:
            mean[...] = sample.density
            self._var[minute] = 0.0
        else:
            dev = sample.density - mean
            self._var[minute] = a * self._var[minute] + self._var_gain * dev * dev
            _ema(mean, sample.density, a, dev)  # dev is spent: it serves as scratch
        self._days[minute] += 1

    # ------------------------------------------------------------------ query

    def query(self, minute: int) -> tuple[MotionFrame, np.ndarray, int]:
        """Immutable snapshot: (density-only mean frame, per-block density
        std, days seen)."""
        self._check_minute(minute)
        mean = MotionFrame(
            density=self._mean_density[minute].copy(),
            dir_hist=np.zeros((self.grid_h, self.grid_w, 0)),
            timestamp_ms=int(minute) * 60_000,
        )
        std = np.sqrt(self._var[minute])
        return mean, std, int(self._days[minute])

    def scalar_stats(self, minute: int) -> tuple[float, float, int]:
        """Block-averaged (mean activity, std, days) for threshold checks.
        Cached per minute until the next ``update`` of that minute."""
        self._check_minute(minute)  # first: True or 5.0 would find 1's or 5's stats
        stats = self._stats.get(minute)
        if stats is None:
            stats = self._stats[minute] = (
                block_mean(self._mean_density[minute]),
                block_mean(np.sqrt(self._var[minute])),
                int(self._days[minute]),
            )
        return stats

    def binarize(self, epsilon: float = 1e-3) -> np.ndarray:
        """Time-collapsed support mask: per block, 1 iff any minute's mean
        density exceeds ``epsilon``. Cached until the next ``update``; the
        mask is read-only, so every caller may share it."""
        checked("epsilon", epsilon)
        if self._support is None or self._support[0] != epsilon:
            mask = (self._mean_density.max(axis=0) > epsilon).astype(np.uint8)
            self._support = (epsilon, _frozen(mask))
        return self._support[1]

    def minute_curve(self) -> np.ndarray:
        """Block-averaged mean activity per minute, shape (1440,)."""
        return self._mean_density.mean(axis=(1, 2))

    # ------------------------------------------------------------------ persistence

    def save(self, path: str | Path) -> None:
        cam = self.camera_id.encode("utf-8")
        header = b"".join(
            (
                _MAGIC,
                struct.pack("<HdH", _VERSION, self.t_l2_days, len(cam)),
                cam,
                struct.pack("<HH", self.grid_w, self.grid_h),
            )
        )
        body = self._slots.view(np.uint8)
        crc = zlib.crc32(body, zlib.crc32(header))

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with NamedTemporaryFile(dir=path.parent, delete=False) as tmp:
            tmp.write(header)
            tmp.write(body)
            tmp.write(struct.pack("<I", crc))
            tmp_path = Path(tmp.name)
        tmp_path.replace(path)

    @classmethod
    def load(cls, path: str | Path) -> "IsochronalStore":
        try:
            with open(path, "rb") as f:
                data = np.empty(os.fstat(f.fileno()).st_size, dtype=np.uint8)
                got = f.readinto(data)
        except OSError as exc:
            raise StoreLoadError(f"cannot read store file {path}: {exc}") from exc
        if got != data.size or got < len(_MAGIC) + 2 + 4:
            raise StoreLoadError(f"store file {path} is truncated")
        payload = memoryview(data)[:-4]
        (crc_stored,) = struct.unpack_from("<I", data, len(payload))
        if zlib.crc32(payload) != crc_stored:
            raise StoreLoadError(f"checksum mismatch in store file {path}")

        if payload[: len(_MAGIC)] != _MAGIC:
            raise StoreLoadError(f"bad magic in store file {path}")
        (version,) = struct.unpack_from("<H", payload, 4)
        if version != _VERSION:
            raise StoreLoadError(f"unsupported store version {version} in {path}")
        store = cls.__new__(cls)
        try:
            t_l2_days, cam_len = struct.unpack_from("<dH", payload, 6)
            camera_id = str(payload[16 : 16 + cam_len], "utf-8")
            grid_w, grid_h = struct.unpack_from("<HH", payload, 16 + cam_len)
            store._configure(camera_id, grid_w, grid_h, t_l2_days)
        except (struct.error, UnicodeDecodeError, InvalidParameterError) as exc:
            raise StoreLoadError(f"bad header in store file {path}: {exc}") from exc
        start = 20 + cam_len
        slot = _slot_dtype(grid_w, grid_h)
        expected = len(payload) - start
        needed = MINUTES_PER_DAY * slot.itemsize
        if expected != needed:
            raise StoreLoadError(
                f"store file {path} has {expected} payload bytes, expected {needed}"
            )
        slots = data[start : len(payload)].view(slot)
        bad = _first_bad_minute(slots, grid_w * grid_h)
        if bad is not None:
            raise StoreLoadError(
                f"store file {path} has a non-finite or negative density mean or "
                f"variance at minute {bad}"
            )
        store._adopt(slots)
        return store

    # ------------------------------------------------------------------ comparison

    def equals(self, other: "IsochronalStore") -> bool:
        return (
            self.camera_id == other.camera_id
            and self.grid_w == other.grid_w
            and self.grid_h == other.grid_h
            and self.t_l2_days == other.t_l2_days
            and np.array_equal(self._mean_density, other._mean_density)
            and np.array_equal(self._var, other._var)
            and np.array_equal(self._days, other._days)
        )
