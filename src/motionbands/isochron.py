"""Long-term activity statistics per minute of day.

One store per camera holds 1440 slots, one per minute of day. Each slot
keeps an EMA of the per-minute density aggregate (``update`` blends it with
the cascade's own ``filters._ema``), the standard deviation of an
exponentially weighted density variance, a day counter and the absolute
day of its last dated sample. The EMA constant ``a`` is parameterized by a
10%-decay span in days.

The variance follows Finch (2009), "Incremental calculation of weighted
mean and variance": with ``d`` the sample's deviation from the mean
before the update, ``var <- a * (var + (1 - a) * d^2)``. On a stationary
stream that settles at ``2a / (1 + a)`` times the true variance, because
the mean it is measured from is itself a noisy estimate, so the store
keeps it scaled by ``(1 + a) / (2a)``: ``var <- a * var + (1 - a)(1 + a)
/ 2 * d^2``. The stored std, the root of that variance, then estimates
the stream's standard deviation.

The first observation of a slot initializes the mean directly instead of
blending with the all-zero prior, avoiding a multi-day warm-up bias.

A sample is dated or undated. A dated sample carries its absolute day
(``timestamp_ms // 86_400_000``). One on or before the slot's last dated
day is refused and changes nothing, so a restarted pipeline or a replayed
day cannot store a minute twice. Otherwise it blends with ``a' = a **
(day - last_day)``, the weight of the days since the slot's last dated
sample (``a`` for the slot's first dated sample): the mean by the EMA with
``a'``, the variance by ``a' * var + (1 - a')(1 + a') / 2 * d^2``, the
irregular-interval form of the rule above, equal to it on consecutive
days. An undated sample counts as one day after the last with weight
``a`` and leaves the last dated day alone. Either kind adds one to the
day counter, which the event gate reads.

Means and stds are stored as float16 and computed in float64: ``update``
widens the minute's mean and std, blends with the std squared as the
variance, and rounds the mean and the new std once, to nearest, when it
stores them. Every reader widens what it reads, so ``query``,
``scalar_stats`` and ``minute_curve`` return float64 and ``binarize``
compares in float64; the std is read as stored, with no root taken per
read. Float16 keeps 11 significant bits (a relative step of at most
2**-10) from 6.1e-5 up to 65504, and an absolute step of 6e-8 below that
range. The std is stored rather than the variance because a typical
variance, about 1e-6, lies in that lower range, where under two digits
survive, while its root keeps all 11 bits. ``update`` refuses a sample
outside ``motion``'s density range, [0, 65504], whose ceiling is the
largest finite float16; any other keeps the blended mean and std at or
below 65504, so a record stays finite. On eight replayed days of the
benchmark's scenes, every gate decision is the same as with float32
records.

``binarize`` caches the support mask of the last epsilon asked for, and
``scalar_stats`` caches each minute's (mean, std, days); ``update`` drops
the mask and the updated minute's stats, and a freshly constructed or
loaded store starts with empty caches. ``binarize`` hands out the cached
mask itself, read-only like the cascade's bands, so no caller can alter
it and no call copies it.

File format v4 (little-endian): magic ``ISO1``, version u16 = 4, decay
span f64, camera id length u16 and its UTF-8 bytes, grid dims u16 x2
(width, height), zero bytes up to the next multiple of 8, then 1440
records of (density mean f16[gh*gw], density std f16[gh*gw], days u32,
last dated day i32, -1 for none), closed by a CRC32 trailer over
everything before it: 4 * gh * gw + 8 bytes per minute, 4,808 on a 40x30
grid, 6.92 MB a store (221.6 MB for 32 cameras). The padding and the
record size keep every field of every record aligned in a loaded store,
whatever the camera id's length and the grid: a record is a multiple of 4
bytes, and its u32 and i32 fields start at a multiple of 4. Writes go to
a temp file renamed into place, so readers never observe a partial
store; a failed write removes its temp file.

The store's memory is the v4 record layout: one packed structured array
of 1440 records, of which the mean, std, day counts and last days are
field views. ``save`` writes the header, that array's bytes and the CRC,
with no copy. ``load`` reads the whole file once into a fresh buffer and,
after its checks, keeps the record bytes of that buffer as the store's
array. Its checks allocate only small temporaries, so a load's peak
allocation is the file's size plus a few KB. Nothing maps the file:
rewriting it after a load leaves the store alone.

``load`` reads version 4 only; a file of an earlier version is refused
with its version in the message. Its checks, in order: CRC, magic,
version, header fields and zero padding, a payload size that must match
the record layout exactly, means and stds in the density range, and last
days of at least -1.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from tempfile import NamedTemporaryFile

import numpy as np

from .config import BandParams, alpha_from_decay, checked
from .errors import InvalidParameterError, RejectedInputError, StoreLoadError
from .filters import _ema, _frozen
from .motion import _DENSITY_MAX, MotionFrame, _in_density_range, block_mean

MINUTES_PER_DAY = 1440

_MAGIC = b"ISO1"
_VERSION = 4
_ALIGN = 8  # the header is padded to a multiple of this many bytes
_LAST_DAY_MAX = int(np.iinfo(np.int32).max)


def _slot_dtype(grid_w: int, grid_h: int) -> np.dtype:
    """One minute's record, packed: density mean, density std, days, last
    dated day."""
    grid = (grid_h, grid_w)
    return np.dtype(
        [("density", "<f2", grid), ("std", "<f2", grid), ("days", "<u4"), ("last_day", "<i4")]
    )


def _padding(header_len: int) -> int:
    return -header_len % _ALIGN


def _first_bad_minute(slots: np.ndarray) -> int | None:
    """The first minute whose density mean or std is outside the density
    range, or None. A clean store costs one range check per field."""
    fields = slots["density"], slots["std"]
    if all(map(_in_density_range, fields)):
        return None
    ok = [((v >= 0.0) & (v <= _DENSITY_MAX)).all(axis=(1, 2)) for v in fields]
    return int(np.argmin(ok[0] & ok[1]))


def minute_of_day(timestamp_ms: int) -> int:
    return (timestamp_ms // 60_000) % MINUTES_PER_DAY


class IsochronalStore:
    """Per-minute-of-day motion density statistics for one camera.

    ``config.checked`` holds the grid to integers >= 1, ``t_l2_days`` (before
    ``float``) to > 0, minutes to integers in [0, 1439], days to integers in
    [0, 2**31 - 1] and ``epsilon`` to >= 0."""

    def __init__(
        self, camera_id: str, grid_w: int, grid_h: int, t_l2_days: float = BandParams.t_l2_days
    ):
        self._configure(camera_id, grid_w, grid_h, t_l2_days)
        slots = np.zeros(MINUTES_PER_DAY, dtype=_slot_dtype(grid_w, grid_h))
        slots["last_day"] = -1
        self._adopt(slots)

    def _configure(self, camera_id: str, grid_w: int, grid_h: int, t_l2_days: float) -> None:
        # Checked here, not at the first save: a file holds the id's UTF-8
        # bytes behind a u16 length.
        try:
            fits = len(camera_id.encode("utf-8")) <= 0xFFFF
        except (AttributeError, UnicodeEncodeError):
            fits = False
        if not fits:
            raise InvalidParameterError(
                f"camera id must be a str of at most 65535 UTF-8 bytes, got {camera_id!r:.40}"
            )
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
        self._std = slots["std"]
        self._days = slots["days"]
        self._last_day = slots["last_day"]
        self._support: tuple[float, np.ndarray] | None = None  # (epsilon, mask)
        self._stats: dict[int, tuple[float, float, int]] = {}  # minute -> scalar_stats

    # ------------------------------------------------------------------ update

    def _check_minute(self, minute: int) -> None:
        checked("minute-of-day", minute, 0, MINUTES_PER_DAY - 1, integral=True)

    def update(self, minute: int, sample: MotionFrame, day: int | None = None) -> bool:
        """Blend one per-minute aggregate's density into the slot's
        statistics; True if it was stored.

        ``day`` is the sample's absolute day, or None for an undated
        sample (see the module docstring). A dated sample on or before the
        slot's last dated day returns False and leaves the store unchanged.
        The sample may carry direction bins, which are checked and not
        stored. A sample with a density or bin outside ``motion``'s range,
        [0, 65504], raises :class:`RejectedInputError` and leaves the store
        unchanged. The slot's mean and std are widened to float64; the mean
        is blended by ``filters._ema`` and the variance, the std squared,
        by Finch's rule, and both are rounded once to float16 when stored.
        """
        self._check_minute(minute)
        if day is not None:
            checked("day", day, 0, _LAST_DAY_MAX, integral=True)
        if (sample.grid_h, sample.grid_w) != (self.grid_h, self.grid_w):
            raise RejectedInputError(
                f"sample grid {(sample.grid_h, sample.grid_w)} does not match "
                f"store grid {(self.grid_h, self.grid_w)}"
            )
        if not sample.in_density_range():
            raise RejectedInputError(
                f"sample for minute {minute} has a non-finite or negative density or bin, "
                f"or one above {_DENSITY_MAX:.0f}"
            )
        x = sample.density
        a, gain = self.alpha_l2, self._var_gain
        if day is not None:
            last = int(self._last_day[minute])
            if day <= last:
                return False
            if last >= 0:
                a = a ** int(day - last)
                gain = (1.0 - a) * (1.0 + a) / 2.0
            self._last_day[minute] = day
        self._support = None
        self._stats.pop(minute, None)
        if self._days[minute] == 0:
            mean, std = x, np.zeros(x.shape)
        else:
            mean = self._mean_density[minute].astype(np.float64)
            dev = np.subtract(x, mean)  # from the mean before the update
            _ema(mean, x, a, np.empty_like(mean))
            # var <- a * var + gain * dev**2, with var the std squared
            std = self._std[minute].astype(np.float64)
            np.multiply(std, std, out=std)
            np.multiply(std, a, out=std)
            np.multiply(dev, dev, out=dev)
            np.multiply(dev, gain, out=dev)
            np.add(std, dev, out=std)
            np.sqrt(std, out=std)
        # + 0.0 turns -0.0 into +0.0.
        self._mean_density[minute] = mean + 0.0
        self._std[minute] = std + 0.0
        self._days[minute] += 1
        return True

    # ------------------------------------------------------------------ query

    def query(self, minute: int) -> tuple[MotionFrame, np.ndarray, int]:
        """Immutable snapshot: (density-only mean frame, per-block density
        std, days seen), in float64."""
        self._check_minute(minute)
        mean = MotionFrame(
            density=self._mean_density[minute].astype(np.float64),
            dir_hist=np.zeros((self.grid_h, self.grid_w, 0)),
            timestamp_ms=int(minute) * 60_000,
        )
        return mean, self._std[minute].astype(np.float64), int(self._days[minute])

    def scalar_stats(self, minute: int) -> tuple[float, float, int]:
        """Block-averaged (mean activity, std, days) for threshold checks,
        the block means of ``query``'s arrays. Cached per minute until the
        next ``update`` of that minute."""
        self._check_minute(minute)  # first: True or 5.0 would find 1's or 5's stats
        stats = self._stats.get(minute)
        if stats is None:
            mean = self._mean_density[minute].astype(np.float64)
            std = self._std[minute].astype(np.float64)
            stats = self._stats[minute] = (block_mean(mean), block_mean(std), int(self._days[minute]))
        return stats

    def binarize(self, epsilon: float = 1e-3) -> np.ndarray:
        """Time-collapsed support mask: per block, 1 iff any minute's mean
        density exceeds ``epsilon``. Cached until the next ``update``; the
        mask is read-only, so every caller may share it."""
        checked("epsilon", epsilon)
        if self._support is None or self._support[0] != epsilon:
            # The block maxima come from the bit patterns read as int16:
            # 0.24 against 7.1 ms for numpy's float16 max over 1440 x 30 x
            # 40 (2-vCPU Xeon). For finite values >= +0.0 the bit order is
            # the numeric order, and -0.0, which load admits, reads as the
            # least int16, below every other value. The maxima are compared
            # in float64.
            top = np.maximum.reduce(self._mean_density.view(np.int16), axis=0)
            mask = (top.view(np.float16).astype(np.float64) > np.float64(epsilon)).astype(np.uint8)
            self._support = (epsilon, _frozen(mask))
        return self._support[1]

    def minute_curve(self) -> np.ndarray:
        """Block-averaged mean activity per minute, shape (1440,)."""
        return self._mean_density.mean(axis=(1, 2), dtype=np.float64)

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
        header += bytes(_padding(len(header)))
        body = self._slots.view(np.uint8)
        crc = zlib.crc32(body, zlib.crc32(header))

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = NamedTemporaryFile(dir=path.parent, delete=False)
        try:
            with tmp:
                tmp.write(header)
                tmp.write(body)
                tmp.write(struct.pack("<I", crc))
            Path(tmp.name).replace(path)
        except BaseException:
            Path(tmp.name).unlink(missing_ok=True)
            raise

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
        pad = _padding(20 + cam_len)
        start = 20 + cam_len + pad
        if payload[start - pad : start] != bytes(pad):
            raise StoreLoadError(f"bad header in store file {path}: padding is not {pad} zero bytes")
        slot = _slot_dtype(grid_w, grid_h)
        expected = len(payload) - start
        needed = MINUTES_PER_DAY * slot.itemsize
        if expected != needed:
            raise StoreLoadError(
                f"store file {path} has {expected} payload bytes, expected {needed}"
            )
        slots = data[start : len(payload)].view(slot)
        bad = _first_bad_minute(slots)
        if bad is not None:
            raise StoreLoadError(
                f"store file {path} has a non-finite or negative density mean or "
                f"std at minute {bad}"
            )
        early = np.flatnonzero(slots["last_day"] < -1)
        if early.size:
            raise StoreLoadError(
                f"store file {path} has a last day below -1 at minute {early[0]}"
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
            and np.array_equal(self._std, other._std)
            and np.array_equal(self._days, other._days)
            and np.array_equal(self._last_day, other._last_day)
        )
