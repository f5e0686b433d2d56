"""Temporal filter primitives and the four-band cascade.

All IIR stages are first-order exponential moving averages parameterized by
a 10%-decay duration: alpha = 0.1 ** (1 / (rate * duration)), so an impulse
fed into the filter decays to 10% of its value after ``rate * duration``
zero-input samples.

Band structure, from one motion stream:

* noise-free activity: high-pass at a long constant, realized as
  ``x - lowpass(x)``, removing continuous in-place "stationary motion
  noise" (flashing lights, foliage);
* short-term in-place activity: low-pass of the noise-free band, updated at
  a reduced rate (default 1/s) on the mean of the elapsed samples;
* short-term moving activity: band-pass realized as the in-place band's
  complement followed by a short FIR mean.

The cascade reuses the in-place low-pass output for the band-pass high
side; ``ReferenceFilter`` computes the identical bands with five
independent filter applications and an extra state frame, for cost
comparison. Counters tally architectural filter applications per
fully-updated tick (including the isochronal stage applied downstream):
4 per tick for the cascade against 5 for the reference, and 2 persistent
short-term state frames against 3.

The streaming filters update preallocated state in place (see
``_BandFilterBase``): a frame-rate tick allocates only the new noise-free
band, a short-term tick also the new in-place and moving bands, and every
band handed out is read-only and never written again. Frames with a
non-finite or negative value are rejected before any state changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, RejectedInputError
from .motion import N_DIR_BINS, MotionBlock, MotionFrame

CASCADE_MULTIPLIES_PER_TICK = 4
REFERENCE_MULTIPLIES_PER_TICK = 5
CASCADE_STATE_FRAMES = 2
REFERENCE_STATE_FRAMES = 3


def alpha_from_decay(rate_r: float, duration_t: float) -> float:
    """Filter coefficient for a 10%-decay duration of ``duration_t``.

    ``rate_r`` is samples per time unit and ``duration_t`` the decay span
    in the same unit (seconds for chronological stages, days for the
    isochronal stage).
    """
    if rate_r <= 0:
        raise InvalidParameterError(f"rate must be > 0, got {rate_r}")
    if duration_t <= 0:
        raise InvalidParameterError(f"duration must be > 0, got {duration_t}")
    return 0.1 ** (1.0 / (rate_r * duration_t))


@dataclass(frozen=True)
class DecaySpec:
    """Sampling rate, 10%-decay duration, and the derived coefficient."""

    rate_r: float
    duration_t: float
    alpha: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", alpha_from_decay(self.rate_r, self.duration_t))


@dataclass(frozen=True)
class BandParams:
    """Time constants for the four bands plus the two update rates.

    Durations are seconds except ``t_l2_days``. Defaults match a factory
    deployment: 30-minute noise-removal span, 10-day isochronal span, 20 s
    in-place span, 1 s moving-band FIR window, 30 fps input, 1 Hz
    short-term updates.
    """

    t_l1_s: float = 1800.0
    t_l2_days: float = 10.0
    t_s1_s: float = 20.0
    t_s2_s: float = 1.0
    frame_rate: float = 30.0
    shortterm_rate: float = 1.0

    def __post_init__(self) -> None:
        for name in ("t_l1_s", "t_l2_days", "t_s1_s", "t_s2_s", "frame_rate", "shortterm_rate"):
            if getattr(self, name) <= 0:
                raise InvalidParameterError(f"{name} must be > 0")
        if self.t_s1_s <= self.t_s2_s:
            raise InvalidParameterError(
                f"moving band is empty: t_s1_s ({self.t_s1_s}) must exceed t_s2_s ({self.t_s2_s})"
            )
        if self.t_l1_s <= self.t_s1_s:
            raise InvalidParameterError(
                f"band ordering violated: t_l1_s ({self.t_l1_s}) must exceed t_s1_s ({self.t_s1_s})"
            )
        stride = self.frame_rate / self.shortterm_rate
        if abs(stride - round(stride)) > 1e-9 or round(stride) < 1:
            raise InvalidParameterError(
                f"frame_rate ({self.frame_rate}) must be an integer multiple of "
                f"shortterm_rate ({self.shortterm_rate})"
            )

    @property
    def alpha_l1(self) -> float:
        return alpha_from_decay(self.frame_rate, self.t_l1_s)

    @property
    def alpha_s1(self) -> float:
        return alpha_from_decay(self.shortterm_rate, self.t_s1_s)

    @property
    def alpha_l2(self) -> float:
        # Isochronal stage: 1 sample per day.
        return alpha_from_decay(1.0, self.t_l2_days)

    @property
    def stride(self) -> int:
        return int(round(self.frame_rate / self.shortterm_rate))

    @property
    def fir_window(self) -> int:
        return int(math.ceil(self.shortterm_rate * self.t_s2_s))


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise InvalidParameterError(f"alpha must lie in [0, 1], got {alpha}")


def ema_step(state: MotionBlock, x: MotionBlock, alpha: float) -> MotionBlock:
    """One EMA update, component-wise over density and all direction bins.

    The returned block is both the filter output and the next state.
    """
    _check_alpha(alpha)
    return MotionBlock(
        density=alpha * state.density + (1.0 - alpha) * x.density,
        dir_hist=alpha * state.dir_hist + (1.0 - alpha) * x.dir_hist,
    )


def highpass_step(state: MotionBlock, x: MotionBlock, alpha: float) -> MotionBlock:
    """High-pass complement ``x - ema_step(state, x, alpha)``, floored at 0.

    The caller advances the shared low-pass state with :func:`ema_step`.
    """
    lp = ema_step(state, x, alpha)
    return MotionBlock(
        density=max(0.0, x.density - lp.density),
        dir_hist=np.maximum(0.0, x.dir_hist - lp.dir_hist),
    )


# ---------------------------------------------------------------------------
# Streaming band extraction
# ---------------------------------------------------------------------------

@dataclass
class BandOutputs:
    """Immutable per-tick snapshot of the three chronological bands."""

    m_l1: MotionFrame
    m_s1: MotionFrame
    m_s2: MotionFrame

    @property
    def timestamp_ms(self) -> int:
        return self.m_l1.timestamp_ms


def _ema(lp: np.ndarray, x: np.ndarray, alpha: float, tmp: np.ndarray) -> None:
    """``lp = alpha * lp + (1 - alpha) * x`` in place, rounded in that order;
    ``tmp`` is scratch of ``lp``'s shape."""
    np.multiply(lp, alpha, out=lp)
    np.multiply(x, 1.0 - alpha, out=tmp)
    np.add(lp, tmp, out=lp)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class _BandFilterBase:
    """Shared stream plumbing for the cascade and reference filters.

    Each state is one flat float64 buffer holding the density grid followed
    by the direction bins, so one ufunc call updates both; ``_split`` gives
    its (density, dir_hist) views. The states are the noise-removal
    low-pass, the sum of the noise-free band since the last short-term
    tick, the in-place low-pass, and a ring of the last ``fir_window``
    band-pass inputs; all are updated in place with ``out=`` ufuncs. A
    frame-rate tick allocates only the new noise-free band. A short-term
    tick also allocates the new in-place and moving bands, which later
    ticks hand out again until the next short-term tick. Every band array
    handed out is read-only and never written again.
    """

    multiplies_per_tick = 0
    state_frames = 0

    def __init__(self, grid_w: int, grid_h: int, params: BandParams):
        if grid_w < 1 or grid_h < 1:
            raise InvalidParameterError("grid dimensions must be positive")
        self.params = params
        self._grid = (grid_h, grid_w)
        self._hist_shape = (grid_h, grid_w, N_DIR_BINS)
        self._n_blocks = grid_h * grid_w
        self._alpha_l1 = params.alpha_l1
        self._alpha_s1 = params.alpha_s1
        self._stride = params.stride
        size = grid_h * grid_w * (1 + N_DIR_BINS)
        self._x = np.zeros(size)  # the current frame, copied in and checked
        self._x_views = self._split(self._x)
        self._tmp = np.zeros(size)
        self._lp_l1 = np.zeros(size)
        self._acc = np.zeros(size)
        self._acc_n = 0
        self._lp_s1 = np.zeros(size)
        self._fir = np.zeros((params.fir_window, size))
        self._fir_n = 0  # band-pass inputs written to the ring so far
        self._zeros = _frozen(np.zeros(size))
        self._m_s1 = self._m_s2 = self._split(self._zeros)
        self.multiplies = 0

    def _split(self, buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(density, dir_hist) views of a flat state buffer."""
        n = self._n_blocks
        return buf[:n].reshape(self._grid), buf[n:].reshape(self._hist_shape)

    def _load(self, frame: MotionFrame) -> np.ndarray:
        """The frame as a flat buffer, or :class:`RejectedInputError` for a
        wrong grid or a non-finite or negative value."""
        if frame.density.shape != self._grid:
            raise RejectedInputError(
                f"frame grid {(frame.grid_h, frame.grid_w)} does not match "
                f"filter grid {self._grid}"
            )
        density, hist = self._x_views
        np.copyto(density, frame.density)
        np.copyto(hist, frame.dir_hist)
        x = self._x
        # A NaN fails the comparison with zero, like a negative value.
        if not (np.minimum.reduce(x) >= 0.0 and np.maximum.reduce(x) < math.inf):
            raise RejectedInputError(
                f"frame at {frame.timestamp_ms} ms has a non-finite or negative density or bin"
            )
        return x

    def _band_hp(self, st_input: np.ndarray, out: np.ndarray) -> None:
        """Write the band-pass high side of ``st_input`` into ``out``."""
        raise NotImplementedError

    def step(self, frame: MotionFrame) -> BandOutputs:
        """Advance one frame-rate tick; short-term bands update on the
        reduced-rate ticks and are carried in between.

        A frame with a non-finite or negative value raises
        :class:`RejectedInputError` and leaves the filter unchanged.
        """
        x = self._load(frame)
        lp = self._lp_l1
        _ema(lp, x, self._alpha_l1, self._tmp)
        m_l1 = np.subtract(x, lp)
        # A zero array rather than the scalar 0.0: numpy's array-array
        # loop is the faster one, and the result is the same.
        np.maximum(self._zeros, m_l1, out=m_l1)
        np.add(self._acc, m_l1, out=self._acc)
        self._acc_n += 1
        if self._acc_n == self._stride:
            self._short_term_tick()

        t = frame.timestamp_ms
        wrap = MotionFrame._wrap
        return BandOutputs(
            m_l1=wrap(*self._split(_frozen(m_l1)), t),
            m_s1=wrap(*self._m_s1, t),
            m_s2=wrap(*self._m_s2, t),
        )

    def _short_term_tick(self) -> None:
        acc, lp, ring = self._acc, self._lp_s1, self._fir
        np.divide(acc, self._acc_n, out=acc)  # the short-term input
        _ema(lp, acc, self._alpha_s1, self._tmp)
        k = len(ring)
        self._band_hp(acc, ring[self._fir_n % k])
        self._fir_n += 1
        # Window mean summed oldest first, the order of a mean over the
        # stacked window; another order changes the last bits.
        n = min(self._fir_n, k)
        oldest = self._fir_n - n
        m_s2 = ring[oldest % k].copy()
        for i in range(oldest + 1, oldest + n):
            np.add(m_s2, ring[i % k], out=m_s2)
        np.divide(m_s2, n, out=m_s2)
        np.maximum(0.0, m_s2, out=m_s2)
        self._m_s1 = self._split(_frozen(lp.copy()))
        self._m_s2 = self._split(_frozen(m_s2))
        acc.fill(0.0)
        self._acc_n = 0
        self.multiplies += self.multiplies_per_tick


class CascadeFilter(_BandFilterBase):
    """Band extraction reusing the in-place low-pass for the band-pass
    high side: 4 filter applications per fully-updated tick, 2 persistent
    short-term state frames."""

    multiplies_per_tick = CASCADE_MULTIPLIES_PER_TICK
    state_frames = CASCADE_STATE_FRAMES

    def _band_hp(self, st_input: np.ndarray, out: np.ndarray) -> None:
        np.subtract(st_input, self._lp_s1, out=out)


class ReferenceFilter(_BandFilterBase):
    """Non-cascaded variant: the band-pass high side runs its own low-pass
    with a third state frame. Outputs match :class:`CascadeFilter` exactly
    for identical input streams."""

    multiplies_per_tick = REFERENCE_MULTIPLIES_PER_TICK
    state_frames = REFERENCE_STATE_FRAMES

    def __init__(self, grid_w: int, grid_h: int, params: BandParams):
        super().__init__(grid_w, grid_h, params)
        self._lp_bp = np.zeros_like(self._lp_s1)

    def _band_hp(self, st_input: np.ndarray, out: np.ndarray) -> None:
        _ema(self._lp_bp, st_input, self._alpha_s1, self._tmp)
        np.subtract(st_input, self._lp_bp, out=out)


def counters_csv(filters: dict[str, _BandFilterBase]) -> str:
    """Counter report, one row per implementation: impl,multiplies,state_frames."""
    lines = ["impl,multiplies,state_frames"]
    for name, f in filters.items():
        lines.append(f"{name},{f.multiplies},{f.state_frames}")
    return "\n".join(lines) + "\n"
