"""The four-band temporal filter cascade.

All IIR stages are first-order exponential moving averages parameterized by
a 10%-decay duration: alpha = 0.1 ** (1 / (rate * duration)), so an impulse
fed into the filter decays to 10% of its value after ``rate * duration``
zero-input samples. The spans and rates are the frozen, checked
``config.BandParams``, which derives each stage's alpha with
``config.alpha_from_decay``.

Band structure, from one motion stream:

* noise-free activity: high-pass at a long constant, realized as
  ``x - lowpass(x)``, removing continuous in-place "stationary motion
  noise" (flashing lights, foliage);
* short-term in-place activity: low-pass of the noise-free band, updated at
  a reduced rate (default 1/s) on the mean of the elapsed samples;
* short-term moving activity: band-pass realized as the in-place band's
  complement followed by a short FIR mean.

The cascade reuses the in-place low-pass output for the band-pass high
side, so the moving band costs no low-pass of its own: two persistent
short-term state frames, where a band-pass with its own low-pass would
need three. The isochronal stage downstream has its own decay span (see
``IsochronalStore``).

The bands filter motion density only. The gate, the isochronal store and
the planner read nothing else, so the direction bins of an extracted frame
are checked and dropped at the filter's input, every state is one density
grid, and each band is a frame with an empty histogram (see
``MotionFrame``). Density is filtered element-wise, so dropping the bins
leaves every density bit for bit as it was.

The streaming filter updates preallocated state in place (see
``CascadeFilter``): a frame-rate tick allocates only the new noise-free
band, a short-term tick also the new in-place and moving bands, and every
band handed out is read-only and never written again. Frames with a
non-finite or negative density or bin are rejected before any state
changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import BandParams, checked
from .errors import RejectedInputError
from .motion import MotionFrame


@dataclass
class BandOutputs:
    """Immutable per-tick snapshot of the three chronological bands, each a
    density-only frame (see :class:`MotionFrame`)."""

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


class CascadeFilter:
    """Band extraction reusing the in-place low-pass for the band-pass
    high side.

    Every state is one (grid_h, grid_w) float64 density grid: the
    noise-removal low-pass, the sum of the noise-free band since the last
    short-term tick, the in-place low-pass, and a ring of the last
    ``fir_window`` band-pass inputs; all are updated in place with ``out=``
    ufuncs. Input frames may carry direction bins, which are checked and
    then dropped, so the bands are density-only frames. A frame-rate tick
    allocates only the new noise-free band. A short-term tick also
    allocates the new in-place and moving bands, which later ticks hand
    out again until the next short-term tick. Every band array handed out
    is read-only and never written again.
    """

    def __init__(self, grid_w: int, grid_h: int, params: BandParams):
        checked("grid_w", grid_w, 1, integral=True)
        checked("grid_h", grid_h, 1, integral=True)
        self.params = params
        self._grid = grid = (grid_h, grid_w)
        self._alpha_l1 = params.alpha_l1
        self._alpha_s1 = params.alpha_s1
        self._stride = params.stride
        self._tmp = np.zeros(grid)
        self._lp_l1 = np.zeros(grid)
        self._acc = np.zeros(grid)
        self._acc_n = 0
        self._lp_s1 = np.zeros(grid)
        self._fir = np.zeros((params.fir_window,) + grid)
        self._fir_n = 0  # band-pass inputs written to the ring so far
        self._zeros = _frozen(np.zeros(grid))
        self._no_bins = _frozen(np.zeros(grid + (0,)))
        self._m_s1 = self._m_s2 = self._zeros

    def step(self, frame: MotionFrame) -> BandOutputs:
        """Advance one frame-rate tick; short-term bands update on the
        reduced-rate ticks and are carried in between.

        A frame on another grid, or with a non-finite or negative density
        or bin, raises :class:`RejectedInputError` and leaves the filter
        unchanged.
        """
        x = frame.density
        if x.shape != self._grid:
            raise RejectedInputError(
                f"frame grid {(frame.grid_h, frame.grid_w)} does not match "
                f"filter grid {self._grid}"
            )
        if not frame.finite_nonnegative():
            raise RejectedInputError(
                f"frame at {frame.timestamp_ms} ms has a non-finite or negative density or bin"
            )
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
        wrap, bins = MotionFrame._wrap, self._no_bins
        return BandOutputs(
            m_l1=wrap(_frozen(m_l1), bins, t),
            m_s1=wrap(self._m_s1, bins, t),
            m_s2=wrap(self._m_s2, bins, t),
        )

    def _short_term_tick(self) -> None:
        acc, lp, ring = self._acc, self._lp_s1, self._fir
        np.divide(acc, self._acc_n, out=acc)  # the short-term input
        _ema(lp, acc, self._alpha_s1, self._tmp)
        k = len(ring)
        np.subtract(acc, lp, out=ring[self._fir_n % k])  # the band-pass high side
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
        self._m_s1 = _frozen(lp.copy())
        self._m_s2 = _frozen(m_s2)
        acc.fill(0.0)
        self._acc_n = 0
