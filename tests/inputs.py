"""Test inputs the package does not need to make: blob pixel frames, zero
motion frames, the blocks a scenario moves at an instant, and the
isochronal store of format v3 frozen as an oracle."""

from __future__ import annotations

import numpy as np

from motionbands.config import alpha_from_decay
from motionbands.isochron import MINUTES_PER_DAY
from motionbands.motion import N_DIR_BINS, GrayFrame, MotionFrame, block_mean
from motionbands.sim import SECONDS_PER_DAY, GroundTruth


def zero_frame(grid_w: int, grid_h: int, timestamp_ms: int = 0) -> MotionFrame:
    """A frame with no motion, eight direction bins per block."""
    return MotionFrame(np.zeros((grid_h, grid_w)), np.zeros((grid_h, grid_w, N_DIR_BINS)), timestamp_ms)


def blob_frames(
    width: int,
    height: int,
    n_frames: int,
    radius: float = 12.0,
    speed_px: float = 4.0,
    center_y: float | None = None,
    shape: str = "disc",
) -> list[GrayFrame]:
    """A white disc or square translating rightward over black at 30 fps."""
    cy = height / 2.0 if center_y is None else center_y
    yy, xx = np.mgrid[0:height, 0:width]
    frames = []
    for i in range(n_frames):
        cx = radius + 2.0 + i * speed_px
        if shape == "disc":
            mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= radius**2
        else:
            mask = (np.abs(xx - cx) <= radius) & (np.abs(yy - cy) <= radius)
        pixels = np.where(mask, 255, 0).astype(np.uint8)
        frames.append(GrayFrame(pixels=pixels, timestamp_ms=int(round(i * 1000.0 / 30.0))))
    return frames


def moving_blocks(truth: GroundTruth, t_s: float) -> set[tuple[int, int]]:
    """Blocks of the grid carrying moving activity at time ``t_s`` in the
    stream whose ground truth is ``truth``: the walkers' and the planted
    events'."""
    scenario = truth.scenario
    day_t = t_s % SECONDS_PER_DAY
    out = {w.block_at(day_t) for w in scenario.walkers} - {None}
    for event in truth.events:
        out.update(event.blocks_at(t_s))
    return {(bx, by) for bx, by in out if 0 <= bx < scenario.grid_w and 0 <= by < scenario.grid_h}


class V3Store:
    """The isochronal store's arithmetic as format v3 had it, frozen as an
    oracle for the float16 store: float32 means and variances, each
    widened, blended in float64 and rounded once to float32 when stored,
    with the dated-sample rule. It keeps only what ``CameraPipeline``
    reads, ``update`` and ``scalar_stats``, without input checks, caches
    or files."""

    def __init__(self, grid_w: int, grid_h: int, t_l2_days: float):
        self.grid_w, self.grid_h, self.t_l2_days = grid_w, grid_h, float(t_l2_days)
        self.alpha_l2 = a = alpha_from_decay(1.0, t_l2_days)
        self._var_gain = (1.0 - a) * (1.0 + a) / 2.0
        self._mean = np.zeros((MINUTES_PER_DAY, grid_h, grid_w), np.float32)
        self._var = np.zeros((MINUTES_PER_DAY, grid_h, grid_w), np.float32)
        self._days = np.zeros(MINUTES_PER_DAY, np.uint32)
        self._last_day = np.full(MINUTES_PER_DAY, -1, np.int32)

    def update(self, minute: int, sample: MotionFrame, day: int | None = None) -> bool:
        a, gain = self.alpha_l2, self._var_gain
        if day is not None:
            last = int(self._last_day[minute])
            if day <= last:
                return False
            if last >= 0:
                a = a ** int(day - last)
                gain = (1.0 - a) * (1.0 + a) / 2.0
            self._last_day[minute] = day
        if self._days[minute] == 0:
            self._mean[minute] = sample.density
            self._var[minute] = 0.0
        else:
            mean = self._mean[minute].astype(np.float64)
            dev = sample.density - mean
            self._var[minute] = a * self._var[minute].astype(np.float64) + gain * dev * dev
            self._mean[minute] = a * mean + (1.0 - a) * sample.density
        self._days[minute] += 1
        return True

    def scalar_stats(self, minute: int) -> tuple[float, float, int]:
        return (
            block_mean(self._mean[minute].astype(np.float64)),
            block_mean(np.sqrt(self._var[minute], dtype=np.float64)),
            int(self._days[minute]),
        )
