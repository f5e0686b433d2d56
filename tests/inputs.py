"""Test inputs the package does not need to make: blob pixel frames, zero
motion frames, and the blocks a scenario moves at an instant."""

from __future__ import annotations

import numpy as np

from motionbands.motion import N_DIR_BINS, GrayFrame, MotionFrame
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
