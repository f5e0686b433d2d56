"""Frozen reference for ``motionbands.motion.extract_motion``.

This is the block-motion extraction as it stood when the benchmark was
defined, kept here so that a faster rewrite of the program can be checked
against it. It works on raw pixel arrays and returns the two feature
arrays instead of a ``MotionFrame``. Do not optimise this file: its only
job is to stay the same.
"""

from __future__ import annotations

import math

import numpy as np

N_DIR_BINS = 8
_SOBEL_MAX = 4.0 * math.sqrt(2.0) * 255.0

# Densities and direction bins lie in [0, 1]; an implementation that sums
# in another order or keeps float32 temporaries stays well inside this.
OUTPUT_ATOL = 1e-6


def _sobel(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = np.pad(img, 1, mode="edge")
    gx = (p[:-2, 2:] + 2.0 * p[1:-1, 2:] + p[2:, 2:]) - (
        p[:-2, :-2] + 2.0 * p[1:-1, :-2] + p[2:, :-2]
    )
    gy = (p[2:, :-2] + 2.0 * p[2:, 1:-1] + p[2:, 2:]) - (
        p[:-2, :-2] + 2.0 * p[:-2, 1:-1] + p[:-2, 2:]
    )
    return gx, gy


def extract_motion_reference(
    prev: np.ndarray, curr: np.ndarray, block_size: int = 16, noise_floor: float = 8.0
) -> tuple[np.ndarray, np.ndarray]:
    """(density (gh, gw), dir_hist (gh, gw, 8)) for one frame pair."""
    p = prev.astype(np.float64)
    c = curr.astype(np.float64)
    h, w = c.shape

    signed = c - p
    diff = np.abs(signed)
    diff[diff < noise_floor] = 0.0

    gx, gy = _sobel((p + c) * 0.5)
    gmag = np.hypot(gx, gy)
    weight = (diff / 255.0) * (gmag / _SOBEL_MAX)

    grid_h = -(-h // block_size)
    grid_w = -(-w // block_size)
    brow = np.arange(h) // block_size
    bcol = np.arange(w) // block_size
    flat = (brow[:, None] * grid_w + bcol[None, :]).ravel()

    counts = np.bincount(flat, minlength=grid_h * grid_w).astype(np.float64)
    density = np.bincount(flat, weights=weight.ravel(), minlength=grid_h * grid_w)
    density = (density / counts).reshape(grid_h, grid_w)

    moving = weight.ravel() > 0.0
    hist = np.zeros(grid_h * grid_w * N_DIR_BINS)
    if moving.any():
        vx = (-np.sign(signed) * gx).ravel()[moving]
        vy = (np.sign(signed) * gy).ravel()[moving]
        ang = np.arctan2(vy, vx)
        bins = np.round(ang / (math.pi / 4.0)).astype(np.int64) % N_DIR_BINS
        idx = flat[moving] * N_DIR_BINS + bins
        hist = np.bincount(idx, weights=weight.ravel()[moving], minlength=hist.size)
    dir_hist = hist.reshape(grid_h, grid_w, N_DIR_BINS) / counts.reshape(grid_h, grid_w, 1)
    return density, dir_hist


def matches_reference(
    density: np.ndarray, dir_hist: np.ndarray, prev: np.ndarray, curr: np.ndarray
) -> bool:
    ref_density, ref_hist = extract_motion_reference(prev, curr)
    return (
        density.shape == ref_density.shape
        and dir_hist.shape == ref_hist.shape
        and bool(np.all(np.abs(density - ref_density) <= OUTPUT_ATOL))
        and bool(np.all(np.abs(dir_hist - ref_hist) <= OUTPUT_ATOL))
    )
