"""Per-camera processing pipeline: filter cascade, isochronal learning,
and event gating glued into one ingest loop.

One pipeline owns one camera's mutable state (single writer); its outputs
are immutable snapshots. The isochronal store receives one aggregate per
completed minute, accumulated as a running sum so frame rate does not
affect memory. Frames must arrive in timestamp order: a late or duplicate
frame is rejected, so a replayed stretch cannot count a minute twice in
one day.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Config
from .errors import RejectedInputError
from .events import ActivityEvent, EventGate
from .filters import BandOutputs, BandParams, CascadeFilter
from .isochron import IsochronalStore, minute_of_day
from .motion import MotionFrame


@dataclass
class IngestResult:
    bands: BandOutputs
    decision: int
    activity: float
    closed_event: ActivityEvent | None = None


def band_params_from_config(config: Config) -> BandParams:
    f = config.filter
    return BandParams(
        t_l1_s=f.t_l1_s,
        t_l2_days=f.t_l2_days,
        t_s1_s=f.t_s1_s,
        t_s2_s=f.t_s2_s,
        frame_rate=f.frame_rate,
        shortterm_rate=f.shortterm_rate,
    )


@dataclass
class _MinuteAccumulator:
    """Running sum of the noise-free band's density over one minute."""

    minute: int
    density: np.ndarray
    count: int = 0

    def add(self, density: np.ndarray) -> None:
        np.add(self.density, density, out=self.density)
        self.count += 1

    def aggregate(self) -> MotionFrame:
        """The minute's mean density, timestamped at the minute's start."""
        return MotionFrame(
            density=self.density / self.count,
            dir_hist=np.zeros(self.density.shape + (0,)),
            timestamp_ms=self.minute * 60_000,
        )


class CameraPipeline:
    """Single-camera ingest loop over motion frames."""

    def __init__(
        self,
        camera_id: str,
        grid_w: int,
        grid_h: int,
        config: Config,
        store: IsochronalStore | None = None,
    ):
        self.camera_id = camera_id
        self.grid_w = grid_w
        self.grid_h = grid_h
        self.params = band_params_from_config(config)
        self.cascade = CascadeFilter(grid_w, grid_h, self.params)
        self.store = store or IsochronalStore(
            camera_id, grid_w, grid_h, t_l2_days=config.filter.t_l2_days
        )
        ev = config.events
        self.gate = EventGate(
            camera_id,
            k_sigma=ev.k_sigma,
            cooldown_s=ev.cooldown_s,
            min_threshold=ev.min_threshold,
            min_days=ev.min_days,
            decision_rate_hz=config.filter.shortterm_rate,
        )
        self.events: list[ActivityEvent] = []
        self.frames_ingested = 0
        self.frames_rejected = 0
        self.frames_late = 0
        self.last_bands: BandOutputs | None = None
        self._acc: _MinuteAccumulator | None = None
        self._last_ms: int | None = None  # timestamp of the last accepted frame
        self._last_decision = 0

    def ingest(self, frame: MotionFrame) -> IngestResult:
        """Filter, accumulate and gate one frame.

        A frame whose timestamp is not after the last accepted frame's
        (late or duplicate) is counted in ``frames_late``; a frame the
        cascade rejects (wrong grid, non-finite or negative values) is
        counted in ``frames_rejected``. Either raises
        :class:`RejectedInputError` and changes no other state.
        """
        t = frame.timestamp_ms
        if self._last_ms is not None and t <= self._last_ms:
            self.frames_late += 1
            raise RejectedInputError(
                f"frame at {t} ms is not after the last accepted frame at {self._last_ms} ms"
            )
        try:
            bands = self.cascade.step(frame)
        except RejectedInputError:
            self.frames_rejected += 1
            raise
        self._last_ms = t
        minute = minute_of_day(t)
        if self._acc is None or minute != self._acc.minute:
            self._flush_minute()
            self._acc = _MinuteAccumulator(minute, np.zeros((self.grid_h, self.grid_w)))
        self._acc.add(bands.m_l1.density)
        self.frames_ingested += 1
        self.last_bands = bands

        closed = None
        if self.frames_ingested % self.params.stride == 0:
            stats = self.store.scalar_stats(minute)
            decision, closed = self.gate.step(
                bands.m_s1, bands.m_s2, stats, t
            )
            if closed is not None:
                self.events.append(closed)
            self._last_decision = decision
        return IngestResult(
            bands=bands,
            decision=self._last_decision,
            activity=self.gate.last_activity,
            closed_event=closed,
        )

    def _flush_minute(self) -> None:
        if self._acc is not None:
            self.store.update(self._acc.minute, self._acc.aggregate())

    def finish(self) -> None:
        """Flush the partial minute and close any open event."""
        self._flush_minute()
        self._acc = None
        tail = self.gate.flush()
        if tail is not None:
            self.events.append(tail)
