"""Per-camera processing pipeline: filter cascade, isochronal learning,
and event gating glued into one ingest loop.

One pipeline owns one camera's mutable state (single writer); its outputs
are immutable snapshots. The isochronal store receives one aggregate per
completed minute, accumulated as a running sum so frame rate does not
affect memory. Frames must arrive in timestamp order: a late or duplicate
frame is rejected, so a replayed stretch cannot count a minute twice in
one day. Minutes are told apart by absolute time (``timestamp_ms //
60_000``), so a gap of exactly a day starts a new sample rather than
joining the old day's, and each is stored under its minute of day.

The pipeline also owns the detector policy of the hybrid system, where
the gate spends an expensive detector only on activity. On a decision
tick it sets ``IngestResult.invoke_detector`` at an event's onset (the
gate fires with no event open before the tick) and, if
``config.events.reinvoke_every_s`` is above zero, on each later firing
tick at least that long after the last request while the event stays
open. ``detector_invocations`` counts the requests; the caller runs its
own detector when the flag is set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Config
from .errors import InvalidParameterError, RejectedInputError
from .events import ActivityEvent, EventGate
from .filters import BandOutputs, CascadeFilter
from .isochron import MINUTES_PER_DAY, IsochronalStore, minute_of_day
from .motion import MotionFrame


@dataclass
class IngestResult:
    bands: BandOutputs
    decision: int
    activity: float
    closed_event: ActivityEvent | None = None
    invoke_detector: bool = False


@dataclass
class _MinuteAccumulator:
    """Running sum of the noise-free band's density over one minute,
    ``minute`` counted from the epoch (``timestamp_ms // 60_000``)."""

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
        ev = config.events
        if not 0 <= ev.reinvoke_every_s < math.inf:
            raise InvalidParameterError(
                f"reinvoke_every_s must be finite and >= 0, got {ev.reinvoke_every_s}"
            )
        self.params = config.filter
        self._stride = self.params.stride  # a rounded division; params are frozen
        self.cascade = CascadeFilter(grid_w, grid_h, self.params)
        self.store = store or IsochronalStore(
            camera_id, grid_w, grid_h, t_l2_days=self.params.t_l2_days
        )
        self.gate = EventGate(
            camera_id,
            k_sigma=ev.k_sigma,
            cooldown_s=ev.cooldown_s,
            min_threshold=ev.min_threshold,
            min_days=ev.min_days,
            decision_rate_hz=self.params.shortterm_rate,
        )
        self._reinvoke_ms = ev.reinvoke_every_s * 1000.0
        self.events: list[ActivityEvent] = []
        self.detector_invocations = 0
        self._last_invoke_ms = 0
        self.frames_ingested = 0
        self.frames_rejected = 0
        self.frames_late = 0
        self.last_bands: BandOutputs | None = None
        self._acc: _MinuteAccumulator | None = None
        # Absolute minute of the last sample stored: after ``finish`` its
        # later frames must not store a second sample for it.
        self._flushed_minute: int | None = None
        self._last_ms: int | None = None  # timestamp of the last accepted frame
        self._last_decision = 0

    def ingest(self, frame: MotionFrame) -> IngestResult:
        """Filter, accumulate and gate one frame, and say whether the
        detector should run on it.

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
        absolute_minute = t // 60_000
        if self._acc is None or absolute_minute != self._acc.minute:
            self._flush_minute()
            if absolute_minute != self._flushed_minute:
                self._acc = _MinuteAccumulator(
                    absolute_minute, np.zeros((self.grid_h, self.grid_w))
                )
        if self._acc is not None:
            self._acc.add(bands.m_l1.density)
        self.frames_ingested += 1
        self.last_bands = bands

        closed = None
        invoke = False
        if self.frames_ingested % self._stride == 0:
            minute = minute_of_day(t)
            stats = self.store.scalar_stats(minute)
            onset = not self.gate.in_event
            decision, closed = self.gate.step(
                bands.m_s1, bands.m_s2, stats, t
            )
            if closed is not None:
                self.events.append(closed)
            if decision:
                invoke = onset or (
                    self._reinvoke_ms > 0 and t - self._last_invoke_ms >= self._reinvoke_ms
                )
            if invoke:
                self.detector_invocations += 1
                self._last_invoke_ms = t
            self._last_decision = decision
        return IngestResult(
            bands=bands,
            decision=self._last_decision,
            activity=self.gate.last_activity,
            closed_event=closed,
            invoke_detector=invoke,
        )

    def _flush_minute(self) -> None:
        if self._acc is not None:
            self.store.update(self._acc.minute % MINUTES_PER_DAY, self._acc.aggregate())
            self._flushed_minute = self._acc.minute
            self._acc = None

    def finish(self) -> None:
        """Flush the partial minute and close any open event. Frames that
        arrive later in the same minute are filtered and gated but add no
        second sample for it."""
        self._flush_minute()
        tail = self.gate.flush()
        if tail is not None:
            self.events.append(tail)
