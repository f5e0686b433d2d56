"""Per-camera processing pipeline: filter cascade, isochronal learning,
and event gating glued into one ingest loop.

One pipeline owns one camera's mutable state (single writer); its outputs
are immutable snapshots. The isochronal store receives one aggregate per
completed minute, accumulated as a running sum so frame rate does not
affect memory. Frames must arrive in timestamp order: a late or duplicate
frame is rejected. Minutes are told apart by absolute time (``timestamp_ms
// 60_000``), so a gap of exactly a day starts a new sample rather than
joining the old day's, and each is stored under its minute of day with
its absolute day (``minute // 1440``). The store refuses a sample on or
before the day it last stored for that minute of day, so a minute is
stored at most once a day: frames after ``finish`` in a flushed minute, a
pipeline restarted on the same store mid-minute or at a minute boundary,
and a replayed day add no second sample. ``samples_skipped`` counts the
minutes so refused. The cascade refuses a frame outside ``motion``'s
density range, [0, 65504], at ingest, so every minute's mean density fits
the store's float16 records.

Settings come from a ``Config`` whose frozen sections checked them when
built. A given ``store`` must be on the camera's grid and have the
config's decay span (``filter.t_l2_days``): the config alone decides how
it learns.

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

from dataclasses import dataclass

import numpy as np

from .config import Config
from .errors import InvalidParameterError, RejectedInputError
from .events import ActivityEvent, EventGate
from .filters import BandOutputs, CascadeFilter
from .isochron import _LAST_DAY_MAX, MINUTES_PER_DAY, IsochronalStore, minute_of_day
from .motion import MotionFrame

# Frames are stamped in ms since the epoch, within the days a store can
# date: 0 to _LAST_DAY_MAX.
_END_MS = (_LAST_DAY_MAX + 1) * MINUTES_PER_DAY * 60_000


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
        self.params = config.filter
        self._stride = self.params.stride  # a rounded division; params are frozen
        self.cascade = CascadeFilter(grid_w, grid_h, self.params)
        span = self.params.t_l2_days
        if store is not None and (store.grid_w, store.grid_h, store.t_l2_days) != (grid_w, grid_h, span):
            raise InvalidParameterError(
                f"store grid {store.grid_w}x{store.grid_h} and decay span {store.t_l2_days} days "
                f"do not match camera grid {grid_w}x{grid_h} and config span {span} days"
            )
        self.store = store or IsochronalStore(camera_id, grid_w, grid_h, t_l2_days=span)
        self.gate = EventGate(camera_id, config.events, self.params.shortterm_rate)
        self._reinvoke_ms = config.events.reinvoke_every_s * 1000.0
        self.events: list[ActivityEvent] = []
        self.detector_invocations = 0
        self._last_invoke_ms = 0
        self.frames_ingested = 0
        self.frames_rejected = 0
        self.frames_late = 0
        self.samples_skipped = 0
        self._acc: _MinuteAccumulator | None = None
        self._last_ms = -1  # timestamp of the last accepted frame
        self._last_decision = 0

    def ingest(self, frame: MotionFrame) -> IngestResult:
        """Filter, accumulate and gate one frame, and say whether the
        detector should run on it.

        A frame whose timestamp is not after the last accepted frame's
        (late or duplicate) is counted in ``frames_late``; a frame stamped
        with anything but an integer (a float or a bool), stamped outside
        the days a store can date (before the epoch, or after day 2**31 -
        1), or one the cascade rejects (wrong grid, a value outside [0,
        65504]) is counted in ``frames_rejected``. Either raises
        :class:`RejectedInputError` and changes no other state. A completed
        minute the store refuses, because it already holds a sample of that
        minute for that day, is counted in ``samples_skipped`` and raises
        nothing.
        """
        t = frame.timestamp_ms
        if type(t) is not int and not isinstance(t, np.integer):  # refuses bools and floats
            self.frames_rejected += 1
            raise RejectedInputError(f"frame timestamp {t!r} is not an integer number of ms")
        if not self._last_ms < t < _END_MS:
            if not 0 <= t < _END_MS:
                self.frames_rejected += 1
                raise RejectedInputError(
                    f"frame at {t} ms is not within days 0 to {_LAST_DAY_MAX} since the epoch"
                )
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
            self._acc = _MinuteAccumulator(absolute_minute, np.zeros((self.grid_h, self.grid_w)))
        self._acc.add(bands.m_l1.density)
        self.frames_ingested += 1

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
        acc = self._acc
        if acc is not None:
            self._acc = None
            day, minute = divmod(acc.minute, MINUTES_PER_DAY)
            try:
                stored = self.store.update(minute, acc.aggregate(), day)
            except RejectedInputError:
                stored = False
            if not stored:
                self.samples_skipped += 1

    def finish(self) -> None:
        """Flush the partial minute and close any open event. Frames that
        arrive later in the same minute are filtered and gated, and their
        minute's sample is refused by the store."""
        self._flush_minute()
        tail = self.gate.flush()
        if tail is not None:
            self.events.append(tail)
