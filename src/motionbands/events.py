"""Activity-event gating.

The gate turns the two short-term bands into a scalar activity sample (per
block, the larger of in-place and moving density; then the block mean) and
fires when that sample exceeds the learned per-minute mean plus
``k_sigma`` standard deviations. While a store has seen fewer than
``min_days`` days the learned spread is unreliable, so a fixed threshold
floor takes over. The gate is built from its ``EventsConfig``, which
checked these settings when it was built and cannot change, and from the
decision rate.

Consecutive firings belong to one event; an event closes only after
``cooldown_s`` of consecutive quiet decisions, which keeps brief dips from
fragmenting a single burst of activity. A closed event's duration covers
its last positive decision's full tick.

Gating exists to spend expensive per-frame detection only where it pays.
``CameraPipeline`` asks its caller to run the detector on each event
onset, and again every ``reinvoke_every_s`` while an event stays open if
that is set, and counts those requests in ``detector_invocations``. The
caller owns the detector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import EventsConfig, checked
from .errors import RejectedInputError
from .motion import block_mean

BAND_IN_PLACE = "in-place"
BAND_MOVING = "moving"
BAND_BOTH = "both"


@dataclass
class ActivityEvent:
    """One gated activity interval with its trigger context."""

    camera_id: str
    start_ms: int
    end_ms: int | None  # None while the event is still open
    peak: float
    band: str
    threshold_mean: float
    threshold_std: float
    k_sigma: float


def scalar_activity(m_s1, m_s2) -> float:
    """Block mean of the per-block max of the two short-term densities."""
    if m_s1.density.shape != m_s2.density.shape:
        raise RejectedInputError(
            f"band grids differ: {m_s1.density.shape} vs {m_s2.density.shape}"
        )
    return block_mean(np.maximum(m_s1.density, m_s2.density))


class EventGate:
    """Stateful threshold gate over a per-camera band stream."""

    def __init__(self, camera_id: str, config: EventsConfig, decision_rate_hz: float):
        checked("decision_rate_hz", decision_rate_hz, above=True)
        self.camera_id = camera_id
        self.config = config
        self.tick_ms = int(round(1000.0 / decision_rate_hz))
        self.cooldown_ticks = int(np.ceil(config.cooldown_s * decision_rate_hz))
        self._open: ActivityEvent | None = None
        self._quiet_run = 0
        self._last_hit_ms = 0
        self.last_activity = 0.0  # the activity sample the last decision tested

    @property
    def in_event(self) -> bool:
        """Whether an event is open: fired and not yet closed."""
        return self._open is not None

    def threshold(self, mean: float, std: float, days: int) -> float:
        config = self.config
        if days < config.min_days:
            return config.min_threshold
        return mean + config.k_sigma * std

    def step(
        self,
        m_s1,
        m_s2,
        stats: tuple[float, float, int],
        timestamp_ms: int,
    ) -> tuple[int, ActivityEvent | None]:
        """One gate decision. Returns (0/1, event closed by this step)."""
        mean, std, days = stats
        a = self.last_activity = scalar_activity(m_s1, m_s2)
        fired = a > self.threshold(mean, std, days)

        closed: ActivityEvent | None = None
        if fired:
            self._quiet_run = 0
            self._last_hit_ms = timestamp_ms
            if self._open is None:
                s1m = block_mean(m_s1.density)
                s2m = block_mean(m_s2.density)
                if s1m > s2m:
                    band = BAND_IN_PLACE
                elif s2m > s1m:
                    band = BAND_MOVING
                else:
                    band = BAND_BOTH
                self._open = ActivityEvent(
                    camera_id=self.camera_id,
                    start_ms=timestamp_ms,
                    end_ms=None,
                    peak=a,
                    band=band,
                    threshold_mean=mean,
                    threshold_std=std,
                    k_sigma=self.config.k_sigma,
                )
            else:
                self._open.peak = max(self._open.peak, a)
        elif self._open is not None:
            self._quiet_run += 1
            if self._quiet_run >= self.cooldown_ticks:
                closed = self._close()
        return (1 if fired else 0), closed

    def _close(self) -> ActivityEvent:
        event = self._open
        assert event is not None
        # The last positive decision's tick belongs to the event.
        event.end_ms = self._last_hit_ms + self.tick_ms
        self._open = None
        self._quiet_run = 0
        return event

    def flush(self) -> ActivityEvent | None:
        """Close any event still open at end of stream."""
        if self._open is None:
            return None
        return self._close()
