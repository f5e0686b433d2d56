"""Deterministic synthetic activity scenarios with ground truth.

Scenarios generate motion-feature streams together with the labels
needed to judge the pipeline: planted per-minute activity and event
intervals. Its readers are the benchmark (``perfbench/``) and the package
tests; ``sim`` is not on the camera path, and no other package module
imports it. Every setting is checked by ``config.checked`` when the
actor, event plan or scenario holding it is built.

Streams tick at ``rate_hz`` samples/s: walkers deposit moving activity
along their paths, dwellers deposit in-place activity, and planted events
sweep short moving fronts across the grid. The ground truth's per-minute
activity is the mean of each minute's noise-free ticks. It is built on
first read, by a second pass over every tick, and kept: a stream whose
truth is read only for its events never makes that pass.

Event arrivals follow a Poisson day count, and placement is stratified
only: each event starts in its own equal slot of the day, with a minimum
gap so planted events never merge, keeping per-event labels unambiguous.
All randomness flows from the scenario seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .config import checked
from .errors import InvalidParameterError
from .motion import N_DIR_BINS, MotionFrame

SECONDS_PER_DAY = 86_400

# Direction bin indices for the four cardinal moves (y up = decreasing row).
_DIR_BIN = {(1, 0): 0, (0, -1): 2, (-1, 0): 4, (0, 1): 6}


def gen_daily_profile(template: str, amplitude: float = 1.0) -> np.ndarray:
    """Intensity per minute of day, shape (1440,), non-negative.

    * ``office``: quiet until 06:00, morning rise, a mid-day lull around
      12:30, an afternoon peak, fading out by 21:00.
    * ``university``: hourly bursts between 08:00 and 18:00.
    """
    checked("amplitude", amplitude)
    minutes = np.arange(1440)
    if template == "office":
        anchors = [
            (360, 0.0),   # 06:00
            (480, 0.7),
            (600, 1.0),   # late morning peak
            (750, 0.45),  # 12:30 lull
            (870, 0.9),
            (990, 1.0),   # 16:30 peak
            (1140, 0.5),
            (1260, 0.0),  # 21:00
        ]
        xs = [a[0] for a in anchors]
        ys = [a[1] for a in anchors]
        profile = np.interp(minutes, xs, ys, left=0.0, right=0.0)
        profile[minutes < xs[0]] = 0.0
        profile[minutes > xs[-1]] = 0.0
        return amplitude * profile
    if template == "university":
        profile = np.zeros(1440)
        in_day = (minutes >= 480) & (minutes < 1080)  # 08:00-18:00
        base = 0.25
        bursts = np.zeros(1440)
        for hour_start in range(480, 1080, 60):
            # Burst around each hour change, ~10 minutes wide.
            center = hour_start
            bursts += np.exp(-0.5 * ((minutes - center) / 5.0) ** 2)
        profile[in_day] = base + bursts[in_day]
        return amplitude * profile
    raise InvalidParameterError(
        f"unknown profile template {template!r}; expected 'office' or 'university'"
    )


# ---------------------------------------------------------------------------
# Scenario description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Walker:
    """Moving actor following a block path at a fixed speed."""

    path: tuple[tuple[int, int], ...]
    speed_bps: float = 1.0
    start_s: float = 0.0
    amplitude: float = 1.0
    loop: bool = False

    def __post_init__(self) -> None:
        checked("speed_bps", self.speed_bps)
        checked("start_s", self.start_s)
        checked("amplitude", self.amplitude)

    def block_at(self, t_s: float) -> tuple[int, int] | None:
        if t_s < self.start_s or self.speed_bps <= 0 or not self.path:
            return None
        idx = int((t_s - self.start_s) * self.speed_bps)
        if self.loop:
            idx %= len(self.path)
        elif idx >= len(self.path):
            return None
        return self.path[idx]

    def step_dir(self, t_s: float) -> tuple[int, int]:
        if len(self.path) < 2:
            return (1, 0)
        idx = int((t_s - self.start_s) * self.speed_bps)
        idx = min(max(idx, 0), len(self.path) - 2)
        a, b = self.path[idx], self.path[idx + 1]
        return (int(np.sign(b[0] - a[0])), int(np.sign(b[1] - a[1])))


@dataclass(frozen=True)
class Dweller:
    """In-place actor occupying one block for a fixed interval."""

    block: tuple[int, int]
    start_s: float = 0.0
    duration_s: float = 60.0
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        checked("start_s", self.start_s)
        checked("duration_s", self.duration_s)
        checked("amplitude", self.amplitude)

    def active(self, t_s: float) -> bool:
        return self.start_s <= t_s < self.start_s + self.duration_s


@dataclass(frozen=True)
class EventPlan:
    """Planted activity bursts: short moving fronts at random times.

    Arrival counts are Poisson per day; start times are stratified across
    the day with at least ``min_gap_s`` between consecutive events so
    hysteresis never merges two planted events.
    """

    mean_per_day: float = 300.0
    duration_s: float = 10.0
    amplitude: float = 1.0
    width_blocks: int = 4
    speed_bps: float = 1.0
    min_gap_s: float = 15.0

    def __post_init__(self) -> None:
        checked("mean_per_day", self.mean_per_day)
        checked("duration_s", self.duration_s, above=True)
        checked("amplitude", self.amplitude)
        checked("width_blocks", self.width_blocks, 1, integral=True)
        checked("speed_bps", self.speed_bps)
        checked("min_gap_s", self.min_gap_s)


@dataclass(frozen=True)
class PlantedEvent:
    """One realized event: a width x 1 front of ``plan`` moving one way."""

    start_s: float
    origin: tuple[int, int]     # (bx, by) of the front's first position
    direction: tuple[int, int]  # unit step in block coords
    plan: EventPlan

    @property
    def end_s(self) -> float:
        return self.start_s + self.plan.duration_s

    def active(self, t_s: float) -> bool:
        return self.start_s <= t_s < self.end_s

    def blocks_at(self, t_s: float) -> list[tuple[int, int]]:
        if not self.active(t_s):
            return []
        step = int((t_s - self.start_s) * self.plan.speed_bps)
        x = self.origin[0] + step * self.direction[0]
        y = self.origin[1] + step * self.direction[1]
        # Front extends perpendicular to travel.
        px, py = (0, 1) if self.direction[1] == 0 else (1, 0)
        return [(x + i * px, y + i * py) for i in range(self.plan.width_blocks)]


@dataclass(frozen=True)
class Scenario:
    grid_w: int
    grid_h: int
    day_hours: float = 24.0
    rate_hz: float = 1.0
    walkers: tuple[Walker, ...] = ()
    dwellers: tuple[Dweller, ...] = ()
    events: EventPlan | None = None
    noise_sigma: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        checked("grid_w", self.grid_w, 1, integral=True)
        checked("grid_h", self.grid_h, 1, integral=True)
        checked("day_hours", self.day_hours, 0, 24, above=True)
        checked("rate_hz", self.rate_hz, above=True)
        checked("noise_sigma", self.noise_sigma)
        for w in self.walkers:
            for block in w.path:
                self._check_block("walker path block", block)
        for d in self.dwellers:
            self._check_block("dweller block", d.block)

    def _check_block(self, what: str, block: tuple[int, int]) -> None:
        checked(f"{what} x", block[0], 0, self.grid_w - 1, integral=True)
        checked(f"{what} y", block[1], 0, self.grid_h - 1, integral=True)

    @property
    def day_seconds(self) -> float:
        return self.day_hours * 3600.0


# ---------------------------------------------------------------------------
# Ground truth
# ---------------------------------------------------------------------------

@dataclass
class GroundTruth:
    """Labels consistent with the emitted stream by construction: the
    planted events, placed with the stream, and the per-minute truth,
    built on first read."""

    events: list[PlantedEvent]
    scenario: Scenario
    days: int

    @cached_property
    def per_minute(self) -> np.ndarray:
        """(days * 1440, gh, gw) planted mean activity."""
        return _per_minute_planted(self.scenario, self.events, self.days)

    def event_intervals_ms(self) -> list[tuple[int, int]]:
        return [(int(e.start_s * 1000), int(e.end_s * 1000)) for e in self.events]


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _place_events(scenario: Scenario, days: int, rng: np.random.Generator) -> list[PlantedEvent]:
    plan = scenario.events
    if plan is None or plan.mean_per_day == 0:
        return []

    travel = int(plan.duration_s * plan.speed_bps)
    feasible = _feasible_directions(scenario, plan.width_blocks, travel)
    if not feasible:
        raise InvalidParameterError(
            f"event front (width {plan.width_blocks}, travel {travel}) does not fit "
            f"in a {scenario.grid_w}x{scenario.grid_h} grid"
        )
    events: list[PlantedEvent] = []
    for day in range(days):
        n = int(rng.poisson(plan.mean_per_day))
        starts: list[float] = []
        if n > 0:
            # Stratified placement with a hard minimum gap.
            slot = scenario.day_seconds / n
            jitter_span = max(0.0, slot - plan.duration_s - plan.min_gap_s)
            starts = [i * slot + rng.uniform(0, jitter_span) for i in range(n)]
        for start in starts:
            direction = feasible[rng.integers(0, len(feasible))]
            origin = _fit_front(scenario, direction, plan.width_blocks, travel, rng)
            events.append(PlantedEvent(day * SECONDS_PER_DAY + start, origin, direction, plan))
    return events


def _feasible_directions(
    scenario: Scenario, width: int, travel: int
) -> list[tuple[int, int]]:
    out = []
    if scenario.grid_w >= travel + 1 and scenario.grid_h >= width:
        out += [(1, 0), (-1, 0)]
    if scenario.grid_h >= travel + 1 and scenario.grid_w >= width:
        out += [(0, 1), (0, -1)]
    return out


def _fit_front(
    scenario: Scenario,
    direction: tuple[int, int],
    width: int,
    travel: int,
    rng: np.random.Generator,
) -> tuple[int, int]:
    """Uniform origin such that the whole sweep stays inside the grid, for
    a ``direction`` that :func:`_feasible_directions` allows. The start
    along the travel axis is drawn first, the offset across it second."""
    axis = 0 if direction[1] == 0 else 1  # index of the travel axis in (x, y)
    sizes = (scenario.grid_w, scenario.grid_h)
    along = int(rng.integers(0, sizes[axis] - travel))
    if direction[axis] < 0:
        along = sizes[axis] - 1 - along
    across = int(rng.integers(0, sizes[1 - axis] - width + 1))
    return (along, across) if axis == 0 else (across, along)


def _ticks(
    scenario: Scenario, events: list[PlantedEvent], days: int
) -> Iterator[tuple[float, np.ndarray, np.ndarray]]:
    """Noise-free (t_s, density, dir_hist) deposits at every tick, in order."""
    ticks_per_day = int(round(scenario.day_seconds * scenario.rate_hz))
    shape = (scenario.grid_h, scenario.grid_w)
    pending = sorted(events, key=lambda e: e.start_s)
    next_event = 0
    active: list[PlantedEvent] = []
    for day in range(days):
        for i in range(ticks_per_day):
            t_s = day * SECONDS_PER_DAY + i / scenario.rate_hz
            while next_event < len(pending) and pending[next_event].start_s <= t_s:
                active.append(pending[next_event])
                next_event += 1
            active = [e for e in active if t_s < e.end_s]
            density = np.zeros(shape)
            hist = np.zeros((*shape, N_DIR_BINS))
            day_t = t_s % SECONDS_PER_DAY
            for w in scenario.walkers:
                block = w.block_at(day_t)
                if block is None:
                    continue
                bx, by = block
                density[by, bx] += w.amplitude
                hist[by, bx, _DIR_BIN.get(w.step_dir(day_t), 0)] += w.amplitude
            for d in scenario.dwellers:
                if d.active(day_t):
                    bx, by = d.block
                    density[by, bx] += d.amplitude
                    hist[by, bx] += d.amplitude / N_DIR_BINS
            for ev in active:
                for bx, by in ev.blocks_at(t_s):
                    if 0 <= bx < scenario.grid_w and 0 <= by < scenario.grid_h:
                        density[by, bx] += ev.plan.amplitude
                        hist[by, bx, _DIR_BIN.get(ev.direction, 0)] += ev.plan.amplitude
            yield t_s, density, hist


def _per_minute_planted(scenario: Scenario, events: list[PlantedEvent], days: int) -> np.ndarray:
    """Planted per-minute mean activity, (days*1440, gh, gw)."""
    out = np.zeros((days * 1440, scenario.grid_h, scenario.grid_w))
    per_min_ticks = np.zeros(days * 1440)
    for t_s, density, _ in _ticks(scenario, events, days):
        idx = int(t_s // 60)  # day * 1440 + minute of day
        out[idx] += density
        per_min_ticks[idx] += 1
    nonzero = per_min_ticks > 0
    out[nonzero] /= per_min_ticks[nonzero, None, None]
    return out


def gen_stream(scenario: Scenario, days: int = 1) -> tuple[Iterator[MotionFrame], GroundTruth]:
    """Deterministic feature stream plus its ground truth.

    The iterator yields one MotionFrame per tick; noise is drawn from the
    scenario seed, so equal seeds give byte-identical streams.
    """
    checked("days", days, 1, integral=True)
    event_rng = np.random.default_rng(np.random.SeedSequence([scenario.seed, 1]))
    events = _place_events(scenario, days, event_rng)
    truth = GroundTruth(events, scenario, days)

    def frames() -> Iterator[MotionFrame]:
        noise_rng = np.random.default_rng(np.random.SeedSequence([scenario.seed, 2]))
        shape = (scenario.grid_h, scenario.grid_w)
        for t_s, density, hist in _ticks(scenario, events, days):
            if scenario.noise_sigma > 0:
                density += noise_rng.normal(0.0, scenario.noise_sigma, shape)
                np.clip(density, 0.0, None, out=density)
            yield MotionFrame(
                density=density,
                dir_hist=hist,
                timestamp_ms=int(round(t_s * 1000)),
            )

    return frames(), truth
