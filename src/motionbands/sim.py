"""Deterministic synthetic activity scenarios with ground truth.

Scenarios generate motion-feature streams (and, optionally, grayscale
blob frames) together with the labels needed to judge the pipeline:
planted per-minute activity, event intervals, the walkable block mask,
and which blocks carry moving activity at any instant.

Streams tick at ``rate_hz`` samples/s: walkers deposit moving activity
along their paths, dwellers deposit in-place activity, and planted events
sweep short moving fronts across the grid. The ground truth's per-minute
activity is the mean of each minute's noise-free ticks.

Event arrivals follow a Poisson day count. A daily profile that varies
(any ``template`` but ``flat``) weights each event's minute of day;
otherwise placements are stratified with a minimum gap so planted events
never merge, keeping per-event labels unambiguous. All randomness flows
from the scenario seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .config import checked
from .errors import InvalidParameterError
from .motion import N_DIR_BINS, GrayFrame, MotionFrame

SECONDS_PER_DAY = 86_400

PROFILE_TEMPLATES = ("flat", "office", "university")

# Direction bin indices for the four cardinal moves (y up = decreasing row).
_DIR_BIN = {(1, 0): 0, (0, -1): 2, (-1, 0): 4, (0, 1): 6}


def gen_daily_profile(template: str, amplitude: float = 1.0) -> np.ndarray:
    """Intensity per minute of day, shape (1440,), non-negative.

    * ``flat``: constant ``amplitude``.
    * ``office``: quiet until 06:00, morning rise, a mid-day lull around
      12:30, an afternoon peak, fading out by 21:00.
    * ``university``: hourly bursts between 08:00 and 18:00.
    """
    checked("amplitude", amplitude)
    minutes = np.arange(1440)
    if template == "flat":
        return np.full(1440, float(amplitude))
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
        f"unknown profile template {template!r}; expected one of {PROFILE_TEMPLATES}"
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


@dataclass(frozen=True)
class PlantedEvent:
    """One realized event: a width x 1 front moving one way."""

    start_s: float
    duration_s: float
    amplitude: float
    origin: tuple[int, int]     # (bx, by) of the front's first position
    direction: tuple[int, int]  # unit step in block coords
    width_blocks: int
    speed_bps: float

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def active(self, t_s: float) -> bool:
        return self.start_s <= t_s < self.end_s

    def blocks_at(self, t_s: float) -> list[tuple[int, int]]:
        if not self.active(t_s):
            return []
        step = int((t_s - self.start_s) * self.speed_bps)
        x = self.origin[0] + step * self.direction[0]
        y = self.origin[1] + step * self.direction[1]
        # Front extends perpendicular to travel.
        px, py = (0, 1) if self.direction[1] == 0 else (1, 0)
        return [(x + i * px, y + i * py) for i in range(self.width_blocks)]


@dataclass(frozen=True)
class Scenario:
    grid_w: int
    grid_h: int
    day_hours: float = 24.0
    rate_hz: float = 1.0
    template: str = "flat"
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
        gen_daily_profile(self.template)  # validates the template name
        for w in self.walkers:
            for bx, by in w.path:
                if not (0 <= bx < self.grid_w and 0 <= by < self.grid_h):
                    raise InvalidParameterError(f"walker path block ({bx},{by}) outside grid")
        for d in self.dwellers:
            bx, by = d.block
            if not (0 <= bx < self.grid_w and 0 <= by < self.grid_h):
                raise InvalidParameterError(f"dweller block ({bx},{by}) outside grid")

    @property
    def day_seconds(self) -> float:
        return self.day_hours * 3600.0

    @property
    def profile(self) -> np.ndarray:
        return gen_daily_profile(self.template)


# ---------------------------------------------------------------------------
# Ground truth
# ---------------------------------------------------------------------------

@dataclass
class GroundTruth:
    """Labels consistent with the emitted stream by construction."""

    scenario: Scenario
    days: int
    events: list[PlantedEvent]
    per_minute: np.ndarray        # (days * 1440, gh, gw) planted mean activity
    walkable_mask: np.ndarray     # (gh, gw) bool

    def moving_blocks(self, t_s: float) -> set[tuple[int, int]]:
        """Blocks carrying moving activity at time t (walkers + events)."""
        day_t = t_s % SECONDS_PER_DAY
        out = set()
        for w in self.scenario.walkers:
            b = w.block_at(day_t)
            if b is not None:
                out.add(b)
        for ev in self.events:
            out.update(ev.blocks_at(t_s))
        return {b for b in out if self._inside(b)}

    def event_intervals_ms(self) -> list[tuple[int, int]]:
        return [(int(e.start_s * 1000), int(e.end_s * 1000)) for e in self.events]

    def _inside(self, block: tuple[int, int]) -> bool:
        return 0 <= block[0] < self.scenario.grid_w and 0 <= block[1] < self.scenario.grid_h


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _walkable_mask(scenario: Scenario) -> np.ndarray:
    mask = np.zeros((scenario.grid_h, scenario.grid_w), dtype=bool)
    for w in scenario.walkers:
        for bx, by in w.path:
            mask[by, bx] = True
    for d in scenario.dwellers:
        mask[d.block[1], d.block[0]] = True
    return mask


def _place_events(scenario: Scenario, days: int, rng: np.random.Generator) -> list[PlantedEvent]:
    plan = scenario.events
    if plan is None or checked("mean_per_day", plan.mean_per_day) == 0:
        return []
    checked("width_blocks", plan.width_blocks, 1, integral=True)
    checked("duration_s", plan.duration_s, above=True)
    checked("speed_bps", plan.speed_bps)

    travel = int(plan.duration_s * plan.speed_bps)
    day_minutes = int(scenario.day_hours * 60)
    weights = scenario.profile[:day_minutes]
    # Every template but flat varies over the day.
    weighted = scenario.template != "flat" and weights.sum() > 0
    if weighted:
        weights = weights / weights.sum()

    events: list[PlantedEvent] = []
    for day in range(days):
        n = int(rng.poisson(plan.mean_per_day))
        starts: list[float] = []
        if n > 0:
            if weighted:
                minutes = rng.choice(day_minutes, size=n, p=weights)
                starts = sorted(float(m * 60 + rng.uniform(0, 60)) for m in minutes)
            else:
                # Stratified placement with a hard minimum gap.
                slot = scenario.day_seconds / n
                jitter_span = max(0.0, slot - plan.duration_s - plan.min_gap_s)
                starts = [i * slot + rng.uniform(0, jitter_span) for i in range(n)]
        feasible = _feasible_directions(scenario, plan.width_blocks, travel)
        if not feasible:
            raise InvalidParameterError(
                f"event front (width {plan.width_blocks}, travel {travel}) does not fit "
                f"in a {scenario.grid_w}x{scenario.grid_h} grid"
            )
        for start in starts:
            direction = feasible[rng.integers(0, len(feasible))]
            origin = _fit_front(scenario, direction, plan.width_blocks, travel, rng)
            events.append(
                PlantedEvent(
                    start_s=day * SECONDS_PER_DAY + start,
                    duration_s=plan.duration_s,
                    amplitude=plan.amplitude,
                    origin=origin,
                    direction=direction,
                    width_blocks=plan.width_blocks,
                    speed_bps=plan.speed_bps,
                )
            )
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
    """Uniform origin such that the whole sweep stays inside the grid."""
    gw, gh = scenario.grid_w, scenario.grid_h
    dx, dy = direction
    if dy == 0:  # horizontal travel, vertical front
        span_x = travel + 1
        max_x0 = gw - span_x
        max_y0 = gh - width
        if max_x0 < 0 or max_y0 < 0:
            raise InvalidParameterError("event front does not fit in the grid")
        x0 = int(rng.integers(0, max_x0 + 1))
        if dx < 0:
            x0 = gw - 1 - x0
        y0 = int(rng.integers(0, max_y0 + 1))
        return (x0, y0)
    span_y = travel + 1
    max_y0 = gh - span_y
    max_x0 = gw - width
    if max_y0 < 0 or max_x0 < 0:
        raise InvalidParameterError("event front does not fit in the grid")
    y0 = int(rng.integers(0, max_y0 + 1))
    if dy < 0:
        y0 = gh - 1 - y0
    x0 = int(rng.integers(0, max_x0 + 1))
    return (x0, int(y0))


class _EventCursor:
    """Active-event window over a start-sorted event list; ticks must be
    visited in chronological order."""

    def __init__(self, events: list[PlantedEvent]):
        self._events = sorted(events, key=lambda e: e.start_s)
        self._next = 0
        self._active: list[PlantedEvent] = []

    def at(self, t_s: float) -> list[PlantedEvent]:
        while self._next < len(self._events) and self._events[self._next].start_s <= t_s:
            self._active.append(self._events[self._next])
            self._next += 1
        if self._active:
            self._active = [e for e in self._active if t_s < e.end_s]
        return self._active


def _planted_density(
    scenario: Scenario, active_events: list[PlantedEvent], t_s: float
) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free (density, dir_hist) deposits at one tick."""
    density = np.zeros((scenario.grid_h, scenario.grid_w))
    hist = np.zeros((scenario.grid_h, scenario.grid_w, N_DIR_BINS))
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
    for ev in active_events:
        for bx, by in ev.blocks_at(t_s):
            if 0 <= bx < scenario.grid_w and 0 <= by < scenario.grid_h:
                density[by, bx] += ev.amplitude
                hist[by, bx, _DIR_BIN.get(ev.direction, 0)] += ev.amplitude
    return density, hist


def _minute_index(t_s: float) -> tuple[int, int]:
    """(day, minute-of-day) for an absolute simulation time."""
    day = int(t_s // SECONDS_PER_DAY)
    return day, int((t_s % SECONDS_PER_DAY) // 60)


def _per_minute_planted(scenario: Scenario, events: list[PlantedEvent], days: int) -> np.ndarray:
    """Planted per-minute mean activity, (days*1440, gh, gw)."""
    out = np.zeros((days * 1440, scenario.grid_h, scenario.grid_w))
    ticks_per_day = int(round(scenario.day_seconds * scenario.rate_hz))
    per_min_ticks = np.zeros(days * 1440)
    cursor = _EventCursor(events)
    for day in range(days):
        for i in range(ticks_per_day):
            t_s = day * SECONDS_PER_DAY + i / scenario.rate_hz
            d, mod = _minute_index(t_s)
            idx = d * 1440 + mod
            density, _ = _planted_density(scenario, cursor.at(t_s), t_s)
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
    truth = GroundTruth(
        scenario=scenario,
        days=days,
        events=events,
        per_minute=_per_minute_planted(scenario, events, days),
        walkable_mask=_walkable_mask(scenario),
    )

    def frames() -> Iterator[MotionFrame]:
        noise_rng = np.random.default_rng(np.random.SeedSequence([scenario.seed, 2]))
        shape = (scenario.grid_h, scenario.grid_w)
        ticks_per_day = int(round(scenario.day_seconds * scenario.rate_hz))
        cursor = _EventCursor(events)
        for day in range(days):
            for i in range(ticks_per_day):
                t_s = day * SECONDS_PER_DAY + i / scenario.rate_hz
                density, hist = _planted_density(scenario, cursor.at(t_s), t_s)
                if scenario.noise_sigma > 0:
                    density += noise_rng.normal(0.0, scenario.noise_sigma, shape)
                    np.clip(density, 0.0, None, out=density)
                yield MotionFrame(
                    density=density,
                    dir_hist=hist,
                    timestamp_ms=int(round(t_s * 1000)),
                )

    return frames(), truth


def serpentine_path(grid_w: int, grid_h: int, margin: int = 1) -> tuple[tuple[int, int], ...]:
    """Boustrophedon sweep over the interior blocks; handy walker route."""
    path: list[tuple[int, int]] = []
    for row, by in enumerate(range(margin, grid_h - margin)):
        xs = range(margin, grid_w - margin)
        if row % 2:
            xs = reversed(xs)
        path.extend((bx, by) for bx in xs)
    return tuple(path)


# ---------------------------------------------------------------------------
# Pixel mode
# ---------------------------------------------------------------------------

def gen_blob_frames(
    width: int,
    height: int,
    n_frames: int,
    radius: float = 12.0,
    speed_px: float = 4.0,
    start_x: float | None = None,
    center_y: float | None = None,
    intensity: int = 255,
    fps: float = 30.0,
    shape: str = "disc",
) -> Iterator[GrayFrame]:
    """Bright blob translating rightward over a black background."""
    checked("n_frames", n_frames, 1, integral=True)
    if shape not in ("disc", "square"):
        raise InvalidParameterError(f"unknown blob shape {shape!r}")
    cx0 = radius + 2.0 if start_x is None else start_x
    cy = height / 2.0 if center_y is None else center_y
    yy, xx = np.mgrid[0:height, 0:width]
    for i in range(n_frames):
        cx = cx0 + i * speed_px
        if shape == "disc":
            mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= radius**2
        else:
            mask = (np.abs(xx - cx) <= radius) & (np.abs(yy - cy) <= radius)
        pixels = np.where(mask, intensity, 0).astype(np.uint8)
        yield GrayFrame(pixels=pixels, timestamp_ms=int(round(i * 1000.0 / fps)))
