"""The motionbands benchmark: workloads, their inputs, checks and metrics.

Every workload is a closed loop: one caller sends the next input as soon as
the previous call returns. Inputs are generated from the seed between
calls, and the checks run between calls too; only calls into the program
are timed. A run with tracing on times the same loop, but a random half of
its operations run with span recorders installed on the program's layer
objects (see ``tracing.py``); the other half give the untraced reference
for the tracing overhead.

Workloads, and why each exists:

* ``pixels_sparse``: VGA cameras, textured static scenes with sensor noise
  below the noise floor and a few moving textured blobs, so about 1% of
  pixels clear the floor. Frames go ``extract_motion`` -> ``ingest``. This
  is the real load, and the case a quiet-pixel shortcut would help.
* ``pixels_flicker``: the same pipeline on scenes where about half the
  pixels change above the floor every frame (foliage, a flashing lamp):
  the dense case, where such a shortcut must not lose.
* ``replay_days``: block-motion streams from ``sim.gen_stream`` replayed
  at 30 Hz over several short simulated days from warm stores; no pixel
  work, so the filters, store, gate and pipeline carry everything.
* ``plan_queries``: offline and realtime route queries over a grid graph
  seen by 8 cameras with learned stores, some live bands stale, plus
  periodic cost-map refreshes. Only planning and store queries run.
"""

from __future__ import annotations

import gc
import math
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

import numpy as np

from motionbands import planning, sim
from motionbands import motion as mb_motion
from motionbands.config import Config
from motionbands.filters import BandOutputs
from motionbands.isochron import IsochronalStore
from motionbands.motion import GrayFrame, MotionFrame
from motionbands.pipeline import CameraPipeline

from checks import RouteOracle, bands_finite, plan_matches, splat_matches
from oracle_motion import matches_reference
from tracing import Probes, Recorder

FPS = 30
CHECK_EVERY = 8  # every 8th frame of each pixel camera is checked against the oracle
SPLAT_EVERY = 5  # every 5th plan_queries operation refreshes the cost map
SENSOR_NOISE = 3  # pixel noise amplitude; consecutive differences stay below the floor
STREAM_NOISE = 0.02  # block-density noise sigma of the replay streams
LAYERS = ("motion", "filters", "isochron", "events", "pipeline", "planning")


@dataclass(frozen=True)
class Size:
    width: int = 640
    height: int = 480
    pixel_cameras: int = 3
    grid_w: int = 40
    grid_h: int = 30
    replay_cameras: int = 3
    replay_day_minutes: int = 3
    replay_days: int = 8
    learned_days: int = 3
    graph_n: int = 30
    plan_cameras: int = 8
    setups: int = 3


FULL = Size()
TINY = Size(
    width=192,
    height=192,
    pixel_cameras=2,
    grid_w=12,
    grid_h=12,
    replay_cameras=2,
    replay_day_minutes=1,
    replay_days=2,
    graph_n=9,
    plan_cameras=3,
    setups=2,
)


# ---------------------------------------------------------------------------
# Run bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class Result:
    attempted: int
    failed: int
    end_to_end: dict[str, tuple[float, str]]
    per_layer: dict[str, tuple[float, str]]
    report: dict


class Run:
    """State of one benchmark run: clocks, failure counts, tracing."""

    def __init__(self, seed: int, seconds: float, trace: bool, size: Size, workdir: Path):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = size
        self.workdir = workdir
        self.rec = Recorder()
        self.probes = Probes(self.rec)
        self._coin = random.Random(seed)
        self._traced = False
        self.attempted = 0
        self.failed = 0
        self.gen_ns = 0
        self.op_ns: dict[tuple[str, bool], list[int]] = {}
        self.untraced_seq_ns: list[int] = []  # every untraced op, in order
        self.setup_s: list[float] = []
        self.load_ns: list[int] = []
        self.save_ns: list[int] = []
        self.checkpoint_ns: list[int] = []

    def rng(self, *scope: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, *scope]))

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"failed: {what}", file=sys.stderr)

    def gen(self, fn: Callable, *args):
        """Input generation: off the program clock, accounted separately."""
        t0 = perf_counter_ns()
        out = fn(*args)
        self.gen_ns += perf_counter_ns() - t0
        return out

    def call(self, name: str, layer: str, fn: Callable, *args):
        """One timed call into the program; a span when the op is traced."""
        t0 = perf_counter_ns()
        out = self.rec.call(name, layer, fn, *args) if self._traced else fn(*args)
        return out, perf_counter_ns() - t0

    def begin_op(self) -> None:
        self.attempted += 1
        self._traced = self.trace and self._coin.random() < 0.5
        if self._traced:
            self.probes.install()

    def end_op(self, kind: str, ns: int, record: bool = True) -> None:
        if self._traced:
            self.probes.remove()
            self.rec.end_op(kind, keep=record)
        if record:
            self.op_ns.setdefault((kind, self._traced), []).append(ns)
            if not self._traced:
                self.untraced_seq_ns.append(ns)
        self._traced = False

    def abort_op(self, kind: str, exc: BaseException) -> None:
        if self._traced:
            self.probes.remove()
            self.rec.end_op(kind, keep=False)
        self._traced = False
        self.fail(f"{kind}: {type(exc).__name__}: {exc}")

    def timed_setup(self, build: Callable):
        """Build the program objects ``size.setups`` times; keep the last."""
        built = None
        for _ in range(self.size.setups):
            built = None
            gc.collect()
            t0 = time.perf_counter()
            built = build()
            self.setup_s.append(time.perf_counter() - t0)
        return built

    def load_store(self, path: Path) -> IsochronalStore:
        t0 = perf_counter_ns()
        store = IsochronalStore.load(path)
        self.load_ns.append(perf_counter_ns() - t0)
        return store

    def save_store(self, store: IsochronalStore, path: Path) -> int:
        t0 = perf_counter_ns()
        store.save(path)
        ns = perf_counter_ns() - t0
        self.save_ns.append(ns)
        return ns

    def checkpoint(self, pipes: list[CameraPipeline]) -> None:
        """Finish every camera, save its store and check that it round-trips."""
        for pipe in pipes:
            self.attempted += 1
            path = self.workdir / f"ckpt-{pipe.camera_id}.iso"
            try:
                pipe.finish()
                self.checkpoint_ns.append(self.save_store(pipe.store, path))
                if not IsochronalStore.load(path).equals(pipe.store):
                    self.fail(f"checkpoint of {pipe.camera_id} does not round-trip")
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted
                self.fail(f"checkpoint of {pipe.camera_id}: {type(exc).__name__}: {exc}")
            path.unlink(missing_ok=True)

    def ns(self, kind: str, traced: bool | None = False) -> np.ndarray:
        if traced is None:
            vals = self.op_ns.get((kind, False), []) + self.op_ns.get((kind, True), [])
        else:
            vals = self.op_ns.get((kind, traced), [])
        return np.asarray(vals, dtype=np.float64)


def _pct(values, q: float) -> float:
    a = np.asarray(values, dtype=np.float64)
    return float(np.percentile(a, q)) if a.size else 0.0


def _ops_per_s(seq_ns: list[int], chunks: int = 15) -> float:
    """Operations per second of program time: the median over equal runs
    of consecutive operations, so a few seconds of interference from
    outside the process move it less than a plain mean would."""
    a = np.asarray(seq_ns, dtype=np.float64)
    if a.size < chunks:
        return a.size / a.sum() * 1e9 if a.size else 0.0
    return float(np.median([p.size / p.sum() * 1e9 for p in np.array_split(a, chunks)]))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _learned_store(cam: str, grid_w: int, grid_h: int, samples) -> IsochronalStore:
    """A store that has seen ``samples``: (minute, density) pairs in day order."""
    store = IsochronalStore(cam, grid_w, grid_h, t_l2_days=Config().filter.t_l2_days)
    hist = np.zeros((grid_h, grid_w, mb_motion.N_DIR_BINS))
    for minute, density in samples:
        store.update(minute, MotionFrame(density=density, dir_hist=hist, timestamp_ms=minute * 60_000))
    return store


# ---------------------------------------------------------------------------
# Shared ingest machinery
# ---------------------------------------------------------------------------

def _build_pipelines(run: Run, paths: dict[str, Path], grid_w: int, grid_h: int) -> list[CameraPipeline]:
    config = Config()
    return [
        CameraPipeline(cam, grid_w, grid_h, config, store=run.load_store(path))
        for cam, path in paths.items()
    ]


def _probe_pipelines(run: Run, pipes: list[CameraPipeline]) -> None:
    for pipe in pipes:
        run.probes.add(pipe.cascade, "step", "filters.step", "filters")
        run.probes.add(pipe.store, "update", "isochron.update", "isochron")
        run.probes.add(pipe.store, "scalar_stats", "isochron.scalar_stats", "isochron")
        run.probes.add(pipe.gate, "step", "events.step", "events")


def _overhead(run: Run, kind: str) -> float:
    traced, untraced = run.ns(kind, True), run.ns(kind, False)
    if not traced.size or not untraced.size:
        return 0.0
    return float(traced.mean() / untraced.mean() - 1.0)


# ---------------------------------------------------------------------------
# Pixel workloads
# ---------------------------------------------------------------------------

class PixelScene:
    """One fixed camera: textured background, moving blobs, sensor noise,
    and optionally a foliage region and a lamp that change every frame."""

    def __init__(self, rng: np.random.Generator, width: int, height: int, flicker: bool, start_ms: int):
        self.rng = rng
        self.start_ms = start_ms
        self.index = 0
        yy, xx = np.mgrid[0:height, 0:width]
        phase = rng.uniform(0, 2 * math.pi, 2)
        bg = 120 + 50 * np.sin(xx / 23.0 + phase[0]) * np.cos(yy / 17.0 + phase[1])
        bg += rng.integers(-30, 31, (height, width))
        self.bg = np.clip(bg, 20, 230).astype(np.int16)
        scale = min(width, height) / 480.0
        self.blobs = []
        for _ in range(3):
            r = max(3, int(rng.integers(14, 21) * scale))
            yy_p, xx_p = np.mgrid[-r : r + 1, -r : r + 1]
            self.blobs.append(
                {
                    "r": r,
                    "mask": xx_p**2 + yy_p**2 <= r * r,
                    "patch": rng.integers(0, 256, (2 * r + 1, 2 * r + 1)).astype(np.int16),
                    "pos": np.array([rng.uniform(r, width - r), rng.uniform(r, height - r)]),
                    "vel": rng.uniform(2.0, 5.0, 2) * rng.choice([-1, 1], 2) * max(scale, 0.25),
                }
            )
        self.foliage = None
        self.lamp = None
        if flicker:
            foliage = np.zeros((height, width), dtype=bool)
            while foliage.mean() < 0.55:
                cx, cy = rng.uniform(0, width), rng.uniform(0, height)
                ax, ay = rng.uniform(0.08, 0.2) * width, rng.uniform(0.08, 0.2) * height
                foliage |= ((xx - cx) / ax) ** 2 + ((yy - cy) / ay) ** 2 <= 1.0
            lamp = np.zeros((height, width), dtype=bool)
            lx, ly = int(rng.uniform(0, 0.7) * width), int(rng.uniform(0, 0.7) * height)
            lamp[ly : ly + height // 4, lx : lx + width // 4] = True
            self.lamp = lamp & ~foliage
            self.foliage = foliage

    def next_frame(self) -> GrayFrame:
        rng = self.rng
        img = self.bg.copy()
        h, w = img.shape
        if self.foliage is not None:
            img[self.foliage] += rng.integers(-40, 41, int(self.foliage.sum()), dtype=np.int16)
            if self.index % 2:
                img[self.lamp] += 70
        for b in self.blobs:
            r = b["r"]
            b["pos"] += b["vel"]
            for axis, limit in ((0, w), (1, h)):
                if not r <= b["pos"][axis] <= limit - r:
                    b["vel"][axis] *= -1
                    b["pos"][axis] = min(max(b["pos"][axis], r), limit - r)
            x0, y0 = int(round(b["pos"][0])) - r, int(round(b["pos"][1])) - r
            xa, ya, xb, yb = max(0, x0), max(0, y0), min(w, x0 + 2 * r + 1), min(h, y0 + 2 * r + 1)
            sub = img[ya:yb, xa:xb]
            m = b["mask"][ya - y0 : yb - y0, xa - x0 : xb - x0]
            sub[m] = b["patch"][ya - y0 : yb - y0, xa - x0 : xb - x0][m]
        img += rng.integers(-SENSOR_NOISE, SENSOR_NOISE + 1, img.shape, dtype=np.int16)
        np.clip(img, 0, 255, out=img)
        t = self.start_ms + int(round(self.index * 1000.0 / FPS))
        self.index += 1
        return GrayFrame(pixels=img.astype(np.uint8), timestamp_ms=t)


def _pixel_workload(run: Run, flicker: bool) -> Result:
    size = run.size
    config = Config()
    block, floor = config.motion.block_size, config.motion.noise_floor
    grid_w, grid_h = -(-size.width // block), -(-size.height // block)
    start_minute = 600
    cams = [f"cam{i}" for i in range(size.pixel_cameras)]

    # Warm stores: every camera has seen its minutes for enough days that
    # the gate uses learned thresholds.
    paths = {}
    for i, cam in enumerate(cams):
        rng = run.rng(1, i)
        samples = run.gen(
            lambda: [
                (start_minute + m, rng.random((grid_h, grid_w)) * 0.02)
                for _ in range(size.learned_days)
                for m in range(2)
            ]
        )
        paths[cam] = run.workdir / f"{cam}.iso"
        run.save_store(_learned_store(cam, grid_w, grid_h, samples), paths[cam])
    store_mb = os.path.getsize(paths[cams[0]]) / 1e6

    pipes = run.timed_setup(lambda: _build_pipelines(run, paths, grid_w, grid_h))
    _probe_pipelines(run, pipes)
    scenes = [
        run.gen(PixelScene, run.rng(2, i), size.width, size.height, flicker, start_minute * 60_000)
        for i in range(len(cams))
    ]
    prev = [run.gen(s.next_frame) for s in scenes]
    frames_per_cam = [0] * len(cams)
    active_share: list[float] = []
    fired = 0
    frames_traced = 0
    deadline = time.perf_counter() + run.seconds
    op = 0
    while time.perf_counter() < deadline:
        c = op % len(cams)
        op += 1
        curr = run.gen(scenes[c].next_frame)
        last, prev[c] = prev[c], curr
        index = frames_per_cam[c]
        frames_per_cam[c] += 1
        if index % CHECK_EVERY == 0:
            moved = np.abs(curr.pixels.astype(np.int16) - last.pixels) >= floor
            active_share.append(float(moved.mean()))
        run.begin_op()
        traced = run._traced
        try:
            motion, t_extract = run.call("motion.extract", "motion", mb_motion.extract_motion, last, curr, block, floor)
            result, t_ingest = run.call("pipeline.ingest", "pipeline", pipes[c].ingest, motion)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            run.abort_op("frame", exc)
            continue
        frames_traced += traced
        # The first frame of each camera pays one-time costs; it is checked
        # but not counted in the latency figures.
        run.end_op("frame", t_extract + t_ingest, record=op > len(cams))
        ok = bands_finite(result)
        if index % CHECK_EVERY == 0:
            ok = ok and matches_reference(motion.density, motion.dir_hist, last.pixels, curr.pixels)
        if not ok:
            run.fail(f"frame {index} of {cams[c]}: output check")
        if pipes[c].frames_ingested % pipes[c].params.stride == 0:
            fired += result.decision

    run.checkpoint(pipes)
    per_layer = {"motion.extract_ms_p50": (_pct(run.rec.durations_ns["motion.extract"], 50) / 1e6, "ms")}
    extra = {
        "cameras": len(cams),
        "active_pixel_share": statistics.fmean(active_share),
        "active_pixel_samples": len(active_share),
    }
    return _finish_ingest(run, pipes, fired, frames_traced, 95, store_mb, per_layer, extra)


# ---------------------------------------------------------------------------
# Replay workload
# ---------------------------------------------------------------------------

def _loop_path(rng: np.random.Generator, gw: int, gh: int) -> tuple[tuple[int, int], ...]:
    x0, y0 = int(rng.integers(0, gw // 2)), int(rng.integers(0, gh // 2))
    x1, y1 = int(rng.integers(x0 + 2, gw)), int(rng.integers(y0 + 2, gh))
    top = [(x, y0) for x in range(x0, x1)]
    right = [(x1, y) for y in range(y0, y1)]
    bottom = [(x, y1) for x in range(x1, x0, -1)]
    left = [(x0, y) for y in range(y1, y0, -1)]
    return tuple(top + right + bottom + left)


def replay_scenario(rng: np.random.Generator, size: Size, seed: int) -> sim.Scenario:
    gw, gh = size.grid_w, size.grid_h
    day_s = size.replay_day_minutes * 60.0
    walkers = tuple(
        sim.Walker(path=_loop_path(rng, gw, gh), speed_bps=1.0, start_s=0.0, amplitude=0.5, loop=True)
        for _ in range(2)
    )
    dwellers = tuple(
        sim.Dweller(
            block=(int(rng.integers(0, gw)), int(rng.integers(0, gh))),
            start_s=float(rng.uniform(0, day_s / 2)),
            duration_s=day_s / 3,
            amplitude=0.5,
        )
        for _ in range(2)
    )
    travel = min(10, min(gw, gh) - 2)
    events = sim.EventPlan(
        mean_per_day=4.0 * size.replay_day_minutes / 3.0,
        duration_s=float(travel),
        amplitude=1.0,
        width_blocks=min(8, gh // 2),
        speed_bps=1.0,
        min_gap_s=15.0,
    )
    return sim.Scenario(
        grid_w=gw,
        grid_h=gh,
        day_hours=size.replay_day_minutes / 60.0,
        rate_hz=float(FPS),
        walkers=walkers,
        dwellers=dwellers,
        events=events,
        noise_sigma=STREAM_NOISE,
        seed=seed,
    )


def _replay_history(rng: np.random.Generator, scenario: sim.Scenario, days: int, minutes: int):
    """Per-minute aggregates of earlier days of a scene, as the pipeline
    would have flushed them: planted activity plus the mean of the clipped
    stream noise, with the noise left after averaging a minute of frames."""
    _, truth = sim.gen_stream(replace(scenario, seed=scenario.seed + 7919), days=days)
    noise_mean = scenario.noise_sigma / math.sqrt(2 * math.pi)
    noise_sd = scenario.noise_sigma * math.sqrt(0.5 - 1 / (2 * math.pi)) / math.sqrt(60 * FPS)
    shape = (scenario.grid_h, scenario.grid_w)
    out = []
    for day in range(days):
        for m in range(minutes):
            d = truth.per_minute[day * 1440 + m] + noise_mean + rng.normal(0.0, noise_sd, shape)
            out.append((m, np.clip(d, 0.0, None)))
    return out


def _overlaps(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def _replay_workload(run: Run) -> Result:
    size = run.size
    cams = [f"cam{i}" for i in range(size.replay_cameras)]
    scenarios, paths = [], {}
    for i, cam in enumerate(cams):
        rng = run.rng(3, i)
        scenario = run.gen(replay_scenario, rng, size, run.seed * 1000 + i)
        history = run.gen(_replay_history, rng, scenario, size.learned_days, size.replay_day_minutes)
        paths[cam] = run.workdir / f"{cam}.iso"
        run.save_store(_learned_store(cam, size.grid_w, size.grid_h, history), paths[cam])
        scenarios.append(scenario)
    store_mb = os.path.getsize(paths[cams[0]]) / 1e6
    streams, truths = [], []
    for scenario in scenarios:
        stream, truth = run.gen(sim.gen_stream, scenario, size.replay_days)
        streams.append(stream)
        truths.append(truth)
    planted = sum(len(t.events) for t in truths) / (len(cams) * size.replay_days)

    pipes = run.timed_setup(lambda: _build_pipelines(run, paths, size.grid_w, size.grid_h))
    _probe_pipelines(run, pipes)
    last_ms = [0] * len(cams)
    fired = 0
    frames_traced = 0
    warmup = FPS * len(cams)
    deadline = time.perf_counter() + run.seconds
    op = 0
    while time.perf_counter() < deadline:
        c = op % len(cams)
        frame = run.gen(next, streams[c], None)
        if frame is None:
            break
        op += 1
        run.begin_op()
        traced = run._traced
        try:
            result, t_ingest = run.call("pipeline.ingest", "pipeline", pipes[c].ingest, frame)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            run.abort_op("frame", exc)
            continue
        frames_traced += traced
        run.end_op("frame", t_ingest, record=op > warmup)
        if not bands_finite(result):
            run.fail(f"frame at {frame.timestamp_ms} ms of {cams[c]}: non-finite result")
        if pipes[c].frames_ingested % pipes[c].params.stride == 0:
            fired += result.decision
        last_ms[c] = frame.timestamp_ms

    run.checkpoint(pipes)
    hit = due = matched = closed = 0
    for pipe, truth, horizon in zip(pipes, truths, last_ms):
        found = [(e.start_ms, e.end_ms) for e in pipe.events]
        planted_iv = truth.event_intervals_ms()
        for iv in planted_iv:
            if iv[1] <= horizon:
                due += 1
                hit += any(_overlaps(iv, f) for f in found)
        closed += len(found)
        matched += sum(any(_overlaps(f, iv) for iv in planted_iv) for f in found)
    recall = hit / due if due else 0.0
    precision = matched / closed if closed else 0.0
    per_layer = {
        "events.recall": (recall, "share"),
        "events.precision": (precision, "share"),
    }
    days_replayed = max(last_ms) / 1000.0 / sim.SECONDS_PER_DAY
    extra = {
        "cameras": len(cams),
        "days_replayed": days_replayed,
        "planted_events_per_cam_day": planted,
        "planted_due": due,
    }
    return _finish_ingest(run, pipes, fired, frames_traced, 99, store_mb, per_layer, extra)


def _finish_ingest(
    run: Run,
    pipes: list[CameraPipeline],
    fired: int,
    frames_traced: int,
    tail_q: float,
    store_mb: float,
    per_layer: dict,
    extra: dict,
) -> Result:
    decisions = sum(p.frames_ingested // p.params.stride for p in pipes)
    gate = {
        "decisions": decisions,
        "fired_share": fired / decisions if decisions else 0.0,
        "closed": sum(len(p.events) for p in pipes),
    }
    rec = run.rec
    dur = rec.durations_ns
    per_layer.update(
        {
            "filters.step_us_p50": (_pct(dur["filters.step"], 50) / 1e3, "us"),
            "filters.step_us_p99": (_pct(dur["filters.step"], 99) / 1e3, "us"),
            "pipeline.self_us_p50": (_pct(rec.op_layer_ns[("frame", "pipeline")], 50) / 1e3, "us"),
            "events.step_us_p50": (_pct(dur["events.step"], 50) / 1e3, "us"),
            "isochron.scalar_stats_us_p50": (_pct(dur["isochron.scalar_stats"], 50) / 1e3, "us"),
            "isochron.update_us_p50": (_pct(dur["isochron.update"], 50) / 1e3, "us"),
            "pipeline.minute_flushes": (
                rec.calls["isochron.update"] * 1000.0 / frames_traced if frames_traced else 0.0,
                "per_1k_frames",
            ),
            "events.decisions": (gate["decisions"], "count"),
            "events.fired_share": (gate["fired_share"], "share"),
            "events.closed": (gate["closed"], "count"),
        }
    )
    lat = run.ns("frame", False)
    ops_per_s = _ops_per_s(run.untraced_seq_ns)
    e2e = {
        "ops_per_s": (ops_per_s, "1/s"),
        "op_ms_p50": (_pct(lat, 50) / 1e6, "ms"),
        "op_ms_tail": (_pct(lat, tail_q) / 1e6, "ms"),
    }
    report = {
        "cams_per_core": ops_per_s / FPS,
        "frame_ms_p50": e2e["op_ms_p50"][0],
        f"frame_ms_p{tail_q:g}": e2e["op_ms_tail"][0],
        "frames_timed": int(lat.size),
        "checkpoint_s": sum(run.checkpoint_ns) / 1e9,
        **gate,
        **extra,
    }
    return _result(run, e2e, store_mb, per_layer, "frame", report)


def _result(run: Run, e2e: dict, store_mb: float, per_layer: dict, kind: str, report: dict) -> Result:
    e2e = {
        "setup_s": (statistics.median(run.setup_s), "s"),
        **e2e,
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "store_mb": (store_mb, "MB"),
    }
    total = sum(run.rec.layer_ns.values()) or 1
    for layer in LAYERS:
        per_layer[f"{layer}.share"] = (run.rec.layer_ns[layer] / total, "share")
    per_layer.update(
        {
            "isochron.save_ms": (_pct(run.save_ns, 50) / 1e6, "ms"),
            "isochron.load_ms": (_pct(run.load_ns, 50) / 1e6, "ms"),
            "isochron.file_mb": (store_mb, "MB"),
            "trace.overhead_share": (_overhead(run, kind), "share"),
        }
    )
    traced_ops = run.rec.ops[kind]
    if traced_ops:
        # Layer self times sum to the traced operation time by construction;
        # compare them with the untraced operations of the same run.
        self_ns = sum(sum(v) for (k, _), v in run.rec.op_layer_ns.items() if k == kind)
        report["trace_accounting"] = {
            "layer_self_ms_per_op": self_ns / traced_ops / 1e6,
            "untraced_ms_per_op": float(run.ns(kind, False).mean()) / 1e6,
            "overhead_share": per_layer["trace.overhead_share"][0],
        }
    report.update(
        {
            "setup_s_each": run.setup_s,
            "gen_s": run.gen_ns / 1e9,
            "program_s": sum(sum(v) for v in run.op_ns.values()) / 1e9,
            "store_mb": store_mb,
        }
    )
    return Result(run.attempted, run.failed, e2e, per_layer, report)


# ---------------------------------------------------------------------------
# Planning workload
# ---------------------------------------------------------------------------

def plan_world(rng: np.random.Generator, size: Size):
    """Grid graph description, camera rectangles and the nodes a route may
    start or end at.

    Cameras tile the floor in two rows; a one-node margin around each tile
    is uncovered. The last camera watches an area nobody ever crosses, so
    the planner must route around it.
    """
    n, cams = size.graph_n, size.plan_cameras
    cols = -(-cams // 2)
    cw, ch = (n - 1) / cols, (n - 1) / 2
    rects = []
    for k in range(cams):
        x0, y0 = (k % cols) * cw, (k // cols) * ch
        rects.append((x0 + 1.0, x0 + cw - 1.0, y0 + 1.0, y0 + ch - 1.0))

    def camera_at(x: float, y: float) -> int | None:
        for k, (x0, x1, y0, y1) in enumerate(rects):
            if x0 <= x <= x1 and y0 <= y <= y1:
                return k
        return None

    nodes = [{"id": f"{r}_{c}", "x": float(c), "y": float(r)} for r in range(n) for c in range(n)]
    edges = []
    alive: set[str] = set()
    dead = cams - 1
    for r in range(n):
        for c in range(n):
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr >= n or c + dc >= n:
                    continue
                u, v = f"{r}_{c}", f"{r + dr}_{c + dc}"
                k = camera_at(c + dc / 2, r + dr / 2)
                edges.append(
                    {
                        "id": f"{u}-{v}",
                        "u": u,
                        "v": v,
                        "len_m": 1.0 + 0.25 * float(rng.random()),
                        "cam": None if k is None else f"cam{k}",
                    }
                )
                if k != dead:
                    alive.update((u, v))
    return {"nodes": nodes, "edges": edges}, rects, sorted(alive)


def _plan_history(rng: np.random.Generator, k: int, dead: bool, grid_w: int, grid_h: int):
    """One learned day of a daily profile over the camera's walkable
    blocks, and the walkable mask. A dead camera has seen nothing."""
    shape = (grid_h, grid_w)
    walkable = np.zeros(shape, dtype=bool) if dead else rng.random(shape) < 0.35
    if dead:
        return [(m, np.zeros(shape)) for m in range(1440)], walkable
    profile = sim.gen_daily_profile(("office", "university")[k % 2], 1.0)
    level = np.where(walkable, rng.uniform(0.02, 0.2, shape), 0.0)
    noise = np.abs(rng.normal(0.0, 0.002, (1440,) + shape))
    dens = profile[:, None, None] * level[None] + noise
    return [(m, dens[m]) for m in range(1440)], walkable


def _homography(rect, grid_w: int, grid_h: int) -> np.ndarray:
    """Block centres onto the camera's rectangle, widened by 40% so that
    views at the floor's edge reach past the map."""
    x0, x1, y0, y1 = rect
    cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
    sx, sy = 1.4 * (x1 - x0) / grid_w, 1.4 * (y1 - y0) / grid_h
    return np.array([[sx, 0.0, cx - sx * grid_w / 2], [0.0, sy, cy - sy * grid_h / 2], [0.0, 0.0, 1.0]])


def _live_bands(rng: np.random.Generator, t_ms: int, walkable: np.ndarray) -> BandOutputs:
    shape = walkable.shape
    hist = np.zeros(shape + (mb_motion.N_DIR_BINS,))

    def frame(scale: float) -> MotionFrame:
        return MotionFrame(density=rng.random(shape) * scale * walkable, dir_hist=hist, timestamp_ms=t_ms)

    return BandOutputs(m_l1=frame(0.1), m_s1=frame(0.05), m_s2=frame(0.05))


def _route_ends(rng: np.random.Generator, coords: np.ndarray, lo: float, width: float) -> tuple[int, int]:
    """Random origin and goal whose grid distance lies in [lo, lo + width)."""
    while True:
        o = int(rng.integers(len(coords)))
        dist = np.abs(coords - coords[o]).sum(axis=1)
        candidates = np.flatnonzero((dist >= lo) & (dist < lo + width))
        if candidates.size:
            return o, int(rng.choice(candidates))


def _plan_workload(run: Run) -> Result:
    size = run.size
    gw, gh = size.grid_w, size.grid_h
    rng = run.rng(4)
    graph_obj, rects, alive = run.gen(plan_world, rng, size)
    cams = [f"cam{k}" for k in range(size.plan_cameras)]
    dead = cams[-1]
    paths, walkable = {}, {}
    for k, cam in enumerate(cams):
        history, walkable[cam] = run.gen(_plan_history, run.rng(5, k), k, cam == dead, gw, gh)
        paths[cam] = run.workdir / f"{cam}.iso"
        run.save_store(_learned_store(cam, gw, gh, history), paths[cam])
        del history
    store_mb = os.path.getsize(paths[cams[0]]) / 1e6

    def build():
        stores = {cam: run.load_store(p) for cam, p in paths.items()}
        return stores, planning.PathGraph.from_json_obj(graph_obj)

    stores, graph = run.timed_setup(build)
    run.probes.add(graph, "neighbors", "planning.neighbors", "planning")
    for store in stores.values():
        for method in ("query", "binarize", "minute_curve"):
            run.probes.add(store, method, f"isochron.{method}", "isochron")
    oracle = RouteOracle(graph_obj, stores)

    side = 4 * (size.graph_n + 1)  # 0.25 m cells over the floor plus a 1 m border
    cells = np.zeros((side, side), dtype=np.uint8)
    for _ in range(4):
        r, c = rng.integers(0, cells.shape[0] - 8, 2)
        cells[r : r + 8, c : c + 2] = planning.LETHAL_COST
    static_map = planning.CostMap(resolution_m=0.25, origin_x=-1.0, origin_y=-1.0, cells=cells)
    homographies = {cam: _homography(rects[k], gw, gh) for k, cam in enumerate(cams)}

    band_rng = run.rng(6)
    refresh_p = {cam: float(band_rng.uniform(0.05, 1.0)) for cam in cams}
    t_ms = (3 * 1440 + 480) * 60_000
    live = {cam: _live_bands(band_rng, t_ms, walkable[cam]) for cam in cams}
    staleness_s = 5.0
    stale = realtime_pairs = 0
    plans_traced = plans_made = 0
    # Search effort grows with route length, so every run cycles through
    # the same four distance classes, each offline and realtime.
    coords = np.array([[int(p) for p in nid.split("_")] for nid in alive])
    span = 2 * (size.graph_n - 1)
    deadline = time.perf_counter() + run.seconds
    op = 0
    while time.perf_counter() < deadline:
        op += 1
        if op % SPLAT_EVERY == 0:
            frames = {cam: b.m_s1 for cam, b in live.items()}
            run.begin_op()
            try:
                (_, report), ns = run.call("planning.splat", "planning", planning.splat_activity, static_map, frames, homographies)
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted
                run.abort_op("splat", exc)
                continue
            run.end_op("splat", ns)
            if not splat_matches(report, frames):
                run.fail(f"splat at op {op}: touched plus skipped blocks differ from positive blocks")
            continue

        t0 = perf_counter_ns()
        t_ms += int(band_rng.integers(500, 2000))
        for cam in cams:
            if band_rng.random() < refresh_p[cam]:
                live[cam] = _live_bands(band_rng, t_ms, walkable[cam])
        o, g = _route_ends(band_rng, coords, span * (0.1 + 0.2 * (plans_made % 4)), span * 0.2)
        offline = (plans_made // 4) % 2 == 0
        plans_made += 1
        if offline:
            query = planning.PlanQuery(alive[o], alive[g], mode="offline", t_star=int(band_rng.integers(0, 1440)))
        else:
            query = planning.PlanQuery(
                alive[o], alive[g], mode="realtime", t_ms=t_ms, staleness_s=staleness_s,
                include_moving=bool(band_rng.random() < 0.5),
            )
            realtime_pairs += len(cams)
            stale += sum(abs(t_ms - b.timestamp_ms) > staleness_s * 1000 for b in live.values())
        run.gen_ns += perf_counter_ns() - t0

        run.begin_op()
        traced = run._traced
        try:
            result, ns = run.call("planning.plan", "planning", planning.plan_path, graph, query, stores, live)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            run.abort_op("plan", exc)
            continue
        plans_traced += traced
        run.end_op("plan", ns, record=op > 1)
        if not plan_matches(result, oracle.cost(query, stores, live)):
            run.fail(f"plan {query.origin}->{query.goal} ({query.mode}): cost {result.total_cost} differs")

    rec = run.rec
    plans = run.ns("plan", False)
    splats = run.ns("splat", None)
    per_plan = max(plans_traced, 1)
    per_layer = {
        "isochron.query_calls_per_plan": (rec.calls["isochron.query"] / per_plan, "count"),
        "isochron.binarize_calls_per_plan": (rec.calls["isochron.binarize"] / per_plan, "count"),
        "planning.expansions_per_plan": (rec.calls["planning.neighbors"] / per_plan, "count"),
        "planning.self_ms_p50": (_pct(rec.op_layer_ns[("plan", "planning")], 50) / 1e6, "ms"),
        "planning.splat_ms_p50": (_pct(splats, 50) / 1e6, "ms"),
    }
    e2e = {
        "ops_per_s": (_ops_per_s(run.untraced_seq_ns), "1/s"),
        "op_ms_p50": (_pct(plans, 50) / 1e6, "ms"),
        "op_ms_tail": (_pct(plans, 90) / 1e6, "ms"),
    }
    report = {
        "plan_qps": plans.size / (plans.sum() / 1e9) if plans.size else 0.0,
        "plan_ms_p50": e2e["op_ms_p50"][0],
        "plan_ms_p90": e2e["op_ms_tail"][0],
        "plans_timed": int(plans.size),
        "costmap_ms_p50": per_layer["planning.splat_ms_p50"][0],
        "cameras": len(cams),
        "segments": len(graph_obj["edges"]),
        "stale_band_share": stale / realtime_pairs if realtime_pairs else 0.0,
    }
    return _result(run, e2e, store_mb, per_layer, "plan", report)


# ---------------------------------------------------------------------------

WORKLOADS: dict[str, Callable[[Run], Result]] = {
    "pixels_sparse": lambda run: _pixel_workload(run, flicker=False),
    "pixels_flicker": lambda run: _pixel_workload(run, flicker=True),
    "replay_days": _replay_workload,
    "plan_queries": _plan_workload,
}

# Every per-layer metric, with its unit; a layer a workload does not run
# reports 0.
PER_LAYER_UNITS = {
    "motion.extract_ms_p50": "ms",
    "motion.share": "share",
    "filters.step_us_p50": "us",
    "filters.step_us_p99": "us",
    "filters.share": "share",
    "pipeline.self_us_p50": "us",
    "pipeline.minute_flushes": "per_1k_frames",
    "pipeline.share": "share",
    "events.step_us_p50": "us",
    "events.decisions": "count",
    "events.fired_share": "share",
    "events.closed": "count",
    "events.recall": "share",
    "events.precision": "share",
    "events.share": "share",
    "isochron.scalar_stats_us_p50": "us",
    "isochron.update_us_p50": "us",
    "isochron.save_ms": "ms",
    "isochron.load_ms": "ms",
    "isochron.file_mb": "MB",
    "isochron.query_calls_per_plan": "count",
    "isochron.binarize_calls_per_plan": "count",
    "isochron.share": "share",
    "planning.expansions_per_plan": "count",
    "planning.self_ms_p50": "ms",
    "planning.splat_ms_p50": "ms",
    "planning.share": "share",
    "trace.overhead_share": "share",
}


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path, size: Size = FULL) -> Result:
    run = Run(seed, seconds, trace, size, workdir)
    result = WORKLOADS[name](run)
    for metric, unit in PER_LAYER_UNITS.items():
        value, got_unit = result.per_layer.get(metric, (0.0, unit))
        result.per_layer[metric] = (float(value), got_unit)
    return result
