"""Tiny-size runs of every workload.

Each run must report every metric named in BENCHMARK.json with no failed
operation, and a run whose program output is corrupted must count the
corruption as a failed operation. Run with:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
from motionbands import motion as mb_motion  # noqa: E402
from motionbands import planning  # noqa: E402
from motionbands.isochron import IsochronalStore  # noqa: E402
from motionbands.pipeline import CameraPipeline  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(name, tmp_path, trace=False, seconds=0.6):
    return bench.run_workload(name, seed=3, seconds=seconds, trace=trace, workdir=tmp_path, size=bench.TINY)


def test_spec_names_every_workload():
    assert sorted(WORKLOADS) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_present(name, trace, tmp_path):
    result = _run(name, tmp_path, trace)
    assert result.attempted > 0
    assert result.failed == 0
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: unit for k, (_, unit) in result.end_to_end.items()} == e2e
    assert all(value > 0 and math.isfinite(value) for value, _ in result.end_to_end.values())
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: unit for k, (_, unit) in result.per_layer.items()} == per_layer
    assert all(math.isfinite(value) for value, _ in result.per_layer.values())


def test_traced_run_records_layers(tmp_path):
    layers = _run("replay_days", tmp_path, trace=True).per_layer
    assert layers["filters.step_us_p50"][0] > 0
    assert layers["isochron.scalar_stats_us_p50"][0] > 0
    assert layers["events.step_us_p50"][0] > 0
    shares = sum(layers[f"{k}.share"][0] for k in ("filters", "isochron", "events", "pipeline"))
    assert shares == pytest.approx(1.0)


def test_corrupted_motion_is_counted(tmp_path, monkeypatch):
    real = mb_motion.extract_motion

    def skewed(*args):
        frame = real(*args)
        frame.density = frame.density + 1e-3
        return frame

    monkeypatch.setattr(mb_motion, "extract_motion", skewed)
    result = _run("pixels_sparse", tmp_path)
    assert result.failed > 0


def test_non_finite_ingest_is_counted(tmp_path, monkeypatch):
    real = CameraPipeline.ingest

    def poisoned(self, frame):
        out = real(self, frame)
        out.activity = math.nan
        return out

    monkeypatch.setattr(CameraPipeline, "ingest", poisoned)
    result = _run("replay_days", tmp_path)
    assert result.failed > 0


def test_exception_is_counted(tmp_path, monkeypatch):
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(mb_motion, "extract_motion", broken)
    result = _run("pixels_flicker", tmp_path)
    assert result.failed == result.attempted - bench.TINY.pixel_cameras > 0


def test_wrong_plan_cost_is_counted(tmp_path, monkeypatch):
    real = planning.plan_path

    def detour(*args, **kwargs):
        out = real(*args, **kwargs)
        out.total_cost += 0.5
        return out

    monkeypatch.setattr(planning, "plan_path", detour)
    result = _run("plan_queries", tmp_path)
    assert result.failed > 0


def test_wrong_splat_report_is_counted(tmp_path, monkeypatch):
    real = planning.splat_activity

    def miscount(*args, **kwargs):
        cost_map, report = real(*args, **kwargs)
        report.cells_touched += 1
        return cost_map, report

    monkeypatch.setattr(planning, "splat_activity", miscount)
    result = _run("plan_queries", tmp_path, seconds=1.0)
    assert result.failed > 0


def test_checkpoint_that_does_not_round_trip_is_counted(tmp_path, monkeypatch):
    real = IsochronalStore.save

    def lossy(self, path):
        self._days[0] += 1
        real(self, path)
        self._days[0] -= 1

    monkeypatch.setattr(IsochronalStore, "save", lossy)
    result = _run("replay_days", tmp_path)
    assert result.failed == bench.TINY.replay_cameras


def test_inputs_follow_the_seed():
    a = bench.replay_scenario(np.random.default_rng(5), bench.FULL, 5)
    b = bench.replay_scenario(np.random.default_rng(5), bench.FULL, 5)
    assert a == b
    scene = lambda: bench.PixelScene(np.random.default_rng(7), 64, 48, True, 0)  # noqa: E731
    s1, s2 = scene(), scene()
    for _ in range(3):
        assert np.array_equal(s1.next_frame().pixels, s2.next_frame().pixels)
