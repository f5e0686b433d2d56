import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

import motionbands

from motionbands.config import BandParams, Config, EventsConfig, MotionConfig, alpha_from_decay
from motionbands.errors import InvalidParameterError
from motionbands.events import EventGate
from motionbands.filters import CascadeFilter
from motionbands.isochron import IsochronalStore
from motionbands.motion import GrayFrame, MotionFrame, extract_motion
from motionbands.planning import (
    MODE_REALTIME,
    CostMap,
    Node,
    PathGraph,
    PlanQuery,
    Segment,
    plan_path,
    splat_activity,
)
from motionbands.sim import EventPlan, Scenario, gen_blob_frames, gen_daily_profile, gen_stream


_FIELDS = [
    (section, f.name)
    for section in (BandParams, MotionConfig, EventsConfig)
    for f in dataclasses.fields(section)
]


# An int that no float can hold: float() of it raises OverflowError.
_PAST_FLOAT = 10**400
# An int too long for str(): repr() of it raises ValueError.
_PAST_STR = 10**5000
_NAMED = {_PAST_FLOAT: "10**400", -_PAST_FLOAT: "-10**400", _PAST_STR: "10**5000"}


def _label(value):
    return _NAMED[value] if value in _NAMED else repr(value)


def _bad_values(section, name):
    """Values no field takes (a bool, a string, ints past float range),
    and for an ``int`` field, numbers that are not integers."""
    bad = [math.nan, math.inf, -math.inf, -1, True, "1", _PAST_FLOAT, _PAST_STR]
    return bad + [2.5, 3.0] if get_type_hints(section)[name] is int else bad


@pytest.mark.parametrize(
    "section, name, value",
    [
        pytest.param(
            section,
            name,
            value,
            id=f"{section.__name__}.{name}={_label(value)}",
        )
        for section, name in _FIELDS
        for value in _bad_values(section, name)
    ],
)
def test_every_section_field_rejects_a_bad_value_when_built(section, name, value):
    # Each section checks its fields once, here; nothing that holds one
    # checks them again.
    with pytest.raises(InvalidParameterError, match=name):
        section(**{name: value})


def _store():
    return IsochronalStore("cam", 2, 2)


_PIXELS = GrayFrame(np.zeros((4, 4), np.uint8))
_CELLS = np.zeros((2, 2), np.uint8)
_MAP = CostMap(1.0, 0.0, 0.0, _CELLS)
_DAY = dict(grid_w=4, grid_h=4, day_hours=0.01)

# Every public entry point that takes a number: (where, the name its error
# gives, a call with the value, the kind of value). "int" takes integers
# only, "floor" also +inf, and "origin" any finite number.
_ENTRY_POINTS = [
    ("alpha_from_decay", "rate", lambda v: alpha_from_decay(v, 1.0), "real"),
    ("alpha_from_decay", "duration", lambda v: alpha_from_decay(1.0, v), "real"),
    ("EventGate", "decision_rate_hz", lambda v: EventGate("cam", EventsConfig(), v), "real"),
    ("CascadeFilter", "grid_w", lambda v: CascadeFilter(v, 2, BandParams()), "int"),
    ("CascadeFilter", "grid_h", lambda v: CascadeFilter(2, v, BandParams()), "int"),
    ("IsochronalStore", "grid_w", lambda v: IsochronalStore("cam", v, 2), "int"),
    ("IsochronalStore", "grid_h", lambda v: IsochronalStore("cam", 2, v), "int"),
    # t_l2_days reaches the check through alpha_from_decay.
    ("IsochronalStore.t_l2_days", "duration", lambda v: IsochronalStore("cam", 2, 2, v), "real"),
    ("IsochronalStore.update", "minute-of-day", lambda v: _store().update(v, MotionFrame.zeros(2, 2)), "int"),
    ("IsochronalStore.query", "minute-of-day", lambda v: _store().query(v), "int"),
    ("IsochronalStore.scalar_stats", "minute-of-day", lambda v: _store().scalar_stats(v), "int"),
    ("IsochronalStore.binarize", "epsilon", lambda v: _store().binarize(v), "real"),
    ("MotionFrame.zeros", "grid_w", lambda v: MotionFrame.zeros(v, 2), "int"),
    ("MotionFrame.zeros", "grid_h", lambda v: MotionFrame.zeros(2, v), "int"),
    ("extract_motion", "block_size", lambda v: extract_motion(_PIXELS, _PIXELS, block_size=v), "int"),
    ("extract_motion", "noise_floor", lambda v: extract_motion(_PIXELS, _PIXELS, noise_floor=v), "floor"),
    ("Segment", "length_m", lambda v: Segment("s", "a", "b", v), "real"),
    ("Segment", "base_cost", lambda v: Segment("s", "a", "b", 1.0, base_cost=v), "real"),
    *(
        ("PlanQuery", name, lambda v, name=name: PlanQuery("a", "b", **{name: v}), kind)
        for name, kind in [
            ("lam", "real"),
            ("w1", "real"),
            ("w2", "real"),
            ("staleness_s", "real"),
            ("t_star", "int"),
            ("t_ms", "int"),
        ]
    ),
    ("CostMap", "resolution_m", lambda v: CostMap(v, 0.0, 0.0, _CELLS), "real"),
    ("CostMap", "origin_x", lambda v: CostMap(1.0, v, 0.0, _CELLS), "origin"),
    ("CostMap", "origin_y", lambda v: CostMap(1.0, 0.0, v, _CELLS), "origin"),
    ("splat_activity", "density_scale", lambda v: splat_activity(_MAP, {}, {}, v), "real"),
    *(
        ("Scenario", name, lambda v, name=name: Scenario(**{**_DAY, name: v}), kind)
        for name, kind in [
            ("grid_w", "int"),
            ("grid_h", "int"),
            ("day_hours", "real"),
            ("rate_hz", "real"),
            ("noise_sigma", "real"),
        ]
    ),
    ("gen_daily_profile", "amplitude", lambda v: gen_daily_profile("office", v), "real"),
    ("gen_stream", "days", lambda v: gen_stream(Scenario(**_DAY), v), "int"),
    *(
        (
            "gen_stream.EventPlan",
            name,
            lambda v, name=name: gen_stream(Scenario(**_DAY, events=EventPlan(**{name: v}))),
            kind,
        )
        for name, kind in [
            ("mean_per_day", "real"),
            ("width_blocks", "int"),
            ("duration_s", "real"),
            ("speed_bps", "real"),
        ]
    ),
    ("gen_blob_frames", "n_frames", lambda v: gen_blob_frames(8, 8, v), "int"),
]


def _bad_scalars(kind):
    """What an entry point of ``kind`` must refuse: a bool, a string, NaN,
    both infinities, -1, ints past float range and past str(), 2.5 where an
    integer is needed. A noise floor takes +inf and any number past 255,
    which no pixel difference clears, and a map origin takes -1."""
    bad = [True, "1", math.nan, -math.inf, math.inf, -1, _PAST_FLOAT, _PAST_STR]
    if kind == "int":
        bad.append(2.5)
    if kind == "floor":
        bad = bad[:4] + [-1]
    if kind == "origin":
        bad[bad.index(-1)] = -_PAST_FLOAT
    return bad


@pytest.mark.parametrize(
    "name, call, value",
    [
        pytest.param(name, call, value, id=f"{where}.{name}={_label(value)}")
        for where, name, call, kind in _ENTRY_POINTS
        for value in _bad_scalars(kind)
    ],
)
def test_every_entry_point_rejects_a_bad_scalar_naming_it(name, call, value):
    # One rule for every number the package takes: each of these raised a
    # bare TypeError, ValueError or OverflowError, or was accepted, before
    # the modules shared config.checked.
    with pytest.raises(InvalidParameterError, match=re.escape(name)):
        call(value)


def test_good_scalars_still_pass():
    store = _store()
    store.update(np.int16(5), MotionFrame.zeros(2, 2))
    assert store.query(np.int16(5))[2] == 1
    assert store.scalar_stats(np.int16(5)) == (0.0, 0.0, 1)
    assert PlanQuery("a", "b", t_star=np.int16(5), t_ms=np.int64(7)).t_star == 5
    # numpy floats are real numbers like any other.
    assert BandParams(t_l1_s=np.float64(1800.0), frame_rate=np.float64(30.0)).stride == 30
    assert alpha_from_decay(np.float64(30.0), np.float64(2.0)) == alpha_from_decay(30.0, 2.0)
    assert EventGate("cam", EventsConfig(k_sigma=np.float64(2.0)), np.float64(2.0)).tick_ms == 500
    assert PlanQuery("a", "b", lam=np.float64(2.0), staleness_s=np.float32(1.0)).lam == 2.0
    assert IsochronalStore("cam", np.int64(2), 2, np.float64(3.0)).t_l2_days == 3.0
    # A floor no pixel clears is a floor.
    moving = GrayFrame(np.full((4, 4), 255, np.uint8))
    for pixels in (_PIXELS, GrayFrame(np.zeros((4, 4)))):
        for floor in (math.inf, _PAST_FLOAT):
            assert not extract_motion(pixels, moving, 2, floor).density.any()
    # A block past the frame is the whole frame, even past int64.
    assert extract_motion(_PIXELS, moving, 2**63).density.shape == (1, 1)
    assert Segment("s", "a", "b", 2.5, base_cost=None).traversal_cost == 2.5
    assert CostMap(0.5, -1e300, 1e300, _CELLS).origin_x == -1e300


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_fractional_realtime_clock_rejected_whatever_the_cache(warm):
    # A real-time t_ms of 1.5 was accepted: plan_path then raised
    # "minute-of-day must be an integer" on a cold store and planned on a
    # warm one, whose cache found its minute 0.0 equal to 0.
    store = _store()
    store.update(0, MotionFrame.zeros(2, 2))
    if warm:
        store.scalar_stats(0)
    graph = PathGraph([Node("a", 0.0, 0.0), Node("b", 1.0, 0.0)], [Segment("ab", "a", "b", 1.0, "cam")])
    with pytest.raises(InvalidParameterError, match="t_ms"):
        plan_path(graph, PlanQuery("a", "b", mode=MODE_REALTIME, t_ms=1.5), {"cam": store})
    for minute in (0.0, False):
        with pytest.raises(InvalidParameterError, match="minute-of-day"):
            store.scalar_stats(minute)
    assert store.scalar_stats(0) == (0.0, 0.0, 1)


@pytest.mark.parametrize(
    "section, name", [pytest.param(*f, id=f"{f[0].__name__}.{f[1]}") for f in _FIELDS]
)
def test_every_section_field_is_frozen(section, name):
    built = section()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(built, name, getattr(built, name))


def test_config_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        Config().events = EventsConfig()


def test_no_module_imports_pydantic():
    # Every module, imported in a fresh interpreter, loads only the
    # declared runtime dependencies; the settings are stdlib dataclasses.
    code = (
        "import importlib, pkgutil, sys, motionbands\n"
        "for m in pkgutil.iter_modules(motionbands.__path__):\n"
        "    importlib.import_module('motionbands.' + m.name)\n"
        "assert 'motionbands.config' in sys.modules\n"
        "print('pydantic' in sys.modules)\n"
    )
    src = str(Path(motionbands.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "False"
