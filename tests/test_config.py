import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import get_type_hints

import pytest

import motionbands

from motionbands.config import BandParams, Config, EventsConfig, MotionConfig
from motionbands.errors import InvalidParameterError


_FIELDS = [
    (section, f.name)
    for section in (BandParams, MotionConfig, EventsConfig)
    for f in dataclasses.fields(section)
]


# An int that no float can hold: float() of it raises OverflowError.
_PAST_FLOAT = 10**400


def _bad_values(section, name):
    """Values no field takes (a bool, a string, an int past float range),
    and for an ``int`` field, numbers that are not integers."""
    bad = [math.nan, math.inf, -math.inf, -1, True, "1", _PAST_FLOAT]
    return bad + [2.5, 3.0] if get_type_hints(section)[name] is int else bad


@pytest.mark.parametrize(
    "section, name, value",
    [
        pytest.param(
            section,
            name,
            value,
            id=f"{section.__name__}.{name}={'10**400' if value is _PAST_FLOAT else repr(value)}",
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
