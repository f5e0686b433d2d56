import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import get_type_hints

import pytest

import motionbands

from motionbands.config import Config, ConfigError, EventsConfig, MotionConfig, load_config
from motionbands.errors import InvalidParameterError
from motionbands.filters import BandParams


def _write(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj), encoding="utf-8")
    return path


class TestLoadConfig:
    def test_no_file_gives_defaults(self):
        assert load_config(None) == Config()

    def test_file_values_apply(self, tmp_path):
        path = _write(tmp_path, {"motion": {"block_size": 8}, "events": {"k_sigma": 3.0}})
        config = load_config(path)
        assert config.motion.block_size == 8
        assert config.events.k_sigma == 3.0
        assert config.events.cooldown_s == Config().events.cooldown_s

    @pytest.mark.parametrize(
        "doc",
        [{"sede": 1}, {"events": {"k_sgima": 3.0}}, {"filter": {"t_l1_s": 1.0, "extra": 0}}],
        ids=["top-level", "in-section", "beside-a-known-key"],
    )
    def test_unknown_key_rejected(self, tmp_path, doc):
        with pytest.raises(ConfigError, match="sede|k_sgima|extra"):
            load_config(_write(tmp_path, doc))

    def test_wrong_type_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="k_sigma"):
            load_config(_write(tmp_path, {"events": {"k_sigma": "high"}}))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path)

    def test_bad_json_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(_write(tmp_path, '{"seed": 1,'))

    @pytest.mark.parametrize(
        "doc, keys",
        [
            ('{"events": {"k_sigma": NaN}, "filter": {"t_s2_s": Infinity}}', ["k_sigma", "t_s2_s"]),
            ('{"events": {"k_sigma": -Infinity}}', ["k_sigma"]),
            ('{"events": {"k_sigma": "3.5"}}', ["k_sigma"]),
            ('{"events": {"min_days": true}}', ["min_days"]),
            ('{"events": {"min_days": 2.5}}', ["min_days"]),
            ('{"motion": {"block_size": null}}', ["block_size"]),
            ('{"filter": {"t_l1_s": 5.0}}', ["filter", "t_l1_s"]),
            ('{"filter": {"frame_rate": 25.0, "shortterm_rate": 2.0}}', ["filter", "frame_rate"]),
            ('{"events": 2}', ["events"]),
        ],
        ids=[
            "nan-and-infinity",
            "minus-infinity",
            "number-as-string",
            "bool-as-int",
            "fraction-as-int",
            "null",
            "band-ordering",
            "rate-ratio",
            "section-not-object",
        ],
    )
    def test_wrong_value_rejected_at_load(self, tmp_path, doc, keys):
        with pytest.raises(ConfigError) as info:
            load_config(_write(tmp_path, doc))
        for key in keys:
            assert key in str(info.value)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("motion", "block_size", 0),
            ("motion", "noise_floor", -1),
            ("events", "k_sigma", -1),
            ("events", "cooldown_s", -2),
            ("events", "min_threshold", -0.01),
            ("events", "min_days", -1),
            ("events", "reinvoke_every_s", -1),
        ],
    )
    def test_out_of_range_value_rejected_at_load(self, tmp_path, section, key, value):
        with pytest.raises(ConfigError, match=f"^{section}: {key} must be "):
            load_config(_write(tmp_path, {section: {key: value}}))

    def test_checks_run_unknown_keys_then_types_then_ranges(self, tmp_path):
        with pytest.raises(ConfigError, match="^events.k_sgima: unknown key$"):
            load_config(_write(tmp_path, {"events": {"k_sgima": 1.0, "k_sigma": "x"}}))
        with pytest.raises(ConfigError, match="^filter.t_s2_s: "):
            load_config(_write(tmp_path, {"filter": {"t_l1_s": 5.0, "t_s2_s": "x"}}))

    def test_integral_numbers_load_as_the_field_type(self, tmp_path):
        config = load_config(_write(tmp_path, {"events": {"min_days": 4.0, "k_sigma": 3}}))
        assert config.events.min_days == 4 and isinstance(config.events.min_days, int)
        assert config.events.k_sigma == 3.0 and isinstance(config.events.k_sigma, float)

    @pytest.mark.parametrize("doc", ["[1, 2]", '"cam0"', "3", "null"])
    def test_non_object_document_rejected(self, tmp_path, doc):
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(_write(tmp_path, doc))


_FIELDS = [
    (section, f.name)
    for section in (BandParams, MotionConfig, EventsConfig)
    for f in dataclasses.fields(section)
]


def _bad_values(section, name):
    """Values no field takes, and for an ``int`` field, numbers that are
    not integers."""
    bad = [math.nan, math.inf, -math.inf, -1]
    return bad + [2.5, 3.0, True] if get_type_hints(section)[name] is int else bad


@pytest.mark.parametrize(
    "section, name, value",
    [
        pytest.param(section, name, value, id=f"{section.__name__}.{name}={value!r}")
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
    # declared runtime dependencies; the config loader is stdlib.
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
