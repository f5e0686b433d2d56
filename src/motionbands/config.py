"""Runtime configuration: one JSON document, strictly validated.

The document has three optional sections: ``filter`` holds the cascade's
:class:`~motionbands.filters.BandParams`, ``motion`` the block size and
noise floor for ``extract_motion``, and ``events`` the gate's thresholds
and the pipeline's detector policy. A missing key keeps its default.

A bad document fails at load with a :class:`ConfigError` naming the key,
checked in this order: unknown keys (so typos fail loudly), then types
(numbers only, never a string or a bool, and finite), then ranges (the
checks each section makes when it is built: ``BandParams``' band ordering
and rates, a block size of at least 1, and no negative noise floor,
threshold factor, threshold floor, cooldown, day count or re-invocation
period).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, get_type_hints

from .errors import InvalidParameterError
from .filters import BandParams


class ConfigError(ValueError):
    """Configuration could not be loaded or validated."""


def _at_least(section: object, name: str, low: float) -> None:
    """Raise unless the field is finite and at least ``low`` (NaN fails)."""
    value = getattr(section, name)
    if not low <= value < math.inf:
        raise InvalidParameterError(f"{name} must be finite and >= {low}, got {value}")


@dataclass
class MotionConfig:
    block_size: int = 16
    noise_floor: float = 8.0

    def __post_init__(self) -> None:
        _at_least(self, "block_size", 1)
        _at_least(self, "noise_floor", 0)


@dataclass
class EventsConfig:
    k_sigma: float = 2.0
    cooldown_s: float = 3.0
    min_threshold: float = 0.02
    min_days: int = 3
    reinvoke_every_s: float = 0.0

    def __post_init__(self) -> None:
        for name in ("k_sigma", "cooldown_s", "min_threshold", "min_days", "reinvoke_every_s"):
            _at_least(self, name, 0)


@dataclass
class Config:
    filter: BandParams = field(default_factory=BandParams)
    motion: MotionConfig = field(default_factory=MotionConfig)
    events: EventsConfig = field(default_factory=EventsConfig)


_SECTIONS = {f.name: f.default_factory for f in fields(Config)}


def _number(value: Any, kind: type) -> int | float:
    """``value`` as a ``kind``. Strings and bools are refused, and so are
    JSON's NaN and Infinity, which Python's ``json`` accepts."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    if kind is int and value != int(value):
        raise ValueError(f"expected an integer, got {value!r}")
    return kind(value)


def _validate(data: dict) -> Config:
    unknown, wrong = [], []
    checked: dict[str, dict] = {}
    for name, values in data.items():
        if name not in _SECTIONS:
            unknown.append(name)
            continue
        if not isinstance(values, dict):
            wrong.append(f"{name}: expected an object, got {values!r}")
            continue
        types = get_type_hints(_SECTIONS[name])
        checked[name] = {}
        for key, value in values.items():
            if key not in types:
                unknown.append(f"{name}.{key}")
                continue
            try:
                checked[name][key] = _number(value, types[key])
            except (ValueError, OverflowError) as exc:  # OverflowError: an int past float range
                wrong.append(f"{name}.{key}: {exc}")
    if unknown:
        raise ConfigError("; ".join(f"{key}: unknown key" for key in unknown))
    if wrong:
        raise ConfigError("; ".join(wrong))

    sections = {}
    for name, values in checked.items():
        try:
            sections[name] = _SECTIONS[name](**values)
        except InvalidParameterError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    return Config(**sections)


def load_config(path: str | Path | None) -> Config:
    """Load and validate a config file; ``None`` uses pure defaults."""
    data: dict = {}
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
    return _validate(data)
