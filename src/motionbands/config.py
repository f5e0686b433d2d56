"""Runtime configuration: one JSON document, strictly validated.

The document has three optional sections: ``filter`` holds the cascade's
:class:`~motionbands.filters.BandParams`, ``motion`` the block size and
noise floor for ``extract_motion``, and ``events`` the gate's thresholds
and the pipeline's detector policy. A missing key keeps its default.

Each section is frozen and checks every field once, when it is built, so
what holds one need not check it again: ``CascadeFilter`` is built from
its ``BandParams`` and ``EventGate`` from its ``EventsConfig``. Numbers
must be finite, ``int`` fields integers (never bools), the block size at
least 1, and nothing else negative; ``BandParams`` also checks its band
ordering and rates. A bad document fails at load with a
:class:`ConfigError` naming the key, checked in this order: unknown keys
(so typos fail loudly), then JSON types (numbers only, never a string or
a bool), then the sections' own checks.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, get_type_hints

from .errors import InvalidParameterError
from .filters import BandParams


class ConfigError(ValueError):
    """Configuration could not be loaded or validated."""


def _check(section: object, **lowest: float) -> None:
    """Raise unless every field of ``section`` is finite (NaN fails) and at
    least its ``lowest`` value, 0 if not given, and an integer where it is
    typed ``int``. Bools are refused."""
    types = get_type_hints(type(section))
    for f in fields(section):
        value, low, integral = getattr(section, f.name), lowest.get(f.name, 0), types[f.name] is int
        kind = numbers.Integral if integral else numbers.Real
        if isinstance(value, bool) or not isinstance(value, kind) or not low <= value < math.inf:
            what = "an integer" if integral else "finite and"
            raise InvalidParameterError(f"{f.name} must be {what} >= {low}, got {value!r}")


@dataclass(frozen=True)
class MotionConfig:
    block_size: int = 16
    noise_floor: float = 8.0

    def __post_init__(self) -> None:
        _check(self, block_size=1)


@dataclass(frozen=True)
class EventsConfig:
    k_sigma: float = 2.0
    cooldown_s: float = 3.0
    min_threshold: float = 0.02
    min_days: int = 3
    reinvoke_every_s: float = 0.0

    def __post_init__(self) -> None:
        _check(self)


@dataclass(frozen=True)
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
