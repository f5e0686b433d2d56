"""Settings, and the one rule for every number the package takes.

:func:`checked` decides whether a scalar argument is valid, here and in
every other module: a real number (an integer where one is needed), not
a bool or a string, from a lower bound up to the largest float, so NaN,
infinities and ints past float range fail. Only a minute of day and a
simulated day's hours pass a lower ``high``, and ``extract_motion``'s
noise floor ``high=math.inf``. Rules that tie values together stay put.

``BandParams`` holds the cascade's decay spans and rates, ``MotionConfig``
the block size and noise floor for ``extract_motion``, and
``EventsConfig`` the gate's thresholds and the pipeline's detector
policy; ``Config`` bundles one of each. The module reads no file format.
A caller with parsed JSON builds each section with ``**values`` and gets
the same checks: an unknown key is a ``TypeError`` from the constructor,
and a bad value an :class:`InvalidParameterError` naming the field.

Each section checks every field in ``__post_init__`` with :func:`_check`,
so what holds one need not check it again: ``CascadeFilter`` is built
from its ``BandParams`` and ``EventGate`` from its ``EventsConfig``.
``BandParams`` fields must be above 0, the block size at least 1, and
nothing else negative; ``BandParams`` also checks its band ordering and
that the frame rate is a whole multiple of the short-term rate.

This module imports no other package module but ``errors``, so every
other module may use its defaults and its checker.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, fields
from typing import get_type_hints

from .errors import InvalidParameterError

_LARGEST = sys.float_info.max


def checked(name, value, low=0, high=_LARGEST, *, above=False, integral=False):
    """``value`` if it is a real number (an integral one if ``integral``),
    not a bool or a string, at least ``low`` (above it if ``above``) and
    at most ``high``; else :class:`InvalidParameterError` naming ``name``.
    Comparisons are exact, so NaN and ints past float range fail too."""
    x = math.nan  # fails every comparison
    if type(value) is int or type(value) is float and not integral:
        x = value  # the common case, without the slower ABC checks below
    elif not isinstance(value, bool) and isinstance(value, numbers.Integral if integral else numbers.Real):
        # As a Python number: a numpy float32 would cast the largest float to inf.
        x = int(value) if isinstance(value, numbers.Integral) else float(value)
    if (low < x if above else low <= x) and x <= high:
        return value
    what = "an integer" if integral else "finite and" if high < math.inf else "a real number"
    bound = (f"> {low}" if above else f">= {low}") + (f" and <= {high}" if high < _LARGEST else "")
    try:
        shown = repr(value)
    except ValueError:  # an int past Python's limit on digits converted to str
        shown = f"an {type(value).__name__} too long to print"
    raise InvalidParameterError(f"{name} must be {what} {bound}, got {shown}")


def _check(section: object, above: bool = False, **lowest: float) -> None:
    """:func:`checked` on each field of ``section``, from ``lowest`` or 0."""
    types = get_type_hints(type(section))
    for f in fields(section):
        low = lowest.get(f.name, 0)
        checked(f.name, getattr(section, f.name), low, above=above, integral=types[f.name] is int)


def alpha_from_decay(rate_r: float, duration_t: float) -> float:
    """Filter coefficient for a 10%-decay duration of ``duration_t``.

    ``rate_r`` is samples per time unit and ``duration_t`` the decay span
    in the same unit (seconds for chronological stages, days for the
    isochronal stage); :func:`checked` holds both to finite and > 0.
    """
    checked("rate", rate_r, above=True)
    checked("duration", duration_t, above=True)
    return 0.1 ** (1.0 / (rate_r * duration_t))


@dataclass(frozen=True)
class BandParams:
    """Time constants for the four bands plus the two update rates.

    Durations are seconds except ``t_l2_days``. Defaults match a factory
    deployment: 30-minute noise-removal span, 10-day isochronal span, 20 s
    in-place span, 1 s moving-band FIR window, 30 fps input, 1 Hz
    short-term updates.
    """

    t_l1_s: float = 1800.0
    t_l2_days: float = 10.0
    t_s1_s: float = 20.0
    t_s2_s: float = 1.0
    frame_rate: float = 30.0
    shortterm_rate: float = 1.0

    def __post_init__(self) -> None:
        _check(self, above=True)
        if self.t_s1_s <= self.t_s2_s:
            raise InvalidParameterError(
                f"moving band is empty: t_s1_s ({self.t_s1_s}) must exceed t_s2_s ({self.t_s2_s})"
            )
        if self.t_l1_s <= self.t_s1_s:
            raise InvalidParameterError(
                f"band ordering violated: t_l1_s ({self.t_l1_s}) must exceed t_s1_s ({self.t_s1_s})"
            )
        stride = self.frame_rate / self.shortterm_rate
        if abs(stride - round(stride)) > 1e-9 or round(stride) < 1:
            raise InvalidParameterError(
                f"frame_rate ({self.frame_rate}) must be an integer multiple of "
                f"shortterm_rate ({self.shortterm_rate})"
            )

    @property
    def alpha_l1(self) -> float:
        return alpha_from_decay(self.frame_rate, self.t_l1_s)

    @property
    def alpha_s1(self) -> float:
        return alpha_from_decay(self.shortterm_rate, self.t_s1_s)

    @property
    def stride(self) -> int:
        return int(round(self.frame_rate / self.shortterm_rate))

    @property
    def fir_window(self) -> int:
        return int(math.ceil(self.shortterm_rate * self.t_s2_s))


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
