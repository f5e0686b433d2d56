"""Span recording around calls into the program's layers.

The benchmark times the program from outside. For a traced operation it
replaces chosen public methods on the program's own objects with wrappers
that record a span per call; after the operation the wrappers are removed,
so untraced operations run the unmodified program.

A span's self time is its duration minus the durations of the spans
opened inside it. Spans are aggregated in memory as they close, per span
name and per layer, and per operation, so a layer's self time per
operation is available without keeping every span.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter_ns
from typing import Any, Callable


class Recorder:
    def __init__(self) -> None:
        self._open: list[int] = []  # child time accumulated by each open span
        self._op_self: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.durations_ns: defaultdict[str, list[int]] = defaultdict(list)
        self.layer_ns: Counter[str] = Counter()
        self.op_layer_ns: defaultdict[tuple[str, str], list[int]] = defaultdict(list)
        self.ops: Counter[str] = Counter()

    def call(self, name: str, layer: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        self._open.append(0)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter_ns() - t0
            children = self._open.pop()
            if self._open:
                self._open[-1] += dur
            self.calls[name] += 1
            self.durations_ns[name].append(dur)
            self._op_self[layer] += dur - children

    def end_op(self, kind: str, keep: bool = True) -> None:
        """Close one traced operation of ``kind`` ("frame", "plan", ...);
        ``keep=False`` drops its layer times (warm-up or failed ops)."""
        if not keep:
            self._op_self.clear()
            return
        for layer, ns in self._op_self.items():
            self.op_layer_ns[(kind, layer)].append(ns)
            self.layer_ns[layer] += ns
        self._op_self.clear()
        self.ops[kind] += 1


class Probes:
    """Wrappers over (object, method) pairs, installed per traced operation."""

    def __init__(self, recorder: Recorder) -> None:
        self._rec = recorder
        self._targets: list[tuple[object, str, str, str]] = []

    def add(self, obj: object, method: str, name: str, layer: str) -> None:
        self._targets.append((obj, method, name, layer))

    def install(self) -> None:
        rec = self._rec
        for obj, method, name, layer in self._targets:
            bound = getattr(type(obj), method).__get__(obj)

            def traced(*args, _bound=bound, _name=name, _layer=layer, **kwargs):
                return rec.call(_name, _layer, _bound, *args, **kwargs)

            setattr(obj, method, traced)

    def remove(self) -> None:
        for obj, method, _, _ in self._targets:
            obj.__dict__.pop(method, None)
