"""In-memory span recording and the timing shims of the traced run.

The traced run measures the program's layers from the outside: it wraps
public functions of ``repro`` at every module that holds a reference to
them (the defining module and each ``from ... import`` site) and three
methods on their classes.  Every call records one span -- name, start,
end, parent span, run id -- in memory; the spans are written to disk
only when the run ends.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = ["NullRecorder", "Recorder", "install", "layer_stats"]


class Span:
    """One timed call.  ``tag`` holds call details read after the run."""

    __slots__ = ("index", "name", "start", "end", "parent", "run", "tag")

    def __init__(
        self, index: int, name: str, start: float, parent: int, run: int
    ) -> None:
        self.index = index
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.tag: object = None


class Recorder:
    """Nested spans of a single-threaded run, kept in memory."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.runs: list[str] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        run = len(self.runs) - 1
        self.spans.append(Span(idx, name, time.perf_counter(), parent, run))
        self._stack.append(idx)
        return idx

    def close(self, idx: int, tag: object = None) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.tag = tag
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx, self.spans[idx].tag)

    @contextmanager
    def run(self, kind: str) -> Iterator[int]:
        """A root span; every span opened inside carries its run id."""
        self.runs.append(kind)
        with self.span("root." + kind):
            yield len(self.runs) - 1

    def run_spans(self, run_id: int) -> list[Span]:
        return [s for s in self.spans if s.run == run_id]

    def dump(self, path) -> None:
        """Write every span as ``[name, start, end, parent, run]`` rows."""
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [
            [index[s.name], round(s.start, 7), round(s.end, 7), s.parent, s.run]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"runs": self.runs, "names": names, "spans": rows}, fh)


class NullRecorder:
    """Stand-in for untimed rounds: the benchmark's own spans cost nothing."""

    enabled = False

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        yield Span(-1, name, 0.0, -1, -1)

    @contextmanager
    def run(self, kind: str) -> Iterator[int]:
        yield -1


# --------------------------------------------------------------------- shims


def _first_arg(args, kwargs, result):
    return args[0] if args else next(iter(kwargs.values()))


def _window_args(args, kwargs, result):
    # args[0] is the DeviceGrid; the rest are plain ints.
    return (args[0].name, args[1:], tuple(sorted(kwargs.items())))


def _feasible(args, kwargs, result):
    return bool(result.feasible)


def _n_runs(args, kwargs, result):
    return result.n_runs


#: ``(module, function, span name, tagger)``: wrapped in the defining
#: module and at every import site found in ``sys.modules``.
FUNCTIONS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.rtlgen.sweep", "generate_sweep", "rtlgen.generate_sweep", None),
    ("repro.synth.mapper", "synthesize", "synth.synthesize", _first_arg),
    ("repro.synth.mapper", "opt_design", "synth.opt_design", None),
    ("repro.netlist.stats", "compute_stats", "netlist.compute_stats", None),
    ("repro.place.quick", "quick_place", "place.quick_place", None),
    ("repro.place.packer", "pack", "place.pack", _feasible),
    ("repro.pblock.generator", "build_pblock", "pblock.build_pblock", None),
    ("repro.pblock.cf_search", "minimal_cf", "pblock.minimal_cf", _n_runs),
    ("repro.features.registry", "make_record", "features.make_record", None),
    ("repro.cnv.design", "calibrate_scale", "cnv.calibrate_scale", None),
)

#: ``(module, class, method, span name, tagger)``.
METHODS: tuple[tuple[str, str, str, str, Callable | None], ...] = (
    ("repro.device.grid", "DeviceGrid", "find_window", "device.find_window",
     _window_args),
    ("repro.device.grid", "DeviceGrid", "caps_in_rect", "device.caps_in_rect",
     None),
    ("repro.features.registry", "FeatureExtractor", "matrix", "features.matrix",
     None),
)


def _wrap(rec: Recorder, name: str, fn: Callable, tagger: Callable | None):
    def shim(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close(idx, ("raised", getattr(exc, "n_runs", 0)))
            raise
        rec.close(idx, tagger(args, kwargs, result) if tagger else None)
        return result

    shim.__name__ = getattr(fn, "__name__", name)
    shim.__doc__ = getattr(fn, "__doc__", None)
    return shim


#: Every module a workload calls into, imported before the scan so that
#: no import site appears after the shims are in place.
PRELOAD = (
    "repro.analysis.exp_incremental",
    "repro.cnv.design",
    "repro.dataset.balance",
    "repro.dataset.generate",
    "repro.device.parts",
    "repro.estimator.cf_estimator",
    "repro.flow.cache",
    "repro.flow.policy",
    "repro.flow.preimpl",
    "repro.flow.stitcher",
    "repro.ml.split",
)


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every target at every import site; returns the undo function."""
    for name in PRELOAD:
        importlib.import_module(name)
    undo: list[tuple[object, str, object]] = []
    for mod_name, attr, span_name, tagger in FUNCTIONS:
        original = getattr(importlib.import_module(mod_name), attr)
        shim = _wrap(rec, span_name, original, tagger)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, shim)
                    undo.append((module, key, original))
    for mod_name, cls_name, attr, span_name, tagger in METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        original = cls.__dict__[attr]
        setattr(cls, attr, _wrap(rec, span_name, original, tagger))
        undo.append((cls, attr, original))

    def uninstall() -> None:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return uninstall


# --------------------------------------------------------------- aggregation


class Layer:
    """Per-name aggregate of a set of spans."""

    __slots__ = ("calls", "total_s", "self_s", "durations", "tags")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations: list[float] = []
        self.tags: list[object] = []


def layer_stats(spans: list[Span]) -> dict[str, Layer]:
    """Calls, total and self time per span name.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest strictly, so that is exactly the
    part of the interval no child covers.
    """
    child_s: dict[int, float] = {}
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] = child_s.get(s.parent, 0.0) + (s.end - s.start)
    out: dict[str, Layer] = {}
    for s in spans:
        layer = out.setdefault(s.name, Layer())
        dur = s.end - s.start
        layer.calls += 1
        layer.total_s += dur
        layer.self_s += dur - child_s.get(s.index, 0.0)
        layer.durations.append(dur)
        layer.tags.append(s.tag)
    return out


def percentile_ms(durations: list[float], q: int) -> float:
    """The ``q``-th percentile of call durations, in milliseconds."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3
