"""Per-layer spans and counts, recorded from outside photonamp.

The traced run wraps public functions of each photonamp module. Modules
import one another's names with ``from .x import y``, so a wrapper is bound
in place of the original in every ``photonamp`` module that holds it, not
only in the module that defines it. A target that no longer exists (removed
or renamed) is reported as absent, together with every metric it feeds, and
the run goes on without it.

Spans nest: each records its parent, and a layer's figure is its self time,
the span's duration less the time its child spans cover.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from checks import VERIFY_SUITES


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _grid_cells(counts, args, kwargs, result):
    counts["fields.grid_cells"] += _arg(args, kwargs, 1, "grid").npts ** 3


def _narrowband_cells(counts, args, kwargs, result):
    counts["fields.narrowband_cells"] += _arg(args, kwargs, 1, "grid").npts ** 3


def _point_call(counts, args, kwargs, result):
    counts["fields.point_calls"] += 1


def _observable(counts, args, kwargs, result):
    amps = [a for a in args[:2] if hasattr(a, "record")]
    counts["amplitudes.observable_calls"] += 1
    counts["amplitudes.record_ops_total"] += sum(len(a.record) for a in amps) / len(amps)


def _half_phase_nodes(counts, args, kwargs, result):
    counts["wigner.half_phase_nodes"] += np.size(_arg(args, kwargs, 1, "kvec")) // 3


def _matrix_call(counts, args, kwargs, result):
    counts["wigner.matrix_calls"] += 1


def _count_box_growth(counts, args, kwargs, result):
    before = float(np.prod(_arg(args, kwargs, 0, "box").halfwidth))
    counts["quadrature.box_calls"] += 1
    counts["quadrature.box_log_growth"] += math.log(float(np.prod(result.halfwidth)) / before)


@dataclass(frozen=True)
class Target:
    """``module.name`` (or ``module.name[key]`` for a dict entry) to wrap.

    ``span`` is None for a target that is only counted, not timed.
    """

    module: str
    name: str
    span: str | None
    counter: Callable | None = None
    key: str | None = None

    @property
    def label(self) -> str:
        return f"{self.module}.{self.name}" + (f"[{self.key}]" if self.key else "")


_F, _A, _W, _P, _L = (
    "photonamp.fields", "photonamp.amplitudes", "photonamp.wigner",
    "photonamp.polarization", "photonamp.little_group",
)

TARGETS = (
    Target(_F, "positive_frequency_grid", "fields.grid_fill", _grid_cells),
    Target(_F, "field_expectation_grid", "fields.grid_fill"),
    Target(_F, "bb_density_grid", "fields.grid_fill"),
    Target(_F, "energy_momentum_integrals", "fields.grid_integral"),
    Target(_F, "positive_frequency_field", "fields.point", _point_call),
    Target(_F, "vector_potential", "fields.point", _point_call),
    Target(_F, "narrowband_energy_momentum", "fields.narrowband_integral", _narrowband_cells),
    Target(_F, "narrowband_grid", "fields.narrowband_grid"),
    Target(_F, "sipe_energy_integral", "fields.closure"),
    Target(_F, "bb_energy_integral", "fields.closure"),
    Target(_A, "norm_squared", "amplitudes.observable", _observable),
    Target(_A, "expectation_momentum", "amplitudes.observable", _observable),
    Target(_A, "inner_product", "amplitudes.observable", _observable),
    Target(_W, "rotation_half_phase", "wigner.half_phase", _half_phase_nodes),
    Target(_W, "boost_half_phase", "wigner.half_phase", _half_phase_nodes),
    Target(_W, "wigner_rotation", "wigner.matrix", _matrix_call),
    Target(_W, "wigner_boost", "wigner.matrix", _matrix_call),
    Target(_P, "polarization_spatial", "polarization.spatial"),
    Target(_P, "polarization", "polarization.vector"),
    Target(_P, "covariance_residual", "polarization.vector"),
    Target(_L, "decompose_little_group", "little_group"),
    Target(_L, "ibr_matrix", "little_group"),
    Target(_L, "ibr_physical_factors", "little_group"),
    Target("photonamp.quadrature", "mapped_box", None, _count_box_growth),
) + tuple(
    Target("photonamp.verify", "_SUITES", f"verify.{suite}", key=suite)
    for suite in VERIFY_SUITES
)

#: Root spans opened by the benchmark around ``photonamp.cli.main``.
CLI_SPAN = "cli"
CSV_SPAN = "cli.csv"


@dataclass(frozen=True)
class Metric:
    """A per-layer metric: ``value(tracer, units)`` per traced unit.

    ``owner`` is the span, or the counted target, that feeds it; the metric
    is absent when a target of that owner is missing.
    """

    name: str
    unit: str
    owner: str
    value: Callable[["Tracer", int], float]


def _time(name, span):
    return Metric(name, "s", span, lambda t, units: t.self_time.get(span, 0.0) / units)


def _count(name, owner):
    return Metric(name, "count", owner, lambda t, units: t.counts.get(name, 0.0) / units)


def _record_ops(t, units):
    calls = t.counts.get("amplitudes.observable_calls", 0.0)
    return t.counts.get("amplitudes.record_ops_total", 0.0) / calls if calls else 0.0


def _box_growth(t, units):
    calls = t.counts.get("quadrature.box_calls", 0.0)
    return math.exp(t.counts.get("quadrature.box_log_growth", 0.0) / calls) if calls else 1.0


LAYER_METRICS = (
    _time("cli.csv_s", CSV_SPAN),
    Metric("cli.csv_mb", "MB", CSV_SPAN,
           lambda t, units: t.counts.get("cli.csv_bytes", 0.0) / units / 1e6),
    _time("fields.grid_fill_s", "fields.grid_fill"),
    _count("fields.grid_cells", "fields.grid_fill"),
    _time("fields.grid_integral_s", "fields.grid_integral"),
    _time("fields.point_s", "fields.point"),
    _count("fields.point_calls", "fields.point"),
    _time("fields.narrowband_integral_s", "fields.narrowband_integral"),
    _count("fields.narrowband_cells", "fields.narrowband_integral"),
    _time("fields.narrowband_grid_s", "fields.narrowband_grid"),
    _time("fields.closure_s", "fields.closure"),
    _time("amplitudes.observable_s", "amplitudes.observable"),
    _count("amplitudes.observable_calls", "amplitudes.observable"),
    Metric("amplitudes.record_ops", "count", "amplitudes.observable", _record_ops),
    _time("wigner.half_phase_s", "wigner.half_phase"),
    _count("wigner.half_phase_nodes", "wigner.half_phase"),
    _time("wigner.matrix_s", "wigner.matrix"),
    _count("wigner.matrix_calls", "wigner.matrix"),
    _time("polarization.spatial_s", "polarization.spatial"),
    _time("polarization.vector_s", "polarization.vector"),
    _time("little_group.s", "little_group"),
    Metric("quadrature.box_growth", "ratio", "mapped_box", _box_growth),
) + tuple(_time(f"verify.{suite}_s", f"verify.{suite}") for suite in VERIFY_SUITES)


class Tracer:
    """Spans kept in memory, self time per span name, and named counts."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span index, time covered by children]

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append([len(self.spans) - 1, 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        index, covered = self._stack.pop()
        span = self.spans[index]
        span[3] = end
        duration = end - span[2]
        self.self_time[span[0]] += duration - covered
        if self._stack:
            self._stack[-1][1] += duration


def _wrap(tracer: Tracer, original, target: Target):
    span, counter, counts = target.span, target.counter, tracer.counts

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if span is None:
            result = original(*args, **kwargs)
        else:
            tracer.enter(span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit()
        if counter is not None:
            counter(counts, args, kwargs, result)
        return result

    return wrapper


def _rebind(old, new) -> None:
    """Put ``new`` wherever a photonamp module holds ``old`` as a global."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "photonamp" or name.startswith("photonamp.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


class Instrumentation:
    """Wrappers for every target that exists; ``install``/``remove`` swap them in and out."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.absent: dict[str, str] = {}  # owner (span, or name of a counted target) -> missing target
        self._pairs = []  # (target, original, wrapper)
        for target in TARGETS:
            original = self._lookup(target)
            owner = target.span or target.name
            if original is None or not callable(original):
                self.absent.setdefault(owner, target.label)
                continue
            self._pairs.append((target, original, _wrap(tracer, original, target)))

    @staticmethod
    def _lookup(target: Target):
        module = sys.modules.get(target.module)
        holder = getattr(module, target.name, None) if module is not None else None
        if target.key is None:
            return holder
        return holder.get(target.key) if isinstance(holder, dict) else None

    def _swap(self, to_wrapper: bool) -> None:
        for target, original, wrapper in self._pairs:
            old, new = (original, wrapper) if to_wrapper else (wrapper, original)
            if target.key is None:
                _rebind(old, new)
            else:
                getattr(sys.modules[target.module], target.name)[target.key] = new

    def install(self) -> None:
        self._swap(True)

    def remove(self) -> None:
        self._swap(False)


def layer_values(tracer: Tracer, instr: Instrumentation, units: int) -> tuple[dict, dict]:
    """Per-unit layer figures, and the absent metrics with their missing targets."""
    values, absent = {}, {}
    for metric in LAYER_METRICS:
        if metric.owner in instr.absent:
            absent[metric.name] = instr.absent[metric.owner]
        else:
            values[metric.name] = {"value": metric.value(tracer, units), "unit": metric.unit}
    return values, absent
