"""Spans around the layer functions, for the traced run.

The tracer replaces each layer function at the name its caller looks it
up by (``kernels.d2q9_run`` is called through the ``kernels`` module,
``run_to_steady`` through the globals of ``experiments``, and so on), so
the program itself is not edited.  Spans (name, start, end, parent,
run id) stay in memory and are written out when the run ends.  Tracing
is single threaded: the open spans form a stack.
"""

import contextlib
import functools
import importlib
import json
import math
import os
import statistics
import time
from dataclasses import asdict, dataclass


def _kernel_info(args, kwargs, result):
    f = args[0]
    return dict(steps=int(args[1]), nodes=int(f[0].size))


def _march_info(args, kwargs, result):
    return dict(steps=int(result[1]))


def _bytes_info(args, kwargs, result):
    return dict(nbytes=os.path.getsize(result))


# (module, attribute, what to record from the call).  The module is the
# one whose attribute the caller reads at call time.
TARGETS = (
    ("magiclbm.kernels", "d1q3_run", _kernel_info),
    ("magiclbm.kernels", "d2q9_run", _kernel_info),
    ("magiclbm.experiments", "run_to_steady", _march_info),
    ("magiclbm.experiments", "fit_parabola", None),
    ("magiclbm.experiments", "wall_location", None),
    ("magiclbm.cli", "find_magic_root", None),
    ("magiclbm.cli", "measure_diffusivity", None),
    ("magiclbm.cli", "measure_viscosity", None),
    ("magiclbm.cli", "parse_config", None),
    ("magiclbm.cli", "build_experiment", None),
    ("magiclbm.results", "write_table", _bytes_info),
    ("magiclbm.results", "write_plot_script", _bytes_info),
)

MAIN = "cli.main"
D1Q3 = {"kernels.d1q3_run"}
D2Q9 = {"kernels.d2q9_run"}
KERNELS = D1Q3 | D2Q9
MARCH = {"experiments.run_to_steady"}
FITTING = {"experiments.fit_parabola", "experiments.wall_location"}
ROOT = {"cli.find_magic_root"}
MEASURE = {"cli.measure_diffusivity", "cli.measure_viscosity"}
CONFIG = {"cli.parse_config", "cli.build_experiment"}
RESULTS = {"results.write_table", "results.write_plot_script"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    steps: int = 0
    nodes: int = 0
    nbytes: int = 0

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records nested spans; ``run`` tags the spans of one CLI command."""

    def __init__(self):
        self.spans = []
        self.run = 0
        self._open = []

    def call(self, name, func, args=(), kwargs=None, info=None):
        kwargs = kwargs or {}
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self.run))
        self._open.append(index)
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            span = self.spans[index]
            span.start, span.end = start, end
        if info is not None:
            for key, value in info(args, kwargs, result).items():
                setattr(span, key, value)
        return result

    def wrap(self, name, func, info):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            return self.call(name, func, args, kwargs, info)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every target for its traced wrapper; restore on exit."""
        saved = []
        try:
            for module_name, attr, info in TARGETS:
                module = importlib.import_module(module_name)
                func = getattr(module, attr)
                saved.append((module, attr, func))
                name = module_name.removeprefix("magiclbm.") + "." + attr
                setattr(module, attr, self.wrap(name, func, info))
            yield self
        finally:
            for module, attr, func in reversed(saved):
                setattr(module, attr, func)

    def write(self, path):
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = asdict(span)
                record["start"] -= t0
                record["end"] -= t0
                handle.write(json.dumps(record) + "\n")


def self_times(spans, offset=0):
    """Each span's duration minus the time its direct children cover.

    ``offset`` is the index of ``spans[0]`` in the tracer's list, which
    parent indices refer to.
    """
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None and span.parent >= offset:
            own[span.parent - offset] -= span.duration
    return own


def _percentile(values, q):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans, offset, round_s):
    """Per-layer figures of one traced round (``spans`` cover it exactly)."""
    own = self_times(spans, offset)

    def pick(names):
        return [(s, o) for s, o in zip(spans, own) if s.name in names]

    def busy(names):
        return sum(s.duration for s, _ in pick(names))

    def self_s(names):
        return sum(o for _, o in pick(names))

    def steps(names):
        return sum(s.steps for s, _ in pick(names))

    def us_per_step(names):
        n = steps(names)
        return 1e6 * busy(names) / n if n else 0.0

    k_busy = busy(KERNELS)
    k_node_steps = sum(s.steps * s.nodes for s, _ in pick(KERNELS))
    k_calls_us = [1e6 * s.duration for s, _ in pick(KERNELS)]
    marches = [s for s, _ in pick(MARCH)]
    return {
        "kernels.us_per_step": us_per_step(KERNELS),
        "kernels.d1q3.us_per_step": us_per_step(D1Q3),
        "kernels.d2q9.us_per_step": us_per_step(D2Q9),
        "kernels.mlups": k_node_steps / k_busy / 1e6 if k_busy else 0.0,
        "kernels.busy_s": k_busy,
        "kernels.call_us.p50": _percentile(k_calls_us, 0.5),
        "kernels.call_us.p90": _percentile(k_calls_us, 0.9),
        "kernels.calls": len(k_calls_us),
        "kernels.steps": steps(KERNELS),
        "kernels.d1q3.steps": steps(D1Q3),
        "kernels.d2q9.steps": steps(D2Q9),
        "experiments.march.calls": len(marches),
        "experiments.march.steps_per_call":
            sum(s.steps for s in marches) / len(marches) if marches else 0.0,
        "experiments.march.busy_s": busy(MARCH),
        "experiments.march.self_s": self_s(MARCH),
        "experiments.root.self_s": self_s(ROOT),
        "experiments.measure.busy_s": busy(MEASURE),
        "experiments.measure.self_s": self_s(MEASURE),
        "fitting.calls": len(pick(FITTING)),
        "fitting.busy_s": busy(FITTING),
        "config.busy_s": busy(CONFIG),
        "results.busy_s": busy(RESULTS),
        "results.bytes": sum(s.nbytes for s, _ in pick(RESULTS)),
        "cli.self_s": self_s({MAIN}),
        "trace.solve_s": round_s,
        "trace.accounted": sum(own) / round_s,
    }


def median_metrics(rounds):
    """Median over rounds of each per-layer figure."""
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
