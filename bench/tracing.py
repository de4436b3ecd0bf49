"""Span tracing of metagrad's layers, installed from outside the package.

``install`` wraps the public functions and objective methods of each layer
(objectives, adaptation, estimators, linalg, metatrain, cli, svgchart) by
rebinding their names in every ``metagrad`` module that holds them. ``bounds``
is left out: it is closed-form and costs microseconds. A span records its
name, start, end and parent; an op's spans share its root span (``op.<kind>``).
Spans live in memory and are written out once, when the run ends. Tracing is
meant for a dedicated worker process: nothing is unwound.

``layer_metrics`` turns the spans into the per-layer metrics. Self time is a
span's duration minus the time its direct children cover (children of one
span never overlap: the program is single-threaded). ``.calls`` is per
rotation of six ops, ``.busy_share`` the share of all op time spent inside
spans of that name (gradient spans nest inside finite-difference HVP spans).

An HVP is counted once, at the outermost HVP boundary: ``Trajectory.hvp`` for
the cascade estimators (full, trunc, binom), the objective's ``hvp`` for
imaml, which calls it directly through CG. ``estimators.hvp_count_ratio.<kind>``
divides that count by the ``CostCounters.hvp_total`` the estimators return,
and reads exactly 1.0 while the formulas match what runs.

Which end-to-end metric each layer metric should move, and on which workload
(quad is run by hand; logistic-deep stands in for it in BENCHMARK.json):

  objectives.hvp.*                     op_ms_p50.{binom,full,trunc,imaml} on sine;
                                       no change predicted on quad or logistic-deep
  objectives.gradient.*                every op_ms_p50.* on sine
  objectives.construct.*               every op_ms_p50.* on quad; less on logistic-deep,
                                       whose LogisticTask constructor also runs eigvalsh
  adaptation.gd_adapt.self_us_p50,
  adaptation.validation_gradient.*     op_ms_p50.fo on quad and logistic-deep
  estimators.<kind>.{calls,self_us_p50}
                                       op_ms_p50.<kind> and op_ms_p50.sweep on logistic-deep
  linalg.*                             op_ms_p50.imaml
  metatrain.{sample_task_batch,meta_step,run_error_experiment}.*
                                       op_ms_p50.sweep on logistic-deep
  svgchart.line_chart.us_p50           op_ms_p50.sweep
  trace.overhead_ratio.<kind>          traced / untraced op_ms_p50.<kind>, same run
"""

import functools
import gzip
import statistics
import sys
import time
from array import array

import numpy as np

from metagrad import adaptation, estimators, linalg, metatrain, svgchart
from metagrad import cli as cli_module
from metagrad.objectives import LogisticTask, MlpObjective, QuadraticTask, TaskObjective

HVP_SPANS = ("objectives.hvp", "adaptation.trajectory_hvp")
ESTIMATOR_SPANS = {
    "estimators.full": "full",
    "estimators.trunc": "trunc",
    "estimators.binom": "binom",
    "estimators.imaml": "imaml",
}


class Tracer:
    """Spans in flat arrays (a name index, start, end and parent per span), so long runs stay small."""

    def __init__(self):
        self.names = []             # span names; a span stores its index here
        self.codes = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")   # index of the enclosing span, -1 for an op's root span
        self.notes = {}             # span index -> number read off the result (HVPs, CG iterations)
        self._stack = []

    def wrap(self, name, fn, note=None):
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        codes, starts, ends, parents, stack, notes = (
            self.codes, self.starts, self.ends, self.parents, self._stack, self.notes)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            codes.append(code)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                notes[idx] = note(result)
            return result

        return traced

    def clear(self):
        """Drop every finished span; the arrays are shared with the wrappers, so clear in place."""
        assert not self._stack, "clear() inside an open span"
        for spans in (self.codes, self.starts, self.ends, self.parents):
            del spans[:]
        self.notes.clear()

    def write_csv_gz(self, path):
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id,parent,name,start_ns,end_ns\n")
            for i, (code, start, end, parent) in enumerate(zip(self.codes, self.starts, self.ends, self.parents)):
                f.write(f"{i},{parent},{self.names[code]},{start},{end}\n")


def _rebind_everywhere(fn, wrapper):
    for name, module in list(sys.modules.items()):
        if name == "metagrad" or name.startswith("metagrad."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)


def install(tracer: Tracer):
    """Wrap every traced boundary of the package; call once per process."""
    functions = [
        ("adaptation.gd_adapt", adaptation.gd_adapt, None),
        ("adaptation.validation_gradient", adaptation.validation_gradient, None),
        ("estimators.full", estimators.full_meta_gradient, lambda mg: mg.cost.hvp_total),
        ("estimators.trunc", estimators.trunc_meta_gradient, lambda mg: mg.cost.hvp_total),
        ("estimators.binom", estimators.binom_meta_gradient, lambda mg: mg.cost.hvp_total),
        ("estimators.imaml", estimators.imaml_meta_gradient, lambda mg: mg.cost.hvp_total),
        ("linalg.conjugate_gradient", linalg.conjugate_gradient, lambda res: res.iterations),
        ("metatrain.sample_task_batch", metatrain.sample_task_batch, None),
        ("metatrain.meta_step", metatrain.meta_step, None),
        ("metatrain.run_error_experiment", metatrain.run_error_experiment, None),
        ("metatrain.csv_writers", metatrain.per_batch_csv, None),
        ("metatrain.csv_writers", metatrain.averaged_csv, None),
        ("metatrain.csv_writers", metatrain.train_csv, None),
        ("cli.main", cli_module.main, None),
        ("svgchart.line_chart", svgchart.line_chart, None),
    ]
    for name, fn, note in functions:
        _rebind_everywhere(fn, tracer.wrap(name, fn, note))

    methods = [("objectives.construct", "__init__"), ("objectives.value", "value"),
               ("objectives.gradient", "gradient"), ("objectives.hvp", "hvp")]
    for cls in (QuadraticTask, LogisticTask, MlpObjective):
        for name, attr in methods:
            if attr in vars(cls):
                setattr(cls, attr, tracer.wrap(name, vars(cls)[attr]))
    # MlpObjective inherits the central-difference HVP of the base class
    TaskObjective.hvp = tracer.wrap("objectives.hvp", TaskObjective.hvp)
    adaptation.Trajectory.hvp = tracer.wrap("adaptation.trajectory_hvp", adaptation.Trajectory.hvp)


def layer_metrics(tracer: Tracer, sweep_bytes) -> dict:
    """Per-layer metrics over every span recorded; see BENCHMARK.json for the list."""
    names, notes = tracer.names, tracer.notes
    code = np.frombuffer(tracer.codes, dtype=np.uint16)
    parent = np.frombuffer(tracer.parents, dtype=np.int64)
    dur = np.frombuffer(tracer.ends, dtype=np.int64) - np.frombuffer(tracer.starts, dtype=np.int64)
    nested = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[nested], dur[nested])

    def spans(name):
        return np.flatnonzero(code == names.index(name))  # ValueError: boundary never wrapped

    # code of the nearest enclosing estimator span (or the span's own), -1 outside estimators;
    # parents precede children, so pushing codes down one level per pass reaches a fixed point
    est = np.full(len(code), -1)
    for span in ESTIMATOR_SPANS:
        est[spans(span)] = names.index(span)
    while True:
        inherit = nested & (est < 0)
        pushed = est[parent[inherit]]
        if not (pushed >= 0).any():
            break
        est[inherit] = pushed
    is_hvp = np.isin(code, [names.index(span) for span in HVP_SPANS])
    in_hvp = np.zeros_like(is_hvp)
    in_hvp[nested] = is_hvp[parent[nested]]
    counted = is_hvp & ~in_hvp   # the outermost HVP boundary

    op_time = dur[~nested].sum()
    rotations = len(spans("op.sweep"))

    def us_p50(name):
        return float(np.median(dur[spans(name)])) / 1e3

    def self_us_p50(name):
        idx = spans(name)
        return float(np.median(dur[idx] - child[idx])) / 1e3

    m = {}
    for name in ("objectives.hvp", "objectives.gradient", "objectives.construct", "objectives.value"):
        m[f"{name}.calls"] = len(spans(name)) / rotations
        m[f"{name}.us_p50"] = us_p50(name)
    for name in ("objectives.hvp", "objectives.gradient"):
        m[f"{name}.busy_share"] = float(dur[spans(name)].sum() / op_time)
    for name in ("adaptation.gd_adapt", "adaptation.validation_gradient"):
        m[f"{name}.self_us_p50"] = self_us_p50(name)

    counted_total = reported_total = 0
    for span, kind in ESTIMATOR_SPANS.items():
        calls = spans(span)
        hvps = int(np.count_nonzero(counted & (est == names.index(span))))
        reported = sum(notes[i] for i in calls.tolist())
        m[f"estimators.{kind}.calls"] = len(calls) / rotations
        m[f"estimators.{kind}.self_us_p50"] = self_us_p50(span)
        m[f"estimators.hvp_per_estimate.{kind}"] = hvps / len(calls)
        m[f"estimators.hvp_count_ratio.{kind}"] = hvps / reported
        counted_total += hvps
        reported_total += reported
    m["estimators.hvp_count_ratio"] = counted_total / reported_total

    m["linalg.conjugate_gradient.self_us_p50"] = self_us_p50("linalg.conjugate_gradient")
    m["linalg.cg_iters_p50"] = statistics.median(notes[i] for i in spans("linalg.conjugate_gradient").tolist())
    m["metatrain.sample_task_batch.self_us_p50"] = self_us_p50("metatrain.sample_task_batch")
    m["metatrain.meta_step.self_us_p50"] = self_us_p50("metatrain.meta_step")
    m["metatrain.run_error_experiment.self_ms_p50"] = self_us_p50("metatrain.run_error_experiment") / 1e3
    m["metatrain.csv_writers.us_p50"] = us_p50("metatrain.csv_writers")
    m["cli.main.self_ms_p50"] = self_us_p50("cli.main") / 1e3
    m["cli.bytes_written"] = statistics.median(sweep_bytes)
    m["svgchart.line_chart.us_p50"] = us_p50("svgchart.line_chart")
    return m
