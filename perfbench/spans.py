"""Span tracing of the rlm_coreset layers, from outside the package.

Each layer's public functions are wrapped where their caller looks them up
(``cli`` imports ``RlmInstance`` and ``approximation_error`` by name, so
those two are patched on ``cli``; everything else is reached through a
module attribute).  A span records its name, start, end and parent span;
spans stay in memory and are written out when the run ends.  Patching is
undone when the traced pass ends, so untimed and timed passes run the
package exactly as shipped.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter

from rlm_coreset import adversary, cli, data_io, sampling, solver


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced


def _count_rows(counts, args, kwargs, result):
    counts["data_io.rows"] += len(result[1])


def _count_json_bytes(counts, args, kwargs, result):
    counts["data_io.json_bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


def _count_iters(counts, args, kwargs, result):
    counts["solver.iters"] += len(result[1].objectives)


def _count_eval(counts, args, kwargs, result):
    inst, cs = args[0], args[1]
    counts["solver.eval_rows"] += cs.size
    counts["solver.full_evals"] += cs.size == inst.n


def _count_circle_points(counts, args, kwargs, result):
    counts["adversary.points"] += args[0].n


def _count_stream_points(counts, args, kwargs, result):
    counts["sampling.stream_points"] += result[4]


# (module, attribute, span name, counter); the span name's prefix is the layer
TARGETS = [
    (cli, "main", "cli.main", None),
    (cli, "cmd_sample", "cli.sample", None),
    (cli, "cmd_verify", "cli.verify", None),
    (cli, "cmd_train", "cli.train", None),
    (cli, "cmd_sweep", "cli.sweep", None),
    (cli, "cmd_adversary", "cli.adversary", None),
    (data_io, "gen_synthetic", "data_io.gen_synthetic", None),
    (data_io, "load_csv", "data_io.load_csv", _count_rows),
    (data_io, "load_svmlight", "data_io.load_svmlight", _count_rows),
    (data_io, "write_coreset", "data_io.write", _count_json_bytes),
    (data_io, "write_report", "data_io.write", _count_json_bytes),
    (data_io, "read_coreset", "data_io.read", None),
    (cli, "RlmInstance", "model.instance", None),
    (cli, "approximation_error", "model.H", None),
    (sampling, "uniform_sample", "sampling.uniform", None),
    (sampling, "stream_sample", "sampling.stream", _count_stream_points),
    (solver, "train", "solver.train", _count_iters),
    (solver, "weighted_objective_grad", "solver.eval", _count_eval),
    (adversary, "gen_two_cluster", "adversary.gen_two_cluster", None),
    (adversary, "two_cluster_H", "adversary.two_cluster_H", None),
    (adversary, "gen_circle", "adversary.gen_circle", None),
    (adversary, "find_chunk", "adversary.find_chunk", None),
    (adversary, "chunk_hypothesis", "adversary.chunk_hypothesis", None),
    (adversary, "circle_H", "adversary.circle_H", _count_circle_points),
    (adversary, "lemma_ratios", "adversary.lemma_ratios", _count_circle_points),
]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Patch every target with a span wrapper for the duration of the block."""
    saved = []
    try:
        for module, attr, name, count in TARGETS:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn, count))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def self_times(spans):
    """Self time per span name: each span's duration minus its direct children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = Counter()
    for (name, start, end, _), covered in zip(spans, child):
        out[name] += end - start - covered
    return out


def _ratio(num, den):
    return num / den if den > 0 else 0.0


# per-layer metric name -> unit; the order is the order of the printed result
PER_LAYER_UNITS = {
    "cli.sample_s": "s", "cli.verify_s": "s", "cli.train_s": "s",
    "cli.sweep_s": "s", "cli.adversary_s": "s", "cli.self_s": "s",
    "data_io.gen_synthetic_s": "s", "data_io.load_csv_s": "s",
    "data_io.load_svmlight_s": "s", "data_io.rows_per_s": "rows/s",
    "data_io.write_s": "s", "data_io.read_s": "s", "data_io.json_mb": "MB",
    "model.instance_s": "s", "model.H_calls": "count", "model.H_s": "s",
    "model.H_ms": "ms",
    "sampling.uniform_s": "s", "sampling.stream_s": "s",
    "sampling.stream_points_per_s": "points/s",
    "solver.train_s": "s", "solver.iters": "count", "solver.evals": "count",
    "solver.evals_per_iter": "evals/iter", "solver.full_evals": "count",
    "solver.eval_s": "s", "solver.eval_rows_per_s": "rows/s", "solver.self_s": "s",
    "adversary.find_chunk_s": "s", "adversary.circle_H_s": "s",
    "adversary.lemma_ratios_s": "s", "adversary.points_per_s": "points/s",
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass, keyed as in PER_LAYER_UNITS."""
    dur, calls = Counter(), Counter()
    for name, start, end, _ in tracer.spans:
        dur[name] += end - start
        calls[name] += 1
    own = self_times(tracer.spans)
    c = tracer.counts
    loads = dur["data_io.load_csv"] + dur["data_io.load_svmlight"]
    circle = dur["adversary.circle_H"] + dur["adversary.lemma_ratios"]
    m = {f"cli.{cmd}_s": dur[f"cli.{cmd}"]
         for cmd in ("sample", "verify", "train", "sweep", "adversary")}
    m.update({
        "cli.self_s": sum(t for name, t in own.items() if name.startswith("cli.")),
        "data_io.gen_synthetic_s": dur["data_io.gen_synthetic"],
        "data_io.load_csv_s": dur["data_io.load_csv"],
        "data_io.load_svmlight_s": dur["data_io.load_svmlight"],
        "data_io.rows_per_s": _ratio(c["data_io.rows"], loads),
        "data_io.write_s": dur["data_io.write"],
        "data_io.read_s": dur["data_io.read"],
        "data_io.json_mb": c["data_io.json_bytes"] / 1e6,
        "model.instance_s": dur["model.instance"],
        "model.H_calls": calls["model.H"],
        "model.H_s": dur["model.H"],
        "model.H_ms": 1e3 * _ratio(dur["model.H"], calls["model.H"]),
        "sampling.uniform_s": dur["sampling.uniform"],
        "sampling.stream_s": dur["sampling.stream"],
        "sampling.stream_points_per_s": _ratio(c["sampling.stream_points"],
                                               dur["sampling.stream"]),
        "solver.train_s": dur["solver.train"],
        "solver.iters": c["solver.iters"],
        "solver.evals": calls["solver.eval"],
        "solver.evals_per_iter": _ratio(calls["solver.eval"], c["solver.iters"]),
        "solver.full_evals": c["solver.full_evals"],
        "solver.eval_s": dur["solver.eval"],
        "solver.eval_rows_per_s": _ratio(c["solver.eval_rows"], dur["solver.eval"]),
        "solver.self_s": own["solver.train"],
        "adversary.find_chunk_s": dur["adversary.find_chunk"],
        "adversary.circle_H_s": dur["adversary.circle_H"],
        "adversary.lemma_ratios_s": dur["adversary.lemma_ratios"],
        "adversary.points_per_s": _ratio(c["adversary.points"], circle),
    })
    return m
