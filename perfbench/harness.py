"""Passes over a workload's job list: set-up, timed, traced and memory passes."""

from __future__ import annotations

import gc
import statistics
import sys
import time
import tracemalloc
import traceback

from spans import PER_LAYER_UNITS, Tracer, layer_metrics, traced

TIMED_PER_SETUP = 2  # untraced runs set up again after every second timed pass

END_TO_END_UNITS = {"setup_s": "s", "main_s": "s", "jobs_s": "s", "peak_mb": "MB"}


def slow_mode(times):
    """The run statistic of the timed passes and of the set-ups: their 90th
    percentile.  The host alternates between its usual speed and faster
    phases of seconds to a minute; a run's median flips to the fast mode
    whenever one covers half the run, the 90th percentile only when one
    covers nearly all of it (worst ten-run A/A spread 13 % against 21 % for
    the upper quartile and 23 % for the median)."""
    return statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else times[0]


class Tally:
    """Operations attempted and failed, and the problems found, over a run."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems = []
        self.correct = True

    def add(self, jobs, rec) -> None:
        for job in jobs:
            self.attempted += 1
            if job.name in rec["errors"]:
                self.failed += 1
                self.problems.append(f"{job.name}: {rec['errors'][job.name]}")
                continue
            try:
                problems = job.check(rec["outputs"][job.name])
            except Exception as exc:  # a malformed output fails its check
                problems = [f"check raised {exc!r}"]
            if problems:
                self.failed += 1
                self.correct = False
                self.problems.extend(f"{job.name}: {p}" for p in problems)


def run_pass(jobs) -> dict:
    """Run the job list once; outputs are kept for checking after the pass."""
    rec = {"times": {}, "outputs": {}, "errors": {}}
    gc.collect()
    start = time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        try:
            rec["outputs"][job.name] = job.run()
        except (Exception, SystemExit) as exc:
            rec["errors"][job.name] = repr(exc)
            print(traceback.format_exc(), file=sys.stderr)
        rec["times"][job.name] = time.perf_counter() - t0
    rec["jobs_s"] = time.perf_counter() - start
    return rec


def set_up(workload, jobs, tally: Tally) -> float:
    """Generate and write the inputs, then run one pass; returns its time."""
    gc.collect()
    t0 = time.perf_counter()
    workload.write_inputs()
    rec = run_pass(jobs)
    elapsed = time.perf_counter() - t0
    tally.add(jobs, rec)
    return elapsed


def measure(workload, seconds: float, trace: bool, tally: Tally, record: dict) -> dict:
    """Set up, then time (trace off) or trace (trace on) whole passes.

    With tracing off the set-up is repeated between the timed passes, so
    that its samples span the run as the timed passes do: one set-up at
    the start covers only its first seconds, and a fast phase of the host
    there moved the median of three set-ups by up to 23 % between sets."""
    workload.prepare()
    jobs = workload.jobs()
    setup = [set_up(workload, jobs, tally)]  # the first set-up is the warm-up

    passes, spent = [], 0.0
    while not passes or spent < seconds:
        if trace:
            tracer = Tracer()
            with traced(tracer):
                rec = run_pass(jobs)
            rec["layers"] = layer_metrics(tracer)
            record.setdefault("spans", []).append(tracer.spans)
        else:
            rec = run_pass(jobs)
        tally.add(jobs, rec)
        spent += rec["jobs_s"]
        passes.append({k: rec[k] for k in ("times", "jobs_s", "layers") if k in rec})
        if not trace and len(passes) % TIMED_PER_SETUP == 0:
            setup.append(set_up(workload, jobs, tally))
    record["setup_s"] = setup
    record["passes"] = passes

    if trace:
        return {name: (statistics.median(p["layers"][name] for p in passes), unit)
                for name, unit in PER_LAYER_UNITS.items()}

    tracemalloc.start()
    try:
        rec = run_pass(jobs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tally.add(jobs, rec)
    values = {
        "setup_s": slow_mode(setup),
        "main_s": slow_mode([p["times"][workload.headline] for p in passes]),
        "jobs_s": slow_mode([p["jobs_s"] for p in passes]),
        "peak_mb": peak / 1e6,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
