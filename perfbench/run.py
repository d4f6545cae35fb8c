"""Benchmark of rlm_coreset: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload {train,verify,ingest} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout: the package is imported from
that checkout's ``src/``.  A run sets up its inputs several times, each
set-up ending with a warm-up pass of the whole job list.  With ``--trace 0``
it then times whole passes for ``--seconds`` and measures peak allocation
in one more pass under tracemalloc; with ``--trace 1`` it runs whole passes
with every layer wrapped in spans instead.  Every output of every pass is
checked.  The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Run records (per-pass timings, spans, problems) go to ``perfbench/runs/``.
"""

import os

# One BLAS thread, set before numpy is first imported: two threads on two
# cores doubled CPU use for no gain in wall time (perfbench/README.md).
BLAS_THREADS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=["train", "verify", "ingest"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None, sizes=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rlm_coreset" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # imported only once the source is known to be there
    import numpy as np
    import rlm_coreset
    import harness
    import workloads

    if Path(rlm_coreset.__file__).resolve().parent != SRC / "rlm_coreset":
        print(f"error: imported rlm_coreset from {rlm_coreset.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    work = BENCH / "work" / args.workload
    workload = workloads.WORKLOADS[args.workload](work, args.seed, sizes or workloads.FULL)
    tally = harness.Tally()
    record = {"args": vars(args), "blas_threads": BLAS_THREADS,
              "numpy": np.__version__, "cpus": os.cpu_count()}
    try:
        metrics = harness.measure(workload, args.seconds, bool(args.trace), tally, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in tally.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record.update(result, problems=tally.problems)
    runs = BENCH / "runs"
    runs.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (runs / f"{tag}.json").write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
