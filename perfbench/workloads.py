"""The benchmark's three workloads: inputs, job lists and output checks.

Every workload is a closed loop of jobs run one at a time in this process.
A job is one CLI invocation through ``rlm_coreset.cli.main(argv)`` (or one
library call, for the reservoir, which no subcommand reaches) and its check
against the independent computations in ``checks``.  The first set of
sizes below is the benchmark's; the second runs the same jobs in seconds
for the self-tests.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from rlm_coreset import cli, data_io, sampling

KAPPA = 0.5  # the CLI's default kappa; every job uses the default lambda_scale 1
NOISE = 0.1  # label noise of the synthetic data, written into every spec
# The sweep's inputs do not follow --seed.  Whether coreset GD meets the
# default gradient tolerance flips with the data and the draw (about 10
# iterations or all 500), which made the sweep's time bimodal across seeds;
# with data seed 0 and sampling seed 0 both trainings run all 500, so that
# waste is measured in every run.
SWEEP_SEED = 0


@dataclass(frozen=True)
class Sizes:
    d: int = 10
    train_n: int = 100_000
    gd_iters: int = 20
    sgd_epochs: int = 1
    sweep_n: int = 1_000
    sweep_sizes: tuple = (50, 200)
    verify_n: int = 100_000
    probes: int = 200
    circle_n: int = 10_000_000
    two_cluster_n: int = 1_000_000
    ingest_n: int = 20_000
    ingest_probes: int = 5


FULL = Sizes()
TINY = Sizes(train_n=3_000, sgd_epochs=3, sweep_n=300, sweep_sizes=(20, 50),
             verify_n=3_000, probes=8, circle_n=100_000, two_cluster_n=100_000,
             ingest_n=900, ingest_probes=2)


class JobError(Exception):
    """A job exited nonzero."""


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


def run_cli(argv) -> str:
    """One CLI invocation; returns its stdout, raises JobError on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise JobError(f"exit {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def cli_job(name, argv, check):
    return Job(name, lambda: run_cli(argv), check)


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def sample_check(path, n, q, R, also=lambda doc: []):
    """Check of a `sample` job: the coreset document it wrote and its stdout."""
    def check(out):
        doc = read_json(path)
        return (checks.check_coreset_doc(doc, n, q, KAPPA, R)
                + checks.check_sample_stdout(checks.parse_fields(out), doc)
                + also(doc))
    return check


def coreset_size(n) -> int:
    return int(round(20 * math.sqrt(n)))  # the paper's O(sqrt(n)) regime, as in `bench`


def write_probes(path, rng, k, d, max_norm):
    """k probe hypotheses: random directions, norms spread geometrically."""
    dirs = rng.standard_normal((k, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    betas = np.geomspace(1e-2, max_norm, k)[:, None] * dirs
    Path(path).write_text(json.dumps({"betas": betas.tolist()}), encoding="utf-8")
    return betas


class Workload:
    """Inputs and jobs of one workload; ``headline`` names the job behind main_s."""

    headline: str

    def __init__(self, work: Path, seed: int, sizes: Sizes = FULL):
        self.work, self.seed, self.sizes = Path(work), seed, sizes
        self.work.mkdir(parents=True, exist_ok=True)

    def path(self, name) -> str:
        return str(self.work / name)

    def write_inputs(self) -> None:
        """Generate and write the inputs (timed, as part of set-up)."""

    def prepare(self) -> None:
        """Reference values for the checks (untimed)."""

    def jobs(self) -> list:
        raise NotImplementedError


def synthetic_args(n, d, seed):
    return ["--format", "synthetic", "--input", f"n={n},d={d},noise={NOISE},seed={seed}"]


class SyntheticData:
    """``--format synthetic`` data: the CLI generates it in memory from the
    spec; the checks regenerate the same rows as their input."""

    def __init__(self, n, d, seed):
        self.n = n
        self.args = synthetic_args(n, d, seed)
        self.X, self.y, _ = data_io.gen_synthetic(n=n, d=d, noise=NOISE, seed=seed)
        self.lam = float(n) ** KAPPA
        self.R = checks.max_row_norm(self.X)


class Train(Workload):
    """The solver does nearly all the work; no file is parsed."""

    headline = "gd"

    def prepare(self):
        s = self.sizes
        self.data = SyntheticData(s.train_n, s.d, self.seed)
        self.sweep_args = synthetic_args(s.sweep_n, s.d, SWEEP_SEED)
        d = self.data
        self.f_star, self.norm_star = checks.newton_logistic_l2sq(d.X, d.y, d.lam, d.R)
        self.mu = 2.0 * d.lam * d.R * d.R  # strong convexity of F, from the regularizer
        self.f_budget = checks.armijo_gd_logistic_l2sq(d.X, d.y, d.lam, d.R, s.gd_iters)

    def jobs(self):
        s, d, seed = self.sizes, self.data, str(self.seed)
        iters = ["--max-iters", str(s.gd_iters)]
        q = coreset_size(d.n)
        parse = checks.parse_fields
        cs_path = self.path("coreset.json")

        def check_sweep(out):
            with open(self.path("sweep.csv"), newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            return checks.check_sweep_rows(rows, s.sweep_sizes, 1)

        return [
            cli_job("gd", ["train", *d.args, *iters, "--seed", seed],
                    lambda out: checks.check_gd(parse(out), self.f_star, self.norm_star,
                                                    self.mu, self.f_budget)),
            cli_job("hinge_l1", ["train", *d.args, "--loss", "hinge", "--reg", "l1",
                                 *iters, "--seed", seed],
                    lambda out: checks.check_hinge_below_zero_start(parse(out), d.n)),
            cli_job("sgd", ["train", *d.args, "--method", "sgd",
                            "--epochs", str(s.sgd_epochs), "--seed", seed],
                    lambda out: checks.check_near_optimum(parse(out), self.f_star, "SGD")),
            cli_job("sample", ["sample", *d.args, "--size", str(q), "--seed", seed,
                               "--output", cs_path], sample_check(cs_path, d.n, q, d.R)),
            cli_job("coreset_gd", ["train", *d.args, "--coreset", cs_path,
                                   *iters, "--seed", seed],
                    lambda out: checks.check_near_optimum(parse(out), self.f_star,
                                                          "coreset GD")),
            cli_job("sweep", ["sweep", *self.sweep_args,
                              "--sizes", ",".join(map(str, s.sweep_sizes)),
                              "--trials", "1", "--seed", str(SWEEP_SEED),
                              "--report", self.path("sweep.csv")], check_sweep),
        ]


class HReference:
    """H over a probe file for a coreset read back from disk, recomputed in
    blocks; memoised on the coreset, which every pass redraws identically."""

    def __init__(self, X, y, lam, R, betas):
        self.X, self.y, self.lam, self.R, self.betas = X, y, lam, R, betas
        self._memo = {}

    def __call__(self, doc):
        idx = np.asarray(doc["indices"], dtype=np.int64)
        w = np.asarray(doc["weights"], dtype=float)
        key = idx.tobytes() + w.tobytes()
        if key not in self._memo:
            self._memo[key] = checks.h_values(self.X, self.y, self.lam, self.R,
                                              idx, w, self.betas)
        return self._memo[key], math.fsum(w)


def check_verify(out, report_path, coreset_path, n, h_ref):
    report = read_json(report_path)
    h, weight_sum = h_ref(read_json(coreset_path))
    fields = checks.parse_fields(out)
    problems = checks.check_verify_report(report, h, n, weight_sum)
    if float(fields["max_H"]) != report["max_H"]:
        problems.append(f"printed max_H={fields['max_H']} but reported {report['max_H']!r}")
    return problems


class Verify(Workload):
    """model's H over many probes and adversary's streamed circle sums; nothing
    is trained."""

    headline = "verify"
    GAMMA = 0.4  # the CLI's default gamma for both lower-bound instances

    def write_inputs(self):
        rng = np.random.default_rng(self.seed)
        self.betas = write_probes(self.path("probes.json"), rng, self.sizes.probes,
                                  self.sizes.d, max_norm=10.0)

    def prepare(self):
        s = self.sizes
        self.data = d = SyntheticData(s.verify_n, s.d, self.seed)
        self.write_inputs()
        self.h_ref = HReference(d.X, d.y, d.lam, d.R, self.betas)
        self.circle = checks.circle_reference(s.circle_n, KAPPA, self.GAMMA)
        self.two_cluster = checks.two_cluster_reference(s.two_cluster_n, KAPPA, self.GAMMA)

    def jobs(self):
        s, d, seed = self.sizes, self.data, str(self.seed)
        q = coreset_size(d.n)
        cs_path, report = self.path("coreset.json"), self.path("verify.json")

        def check_adversary(path, check, ref):
            def run_check(out):
                doc = read_json(path)
                problems = check(doc, ref)
                if float(checks.parse_fields(out)["H"]) != doc["H"]:
                    problems.append(f"printed {out.strip()} but reported H={doc['H']!r}")
                return problems
            return run_check

        circle, two = self.path("circle.json"), self.path("two_cluster.json")
        return [
            cli_job("sample", ["sample", *d.args, "--size", str(q), "--seed", seed,
                               "--output", cs_path], sample_check(cs_path, d.n, q, d.R)),
            cli_job("verify", ["verify", *d.args, "--coreset", cs_path,
                               "--betas", "file:" + self.path("probes.json"),
                               "--seed", seed, "--report", report],
                    lambda out: check_verify(out, report, cs_path, d.n, self.h_ref)),
            cli_job("circle", ["adversary", "--kind", "circle", "--n", str(s.circle_n),
                               "--report", circle],
                    check_adversary(circle, checks.check_circle, self.circle)),
            cli_job("two_cluster", ["adversary", "--kind", "two-cluster",
                                    "--n", str(s.two_cluster_n), "--report", two],
                    check_adversary(two, checks.check_two_cluster, self.two_cluster)),
        ]


def ingest_rows(n, d, seed):
    """Rows of the ingest files: standard-normal features, {0,1} labels from a
    random hyperplane with 10% of them flipped."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y01 = (X @ rng.standard_normal(d) >= 0) ^ (rng.random(n) < NOISE)
    return X, y01.astype(int)


class Ingest(Workload):
    """data_io parses CSV and svmlight, writes and reads back coreset JSON;
    the reservoir streams the same rows.  The solver never runs."""

    headline = "sample_csv"

    def write_inputs(self):
        s = self.sizes
        X, y01 = ingest_rows(s.ingest_n, s.d, self.seed)
        rows = X.tolist()
        labels = y01.tolist()
        with open(self.path("data.csv"), "w", encoding="utf-8") as fh:
            fh.write(",".join([f"x{j}" for j in range(s.d)] + ["label"]) + "\n")
            fh.writelines(",".join(map(repr, r)) + f",{lab}\n" for r, lab in zip(rows, labels))
        with open(self.path("data.svm"), "w", encoding="utf-8") as fh:
            fh.writelines(
                f"{lab} " + " ".join(f"{j}:{v!r}" for j, v in enumerate(r, start=1)) + "\n"
                for r, lab in zip(rows, labels)
            )
        rng = np.random.default_rng(self.seed + 1)
        self.betas = write_probes(self.path("probes.json"), rng, s.ingest_probes, s.d,
                                  max_norm=1.0)
        self.X, self.y = X, np.where(y01 == 1, 1.0, -1.0)

    def prepare(self):
        self.write_inputs()
        self.lam = float(len(self.y)) ** KAPPA
        self.R = checks.max_row_norm(self.X)
        self.h_ref = HReference(self.X, self.y, self.lam, self.R, self.betas)

    def jobs(self):
        s, seed = self.sizes, str(self.seed)
        n = s.ingest_n
        q, q_large = coreset_size(n), n // 2
        csv_in = ["--format", "csv", "--input", self.path("data.csv")]
        svm_in = ["--format", "svmlight", "--input", self.path("data.svm")]
        out_csv, out_svm = self.path("sample_csv.json"), self.path("sample_svm.json")
        large, report = self.path("large.json"), self.path("verify.json")

        def agree_with_csv(doc):
            return checks.check_samples_agree(read_json(out_csv), doc)

        return [
            cli_job("sample_csv", ["sample", *csv_in, "--size", str(q), "--seed", seed,
                                   "--output", out_csv], sample_check(out_csv, n, q, self.R)),
            cli_job("sample_svmlight", ["sample", *svm_in, "--size", str(q), "--seed", seed,
                                        "--output", out_svm],
                    sample_check(out_svm, n, q, self.R, agree_with_csv)),
            cli_job("sample_large", ["sample", *csv_in, "--size", str(q_large),
                                     "--seed", seed, "--output", large],
                    sample_check(large, n, q_large, self.R)),
            cli_job("verify_large", ["verify", *csv_in, "--coreset", large,
                                     "--betas", "file:" + self.path("probes.json"),
                                     "--seed", seed, "--report", report],
                    lambda out: check_verify(out, report, large, n, self.h_ref)),
            Job("stream", lambda: sampling.stream_sample(zip(self.X, self.y), q, self.seed),
                lambda result: checks.check_reservoir(result, self.X, self.y, q)),
        ]


WORKLOADS = {"train": Train, "verify": Verify, "ingest": Ingest}
