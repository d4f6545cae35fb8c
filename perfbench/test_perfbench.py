"""Self-tests of the benchmark: every workload end to end at a tiny size, and
each independent check shown to reject a perturbed output.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import io
import json
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402  (sets the BLAS thread variables first)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from rlm_coreset import cli, sampling  # noqa: E402
from workloads import TINY, read_json  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(monkeypatch, tmp_path, argv):
    monkeypatch.setattr(run, "BENCH", tmp_path)
    out = io.StringIO()
    with redirect_stdout(out):
        rc = run.main(argv, sizes=TINY)
    return rc, out.getvalue()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_end_to_end(monkeypatch, tmp_path, workload, trace):
    rc, out = run_bench(monkeypatch, tmp_path, ["--workload", workload, "--seed", "3",
                                                "--seconds", "0.01", "--trace", str(trace)])
    result = json.loads(out.strip().splitlines()[-1])
    assert rc == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert not (tmp_path / "work" / workload).exists()
    assert (tmp_path / "runs" / f"{workload}-seed3-trace{trace}.json").is_file()
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_layers_tell_workloads_apart(monkeypatch, tmp_path):
    layers = {}
    for workload in ("train", "verify", "ingest"):
        _, out = run_bench(monkeypatch, tmp_path, ["--workload", workload, "--seed", "4",
                                                   "--seconds", "0.01", "--trace", "1"])
        layers[workload] = {k: v["value"]
                            for k, v in json.loads(out.splitlines()[-1])["metrics"].items()}
    assert layers["verify"]["solver.evals"] == layers["ingest"]["solver.evals"] == 0
    assert layers["train"]["solver.evals"] > 0
    for w in ("train", "verify"):
        assert layers[w]["data_io.load_csv_s"] == layers[w]["data_io.load_svmlight_s"] == 0
    assert layers["verify"]["model.H_calls"] > layers["train"]["model.H_calls"]
    adversary = [k for k in spans.PER_LAYER_UNITS if k.startswith("adversary.")]
    assert all(layers[w][k] == 0 for w in ("train", "ingest") for k in adversary)
    assert all(layers["verify"][k] > 0 for k in adversary)


def test_missing_source_exits_nonzero_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    rc = run.main(["--workload", "train", "--seed", "0", "--seconds", "1"])
    assert rc != 0 and capsys.readouterr().out == ""


def test_tracing_restores_the_package():
    before = (cli.main, cli.RlmInstance, sampling.stream_sample)
    with spans.traced(spans.Tracer()):
        assert cli.main is not before[0]
    assert (cli.main, cli.RlmInstance, sampling.stream_sample) == before


def test_self_time_subtracts_direct_children():
    tr = spans.Tracer()
    tr.spans = [["cli.main", 0.0, 10.0, -1], ["cli.train", 1.0, 9.0, 0],
                ["solver.train", 2.0, 8.0, 1], ["solver.eval", 3.0, 4.0, 2],
                ["solver.eval", 5.0, 7.0, 2]]
    own = spans.self_times(tr.spans)
    assert own["cli.main"] == 2.0 and own["cli.train"] == 2.0
    assert own["solver.train"] == 3.0 and own["solver.eval"] == 3.0
    m = spans.layer_metrics(tr)
    assert m["cli.self_s"] == 4.0 and m["solver.self_s"] == 3.0 and m["solver.evals"] == 2


# ---------------------------------------------------------------------------
# each check rejects a perturbed output
# ---------------------------------------------------------------------------


def outputs_of(workload):
    wl_jobs = {job.name: job for job in workload.jobs()}
    outs = {name: job.run() for name, job in wl_jobs.items()}
    assert {name: wl_jobs[name].check(out) for name, out in outs.items()} == {
        name: [] for name in outs}
    return wl_jobs, outs


@pytest.fixture(scope="module")
def tiny_train(tmp_path_factory):
    wl = workloads.Train(tmp_path_factory.mktemp("train"), 7, TINY)
    wl.prepare()
    return wl, *outputs_of(wl)


@pytest.fixture(scope="module")
def tiny_verify(tmp_path_factory):
    wl = workloads.Verify(tmp_path_factory.mktemp("verify"), 7, TINY)
    wl.prepare()
    return wl, *outputs_of(wl)


@pytest.fixture(scope="module")
def tiny_ingest(tmp_path_factory):
    wl = workloads.Ingest(tmp_path_factory.mktemp("ingest"), 7, TINY)
    wl.prepare()
    return wl, *outputs_of(wl)


def rewrite(path, edit):
    doc = read_json(path)
    edit(doc)
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def test_changed_weight_is_rejected(tiny_verify):
    wl, jobs, outs = tiny_verify
    path = wl.path("coreset.json")
    saved = Path(path).read_text(encoding="utf-8")
    try:
        rewrite(path, lambda doc: doc["weights"].__setitem__(0, doc["weights"][0] * 1.001))
        assert any("sum" in p for p in jobs["sample"].check(outs["sample"]))
        rewrite(path, lambda doc: doc["indices"].__setitem__(0, doc["n"]))
        assert jobs["sample"].check(outs["sample"])
    finally:
        Path(path).write_text(saved, encoding="utf-8")


def test_H_off_by_1e6_relative_is_rejected(tiny_verify, tiny_ingest):
    for wl, name, cs in ((tiny_verify[0], "verify", "coreset.json"),
                         (tiny_ingest[0], "verify_large", "large.json")):
        report = read_json(wl.path("verify.json"))
        h, weight_sum = wl.h_ref(read_json(wl.path(cs)))
        assert checks.check_verify_report(report, h, report["n"], weight_sum) == []
        for key in ("max_H", "mean_H"):
            bad = dict(report, **{key: report[key] * (1 + 1e-6)})
            assert checks.check_verify_report(bad, h, report["n"], weight_sum)


def test_adversary_H_off_by_1e6_relative_is_rejected(tiny_verify):
    wl = tiny_verify[0]
    circle = read_json(wl.path("circle.json"))
    for key in ("H", "r1", "r2"):
        assert checks.check_circle(dict(circle, **{key: circle[key] * (1 + 1e-6)}), wl.circle)
    two = read_json(wl.path("two_cluster.json"))
    assert checks.check_two_cluster(dict(two, H=two["H"] * (1 + 1e-6)), wl.two_cluster)


def test_wrong_F_star_is_rejected(tiny_train):
    wl, jobs, outs = tiny_train
    gd = checks.parse_fields(outs["gd"])
    assert checks.check_gd(gd, wl.f_star, wl.norm_star, wl.mu, wl.f_budget) == []
    assert checks.check_gd(gd, wl.f_star * (1 + 1e-8), wl.norm_star, wl.mu, wl.f_budget)
    assert checks.check_gd(gd, wl.f_star, wl.norm_star * (1 + 1e-4), wl.mu, wl.f_budget)
    above = dict(gd, final_objective=repr(float(gd["final_objective"]) * (1 + 1e-8)))
    assert checks.check_gd(above, wl.f_star, wl.norm_star, wl.mu, wl.f_budget)
    for name in ("sgd", "coreset_gd"):
        fields = checks.parse_fields(outs[name])
        assert checks.check_near_optimum(fields, wl.f_star * 1.02, name)
        assert checks.check_near_optimum(fields, wl.f_star / 1.02, name)
    hinge = checks.parse_fields(outs["hinge_l1"])
    assert checks.check_hinge_below_zero_start(hinge, float(hinge["final_objective"]))


def test_newton_reaches_the_minimum():
    rng = np.random.default_rng(0)
    X, y = rng.standard_normal((300, 4)), rng.choice([-1.0, 1.0], 300)
    lam, R = 300 ** 0.5, checks.max_row_norm(X)
    f_star, norm_star = checks.newton_logistic_l2sq(X, y, lam, R)
    assert norm_star > 0
    for _ in range(20):
        beta = rng.standard_normal(4) * 1e-3
        assert checks.logistic_l2sq_objective(X, y, lam, R, beta) >= f_star
    assert checks.logistic_l2sq_objective(X, y, lam, R, np.zeros(4)) > f_star


def test_sample_disagreement_and_bad_reservoir_are_rejected(tiny_ingest):
    wl, jobs, outs = tiny_ingest
    csv_doc = read_json(wl.path("sample_csv.json"))
    svm_doc = read_json(wl.path("sample_svm.json"))
    assert checks.check_samples_agree(csv_doc, svm_doc) == []
    svm_doc["indices"][0] = (svm_doc["indices"][0] + 1) % svm_doc["n"]
    assert checks.check_samples_agree(csv_doc, svm_doc)

    points, labels, weights, R, n = outs["stream"]
    q = len(points)
    assert checks.check_reservoir((points, labels, weights * 1.001, R, n), wl.X, wl.y, q)
    dup = np.vstack([points[:1], points[:-1]])
    assert checks.check_reservoir((dup, labels, weights, R, n), wl.X, wl.y, q)
    assert checks.check_reservoir((points + 1e-9, labels, weights, R, n), wl.X, wl.y, q)
    assert checks.check_reservoir((points, labels, weights, R, n + 1), wl.X, wl.y, q)


def test_circle_chunk_matches_a_scan_of_every_window():
    n = 4000
    ref = checks.circle_reference(n, 0.5, 0.4)
    k, window = ref["k"], n // (2 * ref["k"])
    occupied = np.zeros(n, dtype=bool)
    occupied[(np.arange(k) * (n // k)) % n] = True
    free = [s for s in range(n) if not occupied[(s + np.arange(window)) % n].any()]
    assert ref["chunk"]["window_start"] == free[0]


def test_two_cluster_closed_form_matches_an_explicit_sum():
    n, kappa, gamma = 5000, 0.5, 0.4
    ref = checks.two_cluster_reference(n, kappa, gamma)
    x = np.r_[np.ones(ref["count_a"]), -np.ones(ref["count_b"])]
    reg = ref["lambda"] * ref["beta0"] ** 2
    full = math.fsum(checks.softplus(-x * ref["beta0"])) + reg
    u = n / ref["c"]
    core = ref["c"] * u * float(checks.softplus(-ref["beta0"])) + ref["c"] * u / n * reg
    assert checks.close(ref["H"], abs(full - core) / full, 1e-12)
