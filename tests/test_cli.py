import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rlm_coreset
from rlm_coreset import adversary, cli, data_io, model, sampling, solver

SYNTH = ["--format", "synthetic", "--input", "n=400,d=3,noise=0.1,seed=1"]


def run(argv):
    return cli.main(argv)


class TestSample:
    def test_fixed_size(self, tmp_path, capsys):
        out = tmp_path / "cs.json"
        code = run(["sample", *SYNTH, "--size", "40", "--seed", "3",
                    "--output", str(out)])
        assert code == 0
        doc = data_io.read_coreset(out)
        assert doc["q"] == 40
        assert len(doc["indices"]) == 40
        assert doc["rng"] == "numpy-pcg64"
        assert sum(doc["weights"]) == pytest.approx(400.0)
        assert "q=40" in capsys.readouterr().out

    def test_epsilon_delta_clamps(self, tmp_path, capsys):
        out = tmp_path / "cs.json"
        code = run(["sample", *SYNTH, "--epsilon", "0.5", "--delta", "0.1",
                    "--output", str(out)])
        assert code == 0
        doc = data_io.read_coreset(out)
        assert doc["q"] == 400  # formula exceeds n at this scale
        assert "full dataset" in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["100", "500"])
    def test_size_at_or_above_n_records_the_full_dataset(self, tmp_path, capsys, size):
        out = tmp_path / "cs.json"
        code = run(["sample", "--format", "synthetic", "--input", "n=100,d=2",
                    "--size", size, "--output", str(out)])
        assert code == 0
        doc = data_io.read_coreset(out)
        assert doc["q"] == len(doc["indices"]) == 100 and doc["weights"] == [1.0] * 100
        captured = capsys.readouterr()
        assert "q=100 " in captured.out
        assert "using the full dataset" in captured.err

    @pytest.mark.parametrize("spec, token", [
        ("n=400,d=3,noize=0.9", "noize=0.9"), ("n400", "n400"), ("n=400,=3", "=3"),
    ])
    def test_synthetic_spec_token_outside_its_keys_exits_2(self, capsys, spec, token):
        code = run(["train", "--format", "synthetic", "--input", spec])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.strip().splitlines()) == 1 and repr(token) in err

    def test_missing_input_file(self, tmp_path):
        code = run(["sample", "--input", str(tmp_path / "nope.csv"),
                    "--size", "5", "--output", str(tmp_path / "o.json")])
        assert code == 2


class TestVerify:
    def test_identity_coreset_zero_error(self, tmp_path, capsys):
        out = tmp_path / "cs.json"
        run(["sample", *SYNTH, "--size", "400", "--output", str(out)])
        report = tmp_path / "rep.json"
        code = run(["verify", *SYNTH, "--coreset", str(out),
                    "--betas", "random:50", "--report", str(report)])
        assert code == 0
        doc = data_io.read_coreset(report)
        assert doc["max_H"] <= 1e-10
        assert doc["weight_sum_ok"] is True

    def test_trained_probe_and_reproducibility(self, tmp_path):
        out = tmp_path / "cs.json"
        run(["sample", *SYNTH, "--size", "80", "--output", str(out)])
        rep1, rep2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for rep in (rep1, rep2):
            code = run(["verify", *SYNTH, "--coreset", str(out),
                        "--betas", "random:30", "--betas", "trained",
                        "--seed", "5", "--report", str(rep)])
            assert code == 0
        a, b = data_io.read_coreset(rep1), data_io.read_coreset(rep2)
        assert a["max_H"] == b["max_H"] and a["mean_H"] == b["mean_H"]

    def test_beta_file_probe(self, tmp_path):
        out = tmp_path / "cs.json"
        run(["sample", *SYNTH, "--size", "400", "--output", str(out)])
        betas = [[0.0, 0.0, 0.0], [1.0, -1.0, 0.5], [3.0, 2.0, -1.0], [0.1, 0.2, 0.3],
                 [-2.0, 0.5, 1.5]]
        bfile, report = tmp_path / "betas.json", tmp_path / "rep.json"
        bfile.write_text(json.dumps({"betas": betas}))
        argv = ["verify", *SYNTH, "--coreset", str(out), "--betas", f"file:{bfile}"]
        assert run([*argv, "--report", str(report)]) == 0
        doc = data_io.read_coreset(report)
        # the per-probe kernel's H, a path independent of the block evaluator
        args = cli.build_parser().parse_args(argv)
        inst = cli._load_instance(args)
        cs = cli._coreset_from_doc(data_io.read_coreset(out), inst)
        rows, want = model.objective_rows(inst, cs), []
        for b in np.asarray(betas):
            full = rlm_coreset.full_objective(inst, b)
            core = model.weighted_objective_grad(inst, rows, b, grad=False)[0]
            want.append(abs(full - core) / full)
        assert doc["num_probes"] == len(betas)
        assert doc["argmax_probe"] == int(np.argmax(want))
        quartiles = doc["H_quartiles"]
        assert len(quartiles) == 5 and all(type(v) is float for v in quartiles)
        np.testing.assert_allclose(quartiles, np.quantile(want, [0, 0.25, 0.5, 0.75, 1]),
                                   rtol=1e-8)
        assert quartiles == sorted(quartiles) and quartiles[-1] == doc["max_H"]

    def test_mismatched_dataset_is_domain_error(self, tmp_path):
        out = tmp_path / "cs.json"
        run(["sample", *SYNTH, "--size", "10", "--output", str(out)])
        code = run(["verify", "--format", "synthetic",
                    "--input", "n=500,d=3,seed=1",
                    "--coreset", str(out)])
        assert code == 3

    def test_nan_weight_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "cs.json"
        run(["sample", *SYNTH, "--size", "10", "--output", str(out)])
        doc = json.loads(out.read_text())
        doc["weights"][3] = float("nan")
        out.write_text(json.dumps(doc))
        code = run(["verify", *SYNTH, "--coreset", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert "max_H" not in captured.out
        assert len(captured.err.strip().splitlines()) == 1

    def test_unknown_spec_is_input_error(self, tmp_path):
        out = tmp_path / "cs.json"
        run(["sample", *SYNTH, "--size", "10", "--output", str(out)])
        code = run(["verify", *SYNTH, "--coreset", str(out),
                    "--betas", "bogus:1"])
        assert code == 2


class TestBetasFile:
    """A --betas file must hold {"betas": [[d numbers], ...]}."""

    @pytest.fixture
    def coreset(self, tmp_path):
        path = tmp_path / "cs.json"
        assert run(["sample", *SYNTH, "--size", "10", "--output", str(path)]) == 0
        return path

    @pytest.mark.parametrize("doc", [
        [[0.0, 0.0, 0.0]],                        # not an object
        {"other": 1},                             # no betas
        {"betas": "x"},
        {"betas": []},
        {"betas": [1.0, 2.0, 3.0]},               # one level too few
        {"betas": [[1.0, 2.0]]},                  # wrong length
        {"betas": [[1.0, 2.0, 3.0], [1.0, 2.0]]},  # ragged
        {"betas": [["a", "b", "c"]]},
        {"betas": [[1.0, None, 3.0]]},
        {"betas": [[[1.0], [2.0], [3.0]]]},
        {"betas": [[True, False, True]]},
    ])
    def test_malformed_document_exits_2(self, tmp_path, coreset, capsys, doc):
        bfile = tmp_path / "betas.json"
        bfile.write_text(json.dumps(doc))
        code = run(["verify", *SYNTH, "--coreset", str(coreset), "--betas", f"file:{bfile}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "betas" in captured.err and "matmul" not in captured.err

    def test_integer_coefficients_are_accepted(self, tmp_path, coreset):
        bfile = tmp_path / "betas.json"
        bfile.write_text(json.dumps({"betas": [[1, 0, -2], [0.5, 1, 0]]}))
        assert run(["verify", *SYNTH, "--coreset", str(coreset), "--betas", f"file:{bfile}"]) == 0


class TestCoresetPayload:
    def test_json_bytes_equal_per_element_conversion(self, tmp_path):
        out = tmp_path / "cs.json"
        assert run(["sample", *SYNTH, "--size", "37", "--seed", "3", "--output", str(out)]) == 0
        args = cli.build_parser().parse_args(["sample", *SYNTH, "--size", "37", "--seed", "3",
                                              "--output", str(out)])
        inst = cli._load_instance(args)
        cs = sampling.uniform_sample(inst, 37, 3)
        payload = cli._coreset_payload(args, inst.n, cli._settings(inst), cs)
        payload["indices"] = [int(i) for i in cs.indices]
        payload["weights"] = [float(w) for w in cs.weights]
        expected = tmp_path / "expected.json"
        data_io.write_coreset(expected, payload)
        assert out.read_bytes() == expected.read_bytes()


class TestCoresetDocument:
    """A coreset document must fit the instance it is verified or trained on."""

    @pytest.fixture
    def coreset(self, tmp_path):
        path = tmp_path / "cs.json"
        assert run(["sample", *SYNTH, "--size", "10", "--output", str(path)]) == 0
        return path

    @staticmethod
    def edit(path, **changes):
        doc = json.loads(path.read_text())
        for key, value in changes.items():
            if value is None:
                del doc[key]
            else:
                doc[key] = value
        path.write_text(json.dumps(doc))

    @staticmethod
    def assert_refused(argv, capsys, message):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1 and message in captured.err

    @pytest.mark.parametrize("command", ["train", "verify"])
    @pytest.mark.parametrize("key", ["n", "indices", "weights"])
    def test_missing_key_exits_2(self, coreset, capsys, command, key):
        self.edit(coreset, **{key: None})
        self.assert_refused([command, *SYNTH, "--coreset", str(coreset)], capsys, key)

    @pytest.mark.parametrize("command", ["train", "verify"])
    @pytest.mark.parametrize("bad", [-1, 400])
    def test_index_outside_the_dataset_exits_2(self, coreset, capsys, command, bad):
        indices = json.loads(coreset.read_text())["indices"]
        self.edit(coreset, indices=[bad] + indices[1:])
        self.assert_refused([command, *SYNTH, "--coreset", str(coreset)], capsys, "[0, 400)")

    @pytest.mark.parametrize("command", ["train", "verify"])
    @pytest.mark.parametrize("key, values", [
        ("indices", [1.5] * 10), ("indices", [[1]] * 10), ("indices", [True] * 10),
        ("weights", [{}] * 10), ("weights", [[40.0]] * 10), ("weights", ["40"] * 10),
        ("weights", [True] * 10),
    ])
    def test_entries_of_another_type_exit_2(self, coreset, capsys, command, key, values):
        self.edit(coreset, **{key: values})
        self.assert_refused([command, *SYNTH, "--coreset", str(coreset)], capsys,
                            f"coreset {key} must be a list of")

    @pytest.mark.parametrize("command", ["train", "verify"])
    @pytest.mark.parametrize("flags, key", [
        (["--loss", "hinge"], "loss"),
        (["--reg", "l1"], "reg"),
        (["--kappa", "0.9"], "kappa"),
        (["--lambda-scale", "2"], "lambda"),
    ])
    def test_other_settings_exit_2(self, coreset, capsys, command, flags, key):
        self.assert_refused([command, *SYNTH, *flags, "--coreset", str(coreset)],
                            capsys, key)

    def test_other_data_of_the_same_size_exits_2(self, coreset, capsys):
        other = ["--format", "synthetic", "--input", "n=400,d=3,noise=0.1,seed=2"]
        self.assert_refused(["verify", *other, "--coreset", str(coreset)], capsys, "R=")

    def test_empty_coreset_has_h_one_at_every_probe(self, coreset, capsys):
        # F_C over no rows is 0, so H = |F - 0| / F
        self.edit(coreset, indices=[], weights=[])
        assert run(["verify", *SYNTH, "--coreset", str(coreset)]) == 0
        assert "max_H=1.0 mean_H=1.0 " in capsys.readouterr().out

    def test_settings_not_recorded_are_not_checked(self, coreset):
        self.edit(coreset, loss=None, reg=None, kappa=None, R=None, **{"lambda": None})
        assert run(["verify", *SYNTH, "--coreset", str(coreset)]) == 0
        assert run(["train", *SYNTH, "--coreset", str(coreset), "--max-iters", "5"]) == 0


class TestEmptyInputs:
    @pytest.mark.parametrize("fmt, text", [
        ("svmlight", ""), ("svmlight", "# comment only\n\n"), ("csv", "f1,f2,label\n"),
    ])
    def test_no_data_rows_exits_2(self, tmp_path, capsys, fmt, text):
        data = tmp_path / "data"
        data.write_text(text)
        code = run(["sample", "--format", fmt, "--input", str(data), "--size", "2",
                    "--output", str(tmp_path / "cs.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.strip().splitlines()) == 1 and "no data rows" in err


    def test_blank_first_line_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("\nf1,label\n1,0\n")
        code = run(["sample", "--format", "csv", "--input", str(data), "--size", "2",
                    "--output", str(tmp_path / "cs.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.strip().splitlines()) == 1 and "line 1: empty header" in err

    @pytest.mark.parametrize("text", ["f1,f2,label\n", "f1,f2,label\n\n"])
    def test_header_only_csv_prints_no_warning(self, tmp_path, text):
        # loadtxt warns on empty input; the warning must not reach the user
        data = tmp_path / "data.csv"
        data.write_text(text)
        env = dict(os.environ, PYTHONPATH=str(Path(rlm_coreset.__file__).parents[1]),
                   PYTHONWARNINGS="always")
        proc = subprocess.run(
            [sys.executable, "-m", "rlm_coreset.cli", "sample", "--format", "csv",
             "--input", str(data), "--size", "2", "--output", str(tmp_path / "cs.json")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert len(proc.stderr.strip().splitlines()) == 1 and "no data rows" in proc.stderr
        assert "Warning" not in proc.stderr


class TestNewlyRefusedCells:
    @pytest.mark.parametrize("cell", ["1_0", "\u0661"])
    def test_csv_cell_exits_2_with_its_line(self, tmp_path, capsys, cell):
        data = tmp_path / "data.csv"
        data.write_text(f"f1,label\n1,0\n2,1\n{cell},0\n", encoding="utf-8")
        code = run(["sample", "--format", "csv", "--input", str(data), "--size", "2",
                    "--output", str(tmp_path / "cs.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.strip().splitlines()) == 1 and "line 4:" in err


class TestNonFiniteData:
    @pytest.mark.parametrize("fmt, text", [
        ("csv", "f1,f2,label\n1,nan,0\n2,3,1\n"),
        ("csv", "f1,f2,label\n1,2,0\n2,inf,1\n"),
        ("csv", "f1,f2,label\n1,2,0\n1e999,3,1\n"),
        ("svmlight", "1 1:nan 2:1\n-1 1:2\n"),
    ], ids=["csv-nan", "csv-inf", "csv-1e999", "svmlight-nan"])
    def test_non_finite_point_exits_2(self, tmp_path, capsys, fmt, text):
        data = tmp_path / "data"
        data.write_text(text)
        code = run(["sample", "--format", fmt, "--input", str(data), "--size", "1",
                    "--output", str(tmp_path / "cs.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "input error: points must be finite\n"


class TestSweep:
    def test_csv_output(self, tmp_path):
        report = tmp_path / "sweep.csv"
        code = run(["sweep", *SYNTH, "--sizes", "20,50", "--trials", "2",
                    "--report", str(report)])
        assert code == 0
        with open(report) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["size", "trial", "H", "seconds"]
        assert len(rows) == 1 + 2 * 2
        sizes = {int(r[0]) for r in rows[1:]}
        assert sizes == {20, 50}
        # H and seconds are written as plain float reprs, which float() reads back
        for r in rows[1:]:
            for cell in r[2:]:
                assert repr(float(cell)) == cell

    def test_geometric_spec_parser(self):
        sizes = cli._parse_sizes("50..n:geometric:1.1", 100)
        assert sizes[0] == 50
        assert sizes[-1] <= 100
        assert all(a < b for a, b in zip(sizes, sizes[1:]))
        assert cli._parse_sizes("10,20,30", 100) == [10, 20, 30]

    @pytest.mark.parametrize("spec", [
        "10..n:geometric:1", "10..n:geometric:0.5", "10..n:geometric:nan",
        "10..n:geometric:inf", "0..n:geometric:2",
    ])
    def test_geometric_spec_that_never_advances(self, spec):
        with pytest.raises(ValueError):
            cli._parse_sizes(spec, 50)

    @pytest.mark.parametrize("spec", ["1..n:geometric", "1..2..3:geometric:2", "5:geometric:2",
                                      "1..n:geometric:2:3", "a..n:geometric:2",
                                      "1..m:geometric:2", "1..n:geometric:x", "10,x"])
    def test_malformed_progression_names_its_form(self, spec):
        with pytest.raises(ValueError, match="LO..HI:geometric:FACTOR"):
            cli._parse_sizes(spec, 50)

    def test_geometric_factor_one_exits_3(self, tmp_path):
        code = run(["sweep", *SYNTH, "--sizes", "10..n:geometric:1",
                    "--report", str(tmp_path / "sweep.csv")])
        assert code == 3

    def test_stdout_prints_plain_floats(self, tmp_path, capsys):
        code = run(["sweep", *SYNTH, "--sizes", "20", "--trials", "2",
                    "--report", str(tmp_path / "sweep.csv")])
        assert code == 0
        out = capsys.readouterr().out
        assert "np.float64" not in out
        fields = dict(tok.split("=", 1) for tok in out.split())
        assert float(fields["mean_H"]) >= 0.0 and float(fields["std_H"]) >= 0.0


class TestAdversary:
    def test_two_cluster_report(self, tmp_path, capsys):
        report = tmp_path / "adv.json"
        code = run(["adversary", "--kind", "two-cluster", "--n", "1000000",
                    "--kappa", "0.5", "--gamma", "0.4", "--report", str(report)])
        assert code == 0
        doc = data_io.read_coreset(report)
        assert doc["H"] == pytest.approx(0.6475469901086592, abs=1e-9)
        assert doc["count_b"] == 15849

    def test_circle_report(self, tmp_path):
        report = tmp_path / "adv.json"
        code = run(["adversary", "--kind", "circle", "--n", "100000",
                    "--kappa", "0.1", "--gamma", "0.2", "--k", "4",
                    "--report", str(report)])
        assert code == 0
        doc = data_io.read_coreset(report)
        assert {"H", "r1", "r2", "chunk", "beta_norm"} <= set(doc)
        assert doc["chunk"]["length"] == 100000 // 16

    def test_oversized_k_exits_3(self):
        code = run(["adversary", "--kind", "circle", "--n", "64",
                    "--k", "32"])
        assert code == 3

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_k_below_one_exits_3(self, capsys, k):
        code = run(["adversary", "--kind", "circle", "--n", "1000", "--k", k])
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.strip().splitlines()) == 1 and "at least 1" in err

    def test_circle_report_is_the_witness(self, tmp_path):
        report = tmp_path / "adv.json"
        assert run(["adversary", "--kind", "circle", "--n", "100000", "--k", "3",
                    "--report", str(report)]) == 0
        doc = data_io.read_coreset(report)
        n, k = 100000, 3
        inst = adversary.gen_circle(n)
        C, U = (np.arange(k) * (n // k)) % n, np.full(k, n / k)
        chunk = adversary.find_chunk(n, k, C)
        h = adversary.chunk_hypothesis(chunk, doc["beta_norm"])
        assert doc["chunk"]["window_start"] == chunk.window_start
        assert doc["H"] == adversary.circle_H(inst, C, U, h)
        assert (doc["r1"], doc["r2"]) == adversary.lemma_ratios(inst, C, U, h)

    def test_large_finite_norm_keeps_its_report(self, capsys):
        # the regularizer dominates F and F_C alike, so H is exactly 0
        assert run(["adversary", "--kind", "circle", "--n", "1000", "--k", "4",
                    "--norm-override", "1e150"]) == 0
        assert capsys.readouterr() == ("H=0.0\n", "")

    def test_degenerate_two_cluster_exits_3(self):
        code = run(["adversary", "--kind", "two-cluster", "--n", "10",
                    "--kappa", "0.9", "--gamma", "0.99"])
        assert code == 3


class TestNumericArguments:
    """A numeric argument outside its range is refused with one stderr line,
    no warning and no traceback."""

    @pytest.fixture
    def coreset(self, tmp_path):
        path = tmp_path / "cs.json"
        assert run(["sample", *SYNTH, "--size", "10", "--output", str(path)]) == 0
        return str(path)

    @pytest.mark.parametrize("argv, code", [
        (["sweep", *SYNTH, "--sizes", "20", "--trials", "0", "--report", "{tmp}/s.csv"], 3),
        (["sample", *SYNTH, "--lambda-scale", "inf", "--output", "{tmp}/o.json"], 3),
        (["sample", *SYNTH, "--lambda-scale", "nan", "--output", "{tmp}/o.json"], 3),
        (["adversary", "--kind", "circle", "--n", "1000", "--gamma", "5"], 3),
        (["adversary", "--kind", "circle", "--n", "1000", "--gamma", "nan"], 3),
        (["verify", *SYNTH, "--coreset", "{coreset}", "--betas", "random:0"], 3),
        (["verify", *SYNTH, "--coreset", "{coreset}", "--betas", "random:3:0"], 3),
        (["verify", *SYNTH, "--coreset", "{coreset}", "--betas", "random:3:inf"], 3),
        (["verify", *SYNTH, "--coreset", "{coreset}", "--betas", "random:3:nan"], 3),
        # a probe spec that is not random:K[:max-norm]
        (["verify", *SYNTH, "--coreset", "{coreset}", "--betas", "random:"], 2),
        (["verify", *SYNTH, "--coreset", "{coreset}", "--betas", "random:5::"], 2),
        (["verify", *SYNTH, "--coreset", "{coreset}", "--betas", "random:5:1:junk"], 2),
        (["train", *SYNTH, "--grad-tol", "nan"], 3),
        (["train", *SYNTH, "--method", "sgd", "--learning-rate", "nan"], 3),
        (["train", *SYNTH, "--method", "sgd", "--learning-rate", "1e300"], 4),
        (["adversary", "--kind", "circle", "--n", "1000", "--norm-override", "0"], 3),
        (["sweep", *SYNTH, "--sizes", ",", "--report", "{tmp}/s.csv"], 2),
        # numpy refuses the 71 PiB array before touching any memory
        (["sample", "--format", "synthetic", "--input", "n=1000000000000000,d=10",
          "--size", "3", "--output", "{tmp}/o.json"], 2),
        # one range, one exit code, whichever subcommand or layer refuses it
        (["verify", *SYNTH, "--coreset", "{coreset}", "--epsilon", "2"], 3),
        (["sample", *SYNTH, "--epsilon", "2", "--output", "{tmp}/o.json"], 3),
        (["sample", *SYNTH, "--kappa", "1.5", "--size", "3", "--output", "{tmp}/o.json"], 3),
        (["verify", *SYNTH, "--kappa", "1.5", "--coreset", "{coreset}"], 3),
        (["adversary", "--kind", "two-cluster", "--n", "1000", "--kappa", "1.5"], 3),
        (["adversary", "--kind", "circle", "--n", "1000", "--norm-override", "nan"], 3),
        (["adversary", "--kind", "circle", "--n", "1000", "--norm-override", "inf"], 3),
        (["adversary", "--kind", "circle", "--n", "1000", "--c", "inf"], 3),
        (["adversary", "--kind", "circle", "--n", "1000", "--c", "0"], 3),
        (["adversary", "--kind", "two-cluster", "--n", "-5"], 3),
        # checked even where --size makes them unused
        (["sample", *SYNTH, "--size", "3", "--epsilon", "2", "--output", "{tmp}/o.json"], 3),
        (["sample", *SYNTH, "--size", "3", "--delta", "7", "--output", "{tmp}/o.json"], 3),
        # an operating-system error on a path exits 2, whichever kind it is
        (["train", "--format", "csv", "--input", "{coreset}/x"], 2),
        (["sample", *SYNTH, "--size", "3", "--output", "{coreset}/x.json"], 2),
        # a probe file the JSON reader accepts but no hypothesis may hold
        (["verify", *SYNTH, "--coreset", "{coreset}", "--betas", "file:{tmp}/nan.json"], 2),
        (["verify", *SYNTH, "--coreset", "{coreset}", "--betas", "file:{tmp}/inf.json"], 2),
        # a circle k whose window n//(2k) is below 2, refused before k indices exist
        (["adversary", "--kind", "circle", "--n", "1000", "--c", "1e300"], 3),
        (["adversary", "--kind", "circle", "--n", "1000", "--k", "1000000000000"], 3),
        (["adversary", "--kind", "circle", "--n", "10000000", "--gamma", "0.01",
          "--c", "1.7e308"], 3),
        # numpy's generators take no negative seed
        (["sample", *SYNTH, "--seed", "-1", "--output", "{tmp}/o.json"], 3),
        (["verify", *SYNTH, "--coreset", "{coreset}", "--seed", "-1"], 3),
        (["sweep", *SYNTH, "--sizes", "20", "--seed", "-1", "--report", "{tmp}/s.csv"], 3),
        (["train", *SYNTH, "--seed", "-1"], 3),
        (["bench", *SYNTH, "--seed", "-1"], 3),
        # float(n) would overflow: refused before any conversion
        (["adversary", "--kind", "circle", "--n", "9" * 401], 3),
        (["adversary", "--kind", "two-cluster", "--n", "9" * 401], 3),
        # past the circle's int64 indices
        (["adversary", "--kind", "circle", "--n", "1" + "0" * 19], 3),
        # an F or F_C that overflows would make H NaN
        (["verify", *SYNTH, "--coreset", "{coreset}", "--betas", "random:3:1e160"], 4),
        (["verify", *SYNTH, "--lambda-scale", "1e305", "--coreset", "{huge}"], 4),
        # a finite gradient whose norm overflows
        (["train", "--format", "synthetic", "--input", "n=2000,d=3", "--loss", "hinge",
          "--lambda-scale", "1e305"], 4),
        (["sweep", "--format", "synthetic", "--input", "n=2000,d=3", "--loss", "hinge",
          "--lambda-scale", "1e305", "--sizes", "50", "--report", "{tmp}/s.csv"], 4),
        # a circle hypothesis whose squared norm overflows the regularizer
        (["adversary", "--kind", "circle", "--n", "1000", "--k", "4",
          "--norm-override", "1e200"], 4),
        (["adversary", "--kind", "circle", "--n", "1000", "--k", "4",
          "--norm-override", "1e300"], 4),
        (["adversary", "--kind", "circle", "--n", "1000", "--kappa", "1.5"], 3),
        (["sweep", *SYNTH, "--sizes", "1..10:linear:2", "--report", "{tmp}/s.csv"], 2),
        (["sample", "--format", "csv", "--input", "{tmp}/empty.csv", "--size", "3",
          "--output", "{tmp}/o.json"], 2),
        (["sample", "--format", "csv", "--input", "{tmp}/data.csv", "--label-column", "nope",
          "--size", "3", "--output", "{tmp}/o.json"], 2),
        (["train", *SYNTH, "--method", "sgd", "--batch-size", "0"], 3),
        # lambda R^2 of 7e307 outgrows the decrease of every step above 1e-308
        (["train", "--format", "synthetic", "--input", "n=2000,d=3",
          "--lambda-scale", "1e305"], 4),
        # finite points whose 2-norm overflows
        (["sample", "--format", "csv", "--input", "{tmp}/big.csv", "--size", "2",
          "--output", "{tmp}/o.json"], 2),
        (["train", "--format", "synthetic", "--input", "n=200,d=3,margin=1e200"], 2),
        (["verify", "--format", "synthetic", "--input", "n=400,d=3,noise=0.1,seed=1,margin=1e200",
          "--coreset", "{coreset}"], 2),
        # an SGD run whose F over all rows overflows, with beta finite or not
        (["train", "--format", "synthetic", "--input", "n=200,d=3", "--method", "sgd",
          "--learning-rate", "5e10", "--epochs", "2"], 4),
        (["train", "--format", "synthetic", "--input", "n=200,d=3", "--method", "sgd",
          "--learning-rate", "6e10", "--epochs", "2"], 4),
        (["bench", "--format", "synthetic", "--input", "n=200,d=3",
          "--learning-rate", "5e10", "--epochs", "2"], 4),
        # under l1 a finite F, with a beta whose 2-norm overflows
        (["train", "--format", "synthetic", "--input", "n=200,d=3", "--method", "sgd",
          "--learning-rate", "1e200", "--epochs", "1", "--loss", "hinge", "--reg", "l1"], 4),
        (["sweep", *SYNTH, "--sizes", "1..n:geometric", "--report", "{tmp}/s.csv"], 2),
        (["sweep", *SYNTH, "--sizes", "1..2..3:geometric:2", "--report", "{tmp}/s.csv"], 2),
        # a coreset whose weights are finite but whose weight sum is not
        (["verify", "--format", "synthetic", "--input", "n=50,d=3", "--coreset", "{wide}"], 2),
        (["train", "--format", "synthetic", "--input", "n=50,d=3", "--coreset", "{wide}"], 2),
        # a degenerate minority cluster of an n with 997 bits
        (["adversary", "--kind", "two-cluster", "--n", "1" + "0" * 300, "--kappa", "0.9",
          "--gamma", "0.9"], 3),
    ], ids=["sweep-trials-0", "lambda-scale-inf", "lambda-scale-nan", "circle-gamma-5",
            "circle-gamma-nan", "random-0", "random-3-0", "random-3-inf", "random-3-nan",
            "random-no-k", "random-empty-max-norm", "random-trailing-field",
            "grad-tol-nan", "learning-rate-nan", "learning-rate-1e300", "norm-override-0",
            "sweep-no-sizes", "synthetic-too-large", "verify-epsilon-2", "sample-epsilon-2",
            "sample-kappa-1.5", "verify-kappa-1.5", "two-cluster-kappa-1.5",
            "norm-override-nan", "norm-override-inf", "c-inf", "c-0", "two-cluster-n-minus-5",
            "sample-size-epsilon-2", "sample-size-delta-7", "input-not-a-directory",
            "output-not-a-directory", "betas-file-nan", "betas-file-inf", "circle-c-1e300",
            "circle-k-1e12", "circle-k-overflows-float", "sample-seed-minus-1",
            "verify-seed-minus-1", "sweep-seed-minus-1", "train-seed-minus-1",
            "bench-seed-minus-1", "circle-n-401-digits", "two-cluster-n-401-digits",
            "circle-n-past-int64", "verify-probe-norm-1e160", "verify-lambda-scale-1e305",
            "train-gradient-norm-overflows", "sweep-gradient-norm-overflows",
            "circle-norm-1e200", "circle-norm-1e300", "circle-kappa-1.5",
            "sweep-unknown-progression", "csv-empty-file", "csv-no-label-column",
            "sgd-batch-size-0", "armijo-underflow", "sample-r-overflows",
            "train-r-overflows", "verify-r-overflows", "sgd-objective-overflows",
            "sgd-beta-overflows", "bench-sgd-objective-overflows",
            "sgd-l1-beta-norm-overflows", "sizes-no-factor", "sizes-three-bounds",
            "verify-weight-sum-overflows", "train-weight-sum-overflows",
            "two-cluster-degenerate-n-301-digits"])
    def test_refused(self, tmp_path, coreset, capsys, recwarn, argv, code):
        (tmp_path / "nan.json").write_text('{"betas": [[0.5, 1.0, 0.0], [0.1, NaN, 0.2]]}')
        (tmp_path / "inf.json").write_text('{"betas": [[0.1, 0.2, -Infinity]]}')
        (tmp_path / "empty.csv").write_text("")
        (tmp_path / "data.csv").write_text("a,b,label\n1,2,1\n3,4,0\n")
        (tmp_path / "big.csv").write_text("a,b,label\n1e200,1e200,1\n1,2,0\n3,4,1\n")
        huge = tmp_path / "huge.json"  # a coreset of the instance with lambda_scale 1e305
        if "{huge}" in argv:
            assert run(["sample", *SYNTH, "--lambda-scale", "1e305", "--size", "10",
                        "--output", str(huge)]) == 0
        wide = tmp_path / "wide.json"  # a coreset of n = 50 whose weight sum overflows
        if "{wide}" in argv:
            assert run(["sample", "--format", "synthetic", "--input", "n=50,d=3",
                        "--size", "2", "--output", str(wide)]) == 0
            doc = json.loads(wide.read_text())
            wide.write_text(json.dumps({**doc, "weights": [1e308, 1e308]}))
        capsys.readouterr()
        argv = [a.format(tmp=tmp_path, coreset=coreset, huge=huge, wide=wide) for a in argv]
        assert run(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert len(captured.err) < 200
        assert "Traceback" not in captured.err
        assert not [w for w in recwarn if issubclass(w.category, Warning)]

    def test_verify_epsilon_is_refused_before_any_work(self, coreset, capsys, monkeypatch):
        # the verify-epsilon-2 case with loading the data and the H pass unreachable
        def unreachable(*_args):
            pytest.fail("verify loaded the data or probed H before checking --epsilon")

        monkeypatch.setattr(cli, "_load_instance", unreachable)
        monkeypatch.setattr(cli, "approximation_errors", unreachable)
        capsys.readouterr()
        assert run(["verify", *SYNTH, "--coreset", coreset, "--epsilon", "2"]) == 3
        assert capsys.readouterr().err == "error: eps must lie in (0, 1), got 2.0\n"


class TestSubcommandFlags:
    @pytest.mark.parametrize("argv", [
        ["train", *SYNTH, "--size", "5"],
        ["bench", *SYNTH, "--coreset", "missing.json"],
        ["bench", *SYNTH, "--method", "sgd"],
    ])
    def test_flag_of_another_subcommand_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestTrainBench:
    def test_train_writes_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"
        code = run(["train", *SYNTH, "--method", "gd", "--max-iters", "50",
                    "--trace", str(trace)])
        assert code == 0
        with open(trace) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "seconds", "objective"]
        secs = [float(r[1]) for r in rows[1:]]
        assert all(b >= a for a, b in zip(secs, secs[1:]))

    def test_train_on_coreset(self, tmp_path):
        out = tmp_path / "cs.json"
        run(["sample", *SYNTH, "--size", "60", "--output", str(out)])
        code = run(["train", *SYNTH, "--coreset", str(out),
                    "--max-iters", "50"])
        assert code == 0

    def test_sgd_epochs(self, tmp_path):
        trace = tmp_path / "t.csv"
        code = run(["train", *SYNTH, "--method", "sgd", "--epochs", "3",
                    "--trace", str(trace)])
        assert code == 0
        with open(trace) as fh:
            assert len(list(csv.reader(fh))) == 1 + 3  # one row per epoch

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_optimum_at_the_2_norm_kink_prints_f_of_zero(self, tmp_path, capsys, seed):
        # noisy labels and q = 40: beta = 0 is the coreset optimum for the
        # plain 2-norm, where GD once ended in an Armijo underflow (exit 4)
        data = ["--format", "synthetic", "--input", f"n=400,d=3,noise=0.5,seed={seed}",
                "--reg", "l2"]
        out = tmp_path / "cs.json"
        assert run(["sample", *data, "--size", "40", "--output", str(out)]) == 0
        capsys.readouterr()
        assert run(["train", *data, "--coreset", str(out)]) == 0
        X, y, _ = data_io.gen_synthetic(n=400, d=3, noise=0.5, seed=seed)
        inst = rlm_coreset.RlmInstance(X=X, y=y, loss=rlm_coreset.LossKind.LOGISTIC,
                                       reg=rlm_coreset.RegularizerKind.L2, kappa=0.5)
        f0 = rlm_coreset.full_objective(inst, np.zeros(3))
        assert capsys.readouterr().out == f"final_objective={f0!r} beta_norm=0.0\n"

    @pytest.mark.parametrize("coreset", [False, True])
    def test_nonsmooth_train_prints_f_of_the_returned_beta(self, tmp_path, capsys, coreset):
        # subgradient GD returns its best iterate, not its last
        data = [*SYNTH, "--loss", "hinge", "--reg", "l1"]
        out = tmp_path / "cs.json"
        assert run(["sample", *data, "--size", "60", "--output", str(out)]) == 0
        capsys.readouterr()
        assert run(["train", *data, "--max-iters", "20",
                    *(["--coreset", str(out)] if coreset else [])]) == 0
        X, y, _ = data_io.gen_synthetic(n=400, d=3, noise=0.1, seed=1)
        inst = rlm_coreset.RlmInstance(X=X, y=y, loss=rlm_coreset.LossKind.HINGE,
                                       reg=rlm_coreset.RegularizerKind.L1, kappa=0.5)
        cs = rlm_coreset.uniform_sample(inst, 60, 0) if coreset else None
        beta_hat, trace = solver.train(
            inst, solver.TrainConfig(max_iters=20), cs)
        f = rlm_coreset.full_objective(inst, beta_hat)
        assert capsys.readouterr().out == \
            f"final_objective={f!r} beta_norm={float(np.linalg.norm(beta_hat))!r}\n"

    @pytest.mark.parametrize("command", ["train", "bench"])
    @pytest.mark.parametrize("flag", ["--max-iters", "--epochs"])
    def test_zero_iterations_exit_3(self, command, flag, capsys):
        code = run([command, *SYNTH, flag, "0"])
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "at least 1" in err

    def test_bench(self, tmp_path, capsys):
        code = run(["bench", *SYNTH, "--epochs", "2", "--size", "50",
                    "--max-iters", "50",
                    "--trace", str(tmp_path / "bench")])
        assert code == 0
        assert (tmp_path / "bench.full_sgd.csv").exists()
        assert (tmp_path / "bench.coreset_gd.csv").exists()
        out = capsys.readouterr().out
        assert "full_sgd" in out and "coreset_gd" in out


# the fuzzed commands; {tmp} is a fresh directory and {cs} a coreset document
# of the data there, which records only n, indices and weights
_FUZZ_COMMANDS = [
    ["train"],
    ["train", "--method", "sgd"],
    ["train", "--coreset", "{cs}"],
    ["sample", "--size", "5", "--output", "{tmp}/o.json"],
    ["sample", "--output", "{tmp}/o.json"],
    ["verify", "--coreset", "{cs}", "--betas", "random:3"],
    ["verify", "--coreset", "{cs}", "--betas", "random:3:1e160"],
    ["verify", "--coreset", "{cs}", "--betas", "trained"],
    ["sweep", "--sizes", "5,10", "--trials", "1", "--report", "{tmp}/s.csv"],
    ["bench"],
]
_EDGE = [1e-310, 1e-300, 1e-9, 1.0, 5e10, 1e200, 1e300, 1e305]


def _run_under_contract(argv) -> int:
    """Run argv, assert TestFuzz's error contract on its exit code, warnings,
    stderr and stdout, and return the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3, 4), (argv, err)
    assert not [str(w.message) for w in caught], argv
    assert "Traceback" not in err
    lines = [line for line in err.splitlines()
             if not (line.startswith("warning: ") and line.endswith("using the full dataset"))]
    assert len(lines) <= 1, (argv, err)
    if code == 0:
        for key, value in re.findall(r"(\w+)=([^\s):]+)", out):
            with contextlib.suppress(ValueError):
                assert key == "S_prime" or math.isfinite(float(value)), (argv, out)
    return code


def _refuse_constant(name):
    raise AssertionError(f"the report holds {name}, which is not JSON")


def _adversary_argv(kind, n, kappa, gamma, loss, circle_flags):
    return ["adversary", "--kind", kind, "--n", str(n), "--kappa", repr(kappa),
            "--gamma", repr(gamma), "--loss", loss, *circle_flags]


# kappa and gamma at and near the ends of (0, 1), and past them
_UNIT = st.sampled_from([1e-300, 1e-9, 0.15, 0.4, 0.5, 0.9, 0.999999]) | st.floats(0.0, 1.0)
_LOSS = st.sampled_from(sorted(cli._LOSSES))
# two-cluster evaluation is O(1) in n, so n runs past the largest double
_TWO_CLUSTER_N = st.sampled_from([10**308, int(sys.float_info.max), 2**1024, 10**309]) \
    | st.integers(-2, 10**6) | st.integers(-2, 10**310)
_CIRCLE_FLAGS = st.builds(
    lambda k, c, norm: [*(["--k", str(k)] if k is not None else []), "--c", repr(c),
                        *(["--norm-override", repr(norm)] if norm is not None else [])],
    k=st.none() | st.sampled_from([-1, 0, 1, 2, 4, 50, 10**12]),
    c=st.sampled_from([1e-320, 1.0, 1e150, 1e200]),
    norm=st.none() | st.sampled_from([1e-320, 1e-9, 1.0, 1e150, 1e154, 1e200, 1e300]))
_ADVERSARY_ARGV = st.builds(_adversary_argv, st.just("two-cluster"), _TWO_CLUSTER_N,
                            _UNIT, _UNIT, _LOSS, st.just([])) \
    | st.builds(_adversary_argv, st.just("circle"), st.integers(-2, 10**5),
                _UNIT, _UNIT, _LOSS, _CIRCLE_FLAGS)


@st.composite
def _coreset_docs(draw):
    """(n, a coreset document for n rows), the document valid or damaged in
    one place as a hand-written file may be: an index negative, n or past
    int64, a float, a bool, a list or a string; a weight negative, zero,
    NaN, infinite, a bool, a list or a string; one list longer than the
    other; or an n that is off by one, a float or a string."""
    n = draw(st.integers(1, 60))
    q = draw(st.integers(0, 8))
    indices = draw(st.lists(st.integers(0, n - 1), min_size=q, max_size=q))
    weights = draw(st.lists(st.floats(0.0, 100.0), min_size=q, max_size=q))
    doc_n = n
    damage = draw(st.sampled_from([None, "index", "weight", "length", "n"]))
    if damage == "index" and q:
        indices[draw(st.integers(0, q - 1))] = draw(st.sampled_from(
            [-1, n, n + 7, -2**63, 2**63 - 1, 2**63, 10**30, 0.0, 0.5, True, [0], [[0]], "0"]))
    if damage == "weight" and q:
        weights[draw(st.integers(0, q - 1))] = draw(st.sampled_from(
            [-1.0, -0.0, 0.0, math.nan, math.inf, -math.inf, -1, 3, True, [1.0], "1"]))
    if damage == "length":
        draw(st.sampled_from([indices, weights])).append(0)
    if damage == "n":
        doc_n = draw(st.sampled_from([n + 1, n - 1, float(n), str(n)]))
    return n, {"n": doc_n, "indices": indices, "weights": weights}


class TestFuzz:
    """The error contract over tiny synthetic inputs and the adversary's
    instances: every run exits 0, 2, 3 or 4, with no Python warning, no
    traceback, at most one stderr line besides the full-dataset warning, and
    on success no printed value that is NaN or infinite.  S_prime may be: a
    lambda-scale of 1e-310 makes the loss-agnostic bound overflow, and q
    then clamps to n."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(command=st.sampled_from(_FUZZ_COMMANDS), n=st.integers(1, 60),
           d=st.integers(1, 3),
           margin=st.sampled_from([0.0, 0.5, 3.0, 1e150, 1e160, 1e300, math.nan])
           | st.floats(0.0, 1e300),
           loss=_LOSS, reg=st.sampled_from(sorted(cli._REGS)),
           lambda_scale=st.sampled_from(_EDGE), learning_rate=st.sampled_from(_EDGE),
           epochs=st.sampled_from([0, 1, 2]))
    def test_exit_code_and_output(self, command, n, d, margin, loss, reg, lambda_scale,
                                  learning_rate, epochs):
        with tempfile.TemporaryDirectory() as tmp:
            cs = os.path.join(tmp, "cs.json")
            indices = list(range(0, n, 2))
            data_io.write_coreset(cs, {"n": n, "indices": indices,
                                       "weights": [n / len(indices)] * len(indices)})
            argv = [a.format(tmp=tmp, cs=cs) for a in command]
            argv += ["--format", "synthetic", "--input", f"n={n},d={d},margin={margin!r}",
                     "--loss", loss, "--reg", reg, "--lambda-scale", repr(lambda_scale)]
            if argv[0] in ("train", "bench"):
                argv += ["--learning-rate", repr(learning_rate), "--epochs", str(epochs)]
            _run_under_contract(argv)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(argv=_ADVERSARY_ARGV)
    # a two-cluster F past the largest double once gave H=nan, exit 0 and a
    # report holding NaN; a minority cluster size past it, a traceback
    @example(argv=_adversary_argv("two-cluster", 10**308, 0.9, 0.15, "logistic", []))
    @example(argv=_adversary_argv("two-cluster", 10**300, 0.9, 0.9, "logistic", []))
    def test_adversary_exit_code_and_report(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            report = Path(tmp) / "r.json"
            code = _run_under_contract([*argv, "--report", str(report)])
            if code == 0:
                json.loads(report.read_text(), parse_constant=_refuse_constant)
            else:
                assert not report.exists(), argv

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(command=st.sampled_from([["train"], ["train", "--method", "sgd"],
                                    ["verify", "--betas", "random:3"]]),
           n_doc=_coreset_docs())
    # always run: an index of -1 and of n, a NaN weight and a wrong n
    @example(command=["train"], n_doc=(5, {"n": 5, "indices": [-1, 0], "weights": [2.5, 2.5]}))
    @example(command=["train", "--method", "sgd"],
             n_doc=(5, {"n": 5, "indices": [5, 0], "weights": [2.5, 2.5]}))
    @example(command=["verify", "--betas", "random:3"],
             n_doc=(5, {"n": 5, "indices": [1, 0], "weights": [math.nan, 2.5]}))
    @example(command=["verify", "--betas", "random:3"],
             n_doc=(5, {"n": 6, "indices": [1, 0], "weights": [2.5, 2.5]}))
    def test_coreset_document(self, command, n_doc):
        # a document's rows reach the kernel only through objective_rows
        n, doc = n_doc
        with tempfile.TemporaryDirectory() as tmp:
            cs = os.path.join(tmp, "cs.json")
            data_io.write_coreset(cs, doc)
            _run_under_contract([*command, "--coreset", cs, "--format", "synthetic",
                                 "--input", f"n={n},d=2"])
