import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rlm_coreset
from rlm_coreset import adversary, cli, data_io, sampling

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
        doc = data_io.read_report(report)
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
        a, b = data_io.read_report(rep1), data_io.read_report(rep2)
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
        doc = data_io.read_report(report)
        # the per-probe reference: one approximation_error per hypothesis
        args = cli.build_parser().parse_args(argv)
        inst = cli._load_instance(args)
        cs = cli._coreset_from_doc(data_io.read_coreset(out), inst)
        want = [rlm_coreset.approximation_error(inst, cs, rlm_coreset.Hypothesis(beta=b))
                for b in betas]
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
        payload = cli._coreset_payload(args, inst, cs, 37)
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

    @pytest.mark.parametrize("indices", [[1.5] * 10, [[1]] * 10, [True] * 10])
    def test_non_integer_indices_exit_2(self, coreset, capsys, indices):
        self.edit(coreset, indices=indices)
        self.assert_refused(["verify", *SYNTH, "--coreset", str(coreset)], capsys, "integers")

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

    def test_geometric_factor_one_exits_2(self, tmp_path):
        code = run(["sweep", *SYNTH, "--sizes", "10..n:geometric:1",
                    "--report", str(tmp_path / "sweep.csv")])
        assert code == 2

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
        doc = data_io.read_report(report)
        assert doc["H"] == pytest.approx(0.6475469901086592, abs=1e-9)
        assert doc["count_b"] == 15849

    def test_circle_report(self, tmp_path):
        report = tmp_path / "adv.json"
        code = run(["adversary", "--kind", "circle", "--n", "100000",
                    "--kappa", "0.1", "--gamma", "0.2", "--k", "4",
                    "--report", str(report)])
        assert code == 0
        doc = data_io.read_report(report)
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
        doc = data_io.read_report(report)
        n, k = 100000, 3
        inst = adversary.gen_circle(n)
        C, U = (np.arange(k) * (n // k)) % n, np.full(k, n / k)
        chunk = adversary.find_chunk(n, k, C)
        h = adversary.chunk_hypothesis(chunk, doc["beta_norm"])
        assert doc["chunk"]["window_start"] == chunk.window_start
        assert doc["H"] == adversary.circle_H(inst, C, U, h)
        assert (doc["r1"], doc["r2"]) == adversary.lemma_ratios(inst, C, U, h)

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
        (["sweep", *SYNTH, "--sizes", "20", "--trials", "0", "--report", "{tmp}/s.csv"], 2),
        (["sample", *SYNTH, "--lambda-scale", "inf", "--output", "{tmp}/o.json"], 2),
        (["sample", *SYNTH, "--lambda-scale", "nan", "--output", "{tmp}/o.json"], 2),
        (["adversary", "--kind", "circle", "--n", "1000", "--gamma", "5"], 3),
        (["adversary", "--kind", "circle", "--n", "1000", "--gamma", "nan"], 3),
        (["verify", *SYNTH, "--coreset", "{coreset}", "--betas", "random:0"], 2),
        (["verify", *SYNTH, "--coreset", "{coreset}", "--betas", "random:3:0"], 2),
        (["verify", *SYNTH, "--coreset", "{coreset}", "--betas", "random:3:inf"], 2),
        (["verify", *SYNTH, "--coreset", "{coreset}", "--betas", "random:3:nan"], 2),
        (["train", *SYNTH, "--grad-tol", "nan"], 2),
        (["train", *SYNTH, "--method", "sgd", "--learning-rate", "nan"], 2),
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
        # a probe file the JSON reader accepts but no hypothesis may hold
        (["verify", *SYNTH, "--coreset", "{coreset}", "--betas", "file:{tmp}/nan.json"], 2),
        (["verify", *SYNTH, "--coreset", "{coreset}", "--betas", "file:{tmp}/inf.json"], 2),
    ], ids=["sweep-trials-0", "lambda-scale-inf", "lambda-scale-nan", "circle-gamma-5",
            "circle-gamma-nan", "random-0", "random-3-0", "random-3-inf", "random-3-nan",
            "grad-tol-nan", "learning-rate-nan", "learning-rate-1e300", "norm-override-0",
            "sweep-no-sizes", "synthetic-too-large", "verify-epsilon-2", "sample-epsilon-2",
            "sample-kappa-1.5", "verify-kappa-1.5", "two-cluster-kappa-1.5",
            "norm-override-nan", "norm-override-inf", "betas-file-nan", "betas-file-inf"])
    def test_refused(self, tmp_path, coreset, capsys, recwarn, argv, code):
        (tmp_path / "nan.json").write_text('{"betas": [[0.5, 1.0, 0.0], [0.1, NaN, 0.2]]}')
        (tmp_path / "inf.json").write_text('{"betas": [[0.1, 0.2, -Infinity]]}')
        capsys.readouterr()
        argv = [a.format(tmp=tmp_path, coreset=coreset) for a in argv]
        assert run(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err
        assert not [w for w in recwarn if issubclass(w.category, Warning)]


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
        f0 = rlm_coreset.full_objective(inst, rlm_coreset.Hypothesis(beta=np.zeros(3)))
        assert capsys.readouterr().out == f"final_objective={f0!r} beta_norm=0.0\n"

    @pytest.mark.parametrize("command", ["train", "bench"])
    @pytest.mark.parametrize("flag", ["--max-iters", "--epochs"])
    def test_zero_iterations_exit_2(self, command, flag, capsys):
        code = run([command, *SYNTH, flag, "0"])
        assert code == 2
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
