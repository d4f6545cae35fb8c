import numpy as np
import pytest

from rlm_coreset import data_io
from rlm_coreset.errors import (
    LabelError,
    NonBinaryLabelsError,
    ParseError,
    SchemaMismatchError,
)


class TestSvmlight:
    def test_basic_line(self, tmp_path):
        f = tmp_path / "a.svm"
        f.write_text("+1 1:0.5 3:-2\n")
        X, y, d = data_io.load_svmlight(f)
        assert d == 3
        assert y[0] == 1.0
        assert X[0] == pytest.approx([0.5, 0.0, -2.0])

    def test_zero_one_labels_mapped(self, tmp_path):
        f = tmp_path / "a.svm"
        f.write_text("0 2:1\n1 1:1\n")
        X, y, d = data_io.load_svmlight(f)
        assert list(y) == [-1.0, 1.0]
        assert X[0] == pytest.approx([0.0, 1.0])

    def test_malformed_feature(self, tmp_path):
        f = tmp_path / "a.svm"
        f.write_text("1 a:b\n")
        with pytest.raises(ParseError) as err:
            data_io.load_svmlight(f)
        assert "line 1" in str(err.value)

    def test_bad_label_value(self, tmp_path):
        f = tmp_path / "a.svm"
        f.write_text("3 1:1\n")
        with pytest.raises(LabelError):
            data_io.load_svmlight(f)

    def test_comments_and_blank_lines(self, tmp_path):
        f = tmp_path / "a.svm"
        f.write_text("# header\n\n-1 1:2.5  # trailing\n")
        X, y, d = data_io.load_svmlight(f)
        assert len(y) == 1 and y[0] == -1.0

    def test_deterministic_load(self, tmp_path):
        f = tmp_path / "a.svm"
        f.write_text("+1 1:0.25 2:1\n-1 2:3\n")
        a = data_io.load_svmlight(f)
        b = data_io.load_svmlight(f)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestCsv:
    def test_label_last_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("f1,f2,label\n1.0,2.0,1\n3.0,4.0,2\n")
        X, y, d = data_io.load_csv(f)
        assert d == 2
        assert list(y) == [-1.0, 1.0]  # smaller class -> -1
        assert X[1] == pytest.approx([3.0, 4.0])

    def test_named_label_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("target,f1\n-1,0.5\n1,0.25\n")
        X, y, d = data_io.load_csv(f, label_column="target")
        assert list(y) == [-1.0, 1.0]
        assert X[:, 0] == pytest.approx([0.5, 0.25])

    def test_nonbinary_labels(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("f,label\n1,0\n2,1\n3,2\n")
        with pytest.raises(NonBinaryLabelsError):
            data_io.load_csv(f)

    def test_ragged_row(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("f,label\n1,0\n2\n")
        with pytest.raises(ParseError):
            data_io.load_csv(f)

    def test_non_numeric(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("f,label\nx,0\n")
        with pytest.raises(ParseError):
            data_io.load_csv(f)


class TestEmptyFiles:
    @pytest.mark.parametrize("text", ["", "# comment only\n\n   \n"])
    def test_svmlight_without_rows(self, tmp_path, text):
        f = tmp_path / "d.svm"
        f.write_text(text)
        with pytest.raises(ParseError, match="no data rows"):
            data_io.load_svmlight(f)

    @pytest.mark.parametrize("text", ["f1,f2,label\n", "f1,f2,label\n\n\n"])
    def test_csv_with_header_only(self, tmp_path, text):
        f = tmp_path / "d.csv"
        f.write_text(text)
        with pytest.raises(ParseError, match="no data rows"):
            data_io.load_csv(f)


class TestSynthetic:
    def test_noiseless_is_separable(self):
        X, y, w = data_io.gen_synthetic(500, 4, seed=1)
        assert np.all(np.sign(X @ w) == y)

    def test_full_noise_decorrelates(self):
        X, y, w = data_io.gen_synthetic(10**5, 3, noise=0.5, seed=2)
        agreement = np.mean(np.sign(X @ w) == y)
        assert abs(agreement - 0.5) < 0.01

    def test_seeded_identical(self):
        a = data_io.gen_synthetic(100, 3, noise=0.2, seed=9)
        b = data_io.gen_synthetic(100, 3, noise=0.2, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_margin_pushes_points_apart(self):
        X, y, w = data_io.gen_synthetic(1000, 2, margin=1.0, seed=0)
        assert np.min(y * (X @ w)) >= 1.0 - 1e-12

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            data_io.gen_synthetic(0, 3)


class TestJsonRoundTrip:
    def test_coreset_round_trip(self, tmp_path):
        payload = {
            "n": 100, "q": 10, "seed": 7, "rng": "numpy-pcg64",
            "mode": "iid_with_replacement",
            "indices": [1, 5, 5, 9],
            "weights": [0.1234567890123456789, 25.0, 25.0, 25.0],
            "R": 3.5, "lambda": 10.0, "kappa": 0.5,
            "loss": "logistic", "reg": "l2_squared",
        }
        path = tmp_path / "cs.json"
        data_io.write_coreset(path, payload)
        doc = data_io.read_coreset(path)
        for key, val in payload.items():
            assert doc[key] == val  # exact, including full float precision

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other/9", "n": 1}')
        with pytest.raises(SchemaMismatchError):
            data_io.read_coreset(path)

    def test_document_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(SchemaMismatchError):
            data_io.read_coreset(path)

    def test_report_round_trip(self, tmp_path):
        path = tmp_path / "r.json"
        data_io.write_report(path, {"H": 0.123456789012345678})
        assert data_io.read_report(path)["H"] == 0.123456789012345678
