import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import oracle_load_csv, oracle_load_svmlight
from rlm_coreset import data_io
from rlm_coreset.errors import (
    LabelError,
    NonBinaryLabelsError,
    ParseError,
    RlmError,
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


def outcome(load, path, **kwargs):
    """What a loader returns, or the class and message of what it raises."""
    try:
        return load(path, **kwargs)
    except RlmError as exc:
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    """Arrays equal bit for bit (int64 views, shapes and dtypes), or the
    same exception class with the same message."""
    assert type(got) is type(want)
    if isinstance(want[0], type):
        assert got == want
        return
    X, y, d = got
    X_want, y_want, d_want = want
    assert d == d_want
    for a, b in ((X, X_want), (y, y_want)):
        assert a.shape == b.shape and a.dtype == b.dtype == np.float64
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


# value texts float() and the C reader read alike: reprs (nan, inf, -0.0,
# subnormals), integers and exponent forms
NUMBER = st.one_of(
    st.floats(width=64).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.3e}"),
    st.sampled_from(["+1.5", ".5", "5.", "1E3", "-0", "Infinity", "-nan"]),
)
SVM_LABEL = st.sampled_from(["1", "+1", "-1", "0", "1.0", "-1.0", "0.0", "-0", "1e0"])
GAP = st.sampled_from([" ", "  ", "\t", " \t "])
EOL = st.sampled_from(["\n", "\r\n"])
COMMENT = st.text(st.characters(blacklist_characters="\r\n", codec="utf-8"), max_size=8)


@st.composite
def svmlight_text(draw):
    """Sparse rows with unsorted and repeated indices, comments, blank and
    whitespace-only lines, LF and CRLF endings."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "comment"]))
        if kind == "row":
            feats = draw(st.lists(st.tuples(st.integers(1, 12), NUMBER), max_size=6))
            tokens = [draw(SVM_LABEL)] + [f"{i}:{v}" for i, v in feats]
            line = draw(st.sampled_from(["", " "])) + draw(GAP).join(tokens)
            if draw(st.booleans()):
                line += draw(GAP) + "#" + draw(COMMENT)
        elif kind == "blank":
            line = draw(st.sampled_from(["", " ", "\t"]))
        else:
            line = "#" + draw(COMMENT)
        lines.append(line + draw(EOL))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")  # no final line break
    return "".join(lines)


@st.composite
def csv_text(draw):
    """A header, then rows of plain, space-padded or quoted cells, blank
    lines, LF and CRLF endings; returns (text, label_column)."""
    ncols = draw(st.integers(1, 5))
    header = [f"c{j}" for j in range(ncols)]
    label_idx = draw(st.integers(0, ncols - 1))
    label_values = draw(st.sampled_from([["0", "1"], ["-1", "1"], ["2", "5.0"], ["1"],
                                         ["0", "1", "2"]]))
    eol = draw(EOL)
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
            continue
        cells = []
        for j in range(ncols):
            text = draw(st.sampled_from(label_values)) if j == label_idx else draw(NUMBER)
            pad = draw(st.sampled_from(["", " ", "\t"]))
            text = pad + text + pad
            cells.append(f'"{text}"' if draw(st.booleans()) else text)
        lines.append(",".join(cells))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    label_column = None if label_idx == ncols - 1 and draw(st.booleans()) else header[label_idx]
    return text, label_column


PARITY = settings(max_examples=300, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestParity:
    """The vectorized loaders against the line-by-line oracles."""

    @PARITY
    @given(text=svmlight_text())
    def test_svmlight_matches_oracle(self, tmp_path, text):
        f = tmp_path / "d.svm"
        f.write_bytes(text.encode("utf-8"))
        assert_same_outcome(outcome(data_io.load_svmlight, f),
                            outcome(oracle_load_svmlight, f))

    @PARITY
    @given(case=csv_text())
    def test_csv_matches_oracle(self, tmp_path, case):
        text, label_column = case
        f = tmp_path / "d.csv"
        f.write_bytes(text.encode("utf-8"))
        assert_same_outcome(outcome(data_io.load_csv, f, label_column=label_column),
                            outcome(oracle_load_csv, f, label_column=label_column))

    def test_svmlight_across_blocks(self, tmp_path):
        rng = np.random.default_rng(5)
        lines = []
        for i in range(3 * data_io._BLOCK_LINES + 17):
            idx = rng.integers(1, 40, size=rng.integers(0, 6))
            vals = rng.standard_normal(len(idx))
            lines.append(" ".join([str(i % 2)] + [f"{j}:{v!r}" for j, v in zip(idx, vals)]))
        f = tmp_path / "d.svm"
        f.write_text("\n".join(lines) + "\n")
        assert_same_outcome(outcome(data_io.load_svmlight, f), outcome(oracle_load_svmlight, f))

    def test_svmlight_keeps_int_and_float_semantics(self, tmp_path):
        f = tmp_path / "d.svm"
        f.write_text("1 1_0:2_5 2:\u0661 3:-nan 3:7\n")
        got = data_io.load_svmlight(f)
        X, _, d = got
        assert d == 10 and X[0, 9] == 25.0 and X[0, 1] == 1.0 and X[0, 2] == 7.0
        assert_same_outcome(got, oracle_load_svmlight(f))


MALFORMED = [
    ("csv", "f,label\n1,0\n2\n"),                       # ragged row
    ("csv", "f,label\n1,0\n\n2,1,3\n"),                 # ragged after a blank line
    ("csv", "f,label\n1,0\nx,1\n"),                     # non-numeric cell
    ("csv", "f,label\n1,0\n\"1,5\",1\n"),                # quoted delimiter
    ("csv", "f,label\n1,0\n2,\n"),                      # empty cell
    ("csv", "f,label\n1,0\n\x1c2,1\n"),                 # float() refuses \x1c
    ("csv", "f,g,label\n1,0\n2,3,1\n"),                 # ragged, header wider
    ("csv", "f,g,label\n1,0\n2,1\n"),                   # header wider than every row
    ("csv", "f,label\r\n1,0\r\n2,1\r\nx\r\n"),           # CRLF, ragged
    ("svmlight", "1 1:1\n1:2 1:1\n"),                    # label with a colon
    ("svmlight", "1 1:1\n-1 3\n"),                       # feature without a colon
    ("svmlight", "1 2::3\n"),
    ("svmlight", "1 2: 3\n"),
    ("svmlight", "1 1:1\n-1 0:1\n"),                     # index 0
    ("svmlight", "1 1.5:2\n"),                           # non-integer index
    ("svmlight", "1 1:1\n3 1:1\n"),                      # label 3
    ("svmlight", "1 :2\n"),
    ("svmlight", "1 2:3:4 1\n"),                          # colon counts balance out
    ("svmlight", "1 0:1\n3 1:1\n"),                      # the first error wins
    ("svmlight", "# c\n\n1 1:1 # 2::3\nx 1:1\n"),        # bad label after a comment
    ("svmlight", "1 1:1\n" * 2500 + "-1 1:1 2:x\n"),     # in a later block
    ("svmlight", "1 1:1\n" * 1100 + "0 -99999999999999999999:1\n"),
]


class TestMalformed:
    @pytest.mark.parametrize("fmt, text", MALFORMED)
    def test_same_class_and_line_as_oracle(self, tmp_path, fmt, text):
        f = tmp_path / "bad"
        f.write_bytes(text.encode("utf-8"))
        load, oracle = {"csv": (data_io.load_csv, oracle_load_csv),
                        "svmlight": (data_io.load_svmlight, oracle_load_svmlight)}[fmt]
        want = outcome(oracle, f)
        assert isinstance(want[0], type), "the oracle accepts this input"
        assert_same_outcome(outcome(load, f), want)


class TestNewlyRefused:
    """Cells float() accepts but the C reader does not; the oracle reads them."""

    @pytest.mark.parametrize("cell, value", [("1_0", 10.0), ("\u0661", 1.0), (" 2_5.5 ", 25.5)])
    def test_csv_cell_refused_with_its_line(self, tmp_path, cell, value):
        f = tmp_path / "d.csv"
        f.write_text(f"f,label\n1,0\n{cell},1\n", encoding="utf-8")
        assert oracle_load_csv(f)[0][1, 0] == value
        with pytest.raises(ParseError, match=r"^line 3: .*underscores") as err:
            data_io.load_csv(f)
        assert err.value.line == 3

    def test_svmlight_index_beyond_int64(self, tmp_path):
        f = tmp_path / "d.svm"
        f.write_text("1 1:1\n0 99999999999999999999:1\n")
        with pytest.raises(ParseError, match="^line 2: feature index .* too large"):
            data_io.load_svmlight(f)


    @pytest.mark.parametrize("label_column", [None, "label"])
    def test_csv_with_blank_first_line(self, tmp_path, label_column):
        f = tmp_path / "d.csv"
        f.write_text("\nf,label\n1,0\n")
        with pytest.raises(ParseError, match="^line 1: empty header"):
            data_io.load_csv(f, label_column=label_column)


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
