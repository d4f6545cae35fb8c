import json
import os
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import oracle_gen_synthetic, oracle_load_csv, oracle_load_svmlight, traced_peak
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


def outcome_through_a_pipe(load, text):
    """outcome() of load on text read through a pipe, as /dev/fd/N; a thread
    writes it, so text may exceed what a pipe holds."""
    r, w = os.pipe()

    def write():
        try:
            with open(w, "wb") as fh:
                fh.write(text.encode("utf-8"))
        except BrokenPipeError:  # the loader stopped reading early
            pass

    writer = threading.Thread(target=write)
    writer.start()
    try:
        return outcome(load, f"/dev/fd/{r}")
    finally:
        os.close(r)
        writer.join(timeout=60)
        assert not writer.is_alive()


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


def svmlight_lines(rng, rows, indices, label=1):
    """One line per row, with a value at each index that indices(i) gives."""
    return [" ".join([str((label + i) % 2)] + [f"{j}:{float(rng.standard_normal())!r}"
                                               for j in indices(i)])
            for i in range(rows)]


BLOCK = data_io._BLOCK_LINES


class TestBlocks:
    """Files whose blocks the readers keep in different forms or widths."""

    @pytest.mark.parametrize("shape, widths", [
        # a dense block, then one with a single feature per row up to index 50
        ([(BLOCK, lambda i: range(1, 6)), (BLOCK, lambda i: [1 + i % 50])], [5, 50]),
        # the widest index first appears in the last, partial block
        ([(BLOCK, lambda i: range(1, 4)), (BLOCK, lambda i: range(2, 5)),
          (7, lambda i: range(1, 9))], [3, 4, 8]),
        # a block without a single feature between two with features
        ([(BLOCK, lambda i: [2]), (BLOCK, lambda i: []), (3, lambda i: [1, 3])], [2, 0, 3]),
    ], ids=["dense-then-sparse", "wider-index-later", "block-without-features"])
    def test_svmlight_matches_oracle(self, tmp_path, shape, widths):
        rng = np.random.default_rng(11)
        lines = [line for rows, indices in shape for line in svmlight_lines(rng, rows, indices)]
        f = tmp_path / "d.svm"
        f.write_text("\n".join(lines) + "\n")
        assert [int(idx.max(initial=0)) for _, _, idx, _ in data_io._svmlight_blocks(f)] \
            == widths
        assert_same_outcome(outcome(data_io.load_svmlight, f), outcome(oracle_load_svmlight, f))

    def test_csv_across_blocks_matches_oracle(self, tmp_path):
        rng = np.random.default_rng(12)
        lines = ["a,b,label"]
        for i in range(6000):
            lines.append("" if i % 97 == 0 else ",".join(
                [repr(float(v)) for v in rng.standard_normal(2)] + [str(i % 2)]))
        f = tmp_path / "d.csv"
        f.write_bytes("\r\n".join(lines).encode())  # no line break after the last row
        assert f.stat().st_size > 3 * data_io._CSV_BLOCK_BYTES
        assert_same_outcome(outcome(data_io.load_csv, f), outcome(oracle_load_csv, f))

    def test_csv_block_does_not_split_a_quoted_cell(self, tmp_path, monkeypatch):
        # one line per block, but a cell quoted across two lines stays whole
        monkeypatch.setattr(data_io, "_CSV_BLOCK_BYTES", 1)
        f = tmp_path / "d.csv"
        f.write_text('a,label\n1,0\n"2\n",1\n3,"0\r\n"\n')
        got = data_io.load_csv(f)
        assert_same_outcome(got, oracle_load_csv(f))
        assert got[0][:, 0].tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("rows, width, per_row, widest, most", [
        (20_000, 10, 10, "drawn", 1.8),  # all indices and values at once took
                                         # 3.45 X, the tokens of 1024-line
                                         # blocks 2.42 X, all blocks held
                                         # beside X 2.11 X
        (3000, 2000, 12, "drawn", 1.1),  # dense rows for every block took 2.0 X
        # X widened by a copy when a wider index appears took 2.0 X
        (3000, 2000, 12, "last-row", 1.1),
        (3000, 2000, 12, "rising", 1.1),
    ], ids=["dense", "sparse", "sparse-widest-in-last-row", "sparse-rising"])
    def test_svmlight_memory(self, tmp_path, rows, width, per_row, widest, most):
        rng = np.random.default_rng(13)
        idx = rng.integers(1, width + 1, size=(rows, per_row))
        idx[:, 0] = np.arange(rows) % width + 1
        if widest == "last-row":
            idx = np.minimum(idx, width - 1)
        elif widest == "rising":  # row i's indices at most about i * width / rows
            idx = np.minimum(idx, 1 + np.arange(rows)[:, None] * width // rows)
        if widest != "drawn":
            idx[-1, 0] = width
        f = tmp_path / "d.svm"
        f.write_text("".join(" ".join([str(i % 2)] + [f"{j}:{float(v)!r}" for j, v in zip(
            idx[i], rng.standard_normal(per_row))]) + "\n" for i in range(rows)))
        (X, _, d), peak = traced_peak(data_io.load_svmlight, f)
        assert d == width and X.shape == (rows, width)
        assert peak <= most * X.nbytes

    def test_csv_memory(self, tmp_path):
        # X, the raw labels and one block; all blocks held beside X took 2.12 X
        rng = np.random.default_rng(14)
        f = tmp_path / "d.csv"
        f.write_text("".join([",".join(f"x{j}" for j in range(10)) + ",label\n"] + [
            ",".join(map(repr, row)) + f",{i % 2}\n"
            for i, row in enumerate(rng.standard_normal((20_000, 10)).tolist())]))
        small = tmp_path / "small.csv"
        small.write_text("a,label\n1,0\n2,1\n")
        data_io.load_csv(small)  # the C reader's one-time set-up is not the loader's
        (X, _, d), peak = traced_peak(data_io.load_csv, f)
        assert d == 10 and X.shape == (20_000, 10)
        assert peak <= 1.6 * X.nbytes


class TestRowBound:
    """X is allocated from a count of line feeds and grown or cut in place;
    files whose rows that count does not match, whose widths rise as they
    are read, or that can be read only once load as the oracle loads them."""

    @pytest.mark.parametrize("text", [
        "a,b,label\r" + "\r".join(f"{i},{i / 7!r},{i % 2}" for i in range(3000)) + "\r",
        "a,label\r1,0\n2,1\r\n3,0\r4,1",
        "a,label\n\n1,0\n\n\n2,1\n\n",
        "a,b,label\r\n" + "\r\n".join(f"{i},{-i},{i % 2}" for i in range(3000)),
        "label,a\n1,2\n0,3",
    ], ids=["lone-cr", "mixed-line-ends", "blank-lines", "no-final-newline", "label-first"])
    def test_csv(self, tmp_path, text):
        f = tmp_path / "d.csv"
        f.write_bytes(text.encode())
        got = outcome(data_io.load_csv, f)
        assert_same_outcome(got, outcome(oracle_load_csv, f))
        assert got[0].base is None  # X keeps no unused rows

    @pytest.mark.parametrize("text", [
        "\r".join(f"{i % 2} 1:{i} 3:0.5" for i in range(2000)),
        "\n\n1 2:1\n\n0 1:3 # c\n\n",
        "\n".join(f"{i % 2} 1:{i}" for i in range(1000)),
        "\n".join(f"{i % 2} 1:{i}" for i in range(3 * BLOCK)) + "\n1 90:2\n",
    ], ids=["lone-cr", "blank-lines", "no-final-newline", "widest-index-in-last-block"])
    def test_svmlight(self, tmp_path, text):
        f = tmp_path / "d.svm"
        f.write_bytes(text.encode())
        got = outcome(data_io.load_svmlight, f)
        assert_same_outcome(got, outcome(oracle_load_svmlight, f))
        assert got[0].base is None  # X keeps no unused rows

    @pytest.mark.parametrize("held_share, move_bytes", [
        (1, 1 << 16),   # blocks held until they take all of X's bytes
        (10**9, 1),     # X widened at each wider block, one row moved at a time
        (16, 24),
    ])
    def test_svmlight_widened_while_read(self, tmp_path, monkeypatch, held_share, move_bytes):
        # the widest index rises every 7 rows, and a block has no feature at all
        monkeypatch.setattr(data_io, "_HELD_SHARE", held_share)
        monkeypatch.setattr(data_io, "_MOVE_BYTES", move_bytes)
        rng = np.random.default_rng(15)
        lines = svmlight_lines(rng, 3 * BLOCK + 9, lambda i: sorted({1 + i // 7, 1 + i % 5}))
        lines[BLOCK:2 * BLOCK] = svmlight_lines(rng, BLOCK, lambda i: [])
        f = tmp_path / "d.svm"
        f.write_text("\n".join(lines) + "\n")
        assert_same_outcome(data_io.load_svmlight(f), oracle_load_svmlight(f))

    def test_svmlight_too_wide_for_memory(self, tmp_path):
        # X cannot be widened in place; the error names the shape as np.zeros does
        f = tmp_path / "d.svm"
        f.write_text("1 1:1\n0 99999999999999:1\n")
        with pytest.raises(MemoryError, match=r"shape \(2, 99999999999999\)"):
            data_io.load_svmlight(f)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    @pytest.mark.parametrize("load, oracle, text", [
        (data_io.load_csv, oracle_load_csv,
         "a,b,label\n" + "".join(f"{i},{i / 7!r},{i % 2}\n" for i in range(700))),
        (data_io.load_svmlight, oracle_load_svmlight,
         "".join(f"{i % 2} 1:{i} {1 + i // 100}:0.5\n" for i in range(700))),
    ], ids=["csv", "svmlight"])
    def test_pipe(self, tmp_path, load, oracle, text):
        # a pipe can be read once: no row bound is taken, X grows as it is read
        f = tmp_path / "d"
        f.write_text(text)
        r, w = os.pipe()
        try:
            os.write(w, text.encode())  # less than a pipe holds, so it does not block
            os.close(w)
            got = outcome(load, f"/dev/fd/{r}")
        finally:
            os.close(r)
        assert_same_outcome(got, oracle(f))
        assert got[0].base is None

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    @pytest.mark.parametrize("load, text, message", [
        (data_io.load_csv, "a,label\n1,0\nx,1\n", "line 3: non-numeric value"),
        (data_io.load_svmlight, "1 1:1\n0 2:x\n", "line 2: bad feature '2:x'"),
        # the failed block is not the first: its lines are numbered on
        (data_io.load_csv, "a,label\n" + "1,0\n" * 20_000 + "x,1\n",
         "line 20002: non-numeric value"),
        (data_io.load_svmlight, "1 1:1\n" * (2 * BLOCK + 9) + "0 2:x\n",
         f"line {2 * BLOCK + 10}: bad feature '2:x'"),
    ], ids=["csv", "svmlight", "csv-later-block", "svmlight-later-block"])
    def test_malformed_pipe(self, load, text, message):
        # the pipe cannot be read again: its failed block names the line
        assert outcome_through_a_pipe(load, text) == (ParseError, message)


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

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    @pytest.mark.parametrize("fmt, text", MALFORMED)
    def test_same_refusal_through_a_pipe(self, tmp_path, fmt, text):
        f = tmp_path / "bad"
        f.write_bytes(text.encode("utf-8"))
        load = {"csv": data_io.load_csv, "svmlight": data_io.load_svmlight}[fmt]
        assert outcome_through_a_pipe(load, text) == outcome(load, f)


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

    def test_flips_exactly_the_drawn_labels(self):
        X, y, w = data_io.gen_synthetic(1000, 3, noise=0.3, seed=5)
        rng = np.random.default_rng(5)
        rng.standard_normal(3)
        rng.standard_normal((1000, 3))
        flip = rng.random(1000) < 0.3
        clean = np.where(X @ w >= 0, 1.0, -1.0)
        assert y.tobytes() == np.where(flip, -clean, clean).tobytes()

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

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 3 * 1024 + 7, 20_000])
    @pytest.mark.parametrize("d", [1, 3, 10])
    @pytest.mark.parametrize("margin", [0.0, 0.5, 1e200])
    @pytest.mark.parametrize("noise", [0.0, 0.1, 1.0])
    def test_bytes_equal_to_the_oracle(self, n, d, margin, noise):
        got = data_io.gen_synthetic(n, d, margin=margin, noise=noise, seed=n + d)
        want = oracle_gen_synthetic(n, d, margin=margin, noise=noise, seed=n + d)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("margin", [0.0, 0.5])
    def test_holds_x_y_and_a_tile(self, margin):
        # y in the buffer of X @ w, the push and the noise a tile at a time;
        # the whole-array labels took 1.21 x X and the push 2.22 x X
        (X, _, _), peak = traced_peak(data_io.gen_synthetic, 100_000, 10, margin, 0.1, 4)
        assert peak < 1.15 * X.nbytes


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

    @pytest.mark.parametrize("payload", [
        {"n": 3, "indices": [0, 2], "weights": [1.5, 1.5], "lambda": 0.1},
        {"H": [0.25, 1e-300], "flags": {"betas": ["random:3"], "seed": None}, "ok": True},
    ], ids=["coreset", "report"])
    def test_one_key_per_line(self, tmp_path, payload):
        path = tmp_path / "d.json"
        data_io.write_coreset(path, payload)
        text = path.read_text(encoding="utf-8")
        assert json.loads(text) == {"schema": data_io.SCHEMA, **payload}
        lines = text.splitlines()
        assert lines[0] == "{" and lines[-1] == "}"
        keys = [list(json.loads("{" + line.rstrip(",") + "}")) for line in lines[1:-1]]
        assert keys == [[key] for key in ["schema", *payload]]

    def test_report_round_trip(self, tmp_path):
        path = tmp_path / "r.json"
        data_io.write_report(path, {"H": 0.123456789012345678})
        assert data_io.read_coreset(path)["H"] == 0.123456789012345678
