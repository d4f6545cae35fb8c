"""Dataset ingestion (svmlight and CSV), synthetic generation, and JSON
serialization of coresets and reports.

The loaders read a file once, in blocks of lines.  When a block fails, its
own lines are scanned one by one, numbered from the block's first line,
and the first bad line is named: from a regular file as from a pipe.  A
byte that is not UTF-8 is read as a lone surrogate, which no block
accepts, so it is refused with its line's number too.

All JSON documents carry the schema tag "rlm-coreset/1"; numbers go through
json's repr-based float formatting, which round-trips doubles exactly.
"""

from __future__ import annotations

import csv
import json
import os
import re
import stat
import warnings
from itertools import islice
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .errors import (
    InvalidParameterError,
    LabelError,
    NonBinaryLabelsError,
    ParseError,
    SchemaMismatchError,
)
from .model import ROW_TILE

SCHEMA = "rlm-coreset/1"


def _map_binary_labels(raw: np.ndarray) -> np.ndarray:
    """Map a two-valued label column onto {-1, +1}: values <= 0 (or the
    smaller of the two classes) become -1."""
    values = np.unique(raw)
    if len(values) > 2:
        raise NonBinaryLabelsError(f"{len(values)} distinct label values")
    if len(values) == 1:
        return np.where(raw <= 0, -1.0, 1.0)
    lo, hi = values
    return np.where(raw == lo, -1.0, 1.0)


# Lines per svmlight block: the block's Python strings, the loader's largest
# transient, are converted to arrays and dropped before the next block is read.
_BLOCK_LINES = 256
# Every byte except the two separators of "idx:val idx:val ..."; what is left
# after deleting them must be ": " repeated, one ':' per feature token.
_NOT_SEPARATOR = bytes(b for b in range(256) if b not in b": ")
# float() accepts digit-group underscores and non-ASCII decimal digits;
# numpy's C reader does not.
_NOT_PLAIN = re.compile(r"_|(?![0-9])\d")
# Bytes of lines per CSV block, as readlines counts them.
_CSV_BLOCK_BYTES = 1 << 16
# Bytes of rows _widen moves at a time.
_MOVE_BYTES = 1 << 16
# svmlight blocks wider than X are held until they take 1/_HELD_SHARE of
# X's bytes, then X is widened once for all of them: X plus a sixteenth,
# and a file whose widest index rises block after block widens X a bounded
# number of times.
_HELD_SHARE = 16
# The loaders decode bytes that are not UTF-8 to the lone surrogates
# U+DC80..U+DCFF, which str.encode refuses, instead of failing at whatever
# read decodes them; _utf8_error names the line that holds one.
_DECODE_ERRORS = "surrogateescape"
_SURROGATE = re.compile("[\udc80-\udcff]")
# Every byte except the ASCII separator controls \x1c-\x1f, which the C
# reader strips as whitespace and float() refuses.
_NOT_SEPARATOR_CONTROL = bytes(b for b in range(256) if not 0x1C <= b <= 0x1F)


def _utf8_error(text, first) -> Optional[ParseError]:
    """The error for the first byte of text that is not UTF-8, on its line
    counted from first, the number of text's first line; None when every
    byte is UTF-8.  Lines end at '\n', '\r' or '\r\n'."""
    bad = _SURROGATE.search(text)
    if bad is None:
        return None
    line = first + len(re.findall("\r\n?|\n", text[:bad.start()]))
    return ParseError(f"byte 0x{ord(bad.group()) - 0xDC00:02x} is not UTF-8", line=line)


def _svmlight_block(lines):
    """Labels, per-row feature counts, indices and values of one block of
    lines, each converted by one numpy call; ValueError or OverflowError when
    a line is malformed (which one is left to `_svmlight_error`)."""
    "".join(lines).encode()  # a byte that is not UTF-8, in a comment too, fails here
    parts = [line.split("#", 1)[0].split(None, 1) for line in lines]
    parts = [p for p in parts if p]
    rests = [p[1] if len(p) > 1 else "" for p in parts]
    tokens = " ".join(" ".join(rests).split())
    n_tokens = tokens.count(" ") + 1 if tokens else 0
    if tokens.encode().translate(None, _NOT_SEPARATOR) != (b": " * n_tokens)[:-1]:
        raise ValueError("a feature token without exactly one ':'")
    fields = tokens.replace(" ", ":").split(":") if tokens else []
    labels = np.array([p[0] for p in parts], dtype=float)
    if not np.isin(labels, (-1.0, 0.0, 1.0)).all():
        raise ValueError("a label outside {0,1} and {-1,+1}")
    idx = np.array(fields[0::2], dtype=np.int64)
    if idx.size and idx.min() < 1:
        raise ValueError("a feature index below 1")
    counts = np.array([r.count(":") for r in rests], dtype=np.int64)
    return labels, counts, idx, np.array(fields[1::2], dtype=float)


def _svmlight_error(lines, first) -> Exception:
    """Find the first malformed line of a block of lines that failed, whose
    first is line number first, line by line the way the format is defined,
    and return its error."""
    for lineno, line in enumerate(lines, start=first):
        if error := _utf8_error(line, lineno):
            return error
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        try:
            label = float(parts[0])
        except ValueError:
            return ParseError(f"bad label {parts[0]!r}", line=lineno)
        if label not in (0.0, 1.0, -1.0):
            return LabelError(f"line {lineno}: label {label} not in {{0,1}} or {{-1,+1}}")
        for token in parts[1:]:
            try:
                idx_s, val_s = token.split(":", 1)
                idx, _ = int(idx_s), float(val_s)
            except ValueError:
                return ParseError(f"bad feature {token!r}", line=lineno)
            if idx < 1:
                return ParseError(f"feature index {idx} must be >= 1", line=lineno)
            if idx > np.iinfo(np.int64).max:
                return ParseError(f"feature index {idx} is too large", line=lineno)
    return ParseError("malformed svmlight file")


def _line_bound(path) -> int:
    """The lines of a regular file as its line feeds split them, counted in
    one binary pass over the file, 64 KiB at a time: an upper bound on its
    data rows.  A lone '\r' also ends a line in text mode, so a file with
    such line ends can hold more.  0 for a pipe or any other file that can
    be read only once."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        return 0
    lines, last, buf = 0, ord("\n"), bytearray(1 << 16)
    with open(path, "rb") as fh:
        while size := fh.readinto(buf):
            lines += buf.count(b"\n", 0, size)
            last = buf[size - 1]
    return lines + (last != ord("\n"))


def _resize(a, shape) -> None:
    """Resize a in place (ndarray.resize), zero-filling what it adds; no view
    of a may be alive.  A failed allocation is raised as np.zeros raises it,
    naming the shape."""
    try:
        a.resize(shape, refcheck=False)
    except MemoryError:
        np.zeros(shape)
        raise


def _reserve(a, rows) -> None:
    """Give a at least rows rows, and at least twice its rows when it needs
    more."""
    if rows > len(a):
        _resize(a, (max(rows, 2 * len(a)), *a.shape[1:]))


def _widen(X, used, width) -> None:
    """Widen X to width columns: its first used rows move to their new
    places, last row first, _MOVE_BYTES of them at a time through one
    buffer, and the cells they leave are zeroed.  The rows from used on
    must be all zero; they stay so."""
    n, w = X.shape
    if width <= w:
        return
    _resize(X, (n, width))
    if not (used and w):
        return
    flat = X.reshape(-1)  # a view of X, dropped on return
    step = max(1, _MOVE_BYTES // X[:1, :w].nbytes)
    moved = np.empty((min(step, used), w))
    for hi in range(used, 0, -step):
        lo = max(hi - step, 0)
        rows = moved[:hi - lo]
        rows[...] = flat[lo * w:hi * w].reshape(hi - lo, w)
        X[lo:hi, w:] = 0.0
        X[lo:hi, :w] = rows


def _scatter(X, start, counts, idx, val) -> None:
    """Write one block's triplets into X's rows from start on; a repeated
    index on a line keeps its last value."""
    rows = np.repeat(np.arange(start, start + len(counts)), counts)
    X[rows, idx - 1] = val


def _svmlight_blocks(path):
    """The labels, the rows' feature counts, indices and values of each block
    of lines."""
    first = 1  # the number of the block's first line
    with open(path, "r", encoding="utf-8", errors=_DECODE_ERRORS) as fh:
        while lines := list(islice(fh, _BLOCK_LINES)):
            try:
                block = _svmlight_block(lines)
            except (ValueError, OverflowError):
                raise _svmlight_error(lines, first) from None
            first += len(lines)
            del lines
            yield block


def load_svmlight(path) -> Tuple[np.ndarray, np.ndarray, int]:
    """Parse 'label idx:val idx:val ...' lines with 1-based indices into a
    dense (points, labels, d) triple.  Labels may be {0,1} or {-1,+1}.

    Lines are read in blocks; each block's labels, indices and values are
    converted by one numpy call each, with int()/float() semantics, and
    scattered into X at once.  A repeated index on a line keeps its last
    value.  X starts with a row for each line of a regular file
    (_line_bound) and doubles its rows when it needs more.  It is as wide
    as the widest index scattered so far: a block with a wider index is
    held as its triplets, and X widened in place (_widen) once the held
    blocks take 1/_HELD_SHARE of X's bytes or the file ends.  X's unused
    rows are cut off in place, so it is returned exactly n x d."""
    X = np.zeros((_line_bound(path), 0))
    raw, rows = np.zeros(len(X)), 0
    held, held_bytes, d = [], 0, 0

    def scatter_held():
        _widen(X, rows, d)
        for block in held:
            _scatter(X, *block)
        held.clear()

    for labels, counts, idx, val in _svmlight_blocks(path):
        end = rows + len(labels)
        _reserve(X, end)
        _reserve(raw, end)
        raw[rows:end] = labels
        width = int(idx.max(initial=0))
        if width <= X.shape[1]:
            _scatter(X, rows, counts, idx, val)
        else:
            held.append((rows, counts, idx, val))
            held_bytes += counts.nbytes + idx.nbytes + val.nbytes
            d = max(d, width)
        rows = end
        if held and _HELD_SHARE * held_bytes >= X.nbytes:
            scatter_held()
            held_bytes = 0
    if rows == 0:
        raise ParseError("no data rows")
    scatter_held()
    _resize(X, (rows, X.shape[1]))
    return X, np.where(raw[:rows] <= 0.0, -1.0, 1.0), X.shape[1]


def _csv_blocks(fh):
    """The lines of each block of about 64 KiB of fh's lines.  A block ends
    only after an even count of quote characters, so that no quoted cell is
    split."""
    lines, quotes = [], 0
    while more := fh.readlines(_CSV_BLOCK_BYTES):
        lines += more
        quotes += "".join(more).count('"')
        if quotes % 2 == 0:
            yield lines
            lines = []
    if lines:
        yield lines


def _csv_block(lines, n_columns):
    """The (rows, n_columns) array of a block's lines, read by numpy's C
    reader; no rows for blank lines.  ValueError at a block the C reader
    refuses, whose rows are not n_columns wide, or that holds a character
    the C reader would take as whitespace but float() refuses."""
    if "".join(lines).encode().translate(None, _NOT_SEPARATOR_CONTROL):
        raise ValueError("ASCII separator control character")
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        data = np.loadtxt(lines, delimiter=",", comments=None, quotechar='"',
                          ndmin=2, encoding="utf-8")
    if len(data) == 0:
        return np.empty((0, n_columns))
    if data.shape[1] != n_columns:
        raise ValueError("rows are not as wide as the header")
    return data


def _csv_error(lines, first, n_columns, reason) -> Exception:
    """Find the first malformed data row of a block of lines the C reader
    failed on, record by record as the csv module reads them, numbered from
    first, the number of the block's first line, and return its error."""
    for lineno, row in enumerate(csv.reader(lines), start=first):
        if error := _utf8_error(",".join(row), lineno):
            return error
        if not row:
            continue
        if len(row) != n_columns:
            return ParseError(f"expected {n_columns} columns, got {len(row)}", line=lineno)
        try:
            [float(cell) for cell in row]
        except ValueError:
            return ParseError("non-numeric value", line=lineno)
        for cell in row:
            if _NOT_PLAIN.search(cell):
                return ParseError(
                    f"{cell.strip()!r}: digit-group underscores and non-ASCII "
                    "digits are not accepted", line=lineno)
    return ParseError(f"malformed CSV file: {reason}")


def load_csv(path, label_column: Optional[str] = None) -> Tuple[np.ndarray, np.ndarray, int]:
    """Load a numeric CSV with header; the label column (default: the last
    one) is mapped onto {-1, +1}, the rest are features in header order.

    The header is read with the csv module, the body block by block by
    numpy's C reader, which parses values as float() does but refuses
    digit-group underscores and non-ASCII digits.  Each block is written
    into X as it is read.  X starts with a row for each line of a regular
    file past the header (_line_bound), doubles its rows in place when it
    needs more, and has its unused rows cut off in place, so it is returned
    exactly n x d."""
    bound = max(_line_bound(path) - 1, 0)  # less the header's line
    with open(path, "r", encoding="utf-8", errors=_DECODE_ERRORS, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration as exc:
            raise ParseError("empty file") from exc
        # a quoted name keeps its line ends, and only they end the header's
        # lines: the names, joined, count its lines
        if error := _utf8_error(",".join(header), 1):
            raise error
        if not header:
            raise ParseError("empty header", line=1)
        if label_column is None:
            label_column = header[-1]
        if label_column not in header:
            raise ParseError(f"label column {label_column!r} not in header")
        label_idx = header.index(label_column)
        X, raw, rows = np.zeros((bound, len(header) - 1)), np.zeros(bound), 0
        # the block being read, and the number of its first line
        lines, first = [], reader.line_num + 1
        try:
            for lines in _csv_blocks(fh):
                data = _csv_block(lines, len(header))
                end = rows + len(data)
                _reserve(X, end)
                _reserve(raw, end)
                X[rows:end, :label_idx] = data[:, :label_idx]
                X[rows:end, label_idx:] = data[:, label_idx + 1:]
                raw[rows:end] = data[:, label_idx]
                rows = end
                first += len(lines)
        except ValueError as exc:
            raise _csv_error(lines, first, len(header), str(exc)) from None
    if not rows:
        raise ParseError("no data rows")
    _resize(X, (rows, X.shape[1]))
    return X, _map_binary_labels(raw[:rows]), X.shape[1]


def gen_synthetic(
    n: int, d: int, margin: float = 0.0, noise: float = 0.0, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standard-normal points labeled by a random hyperplane w*, labels
    flipped with probability noise; margin > 0 pushes points away from the
    separator along w*.  Returns (X, y, w_star).

    y is built in the buffer of X @ w*, and the labels, the push and the
    noise are taken ROW_TILE rows at a time, so nothing beside X and y is
    larger than a tile; the noise is drawn tile by tile, which gives the
    doubles of one draw of n."""
    if n < 1 or d < 1:
        raise InvalidParameterError("n and d must be at least 1")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(d)
    w /= np.linalg.norm(w)
    X = rng.standard_normal((n, d))
    y = X @ w
    for lo in range(0, n, ROW_TILE):
        Xt, yt = X[lo:lo + ROW_TILE], y[lo:lo + ROW_TILE]
        positive = yt >= 0
        yt.fill(-1.0)
        np.copyto(yt, 1.0, where=positive)
        if margin > 0:
            Xt += margin * yt[:, None] * w
        if noise > 0:
            np.negative(yt, out=yt, where=rng.random(len(yt)) < noise)
    return X, y, w


def write_coreset(path, payload: dict) -> None:
    """One top-level key per line.  Each value is encoded by json's C
    encoder, which json.dumps skips whenever an indent is given."""
    doc = {"schema": SCHEMA}
    doc.update(payload)
    lines = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in doc.items())
    Path(path).write_text("{\n" + lines + "\n}", encoding="utf-8")


def read_coreset(path) -> dict:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != SCHEMA:
        raise SchemaMismatchError(f"expected schema {SCHEMA!r}, got {schema!r}")
    return doc


# reports share the coreset container format, and read_coreset reads them
write_report = write_coreset
