"""Dataset ingestion (svmlight and CSV), synthetic generation, and JSON
serialization of coresets and reports.

All JSON documents carry the schema tag "rlm-coreset/1"; numbers go through
json's repr-based float formatting, which round-trips doubles exactly.
"""

from __future__ import annotations

import csv
import json
import re
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


# Lines per svmlight block: the block's Python strings are converted to arrays
# and dropped before the next block is read.
_BLOCK_LINES = 512
# Every byte except the two separators of "idx:val idx:val ..."; what is left
# after deleting them must be ": " repeated, one ':' per feature token.
_NOT_SEPARATOR = bytes(b for b in range(256) if b not in b": ")
# float() accepts digit-group underscores and non-ASCII decimal digits;
# numpy's C reader does not.
_NOT_PLAIN = re.compile(r"_|(?![0-9])\d")
# Bytes of lines per CSV block, as readlines counts them.
_CSV_BLOCK_BYTES = 1 << 16
# Every byte except the ASCII separator controls \x1c-\x1f, which the C
# reader strips as whitespace and float() refuses.
_NOT_SEPARATOR_CONTROL = bytes(b for b in range(256) if not 0x1C <= b <= 0x1F)


def _svmlight_block(lines):
    """Labels, per-row feature counts, indices and values of one block of
    lines, each converted by one numpy call; ValueError or OverflowError when
    a line is malformed (which one is left to `_svmlight_error`)."""
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


def _svmlight_error(path) -> Exception:
    """Find the first malformed line the way the format is defined, line by
    line, and return its error; only called once a block has failed.  An
    index too large for int64 is reported only if no line breaks the format
    before or after it."""
    too_large = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
                if idx > np.iinfo(np.int64).max and too_large is None:
                    too_large = ParseError(f"feature index {idx} is too large", line=lineno)
    return too_large or ParseError("malformed svmlight file")


def _scatter(X, start, counts, idx, val) -> None:
    """Write one block's triplets into X's rows from start on; a repeated
    index on a line keeps its last value."""
    rows = np.repeat(np.arange(start, start + len(counts)), counts)
    X[rows, idx - 1] = val


def _svmlight_blocks(path):
    """(labels, width, features) of each block of lines, width being the
    block's widest index.  The features take the smaller of two forms: the
    dense (rows x width) array when at least half of its cells are set, the
    rows' feature counts, indices and values otherwise.  Dense rows alone
    would double the memory of a sparse file."""
    with open(path, "r", encoding="utf-8") as fh:
        while lines := list(islice(fh, _BLOCK_LINES)):
            try:
                labels, counts, idx, val = _svmlight_block(lines)
            except (ValueError, OverflowError):
                raise _svmlight_error(path) from None
            del lines
            width = int(idx.max()) if idx.size else 0
            if 2 * idx.size >= len(labels) * width:
                dense = np.zeros((len(labels), width))
                _scatter(dense, 0, counts, idx, val)
                yield labels, width, dense
            else:
                yield labels, width, (counts, idx, val)


def load_svmlight(path) -> Tuple[np.ndarray, np.ndarray, int]:
    """Parse 'label idx:val idx:val ...' lines with 1-based indices into a
    dense (points, labels, d) triple.  Labels may be {0,1} or {-1,+1}.

    Lines are read in blocks; each block's labels, indices and values are
    converted by one numpy call each, with int()/float() semantics.  A
    repeated index on a line keeps its last value.  X is allocated once d
    is known, and each block is dropped once it is copied in."""
    blocks = list(_svmlight_blocks(path))
    n = sum(len(labels) for labels, _, _ in blocks)
    if n == 0:
        raise ParseError("no data rows")
    d = max(width for _, width, _ in blocks)
    X = np.zeros((n, d))
    start = 0
    for i, (labels, width, features) in enumerate(blocks):
        blocks[i] = labels  # the features go once they are in X
        if isinstance(features, np.ndarray):
            X[start:start + len(labels), :width] = features
        else:
            _scatter(X, start, *features)
        start += len(labels)
    return X, np.where(np.concatenate(blocks) <= 0.0, -1.0, 1.0), d


def _csv_blocks(fh, n_columns, label_idx):
    """(feature rows, raw labels) of each block of about 64 KiB of lines, read
    by numpy's C reader.  A block ends only after an even count of quote
    characters, so that no quoted cell is split.  ValueError at a block the
    C reader refuses, whose rows are not n_columns wide, or that holds a
    character the C reader would take as whitespace but float() refuses."""
    lines, quotes = [], 0
    while more := fh.readlines(_CSV_BLOCK_BYTES):
        text = "".join(more)
        if text.encode().translate(None, _NOT_SEPARATOR_CONTROL):
            raise ValueError("ASCII separator control character")
        lines += more
        if '"' in text:
            quotes += text.count('"')
        if quotes % 2 == 0:
            yield from _csv_block(lines, n_columns, label_idx)
            lines = []
    if lines:
        yield from _csv_block(lines, n_columns, label_idx)


def _csv_block(lines, n_columns, label_idx):
    """The block's (feature rows, raw labels), or nothing for blank lines."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        data = np.loadtxt(lines, delimiter=",", comments=None, quotechar='"',
                          ndmin=2, encoding="utf-8")
    if len(data) == 0:
        return
    if data.shape[1] != n_columns:
        raise ValueError("rows are not as wide as the header")
    yield np.delete(data, label_idx, axis=1), data[:, label_idx].copy()


def _csv_error(path, n_columns, reason) -> Exception:
    """Find the first malformed data row, record by record as the csv module
    reads them, and return its error; only called once the C reader failed."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
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
    digit-group underscores and non-ASCII digits."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration as exc:
            raise ParseError("empty file") from exc
        if not header:
            raise ParseError("empty header", line=1)
        if label_column is None:
            label_column = header[-1]
        if label_column not in header:
            raise ParseError(f"label column {label_column!r} not in header")
        label_idx = header.index(label_column)
        rows, raw = [], []
        try:
            for block_rows, block_raw in _csv_blocks(fh, len(header), label_idx):
                rows.append(block_rows)
                raw.append(block_raw)
        except ValueError as exc:
            raise _csv_error(path, len(header), str(exc)) from None
    if not rows:
        raise ParseError("no data rows")
    y = _map_binary_labels(np.concatenate(raw))
    del raw  # only the feature blocks are held beside X
    X = np.concatenate(rows)
    return X, y, X.shape[1]


def gen_synthetic(
    n: int, d: int, margin: float = 0.0, noise: float = 0.0, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standard-normal points labeled by a random hyperplane w*, labels
    flipped with probability noise; margin > 0 pushes points away from the
    separator along w*.  Returns (X, y, w_star)."""
    if n < 1 or d < 1:
        raise InvalidParameterError("n and d must be at least 1")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(d)
    w /= np.linalg.norm(w)
    X = rng.standard_normal((n, d))
    y = np.where(X @ w >= 0, 1.0, -1.0)
    if margin > 0:
        X = X + margin * y[:, None] * w[None, :]
    if noise > 0:
        np.negative(y, out=y, where=rng.random(n) < noise)
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
