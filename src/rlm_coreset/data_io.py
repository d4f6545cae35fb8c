"""Dataset ingestion (svmlight and CSV), synthetic generation, and JSON
serialization of coresets and reports.

All JSON documents carry the schema tag "rlm-coreset/1"; numbers go through
json's repr-based float formatting, which round-trips doubles exactly.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .errors import (
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


def load_svmlight(path) -> Tuple[np.ndarray, np.ndarray, int]:
    """Parse 'label idx:val idx:val ...' lines with 1-based indices into a
    dense (points, labels, d) triple.  Labels may be {0,1} or {-1,+1}."""
    rows = []
    labels = []
    d = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError as exc:
                raise ParseError(f"bad label {parts[0]!r}", line=lineno) from exc
            if label not in (0.0, 1.0, -1.0):
                raise LabelError(f"line {lineno}: label {label} not in {{0,1}} or {{-1,+1}}")
            entries = []
            for token in parts[1:]:
                try:
                    idx_s, val_s = token.split(":", 1)
                    idx, val = int(idx_s), float(val_s)
                except ValueError as exc:
                    raise ParseError(f"bad feature {token!r}", line=lineno) from exc
                if idx < 1:
                    raise ParseError(f"feature index {idx} must be >= 1", line=lineno)
                entries.append((idx, val))
                d = max(d, idx)
            rows.append(entries)
            labels.append(-1.0 if label <= 0.0 else 1.0)
    if not rows:
        raise ParseError("no data rows")
    X = np.zeros((len(rows), d))
    for i, entries in enumerate(rows):
        for idx, val in entries:
            X[i, idx - 1] = val
    return X, np.asarray(labels), d


def load_csv(path, label_column: Optional[str] = None) -> Tuple[np.ndarray, np.ndarray, int]:
    """Load a numeric CSV with header; the label column (default: the last
    one) is mapped onto {-1, +1}, the rest are features in header order."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration as exc:
            raise ParseError("empty file") from exc
        if label_column is None:
            label_column = header[-1]
        if label_column not in header:
            raise ParseError(f"label column {label_column!r} not in header")
        label_idx = header.index(label_column)
        feats = [j for j in range(len(header)) if j != label_idx]
        rows, raw_labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} columns, got {len(row)}", line=lineno)
            try:
                rows.append([float(row[j]) for j in feats])
                raw_labels.append(float(row[label_idx]))
            except ValueError as exc:
                raise ParseError("non-numeric value", line=lineno) from exc
    if not rows:
        raise ParseError("no data rows")
    X = np.asarray(rows)
    y = _map_binary_labels(np.asarray(raw_labels))
    return X, y, X.shape[1]


def gen_synthetic(
    n: int, d: int, margin: float = 0.0, noise: float = 0.0, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standard-normal points labeled by a random hyperplane w*, labels
    flipped with probability noise; margin > 0 pushes points away from the
    separator along w*.  Returns (X, y, w_star)."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be at least 1")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(d)
    w /= np.linalg.norm(w)
    X = rng.standard_normal((n, d))
    y = np.where(X @ w >= 0, 1.0, -1.0)
    if margin > 0:
        X = X + margin * y[:, None] * w[None, :]
    if noise > 0:
        flip = rng.random(n) < noise
        y = np.where(flip, -y, y)
    return X, y, w


def write_coreset(path, payload: dict) -> None:
    doc = {"schema": SCHEMA}
    doc.update(payload)
    Path(path).write_text(json.dumps(doc, indent=2), encoding="utf-8")


def read_coreset(path) -> dict:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != SCHEMA:
        raise SchemaMismatchError(f"expected schema {SCHEMA!r}, got {schema!r}")
    return doc


# reports share the coreset container format
write_report = write_coreset
read_report = read_coreset
