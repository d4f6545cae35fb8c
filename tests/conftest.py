import csv

import numpy as np
import pytest

from rlm_coreset import data_io
from rlm_coreset.errors import LabelError, ParseError
from rlm_coreset.model import LossKind, RegularizerKind, RlmInstance, loss_eval, reg_eval

ALL_PAIRS = [(loss, reg) for loss in LossKind for reg in RegularizerKind]


def random_instance(rng, n=50, d=3, loss=LossKind.LOGISTIC,
                    reg=RegularizerKind.L2_SQUARED, kappa=0.5):
    X = rng.standard_normal((n, d))
    y = rng.choice([-1.0, 1.0], size=n)
    return RlmInstance(X=X, y=y, loss=loss, reg=reg, kappa=kappa)


def oracle_point_objectives(inst, h):
    """f_i(beta) = loss_i(beta) + lambda*r(R*beta)/n for every point, one
    point at a time."""
    reg_term = inst.lam * reg_eval(inst.reg, inst.R * np.append(h.beta, h.bias)
                                   if h.bias else inst.R * h.beta)
    return [float(loss_eval(inst.loss, -inst.y[i] * (inst.X[i] @ h.beta + h.bias)))
            + reg_term / inst.n for i in range(inst.n)]


def brute_force_H(inst, cs, h):
    """Direct re-implementation of the relative error definition, point by point."""
    f = oracle_point_objectives(inst, h)
    full = sum(f)
    core = sum(w * f[i] for i, w in zip(cs.indices, cs.weights))
    return abs(full - core) / full


def oracle_load_svmlight(path):
    """Line-by-line svmlight parser, one float()/int() per value: the
    reference the vectorized loader must match bit for bit."""
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


def oracle_load_csv(path, label_column=None):
    """Record-by-record CSV parser through the csv module and float(): the
    reference the numpy-read loader must match bit for bit."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if label_column is None:
            label_column = header[-1]
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
    y = data_io._map_binary_labels(np.asarray(raw_labels))
    return X, y, X.shape[1]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
