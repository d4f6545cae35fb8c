import csv
import math

import numpy as np
import pytest

from rlm_coreset import data_io, model, solver
from rlm_coreset.errors import LabelError, NonFiniteError, ParseError, StreamTooShortError
from rlm_coreset.model import (
    LossKind,
    RegularizerKind,
    RlmInstance,
    WeightedCoreset,
    is_full,
    loss_eval,
    reg_eval,
)

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


def oracle_softplus(z):
    """Logistic loss value in its two-exponential form: the reference the
    in-place softplus must match bit for bit."""
    z = np.asarray(z, dtype=float)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def oracle_sigmoid(z):
    """Logistic loss slope in its two-division form: the reference the
    one-division sigmoid must match bit for bit."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def oracle_objective_grad(inst, cs, beta, grad=True):
    """weighted_objective_grad as one formula over whole arrays: every
    margin, loss and slope held at once, one np.sum (or u @ losses) and one
    gemv.  The reference the blocked kernel must match bit for bit."""
    if is_full(inst, cs):
        X, y, u, share = inst.X, inst.y, None, 1.0
    else:
        X, y, u = inst.X[cs.indices], inst.y[cs.indices], cs.weights
        share = math.fsum(cs.weights) / inst.n
    z = -y * (X @ beta)
    if inst.loss is LossKind.LOGISTIC:
        losses, slope = oracle_softplus(z), oracle_sigmoid(z)
    else:
        losses, slope = np.maximum(0.0, 1.0 + z), (z > -1.0).astype(float)
    loss_sum = float(np.sum(losses)) if u is None else float(u @ losses)
    scale = inst.reg_scale
    f = loss_sum + share * (scale * reg_eval(inst.reg, beta))
    if not grad:
        return f, None
    dz = slope * y if u is None else u * slope * y
    return f, -(dz @ X) + share * model.reg_grad(inst.reg, beta, scale)


def oracle_train_gd(inst, cfg, cs=None):
    """Full-batch GD that always runs to grad_tol or max_iters, with a
    separate full-data evaluation for every trace point: the reference whose
    final beta the stopping solver must match bit for bit and whose trace
    its trace must be a prefix of.  Returns (beta, objectives)."""
    n = inst.n
    if cs is None:
        cs = WeightedCoreset(indices=np.arange(n), weights=np.ones(n))
    full_cs = cs if is_full(inst, cs) else WeightedCoreset(indices=np.arange(n),
                                                           weights=np.ones(n))
    full = cs is full_cs
    smooth = inst.loss is LossKind.LOGISTIC and inst.reg is not RegularizerKind.L1
    beta = np.zeros(inst.d)
    objectives = []
    best_beta, best_f = beta.copy(), np.inf
    step = solver.STEP_INIT
    for it in range(cfg.max_iters):
        f, g = oracle_objective_grad(inst, cs, beta)
        if not (np.isfinite(f) and np.all(np.isfinite(g))):
            raise NonFiniteError(f"non-finite objective/gradient at iter {it}")
        gnorm = float(np.linalg.norm(g))
        if f < best_f:
            best_f, best_beta = f, beta.copy()
        if gnorm <= cfg.grad_tol:
            objectives.append(f if full else
                              oracle_objective_grad(inst, full_cs, beta, grad=False)[0])
            break
        if smooth:
            step *= 2.0
            while True:
                cand = beta - step * g
                f_new, _ = oracle_objective_grad(inst, cs, cand, grad=False)
                if f_new <= f - solver.ARMIJO_C * step * gnorm * gnorm:
                    break
                step *= solver.ARMIJO_SHRINK
                if step < 1e-20:
                    raise NonFiniteError("Armijo backtracking underflow")
            beta = cand
        else:
            beta = beta - solver.STEP_INIT / np.sqrt(it + 1.0) * g / max(gnorm, 1e-30)
        objectives.append(oracle_objective_grad(inst, full_cs, beta, grad=False)[0])
    return (beta if smooth else best_beta), objectives


def oracle_stream_sample(stream, q, seed):
    """Per-row reservoir, one scalar rng.integers call per row past the q-th,
    with the radius as the 1-D norm sqrt(x.x): the reference whose points,
    labels, weights and n the block reservoir must match byte for byte.
    Returns (points, labels, weights, R, n)."""
    if q < 1:
        raise ValueError("q must be at least 1")
    rng = np.random.default_rng(seed)
    points, labels = [], []
    seen, radius = 0, 0.0
    for x, y in stream:
        x = np.asarray(x, dtype=float)
        radius = max(radius, math.sqrt(x.dot(x)))
        i = seen
        seen += 1
        if i < q:
            points.append(x)
            labels.append(float(y))
            continue
        j = int(rng.integers(0, i + 1))
        if j < q:
            points[j] = x
            labels[j] = float(y)
    if seen == 0:
        raise StreamTooShortError("empty stream")
    kept = len(points)
    w = np.ones(kept) if seen <= q else np.full(kept, seen / q)
    return np.vstack(points), np.asarray(labels), w, radius, seen


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def oracle_tiled_loss_sums(loss, X, y, u, neg_B, rows=1024, probes=64):
    """model._tiled_loss_sums as one loop in one thread: each tile's loss
    sums added to the running sums in row-tile order."""
    sums = np.zeros(neg_B.shape[0])
    for lo in range(0, X.shape[0], rows):
        Xt, yt = X[lo:lo + rows], y[lo:lo + rows]
        ut = None if u is None else u[lo:lo + rows]
        for p in range(0, neg_B.shape[0], probes):
            z = neg_B[p:p + probes] @ Xt.T
            z *= yt
            losses = loss_eval(loss, z)
            sums[p:p + probes] += losses.sum(axis=1) if ut is None else losses @ ut
    return sums


@pytest.fixture
def serial_and_pooled(monkeypatch):
    """Call fn() once with one usable CPU, where ordered_map runs its tasks
    in the calling thread, and once with two, where they go to the pool;
    return both results."""
    def run(fn):
        monkeypatch.setattr(model, "_usable_cpus", lambda: 1)
        serial = fn()
        monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
        return serial, fn()
    return run
