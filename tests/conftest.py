import contextlib
import csv
import math
import sys
import tracemalloc

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


def oracle_point_objectives(inst, beta):
    """f_i(beta) = loss_i(beta) + lambda*r(R*beta)/n for every point, one
    point at a time."""
    reg_term = inst.lam * reg_eval(inst.reg, inst.R * beta)
    return [float(loss_eval(inst.loss, -inst.y[i] * (inst.X[i] @ beta)))
            + reg_term / inst.n for i in range(inst.n)]


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it allocated, as tracemalloc
    traces it, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def brute_force_H(inst, cs, beta):
    """Direct re-implementation of the relative error definition, point by point."""
    f = oracle_point_objectives(inst, beta)
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


def oracle_gen_synthetic(n, d, margin=0.0, noise=0.0, seed=0):
    """data_io.gen_synthetic over whole arrays: the labels from one
    np.where, the push as one n x d sum, the noise from one draw of n.  The
    reference the tiled generator must match byte for byte."""
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


def oracle_leaf_sum(dz, X):
    """sum_i dz_i x_i as the kernel adds it on all rows: dz[a:b] @ X[a:b] on
    leaves of model.leaf_rows(d) rows, found by halving as numpy's pairwise
    sum halves (the first half rounded down to a multiple of 8), inside
    blocks of the smallest power of two of leaves that holds
    model.TASK_MARGINS rows, whose sums are added in block order."""
    leaf = model.leaf_rows(X.shape[1])
    block = leaf * 2 ** math.ceil(math.log2(math.ceil(model.TASK_MARGINS / leaf)))

    def pairwise(lo, hi):
        if hi - lo <= leaf:
            return dz[lo:hi] @ X[lo:hi]
        half = (hi - lo) // 2 // 8 * 8
        return pairwise(lo, lo + half) + pairwise(lo + half, hi)

    total = pairwise(0, min(block, len(dz)))
    for lo in range(block, len(dz), block):
        total = total + pairwise(lo, min(lo + block, len(dz)))
    return total


def oracle_objective_grad(inst, cs, beta, grad=True):
    """weighted_objective_grad as one formula over whole arrays: every
    margin, loss and slope held at once, one np.sum (or u @ losses), and the
    gradient as one gemv on weighted rows and by oracle_leaf_sum on all rows.
    The reference the blocked kernel must match bit for bit."""
    if is_full(inst, cs):
        X, y, u = inst.X, inst.y, None
        share = 1.0
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
    loss_grad = oracle_leaf_sum(slope * y, X) if u is None else u * slope * y @ X
    return f, -loss_grad + share * model.reg_grad(inst.reg, beta, scale)


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


@contextlib.contextmanager
def recorded_iterates():
    """Within the block, the list of the coefficient vectors the solver holds
    at each trace entry, in entry order: TrainTrace.append is patched to read
    the beta of the frame that calls it."""
    iterates = []

    class Recording(solver.TrainTrace):
        def append(self, t, f):
            iterates.append(sys._getframe(1).f_locals["beta"].copy())
            super().append(t, f)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "TrainTrace", Recording)
        yield iterates


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


def check_scaling(loss, reg, sc, beta, tol=1e-12):
    """Check reg(beta) >= tau * loss(||beta||) at one hypothesis; vacuously
    true below the sigma threshold."""
    beta = np.asarray(beta, dtype=float)
    norm = float(np.linalg.norm(beta))
    if norm < sc.sigma:
        return True
    return reg_eval(reg, beta) >= sc.tau * float(loss_eval(loss, norm)) - tol


def materialize_two_cluster(inst):
    """The two-cluster instance as explicit n points, for cross-checking the
    grouped evaluator."""
    x = np.concatenate([np.ones(inst.count_a), -np.ones(inst.count_b)]).reshape(-1, 1)
    return RlmInstance(X=x, y=np.ones(inst.n), loss=inst.loss,
                       reg=RegularizerKind.L2_SQUARED, kappa=inst.kappa)


def circle_points(n, idx):
    """The 2-d coordinates of the circle points with the given indices."""
    theta = 2.0 * np.pi * np.asarray(idx, dtype=float) / n
    return np.column_stack([np.cos(theta), np.sin(theta)])


def materialize_circle(inst):
    """The circle instance as explicit lifted points (x, y, 1), for brute-force
    cross-checks: a lifted hypothesis (bx, by, b) is its beta as it stands."""
    X = np.column_stack([circle_points(inst.n, np.arange(inst.n)), np.ones(inst.n)])
    return RlmInstance(X=X, y=np.ones(inst.n), loss=inst.loss,
                       reg=RegularizerKind.L2_SQUARED, kappa=inst.kappa)


def point_line_distance(theta_i, theta):
    """Distance from the circle point at angle theta_i (measured from the
    chunk center) to the vertical chord through the points at +-theta."""
    return np.abs(np.cos(theta_i) - np.cos(theta))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def oracle_tiled_loss_sums(loss, X, y, u, neg_B, block, rows=1024, probes=64):
    """model._tiled_loss_sums in one thread: the rows in blocks of `block`,
    each block's sums added to the total in block order.  Unweighted, a
    block's margins and losses are computed whole and reduced by
    np.sum(axis=1).  Weighted, the block is halved as numpy's pairwise sum
    halves an array (the first half rounded down to a multiple of 8) down to
    pieces of at most `rows` rows, each reduced by losses @ u.  Each product
    is taken per tile of `probes` probes, as the kernel takes it: a tile of
    one probe is a gemv or a dot, whose roundings need not be gemm's."""
    def losses(lo, hi):
        z = np.empty((len(neg_B), hi - lo))
        for p in range(0, len(neg_B), probes):
            z[p:p + probes] = neg_B[p:p + probes] @ X[lo:hi].T
        z *= y[lo:hi]
        return loss_eval(loss, z)

    def weighted(lo, hi):
        if hi - lo <= rows:
            tiles = losses(lo, hi)
            return np.concatenate([tiles[p:p + probes] @ u[lo:hi]
                                   for p in range(0, len(tiles), probes)])
        half = (hi - lo) // 2 // 8 * 8
        return weighted(lo, lo + half) + weighted(lo + half, hi)

    total = None
    for lo in range(0, X.shape[0], block):
        hi = min(lo + block, X.shape[0])
        sums = np.sum(losses(lo, hi), axis=1) if u is None else weighted(lo, hi)
        total = sums if total is None else total + sums
    return total


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
