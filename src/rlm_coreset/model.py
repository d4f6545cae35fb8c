"""Core domain types, the one objective kernel, and the relative coreset
approximation error H.

The objective being approximated is

    F(beta) = sum_i loss(-y_i beta.x_i) + lambda * reg(R * beta)

with the per-point share f_i(beta) = loss_i(beta) + lambda*reg(R*beta)/n.
Its value and (sub)gradient on full data or on a weighted coreset are
computed in one place, ``weighted_objective_grad``; the solver and the
per-probe evaluators call it.  No pass over X allocates an n x d
temporary: R and the finiteness check read X in blocks of ROW_BLOCK rows,
and the full-data loss sum is built from leaves of LEAF_ROWS rows by
``pairwise_sum``, the same floats as over whole arrays.
``block_objectives`` evaluates a block of probes at once from the same loss
and regularizer terms, in cache-sized tiles of X, spread over the usable
CPUs by ``ordered_map``.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .errors import InvalidParameterError, ZeroObjectiveError


class LossKind(Enum):
    LOGISTIC = "logistic"
    HINGE = "hinge"


class RegularizerKind(Enum):
    L1 = "l1"
    L2 = "l2"
    L2_SQUARED = "l2_squared"


def vc_bound(d: int) -> int:
    """VC-dimension bound used in the sample-size formula (d+1 for both losses)."""
    return d + 1


def _exp_neg_abs(z: np.ndarray) -> np.ndarray:
    """exp(-|z|) in one new array: the one exponential that softplus and the
    sigmoid share, and never of a positive argument, so it cannot overflow."""
    e = np.abs(z, out=np.empty(np.shape(z)))
    np.negative(e, out=e)
    return np.exp(e, out=e)


def softplus(z, e=None):
    """Numerically stable log(1 + exp(z)) = max(z, 0) + log1p(exp(-|z|));
    works on scalars (a 0-d array comes back) and arrays.  e, when given, is
    exp(-|z|) and is overwritten with the result."""
    z = np.asarray(z, dtype=float)
    if e is None:
        e = _exp_neg_abs(z)
    np.log1p(e, out=e)
    e += np.maximum(z, 0.0)
    return e


def loss_eval(kind: LossKind, z, e=None):
    """Evaluate the loss at margin z. Vectorized over z; e is passed on to
    softplus."""
    z = np.asarray(z, dtype=float)
    if kind is LossKind.LOGISTIC:
        return softplus(z, e)
    return np.maximum(0.0, 1.0 + z)


def loss_slope(kind: LossKind, z: np.ndarray, e=None) -> np.ndarray:
    """Derivative of the loss at margin z (0 at the hinge kink).  For the
    logistic loss e, when given, is exp(-|z|); it is read, not changed."""
    if kind is LossKind.LOGISTIC:
        # sigmoid(z) = 1/(1+e) for z >= 0 and e/(1+e) below: one division
        if e is None:
            e = _exp_neg_abs(z)
        s = np.where(z >= 0, 1.0, e)
        s /= 1.0 + e
        return s
    return (z > -1.0).astype(float)


def reg_eval(kind: RegularizerKind, v) -> float:
    """Evaluate the regularizer r(v) for a coefficient vector v."""
    v = np.asarray(v, dtype=float)
    if kind is RegularizerKind.L1:
        return float(np.sum(np.abs(v)))
    if kind is RegularizerKind.L2:
        return float(np.linalg.norm(v))
    return float(np.dot(v.ravel(), v.ravel()))


def reg_grad(kind: RegularizerKind, v, scale: float = 1.0) -> np.ndarray:
    """(Sub)gradient of scale * r(v), with scale applied before the division
    by the norm for the 2-norm."""
    v = np.asarray(v, dtype=float)
    if kind is RegularizerKind.L2_SQUARED:
        return 2.0 * scale * v
    if kind is RegularizerKind.L2:
        norm = float(np.linalg.norm(v))
        return scale * v / norm if norm > 0 else np.zeros_like(v)
    return scale * np.sign(v)


# rows of X per block of the row-norm and finiteness passes: each block's
# temporaries are ROW_BLOCK x d, never n x d
ROW_BLOCK = 8192
# most rows per leaf of the full-data loss sum (at least numpy's pairwise
# block of 128, below which np.sum stops halving)
LEAF_ROWS = 1 << 14


def max_row_norm(X: np.ndarray) -> float:
    """The largest row 2-norm of a 2-D array, 0.0 when it has no rows: the
    radius R of an instance and of a streamed reservoir.  The norms are
    np.linalg.norm's, taken ROW_BLOCK rows at a time; a max is exact, so R
    is the float the whole array gives."""
    if not X.shape[0]:
        return 0.0
    R = np.max(np.linalg.norm(X[:ROW_BLOCK], axis=1))
    for lo in range(ROW_BLOCK, X.shape[0], ROW_BLOCK):
        R = np.maximum(R, np.max(np.linalg.norm(X[lo:lo + ROW_BLOCK], axis=1)))
    return float(R)


def pairwise_sum(leaf_sum, lo: int, hi: int, leaf: int) -> float:
    """np.sum of values lo..hi-1 that are never held at once, the same float:
    the range is halved as numpy's pairwise summation halves an array (the
    first half's length rounded down to a multiple of 8) down to pieces of
    at most leaf values, and leaf_sum(a, b) returns np.sum of values a..b-1.
    leaf must be at least 128, numpy's smallest halved length."""
    n = hi - lo
    if n <= leaf:
        return leaf_sum(lo, hi)
    n2 = n // 2
    n2 -= n2 % 8
    return (pairwise_sum(leaf_sum, lo, lo + n2, leaf)
            + pairwise_sum(leaf_sum, lo + n2, hi, leaf))


@dataclass(frozen=True)
class Hypothesis:
    """Coefficient vector, with an optional bias used by lifted (circle) instances."""

    beta: np.ndarray
    bias: float = 0.0

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        if not (np.all(np.isfinite(beta)) and np.isfinite(self.bias)):
            raise ValueError("hypothesis components must be finite")
        object.__setattr__(self, "beta", beta)

    def norm(self) -> float:
        """2-norm of the full coefficient vector including the bias."""
        return float(np.sqrt(np.dot(self.beta, self.beta) + self.bias**2))


@dataclass(frozen=True)
class WeightedCoreset:
    """Indices into an instance and one weight per index.

    The weight sum and whether the coreset is the identity (indices 0..q-1,
    unit weights) are computed once here.  The coreset is frozen and its
    arrays are made read-only, as RlmInstance does with X and y, so neither
    can go stale.
    """

    indices: np.ndarray
    weights: np.ndarray
    is_identity: bool = field(init=False, repr=False, compare=False)
    _weight_sum: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        w = np.asarray(self.weights, dtype=float)
        if idx.shape != w.shape or idx.ndim != 1:
            raise ValueError("indices and weights must be 1-d of equal length")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        idx.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "is_identity", bool(
            np.all(w == 1.0) and np.array_equal(idx, np.arange(len(idx)))))
        # fsum: exactly rounded, so the sum-equals-n invariant survives float
        object.__setattr__(self, "_weight_sum", math.fsum(w))

    @property
    def size(self) -> int:
        return len(self.indices)

    def weight_sum(self) -> float:
        return self._weight_sum


@dataclass(frozen=True)
class RlmInstance:
    """Immutable dataset plus loss/regularizer configuration.

    lambda is derived as lambda_scale * n**kappa; R is the maximum point 2-norm.
    """

    X: np.ndarray
    y: np.ndarray
    loss: LossKind
    reg: RegularizerKind
    kappa: float
    lambda_scale: float = 1.0
    lam: float = field(init=False)
    R: float = field(init=False)

    def __post_init__(self):
        X = np.ascontiguousarray(np.atleast_2d(np.asarray(self.X, dtype=float)))
        y = np.asarray(self.y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y length mismatch")
        if not all(np.isfinite(X[lo:lo + ROW_BLOCK]).all()
                   for lo in range(0, X.shape[0], ROW_BLOCK)):
            raise ValueError("points must be finite")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be in {-1, +1}")
        if not (0.0 < self.kappa < 1.0):
            raise InvalidParameterError(f"kappa must lie in (0, 1), got {self.kappa!r}")
        lam = self.lambda_scale * X.shape[0] ** self.kappa
        if not (self.lambda_scale > 0 and math.isfinite(lam)):
            raise InvalidParameterError(f"lambda_scale must be positive with lambda "
                                        f"finite, got {self.lambda_scale!r}")
        X.setflags(write=False)
        y.setflags(write=False)
        R = max_row_norm(X)
        if R == 0.0 and X.shape[0]:
            warnings.warn("all points at the origin: regularizer has no effect")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "R", R)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def reg_scale(self) -> float:
        """lambda * R**p, p = 2 for the squared 2-norm and 1 otherwise, so that
        the regularizer term lambda * r(R*beta) is reg_scale * r(beta)."""
        if self.reg is RegularizerKind.L2_SQUARED:
            return self.lam * self.R * self.R
        return self.lam * self.R


def is_full(inst: RlmInstance, cs: Optional[WeightedCoreset]) -> bool:
    """True when cs is None or the identity coreset of inst: every row, weight 1."""
    return cs is None or (cs.is_identity and cs.size == inst.n)


def coreset_rows(
    inst: RlmInstance, cs: Optional[WeightedCoreset]
) -> Tuple[np.ndarray, np.ndarray]:
    """The coreset's rows of X and y: the instance's own arrays on full
    data, a gather of the q rows otherwise."""
    if is_full(inst, cs):
        return inst.X, inst.y
    return inst.X[cs.indices], inst.y[cs.indices]


def margins(inst: RlmInstance, cs: Optional[WeightedCoreset], beta: np.ndarray) -> np.ndarray:
    """The margins z = -y * (X @ beta) on the coreset's rows."""
    return _margins(*coreset_rows(inst, cs), beta)


def _margins(X: np.ndarray, y: np.ndarray, beta: np.ndarray) -> np.ndarray:
    # one gemv, the product with y and its sign taken in place: rounding is
    # symmetric, so -(y * p) is the float (-y) * p
    z = X @ beta
    z *= y
    return np.negative(z, out=z)


def _loss_terms(loss: LossKind, z, y, u, dz, value: bool) -> float:
    """The loss sum at margins z (np.sum, or u @ losses with weights u) when
    value is set, else 0.0; with dz given, the (weighted) slope times y is
    written into it."""
    # the logistic value and slope share one exp(-|z|); the value consumes it
    e = _exp_neg_abs(z) if loss is LossKind.LOGISTIC else None
    if dz is not None:
        slope = loss_slope(loss, z, e)
        np.multiply(slope if u is None else u * slope, y, out=dz)
    if not value:
        return 0.0
    losses = loss_eval(loss, z, e)
    return float(np.sum(losses) if u is None else u @ losses)


def weighted_objective_grad(
    inst: RlmInstance, cs: Optional[WeightedCoreset], beta: np.ndarray,
    grad: bool = True, z: Optional[np.ndarray] = None, value: bool = True,
) -> Tuple[Optional[float], Optional[np.ndarray]]:
    """Objective sum_C u_i f_i(beta) and its (sub)gradient; with cs None or
    the identity coreset this is F(beta).  With grad=False the gradient is
    not computed and None is returned in its place, with value=False the
    same holds for the objective; each is the same float either way.  z,
    when given, is margins(inst, cs, beta), which is then not recomputed.

    On full data the losses are taken LEAF_ROWS rows at a time and their
    np.sum leaves added as np.sum over all n adds them, so no n-sized array
    but z and the gradient's dz is held, and every float is the one whole
    arrays give.  The gradient stays one gemv, -(dz @ X): BLAS's order of
    additions is its own, and a split of it would move the bits."""
    X, y = coreset_rows(inst, cs)
    if z is None:
        z = _margins(X, y, beta)
    dz = np.empty(len(z)) if grad else None
    if is_full(inst, cs):
        share = 1.0
        loss_sum = pairwise_sum(
            lambda lo, hi: _loss_terms(inst.loss, z[lo:hi], y[lo:hi], None,
                                       None if dz is None else dz[lo:hi], value),
            0, len(z), LEAF_ROWS)
    else:
        share = cs.weight_sum() / inst.n
        loss_sum = _loss_terms(inst.loss, z, y, cs.weights, dz, value)
    scale = inst.reg_scale
    f = loss_sum + share * (scale * reg_eval(inst.reg, beta)) if value else None
    if not grad:
        return f, None
    return f, -(dz @ X) + share * reg_grad(inst.reg, beta, scale)


def _coefficients(h: Hypothesis) -> np.ndarray:
    # an RlmInstance has no bias coordinate; a lifted one has it as a column of X
    if h.bias:
        raise ValueError("RlmInstance hypotheses carry no bias; fold it into beta")
    return h.beta


def _check_indices(inst: RlmInstance, cs: WeightedCoreset) -> None:
    idx = cs.indices
    if len(idx) and (idx.min() < 0 or idx.max() >= inst.n):
        raise IndexError("coreset index out of range")


def full_objective(inst: RlmInstance, h: Hypothesis) -> float:
    return weighted_objective_grad(inst, None, _coefficients(h), grad=False)[0]


def coreset_objective(inst: RlmInstance, cs: WeightedCoreset, h: Hypothesis) -> float:
    _check_indices(inst, cs)
    return weighted_objective_grad(inst, cs, _coefficients(h), grad=False)[0]


def approximation_error(inst: RlmInstance, cs: WeightedCoreset, h: Hypothesis) -> float:
    """Relative approximation error H(beta) of the candidate coreset at h."""
    full = full_objective(inst, h)
    if full <= 0.0:
        raise ZeroObjectiveError(
            "full objective is zero at this hypothesis; H is undefined"
        )
    return abs(full - coreset_objective(inst, cs, h)) / full


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_pool = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    # a forked child inherits the executor but none of its threads, and the
    # lock in whatever state another thread left it
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def ordered_map(fn, items) -> list:
    """[fn(item) for item in items], the calls spread over one thread per
    usable CPU; numpy releases the GIL inside its loops, so they run in
    parallel.  The results come back in item order, and the first failing
    item's exception is raised with its own class.  Each call runs in a copy
    of the caller's context, so an enclosing np.errstate holds inside it.
    With one item or one usable CPU the calls run here, one after another.
    fn must not call ordered_map: a task that waits on the pool can starve it.
    """
    global _pool
    items = list(items)
    workers = _usable_cpus()
    if len(items) < 2 or workers < 2:
        return [fn(item) for item in items]
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=workers,
                                       thread_name_prefix="rlm-coreset")
        pool = _pool
    futures = [pool.submit(contextvars.copy_context().run, fn, item) for item in items]
    try:
        return [f.result() for f in futures]
    finally:
        for f in futures:  # after a failure, drop the tasks not yet started
            f.cancel()


# tile of the block evaluator: ROW_TILE rows of X against PROBE_TILE probes,
# a (PROBE_TILE, ROW_TILE) block of margins that stays in cache
ROW_TILE = 1024
PROBE_TILE = 64
# margins (rows x probes) one ordered_map task evaluates at least: enough to
# outweigh handing it to a thread
TASK_MARGINS = 1 << 20


def _tiled_loss_sums(loss: LossKind, X: np.ndarray, y: np.ndarray,
                     u: Optional[np.ndarray], neg_B: np.ndarray) -> np.ndarray:
    """Per-probe sums of the losses at margins -y_i x_i.beta, weighted by u
    when given; X is read once, one row tile at a time, against every probe
    tile.  neg_B holds the probes negated, so that X @ neg_B.T * y is the
    margin with no n-sized copy of -y.

    A task of ordered_map is a run of consecutive row tiles of at least
    TASK_MARGINS margins in all, and returns one row of loss sums per tile.
    The rows are added in tile order, so the sums are the same floats
    however many threads ran the tasks."""
    k = neg_B.shape[0]
    rows = ROW_TILE * -(-TASK_MARGINS // (ROW_TILE * max(k, 1)))

    def tile_sums(lo: int) -> np.ndarray:
        starts = range(lo, min(lo + rows, X.shape[0]), ROW_TILE)
        out = np.empty((len(starts), k))
        for t, r in enumerate(starts):
            Xt, yt = X[r:r + ROW_TILE], y[r:r + ROW_TILE]
            ut = None if u is None else u[r:r + ROW_TILE]
            for p in range(0, k, PROBE_TILE):
                z = neg_B[p:p + PROBE_TILE] @ Xt.T
                z *= yt
                losses = loss_eval(loss, z)
                out[t, p:p + PROBE_TILE] = losses.sum(axis=1) if ut is None else losses @ ut
        return out

    sums = np.zeros(k)
    for part in ordered_map(tile_sums, range(0, X.shape[0], rows)):
        for tile in part:
            sums += tile
    return sums


def block_objectives(
    inst: RlmInstance, cs: WeightedCoreset, B
) -> Tuple[np.ndarray, np.ndarray]:
    """F and the coreset objective F_C at every row of the (k, d) probe array
    B, in one tiled pass over X and one over the coreset rows, gathered once.
    The regularizer term of each probe is the float weighted_objective_grad
    adds; only the order in which the loss sums are added differs from it.
    For the identity coreset F_C is F itself."""
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[1] != inst.d:
        raise ValueError(f"probes must be a (k, {inst.d}) array, got shape {B.shape}")
    if not np.all(np.isfinite(B)):
        raise ValueError("hypothesis components must be finite")
    _check_indices(inst, cs)
    scale = inst.reg_scale
    reg = np.array([scale * reg_eval(inst.reg, beta) for beta in B])
    neg_B = -B
    full = _tiled_loss_sums(inst.loss, inst.X, inst.y, None, neg_B) + reg
    if is_full(inst, cs):
        return full, full
    Xc, yc = coreset_rows(inst, cs)
    core = _tiled_loss_sums(inst.loss, Xc, yc, cs.weights, neg_B) \
        + (cs.weight_sum() / inst.n) * reg
    return full, core


def approximation_errors(inst: RlmInstance, cs: WeightedCoreset, B) -> np.ndarray:
    """H(beta) for every row of the (k, d) probe array B: approximation_error
    for a block of probes, evaluated by block_objectives."""
    full, core = block_objectives(inst, cs, B)
    if np.any(full <= 0.0):
        raise ZeroObjectiveError(
            "full objective is zero at this hypothesis; H is undefined"
        )
    return np.abs(full - core) / full


def check_weight_sum(cs: WeightedCoreset, n: int, eps: float) -> bool:
    """Necessary condition for an eps-coreset when loss(0) != 0:
    the weights must sum to n up to relative error eps."""
    if not (0.0 < eps < 1.0):
        raise InvalidParameterError(f"eps must lie in (0, 1), got {eps!r}")
    total = cs.weight_sum()
    return (1.0 - eps) * n <= total <= (1.0 + eps) * n
