"""Core domain types, the one objective kernel, and the relative coreset
approximation error H.

The objective being approximated is

    F(beta) = sum_i loss(-y_i beta.x_i) + lambda * reg(R * beta)

with the per-point share f_i(beta) = loss_i(beta) + lambda*reg(R*beta)/n.
Its value and (sub)gradient over weighted rows, the ``Rows`` that
``objective_rows`` builds from an instance and a coreset, are computed in
one place, ``weighted_objective_grad``; the solver and ``full_objective``
call it.  No pass over X allocates an n x d temporary:
``check_rows`` refuses bad rows and takes R in one pass over blocks of
ROW_TILE rows, and the margins, losses and gradient are taken in leaves,
whose sums ``blocked_sum`` adds: leaves of ``leaf_rows(d)`` rows on all
rows, so that the kernel holds nothing of n rows, and one leaf of every row
when the rows are weighted.

H has one path: ``block_objectives`` evaluates a block of probes at once
from the same loss and regularizer terms, in cache-sized tiles of X, each
leaf inside two buffers of one tile that ``loss_in_place`` reuses for every
tile's margins and losses; the coreset's rows are gathered leaf by leaf;
``relative_errors`` turns F and F_C into H, here
and in the adversary's witnesses, and ``approximation_error`` is its
one-probe call.
Every streamed loss sum, here and in the adversary's circle, is added by
``blocked_sum``: pairwise within blocks that ``ordered_map`` spreads over
the usable CPUs, block sums in block order.
"""

from __future__ import annotations

import contextvars
import functools
import math
import operator
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .errors import InvalidParameterError, NonFiniteError, ZeroObjectiveError


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


def exp_neg_abs(z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """exp(-|z|), in out when given, else in one new array: the one
    exponential that softplus and the sigmoid share, and never of a positive
    argument, so it cannot overflow."""
    e = np.abs(z, out=np.empty(np.shape(z)) if out is None else out)
    np.negative(e, out=e)
    return np.exp(e, out=e)


def loss_in_place(kind: LossKind, z: np.ndarray, e: Optional[np.ndarray]) -> np.ndarray:
    """The loss at margins z, computed in z and e, which are overwritten; the
    one of them that holds the losses is returned, and nothing is allocated.
    For the logistic loss e is exp(-|z|), of z's shape; the hinge loss does
    not read it.  The one place each loss formula is written."""
    if kind is LossKind.LOGISTIC:
        # softplus: max(z, 0) + log1p(exp(-|z|))
        np.log1p(e, out=e)
        e += np.maximum(z, 0.0, out=z)
        return e
    np.add(1.0, z, out=z)
    return np.maximum(0.0, z, out=z)


def softplus(z):
    """Numerically stable log(1 + exp(z)) = max(z, 0) + log1p(exp(-|z|));
    works on scalars (a 0-d array comes back) and arrays."""
    return loss_eval(LossKind.LOGISTIC, z)


def loss_eval(kind: LossKind, z, e=None):
    """Evaluate the loss at margin z, which is not changed.  Vectorized over
    z; a scalar gives a 0-d array.  For the logistic loss e, when given, is
    exp(-|z|) and is overwritten with the result."""
    z = np.array(z, dtype=float)  # a copy, which loss_in_place overwrites
    if kind is LossKind.LOGISTIC and e is None:
        e = exp_neg_abs(z)
    return loss_in_place(kind, z, e)


def loss_slope(kind: LossKind, z: np.ndarray, e=None) -> np.ndarray:
    """Derivative of the loss at margin z (0 at the hinge kink).  For the
    logistic loss e, when given, is exp(-|z|); it is read, not changed."""
    if kind is LossKind.LOGISTIC:
        # sigmoid(z) = 1/(1+e) for z >= 0 and e/(1+e) below: one division.
        # The numerator, 1 or e, is max(z >= 0, e) with no branch: e <= 1,
        # and the NaN e of a NaN z wins the maximum
        if e is None:
            e = exp_neg_abs(z)
        s = np.greater_equal(z, 0.0, out=np.empty(np.shape(z)))
        np.maximum(s, e, out=s)
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


def reg_grad(kind: RegularizerKind, v, scale: float) -> np.ndarray:
    """(Sub)gradient of scale * r(v), with scale applied before the division
    by the norm for the 2-norm."""
    v = np.asarray(v, dtype=float)
    if kind is RegularizerKind.L2_SQUARED:
        return 2.0 * scale * v
    if kind is RegularizerKind.L2:
        norm = float(np.linalg.norm(v))
        return scale * v / norm if norm > 0 else np.zeros_like(v)
    return scale * np.sign(v)


# rows x d of a leaf of the full-data kernel: its margins, losses and slopes
# are leaf-sized, never n, and its gemvs small enough that their bytes did
# not move between one and two BLAS threads (OpenBLAS 0.3.31 on 2 CPUs: a
# gemv of 10 columns gave other bytes at two threads from 46080 rows on,
# one of 700 columns from about 1024 rows on).  A leaf keeps 128 rows past
# 1024 columns; its bytes matched at one and two threads up to d = 4096
# and moved at d = 8192
LEAF_VALUES = 1 << 17
# tile of the block evaluator: ROW_TILE rows of X against PROBE_TILE probes,
# a (PROBE_TILE, ROW_TILE) block of margins that stays in cache; the row
# check reads X ROW_TILE rows at a time too
ROW_TILE = 1024
PROBE_TILE = 64


def leaf_rows(d: int) -> int:
    """Rows of a leaf of the full-data kernel at d columns: the largest power
    of two with rows x d at most LEAF_VALUES, and at least 128, numpy's
    smallest halved length, below which np.sum stops halving."""
    # past LEAF_VALUES columns the quotient is 0, and 1 is its power of two
    return max(128, 1 << max(LEAF_VALUES // max(d, 1), 1).bit_length() - 1)


def check_rows(X: np.ndarray, y: np.ndarray) -> float:
    """R, the largest row 2-norm of X (0.0 with no rows), after refusing a
    point that is not finite, an R that overflows or a label outside
    {-1, +1}.  X is read once, ROW_TILE rows at a time, their squares taken
    in one reused buffer and reduced as np.linalg.norm(axis=1) reduces them
    on real input; a max of those norms is exact, so R is the float the
    whole array gives.  y is read after X, eight tiles of labels at a time
    (one test per 8192 labels took a third of the time of one per 1024)."""
    R = 0.0
    squares = np.empty((min(X.shape[0], ROW_TILE), X.shape[1]))
    # a finite row whose squares overflow has norm inf, refused below
    with np.errstate(over="ignore"):
        for lo in range(0, X.shape[0], ROW_TILE):
            block = X[lo:lo + ROW_TILE]
            if not np.isfinite(block).all():
                raise ValueError("points must be finite")
            sq = np.multiply(block, block, out=squares[:len(block)])
            norms = np.add.reduce(sq, axis=1)
            R = max(R, np.max(np.sqrt(norms, out=norms)))
    if not np.isfinite(R):
        raise ValueError("a point's 2-norm is not finite")
    labels = 8 * ROW_TILE
    for lo in range(0, len(y), labels):
        # |t| == 1 refuses what (t == 1) | (t == -1) refuses, NaN included
        if not (np.abs(y[lo:lo + labels]) == 1.0).all():
            raise ValueError("labels must be in {-1, +1}")
    return float(R)


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
        # one min/max pair: a NaN or an infinity shows in one of them; an
        # empty coreset has unit weights
        lo, hi = (float(w.min()), float(w.max())) if w.size else (1.0, 1.0)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("weights must be finite")
        if lo < 0:
            raise ValueError("weights must be nonnegative")
        idx.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "is_identity", bool(
            lo == hi == 1.0 and np.array_equal(idx, np.arange(len(idx)))))
        # fsum: exactly rounded, so the sum-equals-n invariant survives float;
        # it raises OverflowError for a sum past the largest float
        try:
            object.__setattr__(self, "_weight_sum", math.fsum(w))
        except OverflowError:
            raise ValueError("weights must have a finite sum") from None

    @property
    def size(self) -> int:
        return len(self.indices)

    def weight_sum(self) -> float:
        return self._weight_sum


# the warning of an instance whose points all lie at the origin, R = 0
ORIGIN_WARNING = "all points at the origin: regularizer has no effect"


@dataclass(frozen=True)
class RlmInstance:
    """Immutable dataset plus loss/regularizer configuration.

    lambda is derived as lambda_scale * n**kappa; R is check_rows' maximum point 2-norm.
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
        R = check_rows(X, y)
        if not (0.0 < self.kappa < 1.0):
            raise InvalidParameterError(f"kappa must lie in (0, 1), got {self.kappa!r}")
        lam = self.lambda_scale * X.shape[0] ** self.kappa
        if not (self.lambda_scale > 0 and math.isfinite(lam)):
            raise InvalidParameterError(f"lambda_scale must be positive with lambda "
                                        f"finite, got {self.lambda_scale!r}")
        X.setflags(write=False)
        y.setflags(write=False)
        if R == 0.0 and X.shape[0]:
            warnings.warn(ORIGIN_WARNING)
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


@dataclass(frozen=True)
class Rows:
    """The rows an objective sums over: X and y, one weight per row in u, or
    u None for all n rows of an instance at weight 1, and share = sum(u) / n,
    the part of the regularizer they carry.  With the instance's loss,
    regularizer and reg_scale this is all weighted_objective_grad reads."""

    X: np.ndarray
    y: np.ndarray
    u: Optional[np.ndarray]
    share: float

    @property
    def size(self) -> int:
        return len(self.y)


def objective_rows(inst: RlmInstance, cs: Optional[WeightedCoreset] = None) -> Rows:
    """The Rows of cs: the instance's own arrays for None or the identity
    coreset, one gather of the q rows otherwise, refused with IndexError
    unless every index lies in [0, n)."""
    if is_full(inst, cs):
        return Rows(inst.X, inst.y, None, 1.0)
    idx = _checked_indices(inst, cs)
    return Rows(inst.X.take(idx, axis=0), inst.y.take(idx), cs.weights,
                cs.weight_sum() / inst.n)


def _checked_indices(inst: RlmInstance, cs: WeightedCoreset) -> np.ndarray:
    """cs's indices, refused with IndexError unless each lies in [0, n)."""
    idx = cs.indices
    if len(idx) and (idx.min() < 0 or idx.max() >= inst.n):
        raise IndexError("coreset index out of range")
    return idx


def row_margins(X: np.ndarray, y: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """The margins z = -y * (X @ beta) on the rows X, y, in one new array."""
    # one gemv, the product with y and its sign taken in place: rounding is
    # symmetric, so -(y * p) is the float (-y) * p
    z = X @ beta
    z *= y
    return np.negative(z, out=z)


def loss_terms(loss: LossKind, z, y, u, dz, value: bool) -> float:
    """The loss sum at margins z (np.sum, or u @ losses with weights u) when
    value is set, else 0.0; with dz given, the slope times y, (u * slope) * y
    with weights u, is written into it last, so dz may be z itself."""
    # the logistic value and slope share one exp(-|z|); the value consumes it
    e = exp_neg_abs(z) if loss is LossKind.LOGISTIC else None
    slope = None if dz is None else loss_slope(loss, z, e)
    total = 0.0
    if value:
        losses = loss_eval(loss, z, e)
        total = float(np.sum(losses) if u is None else u @ losses)
    if dz is not None:
        np.multiply(slope if u is None else u * slope, y, out=dz)
    return total


def weighted_objective_grad(
    inst: RlmInstance, rows: Optional[Rows], beta: np.ndarray, grad: bool = True,
) -> Tuple[float, Optional[np.ndarray]]:
    """Objective sum_i u_i f_i(beta) over rows and its (sub)gradient; rows
    None means all rows of inst, and gives F(beta).  Of inst only the loss,
    regularizer and reg_scale are read.  With grad=False the gradient is
    not computed and None is returned in its place; the objective is the
    same float either way.

    The rows are taken in leaves, added by blocked_sum, the order of the H
    pass.  A leaf takes its margins into an array of its own rows, then
    their losses, and with grad its slopes and its share of the gradient,
    one gemv dz_leaf @ X_leaf; it returns the loss sum, or with grad the
    (1 + d)-vector of the loss sum and that share.  On all rows at weight 1
    a leaf has leaf_rows(d) rows, so nothing the kernel holds grows with n;
    on at most 2**20 rows the loss sum is the float np.sum of all losses
    gives at one BLAS thread, where a leaf's gemv gives each margin the
    whole gemv's float.  A leaf's gemvs are small enough that their bytes,
    and so F and its gradient on all rows, were the same at one and two
    BLAS threads for d up to 4096 (see LEAF_VALUES); one gemv over all rows
    split them between threads, which moved margins and the gradient's last
    bits.  Weighted rows, one leaf, depend on the thread count once BLAS
    splits their dot and gemv (above 10000 rows)."""
    if rows is None:
        rows = objective_rows(inst)
    X, y, u = rows.X, rows.y, rows.u

    def leaf(lo, hi):
        X_leaf, y_leaf = X[lo:hi], y[lo:hi]
        z = row_margins(X_leaf, y_leaf, beta)
        total = loss_terms(inst.loss, z, y_leaf, None if u is None else u[lo:hi],
                           z if grad else None, True)
        if not grad:
            return total
        sums = np.empty(1 + len(beta))
        sums[0] = total
        np.matmul(z, X_leaf, out=sums[1:])
        return sums

    # weighted rows are one leaf of all of them: their loss sum is one dot,
    # u @ losses, and their gradient one gemv, whose orders of additions are
    # BLAS's, so a split moves F_C and the coreset gradient.  Blocks are
    # sized for width 1 whatever a leaf returns, so that the loss sum is
    # added in the H pass's blocks with or without the gradient
    n = rows.size
    sums = blocked_sum(leaf, n, leaf_rows(X.shape[1]) if u is None else max(n, 1), 1)
    scale = inst.reg_scale
    reg = rows.share * (scale * reg_eval(inst.reg, beta))
    if not grad:
        return sums + reg, None
    return float(sums[0]) + reg, -sums[1:] + rows.share * reg_grad(inst.reg, beta, scale)


def full_objective(inst: RlmInstance, beta: np.ndarray) -> float:
    """F(beta) for a coefficient vector beta of length d."""
    return weighted_objective_grad(inst, None, beta, grad=False)[0]


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ordered_map(fn, items) -> list:
    """[fn(item) for item in items], the calls spread over one thread per
    usable CPU, at most one per item, on a pool that lives for this call;
    numpy releases the GIL inside its loops, so they run in parallel.  The
    results come back in item order, and the first failing item's exception
    is raised with its own class.  Each call runs in a copy of the caller's
    context, so an enclosing np.errstate holds inside it.  With one item or
    one usable CPU the calls run here, one after another.
    """
    items = list(items)
    workers = min(_usable_cpus(), len(items))
    if workers < 2:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers, thread_name_prefix="rlm-coreset") as pool:
        futures = [pool.submit(contextvars.copy_context().run, fn, item) for item in items]
        try:
            return [f.result() for f in futures]
        finally:
            for f in futures:  # after a failure, drop the tasks not yet started
                f.cancel()


# values (rows x width) one ordered_map task of blocked_sum adds at least:
# enough to outweigh handing it to a thread.  It also fixes where the
# circle's loss sum is split into blocks (2**20 angles), and so the circle's
# frozen H, r1 and r2: changing it moves their last digits.
TASK_MARGINS = 1 << 20


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


def blocked_sum(leaf_sum, n: int, leaf: int, width: int):
    """The sum of rows 0..n-1 of values that are never held at once, each row
    a float or a vector of width floats, spread over the usable CPUs.  A block
    is the smallest power of two of leaves of leaf rows that covers
    TASK_MARGINS values (rows x width); one ordered_map task adds each block
    by pairwise_sum from leaf_sum(a, b), the sum of rows a..b-1, and the
    block sums are added in block order, so the total does not depend on the
    number of threads.  With n no more than one block's rows, the total is
    pairwise_sum's over all n rows."""
    block = leaf << (-(-TASK_MARGINS // (leaf * max(width, 1))) - 1).bit_length()
    parts = ordered_map(lambda lo: pairwise_sum(leaf_sum, lo, min(lo + block, n), leaf),
                        range(0, max(n, 1), block))
    return functools.reduce(operator.add, parts)


def _tiled_loss_sums(loss: LossKind, X: np.ndarray, y: np.ndarray,
                     u: Optional[np.ndarray], neg_B: np.ndarray,
                     idx: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-probe sums of the losses at margins -y_i x_i.beta, weighted by u
    when given, added by blocked_sum; with idx given, the rows are X[idx] and
    y[idx], gathered leaf by leaf.  A leaf reads its rows of X once, against
    one tile of PROBE_TILE probes at a time.  Weighted, a leaf has ROW_TILE
    rows.  Unweighted, it grows as the probes fall below PROBE_TILE, so that
    a tile of margins stays ROW_TILE x PROBE_TILE: a leaf's sum(axis=1)
    continues numpy's pairwise halving, so a leaf of any power of two from
    128 rows up adds the losses in the same blocks.  The floats are the same
    only while gemm rounds each margin the same for every leaf's row count:
    so it did for d up to 12, but at d = 64 and d = 700 a 128-row leaf moved
    F's bits against a 1024-row one.  neg_B holds the
    probes negated, so that X @ neg_B.T * y is the margin with no n-sized
    copy of -y.  Each leaf allocates its margins and, for the logistic loss,
    exp(-|z|) once, one tile in size; every tile's margins and losses are
    taken inside them by loss_in_place."""
    k = neg_B.shape[0]
    tile = min(k, PROBE_TILE)
    leaf = ROW_TILE if u is not None else \
        ROW_TILE * PROBE_TILE >> (tile - 1).bit_length()

    def leaf_sums(lo: int, hi: int) -> np.ndarray:
        if idx is None:
            Xt, yt = X[lo:hi], y[lo:hi]
        else:
            Xt, yt = X.take(idx[lo:hi], axis=0), y.take(idx[lo:hi])
        zbuf = np.empty((tile, hi - lo))
        ebuf = np.empty_like(zbuf) if loss is LossKind.LOGISTIC else None
        out = np.empty(k)
        for p in range(0, k, PROBE_TILE):
            m = min(k - p, PROBE_TILE)  # a tile's first rows are contiguous
            z = np.matmul(neg_B[p:p + m], Xt.T, out=zbuf[:m])
            z *= yt
            e = None if ebuf is None else exp_neg_abs(z, ebuf[:m])
            losses = loss_in_place(loss, z, e)
            out[p:p + PROBE_TILE] = losses.sum(axis=1) if u is None else losses @ u[lo:hi]
        return out

    return blocked_sum(leaf_sums, X.shape[0] if idx is None else len(idx), leaf, k)


def block_objectives(
    inst: RlmInstance, cs: WeightedCoreset, B
) -> Tuple[np.ndarray, np.ndarray]:
    """F and the coreset objective F_C at every row of the (k, d) probe array
    B, in one tiled pass over X and one over the coreset rows, gathered leaf
    by leaf.  The regularizer term of each probe is the float
    weighted_objective_grad adds.  For one probe, F is the float
    full_objective gives, at every n; for more, only the order in which the
    loss sums are added differs from it.  For the identity coreset F_C is F
    itself."""
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[1] != inst.d:
        raise ValueError(f"probes must be a (k, {inst.d}) array, got shape {B.shape}")
    if not np.all(np.isfinite(B)):
        raise ValueError("hypothesis components must be finite")
    scale = inst.reg_scale
    reg = np.array([scale * reg_eval(inst.reg, beta) for beta in B])
    neg_B = -B
    full = _tiled_loss_sums(inst.loss, inst.X, inst.y, None, neg_B) + reg
    if is_full(inst, cs):
        return full, full
    core = _tiled_loss_sums(inst.loss, inst.X, inst.y, cs.weights, neg_B,
                            _checked_indices(inst, cs)) \
        + (cs.weight_sum() / inst.n) * reg
    return full, core


def relative_errors(full, core):
    """H = |F - F_C| / F, elementwise: every H here and in the adversary.
    An F or F_C that is not finite is refused with NonFiniteError and an F
    of zero or less with ZeroObjectiveError, so H is never NaN."""
    if not (np.all(np.isfinite(full)) and np.all(np.isfinite(core))):
        raise NonFiniteError(
            "objective is not finite at some hypothesis; H is undefined"
        )
    if np.any(full <= 0.0):
        raise ZeroObjectiveError(
            "full objective is zero at this hypothesis; H is undefined"
        )
    return np.abs(full - core) / full


def approximation_errors(inst: RlmInstance, cs: WeightedCoreset, B) -> np.ndarray:
    """H(beta) for every row of the (k, d) probe array B: approximation_error
    for a block of probes, evaluated by block_objectives and relative_errors."""
    # an overflow ends as inf in F or F_C, which relative_errors refuses
    with np.errstate(over="ignore", invalid="ignore"):
        full, core = block_objectives(inst, cs, B)
    return relative_errors(full, core)


def approximation_error(inst: RlmInstance, cs: WeightedCoreset, beta: np.ndarray) -> float:
    """Relative approximation error H(beta) of the candidate coreset at the
    coefficient vector beta: approximation_errors for one probe."""
    return float(approximation_errors(inst, cs, [beta])[0])


def check_eps(eps: float) -> None:
    """Refuse an approximation parameter eps outside (0, 1)."""
    if not (0.0 < eps < 1.0):
        raise InvalidParameterError(f"eps must lie in (0, 1), got {eps!r}")


def check_weight_sum(cs: WeightedCoreset, n: int, eps: float) -> bool:
    """Necessary condition for an eps-coreset when loss(0) != 0:
    the weights must sum to n up to relative error eps."""
    check_eps(eps)
    total = cs.weight_sum()
    return (1.0 - eps) * n <= total <= (1.0 + eps) * n
