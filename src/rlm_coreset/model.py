"""Core domain types, the one objective kernel, and the relative coreset
approximation error H.

The objective being approximated is

    F(beta) = sum_i loss(-y_i beta.x_i) + lambda * reg(R * beta)

with the per-point share f_i(beta) = loss_i(beta) + lambda*reg(R*beta)/n.
Its value and (sub)gradient on full data or on a weighted coreset are
computed in one place, ``weighted_objective_grad``; the solver and every
evaluator here call it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .errors import ZeroObjectiveError


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


def max_row_norm(X: np.ndarray) -> float:
    """The largest row 2-norm of a 2-D array, 0.0 when it has no rows: the
    radius R of an instance and of a streamed reservoir."""
    return float(np.max(np.linalg.norm(X, axis=1))) if X.shape[0] else 0.0


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
        if not np.all(np.isfinite(X)):
            raise ValueError("points must be finite")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be in {-1, +1}")
        if not (0.0 < self.kappa < 1.0):
            raise ValueError("kappa must lie in (0, 1)")
        lam = self.lambda_scale * X.shape[0] ** self.kappa
        if not (self.lambda_scale > 0 and math.isfinite(lam)):
            raise ValueError(f"lambda_scale must be positive with lambda finite, "
                             f"got {self.lambda_scale!r}")
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


def weighted_objective_grad(
    inst: RlmInstance, cs: Optional[WeightedCoreset], beta: np.ndarray, grad: bool = True
) -> Tuple[float, Optional[np.ndarray]]:
    """Objective sum_C u_i f_i(beta) and its (sub)gradient; with cs None or
    the identity coreset this is F(beta).  With grad=False the gradient is
    not computed and None is returned in its place; the value is the same
    float either way."""
    X, y = coreset_rows(inst, cs)
    z = -y * (X @ beta)
    # the logistic value and slope share one exp(-|z|); the value consumes it
    e = _exp_neg_abs(z) if inst.loss is LossKind.LOGISTIC else None
    slope = loss_slope(inst.loss, z, e) if grad else None
    losses = loss_eval(inst.loss, z, e)
    if is_full(inst, cs):
        # np.sum is a fixed-order pairwise reduction, so results are reproducible
        u, share, loss_sum = None, 1.0, float(np.sum(losses))
    else:
        u, share = cs.weights, cs.weight_sum() / inst.n
        loss_sum = float(u @ losses)
    scale = inst.reg_scale
    f = loss_sum + share * (scale * reg_eval(inst.reg, beta))
    if not grad:
        return f, None
    dz = slope * y if u is None else u * slope * y
    return f, -(dz @ X) + share * reg_grad(inst.reg, beta, scale)


def _coefficients(h: Hypothesis) -> np.ndarray:
    # an RlmInstance has no bias coordinate; a lifted one has it as a column of X
    if h.bias:
        raise ValueError("RlmInstance hypotheses carry no bias; fold it into beta")
    return h.beta


def full_objective(inst: RlmInstance, h: Hypothesis) -> float:
    return weighted_objective_grad(inst, None, _coefficients(h), grad=False)[0]


def coreset_objective(inst: RlmInstance, cs: WeightedCoreset, h: Hypothesis) -> float:
    idx = cs.indices
    if len(idx) and (idx.min() < 0 or idx.max() >= inst.n):
        raise IndexError("coreset index out of range")
    return weighted_objective_grad(inst, cs, _coefficients(h), grad=False)[0]


def approximation_error(inst: RlmInstance, cs: WeightedCoreset, h: Hypothesis) -> float:
    """Relative approximation error H(beta) of the candidate coreset at h."""
    full = full_objective(inst, h)
    if full <= 0.0:
        raise ZeroObjectiveError(
            "full objective is zero at this hypothesis; H is undefined"
        )
    return abs(full - coreset_objective(inst, cs, h)) / full


def check_weight_sum(cs: WeightedCoreset, n: int, eps: float) -> bool:
    """Necessary condition for an eps-coreset when loss(0) != 0:
    the weights must sum to n up to relative error eps."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    total = cs.weight_sum()
    return (1.0 - eps) * n <= total <= (1.0 + eps) * n
