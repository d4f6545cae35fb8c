"""Core domain types and exact evaluation of losses, objectives, and the
relative coreset approximation error H.

The objective being approximated is

    F(beta) = sum_i loss(-y_i beta.x_i) + lambda * reg(R * beta)

with the per-point share f_i(beta) = loss_i(beta) + lambda*reg(R*beta)/n.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

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


def softplus(z):
    """Numerically stable log(1 + exp(z)); works on scalars and arrays."""
    z = np.asarray(z, dtype=float)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def loss_eval(kind: LossKind, z):
    """Evaluate the loss at margin z. Vectorized over z."""
    z = np.asarray(z, dtype=float)
    if kind is LossKind.LOGISTIC:
        return softplus(z)
    return np.maximum(0.0, 1.0 + z)


def reg_eval(kind: RegularizerKind, v) -> float:
    """Evaluate the regularizer r(v) for a coefficient vector v."""
    v = np.asarray(v, dtype=float)
    if kind is RegularizerKind.L1:
        return float(np.sum(np.abs(v)))
    if kind is RegularizerKind.L2:
        return float(np.linalg.norm(v))
    return float(np.dot(v.ravel(), v.ravel()))


@dataclass(frozen=True)
class LabeledPoint:
    x: np.ndarray
    y: int

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("point coordinates must be finite")
        if self.y not in (-1, 1):
            raise ValueError(f"label must be -1 or +1, got {self.y}")
        object.__setattr__(self, "x", x)


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
        if self.lambda_scale <= 0:
            raise ValueError("lambda_scale must be positive")
        X.setflags(write=False)
        y.setflags(write=False)
        R = float(np.max(np.linalg.norm(X, axis=1))) if X.shape[0] else 0.0
        if R == 0.0 and X.shape[0]:
            warnings.warn("all points at the origin: regularizer has no effect")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "lam", self.lambda_scale * X.shape[0] ** self.kappa)
        object.__setattr__(self, "R", R)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def margins(self, h: Hypothesis) -> np.ndarray:
        """Loss arguments z_i = -y_i (beta.x_i + bias) for every point."""
        return -self.y * (self.X @ h.beta + h.bias)

    def point_losses(self, h: Hypothesis) -> np.ndarray:
        return loss_eval(self.loss, self.margins(h))

    def regularizer(self, h: Hypothesis) -> float:
        """The lambda * r(R*beta) term (bias included in the scaled vector)."""
        v = self.R * np.append(h.beta, h.bias) if h.bias else self.R * h.beta
        return self.lam * reg_eval(self.reg, v)


def point_loss(inst: RlmInstance, i: int, h: Hypothesis) -> float:
    z = -inst.y[i] * (inst.X[i] @ h.beta + h.bias)
    return float(loss_eval(inst.loss, z))


def point_objective(inst: RlmInstance, i: int, h: Hypothesis) -> float:
    """f_i(beta): the loss of point i plus its 1/n share of the regularizer."""
    return point_loss(inst, i, h) + inst.regularizer(h) / inst.n


def full_objective(inst: RlmInstance, h: Hypothesis) -> float:
    # np.sum is a fixed-order pairwise reduction, so results are reproducible.
    return float(np.sum(inst.point_losses(h))) + inst.regularizer(h)


def coreset_objective(inst: RlmInstance, cs: WeightedCoreset, h: Hypothesis) -> float:
    idx = cs.indices
    if len(idx) and (idx.min() < 0 or idx.max() >= inst.n):
        raise IndexError("coreset index out of range")
    z = -inst.y[idx] * (inst.X[idx] @ h.beta + h.bias)
    losses = loss_eval(inst.loss, z)
    reg_share = cs.weight_sum() / inst.n * inst.regularizer(h)
    return float(np.dot(cs.weights, losses)) + reg_share


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
