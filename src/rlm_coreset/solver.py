"""Training on the full instance or a weighted coreset.

Two methods: deterministic full-batch gradient descent with Armijo
backtracking (subgradient steps with 1/sqrt(t) decay when the objective is
nonsmooth), and a seeded mini-batch SGD baseline for timing comparisons.
Every run starts from beta = 0 and is fully determined by (input, config).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from .errors import NonFiniteError
from .model import (
    Hypothesis,
    LossKind,
    RegularizerKind,
    RlmInstance,
    WeightedCoreset,
    loss_eval,
)


class TrainMethod(Enum):
    FULL_BATCH = "gd"
    SGD = "sgd"


@dataclass(frozen=True)
class TrainConfig:
    method: TrainMethod = TrainMethod.FULL_BATCH
    max_iters: int = 500
    grad_tol: float = 1e-6
    step_init: float = 1.0
    armijo_c: float = 1e-4
    armijo_shrink: float = 0.5
    batch_size: int = 32
    epochs: int = 20
    learning_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.grad_tol <= 0 or self.step_init <= 0 or self.learning_rate <= 0:
            raise ValueError("tolerances and step sizes must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")


@dataclass
class TrainTrace:
    """Per-iteration record of (optimizer wall-clock seconds, full-dataset
    objective).  Objective evaluation time is excluded from the clock."""

    seconds: List[float] = field(default_factory=list)
    objectives: List[float] = field(default_factory=list)

    def append(self, t: float, f: float) -> None:
        self.seconds.append(t)
        self.objectives.append(f)

    def rows(self):
        return [
            (i, s, f)
            for i, (s, f) in enumerate(zip(self.seconds, self.objectives))
        ]


def _identity_coreset(n: int) -> WeightedCoreset:
    return WeightedCoreset(indices=np.arange(n), weights=np.ones(n))


def _is_full(inst: RlmInstance, cs: WeightedCoreset) -> bool:
    """True when cs is the identity coreset of inst: every row, weight 1."""
    return cs.is_identity and cs.size == inst.n


def _rows(inst: RlmInstance, cs: WeightedCoreset) -> Tuple[np.ndarray, np.ndarray]:
    """The coreset's rows of X and y: the instance's own arrays on full
    data, a gather of the q rows otherwise."""
    if _is_full(inst, cs):
        return inst.X, inst.y
    return inst.X[cs.indices], inst.y[cs.indices]


def _loss_slope(kind: LossKind, z: np.ndarray) -> np.ndarray:
    """Derivative of the loss at margin z."""
    if kind is LossKind.LOGISTIC:
        # sigmoid(z) without overflow: exp of a nonpositive argument only
        e = np.exp(-np.abs(z))
        return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return (z > -1.0).astype(float)  # 0 at the hinge kink


def _reg_value(inst: RlmInstance, beta: np.ndarray) -> float:
    """Value of lambda * r(R * beta)."""
    lam, R = inst.lam, inst.R
    if inst.reg is RegularizerKind.L2_SQUARED:
        return lam * R * R * float(beta @ beta)
    if inst.reg is RegularizerKind.L2:
        return lam * R * float(np.linalg.norm(beta))
    return lam * R * float(np.sum(np.abs(beta)))


def _reg_grad(inst: RlmInstance, beta: np.ndarray) -> np.ndarray:
    """(Sub)gradient of lambda * r(R * beta)."""
    lam, R = inst.lam, inst.R
    if inst.reg is RegularizerKind.L2_SQUARED:
        return 2.0 * lam * R * R * beta
    if inst.reg is RegularizerKind.L2:
        norm = float(np.linalg.norm(beta))
        return lam * R * beta / norm if norm > 0 else np.zeros_like(beta)
    return lam * R * np.sign(beta)


def weighted_objective_grad(
    inst: RlmInstance, cs: WeightedCoreset, beta: np.ndarray, grad: bool = True
) -> Tuple[float, Optional[np.ndarray]]:
    """Objective sum_C u_i f_i(beta) and its (sub)gradient.  With
    grad=False the gradient is not computed and None is returned in its
    place; the value is the same float either way."""
    X, y = _rows(inst, cs)
    u = cs.weights
    z = -y * (X @ beta)
    share = cs.weight_sum() / inst.n
    f = float(u @ loss_eval(inst.loss, z)) + share * _reg_value(inst, beta)
    if not grad:
        return f, None
    loss_grad = -((u * _loss_slope(inst.loss, z) * y) @ X)
    return f, loss_grad + share * _reg_grad(inst, beta)


def gradient(inst: RlmInstance, cs: Optional[WeightedCoreset], h: Hypothesis) -> np.ndarray:
    if cs is None:
        cs = _identity_coreset(inst.n)
    return weighted_objective_grad(inst, cs, h.beta)[1]


def _is_smooth(inst: RlmInstance) -> bool:
    return inst.loss is LossKind.LOGISTIC and inst.reg is not RegularizerKind.L1


def train(
    inst: RlmInstance, cfg: TrainConfig, cs: Optional[WeightedCoreset] = None
) -> Tuple[Hypothesis, TrainTrace]:
    """Train beta from 0 on the (weighted) objective; the trace always
    records the objective evaluated on the full instance."""
    if cs is None:
        cs = _identity_coreset(inst.n)
    full_cs = cs if _is_full(inst, cs) else _identity_coreset(inst.n)
    if cfg.method is TrainMethod.SGD:
        return _train_sgd(inst, cs, full_cs, cfg)
    return _train_gd(inst, cs, full_cs, cfg)


def _trace_point(inst, full_cs, beta, trace, clock, f_full=None):
    """Record the full objective at beta; f_full is that value when the
    caller has already computed it."""
    if f_full is None:
        f_full, _ = weighted_objective_grad(inst, full_cs, beta, grad=False)
    trace.append(clock, f_full)


def _train_gd(inst, cs, full_cs, cfg):
    beta = np.zeros(inst.d)
    trace = TrainTrace()
    # on full data every value computed on cs is the full objective the
    # trace records, so the trace reuses it instead of evaluating again
    full = cs is full_cs
    smooth = _is_smooth(inst)
    clock = 0.0
    best_beta, best_f = beta.copy(), np.inf
    step = cfg.step_init
    for it in range(cfg.max_iters):
        t0 = time.perf_counter()
        f, g = weighted_objective_grad(inst, cs, beta)
        if not (np.isfinite(f) and np.all(np.isfinite(g))):
            raise NonFiniteError(f"non-finite objective/gradient at iter {it}")
        gnorm = float(np.linalg.norm(g))
        if f < best_f:
            best_f, best_beta = f, beta.copy()
        if gnorm <= cfg.grad_tol:
            clock += time.perf_counter() - t0
            _trace_point(inst, full_cs, beta, trace, clock, f if full else None)
            break
        f_next = None
        if smooth:
            step *= 2.0  # warm start from the last accepted step
            while True:
                cand = beta - step * g
                f_new, _ = weighted_objective_grad(inst, cs, cand, grad=False)
                if f_new <= f - cfg.armijo_c * step * gnorm * gnorm:
                    break
                step *= cfg.armijo_shrink
                if step < 1e-20:
                    raise NonFiniteError("Armijo backtracking underflow")
            beta = cand
            if full:
                f_next = f_new
        else:
            beta = beta - cfg.step_init / np.sqrt(it + 1.0) * g / max(gnorm, 1e-30)
        clock += time.perf_counter() - t0
        _trace_point(inst, full_cs, beta, trace, clock, f_next)
    result = beta if smooth else best_beta
    return Hypothesis(beta=result), trace


def _train_sgd(inst, cs, full_cs, cfg):
    rng = np.random.default_rng(cfg.seed)
    X, y = _rows(inst, cs)
    u = cs.weights
    m = len(y)
    beta = np.zeros(inst.d)
    trace = TrainTrace()
    clock = 0.0
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(m)
        for lo in range(0, m, cfg.batch_size):
            batch = order[lo : lo + cfg.batch_size]
            Xb, yb, ub = X[batch], y[batch], u[batch]
            z = -yb * (Xb @ beta)
            dz = _loss_slope(inst.loss, z)
            # mean-objective gradient: per-point loss terms plus the 1/n
            # regularizer share, so the step scale is independent of n
            g = -((ub * dz * yb) @ Xb) / float(np.sum(ub))
            g = g + _reg_grad(inst, beta) / inst.n
            beta = beta - cfg.learning_rate * g
        if not np.all(np.isfinite(beta)):
            raise NonFiniteError(f"SGD diverged in epoch {epoch}")
        clock += time.perf_counter() - t0
        _trace_point(inst, full_cs, beta, trace, clock)
    return Hypothesis(beta=beta), trace


def relative_suboptimality(
    inst: RlmInstance, beta_coreset: Hypothesis, beta_full: Hypothesis
) -> float:
    """F(beta_C)/F(beta_full) - 1 on the full instance."""
    full_cs = _identity_coreset(inst.n)
    f_c, _ = weighted_objective_grad(inst, full_cs, beta_coreset.beta, grad=False)
    f_f, _ = weighted_objective_grad(inst, full_cs, beta_full.beta, grad=False)
    if f_f <= 0:
        raise ZeroDivisionError("full-data optimum objective is zero")
    return f_c / f_f - 1.0
