"""Training on the full instance or a weighted coreset.

The objective and its gradient come from ``model.weighted_objective_grad``;
this module holds only the optimizers.  Two methods: deterministic
full-batch gradient descent with Armijo backtracking (subgradient steps with
1/sqrt(t) decay when the objective is nonsmooth), and a seeded mini-batch
SGD baseline for timing comparisons.
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
    coreset_rows,
    is_full,
    loss_slope,
    reg_grad,
    weighted_objective_grad,
)

# Armijo backtracking: the first step, the sufficient-decrease constant and
# the shrink factor.  Halving is exact, so the warm start's doubling of an
# accepted step reproduces the trial that was rejected just before it.
STEP_INIT = 1.0
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5


class TrainMethod(Enum):
    FULL_BATCH = "gd"
    SGD = "sgd"


@dataclass(frozen=True)
class TrainConfig:
    method: TrainMethod = TrainMethod.FULL_BATCH
    max_iters: int = 500
    grad_tol: float = 1e-6
    batch_size: int = 32
    epochs: int = 20
    learning_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        # written so that NaN is refused too
        if not (self.grad_tol > 0 and self.learning_rate > 0):
            raise ValueError("grad_tol and learning_rate must be positive")
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


def _identity_coreset(n: int) -> WeightedCoreset:
    return WeightedCoreset(indices=np.arange(n), weights=np.ones(n))


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
    full_cs = cs if is_full(inst, cs) else _identity_coreset(inst.n)
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
    step = STEP_INIT
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
                if f_new <= f - ARMIJO_C * step * gnorm * gnorm:
                    break
                step *= ARMIJO_SHRINK
                if step < 1e-20:
                    raise NonFiniteError("Armijo backtracking underflow")
            beta = cand
            if full:
                f_next = f_new
        else:
            beta = beta - STEP_INIT / np.sqrt(it + 1.0) * g / max(gnorm, 1e-30)
        clock += time.perf_counter() - t0
        _trace_point(inst, full_cs, beta, trace, clock, f_next)
    result = beta if smooth else best_beta
    return Hypothesis(beta=result), trace


def _train_sgd(inst, cs, full_cs, cfg):
    rng = np.random.default_rng(cfg.seed)
    X, y = coreset_rows(inst, cs)
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
            dz = loss_slope(inst.loss, z)
            # mean-objective gradient: per-point loss terms plus the 1/n
            # regularizer share, so the step scale is independent of n
            g = -((ub * dz * yb) @ Xb) / float(np.sum(ub))
            g = g + reg_grad(inst.reg, beta, inst.reg_scale) / inst.n
            beta = beta - cfg.learning_rate * g
        if not np.all(np.isfinite(beta)):
            raise NonFiniteError(f"SGD diverged in epoch {epoch}")
        clock += time.perf_counter() - t0
        _trace_point(inst, full_cs, beta, trace, clock)
    return Hypothesis(beta=beta), trace

