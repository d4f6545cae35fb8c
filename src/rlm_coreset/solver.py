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

from .errors import InvalidParameterError, NonFiniteError
from .model import (
    Hypothesis,
    LossKind,
    RegularizerKind,
    RlmInstance,
    WeightedCoreset,
    coreset_rows,
    is_full,
    loss_slope,
    margins,
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
            raise InvalidParameterError("grad_tol and learning_rate must be positive")
        if self.batch_size < 1:
            raise InvalidParameterError("batch_size must be at least 1")
        if self.max_iters < 1:
            raise InvalidParameterError("max_iters must be at least 1")
        if self.epochs < 1:
            raise InvalidParameterError("epochs must be at least 1")


@dataclass
class TrainTrace:
    """Per-iteration record of (optimizer wall-clock seconds, full-dataset
    objective).  Objective evaluation time is excluded from the clock.

    stop_reason says why the run ended: ``converged`` (the gradient norm met
    grad_tol, or beta = 0 is the optimum at the 2-norm's kink), ``stalled``
    (GD reached a fixed point: every further iteration would return the
    same beta) or ``max_iters`` (the iteration or epoch budget ran out).
    final_objective is the full objective at the returned beta: the last
    trace value, except for nonsmooth GD, which returns its best iterate."""

    seconds: List[float] = field(default_factory=list)
    objectives: List[float] = field(default_factory=list)
    stop_reason: str = "max_iters"
    final_objective: float = float("nan")

    def append(self, t: float, f: float) -> None:
        self.seconds.append(t)
        self.objectives.append(f)


@dataclass(frozen=True)
class _AllRows:
    """Every row of an n-row instance at weight 1, held as n alone: what
    full-data training passes where a coreset goes, so that no identity
    coreset's two n-sized arrays are built.  model.is_full reads it as full
    data, and its weight sum is n.  Unlike None it has a size, which
    perfbench's count of evaluated rows reads."""

    size: int
    is_identity = True

    def weight_sum(self) -> float:
        return float(self.size)


def _is_smooth(inst: RlmInstance) -> bool:
    return inst.loss is LossKind.LOGISTIC and inst.reg is not RegularizerKind.L1


def train(
    inst: RlmInstance, cfg: TrainConfig, cs: Optional[WeightedCoreset] = None
) -> Tuple[Hypothesis, TrainTrace]:
    """Train beta from 0 on the (weighted) objective; the trace always
    records the objective evaluated on the full instance."""
    full_cs = _AllRows(inst.n)
    if is_full(inst, cs):
        cs = full_cs
    if cfg.method is TrainMethod.SGD:
        return _train_sgd(inst, cs, full_cs, cfg)
    return _train_gd(inst, cs, full_cs, cfg)


def _trace_point(inst, full_cs, beta, trace, clock, f_full=None):
    """Record the full objective at beta; f_full is that value when the
    caller has already computed it."""
    if f_full is None:
        f_full, _ = weighted_objective_grad(inst, full_cs, beta, grad=False)
    trace.append(clock, f_full)


def _kink_bound(inst, cs) -> float:
    """For the (non-squared) 2-norm, the radius (sum u / n) * lambda * R of
    the weighted regularizer's subdifferential at beta = 0: beta = 0 is
    optimal when the loss gradient there is no longer.  0 otherwise."""
    if inst.reg is not RegularizerKind.L2:
        return 0.0
    return (cs.weight_sum() / inst.n) * inst.reg_scale


def _train_gd(inst, cs, full_cs, cfg):
    beta = np.zeros(inst.d)
    trace = TrainTrace()
    # on full data every value computed on cs is the full objective the
    # trace records, so the trace reuses it instead of evaluating again
    full = cs is full_cs
    smooth = _is_smooth(inst)
    kink = _kink_bound(inst, cs) if smooth else 0.0
    clock = 0.0
    best_beta, best_f, best_it = beta.copy(), np.inf, 0
    step = STEP_INIT
    # a full-data subgradient iterate whose trace value is the f that the
    # next iteration computes with its gradient
    pending = False
    # the margins at beta of the Armijo trial accepted last, whose value f
    # is known: the gradient is computed from them, then they are dropped
    z = None
    for it in range(cfg.max_iters):
        t0 = time.perf_counter()
        if z is None:
            f, g = weighted_objective_grad(inst, cs, beta)
        else:
            _, g = weighted_objective_grad(inst, cs, beta, z=z, value=False)
            z = None
        if pending:
            _trace_point(inst, full_cs, beta, trace, clock, f)
        if not (np.isfinite(f) and np.all(np.isfinite(g))):
            raise NonFiniteError(f"non-finite objective/gradient at iter {it}")
        gnorm = float(np.linalg.norm(g))
        if f < best_f:
            best_f, best_beta, best_it = f, beta.copy(), it
        # at iteration 0 beta = 0 and the regularizer's gradient there is 0,
        # so g is the loss gradient and the kink test is the optimality test
        if gnorm <= cfg.grad_tol or (it == 0 and gnorm <= kink):
            clock += time.perf_counter() - t0
            _trace_point(inst, full_cs, beta, trace, clock, f if full else None)
            trace.stop_reason = "converged"
            break
        f_next = None
        stalled = False
        if smooth:
            step *= 2.0  # warm start from the last accepted step
            backtracked = False
            while True:
                cand = beta - step * g
                z = margins(inst, cs, cand)
                f_new, _ = weighted_objective_grad(inst, cs, cand, grad=False, z=z)
                if f_new <= f - ARMIJO_C * step * gnorm * gnorm:
                    break
                step *= ARMIJO_SHRINK
                backtracked = True
                if step < 1e-20:
                    raise NonFiniteError("Armijo backtracking underflow")
            # the next iteration would see the same (beta, f, g), reject the
            # same doubled step and accept this one again, forever
            stalled = backtracked and cand.tobytes() == beta.tobytes()
            beta, f = cand, f_new
            if full:
                f_next = f_new
        else:
            beta = beta - STEP_INIT / np.sqrt(it + 1.0) * g / max(gnorm, 1e-30)
            pending = full
        clock += time.perf_counter() - t0
        if not pending:
            _trace_point(inst, full_cs, beta, trace, clock, f_next)
        if stalled:
            trace.stop_reason = "stalled"
            break
    else:
        if pending:
            _trace_point(inst, full_cs, beta, trace, clock)
    if smooth:
        trace.final_objective = trace.objectives[-1]
        return Hypothesis(beta=beta), trace
    # the trace holds F(beta_1), F(beta_2), ...; on full data best_f is F too
    if full:
        trace.final_objective = best_f
    elif best_it:
        trace.final_objective = trace.objectives[best_it - 1]
    else:
        trace.final_objective, _ = weighted_objective_grad(inst, full_cs, best_beta, grad=False)
    return Hypothesis(beta=best_beta), trace


def _train_sgd(inst, cs, full_cs, cfg):
    rng = np.random.default_rng(cfg.seed)
    X, y = coreset_rows(inst, cs)
    # on full data every weight is 1: u * dz is dz and sum(u) the batch size
    u = None if cs is full_cs else cs.weights
    m = len(y)
    beta = np.zeros(inst.d)
    trace = TrainTrace()
    clock = 0.0
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(m)
        # a diverging run overflows inside the epoch; the check below
        # reports it as one error instead of numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, m, cfg.batch_size):
                batch = order[lo : lo + cfg.batch_size]
                Xb, yb = X[batch], y[batch]
                z = -yb * (Xb @ beta)
                dz = loss_slope(inst.loss, z)
                if u is None:
                    dz *= yb
                    count = float(len(batch))
                else:
                    ub = u[batch]
                    dz = ub * dz * yb
                    count = float(np.sum(ub))
                # mean-objective gradient: per-point loss terms plus the 1/n
                # regularizer share, so the step scale is independent of n
                g = -(dz @ Xb) / count
                g = g + reg_grad(inst.reg, beta, inst.reg_scale) / inst.n
                beta = beta - cfg.learning_rate * g
        if not np.all(np.isfinite(beta)):
            raise NonFiniteError(f"SGD diverged in epoch {epoch}")
        clock += time.perf_counter() - t0
        _trace_point(inst, full_cs, beta, trace, clock)
    trace.final_objective = trace.objectives[-1]
    return Hypothesis(beta=beta), trace

