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
    LossKind,
    RegularizerKind,
    RlmInstance,
    WeightedCoreset,
    loss_terms,
    objective_rows,
    reg_grad,
    row_margins,
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
    objective).  Objective evaluation time is excluded from the clock.  GD
    records each new iterate's F stamped with the clock of the step that
    made it, and once more at exit; SGD records F after each epoch.  Without
    full_trace, only the exit record is kept.

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


def _is_smooth(inst: RlmInstance) -> bool:
    return inst.loss is LossKind.LOGISTIC and inst.reg is not RegularizerKind.L1


def train(
    inst: RlmInstance, cfg: TrainConfig, cs: Optional[WeightedCoreset] = None,
    full_trace: bool = True,
) -> Tuple[np.ndarray, TrainTrace]:
    """Train beta from 0 on the (weighted) objective and return it with the
    trace, which always records the objective evaluated on the full
    instance.  With full_trace off the trace holds only the exit record, and
    a coreset run takes no pass over all rows before its exit."""
    optimizer = _train_sgd if cfg.method is TrainMethod.SGD else _train_gd
    # the one numeric guard: an overflow ends as a non-finite F or gradient
    # norm, which the optimizers refuse with NonFiniteError, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        # the rows, gathered once, are the optimizer's alone (CPython moves
        # call arguments into the callee), so GD can drop them before its exit
        return optimizer(inst, objective_rows(inst, cs), cfg, full_trace)


def _full_value(inst, beta) -> float:
    """F at beta: one value pass over all rows, refused when not finite."""
    f = weighted_objective_grad(inst, objective_rows(inst), beta, grad=False)[0]
    if not np.isfinite(f):
        raise NonFiniteError("objective over all rows is not finite")
    return f


def _kink_bound(inst, rows) -> float:
    """For the (non-squared) 2-norm, the radius (sum u / n) * lambda * R of
    the weighted regularizer's subdifferential at beta = 0: beta = 0 is
    optimal when the loss gradient there is no longer.  0 otherwise."""
    if inst.reg is not RegularizerKind.L2:
        return 0.0
    return rows.share * inst.reg_scale


def _train_gd(inst, rows, cfg, full_trace):
    beta = np.zeros(inst.d)
    trace = TrainTrace()
    # on full data every value computed on rows is the full objective the
    # trace records, so the trace reuses it instead of evaluating again
    full = rows.u is None
    smooth = _is_smooth(inst)
    kink = _kink_bound(inst, rows) if smooth else 0.0
    clock = 0.0
    # the best iterate, its value on rows and its F, once known
    best_beta, best_f, best_full = beta, np.inf, None
    step = STEP_INIT
    # the margins at beta of the Armijo trial accepted last, whose value f
    # is known: the gradient is computed from them, consuming them.  Every
    # trial writes its margins into zbuf, allocated by the first one
    z = zbuf = None
    f_full = None  # F at beta, once known
    for it in range(cfg.max_iters):
        # from iteration 1 on beta is new: its F is recorded with the clock of
        # the step that made it, on a coreset from one pass off the clock
        if it and full_trace and not full:
            f_full = _full_value(inst, beta)
        t0 = time.perf_counter()
        if z is None:
            f, g = weighted_objective_grad(inst, rows, beta)
        else:
            _, g = weighted_objective_grad(inst, rows, beta, z=z, value=False)
            z = None
        if full:
            f_full = f
        if it and full_trace:
            trace.append(clock, f_full)
        gnorm = float(np.linalg.norm(g))
        if not (np.isfinite(f) and np.isfinite(gnorm)):
            raise NonFiniteError(f"non-finite objective/gradient at iter {it}")
        if f < best_f:
            best_f, best_beta, best_full = f, beta, f_full
        # at iteration 0 beta = 0 and the regularizer's gradient there is 0,
        # so g is the loss gradient and the kink test is the optimality test
        if gnorm <= cfg.grad_tol or (it == 0 and gnorm <= kink):
            trace.stop_reason = "converged"
        elif smooth:
            step *= 2.0  # warm start from the last accepted step
            backtracked = False
            while True:
                cand = beta - step * g
                z = zbuf = row_margins(rows.X, rows.y, cand, out=zbuf)
                f_new, _ = weighted_objective_grad(inst, rows, cand, grad=False, z=z)
                if f_new <= f - ARMIJO_C * step * gnorm * gnorm:
                    break
                step *= ARMIJO_SHRINK
                backtracked = True
                if step < 1e-20:
                    raise NonFiniteError("Armijo backtracking underflow")
            # the next iteration would see the same (beta, f, g), reject the
            # same doubled step and accept this one again, forever
            if backtracked and cand.tobytes() == beta.tobytes():
                trace.stop_reason = "stalled"
            beta, f = cand, f_new
        else:
            beta = beta - STEP_INIT / np.sqrt(it + 1.0) * g / max(gnorm, 1e-30)
        clock += time.perf_counter() - t0
        if trace.stop_reason != "max_iters":
            break
    # a pass over all rows holds no coreset rows or margins beside its own
    del rows, z, zbuf
    # converged and stalled end at the bytes of f_full's beta; a run out of
    # budget ends at a new beta, whose F on full data is its trial's value
    if trace.stop_reason == "max_iters":
        f_full = f if full and smooth else None
    if f_full is None:
        f_full = _full_value(inst, beta)
    trace.append(clock, f_full)
    if smooth:
        trace.final_objective = f_full
        return beta, trace
    # F of the best iterate is unknown only for beta_0 on a coreset
    if best_full is None:
        best_full = f_full if best_beta is beta else _full_value(inst, best_beta)
    trace.final_objective = best_full
    return best_beta, trace


def _train_sgd(inst, rows, cfg, full_trace):
    rng = np.random.default_rng(cfg.seed)
    beta = np.zeros(inst.d)
    trace = TrainTrace()
    clock = 0.0
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        beta = _sgd_epoch(inst, cfg, rng, rows, beta)
        clock += time.perf_counter() - t0
        # a diverging run ends in a non-finite beta, whose F is not finite
        if full_trace or epoch == cfg.epochs:
            trace.append(clock, _full_value(inst, beta))
    trace.final_objective = trace.objectives[-1]
    return beta, trace


def _sgd_epoch(inst, cfg, rng, rows, beta):
    """beta after one epoch of mini-batches over rows in rng's permutation;
    the permutation and the last batch are dropped on return, before the
    caller's pass over all rows.  On full data every weight is 1: the slopes
    go unweighted and sum(u) is the batch size."""
    X, y, u = rows.X, rows.y, rows.u
    order = rng.permutation(len(y))
    for lo in range(0, len(y), cfg.batch_size):
        batch = order[lo : lo + cfg.batch_size]
        Xb, yb = X.take(batch, axis=0), y.take(batch)
        ub = None if u is None else u.take(batch)
        # the kernel's margins, overwritten by (u * slope) * y
        dz = row_margins(Xb, yb, beta)
        loss_terms(inst.loss, dz, yb, ub, dz, value=False)
        count = float(len(batch)) if ub is None else float(np.sum(ub))
        # mean-objective gradient: per-point loss terms plus the 1/n
        # regularizer share, so the step scale is independent of n
        g = -(dz @ Xb) / count
        g = g + reg_grad(inst.reg, beta, inst.reg_scale) / inst.n
        beta = beta - cfg.learning_rate * g
    return beta
