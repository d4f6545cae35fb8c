"""Scaling-condition constants, per-point sensitivity upper bounds, and the
i.i.d. sampling size formula.

A loss/regularizer pair satisfies the (sigma, tau)-scaling condition when
loss(-sigma) > 0 and reg(beta) >= tau * loss(||beta||_2) whenever
||beta||_2 >= sigma.  Under that condition every point's sensitivity
sup_beta f_i(beta)/F(beta) is bounded uniformly, which is what makes plain
uniform sampling produce coresets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameterError
from .model import LossKind, RegularizerKind, RlmInstance, loss_eval, vc_bound


@dataclass(frozen=True)
class ScalingConstants:
    sigma: float
    tau: float


@dataclass(frozen=True)
class SensitivityProfile:
    """Uniform per-point sensitivity upper bound s', its total, and the VC bound."""

    s_prime: float
    S_prime: float
    delta_vc: int


# (loss, regularizer) -> (sigma, tau).  Logistic: loss(z) <= 2z and <= 2z^2 for
# z >= 1.  Hinge: 1+z <= 3z for z >= 1/2; z^2 >= 4z fails below z=4, but
# tau=1/12 covers the squared norm case.
_SCALING_TABLE = {
    (LossKind.LOGISTIC, RegularizerKind.L1): ScalingConstants(1.0, 0.5),
    (LossKind.LOGISTIC, RegularizerKind.L2): ScalingConstants(1.0, 0.5),
    (LossKind.LOGISTIC, RegularizerKind.L2_SQUARED): ScalingConstants(1.0, 0.5),
    (LossKind.HINGE, RegularizerKind.L1): ScalingConstants(0.5, 1.0 / 3.0),
    (LossKind.HINGE, RegularizerKind.L2): ScalingConstants(0.5, 1.0 / 3.0),
    (LossKind.HINGE, RegularizerKind.L2_SQUARED): ScalingConstants(0.5, 1.0 / 12.0),
}


def scaling_constants(loss: LossKind, reg: RegularizerKind) -> ScalingConstants:
    return _SCALING_TABLE[(loss, reg)]


def sensitivity_upper_bound(inst: RlmInstance) -> SensitivityProfile:
    """Uniform bound s' = 1/(tau*lambda) + loss(sigma)/(n*loss(-sigma)) + 1/n,
    clamped to 1 (a summand's share of a nonnegative sum never exceeds 1)."""
    sc = scaling_constants(inst.loss, inst.reg)
    n = inst.n
    s = (
        1.0 / (sc.tau * inst.lam)
        + float(loss_eval(inst.loss, sc.sigma))
        / (n * float(loss_eval(inst.loss, -sc.sigma)))
        + 1.0 / n
    )
    s = min(s, 1.0)
    return SensitivityProfile(s_prime=s, S_prime=n * s, delta_vc=vc_bound(inst.d))


def total_sensitivity_default(n: int, lam: float) -> float:
    """Loss-agnostic total-sensitivity bound S' = 12n/lambda + 6 covering both
    losses and all three regularizers."""
    return 12.0 * n / lam + 6.0


def sample_size(S_prime: float, delta_vc: int, eps: float, delta: float, n: int) -> int:
    """Number of i.i.d. draws sufficient for an eps-coreset with probability
    1-delta: ceil((10 S'/eps^2)(delta_vc ln S' + ln(1/delta))), clamped to n."""
    if not (0.0 < eps < 1.0):
        raise InvalidParameterError(f"eps must lie in (0, 1), got {eps}")
    if not (0.0 < delta < 1.0):
        raise InvalidParameterError(f"delta must lie in (0, 1), got {delta}")
    if S_prime <= 1.0:
        raise InvalidParameterError("S_prime must exceed 1")
    # a tiny eps or delta sends the bound past n, or past the floats, to inf
    scale = 10.0 * S_prime / eps**2 if eps**2 > 0.0 else math.inf
    raw = scale * (delta_vc * math.log(S_prime) + math.log(1.0 / delta))
    return int(math.ceil(raw)) if raw < n else n
