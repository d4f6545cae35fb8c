"""Generators and evaluators for the two lower-bound constructions:

* the two-cluster line instance, where a uniform sample of n^(1-kappa-gamma)
  points almost surely misses the small cluster and then fails at the
  hypothesis beta0 = n^(gamma/4);
* the circle instance, where any k-point coreset leaves a coreset-free arc
  (a "chunk") that an adapted hypothesis beta_A misclassifies wholesale.

Both instances are represented implicitly so evaluation stays O(1) for the
two-cluster case and a single streamed pass for the circle.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInstanceError, InvalidParameterError, NoChunkFoundError
from .model import LossKind, blocked_sum, loss_eval, relative_errors

_PIECE = 1 << 15  # most angles evaluated at once (cache-sized)
# the circle's indices are int64, and find_chunk adds up to n//2 to one
_MAX_CIRCLE_N = 1 << 62


def _check_n_at_most(n: int, most) -> None:
    # an int and a float compare exactly, so a huge n is refused here
    # before float(n) could overflow
    if n > most:
        raise InvalidParameterError(
            f"n must be at most {most!r}, got one of {int(n).bit_length()} bits")


# ---------------------------------------------------------------------------
# Two-cluster instance (d = 1, squared 2-norm regularizer, R = 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoClusterInstance:
    """count_a points at x=+1 and count_b points at x=-1, all labeled +1."""

    n: int
    kappa: float
    loss: LossKind
    lam: float
    count_a: int
    count_b: int


def gen_two_cluster(
    n: int, kappa: float, gamma: float, loss: LossKind = LossKind.LOGISTIC
) -> TwoClusterInstance:
    if n < 1:
        raise InvalidParameterError(f"n must be at least 1, got {n}")
    _check_n_at_most(n, sys.float_info.max)
    if not (0.0 < kappa < 1.0):
        raise InvalidParameterError("kappa must lie in (0, 1)")
    if not (0.0 < gamma < 1.0):
        raise InvalidParameterError("gamma must lie in (0, 1)")
    lam = float(n) ** kappa
    size = lam * float(n) ** (gamma / 2.0)
    # a size that overflows is past n; round() of inf would raise
    count_b = int(round(size)) if math.isfinite(size) else size
    if not (1 <= count_b < n):
        raise DegenerateInstanceError(
            f"minority cluster size {count_b} outside [1, {n})"
        )
    return TwoClusterInstance(
        n=n, kappa=kappa, loss=loss, lam=lam,
        count_a=n - count_b, count_b=count_b,
    )


def beta0(n: int, gamma: float) -> float:
    """The adversarial hypothesis n^(gamma/4) for the two-cluster instance."""
    if not (0.0 < gamma < 1.0):
        raise InvalidParameterError("gamma must lie in (0, 1)")
    return float(n) ** (gamma / 4.0)


def two_cluster_H(inst: TwoClusterInstance, c: int, u: float, beta: float) -> float:
    """Exact H at the 1-d hypothesis beta for a coreset of c points of weight
    u drawn entirely from the big cluster; O(1) via group multiplicities."""
    if c < 1:
        raise InvalidParameterError("c must be at least 1")
    loss_a = float(loss_eval(inst.loss, -beta))  # x=+1, y=+1
    loss_b = float(loss_eval(inst.loss, beta))  # x=-1, y=+1
    reg = inst.lam * beta * beta  # R = 1, squared 2-norm
    full = inst.count_a * loss_a + inst.count_b * loss_b + reg
    coreset = c * u * loss_a + (c * u / inst.n) * reg
    return float(relative_errors(full, coreset))


def prob_sample_misses_b(inst: TwoClusterInstance, c: int) -> float:
    """Union-bound lower estimate of P[C is entirely inside the big cluster]."""
    return max(0.0, 1.0 - c * inst.count_b / inst.n)


# ---------------------------------------------------------------------------
# Circle instance (lifted to 3-d points (x, y, 1); R = sqrt(2))
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CircleInstance:
    """n positively labeled points at angles 2*pi*i/n on the unit circle,
    lifted to (cos, sin, 1), so a hypothesis is a 3-vector (bx, by, b) whose
    last coordinate acts as a bias; R = sqrt(2) and the regularizer term is
    2*lambda*||h||^2."""

    n: int
    kappa: float
    loss: LossKind
    lam: float


def gen_circle(
    n: int, kappa: float = 0.5, loss: LossKind = LossKind.LOGISTIC
) -> CircleInstance:
    if n < 8:
        raise InvalidParameterError("circle instance needs at least 8 points")
    _check_n_at_most(n, _MAX_CIRCLE_N)
    if not (0.0 < kappa < 1.0):
        raise InvalidParameterError("kappa must lie in (0, 1)")
    return CircleInstance(n=n, kappa=kappa, loss=loss, lam=float(n) ** kappa)


@dataclass(frozen=True)
class Chunk:
    """A run of consecutive circle points centered in a coreset-free window."""

    start: int
    length: int
    window_start: int
    window_length: int
    n: int

    @property
    def indices(self) -> np.ndarray:
        return (self.start + np.arange(self.length)) % self.n

    @property
    def center_angle(self) -> float:
        return 2.0 * math.pi * (self.start + (self.length - 1) / 2.0) / self.n

    @property
    def boundary_angle(self) -> float:
        """Angle from the chunk center to the two adjacent non-chunk points,
        where the adversarial decision line crosses the circle."""
        return math.pi * (self.length + 1) / self.n


def chunk_window(n: int, k: int) -> int:
    """The length n//(2k) of the coreset-free window find_chunk looks for,
    refused unless k >= 1 and the window holds at least 2 points.  It needs
    no coreset, so a k too large for n is refused before k indices exist."""
    if k < 1:
        raise InvalidParameterError(f"k must be at least 1, got {k}")
    window = n // (2 * k)
    if window < 2:
        raise NoChunkFoundError(f"window n//(2k) = {window} too short")
    return window


def find_chunk(n: int, k: int, coreset_indices) -> Chunk:
    """First (smallest window start, circular scan from 0) window of n//(2k)
    consecutive indices disjoint from the coreset; the chunk is its middle
    n//(4k) indices.

    The first free window starts at 0 or just after an occupied index, so
    only those candidates are tested, each by binary search over the sorted
    occupied indices: O(k log k) time and O(k) memory, whatever n is."""
    window = chunk_window(n, k)
    length = max(n // (4 * k), 1)
    occupied = np.unique(np.asarray(list(coreset_indices), dtype=np.int64) % n)
    starts = np.concatenate([[0], occupied[occupied < n - 1] + 1])
    ends = starts + window  # exclusive; past n the window wraps to [0, ends - n)
    hits = (np.searchsorted(occupied, np.minimum(ends, n))
            - np.searchsorted(occupied, starts)
            + np.searchsorted(occupied, np.maximum(ends - n, 0)))
    free = starts[hits == 0]
    if len(free) == 0:
        raise NoChunkFoundError("every window of length n//(2k) hits the coreset")
    window_start = int(free[0])
    start = (window_start + (window - length) // 2) % n
    return Chunk(
        start=start, length=length,
        window_start=window_start, window_length=window, n=n,
    )


def default_beta_norm(n: int, gamma: float, k: int, lam: float) -> float:
    """The construction's hypothesis scale sqrt(n^(1-gamma)/(k*lambda))."""
    return math.sqrt(float(n) ** (1.0 - gamma) / (k * lam))


def chunk_hypothesis(chunk: Chunk, target_norm: float) -> np.ndarray:
    """The lifted hypothesis (bx, by, b) of 2-norm target_norm whose decision
    line passes through the two points adjacent to the chunk, misclassifying
    exactly the chunk side of that line."""
    if not (0.0 < target_norm < math.inf):
        raise InvalidParameterError(
            f"target_norm must be positive and finite, got {target_norm!r}")
    m = chunk.center_angle
    phi = chunk.boundary_angle
    raw = np.array([-math.cos(m), -math.sin(m), math.cos(phi)])
    return raw * (target_norm / np.linalg.norm(raw))


def _circle_loss_sum(inst: CircleInstance, h: np.ndarray) -> float:
    """Sum of per-point losses over all n angles, streamed: blocked_sum adds
    np.sum of each piece of at most _PIECE angles, in blocks of 2**20 angles,
    so the total does not depend on the number of threads."""
    return blocked_sum(
        lambda lo, hi: float(np.sum(_circle_losses_at(inst, np.arange(lo, hi), h))),
        inst.n, _PIECE, 1)


def _circle_losses_at(inst: CircleInstance, idx, h: np.ndarray) -> np.ndarray:
    theta = 2.0 * np.pi * np.asarray(idx, dtype=float) / inst.n
    bx, by, b = h
    z = -(bx * np.cos(theta) + by * np.sin(theta) + b)
    return loss_eval(inst.loss, z)


def _squared_norm(h: np.ndarray) -> float:
    """||h||^2 of a lifted hypothesis (bx, by, b): the root of the (bx, by)
    dot product plus b^2, squared.  The circle's frozen H and r1 were taken
    in this order; np.dot(h, h) or np.linalg.norm(h) round differently."""
    return float(np.sqrt(np.dot(h[:2], h[:2]) + h[2] ** 2) ** 2)


def _circle_sums(inst: CircleInstance, indices, weights, h: np.ndarray):
    """The two loss sums every circle evaluator reads: the streamed sum over
    all n angles and the weighted sum over the coreset."""
    weights = np.asarray(weights, dtype=float)
    coreset = float(np.dot(weights, _circle_losses_at(inst, indices, h)))
    return _circle_loss_sum(inst, h), coreset


def circle_H(inst: CircleInstance, indices, weights, h: np.ndarray,
             sums=None) -> float:
    """Exact H on the lifted circle instance (regularizer 2*lambda*||h||^2).
    ``sums`` is the pair (loss sum over all n angles, weighted coreset loss)
    when the caller has it already; otherwise it is computed here."""
    loss_sum, coreset = _circle_sums(inst, indices, weights, h) if sums is None else sums
    reg = 2.0 * inst.lam * _squared_norm(h)
    full = loss_sum + reg
    coreset += float(np.sum(np.asarray(weights, dtype=float))) / inst.n * reg
    return float(relative_errors(full, coreset))


def lemma_ratios(inst: CircleInstance, indices, weights, h: np.ndarray, sums=None):
    """The two vanishing ratios from the lower-bound argument:
    r1 = lambda*||h||^2 / sum of losses, r2 = weighted coreset loss share.
    ``sums`` is as for ``circle_H``."""
    loss_sum, coreset = _circle_sums(inst, indices, weights, h) if sums is None else sums
    r1 = inst.lam * _squared_norm(h) / loss_sum
    r2 = coreset / loss_sum
    return r1, r2


def circle_witness(inst: CircleInstance, indices, weights, h: np.ndarray):
    """(H, r1, r2) of ``circle_H`` and ``lemma_ratios`` from one streamed pass.
    circle_H refuses an F or F_C that overflows.  When both are finite, so
    are r1 and r2: each chunk point's loss is at least log 2, and so is the
    loss sum they divide by."""
    # an overflow ends as inf in F or F_C, which circle_H refuses
    with np.errstate(over="ignore", invalid="ignore"):
        sums = _circle_sums(inst, indices, weights, h)
        return (circle_H(inst, indices, weights, h, sums),
                *lemma_ratios(inst, indices, weights, h, sums))
