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
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInstanceError, InvalidParameterError, NoChunkFoundError
from .model import (
    Hypothesis,
    LossKind,
    RegularizerKind,
    RlmInstance,
    loss_eval,
)

_BLOCK = 1 << 20  # angles per summed block
_PIECE = 1 << 15  # angles evaluated at once while a block is filled (cache-sized)


# ---------------------------------------------------------------------------
# Two-cluster instance (d = 1, squared 2-norm regularizer, R = 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoClusterInstance:
    """count_a points at x=+1 and count_b points at x=-1, all labeled +1."""

    n: int
    kappa: float
    gamma: float
    loss: LossKind
    lam: float
    count_a: int
    count_b: int


def gen_two_cluster(
    n: int, kappa: float, gamma: float, loss: LossKind = LossKind.LOGISTIC
) -> TwoClusterInstance:
    if not (0.0 < kappa < 1.0):
        raise InvalidParameterError("kappa must lie in (0, 1)")
    if not (0.0 < gamma < 1.0):
        raise InvalidParameterError("gamma must lie in (0, 1)")
    lam = float(n) ** kappa
    count_b = int(round(lam * float(n) ** (gamma / 2.0)))
    if not (1 <= count_b < n):
        raise DegenerateInstanceError(
            f"minority cluster size {count_b} outside [1, {n})"
        )
    return TwoClusterInstance(
        n=n, kappa=kappa, gamma=gamma, loss=loss, lam=lam,
        count_a=n - count_b, count_b=count_b,
    )


def beta0(n: int, gamma: float) -> Hypothesis:
    """The adversarial hypothesis n^(gamma/4) for the two-cluster instance."""
    if not (0.0 < gamma < 1.0):
        raise InvalidParameterError("gamma must lie in (0, 1)")
    return Hypothesis(beta=np.array([float(n) ** (gamma / 4.0)]))


def two_cluster_H(
    inst: TwoClusterInstance,
    sample_in_a: bool,
    c: int,
    u: float,
    beta: float,
) -> float:
    """Exact H at the 1-d hypothesis beta for a coreset of c equal-weight
    points drawn entirely from one cluster; O(1) via group multiplicities."""
    if c < 1:
        raise InvalidParameterError("c must be at least 1")
    loss_a = float(loss_eval(inst.loss, -beta))  # x=+1, y=+1
    loss_b = float(loss_eval(inst.loss, beta))  # x=-1, y=+1
    reg = inst.lam * beta * beta  # R = 1, squared 2-norm
    full = inst.count_a * loss_a + inst.count_b * loss_b + reg
    sample_loss = loss_a if sample_in_a else loss_b
    coreset = c * u * sample_loss + (c * u / inst.n) * reg
    return abs(full - coreset) / full


def prob_sample_misses_b(inst: TwoClusterInstance, c: int) -> float:
    """Union-bound lower estimate of P[C is entirely inside the big cluster]."""
    return max(0.0, 1.0 - c * inst.count_b / inst.n)


def materialize_two_cluster(inst: TwoClusterInstance) -> RlmInstance:
    """Explicit n-point instance for cross-checking the grouped evaluator."""
    x = np.concatenate(
        [np.ones(inst.count_a), -np.ones(inst.count_b)]
    ).reshape(-1, 1)
    y = np.ones(inst.n)
    return RlmInstance(
        X=x, y=y, loss=inst.loss, reg=RegularizerKind.L2_SQUARED, kappa=inst.kappa
    )


# ---------------------------------------------------------------------------
# Circle instance (lifted to 3-d with a bias coordinate; R = sqrt(2))
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CircleInstance:
    """n positively labeled points at angles 2*pi*i/n on the unit circle,
    lifted to the z=1 plane so hypotheses carry a bias; R = sqrt(2) and the
    regularizer term is 2*lambda*||beta||^2."""

    n: int
    kappa: float
    loss: LossKind
    lam: float


def gen_circle(
    n: int, kappa: float = 0.5, loss: LossKind = LossKind.LOGISTIC
) -> CircleInstance:
    if n < 8:
        raise InvalidParameterError("circle instance needs at least 8 points")
    if not (0.0 < kappa < 1.0):
        raise InvalidParameterError("kappa must lie in (0, 1)")
    return CircleInstance(n=n, kappa=kappa, loss=loss, lam=float(n) ** kappa)


def circle_points(n: int, idx) -> np.ndarray:
    """Materialize the 2-d coordinates of the given point indices."""
    theta = 2.0 * np.pi * np.asarray(idx, dtype=float) / n
    return np.column_stack([np.cos(theta), np.sin(theta)])


@dataclass(frozen=True)
class Chunk:
    """A run of consecutive circle points centered in a coreset-free window."""

    start: int
    length: int
    window_start: int
    window_length: int
    n: int
    k: int

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


def find_chunk(n: int, k: int, coreset_indices) -> Chunk:
    """First (smallest window start, circular scan from 0) window of n//(2k)
    consecutive indices disjoint from the coreset; the chunk is its middle
    n//(4k) indices.

    The first free window starts at 0 or just after an occupied index, so
    only those candidates are tested, each by binary search over the sorted
    occupied indices: O(k log k) time and O(k) memory, whatever n is."""
    if k < 1:
        raise InvalidParameterError(f"k must be at least 1, got {k}")
    window = n // (2 * k)
    if window < 2:
        raise NoChunkFoundError(f"window n//(2k) = {window} too short")
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
        window_start=window_start, window_length=window,
        n=n, k=k,
    )


def default_beta_norm(n: int, gamma: float, k: int, lam: float) -> float:
    """The construction's hypothesis scale sqrt(n^(1-gamma)/(k*lambda))."""
    return math.sqrt(float(n) ** (1.0 - gamma) / (k * lam))


def chunk_hypothesis(chunk: Chunk, target_norm: float) -> Hypothesis:
    """Hypothesis whose decision line passes through the two points adjacent
    to the chunk, misclassifying exactly the chunk side of that line."""
    if not (0.0 < target_norm < math.inf):
        raise InvalidParameterError(
            f"target_norm must be positive and finite, got {target_norm!r}")
    m = chunk.center_angle
    phi = chunk.boundary_angle
    raw = np.array([-math.cos(m), -math.sin(m), math.cos(phi)])
    scaled = raw * (target_norm / np.linalg.norm(raw))
    return Hypothesis(beta=scaled[:2], bias=float(scaled[2]))


def point_line_distance(theta_i, theta):
    """Distance from the circle point at angle theta_i (measured from the
    chunk center) to the vertical chord through the points at +-theta."""
    return np.abs(np.cos(theta_i) - np.cos(theta))


def _circle_loss_sum(inst: CircleInstance, h: Hypothesis) -> float:
    """Sum of per-point losses over all n angles, streamed in blocks; each
    block is filled in cache-sized pieces and then summed as one array."""
    total = 0.0
    block = np.empty(min(_BLOCK, inst.n))
    for lo in range(0, inst.n, _BLOCK):
        hi = min(lo + _BLOCK, inst.n)
        for a in range(lo, hi, _PIECE):
            b = min(a + _PIECE, hi)
            block[a - lo:b - lo] = _circle_losses_at(inst, np.arange(a, b), h)
        total += float(np.sum(block[:hi - lo]))
    return total


def _circle_losses_at(inst: CircleInstance, idx, h: Hypothesis) -> np.ndarray:
    theta = 2.0 * np.pi * np.asarray(idx, dtype=float) / inst.n
    bx, by = h.beta
    z = -(bx * np.cos(theta) + by * np.sin(theta) + h.bias)
    return loss_eval(inst.loss, z)


def _circle_sums(inst: CircleInstance, indices, weights, h: Hypothesis):
    """The two loss sums every circle evaluator reads: the streamed sum over
    all n angles and the weighted sum over the coreset."""
    weights = np.asarray(weights, dtype=float)
    coreset = float(np.dot(weights, _circle_losses_at(inst, indices, h)))
    return _circle_loss_sum(inst, h), coreset


def circle_H(inst: CircleInstance, indices, weights, h: Hypothesis,
             sums=None) -> float:
    """Exact H on the lifted circle instance (regularizer 2*lambda*||h||^2).
    ``sums`` is the pair (loss sum over all n angles, weighted coreset loss)
    when the caller has it already; otherwise it is computed here."""
    loss_sum, coreset = _circle_sums(inst, indices, weights, h) if sums is None else sums
    reg = 2.0 * inst.lam * h.norm() ** 2
    full = loss_sum + reg
    coreset += float(np.sum(np.asarray(weights, dtype=float))) / inst.n * reg
    return abs(full - coreset) / full


def lemma_ratios(inst: CircleInstance, indices, weights, h: Hypothesis, sums=None):
    """The two vanishing ratios from the lower-bound argument:
    r1 = lambda*||h||^2 / sum of losses, r2 = weighted coreset loss share.
    ``sums`` is as for ``circle_H``."""
    loss_sum, coreset = _circle_sums(inst, indices, weights, h) if sums is None else sums
    r1 = inst.lam * h.norm() ** 2 / loss_sum
    r2 = coreset / loss_sum
    return r1, r2


def circle_witness(inst: CircleInstance, indices, weights, h: Hypothesis):
    """(H, r1, r2) of ``circle_H`` and ``lemma_ratios`` from one streamed pass."""
    sums = _circle_sums(inst, indices, weights, h)
    return (circle_H(inst, indices, weights, h, sums),
            *lemma_ratios(inst, indices, weights, h, sums))


def materialize_circle(inst: CircleInstance) -> RlmInstance:
    """Explicit lifted 3-d instance (third coordinate 1) for brute-force
    cross-checks; a hypothesis with bias b maps to beta = (bx, by, b)."""
    flat = circle_points(inst.n, np.arange(inst.n))
    X = np.column_stack([flat, np.ones(inst.n)])
    y = np.ones(inst.n)
    return RlmInstance(
        X=X, y=y, loss=inst.loss, reg=RegularizerKind.L2_SQUARED, kappa=inst.kappa
    )
