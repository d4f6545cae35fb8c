"""Coreset construction by uniform i.i.d. sampling, and a single-pass
reservoir variant for streams.  The sensitivity bound is uniform, so
sensitivity sampling with it is exactly uniform sampling with weights n/q.

All randomness comes from numpy's PCG64 generator seeded explicitly; the
algorithm identifier RNG_ALGORITHM is recorded in serialized coresets so
results can be reproduced elsewhere.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable, Tuple

import numpy as np

from .errors import EmptyDatasetError, StreamTooShortError
from .model import RlmInstance, WeightedCoreset

RNG_ALGORITHM = "numpy-pcg64"


class SampleMode(Enum):
    IID_WITH_REPLACEMENT = "iid_with_replacement"
    RESERVOIR = "reservoir"


def uniform_sample(inst_or_n, q: int, seed: int) -> WeightedCoreset:
    """Uniform i.i.d. sample of q indices with replacement, each weighted n/q.
    For q >= n the full dataset is returned with unit weights."""
    n = inst_or_n.n if isinstance(inst_or_n, RlmInstance) else int(inst_or_n)
    if n == 0:
        raise EmptyDatasetError("cannot sample from an empty dataset")
    if q < 1:
        raise ValueError("q must be at least 1")
    if q >= n:
        return WeightedCoreset(indices=np.arange(n), weights=np.ones(n))
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=q)
    weights = np.full(q, n / q)
    # n/q is rarely exact in binary float; fold the sub-ulp residual into the
    # last weight so the weights sum to n exactly (fsum is exactly rounded)
    for _ in range(3):
        residual = n - math.fsum(weights)
        if residual == 0.0:
            break
        weights[-1] += residual
    return WeightedCoreset(indices=idx, weights=weights)


class ReservoirSampler:
    """Single-pass uniform without-replacement sampler with O(q) memory.

    Stateful and single-owner; feed items with push() and call finalize()
    once the stream ends.  Also tracks the running maximum point norm R.
    """

    def __init__(self, q: int, seed: int):
        if q < 1:
            raise ValueError("q must be at least 1")
        self.q = q
        self._rng = np.random.default_rng(seed)
        self._points: list[np.ndarray] = []
        self._labels: list[float] = []
        self._seen = 0
        self._radius = 0.0

    def push(self, x, y) -> None:
        x = np.asarray(x, dtype=float)
        # the 2-norm as np.linalg.norm computes it for a 1-D vector, without its overhead
        self._radius = max(self._radius, math.sqrt(x.dot(x)))
        i = self._seen
        self._seen += 1
        if i < self.q:
            self._points.append(x)
            self._labels.append(float(y))
            return
        j = int(self._rng.integers(0, i + 1))
        if j < self.q:
            self._points[j] = x
            self._labels[j] = float(y)

    def finalize(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float, int]:
        """Returns (points, labels, weights, R, n); weights are n/q once the
        stream length n is known (1 when the whole stream was retained)."""
        if self._seen == 0:
            raise StreamTooShortError("empty stream")
        kept = len(self._points)
        w = np.ones(kept) if self._seen <= self.q else np.full(kept, self._seen / self.q)
        return (
            np.vstack(self._points),
            np.asarray(self._labels),
            w,
            self._radius,
            self._seen,
        )


def stream_sample(stream: Iterable, q: int, seed: int):
    """Run the reservoir over an iterable of (x, y) pairs."""
    sampler = ReservoirSampler(q, seed)
    for x, y in stream:
        sampler.push(x, y)
    return sampler.finalize()
