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
from itertools import islice
from typing import Iterable

import numpy as np

from .errors import EmptyDatasetError, StreamTooShortError
from .model import RlmInstance, WeightedCoreset, max_row_norm

RNG_ALGORITHM = "numpy-pcg64"
# pairs the reservoir reads and converts at a time
STREAM_BLOCK = 1024


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


def stream_sample(stream: Iterable, q: int, seed: int):
    """Single-pass uniform without-replacement reservoir of q (x, y) pairs in
    O(q*d) memory.  Row i >= q replaces slot rng.integers(0, i+1) when that
    is below q; one call draws a block's slots, the same draws and generator
    state as one call per row, and a slot drawn twice keeps the later row.
    Returns (points, labels, weights, R, n): weights n/q (1 when all n <= q
    rows are kept) and R as RlmInstance computes it; a non-finite point is
    refused as RlmInstance refuses it."""
    if q < 1:
        raise ValueError("q must be at least 1")
    rng = np.random.default_rng(seed)
    pairs = iter(stream)
    head_X, head_y = [], []  # the first min(q, n) rows, block by block
    points = labels = None
    n, R = 0, 0.0
    while block := list(islice(pairs, STREAM_BLOCK)):
        xs, ys = zip(*block)
        X = np.array(xs, dtype=float).reshape(len(block), -1)
        y = np.array(ys, dtype=float).reshape(len(block))
        if not np.all(np.isfinite(X)):
            raise ValueError("points must be finite")
        if head_X and X.shape[1] != head_X[0].shape[1]:
            raise ValueError(f"stream rows have {head_X[0].shape[1]} and {X.shape[1]} features")
        R = max(R, max_row_norm(X))
        lo, n = n, n + len(block)
        if lo < q:
            head_X.append(X[:q - lo])
            head_y.append(y[:q - lo])
            if n < q:
                continue
            points, labels = np.concatenate(head_X), np.concatenate(head_y)
        first = max(lo, q)
        j = rng.integers(0, np.arange(first, n) + 1)
        hit = np.flatnonzero(j < q)[::-1]
        # the last row of the block to draw a slot is the one that keeps it
        slots, last = np.unique(j[hit], return_index=True)
        rows = hit[last] + (first - lo)
        points[slots] = X[rows]
        labels[slots] = y[rows]
    if n == 0:
        raise StreamTooShortError("empty stream")
    if points is None:
        points, labels = np.concatenate(head_X), np.concatenate(head_y)
    weights = np.ones(n) if n <= q else np.full(q, n / q)
    return points, labels, weights, R, n
