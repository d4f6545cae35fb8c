import numpy as np
import pytest

from conftest import random_instance
from rlm_coreset.errors import EmptyDatasetError, StreamTooShortError
from rlm_coreset.model import WeightedCoreset, approximation_error, check_weight_sum
from rlm_coreset.sampling import ReservoirSampler, stream_sample, uniform_sample


class TestUniformSample:
    def test_q_at_least_n_gives_identity(self, rng):
        inst = random_instance(rng, n=12)
        cs = uniform_sample(inst, q=20, seed=0)
        assert np.array_equal(cs.indices, np.arange(12))
        assert np.all(cs.weights == 1.0)
        for _ in range(5):
            from rlm_coreset.model import Hypothesis
            h = Hypothesis(beta=rng.standard_normal(3))
            assert approximation_error(inst, cs, h) <= 1e-12

    def test_weight_arithmetic(self):
        cs = uniform_sample(10**6, q=100, seed=1)
        assert cs.size == 100
        assert np.all(cs.weights == 10**4)
        assert cs.weight_sum() == 10**6

    def test_weight_sum_always_exact(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 1000))
            q = int(rng.integers(1, n))
            cs = uniform_sample(n, q, seed=int(rng.integers(0, 2**32)))
            assert check_weight_sum(cs, n, 0.001)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            uniform_sample(0, q=1, seed=0)

    def test_frequency(self):
        # each of n=20 indices should be drawn with probability 1/20 per draw
        n, q, trials = 20, 5, 10**5
        counts = np.zeros(n, dtype=np.int64)
        for t in range(trials):
            cs = uniform_sample(n, q, seed=t)
            counts += np.bincount(cs.indices, minlength=n)
        total = trials * q
        expect = total / n
        sigma = np.sqrt(total * (1 / n) * (1 - 1 / n))
        assert np.all(np.abs(counts - expect) <= 3 * sigma)

    def test_deterministic(self):
        a = uniform_sample(1000, 50, seed=9)
        b = uniform_sample(1000, 50, seed=9)
        assert np.array_equal(a.indices, b.indices)


class TestReservoir:
    def test_short_stream_keeps_everything(self):
        pts = [(np.array([float(i), 0.0]), 1.0) for i in range(3)]
        X, y, w, R, n = stream_sample(pts, q=10, seed=0)
        assert n == 3 and len(y) == 3
        assert np.all(w == 1.0)
        assert R == 2.0

    def test_running_radius(self):
        pts = [(np.array([3.0, 4.0]), 1.0), (np.array([1.0, 0.0]), -1.0)]
        _, _, _, R, _ = stream_sample(pts, q=1, seed=0)
        assert R == 5.0

    def test_running_radius_equals_numpy_norm(self, rng):
        X = rng.standard_normal((500, 10)) * rng.uniform(0.1, 10.0, size=(500, 1))
        _, _, _, R, _ = stream_sample(zip(X, np.ones(500)), q=20, seed=1)
        assert R == max(np.linalg.norm(x) for x in X)

    def test_empty_stream(self):
        with pytest.raises(StreamTooShortError):
            stream_sample([], q=3, seed=0)

    def test_weights_sum_to_n(self):
        pts = [(np.array([0.1 * i]), 1.0) for i in range(100)]
        _, _, w, _, n = stream_sample(pts, q=10, seed=4)
        assert float(np.sum(w)) == pytest.approx(100.0)
        assert n == 100

    def test_inclusion_probability(self):
        # hypergeometric marginal: every item kept with probability q/n
        n, q, trials = 20, 5, 10**5
        counts = np.zeros(n, dtype=np.int64)
        for t in range(trials):
            pts = [(np.array([float(i)]), 1.0) for i in range(n)]
            X, _, _, _, _ = stream_sample(pts, q=q, seed=t)
            kept = X[:, 0].astype(int)
            counts[kept] += 1
        p = q / n
        sigma = np.sqrt(trials * p * (1 - p))
        assert np.all(np.abs(counts - trials * p) <= 3 * sigma)

    def test_exchangeability_under_permutation(self):
        # permuting the stream leaves each item's inclusion probability at q/n
        n, q, trials = 10, 3, 2 * 10**4
        counts_fwd = np.zeros(n, dtype=np.int64)
        counts_rev = np.zeros(n, dtype=np.int64)
        for t in range(trials):
            fwd = [(np.array([float(i)]), 1.0) for i in range(n)]
            rev = list(reversed(fwd))
            Xf, *_ = stream_sample(fwd, q=q, seed=t)
            Xr, *_ = stream_sample(rev, q=q, seed=t + trials)
            counts_fwd[Xf[:, 0].astype(int)] += 1
            counts_rev[Xr[:, 0].astype(int)] += 1
        p = q / n
        sigma = np.sqrt(trials * p * (1 - p))
        assert np.all(np.abs(counts_fwd - trials * p) <= 4 * sigma)
        assert np.all(np.abs(counts_rev - trials * p) <= 4 * sigma)

    def test_deterministic(self):
        pts = [(np.array([float(i)]), 1.0) for i in range(50)]
        a = stream_sample(pts, q=5, seed=123)
        b = stream_sample(pts, q=5, seed=123)
        assert np.array_equal(a[0], b[0])

    def test_handoff_between_pushes(self):
        sampler = ReservoirSampler(q=2, seed=0)
        for i in range(10):
            sampler.push(np.array([float(i)]), 1.0)
        X, y, w, R, n = sampler.finalize()
        assert n == 10 and len(y) == 2 and R == 9.0


class TestSamplerConfig:
    def test_invalid_q_everywhere(self):
        with pytest.raises(ValueError):
            uniform_sample(10, 0, seed=0)
        with pytest.raises(ValueError):
            ReservoirSampler(q=0, seed=0)


def test_identity_holds_for_weighted_draws(rng):
    # spot-check the coreset object validates through the model layer
    cs = uniform_sample(100, 10, seed=0)
    assert isinstance(cs, WeightedCoreset)
    assert cs.indices.dtype == np.int64


def test_identity_coreset_detected(rng):
    inst = random_instance(rng, n=30)
    for q in (30, 31, 1000):
        assert uniform_sample(inst, q, seed=q).is_identity
    assert not uniform_sample(inst, 29, seed=0).is_identity
