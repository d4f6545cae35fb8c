import numpy as np
import pytest

from conftest import oracle_stream_sample, random_instance
from rlm_coreset.errors import EmptyDatasetError, StreamTooShortError
from rlm_coreset.model import (
    LossKind,
    RegularizerKind,
    RlmInstance,
    WeightedCoreset,
    approximation_error,
    check_weight_sum,
)
from rlm_coreset.sampling import STREAM_BLOCK, stream_sample, uniform_sample


class TestUniformSample:
    def test_q_at_least_n_gives_identity(self, rng):
        inst = random_instance(rng, n=12)
        cs = uniform_sample(inst, q=20, seed=0)
        assert np.array_equal(cs.indices, np.arange(12))
        assert np.all(cs.weights == 1.0)
        for _ in range(5):
            assert approximation_error(inst, cs, rng.standard_normal(3)) <= 1e-12

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
        assert R == np.max(np.linalg.norm(X, axis=1))

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
        pts = ((np.array([float(i)]), 1.0) for i in range(10))
        X, y, w, R, n = stream_sample(pts, q=2, seed=0)
        assert n == 10 and len(y) == 2 and R == 9.0


def _stream_data(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, size=(n, 1))
    return X, rng.choice([-1.0, 1.0], size=n)


class TestBlockReservoir:
    """The block reservoir against the per-row oracle: the same bytes for
    points, labels, weights and n, and the instance's R."""

    @pytest.mark.parametrize("n, q, d", [
        (5, 10, 3),             # n < q: everything kept
        (10, 10, 3),            # n = q
        (3000, 1, 1),           # q = 1: one slot drawn many times per block
        (3000, 1, 10),
        (STREAM_BLOCK - 1, 50, 10),
        (STREAM_BLOCK, 50, 10),
        (STREAM_BLOCK + 1, 50, 1),
        (STREAM_BLOCK + 1, STREAM_BLOCK, 10),   # the head fills the first block exactly
        (2 * STREAM_BLOCK + 1, 1500, 10),       # the head ends inside the second block
        (12000, 2000, 10),                      # several blocks past the head
        (12000, 700, 1),
    ])
    def test_matches_the_per_row_reservoir(self, n, q, d):
        X, y = _stream_data(n, d, seed=n + q + d)
        want = oracle_stream_sample(zip(X, y), q, seed=n * q)
        got = stream_sample(zip(X, y), q, seed=n * q)
        for a, b in zip(got[:3], want[:3]):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert got[4] == want[4] == n
        inst = RlmInstance(X=X, y=y, loss=LossKind.LOGISTIC,
                           reg=RegularizerKind.L2_SQUARED, kappa=0.5)
        assert got[3] == inst.R

    def test_rows_given_as_lists(self):
        X, y = _stream_data(STREAM_BLOCK + 7, 4, seed=3)
        want = oracle_stream_sample(zip(X, y), 9, seed=5)
        got = stream_sample(zip(X.tolist(), y.tolist()), 9, seed=5)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    def test_radius_is_the_instance_radius(self):
        # the per-row 1-D norm differs from the instance's by an ulp on some
        # of these datasets; the reservoir's R is the instance's on all
        for seed in range(40):
            X, y = _stream_data(2000, 10, seed)
            inst = RlmInstance(X=X, y=y, loss=LossKind.LOGISTIC,
                               reg=RegularizerKind.L2_SQUARED, kappa=0.5)
            assert stream_sample(zip(X, y), 25, seed)[3] == inst.R

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 7, STREAM_BLOCK + 3])
    def test_non_finite_point_is_refused(self, bad, row):
        X, y = _stream_data(STREAM_BLOCK + 10, 3, seed=1)
        X[row, 1] = bad
        with pytest.raises(ValueError, match="points must be finite"):
            stream_sample(zip(X, y), 5, seed=0)

    @pytest.mark.parametrize("row", [0, STREAM_BLOCK + 3])
    def test_point_whose_norm_overflows_is_refused(self, row):
        X, y = _stream_data(STREAM_BLOCK + 10, 3, seed=1)
        X[row] = 1e200
        with pytest.raises(ValueError, match="2-norm is not finite"):
            stream_sample(zip(X, y), 5, seed=0)

    @pytest.mark.parametrize("bad", [0.0, 5.0, -2.0, np.nan])
    @pytest.mark.parametrize("row", [0, 7, STREAM_BLOCK + 3])
    def test_label_outside_plus_minus_one_is_refused(self, bad, row):
        # the instance's row check: a reservoir the instance would refuse
        X, y = _stream_data(STREAM_BLOCK + 10, 3, seed=1)
        y[row] = bad
        with pytest.raises(ValueError, match="labels must be in"):
            stream_sample(zip(X, y), 5, seed=0)

    def test_rows_of_another_width_are_refused(self):
        rows = [(np.zeros(3), 1.0)] * STREAM_BLOCK + [(np.zeros(1), 1.0)]
        with pytest.raises(ValueError, match="3 and 1 features"):
            stream_sample(rows, 2, seed=0)


class TestSamplerConfig:
    def test_invalid_q_everywhere(self):
        with pytest.raises(ValueError):
            uniform_sample(10, 0, seed=0)
        with pytest.raises(ValueError):
            stream_sample([(np.zeros(2), 1.0)], q=0, seed=0)


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
