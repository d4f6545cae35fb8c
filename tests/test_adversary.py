import math
import tracemalloc

import numpy as np
import pytest

from conftest import brute_force_H
from rlm_coreset import adversary as adv
from rlm_coreset.errors import (
    DegenerateInstanceError,
    InvalidParameterError,
    NoChunkFoundError,
)
from rlm_coreset.model import (
    Hypothesis,
    LossKind,
    WeightedCoreset,
    approximation_error,
    loss_eval,
)


class TestTwoCluster:
    def test_counts_example(self):
        inst = adv.gen_two_cluster(10**6, 0.5, 0.4)
        assert inst.count_b == 15849
        assert inst.count_a == 984151
        assert inst.lam == pytest.approx(1000.0)

    def test_counts_boundary_gamma(self):
        inst = adv.gen_two_cluster(10**4, 0.5, 0.99)
        assert inst.count_b == 9550
        assert inst.count_b < inst.n

    def test_degenerate(self):
        with pytest.raises(DegenerateInstanceError):
            adv.gen_two_cluster(10, 0.9, 0.99)  # minority cluster >= n

    def test_materialized_labels_all_positive(self):
        inst = adv.gen_two_cluster(200, 0.5, 0.4)
        flat = adv.materialize_two_cluster(inst)
        assert np.all(flat.y == 1.0)
        assert flat.R == 1.0

    def test_beta0(self):
        assert float(adv.beta0(10**6, 0.4).beta[0]) == pytest.approx(10**0.6)
        assert float(adv.beta0(10**6, 1e-9).beta[0]) == pytest.approx(1.0, rel=1e-6)
        with pytest.raises(InvalidParameterError):
            adv.beta0(16, 1.0)
        with pytest.raises(InvalidParameterError):
            adv.beta0(16, 0.0)

    def test_H_zero_at_origin_with_uniform_weights(self):
        inst = adv.gen_two_cluster(10**5, 0.5, 0.4)
        assert adv.two_cluster_H(inst, True, 10, inst.n / 10, 0.0) == 0.0

    def test_grouped_matches_materialized(self, rng):
        for loss in LossKind:
            inst = adv.gen_two_cluster(500, 0.5, 0.4, loss)
            flat = adv.materialize_two_cluster(inst)
            c = 20
            # coreset drawn from cluster A: indices [0, count_a)
            idx = rng.integers(0, inst.count_a, size=c)
            u = inst.n / c
            cs = WeightedCoreset(indices=idx, weights=np.full(c, u))
            for beta in (0.5, 2.0, float(adv.beta0(500, 0.4).beta[0])):
                h = Hypothesis(beta=np.array([beta]))
                grouped = adv.two_cluster_H(inst, True, c, u, beta)
                exact = approximation_error(flat, cs, h)
                assert grouped == pytest.approx(exact, rel=1e-10)

    def test_oracle_value(self):
        # frozen from the closed-form hand computation:
        # |count_b*(l(b0)-l(-b0))| / (count_a*l(-b0)+count_b*l(b0)+lam*b0^2)
        inst = adv.gen_two_cluster(10**6, 0.5, 0.4)
        b0 = float(adv.beta0(10**6, 0.4).beta[0])
        H = adv.two_cluster_H(inst, True, 10, inst.n / 10, b0)
        assert H == pytest.approx(0.6475469901086592, abs=1e-9)

    def test_probability_bound(self):
        n, kappa, gamma = 10**6, 0.5, 0.4
        inst = adv.gen_two_cluster(n, kappa, gamma)
        c = int(round(n ** (1 - kappa - gamma)))
        p = adv.prob_sample_misses_b(inst, c)
        # rounding of c and count_b shifts the bound by O(1/c)
        assert p == pytest.approx(1 - 1 / n ** (gamma / 2), abs=2e-3)

    def test_requires_c(self):
        inst = adv.gen_two_cluster(10**4, 0.5, 0.4)
        with pytest.raises(InvalidParameterError):
            adv.two_cluster_H(inst, True, 0, 1.0, 1.0)


class TestCircleInstance:
    def test_minimum_size(self):
        with pytest.raises(InvalidParameterError):
            adv.gen_circle(4)

    def test_point_zero(self):
        pts = adv.circle_points(8, [0])
        assert pts[0] == pytest.approx([1.0, 0.0])

    def test_all_unit_norm_and_lifted_norm(self):
        pts = adv.circle_points(16, np.arange(16))
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)
        lifted = np.column_stack([pts, np.ones(16)])
        assert np.allclose(np.linalg.norm(lifted, axis=1), math.sqrt(2))
        inst = adv.gen_circle(16)
        assert adv.materialize_circle(inst).R == pytest.approx(math.sqrt(2))


class TestFindChunk:
    def test_example(self):
        chunk = adv.find_chunk(64, 4, {0, 16, 32, 48})
        assert chunk.window_start == 1
        assert chunk.window_length == 8
        assert list(chunk.indices) == [3, 4, 5, 6]

    def test_rotation_equivariance(self):
        base = adv.find_chunk(64, 4, {0, 16, 32, 48})
        rotated = adv.find_chunk(64, 4, {1, 17, 33, 49})
        assert rotated.start == base.start + 1
        assert list(rotated.indices) == [i + 1 for i in base.indices]

    def test_matches_brute_force_scan(self, rng):
        cases = [(64, 1, []), (64, 1, [5]), (64, 2, [3, 3, 3]), (20, 4, [0]),
                 (40, 2, [39, 79, -1]), (30, 16, []),
                 (16, 2, [3, 7, 11, 14])]  # the first free window starts at n - 1
        for _ in range(300):
            n = int(rng.integers(8, 200))
            k = int(rng.integers(1, 7))
            size = int(rng.integers(0, 2 * k + 3))
            # duplicates, negative indices and indices >= n all reduce mod n
            cases.append((n, k, [int(i) for i in rng.integers(-n, 3 * n, size=size)]))
        for n, k, C in cases:
            w = n // (2 * k)
            free = [s for s in range(n) if all((c - s) % n >= w for c in C)]
            if w < 2 or not free:
                with pytest.raises(NoChunkFoundError):
                    adv.find_chunk(n, k, C)
                continue
            chunk = adv.find_chunk(n, k, C)
            assert chunk.window_start == free[0], (n, k, C)
            assert chunk.window_length == w
            assert chunk.length == max(n // (4 * k), 1)

    def test_huge_n_needs_memory_of_order_k(self):
        n = 10**12
        tracemalloc.start()
        try:
            chunk = adv.find_chunk(n, 4, [0, n // 4, n // 2, 3 * n // 4])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chunk.window_start == 1 and chunk.length == n // 16
        assert peak < 100_000

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_k_below_one(self, k):
        with pytest.raises(InvalidParameterError):
            adv.find_chunk(64, k, [0])

    def test_guard_zone_disjoint(self):
        n, k = 256, 4
        C = {0, 64, 128, 192}
        chunk = adv.find_chunk(n, k, C)
        guard = n // (8 * k)
        protected = {(chunk.start - g - 1) % n for g in range(guard)} | \
                    {(chunk.start + chunk.length + g) % n for g in range(guard)}
        assert not (set(chunk.indices.tolist()) & C)
        assert not (protected & C)

    def test_no_chunk_when_k_too_large(self):
        with pytest.raises(NoChunkFoundError):
            adv.find_chunk(16, 8, set(range(8)))
        # dense coreset blocking every window
        with pytest.raises(NoChunkFoundError):
            adv.find_chunk(16, 2, {0, 4, 8, 12})


class TestChunkHypothesis:
    def test_geometry_example(self):
        # center angle 0, adjacent points at +-pi/4, unit norm
        chunk = adv.Chunk(start=0, length=1, window_start=0, window_length=3,
                          n=8, k=1)
        assert chunk.center_angle == 0.0
        assert chunk.boundary_angle == pytest.approx(math.pi / 4)
        h = adv.chunk_hypothesis(chunk, 1.0)
        assert h.beta[0] == pytest.approx(-0.816496580927726, abs=1e-9)
        assert h.beta[1] == pytest.approx(0.0, abs=1e-12)
        assert h.bias == pytest.approx(0.5773502691896258, abs=1e-9)
        x = np.array([math.cos(math.pi / 4), math.sin(math.pi / 4)])
        assert abs(h.beta @ x + h.bias) <= 1e-12

    def test_boundary_zero_crossing_and_signs(self):
        n, k = 512, 4
        C = (np.arange(k) * (n // k)) % n
        chunk = adv.find_chunk(n, k, C)
        h = adv.chunk_hypothesis(chunk, 3.0)
        assert h.norm() == pytest.approx(3.0, rel=1e-12)
        # both adjacent points sit on the decision line
        for j in (chunk.start - 1, chunk.start + chunk.length):
            x = adv.circle_points(n, [j % n])[0]
            assert abs(h.beta @ x + h.bias) <= 1e-9 * h.norm()
        # chunk points misclassified (positive label, negative margin)
        pts = adv.circle_points(n, chunk.indices)
        assert np.all(pts @ h.beta + h.bias < 0)
        # points outside the window correctly classified
        outside = np.setdiff1d(
            np.arange(n),
            (chunk.window_start + np.arange(chunk.window_length)) % n,
        )
        pts = adv.circle_points(n, outside)
        assert np.all(pts @ h.beta + h.bias > 0)

    def test_default_norm(self):
        n, gamma, k = 10**6, 0.2, 4
        lam = float(n) ** 0.1
        expect = math.sqrt(n ** (1 - gamma) / (k * lam))
        assert adv.default_beta_norm(n, gamma, k, lam) == pytest.approx(expect)

    def test_rejects_nonpositive_norm(self):
        chunk = adv.Chunk(start=0, length=1, window_start=0, window_length=3,
                          n=8, k=1)
        with pytest.raises(InvalidParameterError):
            adv.chunk_hypothesis(chunk, 0.0)


class TestPointLineDistance:
    def test_example(self):
        assert adv.point_line_distance(0.0, math.pi / 4) == pytest.approx(
            1 - math.cos(math.pi / 4), abs=1e-12)

    def test_zero_and_symmetry(self, rng):
        for _ in range(100):
            t = rng.uniform(-math.pi, math.pi)
            theta = rng.uniform(0, math.pi)
            assert adv.point_line_distance(theta, theta) == 0.0
            assert adv.point_line_distance(t, theta) == pytest.approx(
                adv.point_line_distance(-t, theta), abs=1e-15)

    def test_matches_coordinate_geometry(self, rng):
        # distance from (cos ti, sin ti) to the chord through the points at
        # angles +-theta equals |cos ti - cos theta|
        for _ in range(200):
            theta = rng.uniform(0.05, math.pi - 0.05)
            ti = rng.uniform(-math.pi, math.pi)
            p = np.array([math.cos(ti), math.sin(ti)])
            a = np.array([math.cos(theta), math.sin(theta)])
            b = np.array([math.cos(theta), -math.sin(theta)])
            seg = b - a
            rel = p - a
            dist = abs(seg[0] * rel[1] - seg[1] * rel[0]) / np.linalg.norm(seg)
            assert adv.point_line_distance(ti, theta) == pytest.approx(
                dist, abs=1e-12)


class TestCircleH:
    def test_full_coreset_zero(self):
        inst = adv.gen_circle(64, 0.5)
        h = Hypothesis(beta=np.array([0.3, -0.2]), bias=0.1)
        H = adv.circle_H(inst, np.arange(64), np.ones(64), h)
        assert H <= 1e-12

    @pytest.mark.parametrize("loss", list(LossKind))
    def test_matches_brute_force_small_n(self, loss, rng):
        n, k = 32, 4
        inst = adv.gen_circle(n, 0.5, loss)
        flat = adv.materialize_circle(inst)
        C = (np.arange(k) * (n // k)) % n
        U = np.full(k, n / k)
        chunk = adv.find_chunk(n, k, C)
        h = adv.chunk_hypothesis(chunk, 2.5)
        lifted = Hypothesis(beta=np.append(h.beta, h.bias))
        cs = WeightedCoreset(indices=C, weights=U)
        expect = brute_force_H(flat, cs, lifted)
        assert adv.circle_H(inst, C, U, h) == pytest.approx(expect, abs=1e-10)

    @pytest.mark.parametrize("loss", list(LossKind))
    def test_witness_equals_the_separate_evaluators(self, loss):
        n, k = 100_003, 4
        inst = adv.gen_circle(n, 0.3, loss)
        C = (np.arange(k) * (n // k)) % n
        U = np.full(k, n / k)
        h = adv.chunk_hypothesis(adv.find_chunk(n, k, C), 6.0)
        H, r1, r2 = adv.circle_witness(inst, C, U, h)
        assert H == adv.circle_H(inst, C, U, h)
        assert (r1, r2) == adv.lemma_ratios(inst, C, U, h)

    @pytest.mark.parametrize("loss", list(LossKind))
    def test_loss_sum_reduces_each_block_as_one_array(self, loss):
        # filling a block piece by piece must not change a bit of its sum
        n = adv._BLOCK + 3 * adv._PIECE + 77
        inst = adv.gen_circle(n, 0.5, loss)
        h = Hypothesis(beta=np.array([2.0, -1.5]), bias=0.7)
        expect = 0.0
        for lo in range(0, n, adv._BLOCK):
            theta = 2.0 * np.pi * np.arange(lo, min(lo + adv._BLOCK, n), dtype=float) / n
            z = -(h.beta[0] * np.cos(theta) + h.beta[1] * np.sin(theta) + h.bias)
            expect += float(np.sum(loss_eval(loss, z)))
        assert adv._circle_loss_sum(inst, h) == expect

    def test_observation_margin_sandwich(self):
        n, k = 512, 4
        C = (np.arange(k) * (n // k)) % n
        chunk = adv.find_chunk(n, k, C)
        h = adv.chunk_hypothesis(chunk, 7.0)
        angles = 2 * np.pi * np.arange(n) / n
        rel = angles - chunk.center_angle
        d = adv.point_line_distance(rel, chunk.boundary_angle)
        pts = adv.circle_points(n, np.arange(n))
        margin = np.abs(pts @ h.beta + h.bias)
        norm = h.norm()
        assert np.all(margin <= d * norm + 1e-12)
        assert np.all(margin >= d * norm / 2 - 1e-12)

    def test_lemma_ratio_bounds(self):
        # r1 <= 4/(n^gamma ln 2) for logistic, 4/n^gamma for hinge
        n, k, gamma = 2**14, 4, 0.2
        C = (np.arange(k) * (n // k)) % n
        U = np.full(k, n / k)
        chunk = adv.find_chunk(n, k, C)
        for loss, denom in ((LossKind.LOGISTIC, math.log(2)), (LossKind.HINGE, 1.0)):
            inst = adv.gen_circle(n, 0.1, loss)
            norm = adv.default_beta_norm(n, gamma, k, inst.lam)
            h = adv.chunk_hypothesis(chunk, norm)
            r1, r2 = adv.lemma_ratios(inst, C, U, h)
            assert r1 <= 4.0 / (n**gamma * denom)
            assert r2 >= 0.0

    def test_taylor_cosine_inequality(self):
        k = np.arange(2, 10**4 + 1, dtype=float)
        a, b = np.pi / (4 * k), np.pi / (2 * k)
        # cancellation-free form: cos a - cos b = 2 sin((a+b)/2) sin((b-a)/2)
        lhs = 2 * np.sin((a + b) / 2) * np.sin((b - a) / 2)
        rhs = 3 * np.pi**2 / (32 * k**2) - 1.0 / k**4
        assert np.all(lhs >= rhs)


class TestMonotoneDegradation:
    def test_two_cluster_H_nondecreasing_in_n(self):
        vals = []
        for n in (10**4, 10**5, 10**6, 10**7):
            inst = adv.gen_two_cluster(n, 0.5, 0.4)
            b0 = float(adv.beta0(n, 0.4).beta[0])
            vals.append(adv.two_cluster_H(inst, True, 10, inst.n / 10, b0))
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_lemma_ratios_decrease_in_n(self):
        r1s, r2s = [], []
        for n in (10**5, 10**6, 10**7):
            inst = adv.gen_circle(n, 0.1)
            k = 4
            C = (np.arange(k) * (n // k)) % n
            U = np.full(k, n / k)
            chunk = adv.find_chunk(n, k, C)
            h = adv.chunk_hypothesis(chunk, adv.default_beta_norm(n, 0.2, k, inst.lam))
            r1, r2 = adv.lemma_ratios(inst, C, U, h)
            r1s.append(r1)
            r2s.append(r2)
        assert r1s[0] > r1s[1] > r1s[2]
        assert r2s[0] > r2s[1] > r2s[2]
