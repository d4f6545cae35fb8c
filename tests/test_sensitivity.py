import math

import numpy as np
import pytest

from conftest import ALL_PAIRS, check_scaling, random_instance
from rlm_coreset.errors import InvalidParameterError
from rlm_coreset.model import LossKind, RegularizerKind, loss_eval
from rlm_coreset.sensitivity import (
    sample_size,
    scaling_constants,
    sensitivity_upper_bound,
    total_sensitivity_default,
)


class TestScalingConstants:
    def test_table(self):
        assert scaling_constants(LossKind.LOGISTIC, RegularizerKind.L2_SQUARED) \
            == scaling_constants(LossKind.LOGISTIC, RegularizerKind.L1)
        sc = scaling_constants(LossKind.LOGISTIC, RegularizerKind.L2_SQUARED)
        assert (sc.sigma, sc.tau) == (1.0, 0.5)
        sc = scaling_constants(LossKind.HINGE, RegularizerKind.L2)
        assert (sc.sigma, sc.tau) == (0.5, pytest.approx(1 / 3))
        sc = scaling_constants(LossKind.HINGE, RegularizerKind.L2_SQUARED)
        assert (sc.sigma, sc.tau) == (0.5, pytest.approx(1 / 12))

    def test_loss_positive_below_threshold(self):
        for loss, reg in ALL_PAIRS:
            sc = scaling_constants(loss, reg)
            assert float(loss_eval(loss, -sc.sigma)) > 0.0


class TestCheckScaling:
    def test_logistic_l2_at_unit_norm(self):
        sc = scaling_constants(LossKind.LOGISTIC, RegularizerKind.L2)
        beta = np.array([1.0, 0.0])
        # r = 1 >= 0.5 * softplus(1) = 0.6566
        assert check_scaling(LossKind.LOGISTIC, RegularizerKind.L2, sc, beta)

    def test_hinge_l2sq_at_unit_norm(self):
        sc = scaling_constants(LossKind.HINGE, RegularizerKind.L2_SQUARED)
        assert check_scaling(LossKind.HINGE, RegularizerKind.L2_SQUARED, sc,
                             np.array([0.6, 0.8]))

    def test_vacuous_below_sigma(self):
        sc = scaling_constants(LossKind.LOGISTIC, RegularizerKind.L1)
        assert check_scaling(LossKind.LOGISTIC, RegularizerKind.L1, sc,
                             np.array([0.1]))

    def test_all_pairs_random_norms(self, rng):
        for loss, reg in ALL_PAIRS:
            sc = scaling_constants(loss, reg)
            for _ in range(200):
                d = rng.integers(1, 6)
                v = rng.standard_normal(d)
                v *= rng.uniform(sc.sigma, 1e3) / np.linalg.norm(v)
                assert check_scaling(loss, reg, sc, v)


class TestSensitivityUpperBound:
    def test_arithmetic_example(self):
        # logistic + L2^2, n = 10000, kappa = 0.5 -> lambda = 100
        inst = random_instance(np.random.default_rng(0), n=10000, d=3)
        s = sensitivity_upper_bound(inst)
        l1 = float(loss_eval(LossKind.LOGISTIC, 1.0))
        lm1 = float(loss_eval(LossKind.LOGISTIC, -1.0))
        expect = 0.02 + l1 / (10000 * lm1) + 1e-4
        assert s.s_prime == pytest.approx(expect, rel=1e-12)
        assert s.s_prime == pytest.approx(0.0205192, abs=1e-7)
        assert s.S_prime == pytest.approx(10000 * s.s_prime, rel=1e-12)
        assert s.delta_vc == 4

    def test_corollary_total(self):
        assert total_sensitivity_default(10000, 100.0) == pytest.approx(1206.0)

    def test_clamped_to_one(self):
        # tiny n makes the bound exceed 1; it must clamp
        inst = random_instance(np.random.default_rng(1), n=2, d=1,
                               loss=LossKind.HINGE, reg=RegularizerKind.L2_SQUARED)
        assert sensitivity_upper_bound(inst).s_prime == 1.0

    def test_dominates_empirical_sensitivity(self, rng):
        # brute-force sup of f_i/F over random hypotheses stays below s'
        for loss, reg in ALL_PAIRS:
            inst = random_instance(rng, n=100, d=3, loss=loss, reg=reg)
            s = sensitivity_upper_bound(inst).s_prime
            B = rng.standard_normal((2000, 3))
            B *= (rng.uniform(0, 100 / inst.R, size=2000)
                  / np.linalg.norm(B, axis=1))[:, None]
            Z = -inst.y[:, None] * (inst.X @ B.T)
            L = loss_eval(inst.loss, Z)
            if reg is RegularizerKind.L1:
                r = np.sum(np.abs(inst.R * B), axis=1)
            elif reg is RegularizerKind.L2:
                r = np.linalg.norm(inst.R * B, axis=1)
            else:
                r = np.sum((inst.R * B) ** 2, axis=1)
            F = np.sum(L, axis=0) + inst.lam * r
            ratios = (L + inst.lam * r / inst.n) / F
            assert float(np.max(ratios)) <= s + 1e-9


class TestSampleSize:
    def test_clamp_example(self):
        q = sample_size(1206.0, 13, 0.5, 0.1, 10000)
        assert q == 10000
        raw = 10 * 1206 / 0.25 * (13 * math.log(1206) + math.log(10))
        assert raw > 4.5e6

    def test_small_example(self):
        q = sample_size(math.e, 1, 1 - 1e-9, math.exp(-1), 10**9)
        assert q == 55

    def test_always_clamped_to_n(self):
        assert sample_size(1e6, 100, 0.01, 0.01, 42) == 42
        # eps**2 underflows to 0 and 1/delta overflows to inf: still n
        assert sample_size(100.0, 3, 1e-200, 0.1, 42) == 42
        assert sample_size(100.0, 3, 1e-160, 0.1, 42) == 42
        assert sample_size(100.0, 3, 0.5, 5e-324, 42) == 42

    def test_invalid_parameters(self):
        for eps, delta in [(0.0, 0.1), (1.0, 0.1), (0.5, 0.0), (0.5, 1.5)]:
            with pytest.raises(InvalidParameterError):
                sample_size(100.0, 3, eps, delta, 10)
        with pytest.raises(InvalidParameterError):
            sample_size(0.5, 3, 0.5, 0.5, 10)

    def test_monotonicity(self):
        n = 10**15  # large enough that the clamp never binds
        base = sample_size(1000.0, 5, 0.5, 0.1, n)
        assert sample_size(1000.0, 5, 0.6, 0.1, n) <= base
        assert sample_size(1000.0, 5, 0.5, 0.2, n) <= base
        assert sample_size(2000.0, 5, 0.5, 0.1, n) >= base
        assert sample_size(1000.0, 6, 0.5, 0.1, n) >= base
