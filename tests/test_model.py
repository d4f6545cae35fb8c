import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    ALL_PAIRS,
    brute_force_H,
    oracle_point_objectives,
    oracle_sigmoid,
    oracle_softplus,
    random_instance,
)
from rlm_coreset import model
from rlm_coreset.errors import ZeroObjectiveError
from rlm_coreset.model import (
    Hypothesis,
    LossKind,
    RegularizerKind,
    RlmInstance,
    WeightedCoreset,
    approximation_error,
    check_weight_sum,
    coreset_objective,
    full_objective,
    loss_eval,
    loss_slope,
    reg_eval,
    weighted_objective_grad,
)


def two_point_instance():
    return RlmInstance(
        X=np.array([[1.0, 0.0], [-1.0, 0.0]]),
        y=np.array([1.0, 1.0]),
        loss=LossKind.LOGISTIC,
        reg=RegularizerKind.L2_SQUARED,
        kappa=0.5,
    )


class TestLossEval:
    def test_logistic_at_zero(self):
        assert loss_eval(LossKind.LOGISTIC, 0.0) == pytest.approx(math.log(2), abs=1e-12)

    def test_hinge_piecewise(self):
        assert loss_eval(LossKind.HINGE, -1.0) == 0.0
        assert loss_eval(LossKind.HINGE, 2.0) == 3.0

    def test_logistic_large_argument_stable(self):
        # softplus(100) = 100 + log1p(e^-100); the tail is below 1e-43
        assert float(loss_eval(LossKind.LOGISTIC, 100.0)) == 100.0

    def test_logistic_tail_bounds(self):
        z = np.linspace(40.0, 1e8, 1000)
        assert np.all(np.abs(loss_eval(LossKind.LOGISTIC, z) - z) <= 1e-12)
        assert np.all(loss_eval(LossKind.LOGISTIC, -z) <= 1e-12)

    def test_no_overflow_huge_range(self):
        z = np.array([-1e8, -1e4, 0.0, 1e4, 1e8])
        for kind in LossKind:
            assert np.all(np.isfinite(loss_eval(kind, z)))

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    @settings(max_examples=300)
    def test_monotone_and_nonnegative(self, a, b):
        lo, hi = min(a, b), max(a, b)
        for kind in LossKind:
            vlo, vhi = float(loss_eval(kind, lo)), float(loss_eval(kind, hi))
            assert 0.0 <= vlo <= vhi


# margins up to |z| = 800, past where exp(-|z|) underflows, with both zeros
MARGINS = st.one_of(st.floats(-800, 800), st.sampled_from([0.0, -0.0, 800.0, -800.0]))


class TestLogisticKernel:
    """softplus and the sigmoid share one exp(-|z|) and compute in place; the
    floats must be the two-exponential, two-division forms' to the bit."""

    @given(hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=2, max_side=20),
                      elements=MARGINS))
    @settings(max_examples=300)
    def test_value_and_slope_bytes_equal_the_reference(self, z):
        value = np.asarray(loss_eval(LossKind.LOGISTIC, z))
        slope = np.asarray(loss_slope(LossKind.LOGISTIC, z))
        assert value.tobytes() == np.asarray(oracle_softplus(z)).tobytes()
        assert slope.tobytes() == np.asarray(oracle_sigmoid(z)).tobytes()
        assert value.shape == slope.shape == z.shape
        # the kernel's path: the slope reads e, then the value consumes it
        e = model._exp_neg_abs(z)
        assert loss_slope(LossKind.LOGISTIC, z, e).tobytes() == slope.tobytes()
        assert loss_eval(LossKind.LOGISTIC, z, e).tobytes() == value.tobytes()

    @given(st.floats(-800, 800))
    def test_scalar_softplus_is_zero_dimensional(self, z):
        value = loss_eval(LossKind.LOGISTIC, z)
        assert np.ndim(value) == 0
        assert float(value) == float(oracle_softplus(z))

    def test_input_is_not_modified(self):
        z = np.array([-3.0, 0.0, 2.5])
        before = z.copy()
        loss_eval(LossKind.LOGISTIC, z)
        loss_slope(LossKind.LOGISTIC, z)
        assert np.array_equal(z, before)


class TestRegEval:
    def test_table(self):
        v = np.array([3.0, 4.0])
        assert reg_eval(RegularizerKind.L1, v) == 7.0
        assert reg_eval(RegularizerKind.L2, v) == 5.0
        assert reg_eval(RegularizerKind.L2_SQUARED, v) == 25.0

    @given(st.lists(st.floats(-100, 100).map(lambda x: 0.0 if abs(x) < 1e-100 else x),
                    min_size=1, max_size=6))
    @settings(max_examples=200)
    def test_nonnegative_zero_iff_zero(self, comps):
        # values below 1e-100 are snapped to 0 so the squared norm cannot underflow
        v = np.asarray(comps)
        for kind in RegularizerKind:
            val = reg_eval(kind, v)
            assert val >= 0.0
            if np.any(v != 0.0):
                assert val > 0.0
        assert reg_eval(RegularizerKind.L2, np.zeros(3)) == 0.0


class TestTypes:
    def test_instance_lambda_and_R(self):
        inst = two_point_instance()
        assert inst.lam == pytest.approx(math.sqrt(2), rel=1e-12)
        assert inst.R == 1.0

    def test_instance_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            RlmInstance(X=np.ones((2, 1)), y=np.array([1.0, 2.0]),
                        loss=LossKind.HINGE, reg=RegularizerKind.L1, kappa=0.5)

    def test_origin_only_dataset_warns(self):
        with pytest.warns(UserWarning):
            inst = RlmInstance(X=np.zeros((3, 2)), y=np.ones(3),
                               loss=LossKind.LOGISTIC,
                               reg=RegularizerKind.L2, kappa=0.5)
        assert inst.R == 0.0
        h = Hypothesis(beta=np.array([1.0, 1.0]))
        assert full_objective(inst, h) == pytest.approx(3 * math.log(2))

    def test_coreset_validation(self):
        with pytest.raises(ValueError):
            WeightedCoreset(indices=np.array([0]), weights=np.array([-1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_coreset_rejects_non_finite_weight(self, bad):
        with pytest.raises(ValueError, match="finite"):
            WeightedCoreset(indices=np.arange(3), weights=np.array([1.0, bad, 1.0]))

    def test_weight_sum_is_fsum(self, rng):
        for q in (1, 7, 1000):
            cs = WeightedCoreset(indices=rng.integers(0, 50, size=q),
                                 weights=rng.uniform(0.0, 1e3, size=q))
            assert cs.weight_sum() == math.fsum(cs.weights)

    def test_coreset_arrays_are_read_only(self):
        cs = WeightedCoreset(indices=np.arange(4), weights=np.ones(4))
        with pytest.raises(ValueError):
            cs.weights[0] = 5.0
        with pytest.raises(ValueError):
            cs.indices[0] = 3
        assert cs.weight_sum() == 4.0 and cs.is_identity

    def test_identity_detection(self):
        assert WeightedCoreset(indices=np.arange(6), weights=np.ones(6)).is_identity
        assert WeightedCoreset(indices=[], weights=[]).is_identity
        shuffled = np.roll(np.arange(6), 2)
        assert not WeightedCoreset(indices=shuffled, weights=np.ones(6)).is_identity
        assert not WeightedCoreset(indices=np.arange(6),
                                   weights=np.full(6, 2.0)).is_identity


class TestObjectives:
    def test_full_objective_example(self):
        inst = two_point_instance()
        h = Hypothesis(beta=np.array([1.0, 0.0]))
        expect = 0.31326168751822286 + 1.3132616875182228 + math.sqrt(2)
        assert full_objective(inst, h) == pytest.approx(expect, rel=1e-9)

    def test_point_objective_example(self):
        # f_0 is the objective of the unit-weight coreset {0}
        inst = two_point_instance()
        h = Hypothesis(beta=np.array([1.0, 0.0]))
        expect = 0.31326168751822286 + math.sqrt(2) / 2
        point = WeightedCoreset(indices=[0], weights=[1.0])
        assert coreset_objective(inst, point, h) == pytest.approx(expect, rel=1e-9)

    def test_point_objective_difference_is_loss_difference(self, rng):
        # every point carries the same share of the regularizer
        inst = random_instance(rng, n=10)
        h = Hypothesis(beta=rng.standard_normal(3))
        f2, f7 = (coreset_objective(inst, WeightedCoreset(indices=[i], weights=[1.0]), h)
                  for i in (2, 7))
        loss2, loss7 = loss_eval(inst.loss, -inst.y[[2, 7]] * (inst.X[[2, 7]] @ h.beta))
        assert f2 - f7 == pytest.approx(loss2 - loss7, rel=1e-12)

    def test_full_objective_at_zero(self, rng):
        inst = random_instance(rng, n=17)
        z = Hypothesis(beta=np.zeros(3))
        assert full_objective(inst, z) == pytest.approx(17 * math.log(2), rel=1e-12)

    def test_full_equals_sum_of_point_objectives(self, rng):
        inst = random_instance(rng, n=23)
        h = Hypothesis(beta=rng.standard_normal(3))
        total = sum(oracle_point_objectives(inst, h))
        assert full_objective(inst, h) == pytest.approx(total, rel=1e-10)

    def test_full_objective_deterministic(self, rng):
        inst = random_instance(rng, n=200)
        h = Hypothesis(beta=rng.standard_normal(3))
        vals = {full_objective(inst, h) for _ in range(5)}
        assert len(vals) == 1

class TestKernel:
    """weighted_objective_grad, the one implementation of F and its gradient."""

    @pytest.mark.parametrize("loss, reg", ALL_PAIRS)
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_value_and_gradient_against_oracles(self, loss, reg, seed):
        # value against the per-point oracle, gradient against central
        # differences of the value, on full data and a random weighted coreset
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n=int(rng.integers(2, 40)), loss=loss, reg=reg)
        beta = rng.standard_normal(3) * rng.uniform(0.1, 3.0)
        # away from the kinks: r at beta_j = 0 (l1) or beta = 0, hinge at z = -1
        assume(np.all(np.abs(beta) > 1e-3))
        assume(np.all(np.abs(1.0 - inst.y * (inst.X @ beta)) > 1e-3))
        q = int(rng.integers(1, 2 * inst.n))
        weighted = WeightedCoreset(indices=rng.integers(0, inst.n, size=q),
                                   weights=rng.uniform(0.1, 5.0, size=q))
        f_i = oracle_point_objectives(inst, Hypothesis(beta=beta))
        for cs, expect in (
            (None, sum(f_i)),
            (weighted, sum(w * f_i[i] for i, w in zip(weighted.indices, weighted.weights))),
        ):
            f, g = weighted_objective_grad(inst, cs, beta)
            assert f == pytest.approx(expect, rel=1e-12)
            g_num = np.zeros(3)
            for j in range(3):
                step = 1e-6 * (1 + abs(beta[j]))
                up, dn = beta.copy(), beta.copy()
                up[j] += step
                dn[j] -= step
                g_num[j] = (weighted_objective_grad(inst, cs, up, grad=False)[0]
                            - weighted_objective_grad(inst, cs, dn, grad=False)[0]) / (2 * step)
            scale = max(float(np.linalg.norm(g_num)), 1.0)
            assert float(np.linalg.norm(g - g_num)) / scale <= 1e-5

    def test_identity_coreset_is_full_data(self, rng):
        inst = random_instance(rng, n=30)
        ident = WeightedCoreset(indices=np.arange(30), weights=np.ones(30))
        beta = rng.standard_normal(3)
        f, g = weighted_objective_grad(inst, None, beta)
        f_id, g_id = weighted_objective_grad(inst, ident, beta)
        assert f == f_id and np.array_equal(g, g_id)

    def test_bias_is_refused(self, rng):
        # an RlmInstance has no bias coordinate; lifted instances fold it into beta
        inst = random_instance(rng, n=10)
        h = Hypothesis(beta=rng.standard_normal(3), bias=0.5)
        cs = WeightedCoreset(indices=[1, 2], weights=[5.0, 5.0])
        for evaluate in (lambda: full_objective(inst, h),
                         lambda: coreset_objective(inst, cs, h),
                         lambda: approximation_error(inst, cs, h)):
            with pytest.raises(ValueError, match="bias"):
                evaluate()


class TestCoresetObjective:
    def test_identity_coreset_matches_full(self, rng):
        inst = random_instance(rng, n=30)
        cs = WeightedCoreset(indices=np.arange(30), weights=np.ones(30))
        for _ in range(5):
            h = Hypothesis(beta=rng.standard_normal(3))
            assert coreset_objective(inst, cs, h) == pytest.approx(
                full_objective(inst, h), rel=1e-12)

    def test_uniform_weights_at_zero(self, rng):
        inst = random_instance(rng, n=40)
        cs = WeightedCoreset(indices=rng.integers(0, 40, size=8),
                             weights=np.full(8, 5.0))
        assert coreset_objective(inst, cs, Hypothesis(beta=np.zeros(3))) == \
            pytest.approx(40 * math.log(2), rel=1e-12)

    def test_singleton(self, rng):
        inst = random_instance(rng, n=10)
        h = Hypothesis(beta=rng.standard_normal(3))
        cs = WeightedCoreset(indices=np.array([4]), weights=np.array([3.0]))
        f4 = float(loss_eval(inst.loss, -inst.y[4] * (inst.X[4] @ h.beta))) \
            + inst.lam * reg_eval(inst.reg, inst.R * h.beta) / inst.n
        assert coreset_objective(inst, cs, h) == pytest.approx(3 * f4, rel=1e-12)

    def test_invalid_index(self, rng):
        inst = random_instance(rng, n=10)
        cs = WeightedCoreset(indices=np.array([11]), weights=np.array([1.0]))
        with pytest.raises(IndexError):
            coreset_objective(inst, cs, Hypothesis(beta=np.zeros(3)))


class TestApproximationError:
    def test_matches_brute_force_oracle(self, rng):
        inst = random_instance(rng, n=50, d=4)
        cs = WeightedCoreset(indices=rng.integers(0, 50, size=12),
                             weights=rng.uniform(0.5, 8.0, size=12))
        for _ in range(10):
            h = Hypothesis(beta=rng.standard_normal(4))
            assert approximation_error(inst, cs, h) == pytest.approx(
                brute_force_H(inst, cs, h), abs=1e-12)

    def test_full_coreset_is_exact_everywhere(self, rng):
        inst = random_instance(rng, n=25)
        cs = WeightedCoreset(indices=np.arange(25), weights=np.ones(25))
        for _ in range(1000):
            h = Hypothesis(beta=rng.standard_normal(3) * rng.uniform(0, 10))
            # the identity coreset is evaluated as the full data, by one kernel
            assert approximation_error(inst, cs, h) == 0.0

    def test_zero_objective_error(self, rng, monkeypatch):
        # F = 0 is unreachable through well-formed instances (hinge needs all
        # margins past 1 *and* a vanishing regularizer), so exercise the
        # guard by stubbing the objective to the degenerate value
        inst = random_instance(rng, n=5, loss=LossKind.HINGE)
        cs = WeightedCoreset(indices=np.array([0]), weights=np.array([1.0]))
        monkeypatch.setattr("rlm_coreset.model.full_objective",
                            lambda *_args: 0.0)
        with pytest.raises(ZeroObjectiveError):
            approximation_error(inst, cs, Hypothesis(beta=np.array([2.0, 0, 0])))


class TestWeightSum:
    def test_uniform_exact(self):
        cs = WeightedCoreset(indices=np.arange(10), weights=np.full(10, 10.0))
        for eps in (0.01, 0.5, 0.99):
            assert check_weight_sum(cs, 100, eps)

    def test_zero_sum_fails(self):
        cs = WeightedCoreset(indices=np.arange(3), weights=np.zeros(3))
        assert not check_weight_sum(cs, 3, 0.5)

    def test_boundary(self):
        cs = WeightedCoreset(indices=np.arange(1), weights=np.array([105.0]))
        assert check_weight_sum(cs, 100, 0.1)
        assert not check_weight_sum(cs, 100, 0.01)

    def test_observation_contrapositive(self, rng):
        # with weight sum outside (1 +- eps) n, H at beta=0 exceeds eps exactly
        inst = random_instance(rng, n=20)
        cs = WeightedCoreset(indices=np.arange(5), weights=np.full(5, 5.2))
        eps = 0.2
        assert not check_weight_sum(cs, 20, eps)
        h0 = Hypothesis(beta=np.zeros(3))
        assert approximation_error(inst, cs, h0) == pytest.approx(
            abs(20 - 26.0) / 20, rel=1e-12)
        assert approximation_error(inst, cs, h0) > eps
