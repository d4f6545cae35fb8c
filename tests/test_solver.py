import warnings

import numpy as np
import pytest

from conftest import ALL_PAIRS, random_instance
from rlm_coreset import solver
from rlm_coreset.data_io import gen_synthetic
from rlm_coreset.model import (
    Hypothesis,
    LossKind,
    RegularizerKind,
    RlmInstance,
    WeightedCoreset,
    coreset_rows,
    full_objective,
)
from rlm_coreset.sampling import uniform_sample
from rlm_coreset.solver import (
    TrainConfig,
    TrainMethod,
    gradient,
    train,
    weighted_objective_grad,
)


def numeric_gradient(inst, cs, beta, step=1e-6):
    g = np.zeros_like(beta)
    for j in range(len(beta)):
        h = step * (1 + abs(beta[j]))
        up, dn = beta.copy(), beta.copy()
        up[j] += h
        dn[j] -= h
        fu, _ = weighted_objective_grad(inst, cs, up)
        fd, _ = weighted_objective_grad(inst, cs, dn)
        g[j] = (fu - fd) / (2 * h)
    return g


def identity_cs(n):
    return WeightedCoreset(indices=np.arange(n), weights=np.ones(n))


class TestGradient:
    def test_single_point_logistic(self):
        # lone point x=(1,0), y=+1 at beta=0: loss gradient is -sigmoid(0)*x
        inst = RlmInstance(X=np.array([[1.0, 0.0]]), y=np.array([1.0]),
                           loss=LossKind.LOGISTIC, reg=RegularizerKind.L2_SQUARED,
                           kappa=0.5)
        g = gradient(inst, None, Hypothesis(beta=np.zeros(2)))
        # the regularizer gradient vanishes at 0, so only the loss term remains
        assert g == pytest.approx([-0.5, 0.0], abs=1e-12)

    def test_l2sq_regularizer_contribution(self):
        inst = RlmInstance(X=np.array([[1.0, 0.0]]), y=np.array([1.0]),
                           loss=LossKind.LOGISTIC, reg=RegularizerKind.L2_SQUARED,
                           kappa=0.5, lambda_scale=1.0)
        beta = np.array([1.0, 0.0])
        g_with = gradient(inst, None, Hypothesis(beta=beta))
        sig = 1 / (1 + np.exp(1.0))  # sigmoid(-1)
        loss_part = np.array([-sig, 0.0])
        assert g_with - loss_part == pytest.approx([2 * inst.lam, 0.0], rel=1e-12)

    @pytest.mark.parametrize("reg", list(RegularizerKind))
    def test_finite_differences_logistic(self, reg, rng):
        for _ in range(35):
            inst = random_instance(rng, n=int(rng.integers(5, 60)),
                                   d=3, loss=LossKind.LOGISTIC, reg=reg)
            beta = rng.standard_normal(3)
            beta[np.abs(beta) < 1e-3] = 0.5  # stay clear of the L1 kink
            cs = identity_cs(inst.n)
            g = gradient(inst, cs, Hypothesis(beta=beta))
            g_num = numeric_gradient(inst, cs, beta)
            assert g == pytest.approx(g_num, rel=1e-5, abs=1e-7)

    def test_weighted_gradient_scales(self, rng):
        inst = random_instance(rng, n=20)
        cs = WeightedCoreset(indices=np.arange(20), weights=np.full(20, 3.0))
        h = Hypothesis(beta=rng.standard_normal(3))
        g1 = gradient(inst, identity_cs(20), h)
        g3 = gradient(inst, cs, h)
        assert g3 == pytest.approx(3 * g1, rel=1e-12)


class TestValueOnly:
    @pytest.mark.parametrize("loss,reg", ALL_PAIRS)
    def test_value_only_equals_value_with_gradient(self, rng, loss, reg):
        inst = random_instance(rng, n=40, loss=loss, reg=reg)
        for cs in (identity_cs(40), uniform_sample(inst, 15, seed=1)):
            for beta in (np.zeros(3), *rng.standard_normal((5, 3))):
                f, _ = weighted_objective_grad(inst, cs, beta)
                f_only, g = weighted_objective_grad(inst, cs, beta, grad=False)
                assert f_only == f and g is None

    def test_full_data_read_in_place(self, rng):
        inst = random_instance(rng, n=20)
        for full in (None, identity_cs(20)):
            X, y = coreset_rows(inst, full)
            assert X is inst.X and y is inst.y
        X, y = coreset_rows(inst, WeightedCoreset(indices=[3, 3, 0], weights=np.ones(3)))
        assert np.array_equal(X, inst.X[[3, 3, 0]])
        # a prefix of the rows with unit weights is not the full instance
        X, _ = coreset_rows(inst, identity_cs(10))
        assert X.shape == (10, 3) and X is not inst.X

    @pytest.mark.parametrize("q", [None, 40])
    def test_trace_is_full_objective_at_each_iterate(self, monkeypatch, q):
        # every trace value is the very float full_objective gives at that
        # iterate: on every pair, for both methods, on full data and a coreset
        iterates = []
        trace_point = solver._trace_point

        def recording(inst, full_cs, beta, trace, clock, f_full=None):
            iterates.append(beta.copy())
            trace_point(inst, full_cs, beta, trace, clock, f_full)

        monkeypatch.setattr(solver, "_trace_point", recording)
        # labels from a hyperplane, as the CLI's synthetic data: with random
        # labels the logistic/l2 optimum on a coreset is beta = 0, where GD
        # stops with an Armijo underflow (a known solver defect)
        X, y, _ = gen_synthetic(120, 3, noise=0.1, seed=7)
        for loss, reg in ALL_PAIRS:
            inst = RlmInstance(X=X, y=y, loss=loss, reg=reg, kappa=0.5)
            cs = None if q is None else uniform_sample(inst, q, seed=3)
            for cfg in (TrainConfig(max_iters=12, grad_tol=1e-12),
                        TrainConfig(method=TrainMethod.SGD, epochs=3)):
                iterates.clear()
                _, trace = train(inst, cfg, cs)
                assert len(trace.objectives) == len(iterates) > 0
                for beta, f in zip(iterates, trace.objectives):
                    assert f == full_objective(inst, Hypothesis(beta=beta))


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["max_iters", "epochs"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_fewer_than_one_iteration(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["grad_tol", "learning_rate"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_rejects_a_tolerance_or_rate_not_positive(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})


class TestTrainFullBatch:
    def test_symmetric_instance_trains_to_zero(self):
        inst = RlmInstance(X=np.array([[1.0, 2.0], [1.0, 2.0]]),
                           y=np.array([1.0, -1.0]),
                           loss=LossKind.LOGISTIC, reg=RegularizerKind.L2_SQUARED,
                           kappa=0.5)
        beta_hat, _ = train(inst, TrainConfig())
        assert float(np.linalg.norm(beta_hat.beta)) <= 1e-6

    def test_separable_improves_on_zero(self, rng):
        X = np.concatenate([rng.normal(2, 0.5, 40), rng.normal(-2, 0.5, 40)])
        y = np.concatenate([np.ones(40), -np.ones(40)])
        inst = RlmInstance(X=X.reshape(-1, 1), y=y, loss=LossKind.LOGISTIC,
                           reg=RegularizerKind.L2_SQUARED, kappa=0.5)
        beta_hat, _ = train(inst, TrainConfig())
        assert np.all(np.isfinite(beta_hat.beta))
        assert full_objective(inst, beta_hat) < full_objective(
            inst, Hypothesis(beta=np.zeros(1)))

    def test_gradient_norm_at_exit(self, rng):
        inst = random_instance(rng, n=100)
        cfg = TrainConfig(grad_tol=1e-5, max_iters=2000)
        beta_hat, _ = train(inst, cfg)
        g = gradient(inst, None, beta_hat)
        assert float(np.linalg.norm(g)) <= 1e-5

    def test_objective_monotone_smooth(self, rng):
        inst = random_instance(rng, n=80)
        _, trace = train(inst, TrainConfig(max_iters=50, grad_tol=1e-12))
        objs = trace.objectives
        assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))

    def test_identity_coreset_training_matches_full(self, rng):
        inst = random_instance(rng, n=60)
        cfg = TrainConfig(max_iters=40, grad_tol=1e-10)
        beta_full, trace_full = train(inst, cfg)
        beta_cs, trace_cs = train(inst, cfg, identity_cs(60))
        assert np.array_equal(beta_full.beta, beta_cs.beta)
        assert trace_full.objectives == trace_cs.objectives

    def test_subgradient_path_hinge(self, rng):
        inst = random_instance(rng, n=60, loss=LossKind.HINGE)
        beta_hat, trace = train(inst, TrainConfig(max_iters=200))
        # best-iterate return: final objective no worse than the start
        assert trace.objectives[-1] <= 60 * 1.0 + 1e-9 or \
            full_objective(inst, beta_hat) <= full_objective(
                inst, Hypothesis(beta=np.zeros(3)))

    def test_trace_timestamps_monotone(self, rng):
        inst = random_instance(rng, n=50)
        _, trace = train(inst, TrainConfig(max_iters=30))
        secs = trace.seconds
        assert all(b >= a for a, b in zip(secs, secs[1:]))


class TestTrainSgd:
    def test_reproducible(self, rng):
        inst = random_instance(rng, n=200)
        cfg = TrainConfig(method=TrainMethod.SGD, epochs=3, seed=77)
        a, _ = train(inst, cfg)
        b, _ = train(inst, cfg)
        assert np.array_equal(a.beta, b.beta)

    def test_different_seed_differs(self, rng):
        inst = random_instance(rng, n=200)
        a, _ = train(inst, TrainConfig(method=TrainMethod.SGD, epochs=3, seed=1))
        b, _ = train(inst, TrainConfig(method=TrainMethod.SGD, epochs=3, seed=2))
        assert not np.array_equal(a.beta, b.beta)

    def test_large_margins_do_not_overflow(self):
        # the first step takes beta to 1, so both margins are -1e3
        inst = RlmInstance(X=np.array([[1e3], [-1e3]]), y=np.array([1.0, -1.0]),
                           loss=LossKind.LOGISTIC, reg=RegularizerKind.L2_SQUARED,
                           kappa=0.5, lambda_scale=1e-9)
        cfg = TrainConfig(method=TrainMethod.SGD, epochs=3, batch_size=2,
                          learning_rate=2e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beta_hat, trace = train(inst, cfg)
        assert beta_hat.beta[0] == pytest.approx(1.0, rel=1e-4)
        assert all(np.isfinite(trace.objectives))

    def test_makes_progress(self, rng):
        X, y, _ = gen_synthetic(500, 2, noise=0.05, seed=3)
        inst = RlmInstance(X=X, y=y, loss=LossKind.LOGISTIC,
                           reg=RegularizerKind.L2_SQUARED, kappa=0.5)
        _, trace = train(
            inst, TrainConfig(method=TrainMethod.SGD, epochs=10, seed=0,
                              learning_rate=0.05))
        start = full_objective(inst, Hypothesis(beta=np.zeros(2)))
        assert trace.objectives[-1] < start


class TestRelativeSuboptimality:
    def test_full_coreset_near_zero(self, rng):
        inst = random_instance(rng, n=100)
        cfg = TrainConfig(grad_tol=1e-8, max_iters=2000)
        beta_full, _ = train(inst, cfg)
        cs = uniform_sample(inst, 100, seed=0)  # q >= n -> identity
        beta_cs, _ = train(inst, cfg, cs)
        ratio = full_objective(inst, beta_cs) / full_objective(inst, beta_full)
        assert abs(ratio - 1.0) <= 1e-8

    def test_coreset_sandwich(self, rng):
        # if H <= eps at both optima, F(beta_C)/F(beta_full) - 1 obeys the sandwich
        from rlm_coreset.model import approximation_error
        inst = random_instance(rng, n=2000, d=3)
        cs = uniform_sample(inst, 500, seed=5)
        cfg = TrainConfig(grad_tol=1e-7, max_iters=2000)
        beta_full, _ = train(inst, cfg)
        beta_cs, _ = train(inst, cfg, cs)
        eps = max(approximation_error(inst, cs, beta_full),
                  approximation_error(inst, cs, beta_cs))
        bound = (1 + eps) / (1 - eps) - 1
        suboptimality = full_objective(inst, beta_cs) / full_objective(inst, beta_full) - 1.0
        assert suboptimality <= bound + 1e-9
