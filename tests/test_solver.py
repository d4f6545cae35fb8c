import math
import time
import warnings

import numpy as np
import pytest

from conftest import (
    ALL_PAIRS,
    oracle_train_gd,
    random_instance,
    recorded_iterates,
    traced_peak,
)
from rlm_coreset import model, solver
from rlm_coreset.data_io import gen_synthetic
from rlm_coreset.errors import InvalidParameterError
from rlm_coreset.model import (
    LossKind,
    RegularizerKind,
    RlmInstance,
    WeightedCoreset,
    full_objective,
    loss_slope,
    objective_rows,
    reg_grad,
)
from rlm_coreset.sampling import uniform_sample
from rlm_coreset.solver import (
    TrainConfig,
    TrainMethod,
    train,
    weighted_objective_grad,
)


def numeric_gradient(inst, rows, beta, step=1e-6):
    g = np.zeros_like(beta)
    for j in range(len(beta)):
        h = step * (1 + abs(beta[j]))
        up, dn = beta.copy(), beta.copy()
        up[j] += h
        dn[j] -= h
        fu, _ = weighted_objective_grad(inst, rows, up)
        fd, _ = weighted_objective_grad(inst, rows, dn)
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
        g = weighted_objective_grad(inst, None, np.zeros(2))[1]
        # the regularizer gradient vanishes at 0, so only the loss term remains
        assert g == pytest.approx([-0.5, 0.0], abs=1e-12)

    def test_l2sq_regularizer_contribution(self):
        inst = RlmInstance(X=np.array([[1.0, 0.0]]), y=np.array([1.0]),
                           loss=LossKind.LOGISTIC, reg=RegularizerKind.L2_SQUARED,
                           kappa=0.5, lambda_scale=1.0)
        beta = np.array([1.0, 0.0])
        g_with = weighted_objective_grad(inst, None, beta)[1]
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
            rows = objective_rows(inst, identity_cs(inst.n))
            g = weighted_objective_grad(inst, rows, beta)[1]
            g_num = numeric_gradient(inst, rows, beta)
            assert g == pytest.approx(g_num, rel=1e-5, abs=1e-7)

    def test_weighted_gradient_scales(self, rng):
        inst = random_instance(rng, n=20)
        cs = WeightedCoreset(indices=np.arange(20), weights=np.full(20, 3.0))
        beta = rng.standard_normal(3)
        g1 = weighted_objective_grad(inst, objective_rows(inst, identity_cs(20)), beta)[1]
        g3 = weighted_objective_grad(inst, objective_rows(inst, cs), beta)[1]
        assert g3 == pytest.approx(3 * g1, rel=1e-12)


class TestValueOnly:
    @pytest.mark.parametrize("loss,reg", ALL_PAIRS)
    def test_value_only_equals_value_with_gradient(self, rng, loss, reg):
        inst = random_instance(rng, n=40, loss=loss, reg=reg)
        for cs in (identity_cs(40), uniform_sample(inst, 15, seed=1)):
            rows = objective_rows(inst, cs)
            for beta in (np.zeros(3), *rng.standard_normal((5, 3))):
                f, _ = weighted_objective_grad(inst, rows, beta)
                f_only, g = weighted_objective_grad(inst, rows, beta, grad=False)
                assert f_only == f and g is None

    @pytest.mark.parametrize("q", [None, 40])
    def test_trace_is_full_objective_at_each_iterate(self, q):
        # every trace value is the very float full_objective gives at that
        # iterate: on every pair, for both methods, on full data and a coreset.
        # Labels from a hyperplane, as the CLI's synthetic data: with random
        # labels the logistic/l2 optimum on a coreset is beta = 0, where GD
        # stops at iteration 0 by the kink rule (see TestStopRule)
        X, y, _ = gen_synthetic(120, 3, noise=0.1, seed=7)
        for loss, reg in ALL_PAIRS:
            inst = RlmInstance(X=X, y=y, loss=loss, reg=reg, kappa=0.5)
            cs = None if q is None else uniform_sample(inst, q, seed=3)
            for cfg in (TrainConfig(max_iters=12, grad_tol=1e-12),
                        TrainConfig(method=TrainMethod.SGD, epochs=3)):
                with recorded_iterates() as iterates:
                    beta_hat, trace = train(inst, cfg, cs)
                assert trace.final_objective == full_objective(inst, beta_hat)
                assert len(trace.objectives) == len(iterates) > 0
                for beta, f in zip(iterates, trace.objectives):
                    assert f == full_objective(inst, beta)


def stop_rule_cases():
    """Every loss x regularizer pair on full data, a weighted coreset and the
    identity coreset, on hyperplane labels, where beta = 0 is not optimal."""
    X, y, _ = gen_synthetic(200, 3, noise=0.1, seed=7)
    for loss, reg in ALL_PAIRS:
        inst = RlmInstance(X=X, y=y, loss=loss, reg=reg, kappa=0.5)
        for name, cs in (("full", None), ("weighted", uniform_sample(inst, 40, seed=3)),
                         ("identity", identity_cs(inst.n))):
            yield pytest.param(inst, cs, id=f"{loss.value}-{reg.value}-{name}")


class TestStopRule:
    @pytest.mark.parametrize("max_iters", [1, 2, 40, 500])
    @pytest.mark.parametrize("inst, cs", list(stop_rule_cases()))
    def test_same_beta_and_a_prefix_of_the_trace(self, inst, cs, max_iters):
        cfg = TrainConfig(max_iters=max_iters)
        # not the kink case: the loss gradient at 0 is outside the bound
        rows = objective_rows(inst, cs)
        g0 = weighted_objective_grad(inst, rows, np.zeros(inst.d))[1]
        assert float(np.linalg.norm(g0)) > solver._kink_bound(inst, rows)
        beta_ref, trace_ref = oracle_train_gd(inst, cfg, cs)
        beta_hat, trace = train(inst, cfg, cs)
        assert beta_hat.tobytes() == beta_ref.tobytes()
        # F of the returned beta, which is the last iterate only when smooth
        assert trace.final_objective == full_objective(inst, beta_hat)
        assert 0 < len(trace.objectives) <= len(trace_ref)
        assert trace.objectives == trace_ref[:len(trace.objectives)]
        assert len(trace.seconds) == len(trace.objectives)
        if inst.loss is LossKind.HINGE or inst.reg is RegularizerKind.L1:
            # the subgradient branch never stalls: its trace is the whole one
            assert trace.objectives == trace_ref
        if len(trace.objectives) < len(trace_ref):
            assert trace.stop_reason == "stalled"
            # only a tail that repeats the final value goes
            assert set(trace_ref[len(trace.objectives) - 1:]) == {trace.objectives[-1]}

    @pytest.mark.parametrize("q", [50, 200])
    def test_stalled_on_the_sweep_inputs(self, q):
        # the benchmark sweep's inputs: n=1000, d=10, data and sampling seed 0.
        # Where the stall comes depends on how BLAS rounds X @ beta, so only
        # that it comes before max_iters is asserted.
        X, y, _ = gen_synthetic(1000, 10, noise=0.1, seed=0)
        inst = RlmInstance(X=X, y=y, loss=LossKind.LOGISTIC,
                           reg=RegularizerKind.L2_SQUARED, kappa=0.5)
        cs = uniform_sample(inst, q, 0)
        beta_hat, trace = train(inst, TrainConfig(), cs)
        iters = len(trace.objectives)
        assert trace.stop_reason == "stalled" and iters < 500
        beta_ref, trace_ref = oracle_train_gd(inst, TrainConfig(), cs)
        assert len(trace_ref) == 500
        assert beta_hat.tobytes() == beta_ref.tobytes()
        assert trace.objectives == trace_ref[:iters]

    def test_converged(self, rng):
        inst = random_instance(rng, n=100)
        cfg = TrainConfig(grad_tol=1e-5, max_iters=2000)
        beta_hat, trace = train(inst, cfg)
        assert trace.stop_reason == "converged"
        beta_ref, trace_ref = oracle_train_gd(inst, cfg)
        assert beta_hat.tobytes() == beta_ref.tobytes()
        assert trace.objectives == trace_ref

    @pytest.mark.parametrize("method", list(TrainMethod))
    def test_max_iters(self, rng, method):
        inst = random_instance(rng, n=100)
        _, trace = train(inst, TrainConfig(method=method, max_iters=3, epochs=3))
        assert trace.stop_reason == "max_iters" and len(trace.objectives) == 3

    def test_kink_optimum_returns_zero(self, rng):
        # random labels: the logistic loss gradient at 0 is within the 2-norm's
        # subdifferential radius (sum u / n) * lambda * R, so beta = 0 is optimal
        inst = random_instance(rng, n=400, reg=RegularizerKind.L2)
        for cs in (None, uniform_sample(inst, 40, seed=1)):
            rows = objective_rows(inst, cs)
            g0 = weighted_objective_grad(inst, rows, np.zeros(3))[1]
            assert 0 < float(np.linalg.norm(g0)) <= solver._kink_bound(inst, rows)
            beta_hat, trace = train(inst, TrainConfig(), cs)
            assert not beta_hat.any() and trace.stop_reason == "converged"
            zero = full_objective(inst, np.zeros(3))
            assert trace.objectives == [zero]

    def test_kink_rule_is_smooth_branch_only(self, rng):
        # hinge with the 2-norm takes subgradient steps from 0 although its
        # gradient there is within the bound the smooth branch tests
        inst = random_instance(rng, n=400, loss=LossKind.HINGE, reg=RegularizerKind.L2)
        g0 = weighted_objective_grad(inst, None, np.zeros(3))[1]
        assert float(np.linalg.norm(g0)) <= solver._kink_bound(inst, objective_rows(inst))
        cfg = TrainConfig(max_iters=5)
        _, trace = train(inst, cfg)
        assert trace.stop_reason == "max_iters"
        assert trace.objectives == oracle_train_gd(inst, cfg)[1]


def kernel_with(monkeypatch, on_all_rows):
    """Patch the solver's kernel to call on_all_rows(beta) before every value
    computed over all rows."""
    kernel = solver.weighted_objective_grad

    def wrapped(inst, rows, beta, grad=True, z=None, value=True):
        if value and rows.size == inst.n:
            on_all_rows(beta)
        return kernel(inst, rows, beta, grad, z, value)

    monkeypatch.setattr(solver, "weighted_objective_grad", wrapped)


class TestTraceRule:
    """Each iterate's F is recorded once, off the clock."""

    @pytest.mark.parametrize("cfg", [TrainConfig(), TrainConfig(grad_tol=1e-2),
                                     TrainConfig(max_iters=2), TrainConfig(grad_tol=1e9)],
                             ids=["budget-500", "grad-tol-1e-2", "budget-2", "grad-tol-1e9"])
    @pytest.mark.parametrize("inst, cs", [c for c in stop_rule_cases() if "weighted" in c.id])
    def test_coreset_pays_one_full_pass_per_beta(self, monkeypatch, inst, cs, cfg):
        # converged and stalled runs end at the beta of the last entry, whose
        # F is already in hand.  Full data is left out: there a stalling
        # Armijo trial evaluates the old beta's bytes again, as it must
        betas = []
        kernel_with(monkeypatch, lambda beta: betas.append(beta.tobytes()))
        train(inst, cfg, cs)
        assert betas and len(betas) == len(set(betas))

    @pytest.mark.parametrize("method", list(TrainMethod))
    def test_full_passes_are_off_the_clock(self, monkeypatch, method):
        # with every pass over all rows slowed by 20 ms, five short coreset
        # iterations stay below one such pass on the clock
        kernel_with(monkeypatch, lambda beta: time.sleep(0.02))
        X, y, _ = gen_synthetic(200, 3, noise=0.1, seed=7)
        inst = RlmInstance(X=X, y=y, loss=LossKind.LOGISTIC,
                           reg=RegularizerKind.L2_SQUARED, kappa=0.5)
        cfg = TrainConfig(method=method, max_iters=5, epochs=5, grad_tol=1e-12)
        _, trace = train(inst, cfg, uniform_sample(inst, 40, seed=3))
        assert trace.stop_reason == "max_iters" and len(trace.seconds) == 5
        assert trace.seconds[-1] < 0.02


    @pytest.mark.parametrize("cfg", [TrainConfig(max_iters=60), TrainConfig(grad_tol=1e9),
                                     TrainConfig(max_iters=1),
                                     TrainConfig(method=TrainMethod.SGD, epochs=3)],
                             ids=["budget-60", "grad-tol-1e9", "budget-1", "sgd"])
    @pytest.mark.parametrize("inst, cs", [c for c in stop_rule_cases() if "weighted" in c.id])
    def test_without_full_trace_only_the_exit_is_recorded(self, monkeypatch, inst, cs, cfg):
        beta_on, trace_on = train(inst, cfg, cs)
        betas = []
        kernel_with(monkeypatch, lambda beta: betas.append(beta.tobytes()))
        beta_off, trace_off = train(inst, cfg, cs, full_trace=False)
        assert beta_off.tobytes() == beta_on.tobytes()
        assert trace_off.stop_reason == trace_on.stop_reason
        assert trace_off.final_objective == trace_on.final_objective
        assert trace_off.objectives == trace_on.objectives[-1:]
        assert len(trace_off.seconds) == 1
        # one pass over all rows, at the returned beta; nonsmooth GD may take
        # a second one at its best iterate
        if cfg.method is TrainMethod.SGD or solver._is_smooth(inst):
            assert betas == [beta_off.tobytes()]
        else:
            assert 1 <= len(betas) <= 2


def oracle_sgd_beta(inst, cfg):
    """Full-data SGD with every weight 1 kept in the step, u * dz * y over
    sum(u): the reference the weight-free full-data step must match."""
    rng = np.random.default_rng(cfg.seed)
    u = np.ones(inst.n)
    beta = np.zeros(inst.d)
    for _ in range(cfg.epochs):
        order = rng.permutation(inst.n)
        for lo in range(0, inst.n, cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            Xb, yb, ub = inst.X[batch], inst.y[batch], u[batch]
            dz = loss_slope(inst.loss, -yb * (Xb @ beta))
            g = -((ub * dz * yb) @ Xb) / float(np.sum(ub))
            g = g + reg_grad(inst.reg, beta, inst.reg_scale) / inst.n
            beta = beta - cfg.learning_rate * g
    return beta


class TestBoundedMemory:
    """Training holds X, y and one n-vector, and gives the floats of the
    one-array kernel and of weighted SGD."""

    @pytest.mark.parametrize("loss, reg", ALL_PAIRS)
    def test_gd_past_one_leaf_matches_the_oracle(self, loss, reg):
        X, y, _ = gen_synthetic(2 * model.ROW_BLOCK + 5, 3, noise=0.1, seed=7)
        inst = RlmInstance(X=X, y=y, loss=loss, reg=reg, kappa=0.5)
        cfg = TrainConfig(max_iters=12, grad_tol=1e-12)
        beta_hat, trace = train(inst, cfg)
        beta_ref, trace_ref = oracle_train_gd(inst, cfg)
        assert beta_hat.tobytes() == beta_ref.tobytes()
        assert trace.objectives == trace_ref[:len(trace.objectives)]

    @pytest.mark.parametrize("loss, reg", ALL_PAIRS)
    def test_full_data_sgd_matches_weighted_sgd(self, loss, reg):
        X, y, _ = gen_synthetic(500, 3, noise=0.1, seed=7)
        inst = RlmInstance(X=X, y=y, loss=loss, reg=reg, kappa=0.5)
        cfg = TrainConfig(method=TrainMethod.SGD, epochs=3, batch_size=7, seed=4)
        for cs in (None, identity_cs(inst.n)):
            beta_hat, _ = train(inst, cfg, cs)
            assert beta_hat.tobytes() == oracle_sgd_beta(inst, cfg).tobytes()

    def test_gd_takes_the_accepted_trial_s_value_and_margins(self, monkeypatch):
        calls = []
        kernel = solver.weighted_objective_grad

        def recording(inst, rows, beta, grad=True, z=None, value=True):
            calls.append((grad, value, z is not None))
            return kernel(inst, rows, beta, grad, z, value)

        monkeypatch.setattr(solver, "weighted_objective_grad", recording)
        X, y, _ = gen_synthetic(300, 3, noise=0.1, seed=7)
        inst = RlmInstance(X=X, y=y, loss=LossKind.LOGISTIC,
                           reg=RegularizerKind.L2_SQUARED, kappa=0.5)
        _, trace = train(inst, TrainConfig(max_iters=20, grad_tol=1e-12))
        grads = [c for c in calls if c[0]]
        # one full evaluation at beta = 0; after it each gradient comes from
        # the margins of the trial that was accepted, whose value is known
        assert len(grads) == len(trace.objectives) == 20
        assert grads[0] == (True, True, False)
        assert set(grads[1:]) == {(True, False, True)}
        assert {c for c in calls if not c[0]} == {(False, True, True)}

    def test_coreset_gd_gathers_its_rows_once(self, monkeypatch):
        # every kernel call and every Armijo trial's margins read the rows
        # GD gathered at the start of the run
        X, y, _ = gen_synthetic(300, 3, noise=0.1, seed=7)
        inst = RlmInstance(X=X, y=y, loss=LossKind.LOGISTIC,
                           reg=RegularizerKind.L2_SQUARED, kappa=0.5)
        cs = uniform_sample(inst, 60, seed=3)
        gathered, kernel_calls = [], []
        gather, kernel = model.objective_rows, solver.weighted_objective_grad

        def counting_gather(inst, c=None):
            rows = gather(inst, c)
            if c is cs:
                gathered.append(rows)
            return rows

        def counting_kernel(inst, rows, *args, **kwargs):
            kernel_calls.append(any(rows is r for r in gathered))
            return kernel(inst, rows, *args, **kwargs)

        monkeypatch.setattr(model, "objective_rows", counting_gather)
        monkeypatch.setattr(solver, "objective_rows", counting_gather)
        monkeypatch.setattr(solver, "weighted_objective_grad", counting_kernel)
        _, trace = train(inst, TrainConfig(max_iters=20, grad_tol=1e-12), cs)
        assert trace.stop_reason == "max_iters" and len(trace.objectives) == 20
        assert sum(kernel_calls) > 20 and len(gathered) == 1

    @pytest.mark.parametrize("cfg", [TrainConfig(max_iters=3),
                                     TrainConfig(method=TrainMethod.SGD, epochs=1)],
                             ids=["gd", "sgd"])
    def test_full_data_training_allocates_under_half_of_X(self, cfg):
        X, y, _ = gen_synthetic(200_000, 10, noise=0.1, seed=3)
        inst = RlmInstance(X=X, y=y, loss=LossKind.LOGISTIC,
                           reg=RegularizerKind.L2_SQUARED, kappa=0.5)
        _, peak = traced_peak(train, inst, cfg)
        assert peak < X.nbytes / 2

    @pytest.mark.parametrize("loss, reg, cfg, q", [
        (LossKind.LOGISTIC, RegularizerKind.L2_SQUARED, TrainConfig(max_iters=3), None),
        (LossKind.HINGE, RegularizerKind.L1, TrainConfig(max_iters=3), None),
        (LossKind.LOGISTIC, RegularizerKind.L2_SQUARED,
         TrainConfig(method=TrainMethod.SGD, epochs=1), None),
        # q = 20 sqrt(n) rows, gathered once, and the exit pass over all rows
        (LossKind.LOGISTIC, RegularizerKind.L2_SQUARED, TrainConfig(max_iters=5), 8944),
    ], ids=["gd", "hinge-l1", "sgd", "coreset-gd"])
    def test_training_holds_one_n_vector(self, loss, reg, cfg, q):
        # margins and gradient weights in one n-vector, the permutation and
        # the coreset's rows dropped before a pass over all rows: two
        # n-vectors, as the kernel held them, would fail this bound
        X, y, _ = gen_synthetic(200_000, 10, noise=0.1, seed=3)
        inst = RlmInstance(X=X, y=y, loss=loss, reg=reg, kappa=0.5)
        cs = None if q is None else uniform_sample(inst, q, seed=0)
        (_, trace), peak = traced_peak(lambda: train(inst, cfg, cs, full_trace=False))
        assert trace.stop_reason == "max_iters"
        assert peak < 1.25 * y.nbytes


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["max_iters", "epochs"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_fewer_than_one_iteration(self, field, value):
        with pytest.raises(InvalidParameterError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["grad_tol", "learning_rate"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_rejects_a_tolerance_or_rate_not_positive(self, field, value):
        with pytest.raises(InvalidParameterError, match=field):
            TrainConfig(**{field: value})


class TestObjectiveRows:
    """objective_rows, the one place the rows of an objective are built."""

    def test_full_data_is_read_in_place(self, rng):
        inst = random_instance(rng, n=20)
        for cs in (None, identity_cs(20)):
            rows = objective_rows(inst, cs)
            assert rows.X is inst.X and rows.y is inst.y
            assert rows.u is None and rows.share == 1.0 and rows.size == 20

    def test_a_coreset_is_gathered_with_its_share(self, rng):
        inst = random_instance(rng, n=20)
        cs = WeightedCoreset(indices=[3, 3, 0], weights=rng.uniform(0.1, 5.0, size=3))
        rows = objective_rows(inst, cs)
        assert np.array_equal(rows.X, inst.X[[3, 3, 0]])
        assert np.array_equal(rows.y, inst.y[[3, 3, 0]])
        assert rows.u is cs.weights and rows.size == 3
        assert rows.share.hex() == (math.fsum(cs.weights) / 20).hex()

    def test_an_identity_prefix_is_gathered(self, rng):
        # a prefix of the rows with unit weights is not the full instance
        inst = random_instance(rng, n=20)
        rows = objective_rows(inst, identity_cs(10))
        assert rows.X.shape == (10, 3) and rows.X is not inst.X
        assert np.array_equal(rows.X, inst.X[:10]) and np.array_equal(rows.y, inst.y[:10])
        assert rows.u is not None and rows.share == 0.5

    @pytest.mark.parametrize("bad", [-1, 20])  # train refuses them too: TestCoresetIndices
    def test_an_index_out_of_range_is_refused(self, rng, bad):
        inst = random_instance(rng, n=20)
        cs = WeightedCoreset(indices=[0, bad], weights=[10.0, 10.0])
        with pytest.raises(IndexError, match="coreset index out of range"):
            objective_rows(inst, cs)


class TestKernelShape:
    """perfbench's eval counter wraps solver.weighted_objective_grad and reads
    inst.n and the size of the second argument on every call; this pins what
    it reads, so that a traced run counts every row it evaluates."""

    @pytest.mark.parametrize("cfg", [TrainConfig(max_iters=8, grad_tol=1e-12),
                                     TrainConfig(method=TrainMethod.SGD, epochs=3)],
                             ids=["gd", "sgd"])
    @pytest.mark.parametrize("q", [None, 40], ids=["full", "coreset"])
    def test_every_call_passes_rows_with_a_size(self, monkeypatch, cfg, q):
        X, y, _ = gen_synthetic(200, 3, noise=0.1, seed=7)
        inst = RlmInstance(X=X, y=y, loss=LossKind.LOGISTIC,
                           reg=RegularizerKind.L2_SQUARED, kappa=0.5)
        cs = None if q is None else uniform_sample(inst, q, seed=3)
        calls = []
        kernel = solver.weighted_objective_grad

        def recording(inst, rows, *args, **kwargs):
            calls.append(rows)
            return kernel(inst, rows, *args, **kwargs)

        monkeypatch.setattr(solver, "weighted_objective_grad", recording)
        train(inst, cfg, cs, full_trace=True)
        assert calls and not any(rows is None for rows in calls)
        assert all(type(rows.size) is int for rows in calls)
        # passes over all rows have size n, passes over the coreset size q
        assert {rows.size for rows in calls if rows.u is None} == {inst.n}
        core = {rows.size for rows in calls if rows.u is not None}
        if q is None or cfg.method is TrainMethod.SGD:  # SGD's steps skip the kernel
            assert core == set()
        else:
            assert core == {q}


class TestCoresetIndices:
    @pytest.mark.parametrize("method", list(TrainMethod))
    @pytest.mark.parametrize("bad", [-1, 10])  # numpy would gather row n-1 for -1
    def test_out_of_range_is_refused_as_h_refuses_it(self, rng, method, bad):
        inst = random_instance(rng, n=10)
        cs = WeightedCoreset(indices=[bad, 0], weights=[5.0, 5.0])
        with pytest.raises(IndexError, match="coreset index out of range"):
            train(inst, TrainConfig(method=method), cs)


class TestTrainFullBatch:
    def test_symmetric_instance_trains_to_zero(self):
        inst = RlmInstance(X=np.array([[1.0, 2.0], [1.0, 2.0]]),
                           y=np.array([1.0, -1.0]),
                           loss=LossKind.LOGISTIC, reg=RegularizerKind.L2_SQUARED,
                           kappa=0.5)
        beta_hat, _ = train(inst, TrainConfig())
        assert float(np.linalg.norm(beta_hat)) <= 1e-6

    def test_separable_improves_on_zero(self, rng):
        X = np.concatenate([rng.normal(2, 0.5, 40), rng.normal(-2, 0.5, 40)])
        y = np.concatenate([np.ones(40), -np.ones(40)])
        inst = RlmInstance(X=X.reshape(-1, 1), y=y, loss=LossKind.LOGISTIC,
                           reg=RegularizerKind.L2_SQUARED, kappa=0.5)
        beta_hat, _ = train(inst, TrainConfig())
        assert np.all(np.isfinite(beta_hat))
        assert full_objective(inst, beta_hat) < full_objective(inst, np.zeros(1))

    def test_gradient_norm_at_exit(self, rng):
        inst = random_instance(rng, n=100)
        cfg = TrainConfig(grad_tol=1e-5, max_iters=2000)
        beta_hat, _ = train(inst, cfg)
        g = weighted_objective_grad(inst, None, beta_hat)[1]
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
        assert np.array_equal(beta_full, beta_cs)
        assert trace_full.objectives == trace_cs.objectives

    def test_subgradient_path_hinge(self, rng):
        inst = random_instance(rng, n=60, loss=LossKind.HINGE)
        beta_hat, trace = train(inst, TrainConfig(max_iters=200))
        # best-iterate return: final objective no worse than the start
        assert trace.objectives[-1] <= 60 * 1.0 + 1e-9 or \
            full_objective(inst, beta_hat) <= full_objective(inst, np.zeros(3))

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
        assert np.array_equal(a, b)

    def test_different_seed_differs(self, rng):
        inst = random_instance(rng, n=200)
        a, _ = train(inst, TrainConfig(method=TrainMethod.SGD, epochs=3, seed=1))
        b, _ = train(inst, TrainConfig(method=TrainMethod.SGD, epochs=3, seed=2))
        assert not np.array_equal(a, b)

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
        assert beta_hat[0] == pytest.approx(1.0, rel=1e-4)
        assert all(np.isfinite(trace.objectives))

    def test_makes_progress(self, rng):
        X, y, _ = gen_synthetic(500, 2, noise=0.05, seed=3)
        inst = RlmInstance(X=X, y=y, loss=LossKind.LOGISTIC,
                           reg=RegularizerKind.L2_SQUARED, kappa=0.5)
        _, trace = train(
            inst, TrainConfig(method=TrainMethod.SGD, epochs=10, seed=0,
                              learning_rate=0.05))
        start = full_objective(inst, np.zeros(2))
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
