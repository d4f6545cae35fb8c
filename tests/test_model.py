import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    ALL_PAIRS,
    brute_force_H,
    oracle_objective_grad,
    oracle_point_objectives,
    oracle_sigmoid,
    oracle_softplus,
    oracle_tiled_loss_sums,
    random_instance,
    recorded_iterates,
    traced_peak,
)
from rlm_coreset import model, solver
from rlm_coreset.errors import NonFiniteError, ZeroObjectiveError
from rlm_coreset.model import (
    LossKind,
    RegularizerKind,
    RlmInstance,
    WeightedCoreset,
    approximation_error,
    approximation_errors,
    block_objectives,
    check_weight_sum,
    full_objective,
    loss_eval,
    loss_slope,
    objective_rows,
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


# margins up to |z| = 800, past where exp(-|z|) underflows, with both zeros,
# the hinge kink, both infinities and NaN
MARGINS = st.one_of(st.floats(-800, 800), st.sampled_from(
    [0.0, -0.0, -1.0, 750.0, -750.0, 800.0, -800.0, np.inf, -np.inf, np.nan]))


def assert_same_floats(got, want):
    """got and want hold the same bytes, except that a NaN need only be NaN
    on both sides, whatever its sign and payload."""
    got, want = np.asarray(got).ravel(), np.asarray(want).ravel()
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


class TestLogisticKernel:
    """softplus and the sigmoid share one exp(-|z|) and compute in place; the
    floats must be the two-exponential, two-division forms' to the bit.  The
    H pass's loss_in_place, inside the margins and one buffer, gives the same
    floats for both losses."""

    @given(hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=2, max_side=20),
                      elements=MARGINS))
    @settings(max_examples=300)
    def test_value_and_slope_bytes_equal_the_reference(self, z):
        value = np.asarray(loss_eval(LossKind.LOGISTIC, z))
        slope = np.asarray(loss_slope(LossKind.LOGISTIC, z))
        assert_same_floats(value, oracle_softplus(z))
        assert_same_floats(slope, oracle_sigmoid(z))
        assert value.shape == slope.shape == z.shape
        # the kernel's path: the slope reads e, then the value consumes it
        e = model.exp_neg_abs(z)
        assert_same_floats(loss_slope(LossKind.LOGISTIC, z, e), slope)
        assert_same_floats(loss_eval(LossKind.LOGISTIC, z, e), value)
        # the H pass's path: the margins and exp(-|z|) are overwritten
        zc = z.copy()
        e = model.exp_neg_abs(zc, np.empty(z.shape))
        assert_same_floats(model.loss_in_place(LossKind.LOGISTIC, zc, e), value)
        hinge = np.asarray(np.maximum(0.0, 1.0 + z))
        assert_same_floats(loss_eval(LossKind.HINGE, z), hinge)
        assert_same_floats(model.loss_in_place(LossKind.HINGE, z.copy(), None), hinge)
        assert_same_floats(loss_slope(LossKind.HINGE, z), (z > -1.0).astype(float))

    def test_infinite_and_nan_margins(self):
        z = np.array([np.inf, -np.inf, np.nan])
        assert_same_floats(loss_slope(LossKind.LOGISTIC, z), [1.0, 0.0, np.nan])
        assert_same_floats(loss_eval(LossKind.LOGISTIC, z), [np.inf, 0.0, np.nan])
        assert_same_floats(loss_eval(LossKind.HINGE, z), [np.inf, 0.0, np.nan])

    @given(st.floats(-800, 800))
    def test_scalar_softplus_is_zero_dimensional(self, z):
        value = loss_eval(LossKind.LOGISTIC, z)
        assert np.ndim(value) == 0
        assert float(value) == float(oracle_softplus(z))

    def test_input_is_not_modified(self):
        z = np.array([-3.0, 0.0, 2.5])
        before = z.copy()
        for kind in LossKind:
            loss_eval(kind, z)
            loss_slope(kind, z)
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
        h = np.array([1.0, 1.0])
        assert full_objective(inst, h) == pytest.approx(3 * math.log(2))

    def test_coreset_validation(self):
        with pytest.raises(ValueError):
            WeightedCoreset(indices=np.array([0]), weights=np.array([-1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_coreset_rejects_non_finite_weight(self, bad):
        with pytest.raises(ValueError, match="finite"):
            WeightedCoreset(indices=np.arange(3), weights=np.array([1.0, bad, 1.0]))

    def test_coreset_rejects_a_weight_sum_past_the_largest_float(self):
        # each weight is finite; their sum is not
        with pytest.raises(ValueError, match="finite sum"):
            WeightedCoreset(indices=np.arange(2), weights=np.array([1e308, 1e308]))

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


def one_probe_f_c(inst, cs, beta):
    """F_C at beta as H evaluates it: block_objectives for one probe."""
    return float(block_objectives(inst, cs, beta[None])[1][0])


def kernel_h(inst, cs, beta):
    """H at beta from the per-probe kernel, a path independent of
    block_objectives: F_C by weighted_objective_grad, F by full_objective."""
    full = full_objective(inst, beta)
    core = weighted_objective_grad(inst, objective_rows(inst, cs), beta, grad=False)[0]
    return abs(full - core) / full


class TestObjectives:
    def test_full_objective_example(self):
        inst = two_point_instance()
        h = np.array([1.0, 0.0])
        expect = 0.31326168751822286 + 1.3132616875182228 + math.sqrt(2)
        assert full_objective(inst, h) == pytest.approx(expect, rel=1e-9)

    def test_point_objective_example(self):
        # f_0 is the objective of the unit-weight coreset {0}
        inst = two_point_instance()
        h = np.array([1.0, 0.0])
        expect = 0.31326168751822286 + math.sqrt(2) / 2
        point = WeightedCoreset(indices=[0], weights=[1.0])
        assert one_probe_f_c(inst, point, h) == pytest.approx(expect, rel=1e-9)

    def test_point_objective_difference_is_loss_difference(self, rng):
        # every point carries the same share of the regularizer
        inst = random_instance(rng, n=10)
        h = rng.standard_normal(3)
        f2, f7 = (one_probe_f_c(inst, WeightedCoreset(indices=[i], weights=[1.0]), h)
                  for i in (2, 7))
        loss2, loss7 = loss_eval(inst.loss, -inst.y[[2, 7]] * (inst.X[[2, 7]] @ h))
        assert f2 - f7 == pytest.approx(loss2 - loss7, rel=1e-12)

    def test_full_objective_at_zero(self, rng):
        inst = random_instance(rng, n=17)
        z = np.zeros(3)
        assert full_objective(inst, z) == pytest.approx(17 * math.log(2), rel=1e-12)

    def test_full_equals_sum_of_point_objectives(self, rng):
        inst = random_instance(rng, n=23)
        h = rng.standard_normal(3)
        total = sum(oracle_point_objectives(inst, h))
        assert full_objective(inst, h) == pytest.approx(total, rel=1e-10)

    def test_full_objective_deterministic(self, rng):
        inst = random_instance(rng, n=200)
        h = rng.standard_normal(3)
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
        f_i = oracle_point_objectives(inst, beta)
        for cs, expect in (
            (None, sum(f_i)),
            (weighted, sum(w * f_i[i] for i, w in zip(weighted.indices, weighted.weights))),
        ):
            rows = objective_rows(inst, cs)
            f, g = weighted_objective_grad(inst, rows, beta)
            assert f == pytest.approx(expect, rel=1e-12)
            g_num = np.zeros(3)
            for j in range(3):
                step = 1e-6 * (1 + abs(beta[j]))
                up, dn = beta.copy(), beta.copy()
                up[j] += step
                dn[j] -= step
                g_num[j] = (weighted_objective_grad(inst, rows, up, grad=False)[0]
                            - weighted_objective_grad(inst, rows, dn, grad=False)[0]) / (2 * step)
            scale = max(float(np.linalg.norm(g_num)), 1.0)
            assert float(np.linalg.norm(g - g_num)) / scale <= 1e-5

    def test_identity_coreset_is_full_data(self, rng):
        inst = random_instance(rng, n=30)
        ident = WeightedCoreset(indices=np.arange(30), weights=np.ones(30))
        beta = rng.standard_normal(3)
        f, g = weighted_objective_grad(inst, None, beta)
        f_id, g_id = weighted_objective_grad(inst, objective_rows(inst, ident), beta)
        assert f == f_id and np.array_equal(g, g_id)


def leaf_instance(n, loss, reg, d=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = rng.choice([-1.0, 1.0], size=n)
    return RlmInstance(X=X, y=y, loss=loss, reg=reg, kappa=0.5)


def assert_same_bits(got, expect):
    f, g = got
    f_ref, g_ref = expect
    assert (f is None) == (f_ref is None) and (g is None) == (g_ref is None)
    if f is not None:
        assert f.hex() == f_ref.hex()
    if g is not None:
        assert g.tobytes() == g_ref.tobytes()


# rows of one leaf of the kernel at leaf_instance's d = 4
LEAF = model.leaf_rows(4)
# eight of check_rows' tiles of rows: one block of its labels
TILES = 8 * model.ROW_TILE


class TestBlockedKernel:
    """The kernel's leaf sums give the floats of the one-array formula,
    oracle_objective_grad, whose gradient is added over the same leaves."""

    @pytest.mark.parametrize("n", [LEAF - 1, LEAF, LEAF + 1, 2 * LEAF + 5, 100_000])
    @pytest.mark.parametrize("loss, reg", ALL_PAIRS)
    def test_bytes_equal_to_the_oracle(self, loss, reg, n):
        inst = leaf_instance(n, loss, reg)
        rng = np.random.default_rng(n)
        weighted = WeightedCoreset(indices=rng.integers(0, n, size=3000),
                                   weights=rng.uniform(0.1, 5.0, size=3000))
        # weighted rows past one leaf: F_C is still one u @ losses
        q = 2 * LEAF + 5
        wide_rng = np.random.default_rng([n, 1])
        wide = WeightedCoreset(indices=wide_rng.integers(0, n, size=q),
                               weights=wide_rng.uniform(0.1, 5.0, size=q))
        for cs in (None, weighted, wide):
            rows = objective_rows(inst, cs)
            # beta = 0 puts every margin at a signed zero
            for beta in (np.zeros(inst.d), 0.7 * rng.standard_normal(inst.d)):
                assert_same_bits(weighted_objective_grad(inst, rows, beta),
                                 oracle_objective_grad(inst, cs, beta))
                assert_same_bits(weighted_objective_grad(inst, rows, beta, grad=False),
                                 oracle_objective_grad(inst, cs, beta, grad=False))

    @pytest.mark.parametrize("d", [1, 2, 3, 10, 64, 100, 700, 1024, 1025, 5000,
                                   1 << 17, (1 << 17) + 1, 10 ** 6])
    def test_leaf_rows_rule(self, d):
        # the largest power of two of at least 128 rows with rows x d <= 2**17
        rows = model.leaf_rows(d)
        assert rows >= 128 and rows & (rows - 1) == 0
        assert rows * d <= model.LEAF_VALUES or rows == 128
        assert rows == 128 or 2 * rows * d > model.LEAF_VALUES
        assert {10: 8192, 700: 128, 64: 2048, 1: 1 << 17}.get(d, rows) == rows

    def test_rows_wider_than_a_leaf(self, rng):
        # past LEAF_VALUES columns a leaf keeps 128 rows
        d = model.LEAF_VALUES + 1
        inst = RlmInstance(X=rng.standard_normal((2, d)), y=np.array([1.0, -1.0]),
                           loss=LossKind.LOGISTIC, reg=RegularizerKind.L2, kappa=0.5)
        beta = rng.standard_normal(d) / d
        assert_same_bits(weighted_objective_grad(inst, None, beta),
                         oracle_objective_grad(inst, None, beta))

    @pytest.mark.parametrize("leaf", [128, 1000])
    def test_pairwise_sum_is_np_sum(self, rng, leaf):
        for n in (0, 1, 7, leaf, leaf + 1, 4 * leaf + 13, 50_000):
            values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, size=n)
            got = model.pairwise_sum(lambda a, b: float(np.sum(values[a:b])), 0, n, leaf)
            assert got.hex() == float(np.sum(values)).hex()

    @pytest.mark.parametrize("d", [1, 10, 129])
    @pytest.mark.parametrize("n", [TILES - 1, TILES, TILES + 1])
    def test_blocked_max_row_norm(self, rng, n, d):
        X = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 3, size=(n, 1))
        y = np.ones(n)
        expect = float(np.max(np.linalg.norm(X, axis=1)))
        assert model.check_rows(X, y).hex() == expect.hex()
        # the largest row in the last block
        X[-1] *= 1e4
        expect = float(np.max(np.linalg.norm(X, axis=1)))
        assert model.check_rows(X, y).hex() == expect.hex()
        assert model.check_rows(X[:0], y[:0]) == 0.0

    @pytest.mark.parametrize("row", [0, TILES + 3])
    def test_finite_point_whose_norm_overflows_is_refused(self, row):
        # finite entries whose squares, and so whose 2-norm, overflow
        X = np.ones((TILES + 5, 2))
        X[row] = 1e200
        with pytest.raises(ValueError, match="2-norm is not finite"):
            model.check_rows(X, np.ones(len(X)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_in_the_last_block(self, bad):
        X = np.ones((TILES + 1, 2))
        X[-1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            RlmInstance(X=X, y=np.ones(len(X)), loss=LossKind.LOGISTIC,
                        reg=RegularizerKind.L2, kappa=0.5)

    @pytest.mark.parametrize("n", [3 * TILES + 5, 100_000])
    def test_instance_allocates_a_tile_of_squares(self, n):
        # the squares of ROW_TILE rows in one buffer, and the labels checked
        # 8192 at a time; 8192 rows' norms by np.linalg.norm took
        # 0.79 MB, and three n-byte masks over all labels 0.3 MB at n = 1e5
        rng = np.random.default_rng(6)
        X = rng.standard_normal((n, 10))
        y = rng.choice([-1.0, 1.0], size=len(X))
        _, peak = traced_peak(lambda: RlmInstance(X=X, y=y, loss=LossKind.LOGISTIC,
                                                  reg=RegularizerKind.L2, kappa=0.5))
        assert peak < 0.2e6

    @pytest.mark.parametrize("loss, reg", ALL_PAIRS)
    def test_instance_and_one_evaluation_allocate_under_half_of_X(self, loss, reg):
        # one n x d temporary, or five n-vectors, would pass this bound
        rng = np.random.default_rng(5)
        X = rng.standard_normal((200_000, 10))
        y = rng.choice([-1.0, 1.0], size=len(X))
        beta = rng.standard_normal(10)
        _, peak = traced_peak(lambda: weighted_objective_grad(
            RlmInstance(X=X, y=y, loss=loss, reg=reg, kappa=0.5), None, beta))
        assert peak < X.nbytes / 2

    @pytest.mark.parametrize("loss, reg", ALL_PAIRS)
    def test_one_evaluation_holds_no_n_vector(self, loss, reg):
        # each leaf's margins, losses and slopes are leaf-sized, about a
        # fifth of an n-vector here; one n-vector for them would fail
        inst = leaf_instance(200_000, loss, reg, d=10)
        beta = np.random.default_rng(5).standard_normal(inst.d)
        _, peak = traced_peak(lambda: weighted_objective_grad(inst, None, beta))
        assert peak < 0.5 * inst.y.nbytes


class TestCoresetObjective:
    def test_identity_coreset_matches_full(self, rng):
        inst = random_instance(rng, n=30)
        cs = WeightedCoreset(indices=np.arange(30), weights=np.ones(30))
        for _ in range(5):
            h = rng.standard_normal(3)
            assert one_probe_f_c(inst, cs, h) == pytest.approx(
                full_objective(inst, h), rel=1e-12)

    def test_uniform_weights_at_zero(self, rng):
        inst = random_instance(rng, n=40)
        cs = WeightedCoreset(indices=rng.integers(0, 40, size=8),
                             weights=np.full(8, 5.0))
        assert one_probe_f_c(inst, cs, np.zeros(3)) == \
            pytest.approx(40 * math.log(2), rel=1e-12)

    def test_singleton(self, rng):
        inst = random_instance(rng, n=10)
        h = rng.standard_normal(3)
        cs = WeightedCoreset(indices=np.array([4]), weights=np.array([3.0]))
        f4 = float(loss_eval(inst.loss, -inst.y[4] * (inst.X[4] @ h))) \
            + inst.lam * reg_eval(inst.reg, inst.R * h) / inst.n
        assert one_probe_f_c(inst, cs, h) == pytest.approx(3 * f4, rel=1e-12)

    def test_invalid_index(self, rng):
        inst = random_instance(rng, n=10)
        cs = WeightedCoreset(indices=np.array([11]), weights=np.array([1.0]))
        with pytest.raises(IndexError):
            one_probe_f_c(inst, cs, np.zeros(3))


class TestApproximationError:
    def test_matches_brute_force_oracle(self, rng):
        inst = random_instance(rng, n=50, d=4)
        cs = WeightedCoreset(indices=rng.integers(0, 50, size=12),
                             weights=rng.uniform(0.5, 8.0, size=12))
        for _ in range(10):
            h = rng.standard_normal(4)
            assert approximation_error(inst, cs, h) == pytest.approx(
                brute_force_H(inst, cs, h), abs=1e-12)

    def test_full_coreset_is_exact_everywhere(self, rng):
        inst = random_instance(rng, n=25)
        cs = WeightedCoreset(indices=np.arange(25), weights=np.ones(25))
        for _ in range(1000):
            h = rng.standard_normal(3) * rng.uniform(0, 10)
            # the identity coreset is evaluated as the full data, by one kernel
            assert approximation_error(inst, cs, h) == 0.0

    def test_zero_objective_error(self, rng, monkeypatch):
        # F = 0 is unreachable through well-formed instances (hinge needs all
        # margins past 1 *and* a vanishing regularizer), so exercise the
        # guard by stubbing the objective to the degenerate value
        inst = random_instance(rng, n=5, loss=LossKind.HINGE)
        cs = WeightedCoreset(indices=np.array([0]), weights=np.array([1.0]))
        monkeypatch.setattr("rlm_coreset.model.block_objectives",
                            lambda inst, cs, B: (np.zeros(len(B)), np.zeros(len(B))))
        with pytest.raises(ZeroObjectiveError):
            approximation_error(inst, cs, np.array([2.0, 0, 0]))

    @pytest.mark.parametrize("loss, reg", ALL_PAIRS)
    def test_overflowing_objective_is_refused(self, rng, loss, reg):
        # with the squared norm, a probe of norm 1e160 overflows the
        # regularizer; with lambda near the largest float, lambda * R**p
        # overflows, and its product with r(beta) is inf, or NaN at beta = 0.
        # Either way H would be NaN: refused, with no warning (warnings are
        # errors in this suite)
        inst = random_instance(rng, n=200, d=3, loss=loss, reg=reg)
        cs = WeightedCoreset(indices=rng.integers(0, 200, size=20),
                             weights=np.full(20, 10.0))
        B = np.array([[1.0, 0.0, 0.0], [0.0, 1e160, 0.0]])
        if reg is RegularizerKind.L2_SQUARED:
            with pytest.raises(NonFiniteError, match="not finite"):
                approximation_errors(inst, cs, B)
        huge = RlmInstance(X=inst.X, y=inst.y, loss=loss, reg=reg, kappa=0.5,
                           lambda_scale=1e307)
        assert math.isfinite(huge.lam) and not math.isfinite(huge.reg_scale)
        for evaluate in (lambda: approximation_errors(huge, cs, B[:1]),
                         lambda: approximation_error(huge, cs, np.zeros(3))):
            with pytest.raises(NonFiniteError, match="not finite"):
                evaluate()


class TestBlockEvaluator:
    """approximation_errors against the per-probe kernel, an independent
    reference: full_objective for F, weighted_objective_grad for F_C.  F and
    F_C are compared, not H: H = |F - F_C| / F amplifies the last-digit
    differences of another summation order by cancellation."""

    @staticmethod
    def probes(rng, k, d):
        # norms from 1e-2 to 30, so hinge margins fall on both sides of the kink
        dirs = rng.standard_normal((k, d))
        return np.geomspace(1e-2, 30.0, k)[:, None] * dirs / np.linalg.norm(
            dirs, axis=1, keepdims=True)

    @staticmethod
    def assert_matches_reference(inst, cs, B):
        full, core = block_objectives(inst, cs, B)
        np.testing.assert_allclose(full, [full_objective(inst, b) for b in B],
                                   rtol=1e-13, atol=0)
        rows = objective_rows(inst, cs)
        np.testing.assert_allclose(
            core, [weighted_objective_grad(inst, rows, b, grad=False)[0] for b in B],
            rtol=1e-13, atol=0)

    @pytest.mark.parametrize("loss, reg", ALL_PAIRS)
    def test_every_loss_and_regularizer(self, rng, loss, reg):
        inst = random_instance(rng, n=1500, d=4, loss=loss, reg=reg)
        B = self.probes(rng, 70, 4)
        weighted = WeightedCoreset(indices=rng.integers(0, 1500, size=1100),
                                   weights=rng.uniform(0.5, 2.0, size=1100))
        self.assert_matches_reference(inst, weighted, B)
        identity = WeightedCoreset(indices=np.arange(1500), weights=np.ones(1500))
        self.assert_matches_reference(inst, identity, B)
        assert np.all(approximation_errors(inst, identity, B) == 0.0)

    @pytest.mark.parametrize("n", [1023, 1024, 1025])
    @pytest.mark.parametrize("k", [1, 63, 64, 65, 200])
    def test_tile_edges(self, rng, n, k):
        inst = random_instance(rng, n=n, d=3)
        B = self.probes(rng, k, 3)
        cs = WeightedCoreset(indices=rng.integers(0, n, size=n),
                             weights=np.full(n, 1.0))
        self.assert_matches_reference(inst, cs, B)

    def test_errors_are_the_reference_h(self, rng):
        inst = random_instance(rng, n=300, d=3)
        cs = WeightedCoreset(indices=rng.integers(0, 300, size=40),
                             weights=np.full(40, 7.5))
        B = self.probes(rng, 20, 3)
        want = [kernel_h(inst, cs, b) for b in B]
        np.testing.assert_allclose(approximation_errors(inst, cs, B), want,
                                   rtol=1e-8, atol=0)

    def test_zero_objective_at_any_probe_raises(self, rng, monkeypatch):
        # F = 0 needs vanishing losses and regularizer; stub the loss sums
        inst = random_instance(rng, n=5, loss=LossKind.HINGE)
        cs = WeightedCoreset(indices=np.array([0]), weights=np.array([1.0]))
        monkeypatch.setattr("rlm_coreset.model._tiled_loss_sums",
                            lambda loss, X, y, u, neg_B, idx=None: np.zeros(len(neg_B)))
        B = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        with pytest.raises(ZeroObjectiveError):
            approximation_errors(inst, cs, B)

    @pytest.mark.parametrize("bad", [10, -1])  # numpy would wrap -1 silently
    def test_index_out_of_range(self, rng, bad):
        inst = random_instance(rng, n=10)
        cs = WeightedCoreset(indices=np.array([3, bad]), weights=np.ones(2))
        with pytest.raises(IndexError):
            approximation_errors(inst, cs, np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probe_is_refused(self, rng, bad):
        inst = random_instance(rng, n=10)
        cs = WeightedCoreset(indices=np.arange(3), weights=np.ones(3))
        B = np.zeros((3, 3))
        B[2, 1] = bad
        with pytest.raises(ValueError, match="must be finite"):
            approximation_errors(inst, cs, B)

    @pytest.mark.parametrize("cpus", [1, 4])
    @pytest.mark.parametrize("loss", list(LossKind))
    def test_pass_holds_two_tiles_per_cpu(self, monkeypatch, loss, cpus):
        # each leaf works inside its margins and exp(-|z|), one tile each; a
        # fresh margins, exp and max(z, 0) per tile held four tiles per CPU
        monkeypatch.setattr(model, "_usable_cpus", lambda: cpus)
        rng = np.random.default_rng(21)
        n = 12 * model.ROW_TILE * 8 + 5  # 13 blocks of rows at 200 probes
        inst = RlmInstance(X=rng.standard_normal((n, 10)), y=rng.choice([-1.0, 1.0], size=n),
                           loss=loss, reg=RegularizerKind.L2_SQUARED, kappa=0.5)
        cs = WeightedCoreset(indices=rng.integers(0, n, size=1000),
                             weights=np.full(1000, n / 1000))
        _, peak = traced_peak(approximation_errors, inst, cs, rng.standard_normal((200, 10)))
        tile = model.PROBE_TILE * model.ROW_TILE * 8
        assert peak < cpus * 2.4 * tile

    @pytest.mark.parametrize("loss", list(LossKind))
    def test_a_coreset_is_gathered_per_leaf(self, monkeypatch, loss):
        # the q rows gathered at once beside a leaf's buffers took 4.8 tiles
        # (logistic) and 3.8 (hinge)
        monkeypatch.setattr(model, "_usable_cpus", lambda: 1)
        rng = np.random.default_rng(22)
        n, d, q = 20_000, 20, 8 * model.ROW_TILE + 3
        inst = RlmInstance(X=rng.standard_normal((n, d)), y=rng.choice([-1.0, 1.0], size=n),
                           loss=loss, reg=RegularizerKind.L2_SQUARED, kappa=0.5)
        cs = WeightedCoreset(indices=rng.integers(0, n, size=q), weights=np.full(q, n / q))
        _, peak = traced_peak(block_objectives, inst, cs, rng.standard_normal((200, d)))
        assert peak < 3 * model.PROBE_TILE * model.ROW_TILE * 8

    @pytest.mark.parametrize("shape", [(3,), (2, 4), (1, 2, 3)])
    def test_probes_of_another_shape_are_refused(self, rng, shape):
        inst = random_instance(rng, n=10)
        cs = WeightedCoreset(indices=np.arange(3), weights=np.ones(3))
        with pytest.raises(ValueError, match="probes must be"):
            approximation_errors(inst, cs, np.zeros(shape))


class TestOneProbeF:
    """For one probe on at most 2**20 rows, one block of blocked_sum, the F of
    block_objectives is the very float of full_objective and of the GD
    trace: the losses are added as np.sum over all n adds them, at margins
    from one gemv per tile."""

    @given(pair=st.sampled_from(ALL_PAIRS), n=st.integers(1, 40_000),
           d=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    @example(pair=ALL_PAIRS[0], n=1 << 20, d=2, seed=0)
    @settings(max_examples=40, deadline=None)
    def test_is_full_objective_and_the_trace_f(self, pair, n, d, seed):
        loss, reg = pair
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0)
        y = rng.choice([-1.0, 1.0], size=n)
        inst = RlmInstance(X=X, y=y, loss=loss, reg=reg, kappa=0.5)
        cs = WeightedCoreset(indices=[0], weights=[1.0])
        with recorded_iterates() as iterates:
            _, trace = solver.train(inst, solver.TrainConfig(max_iters=3))
        assert len(iterates) == len(trace.objectives) > 0
        for beta, f in zip(iterates, trace.objectives):
            one_probe = block_objectives(inst, cs, beta[None])[0][0]
            assert one_probe.hex() == f.hex() == full_objective(inst, beta).hex()
        beta = rng.standard_normal(d) * rng.uniform(0.01, 5.0)
        one_probe = block_objectives(inst, cs, beta[None])[0][0]
        assert one_probe.hex() == full_objective(inst, beta).hex()


# TestPool's task size: how rows are split into blocks does not depend on it,
# and the 2**20 margins of model.TASK_MARGINS would need 2**21 rows at k = 1
SMALL_TASK_MARGINS = 1 << 17


def block_rows(k):
    # rows of one blocked_sum task: the smallest power of two of row tiles
    # that holds the task's margins
    tiles = math.ceil(SMALL_TASK_MARGINS / (model.ROW_TILE * k))
    return model.ROW_TILE * 2 ** math.ceil(math.log2(tiles))


@pytest.fixture(scope="module")
def tall_data():
    # enough rows for two tasks and one more row at k = 1, in 2 columns
    rng = np.random.default_rng(2024)
    n = 2 * block_rows(1) + 1
    return (rng.standard_normal((n, 2)), rng.choice([-1.0, 1.0], size=n),
            rng.uniform(0.5, 2.0, size=n), rng.standard_normal((200, 2)) * 3.0)


class TestPool:
    """ordered_map on one CPU and on the pool: the same floats, errors and
    error state.  Row counts end inside the second task, at its edge and one
    row past it."""

    ROWS = {"inside": lambda t: t + t // 2 + 3, "edge": lambda t: 2 * t,
            "past": lambda t: 2 * t + 1}

    @pytest.fixture(autouse=True)
    def small_tasks(self, monkeypatch):
        monkeypatch.setattr(model, "TASK_MARGINS", SMALL_TASK_MARGINS)

    @pytest.mark.parametrize("cpus, pooled", [(1, False), (2, True)])
    def test_tasks_run_on_the_pool_only_with_two_cpus(self, monkeypatch, cpus, pooled):
        monkeypatch.setattr(model, "_usable_cpus", lambda: cpus)
        me = threading.current_thread()
        ran_on = model.ordered_map(lambda _: threading.current_thread(), range(6))
        assert [t is not me for t in ran_on] == [pooled] * 6

    def test_one_item_runs_in_the_caller(self, monkeypatch):
        monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
        assert model.ordered_map(lambda _: threading.current_thread(), [0]) == \
            [threading.current_thread()]

    @pytest.mark.parametrize("where", sorted(ROWS))
    @pytest.mark.parametrize("k", [1, 3, 64, 65, 200])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("loss", list(LossKind))
    def test_tiled_sums_are_bytes_equal(self, serial_and_pooled, tall_data,
                                        loss, weighted, k, where):
        X, y, u, B = tall_data
        n = self.ROWS[where](block_rows(k))
        args = (loss, X[:n], y[:n], u[:n] if weighted else None, -B[:k])
        serial, pooled = serial_and_pooled(lambda: model._tiled_loss_sums(*args))
        oracle = oracle_tiled_loss_sums(*args, block_rows(k))
        assert serial.tobytes() == pooled.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("where", sorted(ROWS))
    @pytest.mark.parametrize("k", [1, 3, 64, 65, 200])
    @pytest.mark.parametrize("loss", list(LossKind))
    def test_errors_are_bytes_equal(self, serial_and_pooled, tall_data, loss, k, where):
        X, y, u, B = tall_data
        n = self.ROWS[where](block_rows(k))
        inst = RlmInstance(X=X[:n], y=y[:n], loss=loss, reg=RegularizerKind.L1, kappa=0.5)
        # every row once, reversed, so the coreset pass is a gather of n rows too
        for weights in (u[:n], np.ones(n)):
            cs = WeightedCoreset(indices=np.arange(n)[::-1], weights=weights)
            serial, pooled = serial_and_pooled(lambda: approximation_errors(inst, cs, B[:k]))
            assert serial.tobytes() == pooled.tobytes()

    @pytest.mark.parametrize("loss, reg", ALL_PAIRS)
    def test_kernel_f_is_the_one_probe_f(self, serial_and_pooled, loss, reg):
        # past one task the kernel adds its loss sum in the H pass's blocks, so
        # one probe's F is full_objective's at every n; its gradient is the
        # leaves' shares, added in the same blocks
        n = 3 * block_rows(1) + 5
        inst = leaf_instance(n, loss, reg, d=2)
        cs = WeightedCoreset(indices=[0], weights=[1.0])
        rng = np.random.default_rng(n)
        for beta in (np.zeros(2), *rng.standard_normal((3, 2))):
            serial, pooled = serial_and_pooled(lambda: weighted_objective_grad(inst, None, beta))
            assert_same_bits(pooled, serial)
            assert serial[1].tobytes() == oracle_objective_grad(inst, None, beta)[1].tobytes()
            one_probe = block_objectives(inst, cs, beta[None])[0][0]
            assert serial[0].hex() == one_probe.hex() == full_objective(inst, beta).hex()

    def test_kernel_tasks_under_thread_stress(self, monkeypatch):
        # four tasks on four threads, switching every microsecond: each task
        # holds only its own leaves' arrays, so the bytes stay the serial ones
        inst = leaf_instance(3 * block_rows(1) + 5, LossKind.LOGISTIC,
                             RegularizerKind.L2_SQUARED, d=2)
        beta = np.array([0.3, -0.7])
        monkeypatch.setattr(model, "_usable_cpus", lambda: 1)
        serial = weighted_objective_grad(inst, None, beta)
        monkeypatch.setattr(model, "_usable_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert_same_bits(weighted_objective_grad(inst, None, beta), serial)
        finally:
            sys.setswitchinterval(interval)

    def test_task_error_keeps_its_class(self, monkeypatch):
        class TaskError(Exception):
            pass

        def task(i):
            if i == 3:
                raise TaskError(i)
            return i

        monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
        with pytest.raises(TaskError):
            model.ordered_map(task, range(8))

    def test_callers_errstate_holds_in_the_workers(self, monkeypatch):
        # margins of 5e307, so every tile's loss sum overflows; two tasks
        n = 2 * block_rows(64)
        monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
        args = (LossKind.HINGE, np.full((n, 2), 0.5), np.ones(n), None,
                np.tile([1e308, 0.0], (64, 1)))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            model._tiled_loss_sums(*args)


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
        h0 = np.zeros(3)
        assert approximation_error(inst, cs, h0) == pytest.approx(
            abs(20 - 26.0) / 20, rel=1e-12)
        assert approximation_error(inst, cs, h0) > eps
