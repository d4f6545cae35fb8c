"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in the
captured output of a failing test) and then asserts, so the suite both
documents and enforces the contract.  Several checks are statistical or
wall-clock sensitive; their thresholds build in the intended slack.
"""

import math
import os

import numpy as np
import pytest

from conftest import (
    ALL_PAIRS,
    brute_force_H,
    check_scaling,
    circle_points,
    materialize_circle,
    point_line_distance,
    random_instance,
)
from rlm_coreset import adversary as adv
from rlm_coreset.data_io import gen_synthetic, load_csv
from rlm_coreset.model import (
    LossKind,
    RegularizerKind,
    RlmInstance,
    WeightedCoreset,
    approximation_error,
    full_objective,
    loss_eval,
)
from rlm_coreset.sampling import stream_sample, uniform_sample
from rlm_coreset.sensitivity import scaling_constants, sensitivity_upper_bound
from rlm_coreset.solver import TrainConfig, TrainMethod, train, weighted_objective_grad

GRID_STABILITY_PATHS = [
    "data/grid_stability.csv",
    "grid_stability.csv",
    "/root/data/grid_stability.csv",
]


def report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def _reg_values(reg, betas, R):
    """Vectorized regularizer value of R*beta for a (B, d) block of betas."""
    if reg is RegularizerKind.L1:
        return R * np.sum(np.abs(betas), axis=1)
    if reg is RegularizerKind.L2:
        return R * np.linalg.norm(betas, axis=1)
    return R * R * np.sum(betas * betas, axis=1)


def _loss_matrix(loss, inst, betas):
    """(n, B) per-point losses for a block of betas."""
    Z = -(inst.y[:, None] * (inst.X @ betas.T))
    return loss_eval(loss, Z)


def test_criterion_1_sensitivity_dominance():
    # max_i f_i(beta)/F(beta) never exceeds the uniform bound s'
    rng = np.random.default_rng(101)
    total_betas = 10**5
    block = 5000
    worst = -np.inf
    for trial in range(50):
        loss, reg = ALL_PAIRS[trial % len(ALL_PAIRS)]
        n = int(rng.integers(10, 501))
        d = int(rng.integers(1, 6))
        inst = random_instance(rng, n=n, d=d, loss=loss, reg=reg,
                               kappa=float(rng.uniform(0.1, 0.9)))
        s_prime = sensitivity_upper_bound(inst).s_prime
        for lo in range(0, total_betas, block):
            b = min(block, total_betas - lo)
            dirs = rng.standard_normal((b, d))
            dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
            norms = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=b))
            betas = dirs * norms[:, None]
            losses = _loss_matrix(inst.loss, inst, betas)
            reg_term = inst.lam * _reg_values(inst.reg, betas, inst.R)
            F = np.sum(losses, axis=0) + reg_term
            f_max = np.max(losses, axis=0) + reg_term / inst.n
            worst = max(worst, float(np.max(f_max / F - s_prime)))
        if worst > 1e-9:
            break
    report(1, worst <= 1e-9, f"max_i f_i/F - s' <= 1e-9 (worst excess {worst:.3e})")


def test_criterion_2_scaling_table():
    rng = np.random.default_rng(202)
    ok = True
    for loss, reg in ALL_PAIRS:
        sc = scaling_constants(loss, reg)
        for _ in range(10**4):
            d = int(rng.integers(1, 6))
            direction = rng.standard_normal(d)
            direction /= max(np.linalg.norm(direction), 1e-12)
            norm = math.exp(rng.uniform(math.log(sc.sigma), math.log(1e3)))
            beta = direction * norm
            if not check_scaling(loss, reg, sc, beta, tol=1e-12):
                ok = False
                break
        if not ok:
            break
    report(2, ok, "reg(beta) >= tau * loss(||beta||) - 1e-12 on all six pairs")


def test_criterion_3_weight_sum_exactness():
    rng = np.random.default_rng(303)
    ok = True
    detail = "sum(u) == n exactly and H(0) == 0 to 1e-12"
    for t in range(200):
        n = int(rng.integers(5, 10**5))
        q = int(rng.integers(1, n))
        cs = uniform_sample(n, q, seed=t)
        if cs.weight_sum() != float(n):
            ok, detail = False, f"sum(u) != n at n={n}, q={q}"
            break
    if ok:
        inst = random_instance(rng, n=500, d=4)
        for t in range(20):
            cs = uniform_sample(inst, int(rng.integers(1, 500)), seed=t)
            if approximation_error(inst, cs, np.zeros(4)) > 1e-12:
                ok, detail = False, "H(0) > 1e-12"
                break
    report(3, ok, detail)


def test_criterion_4_empirical_coreset_property():
    n, d, q, n_probes, trials = 10**5, 5, 5000, 2000, 20
    X, y, _ = gen_synthetic(n, d, noise=0.1, seed=4)
    inst = RlmInstance(X=X, y=y, loss=LossKind.LOGISTIC,
                       reg=RegularizerKind.L2_SQUARED, kappa=0.5)
    rng = np.random.default_rng(404)
    dirs = rng.standard_normal((n_probes, d))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
    norms = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=n_probes))
    betas = dirs * norms[:, None]

    # full-data loss sums, shared across trials
    block = 200
    loss_full = np.empty(n_probes)
    for lo in range(0, n_probes, block):
        hi = min(lo + block, n_probes)
        loss_full[lo:hi] = np.sum(_loss_matrix(inst.loss, inst, betas[lo:hi]), axis=0)
    reg_term = inst.lam * _reg_values(inst.reg, betas, inst.R)
    F = loss_full + reg_term

    cfg = TrainConfig(max_iters=150, grad_tol=1e-5)
    successes = 0
    for trial in range(trials):
        cs = uniform_sample(inst, q, seed=trial)
        Xc, yc = inst.X[cs.indices], inst.y[cs.indices]
        Zc = -(yc[:, None] * (Xc @ betas.T))
        core = cs.weights @ loss_eval(inst.loss, Zc) + \
            cs.weight_sum() / n * reg_term
        max_h = float(np.max(np.abs(F - core) / F))
        beta_hat, _ = train(inst, cfg, cs)
        max_h = max(max_h, approximation_error(inst, cs, beta_hat))
        if max_h <= 0.5:
            successes += 1
    report(4, successes >= 18,
           f"max-probe H <= 0.5 in {successes}/20 trials (need >= 18)")


def test_criterion_5_grid_stability_table():
    path = next((p for p in GRID_STABILITY_PATHS if os.path.exists(p)), None)
    if path is None:
        print("criterion  5: SKIP — grid_stability dataset not present")
        pytest.skip("grid_stability dataset not present")
    X, y, d = load_csv(path)
    inst = RlmInstance(X=X, y=y, loss=LossKind.LOGISTIC,
                       reg=RegularizerKind.L2_SQUARED, kappa=0.5)
    q = int(10 * math.sqrt(inst.n))
    cfg = TrainConfig(max_iters=300, grad_tol=1e-6)
    hs = []
    for trial in range(3):
        cs = uniform_sample(inst, q, seed=trial)
        beta_hat, _ = train(inst, cfg, cs)
        hs.append(approximation_error(inst, cs, beta_hat))
    mean_h = float(np.mean(hs))
    report(5, 0.0 <= mean_h <= 0.06, f"mean H(beta_C) = {mean_h:.4f} in [0, 0.06]")


def test_criterion_6_two_cluster_witness():
    kappa, gamma = 0.5, 0.4
    frozen = 0.6475469901086592
    vals = []
    for n in (10**4, 10**5, 10**6, 10**7):
        inst = adv.gen_two_cluster(n, kappa, gamma)
        c = max(1, round(float(n) ** (1.0 - kappa - gamma)))
        b0 = adv.beta0(n, gamma)
        vals.append(adv.two_cluster_H(inst, c, n / c, b0))
    h6 = vals[2]  # n = 10^6
    ok = (abs(h6 - frozen) <= 1e-9 and h6 > 0.5
          and all(a <= b for a, b in zip(vals, vals[1:])))
    report(6, ok, f"H(beta0) = {h6:.12f} (frozen {frozen}), "
                  f"nondecreasing over n: {[f'{v:.3f}' for v in vals]}")


def test_criterion_7_circle_witness():
    kappa, gamma, k = 0.1, 0.2, 4
    frozen = 0.8388274972213771

    def circle_h_at(n):
        inst = adv.gen_circle(n, kappa=kappa)
        C = np.arange(k) * (n // k)
        U = np.full(k, n / k)
        chunk = adv.find_chunk(n, k, C)
        h = adv.chunk_hypothesis(
            chunk, adv.default_beta_norm(n, gamma, k, inst.lam))
        return inst, C, U, h

    inst, C, U, h = circle_h_at(10**7)
    h_big = adv.circle_H(inst, C, U, h)

    # exactness cross-check against the materialized 3-d instance
    inst32, C32, U32, h32 = circle_h_at(32)
    flat = materialize_circle(inst32)
    cs32 = WeightedCoreset(indices=C32, weights=U32)
    brute = brute_force_H(flat, cs32, h32)
    exact_ok = abs(adv.circle_H(inst32, C32, U32, h32) - brute) <= 1e-10

    ratios = []
    for n in (10**5, 10**6, 10**7):
        inst_n, C_n, U_n, h_n = circle_h_at(n)
        ratios.append(adv.lemma_ratios(inst_n, C_n, U_n, h_n))
    r1s, r2s = zip(*ratios)
    decreasing = all(a > b for a, b in zip(r1s, r1s[1:])) and \
        all(a > b for a, b in zip(r2s, r2s[1:]))

    ok = abs(h_big - frozen) <= 1e-9 and h_big >= 0.5 and exact_ok and decreasing
    report(7, ok, f"H(beta_A) = {h_big:.12f} (frozen {frozen}), n=32 "
                  f"brute-force match {exact_ok}, r1/r2 decreasing {decreasing}")


def test_criterion_8_geometry_identities():
    rng = np.random.default_rng(808)
    sandwich_ok = True
    for _ in range(100):
        n = int(rng.integers(64, 10**4 + 1))
        k = int(rng.integers(1, 9))
        if n // (2 * k) < 2:
            k = 1
        offset = int(rng.integers(0, n))
        C = (np.arange(k) * (n // k) + offset) % n
        chunk = adv.find_chunk(n, k, C)
        h = adv.chunk_hypothesis(chunk, float(rng.uniform(0.5, 50.0)))
        angles = 2 * np.pi * np.arange(n) / n
        d = point_line_distance(angles - chunk.center_angle, chunk.boundary_angle)
        margin = np.abs(circle_points(n, np.arange(n)) @ h[:2] + h[2])
        norm = np.linalg.norm(h)
        if not (np.all(margin <= d * norm + 1e-9)
                and np.all(margin >= d * norm / 2 - 1e-9)):
            sandwich_ok = False
            break

    theta_i = rng.uniform(-np.pi, np.pi, size=1000)
    theta = rng.uniform(0.01, np.pi / 2, size=1000)
    # coordinate-geometry oracle: distance from (cos t_i, sin t_i) to the
    # vertical chord x = cos(theta)
    coord = np.abs(np.cos(theta_i) - np.cos(theta))
    obs3_ok = np.max(np.abs(point_line_distance(theta_i, theta) - coord)) \
        <= 1e-12

    ks = np.arange(2, 10**4 + 1, dtype=float)
    a, b = np.pi / (4 * ks), np.pi / (2 * ks)
    lhs = 2 * np.sin((a + b) / 2) * np.sin((b - a) / 2)  # cos a - cos b
    taylor_ok = bool(np.all(lhs >= 3 * np.pi**2 / (32 * ks**2) - 1.0 / ks**4))

    ok = sandwich_ok and obs3_ok and taylor_ok
    report(8, ok, f"sandwich {sandwich_ok}, chord-distance formula {obs3_ok}, "
                  f"cosine Taylor bound {taylor_ok}")


def test_criterion_9_solver_correctness():
    rng = np.random.default_rng(909)
    grad_ok = True
    for case in range(100):
        reg = list(RegularizerKind)[case % 3]
        inst = random_instance(rng, n=int(rng.integers(5, 80)), d=3,
                               loss=LossKind.LOGISTIC, reg=reg)
        beta = rng.standard_normal(3)
        beta[np.abs(beta) < 1e-3] = 0.5  # keep clear of the L1 kink
        g = weighted_objective_grad(inst, None, beta)[1]
        g_num = np.zeros(3)
        for j in range(3):
            step = 1e-6 * (1 + abs(beta[j]))
            up, dn = beta.copy(), beta.copy()
            up[j] += step
            dn[j] -= step
            g_num[j] = (full_objective(inst, up) - full_objective(inst, dn)) / (2 * step)
        scale = max(np.linalg.norm(g_num), 1.0)
        if np.linalg.norm(g - g_num) / scale > 1e-5:
            grad_ok = False
            break

    sym = RlmInstance(X=np.array([[1.0, 2.0], [1.0, 2.0]]),
                      y=np.array([1.0, -1.0]), loss=LossKind.LOGISTIC,
                      reg=RegularizerKind.L2_SQUARED, kappa=0.5)
    beta_sym, _ = train(sym, TrainConfig())
    sym_ok = float(np.linalg.norm(beta_sym)) <= 1e-6

    inst = random_instance(rng, n=200, d=4)
    cfg = TrainConfig(max_iters=60, grad_tol=1e-12)
    beta_full, trace_full = train(inst, cfg)
    ident = WeightedCoreset(indices=np.arange(200), weights=np.ones(200))
    beta_cs, trace_cs = train(inst, cfg, ident)
    ident_ok = np.array_equal(beta_full, beta_cs) and \
        trace_full.objectives == trace_cs.objectives

    ok = grad_ok and sym_ok and ident_ok
    report(9, ok, f"finite differences {grad_ok}, symmetric optimum {sym_ok}, "
                  f"identity-coreset equality {ident_ok}")


def test_criterion_10_coreset_speedup():
    n, d = 10**5, 10
    q = int(20 * math.sqrt(n))
    X, y, _ = gen_synthetic(n, d, noise=0.1, seed=10)
    inst = RlmInstance(X=X, y=y, loss=LossKind.LOGISTIC,
                       reg=RegularizerKind.L2_SQUARED, kappa=0.5)
    full_opt, _ = train(inst, TrainConfig(max_iters=400, grad_tol=1e-7))
    f_star = full_objective(inst, full_opt)

    wins = 0
    for trial in range(3):
        cs = uniform_sample(inst, q, seed=trial)
        _, trace_c = train(
            inst, TrainConfig(max_iters=300, grad_tol=1e-6), cs)

        # time until the coreset run first reaches the 5% band
        hit = next((i for i, f in enumerate(trace_c.objectives)
                    if f <= 1.05 * f_star), None)
        _, trace_s = train(inst, TrainConfig(
            method=TrainMethod.SGD, epochs=20, batch_size=128,
            learning_rate=0.1, seed=trial))
        sgd_time = trace_s.seconds[-1] if trace_s.seconds else 0.0

        if hit is not None and trace_c.seconds[hit] < sgd_time:
            wins += 1
    report(10, wins >= 2,
           f"coreset within 5% of optimum faster than 20-epoch SGD in "
           f"{wins}/3 trials (need >= 2)")


def test_criterion_11_reservoir_statistics():
    n, q, trials = 20, 5, 10**5
    counts = np.zeros(n, dtype=np.int64)
    for t in range(trials):
        pts = [(np.array([float(i)]), 1.0) for i in range(n)]
        X, *_ = stream_sample(pts, q=q, seed=t)
        counts[X[:, 0].astype(int)] += 1
    p = q / n
    sigma = math.sqrt(trials * p * (1 - p))
    freq_ok = bool(np.all(np.abs(counts - trials * p) <= 3 * sigma))

    rng = np.random.default_rng(1111)
    pts = [(rng.standard_normal(3) * 10, 1.0) for _ in range(500)]
    *_, R, _ = stream_sample(pts, q=25, seed=0)
    batch_max = max(float(np.linalg.norm(x)) for x, _ in pts)
    radius_ok = R == batch_max

    ok = freq_ok and radius_ok
    report(11, ok, f"inclusion frequencies within 3 sigma {freq_ok}, "
                   f"streamed radius equals batch max {radius_ok}")
