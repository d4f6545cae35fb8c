"""Independent reference computations and output checks, numpy only.

Nothing here calls into rlm_coreset: each check recomputes what an output
should be from the inputs and the definitions (F, H, the lower-bound
constructions, the sampler's contract) and returns a list of problems,
empty when the output is right.  Tolerances are relative and far looser
than floating-point reordering (results differ in the last digits across
BLAS thread counts) but far tighter than the perturbations the self-tests
inject.
"""

from __future__ import annotations

import math

import numpy as np

H_RTOL = 1e-8  # H recomputed in another summation order
CONST_RTOL = 1e-12  # lambda, R: one pow / one norm, nothing accumulated
GD_OBJECTIVE_RTOL = 1e-9  # full-data GD vs Newton's F* and the reference GD
SUM_RTOL = 1e-13  # rounding of a sum of n losses, relative to the sum
APPROX_FACTOR = 1.01  # coreset GD and SGD objectives stay within this factor of F*
BLOCK = 1 << 20  # angles summed at once in the circle reference


def close(a, b, rtol) -> bool:
    return abs(a - b) <= rtol * abs(b)


def _mismatch(what, got, want, rtol):
    return [] if close(got, want, rtol) else [f"{what}: got {got!r}, want {want!r}"]


def softplus(z):
    return np.logaddexp(0.0, z)


def max_row_norm(X) -> float:
    return float(np.sqrt(np.max(np.einsum("ij,ij->i", X, X))))


# ---------------------------------------------------------------------------
# logistic + squared-l2 objective: F(b) = sum softplus(-y x.b) + lam R^2 |b|^2
# ---------------------------------------------------------------------------


def logistic_l2sq_objective(X, y, lam, R, beta) -> float:
    return math.fsum(softplus(-y * (X @ beta))) + lam * R * R * float(beta @ beta)


def newton_logistic_l2sq(X, y, lam, R):
    """Minimise F by damped Newton steps; returns (F*, |beta*|)."""
    c = 2.0 * lam * R * R
    beta = np.zeros(X.shape[1])
    f = logistic_l2sq_objective(X, y, lam, R, beta)
    for _ in range(50):
        z = -y * (X @ beta)
        s = 0.5 * (1.0 + np.tanh(0.5 * z))  # sigmoid(z) without overflow
        grad = -(X.T @ (y * s)) + c * beta
        hess = (X.T * (s * (1.0 - s))) @ X + c * np.eye(X.shape[1])
        step = np.linalg.solve(hess, grad)
        t = 1.0
        while True:
            cand = beta - t * step
            f_new = logistic_l2sq_objective(X, y, lam, R, cand)
            if f_new <= f or t < 1e-12:
                break
            t *= 0.5
        done = np.linalg.norm(t * step) <= 1e-15 * max(1.0, np.linalg.norm(beta))
        beta, f = cand, min(f, f_new)
        if done:
            break
    return f, float(np.linalg.norm(beta))


def armijo_gd_logistic_l2sq(X, y, lam, R, iters, grad_tol=1e-6, c=1e-4, shrink=0.5):
    """F after ``iters`` steps of gradient descent from 0 with Armijo
    backtracking (sufficient decrease c, step halved until accepted, each
    iteration starting from twice the last accepted step, stop once the
    gradient norm is at most grad_tol): what the CLI's documented
    full-batch method reaches in that budget, independent of its code."""
    cr = 2.0 * lam * R * R
    beta = np.zeros(X.shape[1])
    f = logistic_l2sq_objective(X, y, lam, R, beta)
    step = 1.0
    for _ in range(iters):
        z = -y * (X @ beta)
        g = -(X.T @ (y * 0.5 * (1.0 + np.tanh(0.5 * z)))) + cr * beta
        gg = float(g @ g)
        if math.sqrt(gg) <= grad_tol:
            break
        step *= 2.0
        while True:
            cand = beta - step * g
            f_new = logistic_l2sq_objective(X, y, lam, R, cand)
            if f_new <= f - c * step * gg:
                break
            step *= shrink
        beta, f = cand, f_new
    return f


def parse_fields(stdout: str) -> dict:
    """'k=v k=v' tokens of the CLI's last stdout line, values as printed."""
    line = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


def check_gd(fields, f_star, norm_star, mu, f_budget):
    """GD's objective lies between Newton's F* and what the reference GD
    reaches in the same iteration budget (``f_budget``), each to
    GD_OBJECTIVE_RTOL; 20 iterations leave anywhere from rounding to about
    5e-9 relative above F*, depending on the data.  Its |beta| is |beta*|
    to within what its objective gap allows: F is mu-strongly convex, so
    |beta - beta*|^2 <= 2 (F(beta) - F*) / mu."""
    f, norm = float(fields["final_objective"]), float(fields["beta_norm"])
    slack = math.sqrt(2.0 * (max(f - f_star, 0.0) + SUM_RTOL * f_star) / mu)
    problems = []
    tol = GD_OBJECTIVE_RTOL * f_star
    if not (f_star - tol <= f <= max(f_budget, f_star) + tol):
        problems.append(f"GD objective {f!r} outside [F*={f_star!r}, "
                        f"reference GD's {f_budget!r}]")
    if abs(norm - norm_star) > slack:
        problems.append(f"GD |beta| {norm!r} vs Newton |beta*| {norm_star!r}: "
                        f"further apart than {slack:.3g}")
    return problems


def check_near_optimum(fields, f_star, what):
    f = float(fields["final_objective"])
    if not (f_star * (1.0 - 1e-12) <= f <= APPROX_FACTOR * f_star):
        return [f"{what} objective {f!r} outside [F*, {APPROX_FACTOR} F*], F*={f_star!r}"]
    return []


def check_hinge_below_zero_start(fields, n):
    """Hinge loss is 1 at margin 0 and the regularizer is 0 at beta=0: F(0)=n."""
    f = float(fields["final_objective"])
    if not (math.isfinite(f) and f < n and math.isfinite(float(fields["beta_norm"]))):
        return [f"hinge/l1 objective {f!r} not below F(0)={n}"]
    return []


# ---------------------------------------------------------------------------
# coresets and H
# ---------------------------------------------------------------------------


def check_coreset_doc(doc, n, q, kappa, R):
    """Contract of a uniform coreset document: q draws in range, weights n/q
    summing to exactly n, and the instance constants lambda=n^kappa, R of the
    CLI's default logistic loss and squared-l2 regularizer."""
    problems = []
    idx = np.asarray(doc["indices"])
    w = np.asarray(doc["weights"], dtype=float)
    if doc["n"] != n or doc["q"] != q or len(idx) != q or len(w) != q:
        problems.append(f"sizes n={doc['n']} q={doc['q']} len={len(idx)}/{len(w)}, "
                        f"want n={n} q={q}")
    if len(idx) and (idx.min() < 0 or idx.max() >= n):
        problems.append("coreset index out of range")
    if math.fsum(w) != n:
        problems.append(f"weights sum to {math.fsum(w)!r}, not exactly n={n}")
    if len(w) and not np.allclose(w, n / q, rtol=1e-12, atol=0.0):
        problems.append("weights are not n/q")
    problems += _mismatch("lambda", doc["lambda"], float(n) ** kappa, CONST_RTOL)
    problems += _mismatch("R", doc["R"], R, CONST_RTOL)
    if (doc["kappa"], doc["loss"], doc["reg"]) != (kappa, "logistic", "l2_squared"):
        problems.append(f"recorded kappa/loss/reg {doc['kappa']}/{doc['loss']}/{doc['reg']}")
    return problems


def check_sample_stdout(fields, doc):
    want = {"q": doc["q"], "lambda": doc["lambda"], "R": doc["R"]}
    got = {"q": int(fields["q"]), "lambda": float(fields["lambda"]), "R": float(fields["R"])}
    return [] if got == want else [f"printed {got} but the coreset records {want}"]


def h_values(X, y, lam, R, indices, weights, betas):
    """H(beta) = |F - F_C| / F for every probe, logistic + squared l2,
    computed for blocks of 16 probes at once."""
    n = X.shape[0]
    idx = np.asarray(indices)
    w = np.asarray(weights, dtype=float)
    Xc, yc = X[idx], y[idx]
    share = math.fsum(w) / n
    out = []
    for lo in range(0, len(betas), 16):
        B = np.asarray(betas[lo:lo + 16], dtype=float)
        reg = lam * R * R * np.einsum("kj,kj->k", B, B)
        full = softplus(-y[:, None] * (X @ B.T)).sum(axis=0) + reg
        core = w @ softplus(-yc[:, None] * (Xc @ B.T)) + share * reg
        out.append(np.abs(full - core) / full)
    return np.concatenate(out)


def check_verify_report(report, h_ref, n, weight_sum):
    problems = _mismatch("max_H", report["max_H"], float(np.max(h_ref)), H_RTOL)
    problems += _mismatch("mean_H", report["mean_H"], float(np.mean(h_ref)), H_RTOL)
    if report["num_probes"] != len(h_ref) or report["n"] != n:
        problems.append(f"report covers {report['num_probes']} probes, n={report['n']}")
    if report["weight_sum"] != weight_sum or report["weight_sum_ok"] is not True:
        problems.append(f"weight_sum {report['weight_sum']!r} ok={report['weight_sum_ok']}")
    return problems


def check_sweep_rows(rows, sizes, trials):
    """The sweep CSV has one finite, nonnegative H per (size, trial)."""
    want = [(q, t) for q in sizes for t in range(trials)]
    got = [(int(r["size"]), int(r["trial"])) for r in rows]
    problems = [] if got == want else [f"sweep rows {got}, want {want}"]
    for r in rows:
        h = float(r["H"])
        if not (math.isfinite(h) and h >= 0.0):
            problems.append(f"sweep H {r['H']} at size {r['size']}")
    return problems


def check_samples_agree(doc_a, doc_b):
    keys = ("n", "q", "seed", "indices", "weights", "R", "lambda")
    diff = [k for k in keys if doc_a[k] != doc_b[k]]
    return [f"CSV and svmlight samples differ in {diff}"] if diff else []


def check_reservoir(result, X, y, q):
    """A reservoir of q distinct input rows with their labels, weights n/q,
    the stream's length n and the largest row norm R."""
    points, labels, weights, R, n = result
    problems = []
    if n != len(y) or len(points) != min(q, n):
        problems.append(f"reservoir n={n} kept={len(points)}, want n={len(y)} kept={min(q, n)}")
    where = {row.tobytes(): i for i, row in enumerate(X)}
    rows = [where.get(np.asarray(p, dtype=float).tobytes(), -1) for p in points]
    if min(rows, default=0) < 0 or len(set(rows)) != len(rows):
        problems.append("reservoir holds rows that are not distinct input rows")
    elif not np.array_equal(labels, y[rows]):
        problems.append("reservoir labels do not match their rows")
    if not np.all(weights == (len(y) / q if len(y) > q else 1.0)):
        problems.append("reservoir weights are not n/q")
    problems += _mismatch("reservoir R", R, max_row_norm(X), CONST_RTOL)
    return problems


# ---------------------------------------------------------------------------
# lower-bound instances
# ---------------------------------------------------------------------------


def two_cluster_reference(n, kappa, gamma):
    """Closed form of the two-cluster witness: count_a points at +1 and
    count_b = round(lambda n^(gamma/2)) at -1, all labelled +1; a coreset of
    c = round(n^(1-kappa-gamma)) points of weight n/c inside the big cluster;
    hypothesis beta0 = n^(gamma/4); logistic loss, R = 1."""
    lam = float(n) ** kappa
    count_b = round(lam * float(n) ** (gamma / 2.0))
    count_a = n - count_b
    c = max(1, round(n ** (1.0 - kappa - gamma)))
    b0 = float(n) ** (gamma / 4.0)
    loss_a, loss_b = math.log1p(math.exp(-b0)), b0 + math.log1p(math.exp(-b0))
    reg = lam * b0 * b0
    full = count_a * loss_a + count_b * loss_b + reg
    core = n * loss_a + reg  # c points of weight n/c: total weight n
    return {"lambda": lam, "count_a": count_a, "count_b": count_b, "c": c,
            "beta0": b0, "H": abs(full - core) / full}


def check_two_cluster(report, ref):
    problems = []
    for key in ("count_a", "count_b", "c"):
        if report[key] != ref[key]:
            problems.append(f"two-cluster {key} {report[key]} want {ref[key]}")
    for key in ("lambda", "beta0"):
        problems += _mismatch(f"two-cluster {key}", report[key], ref[key], CONST_RTOL)
    return problems + _mismatch("two-cluster H", report["H"], ref["H"], H_RTOL)


def circle_reference(n, kappa, gamma):
    """The circle witness by direct summation over all n angles, in blocks.

    k = max(2, round(n^(0.2-gamma) / lambda^0.2)) evenly spaced coreset
    points of weight n/k (the CLI's default constant c = 1); the chunk is
    the middle n//(4k) points of the first coreset-free window of n//(2k)
    points; the hypothesis (bx, by, bias) has its decision line through the
    two points next to the chunk and norm sqrt(n^(1-gamma)/(k lambda));
    R^2 = 2."""
    lam = float(n) ** kappa
    k = max(2, round(n ** (0.2 - gamma) / lam ** 0.2))
    idx = (np.arange(k) * (n // k)) % n
    window, length = n // (2 * k), max(n // (4 * k), 1)
    # the first free window starts at 0 or right after a coreset point
    starts = sorted({0} | {(int(i) + 1) % n for i in idx})
    window_start = next(s for s in starts if all((int(i) - s) % n >= window for i in idx))
    start = (window_start + (window - length) // 2) % n
    norm = math.sqrt(float(n) ** (1.0 - gamma) / (k * lam))
    m = 2.0 * math.pi * (start + (length - 1) / 2.0) / n
    phi = math.pi * (length + 1) / n
    h = np.array([-math.cos(m), -math.sin(m), math.cos(phi)])
    h *= norm / np.linalg.norm(h)

    def losses(theta):
        return softplus(-(h[0] * np.cos(theta) + h[1] * np.sin(theta) + h[2]))

    loss_sum = math.fsum(
        float(np.sum(losses(2.0 * np.pi * np.arange(lo, min(lo + BLOCK, n)) / n)))
        for lo in range(0, n, BLOCK)
    )
    w = np.full(k, n / k)
    core_loss = float(w @ losses(2.0 * np.pi * idx / n))
    hh = float(h @ h)
    reg = 2.0 * lam * hh
    return {
        "lambda": lam, "k": k, "beta_norm": norm,
        "chunk": {"start": start, "length": length,
                  "window_start": window_start, "window_length": window},
        "H": abs(loss_sum + reg - (core_loss + math.fsum(w) / n * reg)) / (loss_sum + reg),
        "r1": lam * hh / loss_sum,
        "r2": core_loss / loss_sum,
    }


def check_circle(report, ref):
    problems = []
    if report["k"] != ref["k"] or report["chunk"] != ref["chunk"]:
        problems.append(f"circle k/chunk {report['k']} {report['chunk']} "
                        f"want {ref['k']} {ref['chunk']}")
    for key in ("lambda", "beta_norm"):
        problems += _mismatch(f"circle {key}", report[key], ref[key], CONST_RTOL)
    for key in ("H", "r1", "r2"):
        problems += _mismatch(f"circle {key}", report[key], ref[key], H_RTOL)
    return problems
