"""Command-line entry point.

Subcommands: sample, verify, sweep, adversary, train, bench.
Exit codes: 0 success, 2 input error, 3 domain error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

import numpy as np

from . import adversary, data_io, sampling, sensitivity, solver
from .errors import (
    EXIT_INPUT,
    PREFIXES,
    InvalidParameterError,
    NonFiniteError,
    RlmError,
    SchemaMismatchError,
)
from .model import (
    LossKind,
    RegularizerKind,
    RlmInstance,
    WeightedCoreset,
    approximation_error,
    approximation_errors,
    check_eps,
    check_weight_sum,
)

EXIT_OK = 0

_LOSSES = {"logistic": LossKind.LOGISTIC, "hinge": LossKind.HINGE}
_REGS = {
    "l1": RegularizerKind.L1,
    "l2": RegularizerKind.L2,
    "l2sq": RegularizerKind.L2_SQUARED,
}
# the keys of a --format synthetic spec and their defaults
_SYNTHETIC = {"n": 1000, "d": 2, "margin": 0.0, "noise": 0.1, "seed": 0}


def _add_dataset_args(p):
    p.add_argument("--input", required=True,
                   help="dataset path, or a key=value spec when --format synthetic")
    p.add_argument("--format", choices=["csv", "svmlight", "synthetic"], default="csv")
    p.add_argument("--label-column", default=None, help="CSV label column (default: last)")
    p.add_argument("--loss", choices=sorted(_LOSSES), default="logistic")
    p.add_argument("--reg", choices=sorted(_REGS), default="l2sq")
    p.add_argument("--kappa", type=float, default=0.5)
    p.add_argument("--lambda-scale", type=float, default=1.0)


def _add_solver_args(p):
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--grad-tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", default=None)


def _synthetic_spec(text: str) -> dict:
    """The gen_synthetic arguments of a comma-separated key=value spec, each
    key one of _SYNTHETIC's and converted to the type of its default."""
    spec = dict(_SYNTHETIC)
    for tok in filter(None, text.split(",")):
        key, sep, value = tok.partition("=")
        if not sep or key not in _SYNTHETIC:
            raise ValueError(f"synthetic spec token {tok!r} is not key=value with key "
                             f"in {', '.join(_SYNTHETIC)}")
        spec[key] = type(_SYNTHETIC[key])(value)
    return spec


def _load_instance(args) -> RlmInstance:
    if args.format == "synthetic":
        X, y, _ = data_io.gen_synthetic(**_synthetic_spec(args.input))
    elif args.format == "svmlight":
        X, y, _ = data_io.load_svmlight(args.input)
    else:
        X, y, _ = data_io.load_csv(args.input, label_column=args.label_column)
    return RlmInstance(
        X=X, y=y, loss=_LOSSES[args.loss], reg=_REGS[args.reg],
        kappa=args.kappa, lambda_scale=args.lambda_scale,
    )


def _settings(inst) -> dict:
    """The settings a coreset document records, in the order they are checked."""
    return {"loss": inst.loss.value, "reg": inst.reg.value, "kappa": inst.kappa,
            "lambda": inst.lam, "R": inst.R}


def _coreset_payload(args, n, settings, cs):
    return {
        "n": n,
        "q": cs.size,
        "seed": args.seed,
        "rng": sampling.RNG_ALGORITHM,
        "mode": sampling.SampleMode.IID_WITH_REPLACEMENT.value,
        "indices": cs.indices.tolist(),
        "weights": cs.weights.tolist(),
        **settings,
    }


def _coreset_from_doc(doc, inst) -> WeightedCoreset:
    """The coreset a document records, refused unless it fits the instance:
    the same n and, where recorded, the same loss, regularizer, kappa,
    lambda and R, with every index in [0, n)."""
    missing = [key for key in ("n", "indices", "weights") if key not in doc]
    if missing:
        raise SchemaMismatchError(f"coreset document has no {', '.join(missing)}")
    if doc["n"] != inst.n:
        raise InvalidParameterError(
            f"coreset was built for n={doc['n']} but dataset has n={inst.n}"
        )
    # floats round-trip JSON exactly, so a recorded setting must match bit for bit
    for key, value in _settings(inst).items():
        if key in doc and doc[key] != value:
            raise SchemaMismatchError(
                f"coreset was built with {key}={doc[key]!r} but the instance has {value!r}"
            )
    indices = _doc_list(doc, "indices", "i", "integers")
    if indices.size and (indices.min() < 0 or indices.max() >= inst.n):
        raise SchemaMismatchError(f"coreset indices must lie in [0, {inst.n})")
    weights = _doc_list(doc, "weights", "iuf", "numbers")
    return WeightedCoreset(indices=indices, weights=weights.astype(float))


def _doc_list(doc, key: str, kinds: str, what: str) -> np.ndarray:
    """doc[key] as a 1-d array, refused unless it is a flat list whose
    elements numpy reads as one of the dtype kinds."""
    arr = np.asarray(doc[key])
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in kinds):
        raise SchemaMismatchError(f"coreset {key} must be a list of {what}")
    return arr


def cmd_sample(args) -> int:
    inst = _load_instance(args)
    profile = sensitivity.sensitivity_upper_bound(inst)
    s_total = sensitivity.total_sensitivity_default(inst.n, inst.lam)
    # computed even under --size, so that --epsilon and --delta are checked
    q = sensitivity.sample_size(s_total, profile.delta_vc, args.epsilon, args.delta, inst.n)
    if args.size is not None:
        q = args.size
    if q >= inst.n:
        asked = "--size" if args.size is not None else "required sample size"
        print(f"warning: {asked} {q} is at least n={inst.n}; using the full dataset",
              file=sys.stderr)
    cs = sampling.uniform_sample(inst, q, args.seed)
    n, settings = inst.n, _settings(inst)
    del inst  # X goes before the document's lists are built
    data_io.write_coreset(args.output, _coreset_payload(args, n, settings, cs))
    print(f"q={cs.size} S_prime={s_total!r} lambda={settings['lambda']!r} R={settings['R']!r}")
    return EXIT_OK


def _betas_from_doc(doc, d: int) -> np.ndarray:
    """The (k, d) probe coefficients of a betas document, refused unless it is
    an object whose "betas" is a non-empty list of length-d numeric lists."""
    betas = doc.get("betas") if isinstance(doc, dict) else None
    try:
        arr = np.asarray(betas) if isinstance(betas, list) else None
    except ValueError:  # ragged rows
        arr = None
    if arr is None or arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] != d \
            or arr.dtype.kind not in "iuf":
        raise SchemaMismatchError(
            f'a betas file must hold {{"betas": [[...], ...]}}, a non-empty list '
            f"of lists of {d} numbers"
        )
    return arr.astype(float)


def _probe_betas(spec: str, inst, cs, seed: int) -> np.ndarray:
    """Expand one --betas spec into a (k, d) array of probe coefficients."""
    if spec == "trained":
        cfg = solver.TrainConfig(seed=seed)
        beta_hat, _ = solver.train(inst, cfg, cs, full_trace=False)
        return beta_hat[None, :]
    if spec.startswith("file:"):
        with open(spec[5:], encoding="utf-8") as fh:
            return _betas_from_doc(json.load(fh), inst.d)
    if spec.startswith("random:"):
        parts = spec.split(":")
        if len(parts) > 3:
            raise ValueError(f"--betas {spec!r} is not of the form random:K[:max-norm]")
        k = int(parts[1])
        max_norm = float(parts[2]) if len(parts) > 2 else (
            100.0 / inst.R if inst.R > 0 else 100.0
        )
        if k < 1 or not (0.0 < max_norm < math.inf):
            raise InvalidParameterError(
                f"--betas {spec!r} needs K >= 1 and a finite positive max-norm"
            )
        rng = np.random.default_rng(seed)
        dirs = rng.standard_normal((k, inst.d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        norms = np.geomspace(1e-2, max_norm, k)
        return norms[:, None] * dirs
    raise ValueError(f"unknown --betas spec {spec!r}")


def cmd_verify(args) -> int:
    check_eps(args.epsilon)  # before any data is loaded
    inst = _load_instance(args)
    # the parsed document is dropped here, before the H pass
    cs = _coreset_from_doc(data_io.read_coreset(args.coreset), inst)
    betas = np.concatenate([_probe_betas(spec, inst, cs, args.seed) for spec in args.betas])
    errors = approximation_errors(inst, cs, betas)
    weight_ok = check_weight_sum(cs, inst.n, args.epsilon)
    report = {
        "args": _flag_dict(args),
        "n": inst.n,
        "coreset_size": cs.size,
        "num_probes": len(errors),
        "max_H": float(np.max(errors)),
        "mean_H": float(np.mean(errors)),
        "argmax_probe": int(np.argmax(errors)),
        "H_quartiles": np.quantile(errors, [0.0, 0.25, 0.5, 0.75, 1.0]).tolist(),
        "weight_sum": cs.weight_sum(),
        "weight_sum_ok": bool(weight_ok),
    }
    if args.report:
        data_io.write_report(args.report, report)
    print(f"max_H={report['max_H']!r} mean_H={report['mean_H']!r} "
          f"weight_sum_ok={weight_ok}")
    return EXIT_OK


def _parse_sizes(spec: str, n: int):
    try:
        if ":" not in spec:
            return [int(tok) for tok in spec.split(",") if tok]
        rng_part, kind, factor = spec.split(":")
        lo_s, hi_s = rng_part.split("..")
        lo, hi, f = int(lo_s), n if hi_s == "n" else int(hi_s), float(factor)
    except ValueError:
        raise ValueError(f"--sizes {spec!r} is neither a comma list of sizes "
                         f"nor of the form LO..HI:geometric:FACTOR") from None
    if kind != "geometric":
        raise ValueError(f"unknown size progression {kind!r}")
    if not (math.isfinite(f) and f > 1.0):
        raise InvalidParameterError(f"geometric factor must be finite and > 1, got {factor!r}")
    if lo < 1:
        raise InvalidParameterError(f"geometric sizes must start at 1 or more, got {lo}")
    sizes, cur = [], float(lo)
    while round(cur) <= hi:
        q = int(round(cur))
        if not sizes or q != sizes[-1]:
            sizes.append(q)
        cur *= f
    return sizes


def cmd_sweep(args) -> int:
    inst = _load_instance(args)
    sizes = _parse_sizes(args.sizes, inst.n)
    if not sizes:
        raise ValueError(f"--sizes {args.sizes!r} gives no sizes")
    if args.trials < 1:
        raise InvalidParameterError(f"--trials must be at least 1, got {args.trials}")
    rows = []
    for q in sizes:
        per_size = []
        for trial in range(args.trials):
            seed = args.seed + trial
            t0 = time.perf_counter()
            cs = sampling.uniform_sample(inst, q, seed)
            beta_hat, _ = solver.train(inst, solver.TrainConfig(seed=seed), cs,
                                       full_trace=False)
            h_val = approximation_error(inst, cs, beta_hat)
            elapsed = time.perf_counter() - t0
            rows.append((q, trial, h_val, elapsed))
            per_size.append(h_val)
        print(f"size={q} mean_H={float(np.mean(per_size))!r} "
              f"std_H={float(np.std(per_size))!r}")
    with open(args.report, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["size", "trial", "H", "seconds"])
        for row in rows:
            writer.writerow([row[0], row[1], repr(row[2]), repr(row[3])])
    return EXIT_OK


def cmd_adversary(args) -> int:
    if not (0.0 < args.gamma < 1.0):
        raise InvalidParameterError(f"gamma must lie in (0, 1), got {args.gamma!r}")
    if not (0.0 < args.c < math.inf):
        raise InvalidParameterError(f"--c must be positive and finite, got {args.c!r}")
    if args.kind == "two-cluster":
        inst = adversary.gen_two_cluster(
            args.n, args.kappa, args.gamma, _LOSSES[args.loss]
        )
        b0 = adversary.beta0(args.n, args.gamma)
        c = max(1, int(round(args.n ** (1.0 - args.kappa - args.gamma))))
        h_val = adversary.two_cluster_H(inst, c=c, u=inst.n / c, beta=b0)
        report = {
            "args": _flag_dict(args),
            "instance": "two-cluster",
            "count_a": inst.count_a,
            "count_b": inst.count_b,
            "lambda": inst.lam,
            "c": c,
            "beta0": b0,
            "H": h_val,
            "prob_sample_in_a": adversary.prob_sample_misses_b(inst, c),
        }
    else:
        inst = adversary.gen_circle(args.n, args.kappa, _LOSSES[args.loss])
        # a computed k past n is refused below, so clamping it there keeps
        # an overflowing --c from reaching int()
        k = args.k if args.k is not None else max(
            2,
            int(round(min(args.c * args.n ** (0.2 - args.gamma) / inst.lam ** 0.2,
                          args.n))),
        )
        adversary.chunk_window(args.n, k)  # before np.arange(k) allocates
        indices = (np.arange(k) * (args.n // k)) % args.n
        weights = np.full(k, args.n / k)
        chunk = adversary.find_chunk(args.n, k, indices)
        norm = args.norm_override if args.norm_override is not None else (
            adversary.default_beta_norm(args.n, args.gamma, k, inst.lam)
        )
        h = adversary.chunk_hypothesis(chunk, norm)
        h_val, r1, r2 = adversary.circle_witness(inst, indices, weights, h)
        report = {
            "args": _flag_dict(args),
            "instance": "circle",
            "lambda": inst.lam,
            "k": k,
            "chunk": {
                "start": chunk.start,
                "length": chunk.length,
                "window_start": chunk.window_start,
                "window_length": chunk.window_length,
            },
            "beta_norm": norm,
            "H": h_val,
            "r1": r1,
            "r2": r2,
        }
    if args.report:
        data_io.write_report(args.report, report)
    print(f"H={report['H']!r}")
    return EXIT_OK


def _write_trace(path, trace: solver.TrainTrace) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "seconds", "objective"])
        for it, (sec, obj) in enumerate(zip(trace.seconds, trace.objectives)):
            writer.writerow([it, repr(sec), repr(obj)])


def _train_config(args, method: solver.TrainMethod) -> solver.TrainConfig:
    return solver.TrainConfig(
        method=method,
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        max_iters=args.max_iters,
        grad_tol=args.grad_tol,
        seed=args.seed,
    )


def cmd_train(args) -> int:
    inst = _load_instance(args)
    cs = None
    if args.coreset:
        cs = _coreset_from_doc(data_io.read_coreset(args.coreset), inst)
    cfg = _train_config(args, solver.TrainMethod(args.method))
    beta_hat, trace = solver.train(inst, cfg, cs, full_trace=bool(args.trace))
    # under l1 a finite F allows a beta whose 2-norm overflows
    with np.errstate(over="ignore"):
        beta_norm = float(np.linalg.norm(beta_hat))
    if not math.isfinite(beta_norm):
        raise NonFiniteError("the trained beta's 2-norm is not finite")
    if args.trace:
        _write_trace(args.trace, trace)
    print(f"final_objective={trace.final_objective!r} beta_norm={beta_norm!r}")
    return EXIT_OK


def cmd_bench(args) -> int:
    inst = _load_instance(args)
    q = args.size if args.size is not None else int(round(20 * np.sqrt(inst.n)))
    cs = sampling.uniform_sample(inst, q, args.seed)
    full_trace = bool(args.trace)
    _, trace_sgd = solver.train(inst, _train_config(args, solver.TrainMethod.SGD),
                                full_trace=full_trace)
    _, trace_gd = solver.train(inst, _train_config(args, solver.TrainMethod.FULL_BATCH),
                               cs, full_trace=full_trace)
    if args.trace:
        _write_trace(args.trace + ".full_sgd.csv", trace_sgd)
        _write_trace(args.trace + ".coreset_gd.csv", trace_gd)
    print(f"full_sgd: seconds={trace_sgd.seconds[-1]!r} "
          f"objective={trace_sgd.final_objective!r}")
    print(f"coreset_gd(q={q}): seconds={trace_gd.seconds[-1]!r} "
          f"objective={trace_gd.final_objective!r}")
    return EXIT_OK


def _flag_dict(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlm-coreset",
        description="Uniform-sampling coresets for regularized loss minimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a uniform coreset and write it as JSON")
    _add_dataset_args(p)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--size", type=int, default=None, help="override the computed q")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="probe H over a set of hypotheses")
    _add_dataset_args(p)
    p.add_argument("--coreset", required=True)
    p.add_argument("--betas", action="append", default=None,
                   help="'random:K[:max-norm]', 'trained', or 'file:PATH'; repeatable")
    p.add_argument("--epsilon", type=float, default=0.5,
                   help="tolerance for the weight-sum check")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="approximation error vs. sample size")
    _add_dataset_args(p)
    p.add_argument("--sizes", required=True,
                   help="comma list or 'LO..HI:geometric:FACTOR' (HI may be 'n')")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", required=True, help="output CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("adversary", help="evaluate a lower-bound instance")
    p.add_argument("--kind", choices=["two-cluster", "circle"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kappa", type=float, default=0.5)
    p.add_argument("--gamma", type=float, default=0.4)
    p.add_argument("--loss", choices=sorted(_LOSSES), default="logistic")
    p.add_argument("--k", type=int, default=None, help="circle coreset size")
    p.add_argument("--c", type=float, default=1.0,
                   help="constant in the circle coreset-size formula")
    p.add_argument("--norm-override", type=float, default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_adversary)

    p = sub.add_parser("train", help="train on the full data or on a coreset")
    _add_dataset_args(p)
    p.add_argument("--method", choices=["gd", "sgd"], default="gd")
    p.add_argument("--coreset", default=None)
    _add_solver_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("bench", help="time full-data SGD against coreset GD")
    _add_dataset_args(p)
    p.add_argument("--size", type=int, default=None,
                   help="coreset size (default 20*sqrt(n))")
    _add_solver_args(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "betas", None) is None and args.command == "verify":
        args.betas = ["random:100"]
    try:
        if getattr(args, "seed", 0) < 0:  # numpy's generators take no negative seed
            raise InvalidParameterError(f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except RlmError as exc:
        print(f"{PREFIXES[exc.exit_code]}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, MemoryError, ValueError) as exc:  # files and text no class covers
        print(f"{PREFIXES[EXIT_INPUT]}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
