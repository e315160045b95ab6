"""Command-line front door.

Every subcommand prints a machine-readable run record as JSON on stdout
(full round-trip numeric precision) or, with ``--pretty``, a small human
table rounded to 4 significant digits. Exit codes: 0 success, 1 solver
diverged or stopped short of the tolerances it was given, 2 usage or input
errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import data_io, elastic_net, spectral, svm
from .engine import BlockDefinitenessError, solve
from .problems import (Mode, SolverConfig, Status, as_csc, as_dense,
                       load_qp_manifest)

SCHEMA_TAG = "racml/run-record/v1"


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, Status):
        return value.value
    if isinstance(value, Mode):
        return value.value
    return value


def _record(argv, config: dict, seed, wall: float, iterations=None,
            residuals=None, metrics=None, artifacts=None) -> dict:
    return {
        "schema": SCHEMA_TAG,
        "command": list(argv),
        "config": _jsonable(config),
        "seed": seed,
        "wall_seconds": wall,
        "iterations": iterations,
        "residuals": _jsonable(residuals or {}),
        "metrics": _jsonable(metrics or {}),
        "artifacts": _jsonable(artifacts or []),
    }


def _sig4(v):
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def _emit(record: dict, pretty: bool, out: str | None = None) -> None:
    text = json.dumps(_jsonable(record))
    if out:
        Path(out).write_text(text)
    if pretty:
        flat = {}
        for key in ("seed", "iterations", "wall_seconds"):
            if record.get(key) is not None:
                flat[key] = record[key]
        flat.update(record.get("residuals") or {})
        flat.update({k: v for k, v in (record.get("metrics") or {}).items()
                     if not isinstance(v, (list, dict))})
        width = max((len(k) for k in flat), default=0)
        for k, v in flat.items():
            print(f"{k.ljust(width)}  {_sig4(v)}")
    else:
        print(text)


def _exit_code(status: Status, tolerances_requested: bool) -> int:
    """1 if the run diverged, or stopped short of tolerances it was given."""
    return int(status == Status.DIVERGED or
               (tolerances_requested and status != Status.CONVERGED))


def _cmd_qp_solve(args, argv) -> int:
    problem = load_qp_manifest(args.manifest)
    config = SolverConfig(
        mode=Mode(args.mode), block_size=min(args.block_size, problem.n),
        beta_penalty=args.beta, max_iters=args.max_iter,
        tol_primal=args.tol_primal, tol_dual=args.tol_dual,
        seed=args.seed, fixed_iterations=args.fixed_iterations)
    start = time.perf_counter()
    result = solve(problem, config)
    wall = time.perf_counter() - start
    record = _record(
        argv, config.__dict__, args.seed, wall,
        iterations=result.iterations,
        residuals={
            "primal": result.primal_residual,
            "dual": result.dual_residual,
            "primal_l1": float(np.abs(result.r).sum()),
        },
        metrics={"status": result.status, "x": result.x, "y": result.y,
                 "unconverged_blocks": result.unconverged_blocks},
        artifacts=[args.out] if args.out else [])
    _emit(record, args.pretty, args.out)
    return _exit_code(result.status, not config.fixed_iterations)


def _unit_sd_columns(X) -> sp.csc_matrix:
    """Sparse X with each column divided by its population standard
    deviation (kept where that is 0). The deviation takes two passes over
    the stored entries, the implicit zeros counted, so X stays sparse."""
    X = as_csc(X)
    n, p = X.shape
    counts = np.diff(X.indptr)
    mean = np.asarray(X.sum(axis=0)).ravel() / n
    dev = X.data - np.repeat(mean, counts)
    stored = np.bincount(np.repeat(np.arange(p), counts), weights=dev * dev,
                         minlength=p)
    sd = np.sqrt((stored + (n - counts) * mean * mean) / n)
    sd[sd == 0.0] = 1.0
    return sp.csc_matrix((X.data / np.repeat(sd, counts), X.indices,
                          X.indptr), shape=(n, p))


def _preprocess(X, center: bool, scale: bool):
    """Center and/or scale X's columns. Centering fills every column, so it
    makes X dense; scaling alone keeps a sparse X sparse."""
    if center:
        X = as_dense(X)
        X = X - X.mean(axis=0)
    if scale and sp.issparse(X):
        return _unit_sd_columns(X)
    if scale:
        X = as_dense(X)
        sd = X.std(axis=0)
        sd[sd == 0.0] = 1.0
        X = X / sd
    return X


def _cmd_en_fit(args, argv) -> int:
    ds = data_io.parse_libsvm(args.data)
    X = _preprocess(ds.X, args.center, args.scale)
    gamma = None if args.gamma == "auto" else float(args.gamma)
    mode = args.mode
    spec = elastic_net.ElasticNetSpec(
        lam=args.lam, alpha=args.alpha, gamma=gamma,
        block_size=args.block_size, iters=args.iters,
        mode=Mode.RP if mode == "rp" else Mode.RAC,
        seed=args.seed, tol=args.tol)
    start = time.perf_counter()
    if mode == "consensus":
        model = elastic_net.consensus_fit(X, ds.y, spec)
    else:
        model = elastic_net.fit(X, ds.y, spec)
    wall = time.perf_counter() - start
    if args.model:
        elastic_net.save_model(model, args.model)
    obj = elastic_net.objective(X, ds.y, model.beta, args.lam, args.alpha)
    record = _record(
        argv,
        {"lambda": args.lam, "alpha": args.alpha, "gamma": model.gamma,
         "block_size": args.block_size, "iters": args.iters, "mode": mode,
         "tol": args.tol, "center": args.center, "scale": args.scale},
        args.seed, wall, iterations=model.iterations,
        residuals={"split_l1": model.residual},
        metrics={"status": model.status, "objective": obj,
                 "nonzeros": int(np.count_nonzero(model.z))},
        artifacts=[args.model] if args.model else [])
    _emit(record, args.pretty)
    return _exit_code(model.status, args.tol is not None)


def _cmd_en_eval(args, argv) -> int:
    model = elastic_net.load_model(args.model)
    ds = data_io.parse_libsvm(args.data, declared_features=model.beta.size)
    start = time.perf_counter()
    metrics = elastic_net.evaluate(model, ds.X, ds.y)
    wall = time.perf_counter() - start
    record = _record(argv, {"model": args.model, "data": args.data},
                     model.spec.seed, wall, metrics=metrics)
    _emit(record, args.pretty)
    return 0


def _cmd_svm_train(args, argv) -> int:
    if args.model:
        svm.model_sidecar(args.model)  # refuse a bad path before training
    ds = data_io.parse_libsvm(args.data, classification=True)
    n = ds.X.shape[0]
    config = svm.default_config(
        n, block_size=args.block_size, seed=args.seed,
        max_iters=args.max_iter, tol_primal=args.tol_primal,
        tol_dual=args.tol_dual, beta=args.beta)
    kernel = svm.KernelSpec(kind=args.kernel, sigma=args.sigma)
    start = time.perf_counter()
    model, diag = svm.train(ds.X, ds.y, args.c, kernel, config,
                            return_diagnostics=True)
    wall = time.perf_counter() - start
    if args.model:
        svm.save_model(model, args.model)
    record = _record(
        argv,
        {"c": args.c, "kernel": args.kernel, "sigma": args.sigma,
         "block_size": config.block_size, "beta": config.beta_penalty,
         "max_iter": args.max_iter, "tol_primal": args.tol_primal,
         "tol_dual": args.tol_dual},
        args.seed, wall, iterations=diag.iterations,
        residuals={"primal": diag.primal_residual, "dual": diag.dual_residual},
        metrics={"status": diag.status, "n_sv": int(model.support_duals.size),
                 "bias": model.bias,
                 "train_accuracy": svm.accuracy(model, ds.X, ds.y),
                 "unconverged_blocks": diag.unconverged_blocks},
        artifacts=[args.model] if args.model else [])
    _emit(record, args.pretty)
    return _exit_code(diag.status, True)


def _cmd_svm_predict(args, argv) -> int:
    model = svm.load_model(args.model)
    ds = data_io.parse_libsvm(
        args.data, declared_features=model.support_points.shape[1],
        classification=args.labels)
    start = time.perf_counter()
    pred = svm.predict(model, ds.X)
    wall = time.perf_counter() - start
    metrics = {"predictions": pred}
    if args.labels:
        metrics["accuracy"] = float(np.mean(pred == ds.y)) * 100.0
    record = _record(argv, {"model": args.model, "data": args.data},
                     None, wall, metrics=metrics)
    _emit(record, args.pretty)
    return 0


def _parse_grid(text: str) -> list[float]:
    values = [float(v) for v in text.split(",") if v.strip()]
    if not values:
        raise ValueError(f"empty grid: {text!r}")
    return values


def _cmd_svm_grid(args, argv) -> int:
    ds = data_io.parse_libsvm(args.data, classification=True)
    text = os.environ.get("RACML_THREADS", "1")
    try:
        threads = int(text)
    except ValueError:
        raise ValueError(
            f"RACML_THREADS must be an integer, got {text!r}") from None
    start = time.perf_counter()
    best, table = svm.grid_search(
        ds.X, ds.y, _parse_grid(args.c_grid), _parse_grid(args.sigma_grid),
        holdout=args.holdout, seed=args.seed, threads=threads)
    wall = time.perf_counter() - start
    record = _record(
        argv,
        {"c_grid": _parse_grid(args.c_grid),
         "sigma_grid": _parse_grid(args.sigma_grid),
         "holdout": args.holdout, "threads": threads},
        args.seed, wall,
        metrics={"best_c": best[0], "best_sigma": best[1], "table": table})
    _emit(record, args.pretty)
    return 0


def _cmd_spectral_certify(args, argv) -> int:
    problem = load_qp_manifest(args.manifest)
    start = time.perf_counter()
    cert = spectral.certify(problem.H, problem.A, args.beta, args.blocks,
                            kron=True if args.kron else None)
    wall = time.perf_counter() - start
    record = _record(argv, {"beta": args.beta, "blocks": args.blocks,
                            "kron": bool(args.kron)},
                     None, wall)
    payload = {**cert.to_json_dict(), "record": record}
    if args.pretty:
        for key in ("n", "m", "p", "beta", "assumption1_ok", "lemma2_ok",
                    "as_ok", "rho_kron"):
            print(f"{key.ljust(14)}  {_sig4(payload[key])}"
                  if payload[key] is not None else f"{key.ljust(14)}  -")
    else:
        print(json.dumps(_jsonable(payload)))
    return 0


def _cmd_gen(args, argv) -> int:
    start = time.perf_counter()
    if args.kind == "regression":
        ds, beta = data_io.gen_regression(
            n=args.n, p=args.p, x_density=args.x_density,
            coef_density=args.coef_density, noise_sd=args.noise_sd,
            seed=args.seed)
        params = {"n": args.n, "p": args.p, "x_density": args.x_density,
                  "coef_density": args.coef_density, "noise_sd": args.noise_sd}
        if args.beta_out:
            Path(args.beta_out).write_text(
                "\n".join(repr(v) for v in beta) + "\n")
    else:
        ds = data_io.gen_blobs(
            n_per_class=args.n_per_class, dim=args.dim,
            center_distance=args.center_distance, seed=args.seed)
        params = {"n_per_class": args.n_per_class, "dim": args.dim,
                  "center_distance": args.center_distance}
    data_io.write_libsvm(ds, args.out)
    wall = time.perf_counter() - start
    artifacts = [args.out]
    if args.kind == "regression" and args.beta_out:
        artifacts.append(args.beta_out)
    record = _record(argv, {"kind": args.kind, "params": params},
                     args.seed, wall,
                     metrics={"rows": ds.X.shape[0],
                              "features": ds.feature_count},
                     artifacts=artifacts)
    _emit(record, args.pretty)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="racml",
        description="Randomized multi-block sweep solver for QP, elastic-net "
                    "regression and SVM, with spectral convergence certificates.")
    sub = parser.add_subparsers(dest="group", required=True)

    def add_pretty(p):
        p.add_argument("--pretty", action="store_true",
                       help="human table (4 significant digits) instead of JSON")

    qp = sub.add_parser("qp", help="quadratic programming").add_subparsers(
        dest="action", required=True)
    q = qp.add_parser("solve", help="solve a QP described by a JSON manifest")
    q.add_argument("--manifest", required=True, help="problem manifest JSON")
    q.add_argument("--mode", choices=["rac", "rp", "cyclic"], default="rac",
                   help="block assembly policy per sweep")
    q.add_argument("--block-size", type=int, default=100,
                   help="variables per block (clamped to n)")
    q.add_argument("--beta", type=float, default=1.0,
                   help="augmented-Lagrangian penalty and dual step")
    q.add_argument("--max-iter", type=int, default=1000, help="sweep budget")
    q.add_argument("--tol-primal", type=float, default=1e-6,
                   help="inf-norm equality tolerance")
    q.add_argument("--tol-dual", type=float, default=1e-6,
                   help="projected stationarity tolerance")
    q.add_argument("--seed", type=int, default=0, help="RNG seed (PCG64)")
    q.add_argument("--fixed-iterations", action="store_true",
                   help="ignore tolerances; run exactly --max-iter sweeps")
    q.add_argument("--out", help="write the run record JSON here as well")
    add_pretty(q)
    q.set_defaults(func=_cmd_qp_solve)

    en = sub.add_parser("elastic-net", help="regression").add_subparsers(
        dest="action", required=True)
    f = en.add_parser("fit", help="fit coefficients on a sparse-text dataset")
    f.add_argument("--data", required=True, help="dataset (sparse text format)")
    f.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="penalty weight")
    f.add_argument("--alpha", type=float, default=1.0,
                   help="l1/l2 mix: 1 = lasso, 0 = ridge")
    f.add_argument("--gamma", default="auto",
                   help="splitting penalty, or 'auto' for lambda (1 when "
                        "lambda is 0)")
    f.add_argument("--iters", type=int, default=10, help="sweep count")
    f.add_argument("--block-size", type=int, default=100,
                   help="coefficients per block")
    f.add_argument("--mode", choices=["rac", "rp", "consensus"], default="rac")
    f.add_argument("--tol", type=float, default=None,
                   help="stop early when ||beta-z||_1 <= tol")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--center", action="store_true", help="center feature columns")
    f.add_argument("--scale", action="store_true",
                   help="scale feature columns to unit deviation")
    f.add_argument("--model", help="write the fitted model JSON here")
    add_pretty(f)
    f.set_defaults(func=_cmd_en_fit)
    e = en.add_parser("eval", help="prediction quality of a saved model")
    e.add_argument("--model", required=True)
    e.add_argument("--data", required=True)
    add_pretty(e)
    e.set_defaults(func=_cmd_en_eval)

    sv = sub.add_parser("svm", help="support vector classification").add_subparsers(
        dest="action", required=True)
    t = sv.add_parser("train", help="train a classifier on +-1 labeled data")
    t.add_argument("--data", required=True)
    t.add_argument("--c", type=float, default=1.0, help="regularization bound")
    t.add_argument("--kernel", choices=["gaussian", "linear"], default="gaussian")
    t.add_argument("--sigma", type=float, default=1.0, help="Gaussian bandwidth")
    t.add_argument("--block-size", type=int, default=None,
                   help="override the size-based default")
    t.add_argument("--beta", type=float, default=None,
                   help="override the 0.1*blocks default penalty")
    t.add_argument("--max-iter", type=int, default=10)
    t.add_argument("--tol-primal", type=float, default=1e-1)
    t.add_argument("--tol-dual", type=float, default=1.0)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--model", help="write the model (JSON + binary sidecar) here")
    add_pretty(t)
    t.set_defaults(func=_cmd_svm_train)
    pr = sv.add_parser("predict", help="classify rows with a saved model")
    pr.add_argument("--model", required=True)
    pr.add_argument("--data", required=True)
    pr.add_argument("--labels", action="store_true",
                    help="data carries labels; report accuracy")
    add_pretty(pr)
    pr.set_defaults(func=_cmd_svm_predict)
    g = sv.add_parser("grid", help="holdout grid check over (C, sigma)")
    g.add_argument("--data", required=True)
    g.add_argument("--c-grid", required=True, help="comma-separated C values")
    g.add_argument("--sigma-grid", required=True,
                   help="comma-separated sigma values")
    g.add_argument("--holdout", type=float, default=0.3,
                   help="holdout fraction of the data")
    g.add_argument("--seed", type=int, default=0)
    add_pretty(g)
    g.set_defaults(func=_cmd_svm_grid)

    spc = sub.add_parser("spectral", help="convergence certificates").add_subparsers(
        dest="action", required=True)
    cert = spc.add_parser("certify",
                          help="enumerate orders and emit the certificate JSON")
    cert.add_argument("--manifest", required=True, help="problem manifest JSON")
    cert.add_argument("--beta", type=float, default=1.0)
    cert.add_argument("--blocks", type=int, required=True,
                      help="number of equal blocks (must divide n)")
    cert.add_argument("--kron", action="store_true",
                      help="force the Kronecker-square check")
    add_pretty(cert)
    cert.set_defaults(func=_cmd_spectral_certify)

    gen = sub.add_parser("gen", help="synthetic datasets").add_subparsers(
        dest="kind", required=True)
    gr = gen.add_parser("regression", help="planted sparse linear model")
    gr.add_argument("--n", type=int, required=True, help="observations")
    gr.add_argument("--p", type=int, required=True, help="features")
    gr.add_argument("--x-density", type=float, default=1.0)
    gr.add_argument("--coef-density", type=float, default=0.1)
    gr.add_argument("--noise-sd", type=float, default=0.0)
    gr.add_argument("--seed", type=int, default=0)
    gr.add_argument("--out", required=True, help="dataset file to write")
    gr.add_argument("--beta-out", help="write the planted coefficients here")
    add_pretty(gr)
    gr.set_defaults(func=_cmd_gen)
    gb = gen.add_parser("blobs", help="two Gaussian clusters, labels +-1")
    gb.add_argument("--n-per-class", type=int, required=True)
    gb.add_argument("--dim", type=int, default=2)
    gb.add_argument("--center-distance", type=float, default=6.0)
    gb.add_argument("--seed", type=int, default=0)
    gb.add_argument("--out", required=True)
    add_pretty(gb)
    gb.set_defaults(func=_cmd_gen)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.func(args, argv)
    except (OSError, ValueError, KeyError, json.JSONDecodeError,
            BlockDefinitenessError, svm.DegenerateSplitError,
            svm.DegenerateModelError) as exc:
        print(f"racml: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
