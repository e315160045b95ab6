"""Elastic-net / LASSO / ridge regression via randomized block sweeps.

The loss (1/2n)||y - X beta||^2 plus penalty lam*(alpha*||.||_1 +
(1-alpha)/2*||.||_2^2) is split through an auxiliary copy z with constraint
beta - z = 0, penalty gamma and dual xi. Coefficient blocks are minimized
with on-demand sub-block Gram assembly (the p x p Gram matrix is never
formed); the z block has a closed-form shrinkage update.

``consensus_fit`` solves the same objective with the classical two-block
consensus splitting (per-sample-group coefficient copies tied to a global
z), as a baseline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .engine import (ResidualPair, _chol_solve, _cholesky, block_system,
                     run_sweeps)
from .problems import (Matrix, Mode, SolverConfig, Status, as_dense,
                       chunk_indices)

# Optional instrumentation: called with the element count of each per-block
# temporary that fit materializes, so tests can bound peak working memory.
_ALLOC_HOOK: Optional[Callable[[int], None]] = None


def set_alloc_hook(hook: Optional[Callable[[int], None]]) -> None:
    global _ALLOC_HOOK
    _ALLOC_HOOK = hook


def _note_alloc(count: int) -> None:
    if _ALLOC_HOOK is not None:
        _ALLOC_HOOK(int(count))


@dataclass(frozen=True)
class ElasticNetSpec:
    """Regression hyperparameters and sweep settings."""

    lam: float
    alpha: float
    gamma: Optional[float] = None  # None resolves to lam, or 1 when lam = 0
    block_size: int = 100
    iters: int = 10
    mode: Mode = Mode.RAC
    seed: int = 0
    tol: Optional[float] = None  # stop early when ||beta - z||_1 <= tol

    def validate(self) -> None:
        # written so that NaN fails every range test
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.gamma is not None and not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        if self.tol is not None and not self.tol >= 0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if Mode(self.mode) not in (Mode.RAC, Mode.RP):
            raise ValueError(f"mode must be rac or rp, got {self.mode}")


@dataclass
class ElasticNetModel:
    """Fitted coefficients with the splitting state they converged to."""

    beta: np.ndarray
    z: np.ndarray
    xi: np.ndarray
    spec: ElasticNetSpec
    gamma: float
    iterations: int
    residual: float  # final ||beta - z||_1
    status: Status = Status.MAX_ITERS


def resolve_gamma(spec: ElasticNetSpec) -> float:
    """The splitting penalty: ``spec.gamma``, else lam, else 1 (lam = 0)."""
    if spec.gamma is not None:
        return spec.gamma
    return spec.lam if spec.lam > 0.0 else 1.0


def soft_threshold(a, b):
    """Negated shrinkage: -(a-b) if b<|a|, a>0; -(a+b) if b<|a|, a<=0; else 0.

    This is the sign convention whose composition with the argument
    (xi - gamma*beta) yields the z minimizer; it is the negation of the
    textbook operator applied to a. Works elementwise on arrays.
    """
    a = np.asarray(a, dtype=float)
    if np.any(np.asarray(b) < 0):
        raise ValueError("threshold b must be >= 0")
    out = -np.sign(a) * np.maximum(np.abs(a) - b, 0.0) + 0.0  # kill -0.0
    if out.ndim == 0:
        return float(out)
    return out


def z_update(beta_i, xi_i, gamma: float, lam: float, alpha: float):
    """Closed-form minimizer of the separable z slice of the Lagrangian.

    Minimizes (xi - gamma*beta) z + gamma/2 z^2 + lam*alpha*|z|
    + lam(1-alpha)/2 z^2 exactly, elementwise.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    a = np.asarray(xi_i, dtype=float) - gamma * np.asarray(beta_i, dtype=float)
    denom = (1.0 - alpha) * lam + gamma
    out = soft_threshold(a, lam * alpha) / denom
    if np.ndim(out) == 0:
        return float(out)
    return out


def objective(X: Matrix, y: np.ndarray, beta: np.ndarray,
              lam: float, alpha: float) -> float:
    """(1/2n)||y - X beta||^2 + lam*(alpha*||beta||_1 + (1-alpha)/2*||beta||_2^2)."""
    n = X.shape[0]
    r = X @ beta - y
    penalty = lam * (alpha * np.sum(np.abs(beta)) +
                     0.5 * (1.0 - alpha) * float(beta @ beta))
    return 0.5 * float(r @ r) / n + penalty


def _checked_inputs(X: Matrix, y) -> tuple[np.ndarray, np.ndarray]:
    """y as floats and c = -X'y/n; refuses an empty X, a y of the wrong
    length, and a non-finite X'y (from a non-finite X, or y in a row X uses)."""
    n, p = X.shape
    if n < 1 or p < 1:
        raise ValueError("X must be non-empty")
    y = np.asarray(y, dtype=float)
    if y.size != n:
        raise ValueError(f"y has length {y.size}, expected {n}")
    c = np.asarray(-(X.T @ y) / n, dtype=float).ravel()
    if not np.all(np.isfinite(c)):
        raise ValueError("X and y must be finite: X'y has non-finite entries")
    return y, c


def _driver_config(spec: ElasticNetSpec, gamma: float, mode: Mode,
                   block_size: int) -> SolverConfig:
    """Driver settings; with ``tol`` None no sweep passes the stopping test."""
    return SolverConfig(
        mode=mode, block_size=block_size, beta_penalty=gamma,
        max_iters=spec.iters, seed=spec.seed, tol_dual=math.inf,
        tol_primal=-math.inf if spec.tol is None else spec.tol)


def fit(X: Matrix, y: np.ndarray, spec: ElasticNetSpec) -> ElasticNetModel:
    """Randomized block-sweep fit of the elastic-net objective.

    Per sweep, each coefficient block solves its exact subsystem

        (X_b'X_b/n + gamma I) beta_b = -(c_b + cross_b - xi_b - gamma z_b)

    with c = -X'y/n and the cross term computed from the running prediction
    X beta (never forming the full Gram matrix); then z is updated in closed
    form and the dual takes one step xi <- xi - gamma (beta - z). Runs
    exactly ``spec.iters`` sweeps, or stops earlier once ||beta - z||_1 falls
    below ``spec.tol`` when a tolerance is configured; the model's
    ``status`` says which (CONVERGED within ``tol``, MAX_ITERS otherwise,
    DIVERGED if the residual blew up). With lam=0 the splitting residual
    vanishes identically after every z-step, so use the fixed-sweep protocol
    there.
    """
    spec.validate()
    n, p = X.shape
    y, c = _checked_inputs(X, y)
    gamma = resolve_gamma(spec)
    mode = Mode(spec.mode)
    block_size = min(spec.block_size, p)

    beta = np.zeros(p)
    z = np.zeros(p)
    xi = np.zeros(p)
    r = np.zeros(n)  # running X @ beta

    def gram_factor(Xg):
        # blocks are unbounded: one kept is its s x s factor, not Xg or Gram
        gram = (Xg.T @ Xg) / n
        _note_alloc(gram.size)
        gram[np.diag_indices_from(gram)] += gamma
        return _cholesky(gram)

    def sweep(order, factors):
        nonlocal z, xi, r
        for g in order:
            idx = np.asarray(g, dtype=int)
            Xg = as_dense(X[:, idx])
            _note_alloc(Xg.size)
            # coupling to the other blocks through the running prediction:
            # X_b' X_rest beta_rest / n, without touching the full Gram
            cross = Xg.T @ (r - Xg @ beta[idx]) / n
            chol = block_system(factors, g, lambda: gram_factor(Xg))
            new_beta = _chol_solve(chol, -(c[idx] + cross - xi[idx] -
                                           gamma * z[idx]))
            r += Xg @ (new_beta - beta[idx])
            beta[idx] = new_beta
        z = z_update(beta, xi, gamma, spec.lam, spec.alpha)
        xi = xi - gamma * (beta - z)
        residual = float(np.sum(np.abs(beta - z)))
        return ResidualPair(primal=residual, dual=0.0)

    run = run_sweeps(sweep, _driver_config(spec, gamma, mode, block_size), p)
    return ElasticNetModel(beta=beta, z=z, xi=xi, spec=spec, gamma=gamma,
                           iterations=run.iterations,
                           residual=run.primal_residual,
                           status=run.status)


def predict(model: ElasticNetModel, X: Matrix) -> np.ndarray:
    out = X @ model.beta
    return np.asarray(out, dtype=float).ravel()


def evaluate(model: ElasticNetModel, X_test: Matrix,
             y_test: np.ndarray) -> dict:
    """Prediction quality: l2_loss = ||X beta - y||_2 and its mean square."""
    y_test = np.asarray(y_test, dtype=float)
    if X_test.shape[1] != model.beta.size:
        raise ValueError(
            f"X_test has {X_test.shape[1]} features, model has {model.beta.size}")
    diff = predict(model, X_test) - y_test
    l2 = float(np.linalg.norm(diff))
    return {"l2_loss": l2, "model_error": l2 * l2 / y_test.size}


def consensus_fit(X: Matrix, y: np.ndarray,
                  spec: ElasticNetSpec) -> ElasticNetModel:
    """Two-block consensus baseline for the same objective.

    Samples are split into groups; each group keeps a full coefficient copy
    constrained to the shared z. One sweep solves every copy's ridge system
    (all independent given z), shrinks z in closed form against the averaged
    copies, and steps the duals. Stopping matches ``fit``: ``spec.iters``
    sweeps, or mean ||copy - z||_1 <= tol.
    """
    spec.validate()
    n, p = X.shape
    y, _ = _checked_inputs(X, y)
    gamma = resolve_gamma(spec)
    rng = np.random.default_rng(spec.seed)
    # One coefficient copy per sweep block of ``fit`` (at least two, else this
    # degenerates into the plain two-block splitting); each copy owns an equal
    # share of the samples.
    copies_wanted = min(n, max(2, math.ceil(p / min(spec.block_size, p))))
    groups = chunk_indices(rng.permutation(n), math.ceil(n / copies_wanted))
    N = len(groups)

    solvers = []
    targets = []
    for g in groups:
        idx = np.asarray(g, dtype=int)
        Xi = as_dense(X[idx])
        yi = y[idx]
        w0 = Xi.T @ yi / n
        ni = idx.size
        if p <= ni:
            chol = _cholesky(Xi.T @ Xi / n + gamma * np.eye(p))
            solvers.append(("direct", Xi, chol))
        else:
            # Woodbury route: invert through the small n_i x n_i system.
            chol = _cholesky(Xi @ Xi.T + n * gamma * np.eye(ni))
            solvers.append(("woodbury", Xi, chol))
        targets.append(w0)

    copies = np.zeros((N, p))
    duals = np.zeros((N, p))
    z = np.zeros(p)

    def sweep(_order, _cache):
        nonlocal z, duals
        for i, ((kind, Xi, chol), w0) in enumerate(zip(solvers, targets)):
            w = w0 + duals[i] + gamma * z
            if kind == "direct":
                copies[i] = _chol_solve(chol, w)
            else:
                inner = _chol_solve(chol, Xi @ w)
                copies[i] = (w - Xi.T @ inner) / gamma
        agg = duals.sum(axis=0) - gamma * copies.sum(axis=0)
        denom = (1.0 - spec.alpha) * spec.lam + N * gamma
        z = soft_threshold(agg, spec.lam * spec.alpha) / denom
        duals -= gamma * (copies - z)
        residual = float(np.mean(np.sum(np.abs(copies - z), axis=1)))
        return ResidualPair(primal=residual, dual=0.0)

    # The copies form one block updated all at once, so the driver's single
    # cyclic order carries nothing the sweep needs.
    run = run_sweeps(sweep, _driver_config(spec, gamma, Mode.CYCLIC, N), N)
    return ElasticNetModel(beta=copies.mean(axis=0), z=z,
                           xi=duals.mean(axis=0), spec=spec, gamma=gamma,
                           iterations=run.iterations,
                           residual=run.primal_residual,
                           status=run.status)


# Coefficient vectors longer than this go to a little-endian float64 sidecar
# file instead of inline JSON.
INLINE_VECTOR_LIMIT = 100_000


def _spec_to_dict(spec: ElasticNetSpec) -> dict:
    return {
        "lambda": spec.lam,
        "alpha": spec.alpha,
        "gamma": spec.gamma,
        "block_size": spec.block_size,
        "iters": spec.iters,
        "mode": Mode(spec.mode).value,
        "seed": spec.seed,
        "tol": spec.tol,
    }


def _spec_from_dict(d: dict) -> ElasticNetSpec:
    return ElasticNetSpec(
        lam=d["lambda"], alpha=d["alpha"], gamma=d.get("gamma"),
        block_size=d.get("block_size", 100), iters=d.get("iters", 10),
        mode=Mode(d.get("mode", "rac")), seed=d.get("seed", 0),
        tol=d.get("tol"))


def save_model(model: ElasticNetModel, path) -> None:
    """Persist the model as JSON, spilling long vectors to binary sidecars."""
    path = Path(path)

    def pack(name: str, vec: np.ndarray):
        if vec.size > INLINE_VECTOR_LIMIT:
            sidecar = path.with_suffix(f".{name}.bin")
            sidecar.write_bytes(np.asarray(vec, dtype="<f8").tobytes())
            return {"path": sidecar.name}
        return list(map(float, vec))

    doc = {
        "spec": _spec_to_dict(model.spec),
        "gamma": model.gamma,
        "beta": pack("beta", model.beta),
        "z": pack("z", model.z),
        "xi": pack("xi", model.xi),
        "iterations": model.iterations,
        "residual": model.residual,
        "status": Status(model.status).value,
    }
    path.write_text(json.dumps(doc))


def load_model(path) -> ElasticNetModel:
    path = Path(path)
    doc = json.loads(path.read_text())

    def unpack(entry):
        if isinstance(entry, dict):
            raw = (path.parent / entry["path"]).read_bytes()
            return np.frombuffer(raw, dtype="<f8").astype(float)
        return np.asarray(entry, dtype=float)

    spec = _spec_from_dict(doc["spec"])
    return ElasticNetModel(
        beta=unpack(doc["beta"]), z=unpack(doc["z"]), xi=unpack(doc["xi"]),
        spec=spec, gamma=doc["gamma"], iterations=doc["iterations"],
        residual=doc["residual"],
        status=Status(doc.get("status", Status.MAX_ITERS.value)))
