"""C-parameterized support vector classification on the dual QP.

Training solves  min 1/2 z'Qz - e'z  s.t. y'z = 0, z in [0, C]^n with
q_ij = y_i y_j K(x_i, x_j) as a QP through the engine's ``solve``. Q enters
as an implicit symmetric operator whose reads are assembled on demand from
raw data rows, each one batched kernel evaluation: a block's s x s matrix
from its own rows, and after the block step the n x k strip of the k duals
that moved; a step that leaves every dual at its bound evaluates none. A
strip holds a few columns, so its elementwise passes (the Gaussian's, the
label signs', the ridge) run on the product laid out k x n, along n, and
the strip is handed back C-ordered n x k. The full n x n kernel matrix is
never materialized. Block steps, kept block factors, the stopping rule and
the divergence guard are the QP solver's own.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

# solve_block is never called through this module: training's block solves
# run inside the engine's sweep. The re-export stays only because
# bench/tests/test_bench.py asserts that the benchmark's tracer wraps
# racml.svm.solve_block; dropping it is a change to the benchmark.
from .engine import solve, solve_block  # noqa: F401
from .problems import Matrix, Mode, QpProblem, SolveResult, SolverConfig, as_dense

SUPPORT_THRESHOLD = 1e-8   # duals above this are support vectors
MARGIN_DELTA = 1e-6        # relative to C: margin means delta*C < z < (1-delta)*C


class DegenerateModelError(RuntimeError):
    """No support vectors: the trained dual weights are all (numerically) zero."""


class DegenerateSplitError(ValueError):
    """A holdout split left a single-class training part."""


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice; ``sigma`` is the Gaussian bandwidth. Checked when
    built: an unknown kind or a Gaussian sigma not > 0 raises ValueError."""

    kind: str = "gaussian"  # "gaussian" or "linear"
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "linear"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "gaussian" and not self.sigma > 0:  # NaN fails too
            raise ValueError(f"sigma must be > 0, got {self.sigma}")


@dataclass
class SvmModel:
    """Support set with dual weights, labels, bias and kernel settings."""

    support_points: np.ndarray
    support_duals: np.ndarray
    support_labels: np.ndarray
    bias: float
    kernel: KernelSpec
    C: float


def kernel_cross(Xa: np.ndarray, Xb: np.ndarray, kernel: KernelSpec,
                 sq_a: Optional[np.ndarray] = None,
                 sq_b: Optional[np.ndarray] = None) -> np.ndarray:
    """Kernel values between every row of Xa and every row of Xb.

    ``sq_a`` and ``sq_b``, when given, are the Gaussian kernel's squared row
    norms of Xa and Xb, computed once by a caller that evaluates the same
    rows again; else each call sums them."""
    Xa = np.asarray(Xa, dtype=float)
    Xb = np.asarray(Xb, dtype=float)
    if kernel.kind == "linear":
        return Xa @ Xb.T
    if sq_a is None:
        sq_a = np.sum(Xa * Xa, axis=1)
    if sq_b is None:
        sq_b = np.sum(Xb * Xb, axis=1)
    return _gaussian(Xa @ Xb.T, sq_a, sq_b, kernel.sigma)


def _gaussian(out: np.ndarray, sq_rows: np.ndarray, sq_cols: np.ndarray,
              sigma: float) -> np.ndarray:
    """exp(-max(sq_rows + sq_cols - 2P, 0) / (2 sigma^2)) for the inner
    products P in ``out``, built in its buffer: -2P + (sq_rows + sq_cols)
    rounds exactly as (sq_rows + sq_cols) - 2P, and x / -c as -(x / c)."""
    out *= -2.0
    out += sq_rows[:, None] + sq_cols[None, :]
    np.maximum(out, 0.0, out=out)
    out /= -2.0 * sigma ** 2
    return np.exp(out, out=out)


class _KernelQ:
    """Q + ridge I, q_ij = y_i y_j K(x_i, x_j), as an implicit symmetric
    operator whose reads are each one batched kernel evaluation: ``[:, cols]``
    is the n x k column strip, against every data row, and
    ``[np.ix_(rows, cols)]`` the block, against the rows named only. The
    ridge lands where the row and the column are the same data point; a
    block whose rows are its cols, as every block system's is, names each
    point once and takes the ridge on its diagonal.

    A strip's product X X[cols]' is laid out k x n before its elementwise
    passes, so each runs along n and not k wide, and the strip comes back
    C-ordered n x k. Its entries equal those of ``kernel_cross(X, X[cols])``
    times both label signs plus the ridge, bit for bit: the product is the
    same BLAS call and every pass is elementwise.

    X's squared row norms are summed once, here, and handed to every read.
    For a C-ordered X, which ``train`` makes of any sparse or C-ordered
    input, they equal bit for bit the sums a read would make of its rows."""

    def __init__(self, X: np.ndarray, y: np.ndarray, kernel: KernelSpec,
                 ridge: float):
        self.X, self.y, self.kernel, self.ridge = X, y, kernel, ridge
        self.shape = (y.size, y.size)
        self.sq = np.sum(X * X, axis=1)

    def __getitem__(self, key) -> np.ndarray:
        rows, cols = key
        cols = np.asarray(cols, dtype=int).ravel()
        if isinstance(rows, slice):  # [:, cols]
            out = (self.X @ self.X[cols].T).T.copy()
            if self.kernel.kind == "gaussian":
                _gaussian(out, self.sq[cols], self.sq, self.kernel.sigma)
            out *= self.y
            out *= self.y[cols][:, None]
            out[np.arange(cols.size), cols] += self.ridge
            return out.T.copy()
        # [np.ix_(rows, cols)]
        rows = np.asarray(rows, dtype=int).ravel()
        out = kernel_cross(self.X[rows], self.X[cols], self.kernel,
                           self.sq[rows], self.sq[cols])
        out *= self.y[rows][:, None]
        out *= self.y[cols]
        if np.array_equal(rows, cols):
            out.flat[::cols.size + 1] += self.ridge
        else:
            out[np.nonzero(rows[:, None] == cols)] += self.ridge
        return out

    def __matmul__(self, z: np.ndarray) -> np.ndarray:
        # strips over z's nonzero entries, a training block's width at a time
        nz = np.flatnonzero(z)
        width = default_block_size(self.shape[0])
        out = np.zeros(self.shape[0])
        for start in range(0, nz.size, width):
            cols = nz[start:start + width]
            out += self[:, cols] @ z[cols]
        return out


def default_block_size(n: int) -> int:
    """Nominal block size by training-set size band."""
    if n < 30_000:
        return min(100, n)
    if n < 100_000:
        return 500
    return 1000


def default_config(n: int, block_size: Optional[int] = None,
                   seed: int = 0, max_iters: int = 10,
                   tol_primal: float = 1e-1, tol_dual: float = 1.0,
                   mode: Mode = Mode.RAC,
                   beta: Optional[float] = None) -> SolverConfig:
    """Training defaults: loose tolerances, few sweeps, beta = 0.1 * #blocks."""
    if n < 1:
        raise ValueError(f"training set must be non-empty, got n={n}")
    if block_size is not None and block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    s = min(default_block_size(n) if block_size is None else block_size, n)
    p = math.ceil(n / s)
    return SolverConfig(
        mode=mode, block_size=s,
        beta_penalty=beta if beta is not None else 0.1 * p,
        max_iters=max_iters, tol_primal=tol_primal, tol_dual=tol_dual,
        seed=seed)


@dataclass
class TrainDiagnostics(SolveResult):
    """The dual QP's solve result, with its x again as the dual weights
    ``duals``; y holds the multiplier of the equality y'z = 0, g is
    (Q + ridge I) z - e and r the scalar y'z."""

    duals: np.ndarray


def train(X: Matrix, labels: np.ndarray, C: float, kernel: KernelSpec,
          config: Optional[SolverConfig] = None,
          return_diagnostics: bool = False):
    """Train a classifier by solving the dual QP with the engine's ``solve``.

    The QP is c = -e, H = Q + ridge I, A = y', b = 0 over the box [0, C].
    Kernel blocks are PSD by construction but can be numerically indefinite
    for wide bandwidths; the ridge, 1e-9 of the largest diagonal entry a
    block matrix Q_bb + beta y_b y_b' can have, keeps the factorizations
    honest without moving the optimum measurably.
    """
    Xd = as_dense(X)
    y = np.asarray(labels, dtype=float)
    n = Xd.shape[0]
    if n == 0:
        raise ValueError("training set must be non-empty, got 0 rows")
    if y.size != n:
        raise ValueError(f"labels length {y.size} does not match {n} rows")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if not np.all(np.isfinite(Xd)):
        raise ValueError("X must be finite: it has NaN or infinite entries")
    if not C > 0:  # NaN fails too
        raise ValueError(f"C must be > 0, got {C}")
    if config is None:
        config = default_config(n)
    # K(x, x) is 1 for the Gaussian kernel and ||x||^2 for the linear one
    k_max = 1.0 if kernel.kind == "gaussian" else \
        float(np.max(np.sum(Xd * Xd, axis=1)))
    ridge = 1e-9 * (k_max + config.beta_penalty)
    problem = QpProblem(c=np.full(n, -1.0), H=_KernelQ(Xd, y, kernel, ridge),
                        A=y[None, :], b=np.zeros(1), lower=np.zeros(n),
                        upper=np.full(n, C))
    result = solve(problem, config)
    z = result.x

    # g = c + (Q + ridge I) z and (Qz)_i = y_i sum_j y_j z_j K(x_j, x_i), so
    # y * (g - c - ridge z) are the decision scores, with no kernel pass
    bias = compute_bias(z, y * (result.g - problem.c - ridge * z), y, C)
    support = z > SUPPORT_THRESHOLD
    model = SvmModel(
        support_points=Xd[support].copy(),
        support_duals=z[support].copy(),
        support_labels=y[support].copy(),
        bias=bias, kernel=kernel, C=C)
    if return_diagnostics:
        return model, TrainDiagnostics(duals=z, **vars(result))
    return model


def compute_bias(duals: np.ndarray, scores: np.ndarray, labels: np.ndarray,
                 C: float) -> float:
    """Bias from margin support vectors, b = mean(y_i - scores_i), where
    scores_i = sum_j y_j z_j K(x_j, x_i) is the decision value without b.

    When no dual sits strictly between the bounds, falls back to the
    midpoint of the interval the bound KKT conditions allow.
    """
    y = np.asarray(labels, dtype=float)
    z = np.asarray(duals, dtype=float)
    if not np.any(z > SUPPORT_THRESHOLD):
        raise DegenerateModelError("no support vectors; cannot recover a bias")
    margin = (z > MARGIN_DELTA * C) & (z < (1.0 - MARGIN_DELTA) * C)
    vals = y - np.asarray(scores, dtype=float)
    if np.any(margin):
        return float(np.mean(vals[margin]))
    # All duals at a bound: b is only bracketed. At z_i = 0 optimality needs
    # y_i f(x_i) >= 1, at z_i = C it needs y_i f(x_i) <= 1; each combination
    # of bound and label turns y_i - scores_i into a one-sided bound on b.
    at_upper = z >= (1.0 - MARGIN_DELTA) * C
    at_lower = ~at_upper
    lower_bnds = vals[(at_lower & (y > 0)) | (at_upper & (y < 0))]
    upper_bnds = vals[(at_lower & (y < 0)) | (at_upper & (y > 0))]
    lo = float(np.max(lower_bnds)) if lower_bnds.size else -math.inf
    hi = float(np.min(upper_bnds)) if upper_bnds.size else math.inf
    if not math.isfinite(lo):
        return hi
    if not math.isfinite(hi):
        return lo
    return (lo + hi) / 2.0


def decision_values(model: SvmModel, X_query: Matrix) -> np.ndarray:
    """f(x) = sum_i y_i z_i K(x_i, x) + b for each query row."""
    Xq = as_dense(X_query)
    if Xq.shape[1] != model.support_points.shape[1]:
        raise ValueError(
            f"query has {Xq.shape[1]} features, model expects "
            f"{model.support_points.shape[1]}")
    finite = np.isfinite(Xq).all(axis=1)
    if not finite.all():
        raise ValueError("query rows must be finite: row "
                         f"{int(np.argmin(finite))} has NaN or infinite entries")
    k = kernel_cross(Xq, model.support_points, model.kernel)
    return k @ (model.support_labels * model.support_duals) + model.bias


def predict(model: SvmModel, X_query: Matrix) -> np.ndarray:
    """Sign of the decision function, with sign(0) -> +1."""
    f = decision_values(model, X_query)
    return np.where(f >= 0.0, 1.0, -1.0)


def accuracy(model: SvmModel, X_test: Matrix, y_test: np.ndarray) -> float:
    """Correctly predicted fraction as a percentage."""
    y_test = np.asarray(y_test, dtype=float)
    pred = predict(model, X_test)
    return float(np.mean(pred == y_test)) * 100.0


def grid_search(X: Matrix, labels: np.ndarray, C_grid: Sequence[float],
                sigma_grid: Sequence[float], holdout: float = 0.3,
                seed: int = 0, threads: int = 1):
    """Holdout accuracy over every (C, sigma) cell; best pair wins.

    The split is seed-determined; each cell trains a Gaussian-kernel model
    with ``default_config`` for the training part, seeded from ``seed``.
    Ties break toward smaller C, then smaller sigma. Up to ``threads`` cells
    run at once; results are merged in cell order so the outcome is
    thread-count independent. Returns ((C, sigma), table), one table row of
    c, sigma and holdout accuracy per cell.
    """
    if not C_grid or not sigma_grid:
        raise ValueError("grids must be nonempty")
    if not (0.0 < holdout < 1.0):
        raise ValueError(f"holdout must be in (0, 1), got {holdout}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    Xd = as_dense(X)
    y = np.asarray(labels, dtype=float)
    n = Xd.shape[0]
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_hold = max(1, int(round(holdout * n)))
    if n_hold >= n:
        raise DegenerateSplitError("holdout fraction leaves no training data")
    hold_idx, train_idx = perm[:n_hold], perm[n_hold:]
    y_train = y[train_idx]
    if np.unique(y_train).size < 2:
        raise DegenerateSplitError("training part of the split is single-class")
    X_train, X_hold, y_hold = Xd[train_idx], Xd[hold_idx], y[hold_idx]

    cells = [(float(c), float(s)) for c in C_grid for s in sigma_grid]
    seeds = [int(s.generate_state(1)[0])
             for s in np.random.SeedSequence(seed).spawn(len(cells))]

    def run_cell(i: int) -> dict:
        c, sigma = cells[i]
        kernel = KernelSpec(kind="gaussian", sigma=sigma)
        model = train(X_train, y_train, c, kernel,
                      default_config(len(train_idx), seed=seeds[i]))
        return {"c": c, "sigma": sigma,
                "accuracy": accuracy(model, X_hold, y_hold)}

    # imported here, not at module level, to keep ``import racml`` light
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        table = list(pool.map(run_cell, range(len(cells))))

    best = max(table, key=lambda row: (row["accuracy"], -row["c"], -row["sigma"]))
    return (best["c"], best["sigma"]), table


def model_sidecar(path) -> Path:
    """The ``.bin`` sidecar ``save_model`` writes beside ``path``; refuses a
    path that is its own sidecar (the header would overwrite the duals)."""
    path = Path(path)
    sidecar = path.with_suffix(".bin")
    if sidecar == path:
        raise ValueError(f"model path {path} is its own .bin sidecar")
    return sidecar


def save_model(model: SvmModel, path) -> None:
    """JSON header plus a little-endian float64 sidecar of the support set.

    The sidecar packs duals, labels, then points row-major.
    """
    path = Path(path)
    sidecar = model_sidecar(path)
    n_sv, dim = model.support_points.shape
    payload = np.concatenate([
        model.support_duals, model.support_labels,
        model.support_points.ravel()])
    sidecar.write_bytes(np.asarray(payload, dtype="<f8").tobytes())
    header = {
        "kernel": {"kind": model.kernel.kind, "sigma": model.kernel.sigma},
        "C": model.C,
        "bias": model.bias,
        "n_sv": n_sv,
        "dim": dim,
        "sidecar": sidecar.name,
    }
    path.write_text(json.dumps(header))


def load_model(path) -> SvmModel:
    path = Path(path)
    header = json.loads(path.read_text())
    raw = np.frombuffer((path.parent / header["sidecar"]).read_bytes(),
                        dtype="<f8").astype(float)
    n_sv, dim = header["n_sv"], header["dim"]
    duals = raw[:n_sv]
    labels = raw[n_sv:2 * n_sv]
    points = raw[2 * n_sv:].reshape(n_sv, dim)
    kernel = KernelSpec(kind=header["kernel"]["kind"],
                        sigma=header["kernel"]["sigma"])
    return SvmModel(support_points=points, support_duals=duals,
                    support_labels=labels, bias=header["bias"],
                    kernel=kernel, C=header["C"])
