"""Multi-block ADMM sweep engine for linearly constrained box QPs.

One sweep minimizes the augmented Lagrangian

    L(x, y) = 1/2 x'Hx + c'x - y'(Ax - b) + beta/2 ||Ax - b||^2

block by block in Gauss-Seidel fashion (each block minimization is exact),
then takes one dual ascent step y <- y - beta (Ax - b). Block membership is
re-randomized per sweep (RAC), fixed with a shuffled order (RP), or fully
deterministic (CYCLIC).

Each block step is in gradient form, M_b x_b+ = M_b x_b - grad_b L with
M_b = H_bb + beta A_b'A_b and grad L = c + Hx - A'y + beta A'r, on running
products c + Hx and r = Ax - b that each step d updates by H[:, b] d and
A[:, b] d. The dual step and the residuals read the same products, so a
sweep touches H only through its blocks' column strips, and H may be an
implicit symmetric operator that yields them, as C-SVC's kernel is.

``block_orders`` is the one source of block orders and ``run_sweeps`` the one
sweep driver: stopping rule, divergence guard, residual histories, and the
block cache, one dict it hands every ``sweep(order, cache)`` where
``blocks_recur`` (else None). The QP solver here and elastic-net are adapters
that supply that callable. A QP block is a ``BlockSystem`` built factored,
never written again and solved for each visit's rhs by ``solve_block``; kept
(``block_system``), it holds only its s x s matrix and factor, and its column
strips are gathered again on every visit. Elastic-net keeps bare factors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dpotrs

from .problems import (
    Mode,
    Order,
    QpProblem,
    SolveResult,
    SolverConfig,
    Status,
    SweepRun,
    as_dense,
    chunk_indices,
    validate_problem,
)

# Primal residual blowing up past this multiple of its initial value (floored
# at 1) means the sweep is diverging; multi-block cyclic splitting can.
DIVERGENCE_FACTOR = 1e8

# Active-set pass budget per block solve before the projected-gradient
# fallback takes over.
ACTIVE_SET_PASS_FACTOR = 10
PG_TOL = 1e-10


class BlockDefinitenessError(ArithmeticError):
    """A block subsystem was not positive definite.

    The sweep requires every block matrix to be symmetric positive definite;
    a failed factorization reports which block violated that precondition.
    """


@dataclass(frozen=True)
class BlockSystem:
    """One block's exact minimization subproblem: min 1/2 x'Mx - r'x over a box.

    Built with ``chol``, M's lower Cholesky factor; the rhs r of a visit is
    passed to ``solve_block``. ``bounded`` False, for a box with no finite
    bound, skips the box test.
    """

    matrix: np.ndarray
    chol: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    bounded: bool


def blocks_recur(mode: Mode, n: int, s: int, sweeps: int) -> bool:
    """Whether ``sweeps`` sweeps must revisit a block, i.e. make more block
    visits than there are distinct blocks: ceil(n/s) for a fixed partition,
    C(n, s) (plus C(n, n mod s) short ones) under RAC, which also keeps
    nothing past n = 64 to bound the size of what it keeps."""
    if Mode(mode) != Mode.RAC:
        return sweeps > 1
    if n > 64:
        return False
    short = math.comb(n, n % s) if n % s else 0
    return math.comb(n, s) + short < sweeps * -(-n // s)


def block_system(cache: Optional[dict], block: Sequence[int],
                 build: Callable[[], object]):
    """``cache``'s entry for ``block``, built and kept on the first visit;
    with ``cache`` None every visit builds its own."""
    if cache is None:
        return build()
    key = tuple(block)
    if key not in cache:
        cache[key] = build()
    return cache[key]


@dataclass(frozen=True)
class ResidualPair:
    """Primal infeasibility and box-projected stationarity, both inf-norms."""

    primal: float
    dual: float


def _exact_products(problem: QpProblem, x: np.ndarray) -> tuple:
    """``(c + Hx, Ax - b)`` at x, fresh arrays a sweep may update."""
    g = problem.c.copy() if problem.H is None else problem.c + problem.H @ x
    r = np.zeros(0) if problem.A is None else problem.A @ x - problem.b
    return np.asarray(g, dtype=float), np.asarray(r, dtype=float)


def _qp_system(problem: QpProblem, idx: np.ndarray, Hs, As,
               beta: float) -> BlockSystem:
    matrix = np.zeros((idx.size, idx.size))
    if Hs is not None:
        matrix = matrix + as_dense(Hs[idx])
    if As is not None:
        matrix = matrix + beta * as_dense(As.T @ As)
    lower, upper = problem.lower[idx], problem.upper[idx]
    bounded = bool(np.isfinite(lower).any() or np.isfinite(upper).any())
    return BlockSystem(matrix=matrix, chol=_cholesky(matrix), lower=lower,
                       upper=upper, bounded=bounded)


def _cholesky(matrix: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise BlockDefinitenessError(
            "block matrix is not positive definite; the solver's block "
            "positive-definiteness assumption is violated"
        ) from exc


def _chol_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs given M's lower Cholesky factor, through LAPACK potrs.

    ``chol.T`` is the upper factor as an F-ordered view, so potrs reads it
    without a copy; ``rhs`` is left as it was. The inputs are produced
    internally, so the checks ``scipy.linalg.cho_solve`` makes before this
    same call, which cost more than a small solve, are skipped.
    """
    x, info = dpotrs(chol.T, rhs, lower=0)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def _projected_gradient(matrix, rhs, lower, upper, x0):
    """Fallback minimizer for 1/2 x'Mx - r'x over a box, run to PG_TOL."""
    eigs = np.linalg.eigvalsh(matrix)
    step = 1.0 / max(eigs[-1], 1e-12)
    x = np.clip(x0, lower, upper)
    for _ in range(200000):
        grad = matrix @ x - rhs
        x_next = np.clip(x - step * grad, lower, upper)
        if np.max(np.abs(x_next - x)) <= PG_TOL * step:
            return x_next
        x = x_next
    return x


def solve_block(system: BlockSystem, rhs: np.ndarray) -> np.ndarray:
    """Exactly minimize 1/2 x'Mx - r'x over the block's box.

    Unbounded blocks are a single SPD solve. Bounded blocks run a finite
    active-set procedure: solve the equality-reduced system on the free set,
    clamp violators (the active set only grows within a pass), then release
    any bound whose multiplier has the wrong sign and repeat. A pass budget
    of ACTIVE_SET_PASS_FACTOR * s guards against cycling, after which a
    projected-gradient fallback finishes to PG_TOL.
    """
    x = _chol_solve(system.chol, rhs)
    if not system.bounded:
        return x
    s = rhs.size
    matrix, lower, upper = system.matrix, system.lower, system.upper
    if (x >= lower).all() and (x <= upper).all():
        return x  # interior solution is the global minimizer

    x = np.clip(x, lower, upper)
    at_lo = x <= lower
    at_hi = x >= upper
    for _ in range(ACTIVE_SET_PASS_FACTOR * s):
        # Clamp loop: re-solve on the free set until feasible there.
        for _ in range(s + 1):
            free = ~(at_lo | at_hi)
            x = np.where(at_lo, lower, np.where(at_hi, upper, x))
            if not np.any(free):
                break
            f = np.flatnonzero(free)
            bnd = np.flatnonzero(~free)
            reduced_rhs = rhs[f]
            if bnd.size:
                reduced_rhs = reduced_rhs - matrix[np.ix_(f, bnd)] @ x[bnd]
            xf = _chol_solve(_cholesky(matrix[np.ix_(f, f)]), reduced_rhs)
            lo_viol = xf < lower[f]
            hi_viol = xf > upper[f]
            x[f] = np.clip(xf, lower[f], upper[f])
            if not (np.any(lo_viol) or np.any(hi_viol)):
                break
            at_lo[f[lo_viol]] = True
            at_hi[f[hi_viol]] = True
        # Optimality: bound multipliers must push into the box.
        grad = matrix @ x - rhs
        scale = max(1.0, float(np.max(np.abs(grad))))
        wrong_lo = at_lo & (grad < -1e-14 * scale)
        wrong_hi = at_hi & (grad > 1e-14 * scale)
        if not (np.any(wrong_lo) or np.any(wrong_hi)):
            return x
        # Release the single worst offender to avoid cycling.
        score = np.where(wrong_lo, -grad, 0.0) + np.where(wrong_hi, grad, 0.0)
        worst = int(np.argmax(score))
        at_lo[worst] = False
        at_hi[worst] = False
    return _projected_gradient(matrix, rhs, lower, upper, x)


def compute_residuals(problem: QpProblem, x: np.ndarray, y: np.ndarray,
                      *, _products: Optional[tuple] = None) -> ResidualPair:
    """Primal and dual residuals at (x, y).

    primal: ||Ax - b||_inf. dual: inf-norm of the box-projected stationarity
    step ||P(x - (Hx + c - A'y)) - x||_inf, which vanishes exactly at KKT
    points and reduces to ||Hx + c - A'y||_inf when the box is inactive. ``_products``, the running products of x that
    ``solve`` carries, stand in for recomputing c + Hx and Ax - b.
    """
    grad, r = _products if _products is not None else _exact_products(problem, x)
    primal = float(np.abs(r).max()) if r.size else 0.0
    if problem.A is not None:
        grad = grad - problem.A.T.dot(y)
    # np.clip's wrapper chain, not its arithmetic, dominates at tiny n
    projected = np.minimum(np.maximum(x - grad, problem.lower), problem.upper)
    dual = float(np.abs(projected - x).max()) if x.size else 0.0
    return ResidualPair(primal=primal, dual=dual)


def run_sweep(problem: QpProblem, x: np.ndarray, y: np.ndarray,
              order: Order, beta: float,
              piece_cache: Optional[dict] = None, *,
              _products: Optional[tuple] = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """One full pass: minimize each block in order, then one dual step.

    Returns the updated (x, y); the inputs are not modified. ``piece_cache``,
    when given, keeps each block's system and factor (see ``block_system``).
    ``_products``, the running products of x that ``solve`` carries across
    sweeps, are updated in place; without them the sweep starts from exact
    ones.
    """
    x = np.asarray(x, dtype=float).copy()
    y = np.asarray(y, dtype=float)
    if y.size != problem.m:
        raise ValueError(f"y has length {y.size}, expected {problem.m}")
    g, r = _products if _products is not None else _exact_products(problem, x)
    H, A = problem.H, problem.A
    # .dot (scipy sparse has it too) is @'s BLAS call without its dispatch,
    # which at tiny s costs more than the product
    for block in order:
        idx = np.asarray(block, dtype=int)
        Hs = None if H is None else H[:, idx]
        As = None if A is None else A[:, idx]
        system = block_system(piece_cache, block,
                              lambda: _qp_system(problem, idx, Hs, As, beta))
        xb = x[idx]
        grad = g[idx] if As is None else g[idx] + As.T.dot(beta * r - y)
        new = solve_block(system, system.matrix.dot(xb) - grad)
        delta = new - xb
        if Hs is not None:
            g += Hs.dot(delta)
        if As is not None:
            r += As.dot(delta)
        x[idx] = new
    return x, y - beta * r


def block_orders(mode: Mode, n: int, s: int,
                 rng: np.random.Generator) -> Iterator[Order]:
    """Yield one sweep's block order per draw, without end.

    RAC draws a fresh random partition every sweep; RP draws its partition
    once, on the first draw, then a fresh permutation of the blocks every
    sweep; CYCLIC yields the consecutive partition every sweep. Each block
    is sorted; with ``s`` not dividing ``n`` the short block comes last in
    the partition.
    """
    mode = Mode(mode)
    if mode == Mode.RAC:
        while True:
            yield chunk_indices(rng.permutation(n), s)
    if mode == Mode.CYCLIC:
        groups = chunk_indices(np.arange(n), s)
        while True:
            yield groups
    groups = chunk_indices(rng.permutation(n), s)
    while True:
        yield tuple([groups[i] for i in rng.permutation(len(groups))])


def run_sweeps(sweep: Callable[..., ResidualPair], config: SolverConfig,
               n: int, initial_primal: float = 0.0) -> SweepRun:
    """Call ``sweep(order, cache)`` once per block order of ``config.mode``.

    ``sweep`` advances the caller's iterate by one sweep and returns the
    residuals after it. ``cache``, for ``block_system``, is one dict for the
    whole run where ``blocks_recur``, else None. The run ends DIVERGED once
    the primal residual exceeds DIVERGENCE_FACTOR times ``initial_primal``
    (floored at 1) or is NaN, CONVERGED once both residuals meet ``config``'s
    tolerances (after the last sweep only, with ``fixed_iterations``), else
    MAX_ITERS after ``max_iters`` sweeps.
    """
    rng = np.random.default_rng(config.seed)
    orders = block_orders(config.mode, n, config.block_size, rng)
    recur = blocks_recur(config.mode, n, config.block_size, config.max_iters)
    cache = {} if recur else None
    divergence_bar = DIVERGENCE_FACTOR * max(initial_primal, 1.0)
    primal_hist: list[float] = []
    dual_hist: list[float] = []
    status = Status.MAX_ITERS
    for k in range(1, config.max_iters + 1):
        res = sweep(next(orders), cache)
        primal_hist.append(res.primal)
        dual_hist.append(res.dual)
        if not res.primal <= divergence_bar:  # a NaN residual diverged too
            status = Status.DIVERGED
            break
        # a fixed-iteration run tests the tolerances after its last sweep only
        if res.primal <= config.tol_primal and res.dual <= config.tol_dual and \
                (not config.fixed_iterations or k == config.max_iters):
            status = Status.CONVERGED
            break
    return SweepRun(iterations=len(primal_hist), status=status,
                    primal_residual_history=np.asarray(primal_hist),
                    dual_residual_history=np.asarray(dual_hist))


def solve(problem: QpProblem, config: SolverConfig,
          sweep_hook=None) -> SolveResult:
    """Run the randomized multi-block sweep until tolerance or iteration cap.

    Block orders, stopping and kept block systems come from ``run_sweeps``.
    The result carries the final running products ``g = c + Hx`` and
    ``r = Ax - b`` the last residuals were read from.

    ``sweep_hook(k, x, y)``, when given, observes the iterate after sweep k
    (1-based); it must not mutate its arguments.
    """
    report = validate_problem(problem)
    if not report.ok:
        raise ValueError("invalid problem: " + "; ".join(report.issues))
    n = problem.n
    config.validate(n)
    beta = config.beta_penalty

    x = np.clip(np.zeros(n), problem.lower, problem.upper)
    y = np.zeros(problem.m)
    products = _exact_products(problem, x)

    sweep_numbers = itertools.count(1)

    def sweep(order, piece_cache):
        nonlocal x, y
        x, y = run_sweep(problem, x, y, order, beta, piece_cache,
                         _products=products)
        if sweep_hook is not None:
            sweep_hook(next(sweep_numbers), x, y)
        return compute_residuals(problem, x, y, _products=products)

    initial = compute_residuals(problem, x, y, _products=products)
    run = run_sweeps(sweep, config, n, initial_primal=initial.primal)
    g, r = products
    return SolveResult(x=x, y=y, g=g, r=r, **vars(run))
