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
sweep reads H in two ways only: the s x s block H_bb, when a block's system
is built, and after the solve the columns of H[:, b] where d is nonzero
(none for a step that leaves the block where it was). H may thus be an
implicit symmetric operator that yields both, as C-SVC's kernel is.

``block_orders`` is the one source of block orders and ``run_sweeps`` the one
sweep driver: stopping rule, divergence guard, residual histories, and the
block cache, one dict it hands every ``sweep(order, cache)`` where
``blocks_recur`` (else None). The QP solver here and elastic-net are adapters
that supply that callable. A QP block is a ``BlockSystem`` built factored,
never written again and solved for each visit's rhs by ``solve_block``; kept
(``block_system``), it holds only its s x s matrix and factor; the m x s
strip of A and the changed columns of H are gathered again on every visit.
Elastic-net keeps bare factors.

A bounded block whose unconstrained minimizer leaves the box is solved in
two stages: primal-dual active-set exchanges, then, on a cycle or a step
cap, a primal active-set finish with a ratio test from the last iterate,
which ends at an exact KKT point. A finish that uses up its step budget is
counted, and ``solve`` reports the count as
``SolveResult.unconverged_blocks``. Each step solves on its free set with
the k of the block's s entries that are bound held. Where that costs fewer
flops than factoring the free set (2 k s^2 < (s - k)^3 / 3), it goes
through the block's kept factor and a k x k Schur complement; it gathers
the free-set matrix and factors it otherwise, and when the kept-factor
result fails a rounding-scale check of its free-set gradient.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
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
)

# Primal residual blowing up past this multiple of its initial value (floored
# at 1) means the sweep is diverging; multi-block cyclic splitting can.
DIVERGENCE_FACTOR = 1e8

# A bounded block solve's budgets (see ``solve_block``): primal-dual steps,
# then ratio-test finish steps per block entry.
PDAS_MAX_STEPS = 20
ACTIVE_SET_PASS_FACTOR = 10


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


def _qp_system(problem: QpProblem, idx: np.ndarray, As,
               beta: float) -> BlockSystem:
    matrix = np.zeros((idx.size, idx.size))
    if problem.H is not None:
        matrix = matrix + as_dense(problem.H[np.ix_(idx, idx)])
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


def _free_solve(matrix, rhs, x, free, chol, x0):
    """A copy of x with its free entries f solved for and its k bound entries
    B held where x has them: M_ff x_f = r_f - M_fB x_B.

    Where k solves with M's kept factor ``chol`` cost fewer flops than
    factoring M_ff (2 k s^2 < (s - k)^3 / 3), ``_schur_solve`` goes through
    that factor from x0 = M^-1 r, which is the answer itself at k = 0. The
    direct route, gathering M_ff and factoring it, solves the other steps
    and those whose kept-factor result ``_schur_solve`` rejects.
    """
    f, bnd = np.flatnonzero(free), np.flatnonzero(~free)
    s, k = rhs.size, bnd.size
    if 2 * k * s * s < (s - k) ** 3 / 3:
        if not k:
            return x0.copy()
        kept = _schur_solve(matrix, rhs, x, f, bnd, chol, x0)
        if kept is not None:
            return kept
    x = x.copy()
    if f.size:  # k >= 1 here
        reduced_rhs = rhs[f] - matrix[np.ix_(f, bnd)] @ x[bnd]
        x[f] = _chol_solve(_cholesky(matrix[np.ix_(f, f)]), reduced_rhs)
    return x


def _schur_solve(matrix, rhs, x, f, bnd, chol, x0):
    """``_free_solve``'s result through M's factor ``chol``, or None.

    The Schur-complement method (Nocedal & Wright, Numerical Optimization,
    2nd ed., sec. 16.5): x = x0 + Z mu with Z = M^-1 E_B and mu solving the
    k x k system (E_B'Z) mu = x_B - x0_B, x_B held exactly. The result
    stands only if its free-set gradient (Mx - r)_f is within 1e-14 max(1,
    max|Mx|, max|r|), the rounding scale ``_wrong_signed`` uses: on a block
    whose small-eigenvalue directions sit on a few entries, x_f cancels
    against a large x0 and misses it, and E_B'Z may not even factor.
    """
    unit = np.zeros((rhs.size, bnd.size))
    unit[bnd, np.arange(bnd.size)] = 1.0
    z = _chol_solve(chol, unit)
    try:
        mu = _chol_solve(_cholesky(z[bnd]), x[bnd] - x0[bnd])
    except BlockDefinitenessError:
        return None
    x = x.copy()
    x[f] = x0[f] + z[f] @ mu
    mx = matrix @ x
    scale = max(1.0, float(np.abs(mx).max()), float(np.abs(rhs).max()))
    return x if np.abs(mx[f] - rhs[f]).max() <= 1e-14 * scale else None


def _wrong_signed(matrix, rhs, x, at_lo, at_hi, rhs_scale):
    """The bound entries whose multiplier points out of the box, beyond
    1e-14 times max(rhs_scale, max|Mx|), and the gradient Mx - rhs."""
    mx = matrix @ x
    grad = mx - rhs
    scale = max(rhs_scale, float(np.abs(mx).max()))
    wrong_lo = at_lo & (grad < -1e-14 * scale)
    wrong_hi = at_hi & (grad > 1e-14 * scale)
    return wrong_lo, wrong_hi, grad


def _ratio_test_finish(matrix, rhs, lower, upper, x, rhs_scale, tally,
                       chol, x0):
    """Primal active-set method with a ratio test (Nocedal & Wright,
    Numerical Optimization, 2nd ed., Alg. 16.3), from x clipped into the box
    with its entries at a bound active. A step toward the free-set minimizer
    that would take a free entry out of the box stops at the first bound one
    meets and makes that entry active; a full step returns unless a
    multiplier is wrong-signed, and then releases the most wrong-signed
    bound. No step leaves the box or raises the objective. After
    ACTIVE_SET_PASS_FACTOR * s steps it returns where it is and adds one to
    ``tally["unconverged"]``, when given. ``chol`` and ``x0`` are passed on
    to ``_free_solve``.
    """
    x = np.clip(x, lower, upper)
    at_lo, at_hi = x <= lower, x >= upper
    for _ in range(ACTIVE_SET_PASS_FACTOR * rhs.size):
        free = ~(at_lo | at_hi)
        target = _free_solve(matrix, rhs, x, free, chol, x0)
        out_lo, out_hi = free & (target < lower), free & (target > upper)
        out = np.flatnonzero(out_lo | out_hi)
        if out.size:
            bound = np.where(out_lo, lower, upper)
            ratios = (bound[out] - x[out]) / (target[out] - x[out])
            first = int(np.argmin(ratios))
            j = out[first]
            x = np.clip(x + ratios[first] * (target - x), lower, upper)
            x[j] = bound[j]
            at_lo[j], at_hi[j] = out_lo[j], out_hi[j]
            continue
        x = target
        wrong_lo, wrong_hi, grad = _wrong_signed(matrix, rhs, x, at_lo, at_hi,
                                                 rhs_scale)
        if not (wrong_lo.any() or wrong_hi.any()):
            return x
        score = np.where(wrong_lo, -grad, 0.0) + np.where(wrong_hi, grad, 0.0)
        worst = int(np.argmax(score))
        at_lo[worst] = at_hi[worst] = False
    if tally is not None:
        tally["unconverged"] += 1
    return x


def solve_block(system: BlockSystem, rhs: np.ndarray,
                tally: Optional[Counter] = None) -> np.ndarray:
    """Exactly minimize 1/2 x'Mx - r'x over the block's box.

    Unbounded blocks, and bounded ones whose unconstrained minimizer is
    inside the box, are a single SPD solve with the kept factor. Otherwise
    the solve has two stages, each step of which solves once on the free
    set, holding the bound entries at their bounds (``_free_solve``: with
    few entries bound, through the kept factor from that unconstrained
    minimizer; else by factoring the free-set matrix):

    1. Primal-dual active set (Hintermueller, Ito, Kunisch, SIAM J. Optim.
       13(3), 2002), from the unconstrained minimizer's bound violators:
       every free entry outside the box and every wrong-signed bound swap
       sides at once, until no free entry leaves the box and no bound
       multiplier is wrong-signed. It can cycle on matrices that are not
       M-matrices. An exchange that revisits an active set, or the
       PDAS_MAX_STEPS-th one, ends this stage.
    2. ``_ratio_test_finish`` goes on from the last iterate and ends at a
       KKT point, or at its step cap, which it counts in ``tally``.

    A multiplier counts as wrong-signed only beyond 1e-14 times max(1,
    max|Mx|, max|rhs|), the scale of the rounding in grad = Mx - rhs: scaled
    by the gradient itself, which vanishes at the optimum, the test would
    release bounds whose multipliers are rounding noise.
    """
    x0 = _chol_solve(system.chol, rhs)
    if not system.bounded:
        return x0
    matrix, chol, lower, upper = (system.matrix, system.chol, system.lower,
                                  system.upper)
    if (x0 >= lower).all() and (x0 <= upper).all():
        return x0  # interior solution is the global minimizer

    rhs_scale = max(1.0, float(np.abs(rhs).max()))
    at_lo, at_hi = x0 < lower, x0 > upper
    seen = {(at_lo.tobytes(), at_hi.tobytes())}
    x = x0
    for _ in range(PDAS_MAX_STEPS):
        free = ~(at_lo | at_hi)
        x = _free_solve(matrix, rhs,
                        np.where(at_lo, lower, np.where(at_hi, upper, x)), free,
                        chol, x0)
        lo_viol, hi_viol = free & (x < lower), free & (x > upper)
        wrong_lo, wrong_hi, _ = _wrong_signed(matrix, rhs, x, at_lo, at_hi,
                                              rhs_scale)
        if not (lo_viol | hi_viol | wrong_lo | wrong_hi).any():
            return x
        at_lo = (at_lo & ~wrong_lo) | lo_viol
        at_hi = (at_hi & ~wrong_hi) | hi_viol
        key = (at_lo.tobytes(), at_hi.tobytes())
        if key in seen:
            break
        seen.add(key)
    return _ratio_test_finish(matrix, rhs, lower, upper, x, rhs_scale, tally,
                              chol, x0)


def compute_residuals(problem: QpProblem, x: np.ndarray, y: np.ndarray,
                      *, _products: Optional[tuple] = None) -> ResidualPair:
    """Primal and dual residuals at (x, y).

    primal: ||Ax - b||_inf. dual: inf-norm of the box-projected stationarity
    step ||P(x - (Hx + c - A'y)) - x||_inf, which vanishes exactly at KKT
    points and reduces to ||Hx + c - A'y||_inf when the box is inactive.
    ``_products``, the running products of x that ``solve`` carries, stand
    in for recomputing c + Hx and Ax - b.
    """
    grad, r = _products if _products is not None else _exact_products(problem, x)
    primal = float(np.abs(r).max()) if r.size else 0.0
    if problem.A is not None:
        grad = grad - problem.A.T.dot(y)
    # np.clip's wrapper chain, not its arithmetic, dominates at tiny n
    projected = np.minimum(np.maximum(x - grad, problem.lower), problem.upper)
    dual = float(np.abs(projected - x).max()) if x.size else 0.0
    return ResidualPair(primal=primal, dual=dual)


def _add_changed_columns(g: np.ndarray, H, idx: np.ndarray,
                         delta: np.ndarray) -> None:
    """g += H[:, idx] delta, reading H's columns only where delta is nonzero:
    an entry the step left where it was, such as a dual held at its bound,
    reads nothing of its column."""
    nz = delta.nonzero()[0]  # np.flatnonzero's wrapper costs more at tiny s
    if nz.size == idx.size:
        g += H[:, idx].dot(delta)
    elif nz.size:
        g += H[:, idx[nz]].dot(delta[nz])


def run_sweep(problem: QpProblem, x: np.ndarray, y: np.ndarray,
              order: Order, beta: float,
              piece_cache: Optional[dict] = None, *,
              tally: Optional[Counter] = None,
              _products: Optional[tuple] = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """One full pass: minimize each block in order, then one dual step.

    Returns the updated (x, y); the inputs are not modified. ``piece_cache``,
    when given, keeps each block's system and factor (see ``block_system``);
    ``tally``, when given, counts what ``solve_block`` counts. ``_products``,
    the running products of x that ``solve`` carries across sweeps, are
    updated in place; without them the sweep starts from exact ones.
    """
    x = np.asarray(x, dtype=float).copy()
    if x.size != problem.n:
        raise ValueError(f"x has length {x.size}, expected {problem.n}")
    y = np.asarray(y, dtype=float)
    if y.size != problem.m:
        raise ValueError(f"y has length {y.size}, expected {problem.m}")
    g, r = _products if _products is not None else _exact_products(problem, x)
    H, A = problem.H, problem.A
    # .dot (scipy sparse has it too) is @'s BLAS call without its dispatch,
    # which at tiny s costs more than the product
    for block in order:
        idx = np.asarray(block, dtype=int)
        As = None if A is None else A[:, idx]
        system = block_system(piece_cache, block,
                              lambda: _qp_system(problem, idx, As, beta))
        xb = x[idx]
        grad = g[idx] if As is None else g[idx] + As.T.dot(beta * r - y)
        new = solve_block(system, system.matrix.dot(xb) - grad, tally)
        delta = new - xb
        if H is not None:
            _add_changed_columns(g, H, idx, delta)
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
    ``r = Ax - b`` the last residuals were read from, and the number of
    block solves whose ratio-test finish used up its step budget.

    ``sweep_hook(k, x, y)``, when given, observes the iterate after sweep k
    (1-based); it must not mutate its arguments.
    """
    n = problem.n
    config.validate(n)
    beta = config.beta_penalty

    x = np.clip(np.zeros(n), problem.lower, problem.upper)
    y = np.zeros(problem.m)
    products = _exact_products(problem, x)
    tally = Counter()

    sweep_numbers = itertools.count(1)

    def sweep(order, piece_cache):
        nonlocal x, y
        x, y = run_sweep(problem, x, y, order, beta, piece_cache,
                         tally=tally, _products=products)
        if sweep_hook is not None:
            sweep_hook(next(sweep_numbers), x, y)
        return compute_residuals(problem, x, y, _products=products)

    initial = compute_residuals(problem, x, y, _products=products)
    run = run_sweeps(sweep, config, n, initial_primal=initial.primal)
    g, r = products
    return SolveResult(x=x, y=y, g=g, r=r,
                       unconverged_blocks=tally["unconverged"], **vars(run))
