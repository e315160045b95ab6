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
is built, and after the solve the columns of H[:, b] (for a dense H or an
operator, only those where d is nonzero; none for a step that leaves the
block where it was). H may thus be an implicit symmetric operator that
yields both, as C-SVC's kernel is.

``block_orders`` is the one source of block orders, each a tuple of sorted
index arrays, and ``run_sweeps`` the one sweep driver: stopping rule,
divergence guard, residual histories, and the block cache, one dict it hands
every ``sweep(order, cache)`` where ``blocks_recur`` (else None), keyed by a
block's index bytes. The QP solver here and elastic-net are adapters that
supply that callable. A QP block is a ``BlockSystem`` built factored, never
written again and solved for each visit's rhs, from the visit's iterate, by
``solve_block``. Kept (``block_system``), a QP block is a ``_BlockVisit``:
its system, its index array, a dense A's strip, and the strips of a CSC A or
H that its first visit gathered as stored entries, which later visits read
without gathering again; a dense H or an operator is sliced again on every
visit. An elastic-net block keeps only its factor, and the design's n x s
block is read again on every visit.

A sparse H, A or design is stored as canonical CSC, whose column blocks
``run_sweep`` and elastic-net's ``fit`` read through one gather,
``_stored_columns``, straight from the CSC arrays: as flat stored entries,
whose products and s x s Gram are ``np.bincount`` sums rounded as scipy's
kernels round. H's and A's strips stay so at any fill, and H's entries in
the block's rows give H_bb, so a sweep builds no scipy object. Past
``SPARSE_SLICE_DENSITY`` fill or n * s Gram pairs a Gram is formed by BLAS
from a dense scatter (``_gram_operand``): for A's strip the scatter is
dropped once its block's system is built, and elastic-net's ``fit``
multiplies the design's blocks in that dense form (``_column_block``). A
dense array or an implicit operator is sliced as it is.

A bounded block whose unconstrained minimizer leaves the box is solved in
two stages: primal-dual active-set exchanges, then, on a cycle or a step
cap, a primal active-set finish with a ratio test from the last iterate,
which ends at an exact KKT point. The exchanges start from the visit's own
iterate: an entry it holds at a bound starts bound there if its gradient
points out of the box and free if not, and every other entry starts bound
where the unconstrained minimizer leaves the box. A finish that uses up its
step budget is counted, and ``solve`` reports the count as
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
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrs

from .problems import (
    Mode,
    Order,
    QpProblem,
    SolveResult,
    SolverConfig,
    Status,
    SweepRun,
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
    """``cache``'s entry for ``block``, what ``build`` makes on the first
    visit (an elastic-net block's factor, a QP block's ``_BlockVisit``),
    kept whole; with ``cache`` None every visit builds its own. What is kept
    must not be written after.

    The key is the bytes of ``block`` as an intp array, so a block given as
    an index array and one given as a tuple of the same ints share an
    entry, and keying costs one copy of s indices, not s Python ints."""
    if cache is None:
        return build()
    key = np.asarray(block, dtype=np.intp).tobytes()
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


# A sparse slice whose stored entries fill more than this share of it is
# made dense, since above it sparse products cost more than BLAS; a column
# block whose Gram pairs outnumber its n x s entries is made dense too,
# whatever its fill, so its Gram is made in one pass within O(n s). The rule
# (``_gram_operand``) decides how a CSC A's strip forms its Gram, the strip
# itself staying stored entries, and how an elastic-net design block forms
# its Gram and products; ``consensus_fit`` applies the fill share to its
# sample groups.
# Whole elastic-net fits, 10 sweeps, with every block kept as stored entries
# against every block made dense (medians on a loaded 2-core x86 host, numpy
# 2.4, scipy 1.17): 1000 x 2000 at s = 100 took 0.11 against 0.21 s at 1%,
# 0.15 against 0.22 s at 2% and 0.34 against 0.23 s at 5%; at 1%, 200 x 2000
# at s = 50 took 0.11 against 0.09 s and 1000 x 2000 at s = 30 0.19 against
# 0.20 s.
SPARSE_SLICE_DENSITY = 0.02


class _StoredEntries(NamedTuple):
    """A sparse matrix as flat arrays of its stored entries: ``rows[k]``,
    ``cols[k]`` and ``vals[k]``, in the order they are stored; ``size``
    counts them, as a dense block's counts its elements.

    Its products add each output's terms in that order and its Gram in
    ascending row order, which is how scipy's CSC/CSR kernels add them, so
    they round alike. Both are float64, zeros where no entry is stored
    (``np.bincount`` alone would give int64 zeros there).
    """

    rows: np.ndarray
    vals: np.ndarray
    cols: np.ndarray
    shape: tuple[int, int]

    @property
    def size(self) -> int:
        return self.vals.size

    @property
    def T(self) -> "_StoredEntries":
        return _StoredEntries(self.cols, self.vals, self.rows,
                              self.shape[::-1])

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, self.vals * v[self.cols],
                           minlength=self.shape[0]).astype(float, copy=False)

    dot = __matmul__

    def gram(self) -> np.ndarray:
        """The dense s x s Gram M'M of a CSC block (entries stored column
        by column, rows ascending), one ``np.bincount`` over the pairs of
        entries that share a row: a row holding c entries gives c * c pairs.
        Each Gram entry adds its pairs in the stored order of their first
        entries, which is ascending row order, as scipy's ``csr_matmat``
        does. ``_gram_operand`` leaves a block as stored entries only while
        they make at most n * s pairs, so this takes O(n s) memory."""
        s = self.shape[1]
        # need not be stable: one entry's pairs land in distinct Gram entries
        by_row = np.argsort(self.rows)
        counts = np.bincount(self.rows)
        first = np.cumsum(counts) - counts  # where each row starts in by_row
        mates = counts[self.rows]
        left = np.repeat(np.arange(self.size), mates)
        # entry k's pairs' second entries sit at by_row[pair + seek[k]]
        seek = first[self.rows] - (np.cumsum(mates) - mates)
        right = by_row[np.arange(left.size) + np.repeat(seek, mates)]
        return np.bincount(self.cols[left] * s + self.cols[right],
                           self.vals[left] * self.vals[right],
                           minlength=s * s).astype(float, copy=False) \
            .reshape(s, s)


def _stored_columns(M, idx: np.ndarray) -> _StoredEntries:
    """M[:, idx] of a canonical CSC M as its stored entries, read from its
    ``indptr``/``indices``/``data`` without building a scipy object."""
    starts = M.indptr[idx]
    counts = M.indptr[idx + 1] - starts
    cols = np.repeat(np.arange(idx.size), counts)
    # each entry's place in M's arrays: its column's start, less where the
    # column begins among the strip's entries, plus the entry's own place
    at = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    at += np.arange(at.size)
    return _StoredEntries(M.indices[at], M.data[at], cols,
                          (M.shape[0], idx.size))


def _gram_operand(block: _StoredEntries):
    """``block`` in the form its Gram is formed from: itself while its
    stored entries fill at most ``SPARSE_SLICE_DENSITY`` of the n x s block
    and their Gram pairs (the sum of c * c over rows holding c of them)
    number at most n * s, else scattered into a column-major dense array,
    the layout ``_block_operand`` gives a dense slice."""
    n, s = block.shape
    per_row = np.bincount(block.rows)
    if block.size > SPARSE_SLICE_DENSITY * n * s or per_row @ per_row > n * s:
        dense = np.zeros((n, s), order="F")
        dense[block.rows, block.cols] = block.vals
        return dense
    return block


def _column_block(M, idx: np.ndarray):
    """M[:, idx] of a canonical CSC M for elastic-net's ``fit``, which
    forms its Gram and its products from one form: ``_gram_operand``'s."""
    return _gram_operand(_stored_columns(M, idx))


def _gram(block) -> np.ndarray:
    """A column block's dense Gram block'block: one ``np.bincount`` pass
    over stored entries, BLAS's product for a dense block."""
    return block.gram() if isinstance(block, _StoredEntries) else \
        block.T @ block


def _qp_system(problem: QpProblem, idx: np.ndarray, As, Hs,
               beta: float) -> BlockSystem:
    """The block system over ``idx``: beta A_b'A_b from A's strip ``As``
    (a CSC A's through ``_gram_operand``) plus H_bb, read from H's strip
    ``Hs`` where the visit gathered one, else sliced from H, all in one
    s x s buffer."""
    if As is None:
        matrix = np.zeros((idx.size, idx.size))
    else:
        matrix = _gram(As if isinstance(As, np.ndarray) else _gram_operand(As))
        matrix *= beta
    if Hs is not None:
        # the strip's entries whose rows fall in idx, at their place in it,
        # through a table of n places: a visit's products already cost O(n),
        # and a sorted search over the strip's entries costs several times
        # more at 4% fill
        place = np.full(Hs.shape[0], -1)
        place[idx] = np.arange(idx.size)
        at = place[Hs.rows]
        inside = at >= 0
        matrix[at[inside], Hs.cols[inside]] += Hs.vals[inside]
    elif problem.H is not None:
        matrix += problem.H[np.ix_(idx, idx)]
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
    f, bnd = free.nonzero()[0], (~free).nonzero()[0]
    s, k = rhs.size, bnd.size
    if 2 * k * s * s < (s - k) ** 3 / 3:
        if not k:
            return x0.copy()
        kept = _schur_solve(matrix, rhs, x, f, bnd, chol, x0)
        if kept is not None:
            return kept
    x = x.copy()
    if f.size:  # k >= 1 here
        # broadcast indices gather what np.ix_ would, without its wrapper
        fc = f[:, None]
        reduced_rhs = rhs[f] - matrix[fc, bnd] @ x[bnd]
        x[f] = _chol_solve(_cholesky(matrix[fc, f]), reduced_rhs)
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
                tally: Optional[Counter] = None,
                start: Optional[tuple[np.ndarray, np.ndarray]] = None
                ) -> np.ndarray:
    """Exactly minimize 1/2 x'Mx - r'x over the block's box.

    Unbounded blocks, and bounded ones whose unconstrained minimizer is
    inside the box, are a single SPD solve with the kept factor. Otherwise
    the solve has two stages, each step of which solves once on the free
    set, holding the bound entries at their bounds (``_free_solve``: with
    few entries bound, through the kept factor from that unconstrained
    minimizer; else by factoring the free-set matrix):

    1. Primal-dual active set (Hintermueller, Ito, Kunisch, SIAM J. Optim.
       13(3), 2002). Given ``start``, the visit's block values xb and their
       gradient M xb - rhs, an entry xb holds at a bound starts bound there
       if its gradient points out of the box and free if not; every other
       entry, or every entry without ``start``, starts bound where the
       unconstrained minimizer leaves the box. Then every free entry
       outside the box and every wrong-signed bound swap sides at once,
       until no free entry leaves the box and no bound multiplier is
       wrong-signed. It can cycle on matrices that are not M-matrices. An
       exchange that revisits an active set, or the PDAS_MAX_STEPS-th one,
       ends this stage.
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
    if start is not None:
        xb, grad = start  # most C-SVC duals stay at 0 from visit to visit
        held_lo, held_hi = xb <= lower, xb >= upper
        cold = ~(held_lo | held_hi)
        at_lo = (held_lo & (grad >= 0)) | (cold & at_lo)
        at_hi = (held_hi & (grad <= 0)) | (cold & at_hi)
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


@dataclass(frozen=True, slots=True)
class _BlockVisit:
    """What a visit to one block reads: its system, its index array, A's
    strip (a dense A's slice, a CSC A's stored entries) and, for a CSC H,
    H's strip as stored entries. A dense H or an implicit operator leaves
    ``h_strip`` None and is sliced on every visit.

    Kept (``block_system``), it is built on the block's first visit and
    read whole by the later ones: the blocks of one partition hold a dense
    A's values, or a CSC A's or H's stored entries, once between them, and
    no block holds an m x s or n x s scatter of a sparse strip."""

    system: BlockSystem
    idx: np.ndarray
    a_strip: object
    h_strip: Optional[_StoredEntries]


def _block_visit(problem: QpProblem, block, a_csc: bool, h_csc: bool,
                 beta: float) -> _BlockVisit:
    idx = np.asarray(block, dtype=int)
    A = problem.A
    As = None if A is None else _stored_columns(A, idx) if a_csc else \
        A[:, idx]
    Hs = _stored_columns(problem.H, idx) if h_csc else None
    return _BlockVisit(system=_qp_system(problem, idx, As, Hs, beta), idx=idx,
                       a_strip=As, h_strip=Hs)


def run_sweep(problem: QpProblem, x: np.ndarray, y: np.ndarray,
              order: Order, beta: float,
              piece_cache: Optional[dict] = None, *,
              tally: Optional[Counter] = None,
              _products: Optional[tuple] = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """One full pass: minimize each block in order, then one dual step.

    Returns the updated (x, y); the inputs are not modified. ``piece_cache``,
    when given, keeps what each block's visits read (see ``_BlockVisit`` and
    ``block_system``); ``tally``, when given, counts what ``solve_block``
    counts. ``_products``, the running products of x that ``solve`` carries
    across sweeps, are updated in place; without them the sweep starts from
    exact ones.
    """
    x = np.asarray(x, dtype=float).copy()
    if x.size != problem.n:
        raise ValueError(f"x has length {x.size}, expected {problem.n}")
    y = np.asarray(y, dtype=float)
    if y.size != problem.m:
        raise ValueError(f"y has length {y.size}, expected {problem.m}")
    g, r = _products if _products is not None else _exact_products(problem, x)
    # tested once a sweep, so a dense visit pays for no test, and a dense
    # sweep for little: sp.issparse, an ABC check, costs several times the
    # ndarray test
    H, A = problem.H, problem.A
    h_csc = not isinstance(H, np.ndarray) and sp.issparse(H)
    a_csc = not isinstance(A, np.ndarray) and sp.issparse(A)
    # .dot (scipy sparse has it too) is @'s BLAS call without its dispatch,
    # which at tiny s costs more than the product
    for block in order:
        visit = block_system(piece_cache, block, lambda: _block_visit(
            problem, block, a_csc, h_csc, beta))
        system, idx, As, Hs = (visit.system, visit.idx, visit.a_strip,
                               visit.h_strip)
        xb = x[idx]
        grad = g[idx] if As is None else g[idx] + As.T.dot(beta * r - y)
        new = solve_block(system, system.matrix.dot(xb) - grad, tally,
                          (xb, grad))
        # an unkept block's s x s matrix and factor are freed before H's
        # columns are read, where a kernel strip peaks
        del visit, system
        delta = new - xb
        if h_csc:
            # a column the step left where it was adds exact zeros
            if delta.any():
                g += Hs.dot(delta)
        elif H is not None:
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
    is a sorted int64 index array (``chunk_indices``'s); with ``s`` not
    dividing ``n`` the short block comes last in the partition. RP and
    CYCLIC yield the same arrays every sweep, so a sweep must not write
    them.
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
