import dataclasses
import itertools
import json
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from racml import engine, svm
from racml.engine import (
    DIVERGENCE_FACTOR,
    BlockDefinitenessError,
    BlockSystem,
    ResidualPair,
    _chol_solve,
    block_orders,
    blocks_recur,
    compute_residuals,
    run_sweep,
    run_sweeps,
    solve,
    solve_block,
)
from racml.problems import (
    Mode,
    QpProblem,
    SolverConfig,
    Status,
    as_dense,
    chunk_indices,
)
from racml.spectral import kkt_solve
from racml.svm import KernelSpec


def augmented_lagrangian(problem, x, y, beta):
    val = problem.c @ x
    if problem.H is not None:
        val += 0.5 * x @ (problem.H @ x)
    if problem.A is not None:
        r = problem.A @ x - problem.b
        val += -y @ r + 0.5 * beta * (r @ r)
    return val


def fd_gradient(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def random_problem(seed, n=6, m=2, bounded=False, h_scale=1.0):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    H = h_scale * (G @ G.T) + 0.5 * np.eye(n)
    A = rng.standard_normal((m, n))
    c = rng.standard_normal(n)
    kwargs = {}
    if bounded:
        kwargs = dict(lower=np.full(n, -0.4), upper=np.full(n, 0.4))
        x_feas = rng.uniform(-0.3, 0.3, size=n)  # keep the box feasible
    else:
        x_feas = rng.standard_normal(n)
    return QpProblem(c=c, H=H, A=A, b=A @ x_feas, **kwargs)


def assemble_block_system(problem, x, y, block, beta):
    """The system a sweep from (x, y) solves for ``block`` and the rhs of
    that visit, as ``solve_block`` receives them."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "solve_block", lambda system, rhs, tally, start:
                      seen.append((system, rhs)) or solve_block(system, rhs))
        run_sweep(problem, x, y, (tuple(block),), beta)
    return seen[0]


def factored(matrix, lower, upper):
    """A bounded block system over ``matrix``, built factored."""
    return BlockSystem(matrix, engine._cholesky(matrix), lower, upper, True)


def dual_update(y, A, x, b, beta):
    """The dual step alone: a sweep over no blocks."""
    problem = QpProblem(c=np.zeros(np.size(x)), A=A, b=b)
    return run_sweep(problem, x, y, (), beta)[1]


class TestAssembleBlockSystem:
    def test_hand_example(self):
        p = QpProblem(c=np.zeros(2), H=np.eye(2),
                      A=np.array([[1.0, 1.0]]), b=np.array([2.0]))
        sys_, rhs = assemble_block_system(p, np.zeros(2), np.zeros(1), [0], 1.0)
        np.testing.assert_allclose(sys_.matrix, [[2.0]])
        np.testing.assert_allclose(rhs, [2.0])

    def test_all_zero_data(self):
        p = QpProblem(c=np.zeros(2), A=np.eye(2), b=np.zeros(2))
        sys_, rhs = assemble_block_system(p, np.zeros(2), np.zeros(2), [0], 1.0)
        np.testing.assert_allclose(sys_.matrix, [[1.0]])
        np.testing.assert_allclose(rhs, [0.0])

    @pytest.mark.parametrize("seed", range(8))
    def test_rhs_is_negative_gradient(self, seed):
        # central finite differences of L_A over the block coordinates
        rng = np.random.default_rng(seed)
        prob = random_problem(seed)
        x = rng.standard_normal(6)
        y = rng.standard_normal(2)
        beta = float(rng.uniform(0.2, 3.0))
        block = sorted(rng.choice(6, size=2, replace=False).tolist())

        def f(xb):
            full = x.copy()
            full[block] = xb
            return augmented_lagrangian(prob, full, y, beta)

        grad = fd_gradient(f, x[np.array(block)])
        sys_, rhs = assemble_block_system(prob, x, y, block, beta)
        residual = sys_.matrix @ x[np.array(block)] - rhs
        np.testing.assert_allclose(residual, grad, atol=1e-6)

    def test_dimension_mismatch(self):
        # a wrong-length x used to fail inside numpy's matmul, unnamed
        p = QpProblem(c=np.zeros(2), H=np.eye(2))
        with pytest.raises(ValueError, match="x has length 3, expected 2"):
            assemble_block_system(p, np.zeros(3), np.zeros(0), [0], 1.0)
        with pytest.raises(ValueError, match="y has length 1, expected 0"):
            assemble_block_system(p, np.zeros(2), np.zeros(1), [0], 1.0)


def projected_gradient_oracle(matrix, rhs, lower, upper, iters=400000, tol=1e-12):
    step = 1.0 / np.linalg.eigvalsh(matrix)[-1]
    x = np.clip(np.zeros(rhs.size), lower, upper)
    for _ in range(iters):
        nxt = np.clip(x - step * (matrix @ x - rhs), lower, upper)
        if np.max(np.abs(nxt - x)) < tol * step:
            return nxt
        x = nxt
    return x


def random_box_block(seed, s=5):
    """A random SPD block, rhs and two-sided box."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((s, s))
    matrix = G @ G.T + 0.3 * np.eye(s)
    rhs = rng.standard_normal(s) * 3
    return matrix, rhs, -rng.random(s), rng.random(s)


class TestSolveBlock:
    def test_scalar(self):
        sys_ = factored(np.array([[2.0]]), np.array([-np.inf]),
                        np.array([np.inf]))
        np.testing.assert_allclose(solve_block(sys_, np.array([2.0])), [1.0])

    def test_separable_clamp(self):
        # separable quadratic: brute-force answer is coordinatewise clamp
        sys_ = factored(np.eye(2), np.zeros(2), np.ones(2))
        np.testing.assert_allclose(solve_block(sys_, np.array([5.0, -5.0])),
                                   [1.0, 0.0])

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_projected_gradient(self, seed):
        matrix, rhs, lower, upper = random_box_block(seed)
        x = solve_block(factored(matrix, lower, upper), rhs)
        assert np.all(x >= lower - 1e-12) and np.all(x <= upper + 1e-12)
        oracle = projected_gradient_oracle(matrix, rhs, lower, upper)
        np.testing.assert_allclose(x, oracle, atol=1e-9)

    @pytest.mark.parametrize("seed", range(12))
    def test_fallback_matches_projected_gradient(self, seed, monkeypatch):
        # with no PDAS step allowed, the ratio-test finish solves alone from
        # the clipped unconstrained minimizer, which every seed's leaves
        monkeypatch.setattr(engine, "PDAS_MAX_STEPS", 0)
        finishes = []
        finish = engine._ratio_test_finish
        monkeypatch.setattr(engine, "_ratio_test_finish",
                            lambda *args: finishes.append(1) or finish(*args))
        matrix, rhs, lower, upper = random_box_block(seed)
        tally = Counter()
        x = solve_block(factored(matrix, lower, upper), rhs, tally)
        assert finishes == [1] and tally == {}
        assert np.all(x >= lower) and np.all(x <= upper)
        oracle = projected_gradient_oracle(matrix, rhs, lower, upper)
        np.testing.assert_allclose(x, oracle, atol=1e-9)

    @pytest.mark.parametrize("seed", range(12))
    def test_clamp_loop_finishes_without_pdas(self, seed, monkeypatch):
        # with PDAS capped at 0 steps the ratio-test finish solves alone, to
        # box KKT; every iterate a step starts from is in the box, and none
        # raises the objective
        monkeypatch.setattr(engine, "PDAS_MAX_STEPS", 0)
        solves = []
        monkeypatch.setattr(engine, "_free_solve", logged_free_solve(solves))
        matrix, rhs, lower, upper = random_box_block(seed)
        x = solve_block(factored(matrix, lower, upper), rhs)
        assert np.all(x >= lower) and np.all(x <= upper)
        assert box_kkt_residual(matrix, rhs, lower, upper, x) <= 1e-10
        starts = [entry[4] for entry in solves] + [x]
        objective = [0.5 * v @ matrix @ v - rhs @ v for v in starts]
        for v in starts:
            assert np.all(v >= lower) and np.all(v <= upper)
        assert all(b <= a + 1e-12 * max(1.0, abs(a))
                   for a, b in zip(objective, objective[1:]))

    def test_pdas_cycle_hands_over_to_the_ratio_test_finish(self,
                                                            monkeypatch):
        # not an M-matrix: PDAS solves on the free sets [0, 2] and [1, 2],
        # each after a step with every entry bound, then comes back to its
        # first active set; the finish starts from the last PDAS iterate
        # clipped into the box, where every entry is bound, releases entry
        # 2 and ends at the minimizer
        matrix = np.array([[1.94, 3.19, 2.38],
                           [3.19, 6.79, 5.36],
                           [2.38, 5.36, 4.38]])
        rhs = np.array([-0.38, 3.35, 1.33])
        lower = np.array([-0.4, -0.97, -0.73])
        upper = np.array([0.79, 0.52, 0.69])
        solves, finishes = [], []
        finish = engine._ratio_test_finish
        monkeypatch.setattr(engine, "_free_solve", logged_free_solve(solves))
        monkeypatch.setattr(engine, "_ratio_test_finish",
                            lambda *args: finishes.append(args[4].copy())
                            or finish(*args))
        tally = Counter()
        x = solve_block(factored(matrix, lower, upper), rhs, tally)
        assert [entry[2].tolist() for entry in solves] == \
            [[], [0, 2], [], [1, 2], [], [2]]
        assert len(finishes) == 1 and tally == {}
        np.testing.assert_array_equal(finishes[0][[1, 2]], solves[3][3])
        assert box_kkt_residual(matrix, rhs, lower, upper, x) <= 1e-10

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_pdas_meets_kkt_and_matches_the_finish_alone(self, data):
        # solve_block against the ratio-test finish alone (PDAS capped at 0
        # steps): both end at box KKT without using up their budget, and
        # bit-equal where their last free-set solves agree
        matrix, lower, upper, rhs = data.draw(pdas_blocks())
        system = factored(matrix, lower, upper)
        ends = []
        for cap in (engine.PDAS_MAX_STEPS, 0):
            solves, tally = [], Counter()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(engine, "PDAS_MAX_STEPS", cap)
                patch.setattr(engine, "_free_solve", logged_free_solve(solves))
                x = solve_block(system, rhs, tally)
            assert np.all(x >= lower) and np.all(x <= upper)
            assert box_kkt_residual(matrix, rhs, lower, upper, x) <= 1e-10
            assert tally == {}
            ends.append((x, final_active_set(solves, x)))
        (x, end), (alone, alone_end) = ends
        if end is not None and end == alone_end:
            assert np.array_equal(x, alone)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_warm_seed_meets_kkt_and_matches_the_cold_seed(self, data):
        # PDAS seeded from a start holding entries at a bound, with
        # gradients pointing out of the box or into it, or from the answer
        # itself: the solve ends at box KKT, its residual over max(1, |Mx|,
        # |rhs|), the scale of the engine's 1e-14 tests, within 1e-13
        # (1.3e-14 at most over 20,000 draws, cold-seeded solves alike);
        # within rounding of the cold-seeded solve, and bit-equal to it
        # where their last free-set solves agree
        matrix, lower, upper, rhs = data.draw(pdas_blocks())
        system = factored(matrix, lower, upper)
        cold_log, warm_log = [], []
        cold_solve = logged_free_solve(cold_log)
        warm_solve = logged_free_solve(warm_log)
        tally = Counter()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_free_solve", cold_solve)
            cold = solve_block(system, rhs, tally)
            if data.draw(st.booleans(), label="start at the answer"):
                xb = cold.copy()
            else:
                xb = block_start(data.draw(st.integers(0, 2**32 - 1)),
                                 lower, upper)
            patch.setattr(engine, "_free_solve", warm_solve)
            x = solve_block(system, rhs, tally, (xb, matrix @ xb - rhs))
        assert tally == {}
        assert np.all(x >= lower) and np.all(x <= upper)
        assert box_kkt_residual(matrix, rhs, lower, upper, x) <= 1e-13
        assert np.abs(x - cold).max() <= 1e-12 * max(1.0, np.abs(cold).max())
        end = final_active_set(warm_log, x)
        if end is not None and end == final_active_set(cold_log, cold):
            assert np.array_equal(x, cold)

    def test_unconverged_finish_is_counted(self, monkeypatch):
        # clipping the unconstrained minimizer gives (1, 0); the minimizer is
        # (1, 0.6), which a finish with no step budget does not reach
        monkeypatch.setattr(engine, "PDAS_MAX_STEPS", 0)
        monkeypatch.setattr(engine, "ACTIVE_SET_PASS_FACTOR", 0)
        system = factored(np.array([[1.0, 0.9], [0.9, 1.0]]), np.zeros(2),
                          np.ones(2))
        rhs = np.array([2.0, 1.5])
        tally = Counter()
        np.testing.assert_array_equal(solve_block(system, rhs, tally),
                                      [1.0, 0.0])
        assert tally == {"unconverged": 1}
        monkeypatch.setattr(engine, "ACTIVE_SET_PASS_FACTOR", 10)
        tally = Counter()
        np.testing.assert_allclose(solve_block(system, rhs, tally), [1.0, 0.6])
        assert tally == {}

    def test_one_sided_bounds(self):
        sys_ = factored(np.eye(2), np.array([-np.inf, -1.0]),
                        np.array([1.0, np.inf]))
        np.testing.assert_allclose(solve_block(sys_, np.array([5.0, -5.0])),
                                   [1.0, -1.0])

    def test_not_positive_definite(self):
        # a block system is factored as it is built, before any solve
        prob = QpProblem(c=np.ones(1), H=np.zeros((1, 1)))
        solves = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "solve_block",
                          lambda *args: solves.append(args))
            with pytest.raises(BlockDefinitenessError,
                               match="positive definite"):
                run_sweep(prob, np.zeros(1), np.zeros(0), ((0,),), 1.0)
        assert solves == []
        with pytest.raises(BlockDefinitenessError, match="positive definite"):
            engine._cholesky(np.zeros((1, 1)))

    def test_tie_at_a_bound_takes_no_fallback(self):
        # the minimizer holds x_0 at its upper bound with a zero multiplier;
        # M x and rhs are ~1e5, so the computed gradient there is rounding
        # noise far above an absolute 1e-14
        matrix = np.array([[4124.191768149985, -3711.4424922074218],
                           [-3711.4424922074218, 5178.680856328658]])
        lower = np.array([-np.inf, -48.21135301636291])
        upper = np.array([61.61964083533591, np.inf])
        rhs = np.array([-101856.08812585012, 268021.4166752065])
        finishes = []
        finish = engine._ratio_test_finish
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_ratio_test_finish",
                          lambda *args: finishes.append(1) or finish(*args))
            x = solve_block(factored(matrix, lower, upper), rhs)
        assert finishes == []
        assert box_kkt_residual(matrix, rhs, lower, upper, x) <= 1e-13

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_kkt_on_blocks_with_ties(self, data):
        matrix, lower, upper, rhs = data.draw(tied_box_blocks())
        x = solve_block(factored(matrix, lower, upper), rhs)
        assert np.all(x >= lower) and np.all(x <= upper)
        assert box_kkt_residual(matrix, rhs, lower, upper, x) <= 1e-10

    @settings(max_examples=200, deadline=None)
    @given(st.integers(5, 79), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @example(40, 3, 11)
    @example(60, 4, 7)
    @example(79, 5, 2)
    def test_rank_deficient_blocks_finish_exactly(self, s, rank, seed):
        # linear-kernel C-SVC blocks: rank <= 6 plus a 1e-9 ridge, where
        # PDAS cycles and a first-order finish needs steps in proportion to
        # the condition number (the examples are blocks where projected
        # gradient stopped short); every solve ends in the box at box KKT,
        # with nothing counted
        matrix, lower, upper, rhs = svm_block(s, rank, seed)
        tally = Counter()
        x = solve_block(factored(matrix, lower, upper), rhs, tally)
        assert np.all(x >= lower) and np.all(x <= upper)
        assert box_kkt_residual(matrix, rhs, lower, upper, x) <= 1e-10
        assert tally == {}


def logged_free_solve(log):
    """``engine._free_solve``, appending each call's free set, the values it
    holds the bound entries at, its result and the iterate it starts from
    to ``log``."""
    free_solve = engine._free_solve

    def logged(matrix, rhs, x, free, *factored):
        solved = free_solve(matrix, rhs, x, free, *factored)
        f = np.flatnonzero(free)
        log.append((f.tobytes(), x[~free].tobytes(), f, solved[f], x.copy()))
        return solved

    return logged


def final_active_set(log, x):
    """The free set and bound values of ``log``'s last free-set solve, if x
    is that solve's result, else None."""
    if not log:
        return None
    f_key, bound_key, f, xf, _ = log[-1]
    return (f_key, bound_key) if np.array_equal(x[f], xf) else None


def box_kkt_residual(matrix, rhs, lower, upper, x):
    """||P(x - (Mx - rhs)) - x||_inf over max(1, |Mx|, |rhs|): zero exactly
    at the minimizer of 1/2 x'Mx - rhs'x over the box."""
    mx = matrix @ x
    step = np.clip(x - (mx - rhs), lower, upper) - x
    return float(np.abs(step).max()) / max(1.0, np.abs(mx).max(),
                                           np.abs(rhs).max())


@st.composite
def tied_box_blocks(draw):
    """A random SPD block, box and rhs whose minimizer holds some entries at
    a bound, half of those with a zero multiplier (a tie); bounds may be
    one-sided or of zero width, and scales span several decades."""
    s = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = rng.standard_normal((s, s)) * 10 ** rng.uniform(-1, 2)
    matrix = G @ G.T + 10 ** rng.uniform(-3, 1) * np.eye(s)
    scale = 10 ** rng.uniform(-1, 3)
    lower = -scale * rng.uniform(0, 1, s)
    upper = scale * rng.uniform(0, 1, s)
    kind = rng.integers(0, 4, s)
    lower[kind == 1] = -np.inf
    upper[kind == 2] = np.inf
    upper[kind == 3] = lower[kind == 3]
    x = np.clip(rng.uniform(-scale, scale, s), lower, upper)
    state = rng.integers(0, 3, s)
    x = np.where((state == 1) & np.isfinite(lower), lower, x)
    x = np.where((state == 2) & np.isfinite(upper), upper, x)
    multiplier = rng.exponential(scale, s) * (rng.uniform(size=s) < 0.5)
    grad = np.where(x == lower, multiplier,
                    np.where(x == upper, -multiplier, 0.0))
    return matrix, lower, upper, matrix @ x - grad


@st.composite
def pdas_blocks(draw):
    """A bounded block whose unconstrained minimizer mostly leaves the box:
    ``tied_box_blocks``' ties, a dense G G' + eps I (not an M-matrix), or a
    rank-deficient G G' with a ridge 1e-9 of its largest diagonal entry;
    each entry's bounds are two-sided, one-sided, infinite or of zero
    width."""
    kind = draw(st.sampled_from(["tied", "dense", "near_singular"]))
    if kind == "tied":
        return draw(tied_box_blocks())
    s = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "dense":
        G = rng.standard_normal((s, s)) * 10 ** rng.uniform(-1, 2)
        matrix = G @ G.T + 10 ** rng.uniform(-6, 0) * np.eye(s)
    else:
        G = rng.standard_normal((s, int(rng.integers(1, s + 1))))
        matrix = G @ G.T
        matrix += 1e-9 * matrix.diagonal().max() * np.eye(s)
    scale = 10 ** rng.uniform(-1, 3)
    lower = -scale * rng.uniform(0, 1, s)
    upper = scale * rng.uniform(0, 1, s)
    bounds = rng.integers(0, 5, s)
    lower[bounds == 1] = -np.inf
    upper[bounds == 2] = np.inf
    lower[bounds == 3], upper[bounds == 3] = -np.inf, np.inf
    upper[bounds == 4] = lower[bounds == 4]
    rhs = matrix @ rng.uniform(-3 * scale, 3 * scale, s)
    return matrix, lower, upper, rhs


def block_start(seed, lower, upper):
    """Block values in the box: each entry inside it, or at its lower or
    upper bound where that bound is finite."""
    rng = np.random.default_rng(seed)
    s = lower.size
    width = np.where(np.isfinite(upper - lower), upper - lower, 1.0)
    base = np.where(np.isfinite(lower), lower,
                    np.where(np.isfinite(upper), upper - width, -width / 2))
    x = np.clip(base + width * rng.uniform(0, 1, s), lower, upper)
    state = rng.integers(0, 3, s)
    x = np.where((state == 1) & np.isfinite(lower), lower, x)
    return np.where((state == 2) & np.isfinite(upper), upper, x)


def svm_block(s, rank, seed):
    """A bounded block shaped like a linear-kernel C-SVC block step's:
    M = (y y') * (X X') + beta y y' for labels y and features X of ``rank``
    columns, plus a ridge 1e-9 of its largest diagonal entry, over the box
    [0, C], with rhs M z + e + y * (X v + t) for some z in the box."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((s, rank)) + rng.uniform(-2, 2, rank)
    y = rng.choice([-1.0, 1.0], s)
    yy = np.outer(y, y)
    matrix = yy * (X @ X.T) + 10 ** rng.uniform(-2, 1) * yy
    matrix += 1e-9 * matrix.diagonal().max() * np.eye(s)
    C = 10 ** rng.uniform(-1, 1)
    z = rng.uniform(0, C, s) * (rng.uniform(size=s) < 0.5)
    rhs = matrix @ z + 1.0 + y * (X @ rng.standard_normal(rank)
                                  + rng.standard_normal())
    return matrix, np.zeros(s), np.full(s, C), rhs


def direct_free_solve(matrix, rhs, x, free):
    """``engine._free_solve``'s direct route: M_ff gathered and factored;
    with every entry bound, x as it is."""
    f, bnd = np.flatnonzero(free), np.flatnonzero(~free)
    x = x.copy()
    if f.size:
        x[f] = _chol_solve(engine._cholesky(matrix[np.ix_(f, f)]),
                           rhs[f] - matrix[np.ix_(f, bnd)] @ x[bnd])
    return x


@st.composite
def bound_counts_past_the_flop_rule(draw):
    """A block size s, a bound count k the flop rule sends to the direct
    route (2 k s^2 >= (s - k)^3 / 3, up to k = s) and a seed."""
    s = draw(st.integers(1, 80))
    first = next(k for k in range(s + 1)
                 if not 2 * k * s * s < (s - k) ** 3 / 3)
    return s, draw(st.integers(first, s)), draw(st.integers(0, 2**32 - 1))


def logged_schur_solve(log):
    """``engine._schur_solve``, appending each call's bound count and
    whether it kept its result to ``log``."""
    schur_solve = engine._schur_solve

    def logged(matrix, rhs, x, f, bnd, chol, x0):
        kept = schur_solve(matrix, rhs, x, f, bnd, chol, x0)
        log.append((bnd.size, kept is not None))
        return kept

    return logged


def null_on_two_entries(s, seed):
    """An s x s block Q diag(1e-10, ...) Q' whose smallest eigenvector
    (e_0 + e_1)/sqrt(2) sits on two entries, its other eigenvalues in
    [1, 10], and rhs M x_in + Q[:, 0] for an x_in inside [-1, 1]: the
    unconstrained minimizer x_in + Q[:, 0]/1e-10 is far out on entries 0
    and 1 only."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((s, s))
    G[:, 0] = 0.0
    G[:2, 0] = 1.0
    Q = np.linalg.qr(G)[0]
    matrix = (Q * np.concatenate([[1e-10], rng.uniform(1, 10, s - 1)])) @ Q.T
    matrix = (matrix + matrix.T) / 2
    return matrix, matrix @ rng.uniform(-0.9, 0.9, s) + Q[:, 0]


class TestFreeSolveRoutes:
    @pytest.mark.parametrize("s", [20, 60, 250])
    def test_kept_factor_route_matches_the_direct_route(self, s,
                                                        monkeypatch):
        # every k the flop rule sends to M's kept factor goes there, keeps
        # its result, holds x_B exactly and agrees with the direct route;
        # the next k goes direct
        rng = np.random.default_rng(s)
        G = rng.standard_normal((s, s))
        matrix = G @ G.T / s + np.eye(s)
        chol = engine._cholesky(matrix)
        rhs = 10 * rng.standard_normal(s)
        x0 = _chol_solve(chol, rhs)
        ks = [k for k in range(s) if 2 * k * s * s < (s - k) ** 3 / 3]
        log = []
        monkeypatch.setattr(engine, "_schur_solve", logged_schur_solve(log))
        for k in range(ks[-1] + 2):
            free = np.ones(s, dtype=bool)
            free[rng.choice(s, k, replace=False)] = False
            x = np.where(free, 0.0, rng.uniform(-1, 1, s))
            got = engine._free_solve(matrix, rhs, x, free, chol, x0)
            want = direct_free_solve(matrix, rhs, x, free)
            assert np.array_equal(got[~free], x[~free])
            assert np.abs(got - want).max() <= \
                1e-12 * max(1.0, np.abs(want).max())
        assert log == [(k, True) for k in ks[1:]]

    @settings(max_examples=150, deadline=None)
    @given(bound_counts_past_the_flop_rule())
    @example((40, 40, 0))
    @example((40, 39, 1))
    @example((250, 250, 2))
    @example((250, 249, 3))
    def test_direct_route_matches_the_ix_gather(self, case):
        # past the flop rule a step gathers M_ff and M_fB with broadcast
        # indices; it equals the np.ix_ gather's solve bit for bit, and with
        # every entry bound (k = s) it is x as it is
        s, k, seed = case
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((s, s))
        matrix = G @ G.T / s + np.eye(s)
        chol = engine._cholesky(matrix)
        rhs = 10 * rng.standard_normal(s)
        x0 = _chol_solve(chol, rhs)
        free = np.ones(s, dtype=bool)
        free[rng.choice(s, k, replace=False)] = False
        x = np.where(free, 0.0, rng.uniform(-1, 1, s))
        got = engine._free_solve(matrix, rhs, x, free, chol, x0)
        assert np.array_equal(got, direct_free_solve(matrix, rhs, x, free))

    @pytest.mark.parametrize("seed", range(3))
    def test_cancellation_falls_back_to_the_direct_route(self, seed,
                                                         monkeypatch):
        # with entries 0 and 1 bound, x_f = x0_f + Z_f mu cancels against
        # x0's 1e10-sized entries and misses the free-set gradient check;
        # the step is then the direct route's, bit for bit, and the whole
        # solve ends at box KKT with nothing counted
        s = 30
        matrix, rhs = null_on_two_entries(s, seed)
        lower, upper = -np.ones(s), np.ones(s)
        system = factored(matrix, lower, upper)
        x0 = _chol_solve(system.chol, rhs)
        x = np.clip(x0, lower, upper)
        free = np.arange(s) >= 2
        log = []
        monkeypatch.setattr(engine, "_schur_solve", logged_schur_solve(log))
        got = engine._free_solve(matrix, rhs, x, free, system.chol, x0)
        assert log == [(2, False)]
        assert got.tobytes() == direct_free_solve(matrix, rhs, x,
                                                  free).tobytes()
        tally = Counter()
        x = solve_block(system, rhs, tally)
        assert box_kkt_residual(matrix, rhs, lower, upper, x) <= 1e-10
        assert tally == {}

    def test_schur_complement_that_does_not_factor_goes_direct(self,
                                                               monkeypatch):
        # E_B'M^-1 E_B, formed from M's factor, can be numerically
        # indefinite on a near-singular M that still factors; the step
        # then goes direct instead of raising
        s = 30
        matrix, rhs = null_on_two_entries(s, 0)
        system = factored(matrix, -np.ones(s), np.ones(s))
        x0 = _chol_solve(system.chol, rhs)
        x = np.clip(x0, -1.0, 1.0)
        free = np.arange(s) >= 2
        cholesky = engine._cholesky

        def indefinite_schur(m):
            if m.shape == (2, 2):
                raise BlockDefinitenessError("not positive definite")
            return cholesky(m)

        monkeypatch.setattr(engine, "_cholesky", indefinite_schur)
        got = engine._free_solve(matrix, rhs, x, free, system.chol, x0)
        assert got.tobytes() == direct_free_solve(matrix, rhs, x,
                                                  free).tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_few_bounds_factor_only_the_schur_complement(self, seed,
                                                         monkeypatch):
        # s = 250, a few entries of the unconstrained minimizer out of the
        # box: each active-set step with k entries bound factors one k x k
        # matrix, never M_ff, and the solve ends with at most 9 bound
        s = 250
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((s, s))
        matrix = G @ G.T / s + np.eye(s)
        lower, upper = -np.ones(s), np.ones(s)
        rhs = matrix @ rng.uniform(-0.9, 0.9, s)
        rhs[rng.choice(s, 5, replace=False)] += 2 * rng.choice([-1, 1], 5)
        system = factored(matrix, lower, upper)
        shapes, solves = [], []
        cholesky = engine._cholesky
        monkeypatch.setattr(engine, "_cholesky", lambda m:
                            shapes.append(m.shape) or cholesky(m))
        monkeypatch.setattr(engine, "_free_solve", logged_free_solve(solves))
        tally = Counter()
        x = solve_block(system, rhs, tally)
        ks = [s - entry[2].size for entry in solves]
        assert ks and shapes == [(k, k) for k in ks]
        assert ((x == lower) | (x == upper)).sum() <= 9 and tally == {}
        assert box_kkt_residual(matrix, rhs, lower, upper, x) <= 1e-10


@st.composite
def factored_blocks(draw):
    """A random SPD block's lower Cholesky factor and a right-hand side."""
    s = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = rng.standard_normal((s, s))
    shift = draw(st.sampled_from([1e-6, 1e-2, 1.0, float(s)]))
    chol = np.linalg.cholesky(G @ G.T + shift * np.eye(s))
    return chol, rng.standard_normal(s) * 10.0 ** draw(st.integers(-3, 3))


class TestCholSolve:
    @settings(max_examples=60, deadline=None)
    @given(factored_blocks())
    def test_bit_equal_to_cho_solve(self, case):
        chol, rhs = case
        before = rhs.copy()
        got = _chol_solve(chol, rhs)
        want = scipy.linalg.cho_solve((chol, True), rhs, check_finite=False)
        assert np.array_equal(got, want)
        assert np.array_equal(rhs, before)

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("sweeps", [1, 3])  # built per visit, then kept
    def test_indefinite_block_surfaces_through_solve(self, mode, sweeps):
        prob = QpProblem(c=np.ones(4), H=np.diag([1.0, -1.0, -2.0, 3.0]))
        cfg = SolverConfig(mode=mode, block_size=2, max_iters=sweeps)
        with pytest.raises(BlockDefinitenessError, match="positive definite"):
            solve(prob, cfg)


class TestDualUpdate:
    def test_feasible_point_unchanged(self):
        A = np.array([[1.0, 1.0]])
        y = np.array([3.0])
        np.testing.assert_allclose(
            dual_update(y, A, np.array([1.0, 1.0]), np.array([2.0]), 1.0), y)

    def test_direct_substitution(self):
        got = dual_update(np.zeros(1), np.array([[1.0, 1.0]]),
                          np.zeros(2), np.array([2.0]), 1.0)
        np.testing.assert_allclose(got, [2.0])

    def test_linear_in_beta(self):
        A = np.array([[1.0, 1.0]])
        y = np.array([1.0])
        x = np.array([0.5, 0.0])
        b = np.array([2.0])
        full = dual_update(y, A, x, b, 1.0) - y
        half = dual_update(y, A, x, b, 0.5) - y
        np.testing.assert_allclose(half, 0.5 * full)


class TestResiduals:
    def test_exact_kkt_point(self):
        p = QpProblem(c=np.zeros(2), H=np.eye(2),
                      A=np.array([[1.0, 1.0]]), b=np.array([2.0]))
        res = compute_residuals(p, np.array([1.0, 1.0]), np.array([1.0]))
        assert res.primal == 0.0
        assert res.dual == 0.0

    def test_primal_measures_violation(self):
        p = QpProblem(c=np.zeros(2), A=np.array([[1.0, 0.0], [0.0, 1.0]]),
                      b=np.array([1.0, 1.0]))
        res = compute_residuals(p, np.array([1.0, 0.7]), np.zeros(2))
        assert res.primal == pytest.approx(0.3)

    @pytest.mark.parametrize("seed", range(6))
    def test_zero_dual_iff_projected_stationarity(self, seed):
        # independent KKT checker: stationarity holds iff for each
        # coordinate either grad=0 (interior), grad>=0 (at lower), or
        # grad<=0 (at upper)
        rng = np.random.default_rng(seed)
        prob = random_problem(seed, bounded=True)
        x = np.clip(rng.standard_normal(6), prob.lower, prob.upper)
        y = rng.standard_normal(2)
        grad = prob.H @ x + prob.c - prob.A.T @ y
        at_lo = np.isclose(x, prob.lower)
        at_hi = np.isclose(x, prob.upper)
        stationary = np.all(
            (~at_lo & ~at_hi & np.isclose(grad, 0.0, atol=1e-12))
            | (at_lo & (grad >= -1e-12)) | (at_hi & (grad <= 1e-12)))
        res = compute_residuals(prob, x, y)
        assert (res.dual <= 1e-12) == bool(stationary)
        # and an exactly stationary point gives exactly zero
        xs, ys = kkt_solve(prob)
        if np.all(xs >= prob.lower) and np.all(xs <= prob.upper):
            assert compute_residuals(prob, xs, ys).dual < 1e-10


def textbook_two_block_admm(A1, A2, c1, c2, b, beta, sweeps):
    """Independent reference: classic 2-block scheme for min c'x s.t. Ax=b."""
    x1 = np.zeros(A1.shape[1])
    x2 = np.zeros(A2.shape[1])
    y = np.zeros(A1.shape[0])
    trajectory = []
    for _ in range(sweeps):
        x1 = np.linalg.solve(beta * (A1.T @ A1),
                             A1.T @ y - c1 - beta * (A1.T @ (A2 @ x2 - b)))
        x2 = np.linalg.solve(beta * (A2.T @ A2),
                             A2.T @ y - c2 - beta * (A2.T @ (A1 @ x1 - b)))
        y = y - beta * (A1 @ x1 + A2 @ x2 - b)
        trajectory.append(np.concatenate([x1, x2, y]))
    return trajectory


class TestSolve:
    def test_unconverged_blocks_are_counted(self, monkeypatch):
        # each sweep's one block leaves the box and reaches a ratio-test
        # finish with no step budget, which stops short of a KKT point
        prob = random_problem(0, bounded=True)
        cfg = SolverConfig(mode=Mode.CYCLIC, block_size=6, beta_penalty=1.0,
                           max_iters=4, seed=0)
        assert solve(prob, cfg).unconverged_blocks == 0
        monkeypatch.setattr(engine, "PDAS_MAX_STEPS", 0)
        monkeypatch.setattr(engine, "ACTIVE_SET_PASS_FACTOR", 0)
        finishes = []
        finish = engine._ratio_test_finish
        monkeypatch.setattr(engine, "_ratio_test_finish", lambda *args:
                            finishes.append(1) or finish(*args))
        res = solve(prob, cfg)
        assert res.unconverged_blocks == len(finishes) == 4

    @pytest.mark.parametrize("mode", [Mode.RAC, Mode.RP, Mode.CYCLIC])
    def test_tiny_symmetric_qp(self, mode):
        prob = QpProblem(c=np.zeros(2), H=np.eye(2),
                         A=np.array([[1.0, 1.0]]), b=np.array([2.0]))
        cfg = SolverConfig(mode=mode, block_size=1, beta_penalty=1.0,
                           max_iters=500, tol_primal=1e-10, tol_dual=1e-10,
                           seed=4)
        res = solve(prob, cfg)
        assert res.status == Status.CONVERGED
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-8)
        np.testing.assert_allclose(res.y, [1.0], atol=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_lcqp_matches_kkt_oracle(self, seed):
        prob = random_problem(seed, n=6, m=2)
        xs, ys = kkt_solve(prob)
        cfg = SolverConfig(mode=Mode.RAC, block_size=2, beta_penalty=1.0,
                           max_iters=3000, tol_primal=1e-10, tol_dual=1e-10,
                           seed=seed)
        res = solve(prob, cfg)
        assert res.status == Status.CONVERGED
        np.testing.assert_allclose(res.x, xs, atol=1e-6)

    def test_histories_match_iterations(self):
        prob = random_problem(0)
        cfg = SolverConfig(mode=Mode.RAC, block_size=3, beta_penalty=1.0,
                           max_iters=7, tol_primal=1e-16, tol_dual=1e-16,
                           seed=0, fixed_iterations=True)
        res = solve(prob, cfg)
        assert res.iterations == 7
        assert len(res.primal_residual_history) == 7
        assert len(res.dual_residual_history) == 7

    def test_converged_implies_tolerances(self):
        prob = random_problem(1)
        cfg = SolverConfig(mode=Mode.RP, block_size=2, beta_penalty=1.0,
                           max_iters=5000, tol_primal=1e-8, tol_dual=1e-8,
                           seed=1)
        res = solve(prob, cfg)
        assert res.status == Status.CONVERGED
        assert res.primal_residual <= 1e-8
        assert res.dual_residual <= 1e-8

    def test_bit_determinism(self):
        prob = random_problem(2, bounded=True)
        cfg = SolverConfig(mode=Mode.RAC, block_size=2, beta_penalty=0.7,
                           max_iters=50, tol_primal=1e-16, tol_dual=1e-16,
                           seed=9, fixed_iterations=True)
        a = solve(prob, cfg)
        b = solve(prob, cfg)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.primal_residual_history,
                              b.primal_residual_history)

    def test_cyclic_is_deterministic_special_case(self):
        prob = random_problem(3)
        cfg = SolverConfig(mode=Mode.CYCLIC, block_size=2, beta_penalty=1.0,
                           max_iters=40, tol_primal=1e-16, tol_dual=1e-16,
                           seed=0, fixed_iterations=True)
        a = solve(prob, cfg)
        b = solve(prob, SolverConfig(mode=Mode.CYCLIC, block_size=2,
                                     beta_penalty=1.0, max_iters=40,
                                     tol_primal=1e-16, tol_dual=1e-16,
                                     seed=12345, fixed_iterations=True))
        np.testing.assert_array_equal(a.x, b.x)  # seed plays no role

    def test_two_block_reduction_matches_textbook(self):
        for seed in range(3):
            rng = np.random.default_rng(500 + seed)
            s = 3
            n = 2 * s
            A = rng.standard_normal((n, n))
            c = A.T @ rng.standard_normal(n)
            b = A @ rng.standard_normal(n)
            prob = QpProblem(c=c, A=A, b=b)
            ref = textbook_two_block_admm(A[:, :s], A[:, s:], c[:s], c[s:],
                                          b, 1.0, 60)
            x = np.zeros(n)
            y = np.zeros(n)
            groups = (tuple(range(s)), tuple(range(s, n)))
            for k in range(60):
                x, y = run_sweep(prob, x, y, groups, 1.0)
                np.testing.assert_allclose(
                    np.concatenate([x, y]), ref[k], atol=1e-12)

    def test_block_minimization_monotone_and_feasible(self):
        # exact block minimization can never increase the augmented
        # Lagrangian, and the iterate stays inside the box
        prob = random_problem(7, bounded=True)
        beta = 1.0
        rng = np.random.default_rng(0)
        x = np.clip(np.zeros(6), prob.lower, prob.upper)
        y = np.zeros(2)
        for sweep in range(30):
            perm = rng.permutation(6)
            for start in (0, 2, 4):
                block = sorted(int(i) for i in perm[start:start + 2])
                before = augmented_lagrangian(prob, x, y, beta)
                x[block] = solve_block(
                    *assemble_block_system(prob, x, y, block, beta))
                after = augmented_lagrangian(prob, x, y, beta)
                assert after <= before + 1e-10
                assert np.all(x >= prob.lower) and np.all(x <= prob.upper)
            y = dual_update(y, prob.A, x, prob.b, beta)

    def test_divergence_detected(self):
        # the classic 3-block cyclic counterexample: a linear system whose
        # deterministic cyclic sweep spirals outward (spectral radius ~1.028);
        # a nonzero linear term puts the fixed point at O(1) so the unstable
        # mode starts with visible amplitude
        A = np.array([[1.0, 1.0, 1.0],
                      [1.0, 1.0, 2.0],
                      [1.0, 2.0, 2.0]])
        prob = QpProblem(c=np.array([1.0, -2.0, 0.5]), A=A, b=np.ones(3))
        cfg = SolverConfig(mode=Mode.CYCLIC, block_size=1, beta_penalty=1.0,
                           max_iters=1500, tol_primal=1e-12, tol_dual=1e-12,
                           seed=0)
        res = solve(prob, cfg)
        assert res.status == Status.DIVERGED
        assert res.iterations < 1500

    @pytest.mark.parametrize("beta", [np.nan, np.inf])
    def test_non_finite_penalty_refused(self, beta):
        prob = QpProblem(c=np.ones(2), H=np.eye(2), A=np.ones((1, 2)),
                         b=np.ones(1))
        with pytest.raises(ValueError, match="beta_penalty"):
            solve(prob, SolverConfig(block_size=1, beta_penalty=beta))

    def test_invalid_problem_rejected(self):
        # an invalid problem cannot be built, so it never reaches solve
        with pytest.raises(ValueError, match="invalid problem"):
            QpProblem(c=np.zeros(2), H=np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_medium_boxed_qp(self):
        # a few hundred variables with active bounds, multiple blocks
        rng = np.random.default_rng(99)
        n, m = 300, 40
        G = rng.standard_normal((n, n)) / np.sqrt(n)
        H = G @ G.T + 0.5 * np.eye(n)
        A = rng.standard_normal((m, n))
        x_feas = rng.uniform(-0.25, 0.25, size=n)
        prob = QpProblem(c=rng.standard_normal(n), H=H, A=A, b=A @ x_feas,
                         lower=np.full(n, -0.3), upper=np.full(n, 0.3))
        cfg = SolverConfig(mode=Mode.RAC, block_size=50, beta_penalty=1.0,
                           max_iters=2000, tol_primal=1e-7, tol_dual=1e-7,
                           seed=1)
        res = solve(prob, cfg)
        assert res.status == Status.CONVERGED
        assert np.any(np.isclose(res.x, prob.lower) |
                      np.isclose(res.x, prob.upper))  # bounds really engage
        from racml.spectral import kkt_residual
        assert kkt_residual(prob, res.x, res.y) <= 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_box_constrained_solve_reaches_kkt(self, seed):
        # bounds tight enough that several coordinates end up active
        prob = random_problem(seed + 40, bounded=True)
        cfg = SolverConfig(mode=Mode.RAC, block_size=2, beta_penalty=1.0,
                           max_iters=5000, tol_primal=1e-9, tol_dual=1e-9,
                           seed=seed)
        res = solve(prob, cfg)
        assert res.status == Status.CONVERGED
        assert np.all(res.x >= prob.lower - 1e-12)
        assert np.all(res.x <= prob.upper + 1e-12)
        from racml.spectral import kkt_residual
        assert kkt_residual(prob, res.x, res.y) <= 1e-8


def inline_orders(mode, n, s, seed, sweeps):
    """The order drawing each solver wrote inline before the shared source."""
    rng = np.random.default_rng(seed)
    if mode == Mode.CYCLIC:
        fixed = chunk_indices(np.arange(n), s)
    elif mode == Mode.RP:
        fixed = chunk_indices(rng.permutation(n), s)
    orders = []
    for _ in range(sweeps):
        if mode == Mode.RAC:
            orders.append(chunk_indices(rng.permutation(n), s))
        elif mode == Mode.RP:
            orders.append(tuple(fixed[i] for i in rng.permutation(len(fixed))))
        else:
            orders.append(fixed)
    return orders


@st.composite
def order_cases(draw):
    n = draw(st.integers(1, 40))
    return (draw(st.sampled_from(list(Mode))), n, draw(st.integers(1, n)),
            draw(st.integers(0, 2**32 - 1)))


class TestBlocksRecur:
    @pytest.mark.parametrize("mode", [Mode.RP, Mode.CYCLIC])
    def test_fixed_partition_recurs_from_the_second_sweep(self, mode):
        assert not blocks_recur(mode, 10_000, 100, 1)
        assert blocks_recur(mode, 10_000, 100, 2)

    def test_rac_recurs_once_visits_outnumber_distinct_blocks(self):
        # 6 variables in blocks of 2: C(6, 2) = 15 blocks, 3 per sweep
        assert not blocks_recur(Mode.RAC, 6, 2, 5)
        assert blocks_recur(Mode.RAC, 6, 2, 6)
        # 7 in blocks of 3 adds C(7, 1) = 7 short blocks to C(7, 3) = 35
        assert not blocks_recur(Mode.RAC, 7, 3, 14)
        assert blocks_recur(Mode.RAC, 7, 3, 15)

    def test_rac_keeps_nothing_on_many_distinct_blocks(self):
        # C(64, 4) = 635376 blocks: 100 sweeps of 16 revisit almost none
        assert not blocks_recur(Mode.RAC, 64, 4, 100)
        # past n = 64 RAC keeps nothing, however often its blocks recur
        assert not blocks_recur(Mode.RAC, 65, 1, 10**6)

    def test_rac_without_recurrence_factors_every_visit(self, monkeypatch):
        prob = random_problem(7, n=40, m=3)
        factored = []
        cholesky = engine._cholesky
        monkeypatch.setattr(engine, "_cholesky",
                            lambda mat: factored.append(mat) or cholesky(mat))
        cfg = SolverConfig(mode=Mode.RAC, block_size=5, beta_penalty=1.0,
                           max_iters=6, tol_primal=1e-16, tol_dual=1e-16,
                           seed=2, fixed_iterations=True)
        solve(prob, cfg)
        assert len(factored) == 6 * 8


class TestBlockCache:
    @pytest.mark.parametrize("mode", [Mode.RAC, Mode.RP])
    def test_small_problem_factors_each_block_once(self, mode, monkeypatch):
        prob = random_problem(4, n=6, m=2)
        factored = []
        cholesky = engine._cholesky
        monkeypatch.setattr(engine, "_cholesky",
                            lambda mat: factored.append(mat) or cholesky(mat))
        cfg = SolverConfig(mode=mode, block_size=2, beta_penalty=0.8,
                           max_iters=40, tol_primal=1e-16, tol_dual=1e-16,
                           seed=5, fixed_iterations=True)
        res = solve(prob, cfg)
        solve_factors = len(factored)
        # the cached factors give the numbers of uncached sweeps exactly
        # (uncached sweeps that carry the running products, as solve does)
        orders = block_orders(mode, 6, 2, np.random.default_rng(5))
        x, y = np.zeros(6), np.zeros(2)
        products = engine._exact_products(prob, x)
        seen = set()
        for _ in range(40):
            order = next(orders)
            seen.update(order)
            x, y = run_sweep(prob, x, y, order, 0.8, _products=products)
        assert np.array_equal(res.x, x)
        assert np.array_equal(res.y, y)
        # 40 sweeps visit 120 blocks, each factored on its first visit only
        assert solve_factors == len(seen) <= (15 if mode == Mode.RAC else 3)

    def test_piece_cache_carries_the_factor(self, monkeypatch):
        prob = random_problem(6, n=4, m=1)
        factored = []
        cholesky = engine._cholesky
        monkeypatch.setattr(engine, "_cholesky",
                            lambda mat: factored.append(mat) or cholesky(mat))
        cache = {}
        x, y = np.zeros(4), np.zeros(1)
        for _ in range(3):
            x, y = run_sweep(prob, x, y, ((0, 1), (2, 3)), 1.0,
                             piece_cache=cache)
        assert len(factored) == 2
        assert set(cache) == {(0, 1), (2, 3)}
        for key, visit in cache.items():
            assert visit.idx.tolist() == list(key)
            np.testing.assert_allclose(visit.system.chol @ visit.system.chol.T,
                                       visit.system.matrix, atol=1e-12)

    @pytest.mark.parametrize("mode", [Mode.RAC, Mode.RP])
    def test_kept_systems_are_never_written(self, mode, monkeypatch):
        # every kept visit record is the object built on its block's first
        # visit, with the arrays it had then (its system's, its index array,
        # a dense A's strip and, for CSC H and A, its stored-entry strips),
        # through sweep 40 of a bounded solve, on dense data, on CSC data
        # whose A strips are gathered dense and so not kept, and on CSC data
        # with a sparse A
        dense = random_problem(9, n=6, m=2, bounded=True)
        csc = dataclasses.replace(dense, H=sp.csc_matrix(dense.H),
                                  A=sp.csc_matrix(dense.A))
        # one entry per column of a 60 x 6 A: 2 in each 60 x 2 strip
        sparse_a = sp.csc_matrix((np.arange(1.0, 7.0), (np.arange(0, 60, 10),
                                                        np.arange(6))),
                                 shape=(60, 6))
        tall = QpProblem(c=dense.c, H=csc.H, A=sparse_a,
                         b=sparse_a @ np.full(6, 0.1), lower=dense.lower,
                         upper=dense.upper)
        h_strip = {"h_strip.rows", "h_strip.vals", "h_strip.cols"}
        a_strip = {"a_strip.rows", "a_strip.vals", "a_strip.cols"}
        for prob, kept_strips in ((dense, {"a_strip"}), (csc, h_strip),
                                  (tall, h_strip | a_strip)):
            caches = []
            block_system = engine.block_system
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(engine, "block_system", lambda cache, *args:
                              caches.append(cache) or
                              block_system(cache, *args))
                first_seen = {}

                def hook(k, x, y):
                    for key, visit in caches[0].items():
                        if key not in first_seen:
                            first_seen[key] = (visit, kept_arrays(visit))

                cfg = SolverConfig(mode=mode, block_size=2, beta_penalty=0.8,
                                   max_iters=40, tol_primal=1e-16,
                                   tol_dual=1e-16, seed=5,
                                   fixed_iterations=True)
                solve(prob, cfg, sweep_hook=hook)
            cache = caches[0]
            assert all(c is cache for c in caches)
            assert set(first_seen) == set(cache)
            strips = {name for _, arrays in first_seen.values()
                      for name in arrays if "strip" in name}
            assert strips == kept_strips
            for key, (visit, arrays) in first_seen.items():
                assert cache[key] is visit
                now = kept_arrays(visit)
                assert set(now) == set(arrays)
                for name, value in arrays.items():
                    assert np.array_equal(now[name], value)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    visit.system.chol = np.eye(2)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    visit.h_strip = None


def kept_arrays(visit):
    """Copies of the arrays a kept visit record holds, by name: its
    system's fields, its index array and its strips' arrays."""
    arrays = {f"system.{f.name}": getattr(visit.system, f.name)
              for f in dataclasses.fields(visit.system)}
    arrays["idx"] = visit.idx
    for name in ("a_strip", "h_strip"):
        strip = getattr(visit, name)
        if isinstance(strip, engine._StoredEntries):
            arrays.update({f"{name}.{field}": getattr(strip, field)
                           for field in ("rows", "vals", "cols")})
        elif strip is not None:
            arrays[name] = strip
    return {name: np.copy(value) for name, value in arrays.items()}


def sparse_problem(seed, n=80, m=6, bounded=False):
    rng = np.random.default_rng(seed)
    G = sp.random(n, n, density=0.05, random_state=seed, format="csc")
    H = (G @ G.T + sp.eye(n)).tocsc()
    H.sort_indices()
    A = sp.random(m, n, density=0.2, random_state=seed + 1, format="csc")
    box = dict(lower=np.full(n, -0.4), upper=np.full(n, 0.4)) if bounded else {}
    return QpProblem(c=rng.standard_normal(n), H=H, A=A,
                     b=A @ rng.uniform(-0.3, 0.3, n), **box)


def dense_twin(problem):
    return QpProblem(c=problem.c, H=problem.H.toarray(), A=problem.A.toarray(),
                     b=problem.b, lower=problem.lower, upper=problem.upper)


def assert_near(got, want):
    """Agreement to 1e-10 of ``want``'s inf-norm, floored at 1."""
    scale = max(1.0, float(np.max(np.abs(want)))) if np.size(want) else 1.0
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-10 * scale


class TestSparseBlocks:
    def test_kept_block_holds_only_dense_block_arrays(self):
        # a kept block's only dense arrays are its s x s matrix and factor:
        # H's n-row strip and an A strip within the 2% rule are kept as
        # stored entries, an A strip gathered dense (this A's 20% fill) is
        # not kept, and no scipy object is kept
        prob = sparse_problem(1)
        # 200 x 80 at 0.5% fill: about 3 entries in each 200 x 3 strip
        A = sp.random(200, 80, density=0.005, random_state=4, format="csc")
        sparse_a = dataclasses.replace(prob, A=A, b=A @ np.full(80, 0.1))
        for problem in (prob, sparse_a):
            cache = {}
            run_sweep(problem, np.zeros(80), np.zeros(problem.m),
                      ((0, 5, 9), (1, 2, 3)), 1.0, piece_cache=cache)
            assert set(cache) == {(0, 5, 9), (1, 2, 3)}
            for key, visit in cache.items():
                system = visit.system
                arrays = {name: value for name, value in vars(system).items()
                          if value is not None and np.ndim(value) > 1}
                assert set(arrays) == {"matrix", "chol"}
                for dense in arrays.values():
                    assert isinstance(dense, np.ndarray)
                    assert dense.shape == (3, 3)
                strips = [(visit.h_strip, 80, problem.H[:, list(key)].nnz)]
                if problem is prob:
                    assert visit.a_strip is None
                else:
                    strips.append((visit.a_strip, 200, A[:, list(key)].nnz))
                for strip, rows, nnz in strips:
                    assert isinstance(strip, engine._StoredEntries)
                    assert strip.shape == (rows, 3) and strip.size == nnz
                    assert all(np.ndim(getattr(strip, f)) == 1
                               for f in ("rows", "vals", "cols"))
                held = [*vars(system).values(),
                        *(value for strip, _, _ in strips for value in strip),
                        *(getattr(visit, f.name)
                          for f in dataclasses.fields(visit))]
                assert not any(sp.issparse(value) for value in held)
                assert not any(isinstance(value, np.ndarray)
                               and value.ndim > 1 and value.shape != (3, 3)
                               for value in held)

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("bounded", [False, True])
    @pytest.mark.parametrize("cached", [False, True])
    def test_sweeps_match_the_dense_twin(self, mode, bounded, cached):
        sparse = sparse_problem(2, bounded=bounded)
        dense = dense_twin(sparse)
        orders = block_orders(mode, 80, 9, np.random.default_rng(3))
        caches = ({}, {}) if cached else (None, None)
        xs, ys = np.zeros(80), np.zeros(6)
        xd, yd = np.zeros(80), np.zeros(6)
        for _ in range(6):
            order = next(orders)
            xs, ys = run_sweep(sparse, xs, ys, order, 0.9, piece_cache=caches[0])
            xd, yd = run_sweep(dense, xd, yd, order, 0.9, piece_cache=caches[1])
            assert_near(xs, xd)
            assert_near(ys, yd)
            rs, rd = compute_residuals(sparse, xs, ys), compute_residuals(dense, xd, yd)
            for field in ("primal", "dual"):
                assert_near(getattr(rs, field), getattr(rd, field))
        assert xs.any() and ys.any()

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("bounded", [False, True])
    def test_solve_matches_the_dense_twin(self, mode, bounded):
        sparse = sparse_problem(4, bounded=bounded)
        cfg = SolverConfig(mode=mode, block_size=9, beta_penalty=1.0,
                           max_iters=15, seed=6, fixed_iterations=True)
        got, want = solve(sparse, cfg), solve(dense_twin(sparse), cfg)
        assert got.iterations == want.iterations == 15
        for field in ("x", "y", "g", "r", "primal_residual_history",
                      "dual_residual_history"):
            assert_near(getattr(got, field), getattr(want, field))

    def test_large_sparse_solve_stays_within_memory_bound(self):
        # 100 x 200 grid Laplacian: n = 20000 in 200 RP blocks of 100. Dense
        # n x s slices kept for every block would take 200 * 16 MB = 3.2 GB.
        rows, cols = 100, 200
        n, m = rows * cols, 2000

        def path(k):
            return sp.diags([-np.ones(k - 1), 2.0 * np.ones(k), -np.ones(k - 1)],
                            [-1, 0, 1])

        H = (sp.kron(sp.eye(cols), path(rows)) + sp.kron(path(cols), sp.eye(rows))
             + 0.1 * sp.eye(n)).tocsc()
        rng = np.random.default_rng(0)
        A = sp.csc_matrix((rng.standard_normal(m * 10),
                           (np.repeat(np.arange(m), 10), rng.integers(0, n, m * 10))),
                          shape=(m, n))
        problem = QpProblem(c=rng.standard_normal(n), H=H, A=A,
                            b=A @ rng.uniform(-0.5, 0.5, n),
                            lower=-np.ones(n), upper=np.ones(n))
        cfg = SolverConfig(mode=Mode.RP, block_size=100, beta_penalty=1.0,
                           max_iters=2, seed=1, fixed_iterations=True)
        tracemalloc.start()
        try:
            res = solve(problem, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.iterations == 2 and res.status != Status.DIVERGED
        assert peak < 100e6


def grid_qp(rows=20, cols=20, m=40, row_nnz=4, seed=7):
    """A small boxed QP shaped like the sparse QP benchmark: a grid
    Laplacian + 0.1 I, and A with ``row_nnz`` random entries per row (1%
    fill at the defaults), so A's m x s strips and H's changed columns
    stay stored entries."""
    def path(k):
        return sp.diags([-np.ones(k - 1), 2.0 * np.ones(k), -np.ones(k - 1)],
                        [-1, 0, 1])

    n = rows * cols
    H = sp.kron(sp.eye(cols), path(rows)) + sp.kron(path(cols), sp.eye(rows)) \
        + 0.1 * sp.eye(n)
    rng = np.random.default_rng(seed)
    A = sp.csc_matrix((rng.standard_normal(m * row_nnz),
                       (np.repeat(np.arange(m), row_nnz),
                        rng.integers(0, n, m * row_nnz))), shape=(m, n))
    return QpProblem(c=rng.standard_normal(n), H=H, A=A,
                     b=A @ rng.uniform(-0.5, 0.5, n),
                     lower=-np.ones(n), upper=np.ones(n))


def boxed_ci_qp():
    """The CI smoke run's boxed QP, built in memory: 400 variables,
    tridiagonal H, 20 rows of A at 5% fill, whose strips go dense."""
    n, m = 400, 20
    rng = np.random.default_rng(1)
    H = sp.diags([-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)],
                 [-1, 0, 1])
    A = sp.random(m, n, density=0.05, random_state=rng, format="coo")
    c = 1.5 * rng.standard_normal(n)
    b = A @ rng.uniform(-0.5, 0.5, n)
    return QpProblem(c=c, H=H, A=A, b=b, lower=-np.ones(n), upper=np.ones(n))


# case -> (problem, config, ulps); solve's x, y, g, r on these were captured
# when run_sweep sliced sparse H and A with scipy (float64, numpy 2.4 with
# OpenBLAS on x86-64). The grid cases' strips stay stored entries, whose
# products and Gram round as scipy's do, so they match bit for bit (0 ulps).
# The boxed CI QP's 5%-fill strips of A are gathered dense, and BLAS adds
# their products and Gram in an order of its own, which may differ between
# BLAS builds and thread counts. Each sweep then rounds a field differently
# by a few ulps of its scale and carries the drift into the next, so a field
# may differ by DENSE_GATHER_ULPS ulps of its largest entry (at least 1) per
# sweep run: 3.7e-14 on x, y and r over the 21 sweeps, 7.6e-14 on g, which
# runs to 2.03.
# Read with numpy 2.4's OpenBLAS: at most 6.7e-16 on x and y, 3.3e-16 on r
# and 2.5e-15 on g.
SPARSE_QP_GOLDENS = Path(__file__).parent / "data" / "sparse_qp_goldens.json"
DENSE_GATHER_ULPS = 8
SPARSE_QP_CASES = {
    f"{name}-{mode.value}": (build, SolverConfig(
        mode=mode, block_size=s, max_iters=iters,
        fixed_iterations=fixed), ulps)
    for name, build, s, iters, fixed, ulps in (
        ("grid", grid_qp, 50, 10, True, 0),
        ("boxed-ci", boxed_ci_qp, 200, 200, False, DENSE_GATHER_ULPS))
    for mode in (Mode.RP, Mode.RAC)}


class TestSparseQpGoldens:
    # canonical sparse arrays are stored as they come and take the same
    # gather as sparse matrices, so they meet the same goldens
    @pytest.mark.parametrize("fmt", [sp.csc_matrix, sp.csc_array])
    @pytest.mark.parametrize("case", sorted(SPARSE_QP_CASES))
    def test_solve_matches_goldens(self, case, fmt):
        build, config, ulps = SPARSE_QP_CASES[case]
        problem = build()
        problem = dataclasses.replace(problem, H=fmt(problem.H),
                                      A=fmt(problem.A))
        assert type(problem.H) is type(problem.A) is fmt
        res = solve(problem, config)
        want = json.loads(SPARSE_QP_GOLDENS.read_text())[case]
        assert res.iterations == want["iterations"]
        for name in ("x", "y", "g", "r"):
            got, ref = getattr(res, name), np.asarray(want[name])
            assert got.shape == ref.shape
            bound = ulps * np.finfo(float).eps * res.iterations * \
                max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(got - ref)) <= bound


class TestColumnGather:
    def test_kept_blocks_leave_no_scipy_slicing(self, monkeypatch):
        # a block's first visit reads A's strip and H's strip, H's s x s
        # block included, through the CSC gather and keeps them; no sweep,
        # the first included, calls scipy's sparse indexing
        problem = grid_qp()
        assert type(problem.H) is type(problem.A) is sp.csc_matrix
        reads = spy_on_sparse_indexing(monkeypatch)
        cfg = SolverConfig(mode=Mode.RP, block_size=50, max_iters=4,
                           fixed_iterations=True)
        assert solve(problem, cfg).iterations == 4
        assert reads == []
        problem.H[:, [0]]  # the spy sees scipy's indexing
        assert reads == [sp.csc_matrix]

    def test_unkept_rac_blocks_leave_no_scipy_slicing(self, monkeypatch):
        # past n = 64 RAC keeps no block, and every visit gathers its
        # strips afresh, through the CSC gather too
        problem = grid_qp()
        problem = dataclasses.replace(problem, H=sp.csc_array(problem.H))
        cfg = SolverConfig(mode=Mode.RAC, block_size=50, max_iters=3,
                           fixed_iterations=True)
        assert not blocks_recur(cfg.mode, problem.n, 50, 3)
        reads = spy_on_sparse_indexing(monkeypatch)
        assert solve(problem, cfg).iterations == 3
        assert reads == []

    def test_rp_gathers_do_not_grow_with_sweeps(self, monkeypatch):
        # a kept block gathers its strips on its first visit only: 8 blocks
        # of 50 read A's strip and H's strip once each, over 4 sweeps or 8
        problem, gather, calls = grid_qp(), engine._stored_columns, []
        monkeypatch.setattr(engine, "_stored_columns", lambda M, idx:
                            calls.append(M) or gather(M, idx))
        counts = []
        for sweeps in (4, 8):
            calls.clear()
            cfg = SolverConfig(mode=Mode.RP, block_size=50, max_iters=sweeps,
                               fixed_iterations=True)
            assert solve(problem, cfg).iterations == sweeps
            counts.append(len(calls))
            assert sum(M is problem.A for M in calls) == \
                sum(M is problem.H for M in calls) == 8
        assert counts == [16, 16]

    @pytest.mark.parametrize("cached", [False, True])
    def test_dense_a_strips_are_gathered_once_per_visit(self, cached,
                                                        monkeypatch):
        # an A strip gathered dense (20% fill) is not kept, so every visit,
        # kept block or not, gathers it once: the first visit's system and
        # its step read the same gather
        problem, blocks, calls = sparse_problem(1), engine._column_block, []
        monkeypatch.setattr(engine, "_column_block", lambda M, idx:
                            calls.append(M) or blocks(M, idx))
        cache = {} if cached else None
        x, y = np.zeros(80), np.zeros(6)
        for _ in range(3):
            x, y = run_sweep(problem, x, y, ((0, 5, 9), (1, 2, 3)), 1.0,
                             piece_cache=cache)
        assert len(calls) == 6 and all(M is problem.A for M in calls)
        assert not cached or all(v.a_strip is None for v in cache.values())

    @pytest.mark.parametrize("mode", [Mode.RP, Mode.CYCLIC])
    def test_dense_a_is_sliced_once_per_kept_block(self, mode):
        # a kept block keeps a dense A's strip: over 10 sweeps of 3 kept
        # blocks, A is sliced on each block's first visit only, and the
        # iterates are those of a plain A, bit for bit
        plain = random_problem(9, n=6, m=2, bounded=True)
        slices = []

        class Counted(np.ndarray):
            def __getitem__(self, key):
                if self is problem.A:
                    slices.append(key)
                return np.asarray(super().__getitem__(key))

        problem = dataclasses.replace(plain, A=plain.A.view(Counted))
        cfg = SolverConfig(mode=mode, block_size=2, beta_penalty=0.8,
                           max_iters=10, tol_primal=1e-16, tol_dual=1e-16,
                           seed=5, fixed_iterations=True)
        res, want = solve(problem, cfg), solve(plain, cfg)
        assert len(slices) == 3
        assert sorted(i for key in slices for i in key[1]) == list(range(6))
        assert res.x.tobytes() == want.x.tobytes()
        assert res.y.tobytes() == want.y.tobytes()

    @pytest.mark.parametrize("mode", [Mode.RP, Mode.RAC])
    @pytest.mark.parametrize("bounded", [False, True])
    @pytest.mark.parametrize("build", ["grid", "sparse", "dense"])
    def test_kept_and_unkept_sweeps_are_bit_equal(self, mode, bounded,
                                                  build):
        # visits that read a kept record and visits that slice or gather
        # afresh give the same iterates, bit for bit: on CSC H and A, with
        # A's strips as stored entries (grid) or gathered dense (sparse, 20%
        # fill), and on dense H and A, whose A strips are kept as sliced
        problem = grid_qp() if build == "grid" else \
            sparse_problem(3, bounded=bounded)
        if build == "dense":
            problem = dense_twin(problem)
        if not bounded:
            problem = dataclasses.replace(problem, lower=None, upper=None)
        assert sp.issparse(problem.H) == sp.issparse(problem.A) == \
            (build != "dense")
        s = 50 if build == "grid" else 9
        orders = block_orders(mode, problem.n, s, np.random.default_rng(2))
        runs = [[np.zeros(problem.n), np.zeros(problem.m), cache,
                 engine._exact_products(problem, np.zeros(problem.n))]
                for cache in ({}, None)]
        for _ in range(5):
            order = next(orders)
            for run in runs:
                run[:2] = run_sweep(problem, run[0], run[1], order, 0.9,
                                    piece_cache=run[2], _products=run[3])
            (xk, yk, _, (gk, rk)), (xu, yu, _, (gu, ru)) = runs
            for kept, fresh in ((xk, xu), (yk, yu), (gk, gu), (rk, ru)):
                assert kept.tobytes() == fresh.tobytes()
        assert runs[0][2] and xk.any()

    def test_changed_columns_stay_stored_entries_at_any_fill(self,
                                                             monkeypatch):
        # H's strip feeds products only, so it is read as stored entries
        # past 2% fill and with crowded rows, and its product, whose
        # unchanged columns add exact zeros, rounds as scipy's slice and
        # product over the changed columns do; only A's strips, whose Grams
        # are formed, take _column_block's rule
        problem, blocks, seen = grid_qp(), engine._column_block, []
        monkeypatch.setattr(engine, "_column_block",
                            lambda M, idx: seen.append(M) or blocks(M, idx))
        run_sweep(problem, np.zeros(problem.n), np.zeros(problem.m),
                  chunk_indices(np.arange(problem.n), 50), 1.0)
        assert len(seen) == 8 and all(M is problem.A for M in seen)
        n, s = 300, 60
        rng = np.random.default_rng(5)
        dense = sp.random(n, n, density=0.05, random_state=rng).toarray()
        dense[rng.choice(n, 4, replace=False)] = rng.standard_normal(n)
        H = sp.csc_matrix(dense)
        idx = np.sort(rng.choice(n, s, replace=False))
        delta = rng.standard_normal(s)
        delta[rng.random(s) < 0.5] = 0.0
        g0 = rng.standard_normal(n)
        g = g0.copy()
        g += engine._stored_columns(H, idx).dot(delta)
        nz = delta != 0
        assert np.array_equal(g, g0 + H[:, idx[nz]] @ delta[nz])

    @pytest.mark.parametrize("fmt", [sp.csc_matrix, sp.csc_array])
    def test_block_matrix_from_the_strip_matches_scipy_slice(self, fmt):
        # H's s x s block read from its strip's stored entries, for sorted
        # and unsorted blocks, equals scipy's slice, bit for bit
        n = 120
        rng = np.random.default_rng(11)
        G = sp.random(n, n, density=0.03, random_state=rng, format="csc")
        H = fmt(G @ G.T + sp.eye(n))
        problem = QpProblem(c=np.zeros(n), H=H)
        for idx in (np.sort(rng.choice(n, 30, replace=False)),
                    rng.choice(n, 30, replace=False), np.array([7])):
            strip = engine._stored_columns(problem.H, idx)
            system = engine._qp_system(problem, idx, None, strip, 1.0)
            want = problem.H[np.ix_(idx, idx)].toarray()
            assert system.matrix.tobytes() == want.tobytes()


def spy_on_sparse_indexing(monkeypatch):
    """Record the class of every scipy CSC matrix or array indexed from now
    on, in the returned list."""
    reads = []
    for cls in (sp.csc_matrix, sp.csc_array):
        def spy(mat, key, getitem=cls.__getitem__):
            reads.append(type(mat))
            return getitem(mat, key)

        monkeypatch.setattr(cls, "__getitem__", spy)
    return reads


def products_problem(kind, bounded, n, m, seed):
    """A well-conditioned QP whose H is dense, CSC, CSR, or C-SVC's kernel
    operator (then with its single equality y'x = 0)."""
    rng = np.random.default_rng(seed)
    if kind == "kernel":
        labels = np.where(np.arange(n) % 2, 1.0, -1.0)
        H = svm._KernelQ(rng.standard_normal((n, 3)), labels,
                         KernelSpec("gaussian", 1.0), 0.1)
        box = dict(lower=np.zeros(n), upper=np.ones(n)) if bounded else {}
        return QpProblem(c=-np.ones(n), H=H, A=labels[None, :], b=np.zeros(1),
                         **box)
    G = rng.standard_normal((n, n))
    H = G @ G.T / n + np.eye(n)
    A = rng.standard_normal((m, n))
    if kind != "dense":
        H, A = sp.csc_matrix(H).asformat(kind), sp.csc_matrix(A).asformat(kind)
    box = dict(lower=np.full(n, -0.5), upper=np.full(n, 0.5)) if bounded else {}
    return QpProblem(c=rng.standard_normal(n), H=H, A=A,
                     b=A @ rng.uniform(-0.3, 0.3, n), **box)


@st.composite
def products_cases(draw):
    n = draw(st.integers(2, 24))
    return dict(kind=draw(st.sampled_from(["dense", "csc", "csr", "kernel"])),
                bounded=draw(st.booleans()), n=n, m=draw(st.integers(1, 3)),
                seed=draw(st.integers(0, 2**32 - 1))), \
        draw(st.sampled_from(list(Mode))), draw(st.integers(1, n)), \
        draw(st.booleans())


class TestRunningProducts:
    # drift measured after 200 sweeps on these families stays below 1e-14
    BOUND = 1e-12

    @settings(max_examples=40, deadline=None)
    @given(products_cases())
    def test_long_runs_stay_near_exact_products(self, case):
        # solve carries c + Hx and r = Ax - b across sweeps with no refresh;
        # after 200 sweeps they must still match recomputation from x
        spec, mode, s, cached = case
        prob = products_problem(**spec)
        rng = np.random.default_rng(spec["seed"])
        orders = block_orders(mode, prob.n, s, rng)
        x = np.clip(np.zeros(prob.n), prob.lower, prob.upper)
        y = np.zeros(prob.m)
        products = engine._exact_products(prob, x)
        cache = {} if cached else None
        for _ in range(200):
            x, y = run_sweep(prob, x, y, next(orders), 1.0, cache,
                             _products=products)
        assert np.all(np.isfinite(x))
        scale = 1.0 + float(np.max(np.abs(x)))
        for running, exact in zip(products, engine._exact_products(prob, x)):
            assert np.max(np.abs(running - exact)) <= self.BOUND * scale


def assert_rel(got, want, tol=1e-12):
    """Agreement to ``tol`` of ``want``'s inf-norm, floored at 1."""
    assert got.shape == want.shape
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    assert np.max(np.abs(got - want), initial=0.0) <= tol * scale


class TestSolveResultProducts:
    # the g = c + Hx and r = Ax - b a solve returns are the running products
    # its last residuals read, and match recomputation at its x

    @pytest.mark.parametrize("form", ["dense", "csc", "csr"])
    @pytest.mark.parametrize("mode", list(Mode))
    def test_products_match_recomputation(self, form, mode):
        prob = sparse_problem(5, bounded=True)
        H, A = prob.H, prob.A
        if form == "dense":
            H, A = H.toarray(), A.toarray()
        elif form == "csr":
            H, A = H.tocsr(), A.tocsr()
        prob = dataclasses.replace(prob, H=H, A=A)
        cfg = SolverConfig(mode=mode, block_size=9, max_iters=30, seed=2)
        res = solve(prob, cfg)
        assert_rel(res.g, prob.c + H @ res.x)
        assert_rel(res.r, A @ res.x - prob.b)
        assert res.primal_residual == float(np.abs(res.r).max())

    def test_without_H_g_is_c(self):
        prob = QpProblem(c=np.linspace(-1.0, 1.0, 6), A=np.eye(6) + 0.1,
                         b=np.full(6, 0.5), lower=np.zeros(6),
                         upper=np.ones(6))
        res = solve(prob, SolverConfig(block_size=2, max_iters=30))
        assert np.array_equal(res.g, prob.c)
        assert_rel(res.r, prob.A @ res.x - prob.b)

    def test_without_A_r_is_empty(self):
        prob = random_problem(3, bounded=True)
        prob = QpProblem(c=prob.c, H=prob.H, lower=prob.lower,
                         upper=prob.upper)
        res = solve(prob, SolverConfig(block_size=2, max_iters=30))
        assert_rel(res.g, prob.c + prob.H @ res.x)
        assert res.r.shape == (0,)
        assert res.primal_residual == 0.0


def symmetric_operator(kind, n, rng):
    """An n x n H as the sweep reads it: dense, CSC or CSR at about half
    density, or C-SVC's kernel operator with a linear or Gaussian kernel."""
    if kind in ("linear", "gaussian"):
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        return svm._KernelQ(rng.standard_normal((n, 3)), labels,
                            KernelSpec(kind, 1.3), 0.1)
    G = np.where(rng.random((n, n)) < 0.5, rng.standard_normal((n, n)), 0.0)
    H = G + G.T
    return H if kind == "dense" else sp.csc_matrix(H).asformat(kind)


@st.composite
def changed_column_cases(draw):
    n = draw(st.integers(1, 30))
    return dict(kind=draw(st.sampled_from(
                    ["dense", "csc", "csr", "linear", "gaussian"])),
                n=n, s=draw(st.integers(1, n)),
                zero_share=draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])),
                seed=draw(st.integers(0, 2**32 - 1)))


class TestChangedColumnUpdate:
    # a block step adds H[:, idx] delta to c + Hx reading only the columns
    # where delta is nonzero: entries held at a bound cost no column

    @settings(max_examples=150, deadline=None)
    @given(changed_column_cases())
    def test_matches_the_full_strip_product(self, case):
        rng = np.random.default_rng(case["seed"])
        n, s = case["n"], case["s"]
        H = symmetric_operator(case["kind"], n, rng)
        idx = rng.choice(n, s, replace=False)
        delta = rng.standard_normal(s)
        delta[rng.random(s) < case["zero_share"]] = 0.0
        g0 = rng.standard_normal(n)
        g = g0.copy()
        engine._add_changed_columns(g, H, idx, delta)
        assert_rel(g, g0 + as_dense(H[:, idx]) @ delta)
        if not delta.any():
            assert np.array_equal(g, g0)


class TestBlockOrders:
    @settings(max_examples=200, deadline=None)
    @given(order_cases())
    def test_orders_partition_the_variables(self, case):
        mode, n, s, seed = case
        orders = list(itertools.islice(
            block_orders(mode, n, s, np.random.default_rng(seed)), 4))
        full, rest = divmod(n, s)
        for order in orders:
            assert sorted(i for g in order for i in g) == list(range(n))
            assert all(list(g) == sorted(g) for g in order)
            assert sorted(len(g) for g in order) == \
                [rest] * (rest > 0) + [s] * full
            if mode != Mode.RP:  # RP shuffles the blocks, short one included
                assert [len(g) for g in order] == [s] * full + [rest] * (rest > 0)
        if mode == Mode.RP:
            assert len({frozenset(order) for order in orders}) == 1
        if mode == Mode.CYCLIC:
            assert all(order == chunk_indices(np.arange(n), s)
                       for order in orders)

    @settings(max_examples=200, deadline=None)
    @given(order_cases())
    def test_draws_match_the_inline_code(self, case):
        mode, n, s, seed = case
        orders = block_orders(mode, n, s, np.random.default_rng(seed))
        assert list(itertools.islice(orders, 5)) == \
            inline_orders(mode, n, s, seed, 5)


class TestRunSweeps:
    @pytest.mark.parametrize("mode, n, s, iters", [
        (Mode.RP, 10, 2, 1), (Mode.RP, 10, 2, 5), (Mode.CYCLIC, 10, 3, 4),
        (Mode.RAC, 6, 2, 5), (Mode.RAC, 6, 2, 6), (Mode.RAC, 65, 1, 3)])
    def test_one_cache_dict_where_blocks_recur(self, mode, n, s, iters):
        caches = []

        def sweep(order, cache):
            caches.append(cache)
            return ResidualPair(primal=1.0, dual=1.0)

        cfg = SolverConfig(mode=mode, block_size=s, max_iters=iters, seed=0)
        run_sweeps(sweep, cfg, n)
        assert len(caches) == iters
        if blocks_recur(mode, n, s, iters):
            assert caches[0] == {}
            assert all(cache is caches[0] for cache in caches)
        else:
            assert caches == [None] * iters

    @pytest.mark.parametrize("fixed", [False, True])
    def test_nan_residual_stops_diverged(self, fixed):
        # NaN compares False against every bound; it must not run to the cap
        def sweep(order, cache):
            return ResidualPair(primal=np.nan, dual=np.nan)

        cfg = SolverConfig(mode=Mode.RP, block_size=2, max_iters=50, seed=0,
                           fixed_iterations=fixed)
        run = run_sweeps(sweep, cfg, 4)
        assert run.status == Status.DIVERGED
        assert run.iterations == 1

    @pytest.mark.parametrize("fixed", [False, True])
    def test_growing_residual_stops_diverged(self, fixed):
        # primal residual 10, 100, 1000, ...: past DIVERGENCE_FACTOR (the
        # initial residual 0 floors to 1) after 9 sweeps, long before the cap
        primal = iter(10.0 ** np.arange(1, 200))
        orders = []

        def sweep(order, cache):
            orders.append(order)
            p = next(primal)
            return ResidualPair(primal=p, dual=p)

        cfg = SolverConfig(mode=Mode.RAC, block_size=2, max_iters=100, seed=0,
                           fixed_iterations=fixed)
        run = run_sweeps(sweep, cfg, 5)
        assert run.status == Status.DIVERGED
        assert run.iterations == 9 < cfg.max_iters
        assert run.primal_residual_history[-1] > DIVERGENCE_FACTOR
        assert orders == inline_orders(Mode.RAC, 5, 2, 0, 9)
