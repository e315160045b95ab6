import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
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
from racml.problems import Mode, QpProblem, SolverConfig, Status, chunk_indices
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
        patch.setattr(engine, "solve_block", lambda system, rhs:
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
        p = QpProblem(c=np.zeros(2), H=np.eye(2))
        with pytest.raises(ValueError):
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
        rng = np.random.default_rng(seed)
        s = 5
        G = rng.standard_normal((s, s))
        matrix = G @ G.T + 0.3 * np.eye(s)
        rhs = rng.standard_normal(s) * 3
        lower = -rng.random(s)
        upper = rng.random(s)
        x = solve_block(factored(matrix, lower, upper), rhs)
        assert np.all(x >= lower - 1e-12) and np.all(x <= upper + 1e-12)
        oracle = projected_gradient_oracle(matrix, rhs, lower, upper)
        np.testing.assert_allclose(x, oracle, atol=1e-9)

    @pytest.mark.parametrize("seed", range(12))
    def test_fallback_matches_projected_gradient(self, seed, monkeypatch):
        # with no active-set pass allowed, the projected-gradient fallback
        # finishes the solve; every seed's unconstrained minimizer leaves the box
        monkeypatch.setattr(engine, "ACTIVE_SET_PASS_FACTOR", 0)
        fallbacks = []
        fallback = engine._projected_gradient
        monkeypatch.setattr(engine, "_projected_gradient",
                            lambda *args: fallbacks.append(1) or fallback(*args))
        rng = np.random.default_rng(seed)
        s = 5
        G = rng.standard_normal((s, s))
        matrix = G @ G.T + 0.3 * np.eye(s)
        rhs = rng.standard_normal(s) * 3
        lower = -rng.random(s)
        upper = rng.random(s)
        x = solve_block(factored(matrix, lower, upper), rhs)
        assert fallbacks == [1]
        assert np.all(x >= lower) and np.all(x <= upper)
        oracle = projected_gradient_oracle(matrix, rhs, lower, upper)
        np.testing.assert_allclose(x, oracle, atol=1e-9)

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
        prob = QpProblem(c=np.zeros(2), H=np.array([[1.0, 2.0], [0.0, 1.0]]))
        cfg = SolverConfig(block_size=1)
        with pytest.raises(ValueError, match="invalid problem"):
            solve(prob, cfg)

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
        for pieces in cache.values():
            np.testing.assert_allclose(pieces.chol @ pieces.chol.T,
                                       pieces.matrix, atol=1e-12)

    @pytest.mark.parametrize("mode", [Mode.RAC, Mode.RP])
    def test_kept_systems_are_never_written(self, mode, monkeypatch):
        # every kept system is the object built on its block's first visit,
        # with the arrays it had then, through sweep 40 of a bounded solve
        prob = random_problem(9, n=6, m=2, bounded=True)
        caches = []
        block_system = engine.block_system
        monkeypatch.setattr(engine, "block_system", lambda cache, *args:
                            caches.append(cache) or block_system(cache, *args))
        first_seen = {}

        def hook(k, x, y):
            for key, system in caches[0].items():
                if key not in first_seen:
                    first_seen[key] = (system, {
                        f.name: np.copy(getattr(system, f.name))
                        for f in dataclasses.fields(system)})

        cfg = SolverConfig(mode=mode, block_size=2, beta_penalty=0.8,
                           max_iters=40, tol_primal=1e-16, tol_dual=1e-16,
                           seed=5, fixed_iterations=True)
        solve(prob, cfg, sweep_hook=hook)
        cache = caches[0]
        assert all(c is cache for c in caches)
        assert set(first_seen) == set(cache)
        for key, (system, arrays) in first_seen.items():
            assert cache[key] is system
            for name, value in arrays.items():
                assert np.array_equal(getattr(system, name), value)
            with pytest.raises(dataclasses.FrozenInstanceError):
                system.chol = np.eye(2)


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
        # a kept system holds its s x s matrix and factor and nothing of
        # size n or m: the column strips are gathered again on every visit
        prob = sparse_problem(1)
        cache = {}
        run_sweep(prob, np.zeros(80), np.zeros(6), ((0, 5, 9), (1, 2, 3)), 1.0,
                  piece_cache=cache)
        assert set(cache) == {(0, 5, 9), (1, 2, 3)}
        for system in cache.values():
            arrays = {name: value for name, value in vars(system).items()
                      if value is not None and np.ndim(value) > 1}
            assert set(arrays) == {"matrix", "chol"}
            for dense in arrays.values():
                assert isinstance(dense, np.ndarray) and dense.shape == (3, 3)
            assert not any(sp.issparse(value) for value in vars(system).values())

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
