import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from racml import engine, svm
from racml.data_io import gen_blobs
from racml.engine import solve
from racml.problems import Mode, QpProblem, Status
from racml.svm import (
    DegenerateModelError,
    DegenerateSplitError,
    KernelSpec,
    SvmModel,
    accuracy,
    compute_bias,
    decision_values,
    default_block_size,
    default_config,
    grid_search,
    kernel_cross,
    load_model,
    predict,
    save_model,
    train,
)


def kernel_value(xi, xj, kernel):
    """Oracle: K(x_i, x_j) for one pair, by the direct formula."""
    if kernel.kind == "linear":
        return float(xi @ xj)
    return math.exp(-float(np.sum((xi - xj) ** 2)) / (2.0 * kernel.sigma ** 2))


def full_kernel_matrix(X, y, kernel):
    """Oracle: materialize the entire label-weighted kernel matrix."""
    n = X.shape[0]
    Q = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            Q[i, j] = y[i] * y[j] * kernel_value(X[i], X[j], kernel)
    return Q


def pair_kernel(xi, xj, kernel):
    """kernel_cross on one row each."""
    return float(kernel_cross(xi[None, :], xj[None, :], kernel)[0, 0])


class TestKernelEval:
    def test_gaussian_at_zero_distance(self):
        x = np.array([1.0, -2.0, 3.0])
        for sigma in (0.1, 1.0, 10.0):
            got = pair_kernel(x, x, KernelSpec("gaussian", sigma))
            assert got == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_at_two_sigma_squared(self):
        sigma = 1.7
        xi = np.array([0.0])
        xj = np.array([math.sqrt(2.0) * sigma])
        got = pair_kernel(xi, xj, KernelSpec("gaussian", sigma))
        assert got == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert got == pytest.approx(0.36787944117144233, rel=1e-12)

    def test_linear_dot_product(self):
        got = pair_kernel(np.array([1.0, 2.0]), np.array([3.0, 4.0]),
                          KernelSpec("linear"))
        assert got == pytest.approx(11.0, rel=1e-12)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            pair_kernel(np.zeros(1), np.zeros(1), KernelSpec("gaussian", 0.0))

    def test_unknown_kind_refused(self):
        with pytest.raises(ValueError, match="unknown kernel kind 'poly'"):
            KernelSpec("poly")

    def test_nan_sigma_refused(self):
        with pytest.raises(ValueError, match="sigma"):
            KernelSpec("gaussian", math.nan)


def kernel_cross_reference(Xa, Xb, sigma):
    """The Gaussian kernel strip as one temporary per operation."""
    sq_a = np.sum(Xa * Xa, axis=1)[:, None]
    sq_b = np.sum(Xb * Xb, axis=1)[None, :]
    d2 = np.maximum(sq_a + sq_b - 2.0 * (Xa @ Xb.T), 0.0)
    return np.exp(-d2 / (2.0 * sigma ** 2))


class TestKernelCross:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 12), st.integers(1, 6),
           st.floats(1e-3, 1e3), st.floats(1e-2, 1e2),
           st.integers(0, 2**32 - 1))
    def test_bit_equal_to_the_reference(self, na, nb, d, scale, sigma, seed):
        # rows shared by Xa and Xb put squared distances at zero, where
        # rounding can make them negative and the clamp acts
        rng = np.random.default_rng(seed)
        Xa = scale * rng.standard_normal((na, d))
        Xb = np.vstack([Xa[:nb // 2],
                        scale * rng.standard_normal((nb - nb // 2, d))])
        got = kernel_cross(Xa, Xb, KernelSpec("gaussian", sigma))
        assert np.array_equal(got, kernel_cross_reference(Xa, Xb, sigma))


def kernel_strip(X, y, block, kernel, ridge=0.0):
    """The n x s column strip of Q + ridge I that training sweeps with."""
    return svm._KernelQ(np.asarray(X, dtype=float), np.asarray(y, dtype=float),
                        kernel, ridge)[:, block]


class TestAssembleKernelBlock:
    """Kernel block assembly: the column strips of the training operator."""

    def test_single_point_block(self):
        X = np.array([[0.3, -0.7]])
        strip = kernel_strip(X, np.array([-1.0]), [0],
                             KernelSpec("gaussian", 2.0))
        np.testing.assert_allclose(strip, [[1.0]])

    def test_two_point_block_with_opposite_labels(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0]])
        y = np.array([1.0, -1.0])
        kernel = KernelSpec("gaussian", 1.0)
        kappa = math.exp(-0.5)
        strip = kernel_strip(X, y, [0, 1], kernel)
        np.testing.assert_allclose(strip, [[1.0, -kappa], [-kappa, 1.0]],
                                   rtol=1e-14)

    def test_matches_full_matrix_oracle(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((50, 4))
        y = np.where(rng.random(50) < 0.5, 1.0, -1.0)
        kernel = KernelSpec("gaussian", 1.3)
        Q = full_kernel_matrix(X, y, kernel)
        for block in ([0, 7, 31], list(range(10, 25)), [49], [3, 3 + 17]):
            strip = kernel_strip(X, y, block, kernel)
            np.testing.assert_allclose(strip[block], Q[np.ix_(block, block)],
                                       atol=1e-14)
            np.testing.assert_allclose(strip, Q[:, block], atol=1e-14)
            # the ridge lands on the block's own diagonal entries only
            ridged = kernel_strip(X, y, block, kernel, ridge=0.25)
            np.testing.assert_allclose(
                ridged - strip, 0.25 * np.eye(50)[:, block], atol=1e-14)

    def test_block_is_positive_semidefinite(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 3))
        y = np.where(rng.random(30) < 0.5, 1.0, -1.0)
        block = list(range(0, 30, 2))
        qbb = kernel_strip(X, y, block, KernelSpec("gaussian", 0.8))[block]
        assert np.linalg.eigvalsh(qbb)[0] >= -1e-9

    def test_product_matches_full_matrix(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((230, 3))
        y = np.where(rng.random(230) < 0.5, 1.0, -1.0)
        kernel = KernelSpec("gaussian", 1.1)
        z = np.where(rng.random(230) < 0.7, rng.random(230), 0.0)
        op = svm._KernelQ(X, y, kernel, 0.5)
        want = (full_kernel_matrix(X, y, kernel) + 0.5 * np.eye(230)) @ z
        np.testing.assert_allclose(op @ z, want, atol=1e-12)
        assert not np.any(op @ np.zeros(230))


def strip_by_kernel_cross(X, y, cols, kernel, ridge):
    """Oracle: the strip ``_KernelQ[:, cols]`` as one ``kernel_cross`` call
    that sums its own norms, the label signs of the rows then the cols,
    then the ridge where a row is a column's own data point."""
    strip = kernel_cross(X, X[cols], kernel)
    strip *= y[:, None]
    strip *= y[cols]
    strip[cols, np.arange(cols.size)] += ridge
    return strip


def block_by_kernel_cross(X, y, rows, cols, kernel, ridge):
    """Oracle: the block ``_KernelQ[np.ix_(rows, cols)]``, built the way
    ``strip_by_kernel_cross`` builds a strip."""
    block = kernel_cross(X[rows], X[cols], kernel)
    block *= y[rows][:, None]
    block *= y[cols]
    block[np.nonzero(rows[:, None] == cols)] += ridge
    return block


@st.composite
def bitwise_kernel_reads(draw):
    n = draw(st.integers(1, 300))
    k = draw(st.integers(1, n))
    return dict(n=n, d=draw(st.sampled_from([1, 2, 10, 33, 300])), k=k,
                rows=draw(st.sampled_from(["cols", "other"])),
                seed=draw(st.integers(0, 2**32 - 1)))


@st.composite
def kernel_reads(draw):
    n = draw(st.integers(1, 30))
    return dict(kind=draw(st.sampled_from(["linear", "gaussian"])), n=n,
                s=draw(st.integers(1, n)), rows_are_cols=draw(st.booleans()),
                ridge=draw(st.sampled_from([0.01, 0.3, 2.0])),
                seed=draw(st.integers(0, 2**32 - 1)))


class TestKernelOperatorReads:
    """The training operator's two reads: a block from the named rows only
    and a column strip against every row, with the ridge on the diagonal."""

    @settings(max_examples=150, deadline=None)
    @given(kernel_reads())
    def test_block_read_is_rows_of_the_strip(self, case):
        rng = np.random.default_rng(case["seed"])
        n, s, ridge = case["n"], case["s"], case["ridge"]
        X = rng.standard_normal((n, 4)) * rng.uniform(0.1, 3.0)
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        kernel = KernelSpec(case["kind"], 1.7)
        op = svm._KernelQ(X, y, kernel, ridge)
        cols = rng.choice(n, s, replace=False)
        rows = cols if case["rows_are_cols"] else \
            rng.choice(n, rng.integers(1, n + 1), replace=False)
        block = op[np.ix_(rows, cols)]
        want = op[:, cols][rows]
        scale = max(1.0, float(np.max(np.abs(want))))
        assert block.shape == want.shape
        assert np.max(np.abs(block - want)) <= 1e-12 * scale
        plain = svm._KernelQ(X, y, kernel, 0.0)[np.ix_(rows, cols)]
        same_point = rows[:, None] == cols
        assert np.array_equal(block != plain, same_point)
        assert np.max(np.abs((block - plain)[same_point] - ridge),
                      initial=0.0) <= 1e-12 * scale

    @pytest.mark.parametrize("kind", ["linear", "gaussian"])
    @settings(max_examples=100, deadline=None)
    @given(bitwise_kernel_reads())
    @example(dict(n=500, d=10, k=40, rows="other", seed=3))
    def test_reads_with_norms_summed_once_match_kernel_cross(self, kind,
                                                             case):
        # the operator sums X's squared row norms once, runs a strip's
        # passes on the product laid out k x n and adds a block's ridge on
        # its diagonal where its rows are its cols; on a C-ordered X each
        # read still equals the one whose kernel_cross sums the norms
        # itself, bit for bit, at any width, and a strip comes back
        # C-ordered n x k for the engine's products
        rng = np.random.default_rng(case["seed"])
        n, k = case["n"], case["k"]
        X = 3.0 * rng.standard_normal((n, case["d"]))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        kernel, ridge = KernelSpec(kind, 2.0), 0.3
        op = svm._KernelQ(X, y, kernel, ridge)
        cols = rng.choice(n, k, replace=False)
        strip = op[:, cols]
        assert strip.shape == (n, k) and strip.flags.c_contiguous
        assert strip.tobytes() == \
            strip_by_kernel_cross(X, y, cols, kernel, ridge).tobytes()
        # other rows repeat a quarter of the cols among random ones
        rows = cols if case["rows"] == "cols" else np.concatenate(
            [cols[:k // 4], rng.choice(n, rng.integers(1, n + 1),
                                       replace=False)])
        assert op[np.ix_(rows, cols)].tobytes() == \
            block_by_kernel_cross(X, y, rows, cols, kernel, ridge).tobytes()

    def test_training_reads_strips_of_changed_duals_only(self, monkeypatch):
        # per block step: one s x s block read for its system, then strip
        # columns for exactly the duals the step moved, none if none moved
        reads, steps = [], []
        read, add = svm._KernelQ.__getitem__, engine._add_changed_columns

        def spy_read(op, key):
            out = read(op, key)
            reads.append(("strip" if isinstance(key[0], slice) else "block",
                          out.shape))
            return out

        def spy_add(g, H, idx, delta):
            start = len(reads)
            add(g, H, idx, delta)
            steps.append((idx.size, np.count_nonzero(delta), reads[start:]))

        monkeypatch.setattr(svm._KernelQ, "__getitem__", spy_read)
        monkeypatch.setattr(engine, "_add_changed_columns", spy_add)
        tr = gen_blobs(60, 2, 2.0, seed=6)
        cfg = dataclasses.replace(
            default_config(120, block_size=10, seed=1, max_iters=2),
            fixed_iterations=True)
        _, diag = train(tr.X, tr.y, 1.0, KernelSpec("gaussian", 1.0), cfg,
                        return_diagnostics=True)
        assert diag.iterations == 2 and len(steps) == 2 * 12
        for s, moved, strip_reads in steps:
            assert [kind for kind, _ in strip_reads] == ["strip"] * bool(moved)
            assert sum(shape[1] for _, shape in strip_reads) == moved
            assert all(shape[0] == 120 for _, shape in strip_reads)
        assert reads.count(("block", (10, 10))) == len(steps)
        assert len(reads) == len(steps) + sum(bool(m) for _, m, _ in steps)
        # the run holds steps that moved every dual, some, and none
        assert {min(m, 1) + (m == s) for s, m, _ in steps} == {0, 1, 2}


def factorizations_and_duals(kernel):
    """Factorizations and duals of two fixed sweeps on ``gen_blobs(300, 10)``
    with the default config."""
    tr = gen_blobs(300, 10, seed=0)
    cfg = dataclasses.replace(default_config(600, max_iters=2),
                              fixed_iterations=True)
    cholesky = engine._cholesky
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_cholesky", lambda matrix:
                      calls.append(1) or cholesky(matrix))
        _, diag = train(tr.X, tr.y, 1.0, kernel, cfg, return_diagnostics=True)
    return len(calls), diag.duals


def factorizations_with_and_without_pdas(monkeypatch, kernel):
    """``factorizations_and_duals``, PDAS on and then capped at 0 steps."""
    counts, duals = [], []
    for cap in (engine.PDAS_MAX_STEPS, 0):
        monkeypatch.setattr(engine, "PDAS_MAX_STEPS", cap)
        count, run_duals = factorizations_and_duals(kernel)
        counts.append(count)
        duals.append(run_duals)
    return counts, duals


# kernel kind -> the duals of ``factorizations_and_duals`` captured when every
# bounded block visit seeded PDAS from its unconstrained minimizer's bound
# violators alone (float64, numpy 2.4 with OpenBLAS on x86-64, 1 and 2 BLAS
# threads alike)
SVM_PDAS_GOLDENS = Path(__file__).parent / "data" / "svm_pdas_goldens.json"


class TestTrain:
    def test_separable_four_points(self):
        X = np.array([[0.0, 0.0], [0.5, 0.5], [5.0, 5.0], [5.5, 4.5]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        model = train(X, y, 1.0, KernelSpec("gaussian", 1.0),
                      default_config(4, block_size=2, max_iters=200,
                                     tol_primal=1e-6, tol_dual=1e-6))
        assert accuracy(model, X, y) == 100.0

    def test_empty_dataset_is_an_input_error(self):
        with pytest.raises(ValueError, match="non-empty"):
            train(np.zeros((0, 2)), np.zeros(0), 1.0, KernelSpec())
        with pytest.raises(ValueError, match="non-empty"):
            default_config(0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_X_refused(self, bad):
        # it used to surface as "no support vectors", naming the wrong cause
        tr = gen_blobs(10, 2, 6.0, seed=3)
        X = np.array(tr.X)
        X[4, 1] = bad
        with pytest.raises(ValueError, match="X must be finite"):
            train(X, tr.y, 1.0, KernelSpec())

    @pytest.mark.parametrize("C", [0.0, -1.0, np.nan])
    def test_C_not_positive_refused(self, C):
        tr = gen_blobs(10, 2, 6.0, seed=3)
        with pytest.raises(ValueError, match="C must be > 0"):
            train(tr.X, tr.y, C, KernelSpec())

    @pytest.mark.parametrize("block_size", [0, -5])
    def test_block_size_below_one_refused(self, block_size):
        # 0 used to mean the default and -5 a negative penalty
        with pytest.raises(ValueError, match="block_size"):
            default_config(40, block_size=block_size)

    def test_blob_quality(self):
        tr = gen_blobs(100, 2, 6.0, seed=11)
        te = gen_blobs(50, 2, 6.0, seed=12)
        model = train(tr.X, tr.y, 1.0, KernelSpec("gaussian", 1.0))
        assert accuracy(model, te.X, te.y) >= 99.0

    def test_kkt_conditions_at_tight_tolerance(self):
        tr = gen_blobs(15, 2, 3.0, seed=5)
        C, delta = 1.0, 1e-6
        cfg = default_config(30, block_size=10, seed=2, max_iters=20000,
                             tol_primal=1e-8, tol_dual=1e-8)
        model, diag = train(tr.X, tr.y, C, KernelSpec("gaussian", 1.0), cfg,
                            return_diagnostics=True)
        assert diag.status == Status.CONVERGED
        z = diag.duals
        yf = tr.y * decision_values(model, tr.X)
        interior = (z > delta) & (z < C - delta)
        assert np.any(interior)
        assert np.all(np.abs(yf[interior] - 1.0) <= 1e-3)
        assert np.all(yf[z <= delta] >= 1.0 - 1e-3)
        assert np.all(yf[z >= C - delta] <= 1.0 + 1e-3)

    def test_dual_feasibility_and_equality_progress(self):
        tr = gen_blobs(25, 2, 4.0, seed=9)
        C = 1.0
        cfg = default_config(50, block_size=10, seed=1, max_iters=3000,
                             tol_primal=1e-8, tol_dual=1e-8)
        model, diag = train(tr.X, tr.y, C, KernelSpec("gaussian", 1.0), cfg,
                            return_diagnostics=True)
        z = diag.duals
        assert np.all(z >= -1e-12) and np.all(z <= C + 1e-12)
        assert diag.status == Status.CONVERGED
        assert diag.primal_residual_history[-1] <= 1e-8

    def test_restart_stability_of_dual_objective(self):
        # the reached dual objective should not depend materially on the seed
        tr = gen_blobs(15, 2, 3.0, seed=21)
        kernel = KernelSpec("gaussian", 1.0)
        Q = full_kernel_matrix(np.asarray(tr.X), tr.y, kernel)
        vals = []
        for seed in range(10):
            cfg = default_config(30, block_size=10, seed=seed,
                                 max_iters=5000, tol_primal=1e-8,
                                 tol_dual=1e-8)
            _, diag = train(tr.X, tr.y, 1.0, kernel, cfg,
                            return_diagnostics=True)
            z = diag.duals
            vals.append(0.5 * z @ Q @ z - z.sum())
        assert max(vals) - min(vals) <= 1e-6

    def test_deterministic(self):
        tr = gen_blobs(20, 2, 4.0, seed=6)
        cfg = default_config(40, block_size=7, seed=3, max_iters=10)
        a, da = train(tr.X, tr.y, 1.0, KernelSpec("gaussian", 1.0), cfg,
                      return_diagnostics=True)
        b, db = train(tr.X, tr.y, 1.0, KernelSpec("gaussian", 1.0), cfg,
                      return_diagnostics=True)
        assert np.array_equal(da.duals, db.duals)
        assert a.bias == b.bias

    def test_fixed_iterations_end_with_the_tolerance_check(self):
        # a fixed-iteration run sweeps its whole budget, then reports
        # CONVERGED only if the last sweep meets the tolerances
        tr = gen_blobs(20, 2, 4.0, seed=6)
        kernel = KernelSpec("gaussian", 1.0)
        for tol, status in ((1.0, Status.CONVERGED), (1e-12, Status.MAX_ITERS)):
            cfg = dataclasses.replace(
                default_config(40, block_size=7, seed=3, max_iters=6,
                               tol_primal=tol, tol_dual=tol),
                fixed_iterations=True)
            _, diag = train(tr.X, tr.y, 1.0, kernel, cfg,
                            return_diagnostics=True)
            assert diag.iterations == 6
            assert diag.status == status

    def test_pdas_halves_factorizations(self, monkeypatch):
        # svm_blobs' kernel on a smaller draw: bounded blocks' primal-dual
        # active-set steps make at most half the factorizations the
        # ratio-test finish alone makes, to the same duals
        counts, duals = factorizations_with_and_without_pdas(
            monkeypatch, KernelSpec("gaussian", 3.0))
        assert counts[0] <= counts[1] / 2
        assert np.array_equal(duals[0], duals[1])

    def test_pdas_cycles_cost_no_more_than_the_finish_alone(self,
                                                            monkeypatch):
        # on a linear kernel PDAS cycles on many blocks; the ratio-test
        # finish goes on from PDAS's last iterate, so cycling costs no
        # factorizations beyond the finish's own, to the same duals
        counts, duals = factorizations_with_and_without_pdas(
            monkeypatch, KernelSpec("linear"))
        assert counts[0] <= counts[1]
        assert np.array_equal(duals[0], duals[1])

    @pytest.mark.parametrize("kernel", [KernelSpec("gaussian", 3.0),
                                        KernelSpec("linear")],
                             ids=lambda kernel: kernel.kind)
    def test_warm_seeded_pdas_saves_factorizations(self, monkeypatch,
                                                    kernel):
        # PDAS seeded from each visit's own active set makes fewer
        # factorizations than seeded from the unconstrained minimizer alone,
        # as solve_block is without a start, and both end at the duals
        # captured with that cold seed, bit for bit
        want = json.loads(SVM_PDAS_GOLDENS.read_text())[kernel.kind]
        warm, warm_duals = factorizations_and_duals(kernel)
        solve_block = engine.solve_block
        monkeypatch.setattr(engine, "solve_block",
                            lambda system, rhs, tally, start:
                            solve_block(system, rhs, tally))
        cold, cold_duals = factorizations_and_duals(kernel)
        assert warm < cold
        assert np.array_equal(warm_duals, np.asarray(want))
        assert np.array_equal(cold_duals, np.asarray(want))

    def test_unconverged_blocks_are_counted(self, monkeypatch):
        tr = gen_blobs(20, 2, 1.0, seed=6)
        cfg = default_config(40, block_size=7, seed=3, max_iters=2)
        _, diag = train(tr.X, tr.y, 1.0, KernelSpec("linear"), cfg,
                        return_diagnostics=True)
        assert diag.unconverged_blocks == 0
        monkeypatch.setattr(engine, "PDAS_MAX_STEPS", 0)
        monkeypatch.setattr(engine, "ACTIVE_SET_PASS_FACTOR", 0)
        _, diag = train(tr.X, tr.y, 1.0, KernelSpec("linear"), cfg,
                        return_diagnostics=True)
        assert diag.unconverged_blocks > 0

    def test_ill_conditioned_linear_kernel_finishes_every_block(self):
        # 1500 points per class, centers 2 apart, linear kernel: blocks are
        # rank <= 11 plus the ridge, PDAS cycles on many, and the ratio-test
        # finish ends every one at a KKT point
        tr = gen_blobs(1500, 10, center_distance=2.0, seed=7)
        cfg = dataclasses.replace(default_config(3000, seed=3, max_iters=3),
                                  fixed_iterations=True)
        _, diag = train(tr.X, tr.y, 1.0, KernelSpec("linear"), cfg,
                        return_diagnostics=True)
        assert diag.iterations == 3
        assert diag.unconverged_blocks == 0

    def test_divergence_guard_reports_diverged(self, monkeypatch):
        # with the guard's bar forced below any nonzero y'z, the first sweep
        # that leaves y'z off zero must end the run as DIVERGED
        monkeypatch.setattr(engine, "DIVERGENCE_FACTOR", 1e-15)
        tr = gen_blobs(20, 2, 4.0, seed=6)
        cfg = default_config(40, block_size=7, seed=3, max_iters=50)
        _, diag = train(tr.X, tr.y, 1.0, KernelSpec("gaussian", 1.0), cfg,
                        return_diagnostics=True)
        assert diag.status == Status.DIVERGED
        assert diag.iterations < 50
        assert diag.primal_residual_history[-1] > 1e-15

    def test_label_validation(self):
        X = np.zeros((3, 1))
        with pytest.raises(ValueError, match="labels"):
            train(X, np.array([1.0, 2.0, -1.0]), 1.0, KernelSpec("linear"))
        with pytest.raises(ValueError, match="C"):
            train(X, np.array([1.0, 1.0, -1.0]), -1.0, KernelSpec("linear"))

    def test_default_block_sizes_by_band(self):
        assert default_block_size(500) == 100
        assert default_block_size(50_000) == 500
        assert default_block_size(200_000) == 1000

    def test_default_penalty_scales_with_blocks(self):
        cfg = default_config(1000, block_size=100)
        assert cfg.beta_penalty == pytest.approx(0.1 * 10)


class TestTrainIsTheDualQp:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_matches_solve_on_the_explicit_ridged_kernel_qp(self, mode):
        # C-SVC is the QP c = -e, H = Q + ridge I, A = y', b = 0, box [0, C]
        tr = gen_blobs(20, 2, 3.0, seed=4)
        X, y = np.asarray(tr.X), tr.y
        kernel = KernelSpec("gaussian", 1.0)
        cfg = default_config(40, block_size=10, seed=2, max_iters=50,
                             tol_primal=1e-9, tol_dual=1e-9, mode=mode)
        _, diag = train(X, y, 1.0, kernel, cfg, return_diagnostics=True)
        ridge = 1e-9 * (1.0 + cfg.beta_penalty)  # K(x, x) = 1: Gaussian
        problem = QpProblem(
            c=-np.ones(40), H=full_kernel_matrix(X, y, kernel) + ridge * np.eye(40),
            A=y[None, :], b=np.zeros(1), lower=np.zeros(40), upper=np.ones(40))
        want = solve(problem, cfg)
        assert (diag.iterations, diag.status) == (want.iterations, want.status)
        np.testing.assert_allclose(diag.duals, want.x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(diag.y, want.y, rtol=0, atol=1e-12)

    def test_rp_training_keeps_no_kernel_strip(self):
        # RP keeps each block's s x s matrix and factor: 2 n s floats, 3.2 MB
        # here. Kept n x s strips would add 32 MB, as would the n x n kernel.
        tr = gen_blobs(1000, 5, 3.0, seed=0)
        cfg = dataclasses.replace(
            default_config(2000, block_size=100, seed=1, max_iters=4,
                           mode=Mode.RP), fixed_iterations=True)
        tracemalloc.start()
        try:
            _, diag = train(tr.X, tr.y, 1.0, KernelSpec("gaussian", 3.0), cfg,
                            return_diagnostics=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert diag.iterations == 4
        assert peak < 16e6


class TestBias:
    def test_symmetric_pair_zero_bias(self):
        X = np.array([[1.0], [-1.0]])
        y = np.array([1.0, -1.0])
        model = train(X, y, 1.0, KernelSpec("linear"),
                      default_config(2, block_size=1, max_iters=2000,
                                     tol_primal=1e-10, tol_dual=1e-10))
        assert model.bias == pytest.approx(0.0, abs=1e-9)

    def test_translation_moves_boundary(self):
        rng = np.random.default_rng(13)
        X = np.vstack([rng.standard_normal((20, 2)) + [2.5, 0.0],
                       rng.standard_normal((20, 2)) - [2.5, 0.0]])
        y = np.concatenate([np.ones(20), -np.ones(20)])
        # linear-kernel blocks are only PD up to the feature dimension
        cfg = default_config(40, block_size=2, seed=0, max_iters=2000,
                             tol_primal=1e-6, tol_dual=1e-6)
        base = train(X, y, 1.0, KernelSpec("linear"), cfg)
        t = np.array([7.0, -3.0])
        shifted = train(X + t, y, 1.0, KernelSpec("linear"), cfg)
        probes = rng.standard_normal((50, 2)) * 3
        np.testing.assert_array_equal(predict(base, probes),
                                      predict(shifted, probes + t))

    def test_averaging_agrees_with_single_margin_vectors(self):
        tr = gen_blobs(15, 2, 3.0, seed=5)
        C, delta = 1.0, 1e-6
        cfg = default_config(30, block_size=10, seed=2, max_iters=20000,
                             tol_primal=1e-8, tol_dual=1e-8)
        model, diag = train(tr.X, tr.y, C, KernelSpec("gaussian", 1.0), cfg,
                            return_diagnostics=True)
        z = diag.duals
        X = np.asarray(tr.X)
        margin = np.flatnonzero((z > delta * C) & (z < C * (1 - delta)))
        support = z > 1e-8
        coeffs = tr.y[support] * z[support]
        for i in margin:
            k = kernel_cross(X[i:i + 1], X[support], model.kernel)[0]
            b_i = tr.y[i] - k @ coeffs
            assert b_i == pytest.approx(model.bias, abs=1e-6)

    def test_interval_rule_when_all_duals_at_bounds(self):
        # two points x = 1 and x = -1, both duals pinned at C: the bias is
        # bracketed by the bound conditions and lands mid-interval; with the
        # linear kernel K(x_i, x_j) = x_i x_j, so K = [[1, -1], [-1, 1]]
        y = np.array([1.0, -1.0])
        C = 0.25
        duals = np.array([C, C])
        g = np.array([
            duals[0] * y[0] * 1.0 + duals[1] * y[1] * -1.0,
            duals[0] * y[0] * -1.0 + duals[1] * y[1] * 1.0,
        ])
        vals = y - g
        expected = (max(vals[1], -np.inf) + min(vals[0], np.inf)) / 2
        got = compute_bias(duals, g, y, C)
        assert got == pytest.approx(expected)

    @pytest.mark.parametrize("duals, scores, want", [
        # z = 0 with y = +1 and z = C with y = -1 bound b from below only:
        # y - scores = (-1, 2), so b is the largest lower bound
        ([0.0, 0.25], [2.0, -3.0], 2.0),
        # z = C with y = +1 and z = 0 with y = -1 bound b from above only:
        # y - scores = (-3, 1), so b is the smallest upper bound
        ([0.25, 0.0], [4.0, -2.0], -3.0),
    ])
    def test_one_sided_bracket_returns_its_bound(self, duals, scores, want):
        got = compute_bias(np.array(duals), np.array(scores),
                           np.array([1.0, -1.0]), 0.25)
        assert got == want

    def test_no_support_vectors_is_degenerate(self):
        with pytest.raises(DegenerateModelError):
            compute_bias(np.zeros(2), np.zeros(2), np.array([1.0, -1.0]), 1.0)

    # (C, center distance): interior duals on the margin; every dual at C
    @pytest.mark.parametrize("C, distance, margin", [
        (1.0, 2.0, True), (1e-2, 1.0, False)])
    def test_train_bias_matches_explicit_kernel_scores(self, C, distance,
                                                       margin):
        # train reads the decision scores from the solve's running product
        # g; fed scores from the explicit kernel, compute_bias agrees
        tr = gen_blobs(30, 2, distance, seed=3)
        kernel = KernelSpec("gaussian", 1.0)
        cfg = default_config(60, block_size=10, seed=1, max_iters=50)
        model, diag = train(tr.X, tr.y, C, kernel, cfg,
                            return_diagnostics=True)
        z = diag.duals
        on_margin = (z > svm.MARGIN_DELTA * C) & \
            (z < (1.0 - svm.MARGIN_DELTA) * C)
        assert on_margin.any() == margin
        scores = tr.y * (full_kernel_matrix(tr.X, tr.y, kernel) @ z)
        assert model.bias == pytest.approx(compute_bias(z, scores, tr.y, C),
                                           rel=0, abs=1e-14)

    def test_no_kernel_evaluation_after_the_solve(self, monkeypatch):
        solved = []

        def solve_then_mark(*args, **kwargs):
            result = solve(*args, **kwargs)
            solved.append(True)
            return result

        def guarded_cross(*args, **kwargs):
            assert not solved, "kernel evaluated after the solve returned"
            return kernel_cross(*args, **kwargs)

        monkeypatch.setattr(svm, "solve", solve_then_mark)
        monkeypatch.setattr(svm, "kernel_cross", guarded_cross)
        tr = gen_blobs(20, 2, 2.0, seed=6)
        model = train(tr.X, tr.y, 1.0, KernelSpec("gaussian", 1.0))
        assert solved and math.isfinite(model.bias)

    def test_diagnostics_carry_the_dual_qp_products(self):
        # g = (Q + ridge I) z - e and r = y'z, against the explicit kernel
        tr = gen_blobs(25, 3, 2.0, seed=8)
        kernel = KernelSpec("gaussian", 1.5)
        cfg = default_config(50, block_size=10, seed=4, max_iters=20)
        _, diag = train(tr.X, tr.y, 1.0, kernel, cfg, return_diagnostics=True)
        z = diag.duals
        ridge = 1e-9 * (1.0 + cfg.beta_penalty)
        Q = full_kernel_matrix(tr.X, tr.y, kernel)
        want_g = Q @ z + ridge * z - 1.0
        scale = max(1.0, float(np.max(np.abs(want_g))))
        assert np.max(np.abs(diag.g - want_g)) <= 1e-12 * scale
        assert diag.r.shape == (1,)
        assert abs(diag.r[0] - tr.y @ z) <= 1e-12 * max(1.0, np.sum(z))


class TestPredict:
    def test_strongly_classified_training_point_keeps_label(self):
        tr = gen_blobs(30, 2, 6.0, seed=14)
        model = train(tr.X, tr.y, 1.0, KernelSpec("gaussian", 1.0))
        f = decision_values(model, tr.X)
        strong = np.abs(f) > 0.5
        assert np.any(strong)
        np.testing.assert_array_equal(predict(model, tr.X)[strong],
                                      tr.y[strong])

    def test_sign_zero_is_positive(self):
        model = SvmModel(
            support_points=np.array([[1.0]]), support_duals=np.array([1.0]),
            support_labels=np.array([1.0]), bias=-1.0,
            kernel=KernelSpec("linear"), C=1.0)
        # f(0) = 1*1*<1,0> - 1 = -1; f(1) = 0 -> sign(0) -> +1
        np.testing.assert_array_equal(predict(model, np.array([[1.0]])),
                                      [1.0])

    def test_all_correct_is_hundred(self):
        tr = gen_blobs(20, 2, 8.0, seed=15)
        model = train(tr.X, tr.y, 1.0, KernelSpec("gaussian", 1.0))
        assert accuracy(model, tr.X, tr.y) == 100.0

    def test_saturated_bias_gives_prevalence(self):
        tr = gen_blobs(20, 2, 6.0, seed=16)
        model = train(tr.X, tr.y, 1.0, KernelSpec("gaussian", 1.0))
        flooded = SvmModel(
            support_points=model.support_points,
            support_duals=model.support_duals,
            support_labels=model.support_labels,
            bias=model.bias + 1e9, kernel=model.kernel, C=model.C)
        assert accuracy(flooded, tr.X, tr.y) == 50.0

    def test_invariant_to_support_order(self):
        tr = gen_blobs(20, 2, 4.0, seed=17)
        model = train(tr.X, tr.y, 1.0, KernelSpec("gaussian", 1.0))
        perm = np.random.default_rng(0).permutation(model.support_duals.size)
        shuffled = SvmModel(
            support_points=model.support_points[perm],
            support_duals=model.support_duals[perm],
            support_labels=model.support_labels[perm],
            bias=model.bias, kernel=model.kernel, C=model.C)
        probes = gen_blobs(10, 2, 6.0, seed=18).X
        np.testing.assert_allclose(decision_values(model, probes),
                                   decision_values(shuffled, probes),
                                   atol=1e-12)


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_row_refused(self, bad):
        # a NaN row used to be classified -1 without a word
        tr = gen_blobs(20, 2, 6.0, seed=16)
        model = train(tr.X, tr.y, 1.0, KernelSpec("gaussian", 1.0))
        probes = np.array(tr.X[:5])
        probes[3, 0] = bad
        with pytest.raises(ValueError, match="row 3"):
            predict(model, probes)
        with pytest.raises(ValueError, match="row 3"):
            decision_values(model, probes)


class TestGridSearch:
    def test_non_finite_X_refused(self):
        tr = gen_blobs(25, 2, 6.0, seed=19)
        X = np.array(tr.X)
        X[:, 0] = np.nan
        with pytest.raises(ValueError, match="X must be finite"):
            grid_search(X, tr.y, [1.0], [1.0], holdout=0.3, seed=0)

    def test_single_cell(self):
        tr = gen_blobs(25, 2, 6.0, seed=19)
        best, table = grid_search(tr.X, tr.y, [1.0], [1.0], holdout=0.3,
                                  seed=0)
        assert best == (1.0, 1.0)
        assert len(table) == 1

    def test_argmax_consistency_and_tie_rule(self):
        tr = gen_blobs(40, 2, 6.0, seed=20)
        best, table = grid_search(tr.X, tr.y, [10.0, 0.1, 1.0],
                                  [10.0, 1.0], holdout=0.3, seed=1)
        best_score = max(row["accuracy"] for row in table)
        winners = [(row["c"], row["sigma"]) for row in table
                   if row["accuracy"] == best_score]
        assert best == min(winners)  # smaller C, then smaller sigma

    def test_deterministic_and_thread_invariant(self):
        tr = gen_blobs(30, 2, 6.0, seed=22)
        a = grid_search(tr.X, tr.y, [0.1, 1.0], [0.1, 1.0], seed=5)
        b = grid_search(tr.X, tr.y, [0.1, 1.0], [0.1, 1.0], seed=5)
        c = grid_search(tr.X, tr.y, [0.1, 1.0], [0.1, 1.0], seed=5,
                        threads=4)
        assert a == b == c

    def test_single_class_split_rejected(self):
        X = np.random.default_rng(0).standard_normal((10, 2))
        y = np.ones(10)
        with pytest.raises(DegenerateSplitError):
            grid_search(X, y, [1.0], [1.0], holdout=0.3, seed=0)

    def test_bad_holdout(self):
        tr = gen_blobs(10, 2, 6.0, seed=23)
        with pytest.raises(ValueError):
            grid_search(tr.X, tr.y, [1.0], [1.0], holdout=1.5, seed=0)
        with pytest.raises(ValueError):
            grid_search(tr.X, tr.y, [], [1.0], holdout=0.3, seed=0)

    def test_threads_below_one_refused(self):
        tr = gen_blobs(10, 2, 6.0, seed=23)
        with pytest.raises(ValueError, match="threads must be >= 1"):
            grid_search(tr.X, tr.y, [1.0], [1.0], threads=0)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        tr = gen_blobs(20, 3, 5.0, seed=24)
        model = train(tr.X, tr.y, 2.0, KernelSpec("gaussian", 0.7))
        path = tmp_path / "svm.json"
        save_model(model, path)
        assert (tmp_path / "svm.bin").exists()
        back = load_model(path)
        np.testing.assert_array_equal(back.support_points,
                                      model.support_points)
        np.testing.assert_array_equal(back.support_duals,
                                      model.support_duals)
        np.testing.assert_array_equal(back.support_labels,
                                      model.support_labels)
        assert back.bias == model.bias
        assert back.C == model.C
        assert back.kernel == model.kernel
        probes = gen_blobs(5, 3, 5.0, seed=25).X
        np.testing.assert_array_equal(predict(back, probes),
                                      predict(model, probes))
