import json
import math

import numpy as np
import pytest
import scipy.sparse as sp

import racml.elastic_net as en
from racml.elastic_net import (
    ElasticNetSpec,
    consensus_fit,
    evaluate,
    fit,
    load_model,
    objective,
    resolve_gamma,
    save_model,
    soft_threshold,
    z_update,
)
from racml import engine
from racml.data_io import gen_regression
from racml.problems import Mode, Status


def golden_section_prox(a, gamma, lam, alpha, lo=-1e3, hi=1e3):
    """1-D oracle: minimize a*z + gamma/2 z^2 + lam*alpha|z| + lam(1-alpha)/2 z^2.

    Golden-section search localizes the minimum; because the objective is
    exactly quadratic on each side of zero, a three-point parabola fit then
    pins it to rounding precision (plain golden section stalls at the
    sqrt(eps) function-comparison wall).
    """

    def h(z):
        return a * z + 0.5 * gamma * z * z + lam * alpha * abs(z) \
            + 0.5 * lam * (1 - alpha) * z * z

    phi = (math.sqrt(5) - 1) / 2
    x1 = hi - phi * (hi - lo)
    x2 = lo + phi * (hi - lo)
    f1, f2 = h(x1), h(x2)
    while hi - lo > 1e-5:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - phi * (hi - lo)
            f1 = h(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + phi * (hi - lo)
            f2 = h(x2)
    mid = (lo + hi) / 2

    def parabola_vertex(p0, p1, p2):
        d2 = h(p2) - 2 * h(p1) + h(p0)
        if d2 <= 0:
            return p1
        return p1 - 0.5 * (p2 - p0) / 2 * (h(p2) - h(p0)) / d2

    step = 1e-3
    candidates = [0.0]
    if mid > -step:  # right smooth piece
        v = parabola_vertex(step, 2 * step, 3 * step)
        candidates.append(max(v, 0.0))
    if mid < step:   # left smooth piece
        v = parabola_vertex(-3 * step, -2 * step, -step)
        candidates.append(min(v, 0.0))
    return min(candidates, key=h)


def cd_elastic_net(X, y, lam, alpha, iters=100000, tol=1e-12):
    """Independent coordinate-descent oracle for the elastic-net objective."""
    n, p = X.shape
    beta = np.zeros(p)
    col_sq = np.asarray((X.multiply(X) if sp.issparse(X) else X * X).sum(axis=0)
                        ).ravel() / n
    r = y.astype(float).copy()
    cols = [np.asarray(X[:, j].todense()).ravel() if sp.issparse(X) else X[:, j]
            for j in range(p)]
    for _ in range(iters):
        delta = 0.0
        for j in range(p):
            bj = beta[j]
            rho = cols[j] @ r / n + col_sq[j] * bj
            denom = col_sq[j] + lam * (1 - alpha)
            # an all-zero column with alpha = 1 leaves only lam*|beta_j|,
            # minimized at 0 (the formula would divide 0 by 0)
            new = np.sign(rho) * max(abs(rho) - lam * alpha, 0.0) / denom \
                if denom > 0 else 0.0
            if new != bj:
                r -= cols[j] * (new - bj)
                delta = max(delta, abs(new - bj))
            beta[j] = new
        if delta < tol:
            break
    return beta


class TestSoftThreshold:
    def test_stated_cases(self):
        assert soft_threshold(3.0, 1.0) == -2.0
        assert soft_threshold(-3.0, 1.0) == 2.0
        assert soft_threshold(0.5, 1.0) == 0.0

    def test_vectorized(self):
        np.testing.assert_array_equal(
            soft_threshold(np.array([3.0, -3.0, 0.5]), 1.0),
            [-2.0, 2.0, 0.0])

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)


class TestZUpdate:
    def test_zero_input(self):
        assert z_update(0.0, 0.0, 1.7, 0.3, 0.5) == 0.0

    def test_derived_case(self):
        # minimize -3z + z^2/2 + |z|: optimum z = 2
        assert z_update(3.0, 0.0, 1.0, 1.0, 1.0) == pytest.approx(2.0)
        oracle = golden_section_prox(0.0 - 1.0 * 3.0, 1.0, 1.0, 1.0)
        assert oracle == pytest.approx(2.0, abs=1e-9)

    def test_thousand_random_draws_match_prox_oracle(self):
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(1000):
            beta = float(rng.standard_normal() * 3)
            xi = float(rng.standard_normal() * 3)
            gamma = float(rng.uniform(0.05, 5.0))
            lam = float(rng.uniform(0.0, 3.0))
            alpha = float(rng.uniform(0.0, 1.0))
            got = z_update(beta, xi, gamma, lam, alpha)
            want = golden_section_prox(xi - gamma * beta, gamma, lam, alpha)
            worst = max(worst, abs(got - want))
        assert worst <= 1e-8

    def test_gamma_guard(self):
        with pytest.raises(ValueError):
            z_update(1.0, 1.0, 0.0, 1.0, 0.5)


class TestResolveGamma:
    def test_explicit_wins(self):
        assert resolve_gamma(
            ElasticNetSpec(lam=1.0, alpha=1.0, gamma=2.5)) == 2.5

    def test_default_is_lam(self):
        assert resolve_gamma(ElasticNetSpec(lam=0.4, alpha=1.0)) == 0.4
        assert resolve_gamma(ElasticNetSpec(lam=1e-3, alpha=0.9)) == 1e-3

    def test_lam_zero_default(self):
        assert resolve_gamma(ElasticNetSpec(lam=0.0, alpha=1.0)) == 1.0

    def test_default_descends_on_a_wide_sparse_design(self):
        # a penalty of lam / 10 on this 1% design (the former rule for
        # designs at least 0.5% dense) left RAC above the objective at
        # beta = 0 after 100 sweeps; the default penalty lam descends
        ds, _ = gen_regression(200, 2000, x_density=0.01, coef_density=0.1,
                               noise_sd=0.1, seed=0)
        lam, alpha = 1e-3, 0.9
        model = fit(ds.X, ds.y, ElasticNetSpec(lam=lam, alpha=alpha,
                                               iters=100))
        at_zero = objective(ds.X, ds.y, np.zeros(2000), lam, alpha)
        assert objective(ds.X, ds.y, model.beta, lam, alpha) < at_zero
        assert objective(ds.X, ds.y, model.z, lam, alpha) < at_zero
        assert model.gamma == lam


class TestFit:
    def test_identity_design_recovers_targets(self):
        n = 8
        y = np.arange(1.0, n + 1)
        model = fit(np.eye(n), y, ElasticNetSpec(
            lam=0.0, alpha=1.0, gamma=1.0, block_size=3, iters=300, seed=1))
        np.testing.assert_allclose(model.beta, y, atol=1e-10)

    @pytest.mark.parametrize("mode", [Mode.RAC, Mode.RP])
    @pytest.mark.parametrize("lam", [0.05, 1.0, 10.0])
    def test_ridge_matches_closed_form(self, mode, lam):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((30, 10))
        y = rng.standard_normal(30)
        closed = np.linalg.solve(X.T @ X / 30 + lam * np.eye(10),
                                 X.T @ y / 30)
        model = fit(X, y, ElasticNetSpec(
            lam=lam, alpha=0.0, block_size=4, iters=8000, mode=mode,
            seed=3, tol=1e-13))
        np.testing.assert_allclose(model.beta, closed, atol=1e-6)

    def test_lasso_matches_coordinate_descent(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((50, 20))
        truth = rng.standard_normal(20) * (rng.random(20) < 0.4)
        y = X @ truth + 0.1 * rng.standard_normal(50)
        lam, alpha = 0.1, 1.0
        oracle = cd_elastic_net(X, y, lam, alpha)
        model = fit(X, y, ElasticNetSpec(
            lam=lam, alpha=alpha, block_size=7, iters=20000, seed=4,
            tol=1e-11))
        o_ref = objective(X, y, oracle, lam, alpha)
        o_got = objective(X, y, model.z, lam, alpha)
        assert abs(o_got - o_ref) <= 1e-4 * abs(o_ref)

    def test_lasso_with_all_zero_columns_matches_coordinate_descent(self):
        # at 5% density a 100 x 1000 design has columns with no entry; with
        # alpha = 1 their coordinates are 0 at the optimum
        ds, _ = gen_regression(100, 1000, x_density=0.05, coef_density=0.1,
                               noise_sd=0.1, seed=0)
        empty = np.asarray(abs(ds.X).sum(axis=0)).ravel() == 0
        assert empty.any()
        lam, alpha = 0.05, 1.0
        oracle = cd_elastic_net(ds.X, ds.y, lam, alpha)
        assert np.all(np.isfinite(oracle)) and not oracle[empty].any()
        model = fit(ds.X, ds.y, ElasticNetSpec(
            lam=lam, alpha=alpha, iters=5000, seed=2, tol=1e-8))
        o_ref = objective(ds.X, ds.y, oracle, lam, alpha)
        o_got = objective(ds.X, ds.y, model.z, lam, alpha)
        assert abs(o_got - o_ref) <= 1e-4 * abs(o_ref)

    def test_mixed_alpha_matches_coordinate_descent(self):
        rng = np.random.default_rng(31)
        X = rng.standard_normal((40, 15))
        y = X @ (rng.standard_normal(15) * (rng.random(15) < 0.5)) \
            + 0.2 * rng.standard_normal(40)
        lam, alpha = 0.2, 0.5
        oracle = cd_elastic_net(X, y, lam, alpha)
        model = fit(X, y, ElasticNetSpec(
            lam=lam, alpha=alpha, block_size=6, iters=20000, seed=9,
            tol=1e-11))
        o_ref = objective(X, y, oracle, lam, alpha)
        o_got = objective(X, y, model.z, lam, alpha)
        assert abs(o_got - o_ref) <= 1e-4 * abs(o_ref)
        # the iterate and its split copy coincide at this tolerance
        np.testing.assert_allclose(model.beta, model.z, atol=1e-9)

    def test_z_step_is_exact_minimizer(self):
        # after a sweep, nudging any z coordinate cannot lower the Lagrangian
        rng = np.random.default_rng(12)
        X = rng.standard_normal((20, 6))
        y = rng.standard_normal(20)
        lam, alpha = 0.3, 0.7
        model = fit(X, y, ElasticNetSpec(
            lam=lam, alpha=alpha, gamma=0.5, block_size=2, iters=3, seed=5))
        beta, z, xi, gamma = model.beta, model.z, model.xi, model.gamma
        # xi was updated after the z-step; undo one dual step to evaluate the
        # Lagrangian the z-step actually minimized
        xi_before = xi + gamma * (beta - z)

        def lagrangian_z_part(zv):
            return float((xi_before - gamma * beta) @ zv
                         + 0.5 * gamma * zv @ zv
                         + lam * alpha * np.sum(np.abs(zv))
                         + 0.5 * lam * (1 - alpha) * zv @ zv)

        base = lagrangian_z_part(z)
        for j in range(6):
            for eps in (1e-4, -1e-4):
                cand = z.copy()
                cand[j] += eps
                assert lagrangian_z_part(cand) >= base - 1e-12

    def test_never_materializes_full_gram(self):
        n, p, s = 40, 400, 25
        rng = np.random.default_rng(13)
        X = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        seen = []
        en.set_alloc_hook(seen.append)
        try:
            fit(X, y, ElasticNetSpec(lam=0.2, alpha=1.0, block_size=s,
                                     iters=3, seed=6))
        finally:
            en.set_alloc_hook(None)
        assert seen
        bound = 2 * (s * s + n * s)
        assert max(seen) <= bound
        assert max(seen) < p * p  # the p x p Gram would dwarf the bound

    def test_rp_builds_each_block_gram_once(self):
        n, p, s = 30, 200, 20
        X = sp.random(n, p, density=0.004, random_state=5, format="csc")
        assert X.nnz / (n * p) < 0.005
        y = np.random.default_rng(5).standard_normal(n)
        seen = []
        en.set_alloc_hook(seen.append)
        try:
            model = fit(X, y, ElasticNetSpec(lam=0.1, alpha=0.5, block_size=s,
                                             iters=4, mode=Mode.RP, seed=2))
        finally:
            en.set_alloc_hook(None)
        assert model.iterations == 4
        # each sweep gathers every n x s column block; the s x s Grams are
        # built on the first sweep only
        assert seen.count(n * s) == 4 * (p // s)
        assert seen.count(s * s) == p // s

    def test_rac_on_small_p_factors_each_distinct_block_once(self,
                                                              monkeypatch):
        n, p, s, iters = 30, 6, 2, 20
        rng = np.random.default_rng(8)
        X = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        spec = ElasticNetSpec(lam=0.1, alpha=0.5, block_size=s, iters=iters,
                              mode=Mode.RAC, seed=3)
        factored = []
        cholesky = en._cholesky
        monkeypatch.setattr(en, "_cholesky",
                            lambda mat: factored.append(mat) or cholesky(mat))
        kept = []
        block_system = en.block_system
        monkeypatch.setattr(
            en, "block_system",
            lambda cache, *args: kept.append(cache) or
            block_system(cache, *args))
        cached = fit(X, y, spec)
        cached_calls = len(factored)
        # a kept entry is the block's s x s lower factor only, not the Gram
        assert kept[0]
        for chol in kept[0].values():
            assert isinstance(chol, np.ndarray) and chol.shape == (s, s)
            assert np.array_equal(chol, np.tril(chol))
            assert np.all(np.diag(chol) > 0)
        factored.clear()
        monkeypatch.setattr(engine, "blocks_recur", lambda *args: False)
        uncached = fit(X, y, spec)
        orders = engine.block_orders(Mode.RAC, p, s,
                                     np.random.default_rng(spec.seed))
        distinct = {g for _ in range(iters) for g in next(orders)}
        # p = 6 in blocks of 2 has only 15 distinct blocks for 60 visits
        assert cached_calls == len(distinct) < iters * (p // s)
        assert len(factored) == iters * (p // s)
        for name in ("beta", "z", "xi"):
            assert np.array_equal(getattr(cached, name),
                                  getattr(uncached, name))
        assert (cached.iterations, cached.residual, cached.status) == \
            (uncached.iterations, uncached.residual, uncached.status)

    @pytest.mark.parametrize("bad", ["y", "X"])
    def test_non_finite_input_refused(self, bad):
        rng = np.random.default_rng(15)
        X = sp.random(20, 8, density=0.5, random_state=15, format="csc")
        y = rng.standard_normal(20)
        if bad == "y":
            y[X.indices[0]] = np.nan
        else:
            X.data[3] = np.inf
        with pytest.raises(ValueError, match="must be finite"):
            fit(X, y, ElasticNetSpec(lam=0.1, alpha=0.5, block_size=4,
                                     iters=3))

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((25, 12))
        y = rng.standard_normal(25)
        spec = ElasticNetSpec(lam=0.1, alpha=0.8, block_size=5, iters=20,
                              seed=21)
        a = fit(X, y, spec)
        b = fit(X, y, spec)
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.xi, b.xi)

    def test_sparse_design_supported(self):
        ds_rng = np.random.default_rng(15)
        X = sp.csc_matrix(np.where(ds_rng.random((30, 40)) < 0.2,
                                   ds_rng.standard_normal((30, 40)), 0.0))
        y = ds_rng.standard_normal(30)
        model = fit(X, y, ElasticNetSpec(lam=0.05, alpha=1.0, block_size=16,
                                         iters=50, seed=7))
        assert model.beta.shape == (40,)
        assert np.all(np.isfinite(model.beta))

    @pytest.mark.parametrize("fitter", [fit, consensus_fit])
    def test_status_says_why_the_run_stopped(self, fitter):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((25, 12))
        y = rng.standard_normal(25)
        spec = ElasticNetSpec(lam=0.1, alpha=0.8, block_size=5, iters=5000,
                              seed=21, tol=1e-6)
        tight = fitter(X, y, spec)
        assert tight.status == Status.CONVERGED
        assert tight.iterations < spec.iters and tight.residual <= spec.tol
        # without a tolerance the whole budget runs and nothing certifies it
        budget = fitter(X, y, ElasticNetSpec(lam=0.1, alpha=0.8, block_size=5,
                                             iters=20, seed=21))
        assert budget.status == Status.MAX_ITERS
        assert budget.iterations == 20

    def test_divergence_guard_reports_diverged(self, monkeypatch):
        # with the guard's bar forced below any nonzero ||beta - z||_1, the
        # first sweep ends the run as DIVERGED
        monkeypatch.setattr(engine, "DIVERGENCE_FACTOR", 1e-15)
        rng = np.random.default_rng(14)
        model = fit(rng.standard_normal((25, 12)), rng.standard_normal(25),
                    ElasticNetSpec(lam=0.1, alpha=0.8, block_size=5, iters=20))
        assert model.status == Status.DIVERGED
        assert model.iterations == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            fit(np.eye(2), np.zeros(2),
                ElasticNetSpec(lam=-1.0, alpha=0.5))
        with pytest.raises(ValueError):
            fit(np.eye(2), np.zeros(2),
                ElasticNetSpec(lam=1.0, alpha=2.0))
        with pytest.raises(ValueError):
            fit(np.eye(2), np.zeros(2),
                ElasticNetSpec(lam=1.0, alpha=0.5, mode=Mode.CYCLIC))

    @pytest.mark.parametrize("field, value", [
        ("lam", math.nan), ("lam", math.inf), ("gamma", math.nan),
        ("gamma", math.inf), ("tol", math.nan), ("tol", -1.0)])
    def test_non_finite_settings_refused(self, field, value):
        # each of these used to run to the sweep cap on NaN iterates
        spec = ElasticNetSpec(**{"lam": 0.1, "alpha": 0.5, field: value})
        with pytest.raises(ValueError, match=field):
            fit(np.eye(3), np.ones(3), spec)


class TestEvaluate:
    def test_true_generator_zero_loss(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((12, 4))
        beta = rng.standard_normal(4)
        model = en.ElasticNetModel(
            beta=beta, z=beta, xi=np.zeros(4),
            spec=ElasticNetSpec(lam=0.0, alpha=1.0), gamma=1.0,
            iterations=0, residual=0.0)
        res = evaluate(model, X, X @ beta)
        assert res["l2_loss"] == pytest.approx(0.0, abs=1e-12)

    def test_null_model(self):
        y = np.array([3.0, -4.0])
        model = en.ElasticNetModel(
            beta=np.zeros(2), z=np.zeros(2), xi=np.zeros(2),
            spec=ElasticNetSpec(lam=0.0, alpha=1.0), gamma=1.0,
            iterations=0, residual=0.0)
        res = evaluate(model, np.eye(2), y)
        assert res["l2_loss"] == pytest.approx(5.0)
        assert res["model_error"] == pytest.approx(12.5)

    def test_hand_computed_three_points(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        beta = np.array([2.0, -1.0])
        y = np.array([1.0, 0.0, 2.0])
        model = en.ElasticNetModel(
            beta=beta, z=beta, xi=np.zeros(2),
            spec=ElasticNetSpec(lam=0.0, alpha=1.0), gamma=1.0,
            iterations=0, residual=0.0)
        res = evaluate(model, X, y)
        # residuals: (2-1, -1-0, 1-2) -> sqrt(1+1+1)
        assert res["l2_loss"] == pytest.approx(math.sqrt(3.0))
        assert res["model_error"] == pytest.approx(1.0)

    def test_feature_mismatch(self):
        model = en.ElasticNetModel(
            beta=np.zeros(3), z=np.zeros(3), xi=np.zeros(3),
            spec=ElasticNetSpec(lam=0.0, alpha=1.0), gamma=1.0,
            iterations=0, residual=0.0)
        with pytest.raises(ValueError):
            evaluate(model, np.eye(2), np.zeros(2))


class TestConsensus:
    def test_identity_design_same_optimum(self):
        # lam=0 makes the splitting residual vanish after every z-step, so
        # this runs on a fixed sweep budget rather than a tolerance
        n = 6
        y = np.arange(1.0, n + 1)
        spec = ElasticNetSpec(lam=0.0, alpha=1.0, gamma=1.0, block_size=2,
                              iters=4000, seed=2)
        direct = fit(np.eye(n), y, spec)
        cons = consensus_fit(np.eye(n), y, spec)
        np.testing.assert_allclose(direct.beta, y, atol=1e-8)
        np.testing.assert_allclose(cons.beta, direct.beta, atol=1e-6)

    def test_shared_optimum_at_tight_tolerance(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((30, 12))
        y = rng.standard_normal(30)
        lam, alpha = 0.2, 1.0
        spec = ElasticNetSpec(lam=lam, alpha=alpha, gamma=lam, block_size=4,
                              iters=200000, seed=8, tol=1e-10)
        a = fit(X, y, spec)
        b = consensus_fit(X, y, spec)
        oa = objective(X, y, a.z, lam, alpha)
        ob = objective(X, y, b.z, lam, alpha)
        assert abs(oa - ob) <= 1e-5 * max(1.0, abs(oa))

    def test_deterministic(self):
        rng = np.random.default_rng(18)
        X = rng.standard_normal((20, 9))
        y = rng.standard_normal(20)
        spec = ElasticNetSpec(lam=0.1, alpha=1.0, block_size=3, iters=30,
                              seed=9)
        a = consensus_fit(X, y, spec)
        b = consensus_fit(X, y, spec)
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.z, b.z)

    def test_wide_sample_groups_use_direct_solves(self):
        # few features, large sample groups: the p x p route, not Woodbury
        rng = np.random.default_rng(27)
        X = rng.standard_normal((40, 5))
        y = rng.standard_normal(40)
        lam = 0.1
        spec = ElasticNetSpec(lam=lam, alpha=1.0, gamma=lam, block_size=5,
                              iters=100000, seed=3, tol=1e-11)
        direct = fit(X, y, spec)
        cons = consensus_fit(X, y, spec)
        oa = objective(X, y, direct.z, lam, 1.0)
        ob = objective(X, y, cons.z, lam, 1.0)
        assert abs(oa - ob) <= 1e-6 * max(1.0, abs(oa))

    # each input fit refuses; at a 40 x 8 design consensus_fit used to fit a
    # long y silently, divide by zero on an empty X, and fail inside scipy
    # on a NaN
    @pytest.mark.parametrize("fitter", [fit, consensus_fit])
    def test_refuses_a_y_of_the_wrong_length(self, fitter):
        rng = np.random.default_rng(31)
        X, y = rng.standard_normal((40, 8)), rng.standard_normal(42)
        with pytest.raises(ValueError, match="y has length 42, expected 40"):
            fitter(X, y, ElasticNetSpec(lam=0.1, alpha=0.5, block_size=4))

    @pytest.mark.parametrize("fitter", [fit, consensus_fit])
    def test_refuses_an_empty_design(self, fitter):
        with pytest.raises(ValueError, match="non-empty"):
            fitter(np.zeros((0, 8)), np.zeros(0),
                   ElasticNetSpec(lam=0.1, alpha=0.5, block_size=4))

    @pytest.mark.parametrize("fitter", [fit, consensus_fit])
    def test_refuses_non_finite_data(self, fitter):
        rng = np.random.default_rng(32)
        X, y = rng.standard_normal((40, 8)), rng.standard_normal(40)
        X[5, 3] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            fitter(X, y, ElasticNetSpec(lam=0.1, alpha=0.5, block_size=4))


class TestSerialization:
    def test_round_trip_inline(self, tmp_path):
        rng = np.random.default_rng(19)
        X = rng.standard_normal((10, 5))
        y = rng.standard_normal(10)
        model = fit(X, y, ElasticNetSpec(lam=0.2, alpha=0.6, block_size=2,
                                         iters=5, seed=3))
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        np.testing.assert_array_equal(back.beta, model.beta)
        np.testing.assert_array_equal(back.z, model.z)
        np.testing.assert_array_equal(back.xi, model.xi)
        assert back.spec == model.spec
        assert back.iterations == model.iterations
        assert back.residual == model.residual
        assert back.status == model.status == Status.MAX_ITERS

    def test_status_round_trips(self, tmp_path):
        rng = np.random.default_rng(19)
        model = fit(rng.standard_normal((10, 5)), rng.standard_normal(10),
                    ElasticNetSpec(lam=0.2, alpha=0.6, block_size=2,
                                   iters=5000, seed=3, tol=1e-8))
        assert model.status == Status.CONVERGED
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path).status == Status.CONVERGED
        # a file written before models carried a status loads as MAX_ITERS
        doc = json.loads(path.read_text())
        del doc["status"]
        path.write_text(json.dumps(doc))
        assert load_model(path).status == Status.MAX_ITERS

    def test_long_vectors_go_to_sidecar(self, tmp_path, monkeypatch):
        monkeypatch.setattr(en, "INLINE_VECTOR_LIMIT", 8)
        model = en.ElasticNetModel(
            beta=np.linspace(0, 1, 20), z=np.zeros(20), xi=np.ones(20),
            spec=ElasticNetSpec(lam=0.1, alpha=1.0), gamma=0.01,
            iterations=3, residual=0.5)
        path = tmp_path / "model.json"
        save_model(model, path)
        assert (tmp_path / "model.beta.bin").exists()
        raw = (tmp_path / "model.beta.bin").read_bytes()
        assert len(raw) == 20 * 8  # little-endian float64 payload
        back = load_model(path)
        np.testing.assert_array_equal(back.beta, model.beta)
        np.testing.assert_array_equal(back.xi, model.xi)
