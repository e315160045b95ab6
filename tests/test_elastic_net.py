import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

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
from racml.problems import Mode, Status, chunk_indices


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
        # each sweep gathers every column block as a sparse slice, noting
        # its stored entries; the s x s Grams are built on the first sweep
        # only, each right after its block's gather
        orders = engine.block_orders(Mode.RP, p, s, np.random.default_rng(2))
        want = []
        for sweep in range(4):
            for g in next(orders):
                want.append(X[:, list(g)].nnz)
                if sweep == 0:
                    want.append(s * s)
        assert seen == want
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

    @pytest.mark.parametrize("fmt", ["coo", "dia", "bsr", "csr"])
    @pytest.mark.parametrize("fitter", [fit, consensus_fit])
    def test_unsliceable_sparse_formats_fit_as_csc(self, fitter, fmt):
        # COO (sp.random's default), DIA and BSR have no column slicing, and
        # CSR slices columns slowly: every sparse design is fitted as CSC
        X = sp.random(30, 20, density=0.3, random_state=16, format="csc")
        y = np.random.default_rng(16).standard_normal(30)
        spec = ElasticNetSpec(lam=0.05, alpha=0.7, block_size=6, iters=15,
                              seed=3)
        want = fitter(X, y, spec)
        got = fitter(X.asformat(fmt), y, spec)
        for name in ("beta", "z", "xi"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert (got.iterations, got.residual, got.status) == \
            (want.iterations, want.residual, want.status)

    # (n, p, block_size): fit's blocks recur (p <= 64) or not; consensus_fit
    # takes its p x p route on the tall design and Woodbury on the others
    @pytest.mark.parametrize("n, p, s", [(120, 10, 4), (50, 64, 8),
                                         (200, 300, 50)])
    @pytest.mark.parametrize("mode", [Mode.RAC, Mode.RP])
    @pytest.mark.parametrize("fitter", [fit, consensus_fit])
    # at 1% the slices stay sparse, at 30% they are made dense
    @pytest.mark.parametrize("density", [0.01, 0.3])
    def test_sparse_design_matches_dense(self, density, fitter, mode, n, p,
                                         s):
        X = sp.random(n, p, density=density, random_state=18, format="csc")
        y = np.random.default_rng(18).standard_normal(n)
        spec = ElasticNetSpec(lam=0.01, alpha=0.5, block_size=s, iters=30,
                              mode=mode, seed=4)
        want = fitter(X.toarray(), y, spec)
        got = fitter(X, y, spec)
        for name in ("beta", "z", "xi"):
            ref = getattr(want, name)
            assert np.max(np.abs(getattr(got, name) - ref)) <= \
                1e-12 * np.max(np.abs(ref))
        assert (got.iterations, got.status) == (want.iterations, want.status)

    def test_filled_column_blocks_are_gathered_dense(self):
        # the hook notes n x s for a slice made dense and the stored entries
        # for one kept sparse; every gather is followed by its Gram
        n, p, s = 40, 60, 10
        X = sp.random(n, p, density=0.005, random_state=21, format="lil")
        X[:, :3] = 1.0  # blocks holding these columns fill their slices
        X = X.tocsc()
        seen = []
        en.set_alloc_hook(seen.append)
        try:
            fit(X, np.ones(n), ElasticNetSpec(lam=0.1, alpha=0.5,
                                              block_size=s, iters=1, seed=3))
        finally:
            en.set_alloc_hook(None)
        order = next(engine.block_orders(Mode.RAC, p, s,
                                         np.random.default_rng(3)))
        nnz = [X[:, list(g)].nnz for g in order]
        want = [n * s if k > en.SPARSE_SLICE_DENSITY * n * s else k
                for k in nnz]
        assert seen[::2] == want
        assert n * s in want and min(want) < n * s

    # float32 X was multiplied in float32 and a bool X's Gram counted
    # logically until X was stored as float64
    @pytest.mark.parametrize("dtype", [np.float32, bool])
    @pytest.mark.parametrize("density", [0.01, 0.3])
    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("fitter", [fit, consensus_fit])
    def test_design_of_another_dtype_fits_as_float64(self, fitter, sparse,
                                                     density, dtype):
        X = sp.random(200, 300, density=density, random_state=22,
                      format="csc", dtype=float, data_rvs=lambda k:
                      np.random.default_rng(22).integers(1, 4, k))
        X = X.astype(dtype)
        y = np.random.default_rng(22).standard_normal(200)
        spec = ElasticNetSpec(lam=0.01, alpha=0.5, block_size=50, iters=20)
        twin = X.astype(float)
        if not sparse:
            X, twin = X.toarray(), twin.toarray()
        want = fitter(twin, y, spec)
        got = fitter(X, y, spec)
        for name in ("beta", "z", "xi"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("fitter", [fit, consensus_fit])
    def test_nested_list_design_fits_as_its_array(self, fitter):
        # X's shape was read before X was converted, so a list raised
        # AttributeError
        rng = np.random.default_rng(23)
        X = rng.standard_normal((40, 12))
        y = rng.standard_normal(40)
        spec = ElasticNetSpec(lam=0.01, alpha=0.5, block_size=4, iters=10)
        want = fitter(X, y, spec)
        got = fitter(X.tolist(), y.tolist(), spec)
        for name in ("beta", "z", "xi"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("fitter, s", [(fit, 100), (consensus_fit, 2000)])
    def test_wide_sparse_design_stays_sparse(self, fitter, s):
        # the dense design would be 160 MB, ten times the bound; consensus_fit
        # takes large blocks, since it keeps p/s copies of the coefficients
        n, p, bound = 1000, 20000, 16 * 2**20
        X = sp.random(n, p, density=0.001, random_state=19, format="csc")
        y = np.random.default_rng(19).standard_normal(n)
        spec = ElasticNetSpec(lam=0.01, alpha=0.9, block_size=s, iters=2)
        assert n * p * 8 >= 8 * bound
        tracemalloc.start()
        try:
            fitter(X, y, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_consensus_groups_are_row_slices(self, monkeypatch):
        # a sample group is a CSR row slice, whose indptr has n_i + 1
        # entries, not a CSC slice carrying one of p + 1
        X = sp.random(200, 3000, density=0.002, random_state=24, format="csc")
        slices = []
        operand = en._block_operand
        monkeypatch.setattr(en, "_block_operand",
                            lambda S: slices.append(S) or operand(S))
        consensus_fit(X, np.ones(200), ElasticNetSpec(
            lam=0.01, alpha=0.9, block_size=300, iters=1))
        assert len(slices) == 10
        for S in slices:
            assert S.format == "csr" and S.shape == (20, 3000)
            assert S.indptr.size == 21

    def test_consensus_slices_cost_only_their_entries(self):
        # consensus_fit keeps N x p copies, duals and targets; past those, X's
        # CSR copy, the group slices and the temporaries fit in five times
        # X's stored bytes. CSC groups' p + 1 long indptrs would add
        # N (p + 1) 4 bytes, 1.5 MB here, and break the bound.
        n, p, s = 1000, 20000, 1000
        X = sp.random(n, p, density=0.002, random_state=23, format="csc")
        y = np.random.default_rng(23).standard_normal(n)
        copies = p // s
        stored = X.data.nbytes + X.indices.nbytes + X.indptr.nbytes
        bound = 3 * copies * p * 8 + 5 * stored
        tracemalloc.start()
        try:
            consensus_fit(X, y, ElasticNetSpec(lam=0.01, alpha=0.9,
                                               block_size=s, iters=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

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
        # an invalid spec cannot be built, so it never reaches fit
        with pytest.raises(ValueError, match="lam"):
            ElasticNetSpec(lam=-1.0, alpha=0.5)
        with pytest.raises(ValueError, match="alpha"):
            ElasticNetSpec(lam=1.0, alpha=2.0)
        with pytest.raises(ValueError, match="mode"):
            ElasticNetSpec(lam=1.0, alpha=0.5, mode=Mode.CYCLIC)
        with pytest.raises(ValueError, match="block_size must be >= 1"):
            ElasticNetSpec(lam=1.0, alpha=0.5, block_size=0)
        with pytest.raises(ValueError, match="iters must be >= 1"):
            ElasticNetSpec(lam=1.0, alpha=0.5, iters=0)

    @pytest.mark.parametrize("field, value, message", [
        ("block_size", 2.5, "block_size must be an integer, got 2.5"),
        ("iters", 2.5, "iters must be an integer, got 2.5"),
        ("iters", "3", "iters must be an integer, got '3'"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", -1, "seed must be >= 0, got -1")])
    def test_sizes_and_seed_refused_by_name(self, field, value, message):
        # a float size was built and then failed in fit with numpy's
        # TypeError, and a negative seed with a message naming no field
        with pytest.raises(ValueError, match=message):
            ElasticNetSpec(**{"lam": 0.1, "alpha": 0.5, field: value})

    def test_numpy_integer_sizes_and_seed_pass(self):
        rng = np.random.default_rng(26)
        X = rng.standard_normal((20, 6))
        y = rng.standard_normal(20)
        spec = ElasticNetSpec(lam=0.1, alpha=0.5, block_size=np.int64(2),
                              iters=np.int32(5), seed=np.uint8(3))
        plain = ElasticNetSpec(lam=0.1, alpha=0.5, block_size=2, iters=5,
                               seed=3)
        assert np.array_equal(fit(X, y, spec).beta, fit(X, y, plain).beta)

    @pytest.mark.parametrize("field, value", [
        ("lam", math.nan), ("lam", math.inf), ("gamma", math.nan),
        ("gamma", math.inf), ("tol", math.nan), ("tol", -1.0)])
    def test_non_finite_settings_refused(self, field, value):
        # each of these used to run to the sweep cap on NaN iterates; such
        # a spec cannot be built
        with pytest.raises(ValueError, match=field):
            ElasticNetSpec(**{"lam": 0.1, "alpha": 0.5, field: value})


def stored_entries_match(got, ref, rng):
    """``got`` is the scipy column slice ``ref`` as its stored entries, and
    its products and Gram equal scipy's bit for bit."""
    n, s = ref.shape
    assert isinstance(got, en._StoredEntries) and got.shape == (n, s)
    assert np.array_equal(got.rows, ref.indices)
    assert np.array_equal(got.vals, ref.data)
    assert np.array_equal(got.cols,
                          np.repeat(np.arange(s), np.diff(ref.indptr)))
    v = rng.standard_normal(s)
    w = rng.standard_normal(n)
    assert np.array_equal(got @ v, ref @ v)
    assert np.array_equal(got.T @ w, ref.T @ w)
    assert np.array_equal(got.gram(), (ref.T @ ref).toarray())


def unsorted_duplicate_csc(dense, rng):
    """``dense`` as a CSC matrix whose columns hold their entries in random
    order, with about a third of them split into two stored duplicates."""
    n, p = dense.shape
    rows, cols = np.nonzero(dense)
    vals = dense[rows, cols]
    split = rng.random(rows.size) < 0.3
    part = rng.random(int(split.sum())) * vals[split]
    rows = np.concatenate([rows, rows[split]])
    cols = np.concatenate([cols, cols[split]])
    vals = np.concatenate([vals, part])
    vals[np.flatnonzero(split)] -= part
    order = np.lexsort((rng.random(rows.size), cols))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=p))])
    return sp.csc_matrix((vals[order], rows[order], indptr), shape=(n, p))


# the elastic-net outputs below were captured from fit when it sliced X with
# scipy (float64, numpy 2.4 with OpenBLAS on x86-64)
GOLDENS = Path(__file__).parent / "data" / "enet_fit_goldens.json"


def golden_design(density):
    rng = np.random.default_rng(29)
    mask = rng.random((200, 120)) < density
    X = sp.csc_matrix(np.where(mask, rng.standard_normal((200, 120)), 0.0))
    return X, rng.standard_normal(200)


def crowded_design():
    # 20 full rows of 1000 fill 2% of every block, and their Gram pairs
    # (20 * s * s) exceed n * s once s > 50. X and y hold multiples of 1/8,
    # so X'y is exact and a fit of X and of X made dense start from the
    # same c (BLAS and scipy add the terms of X'y in different orders).
    rng = np.random.default_rng(41)
    n, p = 1000, 2000
    dense = np.zeros((n, p))
    dense[rng.choice(n, 20, replace=False)] = rng.integers(-8, 9, (20, p)) / 8
    return sp.csc_matrix(dense), rng.integers(-8, 9, n) / 8


GOLDEN_SPEC = dict(lam=0.01, alpha=0.7, block_size=12, iters=10, seed=5)


class TestColumnBlocks:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           p=st.integers(1, 30), s=st.integers(1, 12),
           density=st.sampled_from([0.0, 0.01, 0.05, 0.3, 1.0]),
           full_rows=st.integers(0, 3), empty_cols=st.integers(0, 6),
           fmt=st.sampled_from(["csc", "csr", "coo", "unsorted-duplicate"]),
           index_dtype=st.sampled_from([np.int32, np.int64]))
    def test_gather_matches_scipy_slice(self, seed, n, p, s, density,
                                        full_rows, empty_cols, fmt,
                                        index_dtype):
        # every block of a random CSC design, the short last one included,
        # gathers as scipy slices it: stored entries with bit-equal
        # products and Gram while they fill at most SPARSE_SLICE_DENSITY of
        # its n x s and their Gram pairs (c * c for a row holding c of them)
        # number at most n * s, the column-major dense slice otherwise
        rng = np.random.default_rng(seed)
        dense = np.where(rng.random((n, p)) < density,
                         rng.standard_normal((n, p)), 0.0)
        # rows that hold every column of their blocks, and empty columns
        dense[rng.integers(0, n, full_rows)] = rng.standard_normal(p)
        dense[:, rng.integers(0, p, empty_cols)] = 0.0
        X = (unsorted_duplicate_csc(dense, rng) if fmt == "unsorted-duplicate"
             else sp.csc_matrix(dense).asformat(fmt))
        X, _, _ = en._checked_inputs(X, np.zeros(n))
        X.indptr = X.indptr.astype(index_dtype)
        X.indices = X.indices.astype(index_dtype)
        for g in chunk_indices(rng.permutation(p), s):
            idx = np.asarray(g, dtype=int)
            ref = X[:, idx]
            got = en._column_block(X, idx)
            per_row = np.bincount(ref.indices, minlength=n)
            if ref.nnz > en.SPARSE_SLICE_DENSITY * n * idx.size or \
                    per_row @ per_row > n * idx.size:
                assert isinstance(got, np.ndarray) and got.flags.f_contiguous
                assert np.array_equal(got, ref.toarray(order="F"))
            else:
                stored_entries_match(got, ref, rng)
            # the entries' arithmetic holds at any fill, crowded rows included
            entries = en._StoredEntries(
                ref.indices, ref.data,
                np.repeat(np.arange(idx.size), np.diff(ref.indptr)), ref.shape)
            stored_entries_match(entries, ref, rng)

    def test_gram_of_crowded_rows_stays_within_the_slice_size(self):
        # 8 full rows fill 2% of a 400 x 400 block, but their Gram sums
        # 8 * 400 * 400 pairs of entries (49 MB, forty times the slice), so
        # the block is gathered as the dense slice and its Gram is BLAS's
        n = s = 400
        rng = np.random.default_rng(31)
        dense = np.zeros((n, s))
        dense[rng.choice(n, 8, replace=False)] = rng.random((8, s))
        X = sp.csc_matrix(dense)
        tracemalloc.start()
        try:
            block = en._column_block(X, np.arange(s))
            gram = block.T @ block
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(block, np.ndarray) and block.flags.f_contiguous
        assert np.array_equal(block, X.toarray(order="F"))
        np.testing.assert_allclose(gram, (X.T @ X).toarray(), rtol=1e-13)
        assert peak <= 16 * n * s * 8

    @pytest.mark.parametrize("mode", [Mode.RAC, Mode.RP])
    def test_crowded_rows_fit_as_the_dense_design(self, mode):
        # crowded blocks are gathered as the dense slice, so the sparse
        # design's fit is the dense design's bit for bit
        X, y = crowded_design()
        spec = ElasticNetSpec(lam=1e-3, alpha=0.9, gamma=1.0, block_size=100,
                              iters=4, mode=mode, seed=3)
        sparse_fit = fit(X, y, spec)
        dense_fit = fit(X.toarray(), y, spec)
        assert np.count_nonzero(sparse_fit.z) > 0
        for name in ("beta", "z", "xi"):
            assert np.array_equal(getattr(sparse_fit, name),
                                  getattr(dense_fit, name))

    def test_crowded_rows_sweep_stays_within_three_slices(self):
        # as stored entries, each block's Gram pairs would peak at 4.4 MB,
        # five and a half times the n x s slice; gathered dense, a sweep
        # holds about two slices (the block visited and the one gathered next)
        X, y = crowded_design()
        n, s = X.shape[0], 100
        spec = ElasticNetSpec(lam=1e-3, alpha=0.9, gamma=1.0, block_size=s,
                              iters=1, seed=3)
        tracemalloc.start()
        try:
            fit(X, y, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * n * s * 8

    # at 1% every block stays stored entries, at 30% every block is dense
    @pytest.mark.parametrize("mode", [Mode.RAC, Mode.RP])
    @pytest.mark.parametrize("density", [0.01, 0.3])
    def test_fit_matches_goldens(self, density, mode):
        X, y = golden_design(density)
        model = fit(X, y, ElasticNetSpec(mode=mode, **GOLDEN_SPEC))
        want = json.loads(GOLDENS.read_text())[f"{density}-{mode.value}"]
        for name in ("beta", "z", "xi"):
            assert np.array_equal(getattr(model, name), want[name])

    @pytest.mark.parametrize("mode", [Mode.RAC, Mode.RP])
    @pytest.mark.parametrize("density", [0.01, 0.3])
    def test_sweep_builds_no_scipy_object(self, monkeypatch, density, mode):
        # once fit sweeps, X is read through its CSC arrays only: building
        # or slicing a scipy sparse matrix fails the fit
        X, y = golden_design(density)
        run_sweeps = en.run_sweeps

        def refuse(*_args, **_kwargs):
            raise AssertionError("a scipy sparse matrix was built in a sweep")

        def sweeping(*args):
            for cls in (sp.csc_matrix, sp.csr_matrix, sp.coo_matrix):
                monkeypatch.setattr(cls, "__init__", refuse)
            monkeypatch.setattr(sp.csc_matrix, "__getitem__", refuse)
            return run_sweeps(*args)

        monkeypatch.setattr(en, "run_sweeps", sweeping)
        model = fit(X, y, ElasticNetSpec(mode=mode, **GOLDEN_SPEC))
        assert model.iterations == GOLDEN_SPEC["iters"]


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

    def test_objective_and_evaluate_take_nested_lists(self):
        # both read X.shape before converting X, so a list raised
        # AttributeError although fit takes one
        rng = np.random.default_rng(25)
        X = rng.standard_normal((30, 8))
        y = rng.standard_normal(30)
        model = fit(X.tolist(), y.tolist(),
                    ElasticNetSpec(lam=0.05, alpha=0.5, block_size=3, iters=5))
        assert objective(X.tolist(), y.tolist(), model.beta, 0.05, 0.5) == \
            objective(X, y, model.beta, 0.05, 0.5)
        assert evaluate(model, X.tolist(), y.tolist()) == \
            evaluate(model, X, y)

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

    def test_sweep_makes_no_copies_by_features_temporary(self, monkeypatch):
        # N = 20 copies of p = 4000 coefficients: the copies and duals are
        # N x p each, and a sweep's own allocations stay below half of one
        # (a whole-matrix copies - z for the dual step and the residual
        # would take over 2 N x p)
        n, p, N = 400, 4000, 20
        rng = np.random.default_rng(31)
        nnz = n * p // 100
        X = sp.csc_matrix((rng.standard_normal(nnz),
                           (rng.integers(0, n, nnz), rng.integers(0, p, nnz))),
                          shape=(n, p))
        y = X @ np.where(rng.random(p) < 0.02, rng.standard_normal(p), 0.0) \
            + 0.1 * rng.standard_normal(n)
        spec = ElasticNetSpec(lam=1e-3, alpha=0.9, block_size=200, iters=5)
        sweep_peaks = []
        run_sweeps = en.run_sweeps

        def measured_run_sweeps(sweep, *args):
            def measured(order, cache):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                res = sweep(order, cache)
                sweep_peaks.append(tracemalloc.get_traced_memory()[1] - before)
                return res
            return run_sweeps(measured, *args)

        monkeypatch.setattr(en, "run_sweeps", measured_run_sweeps)
        tracemalloc.start()
        try:
            model = consensus_fit(X, y, spec)
        finally:
            tracemalloc.stop()
        assert len(sweep_peaks) == 5
        assert max(sweep_peaks) < N * p * 8 / 2
        # sum, l1 norm and squared norm of each output
        goldens = {
            "beta": (0.0445029789657003, 5.004745554023977,
                     0.056618091365046225),
            "z": (-0.06723039146489508, 0.6165910263784049,
                  0.04452800417808745),
            "xi": (-0.0007507381416784518, 0.023290985069225993,
                   3.434621210337674e-07)}
        for name, want in goldens.items():
            v = getattr(model, name)
            got = (float(v.sum()), float(np.abs(v).sum()), float(v @ v))
            assert got == pytest.approx(want, rel=1e-12, abs=0)
        assert np.count_nonzero(model.z) == 17
        assert (model.iterations, model.status) == (5, Status.MAX_ITERS)
        assert model.residual == pytest.approx(6.75629448624975, rel=1e-12)

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
