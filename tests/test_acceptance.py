"""Acceptance suite: every top-level criterion at its stated tolerance.

Each test prints one "ACCEPTANCE <name>: PASS" line when its criterion
holds (visible with -s or in the captured-output report). Instance families
and tolerances are pinned here; nothing defers to later calibration.
"""

import io
import time

import numpy as np
import pytest

import test_elastic_net as en_oracles
import test_engine as engine_oracles

from racml.data_io import (
    LibsvmFormatError,
    gen_blobs,
    gen_regression,
    libsvm_to_string,
    parse_libsvm,
)
from racml.elastic_net import ElasticNetSpec, consensus_fit, fit, objective, z_update
from racml.engine import run_sweep, solve
from racml.problems import (
    Mode,
    QpProblem,
    SolverConfig,
    enumerate_orders,
    make_partition,
)
from racml.spectral import certify, iteration_map, kkt_solve
from racml.svm import KernelSpec, accuracy, decision_values, default_config, grid_search, train


def report(name):
    print(f"ACCEPTANCE {name}: PASS")


SPECTRAL_EDGE = 4.0 / 3.0 - 1e-9


def conditioned_full_row_rank(rng, m, n, lo=0.8, hi=1.6):
    """Random m x n full-row-rank matrix with singular values in [lo, hi]."""
    U, _ = np.linalg.qr(rng.standard_normal((m, m)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = rng.uniform(lo, hi, size=m)
    return (U * s) @ V[:, :m].T


def certificate_instance(i):
    """One instance of the certificate family.

    n in {4, 6}, p in {2, n}, beta in {0.1, 1, 10}; H is either random SPD
    (with a short fat A) or zero (with square full-rank A, so the KKT point
    is unique and the almost-sure certificate is attainable). A is drawn
    with bounded condition: the expected-convergence bounds hold for any
    full-row-rank A, but the almost-sure spectral radius crosses 1 on badly
    conditioned square H=0 draws.
    """
    rng = np.random.default_rng(9000 + i)
    n = int(rng.choice([4, 6]))
    p = int(rng.choice([2, n]))
    beta = float(rng.choice([0.1, 1.0, 10.0]))
    if rng.random() < 0.5:
        G = rng.standard_normal((n, n))
        H = G @ G.T + 0.3 * np.eye(n)
        m = int(rng.integers(1, 3))
    else:
        H = None
        m = n
    A = conditioned_full_row_rank(rng, m, n)
    c = rng.standard_normal(n)
    b = A @ rng.standard_normal(n)
    return n, m, p, beta, H, A, c, b


@pytest.fixture(scope="module")
def certificate_suite():
    return [certificate_instance(i) for i in range(50)]


class TestSpectralCertificates:
    def test_lemma2_certificate_suite(self, certificate_suite):
        start = time.perf_counter()
        for n, m, p, beta, H, A, c, b in certificate_suite:
            cert = certify(H, A, beta, p, kron=False)
            assert cert.assumption1_ok
            # the expected-operator spectrum is real and inside [0, 4/3)
            assert np.all(np.abs(cert.eig_qs.imag) <= 1e-9)
            assert np.all(cert.eig_qs.real >= -1e-9)
            assert np.all(cert.eig_qs.real < SPECTRAL_EDGE)
            assert cert.lemma2_ok
            # every per-partition averaged operator is symmetric PD with
            # spectrum under the same bound, and the global maximum is
            # dominated by the partition average
            assert cert.partitions_ok
            assert np.all(np.asarray(cert.partition_max_eigs) < SPECTRAL_EDGE)
            assert cert.weyl_ok
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        report(f"lemma2-certificate-suite (50 instances, {elapsed:.1f}s)")

    def test_almost_sure_certificate_and_empirical_convergence(
            self, certificate_suite):
        start = time.perf_counter()
        checked = 0
        for n, m, p, beta, H, A, c, b in certificate_suite:
            if n + m > 8:
                continue
            checked += 1
            cert = certify(H, A, beta, p, kron=True)
            assert cert.rho_kron is not None and cert.rho_kron < 1.0
            assert cert.as_ok
            prob = QpProblem(c=c, H=H, A=A, b=b)
            xs, _ = kkt_solve(prob)
            err20 = np.empty(100)
            err200 = np.empty(100)
            for run in range(100):
                grabbed = {}

                def hook(k, x, y, _g=grabbed):
                    if k in (20, 200):
                        _g[k] = np.linalg.norm(x - xs)

                cfg = SolverConfig(
                    mode=Mode.RAC, block_size=n // p, beta_penalty=beta,
                    max_iters=200, tol_primal=1e-16, tol_dual=1e-16,
                    seed=run, fixed_iterations=True)
                solve(prob, cfg, sweep_hook=hook)
                err20[run] = grabbed[20]
                err200[run] = grabbed[200]
            assert err200.mean() < err20.mean()  # strict decrease
        elapsed = time.perf_counter() - start
        assert checked >= 30
        assert elapsed < 300.0
        report(f"almost-sure-certificate+empirical ({checked} instances, "
               f"{elapsed:.1f}s)")


class TestEngineTheoryConsistency:
    def test_sweep_equals_affine_map_and_fixed_point(self):
        for seed in range(10):
            rng = np.random.default_rng(700 + seed)
            n, m = 6, 2
            G = rng.standard_normal((n, n))
            H = G @ G.T + 0.4 * np.eye(n)
            A = rng.standard_normal((m, n))
            c = rng.standard_normal(n)
            b = rng.standard_normal(m)
            beta = float(rng.choice([0.5, 1.0, 2.0]))
            prob = QpProblem(c=c, H=H, A=A, b=b)
            orders = enumerate_orders(n, 3)
            order = orders[int(rng.integers(len(orders)))]
            z = rng.standard_normal(n + m)
            x1, y1 = run_sweep(prob, z[:n], z[n:], order, beta)
            bundle = iteration_map(H, A, beta, order)
            assert np.max(np.abs(np.concatenate([x1, y1])
                                 - bundle.apply(z, c, b))) <= 1e-10
            xs, ys = kkt_solve(prob)
            zs = np.concatenate([xs, ys])
            assert np.max(np.abs(bundle.apply(zs, c, b) - zs)) <= 1e-10
        report("engine-theory-consistency (sweep vs map <= 1e-10)")


class TestTwoBlockReduction:
    def test_cyclic_two_block_matches_classical_admm(self):
        for seed in range(10):
            rng = np.random.default_rng(500 + seed)
            s = 3
            n = 2 * s
            # bounded condition keeps the transient excursions O(1), so the
            # two floating-point routes stay within the absolute tolerance
            A = conditioned_full_row_rank(rng, n, n)
            c = A.T @ rng.standard_normal(n)
            b = A @ rng.standard_normal(n)
            prob = QpProblem(c=c, A=A, b=b)
            ref = engine_oracles.textbook_two_block_admm(
                A[:, :s], A[:, s:], c[:s], c[s:], b, 1.0, 100)
            trajectory = []
            solve(prob,
                  SolverConfig(mode=Mode.CYCLIC, block_size=s,
                               beta_penalty=1.0, max_iters=100,
                               tol_primal=1e-300, tol_dual=1e-300,
                               seed=seed, fixed_iterations=True),
                  sweep_hook=lambda k, x, y: trajectory.append(
                      np.concatenate([x, y])))
            assert len(trajectory) == 100
            for got, want in zip(trajectory, ref):
                assert np.max(np.abs(got - want)) <= 1e-12
        report("two-block-reduction (10 seeds x 100 sweeps <= 1e-12)")


class TestElasticNetCorrectness:
    def test_lasso_objective_vs_coordinate_descent(self):
        # 50 x 20
        rng = np.random.default_rng(11)
        X = rng.standard_normal((50, 20))
        truth = rng.standard_normal(20) * (rng.random(20) < 0.4)
        y = X @ truth + 0.1 * rng.standard_normal(50)
        lam = 0.1
        oracle = en_oracles.cd_elastic_net(X, y, lam, 1.0, tol=1e-12)
        model = fit(X, y, ElasticNetSpec(lam=lam, alpha=1.0, block_size=7,
                                         iters=20000, seed=4, tol=1e-11))
        ref = objective(X, y, oracle, lam, 1.0)
        got = objective(X, y, model.z, lam, 1.0)
        assert abs(got - ref) <= 1e-4 * abs(ref)
        # 200 x 1000
        rng = np.random.default_rng(2024)
        X = rng.standard_normal((200, 1000))
        truth = rng.standard_normal(1000) * (rng.random(1000) < 0.05)
        y = X @ truth + 0.05 * rng.standard_normal(200)
        lam = 0.3 * float(np.max(np.abs(X.T @ y / 200)))
        oracle = en_oracles.cd_elastic_net(X, y, lam, 1.0, tol=1e-10)
        model = fit(X, y, ElasticNetSpec(lam=lam, alpha=1.0, gamma=lam,
                                         block_size=100, iters=50000,
                                         seed=0, tol=1e-9))
        ref = objective(X, y, oracle, lam, 1.0)
        got = objective(X, y, model.z, lam, 1.0)
        assert abs(got - ref) <= 1e-4 * abs(ref)
        report("elastic-net lasso objective (50x20, 200x1000) <= 1e-4 rel")

    def test_ridge_matches_closed_form(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((30, 10))
        y = rng.standard_normal(30)
        lam = 1.0
        closed = np.linalg.solve(X.T @ X / 30 + lam * np.eye(10),
                                 X.T @ y / 30)
        model = fit(X, y, ElasticNetSpec(lam=lam, alpha=0.0, block_size=4,
                                         iters=5000, seed=3, tol=1e-13))
        assert np.max(np.abs(model.beta - closed)) <= 1e-6
        report("elastic-net ridge closed form <= 1e-6")

    def test_z_update_against_prox_oracle(self):
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(1000):
            beta = float(rng.standard_normal() * 3)
            xi = float(rng.standard_normal() * 3)
            gamma = float(rng.uniform(0.05, 5.0))
            lam = float(rng.uniform(0.0, 3.0))
            alpha = float(rng.uniform(0.0, 1.0))
            got = z_update(beta, xi, gamma, lam, alpha)
            want = en_oracles.golden_section_prox(xi - gamma * beta, gamma,
                                                  lam, alpha)
            worst = max(worst, abs(got - want))
        assert worst <= 1e-8
        report(f"z-update prox oracle (1000 draws, worst {worst:.2e})")


class TestConsensusTrend:
    def test_consensus_needs_more_sweeps(self):
        start = time.perf_counter()
        wins = 0
        counts = []
        for seed in range(10):
            ds, _ = gen_regression(100, 1000, x_density=0.05,
                                   coef_density=0.1, noise_sd=0.01,
                                   seed=1000 + seed)
            X = np.asarray(ds.X.todense())
            lam = 0.5 * float(np.max(np.abs(X.T @ ds.y / 100)))
            spec = ElasticNetSpec(lam=lam, alpha=1.0, gamma=lam,
                                  block_size=100, iters=20000,
                                  seed=seed, tol=1e-7)
            rac = fit(ds.X, ds.y, spec)
            cons = consensus_fit(ds.X, ds.y, spec)
            assert rac.residual <= 1e-7
            assert cons.residual <= 1e-7
            counts.append((rac.iterations, cons.iterations))
            wins += int(cons.iterations > rac.iterations)
        elapsed = time.perf_counter() - start
        assert wins >= 8
        assert elapsed < 300.0
        report(f"consensus-trend ({wins}/10 seeds, {elapsed:.1f}s, "
               f"counts {counts[:3]}...)")


class TestSvmQuality:
    def test_blob_accuracy(self):
        tr = gen_blobs(100, 2, 6.0, seed=11)
        te = gen_blobs(50, 2, 6.0, seed=12)
        model = train(tr.X, tr.y, 1.0, KernelSpec("gaussian", 1.0))
        acc = accuracy(model, te.X, te.y)
        assert acc >= 99.0
        report(f"svm-blob-accuracy ({acc:.1f}% on 100 held-out points)")

    def test_kkt_conditions_on_30_points(self):
        tr = gen_blobs(15, 2, 3.0, seed=5)
        C, delta = 1.0, 1e-6
        cfg = default_config(30, block_size=10, seed=2, max_iters=20000,
                             tol_primal=1e-8, tol_dual=1e-8)
        model, diag = train(tr.X, tr.y, C, KernelSpec("gaussian", 1.0), cfg,
                            return_diagnostics=True)
        z = diag.duals
        yf = tr.y * decision_values(model, tr.X)
        interior = (z > delta) & (z < C - delta)
        assert np.any(interior)
        assert np.all(np.abs(yf[interior] - 1.0) <= 1e-3)
        assert np.all(yf[z <= delta] >= 1.0 - 1e-3)
        assert np.all(yf[z >= C - delta] <= 1.0 + 1e-3)
        report("svm-kkt-complementarity (30 points at 1e-8 tolerances)")


class TestSparseTextFormat:
    def test_thousand_canonical_round_trips(self):
        for seed in range(1000):
            rng = np.random.default_rng(20000 + seed)
            ds = en_round_trip_dataset(rng)
            text = libsvm_to_string(ds)
            back = parse_libsvm(io.StringIO(text),
                                declared_features=ds.feature_count)
            assert libsvm_to_string(back) == text  # write o parse, bytewise
            a = np.asarray(back.X.todense())
            b = np.asarray(ds.X.todense())
            assert np.array_equal(a, b)
            assert np.array_equal(back.y, ds.y)
        report("sparse-text-format (1000 canonical files byte-for-byte)")

    def test_malformations_name_the_line(self):
        cases = [
            ("x 1:1\n", 1), ("1 0:1\n", 1), ("1 -2:1\n", 1),
            ("1 2:1 1:3\n", 1), ("1 2:1 2:3\n", 1), ("1 1:abc\n", 1),
            ("1 1:inf\n", 1), ("1 1\n", 1), ("1 1:1\nnan 1:1\n", 2),
        ]
        for text, line in cases:
            with pytest.raises(LibsvmFormatError, match=f"line {line}"):
                parse_libsvm(io.StringIO(text))
        report("sparse-text-malformations (each error names its line)")


def en_round_trip_dataset(rng):
    from test_data_io import random_dataset
    return random_dataset(rng)


class TestDeterminism:
    def test_all_seeded_entry_points_bit_identical(self):
        # partitions
        assert make_partition(40, 7, seed=3, randomize=True) == \
            make_partition(40, 7, seed=3, randomize=True)
        # generators
        a, ba = gen_regression(30, 20, x_density=0.4, noise_sd=0.1, seed=5)
        b, bb = gen_regression(30, 20, x_density=0.4, noise_sd=0.1, seed=5)
        assert np.array_equal(np.asarray(a.X.todense()),
                              np.asarray(b.X.todense()))
        assert np.array_equal(a.y, b.y) and np.array_equal(ba, bb)
        g1 = gen_blobs(20, 3, 5.0, seed=6)
        g2 = gen_blobs(20, 3, 5.0, seed=6)
        assert np.array_equal(g1.X, g2.X) and np.array_equal(g1.y, g2.y)
        # QP solve (bounded, randomized mode)
        rng = np.random.default_rng(0)
        G = rng.standard_normal((6, 6))
        prob = QpProblem(c=rng.standard_normal(6), H=G @ G.T + np.eye(6),
                         A=rng.standard_normal((2, 6)),
                         b=rng.standard_normal(2),
                         lower=np.full(6, -0.5), upper=np.full(6, 0.5))
        cfg = SolverConfig(mode=Mode.RAC, block_size=2, beta_penalty=1.0,
                           max_iters=60, tol_primal=1e-16, tol_dual=1e-16,
                           seed=17, fixed_iterations=True)
        r1, r2 = solve(prob, cfg), solve(prob, cfg)
        assert np.array_equal(r1.x, r2.x) and np.array_equal(r1.y, r2.y)
        # elastic net, both algorithms
        ds, _ = gen_regression(40, 60, x_density=0.3, seed=7)
        spec = ElasticNetSpec(lam=0.05, alpha=0.9, block_size=13, iters=25,
                              seed=8)
        f1, f2 = fit(ds.X, ds.y, spec), fit(ds.X, ds.y, spec)
        assert np.array_equal(f1.beta, f2.beta)
        assert np.array_equal(f1.z, f2.z)
        c1, c2 = consensus_fit(ds.X, ds.y, spec), consensus_fit(ds.X, ds.y, spec)
        assert np.array_equal(c1.beta, c2.beta)
        # svm train and grid search
        tr = gen_blobs(30, 2, 6.0, seed=9)
        cfg = default_config(60, block_size=10, seed=10)
        m1, d1 = train(tr.X, tr.y, 1.0, KernelSpec("gaussian", 1.0), cfg,
                       return_diagnostics=True)
        m2, d2 = train(tr.X, tr.y, 1.0, KernelSpec("gaussian", 1.0), cfg,
                       return_diagnostics=True)
        assert np.array_equal(d1.duals, d2.duals) and m1.bias == m2.bias
        assert grid_search(tr.X, tr.y, [0.1, 1.0], [1.0], seed=11) == \
            grid_search(tr.X, tr.y, [0.1, 1.0], [1.0], seed=11)
        report("determinism (all seeded entry points bit-identical)")
