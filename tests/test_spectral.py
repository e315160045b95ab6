import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from racml import spectral
from racml.engine import BlockDefinitenessError, compute_residuals, run_sweep
from racml.problems import (
    CapacityError,
    QpProblem,
    enumerate_orders,
    iter_orders,
)
from racml.spectral import (
    certify,
    expected_operators,
    gauss_seidel_matrix,
    iteration_map,
    kkt_residual,
    kkt_solve,
)


def random_instance(seed, n=4, m=2, h_zero=False):
    rng = np.random.default_rng(seed)
    if h_zero:
        H = np.zeros((n, n))
    else:
        G = rng.standard_normal((n, n))
        H = G @ G.T + 0.4 * np.eye(n)
    A = rng.standard_normal((m, n))
    return H, A


def anchored_partitions(n, p):
    """Oracle: every partition of range(n) into p blocks of n/p indices,
    once each, as each block starts with the smallest index no earlier
    block holds; they come in the order of their first appearance among
    ``enumerate_orders``' orders."""
    s = n // p

    def rec(rest):
        if not rest:
            yield ()
            return
        for more in itertools.combinations(rest[1:], s - 1):
            head = rest[:1] + more
            remaining = tuple(i for i in rest if i not in head)
            for tail in rec(remaining):
                yield (head,) + tail

    return list(rec(tuple(range(n))))


class TestGaussSeidelMatrix:
    def test_identity_data_gives_identity(self):
        L = gauss_seidel_matrix(None, np.eye(2), 1.0, ((0,), (1,)))
        np.testing.assert_array_equal(L, np.eye(2))

    @pytest.mark.parametrize("seed", range(5))
    def test_entrywise_reconstruction(self, seed):
        # L keeps exactly the diagonal-and-below blocks of the coupling
        # matrix; transposing the strictly-below part restores the rest
        H, A = random_instance(seed)
        S = H + 0.7 * (A.T @ A)
        for order in enumerate_orders(4, 2):
            L = gauss_seidel_matrix(H, A, 0.7, order)
            g1, g2 = order
            np.testing.assert_allclose(L[np.ix_(g1, g1)], S[np.ix_(g1, g1)])
            np.testing.assert_allclose(L[np.ix_(g2, g2)], S[np.ix_(g2, g2)])
            np.testing.assert_allclose(L[np.ix_(g2, g1)], S[np.ix_(g2, g1)])
            np.testing.assert_array_equal(L[np.ix_(g1, g2)],
                                          np.zeros((len(g1), len(g2))))

    def test_lower_left_is_cross_coupling(self):
        H, A = random_instance(11)
        beta = 1.3
        order = ((1, 3), (0, 2))
        L = gauss_seidel_matrix(H, A, beta, order)
        expected = H[np.ix_((0, 2), (1, 3))] + \
            beta * A[:, (0, 2)].T @ A[:, (1, 3)]
        np.testing.assert_allclose(L[np.ix_((0, 2), (1, 3))], expected)

    @pytest.mark.parametrize("order", [
        ((0, 0), (1, 2)),          # repeated index, 3 missing
        ((0, 1), (1, 2)),          # index in two blocks, 3 missing
        ((0, 1), (2, -1)),         # -1 would alias index 3
        ((0, 1), (2, 4)),          # out of range
        ((0, 1), (2,)),            # missing index
        ((0, 1), (2, 3), (4,)),    # one index too many
    ])
    def test_order_must_partition_the_indices(self, order):
        # left unchecked, unlisted indices read uninitialized block positions
        with pytest.raises(ValueError, match="does not partition range"):
            gauss_seidel_matrix(2 * np.eye(4), np.ones((1, 4)), 1.0, order)
        with pytest.raises(ValueError, match="does not partition range"):
            iteration_map(2 * np.eye(4), np.ones((1, 4)), 1.0, order)


class TestIterationMap:
    def test_single_block_hand_computation(self):
        im = iteration_map(None, np.eye(1), 1.0, ((0,),))
        np.testing.assert_allclose(im.matrix, [[0.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("seed", range(4))
    def test_kkt_point_is_fixed_point(self, seed):
        H, A = random_instance(seed, n=4, m=2)
        rng = np.random.default_rng(seed + 100)
        c = rng.standard_normal(4)
        b = rng.standard_normal(2)
        prob = QpProblem(c=c, H=H, A=A, b=b)
        xs, ys = kkt_solve(prob)
        z = np.concatenate([xs, ys])
        for order in enumerate_orders(4, 2):
            im = iteration_map(H, A, 1.0, order)
            np.testing.assert_allclose(im.apply(z, c, b), z, atol=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_engine_sweep_agreement(self, seed):
        # one unbounded engine sweep must equal the affine map exactly
        H, A = random_instance(seed, n=6, m=2)
        rng = np.random.default_rng(seed + 50)
        c = rng.standard_normal(6)
        b = rng.standard_normal(2)
        beta = float(rng.uniform(0.3, 2.0))
        prob = QpProblem(c=c, H=H, A=A, b=b)
        z = rng.standard_normal(8)
        order = enumerate_orders(6, 3)[seed * 7]
        x1, y1 = run_sweep(prob, z[:6], z[6:], order, beta)
        im = iteration_map(H, A, beta, order)
        np.testing.assert_allclose(np.concatenate([x1, y1]),
                                   im.apply(z, c, b), atol=1e-10)

    def test_singular_sweep_matrix_raises(self):
        A = np.array([[1.0, 0.0], [2.0, 0.0]])  # zero column
        with pytest.raises(BlockDefinitenessError):
            iteration_map(None, A, 1.0, ((0,), (1,)))

    def test_lower_inv_inverts_the_gauss_seidel_matrix(self):
        H, A = random_instance(5, n=6, m=2)
        for order in enumerate_orders(6, 3)[:10]:
            im = iteration_map(H, A, 0.7, order)
            L = gauss_seidel_matrix(H, A, 0.7, order)
            np.testing.assert_allclose(im.lower_inv @ L, np.eye(6),
                                       atol=1e-12)


class TestExpectedOperators:
    def test_identity_case(self):
        Q, S, M = expected_operators(None, np.eye(2), 1.0, 2)
        np.testing.assert_allclose(Q, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(S, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(Q @ S, np.eye(2), atol=1e-14)

    def test_average_over_exactly_six_orders(self):
        H, A = random_instance(21)
        orders = enumerate_orders(4, 2)
        assert len(orders) == 6
        manual = np.zeros((4, 4))
        for o in orders:
            manual += np.linalg.inv(gauss_seidel_matrix(H, A, 1.0, o))
        manual /= 6
        Q, _, _ = expected_operators(H, A, 1.0, 2)
        np.testing.assert_allclose(Q, manual, atol=1e-14)

    def test_singular_sweep_raises(self):
        # the instance of TestCertify.test_degenerate_block_flagged
        A = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(BlockDefinitenessError):
            expected_operators(None, A, 1.0, 2)

    def test_orders_are_streamed(self):
        # (8, 8) has 40,320 orders: a pass over them listed peaked at
        # 10.2 MB, and one in chunks at 0.58 MB: the order stream, one
        # chunk's stacks and the sums
        S, Ad = spectral._coupling(*random_instance(4, n=8, m=1), 1.0)
        tracemalloc.start()
        try:
            Q = spectral._order_averages(S, Ad, 1.0, 8, kron=False)[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        # every order's reverse transposes its L, so the mean inverse over
        # all of them is symmetric; a chunk left out would break that
        assert np.max(np.abs(Q - Q.T)) <= 1e-12 * np.max(np.abs(Q))

    @pytest.mark.parametrize("seed", range(6))
    def test_formula_matches_direct_average(self, seed):
        # the block formula for the expected map against brute averaging
        H, A = random_instance(seed, n=4, m=2)
        beta = [0.1, 1.0, 10.0][seed % 3]
        Q, S, M = expected_operators(H, A, beta, 2)
        direct = np.zeros((6, 6))
        orders = enumerate_orders(4, 2)
        for o in orders:
            direct += iteration_map(H, A, beta, o).matrix
        direct /= len(orders)
        assert np.max(np.abs(M - direct)) <= 1e-10


def per_order_averages(S, Ad, beta, p, kron):
    """Oracle for ``spectral._order_averages``: the pass one order at a
    time, with its own inverse, sweep map and Kronecker product each."""
    m, n = Ad.shape
    Q = np.zeros((n, n))
    K = np.zeros(((n + m) ** 2, (n + m) ** 2)) if kron else None
    partition_Q = {}
    count = 0
    for order in iter_orders(n, p):
        count += 1
        pos = np.empty(n, dtype=int)
        for k, group in enumerate(order):
            pos[list(group)] = k
        L_inv = np.linalg.inv(np.where(pos[:, None] >= pos[None, :], S, 0.0))
        Q += L_inv
        key = frozenset(order)
        partition_Q[key] = partition_Q.get(key, 0.0) + L_inv
        if kron:
            M_order = spectral._sweep_map(L_inv, S, Ad, beta)
            K += np.kron(M_order, M_order)
    Q /= count
    partition_means = [total / math.factorial(p)
                       for total in partition_Q.values()]
    return (Q, spectral._sweep_map(Q, S, Ad, beta), partition_means,
            None if K is None else K / count)


def assert_relative(got, want, scale=None):
    """Agreement to 1e-12 of ``scale``, by default ``want``'s largest entry."""
    assert got.shape == want.shape
    if scale is None:
        scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


def sweep_map_scale(Q, S, Ad, beta):
    """A bound on the size of the products ``_sweep_map`` forms at Q, whose
    differences can leave M's entries far smaller than its rounding."""
    q, s, a, a_t = (np.linalg.norm(X, np.inf) for X in (Q, S, Ad, Ad.T))
    a = max(a, a_t)
    return max(1.0, q * s, q * a) * max(1.0, beta * a)


def chunked_case(n, p, with_h, m, seed, beta, kron, chunk):
    """(H, A, beta, p, kron, chunk) for a seeded instance, with H or not."""
    rng = np.random.default_rng(seed)
    H = None
    if with_h:
        G = rng.standard_normal((n, n))
        H = G @ G.T + 0.4 * np.eye(n)
    return H, rng.standard_normal((m, n)), beta, p, kron, chunk


@st.composite
def chunked_cases(draw):
    """An instance of n <= 6 in p blocks, with or without H and the
    Kronecker square, and a chunk size: 1, one that leaves a short last
    chunk, or the module's own."""
    n = draw(st.integers(1, 6))
    p = draw(st.sampled_from([q for q in range(1, n + 1) if n % q == 0]))
    with_h = draw(st.booleans())
    # without H, every block of s columns of A must have full column rank
    m = draw(st.integers(1, 3) if with_h else st.integers(n // p, n))
    return chunked_case(n, p, with_h, m, draw(st.integers(0, 2**32 - 1)),
                        draw(st.sampled_from([0.1, 1.0, 10.0])),
                        draw(st.booleans()),
                        draw(st.sampled_from([1, 7, spectral.ORDER_CHUNK])))


class TestChunkedPass:
    @settings(max_examples=60, deadline=None)
    @given(chunked_cases())
    # 720 orders, 22.5 chunks, with H and the Kronecker square and without
    @example(chunked_case(6, 6, True, 1, 1, 1.0, True, spectral.ORDER_CHUNK))
    @example(chunked_case(6, 6, False, 6, 2, 0.1, True, spectral.ORDER_CHUNK))
    # 90 orders in 2.8 chunks; 20 orders, below one chunk
    @example(chunked_case(6, 3, False, 4, 3, 10.0, True, spectral.ORDER_CHUNK))
    @example(chunked_case(6, 2, True, 2, 4, 1.0, True, spectral.ORDER_CHUNK))
    def test_matches_the_per_order_oracle(self, case):
        # order counts below one chunk (1, 2, 6, 20, 24) and past it, not a
        # multiple of it (90, 120 and 720 at 32; most counts at 7)
        H, A, beta, p, kron, chunk = case
        S, Ad = spectral._coupling(H, A, beta)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectral, "ORDER_CHUNK", chunk)
            got = spectral._order_averages(S, Ad, beta, p, kron)
        want = per_order_averages(S, Ad, beta, p, kron)
        assert_relative(got[0], want[0])
        # M is the block formula at Q, whose differences amplify Q's
        # rounding: it is held to the size of the formula's products
        assert_relative(got[1], want[1], sweep_map_scale(want[0], S, Ad, beta))
        assert len(got[2]) == len(want[2])
        for g, w in zip(got[2], want[2]):
            assert_relative(g, w)
        if kron:
            assert_relative(got[3], want[3])
        else:
            assert got[3] is None

    @pytest.mark.parametrize("n, p", [(6, 3), (6, 6)])
    @pytest.mark.parametrize("kron", [False, True])
    @pytest.mark.parametrize("chunk", [1, 7, spectral.ORDER_CHUNK])
    def test_singular_sweep_leaves_only_block_definiteness(self, n, p, kron,
                                                           chunk, monkeypatch):
        # TestCertify.test_degenerate_block_flagged's case past one chunk:
        # A's last column is zero, so every Gauss-Seidel matrix has a zero
        # column, the stacked inverse raises on the first chunk, and the
        # certificate carries the block verdict only
        A = np.random.default_rng(n).standard_normal((n, n))
        A[:, -1] = 0.0
        monkeypatch.setattr(spectral, "ORDER_CHUNK", chunk)
        cert = certify(None, A, 1.0, p, kron=kron)
        assert cert.assumption1_ok is False
        for field in ("eig_qs", "eig_m", "rho_kron", "lemma2_ok", "as_ok",
                      "partition_max_eigs", "partitions_ok", "weyl_ok"):
            assert getattr(cert, field) is None, field

    def test_singular_in_a_later_chunk_raises(self, monkeypatch):
        # a singular stack past the first chunk still raises
        # BlockDefinitenessError, and no partial sums come back
        S, Ad = spectral._coupling(*random_instance(2, n=4, m=2), 1.0)
        inverse, calls = spectral._inverse, []

        def singular_third(L):
            calls.append(len(L))
            if len(calls) == 3:
                L = L.copy()
                L[-1] = 0.0
            return inverse(L)

        monkeypatch.setattr(spectral, "ORDER_CHUNK", 5)
        monkeypatch.setattr(spectral, "_inverse", singular_third)
        with pytest.raises(BlockDefinitenessError):
            spectral._order_averages(S, Ad, 1.0, 4, kron=True)
        assert calls == [5, 5, 5]


def reference_certificate(H, A, beta, p):
    """The order averages of certify, each by its own enumeration.

    The expected Q over every order, the per-partition averages over the
    permutations of each partition's blocks, and the expected Kronecker
    square from one iteration map per order: an independent reference for
    certify's single pass.
    """
    S = beta * (A.T @ A) if H is None else H + beta * (A.T @ A)
    n = S.shape[0]
    orders = enumerate_orders(n, p)
    Q = sum(np.linalg.inv(gauss_seidel_matrix(H, A, beta, o))
            for o in orders) / len(orders)
    maxima = []
    for partition in anchored_partitions(n, p):
        perms = list(itertools.permutations(partition))
        Qp = sum(np.linalg.inv(gauss_seidel_matrix(H, A, beta, g))
                 for g in perms) / len(perms)
        maxima.append(float(np.max(np.linalg.eigvals(Qp @ S).real)))
    maps = [iteration_map(H, A, beta, o).matrix for o in orders]
    K = sum(np.kron(M, M) for M in maps) / len(orders)
    return (np.sort(np.linalg.eigvals(Q @ S).real), maxima,
            float(np.max(np.abs(np.linalg.eigvals(K)))))


class TestCertifyAgainstReference:
    @pytest.mark.parametrize("n, p, h_zero", [
        (4, 2, False), (4, 4, False), (4, 2, True), (4, 4, True),
        (6, 2, False), (6, 6, False), (6, 3, True)])
    @pytest.mark.parametrize("seed", range(2))
    def test_matches_three_pass_computation(self, n, p, h_zero, seed):
        rng = np.random.default_rng(100 * n + 10 * p + seed)
        beta = float(rng.choice([0.1, 1.0, 10.0]))
        m = n if h_zero else int(rng.integers(1, 3))
        H, A = random_instance(seed, n=n, m=m, h_zero=h_zero)
        if h_zero:
            H = None
        eig_qs, maxima, rho = reference_certificate(H, A, beta, p)
        cert = certify(H, A, beta, p, kron=True)
        np.testing.assert_allclose(np.sort(cert.eig_qs.real), eig_qs,
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(cert.partition_max_eigs, maxima,
                                   rtol=1e-9, atol=1e-12)
        assert cert.rho_kron == pytest.approx(rho, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("n, p", [(4, 2), (6, 3)])
    def test_matches_on_indefinite_coupling(self, n, p):
        # H = (1 + a) I - a 11' has eigenvalue 1 - (n - 1) a < 0 while every
        # block is definite, so S has no square root and certify takes the
        # general eigenvalue route
        a = 2.0 / n
        H = (1.0 + a) * np.eye(n) - a * np.ones((n, n))
        A = np.random.default_rng(n).standard_normal((1, n))
        beta = 0.1
        assert spectral._psd_root(H + beta * (A.T @ A)) is None
        eig_qs, maxima, rho = reference_certificate(H, A, beta, p)
        cert = certify(H, A, beta, p, kron=True)
        assert cert.assumption1_ok
        np.testing.assert_allclose(np.sort(cert.eig_qs.real), eig_qs,
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(cert.partition_max_eigs, maxima,
                                   rtol=1e-9, atol=1e-12)
        assert cert.rho_kron == pytest.approx(rho, rel=1e-9, abs=1e-12)

    def test_orders_are_enumerated_once(self, monkeypatch):
        calls = []
        iter_all = spectral.iter_orders
        monkeypatch.setattr(spectral, "iter_orders",
                            lambda n, p: calls.append((n, p)) or iter_all(n, p))
        H, A = random_instance(3, n=6, m=2)
        certify(H, A, 1.0, 3, kron=True)
        assert calls == [(6, 3)]
        expected_operators(H, A, 1.0, 2)
        assert calls == [(6, 3), (6, 2)]


class TestCertify:
    def test_identity_case_certificate(self):
        cert = certify(None, np.eye(2), 1.0, 2)
        np.testing.assert_allclose(np.sort(cert.eig_qs.real), [1.0, 1.0],
                                   atol=1e-12)
        assert cert.assumption1_ok
        assert cert.lemma2_ok
        assert cert.partitions_ok
        assert cert.weyl_ok
        # each sweep map is nilpotent here, so the Kronecker radius vanishes
        assert cert.rho_kron == pytest.approx(0.0, abs=1e-12)
        assert cert.as_ok

    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances_certify(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([4, 6]))
        p = int(rng.choice([2, n]))
        beta = float(rng.choice([0.1, 1.0, 10.0]))
        if rng.random() < 0.5:
            H, A = random_instance(seed, n=n, m=int(rng.integers(1, 3)))
        else:
            H, A = random_instance(seed, n=n, m=n, h_zero=True)
        cert = certify(H, A, beta, p)
        assert cert.assumption1_ok
        assert cert.lemma2_ok
        assert cert.partitions_ok
        assert cert.weyl_ok
        # expected-map eigenvalues: inside the unit circle, or exactly one
        mags = np.abs(cert.eig_m)
        assert np.all(mags < 1.0 + 1e-9)
        near_unit = mags > 1.0 - 1e-6
        assert np.all(np.abs(cert.eig_m[near_unit] - 1.0) <= 1e-6)

    def test_degenerate_block_flagged(self):
        A = np.array([[1.0, 0.0], [2.0, 0.0]])
        cert = certify(None, A, 1.0, 2, kron=True)
        assert cert.assumption1_ok is False
        # a singular sweep leaves only the block definiteness verdict
        for field in ("eig_qs", "eig_m", "rho_kron", "lemma2_ok", "as_ok",
                      "partition_max_eigs", "partitions_ok", "weyl_ok"):
            assert getattr(cert, field) is None, field

    @pytest.mark.parametrize("coupling, verdict", [(0.5, True), (2.0, False)])
    def test_blocks_checked_in_one_stacked_cholesky(self, coupling, verdict,
                                                    monkeypatch):
        # H = I but for H[3, 5] = H[5, 3]: of the 15 blocks of 2, only
        # {3, 5} can fail, and one Cholesky call over the stack of all 15
        # gives the verdict of checking them one by one
        H = np.eye(6)
        H[3, 5] = H[5, 3] = coupling
        one_by_one = all(
            np.all(np.linalg.eigvalsh(H[np.ix_(g, g)]) > 0)
            for g in itertools.combinations(range(6), 2))
        calls, cholesky = [], np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda a: calls.append(a.shape) or cholesky(a))
        assert spectral._blocks_positive_definite(H, 2) is verdict is \
            one_by_one
        assert calls == [(15, 2, 2)]

    def test_kron_capacity_guard(self):
        H, A = random_instance(0, n=4, m=2)
        with pytest.raises(ValueError):
            certify(H, A, 1.0, 3)  # p must divide n
        with pytest.raises(CapacityError):
            certify(np.eye(10), np.ones((1, 10)), 1.0, 10, kron=True)

    def test_kron_cap_counts_constraint_rows(self, monkeypatch):
        # n = 4 with 200 rows of A: the Kronecker square would hold 204^4
        # floats, about 14 GB. Any request for it fails here, before the
        # enumeration allocates anything.
        requested = []
        averages = spectral._order_averages

        def guarded(S, Ad, beta, p, kron):
            requested.append(kron)
            if kron:
                raise AssertionError("Kronecker square requested past the cap")
            return averages(S, Ad, beta, p, kron)

        monkeypatch.setattr(spectral, "_order_averages", guarded)
        H, A = random_instance(7, n=4, m=200)
        cert = certify(H, A, 1.0, 2)
        assert requested == [False]
        assert cert.rho_kron is None and cert.as_ok is None
        assert cert.lemma2_ok is not None
        with pytest.raises(CapacityError, match="n \\+ m"):
            certify(H, A, 1.0, 2, kron=True)
        assert requested == [False]

    def test_json_schema_keys(self):
        cert = certify(None, np.eye(2), 1.0, 2)
        doc = cert.to_json_dict()
        for key in ("eig_QS", "eig_M", "rho_kron", "assumption1_ok",
                    "lemma2_ok", "as_ok", "n", "m", "p", "beta"):
            assert key in doc
        assert doc["eig_QS"] == [[1.0, 0.0], [1.0, 0.0]]

    def test_singular_sweep_certificate_json(self):
        # the instance of test_degenerate_block_flagged: spectra are null
        cert = certify(None, np.array([[1.0, 0.0], [2.0, 0.0]]), 1.0, 2)
        doc = json.loads(json.dumps(cert.to_json_dict()))
        assert doc["assumption1_ok"] is False
        for key in ("eig_QS", "eig_M", "rho_kron", "lemma2_ok", "as_ok",
                    "partition_max_eigs", "partitions_ok", "weyl_ok"):
            assert doc[key] is None, key
        assert (doc["n"], doc["m"], doc["p"], doc["beta"]) == (2, 2, 2, 1.0)


class TestCouplingInputs:
    def test_absent_a_is_zero_rows(self):
        H, _ = random_instance(8, n=4)
        no_rows = np.zeros((0, 4))
        order = ((2, 0), (1, 3))
        np.testing.assert_array_equal(expected_operators(H, None, 0.5, 2)[1],
                                      H)
        np.testing.assert_array_equal(gauss_seidel_matrix(H, None, 0.5, order),
                                      gauss_seidel_matrix(H, no_rows, 0.5, order))
        got = iteration_map(H, None, 0.5, order)
        want = iteration_map(H, no_rows, 0.5, order)
        np.testing.assert_array_equal(got.matrix, want.matrix)
        c = np.arange(4.0)
        np.testing.assert_array_equal(got.apply(np.ones(4), c, np.zeros(0)),
                                      want.apply(np.ones(4), c, np.zeros(0)))
        for got, want in zip(expected_operators(H, None, 0.5, 2),
                             expected_operators(H, no_rows, 0.5, 2)):
            np.testing.assert_array_equal(got, want)
        got = certify(H, None, 0.5, 2).to_json_dict()
        assert got == certify(H, no_rows, 0.5, 2).to_json_dict()
        assert got["m"] == 0 and got["lemma2_ok"] and got["as_ok"]

    def test_asymmetric_h_refused(self):
        # certify used to read one triangle of this H: eig(QS) came out
        # [0.269, 0.836, 1.015, 1.056] with lemma2_ok, while the expected
        # operator built from the whole H has [0.225, 0.911, 1.008, 1.042]
        H, A = random_instance(5, n=4, m=1)
        H[0, 1] += 0.5
        for call in (lambda: certify(H, A, 1.0, 2),
                     lambda: expected_operators(H, A, 1.0, 2),
                     lambda: iteration_map(H, A, 1.0, ((0, 1), (2, 3))),
                     lambda: gauss_seidel_matrix(H, A, 1.0, ((0, 1), (2, 3)))):
            with pytest.raises(ValueError, match="H: not symmetric"):
                call()

    @pytest.mark.parametrize("H, A, message", [
        (np.eye(3), np.ones((1, 4)), "H: expected shape (4, 4), got (3, 3)"),
        (np.ones((2, 3)), None, "H: expected shape (2, 2), got (2, 3)"),
        (np.eye(4), np.ones(4), "A: expected a 2-D array, got ndim=1"),
    ])
    def test_shapes_refused_as_a_problem_refuses_them(self, H, A, message):
        with pytest.raises(ValueError) as err:
            certify(H, A, 1.0, 1)
        assert str(err.value) == "invalid problem: " + message

    def test_absent_h_and_a_refused(self):
        with pytest.raises(ValueError, match="H and A"):
            certify(None, None, 1.0, 1)

    @pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_beta_must_be_finite_and_positive(self, beta):
        H, A = random_instance(9)
        for call in (lambda: certify(H, A, beta, 2),
                     lambda: expected_operators(H, A, beta, 2),
                     lambda: iteration_map(H, A, beta, ((0, 1), (2, 3)))):
            with pytest.raises(ValueError, match="beta must be finite"):
                call()

    @pytest.mark.parametrize("bad", ["H", "A"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_data_refused(self, bad, value):
        H, A = random_instance(9)
        (H if bad == "H" else A)[1, 1] = value
        with pytest.raises(ValueError,
                           match=f"invalid problem: {bad}: contains non-finite"):
            certify(H, A, 1.0, 2)


class TestKktSolve:
    def test_without_a_solves_the_unconstrained_system(self):
        H, _ = random_instance(41, n=5)
        c = np.arange(5.0)
        x, y = kkt_solve(QpProblem(c=c, H=H))
        np.testing.assert_allclose(H @ x, -c, atol=1e-12)
        assert y.shape == (0,)


class TestKktResidual:
    def test_zero_at_solution(self):
        prob = QpProblem(c=np.zeros(2), H=np.eye(2),
                         A=np.array([[1.0, 1.0]]), b=np.array([2.0]))
        assert kkt_residual(prob, np.array([1.0, 1.0]),
                            np.array([1.0])) == 0.0

    def test_perturbation_grows_residual(self):
        H, A = random_instance(33, n=4, m=2)
        rng = np.random.default_rng(33)
        prob = QpProblem(c=rng.standard_normal(4), H=H, A=A,
                         b=rng.standard_normal(2))
        xs, ys = kkt_solve(prob)
        base = kkt_residual(prob, xs, ys)
        assert base < 1e-10
        mu = np.linalg.eigvalsh(H)[0]
        for delta in (1e-4, 1e-3, 1e-2):
            x = xs.copy()
            x[0] += delta
            # strongly convex H: the stationarity residual grows at least
            # linearly with the free-coordinate perturbation
            assert kkt_residual(prob, x, ys) >= 0.5 * mu * delta

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_engine_residuals(self, seed):
        rng = np.random.default_rng(seed)
        H, A = random_instance(seed, n=5, m=2)
        prob = QpProblem(c=rng.standard_normal(5), H=H, A=A,
                         b=rng.standard_normal(2),
                         lower=np.full(5, -0.5), upper=np.full(5, 0.5))
        x = np.clip(rng.standard_normal(5), prob.lower, prob.upper)
        y = rng.standard_normal(2)
        res = compute_residuals(prob, x, y)
        assert abs(kkt_residual(prob, x, y) - max(res.primal, res.dual)) \
            <= 1e-14
