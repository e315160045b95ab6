import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import racml
from racml.engine import block_orders, solve
from racml.problems import (
    CapacityError,
    Mode,
    QpProblem,
    SolverConfig,
    as_csc,
    chunk_indices,
    enumerate_orders,
    load_qp_manifest,
    make_partition,
    matrix_violations,
)


class TestValidateProblem:
    def test_consistent_problem_is_clean(self):
        p = QpProblem(c=np.zeros(2), H=np.eye(2),
                      A=np.array([[1.0, 1.0]]), b=np.array([2.0]))
        assert (p.n, p.m) == (2, 1)

    def test_asymmetric_h_reported(self):
        with pytest.raises(ValueError, match="symmetric"):
            QpProblem(c=np.zeros(2), H=np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_sparse_asymmetric_h_reported(self):
        H = sp.csc_matrix(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0],
                                    [0.0, 0.0, 1.0]]))
        with pytest.raises(ValueError) as err:
            QpProblem(c=np.zeros(3), H=H)
        assert str(err.value) == (
            "invalid problem: H: not symmetric within 1e-12 relative tolerance")
        QpProblem(c=np.zeros(3), H=H + H.T)

    def test_sparse_h_is_checked_without_a_dense_copy(self):
        n = 3000
        H = sp.diags([-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)],
                     [-1, 0, 1], format="csc")
        tracemalloc.start()
        try:
            QpProblem(c=np.zeros(n), H=H)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one dense n x n copy of H would take 72 MB
        assert peak < 2e6

    @pytest.mark.parametrize("n", [6, 12, 40])
    def test_unsorted_sparse_h_is_canonicalized(self, n):
        # a sparse product leaves row indices unsorted within columns
        G = sp.random(n, n, density=0.3, random_state=n, format="csc")
        H = G @ G.T + sp.eye(n, format="csc")
        assert not H.has_sorted_indices
        caller = (H.data.copy(), H.indices.copy(), H.indptr.copy())
        presorted = H.copy()
        presorted.sort_indices()
        rng = np.random.default_rng(n)
        A = rng.standard_normal((2, n))
        c, b = rng.standard_normal(n), A @ rng.standard_normal(n)
        problem = QpProblem(c=c, H=H, A=A, b=b)
        cfg = SolverConfig(mode=Mode.RAC, block_size=3, beta_penalty=1.0,
                           max_iters=30, seed=n)
        got = solve(problem, cfg)
        want = solve(QpProblem(c=c, H=presorted, A=A, b=b), cfg)
        assert np.array_equal(got.x, want.x)
        assert np.array_equal(got.y, want.y)
        for before, after in zip(caller, (H.data, H.indices, H.indptr)):
            assert np.array_equal(before, after)

    def test_duplicate_sparse_entries_are_summed(self):
        A = sp.csc_matrix((np.array([1.0, 2.0]), np.array([0, 0]),
                           np.array([0, 2])), shape=(1, 1))
        problem = QpProblem(c=np.zeros(1), A=A, b=np.array([3.0]))
        assert problem.A.toarray().tolist() == [[3.0]]
        assert matrix_violations(A)  # the caller's matrix is left as given

    def test_canonical_csc_stored_as_given_and_csr_as_csc(self):
        rng = np.random.default_rng(3)
        G = sp.random(8, 8, density=0.4, random_state=3, format="csc")
        H = (G @ G.T + sp.eye(8)).tocsc()
        H.sort_indices()
        A = sp.csr_matrix(rng.standard_normal((2, 8)))
        problem = QpProblem(c=np.zeros(8), H=H, A=A, b=np.zeros(2))
        assert problem.H is H
        assert problem.A.format == "csc" and problem.A.has_canonical_format
        np.testing.assert_array_equal(problem.A.toarray(), A.toarray())

    @pytest.mark.parametrize("fmt", ["coo", "dia", "bsr"])
    def test_formats_without_column_slicing_solve_as_csc(self, fmt):
        n = 40
        G = sp.random(n, n, density=0.1, random_state=7, format="csc")
        H = G @ G.T + sp.eye(n)
        A = sp.random(3, n, density=0.3, random_state=8, format="csc")
        rng = np.random.default_rng(9)
        c, b = rng.standard_normal(n), A @ rng.uniform(-0.3, 0.3, n)
        box = dict(lower=np.full(n, -0.4), upper=np.full(n, 0.4))
        problem = QpProblem(c=c, H=H.asformat(fmt), A=A.asformat(fmt), b=b, **box)
        assert problem.H.format == problem.A.format == "csc"
        cfg = SolverConfig(mode=Mode.RP, block_size=6, beta_penalty=1.0,
                           max_iters=8, seed=2, fixed_iterations=True)
        got = solve(problem, cfg)
        want = solve(QpProblem(c=c, H=as_csc(H), A=as_csc(A), b=b, **box), cfg)
        assert np.array_equal(got.x, want.x)
        assert np.array_equal(got.y, want.y)

    def test_bound_order_reported(self):
        with pytest.raises(ValueError, match="lower > upper"):
            QpProblem(c=np.zeros(1), lower=np.array([1.0]),
                      upper=np.array([0.0]))

    def test_one_error_lists_every_issue(self):
        with pytest.raises(ValueError) as err:
            QpProblem(c=np.array([np.nan, 1.0]), H=np.full((2, 2), np.inf),
                      A=np.zeros((3, 5)), b=np.zeros(2))
        assert str(err.value) == (
            "invalid problem: H: contains non-finite entries; "
            "A: expected 2 columns, got 5; "
            "b: length 2 does not match 3 rows of A; "
            "c: contains non-finite entries")

    def test_b_without_a(self):
        with pytest.raises(ValueError, match="without A"):
            QpProblem(c=np.zeros(2), b=np.array([1.0]))

    @pytest.mark.parametrize("fields, message", [
        (dict(H=np.eye(3)), "H: expected shape (2, 2), got (3, 3)"),
        (dict(H=sp.eye(2, 3, format="csc")),
         "H: expected shape (2, 2), got (2, 3)"),
        (dict(H=sp.csc_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))),
         "H: contains non-finite entries"),
        (dict(A=np.ones((1, 2))), "b: required when A is present"),
        (dict(A=np.ones((1, 2)), b=np.array([np.inf])),
         "b: contains non-finite entries"),
        (dict(lower=np.zeros(3)), "lower: length 3 does not match n=2"),
        (dict(upper=np.zeros(1)), "upper: length 1 does not match n=2"),
        (dict(lower=np.array([0.0, np.nan])), "lower: contains NaN"),
        (dict(upper=np.array([np.nan, 0.0])), "upper: contains NaN"),
    ])
    def test_each_issue_is_named(self, fields, message):
        with pytest.raises(ValueError) as err:
            QpProblem(c=np.zeros(2), **fields)
        assert str(err.value) == "invalid problem: " + message

    def test_vectors_must_be_one_dimensional(self):
        with pytest.raises(ValueError,
                           match=r"c must be a 1-D vector, got shape \(2, 1\)"):
            QpProblem(c=np.zeros((2, 1)))


class TestMatrixViolations:
    def test_dense_nan(self):
        assert matrix_violations(np.array([[np.nan]]))

    def test_sparse_clean(self):
        m = sp.csc_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
        assert matrix_violations(m) == []

    def test_sparse_duplicate_indices(self):
        m = sp.csc_matrix((np.array([1.0, 2.0]), np.array([0, 0]),
                           np.array([0, 2])), shape=(2, 1))
        assert any("duplicate" in msg for msg in matrix_violations(m))

    @pytest.mark.parametrize("seed", range(20))
    def test_sparse_index_check_matches_column_loop(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = 6, int(rng.integers(1, 8))
        counts = rng.integers(0, 4, cols)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        # odd seeds draw arbitrary rows, even seeds sorted distinct ones
        indices = np.concatenate([
            rng.integers(0, rows, k) if seed % 2 else
            np.sort(rng.choice(rows, k, replace=False)) for k in counts])
        m = sp.csc_matrix((np.ones(indices.size), indices, indptr),
                          shape=(rows, cols))
        expected = []
        for j in range(cols):
            col = indices[indptr[j]:indptr[j + 1]]
            if col.size > 1 and np.any(np.diff(col) <= 0):
                expected.append(f"M: column {j} has duplicate or decreasing "
                                "row indices")
                break
        assert matrix_violations(m, "M") == expected

    def test_sparse_names_first_unsorted_column(self):
        # columns 0 and 2 are empty; column 1 is sorted; column 3 decreases,
        # and so does column 4
        m = sp.csc_matrix((np.ones(6), np.array([0, 2, 2, 1, 1, 0]),
                           np.array([0, 0, 2, 2, 4, 6])), shape=(3, 5))
        assert matrix_violations(m, "A") == [
            "A: column 3 has duplicate or decreasing row indices"]


class TestMakePartition:
    def test_consecutive_chunks(self):
        assert make_partition(4, 2, randomize=False) == ((0, 1), (2, 3))

    def test_remainder_block(self):
        assert make_partition(5, 2, randomize=False) == ((0, 1), (2, 3), (4,))

    def test_randomized_is_deterministic(self):
        a = make_partition(12, 5, seed=99, randomize=True)
        b = make_partition(12, 5, seed=99, randomize=True)
        assert a == b
        assert a != make_partition(12, 5, seed=100, randomize=True)

    @pytest.mark.parametrize("seed", range(20))
    def test_disjoint_cover_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        s = int(rng.integers(1, n + 1))
        part = make_partition(n, s, seed=seed, randomize=bool(seed % 2))
        assert sorted(i for g in part for i in g) == list(range(n))
        sizes = [len(g) for g in part]
        assert all(sz == s for sz in sizes[:-1])
        assert sizes[-1] == (n % s or s)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            make_partition(4, 0)
        with pytest.raises(ValueError):
            make_partition(4, 5)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 60).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(1, n), st.integers(0, 2**32 - 1))))
    def test_agrees_with_the_sweep_orders(self, case):
        # make_partition and block_orders are one source of block orders
        n, s, seed = case
        rac = next(block_orders(Mode.RAC, n, s, np.random.default_rng(seed)))
        assert as_tuples(rac) == make_partition(n, s, seed, randomize=True)
        cyclic = next(block_orders(Mode.CYCLIC, n, s,
                                   np.random.default_rng(seed)))
        assert as_tuples(cyclic) == make_partition(n, s, seed, randomize=False)
        rp = block_orders(Mode.RP, n, s, np.random.default_rng(seed))
        partition = frozenset(make_partition(n, s, seed, randomize=True))
        assert frozenset(as_tuples(next(rp))) == partition
        assert frozenset(as_tuples(next(rp))) == partition


def as_tuples(order):
    """An order with each block as a tuple of ints, its ``make_partition``
    form, which compares and hashes by value."""
    return tuple(tuple(np.asarray(g).tolist()) for g in order)


def chunk_indices_loop(indices, block_size):
    """chunk_indices as a per-chunk Python sort, the reference it replaced."""
    groups = []
    for start in range(0, indices.size, block_size):
        groups.append(tuple(sorted(int(i) for i in indices[start:start + block_size])))
    return tuple(groups)


@st.composite
def chunk_cases(draw):
    n = draw(st.integers(1, 120))
    s = draw(st.one_of(st.integers(1, n), st.just(n)))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(n), s


class TestChunkIndices:
    @settings(max_examples=300, deadline=None)
    @given(chunk_cases())
    def test_matches_the_sorting_loop(self, case):
        indices, s = case
        got = chunk_indices(indices, s)
        assert as_tuples(got) == chunk_indices_loop(indices, s)
        assert type(got) is tuple
        assert all(isinstance(g, np.ndarray) and g.ndim == 1 and
                   g.dtype == np.int64 for g in got)

    def test_short_chunk_last(self):
        assert as_tuples(chunk_indices(np.array([4, 0, 3, 1, 2]), 2)) == \
            ((0, 4), (1, 3), (2,))
        assert as_tuples(chunk_indices(np.array([2, 0, 1]), 3)) == ((0, 1, 2),)


class TestEnumeration:
    def test_counts_match_formulas(self):
        for n, p in [(4, 2), (2, 2), (2, 1), (6, 3), (6, 2), (6, 6)]:
            s = n // p
            orders = enumerate_orders(n, p)
            expected = math.factorial(n) // math.factorial(s) ** p
            assert len(orders) == expected
            assert len(set(orders)) == expected
            # the partitions underlying the orders, each in all p! sequences
            expected_parts = expected // math.factorial(p)
            assert len({frozenset(o) for o in orders}) == expected_parts

    def test_spec_counts(self):
        assert len(enumerate_orders(4, 2)) == 6
        assert len(enumerate_orders(2, 2)) == 2
        assert len(enumerate_orders(2, 1)) == 1

    def test_each_order_covers(self):
        for o in enumerate_orders(4, 2):
            assert sorted(i for g in o for i in g) == [0, 1, 2, 3]

    def test_guards(self):
        with pytest.raises(ValueError):
            enumerate_orders(4, 3)
        with pytest.raises(CapacityError):
            enumerate_orders(12, 2)

    def test_sequences_are_lexicographic(self):
        assert enumerate_orders(4, 2) == [
            ((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)),
            ((1, 2), (0, 3)), ((1, 3), (0, 2)), ((2, 3), (0, 1))]
        with pytest.raises(CapacityError, match="^order enumeration"):
            enumerate_orders(11, 11)


class TestManifest:
    def test_import_leaves_scipy_io_unloaded(self):
        # only manifest loading reads Matrix Market files, and it imports
        # scipy.io itself; every `import racml` would pay for it otherwise
        src = str(Path(racml.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-c",
             "import racml, sys; sys.exit('scipy.io' in sys.modules)"],
            env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_round_trip(self, tmp_path):
        import json
        import scipy.io

        H = np.array([[2.0, 0.5], [0.5, 1.0]])
        A = sp.csc_matrix(np.array([[1.0, 1.0]]))
        scipy.io.mmwrite(tmp_path / "H.mtx", sp.csc_matrix(H))
        scipy.io.mmwrite(tmp_path / "A.mtx", A)
        (tmp_path / "c.txt").write_text("1.0\n-2.0\n")
        (tmp_path / "b.txt").write_text("3.0\n")
        (tmp_path / "lower.txt").write_text("0.0\n0.0\n")
        manifest = {
            "n": 2, "m": 1, "H": "H.mtx", "A": "A.mtx", "c": "c.txt",
            "b": "b.txt", "lower": "lower.txt", "upper": None,
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(manifest))
        prob = load_qp_manifest(path)
        np.testing.assert_allclose(np.asarray(prob.H.todense()) if sp.issparse(prob.H)
                                   else prob.H, H)
        np.testing.assert_allclose(prob.c, [1.0, -2.0])
        np.testing.assert_allclose(prob.b, [3.0])
        np.testing.assert_allclose(prob.lower, [0.0, 0.0])
        assert np.all(np.isinf(prob.upper))

    def test_dimension_mismatch(self, tmp_path):
        import json

        (tmp_path / "c.txt").write_text("1.0\n")
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"n": 2, "m": 0, "c": "c.txt"}))
        with pytest.raises(ValueError):
            load_qp_manifest(path)

    def test_dense_matrix_market_stays_dense(self, tmp_path):
        import json
        import scipy.io

        H = np.array([[2.0, 0.5], [0.5, 1.0]])
        scipy.io.mmwrite(tmp_path / "H.mtx", H)  # array format
        (tmp_path / "c.txt").write_text("1.0\n-2.0\n")
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"n": 2, "H": "H.mtx", "c": "c.txt"}))
        prob = load_qp_manifest(path)
        assert isinstance(prob.H, np.ndarray) and prob.H.dtype == float
        np.testing.assert_array_equal(prob.H, H)

    def test_constraint_matrix_of_wrong_shape(self, tmp_path):
        import json
        import scipy.io

        scipy.io.mmwrite(tmp_path / "A.mtx", sp.csc_matrix(np.eye(2)))
        (tmp_path / "c.txt").write_text("1.0\n-2.0\n")
        (tmp_path / "b.txt").write_text("0.0\n")
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"n": 2, "m": 1, "A": "A.mtx",
                                    "c": "c.txt", "b": "b.txt"}))
        with pytest.raises(ValueError,
                           match=r"m,n=\(1,2\) but A has shape \(2, 2\)"):
            load_qp_manifest(path)


class TestSolverConfig:
    def test_rejects_bad_parameters(self):
        from racml.problems import SolverConfig

        with pytest.raises(ValueError, match="beta"):
            SolverConfig(beta_penalty=0.0, block_size=1).validate(4)
        with pytest.raises(ValueError, match="block_size"):
            SolverConfig(block_size=9).validate(4)
        with pytest.raises(ValueError, match="tolerances"):
            SolverConfig(block_size=2, tol_primal=0.0).validate(4)
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(block_size=2, max_iters=0).validate(4)
        SolverConfig(block_size=2).validate(4)  # clean config passes

    @pytest.mark.parametrize("field, value", [
        ("beta_penalty", float("nan")), ("beta_penalty", float("inf")),
        ("tol_primal", float("nan")), ("tol_dual", float("nan"))])
    def test_rejects_non_finite_penalty_and_nan_tolerances(self, field, value):
        with pytest.raises(ValueError, match=field.split("_")[0]):
            SolverConfig(block_size=2, **{field: value}).validate(4)


    @pytest.mark.parametrize("field, value, message", [
        ("block_size", 2.5, "block_size must be an integer, got 2.5"),
        ("max_iters", 2.5, "max_iters must be an integer, got 2.5"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", -1, "seed must be >= 0, got -1")])
    def test_rejects_non_integer_sizes_and_bad_seeds_by_name(self, field,
                                                             value, message):
        config = SolverConfig(**{"block_size": 2, field: value})
        with pytest.raises(ValueError, match=message):
            config.validate(4)

    def test_numpy_integers_pass(self):
        SolverConfig(block_size=np.int64(2), max_iters=np.int32(3),
                     seed=np.uint64(7)).validate(4)


class TestGeneratorCompatibility:
    def test_problems_built_from_generated_data_validate(self):
        # QPs assembled from generator output must build: they are valid
        from racml.data_io import gen_blobs, gen_regression

        ds, _ = gen_regression(20, 8, x_density=0.7, seed=0)
        X = np.asarray(ds.X.todense()) if sp.issparse(ds.X) else ds.X
        QpProblem(c=-X.T @ ds.y / 20, H=X.T @ X / 20 + np.eye(8))

        blobs = gen_blobs(10, 2, 6.0, seed=1)
        n = blobs.X.shape[0]
        QpProblem(c=-np.ones(n), A=blobs.y.reshape(1, -1), b=np.zeros(1),
                  lower=np.zeros(n), upper=np.full(n, 1.0))
