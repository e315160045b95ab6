import io

import numpy as np
import pytest
import scipy.sparse as sp

from racml.data_io import (
    Dataset,
    LibsvmFormatError,
    gen_blobs,
    gen_regression,
    libsvm_to_string,
    parse_libsvm,
    write_libsvm,
)


def as_dense(X):
    return np.asarray(X.todense()) if sp.issparse(X) else np.asarray(X)


def random_dataset(rng):
    """Random mix of integral, fractional, negative and tiny values."""
    n = int(rng.integers(0, 8))
    p = int(rng.integers(1, 10))
    X = np.zeros((n, p))
    for i in range(n):
        for j in range(p):
            u = rng.random()
            if u < 0.6:
                continue
            elif u < 0.7:
                X[i, j] = float(rng.integers(-5, 6))
            elif u < 0.8:
                X[i, j] = rng.standard_normal() * 10.0 ** int(rng.integers(-8, 8))
            else:
                X[i, j] = rng.standard_normal()
    y = np.where(rng.random(n) < 0.5, rng.standard_normal(n),
                 rng.integers(-3, 4, size=n).astype(float))
    return Dataset(X=sp.csc_matrix(X, shape=(n, p)), y=y, feature_count=p)


class TestParse:
    def test_basic_line(self):
        ds = parse_libsvm(io.StringIO("+1 1:0.5 3:2.0\n"))
        assert ds.y.tolist() == [1.0]
        np.testing.assert_allclose(as_dense(ds.X), [[0.5, 0.0, 2.0]])
        assert ds.feature_count == 3

    def test_empty_stream(self):
        ds = parse_libsvm(io.StringIO(""), declared_features=7)
        assert ds.X.shape == (0, 7)
        assert ds.y.size == 0
        assert parse_libsvm(io.StringIO("")).feature_count == 0

    def test_blank_lines_are_skipped(self):
        ds = parse_libsvm(io.StringIO("\n+1 1:0.5\n   \n\n-1 2:1\n\n"))
        assert ds.y.tolist() == [1.0, -1.0]
        np.testing.assert_array_equal(as_dense(ds.X), [[0.5, 0.0], [0.0, 1.0]])

    def test_declared_features_extends(self):
        ds = parse_libsvm(io.StringIO("1 2:1\n"), declared_features=5)
        assert ds.feature_count == 5
        assert ds.X.shape == (1, 5)

    def test_classification_labels(self):
        ds = parse_libsvm(io.StringIO("-1 1:1\n+1 2:1\n"), classification=True)
        assert set(ds.y) == {-1.0, 1.0}
        with pytest.raises(LibsvmFormatError, match="line 2"):
            parse_libsvm(io.StringIO("-1 1:1\n2 2:1\n"), classification=True)

    @pytest.mark.parametrize("text,line", [
        ("x 1:1\n", 1),                     # malformed label
        ("1 0:1\n", 1),                     # index 0
        ("1 -2:1\n", 1),                    # negative index
        ("1 2:1 1:3\n", 1),                 # decreasing index
        ("1 2:1 2:3\n", 1),                 # duplicate index
        ("1 1:abc\n", 1),                   # malformed value
        ("1 1:inf\n", 1),                   # non-finite value
        ("1 1\n", 1),                       # missing colon
        ("1 1:1\nnan 1:1\n", 2),            # non-finite label, second line
        ("# comment\n1 1:1\n", 1),          # comments are rejected, not skipped
        ("1 1.5:2\n", 1),                   # non-integer index
    ])
    def test_malformations_name_the_line(self, text, line):
        with pytest.raises(LibsvmFormatError, match=f"line {line}") as err:
            parse_libsvm(io.StringIO(text))
        assert err.value.line == line


class TestWrite:
    def test_canonical_formatting(self):
        ds = Dataset(X=np.array([[0.5, 0.0, 2.0]]), y=np.array([1.0]),
                     feature_count=3)
        assert libsvm_to_string(ds) == "1 1:0.5 3:2\n"

    def test_all_zero_row(self):
        ds = Dataset(X=np.zeros((1, 3)), y=np.array([-1.0]), feature_count=3)
        assert libsvm_to_string(ds) == "-1\n"

    @pytest.mark.parametrize("seed", range(5))
    def test_dense_and_sparse_write_the_same_text(self, seed):
        ds = random_dataset(np.random.default_rng(seed))
        texts = {libsvm_to_string(Dataset(X=fmt(ds.X), y=ds.y,
                                          feature_count=ds.feature_count))
                 for fmt in (as_dense, sp.csr_matrix, sp.csc_matrix)}
        assert len(texts) == 1

    def test_sparse_drops_stored_zeros(self):
        X = sp.csc_matrix((np.array([1.0, 0.0]),
                           (np.array([0, 0]), np.array([0, 1]))), shape=(1, 2))
        assert X.nnz == 2  # the zero is explicitly stored
        ds = Dataset(X=X, y=np.array([2.0]), feature_count=2)
        assert libsvm_to_string(ds) == "2 1:1\n"

    @pytest.mark.parametrize("seed", range(25))
    def test_round_trips(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng)
        text = libsvm_to_string(ds)
        back = parse_libsvm(io.StringIO(text), declared_features=ds.feature_count)
        np.testing.assert_array_equal(as_dense(back.X), as_dense(ds.X))
        np.testing.assert_array_equal(back.y, ds.y)
        # write o parse is byte identity on canonical text
        assert libsvm_to_string(back) == text

    def test_file_round_trip(self, tmp_path):
        ds = gen_blobs(5, 3, 4.0, seed=0)
        path = tmp_path / "data.txt"
        write_libsvm(ds, path)
        back = parse_libsvm(path, classification=True)
        np.testing.assert_allclose(as_dense(back.X), ds.X)
        np.testing.assert_array_equal(back.y, ds.y)


class TestGenRegression:
    def test_noiseless_full_density_exact(self):
        ds, beta = gen_regression(20, 5, x_density=1.0, coef_density=1.0,
                                  noise_sd=0.0, seed=3)
        np.testing.assert_array_equal(ds.y, as_dense(ds.X) @ beta)

    def test_coef_sparsity_within_binomial_bounds(self):
        p, dens = 4000, 0.1
        counts = []
        for seed in range(5):
            _, beta = gen_regression(2, p, coef_density=dens, seed=seed)
            counts.append(np.count_nonzero(beta))
        mean, sd = p * dens, np.sqrt(p * dens * (1 - dens))
        for c in counts:
            assert abs(c - mean) < 5 * sd

    def test_design_density_within_binomial_bounds(self):
        n, p, dens = 60, 50, 0.2
        ds, _ = gen_regression(n, p, x_density=dens, seed=8)
        total = n * p
        sd = np.sqrt(total * dens * (1 - dens))
        assert abs(ds.X.count_nonzero() - total * dens) < 5 * sd

    def test_deterministic(self):
        a, ba = gen_regression(10, 8, x_density=0.4, seed=5)
        b, bb = gen_regression(10, 8, x_density=0.4, seed=5)
        np.testing.assert_array_equal(as_dense(a.X), as_dense(b.X))
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(ba, bb)

    def test_invalid_density(self):
        with pytest.raises(ValueError):
            gen_regression(5, 5, x_density=0.0)
        with pytest.raises(ValueError):
            gen_regression(5, 5, coef_density=1.5)


class TestGenBlobs:
    def test_class_means_concentrate(self):
        npc = 400
        ds = gen_blobs(npc, dim=2, center_distance=6.0, seed=1)
        pos = ds.X[ds.y == 1.0]
        neg = ds.X[ds.y == -1.0]
        # empirical mean of npc unit-variance gaussians: sd = 1/sqrt(npc)
        bound = 5.0 / np.sqrt(npc)
        assert abs(pos[:, 0].mean() - 3.0) < bound
        assert abs(neg[:, 0].mean() + 3.0) < bound
        assert abs(pos[:, 1].mean()) < bound

    def test_zero_distance_identical_distributions(self):
        ds = gen_blobs(50, dim=2, center_distance=0.0, seed=2)
        assert ds.X.shape == (100, 2)
        assert set(ds.y) == {-1.0, 1.0}

    def test_deterministic(self):
        a = gen_blobs(10, 3, 6.0, seed=7)
        b = gen_blobs(10, 3, 6.0, seed=7)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)
