import json

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from racml import elastic_net, svm
from racml.cli import _exit_code, run
from racml.data_io import (
    Dataset,
    gen_blobs,
    gen_regression,
    parse_libsvm,
    write_libsvm,
)
from racml.problems import Status


@pytest.fixture()
def tiny_qp_manifest(tmp_path):
    # min 1/2||x||^2 s.t. x1 + x2 = 2 -> x = (1, 1), y = 1
    scipy.io.mmwrite(tmp_path / "H.mtx", sp.csc_matrix(np.eye(2)))
    scipy.io.mmwrite(tmp_path / "A.mtx", sp.csc_matrix(np.array([[1.0, 1.0]])))
    (tmp_path / "c.txt").write_text("0\n0\n")
    (tmp_path / "b.txt").write_text("2\n")
    manifest = tmp_path / "qp.json"
    manifest.write_text(json.dumps({
        "n": 2, "m": 1, "H": "H.mtx", "A": "A.mtx",
        "c": "c.txt", "b": "b.txt", "lower": None, "upper": None}))
    return manifest


@pytest.fixture()
def identity_manifest(tmp_path):
    # H = 0, A = I2: the certificate's hand-checkable case
    scipy.io.mmwrite(tmp_path / "A.mtx", sp.csc_matrix(np.eye(2)))
    (tmp_path / "c.txt").write_text("0\n0\n")
    (tmp_path / "b.txt").write_text("0\n0\n")
    manifest = tmp_path / "id.json"
    manifest.write_text(json.dumps({
        "n": 2, "m": 2, "H": None, "A": "A.mtx",
        "c": "c.txt", "b": "b.txt", "lower": None, "upper": None}))
    return manifest


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


HELP_TARGETS = [
    [],
    ["qp"], ["qp", "solve"],
    ["elastic-net"], ["elastic-net", "fit"], ["elastic-net", "eval"],
    ["svm"], ["svm", "train"], ["svm", "predict"], ["svm", "grid"],
    ["spectral"], ["spectral", "certify"],
    ["gen"], ["gen", "regression"], ["gen", "blobs"],
]


class TestUsage:
    @pytest.mark.parametrize("target", HELP_TARGETS)
    def test_help_exits_zero(self, target, capsys):
        assert run(target + ["--help"]) == 0
        out = capsys.readouterr().out
        assert "usage" in out.lower()

    @pytest.mark.parametrize("target,flags", [
        (["qp", "solve"],
         ["--manifest", "--mode", "--block-size", "--beta", "--max-iter",
          "--tol-primal", "--tol-dual", "--seed", "--out"]),
        (["elastic-net", "fit"],
         ["--data", "--lambda", "--alpha", "--gamma", "--iters",
          "--block-size", "--mode", "--seed", "--model"]),
        (["elastic-net", "eval"], ["--model", "--data"]),
        (["svm", "train"],
         ["--data", "--c", "--sigma", "--block-size", "--max-iter",
          "--tol-primal", "--tol-dual", "--seed", "--model"]),
        (["svm", "predict"], ["--model", "--data", "--labels"]),
        (["svm", "grid"],
         ["--data", "--c-grid", "--sigma-grid", "--holdout", "--seed"]),
        (["spectral", "certify"], ["--manifest", "--beta", "--blocks",
                                   "--kron"]),
        (["gen", "regression"],
         ["--n", "--p", "--x-density", "--coef-density", "--noise-sd",
          "--seed", "--out"]),
        (["gen", "blobs"],
         ["--n-per-class", "--dim", "--center-distance", "--seed", "--out"]),
    ])
    def test_documented_flags_in_help(self, target, flags, capsys):
        assert run(target + ["--help"]) == 0
        out = capsys.readouterr().out
        for flag in flags:
            assert flag in out

    def test_unknown_flag_exits_two(self, capsys):
        assert run(["qp", "solve", "--frobnicate"]) == 2

    def test_missing_subcommand_exits_two(self):
        assert run(["qp"]) == 2

    def test_missing_file_exits_two(self, capsys):
        assert run(["qp", "solve", "--manifest", "/nonexistent.json"]) == 2
        assert "error" in capsys.readouterr().err


class TestQpSolve:
    def test_solves_and_reports(self, tiny_qp_manifest, tmp_path, capsys):
        out_file = tmp_path / "record.json"
        code, rec = run_json(capsys, [
            "qp", "solve", "--manifest", str(tiny_qp_manifest),
            "--mode", "rac", "--block-size", "1", "--beta", "1.0",
            "--max-iter", "500", "--tol-primal", "1e-9",
            "--tol-dual", "1e-9", "--seed", "7", "--out", str(out_file)])
        assert code == 0
        assert rec["schema"].startswith("racml/")
        assert rec["metrics"]["status"] == "converged"
        np.testing.assert_allclose(rec["metrics"]["x"], [1.0, 1.0], atol=1e-7)
        np.testing.assert_allclose(rec["metrics"]["y"], [1.0], atol=1e-7)
        assert rec["residuals"]["primal"] <= 1e-9
        assert rec["metrics"]["unconverged_blocks"] == 0
        saved = json.loads(out_file.read_text())
        assert saved["metrics"]["x"] == rec["metrics"]["x"]

    @pytest.mark.parametrize("mode", ["rp", "rac", "cyclic"])
    def test_block_with_an_empty_a_strip_converges(self, tmp_path, capsys,
                                                   mode):
        # min 1/2 ||x||^2 s.t. x1 + x2 = 1 over [-1, 1]^4 in blocks of 2: a
        # block over x3 and x4 reads an A strip with no entry
        scipy.io.mmwrite(tmp_path / "H.mtx", sp.csc_matrix(np.eye(4)))
        scipy.io.mmwrite(tmp_path / "A.mtx",
                         sp.csc_matrix(np.array([[1.0, 1.0, 0.0, 0.0]])))
        np.savetxt(tmp_path / "c.txt", np.zeros(4))
        np.savetxt(tmp_path / "b.txt", np.ones(1))
        np.savetxt(tmp_path / "lower.txt", -np.ones(4))
        np.savetxt(tmp_path / "upper.txt", np.ones(4))
        manifest = tmp_path / "qp.json"
        manifest.write_text(json.dumps({
            "n": 4, "m": 1, "H": "H.mtx", "A": "A.mtx", "c": "c.txt",
            "b": "b.txt", "lower": "lower.txt", "upper": "upper.txt"}))
        code, rec = run_json(capsys, [
            "qp", "solve", "--manifest", str(manifest), "--mode", mode,
            "--block-size", "2", "--max-iter", "500"])
        assert code == 0
        assert rec["metrics"]["status"] == "converged"
        assert rec["metrics"]["unconverged_blocks"] == 0
        np.testing.assert_allclose(rec["metrics"]["x"], [0.5, 0.5, 0, 0],
                                   atol=1e-5)

    def test_nonconvergence_exits_one(self, tiny_qp_manifest, capsys):
        code, rec = run_json(capsys, [
            "qp", "solve", "--manifest", str(tiny_qp_manifest),
            "--block-size", "1", "--max-iter", "1",
            "--tol-primal", "1e-12", "--tol-dual", "1e-12"])
        assert code == 1
        assert rec["metrics"]["status"] == "max_iters"

    def test_invalid_problem_exits_two(self, tiny_qp_manifest, capsys):
        # a problem with an asymmetric H is refused when the manifest loads
        scipy.io.mmwrite(tiny_qp_manifest.parent / "H.mtx",
                         sp.csc_matrix(np.array([[1.0, 2.0], [0.0, 1.0]])))
        assert run(["qp", "solve", "--manifest", str(tiny_qp_manifest),
                    "--block-size", "1"]) == 2
        captured = capsys.readouterr()
        assert "invalid problem" in captured.err
        assert captured.out == ""

    def test_fixed_iterations_exit_zero(self, tiny_qp_manifest, capsys):
        code, rec = run_json(capsys, [
            "qp", "solve", "--manifest", str(tiny_qp_manifest),
            "--block-size", "1", "--max-iter", "3", "--fixed-iterations"])
        assert code == 0
        assert rec["iterations"] == 3

    def test_primal_l1_is_the_one_norm_at_the_recorded_x(
            self, tiny_qp_manifest, capsys):
        # stopped after 2 sweeps, while x1 + x2 = 2 is still violated
        code, rec = run_json(capsys, [
            "qp", "solve", "--manifest", str(tiny_qp_manifest),
            "--block-size", "1", "--max-iter", "2", "--fixed-iterations"])
        assert code == 0
        want = abs(sum(rec["metrics"]["x"]) - 2.0)
        assert want > 1e-3
        assert rec["residuals"]["primal_l1"] == pytest.approx(want, rel=1e-12)
        # one constraint row: the 1-norm and the inf-norm coincide
        assert rec["residuals"]["primal_l1"] == rec["residuals"]["primal"]


class TestElasticNetCli:
    def test_fit_then_eval_matches_ridge_closed_form(self, tmp_path, capsys):
        ds, beta = gen_regression(30, 10, x_density=1.0, coef_density=1.0,
                                  noise_sd=0.1, seed=42)
        data = tmp_path / "train.txt"
        write_libsvm(ds, data)
        model_path = tmp_path / "model.json"
        code, rec = run_json(capsys, [
            "elastic-net", "fit", "--data", str(data), "--lambda", "1.0",
            "--alpha", "0", "--gamma", "1.0", "--iters", "4000",
            "--block-size", "4", "--mode", "rac", "--tol", "1e-12",
            "--seed", "3", "--model", str(model_path)])
        assert code == 0
        code, rec = run_json(capsys, [
            "elastic-net", "eval", "--model", str(model_path),
            "--data", str(data)])
        assert code == 0
        X = np.asarray(ds.X.todense()) if sp.issparse(ds.X) else ds.X
        closed = np.linalg.solve(X.T @ X / 30 + np.eye(10), X.T @ ds.y / 30)
        expected_loss = float(np.linalg.norm(X @ closed - ds.y))
        assert rec["metrics"]["l2_loss"] == pytest.approx(expected_loss,
                                                          abs=1e-6)

    def test_consensus_mode(self, tmp_path, capsys):
        ds, _ = gen_regression(20, 10, x_density=1.0, coef_density=0.5,
                               noise_sd=0.1, seed=1)
        data = tmp_path / "train.txt"
        write_libsvm(ds, data)
        code, rec = run_json(capsys, [
            "elastic-net", "fit", "--data", str(data), "--lambda", "0.1",
            "--alpha", "1.0", "--iters", "50", "--block-size", "5",
            "--mode", "consensus", "--seed", "2"])
        assert code == 0
        assert rec["iterations"] == 50

    def test_bad_gamma_exits_two(self, tmp_path, capsys):
        ds, _ = gen_regression(10, 5, seed=0)
        data = tmp_path / "d.txt"
        write_libsvm(ds, data)
        code = run(["elastic-net", "fit", "--data", str(data),
                    "--lambda", "0.1", "--gamma", "bogus"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["rac", "consensus"])
    def test_invalid_spec_exits_two(self, tmp_path, capsys, mode):
        ds, _ = gen_regression(10, 5, seed=0)
        data = tmp_path / "d.txt"
        write_libsvm(ds, data)
        assert run(["elastic-net", "fit", "--data", str(data), "--mode", mode,
                    "--lambda", "0.1", "--alpha", "2"]) == 2
        captured = capsys.readouterr()
        assert "racml: error: alpha must be in [0, 1], got 2.0" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("mode", ["rac", "consensus"])
    def test_negative_seed_exits_two_naming_seed(self, tmp_path, capsys,
                                                 mode):
        ds, _ = gen_regression(10, 5, seed=0)
        data = tmp_path / "d.txt"
        write_libsvm(ds, data)
        assert run(["elastic-net", "fit", "--data", str(data), "--mode", mode,
                    "--lambda", "0.1", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "racml: error: seed must be >= 0, got -1" in captured.err
        assert captured.out == ""

    def test_center_scale_matches_standardized_fit(self, tmp_path, capsys):
        ds, _ = gen_regression(30, 6, x_density=1.0, coef_density=1.0,
                               noise_sd=0.1, seed=5)
        data = tmp_path / "train.txt"
        write_libsvm(ds, data)
        model_path = tmp_path / "model.json"
        code, rec = run_json(capsys, [
            "elastic-net", "fit", "--data", str(data), "--lambda", "0.1",
            "--alpha", "0.5", "--iters", "30", "--block-size", "2",
            "--seed", "3", "--center", "--scale", "--model", str(model_path)])
        assert code == 0
        X = parse_libsvm(data).X.toarray()
        Z = (X - X.mean(axis=0)) / X.std(axis=0)
        spec = elastic_net.ElasticNetSpec(lam=0.1, alpha=0.5, block_size=2,
                                          iters=30, seed=3)
        expected = elastic_net.fit(Z, ds.y, spec)
        np.testing.assert_allclose(elastic_net.load_model(model_path).beta,
                                   expected.beta, rtol=1e-9, atol=1e-12)
        assert rec["metrics"]["objective"] == pytest.approx(
            elastic_net.objective(Z, ds.y, expected.beta, 0.1, 0.5), rel=1e-9)

    def test_scale_alone_keeps_sparse_data_sparse(self, tmp_path, capsys,
                                                  monkeypatch):
        ds, _ = gen_regression(60, 400, x_density=0.03, noise_sd=0.1, seed=7)
        data = tmp_path / "train.txt"
        write_libsvm(ds, data)
        designs = []
        fit = elastic_net.fit
        monkeypatch.setattr(elastic_net, "fit", lambda X, *args:
                            designs.append(X) or fit(X, *args))
        model_path = tmp_path / "model.json"
        code, _ = run_json(capsys, [
            "elastic-net", "fit", "--data", str(data), "--lambda", "0.05",
            "--alpha", "0.5", "--iters", "20", "--block-size", "50",
            "--seed", "4", "--scale", "--model", str(model_path)])
        assert code == 0
        assert len(designs) == 1 and sp.issparse(designs[0])
        X = parse_libsvm(data).X.toarray()
        sd = X.std(axis=0)
        sd[sd == 0.0] = 1.0
        np.testing.assert_allclose(designs[0].toarray(), X / sd,
                                   rtol=1e-12, atol=1e-14)
        spec = elastic_net.ElasticNetSpec(lam=0.05, alpha=0.5, block_size=50,
                                          iters=20, seed=4)
        expected = fit(X / sd, ds.y, spec)
        assert np.max(np.abs(elastic_net.load_model(model_path).beta -
                             expected.beta)) <= 1e-10

    def test_eval_reads_data_without_the_last_feature(self, tmp_path,
                                                      capsys):
        # a file whose last column is all zero names one feature fewer
        ds, _ = gen_regression(20, 5, x_density=1.0, coef_density=1.0,
                               seed=6)
        data = tmp_path / "train.txt"
        write_libsvm(ds, data)
        model_path = tmp_path / "model.json"
        code, _ = run_json(capsys, [
            "elastic-net", "fit", "--data", str(data), "--lambda", "0.1",
            "--iters", "5", "--block-size", "2", "--model", str(model_path)])
        assert code == 0
        X_test = ds.X.copy()
        X_test[:, -1] = 0.0
        test_file = tmp_path / "test.txt"
        write_libsvm(Dataset(X=X_test, y=ds.y, feature_count=5), test_file)
        code, rec = run_json(capsys, [
            "elastic-net", "eval", "--model", str(model_path),
            "--data", str(test_file)])
        assert code == 0
        model = elastic_net.load_model(model_path)
        assert rec["metrics"] == elastic_net.evaluate(model, X_test, ds.y)

    def test_tol_not_reached_exits_one(self, tmp_path, capsys):
        ds, _ = gen_regression(20, 10, seed=1)
        data = tmp_path / "train.txt"
        write_libsvm(ds, data)
        code, rec = run_json(capsys, [
            "elastic-net", "fit", "--data", str(data), "--lambda", "0.1",
            "--iters", "1", "--block-size", "5", "--tol", "1e-14",
            "--seed", "2"])
        assert code == 1


class TestSvmCli:
    def test_train_predict_grid(self, tmp_path, capsys):
        tr = gen_blobs(40, 2, 6.0, seed=0)
        te = gen_blobs(20, 2, 6.0, seed=1)
        train_file = tmp_path / "train.txt"
        test_file = tmp_path / "test.txt"
        write_libsvm(tr, train_file)
        write_libsvm(te, test_file)
        model_path = tmp_path / "svm.json"
        code, rec = run_json(capsys, [
            "svm", "train", "--data", str(train_file), "--c", "1.0",
            "--sigma", "1.0", "--seed", "4", "--model", str(model_path)])
        assert code == 0
        assert rec["metrics"]["train_accuracy"] >= 99.0
        assert rec["metrics"]["unconverged_blocks"] == 0
        code, rec = run_json(capsys, [
            "svm", "predict", "--model", str(model_path),
            "--data", str(test_file), "--labels"])
        assert code == 0
        assert rec["metrics"]["accuracy"] >= 99.0
        assert len(rec["metrics"]["predictions"]) == 40
        code, rec = run_json(capsys, [
            "svm", "grid", "--data", str(train_file),
            "--c-grid", "1", "--sigma-grid", "1",
            "--holdout", "0.3", "--seed", "5"])
        assert code == 0
        assert rec["metrics"]["best_c"] == 1.0
        assert rec["metrics"]["best_sigma"] == 1.0
        assert len(rec["metrics"]["table"]) == 1

    def test_model_path_that_is_its_own_sidecar_exits_two(self, tmp_path,
                                                          capsys,
                                                          monkeypatch):
        # m.bin's sidecar is m.bin: the header would overwrite the duals;
        # the path is refused before any training
        def no_training(*args, **kwargs):
            raise AssertionError("svm.train ran before the path was refused")

        monkeypatch.setattr(svm, "train", no_training)
        train_file = tmp_path / "train.txt"
        write_libsvm(gen_blobs(10, 2, 6.0, seed=0), train_file)
        model_path = tmp_path / "m.bin"
        assert run(["svm", "train", "--data", str(train_file),
                    "--max-iter", "5", "--model", str(model_path)]) == 2
        captured = capsys.readouterr()
        assert "is its own .bin sidecar" in captured.err
        assert captured.out == ""
        assert not model_path.exists()

    @pytest.mark.parametrize("argv, message", [
        (["train", "--sigma", "0"], "sigma must be > 0, got 0.0"),
        (["grid", "--c-grid", "1", "--sigma-grid", "-1"],
         "sigma must be > 0, got -1.0"),
        (["grid", "--c-grid", " , ", "--sigma-grid", "1"],
         "empty grid: ' , '"),
    ])
    def test_invalid_settings_exit_two(self, tmp_path, capsys, argv, message):
        train_file = tmp_path / "train.txt"
        write_libsvm(gen_blobs(10, 2, 6.0, seed=0), train_file)
        assert run(["svm", *argv, "--data", str(train_file)]) == 2
        captured = capsys.readouterr()
        assert f"racml: error: {message}" in captured.err
        assert captured.out == ""

    def test_predict_reads_data_without_the_last_feature(self, tmp_path,
                                                         capsys):
        tr = gen_blobs(20, 3, 6.0, seed=0)
        train_file = tmp_path / "train.txt"
        write_libsvm(tr, train_file)
        model_path = tmp_path / "svm.json"
        code, _ = run_json(capsys, [
            "svm", "train", "--data", str(train_file), "--max-iter", "50",
            "--model", str(model_path)])
        assert code == 0
        X_test = tr.X.copy()
        X_test[:, -1] = 0.0
        test_file = tmp_path / "test.txt"
        write_libsvm(Dataset(X=X_test, y=tr.y, feature_count=3), test_file)
        code, rec = run_json(capsys, [
            "svm", "predict", "--model", str(model_path),
            "--data", str(test_file), "--labels"])
        assert code == 0
        assert len(rec["metrics"]["predictions"]) == 40


@pytest.mark.parametrize("command", [["qp", "solve", "--block-size", "1"],
                                     ["spectral", "certify", "--blocks", "1"]])
def test_manifest_without_c_exits_two(tiny_qp_manifest, command, capsys):
    spec = json.loads(tiny_qp_manifest.read_text())
    del spec["c"]
    tiny_qp_manifest.write_text(json.dumps(spec))
    assert run(command + ["--manifest", str(tiny_qp_manifest)]) == 2
    captured = capsys.readouterr()
    assert 'names no objective vector "c"' in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("status, requested, code", [
    (Status.CONVERGED, True, 0), (Status.CONVERGED, False, 0),
    (Status.MAX_ITERS, True, 1), (Status.MAX_ITERS, False, 0),
    (Status.DIVERGED, True, 1), (Status.DIVERGED, False, 1)])
def test_exit_code_rule(status, requested, code):
    assert _exit_code(status, requested) == code


class TestSpectralCli:
    def test_identity_certificate(self, identity_manifest, capsys):
        code, doc = run_json(capsys, [
            "spectral", "certify", "--manifest", str(identity_manifest),
            "--beta", "1.0", "--blocks", "2", "--kron"])
        assert code == 0
        assert doc["lemma2_ok"] is True
        assert doc["as_ok"] is True
        assert doc["rho_kron"] == pytest.approx(0.0, abs=1e-12)
        assert sorted(v[0] for v in doc["eig_QS"]) == [1.0, 1.0]
        assert doc["n"] == 2 and doc["m"] == 2 and doc["p"] == 2
        assert doc["record"]["schema"].startswith("racml/")

    @pytest.mark.parametrize("blocks", ["0", "-2"])
    def test_nonpositive_blocks_exit_two(self, identity_manifest, blocks,
                                         capsys):
        assert run(["spectral", "certify", "--manifest",
                    str(identity_manifest), "--blocks", blocks]) == 2
        captured = capsys.readouterr()
        assert f"racml: error: p must be >= 1, got p={blocks}" in captured.err
        assert captured.out == ""

    def test_pretty_prints_the_verdicts(self, identity_manifest, capsys):
        def table():
            assert run(["spectral", "certify", "--manifest",
                        str(identity_manifest), "--blocks", "2",
                        "--pretty"]) == 0
            lines = capsys.readouterr().out.splitlines()
            return dict(line.split(None, 1) for line in lines)

        got = table()
        assert list(got) == ["n", "m", "p", "beta", "assumption1_ok",
                             "lemma2_ok", "as_ok", "rho_kron"]
        assert got["n"] == "2" and got["beta"] == "1"
        assert got["lemma2_ok"] == got["as_ok"] == "True"
        assert got["rho_kron"] == "0"
        # a zero column makes the sweep singular: only one verdict remains
        scipy.io.mmwrite(identity_manifest.parent / "A.mtx",
                         sp.csc_matrix(np.array([[1.0, 0.0], [2.0, 0.0]])))
        got = table()
        assert got["assumption1_ok"] == "False"
        assert got["lemma2_ok"] == got["as_ok"] == got["rho_kron"] == "-"

    def test_asymmetric_h_exits_two(self, tiny_qp_manifest, capsys):
        scipy.io.mmwrite(tiny_qp_manifest.parent / "H.mtx",
                         sp.csc_matrix(np.array([[1.0, 2.0], [0.0, 1.0]])))
        assert run(["spectral", "certify", "--manifest",
                    str(tiny_qp_manifest), "--blocks", "2"]) == 2
        captured = capsys.readouterr()
        assert "racml: error: invalid problem: H: not symmetric" in captured.err
        assert captured.out == ""

    def test_nan_beta_exits_two(self, identity_manifest, capsys):
        assert run(["spectral", "certify", "--manifest",
                    str(identity_manifest), "--beta", "nan",
                    "--blocks", "2"]) == 2
        captured = capsys.readouterr()
        assert "racml: error: beta must be finite and > 0" in captured.err
        assert captured.out == ""

    def test_manifest_without_a_certifies_with_no_rows(self, tmp_path, capsys):
        scipy.io.mmwrite(tmp_path / "H.mtx", sp.csc_matrix(2.0 * np.eye(2)))
        (tmp_path / "c.txt").write_text("0\n0\n")
        manifest = tmp_path / "qp.json"
        manifest.write_text(json.dumps({"n": 2, "H": "H.mtx", "c": "c.txt"}))
        code, doc = run_json(capsys, ["spectral", "certify", "--manifest",
                                      str(manifest), "--blocks", "2"])
        assert code == 0
        assert doc["m"] == 0 and doc["lemma2_ok"] is True


class TestGenCli:
    def test_regression_writes_dataset_and_truth(self, tmp_path, capsys):
        out = tmp_path / "data.txt"
        beta_out = tmp_path / "beta.txt"
        code, rec = run_json(capsys, [
            "gen", "regression", "--n", "15", "--p", "6",
            "--x-density", "0.8", "--coef-density", "0.5",
            "--noise-sd", "0.05", "--seed", "11", "--out", str(out),
            "--beta-out", str(beta_out)])
        assert code == 0
        assert rec["metrics"]["rows"] == 15
        assert rec["metrics"]["features"] == 6
        assert out.exists()
        assert len(beta_out.read_text().splitlines()) == 6

    def test_blobs(self, tmp_path, capsys):
        out = tmp_path / "blobs.txt"
        code, rec = run_json(capsys, [
            "gen", "blobs", "--n-per-class", "5", "--dim", "3",
            "--center-distance", "4.0", "--seed", "9", "--out", str(out)])
        assert code == 0
        assert rec["metrics"]["rows"] == 10
        assert out.exists()

    def test_blobs_zero_dim_exits_two(self, tmp_path, capsys):
        out = tmp_path / "blobs.txt"
        assert run(["gen", "blobs", "--n-per-class", "5", "--dim", "0",
                    "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "racml: error: dim must be >= 1, got 0" in captured.err
        assert not out.exists()


class TestThreadEnv:
    def test_grid_respects_thread_cap(self, tmp_path, capsys, monkeypatch):
        tr = gen_blobs(30, 2, 6.0, seed=8)
        data = tmp_path / "d.txt"
        write_libsvm(tr, data)
        argv = ["svm", "grid", "--data", str(data), "--c-grid", "0.1,1",
                "--sigma-grid", "1", "--holdout", "0.3", "--seed", "3"]
        code, serial = run_json(capsys, argv)
        assert code == 0
        monkeypatch.setenv("RACML_THREADS", "4")
        code, threaded = run_json(capsys, argv)
        assert code == 0
        assert threaded["config"]["threads"] == 4
        assert threaded["metrics"] == serial["metrics"]

    def test_grid_names_a_thread_count_that_is_not_an_integer(
            self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "d.txt"
        write_libsvm(gen_blobs(10, 2, 6.0, seed=0), data)
        monkeypatch.setenv("RACML_THREADS", "abc")
        assert run(["svm", "grid", "--data", str(data), "--c-grid", "1",
                    "--sigma-grid", "1"]) == 2
        captured = capsys.readouterr()
        assert "racml: error: RACML_THREADS must be an integer, got 'abc'" \
            in captured.err
        assert captured.out == ""


class TestRunRecordDeterminism:
    def test_identical_argv_and_seed(self, tmp_path, capsys):
        ds, _ = gen_regression(20, 10, x_density=0.9, seed=0)
        data = tmp_path / "d.txt"
        write_libsvm(ds, data)
        argv = ["elastic-net", "fit", "--data", str(data), "--lambda", "0.2",
                "--alpha", "0.5", "--iters", "20", "--block-size", "4",
                "--seed", "13"]
        code_a, rec_a = run_json(capsys, argv)
        code_b, rec_b = run_json(capsys, argv)
        assert code_a == code_b == 0
        rec_a.pop("wall_seconds")
        rec_b.pop("wall_seconds")
        assert rec_a == rec_b

    def test_pretty_renders_table(self, tiny_qp_manifest, capsys):
        code = run(["qp", "solve", "--manifest", str(tiny_qp_manifest),
                    "--block-size", "1", "--max-iter", "200", "--pretty"])
        out = capsys.readouterr().out
        assert code == 0
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
        assert "iterations" in out
