import importlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from cli_invoke import invoke

import svdshape
import svdshape.cli
from svdshape.densities import shape_logdensities
from svdshape.errors import ParseError, SeriesTruncationError
from svdshape.geometry import preprocess, svd_shape
from svdshape.io import emit_landmarks, ingest_landmarks, read_matrix
from svdshape.models import gaussian_model, kotz_model
from svdshape.oracle import series_shape_logdensities
from svdshape.verify import sample_landmarks


@pytest.fixture(scope="module")
def specimens():
    mu = np.array([[1.2, -0.4], [0.3, 0.9]])
    model = gaussian_model(0.5 * np.eye(2), np.eye(2), mu)
    return sample_landmarks(model, 8, seed=3)


@pytest.fixture(scope="module")
def landmark_file(specimens, tmp_path_factory):
    path = tmp_path_factory.mktemp("io") / "specimens.txt"
    emit_landmarks(specimens, str(path))
    return str(path)


@pytest.fixture(scope="module")
def specimens_k3():
    """N = 4, K = 3 specimens: at K = 2 the shape density has a closed form,
    so a series that fails to converge needs K = 3."""
    mu = np.array([[1.2, -0.4, 0.5], [0.3, 0.9, -0.2], [-0.6, 0.1, 0.8]])
    model = gaussian_model(0.5 * np.eye(3), np.eye(3), mu)
    return sample_landmarks(model, 8, seed=3)


class TestIngestEmit:
    def test_roundtrip_bit_exact(self, specimens, landmark_file):
        back = ingest_landmarks(landmark_file)
        assert len(back) == len(specimens)
        for a, b in zip(specimens, back):
            assert a.id == b.id
            assert np.array_equal(a.coords, b.coords)

    def test_default_ids_without_comments(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("3 2 1\n0 0\n1 0\n0 1\n")
        (sp,) = ingest_landmarks(str(path))
        assert sp.id == "specimen-1"
        assert sp.coords.shape == (3, 2)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "blank.txt"
        path.write_text("\n3 2 1\n\n# a\n0 0\n\n1 0\n0 1\n\n")
        (sp,) = ingest_landmarks(str(path))
        assert sp.id == "a"

    @pytest.mark.parametrize("text,line", [
        ("3 2\n", 1),                                  # short header
        ("3 x 1\n0 0\n1 0\n0 1\n", 1),                 # non-integer header
        ("2 2 1\n0 0\n1 0\n", 1),                      # N too small
        ("3 2 1\n0 0\n1 0 7\n0 1\n", 3),               # wrong token count
        ("3 2 1\n0 0\n1 zebra\n0 1\n", 3),             # non-numeric
        ("3 2 1\n0 0\n# oops\n0 1\n", 3),              # comment inside block
        ("3 2 2\n0 0\n1 0\n0 1\n", 4),                 # missing second specimen
        ("3 2 1\n0 0\n1 0\n0 1\nextra\n", 5),          # trailing content
    ])
    def test_parse_errors_carry_line_numbers(self, tmp_path, text, line):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            ingest_landmarks(str(path))
        assert err.value.line == line

    def test_emit_rejects_mixed_dimensions(self, specimens, tmp_path):
        from svdshape.geometry import LandmarkSet
        odd = LandmarkSet(id="odd", coords=np.zeros((4, 2)))
        with pytest.raises(ParseError):
            emit_landmarks(list(specimens) + [odd], str(tmp_path / "x.txt"))


class TestReadMatrix:
    def test_reads_with_comments(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# theta\n1.0 0.25\n0.25 2.0\n")
        assert np.array_equal(read_matrix(str(path)),
                              [[1.0, 0.25], [0.25, 2.0]])

    def test_ragged_raises(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 2\n3\n")
        with pytest.raises(ParseError) as err:
            read_matrix(str(path))
        assert err.value.line == 2

    def test_empty_raises(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ParseError):
            read_matrix(str(path))


def run_cli(*args):
    return invoke(args)


class TestCli:
    def test_shape_json(self, landmark_file):
        res = run_cli("shape", landmark_file)
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["schema_version"] == 2
        assert payload["command"] == "shape"
        assert len(payload["specimens"]) == 8
        rec = payload["specimens"][0]
        assert rec["r"] > 0 and len(rec["u"]) == 3

    def test_shape_emits_log_jacobian_where_jacobian_underflows(self, tmp_path):
        # N=160 near-collinear specimens: J underflows to 0.0, log J is finite
        from svdshape.geometry import LandmarkSet
        rng = np.random.default_rng(0)
        x = np.linspace(0.0, 1.0, 160)
        specimens = [LandmarkSet(f"s{i}", np.column_stack(
            [x, 0.002 * rng.standard_normal(160)])
            + 0.001 * rng.standard_normal((160, 2))) for i in range(3)]
        path = tmp_path / "collinear.txt"
        emit_landmarks(specimens, str(path))
        res = run_cli("shape", str(path))
        assert res.exit_code == 0
        records = json.loads(res.stdout)["specimens"]
        for rec in records:
            assert rec["jacobian"] == 0.0
            assert math.isfinite(rec["log_jacobian"])
            assert rec["log_jacobian"] == pytest.approx(-880.0, abs=10.0)
        assert "log J=-8" in res.stderr

    def test_shape_json_is_strict_at_a_chart_pole(self, tmp_path):
        # all y equal: the second column of W is 0, so log J = -inf there;
        # the JSON must still parse without the non-standard -Infinity token
        path = tmp_path / "flat.txt"
        path.write_text("4 2 2\n# flat\n0 1\n1 1\n3 1\n2 1\n"
                        "# fine\n0 0\n1 0.3\n0 1\n2 2\n")
        res = run_cli("shape", str(path))
        assert res.exit_code == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")
        flat, fine = json.loads(res.stdout, parse_constant=reject)["specimens"]
        assert flat["jacobian"] == 0.0 and flat["log_jacobian"] is None
        assert math.isfinite(fine["log_jacobian"])
        assert "log J=-inf" in res.stderr

    def test_sample_is_read_and_whitened_once(self, specimens, landmark_file,
                                              tmp_path, monkeypatch):
        import svdshape.geometry
        import svdshape.io
        from svdshape.geometry import preprocess, svd_shape
        theta_path = tmp_path / "theta.txt"
        theta_path.write_text("1.0 0.2\n0.2 1.5\n")
        # the commands import these from their modules when they run
        homes = {"preprocess": svdshape.geometry, "read_matrix": svdshape.io}
        calls = {name: 0 for name in homes}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        for name, home in homes.items():
            monkeypatch.setattr(home, name, counted(name, getattr(home, name)))
        res = run_cli("density", landmark_file, "--theta", str(theta_path))
        assert res.exit_code == 0
        assert calls == {"preprocess": 1, "read_matrix": 1}
        res = run_cli("shape", landmark_file, "--theta", str(theta_path))
        theta = read_matrix(str(theta_path))
        for sp, rec in zip(specimens, json.loads(res.stdout)["specimens"]):
            alone = svd_shape(preprocess(sp, theta))
            assert np.allclose(rec["u"], alone.u, rtol=0, atol=1e-13)

    def test_degenerate_specimen_is_named(self, tmp_path):
        path = tmp_path / "flat.txt"
        path.write_text("3 2 2\n# fine\n0 0\n1 0\n0 1\n# dot\n2 2\n2 2\n2 2\n")
        res = run_cli("shape", str(path))
        assert res.exit_code == 3
        assert "specimen 'dot'" in res.stderr

    def test_density_runs_and_is_finite(self, landmark_file):
        res = run_cli("density", landmark_file, "--sigma2", "0.5",
                      "--model", "kotz", "--kotz-T", "2")
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert all(math.isfinite(r["log_density"]) for r in payload["specimens"])

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 2 1\n0 0\nnope nope\n0 1\n")
        res = run_cli("shape", str(bad))
        assert res.exit_code == 2
        assert "parse error" in res.stderr

    @pytest.mark.parametrize("case", ["input-dir", "theta-dir", "config-dir",
                                      "utf16-input", "out-dir-missing"])
    def test_unreadable_file_is_a_parse_error(self, case, landmark_file, tmp_path):
        # a path that exists but cannot be read, or an --out that cannot be
        # written, exits 2 naming the file, not 1 with a traceback
        utf16 = tmp_path / "utf16.txt"
        utf16.write_bytes(b"\xff\xfe3 2 1\n0 0\n1 0\n0 1\n")
        out = tmp_path / "missing" / "o.json"
        path, args = {
            "input-dir": (tmp_path, ("shape", str(tmp_path))),
            "theta-dir": (tmp_path, ("shape", landmark_file, "--theta", str(tmp_path))),
            "config-dir": (tmp_path, ("shape", landmark_file, "--config", str(tmp_path))),
            "utf16-input": (utf16, ("shape", str(utf16))),
            "out-dir-missing": (out, ("shape", landmark_file, "--out", str(out))),
        }[case]
        res = run_cli(*args)
        assert res.exit_code == 2, res.exception
        assert res.stderr.startswith("parse error:") and repr(str(path)) in res.stderr
        assert res.stdout == ""

    def test_non_finite_coordinate_is_a_parse_error(self, tmp_path):
        bad = tmp_path / "nan.txt"
        bad.write_text("3 2 1\n0 0\n1 nan\n0 1\n")
        with pytest.raises(ParseError) as err:
            ingest_landmarks(str(bad))
        assert err.value.line == 3
        res = run_cli("shape", str(bad))
        assert res.exit_code == 2
        assert "parse error" in res.stderr

    def test_non_finite_matrix_entry_is_a_parse_error(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 0\n0 inf\n")
        with pytest.raises(ParseError) as err:
            read_matrix(str(path))
        assert err.value.line == 2

    def test_domain_error_exit_code(self, landmark_file, tmp_path):
        # the file parses; a non-positive-definite Theta is outside the domain
        theta = tmp_path / "theta.txt"
        theta.write_text("1 2\n2 1\n")
        res = run_cli("shape", landmark_file, "--theta", str(theta))
        assert res.exit_code == 3
        assert "domain error" in res.stderr

    def test_theta_size_must_match_K(self, landmark_file, tmp_path):
        theta = tmp_path / "theta3.txt"
        theta.write_text("1 0 0\n0 1 0\n0 0 1\n")
        res = run_cli("shape", landmark_file, "--theta", str(theta))
        assert res.exit_code == 3
        assert "domain error:" in res.stderr
        assert "3x3" in res.stderr and "K=2" in res.stderr

    def test_numeric_failure_exit_code(self, specimens_k3, tmp_path):
        # a tiny degree budget cannot sum the K = 3 series for a huge location
        path = tmp_path / "k3.txt"
        emit_landmarks(specimens_k3, str(path))
        mu_path = tmp_path / "mu.txt"
        mu_path.write_text("40 40 40\n40 40 40\n40 40 40\n")
        res = run_cli("density", str(path), "--mu", str(mu_path),
                      "--max-degree", "2")
        assert res.exit_code == 3
        assert "numeric failure" in res.stderr

    def test_out_file(self, landmark_file, tmp_path):
        out = tmp_path / "res.json"
        res = run_cli("shape", landmark_file, "--out", str(out))
        assert res.exit_code == 0
        assert res.stdout == ""
        payload = json.loads(out.read_text())
        assert payload["command"] == "shape"

    def test_config_file_and_flag_precedence(self, landmark_file, tmp_path):
        # sigma2 only enters the shape density through the noncentral part,
        # so give the model a nonzero location
        mu_path = tmp_path / "mu.txt"
        mu_path.write_text("1.2 -0.4\n0.3 0.9\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"sigma2 = 0.5\nmodel = gaussian\nmu = {mu_path}\n")
        from_cfg = json.loads(run_cli("density", landmark_file,
                                      "--config", str(cfg)).stdout)
        direct = json.loads(run_cli("density", landmark_file,
                                    "--sigma2", "0.5",
                                    "--mu", str(mu_path)).stdout)
        assert (from_cfg["specimens"][0]["log_density"]
                == direct["specimens"][0]["log_density"])
        # a flag overrides the same key from the config file
        overridden = json.loads(run_cli("density", landmark_file,
                                        "--config", str(cfg),
                                        "--sigma2", "2.0").stdout)
        assert (overridden["specimens"][0]["log_density"]
                != from_cfg["specimens"][0]["log_density"])

    def test_bad_config_key(self, landmark_file, tmp_path):
        # no kotz_R key: a Kotz rate R is the rate 1/2 at sigma2 / (2R)
        cfg = tmp_path / "run.cfg"
        for key in ("frobnicate", "kotz_R"):
            cfg.write_text(f"{key} = 3\n")
            res = run_cli("density", landmark_file, "--config", str(cfg))
            assert res.exit_code == 2
            assert f"parse error: unknown config key {key!r}" in res.stderr

    @pytest.mark.parametrize("text", ["seed = x\n", "mode = sideways\n", "model = bogus\n",
                                      "sigma2 = nan\n", "kotz_R = inf\n", "tol = nan\n",
                                      "max_degree = 0\n", "tol = -1\n", "tol = 0\n"])
    def test_bad_config_value(self, landmark_file, tmp_path, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        for args in (("density", landmark_file), ("fit", landmark_file)):
            res = run_cli(*args, "--config", str(cfg))
            assert res.exit_code == 2, args
            assert "parse error" in res.stderr and res.stdout == ""

    def test_mode_flag_and_key_select_the_geometry_mode(self, landmark_file, tmp_path):
        from svdshape.cli import MODES
        from svdshape.geometry import Mode
        assert set(MODES) == {mode.value for mode in Mode}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = no-reflection\n")
        for args in (("--mode", "no-reflection"), ("--config", str(cfg))):
            res = run_cli("shape", landmark_file, *args)
            assert res.exit_code == 0, res.stderr
            specimens = json.loads(res.stdout)["specimens"]
            assert {sp["mode"] for sp in specimens} == {"no-reflection"}

    def test_negative_seed_flag_is_a_parse_error(self, landmark_file):
        # and a --max-degree below 1 or a --tol that is not positive, which
        # a central density, summing no series, would never reach
        for option, value, name in (("--seed", "-1", "seed"), ("--max-degree", "0", "max_degree"),
                                    ("--max-degree", "-5", "max_degree"),
                                    ("--tol", "-1", "rel_tol"), ("--tol", "0", "rel_tol")):
            for args in (("density", landmark_file), ("fit", landmark_file),
                         ("compare", landmark_file), ("test", landmark_file, landmark_file),
                         ("verify",)):
                res = run_cli(*args, option, value)
                assert res.exit_code == 2, (args, option, value)
                assert "parse error" in res.stderr and name in res.stderr

    def test_negative_seed_config_key_is_a_parse_error(self, landmark_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -3\n")
        res = run_cli("fit", landmark_file, "--config", str(cfg))
        assert res.exit_code == 2
        assert "parse error" in res.stderr and "seed" in res.stderr

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("option", ["--sigma2", "--tol"])
    def test_non_finite_float_flag_is_a_parse_error(self, landmark_file, tmp_path,
                                                    option, value):
        mu_path = tmp_path / "mu.txt"
        mu_path.write_text("0.8 -0.3\n0.4 0.6\n")
        density = ("density", landmark_file, "--model", "kotz", "--mu", str(mu_path))
        name = {"--sigma2": "sigma2", "--tol": "rel_tol"}[option]
        for args in (density, ("fit", landmark_file), ("compare", landmark_file),
                     ("test", landmark_file, landmark_file), ("verify",)):
            res = run_cli(*args, f"{option}={value}")
            assert res.exit_code == 2, args
            assert res.stdout == ""
            assert f"parse error: {name} must be finite" in res.stderr

    def test_fit_deterministic(self, landmark_file):
        args = ("fit", landmark_file, "--sigma2", "0.5", "--max-degree", "40")
        a = json.loads(run_cli(*args).stdout)
        b = json.loads(run_cli(*args).stdout)
        assert a["loglik"] == b["loglik"]
        assert a["mu_hat"] == b["mu_hat"]
        assert a["n_params"] == 4 and a["converged"]

    def test_fit_at_kotz_T_1_is_the_gaussian_fit(self, landmark_file):
        # Kotz T = 1 at rate 1/2 is the Gaussian generator, bit for bit
        gaussian, kotz = (json.loads(run_cli("fit", landmark_file, "--sigma2", "0.5",
                                             *model).stdout)
                          for model in (("--model", "gaussian"),
                                        ("--model", "kotz", "--kotz-T", "1")))
        for key in ("loglik", "mu_hat", "evaluations"):
            assert kotz[key] == gaussian[key], key
        assert (gaussian["kind"], kotz["kind"]) == ("gaussian", "kotz-t1")

    def test_fit_and_test_take_any_kotz_T(self, landmark_file):
        # T = 4 is none of compare's three generators; the loglik that fit
        # reports re-evaluates through the library's likelihood
        from svdshape.cli import _build_config, _load_sample
        from svdshape.inference import ShapeLikelihood
        from svdshape.models import GeneratorKind, GeneratorSpec
        model = ("--model", "kotz", "--kotz-T", "4", "--sigma2", "0.5")
        res = run_cli("fit", landmark_file, *model)
        assert res.exit_code == 0, res.stderr
        fit = json.loads(res.stdout)
        assert fit["kind"] == "kotz-t4"
        sample = _load_sample(landmark_file, _build_config(None), "input", None)
        like = ShapeLikelihood(sample, GeneratorSpec(GeneratorKind.KOTZ_TYPE_I, M=4, T=4), 0.5)
        again = like.loglik(np.array(fit["mu_hat"]))
        assert abs(again - fit["loglik"]) <= 1e-12 * abs(fit["loglik"])
        res = run_cli("test", landmark_file, landmark_file, *model)
        assert res.exit_code == 0, res.stderr
        assert json.loads(res.stdout)["kind"] == "kotz-t4"

    def test_test_identical_groups(self, landmark_file):
        res = run_cli("test", landmark_file, landmark_file,
                      "--sigma2", "0.5", "--max-degree", "40")
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["statistic"] == pytest.approx(0.0, abs=1e-4)
        assert payload["p_value"] == pytest.approx(1.0, abs=1e-4)
        assert payload["df"] == 4

    @pytest.mark.parametrize("count", ["10", "-3"])
    def test_verify_sim_count_below_the_minimum_is_a_domain_error(self, count, monkeypatch):
        # the count is checked before the Monte Carlo mass is computed
        def refuse(*args, **kwargs):
            raise AssertionError("the Monte Carlo mass ran before the count check")
        monkeypatch.setattr("svdshape.verify.mc_normalization", refuse)
        res = run_cli("verify", "--mc-samples", "200", "--sim-count", count)
        assert res.exit_code == 3
        assert "sim_count must be >= 1000" in res.stderr

    @pytest.mark.parametrize("command", ["density", "fit", "verify"])
    def test_series_commands_reject_K_4_at_once(self, command, tmp_path):
        # the zonal kernels serve K = 1, 2 and 3; shape, and a zero mu, which
        # sums no series, still accept K = 4
        rng = np.random.default_rng(21)
        mu = 0.3 * rng.normal(size=(5, 4))
        path = tmp_path / "k4.txt"
        emit_landmarks(sample_landmarks(gaussian_model(0.5 * np.eye(5), np.eye(4), mu),
                                        6, seed=4), str(path))
        mu_path = tmp_path / "mu.txt"
        np.savetxt(mu_path, mu)
        args = {"density": ("density", str(path), "--mu", str(mu_path)),
                "fit": ("fit", str(path), "--sigma2", "50"),
                "verify": ("verify", "--landmarks", "6", "--dimension", "4", "--mu",
                           str(mu_path), "--mc-samples", "200", "--sim-count", "1000")}[command]
        res = run_cli(*args)
        assert res.exit_code == 3
        assert "domain error: zonal series support K in {1, 2, 3}" in res.stderr
        assert run_cli("shape", str(path)).exit_code == 0

    def test_density_names_the_unconverged_specimen(self, specimens_k3, tmp_path):
        from svdshape.cli import _build_config, _build_model, _load_sample
        from svdshape.densities import shape_logdensity
        specimens = specimens_k3
        path = tmp_path / "specimens.txt"
        emit_landmarks(specimens[1:], str(path))
        mu_path = tmp_path / "mu.txt"
        mu_path.write_text("1.2 -0.4 0.5\n0.3 0.9 -0.2\n-0.6 0.1 0.8\n")
        flags = {"mu_path": str(mu_path), "sigma2": 0.05, "max_degree": 88}
        config = _build_config(None, **flags)
        model = _build_model(config, 3, 3, None)
        failing = []
        for sid, sc in _load_sample(str(path), config, "input", None).items:
            try:
                shape_logdensity(sc.u, model, ctrl=config.ctrl)
            except SeriesTruncationError:
                failing.append(sid)
        assert failing and failing[0] != specimens[1].id
        res = run_cli("density", str(path), "--mu", str(mu_path),
                      "--sigma2", "0.05", "--max-degree", "88")
        assert res.exit_code == 3
        assert f"specimen {failing[0]!r}: zonal series did not converge" in res.stderr

    def test_density_names_the_specimen_that_lost_digits(self, tmp_path):
        # six N = 3 specimens around a location of Frobenius norm 12: the
        # K = 2 Kotz T = 12 closed form cancels more than 6 digits on every
        # row, and the error names the specimen of the row that lost most
        rng = np.random.default_rng(4)
        mu = rng.normal(size=(2, 2))
        mu *= 12.0 / np.linalg.norm(mu)
        specimens = sample_landmarks(gaussian_model(np.eye(2), np.eye(2), mu), 6, seed=4)
        path = tmp_path / "far.txt"
        emit_landmarks(specimens, str(path))
        mu_path = tmp_path / "mu.txt"
        mu_path.write_text("".join(f"{a:.17g} {b:.17g}\n" for a, b in mu))
        res = run_cli("density", str(path), "--mu", str(mu_path), "--sigma2", "1",
                      "--model", "kotz", "--kotz-T", "12")
        assert res.exit_code == 3
        row = int(re.search(r"at row (\d+) lost", res.stderr).group(1))
        assert row > 0
        assert f"specimen {specimens[row].id!r}: the sum at row {row} lost" in res.stderr

    def test_density_names_the_specimen_whose_sum_came_out_non_positive(self, tmp_path):
        # six N = 3 specimens around a location of Frobenius norm 24: the
        # K = 2 Kotz T = 20 closed form cancels every digit, and some sums
        # come out non-positive
        from svdshape.cli import _build_config, _build_model, _load_sample
        from svdshape.errors import NumericError
        from svdshape.geometry import LandmarkSet, helmert_submatrix
        rng = np.random.default_rng(0)
        mu = rng.normal(size=(2, 2))
        mu *= 24.0 / np.linalg.norm(mu)
        lift = helmert_submatrix(3).T
        specimens = [LandmarkSet(f"far{i}", lift @ (mu + rng.normal(size=(2, 2))))
                     for i in range(6)]
        path = tmp_path / "far.txt"
        emit_landmarks(specimens, str(path))
        mu_path = tmp_path / "mu.txt"
        mu_path.write_text("".join(f"{a:.17g} {b:.17g}\n" for a, b in mu))
        flags = {"mu_path": str(mu_path), "sigma2": 1.0, "model": "kotz", "kotz_T": 20}
        config = _build_config(None, **flags)
        sample = _load_sample(str(path), config, "input", None)
        with pytest.raises(NumericError, match="non-positive") as err:
            shape_logdensities(np.stack([sc.u for _, sc in sample.items]),
                               _build_model(config, 2, 2, None))
        res = run_cli("density", str(path), "--mu", str(mu_path), "--sigma2", "1",
                      "--model", "kotz", "--kotz-T", "20")
        assert res.exit_code == 3
        row = err.value.row
        assert (f"numeric failure: specimen {specimens[row].id!r}: the sum at row {row} came "
                "out non-positive") in res.stderr

    def test_density_names_the_specimen_past_the_k3_kernel_cap(self, tmp_path):
        # --max-degree 400 is above the K = 3 kernel's cap of 300: a series
        # that has not stopped there is a truncation of its specimen
        rng = np.random.default_rng(0)
        model = kotz_model(0.2 * np.eye(4), np.eye(3), 8.0 * rng.normal(size=(4, 3)), T=2)
        path, mu_path = tmp_path / "far.txt", tmp_path / "mu.txt"
        specimens = sample_landmarks(model, 2, seed=1)
        emit_landmarks(specimens, str(path))
        np.savetxt(mu_path, model.mu, fmt="%.17g")
        res = run_cli("density", str(path), "--mu", str(mu_path), "--sigma2", "0.2",
                      "--model", "kotz", "--kotz-T", "2", "--max-degree", "400")
        assert res.exit_code == 3
        named = re.search(r"numeric failure: specimen '([^']+)': zonal series did not "
                          r"converge within degree 300", res.stderr)
        assert named and named.group(1) in {sp.id for sp in specimens}

    @pytest.mark.parametrize("command", ["fit", "compare", "test"])
    def test_inference_commands_name_the_unconverged_specimen(self, command, specimens_k3,
                                                              tmp_path):
        # at K = 3 the likelihood's series stops per specimen and raises past
        # --max-degree, at the start point here
        path = tmp_path / "k3.txt"
        emit_landmarks(specimens_k3[1:], str(path))
        files = (str(path),) * (2 if command == "test" else 1)
        res = run_cli(command, *files, "--max-degree", "10")
        assert res.exit_code == 3
        named = re.search(r"numeric failure: specimen '([^']+)': zonal series did not "
                          r"converge within degree 10", res.stderr)
        assert named and named.group(1) in {sp.id for sp in specimens_k3[1:]}

    @pytest.mark.parametrize("ratio", [6.8, 13.6, 27.0])
    def test_planar_fits_converge_far_from_the_origin(self, ratio, tmp_path):
        # N = 6, K = 2, 23 specimens, sigma2 = 50 at |mu| / sigma = ratio: the
        # K = 2 likelihood is a closed form, with nothing to truncate
        rng = np.random.default_rng(int(ratio * 10))
        mu = rng.normal(size=(5, 2))
        mu *= ratio * math.sqrt(50.0) / np.linalg.norm(mu)
        path = tmp_path / "far.txt"
        emit_landmarks(sample_landmarks(gaussian_model(50.0 * np.eye(5), np.eye(2), mu),
                                        23, seed=5), str(path))
        for model in (("--model", "gaussian"), ("--model", "kotz", "--kotz-T", "2"),
                      ("--model", "kotz", "--kotz-T", "3")):
            res = run_cli("fit", str(path), "--sigma2", "50", *model)
            assert res.exit_code == 0, res.stderr
            assert json.loads(res.stdout)["converged"]

    def test_verify_central_model(self):
        res = run_cli("verify", "--mc-samples", "4000", "--sim-count", "2000")
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["normalization"]["passed"]
        assert payload["simulation"]["passed"]

    def test_central_density_at_K_4(self, tmp_path):
        # a zero --mu takes the closed central density, which serves any K
        rng = np.random.default_rng(21)
        specimens = sample_landmarks(
            gaussian_model(0.5 * np.eye(5), np.eye(4), 0.3 * rng.normal(size=(5, 4))),
            6, seed=4)
        path = tmp_path / "k4.txt"
        emit_landmarks(specimens, str(path))
        res = run_cli("density", str(path), "--sigma2", "0.5")
        assert res.exit_code == 0
        records = json.loads(res.stdout)["specimens"]
        model = gaussian_model(0.5 * np.eye(5), np.eye(4), np.zeros((5, 4)))
        want, _, _ = shape_logdensities(
            np.array([svd_shape(preprocess(lm)).u for lm in specimens]), model)
        assert [rec["log_density"] for rec in records] == want.tolist()
        assert all(rec["series_degrees_used"] == 0 and rec["tail_bound"] == 0.0
                   for rec in records)

    def test_verify_central_model_at_K_4(self):
        # the closed central density serves verify at K = 4; its box Monte
        # Carlo mass is unreliable at 19 angles, so only the exit code and the
        # simulation check, which has exact expected counts here, are tested
        res = run_cli("verify", "--dimension", "4", "--landmarks", "6",
                      "--mc-samples", "2000", "--sim-count", "1000")
        assert res.exit_code in (0, 1), res.stderr
        payload = json.loads(res.stdout)
        assert len(payload["simulation"]["marginals"]) == 5 * 4 - 1
        assert payload["simulation"]["passed"]

    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("model_args", [("--model", "gaussian"),
                                            ("--model", "kotz", "--kotz-T", "3")])
    def test_central_density_agrees_with_the_series(self, K, model_args, tmp_path):
        rng = np.random.default_rng(K)
        specimens = sample_landmarks(
            gaussian_model(np.eye(3), np.eye(K), rng.normal(size=(3, K))), 5, seed=K)
        path = tmp_path / "central.txt"
        emit_landmarks(specimens, str(path))
        mu_path = tmp_path / "zero-mu.txt"
        np.savetxt(mu_path, np.zeros((3, K)))
        model = (gaussian_model(0.7 * np.eye(3), np.eye(K), np.zeros((3, K)))
                 if model_args[1] == "gaussian"
                 else kotz_model(0.7 * np.eye(3), np.eye(K), np.zeros((3, K)), T=3))
        series = series_shape_logdensities(
            np.array([svd_shape(preprocess(lm)).u for lm in specimens]), model)
        for extra in ((), ("--mu", str(mu_path))):
            res = run_cli("density", str(path), "--sigma2", "0.7", *model_args, *extra)
            assert res.exit_code == 0
            for rec, want in zip(json.loads(res.stdout)["specimens"], series):
                assert rec["log_density"] == pytest.approx(want, rel=1e-12, abs=0.0)
                assert rec["series_degrees_used"] == 0


_COMMANDS = ("shape", "density", "fit", "compare", "test", "verify")
_COMMON_OPTIONS = ("--model", "--kotz-T", "--sigma2", "--theta", "--mu",
                   "--mode", "--max-degree", "--tol", "--seed", "--out", "--config")


class TestUsage:
    def test_help_names_every_command(self):
        res = run_cli("--help")
        assert res.exit_code == 0
        assert all(re.search(rf"^ +{name} ", res.stdout, re.M) for name in _COMMANDS)

    def test_command_help_lists_the_common_options(self):
        res = run_cli("fit", "--help")
        assert res.exit_code == 0
        text = " ".join(res.stdout.split())
        assert all(option in text for option in _COMMON_OPTIONS)
        for help_text in ("K x K column covariance matrix file (default identity)",
                          "(N-1) x K location matrix file (default zero)",
                          "flat key=value config file; flags win"):
            assert help_text in text

    def test_config_keys_are_the_common_flags(self):
        # a common flag added or removed without its config key, or a key
        # without its flag, fails here; --config names the file itself
        import argparse

        from svdshape.cli import _CONFIG_CASTS, _parser
        commands = next(action for action in _parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        flags = {option[2:].replace("-", "_")
                 for action in commands.choices["shape"]._actions
                 for option in action.option_strings if option.startswith("--")}
        assert flags - {"help", "config"} == set(_CONFIG_CASTS)
        assert len(_CONFIG_CASTS) == len(_COMMON_OPTIONS) - 1

    @pytest.mark.parametrize("case", [
        "no-arguments", "unknown-command", "missing-input", "missing-input-path",
        "missing-theta-path", "missing-mu-path", "missing-config-path", "bad-model",
        "bad-mode", "bad-kotz-T", "bad-sigma2", "unknown-option", "abbreviated-option",
        "removed-kotz-R"])
    def test_usage_error_exits_2_before_numpy(self, case, landmark_file, tmp_path):
        missing = str(tmp_path / "missing.txt")
        args = {
            "no-arguments": (),
            "unknown-command": ("frobnicate", landmark_file),
            "missing-input": ("fit",),
            "missing-input-path": ("fit", missing),
            "missing-theta-path": ("fit", landmark_file, "--theta", missing),
            "missing-mu-path": ("density", landmark_file, "--mu", missing),
            "missing-config-path": ("density", landmark_file, "--config", missing),
            "bad-model": ("fit", landmark_file, "--model", "bogus"),
            "bad-mode": ("shape", landmark_file, "--mode", "bogus"),
            "bad-kotz-T": ("fit", landmark_file, "--kotz-T", "x"),
            "bad-sigma2": ("fit", landmark_file, "--sigma2", "x"),
            "unknown-option": ("shape", landmark_file, "--frobnicate", "1"),
            "abbreviated-option": ("fit", landmark_file, "--sig", "50"),
            "removed-kotz-R": ("fit", landmark_file, "--kotz-R", "1"),
        }[case]
        res = _python(_USAGE, json.dumps(args))
        assert res.returncode == 0, res.stderr
        code, stdout, stderr, numpy_loaded = json.loads(res.stdout)
        assert code == 2 and stdout == "" and "usage:" in stderr.lower()
        assert not numpy_loaded


_SRC = os.path.dirname(os.path.dirname(svdshape.__file__))
_TESTS = os.path.dirname(os.path.abspath(__file__))


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout and
    ``cli_invoke``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, _TESTS, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)


_INVOKE = """
from cli_invoke import invoke
out = {}
for name, args in json.loads(sys.argv[1]).items():
    res = invoke(args)
    out[name] = [res.exit_code, repr(res.exception)]
print(json.dumps(out))
"""

_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None          # any scipy import now raises ImportError
""" + _INVOKE

_WITHOUT_NUMPY = """
import json, sys

class _BlockNumpy:                   # any numpy import now raises ImportError
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, _BlockNumpy())
""" + _INVOKE


_LOADED_MODULES = """
import json, sys
from cli_invoke import invoke
out = {}
for name, args in json.loads(sys.argv[1]).items():
    res = invoke(args)
    out[name] = [res.exit_code, sorted(m for m in sys.modules
                                       if m.startswith(tuple(json.loads(sys.argv[2]))))]
print(json.dumps(out))
"""

_USAGE = """
import json, sys
from cli_invoke import invoke
res = invoke(json.loads(sys.argv[1]))
print(json.dumps([res.exit_code, res.stdout, res.stderr,
                  any(m.partition(".")[0] == "numpy" for m in sys.modules)]))
"""


class TestNoScipyAtRunTime:
    def test_cli_import_loads_no_scipy(self):
        res = _python("import sys, svdshape.cli\n"
                      "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"

    def test_cli_import_loads_no_numpy(self, landmark_file):
        res = _python("import sys, svdshape.cli\n"
                      "print(sorted(m for m in sys.modules\n"
                      "             if m.split('.')[0] in ('numpy', 'svdshape')))")
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == str(["svdshape", "svdshape.cli", "svdshape.errors"])
        # beyond what the interpreter loaded at start-up (site's own imports
        # included), the import adds the stdlib and these three modules only
        res = _python("import sys\n"
                      "started = set(sys.modules)\n"
                      "import svdshape.cli\n"
                      "print(' '.join(sorted(set(sys.modules) - started)))")
        assert res.returncode == 0, res.stderr
        added = res.stdout.split()
        assert "svdshape.cli" in added
        assert [m for m in added if m.partition(".")[0] not in sys.stdlib_module_names
                and m not in ("svdshape", "svdshape.cli", "svdshape.errors")] == []
        # help and usage errors need no numpy; a command that runs does
        commands = {"help": ["--help"], "fit-help": ["fit", "--help"],
                    "usage-error": ["fit"], "shape": ["shape", landmark_file]}
        res = _python(_WITHOUT_NUMPY, json.dumps(commands))
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        assert {name: out[name] for name in ("help", "fit-help", "usage-error")} == {
            "help": [0, "None"], "fit-help": [0, "None"], "usage-error": [2, "SystemExit(2)"]}
        assert out["shape"][0] == 1 and "numpy is blocked" in out["shape"][1]

    def test_commands_run_without_scipy(self, landmark_file, tmp_path):
        mu_path = tmp_path / "mu.txt"
        mu_path.write_text("0.8 -0.3\n0.4 0.6\n")
        small = ("--sigma2", "1")
        verify = ("verify", "--mc-samples", "2000", "--sim-count", "1000")
        commands = {
            "density": ("density", landmark_file, "--mu", str(mu_path), "--sigma2", "0.5"),
            "density-central": ("density", landmark_file),
            "verify-noncentral": verify + ("--mu", str(mu_path), "--sigma2", "0.9"),
            "verify-central": verify,
            "fit": ("fit", landmark_file) + small,
            "compare": ("compare", landmark_file) + small,
            "test": ("test", landmark_file, landmark_file) + small,
        }
        res = _python(_WITHOUT_SCIPY, json.dumps(commands))
        assert res.returncode == 0, res.stderr
        codes = json.loads(res.stdout)
        assert codes == {name: [0, "None"] for name in commands}

    def test_commands_load_neither_numpy_polynomial_nor_mpmath(self, landmark_file,
                                                               specimens_k3, tmp_path):
        # every coefficient is one numpy polynomial in Newton form, with no
        # multiprecision fallback; mpmath is a test-only dependency
        mu_path = tmp_path / "mu.txt"
        mu_path.write_text("0.8 -0.3\n0.4 0.6\n")
        k3_path = tmp_path / "k3.txt"
        emit_landmarks(specimens_k3, str(k3_path))
        mu3_path = tmp_path / "mu3.txt"
        mu3_path.write_text("1.2 -0.4 0.5\n0.3 0.9 -0.2\n-0.6 0.1 0.8\n")
        kotz = ("--model", "kotz", "--kotz-T", "3")
        small = ("--sigma2", "1")
        commands = {
            "shape": ("shape", landmark_file),
            "density-kotz": ("density", landmark_file, "--mu", str(mu_path),
                             "--sigma2", "0.5") + kotz,
            "density-k3-kotz": ("density", str(k3_path), "--mu", str(mu3_path),
                                "--sigma2", "0.5") + kotz,
            "fit": ("fit", landmark_file) + small + kotz,
            "compare": ("compare", landmark_file) + small,
            "test": ("test", landmark_file, landmark_file) + small + kotz,
            "verify": ("verify", "--mc-samples", "2000", "--sim-count", "1000",
                       "--mu", str(mu_path), "--sigma2", "0.9"),
        }
        res = _python(_LOADED_MODULES, json.dumps(commands),
                      json.dumps(["numpy.polynomial", "mpmath"]))
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout) == {name: [0, []] for name in commands}

    @pytest.mark.parametrize("command,unused", [
        ("density-k3", ["svdshape.inference", "svdshape.verify"]),
        ("verify", ["svdshape.inference"]),
        ("fit", ["svdshape.verify"]),
        ("compare", ["svdshape.verify"]),
        ("test", ["svdshape.verify"]),
    ])
    def test_each_command_loads_only_its_modules(self, command, unused, specimens_k3,
                                                 landmark_file, tmp_path):
        # no command loads the tests' oracles, the isotropic density included
        k3_path = tmp_path / "k3.txt"
        emit_landmarks(specimens_k3, str(k3_path))
        mu3_path = tmp_path / "mu3.txt"
        mu3_path.write_text("1.2 -0.4 0.5\n0.3 0.9 -0.2\n-0.6 0.1 0.8\n")
        kotz = ("--model", "kotz", "--kotz-T", "3", "--sigma2", "1")
        args = {"density-k3": ("density", str(k3_path), "--mu", str(mu3_path),
                               "--model", "kotz", "--kotz-T", "2"),
                "verify": ("verify", "--mc-samples", "2000", "--sim-count", "1000"),
                "fit": ("fit", str(k3_path)) + kotz,
                "compare": ("compare", landmark_file, "--sigma2", "1"),
                "test": ("test", landmark_file, landmark_file) + kotz}
        res = _python(_LOADED_MODULES, json.dumps({command: args[command]}),
                      json.dumps(["svdshape."]))
        assert res.returncode == 0, res.stderr
        code, loaded = json.loads(res.stdout)[command]
        assert code == 0 and "svdshape.densities" in loaded
        assert not set(unused + ["svdshape.oracle"]) & set(loaded)

    def test_only_verify_loads_numpy_random(self, landmark_file):
        # fit start perturbations come from the stdlib's random module
        small = ("--sigma2", "1")
        commands = {"fit": ("fit", landmark_file) + small,
                    "compare": ("compare", landmark_file) + small,
                    "test": ("test", landmark_file, landmark_file) + small}
        res = _python(_LOADED_MODULES, json.dumps(commands), json.dumps(["numpy.random"]))
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout) == {name: [0, []] for name in commands}
        verify = {"verify": ("verify", "--mc-samples", "2000", "--sim-count", "1000")}
        res = _python(_LOADED_MODULES, json.dumps(verify), json.dumps(["numpy.random"]))
        assert res.returncode == 0, res.stderr
        code, loaded = json.loads(res.stdout)["verify"]
        assert code == 0 and "numpy.random" in loaded


def _cli_process(args, **kwargs) -> subprocess.Popen:
    """``python -m svdshape.cli ARGS`` on this checkout, with stdout block
    buffered, so an exit that skipped the flush would lose output."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", "svdshape.cli", *args], env=env, **kwargs)


@pytest.fixture(scope="module")
def big_landmark_file(tmp_path_factory):
    """Enough specimens that ``shape`` writes several times the 64 KiB of a
    pipe's buffer."""
    mu = np.array([[1.2, -0.4], [0.3, 0.9]])
    path = tmp_path_factory.mktemp("io") / "big.txt"
    emit_landmarks(sample_landmarks(gaussian_model(0.5 * np.eye(2), np.eye(2), mu),
                                    800, seed=3), str(path))
    return str(path)


class TestProcessExit:
    """``python -m svdshape.cli`` ends through ``cli.run``: ``os._exit`` once
    stdout and stderr are flushed, the normal exit path where that fails."""

    def test_processes_match_main_in_process(self, landmark_file, big_landmark_file,
                                             tmp_path):
        theta = tmp_path / "theta.txt"
        theta.write_text("1 2\n2 1\n")              # not positive definite
        calls = {
            "shape": ("shape", big_landmark_file),
            "density": ("density", landmark_file),
            "fit": ("fit", landmark_file, "--sigma2", "1", "--out", "{out}"),
            "help": ("--help",),
            "usage": ("fit",),
            "domain": ("shape", landmark_file, "--theta", str(theta)),
        }
        codes = {}
        for name, args in calls.items():
            out_proc, out_main = tmp_path / f"{name}-process.json", tmp_path / f"{name}.json"
            proc = _cli_process([a.format(out=out_proc) for a in args],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            stdout, stderr = proc.communicate(timeout=300)
            res = invoke([a.format(out=out_main) for a in args])
            codes[name] = proc.returncode
            if name == "shape":                     # more than a pipe's buffer holds
                assert len(stdout) > 4 * 65536
            assert proc.returncode == res.exit_code, (name, stderr)
            assert stdout == res.stdout.encode(), name
            assert stderr.decode().splitlines() == res.stderr.splitlines(), name
            assert out_proc.exists() is out_main.exists(), name
            if out_main.exists():
                assert out_proc.read_bytes() == out_main.read_bytes(), name
        assert codes == {"shape": 0, "density": 0, "fit": 0, "help": 0, "usage": 2,
                         "domain": 3}

    @pytest.mark.parametrize("size,code", [("small", 0), ("big", 1)])
    def test_a_reader_that_closes_after_one_byte(self, landmark_file, big_landmark_file,
                                                 size, code):
        # the statuses of the normal exit path: a small output is written
        # whole at the exit flush, before the reader closes; a big one
        # breaks the pipe inside the command, whose traceback exits 1
        path = landmark_file if size == "small" else big_landmark_file
        proc = _cli_process(["shape", path], stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        assert proc.wait(timeout=300) == code

    @pytest.mark.parametrize("args,code", [
        (("density", "{small}"), 120),      # the exit flush fails: finalization reports it
        (("--help",), 120),
        (("shape", "{big}"), 1),            # the command's own write fails
    ])
    def test_stdout_pipe_already_closed(self, landmark_file, big_landmark_file, args, code):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _cli_process([a.format(small=landmark_file, big=big_landmark_file)
                                 for a in args],
                                stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        _, stderr = proc.communicate(timeout=300)
        assert proc.returncode == code
        assert b"BrokenPipeError" in stderr

    def test_console_script_is_run(self):
        tomllib = pytest.importorskip("tomllib")
        with open(os.path.join(_SRC, os.pardir, "pyproject.toml"), "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        module, _, attr = scripts["svdshape"].partition(":")
        assert getattr(importlib.import_module(module), attr) is svdshape.cli.run
