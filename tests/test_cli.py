import json
import os
from pathlib import Path

import numpy as np
import pytest

from kaczlab import bounds, cli, lifted, load_system, noise_avg, save_vector, validate
from kaczlab.cli import main, run_experiment


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def base_config(eta):
    return {
        "matrix": {"kind": "gaussian", "m": 8, "n": 4, "seed": 5},
        "noise": {"kind": "fixed", "values": list(eta)},
        "distribution": "row_norm",
        "x0": {"random_seed": 3},
        "k_max": 20,
        "trials": 5,
        "seed": 99,
        "outputs": ["empirical", "exact", "bound_zf"],
    }


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


@pytest.fixture
def eta8():
    return np.random.default_rng(1).standard_normal(8) * 0.1


class TestGenerate:
    def test_gaussian(self, tmp_path):
        cfg = write_config(tmp_path, {"matrix": {"kind": "gaussian", "m": 20, "n": 5, "seed": 1}})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
        sys_ = load_system(tmp_path / "matrix.txt")
        assert sys_.a.shape == (20, 5)
        manifest = json.loads((tmp_path / "matrix.manifest.json").read_text())
        assert manifest["m"] == 20 and manifest["n"] == 5
        assert manifest["sigma_min"] > 0

    def test_tomography_n100(self, tmp_path):
        cfg = write_config(
            tmp_path, {"matrix": {"kind": "tomography", "grid": 10, "angles": 15, "rays": 10}}
        )
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "matrix.manifest.json").read_text())
        assert manifest["n"] == 100

    def test_underdetermined_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"matrix": {"kind": "gaussian", "m": 3, "n": 5, "seed": 1}})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "m must be >= n" in capsys.readouterr().err


class TestRun:
    def test_csv_shape_and_scalars(self, tmp_path, eta8):
        cfg_path = write_config(tmp_path, base_config(eta8))
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "curves.csv")
        # 1 k-column + 3 curves + stderr column for empirical
        assert header == ["k", "empirical", "empirical_stderr", "exact", "bound_zf"]
        assert len(rows) == 21  # k_max + 1 data rows
        result = json.loads((tmp_path / "result.json").read_text())
        for key in ("sigma_min", "kappa", "lambda_max_p", "lambda_max_q", "floor_exact"):
            assert key in result["scalars"]

    def test_config_echo_byte_for_byte(self, tmp_path, eta8):
        cfg_path = write_config(tmp_path, base_config(eta8))
        raw = Path(cfg_path).read_text()
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["config"] == raw

    def test_deterministic_csv_bytes(self, tmp_path, eta8):
        cfg_path = write_config(tmp_path, base_config(eta8))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg_path, "--out", str(out1)]) == 0
        assert main(["run", "--config", cfg_path, "--out", str(out2)]) == 0
        assert (out1 / "curves.csv").read_bytes() == (out2 / "curves.csv").read_bytes()

    def test_threads_flag_is_usage_error(self, tmp_path, eta8, capsys):
        cfg_path = write_config(tmp_path, base_config(eta8))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", cfg_path, "--out", str(tmp_path), "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_trivial_single_point(self, tmp_path, eta8):
        cfg = base_config(eta8)
        cfg.update(k_max=0, trials=1, outputs=["empirical", "exact"])
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "curves.csv")
        assert len(rows) == 1
        k, emp, stderr, exact = rows[0]
        assert emp == exact
        assert float(stderr) == 0.0

    def test_avg_pipeline(self, tmp_path):
        cfg = {
            "matrix": {"kind": "gaussian", "m": 10, "n": 3, "seed": 2},
            "noise": {"kind": "iid", "sigma2": 1e-3, "resample": True},
            "x0": "zero",
            "k_max": 15,
            "trials": 8,
            "seed": 4,
            "outputs": ["empirical", "exact_avg", "bound_zf_avg", "floor"],
        }
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path), "--verbose"]) == 0
        header, rows = read_csv(tmp_path / "curves.csv")
        assert header == ["k", "empirical", "empirical_stderr", "exact_avg", "bound_zf_avg"]
        result = json.loads((tmp_path / "result.json").read_text())
        assert "floor_avg" in result["scalars"]

    def test_iid_resample_false_supports_exact(self, tmp_path):
        cfg = {
            "matrix": {"kind": "gaussian", "m": 10, "n": 3, "seed": 2},
            "noise": {"kind": "iid", "sigma2": 1e-3, "resample": False},
            "k_max": 10,
            "seed": 4,
            "outputs": ["empirical", "exact"],
        }
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "curves.csv")
        # empirical (trials=1, shared noise) IS the exact curve's system; both
        # start from ||z0||^2
        assert rows[0][1] == rows[0][3]

    def test_vector_files(self, tmp_path, eta8):
        save_vector(eta8, tmp_path / "eta.txt")
        x0 = np.random.default_rng(9).standard_normal(4)
        save_vector(x0, tmp_path / "x0.txt")
        cfg = base_config(eta8)
        cfg["noise"] = {"kind": "fixed", "path": str(tmp_path / "eta.txt")}
        cfg["x0"] = {"path": str(tmp_path / "x0.txt")}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 0

    def test_matrix_from_file(self, tmp_path, fixture_dir, eta8):
        cfg = {
            "matrix": {"kind": "file", "path": os.path.join(fixture_dir, "gaussian_150x50.txt")},
            "noise": {"kind": "iid", "sigma2": 1e-4, "resample": False},
            "k_max": 5,
            "seed": 1,
            "outputs": ["exact"],
        }
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 0


def shared_iid_config(**changes):
    """A gaussian system with one shared iid draw, asking for every output."""
    cfg = {
        "matrix": {"kind": "gaussian", "m": 10, "n": 3, "seed": 2},
        "noise": {"kind": "iid", "sigma2": 1e-3, "resample": False},
        "x0": {"random_seed": 3},
        "k_max": 10,
        "trials": 3,
        "seed": 4,
        "outputs": list(cli.CURVE_KINDS),
    }
    cfg.update(changes)
    return cfg


class TestComputeOnce:
    def test_each_matrix_factored_once(self, monkeypatch):
        calls = {"build_model": 0, "solve_v2": 0, "eigvalsh": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for mod in (cli, lifted, noise_avg, bounds):
            for name in ("build_model", "solve_v2"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        curves, scalars, _ = run_experiment(shared_iid_config())
        assert set(curves) >= set(cli.CURVE_KINDS) - {"floor"}
        assert "floor_exact" in scalars and "floor_avg" in scalars
        assert calls["build_model"] == 1
        assert calls["solve_v2"] <= 1
        assert calls["eigvalsh"] == 1   # LinearSystem's rank gate

    def test_floor_reuses_curve_solves(self, monkeypatch):
        # floor asks for the fixed points exact and exact_avg solve for anyway;
        # in either order a run solves (I - Q) once for v1 and once for E v1
        real = lifted._solve_i_minus_q
        results = []
        for outputs in (["floor", "exact", "exact_avg"], ["exact", "exact_avg", "floor"]):
            calls = []

            def counted(model, rhs):
                calls.append(None)
                return real(model, rhs)

            for mod in (lifted, noise_avg):
                monkeypatch.setattr(mod, "_solve_i_minus_q", counted)
            cfg = shared_iid_config(matrix={"kind": "gaussian", "m": 24, "n": 8, "seed": 3},
                                    outputs=outputs)
            _, scalars, _ = run_experiment(cfg)
            assert len(calls) == 2, outputs
            results.append(scalars)
        assert results[0] == results[1]


class TestSingularIMinusP:
    # one weight of 1e300 leaves p = (1, ~0, ~0, ~0), so lambda_max(P) rounds to 1
    def config(self, outputs):
        return shared_iid_config(
            matrix={"kind": "gaussian", "m": 4, "n": 2, "seed": 2},
            noise={"kind": "iid", "sigma2": 1e-2, "resample": False},
            distribution={"weights": [1e300, 1, 1, 1]},
            outputs=outputs,
        )

    @pytest.mark.parametrize(
        "kind", ["exact", "exact_avg", "floor", "bound_zf_general", "bound_zf_avg"]
    )
    def test_outputs_needing_the_inverse_exit_1(self, tmp_path, capsys, kind):
        cfg_path = write_config(tmp_path, self.config([kind]))
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "(I - P) is singular" in err and "lambda_max(P) = 1.0" in err
        assert not (tmp_path / "curves.csv").exists()

    def test_empirical_alone_runs(self, tmp_path):
        cfg_path = write_config(tmp_path, self.config(["empirical"]))
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["scalars"]["lambda_max_p"] == 1.0


class TestConfigErrors:
    def test_incompatible_exact_avg_with_fixed(self, tmp_path, eta8, capsys):
        cfg = base_config(eta8)
        cfg["outputs"] = ["exact_avg"]
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert "exact_avg" in capsys.readouterr().err

    def test_incompatible_exact_with_resampled(self, tmp_path, capsys):
        cfg = {
            "matrix": {"kind": "gaussian", "m": 8, "n": 4, "seed": 5},
            "noise": {"kind": "iid", "sigma2": 1e-3, "resample": True},
            "k_max": 5,
            "seed": 1,
            "outputs": ["exact"],
        }
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert "realized noise" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, eta8, capsys):
        cfg = base_config(eta8)
        cfg["trails"] = 7  # typo must not be absorbed
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_unknown_curve_kind(self, tmp_path, eta8):
        cfg = base_config(eta8)
        cfg["outputs"] = ["exacts"]
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_wrong_noise_length(self, tmp_path, eta8):
        cfg = base_config(eta8)
        cfg["noise"] = {"kind": "fixed", "values": [0.0, 1.0]}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2

    def test_runtime_failure_exits_1(self, tmp_path, eta8):
        cfg_path = write_config(tmp_path, base_config(eta8))
        out = "/proc/definitely/not/writable"
        assert main(["run", "--config", cfg_path, "--out", out]) == 1

    def test_custom_weights_substitute_general_bound(self, tmp_path, eta8, capsys):
        cfg = base_config(eta8)
        cfg["distribution"] = {"weights": [1, 2, 3, 4, 5, 6, 7, 8]}
        cfg["outputs"] = ["exact", "bound_zf"]
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert "bound_zf_general" in err
        header, _ = read_csv(tmp_path / "curves.csv")
        assert header == ["k", "exact", "bound_zf_general"]

    @pytest.mark.parametrize("key, value", [("k_max", True), ("trials", True), ("seed", 1.7)])
    def test_non_integer_rejected(self, tmp_path, eta8, capsys, key, value):
        cfg = base_config(eta8)
        cfg[key] = value
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert f"{key}: must be an integer" in capsys.readouterr().err

    def test_string_matrix_size_rejected(self, tmp_path, eta8, capsys):
        cfg = base_config(eta8)
        cfg["matrix"]["m"] = "6"
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert "matrix.m: must be an integer" in capsys.readouterr().err

    def test_negative_sigma2_rejected(self, tmp_path, capsys):
        cfg = {
            "matrix": {"kind": "gaussian", "m": 8, "n": 4, "seed": 5},
            "noise": {"kind": "iid", "sigma2": -1},
            "k_max": 5,
            "seed": 1,
            "outputs": ["exact"],
        }
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert "noise.sigma2" in capsys.readouterr().err

    def test_string_sigma2_rejected(self, tmp_path, capsys):
        cfg = {
            "matrix": {"kind": "gaussian", "m": 8, "n": 4, "seed": 5},
            "noise": {"kind": "iid", "sigma2": "1e-3"},
            "k_max": 5,
            "seed": 1,
            "outputs": ["exact"],
        }
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert "noise.sigma2: must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("section, desc, key", [
        ("matrix", {"kind": "file", "path": 5}, "matrix.path"),
        ("noise", {"kind": "fixed", "path": 5}, "noise.path"),
        ("x0", {"path": 5}, "x0.path"),
    ])
    def test_non_string_path_rejected(self, tmp_path, eta8, capsys, section, desc, key):
        # an integer path would reach open() and read that file descriptor
        cfg = base_config(eta8)
        cfg[section] = desc
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert f"{key}: must be a string" in capsys.readouterr().err

    @pytest.mark.parametrize("section, desc, key, nan_file", [
        ("matrix", {"kind": "file"}, "matrix.path",
         "8 4\n" + "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n" * 2 + "x_true\n0\nnan\n0\n0\n"),
        ("noise", {"kind": "fixed"}, "noise.path", "8\n" + "0.1\n" * 7 + "nan\n"),
        ("x0", {}, "x0.path", "4\n0\nnan\n0\n0\n"),
    ], ids=["matrix", "noise", "x0"])
    @pytest.mark.parametrize("failure, message", [
        ("missing", "No such file"), ("unparsable", "non-numeric"), ("nan", "non-finite")])
    def test_unloadable_path_rejected(
        self, tmp_path, eta8, capsys, section, desc, key, nan_file, failure, message
    ):
        path = tmp_path / "input.txt"
        if failure != "missing":
            path.write_text(nan_file.replace("nan", "abc") if failure == "unparsable" else nan_file)
        cfg = base_config(eta8)
        cfg[section] = dict(desc, path=str(path))
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {key}: " in err and message in err

    @pytest.mark.parametrize("section, desc, key", [
        ("distribution", {"weights": [1, 2, "a", 4, 5, 6, 7, 8]}, "distribution.weights[2]"),
        ("noise", {"kind": "fixed", "values": [0.1] * 7 + ["a"]}, "noise.values[7]"),
        ("x0", {"values": [0.0, "a", 0.0, 0.0]}, "x0.values[1]"),
    ])
    def test_non_numeric_list_entry_rejected(self, tmp_path, eta8, capsys, section, desc, key):
        cfg = base_config(eta8)
        cfg[section] = desc
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert f"{key}: must be a finite number" in capsys.readouterr().err

    def test_string_resample_rejected(self, tmp_path, capsys):
        cfg = {
            "matrix": {"kind": "gaussian", "m": 8, "n": 4, "seed": 5},
            "noise": {"kind": "iid", "sigma2": 1e-3, "resample": "false"},
            "k_max": 5,
            "seed": 1,
            "outputs": ["exact"],
        }
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert "noise.resample: must be a boolean" in capsys.readouterr().err

    def test_string_x_scale_rejected(self, tmp_path, eta8, capsys):
        cfg = base_config(eta8)
        cfg["matrix"]["x_scale"] = "abc"
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert "matrix.x_scale: must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["grid", "angles", "rays"])
    @pytest.mark.parametrize("value", ["10", True])
    def test_non_integer_tomography_size_rejected(self, tmp_path, capsys, key, value):
        cfg = {
            "matrix": {"kind": "tomography", "grid": 3, "angles": 6, "rays": 3},
            "noise": {"kind": "iid", "sigma2": 1e-3},
            "k_max": 5,
            "seed": 1,
            "outputs": ["exact_avg"],
        }
        cfg["matrix"][key] = value
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert f"matrix.{key}: must be an integer" in capsys.readouterr().err

    def test_string_identity_size_rejected(self, tmp_path, capsys):
        cfg = {
            "matrix": {"kind": "identity", "n": "3"},
            "noise": {"kind": "iid", "sigma2": 1e-3},
            "k_max": 5,
            "seed": 1,
            "outputs": ["exact_avg"],
        }
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert "matrix.n: must be an integer" in capsys.readouterr().err

    def test_string_x0_seed_rejected(self, tmp_path, eta8, capsys):
        cfg = base_config(eta8)
        cfg["x0"] = {"random_seed": "a"}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert "x0.random_seed: must be an integer" in capsys.readouterr().err


class TestValidate:
    def test_passes(self, tmp_path, capsys):
        assert main(["validate", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        report = json.loads((tmp_path / "validation.json").read_text())
        assert all(c["passed"] for c in report)

    def test_corrupted_tolerance_fails(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(validate.TOLERANCES, "lambda_q_le_lambda_p", -1.0)
        code = main(["validate", "--out", str(tmp_path)])
        assert code == 1
        assert "FAIL lambda_q_le_lambda_p" in capsys.readouterr().out

    def test_check_list_pinned(self):
        names = [
            "enum_vs_curve_3x2", "enum_vs_closed_form_3x2", "enum_vs_curve_4x3",
            "enum_vs_closed_form_4x3", "dense_P", "dense_Q", "dense_D", "dense_g", "dense_v2",
            "dense_v1", "lambda_q_le_lambda_p", "lambda_p_below_one", "lambda_q_positive",
            "dense_lambda_p", "dense_lambda_q", "h_spectrum_union", "trace_Q_identity",
            "trace_D_zero", "scalar_floor", "scalar_curve_constant", "scalar_lambdas_zero",
        ]
        tolerances = ([1e-10] * 4 + [1e-13, 1e-12, 1e-12, 1e-12, 1e-10, 1e-9] + [1e-9] * 5
                      + [1e-8] + [1e-12] * 5)
        checks = [(c["name"], c["tolerance"]) for c in validate.run_suite()]
        assert checks == list(zip(names, tolerances))

    @pytest.mark.parametrize(
        "flag", [["--corrupt-lambda-tolerance"], ["--config", "x.json"], ["--verbose"]]
    )
    def test_removed_flags_are_usage_errors(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--out", str(tmp_path)] + flag)
        assert exc.value.code == 2
