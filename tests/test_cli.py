import json
import os
from pathlib import Path

import numpy as np
import pytest

from kaczlab import (
    FixedNoise,
    IidNoise,
    bounds,
    build_model,
    cli,
    gen_gaussian,
    lifted,
    load_system,
    make_distribution,
    make_measurements,
    monte_carlo_mse,
    row_norm_distribution,
    save_vector,
    uniform_distribution,
    validate,
)
from kaczlab.cli import main, run_experiment
from kaczlab.rka import trial_noise_seed

from conftest import fresh_python


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

    @pytest.mark.parametrize("distribution", [
        "row_norm", "uniform", {"weights": [1, 2, 3, 4, 5, 6, 7, 8]}],
        ids=["row_norm", "uniform", "weights"])
    def test_bounds_are_the_general_bound(self, tmp_path, eta8, distribution):
        # every bound kind is the p-general bound with the spec CURVE_KINDS
        # names, written under its own name for any distribution
        sys_obj = gen_gaussian(8, 4, 1.0, 5)
        x0 = sys_obj.x_true + np.random.default_rng(4).standard_normal(4)
        cfg = base_config(eta8)
        cfg.update(x0={"values": x0.tolist()}, k_max=300, distribution=distribution,
                   outputs=["bound_sv", "bound_zf", "bound_zf_general"])
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out",
                     str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "curves.csv")
        assert header == ["k", "bound_sv", "bound_zf", "bound_zf_general"]
        assert "warnings" not in json.loads((tmp_path / "result.json").read_text())
        dist = (row_norm_distribution(sys_obj) if distribution == "row_norm"
                else make_distribution(distribution["weights"]) if isinstance(distribution, dict)
                else uniform_distribution(8))
        model = lifted.build_model(sys_obj, dist)
        specs = {"fixed": FixedNoise(eta8), None: IidNoise(0.0)}
        for j, kind in enumerate(header[1:], 1):
            want = bounds.zf_general_bound_curve(model, specs[cli.CURVE_KINDS[kind]],
                                                 x0 - sys_obj.x_true, 300)
            assert np.array([r[j] for r in rows], dtype=float).tobytes() == want.tobytes(), kind

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

    def test_csv_against_blas_threads(self, tmp_path, monkeypatch):
        # the Monte Carlo and bound columns keep their bits at one and two
        # BLAS threads; the exact curve may round differently, within 1e-13
        write_config(tmp_path, {
            "matrix": {"kind": "tomography", "grid": 10, "angles": 15, "rays": 10},
            "noise": {"kind": "iid", "sigma2": 2.25e-4, "resample": True},
            "x0": "zero", "k_max": 200, "trials": 20, "seed": 5,
            "outputs": ["empirical", "exact_avg", "bound_zf_avg", "floor"],
        })
        curves = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
            done = fresh_python(["-m", "kaczlab.cli", "run", "--config", "config.json",
                                 "--out", threads], tmp_path)
            assert done.returncode == 0, done.stderr
            header, rows = read_csv(tmp_path / threads / "curves.csv")
            curves[threads] = dict(zip(header, np.array(rows, dtype=float).T))
        one, two = curves["1"], curves["2"]
        for name in ("empirical", "empirical_stderr", "bound_zf_avg"):
            assert one[name].tobytes() == two[name].tobytes(), name
        exact = np.max(np.abs(one["exact_avg"] - two["exact_avg"]))
        assert exact <= 1e-13 * np.max(np.abs(one["exact_avg"]))

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

    def test_weights_whose_sum_overflows(self, tmp_path):
        # finite weights whose sum is inf: p = (0.5, 0.5, 5e-309), no numpy warning
        cfg = {
            "matrix": {"kind": "gaussian", "m": 3, "n": 2, "seed": 1},
            "noise": {"kind": "fixed", "values": [0.1, -0.2, 0.05]},
            "distribution": {"weights": [1e308, 1e308, 1]},
            "k_max": 20,
            "trials": 5,
            "seed": 0,
            "outputs": ["empirical", "exact", "bound_zf", "floor"],
        }
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "curves.csv")
        assert header == ["k", "empirical", "empirical_stderr", "exact", "bound_zf"]
        assert len(rows) == 21

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

    def test_iid_resample_false_is_one_draw(self, tmp_path):
        # the exact curve's eta and the single empirical trial's are one draw
        cfg = {
            "matrix": {"kind": "gaussian", "m": 10, "n": 3, "seed": 2},
            "noise": {"kind": "iid", "sigma2": 1e-3, "resample": False},
            "k_max": 30,
            "trials": 1,
            "seed": 4,
            "outputs": ["empirical", "exact"],
        }
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        sys_obj = gen_gaussian(10, 3, 1.0, 2)
        _, eta = make_measurements(sys_obj, IidNoise(1e-3), trial_noise_seed(4))
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["scalars"]["eta_sq_norm"] == float(eta @ eta)
        model = build_model(sys_obj, row_norm_distribution(sys_obj))
        want = monte_carlo_mse(model, FixedNoise(eta), np.zeros(3) - sys_obj.x_true, 30,
                               trials=1, seed=4).mse_mean
        header, rows = read_csv(tmp_path / "curves.csv")
        got = np.array([float(r[header.index("empirical")]) for r in rows])
        assert np.array_equal(got, want)

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


def reference_csv(curves, k_max):
    """curves.csv as one format(float(v), ".17g") per value and one line per row."""
    names = list(curves)
    lines = [",".join(["k"] + names) + "\n"]
    for k in range(k_max + 1):
        lines.append(",".join([str(k)] + [format(float(curves[c][k]), ".17g")
                                          for c in names]) + "\n")
    return "".join(lines)


def first_difference(got, want):
    """(index, got's line, want's line) at the first line where two texts
    differ, or None: a short report where pytest's diff of two long texts
    takes minutes."""
    got, want = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for k in range(max(len(got), len(want))):
        pair = [lines[k] if k < len(lines) else None for lines in (got, want)]
        if pair[0] != pair[1]:
            return k, *pair
    return None


def settles(k_max, at):
    """A column that changes at every row up to row at and repeats it after."""
    return 1.0 / (1.0 + np.minimum(np.arange(k_max + 1), at))


def signed_zeros(k_max, at, first):
    """1, then zeros of the sign of first up to row at, then of the other sign."""
    col = np.full(k_max + 1, -first)
    col[:at] = first
    col[0] = 1.0
    return col


CHUNK = cli.CSV_CHUNK_ROWS
TAIL_K_MAX = 2 * CHUNK + 5
# (k_max, curves) whose rows settle: every column repeats its bits from some
# row on, the last of which the writer writes once and copies after each k
SETTLED_TAILS = {
    "columns_settle_at_different_rows": (
        TAIL_K_MAX, {"a": settles(TAIL_K_MAX, 40), "b": settles(TAIL_K_MAX, CHUNK + 100),
                     "c": settles(TAIL_K_MAX, 300)}),
    "negative_zero_after_zero": (TAIL_K_MAX, {"a": signed_zeros(TAIL_K_MAX, 300, 0.0)}),
    "zero_after_negative_zero": (TAIL_K_MAX, {"a": signed_zeros(TAIL_K_MAX, 300, -0.0)}),
    "tail_starts_mid_chunk": (TAIL_K_MAX, {"a": settles(TAIL_K_MAX, CHUNK // 2)}),
    "tail_starts_at_chunk": (TAIL_K_MAX, {"a": settles(TAIL_K_MAX, CHUNK - 1)}),
    "tail_starts_after_chunk": (TAIL_K_MAX, {"a": settles(TAIL_K_MAX, CHUNK)}),
    "constant_columns": (TAIL_K_MAX, {"a": np.full(TAIL_K_MAX + 1, 0.1),
                                      "b": np.full(TAIL_K_MAX + 1, -0.0)}),
    "k_max_0": (0, {"a": np.array([2.5])}),
    "no_columns": (TAIL_K_MAX, {}),
}


class TestWriteOutputs:
    K_MAX = 2 * cli.CSV_CHUNK_ROWS + 5   # three chunks, the last one short

    def curves(self):
        rng = np.random.default_rng(12)
        n = self.K_MAX + 1
        special = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -5e-324,
                            1e308, -1e308, 1.0, -3.0, 2.0**53, 1e16, 0.1, 1 / 3])
        return {
            "special": np.resize(special, n),
            "normal": rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
            "integers": np.arange(n, dtype=float) - 7.0,
        }

    def test_csv_bytes_match_reference(self, tmp_path):
        curves = self.curves()
        csv_path, json_path = cli._write_outputs(
            str(tmp_path), curves, {"floor_exact": 0.25}, {"k_max": self.K_MAX}, self.K_MAX)
        with open(csv_path, encoding="utf-8", newline="") as fh:
            assert first_difference(fh.read(), reference_csv(curves, self.K_MAX)) is None
        text = Path(json_path).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert json.loads(text)["scalars"] == {"floor_exact": 0.25}

    @pytest.mark.parametrize("case", list(SETTLED_TAILS))
    def test_settled_tail_bytes_match_reference(self, tmp_path, case):
        k_max, curves = SETTLED_TAILS[case]
        csv_path, _ = cli._write_outputs(str(tmp_path), curves, {}, {"k_max": k_max}, k_max)
        with open(csv_path, encoding="utf-8", newline="") as fh:
            assert first_difference(fh.read(), reference_csv(curves, k_max)) is None

    def test_rejects_wrong_length(self, tmp_path):
        curves = self.curves()
        curves["short"] = curves["normal"][:-1]
        with pytest.raises(ValueError, match="short"):
            cli._write_outputs(str(tmp_path), curves, {}, {}, self.K_MAX)
        assert not (tmp_path / "curves.csv").exists()


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

        for mod in (cli, lifted, bounds):
            for name in ("build_model", "solve_v2"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        curves, scalars = run_experiment(shared_iid_config())
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

            monkeypatch.setattr(lifted, "_solve_i_minus_q", counted)
            cfg = shared_iid_config(matrix={"kind": "gaussian", "m": 24, "n": 8, "seed": 3},
                                    outputs=outputs)
            _, scalars = run_experiment(cfg)
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
        "kind", ["exact", "exact_avg", "floor", "bound_zf", "bound_zf_general", "bound_zf_avg"]
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

    def test_bound_sv_runs(self, tmp_path):
        # the zero-noise bound lambda_max(P)^k ||z0||^2 never reads (I - P)^-1
        cfg_path = write_config(tmp_path, self.config(["bound_sv"]))
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        lam = json.loads((tmp_path / "result.json").read_text())["scalars"]["lambda_max_p"]
        assert lam == 1.0
        sys_obj = gen_gaussian(4, 2, 1.0, 2)
        z0 = cli._build_x0({"random_seed": 3}, sys_obj) - sys_obj.x_true
        header, rows = read_csv(tmp_path / "curves.csv")
        assert header == ["k", "bound_sv"]
        np.testing.assert_allclose(np.array([r[1] for r in rows], dtype=float),
                                   lam ** np.arange(11) * (z0 @ z0), rtol=1e-15)


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

    @pytest.mark.parametrize("kind", ["nope", ["exact"], {"kind": "exact"}],
                             ids=["string", "list", "object"])
    def test_unknown_curve_kind(self, tmp_path, eta8, capsys, kind):
        cfg = base_config(eta8)
        cfg["outputs"] = ["exact", kind]
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: outputs: unknown curve kind {kind!r}\n"

    @pytest.mark.parametrize("edit, message", [
        (lambda c: {k: v for k, v in c.items() if k != "k_max"},
         "config: missing keys ['k_max']"),
        (lambda c: [c], "config must be a JSON object"),
        (lambda c: dict(c, noise={"kind": "iid", "sigma2": float("nan")}),
         "noise.sigma2: must be a finite number, got nan"),
        (lambda c: dict(c, noise={"kind": "iid", "sigma2": float("inf")}),
         "noise.sigma2: must be a finite number, got inf"),
        (lambda c: dict(c, matrix=dict(c["matrix"], x_scale=float("nan"))),
         "matrix.x_scale: must be a finite number, got nan"),
        (lambda c: dict(c, matrix=dict(c["matrix"], x_scale=float("-inf"))),
         "matrix.x_scale: must be a finite number, got -inf"),
        (lambda c: dict(c, matrix=dict(c["matrix"], x_scale=1.7e308)),
         "matrix: x_scale 1.7e+308 overflows x_true"),
        (lambda c: dict(c, matrix={"m": 8, "n": 4, "seed": 5}),
         'matrix: expected an object with a "kind" key'),
        (lambda c: dict(c, matrix={"kind": "sparse"}), "matrix: unknown kind 'sparse'"),
        (lambda c: dict(c, noise={"values": c["noise"]["values"]}),
         'noise: expected an object with a "kind" key'),
        (lambda c: dict(c, noise={"kind": "laplace"}), "noise: unknown kind 'laplace'"),
        (lambda c: dict(c, noise=dict(c["noise"], path="eta.txt")),
         'noise: fixed needs exactly one of "values" or "path"'),
        (lambda c: dict(c, noise={"kind": "fixed"}),
         'noise: fixed needs exactly one of "values" or "path"'),
        (lambda c: dict(c, distribution={"weights": 3}),
         "distribution.weights: must be a list of numbers, got 3"),
        (lambda c: dict(c, distribution={"weights": [1, 2, 3]}),
         "distribution: 3 weights for 8 rows"),
        (lambda c: dict(c, distribution={"weights": [1, 2, 3, 0, 5, 6, 7, 8]}),
         "distribution: all weights must be finite and > 0 (every row needs nonzero "
         "selection probability)"),
        (lambda c: dict(c, distribution={"weights": [1, 2, 3, -4, 5, 6, 7, 8]}),
         "distribution: all weights must be finite and > 0 (every row needs nonzero "
         "selection probability)"),
        (lambda c: dict(c, distribution="sqrt"),
         "distribution: expected row_norm | uniform | {weights}, got 'sqrt'"),
        (lambda c: dict(c, x0="ones"),
         "x0: expected zero | {values} | {path} | {random_seed}, got 'ones'"),
        (lambda c: dict(c, outputs=[]), "outputs must be a non-empty list of curve kinds"),
        (lambda c: dict(c, outputs="exact"), "outputs must be a non-empty list of curve kinds"),
    ], ids=["missing_key", "json_array", "sigma2_nan", "sigma2_infinity", "x_scale_nan",
            "x_scale_minus_infinity", "x_scale_overflows", "matrix_no_kind",
            "matrix_unknown_kind", "noise_no_kind",
            "noise_unknown_kind", "fixed_values_and_path", "fixed_neither", "weights_not_list",
            "weights_count", "weights_zero", "weights_negative", "distribution_unknown",
            "x0_unknown", "outputs_empty", "outputs_not_list"])
    def test_config_error_exits_2_naming_key(self, tmp_path, eta8, capsys, edit, message):
        cfg_path = write_config(tmp_path, edit(base_config(eta8)))
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "result.json").exists()

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_integer_past_digit_limit(self, tmp_path, capsys):
        # json.loads raises a plain ValueError for an integer over 4300 digits
        path = tmp_path / "huge.json"
        path.write_text('{"k_max": 1' + "0" * 5000 + "}")
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "config is not valid JSON" in capsys.readouterr().err

    def test_deeply_nested_json(self, tmp_path, capsys):
        # json.loads raises RecursionError, not ValueError, past its nesting limit
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "config error: config is not valid JSON: " in capsys.readouterr().err

    def test_wrong_noise_length(self, tmp_path, eta8):
        cfg = base_config(eta8)
        cfg["noise"] = {"kind": "fixed", "values": [0.0, 1.0]}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2

    def test_runtime_failure_exits_1(self, tmp_path, eta8):
        cfg_path = write_config(tmp_path, base_config(eta8))
        out = "/proc/definitely/not/writable"
        assert main(["run", "--config", cfg_path, "--out", out]) == 1

    def test_uncertified_lambda_q_exits_1(self, tmp_path, capsys, monkeypatch):
        # lambda_max(Q) of this system needs 40 Lanczos steps
        monkeypatch.setattr(lifted, "LANCZOS_MAX_STEPS", 20)
        cfg = shared_iid_config(matrix={"kind": "tomography", "grid": 5, "angles": 10, "rays": 5},
                                outputs=["empirical"])
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "did not certify" in err
        assert not (tmp_path / "result.json").exists()

    @pytest.mark.parametrize("key, value", [("k_max", True), ("trials", True), ("seed", 1.7)])
    def test_non_integer_rejected(self, tmp_path, eta8, capsys, key, value):
        cfg = base_config(eta8)
        cfg[key] = value
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert f"{key}: must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("k_max", True, "k_max: must be an integer, got True"),
        ("k_max", -1, "k_max: must be >= 0, got -1"),
        ("trials", 0, "trials: must be >= 1, got 0"),
        ("seed", "7", "seed: must be an integer, got '7'"),
    ], ids=["bool", "negative", "zero_trials", "string"])
    def test_integer_message_exact(self, tmp_path, eta8, capsys, key, value, message):
        cfg = base_config(eta8)
        cfg[key] = value
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("section, desc, message", [
        ("noise", {"kind": "fixed", "values": [0.0, 1.0]},
         "noise: vector must have length 8, got (2,)"),
        ("x0", {"values": [0.0, 1.0, 2.0]}, "x0: vector must have length 4, got (3,)"),
        ("matrix", {"kind": "gaussian", "m": 3, "n": 5, "seed": 1},
         "matrix: m must be >= n, got 3 x 5"),
    ], ids=["noise", "x0", "gaussian"])
    def test_size_message_names_key(self, tmp_path, eta8, capsys, section, desc, message):
        cfg = base_config(eta8)
        cfg[section] = desc
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

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

    @pytest.mark.parametrize("section, desc, key, text, message", [
        ("matrix", {"kind": "file"}, "matrix.path", "1000000000000000 3\n1 0 0\n",
         "matrix row 2 of 1000000000000000 missing: file ends before line 3"),
        ("matrix", {"kind": "file"}, "matrix.path", "2 1000000000000000\n1 0 0\n0 1 0\n",
         "line 2: expected 1000000000000000 values, found 3"),
        ("noise", {"kind": "fixed"}, "noise.path", "1000000000000000\n0.1\n",
         "entry 2 of 1000000000000000 missing: file ends before line 3"),
        ("noise", {"kind": "fixed"}, "noise.path", "-3\n0.1\n",
         "line 1: length must be >= 0, got -3"),
        ("matrix", {"kind": "file"}, "matrix.path",
         "8 4\n" + "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n" * 2 + "x_true\n0\n0\n0\n0\n1\n",
         "line 15: data after the last declared value, on line 14"),
        ("noise", {"kind": "fixed"}, "noise.path", "8\n" + "0.1\n" * 9,
         "line 10: data after the last declared value, on line 9"),
        ("x0", {}, "x0.path", "4\n0\n0\n0\n0\n\n0\n",
         "line 7: data after the last declared value, on line 5"),
        ("matrix", {"kind": "file"}, "matrix.path", "", "line 1: empty file"),
        ("matrix", {"kind": "file"}, "matrix.path", "8\n1 0 0 0\n",
         'line 1: header must be "m n"'),
        ("matrix", {"kind": "file"}, "matrix.path", "8 four\n1 0 0 0\n",
         "line 1: non-integer header ("),
        ("matrix", {"kind": "file"}, "matrix.path", "0 4\n",
         "line 1: dimensions must be positive, got 0 x 4"),
        ("noise", {"kind": "fixed"}, "noise.path", "", "line 1: empty file"),
        ("noise", {"kind": "fixed"}, "noise.path", "eight\n0.1\n",
         "line 1: non-integer length ("),
    ], ids=["matrix_rows", "matrix_width", "noise_length", "noise_negative",
            "matrix_trailing", "noise_trailing", "x0_trailing", "matrix_empty",
            "matrix_one_field_header", "matrix_non_integer_header", "matrix_zero_rows",
            "noise_empty", "noise_non_integer_length"])
    def test_header_past_file_rejected(
        self, tmp_path, eta8, capsys, section, desc, key, text, message
    ):
        # a file must hold exactly what its header declares: a PiB-sized header
        # is refused by the line count, not by numpy's allocator, data past
        # the declared end is refused, not dropped, and a header line that
        # declares no valid size is refused at line 1
        path = tmp_path / "input.txt"
        path.write_text(text)
        cfg = base_config(eta8)
        cfg[section] = dict(desc, path=str(path))
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert f"config error: {key}: {message}" in capsys.readouterr().err

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

    @pytest.mark.parametrize("section, desc, key", [
        ("noise", {"kind": "iid", "sigma2": 10**400}, "noise.sigma2"),
        ("matrix", {"kind": "gaussian", "m": 8, "n": 4, "seed": 5, "x_scale": 10**400},
         "matrix.x_scale"),
        ("distribution", {"weights": [1, 2, 3, 10**400, 5, 6, 7, 8]}, "distribution.weights[3]"),
        ("noise", {"kind": "fixed", "values": [0.1] * 7 + [10**400]}, "noise.values[7]"),
        ("x0", {"values": [0.0, 0.0, 10**400, 0.0]}, "x0.values[2]"),
    ])
    def test_integer_past_float_range_rejected(self, tmp_path, eta8, capsys, section, desc, key):
        # float() of such a JSON integer raises OverflowError, not an inf
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


SINGLE_NOISES = {
    "fixed": {"kind": "fixed", "values": list(np.linspace(-0.1, 0.1, 12))},
    "iid_resampled": {"kind": "iid", "sigma2": 1e-3, "resample": True},
    "iid_shared": {"kind": "iid", "sigma2": 1e-3, "resample": False},
}
# the specs each of SINGLE_NOISES gives: a realized vector ("fixed"), iid
# noise ("iid"), or both
SINGLE_NOISE_SPECS = {"fixed": {"fixed"}, "iid_resampled": {"iid"},
                      "iid_shared": {"fixed", "iid"}}


class TestEveryOutputAlone:
    """Each output kind alone, under each noise and two distributions: a
    config is refused as a config error naming the kind exactly when the spec
    CURVE_KINDS names for it is missing, and otherwise writes the kind."""

    @pytest.mark.parametrize("distribution", ["row_norm", "uniform"])
    @pytest.mark.parametrize("noise", list(SINGLE_NOISES))
    @pytest.mark.parametrize("kind", list(cli.CURVE_KINDS))
    def test_exits_0_or_2(self, tmp_path, capsys, kind, noise, distribution):
        cfg = {
            "matrix": {"kind": "gaussian", "m": 12, "n": 4, "seed": 2},
            "noise": SINGLE_NOISES[noise],
            "distribution": distribution,
            "k_max": 5,
            "trials": 3,
            "seed": 4,
            "outputs": [kind],
        }
        code = main(["run", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        given = SINGLE_NOISE_SPECS[noise]
        reads = cli.CURVE_KINDS[kind]
        if reads is not None and reads not in given:
            assert code == 2
            assert f"config error: outputs: {kind} " in capsys.readouterr().err
            assert not (tmp_path / "curves.csv").exists()
            return
        assert code == 0
        header, _ = read_csv(tmp_path / "curves.csv")
        result = json.loads((tmp_path / "result.json").read_text())
        assert "warnings" not in result
        if kind == "floor":
            assert header == ["k"]
            floors = {key for key in result["scalars"] if key.startswith("floor_")}
            assert floors == {cli.FLOOR_KEYS[spec] for spec in given}
        else:
            assert header[1] == kind

    def test_bound_sv_reads_no_noise(self, tmp_path):
        # with noise redrawn per trial and uniform p, bound_sv is still the
        # noise-free general bound, under its own name
        sys_obj = gen_gaussian(12, 4, 1.0, 1)
        x0 = np.random.default_rng(3).standard_normal(4)
        cfg = {
            "matrix": {"kind": "gaussian", "m": 12, "n": 4, "seed": 1},
            "noise": {"kind": "iid", "sigma2": 1e-2, "resample": True},
            "distribution": "uniform",
            "x0": {"values": x0.tolist()},
            "k_max": 3,
            "seed": 2,
            "outputs": ["bound_sv"],
        }
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "curves.csv")
        assert header == ["k", "bound_sv"]
        model = lifted.build_model(sys_obj, uniform_distribution(12))
        want = bounds.zf_general_bound_curve(model, IidNoise(0.0), x0 - sys_obj.x_true, 3)
        assert np.array([r[1] for r in rows], dtype=float).tobytes() == want.tobytes()


class TestNonFinite:
    # an iid variance near the float maximum: the draws overflow, and so do the
    # averaged curve past k = 0, the bound's floor and floor_avg
    @pytest.mark.parametrize("outputs, message", [
        (["exact_avg", "bound_zf_avg"], "curve exact_avg is not finite at k = 1"),
        (["bound_zf_avg"], "curve bound_zf_avg is not finite at k = 0"),
        (["floor"], "scalar floor_avg is not finite: inf"),
    ], ids=["exact_avg", "bound_zf_avg", "floor"])
    def test_run_exits_1_and_writes_nothing(self, tmp_path, outputs, message):
        # numpy's overflow warnings are errors under this suite's filters, so
        # the run has a process of its own
        cfg = {
            "matrix": {"kind": "gaussian", "m": 12, "n": 4, "seed": 2},
            "noise": {"kind": "iid", "sigma2": 1.7e308, "resample": True},
            "k_max": 5,
            "trials": 3,
            "seed": 1,
            "outputs": outputs,
        }
        write_config(tmp_path, cfg)
        done = fresh_python(["-m", "kaczlab.cli", "run", "--config", "config.json", "--out",
                             "out"], tmp_path)
        assert done.returncode == 1, done.stderr
        assert f"error: {message}" in done.stderr
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("matrix, noise, outputs, message", [
        ({"kind": "gaussian", "m": 12, "n": 4, "seed": 1},
         {"kind": "iid", "sigma2": 1.7e308, "resample": True},
         ["empirical", "exact_avg", "bound_zf_avg", "floor"],
         "curve empirical is not finite at k = 4"),
        ({"kind": "gaussian", "m": 150, "n": 50, "seed": 1},
         {"kind": "fixed", "values": [1e200] * 150},
         ["exact", "bound_zf", "floor"],
         "(I - Q) CG right-hand side is not finite"),
    ], ids=["iid_resampled", "fixed"])
    def test_one_error_line_and_no_numpy_warning(self, tmp_path, matrix, noise, outputs,
                                                 message):
        cfg = {"matrix": matrix, "noise": noise, "k_max": 5, "trials": 3, "seed": 0,
               "outputs": outputs}
        write_config(tmp_path, cfg)
        done = fresh_python(["-m", "kaczlab.cli", "run", "--config", "config.json", "--out",
                             "out"], tmp_path)
        assert done.returncode == 1, done.stderr
        assert done.stderr == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


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
            "dense_lambda_p", "dense_lambda_q", "trace_Q_identity", "trace_D_zero",
            "scalar_floor", "scalar_curve_constant", "scalar_lambdas_zero",
        ]
        tolerances = ([1e-10] * 4 + [1e-13, 1e-12, 1e-12, 1e-12, 1e-10, 1e-9] + [1e-9] * 5
                      + [1e-12] * 5)
        checks = [(c["name"], c["tolerance"]) for c in validate.run_suite()]
        assert checks == list(zip(names, tolerances))

    @pytest.mark.parametrize(
        "flag", [["--corrupt-lambda-tolerance"], ["--config", "x.json"], ["--verbose"]]
    )
    def test_removed_flags_are_usage_errors(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--out", str(tmp_path)] + flag)
        assert exc.value.code == 2
