import hashlib
import os
import re

import numpy as np
import pytest

from kaczlab import (
    FixedNoise,
    IidNoise,
    LinearSystem,
    MatrixFileError,
    gen_gaussian,
    gen_identity,
    gen_tomography,
    load_system,
    load_vector,
    make_measurements,
    save_system,
    save_vector,
)


class TestGenGaussian:
    def test_experiment_size(self):
        sys = gen_gaussian(150, 50, 1.0, 3)
        assert sys.a.shape == (150, 50)
        assert np.all(sys.row_norms > 0)

    def test_scalar_system(self):
        sys = gen_gaussian(1, 1, 1.0, 5)
        assert sys.a.shape == (1, 1)
        assert sys.row_norms[0] == abs(sys.a[0, 0])

    def test_deterministic_and_full_rank(self):
        a = gen_gaussian(4, 3, 1.0, 42)
        b = gen_gaussian(4, 3, 1.0, 42)
        assert np.array_equal(a.a, b.a)
        assert np.array_equal(a.x_true, b.x_true)
        sigma = np.linalg.svd(a.a, compute_uv=False)
        assert sigma[-1] > 0

    def test_x_scale(self):
        small = gen_gaussian(6, 2, 0.0, 7)
        assert np.all(small.x_true == 0.0)

    def test_rejects_underdetermined(self):
        with pytest.raises(ValueError, match="m must be >= n"):
            gen_gaussian(3, 5, 1.0, 1)

    @pytest.mark.parametrize("x_scale", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_x_scale(self, x_scale):
        with pytest.raises(ValueError, match=f"^x_scale must be finite, got {x_scale!r}$"):
            gen_gaussian(8, 3, x_scale=x_scale)

    def test_rejects_overflowing_x_scale(self):
        # named at once and without a numpy warning (an error under this
        # suite's filters), not retried as if the matrix were rank deficient
        with pytest.raises(ValueError, match=r"^x_scale 1\.7e\+308 overflows x_true$"):
            gen_gaussian(6, 3, 1.7e308, seed=10)


class TestGenIdentity:
    def test_n1(self):
        sys = gen_identity(1)
        assert sys.a.tolist() == [[1.0]]

    def test_n3_orthonormal(self):
        sys = gen_identity(3)
        assert np.array_equal(sys.a, np.eye(3))
        assert np.all(sys.row_norms == 1.0)
        assert np.linalg.svd(sys.a, compute_uv=False)[-1] == pytest.approx(1.0)


class TestGenTomography:
    def test_experiment_scale(self):
        sys = gen_tomography(10, 15, 10)
        m, n = sys.a.shape
        assert n == 100
        assert m == 150

    def test_tiny_nonnegative(self):
        sys = gen_tomography(2, 2, 2)
        assert np.all(sys.a >= 0.0)
        assert sys.a.shape[0] >= sys.a.shape[1]

    def test_row_norm_geometric_bound(self):
        grid = 4
        sys = gen_tomography(grid, 6, 5)
        assert np.all(sys.row_norms <= grid * np.sqrt(2.0))

    def test_no_zero_rows(self):
        # every ray crosses the image, so each keeps its row
        for grid in [1, 2, 3, 5, 8, 12]:
            for angles, rays in [(grid + 3, grid), (grid + 2, grid + 1), (2 * grid + 1, grid + 1)]:
                sys = gen_tomography(grid, angles, rays)
                assert sys.a.shape[0] == angles * rays
                assert np.all(sys.a.sum(axis=1) > 0.0)

    @pytest.mark.parametrize("sizes, a_sha, x_sha", [
        ((2, 2, 2), "030a1520bc022c6434d236ab09bcb664a86b47e6d521f2f8072997c7d2cb0385",
         "c91937dc8f7327008f1ec12d687590bdb6d76344bed5aa5b5622bf6dc8362f39"),
        ((4, 6, 5), "145aec9deb3398f5e02f0d731032c2657085f3bcabadea8b5798e69790146f22",
         "277068766537bbdb6aeb4d55982cdb92476f3d005ead2bf2c9e65cad7a9d371e"),
        ((5, 10, 5), "c3b57be13906e82e52021cfc88c794e96857939c378b7944e1175b0ada54a04f",
         "f27c5fc561110df242752287c3742be749d9282745b25e57529b102bc3965bb7"),
        ((10, 15, 10), "566d0311e9ac7018486594bd799d848a81f2ae551b0b86b838cc0f4ae6570298",
         "daf76760935be1dd45caf44839ba20b333f77bd41981286e7f18de3afc49ee98"),
        ((18, 25, 18), "d4cd7f7ab406b1a9c95942422a70f4d8d3a2b59e0f28769c93668b8ccc69b69b",
         "589c4011a701c104d9ac234fc3e24413e476004532d9e4eec954ad09cfd1c50d"),
    ], ids=["2-2-2", "4-6-5", "5-10-5", "10-15-10", "18-25-18"])
    def test_bytes_pinned(self, sizes, a_sha, x_sha):
        # any change to the ray tracing that moves a byte of a or x_true fails here
        sys = gen_tomography(*sizes)
        assert hashlib.sha256(sys.a.tobytes()).hexdigest() == a_sha
        assert hashlib.sha256(sys.x_true.tobytes()).hexdigest() == x_sha

    def test_phantom_peak(self):
        sys = gen_tomography(10, 15, 10)
        assert sys.x_true.max() == pytest.approx(1.0)
        assert np.all(sys.x_true > 0.0)

    def test_too_few_rays(self):
        with pytest.raises(ValueError, match="must be >="):
            gen_tomography(10, 3, 3)

    def test_rank_deficient_named(self):
        # a single projection angle cannot resolve a 2x2 image
        with pytest.raises(ValueError, match="rank deficient"):
            gen_tomography(2, 1, 4)


class TestMeasurements:
    def test_noiseless(self):
        sys = gen_gaussian(5, 3, 1.0, 9)
        y, eta = make_measurements(sys, FixedNoise(np.zeros(5)))
        assert np.array_equal(y, sys.a @ sys.x_true)
        assert np.all(eta == 0.0)

    def test_fixed_norm(self):
        sys = gen_gaussian(6, 3, 1.0, 10)
        rng = np.random.default_rng(0)
        eta = rng.standard_normal(6)
        eta *= np.sqrt(1.6) / np.linalg.norm(eta)
        y, realized = make_measurements(sys, FixedNoise(eta))
        assert np.linalg.norm(y - sys.a @ sys.x_true) ** 2 == pytest.approx(1.6)
        assert np.array_equal(realized, eta)

    def test_fixed_keeps_callers_array_writable(self):
        eta = np.zeros(5)
        noise = FixedNoise(eta)
        eta[0] = 1.0
        assert noise.eta[0] == 0.0 and not noise.eta.flags.writeable

    def test_iid_variance(self):
        sys = gen_gaussian(1000, 10, 1.0, 11)
        pooled = []
        for s in range(100):
            _, eta = make_measurements(sys, IidNoise(2.25e-4), seed=s)
            pooled.append(eta)
        pooled = np.concatenate(pooled)  # 1e5 samples
        assert pooled.var() == pytest.approx(2.25e-4, rel=0.03)

    def test_length_mismatch(self):
        sys = gen_gaussian(5, 3, 1.0, 9)
        with pytest.raises(ValueError, match="length"):
            make_measurements(sys, FixedNoise(np.zeros(4)))

    @pytest.mark.parametrize("eta", [[1.0, np.nan], [np.inf, 0.0], np.zeros((2, 2))],
                             ids=["nan", "inf", "2d"])
    def test_fixed_rejects_bad_eta(self, eta):
        with pytest.raises(ValueError, match="^eta must be a finite 1-D vector$"):
            FixedNoise(eta)


class TestFileFormat:
    def test_round_trip_exact(self, tmp_path):
        sys = gen_gaussian(4, 3, 1.0, 7)
        path = tmp_path / "m.txt"
        save_system(sys, path)
        loaded = load_system(path)
        assert np.array_equal(loaded.a, sys.a)
        assert np.array_equal(loaded.x_true, sys.x_true)
        assert np.array_equal(loaded.row_norms, sys.row_norms)

    def test_missing_rows_named(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 4\n1 2 3 4\n5 6 7 8\n")
        with pytest.raises(MatrixFileError, match="row 3"):
            load_system(path)

    def test_non_numeric_token_named(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 2\n3 oops\nx_true\n0\n0\n")
        with pytest.raises(MatrixFileError, match="line 3"):
            load_system(path)

    def test_wrong_width_named(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 3\n1 2 3\n4 5\nx_true\n0\n0\n0\n")
        with pytest.raises(MatrixFileError, match="line 3"):
            load_system(path)

    def test_missing_marker(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 1\n2\n")
        with pytest.raises(MatrixFileError, match="x_true"):
            load_system(path)

    def test_vector_round_trip(self, tmp_path):
        v = np.random.default_rng(1).standard_normal(7)
        path = tmp_path / "v.txt"
        save_vector(v, path)
        assert np.array_equal(load_vector(path), v)

    def test_vector_data_past_length_refused(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("3\n1\n2\n3\n4\n5\n")
        with pytest.raises(MatrixFileError, match="^line 5: data after the last declared value"):
            load_vector(path)

    def test_system_data_past_x_true_refused(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 1\n1\n2\nx_true\n3\n\n4\n")
        with pytest.raises(MatrixFileError, match="^line 7: data after the last declared value"):
            load_system(path)

    def test_trailing_blank_lines_allowed(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2\n1\n2\n\n  \n")
        assert load_vector(path).tolist() == [1.0, 2.0]
        path.write_text("2 1\n1\n2\nx_true\n3\n\n\t\n")
        assert load_system(path).x_true.tolist() == [3.0]

    def test_shipped_fixture_loads(self, fixture_dir):
        sys = load_system(os.path.join(fixture_dir, "gaussian_150x50.txt"))
        assert sys.a.shape == (150, 50)


class TestLinearSystemInvariants:
    def test_row_norm_accuracy(self):
        sys = gen_gaussian(30, 8, 1.0, 13)
        direct = np.sqrt((sys.a**2).sum(axis=1))
        assert np.allclose(sys.row_norms, direct, rtol=1e-14, atol=0)

    def test_rejects_rank_deficient(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(ValueError, match="rank deficient"):
            LinearSystem(a, np.zeros(2))

    def test_rejects_zero_row(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="positive"):
            LinearSystem(a, np.zeros(2))

    def test_rejects_non_finite_matrix(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [np.inf, 1.0]])
        with pytest.raises(ValueError, match="matrix must be finite"):
            LinearSystem(a, np.zeros(2))

    @pytest.mark.parametrize("a", [np.ones(3), np.ones((2, 2, 2)), 1.0], ids=["1d", "3d", "scalar"])
    def test_rejects_non_matrix(self, a):
        message = f"a must be a 2-D matrix, got shape {np.shape(a)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LinearSystem(a, np.zeros(1))

    def test_rejects_underdetermined(self):
        with pytest.raises(ValueError, match=r"^m must be >= n, got 2 x 3$"):
            LinearSystem(np.ones((2, 3)), np.zeros(3))

    def test_rejects_non_finite_x_true(self):
        with pytest.raises(ValueError, match="x_true must be finite"):
            LinearSystem(np.eye(2), np.array([np.nan, 1.0]))

    def test_immutable(self):
        sys = gen_gaussian(4, 2, 1.0, 3)
        with pytest.raises(ValueError):
            sys.a[0, 0] = 99.0
