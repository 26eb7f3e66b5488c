import numpy as np
import pytest
from scipy.stats import chi2

from fourierstab.errors import CapacityError, DimensionError, SchemaError
from fourierstab.uniformize import (
    CovarianceModel,
    binarize,
    chi_square_uniformity,
    fit,
    jacobi_eigh,
    load_covariance_model,
    save_covariance_model,
)


def random_spd(rng, d):
    A = rng.normal(size=(d, d))
    return A @ A.T + 0.1 * np.eye(d)


class TestJacobi:
    def test_identity(self):
        D, U = jacobi_eigh(np.eye(3))
        np.testing.assert_allclose(D, np.ones(3))
        np.testing.assert_allclose(U.T @ U, np.eye(3), atol=1e-12)

    def test_known_2x2(self):
        # [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        D, U = jacobi_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(D, [3.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(U), np.full((2, 2), 1.0 / np.sqrt(2.0)), atol=1e-12)

    def test_descending_order_and_sign_fix(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 8))
            C = random_spd(rng, d)
            D, U = jacobi_eigh(C)
            assert np.all(np.diff(D) <= 1e-12)
            for j in range(d):
                assert U[int(np.argmax(np.abs(U[:, j]))), j] > 0.0

    def test_reconstruction_and_orthogonality(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 10))
            C = random_spd(rng, d)
            D, U = jacobi_eigh(C)
            np.testing.assert_allclose(U.T @ U, np.eye(d), atol=1e-10)
            np.testing.assert_allclose(U @ np.diag(D) @ U.T, C, atol=1e-9 * np.max(np.abs(C)))

    def test_deterministic(self, rng):
        C = random_spd(rng, 5)
        D1, U1 = jacobi_eigh(C)
        D2, U2 = jacobi_eigh(C)
        np.testing.assert_array_equal(D1, D2)
        np.testing.assert_array_equal(U1, U2)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            jacobi_eigh(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        # np.linalg.eigh itself returns NaN eigenvalues for such a matrix.
        C = np.eye(3)
        C[0, 1] = C[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            jacobi_eigh(C)

    def test_non_symmetric_rejected(self):
        # eigh reads only the lower triangle: it would answer 3.618 and 1.382, the
        # eigenvalues of [[2, 1], [1, 3]], where this matrix has 4.79 and 0.21.
        with pytest.raises(ValueError, match="not symmetric"):
            jacobi_eigh(np.array([[2.0, 5.0], [1.0, 3.0]]))

    def test_nearly_symmetric_rejected(self):
        # Within np.allclose's default rtol of 1e-5 of its transpose, yet eigh would
        # answer for the lower triangle alone; a sample covariance is exactly symmetric.
        with pytest.raises(ValueError, match="not symmetric"):
            jacobi_eigh(np.array([[2.0, 2.0], [1.99998, 3.0]]))

    def test_decomposition_that_does_not_reconstruct_is_rejected(self, monkeypatch):
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda A: (eigh(A)[0] * 1.001, eigh(A)[1]))
        with pytest.raises(ValueError, match="does not reconstruct"):
            jacobi_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))


class TestFit:
    def test_standard_gaussian(self, rng):
        X = rng.normal(size=(50000, 2))
        model = fit(X)
        np.testing.assert_allclose(model.U @ np.diag(model.D) @ model.U.T, np.eye(2), atol=0.05)
        np.testing.assert_allclose(model.mean, 0.0, atol=0.05)

    def test_perfectly_correlated_pair_rank_one(self, rng):
        x = rng.normal(size=1000)
        model = fit(np.column_stack([x, x]))
        assert model.D[1] == pytest.approx(0.0, abs=1e-9)
        assert model.D[0] == pytest.approx(2.0 * np.var(x, ddof=1), abs=1e-9)

    def test_single_feature(self, rng):
        x = rng.normal(loc=3.0, scale=2.0, size=500)
        model = fit(x[:, None])
        assert abs(model.U[0, 0]) == pytest.approx(1.0)
        assert model.D[0] == pytest.approx(np.var(x, ddof=1), abs=1e-9)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit(np.ones((1, 3)))
        with pytest.raises(ValueError):
            fit(np.array([[1.0, np.nan], [2.0, 3.0]]))

    @pytest.mark.parametrize("X", [[[1e200, 1.0], [-1e200, 2.0], [1e200, 3.0]], [[1e308, 1.0], [1e308, 2.0]]],
                             ids=["covariance", "mean"])
    def test_overflow_is_refused_without_warning(self, X):
        with pytest.raises(ValueError, match="covariance leaves the float range"):
            fit(np.array(X))

    def test_sample_covariance_uses_m_minus_1(self):
        X = np.array([[0.0], [2.0]])
        model = fit(X)
        assert model.D[0] == pytest.approx(2.0)  # ((−1)²+1²)/(2−1), the one eigenvalue


class TestBinarize:
    def test_mean_maps_to_all_plus_one(self, rng):
        X = rng.normal(size=(200, 3))
        model = fit(X)
        np.testing.assert_array_equal(binarize(model, model.mean), np.ones(3))

    def test_mean_of_offset_samples_maps_to_all_plus_one(self):
        # The float column means of these projections are about 1e-9, not 0: thresholded
        # at them instead of at 0, the mean itself binarizes to [1, -1, 1, 1].
        model = fit(np.random.default_rng(0).normal(size=(2000, 4)) + 1e6)
        np.testing.assert_array_equal(binarize(model, model.mean), np.ones(4))

    def test_single_feature_above_mean(self, rng):
        X = rng.normal(size=(200, 1))
        model = fit(X)
        assert binarize(model, model.mean + 1.0)[0] == 1.0
        assert binarize(model, model.mean - 1.0)[0] == -1.0

    def test_dimension_mismatch(self, rng):
        model = fit(rng.normal(size=(50, 3)))
        with pytest.raises(DimensionError):
            binarize(model, np.zeros(2))

    def test_non_finite_coordinate_is_value_error(self, rng):
        model = fit(rng.normal(size=(100, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            binarize(model, [np.nan, np.inf, 0.0])

    def test_near_uniform_marginals_and_correlations(self, rng):
        # Correlated Gaussian input; after decorrelation + thresholding the
        # bits should be balanced and pairwise nearly uncorrelated.
        d, m = 4, 50000
        L = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.8, 0.6, 0.0, 0.0],
                [0.3, 0.5, 0.8, 0.0],
                [0.1, 0.2, 0.3, 0.9],
            ]
        )
        X = rng.normal(size=(m, d)) @ L.T + np.array([1.0, -2.0, 0.5, 3.0])
        model = fit(X)
        bits = binarize(model, X)
        p_plus = (bits > 0).mean(axis=0)
        assert np.all(p_plus >= 0.49) and np.all(p_plus <= 0.51)
        corr = np.corrcoef(bits.T)
        off = corr[~np.eye(d, dtype=bool)]
        assert np.all(np.abs(off) <= 0.02)


class TestChiSquareUniformity:
    def test_exact_uniform_counts(self):
        bits = np.array([[s1, s2] for s1 in (-1.0, 1.0) for s2 in (-1.0, 1.0)] * 25)
        stat, dof = chi_square_uniformity(bits)
        assert stat == 0.0
        assert dof == 3

    def test_degenerate_bits_blow_up(self):
        bits = np.ones((64, 2))
        stat, _ = chi_square_uniformity(bits)
        assert stat == pytest.approx(3 * 64.0)

    def test_too_many_cells_is_capacity_error(self):
        # 2^23 cells would cost 128 MiB of counts before any check.
        with pytest.raises(CapacityError, match="d=23"):
            chi_square_uniformity(np.ones((2, 23)))

    def test_gaussian_pipeline_rarely_rejects(self, rng):
        # 2^d-cell goodness-of-fit on binarized Gaussians: at significance
        # 0.01 at most a few rejections across seeded trials.
        d, m, trials = 4, 20000, 40
        crit = chi2.ppf(0.99, (1 << d) - 1)
        rejections = 0
        for seed in range(trials):
            local = np.random.default_rng(1000 + seed)
            A = local.normal(size=(d, d))
            X = local.normal(size=(m, d)) @ A.T
            bits = binarize(fit(X), X)
            stat, _ = chi_square_uniformity(bits)
            if stat > crit:
                rejections += 1
        assert rejections <= max(2, int(0.05 * trials))


class TestSerialization:
    def test_round_trip(self, rng, tmp_path):
        model = fit(rng.normal(size=(300, 4)) @ random_spd(rng, 4))
        path = tmp_path / "cov.txt"
        save_covariance_model(model, path)
        back = load_covariance_model(path)
        np.testing.assert_array_equal(back.mean, model.mean)
        np.testing.assert_array_equal(back.U, model.U)
        np.testing.assert_array_equal(back.D, model.D)

    def test_golden_bytes(self, tmp_path):
        model = CovarianceModel(
            mean=np.array([0.1, -1.0 / 3.0]),
            U=np.array([[0.6, -0.8], [0.8, 0.6]]),
            D=np.array([2.5, 0.5]),
        )
        path = tmp_path / "cov.txt"
        save_covariance_model(model, path)
        assert path.read_bytes() == (
            b"# covariance-model v1\n"
            b"d=2\n"
            b"mean=0.10000000000000001,-0.33333333333333331\n"
            b"D=2.5,0.5\n"
            b"U.0=0.59999999999999998,-0.80000000000000004\n"
            b"U.1=0.80000000000000004,0.59999999999999998\n"
        )

    @pytest.mark.parametrize("line", ["U.2=1,0", "C=1,0,0,1", "thresholds=0,0", "bogus"])
    def test_field_not_read_is_schema_error(self, tmp_path, line):
        path = tmp_path / "cov.txt"
        save_covariance_model(CovarianceModel(np.zeros(2), np.eye(2), np.ones(2)), path)
        load_covariance_model(path)
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(SchemaError, match="unknown field"):
            load_covariance_model(path)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("nope\n")
        with pytest.raises(SchemaError):
            load_covariance_model(p)

    def test_non_finite_value_is_schema_error(self, rng, tmp_path):
        path = tmp_path / "cov.txt"
        save_covariance_model(fit(rng.normal(size=(100, 3))), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join("D=nan,1,1" if ln.startswith("D=") else ln for ln in lines) + "\n")
        with pytest.raises(SchemaError):
            load_covariance_model(path)

    @pytest.mark.parametrize(
        "key, edit",
        [
            ("mean", lambda v: v + ",0.5"),
            ("D", lambda v: v.split(",")[0]),
            ("U.1", lambda v: v + ",1"),
            ("U.0", lambda v: "inf," + v.split(",", 1)[1]),
        ],
        ids=["extra-mean-entry", "short-D", "long-U-row", "inf-in-U"],
    )
    def test_inconsistent_document_is_schema_error(self, rng, tmp_path, key, edit):
        # With one extra mean entry the document used to load as d=3 with a 2x2 U.
        path = tmp_path / "cov.txt"
        save_covariance_model(fit(rng.normal(size=(100, 2))), path)
        lines = [f"{key}={edit(ln.partition('=')[2])}" if ln.startswith(f"{key}=") else ln
                 for ln in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError):
            load_covariance_model(path)

    def test_shapes_checked_on_construction(self):
        # d is the length of mean, so a third mean entry makes the 2x2 U the mismatch.
        with pytest.raises(DimensionError, match=r"U has shape \(2, 2\), expected \(3, 3\)"):
            CovarianceModel(mean=np.zeros(3), U=np.eye(2), D=np.ones(2))
        with pytest.raises(ValueError, match="non-finite value in D"):
            CovarianceModel(mean=np.zeros(2), U=np.eye(2), D=[1.0, np.nan])

    @pytest.mark.parametrize("scale", [2.0, 1e200], ids=["doubled", "overflowing"])
    def test_construction_catches_broken_orthogonality(self, rng, scale):
        model = fit(rng.normal(size=(100, 3)))
        with pytest.raises(ValueError, match="not orthogonal"):
            CovarianceModel(mean=model.mean, U=model.U * scale, D=model.D)

    def test_loaded_non_orthogonal_u_is_schema_error(self, tmp_path):
        path = tmp_path / "cov.txt"
        path.write_text("# covariance-model v1\nd=2\nmean=0,0\nD=1,1\nU.0=1,1\nU.1=0,1\n")
        with pytest.raises(SchemaError, match="not orthogonal"):
            load_covariance_model(path)
