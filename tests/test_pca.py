"""PCA projection tests: orthonormality, subspace recovery, eigenvalue
properties, the sign convention, and a cross-method oracle via SVD.
"""

import warnings

import numpy as np
import pytest

from tclsv.errors import DataError, DimensionMismatch, RankDeficientWarning
from tclsv.pca import fit_pca, project


def random_orthonormal(dim: int, k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, k)))
    return q[:, :k]


def test_basis_rows_orthonormal():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((300, 12))
    model = fit_pca(x, 7)
    gram = model.basis @ model.basis.T
    np.testing.assert_allclose(gram, np.eye(7), atol=1e-8)


def test_eigenvalues_non_increasing_and_nonnegative():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((200, 9)) * np.arange(1.0, 10.0)
    model = fit_pca(x, 9)
    assert np.all(np.diff(model.eigenvalues) <= 1e-12)
    assert np.all(model.eigenvalues >= 0.0)


def test_exact_recovery_of_low_dimensional_subspace():
    dim, k = 10, 2
    v = random_orthonormal(dim, k, seed=2)
    rng = np.random.default_rng(3)
    coords = rng.standard_normal((500, k)) * np.array([3.0, 1.5])
    x = coords @ v.T + 0.7
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # exactly k positive eigenvalues: no warning
        model = fit_pca(x, k)
    reconstructed = project(model, x) @ model.basis + model.mean
    assert np.max(np.abs(reconstructed - x)) <= 1e-8


def test_isotropic_sample_has_near_equal_eigenvalues():
    x = np.random.default_rng(4).standard_normal((10_000, 10))
    model = fit_pca(x, 10)
    assert model.eigenvalues[0] / model.eigenvalues[-1] <= 1.5


def test_projected_fit_data_variance_equals_eigenvalues():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((400, 6)) * np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.5])
    model = fit_pca(x, 4)
    proj = project(model, x)
    np.testing.assert_allclose(proj.var(axis=0), model.eigenvalues, rtol=1e-10)
    # coordinates are uncorrelated on the fit data
    cov = (proj - proj.mean(axis=0)).T @ (proj - proj.mean(axis=0)) / len(proj)
    off_diag = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off_diag)) <= 1e-6 * model.eigenvalues[0]


def test_eigenvalues_match_svd_oracle():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((150, 8)) @ rng.standard_normal((8, 8))
    model = fit_pca(x, 8)
    centered = x - x.mean(axis=0)
    singular = np.linalg.svd(centered, compute_uv=False)
    np.testing.assert_allclose(model.eigenvalues, singular**2 / len(x), rtol=1e-8)


def test_project_of_mean_is_zero_and_eigenvector_is_unit_coordinate():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((300, 5)) * np.arange(1.0, 6.0)
    model = fit_pca(x, 3)
    np.testing.assert_allclose(project(model, model.mean), 0.0, atol=1e-12)
    for k in range(3):
        out = project(model, model.mean + model.basis[k])
        expected = np.zeros(3)
        expected[k] = 1.0
        np.testing.assert_allclose(out.ravel(), expected, atol=1e-9)


def test_project_is_linear_on_centered_inputs():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((100, 4))
    model = fit_pca(x, 2)
    a, b = rng.standard_normal(4), rng.standard_normal(4)
    lhs = project(model, model.mean + 2.0 * a + 3.0 * b)
    rhs = 2.0 * project(model, model.mean + a) + 3.0 * project(model, model.mean + b)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_sign_convention_largest_entry_positive():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((200, 6)) * np.arange(1.0, 7.0)
    model = fit_pca(x, 6)
    for row in model.basis:
        assert row[np.argmax(np.abs(row))] > 0


def test_rank_deficient_pads_with_zero_rows_and_warns():
    dim, k, out_dim = 8, 3, 6
    v = random_orthonormal(dim, k, seed=10)
    coords = np.random.default_rng(11).standard_normal((100, k))
    x = coords @ v.T
    with pytest.warns(RankDeficientWarning):
        model = fit_pca(x, out_dim)
    np.testing.assert_allclose(model.basis[k:], 0.0, atol=0)
    np.testing.assert_allclose(model.eigenvalues[k:], 0.0, atol=0)
    assert np.all(model.eigenvalues[:k] > 0)
    # the live rows are still orthonormal
    np.testing.assert_allclose(model.basis[:k] @ model.basis[:k].T, np.eye(k), atol=1e-8)


def test_fit_requires_more_rows_than_out_dim():
    with pytest.raises(DataError):
        fit_pca(np.zeros((5, 4)), 5)
    with pytest.raises(DataError):
        fit_pca(np.zeros(12), 2)


def test_project_dimension_mismatch():
    model = fit_pca(np.random.default_rng(12).standard_normal((50, 4)), 2)
    with pytest.raises(DimensionMismatch):
        project(model, np.zeros((3, 5)))


def test_fit_is_deterministic():
    x = np.random.default_rng(13).standard_normal((120, 7))
    a = fit_pca(x, 4)
    b = fit_pca(x, 4)
    assert np.array_equal(a.basis, b.basis)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.mean, b.mean)


def test_fit_leaves_its_input_unmodified_by_default():
    x = np.random.default_rng(14).standard_normal((120, 7)) + 5.0
    before = x.copy()
    fit_pca(x, 4)
    assert np.array_equal(x, before)


def test_fit_centred_in_place_gives_the_same_model_and_projection():
    x = np.random.default_rng(15).standard_normal((300, 9)) * np.arange(1.0, 10.0) + 3.0
    original = x.copy()
    copied = fit_pca(original, 5)
    in_place = fit_pca(x, 5, center_in_place=True)
    assert np.array_equal(in_place.mean, copied.mean)
    assert np.array_equal(in_place.basis, copied.basis)
    assert np.array_equal(in_place.eigenvalues, copied.eigenvalues)
    assert np.array_equal(x, original - copied.mean)
    assert np.array_equal(x @ in_place.basis.T, project(copied, original))
    assert np.array_equal(x[10:20] @ in_place.basis.T, project(copied, original[10:20]))


def test_fit_centred_in_place_needs_a_float64_array():
    with pytest.raises(DataError):
        fit_pca(np.ones((10, 3), dtype=np.float32), 2, center_in_place=True)
    with pytest.raises(DataError):
        fit_pca([[1.0, 2.0]] * 10, 1, center_in_place=True)
