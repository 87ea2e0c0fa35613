"""PCA projection tests: orthonormality, subspace recovery, eigenvalue
properties, the sign convention, and a cross-method oracle via SVD.
"""

import logging

import numpy as np
import pytest

from tclsv.errors import DataError
from tclsv.pca import covariance, fit_pca, project


def fit(x: np.ndarray, out_dim: int):
    """The PCA model of the rows of ``x``, which is left as it is."""
    return fit_pca(*covariance(x.copy(), out_dim), out_dim)


def random_orthonormal(dim: int, k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, k)))
    return q[:, :k]


def test_basis_rows_orthonormal():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((300, 12))
    model = fit(x, 7)
    gram = model.basis @ model.basis.T
    np.testing.assert_allclose(gram, np.eye(7), atol=1e-8)


def test_eigenvalues_non_increasing_and_nonnegative():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((200, 9)) * np.arange(1.0, 10.0)
    model = fit(x, 9)
    assert np.all(np.diff(model.eigenvalues) <= 1e-12)
    assert np.all(model.eigenvalues >= 0.0)


def test_exact_recovery_of_low_dimensional_subspace(caplog):
    dim, k = 10, 2
    v = random_orthonormal(dim, k, seed=2)
    rng = np.random.default_rng(3)
    coords = rng.standard_normal((500, k)) * np.array([3.0, 1.5])
    x = coords @ v.T + 0.7
    caplog.set_level(logging.DEBUG, logger="tclsv.pca")
    model = fit(x, k)
    assert caplog.records == []  # exactly k positive eigenvalues: nothing logged
    reconstructed = project(model, x) @ model.basis + model.mean
    assert np.max(np.abs(reconstructed - x)) <= 1e-8


def test_isotropic_sample_has_near_equal_eigenvalues():
    x = np.random.default_rng(4).standard_normal((10_000, 10))
    model = fit(x, 10)
    assert model.eigenvalues[0] / model.eigenvalues[-1] <= 1.5


def test_projected_fit_data_variance_equals_eigenvalues():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((400, 6)) * np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.5])
    model = fit(x, 4)
    proj = project(model, x)
    np.testing.assert_allclose(proj.var(axis=0), model.eigenvalues, rtol=1e-10)
    # coordinates are uncorrelated on the fit data
    cov = (proj - proj.mean(axis=0)).T @ (proj - proj.mean(axis=0)) / len(proj)
    off_diag = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off_diag)) <= 1e-6 * model.eigenvalues[0]


def test_eigenvalues_match_svd_oracle():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((150, 8)) @ rng.standard_normal((8, 8))
    model = fit(x, 8)
    centered = x - x.mean(axis=0)
    singular = np.linalg.svd(centered, compute_uv=False)
    np.testing.assert_allclose(model.eigenvalues, singular**2 / len(x), rtol=1e-8)


def test_project_of_mean_is_zero_and_eigenvector_is_unit_coordinate():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((300, 5)) * np.arange(1.0, 6.0)
    model = fit(x, 3)
    np.testing.assert_allclose(project(model, model.mean), 0.0, atol=1e-12)
    for k in range(3):
        out = project(model, model.mean + model.basis[k])
        expected = np.zeros(3)
        expected[k] = 1.0
        np.testing.assert_allclose(out.ravel(), expected, atol=1e-9)


def test_project_is_linear_on_centered_inputs():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((100, 4))
    model = fit(x, 2)
    a, b = rng.standard_normal(4), rng.standard_normal(4)
    lhs = project(model, model.mean + 2.0 * a + 3.0 * b)
    rhs = 2.0 * project(model, model.mean + a) + 3.0 * project(model, model.mean + b)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_sign_convention_largest_entry_positive():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((200, 6)) * np.arange(1.0, 7.0)
    model = fit(x, 6)
    for row in model.basis:
        assert row[np.argmax(np.abs(row))] > 0


def test_rank_deficient_pads_with_zero_rows_and_warns(caplog):
    dim, k, out_dim = 8, 3, 6
    v = random_orthonormal(dim, k, seed=10)
    coords = np.random.default_rng(11).standard_normal((100, k))
    x = coords @ v.T
    caplog.set_level(logging.WARNING, logger="tclsv.pca")
    model = fit(x, out_dim)
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("tclsv.pca", logging.WARNING,
         "only 3 positive eigenvalues for 6 requested dimensions; padding with zero rows")
    ]
    np.testing.assert_allclose(model.basis[k:], 0.0, atol=0)
    np.testing.assert_allclose(model.eigenvalues[k:], 0.0, atol=0)
    assert np.all(model.eigenvalues[:k] > 0)
    # the live rows are still orthonormal
    np.testing.assert_allclose(model.basis[:k] @ model.basis[:k].T, np.eye(k), atol=1e-8)


def test_fit_requires_more_rows_than_out_dim():
    with pytest.raises(DataError, match="need more than 5 rows"):
        fit(np.zeros((5, 4)), 5)
    with pytest.raises(DataError, match="^covariance expects a 2-D matrix of pooled frames$"):
        covariance(np.zeros(12), 2)


def test_project_dimension_mismatch():
    model = fit(np.random.default_rng(12).standard_normal((50, 4)), 2)
    with pytest.raises(DataError, match="PCA model expects 4"):
        project(model, np.zeros((3, 5)))


def test_fit_is_deterministic():
    x = np.random.default_rng(13).standard_normal((120, 7))
    a = fit(x, 4)
    b = fit(x, 4)
    assert np.array_equal(a.basis, b.basis)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.mean, b.mean)


def test_fit_leaves_its_input_unmodified_by_default():
    x = np.random.default_rng(14).standard_normal((120, 7)) + 5.0
    mean, cov = covariance(x, 4)
    before = mean.copy(), cov.copy()
    fit_pca(mean, cov, 4)
    assert np.array_equal(mean, before[0]) and np.array_equal(cov, before[1])


def test_covariance_centres_in_place_and_gives_fit_pcas_model():
    x = np.random.default_rng(15).standard_normal((300, 9)) * np.arange(1.0, 10.0) + 3.0
    pooled = x.copy()
    mean, cov = covariance(pooled, 5)
    assert np.array_equal(pooled, x - mean)
    np.testing.assert_allclose(mean, x.mean(axis=0), rtol=1e-14)
    np.testing.assert_allclose(cov, np.cov(x, rowvar=False, bias=True), rtol=1e-12, atol=1e-12)
    got = fit_pca(mean, cov, 5)
    assert got.mean is mean
    np.testing.assert_allclose(got.eigenvalues, np.linalg.eigvalsh(cov)[::-1][:5], rtol=1e-12)
