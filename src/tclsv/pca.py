"""PCA bottleneck projection: map deep features onto their top principal axes."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, RankDeficientWarning


@dataclass(frozen=True)
class PcaModel:
    """Mean vector plus the top eigenvectors (rows, descending eigenvalue)."""

    mean: np.ndarray
    basis: np.ndarray
    eigenvalues: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def output_dim(self) -> int:
        return self.basis.shape[0]


def covariance(pooled: np.ndarray, out_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(mean, population covariance) of the rows of ``pooled``, a float64 matrix.

    ``pooled`` is centred in place: afterwards it holds ``x - mean``.  It
    needs more than ``out_dim`` rows to give ``out_dim`` components.
    """
    if pooled.ndim != 2:
        raise DataError("covariance expects a 2-D matrix of pooled frames")
    m = pooled.shape[0]
    if m <= out_dim:
        raise DataError(f"need more than {out_dim} rows to fit PCA, got {m}")
    mean = pooled.mean(axis=0)
    pooled -= mean
    cov = pooled.T @ pooled
    cov /= m
    return mean, cov


def fit_pca(mean: np.ndarray, cov: np.ndarray, out_dim: int) -> PcaModel:
    """The PCA model of ``covariance``'s (mean, covariance): its top eigenvectors.

    Eigenvector signs are fixed so each row's largest-magnitude entry is
    positive.  If fewer than ``out_dim`` eigenvalues are positive, the basis
    is padded with zero rows and a :class:`RankDeficientWarning` is issued.
    """
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:out_dim]
    eigvals = eigvals[order]
    basis = eigvecs[:, order].T.copy()

    positive = eigvals > max(eigvals[0], 0.0) * 1e-12
    rank = int(np.count_nonzero(positive))
    if rank < out_dim:
        warnings.warn(
            f"only {rank} positive eigenvalues for {out_dim} requested dimensions; "
            "padding with zero rows",
            RankDeficientWarning,
        )
        basis[rank:] = 0.0
        eigvals = eigvals.copy()
        eigvals[rank:] = 0.0

    for row in basis:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaModel(mean=mean, basis=basis, eigenvalues=np.maximum(eigvals, 0.0))


def project(model: PcaModel, deep_features: np.ndarray) -> np.ndarray:
    """Project rows onto the principal axes: ``(x - mean) @ basis.T``."""
    x = np.atleast_2d(np.asarray(deep_features, dtype=np.float64))
    if x.shape[1] != model.input_dim:
        raise DataError(f"features have dim {x.shape[1]}, PCA model expects {model.input_dim}")
    return (x - model.mean) @ model.basis.T
