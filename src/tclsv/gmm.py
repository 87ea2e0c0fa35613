"""Diagonal-covariance GMM backend: EM-trained UBM, mean-only MAP adaptation,
and average-frame log-likelihood-ratio scoring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    DimensionMismatch,
    EmptyEnrollment,
    EmptyUtterance,
    TooFewFrames,
)
from .frontend import FeatureMatrix

# Variance floor, as a fraction of the global per-dimension training variance.
VARIANCE_FLOOR_FRACTION = 1e-3

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class GmmModel:
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    @property
    def num_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class MapConfig:
    relevance_factor: float = 10.0
    iterations: int = 3

    def __post_init__(self):
        if self.relevance_factor <= 0:
            raise DataError("relevance_factor must be positive")
        if self.iterations < 1:
            raise DataError("iterations must be >= 1")


def _as_frames(data) -> np.ndarray:
    if isinstance(data, FeatureMatrix):
        data = data.frames
    return np.atleast_2d(np.asarray(data, dtype=np.float64))


def _component_log_likelihoods(model: GmmModel, x: np.ndarray) -> np.ndarray:
    """log w_k + log N(x; mu_k, diag sigma_k^2), shape (frames, components)."""
    inv_var = 1.0 / model.variances
    const = -0.5 * (
        model.dim * _LOG_2PI
        + np.sum(np.log(model.variances), axis=1)
        + np.sum(model.means**2 * inv_var, axis=1)
    )
    quad = -0.5 * (x**2) @ inv_var.T + x @ (model.means * inv_var).T
    return np.log(model.weights) + const + quad


def _row_logsumexp(comp: np.ndarray) -> np.ndarray:
    """Stable log-sum-exp over components, shape (frames, 1)."""
    peak = comp.max(axis=1, keepdims=True)
    return peak + np.log(np.exp(comp - peak).sum(axis=1, keepdims=True))


def log_likelihoods(model: GmmModel, frames) -> np.ndarray:
    """Per-frame mixture log density via log-sum-exp over components."""
    x = _as_frames(frames)
    if x.shape[1] != model.dim:
        raise DimensionMismatch(f"frames have dim {x.shape[1]}, model expects {model.dim}")
    return _row_logsumexp(_component_log_likelihoods(model, x)).ravel()


def log_likelihood(model: GmmModel, frame) -> float:
    """Mixture log density of a single frame."""
    return float(log_likelihoods(model, frame)[0])


def responsibilities(model: GmmModel, frames) -> np.ndarray:
    """Posterior component probabilities per frame; rows sum to 1."""
    comp = _component_log_likelihoods(model, _as_frames(frames))
    comp -= comp.max(axis=1, keepdims=True)
    post = np.exp(comp)
    return post / post.sum(axis=1, keepdims=True)


def init_gmm(data, num_components: int, seed: int = 0) -> GmmModel:
    """Seeded k-means++ selection plus Lloyd refinement for the means.

    Weights start uniform; every component uses the global per-dimension
    variance.
    """
    x = _as_frames(data)
    m = x.shape[0]
    if m < num_components:
        raise TooFewFrames(f"{m} frames for {num_components} components")
    rng = np.random.default_rng(seed)

    centers = np.empty((num_components, x.shape[1]))
    centers[0] = x[rng.integers(m)]
    dist_sq = np.sum((x - centers[0]) ** 2, axis=1)
    for k in range(1, num_components):
        total = dist_sq.sum()
        if total <= 0:
            centers[k] = x[rng.integers(m)]
        else:
            centers[k] = x[rng.choice(m, p=dist_sq / total)]
        dist_sq = np.minimum(dist_sq, np.sum((x - centers[k]) ** 2, axis=1))

    assignment = None
    for _ in range(10):
        dists = (
            np.sum(x**2, axis=1)[:, None]
            - 2.0 * x @ centers.T
            + np.sum(centers**2, axis=1)[None, :]
        )
        new_assignment = dists.argmin(axis=1)
        if assignment is not None and np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for k in range(num_components):
            members = x[assignment == k]
            if len(members):
                centers[k] = members.mean(axis=0)

    variances = np.tile(np.maximum(x.var(axis=0), 1e-12), (num_components, 1))
    weights = np.full(num_components, 1.0 / num_components)
    return GmmModel(weights=weights, means=centers, variances=variances)


def em_step(model: GmmModel, data) -> tuple[GmmModel, float]:
    """One EM update; returns the new model and the pre-update total log-likelihood."""
    x = _as_frames(data)
    if x.shape[0] == 0:
        raise DataError("em_step needs at least one frame")
    comp = _component_log_likelihoods(model, x)
    log_norm = _row_logsumexp(comp)
    total_ll = float(log_norm.sum())
    resp = np.exp(comp - log_norm)

    occupancy = resp.sum(axis=0)
    safe = np.maximum(occupancy, 1e-300)
    new_means = (resp.T @ x) / safe[:, None]
    new_vars = (resp.T @ (x**2)) / safe[:, None] - new_means**2

    floor = VARIANCE_FLOOR_FRACTION * x.var(axis=0)
    new_vars = np.maximum(new_vars, np.maximum(floor, 1e-12))

    empty = occupancy <= 0
    if np.any(empty):
        new_means[empty] = model.means[empty]
        new_vars[empty] = model.variances[empty]
    new_weights = occupancy / x.shape[0]
    return GmmModel(weights=new_weights, means=new_means, variances=new_vars), total_ll


def train_ubm(
    data, num_components: int, em_iterations: int = 10, seed: int = 0
) -> tuple[GmmModel, list[float]]:
    """k-means++ initialization followed by EM; returns model and log-likelihood trace.

    The trace holds the total log-likelihood before each step plus one final
    value, so ``em_iterations`` steps yield ``em_iterations + 1`` entries.
    """
    x = _as_frames(data)
    model = init_gmm(x, num_components, seed)
    trace = []
    for _ in range(em_iterations):
        model, ll = em_step(model, x)
        trace.append(ll)
    trace.append(float(_row_logsumexp(_component_log_likelihoods(model, x)).sum()))
    return model, trace


def map_adapt(ubm: GmmModel, enrollment_data, config: MapConfig) -> GmmModel:
    """Mean-only MAP adaptation of a UBM toward enrollment data.

    Each iteration recomputes responsibilities against the partially adapted
    model, then shifts mean_k toward the data mean E_k with data-dependent
    weight alpha_k = n_k / (n_k + relevance_factor).  Weights and variances
    are untouched.
    """
    x = _as_frames(enrollment_data)
    if x.shape[0] == 0:
        raise EmptyEnrollment("no enrollment frames")
    if x.shape[1] != ubm.dim:
        raise DimensionMismatch(f"frames have dim {x.shape[1]}, UBM expects {ubm.dim}")
    means = ubm.means.copy()
    for _ in range(config.iterations):
        model = GmmModel(ubm.weights, means, ubm.variances)
        resp = responsibilities(model, x)
        occupancy = resp.sum(axis=0)
        safe = np.maximum(occupancy, 1e-300)
        data_means = (resp.T @ x) / safe[:, None]
        alpha = occupancy / (occupancy + config.relevance_factor)
        means = alpha[:, None] * data_means + (1.0 - alpha[:, None]) * means
    return GmmModel(weights=ubm.weights.copy(), means=means, variances=ubm.variances.copy())


def score_llr(target: GmmModel, ubm: GmmModel, utterance) -> float:
    """Average per-frame log-likelihood difference between target model and UBM."""
    x = _as_frames(utterance)
    if x.shape[0] == 0:
        raise EmptyUtterance("utterance has no frames")
    return float(np.mean(log_likelihoods(target, x) - log_likelihoods(ubm, x)))
