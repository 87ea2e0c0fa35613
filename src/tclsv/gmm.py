"""Diagonal-covariance GMM backend: EM-trained UBM, mean-only MAP adaptation,
and average-frame log-likelihood-ratio scoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

# np.exp runs a fast SIMD path only for arguments above about -708; from
# -708.4 down to its underflow near -745.13 it costs about 100x more per
# element (numpy 2.4 on an x86-64 Xeon: 1.3 ns against 130-240 ns), and a
# vector that mixes both ranges drops to the slow path as a whole.  A
# log-sum-exp term more than 700 below its row's peak is under e^-700 ~ 1e-304
# of it: even 512 such terms total about 5e-302, far below half an ulp of a
# row sum that is >= 1 (the peak's own term), so flooring the exponent there
# leaves every sum unchanged.
_EXP_FLOOR = -700.0
# np.exp returns exactly 0.0 below about -745.13.
_EXP_ZERO_BELOW = -745.2

# Most rows per block in UBM training's (frames x components) passes, so that
# they hold at most one full such matrix.  Every step in a block is row-local,
# so a row gets the bits of a whole-matrix pass wherever BLAS computes each row
# of a block GEMM as in the whole GEMM.  OpenBLAS 0.3.31 on x86-64 does for K
# from 2 to 64 and K = 128, 256, 512 or 1024, but not for K = 255 or 500, say,
# nor for 1- or 2-row blocks; so _row_blocks splits the rows near-equally.
_ROW_BLOCK = 1024


@dataclass(frozen=True)
class GmmModel:
    """Diagonal-covariance GMM.

    The frame-independent terms of the log density are computed on first use
    and cached on the instance, so a model's arrays must not be mutated after
    it has been used.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    @property
    def num_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @cached_property
    def _density_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(1/variances, log w + const, (means/variances)^T)."""
        inv_var = 1.0 / self.variances
        const = -0.5 * (
            self.dim * _LOG_2PI
            + np.sum(np.log(self.variances), axis=1)
            + np.sum(self.means**2 * inv_var, axis=1)
        )
        return inv_var, np.log(self.weights) + const, (self.means * inv_var).T


@dataclass(frozen=True)
class BackendConfig:
    """The ``backend`` config section; a ``None`` seed reads as 0."""

    feature_source: str = "bn"
    num_mixtures: int = 512
    em_iterations: int = 10
    init_seed: int | None = None
    relevance_factor: float = 10.0
    map_iterations: int = 3

    def __post_init__(self):
        if self.feature_source not in ("bn", "mfcc"):
            raise DataError("backend.feature_source must be 'bn' or 'mfcc'")
        if self.num_mixtures < 1:
            raise DataError("backend.num_mixtures must be >= 1")
        if self.em_iterations < 0:
            raise DataError("backend.em_iterations must be >= 0")
        if self.relevance_factor <= 0:
            raise DataError("backend.relevance_factor must be positive")
        if self.map_iterations < 1:
            raise DataError("backend.map_iterations must be >= 1")


def _as_frames(data) -> np.ndarray:
    if isinstance(data, FeatureMatrix):
        data = data.frames
    return np.atleast_2d(np.asarray(data, dtype=np.float64))


def variance_term(model: GmmModel, frames) -> np.ndarray:
    """-0.5 * x^2 . (1/sigma_k^2), shape (frames, components).

    The part of each component log density that reads only the frames and the
    variances, so models with equal variances (a UBM and its mean-only MAP
    adaptations) can share it for the same frames.
    """
    inv_var = model._density_terms[0]
    return -0.5 * (_as_frames(frames) ** 2) @ inv_var.T


def _component_log_likelihoods(
    model: GmmModel,
    x: np.ndarray,
    var_term: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """log w_k + log N(x; mu_k, diag sigma_k^2), shape (frames, components).

    Built in place as quad + (log w + const); addition commutes bit for bit,
    so this equals log w + const + quad.  ``var_term`` is
    ``variance_term(model, x)``, computed here when not given.  The result is
    written into ``out`` when given.
    """
    _, offset, scaled_means = model._density_terms
    if var_term is None:
        var_term = variance_term(model, x)
    comp = np.matmul(x, scaled_means, out=out)
    comp += var_term
    comp += offset
    return comp


def _exp_inplace(a: np.ndarray) -> np.ndarray:
    """``a[...] = np.exp(a)``, bit for bit, with nearly every element on the fast path.

    ``a`` must be C-contiguous, so that its flat view writes through; other
    input raises ValueError.  Arguments below ``_EXP_ZERO_BELOW`` give 0.0,
    only the thin band between it and ``_EXP_FLOOR`` goes through the slow
    path, and every other argument is clamped into the fast one.  NaN and
    +-inf come out as np.exp gives them.
    """
    if not a.flags.c_contiguous:
        raise ValueError("_exp_inplace needs a C-contiguous array")
    flat = a.reshape(-1)
    low = np.flatnonzero(flat < _EXP_FLOOR)
    low_vals = flat[low]
    band = low_vals >= _EXP_ZERO_BELOW
    low_exp = np.zeros_like(low_vals)
    low_exp[band] = np.exp(low_vals[band])
    np.maximum(a, _EXP_FLOOR, out=a)
    np.exp(a, out=a)
    flat[low] = low_exp
    return a


def _row_logsumexp(comp: np.ndarray) -> np.ndarray:
    """Stable log-sum-exp over components, shape (frames, 1)."""
    peak = comp.max(axis=1, keepdims=True)
    terms = comp - peak
    np.maximum(terms, _EXP_FLOOR, out=terms)
    np.exp(terms, out=terms)
    return peak + np.log(terms.sum(axis=1, keepdims=True))


def _row_blocks(m: int) -> list[slice]:
    """Near-equal slices of at most ``_ROW_BLOCK`` rows covering ``range(m)``."""
    n = max(1, -(-m // _ROW_BLOCK))
    bounds = [i * m // n for i in range(n + 1)]
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def _total_log_likelihood(model: GmmModel, x: np.ndarray) -> float:
    """Sum of ``log_likelihoods(model, x)``, one row block at a time."""
    log_norm = np.empty((x.shape[0], 1))
    for rows in _row_blocks(x.shape[0]):
        log_norm[rows] = _row_logsumexp(_component_log_likelihoods(model, x[rows]))
    return float(log_norm.sum())


def log_likelihoods(model: GmmModel, frames, var_term: np.ndarray | None = None) -> np.ndarray:
    """Per-frame mixture log density via log-sum-exp over components.

    ``var_term``, when given, is ``variance_term`` of these frames under a
    model with the same variances as ``model``.
    """
    x = _as_frames(frames)
    if x.shape[1] != model.dim:
        raise DimensionMismatch(f"frames have dim {x.shape[1]}, model expects {model.dim}")
    return _row_logsumexp(_component_log_likelihoods(model, x, var_term)).ravel()


def log_likelihood(model: GmmModel, frame) -> float:
    """Mixture log density of a single frame."""
    return float(log_likelihoods(model, frame)[0])


def responsibilities(model: GmmModel, frames, var_term: np.ndarray | None = None) -> np.ndarray:
    """Posterior component probabilities per frame; rows sum to 1.

    ``var_term`` is as for ``log_likelihoods``.
    """
    comp = _component_log_likelihoods(model, _as_frames(frames), var_term)
    comp -= comp.max(axis=1, keepdims=True)
    post = _exp_inplace(comp)
    post /= post.sum(axis=1, keepdims=True)
    return post


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
    # (x - c)^2 and its row sums, in buffers reused for every center
    diff = np.empty_like(x)
    dist_sq, new_sq = np.empty(m), np.empty(m)
    np.sum(np.square(np.subtract(x, centers[0], out=diff), out=diff), axis=1, out=dist_sq)
    for k in range(1, num_components):
        total = dist_sq.sum()
        if total <= 0:
            centers[k] = x[rng.integers(m)]
        else:
            centers[k] = x[rng.choice(m, p=dist_sq / total)]
        np.sum(np.square(np.subtract(x, centers[k], out=diff), out=diff), axis=1, out=new_sq)
        np.minimum(dist_sq, new_sq, out=dist_sq)
    del diff

    x_sq = np.sum(x**2, axis=1)[:, None]
    two_x = 2.0 * x
    dists = np.empty((min(m, _ROW_BLOCK), num_components))
    assignment = None
    for _ in range(10):
        centers_sq = np.sum(centers**2, axis=1)[None, :]
        new_assignment = np.empty(m, dtype=np.intp)
        for rows in _row_blocks(m):
            # ||x||^2 - 2 x.c + ||c||^2, in one block-sized buffer
            d = dists[: rows.stop - rows.start]
            np.matmul(two_x[rows], centers.T, out=d)
            np.subtract(x_sq[rows], d, out=d)
            d += centers_sq
            new_assignment[rows] = d.argmin(axis=1)
        if assignment is not None and np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        # A stable sort keeps each cluster's rows in frame order, so every
        # slice holds the rows a boolean mask would select, in the same order.
        members = x[np.argsort(assignment, kind="stable")]
        counts = np.bincount(assignment, minlength=num_components)
        ends = np.cumsum(counts)
        for k in np.flatnonzero(counts):
            centers[k] = members[ends[k] - counts[k] : ends[k]].mean(axis=0)

    variances = np.tile(np.maximum(x.var(axis=0), 1e-12), (num_components, 1))
    weights = np.full(num_components, 1.0 / num_components)
    return GmmModel(weights=weights, means=centers, variances=variances)


def em_step(model: GmmModel, data) -> tuple[GmmModel, float]:
    """One EM update; returns the new model and the pre-update total log-likelihood.

    The responsibilities are the only (frames x components) matrix held
    whole; they are built one row block at a time.
    """
    x = _as_frames(data)
    if x.shape[0] == 0:
        raise DataError("em_step needs at least one frame")
    resp = np.empty((x.shape[0], model.num_components))
    log_norm = np.empty((x.shape[0], 1))
    for rows in _row_blocks(x.shape[0]):
        comp = _component_log_likelihoods(model, x[rows], out=resp[rows])
        log_norm[rows] = _row_logsumexp(comp)
        comp -= log_norm[rows]
        _exp_inplace(comp)
    total_ll = float(log_norm.sum())

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
    trace.append(_total_log_likelihood(model, x))
    return model, trace


def map_adapt(ubm: GmmModel, enrollment_data, config: BackendConfig) -> GmmModel:
    """Mean-only MAP adaptation of a UBM toward enrollment data.

    Of ``config`` only ``map_iterations`` and ``relevance_factor`` are read.
    Each of the ``map_iterations`` iterations recomputes responsibilities
    against the partially adapted model, then shifts mean_k toward the data
    mean E_k with data-dependent weight
    alpha_k = n_k / (n_k + relevance_factor).  Weights and variances are
    untouched.
    """
    x = _as_frames(enrollment_data)
    if x.shape[0] == 0:
        raise EmptyEnrollment("no enrollment frames")
    if x.shape[1] != ubm.dim:
        raise DimensionMismatch(f"frames have dim {x.shape[1]}, UBM expects {ubm.dim}")
    means = ubm.means.copy()
    var_term = variance_term(ubm, x)  # every iteration's model has the UBM's variances
    for _ in range(config.map_iterations):
        model = GmmModel(ubm.weights, means, ubm.variances)
        resp = responsibilities(model, x, var_term)
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
