"""Diagonal-covariance GMM backend: EM-trained UBM, mean-only MAP adaptation,
and average-frame log-likelihood-ratio scoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError

# Variance floor, as a fraction of the global per-dimension training variance.
VARIANCE_FLOOR_FRACTION = 1e-3

_LOG_2PI = np.log(2.0 * np.pi)

# A log-sum-exp term more than 700 below its row's peak is under
# e^-700 ~ 1e-304 of it: even 512 such terms total about 5e-302, far below half
# an ulp of a row sum that is >= 1 (the peak's own term), so flooring the
# exponent there leaves every sum unchanged and keeps np.exp off its slow path
# for arguments near its underflow (numpy 2.4 on an x86-64 Xeon: about 100x
# per element below -708.4).  Such a term's posterior is set to exactly 0.
_EXP_FLOOR = -700.0

# Most rows per block in UBM training's (frames x components) passes, so that
# none holds such a matrix whole.  The log-likelihoods and posteriors are
# row-local, so a row gets the bits of a whole-matrix pass wherever BLAS
# computes each row of a block GEMM as in the whole GEMM.  For the (2D+1)-deep
# GEMM of EM and the (D+1)-deep one of Lloyd, OpenBLAS 0.3.31 on x86-64 did
# for K = 64, 128, 256, 512 and 1024 at every D scanned (2 to 57), but not for
# K = 255 or 500, for some K below 64 that vary with D and the row count, nor
# for 1-row blocks; so _row_blocks splits the rows near-equally.  EM's
# statistics are summed block by block, so with more than one block they
# round differently from whole-matrix sums.
_ROW_BLOCK = 1024


@dataclass(frozen=True)
class GmmModel:
    """Diagonal-covariance GMM.

    The frame-independent terms of the log density are computed on first use
    and cached on the instance, so a model's arrays must not be mutated after
    it has been used.  The variance term's factor is cached apart from the
    rest, so a model whose variance term is always passed in never builds it.
    UBM training reads all of them stacked into one design matrix.
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
    def _variance_factor(self) -> np.ndarray:
        """(-0.5/variances)^T, read by ``variance_term`` alone."""
        return (-0.5 * (1.0 / self.variances)).T

    @cached_property
    def _mean_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """(log w + const, (means/variances)^T)."""
        inv_var = 1.0 / self.variances
        const = -0.5 * (
            self.dim * _LOG_2PI
            + np.sum(np.log(self.variances), axis=1)
            + np.sum(self.means**2 * inv_var, axis=1)
        )
        return np.log(self.weights) + const, (self.means * inv_var).T

    @cached_property
    def _design(self) -> np.ndarray:
        """[(mu/sigma^2)^T; (-0.5/sigma^2)^T; log w + const], shape (2D+1, K).

        ``[x, x^2, 1] @ _design`` is each frame's component log-likelihoods,
        the same sums as ``_component_log_likelihoods`` in another order.
        """
        offset, scaled_means = self._mean_terms
        return np.vstack([scaled_means, self._variance_factor, offset])


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
    return np.atleast_2d(np.asarray(data, dtype=np.float64))


def variance_term(model: GmmModel, frames) -> np.ndarray:
    """-0.5 * x^2 . (1/sigma_k^2), shape (frames, components).

    The part of each component log density that reads only the frames and the
    variances, so models with equal variances (a UBM and its mean-only MAP
    adaptations) can share it for the same frames.
    """
    # Scaling by -0.5 is exact, so folding it into the operand keeps the bits
    # of -0.5 * (x^2 @ (1/sigma^2)^T) and saves a pass over the result.
    return _as_frames(frames) ** 2 @ model._variance_factor


def _component_log_likelihoods(
    model: GmmModel,
    x: np.ndarray,
    var_term: np.ndarray | None = None,
) -> np.ndarray:
    """log w_k + log N(x; mu_k, diag sigma_k^2), shape (frames, components).

    Built in place as quad + (log w + const); addition commutes bit for bit,
    so this equals log w + const + quad.  ``var_term`` is
    ``variance_term(model, x)``, computed here when not given.
    """
    offset, scaled_means = model._mean_terms
    if var_term is None:
        var_term = variance_term(model, x)
    comp = x @ scaled_means
    comp += var_term
    comp += offset
    return comp


def _row_logsumexp(comp: np.ndarray) -> np.ndarray:
    """Stable log-sum-exp over components, shape (frames, 1); overwrites ``comp``."""
    peak = comp.max(axis=1, keepdims=True)
    comp -= peak
    np.maximum(comp, _EXP_FLOOR, out=comp)
    np.exp(comp, out=comp)
    return peak + np.log(comp.sum(axis=1, keepdims=True))


def _posteriors_inplace(comp: np.ndarray) -> np.ndarray:
    """Turn component log-likelihoods into posteriors in place, with one exp each.

    A row's posteriors are exp(c - peak) / sum exp(c - peak), with those
    where c - peak < ``_EXP_FLOOR`` set to 0; the sum floors their exponents
    as ``_row_logsumexp`` does.  Returns ``_row_logsumexp`` of the input.
    """
    peak = comp.max(axis=1, keepdims=True)
    comp -= peak
    near = comp >= _EXP_FLOOR
    np.maximum(comp, _EXP_FLOOR, out=comp)
    np.exp(comp, out=comp)
    total = comp.sum(axis=1, keepdims=True)
    comp *= near  # exact (times 1 or 0), and about half the cost of comp[~near] = 0
    comp /= total
    return peak + np.log(total)


def _row_blocks(m: int) -> list[slice]:
    """Near-equal slices of at most ``_ROW_BLOCK`` rows covering ``range(m)``."""
    n = max(1, -(-m // _ROW_BLOCK))
    bounds = [i * m // n for i in range(n + 1)]
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def _augmented_blocks(x: np.ndarray):
    """Yield ``(rows, [x, x^2, 1])`` per row block, in one block-sized buffer.

    The buffer is refilled for the next block, so each block must be used
    before the next is drawn.
    """
    m, dim = x.shape
    aug = np.empty((min(m, _ROW_BLOCK), 2 * dim + 1))
    aug[:, -1] = 1.0
    for rows in _row_blocks(m):
        block = aug[: rows.stop - rows.start]
        block[:, :dim] = x[rows]
        np.square(x[rows], out=block[:, dim:-1])
        yield rows, block


def _total_log_likelihood(model: GmmModel, x: np.ndarray) -> float:
    """Sum of ``log_likelihoods(model, x)``, one GEMM per row block."""
    log_norm = np.empty((x.shape[0], 1))
    for rows, aug in _augmented_blocks(x):
        log_norm[rows] = _row_logsumexp(aug @ model._design)
    return float(log_norm.sum())


def log_likelihoods(model: GmmModel, frames, var_term: np.ndarray | None = None) -> np.ndarray:
    """Per-frame mixture log density via log-sum-exp over components.

    ``var_term``, when given, is ``variance_term`` of these frames under a
    model with the same variances as ``model``.
    """
    x = _as_frames(frames)
    if x.shape[1] != model.dim:
        raise DataError(f"frames have dim {x.shape[1]}, model expects {model.dim}")
    return _row_logsumexp(_component_log_likelihoods(model, x, var_term)).ravel()


def responsibilities(model: GmmModel, frames, var_term: np.ndarray | None = None) -> np.ndarray:
    """Posterior component probabilities per frame; rows sum to 1.

    A posterior whose log-likelihood lies more than 700 below its row's peak
    is 0.  ``var_term`` is as for ``log_likelihoods``.
    """
    post = _component_log_likelihoods(model, _as_frames(frames), var_term)
    _posteriors_inplace(post)
    return post


def init_gmm(data, num_components: int, seed: int = 0) -> GmmModel:
    """Seeded k-means++ selection plus Lloyd refinement for the means.

    Weights start uniform; every component uses the global per-dimension
    variance.
    """
    x = _as_frames(data)
    m = x.shape[0]
    if m < num_components:
        raise DataError(f"{m} frames for {num_components} components")
    rng = np.random.default_rng(seed)

    x_sq = np.sum(x**2, axis=1)

    def dist_sq_to(c: np.ndarray) -> np.ndarray:
        """||x - c||^2 per frame as ||x||^2 - 2 x.c + ||c||^2: one GEMV.

        Where that is within rounding of 0 it is recomputed directly, so a
        frame equal to ``c`` gets exactly 0 and, once every frame duplicates a
        center, the pick below falls back to a uniform one.
        """
        c_sq = c @ c
        d = x @ c
        d *= -2.0
        d += x_sq
        d += c_sq
        near = np.flatnonzero(d <= 1e-9 * (x_sq + c_sq))
        d[near] = np.sum((x[near] - c) ** 2, axis=1)
        return d

    centers = np.empty((num_components, x.shape[1]))
    centers[0] = x[rng.integers(m)]
    dist_sq = dist_sq_to(centers[0])
    for k in range(1, num_components):
        total = dist_sq.sum()
        if total <= 0:
            centers[k] = x[rng.integers(m)]
        else:
            centers[k] = x[rng.choice(m, p=dist_sq / total)]
        np.minimum(dist_sq, dist_sq_to(centers[k]), out=dist_sq)

    # Lloyd: each frame's nearest center minimises ||c||^2 - 2 x.c, its
    # distance less ||x||^2, which no row's argmin depends on.  One GEMM per
    # block, [x, 1] @ [-2 c^T; ||c||^2], into one block-sized buffer.
    dim = x.shape[1]
    x_one = np.hstack([x, np.ones((m, 1))])
    design = np.empty((dim + 1, num_components))
    dists = np.empty((min(m, _ROW_BLOCK), num_components))
    assignment = None
    for _ in range(10):
        np.multiply(centers.T, -2.0, out=design[:dim])
        np.sum(centers**2, axis=1, out=design[dim])
        new_assignment = np.empty(m, dtype=np.intp)
        for rows in _row_blocks(m):
            d = np.matmul(x_one[rows], design, out=dists[: rows.stop - rows.start])
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

    The posteriors are built and summed one row block at a time in one
    block-sized buffer, so no (frames x components) matrix is held whole.  Per
    block, one GEMM against ``model._design`` gives the component
    log-likelihoods and one more, [x, x^2, 1]^T @ posteriors, gives the
    block's sums of gamma x, gamma x^2 and gamma.
    """
    x = _as_frames(data)
    m, dim = x.shape
    if m == 0:
        raise DataError("em_step needs at least one frame")
    log_norm = np.empty((m, 1))
    stats = np.zeros((2 * dim + 1, model.num_components))
    buf = np.empty((min(m, _ROW_BLOCK), model.num_components))
    for rows, aug in _augmented_blocks(x):
        post = np.matmul(aug, model._design, out=buf[: len(aug)])
        log_norm[rows] = _posteriors_inplace(post)
        stats += aug.T @ post  # 1.8 ms a block at D = 57, K = 512; post.T @ aug took 2.5
    total_ll = float(log_norm.sum())
    stats = np.ascontiguousarray(stats.T)
    sum_x, sum_x_sq, occupancy = stats[:, :dim], stats[:, dim:-1], stats[:, -1]

    # A component with no posterior mass keeps its mean and variance; any
    # positive occupancy, however small, is divided by.
    empty = occupancy == 0
    divisor = np.where(empty, 1.0, occupancy)[:, None]
    new_means = sum_x / divisor
    new_vars = sum_x_sq / divisor - new_means**2

    floor = VARIANCE_FLOOR_FRACTION * x.var(axis=0)
    new_vars = np.maximum(new_vars, np.maximum(floor, 1e-12))

    new_means[empty] = model.means[empty]
    new_vars[empty] = model.variances[empty]
    new_weights = occupancy / m
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
        raise DataError("no enrollment frames")
    if x.shape[1] != ubm.dim:
        raise DataError(f"frames have dim {x.shape[1]}, UBM expects {ubm.dim}")
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


def score_llr(targets: list[GmmModel], ubm: GmmModel, utterance) -> np.ndarray:
    """Each target's average per-frame log-likelihood difference from the UBM on one utterance.

    The UBM's log-likelihoods and the frames' variance term are computed once.
    The variance term is shared by every target that holds the UBM's own
    variance array, as a model mean-only MAP adapted onto the UBM's arrays
    does; any other target computes its own.
    """
    x = _as_frames(utterance)
    if x.shape[0] == 0:
        raise DataError("utterance has no frames")
    if x.shape[1] != ubm.dim:
        raise DataError(f"frames have dim {x.shape[1]}, model expects {ubm.dim}")
    var_term = variance_term(ubm, x)
    ubm_ll = log_likelihoods(ubm, x, var_term)
    return np.array([
        np.mean(log_likelihoods(t, x, var_term if t.variances is ubm.variances else None) - ubm_ll)
        for t in targets
    ])
