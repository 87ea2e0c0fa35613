"""GMM backend tests: closed-form single-component checks, a naive-summation
likelihood oracle, EM monotonicity, MAP limit behavior, LLR identities,
bitwise equality of the kernels with reference copies of their plain formulas
and between one BLAS thread and the default count, and the memory bound of UBM
training.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tclsv import blas, gmm

from tclsv.errors import DataError
from tclsv.gmm import (
    VARIANCE_FLOOR_FRACTION,
    BackendConfig,
    GmmModel,
    _posteriors_inplace,
    _row_blocks,
    _row_logsumexp,
    em_step,
    init_gmm,
    log_likelihoods,
    map_adapt,
    responsibilities,
    score_llr,
    train_ubm,
    variance_term,
)


def two_cluster_data(n_per=400, seed=0, separation=8.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, (n_per, 2))
    b = rng.normal(separation, 1.0, (n_per, 2))
    return np.vstack([a, b])


def naive_log_likelihood(model: GmmModel, frame: np.ndarray) -> float:
    """Direct summation without log-sum-exp, with explicit per-component loops."""
    total = 0.0
    for k in range(model.num_components):
        dens = 1.0
        for d in range(model.dim):
            var = model.variances[k, d]
            diff = frame[d] - model.means[k, d]
            dens *= np.exp(-0.5 * diff * diff / var) / np.sqrt(2.0 * np.pi * var)
        total += model.weights[k] * dens
    return float(np.log(total))


# --- initialization ---


def test_init_single_component_closed_form():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((200, 3)) * 2.0 + 5.0
    model = init_gmm(x, 1, seed=0)
    np.testing.assert_allclose(model.means[0], x.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(model.variances[0], x.var(axis=0), atol=1e-12)
    assert model.weights[0] == 1.0


def test_init_deterministic():
    x = two_cluster_data(seed=2)
    a = init_gmm(x, 4, seed=9)
    b = init_gmm(x, 4, seed=9)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.variances, b.variances)


def test_init_recovers_distinct_points():
    points = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
    x = np.repeat(points, 25, axis=0) + 0.01 * np.random.default_rng(3).standard_normal((100, 2))
    model = init_gmm(x, 4, seed=1)
    # each center lands on a distinct point after Lloyd convergence
    matched = set()
    for center in model.means:
        k = int(np.argmin(np.sum((points - center) ** 2, axis=1)))
        assert np.linalg.norm(center - points[k]) < 0.1
        matched.add(k)
    assert matched == {0, 1, 2, 3}


def test_init_too_few_frames():
    with pytest.raises(DataError, match="3 frames for 4 components"):
        init_gmm(np.zeros((3, 2)), 4)


# --- likelihoods ---


def test_log_likelihood_standard_normal_at_origin():
    model = GmmModel(weights=np.array([1.0]), means=np.zeros((1, 1)), variances=np.ones((1, 1)))
    assert log_likelihoods(model, np.array([0.0]))[0] == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-12)


def test_log_likelihood_duplicate_components_collapse():
    mu = np.array([[1.0, -2.0]])
    var = np.array([[0.5, 2.0]])
    single = GmmModel(weights=np.array([1.0]), means=mu, variances=var)
    double = GmmModel(
        weights=np.array([0.5, 0.5]),
        means=np.vstack([mu, mu]),
        variances=np.vstack([var, var]),
    )
    frame = np.array([0.3, 0.4])
    assert log_likelihoods(double, frame)[0] == pytest.approx(log_likelihoods(single, frame)[0], abs=1e-12)


def test_log_likelihoods_match_naive_sum_oracle():
    rng = np.random.default_rng(4)
    model = GmmModel(
        weights=rng.dirichlet(np.ones(5)),
        means=rng.standard_normal((5, 3)),
        variances=rng.uniform(0.2, 2.0, (5, 3)),
    )
    frames = rng.standard_normal((20, 3))
    got = log_likelihoods(model, frames)
    for t in range(20):
        assert got[t] == pytest.approx(naive_log_likelihood(model, frames[t]), abs=1e-10)


def test_log_likelihood_dimension_mismatch():
    model = GmmModel(weights=np.array([1.0]), means=np.zeros((1, 2)), variances=np.ones((1, 2)))
    with pytest.raises(DataError, match="frames have dim 4, model expects 2"):
        log_likelihoods(model, np.zeros((3, 4)))


def test_responsibilities_rows_sum_to_one():
    rng = np.random.default_rng(5)
    model = GmmModel(
        weights=rng.dirichlet(np.ones(4)),
        means=rng.standard_normal((4, 2)) * 3,
        variances=rng.uniform(0.5, 1.5, (4, 2)),
    )
    resp = responsibilities(model, rng.standard_normal((50, 2)))
    np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(resp >= 0)


# --- EM ---


def test_em_step_single_component_closed_form():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((300, 2)) * 1.5 + 2.0
    start = GmmModel(
        weights=np.array([1.0]), means=np.zeros((1, 2)), variances=np.ones((1, 2))
    )
    updated, _ = em_step(start, x)
    np.testing.assert_allclose(updated.means[0], x.mean(axis=0), atol=1e-10)
    np.testing.assert_allclose(updated.variances[0], x.var(axis=0), atol=1e-10)
    assert updated.weights[0] == pytest.approx(1.0, abs=1e-12)


def test_em_trace_non_decreasing():
    x = two_cluster_data(seed=7)
    _, trace = train_ubm(x, 2, em_iterations=12, seed=0)
    assert len(trace) == 13
    trace = np.asarray(trace)
    slack = 1e-6 * np.abs(trace[:-1])
    assert np.all(np.diff(trace) >= -slack)


def test_em_moves_parameters_toward_cluster_statistics():
    x = two_cluster_data(n_per=500, seed=8)
    model, _ = train_ubm(x, 2, em_iterations=15, seed=1)
    order = np.argsort(model.means[:, 0])
    lo, hi = model.means[order[0]], model.means[order[1]]
    # cluster sigma is 1.0: means land within 0.1 sigma of the cluster means
    assert np.linalg.norm(lo - x[:500].mean(axis=0)) < 0.1
    assert np.linalg.norm(hi - x[500:].mean(axis=0)) < 0.1
    np.testing.assert_allclose(model.weights, [0.5, 0.5], atol=0.02)


def test_train_ubm_zero_iterations_returns_init():
    x = two_cluster_data(seed=9)
    init = init_gmm(x, 3, seed=4)
    model, trace = train_ubm(x, 3, em_iterations=0, seed=4)
    assert np.array_equal(model.means, init.means)
    assert np.array_equal(model.variances, init.variances)
    assert len(trace) == 1


def test_em_applies_variance_floor():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((200, 2))
    x[:, 1] *= 40.0  # large global variance in dim 1 makes the floor visible
    x[:100, 1] = 0.0  # half the data collapses in dim 1
    model = init_gmm(x, 2, seed=0)
    updated, _ = em_step(model, x)
    floor = VARIANCE_FLOOR_FRACTION * x.var(axis=0)
    assert np.all(updated.variances >= floor - 1e-12)


def test_em_step_divides_by_a_tiny_positive_occupancy():
    # Component 1 sits 37.35 sigma from frames spread over [-0.05, 0.05]: its
    # log-posteriors all lie between -700 and -690 of their rows' peaks, so its
    # posteriors are positive but its occupancy is below 1e-300.  It must move
    # to the posterior-weighted mean of the frames, not toward the origin.
    x = np.linspace(-0.05, 0.05, 20)[:, None]
    start = GmmModel(
        weights=np.array([0.5, 0.5]), means=np.array([[0.0], [37.35]]), variances=np.ones((2, 1))
    )
    comp = ref_component_log_likelihoods(start, x)
    shifted = comp - comp.max(axis=1, keepdims=True)
    assert np.all((-700.0 < shifted[:, 1]) & (shifted[:, 1] < -690.0))
    post = ref_posteriors(comp)[:, 1]
    assert 0.0 < post.sum() < 1e-300
    updated, _ = em_step(start, x)
    np.testing.assert_allclose(updated.means[1], (post @ x) / post.sum(), rtol=1e-12)


def test_em_step_rejects_empty_data():
    model = GmmModel(weights=np.array([1.0]), means=np.zeros((1, 2)), variances=np.ones((1, 2)))
    with pytest.raises(DataError):
        em_step(model, np.zeros((0, 2)))


# --- MAP adaptation ---


def test_map_infinite_relevance_keeps_means():
    x = two_cluster_data(seed=11)
    ubm, _ = train_ubm(x, 2, em_iterations=5, seed=0)
    adapted = map_adapt(ubm, x[:100] + 3.0, BackendConfig(relevance_factor=1e12, map_iterations=3))
    assert np.max(np.abs(adapted.means - ubm.means)) <= 1e-9


def test_map_single_component_equal_occupancy_is_midpoint():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((64, 3)) + 4.0
    ubm = GmmModel(
        weights=np.array([1.0]), means=np.zeros((1, 3)), variances=np.ones((1, 3))
    )
    # single component: n = 64 frames; r = n gives alpha exactly 1/2
    adapted = map_adapt(ubm, x, BackendConfig(relevance_factor=64.0, map_iterations=1))
    expected = 0.5 * x.mean(axis=0) + 0.5 * ubm.means[0]
    np.testing.assert_allclose(adapted.means[0], expected, atol=1e-12)


def test_map_abundant_data_approaches_enrollment_mean():
    rng = np.random.default_rng(13)
    x = rng.normal(5.0, 1.0, (5000, 1))
    ubm = GmmModel(
        weights=np.array([1.0]), means=np.zeros((1, 1)), variances=np.ones((1, 1))
    )
    adapted = map_adapt(ubm, x, BackendConfig(relevance_factor=10.0, map_iterations=3))
    assert abs(adapted.means[0, 0] - x.mean()) / abs(x.mean()) < 0.01


def test_map_preserves_weights_and_variances_exactly():
    x = two_cluster_data(seed=14)
    ubm, _ = train_ubm(x, 4, em_iterations=5, seed=2)
    adapted = map_adapt(ubm, x[:50], BackendConfig())
    assert np.array_equal(adapted.weights, ubm.weights)
    assert np.array_equal(adapted.variances, ubm.variances)
    assert not np.array_equal(adapted.means, ubm.means)


def test_map_empty_enrollment():
    ubm = GmmModel(weights=np.array([1.0]), means=np.zeros((1, 2)), variances=np.ones((1, 2)))
    with pytest.raises(DataError, match="no enrollment frames"):
        map_adapt(ubm, np.zeros((0, 2)), BackendConfig())


def test_backend_config_validation():
    with pytest.raises(DataError, match="relevance_factor"):
        BackendConfig(relevance_factor=0.0)
    with pytest.raises(DataError, match="map_iterations"):
        BackendConfig(map_iterations=0)
    with pytest.raises(DataError, match="num_mixtures"):
        BackendConfig(num_mixtures=0)
    with pytest.raises(DataError, match="em_iterations"):
        BackendConfig(em_iterations=-1)


# --- LLR scoring ---


def test_llr_identical_models_is_exactly_zero():
    x = two_cluster_data(seed=15)
    ubm, _ = train_ubm(x, 2, em_iterations=3, seed=0)
    assert score_llr([ubm], ubm, x[:37])[0] == 0.0


def test_llr_single_frame_is_plain_difference():
    x = two_cluster_data(seed=16)
    ubm, _ = train_ubm(x, 2, em_iterations=3, seed=0)
    target = map_adapt(ubm, x[:200], BackendConfig())
    frame = x[7:8]
    expected = naive_log_likelihood(target, frame[0]) - naive_log_likelihood(ubm, frame[0])
    assert score_llr([target], ubm, frame)[0] == pytest.approx(expected, abs=1e-12)


def test_llr_invariant_under_duplication_and_permutation():
    rng = np.random.default_rng(17)
    x = two_cluster_data(seed=18)
    ubm, _ = train_ubm(x, 2, em_iterations=3, seed=0)
    target = map_adapt(ubm, x[:200], BackendConfig())
    utt = x[300:340]
    base = score_llr([target], ubm, utt)[0]
    assert score_llr([target], ubm, np.vstack([utt, utt]))[0] == pytest.approx(base, abs=1e-12)
    perm = rng.permutation(len(utt))
    assert score_llr([target], ubm, utt[perm])[0] == pytest.approx(base, abs=1e-12)


def test_llr_of_several_targets_is_each_targets_plain_difference():
    x = two_cluster_data(seed=19)
    ubm, _ = train_ubm(x, 3, em_iterations=3, seed=0)
    adapted = map_adapt(ubm, x[:200], BackendConfig())
    # on the UBM's own variance array, which shares the UBM's variance term
    shared = GmmModel(ubm.weights, adapted.means, ubm.variances)
    wider = GmmModel(ubm.weights, adapted.means, ubm.variances * 2.0)
    utt = x[400:430]
    got = score_llr([shared, adapted, wider, ubm], ubm, utt)
    ubm_ll = log_likelihoods(ubm, utt)
    want = [np.mean(log_likelihoods(t, utt) - ubm_ll) for t in (shared, adapted, wider, ubm)]
    assert got.shape == (4,)
    assert np.array_equal(got, want)
    assert score_llr([], ubm, utt).shape == (0,)
    with pytest.raises(DataError, match="frames have dim 3, model expects 2"):
        score_llr([ubm], ubm, np.zeros((4, 3)))


def test_adapted_target_scores_with_the_bits_of_its_model():
    x = two_cluster_data(seed=19)
    ubm, _ = train_ubm(x, 3, em_iterations=3, seed=0)
    means = map_adapt(ubm, x[:200], BackendConfig()).means
    model = GmmModel(ubm.weights, means, ubm.variances)
    target = gmm.AdaptedTarget.of(ubm, means)
    assert target.weights is ubm.weights and target.variances is ubm.variances
    utt = x[400:430]
    want = log_likelihoods(model, utt)
    assert np.array_equal(log_likelihoods(target, utt), want)
    assert np.array_equal(log_likelihoods(target, utt, variance_term(ubm, utt)), want)
    assert np.array_equal(score_llr([target, ubm], ubm, utt), score_llr([model, ubm], ubm, utt))
    with pytest.raises(DataError, match="frames have dim 3, model expects 2"):
        log_likelihoods(target, np.zeros((4, 3)))


def test_llr_empty_utterance():
    ubm = GmmModel(weights=np.array([1.0]), means=np.zeros((1, 2)), variances=np.ones((1, 2)))
    with pytest.raises(DataError, match="utterance has no frames"):
        score_llr([ubm], ubm, np.zeros((0, 2)))


def test_all_likelihoods_finite_with_floored_variances():
    rng = np.random.default_rng(19)
    model = GmmModel(
        weights=rng.dirichlet(np.ones(3)),
        means=rng.standard_normal((3, 4)) * 100.0,
        variances=np.full((3, 4), 1e-12),
    )
    values = log_likelihoods(model, rng.standard_normal((10, 4)) * 100.0)
    assert np.all(np.isfinite(values))


# --- bitwise equality with the plain formulas ---
#
# The kernels floor np.exp's arguments to keep it on numpy's fast path, cache
# each model's frame-independent terms and refine k-means with sorted slices.
# Each of these is meant to leave every value bit for bit unchanged, so each is
# compared with a plain copy of its formula.  The posteriors are defined as
# the plain formula with every entry more than 700 below its row's peak zeroed.


def ref_component_log_likelihoods(model, x):
    inv_var = 1.0 / model.variances
    const = -0.5 * (
        model.dim * np.log(2.0 * np.pi)
        + np.sum(np.log(model.variances), axis=1)
        + np.sum(model.means**2 * inv_var, axis=1)
    )
    quad = -0.5 * (x**2) @ inv_var.T + x @ (model.means * inv_var).T
    return np.log(model.weights) + const + quad


def ref_row_logsumexp(comp):
    peak = comp.max(axis=1, keepdims=True)
    return peak + np.log(np.exp(comp - peak).sum(axis=1, keepdims=True))


def ref_posteriors(comp):
    """exp(c - peak) / sum exp(c - peak), zeroed where c - peak < -700."""
    shifted = comp - comp.max(axis=1, keepdims=True)
    post = np.exp(shifted)
    post /= post.sum(axis=1, keepdims=True)
    post[shifted < -700.0] = 0.0
    return post


def ref_responsibilities(model, x):
    return ref_posteriors(ref_component_log_likelihoods(model, x))


def ref_em_step(model, x):
    comp = ref_component_log_likelihoods(model, x)
    total_ll = float(ref_row_logsumexp(comp).sum())
    resp = ref_posteriors(comp)

    occupancy = resp.sum(axis=0)
    empty = occupancy == 0
    divisor = np.where(empty, 1.0, occupancy)[:, None]
    new_means = (resp.T @ x) / divisor
    new_vars = (resp.T @ (x**2)) / divisor - new_means**2

    floor = VARIANCE_FLOOR_FRACTION * x.var(axis=0)
    new_vars = np.maximum(new_vars, np.maximum(floor, 1e-12))

    new_means[empty] = model.means[empty]
    new_vars[empty] = model.variances[empty]
    new_weights = occupancy / x.shape[0]
    return GmmModel(weights=new_weights, means=new_means, variances=new_vars), total_ll


def ref_init_gmm(x, num_components, seed):
    m = x.shape[0]
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


def assert_models_equal(a, b, rtol=0.0):
    """Bitwise equal parameters, or equal to within ``rtol`` when it is given."""
    for got, want in ((a.weights, b.weights), (a.means, b.means), (a.variances, b.variances)):
        if rtol:
            np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)
        else:
            assert np.array_equal(got, want)


def spread_model(seed, zero_weight):
    """Components scattered so widely that log-likelihood rows span thousands."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(24))
    if zero_weight:
        weights[5] = 0.0
        weights /= weights.sum()
    return GmmModel(
        weights=weights,
        means=rng.uniform(-60.0, 60.0, (24, 3)),
        variances=rng.uniform(0.3, 3.0, (24, 3)),
    )


@settings(deadline=None, max_examples=80)
@given(
    rows=st.integers(min_value=1, max_value=12),
    k=st.integers(min_value=3, max_value=64),
    spread=st.floats(min_value=1500.0, max_value=5000.0),
    edge=st.floats(min_value=-710.0, max_value=-690.0),
    zero_weight=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_posteriors_equal_zeroed_plain_formula(rows, k, spread, edge, zero_weight, seed):
    rng = np.random.default_rng(seed)
    comp = rng.uniform(-spread, 0.0, (rows, k)) + rng.uniform(-500.0, 500.0, (rows, 1))
    comp[:, 0] = comp.max(axis=1) + 1.0  # the peak
    comp[:, 1] = comp[:, 0] - spread  # every row spans more than 1,500 nats
    comp[:, 2] = comp[:, 0] + edge  # near the cut at -700
    if zero_weight:
        comp[::2, k - 1] = -np.inf
    shifted = comp - comp.max(axis=1, keepdims=True)
    post = comp.copy()
    log_norm = _posteriors_inplace(post)
    assert np.array_equal(post, ref_posteriors(comp))
    assert np.array_equal(post == 0.0, shifted < -700.0)
    np.testing.assert_allclose(post.sum(axis=1), 1.0, rtol=0.0, atol=k * 2.0**-52)
    assert np.array_equal(log_norm, ref_row_logsumexp(comp))


def test_row_logsumexp_equals_plain_formula():
    rng = np.random.default_rng(30)
    comp = np.where(
        rng.random((300, 64)) < 0.5,
        rng.uniform(-40.0, 0.0, (300, 64)),
        rng.uniform(-2000.0, -40.0, (300, 64)),
    ) + rng.uniform(-500.0, 500.0, (300, 1))
    comp[::7, 3] = -np.inf  # a zero-weight component
    assert np.ptp(comp[:, 4:], axis=1).min() > 745
    assert np.array_equal(_row_logsumexp(comp.copy()), ref_row_logsumexp(comp))


@pytest.mark.filterwarnings("ignore:divide by zero encountered in log")
@pytest.mark.parametrize("zero_weight", [False, True])
def test_log_likelihoods_equal_plain_formula(zero_weight):
    model = spread_model(31, zero_weight)
    x = np.random.default_rng(32).uniform(-70.0, 70.0, (500, 3))
    comp = ref_component_log_likelihoods(model, x)
    finite = np.where(np.isfinite(comp), comp, np.nan)
    assert np.median(np.nanmax(finite, axis=1) - np.nanmin(finite, axis=1)) > 745
    assert np.array_equal(log_likelihoods(model, x), ref_row_logsumexp(comp).ravel())
    assert np.array_equal(responsibilities(model, x), ref_responsibilities(model, x))


def check_em_step_equals_plain_formula_on_far_apart_clusters(n_per, rtol=0.0):
    """Three EM steps against ``ref_em_step``: bitwise, or within ``rtol``
    after the first step's log-likelihood when it is given."""
    rng = np.random.default_rng(33)
    x = np.vstack([rng.normal(0.0, 1.0, (n_per, 2)), rng.normal(0.0, 1.0, (n_per, 2)) + [60.0, 0.0]])
    # One component per cluster, one 38 sigma beyond the nearest frame (all
    # its log-posteriors lie in exp's slow band, below -700, so its posteriors
    # are 0) and one so far away that exp underflows there; both end up empty.
    start = GmmModel(
        weights=np.full(4, 0.25),
        means=np.array([[0.0, 0.0], [60.0, 0.0], [0.0, x[:, 1].max() + 38.0], [0.0, -80.0]]),
        variances=np.ones((4, 2)),
    )
    comp = ref_component_log_likelihoods(start, x)
    log_resp = comp - ref_row_logsumexp(comp)
    assert -745.2 <= log_resp[:, 2].max() < -708.0
    ours, ref = start, start
    below = []
    for step in range(3):
        comp = ref_component_log_likelihoods(ref, x)
        below.append(np.mean(comp - ref_row_logsumexp(comp) < -708.0))
        ours, ll = em_step(ours, x)
        ref, ref_ll = ref_em_step(ref, x)
        if rtol and step > 0:
            assert ll == pytest.approx(ref_ll, rel=rtol, abs=0.0)
        else:
            assert ll == ref_ll
        assert_models_equal(ours, ref, rtol)
    assert min(below) > 0.05
    assert np.array_equal(responsibilities(start, x), ref_responsibilities(start, x))


@pytest.mark.filterwarnings("ignore:divide by zero encountered in log")
def test_em_step_equals_plain_formula_on_far_apart_clusters():
    check_em_step_equals_plain_formula_on_far_apart_clusters(500)


# UBM training runs its (frames x components) passes in row blocks; each row
# still gets the bits of the whole-matrix formulas, but EM sums its statistics
# block by block, so with more than one block they may round differently.
# The tolerances are the tightest of 1, 2 and 5 times a power of ten that pass
# (measured drift, relative: 1.1e-11 on variances, where Σγx²/Σγ - mean²
# cancels, 2.8e-15 on means, 5.1e-14 on later log-likelihoods; the weights
# were exact).  ``row_block`` None keeps the real block size (2,500 rows span
# three blocks); a small one makes many boundaries on few rows.
@pytest.mark.filterwarnings("ignore:divide by zero encountered in log")
@pytest.mark.parametrize("n_per, row_block", [(1250, None), (500, 64)])
def test_em_step_equals_plain_formula_across_row_blocks(monkeypatch, n_per, row_block):
    if row_block:
        monkeypatch.setattr(gmm, "_ROW_BLOCK", row_block)
    assert len(_row_blocks(2 * n_per)) > 1
    check_em_step_equals_plain_formula_on_far_apart_clusters(n_per, rtol=2e-11)


def per_component_em_step(model, x):
    """One EM step from log N(x; mu_k, sigma_k^2) = -0.5 (D log 2 pi + sum log
    sigma_k^2 + sum (x - mu_k)^2 / sigma_k^2), one component at a time."""
    comp = np.empty((x.shape[0], model.num_components))
    for k in range(model.num_components):
        var = model.variances[k]
        comp[:, k] = np.log(model.weights[k]) - 0.5 * (
            model.dim * np.log(2.0 * np.pi)
            + np.sum(np.log(var))
            + np.sum((x - model.means[k]) ** 2 / var, axis=1)
        )
    log_norm = ref_row_logsumexp(comp)
    post = np.exp(comp - log_norm)
    occupancy = post.sum(axis=0)
    means = (post.T @ x) / occupancy[:, None]
    variances = (post.T @ x**2) / occupancy[:, None] - means**2
    variances = np.maximum(variances, VARIANCE_FLOOR_FRACTION * x.var(axis=0))
    new = GmmModel(weights=occupancy / x.shape[0], means=means, variances=variances)
    return new, float(log_norm.sum())


def test_em_step_matches_per_component_formula_at_mfcc_k512_sizes():
    # D = 57, K = 512, as on the mfcc-k512 benchmark, over three row blocks.
    # Variances wide enough to spread each frame over many components keep
    # every component's statistics an average of many frames, and frames away
    # from 0 keep every mean from being a small difference: measured drift is
    # at most 7e-14 (relative), on variances.
    rng = np.random.default_rng(44)
    m, dim, k = 2600, 57, 512
    x = rng.standard_normal((m, dim)) + 3.0
    model = GmmModel(
        weights=rng.dirichlet(np.full(k, 5.0)),
        means=rng.standard_normal((k, dim)) + 3.0,
        variances=rng.uniform(3.0, 9.0, (k, dim)),
    )
    assert len(_row_blocks(m)) > 1
    ours, ll = em_step(model, x)
    ref, ref_ll = per_component_em_step(model, x)
    assert ref.weights.min() > 0  # no empty component, so no fallback to the old model
    assert ll == pytest.approx(ref_ll, rel=1e-12, abs=0.0)
    assert_models_equal(ours, ref, rtol=1e-12)


def cluster_frames(m):
    rng = np.random.default_rng(34)
    centers = rng.uniform(-10.0, 10.0, (12, 5))
    return centers[rng.integers(12, size=m)] + rng.standard_normal((m, 5))


def test_init_gmm_equals_mask_based_lloyd():
    x = cluster_frames(3000)
    assert_models_equal(init_gmm(x, 16, seed=3), ref_init_gmm(x, 16, seed=3))


@pytest.mark.parametrize("m, row_block", [(1000, None), (2500, None), (3000, 100)])
def test_init_gmm_equals_mask_based_lloyd_across_row_blocks(monkeypatch, m, row_block):
    if row_block:
        monkeypatch.setattr(gmm, "_ROW_BLOCK", row_block)
    x = cluster_frames(m)
    assert_models_equal(init_gmm(x, 16, seed=3), ref_init_gmm(x, 16, seed=3))


@pytest.mark.parametrize("seed", range(20))
def test_init_gmm_equals_mask_based_lloyd_on_duplicate_frames(seed):
    # 3 distinct points x 50 copies: from the third center on, every frame
    # duplicates a center, so its distance must be exactly 0 for the seeding
    # to fall back to a uniform pick as the reference does
    x = np.repeat(np.random.default_rng(37).uniform(-10.0, 10.0, (3, 12)), 50, axis=0)
    assert_models_equal(init_gmm(x, 5, seed=seed), ref_init_gmm(x, 5, seed=seed))


def ref_train_ubm(x, num_components, em_iterations, seed):
    model = ref_init_gmm(x, num_components, seed)
    trace = []
    for _ in range(em_iterations):
        model, ll = ref_em_step(model, x)
        trace.append(ll)
    trace.append(float(ref_row_logsumexp(ref_component_log_likelihoods(model, x)).sum()))
    return model, trace


# EM evaluates each block as one GEMM, [x, x^2, 1] @ design, which associates
# each component's sum differently from the reference's quad + (log w +
# const), so even 1,000 rows, one block, differ from it in the last bits;
# 2,500 rows are several blocks, whose statistics are summed block by block.
# The models and later log-likelihoods drift by at most 1.7e-13 (relative) in
# one block and 3.7e-13 in several, both on variances.
@pytest.mark.parametrize("m, row_block", [(1000, None), (2500, None), (2500, 100)])
def test_train_ubm_equals_whole_matrix_reference(monkeypatch, m, row_block):
    if row_block:
        monkeypatch.setattr(gmm, "_ROW_BLOCK", row_block)
    x = cluster_frames(m)
    model, trace = train_ubm(x, 16, em_iterations=4, seed=3)
    ref_model, ref_trace = ref_train_ubm(x, 16, 4, seed=3)
    assert trace[0] == ref_trace[0]
    np.testing.assert_allclose(trace, ref_trace, rtol=1e-12, atol=0.0)
    assert_models_equal(model, ref_model, rtol=1e-12)


@pytest.mark.parametrize("m, row_block", [(1000, None), (2500, None), (2500, 100)])
def test_train_ubm_is_init_gmm_plus_the_em_step_loop(monkeypatch, m, row_block):
    if row_block:
        monkeypatch.setattr(gmm, "_ROW_BLOCK", row_block)
    x = cluster_frames(m)
    ubm, trace = train_ubm(x, 16, em_iterations=4, seed=3)
    model = init_gmm(x, 16, seed=3)
    want_trace = []
    for _ in range(4):
        model, ll = em_step(model, x)
        want_trace.append(ll)
    want_trace.append(gmm._total_log_likelihood(model, x))
    assert trace == want_trace
    assert_models_equal(ubm, model)


@pytest.mark.parametrize("m", [1, 2, 1023, 1024, 1025, 1026, 2048, 2049, 7863])
def test_row_blocks_cover_frames_in_near_equal_blocks(m):
    blocks = _row_blocks(m)
    assert blocks[0].start == 0 and blocks[-1].stop == m
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    sizes = [b.stop - b.start for b in blocks]
    assert max(sizes) <= gmm._ROW_BLOCK
    assert max(sizes) - min(sizes) <= 1  # no 1- or 2-row sliver at the end


def test_model_scored_twice_gives_identical_results():
    model = spread_model(35, zero_weight=False)
    rng = np.random.default_rng(36)
    x, other = rng.uniform(-70.0, 70.0, (200, 3)), rng.uniform(-70.0, 70.0, (50, 3))
    first = log_likelihoods(model, x)
    log_likelihoods(model, other)
    assert np.array_equal(log_likelihoods(model, x), first)
    assert np.array_equal(responsibilities(model, x), responsibilities(model, x))


def ref_map_adapt(ubm, x, config):
    means = ubm.means.copy()
    for _ in range(config.map_iterations):
        resp = ref_responsibilities(GmmModel(ubm.weights, means, ubm.variances), x)
        occupancy = resp.sum(axis=0)
        data_means = (resp.T @ x) / np.maximum(occupancy, 1e-300)[:, None]
        alpha = occupancy / (occupancy + config.relevance_factor)
        means = alpha[:, None] * data_means + (1.0 - alpha[:, None]) * means
    return GmmModel(ubm.weights.copy(), means, ubm.variances.copy())


def test_map_adapt_equals_plain_iterations():
    ubm = spread_model(37, zero_weight=False)
    x = np.random.default_rng(38).uniform(-70.0, 70.0, (300, 3))
    config = BackendConfig(map_iterations=3, relevance_factor=4.0)
    assert_models_equal(map_adapt(ubm, x, config), ref_map_adapt(ubm, x, config))


def test_variance_term_is_shared_by_models_with_equal_variances():
    ubm = spread_model(39, zero_weight=False)
    rng = np.random.default_rng(40)
    x = rng.uniform(-70.0, 70.0, (200, 3))
    adapted = map_adapt(ubm, rng.uniform(-70.0, 70.0, (100, 3)), BackendConfig())
    term = variance_term(ubm, x)
    assert term.shape == (200, ubm.num_components)
    for model in (ubm, adapted):
        want = ref_row_logsumexp(ref_component_log_likelihoods(model, x)).ravel()
        assert np.array_equal(log_likelihoods(model, x, term), want)
        assert np.array_equal(log_likelihoods(model, x), want)
        assert np.array_equal(responsibilities(model, x, term), ref_responsibilities(model, x))


# --- memory bound of UBM training ---


def traced_peak_bytes(fn) -> int:
    """Peak of the memory traced while ``fn`` runs (numpy reports its buffers)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ubm_training_holds_no_frames_by_components_matrix():
    m, dim, k = 4096, 8, 256
    rng = np.random.default_rng(41)
    x = rng.standard_normal((m, dim)) + rng.integers(0, 20, (m, 1))
    model = init_gmm(x[:1024], k, seed=1)
    full, block, frames_copy = m * k * 8, gmm._ROW_BLOCK * k * 8, m * dim * 8
    assert block * 4 == full
    # em_step: the posterior block, one block's temporaries, x**2 and the like
    assert traced_peak_bytes(lambda: em_step(model, x)) < 3 * block + 3 * frames_copy
    # em_step takes the data variance before its block buffers exist.  On
    # frames wider than those buffers, they are 0.87 copies of the frames and
    # the variance's temporary about one (1.03 measured at peak), so a
    # variance taken while the buffers are held (1.87) fails
    wide = rng.standard_normal((m, 64))
    wide_model = init_gmm(wide[:1024], 64, seed=1)
    em_step(wide_model, wide)  # the model's cached terms are built outside the trace
    assert traced_peak_bytes(lambda: em_step(wide_model, wide)) < 1.25 * wide.nbytes
    # init_gmm: one block of distances plus Lloyd's sorted copy of the frames
    # and its index vectors (block + 1.95 copies measured), so a whole [x, 1]
    # copy, 9/8 of one, or a sorted copy kept beside the next pass's (2.96) fails
    assert traced_peak_bytes(lambda: init_gmm(x, k, seed=1)) < block + 2.25 * frames_copy


# --- the same bits on one BLAS thread ---


def test_scoring_and_map_kernels_give_the_same_bits_on_one_blas_thread():
    # mfcc-k512 sizes: a 130-frame test utterance, 250 enrollment frames per
    # speaker, K=512, D=57.  Every GEMM is above OpenBLAS's threading
    # threshold; each sums over at most 250 terms.  On OpenBLAS 0.3.31 a sum
    # over more than 384 terms (map_adapt's resp.T @ x for a speaker with more
    # than 384 enrollment frames) rounds differently on one thread than on two.
    rng = np.random.default_rng(43)
    k, dim = 512, 57
    ubm = GmmModel(
        weights=rng.dirichlet(np.ones(k)),
        means=rng.standard_normal((k, dim)),
        variances=rng.uniform(0.5, 2.0, (k, dim)),
    )
    test = rng.standard_normal((130, dim))
    enrollment = rng.standard_normal((250, dim))

    def kernels():
        adapted = map_adapt(ubm, enrollment, BackendConfig())
        return log_likelihoods(ubm, test), log_likelihoods(adapted, test), adapted.means

    threaded = kernels()
    with blas.single_thread():
        single = kernels()
    for got, want in zip(single, threaded):
        assert np.array_equal(got, want)
