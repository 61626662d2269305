"""Loss problems: gradient correctness against finite differences and
explicit per-example loops, clipping hooks, and the noise wrapper."""

import tracemalloc

import numpy as np
import pytest

from dpsrgd.geometry import clip_rows
from dpsrgd.objectives import (
    GradientNoiseWrapper,
    LogisticTask,
    LossProblem,
    SyntheticQuadratic,
)


def _quadratic(dim=5, noise_scale=0.4, seed=0):
    rng = np.random.default_rng(seed)
    target = rng.standard_normal(dim)
    target *= 0.6 / np.linalg.norm(target)
    return SyntheticQuadratic(dim=dim, target=target, curvature=1.3,
                              noise_scale=noise_scale, radius=1.0)


def _logistic(n=40, p=4, classes=3, seed=0, with_eval=True):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, p))
    labels = rng.integers(0, classes, size=n)
    eval_feats = rng.standard_normal((n // 2, p)) if with_eval else None
    eval_labels = rng.integers(0, classes, size=n // 2) if with_eval else None
    return LogisticTask(features=feats, labels=labels, num_classes=classes,
                        eval_features=eval_feats, eval_labels=eval_labels)


def _fd_grad(problem, x, batch, h=1e-6):
    """Central-difference gradient of the mean batch loss."""
    grad = np.zeros_like(x)
    for i in range(x.shape[0]):
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (problem.per_example_values(up, batch).mean()
                   - problem.per_example_values(down, batch).mean()) / (2 * h)
    return grad


# ---------------------------------------------------------------------------
# gradient oracles


def test_quadratic_grads_match_finite_differences():
    problem = _quadratic()
    rng = np.random.default_rng(3)
    batch = problem.draw_batch(rng, 7)
    x = rng.standard_normal(problem.dim) * 0.5
    analytic = problem.per_example_grads(x, batch).mean(axis=0)
    np.testing.assert_allclose(analytic, _fd_grad(problem, x, batch),
                               rtol=0, atol=1e-7)


def test_logistic_grads_match_finite_differences():
    problem = _logistic()
    rng = np.random.default_rng(4)
    batch = problem.draw_batch(rng, 9)
    x = rng.standard_normal(problem.dim) * 0.3
    analytic = problem.per_example_grads(x, batch).mean(axis=0)
    np.testing.assert_allclose(analytic, _fd_grad(problem, x, batch),
                               rtol=0, atol=1e-6)


def test_quadratic_population_metrics():
    problem = _quadratic(noise_scale=0.0)
    x = problem.target + np.array([0.2, 0, 0, 0, 0])
    assert problem.population_excess(x) == pytest.approx(
        0.5 * problem.curvature * 0.04, rel=1e-12)
    np.testing.assert_array_equal(problem.exact_optimum(), problem.target)
    np.testing.assert_allclose(problem.population_grad(x),
                               problem.curvature * (x - problem.target))
    assert problem.population_excess(problem.target) == 0.0


@pytest.mark.parametrize("field,bad", [
    ("curvature", 0.0), ("curvature", -1.0), ("curvature", np.nan), ("curvature", np.inf),
    ("noise_scale", -0.5), ("noise_scale", np.nan), ("noise_scale", np.inf)])
def test_quadratic_rejects_nonpositive_curvature_or_negative_noise(field, bad):
    # a negative noise_scale would flip every clamped draw through the
    # target; a zero curvature has no minimizer; an infinite one of either
    # makes every draw or gradient non-finite
    kwargs = dict(dim=3, target=np.zeros(3), curvature=1.0, noise_scale=0.5)
    kwargs[field] = bad
    with pytest.raises(ValueError, match=field):
        SyntheticQuadratic(**kwargs)


def test_quadratic_examples_stay_near_target():
    problem = _quadratic(noise_scale=0.4)
    batch = problem.draw_batch(np.random.default_rng(5), 200)
    dev = np.linalg.norm(batch - problem.target, axis=1)
    assert dev.max() <= 0.4 + 1e-12


def _draw_batch_reference(problem, rng, size):
    """draw_batch's boolean-mask clamp, written out."""
    raw = rng.standard_normal((size, problem.dim)) * (
        problem.noise_scale / max(np.sqrt(problem.dim), 1.0))
    norms = np.linalg.norm(raw, axis=1)
    over = norms > problem.noise_scale
    if np.any(over):
        raw[over] *= (problem.noise_scale / norms[over])[:, None]
    return problem.target[None, :] + raw


@pytest.mark.parametrize("dim,size,noise_scale", [
    (20, 256, 1.0), (5, 37, 0.4), (1, 9, 2.0), (64, 3, 0.7), (3, 50, 0.0)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_draw_batch_equals_the_boolean_mask_clamp(dim, size, noise_scale, seed):
    problem = _quadratic(dim=dim, noise_scale=noise_scale, seed=seed)
    got = problem.draw_batch(np.random.default_rng(seed + 40), size)
    want = _draw_batch_reference(problem, np.random.default_rng(seed + 40), size)
    np.testing.assert_array_equal(got, want)


def test_draw_batch_with_no_row_clamped_equals_the_reference():
    # in one dimension at this seed no draw exceeds the bound, so the
    # clamp's scale is never built
    problem = _quadratic(dim=1, noise_scale=0.4, seed=4)
    rng_seed = 29
    raw = np.random.default_rng(rng_seed).standard_normal((8, 1)) * 0.4
    assert np.all(np.abs(raw) <= 0.4)
    got = problem.draw_batch(np.random.default_rng(rng_seed), 8)
    want = _draw_batch_reference(problem, np.random.default_rng(rng_seed), 8)
    np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# clipping hooks against explicit loops


@pytest.mark.parametrize("make", [_quadratic, _logistic])
@pytest.mark.parametrize("c_clip", [0.3, 2.0, np.inf])
def test_clipped_mean_matches_row_loop(make, c_clip):
    problem = make()
    rng = np.random.default_rng(6)
    batch = problem.draw_batch(rng, 11)
    x = rng.standard_normal(problem.dim) * 0.4
    rows = problem.per_example_grads(x, batch)
    expected = clip_rows(rows, c_clip).mean(axis=0)
    np.testing.assert_allclose(problem.clipped_mean_grad(x, batch, c_clip)[0],
                               expected, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("make", [_quadratic, _logistic])
@pytest.mark.parametrize("c_clip", [0.5, 3.0, np.inf])
@pytest.mark.parametrize("w_prev", [0.0, 2.0])
def test_srg_mean_matches_row_loop(make, c_clip, w_prev):
    problem = make()
    rng = np.random.default_rng(7)
    batch = problem.draw_batch(rng, 10)
    x_t = rng.standard_normal(problem.dim) * 0.4
    x_prev = rng.standard_normal(problem.dim) * 0.4
    w_t = 3.0
    rows = (w_t * problem.per_example_grads(x_t, batch)
            - w_prev * problem.per_example_grads(x_prev, batch))
    expected = clip_rows(rows, c_clip).mean(axis=0)
    got = problem.srg_mean(x_t, x_prev, w_t, w_prev, batch, c_clip)[0]
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)


def _noisy_quadratic():
    return GradientNoiseWrapper(_quadratic(), 0.3, seed=21)


@pytest.mark.parametrize("make", [_quadratic, _noisy_quadratic, _logistic])
@pytest.mark.parametrize("c_clip", [0.0, 0.5, np.inf])
@pytest.mark.parametrize("hook", ["clipped_mean_grad", "srg_mean"])
def test_hooks_leave_the_batch_and_both_points_unchanged(make, c_clip, hook):
    # the default hooks overwrite the arrays per_example_grads returns, so
    # those must never be the caller's batch or points
    problem = make()
    rng = np.random.default_rng(17)
    batch = problem.draw_batch(rng, 9)
    x_t = rng.standard_normal(problem.dim) * 0.4
    x_prev = rng.standard_normal(problem.dim) * 0.4
    saved = [a.copy() for a in (batch, x_t, x_prev)]
    if hook == "srg_mean":
        problem.srg_mean(x_t, x_prev, 3.0, 2.0, batch, c_clip)
    else:
        problem.clipped_mean_grad(x_t, batch, c_clip)
    for got, want in zip((batch, x_t, x_prev), saved):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("make", [_quadratic, _noisy_quadratic])
@pytest.mark.parametrize("c_clip", [0.0, 0.5, 3.0, np.inf])
@pytest.mark.parametrize("w_prev", [0.0, 2.0])
def test_default_hooks_equal_the_temporaries_reference_bit_for_bit(make, c_clip, w_prev):
    # the increment is formed and clipped in place; every bit must be what
    # w_t * g_t - w_prev * g_p, clipped on a copy and averaged, gives
    problem, twin = make(), make()
    rng = np.random.default_rng(18)
    batch = problem.draw_batch(rng, 12)
    x_t = rng.standard_normal(problem.dim) * 0.4
    x_prev = rng.standard_normal(problem.dim) * 0.4
    w_t = 3.0
    rows = (w_t * twin.per_example_grads(x_t, batch)
            - w_prev * twin.per_example_grads(x_prev, batch))
    want = clip_rows(rows, c_clip).mean(axis=0)
    got, loss = problem.srg_mean(x_t, x_prev, w_t, w_prev, batch, c_clip)
    np.testing.assert_array_equal(got, want)
    assert loss == float(twin.per_example_values(x_t, batch).mean())
    want = clip_rows(twin.per_example_grads(x_t, batch), c_clip).mean(axis=0)
    np.testing.assert_array_equal(problem.clipped_mean_grad(x_t, batch, c_clip)[0], want)


@pytest.mark.parametrize("make", [_quadratic, _logistic])
@pytest.mark.parametrize("c_clip", [0.5, np.inf])
def test_hooks_return_train_loss_at_current_point(make, c_clip):
    problem = make()
    rng = np.random.default_rng(16)
    batch = problem.draw_batch(rng, 10)
    x_t = rng.standard_normal(problem.dim) * 0.4
    x_prev = rng.standard_normal(problem.dim) * 0.4
    want = float(problem.per_example_values(x_t, batch).mean())
    _, loss = problem.clipped_mean_grad(x_t, batch, c_clip)
    assert loss == want
    _, loss = problem.srg_mean(x_t, x_prev, 3.0, 2.0, batch, c_clip)
    assert loss == want


def _softmax_err_and_loss(logits, labels):
    """One evaluation point's softmax error and cross-entropy, written out
    element by element as the unfused task computed them."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    rows = np.arange(len(labels))
    loss = -(shifted - np.log(total))[rows, labels]
    err = e / total
    err[rows, labels] -= 1.0
    return err, loss


def _two_point_srg_reference(task, x_t, x_prev, w_t, w_prev, idx, c_clip,
                             logits_t, logits_prev):
    """srg_mean from two separate softmax evaluations: the clipped mean of
    the rank-one rows outer(w_t*err_t - w_prev*err_prev, phi)."""
    labels = task.labels[idx]
    err_t, loss = _softmax_err_and_loss(logits_t, labels)
    err = w_t * err_t - w_prev * _softmax_err_and_loss(logits_prev, labels)[0]
    scale = np.ones(len(idx))
    if np.isfinite(c_clip):
        norms = np.linalg.norm(err, axis=1) * task.feature_norms[idx]
        over = norms > c_clip
        scale[over] = c_clip / norms[over]
    grad = ((err * (scale / len(idx))[:, None]).T @ task.features[idx])
    return grad.reshape(task.dim), float(loss.mean())


@pytest.mark.parametrize("rows", [1, 10])
@pytest.mark.parametrize("c_clip", [0.5, np.inf])
@pytest.mark.parametrize("w_prev", [0.0, 2.0])
def test_srg_mean_equals_two_point_reference(rows, c_clip, w_prev):
    # the fused step's softmax, loss, recursion and clip arithmetic is the
    # per-point arithmetic exactly. The reference takes each point's logits
    # from the same stacked GEMM: how a BLAS splits a GEMM into kernels can
    # depend on its width, which is a property of the library, not of the
    # arithmetic under test (see the next test for the benchmark's shape).
    problem = _logistic(n=40, p=6, classes=4, seed=17)
    rng = np.random.default_rng(18)
    idx = problem.draw_batch(rng, rows)
    x_t = rng.standard_normal(problem.dim)
    x_prev = rng.standard_normal(problem.dim)
    logits = problem.features[idx] @ np.concatenate(
        [problem._weights(x_t), problem._weights(x_prev)]).T
    k = problem.num_classes
    want_g, want_loss = _two_point_srg_reference(
        problem, x_t, x_prev, 3.0, w_prev, idx, c_clip, logits[:, :k], logits[:, k:])
    got_g, got_loss = problem.srg_mean(x_t, x_prev, 3.0, w_prev, idx, c_clip)
    np.testing.assert_array_equal(got_g, want_g)
    assert got_loss == want_loss


def _mnist_shaped(n=1000, p=785, classes=10, seed=0):
    rng = np.random.default_rng(seed)
    feats = (rng.random((n, p)) < 0.2) * rng.random((n, p))
    feats[:, -1] = 1.0
    return LogisticTask(features=feats, labels=rng.integers(0, classes, size=n),
                        num_classes=classes)


@pytest.mark.parametrize("c_clip", [0.5, np.inf])
@pytest.mark.parametrize("w_prev", [0.0, 2.0])
def test_srg_mean_equals_two_separate_forwards_at_batch_shape(c_clip, w_prev):
    # at a 500-row batch of 785 features and 10 classes, the MNIST shape,
    # one GEMM of width 20 returns the bits of two GEMMs of width 10, so
    # the fused step reproduces the two-forward figures exactly
    problem = _mnist_shaped()
    rng = np.random.default_rng(19)
    idx = problem.draw_batch(rng, 500)
    x_t = rng.standard_normal(problem.dim) * 0.05
    x_prev = rng.standard_normal(problem.dim) * 0.05
    phi = problem.features[idx]
    want_g, want_loss = _two_point_srg_reference(
        problem, x_t, x_prev, 3.0, w_prev, idx, c_clip,
        phi @ problem._weights(x_t).T, phi @ problem._weights(x_prev).T)
    got_g, got_loss = problem.srg_mean(x_t, x_prev, 3.0, w_prev, idx, c_clip)
    np.testing.assert_array_equal(got_g, want_g)
    assert got_loss == want_loss


def test_srg_mean_peak_memory_is_the_gathered_batch_plus_slack():
    # the gathered (500, 785) feature rows dominate a step's memory; the
    # stacked weights and softmax buffers are freed before the backward
    # matmul, so the rest stays within a fixed slack
    problem = _mnist_shaped()
    rng = np.random.default_rng(20)
    idx = problem.draw_batch(rng, 500)
    x_t = rng.standard_normal(problem.dim) * 0.05
    x_prev = rng.standard_normal(problem.dim) * 0.05
    problem.srg_mean(x_t, x_prev, 3.0, 2.0, idx, 1.0)  # warm any lazy set-up
    batch_bytes = 500 * problem.n_features * 8
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        problem.srg_mean(x_t, x_prev, 3.0, 2.0, idx, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= batch_bytes + 300_000


@pytest.mark.parametrize("c_clip", [0.5, np.inf])
def test_consecutive_batch_reads_in_place_with_the_gathered_figures(c_clip):
    # a consecutive index range is read through slice views; the figures
    # are those of the gathered copy of the same rows, bit for bit
    problem = _mnist_shaped()
    rng = np.random.default_rng(25)
    idx = np.arange(300, 800)
    x_t = rng.standard_normal(problem.dim) * 0.05
    x_prev = rng.standard_normal(problem.dim) * 0.05
    phi = problem.features[idx]
    logits_t = phi @ problem._weights(x_t).T
    want_g, want_loss = _two_point_srg_reference(
        problem, x_t, x_prev, 3.0, 2.0, idx, c_clip,
        logits_t, phi @ problem._weights(x_prev).T)
    got_g, got_loss = problem.srg_mean(x_t, x_prev, 3.0, 2.0, idx, c_clip)
    np.testing.assert_array_equal(got_g, want_g)
    assert got_loss == want_loss
    want_g, want_loss = _two_point_srg_reference(
        problem, x_t, x_t, 1.0, 0.0, idx, c_clip, logits_t, logits_t)
    got_g, got_loss = problem.clipped_mean_grad(x_t, idx, c_clip)
    np.testing.assert_array_equal(got_g, want_g)
    assert got_loss == want_loss


def test_consecutive_batch_out_of_range_still_raises():
    problem = _logistic(n=40)
    x = np.zeros(problem.dim)
    for idx in (np.arange(36, 44), np.arange(-45, -37)):
        with pytest.raises(IndexError):
            problem.srg_mean(x, x, 1.0, 1.0, idx, 1.0)
        with pytest.raises(IndexError):
            problem.clipped_mean_grad(x, idx, 1.0)


@pytest.mark.parametrize("idx", [np.arange(-3, 2), np.array([5, 0, -1]),
                                 np.array([-40])])
def test_index_batch_below_zero_raises(idx):
    # numpy would wrap these to rows from the end of the training arrays
    problem = _logistic(n=40)
    x = np.zeros(problem.dim)
    with pytest.raises(IndexError, match="negative"):
        problem.srg_mean(x, x, 1.0, 0.0, idx, 1.0)
    with pytest.raises(IndexError, match="negative"):
        problem.clipped_mean_grad(x, idx, 1.0)
    with pytest.raises(IndexError, match="negative"):
        problem.per_example_values(x, idx)


def test_feature_norms_are_the_row_norms_across_blocks():
    # 9000 rows span three blocks of the blocked norm
    rng = np.random.default_rng(41)
    feats = rng.standard_normal((9000, 7))
    eval_feats = rng.standard_normal((5000, 7)) * 3.0
    task = LogisticTask(features=feats, labels=rng.integers(0, 3, size=9000),
                        num_classes=3, eval_features=eval_feats,
                        eval_labels=rng.integers(0, 3, size=5000))
    np.testing.assert_array_equal(task.feature_norms, np.linalg.norm(feats, axis=1))
    max_row = float(np.max(np.linalg.norm(eval_feats, axis=1)))
    assert max_row > float(task.feature_norms.max())
    assert task.lipschitz == np.sqrt(2.0) * max_row
    assert task.smoothness == 0.5 * max_row**2


def test_consecutive_batch_peak_memory_holds_no_batch_copy():
    # the (500, 785) rows of a consecutive batch are not copied: a step's
    # peak is the slack of the gathered-batch guard above, with no batch
    problem = _mnist_shaped()
    rng = np.random.default_rng(26)
    idx = np.arange(0, 500)
    x_t = rng.standard_normal(problem.dim) * 0.05
    x_prev = rng.standard_normal(problem.dim) * 0.05
    problem.srg_mean(x_t, x_prev, 3.0, 2.0, idx, 1.0)  # warm any lazy set-up
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        problem.srg_mean(x_t, x_prev, 3.0, 2.0, idx, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 300_000


def _heldout_reference(problem, x):
    """(Mean cross-entropy, accuracy in percent) over the held-out split,
    or the training split when there is none, from the unfused formulas."""
    feats, labels = problem.eval_features, problem.eval_labels
    if feats is None:
        feats, labels = problem.features, problem.labels
    logits = feats @ problem._weights(x).T
    loss = float(_softmax_err_and_loss(logits, labels)[1].mean())
    return loss, 100.0 * float((logits.argmax(axis=1) == labels).mean())


@pytest.mark.parametrize("with_eval", [True, False])
def test_excess_and_accuracy_is_one_heldout_pass(with_eval):
    problem = _logistic(n=60, with_eval=with_eval, seed=21)
    x = np.random.default_rng(22).standard_normal(problem.dim)
    got = problem.excess_and_accuracy(x)
    assert got == _heldout_reference(problem, x)
    assert got == (problem.population_excess(x), problem.accuracy(x))


def test_excess_and_accuracy_default_has_no_accuracy():
    problem = _quadratic()
    x = np.full(problem.dim, 0.2)
    assert problem.excess_and_accuracy(x) == (problem.population_excess(x), None)
    wrapper = GradientNoiseWrapper(_logistic(), 0.1, seed=23)
    x = np.zeros(wrapper.dim)
    assert wrapper.excess_and_accuracy(x) == (wrapper.population_excess(x), None)


@pytest.mark.parametrize("bad", [-0.5, np.nan])
def test_logistic_hooks_reject_negative_or_nan_clip(bad):
    problem = _logistic()
    batch = problem.draw_batch(np.random.default_rng(24), 5)
    x = np.zeros(problem.dim)
    with pytest.raises(ValueError, match="nonnegative"):
        problem.clipped_mean_grad(x, batch, bad)
    with pytest.raises(ValueError, match="nonnegative"):
        problem.srg_mean(x, x, 1.0, 1.0, batch, bad)


class _CountingQuadratic(SyntheticQuadratic):
    """Counts per-example gradient evaluations (rows x calls)."""

    def __post_init__(self):
        super().__post_init__()
        self.grad_rows = 0

    def per_example_grads(self, x, batch):
        self.grad_rows += len(batch)
        return super().per_example_grads(x, batch)


def test_srg_mean_always_evaluates_both_points():
    # every example costs two gradient evaluations even when the previous
    # weight is zero, keeping per-step cost independent of the weights
    problem = _CountingQuadratic(dim=4, target=np.zeros(4), curvature=1.0,
                                 noise_scale=0.2, radius=1.0)
    batch = problem.draw_batch(np.random.default_rng(8), 6)
    x = np.zeros(4)
    problem.srg_mean(x, x, 1.0, 0.0, batch)
    assert problem.grad_rows == 12


# ---------------------------------------------------------------------------
# logistic task specifics


def test_logistic_accuracy_halves_partition_eval_set():
    problem = _logistic(n=40, seed=9)
    x = np.random.default_rng(10).standard_normal(problem.dim)
    full = problem.accuracy(x)
    even = problem.accuracy(x, half="even")
    odd = problem.accuracy(x, half="odd")
    n_eval = problem.eval_labels.shape[0]
    n_even = (n_eval + 1) // 2
    n_odd = n_eval // 2
    recombined = (even * n_even + odd * n_odd) / n_eval
    assert recombined == pytest.approx(full, abs=1e-9)
    with pytest.raises(ValueError):
        problem.accuracy(x, half="upper")


def test_logistic_accuracy_falls_back_to_train_split():
    problem = _logistic(with_eval=False)
    x = np.zeros(problem.dim)
    acc = problem.accuracy(x)
    assert 0.0 <= acc <= 100.0


def test_logistic_validation_errors():
    with pytest.raises(ValueError):
        LogisticTask(features=np.zeros((4, 2)), labels=np.zeros(3, dtype=int),
                     num_classes=2)
    with pytest.raises(ValueError):
        LogisticTask(features=np.zeros((4, 2)),
                     labels=np.array([0, 1, 2, 0]), num_classes=2)
    train = dict(features=np.zeros((4, 2)), labels=np.array([0, 1, 1, 0]),
                 num_classes=2)
    bad_eval = [
        (np.zeros((10, 2)), np.zeros(8, dtype=int)),       # rows != labels
        (np.zeros((3, 5)), np.zeros(3, dtype=int)),        # columns != n_features
        (np.zeros((3, 2)), np.array([0, -1, 1])),          # label below 0
        (np.zeros((3, 2)), np.array([0, 2, 1])),           # label >= num_classes
        (np.zeros((3, 2)), None),                          # features alone
        (None, np.zeros(3, dtype=int)),                    # labels alone
    ]
    for eval_features, eval_labels in bad_eval:
        with pytest.raises(ValueError):
            LogisticTask(**train, eval_features=eval_features, eval_labels=eval_labels)
    LogisticTask(**train, eval_features=np.zeros((3, 2)), eval_labels=np.array([0, 1, 1]))


def test_logistic_loss_is_cross_entropy():
    problem = _logistic(classes=2)
    x = np.zeros(problem.dim)
    vals = problem.per_example_values(x, np.arange(5))
    np.testing.assert_allclose(vals, np.log(2.0), rtol=1e-12)


# ---------------------------------------------------------------------------
# gradient noise wrapper


def test_noise_wrapper_adds_fresh_per_call_noise():
    base = _quadratic(noise_scale=0.0)
    wrapper = GradientNoiseWrapper(base, 0.5, seed=11)
    batch = base.draw_batch(np.random.default_rng(12), 6)
    x = np.zeros(base.dim)
    g1 = wrapper.per_example_grads(x, batch)
    g2 = wrapper.per_example_grads(x, batch)
    clean = base.per_example_grads(x, batch)
    assert np.abs(g1 - clean).max() > 0
    assert np.abs(g1 - g2).max() > 0  # fresh draw per call
    assert g1.shape == clean.shape


def test_noise_wrapper_noise_is_centered():
    base = _quadratic(noise_scale=0.0)
    wrapper = GradientNoiseWrapper(base, 0.7, seed=13)
    batch = base.draw_batch(np.random.default_rng(14), 4)
    x = np.zeros(base.dim)
    clean = base.per_example_grads(x, batch)
    draws = np.stack([wrapper.per_example_grads(x, batch) - clean
                      for _ in range(3000)])
    assert np.abs(draws.mean(axis=0)).max() < 0.06
    assert draws.std() == pytest.approx(0.7, rel=0.05)


def test_noise_wrapper_delegates_metrics():
    base = _quadratic(noise_scale=0.0)
    wrapper = GradientNoiseWrapper(base, 0.5, seed=15)
    x = np.full(base.dim, 0.1)
    assert wrapper.population_excess(x) == base.population_excess(x)
    np.testing.assert_array_equal(wrapper.exact_optimum(), base.exact_optimum())
    assert wrapper.dim == base.dim


def test_loss_problem_base_raises():
    base = LossProblem()
    with pytest.raises(NotImplementedError):
        base.per_example_values(np.zeros(2), [])
    with pytest.raises(NotImplementedError):
        base.per_example_grads(np.zeros(2), [])
