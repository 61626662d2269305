"""Loss problems: gradient correctness against finite differences and
explicit per-example loops, clipping hooks, and the noise wrapper."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from dpsrgd import objectives
from dpsrgd.geometry import clip_rows
from dpsrgd.harness import ExperimentSpec, _hit_percent, _selection_metrics
from dpsrgd.objectives import LogisticTask, LossProblem, SyntheticQuadratic
from dpsrgd.verify import _GradientNoiseWrapper

from bound_cases import check_case, params


def _quadratic(dim=5, noise_scale=0.4, seed=0, curvature=1.3):
    rng = np.random.default_rng(seed)
    target = rng.standard_normal(dim)
    target *= 0.6 / np.linalg.norm(target)
    return SyntheticQuadratic(dim=dim, target=target, curvature=curvature,
                              noise_scale=noise_scale, radius=1.0)


def _unit_quadratic():
    # curvature 1.0, where the fused hooks skip the curvature multiply
    return _quadratic(curvature=1.0)


def _logistic(n=40, p=4, classes=3, seed=0, with_eval=True):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, p))
    labels = rng.integers(0, classes, size=n)
    eval_feats = rng.standard_normal((n // 2, p)) if with_eval else None
    eval_labels = rng.integers(0, classes, size=n // 2) if with_eval else None
    return LogisticTask(features=feats, labels=labels, num_classes=classes,
                        eval_features=eval_feats, eval_labels=eval_labels)


def _draw(problem, rng, size):
    """A batch of `size`: the quadratic's drawn examples (the wrapped one's
    under the noise wrapper), or indices into a logistic task's training
    rows drawn with replacement."""
    if isinstance(problem, _GradientNoiseWrapper):
        problem = problem.base
    if isinstance(problem, LogisticTask):
        return rng.integers(0, problem.n_train, size)
    return problem.draw_batch(rng, size)


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
    batch = rng.integers(0, problem.n_train, 9)
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
    batch = _draw(problem, rng, 11)
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
    batch = _draw(problem, rng, 10)
    x_t = rng.standard_normal(problem.dim) * 0.4
    x_prev = rng.standard_normal(problem.dim) * 0.4
    w_t = 3.0
    rows = (w_t * problem.per_example_grads(x_t, batch)
            - w_prev * problem.per_example_grads(x_prev, batch))
    expected = clip_rows(rows, c_clip).mean(axis=0)
    got = problem.srg_mean(np.stack([x_t, x_prev]), w_t, w_prev, batch, c_clip)[0]
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)


def _noisy_quadratic():
    return _GradientNoiseWrapper(_quadratic(), 0.3, seed=21)


@pytest.mark.parametrize("make", [_quadratic, _noisy_quadratic, _logistic])
@pytest.mark.parametrize("c_clip", [0.0, 0.5, np.inf])
@pytest.mark.parametrize("hook", ["clipped_mean_grad", "srg_mean"])
def test_hooks_leave_the_batch_and_both_points_unchanged(make, c_clip, hook):
    # the default hooks overwrite the arrays per_example_grads returns, so
    # those must never be the caller's batch or points
    problem = make()
    rng = np.random.default_rng(17)
    batch = _draw(problem, rng, 9)
    x_t = rng.standard_normal(problem.dim) * 0.4
    x_prev = rng.standard_normal(problem.dim) * 0.4
    points = np.stack([x_t, x_prev])
    x_t, x_prev = points  # views: the rows the hook reads
    saved = [a.copy() for a in (batch, x_t, x_prev)]
    if hook == "srg_mean":
        problem.srg_mean(points, 3.0, 2.0, batch, c_clip)
    else:
        problem.clipped_mean_grad(x_t, batch, c_clip)
    for got, want in zip((batch, x_t, x_prev), saved):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("make", [_quadratic, _unit_quadratic, _noisy_quadratic])
@pytest.mark.parametrize("c_clip", [0.0, 0.5, 3.0, np.inf])
@pytest.mark.parametrize("w_prev", [0.0, 2.0])
def test_default_hooks_equal_the_temporaries_reference_bit_for_bit(make, c_clip, w_prev):
    # the increment is formed and clipped in place; every bit must be what
    # w_t * g_t - w_prev * g_p, clipped on a copy and averaged, gives
    problem, twin = make(), make()
    rng = np.random.default_rng(18)
    batch = _draw(problem, rng, 12)
    x_t = rng.standard_normal(problem.dim) * 0.4
    x_prev = rng.standard_normal(problem.dim) * 0.4
    w_t = 3.0
    rows = (w_t * twin.per_example_grads(x_t, batch)
            - w_prev * twin.per_example_grads(x_prev, batch))
    want = clip_rows(rows, c_clip).mean(axis=0)
    got, loss = problem.srg_mean(np.stack([x_t, x_prev]), w_t, w_prev, batch, c_clip)
    np.testing.assert_array_equal(got, want)
    assert loss == float(twin.per_example_values(x_t, batch).mean())
    want = clip_rows(twin.per_example_grads(x_t, batch), c_clip).mean(axis=0)
    np.testing.assert_array_equal(problem.clipped_mean_grad(x_t, batch, c_clip)[0], want)


@pytest.mark.parametrize("make", [_quadratic, _unit_quadratic])
@pytest.mark.parametrize("c_clip", [0.5, np.inf])
def test_srg_mean_evaluates_a_nan_previous_point_at_zero_weight(make, c_clip):
    # 0 * NaN is NaN: the hook still evaluates x_prev at w_prev = 0, so a
    # NaN there poisons the increment exactly as the written-out one
    problem = make()
    rng = np.random.default_rng(19)
    batch = problem.draw_batch(rng, 8)
    x_t = rng.standard_normal(problem.dim) * 0.4
    x_prev = np.full(problem.dim, np.nan)
    got, loss = problem.srg_mean(np.stack([x_t, x_prev]), 1.0, 0.0, batch, c_clip)
    rows = (1.0 * problem.curvature * (x_t - batch)
            - 0.0 * problem.curvature * (x_prev - batch))
    reference = clip_rows(rows, c_clip).mean(axis=0)
    reference_loss = float((0.5 * problem.curvature
                            * ((x_t - batch) ** 2).sum(axis=1)).mean())
    assert np.isnan(got).all() and np.isnan(reference).all()
    assert loss == pytest.approx(reference_loss, rel=1e-12)
    assert loss == float(problem.per_example_values(x_t, batch).mean())


@pytest.mark.parametrize("make", [lambda: SyntheticQuadratic(dim=3, target=np.zeros(3)),
                                  _noisy_quadratic, _logistic],
                         ids=["quadratic_dim3", "noisy_quadratic", "logistic"])
def test_hooks_reject_points_of_another_shape(make):
    # a quadratic would broadcast a (1,) point to (1, 1, 1), and a (4, d)
    # one against a 4-example batch, and return gradients at other points
    problem = make()
    d = problem.dim
    batch = _draw(problem, np.random.default_rng(36), 4)
    for x in (np.ones(1), np.ones((4, d)), np.ones(d + 1), np.ones((2, d))):
        with pytest.raises(ValueError, match=re.escape(f"x has shape {x.shape}, want ({d},)")):
            problem.clipped_mean_grad(x, batch, 1.0)
    for points in (np.ones(d), np.ones((1, d)), np.ones((4, d)), np.ones((2, 1)),
                   np.ones((2, d, 1))):
        with pytest.raises(ValueError, match=re.escape(
                f"points has shape {points.shape}, want (2, {d})")):
            problem.srg_mean(points, 1.0, 0.5, batch, 1.0)


def test_logistic_per_example_methods_reject_a_pair_of_points():
    # the logistic forward pass reads a (2, dim) array as srg_mean's pair
    problem = _logistic()
    points = np.zeros((2, problem.dim))
    for method in (problem.per_example_values, problem.per_example_grads):
        with pytest.raises(ValueError, match=re.escape(f"x has shape {points.shape}")):
            method(points, np.arange(5))


@pytest.mark.parametrize("make", [lambda: SyntheticQuadratic(dim=3, target=np.zeros(3)),
                                  _noisy_quadratic], ids=["quadratic_dim3", "noisy_quadratic"])
def test_quadratic_public_methods_reject_points_of_another_shape(make):
    # a (1,) point was broadcast to (1, 1, 1): per_example_grads returned
    # the (4, 3) gradients there and population_excess 1.5, and a (4, 3)
    # point gave one loss per row at that row's own point; the noise
    # wrapper delegates to these methods, so it rejects them too
    problem = make()
    d = problem.dim
    batch = _draw(problem, np.random.default_rng(37), 4)
    for x in (np.ones(1), np.ones((4, d)), np.ones(d + 1), np.ones((2, d))):
        for method, args in (("per_example_grads", (batch,)),
                             ("per_example_values", (batch,)), ("population_excess", ())):
            with pytest.raises(ValueError, match=re.escape(f"x has shape {x.shape}, want ({d},)")):
                getattr(problem, method)(x, *args)


def _cli_shaped_quadratic_step():
    """A quadratic at the synthetic benchmark's shape, B = 256 and d = 20:
    (problem, batch, x_t, x_prev)."""
    problem = SyntheticQuadratic(dim=20, target=np.full(20, 0.1), noise_scale=0.5)
    rng = np.random.default_rng(20)
    batch = problem.draw_batch(rng, 256)
    x_t = rng.standard_normal(problem.dim) * 0.3
    x_prev = rng.standard_normal(problem.dim) * 0.3
    return problem, batch, x_t, x_prev


def _traced_peak(call) -> int:
    """Bytes a second call(), after one to warm any lazy set-up, holds at
    its peak above what was held before it."""
    call()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("wrap", [lambda p: _GradientNoiseWrapper(p, 0.3, seed=22),
                                  lambda p: p], ids=["generic", "quadratic"])
def test_srg_mean_leaves_the_nan_of_infinite_gradients_to_the_runner(wrap):
    # both points infinite: inf - 0.5 * inf is NaN, returned without a
    # RuntimeWarning (an error under the suite's filter) for the runner's
    # finite check to abort on, through the default pass (on the noise
    # wrapper) and the quadratic's fused one
    problem = wrap(SyntheticQuadratic(dim=3, target=np.zeros(3)))
    x = np.full(3, np.inf)
    g, _ = problem.srg_mean(np.stack([x, x]), 1.0, 0.5, np.zeros((4, 3)))
    assert np.isnan(g).all()


@pytest.mark.parametrize("c_clip", [0.5, np.inf])
def test_quadratic_srg_mean_holds_two_residual_arrays(c_clip):
    # one residual per evaluation point, each formed without numpy's
    # broadcast buffer, and the previous point's is freed before the clip:
    # the generic hook's three live (B, d) arrays, or a broadcast
    # residual's hidden buffer, exceed this bound at this shape
    problem, batch, x_t, x_prev = _cli_shaped_quadratic_step()
    points = np.stack([x_t, x_prev])
    peak = _traced_peak(lambda: problem.srg_mean(points, 3.0, 2.0, batch, c_clip))
    assert peak < 2.5 * batch.nbytes


@pytest.mark.parametrize("c_clip", [0.5, np.inf])
def test_quadratic_clipped_mean_grad_holds_two_batch_arrays(c_clip):
    # the residual and, while the loss is read off it, its squares
    problem, batch, x_t, _ = _cli_shaped_quadratic_step()
    peak = _traced_peak(lambda: problem.clipped_mean_grad(x_t, batch, c_clip))
    assert peak < 2.5 * batch.nbytes


def test_quadratic_per_example_grads_holds_one_batch_array():
    # the returned gradients alone: no broadcast buffer beside them
    problem, batch, x_t, _ = _cli_shaped_quadratic_step()
    peak = _traced_peak(lambda: problem.per_example_grads(x_t, batch))
    assert peak < 1.5 * batch.nbytes


@pytest.mark.parametrize("batch", [
    np.random.default_rng(21).standard_normal((7, 5)),
    np.random.default_rng(22).standard_normal((7, 5)).astype(np.float32),
    np.random.default_rng(23).integers(-9, 9, size=(7, 5)),
    np.random.default_rng(24).standard_normal((1, 5)),
], ids=["float64", "float32", "int64", "one-row"])
def test_quadratic_residuals_equal_the_broadcast_difference(batch):
    x = np.random.default_rng(25).standard_normal(5) * 1e3
    got = SyntheticQuadratic._residuals(x, batch)
    want = x[None, :] - batch
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, batch)


@pytest.mark.parametrize("make", [_quadratic, _logistic])
@pytest.mark.parametrize("c_clip", [0.5, np.inf])
def test_hooks_return_train_loss_at_current_point(make, c_clip):
    problem = make()
    rng = np.random.default_rng(16)
    batch = _draw(problem, rng, 10)
    x_t = rng.standard_normal(problem.dim) * 0.4
    x_prev = rng.standard_normal(problem.dim) * 0.4
    want = float(problem.per_example_values(x_t, batch).mean())
    _, loss = problem.clipped_mean_grad(x_t, batch, c_clip)
    assert loss == want
    _, loss = problem.srg_mean(np.stack([x_t, x_prev]), 3.0, 2.0, batch, c_clip)
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
                             logits_t, logits_prev, blocks=1):
    """srg_mean from two separate softmax evaluations: the clipped mean of
    the rank-one rows outer(w_t*err_t - w_prev*err_prev, phi), as the sum,
    in order, of one matmul per block of `blocks` near-equal consecutive
    row blocks."""
    labels = task.labels[idx]
    err_t, loss = _softmax_err_and_loss(logits_t, labels)
    err = w_t * err_t - w_prev * _softmax_err_and_loss(logits_prev, labels)[0]
    scale = np.ones(len(idx))
    if np.isfinite(c_clip):
        norms = np.linalg.norm(err, axis=1) * task.feature_norms[idx]
        over = norms > c_clip
        scale[over] = c_clip / norms[over]
    weighted = err * (scale / len(idx))[:, None]
    m = len(idx)
    grad = 0.0
    for i in range(blocks):
        lo, hi = i * m // blocks, (i + 1) * m // blocks
        part = weighted[lo:hi].T @ task.features[idx[lo:hi]]
        grad = part if i == 0 else grad + part
    return grad.reshape(task.dim), float(loss.mean())


def _gathered_blocks(task, m: int) -> int:
    """How many near-equal blocks an m-row gathered batch is read in: the
    fewest whose rows each fit _GATHER_BYTES."""
    rows = objectives._GATHER_BYTES // (8 * task.n_features)
    return max(1, -(-m // rows))


def _assert_close_to_one_gemm(got, want):
    """got equals want to 1e-12 relative to want's largest entry: a blocked
    sum rounds differently from one matmul, and an entry that cancels to
    far below the largest keeps only that absolute error."""
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())


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
    idx = rng.integers(0, problem.n_train, rows)
    x_t = rng.standard_normal(problem.dim)
    x_prev = rng.standard_normal(problem.dim)
    logits = problem.features[idx] @ np.concatenate(
        [problem._weights(x_t), problem._weights(x_prev)]).T
    k = problem.num_classes
    want_g, want_loss = _two_point_srg_reference(
        problem, x_t, x_prev, 3.0, w_prev, idx, c_clip, logits[:, :k], logits[:, k:])
    got_g, got_loss = problem.srg_mean(np.stack([x_t, x_prev]), 3.0, w_prev, idx, c_clip)
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
    # one GEMM of width 20 per block returns the bits of two GEMMs of width
    # 10 over the whole batch, so the fused step reproduces the two-forward
    # figures exactly, its backward sum taken block by block
    problem = _mnist_shaped()
    rng = np.random.default_rng(19)
    idx = rng.integers(0, problem.n_train, 500)
    x_t = rng.standard_normal(problem.dim) * 0.05
    x_prev = rng.standard_normal(problem.dim) * 0.05
    phi = problem.features[idx]
    logits = (phi @ problem._weights(x_t).T, phi @ problem._weights(x_prev).T)
    want_g, want_loss = _two_point_srg_reference(
        problem, x_t, x_prev, 3.0, w_prev, idx, c_clip, *logits,
        blocks=_gathered_blocks(problem, 500))
    got_g, got_loss = problem.srg_mean(np.stack([x_t, x_prev]), 3.0, w_prev, idx, c_clip)
    np.testing.assert_array_equal(got_g, want_g)
    assert got_loss == want_loss
    _assert_close_to_one_gemm(got_g, _two_point_srg_reference(
        problem, x_t, x_prev, 3.0, w_prev, idx, c_clip, *logits)[0])


def test_gathered_block_is_sized_to_a_core_cache():
    # 100 to 125 rows of the MNIST shape's 785 features: 0.6 to 0.8 MB
    problem = _mnist_shaped(n=10)
    assert 100 <= objectives._GATHER_BYTES // (8 * problem.n_features) <= 125
    assert _gathered_blocks(problem, 500) == 4


def test_srg_mean_peak_memory_is_the_gathered_batch_plus_slack():
    # a gathered batch is read one block of (125, 785) feature rows at a
    # time, and the blocks dominate a step's memory; the stacked weights
    # and softmax buffers are freed before each backward matmul, so the
    # rest stays within a fixed slack
    problem = _mnist_shaped()
    rng = np.random.default_rng(20)
    idx = rng.integers(0, problem.n_train, 500)
    x_t = rng.standard_normal(problem.dim) * 0.05
    x_prev = rng.standard_normal(problem.dim) * 0.05
    points = np.stack([x_t, x_prev])
    problem.srg_mean(points, 3.0, 2.0, idx, 1.0)  # warm any lazy set-up
    batch_bytes = -(-500 // _gathered_blocks(problem, 500)) * problem.n_features * 8
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        problem.srg_mean(points, 3.0, 2.0, idx, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= batch_bytes + 300_000


def test_srg_mean_reads_both_points_in_place_at_mnist_shape():
    # the (2, d) points are read where they lie, as the stacked (2K, p)
    # weights of each block's logits GEMM, and the recursion and clip scale
    # take no hidden ufunc buffer: beside one gathered block a step holds
    # the block's (K, p) product and the accumulator, where a copy of the
    # stacked weights alone would add two rows of d floats
    problem = _mnist_shaped()
    rng = np.random.default_rng(20)
    idx = rng.integers(0, problem.n_train, 500)
    points = rng.standard_normal((2, problem.dim)) * 0.05
    batch_bytes = -(-500 // _gathered_blocks(problem, 500)) * problem.n_features * 8
    peak = _traced_peak(lambda: problem.srg_mean(points, 3.0, 2.0, idx, 1.0))
    assert peak <= batch_bytes + 2.75 * 8 * problem.dim


def test_consecutive_srg_mean_at_memf_shape_holds_no_stacked_weights():
    # a multi-epoch run's fixed 500-row batch is one in-place block: the
    # (500, 2K) logits, the two halves' copies the recursion combines and
    # the (K, p) product, with no stacked weights or ufunc buffer beside them
    problem = _mnist_shaped()
    rng = np.random.default_rng(26)
    points = rng.standard_normal((2, problem.dim)) * 0.05
    idx = np.arange(0, 500)
    assert _traced_peak(lambda: problem.srg_mean(points, 1.0, 0.5, idx, 1.0)) <= 185_000


def test_gathered_step_peak_memory_does_not_grow_with_the_batch():
    # four times the rows add only the (m,) loss and index arrays
    problem = _mnist_shaped()
    rng = np.random.default_rng(32)
    x_t = rng.standard_normal(problem.dim) * 0.05
    x_prev = rng.standard_normal(problem.dim) * 0.05
    points = np.stack([x_t, x_prev])
    peaks = []
    for size in (500, 2000):
        idx = rng.integers(0, problem.n_train, size)
        peaks.append(_traced_peak(lambda: problem.srg_mean(points, 3.0, 2.0, idx, 1.0)))
        peaks.append(_traced_peak(lambda: problem.clipped_mean_grad(x_t, idx, 1.0)))
    assert peaks[2] <= peaks[0] + 50_000
    assert peaks[3] <= peaks[1] + 50_000


@pytest.mark.parametrize("c_clip", [0.5, np.inf])
@pytest.mark.parametrize("rows", ["one", "block", "uneven"])
def test_blocked_hooks_equal_the_one_gemm_reference(rows, c_clip):
    # one row; exactly one block's rows; and 501 rows, which split into
    # blocks of unequal size
    problem = _mnist_shaped()
    size = {"one": 1, "block": objectives._GATHER_BYTES // (8 * problem.n_features),
            "uneven": 501}[rows]
    assert _gathered_blocks(problem, size) == {"one": 1, "block": 1, "uneven": 5}[rows]
    rng = np.random.default_rng(33)
    idx = rng.integers(0, problem.n_train, size)
    x_t = rng.standard_normal(problem.dim) * 0.05
    x_prev = rng.standard_normal(problem.dim) * 0.05
    phi = problem.features[idx]
    logits_t = phi @ problem._weights(x_t).T
    want_g, want_loss = _two_point_srg_reference(
        problem, x_t, x_prev, 3.0, 2.0, idx, c_clip,
        logits_t, phi @ problem._weights(x_prev).T)
    got_g, got_loss = problem.srg_mean(np.stack([x_t, x_prev]), 3.0, 2.0, idx, c_clip)
    _assert_close_to_one_gemm(got_g, want_g)
    assert got_loss == want_loss
    want_g, want_loss = _two_point_srg_reference(
        problem, x_t, x_t, 1.0, 0.0, idx, c_clip, logits_t, logits_t)
    got_g, got_loss = problem.clipped_mean_grad(x_t, idx, c_clip)
    _assert_close_to_one_gemm(got_g, want_g)
    assert got_loss == want_loss


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
    got_g, got_loss = problem.srg_mean(np.stack([x_t, x_prev]), 3.0, 2.0, idx, c_clip)
    np.testing.assert_array_equal(got_g, want_g)
    assert got_loss == want_loss
    want_g, want_loss = _two_point_srg_reference(
        problem, x_t, x_t, 1.0, 0.0, idx, c_clip, logits_t, logits_t)
    got_g, got_loss = problem.clipped_mean_grad(x_t, idx, c_clip)
    np.testing.assert_array_equal(got_g, want_g)
    assert got_loss == want_loss


@pytest.mark.parametrize("c_clip", [0.5, np.inf])
def test_clipped_mean_grad_on_a_gathered_batch_equals_the_reference(c_clip):
    # the single-point hooks take their logits with the class rows on the
    # left; on each block of 500 gathered, non-consecutive rows of the MNIST
    # shape, and for the per-example losses on all 500, they give the bits
    # of feats @ W.T
    problem = _mnist_shaped()
    rng = np.random.default_rng(27)
    idx = rng.permutation(problem.n_train)[:500]
    x = rng.standard_normal(problem.dim) * 0.05
    logits = problem.features[idx] @ problem._weights(x).T
    # a GEMM of a block's rows may round otherwise than one of all 500
    blocks = _gathered_blocks(problem, 500)
    block_logits = np.concatenate([
        problem.features[idx[i * 500 // blocks:(i + 1) * 500 // blocks]]
        @ problem._weights(x).T for i in range(blocks)])
    want_g, want_loss = _two_point_srg_reference(
        problem, x, x, 1.0, 0.0, idx, c_clip, block_logits, block_logits, blocks=blocks)
    got_g, got_loss = problem.clipped_mean_grad(x, idx, c_clip)
    np.testing.assert_array_equal(got_g, want_g)
    assert got_loss == want_loss
    _assert_close_to_one_gemm(got_g, _two_point_srg_reference(
        problem, x, x, 1.0, 0.0, idx, c_clip, logits, logits)[0])
    np.testing.assert_array_equal(problem.per_example_values(x, idx),
                                  _softmax_err_and_loss(logits, problem.labels[idx])[1])


def test_consecutive_batch_out_of_range_still_raises():
    problem = _logistic(n=40)
    x = np.zeros(problem.dim)
    for idx in (np.arange(36, 44), np.arange(-45, -37)):
        with pytest.raises(IndexError):
            problem.srg_mean(np.stack([x, x]), 1.0, 1.0, idx, 1.0)
        with pytest.raises(IndexError):
            problem.clipped_mean_grad(x, idx, 1.0)


@pytest.mark.parametrize("idx", [np.arange(-3, 2), np.array([5, 0, -1]),
                                 np.array([-40])])
def test_index_batch_below_zero_raises(idx):
    # numpy would wrap these to rows from the end of the training arrays
    problem = _logistic(n=40)
    x = np.zeros(problem.dim)
    with pytest.raises(IndexError, match="negative"):
        problem.srg_mean(np.stack([x, x]), 1.0, 0.0, idx, 1.0)
    with pytest.raises(IndexError, match="negative"):
        problem.clipped_mean_grad(x, idx, 1.0)
    with pytest.raises(IndexError, match="negative"):
        problem.per_example_values(x, idx)


@pytest.mark.parametrize("batch", [[2**64 - 1, 3], [2**63], [3, 2**63 + 5]])
def test_uint64_index_past_intp_raises(batch):
    # cast to intp it would wrap negative, and numpy read a row from the end
    problem = _logistic(n=6)
    idx = np.array(batch, dtype=np.uint64)
    x = np.zeros(problem.dim)
    with pytest.raises(IndexError, match="out of range"):
        problem.srg_mean(np.stack([x, x]), 1.0, 0.0, idx, 1.0)
    with pytest.raises(IndexError, match="out of range"):
        problem.clipped_mean_grad(x, idx, 1.0)
    with pytest.raises(IndexError, match="out of range"):
        problem.per_example_values(x, idx)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
def test_unsigned_consecutive_batch_is_read_as_a_slice(dtype):
    problem = _logistic(n=40)
    assert problem._select(np.arange(10, 30, dtype=dtype)) == slice(10, 30)
    assert problem._select(np.arange(0, 40, dtype=dtype)) == slice(0, 40)
    # one past the end is left to the gather, which raises
    with pytest.raises(IndexError):
        problem.clipped_mean_grad(np.zeros(problem.dim),
                                  np.arange(36, 44, dtype=dtype), 1.0)


@pytest.mark.parametrize("c_clip", [0.5, np.inf])
@pytest.mark.parametrize("dtype", [np.uint16, np.uint32, np.int32])
def test_gathered_narrow_batch_gives_the_int64_figures(dtype, c_clip):
    problem = _mnist_shaped()
    rng = np.random.default_rng(28)
    idx = rng.permutation(problem.n_train)[:500]
    narrow = idx.astype(dtype)
    sel = problem._select(narrow)
    assert sel.dtype == np.intp
    np.testing.assert_array_equal(sel, idx)
    x_t = rng.standard_normal(problem.dim) * 0.05
    x_prev = rng.standard_normal(problem.dim) * 0.05
    for want, got in (
            (problem.clipped_mean_grad(x_t, idx, c_clip),
             problem.clipped_mean_grad(x_t, narrow, c_clip)),
            (problem.srg_mean(np.stack([x_t, x_prev]), 3.0, 2.0, idx, c_clip),
             problem.srg_mean(np.stack([x_t, x_prev]), 3.0, 2.0, narrow, c_clip))):
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]


@pytest.mark.parametrize("batch", [[5, 4], [0, 2, 1, 3], [255, 0], [3, 2, 1, 0]])
def test_unsigned_batch_ends_never_wrap(batch):
    # last - first of a uint8 batch taken in uint8 would wrap and warn; a
    # step of 1 modulo 256 is a step of 1 only when the steps sum to size - 1
    problem = _logistic(n=300)
    idx = np.array(batch, dtype=np.uint8)
    x = np.random.default_rng(29).standard_normal(problem.dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sel = problem._select(idx)
        got = problem.clipped_mean_grad(x, idx, 1.0)
    np.testing.assert_array_equal(sel, batch)
    want = problem.clipped_mean_grad(x, np.array(batch), 1.0)
    np.testing.assert_array_equal(got[0], want[0])
    assert got[1] == want[1]


def test_logistic_row_norm_overflow_raises_no_warning():
    feats = np.ones((4, 3))
    feats[2] = 1e200
    eval_feats = np.ones((2, 3))
    eval_feats[1, 0] = -1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        task = LogisticTask(features=feats, labels=np.array([0, 1, 1, 0]), num_classes=2,
                            eval_features=eval_feats, eval_labels=np.array([0, 1]))
        assert task.lipschitz == np.inf
        assert task.feature_norms[2] == np.inf
        feats[0, 0] = np.inf
        # an infinite norm still goes to the entry test
        with pytest.raises(ValueError, match="non-finite"):
            LogisticTask(features=feats, labels=np.array([0, 1, 1, 0]), num_classes=2)


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
    points = np.stack([x_t, x_prev])
    problem.srg_mean(points, 3.0, 2.0, idx, 1.0)  # warm any lazy set-up
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        problem.srg_mean(points, 3.0, 2.0, idx, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 300_000


# the harness's scoring of a finished run without honest selection
_SCORE = ExperimentSpec(task="csv-dataset")


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
def test_heldout_pass_scores_a_run_as_the_reference_does(with_eval):
    problem = _logistic(n=60, with_eval=with_eval, seed=21)
    x = np.random.default_rng(22).standard_normal(problem.dim)
    loss, hits = problem.heldout_pass(x)
    assert (loss, _hit_percent(hits)) == _heldout_reference(problem, x)
    assert _selection_metrics(_SCORE, problem, x) == (_hit_percent(hits),) * 2 + (loss,)


def _mnist_shaped_with_heldout(n_eval=10000):
    rng = np.random.default_rng(28)
    task = _mnist_shaped(n=500, seed=29)
    eval_feats = (rng.random((n_eval, task.n_features)) < 0.2) * rng.random(
        (n_eval, task.n_features))
    eval_feats[:, -1] = 1.0
    return LogisticTask(features=task.features, labels=task.labels,
                        num_classes=task.num_classes, eval_features=eval_feats,
                        eval_labels=rng.integers(0, task.num_classes, size=n_eval))


@pytest.mark.parametrize("make", [
    lambda: _logistic(n=60, p=6, classes=4, seed=30), _mnist_shaped_with_heldout,
    lambda: _mnist_shaped_with_heldout(n_eval=2 * objectives._HELDOUT_ROWS + 1)],
    ids=["small", "mnist_10000", "mnist_4097"])
def test_heldout_figures_equal_the_feats_at_weights_reference(make):
    # the held-out pass takes its logits with the class rows on the left,
    # in near-equal blocks (4097 rows make three); loss, accuracy and every
    # row's hit keep the bits of one feats @ W.T over the whole split, so
    # the even and odd halves of the hit mask do too
    problem = make()
    x = np.random.default_rng(31).standard_normal(problem.dim) * 0.05
    loss, hits = problem.heldout_pass(x)
    assert (loss, _hit_percent(hits)) == _heldout_reference(problem, x)
    feats, labels = problem.eval_features, problem.eval_labels
    pred = (feats @ problem._weights(x).T).argmax(axis=1)
    np.testing.assert_array_equal(hits, pred == labels, strict=True)
    for rows in (slice(None), slice(0, None, 2), slice(1, None, 2)):
        assert (100.0 * (np.count_nonzero(hits[rows]) / hits[rows].size)
                == 100.0 * float((pred[rows] == labels[rows]).mean()))


def test_heldout_pass_holds_no_logits_of_the_whole_set():
    # one (10000, 10) logits array alone would take 800 KB
    problem = _mnist_shaped_with_heldout()
    x = np.random.default_rng(35).standard_normal(problem.dim) * 0.05
    assert _traced_peak(lambda: _selection_metrics(_SCORE, problem, x)) < 10000 * 10 * 8
    # the pass that also returns the 90 KB of losses and hit mask
    assert _traced_peak(lambda: problem.heldout_pass(x)) < 10000 * 10 * 8


def test_heldout_pass_default_has_no_hit_mask():
    problem = _quadratic()
    x = np.full(problem.dim, 0.2)
    assert problem.heldout_pass(x) == (problem.population_excess(x), None)
    wrapper = _GradientNoiseWrapper(_quadratic(), 0.1, seed=23)
    x = np.zeros(wrapper.dim)
    assert wrapper.heldout_pass(x) == (wrapper.population_excess(x), None)


@pytest.mark.parametrize("bad", [-0.5, np.nan])
def test_logistic_hooks_reject_negative_or_nan_clip(bad):
    problem = _logistic()
    batch = np.random.default_rng(24).integers(0, problem.n_train, 5)
    x = np.zeros(problem.dim)
    message = re.escape(f"clip must lie in [0, inf], got {bad!r}")
    with pytest.raises(ValueError, match=message):
        problem.clipped_mean_grad(x, batch, bad)
    with pytest.raises(ValueError, match=message):
        problem.srg_mean(np.stack([x, x]), 1.0, 1.0, batch, bad)


class _CountingQuadratic(SyntheticQuadratic):
    """Counts per-example gradient evaluations (rows x calls)."""

    _grads_and_loss = LossProblem._grads_and_loss  # calls per_example_grads

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
    problem.srg_mean(np.stack([x, x]), 1.0, 0.0, batch)
    assert problem.grad_rows == 12


# ---------------------------------------------------------------------------
# logistic task specifics


def test_logistic_accuracy_halves_partition_eval_set():
    problem = _logistic(n=40, seed=9)
    x = np.random.default_rng(10).standard_normal(problem.dim)
    full = _selection_metrics(_SCORE, problem, x)[1]
    hits = problem.heldout_pass(x)[1]
    even = 100.0 * float(hits[0::2].mean())
    odd = 100.0 * float(hits[1::2].mean())
    n_eval = problem.eval_labels.shape[0]
    n_even = (n_eval + 1) // 2
    n_odd = n_eval // 2
    assert hits.shape == (n_eval,)
    recombined = (even * n_even + odd * n_odd) / n_eval
    assert recombined == pytest.approx(full, abs=1e-9)


def test_logistic_accuracy_falls_back_to_train_split():
    problem = _logistic(with_eval=False)
    x = np.zeros(problem.dim)
    acc = _selection_metrics(_SCORE, problem, x)[1]
    assert 0.0 <= acc <= 100.0
    assert problem.heldout_pass(x)[1].shape == (problem.n_train,)


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


@pytest.mark.parametrize("batch", [np.arange(20) % 4 == 0, np.arange(5.0)],
                         ids=["bool_mask", "float"])
def test_batch_that_is_not_an_integer_index_array_raises(batch):
    # a 20-entry mask that reads 5 rows has length 20, the batch size the
    # correlated noise of the MF runners is scaled by
    problem = _logistic(n=40)
    x = np.zeros(problem.dim)
    with pytest.raises(ValueError, match="integer index array"):
        problem.clipped_mean_grad(x, batch, 1.0)
    with pytest.raises(ValueError, match="integer index array"):
        problem.srg_mean(np.stack([x, x]), 1.0, 1.0, batch, 1.0)
    with pytest.raises(ValueError, match="integer index array"):
        problem.per_example_values(x, batch)


@pytest.mark.parametrize("hook", ["clipped_mean_grad", "srg_mean", "per_example_values"])
@pytest.mark.parametrize("batch", [np.array(3), np.arange(6).reshape(2, 3)],
                         ids=["0-d", "2-d"])
def test_index_batch_that_is_not_1d_raises(hook, batch):
    # the hooks line a batch's rows up with its per-example losses; a 0-d
    # or 2-d index array would fail later, in len() or a reshape or matmul
    problem = _logistic(n=40)
    x = np.zeros(problem.dim)
    calls = {"clipped_mean_grad": lambda: problem.clipped_mean_grad(x, batch, 1.0),
             "srg_mean": lambda: problem.srg_mean(np.stack([x, x]), 1.0, 0.0, batch, 1.0),
             "per_example_values": lambda: problem.per_example_values(x, batch)}
    with pytest.raises(ValueError, match=re.escape(f"1-d index array, got shape {batch.shape}")):
        calls[hook]()


@pytest.mark.parametrize("split", ["train", "eval"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_logistic_rejects_non_finite_features(split, bad):
    feats, eval_feats = np.ones((4, 3)), np.ones((3, 3))
    (feats if split == "train" else eval_feats)[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        LogisticTask(features=feats, labels=np.array([0, 1, 1, 0]), num_classes=2,
                     eval_features=eval_feats, eval_labels=np.array([0, 1, 1]))


def test_logistic_accepts_finite_features_whose_row_norm_overflows():
    feats = np.ones((4, 3))
    feats[2] = 1e200
    with np.errstate(over="ignore"):
        task = LogisticTask(features=feats, labels=np.array([0, 1, 1, 0]), num_classes=2)
    assert task.lipschitz == np.inf


@pytest.mark.parametrize("split", ["train", "eval"])
def test_logistic_rejects_non_integer_labels(split):
    good = np.array([0.0, 1.0, 1.0, 0.0])
    for bad in (good + 0.5, np.array([0.0, np.nan, 1.0, 0.0]), np.array(list("0110"))):
        labels, eval_labels = (bad, good) if split == "train" else (good, bad)
        with pytest.raises(ValueError, match="labels must be integers"):
            LogisticTask(features=np.ones((4, 2)), labels=labels, num_classes=2,
                         eval_features=np.ones((4, 2)), eval_labels=eval_labels)
    with pytest.raises(ValueError, match="out of range"):
        LogisticTask(features=np.ones((4, 2)), labels=np.array([0.0, np.inf, 1.0, 0.0]),
                     num_classes=2)
    task = LogisticTask(features=np.ones((4, 2)), labels=good, num_classes=2,
                        eval_features=np.ones((4, 2)), eval_labels=good)
    np.testing.assert_array_equal(task.labels, [0, 1, 1, 0])
    assert task.labels.dtype == np.int64 and task.eval_labels.dtype == np.int64


def test_logistic_rejects_an_empty_split():
    with pytest.raises(ValueError, match="training split is empty"):
        LogisticTask(features=np.ones((0, 2)), labels=np.zeros(0, dtype=int), num_classes=2)
    with pytest.raises(ValueError, match="eval split is empty"):
        LogisticTask(features=np.ones((4, 2)), labels=np.array([0, 1, 1, 0]),
                     num_classes=2, eval_features=np.ones((0, 2)),
                     eval_labels=np.zeros(0, dtype=int))


def test_logistic_loss_is_cross_entropy():
    problem = _logistic(classes=2)
    x = np.zeros(problem.dim)
    vals = problem.per_example_values(x, np.arange(5))
    np.testing.assert_allclose(vals, np.log(2.0), rtol=1e-12)


# ---------------------------------------------------------------------------
# gradient noise wrapper


def test_noise_wrapper_adds_fresh_per_call_noise():
    base = _quadratic(noise_scale=0.0)
    wrapper = _GradientNoiseWrapper(base, 0.5, seed=11)
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
    wrapper = _GradientNoiseWrapper(base, 0.7, seed=13)
    batch = base.draw_batch(np.random.default_rng(14), 4)
    x = np.zeros(base.dim)
    clean = base.per_example_grads(x, batch)
    draws = np.stack([wrapper.per_example_grads(x, batch) - clean
                      for _ in range(3000)])
    assert np.abs(draws.mean(axis=0)).max() < 0.06
    assert draws.std() == pytest.approx(0.7, rel=0.05)


def test_noise_wrapper_delegates_metrics():
    base = _quadratic(noise_scale=0.0)
    wrapper = _GradientNoiseWrapper(base, 0.5, seed=15)
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


def _quadratic_with(**kwargs):
    return SyntheticQuadratic(dim=2, target=np.zeros(2), **kwargs)


@pytest.mark.parametrize("call, name, interval, value, ok", params([
    ("SyntheticQuadratic", lambda v: _quadratic_with(curvature=v), "curvature", "(0, inf)"),
    ("SyntheticQuadratic", lambda v: _quadratic_with(noise_scale=v), "noise_scale",
     "[0, inf)"),
    ("SyntheticQuadratic", lambda v: _quadratic_with(radius=v), "radius", "(0, inf)"),
    # num_classes=2.5 was accepted, and gave dim 7.5
    ("LogisticTask", lambda v: LogisticTask(features=np.ones((2, 3)), labels=[0, 0],
                                            num_classes=v), "num_classes", "{1, 2, ...}"),
]))
def test_every_objectives_bound_rejects_nan_and_values_outside_in_one_form(
        call, name, interval, value, ok):
    check_case(call, name, interval, value, ok)


@pytest.mark.parametrize("radius", [-1.0, 0.0, np.nan])
def test_synthetic_quadratic_rejects_a_radius_that_bounds_no_ball(radius):
    # radius=-1 gave a Lipschitz constant of -0.5 and NaN a NaN one, and at
    # an infinite clip that constant sizes srgd_sigma
    with pytest.raises(ValueError, match=re.escape(
            f"radius must lie in (0, inf), got {radius!r}")):
        _quadratic_with(curvature=0.5, radius=radius)
