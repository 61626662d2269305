"""Loss problems: gradient correctness against finite differences and
explicit per-example loops, clipping hooks, and the noise wrapper."""

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


def test_quadratic_examples_stay_near_target():
    problem = _quadratic(noise_scale=0.4)
    batch = problem.draw_batch(np.random.default_rng(5), 200)
    dev = np.linalg.norm(batch - problem.target, axis=1)
    assert dev.max() <= 0.4 + 1e-12


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
