"""Optimizer runners: schedule validation, equivalence to reference
update loops, noise-substitution identity, reductions between
algorithms, variance growth, and abort behavior."""

import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from dpsrgd.counting import (
    TreeState,
    build_strategy,
    factorize,
    gaussian_rows,
    identity_strategy,
    mf_noise_stream,
    tree_ingest,
    tree_prefix,
    tree_rows,
    tree_sens,
)
from dpsrgd.geometry import ConstraintBall, all_finite, clip_rows, interpolate, project_ball
from dpsrgd.harness import _noise_sigma
from dpsrgd.objectives import LogisticTask, LossProblem, SyntheticQuadratic
from dpsrgd.optim import (
    MemfConfig,
    RunAborted,
    SrgdConfig,
    _check_finite,
    _drive,
    potential,
    run_accelerated_dp_srgd,
    run_dp_srg_memf,
    run_independent_variant,
)
from dpsrgd.verify import (
    _frozen_srg_estimates,
    _GradientNoiseWrapper,
    _linear_fit,
    _variance_probe,
)

from dense_reference import build_workload


def _quadratic(dim=6, noise_scale=0.4, target_norm=0.6, seed=0, cls=SyntheticQuadratic):
    rng = np.random.default_rng(seed)
    target = rng.standard_normal(dim)
    target *= target_norm / np.linalg.norm(target)
    return cls(dim=dim, target=target, curvature=1.0, noise_scale=noise_scale, radius=1.0)


def _batches(problem, T, B, seed=1):
    data = problem.draw_batch(np.random.default_rng(seed), T * B)
    return [data[t * B:(t + 1) * B] for t in range(T)]


class _QueryPoints:
    """Task mixin: srg_mean keeps a copy of the (2, dim) points, rows x_t
    and x_prev, of every call in `points`, the query points of an
    accelerated run on the task: the runner overwrites its points array
    after each step."""

    def __post_init__(self):
        super().__post_init__()
        self.points = []

    def srg_mean(self, points, *args, **kwargs):
        self.points.append(points.copy())
        return super().srg_mean(points, *args, **kwargs)


class _RecordingQuadratic(_QueryPoints, SyntheticQuadratic):
    pass


class _RecordingLogistic(_QueryPoints, LogisticTask):
    pass


def _schedule(T):
    """The accelerated runners' schedule, written out: eta_t = t + 1 for
    t = 0..T, their prefix sums eta_{0:t}, and tau_t = eta_t / eta_{0:t}."""
    eta = np.arange(1.0, T + 2.0)
    cumsum = np.cumsum(eta)
    return eta, cumsum, eta / cumsum


# ---------------------------------------------------------------------------
# schedule configuration


def test_schedule_validation_errors():
    ball = ConstraintBall(2, 1.0)
    with pytest.raises(ValueError):
        SrgdConfig(T=0, beta=10.0, ball=ball)
    with pytest.raises(ValueError):
        SrgdConfig(T=3, beta=0.0, ball=ball)
    with pytest.raises(ValueError):  # sigma is the noise stream's, checked at the call
        tree_rows(-1.0, 2, 0, 3)


@pytest.mark.parametrize("field,value", [
    ("beta", math.nan), ("beta", math.inf), ("sigma", math.nan),
    ("sigma", math.inf), ("clip", math.nan), ("clip", -1.0)])
def test_srgd_config_rejects_bad_scalars(field, value):
    if field == "sigma":
        # the SRG runners' noise streams check it when they are built
        for rows in (tree_rows, gaussian_rows):
            with pytest.raises(ValueError, match=field):
                rows(value, 2, 0, 3)
        return
    with pytest.raises(ValueError, match=field):
        SrgdConfig(**{"T": 3, "beta": 1.0, "ball": ConstraintBall(2, 1.0), field: value})


# ---------------------------------------------------------------------------
# accelerated runner against a reference update loop


def _tree_prefixes(T, dim, sigma, seed):
    """The prefix noise rows of a TreeState, ingested step by step."""
    tree = TreeState(T, dim, sigma=sigma, seed=seed)
    return (tree_prefix(tree_ingest(tree, i), i) for i in range(1, T + 1))


def _reference_accelerated(problem, batches, cfg, rows):
    """The accelerated loop on the given noise rows; returns the final
    point and the query point of every step."""
    eta, _, tau = _schedule(cfg.T)
    x = np.zeros(problem.dim)
    y, z, prev = x, x, x
    total = np.zeros(problem.dim)
    xs = []
    for t, (batch, row) in enumerate(zip(batches, rows)):
        xs.append(x)
        w_prev = eta[t - 1] if t > 0 else 0.0
        total += problem.srg_mean(np.stack([x, prev]), eta[t], w_prev, batch)[0]
        estimate = total + row
        grad_est = estimate / eta[t]
        z = project_ball(z - (eta[t] / cfg.beta) * grad_est, cfg.ball)
        y = project_ball(x - grad_est / cfg.beta, cfg.ball)
        prev = x
        x = interpolate(y, z, tau[t + 1])
    return y, xs


def test_accelerated_runner_matches_reference_loop():
    problem = _quadratic()
    T, B = 12, 5
    batches = _batches(problem, T, B)
    cfg = SrgdConfig(T=T, beta=2.0 * T, ball=ConstraintBall(problem.dim, 1.0))
    rec = run_accelerated_dp_srgd(problem, iter(batches), tree_rows(0.8, problem.dim, 9, T),
                                  cfg)
    ref, _ = _reference_accelerated(problem, batches, cfg,
                                    _tree_prefixes(T, problem.dim, 0.8, 9))
    np.testing.assert_allclose(rec.final_x, ref, rtol=0, atol=1e-12)


def _hand_rows(T, dim):
    """T noise rows written out by hand, no generator behind them."""
    return [0.05 * np.cos(np.arange(dim) * (t + 1)) * (-1) ** t for t in range(T)]


def test_accelerated_runner_adds_the_rows_it_is_handed():
    problem, recorder = _quadratic(), _quadratic(cls=_RecordingQuadratic)
    T, B = 10, 5
    batches = _batches(problem, T, B, seed=47)
    cfg = SrgdConfig(T=T, beta=2.0 * T, ball=ConstraintBall(problem.dim, 1.0))
    rows = _hand_rows(T, problem.dim)
    rec = run_accelerated_dp_srgd(recorder, iter(batches), rows, cfg)
    y, xs = _reference_accelerated(problem, batches, cfg, rows)
    np.testing.assert_allclose(rec.final_x, y, rtol=0, atol=1e-12)
    np.testing.assert_allclose([x for x, _ in recorder.points], xs, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rec.noise_norm,
                               [np.linalg.norm(r) / cfg.beta for r in rows], rtol=1e-12)


class _PointsSpy(_QueryPoints, SyntheticQuadratic):
    """_QueryPoints that also keeps the points array of every call."""

    def __post_init__(self):
        super().__post_init__()
        self.received = []

    def srg_mean(self, points, *args, **kwargs):
        self.received.append(points)
        return super().srg_mean(points, *args, **kwargs)


def test_srg_hook_reads_both_points_from_the_step_loops_one_array():
    # every step hands the hook the loop's own C-contiguous (2, dim) array,
    # row 0 the step's x_t and row 1 its x_{t-1} (0 at the first step)
    problem, spy = _quadratic(), _quadratic(cls=_PointsSpy)
    T, B = 10, 5
    batches = _batches(problem, T, B, seed=49)
    cfg = SrgdConfig(T=T, beta=2.0 * T, ball=ConstraintBall(problem.dim, 1.0))
    rows = _hand_rows(T, problem.dim)
    run_accelerated_dp_srgd(spy, iter(batches), rows, cfg)
    _, xs = _reference_accelerated(problem, batches, cfg, rows)
    points = spy.received[0]
    assert len(spy.received) == T and all(p is points for p in spy.received)
    assert type(points) is np.ndarray and points.dtype == np.float64
    assert points.shape == (2, problem.dim) and points.flags.c_contiguous
    for t, (x_t, x_prev) in enumerate(spy.points):
        np.testing.assert_allclose(x_t, xs[t], rtol=0, atol=1e-12)
        np.testing.assert_allclose(x_prev, xs[t - 1] if t > 0 else 0.0, rtol=0, atol=1e-12)


def _reference_accelerated_trajectory(problem, batches, cfg, sigma, seed):
    """_reference_accelerated written out with the numpy reductions the
    runner used before its per-step shortcuts: np.linalg.norm for every
    norm, ndarray.mean for the batch means, and a boolean-mask row clip.
    Returns the per-step train_loss, noise_norm, grad_norm and potential."""
    eta, eta_cumsum, tau = _schedule(cfg.T)
    tree = TreeState(cfg.T, problem.dim, sigma=sigma, seed=seed)
    x_star = problem.exact_optimum()
    x = np.zeros(problem.dim)
    y, z, prev = x, x, x
    total = np.zeros(problem.dim)
    out = {k: [] for k in ("train_loss", "noise_norm", "grad_norm", "potential")}

    def record_potential(t):
        dz = z - x_star
        out["potential"].append(
            (eta_cumsum[t - 1] if t > 0 else 0.0) * problem.population_excess(y)
            + 2.0 * cfg.beta * float(dz @ dz))

    for t, batch in enumerate(batches):
        w_prev = eta[t - 1] if t > 0 else 0.0
        diffs = (eta[t] * problem.per_example_grads(x, batch)
                 - w_prev * problem.per_example_grads(prev, batch))
        norms = np.linalg.norm(diffs, axis=1)
        over = norms > cfg.clip
        if np.any(over):
            diffs[over] *= (cfg.clip / norms[over])[:, None]
        out["train_loss"].append(float(problem.per_example_values(x, batch).mean()))
        total += diffs.mean(axis=0)
        xi = tree_prefix(tree_ingest(tree, t + 1), t + 1)
        estimate = total + xi
        grad_est = estimate / eta[t]
        out["noise_norm"].append(float(np.linalg.norm(xi)) / cfg.beta)
        out["grad_norm"].append(float(np.linalg.norm(grad_est)))
        record_potential(t)
        z = project_ball(z - (eta[t] / cfg.beta) * grad_est, cfg.ball)
        y = project_ball(x - grad_est / cfg.beta, cfg.ball)
        prev = x
        x = interpolate(y, z, tau[t + 1])
    record_potential(cfg.T)
    return {k: np.array(v) for k, v in out.items()}


@pytest.mark.parametrize("clip,seed", [(0.5, 1), (2.0, 2), (math.inf, 3)])
def test_accelerated_diagnostics_equal_the_linalg_norm_reference(clip, seed):
    # the sweep's shape, shrunk: dim 20, clip 0.5 or 2, tree noise; every
    # recorded figure is bit-identical to the written-out reference
    problem = _quadratic(dim=20, noise_scale=1.0, seed=seed)
    T, B = 16, 32
    batches = _batches(problem, T, B, seed=seed + 10)
    cfg = SrgdConfig(T=T, beta=2.0 * T, ball=ConstraintBall(problem.dim, 1.0), clip=clip)
    rec = run_accelerated_dp_srgd(problem, iter(batches),
                                  tree_rows(0.7, problem.dim, seed + 20, T), cfg)
    ref = _reference_accelerated_trajectory(problem, batches, cfg, 0.7, seed + 20)
    for key, want in ref.items():
        np.testing.assert_array_equal(getattr(rec, key), want, err_msg=key)


def test_tree_noise_equals_iterate_noise_substitution():
    # feeding the prefix noise through the gradient estimate is the same
    # trajectory as adding b_t = -noise/beta to the aggressive step and
    # b_t/eta_t to the conservative step of a noiseless estimate
    problem = _quadratic()
    T, B = 14, 4
    batches = _batches(problem, T, B, seed=2)
    cfg = SrgdConfig(T=T, beta=2.0 * T, ball=ConstraintBall(problem.dim, 1.0))
    rec = run_accelerated_dp_srgd(problem, iter(batches), tree_rows(1.1, problem.dim, 17, T),
                                  cfg)

    mirror = TreeState(cfg.T, problem.dim, sigma=1.1, seed=17)
    eta, _, tau = _schedule(cfg.T)
    x = np.zeros(problem.dim)
    y, z, prev = x, x, x
    clean_sum = np.zeros(problem.dim)
    for t, batch in enumerate(batches):
        w_prev = eta[t - 1] if t > 0 else 0.0
        clean_sum = clean_sum + problem.srg_mean(np.stack([x, prev]), eta[t], w_prev, batch)[0]
        xi = tree_prefix(tree_ingest(mirror, t + 1), t + 1)
        b_t = -xi / cfg.beta
        grad_clean = clean_sum / eta[t]
        z = project_ball(z - (eta[t] / cfg.beta) * grad_clean + b_t, cfg.ball)
        y = project_ball(x - grad_clean / cfg.beta + b_t / eta[t], cfg.ball)
        prev = x
        x = interpolate(y, z, tau[t + 1])
    np.testing.assert_allclose(rec.final_x, y, rtol=0, atol=1e-9)


@pytest.mark.parametrize("clip", [0.5, math.inf])
def test_accelerated_train_loss_is_loss_at_each_iterate(clip):
    rng = np.random.default_rng(30)
    problem = _RecordingLogistic(features=rng.standard_normal((60, 4)),
                                 labels=rng.integers(0, 3, size=60), num_classes=3)
    T, B = 6, 10
    order = rng.permutation(60)
    batches = [order[t * B:(t + 1) * B] for t in range(T)]
    cfg = SrgdConfig(T=T, beta=2.0 * problem.smoothness * T,
                     ball=ConstraintBall(problem.dim, 1.0), clip=clip)
    rec = run_accelerated_dp_srgd(problem, iter(batches), tree_rows(0.5, problem.dim, 31, T),
                                  cfg)
    assert len(problem.points) == T
    for t, ((x_t, _), batch) in enumerate(zip(problem.points, batches)):
        assert rec.train_loss[t] == problem.per_example_values(x_t, batch).mean()


def _reference_independent(problem, batches, cfg, rows):
    """The independent variant's loop on the given noise rows: each row is
    added to the step's clipped mean gradient, and both steps take the
    sum. Returns the final point and the norm of every step's noisy
    gradient."""
    eta, _, tau = _schedule(cfg.T)
    x = np.zeros(problem.dim)
    y, z = x, x
    norms = []
    for t, (batch, w_t) in enumerate(zip(batches, rows)):
        grad_est = clip_rows(problem.per_example_grads(x, batch), cfg.clip).mean(axis=0) + w_t
        norms.append(np.linalg.norm(grad_est))
        z = project_ball(z - (eta[t] / cfg.beta) * grad_est, cfg.ball)
        y = project_ball(x - grad_est / cfg.beta, cfg.ball)
        x = interpolate(y, z, tau[t + 1])
    return y, norms


def test_independent_variant_matches_reference_loop():
    # rows of the clip calibration, sens 1: the harness's sigma for the variant
    problem = _quadratic(seed=3)
    T, B, clip = 10, 6, 0.5
    batches = _batches(problem, T, B, seed=4)
    cfg = SrgdConfig(T=T, beta=2.0 * T, ball=ConstraintBall(problem.dim, 1.0), clip=clip)
    sigma, seed = _noise_sigma(0.5, clip, B, 1.0), 23
    rec = run_independent_variant(problem, iter(batches),
                                  gaussian_rows(sigma, problem.dim, seed, T), cfg)

    rng = np.random.default_rng(seed)
    y, norms = _reference_independent(
        problem, batches, cfg, (rng.standard_normal(problem.dim) * sigma for _ in batches))
    np.testing.assert_array_equal(rec.final_x, y)
    np.testing.assert_array_equal(rec.grad_norm, norms)


def test_independent_variant_adds_the_rows_it_is_handed():
    problem = _quadratic(seed=3)
    T, B = 10, 6
    batches = _batches(problem, T, B, seed=48)
    cfg = SrgdConfig(T=T, beta=2.0 * T, ball=ConstraintBall(problem.dim, 1.0))
    rows = _hand_rows(T, problem.dim)
    rec = run_independent_variant(problem, iter(batches), rows, cfg)
    y, norms = _reference_independent(problem, batches, cfg, rows)
    np.testing.assert_array_equal(rec.final_x, y)
    np.testing.assert_array_equal(rec.noise_norm, [np.linalg.norm(r) for r in rows])
    np.testing.assert_array_equal(rec.grad_norm, norms)


def test_one_example_moves_only_its_own_clipped_increment_by_at_most_the_clip():
    # The clip calibration of the tree (sensitivity clip / B) assumes that
    # removing one example changes the summed increment B * delta_t by at
    # most the clip at the one step it takes part in, and not at all at any
    # other. Replayed on the neighbouring dataset along the realized
    # iterates of noisy clip-calibrated runs, as criterion 3 does for the
    # unclipped bound.
    T, B, clip = 25, 8, 0.5
    problem = _quadratic(dim=10, target_norm=0.5, seed=301)
    eta, _, _ = _schedule(T)
    worst = 0.0
    for pair in range(10):
        rng = np.random.default_rng(1000 + pair)
        batches = _batches(problem, T, B, seed=2000 + pair)
        t_j, r_j = divmod(int(rng.integers(T * B)), B)
        neighbour = [np.delete(b, r_j, axis=0) if t == t_j else b
                     for t, b in enumerate(batches)]
        cfg = SrgdConfig(T=T, beta=2.0 * T, ball=ConstraintBall(problem.dim, 1.0),
                         clip=clip)
        noise = tree_rows(_noise_sigma(0.5, clip, B, tree_sens(T)), problem.dim, pair, T)
        recorder = _quadratic(dim=10, target_norm=0.5, seed=301, cls=_RecordingQuadratic)
        run_accelerated_dp_srgd(recorder, iter(batches), noise, cfg)
        for t, (batch, other) in enumerate(zip(batches, neighbour)):
            point = (recorder.points[t], eta[t], eta[t - 1] if t > 0 else 0.0)
            change = (B * problem.srg_mean(*point, batch, clip)[0]
                      - len(other) * problem.srg_mean(*point, other, clip)[0])
            if t != t_j:
                np.testing.assert_array_equal(change, 0.0)
                continue
            assert np.linalg.norm(change) <= clip * (1 + 1e-12)
            worst = max(worst, float(np.linalg.norm(change)) / clip)
    assert worst > 0.99  # the increments reach the clip: the bound is tight


def test_noiseless_full_batch_variants_coincide():
    # with no noise and the full dataset each step, the recursive
    # telescoping reproduces the fresh-gradient variant exactly
    problem = _quadratic(noise_scale=0.0, seed=5)
    T, B = 20, 8
    batch = problem.draw_batch(np.random.default_rng(6), B)
    cfg = SrgdConfig(T=T, beta=2.0 * T, ball=ConstraintBall(problem.dim, 1.0))
    rec_tree = run_accelerated_dp_srgd(problem, (batch for _ in range(T)),
                                       tree_rows(0.0, problem.dim, 0, T), cfg)
    rec_ind = run_independent_variant(problem, (batch for _ in range(T)),
                                      gaussian_rows(0.0, problem.dim, 0, T), cfg)
    np.testing.assert_allclose(rec_tree.final_x, rec_ind.final_x,
                               rtol=0, atol=1e-12)


def test_recursive_estimate_telescopes_to_population_gradient():
    # degenerate data (every example equals the target) makes the exact
    # prefix sum of the increments equal eta_t * population gradient
    problem = _quadratic(noise_scale=0.0, seed=7)
    recorder = _quadratic(noise_scale=0.0, seed=7, cls=_RecordingQuadratic)
    T, B = 16, 4
    batch = problem.draw_batch(np.random.default_rng(8), B)
    cfg = SrgdConfig(T=T, beta=2.0 * T, ball=ConstraintBall(problem.dim, 1.0))
    run_accelerated_dp_srgd(recorder, (batch for _ in range(T)),
                            tree_rows(0.0, problem.dim, 0, T), cfg)
    (eta, _, _), total, worst = _schedule(T), np.zeros(problem.dim), 0.0
    assert len(recorder.points) == T
    for t, (x, prev_x) in enumerate(recorder.points):
        w_prev = eta[t - 1] if t > 0 else 0.0
        total += problem.srg_mean(np.stack([x, prev_x]), eta[t], w_prev, batch)[0]
        pop_grad = problem.curvature * (x - problem.target)
        worst = max(worst, float(np.linalg.norm(total / eta[t] - pop_grad)))
    assert worst < 1e-10


def test_a_run_records_the_potential_and_no_iterates():
    # the query points are the task's to record (see _QueryPoints)
    problem = _quadratic(noise_scale=0.0, seed=7)
    batch = problem.draw_batch(np.random.default_rng(8), 4)
    cfg = SrgdConfig(T=4, beta=8.0, ball=ConstraintBall(problem.dim, 1.0))
    rec = run_accelerated_dp_srgd(problem, (batch for _ in range(4)),
                                  tree_rows(0.0, problem.dim, 0, 4), cfg)
    assert "iterates" not in {f.name for f in dataclasses.fields(rec)}
    assert rec.potential is not None


def test_runner_records_iterates_and_potential():
    problem = _quadratic(noise_scale=0.0, target_norm=1.0, seed=9, cls=_RecordingQuadratic)
    T, B = 16, 4
    batch = problem.draw_batch(np.random.default_rng(10), B)
    cfg = SrgdConfig(T=T, beta=2.0 * T, ball=ConstraintBall(problem.dim, 1.0))
    rec = run_accelerated_dp_srgd(problem, (batch for _ in range(T)),
                                  tree_rows(0.0, problem.dim, 0, T), cfg)
    assert len(problem.points) == T
    np.testing.assert_array_equal(problem.points[0], np.zeros((2, problem.dim)))
    assert rec.potential.shape == (T + 1,)
    # starting potential: only the distance term, from the origin
    x_star = problem.exact_optimum()
    assert rec.potential[0] == pytest.approx(
        2.0 * cfg.beta * float(x_star @ x_star), rel=1e-12)
    # optimum on the ball boundary: the potential never increases
    assert float(np.diff(rec.potential).max()) <= 1e-9 * rec.potential[0]
    assert rec.steps == T


def test_potential_function_value():
    problem = _quadratic(noise_scale=0.0, seed=11)
    y = np.full(problem.dim, 0.1)
    z = np.full(problem.dim, -0.2)
    x_star = problem.exact_optimum()
    expected = (7.0 * problem.population_excess(y)
                + 2.0 * 5.0 * float((z - x_star) @ (z - x_star)))
    assert potential(problem, y, z, x_star, 5.0, 7.0) == pytest.approx(
        expected, rel=1e-12)


class _CountingQuadratic(SyntheticQuadratic):
    _grads_and_loss = LossProblem._grads_and_loss  # calls per_example_grads

    def __post_init__(self):
        super().__post_init__()
        self.grad_rows = 0

    def per_example_grads(self, x, batch):
        self.grad_rows += len(batch)
        return super().per_example_grads(x, batch)


def test_accelerated_runner_costs_two_evals_per_example():
    problem = _CountingQuadratic(dim=4, target=np.zeros(4), curvature=1.0,
                                 noise_scale=0.3, radius=1.0)
    T, B = 7, 5
    batches = _batches(problem, T, B, seed=12)
    cfg = SrgdConfig(T=T, beta=2.0 * T,
                     ball=ConstraintBall(4, 1.0))
    run_accelerated_dp_srgd(problem, iter(batches), tree_rows(0.0, 4, 0, T), cfg)
    assert problem.grad_rows == 2 * T * B


def _run_mf(problem, batches, strategy, cfg, sigma=0.0, seed=0):
    """run_dp_srg_memf on the strategy's noise rows of std sigma from
    seed, the stream the harness hands it."""
    return run_dp_srg_memf(problem, batches,
                           mf_noise_stream(strategy, sigma, problem.dim, seed), cfg)


def _memf_runner(problem, batches, T, decay=0.0):
    # dp_memf is dp_srg_memf at decay 0: one runner, labelled dp_memf
    return _run_memf(problem, batches[:T // 2] * 2, identity_strategy(2, T // 2), seed=5,
                     decay=decay)


def _sgd_cfg(strategy, ball, **kw):
    # dp_sgd and dp_ftrl: the MF runner's projected steps without momentum
    base = dict(steps=strategy.steps, c_clip=1.0, lr=0.1, momentum=0.0, ball=ball)
    base.update(kw)
    return MemfConfig(**base)


def _run_sgd(problem, batches, strategy, ball, sigma=0.0, seed=0, **kw):
    """_run_mf on _sgd_cfg(strategy, ball, **kw)."""
    return _run_mf(problem, batches, strategy, _sgd_cfg(strategy, ball, **kw), sigma, seed)


# Every runner at T steps, batch size 4, no noise. The stream runners take
# the batches as an iterator; the multi-epoch runners revisit the first
# T/2 batches for two epochs.
_RUNNERS = {
    "accelerated_dp_srgd": lambda p, batches, T: run_accelerated_dp_srgd(
        p, iter(batches), tree_rows(0.0, p.dim, 0, T),
        SrgdConfig(T=T, beta=2.0 * T, ball=ConstraintBall(p.dim, 1.0))),
    "independent_variant": lambda p, batches, T: run_independent_variant(
        p, iter(batches), gaussian_rows(0.0, p.dim, 0, T),
        SrgdConfig(T=T, beta=2.0 * T, ball=ConstraintBall(p.dim, 1.0))),
    "dp_sgd": lambda p, batches, T: _run_sgd(
        p, iter(batches), identity_strategy(1, T), ConstraintBall(p.dim, 1.0)),
    "dp_ftrl": lambda p, batches, T: _run_sgd(
        p, iter(batches), build_strategy("ones", 1, T), ConstraintBall(p.dim, 1.0)),
    "dp_memf": _memf_runner,
    "dp_srg_memf": _memf_runner,
    "dp_srg_memf_decay_0.5": lambda p, batches, T: _memf_runner(p, batches, T, 0.5),
}
_STREAM_RUNNERS = sorted(name for name in _RUNNERS if "memf" not in name)


# The finite checks on the step path test a vector's sum first and fall
# back to the entry-wise test when the sum is not finite.
_NON_FINITE = [np.array([0.5, np.nan, 1.0]), np.array([0.5, np.inf, 1.0]),
               np.array([0.5, -np.inf, 1.0]), np.array([np.inf, -np.inf, 1.0])]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", _NON_FINITE, ids=["nan", "+inf", "-inf", "inf-inf"])
def test_step_path_checks_reject_non_finite_vectors(bad):
    with pytest.raises(RunAborted):
        _check_finite(4, "probe", np.zeros(3), bad)
    with pytest.raises(ValueError, match="non-finite"):
        project_ball(bad, ConstraintBall(3, 1.0))
    assert not all_finite(bad)  # the one-reduction test both checks use


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_step_path_checks_accept_finite_vectors_whose_sum_overflows():
    big = np.array([1e308, 1e308, -1e308])
    assert not math.isfinite(big.sum())
    _check_finite(0, "probe", big, None)
    np.testing.assert_allclose(project_ball(big, ConstraintBall(3, 1.0)),
                               big / np.sqrt(3.0) / 1e308, rtol=1e-15)
    assert all_finite(big)


@pytest.mark.parametrize("name", _STREAM_RUNNERS)
def test_runner_aborts_on_short_stream(name):
    problem = _quadratic()
    batches = _batches(problem, 6, 4)
    with pytest.raises(RunAborted) as info:
        _RUNNERS[name](problem, batches, 10)
    assert info.value.step == 6


class _EstimateWatch(SyntheticQuadratic):
    """Records, at each gradient-hook call, whether the estimate the hook
    returned on the call before is still alive."""

    def __post_init__(self):
        super().__post_init__()
        self.last, self.alive = None, []

    def _watch(self, out):
        if self.last is not None:
            self.alive.append(self.last() is not None)
        self.last = weakref.ref(out[0])
        return out

    def clipped_mean_grad(self, x, batch, c_clip):
        return self._watch(super().clipped_mean_grad(x, batch, c_clip))

    def srg_mean(self, points, w_t, w_prev, batch, c_clip=np.inf):
        return self._watch(super().srg_mean(points, w_t, w_prev, batch, c_clip))


@pytest.mark.parametrize("name", sorted(_RUNNERS))
def test_step_estimate_is_freed_before_the_next_is_asked_for(name):
    base = _quadratic()
    problem = _EstimateWatch(dim=base.dim, target=base.target,
                             noise_scale=base.noise_scale, radius=1.0)
    _RUNNERS[name](problem, _batches(problem, 8, 4), 8)
    assert problem.alive == [False] * 7


def _alive_at_each_batch_draw(noise, dim=3, T=4):
    """Run _drive on T batches and the rows of noise(dim, T), and record,
    each time the stream is asked for a batch, which of the previous step's
    estimate, noise row and batch are still alive."""
    refs, alive = [], []

    def fresh(v):
        refs.append(weakref.ref(v))
        return v

    def stream():
        for t in range(T):
            alive.append([r() is not None for r in refs])
            refs.clear()
            yield fresh(np.full(2, t))

    rec = _drive(SyntheticQuadratic(dim=dim, target=np.zeros(dim)), stream(), T,
                 lambda t, points, batch: (fresh(np.ones(dim)), 0.0),
                 map(fresh, noise(dim, T)),
                 lambda t, x, g, w: (0.0, (x - g - w,)))
    assert rec.steps == T
    return alive


def test_drive_frees_a_steps_state_before_it_draws_the_next_batch():
    # the estimate, noise row and batch of step t are all dead when the
    # stream is asked for batch t + 1
    alive = _alive_at_each_batch_draw(lambda d, T: (np.full(d, 0.5) for _ in range(T)))
    assert alive == [[]] + [[False, False, False]] * 3


@pytest.mark.parametrize("noise", [
    lambda d, T: gaussian_rows(1.0, d, 0, T),
    lambda d, T: mf_noise_stream(
        build_strategy("momentum_decay", 2, T // 2, momentum=0.9, decay=0.5), 1.0, d, 0),
    lambda d, T: mf_noise_stream(identity_strategy(1, T), 1.0, d, 0),
], ids=["gaussian_rows", "mf_banded_k2", "mf_identity"])
def test_drive_frees_a_counting_streams_row_before_it_draws_the_next_batch(noise):
    # the counting streams keep no reference to the row they last yielded
    assert _alive_at_each_batch_draw(noise) == [[]] + [[False, False, False]] * 3


class _NoOptimum(SyntheticQuadratic):
    """A quadratic that does not tell its optimum, as an empirical task."""

    def exact_optimum(self):
        return None


def test_an_accelerated_run_without_a_potential_holds_no_y_between_steps():
    # at each batch draw after the first the run holds x, prev_x, z and the
    # running sum of increments, 4 rows of d floats; y, which only the
    # potential reads, would make 5
    d, T = 7850, 6
    problem = _quadratic(dim=d, cls=_NoOptimum)
    batches = _batches(problem, T, 2)
    cfg = SrgdConfig(T=T, beta=2.0 * T, ball=ConstraintBall(d, 1.0))
    held = []

    def stream():
        for batch in batches:
            held.append(tracemalloc.get_traced_memory()[0])
            yield batch

    def run():
        run_accelerated_dp_srgd(problem, stream(), (np.zeros(d) for _ in range(T)), cfg)

    run()  # the first pass pays for lazy imports
    tracemalloc.start()
    try:
        held.clear()
        base = tracemalloc.get_traced_memory()[0]
        run()
    finally:
        tracemalloc.stop()
    rows = [(h - base) / (8 * d) for h in held[1:T]]
    assert all(3.5 <= r <= 4.5 for r in rows), rows


@pytest.mark.parametrize("name", _STREAM_RUNNERS)
def test_runner_takes_exactly_T_batches(name):
    problem = _quadratic()
    batches = _batches(problem, 12, 4)
    stream = iter(batches)
    rec = _RUNNERS[name](problem, stream, 10)
    assert rec.steps == 10
    assert next(stream) is batches[10]


# The runners that add noise, on the rows they are handed.
_NOISY_RUNNERS = {
    "accelerated_dp_srgd": lambda p, batches, noise, T: run_accelerated_dp_srgd(
        p, iter(batches), noise,
        SrgdConfig(T=T, beta=2.0 * T, ball=ConstraintBall(p.dim, 1.0))),
    "independent_variant": lambda p, batches, noise, T: run_independent_variant(
        p, iter(batches), noise,
        SrgdConfig(T=T, beta=2.0 * T, ball=ConstraintBall(p.dim, 1.0))),
    "dp_srg_memf": lambda p, batches, noise, T: run_dp_srg_memf(
        p, batches, noise, _memf_cfg(identity_strategy(1, T), decay=0.5)),
}


@pytest.mark.parametrize("name", sorted(_NOISY_RUNNERS))
def test_runner_aborts_on_short_noise_stream(name):
    # a bare StopIteration used to leak out of the runner
    problem = _quadratic()
    batches = _batches(problem, 5, 4)
    with pytest.raises(RunAborted, match="noise stream exhausted after 3 of 5 rows") as info:
        _NOISY_RUNNERS[name](problem, batches, _hand_rows(3, problem.dim), 5)
    assert info.value.step == 3


@pytest.mark.parametrize("name", sorted(_NOISY_RUNNERS))
def test_noise_norm_is_the_norm_of_each_handed_row(name):
    # _drive records the norm of the row it hands over; the tree's rows
    # land in the accelerated updates divided by beta
    problem = _quadratic()
    T = 5
    rows = _hand_rows(T, problem.dim)
    rec = _NOISY_RUNNERS[name](problem, _batches(problem, T, 4), iter(rows), T)
    want = np.array([math.sqrt(w.dot(w)) for w in rows])
    if name == "accelerated_dp_srgd":
        want /= 2.0 * T
    np.testing.assert_array_equal(rec.noise_norm, want)


@pytest.mark.parametrize("name", sorted(_NOISY_RUNNERS))
def test_runner_rejects_a_noise_row_of_another_shape(name):
    # a (1,) row used to broadcast silently into the iterate
    problem = _quadratic()
    rows = _hand_rows(5, problem.dim)
    rows[2] = np.ones(1)
    with pytest.raises(ValueError, match="noise row at step 2 has shape"):
        _NOISY_RUNNERS[name](problem, _batches(problem, 5, 4), rows, 5)


class _NoHeldOut(LogisticTask):
    """A task whose held-out evaluation raises."""

    def excess_and_accuracy(self, x):
        raise AssertionError("the runner evaluated the held-out set")


@pytest.mark.parametrize("name", ["accelerated_dp_srgd", "dp_srg_memf"])
def test_a_runner_makes_no_held_out_pass(name):
    # a finished run is evaluated by its caller: the runner returns its
    # series and final iterate on a task whose held-out pass raises
    rng = np.random.default_rng(8)
    problem = _NoHeldOut(features=rng.standard_normal((40, 4)),
                         labels=rng.integers(0, 3, size=40), num_classes=3)
    T = 4
    batches = [np.arange(t * 10, (t + 1) * 10) for t in range(T)]
    rec = _NOISY_RUNNERS[name](problem, batches, _hand_rows(T, problem.dim), T)
    assert rec.steps == T and all_finite(rec.final_x)


# ---------------------------------------------------------------------------
# the frozen-point probe and the variance probe


def test_unaccelerated_frozen_point_telescopes():
    # with a frozen iterate, unit weights, and exact gradients, every
    # increment after the first cancels, leaving the first batch mean
    problem = _quadratic(seed=13)
    T, B = 12, 4
    batches = _batches(problem, T, B, seed=14)
    estimates = _frozen_srg_estimates(problem, batches, [3, 6, 9, 12])
    first_mean = problem.per_example_grads(np.zeros(problem.dim),
                                           batches[0]).mean(axis=0)
    assert estimates.shape == (4, problem.dim)
    for grad in estimates:
        np.testing.assert_allclose(grad, first_mean, rtol=0, atol=1e-12)


def test_unaccelerated_custom_checkpoints_and_validation():
    problem = _quadratic(seed=15)
    batches = _batches(problem, 8, 4, seed=16)
    estimates = _frozen_srg_estimates(problem, batches, [8, 2])
    assert estimates.shape == (2, problem.dim)
    # rows follow the listed steps: step 2 comes second
    np.testing.assert_array_equal(
        estimates[::-1], _frozen_srg_estimates(problem, batches, [2, 8]))
    with pytest.raises(ValueError, match="at least two seeds"):
        _variance_probe([estimates])  # one seed: S - 1 = 0


@pytest.mark.parametrize("checkpoints", [[0, 99], [0], [9], [2, 9], []])
def test_unaccelerated_rejects_checkpoints_outside_the_run_before_any_step(checkpoints):
    # steps outside the 8 batches are refused, not skipped: a short array
    # of estimates once reached variance_probe, which raised TypeError
    problem = _CountingQuadratic(dim=3, target=np.zeros(3), curvature=1.0,
                                 noise_scale=0.3, radius=1.0)
    batches = _batches(problem, 8, 4, seed=16)
    with pytest.raises(ValueError, match=r"steps must lie in 1\.\.8, got"):
        _frozen_srg_estimates(problem, batches, checkpoints)
    assert problem.grad_rows == 0


def test_frozen_point_probe_matches_a_hand_written_noisy_loop():
    # two noisy evaluations per example and step, at x_t and then x_{t-1},
    # in the order a runner's step makes them: the probe takes the same
    # draws from the wrapper's generator
    base = _quadratic(dim=5, noise_scale=0.3, seed=21)
    batches = _batches(base, 10, 6, seed=22)
    steps = [1, 4, 10]
    got = _frozen_srg_estimates(_GradientNoiseWrapper(base, 0.7, 23), batches, steps)

    noisy = _GradientNoiseWrapper(base, 0.7, 23)
    x, total, want = np.zeros(base.dim), np.zeros(base.dim), []
    for t, batch in enumerate(batches):
        g_t = noisy.per_example_grads(x, batch)
        g_prev = noisy.per_example_grads(x, batch)
        total = total + (g_t - (0.0 if t == 0 else 1.0) * g_prev).mean(axis=0)
        if t + 1 in steps:
            want.append(total)
    np.testing.assert_array_equal(got, want)


def test_variance_probe_matches_closed_form_growth():
    # per-call gradient noise of std s at a frozen iterate with unit
    # weights gives Var(grad_t) growing by 2 s^2 d / B per step
    dim, B, T, s = 6, 8, 48, 0.7
    base = _quadratic(dim=dim, noise_scale=0.3, seed=17)
    steps = np.array([12, 24, 36, 48])

    def estimates(seed):
        noisy = _GradientNoiseWrapper(base, s, seed)
        return _frozen_srg_estimates(noisy, _batches(base, T, B, seed=10**6 + seed), steps)

    variances = _variance_probe([estimates(seed) for seed in range(150)])
    assert steps.shape == variances.shape == (4,)
    slope, _, r2 = _linear_fit(steps, variances)
    assert slope == pytest.approx(2.0 * s**2 * dim / B, rel=0.15)
    assert r2 >= 0.95


def test_linear_fit_recovers_exact_line():
    xs = np.array([1.0, 2.0, 3.0, 4.0])
    slope, intercept, r2 = _linear_fit(xs, 2.5 * xs - 1.0)
    assert slope == pytest.approx(2.5, rel=1e-12)
    assert intercept == pytest.approx(-1.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# baselines


def test_dp_sgd_noiseless_matches_hand_loop():
    problem = _quadratic(seed=18)
    T, B = 9, 4
    batches = _batches(problem, T, B, seed=19)
    ball = ConstraintBall(problem.dim, 1.0)
    rec = _run_sgd(problem, iter(batches), identity_strategy(1, T), ball,
                   c_clip=np.inf, lr=0.2)
    x = np.zeros(problem.dim)
    for batch in batches:
        grad = problem.per_example_grads(x, batch).mean(axis=0)
        x = project_ball(x - 0.2 * grad, ball)
    np.testing.assert_allclose(rec.final_x, x, rtol=0, atol=1e-12)


def test_dp_sgd_respects_clip():
    problem = _quadratic(target_norm=0.9, seed=20)
    batches = _batches(problem, 6, 4, seed=21)
    rec = _run_sgd(problem, iter(batches), identity_strategy(1, 6),
                   ConstraintBall(problem.dim, 1.0), c_clip=0.05)
    assert float(rec.grad_norm.max()) <= 0.05 + 1e-12


def test_identity_strategy_ftrl_equals_dp_sgd():
    # the identity strategy's C^{-1} Z rows, over a stream or a list of
    # the batches, are those of a hand-written projected clipped-SGD loop
    # drawing default_rng(seed).standard_normal(d) * sigma
    problem = _quadratic(seed=22)
    T, B = 10, 4
    batches = _batches(problem, T, B, seed=23)
    ball = ConstraintBall(problem.dim, 1.0)
    rho = 0.5
    sigma = math.sqrt(1.0 / (2.0 * rho)) * 1.0 / B  # clip / B sensitivity
    strategy = identity_strategy(1, T)
    rec_sgd = _run_sgd(problem, iter(batches), strategy, ball, sigma, 3)
    rec_ftrl = _run_sgd(problem, batches, strategy, ball, sigma, 3)
    np.testing.assert_array_equal(rec_sgd.final_x, rec_ftrl.final_x)
    np.testing.assert_array_equal(rec_sgd.noise_norm, rec_ftrl.noise_norm)

    rng = np.random.default_rng(3)
    x, noise, losses = np.zeros(problem.dim), [], []
    for batch in batches:
        losses.append(problem.per_example_values(x, batch).mean())
        grad = clip_rows(problem.per_example_grads(x, batch), 1.0).mean(axis=0)
        noise.append(rng.standard_normal(problem.dim) * sigma)
        x = project_ball(x - 0.1 * (grad + noise[-1]), ball)
    for rec in (rec_sgd, rec_ftrl):
        np.testing.assert_array_equal(rec.final_x, x)
        np.testing.assert_array_equal(rec.train_loss, losses)
        np.testing.assert_array_equal(rec.noise_norm, [np.linalg.norm(w) for w in noise])


@pytest.mark.parametrize("B,clip", [(4, 0.5), (2, 8.0)])
def test_dp_ftrl_noise_scales_with_clipped_mean_sensitivity(B, clip):
    # the harness calibrates DP-SGD and identity-strategy DP-FTRL to the
    # same sigma = clip / B / sqrt(2 rho), and the two release the same
    # noise: both protect a batch mean of gradients clipped to clip,
    # sensitivity clip / B
    problem = _quadratic(seed=37)
    T = 8
    batches = _batches(problem, T, B, seed=38)
    ball = ConstraintBall(problem.dim, 1.0)
    rho = 0.5
    strategy = identity_strategy(1, T)
    sigma = _noise_sigma(rho, clip, B, 1.0)
    assert sigma == pytest.approx(math.sqrt(1.0 / (2.0 * rho)) * clip / B, rel=1e-15)
    assert _noise_sigma(rho, clip, B, strategy.sens) == sigma
    run = lambda sigma, clip: _run_sgd(problem, iter(batches), strategy, ball, sigma, 4,
                                       c_clip=clip)
    rec_sgd = run(sigma, clip)
    rec_ftrl = run(_noise_sigma(rho, clip, B, strategy.sens), clip)
    np.testing.assert_array_equal(rec_sgd.noise_norm, rec_ftrl.noise_norm)
    np.testing.assert_array_equal(rec_sgd.final_x, rec_ftrl.final_x)
    # an infinite budget releases no noise, even without clipping
    free_sigma = _noise_sigma(math.inf, math.inf, B, strategy.sens)
    assert free_sigma == 0.0
    rec_free = run(free_sigma, math.inf)
    np.testing.assert_array_equal(rec_free.noise_norm, np.zeros(T))


def test_dp_ftrl_matches_reference_loop():
    # single-example batches with clip 1, so the noise factor clip / B is 1
    problem = _quadratic(target_norm=0.9, seed=39)
    T, B, clip, rho, lr = 10, 1, 1.0, 0.5, 0.2
    sigma = math.sqrt(1.0 / (2.0 * rho)) * (clip / B)
    batches = _batches(problem, T, B, seed=40)
    strategy = factorize(build_workload("momentum", 1, T, momentum=0.9)[:, 0], 1, T,
                         kind="momentum")
    ball = ConstraintBall(problem.dim, 0.5)
    rec = _run_sgd(problem, iter(batches), strategy, ball, sigma, 6, c_clip=clip, lr=lr)

    rows = mf_noise_stream(strategy, sigma, problem.dim, 6)
    x = np.zeros(problem.dim)
    noise = []
    for batch in batches:
        grad = clip_rows(problem.per_example_grads(x, batch), clip).mean(axis=0)
        noise.append(next(rows))
        x = project_ball(x - lr * (grad + noise[-1]), ball)
    np.testing.assert_array_equal(rec.final_x, x)
    np.testing.assert_array_equal(rec.noise_norm, [np.linalg.norm(w) for w in noise])


def _counting_quadratic():
    return _CountingQuadratic(dim=3, target=np.zeros(3), curvature=1.0,
                              noise_scale=0.3, radius=1.0)


@pytest.mark.parametrize("sigma", [-1.0, math.inf, math.nan])
@pytest.mark.parametrize("name", ["dp_sgd", "dp_ftrl"])
def test_dp_ftrl_rejects_bad_sigma_before_any_step(name, sigma):
    # the noise stream checks sigma when it is built, before the runner
    # takes its first gradient, not when its first row is drawn
    problem = _counting_quadratic()
    T = 5
    strategy = identity_strategy(1, T) if name == "dp_sgd" else build_strategy("ones", 1, T)
    with pytest.raises(ValueError, match="sigma"):
        _run_sgd(problem, iter(_batches(problem, T, 4, seed=43)), strategy,
                 ConstraintBall(problem.dim, 1.0), sigma)
    assert problem.grad_rows == 0


class _DrawSpy(list):
    """A list of batches that records every iteration over it."""

    drawn = 0

    def __iter__(self):
        self.drawn += 1
        return super().__iter__()


def test_dp_ftrl_rejects_a_horizon_other_than_the_strategys():
    problem = _counting_quadratic()
    batches = _DrawSpy(_batches(problem, 6, 4, seed=44))
    with pytest.raises(ValueError, match="strategy's 5 steps"):
        _run_sgd(problem, batches, identity_strategy(1, 5), None, 0.5)
    assert problem.grad_rows == 0
    assert batches.drawn == 0


def test_dp_sgd_holds_no_horizon_squared_array():
    # the identity strategy is r = [1] and a T-entry w, and its rows are
    # i.i.d.: a T = 1024 run holds T-entry series, not an 8 MB T x T matrix
    problem = _quadratic(dim=3)
    T = 1024
    batches = _batches(problem, T, 1, seed=45)
    tracemalloc.start()
    try:
        rec = _run_sgd(problem, iter(batches), identity_strategy(1, T),
                       ConstraintBall(problem.dim, 1.0), 0.1, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.steps == T
    assert peak < T * T * 8 / 32


# ---------------------------------------------------------------------------
# multi-epoch matrix-factorization runners


def _memf_cfg(strategy, **kw):
    base = dict(steps=strategy.steps, c_clip=math.inf, lr=0.05, decay=0.0, momentum=0.9)
    base.update(kw)
    return MemfConfig(**base)


def _run_memf(problem, batches, strategy, sigma=0.0, seed=0, **kw):
    """_run_mf on _memf_cfg(strategy, **kw)."""
    return _run_mf(problem, batches, strategy, _memf_cfg(strategy, **kw), sigma, seed)


def _memf_rows(problem, strategy, sigma=0.0, seed=5):
    return mf_noise_stream(strategy, sigma, problem.dim, seed)


def test_memf_config_validation():
    strat = identity_strategy(2, 5)
    with pytest.raises(ValueError):
        _memf_cfg(identity_strategy(0, 10))
    with pytest.raises(ValueError, match="steps must be >= 1, got 0"):
        MemfConfig(steps=0, c_clip=1.0, lr=0.1)
    with pytest.raises(ValueError):
        _memf_cfg(strat, decay=1.5)
    with pytest.raises(ValueError):
        _memf_cfg(strat, momentum=1.0)
    with pytest.raises(ValueError):  # sigma is the noise stream's, checked at the call
        mf_noise_stream(strat, -1.0, 3, 5)
    problem = _quadratic(seed=24)
    with pytest.raises(ValueError):  # strategy covers wrong step count
        _run_memf(problem, _batches(problem, 5, 4) * 2, identity_strategy(2, 4), seed=5)
    with pytest.raises(ValueError):
        mf_noise_stream(strat, math.inf, 3, 5)  # the noise of a finite budget, no clip


@pytest.mark.parametrize("field,value", [
    ("lr", 0.0), ("lr", -1.0), ("lr", math.inf), ("lr", math.nan),
    ("sigma", math.nan), ("sigma", math.inf), ("sigma", -1.0),
    ("c_clip", math.nan), ("c_clip", -1.0)])
def test_memf_config_rejects_bad_scalars(field, value):
    if field == "sigma":  # the noise stream's, checked when it is built
        with pytest.raises(ValueError, match=field):
            mf_noise_stream(identity_strategy(2, 5), value, 3, 5)
        return
    with pytest.raises(ValueError, match=field.replace("c_", "")):
        _memf_cfg(identity_strategy(2, 5), **{field: value})


def test_memf_batch_mismatch_errors():
    problem = _quadratic(seed=24)
    strat = identity_strategy(2, 5)
    with pytest.raises(ValueError, match="strategy's 10 steps"):
        _run_memf(problem, _batches(problem, 4, 4) * 2, strat, seed=5)  # wrong count
    batches = _batches(problem, 5, 4)
    batches[2] = batches[2][:3]
    with pytest.raises(ValueError, match="batches differ in size"):
        _run_memf(problem, batches * 2, strat, seed=5)  # wrong size


def test_a_stream_whose_batches_change_size_is_rejected():
    problem = _counting_quadratic()
    batches = _batches(problem, 5, 4, seed=46)
    batches[3] = batches[3][:2]
    with pytest.raises(ValueError, match="batches differ in size: 2 at step 3, 4 before"):
        _RUNNERS["dp_sgd"](problem, batches, 5)
    assert problem.grad_rows == 3 * 4  # steps 0-2 ran, step 3's batch was refused


def test_zero_decay_recursion_equals_plain_memf():
    problem = _quadratic(seed=26)
    batches = _batches(problem, 5, 4, seed=27)
    strat = identity_strategy(2, 5)
    x, _, _, losses = _reference_memf(problem, batches, _memf_cfg(strat), False,
                                      _memf_rows(problem, strat))
    rec_srg = _run_memf(problem, batches * 2, strat, seed=5)
    np.testing.assert_array_equal(x, rec_srg.final_x)
    np.testing.assert_array_equal(losses, rec_srg.train_loss)


def test_zero_decay_recursion_equals_plain_memf_under_noise():
    # each correlated noise row enters the estimate once, so without the
    # recursion the runner takes plain multi-epoch training's noisy steps
    strat = factorize(build_workload("ones", 2, 5)[:, 0], 2, 5)
    problem = _quadratic(seed=32)
    batches = _batches(problem, 5, 4, seed=33)
    cfg, sigma = _memf_cfg(strat, c_clip=1.0), 1.0 / 4 / math.sqrt(2.0 * 0.5)
    x, noise_norm, _, losses = _reference_memf(problem, batches, cfg, False,
                                               _memf_rows(problem, strat, sigma))
    rec_srg = _run_mf(problem, batches * 2, strat, cfg, sigma, 5)
    assert min(noise_norm) > 0
    np.testing.assert_array_equal(x, rec_srg.final_x)
    np.testing.assert_array_equal(losses, rec_srg.train_loss)
    np.testing.assert_array_equal(noise_norm, rec_srg.noise_norm)


def test_zero_decay_run_is_dp_memf_and_reports_the_clipped_gradient():
    # at c = 0 grad_norm is ||clipped mean||, at most the clip, not the
    # norm of the noisy estimate
    strat = factorize(build_workload("ones", 2, 5)[:, 0], 2, 5)
    problem = _quadratic(target_norm=0.9, seed=43)
    batches = _batches(problem, 5, 4, seed=44)
    cfg = _memf_cfg(strat, c_clip=0.5)
    rec = _run_mf(problem, batches * 2, strat, cfg, 5.0, 5)
    assert rec.grad_norm.max() <= 0.5 * (1 + 1e-12) < rec.noise_norm.min()
    _, _, grad_norm, _ = _reference_memf(problem, batches, cfg, False,
                                         _memf_rows(problem, strat, 5.0))
    np.testing.assert_array_equal(rec.grad_norm, grad_norm)
    rec_srg = _run_memf(problem, batches * 2, strat, 5.0, 5, c_clip=0.5, decay=0.5)
    assert rec_srg.grad_norm[0] > 0.5  # the recursion holds the noise row


@pytest.mark.parametrize("decay, steps_evaluated", [(0.0, 10), (0.5, 1 + 2 * 9)])
def test_dp_srg_memf_evaluates_one_point_at_zero_weight(decay, steps_evaluated):
    # a step whose recursion weight is 0 (every step at decay 0, the first
    # step otherwise) evaluates the batch at x_t alone
    problem = _CountingQuadratic(dim=3, target=np.zeros(3), curvature=1.0,
                                 noise_scale=0.5, radius=1.0)
    batches = _batches(problem, 5, 4, seed=27)
    _run_memf(problem, batches * 2, identity_strategy(2, 5), seed=5, decay=decay)
    assert problem.grad_rows == 4 * steps_evaluated


def test_memf_noise_scales_with_clip_norm():
    # through the harness calibration sigma = (clip / B) * sens / sqrt(2 rho)
    problem = _quadratic(seed=28)
    batches = _batches(problem, 5, 4, seed=29)
    strat = identity_strategy(2, 5)
    sigma = lambda clip: _noise_sigma(1.0, clip, 4, strat.sens)
    rec1 = _run_memf(problem, batches * 2, strat, sigma(1.0), 5, c_clip=1.0)
    rec2 = _run_memf(problem, batches * 2, strat, sigma(2.0), 5, c_clip=2.0)
    ratio = rec2.noise_norm / rec1.noise_norm
    np.testing.assert_allclose(ratio, 2.0, rtol=1e-12)


def test_infinite_budget_means_zero_noise():
    problem = _quadratic(seed=30)
    batches = _batches(problem, 5, 4, seed=31)
    rec = _run_memf(problem, batches * 2, identity_strategy(2, 5), seed=5)
    np.testing.assert_array_equal(rec.noise_norm, np.zeros(10))


def _reference_memf(problem, batches, cfg, recursive, rows):
    """Multi-epoch training written out from per-example gradients:
    clipped mean (or clipped recursive increment), plus the given noise
    row, into SGD with momentum. Returns the final point and the per-step
    noise norms, gradient norms and batch losses."""
    rows = iter(rows)
    x = np.zeros(problem.dim)
    prev, velocity, rec = x, x, x
    noise, grads, losses = [], [], []
    for s in range(cfg.steps):
        batch = batches[s % len(batches)]
        w = next(rows)
        losses.append(problem.per_example_values(x, batch).mean())
        if recursive:
            c = cfg.decay if s > 0 else 0.0
            diffs = (problem.per_example_grads(x, batch)
                     - c * problem.per_example_grads(prev, batch))
            rec = c * rec + (clip_rows(diffs, cfg.c_clip).mean(axis=0) + w)
            grads.append(rec)
            step = rec
        else:
            grads.append(clip_rows(problem.per_example_grads(x, batch),
                                   cfg.c_clip).mean(axis=0))
            step = grads[-1] + w
        noise.append(w)
        velocity = cfg.momentum * velocity + step
        prev, x = x, x - cfg.lr * velocity
    return (x, [np.linalg.norm(w) for w in noise], [np.linalg.norm(g) for g in grads],
            losses)


def _check_memf_reference(runner, recursive, **kw):
    wl = build_workload("ones", 2, 5)
    strat = factorize(wl[:, 0], 2, 5)
    problem = _quadratic(target_norm=0.9, seed=41)
    batches = _batches(problem, 5, 4, seed=42)
    cfg, sigma = _memf_cfg(strat, c_clip=0.5, **kw), 0.5 / 4 / math.sqrt(2.0 * 0.5)
    rec = runner(problem, batches * strat.k, _memf_rows(problem, strat, sigma), cfg)
    x, noise_norm, grad_norm, losses = _reference_memf(problem, batches, cfg, recursive,
                                                       _memf_rows(problem, strat, sigma))
    np.testing.assert_array_equal(rec.final_x, x)
    np.testing.assert_array_equal(rec.noise_norm, noise_norm)
    np.testing.assert_array_equal(rec.grad_norm, grad_norm)
    np.testing.assert_array_equal(rec.train_loss, losses)


def test_dp_srg_memf_matches_reference_loop():
    _check_memf_reference(run_dp_srg_memf, True, decay=0.5)


def test_dp_memf_matches_reference_loop():
    _check_memf_reference(run_dp_srg_memf, False)  # dp_memf is decay 0


def test_dp_srg_memf_adds_the_rows_it_is_handed():
    strat = factorize(build_workload("ones", 2, 5)[:, 0], 2, 5)
    problem = _quadratic(target_norm=0.9, seed=41)
    batches = _batches(problem, 5, 4, seed=49)
    cfg = _memf_cfg(strat, c_clip=0.5, decay=0.5)
    rows = _hand_rows(strat.steps, problem.dim)
    rec = run_dp_srg_memf(problem, batches * strat.k, rows, cfg)
    x, noise_norm, grad_norm, losses = _reference_memf(problem, batches, cfg, True, rows)
    np.testing.assert_array_equal(rec.final_x, x)
    np.testing.assert_array_equal(rec.noise_norm, noise_norm)
    np.testing.assert_array_equal(rec.grad_norm, grad_norm)
    np.testing.assert_array_equal(rec.train_loss, losses)


class _ExplodingQuadratic(SyntheticQuadratic):
    """Returns a non-finite gradient from step 3 onward."""

    _grads_and_loss = LossProblem._grads_and_loss  # calls per_example_grads

    def __post_init__(self):
        super().__post_init__()
        self.calls = 0

    def per_example_grads(self, x, batch):
        self.calls += 1
        out = super().per_example_grads(x, batch)
        if self.calls > 3:
            out = out + np.inf
        return out


@pytest.mark.parametrize("name", sorted(_RUNNERS))
def test_runner_aborts_on_non_finite_iterate(name):
    problem = _ExplodingQuadratic(dim=3, target=np.zeros(3), curvature=1.0,
                                  noise_scale=0.5, radius=1.0)
    batches = _batches(problem, 10, 4, seed=34)
    # a recursive-gradient step evaluates two points, a clipped-gradient
    # step one (dp_srg_memf at decay 0 included), so the fourth evaluation
    # falls in step 1 or step 3; dp_srg_memf at decay > 0 takes a clipped
    # gradient at step 0 and increments after it, so it falls in step 2,
    # where both points are infinite and the increment inf - 0.5 * inf is
    # NaN: the run aborts on it, under the suite's error::RuntimeWarning
    expected = {"accelerated_dp_srgd": 1, "dp_srg_memf_decay_0.5": 2}.get(name, 3)
    with pytest.raises(RunAborted) as info:
        _RUNNERS[name](problem, batches, 10)
    assert info.value.step == expected


class _HugeGradientQuadratic(SyntheticQuadratic):
    """Finite per-example gradients of 1e307 in every coordinate: a batch
    mean of a few of them is finite, a step much larger than 1 on it is
    not."""

    _grads_and_loss = LossProblem._grads_and_loss  # calls per_example_grads

    def per_example_grads(self, x, batch):
        return np.full((len(batch), self.dim), 1e307)


def _huge_gradient_quadratic():
    return _HugeGradientQuadratic(dim=3, target=np.zeros(3), curvature=1.0,
                                  noise_scale=0.5, radius=1.0)


_OVERFLOWING_RUNNERS = {
    "dp_sgd": lambda p, batches, ball: _run_sgd(
        p, iter(batches), identity_strategy(1, len(batches)), ball, c_clip=math.inf,
        lr=100.0),
    "dp_ftrl": lambda p, batches, ball: _run_sgd(
        p, iter(batches), build_strategy("ones", 1, len(batches)), ball, c_clip=math.inf,
        lr=100.0),
    "independent_variant": lambda p, batches, ball: run_independent_variant(
        p, iter(batches), gaussian_rows(0.0, p.dim, 0, len(batches)),
        SrgdConfig(T=len(batches), beta=1e-3, ball=ball)),
    "accelerated_dp_srgd": lambda p, batches, ball: run_accelerated_dp_srgd(
        p, iter(batches), tree_rows(0.0, p.dim, 0, len(batches)),
        SrgdConfig(T=len(batches), beta=1e-3, ball=ball)),
}


@pytest.mark.parametrize("name", sorted(_OVERFLOWING_RUNNERS))
def test_projected_runners_reject_a_ball_of_another_dimension(name):
    # the steps are projected without per-call checks, so the ball's
    # dimension is checked once, before the first step
    problem = _CountingQuadratic(dim=3, target=np.zeros(3), curvature=1.0,
                                 noise_scale=0.5, radius=1.0)
    batches = _batches(problem, 4, 4, seed=36)
    with pytest.raises(ValueError, match="ball dim"):
        _OVERFLOWING_RUNNERS[name](problem, batches, ConstraintBall(problem.dim + 1, 1.0))
    assert problem.grad_rows == 0


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("name", sorted(_OVERFLOWING_RUNNERS))
def test_overflowing_projected_step_aborts_the_run(name):
    # the estimate is finite; the step it drives overflows before the
    # projection, which must end the run, not raise ValueError from
    # project_ball
    problem = _huge_gradient_quadratic()
    batches = _batches(problem, 5, 4, seed=35)
    with pytest.raises(RunAborted) as info:
        _OVERFLOWING_RUNNERS[name](problem, batches, ConstraintBall(problem.dim, 1.0))
    assert info.value.step == 0
