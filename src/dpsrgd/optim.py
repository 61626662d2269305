"""Optimizers.

The centerpiece is an accelerated projected method driven by stochastic
recursive gradients (SRG): per-batch increments delta_t = mean of
eta_t*g(x_t, d) - eta_{t-1}*g(x_{t-1}, d) are summed, and the sum plus
binary-tree prefix noise, divided by eta_t, serves as the gradient estimate.
Each example is visited in exactly one batch and contributes exactly two
gradient evaluations there.

Also provided: an independent-gradient variant of the same accelerated
scheme, matrix-factorization training (run_dp_srg_memf): projected DP-SGD
(the identity strategy) and DP-FTRL, and multi-epoch training over
recursive gradients or, at decay 0, plain ones; and a frozen-point probe
of the plain recursive estimate, whose variance grows with t. Every
runner is private: it takes its noise rows from the caller, as it takes
its batches, and the configs hold optimizer settings, not the mechanism,
its calibration or its seed: MemfConfig takes the run's length alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ConstraintBall, _interpolate, _project, all_finite, check_clip
from .objectives import LossProblem

__all__ = [
    "SrgdConfig",
    "MemfConfig",
    "RunRecord",
    "RunAborted",
    "run_accelerated_dp_srgd",
    "run_independent_variant",
    "run_dp_srg_memf",
    "potential",
    "frozen_srg_estimates",
    "variance_probe",
    "linear_fit",
]


class RunAborted(RuntimeError):
    """Raised when an iterate goes non-finite; carries the failing step."""

    def __init__(self, step: int, reason: str):
        super().__init__(f"run aborted at step {step}: {reason}")
        self.step = step
        self.reason = reason


@dataclass
class SrgdConfig:
    """Configuration for the accelerated SRG runs.

    The runners form eta_t = t + 1, the schedule that `sensitivity_bound`
    and `srgd_sigma` assume, and tau_t = eta_t / eta_{0:t} = 2 / (t + 2)
    where they read them. clip = inf leaves gradients unclipped.
    """

    T: int
    beta: float
    ball: ConstraintBall
    clip: float = math.inf

    def __post_init__(self):
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        check_clip(self.clip)


@dataclass
class MemfConfig:
    """Configuration for matrix-factorization training.

    steps, the noise strategy's k * b, is the run's length: the runner
    takes that many batches of one size. decay = 0 disables the gradient
    recursion entirely (each increment is a plain clipped gradient:
    dp_memf); decay in (0, 1] is the constant recursion weight
    (dp_srg_memf). A ball projects every step onto it (dp_sgd, dp_ftrl).
    """

    steps: int
    c_clip: float
    lr: float
    decay: float = 0.0
    momentum: float = 0.9
    ball: ConstraintBall | None = None

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not 0.0 <= self.decay <= 1.0:
            raise ValueError(f"decay must be in [0,1], got {self.decay}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0,1), got {self.momentum}")
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        check_clip(self.c_clip)


@dataclass
class RunRecord:
    """Per-step trajectory and final iterate of one optimizer run; its
    caller evaluates the iterate.

    The potential, absent on empirical tasks, is None, never zero-filled.
    No field names the runner: its caller does.
    """

    final_x: np.ndarray
    train_loss: np.ndarray
    noise_norm: np.ndarray
    grad_norm: np.ndarray
    potential: np.ndarray | None = None

    @property
    def steps(self) -> int:
        return self.train_loss.shape[0]


def potential(problem: LossProblem, y: np.ndarray, z: np.ndarray,
              x_star: np.ndarray, beta: float, eta_cum_prev: float) -> float:
    """Accelerated-method potential
    eta_{0:t-1} (F(y_t) - F(x*)) + 2 beta ||z_t - x*||^2.

    Needs the exact optimum, so it applies to synthetic problems only.
    """
    gap = problem.population_excess(y)
    dz = z - x_star
    return eta_cum_prev * gap + 2.0 * beta * float(dz @ dz)


def _check_finite(step: int, reason: str, *vectors):
    """Raise RunAborted unless every given vector (None skipped) is
    entirely finite; see `geometry.all_finite` for the one-reduction test."""
    for v in vectors:
        if v is not None and not all_finite(v):
            raise RunAborted(step, reason)


def _norm(v: np.ndarray) -> float:
    # np.linalg.norm's own formula for a 1-d vector, without its wrapper
    return math.sqrt(v.dot(v))


def _drive(problem: LossProblem, batches, T: int, estimate, noise, update,
           finish=dict) -> RunRecord:
    """The step loop of every runner. It takes exactly T batches and
    exactly T noise rows of shape (dim,). Per step t,
    estimate(t, x, prev_x, batch) -> (g, train loss) evaluates the batch
    at the query point x and its predecessor, w = next(noise) is the step's
    noise row, whose norm the record's noise_norm holds, and
    update(t, x, g, w) returns (gradient norm, iterates): the next query
    point first, the reported point last. A
    batch or noise stream that ends early aborts the run, and a row of
    another shape is refused. A non-finite estimate
    or row aborts the run, and so does a non-finite step, which the update
    checks before projecting it: the updates project and interpolate
    through geometry's cores, which take the checked vectors as they are.
    A step's estimate, noise row and batch are released before the next
    batch is drawn, so that a run holds one of each. finish() returns the
    runner's own RunRecord fields; no field names the runner, and the
    caller evaluates final_x, the last reported point."""
    train_loss, noise_norm, grad_norm = np.empty(T), np.empty(T), np.empty(T)
    iterates = (np.zeros(problem.dim),)
    x = prev_x = iterates[0]
    # next() on a bare iterator: zip would keep the last batch in its
    # reused result tuple while it draws the next one
    stream = iter(batches)
    rows = iter(noise)
    for t in range(T):
        if (batch := next(stream, None)) is None:
            raise RunAborted(t, f"stream exhausted after {t} of {T} batches")
        g, train_loss[t] = estimate(t, x, prev_x, batch)
        if (w := next(rows, None)) is None:
            raise RunAborted(t, f"noise stream exhausted after {t} of {T} rows")
        elif w.shape != x.shape:
            raise ValueError(f"noise row at step {t} has shape {w.shape}, want {x.shape}")
        _check_finite(t, "non-finite gradient estimate or noise", g, w)
        noise_norm[t] = _norm(w)
        grad_norm[t], iterates = update(t, x, g, w)
        prev_x, x = x, iterates[0]
        del g, w, batch
    return RunRecord(final_x=iterates[-1], train_loss=train_loss,
                     noise_norm=noise_norm, grad_norm=grad_norm, **finish())


def _accelerated(problem: LossProblem, cfg: SrgdConfig):
    """Update: the aggressive (z) and conservative (y) projected steps on
    the estimate, then interpolation to the next query point x; a noise
    row b moves z by b and y by b / eta_t. Returns (update, finish); the
    potential is recorded before every step and after the last when the
    problem knows its optimum."""
    if cfg.ball.dim != problem.dim:
        raise ValueError(f"ball dim {cfg.ball.dim} != problem dim {problem.dim}")
    y = z = np.zeros(problem.dim)
    x_star = problem.exact_optimum()
    pot = np.empty(cfg.T + 1) if x_star is not None else None

    def record_potential(t):
        if pot is not None:
            pot[t] = potential(problem, y, z, x_star, cfg.beta, t * (t + 1) / 2)

    def update(t, x, g, b):
        nonlocal y, z
        eta_t = t + 1.0
        record_potential(t)
        z_step, y_step = z - (eta_t / cfg.beta) * g, x - g / cfg.beta
        if b is not None:
            z_step, y_step = z_step + b, y_step + b / eta_t
        _check_finite(t, "non-finite iterate", z_step, y_step)
        z, y = _project(z_step, cfg.ball.radius), _project(y_step, cfg.ball.radius)
        return _norm(g), (_interpolate(y, z, 2.0 / (t + 3)), z, y)

    def finish():
        record_potential(cfg.T)
        return dict(potential=pot)
    return update, finish


def run_accelerated_dp_srgd(problem: LossProblem, stream, noise,
                            cfg: SrgdConfig) -> RunRecord:
    """Accelerated SRG with binary-tree noise: `noise` yields the T prefix
    rows, `counting.tree_rows` for a private run.

    Per step t: add the batch increment delta_t to the exact sum, form
    grad_est = (sum of increments + prefix noise row) / eta_t, take the
    aggressive (z) and conservative (y) projected steps, and interpolate
    to get the next query point x. The tree noise lands in the updates as
    a perturbation of size ||tree noise|| / beta per step, the figure
    the record's noise_norm holds.
    """
    accelerate, finish = _accelerated(problem, cfg)
    total = np.zeros(problem.dim)

    def estimate(t, x, prev_x, batch):
        # weights eta_t = t + 1 and eta_{t-1} = t (0 at the first step)
        return problem.srg_mean(x, prev_x, t + 1.0, float(t), batch, cfg.clip)

    def update(t, x, delta, xi):
        nonlocal total
        total += delta
        return accelerate(t, x, (total + xi) / (t + 1.0), None)

    rec = _drive(problem, stream, cfg.T, estimate, noise, update, finish)
    rec.noise_norm /= cfg.beta
    return rec


def run_independent_variant(problem: LossProblem, stream, noise,
                            cfg: SrgdConfig) -> RunRecord:
    """Same accelerated updates but with a fresh minibatch gradient each
    step (one evaluation per example) and, in place of the tree's prefix
    rows, independent per-step rows from `noise` (`counting.gaussian_rows`
    for a private run)."""
    update, finish = _accelerated(problem, cfg)
    return _drive(problem, stream, cfg.T,
                  lambda t, x, prev_x, batch: problem.clipped_mean_grad(x, batch, cfg.clip),
                  noise, update, finish)


def frozen_srg_estimates(problem: LossProblem, batches, steps) -> np.ndarray:
    """The recursive estimate at the frozen point 0 with unit weights, the
    running sum of srg_mean(0, 0, 1, w_prev, batch) with w_prev = 0 at the
    first batch and 1 after, at each of `steps` (in 1..len(batches)):
    shape (len(steps), dim). A batch costs a runner's step's two
    evaluations per example, in its order."""
    steps = list(steps)
    if not steps or not all(1 <= s <= len(batches) for s in steps):
        raise ValueError(f"steps must lie in 1..{len(batches)}, got {steps}")
    x0 = np.zeros(problem.dim)
    increments = [problem.srg_mean(x0, x0, 1.0, 0.0 if t == 0 else 1.0, batch)[0]
                  for t, batch in enumerate(batches[:max(steps)])]
    return np.cumsum(increments, axis=0)[np.subtract(steps, 1)]


def variance_probe(estimates) -> np.ndarray:
    """Var(grad_t) = E||grad_t - mean grad_t||^2 at each step over seeds,
    from one frozen_srg_estimates array per seed."""
    grads = np.stack(estimates)  # (S, steps, dim)
    if (S := grads.shape[0]) < 2:
        raise ValueError(f"a variance needs at least two seeds, got {S}")
    centered = grads - grads.mean(axis=0, keepdims=True)
    return (centered**2).sum(axis=2).sum(axis=0) / (S - 1)


def linear_fit(xs, ys) -> tuple[float, float, float]:
    """Least-squares line fit returning (slope, intercept, r_squared)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    total = np.sum((ys - ys.mean())**2)
    r2 = 1.0 - np.sum(resid**2) / total if total > 0 else 1.0
    return float(slope), float(intercept), float(r2)


def run_dp_srg_memf(problem: LossProblem, batches, noise,
                    cfg: MemfConfig) -> RunRecord:
    """Matrix-factorization training with SGD with momentum.

    The run takes cfg.steps batches, all of one size, in the order given,
    as a list or a stream: the caller picks them and their order (the
    harness repeats b fixed batches each epoch), and the
    strategy's column-group constraint accounts for an example's repeated
    participation. `noise` yields as many rows, the strategy's
    `counting.mf_noise_stream` for a private run. Per step, the per-example
    increments g(x_t, d) - c * g(x_{t-1}, d) are clipped and averaged and
    the noise row w_t is added. At decay c > 0 (dp_srg_memf) the estimate
    is the recursion grad_t = c * grad_{t-1} + (increment + w_t), so each
    row enters it once. At c = 0 no recursion is kept: the
    estimate is the clipped gradient plus w_t, and grad_norm reports the
    clipped gradient alone. A step whose weight is zero (every step at
    c = 0, the first at any c) evaluates the batch at x_t alone, through
    clipped_mean_grad. With a ball every checked step is projected onto
    it: at c = 0 that is dp_sgd for the identity strategy and dp_ftrl for
    any other, and without one dp_memf.
    """
    steps, ball = cfg.steps, cfg.ball
    if hasattr(batches, "__len__") and len(batches) != steps:
        raise ValueError(f"{len(batches)} batches != the strategy's {steps} steps")
    if ball is not None and ball.dim != problem.dim:
        raise ValueError(f"ball dim {ball.dim} != problem dim {problem.dim}")
    velocity = np.zeros(problem.dim)
    grad_rec = np.zeros(problem.dim) if cfg.decay > 0.0 else None
    size = None

    def estimate(t, x, prev_x, batch):
        nonlocal size
        m = len(batch)
        if m != (size := size or m):
            raise ValueError(f"batches differ in size: {m} at step {t}, {size} before")
        c_t = cfg.decay if t > 0 else 0.0
        if c_t == 0.0:
            return problem.clipped_mean_grad(x, batch, cfg.c_clip)
        return problem.srg_mean(x, prev_x, 1.0, c_t, batch, cfg.c_clip)

    def update(t, x, delta, w_t):
        nonlocal velocity, grad_rec
        g, reported = delta + w_t, delta
        if grad_rec is not None:
            g = reported = grad_rec = (cfg.decay if t > 0 else 0.0) * grad_rec + g
        velocity = cfg.momentum * velocity + g
        step = x - cfg.lr * velocity
        _check_finite(t, "non-finite iterate", step)
        return _norm(reported), (
            _project(step, ball.radius) if ball is not None else step,)

    return _drive(problem, batches, steps, estimate, noise, update)
