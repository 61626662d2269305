"""Optimizers.

The centerpiece is an accelerated projected method driven by stochastic
recursive gradients (SRG): per-batch increments delta_t = mean of
eta_t*g(x_t, d) - eta_{t-1}*g(x_{t-1}, d) are summed, and the sum plus
binary-tree prefix noise, divided by eta_t, serves as the gradient estimate.
Each example is visited in exactly one batch and contributes exactly two
gradient evaluations there.

Also provided: the same accelerated scheme on fresh clipped gradients
plus i.i.d. rows (DP-SGD's estimate), matrix-factorization training
(run_dp_srg_memf): projected DP-SGD (the identity strategy) and DP-FTRL,
and multi-epoch training over recursive gradients or, at decay 0, plain
ones. The module holds only what a run executes: the runners, their
configs, their step loop and the potential diagnostic. Every runner is
private: it takes its noise rows from the caller, as it takes its
batches, and the configs hold optimizer settings, not the mechanism, its
calibration or its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ConstraintBall, _interpolate, _project, all_finite, check_clip, check_in
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
        check_in("T", self.T, "{1, 2, ...}")
        check_in("beta", self.beta, "(0, inf)")
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
        check_in("steps", self.steps, "{1, 2, ...}")
        check_in("decay", self.decay, "[0, 1]")
        check_in("momentum", self.momentum, "[0, 1)")
        check_in("lr", self.lr, "(0, inf)")
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
    """The step loop of every runner. It takes exactly T >= 1 batches and
    exactly T noise rows of shape (dim,). The loop owns one C-contiguous
    (2, dim) array `points`: row 0 is the query point x_t, row 1 its
    predecessor x_{t-1} (both 0 at the first step). Per step t,
    estimate(t, points, batch) -> (g, train loss) evaluates the batch at
    the points, w = next(noise) is the step's noise row, whose norm the
    record's noise_norm holds, and update(t, points[0], g, w) returns
    (gradient norm, iterates): the next query point first, the reported
    point last. Then row 0 is copied into row 1 and the next query point
    into row 0, so the points belong to the loop: a hook or update reads
    them during the step, and one that keeps a point copies it. A
    batch or noise stream that ends early aborts the run, and a row of
    another shape is refused. A non-finite estimate
    or row aborts the run, and so does a non-finite step, which the update
    checks before projecting it: the updates project and interpolate
    through geometry's cores, which take the checked vectors as they are.
    A step's estimate, noise row and batch are released before the next
    batch is drawn, so that a run holds one of each, and so is the step's
    iterates tuple, all but the last step's: between steps the loop holds
    points alone, and the update what a later step reads. finish()
    returns the runner's own RunRecord fields; no field names the runner,
    and the caller evaluates final_x, the last reported point."""
    train_loss, noise_norm, grad_norm = np.empty(T), np.empty(T), np.empty(T)
    points = np.zeros((2, problem.dim))
    x, prev_x = points  # views of its rows
    # next() on a bare iterator: zip would keep the last batch in its
    # reused result tuple while it draws the next one
    stream = iter(batches)
    rows = iter(noise)
    for t in range(T):
        if (batch := next(stream, None)) is None:
            raise RunAborted(t, f"stream exhausted after {t} of {T} batches")
        g, train_loss[t] = estimate(t, points, batch)
        if (w := next(rows, None)) is None:
            raise RunAborted(t, f"noise stream exhausted after {t} of {T} rows")
        elif w.shape != x.shape:
            raise ValueError(f"noise row at step {t} has shape {w.shape}, want {x.shape}")
        _check_finite(t, "non-finite gradient estimate or noise", g, w)
        noise_norm[t] = _norm(w)
        grad_norm[t], iterates = update(t, x, g, w)
        prev_x[:] = x
        x[:] = iterates[0]
        del g, w, batch
        if t + 1 < T:
            del iterates  # the reported point is read after the last step only
    return RunRecord(final_x=iterates[-1], train_loss=train_loss,
                     noise_norm=noise_norm, grad_norm=grad_norm, **finish())


def _accelerated(problem: LossProblem, cfg: SrgdConfig):
    """Update: the aggressive (z) and conservative (y) projected steps on
    the gradient estimate g, noise included, then interpolation to the next
    query point x. Returns (update, finish); the potential is recorded
    before every step and after the last when the problem knows its
    optimum. The next step reads z but not y, so y is kept between steps
    only for the potential."""
    if cfg.ball.dim != problem.dim:
        raise ValueError(f"ball dim {cfg.ball.dim} != problem dim {problem.dim}")
    z = np.zeros(problem.dim)
    x_star = problem.exact_optimum()
    pot = y = None
    if x_star is not None:
        pot, y = np.empty(cfg.T + 1), z

    def record_potential(t):
        if pot is not None:
            pot[t] = potential(problem, y, z, x_star, cfg.beta, t * (t + 1) / 2)

    def update(t, x, g):
        nonlocal y, z
        record_potential(t)
        z_step, y_step = z - ((t + 1.0) / cfg.beta) * g, x - g / cfg.beta
        _check_finite(t, "non-finite iterate", z_step, y_step)
        z, y_next = _project(z_step, cfg.ball.radius), _project(y_step, cfg.ball.radius)
        if pot is not None:
            y = y_next
        return _norm(g), (_interpolate(y_next, z, 2.0 / (t + 3)), z, y_next)

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

    def estimate(t, points, batch):
        # weights eta_t = t + 1 and eta_{t-1} = t (0 at the first step)
        return problem.srg_mean(points, t + 1.0, float(t), batch, cfg.clip)

    def update(t, x, delta, xi):
        nonlocal total
        total += delta
        return accelerate(t, x, (total + xi) / (t + 1.0))

    rec = _drive(problem, stream, cfg.T, estimate, noise, update, finish)
    rec.noise_norm /= cfg.beta
    return rec


def run_independent_variant(problem: LossProblem, stream, noise,
                            cfg: SrgdConfig) -> RunRecord:
    """Same accelerated updates on a fresh clipped minibatch gradient g_t
    each step (one evaluation per example) plus the step's row w_t from
    `noise` (for a private run, the i.i.d. rows of the identity strategy's
    `counting.mf_noise_stream`): DP-SGD's estimate g_t + w_t, whose norm
    grad_norm holds, in place of the tree's prefix."""
    accelerate, finish = _accelerated(problem, cfg)
    return _drive(problem, stream, cfg.T,
                  lambda t, points, batch: problem.clipped_mean_grad(points[0], batch,
                                                                     cfg.clip),
                  noise, lambda t, x, g, w: accelerate(t, x, g + w), finish)


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

    The update adds w_t into the estimate, which the runner owns (see
    `LossProblem`), and updates the recursion and the velocity in place;
    the step x_t - lr * velocity is the one fresh array a step makes. The
    operations and their order are those of the out-of-place form.
    """
    steps, ball = cfg.steps, cfg.ball
    if hasattr(batches, "__len__") and len(batches) != steps:
        raise ValueError(f"{len(batches)} batches != the strategy's {steps} steps")
    if ball is not None and ball.dim != problem.dim:
        raise ValueError(f"ball dim {ball.dim} != problem dim {problem.dim}")
    velocity = np.zeros(problem.dim)
    grad_rec = np.zeros(problem.dim) if cfg.decay > 0.0 else None
    size = None

    def estimate(t, points, batch):
        nonlocal size
        m = len(batch)
        if m != (size := size or m):
            raise ValueError(f"batches differ in size: {m} at step {t}, {size} before")
        c_t = cfg.decay if t > 0 else 0.0
        if c_t == 0.0:
            return problem.clipped_mean_grad(points[0], batch, cfg.c_clip)
        return problem.srg_mean(points, 1.0, c_t, batch, cfg.c_clip)

    def update(t, x, g, w_t):
        nonlocal velocity, grad_rec  # rebound by the in-place operators to themselves
        reported = _norm(g) if grad_rec is None else None  # before w_t lands in g
        g += w_t
        if grad_rec is not None:
            grad_rec *= cfg.decay if t > 0 else 0.0
            grad_rec += g
            g, reported = grad_rec, _norm(grad_rec)
        velocity *= cfg.momentum
        velocity += g
        step = np.multiply(velocity, cfg.lr)
        np.subtract(x, step, out=step)
        _check_finite(t, "non-finite iterate", step)
        return reported, (_project(step, ball.radius) if ball is not None else step,)

    return _drive(problem, batches, steps, estimate, noise, update)
