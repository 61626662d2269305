"""Optimizers.

The centerpiece is an accelerated projected method driven by stochastic
recursive gradients (SRG): per-batch increments delta_t = mean of
eta_t*g(x_t, d) - eta_{t-1}*g(x_{t-1}, d) are summed, and the sum plus
binary-tree prefix noise, divided by eta_t, serves as the gradient estimate.
Each example is visited in exactly one batch and contributes exactly two
gradient evaluations there.

Also provided: an independent-gradient variant of the same accelerated
scheme, an unaccelerated SRG loop with a variance probe, DP-FTRL (whose
identity mechanism is DP-SGD), and multi-epoch matrix-factorization
training (run_dp_srg_memf), over recursive gradients or, at decay 0, plain ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .counting import StrategyMatrix, gaussian_rows, mf_noise_stream, tree_rows
from .geometry import ConstraintBall, _interpolate, _project, all_finite, check_clip
from .objectives import LossProblem

__all__ = [
    "SrgdConfig",
    "MemfConfig",
    "RunRecord",
    "RunAborted",
    "run_accelerated_dp_srgd",
    "run_independent_variant",
    "run_unaccelerated_srgd",
    "run_dp_ftrl",
    "run_dp_srg_memf",
    "potential",
    "variance_probe",
    "linear_fit",
]


class RunAborted(RuntimeError):
    """Raised when an iterate goes non-finite; carries the failing step."""

    def __init__(self, step: int, reason: str):
        super().__init__(f"run aborted at step {step}: {reason}")
        self.step = step
        self.reason = reason


def _schedule(sched, n: int, name: str, at_least: str) -> np.ndarray:
    """The first n entries, finite and positive, of a callable t -> value
    or an array of at least n (`at_least`) entries."""
    if callable(sched):
        values = np.array([float(sched(t)) for t in range(n)])
    else:
        values = np.asarray(sched, dtype=np.float64)[:n]
        if values.shape[0] < n:
            raise ValueError(f"{name} must have at least {at_least} entries")
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")
    if np.any(values <= 0):
        raise ValueError(f"{name} must be positive")
    return values


@dataclass
class SrgdConfig:
    """Configuration for the accelerated SRG runs.

    eta may be None (default schedule eta_t = t+1), a callable t -> eta_t,
    or an array of length >= T+1. The schedule must be nondecreasing with
    eta_t^2 <= 4 * eta_{0:t}; both are asserted at construction. tau is
    derived as tau_t = eta_t / eta_{0:t}. clip = inf leaves gradients
    unclipped.
    """

    T: int
    beta: float
    ball: ConstraintBall
    sigma: float = 0.0
    clip: float = math.inf
    eta: object = None
    seed: int = 0
    eta_values: np.ndarray = field(init=False)
    eta_cumsum: np.ndarray = field(init=False)
    tau: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be nonnegative and finite, got {self.sigma}")
        check_clip(self.clip)
        if self.eta is None:
            values = np.arange(1, self.T + 2, dtype=np.float64)
        else:
            values = _schedule(self.eta, self.T + 1, "eta values", "T+1")
        if np.any(np.diff(values) < 0):
            raise ValueError("eta schedule must be nondecreasing")
        cumsum = np.cumsum(values)
        if np.any(values**2 > 4.0 * cumsum * (1 + 1e-12)):
            raise ValueError("eta schedule violates eta_t^2 <= 4 * eta_{0:t}")
        tau = values / cumsum
        if np.any((tau < 0) | (tau > 1)):
            raise ValueError("tau values must lie in [0, 1]")
        self.eta_values = values
        self.eta_cumsum = cumsum
        self.tau = tau


@dataclass
class MemfConfig:
    """Configuration for multi-epoch matrix-factorization training.

    The strategy's k and b are the run's shape: the runner takes b batches
    of one size and revisits them in order for k epochs. decay = 0 disables
    the gradient recursion entirely (each increment is a plain clipped
    gradient: dp_memf); decay in (0, 1] is the constant recursion weight
    (dp_srg_memf).
    """

    strategy: StrategyMatrix
    sigma: float
    c_clip: float
    lr: float
    decay: float = 0.0
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.decay <= 1.0:
            raise ValueError(f"decay must be in [0,1], got {self.decay}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0,1), got {self.momentum}")
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be nonnegative and finite, got {self.sigma}")
        check_clip(self.c_clip)
        self.strategy.check()


@dataclass
class RunRecord:
    """Per-step trajectory plus final metrics for one optimizer run.

    Absent diagnostics (potential and q_norm on empirical tasks, accuracy
    on synthetic ones) are None, never zero-filled. `iterates` and q_norm,
    the distance of the accelerated runner's noiseless recursive estimate
    from the population gradient, are recorded only when that runner is
    asked to `record_iterates`.
    """

    algorithm: str
    seed: int
    final_x: np.ndarray
    train_loss: np.ndarray
    noise_norm: np.ndarray
    grad_norm: np.ndarray
    potential: np.ndarray | None = None
    q_norm: np.ndarray | None = None
    excess: float | None = None
    accuracy: float | None = None
    checkpoint_steps: np.ndarray | None = None
    checkpoint_grads: np.ndarray | None = None
    iterates: np.ndarray | None = None

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


def _norm(v: np.ndarray | None) -> float:
    # np.linalg.norm's own formula for a 1-d vector, without its wrapper
    return math.sqrt(v.dot(v)) if v is not None else 0.0


def _drive(problem: LossProblem, batches, T: int, estimate, noise, update,
           algorithm: str, seed: int, finish=dict) -> RunRecord:
    """The step loop of every runner. It takes exactly T batches. Per step
    t, estimate(t, x, prev_x, batch) -> (g, train loss) evaluates the batch
    at the query point x and its predecessor, w = next(noise) is the step's
    noise row (None when noise is None), and update(t, x, g, w) returns
    (noise norm, gradient norm, iterates): the next query point first, the
    reported point last. A non-finite estimate or row aborts the run, and
    so does a non-finite step, which the update checks before projecting
    it: the updates project and interpolate through geometry's cores,
    which take the checked vectors as they are. A step's estimate, noise
    row and batch are released before the next batch is drawn, so that a
    run holds one of each. finish() returns the runner's own RunRecord
    fields."""
    train_loss, noise_norm, grad_norm = np.empty(T), np.empty(T), np.empty(T)
    iterates = (np.zeros(problem.dim),)
    x = prev_x = iterates[0]
    # next() on a bare iterator: zip would keep the last batch in its
    # reused result tuple while it draws the next one
    stream = iter(batches)
    for t in range(T):
        try:
            batch = next(stream)
        except StopIteration:
            raise RunAborted(t, f"stream exhausted after {t} of {T} batches") from None
        g, train_loss[t] = estimate(t, x, prev_x, batch)
        w = next(noise) if noise is not None else None
        _check_finite(t, "non-finite gradient estimate or noise", g, w)
        noise_norm[t], grad_norm[t], iterates = update(t, x, g, w)
        prev_x, x = x, iterates[0]
        del g, w, batch
    # a noise stream keeps state (the tree's stack, an MF window of solved
    # rows); free it before the held-out pass
    noise = None
    out = iterates[-1]
    excess, accuracy = problem.excess_and_accuracy(out)
    return RunRecord(
        algorithm=algorithm, seed=seed, final_x=out, train_loss=train_loss,
        noise_norm=noise_norm, grad_norm=grad_norm, excess=excess,
        accuracy=accuracy, **finish())


def _clipped(problem: LossProblem, c_clip: float):
    """Estimate: the clipped batch-mean gradient at the query point."""
    return lambda t, x, prev_x, batch: problem.clipped_mean_grad(x, batch, c_clip)


def _projected(dim: int, eta_lr: float, ball: ConstraintBall | None):
    """Update: x - eta_lr * (estimate + noise row), projected onto the ball
    when there is one."""
    if ball is not None and ball.dim != dim:
        raise ValueError(f"ball dim {ball.dim} != problem dim {dim}")

    def update(t, x, g, w):
        step = x - eta_lr * (g + w if w is not None else g)
        _check_finite(t, "non-finite iterate", step)
        return _norm(w), _norm(g), (_project(step, ball.radius) if ball is not None else step,)
    return update


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
            pot[t] = potential(problem, y, z, x_star, cfg.beta,
                               cfg.eta_cumsum[t - 1] if t > 0 else 0.0)

    def update(t, x, g, b):
        nonlocal y, z
        eta_t = cfg.eta_values[t]
        record_potential(t)
        z_step, y_step = z - (eta_t / cfg.beta) * g, x - g / cfg.beta
        if b is not None:
            z_step, y_step = z_step + b, y_step + b / eta_t
        _check_finite(t, "non-finite iterate", z_step, y_step)
        z, y = _project(z_step, cfg.ball.radius), _project(y_step, cfg.ball.radius)
        return _norm(b), _norm(g), (_interpolate(y, z, cfg.tau[t + 1]), z, y)

    def finish():
        record_potential(cfg.T)
        return dict(potential=pot)
    return update, finish


def run_accelerated_dp_srgd(problem: LossProblem, stream, cfg: SrgdConfig,
                            record_iterates: bool = False) -> RunRecord:
    """Accelerated SRG with binary-tree noise.

    Per step t: add the batch increment delta_t to the exact sum, form
    grad_est = (sum of increments + tree prefix noise) / eta_t, take the
    aggressive (z) and conservative (y) projected steps, and interpolate
    to get the next query point x. The tree noise lands in the updates as
    a perturbation of size ||tree noise|| / beta per step.
    """
    eta = cfg.eta_values
    accelerate, finish = _accelerated(problem, cfg)
    total = np.zeros(problem.dim)
    q_norm = (np.empty(cfg.T) if record_iterates and problem.exact_optimum() is not None
              else None)
    iterates = np.empty((cfg.T, problem.dim)) if record_iterates else None

    def estimate(t, x, prev_x, batch):
        if iterates is not None:
            iterates[t] = x
        w_prev = eta[t - 1] if t > 0 else 0.0
        return problem.srg_mean(x, prev_x, eta[t], w_prev, batch, cfg.clip)

    def update(t, x, delta, xi):
        nonlocal q_norm, total
        total += delta
        pop_grad = problem.population_grad(x) if q_norm is not None else None
        if pop_grad is None:
            q_norm = None
        else:
            q_norm[t] = _norm(total / eta[t] - pop_grad)
        _, grad_norm, next_iterates = accelerate(t, x, (total + xi) / eta[t], None)
        return _norm(xi) / cfg.beta, grad_norm, next_iterates

    return _drive(problem, stream, cfg.T, estimate,
                  tree_rows(cfg.sigma, problem.dim, cfg.seed, cfg.T), update,
                  "accelerated_dp_srgd", cfg.seed,
                  lambda: dict(finish(), q_norm=q_norm, iterates=iterates))


def run_independent_variant(problem: LossProblem, stream, cfg: SrgdConfig) -> RunRecord:
    """Same accelerated updates but with a fresh minibatch gradient each
    step (one evaluation per example) and independent per-step Gaussian
    noise of std cfg.sigma per coordinate in place of the tree."""
    update, finish = _accelerated(problem, cfg)
    return _drive(problem, stream, cfg.T, _clipped(problem, cfg.clip),
                  gaussian_rows(cfg.sigma, problem.dim, cfg.seed, cfg.T), update,
                  "independent_variant", cfg.seed, finish)


def run_unaccelerated_srgd(problem: LossProblem, stream, eta_lr: float,
                           c_sched, T: int, ball: ConstraintBall | None = None,
                           seed: int = 0,
                           checkpoints=None) -> RunRecord:
    """Plain projected SGD over recursive gradients: increments
    delta_t = mean of c_t*g(x_t,d) - c_{t-1}*g(x_{t-1},d), accumulated and
    divided by c_t. The gradient estimate is recorded at checkpoint steps
    (default T/4, T/2, 3T/4, T; others must lie in 1..T) so repeated seeded
    runs can estimate Var(grad_t) externally.
    """
    c_values = _schedule(c_sched, T, "c schedule", "T")
    if checkpoints is None:
        checkpoints = sorted({max(1, (T * m) // 4) for m in (1, 2, 3, 4)})
    checkpoints = list(checkpoints)
    if not checkpoints or not all(1 <= s <= T for s in checkpoints):
        raise ValueError(f"checkpoints must be steps in 1..{T}, got {checkpoints}")
    acc, cp_grads = np.zeros(problem.dim), {}

    def estimate(t, x, prev_x, batch):
        nonlocal acc
        c_prev = c_values[t - 1] if t > 0 else 0.0
        delta, loss = problem.srg_mean(x, prev_x, c_values[t], c_prev, batch)
        acc = acc + delta
        grad_est = acc / c_values[t]
        if (t + 1) in checkpoints:
            cp_grads[t + 1] = grad_est
        return grad_est, loss

    def finish():
        steps = np.array(sorted(cp_grads))
        grads = np.stack([cp_grads[s] for s in steps]) if len(steps) else None
        return dict(checkpoint_steps=steps, checkpoint_grads=grads)

    return _drive(problem, stream, T, estimate, None,
                  _projected(problem.dim, eta_lr, ball), "unaccelerated_srgd", seed,
                  finish=finish)


def variance_probe(run_factory, seeds):
    """Estimate Var(grad_t) = E||grad_t - mean grad_t||^2 at each
    checkpoint over seeded runs. run_factory(seed) must return a RunRecord
    carrying checkpoint gradients. Returns (steps, variances)."""
    records = [run_factory(seed) for seed in seeds]
    steps = records[0].checkpoint_steps
    grads = np.stack([r.checkpoint_grads for r in records])  # (S, cp, dim)
    centered = grads - grads.mean(axis=0, keepdims=True)
    S = grads.shape[0]
    variances = (centered**2).sum(axis=2).sum(axis=0) / (S - 1)
    return steps, variances


def linear_fit(xs, ys) -> tuple[float, float, float]:
    """Least-squares line fit returning (slope, intercept, r_squared)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    total = np.sum((ys - ys.mean())**2)
    r2 = 1.0 - np.sum(resid**2) / total if total > 0 else 1.0
    return float(slope), float(intercept), float(r2)


def run_dp_ftrl(problem: LossProblem, stream, eta_lr: float, c_clip: float,
                sigma: float, ball: ConstraintBall | None, T: int, seed: int = 0,
                strategy: StrategyMatrix | None = None) -> RunRecord:
    """Projected SGD over clipped mean gradients plus a noise row per step.

    With no strategy, the identity mechanism: the rows are i.i.d. Gaussian
    of per-coordinate std sigma, no matrix is held, and the run is dp_sgd.
    With a strategy of T steps, the rows are those of C^{-1} Z, Z of
    per-coordinate std sigma, correlated across steps by C: dp_ftrl.
    """
    if strategy is not None and T != strategy.steps:
        raise ValueError(f"T = {T} != the strategy's {strategy.steps} steps")
    noise = (gaussian_rows(sigma, problem.dim, seed, T) if strategy is None
             else mf_noise_stream(strategy, sigma, problem.dim, seed))
    return _drive(problem, stream, T, _clipped(problem, c_clip), noise,
                  _projected(problem.dim, eta_lr, ball),
                  "dp_sgd" if strategy is None else "dp_ftrl", seed)


def _epochs(problem: LossProblem, batches, cfg: MemfConfig) -> list:
    """The batches of every epoch, revisited in the same fixed order: the
    strategy's b batches, all of one size, for its k epochs."""
    if len(batches) != cfg.strategy.b:
        raise ValueError(f"expected {cfg.strategy.b} batches, got {len(batches)}")
    sizes = {problem.batch_size(batch) for batch in batches}
    if len(sizes) != 1:
        raise ValueError(f"batches differ in size: {sorted(sizes)}")
    return list(batches) * cfg.strategy.k


def run_dp_srg_memf(problem: LossProblem, batches, cfg: MemfConfig) -> RunRecord:
    """Multi-epoch matrix-factorization training with SGD with momentum.

    Batches are revisited in the same fixed order every epoch; the
    strategy matrix's column-group constraint accounts for an example's
    repeated participation. Per step, the per-example increments
    g(x_t, d) - c * g(x_{t-1}, d) are clipped and averaged and a correlated
    noise row w_t is added. At decay c > 0 (dp_srg_memf) the estimate is the
    recursion grad_t = c * grad_{t-1} + (increment + w_t), so each row
    enters it once. At c = 0 (dp_memf) no recursion is kept: the estimate
    is the clipped gradient plus w_t, and grad_norm reports the clipped
    gradient alone. A step whose weight is zero (every step at c = 0, the
    first at any c) evaluates the batch at x_t alone, through
    clipped_mean_grad.
    """
    velocity = np.zeros(problem.dim)
    grad_rec = np.zeros(problem.dim) if cfg.decay > 0.0 else None

    def estimate(t, x, prev_x, batch):
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
        return _norm(w_t), _norm(reported), (step,)

    return _drive(problem, _epochs(problem, batches, cfg), cfg.strategy.steps,
                  estimate,
                  mf_noise_stream(cfg.strategy, cfg.sigma, problem.dim, cfg.seed),
                  update, "dp_srg_memf" if cfg.decay > 0.0 else "dp_memf", cfg.seed)
