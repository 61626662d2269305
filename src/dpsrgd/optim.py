"""Optimizers.

The centerpiece is an accelerated projected method driven by stochastic
recursive gradients (SRG): per-batch increments delta_t = mean of
eta_t*g(x_t, d) - eta_{t-1}*g(x_{t-1}, d) are streamed into a binary tree,
and the noisy prefix sum divided by eta_t serves as the gradient estimate.
Each example is visited in exactly one batch and contributes exactly two
gradient evaluations there.

Also provided: an independent-gradient variant of the same accelerated
scheme, an unaccelerated SRG loop with a variance probe, DP-SGD and
DP-FTRL baselines, and multi-epoch matrix-factorization training with
plain (run_dp_memf) or recursive (run_dp_srg_memf) gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .counting import StrategyMatrix, TreeState, mf_noise_stream, tree_ingest, tree_prefix
from .geometry import ConstraintBall, interpolate, project_ball
from .objectives import LossProblem

__all__ = [
    "SrgdConfig",
    "MemfConfig",
    "RunRecord",
    "RunAborted",
    "run_accelerated_dp_srgd",
    "run_independent_variant",
    "run_unaccelerated_srgd",
    "run_dp_sgd",
    "run_dp_ftrl",
    "run_dp_memf",
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


@dataclass
class SrgdConfig:
    """Configuration for the accelerated SRG runs.

    eta may be None (default schedule eta_t = t+1), a callable t -> eta_t,
    or an array of length >= T+1. The schedule must be nondecreasing with
    eta_t^2 <= 4 * eta_{0:t}; both are asserted at construction. tau is
    derived as tau_t = eta_t / eta_{0:t}.
    """

    T: int
    B: int
    n: int
    beta: float
    ball: ConstraintBall
    sigma: float = 0.0
    clip: float | None = None
    eta: object = None
    seed: int = 0
    eta_values: np.ndarray = field(init=False)
    eta_cumsum: np.ndarray = field(init=False)
    tau: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if self.B < 1:
            raise ValueError(f"B must be >= 1, got {self.B}")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.eta is None:
            values = np.arange(1, self.T + 2, dtype=np.float64)
        elif callable(self.eta):
            values = np.array([float(self.eta(t)) for t in range(self.T + 1)])
        else:
            values = np.asarray(self.eta, dtype=np.float64)[:self.T + 1]
            if values.shape[0] < self.T + 1:
                raise ValueError("eta array must have at least T+1 entries")
        if np.any(values <= 0):
            raise ValueError("eta values must be positive")
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

    decay = 0 disables the gradient recursion entirely (each increment is
    a plain clipped gradient); decay in (0, 1] is the constant recursion
    weight. double_noise keeps the extra correlated-noise row added to the
    recursive gradient right before the optimizer step (on by default);
    set it False to hand the optimizer the recursion output alone.
    """

    epochs: int
    batches_per_epoch: int
    batch_size: int
    strategy: StrategyMatrix
    rho: float
    c_clip: float
    lr: float
    decay: float = 0.0
    momentum: float = 0.9
    seed: int = 0
    double_noise: bool = True

    def __post_init__(self):
        if self.epochs < 1 or self.batches_per_epoch < 1:
            raise ValueError("epochs and batches_per_epoch must be >= 1")
        if not 0.0 <= self.decay <= 1.0:
            raise ValueError(f"decay must be in [0,1], got {self.decay}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0,1), got {self.momentum}")
        if self.rho <= 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if self.strategy.steps != self.epochs * self.batches_per_epoch:
            raise ValueError(
                f"strategy covers {self.strategy.steps} steps but config asks "
                f"{self.epochs} x {self.batches_per_epoch}")
        self.strategy.check()
        if math.isfinite(self.rho) and not math.isfinite(self.c_clip):
            raise ValueError("finite rho requires a finite clip norm")


@dataclass
class RunRecord:
    """Per-step trajectory plus final metrics for one optimizer run.

    Absent diagnostics (potential and q_norm on empirical tasks, accuracy
    on synthetic ones) are None, never zero-filled.
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
    flags: dict = field(default_factory=dict)
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


def _check_finite(step: int, *vectors):
    for v in vectors:
        if not np.all(np.isfinite(v)):
            raise RunAborted(step, "non-finite iterate")


def _final_metrics(problem, x):
    excess = problem.population_excess(x)
    accuracy = problem.accuracy(x) if hasattr(problem, "accuracy") else None
    return excess, accuracy


def run_accelerated_dp_srgd(problem: LossProblem, stream, cfg: SrgdConfig,
                            flags: dict | None = None,
                            record_iterates: bool = False) -> RunRecord:
    """Accelerated SRG with binary-tree noise.

    Per step t: ingest the batch increment delta_t, read the noisy prefix,
    form grad_est = (sum of increments + tree noise) / eta_t, take the
    aggressive (z) and conservative (y) projected steps, and interpolate
    to get the next query point x. The tree noise lands in the updates as
    a perturbation of size ||tree noise|| / beta per step.
    """
    dim = problem.dim
    if cfg.ball.dim != dim:
        raise ValueError(f"ball dim {cfg.ball.dim} != problem dim {dim}")
    T = cfg.T
    eta, eta_cum, tau = cfg.eta_values, cfg.eta_cumsum, cfg.tau
    c_clip = cfg.clip if cfg.clip is not None else np.inf

    x = np.zeros(dim)
    y = np.zeros(dim)
    z = np.zeros(dim)
    prev_x = x
    tree = TreeState(horizon=T, dim=dim, sigma=cfg.sigma, seed=cfg.seed)

    x_star = problem.exact_optimum()
    train_loss = np.empty(T)
    noise_norm = np.empty(T)
    grad_norm = np.empty(T)
    pot = np.empty(T + 1) if x_star is not None else None
    q_norm = np.empty(T) if x_star is not None else None
    iterates = np.empty((T, dim)) if record_iterates else None

    t = -1
    for t, batch in enumerate(stream):
        if t >= T:
            t -= 1
            break
        if iterates is not None:
            iterates[t] = x
        w_prev = eta[t - 1] if t > 0 else 0.0
        delta, train_loss[t] = problem.srg_mean(x, prev_x, eta[t], w_prev, batch, c_clip)
        tree_ingest(tree, t + 1, delta)
        estimate, xi = tree_prefix(tree, t + 1)
        grad_est = estimate / eta[t]

        noise_norm[t] = float(np.linalg.norm(xi)) / cfg.beta
        grad_norm[t] = float(np.linalg.norm(grad_est))
        if x_star is not None:
            pot[t] = potential(problem, y, z, x_star, cfg.beta,
                               eta_cum[t - 1] if t > 0 else 0.0)
            pop_grad = problem.population_grad(x)
            if pop_grad is None:
                q_norm = None
            if q_norm is not None:
                q_norm[t] = float(np.linalg.norm((estimate - xi) / eta[t] - pop_grad))

        z = project_ball(z - (eta[t] / cfg.beta) * grad_est, cfg.ball)
        y = project_ball(x - grad_est / cfg.beta, cfg.ball)
        prev_x = x
        x = interpolate(y, z, tau[t + 1])
        _check_finite(t, x, y, z)
    if t + 1 < T:
        raise RunAborted(t + 1, f"stream exhausted after {t + 1} of {T} batches")
    if pot is not None:
        pot[T] = potential(problem, y, z, x_star, cfg.beta, eta_cum[T - 1])

    excess, accuracy = _final_metrics(problem, y)
    return RunRecord(
        algorithm="accelerated_dp_srgd", seed=cfg.seed, final_x=y,
        train_loss=train_loss, noise_norm=noise_norm, grad_norm=grad_norm,
        potential=pot, q_norm=q_norm, excess=excess, accuracy=accuracy,
        flags=dict(flags or {}), iterates=iterates,
    )


def run_independent_variant(problem: LossProblem, stream, cfg: SrgdConfig,
                            flags: dict | None = None) -> RunRecord:
    """Same accelerated updates but with a fresh minibatch gradient each
    step (one evaluation per example) and independent per-step Gaussian
    noise of std cfg.sigma per coordinate in place of the tree."""
    dim = problem.dim
    if cfg.ball.dim != dim:
        raise ValueError(f"ball dim {cfg.ball.dim} != problem dim {dim}")
    T = cfg.T
    eta, eta_cum, tau = cfg.eta_values, cfg.eta_cumsum, cfg.tau
    rng = np.random.default_rng(cfg.seed)

    x = np.zeros(dim)
    y = np.zeros(dim)
    z = np.zeros(dim)
    x_star = problem.exact_optimum()
    train_loss = np.empty(T)
    noise_norm = np.empty(T)
    grad_norm = np.empty(T)
    pot = np.empty(T + 1) if x_star is not None else None

    t = -1
    for t, batch in enumerate(stream):
        if t >= T:
            t -= 1
            break
        if cfg.clip is not None:
            grad_est, train_loss[t] = problem.clipped_mean_grad(x, batch, cfg.clip)
        else:
            grad_est = problem.per_example_grads(x, batch).mean(axis=0)
            train_loss[t] = float(problem.per_example_values(x, batch).mean())
        b_t = rng.standard_normal(dim) * cfg.sigma

        noise_norm[t] = float(np.linalg.norm(b_t))
        grad_norm[t] = float(np.linalg.norm(grad_est))
        if pot is not None:
            pot[t] = potential(problem, y, z, x_star, cfg.beta,
                               eta_cum[t - 1] if t > 0 else 0.0)

        z = project_ball(z - (eta[t] / cfg.beta) * grad_est + b_t, cfg.ball)
        y = project_ball(x - grad_est / cfg.beta + b_t / eta[t], cfg.ball)
        x = interpolate(y, z, tau[t + 1])
        _check_finite(t, x, y, z)
    if t + 1 < T:
        raise RunAborted(t + 1, f"stream exhausted after {t + 1} of {T} batches")
    if pot is not None:
        pot[T] = potential(problem, y, z, x_star, cfg.beta, eta_cum[T - 1])

    excess, accuracy = _final_metrics(problem, y)
    return RunRecord(
        algorithm="independent_variant", seed=cfg.seed, final_x=y,
        train_loss=train_loss, noise_norm=noise_norm, grad_norm=grad_norm,
        potential=pot, excess=excess, accuracy=accuracy, flags=dict(flags or {}),
    )


def run_unaccelerated_srgd(problem: LossProblem, stream, eta_lr: float,
                           c_sched, T: int, ball: ConstraintBall | None = None,
                           seed: int = 0,
                           checkpoints=None) -> RunRecord:
    """Plain projected SGD over recursive gradients: increments
    delta_t = mean of c_t*g(x_t,d) - c_{t-1}*g(x_{t-1},d), accumulated and
    divided by c_t. The gradient estimate is recorded at checkpoint steps
    (default T/4, T/2, 3T/4, T) so repeated seeded runs can estimate
    Var(grad_t) externally.
    """
    dim = problem.dim
    if callable(c_sched):
        c_values = np.array([float(c_sched(t)) for t in range(T)])
    else:
        c_values = np.asarray(c_sched, dtype=np.float64)[:T]
    if np.any(c_values <= 0):
        raise ValueError("c schedule must be positive")
    if checkpoints is None:
        checkpoints = sorted({max(1, (T * m) // 4) for m in (1, 2, 3, 4)})
    checkpoints = list(checkpoints)

    x = np.zeros(dim)
    prev_x = x
    acc = np.zeros(dim)
    train_loss = np.empty(T)
    grad_norm = np.empty(T)
    cp_grads = {}

    t = -1
    for t, batch in enumerate(stream):
        if t >= T:
            t -= 1
            break
        c_prev = c_values[t - 1] if t > 0 else 0.0
        delta, train_loss[t] = problem.srg_mean(x, prev_x, c_values[t], c_prev, batch)
        acc = acc + delta
        grad_est = acc / c_values[t]

        grad_norm[t] = float(np.linalg.norm(grad_est))
        if (t + 1) in checkpoints:
            cp_grads[t + 1] = grad_est.copy()

        prev_x = x
        step = x - eta_lr * grad_est
        x = project_ball(step, ball) if ball is not None else step
        _check_finite(t, x)
    if t + 1 < T:
        raise RunAborted(t + 1, f"stream exhausted after {t + 1} of {T} batches")

    excess, accuracy = _final_metrics(problem, x)
    steps = np.array(sorted(cp_grads))
    return RunRecord(
        algorithm="unaccelerated_srgd", seed=seed, final_x=x,
        train_loss=train_loss, noise_norm=np.zeros(T), grad_norm=grad_norm,
        excess=excess, accuracy=accuracy,
        checkpoint_steps=steps,
        checkpoint_grads=np.stack([cp_grads[s] for s in steps]) if len(steps) else None,
    )


def variance_probe(run_factory, seeds, checkpoints=None):
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


def run_dp_sgd(problem: LossProblem, stream, eta_lr: float, c_clip: float,
               sigma: float, ball: ConstraintBall | None, T: int,
               seed: int = 0, flags: dict | None = None) -> RunRecord:
    """Projected SGD over clipped mean gradients with i.i.d. spherical
    Gaussian noise of per-coordinate std sigma."""
    dim = problem.dim
    rng = np.random.default_rng(seed)
    x = np.zeros(dim)
    train_loss = np.empty(T)
    noise_norm = np.empty(T)
    grad_norm = np.empty(T)

    t = -1
    for t, batch in enumerate(stream):
        if t >= T:
            t -= 1
            break
        grad_est, train_loss[t] = problem.clipped_mean_grad(x, batch, c_clip)
        b_t = rng.standard_normal(dim) * sigma

        noise_norm[t] = float(np.linalg.norm(b_t))
        grad_norm[t] = float(np.linalg.norm(grad_est))

        step = x - eta_lr * (grad_est + b_t)
        x = project_ball(step, ball) if ball is not None else step
        _check_finite(t, x)
    if t + 1 < T:
        raise RunAborted(t + 1, f"stream exhausted after {t + 1} of {T} batches")

    excess, accuracy = _final_metrics(problem, x)
    return RunRecord(
        algorithm="dp_sgd", seed=seed, final_x=x, train_loss=train_loss,
        noise_norm=noise_norm, grad_norm=grad_norm, excess=excess,
        accuracy=accuracy, flags=dict(flags or {}),
    )


def run_dp_ftrl(problem: LossProblem, stream, eta_lr: float, c_clip: float,
                strategy: StrategyMatrix, rho: float,
                ball: ConstraintBall | None, seed: int = 0,
                flags: dict | None = None) -> RunRecord:
    """Same update as run_dp_sgd, but the per-step noise vectors are the
    rows of C^{-1} Z: correlated across steps by the strategy matrix."""
    dim = problem.dim
    T = strategy.steps
    noise_iter = mf_noise_stream(strategy, rho, dim, seed)
    x = np.zeros(dim)
    train_loss = np.empty(T)
    noise_norm = np.empty(T)
    grad_norm = np.empty(T)

    t = -1
    for t, batch in enumerate(stream):
        if t >= T:
            t -= 1
            break
        grad_est, train_loss[t] = problem.clipped_mean_grad(x, batch, c_clip)
        b_t = next(noise_iter)

        noise_norm[t] = float(np.linalg.norm(b_t))
        grad_norm[t] = float(np.linalg.norm(grad_est))

        step = x - eta_lr * (grad_est + b_t)
        x = project_ball(step, ball) if ball is not None else step
        _check_finite(t, x)
    if t + 1 < T:
        raise RunAborted(t + 1, f"stream exhausted after {t + 1} of {T} batches")

    excess, accuracy = _final_metrics(problem, x)
    return RunRecord(
        algorithm="dp_ftrl", seed=seed, final_x=x, train_loss=train_loss,
        noise_norm=noise_norm, grad_norm=grad_norm, excess=excess,
        accuracy=accuracy, flags=dict(flags or {}),
    )


def _memf_noise_scale(cfg: MemfConfig) -> float:
    """Correlated noise rows are calibrated for a unit-sensitivity stream;
    the released stream here is a mean of per-example vectors clipped to
    c_clip, so its per-example sensitivity is c_clip / B."""
    if math.isinf(cfg.rho):
        return 0.0
    return cfg.c_clip / cfg.batch_size


def run_dp_memf(problem: LossProblem, batches, cfg: MemfConfig,
                flags: dict | None = None) -> RunRecord:
    """Multi-epoch matrix-factorization DP training: per step, the clipped
    mean gradient plus a correlated noise row, fed to SGD with momentum.

    Batches are revisited in the same fixed order every epoch; the
    strategy matrix's column-group constraint accounts for an example's
    repeated participation.
    """
    if len(batches) != cfg.batches_per_epoch:
        raise ValueError(
            f"expected {cfg.batches_per_epoch} batches, got {len(batches)}")
    dim = problem.dim
    total = cfg.epochs * cfg.batches_per_epoch
    noise_iter = mf_noise_stream(cfg.strategy, cfg.rho, dim, cfg.seed)
    scale = _memf_noise_scale(cfg)

    x = np.zeros(dim)
    velocity = np.zeros(dim)
    train_loss = np.empty(total)
    noise_norm = np.empty(total)
    grad_norm = np.empty(total)

    for s in range(total):
        batch = batches[s % cfg.batches_per_epoch]
        if problem.batch_size(batch) != cfg.batch_size:
            raise ValueError(f"batch {s % cfg.batches_per_epoch} size mismatch")
        grad_est, train_loss[s] = problem.clipped_mean_grad(x, batch, cfg.c_clip)
        w_t = next(noise_iter) * scale
        noisy = grad_est + w_t

        noise_norm[s] = float(np.linalg.norm(w_t))
        grad_norm[s] = float(np.linalg.norm(grad_est))

        velocity = cfg.momentum * velocity + noisy
        x = x - cfg.lr * velocity
        _check_finite(s, x)

    excess, accuracy = _final_metrics(problem, x)
    return RunRecord(
        algorithm="dp_memf", seed=cfg.seed, final_x=x, train_loss=train_loss,
        noise_norm=noise_norm, grad_norm=grad_norm, excess=excess,
        accuracy=accuracy, flags=dict(flags or {}),
    )


def run_dp_srg_memf(problem: LossProblem, batches, cfg: MemfConfig,
                    flags: dict | None = None) -> RunRecord:
    """Multi-epoch matrix-factorization training over recursive gradients.

    Per step: the per-example increments g(x_t, d) - c * g(x_{t-1}, d) are
    clipped and averaged, a correlated noise row is added, and the decayed
    recursion grad_t = c * grad_{t-1} + noisy_increment produces the
    gradient estimate. With double_noise on, the same noise row is added
    once more to the estimate handed to the optimizer. The first step has
    no predecessor, so its previous-gradient weight is zero.
    """
    if len(batches) != cfg.batches_per_epoch:
        raise ValueError(
            f"expected {cfg.batches_per_epoch} batches, got {len(batches)}")
    dim = problem.dim
    total = cfg.epochs * cfg.batches_per_epoch
    noise_iter = mf_noise_stream(cfg.strategy, cfg.rho, dim, cfg.seed)
    scale = _memf_noise_scale(cfg)

    x = np.zeros(dim)
    prev_x = x
    velocity = np.zeros(dim)
    grad_rec = np.zeros(dim)
    train_loss = np.empty(total)
    noise_norm = np.empty(total)
    grad_norm = np.empty(total)

    for s in range(total):
        batch = batches[s % cfg.batches_per_epoch]
        if problem.batch_size(batch) != cfg.batch_size:
            raise ValueError(f"batch {s % cfg.batches_per_epoch} size mismatch")
        c_s = cfg.decay if s > 0 else 0.0
        delta, train_loss[s] = problem.srg_mean(x, prev_x, 1.0, c_s, batch, cfg.c_clip)
        w_t = next(noise_iter) * scale
        grad_rec = c_s * grad_rec + (delta + w_t)
        grad_used = grad_rec + w_t if cfg.double_noise else grad_rec

        noise_norm[s] = float(np.linalg.norm(w_t))
        grad_norm[s] = float(np.linalg.norm(grad_rec))

        velocity = cfg.momentum * velocity + grad_used
        prev_x = x
        x = x - cfg.lr * velocity
        _check_finite(s, x)

    excess, accuracy = _final_metrics(problem, x)
    return RunRecord(
        algorithm="dp_srg_memf", seed=cfg.seed, final_x=x,
        train_loss=train_loss, noise_norm=noise_norm, grad_norm=grad_norm,
        excess=excess, accuracy=accuracy, flags=dict(flags or {}),
    )
