"""End-to-end acceptance checks for the toolkit's headline behaviors.

Ten numbered criteria, each a standalone function returning a
CriterionResult. run_all executes a subset in order and prints one
pass/fail line per criterion. Each criterion carries a wall-clock budget;
exceeding it fails the criterion even if the numeric check passes.
Criterion 10 needs MNIST files on disk and reports a skip (not a
failure) when they are absent.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .accounting import (
    batch_and_beta,
    clip_norm,
    gdp_to_dp,
    sensitivity_bound,
    srgd_sigma,
    zcdp_to_dp,
)
from .counting import (
    build_workload,
    factorize,
    identity_strategy,
    mf_noise_stream,
    prefix_nodes,
    tree_baseline_objective,
    tree_error_bound,
    tree_rows,
    tree_sens,
)
from .geometry import ConstraintBall, clip_rows, project_ball
from .harness import ExperimentSpec, data_dir, load_dataset, run_experiment
from .objectives import GradientNoiseWrapper, SyntheticQuadratic
from .optim import (
    MemfConfig,
    SrgdConfig,
    frozen_srg_estimates,
    linear_fit,
    run_accelerated_dp_srgd,
    run_dp_srg_memf,
    variance_probe,
)

__all__ = ["CriterionResult", "run_all"] + [f"criterion_{i}" for i in range(1, 11)]


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one acceptance criterion.

    passed is True/False for a decided check and None for a skip (the
    check could not run in this environment, e.g. missing dataset files).
    """

    index: int
    name: str
    passed: bool | None
    detail: str
    elapsed: float

    @property
    def status(self) -> str:
        if self.passed is None:
            return "SKIP"
        return "PASS" if self.passed else "FAIL"


# Wall-clock budget per criterion, in seconds (None = no budget).
_LIMITS = {1: 10.0, 2: 5.0, 3: 30.0, 4: 10.0, 5: 20.0, 6: 30.0, 7: 60.0,
           8: 5.0, 9: None, 10: 4 * 3600.0}


def _run(index: int, name: str, body) -> CriterionResult:
    start = time.perf_counter()
    try:
        passed, detail = body()
    except Exception as exc:
        elapsed = time.perf_counter() - start
        return CriterionResult(index, name, False, f"error: {exc!r}", elapsed)
    elapsed = time.perf_counter() - start
    limit = _LIMITS[index]
    if passed is not None and limit is not None and elapsed > limit:
        passed = False
        detail += f" [over time budget: {elapsed:.1f}s > {limit:.0f}s]"
    return CriterionResult(index, name, passed, detail, elapsed)


# ---------------------------------------------------------------------------
# criteria 1 and 2: noiseless accelerated runs on a fixed quadratic

_ACCEL_TS = (32, 64, 128, 256)
_ACCEL_CACHE: dict[int, object] = {}


def _accel_problem() -> SyntheticQuadratic:
    # Fixed well-conditioned instance: unit-curvature quadratic over the
    # unit ball with the optimum on the boundary, so the constraint is
    # active and the projected runs are deterministic.
    rng = np.random.default_rng(7)
    direction = rng.standard_normal(20)
    target = direction / np.linalg.norm(direction)
    return SyntheticQuadratic(dim=20, target=target, curvature=1.0,
                              noise_scale=0.0, radius=1.0)


def _accel_record(T: int):
    rec = _ACCEL_CACHE.get(T)
    if rec is None:
        problem = _accel_problem()
        B = 8
        batch = problem.draw_batch(np.random.default_rng(11), B)
        stream = (batch for _ in range(T))
        cfg = SrgdConfig(T=T, beta=2.0 * problem.smoothness * T,
                         ball=ConstraintBall(problem.dim, problem.radius))
        rec = run_accelerated_dp_srgd(problem, stream, tree_rows(0.0, 20, 0, T), cfg)
        _ACCEL_CACHE[T] = rec
    return rec


def criterion_1() -> CriterionResult:
    """Noiseless accelerated runs: the error falls by a factor in [2.5, 6]
    every time T doubles (measured 4.2-4.4), so a run whose error only
    halved, the rate of the O(1/T) step-budget bound
    beta * diameter^2 / eta_{0:T}, fails. The largest fraction of that
    bound a final error reaches is reported, not gated."""
    def body():
        problem = _accel_problem()
        errs = {T: problem.population_excess(_accel_record(T).final_x) for T in _ACCEL_TS}
        ratios = [errs[T] / errs[2 * T] for T in _ACCEL_TS[:-1]]
        ok = all(2.5 <= r <= 6.0 for r in ratios)
        # Informative margin: error(T) against beta * (2R)^2 / eta_{0:T}.
        fracs = []
        for T in _ACCEL_TS:
            eta_cum = (T + 1) * (T + 2) / 2.0
            fracs.append(errs[T] * eta_cum / (2.0 * T * 4.0))
        detail = ("error(T)/error(2T) = "
                  + ", ".join(f"{r:.3f}" for r in ratios)
                  + " (want [2.5, 6]); bound fraction <= "
                  + f"{max(fracs):.4f}")
        return ok, detail
    return _run(1, "noiseless acceleration rate", body)


def criterion_2() -> CriterionResult:
    """The recorded potential never rises by more than 1e-9 of its
    starting value on the noiseless runs of criterion 1."""
    def body():
        worst = -math.inf
        for T in _ACCEL_TS:
            pot = _accel_record(T).potential
            rises = np.diff(pot) / pot[0]
            worst = max(worst, float(rises.max()))
        ok = worst <= 1e-9
        return ok, f"max potential rise = {worst:.2e} * Phi_0 (want <= 1e-9)"
    return _run(2, "potential monotonicity", body)


# ---------------------------------------------------------------------------
# criterion 3: per-example sensitivity of the recursive-gradient increments


class _QueryPoints(SyntheticQuadratic):
    """A quadratic whose srg_mean keeps the (x_t, x_prev) of every call."""

    def __post_init__(self):
        super().__post_init__()
        self.points = []

    def srg_mean(self, x_t, x_prev, *args, **kwargs):
        self.points.append((x_t.copy(), x_prev.copy()))
        return super().srg_mean(x_t, x_prev, *args, **kwargs)


def criterion_3() -> CriterionResult:
    """Zeroing one example changes each step's increment by at most the
    declared per-example bound, replayed along the realized trajectory of
    a noisy run (50 adjacent dataset pairs, zero violations allowed)."""
    def body():
        dim, R, M, T, B = 10, 1.0, 1.0, 25, 8
        n = T * B
        beta = 2.0 * M * T
        rng0 = np.random.default_rng(301)
        direction = rng0.standard_normal(dim)
        target = 0.5 * direction / np.linalg.norm(direction)
        quadratic = dict(dim=dim, target=target, curvature=M, noise_scale=0.5, radius=R)
        problem = SyntheticQuadratic(**quadratic)
        L = problem.lipschitz
        b_sigma = srgd_sigma(L, M, 2.0 * R, 2.0, 1e-6, B, beta, T)
        ball = ConstraintBall(dim, R)

        violations = 0
        worst = 0.0
        for pair in range(50):
            rng = np.random.default_rng(1000 + pair)
            data = problem.draw_batch(rng, n)
            j = int(rng.integers(n))
            batches = [data[t * B:(t + 1) * B] for t in range(T)]
            run_problem = _QueryPoints(**quadratic)
            rec = run_accelerated_dp_srgd(run_problem, iter(batches),
                                          tree_rows(b_sigma * beta, dim, pair, T),
                                          SrgdConfig(T=T, beta=beta, ball=ball))
            b_max = float(rec.noise_norm.max())
            bound = sensitivity_bound(L, M, 2.0 * R, b_max)
            t_j, r_j = divmod(j, B)
            zeroed = batches[t_j].copy()
            zeroed[r_j] = 0.0
            measured = 0.0
            for t, (x_t, x_prev) in enumerate(run_problem.points):
                w_t, w_prev = t + 1.0, float(t)  # eta_t and eta_{t-1}, 0 at t = 0
                other = zeroed if t == t_j else batches[t]
                d1 = problem.srg_mean(x_t, x_prev, w_t, w_prev, batches[t])[0]
                d2 = problem.srg_mean(x_t, x_prev, w_t, w_prev, other)[0]
                measured = max(measured,
                               float(np.linalg.norm(d1 - d2)) * B)
            worst = max(worst, measured / bound)
            if measured > bound:
                violations += 1
        ok = violations == 0
        detail = (f"50 adjacent pairs: max measured/bound = {worst:.4f}, "
                  f"violations = {violations} (want 0)")
        return ok, detail
    return _run(3, "per-example increment sensitivity", body)


# ---------------------------------------------------------------------------
# criteria 4 and 5: tree mechanism noise tail and unbiasedness


def criterion_4() -> CriterionResult:
    """With noise calibrated for 1-GDP at unit clip over 16 steps, at
    most a 0.05 fraction of 1000 trials may see a max-prefix noise norm
    above the stated high-probability bound (d = 4)."""
    def body():
        trials, T, d, delta = 1000, 16, 4, 0.05
        sigma = tree_sens(T)  # 1-GDP at unit clip: sens / mu
        bound = tree_error_bound(1.0, 1.0, T, d, delta)
        max_err = np.zeros(trials)
        for noise in tree_rows(sigma, d * trials, 20240, T):
            norms = np.linalg.norm(noise.reshape(trials, d), axis=1)
            np.maximum(max_err, norms, out=max_err)
        frac = float(np.mean(max_err > bound))
        ok = frac <= delta
        detail = (f"exceed fraction = {frac:.4f} (want <= {delta}); "
                  f"observed max = {max_err.max():.2f} vs bound {bound:.2f}")
        return ok, detail
    return _run(4, "tree noise tail bound", body)


def criterion_5() -> CriterionResult:
    """Tree prefix estimates are unbiased: over 1e5 trials (T = 16,
    d = 2), every per-prefix per-coordinate mean noise is within 4
    standard errors of zero."""
    def body():
        trials, T, d, sigma = 10**5, 16, 2, 1.0
        worst = 0.0
        for i, noise in enumerate(tree_rows(sigma, d * trials, 515, T), 1):
            means = noise.reshape(trials, d).mean(axis=0)
            se = sigma * math.sqrt(len(prefix_nodes(i))) / math.sqrt(trials)
            worst = max(worst, float(np.abs(means).max()) / (4.0 * se))
        ok = worst <= 1.0
        return ok, f"max |mean| / (4 SE) = {worst:.3f} over 16 prefixes (want <= 1)"
    return _run(5, "tree prefix unbiasedness", body)


# ---------------------------------------------------------------------------
# criterion 6: variance growth of the plain recursive-gradient estimator


def criterion_6() -> CriterionResult:
    """At a frozen iterate with unit increment weights, the recursive
    gradient's variance grows linearly in t (fit over 100 seeded
    frozen-point probes: R^2 >= 0.9 and positive slope)."""
    def body():
        dim, B, T, noise_std = 6, 8, 48, 0.7
        rng0 = np.random.default_rng(606)
        direction = rng0.standard_normal(dim)
        target = 0.4 * direction / np.linalg.norm(direction)
        base = SyntheticQuadratic(dim=dim, target=target, curvature=1.0,
                                  noise_scale=0.3, radius=1.0)
        steps = [T // 4, T // 2, 3 * T // 4, T]

        def estimates(seed):
            noisy = GradientNoiseWrapper(base, noise_std, seed)
            data = base.draw_batch(np.random.default_rng(10**6 + seed), T * B)
            return frozen_srg_estimates(noisy, data.reshape(T, B, dim), steps)

        variances = variance_probe([estimates(seed) for seed in range(100)])
        slope, _, r2 = linear_fit(steps, variances)
        predicted = 2.0 * noise_std**2 * dim / B
        ok = r2 >= 0.9 and slope > 0
        detail = (f"Var(grad_t) fit over t = {steps}: slope = {slope:.3f} "
                  f"(closed form {predicted:.3f}), R^2 = {r2:.4f} (want >= 0.9)")
        return ok, detail
    return _run(6, "frozen-iterate variance growth", body)


# ---------------------------------------------------------------------------
# criterion 7: factorization quality against the binary-tree baseline


def criterion_7() -> CriterionResult:
    """The square-root strategy for the single-epoch prefix-sum workload
    beats the binary-tree factorization's objective at b = 8, 16, 32
    while staying within the unit sensitivity constraint."""
    def body():
        parts = []
        ok = True
        for b in (8, 16, 32):
            workload = build_workload("ones", 1, b)
            strat = factorize(workload[:, 0], 1, b)
            baseline = tree_baseline_objective(workload, 1, b)
            ok = ok and strat.objective <= baseline and strat.sens <= 1.0 + 1e-9
            parts.append(f"b={b}: {strat.objective:.4f} vs tree "
                         f"{baseline:.4f}, sens={strat.sens:.6f}")
        return ok, "; ".join(parts)
    return _run(7, "factorization beats tree baseline", body)


# ---------------------------------------------------------------------------
# criterion 8: exact reduction identities on 10-step toys


def criterion_8() -> CriterionResult:
    """Degenerate settings reduce algorithms to one another exactly: the
    identity strategy's noise matches a hand-written i.i.d.-noise
    projected clipped-SGD loop;
    zero-momentum prefix workloads match plain prefix sums; zero-decay
    recursive multi-epoch training matches a hand-written clipped-mean
    momentum loop."""
    def body():
        tol = 1e-12
        rng = np.random.default_rng(808)
        direction = rng.standard_normal(5)
        target = 0.6 * direction / np.linalg.norm(direction)
        problem = SyntheticQuadratic(dim=5, target=target, curvature=1.0,
                                     noise_scale=0.4, radius=1.0)
        data = problem.draw_batch(rng, 40)
        batches = [data[4 * t:4 * (t + 1)] for t in range(10)]
        ball = ConstraintBall(5, 1.0)

        rho = 0.5
        sigma = math.sqrt(1.0 / (2.0 * rho)) * 1.0 / 4  # clip / B sensitivity
        cfg = MemfConfig(steps=10, c_clip=1.0, lr=0.1, momentum=0.0, ball=ball)
        rec_sgd = run_dp_srg_memf(problem, batches,
                                  mf_noise_stream(identity_strategy(1, 10), sigma, 5, 3), cfg)
        noise_rng = np.random.default_rng(3)
        x, losses = np.zeros(5), []
        for batch in batches:
            losses.append(problem.per_example_values(x, batch).mean())
            grad = clip_rows(problem.per_example_grads(x, batch), 1.0).mean(axis=0)
            x = project_ball(x - 0.1 * (grad + noise_rng.standard_normal(5) * sigma), ball)
        d1 = max(float(np.abs(a - b).max()) for a, b in (
            (rec_sgd.final_x, x), (rec_sgd.train_loss, losses)))

        w_momentum = build_workload("momentum", 2, 8, momentum=0.0)
        w_ones = build_workload("ones", 2, 8)
        d2 = float(np.abs(w_momentum - w_ones).max())

        cfg = MemfConfig(steps=10, c_clip=math.inf, lr=0.05, decay=0.0, momentum=0.9)
        rec_srg = run_dp_srg_memf(problem, batches[:5] * 2,
                                  mf_noise_stream(identity_strategy(2, 5), 0.0, 5, 5), cfg)
        # two epochs of SGD with momentum 0.9 on unclipped batch means
        x, velocity, losses = np.zeros(5), np.zeros(5), []
        for t in range(10):
            batch = batches[t % 5]
            losses.append(problem.per_example_values(x, batch).mean())
            velocity = 0.9 * velocity + problem.per_example_grads(x, batch).mean(axis=0)
            x = x - 0.05 * velocity
        d3 = max(float(np.abs(x - rec_srg.final_x).max()),
                 float(np.abs(np.array(losses) - rec_srg.train_loss).max()))

        ok = d1 <= tol and d2 <= tol and d3 <= tol
        detail = (f"i.i.d. vs identity-strategy noise vs hand loop: {d1:.1e}; zero-momentum "
                  f"workload: {d2:.1e}; zero-decay recursion vs momentum loop: {d3:.1e} "
                  f"(want <= 1e-12)")
        return ok, detail
    return _run(8, "reduction identities", body)


# ---------------------------------------------------------------------------
# criterion 9: accounting formulas against independently typed arithmetic


def _dup_batch_and_beta(n, L, M, R, eps, delta, d):
    def cap(T):
        if d == 0:
            return math.inf
        den = 4.0 * math.sqrt(2.0) * R * math.sqrt(d) * math.log(T) ** 1.5
        den *= math.sqrt(math.log(4.0 * T / delta) * math.log(2.5 / delta))
        return (L + 2.0 * M * R) * n ** 1.5 * eps / den

    B = max(1, int(min(math.sqrt(n), cap(math.sqrt(n)))))
    T = math.ceil(n / B)
    B = max(1, int(min(math.sqrt(n), cap(T))))
    T = math.ceil(n / B)
    beta = M + (8.0 * L + 16.0 * M * R) * n ** 1.5 / (R * B * B)
    return B, T, beta


def _rel_err(got: float, want: float) -> float:
    scale = max(abs(got), abs(want), 1e-300)
    return abs(got - want) / scale


def criterion_9() -> CriterionResult:
    """Calibration formulas match independently typed duplicates of the
    same arithmetic on a 100-point random parameter grid (1e-12 relative),
    plus the documented (n=1e4, d=1) spot value."""
    def body():
        rng = np.random.default_rng(90210)
        worst = 0.0
        for _ in range(100):
            L = float(rng.uniform(0.2, 5.0))
            M = float(rng.uniform(0.2, 5.0))
            R = float(rng.uniform(0.3, 4.0))
            eps = float(rng.uniform(0.05, 8.0))
            delta = float(10.0 ** rng.uniform(-9, -4))
            B = int(rng.integers(1, 400))
            beta = float(rng.uniform(1.0, 1e4))
            T = int(rng.integers(2, 4000))
            n = int(rng.integers(4, 10**6))
            d = int(rng.integers(1, 500))
            rho = float(rng.uniform(1e-4, 20.0))
            mu = float(rng.uniform(1e-3, 10.0))

            num = 8.0 * math.sqrt(2.0) * L + 16.0 * math.sqrt(2.0) * M * R
            dup_sigma = num * math.sqrt(math.log(T) * math.log(2.5 / delta)) \
                / (eps * B * beta)
            pairs = [
                (srgd_sigma(L, M, R, eps, delta, B, beta, T), dup_sigma),
                (clip_norm(L, M, R), 4.0 * L + 8.0 * M * R),
                (zcdp_to_dp(rho, delta),
                 rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))),
                (gdp_to_dp(mu, delta),
                 mu * math.sqrt(2.0 * math.log(2.5 / delta))),
            ]
            got_bb = batch_and_beta(n, L, M, R, eps, delta, d)
            want_bb = _dup_batch_and_beta(n, L, M, R, eps, delta, d)
            if got_bb[:2] != want_bb[:2]:
                return False, (f"batch/step counts diverge at n={n}, d={d}: "
                               f"{got_bb[:2]} vs {want_bb[:2]}")
            pairs.append((got_bb[2], want_bb[2]))
            worst = max(worst, max(_rel_err(g, w) for g, w in pairs))
        spot = batch_and_beta(10**4, 1.0, 1.0, 1.0, 1e6, 1e-6, 1)
        spot_ok = spot == (100, 100, 2401.0)
        ok = worst <= 1e-12 and spot_ok
        detail = (f"max relative error = {worst:.2e} over 100 points "
                  f"(want <= 1e-12); spot (1e4 examples) -> {spot}")
        return ok, detail
    return _run(9, "accounting formula fidelity", body)


# ---------------------------------------------------------------------------
# criterion 10: MNIST benchmark reproduction


_MNIST_TARGET = 83.753  # target mean test accuracy, percent
_MNIST_TOL = 1.5


def _mnist_two_stage(dataset, algorithm: str, workload: str, c: float,
                     seed_base: int) -> float:
    """Sweep lr x clip with few repeats, then rerun the best point with 20
    fresh repeats; returns the final mean accuracy (already in percent)."""
    common = dict(task="mnist", epsilon=0.1, delta=1e-6, epochs=1,
                  batch_size=500, momentum=0.9, c_grid=(c,),
                  output="acceptance10.csv")
    sweep = ExperimentSpec(algorithm=algorithm, workload=workload,
                           lr_grid=(0.03, 0.1, 0.3, 1.0),
                           clip_grid=(0.3, 1.0, 3.0),
                           repeats=3, seed_base=seed_base, **common)
    table, _ = run_experiment(sweep, dataset=dataset)
    best = table.best
    final = ExperimentSpec(algorithm=algorithm, workload=workload,
                           lr_grid=(best.lr,), clip_grid=(best.clip,),
                           repeats=20, seed_base=seed_base + 1, **common)
    ftable, _ = run_experiment(final, dataset=dataset)
    return ftable.best.acc_mean


def criterion_10() -> CriterionResult:
    """MNIST logistic regression at (0.1, 1e-6)-DP, batch 500, one epoch:
    recursive multi-epoch training with the momentum+decay workload
    (decay exp(-5/2)) lands within +-1.5 points of 83.753 mean test
    accuracy over 20 runs, and beats plain multi-epoch training with the
    prefix-sum workload. Skipped when the MNIST idx files are absent."""
    def body():
        try:
            dataset = load_dataset(data_dir(), "idx")
        except FileNotFoundError as missing:
            return None, (f"skipped: MNIST idx file {os.path.abspath(str(missing))!r} "
                          "(or .gz) not found (set DPSRGD_DATA_DIR)")
        c = math.exp(-2.5)
        srg_acc = _mnist_two_stage(dataset, "dp_srg_memf", "momentum_decay",
                                   c, seed_base=1010)
        memf_acc = _mnist_two_stage(dataset, "dp_memf", "ones", 0.0,
                                    seed_base=2020)
        ok = (abs(srg_acc - _MNIST_TARGET) <= _MNIST_TOL
              and srg_acc >= memf_acc)
        detail = (f"recursive momentum+decay: {srg_acc:.3f}% "
                  f"(target {_MNIST_TARGET} +- {_MNIST_TOL}); "
                  f"plain prefix-sum baseline: {memf_acc:.3f}%")
        return ok, detail
    return _run(10, "mnist benchmark reproduction", body)


# ---------------------------------------------------------------------------
# driver

_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
             criterion_6, criterion_7, criterion_8, criterion_9, criterion_10)


def run_all(indices=None, stream=None) -> list[CriterionResult]:
    """Run the requested criteria (default: all ten) in order, printing
    one status line each plus a summary; returns the results."""
    if stream is None:
        stream = sys.stdout
    if indices is None:
        indices = range(1, len(_CRITERIA) + 1)
    results = []
    for i in indices:
        if not 1 <= i <= len(_CRITERIA):
            raise ValueError(f"no criterion {i}; valid range 1..{len(_CRITERIA)}")
        result = _CRITERIA[i - 1]()
        results.append(result)
        print(f"[{result.index:2d}] {result.status} "
              f"{result.name:<38s} {result.elapsed:7.2f}s  {result.detail}",
              file=stream)
    n_pass = sum(r.passed is True for r in results)
    n_fail = sum(r.passed is False for r in results)
    n_skip = sum(r.passed is None for r in results)
    print(f"criteria: {n_pass} passed, {n_fail} failed, {n_skip} skipped",
          file=stream)
    return results
