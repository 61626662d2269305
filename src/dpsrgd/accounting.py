"""Privacy calculus: sensitivity bounds, noise calibration, budget
conversions, and parameter-regime validity checks.

Convention: natural logarithms everywhere except the dyadic tree depth
ceil(log2 T), which is base 2 (see counting). All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


__all__ = [
    "RegimeReport",
    "sensitivity_bound",
    "clip_norm",
    "srgd_sigma",
    "batch_and_beta",
    "gdp_to_dp",
    "zcdp_to_dp",
    "mu_for_dp",
    "rho_for_dp",
    "build_regime_report",
]


def sensitivity_bound(L: float, M: float, R_diam: float, b_max: float) -> float:
    """Per-example bound on the recursive-gradient increment norm,
    2 (M b_max + 2 M R_diam + L), valid for the eta_t = t+1 schedule with
    beta >= 2 M T and realized noise norms at most b_max. R_diam is the
    constraint-set diameter."""
    return 2.0 * (M * b_max + 2.0 * M * R_diam + L)


def clip_norm(L: float, M: float, R_diam: float) -> float:
    """Clip threshold 4L + 8M R_diam under which per-example increment
    clipping never bites in the valid regime."""
    return 4.0 * L + 8.0 * M * R_diam


def srgd_sigma(L: float, M: float, R_diam: float, eps: float, delta: float,
               B: int, beta: float, T: int) -> float:
    """Tree noise std calibrated for (eps, delta)-DP:
    (8 sqrt2 L + 16 sqrt2 M R_diam) sqrt(ln T * ln(2.5/delta)) / (eps B beta).

    Measured in iterate-update units (the b_t scale); a tree ingesting raw
    unscaled increments needs this multiplied by beta.
    """
    if T < 2:
        raise ValueError(f"T must be >= 2, got {T}")
    num = (8.0 * math.sqrt(2.0) * L + 16.0 * math.sqrt(2.0) * M * R_diam)
    return num * math.sqrt(math.log(T) * math.log(2.5 / delta)) / (eps * B * beta)


def dim_max(B: int, beta: float, eps: float, delta: float, M: float, T: int) -> float:
    """Largest dimension for which the utility analysis tolerates the
    tree noise: B^2 beta^2 eps^2 / (128 M^2 ln(T)^3 ln(4T/delta) ln(2.5/delta))."""
    if M == 0:
        return math.inf
    denom = 128.0 * M**2 * math.log(T)**3 * math.log(4.0 * T / delta) \
        * math.log(2.5 / delta)
    return (B * beta * eps)**2 / denom


def batch_and_beta(n: int, L: float, M: float, R_diam: float, eps: float,
                   delta: float, d: int) -> tuple[int, int, float]:
    """Single-pass regime parameters (B, T, beta).

    B = floor(min(sqrt n, privacy cap)), T = ceil(n / B),
    beta = M + (8L + 16 M R_diam) n^{3/2} / (R_diam B^2).

    The privacy cap depends on T, so it is resolved by a two-pass fixed
    point: evaluate at T0 = sqrt(n), then re-evaluate once at T = n / B.
    """
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")

    def cap(T: float) -> float:
        if d == 0:
            return math.inf
        denom = 4.0 * math.sqrt(2.0) * R_diam * math.sqrt(d) \
            * math.log(T)**1.5 \
            * math.sqrt(math.log(4.0 * T / delta) * math.log(2.5 / delta))
        return (L + 2.0 * M * R_diam) * n**1.5 * eps / denom

    B = max(1, int(min(math.sqrt(n), cap(math.sqrt(n)))))
    T = -(-n // B)
    B = max(1, int(min(math.sqrt(n), cap(T))))
    T = -(-n // B)
    beta = M + (8.0 * L + 16.0 * M * R_diam) * n**1.5 / (R_diam * B**2)
    return B, T, beta


def gdp_to_dp(mu: float, delta: float) -> float:
    """epsilon such that mu-GDP implies (epsilon, delta)-DP at the
    fidelity used throughout: epsilon = mu * sqrt(2 ln(2.5/delta))."""
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    return mu * math.sqrt(2.0 * math.log(2.5 / delta))


def zcdp_to_dp(rho: float, delta: float) -> float:
    """epsilon such that rho-zCDP implies (epsilon, delta)-DP:
    epsilon = rho + 2 sqrt(rho ln(1/delta))."""
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


def mu_for_dp(eps: float, delta: float) -> float:
    """Inverse of gdp_to_dp: the GDP parameter whose conversion meets
    (eps, delta)."""
    return eps / math.sqrt(2.0 * math.log(2.5 / delta))


def rho_for_dp(eps: float, delta: float) -> float:
    """Inverse of zcdp_to_dp: solve rho + 2 sqrt(rho ln(1/delta)) = eps
    for rho (quadratic in sqrt(rho))."""
    log_term = math.log(1.0 / delta)
    root = math.sqrt(log_term + eps) - math.sqrt(log_term)
    return root * root


@dataclass(frozen=True)
class RegimeReport:
    """Derived run parameters with validity flags for every regime
    inequality the utility theory assumes. Flags mirror the inequalities
    exactly; no slack is folded in."""

    beta: float
    clip_bound: float
    d_max: float
    b_max_batch: float
    valid: dict[str, bool] = field(default_factory=dict)

    @property
    def dp_valid(self) -> bool:
        return all(self.valid.values())

    def lines(self) -> list[str]:
        """key=value rendering used for CSV header comments."""
        out = [
            f"beta={self.beta:.17g}",
            f"clip_bound={self.clip_bound:.17g}",
            f"d_max={self.d_max:.17g}",
            f"b_max_batch={self.b_max_batch:.17g}",
        ]
        out.extend(f"valid_{name}={str(flag).lower()}" for name, flag in self.valid.items())
        out.append(f"dp_valid={str(self.dp_valid).lower()}")
        return out


def build_regime_report(n: int, d: int, L: float, M: float, R_diam: float,
                        eps: float, delta: float) -> tuple[RegimeReport, int, int]:
    """Resolve the single-pass regime for a dataset of size n in dimension
    d and report every validity check. Returns (report, B, T)."""
    B, T, beta = batch_and_beta(n, L, M, R_diam, eps, delta, d)
    d_cap = dim_max(B, beta, eps, delta, M, T)
    report = RegimeReport(
        beta=beta,
        clip_bound=clip_norm(L, M, R_diam),
        d_max=d_cap,
        b_max_batch=math.sqrt(n),
        valid={
            "beta_ge_2MT": beta >= 2.0 * M * T,
            "dim_ok": d <= d_cap,
            "batch_le_sqrt_n": B <= math.sqrt(n),
            "single_epoch": B * T >= n,
        },
    )
    return report, B, T
