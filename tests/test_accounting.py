"""Privacy calculus: frozen spot values, independently typed duplicate
arithmetic, inverse round-trips, and regime validity flags."""

import math

import numpy as np
import pytest

from dpsrgd.accounting import (
    batch_and_beta,
    build_regime_report,
    clip_norm,
    dim_max,
    gdp_to_dp,
    mu_for_dp,
    rho_for_dp,
    sensitivity_bound,
    srgd_sigma,
    zcdp_to_dp,
)


# ---------------------------------------------------------------------------
# frozen spot values


def test_spot_values():
    assert sensitivity_bound(2.0, 3.0, 1.5, 0.5) == 25.0
    assert clip_norm(1.0, 1.0, 1.0) == 12.0
    assert zcdp_to_dp(1.0, math.exp(-1.0)) == pytest.approx(3.0, rel=1e-14)
    assert gdp_to_dp(1.0, 2.5 * math.exp(-2.0)) == pytest.approx(2.0, rel=1e-14)
    assert batch_and_beta(10**4, 1.0, 1.0, 1.0, 1e6, 1e-6, 1) == (100, 100, 2401.0)
    assert rho_for_dp(0.1, 1e-6) == pytest.approx(1.803040801807587e-4, rel=1e-12)


def test_srgd_sigma_algebraic_identity():
    # sigma * eps * B * beta / sqrt(ln T * ln(2.5/delta)) must equal
    # 8*sqrt(2)*L + 16*sqrt(2)*M*R = 2*sqrt(2) * clip_norm(L, M, R)
    rng = np.random.default_rng(0)
    for _ in range(25):
        L, M, R = rng.uniform(0.1, 4.0, 3)
        eps = rng.uniform(0.1, 5.0)
        delta = 10.0 ** rng.uniform(-8, -4)
        B = int(rng.integers(1, 200))
        beta = rng.uniform(1.0, 500.0)
        T = int(rng.integers(2, 1000))
        sigma = srgd_sigma(L, M, R, eps, delta, B, beta, T)
        lhs = sigma * eps * B * beta / math.sqrt(math.log(T) * math.log(2.5 / delta))
        rhs = 2.0 * math.sqrt(2.0) * clip_norm(L, M, R)
        assert lhs == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------------------
# duplicate arithmetic


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
    return B, T, M + (8.0 * L + 16.0 * M * R) * n ** 1.5 / (R * B * B)


def test_formulas_match_duplicate_arithmetic():
    rng = np.random.default_rng(1)
    for _ in range(30):
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
        assert srgd_sigma(L, M, R, eps, delta, B, beta, T) == pytest.approx(
            num * math.sqrt(math.log(T) * math.log(2.5 / delta)) / (eps * B * beta),
            rel=1e-12)
        assert clip_norm(L, M, R) == pytest.approx(4.0 * L + 8.0 * M * R,
                                                   rel=1e-12)
        assert zcdp_to_dp(rho, delta) == pytest.approx(
            rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta)), rel=1e-12)
        assert gdp_to_dp(mu, delta) == pytest.approx(
            mu * math.sqrt(2.0 * math.log(2.5 / delta)), rel=1e-12)
        got = batch_and_beta(n, L, M, R, eps, delta, d)
        want = _dup_batch_and_beta(n, L, M, R, eps, delta, d)
        assert got[:2] == want[:2]
        assert got[2] == pytest.approx(want[2], rel=1e-12)


# ---------------------------------------------------------------------------
# inverses


def test_budget_conversion_round_trips():
    rng = np.random.default_rng(2)
    for _ in range(40):
        eps = float(rng.uniform(0.01, 10.0))
        delta = float(10.0 ** rng.uniform(-9, -3))
        assert gdp_to_dp(mu_for_dp(eps, delta), delta) == pytest.approx(
            eps, rel=1e-12)
        assert zcdp_to_dp(rho_for_dp(eps, delta), delta) == pytest.approx(
            eps, rel=1e-10)


def test_domain_errors():
    with pytest.raises(ValueError):
        srgd_sigma(1, 1, 1, 1.0, 1e-6, 10, 5.0, 1)
    with pytest.raises(ValueError):
        zcdp_to_dp(0.0, 1e-6)
    with pytest.raises(ValueError):
        gdp_to_dp(-1.0, 1e-6)
    with pytest.raises(ValueError):
        batch_and_beta(3, 1, 1, 1, 1.0, 1e-6, 1)


# ---------------------------------------------------------------------------
# dimension gate and regime report


def test_dim_max_is_unbounded_without_smoothness():
    assert math.isinf(dim_max(100, 50.0, 1.0, 1e-6, 0.0, 64))


def test_regime_report_flags_mirror_inequalities():
    report, B, T = build_regime_report(10**4, 1, 1.0, 1.0, 1.0, 1e6, 1e-6)
    assert (B, T) == (100, 100)
    assert report.beta == 2401.0
    assert report.valid["beta_ge_2MT"] == (report.beta >= 2.0 * T)
    assert report.valid["dim_ok"] == (1 <= report.d_max)
    assert report.valid["batch_le_sqrt_n"] and report.valid["single_epoch"]
    assert report.dp_valid == all(report.valid.values())
    lines = report.lines()
    assert any(line.startswith("beta=") for line in lines)
    assert any(line == f"dp_valid={str(report.dp_valid).lower()}" for line in lines)


def test_regime_report_flags_can_fail():
    # tiny budget in high dimension: the dimension gate must trip
    report, _, _ = build_regime_report(100, 10**7, 1.0, 1.0, 1.0, 0.01, 1e-6)
    assert not report.valid["dim_ok"]
    assert not report.dp_valid
