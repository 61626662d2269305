"""Binary-tree mechanism and matrix-factorization strategies: dyadic
bookkeeping against brute-force oracles, noise covariance, square-root
strategy quality and the coefficient formulas, and streams."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular, toeplitz

from dpsrgd.counting import (
    StrategyMatrix,
    TreeState,
    build_strategy,
    ceil_log2,
    factorize,
    forward_substitution_rows,
    gaussian_rows,
    identity_strategy,
    mf_noise_stream,
    tree_baseline_objective,
    tree_ingest,
    tree_prefix,
    tree_rows,
    tree_sens,
)
from dpsrgd.harness import _noise_sigma

from dpsrgd.verify import _tree_error_bound

from dense_reference import (
    build_workload,
    column_group_sens,
    dense_c,
    dense_tree_baseline_objective,
    prefix_nodes,
    tree_matrix_factorization,
)


def _interval(j, k):
    """Steps covered by dyadic node (j, k): [(j-1)*2^k + 1, j*2^k]."""
    return range((j - 1) * (1 << k) + 1, j * (1 << k) + 1)


# ---------------------------------------------------------------------------
# dyadic bookkeeping


def test_ceil_log2():
    assert [ceil_log2(t) for t in (1, 2, 3, 4, 5, 8, 9, 16)] == \
        [0, 1, 2, 2, 3, 3, 4, 4]


@pytest.mark.parametrize("horizon", [6, 16])
def test_prefix_nodes_partition_the_prefix(horizon):
    for i in range(1, horizon + 1):
        covered = []
        for j, k in prefix_nodes(i):
            covered.extend(_interval(j, k))
        assert sorted(covered) == list(range(1, i + 1))
        # dyadic decomposition size is the binary popcount of i
        assert len(prefix_nodes(i)) == bin(i).count("1")


# ---------------------------------------------------------------------------
# streaming tree state


def test_noiseless_tree_reproduces_exact_prefix_sums():
    # the tree holds noise only: a caller's exact sum plus a sigma = 0 row
    # is the exact prefix
    rng = np.random.default_rng(0)
    T, d = 11, 3
    deltas = rng.standard_normal((T, d))
    total = np.zeros(d)
    for i, noise in enumerate(tree_rows(0.0, d, 0, T), 1):
        total += deltas[i - 1]
        np.testing.assert_allclose(total + noise, deltas[:i].sum(axis=0),
                                   rtol=0, atol=1e-12)
        np.testing.assert_array_equal(noise, np.zeros(d))


def _node_noise_oracle(sigma, seed, horizon, dim):
    """Node (j, k)'s noise: sigma times row j*2^k - 1 of the seed's draws."""
    rows = sigma * np.random.default_rng(seed).standard_normal((horizon, dim))
    return lambda j, k: rows[(j << k) - 1]


def test_noisy_tree_error_is_sum_of_node_noises():
    T, d = 8, 2
    state = TreeState(T, d, sigma=1.5, seed=42)
    node_noise = _node_noise_oracle(1.5, 42, T, d)
    for i in range(1, T + 1):
        noise = tree_prefix(tree_ingest(state, i), i)
        expected_noise = sum(node_noise(*jk) for jk in prefix_nodes(i))
        np.testing.assert_allclose(noise, expected_noise, rtol=0, atol=1e-12)


def test_node_noise_is_independent_of_ingestion_progress():
    # one oracle for every horizon: a node's noise depends on (seed, j, k)
    # alone, not on the horizon or how far the stream has run
    d, sigma, seed = 2, 1.0, 7
    node_noise = _node_noise_oracle(sigma, seed, 13, d)
    for horizon in (5, 8, 13):
        for i, noise in enumerate(tree_rows(sigma, d, seed, horizon), 1):
            expected_noise = sum(node_noise(*jk) for jk in prefix_nodes(i))
            np.testing.assert_allclose(noise, expected_noise, rtol=0, atol=1e-12)


@pytest.mark.parametrize("sigma", [0.0, 1.5])
def test_prefix_is_the_left_to_right_node_sum_bit_for_bit(sigma):
    # the stack keeps running sums; each prefix must carry exactly the bits
    # of adding its nodes' noises onto zero from left to right
    d, seed = 3, 9
    for horizon in range(1, 131):  # T = 120 and its widest steps 85 and 119
        node_noise = _node_noise_oracle(sigma, seed, horizon, d)
        rows = list(tree_rows(sigma, d, seed, horizon))
        assert len(rows) == horizon
        for i, noise in enumerate(rows, 1):
            want = np.zeros(d)
            for jk in prefix_nodes(i):
                want += node_noise(*jk)
            np.testing.assert_array_equal(noise, want)


def test_mutating_a_prefix_cannot_alter_later_prefixes():
    T, d = 21, 4
    for noise, want_noise in zip(tree_rows(1.0, d, 12, T), tree_rows(1.0, d, 12, T)):
        np.testing.assert_array_equal(noise, want_noise)
        with pytest.raises(ValueError):
            noise += 1.0  # the noise is the tree's running sum, read-only
        with pytest.raises(ValueError):
            noise[0] = 0.0


def test_tree_state_holds_only_the_prefix_nodes():
    # only the lowest node of each run of ones: a level-(k + 1) node under a
    # level-k one carries out with it, so no later node adds onto its sum
    T = 120
    state = TreeState(T, 3, sigma=1.0, seed=3)
    for i in range(1, T + 1):
        tree_ingest(state, i)
        levels = {k for _, k in prefix_nodes(i)}
        want = [k for _, k in prefix_nodes(i) if k - 1 not in levels]
        runs = bin(i).replace("0", " ").split()
        assert [k for k, _ in state.stack] == want
        assert len(want) == len(runs) <= -(-T.bit_length() // 2)
        with pytest.raises(ValueError):
            tree_prefix(state, i - 1)


def test_a_tree_pass_holds_at_most_five_rows_at_mnist_shape():
    # T = 120: the stack holds one running sum per run of ones, at most 4
    # (step 85 = 0b1010101), and the loop's last row stays alive while the
    # next one is drawn, 5 rows at step 86; one sum per node of the prefix
    # peaked at 6 rows, around steps 63, 95, 111 and 119
    d, T = 7850, 120
    tracemalloc.start()
    try:
        for row in tree_rows(1.0, d, 0, T):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * d * 8 + d * 4


def test_tree_ingest_order_errors():
    state = TreeState(4, 2, sigma=0.0)
    with pytest.raises(ValueError):
        tree_ingest(state, 2)  # out of order
    tree_ingest(state, 1)
    with pytest.raises(ValueError):
        tree_ingest(state, 1)  # repeated step
    with pytest.raises(ValueError):
        tree_prefix(state, 2)  # not ingested yet
    tree_ingest(state, 2)
    tree_ingest(state, 3)
    tree_ingest(state, 4)
    with pytest.raises(ValueError):
        tree_ingest(state, 5)  # beyond horizon
    with pytest.raises(ValueError):
        TreeState(0, 2)
    with pytest.raises(ValueError):
        TreeState(4, 2, sigma=-1.0)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_tree_rejects_a_non_finite_sigma(sigma):
    # sigma = NaN used to release the exact prefix (noise 0), and inf +-inf
    with pytest.raises(ValueError, match="sigma"):
        TreeState(4, 2, sigma=sigma)
    with pytest.raises(ValueError, match="sigma"):
        tree_rows(sigma, 2, 0, 4)  # at the call, before the first row


def test_tree_prefix_noise_variance_matches_node_count():
    # trials live in the coordinate axis: per-coordinate prefix noise
    # variance is (number of dyadic nodes) * sigma^2
    trials, T, sigma = 20000, 8, 1.0
    for i, noise in enumerate(tree_rows(sigma, trials, 99, T), 1):
        expected = len(prefix_nodes(i)) * sigma**2
        assert noise.var() == pytest.approx(expected, rel=0.05)


def test_tree_calibration_values():
    # per-node sigma = (clip / B) * tree_sens(T) / mu, mu = sqrt(2 rho)
    assert tree_sens(16) == math.sqrt(5.0)
    assert _noise_sigma(0.5, 1.0, 1, tree_sens(16)) == pytest.approx(math.sqrt(5.0))
    assert _noise_sigma(0.125, 2.0, 1, tree_sens(16)) == pytest.approx(4 * math.sqrt(5.0))
    expected = 4.0 * 8.0 * math.sqrt(4.0 * math.log(2 * 16 / 0.05))
    assert _tree_error_bound(1.0, 1.0, 16, 4, 0.05) == pytest.approx(expected)
    with pytest.raises(ValueError):
        _tree_error_bound(1.0, 0.0, 16, 4, 0.05)
    with pytest.raises(ValueError):
        _tree_error_bound(1.0, 1.0, 1, 4, 0.05)
    with pytest.raises(ValueError):
        _tree_error_bound(1.0, 1.0, 16, 4, 1.5)


@pytest.mark.parametrize("c_clip, mu", [
    (1.0, 0.0), (1.0, -1.0), (1.0, math.nan), (-1.0, 1.0), (math.nan, 1.0)])
def test_tree_error_bound_rejects_a_bad_mu_or_clip(c_clip, mu):
    # mu = -1 or clip = -1 used to give a negative bound (-162.68), mu = NaN
    # a NaN one, and mu = 0 a ZeroDivisionError
    with pytest.raises(ValueError, match="mu|c_clip"):
        _tree_error_bound(c_clip, mu, 16, 4, 0.05)


@pytest.mark.parametrize("n", range(1, 71))
def test_tree_sens_is_the_node_matrix_largest_column_norm(n):
    # the runs' tree sigma is sized by the factorization that criterion 7
    # and tree_baseline_objective score
    _, c_node = tree_matrix_factorization(n)
    assert tree_sens(n) == np.linalg.norm(c_node, axis=0).max()


# ---------------------------------------------------------------------------
# workload matrices


def test_ones_workload_is_prefix_sum_matrix():
    np.testing.assert_array_equal(build_workload("ones", 2, 3),
                                  np.tril(np.ones((6, 6))))


def test_momentum_workload_matches_recursion():
    gamma, n = 0.7, 9
    wl = build_workload("momentum", 3, 3, momentum=gamma)
    rng = np.random.default_rng(2)
    deltas = rng.standard_normal(n)
    v, out = 0.0, []
    for t in range(n):
        v = gamma * v + deltas[t]
        out.append((out[-1] if out else 0.0) + v)
    np.testing.assert_allclose(wl @ deltas, out, rtol=1e-12)


def test_momentum_decay_workload_matches_double_recursion():
    gamma, c, n = 0.85, 0.3, 8
    wl = build_workload("momentum_decay", 2, 4, momentum=gamma, decay=c)
    rng = np.random.default_rng(3)
    deltas = rng.standard_normal(n)
    g, v, cum, out = 0.0, 0.0, 0.0, []
    for t in range(n):
        g = c * g + deltas[t]        # decayed gradient recursion
        v = gamma * v + g            # optimizer momentum
        cum += v
        out.append(cum)
    np.testing.assert_allclose(wl @ deltas, out, rtol=1e-12)


def test_workload_validation():
    with pytest.raises(ValueError):
        build_workload("mystery", 1, 4)
    with pytest.raises(ValueError):
        build_workload("momentum", 1, 4, momentum=1.0)
    with pytest.raises(ValueError):
        build_workload("momentum_decay", 1, 4, momentum=0.5, decay=0.0)
    with pytest.raises(ValueError):
        build_workload("ones", 0, 4)


def test_column_group_sens_matches_loop():
    rng = np.random.default_rng(4)
    k, b = 3, 4
    c_mat = np.tril(rng.standard_normal((12, 12)))
    expected = 0.0
    for j in range(b):
        cols = [c_mat[:, e * b + j] for e in range(k)]
        total = sum(abs(float(u @ v)) for u in cols for v in cols)
        expected = max(expected, math.sqrt(total))
    assert column_group_sens(c_mat, k, b) == pytest.approx(expected, rel=1e-12)
    # with no negative inner products it is the norm of each group's sum
    nonneg = np.abs(c_mat)
    expected = 0.0
    for j in range(b):
        col = sum(nonneg[:, e * b + j] for e in range(k))
        expected = max(expected, np.linalg.norm(col))
    assert column_group_sens(nonneg, k, b) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        column_group_sens(c_mat, 2, 4)


def test_column_group_sens_bounds_any_per_epoch_contribution():
    # one example, b = 1, two epochs: the columns are anti-correlated, so
    # the norm of their sum (1.005) understates what g_0 = -g_1 can move
    c_mat = np.array([[1.0, 0.0], [-0.9, 1.0]])
    sound = math.sqrt(1.81 + 1.0 + 2 * 0.9)
    assert column_group_sens(c_mat, 2, 1) == pytest.approx(sound, rel=1e-12)
    assert np.linalg.norm(c_mat @ [1.0, -1.0]) == pytest.approx(sound, rel=1e-12)
    strat = StrategyMatrix(np.ones(2), [1.0, -0.9], "custom", 2, 1)
    np.testing.assert_array_equal(dense_c(strat), c_mat)
    assert strat.sens == pytest.approx(sound, rel=1e-12)
    with pytest.raises(ValueError, match="sensitivity"):
        strat.check()


# ---------------------------------------------------------------------------
# tree factorization as a matrix pair


@pytest.mark.parametrize("n", [6, 8, 16])
def test_tree_factorization_reconstructs_prefix_matrix(n):
    b_dec, c_node = tree_matrix_factorization(n)
    np.testing.assert_allclose(b_dec @ c_node, np.tril(np.ones((n, n))),
                               rtol=0, atol=1e-12)
    # decomposition rows select exactly the dyadic prefix nodes
    for i in range(1, n + 1):
        assert b_dec[i - 1].sum() == len(prefix_nodes(i))


def test_tree_baseline_objective_closed_form():
    # ones workload, full horizon 2^m: error part is sqrt(sum of popcounts)
    # and sensitivity is sqrt(tree depth + 1)
    for n in (8, 16, 32):
        popcounts = sum(bin(i).count("1") for i in range(1, n + 1))
        expected = math.sqrt(popcounts) * math.sqrt(ceil_log2(n) + 1)
        assert tree_baseline_objective(build_workload("ones", 1, n), 1, n) \
            == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("workload,k,b", [
    (build_strategy("ones", 1, 8).workload, 1, 8),
    (build_strategy("ones", 1, 16).workload, 1, 16),
    (build_strategy("ones", 1, 32).workload, 1, 32),
    # the benchmark's pair, built as the harness builds them
    (build_strategy("momentum_decay", 2, 40, momentum=0.9, decay=math.exp(-2.5)).workload,
     2, 40),
    (build_strategy("ones", 2, 40, momentum=0.9, decay=0.0).workload, 2, 40),
], ids=["ones_1x8", "ones_1x16", "ones_1x32", "momentum_decay_2x40", "ones_2x40"])
def test_tree_baseline_objective_is_the_dense_factorization_bit_for_bit(workload, k, b):
    # criterion 7's shapes and the benchmark's mf_error_ratio denominator
    assert tree_baseline_objective(workload, k, b) \
        == dense_tree_baseline_objective(workload, k, b)


@pytest.mark.parametrize("k,b", [(1, 13), (1, 16), (2, 9), (3, 5), (3, 7)])
def test_tree_baseline_objective_matches_the_dense_factorization_on_any_workload(k, b):
    # n = 13, 18, 15 and 21 cut the last node at every level above the leaves
    n = k * b
    workload = np.tril(np.random.default_rng(n).standard_normal((n, n)))
    assert tree_baseline_objective(workload, k, b) \
        == pytest.approx(dense_tree_baseline_objective(workload, k, b), rel=1e-12)


def test_tree_baseline_objective_builds_no_n_by_n_array():
    # one n x n float64 array is 2 MB at n = 512; the dense form built A^{-1},
    # B_dec, C_node and two products
    k, b = 2, 256
    workload = build_strategy("momentum", k, b, momentum=0.9).workload
    tracemalloc.start()
    try:
        got = tree_baseline_objective(workload, k, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * k * b * 8
    assert got == pytest.approx(dense_tree_baseline_objective(workload, k, b), rel=1e-12)


def test_tree_baseline_objective_rejects_a_workload_of_another_shape():
    # column indexing would otherwise read a corner of W
    with pytest.raises(ValueError, match=r"workload shape \(12, 12\) != \(10, 10\)"):
        tree_baseline_objective(np.tril(np.ones((12, 12))), 2, 5)
    with pytest.raises(ValueError, match=r"workload shape \(10,\) != \(10, 10\)"):
        tree_baseline_objective(np.ones(10), 2, 5)


# ---------------------------------------------------------------------------
# square-root strategies


def _objective_oracle(workload, c_mat):
    return float(np.linalg.norm(workload @ np.linalg.inv(c_mat)))


def test_factorize_reports_its_own_objective_and_sens():
    wl = build_workload("ones", 1, 8)
    strat = factorize(wl[:, 0], 1, 8)
    assert strat.objective == pytest.approx(_objective_oracle(wl, dense_c(strat)),
                                            rel=1e-9)
    assert strat.sens == pytest.approx(column_group_sens(dense_c(strat), 1, 8),
                                       rel=1e-12)
    assert strat.sens <= 1.0 + 1e-9
    assert strat.steps == 8
    strat.check()


def test_factorize_is_deterministic():
    wl = build_workload("momentum", 2, 4, momentum=0.6)
    s1 = factorize(wl[:, 0], 2, 4)
    s2 = factorize(wl[:, 0], 2, 4)
    np.testing.assert_array_equal(dense_c(s1), dense_c(s2))
    assert s1.objective == s2.objective


def test_factorize_beats_tree_baseline_on_momentum_workload():
    wl = build_workload("momentum", 2, 6, momentum=0.9)
    strat = factorize(wl[:, 0], 2, 6)
    assert strat.objective <= tree_baseline_objective(wl, 2, 6)
    assert strat.sens <= 1.0 + 1e-9


@pytest.mark.parametrize("kind,momentum,decay", [
    ("ones", 0.0, 1.0),
    ("momentum", 0.9, 1.0),
    ("momentum_decay", 0.9, math.exp(-2.5)),
])
def test_factorize_unbanded_root_squares_to_the_workload(kind, momentum, decay):
    n = 120
    wl = build_workload(kind, 1, n, momentum=momentum, decay=decay)
    strat = factorize(wl[:, 0], 1, n, kind=kind)
    # C is the root R over its sensitivity; R's diagonal is sqrt(w_0)
    c_mat = dense_c(strat)
    root = c_mat * (math.sqrt(wl[0, 0]) / c_mat[0, 0])
    assert np.linalg.norm(root @ root - wl) <= 1e-12 * np.linalg.norm(wl)
    assert strat.sens == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", ["ones", "momentum_decay"])
def test_factorize_bands_put_an_examples_columns_on_disjoint_rows(kind):
    k, b = 2, 40
    wl = build_workload(kind, k, b, momentum=0.9, decay=math.exp(-2.5))
    strat = factorize(wl[:, 0], k, b)
    c_mat = dense_c(strat)
    for j in range(b):
        assert c_mat[:, j] @ c_mat[:, j + b] == 0.0
    assert np.count_nonzero(c_mat[:, 0]) == b
    assert strat.sens == pytest.approx(1.0, abs=1e-12)
    assert column_group_sens(c_mat, k, b) == strat.sens


def test_factorize_input_validation():
    with pytest.raises(ValueError):
        factorize(np.ones((3, 3)), 1, 3)  # the matrix, not its first column
    with pytest.raises(ValueError):
        factorize(np.ones(4), 1, 3)  # shape mismatch
    with pytest.raises(ValueError, match="diagonal"):
        factorize(np.array([0.0, 1.0, 1.0]), 1, 3)
    with pytest.raises(ValueError):
        factorize(np.ones(0), 0, 3)


def test_strategy_check_rejects_violations():
    bad = StrategyMatrix(np.ones(3), [2.0], "custom", 1, 3)  # C = 2 I
    with pytest.raises(ValueError, match="sensitivity"):
        bad.check()
    flipped = StrategyMatrix(np.ones(3), [-0.5, 0.1], "custom", 1, 3)
    assert flipped.sens <= 1.0
    with pytest.raises(ValueError, match="diagonal"):
        flipped.check()
    with pytest.raises(ValueError):
        StrategyMatrix(np.ones(3), [1.0, 0.5], "custom", 1, 2)  # w too long
    with pytest.raises(ValueError):
        StrategyMatrix(np.ones(2), [1.0, 0.5, 0.1], "custom", 1, 2)  # r too long


def test_a_nan_sensitivity_fails_the_check_before_any_noise_row():
    nan_sens = StrategyMatrix(np.ones(2), [1.0, math.nan], "custom", 1, 2)
    assert math.isnan(nan_sens.sens)
    with pytest.raises(ValueError, match="sensitivity"):
        nan_sens.check()
    with pytest.raises(ValueError, match="sensitivity"):
        mf_noise_stream(nan_sens, 1.0, 3, 0)


def _dense_objective(strategy):
    c_inv = solve_triangular(dense_c(strategy), np.eye(strategy.steps), lower=True)
    return float(np.linalg.norm(strategy.workload @ c_inv))


@pytest.mark.parametrize("k,b", [(1, 24), (2, 40), (3, 17)])
@pytest.mark.parametrize("kind", ["ones", "momentum", "momentum_decay"])
def test_coefficient_sens_and_objective_match_the_dense_formulas(kind, k, b):
    strat = build_strategy(kind, k, b, momentum=0.9, decay=math.exp(-2.5))
    assert strat.sens == pytest.approx(column_group_sens(dense_c(strat), k, b), rel=1e-12)
    assert strat.objective == pytest.approx(_dense_objective(strat), rel=1e-12)


def _random_root(width, seed):
    r = np.random.default_rng(seed).standard_normal(width)
    r[0] = abs(r[0]) + 0.5
    return r


@pytest.mark.parametrize("k,b,r", [
    (2, 1, [1.0, -0.9]),
    (3, 4, _random_root(7, 1)),
    (2, 5, _random_root(10, 2)),
    (4, 3, _random_root(2, 3)),
], ids=["anti_correlated_2x1", "random_3x4", "random_2x5", "random_4x3"])
def test_coefficient_formulas_hold_for_roots_longer_than_b(k, b, r):
    # len(r) > b at k > 1 (but for 4x3): the columns of one example share rows
    strat = StrategyMatrix(build_workload("momentum", k, b, momentum=0.5)[:, 0],
                           r, "custom", k, b)
    assert strat.sens == pytest.approx(column_group_sens(dense_c(strat), k, b), rel=1e-12)
    assert strat.objective == pytest.approx(_dense_objective(strat), rel=1e-12)


def test_a_large_strategy_holds_and_builds_only_coefficient_vectors():
    # the dense C and W of n = 2000 steps would be 32 MB each
    n = 10 * 200
    tracemalloc.start()
    try:
        strat = build_strategy("momentum_decay", 10, 200, momentum=0.9,
                               decay=math.exp(-2.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000
    arrays = [v for v in vars(strat).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) <= 2 * n * 8
    assert strat.sens == pytest.approx(1.0, abs=1e-12)


def test_identity_strategy():
    strat = identity_strategy(1, 5)
    np.testing.assert_array_equal(dense_c(strat), np.eye(5))
    assert strat.sens == 1.0
    assert strat.steps == 5
    assert strat.objective == pytest.approx(
        np.linalg.norm(np.tril(np.ones((5, 5)))))
    for k in (2, 3):  # I / sqrt(k): the k rows of one example have sensitivity 1
        strat = identity_strategy(k, 5)
        assert (strat.k, strat.b) == (k, 5)
        assert column_group_sens(dense_c(strat), k, 5) == pytest.approx(1.0, abs=1e-12)
        assert strat.sens == pytest.approx(1.0, abs=1e-12)
        strat.check()


def test_build_strategy_reads_momentum_and_decay_only_where_the_workload_does():
    k, b = 2, 3
    ones = build_strategy("ones", k, b, momentum=0.9, decay=0.5)
    ref = factorize(build_workload("ones", k, b)[:, 0], k, b, kind="ones")
    np.testing.assert_array_equal(dense_c(ones), dense_c(ref))
    assert ones.kind == "ones"
    np.testing.assert_array_equal(ones.w, build_strategy("ones", k, b).w)
    mom = build_strategy("momentum", k, b, momentum=0.9, decay=0.5)
    np.testing.assert_array_equal(mom.w, build_strategy("momentum", k, b, momentum=0.9).w)
    assert not np.array_equal(mom.w, build_strategy("momentum", k, b, momentum=0.5).w)
    md = build_strategy("momentum_decay", k, b, momentum=0.9, decay=0.5)
    np.testing.assert_array_equal(md.workload, build_workload(
        "momentum_decay", k, b, momentum=0.9, decay=0.5))
    assert not np.array_equal(md.w, build_strategy(
        "momentum_decay", k, b, momentum=0.9, decay=0.25).w)
    ident = build_strategy("identity", k, b, momentum=0.9, decay=0.5)
    np.testing.assert_array_equal(dense_c(ident), dense_c(identity_strategy(k, b)))
    with pytest.raises(ValueError):
        build_strategy("mystery", k, b)


# ---------------------------------------------------------------------------
# correlated noise streams


def _dense(r, n):
    """The n x n lower-triangular Toeplitz C with first column r."""
    return toeplitz(np.concatenate([r, np.zeros(n - len(r))]), np.zeros(n))


def test_forward_substitution_matches_solve():
    rng = np.random.default_rng(5)
    n, d = 7, 3
    r = rng.standard_normal(n)
    r[0] = abs(r[0]) + 0.5
    z = rng.standard_normal((n, d))
    rows = np.stack(list(forward_substitution_rows(r, iter(z))))
    np.testing.assert_allclose(_dense(r, n) @ rows, z, rtol=0, atol=1e-10)


def test_forward_substitution_is_causal():
    # row t must be emitted before z row t+1 is consumed
    n = 5
    consumed = []

    def z_rows():
        for t in range(n):
            consumed.append(t)
            yield np.ones(2)

    gen = forward_substitution_rows(np.ones(1), z_rows())
    next(gen)
    assert consumed == [0]
    next(gen)
    assert consumed == [0, 1]


def _full_prefix_rows(c_mat, z):
    """C^{-1} Z by forward substitution over every solved row: row t is
    (z_t - C[t, :t] @ rows[:t]) / C[t, t]."""
    rows = np.empty_like(z)
    for t in range(z.shape[0]):
        acc = z[t] if t == 0 else z[t] - c_mat[t, :t] @ rows[:t]
        rows[t] = acc / c_mat[t, t]
    return rows


def _hand_banded(width=3, seed=9):
    """The first column r of a C with `width` nonzero diagonals of random
    entries in [0.2, 1)."""
    return np.random.default_rng(seed).uniform(0.2, 1.0, width)


@pytest.mark.parametrize("r,n", [
    (build_strategy("momentum_decay", 2, 8, momentum=0.9, decay=math.exp(-2.5)).r, 16),
    (build_strategy("ones", 3, 5).r, 15),
    (_hand_banded(), 12),
], ids=["momentum_decay_2x8", "ones_3x5", "hand_banded"])
def test_banded_stream_matches_the_triangular_solve(r, n):
    z = np.random.default_rng(10).standard_normal((n, 6)) * 3.0
    rows = np.stack(list(forward_substitution_rows(r, iter(z))))
    np.testing.assert_allclose(rows, solve_triangular(_dense(r, n), z, lower=True),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("strategy", [identity_strategy(2, 6), identity_strategy(1, 9),
                                      build_strategy("ones", 1, 24)],
                         ids=["identity_2x6", "identity_1x9", "ones_1x24"])
def test_full_band_stream_is_the_full_prefix_solve(strategy):
    # a diagonal C (bandwidth 1) and a k = 1 root (bandwidth n) keep the
    # full solve's summation order, so they reproduce its bits
    z = np.random.default_rng(11).standard_normal((strategy.steps, 37))
    rows = np.stack(list(forward_substitution_rows(strategy.r, iter(z))))
    np.testing.assert_array_equal(rows, _full_prefix_rows(dense_c(strategy), z))


def test_stream_rows_are_fresh_arrays():
    r = _hand_banded(width=2)
    z = np.random.default_rng(12).standard_normal((6, 3))
    rows = []
    for row in forward_substitution_rows(r, iter(z)):
        rows.append(row.copy())
        row[:] = np.nan  # must not reach the window the next rows read
    np.testing.assert_allclose(np.stack(rows), solve_triangular(_dense(r, 6), z, lower=True),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("r,n", [(np.array([2.0]), 5), (_hand_banded(width=3), 8),
                                 (build_strategy("ones", 1, 6).r, 6)],
                         ids=["diagonal", "hand_banded", "ones_1x6"])
def test_stream_reads_read_only_z_rows_and_never_writes_them(r, n):
    z = np.random.default_rng(14).standard_normal((n, 4))
    want = z.copy()
    z.setflags(write=False)
    rows = []
    for row in forward_substitution_rows(r, iter(z)):
        assert row.flags.writeable and not np.shares_memory(row, z)
        rows.append(row)
    np.testing.assert_array_equal(z, want)
    np.testing.assert_allclose(np.stack(rows), solve_triangular(_dense(r, n), want, lower=True),
                               rtol=0, atol=1e-12)


def test_banded_stream_state_is_the_window_not_the_prefix():
    # after the first row the stream holds (bandwidth - 1) solved rows of
    # d floats; a buffer of every solved row would be n / (bandwidth - 1)
    # times that
    strategy = build_strategy("momentum_decay", 2, 40, momentum=0.9,
                              decay=math.exp(-2.5))
    n, d = strategy.steps, 2000
    z = np.random.default_rng(13).standard_normal((n, d))
    window_bytes = (40 - 1) * d * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gen = forward_substitution_rows(strategy.r, iter(z))
        live = 0
        for _ in range(n):
            row = next(gen)
            del row
            live = max(live, tracemalloc.get_traced_memory()[0] - base)
    finally:
        tracemalloc.stop()
    assert live <= window_bytes + 64_000


def _rows_held_between_rows(stream, d):
    """The most traced memory, in rows of d floats, held between the rows
    of a pass of stream() whose caller drops each row at once: what the
    stream itself keeps. A first, untraced pass pays for lazy imports."""
    for _ in stream():
        pass
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rows, held = stream(), 0
        while next(rows, None) is not None:
            held = max(held, tracemalloc.get_traced_memory()[0] - base)
    finally:
        tracemalloc.stop()
    return held / (8 * d)


def test_a_banded_mf_stream_holds_its_ring_alone_between_rows():
    # memf's 2 x 40 momentum_decay strategy at MNIST's d: the ring of
    # len(r) - 1 = 39 solved rows, and no room in the bound for the last z
    # row or the last yielded row
    strategy = build_strategy("momentum_decay", 2, 40, momentum=0.9, decay=math.exp(-2.5))
    d, width = 7850, len(strategy.r) - 1
    assert width == 39
    held = _rows_held_between_rows(lambda: mf_noise_stream(strategy, 1.0, d, 0), d)
    assert width <= held <= width + 0.5


def test_a_gaussian_stream_holds_no_row_between_rows():
    # a generator local binding the last scaled row would hold one row
    d = 7850
    assert _rows_held_between_rows(lambda: gaussian_rows(1.0, d, 0, 20), d) <= 0.5


def test_mf_noise_stream_identity_matches_iid_gaussian():
    rho, d, seed = 0.5, 4, 21
    sigma = math.sqrt(1 / (2 * rho))
    rows = np.stack(list(mf_noise_stream(identity_strategy(1, 6), sigma, d, seed)))
    rng = np.random.default_rng(seed)
    expected = np.stack([rng.standard_normal(d) * sigma for _ in range(6)])
    np.testing.assert_array_equal(rows, expected)


def test_mf_noise_stream_reconstructs_z():
    strat = factorize(np.ones(6), 1, 6)
    rho, d, seed = 2.0, 3, 33
    sigma = math.sqrt(1 / (2 * rho))
    rows = np.stack(list(mf_noise_stream(strat, sigma, d, seed)))
    rng = np.random.default_rng(seed)
    z = np.stack([rng.standard_normal(d) * sigma for _ in range(6)])
    np.testing.assert_allclose(dense_c(strat) @ rows, z, rtol=0, atol=1e-10)


def test_mf_noise_stream_edge_cases():
    strat = identity_strategy(1, 4)
    rows = list(mf_noise_stream(strat, 0.0, 3, 0))
    assert all(np.array_equal(r, np.zeros(3)) for r in rows)
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="sigma"):
            next(mf_noise_stream(strat, bad, 3, 0))
    singular = StrategyMatrix(np.ones(4), [0.0, 1.0], "custom", 1, 4)
    assert singular.objective == math.inf
    with pytest.raises(np.linalg.LinAlgError):
        next(mf_noise_stream(singular, 1.0, 3, 0))


def test_mf_noise_stream_refuses_a_strategy_that_fails_its_check():
    # the stream is where a strategy shapes noise, so it is refused there,
    # when the stream is built, before any row is drawn
    loud = StrategyMatrix(np.ones(3), [2.0], "custom", 1, 3)  # C = 2 I, sens 2
    with pytest.raises(ValueError, match="sensitivity 2.0 exceeds 1"):
        mf_noise_stream(loud, 1.0, 3, 0)
    flipped = StrategyMatrix(np.ones(3), [-0.5, 0.1], "custom", 1, 3)
    assert flipped.sens <= 1.0
    with pytest.raises(ValueError, match="diagonal"):
        mf_noise_stream(flipped, 1.0, 3, 0)
    rows = list(mf_noise_stream(StrategyMatrix(np.ones(3), [1.0], "custom", 1, 3), 1.0, 3, 0))
    assert len(rows) == 3
