"""Dense n x n references for the tests of `dpsrgd.counting`, which holds
workloads and strategies as first columns and scores the binary tree node
by node: the workload and strategy matrices, the multi-epoch column-group
sensitivity, the dyadic decomposition of a prefix, and the tree as an
explicit (B_dec, C_node) factorization."""

import numpy as np

from dpsrgd.counting import _lower_toeplitz, _workload_column, ceil_log2


def prefix_nodes(i: int) -> list[tuple[int, int]]:
    """Greedy left-to-right dyadic decomposition of the prefix [1, i].

    Node (j, k) covers steps ((j-1)*2^k, j*2^k]. The number of intervals
    equals popcount(i); every interval index j is odd. Example: i=7
    decomposes into (1,2), (3,1), (7,0).
    """
    nodes = []
    start, remaining = 0, i
    while remaining > 0:
        k = remaining.bit_length() - 1
        block = 1 << k
        nodes.append((start // block + 1, k))
        start += block
        remaining -= block
    return nodes


def build_workload(kind: str, k: int, b: int, momentum: float = 0.0,
                   decay: float = 1.0) -> np.ndarray:
    """Dense lower-triangular workload W for kb steps: the Toeplitz matrix
    of the first column `_workload_column` builds for `kind`."""
    return _lower_toeplitz(_workload_column(kind, k, b, momentum, decay), k * b)


def dense_c(strategy) -> np.ndarray:
    """The dense strategy matrix C of a `StrategyMatrix`, from its first
    column r."""
    return _lower_toeplitz(strategy.r, strategy.steps)


def column_group_sens(c_mat: np.ndarray, k: int, b: int) -> float:
    """Multi-epoch sensitivity of the dense C, max over batch positions j of
    sqrt(sum_{i, i'} |<C[:, i*b + j], C[:, i'*b + j]>|), the quantity
    `counting._toeplitz_sens` computes from C's first column."""
    n = k * b
    if c_mat.shape != (n, n):
        raise ValueError(f"C shape {c_mat.shape} != ({n}, {n})")
    groups = c_mat.reshape(n, k, b)
    gram = np.einsum("rib,rjb->bij", groups, groups)
    return float(np.sqrt(np.max(np.abs(gram).sum(axis=(1, 2)))))


def tree_matrix_factorization(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The binary tree mechanism as prefix = B_dec @ C_node factorization.

    C_node rows are node membership indicators over steps 1..n (one row per
    odd node, ordered by level k and then index j); B_dec rows select each
    prefix's dyadic decomposition. B_dec @ C_node equals the
    lower-triangular all-ones A.
    """
    nodes = [(j, k) for k in range(ceil_log2(n) + 1)
             for j in range(1, (n - 1) // (1 << k) + 2, 2)]
    index = {jk: r for r, jk in enumerate(nodes)}
    c_node = np.zeros((len(nodes), n))
    for r, (j, k) in enumerate(nodes):
        c_node[r, (j - 1) << k:min(j << k, n)] = 1.0
    b_dec = np.zeros((n, len(nodes)))
    for i in range(1, n + 1):
        for jk in prefix_nodes(i):
            b_dec[i - 1, index[jk]] = 1.0
    return b_dec, c_node


def dense_tree_baseline_objective(workload: np.ndarray, k: int, b: int) -> float:
    """`tree_baseline_objective` from the dense matrices: the error matrix
    is (W A^{-1}) B_dec and the sensitivity is the column-group norm of the
    node-membership matrix."""
    n = k * b
    b_dec, c_node = tree_matrix_factorization(n)
    # A^{-1} is bidiagonal: 1 on the diagonal, -1 below it
    a_inv = np.eye(n) - np.eye(n, k=-1)
    error_part = float(np.linalg.norm(workload @ a_inv @ b_dec))
    groups = c_node.reshape(c_node.shape[0], k, b).sum(axis=1)
    sens = float(np.max(np.linalg.norm(groups, axis=0)))
    return error_part * sens
