"""Private continual counting.

Two linear Gaussian mechanisms, each a stream of noise rows that a
runner adds to its own exact sums (sensitivity in brackets):

* a dyadic-interval (binary tree) mechanism with per-node Gaussian noise,
  whose prefix-noise rows stream in at most ceil(bit_length(T) / 2) rows
  of dim floats (`tree_rows`; `tree_sens(T)`), and
* matrix-factorization correlated noise, where a lower-triangular Toeplitz
  strategy matrix C (with bounded column-group sensitivity across epochs)
  shapes white noise Z, the i.i.d. rows of `gaussian_rows`, into C^{-1} Z
  rows, streamed in O(dim * bandwidth of C) memory (`mf_noise_stream`; the
  strategy's sens). A strategy is held as the first columns of C and of
  its workload W; its sensitivity and error objective are computed from
  them in O(kb) memory. The identity strategy C = I (`identity_strategy`)
  streams Z itself: i.i.d. rows, of sensitivity 1.

`tree_baseline_objective` scores the tree on the same error axis as a
strategy, node by node from the workload's columns, with no node matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import check_in

__all__ = [
    "TreeState",
    "StrategyMatrix",
    "tree_ingest",
    "tree_prefix",
    "tree_rows",
    "tree_sens",
    "build_strategy",
    "factorize",
    "gaussian_rows",
    "identity_strategy",
    "mf_noise_stream",
    "tree_baseline_objective",
]


def ceil_log2(t: int) -> int:
    check_in("t", t, "{1, 2, ...}")
    return (int(t) - 1).bit_length()  # a numpy integer has no bit_length


@dataclass
class TreeState:
    """Streaming binary tree over a horizon of `horizon` steps of
    `dim`-dimensional vectors, with i.i.d. N(0, sigma^2) noise per node
    coordinate (Dwork et al., STOC 2010; Chan, Shi, Song, 2011).

    Node (j, k) covers steps ((j-1)*2^k, j*2^k]. The prefix [1, i] is the
    left-to-right union of popcount(i) nodes, one per set bit of i, from
    the highest. The state, noise only, is a stack of entries
    (k, running): the running noise sum through the level-k node of the
    prefix [1, ingested], the noises of the prefix's nodes up to it added
    left to right onto zero, so the top entry is the prefix noise, read in
    O(1). Only the lowest node of each run of ones in the binary form of
    `ingested` keeps an entry, since no later node adds onto the others
    (see `tree_ingest`): at most ceil(bit_length(T) / 2) rows. Each entry
    is built once, when its node opens, and is read-only.
    Step i draws the noise of node (j, k) with j * 2^k = i as the i-th row
    of the seed's generator, so a node's noise is a function of
    (seed, j, k) alone and depends on neither the horizon nor the data.
    """

    horizon: int
    dim: int
    sigma: float = 0.0
    seed: int = 0
    ingested: int = field(init=False, default=0)
    stack: list = field(init=False, repr=False)

    def __post_init__(self):
        check_in("horizon", self.horizon, "{1, 2, ...}")
        check_in("sigma", self.sigma, "[0, inf)")
        self.stack = []
        self._rng = np.random.default_rng(self.seed)


def tree_ingest(state: TreeState, i: int) -> TreeState:
    """Open step i's node (j, k) with j * 2^k = i, which replaces the
    prefix's nodes below level k: its entry is its noise added onto the
    running sum of the node left of it. That sum is then dropped if its
    node sits at level k + 1: the next carry out of level k also carries
    out of level k + 1, so no later node adds onto it.

    Steps must arrive in order 1, 2, ..., horizon.
    """
    if i != state.ingested + 1:
        raise ValueError(f"steps must arrive in order: expected {state.ingested + 1}, got {i}")
    if i > state.horizon:
        raise ValueError(f"step {i} beyond horizon {state.horizon}")
    k = (i & -i).bit_length() - 1
    while state.stack and state.stack[-1][0] < k:
        state.stack.pop()
    if state.sigma > 0:
        running = state._rng.standard_normal(state.dim)
        running *= state.sigma
    else:
        running = np.zeros(state.dim)
    # a first node still adds onto zero, as the sum from zero did: -0.0 -> 0.0
    running += state.stack[-1][1] if state.stack else 0.0
    running.setflags(write=False)
    if state.stack and state.stack[-1][0] == k + 1:
        state.stack.pop()
    state.stack.append((k, running))
    state.ingested = i
    return state


def tree_prefix(state: TreeState, i: int) -> np.ndarray:
    """Noise of the prefix through the last ingested step i, the sum of
    the noises of its popcount(i) dyadic nodes: the stack's read-only
    running sum, so the call allocates nothing."""
    if i != state.ingested:
        raise ValueError(f"prefix step {i} is not the last ingested step {state.ingested}")
    return state.stack[-1][1] if state.stack else np.zeros(state.dim)


def tree_rows(sigma: float, d: int, seed: int, n: int):
    """Stream the n read-only prefix-noise rows of a `TreeState` of
    per-node std sigma (checked at the call): row t is the noise of the
    prefix through step t + 1."""
    state = TreeState(n, d, sigma=sigma, seed=seed)
    return (tree_prefix(tree_ingest(state, i), i) for i in range(1, n + 1))


def tree_sens(horizon: int) -> float:
    """Sensitivity of the tree over T steps: a step sits in at most
    1 + ceil(log2 T) nodes, each of unit weight."""
    return math.sqrt(1 + ceil_log2(horizon))


# ---------------------------------------------------------------------------
# workloads and strategies
#
# Every workload W and strategy C here is lower-triangular Toeplitz, so each
# is its first column: W[t, s] = w[t - s] and C[t, s] = r[t - s], zero where
# t - s is past the column's end.

WORKLOADS = ("ones", "momentum", "momentum_decay", "identity")


def _workload_column(kind: str, k: int, b: int, momentum: float = 0.0,
                     decay: float = 1.0) -> np.ndarray:
    """First column w of the workload W for kb steps, in O(kb) memory:

    ones, identity:  A (prefix sums; plain SGD iterates)
    momentum:        M A, M the Toeplitz momentum matrix with entries
                     momentum^(i-j), so (M A)_{i,j} = sum of the first
                     i-j+1 momentum powers
    momentum_decay:  M A L with L_{i,j} = decay^(i-j): the rows of A L
                     reconstruct the decayed recursion
                     grad_t = decay * grad_{t-1} + delta_t

    w is the truncated convolution of the first columns of M, A and L."""
    check_in("k", k, "{1, 2, ...}")
    check_in("b", b, "{1, 2, ...}")
    if kind not in WORKLOADS:
        raise ValueError(f"unknown workload kind {kind!r}")
    n = k * b
    if kind not in ("momentum", "momentum_decay"):
        return np.ones(n)
    check_in("momentum", momentum, "[0, 1)")
    w = np.cumsum(momentum ** np.arange(n))  # M's first column times A
    if kind == "momentum":
        return w
    check_in("decay", decay, "(0, 1]")
    return np.convolve(w, decay ** np.arange(n))[:n]


def _lower_toeplitz(col: np.ndarray, n: int) -> np.ndarray:
    """The dense n x n lower-triangular Toeplitz matrix with first column
    `col`, zero past its end."""
    first = np.zeros(n)
    first[:col.shape[0]] = col
    # entry (i, j) is first[i - j]; tril zeroes the wrapped lags above the diagonal
    return np.tril(first[np.subtract.outer(np.arange(n), np.arange(n))])


def _toeplitz_sens(r: np.ndarray, k: int, b: int) -> float:
    """Multi-epoch sensitivity of the C with first column r, in O(kb)
    memory: max over batch positions j of
    sqrt(sum_{i, i'} |<C[:, i*b + j], C[:, i'*b + j]>|).

    An example sits at position j of every epoch i and may contribute a
    different vector g_i (||g_i|| <= 1) each time; ||sum_i C[:, i*b+j] g_i^T||_F
    is bounded by the square root above. It equals ||sum_i C[:, i*b + j]||
    when every inner product within a group is >= 0, and always when k = 1.

    For columns s <= s', <C[:, s], C[:, s']> = sum_{m < n - s'} r_m r_{m+s'-s},
    a prefix sum of r's lag-(s' - s) products. An example's columns sit
    a*b apart, so only the lags a*b < len(r) are nonzero: a = 0 alone, the
    squared column norms, when len(r) <= b (a banded root's disjoint rows).
    """
    n, width = k * b, r.shape[0]
    total = np.zeros(b)
    for a in range(min(k, (width - 1) // b + 1)):
        lag = a * b
        sums = np.zeros(width - lag + 1)
        np.cumsum(r[:width - lag] * r[lag:], out=sums[1:])
        # pairs (i, i + a) at position j: s' = (i + a) b + j for i < k - a
        inner = np.abs(sums[np.minimum(n - np.arange(lag, n), width - lag)])
        total += (1.0 if a == 0 else 2.0) * inner.reshape(k - a, b).sum(axis=0)
    return math.sqrt(total.max())


def _toeplitz_objective(w: np.ndarray, r: np.ndarray) -> float:
    """||W C^{-1}||_F from first columns: W C^{-1} is Toeplitz with first
    column q, the power series w / r cut to n terms (r * q = w, solved by
    forward substitution), so its squared norm is sum_m (n - m) q_m^2.
    A singular C (r_0 = 0) scores inf."""
    if r[0] == 0:
        return math.inf
    n, width = w.shape[0], r.shape[0]
    q = np.empty(n)
    for i in range(n):
        lo = max(0, i - width + 1)
        q[i] = (w[i] - r[i - lo:0:-1] @ q[lo:i]) / r[0]
    return math.sqrt(np.arange(n, 0, -1) @ (q * q))


@dataclass
class StrategyMatrix:
    """Lower-triangular Toeplitz noise-shaping matrix C for the workload W
    of `kind` over k epochs of b steps, held as first columns: w is W's, of
    length kb (W's momentum and decay are in w alone), and r is C's through
    its last nonzero band. sens and objective are computed from them at
    construction, in O(kb) memory. sens is the multi-epoch column-group
    sensitivity of `_toeplitz_sens`, max_j sqrt(sum_{i,i'} |<C[:, i*b+j],
    C[:, i'*b+j]>|), which holds whatever vector an example contributes in
    each epoch; the noise calibration multiplies by it, and `check` wants it
    <= 1. objective is ||W C^{-1}||_F. Only `workload` builds a dense
    matrix, W, for the callers that score the tree against it (perfbench
    reads it).
    """

    w: np.ndarray
    r: np.ndarray
    kind: str
    k: int
    b: int
    sens: float = field(init=False)
    objective: float = field(init=False)
    # always None, and no init field: `factorize` is closed-form; perfbench reads it
    converged = None

    def __post_init__(self):
        check_in("k", self.k, "{1, 2, ...}")
        check_in("b", self.b, "{1, 2, ...}")
        self.w = np.asarray(self.w, dtype=np.float64)
        self.r = np.trim_zeros(np.asarray(self.r, dtype=np.float64), "b")
        n = self.steps
        if self.w.shape != (n,):
            raise ValueError(f"w shape {self.w.shape} != ({n},)")
        if self.r.ndim != 1 or not 1 <= self.r.shape[0] <= n:
            raise ValueError(f"r must hold 1 to {n} entries with a nonzero last one, "
                             f"got shape {self.r.shape}")
        self.sens = _toeplitz_sens(self.r, self.k, self.b)
        self.objective = _toeplitz_objective(self.w, self.r)

    @property
    def steps(self) -> int:
        return self.k * self.b

    @property
    def workload(self) -> np.ndarray:
        return _lower_toeplitz(self.w, self.steps)

    def check(self, tol: float = 1e-9):
        if not self.sens <= 1.0 + tol:  # a NaN sensitivity fails too
            raise ValueError(f"strategy sensitivity {self.sens} exceeds 1")
        if not self.r[0] > 0:
            raise ValueError("strategy diagonal must be strictly positive")


def tree_baseline_objective(workload: np.ndarray, k: int, b: int) -> float:
    """Error objective of the binary tree mechanism scaled to unit
    sensitivity, for any lower-triangular workload W of k epochs of b
    steps, passed dense: ||W A^{-1} B_dec||_F times the tree's sensitivity.

    The tree releases noisy prefixes, which a consumer of W re-weights by
    W A^{-1}, A the prefix-sum matrix: column s is W[:, s] - W[:, s+1], with
    W[:, n] = 0. Node (j, l), j odd, covers steps [(j-1) 2^l, j 2^l) and
    sits in the prefixes j 2^l .. (j+1) 2^l - 1, so its error column
    telescopes to W[:, j 2^l - 1] - W[:, (j+1) 2^l - 1]; a node cut off at
    n sits in no prefix. The sensitivity is the max over batch positions p
    of sqrt(sum over nodes of c^2), c the count of steps i b + p (i < k) in
    the node. One node at a time, in O(n) memory besides W.
    """
    n = k * b
    if workload.shape != (n, n):
        raise ValueError(f"workload shape {workload.shape} != ({n}, {n}) for k={k}, b={b}")
    positions = np.arange(b)
    sq_error, sq_counts = 0.0, np.zeros(b)
    for level in range(ceil_log2(n) + 1):
        size = 1 << level
        for lo in range(0, n, 2 * size):
            hi = lo + size
            # (x - p + b - 1) // b counts the steps i b + p below x
            counts = (min(hi, n) - positions + b - 1) // b - (lo - positions + b - 1) // b
            sq_counts += counts * counts
            if hi > n:
                continue
            col = workload[:, hi - 1]
            if hi + size <= n:
                col = col - workload[:, hi + size - 1]
            sq_error += col @ col
    return math.sqrt(sq_error) * math.sqrt(sq_counts.max())


def _sqrt_coefficients(w: np.ndarray) -> np.ndarray:
    """Power-series square root r of w (r * r = w as sequences):
    r_0 = sqrt(w_0), r_i = (w_i - sum_{j=1}^{i-1} r_j r_{i-j}) / (2 r_0)."""
    r = np.empty_like(w)
    r[0] = math.sqrt(w[0])
    for i in range(1, w.shape[0]):
        r[i] = (w[i] - r[1:i] @ r[i - 1:0:-1]) / (2.0 * r[0])
    return r


def factorize(w: np.ndarray, k: int, b: int, kind: str = "custom") -> StrategyMatrix:
    """Banded square-root strategy for the lower-triangular Toeplitz W with
    first column w (all of W).

    r is the first b coefficients of the power-series square root of w (at
    k = 1 all of them, a root of W; Fichtenberger et al., "Constant
    Matters", ICML 2023), divided by the sensitivity of their C. With b
    bands an example's k columns sit on disjoint rows, so the inner
    products within a group are 0 and the sound multi-epoch sensitivity of
    the result is 1 (Kalinin & Lampert, "Banded Square Root Matrix
    Factorization", NeurIPS 2024). Deterministic. kind labels the workload;
    "custom" marks one outside `WORKLOADS`.
    """
    check_in("k", k, "{1, 2, ...}")
    check_in("b", b, "{1, 2, ...}")
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (k * b,):
        raise ValueError(f"workload column shape {w.shape} != ({k * b},)")
    check_in("workload diagonal", float(w[0]), "(0, inf)")
    r = _sqrt_coefficients(w[:b])  # r_i reads w_0 .. w_i alone
    r /= _toeplitz_sens(r, k, b)
    return StrategyMatrix(w, r, kind, k, b)


def identity_strategy(k: int, b: int) -> StrategyMatrix:
    """Input-perturbation strategy over k epochs of b steps: C = I / sqrt(k),
    white per-step noise scaled so that the k steps an example takes part
    in have column-group sensitivity exactly 1 (C = I at k = 1)."""
    return StrategyMatrix(_workload_column("identity", k, b), [1.0 / math.sqrt(k)],
                          "identity", k, b)


def build_strategy(kind: str, k: int, b: int, momentum: float = 0.0,
                   decay: float = 1.0) -> StrategyMatrix:
    """The strategy for workload `kind` over k epochs of b steps: the
    identity strategy, or `factorize` of the workload's first column, whose
    kind reads momentum, decay, both or neither."""
    if kind == "identity":
        return identity_strategy(k, b)
    return factorize(_workload_column(kind, k, b, momentum, decay), k, b, kind=kind)


# ---------------------------------------------------------------------------
# correlated noise streams


def forward_substitution_rows(r: np.ndarray, z_rows):
    """Yield rows of C^{-1} Z one at a time given an iterator of Z rows, C
    the lower-triangular Toeplitz matrix with first column r (zero past its
    end), one row per z row.

    Row t is emitted after consuming Z rows 1..t only, so the stream is
    causal: later Z rows cannot affect earlier outputs. Row t reads only
    the w - 1 rows before it, w = len(r) the bandwidth of C, so the state
    is a ring of w - 1 solved rows, O(w * d) memory and work per row. Each
    row is solved straight into its ring slot and yielded as a fresh copy;
    a diagonal C (w = 1) keeps no ring and yields z / r[0] through `map`.
    Between rows the stream holds the ring alone, not the last z row or
    the last yielded row, and every yielded row is a fresh array that the
    stream never reads again, so a caller may scale it in place; no z row
    is ever written to.
    """
    r = np.asarray(r, dtype=np.float64)
    width = r.shape[0] - 1  # rows in the ring; row s sits in slot s % width
    if width == 0:
        yield from map(lambda z: np.asarray(z, dtype=np.float64) / r[0], z_rows)
        return
    back = r[:0:-1].copy()  # C[t, t - width:t] = r_width, ..., r_1
    ring = None
    t = 0  # counted by hand: enumerate would keep the last z row in its result tuple
    for z in z_rows:
        z = np.asarray(z, dtype=np.float64)
        if ring is None:
            ring = np.empty((width, z.shape[0]))
        slot = ring[t % width]
        if t == 0:
            np.divide(z, r[0], out=slot)
        else:
            if t < width:
                acc = back[width - t:] @ ring[:t]
            else:
                # slot j holds row t - width + ((j - t) % width)
                acc = np.roll(back, t % width) @ ring
            # the GEMV has read row t - width before row t overwrites its slot
            np.subtract(z, acc, out=slot)  # z - (C row) @ ring
            slot /= r[0]
            del acc
        del z
        yield slot.copy()
        t += 1


def gaussian_rows(sigma: float, d: int, seed: int, n: int):
    """Stream n rows of d entries i.i.d. N(0, sigma^2) from
    `default_rng(seed)`, each scaled in place (the bits of
    standard_normal(d) * sigma): the identity mechanism, which holds no
    matrix. Each row is handed over through `map`, with no generator local
    binding it, so between rows the stream holds none. sigma is checked at
    the call, before the first row."""
    check_in("sigma", sigma, "[0, inf)")
    rng = np.random.default_rng(seed)
    return map(lambda z: np.multiply(z, sigma, out=z),
               (rng.standard_normal(d) for _ in range(n)))


def mf_noise_stream(strategy: StrategyMatrix, sigma: float, d: int, seed: int):
    """Stream the kb rows of C^{-1} Z, Z the `gaussian_rows` of std sigma
    (checked at the call). sigma = 0 yields the all-zero stream. Between
    rows the stream holds (len(r) - 1) x d solved rows and no other row,
    len(r) <= b for the banded strategies of `factorize` and 1 for the
    identity. A rho-zCDP release of
    a stream of per-example sensitivity s takes sigma = s * sens / sqrt(2 rho).
    A singular C raises LinAlgError, then a strategy failing `check` ValueError.
    """
    if strategy.r[0] == 0:
        raise np.linalg.LinAlgError("strategy matrix is singular")
    strategy.check()
    return forward_substitution_rows(strategy.r, gaussian_rows(sigma, d, seed, strategy.steps))
