"""Private continual counting.

Two mechanisms for releasing noisy prefix sums of a vector stream:

* a dyadic-interval (binary tree) mechanism with per-node Gaussian noise,
  streamed one step at a time in O(dim * log T) memory, and
* matrix-factorization correlated noise, where a lower-triangular strategy
  matrix C (with bounded column-group sensitivity across epochs) shapes
  white noise Z into C^{-1} Z rows, streamed in O(dim * bandwidth of C)
  memory.

The tree is also exposed as an explicit (B, C) matrix factorization so both
mechanisms can be compared on a single error axis.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular, toeplitz

from .geometry import all_finite

__all__ = [
    "TreeState",
    "StrategyMatrix",
    "tree_ingest",
    "tree_prefix",
    "calibrate_tree_sigma",
    "tree_error_bound",
    "build_workload",
    "build_strategy",
    "factorize",
    "mf_noise_stream",
    "tree_matrix_factorization",
    "tree_baseline_objective",
    "column_group_sens",
    "save_strategy",
    "load_strategy",
]


def ceil_log2(t: int) -> int:
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    return (t - 1).bit_length()


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


@dataclass
class TreeState:
    """Streaming binary tree over a horizon of `horizon` steps of
    `dim`-dimensional vectors, with i.i.d. N(0, sigma^2) noise per node
    coordinate (Dwork et al., STOC 2010; Chan, Shi, Song, 2011).

    The state is the exact running total and a stack with one entry per
    node of `prefix_nodes(ingested)`, at most ceil(log2 T) + 1 rows. The
    entry (k, running) of a level-k node holds the running noise sum
    through that node: the noises of the stack's nodes up to it, added left
    to right onto zero, so the top entry is the prefix noise, read in O(1).
    Each entry is built once, when its node opens, and is read-only.
    Step i draws the noise of node (j, k) with j * 2^k = i as the i-th row
    of the seed's generator, so a node's noise is a function of
    (seed, j, k) alone and depends on neither the horizon nor the data.
    """

    horizon: int
    dim: int
    sigma: float = 0.0
    seed: int = 0
    ingested: int = field(init=False, default=0)
    total: np.ndarray = field(init=False, repr=False)
    stack: list = field(init=False, repr=False)

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        self.total = np.zeros(self.dim)
        self.stack = []
        self._rng = np.random.default_rng(self.seed)


def tree_ingest(state: TreeState, i: int, delta: np.ndarray) -> TreeState:
    """Add step i's vector to the running total and open node (j, k) with
    j * 2^k = i, which replaces the prefix's nodes below level k: its entry
    is its noise added onto the running sum of the node left of it.

    Steps must arrive in order 1, 2, ..., horizon.
    """
    if i != state.ingested + 1:
        raise ValueError(f"steps must arrive in order: expected {state.ingested + 1}, got {i}")
    if i > state.horizon:
        raise ValueError(f"step {i} beyond horizon {state.horizon}")
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape != (state.dim,):
        raise ValueError(f"delta shape {delta.shape} != ({state.dim},)")
    if not all_finite(delta):
        raise ValueError(f"non-finite delta at step {i}")
    state.total += delta
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
    state.stack.append((k, running))
    state.ingested = i
    return state


def tree_prefix(state: TreeState, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Noisy estimate of the prefix sum through the last ingested step i.

    Returns (estimate, noise_only):  estimate = exact prefix + noise_only,
    where noise_only is the sum of the noises of the popcount(i) nodes in
    the dyadic decomposition. The estimate is unbiased. noise_only is the
    stack's read-only running sum, so the call allocates only the estimate.
    """
    if i != state.ingested:
        raise ValueError(f"prefix step {i} is not the last ingested step {state.ingested}")
    noise_only = state.stack[-1][1] if state.stack else np.zeros(state.dim)
    return state.total + noise_only, noise_only


def calibrate_tree_sigma(c_clip: float, mu: float, horizon: int) -> float:
    """Per-node noise std for mu-GDP release of a stream whose elements
    have L2 sensitivity c_clip: c_clip * sqrt(1 + ceil(log2 T)) / mu."""
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    return c_clip * math.sqrt(1 + ceil_log2(horizon)) / mu

def tree_error_bound(c_clip: float, mu: float, horizon: int, d: int, delta: float) -> float:
    """High-probability bound on the max prefix L2 noise norm:
    4 * c_clip * log2(T)^1.5 * sqrt(d * ln(2T/delta)) / mu.

    Holds with probability at least 1 - delta over the tree noise.
    """
    if horizon < 2:
        raise ValueError(f"horizon must be >= 2, got {horizon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    log_t = math.log2(horizon)
    return 4.0 * c_clip * log_t**1.5 * math.sqrt(d * math.log(2 * horizon / delta)) / mu


# ---------------------------------------------------------------------------
# workloads and strategy matrices


# Workload kinds, in the order strategy files store their index; "custom"
# marks a strategy factorized for a workload outside this list.
WORKLOADS = ("ones", "momentum", "momentum_decay", "identity")
_KINDS = WORKLOADS + ("custom",)


def build_workload(kind: str, k: int, b: int, momentum: float = 0.0,
                   decay: float = 1.0) -> np.ndarray:
    """Lower-triangular workload for kb steps.

    ones, identity:  A (prefix sums; plain SGD iterates); custom too, for
                     a loaded strategy whose workload the file does not store
    momentum:        M @ A, where M is the Toeplitz momentum matrix with
                     entries momentum^(i-j), so (M A)_{i,j} = sum of the
                     first i-j+1 momentum powers
    momentum_decay:  M @ A @ L with L_{i,j} = decay^(i-j): the rows of
                     A @ L reconstruct the decayed recursion
                     grad_t = decay * grad_{t-1} + delta_t
    """
    if k < 1 or b < 1:
        raise ValueError(f"k and b must be >= 1, got k={k}, b={b}")
    if kind not in _KINDS:
        raise ValueError(f"unknown workload kind {kind!r}")
    n = k * b
    prefix = np.tril(np.ones((n, n)))
    if kind not in ("momentum", "momentum_decay"):
        return prefix
    if not 0.0 <= momentum < 1.0:
        raise ValueError(f"momentum must be in [0,1), got {momentum}")
    idx = np.arange(n)
    powers = idx[:, None] - idx[None, :]
    mom = np.where(powers >= 0, momentum ** np.maximum(powers, 0), 0.0)
    if kind == "momentum":
        return mom @ prefix
    if not 0.0 < decay <= 1.0:
        raise ValueError(f"decay must be in (0,1], got {decay}")
    dec = np.where(powers >= 0, decay ** np.maximum(powers, 0), 0.0)
    return mom @ prefix @ dec


def column_group_sens(c_mat: np.ndarray, k: int, b: int) -> float:
    """Multi-epoch sensitivity of C: max over batch positions j of
    sqrt(sum_{i, i'} |<C[:, i*b + j], C[:, i'*b + j]>|).

    An example sits at position j of every epoch i and may contribute a
    different vector g_i (||g_i|| <= 1) each time; ||sum_i C[:, i*b+j] g_i^T||_F
    is bounded by the square root above. It equals ||sum_i C[:, i*b + j]||
    when every inner product within a group is >= 0, and always when k = 1.
    """
    n = k * b
    if c_mat.shape != (n, n):
        raise ValueError(f"C shape {c_mat.shape} != ({n}, {n})")
    groups = c_mat.reshape(n, k, b)
    gram = np.einsum("rib,rjb->bij", groups, groups)
    return float(np.sqrt(np.max(np.abs(gram).sum(axis=(1, 2)))))


@dataclass
class StrategyMatrix:
    """Lower-triangular noise-shaping matrix with its workload and
    factorization metadata. sens is the multi-epoch column-group
    sensitivity of `column_group_sens`, max_j sqrt(sum_{i,i'} |<C[:, i*b+j],
    C[:, i'*b+j]>|), which holds whatever vector an example contributes in
    each epoch; the privacy calibration of the Z stream assumes sens <= 1.
    """

    C: np.ndarray
    workload: np.ndarray
    kind: str
    k: int
    b: int
    momentum: float
    decay: float
    sens: float
    objective: float
    # always None: `factorize` is closed-form; perfbench/spans.py reads it
    converged: bool | None = None

    @property
    def steps(self) -> int:
        return self.k * self.b

    def check(self, tol: float = 1e-9):
        if self.sens > 1.0 + tol:
            raise ValueError(f"strategy sensitivity {self.sens} exceeds 1")
        if np.any(np.diag(self.C) <= 0):
            raise ValueError("strategy diagonal must be strictly positive")


def _objective(workload: np.ndarray, c_mat: np.ndarray) -> float:
    c_inv = solve_triangular(c_mat, np.eye(c_mat.shape[0]), lower=True)
    return float(np.linalg.norm(workload @ c_inv))


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


def tree_baseline_objective(workload: np.ndarray, k: int, b: int) -> float:
    """Error objective of the binary tree factorization scaled to unit
    sensitivity, for an arbitrary lower-triangular workload W.

    The tree releases noisy prefixes, so a consumer of W re-weights them by
    W A^{-1}; the error matrix is then (W A^{-1}) B_dec and the sensitivity
    is the column-group norm of the node-membership matrix.
    """
    n = k * b
    b_dec, c_node = tree_matrix_factorization(n)
    # A^{-1} is bidiagonal: 1 on the diagonal, -1 below it
    a_inv = np.eye(n) - np.eye(n, k=-1)
    error_part = float(np.linalg.norm(workload @ a_inv @ b_dec))
    groups = c_node.reshape(c_node.shape[0], k, b).sum(axis=1)
    sens = float(np.max(np.linalg.norm(groups, axis=0)))
    return error_part * sens


def _sqrt_coefficients(w: np.ndarray) -> np.ndarray:
    """Power-series square root r of w (r * r = w as sequences):
    r_0 = sqrt(w_0), r_i = (w_i - sum_{j=1}^{i-1} r_j r_{i-j}) / (2 r_0)."""
    r = np.empty_like(w)
    r[0] = math.sqrt(w[0])
    for i in range(1, w.shape[0]):
        r[i] = (w[i] - r[1:i] @ r[i - 1:0:-1]) / (2.0 * r[0])
    return r


def factorize(workload: np.ndarray, k: int, b: int, kind: str | None = None,
              momentum: float = 0.0, decay: float = 1.0) -> StrategyMatrix:
    """Banded square-root strategy for a lower-triangular Toeplitz W.

    C is the Toeplitz matrix of the first b coefficients of the power-series
    square root of W's first column (at k = 1 all of them, a root of W;
    Fichtenberger et al., "Constant Matters", ICML 2023), divided by its
    `column_group_sens`. With b bands an example's k columns sit on disjoint
    rows, so the inner products within a group are 0 and the sound
    multi-epoch sensitivity of the result is 1 (Kalinin & Lampert, "Banded
    Square Root Matrix Factorization", NeurIPS 2024). Deterministic.
    """
    workload = np.asarray(workload, dtype=np.float64)
    n = k * b
    if workload.shape != (n, n):
        raise ValueError(f"workload shape {workload.shape} != ({n}, {n})")
    w = workload[:, 0]
    # entries built by matrix products differ along a diagonal by rounding
    if not np.allclose(workload, toeplitz(w, np.zeros(n)), rtol=0,
                       atol=1e-12 * np.abs(w).max()):
        raise ValueError("workload must be lower-triangular Toeplitz")
    if not w[0] > 0:
        raise ValueError(f"workload diagonal must be positive, got {w[0]}")

    r = _sqrt_coefficients(w)
    r[b:] = 0.0
    c_mat = toeplitz(r, np.zeros(n))
    c_mat /= column_group_sens(c_mat, k, b)
    if kind is None:
        kind = "ones" if np.array_equal(workload, np.tril(np.ones((n, n)))) else "custom"
    return strategy_from_matrix(c_mat, workload, k, b, kind, momentum, decay)


def identity_strategy(k: int, b: int) -> StrategyMatrix:
    """Input-perturbation strategy over k epochs of b steps: C = I / sqrt(k),
    white per-step noise scaled so that the k steps an example takes part
    in have column-group sensitivity exactly 1 (C = I at k = 1)."""
    workload = build_workload("identity", k, b)
    return strategy_from_matrix(np.eye(k * b) / math.sqrt(k), workload, k, b,
                                "identity")


def _workload_args(kind: str, momentum: float, decay: float) -> tuple[float, float]:
    """The (momentum, decay) that `kind`'s workload reads: momentum for
    the momentum kinds, decay for momentum_decay alone; 0 and 1 otherwise."""
    return (momentum if kind in ("momentum", "momentum_decay") else 0.0,
            decay if kind == "momentum_decay" else 1.0)


def build_strategy(kind: str, k: int, b: int, momentum: float = 0.0,
                   decay: float = 1.0) -> StrategyMatrix:
    """The strategy for workload `kind` over k epochs of b steps: the
    identity strategy, or `factorize` of `build_workload`. Kinds that do
    not read momentum or decay record 0 and 1 for them."""
    if kind == "identity":
        return identity_strategy(k, b)
    momentum, decay = _workload_args(kind, momentum, decay)
    return factorize(build_workload(kind, k, b, momentum, decay), k, b,
                     kind=kind, momentum=momentum, decay=decay)


def strategy_from_matrix(c_mat: np.ndarray, workload: np.ndarray, k: int, b: int,
                         kind: str = "custom", momentum: float = 0.0,
                         decay: float = 1.0) -> StrategyMatrix:
    c_mat = np.asarray(c_mat, dtype=np.float64)
    return StrategyMatrix(
        C=c_mat, workload=np.asarray(workload, dtype=np.float64), kind=kind,
        k=k, b=b, momentum=momentum, decay=decay,
        sens=column_group_sens(c_mat, k, b),
        objective=_objective(workload, c_mat),
    )


# ---------------------------------------------------------------------------
# correlated noise streams


def _bandwidth(c_mat: np.ndarray) -> int:
    """1 + the largest t - s over the nonzero C[t, s] with s <= t: row t of
    a lower-triangular C reads only columns t - bandwidth + 1 .. t."""
    rows, cols = np.nonzero(np.tril(c_mat))
    return int(np.max(rows - cols, initial=0)) + 1


def forward_substitution_rows(c_mat: np.ndarray, z_rows):
    """Yield rows of C^{-1} Z one at a time given an iterator of Z rows.

    Row t is emitted after consuming Z rows 1..t only, so the stream is
    causal: later Z rows cannot affect earlier outputs. Row t reads only
    the w - 1 rows before it, w the bandwidth of C's nonzero pattern, so
    the state is a ring of w - 1 solved rows, O(w * d) memory and work per
    row (w = 1 for a diagonal C, w = n for a full one). Every yielded row
    is a fresh array.
    """
    n = c_mat.shape[0]
    width = _bandwidth(c_mat) - 1  # rows in the ring; row s sits in slot s % width
    ring = None
    for t, z in enumerate(z_rows):
        if t >= n:
            break
        z = np.asarray(z, dtype=np.float64)
        if t == 0 or width == 0:
            acc = z
        elif t < width:
            acc = z - c_mat[t, :t] @ ring[:t]
        else:
            # slot j holds row t - width + ((j - t) % width)
            acc = z - np.roll(c_mat[t, t - width:t], t % width) @ ring
        row = acc / c_mat[t, t]
        if width:
            if ring is None:
                ring = np.empty((width, z.shape[0]))
            ring[t % width] = row
        yield row


def mf_noise_stream(strategy: StrategyMatrix, rho: float, d: int, seed: int):
    """Stream the kb rows of C^{-1} Z with Z entries i.i.d. N(0, 1/(2 rho))
    per coordinate. rho = inf yields the all-zero stream. The stream holds
    (bandwidth - 1) x d solved rows, bandwidth <= b for the banded
    strategies of `factorize` and 1 for the identity.

    The Z scale assumes the protected stream has unit per-example
    sensitivity; callers releasing streams with sensitivity s must multiply
    the rows by s.
    """
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    diag = np.diag(strategy.C)
    if np.any(diag == 0):
        raise np.linalg.LinAlgError("strategy matrix is singular")
    scale = 0.0 if math.isinf(rho) else math.sqrt(1.0 / (2.0 * rho))
    rng = np.random.default_rng(seed)
    n = strategy.steps

    def z_rows():
        for _ in range(n):
            yield rng.standard_normal(d) * scale

    yield from forward_substitution_rows(strategy.C, z_rows())


# ---------------------------------------------------------------------------
# serialization

_MAGIC = b"DPMF"
_HEADER = struct.Struct("<4sIIIIdd")


def save_strategy(strategy: StrategyMatrix, path) -> None:
    """Flat binary layout: header (magic, kb, k, b, kind, momentum, decay)
    followed by the row-major float64 lower triangle of C. The file does not
    store the workload, so raises ValueError unless `build_workload` rebuilds
    it from the header's fields."""
    if not np.array_equal(strategy.workload, build_workload(
            strategy.kind, strategy.k, strategy.b, strategy.momentum, strategy.decay)):
        raise ValueError(f"{strategy.kind!r} strategy's workload is not the one "
                         f"build_workload rebuilds from its header")
    n = strategy.steps
    tri = np.concatenate([strategy.C[i, :i + 1] for i in range(n)])
    header = _HEADER.pack(_MAGIC, n, strategy.k, strategy.b,
                          _KINDS.index(strategy.kind),
                          strategy.momentum, strategy.decay)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(tri.astype("<f8").tobytes())


def load_strategy(path) -> StrategyMatrix:
    """Read a `save_strategy` file; raises ValueError if its C breaks the
    sensitivity bound or has a non-positive diagonal."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise ValueError(f"truncated header: {len(raw)} of {_HEADER.size} bytes in {path}")
        magic, n, k, b, kind_id, momentum, decay = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise ValueError(f"bad magic {magic!r} in {path}")
        if n != k * b:
            raise ValueError(f"inconsistent header: kb={n} but k={k}, b={b}")
        body = np.frombuffer(fh.read(), dtype="<f8")
    expected = n * (n + 1) // 2
    if body.shape[0] != expected:
        raise ValueError(f"expected {expected} triangle entries, got {body.shape[0]}")
    c_mat = np.zeros((n, n))
    pos = 0
    for i in range(n):
        c_mat[i, :i + 1] = body[pos:pos + i + 1]
        pos += i + 1
    if kind_id >= len(_KINDS):
        raise ValueError(f"unknown workload kind id {kind_id} in {path}")
    kind = _KINDS[kind_id]
    workload = build_workload(kind, k, b, momentum, decay)
    strategy = strategy_from_matrix(c_mat, workload, k, b, kind, momentum, decay)
    strategy.check()
    return strategy
