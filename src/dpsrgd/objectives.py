"""Loss problems: per-example values/gradients plus declared regularity constants.

Two concrete tasks are provided. SyntheticQuadratic has a known population
minimizer, so excess risk and population gradients are exact; it backs the
convergence and sensitivity checks. LogisticTask is multiclass softmax
regression over fixed feature/label arrays with a held-out split; it runs
one logits matmul per block of a batch's rows, for both evaluation points
of `srg_mean`, and one per block of held-out rows for a finished run's loss
and accuracy. `srg_mean` takes its two points as one (2, dim) array, the
step loop's own, whose rows its logits matmul reads in place as stacked
weights. Every other logits product puts the K class rows on the left
(see LogisticTask).

A "batch" is whatever the problem's per-example methods accept:
an (m, dim) array of example vectors for the synthetic task, which draws
them with `draw_batch`, or an integer index array for dataset-backed
tasks, whose caller picks the indices.

The optimizers reach the data only through two gradient hooks,
`clipped_mean_grad` and `srg_mean`. Each returns `(mean, train_loss)`: the
clipped batch-mean gradient (or recursive increment) and the batch-mean
loss at the current point, computed in the same pass over the batch, so a
run's train-loss trajectory costs no extra forward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import _clip_factors, _clip_rows_in_place, check_clip, row_norms

# The most feature-row bytes a gathered batch's step holds at once: a
# LogisticTask gradient hook reads a gathered batch in near-equal blocks of
# at most this many bytes of rows (125 rows at 785 features), sized to a
# core's L2 cache, so that its memory does not grow with the batch.
_GATHER_BYTES = 768 * 1024
# The most held-out rows a block of the held-out pass reads, so that a
# finished run's loss and accuracy never hold the (n_eval, K) logits.
_HELDOUT_ROWS = 2048

__all__ = [
    "LossProblem",
    "SyntheticQuadratic",
    "LogisticTask",
]


class LossProblem:
    """Base class. Subclasses set dim, lipschitz, smoothness and implement
    the per-example methods.

    The gradient hooks `clipped_mean_grad` and `srg_mean` return
    `(mean, train_loss)`, where train_loss is
    `float(per_example_values(x, batch).mean())` at x (x_t for srg_mean),
    computed in the same pass as the gradient. Both are written once, over
    `_grads_and_loss(x, batch)`, the pass at x that returns fresh
    per-example gradients and the train loss; its default builds the pair
    from per_example_grads and per_example_values. A subclass may override
    it with a fused pass that returns the same numbers, as
    SyntheticQuadratic does (LogisticTask overrides both hooks with its
    blocked pass). A fused pass never calls the per-example methods, so a
    subclass that intercepts those methods (to count or alter evaluations)
    must take the default back in its class body:
    `_grads_and_loss = LossProblem._grads_and_loss`.

    per_example_grads must return a fresh array that the caller owns: the
    hooks scale, subtract and clip the arrays it returns in place, so that
    one step allocates no (m, dim) temporaries beyond them. In the same
    way, the mean a gradient hook returns is a fresh array that the runner
    owns and may overwrite: `run_dp_srg_memf` adds its noise row into it.

    The points a hook is handed, srg_mean's (2, dim) array and the x of
    clipped_mean_grad (a row of it), belong to the step loop, which
    overwrites them after the step (see `optim._drive`). A hook reads them
    and never writes them; one that keeps a point copies it, as criterion
    3's `_QueryPoints` does. Both hooks raise ValueError on a point of
    another shape.
    """

    dim: int
    lipschitz: float
    smoothness: float

    def per_example_values(self, x: np.ndarray, batch) -> np.ndarray:
        raise NotImplementedError

    def per_example_grads(self, x: np.ndarray, batch) -> np.ndarray:
        """Gradient of every example in the batch at x, shape (m, dim), as a
        fresh float64 array that the hooks overwrite."""
        raise NotImplementedError

    def population_excess(self, x: np.ndarray) -> float:
        """Excess population risk when the optimum is known, otherwise the
        held-out average loss."""
        raise NotImplementedError

    def excess_and_accuracy(self, x: np.ndarray) -> tuple[float, float | None]:
        """(population_excess(x), held-out accuracy in percent): the figures
        a finished run reports. Accuracy is None for a task without one; a
        task with both may compute them in one pass over the held-out set."""
        return self.population_excess(x), None

    # The potential diagnostic's optimum; None when not analytically available.
    def exact_optimum(self):
        return None

    def _grads_and_loss(self, x: np.ndarray, batch) -> tuple[np.ndarray, float]:
        """(per_example_grads(x, batch), batch-mean loss at x): the one pass
        at a point that both gradient hooks take."""
        return (self.per_example_grads(x, batch),
                float(_batch_mean(self.per_example_values(x, batch))))

    # Hooks the optimizers call.
    def clipped_mean_grad(self, x: np.ndarray, batch,
                          c_clip: float) -> tuple[np.ndarray, float]:
        """(Mean over the batch of clip(g(x,d)), batch-mean loss at x)."""
        _check_shape("x", x, (self.dim,))
        grads, loss = self._grads_and_loss(x, batch)
        return _batch_mean(_clip_rows_in_place(grads, c_clip)), loss

    def srg_mean(self, points: np.ndarray, w_t: float, w_prev: float, batch,
                 c_clip: float = np.inf) -> tuple[np.ndarray, float]:
        """(Mean over the batch of clip(w_t*g(x_t,d) - w_prev*g(x_prev,d)),
        batch-mean loss at x_t), where points is a (2, dim) array holding
        x_t in row 0 and x_prev in row 1.

        Both evaluation points are always visited, so every example in the
        batch costs exactly two gradient evaluations regardless of w_prev.
        """
        _check_shape("points", points, (2, self.dim))
        g_t, loss = self._grads_and_loss(points[0], batch)
        g_p = self.per_example_grads(points[1], batch)  # even at w_prev = 0
        # w_t * g_t - w_prev * g_p in the two fresh arrays; the runner aborts
        with np.errstate(invalid="ignore"):  # on the NaN of infinite ones
            g_t *= w_t
            g_p *= w_prev
            g_t -= g_p
        del g_p  # freed before the clip squares g_t
        return _batch_mean(_clip_rows_in_place(g_t, c_clip)), loss


def _check_shape(name: str, a, shape: tuple[int, ...]) -> None:
    """Raise ValueError unless `a` has this shape: a hook would broadcast
    a point of another shape against the batch, and return the gradients
    at some other point."""
    if np.shape(a) != shape:
        raise ValueError(f"{name} has shape {np.shape(a)}, want {shape}")


def _blocked_row_norms(mat: np.ndarray) -> np.ndarray:
    """row_norms(mat), 4096 rows at a time, so that the squares are never
    held for the whole array at once. Each row's figure is the same. A
    finite row whose squares overflow gets an infinite norm without a
    warning; `LogisticTask._checked_max_norm` tells it from a non-finite
    entry."""
    out = np.empty(mat.shape[0])
    with np.errstate(over="ignore"):
        for start in range(0, mat.shape[0], 4096):
            out[start:start + 4096] = row_norms(mat[start:start + 4096])
    return out


def _near_equal_blocks(n: int, most: int) -> list[tuple[int, int]]:
    """(lo, hi) of the fewest consecutive blocks of n rows that hold at
    most `most` rows each, their sizes differing by at most one, so that no
    block is a sliver: BLAS may round a GEMM of few rows differently. One
    empty block when n is 0."""
    count = max(1, -(-n // most))
    return [(i * n // count, (i + 1) * n // count) for i in range(count)]


def _batch_mean(a: np.ndarray):
    """a.mean(axis=0) by np.mean's own two steps, a sum over the batch axis
    and one division, without its wrapper."""
    return np.add.reduce(a, axis=0) / a.shape[0]


@dataclass
class SyntheticQuadratic(LossProblem):
    """Per-example loss f(x, d) = (curvature/2) * ||x - d||^2 with examples
    d = target + bounded isotropic noise.

    The declared Lipschitz constant is the induced bound over a ball of
    radius `radius`: curvature * (radius + ||target|| + noise_scale).

    `_grads_and_loss` is fused: the residual x - d is formed once, and
    both the gradient curvature * (x - d) and the train loss are read off
    it, with the per-example methods' own steps, so every figure is the
    default pass's. The curvature multiply is skipped at curvature 1.0,
    where it changes no bit. A subclass that intercepts per-example methods
    must take the default pass back (see LossProblem). The per-example
    methods and population_excess raise ValueError on a point whose shape
    is not (dim,), as the hooks do; `_residuals` and the fused pass leave
    that check to their callers.
    """

    dim: int
    target: np.ndarray
    curvature: float = 1.0
    noise_scale: float = 0.0
    radius: float = 1.0
    lipschitz: float = field(init=False)
    smoothness: float = field(init=False)

    def __post_init__(self):
        self.target = np.asarray(self.target, dtype=np.float64)
        if self.target.shape != (self.dim,):
            raise ValueError("target shape must match dim")
        if not 0 < self.curvature < math.inf:
            raise ValueError(f"curvature must be positive and finite, got {self.curvature}")
        if not 0 <= self.noise_scale < math.inf:
            raise ValueError("noise_scale must be nonnegative and finite, "
                             f"got {self.noise_scale}")
        self.smoothness = self.curvature
        self.lipschitz = self.curvature * (
            self.radius + float(np.linalg.norm(self.target)) + self.noise_scale
        )

    @staticmethod
    def _residuals(x, batch) -> np.ndarray:
        """x - d for every example d of the batch, shape (m, dim), as a
        fresh float64 array: bit for bit `x[None, :] - batch`. numpy runs
        that broadcast through a buffered iterator whose hidden buffer,
        min(m*dim, 8192) doubles, is as large as the result at the CLI's
        (256, 20) batch; x copied into the array, with a float64 batch
        subtracted in place, needs none."""
        batch = np.asarray(batch)
        resid = np.empty(batch.shape)
        np.copyto(resid, x)
        resid -= batch
        return resid

    def per_example_values(self, x, batch) -> np.ndarray:
        _check_shape("x", x, (self.dim,))
        return self._values(self._residuals(x, batch))

    def _values(self, resid: np.ndarray) -> np.ndarray:
        """Per-example losses from the residuals x - d, left unchanged."""
        return 0.5 * self.curvature * np.add.reduce(resid * resid, axis=1)

    def per_example_grads(self, x, batch) -> np.ndarray:
        _check_shape("x", x, (self.dim,))
        return self._scaled(self._residuals(x, batch))

    def _scaled(self, resid: np.ndarray) -> np.ndarray:
        """curvature * resid, in place: the gradients from the residuals
        x - d. At curvature 1.0 the multiply would change no bit."""
        if self.curvature != 1.0:
            resid *= self.curvature
        return resid

    def _grads_and_loss(self, x, batch) -> tuple[np.ndarray, float]:
        """(per_example_grads(x, batch), batch-mean loss at x), both from
        one residual x - batch."""
        resid = self._residuals(x, batch)
        loss = float(_batch_mean(self._values(resid)))
        return self._scaled(resid), loss

    def draw_batch(self, rng, size):
        """`size` examples target + r, with r Gaussian of per-coordinate std
        noise_scale / sqrt(dim) and each r clamped to norm noise_scale.
        The clamp multiplies every row by min(noise_scale / norm, 1), which
        is 1.0, exactly, on the rows within the bound; a zero noise_scale
        has nothing to clamp. The rows are scaled and shifted in place."""
        raw = rng.standard_normal((size, self.dim))
        raw *= self.noise_scale / max(math.sqrt(self.dim), 1.0)
        if self.noise_scale > 0:
            raw *= _clip_factors(row_norms(raw), self.noise_scale)[:, None]
        raw += self.target
        return raw

    def population_excess(self, x) -> float:
        _check_shape("x", x, (self.dim,))
        d = x - self.target
        return 0.5 * self.curvature * float(d @ d)

    def exact_optimum(self):
        return self.target.copy()


@dataclass
class LogisticTask(LossProblem):
    """Multiclass softmax regression. Parameters are a (num_classes, p)
    weight matrix stored flat; features already include a bias column.

    Per-example gradients are rank one, outer(softmax_err, phi), which the
    clipped-mean hooks exploit: the clip scale only needs ||softmax_err|| *
    ||phi|| per example (the ||phi|| are computed once, at construction),
    and the clipped mean is a weighted matmul. Each hook call reads the
    batch's feature rows once. A consecutive index range (the fixed
    multi-epoch batches) is read in place, as one block. Any other batch is
    gathered in near-equal blocks of at most `_GATHER_BYTES` of rows, and
    each block runs its logits matmul, softmax and clip scale, and adds its
    weighted matmul to the first block's, so a step holds one block of
    rows, never a copy of the whole batch. The clip scale divides by the
    full batch size, and the per-example losses of every block fill one
    array, whose mean is the train loss. `srg_mean` reads the weights of
    its two evaluation points in place, its (2, dim) points array viewed as
    stacked (2K, p) weights, so a single GEMM per block yields both softmax
    errors and the train loss with no copy of either point. The softmax
    errors are combined and clip-scaled in place, on copies of the two
    halves of the logits: numpy's ufunc loop would take a hidden buffer of
    up to 8192 doubles for a strided operand, and a copy takes none. The
    held-out pass reads near-equal blocks of at most `_HELDOUT_ROWS` rows.

    Every other logits product (the single-point hooks and per-example
    methods, the held-out loss and accuracy) is `_logits`: the (K, p)
    weights as the left operand, laid out once as C-ordered (m, K). On
    OpenBLAS that runs about twice as fast as feats @ W.T at K = 10 and
    gives the same bits, at every row count and layout the tests pin. The
    stacked (2K, p) product of `srg_mean` stays feats @ W.T: transposed,
    it changes the last bit of some logits at width 20 for a gain under 4%.

    Features must be finite; labels must be integer-valued and in range;
    neither split may be empty. A batch must be a 1-d integer index array.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    eval_features: np.ndarray | None = None
    eval_labels: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = self._checked_labels(self.features, self.labels, "")
        self.n_features = self.features.shape[1]
        self.dim = self.num_classes * self.n_features
        # per-row feature norms, kept for the clip scale of the gradient hooks
        self.feature_norms = _blocked_row_norms(self.features)
        max_row = self._checked_max_norm(self.features, self.feature_norms, "")
        if (self.eval_features is None) != (self.eval_labels is None):
            raise ValueError("eval_features and eval_labels must be given together")
        if self.eval_features is not None:
            self.eval_features = np.asarray(self.eval_features, dtype=np.float64)
            self.eval_labels = self._checked_labels(self.eval_features,
                                                    self.eval_labels, "eval ")
            if self.eval_features.shape[1] != self.n_features:
                raise ValueError(f"eval features have {self.eval_features.shape[1]} "
                                 f"columns, train features {self.n_features}")
            max_row = max(max_row, self._checked_max_norm(
                self.eval_features, _blocked_row_norms(self.eval_features), "eval "))
        # softmax error vector has norm at most sqrt(2); logit Hessian
        # spectral norm at most 1/2
        self.lipschitz = np.sqrt(2.0) * max_row
        self.smoothness = 0.5 * max_row**2

    def _checked_labels(self, features, labels, split: str) -> np.ndarray:
        labels = np.asarray(labels)
        if (features.ndim != 2 or labels.ndim != 1
                or features.shape[0] != labels.shape[0]):
            raise ValueError(f"{split}features/labels shape mismatch")
        if not labels.size:
            raise ValueError(f"{split or 'training '}split is empty")
        # a NaN fails the floor test; an infinity fails the range test
        if labels.dtype.kind not in "biu" and not (
                labels.dtype.kind == "f" and np.all(np.floor(labels) == labels)):
            raise ValueError(f"{split}labels must be integers")
        if labels.min() < 0 or labels.max() >= self.num_classes:
            raise ValueError(f"{split}labels out of range")
        return labels.astype(np.int64)

    @staticmethod
    def _checked_max_norm(features, norms, split: str) -> float:
        """max(norms), the largest row norm of features. Only when it is
        not finite are the entries tested: a finite row's sum of squares
        may overflow."""
        max_row = float(np.max(norms))
        if not math.isfinite(max_row) and not np.isfinite(features).all():
            raise ValueError(f"{split}features have non-finite entries")
        return max_row

    @property
    def n_train(self) -> int:
        return self.features.shape[0]

    def _weights(self, x) -> np.ndarray:
        return np.asarray(x).reshape(self.num_classes, self.n_features)

    def _heldout(self) -> tuple[np.ndarray, np.ndarray]:
        if self.eval_features is None:
            return self.features, self.labels
        return self.eval_features, self.eval_labels

    @staticmethod
    def _exp_shifted(z, labels) -> tuple[np.ndarray, np.ndarray]:
        """In place on logits z, shape (m, P, K): subtract each row's max
        and exponentiate. Returns the cross-entropy at the labels, shape
        (m, P), and the row totals of exp, shape (m, P, 1)."""
        z -= z.max(axis=2, keepdims=True)
        at_label = z[np.arange(len(labels)), :, labels]
        np.exp(z, out=z)
        total = z.sum(axis=2, keepdims=True)
        return -(at_label - np.log(total[..., 0])), total

    def _logits(self, feats, x) -> np.ndarray:
        """feats @ W.T, shape (m, K), C-ordered, computed as W @ feats.T
        with the class rows on the left (see the class docstring)."""
        return np.ascontiguousarray((self._weights(x) @ feats.T).T)

    def _forward(self, phi, labels, points) -> tuple[np.ndarray, np.ndarray]:
        """softmax(W phi) - onehot(y), shape (m, P, K), and the per-example
        cross-entropy, shape (m, P), at P = 1 point of shape (dim,) or at
        the P rows of a (P, dim) points array, from one logits matmul whose
        stacked (P*K, p) weights are the rows themselves."""
        points = np.asarray(points)
        if points.ndim == 1:
            z = self._logits(phi, points)
        else:
            z = phi @ points.reshape(-1, self.n_features).T
        z = z.reshape(len(labels), z.shape[1] // self.num_classes, self.num_classes)
        loss, total = self._exp_shifted(z, labels)
        z /= total
        z[np.arange(len(labels)), :, labels] -= 1.0
        return z, loss

    def _select(self, batch):
        """Index of an index batch into the training arrays: a slice for a
        strictly consecutive run of in-range indices, such as the fixed
        batches of the multi-epoch runs, so that reads are views; the index
        array as intp otherwise, cast once for the three reads that gather
        with it. Signed and unsigned batches of any width are accepted;
        the ends are compared as Python ints, so an unsigned batch never
        wraps. An index below 0, or an unsigned one past intp's range,
        raises IndexError here, where numpy would wrap it to a row from
        the end (the check reads only batches as wide as intp), and one
        at or beyond n_train raises it in the gather. Any non-integer
        batch raises ValueError: a boolean mask's length, which the noise
        scale divides by, is not the number of rows it reads. So does a
        batch that is not 1-d, whose rows the hooks cannot line up with
        their per-example losses."""
        idx = np.asarray(batch)
        if idx.dtype.kind not in "iu":
            raise ValueError(f"batch must be an integer index array, got dtype {idx.dtype}")
        if idx.ndim != 1:
            raise ValueError(f"batch must be a 1-d index array, got shape {idx.shape}")
        if not idx.size:
            return idx
        if idx.dtype.kind == "i" and idx.min() < 0:
            raise IndexError(f"negative example index {int(idx.min())} in batch")
        if (idx.dtype.kind == "u" and idx.dtype.itemsize >= np.dtype(np.intp).itemsize
                and idx.max() > np.iinfo(np.intp).max):
            raise IndexError(f"example index {int(idx.max())} in batch is out of range")
        # a difference of 1 modulo the width at every step, summing to
        # last - first = size - 1, is a difference of exactly 1
        first, last = int(idx[0]), int(idx[-1])
        if (last - first == idx.size - 1 and last < self.n_train
                and np.all(np.diff(idx) == 1)):
            return slice(first, last + 1)
        return idx.astype(np.intp, copy=False)

    # The per-example methods check x as the hooks do: _forward would read
    # a (2, dim) x as a pair of points.
    def per_example_values(self, x, batch) -> np.ndarray:
        _check_shape("x", x, (self.dim,))
        sel = self._select(batch)
        return self._forward(self.features[sel], self.labels[sel], x)[1][:, 0]

    def per_example_grads(self, x, batch) -> np.ndarray:
        _check_shape("x", x, (self.dim,))
        sel = self._select(batch)
        phi = self.features[sel]
        err = self._forward(phi, self.labels[sel], x)[0][:, 0]
        return np.einsum("mk,mp->mkp", err, phi).reshape(phi.shape[0], self.dim)

    def clipped_mean_grad(self, x, batch, c_clip) -> tuple[np.ndarray, float]:
        _check_shape("x", x, (self.dim,))
        return self._blocked_mean(batch, c_clip, lambda z: z[:, 0], x)

    def srg_mean(self, points, w_t, w_prev, batch,
                 c_clip=np.inf) -> tuple[np.ndarray, float]:
        _check_shape("points", points, (2, self.dim))

        def recursion(z):
            # w_t * z[:, 0] - w_prev * z[:, 1] on copies of the two halves
            err, err_prev = z[:, 0].copy(), z[:, 1].copy()
            with np.errstate(invalid="ignore"):  # as the generic hook forms it
                err *= w_t
                err_prev *= w_prev
                err -= err_prev
            return err
        return self._blocked_mean(batch, c_clip, recursion, points)

    def _blocked_mean(self, batch, c_clip, err_of, points) -> tuple[np.ndarray, float]:
        """(Batch mean of the rank-one gradients outer(err, phi), each
        clipped to c_clip, batch-mean loss at the first point), where err_of
        maps the softmax errors at the points (see `_forward`), shape
        (m, P, K), to a fresh or scratch err that the clip scales in place.
        A gathered batch runs in blocks (see the class docstring); the first
        block's matmul is the accumulator."""
        sel = self._select(batch)
        if isinstance(sel, slice):  # a view costs no copy: one block
            grad, loss = self._block_sum(sel, sel.stop - sel.start, c_clip, err_of, points)
            return grad.reshape(self.dim), float(loss.mean())
        m = len(sel)
        losses = np.empty(m)
        blocks = _near_equal_blocks(m, max(1, _GATHER_BYTES // (8 * self.n_features)))
        for i, (lo, hi) in enumerate(blocks):
            part, losses[lo:hi] = self._block_sum(sel[lo:hi], m, c_clip, err_of, points)
            if i == 0:
                grad = part
            else:
                grad += part
            del part  # freed before the next block is gathered
        return grad.reshape(self.dim), float(losses.mean())

    def _block_sum(self, rows, m, c_clip, err_of, points) -> tuple[np.ndarray, np.ndarray]:
        """(Sum over the rows of outer(err, phi), each clipped to c_clip and
        divided by m, as one (K, p) matmul; the rows' losses at the first
        point)."""
        phi = self.features[rows]
        z, loss = self._forward(phi, self.labels[rows], points)
        err = err_of(z)
        del z  # freed before the backward matmul, which holds phi and its output
        err *= (self._clip_scale(err, self.feature_norms[rows], c_clip) / m)[:, None]
        return err.T @ phi, loss[:, 0]

    @staticmethod
    def _clip_scale(err, phi_norms, c_clip) -> np.ndarray:
        check_clip(c_clip)
        if not np.isfinite(c_clip):
            return np.ones(err.shape[0])
        return _clip_factors(row_norms(err) * phi_norms, c_clip)

    def population_excess(self, x) -> float:
        """Held-out average loss (falls back to the training split)."""
        return self.excess_and_accuracy(x)[0]

    def excess_and_accuracy(self, x) -> tuple[float, float]:
        """(Held-out average loss, held-out accuracy in percent) from one
        `heldout_pass`; both fall back to the training split."""
        loss, hits = self.heldout_pass(x)
        return loss, _hit_percent(hits)

    def heldout_pass(self, x) -> tuple[float, np.ndarray]:
        """(Mean cross-entropy, per-row hit mask: whether the row's largest
        logit is at its label) over the held-out rows, or the training rows
        without a held-out split, one logits matmul per near-equal block of
        at most `_HELDOUT_ROWS` of them. The per-example losses fill one
        array, so the mean has the bits of a single pass."""
        feats, labels = self._heldout()
        losses = np.empty(len(labels))
        hits = np.empty(len(labels), dtype=bool)
        for lo, hi in _near_equal_blocks(len(labels), _HELDOUT_ROWS):
            z = self._logits(feats[lo:hi], x)
            np.equal(z.argmax(axis=1), labels[lo:hi], out=hits[lo:hi])
            # after the argmax: this shifts and exponentiates z
            losses[lo:hi] = self._exp_shifted(z[:, None, :], labels[lo:hi])[0][:, 0]
            del z  # freed before the next block's logits
        return float(losses.mean()), hits


def _hit_percent(hits: np.ndarray) -> float:
    """Accuracy in percent of a hit mask: 100 * (hits / rows)."""
    return 100.0 * (np.count_nonzero(hits) / len(hits))
