"""Loss problems: per-example values/gradients plus declared regularity constants.

Two concrete tasks are provided. SyntheticQuadratic has a known population
minimizer, so excess risk and population gradients are exact; it backs the
convergence and sensitivity checks. LogisticTask is multiclass softmax
regression over fixed feature/label arrays with a held-out split; it runs
one logits matmul per batch, for both evaluation points of `srg_mean`, and
one over the held-out set for a finished run's loss and accuracy.

A "batch" is whatever the problem's per-example methods accept:
an (m, dim) array of example vectors for the synthetic task, an integer
index array for dataset-backed tasks.

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

__all__ = [
    "LossProblem",
    "SyntheticQuadratic",
    "LogisticTask",
    "GradientNoiseWrapper",
]


class LossProblem:
    """Base class. Subclasses set dim, lipschitz, smoothness and implement
    the per-example methods.

    The gradient hooks `clipped_mean_grad` and `srg_mean` return
    `(mean, train_loss)`, where train_loss is
    `float(per_example_values(x, batch).mean())` at x (x_t for srg_mean),
    computed in the same pass as the gradient. The defaults here build both
    from per_example_grads and per_example_values; a subclass may override
    them with a fused pass that returns the same numbers.

    per_example_grads must return a fresh array that the caller owns: the
    default hooks scale, subtract and clip the arrays it returns in place,
    so that one step allocates no (m, dim) temporaries beyond them.
    """

    dim: int
    lipschitz: float
    smoothness: float

    def per_example_values(self, x: np.ndarray, batch) -> np.ndarray:
        raise NotImplementedError

    def per_example_grads(self, x: np.ndarray, batch) -> np.ndarray:
        """Gradient of every example in the batch at x, shape (m, dim), as a
        fresh float64 array that the default hooks overwrite."""
        raise NotImplementedError

    def batch_size(self, batch) -> int:
        return len(batch)

    def draw_batch(self, rng: np.random.Generator, size: int):
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

    # Diagnostics; None when the quantity is not analytically available.
    def exact_optimum(self):
        return None

    def population_grad(self, x: np.ndarray):
        return None

    # Hooks the optimizers call. Defaults materialize per-example gradients;
    # subclasses may override with cheaper equivalents.
    def clipped_mean_grad(self, x: np.ndarray, batch,
                          c_clip: float) -> tuple[np.ndarray, float]:
        """(Mean over the batch of clip(g(x,d)), batch-mean loss at x)."""
        grads = self.per_example_grads(x, batch)
        loss = float(_batch_mean(self.per_example_values(x, batch)))
        return _batch_mean(_clip_rows_in_place(grads, c_clip)), loss

    def srg_mean(self, x_t, x_prev, w_t: float, w_prev: float, batch,
                 c_clip: float = np.inf) -> tuple[np.ndarray, float]:
        """(Mean over the batch of clip(w_t*g(x_t,d) - w_prev*g(x_prev,d)),
        batch-mean loss at x_t).

        Both evaluation points are always visited, so every example in the
        batch costs exactly two gradient evaluations regardless of w_prev.
        """
        g_t = self.per_example_grads(x_t, batch)
        g_p = self.per_example_grads(x_prev, batch)
        loss = float(_batch_mean(self.per_example_values(x_t, batch)))
        g_t *= w_t  # w_t * g_t - w_prev * g_p, in the two fresh arrays
        g_p *= w_prev
        g_t -= g_p
        return _batch_mean(_clip_rows_in_place(g_t, c_clip)), loss


def _blocked_row_norms(mat: np.ndarray) -> np.ndarray:
    """row_norms(mat), 4096 rows at a time, so that the squares are never
    held for the whole array at once. Each row's figure is the same."""
    out = np.empty(mat.shape[0])
    for start in range(0, mat.shape[0], 4096):
        out[start:start + 4096] = row_norms(mat[start:start + 4096])
    return out


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

    def per_example_values(self, x, batch) -> np.ndarray:
        diffs = x[None, :] - np.asarray(batch)
        diffs *= diffs
        return 0.5 * self.curvature * np.add.reduce(diffs, axis=1)

    def per_example_grads(self, x, batch) -> np.ndarray:
        grads = x[None, :] - np.asarray(batch)
        grads *= self.curvature
        return grads

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
        d = x - self.target
        return 0.5 * self.curvature * float(d @ d)

    def exact_optimum(self):
        return self.target.copy()

    def population_grad(self, x):
        return self.curvature * (x - self.target)


@dataclass
class LogisticTask(LossProblem):
    """Multiclass softmax regression. Parameters are a (num_classes, p)
    weight matrix stored flat; features already include a bias column.

    Per-example gradients are rank one, outer(softmax_err, phi), which the
    clipped-mean hooks exploit: the clip scale only needs ||softmax_err|| *
    ||phi|| per example (the ||phi|| are computed once, at construction),
    and the clipped mean is a single weighted matmul. Each hook call reads
    the batch's feature rows once, in place when the batch is a consecutive
    index range (the fixed multi-epoch batches) and as a gathered copy
    otherwise, and runs one logits matmul per batch: `srg_mean` stacks the
    weights of its two evaluation points, so a single GEMM yields both
    softmax errors and the train loss.
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
        max_row = float(np.max(self.feature_norms))
        if (self.eval_features is None) != (self.eval_labels is None):
            raise ValueError("eval_features and eval_labels must be given together")
        if self.eval_features is not None:
            self.eval_features = np.asarray(self.eval_features, dtype=np.float64)
            self.eval_labels = self._checked_labels(self.eval_features,
                                                    self.eval_labels, "eval ")
            if self.eval_features.shape[1] != self.n_features:
                raise ValueError(f"eval features have {self.eval_features.shape[1]} "
                                 f"columns, train features {self.n_features}")
            max_row = max(max_row, float(np.max(_blocked_row_norms(self.eval_features))))
        # softmax error vector has norm at most sqrt(2); logit Hessian
        # spectral norm at most 1/2
        self.lipschitz = np.sqrt(2.0) * max_row
        self.smoothness = 0.5 * max_row**2

    def _checked_labels(self, features, labels, split: str) -> np.ndarray:
        labels = np.asarray(labels, dtype=np.int64)
        if (features.ndim != 2 or labels.ndim != 1
                or features.shape[0] != labels.shape[0]):
            raise ValueError(f"{split}features/labels shape mismatch")
        if labels.min() < 0 or labels.max() >= self.num_classes:
            raise ValueError(f"{split}labels out of range")
        return labels

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

    def _forward(self, phi, labels, *xs) -> tuple[np.ndarray, np.ndarray]:
        """softmax(W phi) - onehot(y), shape (m, P, K), and the per-example
        cross-entropy, shape (m, P), at each of the P points xs, from one
        logits matmul against their stacked (P*K, p) weights."""
        w = np.concatenate([self._weights(x) for x in xs])
        z = (phi @ w.T).reshape(len(labels), len(xs), self.num_classes)
        del w
        loss, total = self._exp_shifted(z, labels)
        z /= total
        z[np.arange(len(labels)), :, labels] -= 1.0
        return z, loss

    def _select(self, batch):
        """Index of an index batch into the training arrays: a slice for a
        strictly consecutive run of in-range indices, such as the fixed
        batches of the multi-epoch runs, so that reads are views; the index
        array otherwise, whose reads gather. An index below 0 raises
        IndexError here, where numpy would wrap it to a row from the end,
        and one at or beyond n_train raises it in the gather."""
        idx = np.asarray(batch)
        if idx.dtype.kind != "i" or not idx.size:
            return idx
        if idx.min() < 0:
            raise IndexError(f"negative example index {int(idx.min())} in batch")
        if (idx.ndim == 1 and idx[-1] - idx[0] == idx.size - 1
                and idx[-1] < self.n_train and np.all(np.diff(idx) == 1)):
            return slice(int(idx[0]), int(idx[-1]) + 1)
        return idx

    def per_example_values(self, x, batch) -> np.ndarray:
        sel = self._select(batch)
        return self._forward(self.features[sel], self.labels[sel], x)[1][:, 0]

    def per_example_grads(self, x, batch) -> np.ndarray:
        sel = self._select(batch)
        phi = self.features[sel]
        err = self._forward(phi, self.labels[sel], x)[0][:, 0]
        return np.einsum("mk,mp->mkp", err, phi).reshape(phi.shape[0], self.dim)

    def clipped_mean_grad(self, x, batch, c_clip) -> tuple[np.ndarray, float]:
        sel = self._select(batch)
        phi = self.features[sel]
        z, loss = self._forward(phi, self.labels[sel], x)
        return self._clipped_mean(z[:, 0], phi, sel, c_clip), float(loss[:, 0].mean())

    def srg_mean(self, x_t, x_prev, w_t, w_prev, batch,
                 c_clip=np.inf) -> tuple[np.ndarray, float]:
        sel = self._select(batch)
        phi = self.features[sel]
        z, loss = self._forward(phi, self.labels[sel], x_t, x_prev)
        err = w_t * z[:, 0] - w_prev * z[:, 1]
        del z  # freed before the backward matmul, which holds phi and its output
        return self._clipped_mean(err, phi, sel, c_clip), float(loss[:, 0].mean())

    def _clipped_mean(self, err, phi, sel, c_clip) -> np.ndarray:
        """Batch mean of the rank-one gradients outer(err, phi), each
        clipped to c_clip, as one weighted matmul."""
        scale = self._clip_scale(err, self.feature_norms[sel], c_clip) / phi.shape[0]
        return ((err * scale[:, None]).T @ phi).reshape(self.dim)

    @staticmethod
    def _clip_scale(err, phi_norms, c_clip) -> np.ndarray:
        check_clip(c_clip)
        if not np.isfinite(c_clip):
            return np.ones(err.shape[0])
        return _clip_factors(row_norms(err) * phi_norms, c_clip)

    def draw_batch(self, rng, size):
        return rng.integers(0, self.n_train, size=size)

    def population_excess(self, x) -> float:
        """Held-out average loss (falls back to the training split)."""
        return self.excess_and_accuracy(x)[0]

    def excess_and_accuracy(self, x) -> tuple[float, float]:
        """(Held-out average loss, held-out accuracy in percent) from one
        logits matmul; both fall back to the training split."""
        feats, labels = self._heldout()
        z = feats @ self._weights(x).T
        pred = z.argmax(axis=1)
        loss = self._exp_shifted(z[:, None, :], labels)[0][:, 0]
        return float(loss.mean()), 100.0 * float((pred == labels).mean())

    def accuracy(self, x, half: str | None = None) -> float:
        """Held-out classification accuracy in percent. half="even"/"odd"
        restricts to alternating indices of the held-out set, giving two
        disjoint subsets for selection versus reporting."""
        feats, labels = self._heldout()
        if half == "even":
            feats, labels = feats[0::2], labels[0::2]
        elif half == "odd":
            feats, labels = feats[1::2], labels[1::2]
        elif half is not None:
            raise ValueError(f"half must be 'even', 'odd', or None, got {half!r}")
        pred = (feats @ self._weights(x).T).argmax(axis=1)
        return 100.0 * float((pred == labels).mean())


class GradientNoiseWrapper(LossProblem):
    """Adds a fresh i.i.d. Gaussian perturbation to every per-example
    gradient evaluation. Two evaluations of the same example at the same
    point disagree, which is exactly what the recursive-gradient variance
    probes need."""

    def __init__(self, base: LossProblem, noise_std: float, seed: int):
        self.base = base
        self.noise_std = float(noise_std)
        self.rng = np.random.default_rng(seed)
        self.dim = base.dim
        self.lipschitz = base.lipschitz
        self.smoothness = base.smoothness

    def per_example_values(self, x, batch):
        return self.base.per_example_values(x, batch)

    def per_example_grads(self, x, batch):
        clean = self.base.per_example_grads(x, batch)
        return clean + self.noise_std * self.rng.standard_normal(clean.shape)

    def batch_size(self, batch):
        return self.base.batch_size(batch)

    def draw_batch(self, rng, size):
        return self.base.draw_batch(rng, size)

    def population_excess(self, x):
        return self.base.population_excess(x)

    def exact_optimum(self):
        return self.base.exact_optimum()

    def population_grad(self, x):
        return self.base.population_grad(x)
