"""Loss problems: per-example values/gradients plus declared regularity constants.

Two concrete tasks are provided. SyntheticQuadratic has a known population
minimizer, so excess risk and population gradients are exact; it backs the
convergence and sensitivity checks. LogisticTask is multiclass softmax
regression over fixed feature/label arrays with a held-out split.

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

from dataclasses import dataclass, field

import numpy as np

from .geometry import clip_rows

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
    """

    dim: int
    lipschitz: float
    smoothness: float

    def per_example_values(self, x: np.ndarray, batch) -> np.ndarray:
        raise NotImplementedError

    def per_example_grads(self, x: np.ndarray, batch) -> np.ndarray:
        """Gradient of every example in the batch at x, shape (m, dim)."""
        raise NotImplementedError

    def batch_size(self, batch) -> int:
        return len(batch)

    def draw_batch(self, rng: np.random.Generator, size: int):
        raise NotImplementedError

    def population_excess(self, x: np.ndarray) -> float:
        """Excess population risk when the optimum is known, otherwise the
        held-out average loss."""
        raise NotImplementedError

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
        loss = float(self.per_example_values(x, batch).mean())
        return clip_rows(grads, c_clip).mean(axis=0), loss

    def srg_mean(self, x_t, x_prev, w_t: float, w_prev: float, batch,
                 c_clip: float = np.inf) -> tuple[np.ndarray, float]:
        """(Mean over the batch of clip(w_t*g(x_t,d) - w_prev*g(x_prev,d)),
        batch-mean loss at x_t).

        Both evaluation points are always visited, so every example in the
        batch costs exactly two gradient evaluations regardless of w_prev.
        """
        g_t = self.per_example_grads(x_t, batch)
        g_p = self.per_example_grads(x_prev, batch)
        loss = float(self.per_example_values(x_t, batch).mean())
        diffs = w_t * g_t - w_prev * g_p
        return clip_rows(diffs, c_clip).mean(axis=0), loss


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
        self.smoothness = self.curvature
        self.lipschitz = self.curvature * (
            self.radius + float(np.linalg.norm(self.target)) + self.noise_scale
        )

    def per_example_values(self, x, batch) -> np.ndarray:
        diffs = x[None, :] - np.asarray(batch)
        return 0.5 * self.curvature * np.sum(diffs * diffs, axis=1)

    def per_example_grads(self, x, batch) -> np.ndarray:
        return self.curvature * (x[None, :] - np.asarray(batch))

    def draw_batch(self, rng, size):
        raw = rng.standard_normal((size, self.dim)) * (
            self.noise_scale / max(np.sqrt(self.dim), 1.0)
        )
        norms = np.linalg.norm(raw, axis=1)
        over = norms > self.noise_scale
        if np.any(over):
            raw[over] *= (self.noise_scale / norms[over])[:, None]
        return self.target[None, :] + raw

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
    and the clipped mean is a single weighted matmul. Each hook call gathers
    the batch's feature rows once and runs one logits matmul per evaluation
    point, which yields both the softmax error and the train loss.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    eval_features: np.ndarray | None = None
    eval_labels: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features/labels shape mismatch")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError("labels out of range")
        self.n_features = self.features.shape[1]
        self.dim = self.num_classes * self.n_features
        # per-row feature norms, kept for the clip scale of the gradient hooks
        self.feature_norms = np.linalg.norm(self.features, axis=1)
        max_row = float(np.max(self.feature_norms))
        if self.eval_features is not None:
            self.eval_features = np.asarray(self.eval_features, dtype=np.float64)
            self.eval_labels = np.asarray(self.eval_labels, dtype=np.int64)
            max_row = max(max_row, float(np.max(np.linalg.norm(self.eval_features, axis=1))))
        # softmax error vector has norm at most sqrt(2); logit Hessian
        # spectral norm at most 1/2
        self.lipschitz = np.sqrt(2.0) * max_row
        self.smoothness = 0.5 * max_row**2

    @property
    def n_train(self) -> int:
        return self.features.shape[0]

    def _weights(self, x) -> np.ndarray:
        return np.asarray(x).reshape(self.num_classes, self.n_features)

    def _forward(self, x, phi, labels) -> tuple[np.ndarray, np.ndarray]:
        """softmax(W phi) - onehot(y), shape (m, K), and the per-example
        cross-entropy, shape (m,), from one logits matmul."""
        logits = phi @ self._weights(x).T
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        total = e.sum(axis=1, keepdims=True)
        rows = np.arange(len(labels))
        loss = -(shifted - np.log(total))[rows, labels]
        err = e / total
        err[rows, labels] -= 1.0
        return err, loss

    def per_example_values(self, x, batch) -> np.ndarray:
        idx = np.asarray(batch)
        return self._forward(x, self.features[idx], self.labels[idx])[1]

    def per_example_grads(self, x, batch) -> np.ndarray:
        idx = np.asarray(batch)
        phi = self.features[idx]
        err = self._forward(x, phi, self.labels[idx])[0]
        return np.einsum("mk,mp->mkp", err, phi).reshape(len(idx), self.dim)

    def clipped_mean_grad(self, x, batch, c_clip) -> tuple[np.ndarray, float]:
        idx = np.asarray(batch)
        phi = self.features[idx]
        err, loss = self._forward(x, phi, self.labels[idx])
        scale = self._clip_scale(err, self.feature_norms[idx], c_clip) / len(idx)
        return ((err * scale[:, None]).T @ phi).reshape(self.dim), float(loss.mean())

    def srg_mean(self, x_t, x_prev, w_t, w_prev, batch,
                 c_clip=np.inf) -> tuple[np.ndarray, float]:
        idx = np.asarray(batch)
        phi = self.features[idx]
        labels = self.labels[idx]
        err_t, loss = self._forward(x_t, phi, labels)
        err = w_t * err_t - w_prev * self._forward(x_prev, phi, labels)[0]
        scale = self._clip_scale(err, self.feature_norms[idx], c_clip) / len(idx)
        return ((err * scale[:, None]).T @ phi).reshape(self.dim), float(loss.mean())

    @staticmethod
    def _clip_scale(err, phi_norms, c_clip) -> np.ndarray:
        if not np.isfinite(c_clip):
            return np.ones(err.shape[0])
        norms = np.linalg.norm(err, axis=1) * phi_norms
        scale = np.ones_like(norms)
        over = norms > c_clip
        scale[over] = c_clip / norms[over]
        return scale

    def draw_batch(self, rng, size):
        return rng.integers(0, self.n_train, size=size)

    def population_excess(self, x) -> float:
        """Held-out average loss (falls back to the training split)."""
        feats, labels = self.eval_features, self.eval_labels
        if feats is None:
            feats, labels = self.features, self.labels
        return float(self._forward(x, feats, labels)[1].mean())

    def accuracy(self, x, half: str | None = None) -> float:
        """Held-out classification accuracy in percent. half="even"/"odd"
        restricts to alternating indices of the held-out set, giving two
        disjoint subsets for selection versus reporting."""
        feats, labels = self.eval_features, self.eval_labels
        if feats is None:
            feats, labels = self.features, self.labels
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
