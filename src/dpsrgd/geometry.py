"""Euclidean ball geometry: projections, norm clipping, iterate interpolation.

Parameter vectors are plain float64 numpy arrays. All optimizers in this
package constrain iterates to a centered L2 ball; its diameter is the
quantity that enters sensitivity and step-size formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ConstraintBall", "project_ball", "clip", "check_clip", "interpolate"]


@dataclass(frozen=True)
class ConstraintBall:
    """Centered L2 ball of radius `radius` in R^dim."""

    dim: int
    radius: float

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if not np.isfinite(self.radius) or self.radius <= 0:
            raise ValueError(f"radius must be positive and finite, got {self.radius}")

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def contains(self, v: np.ndarray, slack: float = 1e-9) -> bool:
        return float(np.linalg.norm(v)) <= self.radius * (1.0 + slack)


def _as_vector(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
    return v


def _shrink_overflowed(v: np.ndarray, bound: float) -> np.ndarray:
    """v * min(1, bound / ||v||) for a finite v whose sum of squares
    overflows. The norm is taken on v / max|v| instead, so the result keeps
    v's direction rather than collapsing to zero."""
    peak = float(np.max(np.abs(v)))
    unit = v / peak
    unit_norm = float(np.linalg.norm(unit))
    if peak * unit_norm <= bound:
        return v.copy()
    return unit * (bound / unit_norm)


def project_ball(v: np.ndarray, ball: ConstraintBall) -> np.ndarray:
    """Euclidean projection of v onto the ball (identity if already inside)."""
    v = _as_vector(v, "v")
    if v.shape[0] != ball.dim:
        raise ValueError(f"dimension mismatch: vector {v.shape[0]}, ball {ball.dim}")
    norm = float(np.linalg.norm(v))
    if norm <= ball.radius:
        return v.copy()
    if math.isinf(norm):
        return _shrink_overflowed(v, ball.radius)
    return v * (ball.radius / norm)


def check_clip(c_clip: float) -> None:
    """Raise ValueError unless c_clip is a threshold in [0, inf]. A negative
    one would flip every clipped vector; NaN would silently skip clipping."""
    if not c_clip >= 0:
        raise ValueError(f"clip threshold must be nonnegative, got {c_clip}")


def clip(v: np.ndarray, c_clip: float) -> np.ndarray:
    """Rescale v to norm at most c_clip: v * min(1, c_clip / ||v||).

    The zero vector is returned unchanged. c_clip = inf disables clipping.
    """
    v = _as_vector(v, "v")
    check_clip(c_clip)
    norm = float(np.linalg.norm(v))
    if norm <= c_clip or norm == 0.0:
        return v.copy()
    if math.isinf(norm):
        return _shrink_overflowed(v, c_clip)
    return v * (c_clip / norm)


def clip_rows(mat: np.ndarray, c_clip: float) -> np.ndarray:
    """Row-wise norm clipping for a (k, dim) batch of vectors. Rows whose
    sum of squares overflows are clipped like `clip` does, not zeroed."""
    mat = np.asarray(mat, dtype=np.float64)
    check_clip(c_clip)
    if not np.isfinite(c_clip):
        return mat.copy()
    norms = np.linalg.norm(mat, axis=1)
    scale = np.ones_like(norms)
    over = norms > c_clip
    scale[over] = c_clip / norms[over]
    out = mat * scale[:, None]
    for r in np.flatnonzero(np.isinf(norms)):  # the sum of squares overflowed
        out[r] = _shrink_overflowed(mat[r], c_clip)
    return out


def interpolate(y: np.ndarray, z: np.ndarray, tau: float) -> np.ndarray:
    """Convex combination (1 - tau) * y + tau * z with tau in [0, 1]."""
    y = _as_vector(y, "y")
    z = _as_vector(z, "z")
    if y.shape != z.shape:
        raise ValueError(f"shape mismatch: {y.shape} vs {z.shape}")
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    return (1.0 - tau) * y + tau * z
