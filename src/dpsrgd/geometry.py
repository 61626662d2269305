"""Euclidean ball geometry: projections, norm clipping, iterate interpolation.

Parameter vectors are plain float64 numpy arrays. All optimizers in this
package constrain iterates to a centered L2 ball; its diameter is the
quantity that enters sensitivity and step-size formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ConstraintBall", "project_ball", "clip", "check_clip", "clip_rows",
           "row_norms", "all_finite", "interpolate"]


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


def all_finite(v: np.ndarray) -> bool:
    """True when every entry of v is finite. A finite sum of squares proves
    it in one BLAS dot; a NaN, infinite or overflowed one falls back to the
    entry-wise test."""
    return math.isfinite(np.vdot(v, v)) or bool(np.isfinite(v).all())


def _as_vector(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {v.shape}")
    if not all_finite(v):
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
    norm = math.sqrt(v.dot(v))  # np.linalg.norm's own formula for a 1-d vector
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


def row_norms(mat: np.ndarray) -> np.ndarray:
    """L2 norm of every row of a 2-d array: np.linalg.norm(mat, axis=1)'s
    own formula, without its wrapper."""
    return np.sqrt(np.add.reduce(mat * mat, axis=1))


def clip_rows(mat: np.ndarray, c_clip: float) -> np.ndarray:
    """Row-wise norm clipping for a (k, dim) batch of vectors. A finite row
    whose sum of squares overflows is clipped like `clip` does, not zeroed;
    a row with a NaN or infinite entry is left as it is.

    Always returns a fresh array: a float64 copy of mat, clipped in place
    by `_clip_rows_in_place`.
    """
    return _clip_rows_in_place(np.array(mat, dtype=np.float64), c_clip)


def _clip_rows_in_place(mat: np.ndarray, c_clip: float) -> np.ndarray:
    """`clip_rows` on a float64 (k, dim) array that the caller owns,
    overwriting it and returning it. Nothing changes when no row is over
    c_clip (c_clip = inf included); otherwise every row is multiplied by
    its `_clip_factors` entry."""
    check_clip(c_clip)
    if not np.isfinite(c_clip):
        return mat
    norms = row_norms(mat)
    peak = norms.max()
    if peak <= c_clip:
        return mat
    scale = _clip_factors(norms, c_clip)
    if not math.isfinite(peak):  # a NaN row, or an infinite sum of squares
        for r in np.flatnonzero(np.isinf(norms)):
            if np.isfinite(mat[r]).all():  # else left for the step's finite check
                mat[r] = _shrink_overflowed(mat[r], c_clip)
            scale[r] = 1.0
    mat *= scale[:, None]
    return mat


def _clip_factors(norms: np.ndarray, bound: float) -> np.ndarray:
    """min(1, bound / norm) for each entry of norms, for a finite bound >= 0:
    exactly 1.0 at or below the bound and for a NaN norm, so multiplying by
    it leaves those rows as they were. Taken as bound / max(norm, bound),
    which divides by zero only at a zero bound, where no division is
    needed."""
    if bound == 0:
        return np.where(norms > 0, 0.0, 1.0)
    scale = np.fmax(norms, bound)
    np.divide(bound, scale, out=scale)
    return scale


def interpolate(y: np.ndarray, z: np.ndarray, tau: float) -> np.ndarray:
    """Convex combination (1 - tau) * y + tau * z with tau in [0, 1]."""
    y = _as_vector(y, "y")
    z = _as_vector(z, "z")
    if y.shape != z.shape:
        raise ValueError(f"shape mismatch: {y.shape} vs {z.shape}")
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    return (1.0 - tau) * y + tau * z
