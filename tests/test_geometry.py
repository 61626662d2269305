"""Projection, clipping, and interpolation properties."""

import numpy as np
import pytest

from dpsrgd.geometry import (
    ConstraintBall,
    _shrink_overflowed,
    clip_rows,
    interpolate,
    project_ball,
)


def test_ball_validation():
    with pytest.raises(ValueError):
        ConstraintBall(0, 1.0)
    with pytest.raises(ValueError):
        ConstraintBall(3, 0.0)
    with pytest.raises(ValueError):
        ConstraintBall(3, float("inf"))
    ball = ConstraintBall(3, 2.5)
    assert ball.diameter == 5.0


def test_project_inside_is_identity():
    ball = ConstraintBall(4, 1.0)
    v = np.array([0.1, -0.2, 0.3, 0.05])
    out = project_ball(v, ball)
    np.testing.assert_array_equal(out, v)
    assert out is not v  # defensive copy


def test_project_outside_lands_on_boundary():
    ball = ConstraintBall(3, 2.0)
    v = np.array([3.0, 4.0, 0.0])
    out = project_ball(v, ball)
    assert np.linalg.norm(out) == pytest.approx(2.0, rel=1e-12)
    # direction preserved
    np.testing.assert_allclose(out / np.linalg.norm(out),
                               v / np.linalg.norm(v), rtol=1e-12)


def test_projection_is_idempotent_and_nearest():
    rng = np.random.default_rng(0)
    ball = ConstraintBall(6, 1.3)
    for _ in range(50):
        v = rng.standard_normal(6) * 3.0
        p = project_ball(v, ball)
        np.testing.assert_allclose(project_ball(p, ball), p, rtol=0, atol=1e-15)
        assert ball.contains(p)
        # no feasible point is closer to v than the projection
        for _ in range(20):
            q = rng.standard_normal(6)
            q = q / np.linalg.norm(q) * rng.uniform(0, ball.radius)
            assert np.linalg.norm(v - p) <= np.linalg.norm(v - q) + 1e-12


def test_project_rejects_bad_input():
    ball = ConstraintBall(3, 1.0)
    with pytest.raises(ValueError):
        project_ball(np.zeros((2, 3)), ball)
    with pytest.raises(ValueError):
        project_ball(np.array([1.0, np.nan, 0.0]), ball)
    with pytest.raises(ValueError):
        project_ball(np.zeros(4), ball)


@pytest.mark.parametrize("bad", [-1.0, -np.inf, np.nan])
def test_clip_rows_rejects_negative_or_nan_threshold(bad):
    # a negative threshold would scale every row by a negative factor,
    # flipping each gradient; NaN would silently leave rows unclipped
    with pytest.raises(ValueError, match="nonnegative"):
        clip_rows(np.array([[3.0, 4.0], [0.0, 1.0]]), bad)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_project_and_clip_survive_norm_overflow():
    # the sum of squares overflows; the answer must not collapse to zero
    v = np.array([3e200, 4e200])
    np.testing.assert_allclose(project_ball(v, ConstraintBall(2, 1.0)),
                               [0.6, 0.8], rtol=1e-15)
    # a huge vector inside a huge ball, or under an infinite clip, is kept
    np.testing.assert_array_equal(project_ball(v, ConstraintBall(2, 1e201)), v)
    # row-wise: the overflowing row is clipped, the ordinary row beside it too
    mat = np.array([v, [3.0, 4.0]])
    np.testing.assert_allclose(clip_rows(mat, 1.0), [[0.6, 0.8], [0.6, 0.8]],
                               rtol=1e-15)
    np.testing.assert_array_equal(clip_rows(mat, 1e201), mat)


@pytest.mark.parametrize("c_clip", [10.0, np.inf])
def test_clip_rows_with_no_row_over_returns_a_fresh_equal_array(c_clip):
    mat = np.random.default_rng(2).standard_normal((6, 4))
    out = clip_rows(mat, c_clip)
    assert out is not mat and not np.shares_memory(out, mat)
    np.testing.assert_array_equal(out, mat)


@pytest.mark.parametrize("c_clip", [0.0, 1.0, np.inf])
def test_clip_rows_of_no_rows_is_an_empty_float64_copy(c_clip):
    # the largest of no norms is taken as 0, not a reduction error
    mat = np.ones((0, 3), dtype=np.int64)
    out = clip_rows(mat, c_clip)
    assert out.shape == (0, 3) and out.dtype == np.float64 and out is not mat


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_clip_rows_shrinks_an_overflowed_row_beside_a_nan_row():
    # the NaN row makes the largest norm NaN, not inf; the overflowed row
    # must still be found and clipped along its direction
    mat = np.array([[3e200, 4e200], [np.nan, 0.0], [3.0, 4.0]])
    out = clip_rows(mat, 1.0)
    np.testing.assert_allclose(out[[0, 2]], [[0.6, 0.8], [0.6, 0.8]], rtol=1e-15)
    assert np.isnan(out[1, 0]) and out[1, 1] == 0.0


@pytest.mark.filterwarnings("error")
def test_clip_rows_leaves_an_infinite_row_as_it_is():
    # the infinite row is not shrunk to NaN, so the step path's finite
    # check still sees it; the finite row beside it is clipped
    out = clip_rows(np.array([[np.inf, 1.0], [3.0, 4.0], [-np.inf, np.inf]]), 1.0)
    np.testing.assert_array_equal(out[[0, 2]], [[np.inf, 1.0], [-np.inf, np.inf]])
    np.testing.assert_allclose(out[1], [0.6, 0.8], rtol=1e-15)


def _clip_rows_reference(mat, c_clip):
    """clip_rows as a boolean-mask gather and scatter on a copy, with the
    overflowed rows shrunk by `_shrink_overflowed`, written out."""
    out = np.array(mat, dtype=np.float64)
    if np.isinf(c_clip):
        return out
    norms = np.linalg.norm(mat, axis=1)
    over = norms > c_clip
    out[over] *= (c_clip / norms[over])[:, None]
    for r in np.flatnonzero(np.isinf(norms)):
        out[r] = _shrink_overflowed(mat[r], c_clip)
    return out


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("c_clip", [0.0, 0.7, 1.0, 3.0, 1e300, np.inf])
def test_clip_rows_equals_the_boolean_mask_reference(c_clip):
    # ordinary rows on both sides of the clip, rows of norm exactly 1, zero
    # rows of either sign, a NaN row and an overflowed row
    mat = np.concatenate([
        np.random.default_rng(8).standard_normal((12, 4)),
        [[0.6, 0.8, 0.0, 0.0], [0.0, -0.0, 0.0, 0.0], [-0.0, -0.0, -0.0, -0.0],
         [np.nan, 1.0, -2.0, 0.0], [3e200, -4e200, 1.0, 0.0]]])
    before = mat.copy()
    got = clip_rows(mat, c_clip)
    want = _clip_rows_reference(mat, c_clip)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    np.testing.assert_array_equal(mat, before)


def test_clip_rows_matches_per_row_clip():
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((8, 5)) * 2.0
    out = clip_rows(mat, 1.5)
    for row, ref in zip(out, mat):
        np.testing.assert_allclose(row, ref * min(1.0, 1.5 / np.linalg.norm(ref)),
                                   rtol=1e-15)
    np.testing.assert_array_equal(clip_rows(mat, np.inf), mat)


def test_interpolate():
    y = np.array([1.0, 0.0])
    z = np.array([0.0, 2.0])
    np.testing.assert_array_equal(interpolate(y, z, 0.0), y)
    np.testing.assert_array_equal(interpolate(y, z, 1.0), z)
    np.testing.assert_allclose(interpolate(y, z, 0.25),
                               np.array([0.75, 0.5]), rtol=1e-15)
    with pytest.raises(ValueError):
        interpolate(y, z, 1.5)
    with pytest.raises(ValueError):
        interpolate(y, np.zeros(3), 0.5)
