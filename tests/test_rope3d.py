import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hcustom import autograd as ag
from hcustom.rope3d import (RopeConfig, apply_rotation, half_swap, identity_positions,
                            rotate, rotation_tables, video_positions)

CFG = RopeConfig(head_dim=32)
rng = np.random.default_rng(7)


def test_zero_position_is_identity():
    v = rng.normal(size=32)
    np.testing.assert_array_equal(rotate(v, (0, 0, 0), CFG), v)


def test_norm_preserved():
    for _ in range(50):
        v = rng.normal(size=32)
        p = rng.integers(-40, 40, size=3)
        assert abs(np.linalg.norm(rotate(v, p, CFG)) - np.linalg.norm(v)) < 1e-6


def test_relative_shift_property():
    for _ in range(200):
        q = rng.normal(size=32)
        k = rng.normal(size=32)
        p1 = rng.integers(-30, 30, size=3)
        p2 = rng.integers(-30, 30, size=3)
        d = rng.integers(-10, 10, size=3)
        a = rotate(q, p1, CFG) @ rotate(k, p2, CFG)
        b = rotate(q, p1 + d, CFG) @ rotate(k, p2 + d, CFG)
        assert abs(a - b) < 1e-5


def test_inverse_under_negated_position():
    v = rng.normal(size=32)
    p = np.array([5, -3, 11])
    back = rotate(rotate(v, p, CFG), -p, CFG)
    np.testing.assert_allclose(back, v, atol=1e-6)


@given(st.integers(-64, 64), st.integers(-64, 64), st.integers(-64, 64))
@settings(max_examples=60, deadline=None)
def test_isometry_hypothesis(t, x, y):
    v = rng.normal(size=32)
    assert abs(np.linalg.norm(rotate(v, (t, x, y), CFG)) - np.linalg.norm(v)) < 1e-6


def test_identity_position_examples():
    grid = identity_positions(1, 8, 8)
    assert tuple(grid[0]) == (-1, 8, 8)
    grid3 = identity_positions(3, 8, 8)
    assert tuple(grid3[-1]) == (-3, 15, 15)
    assert identity_positions(1, 1, 1).tolist() == [[-1, 1, 1]]


def test_identity_positions_reject_nonpositive_subject():
    with pytest.raises(ValueError):
        identity_positions(0, 4, 4)


def test_video_position_examples():
    assert video_positions(1, 1, 1).tolist() == [[0, 0, 0]]
    grid = video_positions(2, 2, 2)
    assert len(grid) == 8
    assert tuple(grid[-1]) == (1, 1, 1)
    assert tuple(grid[4]) == (1, 0, 0)  # 5th token starts frame 1


def test_disjointness_exhaustive():
    w = h = 4
    video = {tuple(p) for p in video_positions(64, w, h)}
    for k in range(1, 9):
        ident = {tuple(p) for p in identity_positions(k, w, h)}
        assert not ident & video
        for k2 in range(1, 9):
            if k2 != k:
                assert not ident & {tuple(p) for p in identity_positions(k2, w, h)}


def test_rejects_wrong_vector_length():
    with pytest.raises(ValueError):
        rotate(np.zeros(16), (0, 0, 0), CFG)


def test_axis_dims_validation():
    with pytest.raises(ValueError):
        RopeConfig(head_dim=32, axis_dims=(15, 9, 8)).resolved_axis_dims()
    with pytest.raises(ValueError):
        RopeConfig(head_dim=30).resolved_axis_dims()  # 15+7+7 unbalanced/odd


def test_apply_rotation_matches_single_vector_rotate():
    positions = np.concatenate([identity_positions(1, 2, 2), video_positions(2, 2, 2)])
    cos, sin = rotation_tables(positions, CFG)
    x = rng.normal(size=(len(positions), 3, 32))  # 3 heads
    out = apply_rotation(ag.Tensor(x), cos, sin, CFG).data
    for i, p in enumerate(positions):
        for head in range(3):
            np.testing.assert_allclose(out[i, head], rotate(x[i, head], p, CFG),
                                       atol=1e-12)


def test_apply_rotation_gradients():
    positions = video_positions(2, 2, 1)
    cos, sin = rotation_tables(positions, CFG)
    x = ag.Tensor(rng.normal(size=(4, 2, 32)), requires_grad=True)
    loss = ag.sum_(ag.mul(apply_rotation(x, cos, sin, CFG), 1.0))
    loss.backward()
    # rotation is linear: gradient equals rotation applied to ones with angles negated
    assert x.grad.shape == x.data.shape
    assert np.isfinite(x.grad).all()


def test_apply_rotation_vjp_is_rotation_by_negated_position():
    positions = np.concatenate([identity_positions(1, 2, 2), video_positions(2, 2, 2)])
    cos, sin = rotation_tables(positions, CFG)
    x = ag.Tensor(rng.normal(size=(len(positions), 3, 32)), requires_grad=True)
    out = apply_rotation(x, cos, sin, CFG)
    g = rng.normal(size=out.shape)
    (gx,) = out._vjp(g)
    for i, p in enumerate(positions):
        for head in range(3):
            np.testing.assert_allclose(gx[i, head], rotate(g[i, head], -p, CFG),
                                       rtol=0, atol=1e-12)


def test_rotation_tables_are_full_width():
    positions = video_positions(2, 3, 2)
    cos, sin = rotation_tables(positions, CFG, dtype=np.float32)
    assert cos.shape == sin.shape == (len(positions), CFG.head_dim)
    assert cos.dtype == sin.dtype == np.float32
    # each pair's two channels share a cos and carry opposite sines
    np.testing.assert_array_equal(cos, cos[:, half_swap(CFG)])
    np.testing.assert_array_equal(sin, -sin[:, half_swap(CFG)])
