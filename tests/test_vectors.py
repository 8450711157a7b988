from fractions import Fraction

import numpy as np
import pytest

from spinray.vectors import (
    _fma_dot,
    cross,
    cross_matrix,
    orthonormal_complement,
    rotation_about,
    unit,
    vec3,
)

from conftest import random_unit


def test_vec3_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        vec3([1.0, 2.0])
    with pytest.raises(ValueError):
        vec3([[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        vec3([1.0, np.nan, 3.0])
    with pytest.raises(ValueError):
        vec3([1.0, np.inf, 3.0])


def test_unit_normalizes_and_rejects_near_zero():
    v = unit([3.0, 0.0, 4.0])
    assert np.allclose(v, [0.6, 0.0, 0.8])
    with pytest.raises(ValueError):
        unit([1e-12, 0.0, 0.0])


def test_cross_matrix_matches_cross_product(rng):
    for _ in range(50):
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(cross_matrix(a) @ b, np.cross(a, b), atol=1e-14)


def test_cross_equals_numpy_cross_bit_for_bit(rng):
    for _ in range(200):
        a = rng.normal(size=3) * 10.0 ** rng.uniform(-8, 8)
        b = rng.normal(size=3) * 10.0 ** rng.uniform(-8, 8)
        assert cross(a, b).tobytes() == np.cross(a, b).tobytes()
    e = np.eye(3)
    assert cross(-e[0], e[0]).tobytes() == np.cross(-e[0], e[0]).tobytes()  # signed zeros


def test_fma_dot_rounds_each_fused_step_once(rng):
    # reference: fma(a2, b2, fma(a1, b1, a0 b0)) with each fused step done
    # in exact rational arithmetic and rounded once
    def fma(a, b, c):
        return float(Fraction(a) * Fraction(b) + Fraction(c))

    for _ in range(2000):
        a = (rng.normal(size=3) * 10.0 ** rng.uniform(-6, 6, size=3)).tolist()
        b = (rng.normal(size=3) * 10.0 ** rng.uniform(-6, 6, size=3)).tolist()
        want = fma(a[2], b[2], fma(a[1], b[1], a[0] * b[0]))
        assert _fma_dot(*a, *b) == want
    # the unfused sum rounds 0.1 * 0.1 before adding -0.01
    assert _fma_dot(1.0, 0.1, 0.0, -0.01, 0.1, 0.0) == fma(0.1, 0.1, -0.01)
    assert fma(0.1, 0.1, -0.01) != -0.01 + 0.1 * 0.1


def test_orthonormal_complement_right_handed(rng):
    for _ in range(100):
        u = random_unit(rng)
        e1, e2 = orthonormal_complement(u)
        assert abs(e1 @ e2) < 1e-12
        assert abs(e1 @ u) < 1e-12
        assert abs(e2 @ u) < 1e-12
        assert abs(np.linalg.norm(e1) - 1.0) < 1e-12
        assert abs(np.linalg.norm(e2) - 1.0) < 1e-12
        assert np.allclose(np.cross(e1, e2), u, atol=1e-12)


def test_orthonormal_complement_is_deterministic():
    u = unit([0.3, -0.4, 0.86])
    a1, a2 = orthonormal_complement(u)
    b1, b2 = orthonormal_complement(u)
    assert np.array_equal(a1, b1) and np.array_equal(a2, b2)


def test_rotation_about_is_orthogonal_and_fixes_axis(rng):
    for _ in range(50):
        axis = random_unit(rng)
        angle = rng.uniform(-np.pi, np.pi)
        rot = rotation_about(axis, angle)
        assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
        assert np.isclose(np.linalg.det(rot), 1.0, atol=1e-12)
        assert np.allclose(rot @ axis, axis, atol=1e-12)
        # trace fixes the angle
        assert np.isclose(np.trace(rot), 1.0 + 2.0 * np.cos(angle), atol=1e-12)


def test_rotation_quarter_turn_about_z():
    rot = rotation_about([0, 0, 1], np.pi / 2)
    assert np.allclose(rot @ [1, 0, 0], [0, 1, 0], atol=1e-15)
    assert np.allclose(rot @ [0, 1, 0], [-1, 0, 0], atol=1e-15)
