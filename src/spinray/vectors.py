"""Small 3-vector helpers shared across the package."""

from __future__ import annotations

import numpy as np


def vec3(value) -> np.ndarray:
    """Coerce to a finite float (3,) array."""
    v = np.asarray(value, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("3-vector has non-finite entries")
    return v


def unit(value, eps: float = 1e-9) -> np.ndarray:
    v = vec3(value)
    norm = float(np.linalg.norm(v))
    if norm < eps:
        raise ValueError(f"cannot normalize a vector of norm {norm:.3e}")
    return v / norm


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product a x b of two float 3-vector arrays.

    Same entries as np.cross, bit for bit, at a fraction of its call
    overhead on length-3 arrays.
    """
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def cross_matrix(v) -> np.ndarray:
    """Matrix J with J a = v x a."""
    x, y, z = vec3(v)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def orthonormal_complement(u) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors (e1, e2) with (e1, e2, u) a right-handed orthonormal frame.

    Deterministic: seeds the construction from the coordinate axis least
    aligned with u.
    """
    u = unit(u)
    seed = np.eye(3)[int(np.argmin(np.abs(u)))]
    e1 = unit(cross(seed, u))
    e2 = cross(u, e1)
    return e1, e2


def rotation_about(axis, angle: float) -> np.ndarray:
    """Rotation matrix about a unit axis by an angle in radians (Rodrigues)."""
    n = unit(axis)
    k = cross_matrix(n)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
