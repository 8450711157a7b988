"""Small 3-vector helpers shared across the package."""

from __future__ import annotations

import math

import numpy as np


def vec3(value) -> np.ndarray:
    """Coerce to a finite float (3,) array."""
    v = np.asarray(value, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    if not all(map(math.isfinite, v.tolist())):
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
    return np.array(_cross(*a.tolist(), *b.tolist()))


def _cross(a0: float, a1: float, a2: float, b0: float, b1: float, b2: float):
    """Cross product of two float triples, as a tuple."""
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


# Veltkamp's splitter 2**27 + 1: halves of a double whose products are exact.
_SPLIT = 134217729.0


def _fma_dot(a0: float, a1: float, a2: float, b0: float, b1: float, b2: float) -> float:
    """The dot product of two float triples, rounded as numpy rounds it.

    numpy's BLAS forms a length-3 dot on FMA hardware as the fused chain
    fma(a2, b2, fma(a1, b1, a0 * b0)), and a row of a 3x3 matrix-vector
    product as the same chain over the terms in the order 1, 0, 2.  Each
    fused step is done exactly here: Dekker's product splits a b into
    p + e without error and fsum rounds p + e + c once.  So float code
    reproduces the array formulas bit for bit.
    """
    p = a1 * b1
    c = _SPLIT * a1
    ah = c - (c - a1)
    c = _SPLIT * b1
    bh = c - (c - b1)
    al, bl = a1 - ah, b1 - bh
    t = math.fsum((p, ((ah * bh - p) + ah * bl + al * bh) + al * bl, a0 * b0))
    p = a2 * b2
    c = _SPLIT * a2
    ah = c - (c - a2)
    c = _SPLIT * b2
    bh = c - (c - b2)
    al, bl = a2 - ah, b2 - bh
    return math.fsum((p, ((ah * bh - p) + ah * bl + al * bh) + al * bl, t))


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
