"""Colored, spinning light rays as a twisted symplectic manifold.

An oriented straight line in Euclidean 3-space is a pair (q, u) with
<u, u> = 1 and <u, q> = 0: u is the direction and q the point of the line
closest to the origin.  The set of such pairs is the tangent bundle of the
unit sphere.  Attaching a color p > 0 (the spatial frequency) and a spin s
(+hbar or -hbar for the two circular polarizations, 0 for the scalar
theory) equips that manifold with the symplectic 2-form

    omega(a, b) = p (<a.du, b.dq> - <b.du, a.dq>) - s <u, a.du x b.du>

whose s-term twists the direction sphere.  The Euclidean group acts on rays
with momentum map ell = x p u + s u (angular part, about the origin) and
pvec = p u (linear part); p^2 and s p are invariants of that action.  One
consequence of the twist is that the two coordinates of a ray in its own
wave plane no longer commute: their Poisson bracket is s / p^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .vectors import cross, unit, vec3

# Constraint drift beyond this triggers rejection; factories re-project.
RAY_ATOL = 1e-12


@dataclass(frozen=True)
class OrbitInvariants:
    """Color p, spin s and the action scale hbar.

    p is the spatial frequency (inverse length times action), s the spin
    component along the ray.  For light s = chi * hbar with helicity
    chi = +-1; s = 0 gives the spinless scalar model.  The Casimir
    invariants of the Euclidean action are C = p^2 and C' = s p.
    """

    p: float
    s: float
    hbar: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p > 0.0):
            raise ValueError(f"color p must be finite and positive, got {self.p}")
        if not math.isfinite(self.s):
            raise ValueError("spin s must be finite")
        if not (math.isfinite(self.hbar) and self.hbar > 0.0):
            raise ValueError("hbar must be finite and positive")

    @classmethod
    def photon(cls, p: float, chi: int, hbar: float = 1.0) -> "OrbitInvariants":
        """Invariants of a circularly polarized photon of helicity chi = +-1."""
        if chi not in (-1, 1):
            raise ValueError(f"helicity must be +1 or -1, got {chi}")
        return cls(p=p, s=chi * hbar, hbar=hbar)

    @property
    def helicity(self) -> int:
        if self.s == 0.0:
            return 0
        return 1 if self.s > 0.0 else -1

    @property
    def casimir(self) -> float:
        return self.p * self.p

    @property
    def casimir_prime(self) -> float:
        return self.s * self.p


@dataclass(frozen=True)
class Ray:
    """Oriented line (q, u): unit direction u, foot point q with <u, q> = 0."""

    q: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        q = vec3(self.q)
        u = vec3(self.u)
        if abs(float(u @ u) - 1.0) > RAY_ATOL:
            raise ValueError("ray direction is not unit length; use make_ray")
        if abs(float(u @ q)) > RAY_ATOL * (1.0 + float(np.linalg.norm(q))):
            raise ValueError("ray foot point is not orthogonal to u; use make_ray")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "u", u)

    def point_at(self, t: float) -> np.ndarray:
        return self.q + t * self.u


@dataclass(frozen=True)
class OrbitTangent:
    """Tangent vector (dq, du) at a ray.

    Valid tangents satisfy <u, du> = 0 and <dq, u> + <q, du> = 0; build
    them through orbit_tangent, which checks (or restores) both.
    """

    dq: np.ndarray
    du: np.ndarray


@dataclass(frozen=True)
class MomentumValue:
    """Value of the Euclidean momentum map: angular ell, linear pvec."""

    ell: np.ndarray
    pvec: np.ndarray


def make_ray(q, u) -> Ray:
    """Ray from a foot point and direction, re-projecting small drift.

    u is renormalized and q replaced by its component orthogonal to u, so
    inputs that have drifted off the constraints by rounding are accepted.
    """
    return ray_from_point_direction(q, u)


def ray_from_point_direction(x, u) -> Ray:
    """The oriented line through the point x with direction u.

    The returned foot point is the point of the line closest to the
    origin, so rays built from any point of the same line coincide.
    """
    u = unit(u)
    x = vec3(x)
    return Ray(q=x - u * float(u @ x), u=u)


def orbit_tangent(ray: Ray, dq, du, project: bool = False) -> OrbitTangent:
    """Tangent vector at a ray, validated against the constraints.

    With project=True the inputs are corrected instead: du loses its
    component along u, then dq its component along u in excess of
    -<q, du>.
    """
    dq = vec3(dq)
    du = vec3(du)
    u, q = ray.u, ray.q
    if project:
        du = du - u * float(u @ du)
        dq = dq - u * (float(u @ dq) + float(q @ du))
        return OrbitTangent(dq=dq, du=du)
    scale = 1.0 + float(np.linalg.norm(q))
    if abs(float(u @ du)) > RAY_ATOL * (1.0 + float(np.linalg.norm(du))):
        raise ValueError("tangent violates <u, du> = 0")
    if abs(float(dq @ u) + float(q @ du)) > RAY_ATOL * scale * (
        1.0 + float(np.linalg.norm(dq)) + float(np.linalg.norm(du))
    ):
        raise ValueError("tangent violates <dq, u> + <q, du> = 0")
    return OrbitTangent(dq=dq, du=du)


def momentum_map(x, u, inv: OrbitInvariants) -> MomentumValue:
    """Euclidean momentum of the ray through x with direction u.

    The angular part ell = x cross (p u) + s u refers to the coordinate
    origin; the linear part is pvec = p u.  Rays reconstructed from any
    point of the same line give the same value.
    """
    u = unit(u)
    x = vec3(x)
    pvec = inv.p * u
    ell = cross(x, pvec) + inv.s * u
    return MomentumValue(ell=ell, pvec=pvec)


def _twisted_form(p: float, s: float, u, a: OrbitTangent, b: OrbitTangent) -> float:
    """p (<a.du, b.dq> - <b.du, a.dq>) - s <u, a.du x b.du>, with p a plain scalar
    so that it may be the signed p n of a medium (OrbitInvariants needs p > 0)."""
    straight = float(a.du @ b.dq) - float(b.du @ a.dq)
    return p * straight - s * float(u @ cross(a.du, b.du))


def symplectic_form(ray: Ray, a: OrbitTangent, b: OrbitTangent, inv: OrbitInvariants) -> float:
    """Evaluate the twisted 2-form omega on two tangent vectors."""
    return _twisted_form(inv.p, inv.s, ray.u, a, b)


def tangent_basis(ray: Ray) -> list[OrbitTangent]:
    """A deterministic basis of the 4-dimensional tangent space at a ray.

    Two translations of the foot point inside the wave plane and two
    direction tilts (with the foot-point correction keeping <u, q> = 0).
    """
    from .vectors import orthonormal_complement

    e1, e2 = orthonormal_complement(ray.u)
    q, u = ray.q, ray.u
    return [
        OrbitTangent(dq=e1, du=np.zeros(3)),
        OrbitTangent(dq=e2, du=np.zeros(3)),
        OrbitTangent(dq=-float(q @ e1) * u, du=e1),
        OrbitTangent(dq=-float(q @ e2) * u, du=e2),
    ]


def wave_plane_bracket(ray: Ray, v1, v2, inv: OrbitInvariants) -> float:
    """Poisson bracket of the two wave-plane coordinates q1 = <v1, q> and
    q2 = <v2, q>.

    (v1, v2, u) must be a right-handed orthonormal frame.  The bracket is
    computed numerically: the matrix of omega on a tangent basis is
    inverted against the differentials of q1 and q2, which gives
    {q1, q2} = -dq1 . W^{-1} dq2.  The closed-form answer is s / p^2, the
    noncommutative area scale of the wave plane.
    """
    v1 = vec3(v1)
    v2 = vec3(v2)
    for v in (v1, v2):
        if abs(float(np.linalg.norm(v)) - 1.0) > 1e-9:
            raise ValueError("wave-plane frame vectors must be unit length")
    if abs(float(v1 @ v2)) > 1e-9:
        raise ValueError("wave-plane frame vectors must be orthogonal")
    if float(np.linalg.norm(cross(v1, v2) - ray.u)) > 1e-9:
        raise ValueError("frame must be right-handed with v1 x v2 = u")
    basis = tangent_basis(ray)
    w = np.array([[symplectic_form(ray, a, b, inv) for b in basis] for a in basis])
    d1 = np.array([float(v1 @ t.dq) for t in basis])
    d2 = np.array([float(v2 @ t.dq) for t in basis])
    return -float(d1 @ np.linalg.solve(w, d2))


def spinless_potential(ray: Ray, a: OrbitTangent, inv: OrbitInvariants) -> float:
    """The 1-form theta = -p <q, du>, a primitive of omega when s = 0.

    Rejects spinning invariants: for s != 0 the twisted form is not exact
    and no globally defined potential exists.
    """
    if inv.s != 0.0:
        raise ValueError("the symplectic form has a potential only for s = 0")
    return -inv.p * float(ray.q @ a.du)
