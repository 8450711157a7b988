"""Geometry of the optical metric g = n^2 <.,.>.

Light paths in an isotropic medium of index n(x) are geodesics of this
conformally flat metric.  Because the conformal factor is the only degree
of freedom, the Levi-Civita connection and the curvature tensors reduce to
closed forms in n and its first two derivatives:

    Gamma^k_ij = (d_i n delta^k_j + d_j n delta^k_i - d^k n delta_ij) / n
    R_ij       = (2/n^2) d_i n d_j n - (1/n) d_i d_j n - (1/n) Lap n delta_ij
    R          = (2/n^4) |dn|^2 - (4/n^3) Lap n

The spin transport models couple to curvature through the operator
R(Omega) = -2 (Ric Omega + Omega Ric) + R Omega acting on the g-cross
operator Omega = j(U), j(U) c = n (U x c), where U is the g-unit ray
velocity.  The scalar Ein(U, U) = Ric(U, U) - R/2 controls the strength of
that coupling; the trace identity Ein(U, U) = -Tr(R(Omega) Omega) / 4
ties the two together and is enforced by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import IndexField
from .vectors import cross_matrix, vec3


@dataclass(frozen=True)
class CurvatureData:
    """Connection and curvature of the optical metric at one point.

    gamma[k, i, j] holds Gamma^k_ij; ricci is the covariant R_ij, scalar
    the curvature scalar, metric the matrix n^2 I.
    """

    gamma: np.ndarray
    ricci: np.ndarray
    scalar: float
    metric: np.ndarray

    def christoffel_apply(self, a, b) -> np.ndarray:
        """Contract Gamma^k_ij a^i b^j."""
        return np.einsum("kij,i,j->k", self.gamma, vec3(a), vec3(b))


def _curvature_parts(field: IndexField, x):
    x = vec3(x)
    n = field.value(x)
    dn = field.gradient(x)
    hess = field.hessian(x)
    lap = float(np.trace(hess))
    eye = np.eye(3)
    gamma = (
        np.einsum("i,kj->kij", dn, eye)
        + np.einsum("j,ki->kij", dn, eye)
        - np.einsum("k,ij->kij", dn, eye)
    ) / n
    ricci = 2.0 * np.outer(dn, dn) / n**2 - hess / n - lap * eye / n
    scalar = 2.0 * float(dn @ dn) / n**4 - 4.0 * lap / n**3
    return n, gamma, ricci, scalar


def christoffel(field: IndexField, x) -> CurvatureData:
    """Connection coefficients of g = n^2 <.,.> at x (curvature included).

    The returned gamma is symmetric in its lower indices.
    """
    n, gamma, ricci, scalar = _curvature_parts(field, x)
    return CurvatureData(gamma=gamma, ricci=ricci, scalar=scalar, metric=n**2 * np.eye(3))


def g_unit(field: IndexField, x, w) -> np.ndarray:
    """Rescale w to unit length in the optical metric at x."""
    w = vec3(w)
    n = field.value(x)
    norm = n * float(np.linalg.norm(w))
    if norm < 1e-12:
        raise ValueError("cannot normalize a near-zero velocity")
    return w / norm


def r_omega(field: IndexField, x, U) -> np.ndarray:
    """Matrix of R(Omega) = -2 (Ric Omega + Omega Ric) + R Omega at x.

    U must be g-unit: n^2 <U, U> = 1 within 1e-9.  Ric acts here as the
    endomorphism obtained by raising one index, R_ij / n^2.  The result is
    antisymmetric with respect to g, i.e. g(R(Omega) a, b) = -g(a, R(Omega) b).
    """
    U = vec3(U)
    n, _, ricci, scalar = _curvature_parts(field, x)
    if abs(n**2 * float(U @ U) - 1.0) > 1e-9:
        raise ValueError("U must be unit length in the optical metric")
    omega = n * cross_matrix(U)
    ric_endo = ricci / n**2
    return -2.0 * (ric_endo @ omega + omega @ ric_endo) + scalar * omega


def einstein_uu(field: IndexField, x, U) -> float:
    """Ein(U, U) = Ric(U, U) - R/2 for a g-unit velocity U."""
    U = vec3(U)
    n, _, ricci, scalar = _curvature_parts(field, x)
    if abs(n**2 * float(U @ U) - 1.0) > 1e-9:
        raise ValueError("U must be unit length in the optical metric")
    return float(U @ ricci @ U) - 0.5 * scalar
