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


def _g_unit_checked(n: float, U) -> np.ndarray:
    """U as an array, once n^2 <U, U> = 1 holds within 1e-9 (U is g-unit)."""
    U = vec3(U)
    if abs(n**2 * float(U @ U) - 1.0) > 1e-9:
        raise ValueError("U must be unit length in the optical metric")
    return U


@dataclass(frozen=True)
class CurvatureData:
    """Connection and curvature of the optical metric at one point.

    gamma[k, i, j] holds Gamma^k_ij; ricci is the covariant R_ij, scalar
    the curvature scalar and n the index there.  Built from one field jet
    by from_jet, it serves the curvature report and the curvature checks;
    the general_metric kernel applies the same closed forms to vectors on
    floats without building these arrays.
    """

    gamma: np.ndarray
    ricci: np.ndarray
    scalar: float
    n: float

    @classmethod
    def from_jet(cls, n: float, dn: np.ndarray, hess: np.ndarray) -> "CurvatureData":
        """Curvature data from the jet (n, grad n, hess n) of a field."""
        lap = float(np.trace(hess))
        eye = np.eye(3)
        gamma = (
            np.einsum("i,kj->kij", dn, eye)
            + np.einsum("j,ki->kij", dn, eye)
            - np.einsum("k,ij->kij", dn, eye)
        ) / n
        ricci = 2.0 * np.outer(dn, dn) / n**2 - hess / n - lap * eye / n
        scalar = 2.0 * float(dn @ dn) / n**4 - 4.0 * lap / n**3
        return cls(gamma=gamma, ricci=ricci, scalar=scalar, n=n)

    @property
    def metric(self) -> np.ndarray:
        """The metric matrix n^2 I."""
        return self.n**2 * np.eye(3)

    def christoffel_apply(self, a, b) -> np.ndarray:
        """Contract Gamma^k_ij a^i b^j."""
        return np.einsum("kij,i,j->k", self.gamma, vec3(a), vec3(b))

    def r_omega(self, U) -> np.ndarray:
        """Matrix of R(Omega) = -2 (Ric Omega + Omega Ric) + R Omega.

        U must be g-unit: n^2 <U, U> = 1 within 1e-9.  Ric acts here as the
        endomorphism obtained by raising one index, R_ij / n^2.  The result
        is antisymmetric with respect to g, i.e.
        g(R(Omega) a, b) = -g(a, R(Omega) b).
        """
        U = _g_unit_checked(self.n, U)
        omega = self.n * cross_matrix(U)
        ric_endo = self.ricci / self.n**2
        return -2.0 * (ric_endo @ omega + omega @ ric_endo) + self.scalar * omega

    def einstein_uu(self, U) -> float:
        """Ein(U, U) = Ric(U, U) - R/2 for a g-unit velocity U."""
        U = _g_unit_checked(self.n, U)
        return float(U @ self.ricci @ U) - 0.5 * self.scalar


def christoffel(field: IndexField, x) -> CurvatureData:
    """Connection coefficients of g = n^2 <.,.> at x (curvature included).

    The returned gamma is symmetric in its lower indices.
    """
    return CurvatureData.from_jet(*field.jet(x))


def g_unit(field: IndexField, x, w) -> np.ndarray:
    """Rescale w to unit length in the optical metric at x."""
    w = vec3(w)
    n = field.value(x)
    norm = n * float(np.linalg.norm(w))
    if norm < 1e-12:
        raise ValueError("cannot normalize a near-zero velocity")
    return w / norm


def r_omega(field: IndexField, x, U) -> np.ndarray:
    """Matrix of R(Omega) at x for a g-unit U; see CurvatureData.r_omega."""
    return christoffel(field, x).r_omega(U)


def einstein_uu(field: IndexField, x, U) -> float:
    """Ein(U, U) = Ric(U, U) - R/2 at x for a g-unit velocity U."""
    return christoffel(field, x).einstein_uu(U)
