"""Scattering of spinning rays at a planar interface.

Crossing a plane between homogeneous media of indices n1 and n2 multiplies
the color by the index, so the two sides carry different orbit invariants:
C_i = (p n_i)^2 and C'_i = s_i p n_i.  Requiring the crossing map to

* preserve the symplectic structure of the ray manifolds,
* commute with the Euclidean motions fixing the plane (rotations about
  the normal, translations along the plane), and
* be the identity when n2 = n1,

forces a unique two-branch map of the form

    q2 = q1 + mu p1 + nu n + rho (n x p1),      p2 = p1 + lambda n,

with lambda a root of lambda^2 + 2 alpha lambda + C1 - C2 = 0 where
alpha = <n, p1>.  A ray is incoming when its energy flows toward side 2,
<n, u1> > 0, so alpha carries the sign of n1 (the momentum p1 = p n1 u1
points backward in a left-handed medium).  Refraction keeps the spin
(s2 = s1) and takes the root that sends the energy into side 2, which is
the one continuous with the identity, lambda = -alpha + sign(n2) sqrt(...);
reflection is the mirror branch lambda = -2 alpha with the spin flipped
(s2 = -s1), taken past the critical angle, where the refraction root
turns complex, as total reflection.  scatter_coefficients reads the
incoming ray and picks the branch in one pass; scatter applies the map and
builds the outgoing ray.  Equivariance pins

    mu = (C1/C2 - 1) z / alpha,         nu = (C1/C2) lambda z / alpha,
    rho = ((C'2/C2 - C'1/C1) alpha + lambda C'2/C2) / |n x p1|^2,

with z = <n, q1> in interface-anchored coordinates.  The rho term is the
transverse displacement of the refracted ray out of the incidence plane,
the optical Hall shift: opposite for the two helicities, vanishing at
normal incidence, on reflection, and between perfectly impedance-matched
left-handed media (n2 = -n1).  The momentum components in the plane and
the angular momentum about the normal are conserved exactly, which is the
spinning form of the Snell-Descartes laws.  The map is reversible: the
time-reversed outgoing ray, scattered on the same branch, leaves along the
time-reversed incoming ray, which is how inverse_scatter undoes scatter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotIncomingError, TotalReflectionRequiredError
from .orbits import (
    OrbitInvariants,
    OrbitTangent,
    Ray,
    _twisted_form,
    make_ray,
    orbit_tangent,
)
from .vectors import cross, rotation_about, unit, vec3

MODE_REFRACTION = "refraction"
MODE_REFLECTION = "reflection"
MODE_TOTAL_REFLECTION = "total_reflection"

# |n x p1|^2 below this fraction of C1 counts as normal incidence.
_NORMAL_INCIDENCE_EPS = 1e-12


@dataclass(frozen=True)
class Interface:
    """Planar interface: unit normal pointing from side 1 into side 2,
    an anchor point on the plane, and the two index constants.

    Left-handed media are allowed: n1 or n2 may be negative, just not
    smaller than 1e-9 in magnitude.
    """

    normal: np.ndarray
    anchor: np.ndarray
    n1: float
    n2: float

    def __post_init__(self):
        object.__setattr__(self, "normal", unit(self.normal))
        object.__setattr__(self, "anchor", vec3(self.anchor))
        for label, val in (("n1", self.n1), ("n2", self.n2)):
            if not math.isfinite(val) or abs(val) < 1e-9:
                raise ValueError(f"interface {label} must be finite with |{label}| >= 1e-9")

    def signed_distance(self, x) -> float:
        return float(self.normal @ (vec3(x) - self.anchor))

    def flipped(self) -> "Interface":
        """The same plane oriented from side 2: normal reversed, indices swapped."""
        return Interface(normal=-self.normal, anchor=self.anchor, n1=self.n2, n2=self.n1)


@dataclass(frozen=True)
class ScatterCoefficients:
    """Coefficients of the crossing map on the branch taken, with the
    anchored foot point q1 and momentum p1 of the incoming ray they act on."""

    alpha: float
    lam: float
    mu: float
    nu: float
    rho: float
    z: float
    mode: str
    s2: float
    q1: np.ndarray
    p1: np.ndarray


@dataclass(frozen=True)
class ScatterOutcome:
    """Outgoing ray (lab coordinates), spin, momentum and the Hall shift."""

    ray2: Ray
    s2: float
    pvec2: np.ndarray
    mode: str
    shift: np.ndarray


@dataclass(frozen=True)
class ConservationResiduals:
    """Residuals of the two conserved interface quantities.

    angular is |L1 - L2| for L = <n, q x pvec + s u>, tangential is
    |n x (p1 - p2)|; both should sit at rounding level, below 1e-10 times
    the scale field.
    """

    angular: float
    tangential: float
    scale: float

    def within(self, tol: float = 1e-10) -> bool:
        bound = tol * self.scale
        return self.angular < bound and self.tangential < bound


def casimirs(p: float, n_side: float, s_side: float) -> tuple[float, float]:
    """Orbit invariants (C, C') = ((p n)^2, s p n) on one side."""
    return (p * n_side) ** 2, s_side * p * n_side


def scatter_coefficients(
    ray1: Ray,
    s1: float,
    iface: Interface,
    inv: OrbitInvariants,
    mode: str = "refract",
    zero_rho: bool = False,
) -> ScatterCoefficients:
    """Read the incoming ray, pick the branch and solve its coefficients.

    This is the one place a branch is chosen.  mode "refract" keeps the
    spin and raises TotalReflectionRequiredError past the critical angle
    (alpha^2 + C2 - C1 < 0); "reflect" is the mirror branch with the spin
    flipped; "auto" refracts where it can and takes the mirror branch,
    tagged "total_reflection", past the critical angle.  Raises
    NotIncomingError unless the energy flows toward side 2, <n, u1> > 0,
    i.e. unless <n, p1> has the sign of n1.  zero_rho forces the Hall term
    to zero (a deliberately broken map for negative controls; it violates
    angular momentum conservation and symplecticity at oblique incidence).
    """
    n, u = iface.normal, ray1.u
    d = ray1.q - iface.anchor
    q1 = d - u * float(u @ d)
    p1 = inv.p * iface.n1 * u
    alpha = float(n @ p1)
    if alpha * iface.n1 <= 0.0:
        raise NotIncomingError(
            f"<n, u1> = {float(n @ u):.6g} must be positive: the ray does not "
            "travel from side 1 toward side 2"
        )
    z = float(n @ q1)
    C1, C1p = casimirs(inv.p, iface.n1, s1)
    C2, C2p = casimirs(inv.p, iface.n2, s1)
    disc = alpha**2 + C2 - C1
    if mode == "reflect" or (mode == "auto" and disc < 0.0):
        s2 = -s1
        C2, C2p = casimirs(inv.p, iface.n1, s2)
        lam = -2.0 * alpha
        tag = MODE_REFLECTION if mode == "reflect" else MODE_TOTAL_REFLECTION
    elif mode in ("auto", "refract"):
        if disc < 0.0:
            raise TotalReflectionRequiredError(
                f"refraction impossible: alpha^2 + C2 - C1 = {disc:.6g} < 0 "
                "(incidence beyond the critical angle)"
            )
        s2 = s1
        # C2 == C1 has the exact roots 0 and -2 alpha; taking |alpha|
        # directly keeps the map exactly the identity at n2 = n1 and
        # exactly the point reflection at n2 = -n1
        root = math.sqrt(disc) if C2 != C1 else abs(alpha)
        lam = -alpha + math.copysign(root, iface.n2)
        tag = MODE_REFRACTION
    else:
        raise ValueError(f"mode must be 'auto', 'refract' or 'reflect', got {mode!r}")
    mu = (C1 / C2 - 1.0) * z / alpha
    nu = (C1 / C2) * lam * z / alpha
    sin2 = C1 - alpha**2
    if zero_rho or sin2 < _NORMAL_INCIDENCE_EPS * C1:
        rho = 0.0
    else:
        rho = ((C2p / C2 - C1p / C1) * alpha + lam * C2p / C2) / sin2
    return ScatterCoefficients(
        alpha=alpha, lam=lam, mu=mu, nu=nu, rho=rho, z=z, mode=tag, s2=s2, q1=q1, p1=p1,
    )


def scatter(
    ray1: Ray,
    s1: float,
    iface: Interface,
    inv: OrbitInvariants,
    mode: str = "auto",
    zero_rho: bool = False,
) -> ScatterOutcome:
    """Apply the crossing map to an incoming ray.

    scatter_coefficients reads the ray and picks the branch for the mode
    ("auto", "refract" or "reflect"); this applies the map and builds the
    one outgoing ray.  The outgoing direction is u2 = p2 / (p n_out) with
    the signed out-side index, so through a negative-index side the ray
    bends to the same side of the normal (negative refraction) while the
    momentum folds back.
    """
    co = scatter_coefficients(ray1, s1, iface, inv, mode, zero_rho)
    n, p1 = iface.normal, co.p1
    p2 = p1 + co.lam * n
    n_out = iface.n2 if co.mode == MODE_REFRACTION else iface.n1
    shift = co.rho * cross(n, p1)
    ray2 = make_ray(co.q1 + co.mu * p1 + co.nu * n + shift + iface.anchor, p2 / (inv.p * n_out))
    return ScatterOutcome(ray2=ray2, s2=co.s2, pvec2=p2, mode=co.mode, shift=shift)


def snell_angles(theta1: float, n1: float, n2: float, mode: str = "refract") -> float:
    """Outgoing angle for a given incidence angle (radians).

    Angles are measured in the incidence plane with the sign of the
    tangential direction of the incoming ray, so a negative-index side
    returns a negative angle (negative refraction).  Reflection returns
    pi - theta1.  Raises TotalReflectionRequiredError past the critical
    angle.
    """
    if not 0.0 <= theta1 < math.pi / 2:
        raise ValueError(f"incidence angle must lie in [0, pi/2), got {theta1}")
    if mode == "reflect":
        return math.pi - theta1
    if mode != "refract":
        raise ValueError(f"mode must be 'refract' or 'reflect', got {mode!r}")
    ratio = n1 * math.sin(theta1) / n2
    if abs(ratio) > 1.0:
        raise TotalReflectionRequiredError(
            f"n1 sin(theta1) / n2 = {ratio:.6g} exceeds 1: no refracted branch"
        )
    return math.asin(ratio)


def conservation_check(
    ray1: Ray,
    s1: float,
    outcome: ScatterOutcome,
    iface: Interface,
    inv: OrbitInvariants,
) -> ConservationResiduals:
    """Residuals of <n, ell> and n x pvec across an interface event.

    Works on the outcome as given (lab coordinates, origin wherever the
    caller put it), so doctored outcomes show up as nonzero residuals.
    """
    n = iface.normal
    p1 = inv.p * iface.n1 * ray1.u
    p2 = vec3(outcome.pvec2)
    l1 = float(n @ (cross(ray1.q, p1) + s1 * ray1.u))
    l2 = float(n @ (cross(outcome.ray2.q, p2) + outcome.s2 * outcome.ray2.u))
    angular = abs(l1 - l2)
    tangential = float(np.linalg.norm(cross(n, p1 - p2)))
    scale = inv.p * max(abs(iface.n1), abs(iface.n2)) * (
        1.0 + float(np.linalg.norm(ray1.q))
    ) + abs(s1)
    return ConservationResiduals(angular=angular, tangential=tangential, scale=scale)


def symplecto_check(
    ray1: Ray,
    s1: float,
    iface: Interface,
    inv: OrbitInvariants,
    samples: int = 16,
    step: float | None = None,
    rng: np.random.Generator | None = None,
    zero_rho: bool = False,
) -> float:
    """Largest deviation |omega_in(a, b) - omega_out(Sa, Sb)| over random
    tangent pairs, with the pushforward taken by central differences.

    The branch active at the base point is held fixed for the perturbed
    rays, so keep the state away from the critical angle by more than the
    finite-difference step.  For the true map the deviation sits at
    finite-difference noise (far below 1e-5); with zero_rho=True the
    broken map fails at oblique incidence by order |s|.
    """
    rng = rng or np.random.default_rng(0)
    h = step if step is not None else 1e-6 * (1.0 + float(np.linalg.norm(ray1.q)))
    base = scatter(ray1, s1, iface, inv, mode="auto", zero_rho=zero_rho)
    forced = "refract" if base.mode == MODE_REFRACTION else "reflect"
    p_in = inv.p * iface.n1
    p_out = inv.p * (iface.n2 if base.mode == MODE_REFRACTION else iface.n1)

    def push(tan) -> OrbitTangent:
        plus = _perturb_ray(ray1, tan, h)
        minus = _perturb_ray(ray1, tan, -h)
        out_p = scatter(plus, s1, iface, inv, mode=forced, zero_rho=zero_rho)
        out_m = scatter(minus, s1, iface, inv, mode=forced, zero_rho=zero_rho)
        dq = (out_p.ray2.q - out_m.ray2.q) / (2.0 * h)
        du = (out_p.ray2.u - out_m.ray2.u) / (2.0 * h)
        return OrbitTangent(dq=dq, du=du)

    worst = 0.0
    for _ in range(samples):
        a = orbit_tangent(ray1, rng.normal(size=3), rng.normal(size=3), project=True)
        b = orbit_tangent(ray1, rng.normal(size=3), rng.normal(size=3), project=True)
        w_in = _twisted_form(p_in, s1, ray1.u, a, b)
        w_out = _twisted_form(p_out, base.s2, base.ray2.u, push(a), push(b))
        worst = max(worst, abs(w_in - w_out))
    return worst


def _perturb_ray(ray: Ray, tan, h: float) -> Ray:
    """Ray displaced along a tangent; exact first-order tangency."""
    u = unit(ray.u + h * tan.du)
    q = ray.q + h * tan.dq
    return Ray(q=q - u * float(u @ q), u=u)


def h_action(angle: float, c, ray: Ray, normal) -> Ray:
    """Euclidean motion fixing a plane of the given normal: rotation by
    `angle` about the normal axis through the origin, then translation by
    c, which must be parallel to the plane."""
    n = unit(normal)
    c = vec3(c)
    if abs(float(n @ c)) > 1e-9 * (1.0 + float(np.linalg.norm(c))):
        raise ValueError("translation part must be orthogonal to the normal")
    rot = rotation_about(n, angle)
    u2 = rot @ ray.u
    q2 = rot @ ray.q + c - u2 * float(u2 @ c)
    return make_ray(q2, u2)


def inverse_scatter(
    outcome: ScatterOutcome, iface: Interface, inv: OrbitInvariants
) -> tuple[Ray, float]:
    """Reconstruct the incoming (ray1, s1) from a scatter outcome.

    Scatters the time-reversed outgoing ray, with the outgoing spin, on
    the branch that produced it (refraction back through the flipped
    interface, reflection off the same one) and reverses the result.
    Composing with scatter returns the original ray to rounding, on either
    side of a left-handed interface.
    """
    reversed_out = Ray(q=outcome.ray2.q, u=-outcome.ray2.u)
    if outcome.mode == MODE_REFRACTION:
        back = scatter(reversed_out, outcome.s2, iface.flipped(), inv, mode="refract")
    elif outcome.mode in (MODE_REFLECTION, MODE_TOTAL_REFLECTION):
        back = scatter(reversed_out, outcome.s2, iface, inv, mode="reflect")
    else:
        raise ValueError(f"unknown outcome mode {outcome.mode!r}")
    return Ray(q=back.ray2.q, u=-back.ray2.u), back.s2
