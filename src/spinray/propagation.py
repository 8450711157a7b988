"""Transport of colored, spinning rays through smooth media.

In a medium of index n(x) a circularly polarized ray no longer follows the
geodesics of the optical metric: its momentum picks up a spin correction,

    phat = n (p u + s g x u),        g = grad(1/n),

and the closed 2-form built from phat and the direction twist has a
one-dimensional kernel that foliates the state space into the actual light
paths.  Each model below evaluates that kernel direction (dx, du) at a
state, normalized to unit Euclidean speed |dx| = 1 with <dx, u> > 0:

* spinless_fermat: s = 0, plain optical geodesics, dx = u.
* full_spin: the exact kernel of the spinning form.  The step direction
  acquires a second-derivative term, dx ~ a u + (v s^2/p^2) dg u, with
  a = 1 + (s^2/p^2)|g|^2 - (v s^2/p^2) div g, and the direction equation
  du = (n/s) u x (p dx - s g x dx) follows from the kernel conditions.
* linearized_omn: the weak-gradient model dphat = -n <phat, dx> g,
  dx ~ phat - (s/p) g x phat, first order in the inhomogeneity.
* general_metric: the covariant form of the same kernel on the optical
  metric, driven by the curvature operator R(Omega); equal to full_spin
  after converting back to Euclidean variables.

Each model is one private component kernel on Python floats: it takes the
field's component_jet, p, s, a position and a unit direction as separate
floats, evaluates the jet once and returns (dx, du) as six floats.  No
array is built.  The spinless and full kernels follow the array formulas
of the velocity data operation by operation, with dot products rounded as
numpy rounds them, so their directions and trajectories are unchanged bit
for bit; the linearized kernel inverts 1 + j(z) in closed form, and the
general kernel applies Ric, R(Omega) and the Christoffel symbols of the
conformal metric to vectors in closed form, without the (3, 3, 3) gamma.
integrate runs RK4 on 6-float tuples with these kernels; the public
direction_* functions are thin adapters from arrays to the same kernels.
In a ConstantIndex medium g = 0, every kernel gives dx = u, du = 0, and
integrate takes each step x + h u in closed form, calling no kernel.

kernel_residual certifies a direction by evaluating the 2-form against a
basis of test variations.  It keeps its own matrix code (velocity_data),
so the certification shares no formula with the kernels it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import _g_unit_checked
from .errors import (
    DegenerateKernelError,
    OutOfDomainError,
    SpinCurvatureSingularityError,
)
from .fields import ConstantIndex, IndexField, velocity_data
from .orbits import OrbitInvariants
from .vectors import _cross, _fma_dot, cross, orthonormal_complement, unit, vec3

MODEL_SPINLESS = "spinless_fermat"
MODEL_FULL = "full_spin"
MODEL_LINEARIZED = "linearized_omn"
MODEL_GENERAL = "general_metric"

_MODEL_ALIASES = {
    "spinless": MODEL_SPINLESS,
    "full": MODEL_FULL,
    "linearized": MODEL_LINEARIZED,
    "general": MODEL_GENERAL,
    MODEL_SPINLESS: MODEL_SPINLESS,
    MODEL_FULL: MODEL_FULL,
    MODEL_LINEARIZED: MODEL_LINEARIZED,
    MODEL_GENERAL: MODEL_GENERAL,
}

# Kernel direction below this norm counts as degenerate.
_KERNEL_EPS = 1e-12


@dataclass(frozen=True)
class PhotonState:
    """Instantaneous ray state: position x and unit direction u."""

    x: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", vec3(self.x))
        object.__setattr__(self, "u", unit(self.u))


@dataclass(frozen=True)
class MetricState:
    """State in optical-metric variables: position X and g-unit velocity U."""

    X: np.ndarray
    U: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "X", vec3(self.X))
        object.__setattr__(self, "U", vec3(self.U))

    @classmethod
    def from_photon(cls, state: PhotonState, field: IndexField) -> "MetricState":
        n = field.value(state.x)
        return cls(X=state.x, U=state.u / n)


@dataclass(frozen=True)
class KernelDirection:
    """Unit-speed kernel direction (dx, du)."""

    dx: np.ndarray
    du: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """Sampled path: arc parameter t, positions and directions.

    reason is one of "interface" (the stop predicate changed sign; the
    endpoint is the crossing that integrate located on the surface),
    "boundary" (the field ran out of domain) or "max-steps" (the arc
    budget was used up).
    """

    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    reason: str
    model: str

    def __len__(self) -> int:
        return len(self.t)

    def state(self, i: int) -> PhotonState:
        return PhotonState(x=self.x[i], u=self.u[i])

    @property
    def arc_length(self) -> float:
        return float(self.t[-1])


def canonical_model(model: str) -> str:
    try:
        return _MODEL_ALIASES[model]
    except KeyError:
        raise ValueError(f"unknown transport model {model!r}") from None


def momentum_hat(state: PhotonState, inv: OrbitInvariants, field: IndexField) -> np.ndarray:
    """Spin-corrected momentum phat = n (p u + s g x u) at the state."""
    vd = velocity_data(field, state.x)
    return vd.n * (inv.p * state.u + inv.s * cross(vd.g, state.u))


def _oriented_unit(r0: float, r1: float, r2: float, u0: float, u1: float, u2: float,
                   what: str) -> tuple[float, float, float, float]:
    """The unit vector along +-r with <., u> >= 0, and the factor (+-1/|r|) taking r there."""
    norm = math.sqrt(_fma_dot(r0, r1, r2, r0, r1, r2))
    if norm < _KERNEL_EPS:
        raise DegenerateKernelError(
            f"{what}: kernel direction collapsed (|dx| = {norm:.3e}); the medium is too "
            "strongly inhomogeneous for this color and spin"
        )
    scale = 1.0 / norm
    if r0 * u0 + r1 * u1 + r2 * u2 < 0.0:
        scale = -scale
    return r0 * scale, r1 * scale, r2 * scale, scale


def _tangent(w0: float, w1: float, w2: float, u0: float, u1: float, u2: float):
    """w with its component along the unit vector u removed."""
    wu = _fma_dot(u0, u1, u2, w0, w1, w2)
    return w0 - u0 * wu, w1 - u1 * wu, w2 - u2 * wu


def _hess_times(h00, h01, h02, h11, h12, h22, a0, a1, a2):
    """hess n . a from the upper triangle of the symmetric hess n."""
    return (h00 * a0 + h01 * a1 + h02 * a2, h01 * a0 + h11 * a1 + h12 * a2,
            h02 * a0 + h12 * a1 + h22 * a2)


# The four component kernels.  Each takes a field's component_jet, the
# color p and spin s, a position and a unit direction as floats, evaluates
# the jet once and returns the unit-speed direction (dx, du) as six floats.
# spinless and full transcribe the array formulas of the velocity data
# (g = -grad n / n^2, dg = -hess n / n^2 + 2 grad n grad n^T / n^3)
# operation by operation, dot and matrix-vector products rounded as numpy
# rounds them, so their directions are those of the array code bit for bit;
# linearized and general use closed forms that move results by rounding.

def _spinless_kernel(jet, p, s, x0, x1, x2, u0, u1, u2):
    n, d0, d1, d2 = jet(x0, x1, x2)[:4]
    w0, w1, w2 = _tangent(d0, d1, d2, u0, u1, u2)
    return u0, u1, u2, w0 / n, w1 / n, w2 / n


def _full_kernel(jet, p, s, x0, x1, x2, u0, u1, u2):
    if s == 0.0:
        return _spinless_kernel(jet, p, s, x0, x1, x2, u0, u1, u2)
    n, d0, d1, d2, h00, h01, h02, h11, h12, h22 = jet(x0, x1, x2)
    n2, n3 = n**2, n**3
    g0, g1, g2 = -d0 / n2, -d1 / n2, -d2 / n2
    k00 = -h00 / n2 + 2.0 * (d0 * d0) / n3
    k01 = -h01 / n2 + 2.0 * (d0 * d1) / n3
    k02 = -h02 / n2 + 2.0 * (d0 * d2) / n3
    k11 = -h11 / n2 + 2.0 * (d1 * d1) / n3
    k12 = -h12 / n2 + 2.0 * (d1 * d2) / n3
    k22 = -h22 / n2 + 2.0 * (d2 * d2) / n3
    s_over_p2 = s**2 / p**2
    c = 1.0 / n * s_over_p2  # v s^2/p^2
    # a = 1 + (s^2/p^2)|g|^2 - v (s^2/p^2) div g, raw = a u + v (s^2/p^2) dg u
    a = 1.0 + s_over_p2 * _fma_dot(g0, g1, g2, g0, g1, g2) - c * (k00 + k11 + k22)
    dx0, dx1, dx2, _ = _oriented_unit(
        a * u0 + c * _fma_dot(k01, k00, k02, u1, u0, u2),
        a * u1 + c * _fma_dot(k11, k01, k12, u1, u0, u2),
        a * u2 + c * _fma_dot(k12, k02, k22, u1, u0, u2),
        u0, u1, u2, MODEL_FULL,
    )
    # du = (n/s) u x (p dx - s g x dx)
    q0, q1, q2 = _cross(g0, g1, g2, dx0, dx1, dx2)
    w0, w1, w2 = _cross(u0, u1, u2, p * dx0 - s * q0, p * dx1 - s * q1, p * dx2 - s * q2)
    k = n / s
    return (dx0, dx1, dx2) + _tangent(k * w0, k * w1, k * w2, u0, u1, u2)


def _linearized_kernel(jet, p, s, x0, x1, x2, u0, u1, u2):
    n, d0, d1, d2, h00, h01, h02, h11, h12, h22 = jet(x0, x1, x2)
    n2 = n * n
    n3 = n2 * n
    g0, g1, g2 = -d0 / n2, -d1 / n2, -d2 / n2
    # phat = n (p u + s g x u), dx ~ phat - (s/p) g x phat
    q0, q1, q2 = _cross(g0, g1, g2, u0, u1, u2)
    ph0, ph1, ph2 = n * (p * u0 + s * q0), n * (p * u1 + s * q1), n * (p * u2 + s * q2)
    q0, q1, q2 = _cross(g0, g1, g2, ph0, ph1, ph2)
    sp = s / p
    dx0, dx1, dx2, _ = _oriented_unit(
        ph0 - sp * q0, ph1 - sp * q1, ph2 - sp * q2, u0, u1, u2, MODEL_LINEARIZED
    )
    # rhs = dphat - <grad n, dx> phat / n - n s (dg dx) x u, dphat = -n <phat, dx> g,
    # dg dx = -hess dx / n^2 + 2 grad n <grad n, dx> / n^3
    m = -n * (ph0 * dx0 + ph1 * dx1 + ph2 * dx2)
    dn_dx = d0 * dx0 + d1 * dx1 + d2 * dx2
    h0, h1, h2 = _hess_times(h00, h01, h02, h11, h12, h22, dx0, dx1, dx2)
    dd = 2.0 * dn_dx / n3
    q0, q1, q2 = _cross(-h0 / n2 + d0 * dd, -h1 / n2 + d1 * dd, -h2 / n2 + d2 * dd,
                        u0, u1, u2)
    ns = n * s
    r0 = m * g0 - dn_dx * ph0 / n - ns * q0
    r1 = m * g1 - dn_dx * ph1 / n - ns * q1
    r2 = m * g2 - dn_dx * ph2 / n - ns * q2
    # n p (1 + j(z)) du = rhs with z = (s/p) g, solved through
    # (1 + j(z))^-1 r = (r - z x r + z <z, r>) / (1 + |z|^2)
    z0, z1, z2 = sp * g0, sp * g1, sp * g2
    q0, q1, q2 = _cross(z0, z1, z2, r0, r1, r2)
    zr = z0 * r0 + z1 * r1 + z2 * r2
    k = 1.0 / ((1.0 + (z0 * z0 + z1 * z1 + z2 * z2)) * n * p)
    return (dx0, dx1, dx2) + _tangent(
        (r0 - q0 + z0 * zr) * k, (r1 - q1 + z1 * zr) * k, (r2 - q2 + z2 * zr) * k,
        u0, u1, u2,
    )


def _general_kernel(jet, p, s, x0, x1, x2, u0, u1, u2):
    n, d0, d1, d2, h00, h01, h02, h11, h12, h22 = jet(x0, x1, x2)
    n2 = n * n
    lap = h00 + h11 + h22

    def ricci(a0, a1, a2):
        # Ric a = 2 <dn, a> dn / n^2 - hess a / n - lap a / n
        h0, h1, h2 = _hess_times(h00, h01, h02, h11, h12, h22, a0, a1, a2)
        da = 2.0 * (d0 * a0 + d1 * a1 + d2 * a2) / n2
        return (da * d0 - (h0 + lap * a0) / n, da * d1 - (h1 + lap * a1) / n,
                da * d2 - (h2 + lap * a2) / n)

    scalar = 2.0 * (d0 * d0 + d1 * d1 + d2 * d2) / (n2 * n2) - 4.0 * lap / (n2 * n)
    U0, U1, U2 = u0 / n, u1 / n, u2 / n
    c0, c1, c2 = ricci(U0, U1, U2)
    ein = U0 * c0 + U1 * c1 + U2 * c2 - 0.5 * scalar
    denom = p * p + s * s * ein
    if abs(denom) < 1e-9 * p * p:
        raise SpinCurvatureSingularityError(
            f"curvature coupling denominator p^2 + s^2 Ein(U,U) = {denom:.3e} is singular"
        )
    # R(Omega) a = -2 (Ric (n U x a) + n U x Ric a) / n^2 + R n U x a, and
    # R(Omega) U = -2 n U x Ric U / n^2;  dX = U + s^2 n U x R(Omega) U / (2 denom)
    q0, q1, q2 = _cross(U0, U1, U2, c0, c1, c2)
    k = -2.0 * n / n2
    q0, q1, q2 = _cross(U0, U1, U2, k * q0, k * q1, k * q2)
    k = s * s * n / (2.0 * denom)
    dX0, dX1, dX2 = U0 + k * q0, U1 + k * q1, U2 + k * q2
    w0, w1, w2 = _cross(U0, U1, U2, dX0, dX1, dX2)
    w0, w1, w2 = n * w0, n * w1, n * w2
    a0, a1, a2 = ricci(w0, w1, w2)
    b0, b1, b2 = ricci(dX0, dX1, dX2)
    b0, b1, b2 = _cross(U0, U1, U2, b0, b1, b2)
    # covariant change D U = -(s / 2p) R(Omega) dX
    k = -(s / (2.0 * p))
    m = -2.0 / n2
    e0 = k * (m * (a0 + n * b0) + scalar * w0)
    e1 = k * (m * (a1 + n * b1) + scalar * w1)
    e2 = k * (m * (a2 + n * b2) + scalar * w2)
    # Euclidean conversion: du = <dn, dX> U + n (D U - Gamma(dX, U)), with
    # Gamma(a, b) = (<dn, a> b + <dn, b> a - dn <a, b>) / n; the <dn, dX> U
    # terms cancel
    dn_U = d0 * U0 + d1 * U1 + d2 * U2
    dX_U = dX0 * U0 + dX1 * U1 + dX2 * U2
    f0 = n * e0 - dn_U * dX0 + d0 * dX_U
    f1 = n * e1 - dn_U * dX1 + d1 * dX_U
    f2 = n * e2 - dn_U * dX2 + d2 * dX_U
    dx0, dx1, dx2, scale = _oriented_unit(dX0, dX1, dX2, u0, u1, u2, MODEL_GENERAL)
    return (dx0, dx1, dx2) + _tangent(f0 * scale, f1 * scale, f2 * scale, u0, u1, u2)


def _direction(kernel, field: IndexField, inv_p: float, inv_s: float, x, u) -> KernelDirection:
    """Run a component kernel on array arguments."""
    out = kernel(field.component_jet, inv_p, inv_s, *x.tolist(), *u.tolist())
    return KernelDirection(dx=np.array(out[:3]), du=np.array(out[3:]))


def direction_spinless(state: PhotonState, field: IndexField) -> KernelDirection:
    """Optical geodesic direction: dx = u, du = (grad n - u <u, grad n>) / n.

    Independent of color and spin; the unit-speed form of the eikonal
    equation d(n u)/dt = grad n.
    """
    return _direction(_spinless_kernel, field, 1.0, 0.0, state.x, state.u)


def direction_full_spin(
    state: PhotonState, inv: OrbitInvariants, field: IndexField
) -> KernelDirection:
    """Exact kernel direction of the spinning transport form.

    For s = 0 this is the spinless formula.  Raises
    DegenerateKernelError when the computed dx norm falls below 1e-12,
    which happens when a = 1 + (s^2/p^2)|g|^2 - (v s^2/p^2) div g
    conspires with the Hessian term (inhomogeneity scale comparable to
    1/p).
    """
    return _direction(_full_kernel, field, inv.p, inv.s, state.x, state.u)


def direction_linearized(
    state: PhotonState, inv: OrbitInvariants, field: IndexField
) -> KernelDirection:
    """Weak-gradient transport: dphat = -n <phat, dx> g along
    dx ~ phat - (s/p) g x phat, converted back to (dx, du).

    First order in the velocity gradient; exactly the spinless model at
    s = 0.  The direction component solves the linear system
    n p (1 + j(sg/p)) du = dphat - <grad n, dx> phat / n - n s (dg dx) x u
    through the closed-form inverse of 1 + j(z).
    """
    return _direction(_linearized_kernel, field, inv.p, inv.s, state.x, state.u)


def direction_general_metric(
    mstate: MetricState, inv: OrbitInvariants, field: IndexField
) -> KernelDirection:
    """Kernel direction from the covariant form on the optical metric.

    The step is dX ~ U + s^2 Omega R(Omega) U / (2 (p^2 + s^2 Ein(U, U)))
    with the covariant direction change D U = -(s / 2p) R(Omega) dX; both
    are converted to Euclidean (dx, du) via u = n U and the Christoffel
    correction.  U must be g-unit, n^2 <U, U> = 1 within 1e-9.  Raises
    SpinCurvatureSingularityError when the coupling denominator
    |p^2 + s^2 Ein(U, U)| drops below 1e-9 p^2.
    """
    n = field.value(mstate.X)
    U = _g_unit_checked(n, mstate.U)
    return _direction(_general_kernel, field, inv.p, inv.s, mstate.X, n * U)


def kernel_residual(
    state: PhotonState,
    direction: KernelDirection,
    inv: OrbitInvariants,
    field: IndexField,
) -> float:
    """Certify a kernel direction against the transport 2-form.

    Evaluates sigma(d, e) = <dphat(d), e.dx> - <dphat(e), d.dx>
    - s <u, d.du x e.du> for five independent test variations e (three
    pure position shifts, two pure direction tilts orthogonal to u), with
    dphat the analytic differential of phat = n (p u + s g x u).  Returns
    the largest magnitude; a true kernel direction gives 0 up to rounding
    (compare against 1e-10 p n).
    """
    vd = velocity_data(field, state.x)
    u, p, s = state.u, inv.p, inv.s
    phat_over_n = p * u + s * cross(vd.g, u)

    def dphat(dx: np.ndarray, du: np.ndarray) -> np.ndarray:
        return float(vd.grad_n @ dx) * phat_over_n + vd.n * (
            p * du + s * cross(vd.dg @ dx, u) + s * cross(vd.g, du)
        )

    d_dx, d_du = direction.dx, direction.du
    d_dphat = dphat(d_dx, d_du)
    f1, f2 = orthonormal_complement(u)
    tests = [
        (np.eye(3)[i], np.zeros(3)) for i in range(3)
    ] + [(np.zeros(3), f1), (np.zeros(3), f2)]
    worst = 0.0
    for e_dx, e_du in tests:
        sigma = (
            float(d_dphat @ e_dx)
            - float(dphat(e_dx, e_du) @ d_dx)
            - s * float(u @ cross(d_du, e_du))
        )
        worst = max(worst, abs(sigma))
    return worst


def _component_kernel(model: str):
    return {
        MODEL_SPINLESS: _spinless_kernel,
        MODEL_FULL: _full_kernel,
        MODEL_LINEARIZED: _linearized_kernel,
        MODEL_GENERAL: _general_kernel,
    }[model]


# The crossing search ends when the bracket on the step fraction is this
# narrow, or when the stop predicate is this small in units of the step and
# the step fraction it implies is within _CROSSING_BRACKET as well.
_CROSSING_BRACKET = 1e-10
_CROSSING_RESIDUAL = 1e-12


def _locate_crossing(advance, f, y_lo, f_lo: float, f_hi: float, f_tol: float):
    """Step fraction, and the state there, at which f(advance(frac)) changes sign.

    y_lo is the state at fraction 0; f_lo >= 0 and f_hi < 0 are f at
    fractions 0 and 1.  When f_lo == 0 the sample y_lo lies on the surface
    and is the crossing itself: it is returned with fraction 0 at no cost.
    Otherwise Illinois regula falsi (Dowell & Jarratt, BIT 11, 168, 1971):
    each iterate is the false-position point of the bracket [lo, hi]; when
    the same end moves twice in a row, the value kept at the other end is
    halved.  A point not strictly inside the bracket becomes the midpoint.
    A zero of f counts as the far side.  The search ends when the bracket
    is _CROSSING_BRACKET wide, or when the newest |f| is at most f_tol and
    its estimated distance to the root, |f| over the secant slope of the
    bracket, is at most _CROSSING_BRACKET: at grazing incidence a small
    |f| alone does not pin the fraction down.  Returns the newest iterate.
    """
    if f_lo == 0.0:
        return 0.0, y_lo
    lo, hi = 0.0, 1.0
    moved = 0  # +1 after lo moved, -1 after hi moved
    while True:
        frac = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < frac < hi:
            frac = 0.5 * (lo + hi)
        state = advance(frac)
        val = f(state)
        if val > 0.0:
            lo, f_lo = frac, val
            if moved == 1:
                f_hi *= 0.5
            moved = 1
        else:
            hi, f_hi = frac, val
            if moved == -1:
                f_lo *= 0.5
            moved = -1
        width = hi - lo
        if width <= _CROSSING_BRACKET or (
                abs(val) <= f_tol and abs(val) * width <= _CROSSING_BRACKET * (f_lo - f_hi)):
            return frac, state


def integrate(
    start: PhotonState,
    inv: OrbitInvariants,
    field: IndexField,
    model: str = MODEL_FULL,
    step: float = 0.01,
    max_len: float = 10.0,
    stop=None,
) -> Trajectory:
    """March a state along the kernel direction with classical RK4.

    The arc parameter is Euclidean path length (unit-speed gauge); u is
    renormalized at every RK4 stage and after every step.  The state is
    carried as six Python floats (x, u) and each stage calls the model's
    component kernel on the field's component_jet, so no array is built
    until the Trajectory.  A non-finite state raises ValueError before a
    kernel sees it.  In a ConstantIndex medium each step is x + h u with u
    unchanged, in closed form, and no kernel or field is called.

    `stop`, if given, maps a position, passed as a tuple of three floats,
    to a signed distance: integration ends when its sign differs from the
    sign at the start.  The crossing inside that step is located by
    Illinois regula falsi on the step fraction, each iterate a genuine RK4
    step of that fraction from the last sample, reusing its first stage;
    the search stops when the bracket is 1e-10 of the step wide, or when
    |stop| at the newest iterate is at most 1e-12 of the step and puts it
    within 1e-10 of the step of the crossing, and that iterate is the
    final sample.  A sample with stop exactly 0 before the crossing is
    itself the final sample.  Running out of field domain ends the
    trajectory at the last good sample with reason "boundary"; a step's
    first stage checks its sample, and the last sample is checked alone.
    Kernel errors propagate with the offending arc parameter attached.
    """
    if not (step > 0.0 and max_len > 0.0):
        raise ValueError("step and max_len must be positive")
    model = canonical_model(model)
    kernel = _component_kernel(model)
    jet = field.component_jet
    p, s = inv.p, inv.s
    isfinite, sqrt = math.isfinite, math.sqrt

    def stage(y):
        x0, x1, x2, u0, u1, u2 = y
        if not all(map(isfinite, y)):
            raise ValueError("ray state has non-finite entries")
        norm = sqrt(_fma_dot(u0, u1, u2, u0, u1, u2))
        if norm < 1e-9:
            raise ValueError(f"cannot normalize a vector of norm {norm:.3e}")
        return kernel(jet, p, s, x0, x1, x2, u0 / norm, u1 / norm, u2 / norm)

    def rk4(y, k1, h):
        # k1 = stage(y) does not depend on h: the crossing search reuses it
        half = 0.5 * h
        k2 = stage([a + half * b for a, b in zip(y, k1)])
        k3 = stage([a + half * b for a, b in zip(y, k2)])
        k4 = stage([a + h * b for a, b in zip(y, k3)])
        sixth = h / 6.0
        x0, x1, x2, u0, u1, u2 = out = [
            a + sixth * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4)
        ]
        norm = sqrt(_fma_dot(u0, u1, u2, u0, u1, u2))
        if not (norm > 0.0 and all(map(isfinite, out))):
            raise ValueError("ray state has non-finite entries")
        return x0, x1, x2, u0 / norm, u1 / norm, u2 / norm

    def line(y, k1, h):
        # every kernel gives dx = u, du = 0 in a constant medium, which has no edge
        x0, x1, x2, u0, u1, u2 = y
        return x0 + h * u0, x1 + h * u1, x2 + h * u2, u0, u1, u2

    straight = isinstance(field, ConstantIndex)
    first, advance = ((lambda y: None), line) if straight else (stage, rk4)
    if not straight:
        field.value(start.x)  # a start outside the field's domain raises
    y = (*start.x.tolist(), *start.u.tolist())
    ts = [0.0]
    samples = [y]
    stop_sign = 0.0
    if stop is not None:
        val = stop(y[:3])
        stop_sign = math.copysign(1.0, val) if val != 0.0 else 0.0
    reason = "max-steps"
    t = 0.0
    while t < max_len - 1e-15:
        h = min(step, max_len - t)
        try:
            k1 = first(y)  # also the domain check of the sample y
            y_next = advance(y, k1, h)
        except OutOfDomainError:
            reason = "boundary"
            break
        except (DegenerateKernelError, SpinCurvatureSingularityError) as exc:
            exc.arc_parameter = t
            exc.args = (f"{exc.args[0]} (at arc parameter t = {t:.6g})",)
            raise
        if stop is not None:
            val = stop(y_next[:3])
            sign = math.copysign(1.0, val) if val != 0.0 else 0.0
            if stop_sign == 0.0:
                stop_sign = sign
            elif sign != 0.0 and sign != stop_sign:
                frac, y_cross = _locate_crossing(
                    lambda frac: advance(y, k1, h * frac),
                    lambda z: stop_sign * stop(z[:3]),
                    y,
                    stop_sign * stop(y[:3]),
                    stop_sign * val,
                    _CROSSING_RESIDUAL * h,
                )
                if frac > 0.0:
                    ts.append(t + h * frac)
                    samples.append(y_cross)
                reason = "interface"
                break
        t += h
        y = y_next
        ts.append(t)
        samples.append(y)
    if not straight and len(samples) > 1:
        try:  # the domain check of the last sample
            field.value(samples[-1][:3])
        except OutOfDomainError:
            del ts[-1], samples[-1]
            reason = "boundary"
    arr = np.array(samples)
    return Trajectory(t=np.array(ts), x=arr[:, :3], u=arr[:, 3:], reason=reason, model=model)
