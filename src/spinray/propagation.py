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

kernel_residual certifies a direction by evaluating the 2-form against a
basis of test variations; integrate advances states with classical RK4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureData
from .errors import (
    DegenerateKernelError,
    OutOfDomainError,
    SpinCurvatureSingularityError,
)
from .fields import IndexField, velocity_data
from .orbits import OrbitInvariants
from .vectors import cross, cross_matrix, orthonormal_complement, unit, vec3

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

    @classmethod
    def _trusted(cls, x: np.ndarray, u: np.ndarray) -> "PhotonState":
        """State from arrays the caller has already validated."""
        state = object.__new__(cls)
        object.__setattr__(state, "x", x)
        object.__setattr__(state, "u", u)
        return state


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


def _oriented_unit(raw: np.ndarray, u: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    norm = float(np.linalg.norm(raw))
    if norm < _KERNEL_EPS:
        raise DegenerateKernelError(
            f"{what}: kernel direction collapsed (|dx| = {norm:.3e}); the medium is too "
            "strongly inhomogeneous for this color and spin"
        )
    scale = 1.0 / norm
    if float(raw @ u) < 0.0:
        scale = -scale
    return raw * scale, scale


def direction_spinless(state: PhotonState, field: IndexField) -> KernelDirection:
    """Optical geodesic direction: dx = u, du = (grad n - u <u, grad n>) / n.

    Independent of color and spin; the unit-speed form of the eikonal
    equation d(n u)/dt = grad n.
    """
    vd = velocity_data(field, state.x)
    u = state.u
    du = (vd.grad_n - u * float(u @ vd.grad_n)) / vd.n
    return KernelDirection(dx=u.copy(), du=du)


def direction_full_spin(
    state: PhotonState, inv: OrbitInvariants, field: IndexField
) -> KernelDirection:
    """Exact kernel direction of the spinning transport form.

    For s = 0 this delegates to the spinless formula.  Raises
    DegenerateKernelError when the computed dx norm falls below 1e-12,
    which happens when a = 1 + (s^2/p^2)|g|^2 - (v s^2/p^2) div g
    conspires with the Hessian term (inhomogeneity scale comparable to
    1/p).
    """
    if inv.s == 0.0:
        return direction_spinless(state, field)
    vd = velocity_data(field, state.x)
    u = state.u
    s_over_p2 = inv.s**2 / inv.p**2
    a = 1.0 + s_over_p2 * float(vd.g @ vd.g) - vd.v * s_over_p2 * vd.div_g
    raw = a * u + vd.v * s_over_p2 * (vd.dg @ u)
    dx, _ = _oriented_unit(raw, u, MODEL_FULL)
    du = (vd.n / inv.s) * cross(u, inv.p * dx - inv.s * cross(vd.g, dx))
    du = du - u * float(u @ du)
    return KernelDirection(dx=dx, du=du)


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
    vd = velocity_data(field, state.x)
    u, p, s = state.u, inv.p, inv.s
    phat = vd.n * (p * u + s * cross(vd.g, u))
    raw = phat - (s / p) * cross(vd.g, phat)
    dx, scale = _oriented_unit(raw, u, MODEL_LINEARIZED)
    dphat = -vd.n * float(phat @ dx) * vd.g
    rhs = dphat - float(vd.grad_n @ dx) * phat / vd.n - vd.n * s * cross(vd.dg @ dx, u)
    z = (s / p) * vd.g
    zz = float(z @ z)
    inv_op = (np.eye(3) - cross_matrix(z) + np.outer(z, z)) / (1.0 + zz)
    du = inv_op @ rhs / (vd.n * p)
    du = du - u * float(u @ du)
    return KernelDirection(dx=dx, du=du)


def direction_general_metric(
    mstate: MetricState, inv: OrbitInvariants, field: IndexField
) -> KernelDirection:
    """Kernel direction from the covariant form on the optical metric.

    The step is dX ~ U + s^2 Omega R(Omega) U / (2 (p^2 + s^2 Ein(U, U)))
    with the covariant direction change D U = -(s / 2p) R(Omega) dX; both
    are converted to Euclidean (dx, du) via u = n U and the Christoffel
    correction.  Raises SpinCurvatureSingularityError when the coupling
    denominator |p^2 + s^2 Ein(U, U)| drops below 1e-9 p^2.
    """
    U = mstate.U
    n, grad_n, hess_n = field.jet(mstate.X)
    curv = CurvatureData.from_jet(n, grad_n, hess_n)
    rom = curv.r_omega(U)
    ein = curv.einstein_uu(U)
    denom = inv.p**2 + inv.s**2 * ein
    if abs(denom) < 1e-9 * inv.p**2:
        raise SpinCurvatureSingularityError(
            f"curvature coupling denominator p^2 + s^2 Ein(U,U) = {denom:.3e} is singular"
        )
    dX = U + inv.s**2 * (n * cross(U, rom @ U)) / (2.0 * denom)
    dU_cov = -(inv.s / (2.0 * inv.p)) * (rom @ dX)
    # Euclidean conversion of the pair (dX, DU): u = n U, du from the
    # product rule with the connection term removed from DU.
    du_raw = float(grad_n @ dX) * U + n * (dU_cov - curv.christoffel_apply(dX, U))
    u = n * U
    dx, scale = _oriented_unit(dX, u, MODEL_GENERAL)
    du = du_raw * scale
    du = du - u * float(u @ du)
    return KernelDirection(dx=dx, du=du)


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


def _direction_fn(model: str, inv: OrbitInvariants, field: IndexField):
    model = canonical_model(model)
    if model == MODEL_SPINLESS:
        return lambda st: direction_spinless(st, field)
    if model == MODEL_FULL:
        return lambda st: direction_full_spin(st, inv, field)
    if model == MODEL_LINEARIZED:
        return lambda st: direction_linearized(st, inv, field)
    return lambda st: direction_general_metric(MetricState.from_photon(st, field), inv, field)


# The crossing search ends when the bracket on the step fraction is this
# narrow, or when the stop predicate is this small in units of the step.
_CROSSING_BRACKET = 1e-10
_CROSSING_RESIDUAL = 1e-12


def _locate_crossing(advance, f, f_lo: float, f_hi: float, f_tol: float):
    """Step fraction, and the state there, at which f(advance(frac)) changes sign.

    f_lo >= 0 and f_hi < 0 are f at fractions 0 and 1.  Illinois regula
    falsi (Dowell & Jarratt, BIT 11, 168, 1971): each iterate is the
    false-position point of the bracket [lo, hi]; when the same end moves
    twice in a row, the value kept at the other end is halved.  A point not
    strictly inside the bracket (as when f_lo == 0) becomes the midpoint.
    A zero of f counts as the far side.  Returns the newest iterate.
    """
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
        if hi - lo <= _CROSSING_BRACKET or abs(val) <= f_tol:
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
    renormalized after every step.  `stop`, if given, maps a position to a
    signed distance: integration ends when its sign differs from the sign
    at the start.  The crossing inside that step is located by Illinois
    regula falsi on the step fraction, each iterate a genuine RK4 step of
    that fraction from the last sample; the search stops when the bracket
    is 1e-10 of the step wide or when |stop| at the newest iterate is at
    most 1e-12 of the step, and that iterate is the final sample.  Running
    out of field domain ends the trajectory at the last good sample with
    reason "boundary".  Kernel errors propagate with the offending arc
    parameter attached.
    """
    if step <= 0.0 or max_len <= 0.0:
        raise ValueError("step and max_len must be positive")
    model = canonical_model(model)
    fn = _direction_fn(model, inv, field)

    def derivative(y: np.ndarray) -> np.ndarray:
        # PhotonState's checks and normalization, without its validation calls
        if not np.isfinite(y).all():
            raise ValueError("ray state has non-finite entries")
        norm = float(np.linalg.norm(y[3:]))
        if norm < 1e-9:
            raise ValueError(f"cannot normalize a vector of norm {norm:.3e}")
        d = fn(PhotonState._trusted(y[:3], y[3:] / norm))
        return np.concatenate([d.dx, d.du])

    def rk4(y: np.ndarray, h: float) -> np.ndarray:
        k1 = derivative(y)
        k2 = derivative(y + 0.5 * h * k1)
        k3 = derivative(y + 0.5 * h * k2)
        k4 = derivative(y + h * k3)
        out = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[3:] /= np.linalg.norm(out[3:])
        if not np.isfinite(out).all():
            raise ValueError("ray state has non-finite entries")
        return out

    y = np.concatenate([start.x, start.u])
    field.value(start.x)  # a start outside the field's domain raises
    ts = [0.0]
    samples = [y]
    stop_sign = 0.0
    if stop is not None:
        stop_sign = math.copysign(1.0, stop(y[:3])) if stop(y[:3]) != 0.0 else 0.0
    reason = "max-steps"
    t = 0.0
    while t < max_len - 1e-15:
        h = min(step, max_len - t)
        try:
            y_next = rk4(y, h)
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
                frac, y = _locate_crossing(
                    lambda frac: rk4(y, h * frac),
                    lambda z: stop_sign * stop(z[:3]),
                    stop_sign * stop(y[:3]),
                    stop_sign * val,
                    _CROSSING_RESIDUAL * h,
                )
                field.value(y[:3])
                t += h * frac
                ts.append(t)
                samples.append(y)
                reason = "interface"
                break
        try:
            field.value(y_next[:3])
        except OutOfDomainError:
            reason = "boundary"
            break
        t += h
        y = y_next
        ts.append(t)
        samples.append(y)
    arr = np.array(samples)
    return Trajectory(t=np.array(ts), x=arr[:, :3], u=arr[:, 3:], reason=reason, model=model)
