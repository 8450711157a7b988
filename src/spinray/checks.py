"""Built-in verification suite behind `spinray check`.

Each check exercises one structural guarantee of the theory on seeded
random data and reports the worst residual it saw against its tolerance.
The suite is deterministic for a fixed seed.  The corrupt_rho switch
deliberately breaks the Hall term of the scattering map; a healthy build
must then FAIL the symplectomorphism check (negative control showing the
check has teeth).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import einstein_uu, g_unit, r_omega
from .fields import ConstantIndex, GaussianBumpIndex, IndexField, LinearGradientIndex
from .orbits import (
    OrbitInvariants,
    make_ray,
    momentum_map,
    ray_from_point_direction,
    wave_plane_bracket,
)
from .propagation import (
    MODEL_FULL,
    MetricState,
    PhotonState,
    direction_full_spin,
    direction_general_metric,
    integrate,
    kernel_residual,
)
from .runner import run_trace
from .scattering import (
    Interface,
    conservation_check,
    h_action,
    inverse_scatter,
    scatter,
    symplecto_check,
)
from .scene import Scene
from .vectors import cross_matrix, orthonormal_complement, unit


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_residual: float
    tolerance: float
    detail: str = ""

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "detail": self.detail,
        }


def _random_fields(rng: np.random.Generator) -> list[IndexField]:
    """A pair of well-behaved analytic fields drawn from the rng."""
    k = rng.uniform(-0.3, 0.3, size=3)
    bump = GaussianBumpIndex(
        n0=rng.uniform(1.0, 1.5),
        amplitude=rng.uniform(-0.3, 0.5),
        center=rng.uniform(-0.5, 0.5, size=3),
        width=rng.uniform(1.0, 2.0),
    )
    return [LinearGradientIndex(n0=rng.uniform(1.2, 2.0), k=k), bump]


def _random_state(rng: np.random.Generator) -> PhotonState:
    return PhotonState(x=rng.uniform(-0.8, 0.8, size=3), u=unit(rng.normal(size=3)))


def _random_inv(rng: np.random.Generator) -> OrbitInvariants:
    return OrbitInvariants(p=rng.uniform(1.5, 5.0), s=float(rng.choice([-1.0, 1.0])))


def check_orbit_invariants(rng: np.random.Generator, n: int = 200) -> CheckResult:
    worst = 0.0
    for _ in range(n):
        inv = OrbitInvariants(p=rng.uniform(0.1, 10.0), s=float(rng.choice([-1.0, 0.0, 1.0])))
        mom = momentum_map(rng.uniform(-5, 5, size=3), rng.normal(size=3), inv)
        c = float(mom.pvec @ mom.pvec)
        cp = float(mom.ell @ mom.pvec)
        worst = max(
            worst,
            abs(c - inv.casimir) / inv.casimir,
            abs(cp - inv.casimir_prime) / max(1.0, abs(inv.casimir_prime)),
        )
    return CheckResult("orbit-casimirs", worst < 1e-12, worst, 1e-12)


def check_wave_plane_bracket(rng: np.random.Generator, n: int = 50) -> CheckResult:
    worst = 0.0
    for _ in range(n):
        inv = OrbitInvariants(p=rng.uniform(0.1, 10.0), s=float(rng.choice([-1.0, 0.0, 1.0])))
        ray = ray_from_point_direction(rng.uniform(-3, 3, size=3), rng.normal(size=3))
        v1, v2 = orthonormal_complement(ray.u)
        got = wave_plane_bracket(ray, v1, v2, inv)
        worst = max(worst, abs(got - inv.s / inv.p**2))
    return CheckResult("wave-plane-bracket", worst < 1e-8, worst, 1e-8)


def check_kernel_residual(rng: np.random.Generator, n: int = 60) -> CheckResult:
    worst = 0.0
    for _ in range(n):
        for field in _random_fields(rng):
            st = _random_state(rng)
            inv = _random_inv(rng)
            d = direction_full_spin(st, inv, field)
            res = kernel_residual(st, d, inv, field)
            worst = max(worst, res / (inv.p * field.value(st.x)))
    return CheckResult("kernel-residual", worst < 1e-10, worst, 1e-10)


def check_model_tower(rng: np.random.Generator, n: int = 40) -> CheckResult:
    worst = 0.0
    for _ in range(n):
        for field in _random_fields(rng):
            st = _random_state(rng)
            inv = _random_inv(rng)
            full = direction_full_spin(st, inv, field)
            gen = direction_general_metric(MetricState.from_photon(st, field), inv, field)
            worst = max(
                worst,
                float(np.max(np.abs(full.dx - gen.dx))),
                float(np.max(np.abs(full.du - gen.du))),
            )
    return CheckResult("model-tower", worst < 1e-8, worst, 1e-8)


def check_trace_identity(rng: np.random.Generator, n: int = 40) -> CheckResult:
    worst = 0.0
    for _ in range(n):
        for field in _random_fields(rng):
            x = rng.uniform(-0.8, 0.8, size=3)
            U = g_unit(field, x, rng.normal(size=3))
            rom = r_omega(field, x, U)
            omega = field.value(x) * cross_matrix(U)
            ein = einstein_uu(field, x, U)
            contracted = -0.25 * float(np.trace(rom @ omega))
            worst = max(worst, abs(contracted - ein) / (1.0 + abs(ein)))
    return CheckResult("curvature-trace-identity", worst < 1e-9, worst, 1e-9)


_GRID_THETAS = (5.0, 15.0, 25.0, 35.0, 45.0, 55.0, 65.0, 75.0, 85.0)
_GRID_RATIOS = (0.5, 1.5, 2.0, -1.0)


def _grid_cases():
    for theta_deg in _GRID_THETAS:
        for ratio in _GRID_RATIOS:
            for s in (1.0, -1.0):
                yield math.radians(theta_deg), 1.0, ratio, s


def _incidence_ray(theta1: float):
    u1 = np.array([math.sin(theta1), 0.0, math.cos(theta1)])
    return make_ray(np.zeros(3), u1)


def check_interface_conservation(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for theta1, n1, n2, s in _grid_cases():
        iface = Interface(normal=(0, 0, 1), anchor=(0, 0, 0), n1=n1, n2=n2)
        ray1 = _incidence_ray(theta1)
        inv = OrbitInvariants(p=rng.uniform(0.5, 3.0), s=s)
        outcome = scatter(ray1, s, iface, inv, mode="auto")
        res = conservation_check(ray1, s, outcome, iface, inv)
        worst = max(worst, res.angular / res.scale, res.tangential / res.scale)
    return CheckResult("interface-conservation", worst < 1e-10, worst, 1e-10)


def check_symplectomorphism(rng: np.random.Generator, corrupt_rho: bool = False) -> CheckResult:
    worst = 0.0
    for theta1, n1, n2, s in _grid_cases():
        iface = Interface(normal=(0, 0, 1), anchor=(0, 0, 0), n1=n1, n2=n2)
        ray1 = _incidence_ray(theta1)
        inv = OrbitInvariants(p=1.0, s=s)
        dev = symplecto_check(
            ray1, s, iface, inv, samples=4, rng=rng, zero_rho=corrupt_rho
        )
        worst = max(worst, dev)
    detail = "rho forced to zero (negative control)" if corrupt_rho else ""
    return CheckResult("symplectomorphism", worst < 1e-5, worst, 1e-5, detail)


def check_equivariance(rng: np.random.Generator, n: int = 30) -> CheckResult:
    worst = 0.0
    iface = Interface(normal=(0, 0, 1), anchor=(0, 0, 0), n1=1.0, n2=1.5)
    inv = OrbitInvariants(p=1.0, s=1.0)
    for _ in range(n):
        theta1 = rng.uniform(0.1, 1.4)
        ray1 = _incidence_ray(theta1)
        angle = rng.uniform(0.0, 2 * math.pi)
        c = np.array([rng.normal(), rng.normal(), 0.0])
        s = float(rng.choice([-1.0, 1.0]))
        moved_then_scattered = scatter(
            h_action(angle, c, ray1, iface.normal), s, iface, inv, mode="auto"
        )
        scattered_then_moved = h_action(
            angle, c, scatter(ray1, s, iface, inv, mode="auto").ray2, iface.normal
        )
        worst = max(
            worst,
            float(np.max(np.abs(moved_then_scattered.ray2.q - scattered_then_moved.q))),
            float(np.max(np.abs(moved_then_scattered.ray2.u - scattered_then_moved.u))),
        )
    return CheckResult("equivariance", worst < 1e-9, worst, 1e-9)


def check_reversibility(rng: np.random.Generator, n: int = 30) -> CheckResult:
    worst = 0.0
    for _ in range(n):
        theta1 = rng.uniform(0.1, 1.3)
        ratio = float(rng.choice([0.8, 1.5, 2.0, -1.0, -1.3]))
        iface = Interface(normal=(0, 0, 1), anchor=rng.normal(size=3), n1=1.0, n2=ratio)
        u1 = np.array([math.sin(theta1), 0.0, math.cos(theta1)])
        ray1 = ray_from_point_direction(iface.anchor - u1 + rng.normal(size=3) * 0.1, u1)
        s = float(rng.choice([-1.0, 1.0]))
        inv = OrbitInvariants(p=rng.uniform(0.5, 2.0), s=s)
        outcome = scatter(ray1, s, iface, inv, mode="auto")
        back, s_back = inverse_scatter(outcome, iface, inv)
        worst = max(
            worst,
            float(np.max(np.abs(back.q - ray1.q))),
            float(np.max(np.abs(back.u - ray1.u))),
            abs(s_back - s),
        )
    return CheckResult("reversibility", worst < 1e-10, worst, 1e-10)


def check_snell_spin_rules(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for theta1, n1, n2, s in _grid_cases():
        iface = Interface(normal=(0, 0, 1), anchor=(0, 0, 0), n1=n1, n2=n2)
        ray1 = _incidence_ray(theta1)
        inv = OrbitInvariants(p=1.0, s=s)
        outcome = scatter(ray1, s, iface, inv, mode="auto")
        u2 = outcome.ray2.u
        n = iface.normal
        tang = ray1.u - n * float(n @ ray1.u)
        tang /= np.linalg.norm(tang)
        sin2 = float(u2 @ tang)
        if outcome.mode == "refraction":
            worst = max(worst, abs(n1 * math.sin(theta1) - n2 * sin2))
            worst = max(worst, abs(outcome.s2 - s))
        else:
            worst = max(worst, abs(sin2 - math.sin(theta1)))
            worst = max(worst, abs(outcome.s2 + s))
        flipped = scatter(ray1, -s, iface, inv, mode="auto")
        worst = max(worst, float(np.max(np.abs(outcome.shift + flipped.shift))))
        if n2 == -n1:
            worst = max(worst, float(np.linalg.norm(outcome.shift)))
    return CheckResult("snell-spin-rules", worst < 1e-12, worst, 1e-12)


def check_rk4_order(rng: np.random.Generator) -> CheckResult:
    field = GaussianBumpIndex(n0=1.2, amplitude=0.4, center=(0.3, -0.2, 0.5), width=1.5)
    inv = OrbitInvariants(p=2.0, s=1.0)
    start = PhotonState(x=(-0.5, 0.1, -0.4), u=unit((0.8, 0.3, 0.5)))
    ends = []
    for step in (0.08, 0.04, 0.02):
        traj = integrate(start, inv, field, model=MODEL_FULL, step=step, max_len=1.6)
        ends.append(np.concatenate([traj.x[-1], traj.u[-1]]))
    e1 = float(np.linalg.norm(ends[0] - ends[1]))
    e2 = float(np.linalg.norm(ends[1] - ends[2]))
    order = math.log2(e1 / e2) if e2 > 0 else float("inf")
    return CheckResult("rk4-order", order >= 3.9, order, 3.9,
                       "observed self-convergence order (tolerance is a floor)")


def check_straight_lines(rng: np.random.Generator) -> CheckResult:
    field = ConstantIndex(n0=1.4)
    worst = 0.0
    for s in (-1.0, 0.0, 1.0):
        inv = OrbitInvariants(p=1.0, s=s)
        start = _random_state(rng)
        traj = integrate(start, inv, field, model=MODEL_FULL, step=0.05, max_len=4.0)
        expect = start.x[None, :] + traj.t[:, None] * start.u[None, :]
        worst = max(worst, float(np.max(np.abs(traj.x - expect))) / traj.arc_length)
    return CheckResult("straight-lines", worst < 1e-12, worst, 1e-12)


def builtin_checks(seed: int = 0, corrupt_rho: bool = False) -> list[CheckResult]:
    """Run the full built-in suite with one seeded generator."""
    rng = np.random.default_rng(seed)
    return [
        check_orbit_invariants(rng),
        check_wave_plane_bracket(rng),
        check_kernel_residual(rng),
        check_model_tower(rng),
        check_trace_identity(rng),
        check_interface_conservation(rng),
        check_symplectomorphism(rng, corrupt_rho=corrupt_rho),
        check_equivariance(rng),
        check_reversibility(rng),
        check_snell_spin_rules(rng),
        check_rk4_order(rng),
        check_straight_lines(rng),
    ]


def scene_checks(scene: Scene) -> list[CheckResult]:
    """Trace every source of a scene with the full model; re-verify each scatter event.

    An empty scene (no sources) yields zero checks; the report layer
    flags that as a warning rather than a pass of substance.
    """
    results = []
    for i in range(len(scene.sources)):
        trace = run_trace(scene, i, model=MODEL_FULL)
        worst = 0.0
        n_events = 0
        for ev in trace.scatter_events:
            worst = max(worst, ev["res_L"], ev["res_P"])
            n_events += 1
        results.append(
            CheckResult(
                name=f"trace-conservation[source={i}]",
                passed=worst < 1e-10,
                max_residual=worst,
                tolerance=1e-10,
                detail=f"{n_events} scatter events, termination {trace.termination}",
            )
        )
    return results


def report_from_results(suite: str, seed: int, results: list[CheckResult]) -> dict:
    """Machine-readable report document for a list of check results."""
    doc = {
        "spinray_check": 1,
        "suite": suite,
        "seed": seed,
        "n_checks": len(results),
        "passed": all(r.passed for r in results),
        "checks": [r.to_doc() for r in results],
    }
    if not results:
        doc["warning"] = "no checks executed (empty scene)"
    return doc
