import numpy as np
import pytest

from spinray.orbits import (
    OrbitInvariants,
    OrbitTangent,
    Ray,
    make_ray,
    momentum_map,
    orbit_tangent,
    ray_from_point_direction,
    spinless_potential,
    symplectic_form,
    tangent_basis,
    wave_plane_bracket,
)
from spinray.vectors import orthonormal_complement

from conftest import random_unit


def test_invariants_validate_inputs():
    inv = OrbitInvariants(p=2.0, s=-1.0)
    assert inv.casimir == 4.0
    assert inv.casimir_prime == -2.0
    assert inv.helicity == -1
    assert OrbitInvariants(p=1.0, s=0.0).helicity == 0
    with pytest.raises(ValueError):
        OrbitInvariants(p=0.0, s=1.0)
    with pytest.raises(ValueError):
        OrbitInvariants(p=-1.0, s=1.0)
    with pytest.raises(ValueError):
        OrbitInvariants(p=np.nan, s=1.0)
    with pytest.raises(ValueError):
        OrbitInvariants(p=1.0, s=np.inf)


def test_photon_invariants():
    inv = OrbitInvariants.photon(p=3.0, chi=-1, hbar=0.5)
    assert inv.s == -0.5
    assert inv.helicity == -1
    with pytest.raises(ValueError):
        OrbitInvariants.photon(p=1.0, chi=2)


def test_ray_enforces_constraints():
    Ray(q=np.array([0.0, 1.0, 0.0]), u=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        Ray(q=np.array([0.5, 1.0, 0.0]), u=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        Ray(q=np.array([0.0, 1.0, 0.0]), u=np.array([2.0, 0.0, 0.0]))


def test_make_ray_projects_drift(rng):
    for _ in range(50):
        q = rng.normal(size=3)
        u = random_unit(rng)
        ray = make_ray(q, u)
        assert abs(ray.u @ ray.q) < 1e-12 * (1 + np.linalg.norm(ray.q))
        assert abs(ray.u @ ray.u - 1.0) < 1e-12


def test_rays_from_points_of_one_line_coincide(rng):
    for _ in range(50):
        x = rng.normal(size=3) * 3
        u = random_unit(rng)
        r1 = ray_from_point_direction(x, u)
        r2 = ray_from_point_direction(x + rng.uniform(-5, 5) * u, u)
        assert np.allclose(r1.q, r2.q, atol=1e-12)
        assert np.allclose(r1.u, r2.u, atol=1e-15)
        # the foot point is the closest point of the line to the origin
        t_grid = np.linspace(-2, 2, 41)
        dists = [np.linalg.norm(r1.point_at(t)) for t in t_grid]
        assert np.linalg.norm(r1.q) <= min(dists) + 1e-12


def test_orbit_tangent_validation_and_projection(rng):
    ray = ray_from_point_direction([0.0, 2.0, 0.0], [1.0, 0.0, 0.0])
    u = ray.u
    e1, e2 = orthonormal_complement(u)
    orbit_tangent(ray, dq=e1, du=np.zeros(3))
    with pytest.raises(ValueError):
        orbit_tangent(ray, dq=np.zeros(3), du=u)
    with pytest.raises(ValueError):
        # dq along u without the -<q, du> compensation
        orbit_tangent(ray, dq=u, du=e1)
    for _ in range(30):
        tan = orbit_tangent(ray, rng.normal(size=3), rng.normal(size=3), project=True)
        assert abs(u @ tan.du) < 1e-12
        assert abs(tan.dq @ u + ray.q @ tan.du) < 1e-12


def test_momentum_map_worked_example():
    # x = (0, 1, 0), u = (1, 0, 0), p = 1, s = 0:
    # ell = x cross u = (1*0 - 0*0, 0*0 - 0*0, 0*0 - 1*1) = (0, 0, -1)
    mom = momentum_map([0.0, 1.0, 0.0], [1.0, 0.0, 0.0], OrbitInvariants(p=1.0, s=0.0))
    assert np.allclose(mom.ell, [0.0, 0.0, -1.0], atol=1e-15)
    assert np.allclose(mom.pvec, [1.0, 0.0, 0.0], atol=1e-15)


def test_momentum_map_point_independent(rng):
    for _ in range(50):
        inv = OrbitInvariants(p=rng.uniform(0.5, 4.0), s=float(rng.choice([-1.0, 0.0, 1.0])))
        x = rng.normal(size=3) * 2
        u = random_unit(rng)
        m1 = momentum_map(x, u, inv)
        m2 = momentum_map(x + rng.uniform(-10, 10) * u, u, inv)
        assert np.allclose(m1.ell, m2.ell, atol=1e-10)
        assert np.allclose(m1.pvec, m2.pvec, atol=1e-15)


def test_casimirs_from_momentum_values(rng):
    for _ in range(200):
        inv = OrbitInvariants(p=rng.uniform(0.1, 10.0), s=float(rng.choice([-1.0, 0.0, 1.0])))
        mom = momentum_map(rng.normal(size=3) * 3, random_unit(rng), inv)
        assert abs(mom.pvec @ mom.pvec - inv.casimir) < 1e-12 * inv.casimir
        assert abs(mom.ell @ mom.pvec - inv.casimir_prime) < 1e-12 * (1 + abs(inv.casimir_prime))


def test_symplectic_form_worked_example():
    # u = e3, a = (dq = e1, du = 0), b = (dq = 0, du = e1):
    # omega = p (<a.du, b.dq> - <b.du, a.dq>) - s <u, 0 x e1> = -p <e1, e1> = -p
    ray = make_ray([0.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    a = orbit_tangent(ray, dq=[1.0, 0.0, 0.0], du=[0.0, 0.0, 0.0])
    b = orbit_tangent(ray, dq=[0.0, 0.0, 0.0], du=[1.0, 0.0, 0.0])
    val = symplectic_form(ray, a, b, OrbitInvariants(p=2.0, s=1.0))
    assert abs(val - (-2.0)) < 1e-15


def test_symplectic_form_antisymmetric_and_nondegenerate(rng):
    for _ in range(30):
        ray = ray_from_point_direction(rng.normal(size=3), random_unit(rng))
        inv = OrbitInvariants(p=rng.uniform(0.5, 4.0), s=float(rng.choice([-1.0, 1.0])))
        a = orbit_tangent(ray, rng.normal(size=3), rng.normal(size=3), project=True)
        b = orbit_tangent(ray, rng.normal(size=3), rng.normal(size=3), project=True)
        wab = symplectic_form(ray, a, b, inv)
        wba = symplectic_form(ray, b, a, inv)
        assert abs(wab + wba) < 1e-12 * (1 + abs(wab))
        basis = tangent_basis(ray)
        w = np.array([[symplectic_form(ray, s, t, inv) for t in basis] for s in basis])
        assert abs(np.linalg.det(w)) > 1e-6


def test_tangent_basis_satisfies_constraints(rng):
    for _ in range(30):
        ray = ray_from_point_direction(rng.normal(size=3) * 2, random_unit(rng))
        for tan in tangent_basis(ray):
            assert abs(ray.u @ tan.du) < 1e-12
            assert abs(tan.dq @ ray.u + ray.q @ tan.du) < 1e-12


def test_wave_plane_bracket_equals_s_over_p_squared(rng):
    for _ in range(60):
        inv = OrbitInvariants(p=rng.uniform(0.2, 8.0), s=float(rng.choice([-1.0, 0.0, 1.0])))
        ray = ray_from_point_direction(rng.normal(size=3) * 3, random_unit(rng))
        v1, v2 = orthonormal_complement(ray.u)
        got = wave_plane_bracket(ray, v1, v2, inv)
        assert abs(got - inv.s / inv.p**2) < 1e-8


def test_wave_plane_bracket_rejects_bad_frames():
    ray = make_ray([0, 0, 0], [0, 0, 1])
    inv = OrbitInvariants(p=1.0, s=1.0)
    with pytest.raises(ValueError):
        wave_plane_bracket(ray, [2, 0, 0], [0, 1, 0], inv)
    with pytest.raises(ValueError):
        wave_plane_bracket(ray, [1, 0, 0], [1, 0, 0], inv)
    with pytest.raises(ValueError):
        # left-handed: v1 x v2 = -u
        wave_plane_bracket(ray, [0, 1, 0], [1, 0, 0], inv)


def test_spinless_potential_worked_example():
    # theta(a) = -p <q, a.du>; q = (0, 1, 0), a.du = (0, 3, 0), p = 1 -> -3
    ray = make_ray([0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
    a = orbit_tangent(ray, dq=[0.0, 0.0, 0.0], du=[0.0, 3.0, 0.0], project=True)
    # projection keeps du = (0, 3, 0) (already orthogonal to u) and fixes dq
    assert np.allclose(a.du, [0.0, 3.0, 0.0])
    val = spinless_potential(ray, a, OrbitInvariants(p=1.0, s=0.0))
    assert abs(val - (-3.0)) < 1e-15


def test_spinless_potential_rejects_spin():
    ray = make_ray([0, 1, 0], [1, 0, 0])
    a = orbit_tangent(ray, [0, 0, 0], [0, 0, 1], project=True)
    with pytest.raises(ValueError):
        spinless_potential(ray, a, OrbitInvariants(p=1.0, s=1.0))


def test_spinless_potential_is_primitive_of_form(rng):
    # Stokes: the loop integral of theta around the boundary of a small
    # coordinate cell on the ray manifold must match the integral of the
    # spinless form over the cell.
    inv = OrbitInvariants(p=1.7, s=0.0)
    size, m, eps = 0.05, 8, 1e-5

    def run_case(ray, a, b):
        def surf(sig, tau):
            return make_ray(
                ray.q + sig * a.dq + tau * b.dq, ray.u + sig * a.du + tau * b.du
            )

        def tangent(sig, tau, dsig, dtau):
            plus = surf(sig + eps * dsig, tau + eps * dtau)
            minus = surf(sig - eps * dsig, tau - eps * dtau)
            return (plus.q - minus.q) / (2 * eps), (plus.u - minus.u) / (2 * eps)

        def theta(sig, tau, dsig, dtau):
            pt = surf(sig, tau)
            _, du = tangent(sig, tau, dsig, dtau)
            return -inv.p * float(pt.q @ du)

        # boundary, counterclockwise in (sig, tau), Simpson on each side
        nodes = np.linspace(0.0, size, 2 * m + 1)
        wts = np.ones(2 * m + 1)
        wts[1:-1:2], wts[2:-1:2] = 4.0, 2.0
        wts *= (size / (2 * m)) / 3.0
        loop = 0.0
        for vals, fixed, dsig, dtau, sign in [
            (nodes, 0.0, 1.0, 0.0, 1.0),      # bottom, +sig
            (nodes, size, 1.0, 0.0, -1.0),    # top, -sig
            (nodes, 0.0, 0.0, 1.0, -1.0),     # left, -tau (traversed downward)
            (nodes, size, 0.0, 1.0, 1.0),     # right, +tau
        ]:
            for t, w in zip(vals, wts):
                sig, tau = (t, fixed) if dsig else (fixed, t)
                loop += sign * w * theta(sig, tau, dsig, dtau)
        # area, midpoint rule with FD surface tangents
        area = 0.0
        cell = size / m
        for i in range(m):
            for j in range(m):
                sig, tau = (i + 0.5) * cell, (j + 0.5) * cell
                dq_s, du_s = tangent(sig, tau, 1.0, 0.0)
                dq_t, du_t = tangent(sig, tau, 0.0, 1.0)
                ta = OrbitTangent(dq=dq_s, du=du_s)
                tb = OrbitTangent(dq=dq_t, du=du_t)
                area += cell * cell * symplectic_form(surf(sig, tau), ta, tb, inv)
        assert abs(loop - area) < 1e-7 + 1e-4 * abs(area)

    for _ in range(5):
        ray = ray_from_point_direction(rng.normal(size=3), random_unit(rng))
        a = orbit_tangent(ray, rng.normal(size=3), rng.normal(size=3), project=True)
        b = orbit_tangent(ray, rng.normal(size=3), rng.normal(size=3), project=True)
        run_case(ray, a, b)
