"""Acceptance gate: ten end-to-end criteria with one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
Every criterion is seeded and finishes in seconds.  Criteria 01, 02, 04,
08 and 09 run the built-in checks of spinray.checks on their own seeds
and sizes; the rest compute their residuals here.
"""

import json
import math
import subprocess
import sys
from contextlib import contextmanager

import numpy as np

from spinray.checks import (
    check_kernel_residual,
    check_model_tower,
    check_orbit_invariants,
    check_rk4_order,
    check_straight_lines,
    check_symplectomorphism,
    check_wave_plane_bracket,
)
from spinray.curvature import christoffel, einstein_uu, g_unit, r_omega
from spinray.fields import GaussianBumpIndex, LinearGradientIndex
from spinray.orbits import OrbitInvariants, make_ray, ray_from_point_direction
from spinray.propagation import (
    PhotonState,
    direction_full_spin,
    direction_linearized,
    direction_spinless,
)
from spinray.scattering import (
    Interface,
    conservation_check,
    h_action,
    inverse_scatter,
    scatter,
    symplecto_check,
)
from spinray.vectors import unit

THETAS_DEG = (5.0, 15.0, 25.0, 35.0, 45.0, 55.0, 65.0, 75.0, 85.0)
RATIOS = (0.5, 1.5, 2.0, -1.0)


@contextmanager
def criterion(num, label):
    info = {}
    try:
        yield info
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL: {label}")
        raise
    detail = info.get("detail", "")
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} PASS: {label}{tail}")


def random_fields(rng):
    k = rng.uniform(-0.3, 0.3, size=3)
    bump = GaussianBumpIndex(
        n0=rng.uniform(1.0, 1.5),
        amplitude=rng.uniform(-0.3, 0.5),
        center=rng.uniform(-0.5, 0.5, size=3),
        width=rng.uniform(1.0, 2.0),
    )
    return [LinearGradientIndex(n0=rng.uniform(1.2, 2.0), k=k), bump]


def random_state(rng):
    return PhotonState(x=rng.uniform(-0.8, 0.8, size=3), u=unit(rng.normal(size=3)))


def incidence_ray(theta1):
    return make_ray(np.zeros(3), [math.sin(theta1), 0.0, math.cos(theta1)])


def flat_interface(ratio):
    return Interface(normal=(0, 0, 1), anchor=(0, 0, 0), n1=1.0, n2=ratio)


def grid_cases():
    for theta_deg in THETAS_DEG:
        for ratio in RATIOS:
            for s in (1.0, -1.0):
                yield math.radians(theta_deg), ratio, s


def test_01_kernel_annihilation():
    with criterion(1, "kernel annihilation residual < 1e-10 on 240 states") as info:
        # 120 draws of the linear and the Gaussian field, one state each
        worst = check_kernel_residual(np.random.default_rng(101), n=120).max_residual
        assert worst < 1e-10
        info["detail"] = f"max residual {worst:.2e}"


def test_02_model_tower():
    with criterion(2, "model tower: general = full, linearized O(eps^2), s=0 limit") as info:
        rng = np.random.default_rng(202)
        worst_gen = check_model_tower(rng, n=60).max_residual
        assert worst_gen < 1e-8

        khat = unit([2.0, -1.0, 2.0])
        states = [random_state(rng) for _ in range(10)]
        inv = OrbitInvariants(p=1.0, s=1.0)
        devs = []
        for eps in (1e-2, 1e-3, 1e-4):
            field = LinearGradientIndex(n0=1.3, k=eps * khat)
            dev = 0.0
            for st in states:
                full = direction_full_spin(st, inv, field)
                lin = direction_linearized(st, inv, field)
                dev = max(dev,
                          float(np.max(np.abs(full.dx - lin.dx))),
                          float(np.max(np.abs(full.du - lin.du))))
            devs.append(dev)
        slopes = [math.log10(devs[i] / devs[i + 1]) for i in range(2)]
        assert min(slopes) >= 1.9

        worst_s0 = 0.0
        for _ in range(50):
            for field in random_fields(rng):
                st = random_state(rng)
                inv0 = OrbitInvariants(p=rng.uniform(0.5, 4.0), s=0.0)
                full = direction_full_spin(st, inv0, field)
                fermat = direction_spinless(st, field)
                worst_s0 = max(worst_s0,
                               float(np.max(np.abs(full.dx - fermat.dx))),
                               float(np.max(np.abs(full.du - fermat.du))))
        assert worst_s0 < 1e-12
        info["detail"] = (f"general {worst_gen:.2e}, slopes "
                          f"{slopes[0]:.2f}/{slopes[1]:.2f}, s=0 {worst_s0:.2e}")


def fd_metric_gamma(field, x, h=1e-5):
    def metric(y):
        n = field.value(y)
        return n * n * np.eye(3)

    dg = np.zeros((3, 3, 3))
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = h
        dg[axis] = (metric(x + e) - metric(x - e)) / (2 * h)
    ginv = np.eye(3) / field.value(x) ** 2
    lowered = np.einsum("ilj->lij", dg) + np.einsum("jli->lij", dg) - dg
    return 0.5 * np.einsum("kl,lij->kij", ginv, lowered)


def fd_ricci(field, x, h=1e-5):
    def gam(y):
        return christoffel(field, y).gamma

    dgam = np.zeros((3, 3, 3, 3))
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = h
        dgam[axis] = (gam(x + e) - gam(x - e)) / (2 * h)
    g0 = gam(x)
    ric = np.einsum("iijk->jk", dgam) - np.einsum("jiik->jk", dgam)
    ric += np.einsum("iip,pjk->jk", g0, g0) - np.einsum("ijp,pik->jk", g0, g0)
    return ric


def test_03_curvature_closed_forms():
    with criterion(3, "curvature closed forms vs finite differences, trace identity") as info:
        rng = np.random.default_rng(303)
        worst_gamma = worst_ric = worst_scal = worst_trace = 0.0
        count = 0
        for _ in range(50):
            for field in random_fields(rng):
                x = rng.uniform(-0.8, 0.8, size=3)
                data = christoffel(field, x)
                worst_gamma = max(worst_gamma,
                                  float(np.max(np.abs(data.gamma - fd_metric_gamma(field, x)))))
                oracle_ric = fd_ricci(field, x)
                worst_ric = max(worst_ric,
                                float(np.max(np.abs(data.ricci - oracle_ric))))
                n = field.value(x)
                worst_scal = max(worst_scal,
                                 abs(data.scalar - float(np.trace(oracle_ric)) / n**2)
                                 / (1.0 + abs(data.scalar)))
                U = g_unit(field, x, rng.normal(size=3))
                ein = einstein_uu(field, x, U)
                omega = n * np.array([[0, -U[2], U[1]],
                                      [U[2], 0, -U[0]],
                                      [-U[1], U[0], 0]])
                contracted = -0.25 * float(np.trace(r_omega(field, x, U) @ omega))
                worst_trace = max(worst_trace, abs(contracted - ein) / (1.0 + abs(ein)))
                count += 1
        assert count >= 100
        assert worst_gamma < 1e-5
        assert worst_ric < 1e-5
        assert worst_scal < 1e-5
        assert worst_trace < 1e-9
        info["detail"] = (f"gamma {worst_gamma:.2e}, ricci {worst_ric:.2e}, "
                          f"trace {worst_trace:.2e}")


def test_04_scattering_symplectomorphism():
    with criterion(4, "scattering preserves the orbit form; rho=0 control fails") as info:
        rng = np.random.default_rng(404)
        worst = check_symplectomorphism(rng).max_residual
        assert worst < 1e-5
        control = symplecto_check(incidence_ray(math.radians(35.0)), 1.0,
                                  flat_interface(1.5), OrbitInvariants(p=1.0, s=1.0),
                                  samples=4, rng=rng, zero_rho=True)
        assert control > 1e-3
        info["detail"] = f"max deviation {worst:.2e}, control {control:.2e}"


def test_05_conservation_and_laws():
    with criterion(5, "conservation, Snell law, mirror law, spin rules") as info:
        rng = np.random.default_rng(505)
        worst_cons = worst_snell = worst_mirror = 0.0
        for theta1, ratio, s in grid_cases():
            iface = flat_interface(ratio)
            ray1 = incidence_ray(theta1)
            inv = OrbitInvariants(p=rng.uniform(0.5, 3.0), s=s)
            out = scatter(ray1, s, iface, inv, mode="auto")
            res = conservation_check(ray1, s, out, iface, inv)
            worst_cons = max(worst_cons, res.angular / res.scale,
                             res.tangential / res.scale)
            nvec = np.array([0.0, 0.0, 1.0])
            tang = unit(ray1.u - nvec * float(nvec @ ray1.u))
            sin2 = float(out.ray2.u @ tang)
            if out.mode == "refraction":
                worst_snell = max(worst_snell, abs(math.sin(theta1) - ratio * sin2))
                assert out.s2 == s
            else:
                worst_snell = max(worst_snell, abs(sin2 - math.sin(theta1)))
                assert out.s2 == -s
            mirror = scatter(ray1, s, iface, inv, mode="reflect")
            expect = ray1.u - 2.0 * float(nvec @ ray1.u) * nvec
            worst_mirror = max(worst_mirror,
                               float(np.max(np.abs(mirror.ray2.u - expect))))
            assert mirror.s2 == -s
        assert worst_cons < 1e-10
        assert worst_snell < 1e-12
        assert worst_mirror < 1e-14
        info["detail"] = (f"conservation {worst_cons:.2e}, snell {worst_snell:.2e}, "
                          f"mirror {worst_mirror:.2e}")


def test_06_transverse_shift():
    with criterion(6, "transverse shift value, zeros, parity, 1/p scaling") as info:
        inv = OrbitInvariants(p=1.0, s=1.0)
        iface = flat_interface(1.5)
        out = scatter(incidence_ray(math.radians(30.0)), 1.0, iface, inv)
        mag = float(np.linalg.norm(out.shift))
        assert abs(mag - 0.1535680) < 1e-6

        normal = scatter(incidence_ray(0.0), 1.0, iface, inv)
        assert float(np.linalg.norm(normal.shift)) <= 1e-12
        for theta_deg in THETAS_DEG:
            theta1 = math.radians(theta_deg)
            refl = scatter(incidence_ray(theta1), 1.0, iface, inv, mode="reflect")
            assert float(np.linalg.norm(refl.shift)) <= 1e-12
            lhm = scatter(incidence_ray(theta1), 1.0, flat_interface(-1.0), inv)
            assert float(np.linalg.norm(lhm.shift)) <= 1e-12

        flipped = scatter(incidence_ray(math.radians(30.0)), -1.0, iface,
                          OrbitInvariants(p=1.0, s=-1.0))
        assert float(np.max(np.abs(out.shift + flipped.shift))) <= 1e-15 * mag

        ps = np.geomspace(0.5, 5.0, 9)
        mags = []
        for p in ps:
            o = scatter(incidence_ray(math.radians(30.0)), 1.0, iface,
                        OrbitInvariants(p=float(p), s=1.0))
            mags.append(float(np.linalg.norm(o.shift)))
        slope = float(np.polyfit(np.log(ps), np.log(mags), 1)[0])
        assert abs(slope + 1.0) < 0.01
        info["detail"] = f"|shift| {mag:.7f}, scaling exponent {slope:+.4f}"


def test_07_equivariance_and_reversibility():
    with criterion(7, "interface symmetry equivariance and exact inversion") as info:
        rng = np.random.default_rng(707)
        worst_eq = 0.0
        nvec = (0.0, 0.0, 1.0)
        for _ in range(100):
            theta1 = rng.uniform(0.05, 1.45)
            ratio = float(rng.choice(RATIOS))
            s = float(rng.choice([-1.0, 1.0]))
            iface = Interface(normal=nvec, anchor=rng.normal(size=3), n1=1.0, n2=ratio)
            ray1 = ray_from_point_direction(
                iface.anchor - incidence_ray(theta1).u + 0.1 * rng.normal(size=3),
                incidence_ray(theta1).u)
            inv = OrbitInvariants(p=1.0, s=s)
            angle = rng.uniform(0.0, 2 * math.pi)
            c = np.array([rng.normal(), rng.normal(), 0.0])
            a = scatter(h_action(angle, c, ray1, nvec), s, iface, inv, mode="auto").ray2
            b = h_action(angle, c, scatter(ray1, s, iface, inv, mode="auto").ray2, nvec)
            worst_eq = max(worst_eq,
                           float(np.max(np.abs(a.q - b.q))),
                           float(np.max(np.abs(a.u - b.u))))
        assert worst_eq < 1e-9

        worst_inv = 0.0
        for _ in range(100):
            theta1 = rng.uniform(0.05, 1.3)
            ratio = float(rng.choice([0.8, 1.5, 2.0, -1.0, -1.3]))
            s = float(rng.choice([-1.0, 1.0]))
            iface = Interface(normal=nvec, anchor=rng.normal(size=3), n1=1.0, n2=ratio)
            ray1 = ray_from_point_direction(
                iface.anchor - incidence_ray(theta1).u + 0.1 * rng.normal(size=3),
                incidence_ray(theta1).u)
            inv = OrbitInvariants(p=rng.uniform(0.5, 2.0), s=s)
            out = scatter(ray1, s, iface, inv, mode="auto")
            back, s_back = inverse_scatter(out, iface, inv)
            worst_inv = max(worst_inv,
                            float(np.max(np.abs(back.q - ray1.q))),
                            float(np.max(np.abs(back.u - ray1.u))),
                            abs(s_back - s))
        assert worst_inv < 1e-10
        info["detail"] = f"equivariance {worst_eq:.2e}, inversion {worst_inv:.2e}"


def test_08_orbit_algebra():
    with criterion(8, "wave-plane bracket s/p^2 and exact Casimirs") as info:
        rng = np.random.default_rng(808)
        worst_br = check_wave_plane_bracket(rng, 300).max_residual
        assert worst_br < 1e-8
        worst_cas = check_orbit_invariants(rng, 1000).max_residual
        assert worst_cas < 1e-12
        info["detail"] = f"bracket {worst_br:.2e}, casimirs {worst_cas:.2e}"


def test_09_integrator_quality():
    with criterion(9, "RK4 self-convergence order and straight constant-index rays") as info:
        rng = np.random.default_rng(909)
        order = check_rk4_order(rng).max_residual
        assert order >= 3.9
        worst = check_straight_lines(rng).max_residual
        assert worst < 1e-12
        info["detail"] = f"order {order:.2f}, straightness {worst:.2e}"


def test_10_cli_determinism(tmp_path):
    with criterion(10, "byte-identical sweep output and green check suite") as info:
        spec = {"spinray_sweep": 1, "parameter": "incidence_angle",
                "start": 5.0, "stop": 85.0, "count": 17}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        run = [sys.executable, "-m", "spinray"]
        a = subprocess.run([*run, "sweep", "--spec", str(path)], capture_output=True)
        b = subprocess.run([*run, "sweep", "--spec", str(path)], capture_output=True)
        assert a.returncode == 0 and b.returncode == 0
        assert a.stdout == b.stdout
        assert len(a.stdout) > 0

        report_path = tmp_path / "report.json"
        chk = subprocess.run([*run, "check", "--out", str(report_path)],
                             capture_output=True)
        assert chk.returncode == 0
        report = json.loads(report_path.read_text())
        assert report["passed"] is True
        info["detail"] = f"{len(a.stdout)} sweep bytes, {report['n_checks']} checks"
