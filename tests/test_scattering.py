import math

import numpy as np
import pytest

import spinray.scattering as scattering
from spinray.errors import NotIncomingError, TotalReflectionRequiredError
from spinray.orbits import OrbitInvariants, Ray, make_ray, ray_from_point_direction
from spinray.scattering import (
    MODE_REFLECTION,
    MODE_REFRACTION,
    MODE_TOTAL_REFLECTION,
    Interface,
    casimirs,
    conservation_check,
    h_action,
    inverse_scatter,
    scatter,
    scatter_coefficients,
    snell_angles,
    symplecto_check,
)

THETAS = [math.radians(d) for d in (5, 15, 25, 35, 45, 55, 65, 75, 85)]
RATIOS = [0.5, 1.5, 2.0, -1.0]


def incoming_ray(theta, through=(0.0, 0.0, 0.0)):
    u = np.array([math.sin(theta), 0.0, math.cos(theta)])
    return ray_from_point_direction(np.asarray(through, dtype=float), u)


def flat_interface(n1=1.0, n2=1.5, anchor=(0.0, 0.0, 0.0)):
    return Interface(normal=(0.0, 0.0, 1.0), anchor=anchor, n1=n1, n2=n2)


def test_interface_validation():
    iface = Interface(normal=(0, 0, 2.0), anchor=(1, 2, 3), n1=1.0, n2=-1.5)
    assert np.allclose(iface.normal, [0, 0, 1])
    assert iface.signed_distance([1, 2, 5]) == 2.0
    with pytest.raises(ValueError):
        Interface(normal=(0, 0, 1), anchor=(0, 0, 0), n1=0.0, n2=1.5)
    with pytest.raises(ValueError):
        Interface(normal=(0, 0, 1), anchor=(0, 0, 0), n1=1.0, n2=np.inf)
    with pytest.raises(ValueError):
        Interface(normal=(0, 0, 0), anchor=(0, 0, 0), n1=1.0, n2=1.5)


def test_flipped_interface_swaps_sides():
    iface = Interface(normal=(0.0, 0.6, 0.8), anchor=(1, 2, 3), n1=1.0, n2=-1.5)
    flipped = iface.flipped()
    assert np.array_equal(flipped.normal, -iface.normal)
    assert np.array_equal(flipped.anchor, iface.anchor)
    assert (flipped.n1, flipped.n2) == (-1.5, 1.0)
    assert flipped.signed_distance([1, 2, 5]) == -iface.signed_distance([1, 2, 5])
    back = flipped.flipped()
    assert np.array_equal(back.normal, iface.normal) and (back.n1, back.n2) == (1.0, -1.5)


def test_casimirs_signed():
    assert casimirs(2.0, 1.5, 1.0) == (9.0, 3.0)
    assert casimirs(2.0, -1.5, 1.0) == (9.0, -3.0)


def test_refraction_worked_example():
    # theta1 = 30 deg, n1 = 1, n2 = 1.5, p = s = 1:
    # alpha = cos 30 = sqrt(3)/2, C1 = 1, C2 = 9/4, disc = 2,
    # lambda = sqrt(2) - sqrt(3)/2
    ray = incoming_ray(math.radians(30.0))
    co = scatter_coefficients(ray, 1.0, flat_interface(), OrbitInvariants(p=1.0, s=1.0))
    assert co.mode == MODE_REFRACTION
    assert co.lam == pytest.approx(0.5481881585886565, abs=1e-15)
    assert co.alpha == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
    assert co.z == 0.0
    assert co.mu == 0.0 and co.nu == 0.0
    # rho = ((2/3 - 1) alpha + lambda 2/3) / (1/4)
    rho = ((2.0 / 3.0 - 1.0) * math.sqrt(3) / 2 + co.lam * 2.0 / 3.0) / 0.25
    assert co.rho == pytest.approx(rho, abs=1e-15)
    out = scatter(ray, 1.0, flat_interface(), OrbitInvariants(p=1.0, s=1.0))
    assert np.linalg.norm(out.shift) == pytest.approx(0.1535672755952496, abs=1e-13)
    # outgoing angle is the Snell value arcsin(1/3)
    theta2 = math.acos(float(out.ray2.u @ [0, 0, 1]))
    assert theta2 == pytest.approx(math.asin(1.0 / 3.0), abs=1e-13)


def test_scatter_requires_incoming_momentum():
    ray = incoming_ray(math.radians(30.0))
    receding = make_ray(ray.q, -ray.u)
    with pytest.raises(NotIncomingError):
        scatter(receding, 1.0, flat_interface(), OrbitInvariants(p=1.0, s=1.0))
    grazing = make_ray([0, 0, 0], [1, 0, 0])
    with pytest.raises(NotIncomingError):
        scatter(grazing, 1.0, flat_interface(), OrbitInvariants(p=1.0, s=1.0))
    # "incoming" is read from the energy flow u, not from the momentum,
    # which points backward on a left-handed side 1
    left_handed = flat_interface(n1=-1.3, n2=1.0)
    inv = OrbitInvariants(p=1.0, s=1.0)
    out = scatter(ray, 1.0, left_handed, inv)
    assert conservation_check(ray, 1.0, out, left_handed, inv).within(1e-10)
    with pytest.raises(NotIncomingError):
        scatter(receding, 1.0, left_handed, inv)


def test_total_reflection_branch():
    iface = flat_interface(n1=1.0, n2=0.5)  # critical angle 30 deg
    ray = incoming_ray(math.radians(45.0))
    inv = OrbitInvariants(p=1.0, s=1.0)
    with pytest.raises(TotalReflectionRequiredError):
        scatter(ray, 1.0, iface, inv, mode="refract")
    out = scatter(ray, 1.0, iface, inv, mode="auto")
    assert out.mode == MODE_TOTAL_REFLECTION
    assert out.s2 == -1.0
    # mirrored direction, zero shift
    assert np.allclose(out.ray2.u, [math.sin(math.radians(45)), 0, -math.cos(math.radians(45))],
                       atol=1e-15)
    assert np.all(out.shift == 0.0)


def test_reflection_is_the_mirror_map(rng):
    inv = OrbitInvariants(p=2.0, s=1.0)
    for theta in THETAS:
        ray = incoming_ray(theta, through=rng.uniform(-1, 1, size=3))
        out = scatter(ray, 1.0, flat_interface(), inv, mode="reflect")
        assert out.mode == MODE_REFLECTION
        assert out.s2 == -1.0
        mirror = np.diag([1.0, 1.0, -1.0])
        assert np.allclose(out.ray2.u, mirror @ ray.u, atol=1e-14)
        # the reflected line is the mirror image of the incoming line
        expected = make_ray(mirror @ ray.q, mirror @ ray.u)
        assert np.allclose(out.ray2.q, expected.q, atol=1e-12)
        assert np.all(out.shift == 0.0)


def test_outgoing_line_meets_incoming_at_the_interface(rng):
    # mu and nu exist to make the two lines intersect on the plane, with
    # the crossing point displaced by the Hall shift
    for _ in range(40):
        theta = rng.uniform(0.05, 1.2)
        n1 = rng.uniform(0.8, 2.0)
        n2 = rng.choice([rng.uniform(1.1, 2.5), -rng.uniform(1.1, 2.5)])
        anchor = rng.uniform(-1, 1, size=3)
        iface = Interface(normal=(0, 0, 1), anchor=anchor, n1=n1, n2=n2)
        through = anchor + rng.uniform(-0.5, 0.5, size=3)
        ray = incoming_ray(theta, through=through)
        inv = OrbitInvariants(p=rng.uniform(0.5, 3.0), s=float(rng.choice([-1.0, 1.0])))
        try:
            out = scatter(ray, inv.s, iface, inv, mode="refract")
        except TotalReflectionRequiredError:
            continue
        # incoming piercing point of the plane
        t_hit = (iface.anchor - ray.q) @ iface.normal / (ray.u @ iface.normal)
        hit = ray.point_at(t_hit)
        target = hit + out.shift
        # distance from target to the outgoing line
        offset = target - out.ray2.q
        dist = np.linalg.norm(offset - out.ray2.u * (offset @ out.ray2.u))
        assert dist < 1e-10 * (1 + np.linalg.norm(target))


def test_snell_law_over_angle_and_ratio_grid():
    p = 1.3
    for ratio in RATIOS:
        for theta in THETAS:
            iface = flat_interface(n1=1.0, n2=ratio)
            ray = incoming_ray(theta)
            inv = OrbitInvariants(p=p, s=1.0)
            try:
                expected = snell_angles(theta, 1.0, ratio)
                out = scatter(ray, 1.0, iface, inv, mode="refract")
            except TotalReflectionRequiredError:
                with pytest.raises(TotalReflectionRequiredError):
                    snell_angles(theta, 1.0, ratio)
                continue
            u2 = out.ray2.u
            got = math.atan2(float(u2 @ [1, 0, 0]), float(u2 @ [0, 0, 1]))
            assert abs(got - expected) < 1e-12
            # the tangential momentum is conserved exactly
            assert abs(p * 1.0 * math.sin(theta) - p * ratio * math.sin(got)) < 1e-12


def test_snell_angles_validation():
    with pytest.raises(ValueError):
        snell_angles(-0.1, 1.0, 1.5)
    with pytest.raises(ValueError):
        snell_angles(math.pi / 2, 1.0, 1.5)
    with pytest.raises(ValueError):
        snell_angles(0.3, 1.0, 1.5, mode="diffract")
    assert snell_angles(0.3, 1.0, 1.5, mode="reflect") == pytest.approx(math.pi - 0.3)
    with pytest.raises(TotalReflectionRequiredError):
        snell_angles(math.radians(50), 1.0, 0.5)


def test_negative_index_refracts_to_the_same_side():
    # n2 = -1.5: the refracted direction tilts to the same side of the
    # normal as the incoming one (negative refraction) and the momentum
    # folds backward
    ray = incoming_ray(math.radians(30.0))
    iface = flat_interface(n1=1.0, n2=-1.5)
    inv = OrbitInvariants(p=1.0, s=1.0)
    out = scatter(ray, 1.0, iface, inv)
    assert out.mode == MODE_REFRACTION
    assert out.ray2.u[0] < 0.0  # tangential component flipped
    assert out.ray2.u[2] > 0.0  # still propagating upward
    assert out.pvec2 @ np.array([0, 0, 1.0]) < 0.0  # backward momentum
    assert np.allclose(out.pvec2, inv.p * iface.n2 * out.ray2.u, atol=1e-14)
    theta2 = math.atan2(float(out.ray2.u @ [1, 0, 0]), float(out.ray2.u @ [0, 0, 1]))
    assert theta2 == pytest.approx(snell_angles(math.radians(30), 1.0, -1.5), abs=1e-13)
    assert theta2 < 0.0


def test_equal_indices_give_the_identity_map(rng):
    # the crossing map is normalized by being the identity at n2 = n1
    for _ in range(20):
        theta = rng.uniform(0.05, 1.4)
        ray = incoming_ray(theta, through=rng.uniform(-0.5, 0.5, size=3))
        iface = flat_interface(n1=1.3, n2=1.3)
        out = scatter(ray, 1.0, iface, OrbitInvariants(p=2.0, s=1.0))
        assert out.mode == MODE_REFRACTION
        assert out.s2 == 1.0
        assert np.allclose(out.ray2.q, ray.q, atol=1e-14 * (1 + np.linalg.norm(ray.q)))
        assert np.allclose(out.ray2.u, ray.u, atol=1e-15)
        assert np.all(out.shift == 0.0)


def test_matched_left_handed_interface_has_no_shift():
    # n2 = -n1 is the perfectly impedance-matched left-handed interface:
    # the Hall term cancels identically
    for theta in THETAS:
        ray = incoming_ray(theta)
        iface = flat_interface(n1=1.0, n2=-1.0)
        out = scatter(ray, 1.0, iface, OrbitInvariants(p=1.0, s=1.0))
        assert np.all(out.shift == 0.0)
        assert out.ray2.u[2] > 0.0 and out.ray2.u[0] < 0.0


def test_conservation_across_the_grid(rng):
    worst = 0.0
    for ratio in RATIOS:
        for theta in THETAS:
            for s1 in (1.0, -1.0):
                iface = flat_interface(n1=1.0, n2=ratio)
                ray = incoming_ray(theta, through=rng.uniform(-0.5, 0.5, size=3))
                inv = OrbitInvariants(p=1.7, s=s1)
                out = scatter(ray, s1, iface, inv, mode="auto")
                res = conservation_check(ray, s1, out, iface, inv)
                assert res.within(1e-10)
                worst = max(worst, res.angular / res.scale, res.tangential / res.scale)
    assert worst < 1e-10


def test_zero_rho_violates_angular_momentum():
    ray = incoming_ray(math.radians(40.0))
    iface = flat_interface()
    inv = OrbitInvariants(p=1.0, s=1.0)
    out = scatter(ray, 1.0, iface, inv, zero_rho=True)
    res = conservation_check(ray, 1.0, out, iface, inv)
    assert not res.within(1e-10)
    assert res.angular > 1e-3


def test_normal_incidence_has_no_hall_shift():
    ray = incoming_ray(0.0)
    inv = OrbitInvariants(p=1.0, s=1.0)
    out = scatter(ray, 1.0, flat_interface(), inv)
    assert np.all(out.shift == 0.0)
    assert np.allclose(out.ray2.u, [0, 0, 1], atol=1e-15)


def test_shift_is_odd_in_spin_and_transverse(rng):
    for _ in range(30):
        theta = rng.uniform(0.1, 1.3)
        iface = flat_interface(n1=1.0, n2=rng.uniform(1.1, 2.0))
        ray = incoming_ray(theta, through=rng.uniform(-0.5, 0.5, size=3))
        p = rng.uniform(0.5, 3.0)
        plus = scatter(ray, 1.0, iface, OrbitInvariants(p=p, s=1.0)).shift
        minus = scatter(ray, -1.0, iface, OrbitInvariants(p=p, s=-1.0)).shift
        assert np.allclose(plus, -minus, atol=1e-15)
        assert abs(plus @ iface.normal) < 1e-15
        assert abs(plus @ ray.u) < 1e-12 * (1 + np.linalg.norm(plus))


def test_shift_scales_inversely_with_color():
    theta = math.radians(30.0)
    ray = incoming_ray(theta)
    iface = flat_interface()
    ps = np.geomspace(0.5, 5.0, 7)
    mags = [
        np.linalg.norm(scatter(ray, 1.0, iface, OrbitInvariants(p=p, s=1.0)).shift)
        for p in ps
    ]
    slope = np.polyfit(np.log(ps), np.log(mags), 1)[0]
    assert slope == pytest.approx(-1.0, abs=1e-10)


def test_scatter_is_a_symplectomorphism(rng):
    inv = OrbitInvariants(p=1.0, s=1.0)
    for ratio in RATIOS:
        for theta in (THETAS[1], THETAS[4], THETAS[7]):
            ray = incoming_ray(theta, through=rng.uniform(-0.3, 0.3, size=3))
            iface = flat_interface(n1=1.0, n2=ratio)
            dev = symplecto_check(ray, 1.0, iface, inv, samples=6, rng=rng)
            assert dev < 1e-5
    # negative control: removing the Hall term breaks the form
    bad = symplecto_check(
        incoming_ray(THETAS[4]), 1.0, flat_interface(), inv, samples=6, zero_rho=True
    )
    assert bad > 1e-3


def test_equivariance_under_plane_preserving_motions(rng):
    for _ in range(30):
        theta = rng.uniform(0.05, 1.3)
        anchor = rng.uniform(-1, 1, size=3)
        n2 = float(rng.choice([0.5, 1.5, 2.0, -1.0]))
        iface = Interface(normal=(0, 0, 1), anchor=anchor, n1=1.0, n2=n2)
        ray = incoming_ray(theta, through=anchor + rng.uniform(-0.4, 0.4, size=3))
        s1 = float(rng.choice([-1.0, 1.0]))
        inv = OrbitInvariants(p=rng.uniform(0.8, 2.0), s=s1)
        angle = rng.uniform(-math.pi, math.pi)
        c = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0])
        out = scatter(ray, s1, iface, inv, mode="auto")
        out_h = scatter(h_action(angle, c, ray, iface.normal), s1, iface, inv, mode="auto")
        moved = h_action(angle, c, out.ray2, iface.normal)
        assert out_h.mode == out.mode
        assert out_h.s2 == out.s2
        assert np.allclose(out_h.ray2.q, moved.q, atol=1e-9)
        assert np.allclose(out_h.ray2.u, moved.u, atol=1e-12)


def test_h_action_requires_in_plane_translation():
    ray = incoming_ray(0.3)
    with pytest.raises(ValueError):
        h_action(0.5, [0.0, 0.0, 1.0], ray, [0, 0, 1])


def test_scatter_round_trips_through_inverse(rng):
    for _ in range(40):
        theta = rng.uniform(0.05, 1.3)
        anchor = rng.uniform(-1, 1, size=3)
        n1 = float(rng.choice([1.0, -1.2]))
        n2 = float(rng.choice([0.5, 1.5, 2.0, -1.0]))
        iface = Interface(normal=(0, 0, 1), anchor=anchor, n1=n1, n2=n2)
        ray = incoming_ray(theta, through=anchor + rng.uniform(-0.4, 0.4, size=3))
        s1 = float(rng.choice([-1.0, 1.0]))
        inv = OrbitInvariants(p=rng.uniform(0.8, 2.0), s=s1)
        out = scatter(ray, s1, iface, inv, mode="auto")
        back, s_back = inverse_scatter(out, iface, inv)
        assert s_back == s1
        assert np.allclose(back.q, ray.q, atol=1e-10)
        assert np.allclose(back.u, ray.u, atol=1e-12)


def test_forced_reflection_round_trips(rng):
    for _ in range(10):
        ray = incoming_ray(rng.uniform(0.1, 1.3), through=rng.uniform(-0.4, 0.4, size=3))
        iface = flat_interface()
        inv = OrbitInvariants(p=1.0, s=1.0)
        out = scatter(ray, 1.0, iface, inv, mode="reflect")
        back, s_back = inverse_scatter(out, iface, inv)
        assert s_back == 1.0
        assert np.allclose(back.q, ray.q, atol=1e-12)
        assert np.allclose(back.u, ray.u, atol=1e-14)


def test_scatter_mode_validation():
    ray = incoming_ray(0.3)
    inv = OrbitInvariants(p=1.0, s=1.0)
    with pytest.raises(ValueError):
        scatter(ray, 1.0, flat_interface(), inv, mode="bounce")
    with pytest.raises(ValueError):
        scatter_coefficients(ray, 1.0, flat_interface(), inv, mode="bounce")


def test_scatter_coefficients_pick_the_branch():
    # "auto" reads the branch off the sign of the discriminant: refraction
    # below the critical angle (30 deg here), the mirror branch past it
    iface = flat_interface(n1=1.0, n2=0.5)
    inv = OrbitInvariants(p=1.0, s=1.0)
    below = scatter_coefficients(incoming_ray(math.radians(20.0)), 1.0, iface, inv, mode="auto")
    past = scatter_coefficients(incoming_ray(math.radians(45.0)), 1.0, iface, inv, mode="auto")
    assert (below.mode, below.s2) == (MODE_REFRACTION, 1.0)
    assert (past.mode, past.s2) == (MODE_TOTAL_REFLECTION, -1.0)
    assert past.lam == -2.0 * past.alpha and past.rho == 0.0
    forced = scatter_coefficients(incoming_ray(math.radians(45.0)), 1.0, iface, inv, mode="reflect")
    assert forced.mode == MODE_REFLECTION and forced.lam == past.lam
    with pytest.raises(TotalReflectionRequiredError):
        scatter_coefficients(incoming_ray(math.radians(45.0)), 1.0, iface, inv, mode="refract")


def test_hall_shift_matches_the_per_photon_formula():
    # independent oracle (Onoda, Murakami & Nagaosa 2004; Bliokh & Bliokh
    # 2006): the shift along n x u1 / |n x u1| is
    # s (cos theta2 - cos theta1) / (p n1 sin theta1), with signed n1
    anchor = np.array([0.3, -0.7, 1.1])
    n = np.array([0.0, 0.0, 1.0])
    worst, refracted = 0.0, 0
    for theta in np.linspace(0.05, 1.4, 12):
        for n1 in (1.0, 1.3, -1.2):
            for ratio in (0.6, 1.5, 2.5, -0.7, -1.0, -1.8):
                iface = flat_interface(n1=n1, n2=ratio * n1, anchor=anchor)
                ray = incoming_ray(theta, through=anchor + [0.2, 0.1, -0.3])
                for p in (0.5, 2.0):
                    for s in (1.0, -1.0):
                        out = scatter(ray, s, iface, OrbitInvariants(p=p, s=s))
                        if out.mode != MODE_REFRACTION:
                            continue
                        e = np.cross(n, ray.u)
                        sin1 = float(np.linalg.norm(e))
                        got = float(out.shift @ e) / sin1
                        cos1, cos2 = float(ray.u @ n), float(out.ray2.u @ n)
                        want = s * (cos2 - cos1) / (p * n1 * sin1)
                        worst = max(worst, abs(got - want))
                        refracted += 1
    assert refracted > 600
    assert worst < 1e-12
    # the worked value: 30 deg, n 1 -> 1.5, along n x u1 = +y
    out = scatter(incoming_ray(math.radians(30.0)), 1.0, flat_interface(),
                  OrbitInvariants(p=1.0, s=1.0))
    assert out.shift[1] == pytest.approx(0.15357, abs=1e-5)


@pytest.mark.parametrize("theta_deg", [30.0, 45.0], ids=["refraction", "total_reflection"])
def test_one_scatter_solves_once_and_builds_one_ray(monkeypatch, theta_deg):
    ray = incoming_ray(math.radians(theta_deg), through=(0.2, 0.1, -0.3))
    iface = flat_interface(n1=1.0, n2=0.5, anchor=(0.1, 0.4, 0.0))  # critical angle 30 deg
    counts = {"solves": 0, "rays": 0}
    solve = scattering.scatter_coefficients
    post_init = Ray.__post_init__

    def counted_solve(*args, **kwargs):
        counts["solves"] += 1
        return solve(*args, **kwargs)

    def counted_post_init(self):
        counts["rays"] += 1
        post_init(self)

    monkeypatch.setattr(scattering, "scatter_coefficients", counted_solve)
    monkeypatch.setattr(Ray, "__post_init__", counted_post_init)
    out = scatter(ray, 1.0, iface, OrbitInvariants(p=1.0, s=1.0), mode="auto")
    assert out.mode == (MODE_REFRACTION if theta_deg < 40.0 else MODE_TOTAL_REFLECTION)
    assert counts == {"solves": 1, "rays": 1}


def test_scatter_commutes_with_every_translation(rng):
    # full translation covariance, including motions off the plane, which
    # the plane-preserving equivariance check does not reach
    for _ in range(40):
        anchor = rng.uniform(-1, 1, size=3)
        n1 = float(rng.choice([1.0, 1.3, -1.2]))
        n2 = float(rng.choice([0.5, 1.5, 2.0, -1.0, -1.8])) * n1
        normal = rng.normal(size=3)
        iface = Interface(normal=normal, anchor=anchor, n1=n1, n2=n2)
        u = rng.normal(size=3)
        u = u * math.copysign(1.0, float(u @ iface.normal))
        ray = ray_from_point_direction(anchor + rng.uniform(-0.5, 0.5, size=3), u)
        s1 = float(rng.choice([-1.0, 1.0]))
        inv = OrbitInvariants(p=rng.uniform(0.5, 3.0), s=s1)
        t = rng.uniform(-3, 3, size=3)
        assert abs(float(t @ iface.normal)) > 1e-3
        moved_iface = Interface(normal=iface.normal, anchor=anchor + t, n1=n1, n2=n2)
        out = scatter(ray, s1, iface, inv)
        out_t = scatter(make_ray(ray.q + t, ray.u), s1, moved_iface, inv)
        expected = make_ray(out.ray2.q + t, out.ray2.u)
        assert (out_t.mode, out_t.s2) == (out.mode, out.s2)
        assert np.allclose(out_t.ray2.q, expected.q, rtol=0.0, atol=1e-12)
        assert np.allclose(out_t.ray2.u, expected.u, rtol=0.0, atol=1e-12)
        assert np.allclose(out_t.shift, out.shift, rtol=0.0, atol=1e-12)
        assert np.allclose(out_t.pvec2, out.pvec2, rtol=0.0, atol=1e-12)
