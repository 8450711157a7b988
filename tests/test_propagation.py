import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from spinray.curvature import christoffel
from spinray.errors import (
    DegenerateKernelError,
    OutOfDomainError,
    SpinCurvatureSingularityError,
)
from spinray import propagation
from spinray.fields import (
    ConstantIndex,
    GaussianBumpIndex,
    GridIndex,
    IndexField,
    LinearGradientIndex,
)
from spinray.orbits import OrbitInvariants
from spinray.propagation import (
    MODEL_FULL,
    MODEL_GENERAL,
    MODEL_LINEARIZED,
    MODEL_SPINLESS,
    MetricState,
    PhotonState,
    Trajectory,
    canonical_model,
    direction_full_spin,
    direction_general_metric,
    direction_linearized,
    direction_spinless,
    integrate,
    kernel_residual,
    momentum_hat,
)

from conftest import random_unit


def sample_fields(rng):
    return [
        LinearGradientIndex(n0=rng.uniform(1.2, 2.0), k=rng.uniform(-0.3, 0.3, size=3)),
        GaussianBumpIndex(
            n0=rng.uniform(1.0, 1.5),
            amplitude=rng.uniform(-0.3, 0.5),
            center=rng.uniform(-0.5, 0.5, size=3),
            width=rng.uniform(1.0, 2.0),
        ),
    ]


def random_state(rng):
    return PhotonState(x=rng.uniform(-0.8, 0.8, size=3), u=random_unit(rng))


def random_inv(rng):
    return OrbitInvariants(p=rng.uniform(1.5, 5.0), s=float(rng.choice([-1.0, 1.0])))


def test_canonical_model_aliases():
    assert canonical_model("full") == MODEL_FULL
    assert canonical_model("spinless") == MODEL_SPINLESS
    assert canonical_model("linearized") == MODEL_LINEARIZED
    assert canonical_model("general") == MODEL_GENERAL
    assert canonical_model(MODEL_FULL) == MODEL_FULL
    with pytest.raises(ValueError):
        canonical_model("fermat")


def test_momentum_hat_worked_example():
    # n = 1 + z at the origin, u = e1, p = s = 1: g = -e3,
    # g x u = (0, -1, 0), phat = (1, -1, 0)
    field = LinearGradientIndex(n0=1.0, k=[0.0, 0.0, 1.0])
    st = PhotonState(x=[0.0, 0.0, 0.0], u=[1.0, 0.0, 0.0])
    phat = momentum_hat(st, OrbitInvariants(p=1.0, s=1.0), field)
    assert np.allclose(phat, [1.0, -1.0, 0.0], atol=1e-15)


def test_spinless_direction_worked_example():
    field = LinearGradientIndex(n0=1.0, k=[0.0, 0.0, 1.0])
    d = direction_spinless(PhotonState(x=[0, 0, 0], u=[1, 0, 0]), field)
    assert np.allclose(d.dx, [1.0, 0.0, 0.0])
    assert np.allclose(d.du, [0.0, 0.0, 1.0])


def test_kernel_directions_unit_speed_and_forward(rng):
    for _ in range(30):
        for field in sample_fields(rng):
            st = random_state(rng)
            inv = random_inv(rng)
            mst = MetricState.from_photon(st, field)
            for d in (
                direction_spinless(st, field),
                direction_full_spin(st, inv, field),
                direction_linearized(st, inv, field),
                direction_general_metric(mst, inv, field),
            ):
                assert abs(np.linalg.norm(d.dx) - 1.0) < 1e-12
                assert d.dx @ st.u > 0.0
                assert abs(d.du @ st.u) < 1e-12


def test_full_spin_kernel_annihilates_transport_form(rng):
    # the defining property: the residual of the 2-form on the computed
    # direction sits at rounding level for every state
    worst = 0.0
    for _ in range(200):
        for field in sample_fields(rng):
            st = random_state(rng)
            inv = random_inv(rng)
            d = direction_full_spin(st, inv, field)
            res = kernel_residual(st, d, inv, field)
            worst = max(worst, res / (inv.p * field.value(st.x)))
    assert worst < 1e-10


def test_general_metric_matches_full_spin(rng):
    for _ in range(100):
        for field in sample_fields(rng):
            st = random_state(rng)
            inv = random_inv(rng)
            d_full = direction_full_spin(st, inv, field)
            d_gen = direction_general_metric(MetricState.from_photon(st, field), inv, field)
            assert np.allclose(d_full.dx, d_gen.dx, atol=1e-8)
            assert np.allclose(d_full.du, d_gen.du, atol=1e-8)


def test_spinless_limit_is_exact_at_zero_spin(rng):
    for _ in range(30):
        for field in sample_fields(rng):
            st = random_state(rng)
            inv = OrbitInvariants(p=rng.uniform(0.5, 4.0), s=0.0)
            base = direction_spinless(st, field)
            d_full = direction_full_spin(st, inv, field)
            d_lin = direction_linearized(st, inv, field)
            assert np.allclose(d_full.dx, base.dx, atol=1e-12)
            assert np.allclose(d_full.du, base.du, atol=1e-12)
            assert np.allclose(d_lin.dx, base.dx, atol=1e-12)
            assert np.allclose(d_lin.du, base.du, atol=1e-12)


def test_spin_to_zero_continuity():
    # tiny spin must land within 1e-8 of the spinless direction in a
    # weak gradient
    field = LinearGradientIndex(n0=1.0, k=[0.0, 0.0, 0.001])
    st = PhotonState(x=[0.1, -0.2, 0.3], u=[0.6, 0.0, 0.8])
    base = direction_spinless(st, field)
    d = direction_full_spin(st, OrbitInvariants(p=1.0, s=1e-6), field)
    assert np.linalg.norm(d.dx - base.dx) < 1e-8
    assert np.linalg.norm(d.du - base.du) < 1e-8


def test_linearized_converges_quadratically_to_full():
    # on n = 1 + eps z the two models differ at second order in eps
    st = PhotonState(x=[0.2, 0.1, -0.1], u=[0.48, 0.6, 0.64])
    inv = OrbitInvariants(p=2.0, s=1.0)
    eps_list = [1e-2, 1e-3, 1e-4]
    gaps = []
    for eps in eps_list:
        field = LinearGradientIndex(n0=1.3, k=[0.0, 0.0, eps])
        d_full = direction_full_spin(st, inv, field)
        d_lin = direction_linearized(st, inv, field)
        gaps.append(
            max(
                np.linalg.norm(d_full.dx - d_lin.dx),
                np.linalg.norm(d_full.du - d_lin.du),
            )
        )
    slopes = [
        math.log(gaps[i] / gaps[i + 1]) / math.log(eps_list[i] / eps_list[i + 1])
        for i in range(2)
    ]
    assert min(slopes) > 1.9


def test_degenerate_kernel_is_reported():
    # n = 1 + z, u perpendicular to the gradient, p = |s|: the step
    # direction collapses exactly
    field = LinearGradientIndex(n0=1.0, k=[0.0, 0.0, 1.0])
    st = PhotonState(x=[0.0, 0.0, 0.0], u=[1.0, 0.0, 0.0])
    with pytest.raises(DegenerateKernelError):
        direction_full_spin(st, OrbitInvariants(p=1.0, s=1.0), field)
    # the same state under the covariant model hits the curvature pole
    # p^2 + s^2 Ein(U, U) = 1 - 1 = 0
    with pytest.raises(SpinCurvatureSingularityError):
        direction_general_metric(
            MetricState.from_photon(st, field), OrbitInvariants(p=1.0, s=1.0), field
        )
    # away from the degenerate color both models work
    d = direction_full_spin(st, OrbitInvariants(p=1.5, s=1.0), field)
    assert np.isfinite(d.dx).all()


def test_integrate_straight_lines_in_constant_medium(rng):
    field = ConstantIndex(n0=1.4)
    for model in ("spinless", "full", "linearized", "general"):
        for s in (-1.0, 0.0, 1.0):
            if model == "spinless" and s != 0.0:
                continue
            u = random_unit(rng)
            x0 = rng.uniform(-1, 1, size=3)
            inv = OrbitInvariants(p=2.0, s=s)
            traj = integrate(
                PhotonState(x=x0, u=u), inv, field, model=model, step=0.05, max_len=3.0
            )
            assert traj.reason == "max-steps"
            expected = x0 + traj.t[-1] * u
            assert np.linalg.norm(traj.x[-1] - expected) < 1e-12 * traj.t[-1]
            assert np.allclose(traj.u[-1], u, atol=1e-12)


def test_integrate_preserves_unit_direction_and_arc_gauge(rng):
    field = GaussianBumpIndex(n0=1.2, amplitude=0.3, center=[0.5, 0.0, 0.2], width=0.8)
    traj = integrate(
        PhotonState(x=[-1.0, 0.1, 0.0], u=[1.0, 0.0, 0.0]),
        OrbitInvariants(p=2.0, s=1.0),
        field,
        model="full",
        step=0.02,
        max_len=2.0,
    )
    norms = np.linalg.norm(traj.u, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    # Euclidean chord length per step approaches the arc parameter step
    chords = np.linalg.norm(np.diff(traj.x, axis=0), axis=1)
    dts = np.diff(traj.t)
    assert np.allclose(chords, dts, atol=1e-5)
    assert traj.arc_length == pytest.approx(2.0)
    assert len(traj) == traj.x.shape[0]
    st = traj.state(3)
    assert np.allclose(st.x, traj.x[3])


def test_spinless_trajectory_matches_geodesic_oracle():
    # independent oracle: the optical-metric geodesic equation in its
    # affine gauge, integrated by DOP853 and stopped at equal Euclidean
    # arc length
    field = GaussianBumpIndex(n0=1.2, amplitude=0.35, center=[1.0, 0.3, 0.0], width=0.9)
    x0 = np.array([-0.8, 0.0, 0.05])
    u0 = np.array([1.0, 0.0, 0.0])
    length = 2.0
    traj = integrate(
        PhotonState(x=x0, u=u0),
        OrbitInvariants(p=1.0, s=0.0),
        field,
        model="spinless",
        step=0.005,
        max_len=length,
    )

    def rhs(_, y):
        x, w = y[:3], y[3:6]
        acc = -christoffel(field, x).christoffel_apply(w, w)
        return np.concatenate([w, acc, [np.linalg.norm(w)]])

    def reached(_, y):
        return y[6] - length

    reached.terminal = True
    reached.direction = 1.0
    w0 = u0 / field.value(x0)  # affine gauge: g-unit initial velocity
    sol = solve_ivp(
        rhs,
        (0.0, 20.0),
        np.concatenate([x0, w0, [0.0]]),
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
        events=reached,
    )
    assert sol.t_events[0].size == 1
    x_oracle = sol.y_events[0][0][:3]
    assert np.linalg.norm(traj.x[-1] - x_oracle) < 1e-8


def test_rk4_fourth_order_convergence():
    field = GaussianBumpIndex(n0=1.3, amplitude=0.3, center=[0.6, 0.1, -0.2], width=0.7)
    inv = OrbitInvariants(p=2.0, s=1.0)
    start = PhotonState(x=[-0.6, 0.0, 0.0], u=[1.0, 0.0, 0.0])
    ends = []
    for step in (0.08, 0.04, 0.02):
        traj = integrate(start, inv, field, model="full", step=step, max_len=1.2)
        ends.append(traj.x[-1])
    d1 = np.linalg.norm(ends[0] - ends[1])
    d2 = np.linalg.norm(ends[1] - ends[2])
    assert math.log2(d1 / d2) > 3.9


def test_helicity_mirror_symmetry():
    # a bump centered in the z = 0 plane with the start ray in that plane:
    # flipping the spin reflects the trajectory across the plane
    field = GaussianBumpIndex(n0=1.2, amplitude=0.3, center=[1.2, 0.4, 0.0], width=0.8)
    start = PhotonState(x=[-0.5, 0.0, 0.0], u=[1.0, 0.0, 0.0])
    mirror = np.diag([1.0, 1.0, -1.0])
    t_plus = integrate(start, OrbitInvariants(p=2.0, s=1.0), field, "full", 0.01, 2.5)
    t_minus = integrate(start, OrbitInvariants(p=2.0, s=-1.0), field, "full", 0.01, 2.5)
    assert len(t_plus) == len(t_minus)
    assert np.allclose(t_plus.x, t_minus.x @ mirror.T, atol=1e-10)
    assert np.allclose(t_plus.u, t_minus.u @ mirror.T, atol=1e-10)
    # the split is real: both helicities leave the plane
    assert np.max(np.abs(t_plus.x[:, 2])) > 1e-4


def test_integrate_stop_predicate_bisects_onto_surface():
    field = ConstantIndex(n0=1.0)
    start = PhotonState(x=[0.0, 0.0, -1.0], u=[0.6, 0.0, 0.8])

    def stop(x):
        return x[2]  # plane z = 0

    traj = integrate(
        start, OrbitInvariants(p=1.0, s=0.0), field, model="spinless",
        step=0.03, max_len=5.0, stop=stop,
    )
    assert traj.reason == "interface"
    assert abs(traj.x[-1][2]) < 1e-9
    # straight run: the hit point is x0 + (1 / u_z) u
    assert np.allclose(traj.x[-1], [0.75, 0.0, 0.0], atol=1e-9)


def test_stop_receives_the_position_as_three_floats():
    seen = []

    def stop(x):
        seen.append(x)
        return 0.5 - x[0]

    traj = integrate(PhotonState(x=[0.0, 0.0, 0.0], u=[1.0, 0.0, 0.0]),
                     OrbitInvariants(p=2.0, s=1.0), ConstantIndex(n0=1.3), model="full",
                     step=0.1, max_len=2.0, stop=stop)
    assert traj.reason == "interface"
    assert seen and all(type(x) is tuple and len(x) == 3 for x in seen)
    assert all(type(c) is float for x in seen for c in x)


def test_integrate_boundary_stop_on_grid_edge():
    vals = np.full((8, 8, 8), 1.25)
    field = GridIndex(values=vals, origin=(0, 0, 0), spacing=(0.5, 0.5, 0.5))
    start = PhotonState(x=[1.8, 1.8, 1.8], u=[1.0, 0.0, 0.0])
    traj = integrate(
        start, OrbitInvariants(p=1.0, s=0.0), field, model="spinless",
        step=0.05, max_len=10.0,
    )
    assert traj.reason == "boundary"
    # every retained sample lies in the valid interior
    assert traj.x[-1][0] <= 3.0 + 1e-9
    assert traj.arc_length < 10.0


# n = 1 + x^2 / 2 sampled on a grid whose interior ends at x = 1.8: a ray
# bends toward the edge, and at this step the fourth step ends past it
# while all four of its stages lie inside
EDGE_GRID_STEP = 0.29046


def edge_grid():
    xs = np.arange(11) * 0.2
    vals = np.broadcast_to((1.0 + 0.5 * xs**2)[:, None, None], (11, 11, 11))
    return GridIndex(values=vals, origin=(0, 0, 0), spacing=(0.2, 0.2, 0.2))


def assert_ends_at_the_last_good_sample(traj, inv, field, model, step):
    assert traj.reason == "boundary"
    for x in traj.x:
        field.value(x)  # every sample lies in the domain
    # and the next step from the last one leaves it
    last = integrate(traj.state(len(traj) - 1), inv, field, model=model, step=step,
                     max_len=step)
    assert (len(last), last.reason) == (1, "boundary")


@pytest.mark.parametrize("max_len", [10.0, 4 * EDGE_GRID_STEP],
                         ids=["next-first-stage", "last-sample-check"])
def test_a_sample_past_the_grid_edge_is_dropped(monkeypatch, max_len):
    # the first stage of the next step, or the check of the last sample
    # when the path length runs out there, finds the sample outside
    field = edge_grid()
    inv = OrbitInvariants(p=3.0, s=0.0)
    start = PhotonState(x=[1.0, 1.0, 0.3], u=[0.5, 0.0, 1.0])
    raised = []
    locate = GridIndex._locate

    def recording(self, x):
        try:
            return locate(self, x)
        except OutOfDomainError:
            raised.append(float(x[0]))
            raise

    monkeypatch.setattr(GridIndex, "_locate", recording)
    traj = integrate(start, inv, field, model="spinless", step=EDGE_GRID_STEP, max_len=max_len)
    assert len(traj) == 4
    # only one point raised, a whole step beyond the last sample: the
    # sample that was dropped, not a stage inside the step
    assert len(set(raised)) == 1 and raised[0] > 1.8 and raised[0] - traj.x[-1][0] > 0.2
    monkeypatch.undo()
    assert_ends_at_the_last_good_sample(traj, inv, field, "spinless", EDGE_GRID_STEP)


@pytest.mark.parametrize("model", ["spinless", "full", "linearized", "general"])
def test_integrate_stops_before_the_index_turns_negative(rng, model):
    # n = 1 - z reaches 1e-9 just below z = 1; a ray running up the
    # gradient never bends, so it ends within a step of that level
    field = LinearGradientIndex(n0=1.0, k=(0.0, 0.0, -1.0))
    inv = OrbitInvariants(p=3.0, s=0.0)
    for step in rng.uniform(0.02, 0.2, size=4):
        traj = integrate(PhotonState(x=[0.1, -0.2, 0.0], u=[0.0, 0.0, 1.0]), inv, field,
                         model=model, step=step, max_len=5.0)
        assert_ends_at_the_last_good_sample(traj, inv, field, model, step)
        assert 1.0 - step < traj.x[-1][2] < 1.0


def test_integrate_attaches_arc_parameter_to_kernel_errors():
    field = LinearGradientIndex(n0=1.0, k=[0.0, 0.0, 1.0])
    start = PhotonState(x=[0.0, 0.0, 0.0], u=[1.0, 0.0, 0.0])
    with pytest.raises(DegenerateKernelError) as err:
        integrate(start, OrbitInvariants(p=1.0, s=1.0), field, model="full",
                  step=0.01, max_len=1.0)
    assert err.value.arc_parameter == 0.0
    assert "arc parameter" in str(err.value)
    with pytest.raises(SpinCurvatureSingularityError) as err2:
        integrate(start, OrbitInvariants(p=1.0, s=1.0), field, model="general",
                  step=0.01, max_len=1.0)
    assert err2.value.arc_parameter == 0.0


def test_integrate_rejects_bad_arguments():
    field = ConstantIndex(n0=1.0)
    start = PhotonState(x=[0, 0, 0], u=[1, 0, 0])
    inv = OrbitInvariants(p=1.0, s=0.0)
    with pytest.raises(ValueError):
        integrate(start, inv, field, step=0.0)
    with pytest.raises(ValueError):
        integrate(start, inv, field, max_len=-1.0)
    for bad in ({"step": math.nan}, {"max_len": math.nan}):
        with pytest.raises(ValueError, match="must be positive"):
            integrate(start, inv, field, **bad)
    with pytest.raises(ValueError):
        integrate(start, inv, field, model="warp")


class CountingField(IndexField):
    """Wraps a field and counts the calls of each of its entry points."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = dict.fromkeys(("component_jet", "value", "gradient", "hessian"), 0)

    def _count(self, what, *x):
        self.calls[what] += 1
        return getattr(self.inner, what)(*x)

    def component_jet(self, x0, x1, x2):
        return self._count("component_jet", x0, x1, x2)

    def value(self, x):
        return self._count("value", x)

    def gradient(self, x):
        return self._count("gradient", x)

    def hessian(self, x):
        return self._count("hessian", x)


# The component kernel that integrate calls for each model.
KERNEL_FNS = {
    MODEL_SPINLESS: "_spinless_kernel",
    MODEL_FULL: "_full_kernel",
    MODEL_LINEARIZED: "_linearized_kernel",
    MODEL_GENERAL: "_general_kernel",
}


@pytest.mark.parametrize("model", list(KERNEL_FNS))
def test_each_kernel_evaluation_takes_one_field_jet(monkeypatch, model):
    field = CountingField(GaussianBumpIndex(n0=1.0, amplitude=0.45, center=(0, 0, 0), width=0.9))
    name = KERNEL_FNS[model]
    kernel = getattr(propagation, name)
    per_eval = []

    def counted(*args):
        before = dict(field.calls)
        out = kernel(*args)
        per_eval.append({k: field.calls[k] - before[k] for k in before})
        return out

    monkeypatch.setattr(propagation, name, counted)
    start = PhotonState(x=[0.1, -0.2, -0.6], u=[0.1, 0.0, 1.0])
    traj = integrate(start, OrbitInvariants(p=3.0, s=1.0), field, model=model,
                     step=0.05, max_len=1.0, stop=lambda x: 0.2 - x[2])
    assert traj.reason == "interface"
    evals = len(per_eval)
    assert evals > 4 * (len(traj) - 1)  # the crossing search evaluates the kernel too
    assert per_eval == [{"component_jet": 1, "value": 0, "gradient": 0, "hessian": 0}] * evals
    # the first stage of each step checks the domain of its sample: only
    # the start and the last sample take a value call of their own
    assert field.calls == {"component_jet": evals, "value": 2, "gradient": 0, "hessian": 0}


@pytest.mark.parametrize("model", list(KERNEL_FNS))
def test_integrate_rejects_a_field_with_a_nan_gradient(monkeypatch, model):
    name = KERNEL_FNS[model]
    kernel = getattr(propagation, name)
    finite_states = []

    def recording(jet, p, s, *state):
        finite_states.append(len(state) == 6 and all(math.isfinite(v) for v in state))
        return kernel(jet, p, s, *state)

    monkeypatch.setattr(propagation, name, recording)

    class NanGradient(IndexField):
        def value(self, x):
            return 1.2

        def gradient(self, x):
            return np.array([np.nan, 0.0, 0.0])

        def hessian(self, x):
            return np.zeros((3, 3))

    start = PhotonState(x=[0.0, 0.0, 0.0], u=[0.0, 0.6, 0.8])
    with pytest.raises(ValueError):
        integrate(start, OrbitInvariants(p=2.0, s=1.0), NanGradient(), model=model,
                  step=0.05, max_len=0.5)
    # the bad state is rejected before any kernel sees it
    assert finite_states and all(finite_states)


# -- the crossing search -----------------------------------------------------

CROSSING_LENS = GaussianBumpIndex(n0=1.0, amplitude=0.45, center=(0.3, 0.0, 0.1), width=0.9)
CROSSING_STEP = 0.05


def count_kernel_evals(monkeypatch, model):
    """Patch the model's component kernel to count its calls in a list."""
    name = KERNEL_FNS[canonical_model(model)]
    kernel = getattr(propagation, name)
    calls = []

    def counted(*args):
        calls.append(None)
        return kernel(*args)

    monkeypatch.setattr(propagation, name, counted)
    return calls


def bisected_crossing_t(traj, inv, field, model, stop):
    """Arc parameter of the crossing in the last step, bisected to 1e-10 of it.

    Each probe is one integrate step of the probed length from the last
    sample before the crossing, as the search inside integrate takes it.
    """
    start = traj.state(len(traj) - 2)
    stop_sign = math.copysign(1.0, stop(traj.x[0]))
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        h = CROSSING_STEP * mid
        val = stop(integrate(start, inv, field, model=model, step=h, max_len=h).x[-1])
        if val != 0.0 and math.copysign(1.0, val) == stop_sign:
            lo = mid
        else:
            hi = mid
    return traj.t[-2] + CROSSING_STEP * 0.5 * (lo + hi)


def plane_across_path(rng, inv, field, model, incidence=None):
    """Start state and a plane that its path crosses midway.

    The plane passes through a point between two samples of the free path;
    its normal is random with |u.n| >= 0.1 there, or, given `incidence`,
    makes u.n = incidence with the direction at that point.  For the
    latter the point is where an RK4 step of a fraction of the sample
    step, as the crossing search takes it, lands, and the direction is
    the one that step reaches there; the normal is also across the path's
    bend over that step, so that a curved path meets the plane once and
    not twice within the step.
    """
    start = PhotonState(x=rng.uniform(-0.5, 0.5, size=3), u=random_unit(rng))
    free = integrate(start, inv, field, model=model, step=CROSSING_STEP, max_len=1.0)
    k = int(rng.integers(4, len(free) - 4))
    frac = rng.uniform()
    if incidence is None:
        anchor = free.x[k] + frac * (free.x[k + 1] - free.x[k])
        u = free.u[k]
        normal = random_unit(rng)
        while abs(normal @ u) < 0.1:
            normal = random_unit(rng)
    else:
        h = CROSSING_STEP * frac
        part = integrate(free.state(k), inv, field, model=model, step=h, max_len=h)
        anchor, u = part.x[-1], part.u[-1]
        bend = free.u[k + 1] - free.u[k]
        w = random_unit(rng)
        for v in (u, bend - u * float(bend @ u)):
            if np.linalg.norm(v) > 1e-12:
                v = v / np.linalg.norm(v)
                w = w - v * float(w @ v)
        normal = math.sqrt(1.0 - incidence**2) * w / np.linalg.norm(w) + incidence * u
    return start, lambda x: float(normal @ (x - anchor)), normal


@pytest.mark.parametrize("model", list(KERNEL_FNS))
def test_plane_crossing_in_constant_medium_costs_at_most_two_rk4_calls(monkeypatch, rng, model):
    # a zero gradient runs RK4 on straight lines (ConstantIndex itself
    # takes closed-form steps and calls no kernel)
    field = LinearGradientIndex(n0=1.3, k=(0.0, 0.0, 0.0))
    inv = OrbitInvariants(p=3.0, s=1.0)
    calls = count_kernel_evals(monkeypatch, model)
    for _ in range(5):
        start, stop, _ = plane_across_path(rng, inv, field, model)
        calls.clear()
        traj = integrate(start, inv, field, model=model, step=CROSSING_STEP,
                         max_len=1.0, stop=stop)
        assert traj.reason == "interface"
        # full steps and the step that overshot take 4 kernel calls each;
        # a search iterate reuses the overshooting step's first stage and
        # takes 3, and there is at most one
        search = len(calls) - 4 * (len(traj) - 1)
        assert search % 3 == 0
        assert 0 <= search <= 3


@pytest.mark.parametrize("model", list(KERNEL_FNS))
def test_crossing_agrees_with_a_reference_bisection(rng, model):
    for field in (CROSSING_LENS, ConstantIndex(n0=1.3)):
        for _ in range(3):
            inv = OrbitInvariants(p=3.0, s=float(rng.choice([-1.0, 1.0])))
            start, stop, _ = plane_across_path(rng, inv, field, model)
            traj = integrate(start, inv, field, model=model, step=CROSSING_STEP,
                             max_len=1.0, stop=stop)
            assert traj.reason == "interface"
            t_ref = bisected_crossing_t(traj, inv, field, model, stop)
            assert abs(traj.t[-1] - t_ref) <= 1e-10 * CROSSING_STEP
            assert abs(stop(traj.x[-1])) <= 1e-11 * (1.0 + np.linalg.norm(traj.x[-1]))


@pytest.mark.parametrize("model", list(KERNEL_FNS))
def test_crossing_from_a_start_on_the_surface(model):
    # stop is zero at the start and positive until z = 0.3: its sign is
    # taken from the first step, and the crossing is the far root
    field = ConstantIndex(n0=1.2)
    u = np.array([0.6, 0.0, 0.8])
    start = PhotonState(x=[0.0, 0.0, 0.0], u=u)

    def stop(x):
        return float(x[2] * (0.3 - x[2]))

    assert stop(start.x) == 0.0
    traj = integrate(start, OrbitInvariants(p=3.0, s=1.0), field, model=model,
                     step=CROSSING_STEP, max_len=1.0, stop=stop)
    assert traj.reason == "interface"
    assert abs(traj.t[-1] - 0.3 / 0.8) <= 1e-10 * CROSSING_STEP
    assert abs(stop(traj.x[-1])) <= 1e-12 * CROSSING_STEP


@pytest.mark.parametrize("model", list(KERNEL_FNS))
def test_crossing_from_a_sample_on_the_surface(monkeypatch, model):
    # a committed sample lands exactly on the plane and the next step
    # crosses it: that sample is the crossing, found with no RK4 call
    field = LinearGradientIndex(n0=1.2, k=(0.0, 0.0, 0.0))
    inv = OrbitInvariants(p=3.0, s=1.0)
    start = PhotonState(x=[0.1, -0.2, -0.4], u=[0.3, 0.1, 0.9])
    free = integrate(start, inv, field, model=model, step=CROSSING_STEP, max_len=1.0)
    k = 6
    z_k = free.x[k][2]

    def stop(x):
        return float(x[2] - z_k)

    calls = count_kernel_evals(monkeypatch, model)
    traj = integrate(start, inv, field, model=model, step=CROSSING_STEP,
                     max_len=1.0, stop=stop)
    assert traj.reason == "interface"
    assert len(traj) == k + 1
    assert np.array_equal(traj.x, free.x[: k + 1])
    assert np.array_equal(traj.t, free.t[: k + 1])
    assert stop(traj.x[-1]) == 0.0
    # k full steps and the step that crossed: the search itself evaluates nothing
    assert len(calls) == 4 * (k + 1)


@pytest.mark.parametrize("model", list(KERNEL_FNS))
def test_crossing_through_the_kink_of_a_min_of_two_planes(monkeypatch, model):
    # as in the runner's stop predicate, the minimum of two signed plane
    # distances; along the ray the kink (x = 0.94 / 0.95) and the root
    # (x = 0.99) fall inside the same step, with the shallow plane first
    field = LinearGradientIndex(n0=1.0, k=(0.0, 0.0, 0.0))
    inv = OrbitInvariants(p=3.0, s=-1.0)
    start = PhotonState(x=[0.0, 0.0, 0.0], u=[1.0, 0.0, 0.0])

    def stop(x):
        return min(0.05 * (1.0 - x[0]), 0.99 - x[0])

    calls = count_kernel_evals(monkeypatch, model)
    traj = integrate(start, inv, field, model=model, step=0.1, max_len=2.0, stop=stop)
    assert traj.reason == "interface"
    assert traj.t[-2] < 0.94 / 0.95 < 0.99 < traj.t[-2] + 0.1
    assert abs(traj.t[-1] - 0.99) <= 1e-10 * 0.1
    assert abs(stop(traj.x[-1])) <= 1e-12 * 0.1
    # 4 kernel calls per step, 3 per search iterate (the step's first stage
    # is reused)
    search_calls, rest = divmod(len(calls) - 4 * (len(traj) - 1), 3)
    assert rest == 0
    # 8 here; plain regula falsi, keeping the stale end's value, takes 18
    # and bisection 35
    assert search_calls <= 10


@pytest.mark.parametrize("model", list(KERNEL_FNS))
def test_crossing_at_grazing_incidence(monkeypatch, rng, model):
    # |u.n| ~ 1e-3: |stop| <= 1e-12 step alone bounds the arc parameter
    # only to 1e-12 step / |u.n|; the search also asks |stop| over the
    # secant slope to be within 1e-10 of the step, so the crossing is as
    # close to the reference bisection (itself within 0.5e-10) as at any
    # incidence
    calls = count_kernel_evals(monkeypatch, model)
    flat = LinearGradientIndex(n0=1.3, k=(0.0, 0.0, 0.0))
    for field, planes in ((CROSSING_LENS, 16), (flat, 4)):
        for _ in range(planes):
            inv = OrbitInvariants(p=3.0, s=float(rng.choice([-1.0, 1.0])))
            start, stop, normal = plane_across_path(rng, inv, field, model, incidence=1e-3)
            calls.clear()
            traj = integrate(start, inv, field, model=model, step=CROSSING_STEP,
                             max_len=1.0, stop=stop)
            assert traj.reason == "interface"
            search_calls, rest = divmod(len(calls) - 4 * (len(traj) - 1), 3)
            assert rest == 0
            assert search_calls <= 12  # bisection took 35
            incidence = abs(float(normal @ traj.u[-1]))
            assert 1e-4 < incidence < 0.05
            t_ref = bisected_crossing_t(traj, inv, field, model, stop)
            assert abs(traj.t[-1] - t_ref) <= 1.5e-10 * CROSSING_STEP
            assert abs(stop(traj.x[-1])) <= 1e-12 * CROSSING_STEP


# -- straight steps in a constant medium ------------------------------------
#
# ConstantIndex takes each step as x + h u in closed form.  A linear
# gradient with k = 0 is the same medium run through RK4, so the two must
# give the same trajectory up to rounding.


def straight_cases(rng, model):
    """(start, stop) pairs: no stop, a plane, the kink of a min of two
    planes, a plane at grazing incidence and a start on the surface."""
    inv = OrbitInvariants(p=3.0, s=1.0)
    flat = LinearGradientIndex(n0=1.3, k=(0.0, 0.0, 0.0))
    plane = plane_across_path(rng, inv, flat, model)[:2]
    grazing = plane_across_path(rng, inv, flat, model, incidence=1e-3)[:2]
    return [
        (random_state(rng), None),
        plane,
        (PhotonState(x=[0.0, 0.0, 0.0], u=[1.0, 0.0, 0.0]),
         lambda x: min(0.05 * (1.0 - x[0]), 0.99 - x[0])),
        grazing,
        (PhotonState(x=[0.0, 0.0, 0.0], u=[0.6, 0.0, 0.8]), lambda x: float(x[2] * (0.3 - x[2]))),
    ]


def straight_mismatch(traj, ref, step) -> list[str]:
    """How a constant-medium trajectory differs from the RK4 one: the same
    length, reason and t-grid, positions and directions within 1e-13, and
    a crossing within 1e-10 of the step, its point moved along the path by
    at most that much."""
    if (len(traj), traj.reason) != (len(ref), ref.reason):
        return [f"{len(traj)} samples ending {traj.reason}, RK4 {len(ref)} ending {ref.reason}"]
    problems = []
    grid = len(traj) - (traj.reason == "interface")
    if not np.array_equal(traj.t[:grid], ref.t[:grid]):
        problems.append("t-grids differ")
    dt = abs(traj.t[-1] - ref.t[-1])
    if dt > 1e-10 * step:
        problems.append(f"crossing t differs by {dt:.3e}")
    dx = np.abs(traj.x - ref.x).max(axis=1)
    dx[grid:] -= dt
    if dx.max() > 1e-13 or np.abs(traj.u - ref.u).max() > 1e-13:
        problems.append(f"states differ by {dx.max():.3e}")
    return problems


@pytest.mark.parametrize("model", list(KERNEL_FNS))
def test_constant_medium_steps_straight_as_rk4_does(monkeypatch, rng, model):
    inv = OrbitInvariants(p=3.0, s=1.0)
    kernel_calls = count_kernel_evals(monkeypatch, model)
    jets = []
    jet = ConstantIndex.component_jet
    monkeypatch.setattr(ConstantIndex, "component_jet",
                        lambda self, *x: jets.append(x) or jet(self, *x))
    for start, stop in straight_cases(rng, model):
        kernel_calls.clear()
        traj = integrate(start, inv, ConstantIndex(n0=1.3), model=model,
                         step=CROSSING_STEP, max_len=2.0, stop=stop)
        assert kernel_calls == [] and jets == []
        ref = integrate(start, inv, LinearGradientIndex(n0=1.3, k=(0.0, 0.0, 0.0)), model=model,
                        step=CROSSING_STEP, max_len=2.0, stop=stop)
        assert kernel_calls  # the reference ran RK4
        assert straight_mismatch(traj, ref, CROSSING_STEP) == []
        assert traj.reason == ("max-steps" if stop is None else "interface")


def test_a_wrong_straight_step_fails_the_comparison(rng):
    # the trajectory a straight step of h (1 + 1e-9) would give: each
    # sample 1e-9 of its arc too far, and so the same crossing point
    # reached at 1 / (1 + 1e-9) of its arc
    inv = OrbitInvariants(p=3.0, s=1.0)
    for start, stop in straight_cases(rng, MODEL_FULL)[:2]:
        ref = integrate(start, inv, LinearGradientIndex(n0=1.3, k=(0.0, 0.0, 0.0)),
                        model=MODEL_FULL, step=CROSSING_STEP, max_len=2.0, stop=stop)
        t = ref.t.copy()
        if stop is not None:
            t[-1] /= 1.0 + 1e-9
        x = ref.x[0] + np.outer(t * (1.0 + 1e-9), ref.u[0])
        wrong = Trajectory(t=t, x=x, u=ref.u, reason=ref.reason, model=ref.model)
        assert straight_mismatch(wrong, ref, CROSSING_STEP) != []
