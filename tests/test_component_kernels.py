"""The component kernels against an independent matrix-form oracle.

The four kernel directions run on Python floats over a field's
component_jet.  The oracle below is the matrix form they replaced: it
takes (n, grad n, hess n) from jet(), builds the velocity gradient, its
3x3 derivative and the curvature operator R(Omega) as numpy arrays, and
applies the same kernel formulas.  The two share no code beyond jet().
All four agree to 1e-13; the spinless and full kernels, which follow the
array arithmetic step by step, agree bit for bit wherever numpy's BLAS
rounds a length-3 dot as a fused multiply-add chain.
"""

import numpy as np
import pytest

from spinray.fields import (
    ConstantIndex,
    GaussianBumpIndex,
    GridIndex,
    IndexField,
    LinearGradientIndex,
)
from spinray.orbits import OrbitInvariants
from spinray.propagation import (
    MetricState,
    PhotonState,
    direction_full_spin,
    direction_general_metric,
    direction_linearized,
    direction_spinless,
)
from spinray.vectors import _fma_dot


def numpy_fuses():
    """Whether numpy forms a 3-dot, and a row of a 3x3 matrix-vector
    product, as the chain _fma_dot emulates."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b, m = rng.normal(size=3), rng.normal(size=3), rng.normal(size=(3, 3))
        if float(a @ b) != _fma_dot(*a.tolist(), *b.tolist()):
            return False
        row = m[0].tolist()
        if float((m @ b)[0]) != _fma_dot(row[1], row[0], row[2], b[1], b[0], b[2]):
            return False
    return True


BIT_FOR_BIT = numpy_fuses()

from conftest import random_unit


def skew(v):
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def unit_along(raw, u):
    scale = 1.0 / np.linalg.norm(raw)
    if raw @ u < 0.0:
        scale = -scale
    return raw * scale, scale


def velocity(field, x):
    n, dn, hess = field.jet(x)
    g = -dn / n**2
    dg = -hess / n**2 + 2.0 * np.outer(dn, dn) / n**3
    return n, dn, hess, g, dg


def oracle_spinless(field, x, u):
    n, dn, _, _, _ = velocity(field, x)
    return u.copy(), (dn - u * (u @ dn)) / n


def oracle_full(field, x, u, p, s):
    n, _, _, g, dg = velocity(field, x)
    sp2 = s**2 / p**2
    v = 1.0 / n
    a = 1.0 + sp2 * (g @ g) - v * sp2 * np.trace(dg)
    dx, _ = unit_along(a * u + v * sp2 * (dg @ u), u)
    du = (n / s) * np.cross(u, p * dx - s * np.cross(g, dx))
    return dx, du - u * (u @ du)


def oracle_linearized(field, x, u, p, s):
    n, dn, _, g, dg = velocity(field, x)
    phat = n * (p * u + s * np.cross(g, u))
    dx, _ = unit_along(phat - (s / p) * np.cross(g, phat), u)
    rhs = -n * (phat @ dx) * g - (dn @ dx) * phat / n - n * s * np.cross(dg @ dx, u)
    z = (s / p) * g
    inv_op = (np.eye(3) - skew(z) + np.outer(z, z)) / (1.0 + z @ z)
    du = inv_op @ rhs / (n * p)
    return dx, du - u * (u @ du)


def oracle_general(field, x, u, p, s):
    n, dn, hess = field.jet(x)
    lap = np.trace(hess)
    eye = np.eye(3)
    gamma = (np.einsum("i,kj->kij", dn, eye) + np.einsum("j,ki->kij", dn, eye)
             - np.einsum("k,ij->kij", dn, eye)) / n
    ricci = 2.0 * np.outer(dn, dn) / n**2 - hess / n - lap * eye / n
    scalar = 2.0 * (dn @ dn) / n**4 - 4.0 * lap / n**3
    U = u / n
    omega = n * skew(U)
    ric_endo = ricci / n**2
    rom = -2.0 * (ric_endo @ omega + omega @ ric_endo) + scalar * omega
    denom = p**2 + s**2 * (U @ ricci @ U - 0.5 * scalar)
    dX = U + s**2 * (n * np.cross(U, rom @ U)) / (2.0 * denom)
    dU_cov = -(s / (2.0 * p)) * (rom @ dX)
    du_raw = (dn @ dX) * U + n * (dU_cov - np.einsum("kij,i,j->k", gamma, dX, U))
    dx, scale = unit_along(dX, u)
    du = du_raw * scale
    return dx, du - u * (u @ du)


def grid_bump():
    axis = -1.5 + 0.25 * np.arange(13)
    x, y, z = np.meshgrid(axis, axis, axis, indexing="ij")
    values = 1.2 + 0.3 * np.exp(-((x - 0.2) ** 2 + y**2 + (z + 0.1) ** 2) / (2.0 * 0.8**2))
    return GridIndex(values=values, origin=(-1.5, -1.5, -1.5), spacing=(0.25, 0.25, 0.25))


def random_fields(rng):
    return {
        "constant": ConstantIndex(n0=rng.uniform(1.0, 2.0)),
        "linear": LinearGradientIndex(n0=rng.uniform(1.5, 2.0), k=rng.uniform(-0.3, 0.3, size=3)),
        "gaussian": GaussianBumpIndex(n0=rng.uniform(1.0, 1.5), amplitude=rng.uniform(-0.3, 0.5),
                                      center=rng.uniform(-0.5, 0.5, size=3),
                                      width=rng.uniform(0.7, 2.0)),
        "grid": grid_bump(),
    }


def assert_agrees(got, want, what):
    for a, b in zip(got, want):
        gap = np.abs(a - b) / np.maximum(np.abs(b), 1.0)
        assert gap.max() <= 1e-13, f"{what}: moved by {gap.max():.3e}"


@pytest.mark.parametrize("kind", ["constant", "linear", "gaussian", "grid"])
def test_float_kernels_agree_with_the_matrix_oracle(rng, kind):
    for _ in range(100):
        field = random_fields(rng)[kind]
        x = rng.uniform(-0.9, 0.9, size=3)
        state = PhotonState(x=x, u=random_unit(rng))
        u = state.u
        p, s = rng.uniform(1.5, 4.0), float(rng.choice([-1.0, 1.0]))
        inv = OrbitInvariants(p=p, s=s)
        mstate = MetricState.from_photon(state, field)
        pairs = {
            "spinless": (direction_spinless(state, field), oracle_spinless(field, x, u)),
            "full": (direction_full_spin(state, inv, field), oracle_full(field, x, u, p, s)),
            "linearized": (direction_linearized(state, inv, field),
                           oracle_linearized(field, x, u, p, s)),
            "general": (direction_general_metric(mstate, inv, field),
                        oracle_general(field, x, u, p, s)),
        }
        for model, (got, want) in pairs.items():
            assert_agrees((got.dx, got.du), want, f"{kind} field, {model} model")
            if BIT_FOR_BIT and model in ("spinless", "full"):
                assert got.dx.tobytes() + got.du.tobytes() == want[0].tobytes() + want[1].tobytes()


def test_base_component_jet_reads_the_array_jet(rng):
    # a custom field that only implements value, gradient and hessian: the
    # base component_jet reads n, grad n and the upper triangle of hess n
    # off the three, so it repeats the wrapped bump's own floats exactly
    inner = GaussianBumpIndex(n0=1.1, amplitude=0.4, center=(0.1, 0.0, -0.2), width=0.9)

    class Custom(IndexField):
        def value(self, x):
            return inner.value(x)

        def gradient(self, x):
            return inner.gradient(x)

        def hessian(self, x):
            return inner.hessian(x)

    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, size=3).tolist()
        assert Custom().component_jet(*x) == inner.component_jet(*x)
