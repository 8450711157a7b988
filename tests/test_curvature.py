"""Curvature closed forms against finite-difference oracles.

The oracle Christoffel symbols come straight from the metric definition
Gamma^k_ij = g^kl (d_i g_lj + d_j g_li - d_l g_ij) / 2 with g = n^2 I and
numerical derivatives; the oracle Ricci from the coordinate formula
R_jk = d_i Gamma^i_jk - d_j Gamma^i_ik + Gamma contractions with
numerical derivatives of analytic symbols.  Neither reuses the closed
forms under test.
"""

import numpy as np
import pytest

from spinray.curvature import (
    christoffel,
    einstein_uu,
    g_unit,
    r_omega,
)
from spinray.fields import ConstantIndex, GaussianBumpIndex, LinearGradientIndex
from spinray.vectors import cross_matrix

from conftest import random_unit


def oracle_gamma(field, x, h=1e-5):
    """Levi-Civita symbols from finite differences of the metric."""
    x = np.asarray(x, dtype=float)

    def metric(y):
        return field.value(y) ** 2 * np.eye(3)

    dg = np.zeros((3, 3, 3))  # dg[l, i, j] = d_l g_ij
    for l in range(3):
        e = np.zeros(3)
        e[l] = h
        dg[l] = (metric(x + e) - metric(x - e)) / (2 * h)
    ginv = np.linalg.inv(metric(x))
    gamma = np.zeros((3, 3, 3))
    for k in range(3):
        for i in range(3):
            for j in range(3):
                gamma[k, i, j] = 0.5 * sum(
                    ginv[k, l] * (dg[i, l, j] + dg[j, l, i] - dg[l, i, j]) for l in range(3)
                )
    return gamma


def oracle_ricci(field, x, h=1e-5):
    """Ricci tensor from numerical derivatives of the analytic symbols."""
    x = np.asarray(x, dtype=float)

    def gam(y):
        return christoffel(field, y).gamma

    dgam = np.zeros((3, 3, 3, 3))  # dgam[l, k, i, j] = d_l Gamma^k_ij
    for l in range(3):
        e = np.zeros(3)
        e[l] = h
        dgam[l] = (gam(x + e) - gam(x - e)) / (2 * h)
    g0 = gam(x)
    ric = np.zeros((3, 3))
    for j in range(3):
        for k in range(3):
            ric[j, k] = sum(dgam[i, i, j, k] - dgam[j, i, i, k] for i in range(3))
            ric[j, k] += sum(
                g0[i, i, m] * g0[m, j, k] - g0[i, j, m] * g0[m, i, k]
                for i in range(3)
                for m in range(3)
            )
    return ric


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


def test_christoffel_worked_example():
    # n = 1 + z at the origin: dn = e3, n = 1, so
    # Gamma^3_11 = -1, Gamma^1_13 = 1, Gamma^3_33 = 1
    field = LinearGradientIndex(n0=1.0, k=[0.0, 0.0, 1.0])
    curv = christoffel(field, [0.0, 0.0, 0.0])
    assert np.isclose(curv.gamma[2, 0, 0], -1.0)
    assert np.isclose(curv.gamma[0, 0, 2], 1.0)
    assert np.isclose(curv.gamma[0, 2, 0], 1.0)
    assert np.isclose(curv.gamma[2, 2, 2], 1.0)
    assert np.isclose(curv.ricci[2, 2], 2.0)
    assert np.isclose(curv.scalar, 2.0)
    assert np.allclose(curv.metric, np.eye(3))


def test_christoffel_matches_metric_oracle(rng):
    for _ in range(25):
        for field in sample_fields(rng):
            x = rng.uniform(-0.7, 0.7, size=3)
            curv = christoffel(field, x)
            assert np.allclose(curv.gamma, curv.gamma.transpose(0, 2, 1), atol=1e-14)
            assert np.allclose(curv.gamma, oracle_gamma(field, x), atol=1e-8)


def test_ricci_matches_coordinate_oracle(rng):
    for _ in range(25):
        for field in sample_fields(rng):
            x = rng.uniform(-0.7, 0.7, size=3)
            curv = christoffel(field, x)
            ric = oracle_ricci(field, x)
            assert np.allclose(curv.ricci, ric, atol=1e-5)
            # scalar is the metric contraction g^jk R_jk
            n = field.value(x)
            assert np.isclose(curv.scalar, np.trace(ric) / n**2, atol=1e-5)


def test_flat_metric_for_constant_index(rng):
    field = ConstantIndex(n0=1.7)
    for _ in range(10):
        x = rng.uniform(-2, 2, size=3)
        curv = christoffel(field, x)
        assert np.allclose(curv.gamma, 0.0)
        assert np.allclose(curv.ricci, 0.0)
        assert curv.scalar == 0.0
        assert np.allclose(curv.metric, 1.7**2 * np.eye(3))


def test_christoffel_apply_contracts(rng):
    field = GaussianBumpIndex(n0=1.2, amplitude=0.3, center=[0, 0, 0], width=1.0)
    x = [0.2, -0.1, 0.3]
    curv = christoffel(field, x)
    a, b = rng.normal(size=3), rng.normal(size=3)
    direct = np.einsum("kij,i,j->k", curv.gamma, a, b)
    assert np.allclose(curv.christoffel_apply(a, b), direct, atol=1e-14)


def test_g_unit_normalizes_in_the_optical_metric(rng):
    for _ in range(20):
        for field in sample_fields(rng):
            x = rng.uniform(-0.7, 0.7, size=3)
            w = rng.normal(size=3) * rng.uniform(0.1, 5.0)
            U = g_unit(field, x, w)
            n = field.value(x)
            assert np.isclose(n**2 * (U @ U), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        g_unit(ConstantIndex(1.0), [0, 0, 0], [0, 0, 0])


def test_r_omega_is_g_antisymmetric(rng):
    # g(R(Omega) a, b) = -g(a, R(Omega) b), i.e. the matrix is plain
    # antisymmetric since g is a multiple of the identity
    for _ in range(20):
        for field in sample_fields(rng):
            x = rng.uniform(-0.7, 0.7, size=3)
            U = g_unit(field, x, random_unit(rng))
            rom = r_omega(field, x, U)
            assert np.allclose(rom, -rom.T, atol=1e-10)


def test_r_omega_rejects_non_unit_velocity():
    field = LinearGradientIndex(n0=1.5, k=[0.1, 0.0, 0.0])
    with pytest.raises(ValueError):
        r_omega(field, [0, 0, 0], [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        einstein_uu(field, [0, 0, 0], [1.0, 0.0, 0.0])


def test_einstein_trace_identity(rng):
    # Ein(U, U) = -Tr(R(Omega) Omega) / 4 with Omega = n j(U)
    for _ in range(40):
        for field in sample_fields(rng):
            x = rng.uniform(-0.7, 0.7, size=3)
            U = g_unit(field, x, random_unit(rng))
            n = field.value(x)
            omega = n * cross_matrix(U)
            lhs = einstein_uu(field, x, U)
            rhs = -0.25 * np.trace(r_omega(field, x, U) @ omega)
            assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))


def test_einstein_worked_example():
    # n = 1 + z at the origin, U = e3 (already g-unit): Ric(U, U) = 2,
    # R = 2, so Ein = 2 - 1 = 1; for U = e1 instead Ein = 0 - 1 = -1
    field = LinearGradientIndex(n0=1.0, k=[0.0, 0.0, 1.0])
    assert np.isclose(einstein_uu(field, [0, 0, 0], [0, 0, 1]), 1.0)
    assert np.isclose(einstein_uu(field, [0, 0, 0], [1, 0, 0]), -1.0)
