import numpy as np
import pytest

from spinray.errors import OutOfDomainError
from spinray.fields import (
    ConstantIndex,
    GaussianBumpIndex,
    GridIndex,
    IndexField,
    LinearGradientIndex,
    dump_index_grid,
    load_index_grid,
    velocity_data,
)


def fd_gradient(field, x, h=1e-6):
    g = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        g[i] = (field.value(x + e) - field.value(x - e)) / (2 * h)
    return g


def fd_hessian(field, x, h=1e-4):
    m = np.zeros((3, 3))
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        m[i] = (field.gradient(x + e) - field.gradient(x - e)) / (2 * h)
    return 0.5 * (m + m.T)


def analytic_fields(rng):
    return [
        ConstantIndex(n0=rng.uniform(1.0, 2.0)),
        LinearGradientIndex(n0=rng.uniform(1.2, 2.0), k=rng.uniform(-0.3, 0.3, size=3)),
        GaussianBumpIndex(
            n0=rng.uniform(1.0, 1.5),
            amplitude=rng.uniform(-0.3, 0.5),
            center=rng.uniform(-0.5, 0.5, size=3),
            width=rng.uniform(1.0, 2.0),
        ),
    ]


def test_analytic_derivatives_match_finite_differences(rng):
    for _ in range(20):
        for field in analytic_fields(rng):
            x = rng.uniform(-0.8, 0.8, size=3)
            assert np.allclose(field.gradient(x), fd_gradient(field, x), atol=1e-8)
            assert np.allclose(field.hessian(x), fd_hessian(field, x), atol=1e-6)


def test_constant_index_rejects_tiny_values():
    with pytest.raises(ValueError):
        ConstantIndex(n0=0.0)
    with pytest.raises(ValueError):
        ConstantIndex(n0=-1.0)


def test_linear_gradient_out_of_domain():
    field = LinearGradientIndex(n0=1.0, k=[0.0, 0.0, 1.0])
    assert field.value([0, 0, 0.5]) == 1.5
    with pytest.raises(OutOfDomainError):
        field.value([0, 0, -1.5])
    with pytest.raises(OutOfDomainError):
        field.gradient([0, 0, -1.5])


def test_gaussian_bump_peak_and_symmetry():
    field = GaussianBumpIndex(n0=1.0, amplitude=0.4, center=[1.0, 0.0, 0.0], width=0.7)
    assert np.isclose(field.value([1, 0, 0]), 1.4)
    assert np.allclose(field.gradient([1, 0, 0]), 0.0, atol=1e-15)
    # hessian at the peak is -A/w^2 times the identity
    assert np.allclose(field.hessian([1, 0, 0]), -0.4 / 0.49 * np.eye(3), atol=1e-12)
    r = np.array([0.3, -0.2, 0.5])
    assert np.isclose(field.value([1, 0, 0] + r), field.value([1, 0, 0] - r))


def test_grid_matches_sampled_linear_field_exactly(rng):
    # trilinear interpolation reproduces an affine function exactly, and
    # central differences of affine samples are exact as well
    k = np.array([0.05, -0.03, 0.08])
    xs = np.linspace(-1.0, 1.0, 9)
    grid_vals = np.empty((9, 9, 9))
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            for l, z in enumerate(xs):
                grid_vals[i, j, l] = 1.5 + k @ [x, y, z]
    grid = GridIndex(values=grid_vals, origin=(-1.0, -1.0, -1.0), spacing=(0.25, 0.25, 0.25))
    exact = LinearGradientIndex(n0=1.5, k=k)
    for _ in range(40):
        x = rng.uniform(-0.7, 0.7, size=3)
        assert np.isclose(grid.value(x), exact.value(x), atol=1e-12)
        assert np.allclose(grid.gradient(x), k, atol=1e-12)
        assert np.allclose(grid.hessian(x), 0.0, atol=1e-12)


def test_grid_approximates_smooth_field(rng):
    bump = GaussianBumpIndex(n0=1.2, amplitude=0.3, center=[0, 0, 0], width=1.0)
    xs = np.linspace(-1.5, 1.5, 31)
    vals = np.empty((31, 31, 31))
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            for l, z in enumerate(xs):
                vals[i, j, l] = bump.value([x, y, z])
    grid = GridIndex(values=vals, origin=(-1.5, -1.5, -1.5), spacing=(0.1, 0.1, 0.1))
    for _ in range(30):
        x = rng.uniform(-0.8, 0.8, size=3)
        assert abs(grid.value(x) - bump.value(x)) < 2e-3
        assert np.allclose(grid.gradient(x), bump.gradient(x), atol=5e-3)
        assert np.allclose(grid.hessian(x), bump.hessian(x), atol=3e-2)


def test_grid_interior_only():
    vals = np.full((5, 5, 5), 1.5)
    grid = GridIndex(values=vals, origin=(0, 0, 0), spacing=(1, 1, 1))
    grid.value([2.0, 2.0, 2.0])
    # cells touching the outer boundary are out of domain
    with pytest.raises(OutOfDomainError):
        grid.value([0.5, 2.0, 2.0])
    with pytest.raises(OutOfDomainError):
        grid.value([2.0, 2.0, 3.5])
    with pytest.raises(OutOfDomainError):
        grid.value([-1.0, 2.0, 2.0])


def test_grid_constructor_validation():
    with pytest.raises(ValueError):
        GridIndex(values=np.ones((3, 5, 5)), origin=(0, 0, 0), spacing=(1, 1, 1))
    with pytest.raises(ValueError):
        GridIndex(values=np.ones((5, 5)), origin=(0, 0, 0), spacing=(1, 1, 1))
    with pytest.raises(ValueError):
        GridIndex(values=np.ones((5, 5, 5)), origin=(0, 0, 0), spacing=(1, 0, 1))
    bad = np.ones((5, 5, 5))
    bad[2, 2, 2] = np.nan
    with pytest.raises(ValueError):
        GridIndex(values=bad, origin=(0, 0, 0), spacing=(1, 1, 1))


def test_grid_round_trip_through_text(rng):
    vals = 1.0 + rng.uniform(0.0, 0.5, size=(4, 5, 6))
    grid = GridIndex(values=vals, origin=(-1.0, 0.0, 2.0), spacing=(0.5, 0.25, 0.125))
    text = dump_index_grid(grid)
    back = load_index_grid(text)
    assert np.array_equal(back.values, grid.values)
    assert np.array_equal(back.origin, grid.origin)
    assert np.array_equal(back.spacing, grid.spacing)


def test_grid_text_is_x_fastest(tmp_path):
    # 4x4x4 grid whose value encodes the x index; the first four samples
    # of the document must run through x at fixed y, z
    vals = np.empty((4, 4, 4))
    for i in range(4):
        vals[i, :, :] = float(i)
    text = dump_index_grid(GridIndex(values=vals, origin=(0, 0, 0), spacing=(1, 1, 1)))
    body = text.splitlines()[1:]
    assert [float(tok) for tok in body[:4]] == [0.0, 1.0, 2.0, 3.0]
    path = tmp_path / "field.grid"
    path.write_text(text)
    assert np.array_equal(load_index_grid(path).values, vals)


def test_load_index_grid_rejects_malformed():
    with pytest.raises(ValueError):
        load_index_grid("grid 2 2\n1 2 3 4\n")
    with pytest.raises(ValueError):
        load_index_grid("lattice 4 4 4 0 0 0 1 1 1\n" + "1.0\n" * 64)
    with pytest.raises(ValueError):
        load_index_grid("grid 4 4 4 0 0 0 1 1 1\n" + "1.0\n" * 63)


def test_velocity_data_identities(rng):
    for _ in range(30):
        for field in analytic_fields(rng):
            x = rng.uniform(-0.8, 0.8, size=3)
            vd = velocity_data(field, x)
            n = field.value(x)
            assert np.isclose(vd.v, 1.0 / n)
            assert np.isclose(vd.n, n)
            assert np.allclose(vd.g, -field.gradient(x) / n**2, atol=1e-14)
            assert np.allclose(vd.dg, vd.dg.T, atol=1e-14)
            assert np.isclose(vd.div_g, np.trace(vd.dg))


def test_velocity_gradient_matches_finite_differences(rng):
    # dg must be the derivative matrix of g = grad(1/n)
    h = 1e-5
    for _ in range(10):
        for field in analytic_fields(rng):
            x = rng.uniform(-0.5, 0.5, size=3)
            vd = velocity_data(field, x)
            fd = np.zeros((3, 3))
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                gp = velocity_data(field, x + e).g
                gm = velocity_data(field, x - e).g
                fd[:, i] = (gp - gm) / (2 * h)
            assert np.allclose(vd.dg, fd, atol=1e-7)


def sampled_bump_grid():
    bump = GaussianBumpIndex(n0=1.2, amplitude=0.3, center=[0, 0, 0], width=1.0)
    xs = np.linspace(-1.5, 1.5, 13)
    vals = np.array([[[bump.value([x, y, z]) for z in xs] for y in xs] for x in xs])
    return GridIndex(values=vals, origin=(-1.5, -1.5, -1.5), spacing=(0.25, 0.25, 0.25))


def test_jet_is_value_gradient_hessian_bit_for_bit(rng):
    grid = sampled_bump_grid()
    for _ in range(20):
        for field in analytic_fields(rng) + [grid]:
            x = rng.uniform(-0.8, 0.8, size=3)
            n, grad_n, hess_n = field.jet(x)
            assert type(n) is float and n == field.value(x)
            assert grad_n.tobytes() == field.gradient(x).tobytes()
            assert hess_n.tobytes() == field.hessian(x).tobytes()
            # the float jet carries the same numbers: n, grad n, upper triangle
            comp = field.component_jet(*x.tolist())
            assert all(type(c) is float for c in comp)
            assert comp == (n, *grad_n.tolist(), *hess_n[np.triu_indices(3)].tolist())


def test_grid_hessian_is_the_per_entry_interpolation_and_exactly_symmetric(rng):
    vals = 1.5 + 0.1 * rng.standard_normal((7, 8, 9))
    spacing = (0.5, 0.25, 0.125)
    grid = GridIndex(values=vals, origin=(-1.0, 0.0, 2.0), spacing=spacing)
    grads = np.gradient(vals, *spacing, edge_order=2)
    second = [np.gradient(grads[a], *spacing, edge_order=2) for a in range(3)]
    for _ in range(20):
        x = grid.origin + rng.uniform(1.0, 4.0, size=3) * grid.spacing
        idx, weights = grid._locate(x)
        per_entry = np.array([[grid._interp(second[min(a, b)][max(a, b)], idx, weights)
                               for b in range(3)] for a in range(3)])
        hess = grid.jet(x)[2]
        assert hess.tobytes() == per_entry.tobytes()
        assert hess.tobytes() == hess.T.tobytes()


def test_base_jet_falls_back_to_the_three_methods():
    class Custom(IndexField):
        def value(self, x):
            return 1.5 + float(x[0])

        def gradient(self, x):
            return np.array([1.0, 0.0, 0.0])

        def hessian(self, x):
            return np.zeros((3, 3))

    n, grad_n, hess_n = Custom().jet([0.25, 0.0, 0.0])
    assert n == 1.75
    assert np.array_equal(grad_n, [1.0, 0.0, 0.0])
    assert np.array_equal(hess_n, np.zeros((3, 3)))
    assert velocity_data(Custom(), [0.25, 0.0, 0.0]).n == 1.75
    with pytest.raises(ValueError):
        Custom().jet([np.nan, 0.0, 0.0])


def test_jet_out_of_domain_raises_like_value():
    grid = GridIndex(values=np.full((5, 5, 5), 1.5), origin=(0, 0, 0), spacing=(1, 1, 1))
    linear = LinearGradientIndex(n0=0.5, k=[0.0, 0.0, 1.0])
    for field, x in ((grid, [0.5, 2.0, 2.0]), (grid, [2.0, 2.0, 3.5]), (linear, [0, 0, -1.5])):
        with pytest.raises(OutOfDomainError):
            field.value(x)
        with pytest.raises(OutOfDomainError):
            field.jet(x)
        with pytest.raises(OutOfDomainError):
            velocity_data(field, x)
