"""Refractive index fields and the velocity data derived from them.

A field supplies n(x) together with its first two derivatives.  jet(x)
returns all three at one point, (n, grad n, hess n), and is what the
transport kernels and the curvature code consume: every built-in field
computes its jet in one pass (one envelope for the Gaussian bump, one cell
lookup for the grid), and its gradient and hessian are read off that jet.
A custom field may implement only value, gradient and hessian; the base
jet then falls back to calling the three.

The analytic variants (constant, linear gradient, Gaussian bump) return
exact derivatives.  The grid variant interpolates tabulated samples
trilinearly and differentiates by central differences on the nodes; it is
adequate for spinless work but only piecewise-smooth, so spin transport
on grids carries reduced accuracy (the spin corrections involve second
derivatives).

The velocity data of a field packages v = 1/n, the velocity gradient
g = grad v = -grad n / n^2, and its (symmetric) derivative matrix
dg = -hess n / n^2 + 2 (grad n)(grad n)^T / n^3.  These are the quantities
the transport kernels consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from .errors import OutOfDomainError
from .vectors import vec3

# Below this magnitude the medium is treated as undefined.
MIN_INDEX = 1e-9


class IndexField:
    """Interface for refractive index fields."""

    def value(self, x) -> float:
        raise NotImplementedError

    def gradient(self, x) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, x) -> np.ndarray:
        raise NotImplementedError

    def jet(self, x) -> tuple[float, np.ndarray, np.ndarray]:
        """(n, grad n, hess n) at x, by default from the three methods."""
        x = vec3(x)
        return self.value(x), self.gradient(x), self.hessian(x)

    def _checked(self, n: float, x) -> float:
        if not np.isfinite(n) or n < MIN_INDEX:
            raise OutOfDomainError(
                f"refractive index {n:.3e} at {np.asarray(x).tolist()} is below {MIN_INDEX:g}; "
                "propagation fields must stay positive"
            )
        return float(n)


@dataclass(frozen=True)
class ConstantIndex(IndexField):
    """Homogeneous medium n(x) = n0."""

    n0: float

    def __post_init__(self):
        if not np.isfinite(self.n0) or self.n0 < MIN_INDEX:
            raise ValueError(f"constant index must be at least {MIN_INDEX:g}, got {self.n0}")

    def jet(self, x) -> tuple[float, np.ndarray, np.ndarray]:
        vec3(x)
        return float(self.n0), np.zeros(3), np.zeros((3, 3))

    def value(self, x) -> float:
        return self.jet(x)[0]

    def gradient(self, x) -> np.ndarray:
        return self.jet(x)[1]

    def hessian(self, x) -> np.ndarray:
        return self.jet(x)[2]


@dataclass(frozen=True)
class LinearGradientIndex(IndexField):
    """Affine index n(x) = n0 + <k, x> with constant gradient k."""

    n0: float
    k: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "k", vec3(self.k))
        if not np.isfinite(self.n0):
            raise ValueError("n0 must be finite")

    def jet(self, x) -> tuple[float, np.ndarray, np.ndarray]:
        n = self._checked(self.n0 + float(self.k @ vec3(x)), x)
        return n, self.k.copy(), np.zeros((3, 3))

    def value(self, x) -> float:
        return self.jet(x)[0]

    def gradient(self, x) -> np.ndarray:
        return self.jet(x)[1]

    def hessian(self, x) -> np.ndarray:
        return self.jet(x)[2]


@dataclass(frozen=True)
class GaussianBumpIndex(IndexField):
    """Radial bump n(x) = n0 + A exp(-|x - c|^2 / (2 w^2))."""

    n0: float
    amplitude: float
    center: np.ndarray
    width: float

    def __post_init__(self):
        object.__setattr__(self, "center", vec3(self.center))
        if not (np.isfinite(self.width) and self.width > 0.0):
            raise ValueError(f"width must be positive, got {self.width}")
        if not (np.isfinite(self.n0) and np.isfinite(self.amplitude)):
            raise ValueError("n0 and amplitude must be finite")

    def _envelope(self, x) -> tuple[np.ndarray, float]:
        r = vec3(x) - self.center
        return r, self.amplitude * float(np.exp(-(r @ r) / (2.0 * self.width**2)))

    def value(self, x) -> float:
        _, e = self._envelope(x)
        return self._checked(self.n0 + e, x)

    def jet(self, x) -> tuple[float, np.ndarray, np.ndarray]:
        r, e = self._envelope(x)
        n = self._checked(self.n0 + e, x)
        w2 = self.width**2
        return n, -e * r / w2, e * (np.outer(r, r) / w2**2 - np.eye(3) / w2)

    def gradient(self, x) -> np.ndarray:
        return self.jet(x)[1]

    def hessian(self, x) -> np.ndarray:
        return self.jet(x)[2]


class GridIndex(IndexField):
    """Index sampled on an axis-aligned grid, interpolated trilinearly.

    Derivative grids come from central differences on the nodes (mixed
    second derivatives by the symmetric four-point cross stencil), then
    are interpolated the same way.  Queries are restricted to the grid
    interior: cells touching the outer boundary are out of domain, which
    keeps every lookup inside the differencing stencils.

    Accuracy caveat: trilinear interpolation is continuous but not C^2,
    so the spin transport models, which consume second derivatives, see
    stair-step noise between cells.  Prefer analytic fields for spinning
    rays; grids are fine for the spinless model.
    """

    def __init__(self, values, origin, spacing):
        values = np.asarray(values, dtype=float)
        if values.ndim != 3:
            raise ValueError(f"grid values must be 3-dimensional, got shape {values.shape}")
        if min(values.shape) < 4:
            raise ValueError("grid needs at least 4 samples per axis")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid holds non-finite samples")
        self.values = values
        self.origin = vec3(origin)
        self.spacing = vec3(spacing)
        if not np.all(self.spacing > 0.0):
            raise ValueError("grid spacing must be positive")
        grads = np.gradient(values, *self.spacing, edge_order=2)
        self._grad = grads
        # hess[a][b] sampled on nodes for b >= a; the stencils commute, so
        # hess[b][a] is the same table
        self._hess = [[None] * 3 for _ in range(3)]
        for a in range(3):
            second = np.gradient(grads[a], *self.spacing, edge_order=2)
            for b in range(a, 3):
                self._hess[a][b] = self._hess[b][a] = second[b]

    def _locate(self, x) -> tuple[np.ndarray, list[np.ndarray]]:
        """Cell index of x and the trilinear weights along each axis."""
        x = vec3(x)
        f = (x - self.origin) / self.spacing
        idx = np.floor(f).astype(int)
        shape = np.array(self.values.shape)
        # interior cells only: exclude cells touching the boundary
        if np.any(idx < 1) or np.any(idx > shape - 3):
            raise OutOfDomainError(
                f"point {x.tolist()} is outside the grid interior "
                f"(valid cells are one layer in from the boundary)"
            )
        frac = f - idx
        return idx, [np.array([1.0 - fa, fa]) for fa in frac]

    def _interp(self, table, idx, weights) -> float:
        i, j, k = idx
        cell = table[i : i + 2, j : j + 2, k : k + 2]
        return float(np.einsum("ijk,i,j,k->", cell, *weights))

    def value(self, x) -> float:
        idx, weights = self._locate(x)
        return self._checked(self._interp(self.values, idx, weights), x)

    def jet(self, x) -> tuple[float, np.ndarray, np.ndarray]:
        idx, weights = self._locate(x)
        n = self._checked(self._interp(self.values, idx, weights), x)
        grad = np.array([self._interp(g, idx, weights) for g in self._grad])
        h = np.empty((3, 3))
        for a in range(3):
            for b in range(a, 3):
                h[a, b] = h[b, a] = self._interp(self._hess[a][b], idx, weights)
        return n, grad, h

    def gradient(self, x) -> np.ndarray:
        return self.jet(x)[1]

    def hessian(self, x) -> np.ndarray:
        return self.jet(x)[2]


def load_index_grid(source: str | Path) -> GridIndex:
    """Read a grid field from the text format.

    The format is a header line

        grid nx ny nz x0 y0 z0 dx dy dz

    followed by nx * ny * nz whitespace-separated n samples with the x
    index varying fastest.  `source` may be a path or the document text
    itself (anything containing a newline is treated as text).
    """
    text = str(source)
    if "\n" not in text:
        text = Path(source).read_text()
    tokens = text.split()
    if len(tokens) < 10 or tokens[0] != "grid":
        raise ValueError("grid document must start with 'grid nx ny nz x0 y0 z0 dx dy dz'")
    try:
        nx, ny, nz = (int(t) for t in tokens[1:4])
        x0, y0, z0, dx, dy, dz = (float(t) for t in tokens[4:10])
        samples = np.array([float(t) for t in tokens[10:]])
    except ValueError as exc:
        raise ValueError(f"malformed grid document: {exc}") from exc
    if samples.size != nx * ny * nz:
        raise ValueError(f"grid header promises {nx * ny * nz} samples, found {samples.size}")
    values = samples.reshape(nz, ny, nx).transpose(2, 1, 0)
    return GridIndex(values=values, origin=(x0, y0, z0), spacing=(dx, dy, dz))


def dump_index_grid(grid: GridIndex) -> str:
    """Serialize a grid field back to the text format (x index fastest)."""
    nx, ny, nz = grid.values.shape
    header = "grid {} {} {} {} {} {} {} {} {}".format(
        nx, ny, nz, *(repr(float(c)) for c in grid.origin), *(repr(float(c)) for c in grid.spacing)
    )
    flat = grid.values.transpose(2, 1, 0).reshape(-1)
    return header + "\n" + "\n".join(repr(float(v)) for v in flat) + "\n"


@dataclass(frozen=True)
class VelocityData:
    """Velocity v = 1/n, its gradient g, and the matrix dg = grad g."""

    v: float
    g: np.ndarray
    dg: np.ndarray
    n: float = dataclass_field(repr=False, default=0.0)
    grad_n: np.ndarray = dataclass_field(repr=False, default=None)

    @property
    def div_g(self) -> float:
        return float(np.trace(self.dg))


def velocity_data(field: IndexField, x) -> VelocityData:
    """Evaluate the velocity, its gradient and derivative matrix at x."""
    n, grad_n, hess_n = field.jet(x)
    g = -grad_n / n**2
    dg = -hess_n / n**2 + 2.0 * np.outer(grad_n, grad_n) / n**3
    return VelocityData(v=1.0 / n, g=g, dg=dg, n=n, grad_n=grad_n)
