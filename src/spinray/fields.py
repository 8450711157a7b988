"""Refractive index fields and the velocity data derived from them.

A field supplies n(x) and its first two derivatives from one source,
component_jet(x0, x1, x2): on Python floats it returns n, the three
components of grad n and the six distinct entries of the symmetric
hess n, so no array is built on the transport path.  jet(x), defined
once on IndexField, builds the arrays (n, grad n, hess n) from it for the
curvature code, velocity_data and the certification path, so the two
forms agree bit for bit.  Every built-in field computes component_jet
directly: the analytic fields follow the array formulas operation by
operation (numpy's exp, dot products rounded as numpy's BLAS rounds
them), and the grid interpolates its ten node tables in one cell lookup.
A custom field may implement only value, gradient and hessian, which the
base component_jet reads; overriding component_jet makes it fast.

The analytic variants (constant, linear gradient, Gaussian bump) return
exact derivatives.  The grid variant interpolates tabulated samples
trilinearly and differentiates by central differences on the nodes; it is
adequate for spinless work but only piecewise-smooth, so spin transport
on grids carries reduced accuracy (the spin corrections involve second
derivatives).

The velocity data of a field packages v = 1/n, the velocity gradient
g = grad v = -grad n / n^2, and its (symmetric) derivative matrix
dg = -hess n / n^2 + 2 (grad n)(grad n)^T / n^3, as arrays.  The
certification path (kernel_residual, momentum_hat) consumes them; the
spinless and full kernels form the same quantities on floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import OutOfDomainError
from .vectors import _fma_dot, vec3

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

    def component_jet(self, x0: float, x1: float, x2: float) -> tuple:
        """(n, dn0, dn1, dn2, h00, h01, h02, h11, h12, h22) at (x0, x1, x2).

        Ten floats: n, grad n and the upper triangle of the symmetric
        hess n.  By default read off value, gradient and hessian, which
        is the adapter for a custom field; every built-in field computes
        them directly.
        """
        x = vec3((x0, x1, x2))
        n = float(self.value(x))
        grad = np.asarray(self.gradient(x), dtype=float).tolist()
        (h00, h01, h02), (_, h11, h12), (_, _, h22) = np.asarray(self.hessian(x), dtype=float).tolist()
        return (n, *grad, h00, h01, h02, h11, h12, h22)

    def jet(self, x) -> tuple[float, np.ndarray, np.ndarray]:
        """(n, grad n, hess n) at x as a float and two arrays, from component_jet."""
        n, d0, d1, d2, h00, h01, h02, h11, h12, h22 = self.component_jet(*vec3(x).tolist())
        hess = np.array([[h00, h01, h02], [h01, h11, h12], [h02, h12, h22]])
        return n, np.array([d0, d1, d2]), hess

    def _checked(self, n: float, x) -> float:
        if not MIN_INDEX <= n < math.inf:
            raise OutOfDomainError(
                f"refractive index {n:.3e} at {[float(c) for c in x]} is below {MIN_INDEX:g}; "
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

    def component_jet(self, x0: float, x1: float, x2: float) -> tuple:
        return float(self.n0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0

    def value(self, x) -> float:
        return self.component_jet(*vec3(x).tolist())[0]

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

    def component_jet(self, x0: float, x1: float, x2: float) -> tuple:
        k0, k1, k2 = self.k.tolist()
        n = self._checked(self.n0 + _fma_dot(k0, k1, k2, x0, x1, x2), (x0, x1, x2))
        return n, k0, k1, k2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0

    def value(self, x) -> float:
        return self.component_jet(*vec3(x).tolist())[0]

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
        w2 = self.width**2
        object.__setattr__(self, "_floats", (*self.center.tolist(), float(self.n0),
                                             float(self.amplitude), float(w2), float(w2**2)))

    def component_jet(self, x0: float, x1: float, x2: float) -> tuple:
        c0, c1, c2, n0, amplitude, w2, w4 = self._floats
        r0, r1, r2 = x0 - c0, x1 - c1, x2 - c2
        # numpy's exp, which rounds differently from math.exp in the last bit
        e = amplitude * float(np.exp(-_fma_dot(r0, r1, r2, r0, r1, r2) / (2.0 * w2)))
        n = self._checked(n0 + e, (x0, x1, x2))
        # grad n = -e r / w^2, hess n = e (r r^T / w^4 - I / w^2)
        diag = 1.0 / w2
        return (n, -e * r0 / w2, -e * r1 / w2, -e * r2 / w2,
                e * (r0 * r0 / w4 - diag), e * (r0 * r1 / w4), e * (r0 * r2 / w4),
                e * (r1 * r1 / w4 - diag), e * (r1 * r2 / w4), e * (r2 * r2 / w4 - diag))

    def value(self, x) -> float:
        return self.component_jet(*vec3(x).tolist())[0]

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
        seconds = [np.gradient(g, *self.spacing, edge_order=2) for g in grads]
        # the ten node tables in component_jet order; the difference
        # stencils commute, so the upper triangle of hess n is all of it
        self._tables = (values, *grads, *(seconds[a][b] for a in range(3) for b in range(a, 3)))

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

    def component_jet(self, x0: float, x1: float, x2: float) -> tuple:
        idx, weights = self._locate((x0, x1, x2))
        n, *derivatives = [self._interp(table, idx, weights) for table in self._tables]
        return (self._checked(n, (x0, x1, x2)), *derivatives)

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
    """Velocity v = 1/n, its gradient g, the matrix dg = grad g, and the
    index n and its gradient grad_n they came from."""

    v: float
    g: np.ndarray
    dg: np.ndarray
    n: float
    grad_n: np.ndarray

    @property
    def div_g(self) -> float:
        return float(np.trace(self.dg))


def velocity_data(field: IndexField, x) -> VelocityData:
    """Evaluate the velocity, its gradient and derivative matrix at x."""
    n, grad_n, hess_n = field.jet(x)
    g = -grad_n / n**2
    dg = -hess_n / n**2 + 2.0 * np.outer(grad_n, grad_n) / n**3
    return VelocityData(v=1.0 / n, g=g, dg=dg, n=n, grad_n=grad_n)
