"""Vector-bundle geometry described by a frame-level coefficient field.

A geometry is a base dimension n, a fibre dimension r and an evaluator
returning the 3-index connection coefficients ``G[a, b, mu]`` at a chart
point, together with a chart-domain predicate.  Everything is immutable and
the evaluators are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ChartDomainError, SpecFormatError
from .paths import batch_eval, read_csv_rows

#: How far a fibre vector may sit from the path point it is attached to.
BASE_POINT_TOL = 1e-8


@dataclass(frozen=True)
class BundleGeometry:
    """Bundle dimensions plus the 3-index coefficient field.

    ``coeffs3`` maps a chart point of shape (n,) to an array (r, r, n); it
    should also accept a batch (m, n) and return (m, r, r, n), fastest as a
    view of (r, r, n, m) storage (any layout gives the same result).  The first
    index is the fibre row, the second the fibre column, the third the base
    direction.

    ``contract`` is an optional shortcut for the integrators: it maps (m, n)
    points and velocities to the (r, r, m) field ``G[a, b] = coeffs3[a, b, mu]
    v^mu``, contiguous over the samples, and equals that contraction bit for
    bit up to the sign of exact zeros.  It lets a geometry write only its
    structural non-zeros; ``coeffs3`` stays the fallback, and the shipped
    geometries read it off ``contract``.

    ``reads`` lists the base coordinates that ``coeffs3``, ``contract`` and
    ``chart_domain`` read; ``None`` means all of them.  The velocity is always
    read.  A path that states them and its velocity constant (``Path.steady``)
    is sampled and checked against the chart at one node per chunk; when none
    is read and ``coeffs3`` is zero, no node is sampled and the chart is
    checked at one node per call.  Path jets may leave the other coordinates
    NaN.  A declaration that omits a coordinate the field or the chart
    depends on therefore gives wrong matrices or verdicts.
    """

    base_dim: int
    fibre_dim: int
    coeffs3: Callable
    chart_domain: Optional[Callable] = None
    label: str = ""
    #: Optional axis-aligned box known to lie inside the chart (plumbing for
    #: fixture sampling; not a substitute for chart_domain).
    chart_box: Optional[tuple[tuple[float, float], ...]] = None
    contract: Optional[Callable] = None
    reads: Optional[tuple[int, ...]] = None

    def contains(self, x) -> bool:
        if self.chart_domain is None:
            return True
        return bool(self.chart_domain(np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class FibreVector:
    """Frame components of a fibre element attached to a chart point."""

    base_point: np.ndarray
    components: np.ndarray

    def __post_init__(self):
        bp = np.array(self.base_point, dtype=float)
        comps = np.array(self.components, dtype=float)
        for what, values in (("base point", bp), ("components", comps)):
            if not all(map(math.isfinite, values.flat)):
                raise ChartDomainError(f"{what} {values.tolist()} not finite")
        bp.setflags(write=False)
        comps.setflags(write=False)
        object.__setattr__(self, "base_point", bp)
        object.__setattr__(self, "components", comps)


def require_attached(u: FibreVector, x: np.ndarray, fibre_dim: int) -> None:
    """The attachment rule: u sits within ``BASE_POINT_TOL`` of the chart point
    x in every coordinate, and has ``fibre_dim`` components."""
    if u.base_point.shape != x.shape or float(np.max(np.abs(u.base_point - x))) > BASE_POINT_TOL:
        raise ChartDomainError(f"fibre vector at {u.base_point.tolist()} is not attached to the path point {x.tolist()}")
    if u.components.shape != (fibre_dim,):
        raise ChartDomainError(f"components of shape {u.components.shape} do not match fibre dimension {fibre_dim}")


def require_in_chart(geometry: BundleGeometry, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (geometry.base_dim,):
        raise ChartDomainError(
            f"point of shape {x.shape} does not match base dimension {geometry.base_dim}"
        )
    if not geometry.contains(x):
        raise ChartDomainError(f"point {x.tolist()} lies outside the chart of {geometry.label or 'geometry'}")
    return x


def coeffs3_at(geometry: BundleGeometry, x) -> np.ndarray:
    """3-index coefficients at one chart point, shape (r, r, n)."""
    x = require_in_chart(geometry, x)
    out = np.asarray(geometry.coeffs3(x), dtype=float)
    r, n = geometry.fibre_dim, geometry.base_dim
    if out.shape != (r, r, n):
        raise ChartDomainError(f"coefficient field returned shape {out.shape}, expected {(r, r, n)}")
    return out


def coeffs3_batch(geometry: BundleGeometry, xs: np.ndarray) -> np.ndarray:
    """Batched coefficients: (m, n) points to an (m, r, r, n) array."""
    r, n = geometry.fibre_dim, geometry.base_dim
    return batch_eval(geometry.coeffs3, np.asarray(xs, dtype=float), (r, r, n))


def two_index_at(geometry: BundleGeometry, p: FibreVector) -> np.ndarray:
    """2-index coefficients at a fibre element: the contraction
    ``-G[a, b, mu] * u^b`` over b, returned with shape (r, n)."""
    g3 = coeffs3_at(geometry, p.base_point)
    u = np.asarray(p.components, dtype=float)
    if u.shape != (geometry.fibre_dim,):
        raise ChartDomainError(
            f"components of shape {u.shape} do not match fibre dimension {geometry.fibre_dim}"
        )
    return -np.einsum("abm,b->am", g3, u)


def connection_matrices_at(geometry: BundleGeometry, x) -> list[np.ndarray]:
    """The n fibre matrices ``G[:, :, mu]`` at a chart point."""
    g3 = coeffs3_at(geometry, x)
    return [np.array(g3[:, :, mu]) for mu in range(geometry.base_dim)]


def box_chart(bounds: Sequence[tuple[float, float]]) -> Callable:
    """Chart predicate for an axis-aligned box."""
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)

    def inside(x):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= lo) and np.all(x <= hi))

    return inside


# ---------------------------------------------------------------------------
# Complex fibres via realification

def complex_structure(complex_dim: int) -> np.ndarray:
    """Real matrix representing multiplication by i on stacked (Re, Im) parts."""
    r = complex_dim
    j = np.zeros((2 * r, 2 * r))
    j[:r, r:] = -np.eye(r)
    j[r:, :r] = np.eye(r)
    return j


def realify_matrix(m: np.ndarray) -> np.ndarray:
    """Realify a complex r x r matrix to 2r x 2r acting on stacked parts."""
    m = np.asarray(m, dtype=complex)
    x, y = m.real, m.imag
    return np.block([[x, -y], [y, x]])


def realify_vector(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    return np.concatenate([v.real, v.imag])


# ---------------------------------------------------------------------------
# Grid-backed coefficient fields

def geometry_from_grid(
    axes: Sequence[np.ndarray],
    values: np.ndarray,
    *,
    fibre_dim: int,
    label: str = "grid",
) -> BundleGeometry:
    """Geometry whose coefficients are multilinearly interpolated on a grid.

    ``axes`` are the strictly increasing grid coordinates per base dimension;
    ``values`` has shape (*grid_shape, r, r, n).  The chart is the grid's
    bounding box.
    """
    from scipy.interpolate import RegularGridInterpolator

    n = len(axes)
    r = fibre_dim
    values = np.asarray(values, dtype=float)
    if values.shape != tuple(len(a) for a in axes) + (r, r, n):
        raise SpecFormatError(
            f"grid values of shape {values.shape} do not match axes/fibre dimensions"
        )
    interp = RegularGridInterpolator(tuple(axes), values, method="linear", bounds_error=True)
    box = tuple((float(a[0]), float(a[-1])) for a in axes)

    def coeffs(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return interp(x[None, :])[0]
        return interp(x)

    return BundleGeometry(
        base_dim=n,
        fibre_dim=r,
        coeffs3=coeffs,
        chart_domain=box_chart(box),
        label=label,
        chart_box=box,
    )


def grid_geometry_from_csv(filename: str, *, base_dim: int, fibre_dim: int, label: str = "") -> BundleGeometry:
    """Load a grid coefficient field from CSV rows (x1..xn, a, b, mu, value).

    The fibre/base indices a, b, mu are 0-based.  Every grid-point/index
    combination must be present exactly once.
    """
    n, r = base_dim, fibre_dim
    data = read_csv_rows(filename, "grid", n + 4)
    points = data[:, :n]
    abm = data[:, n : n + 3]
    if np.any(abm % 1 != 0):
        raise SpecFormatError("grid indices a, b, mu must be integers")
    abm = abm.astype(int)
    vals = data[:, n + 3]
    if np.any(abm < 0) or np.any(abm[:, 0] >= r) or np.any(abm[:, 1] >= r) or np.any(abm[:, 2] >= n):
        raise SpecFormatError("grid indices out of range (a, b are 0..r-1; mu is 0..n-1)")
    axes = [np.unique(points[:, k]) for k in range(n)]
    shape = tuple(len(a) for a in axes)
    expected = math.prod(shape) * r * r * n
    if len(data) != expected:
        raise SpecFormatError(
            f"grid file has {len(data)} rows but a full {shape} grid needs {expected}"
        )
    values = np.full(shape + (r, r, n), np.nan)
    idx = tuple(
        np.searchsorted(axes[k], points[:, k]) for k in range(n)
    ) + (abm[:, 0], abm[:, 1], abm[:, 2])
    values[idx] = vals
    if np.any(np.isnan(values)):
        raise SpecFormatError("grid file does not cover every grid point / index combination")
    return geometry_from_grid(axes, values, fibre_dim=r, label=label or f"grid:{filename}")
