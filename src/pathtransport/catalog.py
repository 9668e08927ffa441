"""Concrete geometries and transports shipped with the library.

The catalog carries, for every instance, the traits the instance is built to
have; the test suite verifies that measured verdicts agree with the declared
traits.  Two sphere instances are provided: ``sphere`` uses the classical
chart Christoffel symbols of the round metric, ``sphere-orthonormal``
expresses the same connection in the orthonormal frame
(e_1, e_2) = (d/dtheta, (1/sin theta) d/dphi), in which transport matrices
are genuine rotations and loop angles can be read off directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bundles import BundleGeometry, FibreVector, complex_structure, grid_geometry_from_csv
from .engine import TransportMatrix
from .errors import SpecFormatError
from .paths import SPHERE_POLE_MARGIN, check_parameters, parse_key_values, positions_at
from .transports import (
    KIND_GENERIC,
    KIND_LINEAR_CUSTOM,
    TransportAlongPaths,
    connection_transport,
)


def _pade_coefficients(m: int) -> np.ndarray:
    """[even b_k, odd b_k] of p(x) = sum_k b_k x^k, b_k = (2m - k)! / (k! (m - k)!): the
    textbook coefficients of the [m/m] Pade approximant p(A) / p(-A) of exp, times (2m)! / m!."""
    b = [math.factorial(2 * m - k) / (math.factorial(k) * math.factorial(m - k)) for k in range(m + 1)]
    return np.array([b[0::2], b[1::2]])


#: theta_m and the coefficients for m = 3, 5, 7, 9, 13: the approximant of degree m has
#: double-precision accuracy while the 1-norm of A is at most theta_m (Higham 2005, Table 2.3).
_THETAS = np.array([1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1, 2.097847961257068e0,
                    5.371920351148152e0])
_COEFFS = [_pade_coefficients(m) for m in (3, 5, 7, 9, 13)]


def expm(a) -> np.ndarray:
    """Exponential of every real square matrix of a (..., n, n) stack by
    scaling and squaring (Higham 2005): the lowest Pade degree whose theta
    bounds the matrix's 1-norm, else degree 13 on A / 2^s squared s times.
    The matrices that share a degree and an s share every NumPy call.  A
    zero matrix gives ``np.eye`` exactly."""
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    stack = a.reshape(-1, n, n)
    cols = np.add.reduce(abs(stack), axis=1)
    if not np.isfinite(cols.sum(axis=-1)).all():
        raise ValueError("matrix exponential of a non-finite matrix")
    norms = cols.max(axis=-1, initial=0.0)
    degree = np.minimum(np.searchsorted(_THETAS, norms), len(_THETAS) - 1)
    squarings = np.zeros(len(stack), dtype=int)
    big = np.flatnonzero(norms > _THETAS[-1])
    # math.log2, whose rounding the squaring count has always had.
    squarings[big] = [math.ceil(math.log2(norm / _THETAS[-1])) for norm in norms[big].tolist()]
    out = np.empty_like(stack)
    for d, s in set(zip(degree.tolist(), squarings.tolist())):
        idx = np.flatnonzero((degree == d) & (squarings == s))
        x = stack[idx] * 2.0**-s
        # The even powers I, A^2, A^4, ... of every matrix times the coefficient rows give V and U / A.
        powers = np.empty((_COEFFS[d].shape[1], len(idx), n, n))
        powers[0] = np.eye(n)
        p = powers[1] = x @ x
        for row in powers[2:]:
            row[...] = p = p @ powers[1]
        v, u = _COEFFS[d].dot(powers.reshape(len(powers), -1)).reshape(2, len(idx), n, n)
        u = x @ u
        # (V - U)^-1 (V + U) = I + 2 (V - U)^-1 U: the correction to I is solved for on its own, so it
        # keeps its relative accuracy when A is small; on A = 0 it is a signed zero, and r is I exactly.
        r = np.eye(n) + 2.0 * np.linalg.solve(v - u, u)
        for _ in range(s):
            r = r @ r
        out[idx] = r
    return out.reshape(a.shape)


@dataclass(frozen=True)
class Traits:
    """Flags a catalog instance is constructed to satisfy.

    ``factorizable``: coefficients factor through the path velocity, so the
    transport is generated by a connection.  ``parallel``: restriction and
    reparametrization invariance hold, so a parallel transport derives from it.
    """

    factorizable: bool
    linear: bool
    flat: bool
    parallel: bool


@dataclass(frozen=True)
class GeometryCatalogEntry:
    id: str
    transport: TransportAlongPaths
    traits: Traits
    geometry: Optional[BundleGeometry] = None
    chart_box: tuple[tuple[float, float], ...] = ()
    description: str = ""


def _coeffs3_of(contract, n: int):
    """``coeffs3`` read off ``contract``: ``G[..., mu] = contract(x, e_mu)``, one
    call on every point paired with every base direction; exact zeros may
    come out signed."""
    eye = np.eye(n)

    def coeffs(x):
        x = np.asarray(x, dtype=float)
        pts = np.atleast_2d(x)
        m = len(pts)
        g = contract(np.tile(pts, (n, 1)), np.repeat(eye, m, axis=0))
        g = g.reshape(g.shape[:2] + (n, m))
        return g[..., 0] if x.ndim == 1 else g.transpose(3, 0, 1, 2)

    return coeffs


def flat_bundle(base_dim: int = 2, fibre_dim: int = 2) -> GeometryCatalogEntry:
    """The zero-coefficient baseline; every transport is the identity on components."""
    n, r = int(base_dim), int(fibre_dim)
    if n < 1 or r < 1:
        raise SpecFormatError("flat bundle needs positive dimensions")
    contract = lambda xs, vs: np.zeros((r, r, len(xs)))  # noqa: E731
    geometry = BundleGeometry(
        base_dim=n, fibre_dim=r, coeffs3=_coeffs3_of(contract, n), label="flat", contract=contract, reads=()
    )
    return GeometryCatalogEntry(
        id="flat",
        geometry=geometry,
        transport=connection_transport(geometry, label="flat"),
        traits=Traits(factorizable=True, linear=True, flat=True, parallel=True),
        chart_box=tuple((-2.0, 2.0) for _ in range(n)),
        description=f"zero coefficients on R^{n}, fibre dim {r}",
    )


def _sphere_chart(x) -> bool:
    """Whether every chart point keeps ``SPHERE_POLE_MARGIN`` away from both poles."""
    th = np.asarray(x, dtype=float)[..., 0]
    return bool(((th > SPHERE_POLE_MARGIN) & (th < math.pi - SPHERE_POLE_MARGIN)).all())


def _sphere_entry(entry_id: str, contract, description: str) -> GeometryCatalogEntry:
    """A round-sphere connection in the (theta, phi) chart, given by its contraction
    with the velocity: the field reads theta only, and the chart excludes a
    small collar around each pole."""
    geometry = BundleGeometry(
        base_dim=2,
        fibre_dim=2,
        coeffs3=_coeffs3_of(contract, 2),
        chart_domain=_sphere_chart,
        label=entry_id,
        contract=contract,
        reads=(0,),
    )
    return GeometryCatalogEntry(
        id=entry_id,
        geometry=geometry,
        transport=connection_transport(geometry, label=entry_id),
        traits=Traits(factorizable=True, linear=True, flat=False, parallel=True),
        chart_box=((0.35, math.pi - 0.35), (-2.5, 2.5)),
        description=description,
    )


def sphere_levi_civita() -> GeometryCatalogEntry:
    """Tangent bundle of the round 2-sphere in the (theta, phi) chart.

    Coefficients are the Christoffel symbols of the round metric:
    G^theta_{phi,phi} = -sin(theta) cos(theta),
    G^phi_{theta,phi} = G^phi_{phi,theta} = cot(theta), all others zero.
    """

    def contract(xs, vs):
        sin, cos = np.sin(xs[:, 0]), np.cos(xs[:, 0])
        out = np.zeros((2, 2, len(xs)))
        np.multiply(-sin * cos, vs[:, 1], out=out[0, 1])
        cot = cos / sin
        np.multiply(cot, vs[:, 1], out=out[1, 0])
        np.multiply(cot, vs[:, 0], out=out[1, 1])
        return out

    return _sphere_entry("sphere", contract, "round-sphere chart Christoffel symbols (coordinate frame)")


def sphere_orthonormal_frame() -> GeometryCatalogEntry:
    """Round-sphere connection in the orthonormal frame.

    With e_1 = d/dtheta, e_2 = (1/sin theta) d/dphi the coefficient matrices
    are antisymmetric, G[0, 1, phi] = -cos(theta) = -G[1, 0, phi], so
    transports and holonomies are plane rotations whose angles are
    comparable across base points.
    """

    def contract(xs, vs):
        out = np.zeros((2, 2, len(xs)))
        np.multiply(np.cos(xs[:, 0]), vs[:, 1], out=out[1, 0])
        np.negative(out[1, 0], out=out[0, 1])
        return out

    return _sphere_entry("sphere-orthonormal", contract, "round-sphere connection in the orthonormal frame")


def evolution_transport(hamiltonian: np.ndarray | None = None, hbar: float = 1.0) -> GeometryCatalogEntry:
    """Linear transport with path-independent constant coefficients.

    ``hamiltonian`` is given in realified form (a complex r x r matrix becomes
    real 2r x 2r with i acting as the block matrix J); the coefficient matrix
    is then A = J H / hbar, the real form of H / (i hbar), and the transport
    matrix over any path is exp(-(t - s) A).  Because A does not depend on the
    path, the coefficients do not factor through the velocity, and
    reparametrizations that change parameter lengths are not respected: this
    is the stock example of a linear transport not generated by a connection.
    The base is the 1-d time axis.
    """
    h = np.eye(2) if hamiltonian is None else np.asarray(hamiltonian, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] % 2:
        raise SpecFormatError("realified Hamiltonian must be square with even dimension")
    if hbar <= 0:
        raise SpecFormatError("hbar must be positive")
    r = h.shape[0]
    j = complex_structure(r // 2)
    generator = (j @ h) / float(hbar)
    flat_traits = bool(np.all(h == 0.0))

    def matrices_fn(requests, step_) -> list[TransportMatrix]:
        for path, s, t in requests:
            check_parameters(path, s, t)
        mats = expm(-np.array([t - s for _, s, t in requests], dtype=float)[:, None, None] * generator)
        return TransportMatrix._batch([(m, path.label, s, t, 0.0) for m, (path, s, t) in zip(mats, requests)])

    transport = TransportAlongPaths(
        kind=KIND_LINEAR_CUSTOM,
        base_dim=1,
        fibre_dim=r,
        matrices_fn=matrices_fn,
        label="evolution",
    )
    return GeometryCatalogEntry(
        id="evolution",
        geometry=None,
        transport=transport,
        traits=Traits(factorizable=flat_traits, linear=True, flat=flat_traits, parallel=flat_traits),
        chart_box=((-2.0, 2.0),),
        description="constant-generator evolution transport (realified complex fibre)",
    )


def nonlinear_fixture(alpha: float = 0.1) -> GeometryCatalogEntry:
    """Generic (nonlinear) transport used as the negative control for linearity.

    On a 2-d base with a 2-d fibre, the fibre flows along du/dw = alpha |u|^2 J u,
    J the quarter turn, where the flow weight is a fixed linear functional of
    the chart displacement, w = c . (x(t) - x(s)) with c = (1, 1/2).  The flow
    keeps |u|, so it has the closed form u -> R(alpha w |u|^2) u, a rotation by
    an angle that grows with |u|^2: defined on the whole fibre, plainly
    nonlinear in u, and fixing u = 0.  Weights add along compositions and
    depend only on endpoint positions, so all groupoid and parametrization
    laws hold up to roundoff; w = 0 or alpha = 0 turns by the angle 0, which
    keeps every non-zero component bit for bit.
    """
    c = np.array([1.0, 0.5])
    a = float(alpha)

    def apply_many_fn(requests, step_) -> list[FibreVector]:
        ends = np.reshape(positions_at([(path, at) for path, s, t, _ in requests for at in (s, t)]), (-1, 2, 2))
        u = np.reshape([v.components for *_, v in requests], (-1, 2))
        angle = a * ((ends[:, 1] - ends[:, 0]) @ c) * (u * u).sum(axis=1)
        cos, sin = np.cos(angle), np.sin(angle)
        turned = np.stack([cos * u[:, 0] - sin * u[:, 1], sin * u[:, 0] + cos * u[:, 1]], axis=1)
        return FibreVector._batch(ends[:, 1], turned)

    transport = TransportAlongPaths(
        kind=KIND_GENERIC,
        base_dim=2,
        fibre_dim=2,
        apply_many_fn=apply_many_fn,
        label="nonlinear",
    )
    return GeometryCatalogEntry(
        id="nonlinear",
        geometry=None,
        transport=transport,
        traits=Traits(factorizable=False, linear=False, flat=False, parallel=True),
        chart_box=((-2.0, 2.0), (-2.0, 2.0)),
        description=f"norm-preserving twist, alpha={a:g}",
    )


def standard_catalog() -> dict[str, GeometryCatalogEntry]:
    entries = [
        flat_bundle(),
        sphere_levi_civita(),
        sphere_orthonormal_frame(),
        evolution_transport(),
        nonlinear_fixture(),
    ]
    return {e.id: e for e in entries}


def get_entry(entry_id: str) -> GeometryCatalogEntry:
    cat = standard_catalog()
    if entry_id not in cat:
        raise SpecFormatError(f"unknown geometry id {entry_id!r}; known: {', '.join(cat)}")
    return cat[entry_id]


def entry_from_geometry(geometry: BundleGeometry, *, entry_id: str = "") -> GeometryCatalogEntry:
    """Wrap a coefficient-field geometry as a connection-backed catalog entry; it
    is declared flat when the coefficients vanish at the centre of its box."""
    if geometry.chart_box is not None:
        # Shrink towards the box center so probes and stencils stay inside.
        box = tuple(
            (a + 0.05 * (b - a), b - 0.05 * (b - a)) for a, b in geometry.chart_box
        )
    else:
        box = tuple((-1.0, 1.0) for _ in range(geometry.base_dim))
    center = np.array([0.5 * (a + b) for a, b in box])
    flat = bool(np.all(np.abs(geometry.coeffs3(center)) == 0.0)) if geometry.contains(center) else False
    return GeometryCatalogEntry(
        id=entry_id or geometry.label or "custom",
        geometry=geometry,
        transport=connection_transport(geometry, label=entry_id or geometry.label),
        traits=Traits(factorizable=True, linear=True, flat=flat, parallel=True),
        chart_box=box,
        description=f"user geometry {geometry.label}",
    )


def load_geometry_spec(text: str) -> GeometryCatalogEntry:
    """Resolve a key-value geometry spec to a catalog entry.

    Keys: label, base_dim, fibre_dim, kind (builtin|grid), builtin_id,
    grid_file.  Builtin specs resolve into the standard catalog; grid specs
    load a multilinearly interpolated coefficient field from CSV.
    """
    fields = parse_key_values(text, "geometry spec")
    kind = fields.get("kind", "builtin")
    if kind == "builtin":
        if "builtin_id" not in fields:
            raise SpecFormatError("builtin geometry spec needs builtin_id")
        return get_entry(fields["builtin_id"])
    if kind == "grid":
        for need in ("base_dim", "fibre_dim", "grid_file"):
            if need not in fields:
                raise SpecFormatError(f"grid geometry spec needs {need}")
        try:
            n, r = int(fields["base_dim"]), int(fields["fibre_dim"])
        except ValueError as exc:
            raise SpecFormatError(f"grid geometry spec dimensions must be integers: {exc}") from exc
        geometry = grid_geometry_from_csv(
            fields["grid_file"],
            base_dim=n,
            fibre_dim=r,
            label=fields.get("label", ""),
        )
        return entry_from_geometry(geometry, entry_id=fields.get("label", "grid"))
    raise SpecFormatError(f"unknown geometry kind {kind!r}")


def sample_paths(entry: GeometryCatalogEntry, rng: np.random.Generator, count: int):
    """Random chart paths on [0, 1] suitable for law checks against this entry."""
    from .laws import random_paths

    return random_paths(rng, count, dim=entry.transport.base_dim, box=entry.chart_box)
