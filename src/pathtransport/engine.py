"""Numerical core for linear transports along paths.

The propagator integrates the matrix lift equation

    dL(t, s)/dt = -G(t) L(t, s),       L(s, s) = Id,

with classical fixed-step RK4, where G(t) is the fibre coefficient matrix
along the path (the contraction of the 3-index field with the path velocity).
Backward transports (t < s) integrate backward rather than inverting the
forward matrix.  Piecewise-C1 paths are split at their breakpoints so a
velocity jump never falls inside an integration step; coefficient samples at
a breakpoint are nudged into the smooth side.

Each interval is integrated in chunks of at most ``_CHUNK_STEPS`` steps: a
chunk samples the field on its own nodes, forms its per-step transitions in
(r, r, m) layout (one vectorised product over the m steps instead of m small
matrix products) and reduces them pairwise to one matrix; the chunk matrices
are reduced pairwise in turn.  Memory therefore grows with the chunk size,
not with the step count.

Matrix orientation: ``L(t, s)`` maps the fibre at parameter s to the fibre at
parameter t.  The coefficient matrix recovered from a transport is the
t-derivative of the *inverse-oriented* matrix at coincidence,
``G(s) = d/dt [L(t, s)^(-1)]|_(t=s)``, which reproduces the field that the
propagator consumed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bundles import BundleGeometry, FibreVector, coeffs3_batch, coeffs3_at
from .errors import (
    ChartDomainError,
    DegenerateProbeError,
    IntervalError,
    NonInvertibleError,
    NotApplicableError,
    NotFactorizableError,
    SingularCoefficientError,
)
from .paths import Path, batch_eval, line_through, position_at, smooth_part, velocity_at

#: Default number of RK4 steps when no absolute step size is given.
DEFAULT_STEP_COUNT = 1000

#: Relative inward nudge for coefficient samples at breakpoints.
_BREAK_NUDGE = 1e-9

#: RK4 steps integrated per chunk; memory grows with this, not the step count.
#: At 2048 steps one chunk's temporaries are reused by the next from the
#: process heap; at 4096 the allocator handed them back to the OS after each
#: chunk, and a step-1e-5 latitude holonomy on the sphere took about 38k page
#: faults per call and ran about 40% slower.
_CHUNK_STEPS = 2048


@dataclass(frozen=True)
class TransportMatrix:
    """The matrix L(t, s) of a linear transport along a fixed path."""

    value: np.ndarray
    path_id: str = ""
    s: float = 0.0
    t: float = 0.0
    step: float = 0.0  # integration step used; 0 marks a closed form

    def __post_init__(self):
        v = np.array(self.value, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "value", v)
        det = float(np.linalg.det(v))
        if abs(det) < 1e-12:
            warnings.warn(
                f"transport matrix over {self.path_id or 'path'} is numerically singular (det={det:.3e})",
                RuntimeWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class TransportCoefficients:
    """The fibre coefficient matrix G(s) of a linear transport along a path."""

    value: np.ndarray
    path_id: str = ""
    s: float = 0.0

    def __post_init__(self):
        v = np.array(self.value, dtype=float)
        if not np.all(np.isfinite(v)):
            raise SingularCoefficientError(f"non-finite transport coefficients at s={self.s}")
        v.setflags(write=False)
        object.__setattr__(self, "value", v)


@dataclass(frozen=True)
class FactorizationVerdict:
    """Outcome of testing whether coefficients factor through the velocity."""

    point: np.ndarray
    candidate3: np.ndarray
    residual: float
    threshold: float
    factorizable: bool

    def __post_init__(self):
        object.__setattr__(self, "point", np.array(self.point, dtype=float))
        object.__setattr__(self, "candidate3", np.array(self.candidate3, dtype=float))
        object.__setattr__(self, "factorizable", bool(self.residual <= self.threshold))


@dataclass(frozen=True)
class LiftedPath:
    """A sampled horizontal lift: parameters, base points, fibre components."""

    ts: np.ndarray
    base: np.ndarray
    components: np.ndarray


def _matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Stacked matrix product in (r, r, m) layout: out[i, j] = sum_k x[i, k] * y[k, j]."""
    return np.einsum("ikm,kjm->ijm", x, y)


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """Product mats[..., K-1] @ ... @ mats[..., 0] of an (r, r, K) stack, reduced pairwise."""
    while mats.shape[-1] > 1:
        k = mats.shape[-1]
        even = k - (k % 2)
        paired = _matmul(mats[..., 1:even:2], mats[..., 0:even:2])
        mats = np.concatenate([paired, mats[..., -1:]], axis=-1) if k % 2 else paired
    return mats[..., 0]


def _eye_minus(eye: np.ndarray, k: float, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """I - k c over an (r, r, m) stack, written into ``out`` when given."""
    out = np.multiply(k, c, out=out)
    return np.subtract(eye, out, out=out)


def _rk4_transitions(field: Callable, a: float, b: float, n_steps: int, *, nudge=(0.0, 0.0)) -> np.ndarray:
    """RK4 transition matrix L(b, a) of dL/dt = -G(t) L, n_steps steps on [a, b].

    The field is sampled at the nodes a + (h/2) k, k = 0..2 n_steps: the
    n_steps + 1 step ends first, then the n_steps midpoints, so each block is
    contiguous.  ``nudge`` moves the first and last step end inward by the
    given signed offsets.  The per-step transitions are formed in (r, r, m)
    layout and reduced to one matrix.
    """
    h = (b - a) / n_steps
    k = np.arange(2 * n_steps + 1)
    pts = a + 0.5 * h * np.concatenate((k[::2], k[1::2]))
    pts[0] = a + nudge[0]
    pts[n_steps] = b - nudge[1]
    # (r, r, samples) layout, each entry contiguous over the samples; a field
    # that returns an (m, r, r) view of such an array is not copied.
    g = np.ascontiguousarray(np.asarray(field(pts), dtype=float).transpose(1, 2, 0))
    if not np.isfinite(g).all():
        raise SingularCoefficientError("non-finite coefficients encountered during integration")
    # With P = -G the step is T = I + (h/6)(b1 + 2 b2 + 2 b3 + b4) for
    # b1 = P1, b2 = P2 (I + (h/2) b1), b3 = P2 (I + (h/2) b2),
    # b4 = P3 (I + h b3); c = -b below is the same recursion in G, with no
    # negated copy.  The sum c1 + 2 c2 + 2 c3 + c4 accumulates in c2, left
    # to right.
    eye = np.eye(g.shape[0])[:, :, None]
    ends, mids = g[..., : n_steps + 1], g[..., n_steps + 1 :]
    c1 = ends[..., :-1]
    c2 = _matmul(mids, _eye_minus(eye, h / 2, c1))
    c3 = _matmul(mids, _eye_minus(eye, h / 2, c2))
    c4 = _matmul(ends[..., 1:], _eye_minus(eye, h, c3))
    c2 *= 2
    c2 += c1
    c3 *= 2
    c2 += c3
    c2 += c4
    return _ordered_product(_eye_minus(eye, h / 6, c2, out=c2))


def _propagate(field: Callable, a: float, b: float, n_steps: int, nudge=(False, False)) -> list:
    """RK4 transition matrices of consecutive chunks of at most _CHUNK_STEPS
    steps on [a, b], in order; ``nudge`` marks breakpoint ends."""
    h = (b - a) / n_steps
    delta = math.copysign(_BREAK_NUDGE * abs(b - a), h)
    chunks = []
    for k0 in range(0, n_steps, _CHUNK_STEPS):
        k1 = min(k0 + _CHUNK_STEPS, n_steps)
        last = k1 == n_steps
        ends = (delta if nudge[0] and k0 == 0 else 0.0, delta if nudge[1] and last else 0.0)
        chunks.append(_rk4_transitions(field, a + k0 * h, b if last else a + k1 * h, k1 - k0, nudge=ends))
    return chunks


def _chain(chunks: list) -> np.ndarray:
    """Product chunks[-1] @ ... @ chunks[0] of consecutive chunk matrices."""
    return chunks[0] if len(chunks) == 1 else _ordered_product(np.stack(chunks, axis=-1))


def _step_count(span: float, step: float | None) -> int:
    """RK4 steps over a span: DEFAULT_STEP_COUNT for ``step=None``, else ceil(span / step)."""
    if step is None:
        return DEFAULT_STEP_COUNT
    if step <= 0:
        raise IntervalError("integration step must be positive")
    return max(1, math.ceil(span / step))


def _as_batch_field(coeff_field: Callable, s: float) -> tuple[Callable, int]:
    """A coefficient field adapted to batched evaluation (m,) -> (m, r, r),
    and the fibre dimension r read off one sample at ``s``; TransportCoefficients
    values are unwrapped."""

    def unwrap(v):
        return v.value if isinstance(v, TransportCoefficients) else v

    r = batch_eval(coeff_field, np.array([s]), unwrap=unwrap).shape[-1]
    return (lambda ts: batch_eval(coeff_field, np.asarray(ts, dtype=float), (r, r), unwrap)), r


def integrate_transport_matrix(coeff_field: Callable, s: float, t: float, step: float | None = None) -> TransportMatrix:
    """RK4 solution L(t, s) of the matrix lift equation for a coefficient field.

    ``coeff_field`` maps a parameter (or parameter array) to the coefficient
    matrix (or stack of matrices);  TransportCoefficients values are accepted
    too.  ``step=None`` uses |t - s| / 1000; an explicit ``step`` is an
    absolute bound on the step size.  For t < s the integration runs backward.
    """
    s, t = float(s), float(t)
    field, r = _as_batch_field(coeff_field, s)
    if s == t:
        return TransportMatrix(np.eye(r), s=s, t=t, step=0.0)
    n_steps = _step_count(abs(t - s), step)
    return TransportMatrix(_chain(_propagate(field, s, t, n_steps)), s=s, t=t, step=abs(t - s) / n_steps)


def path_coefficient_field(geometry: BundleGeometry, path: Path, *, piece: tuple[float, float] | None = None) -> Callable:
    """Batched coefficient field G(s) = coeffs3(path(s)) . velocity(s) along a path.

    The field maps m parameters to an (m, r, r) array, a view of an array
    stored in (r, r, m) order.  With a ``piece``, every sample is evaluated
    on the smooth factor that the piece runs on (``paths.smooth_part``),
    through its ``jet`` when it has one; the values equal the path's own
    evaluation bit for bit.
    """
    factor, maps = (path, ()) if piece is None else smooth_part(path, *piece)
    scale = math.prod(slope for slope, _ in maps)
    n, r = geometry.base_dim, geometry.fibre_dim

    def field(ts):
        u = np.atleast_1d(np.asarray(ts, dtype=float))
        for slope, offset in maps:
            u = slope * u + offset if offset else slope * u
        xs, vs = factor.jet(u) if factor.jet is not None else (position_at(factor, u), None)
        if geometry.chart_domain is not None:
            try:
                ok = bool(geometry.chart_domain(xs))
            except (TypeError, ValueError):
                ok = all(geometry.contains(x) for x in xs)
            if not ok:
                raise ChartDomainError(
                    f"path {path.label or ''} leaves the chart of {geometry.label or 'geometry'}"
                )
        if vs is None:
            # Only an undescended path can lack an analytic velocity, so the
            # piece's finite-difference stencil is in this path's parameter.
            vs = velocity_at(factor, u, piece=piece)
        if maps:
            vs = scale * vs
        # Contract over the base index by hand, in (r, r, n, m) index order and
        # straight into an (r, r, m) array that is contiguous over the samples,
        # as the kernel reads it; n is small and einsum's dispatch overhead
        # dominates on long grids.  The rows read contiguously when coeffs3
        # returns a view of (r, r, n, m) storage and the velocities one of
        # (n, m) storage; any other layout is read strided, not copied.
        g3 = coeffs3_batch(geometry, xs).transpose(1, 2, 3, 0)
        vt = vs.T
        out = np.multiply(g3[:, :, 0], vt[0], out=np.empty((r, r, u.size)))
        for mu in range(1, n):
            out += np.multiply(g3[:, :, mu], vt[mu], out=np.empty_like(out))
        return out.transpose(2, 0, 1)

    return field


def _segment_nodes(path: Path, s: float, t: float) -> list[float]:
    """Integration nodes from s to t, splitting at path breakpoints."""
    if t >= s:
        inner = [b for b in path.breakpoints if s < b < t]
    else:
        inner = [b for b in path.breakpoints if t < b < s]
        inner = sorted(inner, reverse=True)
    return [s] + list(inner) + [t]


def transport_matrix_over_path(
    geometry: BundleGeometry, path: Path, s: float, t: float, *, step: float | None = None
) -> TransportMatrix:
    """Transport matrix L(t, s) along a path for a connection geometry."""
    s, t = float(s), float(t)
    lo, hi = path.domain
    eps = 1e-12 * max(1.0, abs(lo), abs(hi))
    if not (lo - eps <= s <= hi + eps and lo - eps <= t <= hi + eps):
        raise IntervalError(f"parameters ({s}, {t}) outside path domain {path.domain}")
    r = geometry.fibre_dim
    if s == t:
        return TransportMatrix(np.eye(r), path_id=path.label, s=s, t=t, step=0.0)
    nodes = _segment_nodes(path, s, t)
    bound = abs(t - s) / DEFAULT_STEP_COUNT if step is None else step
    bps = set(path.breakpoints)
    chunks = []
    used = 0.0
    for a, b in zip(nodes[:-1], nodes[1:]):
        field = path_coefficient_field(geometry, path, piece=(min(a, b), max(a, b)))
        n_steps = _step_count(abs(b - a), bound)
        used = max(used, abs(b - a) / n_steps)
        chunks += _propagate(field, a, b, n_steps, (a in bps, b in bps))
    return TransportMatrix(_chain(chunks), path_id=path.label, s=s, t=t, step=used)


def coefficients_along_path(geometry: BundleGeometry, path: Path, s: float) -> TransportCoefficients:
    """Coefficient matrix G(s) = coeffs3(path(s)) contracted with the velocity."""
    s = float(s)
    lo, hi = path.domain
    if not (lo <= s <= hi):
        raise IntervalError(f"parameter {s} outside path domain {path.domain}")
    x = position_at(path, s)
    g3 = coeffs3_at(geometry, x)
    v = velocity_at(path, s)
    return TransportCoefficients(np.einsum("abm,m->ab", g3, v), path_id=path.label, s=s)


def horizontal_lift(
    geometry: BundleGeometry,
    path: Path,
    s0: float,
    u: FibreVector,
    grid: Sequence[float],
    *,
    step: float | None = None,
    tol: float = 1e-9,
) -> LiftedPath:
    """Sampled horizontal lift of the path through a starting fibre vector.

    Returns parameters (sorted), base points and transported components
    ``L(t, s0) u`` over the grid.
    """
    s0 = float(s0)
    x0 = position_at(path, s0)
    if float(np.max(np.abs(np.asarray(u.base_point) - x0))) > tol:
        raise ChartDomainError("starting fibre vector is not attached to path(s0)")
    ts = np.sort(np.asarray(grid, dtype=float))
    lo, hi = path.domain
    if ts.size and (ts[0] < lo - 1e-12 or ts[-1] > hi + 1e-12):
        raise IntervalError("lift grid leaves the path domain")
    comps = np.empty((ts.size, geometry.fibre_dim))
    # March outward from s0 in both directions, reusing partial products.
    order = np.argsort(np.abs(ts - s0), kind="stable")
    right_mat = np.eye(geometry.fibre_dim)
    right_at = s0
    left_mat = np.eye(geometry.fibre_dim)
    left_at = s0
    for i in np.sort(order[ts[order] >= s0]):
        m = transport_matrix_over_path(geometry, path, right_at, float(ts[i]), step=step)
        right_mat = m.value @ right_mat
        right_at = float(ts[i])
        comps[i] = right_mat @ u.components
    for i in np.sort(order[ts[order] < s0])[::-1]:
        m = transport_matrix_over_path(geometry, path, left_at, float(ts[i]), step=step)
        left_mat = m.value @ left_mat
        left_at = float(ts[i])
        comps[i] = left_mat @ u.components
    return LiftedPath(ts=ts, base=position_at(path, ts), components=comps)


def coefficients_from_transport(
    transport_matrix_fn: Callable, s: float, *, h: float = 1e-4, path_id: str = ""
) -> TransportCoefficients:
    """Recover the coefficient matrix from a transport-matrix evaluator.

    ``transport_matrix_fn(a, b)`` must return the matrix (or TransportMatrix)
    carrying the fibre at a to the fibre at b.  The coefficients are the
    central difference of the inverse-oriented matrices,
    ``G(s) = [L(s+h, s)^(-1) - L(s-h, s)^(-1)] / (2h)``, accurate to O(h^2).
    """

    def value(a, b):
        out = transport_matrix_fn(a, b)
        return out.value if isinstance(out, TransportMatrix) else np.asarray(out, dtype=float)

    try:
        plus = np.linalg.inv(value(s, s + h))
        minus = np.linalg.inv(value(s, s - h))
    except np.linalg.LinAlgError as exc:
        raise NonInvertibleError(f"transport matrix near s={s} is not invertible") from exc
    return TransportCoefficients((plus - minus) / (2 * h), path_id=path_id, s=float(s))


def _coefficients_at_velocity(transport, x: np.ndarray, v: np.ndarray, *, half_width: float, fd_step: float, step: float | None) -> np.ndarray:
    """Coefficient matrix of a transport at x along the straight probe with velocity v."""
    probe = line_through(x, v, half_width)
    coeff = coefficients_from_transport(
        lambda a, b: transport.matrix(probe, a, b, step=step), 0.0, h=fd_step, path_id=probe.label
    )
    return coeff.value


def factorization_test(
    transport,
    x,
    probe_velocities=None,
    random_velocities=None,
    *,
    threshold: float = 1e-4,
    half_width: float = 0.1,
    fd_step: float = 1e-4,
    step: float | None = None,
    seed: int = 0,
    n_random: int = 8,
) -> FactorizationVerdict:
    """Decide whether a linear transport's coefficients factor through velocity.

    A candidate 3-index field at x is extracted from straight probes along the
    ``probe_velocities`` (default: coordinate unit vectors, which must span the
    base).  The residual is the worst mismatch between the directly measured
    coefficient matrix and the candidate contraction over ``random_velocities``
    plus the zero velocity; the zero-velocity probe alone already exposes
    transports with path-independent coefficients.
    """
    if not getattr(transport, "is_linear", False):
        raise NotApplicableError("factorization test needs a linear transport with a matrix realization")
    x = np.asarray(x, dtype=float)
    n = transport.base_dim
    r = transport.fibre_dim
    if transport.geometry is not None and not transport.geometry.contains(x):
        raise ChartDomainError(f"probe point {x.tolist()} lies outside the chart")
    probes = np.eye(n) if probe_velocities is None else np.asarray(probe_velocities, dtype=float)
    if probes.ndim != 2 or probes.shape[1] != n or np.linalg.matrix_rank(probes) < n:
        raise DegenerateProbeError("probe velocities must span the base tangent space")
    measured = np.stack(
        [_coefficients_at_velocity(transport, x, v, half_width=half_width, fd_step=fd_step, step=step) for v in probes]
    )
    # Solve measured[j] = sum_mu candidate[.., mu] probes[j, mu] for the candidate.
    flat, *_ = np.linalg.lstsq(probes, measured.reshape(probes.shape[0], r * r), rcond=None)
    candidate = np.moveaxis(flat.reshape(n, r, r), 0, -1)
    if random_velocities is None:
        rng = np.random.default_rng(seed)
        random_velocities = rng.standard_normal((n_random, n))
    checks = list(np.asarray(random_velocities, dtype=float)) + [np.zeros(n)]
    residual = 0.0
    for v in checks:
        direct = _coefficients_at_velocity(transport, x, v, half_width=half_width, fd_step=fd_step, step=step)
        predicted = np.einsum("abm,m->ab", candidate, v)
        residual = max(residual, float(np.max(np.abs(direct - predicted))))
    return FactorizationVerdict(point=x, candidate3=candidate, residual=residual, threshold=threshold, factorizable=residual <= threshold)


def connection_from_transport(
    transport,
    sample_points,
    *,
    threshold: float = 1e-4,
    half_width: float = 0.1,
    fd_step: float = 1e-4,
    step: float | None = None,
    seed: int = 0,
) -> BundleGeometry:
    """Extract the generating connection of a factorizable linear transport.

    Every sample point must pass the factorization test at ``threshold``;
    otherwise NotFactorizableError carries the failing verdicts.  The returned
    geometry evaluates coefficients by running the probe extraction at the
    queried point, so it is exact wherever the transport factorizes (no
    interpolation error at or between the sample points).
    """
    pts = [np.asarray(p, dtype=float) for p in sample_points]
    verdicts = [
        factorization_test(
            transport, p, threshold=threshold, half_width=half_width, fd_step=fd_step, step=step, seed=seed
        )
        for p in pts
    ]
    failed = [v for v in verdicts if not v.factorizable]
    if failed:
        worst = max(v.residual for v in failed)
        raise NotFactorizableError(
            f"transport is not factorizable at {len(failed)} of {len(pts)} sample points (worst residual {worst:.3e})",
            verdicts=failed,
        )
    n, r = transport.base_dim, transport.fibre_dim
    probes = np.eye(n)

    def extract(x):
        measured = np.stack(
            [_coefficients_at_velocity(transport, x, v, half_width=half_width, fd_step=fd_step, step=step) for v in probes]
        )
        return np.moveaxis(measured.reshape(n, r, r), 0, -1)

    def coeffs(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return extract(x)
        return np.stack([extract(row) for row in x])

    chart = transport.geometry.chart_domain if transport.geometry is not None else None
    label = f"recovered:{getattr(transport, 'label', '') or 'transport'}"
    return BundleGeometry(base_dim=n, fibre_dim=r, coeffs3=coeffs, chart_domain=chart, label=label)
