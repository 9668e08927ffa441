"""Numerical core for linear transports along paths.

The propagator integrates the matrix lift equation

    dL(t, s)/dt = -G(t) L(t, s),       L(s, s) = Id,

with classical fixed-step RK4, where G(t) is the fibre coefficient matrix
along the path (the contraction of the 3-index field with the path velocity).
Backward transports (t < s) integrate backward rather than inverting the
forward matrix.  Piecewise-C1 paths are split at their breakpoints so a
velocity jump never falls inside an integration step; coefficient samples at
a breakpoint are nudged into the smooth side.  A piece is evaluated on the
smooth factor it runs on, down the ``Path.parts`` of composed paths.

Each interval is integrated in chunks of at most ``_CHUNK_STEPS`` steps: a
chunk samples the field on its own nodes, forms its per-step transitions in
(r, r, m) layout (one vectorised product over the m steps instead of m small
matrix products) and reduces them pairwise to one matrix; the chunk matrices
are reduced pairwise in turn.  Memory therefore grows with the chunk size,
not with the step count.  The chunks of many requests are integrated
together, in passes that hold at most one chunk's worth of samples
(``transport_matrices``); chunks over a path piece whose field is constant
(its factor's ``Path.steady``, through maps with a slope) skip the passes:
one node each, one kernel call for them all.  On a geometry whose field is
zero no chunk is built: every matrix is the identity, which RK4 gives there.

Matrix orientation: ``L(t, s)`` maps the fibre at parameter s to the fibre at
parameter t.  The coefficient matrix recovered from a transport is the
t-derivative of the *inverse-oriented* matrix at coincidence,
``G(s) = d/dt [L(t, s)^(-1)]|_(t=s)``, which reproduces the field that the
propagator consumed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import accumulate, groupby
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .bundles import BundleGeometry, FibreVector, coeffs3_batch, require_attached
from .errors import (
    ChartDomainError,
    DegenerateProbeError,
    IntervalError,
    NonInvertibleError,
    NotApplicableError,
    NotFactorizableError,
    SingularCoefficientError,
)
from .paths import Path, _chain_rule, batch_eval, check_parameters, line_through, position_at, smooth_part

#: Default number of RK4 steps when no absolute step size is given.
DEFAULT_STEP_COUNT = 1000

#: Central-difference width for coefficients recovered from a transport.
FD_STEP = 1e-4

#: Largest factorization residual that still counts as factorizable.
FACTORIZATION_THRESHOLD = 1e-4

#: Relative inward nudge for coefficient samples at breakpoints.
_BREAK_NUDGE = 1e-9

#: RK4 steps integrated per chunk; memory grows with this, not the step count.
#: At 2048 steps one chunk's temporaries are reused by the next from the
#: process heap; at 4096 the allocator handed them back to the OS after each
#: chunk, and a step-1e-5 latitude holonomy on the sphere took about 38k page
#: faults per call and ran about 40% slower.
_CHUNK_STEPS = 2048


class _Chunk(NamedTuple):
    """At most _CHUNK_STEPS RK4 steps from a to b; the first and last node
    move inward by lo and hi.  ``source`` says how to sample the field."""

    source: Any
    a: float
    b: float
    n: int
    lo: float
    hi: float


class _Source(NamedTuple):
    """The field along one smooth piece of a path: ``jet`` evaluates it;
    pieces with equal keys have the same jet.  ``steady`` says that the
    field is constant along the piece, because the velocity and every
    coordinate the geometry reads are constant: ``transport_matrices``
    samples its chunks at one node each."""

    key: tuple
    jet: Callable
    path: Path
    steady: bool


@dataclass(frozen=True)
class TransportMatrix:
    """The matrix L(t, s) of a linear transport along a fixed path; built
    directly, it warns when numerically singular (``_warn_singular``)."""

    value: np.ndarray
    path_id: str = ""
    s: float = 0.0
    t: float = 0.0
    step: float = 0.0  # integration step used; 0 marks a closed form

    def __post_init__(self):
        v = np.array(self.value, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "value", v)
        _warn_singular([self])

    @classmethod
    def _batch(cls, rows) -> list[TransportMatrix]:
        """One matrix per ``(value, path_id, s, t, step)`` row, as built
        directly but with one singular check over the whole batch."""
        mats = [object.__new__(cls) for _ in rows]
        for m, (value, *rest) in zip(mats, rows):
            m.__dict__.update(zip(cls.__dataclass_fields__, (np.array(value, dtype=float), *rest)))
            m.value.setflags(write=False)
        _warn_singular(mats)
        return mats


def _warn_singular(mats: list[TransportMatrix]) -> None:
    """The singular check: one stacked determinant, and a RuntimeWarning
    naming the path of each matrix whose |det| is below 1e-12."""
    dets = np.linalg.det(np.stack([m.value for m in mats])).tolist() if mats else []
    for m, det in zip(mats, dets):
        if abs(det) < 1e-12:
            msg = f"transport matrix over {m.path_id or 'path'} is numerically singular (det={det:.3e})"
            warnings.warn(msg, RuntimeWarning, stacklevel=3)


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
    factorizable: bool = field(init=False)

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


def _ordered_product(mats: np.ndarray, lengths) -> np.ndarray:
    """Ordered products over consecutive segments of an (r, r, K) stack.

    Segment c holds ``lengths[c]`` matrices and yields their product, latest
    on the left, as slice c of the (r, r, len(lengths)) result.  Each segment
    is reduced pairwise as if it were alone: adjacent pairs first, an odd
    last matrix carried up a level.
    """
    n = np.asarray(lengths)
    if mats.shape[-1] == n.size:
        return mats
    if n.size == 1:
        # Kept apart: one-segment products through the padded path below cost 7-20% more on triangle holonomy jobs.
        while mats.shape[-1] > 1:
            k = mats.shape[-1]
            even = k - k % 2
            paired = _matmul(mats[..., 1:even:2], mats[..., 0:even:2])
            mats = np.concatenate([paired, mats[..., -1:]], axis=-1) if k % 2 else paired
        return mats
    # Several segments: each is padded with identities to a power-of-two
    # width, so a level pairs adjacent matrices throughout, and an odd last
    # matrix meets an identity; I @ X is X bit for bit (finite X, whose zero
    # entries are +0.0, as every transition and every product here is).
    # Widest segments first: the segments that reach width 1 at a level are
    # the last ones of the stack, and leave it.
    width = np.left_shift(1, np.ceil(np.log2(n)).astype(int))
    order = np.argsort(-width, kind="stable")
    w, m = width[order], n[order]
    offset = np.repeat(np.cumsum(w) - w, w)
    pos = np.arange(offset.size) - offset
    src = np.where(pos < np.repeat(m, w), np.repeat((np.cumsum(n) - n)[order], w) + pos, mats.shape[-1])
    stack = np.take(np.concatenate([mats, np.eye(mats.shape[0])[:, :, None]], axis=2), src, axis=2)
    finishing = np.bincount(np.log2(w).astype(int)).tolist()
    done = []
    for count in finishing:
        if count:
            done.append(stack[..., stack.shape[-1] - count :])
            stack = stack[..., : stack.shape[-1] - count]
        if stack.shape[-1]:
            stack = _matmul(stack[..., 1::2], stack[..., 0::2])
    return np.take(np.concatenate(done[::-1], axis=2), np.argsort(order), axis=2)


def _eye_minus(eye: np.ndarray, k, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """I - k c over an (r, r, m) stack (k a scalar or one factor per m), written into ``out`` when given."""
    out = np.multiply(k, c, out=out)
    return np.subtract(eye, out, out=out)


def _uniform_product(t: np.ndarray, counts) -> np.ndarray:
    """Column c of the (r, r, C) stack t to the power ``counts[c]``, as
    ``_ordered_product`` of that many copies bit for bit, in O(log n)
    whole-stack products: each level of a column's pairwise tree is a run of
    equal matrices (one squaring) and at most one carried matrix after it."""
    run, carry, count = t, t, np.asarray(counts)
    held = np.zeros(count.shape, dtype=bool)
    while count.any():
        odd = count % 2 == 1
        joined = np.where(held, _matmul(carry, run), run) if (odd & held).any() else run
        carry, held, count = np.where(odd, joined, carry), held | odd, count // 2
        if count.any():
            # A finished column keeps its run: its discarded squares never run off to inf or subnormals.
            run = np.where(count > 0, _matmul(run, run), run)
    return carry


def _rk4_transitions(g: np.ndarray, h, lengths: np.ndarray, n_steps: int) -> np.ndarray:
    """RK4 transition matrices of dL/dt = -G(t) L over consecutive chunks.

    ``g`` is the (r, r, 2 n_steps + C) field sampled at the nodes of C chunks
    of ``lengths`` steps, n_steps in all, chunk after chunk: each chunk's
    n + 1 step ends, then its n midpoints.  ``h`` holds the n_steps signed
    step sizes, or one for all.  The per-step transitions are formed in
    (r, r, m) layout and reduced to one matrix per chunk; returns the
    (C, r, r) stack.  Chunks whose fields are constant may come with one
    sample and one step size each, (r, r, C): each forms one transition and
    reduces its n equal copies by ``_uniform_product``.
    """
    if not np.isfinite(g).all():
        raise SingularCoefficientError("non-finite coefficients encountered during integration")
    uniform = g.shape[-1] == lengths.size
    if uniform:
        c1 = mids = right = g
    elif lengths.size == 1:
        ends, mids = g[..., : n_steps + 1], g[..., n_steps + 1 :]
        c1, right = ends[..., :-1], ends[..., 1:]
    else:
        # Step k of chunk c starts at node k + (steps before c) + c.
        left = np.arange(n_steps) + np.repeat(np.cumsum(lengths) - lengths + np.arange(lengths.size), lengths)
        mids = np.take(g, left + np.repeat(lengths + 1, lengths), axis=2)
        c1, right = np.take(g, left, axis=2), np.take(g, left + 1, axis=2)
    # With P = -G the step is T = I + (h/6)(b1 + 2 b2 + 2 b3 + b4) for
    # b1 = P1, b2 = P2 (I + (h/2) b1), b3 = P2 (I + (h/2) b2),
    # b4 = P3 (I + h b3); c = -b below is the same recursion in G, with no
    # negated copy.  The sum c1 + 2 c2 + 2 c3 + c4 accumulates in c2, left
    # to right.
    eye = np.eye(g.shape[0])[:, :, None]
    c2 = _matmul(mids, _eye_minus(eye, h / 2, c1))
    c3 = _matmul(mids, _eye_minus(eye, h / 2, c2))
    c4 = _matmul(right, _eye_minus(eye, h, c3))
    c2 *= 2
    c2 += c1
    c3 *= 2
    c2 += c3
    c2 += c4
    steps = _eye_minus(eye, h / 6, c2, out=c2)
    out = _uniform_product(steps, lengths) if uniform else _ordered_product(steps, lengths)
    return out.transpose(2, 0, 1)


def _split(a: float, b: float, n_steps: int, nudge=(False, False), source=None) -> list[_Chunk]:
    """Consecutive chunks of at most _CHUNK_STEPS of the n_steps steps on
    [a, b]; ``nudge`` marks breakpoint ends."""
    h = (b - a) / n_steps
    delta = math.copysign(_BREAK_NUDGE * abs(b - a), h)
    chunks = []
    for k0 in range(0, n_steps, _CHUNK_STEPS):
        k1 = min(k0 + _CHUNK_STEPS, n_steps)
        last = k1 == n_steps
        chunks.append(
            _Chunk(
                source,
                a + k0 * h,
                b if last else a + k1 * h,
                k1 - k0,
                delta if nudge[0] and k0 == 0 else 0.0,
                delta if nudge[1] and last else 0.0,
            )
        )
    return chunks


def _integrate(chunks: list[_Chunk], sample: Callable) -> list:
    """The transition matrix of every chunk, in order.

    Chunks are packed in order into passes of at most 2 _CHUNK_STEPS + 1
    field samples, so at most _CHUNK_STEPS steps; a chunk is never split
    across passes.  ``sample(runs, pts)`` evaluates the field of a pass at
    its nodes, one ``(source, 2n + 1)`` run per chunk, as an (r, r, m) array.
    """
    mats, first, used = [], 0, 0
    for i, chunk in enumerate(chunks + [None]):
        size = 0 if chunk is None else 2 * chunk.n + 1
        if i > first and (chunk is None or used + size > 2 * _CHUNK_STEPS + 1):
            mats.extend(_pass(chunks[first:i], sample))
            first, used = i, 0
        used += size
    return mats


def _pass(chunks: list[_Chunk], sample: Callable) -> np.ndarray:
    """RK4 transition matrices of the chunks of one pass, (C, r, r).

    A chunk of n steps on [a, b] samples the field at a + (h/2) k for
    h = (b - a) / n: at its n + 1 step ends (k even), then at its n
    midpoints (k odd); its first and last end move inward by its nudges.
    """
    if len(chunks) == 1:
        # Kept apart: one-chunk passes through the packed gather below cost 35-65% more on triangle holonomy jobs.
        _, a, b, n, lo, hi = chunks[0]
        h = (b - a) / n
        k = np.arange(2 * n + 1)
        pts = a + 0.5 * h * np.concatenate((k[::2], k[1::2]))
        pts[0], pts[n] = a + lo, b - hi
        return _rk4_transitions(sample([(chunks[0].source, 2 * n + 1)], pts), h, np.array([n]), n)
    a, b, n, lo, hi = (np.array(col) for col in list(zip(*chunks))[1:])
    h = (b - a) / n
    size = 2 * n + 1
    first = np.cumsum(size) - size
    k = np.arange(2 * int(n.max()) + 1)
    k = np.concatenate([part for m in n.tolist() for part in (k[: 2 * m + 1 : 2], k[1 : 2 * m : 2])])
    pts = np.repeat(a, size) + np.repeat(0.5 * h, size) * k
    pts[first] = a + lo
    pts[first + n] = b - hi
    runs = [(c.source, 2 * c.n + 1) for c in chunks]
    return _rk4_transitions(sample(runs, pts), np.repeat(h, n), n, int(n.sum()))


def _chain(chunks: list) -> np.ndarray:
    """Product chunks[-1] @ ... @ chunks[0] of consecutive chunk matrices."""
    return chunks[0] if len(chunks) == 1 else _ordered_product(np.stack(chunks, axis=-1), [len(chunks)])[..., 0]


def _step_count(span: float, step: float | None, share: tuple[float, float] = (0.0, 1.0)) -> int:
    """RK4 steps over a piece of length ``span`` of a request.

    An explicit ``step`` bounds the step size: ceil(span / step) steps.  For
    ``step=None`` a request takes DEFAULT_STEP_COUNT = N steps in all: the
    piece lying between the fractions ``share`` of the request's span, counted
    from its start, takes round(N share[1]) - round(N share[0]) of them, and
    at least one.
    """
    if step is None:
        return max(1, round(DEFAULT_STEP_COUNT * share[1]) - round(DEFAULT_STEP_COUNT * share[0]))
    if not math.isfinite(step):
        raise IntervalError(f"integration step must be finite, not {step}")
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
    too.  ``step=None`` takes DEFAULT_STEP_COUNT steps; an explicit ``step``
    is an absolute bound on the step size (see ``_step_count``).  For t < s
    the integration runs backward.
    """
    s, t = float(s), float(t)
    field, r = _as_batch_field(coeff_field, s)
    if s == t:
        return TransportMatrix(np.eye(r), s=s, t=t, step=0.0)
    n_steps = _step_count(abs(t - s), step)
    mats = _integrate(_split(s, t, n_steps), lambda _, pts: np.ascontiguousarray(field(pts).transpose(1, 2, 0)))
    return TransportMatrix(_chain(mats), s=s, t=t, step=abs(t - s) / n_steps)


def _piece_jet(path: Path, piece: tuple[float, float] | None, reads: tuple[int, ...] | None) -> _Source:
    """The source of one smooth piece of a path: its ``jet(ts)`` gives the
    positions and velocities at parameters of the piece, evaluated through
    the ``jet`` of the smooth factor that the piece runs on
    (``paths.smooth_part``).  Parameters go through the maps outermost
    first, and velocities are scaled back innermost first, as the path's
    own evaluators nest, so the velocities and the ``reads`` coordinates
    equal the path's own evaluation bit for bit.  The source is steady when
    every map has a ``slope`` and the factor states that its velocity and
    every coordinate in ``reads`` (all of them for None) are constant."""
    factor, maps = (path, ()) if piece is None else smooth_part(path, *piece)

    def jet(u):
        us = list(accumulate(maps, lambda t, chi: chi.map(t), initial=u))
        xs, vs = factor.jet(us.pop(), reads)
        for chi, u in zip(maps[::-1], us[::-1]):
            vs = _chain_rule(chi, vs, u)
        return xs, vs

    # Restrictions share their path's jet, and products and inverses the module's maps.
    key = (id(factor.jet), *map(id, maps))
    read = range(path.dim) if reads is None else reads
    affine = all(chi.slope is not None for chi in maps)
    constant = affine and factor.steady is not None and set(read) <= set(factor.steady)
    return _Source(key, jet, path, constant)


def _check_chart(geometry: BundleGeometry, xs: np.ndarray, path: Path):
    """ChartDomainError naming the path unless every point of xs lies in the chart."""
    if geometry.chart_domain is None:
        return
    try:
        ok = bool(geometry.chart_domain(xs))
    except (TypeError, ValueError):
        ok = all(geometry.contains(x) for x in xs)
    if not ok:
        raise ChartDomainError(f"path {path.label or ''} leaves the chart of {geometry.label or 'geometry'}")


def _contract(geometry: BundleGeometry, xs: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """The (r, r, m) field G = coeffs3(x) . v at m points, contiguous over the
    samples; the geometry's own ``contract`` when it has one."""
    if geometry.contract is not None:
        return geometry.contract(xs, vs)
    # Contract over the base index by hand, in (r, r, n, m) index order and
    # straight into an (r, r, m) array that is contiguous over the samples,
    # as the kernel reads it; n is small and einsum's dispatch overhead
    # dominates on long grids.  The rows read contiguously when coeffs3
    # returns a view of (r, r, n, m) storage and the velocities one of
    # (n, m) storage; any other layout is read strided, not copied.
    r = geometry.fibre_dim
    g3 = coeffs3_batch(geometry, xs).transpose(1, 2, 3, 0)
    vt = vs.T
    out = np.multiply(g3[:, :, 0], vt[0], out=np.empty((r, r, len(xs))))
    for mu in range(1, geometry.base_dim):
        out += np.multiply(g3[:, :, mu], vt[mu], out=np.empty_like(out))
    return out


def path_coefficient_field(geometry: BundleGeometry, path: Path, *, piece: tuple[float, float] | None = None) -> Callable:
    """Batched coefficient field G(s) = coeffs3(path(s)) . velocity(s) along a path.

    The field maps m parameters to an (m, r, r) array, a view of an array
    stored in (r, r, m) order: one run of the integrators' sampler
    (``_geometry_sampler``).  With a ``piece``, every sample is evaluated
    through the ``jet`` of the smooth factor that the piece runs on
    (``paths.smooth_part``); the values equal the path's own evaluation bit
    for bit.
    """
    source, sample = _piece_jet(path, piece, geometry.reads), _geometry_sampler(geometry)

    def field(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return sample([(source, ts.size)], ts).transpose(2, 0, 1)

    return field


def _samples_last(arrays: list) -> np.ndarray:
    """(m_1 + ... + m_k, d) arrays stacked as the (m, d) view of (d, m) storage."""
    return arrays[0] if len(arrays) == 1 else np.concatenate([x.T for x in arrays], axis=1).T


def _geometry_sampler(geometry: BundleGeometry) -> Callable:
    """``sample(runs, pts)``: the (r, r, len(pts)) field at ``pts``, whose
    consecutive ``(source, count)`` runs give the source of each stretch of
    ``count`` points.  One jet call per stretch of runs with one key, one
    chart check over all points, then one contraction over them.

    A pass gives one run of 2n + 1 nodes per chunk (``_pass``); the steady
    chunks of a call give one run of one node each, their first
    (``transport_matrices``).  The chart check on that node gives the
    verdict for the whole chunk: ``reads`` covers ``chart_domain``, and the
    source states that every coordinate in ``reads`` is constant."""

    def sample(runs, pts):
        jets, start = [], 0
        for _, same in groupby(runs, key=lambda run: run[0].key):
            same = list(same)
            stop = start + sum(count for _, count in same)
            jets.append(same[0][0].jet(pts[start:stop]))
            start = stop
        xs = _samples_last([x for x, _ in jets])
        try:
            _check_chart(geometry, xs, runs[0][0].path)
        except ChartDomainError:
            # Name the path of the first run that leaves the chart.
            start = 0
            for source, count in runs:
                _check_chart(geometry, xs[start : start + count], source.path)
                start += count
            raise
        return _contract(geometry, xs, _samples_last([v for _, v in jets]))

    return sample


def _segment_nodes(path: Path, s: float, t: float) -> list[float]:
    """Integration nodes from s to t, splitting at path breakpoints."""
    if t >= s:
        inner = [b for b in path.breakpoints if s < b < t]
    else:
        inner = [b for b in path.breakpoints if t < b < s]
        inner = sorted(inner, reverse=True)
    return [s] + list(inner) + [t]


def transport_matrices(
    geometry: BundleGeometry, requests: Sequence[tuple[Path, float, float]], *, step: float | None = None
) -> list[TransportMatrix]:
    """Transport matrices L(t, s) for many ``(path, s, t)`` requests on one geometry.

    Each request is split at its path's breakpoints and into chunks of at
    most _CHUNK_STEPS steps, as it would be alone.  Steady chunks take one
    sampler call, one node each, and one kernel call; the rest are
    integrated together in passes (``_integrate``).  Every matrix equals
    its one-request result bit for bit.  Identical requests (the
    same path object, s and t) are integrated once, and the matrices are
    checked for singularity in one batch.  A geometry that reads no base
    coordinate (``reads == ()``) has constant coefficients; when one
    ``coeffs3`` sample is zero (a non-finite one is not), G = coeffs3 . v is
    zero on every path: no chunk is built, each request keeps its step and
    gets the identity, which RK4 gives on G = 0, and the chart, which reads
    no coordinate either, is checked once, at the first node of the first
    request with s != t.
    """
    requests = [(path, float(s), float(t)) for path, s, t in requests]
    zero = geometry.reads == () and not coeffs3_batch(geometry, np.zeros((1, geometry.base_dim))).any()
    plans = {}
    for path, s, t in requests:
        if (id(path), s, t) in plans:
            continue
        check_parameters(path, s, t)
        chunks, used = [], 0.0
        if s != t:
            nodes = _segment_nodes(path, s, t)
            bps = set(path.breakpoints)
            for a, b in zip(nodes[:-1], nodes[1:]):
                n_steps = _step_count(abs(b - a), step, (abs(a - s) / abs(t - s), abs(b - s) / abs(t - s)))
                used = max(used, abs(b - a) / n_steps)
                if not zero:
                    source = _piece_jet(path, (min(a, b), max(a, b)), geometry.reads)
                    chunks += _split(a, b, n_steps, (a in bps, b in bps), source)
        plans[id(path), s, t] = (path, s, t, chunks, used)
    first = next(((path, s) for path, s, t, *_ in plans.values() if s != t), None) if zero else None
    if first:
        _check_chart(geometry, np.atleast_2d(position_at(*first)), first[0])
    chunks = [c for *_, request_chunks, _ in plans.values() for c in request_chunks]
    # Chunks with one jet run side by side, so a pass evaluates each jet once.
    rank = {key: k for k, key in enumerate(dict.fromkeys(c.source.key for c in chunks))}
    order = sorted(range(len(chunks)), key=lambda i: rank[chunks[i].source.key])
    steady = [i for i in order if chunks[i].source.steady]
    varying = [i for i in order if not chunks[i].source.steady]
    sample, mats = _geometry_sampler(geometry), [None] * len(chunks)
    if steady:
        # A steady chunk's field is its first node's: one sample per chunk, one kernel call for them all.
        a, b, n, lo = (np.array(col) for col in list(zip(*(chunks[i] for i in steady)))[1:5])
        g = sample([(chunks[i].source, 1) for i in steady], a + lo)
        for i, m in zip(steady, _rk4_transitions(g, (b - a) / n, n, int(n.sum()))):
            mats[i] = m
    for i, m in zip(varying, _integrate([chunks[i] for i in varying], sample)):
        mats[i] = m
    mats = iter(mats)
    rows = [
        (_chain([next(mats) for _ in chunks]) if chunks else np.eye(geometry.fibre_dim), path.label, s, t, used)
        for path, s, t, chunks, used in plans.values()
    ]
    done = dict(zip(plans, TransportMatrix._batch(rows)))
    return [done[id(path), s, t] for path, s, t in requests]


def transport_matrix_over_path(
    geometry: BundleGeometry, path: Path, s: float, t: float, *, step: float | None = None
) -> TransportMatrix:
    """Transport matrix L(t, s) along a path for a connection geometry."""
    return transport_matrices(geometry, [(path, s, t)], step=step)[0]


def coefficients_along_path(geometry: BundleGeometry, path: Path, s: float) -> TransportCoefficients:
    """Coefficient matrix G(s) = coeffs3(path(s)) . velocity(s), one sample of the
    integrators' ``path_coefficient_field``; s is checked by ``check_parameters``."""
    s = float(s)
    check_parameters(path, s, s)
    # + 0.0 turns -0.0 into 0.0, as a sum from zero gives; reports print "0", not "-0".
    g = path_coefficient_field(geometry, path)(s)[0] + 0.0
    return TransportCoefficients(g, path_id=path.label, s=s)


def horizontal_lift(
    geometry: BundleGeometry,
    path: Path,
    s0: float,
    u: FibreVector,
    grid: Sequence[float],
    *,
    step: float | None = None,
) -> LiftedPath:
    """Sampled horizontal lift of the path through a starting fibre vector.

    Returns parameters (sorted), base points and transported components
    ``L(t, s0) u`` over the grid.  u must be attached to path(s0)
    (``require_attached``); the grid and s0 are checked as transport parameters.
    """
    s0 = float(s0)
    check_parameters(path, s0, s0)
    x0 = position_at(path, s0)
    require_attached(u, x0, geometry.fibre_dim)
    ts = np.sort(np.asarray(grid, dtype=float))
    comps = np.empty((ts.size, geometry.fibre_dim))
    # March outward from s0 in both directions, reusing partial products.
    order = np.argsort(np.abs(ts - s0), kind="stable")
    sides = (np.sort(order[ts[order] >= s0]), np.sort(order[ts[order] < s0])[::-1])
    requests = []
    for side in sides:
        at = s0
        for i in side:
            requests.append((path, at, float(ts[i])))
            at = float(ts[i])
    mats = iter(transport_matrices(geometry, requests, step=step))
    for side in sides:
        acc = np.eye(geometry.fibre_dim)
        for i in side:
            acc = next(mats).value @ acc
            comps[i] = acc @ u.components
    return LiftedPath(ts=ts, base=position_at(path, ts), components=comps)


def coefficients_from_transport(
    transport_matrix_fn: Callable, s: float, *, h: float = FD_STEP, path_id: str = ""
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


def _probe_coefficients(transport, probes, step: float | None) -> list[np.ndarray]:
    """Coefficient matrices of a transport at x along the straight probe
    ``line_through(x, v)``, for each ``(x, v)`` of ``probes``; one batch of transports."""
    lines = [line_through(x, v) for x, v in probes]
    mats = iter(transport.matrices([(p, 0.0, 0.0 + h) for p in lines for h in (FD_STEP, -FD_STEP)], step=step))
    out = []
    for p in lines:
        plus, minus = next(mats), next(mats)
        coeff = coefficients_from_transport(lambda a, b: plus if b > a else minus, 0.0, path_id=p.label)
        out.append(coeff.value)
    return out


def factorization_test(
    transport,
    x,
    probe_velocities=None,
    *,
    threshold: float = FACTORIZATION_THRESHOLD,
    step: float | None = None,
    seed: int = 0,
) -> FactorizationVerdict:
    """Decide whether a linear transport's coefficients factor through velocity.

    A candidate 3-index field at x is extracted from straight probes along the
    ``probe_velocities`` (default: coordinate unit vectors, which must span the
    base).  The residual is the worst mismatch between the directly measured
    coefficient matrix and the candidate contraction over 8 velocities drawn
    from ``seed`` plus the zero velocity; the zero-velocity probe alone already
    exposes transports with path-independent coefficients.
    """
    return _factorization_tests(transport, [x], probe_velocities, threshold=threshold, step=step, seed=seed)[0]


def _factorization_tests(transport, points, probes=None, *, threshold, step, seed) -> list[FactorizationVerdict]:
    """``factorization_test`` at each point, with the probes of all points in one batch."""
    if not getattr(transport, "is_linear", False):
        raise NotApplicableError("factorization test needs a linear transport with a matrix realization")
    points = [np.asarray(x, dtype=float) for x in points]
    n, r = transport.base_dim, transport.fibre_dim
    for x in points:
        if transport.geometry is not None and not transport.geometry.contains(x):
            raise ChartDomainError(f"probe point {x.tolist()} lies outside the chart")
    probes = np.eye(n) if probes is None else np.asarray(probes, dtype=float)
    if probes.ndim != 2 or probes.shape[1] != n or np.linalg.matrix_rank(probes) < n:
        raise DegenerateProbeError("probe velocities must span the base tangent space")
    checks = list(np.random.default_rng(seed).standard_normal((8, n))) + [np.zeros(n)]
    velocities = list(probes) + checks
    coeffs = iter(_probe_coefficients(transport, [(x, v) for x in points for v in velocities], step))
    verdicts = []
    for x in points:
        measured = np.stack([next(coeffs) for _ in probes])
        # Solve measured[j] = sum_mu candidate[.., mu] probes[j, mu] for the candidate.
        flat, *_ = np.linalg.lstsq(probes, measured.reshape(probes.shape[0], r * r), rcond=None)
        candidate = np.moveaxis(flat.reshape(n, r, r), 0, -1)
        residual = 0.0
        for v in checks:
            predicted = np.einsum("abm,m->ab", candidate, v)
            residual = max(residual, float(np.max(np.abs(next(coeffs) - predicted))))
        verdicts.append(FactorizationVerdict(x, candidate, residual, threshold))
    return verdicts


def connection_from_transport(
    transport,
    sample_points,
    *,
    threshold: float = FACTORIZATION_THRESHOLD,
    step: float | None = None,
    seed: int = 0,
) -> BundleGeometry:
    """Extract the generating connection of a factorizable linear transport.

    Every sample point must pass the factorization test at ``threshold``;
    otherwise NotFactorizableError carries the failing verdicts.  The returned
    geometry evaluates coefficients by running the probe extraction at the
    queried points (one batch of transports per call), so it is exact
    wherever the transport factorizes (no interpolation error at or between
    the sample points).
    """
    pts = [np.asarray(p, dtype=float) for p in sample_points]
    verdicts = _factorization_tests(transport, pts, threshold=threshold, step=step, seed=seed)
    failed = [v for v in verdicts if not v.factorizable]
    if failed:
        worst = max(v.residual for v in failed)
        raise NotFactorizableError(
            f"transport is not factorizable at {len(failed)} of {len(pts)} sample points (worst residual {worst:.3e})",
            verdicts=failed,
        )
    n, r = transport.base_dim, transport.fibre_dim
    probes = np.eye(n)

    def coeffs(x):
        x = np.asarray(x, dtype=float)
        rows = np.atleast_2d(x)
        measured = _probe_coefficients(transport, [(row, v) for row in rows for v in probes], step)
        out = np.stack(
            [np.moveaxis(np.stack(measured[i : i + n]).reshape(n, r, r), 0, -1) for i in range(0, len(measured), n)]
        )
        return out[0] if x.ndim == 1 else out

    chart = transport.geometry.chart_domain if transport.geometry is not None else None
    label = f"recovered:{getattr(transport, 'label', '') or 'transport'}"
    return BundleGeometry(base_dim=n, fibre_dim=r, coeffs3=coeffs, chart_domain=chart, label=label)
