"""Paths in a single base-space coordinate chart and their calculus.

A path is a parametrized curve ``s -> x(s)`` on a closed interval together
with its analytic velocity.  Evaluators accept a scalar parameter or a 1-d
array of parameters and are pure; all objects here are immutable after
construction and safe to share between threads.

Canonical inverses and products are defined only for paths on [0, 1]; all
other parameter conventions are reached through reparametrization.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ChartDomainError, EndpointMismatchError, IntervalError, SpecFormatError

#: Junction tolerance for canonical products, in chart coordinates.
JUNCTION_TOL = 1e-9

#: Collar around each pole of the sphere chart (theta, phi), in radians.
SPHERE_POLE_MARGIN = 1e-3


@dataclass(frozen=True)
class Path:
    """A parametrized curve in an n-dimensional coordinate chart.

    ``position`` and ``velocity`` map a parameter (scalar or 1-d array) to
    chart coordinates and their derivative (shape ``(dim,)`` or ``(m, dim)``).
    Both are required: a path without an analytic velocity is refused.
    ``breakpoints`` lists interior parameters where the velocity may jump;
    integrators split there and never evaluate a one-sided quantity from the
    wrong side.  Batched evaluators are fastest when they return the ``.T``
    view of ``(dim, m)`` storage, which integrators read without a copy; any
    layout gives the same values.

    The integrators read a path through its ``jet``.  ``jet(ts, reads=None)``
    maps a 1-d parameter array to the pair ``(positions, velocities)`` in
    one call, sharing the work that both need.  The velocities and the
    position coordinates listed in ``reads`` equal ``position`` and
    ``velocity`` bit for bit; a jet may skip the other coordinates, which
    are then NaN (``reads=None`` asks for all).  The integrators always pass
    ``reads``, so a jet must accept it.  A jet is bound to the evaluators it
    was built with: a path built without one, or by ``replace`` with a new
    ``position`` or ``velocity``, gets one that calls them.

    Two more optional fields describe the path's structure; neither changes
    its values.  ``steady``, when not None, states that the velocity is
    constant over the domain, and lists the position coordinates that are
    constant too; the builtin constructors work it out (a latitude's
    colatitude, a segment's coordinates of zero rate, every coordinate of a
    constant path).  ``parts`` lists entries ``(lo, hi, factor, chi)`` with
    ``path(t) = factor(chi.map(t))`` on ``[lo, hi]`` for a
    ``Reparametrization`` chi, so a piece that lies in one part can be
    evaluated on its factor (see ``smooth_part``).  Reparametrizations,
    canonical inverses and canonical products are all built from ``parts``,
    and state no ``steady`` of their own: the integrators read their
    factors' through maps with a ``slope``.  Restrictions keep ``parts``,
    ``steady`` and the jet object.
    """

    dim: int
    domain: tuple[float, float]
    position: Callable
    velocity: Callable
    breakpoints: tuple[float, ...] = ()
    label: str = ""
    jet: Optional[Callable] = None
    parts: tuple = ()
    steady: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        sigma, tau = self.domain
        if not (math.isfinite(sigma) and math.isfinite(tau)) or tau < sigma:
            raise IntervalError(f"bad path domain {self.domain!r}")
        if self.velocity is None:
            raise TypeError("a path needs an analytic velocity evaluator")
        bps = tuple(sorted(b for b in self.breakpoints if sigma < b < tau))
        object.__setattr__(self, "breakpoints", bps)
        evaluators = (self.position, self.velocity, (self.dim,))
        if not isinstance(self.jet, _Jet):
            object.__setattr__(self, "jet", _Jet(*evaluators, self.jet))
        elif self.jet[:3] != evaluators:  # ``replace`` with new evaluators: the old jet is another curve's
            object.__setattr__(self, "jet", _Jet(*evaluators))

    @property
    def is_point(self) -> bool:
        return self.domain[1] == self.domain[0]

    def at(self, s):
        return position_at(self, s)


class _Jet(NamedTuple):
    """A path's jet, bound to the evaluators it was built with: ``fn``, or
    the evaluators through ``batch_eval`` when there is none.  It holds the
    evaluators, not the path, so no reference cycle forms."""

    position: Callable
    velocity: Callable
    shape: tuple
    fn: Optional[Callable] = None

    def __call__(self, ts, reads=None):
        if self.fn is not None:
            return self.fn(ts, reads)
        ts = _as_param_array(ts)
        return batch_eval(self.position, ts, self.shape), batch_eval(self.velocity, ts, self.shape)


@dataclass(frozen=True)
class Reparametrization:
    """A C1 parameter change chi: source -> target with known derivative.

    ``orientation`` is derived from the map: "reversing" when it takes the
    end of ``source`` below the image of its start, else "preserving".
    ``slope`` is the constant derivative of an affine map, as a float:
    ``affine_reparametrization`` and ``identity_reparametrization`` set it,
    and it is None for every other map.  Velocities through a map with a
    slope scale by that float, so they stay constant where the factor's do.
    """

    source: tuple[float, float]
    target: tuple[float, float]
    map: Callable
    derivative: Callable
    orientation: str = field(init=False)
    slope: Optional[float] = field(init=False, default=None)

    def __post_init__(self):
        reversing = float(self.map(self.source[1])) < float(self.map(self.source[0]))
        object.__setattr__(self, "orientation", "reversing" if reversing else "preserving")


def _chain_rule(chi: Reparametrization, v, u):
    """Velocities ``v`` of a factor at ``chi.map(u)``, scaled to velocities
    at ``u``: by the float ``chi.slope``, or sample by sample by
    ``chi.derivative(u)`` for a map without one; samples-last storage stays."""
    if chi.slope is not None:
        return chi.slope * v
    return (v.T * np.asarray(chi.derivative(u), dtype=float)).T


def _as_param_array(s):
    arr = np.asarray(s, dtype=float)
    if arr.ndim > 1:
        raise ValueError("parameter arrays must be at most 1-d")
    return arr


def batch_eval(fn: Callable, items: np.ndarray, shape: tuple | None = None) -> np.ndarray:
    """``fn`` over a batch as one ``(len(items),) + shape`` array (any trailing
    shape when ``shape`` is None): one call on the whole batch, or, when that
    raises or returns another shape, one call per item (a float for a 1-d
    batch, a row otherwise) with each result reshaped.  A 0-d ``items`` is
    one scalar call, reshaped to ``shape``."""
    if items.ndim == 0:
        return np.asarray(fn(float(items)), dtype=float).reshape(shape)
    try:
        out = np.asarray(fn(items), dtype=float)
        if out.shape[:1] == (len(items),) and (shape is None or out.shape[1:] == shape):
            return out
    except (TypeError, ValueError, IndexError, AttributeError):
        pass
    each = items.tolist() if items.ndim == 1 else items
    outs = [np.asarray(fn(x), dtype=float) for x in each]
    return np.stack([out if shape is None else out.reshape(shape) for out in outs])


def position_at(path: Path, s):
    """Evaluate ``path.position``, tolerating scalar-only evaluators."""
    return batch_eval(path.position, _as_param_array(s), (path.dim,))


def positions_at(pairs) -> list[np.ndarray]:
    """``position_at(path, s)`` for many ``(path, s)`` pairs, bit for bit: each
    pair follows ``parts`` down to a factor as the composed evaluators do, then
    one batched call per evaluator that several pairs reach (restrictions and
    composed paths reach their factors'), and the scalar call for a pair alone."""
    groups: dict[int, tuple[Path, list[tuple[int, float]]]] = {}
    for i, (path, s) in enumerate(pairs):
        s = float(s)
        while path.parts:
            _, _, path, chi = next((part for part in path.parts if s <= part[1]), path.parts[-1])
            s = float(chi.map(s))
        groups.setdefault(id(path.position), (path, []))[1].append((i, s))
    out = [None] * len(pairs)
    for path, items in groups.values():
        idx, params = zip(*items)
        xs = position_at(path, params[0] if len(idx) == 1 else np.array(params))
        for i, x in zip(idx, np.reshape(xs, (len(idx), path.dim))):
            out[i] = x
    return out


def velocity_at(path: Path, s):
    """Evaluate ``path.velocity``, tolerating scalar-only evaluators."""
    return batch_eval(path.velocity, _as_param_array(s), (path.dim,))


def tangent(path: Path, s: float) -> np.ndarray:
    """Tangent vector of the path at s (zero for point paths); s is checked by ``check_parameters``."""
    check_parameters(path, s, s)
    return velocity_at(path, float(s))


def _domain_eps(path: Path) -> float:
    """How far outside its domain a parameter of the path is still taken as inside."""
    return 1e-12 * max(1.0, abs(path.domain[0]), abs(path.domain[1]))


def check_parameters(path: Path, s: float, t: float) -> None:
    """Raise IntervalError unless s and t lie in the path's domain (within ``_domain_eps``)."""
    lo, hi = path.domain
    eps = _domain_eps(path)
    if not (lo - eps <= s <= hi + eps and lo - eps <= t <= hi + eps):
        raise IntervalError(f"parameters ({s}, {t}) outside path domain {path.domain}")


def restrict(path: Path, sub: tuple[float, float]) -> Path:
    """Restriction of the path to a closed subinterval of its domain."""
    a, b = float(sub[0]), float(sub[1])
    sigma, tau = path.domain
    eps = _domain_eps(path)
    if a > b or a < sigma - eps or b > tau + eps:
        raise IntervalError(f"subinterval {sub!r} not contained in {path.domain}")
    a, b = max(a, sigma), min(b, tau)
    return replace(
        path,
        domain=(a, b),
        breakpoints=tuple(bp for bp in path.breakpoints if a < bp < b),
        label=f"{path.label}|[{a:g},{b:g}]" if path.label else "",
    )


def _monotone_preimage(chi: Reparametrization, value: float) -> float:
    lo, hi = chi.source
    increasing = chi.orientation == "preserving"
    f = chi.map
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = float(f(mid))
        if fm == value:
            return mid
        if (fm < value) == increasing:
            a = mid
        else:
            b = mid
        if b - a < 1e-15 * max(1.0, abs(lo), abs(hi)):
            break
    return 0.5 * (a + b)


def reparametrize(path: Path, chi: Reparametrization) -> Path:
    """The composed path ``path o chi``: one part over ``chi.source``."""
    if not all(abs(a - b) <= _domain_eps(path) for a, b in zip(chi.target, path.domain)):
        raise IntervalError(f"reparametrization target {chi.target} is not the path domain {path.domain}")
    bps = tuple(sorted(_monotone_preimage(chi, b) for b in path.breakpoints))
    label = f"{path.label}o{chi.orientation[:3]}" if path.label else ""
    return _composed(((float(chi.source[0]), float(chi.source[1]), path, chi),), bps, label)


def _require_canonical(path: Path, what: str):
    if abs(path.domain[0]) > 1e-12 or abs(path.domain[1] - 1.0) > 1e-12:
        raise IntervalError(f"{what} requires a canonical domain [0,1], got {path.domain}")


def _composed(parts: tuple, breakpoints: tuple, label: str) -> Path:
    """The path made of ``parts``, entries ``(lo, hi, factor, chi)`` that
    cover its domain in order.

    A parameter t goes to the first part with t <= hi (a junction to the left
    part, the rest to the last) and is evaluated on its factor at
    ``chi.map(t)``; velocities follow the chain rule (``_chain_rule``).
    """
    dim, his = parts[0][2].dim, [part[1] for part in parts]

    def evaluator(evaluate: Callable, scaled: bool) -> Callable:
        def on(part, u):
            _, _, factor, chi = part
            out = evaluate(factor, chi.map(u))
            return _chain_rule(chi, out, u) if scaled else out

        def fn(s):
            arr = _as_param_array(s)
            if arr.ndim == 0:
                t = float(arr)
                return on(next((p for p in parts if t <= p[1]), parts[-1]), t)
            which = np.minimum(np.searchsorted(his, arr), len(parts) - 1)
            if arr.size and (which == which[0]).all():
                return on(parts[which[0]], arr)
            out = np.empty((arr.size, dim))
            for k, part in enumerate(parts):
                sel = which == k
                if sel.any():
                    out[sel] = on(part, arr[sel])
            return out

        return fn

    return Path(
        dim=dim,
        domain=(parts[0][0], parts[-1][1]),
        position=evaluator(position_at, False),
        velocity=evaluator(velocity_at, True),
        breakpoints=breakpoints,
        label=label,
        parts=parts,
    )


def invert_canonical(path: Path) -> Path:
    """The canonical inverse path t -> path(1 - t) on [0, 1]."""
    _require_canonical(path, "invert_canonical")
    bps = tuple(sorted(1.0 - b for b in path.breakpoints))
    return _composed(((0.0, 1.0, path, _REVERSAL),), bps, f"{path.label}~" if path.label else "")


def product_canonical(p1: Path, p2: Path) -> Path:
    """Canonical product: p1 traversed on [0, 1/2], then p2 on [1/2, 1].

    Requires both factors canonical and p1(1) = p2(0) within ``JUNCTION_TOL``.
    The junction becomes a breakpoint; the velocity evaluator uses the left
    branch at t = 1/2.
    """
    _require_canonical(p1, "product_canonical")
    _require_canonical(p2, "product_canonical")
    if p1.dim != p2.dim:
        raise EndpointMismatchError("factor paths live in different chart dimensions")
    gap = float(np.max(np.abs(position_at(p1, 1.0) - position_at(p2, 0.0))))
    if gap > JUNCTION_TOL:
        raise EndpointMismatchError(f"junction mismatch {gap:.3e} exceeds tolerance {JUNCTION_TOL:.3e}")

    bps = tuple(0.5 * b for b in p1.breakpoints) + (0.5,) + tuple(0.5 + 0.5 * b for b in p2.breakpoints)
    label = f"({p1.label})*({p2.label})" if (p1.label or p2.label) else ""
    return _composed(((0.0, 0.5, p1, _FIRST_HALF), (0.5, 1.0, p2, _SECOND_HALF)), bps, label)


def smooth_part(path: Path, lo: float, hi: float) -> tuple[Path, tuple[Reparametrization, ...]]:
    """The innermost factor that the piece [lo, hi] of ``path`` runs on.

    Returns the factor and the maps of the ``parts`` that carry a parameter
    of the piece to the factor's parameter, outermost first.  Descends
    through ``parts`` while the piece lies inside one part.  Parameters that
    go through the maps one after another, outermost first, and velocities
    scaled back by ``_chain_rule``, innermost first, equal the path's own
    evaluation bit for bit, since its evaluators nest the same way.  When
    every map has a ``slope``, the factor's ``steady`` statement holds for
    the piece too.  The one exception is a sample exactly on a junction: it
    is evaluated on the factor of the piece, where a product's own
    evaluators take the left factor.  Integrators nudge breakpoint samples
    inward, so this shows only where a restriction starts exactly on a
    junction.
    """
    maps = []
    while True:
        for p_lo, p_hi, factor, chi in path.parts:
            if p_lo <= lo and hi <= p_hi:
                break
        else:
            return path, tuple(maps)
        lo, hi = sorted((float(chi.map(lo)), float(chi.map(hi))))
        maps.append(chi)
        path = factor


# ---------------------------------------------------------------------------
# Reparametrization factories


def identity_reparametrization(domain: tuple[float, float]) -> Reparametrization:
    d = (float(domain[0]), float(domain[1]))
    chi = Reparametrization(d, d, lambda s: np.asarray(s, dtype=float), lambda s: np.ones_like(np.asarray(s, dtype=float)))
    object.__setattr__(chi, "slope", 1.0)
    return chi


def affine_reparametrization(
    source: tuple[float, float], target: tuple[float, float], *, reversing: bool = False
) -> Reparametrization:
    (a, b), (c, d) = source, target
    if b <= a:
        raise IntervalError("source interval is degenerate")
    slope = (c - d) / (b - a) if reversing else (d - c) / (b - a)
    off = d - slope * a if reversing else c - slope * a

    def chi_map(s):
        # A float stays a float, with numpy's bits at a tenth of the cost; a
        # zero offset is not added, which would turn -0.0 into 0.0.
        s = s if isinstance(s, float) else np.asarray(s, dtype=float)
        return slope * s + off if off else slope * s

    chi = Reparametrization(
        (float(a), float(b)), (float(c), float(d)), chi_map, lambda s: np.full_like(np.asarray(s, dtype=float), slope)
    )
    object.__setattr__(chi, "slope", float(slope))
    return chi


#: The maps of canonical inverses, t -> 1 - t, and of the two halves of a
#: canonical product, t -> 2t and t -> 2t - 1.  Shared, so the pieces of
#: separately built products have equal keys in the integrators.
_REVERSAL = affine_reparametrization((0.0, 1.0), (0.0, 1.0), reversing=True)
_FIRST_HALF = affine_reparametrization((0.0, 0.5), (0.0, 1.0))
_SECOND_HALF = affine_reparametrization((0.5, 1.0), (0.0, 1.0))


def bulge_reparametrization(
    source: tuple[float, float], target: tuple[float, float], amount: float = 0.5
) -> Reparametrization:
    """Orientation-preserving diffeomorphism with non-constant derivative.

    chi'(x) = 1 + amount*(1 - 2x) in normalized coordinates; |amount| < 1
    keeps it strictly positive.
    """
    if not -1 < amount < 1:
        raise IntervalError("bulge amount must be in (-1, 1)")
    (a, b), (c, d) = source, target

    def norm(s):
        return (np.asarray(s, dtype=float) - a) / (b - a)

    def chi(s):
        x = norm(s)
        return c + (d - c) * (x + amount * x * (1 - x))

    def dchi(s):
        x = norm(s)
        return (d - c) * (1 + amount * (1 - 2 * x)) / (b - a)

    return Reparametrization((float(a), float(b)), (float(c), float(d)), chi, dchi)


def validate_reparametrization(chi: Reparametrization):
    """Check endpoint mapping (within 1e-9) and derivative sign on 31 interior samples."""
    a, b = chi.source
    preserving = chi.orientation == "preserving"
    c, d = chi.target if preserving else chi.target[::-1]
    if abs(float(chi.map(a)) - c) > 1e-9 or abs(float(chi.map(b)) - d) > 1e-9:
        raise IntervalError("reparametrization endpoints do not map onto the target interval")
    der = np.asarray(chi.derivative(np.linspace(a, b, 33)[1:-1]), dtype=float)
    if np.any(der <= 0 if preserving else der >= 0):
        sign = "positive" if preserving else "negative"
        raise IntervalError(f"derivative must stay {sign} for an orientation-{chi.orientation} change")


# ---------------------------------------------------------------------------
# Builtin path families


def _require_finite(what: str, *values) -> None:
    """SpecFormatError unless every value, a float or a flat array of them, is finite."""
    for value in values:
        items = value.ravel().tolist() if isinstance(value, np.ndarray) else [value]
        if not all(map(math.isfinite, items)):
            raise SpecFormatError(f"{what} must be finite, got {items}")


def _constant(value: np.ndarray) -> Callable:
    """Evaluator with one value at every parameter; for an array of m
    parameters, the (m, dim) view of (dim, m) storage."""
    column = value[:, None]

    def fn(s):
        arr = _as_param_array(s)
        return value.copy() if arr.ndim == 0 else np.repeat(column, arr.size, axis=1).T

    return fn


def point_path(r: float, point: Sequence[float]) -> Path:
    """The degenerate path with domain {r} sitting at a single chart point."""
    return replace(constant_path(point, (float(r), float(r))), label="point")


def constant_path(point: Sequence[float], domain: tuple[float, float] = (0.0, 1.0)) -> Path:
    """The stationary path at a chart point over ``domain`` (zero velocity)."""
    x = np.asarray(point, dtype=float)
    domain = (float(domain[0]), float(domain[1]))
    _require_finite("constant path point and domain", x, *domain)
    zero = np.zeros(x.size)
    return Path(
        dim=x.size, domain=domain, position=_constant(x), velocity=_constant(zero), label="constant",
        steady=tuple(range(x.size)),
    )


def segment(start: Sequence[float], end: Sequence[float], domain: tuple[float, float] = (0.0, 1.0)) -> Path:
    """Straight chart segment traversed affinely over the domain."""
    a = np.asarray(start, dtype=float)
    b = np.asarray(end, dtype=float)
    if a.shape != b.shape:
        raise SpecFormatError("segment endpoints have different dimensions")
    sigma, tau = float(domain[0]), float(domain[1])
    _require_finite("segment endpoints and domain", a, b, sigma, tau)
    if tau <= sigma:
        raise IntervalError("segment domain must be non-degenerate")
    rate = (b - a) / (tau - sigma)
    a_col, rate_col = a[:, None], rate[:, None]

    def pos(s):
        arr = _as_param_array(s)
        if arr.ndim == 0:
            return a + (float(arr) - sigma) * rate
        return (a_col + (arr - sigma) * rate_col).T

    steady = tuple(np.flatnonzero(rate == 0).tolist())
    return Path(dim=a.size, domain=(sigma, tau), position=pos, velocity=_constant(rate), label="segment", steady=steady)


def line_through(point: Sequence[float], direction: Sequence[float], half_width: float = 0.1) -> Path:
    """Straight probe through ``point`` with velocity ``direction`` on [-w, w]
    (the stationary path at ``point`` when the direction is zero)."""
    x0 = np.asarray(point, dtype=float)
    v = np.asarray(direction, dtype=float)
    w = float(half_width)
    _require_finite("probe point, direction and half width", x0, v, w)
    if all(abs(c) <= 1e-8 for c in v.ravel().tolist()):
        return constant_path(x0, domain=(-w, w))
    return segment(x0 - w * v, x0 + w * v, domain=(-w, w))


def _wrap_angle(x):
    """``np.mod(x, 2 pi)`` bit for bit, without the division when every entry
    already lies in [0, 2 pi) (-0.0 still becomes +0.0)."""
    if x.min(initial=0.0) >= 0.0 and x.max(initial=0.0) < 2 * math.pi:
        return x + 0.0
    return np.mod(x, 2 * math.pi)


def latitude(colatitude: float, turns: float = 1.0, phi0: float = 0.0) -> Path:
    """Latitude circle on the sphere chart (theta, phi), unit angular speed.

    Runs phi from phi0 over ``turns`` full revolutions, domain [0, 2*pi*turns].
    The azimuth is reduced mod 2*pi so whole turns close up exactly in chart
    coordinates (the chart-level image jumps where the azimuth wraps; the
    velocity evaluator is analytic and unaffected).  Colatitudes within
    ``SPHERE_POLE_MARGIN`` of a pole are rejected.
    """
    th = float(colatitude)
    _require_finite("latitude colatitude, turns and phi0", th, float(turns), float(phi0))
    if not (SPHERE_POLE_MARGIN < th < math.pi - SPHERE_POLE_MARGIN):
        raise ChartDomainError(f"latitude colatitude {th:g} is too close to a coordinate pole")
    span = 2 * math.pi * float(turns)
    if span <= 0:
        raise IntervalError("turns must be positive")

    def pos(s):
        arr = _as_param_array(s)
        phi = _wrap_angle(phi0 + arr)
        if arr.ndim == 0:
            return np.array([th, float(phi)])
        out = np.empty((2, arr.size))
        out[0] = th
        out[1] = phi
        return out.T

    vel = _constant(np.array([0.0, 1.0]))
    return Path(dim=2, domain=(0.0, span), position=pos, velocity=vel, label=f"latitude({th:g})", steady=(0,))


def _sphere_embed(theta, phi):
    st, ct = np.sin(theta), np.cos(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=-1)


def _arc_embed(s, anchor, speed, p3, q3):
    """Parameters, cosine and sine of the arc angle, and the (3, m) embedded
    points of the great circle through the column p3 with unit tangent q3."""
    arr = _as_param_array(s)
    ang = speed * (np.atleast_1d(arr) - anchor)
    cos, sin = np.cos(ang), np.sin(ang)
    return arr, cos, sin, cos * p3 + sin * q3


def great_circle(
    point: Sequence[float],
    direction: Sequence[float],
    length: float = math.pi,
    *,
    domain: tuple[float, float] | None = None,
    anchor: float | None = None,
) -> Path:
    """Great-circle arc on the sphere chart with prescribed chart velocity.

    ``point`` = (theta0, phi0); ``direction`` = chart velocity (dtheta, dphi)
    at the ``anchor`` parameter (default: the domain start).  The arc is
    computed in the ambient embedding and pulled back to the chart, so the
    chart velocity at the anchor is exactly ``direction``.  The azimuth is
    continuous, phi0 at the anchor: x y' - y x' = speed c for the constant
    c = (p3 x q3)_z (p3 the point, q3 the unit tangent), so it turns one way,
    by 2 pi per revolution, and stays strictly within pi of phi0 +
    copysign(speed, c) (s - anchor), which picks its branch.  Arcs that come
    within ``SPHERE_POLE_MARGIN`` of a pole are rejected.
    """
    th0, ph0 = float(point[0]), float(point[1])
    a, b = (0.0, float(length)) if domain is None else (float(domain[0]), float(domain[1]))
    _require_finite(
        "great_circle point, direction, domain and anchor",
        th0, ph0, float(direction[0]), float(direction[1]), a, b, a if anchor is None else float(anchor),
    )
    if b <= a:
        raise IntervalError("great_circle domain must be non-degenerate")
    s_anchor = a if anchor is None else float(anchor)
    if not (a <= s_anchor <= b):
        raise IntervalError("great_circle anchor must lie in the domain")
    p3 = _sphere_embed(th0, ph0)
    # Pushforward of the chart velocity: d/dtheta, d/dphi of the embedding.
    st, ct = math.sin(th0), math.cos(th0)
    sp, cp = math.sin(ph0), math.cos(ph0)
    e_th = np.array([ct * cp, ct * sp, -st])
    e_ph = np.array([-st * sp, st * cp, 0.0])
    v3 = float(direction[0]) * e_th + float(direction[1]) * e_ph
    speed = float(np.linalg.norm(v3))
    if speed == 0.0:
        raise SpecFormatError("great_circle direction must be nonzero")
    q3 = v3 / speed
    p3_col, q3_col = p3[:, None], q3[:, None]

    def embed(s):
        return _arc_embed(s, s_anchor, speed, p3_col, q3_col)

    c = p3[0] * q3[1] - p3[1] * q3[0]  # (p3 x q3)_z, which gives the azimuth's branch
    rate = math.copysign(speed, c) if c else 0.0
    # The height z = cos(u) p3_z + sin(u) q3_z at arc angle u is extreme at
    # u = atan2(q3_z, p3_z) + k pi, so the arc comes closest to each pole
    # there, where that lies inside the arc, or at an end.
    lo, hi = speed * (a - s_anchor), speed * (b - s_anchor)
    alpha = math.atan2(q3[2], p3[2])
    first = alpha + math.pi * math.ceil((lo - alpha) / math.pi)
    u = np.array([lo, hi] + [x for x in (first, first + math.pi) if x <= hi])
    theta = np.arccos(np.clip(np.cos(u) * p3[2] + np.sin(u) * q3[2], -1.0, 1.0))
    if not np.all((theta > SPHERE_POLE_MARGIN) & (theta < math.pi - SPHERE_POLE_MARGIN)):
        raise ChartDomainError("great-circle arc passes too close to a coordinate pole")

    # Both chart evaluators fill (2, m) storage and return its (m, 2) view.
    def chart_position(arr, pts, reads=None):
        out = np.empty((2, pts.shape[1]))
        x, y, z = pts
        np.arccos(np.clip(z, -1.0, 1.0), out=out[0])
        if reads is not None and 1 not in reads:
            out[1] = math.nan  # the azimuth, which nothing reads
            return out.T
        raw = np.arctan2(y, x)
        guess = ph0 + rate * (arr - s_anchor)
        np.add(raw, 2 * math.pi * np.round((guess - raw) / (2 * math.pi)), out=out[1])
        return out.T

    def chart_velocity(cos, sin, pts):
        out = np.empty((2, pts.shape[1]))
        x, y, _ = pts
        # Row by row and in place: one chunk's temporaries stay well below
        # the allocator's trim threshold (README, "Numerical conventions").
        dx, dy, dz = (-sin * p for p in p3)
        for d, q in zip((dx, dy, dz), q3):
            d += cos * q
            d *= speed
        rho2 = x * x
        rho2 += y * y
        root = np.maximum(rho2, 1e-300)
        np.divide(np.negative(dz, out=dz), np.sqrt(root, out=root), out=out[0])
        dy *= x
        dx *= y
        dy -= dx
        np.divide(dy, rho2, out=out[1])
        return out.T

    def pos(s):
        arr, _, _, pts = embed(s)
        out = chart_position(arr, pts)
        return out[0] if arr.ndim == 0 else out

    def vel(s):
        arr, cos, sin, pts = embed(s)
        out = chart_velocity(cos, sin, pts)
        return out[0] if arr.ndim == 0 else out

    def jet(ts, reads=None):
        arr, cos, sin, pts = embed(ts)
        return chart_position(arr, pts, reads), chart_velocity(cos, sin, pts)

    return Path(dim=2, domain=(a, b), position=pos, velocity=vel, label="great_circle", jet=jet)


def spline_path(samples_s: Sequence[float], samples_x, *, label: str = "samples") -> Path:
    """Cubic-spline interpolant through sampled chart points."""
    from scipy.interpolate import CubicSpline

    ss = np.asarray(samples_s, dtype=float)
    xs = np.asarray(samples_x, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    if ss.ndim != 1 or ss.size < 2 or np.any(np.diff(ss) <= 0):
        raise SpecFormatError("sample parameters must be strictly increasing with at least two rows")
    if xs.shape[0] != ss.size:
        raise SpecFormatError("sample rows do not match the parameter column")
    spline = CubicSpline(ss, xs, axis=0)
    dspline = spline.derivative()
    # The spline maps a parameter to (dim,) and m parameters to (m, dim), as Path expects.
    return Path(dim=xs.shape[1], domain=(float(ss[0]), float(ss[-1])), position=spline, velocity=dspline, label=label)


def spline_path_from_csv(filename: str) -> Path:
    """Load a `samples` path from CSV rows (s, x1, ..., xn)."""
    data = read_csv_rows(filename, "sample")
    return spline_path(data[:, 0], data[:, 1:], label=f"samples:{filename}")


# ---------------------------------------------------------------------------
# Textual path specifications


def read_csv_rows(filename: str, what: str, width: int | None = None) -> np.ndarray:
    """Numeric CSV rows as an (m, width) array, skipping blank and ``#`` rows.

    ``width`` defaults to the first row's; a row of another width, a
    non-numeric cell or a file without rows raises SpecFormatError, whose
    message names the rows as ``what`` rows.
    """
    rows = []
    with open(filename, newline="") as fh:
        for rec in csv.reader(fh):
            if not rec or rec[0].lstrip().startswith("#"):
                continue
            width = len(rec) if width is None else width
            if len(rec) != width:
                raise SpecFormatError(f"{what} row {rec!r} should have {width} columns")
            try:
                rows.append([float(v) for v in rec])
            except ValueError as exc:
                raise SpecFormatError(f"bad {what} row {rec!r} in {filename}") from exc
    if not rows:
        raise SpecFormatError(f"no {what} rows found in {filename}")
    return np.asarray(rows, dtype=float)


def parse_key_values(text: str, what: str, key: Callable = str.lower) -> dict[str, str]:
    """``key = value`` lines as a dict, later lines winning.

    Text after ``#`` and blank lines are skipped; keys pass through ``key``
    after stripping.  Any other line raises SpecFormatError.
    """
    fields = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecFormatError(f"{what} line {raw!r} is not key = value")
        name, _, val = line.partition("=")
        fields[key(name.strip())] = val.strip()
    return fields


_NUMBER_RE = re.compile(r"^\s*([+-]?)\s*(\d+(?:\.\d*)?|\.\d+)?\s*\*?\s*pi\s*(?:/\s*(\d+(?:\.\d*)?|\.\d+))?\s*$")


def parse_scalar(text: str) -> float:
    """Parse a number, allowing 'pi' forms like pi, -pi/2, 2pi, 0.5*pi/3."""
    m = _NUMBER_RE.match(text)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        return sign * num * math.pi / den
    try:
        return float(text)
    except ValueError as exc:
        raise SpecFormatError(f"cannot parse number {text!r}") from exc


def parse_vector(text: str) -> np.ndarray:
    return np.array([parse_scalar(part) for part in text.split(",")])


def parse_path_spec(spec: str) -> Path:
    """Build a builtin path from a spec string.

    Format: ``family`` or ``family:field=value;field=value`` where vector
    values are comma separated.  Families: segment {from,to}, latitude
    {colatitude,turns,phi0}, great_circle {point,direction,length}, constant
    {point}, samples {file}.  ``latitude:pi/3`` abbreviates the colatitude.
    """
    head, _, rest = spec.partition(":")
    family = head.strip().lower()
    fields: dict[str, str] = {}
    positional: list[str] = []
    if rest:
        for item in rest.split(";"):
            item = item.strip()
            if not item:
                continue
            if "=" in item:
                key, _, val = item.partition("=")
                fields[key.strip().lower()] = val.strip()
            else:
                positional.append(item)
    try:
        if family == "segment":
            return segment(parse_vector(fields["from"]), parse_vector(fields["to"]))
        if family == "constant":
            return constant_path(parse_vector(fields["point"]))
        if family == "latitude":
            colat = parse_scalar(fields.get("colatitude", positional[0] if positional else ""))
            return latitude(
                colat,
                turns=parse_scalar(fields["turns"]) if "turns" in fields else 1.0,
                phi0=parse_scalar(fields["phi0"]) if "phi0" in fields else 0.0,
            )
        if family == "great_circle":
            return great_circle(
                parse_vector(fields["point"]),
                parse_vector(fields["direction"]),
                length=parse_scalar(fields["length"]) if "length" in fields else math.pi,
            )
        if family == "samples":
            return spline_path_from_csv(fields["file"])
    except KeyError as exc:
        raise SpecFormatError(f"path spec {spec!r} is missing field {exc}") from exc
    except IndexError as exc:
        raise SpecFormatError(f"path spec {spec!r} is missing its positional value") from exc
    raise SpecFormatError(f"unknown path family {family!r}")
