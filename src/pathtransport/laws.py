"""Law suites for transports along paths and parallel transports.

Each check samples a law's residual over seeded random fixtures and returns a
LawReport; ``passed`` always means ``max_residual <= tolerance``.  Checks over
independent samples are pure and may run concurrently, reducing by max.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .bundles import FibreVector
from .errors import IntervalError, NotApplicableError
from .paths import (
    Path,
    Reparametrization,
    _require_canonical,
    affine_reparametrization,
    bulge_reparametrization,
    check_parameters,
    identity_reparametrization,
    invert_canonical,
    line_through,
    point_path,
    position_at,
    product_canonical,
    reparametrize,
    restrict,
    velocity_at,
)
from .transports import KIND_GENERIC, ParallelTransport, TransportAlongPaths

DEFAULT_TOLERANCE = 1e-6
SMOOTHNESS_TOLERANCE = 1e-5


@dataclass(frozen=True)
class LawReport:
    """Result of checking one law over a sample set."""

    law_id: str
    samples: int
    max_residual: float
    tolerance: float
    seed: Optional[int] = None
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.max_residual <= self.tolerance))


def merge_reports(law_id: str, reports: Sequence[LawReport]) -> LawReport:
    """Combine per-fixture reports for the same law into one by max residual."""
    if not reports:
        raise ValueError("cannot merge an empty report list")
    return LawReport(
        law_id=law_id,
        samples=sum(r.samples for r in reports),
        max_residual=max(r.max_residual for r in reports),
        tolerance=min(r.tolerance for r in reports),
        seed=reports[0].seed,
    )


def format_float(x: float) -> str:
    """A float in reports: 9 significant digits."""
    return f"{x:.9g}"


def format_table(rows: Sequence[Sequence[str]], *, rule: bool = False) -> str:
    """Left-aligned columns two spaces apart, trailing blanks stripped; ``rule``
    underlines the header row with dashes."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    if rule:
        lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def law_reports_csv(reports: Iterable[LawReport]) -> str:
    lines = ["law_id,samples,max_residual,tolerance,passed,seed"]
    for r in reports:
        seed = "" if r.seed is None else str(r.seed)
        lines.append(
            f"{r.law_id},{r.samples},{format_float(r.max_residual)},{format_float(r.tolerance)},"
            f"{str(r.passed).lower()},{seed}"
        )
    return "\n".join(lines) + "\n"


def law_reports_table(reports: Iterable[LawReport]) -> str:
    rows = [("law", "samples", "max residual", "tolerance", "passed", "seed")]
    for r in reports:
        rows.append(
            (
                r.law_id,
                str(r.samples),
                format_float(r.max_residual),
                format_float(r.tolerance),
                "yes" if r.passed else "NO",
                "" if r.seed is None else str(r.seed),
            )
        )
    return format_table(rows, rule=True)


def _maxdiff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _drive(apply_many, checks: list) -> list:
    """Run law checks written as generators that yield lists of apply
    requests, receive their results and return a report.  Each round sends
    the requests of every pending check to one ``apply_many`` call, so their
    transports are integrated together."""
    results, replies = [None] * len(checks), [None] * len(checks)
    pending = range(len(checks))
    while pending:
        asked = []
        for i in pending:
            try:
                asked.append((i, checks[i].send(replies[i])))
            except StopIteration as stop:
                results[i] = stop.value
        out = apply_many([request for _, requests in asked for request in requests]) if asked else []
        for i, requests in asked:
            replies[i], out = out[: len(requests)], out[len(requests) :]
        pending = [i for i, _ in asked]
    return results


def _worst(pairs) -> float:
    """Largest component difference over pairs of fibre vectors (0 for none)."""
    residual = 0.0
    for a, b in pairs:
        residual = max(residual, _maxdiff(a.components, b.components))
    return residual


def _runs(items: list, *sizes: int) -> list[list]:
    """Consecutive runs of the given sizes."""
    runs = []
    for size in sizes:
        runs.append(items[:size])
        items = items[size:]
    return runs


# ---------------------------------------------------------------------------
# Random fixtures


def random_paths(rng: np.random.Generator, count: int, *, dim: int, box: Sequence[tuple[float, float]]) -> list[Path]:
    """Random C1 paths on [0, 1] inside a chart box.

    Cubic Bezier curves through random control points drawn from the inner 80%
    of the box; the convex-hull property keeps the whole curve inside.
    """
    lo = np.array([b[0] for b in box], dtype=float)
    hi = np.array([b[1] for b in box], dtype=float)
    pad = 0.1 * (hi - lo)
    paths = []
    for k in range(count):
        ctrl = rng.uniform(lo + pad, hi - pad, size=(4, dim))
        paths.append(_bezier_path(ctrl, (0.0, 1.0), label=f"bezier{k}"))
    return paths


def _bezier_path(ctrl: np.ndarray, domain: tuple[float, float], *, label: str = "bezier") -> Path:
    # Control points as (dim, 1) columns: the evaluators fill (dim, m)
    # storage and return its (m, dim) view.
    p0, p1, p2, p3 = points = [np.asarray(c, dtype=float)[:, None] for c in ctrl]
    diffs = [p1 - p0, p2 - p1, p3 - p2]
    a, b = domain
    span = b - a

    def basis(s):
        # w = normalised parameter (a float for one sample), 1 - w, squares and
        # cubes; the cubes take an array power, whose bits a float power may miss.
        w = (s - a) / span
        omw = 1.0 - w
        cubes = np.array((omw, w)) ** 3
        return w, omw, w * w, omw * omw, *(cubes.tolist() if cubes.ndim == 1 else cubes)

    def pos_from(w, omw, w2, omw2, omw3, w3, p0, p1, p2, p3):
        return omw3 * p0 + 3 * w * omw2 * p1 + 3 * w2 * omw * p2 + w3 * p3

    def vel_from(w, omw, w2, omw2, omw3, w3, d0, d1, d2):
        return (3 * (omw2 * d0 + 2 * w * omw * d1 + w2 * d2)) / span

    def evaluator(from_basis, columns):
        coords = list(zip(*(c[:, 0].tolist() for c in columns)))

        def fn(s):
            arr = np.asarray(s, dtype=float)
            if arr.ndim:
                return from_basis(*basis(arr), *columns).T
            # One sample: each coordinate in floats, by the same operations in the same order.
            powers = basis(float(arr))
            return np.array([from_basis(*powers, *c) for c in coords])

        return fn

    def jet(ts, reads=None):
        powers = basis(ts)
        return pos_from(*powers, *points).T, vel_from(*powers, *diffs).T

    return Path(
        dim=p0.size,
        domain=(a, b),
        position=evaluator(pos_from, points),
        velocity=evaluator(vel_from, diffs),
        label=label,
        jet=jet,
    )


def random_components(rng: np.random.Generator, count: int, fibre_dim: int) -> np.ndarray:
    return rng.standard_normal((count, fibre_dim))


# ---------------------------------------------------------------------------
# Transport-along-paths laws


def check_groupoid_laws(
    transport: TransportAlongPaths,
    path: Path,
    triples=None,
    u_samples=None,
    *,
    samples: int = 20,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    step: float | None = None,
) -> LawReport:
    """Composition, identity and two-sided inverse laws along one path."""
    check = _groupoid_steps(transport, path, triples, u_samples, samples, seed, tolerance)
    return _drive(lambda requests: transport.apply_many(requests, step=step), [check])[0]


def _groupoid_steps(transport, path, triples, u_samples, samples, seed, tolerance):
    rng = np.random.default_rng(seed)
    lo, hi = path.domain
    if triples is None:
        triples = rng.uniform(lo, hi, size=(samples, 3))
    triples = np.asarray(triples, dtype=float)
    if u_samples is None:
        u_samples = random_components(rng, len(triples), transport.fibre_dim)
    rows = [
        (r_, s_, t_, FibreVector(position_at(path, r_), comps))
        for (r_, s_, t_), comps in zip(triples, np.asarray(u_samples, dtype=float))
    ]
    # v = L(s, r) u and L(t, r) u; then w = L(t, s) v and L(s, s) v; then L(s, t) w.
    out = yield [(path, r_, s_, u) for r_, s_, _, u in rows] + [(path, r_, t_, u) for r_, _, t_, u in rows]
    vs, directs = _runs(out, len(rows), len(rows))
    out = yield [(path, s_, t_, v) for (_, s_, t_, _), v in zip(rows, vs)] + [
        (path, s_, s_, v) for (_, s_, _, _), v in zip(rows, vs)
    ]
    ws, stays = _runs(out, len(rows), len(rows))
    backs = yield [(path, t_, s_, w) for (_, s_, t_, _), w in zip(rows, ws)]
    residual = _worst([*zip(ws, directs), *zip(stays, vs), *zip(backs, vs)])
    return LawReport("groupoid", len(triples), residual, tolerance, seed=seed)


def default_reparams(domain: tuple[float, float]) -> list[Reparametrization]:
    return [
        identity_reparametrization(domain),
        affine_reparametrization((0.0, 1.0), domain),
        bulge_reparametrization((-1.0, 2.0), domain, 0.4),
        affine_reparametrization((0.0, 1.0), domain, reversing=True),
    ]


def check_parametrization_laws(
    transport: TransportAlongPaths,
    path: Path,
    subintervals=None,
    reparams=None,
    *,
    pairs_per_fixture: int = 2,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    step: float | None = None,
) -> LawReport:
    """Restriction and reparametrization invariance along one path.

    The default reparametrizations include an orientation-reversing one, which
    is what the inverse-path axiom of the derived parallel transport rests on.
    """
    check = _parametrization_steps(transport, path, subintervals, reparams, pairs_per_fixture, seed, tolerance)
    return _drive(lambda requests: transport.apply_many(requests, step=step), [check])[0]


def _parametrization_steps(transport, path, subintervals, reparams, pairs_per_fixture, seed, tolerance):
    rng = np.random.default_rng(seed)
    lo, hi = path.domain
    if subintervals is None:
        width = hi - lo
        starts = rng.uniform(lo, lo + 0.5 * width, size=3)
        ends = rng.uniform(starts + 0.3 * width, np.minimum(starts + 0.8 * width, hi))
        subintervals = list(zip(starts, ends))
    if reparams is None:
        reparams = default_reparams(path.domain)
    # Pairs of requests whose results must agree.
    requests = []
    for sub in subintervals:
        piece = restrict(path, (float(sub[0]), float(sub[1])))
        for _ in range(pairs_per_fixture):
            s_, t_ = rng.uniform(piece.domain[0], piece.domain[1], size=2)
            u = FibreVector(position_at(path, s_), rng.standard_normal(transport.fibre_dim))
            requests += [(piece, s_, t_, u), (path, s_, t_, u)]
    for chi in reparams:
        composed = reparametrize(path, chi)
        for _ in range(pairs_per_fixture):
            s_, t_ = rng.uniform(chi.source[0], chi.source[1], size=2)
            u = FibreVector(position_at(composed, s_), rng.standard_normal(transport.fibre_dim))
            requests += [(composed, s_, t_, u), (path, float(chi.map(s_)), float(chi.map(t_)), u)]
    out = yield requests
    return LawReport("parametrization", len(requests) // 2, _worst(zip(out[0::2], out[1::2])), tolerance, seed=seed)


def check_transport_laws(
    transport: TransportAlongPaths,
    paths: Sequence[Path],
    *,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    step: float | None = None,
) -> list[LawReport]:
    """The groupoid and parametrization laws over a set of paths.

    Path i gets one groupoid triple and one parametrization pair per fixture,
    seeded with ``seed + i``, as ``check_groupoid_laws(..., samples=1)`` and
    ``check_parametrization_laws(..., pairs_per_fixture=1)`` would; the
    reports of each law are merged.  The transports of all paths are
    integrated together.
    """
    checks = [_groupoid_steps(transport, p, None, None, 1, seed + i, tolerance) for i, p in enumerate(paths)]
    checks += [
        _parametrization_steps(transport, p, None, None, 1, seed + i, tolerance) for i, p in enumerate(paths)
    ]
    reports = _drive(lambda requests: transport.apply_many(requests, step=step), checks)
    k = len(paths)
    return [merge_reports("groupoid", reports[:k]), merge_reports("parametrization", reports[k:])]


# ---------------------------------------------------------------------------
# Parallel-transport axioms


@dataclass(frozen=True)
class ParallelAxiomFixtures:
    """Canonical-path fixtures feeding the four parallel-transport axioms."""

    canonical_paths: tuple[Path, ...]
    composable_pairs: tuple[tuple[Path, Path], ...]
    reparams: tuple[Reparametrization, ...]
    point_paths: tuple[Path, ...]


def split_canonical(path: Path) -> tuple[Path, Path]:
    """Both halves of a canonical path, each reparametrized back onto [0, 1]."""
    _require_canonical(path, "split_canonical")
    left = reparametrize(restrict(path, (0.0, 0.5)), affine_reparametrization((0.0, 1.0), (0.0, 0.5)))
    right = reparametrize(restrict(path, (0.5, 1.0)), affine_reparametrization((0.0, 1.0), (0.5, 1.0)))
    return left, right


def make_parallel_fixtures(paths: Sequence[Path]) -> ParallelAxiomFixtures:
    """Standard fixture set from canonical paths.

    Composable pairs are the two halves of each path (a smooth junction) plus
    each first half against its own inverse (a maximally kinked junction).
    """
    paths = tuple(paths)
    pairs = []
    points = []
    for p in paths:
        left, right = split_canonical(p)
        pairs.append((left, right))
        pairs.append((left, invert_canonical(left)))
        points.append(point_path(0.25, position_at(p, 0.0)))
    reparams = (
        identity_reparametrization((0.0, 1.0)),
        affine_reparametrization((-2.0, 3.0), (0.0, 1.0)),
        bulge_reparametrization((0.0, 1.0), (0.0, 1.0), 0.35),
    )
    return ParallelAxiomFixtures(
        canonical_paths=paths,
        composable_pairs=tuple(pairs),
        reparams=reparams,
        point_paths=tuple(points),
    )


def check_parallel_axioms(
    psi: ParallelTransport,
    fixtures: ParallelAxiomFixtures,
    *,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[LawReport]:
    """The four axioms: reparametrization invariance, inverse path, product
    path, and point-path identity.  Respects only orientation-preserving
    reparametrizations, per the invariance axiom."""
    rng = np.random.default_rng(seed)
    r = psi.fibre_dim

    def u_at(path: Path) -> FibreVector:
        return FibreVector(position_at(path, path.domain[0]), rng.standard_normal(r))

    # The fibre vectors are drawn axiom by axiom, as the checks read them;
    # the transports run in two batches.
    rep = [
        (reparametrize(path, chi), path, u_at(path))
        for path in fixtures.canonical_paths
        for chi in fixtures.reparams
        if chi.orientation == "preserving"
    ]
    inv = [(path, u_at(path)) for path in fixtures.canonical_paths]
    prod = [(p1, p2, u_at(p1)) for p1, p2 in fixtures.composable_pairs]
    pts = [(pp, u_at(pp)) for pp in fixtures.point_paths]
    out = psi.apply_many(
        [(composed, u) for composed, _, u in rep]
        + [(path, u) for _, path, u in rep]
        + inv
        + [(product_canonical(p1, p2), u) for p1, p2, u in prod]
        + [(p1, u) for p1, _, u in prod]
        + pts
    )
    rep_composed, rep_plain, inv_out, whole, first, pt_out = _runs(
        out, len(rep), len(rep), len(inv), len(prod), len(prod), len(pts)
    )
    out = psi.apply_many(
        [(invert_canonical(path), v) for (path, _), v in zip(inv, inv_out)]
        + [(p2, v) for (_, p2, _), v in zip(prod, first)]
    )
    inv_back, stepwise = _runs(out, len(inv), len(prod))
    return [
        LawReport("reparametrization-invariance", len(rep), _worst(zip(rep_composed, rep_plain)), tolerance, seed=seed),
        LawReport("inverse-path", len(inv), _worst(zip(inv_back, [u for _, u in inv])), tolerance, seed=seed),
        LawReport("product-path", len(prod), _worst(zip(whole, stepwise)), tolerance, seed=seed),
        LawReport("point-identity", len(pts), _worst(zip(pt_out, [u for _, u in pts])), tolerance, seed=seed),
    ]


# ---------------------------------------------------------------------------
# Smoothness conditions on lifted paths


def lift_tangent(
    transport: TransportAlongPaths, path: Path, s0: float, u: FibreVector, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference tangent of the lifted path t -> transport(s0 -> t)(u).

    Returns (base_tangent, fibre_tangent); s0 must sit at least h inside the
    path domain.
    """
    return _lift_tangents(transport, [(path, s0, u, h)])[0]


def _lift_tangents(
    transport: TransportAlongPaths, specs, step: float | None = None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``lift_tangent`` for many ``(path, s0, u, h)``, with one batch of transports at ``step``."""
    requests = []
    for path, s0, u, h in specs:
        if not h > 0:
            raise IntervalError(f"difference width {h} is not positive")
        check_parameters(path, s0 - h, s0 + h)
        requests += [(path, s0, s0 + h, u), (path, s0, s0 - h, u)]
    out = transport.apply_many(requests, step=step)
    tangents = []
    for (_, _, _, h), plus, minus in zip(specs, out[0::2], out[1::2]):
        base_tan = (np.asarray(plus.base_point) - np.asarray(minus.base_point)) / (2 * h)
        fibre_tan = (np.asarray(plus.components) - np.asarray(minus.components)) / (2 * h)
        tangents.append((base_tan, fibre_tan))
    return tangents


def check_smoothness_conditions(
    transport: TransportAlongPaths,
    path: Path,
    s0: float,
    u: FibreVector | None = None,
    *,
    h: float = 1e-3,
    tolerance: float = SMOOTHNESS_TOLERANCE,
    seed: int = 0,
    step: float | None = None,
) -> LawReport:
    """Differentiability conditions on lifted paths through one fibre vector.

    Lift tangents are Richardson-extrapolated central differences
    ``R(h) = (4 d(h/2) - d(h)) / 3``, free of the O(h^2) error of ``d(h)``.
    (a) the lift tangent is converging (``R(h)`` and ``R(h/2)`` differ by no
    more than the tolerance); (b) a second path with the same position and
    velocity at s0 (the straight probe) yields the same lift tangent; (c) lift
    tangents combine linearly over straight probes whose velocities are linear
    combinations, including the degenerate combination with zero total
    velocity (a point probe, whose lift tangent must vanish).  These are
    sampled certificates at s0, not global statements.
    """
    if transport.kind == KIND_GENERIC:
        raise NotApplicableError("smoothness conditions need a differentiable (linear) realization")
    rng = np.random.default_rng(seed)
    if u is None:
        u = FibreVector(position_at(path, s0), rng.standard_normal(transport.fibre_dim))
    x0 = np.asarray(position_at(path, s0))
    # The probe shares the path's position and velocity at s0 by construction,
    # so the base parts of the lift tangents agree up to differencing noise on
    # the path itself; the discriminating comparison is the fibre part.
    v1 = np.asarray(velocity_at(path, s0))
    u0 = FibreVector(x0, u.components)
    # Complementary direction for the linear-combination probes.
    v2 = np.zeros_like(v1)
    v2[int(np.argmin(np.abs(v1)))] = 1.0
    combos = [(1.0, 0.0), (0.0, 1.0), (0.7, 0.4), (1.0, 1.0), (2.0, -0.5)]
    # (path, s, vector, count): R(h), ..., R(h / 2**(count - 1)) along the
    # path, from d(h), ..., d(h / 2**count); the last probe has zero
    # velocity (equal and opposite combination), a point probe.
    probes = [(path, s0, u, 2)] + [
        (line_through(x0, v), 0.0, u0, 1)
        for v in [v1, v2] + [a1 * v1 + a2 * v2 for a1, a2 in combos] + [0.0 * v1]
    ]
    d = iter(
        fibre for _, fibre in _lift_tangents(
            transport, [(p, s, vec, h / 2**k) for p, s, vec, count in probes for k in range(count + 1)], step
        )
    )
    fib = []
    for *_, count in probes:
        diffs = [next(d) for _ in range(count + 1)]
        fib.append([(4 * fine - coarse) / 3 for coarse, fine in zip(diffs, diffs[1:])])
    (fib_p, fib_p2), (fib_1,), (fib_2,), *fib_c, (fib_zero,) = fib
    res_a = _maxdiff(fib_p, fib_p2)
    res_b = _maxdiff(fib_p, fib_1)
    res_c = 0.0
    for (a1, a2), (got,) in zip(combos, fib_c):
        res_c = max(res_c, _maxdiff(got, a1 * fib_1 + a2 * fib_2))
    res_c = max(res_c, float(np.max(np.abs(fib_zero))))

    residual = max(res_a, res_b, res_c)
    return LawReport("smoothness", len(combos) + 3, residual, tolerance, seed=seed)


# ---------------------------------------------------------------------------
# Linearity


def check_linearity(
    transport: TransportAlongPaths,
    path: Path,
    s: float,
    t: float,
    sample_pairs=None,
    *,
    samples: int = 10,
    seed: int = 0,
    tolerance: float = 1e-12,
    step: float | None = None,
) -> LawReport:
    """Additivity and homogeneity of the fibre map from s to t along a path."""
    rng = np.random.default_rng(seed)
    r = transport.fibre_dim
    x_s = position_at(path, s)
    if sample_pairs is None:
        sample_pairs = [
            (float(lam), float(mu), cu, cv)
            for (lam, mu), cu, cv in zip(
                rng.uniform(-2, 2, size=(samples, 2)),
                rng.standard_normal((samples, r)),
                rng.standard_normal((samples, r)),
            )
        ]
    # The same transport, three vectors a pair: integrated once.
    out = transport.apply_many(
        [
            (path, s, t, FibreVector(x_s, c))
            for lam, mu, cu, cv in sample_pairs
            for c in (lam * cu + mu * cv, cu, cv)
        ],
        step=step,
    )
    residual = 0.0
    for (lam, mu, _, _), combined, tu, tv in zip(sample_pairs, out[0::3], out[1::3], out[2::3]):
        residual = max(
            residual,
            _maxdiff(combined.components, lam * np.asarray(tu.components) + mu * np.asarray(tv.components)),
        )
    return LawReport("linearity", len(sample_pairs), residual, tolerance, seed=seed)
