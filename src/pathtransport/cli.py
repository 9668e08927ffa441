"""Command-line interface.

Subcommands: list-geometries, transport, check-laws, factorize, roundtrip,
holonomy.  Exit status 0 when every emitted check passed, 1 when at least one
record failed, 2 on configuration errors.  With a fixed --seed, repeated runs
write byte-identical report files; all floats are printed with 9 significant
digits.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import math
import os
import sys
from pathlib import Path as FsPath

import numpy as np

from .bundles import FibreVector
from .catalog import GeometryCatalogEntry, get_entry, load_geometry_spec, sample_paths, standard_catalog
from .engine import FACTORIZATION_THRESHOLD, coefficients_along_path, connection_from_transport, factorization_test
from .errors import NotFactorizableError, PathTransportError
from .holonomy import holonomy, latitude_sweep
from .laws import (
    DEFAULT_TOLERANCE,
    check_linearity,
    check_parallel_axioms,
    check_smoothness_conditions,
    check_transport_laws,
    format_float,
    format_table,
    LawReport,
    law_reports_csv,
    law_reports_table,
    make_parallel_fixtures,
)
from .paths import parse_key_values, parse_path_spec, parse_scalar, parse_vector, position_at, positions_at
from .transports import KIND_GENERIC, parallel_from_transport, transport_from_parallel

OUTDIR_ENV = "PATHTRANSPORT_OUTDIR"

def _apply_config(filename: str, parsers: list[argparse.ArgumentParser]) -> None:
    """Make each ``key = value`` line of a config file the default of the flag whose
    dest is the key (dashes read as underscores), converted by that flag's ``type``,
    in every parser; a key that names no flag is an error."""
    fields = parse_key_values(FsPath(filename).read_text(), "config", key=lambda k: k.replace("-", "_"))
    flags = [a for p in parsers for a in p._actions if a.option_strings and a.default != argparse.SUPPRESS]
    types = {a.dest: a.type or str for a in flags}
    defaults = {}
    for key, text in fields.items():
        if key not in types:
            raise PathTransportError(f"unknown config key {key!r}")
        try:
            defaults[key] = types[key](text)
        except ValueError:
            raise PathTransportError(f"config key {key!r}: {text!r} is not a valid {types[key].__name__}") from None
    for p in parsers:
        p.set_defaults(**defaults)


def _build_parser() -> tuple[argparse.ArgumentParser, list[argparse.ArgumentParser]]:
    """The parser and every parser a config file sets defaults in (it and its subparsers)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--geometry", help="catalog geometry id (see list-geometries)")
    common.add_argument("--geometry-file", help="key-value geometry spec file")
    common.add_argument("--out", help="output directory (default: $PATHTRANSPORT_OUTDIR or '.')")
    common.add_argument("--seed", type=int, default=0, help="random seed for all fixtures")
    common.add_argument("--step", type=float, default=1e-3, help="RK4 integration step")
    common.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE, help="law-check tolerance")

    parser = argparse.ArgumentParser(
        prog="pathtransport",
        description="Transports along paths in vector bundles: law checks, factorization, holonomy.",
    )
    parser.add_argument("--config", help="key-value config file; command-line flags take precedence")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = []

    subparsers.append(sub.add_parser("list-geometries", parents=[common], help="list shipped geometries and their traits"))

    p = sub.add_parser("transport", parents=[common], help="transport a fibre vector along a path")
    subparsers.append(p)
    p.add_argument("--path", required=True, help="path spec, e.g. latitude:pi/3 or segment:from=0,0;to=1,1")
    p.add_argument("--from", dest="from_param", type=float, default=None, help="start parameter")
    p.add_argument("--to", dest="to_param", type=float, default=None, help="end parameter")
    p.add_argument("--vector", required=True, help="comma-separated fibre components at the start")

    p = sub.add_parser("check-laws", parents=[common], help="run the transport law suites")
    subparsers.append(p)
    p.add_argument("--samples", type=int, default=50, help="number of random (path, r, s, t, u) samples")
    p.add_argument("--fixtures", type=int, default=3, help="canonical paths behind the parallel-axiom checks")

    p = sub.add_parser("factorize", parents=[common], help="test the velocity-factorization criterion")
    subparsers.append(p)
    p.add_argument("--points", type=int, default=10, help="number of chart points to probe")
    p.add_argument("--threshold", type=float, default=FACTORIZATION_THRESHOLD, help="factorizability threshold")

    p = sub.add_parser("roundtrip", parents=[common], help="transport<->parallel and connection round trips")
    subparsers.append(p)
    p.add_argument("--samples", type=int, default=200, help="random samples for the transport round trip")
    p.add_argument("--points", type=int, default=20, help="chart points for the connection round trip")
    p.add_argument("--threshold", type=float, default=FACTORIZATION_THRESHOLD, help="factorizability threshold")

    p = sub.add_parser("holonomy", parents=[common], help="loop holonomy and latitude sweeps")
    subparsers.append(p)
    p.add_argument("--loop", help="loop path spec, e.g. latitude:pi/3")
    p.add_argument("--sweep", help="colatitude sweep 'start:stop:count', e.g. 0.3:1.4:10")
    p.add_argument("--turns", type=float, default=1.0, help="number of revolutions for sweep loops")

    return parser, [parser, *subparsers]


def _resolve_entry(args) -> GeometryCatalogEntry:
    if getattr(args, "geometry_file", None):
        return load_geometry_spec(FsPath(args.geometry_file).read_text())
    if getattr(args, "geometry", None):
        return get_entry(args.geometry)
    raise PathTransportError("a geometry is required: pass --geometry ID or --geometry-file FILE")


def _outdir(args) -> FsPath:
    out = getattr(args, "out", None) or os.environ.get(OUTDIR_ENV) or "."
    d = FsPath(out)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _write(outdir: FsPath, name: str, text: str):
    (outdir / name).write_text(text, newline="\n")


def _cmd_list(args) -> int:
    rows = [("id", "base", "fibre", "kind", "traits", "description")]
    for entry in standard_catalog().values():
        flags = ",".join(name for name, on in dataclasses.asdict(entry.traits).items() if on)
        rows.append(
            (
                entry.id,
                str(entry.transport.base_dim),
                str(entry.transport.fibre_dim),
                entry.transport.kind,
                flags or "-",
                entry.description,
            )
        )
    print(format_table(rows), end="")
    return 0


def _cmd_transport(args) -> int:
    entry = _resolve_entry(args)
    transport = entry.transport
    path = parse_path_spec(args.path)
    s = path.domain[0] if args.from_param is None else args.from_param
    t = path.domain[1] if args.to_param is None else args.to_param
    vec = parse_vector(args.vector)
    u = FibreVector(position_at(path, s), vec)
    (result,), mats = transport.apply_many_with_matrices([(path, s, t, u)], step=args.step)
    if mats is not None:
        _write(_outdir(args), "transport_matrix.csv", _matrices_csv([(s, t, mats[0].value)]))
    print("components:", " ".join(format_float(v) for v in result.components))
    print("base point:", " ".join(format_float(v) for v in result.base_point))
    if entry.geometry is not None:
        # coefficient dump along the path, same (s, t, a, b, value) schema with t = s
        coeffs = [
            (si, si, coefficients_along_path(entry.geometry, path, float(si)).value) for si in np.linspace(s, t, 11)
        ]
        _write(_outdir(args), "transport_coefficients.csv", _matrices_csv(coeffs))
    return 0


def _matrices_csv(rows) -> str:
    """CSV with one (s, t, a, b, value) row per entry of each (s, t, matrix)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["s", "t", "a", "b", "value"])
    for s, t, m in rows:
        for (a, b), value in np.ndenumerate(m):
            w.writerow([format_float(s), format_float(t), a, b, format_float(value)])
    return buf.getvalue()


def _suite_reports(entry: GeometryCatalogEntry, args) -> list[LawReport]:
    transport = entry.transport
    rng = np.random.default_rng(args.seed)
    paths = sample_paths(entry, rng, args.samples)
    reports = check_transport_laws(transport, paths, seed=args.seed, tolerance=args.tolerance, step=args.step)
    fixtures = make_parallel_fixtures(sample_paths(entry, rng, args.fixtures))
    psi = parallel_from_transport(transport, step=args.step)
    reports.extend(check_parallel_axioms(psi, fixtures, seed=args.seed, tolerance=args.tolerance))
    if entry.traits.linear:
        reports.append(
            check_linearity(transport, paths[0], paths[0].domain[0], paths[0].domain[1], seed=args.seed, step=args.step)
        )
    if transport.kind != KIND_GENERIC:
        mid = 0.5 * (paths[0].domain[0] + paths[0].domain[1])
        reports.append(check_smoothness_conditions(transport, paths[0], mid, seed=args.seed, step=args.step))
    return reports


def _emit_reports(args, reports: list[LawReport], stem: str) -> int:
    outdir = _outdir(args)
    _write(outdir, f"{stem}.csv", law_reports_csv(reports))
    table = law_reports_table(reports)
    _write(outdir, f"{stem}.txt", table)
    print(table, end="")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_check_laws(args) -> int:
    entry = _resolve_entry(args)
    return _emit_reports(args, _suite_reports(entry, args), "law_reports")


def _interior_points(entry: GeometryCatalogEntry, rng: np.random.Generator, count: int) -> list[np.ndarray]:
    lo = np.array([b[0] for b in entry.chart_box])
    hi = np.array([b[1] for b in entry.chart_box])
    pad = 0.15 * (hi - lo)
    pts = [0.5 * (lo + hi)]
    pts.extend(rng.uniform(lo + pad, hi - pad, size=(max(0, count - 1), lo.size)))
    return [np.asarray(p) for p in pts]


def _cmd_factorize(args) -> int:
    entry = _resolve_entry(args)
    if not entry.transport.is_linear:
        raise PathTransportError(f"geometry {entry.id!r} has no linear (matrix) realization to factorize")
    rng = np.random.default_rng(args.seed)
    lines = []
    ok = True
    for x in _interior_points(entry, rng, args.points):
        v = factorization_test(entry.transport, x, threshold=args.threshold, step=args.step, seed=args.seed)
        ok = ok and v.factorizable
        point = "(" + " ".join(format_float(c) for c in v.point) + ")"
        lines.append(
            f"point={point} residual={format_float(v.residual)} threshold={format_float(v.threshold)} "
            f"factorizable={'true' if v.factorizable else 'false'}"
        )
    text = "\n".join(lines) + "\n"
    _write(_outdir(args), "factorization.txt", text)
    print(text, end="")
    return 0 if ok else 1


def _cmd_roundtrip(args) -> int:
    entry = _resolve_entry(args)
    transport = entry.transport
    rng = np.random.default_rng(args.seed)
    back = transport_from_parallel(parallel_from_transport(transport, step=args.step))
    paths = sample_paths(entry, rng, args.samples)
    draws = []
    for p in paths:
        lo, hi = p.domain
        s, t = rng.uniform(lo, hi, size=2)
        if not transport.is_linear and t < s:
            s, t = t, s
        draws.append((p, s, t, rng.standard_normal(transport.fibre_dim)))
    us = FibreVector._batch(positions_at([(p, s) for p, s, *_ in draws]), [comps for *_, comps in draws])
    requests = [(p, s, t, u) for (p, s, t, _), u in zip(draws, us)]
    residual = 0.0
    direct = transport.apply_many(requests, step=args.step)
    for a, b in zip(direct, back.apply_many(requests, step=args.step)):
        residual = max(residual, float(np.max(np.abs(a.components - b.components))))
    reports = [LawReport("roundtrip-transport", len(paths), residual, 1e-9, seed=args.seed)]
    if entry.geometry is not None:
        pts = _interior_points(entry, rng, args.points)
        try:
            recovered = connection_from_transport(
                transport, pts, threshold=args.threshold, step=args.step, seed=args.seed
            )
            coeff_residual = 0.0
            for x, got in zip(pts, recovered.coeffs3(np.stack(pts))):
                expected = np.asarray(entry.geometry.coeffs3(x))
                coeff_residual = max(coeff_residual, float(np.max(np.abs(got - expected))))
            reports.append(LawReport("roundtrip-connection", len(pts), coeff_residual, 1e-5, seed=args.seed))
        except NotFactorizableError:
            reports.append(LawReport("roundtrip-connection", len(pts), float("inf"), 1e-5, seed=args.seed))
    return _emit_reports(args, reports, "roundtrip")


def _sweep_colatitudes(spec: str) -> np.ndarray:
    """The colatitudes of a ``start:stop:count`` sweep; the count is an integer >= 1."""
    parts = spec.split(":")
    if len(parts) != 3 or not parts[2].isdecimal() or int(parts[2]) < 1:
        raise PathTransportError(f"--sweep expects start:stop:count with an integer count >= 1, got {spec!r}")
    return np.linspace(parse_scalar(parts[0]), parse_scalar(parts[1]), int(parts[2]))


def _cmd_holonomy(args) -> int:
    entry = _resolve_entry(args)
    if not args.loop and not args.sweep:
        raise PathTransportError("holonomy needs --loop SPEC and/or --sweep start:stop:count")
    colatitudes = _sweep_colatitudes(args.sweep) if args.sweep else ()
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["loop_param", "angle", "distance_to_identity"])

    def row(param: str, report):
        angle = "" if report.angle is None else format_float(report.angle)
        distance = format_float(report.distance_to_identity)
        w.writerow([param, angle, distance])
        print(f"loop {param}: angle={angle or 'n/a'} distance_to_identity={distance}")

    if args.loop:
        loop = parse_path_spec(args.loop)
        row(args.loop, holonomy(entry.transport, loop, step=args.step))
    for th, report in latitude_sweep(entry.transport, colatitudes, turns=args.turns, step=args.step):
        row(format_float(th), report)
    _write(_outdir(args), "holonomy.csv", buf.getvalue())
    return 0


_COMMANDS = {
    "list-geometries": _cmd_list,
    "transport": _cmd_transport,
    "check-laws": _cmd_check_laws,
    "factorize": _cmd_factorize,
    "roundtrip": _cmd_roundtrip,
    "holonomy": _cmd_holonomy,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    parser, parsers = _build_parser()
    if known.config:
        try:
            _apply_config(known.config, parsers)
        except (OSError, ValueError, PathTransportError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for flag in ("step", "tolerance", "threshold"):
            value = getattr(args, flag, 1.0)
            if not (math.isfinite(value) and value > 0):
                raise PathTransportError(f"--{flag} must be positive and finite, got {value}")
        for flag in ("samples", "fixtures", "points"):
            value = getattr(args, flag, 1)
            if value < 1:
                raise PathTransportError(f"--{flag} must be an integer >= 1, got {value}")
        return _COMMANDS[args.command](args)
    except (PathTransportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
