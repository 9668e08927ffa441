"""Workloads of the pathtransport benchmark: job mixes, inputs and oracles.

A job is one closed-loop request.  ``Job.run`` performs it and returns its
outputs as a mapping of names to bytes, so a rerun can be compared byte for
byte; ``Job.check`` judges those outputs against an oracle that does not
trust the program's own verdicts.

Each workload repeats a fixed *cycle* of job kinds.  The proportions of the
kinds are chosen so that the median and the 90th percentile of job time fall
inside one cluster of similar jobs, not on the boundary between two.  The
inputs of cycle ``c`` come from the benchmark seed alone.

This module imports no part of pathtransport at import time, so the
benchmark's entry point can use it before it knows the sources exist.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_INIT = SRC / "pathtransport" / "__init__.py"

WORKLOADS = ("laws-suite", "holonomy-fine")

#: The seed of the reference cycle, which every run executes first as its
#: warm-up.  Its inputs do not depend on the benchmark seed, so the accuracy
#: figure read from it (``err_max``) moves only when the numerics move.
REFERENCE_SEED = 0

# --- laws-suite -------------------------------------------------------------

#: Rows of a ``check-laws`` report, in order, for linear and generic transports.
LINEAR_LAW_ROWS = (
    "groupoid",
    "parametrization",
    "reparametrization-invariance",
    "inverse-path",
    "product-path",
    "point-identity",
    "linearity",
    "smoothness",
)
GENERIC_LAW_ROWS = LINEAR_LAW_ROWS[:6]

#: The documented impossibility: constant, path-independent coefficients
#: cannot respect reparametrizations that change parameter lengths.
EVOLUTION_FAILS = frozenset(
    {"parametrization", "reparametrization-invariance", "inverse-path", "product-path", "smoothness"}
)

CONNECTION_GEOMETRIES = ("flat", "sphere", "sphere-orthonormal")

#: sphere check-laws appears twice so that p90 falls inside the slowest
#: cluster instead of between the sphere and sphere-orthonormal jobs.
LAWS_MIX = tuple(
    [("check-laws", g) for g in ("flat", "sphere", "sphere", "sphere-orthonormal", "evolution", "nonlinear")]
    + [("roundtrip", g) for g in ("flat", "sphere", "sphere-orthonormal", "evolution", "nonlinear")]
)

# --- holonomy-fine ----------------------------------------------------------

HOLONOMY_STEPS = (1e-2, 1e-3, 1e-4, 1e-5)
HOLONOMY_GEOMETRIES = ("sphere-orthonormal", "sphere")

#: Seven triangles (about 0.15 s each) to three latitudes (about 0.5 s each):
#: p50 lies inside the triangle cluster and p90 inside the latitude cluster.
HOLONOMY_MIX = ("triangle",) * 7 + ("latitude",) * 3


def holonomy_tolerance(step: float) -> float:
    """Largest closed-form error accepted at one rung of the step ladder.

    RK4's global error scales as step^4.  At step 1e-2 the bound, 5e-7, is
    twice the largest error over 2000 sampled triangles (2.2e-7); the 1e-9
    floor is 30 times the roundoff seen over 628k steps.  A holonomy rotated
    by 1e-6 misses the bound at every rung.
    """
    return 5e-7 * (step / 1e-2) ** 4 + 1e-9


def load_package():
    """Import pathtransport from this checkout's ``src`` and nowhere else."""
    if not PACKAGE_INIT.is_file():
        raise SystemExit(f"error: pathtransport sources not found at {PACKAGE_INIT}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pathtransport

    if Path(pathtransport.__file__).resolve() != PACKAGE_INIT.resolve():
        raise SystemExit(f"error: imported pathtransport from {pathtransport.__file__}, not {PACKAGE_INIT}")
    return pathtransport


@dataclass(frozen=True)
class Verdict:
    """Oracle outcome of one job; ``err`` is its accuracy figure (nan if none)."""

    ok: bool
    err: float
    detail: str = ""


@dataclass
class Job:
    kind: str
    params: dict
    run: Callable[[], dict]
    check: Callable[[dict], Verdict]


def cycle(workload: str, seed: int, index: int, outdir: Path) -> list[Job]:
    """Jobs of cycle ``index`` at benchmark ``seed``, in a seeded order."""
    rng = np.random.default_rng([seed, index])
    if workload == "laws-suite":
        jobs = [_cli_law_job(cmd, geometry, seed, outdir) for cmd, geometry in LAWS_MIX]
    elif workload == "holonomy-fine":
        jobs = [
            _holonomy_job(shape, HOLONOMY_GEOMETRIES[(index + k) % 2], rng)
            for k, shape in enumerate(HOLONOMY_MIX)
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


# ---------------------------------------------------------------------------
# CLI jobs


def _cli_runner(argv: list[str], outdir: Path, files: tuple[str, ...]) -> Callable[[], dict]:
    def run():
        from pathtransport import cli

        for name in files:
            (outdir / name).unlink(missing_ok=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv + ["--out", str(outdir)])
        out = {"exit": str(code).encode()}
        for name in files:
            path = outdir / name
            out[name] = path.read_bytes() if path.exists() else b""
        return out

    return run


def _cli_law_job(command: str, geometry: str, seed: int, outdir: Path) -> Job:
    argv = [command, "--geometry", geometry, "--seed", str(seed)]
    stem = "law_reports" if command == "check-laws" else "roundtrip"
    if command == "check-laws":
        rows = GENERIC_LAW_ROWS if geometry == "nonlinear" else LINEAR_LAW_ROWS
        fails = EVOLUTION_FAILS if geometry == "evolution" else frozenset()
    else:
        rows = ("roundtrip-transport", "roundtrip-connection") if geometry in CONNECTION_GEOMETRIES else ("roundtrip-transport",)
        fails = frozenset()
    return Job(
        kind=f"{command}:{geometry}",
        params={"argv": argv},
        run=_cli_runner(argv, outdir, (f"{stem}.csv", f"{stem}.txt")),
        check=lambda out: check_law_report(out, f"{stem}.csv", rows, fails),
    )


def check_law_report(out: dict, name: str, rows: tuple[str, ...], fails: frozenset) -> Verdict:
    """Every expected row present in order, failing exactly where expected."""
    try:
        records = list(csv.DictReader(io.StringIO(out[name].decode())))
        got = tuple(r["law_id"] for r in records)
        if got != rows:
            return Verdict(False, math.nan, f"rows {got} != {rows}")
        err = 0.0
        for r in records:
            residual, tolerance = float(r["max_residual"]), float(r["tolerance"])
            passed = r["passed"] == "true"
            if passed != (residual <= tolerance):
                return Verdict(False, math.nan, f"{r['law_id']}: verdict contradicts its residual")
            if passed == (r["law_id"] in fails):
                return Verdict(False, math.nan, f"{r['law_id']}: passed={passed}, residual {residual:g}")
            if r["law_id"] not in fails:
                err = max(err, residual)
        code = int(out["exit"])
    except (KeyError, ValueError) as exc:
        return Verdict(False, math.nan, f"unreadable report: {exc!r}")
    if code != (1 if fails else 0):
        return Verdict(False, err, f"exit code {code}")
    return Verdict(True, err)


# ---------------------------------------------------------------------------
# Holonomy jobs


def rotation(alpha: float) -> np.ndarray:
    return np.array([[math.cos(alpha), -math.sin(alpha)], [math.sin(alpha), math.cos(alpha)]])


def embed(theta: float, phi: float) -> np.ndarray:
    return np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])


def spherical_excess(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """Signed area of the geodesic triangle abc; positive when a, b, c run
    counterclockwise seen from outside the sphere."""
    return 2.0 * math.atan2(float(a @ np.cross(b, c)), 1.0 + float(a @ b + b @ c + c @ a))


def triangle_vertices(rng: np.random.Generator) -> list[tuple[float, float]]:
    """Three chart points about 0.4-0.6 rad from a centre away from the poles,
    in a random orientation."""
    th_c, ph_c = rng.uniform(1.0, 2.1), rng.uniform(-1.5, 1.5)
    rho, psi0 = rng.uniform(0.4, 0.6), rng.uniform(0.0, 2 * math.pi)
    verts = []
    for k in range(3):
        psi = psi0 + 2 * math.pi * k / 3 + rng.uniform(-0.4, 0.4)
        verts.append((th_c + rho * math.cos(psi), ph_c + rho * math.sin(psi) / math.sin(th_c)))
    return verts[::-1] if rng.random() < 0.5 else verts


def _arc(pt, start, target):
    """``great_circle`` arc on [0, 1] from a chart point to an embedded point."""
    th, ph = float(start[0]), float(start[1])
    a3 = embed(th, ph)
    angle = math.acos(min(1.0, max(-1.0, float(a3 @ target))))
    tangent = target - float(a3 @ target) * a3
    tangent *= angle / np.linalg.norm(tangent)
    e_th = np.array([math.cos(th) * math.cos(ph), math.cos(th) * math.sin(ph), -math.sin(th)])
    e_ph = np.array([-math.sin(ph), math.cos(ph), 0.0])
    direction = (float(tangent @ e_th), float(tangent @ e_ph) / math.sin(th))
    return pt.great_circle((th, ph), direction, domain=(0.0, 1.0))


def triangle_loop(pt, verts):
    """Three great-circle arcs on [0, 1], joined by ``product_canonical``;
    each arc starts where the previous one ended."""
    v3 = [embed(*v) for v in verts]
    ab = _arc(pt, verts[0], v3[1])
    bc = _arc(pt, ab.at(1.0), v3[2])
    ca = _arc(pt, bc.at(1.0), v3[0])
    return pt.product_canonical(pt.product_canonical(ab, bc), ca)


def expected_holonomy(shape: str, params: dict) -> tuple[float, float]:
    """Closed-form rotation angle and the colatitude of the base point."""
    if shape == "latitude":
        theta = params["colatitude"]
        return 2 * math.pi * (1 - math.cos(theta)), theta
    verts = params["vertices"]
    return spherical_excess(*(embed(*v) for v in verts)), verts[0][0]


def _holonomy_job(shape: str, geometry: str, rng: np.random.Generator) -> Job:
    if shape == "latitude":
        params = {"colatitude": float(rng.uniform(0.6, 2.5))}
    else:
        params = {"vertices": triangle_vertices(rng)}

    def run():
        import pathtransport as pt

        transport = pt.get_entry(geometry).transport
        loop = pt.latitude(params["colatitude"]) if shape == "latitude" else triangle_loop(pt, params["vertices"])
        return {f"{h:.0e}": pt.holonomy(transport, loop, step=h).matrix.tobytes() for h in HOLONOMY_STEPS}

    return Job(
        kind=f"{shape}:{geometry}",
        params=dict(params, geometry=geometry),
        run=run,
        check=lambda out: check_holonomy(out, shape, geometry, params),
    )


def check_holonomy(out: dict, shape: str, geometry: str, params: dict) -> Verdict:
    """Each rung equals R(alpha) in the orthonormal frame; in the coordinate
    frame it equals D R(alpha) D^-1 with D = diag(1, 1/sin(theta))."""
    alpha, theta = expected_holonomy(shape, params)
    frame = np.diag([1.0, 1.0 / math.sin(theta)]) if geometry == "sphere" else np.eye(2)
    expected = frame @ rotation(alpha) @ np.linalg.inv(frame)
    errors = {}
    for h in HOLONOMY_STEPS:
        key = f"{h:.0e}"
        if key not in out or len(out[key]) != expected.nbytes:
            return Verdict(False, math.nan, f"missing rung {key}")
        m = np.frombuffer(out[key], dtype=float).reshape(2, 2)
        errors[key] = float(np.max(np.abs(np.linalg.inv(frame) @ (m - expected) @ frame)))
    coarse = errors[f"{HOLONOMY_STEPS[0]:.0e}"]
    for h in HOLONOMY_STEPS:
        key = f"{h:.0e}"
        if errors[key] > holonomy_tolerance(h):
            return Verdict(False, coarse, f"rung {key} misses the closed form by {errors[key]:.3e}")
    return Verdict(True, coarse)
