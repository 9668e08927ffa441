"""SHA-256 digests of pathtransport's outputs, one line per output.

    python3 tools/output_digest.py --src DIR [--quick]

``DIR`` is a source directory holding the ``pathtransport`` package (for
example ``src`` of a checkout).  The script runs CLI subcommands in-process,
each into a fresh output directory, and digests their stdout, stderr, exit
code and every report file.  It also digests the bytes of holonomy matrices
of a fixed latitude and a fixed geodesic triangle and of four
reparametrizations of them at several steps, three CLI runs on a small grid
geometry read through ``--geometry-file`` and one ``check-laws`` run whose
seed, step and samples come from ``--config``.  Each
line reads ``<sha256>  <name>``, sorted by name, so two checkouts produce
byte-identical outputs exactly when ``diff`` of their two listings is empty.
``--quick`` runs a small subset.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import math
import sys
import tempfile
from pathlib import Path

GEOMETRIES = ("flat", "sphere", "sphere-orthonormal", "evolution", "nonlinear")
LAW_SEEDS = (1, 4, 108)
HOLONOMY_STEPS = (1e-2, 1e-3, 1e-4, 1e-5)

#: (name, argv) of the CLI runs beyond the law suites.
OTHER_RUNS = (
    ("list-geometries", ["list-geometries"]),
    *((f"factorize:{g}", ["factorize", "--geometry", g, "--points", "3"]) for g in GEOMETRIES),
    ("transport:sphere:latitude", ["transport", "--geometry", "sphere", "--path", "latitude:pi/3", "--vector", "1,0"]),
    (
        "transport:sphere-orthonormal:great_circle",
        ["transport", "--geometry", "sphere-orthonormal", "--path", "great_circle:point=1,0;direction=0.3,0.8;length=1",
         "--vector", "0.5,-1"],
    ),
    (
        "transport:flat:segment",
        ["transport", "--geometry", "flat", "--path", "segment:from=0,0;to=1,2", "--from", "0.2", "--to", "0.9",
         "--vector", "1,2"],
    ),
    ("transport:evolution", ["transport", "--geometry", "evolution", "--path", "segment:from=0;to=1", "--vector", "1,0"]),
    ("holonomy:sphere", ["holonomy", "--geometry", "sphere", "--loop", "latitude:pi/3", "--sweep", "0.4:1.4:3"]),
    ("holonomy:sphere-orthonormal:step", ["holonomy", "--geometry", "sphere-orthonormal", "--loop", "latitude:1.1",
                                          "--step", "1e-2"]),
    ("holonomy:nonlinear", ["holonomy", "--geometry", "nonlinear", "--loop", "latitude:pi/3"]),
    # Constant fields, integrated through the kernel's uniform branch.
    (
        "transport:sphere:constant-theta",
        ["transport", "--geometry", "sphere", "--path", "segment:from=1.1,-0.5;to=1.1,1.5", "--vector", "1,0.5"],
    ),
    (
        "transport:sphere-orthonormal:equator",
        ["transport", "--geometry", "sphere-orthonormal", "--path", "great_circle:point=pi/2,0;direction=0,1;length=2",
         "--vector", "0.5,-1"],
    ),
    ("holonomy:flat:latitude:step", ["holonomy", "--geometry", "flat", "--loop", "latitude:1.0", "--step", "1e-4"]),
    (
        "transport:sphere:latitude:backward",
        ["transport", "--geometry", "sphere", "--path", "latitude:pi/3", "--from", "5", "--to", "0.5", "--step", "1e-5",
         "--vector", "1,0"],
    ),
)

#: CLI runs on a user grid geometry, as (name, argv before ``--geometry-file SPEC``).
GRID_RUNS = (
    ("check-laws:grid", ["check-laws", "--samples", "5"]),
    ("factorize:grid", ["factorize", "--points", "3"]),
    ("roundtrip:grid", ["roundtrip", "--samples", "20", "--points", "3"]),
)

#: The ``check-laws`` run configured by a file: (name, argv before ``--config FILE``, file text).
CONFIG_RUN = ("check-laws:sphere:config", ["check-laws", "--geometry", "sphere"], "seed = 4\nstep = 2e-3\nsamples = 7\n")

QUICK_RUNS = (
    ("check-laws:sphere:seed1", ["check-laws", "--geometry", "sphere", "--seed", "1", "--samples", "4"]),
    ("roundtrip:flat:seed1", ["roundtrip", "--geometry", "flat", "--seed", "1", "--samples", "4", "--points", "2"]),
    ("list-geometries", ["list-geometries"]),
)

#: Chart vertices (theta, phi) of the fixed geodesic triangle.
TRIANGLE = ((1.2, -0.3), (1.7, 0.1), (1.3, 0.4))


def load_package(src: Path):
    """Import pathtransport from ``src`` and nowhere else."""
    sys.path.insert(0, str(src))
    import pathtransport

    if Path(pathtransport.__file__).resolve().parent != (src / "pathtransport").resolve():
        raise SystemExit(f"error: imported pathtransport from {pathtransport.__file__}, not {src}")
    return pathtransport


def cli_outputs(pt, name: str, argv: list[str]) -> dict[str, bytes]:
    """stdout, stderr, exit code and report files of one in-process CLI run."""
    from pathtransport import cli

    with tempfile.TemporaryDirectory() as tmp:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--out", tmp])
        outputs = {
            f"{name}:stdout": out.getvalue().encode(),
            f"{name}:stderr": err.getvalue().encode(),
            f"{name}:exit": str(code).encode(),
        }
        for path in sorted(Path(tmp).iterdir()):
            outputs[f"{name}:{path.name}"] = path.read_bytes()
    return outputs


def write_grid_spec(directory: Path) -> Path:
    """A ``kind = grid`` spec and its CSV in ``directory``: a 2-d base, a 2-d
    fibre, coefficients G[a, b, mu] sampled from a smooth non-flat field on a
    3 x 3 grid."""
    rows = []
    for x1, x2, a, b, mu in itertools.product((0.5, 1.0, 1.5), (-0.5, 0.0, 0.5), range(2), range(2), range(2)):
        value = math.sin(x1 + 2 * a - b) * math.cos(x2 + mu) * (1 if a != b else 0.25)
        rows.append(f"{x1!r},{x2!r},{a},{b},{mu},{value!r}")
    grid = directory / "grid.csv"
    grid.write_text("\n".join(rows) + "\n")
    spec = directory / "grid.spec"
    spec.write_text(f"kind = grid\nlabel = digest-grid\nbase_dim = 2\nfibre_dim = 2\ngrid_file = {grid}\n")
    return spec


def _embed(theta: float, phi: float):
    return (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))


def _arc(pt, start, end):
    """Great-circle arc on [0, 1] from the chart point ``start`` to ``end``."""
    import numpy as np

    (th, ph), a3, b3 = start, np.array(_embed(*start)), np.array(_embed(*end))
    cos_angle = float(a3 @ b3)
    tangent = b3 - cos_angle * a3
    tangent *= math.acos(min(1.0, max(-1.0, cos_angle))) / np.linalg.norm(tangent)
    e_th = np.array([math.cos(th) * math.cos(ph), math.cos(th) * math.sin(ph), -math.sin(th)])
    e_ph = np.array([-math.sin(ph), math.cos(ph), 0.0])
    direction = (float(tangent @ e_th), float(tangent @ e_ph) / math.sin(th))
    return pt.great_circle(start, direction, domain=(0.0, 1.0))


def holonomy_outputs(pt, steps) -> dict[str, bytes]:
    """Holonomy matrix bytes of a fixed latitude and triangle on both sphere
    frames, and of reparametrizations of them: the latitude onto [0, 1] by an
    affine map, by its reversal and by a bulge, and the triangle by a bulge."""
    ab = _arc(pt, TRIANGLE[0], TRIANGLE[1])
    bc = _arc(pt, tuple(ab.at(1.0)), TRIANGLE[2])
    ca = _arc(pt, tuple(bc.at(1.0)), TRIANGLE[0])
    latitude = pt.latitude(1.0)
    triangle = pt.product_canonical(pt.product_canonical(ab, bc), ca)
    onto = (0.0, 2 * math.pi)
    loops = {
        "latitude": latitude,
        "triangle": triangle,
        "latitude-affine": pt.reparametrize(latitude, pt.affine_reparametrization((0.0, 1.0), onto)),
        "latitude-reversed": pt.reparametrize(latitude, pt.affine_reparametrization((0.0, 1.0), onto, reversing=True)),
        "latitude-bulge": pt.reparametrize(latitude, pt.bulge_reparametrization((0.0, 1.0), onto, 0.35)),
        "triangle-bulge": pt.reparametrize(triangle, pt.bulge_reparametrization((0.0, 1.0), (0.0, 1.0), 0.35)),
    }
    outputs = {}
    for geometry in ("sphere", "sphere-orthonormal"):
        transport = pt.get_entry(geometry).transport
        for shape, loop in loops.items():
            for h in steps:
                matrix = pt.holonomy(transport, loop, step=h).matrix
                outputs[f"matrix:{shape}:{geometry}:{h:.0e}"] = matrix.tobytes()
    return outputs


def all_outputs(pt, quick: bool) -> dict[str, bytes]:
    if quick:
        runs = QUICK_RUNS
    else:
        runs = tuple(
            (f"{cmd}:{g}:seed{seed}", [cmd, "--geometry", g, "--seed", str(seed)])
            for cmd in ("check-laws", "roundtrip")
            for g in GEOMETRIES
            for seed in LAW_SEEDS
        ) + OTHER_RUNS
    outputs = {}
    for name, argv in runs:
        outputs.update(cli_outputs(pt, name, argv))
    if not quick:
        with tempfile.TemporaryDirectory() as tmp:
            spec = write_grid_spec(Path(tmp))
            for name, argv in GRID_RUNS:
                outputs.update(cli_outputs(pt, name, argv + ["--geometry-file", str(spec)]))
            name, argv, text = CONFIG_RUN
            config = Path(tmp) / "run.cfg"
            config.write_text(text)
            outputs.update(cli_outputs(pt, name, ["--config", str(config)] + argv))
    outputs.update(holonomy_outputs(pt, HOLONOMY_STEPS[:1] if quick else HOLONOMY_STEPS))
    return outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path, help="directory holding the pathtransport package")
    parser.add_argument("--quick", action="store_true", help="digest a small subset of the outputs")
    args = parser.parse_args(argv)
    pt = load_package(args.src)
    outputs = all_outputs(pt, args.quick)
    for name in sorted(outputs):
        print(f"{hashlib.sha256(outputs[name]).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
