"""pathtransport benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads, metrics and bounds are defined
in BENCHMARK.json; the jobs and their oracles in ``workloads.py``.

With ``--trace 0`` the run measures start-up in fresh interpreters
(``setup_s``, the median of several), then runs the workload in a child
process with BLAS pinned to one thread and reports the end-to-end metrics.
With ``--trace 1`` it measures a bare import (``import_s``) instead and the
child reports per-layer metrics from spans installed around the program's
functions.  Prints a summary, then, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The environment and
the full result, wall times included, are written to
``.bench_out/<workload>-seed<N>-trace<T>/``.

Every time reported is in reference seconds (see ``calibrate.py``).  The
units say so (``ref-s``, ``ref-ms``, ``1/ref-s``), except for ``setup_s``,
whose unit BENCHMARK.json writes as ``s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

#: Single-threaded BLAS and OpenMP: the machine has two cores and the
#: benchmark measures one client.
PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}

#: Fresh interpreters per start-up measurement; the median is reported.
PROBES = 9
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150


def _child(args: list[str], timeout: float) -> str:
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=wl.ROOT,
        env=dict(os.environ, **PINNED_THREADS),
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited with {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def startup_seconds(mode: str) -> tuple[float, float]:
    """Medians over fresh interpreters of ``probe.py <mode>``: wall seconds
    and reference seconds."""
    runs = [_child([str(HERE / "probe.py"), mode], PROBE_TIMEOUT_S).split() for _ in range(PROBES)]
    return statistics.median(float(w) for w, _ in runs), statistics.median(float(r) for _, r in runs)


def cache_sizes() -> dict[str, str]:
    """CPU cache sizes as sysfs reports them for cpu0 (read only)."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            sizes[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def declared_metrics(trace: bool) -> list[str]:
    """Metric names BENCHMARK.json declares for this kind of run, in order."""
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not wl.PACKAGE_INIT.is_file():
        print(f"error: pathtransport sources not found at {wl.PACKAGE_INIT}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    outdir = wl.ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        declared = declared_metrics(trace)
        startup = ("import_s", *startup_seconds("import")) if trace else ("setup_s", *startup_seconds("setup"))
        line = _child(
            [str(HERE / "worker.py"), args.workload, str(args.seed), str(args.seconds), str(args.trace), str(outdir)],
            WORKER_TIMEOUT_S,
        )
        result = json.loads(line)
    except (OSError, KeyError, RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    unit = "s" if startup[0] == "setup_s" else "ref-s"
    metrics = {startup[0]: (startup[2], unit), **{k: tuple(v) for k, v in result["metrics"].items()}}
    if sorted(declared) != sorted(metrics):
        print(f"error: metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(declared)}", file=sys.stderr)
        return 1
    metrics = {name: metrics[name] for name in declared}

    info = dict(result["info"], **{f"wall_{startup[0]}": startup[1]})
    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": info.pop("python"),
        "numpy": info.pop("numpy"),
        "scipy": info.pop("scipy"),
        "blas_threads": info.pop("blas_threads"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "caches": cache_sizes(),
    }
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "result.json").write_text(json.dumps(dict(summary, environment=environment, info=info), indent=1) + "\n")

    print("environment:", json.dumps(environment))
    print(
        f"jobs: {info['samples']} timed in {info['cycles']} cycles over {info['elapsed_s']:.1f} s; "
        f"attempted {result['attempted']}, failed {result['failed']} "
        f"(failed_ratio {result['failed'] / result['attempted']:.4f})"
    )
    if "wall_job_p50_ms" in info:
        print(
            f"wall time (not rescaled): {info['wall_jobs_per_s']:.4g} jobs/s, p50 {info['wall_job_p50_ms']:.4g} ms, "
            f"p90 {info['wall_job_p90_ms']:.4g} ms; calibration {1e3 * info['calibration_s']:.4g} ms"
        )
    for failure in info["failures"]:
        print("failure:", failure)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
