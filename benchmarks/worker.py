"""Run one workload in this process and print its measurements as one JSON line.

Usage: python3 benchmarks/worker.py WORKLOAD SEED SECONDS TRACE OUTDIR

``benchmarks/run.py`` starts this in a child process with BLAS pinned to one
thread.  Load is a closed loop with one client: each job starts when the
previous one has finished.  Every run first executes the reference cycle
(warm-up and the accuracy figure), then as many whole cycles of seeded jobs
as fit in SECONDS, then reruns its first timed job and compares the outputs
byte for byte.  Job times are reported in reference seconds (see
``calibrate.py``); the raw wall times go to the run's result file.

With TRACE = 1 every job runs twice, untraced and traced in alternating
order: the traced run gives the per-layer metrics, the pair gives the
tracing overhead, and the two must produce identical outputs and verdicts.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from calibrate import calibration_s, to_reference  # noqa: E402
from tracing import Tracer  # noqa: E402

class Tally:
    """Jobs attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, job: wl.Job, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{job.kind} {job.params}: {detail}")


def execute(job: wl.Job):
    """Run a job; return (wall seconds, outputs or None, verdict)."""
    t0 = time.perf_counter()
    try:
        out = job.run()
    except Exception as exc:  # a job that raises is a failed job; the run goes on
        return time.perf_counter() - t0, None, wl.Verdict(False, math.nan, f"raised {exc!r}")
    wall = time.perf_counter() - t0
    return wall, out, job.check(out)


def another_cycle(start: float, cycles: int, last_cycle_s: float, seconds: float) -> bool:
    """Whether to run another whole cycle: always a first one, then only if
    one more, as long as the last, still ends within ``seconds`` of ``start``."""
    return cycles == 0 or time.perf_counter() - start + last_cycle_s <= seconds


def reference_cycle(workload: str, outdir: Path, tally: Tally) -> float:
    """Warm-up over every job kind on seed-independent inputs; returns err_max."""
    err = 0.0
    for job in wl.cycle(workload, wl.REFERENCE_SEED, 0, outdir):
        _, _, verdict = execute(job)
        tally.record(job, verdict.ok, verdict.detail)
        if not math.isnan(verdict.err):
            err = max(err, verdict.err)
    return err


def timed_phase(workload: str, seed: int, seconds: float, outdir: Path, tally: Tally) -> dict:
    """Whole cycles for ``seconds``.  Each job's wall time is rescaled to
    reference seconds by the calibrations just before and after it."""
    walls, kinds, cals = [], [], [calibration_s()]
    first = None
    cycles = 0
    cycle_s = 0.0
    start = time.perf_counter()
    while another_cycle(start, cycles, cycle_s, seconds):
        cycle_start = time.perf_counter()
        for job in wl.cycle(workload, seed, cycles, outdir):
            wall, out, verdict = execute(job)
            cals.append(calibration_s())
            walls.append(wall)
            kinds.append(job.kind)
            tally.record(job, verdict.ok, verdict.detail)
            if first is None:
                first = (job, out)
        cycle_s = time.perf_counter() - cycle_start
        cycles += 1
    elapsed = time.perf_counter() - start

    # Determinism gate: the same job with the same seed gives the same bytes.
    job, out = first
    _, again, verdict = execute(job)
    same = out is not None and again == out
    tally.record(job, verdict.ok and same, verdict.detail or ("" if same else "rerun outputs differ"))

    times = [to_reference(w, 0.5 * (a + b)) for w, a, b in zip(walls, cals, cals[1:])]
    deciles = statistics.quantiles(times, n=10)
    raw = statistics.quantiles(walls, n=10)
    return {
        "metrics": {
            "jobs_per_s": (len(times) / sum(times), "1/ref-s"),
            "job_p50_ms": (1e3 * deciles[4], "ref-ms"),
            "job_p90_ms": (1e3 * deciles[8], "ref-ms"),
        },
        "info": {
            "samples": len(times),
            "cycles": cycles,
            "elapsed_s": elapsed,
            "wall_jobs_per_s": len(walls) / elapsed,
            "wall_job_p50_ms": 1e3 * raw[4],
            "wall_job_p90_ms": 1e3 * raw[8],
            "calibration_s": statistics.median(cals),
            "job_kinds": kinds,
            "job_wall_s": walls,
            "calibrations_s": cals,
        },
    }


def traced_phase(workload: str, seed: int, seconds: float, outdir: Path, tally: Tally) -> dict:
    tracer = Tracer()
    plain_s = traced_s = self_s = 0.0
    pairs = cycles = 0
    cycle_s = 0.0
    start = time.perf_counter()
    while another_cycle(start, cycles, cycle_s, seconds):
        cycle_start = time.perf_counter()
        for job in wl.cycle(workload, seed, cycles, outdir):
            runs = {}
            for mode in ("plain", "traced") if pairs % 2 == 0 else ("traced", "plain"):
                if mode == "traced":
                    tracer.begin_job()
                    with tracer.installed():
                        runs[mode] = execute(job)
                    self_s += tracer.end_job(pairs)
                else:
                    runs[mode] = execute(job)
            (plain_wall, plain_out, plain_v), (traced_wall, traced_out, traced_v) = runs["plain"], runs["traced"]
            tally.record(job, plain_v.ok, plain_v.detail)
            same = traced_out == plain_out and traced_v.ok == plain_v.ok
            tally.record(job, traced_v.ok and same, traced_v.detail or ("" if same else "traced outputs differ"))
            plain_s += plain_wall
            traced_s += traced_wall
            pairs += 1
        cycle_s = time.perf_counter() - cycle_start
        cycles += 1
    tracer.save(outdir / "spans.npz")
    metrics = tracer.metrics()
    metrics["trace.jobs"] = (float(pairs), "count")
    metrics["trace.overhead"] = (traced_s / plain_s, "ratio")
    metrics["trace.coverage"] = (self_s / traced_s, "ratio")
    return {"metrics": metrics, "info": {"samples": pairs, "cycles": cycles, "elapsed_s": time.perf_counter() - start}}


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, outdir = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", Path(argv[4])
    if workload not in wl.WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload!r}")
    wl.load_package()
    import numpy
    import scipy

    outdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    err_max = reference_cycle(workload, outdir, tally)
    gc.collect()
    phase = traced_phase if trace else timed_phase
    result = phase(workload, seed, seconds, outdir, tally)
    metrics = result["metrics"]
    if not trace:
        metrics["err_max"] = (err_max, "abs")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    info = dict(
        result["info"],
        err_max_reference=err_max,
        failures=tally.failures,
        python=platform.python_version(),
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        blas_threads={k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
    )
    print(json.dumps({"attempted": tally.attempted, "failed": tally.failed, "metrics": metrics, "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
