"""Per-job-kind wall time, minor page faults and pass working set of ``holonomy-fine``.

    python3 tools/heap_probe.py [--src DIR] [--seed N] [--cycles N]

The process is laid out like ``benchmarks/worker.py``: ``pathtransport``
from ``DIR`` (default: this checkout's ``src``), then scipy, then the
reference cycle as warm-up.  It then runs ``--cycles`` whole cycles of the
seeded ``holonomy-fine`` jobs, recording each job's wall time and the minor
page faults the process took during it (``getrusage``).  A last cycle runs
under ``tracemalloc`` and records the largest peak of any one
``engine._pass`` call, net of what was allocated before it.  One line per
job kind gives the median wall time, the median and total minor faults and
the largest pass peak.  A pass peak of 0 means the job ran no pass: since
chunks over a steady path piece are reduced outside the passes, every
latitude job reads 0.  Faults after warm-up mean that the allocator hands
the pass temporaries back to the OS and faults them in again.  Uses the
standard library and numpy only.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD = "holonomy-fine"


def summarize(records: list[tuple[str, float, int, int]]) -> list[dict]:
    """Per job kind, in order of first appearance: job count, median wall ms,
    median and total minor faults, and the largest pass peak in kB.

    ``records`` holds ``(kind, wall_s, minor_faults, pass_peak_bytes)`` per
    job; a peak of 0 means the job was not traced or ran no pass.
    """
    kinds: dict[str, list] = {}
    for record in records:
        kinds.setdefault(record[0], []).append(record)
    rows = []
    for kind, jobs in kinds.items():
        faults = [f for _, _, f, _ in jobs]
        rows.append(
            {
                "kind": kind,
                "jobs": len(jobs),
                "wall_ms": 1e3 * statistics.median(w for _, w, _, _ in jobs),
                "faults_median": statistics.median(faults),
                "faults_total": sum(faults),
                "pass_peak_kb": max(p for *_, p in jobs) / 1e3,
            }
        )
    return rows


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def run_cycle(wl, seed: int, index: int, outdir: Path, peaks: list | None = None) -> list:
    """One cycle's jobs as ``(kind, wall_s, minor_faults, pass_peak_bytes)``."""
    records = []
    for job in wl.cycle(WORKLOAD, seed, index, outdir):
        if peaks is not None:
            peaks.clear()
        f0, t0 = minor_faults(), time.perf_counter()
        verdict = job.check(job.run())
        wall, faults = time.perf_counter() - t0, minor_faults() - f0
        if not verdict.ok:
            raise SystemExit(f"error: {job.kind} {job.params} failed its check: {verdict.detail}")
        records.append((job.kind, wall, faults, max(peaks, default=0) if peaks is not None else 0))
    return records


def traced_passes(engine, peaks: list):
    """Wrap ``engine._pass`` to append each call's tracemalloc peak, net of
    the memory traced when it started; returns the original."""
    original = engine._pass

    def traced(*args, **kwargs):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - before)

    engine._pass = traced
    return original


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the pathtransport package")
    parser.add_argument("--seed", type=int, default=1, help="benchmark seed of the timed cycles")
    parser.add_argument("--cycles", type=int, default=3, help="untraced cycles to time")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src))
    from pathtransport import engine

    if Path(engine.__file__).resolve().parent != (args.src / "pathtransport").resolve():
        raise SystemExit(f"error: imported pathtransport from {engine.__file__}, not {args.src}")
    sys.path.insert(1, str(ROOT / "benchmarks"))
    import scipy  # noqa: F401  (the benchmark worker's import, which shapes the heap)
    import workloads as wl

    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp)
        run_cycle(wl, wl.REFERENCE_SEED, 0, outdir)
        records = []
        for index in range(args.cycles):
            records += run_cycle(wl, args.seed, index, outdir)
        peaks: list[int] = []
        original = traced_passes(engine, peaks)
        tracemalloc.start()
        try:
            traced = run_cycle(wl, args.seed, 0, outdir, peaks)
        finally:
            tracemalloc.stop()
            engine._pass = original
    peak = {}
    for kind, *_, p in traced:
        peak[kind] = max(peak.get(kind, 0), p)
    rows = summarize([(kind, wall, faults, peak.get(kind, 0)) for kind, wall, faults, _ in records])
    print(f"{'kind':<30} {'jobs':>4} {'wall_ms':>9} {'faults_med':>10} {'faults_sum':>10} {'pass_peak_kB':>12}")
    for row in rows:
        print(
            f"{row['kind']:<30} {row['jobs']:>4} {row['wall_ms']:>9.1f} {row['faults_median']:>10g}"
            f" {row['faults_total']:>10} {row['pass_peak_kb']:>12.1f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
