"""Per-job-kind wall time, minor page faults, peak RSS and pass working set of a workload.

    python3 tools/heap_probe.py [--src DIR] [--seed N] [--cycles N] [--workload laws-suite|holonomy-fine]

The process is laid out like ``benchmarks/worker.py``: ``pathtransport``
from ``DIR`` (default: this checkout's ``src``), then scipy, then the
reference cycle as warm-up.  It then runs ``--cycles`` whole cycles of the
seeded jobs of ``--workload`` (default ``holonomy-fine``), recording each
job's wall time, the minor page faults the process took during it and the
process's peak resident set (``getrusage``: ``ru_minflt``, ``ru_maxrss``).
A last cycle runs under ``tracemalloc`` and records the largest peak of any
one ``engine._pass`` call, net of what was allocated before it.  One line
per job kind gives the median wall time, the median and total minor
faults, the peak RSS when its last job ended, how far its jobs raised that
peak, and the largest pass peak; the last line gives the peak RSS after
the timed cycles, the figure the benchmark reports as ``peak_rss_mb``.  A
pass peak of 0 means the job ran no pass: steady chunks are reduced
outside the passes and a zero field builds no chunk, so latitude and
``flat`` jobs read 0.  Faults after warm-up mean that the allocator hands
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
WORKLOADS = ("holonomy-fine", "laws-suite")


def summarize(records: list[tuple[str, float, int, int, tuple[int, int]]]) -> list[dict]:
    """Per job kind, in order of first appearance: job count, median wall ms,
    median and total minor faults, peak RSS in MB after its last job, the
    rise in kB of the peak during its jobs, and the largest pass peak in kB.

    ``records`` holds ``(kind, wall_s, minor_faults, pass_peak_bytes,
    (maxrss_before_kb, maxrss_after_kb))`` per job, in run order; a pass
    peak of 0 means the job was not traced or ran no pass.
    """
    kinds: dict[str, list] = {}
    for record in records:
        kinds.setdefault(record[0], []).append(record)
    rows = []
    for kind, jobs in kinds.items():
        faults = [f for _, _, f, _, _ in jobs]
        rows.append(
            {
                "kind": kind,
                "jobs": len(jobs),
                "wall_ms": 1e3 * statistics.median(w for _, w, *_ in jobs),
                "faults_median": statistics.median(faults),
                "faults_total": sum(faults),
                "rss_mb": jobs[-1][4][1] / 1024,
                "rss_rise_kb": sum(after - before for *_, (before, after) in jobs),
                "pass_peak_kb": max(p for *_, p, _ in jobs) / 1e3,
            }
        )
    return rows


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_cycle(wl, workload: str, seed: int, index: int, outdir: Path, peaks: list | None = None) -> list:
    """One cycle's jobs of ``workload`` as ``(kind, wall_s, minor_faults,
    pass_peak_bytes, (maxrss_before_kb, maxrss_after_kb))``."""
    records = []
    for job in wl.cycle(workload, seed, index, outdir):
        if peaks is not None:
            peaks.clear()
        rss, f0, t0 = max_rss_kb(), minor_faults(), time.perf_counter()
        verdict = job.check(job.run())
        wall, faults = time.perf_counter() - t0, minor_faults() - f0
        if not verdict.ok:
            raise SystemExit(f"error: {job.kind} {job.params} failed its check: {verdict.detail}")
        peak = max(peaks, default=0) if peaks is not None else 0
        records.append((job.kind, wall, faults, peak, (rss, max_rss_kb())))
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


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the pathtransport package")
    parser.add_argument("--seed", type=int, default=1, help="benchmark seed of the timed cycles")
    parser.add_argument("--cycles", type=int, default=3, help="untraced cycles to time")
    parser.add_argument("--workload", choices=WORKLOADS, default=WORKLOADS[0], help="benchmark workload to probe")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(args.src))
    from pathtransport import engine

    if Path(engine.__file__).resolve().parent != (args.src / "pathtransport").resolve():
        raise SystemExit(f"error: imported pathtransport from {engine.__file__}, not {args.src}")
    sys.path.insert(1, str(ROOT / "benchmarks"))
    import scipy  # noqa: F401  (the benchmark worker's import, which shapes the heap)
    import workloads as wl

    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp)
        run_cycle(wl, args.workload, wl.REFERENCE_SEED, 0, outdir)
        records = []
        for index in range(args.cycles):
            records += run_cycle(wl, args.workload, args.seed, index, outdir)
        timed_rss = max_rss_kb()
        peaks: list[int] = []
        original = traced_passes(engine, peaks)
        tracemalloc.start()
        try:
            traced = run_cycle(wl, args.workload, args.seed, 0, outdir, peaks)
        finally:
            tracemalloc.stop()
            engine._pass = original
    peak = {}
    for kind, _, _, p, _ in traced:
        peak[kind] = max(peak.get(kind, 0), p)
    rows = summarize([(kind, wall, faults, peak.get(kind, 0), rss) for kind, wall, faults, _, rss in records])
    print(
        f"{'kind':<30} {'jobs':>4} {'wall_ms':>9} {'faults_med':>10} {'faults_sum':>10} {'rss_mb':>7}"
        f" {'rss_rise_kB':>11} {'pass_peak_kB':>12}"
    )
    for row in rows:
        print(
            f"{row['kind']:<30} {row['jobs']:>4} {row['wall_ms']:>9.1f} {row['faults_median']:>10g}"
            f" {row['faults_total']:>10} {row['rss_mb']:>7.2f} {row['rss_rise_kb']:>11} {row['pass_peak_kb']:>12.1f}"
        )
    print(f"peak RSS after {args.cycles} timed cycles: {timed_rss / 1024:.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
