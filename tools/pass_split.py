"""Per-job-kind split of a workload's integration passes into their parts.

    python3 tools/pass_split.py [--src DIR] [--seed N] [--workload laws-suite|holonomy-fine]

The process is laid out like ``benchmarks/worker.py``: ``pathtransport``
from ``DIR`` (default: this checkout's ``src``), then scipy, then the
reference cycle as warm-up.  It then wraps ``engine._pass``,
``engine._contract``, ``engine._check_chart``, ``engine._rk4_transitions``,
the jet of every source that ``engine._piece_jet`` builds,
``engine._integrate`` and every module's binding of
``engine.transport_matrices`` in ``perf_counter`` timers and runs ``CYCLES``
whole cycles of the seeded jobs of ``--workload`` (default
``holonomy-fine``).  One line per job kind
gives the passes per job and the microseconds per pass spent in the
contraction, the chart check, the RK4 kernel, the path jets and the rest of
the pass (building the nodes, grouping the chunks and any other work of the
sampler), and in the whole pass; the parts count only inside a pass.  Chunks
over a steady path piece run in no pass: the line also gives the steady
chunks per job (chunks handed to the kernel with one sample each), the
kernel calls per job outside passes (``steady_calls``, one per
``transport_matrices`` call that has steady chunks) and the microseconds
per job spent in ``transport_matrices`` outside ``_integrate`` (planning,
and the sampling and reduction of steady chunks).  The last column gives
the milliseconds per job spent in ``TransportAlongPaths.apply_many_with_matrices``
outside its ``matrices`` calls: placing the fibre vectors, the attachment
check and building the results, the wrapper layer around the matrices (for
a generic transport, its whole realization).  Nested calls count once, in
the outermost.
A job with no pass reads 0 in every per-pass column.  Uses the standard
library and numpy only.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("holonomy-fine", "laws-suite")
CYCLES = 3
PARTS = ("_contract", "_check_chart", "_rk4_transitions", "jet")


def summarize(records: list[tuple[str, int, int, int, dict]]) -> list[dict]:
    """Per job kind, in order of first appearance: job count, median passes,
    steady chunks and kernel calls outside passes per job, mean microseconds
    per pass of each part and mean microseconds per job outside
    ``_integrate``.

    ``records`` holds ``(kind, passes, steady_chunks, steady_calls, seconds)`` per job,
    where ``seconds`` maps ``_pass`` and each name of ``PARTS`` to the job's
    total time in it inside passes, ``transport_matrices`` and
    ``_integrate`` to its total time in them, ``apply`` to its time in
    outermost ``apply_many_with_matrices`` calls and ``apply_matrices`` to
    the time those spent in their outermost ``matrices`` calls; ``nodes``
    is the pass time the parts do not cover.
    """
    kinds: dict[str, list] = {}
    for record in records:
        kinds.setdefault(record[0], []).append(record)
    rows = []
    for kind, jobs in kinds.items():
        passes = sum(p for _, p, *_ in jobs)
        per_pass = {name: 1e6 * sum(s[name] for *_, s in jobs) / max(passes, 1) for name in ("_pass",) + PARTS}
        outside = sum(s["transport_matrices"] - s["_integrate"] for *_, s in jobs)
        rows.append(
            {
                "kind": kind,
                "jobs": len(jobs),
                "passes": statistics.median(p for _, p, *_ in jobs),
                "steady": statistics.median(c for _, _, c, *_ in jobs),
                "steady_calls": statistics.median(k for *_, k, _ in jobs),
                "contract_us": per_pass["_contract"],
                "chart_us": per_pass["_check_chart"],
                "kernel_us": per_pass["_rk4_transitions"],
                "jet_us": per_pass["jet"],
                "nodes_us": per_pass["_pass"] - sum(per_pass[name] for name in PARTS),
                "pass_us": per_pass["_pass"],
                "outside_us": 1e6 * outside / len(jobs),
                "apply_outside_ms": 1e3 * sum(s["apply"] - s["apply_matrices"] for *_, s in jobs) / len(jobs),
            }
        )
    return rows


def timed(engine, seconds: dict, counts: dict) -> dict:
    """Wrap ``engine._pass``, the engine functions of ``PARTS``, the jet of
    each source ``engine._piece_jet`` returns, ``engine._integrate`` and
    every module's binding of ``engine.transport_matrices``, so each call
    adds its wall time to ``seconds[name]`` and one to ``counts[name]``; a
    part counts only inside a pass.  A kernel call with one sample per
    chunk adds its chunks to ``counts["steady"]`` and one to
    ``counts["steady_calls"]``.  ``TransportAlongPaths.apply_many_with_matrices``
    and ``.matrices`` add to ``seconds["apply"]`` and
    ``seconds["apply_matrices"]`` as ``summarize`` reads them.  Returns the
    originals as ``{(owner, name): function}``."""
    entry = engine.transport_matrices
    modules = [m for name, m in sys.modules.items() if name.startswith("pathtransport") and m is not None]
    targets = [(engine, name) for name in ("_pass", "_piece_jet", "_integrate") + PARTS[:-1]]
    targets += [(m, "transport_matrices") for m in modules if getattr(m, "transport_matrices", None) is entry]
    transport = sys.modules["pathtransport.transports"].TransportAlongPaths
    targets += [(transport, "apply_many_with_matrices"), (transport, "matrices")]
    originals = {(m, name): getattr(m, name) for m, name in targets}
    running = 0  # passes under way
    depth = {"apply_many_with_matrices": 0, "matrices": 0}  # calls under way

    def wrap(name, original):
        def wrapper(*args, **kwargs):
            nonlocal running
            if name == "_rk4_transitions" and args[0].shape[-1] == args[2].size:
                counts["steady"] += args[2].size
                counts["steady_calls"] += 1
            if name in PARTS and not running:
                return original(*args, **kwargs)
            running += name == "_pass"
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                seconds[name] += time.perf_counter() - t0
                counts[name] += 1
                running -= name == "_pass"

        return wrapper

    def layer(name, original):
        key = "apply" if name == "apply_many_with_matrices" else "apply_matrices"

        def wrapper(*args, **kwargs):
            outer = not depth[name] and (key == "apply" or depth["apply_many_with_matrices"])
            depth[name] += 1
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                depth[name] -= 1
                if outer:
                    seconds[key] += time.perf_counter() - t0

        return wrapper

    def sources(*args, **kwargs):
        source = originals[engine, "_piece_jet"](*args, **kwargs)
        return source._replace(jet=wrap("jet", source.jet))

    for (m, name), original in originals.items():
        if m is transport:
            setattr(m, name, layer(name, original))
        else:
            setattr(m, name, sources if name == "_piece_jet" else wrap(name, original))
    return originals


def run_cycle(wl, workload: str, seed: int, index: int, outdir: Path, seconds: dict, counts: dict) -> list:
    """One cycle's jobs of ``workload`` as ``(kind, passes, steady_chunks, steady_calls, seconds)``."""
    records = []
    for job in wl.cycle(workload, seed, index, outdir):
        for name in seconds:
            seconds[name] = 0.0
        for name in counts:
            counts[name] = 0
        verdict = job.check(job.run())
        if not verdict.ok:
            raise SystemExit(f"error: {job.kind} {job.params} failed its check: {verdict.detail}")
        records.append((job.kind, counts["_pass"], counts["steady"], counts["steady_calls"], dict(seconds)))
    return records


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the pathtransport package")
    parser.add_argument("--seed", type=int, default=1, help="benchmark seed of the timed cycles")
    parser.add_argument("--workload", choices=WORKLOADS, default=WORKLOADS[0], help="benchmark workload to split")
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

    seconds = dict.fromkeys(("_pass", "transport_matrices", "_integrate", "apply", "apply_matrices") + PARTS, 0.0)
    counts = dict.fromkeys(("steady", "steady_calls") + tuple(seconds), 0)
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp)
        originals = timed(engine, seconds, counts)
        try:
            run_cycle(wl, args.workload, wl.REFERENCE_SEED, 0, outdir, seconds, counts)
            records = []
            for index in range(CYCLES):
                records += run_cycle(wl, args.workload, args.seed, index, outdir, seconds, counts)
        finally:
            for (module, name), original in originals.items():
                setattr(module, name, original)
    print(
        f"{'kind':<30} {'jobs':>4} {'passes':>6} {'steady':>6} {'steady_calls':>12} {'contract_us':>11} {'chart_us':>8}"
        f" {'kernel_us':>9} {'jet_us':>6} {'nodes_us':>8} {'pass_us':>7} {'outside_us':>10} {'apply_out_ms':>12}"
    )
    for row in summarize(records):
        print(
            f"{row['kind']:<30} {row['jobs']:>4} {row['passes']:>6g} {row['steady']:>6g} {row['steady_calls']:>12g}"
            f" {row['contract_us']:>11.1f}"
            f" {row['chart_us']:>8.1f} {row['kernel_us']:>9.1f} {row['jet_us']:>6.1f} {row['nodes_us']:>8.1f}"
            f" {row['pass_us']:>7.1f} {row['outside_us']:>10.1f} {row['apply_outside_ms']:>12.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
