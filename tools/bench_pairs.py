"""Interleaved benchmark pairs between two checkouts, with the acceptance verdict.

    python3 tools/bench_pairs.py PARENT CHANGE --workload laws-suite --seeds 101-110 [--seconds 45]
    python3 tools/bench_pairs.py PARENT CHANGE --probe setup [--count 12]

For each seed it runs ``benchmarks/run.py`` once in each checkout, the
parent first for odd pair numbers and the change first for even ones.  For
every workload and end-to-end metric it then prints both medians with their
quartiles, how many pairs the change won, its relative move against the
bound in the parent's BENCHMARK.json, and the verdict on a claimed gain: the
change must win at least nine pairs in ten, and the medians must differ, in
the better direction, by more than the parent's interquartile range.  Each
pair's values go to ``--json`` when given.

``--probe import|setup`` instead runs ``benchmarks/probe.py`` in a fresh
interpreter ``--count`` times per checkout, in the same alternating order,
and summarizes the reference seconds the same way.  A start-up figure read
once per benchmark run is noisy; this resolves a move of a few percent.

It refuses to run, with exit status 2, while either checkout's ``src/``
holds a ``__pycache__``: under ``PYTHONDONTWRITEBYTECODE=1`` the side with
a cache loads bytecode while the other compiles every module, which skews
``setup_s`` by 15% or more.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str) -> dict:
    """Compare paired runs of one metric; ``better`` is "higher" or "lower".

    A pair is a win when the change's value is strictly better.  The claim
    holds when the change wins at least 9 pairs in 10 (rounded up) and the
    median moves in the better direction by more than the parent's IQR.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm)
    return {
        "pairs": len(parent),
        "wins": wins,
        "parent": (pm, p1, p3),
        "change": (cm, c1, c3),
        "relative": (cm - pm) / pm if pm else math.inf,
        "holds": wins >= math.ceil(0.9 * len(parent)) and gain > p3 - p1,
    }


def worse_beyond(result: dict, better: str, bound: float) -> bool:
    """Whether the change's median is worse than the parent's by more than ``bound`` (relative)."""
    pm, cm = result["parent"][0], result["change"][0]
    worse = (pm - cm) if better == "higher" else (cm - pm)
    return worse > bound * abs(pm)


def parse_seeds(text: str) -> list[int]:
    """``101-110`` or ``1,4,9`` to a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def bytecode_caches(*checkouts: Path) -> list[Path]:
    """Every ``__pycache__`` directory under the ``src/`` of the checkouts."""
    return sorted(p for checkout in checkouts for p in (checkout / "src").rglob("__pycache__") if p.is_dir())


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``benchmarks/run.py`` run; its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
        + ["--trace", "0"],
        cwd=checkout,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


#: The thread pinning of ``benchmarks/run.py``'s child processes.
PINNED_THREADS = {
    name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
}


def probe_once(checkout: Path, mode: str) -> float:
    """One fresh ``benchmarks/probe.py`` run: its reference seconds."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/probe.py", mode],
        cwd=checkout,
        env=dict(os.environ, **PINNED_THREADS),
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    return float(proc.stdout.split()[-1])


def probe_summary(mode: str, parent: list[float], change: list[float]) -> str:
    """One line: both medians with their quartiles, the relative move, and
    in how many pairs the change started faster."""
    res = verdict(parent, change, "lower")
    (pm, p1, p3), (cm, c1, c3) = res["parent"], res["change"]
    return (
        f"probe {mode}: {pm:.4g} [{p1:.4g}, {p3:.4g}] -> {cm:.4g} [{c1:.4g}, {c3:.4g}] ref-s"
        f" ({100 * res['relative']:+.1f}%), change faster in {res['wins']}/{res['pairs']}"
    )


def run_probes(args) -> int:
    runs = {"parent": [], "change": []}
    for k in range(args.count):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            runs[side].append(probe_once(getattr(args, side), args.probe))
    print(probe_summary(args.probe, runs["parent"], runs["change"]))
    if args.json:
        args.json.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", help="e.g. 101-110 or 1,4,9")
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--probe", choices=("import", "setup"), help="interleave start-up probes instead")
    parser.add_argument("--count", type=int, default=12, help="probe runs per checkout")
    parser.add_argument("--json", type=Path, help="write every pair's results here")
    args = parser.parse_args(argv)
    caches = bytecode_caches(args.parent, args.change)
    if caches:
        print("error: remove the bytecode caches first:", *caches, sep="\n  ", file=sys.stderr)
        return 2
    if args.probe:
        return run_probes(args)
    if not (args.workload and args.seeds):
        parser.error("--workload and --seeds are required unless --probe is given")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    runs = {}
    for workload in args.workload:
        pairs = []
        for k, seed in enumerate(parse_seeds(args.seeds)):
            sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": sides[0]}
            for side in sides:
                pair[side] = run_once(getattr(args, side), workload, seed, args.seconds)
            pairs.append(pair)
            values = {side: pair[side]["metrics"] for side in ("parent", "change")}
            print(
                f"{workload} seed {seed}: "
                + "  ".join(
                    f"{name} {values['parent'][name]['value']:.6g} -> {values['change'][name]['value']:.6g}"
                    for name in (m["name"] for m in metrics)
                ),
                flush=True,
            )
        runs[workload] = pairs
        for side in ("parent", "change"):
            failed = [p["seed"] for p in pairs if not p[side]["correct"]]
            if failed:
                print(f"{workload}: {side} not correct at seeds {failed}")
        for m in metrics:
            name = m["name"]
            res = verdict(
                [p["parent"]["metrics"][name]["value"] for p in pairs],
                [p["change"]["metrics"][name]["value"] for p in pairs],
                m["better"],
            )
            (pm, p1, p3), (cm, c1, c3) = res["parent"], res["change"]
            print(
                f"{workload:14s} {name:12s} {pm:.6g} [{p1:.6g}, {p3:.6g}] -> {cm:.6g} [{c1:.6g}, {c3:.6g}]"
                f" ({100 * res['relative']:+.1f}%), wins {res['wins']}/{res['pairs']},"
                f" claim {'holds' if res['holds'] else 'does not hold'},"
                f" {'WORSE than' if worse_beyond(res, m['better'], m['bound']) else 'within'} bound {m['bound']:g}"
            )
    if args.json:
        args.json.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
