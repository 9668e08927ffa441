"""The names that the benchmark's tracer patches stay bound.

``benchmarks/tracing.py`` looks each name up with ``getattr`` and wraps it;
a rename in the package would make every ``--trace 1`` run fail.  It also
reads the step count from the fourth argument of ``engine._rk4_transitions``
and the sampled parameters from the second argument of the path adapters.
"""

import importlib
import importlib.util
import inspect
import types
from pathlib import Path

import pytest


TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_module(name):
    return importlib.import_module(f"pathtransport.{name}")


def test_traced_functions_are_bound():
    tracing = tracing_module()
    for modname, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(package_module(modname), attr, None)), f"{modname}.{attr}"
    for modname, clsname, attr, _ in tracing.METHODS:
        assert attr in getattr(package_module(modname), clsname).__dict__, f"{clsname}.{attr}"
    assert callable(package_module("engine").path_coefficient_field)
    assert callable(package_module("cli")._write)


def test_traced_argument_positions():
    engine, paths = package_module("engine"), package_module("paths")
    assert list(inspect.signature(engine._rk4_transitions).parameters)[3] == "n_steps"
    for fn in (paths.position_at, paths.velocity_at):
        assert list(inspect.signature(fn).parameters)[:2] == ["path", "s"]


def test_output_digest_quick_is_well_formed_and_repeatable():
    import re
    import subprocess
    import sys

    root = Path(__file__).resolve().parent.parent
    argv = [sys.executable, str(root / "tools" / "output_digest.py"), "--src", str(root / "src"), "--quick"]
    runs = [subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True).stdout for _ in range(2)]
    lines = runs[0].splitlines()
    assert runs[0] == runs[1]
    assert len(lines) >= 10 and lines == sorted(lines, key=lambda line: line[66:])
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    names = {line[66:] for line in lines}
    assert {"list-geometries:stdout", "check-laws:sphere:seed1:law_reports.csv", "matrix:triangle:sphere:1e-02"} <= names


def test_knob_count_is_well_formed():
    import re
    import subprocess
    import sys

    root = Path(__file__).resolve().parent.parent
    argv = [sys.executable, str(root / "tools" / "knob_count.py"), "--src", str(root / "src")]
    *rows, total = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True).stdout.splitlines()
    counts = {}
    for row in rows:
        match = re.fullmatch(r"(\w+) (\d+)(?: (\w+(?:,\w+)*))?", row)
        assert match, row
        name, count, params = match.groups()
        assert int(count) == len(params.split(",") if params else [])
        counts[name] = int(count)
    assert list(counts) == sorted(counts)
    assert {"factorization_test", "holonomy", "Path"} <= set(counts)
    assert total == f"total {sum(counts.values())}"


def test_tracer_records_the_coefficient_dump_as_field_calls(tmp_path):
    # The transport command's coefficient dump samples the integrators'
    # field, so the tracer's engine.field span sees it.
    from pathtransport.cli import main

    tracer = tracing_module().Tracer()
    argv = ["transport", "--geometry", "sphere", "--path", "segment:from=1,0;to=1.2,0.3", "--vector", "1,0"]
    with tracer.installed():
        tracer.begin_job()
        assert main([*argv, "--out", str(tmp_path)]) == 0
        tracer.end_job(0)
    assert tracer.calls["engine.field"] > 0
    assert (tmp_path / "transport_coefficients.csv").exists()


def bench_pairs_module():
    spec = importlib.util.spec_from_file_location("bench_pairs", TRACING.parent.parent / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_verdict_on_synthetic_pairs():
    verdict = bench_pairs_module().verdict
    parent = [4.30, 4.35, 4.40, 4.32, 4.38, 4.36, 4.31, 4.41, 4.33, 4.37]
    # +20%, every pair won: the claim holds.
    res = verdict(parent, [1.2 * p for p in parent], "higher")
    assert res["wins"] == 10 and res["holds"]
    assert abs(res["relative"] - 0.2) < 1e-12
    # Eight wins in ten are not enough, however large the gain.
    mixed = [1.2 * p for p in parent[:8]] + [0.9 * p for p in parent[8:]]
    assert verdict(parent, mixed, "higher")["wins"] == 8 and not verdict(parent, mixed, "higher")["holds"]
    # Every pair won by a hair: the medians differ by less than the parent's IQR.
    tiny = [p + 1e-3 for p in parent]
    assert verdict(parent, tiny, "higher")["wins"] == 10 and not verdict(parent, tiny, "higher")["holds"]
    # Lower is better: a fall is a win, and equal values are not.
    res = verdict(parent, [0.8 * p for p in parent], "lower")
    assert res["wins"] == 10 and res["holds"]
    assert verdict(parent, parent, "lower")["wins"] == 0
    (median, q1, q3) = res["parent"]
    assert q1 <= median <= q3 and median == sorted(parent)[4] / 2 + sorted(parent)[5] / 2


def test_bench_pairs_bound_and_seed_parsing():
    tool = bench_pairs_module()
    res = tool.verdict([10.0] * 4, [12.5] * 4, "lower")
    assert tool.worse_beyond(res, "lower", 0.2) and not tool.worse_beyond(res, "lower", 0.25)
    assert tool.parse_seeds("101-103,7") == [101, 102, 103, 7]


def heap_probe_module():
    spec = importlib.util.spec_from_file_location("heap_probe", TRACING.parent.parent / "tools" / "heap_probe.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_heap_probe_summary_per_job_kind():
    records = [
        ("triangle:sphere", 0.050, 0, 600_000, (40_000, 41_000)),
        ("latitude:sphere", 0.100, 3, 450_000, (41_000, 41_000)),
        ("triangle:sphere", 0.070, 10, 0, (41_000, 41_500)),
        ("triangle:sphere", 0.060, 2, 650_000, (41_500, 41_984)),
    ]
    rows = heap_probe_module().summarize(records)
    assert [row["kind"] for row in rows] == ["triangle:sphere", "latitude:sphere"]
    tri, lat = rows
    assert tri["jobs"] == 3 and abs(tri["wall_ms"] - 60.0) < 1e-9
    assert tri["faults_median"] == 2 and tri["faults_total"] == 12
    assert tri["pass_peak_kb"] == 650.0
    assert tri["rss_mb"] == 41.0 and tri["rss_rise_kb"] == 1984
    assert lat == {
        "kind": "latitude:sphere", "jobs": 1, "wall_ms": 100.0, "faults_median": 3, "faults_total": 3,
        "rss_mb": 41_000 / 1024, "rss_rise_kb": 0, "pass_peak_kb": 450.0,
    }


def test_heap_probe_takes_the_workload_to_probe():
    tool = heap_probe_module()
    assert tool.parse_args([]).workload == "holonomy-fine"
    assert tool.parse_args(["--workload", "laws-suite"]).workload == "laws-suite"
    with pytest.raises(SystemExit):
        tool.parse_args(["--workload", "nope"])

    class Job:
        kind, params = "check-laws:flat", {}

        def run(self):
            return {}

        def check(self, out):
            return types.SimpleNamespace(ok=True, detail="")

    asked = []
    wl = types.SimpleNamespace(cycle=lambda workload, seed, index, outdir: asked.append(workload) or [Job()])
    [(kind, wall, faults, peak, (before, after))] = tool.run_cycle(wl, "laws-suite", 4, 0, None)
    assert asked == ["laws-suite"] and kind == "check-laws:flat" and peak == 0
    assert wall >= 0 and faults >= 0 and 0 < before <= after


def test_pass_split_summary_per_job_kind():
    spec = importlib.util.spec_from_file_location("pass_split", TRACING.parent.parent / "tools" / "pass_split.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def seconds(contract, chart, kernel, jet, whole, entry=0.0, integrate=0.0, apply=0.0, apply_matrices=0.0):
        return {
            "_contract": contract, "_check_chart": chart, "_rk4_transitions": kernel, "jet": jet, "_pass": whole,
            "transport_matrices": entry, "_integrate": integrate, "apply": apply, "apply_matrices": apply_matrices,
        }

    records = [
        ("latitude:sphere", 300, 0, 0, seconds(0.003, 0.006, 0.0024, 0.0036, 0.018, 0.02, 0.0185)),
        ("triangle:sphere", 3, 0, 0, seconds(0.0003, 0.00003, 0.0003, 0.00015, 0.0009, 0.0012, 0.001)),
        ("latitude:sphere", 100, 0, 0, seconds(0.001, 0.002, 0.0008, 0.0012, 0.006, 0.0065, 0.006)),
        # Steady chunks run in no pass: every per-pass column reads 0.
        ("latitude:steady", 0, 343, 1, seconds(0.0, 0.0, 0.0, 0.0, 0.0, 0.004, 0.0, 0.010, 0.004)),
        ("latitude:steady", 0, 341, 3, seconds(0.0, 0.0, 0.0, 0.0, 0.0, 0.002, 0.0, 0.005, 0.003)),
    ]
    lat, tri, steady = tool.summarize(records)
    assert lat["kind"] == "latitude:sphere" and lat["jobs"] == 2 and lat["passes"] == 200 and lat["steady"] == 0
    assert lat["steady_calls"] == tri["steady_calls"] == 0
    expected = {
        "contract_us": 10, "chart_us": 20, "kernel_us": 8, "jet_us": 12, "nodes_us": 10, "pass_us": 60, "outside_us": 1000,
    }
    for key, value in expected.items():
        assert abs(lat[key] - value) < 1e-9, key
    assert tri["jobs"] == 1 and tri["passes"] == 3
    assert abs(tri["pass_us"] - 300) < 1e-9 and abs(tri["jet_us"] - 50) < 1e-9 and abs(tri["nodes_us"] - 40) < 1e-9
    assert abs(tri["outside_us"] - 200) < 1e-9
    assert steady["passes"] == 0 and steady["steady"] == 342 and abs(steady["outside_us"] - 3000) < 1e-9
    assert steady["steady_calls"] == 2  # the median over jobs
    # apply_many_with_matrices outside matrices: (6 + 2) ms over two jobs.
    assert abs(steady["apply_outside_ms"] - 4.0) < 1e-9 and lat["apply_outside_ms"] == 0.0
    assert all(steady[key] == 0 for key in ("contract_us", "chart_us", "kernel_us", "jet_us", "nodes_us", "pass_us"))


def test_bench_pairs_probe_summary():
    tool = bench_pairs_module()
    parent = [0.18, 0.19, 0.20, 0.21, 0.22]
    change = [0.17, 0.18, 0.19, 0.20, 0.23]
    line = tool.probe_summary("setup", parent, change)
    assert line == "probe setup: 0.2 [0.19, 0.21] -> 0.19 [0.18, 0.2] ref-s (-5.0%), change faster in 4/5"


def test_bench_pairs_refuses_checkouts_with_a_bytecode_cache(tmp_path, capsys):
    tool = bench_pairs_module()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        (checkout / "src" / "pathtransport").mkdir(parents=True)
    assert tool.bytecode_caches(parent, change) == []
    cache = change / "src" / "pathtransport" / "__pycache__"
    cache.mkdir()
    (parent / "__pycache__").mkdir()  # outside src/: not start-up's concern
    assert tool.bytecode_caches(parent, change) == [cache]
    assert tool.main([str(parent), str(change), "--probe", "setup"]) == 2
    assert str(cache) in capsys.readouterr().err
    assert tool.main([str(parent), str(change), "--workload", "laws-suite", "--seeds", "1"]) == 2


def test_pass_split_takes_the_workload_to_split():
    spec = importlib.util.spec_from_file_location("pass_split", TRACING.parent.parent / "tools" / "pass_split.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.parse_args([]).workload == "holonomy-fine"
    assert tool.parse_args(["--workload", "laws-suite"]).workload == "laws-suite"
    with pytest.raises(SystemExit):
        tool.parse_args(["--workload", "nope"])

    class Job:
        kind, params = "check-laws:flat", {}

        def run(self):
            return {}

        def check(self, out):
            return types.SimpleNamespace(ok=True, detail="")

    asked = []
    wl = types.SimpleNamespace(cycle=lambda workload, seed, index, outdir: asked.append(workload) or [Job()])
    seconds = dict.fromkeys(("_pass", "transport_matrices", "_integrate") + tool.PARTS, 0.0)
    counts = dict.fromkeys(("steady", "steady_calls") + tuple(seconds), 0)
    records = tool.run_cycle(wl, "laws-suite", 4, 0, None, seconds, counts)
    assert asked == ["laws-suite"] and records == [("check-laws:flat", 0, 0, 0, seconds)]


def fake_checkout(root):
    """A checkout whose benchmark run reports job_p50_ms 2 when both malloc
    thresholds of ``--malloc-fixed`` reach it, else 1."""
    (root / "benchmarks").mkdir(parents=True)
    (root / "src").mkdir()
    (root / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "job_p50_ms", "better": "lower", "bound": 0.2}]}'
    )
    (root / "benchmarks" / "run.py").write_text(
        "import json, os\n"
        "fixed = all(os.environ.get(k) == v for k, v in "
        + repr(bench_pairs_module().MALLOC_FIXED)
        + ".items())\n"
        "print(json.dumps({'correct': True, 'metrics': {'job_p50_ms': {'value': 2.0 if fixed else 1.0}}}))\n"
    )
    return root


@pytest.mark.parametrize("fixed", [False, True])
def test_bench_pairs_malloc_fixed_reaches_the_children_only(tmp_path, capsys, fixed):
    import os

    tool = bench_pairs_module()
    parent, change = fake_checkout(tmp_path / "parent"), fake_checkout(tmp_path / "change")
    before = dict(os.environ)
    argv = [str(parent), str(change), "--workload", "laws-suite", "--seeds", "1-2"] + ["--malloc-fixed"] * fixed
    assert tool.main(argv) == 0
    assert dict(os.environ) == before
    out = capsys.readouterr().out
    value = "2" if fixed else "1"
    assert f"job_p50_ms {value} -> {value}" in out
    summary = [line for line in out.splitlines() if "claim" in line]
    assert len(summary) == 1
    assert summary[0].startswith("diagnostic (malloc thresholds fixed): laws-suite") == fixed
    assert ("diagnostic" in out) == fixed
