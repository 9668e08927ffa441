"""Self-checks of the benchmark: oracles, seeding and tracing.

    python3 -m pytest benchmarks -q

These run the benchmark's own jobs once each (a few seconds in all); they
are outside the repository's test paths, so timing noise never reaches the
program's test suite.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import Tally, execute  # noqa: E402

wl.load_package()


def first_job(workload, kind, outdir, seed=0):
    for index in range(3):
        for job in wl.cycle(workload, seed, index, outdir):
            if job.kind == kind:
                return job
    raise LookupError(kind)


@pytest.mark.parametrize("kind", ["triangle:sphere-orthonormal", "triangle:sphere"])
def test_oracle_rejects_holonomy_rotated_by_1e_6(kind, tmp_path):
    job = first_job("holonomy-fine", kind, tmp_path)
    out = job.run()
    assert job.check(out).ok
    tally = Tally()
    for key in out:
        rotated = np.frombuffer(out[key]).reshape(2, 2) @ wl.rotation(1e-6)
        verdict = job.check(dict(out, **{key: rotated.tobytes()}))
        tally.record(job, verdict.ok, verdict.detail)
    assert tally.failed == tally.attempted == len(wl.HOLONOMY_STEPS)


def _flip_row(csv_text, law_id, residual):
    lines = csv_text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        fields = line.split(",")
        if fields[0] == law_id:
            fields[2] = residual
            fields[4] = "true" if fields[4] == "false" else "false"
            lines[i] = ",".join(fields)
    return "".join(lines)


def test_oracle_rejects_flipped_law_verdicts(tmp_path):
    job = first_job("laws-suite", "check-laws:evolution", tmp_path)
    out = job.run()
    assert job.check(out).ok
    text = out["law_reports.csv"].decode()
    # The documented impossibility reported as a pass, with a residual to match.
    claims_smooth = _flip_row(text, "smoothness", "0")
    # A law that holds reported as failing, with a residual to match.
    breaks_groupoid = _flip_row(text, "groupoid", "1")
    # A verdict that contradicts its own residual.
    contradicts = text.replace("point-identity,3,0,1e-06,true", "point-identity,3,0,1e-06,false")
    assert contradicts != text
    for csv_text in (claims_smooth, breaks_groupoid, contradicts):
        assert not job.check(dict(out, **{"law_reports.csv": csv_text.encode()})).ok
    assert not job.check(dict(out, exit=b"0")).ok


def test_seed_changes_generated_loops_and_paths(tmp_path):
    def params(seed):
        return [job.params for job in wl.cycle("holonomy-fine", seed, 0, tmp_path)]

    assert params(1) == params(1)
    assert params(1) != params(2)
    reports = [first_job("laws-suite", "roundtrip:sphere", tmp_path, seed).run()["roundtrip.csv"] for seed in (1, 2)]
    assert reports[0] != reports[1]


@pytest.mark.parametrize(
    "workload, kind",
    [
        ("laws-suite", "check-laws:evolution"),
        ("laws-suite", "roundtrip:sphere"),
        ("holonomy-fine", "triangle:sphere"),
    ],
)
def test_traced_and_untraced_runs_agree(workload, kind, tmp_path):
    job = first_job(workload, kind, tmp_path)
    _, plain, plain_verdict = execute(job)
    tracer = Tracer()
    tracer.begin_job()
    with tracer.installed():
        _, traced, traced_verdict = execute(job)
    covered = tracer.end_job(0)
    assert plain_verdict.ok and traced_verdict.ok
    assert traced == plain
    assert covered > 0 and tracer.calls
    from pathtransport import paths

    assert paths.position_at.__module__ == "pathtransport.paths"


def test_traced_metrics_match_benchmark_json():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    names = set(Tracer().metrics()) | {"import_s", "trace.jobs", "trace.overhead", "trace.coverage"}
    assert names == {m["name"] for m in spec["per_layer"]}
