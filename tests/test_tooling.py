"""The names that the benchmark's tracer patches stay bound.

``benchmarks/tracing.py`` looks each name up with ``getattr`` and wraps it;
a rename in the package would make every ``--trace 1`` run fail.  It also
reads the step count from the fourth argument of ``engine._rk4_transitions``
and the sampled parameters from the second argument of the path adapters.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path


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
