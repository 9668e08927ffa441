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
