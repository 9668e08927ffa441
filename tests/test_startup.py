"""Start-up needs numpy alone.

The catalog, every catalog entry's first transport and the CLI subcommands on
``evolution`` must not load any scipy module, so a fresh process pays for
numpy only.  scipy is loaded on first use by the two features that need it:
``samples:`` spline paths and grid geometries.  Each check runs in a fresh
interpreter, because the pytest process itself has scipy loaded.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
out = sys.argv[2]

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import pathtransport as pt
from pathtransport import cli

for entry in pt.standard_catalog().values():
    box = [(lo + 0.2 * (hi - lo), hi - 0.4 * (hi - lo)) for lo, hi in entry.chart_box]
    path = pt.segment([a for a, _ in box], [b for _, b in box])
    u = pt.FibreVector(path.at(0.0), [1.0] * entry.transport.fibre_dim)
    entry.transport.apply(path, 0.0, 1.0, u, step=1e-2)
runs = [
    ["check-laws", "--geometry", "evolution", "--samples", "4"],
    ["roundtrip", "--geometry", "evolution", "--samples", "4", "--points", "2"],
    ["transport", "--geometry", "evolution", "--path", "segment:from=0;to=1", "--vector", "1,0"],
]
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv + ["--out", out]))
print("codes", codes)
print("before", scipy_loaded())

with open(out + "/curve.csv", "w") as f:
    f.write("".join(f"{s / 10},{s / 10},{(s / 10) ** 2}\\n" for s in range(11)))
with open(out + "/grid.csv", "w") as f:
    f.write("-1,0,0,0,-0.5\\n1,0,0,0,0.5\\n")
with open(out + "/grid.spec", "w") as f:
    f.write(f"kind = grid\\nlabel = g\\nbase_dim = 1\\nfibre_dim = 1\\ngrid_file = {out}/grid.csv\\n")
later = [
    ["transport", "--geometry", "flat", "--path", f"samples:file={out}/curve.csv", "--vector", "1,2"],
    ["transport", "--geometry-file", f"{out}/grid.spec", "--path", "segment:from=-0.5;to=0.5", "--vector", "1"],
]
codes = []
for argv in later:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv + ["--out", out]))
print("later_codes", codes)
print("after", scipy_loaded())
"""


@pytest.fixture(scope="module")
def child(tmp_path_factory):
    out = tmp_path_factory.mktemp("startup")
    done = subprocess.run([sys.executable, "-c", CHILD, str(SRC), str(out)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return dict(line.split(" ", 1) for line in done.stdout.splitlines())


def test_catalog_and_evolution_subcommands_load_no_scipy(child):
    # check-laws on evolution exits 1 by design; roundtrip and transport pass.
    assert child["codes"] == "[1, 0, 0]"
    assert child["before"] == "[]"


def test_spline_paths_and_grid_geometries_load_scipy_on_first_use(child):
    assert child["later_codes"] == "[0, 0]"
    assert "'scipy.interpolate'" in child["after"]
