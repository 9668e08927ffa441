"""Start-up probe for a fresh interpreter; prints the wall seconds it took and
the same time in reference seconds, separated by a space.

    python3 benchmarks/probe.py import   # a bare `import pathtransport`
    python3 benchmarks/probe.py setup    # import, standard_catalog() and one
                                         # short transport per catalog entry

The setup probe includes each entry's first call, so work moved from import
into a lazy first call still shows.  Nothing is imported before the clock
starts: numpy's import is part of the cost a user pays.  The reference time
is the wall time rescaled by a calibration taken right after it (see
``calibrate.py``).
"""

import sys
import time
from pathlib import Path

mode = sys.argv[1:]
if mode not in (["import"], ["setup"]):
    raise SystemExit("usage: probe.py import|setup")
start = time.perf_counter()
src = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(src))
import pathtransport as pt  # noqa: E402

if Path(pt.__file__).resolve().parent != src / "pathtransport":
    raise SystemExit(f"error: imported pathtransport from {pt.__file__}")
if mode == ["setup"]:
    for entry in pt.standard_catalog().values():
        box = [(lo + 0.2 * (hi - lo), hi - 0.4 * (hi - lo)) for lo, hi in entry.chart_box]
        path = pt.segment([a for a, _ in box], [b for _, b in box])
        u = pt.FibreVector(path.at(0.0), [1.0] * entry.transport.fibre_dim)
        entry.transport.apply(path, 0.0, 1.0, u, step=1e-2)
elapsed = time.perf_counter() - start
sys.path.insert(0, str(Path(__file__).resolve().parent))
from calibrate import calibration_s, to_reference  # noqa: E402

print(repr(elapsed), repr(to_reference(elapsed, calibration_s())))
