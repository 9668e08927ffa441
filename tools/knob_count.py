"""Optional parameters of pathtransport's exported callables, and their total.

    python3 tools/knob_count.py --src DIR

``DIR`` is a source directory holding the ``pathtransport`` package (for
example ``src`` of a checkout).  For every public callable in
``dir(pathtransport)`` (functions and classes, by ``inspect.signature``) the
script prints one line ``<name> <count> <param>,<param>,...`` listing the
parameters that have a default, sorted by name, then ``total <count>``.  A
diff of two listings shows which settings a change added or removed.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path


def load_package(src: Path):
    """Import pathtransport from ``src`` and nowhere else."""
    sys.path.insert(0, str(src))
    import pathtransport

    if Path(pathtransport.__file__).resolve().parent != (src / "pathtransport").resolve():
        raise SystemExit(f"error: imported pathtransport from {pathtransport.__file__}, not {src}")
    return pathtransport


def optional_parameters(package) -> dict[str, list[str]]:
    """Names of the parameters with a default, per exported callable."""
    out = {}
    for name in sorted(dir(package)):
        obj = getattr(package, name)
        if name.startswith("_") or inspect.ismodule(obj) or not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters.values()
        except (TypeError, ValueError):
            continue
        out[name] = [p.name for p in params if p.default is not inspect.Parameter.empty]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    args = parser.parse_args(argv)
    knobs = optional_parameters(load_package(args.src))
    for name, params in knobs.items():
        print(f"{name} {len(params)} {','.join(params)}".rstrip())
    print(f"total {sum(len(p) for p in knobs.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
