"""Spans around pathtransport's public functions, installed from outside.

``Tracer.installed()`` replaces every module binding of each listed function
(and the ``apply``/``matrix`` methods of the transport classes) with a
wrapper that records a span: name, start, end and parent span.  Spans of one
job are kept in memory; at the end of the job they are reduced to per-name
self times, and the raw spans are kept for writing out when the run ends.

A span's *self* time is its duration minus the durations of its child spans,
so self times of all spans in a job add up to the time covered by its root
spans.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter

import numpy as np

# (module, attribute, span name).  The module is where the function is
# defined; every pathtransport module that binds the same object is patched.
FUNCTIONS = [
    ("engine", "_rk4_transitions", "engine.rk4"),
    ("engine", "_ordered_product", "engine.product"),
    ("engine", "transport_matrix_over_path", "engine.integrate"),
    ("engine", "integrate_transport_matrix", "engine.integrate"),
    ("engine", "coefficients_from_transport", "engine.fd_coeffs"),
    ("engine", "factorization_test", "engine.factorization"),
    ("engine", "connection_from_transport", "engine.factorization"),
    ("bundles", "coeffs3_batch", "bundles.coeffs3"),
    ("bundles", "coeffs3_at", "bundles.coeffs3"),
    ("paths", "position_at", "paths.position"),
    ("paths", "velocity_at", "paths.velocity"),
    *(
        ("paths", name, "paths.build")
        for name in (
            "reparametrize",
            "restrict",
            "invert_canonical",
            "product_canonical",
            "great_circle",
            "latitude",
            "line_through",
            "constant_path",
            "point_path",
        )
    ),
    ("laws", "random_paths", "paths.build"),
    ("laws", "check_groupoid_laws", "laws.groupoid"),
    ("laws", "check_parametrization_laws", "laws.parametrization"),
    ("laws", "check_parallel_axioms", "laws.parallel"),
    ("laws", "check_smoothness_conditions", "laws.smoothness"),
    ("laws", "check_linearity", "laws.linearity"),
    ("catalog", "standard_catalog", "catalog.build"),
    ("catalog", "get_entry", "catalog.build"),
    ("catalog", "expm", "catalog.expm"),
    ("holonomy", "holonomy", "holonomy"),
    ("cli", "main", "cli.main"),
]

# (module, class, method, span name)
METHODS = [
    ("transports", "TransportAlongPaths", "apply", "transports.apply"),
    ("transports", "ParallelTransport", "apply", "transports.apply"),
    ("transports", "TransportAlongPaths", "matrix", "transports.matrix"),
    ("transports", "ParallelTransport", "matrix", "transports.matrix"),
]

LAW_SUITES = ("laws.groupoid", "laws.parametrization", "laws.parallel", "laws.smoothness", "laws.linearity")

# Span names reported as calls per job, and as self seconds per job.
CALLS = (
    "engine.rk4",
    "engine.field",
    "engine.fd_coeffs",
    "engine.factorization",
    "bundles.coeffs3",
    "transports.apply",
    "transports.matrix",
    "paths.position",
    "paths.velocity",
    "paths.build",
    "catalog.expm",
    "holonomy",
)
SELF = CALLS + ("engine.product", "engine.integrate", "catalog.build", "cli.main")

# Counters recorded at span boundaries, reported per job.
COUNTS = {
    "engine.rk4.steps": "count/job",
    "engine.rk4.flops_computed": "flop/job",
    "engine.rk4.bytes_computed": "B/job",
    "bundles.coeffs3.points": "count/job",
    "paths.position.points": "count/job",
    "paths.position.scalar_calls": "count/job",
    "paths.velocity.points": "count/job",
    "cli.report.bytes": "B/job",
}


def kernel_flops(r: int, steps: int) -> int:
    """Floating-point operations of ``_rk4_transitions`` over ``steps`` steps
    plus their ``_ordered_product``, counted from its array expressions:
    three r x r matmuls (2r^3 - r^2 each) and 16 elementwise r x r operations
    per step, then steps - 1 matmuls for the product."""
    return steps * (6 * r**3 + 13 * r**2) + max(steps - 1, 0) * (2 * r**3 - r**2)


def kernel_bytes(r: int, steps: int) -> int:
    """Bytes the same expressions read and write, one pass per operand and
    result, float64; cache reuse is ignored, so this is a computed figure."""
    transitions = 8 * 44 * steps * r * r + 10 * (2 * steps + 1) * r * r
    product = 8 * 3 * max(steps - 1, 0) * r * r
    return transitions + product


def _count(name, args, result, counts):
    """Work counters recorded at the same boundaries as the spans."""
    if name == "engine.rk4":
        r, steps = result.shape[-1], int(args[3])
        counts["engine.rk4.steps"] += steps
        counts["engine.rk4.flops_computed"] += kernel_flops(r, steps)
        counts["engine.rk4.bytes_computed"] += kernel_bytes(r, steps)
    elif name == "bundles.coeffs3":
        counts["bundles.coeffs3.points"] += 1 if result.ndim == 3 else result.shape[0]
    else:
        params = np.asarray(args[1])
        counts[f"{name}.points"] += params.size
        if name == "paths.position" and params.ndim == 0:
            counts["paths.position.scalar_calls"] += 1


class Tracer:
    """Span recorder for one process; install it around the jobs to trace."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.job_spans: list[np.ndarray] = []
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.jobs = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        clock = time.perf_counter
        counts = self.counts
        counted = name in ("engine.rk4", "bundles.coeffs3", "paths.position", "paths.velocity")

        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent)
            if counted:
                _count(name, args, result, counts)
            return result

        return wrapper

    def _field_factory(self, factory):
        def wrapped(*args, **kwargs):
            return self._wrap("engine.field", factory(*args, **kwargs))

        return wrapped

    def _report_writer(self, write):
        counts = self.counts

        def wrapped(outdir, name, text):
            counts["cli.report.bytes"] += len(text.encode())
            return write(outdir, name, text)

        return wrapped

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding for the duration of the block, then restore."""
        def module(name):
            return importlib.import_module(f"pathtransport.{name}")

        owners = {name for name, _, _ in FUNCTIONS} | {name for name, _, _, _ in METHODS} | {"cli"}
        modules = [importlib.import_module("pathtransport")] + [module(name) for name in sorted(owners)]
        patches = []

        def patch_everywhere(original, replacement, attr):
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

        for modname, attr, name in FUNCTIONS:
            original = getattr(module(modname), attr)
            patch_everywhere(original, self._wrap(name, original), attr)
        engine = module("engine")
        patch_everywhere(engine.path_coefficient_field, self._field_factory(engine.path_coefficient_field), "path_coefficient_field")
        cli = module("cli")
        patch_everywhere(cli._write, self._report_writer(cli._write), "_write")
        for modname, clsname, attr, name in METHODS:
            cls = getattr(module(modname), clsname)
            original = cls.__dict__[attr]
            patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def begin_job(self):
        self.spans = []
        self.stack = [-1]

    def end_job(self, job_id: int) -> float:
        """Reduce the job's spans to per-name totals; return the sum of self times."""
        spans = self.spans
        self.spans = []
        self.jobs += 1
        if not spans:
            return 0.0
        arr = np.array(spans, dtype=float)
        name = arr[:, 0].astype(int)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(int)
        child = np.zeros(len(arr))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_t = dur - child
        for nid, s, d, c in zip(
            range(len(self.names)),
            np.bincount(name, weights=self_t, minlength=len(self.names)),
            np.bincount(name, weights=dur, minlength=len(self.names)),
            np.bincount(name, minlength=len(self.names)),
        ):
            if c:
                key = self.names[nid]
                self.self_s[key] += s
                self.total_s[key] += d
                self.calls[key] += int(c)
        self.job_spans.append(np.column_stack([arr, np.full(len(arr), job_id)]))
        return float(self_t.sum())

    def save(self, path):
        """Write every recorded span (name id, start, end, parent, job) and the name table."""
        spans = np.concatenate(self.job_spans) if self.job_spans else np.zeros((0, 5))
        np.savez(path, spans=spans, names=np.array(self.names))

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each a mean per traced job."""
        n = max(self.jobs, 1)
        out = {f"{name}.calls": (self.calls[name] / n, "count/job") for name in CALLS}
        out.update({f"{name}.self_s": (self.self_s[name] / n, "s/job") for name in SELF})
        out.update({f"{name}.total_s": (self.total_s[name] / n, "s/job") for name in LAW_SUITES})
        out.update({name: (self.counts[name] / n, unit) for name, unit in COUNTS.items()})
        steps, integrations = self.counts["engine.rk4.steps"], self.calls["engine.integrate"]
        out["engine.integrations"] = (integrations / n, "count/job")
        out["engine.steps_per_integration"] = (steps / integrations if integrations else 0.0, "steps")
        out["engine.rk4.ns_per_step"] = (1e9 * self.self_s["engine.rk4"] / steps if steps else 0.0, "ns/step")
        out["laws.check.calls"] = (sum(self.calls[k] for k in LAW_SUITES) / n, "count/job")
        out["laws.check.self_s"] = (sum(self.self_s[k] for k in LAW_SUITES) / n, "s/job")
        return out
