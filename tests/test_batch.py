"""Batched transports: many requests in one pass, each equal to its one-request result."""

import dataclasses
import warnings

import numpy as np
import pytest

import pathtransport as pt
from pathtransport import engine
from pathtransport.errors import (
    ChartDomainError,
    IntervalError,
    InverseUnavailableError,
    NonInvertibleError,
    SingularCoefficientError,
    SpecFormatError,
)
from pathtransport.laws import merge_reports

CHUNK = engine._CHUNK_STEPS
BOX = ((0.6, 2.4), (-1.0, 1.0))


def smooth_geometry(r, seed=11):
    """Smooth random r x r coefficients on the plane, of order one."""
    rng = np.random.default_rng(seed)
    a, b, c = 0.5 * rng.standard_normal((3, r, r, 2))

    def coeffs(x):
        x = np.asarray(x, dtype=float)
        pts = np.atleast_2d(x)
        out = a + b * np.sin(pts[:, 0, None, None, None]) + c * np.cos(2 * pts[:, 1, None, None, None])
        return out[0] if x.ndim == 1 else out

    return pt.BundleGeometry(base_dim=2, fibre_dim=r, coeffs3=coeffs, label=f"smooth{r}")


def mixed_requests(seed=5):
    """Forward, backward and s == t requests, a product path across its
    breakpoint, and one-step probes, all inside BOX."""
    rng = np.random.default_rng(seed)
    paths = pt.random_paths(rng, 3, dim=2, box=BOX)
    bridge = pt.segment(paths[0].at(1.0), [1.0, -0.5])
    prod = pt.product_canonical(paths[0], bridge)
    probes = [pt.line_through([1.2, 0.3], v, 0.1) for v in rng.standard_normal((6, 2))]
    requests = [
        (paths[1], 0.1, 0.9),
        (paths[2], 0.8, 0.15),
        (paths[1], 0.4, 0.4),
        (prod, 0.1, 0.95),
        (prod, 1.0, 0.0),
        (paths[2], 0.3, 0.30001),
    ]
    return requests + [(p, 0.0, h) for p in probes for h in (1e-4, -1e-4)]


@pytest.mark.parametrize("geometry", ["sphere", "smooth3"])
@pytest.mark.parametrize("step", [None, 1e-3, 2e-4, 0.5])
def test_batched_matrices_equal_one_at_a_time_bit_for_bit(geometry, step):
    geo = pt.get_entry("sphere").geometry if geometry == "sphere" else smooth_geometry(3)
    requests = mixed_requests()
    batch = pt.transport_matrices(geo, requests, step=step)
    assert len(batch) == len(requests)
    for (path, s, t), got in zip(requests, batch):
        alone = pt.transport_matrix_over_path(geo, path, s, t, step=step)
        assert np.array_equal(got.value, alone.value), (s, t)
        assert (got.s, got.t, got.step, got.path_id) == (alone.s, alone.t, alone.step, alone.path_id)


def test_a_request_over_many_passes_equals_its_one_request_result():
    geo = pt.get_entry("sphere").geometry
    requests = mixed_requests()
    long = (requests[0][0], 0.0, 1.0)
    step = 1.0 / (2 * CHUNK + 300)
    batch = pt.transport_matrices(geo, requests[5:] + [long] + requests[:5], step=step)
    alone = pt.transport_matrix_over_path(geo, *long, step=step)
    assert np.array_equal(batch[len(requests) - 5].value, alone.value)


def test_passes_hold_at_most_chunk_steps_and_never_split_a_chunk(monkeypatch):
    geo = pt.get_entry("sphere").geometry
    passes = []
    original = engine._pass

    def recorder(chunks, sample, **kwargs):
        passes.append([n for _, _, _, n, _, _ in chunks])
        return original(chunks, sample, **kwargs)

    monkeypatch.setattr(engine, "_pass", recorder)
    requests = mixed_requests()
    pt.transport_matrices(geo, requests + [(requests[0][0], 0.0, 1.0)], step=1.0 / (CHUNK + 700))
    assert len(passes) > 1
    assert all(sum(p) <= CHUNK and sum(2 * n + 1 for n in p) <= 2 * CHUNK + 1 for p in passes)
    assert max(n for p in passes for n in p) == CHUNK


def test_duplicate_requests_integrate_once(monkeypatch):
    geo = pt.get_entry("sphere").geometry
    path = mixed_requests()[0][0]
    steps = []
    original = engine._rk4_transitions

    def counting(g, h, lengths, n_steps, **kwargs):
        steps.append(n_steps)
        return original(g, h, lengths, n_steps, **kwargs)

    monkeypatch.setattr(engine, "_rk4_transitions", counting)
    single = pt.transport_matrix_over_path(geo, path, 0.2, 0.7, step=1e-3)
    one = sum(steps)
    steps.clear()
    batch = pt.transport_matrices(geo, [(path, 0.2, 0.7)] * 30, step=1e-3)
    assert sum(steps) == one == 500
    assert all(np.array_equal(m.value, single.value) for m in batch)
    # The same parameters on another path object are another request.
    steps.clear()
    pt.transport_matrices(geo, [(path, 0.2, 0.7), (dataclasses.replace(path), 0.2, 0.7)], step=1e-3)
    assert sum(steps) == 2 * one


def test_a_request_leaving_the_chart_raises_naming_its_path(sphere_entry):
    good = mixed_requests()[:4]
    runaway = dataclasses.replace(pt.segment([0.2, 0.0], [-0.5, 0.0]), label="runaway")
    with pytest.raises(ChartDomainError, match="path runaway leaves the chart"):
        pt.transport_matrices(sphere_entry.geometry, good + [(runaway, 0.0, 1.0)] + good, step=1e-2)


def steady_and_varying_requests(seed=7):
    """Requests over paths that state a constant field on the sphere
    (latitude arcs both ways, a segment at fixed theta, a stationary path,
    probes along e_phi) and over paths that do not (Bezier curves, a
    segment across latitudes), all inside BOX."""
    lat = pt.latitude(1.1)
    probes = [pt.line_through([1.3, 0.2], [0.0, 1.0]), pt.line_through([0.9, -0.4], [0.0, -2.0])]
    bezier = pt.random_paths(np.random.default_rng(seed), 2, dim=2, box=BOX)
    return [
        (lat, 0.0, 2.0),
        (bezier[0], 0.1, 0.6),
        (lat, 2.5, 0.4),
        (pt.segment([1.2, -0.5], [1.2, 0.7]), 0.2, 0.9),
        (pt.constant_path([0.9, 0.3]), 0.8, 0.1),
        (pt.segment([0.8, 0.0], [1.6, 0.5]), 0.0, 0.7),
        *((p, 0.0, h) for p in probes for h in (1e-4, -1e-4)),
        (pt.latitude(2.0), 1.0, 0.0),
        (bezier[1], 0.9, 0.3),
    ]


@pytest.mark.parametrize("entry_id", ["flat", "sphere", "sphere-orthonormal"])
@pytest.mark.parametrize("step", [1e-2, 1e-5])
def test_steady_and_varying_requests_in_one_call_equal_each_alone(entry_id, step, catalog):
    geo = catalog[entry_id].geometry
    plain = dataclasses.replace(geo, reads=None)
    requests = steady_and_varying_requests()
    # The call mixes chunks over steady sources with chunks over varying ones.
    steady = {engine._piece_jet(path, None, geo.reads).steady for path, *_ in requests}
    assert steady == {True, False}
    batch = pt.transport_matrices(geo, requests, step=step)
    everywhere = pt.transport_matrices(plain, requests, step=step)
    for (path, s, t), got, full in zip(requests, batch, everywhere):
        alone = pt.transport_matrix_over_path(geo, path, s, t, step=step)
        assert got.value.tobytes() == alone.value.tobytes(), (path.label, s, t)
        assert got.value.tobytes() == full.value.tobytes(), (path.label, s, t)
        assert (got.step, got.path_id) == (alone.step, alone.path_id)


def test_a_steady_request_leaving_the_chart_raises_naming_its_path(sphere_entry):
    # Both latitudes are steady, so their chunks are sampled together, one
    # node each; the chart ends between their colatitudes.
    geo = dataclasses.replace(sphere_entry.geometry, chart_domain=lambda x: bool((np.asarray(x)[..., 0] < 1.5).all()))
    inside, outside = pt.latitude(1.1), pt.latitude(1.9)
    requests = [(inside, 0.0, 2.0), (outside, 2.0, 0.5)]
    assert all(engine._piece_jet(path, None, geo.reads).steady for path, *_ in requests)
    with pytest.raises(ChartDomainError, match=r"path latitude\(1\.9\) leaves the chart"):
        pt.transport_matrices(geo, requests, step=1e-3)


def test_a_bad_interval_in_a_batch_raises(sphere_entry):
    requests = mixed_requests()
    with pytest.raises(IntervalError):
        pt.transport_matrices(sphere_entry.geometry, requests + [(requests[0][0], 0.2, 1.5)])
    with pytest.raises(IntervalError):
        pt.transport_matrices(sphere_entry.geometry, requests, step=float("nan"))


def test_segmented_product_equals_each_segment_alone():
    rng = np.random.default_rng(2)
    for lengths in ([1, 1, 1], [2048], [5, 1, 8, 3], [313] * 6, list(rng.integers(1, 300, size=9)), [1, 7] * 40):
        mats = np.eye(2)[:, :, None] + 0.1 * rng.standard_normal((2, 2, sum(lengths)))
        got = engine._ordered_product(mats, lengths)
        start = 0
        for c, n in enumerate(lengths):
            alone = engine._ordered_product(mats[..., start : start + n], [n])[..., 0]
            assert np.array_equal(got[..., c], alone), (lengths, c)
            start += n


def apply_requests(entry, seed=3, count=12, forward_only=False):
    transport = entry.transport
    rng = np.random.default_rng(seed)
    requests = []
    for path in pt.sample_paths(entry, rng, count):
        s, t = rng.uniform(0.0, 1.0, size=2)
        if forward_only and t < s:
            s, t = t, s
        requests.append((path, s, t, pt.FibreVector(path.at(s), 0.3 * rng.standard_normal(transport.fibre_dim))))
    requests.append((requests[0][0], requests[0][1], requests[0][1], requests[0][3]))
    return requests


def assert_same_vectors(many, loop):
    assert len(many) == len(loop)
    for a, b in zip(many, loop):
        assert np.array_equal(a.components, b.components)
        assert np.array_equal(a.base_point, b.base_point)


@pytest.mark.parametrize("entry", ["nonlinear", "sphere", "evolution"])
def test_apply_many_equals_the_loop_over_apply(catalog, entry):
    transport = catalog[entry].transport
    requests = apply_requests(catalog[entry])
    assert_same_vectors(
        transport.apply_many(requests, step=1e-3), [transport.apply(*req, step=1e-3) for req in requests]
    )


@pytest.mark.parametrize("entry", ["nonlinear", "sphere"])
def test_apply_many_through_a_parallel_transport_equals_the_loop(catalog, entry):
    transport = catalog[entry].transport
    back = pt.transport_from_parallel(pt.parallel_from_transport(transport))
    requests = apply_requests(catalog[entry], forward_only=not transport.is_linear)
    assert_same_vectors(back.apply_many(requests, step=1e-3), [back.apply(*req, step=1e-3) for req in requests])
    if transport.is_linear:
        many = back.matrices([req[:3] for req in requests])
        assert all(np.array_equal(m.value, back.matrix(*req[:3]).value) for m, req in zip(many, requests))


def test_positions_at_batches_per_evaluator_and_equals_position_at():
    rng = np.random.default_rng(8)
    calls = []

    def counted(path):
        return dataclasses.replace(path, position=lambda s, f=path.position: calls.append(np.ndim(s)) or f(s))

    bezier, other = (counted(p) for p in pt.random_paths(rng, 2, dim=2, box=BOX))
    prod = pt.product_canonical(bezier, counted(pt.segment(bezier.at(1.0), [1.0, -0.5])))
    lat = counted(pt.latitude(1.2))
    calls.clear()
    pairs = [(bezier, 0.3), (pt.restrict(bezier, (0.2, 0.8)), 0.7), (prod, 0.5), (lat, 5.0), (bezier, 1.0)]
    pairs += [(prod, 0.9), (pt.restrict(lat, (1.0, 2.0)), 1.5), (other, 0.0)]
    got = pt.paths.positions_at(pairs)
    # One batched call per shared evaluator: the product's junction parameter
    # joins the Bezier's batch; a scalar call for the segment half and ``other``.
    assert calls == [1, 1, 0, 0]
    calls.clear()
    assert all(np.array_equal(x, pt.paths.position_at(path, s)) for x, (path, s) in zip(got, pairs))


def test_positions_at_reaches_every_composed_path_through_one_bezier_call():
    # Restrictions, the four default reparametrizations, the canonical
    # inverse and product halves of one Bezier all end on its evaluator:
    # one batched call, each point equal to ``position_at`` byte for byte,
    # also on the junctions.
    calls = []
    base = pt.random_paths(np.random.default_rng(21), 1, dim=2, box=BOX)[0]
    bezier = dataclasses.replace(base, position=lambda s: calls.append(np.ndim(s)) or base.position(s))
    left, right = pt.split_canonical(bezier)
    inverse = pt.invert_canonical(bezier)
    halves = pt.product_canonical(left, right)
    there_and_back = pt.product_canonical(pt.product_canonical(left, right), inverse)
    pairs = [(pt.restrict(bezier, (0.2, 0.7)), s) for s in (0.2, 0.45, 0.7)]
    pairs += [(pt.restrict(halves, (0.25, 0.9)), s) for s in (0.25, 0.5, 0.9)]
    for chi in pt.laws.default_reparams(bezier.domain):
        composed = pt.reparametrize(bezier, chi)
        pairs += [(composed, s) for s in (*chi.source, 0.5 * sum(chi.source))]
    pairs += [(inverse, s) for s in (0.0, 0.3, 1.0)]
    pairs += [(halves, s) for s in (0.0, 0.25, 0.5, 0.5000000001, 1.0)]
    pairs += [(there_and_back, s) for s in (0.25, 0.5, 0.6, 0.75, 1.0)] + [(left, 1.0), (right, 0.0)]
    calls.clear()  # the products' junction checks
    got = pt.paths.positions_at(pairs)
    assert calls == [1]
    for x, (path, s) in zip(got, pairs):
        assert x.tobytes() == pt.paths.position_at(path, s).tobytes()


def test_check_laws_on_flat_makes_few_bezier_position_calls(tmp_path, monkeypatch):
    # Each law fixture places its fibre vectors in one positions_at call,
    # and each apply batch places its starts and ends in one: 1207 calls
    # (991 of them scalar) when every vector was placed on its own.
    from pathtransport.cli import main

    calls, bezier = [], pt.laws._bezier_path

    def counted(*args, **kwargs):
        path = bezier(*args, **kwargs)
        return dataclasses.replace(path, position=lambda s, f=path.position: calls.append(np.ndim(s)) or f(s))

    monkeypatch.setattr(pt.laws, "_bezier_path", counted)
    assert main(["check-laws", "--geometry", "flat", "--seed", "4", "--out", str(tmp_path)]) == 0
    assert (len(calls), calls.count(0)) == (286, 75)


def batch_requests(entry, count=5):
    """Forward and backward requests on sampled paths, each vector attached to its start."""
    rng = np.random.default_rng(31)
    paths = pt.sample_paths(entry, rng, count)
    requests = []
    for path, (s, t) in zip(paths, rng.uniform(0.0, 1.0, size=(count, 2))):
        requests.append((path, s, t, pt.FibreVector(path.at(s), rng.standard_normal(entry.transport.fibre_dim))))
    return requests


def test_apply_many_places_and_checks_a_batch_at_once(catalog, monkeypatch):
    # One positions_at call for the starts and ends, one attachment check and
    # no vector built one by one.
    from pathtransport import transports

    transport = catalog["sphere"].transport
    requests = batch_requests(catalog["sphere"])
    expected = transport.apply_many(requests, step=1e-2)
    seen = {"positions_at": [], "require_attached": [], "__post_init__": []}
    patched = ((transports, "positions_at"), (transports, "require_attached"), (pt.FibreVector, "__post_init__"))
    for module, name in patched:
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _f=original, _n=name: seen[_n].append(args) or _f(*args))
    got = transport.apply_many(requests, step=1e-2)
    assert [len(args[0]) for args in seen["positions_at"]] == [2 * len(requests)]
    assert len(seen["require_attached"]) == 1 and seen["__post_init__"] == []
    assert_same_vectors(got, expected)
    assert all(not (u.base_point.flags.writeable or u.components.flags.writeable) for u in got)


def error_of(call):
    with pytest.raises(ChartDomainError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("entry", ["flat", "nonlinear"])
@pytest.mark.parametrize("k", [0, 3])
def test_a_batch_raises_the_error_of_its_first_detached_or_misshapen_request(catalog, entry, k):
    transport = catalog[entry].transport
    requests = batch_requests(catalog[entry])
    path, s, t, u = requests[k]
    detached = pt.FibreVector(u.base_point + 1e-6, u.components)
    misshapen = pt.FibreVector(u.base_point, np.append(u.components, 1.0))
    later = pt.FibreVector(requests[4][3].base_point - 1e-6, requests[4][3].components)
    for bad in (detached, misshapen):
        batch = requests[:k] + [(path, s, t, bad)] + requests[k + 1 : 4] + [(*requests[4][:3], later)]
        message = error_of(lambda: transport.apply_many(batch))
        assert message == error_of(lambda: transport.apply(path, s, t, bad))
        assert message.startswith("fibre vector at" if bad is detached else "components of shape (3,)")


@pytest.mark.filterwarnings("ignore:invalid value encountered in det:RuntimeWarning")
@pytest.mark.parametrize("k", [0, 3])
def test_a_batch_raises_the_error_of_its_first_non_finite_result(catalog, k):
    flat = catalog["flat"].transport
    requests = batch_requests(catalog["flat"])
    blown = {k: np.array([[np.inf, 0.0], [0.0, 1.0]]), 4: np.array([[1.0, 0.0], [0.0, np.nan]])}

    def matrices_fn(batch, step):
        mats = flat.matrices(batch, step=step)
        return [pt.TransportMatrix(blown.get(i, m.value)) for i, m in enumerate(mats)]

    transport = pt.TransportAlongPaths(kind="linear-custom", base_dim=2, fibre_dim=2, matrices_fn=matrices_fn)
    message = error_of(lambda: transport.apply_many(requests))
    path, s, t, u = requests[k]
    x_t, comps = path.at(t), blown[k] @ u.components
    assert message == error_of(lambda: pt.FibreVector(x_t, comps))
    assert message.startswith("components [inf, ") or message.startswith("components [-inf, ")


def test_probe_and_backward_inverses_take_one_stacked_call(sphere_entry, monkeypatch):
    inverses, inv = [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(np.shape(a)) or inv(a))
    # Two coordinate probes, 8 drawn velocities and the zero velocity, each at +-FD_STEP.
    assert pt.factorization_test(sphere_entry.transport, [1.1, 0.3], step=1e-3).factorizable
    assert inverses == [(2, 11, 2, 2)]
    inverses.clear()
    psi = pt.parallel_from_transport(sphere_entry.transport, step=1e-2)
    back = pt.transport_from_parallel(psi)
    path = pt.sample_paths(sphere_entry, np.random.default_rng(3), 1)[0]
    requests = [(path, 0.9, 0.1), (path, 0.2, 0.6), (path, 0.5, 0.5), (path, 0.7, 0.3)]
    got = back.matrices(requests)
    assert inverses == [(2, 2, 2)]
    for m, (_, s, t) in zip(got, requests):
        lo, hi = sorted((s, t))
        value = psi.matrix(pt.restrict(path, (lo, hi))).value if s != t else np.eye(2)
        assert m.value.tobytes() == (inv(value) if s > t else value).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("fill", [0.0, np.nan])
def test_stacked_inverses_keep_their_errors(fill):
    def matrices_fn(requests, step):
        return [pt.TransportMatrix(np.full((2, 2), fill)) for _ in requests]

    broken = pt.TransportAlongPaths(kind="linear-custom", base_dim=2, fibre_dim=2, matrices_fn=matrices_fn)
    if fill == 0.0:
        with pytest.raises(NonInvertibleError, match=r"^transport matrix near s=0.0 is not invertible$"):
            pt.factorization_test(broken, [0.0, 0.0])
        back = pt.transport_from_parallel(pt.parallel_from_transport(broken))
        with pytest.raises(InverseUnavailableError, match="^parallel transport matrix is singular$"):
            back.matrices([(pt.segment([0.0, 0.0], [1.0, 0.0]), 0.8, 0.2)])
    else:
        with pytest.raises(SingularCoefficientError, match=r"^non-finite transport coefficients at s=0.0$"):
            pt.factorization_test(broken, [0.0, 0.0])


def test_transport_laws_over_paths_equal_the_merged_per_path_checks(sphere_entry):
    transport = sphere_entry.transport
    paths = pt.sample_paths(sphere_entry, np.random.default_rng(8), 6)
    together = pt.check_transport_laws(transport, paths, seed=8, tolerance=1e-6, step=1e-3)
    groupoid = [
        pt.check_groupoid_laws(transport, p, samples=1, seed=8 + i, tolerance=1e-6, step=1e-3)
        for i, p in enumerate(paths)
    ]
    parametrization = [
        pt.check_parametrization_laws(transport, p, pairs_per_fixture=1, seed=8 + i, tolerance=1e-6, step=1e-3)
        for i, p in enumerate(paths)
    ]
    assert together == [merge_reports("groupoid", groupoid), merge_reports("parametrization", parametrization)]


def test_recovered_coefficients_batch_equals_each_point(ortho_entry):
    pts = [np.array([1.1, 0.2]), np.array([1.6, -0.4]), np.array([0.9, 0.7])]
    recovered = pt.connection_from_transport(ortho_entry.transport, pts[:2], step=1e-3)
    stacked = recovered.coeffs3(np.stack(pts))
    assert all(np.array_equal(stacked[i], recovered.coeffs3(x)) for i, x in enumerate(pts))
    verdict = pt.factorization_test(ortho_entry.transport, pts[2], step=1e-3)
    assert verdict.factorizable and verdict.residual < 1e-6


def test_a_non_finite_step_is_an_interval_error():
    with pytest.raises(IntervalError):
        engine._step_count(1.0, float("nan"))
    with pytest.raises(IntervalError):
        engine._step_count(1.0, float("inf"))


NON_FINITE_BUILDS = {
    "segment-start": lambda: pt.segment([np.nan, 0.0], [1.0, 1.0]),
    "segment-end": lambda: pt.segment([0.0, 0.0], [1.0, np.inf]),
    "segment-domain": lambda: pt.segment([0.0, 0.0], [1.0, 1.0], domain=(0.0, np.nan)),
    "line-point": lambda: pt.line_through([0.0, np.nan], [1.0, 0.0]),
    "line-direction": lambda: pt.line_through([0.0, 0.0], [np.nan, 0.0]),
    "line-width": lambda: pt.line_through([0.0, 0.0], [1.0, 0.0], np.inf),
    "constant-point": lambda: pt.constant_path([np.inf, 0.0]),
    "constant-domain": lambda: pt.constant_path([0.0, 0.0], (np.nan, 1.0)),
    "point-parameter": lambda: pt.point_path(np.nan, [0.0, 0.0]),
    "point-point": lambda: pt.point_path(0.5, [0.0, -np.inf]),
    "great-circle-point": lambda: pt.great_circle((np.nan, 0.0), (0.1, 0.2)),
    "great-circle-direction": lambda: pt.great_circle((1.0, 0.0), (0.1, np.nan)),
    "great-circle-length": lambda: pt.great_circle((1.0, 0.0), (0.1, 0.2), np.inf),
    "great-circle-anchor": lambda: pt.great_circle((1.0, 0.0), (0.1, 0.2), domain=(0.0, 1.0), anchor=np.nan),
    "latitude-colatitude": lambda: pt.latitude(np.nan),
    "latitude-turns": lambda: pt.latitude(1.0, turns=np.inf),
    "latitude-phi0": lambda: pt.latitude(1.0, phi0=np.nan),
}


@pytest.mark.parametrize("build", sorted(NON_FINITE_BUILDS))
def test_path_constructors_reject_non_finite_input(build):
    with pytest.raises(SpecFormatError, match="finite"):
        NON_FINITE_BUILDS[build]()


def test_a_batch_is_checked_for_singularity_once(monkeypatch):
    # Gamma along e_0 is the real form of a root of p(x) = 1 - x + x^2/2 -
    # x^3/6 + x^4/24, so one RK4 step of size 1 along e_0 is p(Gamma) = 0:
    # singular.  A request along e_1 meets a zero field and stays the identity.
    root = next(z for z in np.roots([1 / 24, -1 / 6, 1 / 2, -1, 1]) if z.imag > 0)
    gamma = np.zeros((2, 2, 2))
    gamma[..., 0] = [[root.real, -root.imag], [root.imag, root.real]]
    geo = pt.BundleGeometry(
        base_dim=2, fibre_dim=2, coeffs3=lambda x: np.broadcast_to(gamma, np.shape(x)[:-1] + gamma.shape), reads=()
    )
    singular = dataclasses.replace(pt.segment([0.0, 0.0], [1.0, 0.0]), label="singular")
    regular = dataclasses.replace(pt.segment([0.0, 0.0], [0.0, 1.0]), label="regular")
    requests = [(regular, 0.0, 1.0), (singular, 0.0, 1.0), (singular, 0.5, 0.5), (regular, 1.0, 0.0)]
    dets, det = [], np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda a: dets.append(np.shape(a)) or det(a))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mats = pt.transport_matrices(geo, requests, step=1.0)
    assert dets == [(4, 2, 2)]
    assert [str(w.message).split(" (")[0] for w in caught] == ["transport matrix over singular is numerically singular"]
    assert np.max(np.abs(mats[1].value)) < 1e-12
    assert mats[0].value.tobytes() == mats[3].value.tobytes() == np.eye(2).tobytes()
    # A matrix built directly keeps its own check.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pt.TransportMatrix(mats[1].value, path_id="direct")
    assert len(caught) == 1 and "over direct is numerically singular" in str(caught[0].message)
