"""Steady chunks and the geometries' own G·v evaluators.

A geometry that declares the coordinates it reads, over a path that states
them and its velocity constant (``Path.steady``), has a constant field along
each chunk.  ``transport_matrices`` samples every such chunk of a call at its
first node, in one sampler call, and hands the kernel one sample per chunk;
the kernel forms one transition per chunk and reduces its n equal copies by
``engine._uniform_product``.  A geometry that reads no coordinate and whose
``coeffs3`` is zero builds no chunk at all: every matrix is the identity,
whatever the path.  The kernel
tests here compare bit for bit against the general kernel formulas, built
from ``_matmul`` and ``_ordered_product``; the integration tests compare
against the same run on a geometry that declares nothing, where every pass
samples every node.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathtransport as pt
from pathtransport import engine
from pathtransport.bundles import coeffs3_batch
from pathtransport.catalog import standard_catalog
from pathtransport.errors import ChartDomainError, SingularCoefficientError
from pathtransport.paths import SPHERE_POLE_MARGIN


def general_kernel(g, h, n):
    """The kernel's RK4 formulas over the n steps of one chunk, and the
    single-segment ordered product, with no uniform shortcut."""
    eye = np.eye(g.shape[0])[:, :, None]
    ends, mids = g[..., : n + 1], g[..., n + 1 :]
    c1, right = ends[..., :-1], ends[..., 1:]
    c2 = engine._matmul(mids, eye - (h / 2) * c1)
    c3 = engine._matmul(mids, eye - (h / 2) * c2)
    c4 = engine._matmul(right, eye - h * c3)
    steps = eye - (h / 6) * (((2 * c2 + c1) + 2 * c3) + c4)
    return engine._ordered_product(steps, [n]).transpose(2, 0, 1)


def constant_samples(rng, r, n):
    return np.ascontiguousarray(np.repeat(rng.standard_normal((r, r, 1)), 2 * n + 1, axis=2))


@pytest.mark.parametrize("r", [1, 2, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 2047, 2048])
def test_constant_chunk_equals_the_general_kernel(r, n, rng, monkeypatch):
    g, h = constant_samples(rng, r, n), 0.7 / n
    expected = general_kernel(g, h, n)
    taken = []
    reduce = engine._uniform_product
    monkeypatch.setattr(engine, "_uniform_product", lambda t, k: taken.append(k) or reduce(t, k))
    # One sample and one step size for the chunk, as the steady batch hands them.
    got = engine._rk4_transitions(g[..., :1], np.array([h]), np.array([n]), n)
    assert taken == [n]
    assert got.shape == (1, r, r)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7, 31, 33, 1000, 1001])
def test_uniform_product_follows_the_pairwise_tree(n, rng):
    t = np.eye(3)[:, :, None] + 0.01 * rng.standard_normal((3, 3, 1))
    full = np.ascontiguousarray(np.repeat(t, n, axis=2))
    assert np.array_equal(engine._uniform_product(t, n), engine._ordered_product(full, [n]))


@pytest.mark.parametrize("r", [1, 2, 4])
def test_one_call_powers_every_column_to_its_own_count(r, rng):
    columns = [(rng.standard_normal((r, r)), 0.7 / n, n) for n in (1, 2, 3, 5, 1024, 1631, 2047, 2048)]
    signed = rng.standard_normal((r, r))
    signed = signed - signed.T
    np.fill_diagonal(signed, -0.0)
    near = rng.standard_normal((r, r))
    # A backward chunk of a field with -0.0 entries, and two columns one ulp apart.
    columns += [(signed, -1.0 / 1631, 1631), (near, 0.3 / 2047, 2047), (np.nextafter(near, np.inf), 0.3 / 2047, 2047)]
    # One huge step: its transition is finite, but squaring it overflows.
    columns += [(np.full((r, r), 1e40), 1.0, 1)]
    g = np.stack([col for col, _, _ in columns], axis=2)
    h, n = np.array([step for _, step, _ in columns]), np.array([count for *_, count in columns])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = engine._rk4_transitions(g, h, n, int(n.sum()))
        for c, count in enumerate(n.tolist()):
            alone = engine._rk4_transitions(g[..., [c]], h[[c]], n[[c]], count)[0]
            (t,) = engine._rk4_transitions(g[..., [c]], h[[c]], np.array([1]), 1)
            copies = np.ascontiguousarray(np.repeat(t[:, :, None], count, axis=2))
            assert got[c].tobytes() == alone.tobytes() == engine._ordered_product(copies, [count])[..., 0].tobytes()
    huge = got[-1][:, :, None]
    assert np.isfinite(huge).all() and not np.isfinite(engine._matmul(huge, huge)).all()


def test_varying_field_takes_the_general_path(rng, monkeypatch):
    n, h = 64, 0.01
    g = constant_samples(rng, 2, n)
    g[1, 0, -1] += 1e-12  # one midpoint differs
    monkeypatch.setattr(engine, "_uniform_product", lambda *a: pytest.fail("took the uniform branch"))
    got = engine._rk4_transitions(g, h, np.array([n]), n)
    assert np.array_equal(got, general_kernel(g, h, n))


def test_constant_field_in_a_packed_pass_takes_the_general_path(rng, monkeypatch):
    lengths = np.array([3, 5])
    g = np.ascontiguousarray(np.repeat(rng.standard_normal((2, 2, 1)), 2 * 8 + 2, axis=2))
    monkeypatch.setattr(engine, "_uniform_product", lambda *a: pytest.fail("took the uniform branch"))
    got = engine._rk4_transitions(g, np.full(8, 0.1), lengths, 8)
    assert got.shape == (2, 2, 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_constant_field_raises(bad):
    g = np.full((2, 2, 2 * 16 + 1), bad)
    with pytest.raises(SingularCoefficientError):
        engine._rk4_transitions(g, 0.1, np.array([16]), 16)


def test_uniform_chunk_takes_logarithmically_many_products(rng, monkeypatch):
    n = 2048
    g = constant_samples(rng, 2, n)
    calls = []
    matmul = engine._matmul
    monkeypatch.setattr(engine, "_matmul", lambda x, y: calls.append(x.shape[-1]) or matmul(x, y))
    engine._rk4_transitions(g[..., :1], np.array([1.0 / n]), np.array([n]), n)
    # Three products form the one transition; the tree of 2048 equal
    # matrices is 11 squarings.
    assert len(calls) <= 3 + 2 * math.ceil(math.log2(n))
    assert set(calls) == {1}


def test_latitude_transport_equals_the_general_kernel(sphere_entry):
    # A latitude is steady on the sphere: every chunk takes the uniform
    # branch.  On a geometry that declares no reads it is not, and the kernel
    # takes its general path over every node.
    loop, geo = pt.latitude(1.1), sphere_entry.geometry
    fast = pt.transport_matrix_over_path(geo, loop, 0.0, 2.0, step=1e-3).value
    geo = dataclasses.replace(geo, reads=None)
    assert np.array_equal(fast, pt.transport_matrix_over_path(geo, loop, 0.0, 2.0, step=1e-3).value)


# --- the steady batch ----------------------------------------------------------


def counting_uniform_products(monkeypatch) -> list:
    """Record the per-column step counts of every ``_uniform_product`` call, as a list."""
    calls, reduce = [], engine._uniform_product
    monkeypatch.setattr(engine, "_uniform_product", lambda t, n: calls.append(np.asarray(n).tolist()) or reduce(t, n))
    return calls


def constant_sampler(column):
    """``sample(chunks, pts)`` of a constant field with the given (r, r, 1) value."""
    return lambda chunks, pts: np.ascontiguousarray(np.repeat(column, len(pts), axis=2))


@pytest.mark.parametrize("span", [(0.0, 2 * math.pi), (5.0, 0.5)])
def test_fine_latitude_equals_the_per_pass_kernel(span, sphere_entry, monkeypatch):
    geo, loop = sphere_entry.geometry, pt.latitude(math.pi / 3)
    calls, rk4 = [], engine._rk4_transitions

    def recording(g, h, lengths, n):
        calls.append((g.shape[-1], lengths.size, n))
        return rk4(g, h, lengths, n)

    monkeypatch.setattr(engine, "_rk4_transitions", recording)
    products = counting_uniform_products(monkeypatch)
    got = pt.transport_matrix_over_path(geo, loop, *span, step=1e-5).value
    n = math.ceil(abs(span[1] - span[0]) / 1e-5)
    # Hundreds of chunks, one sample each, and one kernel call for them all:
    # the full chunks and the shorter last one.
    assert len(calls) == len(products) == 1
    assert sorted(set(products[0])) == [(n - 1) % engine._CHUNK_STEPS + 1, engine._CHUNK_STEPS]
    assert all(samples == chunks for samples, chunks, _ in calls)
    assert sum(chunks for _, chunks, _ in calls) == math.ceil(n / engine._CHUNK_STEPS) > 200
    assert sum(steps for *_, steps in calls) == n
    # On a geometry that declares no reads, every pass samples every node.
    monkeypatch.undo()
    full = pt.transport_matrix_over_path(dataclasses.replace(geo, reads=None), loop, *span, step=1e-5).value
    assert got.tobytes() == full.tobytes()


def test_chunks_one_ulp_apart_are_reduced_separately(rng, monkeypatch):
    n = engine._CHUNK_STEPS
    b = 0.3
    h = np.array([b / n, np.nextafter(b, 1.0) / n, b / n])
    assert h[0] != h[1]
    column = rng.standard_normal((2, 2, 1))
    calls = counting_uniform_products(monkeypatch)
    # Three steady chunks of one step count are three columns of one call.
    first, other, again = engine._rk4_transitions(np.repeat(column, 3, axis=2), h, np.full(3, n), 3 * n)
    assert calls == [[n, n, n]]
    g = np.repeat(column, 2 * n + 1, axis=2)
    for step, got in zip(h, (first, other, again)):
        assert got.tobytes() == general_kernel(g, step, n)[0].tobytes()
    assert not np.array_equal(first, other)
    assert first.tobytes() == again.tobytes()


def test_signed_zero_columns_are_separate_entries():
    n = engine._CHUNK_STEPS
    plus = np.array([[0.0, 1.0], [-1.0, 0.0]])[:, :, None]
    minus = np.array([[-0.0, 1.0], [-1.0, -0.0]])[:, :, None]
    chunk = engine._Chunk(None, 1.0, 0.0, n, 0.0, 0.0)  # a backward chunk: h < 0
    columns = np.concatenate([plus, minus, plus], axis=2)
    got = engine._rk4_transitions(columns, np.full(3, -1.0 / n), np.full(3, n), 3 * n)
    assert got[2].tobytes() == got[0].tobytes()
    for col, out in zip((plus, minus), got):
        alone = engine._rk4_transitions(col, np.array([-1.0 / n]), np.array([n]), n)[0]
        assert out.tobytes() == alone.tobytes()
        assert out.tobytes() == general_kernel(np.repeat(col, 2 * n + 1, axis=2), -1.0 / n, n)[0].tobytes()
    (whole,) = engine._integrate([chunk], constant_sampler(minus))
    assert whole.tobytes() == got[1].tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_constant_field_raises_with_a_table(bad):
    # One sample per chunk: a bad column beside a finite one still raises.
    g = np.ones((2, 2, 2))
    g[..., 1] = bad
    with pytest.raises(SingularCoefficientError):
        engine._rk4_transitions(g, np.full(2, 0.1), np.array([16, 16]), 32)
    with pytest.raises(SingularCoefficientError):
        engine._integrate([engine._Chunk(None, 0.0, 1.0, 16, 0.0, 0.0)], constant_sampler(g[..., 1:]))


def test_successive_calls_share_no_table(sphere_entry, monkeypatch):
    # Each call reduces its own steady chunks: nothing is kept between calls.
    geo, loop = sphere_entry.geometry, pt.latitude(1.1)
    calls = counting_uniform_products(monkeypatch)
    first = pt.transport_matrix_over_path(geo, loop, 0.0, 2.0, step=1e-4)
    once = len(calls)
    second = pt.transport_matrix_over_path(geo, loop, 0.0, 2.0, step=1e-4)
    assert once and len(calls) == 2 * once
    assert np.array_equal(first.value, second.value) and not np.shares_memory(first.value, second.value)


# --- the geometries' G·v evaluators -------------------------------------------


def coeffs3_contraction(geometry, xs, vs):
    """The definition: G[a, b] = sum over mu of coeffs3[a, b, mu] v^mu, in order of mu."""
    g3 = coeffs3_batch(geometry, xs).transpose(1, 2, 3, 0)
    out = g3[:, :, 0] * vs[:, 0]
    for mu in range(1, geometry.base_dim):
        out = out + g3[:, :, mu] * vs[:, mu]
    return out


@pytest.mark.parametrize("entry_id", ["flat", "sphere", "sphere-orthonormal"])
def test_contract_equals_the_coeffs3_contraction(entry_id, catalog, rng):
    geometry = catalog[entry_id].geometry
    m = 257
    xs = np.column_stack([rng.uniform(0.35, math.pi - 0.35, m), rng.uniform(-3.0, 3.0, m)])
    vs = rng.standard_normal((m, 2))
    vs[::3, 0] = 0.0
    vs[1::3, 1] = 0.0
    vs[2::7] = 0.0
    vs[5::11, 1] = -0.0
    got = geometry.contract(xs, vs)
    assert got.shape == (2, 2, m) and got.flags.c_contiguous
    assert np.array_equal(got, coeffs3_contraction(geometry, xs, vs))


def test_contract_reads_strided_views(sphere_entry, rng):
    # The integrators pass (m, n) views of (n, m) storage.
    geometry = sphere_entry.geometry
    xs = np.vstack([rng.uniform(0.5, 2.5, 50), rng.uniform(-1.0, 1.0, 50)]).T
    vs = np.vstack([rng.standard_normal(50), rng.standard_normal(50)]).T
    assert np.array_equal(geometry.contract(xs, vs), coeffs3_contraction(geometry, xs, vs))


def test_engine_contracts_through_coeffs3_without_an_evaluator(sphere_entry, rng):
    geometry = sphere_entry.geometry
    plain = dataclasses.replace(geometry, contract=None)
    xs = np.column_stack([rng.uniform(0.5, 2.5, 40), rng.uniform(-1.0, 1.0, 40)])
    vs = rng.standard_normal((40, 2))
    assert np.array_equal(engine._contract(plain, xs, vs), engine._contract(geometry, xs, vs))


# --- declared reads -------------------------------------------------------------

READING = [k for k, e in standard_catalog().items() if e.geometry is not None and e.geometry.reads is not None]
EDGES = [SPHERE_POLE_MARGIN, math.pi - SPHERE_POLE_MARGIN, 0.0, -0.0, math.pi]
COORDINATES = st.one_of(
    st.floats(-4.0, 4.0), st.sampled_from(EDGES + [np.nextafter(x, s) for x in EDGES for s in (-9.0, 9.0)])
)


def test_the_catalog_declares_what_its_fields_read():
    assert READING == ["flat", "sphere", "sphere-orthonormal"]
    assert [standard_catalog()[k].geometry.reads for k in READING] == [(), (0,), (0,)]


@pytest.mark.parametrize("entry_id", READING)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_undeclared_coordinates_change_no_bit(entry_id, data):
    geometry = standard_catalog()[entry_id].geometry
    n, m = geometry.base_dim, 6
    xs = np.array(data.draw(st.lists(COORDINATES, min_size=n * m, max_size=n * m))).reshape(m, n)
    vs = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n * m, max_size=n * m))).reshape(m, n)
    moved = xs.copy()
    for mu in sorted(set(range(n)) - set(geometry.reads)):
        moved[:, mu] = data.draw(st.lists(COORDINATES, min_size=m, max_size=m))
    with np.errstate(all="ignore"):
        assert coeffs3_batch(geometry, xs).tobytes() == coeffs3_batch(geometry, moved).tobytes()
        for x, y in [(xs, moved)] + list(zip(xs, moved)):
            assert np.asarray(geometry.coeffs3(x)).tobytes() == np.asarray(geometry.coeffs3(y)).tobytes()
            assert geometry.contains(x) == geometry.contains(y)
        assert geometry.contract(xs, vs).tobytes() == geometry.contract(moved, vs).tobytes()


@pytest.mark.parametrize("entry_id", READING)
@settings(max_examples=20, deadline=None)
@given(v=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), seed=st.integers(0, 2**32 - 1))
def test_one_column_contract_equals_every_column(entry_id, v, seed):
    # The columns share the declared coordinates and the velocity, as the
    # samples of a latitude do; the rest vary.  Both are (m, n) views of
    # (n, m) storage, as the integrators pass them.
    entry = standard_catalog()[entry_id]
    geometry, m = entry.geometry, 2 * engine._CHUNK_STEPS + 1
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-4.0, 4.0, (2, m))
    read = list(geometry.reads)
    xs[read] = np.array([rng.uniform(lo, hi) for lo, hi in entry.chart_box])[read, None]
    vs = np.repeat(np.array(v)[:, None], m, axis=1)
    one = geometry.contract(xs.T[:1], vs.T[:1])
    full = geometry.contract(xs.T, vs.T)
    assert one.shape == (2, 2, 1)
    assert all(full[..., k].tobytes() == one[..., 0].tobytes() for k in range(m))


# --- the one-node shortcut of steady passes ------------------------------------


def counting(monkeypatch, name) -> list:
    """Record the sample count of every ``engine.<name>(geometry, xs, ...)`` call."""
    calls, original = [], getattr(engine, name)
    monkeypatch.setattr(engine, name, lambda geometry, xs, *rest: calls.append(len(xs)) or original(geometry, xs, *rest))
    return calls


def counting_sampler(monkeypatch) -> list:
    """Record the run lengths of every call of the samplers that ``engine`` builds."""
    sampled, sampler = [], engine._geometry_sampler

    def counted(geometry):
        sample = sampler(geometry)
        return lambda runs, pts: sampled.append([count for _, count in runs]) or sample(runs, pts)

    monkeypatch.setattr(engine, "_geometry_sampler", counted)
    return sampled


@pytest.mark.parametrize("entry_id", ["sphere", "sphere-orthonormal"])
@pytest.mark.parametrize("span", [(0.0, 2 * math.pi), (2 * math.pi, 0.0)])
def test_latitude_passes_contract_one_sample(entry_id, span, catalog, monkeypatch):
    # The latitude, and the latitude stretched onto [0, 1] by an affine map
    # and by its reversal, run the same way along the span.
    geometry, lat = catalog[entry_id].geometry, pt.latitude(1.1)
    onto = [pt.affine_reparametrization((0.0, 1.0), lat.domain, reversing=r) for r in (False, True)]
    loops = [(lat, span)] + [(pt.reparametrize(lat, chi), tuple(x / (2 * math.pi) for x in span)) for chi in onto]
    contracted, checked = counting(monkeypatch, "_contract"), counting(monkeypatch, "_check_chart")
    sampled = counting_sampler(monkeypatch)
    for loop, (s, t) in loops:
        for calls in (contracted, checked, sampled):
            calls.clear()
        got = pt.transport_matrix_over_path(geometry, loop, s, t, step=1e-5).value
        n = math.ceil(abs(t - s) / 1e-5)
        passes = math.ceil(n / engine._CHUNK_STEPS)
        # Steady in theta, through maps with a slope: one sampler call takes
        # one node per chunk, and one chart check and one contraction see them all.
        assert sampled == [[1] * passes], loop.label
        assert contracted == [passes] and checked == [passes]
        contracted.clear()
        full = pt.transport_matrix_over_path(dataclasses.replace(geometry, reads=None), loop, s, t, step=1e-5).value
        assert sum(contracted) == 2 * n + passes
        assert got.tobytes() == full.tobytes()


@pytest.mark.parametrize("entry_id", ["sphere", "sphere-orthonormal"])
def test_a_bulged_latitude_contracts_every_node(entry_id, catalog, monkeypatch):
    # A bulge has no slope: its velocity varies, so every node is sampled.
    geometry = catalog[entry_id].geometry
    loop = pt.reparametrize(pt.latitude(1.1), pt.bulge_reparametrization((0.0, 1.0), (0.0, 2 * math.pi), 0.35))
    contracted, sampled = counting(monkeypatch, "_contract"), counting_sampler(monkeypatch)
    got = pt.transport_matrix_over_path(geometry, loop, 0.0, 1.0, step=1e-4).value
    n = math.ceil(1.0 / 1e-4)
    assert sum(contracted) == 2 * n + math.ceil(n / engine._CHUNK_STEPS)
    assert all(count > 1 for counts in sampled for count in counts)
    full = pt.transport_matrix_over_path(dataclasses.replace(geometry, reads=None), loop, 0.0, 1.0, step=1e-4).value
    assert got.tobytes() == full.tobytes()


@pytest.mark.parametrize("entry_id", ["sphere", "sphere-orthonormal"])
@pytest.mark.parametrize("span", [(0.0, 2 * math.pi), (2 * math.pi, 0.0)])
def test_the_one_node_chart_check_refuses_a_latitude_outside_the_chart(entry_id, span, catalog):
    # A chart that ends below the latitude's colatitude: the one node each
    # steady pass samples gives the verdict for the whole pass.
    geometry = dataclasses.replace(
        catalog[entry_id].geometry, chart_domain=lambda x: bool((np.asarray(x)[..., 0] < 1.0).all())
    )
    with pytest.raises(ChartDomainError, match=r"path latitude\(1.1\) leaves the chart"):
        pt.transport_matrix_over_path(geometry, pt.latitude(1.1), *span, step=1e-5)


@pytest.mark.parametrize("entry_id", ["sphere", "sphere-orthonormal"])
def test_great_circle_passes_contract_every_node(entry_id, catalog, monkeypatch):
    geometry = catalog[entry_id].geometry
    arc = pt.great_circle([1.0, 0.3], [0.4, 0.9], 1.0)
    contracted = counting(monkeypatch, "_contract")
    got = pt.transport_matrix_over_path(geometry, arc, 0.0, 1.0, step=1e-5).value
    n = math.ceil(1.0 / 1e-5)
    assert min(contracted) > 1 and sum(contracted) == 2 * n + len(contracted)
    full = pt.transport_matrix_over_path(dataclasses.replace(geometry, reads=None), arc, 0.0, 1.0, step=1e-5).value
    assert got.tobytes() == full.tobytes()


@pytest.mark.parametrize("entry_id", ["sphere", "sphere-orthonormal"])
def test_the_reads_aware_jet_changes_no_bit_of_a_great_circle_loop(entry_id, catalog, monkeypatch):
    a = pt.great_circle((1.2, -0.3), (0.3, 0.6), domain=(0.0, 1.0))
    b = pt.great_circle(a.at(1.0), (-0.5, 0.1), domain=(0.0, 1.0))
    loop = pt.product_canonical(pt.product_canonical(a, b), pt.segment(b.at(1.0), a.at(0.0)))
    geometry = catalog[entry_id].geometry
    azimuths, contract = [], engine._contract
    monkeypatch.setattr(
        engine, "_contract", lambda geometry, xs, vs: azimuths.append(xs[:, 1]) or contract(geometry, xs, vs)
    )
    aware = pt.transport_matrix_over_path(geometry, loop, 0.0, 1.0, step=1e-4).value
    # The arcs skip the azimuth, which neither sphere field nor the chart reads.
    assert any(np.isnan(phi).all() for phi in azimuths)
    azimuths.clear()
    piece_jet = engine._piece_jet
    monkeypatch.setattr(engine, "_piece_jet", lambda path, piece, reads: piece_jet(path, piece, None))
    every = pt.transport_matrix_over_path(geometry, loop, 0.0, 1.0, step=1e-4).value
    assert not any(np.isnan(phi).any() for phi in azimuths)
    assert aware.tobytes() == every.tobytes()


def test_a_constant_nan_field_raises_from_one_sample(sphere_entry, monkeypatch):
    nan_field = lambda xs, vs: np.full((2, 2, len(xs)), math.nan)  # noqa: E731
    geometry = dataclasses.replace(sphere_entry.geometry, contract=nan_field)
    contracted = counting(monkeypatch, "_contract")
    with pytest.raises(SingularCoefficientError):
        pt.transport_matrix_over_path(geometry, pt.latitude(1.1), 0.0, 2.0, step=1e-3)
    assert contracted == [1]



def test_the_steady_batch_loads_no_module():
    # A module loaded on first use stays in the heap for good, which moves
    # where later pass temporaries land; numpy's ``unique``, for one, loads
    # ``numpy.ma`` (about 1 MB).  A fresh interpreter, since the test
    # process has loaded much more.
    import subprocess
    import sys
    from pathlib import Path

    child = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import pathtransport as pt\n"
        "transport = pt.get_entry('sphere').transport\n"
        "before = set(sys.modules)\n"
        "pt.holonomy(transport, pt.latitude(1.1), step=1e-4)\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", child, str(src)], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# --- the zero field -------------------------------------------------------------


def counted_passes(monkeypatch) -> list:
    """The chunk count of every ``engine._pass`` call, recorded in order."""
    calls, original = [], engine._pass
    monkeypatch.setattr(engine, "_pass", lambda chunks, sample: calls.append(len(chunks)) or original(chunks, sample))
    return calls


def recorded_transport_matrices(monkeypatch) -> tuple:
    """Record ``(geometry, requests, step, matrices)`` of every call through any
    module's binding of ``transport_matrices``; returns the record and the original."""
    import sys

    original = engine.transport_matrices
    calls = []

    def recording(geometry, requests, *, step=None):
        requests = list(requests)
        out = original(geometry, requests, step=step)
        calls.append((geometry, requests, step, out))
        return out

    for module in [m for name, m in sys.modules.items() if name.startswith("pathtransport") and m is not None]:
        if getattr(module, "transport_matrices", None) is original:
            monkeypatch.setattr(module, "transport_matrices", recording)
    return calls, original


def test_check_laws_on_flat_runs_no_pass_and_changes_no_bit(tmp_path, monkeypatch):
    # flat reads no coordinate and its one coeffs3 sample is zero, so its
    # field is zero on every path: no chunk is built, whatever the path.
    from pathtransport.cli import main

    passes = counted_passes(monkeypatch)
    calls, original = recorded_transport_matrices(monkeypatch)
    assert main(["check-laws", "--geometry", "flat", "--seed", "4", "--out", str(tmp_path)]) == 0
    assert passes == [] and sum(len(requests) for _, requests, *_ in calls) > 1000
    assert {geometry.label for geometry, *_ in calls} == {"flat"}
    for geometry, requests, step, got in calls:
        everywhere = original(dataclasses.replace(geometry, reads=None), requests, step=step)
        assert [m.value.tobytes() for m in got] == [m.value.tobytes() for m in everywhere]
        assert [(m.path_id, m.s, m.t, m.step) for m in got] == [(m.path_id, m.s, m.t, m.step) for m in everywhere]
    # The reads=None copy samples every node, in passes.
    assert len(passes) > 100


def test_check_laws_on_flat_makes_no_kernel_call_and_no_jet_call(tmp_path, monkeypatch):
    # The zero field builds no chunk: no node is sampled and no transition is
    # formed; the previous test pins the bits and the reported steps.
    from pathtransport.cli import main

    kernel, jets, rk4, piece_jet = [], [], engine._rk4_transitions, engine._piece_jet
    monkeypatch.setattr(engine, "_rk4_transitions", lambda *args: kernel.append(args) or rk4(*args))
    monkeypatch.setattr(engine, "_piece_jet", lambda *args: jets.append(args) or piece_jet(*args))
    calls, _ = recorded_transport_matrices(monkeypatch)
    assert main(["check-laws", "--geometry", "flat", "--seed", "4", "--out", str(tmp_path)]) == 0
    assert len(calls) == 7 and kernel == [] and jets == []


def zero_geometry(chart_domain):
    """flat's geometry on R^2 with the given chart."""
    return dataclasses.replace(pt.flat_bundle().geometry, chart_domain=chart_domain)


def test_a_zero_field_checks_its_chart_once_and_names_the_first_moving_request(rng):
    seen = []
    geometry = zero_geometry(lambda xs: seen.append(np.shape(xs)) or False)
    a, b = pt.random_paths(rng, 2, dim=2, box=((-1.0, 1.0), (-1.0, 1.0)))
    # A request with s == t has no node, so the error names the next path.
    requests = [(b, 0.5, 0.5), (a, 0.0, 1.0), (b, 1.0, 0.0)]
    with pytest.raises(ChartDomainError, match=a.label):
        pt.transport_matrices(geometry, requests, step=1e-3)
    assert seen == [(1, 2)]


def test_a_zero_field_on_an_accepting_chart_gives_the_identity(rng):
    seen = []
    geometry = zero_geometry(lambda xs: seen.append(np.shape(xs)) or True)
    paths = pt.random_paths(rng, 3, dim=2, box=((-1.0, 1.0), (-1.0, 1.0)))
    requests = [(p, s, t) for p in paths for s, t in ((0.0, 1.0), (0.9, 0.2))]
    got = pt.transport_matrices(geometry, requests, step=1e-3)
    assert seen == [(1, 2)]
    assert all(m.value.tobytes() == np.eye(2).tobytes() for m in got)
    back = abs(0.2 - 0.9)
    assert [m.step for m in got] == [1e-3, back / math.ceil(back / 1e-3)] * 3


def constant_geometry(gamma, reads=()):
    """A geometry whose coefficients are the constant (2, 2, 2) array gamma."""
    return pt.BundleGeometry(
        base_dim=2, fibre_dim=2, coeffs3=lambda x: np.broadcast_to(gamma, np.shape(x)[:-1] + gamma.shape), reads=reads
    )


def test_a_non_zero_constant_field_that_reads_nothing_still_runs_passes(rng, monkeypatch):
    geometry = constant_geometry(0.4 * rng.standard_normal((2, 2, 2)))
    paths = pt.random_paths(rng, 3, dim=2, box=((-1.0, 1.0), (-1.0, 1.0)))
    requests = [(p, s, t) for p in paths for s, t in ((0.0, 1.0), (0.9, 0.2))]
    passes = counted_passes(monkeypatch)
    got = pt.transport_matrices(geometry, requests, step=1e-3)
    assert len(passes) > 0
    everywhere = pt.transport_matrices(dataclasses.replace(geometry, reads=None), requests, step=1e-3)
    assert [m.value.tobytes() for m in got] == [m.value.tobytes() for m in everywhere]
    assert all(np.max(np.abs(m.value - np.eye(2))) > 1e-3 for m in got)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_constant_field_that_reads_nothing_raises(bad, rng):
    gamma = np.zeros((2, 2, 2))
    gamma[0, 1, 1] = bad
    path = pt.random_paths(rng, 1, dim=2, box=((-1.0, 1.0), (-1.0, 1.0)))[0]
    with pytest.raises(SingularCoefficientError):
        pt.transport_matrices(constant_geometry(gamma), [(path, 0.0, 1.0)], step=1e-2)
