import math

import numpy as np
import pytest

import pathtransport as pt
from pathtransport.errors import ChartDomainError, InverseUnavailableError, NotApplicableError
from pathtransport.laws import random_paths


def test_apply_validates_attachment(flat_entry):
    seg = pt.segment([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ChartDomainError):
        flat_entry.transport.apply(seg, 0.0, 1.0, pt.FibreVector([0.5, 0.5], [1.0, 0.0]))


ATTACHED_CALLS = {
    "apply-linear": lambda catalog, seg, u: catalog["sphere"].transport.apply(seg, 0.0, 1.0, u),
    "apply-generic": lambda catalog, seg, u: catalog["nonlinear"].transport.apply(seg, 0.0, 1.0, u),
    "lift": lambda catalog, seg, u: pt.horizontal_lift(catalog["sphere"].geometry, seg, 0.0, u, [0.5, 1.0]),
}


@pytest.mark.parametrize("call", sorted(ATTACHED_CALLS))
@pytest.mark.parametrize(
    "base_point, components",
    [([1.0 + 2e-8, 0.0], [1.0, 0.0]), ([1.0, 0.0, 0.0], [1.0, 0.0]), ([1.0, 0.0], [1.0, 0.0, 0.0]), ([1.0, 0.0], [1.0])],
    ids=["off-point", "base-dim", "long-components", "short-components"],
)
def test_one_attachment_rule(catalog, call, base_point, components):
    # Off the path point, a base point of the wrong dimension, or components
    # that do not match the fibre: every consumer of a fibre vector refuses it
    # by the same rule, before any numerics run.
    seg = pt.segment([1.0, 0.0], [1.2, 0.3])
    with pytest.raises(ChartDomainError):
        ATTACHED_CALLS[call](catalog, seg, pt.FibreVector(base_point, components))


def test_flat_transport_preserves_components(flat_entry):
    seg = pt.segment([0.0, 0.0], [1.0, 1.0])
    u = pt.FibreVector([0.0, 0.0], [3.0, -2.0])
    out = flat_entry.transport.apply(seg, 0.0, 1.0, u)
    assert np.array_equal(out.components, u.components)
    assert np.allclose(out.base_point, [1.0, 1.0])


def test_generic_transport_has_no_matrix(nonlinear_entry):
    seg = pt.segment([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(NotApplicableError):
        nonlinear_entry.transport.matrix(seg, 0.0, 1.0)


# --- parallel transport from a transport ----------------------------------------


def test_parallel_of_flat_is_identity_on_components(flat_entry):
    psi = pt.parallel_from_transport(flat_entry.transport)
    seg = pt.segment([0.0, 0.0], [0.3, 0.8])
    u = pt.FibreVector([0.0, 0.0], [1.0, 2.0])
    assert np.array_equal(psi.apply(seg, u).components, u.components)


def test_parallel_on_point_path_is_identity(sphere_entry):
    psi = pt.parallel_from_transport(sphere_entry.transport)
    pp = pt.point_path(0.3, [1.0, 0.0])
    u = pt.FibreVector([1.0, 0.0], [0.4, -0.1])
    assert np.array_equal(psi.apply(pp, u).components, u.components)


def test_parallel_over_quarter_great_circle_matches_fine_integration(sphere_entry):
    gc = pt.great_circle([math.pi / 2, 0.0], [0.0, 1.0], length=math.pi / 2)
    u = pt.FibreVector(gc.at(0.0), [1.0, 0.0])
    psi = pt.parallel_from_transport(sphere_entry.transport)
    got = psi.apply(gc, u)
    oracle = sphere_entry.transport.apply(gc, 0.0, math.pi / 2, u, step=1e-5)
    assert np.max(np.abs(got.components - oracle.components)) <= 1e-8


# --- transport from a parallel transport -----------------------------------------


def test_coincident_parameters_return_input_unchanged(sphere_entry, nonlinear_entry):
    # A linear rebuilt transport acts through its identity matrix, so the
    # output equals the input bit for bit; the generic one returns its input.
    psi = pt.parallel_from_transport(sphere_entry.transport)
    back = pt.transport_from_parallel(psi)
    lat = pt.latitude(1.0)
    u = pt.FibreVector(lat.at(2.0), [1.0, 1.0])
    out = back.apply(lat, 2.0, 2.0, u)
    assert out.components.tobytes() == u.components.tobytes()
    assert out.base_point.tobytes() == u.base_point.tobytes()
    generic = pt.transport_from_parallel(pt.parallel_from_transport(nonlinear_entry.transport))
    seg = pt.segment([0.0, 0.0], [1.0, 0.5])
    v = pt.FibreVector(seg.at(0.4), [0.5, -0.5])
    assert generic.apply(seg, 0.4, 0.4, v) is v


def test_flat_parallel_roundtrips_for_all_parameter_orders(flat_entry):
    psi = pt.parallel_from_transport(flat_entry.transport)
    back = pt.transport_from_parallel(psi)
    seg = pt.segment([0.0, 0.0], [1.0, 1.0])
    u = pt.FibreVector(seg.at(0.8), [1.0, -1.0])
    fwd = back.apply(seg, 0.8, 0.2, u)
    assert np.allclose(fwd.components, [1.0, -1.0])
    assert np.allclose(fwd.base_point, seg.at(0.2))


def test_transport_parallel_transport_roundtrip(sphere_entry, rng):
    # behavior identity on random (path, s, t, u), both parameter orders
    T = sphere_entry.transport
    back = pt.transport_from_parallel(pt.parallel_from_transport(T))
    worst = 0.0
    for path in random_paths(rng, 20, dim=2, box=sphere_entry.chart_box):
        s, t = rng.uniform(0.0, 1.0, size=2)
        u = pt.FibreVector(path.at(s), rng.standard_normal(2))
        a = T.apply(path, s, t, u, step=1e-3)
        b = back.apply(path, s, t, u, step=1e-3)
        worst = max(worst, float(np.max(np.abs(a.components - b.components))))
    assert worst <= 1e-9


def test_parallel_transport_parallel_roundtrip(sphere_entry, rng):
    # the opposite composition is also the identity on behavior
    psi = pt.parallel_from_transport(sphere_entry.transport)
    again = pt.parallel_from_transport(pt.transport_from_parallel(psi))
    for path in random_paths(rng, 5, dim=2, box=sphere_entry.chart_box):
        u = pt.FibreVector(path.at(0.0), rng.standard_normal(2))
        assert np.max(np.abs(psi.apply(path, u).components - again.apply(path, u).components)) <= 1e-12


def test_generic_parallel_cannot_run_backward(nonlinear_entry):
    psi = pt.parallel_from_transport(nonlinear_entry.transport)
    back = pt.transport_from_parallel(psi)
    seg = pt.segment([0.0, 0.0], [1.0, 0.0])
    u = pt.FibreVector(seg.at(1.0), [0.5, 0.5])
    with pytest.raises(InverseUnavailableError):
        back.apply(seg, 1.0, 0.0, u)
    # forward still works and matches the original flow
    v = pt.FibreVector(seg.at(0.2), [0.5, 0.5])
    direct = nonlinear_entry.transport.apply(seg, 0.2, 0.9, v)
    viapsi = back.apply(seg, 0.2, 0.9, v)
    assert np.allclose(direct.components, viapsi.components)


def test_matrix_realization_of_derived_transport(sphere_entry):
    T = sphere_entry.transport
    back = pt.transport_from_parallel(pt.parallel_from_transport(T))
    lat = pt.latitude(0.9)
    fwd = back.matrix(lat, 1.0, 3.0).value
    ref = T.matrix(lat, 1.0, 3.0).value
    assert np.max(np.abs(fwd - ref)) <= 1e-12
    inv = back.matrix(lat, 3.0, 1.0).value
    assert np.max(np.abs(inv @ ref - np.eye(2))) <= 1e-9


# --- one realization per transport ---------------------------------------------


@pytest.mark.parametrize("entry_id", ["flat", "sphere", "sphere-orthonormal", "evolution"])
@pytest.mark.parametrize("rebuilt", [False, True], ids=["direct", "rebuilt"])
def test_a_linear_transport_acts_through_its_matrices(catalog, rng, entry_id, rebuilt):
    # Forward, backward and coincident requests: apply is matrix @ u bit for
    # bit, for the catalog transport and for the one rebuilt from its
    # parallel transport.
    entry = catalog[entry_id]
    T = entry.transport
    if rebuilt:
        T = pt.transport_from_parallel(pt.parallel_from_transport(T, step=1e-2))
    for path in pt.sample_paths(entry, rng, 8):
        s, t = sorted(rng.uniform(*path.domain, size=2))
        for a, b in ((s, t), (t, s), (s, s)):
            u = pt.FibreVector(path.at(a), rng.standard_normal(T.fibre_dim))
            got = T.apply(path, a, b, u, step=1e-2).components
            assert got.tobytes() == (T.matrix(path, a, b, step=1e-2).value @ u.components).tobytes()


def test_a_transport_takes_exactly_one_realization():
    def scale_matrices(requests, step):
        return [pt.TransportMatrix(2.0 * np.eye(2), path_id=p.label, s=s, t=t, step=0.0) for p, s, t in requests]

    def scale_apply(requests, step):
        return [pt.FibreVector(path.at(t), 2.0 * u.components) for path, s, t, u in requests]

    with pytest.raises(ValueError):
        pt.TransportAlongPaths(
            kind="linear-custom", base_dim=2, fibre_dim=2, apply_many_fn=scale_apply, matrices_fn=scale_matrices
        )
    with pytest.raises(ValueError):
        pt.TransportAlongPaths(kind="linear-custom", base_dim=2, fibre_dim=2)


@pytest.mark.parametrize("entry_id", ["flat", "sphere", "sphere-orthonormal", "evolution", "nonlinear"])
def test_linearity_survives_both_directions_of_the_bijection(catalog, entry_id):
    T = catalog[entry_id].transport
    psi = pt.parallel_from_transport(T)
    assert psi.is_linear == T.is_linear
    assert pt.transport_from_parallel(psi).is_linear == T.is_linear
