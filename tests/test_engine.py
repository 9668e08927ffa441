import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

import pathtransport as pt
from pathtransport import engine
from pathtransport.bundles import coeffs3_at
from pathtransport.engine import path_coefficient_field
from pathtransport.errors import (
    ChartDomainError,
    DegenerateProbeError,
    IntervalError,
    NonInvertibleError,
    NotFactorizableError,
    SingularCoefficientError,
)
from pathtransport.laws import _bezier_path, random_paths
from pathtransport.paths import position_at, velocity_at

ROTATION_GEN = np.array([[0.0, 1.0], [-1.0, 0.0]])


def constant_field(a):
    return lambda ts: np.tile(a, (np.atleast_1d(ts).size, 1, 1))


# --- integrate_transport_matrix -----------------------------------------------


def test_zero_field_gives_exact_identity():
    m = pt.integrate_transport_matrix(constant_field(np.zeros((2, 2))), 0.0, 1.0, 1e-2)
    assert np.array_equal(m.value, np.eye(2))


def test_coincident_parameters_give_exact_identity():
    m = pt.integrate_transport_matrix(constant_field(ROTATION_GEN), 0.4, 0.4, 1e-3)
    assert np.array_equal(m.value, np.eye(2))


def test_constant_generator_matches_matrix_exponential():
    # L = exp(-(pi/2) A) for A = [[0,1],[-1,0]] is the quarter rotation [[0,-1],[1,0]].
    m = pt.integrate_transport_matrix(constant_field(ROTATION_GEN), 0.0, math.pi / 2, 1e-3)
    expected = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.max(np.abs(m.value - expected)) <= 1e-10
    assert np.max(np.abs(m.value - expm(-(math.pi / 2) * ROTATION_GEN))) <= 1e-10


def test_rk4_order_on_constant_generator():
    exact = expm(-(math.pi / 2) * ROTATION_GEN)
    errs = []
    for step in (0.05, 0.025, 0.0125):
        m = pt.integrate_transport_matrix(constant_field(ROTATION_GEN), 0.0, math.pi / 2, step)
        errs.append(float(np.max(np.abs(m.value - exact))))
    assert errs[0] / errs[1] >= 8.0
    assert errs[1] / errs[2] >= 8.0


def test_scalar_coefficient_field_is_accepted():
    # field returning TransportCoefficients per scalar parameter
    def field(s):
        return pt.TransportCoefficients(np.array([[float(s)]]), s=float(s))

    m = pt.integrate_transport_matrix(field, 0.0, 1.0, 1e-3)
    assert m.value[0, 0] == pytest.approx(math.exp(-0.5), abs=1e-10)


def test_non_finite_coefficients_raise():
    def field(ts):
        ts = np.atleast_1d(ts)
        out = np.tile(np.eye(1), (ts.size, 1, 1))
        out[ts > 0.5] = np.nan
        return out

    with pytest.raises(SingularCoefficientError):
        pt.integrate_transport_matrix(field, 0.0, 1.0, 1e-2)


@pytest.mark.parametrize(("s", "t"), [(0.0, 1.0), (1.0, 0.2), (0.4, 0.4)])
def test_integrate_transport_matrix_is_one_transport_matrices_call(monkeypatch, s, t):
    # A coefficient field is a connection on the parameter interval: one
    # request along the identity line, sampled at the parameters themselves.
    calls = []
    original = engine.transport_matrices
    monkeypatch.setattr(engine, "transport_matrices", lambda *a, **k: calls.append(a) or original(*a, **k))
    m = pt.integrate_transport_matrix(constant_field(ROTATION_GEN), s, t, 1e-3)
    assert len(calls) == 1
    geometry, [(line, s_, t_)] = calls[0]
    assert (geometry.base_dim, geometry.fibre_dim) == (1, 2) and (s_, t_) == (s, t)
    assert line.domain == (min(s, t), max(s, t)) and line.breakpoints == ()
    us = np.linspace(*line.domain, 7)
    assert np.array_equal(position_at(line, us)[:, 0], us) and np.array_equal(velocity_at(line, us), np.ones((7, 1)))
    assert (m.s, m.t, m.path_id) == (s, t, "")


# --- step policy --------------------------------------------------------------


def test_default_step_is_a_fixed_step_count():
    m = pt.integrate_transport_matrix(constant_field(ROTATION_GEN), 0.0, 0.7)
    assert m.step == pytest.approx(0.7 / engine.DEFAULT_STEP_COUNT, rel=1e-15)
    seg = pt.segment([1.0, 0.0], [1.5, 0.5])
    m = pt.transport_matrix_over_path(pt.get_entry("sphere").geometry, seg, 0.0, 1.0)
    assert m.step == pytest.approx(1.0 / engine.DEFAULT_STEP_COUNT, rel=1e-15)


def test_default_step_takes_exactly_the_step_count_over_all_pieces(monkeypatch):
    steps = []

    def counted(g, h, lengths, n_steps, **kwargs):
        steps.append(n_steps)
        return kernel(g, h, lengths, n_steps, **kwargs)

    kernel = engine._rk4_transitions
    monkeypatch.setattr(engine, "_rk4_transitions", counted)
    sphere = pt.get_entry("sphere").geometry
    # ceil(0.265 / (0.265 / 1000)) is 1001 in floating point.
    m = pt.transport_matrix_over_path(sphere, pt.segment([1.0, 0.0], [1.5, 0.5]), 0.0, 0.265)
    assert steps == [engine.DEFAULT_STEP_COUNT] and m.step == 0.265 / engine.DEFAULT_STEP_COUNT
    a = pt.segment([1.0, 0.0], [1.3, 0.1])
    b = pt.segment(a.at(1.0), [1.2, 0.6])
    three = pt.product_canonical(a, pt.product_canonical(b, pt.segment(b.at(1.0), [1.5, 0.5])))
    assert len(three.breakpoints) == 2
    steps.clear()
    pt.transport_matrix_over_path(sphere, three, 0.03, 0.97)
    assert sum(steps) == engine.DEFAULT_STEP_COUNT


def test_a_parameter_outside_the_domain_raises_one_error_for_every_matrix_transport():
    seg = pt.segment([1.0, 0.0], [1.5, 0.5])
    sphere = pt.get_entry("sphere").geometry
    evolution = pt.get_entry("evolution").transport
    outside = "parameters (0.0, 1.000000001) outside path domain (0.0, 1.0)"
    with pytest.raises(IntervalError) as engine_error:
        pt.transport_matrix_over_path(sphere, seg, 0.0, 1.0 + 1e-9)
    with pytest.raises(IntervalError) as evolution_error:
        evolution.matrix(seg, 0.0, 1.0 + 1e-9)
    assert str(engine_error.value) == str(evolution_error.value) == outside
    pt.transport_matrix_over_path(sphere, seg, 0.0, 1.0 + 1e-13)
    evolution.matrix(seg, 0.0, 1.0 + 1e-13)


def _long_segment():
    return pt.segment([1.0, 0.0], [1.5, 0.5], domain=(0.0, 1e4))


BOUNDARY_CALLS = {
    "coefficients": lambda e: pt.coefficients_along_path(e.geometry, pt.segment([1.0, 0.0], [1.5, 0.5]), 1.0 + 1e-13),
    "tangent": lambda e: pt.tangent(pt.segment([1.0, 0.0], [1.5, 0.5]), 1.0 + 1e-13),
    "lift-grid": lambda e: pt.horizontal_lift(
        e.geometry, _long_segment(), 0.0, pt.FibreVector([1.0, 0.0], [1.0, 0.0]), [0.0, 5e3, 1e4 + 1e-9]
    ),
    "lift-tangent": lambda e: pt.lift_tangent(
        e.transport, _long_segment(), 1e4 - 1.0 + 1e-10, pt.FibreVector(_long_segment().at(1e4 - 1.0), [1.0, 0.0]), 1.0
    ),
    "split-canonical": lambda e: pt.split_canonical(pt.segment([1.0, 0.0], [1.5, 0.5], domain=(0.0, 1.0 - 1e-13))),
    "lift-attachment": lambda e: pt.horizontal_lift(
        e.geometry, pt.segment([1.0, 0.0], [1.5, 0.5]), 0.0, pt.FibreVector([1.0 + 5e-9, 0.0], [1.0, 0.0]), [0.5, 1.0]
    ),
}


@pytest.mark.parametrize("case", sorted(BOUNDARY_CALLS))
def test_every_boundary_decision_accepts_what_the_transport_accepts(sphere_entry, case):
    # Each call sits inside the tolerance of the one rule for its decision
    # (domain, canonical domain, attachment); the transport accepts the
    # same inputs, so these must run too.
    seg = pt.segment([1.0, 0.0], [1.5, 0.5])
    sphere_entry.transport.apply(seg, 0.0, 1.0 + 1e-13, pt.FibreVector([1.0 + 5e-9, 0.0], [1.0, 0.0]))
    pt.invert_canonical(pt.segment([1.0, 0.0], [1.5, 0.5], domain=(0.0, 1.0 - 1e-13)))
    BOUNDARY_CALLS[case](sphere_entry)


def test_explicit_step_rounds_the_count_up():
    m = pt.integrate_transport_matrix(constant_field(ROTATION_GEN), 0.0, 1.0, 0.3)
    assert m.step == 0.25
    seg = pt.segment([1.0, 0.0], [1.5, 0.5])
    m = pt.transport_matrix_over_path(pt.get_entry("sphere").geometry, seg, 1.0, 0.0, step=0.3)
    assert m.step == 0.25


@pytest.mark.parametrize("step", [0.0, -1e-3])
def test_non_positive_step_is_rejected_by_both_integrators(step):
    with pytest.raises(IntervalError):
        pt.integrate_transport_matrix(constant_field(ROTATION_GEN), 0.0, 1.0, step)
    seg = pt.segment([1.0, 0.0], [1.5, 0.5])
    with pytest.raises(IntervalError):
        pt.transport_matrix_over_path(pt.get_entry("sphere").geometry, seg, 0.0, 1.0, step=step)


def test_singular_matrix_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pt.TransportMatrix(np.zeros((2, 2)))
    assert any("singular" in str(w.message) for w in caught)


# --- coefficients along a path --------------------------------------------------


def test_coefficients_flat_are_zero(flat_entry):
    seg = pt.segment([0.0, 0.0], [1.0, 1.0])
    c = pt.coefficients_along_path(flat_entry.geometry, seg, 0.5)
    assert np.all(c.value == 0.0)


def test_coefficients_vanish_on_point_paths(sphere_entry):
    pp = pt.point_path(0.0, [1.0, 0.5])
    c = pt.coefficients_along_path(sphere_entry.geometry, pp, 0.0)
    assert np.all(c.value == 0.0)


def _small_grid_geometry():
    # A 3 x 3 grid on a 2-d base with a 2-d fibre; one fibre entry is zero.
    values = np.random.default_rng(7).standard_normal((3, 3, 2, 2, 2))
    values[..., 0, 1, :] = 0.0
    return pt.geometry_from_grid([np.array([0.5, 1.0, 1.5]), np.array([-0.5, 0.0, 0.5])], values, fibre_dim=2)


@pytest.mark.parametrize("name", ["flat", "sphere", "sphere-orthonormal", "grid"])
def test_coefficients_equal_the_contraction_at_one_point_bit_for_bit(catalog, name):
    # The reference is the scalar contraction that coefficients_along_path
    # used before it sampled the integrators' field; bytes compare the signs
    # of zeros too.  Velocities have negative and zero components.
    geometry = _small_grid_geometry() if name == "grid" else catalog[name].geometry
    paths = [
        pt.segment([1.4, 0.4], [0.6, 0.4]),
        pt.segment([1.2, 0.3], [1.2, -0.4]),
        pt.segment([1.5, 0.5], [0.9, -0.5]),
        pt.invert_canonical(pt.segment([0.8, -0.3], [1.3, 0.2])),
        pt.point_path(0.0, [1.0, 0.25]),
    ]
    for path in paths:
        for s in np.linspace(*path.domain, 5):
            x, v = position_at(path, s), velocity_at(path, s)
            expected = np.einsum("abm,m->ab", coeffs3_at(geometry, x), v)
            got = pt.coefficients_along_path(geometry, path, s).value
            assert got.tobytes() == expected.tobytes(), (path.label, s)


def test_coefficients_on_latitude_match_christoffel_contraction(sphere_entry):
    # gamma(s) = (pi/3, s): G(s) = [[0, -sin cos], [cot, 0]] at theta = pi/3.
    lat = pt.latitude(math.pi / 3)
    c = pt.coefficients_along_path(sphere_entry.geometry, lat, 1.0)
    sin, cos = math.sin(math.pi / 3), math.cos(math.pi / 3)
    assert c.value[0, 1] == pytest.approx(-sin * cos)  # -sqrt(3)/4
    assert c.value[0, 1] == pytest.approx(-math.sqrt(3) / 4)
    assert c.value[1, 0] == pytest.approx(1.0 / math.tan(math.pi / 3))
    assert c.value[0, 0] == 0.0 and c.value[1, 1] == 0.0


# --- matrices over paths ---------------------------------------------------------


def test_cocycle_and_inverse_identities(sphere_entry, rng):
    path = random_paths(rng, 1, dim=2, box=sphere_entry.chart_box)[0]
    T = sphere_entry.transport
    r_, s_, t_ = 0.13, 0.55, 0.92
    l_rs = T.matrix(path, r_, s_, step=1e-3).value
    l_st = T.matrix(path, s_, t_, step=1e-3).value
    l_rt = T.matrix(path, r_, t_, step=1e-3).value
    assert np.max(np.abs(l_st @ l_rs - l_rt)) <= 1e-8
    l_ts = T.matrix(path, t_, s_, step=1e-3).value
    assert np.max(np.abs(l_ts @ l_st - np.eye(2))) <= 1e-8


def test_anchor_factorization(sphere_entry, rng):
    # L(t,s) = L(t,w) L(w,s) for an arbitrary anchor w.
    path = random_paths(rng, 1, dim=2, box=sphere_entry.chart_box)[0]
    T = sphere_entry.transport
    s_, t_, w = 0.2, 0.9, 0.47
    lhs = T.matrix(path, s_, t_, step=1e-3).value
    rhs = T.matrix(path, w, t_, step=1e-3).value @ T.matrix(path, s_, w, step=1e-3).value
    assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_matrix_level_reparametrization_invariance(sphere_entry, rng):
    path = random_paths(rng, 1, dim=2, box=sphere_entry.chart_box)[0]
    chi = pt.bulge_reparametrization((0.0, 1.0), (0.0, 1.0), 0.4)
    composed = pt.reparametrize(path, chi)
    T = sphere_entry.transport
    s_, t_ = 0.25, 0.8
    lhs = T.matrix(composed, s_, t_, step=1e-3).value
    rhs = T.matrix(path, float(chi.map(s_)), float(chi.map(t_)), step=1e-3).value
    assert np.max(np.abs(lhs - rhs)) <= 1e-6


def test_rk4_order_on_sphere_groupoid_residual(sphere_entry, rng):
    # The composition residual comes from grid misalignment and shrinks at
    # the integrator's order when the step is halved.
    path = random_paths(rng, 1, dim=2, box=sphere_entry.chart_box)[0]
    T = sphere_entry.transport
    resid = []
    for step in (0.05, 0.025):
        a = T.matrix(path, 0.0, 0.37, step=step).value
        b = T.matrix(path, 0.37, 1.0, step=step).value
        c = T.matrix(path, 0.0, 1.0, step=step).value
        resid.append(float(np.max(np.abs(b @ a - c))))
    assert resid[0] / resid[1] >= 8.0


def test_kinked_product_is_split_at_the_junction(sphere_entry, rng):
    from pathtransport.laws import _bezier_path

    lo = np.array([b[0] for b in sphere_entry.chart_box])
    hi = np.array([b[1] for b in sphere_entry.chart_box])
    pad = 0.15 * (hi - lo)
    c1 = rng.uniform(lo + pad, hi - pad, (4, 2))
    c2 = rng.uniform(lo + pad, hi - pad, (4, 2))
    c2[0] = c1[3]
    p1 = _bezier_path(c1, (0.0, 1.0))
    p2 = _bezier_path(c2, (0.0, 1.0))
    prod = pt.product_canonical(p1, p2)
    T = sphere_entry.transport
    whole = T.matrix(prod, 0.0, 1.0, step=1e-3).value
    composed = T.matrix(p2, 0.0, 1.0, step=1e-3).value @ T.matrix(p1, 0.0, 1.0, step=1e-3).value
    assert np.max(np.abs(whole - composed)) <= 1e-8


# --- horizontal lift -------------------------------------------------------------


def test_flat_lift_has_constant_components(flat_entry):
    seg = pt.segment([0.0, 0.0], [1.0, 1.0])
    u = pt.FibreVector([0.0, 0.0], [2.0, -1.0])
    lift = pt.horizontal_lift(flat_entry.geometry, seg, 0.0, u, np.linspace(0, 1, 11))
    assert np.all(lift.components == np.array([2.0, -1.0]))
    assert np.allclose(lift.base, seg.at(lift.ts))


def test_point_path_lift_is_constant(sphere_entry):
    pp = pt.point_path(0.0, [1.0, 0.0])
    # widen the degenerate domain so a grid exists
    still = pt.constant_path([1.0, 0.0], domain=(0.0, 1.0))
    u = pt.FibreVector([1.0, 0.0], [0.3, 0.7])
    lift = pt.horizontal_lift(sphere_entry.geometry, still, 0.0, u, np.linspace(0, 1, 7))
    assert np.max(np.abs(lift.components - np.array([0.3, 0.7]))) == 0.0
    assert pp.is_point


def test_sphere_quarter_latitude_lift_matches_fine_oracle(sphere_entry):
    lat = pt.latitude(math.pi / 3)
    quarter = pt.restrict(lat, (0.0, math.pi / 2))
    u = pt.FibreVector(quarter.at(0.0), [1.0, 0.0])
    grid = np.linspace(0.0, math.pi / 2, 5)
    coarse = pt.horizontal_lift(sphere_entry.geometry, quarter, 0.0, u, grid, step=1e-3)
    fine = pt.horizontal_lift(sphere_entry.geometry, quarter, 0.0, u, grid, step=1e-5)
    assert np.max(np.abs(coarse.components - fine.components)) <= 1e-8


def test_lift_projects_onto_the_path(sphere_entry):
    # base samples of the lift are the path itself, so the projected tangent
    # matches the path velocity
    gc = pt.great_circle([1.0, 0.0], [0.3, 0.5], length=1.0)
    u = pt.FibreVector(gc.at(0.0), [1.0, 0.0])
    h = 1e-4
    lift = pt.horizontal_lift(sphere_entry.geometry, gc, 0.0, u, [0.5 - h, 0.5, 0.5 + h], step=1e-3)
    base_tan = (lift.base[2] - lift.base[0]) / (2 * h)
    assert np.max(np.abs(base_tan - pt.tangent(gc, 0.5))) <= 1e-7


def test_lift_satisfies_the_lift_equation(sphere_entry):
    # Uniqueness certificate: the sampled lift solves du/dt = -G(t) u along
    # the path, which pins it down among all lifts through the start vector.
    gc = pt.great_circle([1.2, 0.0], [0.4, 0.6], length=1.0)
    u = pt.FibreVector(gc.at(0.0), [0.7, -0.3])
    d = 1e-4
    for t0 in (0.3, 0.6, 0.9):
        lift = pt.horizontal_lift(sphere_entry.geometry, gc, 0.0, u, [t0 - d, t0, t0 + d], step=1e-3)
        fd = (lift.components[2] - lift.components[0]) / (2 * d)
        gmat = pt.coefficients_along_path(sphere_entry.geometry, gc, t0).value
        assert np.max(np.abs(fd + gmat @ lift.components[1])) <= 1e-6


def test_full_turn_latitude_matrix_richardson_consistency(sphere_entry):
    # Halving the step leaves the full-turn matrix unchanged at the target
    # accuracy, and at colatitude pi/3 it is the half-turn rotation -Id.
    loop = pt.latitude(math.pi / 3)
    coarse = sphere_entry.transport.matrix(loop, 0.0, 2 * math.pi, step=1e-3).value
    halved = sphere_entry.transport.matrix(loop, 0.0, 2 * math.pi, step=5e-4).value
    assert np.max(np.abs(coarse - halved)) <= 1e-10
    assert np.max(np.abs(coarse + np.eye(2))) <= 1e-6


@pytest.mark.parametrize("grid", [[], [0.5]])
def test_lift_rejects_a_start_outside_the_domain_for_any_grid(sphere_entry, grid):
    # The vector sits at path(5.0), so only the domain rule can refuse s0;
    # an empty grid makes no transport request that would check it.
    seg = pt.segment([1.0, 0.0], [1.5, 0.5])
    u = pt.FibreVector([3.5, 2.5], [1.0, 0.0])
    with pytest.raises(IntervalError):
        pt.horizontal_lift(sphere_entry.geometry, seg, 5.0, u, grid)


def test_lift_rejects_detached_vectors(sphere_entry):
    lat = pt.latitude(1.0)
    u = pt.FibreVector([1.0, 0.5], [1.0, 0.0])  # not at lat(0)
    with pytest.raises(ChartDomainError):
        pt.horizontal_lift(sphere_entry.geometry, lat, 0.0, u, np.linspace(0, 1, 3))


# --- coefficients from a transport ------------------------------------------------


def test_coefficients_from_flat_transport_vanish(flat_entry):
    seg = pt.segment([0.0, 0.0], [1.0, 0.0])
    tm = lambda a, b: flat_entry.transport.matrix(seg, a, b, step=1e-3)
    c = pt.coefficients_from_transport(tm, 0.5)
    assert np.all(c.value == 0.0)


def test_coefficients_from_constant_generator_exponential():
    # L(t,s) = exp(-(t-s) A): recover A by differencing the closed form.
    a = ROTATION_GEN

    def tm(s, t):
        return expm(-(t - s) * a)

    c = pt.coefficients_from_transport(tm, 0.3, h=1e-4)
    assert np.max(np.abs(c.value - a)) <= 1e-8


def test_coefficient_roundtrip_on_sphere(sphere_entry):
    lat = pt.latitude(1.2)
    tm = lambda a, b: sphere_entry.transport.matrix(lat, a, b, step=1e-3)
    recovered = pt.coefficients_from_transport(tm, 2.0, h=1e-4)
    direct = pt.coefficients_along_path(sphere_entry.geometry, lat, 2.0)
    assert np.max(np.abs(recovered.value - direct.value)) <= 1e-6


def test_coefficients_from_singular_transport_raise():
    def tm(s, t):
        return np.zeros((2, 2))

    with pytest.raises(NonInvertibleError):
        pt.coefficients_from_transport(tm, 0.0)


# --- factorization criterion --------------------------------------------------------


def test_factorization_connection_derived_transports(sphere_entry, ortho_entry):
    for entry in (sphere_entry, ortho_entry):
        v = pt.factorization_test(entry.transport, np.array([1.0, 0.2]), step=1e-3)
        assert v.factorizable
        assert v.residual <= 1e-6


def test_factorization_flat_candidate_is_zero(flat_entry):
    v = pt.factorization_test(flat_entry.transport, np.array([0.1, -0.2]))
    assert v.factorizable
    assert v.residual == 0.0
    assert np.all(v.candidate3 == 0.0)


def test_factorization_verdict_derives_its_flag():
    with pytest.raises(TypeError):
        pt.FactorizationVerdict([0.0], np.zeros((1, 1, 1)), 1.0, 1e-4, factorizable=True)
    assert not pt.FactorizationVerdict([0.0], np.zeros((1, 1, 1)), 1.0, 1e-4).factorizable
    assert pt.FactorizationVerdict([0.0], np.zeros((1, 1, 1)), 1e-4, 1e-4).factorizable


def test_factorization_rejects_evolution_transport(evolution_entry):
    # Constant coefficients survive the zero-velocity probe, so the candidate
    # contraction cannot reproduce them: the stock non-example.
    v = pt.factorization_test(evolution_entry.transport, np.array([0.0]))
    assert not v.factorizable
    assert v.residual >= 0.5  # >= |H| / (2 hbar) with |H| = 1


def test_factorization_needs_spanning_probes(flat_entry):
    with pytest.raises(DegenerateProbeError):
        pt.factorization_test(flat_entry.transport, np.zeros(2), probe_velocities=[[1.0, 0.0], [2.0, 0.0]])


# --- connection recovery --------------------------------------------------------------


def test_connection_from_flat_transport_is_zero(flat_entry):
    pts = [np.array([0.0, 0.0]), np.array([0.5, -0.5])]
    g = pt.connection_from_transport(flat_entry.transport, pts)
    for x in pts:
        assert np.max(np.abs(g.coeffs3(x))) <= 1e-12


def test_connection_recovered_from_sphere_transport(sphere_entry):
    rng = np.random.default_rng(4)
    pts = [np.array([rng.uniform(0.6, 2.4), rng.uniform(-1.5, 1.5)]) for _ in range(20)]
    g = pt.connection_from_transport(sphere_entry.transport, pts, step=1e-3)
    worst = max(float(np.max(np.abs(g.coeffs3(x) - sphere_entry.geometry.coeffs3(x)))) for x in pts)
    assert worst <= 1e-5


def test_connection_recovery_refuses_evolution(evolution_entry):
    with pytest.raises(NotFactorizableError) as err:
        pt.connection_from_transport(evolution_entry.transport, [np.array([0.0]), np.array([0.5])])
    assert err.value.verdicts
    assert all(not v.factorizable for v in err.value.verdicts)


# --- chart handling --------------------------------------------------------------------


def test_transport_refuses_paths_leaving_the_chart(sphere_entry):
    runaway = pt.segment([0.2, 0.0], [-0.5, 0.0])  # crosses the pole collar
    u = pt.FibreVector([0.2, 0.0], [1.0, 0.0])
    with pytest.raises(ChartDomainError):
        sphere_entry.transport.apply(runaway, 0.0, 1.0, u, step=1e-2)


def test_coefficient_field_batches_along_path(sphere_entry):
    lat = pt.latitude(1.0)
    field = path_coefficient_field(sphere_entry.geometry, lat, piece=lat.domain)
    out = field(np.linspace(0.0, 1.0, 5))
    assert out.shape == (5, 2, 2)
    single = pt.coefficients_along_path(sphere_entry.geometry, lat, 0.5)
    assert np.allclose(out[2], single.value)  # grid point 0.5


# --- chunked propagation ---------------------------------------------------------

CHUNK = engine._CHUNK_STEPS


def smooth_geometry(r, seed=7):
    """Smooth random r x r coefficients on the plane, of order one."""
    rng = np.random.default_rng(seed)
    a, b, c = 0.5 * rng.standard_normal((3, r, r, 2))

    def coeffs(x):
        x = np.asarray(x, dtype=float)
        pts = np.atleast_2d(x)
        out = a + b * np.sin(pts[:, 0, None, None, None]) + c * np.cos(2 * pts[:, 1, None, None, None])
        return out[0] if x.ndim == 1 else out

    return pt.BundleGeometry(base_dim=2, fibre_dim=r, coeffs3=coeffs, label=f"smooth{r}")


def scalar_only_geometry():
    """smooth_geometry(2) behind a coeffs3 that takes one point and raises on a batch."""
    geo = smooth_geometry(2)

    def coeffs(x):
        x = np.asarray(x, dtype=float)
        if x.shape != (2,):
            raise ValueError("one point at a time")
        return geo.coeffs3(x)

    return dataclasses.replace(geo, coeffs3=coeffs, label="scalar2")


def test_scalar_only_coefficients_batch_like_the_batched_field():
    xs = np.random.default_rng(5).uniform(-1.0, 1.0, size=(6, 2))
    got = pt.bundles.coeffs3_batch(scalar_only_geometry(), xs)
    assert got.shape == (6, 2, 2, 2)
    assert np.array_equal(got, pt.bundles.coeffs3_batch(smooth_geometry(2), xs))


def grid_geometry():
    axes = [np.linspace(0.0, 2.0, 9), np.linspace(-1.0, 1.0, 7)]
    xx, yy = np.meshgrid(*axes, indexing="ij")
    base = np.random.default_rng(3).standard_normal((2, 2, 2))
    values = np.sin(xx)[..., None, None, None] * base + np.cos(yy)[..., None, None, None] * base.transpose(1, 0, 2)
    return pt.geometry_from_grid(axes, values, fibre_dim=2)


def curve(box):
    """A cubic Bezier path on [0, 1] inside the box ((lo0, hi0), (lo1, hi1))."""
    (lo0, hi0), (lo1, hi1) = box
    ctrl = np.array([[0.2, 0.1], [0.9, 0.3], [0.1, 0.8], [0.7, 0.9]])
    return _bezier_path(np.array([lo0, lo1]) + ctrl * np.array([hi0 - lo0, hi1 - lo1]), (0.0, 1.0))


GEOMETRIES = {
    "r1": (lambda: smooth_geometry(1), ((-1.0, 1.0), (-1.0, 1.0))),
    "sphere": (lambda: pt.get_entry("sphere").geometry, ((0.6, 2.4), (-1.0, 1.0))),
    "r4": (lambda: smooth_geometry(4), ((-1.0, 1.0), (-1.0, 1.0))),
    "scalar-only": (scalar_only_geometry, ((-1.0, 1.0), (-1.0, 1.0))),
    "grid": (grid_geometry, ((0.1, 1.9), (-0.9, 0.9))),
}


def steps_for(n, span=1.0):
    """An explicit step that gives exactly n RK4 steps over the span."""
    return span / n * (1 + 1e-9)


def single_chunk(monkeypatch, run):
    with monkeypatch.context() as m:
        m.setattr(engine, "_CHUNK_STEPS", 10**9)
        return run()


def assert_roundoff_close(chunked, whole):
    scale = max(1.0, float(np.max(np.abs(whole))))
    assert np.max(np.abs(chunked - whole)) <= 1e-13 * scale


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
@pytest.mark.parametrize("backward", [False, True])
def test_chunked_transport_matches_one_chunk(monkeypatch, geometry, n, backward):
    make, box = GEOMETRIES[geometry]
    geo, path = make(), curve(box)
    s, t = (1.0, 0.0) if backward else (0.0, 1.0)

    def run():
        return pt.transport_matrix_over_path(geo, path, s, t, step=steps_for(n)).value

    chunked = run()
    assert chunked.shape == (geo.fibre_dim, geo.fibre_dim)
    assert_roundoff_close(chunked, single_chunk(monkeypatch, run))


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
@pytest.mark.parametrize("backward", [False, True])
def test_chunked_field_integration_matches_one_chunk(monkeypatch, n, backward):
    def field(ts):
        ts = np.atleast_1d(ts)
        return np.cos(3 * ts)[:, None, None] * ROTATION_GEN + np.sin(ts)[:, None, None] * np.eye(2)

    s, t = (1.0, 0.0) if backward else (0.0, 1.0)

    def run():
        m = pt.integrate_transport_matrix(field, s, t, steps_for(n))
        assert m.step == pytest.approx(1.0 / n)
        return m.value

    assert_roundoff_close(run(), single_chunk(monkeypatch, run))


@pytest.mark.parametrize("backward", [False, True])
def test_breakpoint_nudges_land_on_piece_end_chunks(monkeypatch, sphere_entry, backward):
    box = ((0.6, 2.4), (-1.0, 1.0))
    p1 = curve(box)
    p2 = pt.segment(p1.at(1.0), [1.0, -0.5])
    prod = pt.product_canonical(p1, p2)
    assert prod.breakpoints == (0.5,)
    s, t = (1.0, 0.0) if backward else (0.0, 1.0)
    n = 3 * CHUNK + 5  # per piece of length 1/2

    def run():
        return pt.transport_matrix_over_path(sphere_entry.geometry, prod, s, t, step=steps_for(n, 0.5)).value

    calls = []
    original = engine._pass

    def recorder(chunks, sample, **kwargs):
        out = original(chunks, sample, **kwargs)
        calls.extend((a, b, n, (lo, hi), out.shape) for _, a, b, n, lo, hi in chunks)
        return out

    monkeypatch.setattr(engine, "_pass", recorder)
    chunked = run()
    assert [c[2] for c in calls] == [CHUNK, CHUNK, CHUNK, 5] * 2
    # No two of these chunks fit in one pass.
    assert all(shape == (1, 2, 2) for *_, shape in calls)
    nudged = [(i, k) for i, c in enumerate(calls) for k in (0, 1) if c[3][k] != 0.0]
    # Each piece ends at the breakpoint on one side only: the last chunk of
    # the first piece and the first chunk of the second.
    assert nudged == [(3, 1), (4, 0)]
    assert calls[3][1] == 0.5 and calls[4][0] == 0.5
    assert_roundoff_close(chunked, single_chunk(monkeypatch, run))


def test_fine_step_holonomy_memory_does_not_grow_with_step_count(ortho_entry):
    tracemalloc.start()
    try:
        report = pt.holonomy(ortho_entry.transport, pt.latitude(1.0), step=1e-5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(report.angle - 2 * math.pi * (1 - math.cos(1.0))) <= 1e-9
    assert peak < 8e6


# --- evaluation on smooth factors ---------------------------------------------


def bare_arc(start, end):
    """A canonical path without a jet: the integrators read its position and
    velocity evaluators."""
    a, b = np.asarray(start, dtype=float), np.asarray(end, dtype=float)

    def pos(s):
        w = np.asarray(s, dtype=float)[..., None]
        return a + w * (b - a) + 0.1 * np.sin(3 * w) * np.array([1.0, -1.0])

    def vel(s):
        w = np.asarray(s, dtype=float)[..., None]
        return (b - a) + 0.3 * np.cos(3 * w) * np.array([1.0, -1.0])

    return pt.Path(dim=2, domain=(0.0, 1.0), position=pos, velocity=vel, label="bare")


def smooth_factors():
    """Canonical factors of each kind, all inside the sphere chart."""
    return [
        pt.great_circle((1.2, 0.3), (0.4, 0.5), domain=(0.0, 1.0)),
        pt.segment([1.0, -0.4], [1.6, 0.2]),
        pt.latitude(1.3, turns=1 / (2 * math.pi), phi0=-0.5),
        _bezier_path(np.array([[0.9, 0.1], [1.5, 0.6], [1.1, 0.9], [1.7, -0.3]]), (0.0, 1.0)),
        bare_arc([1.4, 0.2], [0.9, -0.6]),
    ]


def joined(p, q):
    """The canonical product of p and q, with a segment bridging any gap."""
    bridge = pt.segment(p.at(1.0), q.at(0.0))
    return pt.product_canonical(p, pt.product_canonical(bridge, q))


def random_nest(rng, depth, top=True):
    """A nest of canonical products, inverses and reparametrizations over the
    smooth factors.  Inside the nest a reparametrization keeps [0, 1], by a
    reversal or a bulge; at the top it stretches the nest onto [-2, 3], a
    slope of 0.2, which is not a power of two."""
    factors = smooth_factors()
    if depth == 0:
        return factors[rng.integers(len(factors))]
    kind = rng.integers(4)
    if kind == 0:
        return joined(random_nest(rng, depth - 1, False), random_nest(rng, depth - 1, False))
    if kind == 1:
        return pt.invert_canonical(random_nest(rng, depth - 1, False))
    p = random_nest(rng, depth - 1, False)
    if kind == 2:
        return pt.product_canonical(p, pt.segment(p.at(1.0), [1.2, 0.0]))
    if top:
        return pt.reparametrize(p, pt.affine_reparametrization((-2.0, 3.0), (0.0, 1.0)))
    if rng.random() < 0.5:
        return pt.reparametrize(p, pt.affine_reparametrization((0.0, 1.0), (0.0, 1.0), reversing=True))
    return pt.reparametrize(p, pt.bulge_reparametrization((0.0, 1.0), (0.0, 1.0), 0.35))


def path_level_field(geometry, path, ts):
    """The coefficient field through the path's own position and velocity."""
    xs = pt.paths.position_at(path, ts)
    vs = pt.paths.velocity_at(path, ts)
    g3 = pt.bundles.coeffs3_batch(geometry, xs)
    return g3[..., 0] * vs[:, 0, None, None] + g3[..., 1] * vs[:, 1, None, None]


def random_pieces(rng, path, count=4):
    """Random subintervals of the smooth pieces of a path."""
    ends = (path.domain[0],) + path.breakpoints + (path.domain[1],)
    for _ in range(count):
        k = rng.integers(len(ends) - 1)
        lo, hi = np.sort(rng.uniform(ends[k], ends[k + 1], size=2))
        yield (ends[k], ends[k + 1]) if rng.random() < 0.5 else (float(lo), float(hi))


@pytest.mark.parametrize("seed", range(12))
def test_field_on_smooth_factor_equals_path_level_field(sphere_entry, seed):
    rng = np.random.default_rng(seed)
    path = random_nest(rng, int(rng.integers(1, 4)))
    if rng.random() < 0.5:
        lo, hi = np.sort(rng.uniform(0.0, 1.0, size=2))
        path = pt.restrict(path, (float(lo), float(hi)))
    geo = sphere_entry.geometry
    for lo, hi in random_pieces(rng, path):
        nudge = 1e-9 * (hi - lo)
        ts = np.concatenate([[lo + nudge, hi - nudge], rng.uniform(lo, hi, size=64)])
        got = path_coefficient_field(geo, path, piece=(lo, hi))(ts)
        assert np.array_equal(got, path_level_field(geo, path, ts))


def test_smooth_part_descends_to_the_innermost_analytic_factor():
    gc, seg, lat, bez, bare = smooth_factors()
    inner = joined(gc, bez)  # gc on [0, 1/2], bridge on [1/2, 3/4], bez on [3/4, 1]
    prod = pt.product_canonical(inner, pt.segment(inner.at(1.0), gc.at(0.0)))
    loop = pt.invert_canonical(prod)
    reverse, first = pt.paths._REVERSAL, pt.paths._FIRST_HALF
    # [0.8, 0.9] of the loop is [0.1, 0.2] of prod, [0.2, 0.4] of inner, [0.4, 0.8] of gc.
    assert pt.paths.smooth_part(loop, 0.8, 0.9) == (gc, (reverse, first, first))
    assert pt.paths.smooth_part(pt.restrict(loop, (0.55, 0.95)), 0.8, 0.9)[0] is gc
    # A piece across a junction stays on the path that owns the junction.
    assert pt.paths.smooth_part(prod, 0.4, 0.6) == (prod, ())
    assert pt.paths.smooth_part(loop, 0.4, 0.6) == (prod, (reverse,))
    # A reparametrization is one more part: [2.1, 2.4] of the stretched loop is [0.82, 0.88] of the loop.
    chi = pt.affine_reparametrization((-2.0, 3.0), (0.0, 1.0))
    assert pt.paths.smooth_part(pt.reparametrize(loop, chi), 2.1, 2.4) == (gc, (chi, reverse, first, first))


def test_jets_equal_position_and_velocity_bit_for_bit(rng):
    bez = smooth_factors()[3]
    reparametrized = pt.reparametrize(bez, pt.bulge_reparametrization((-1.0, 2.0), (0.0, 1.0), 0.4))
    for path in smooth_factors()[:4] + [pt.latitude(0.8, turns=2.0, phi0=5.0), reparametrized]:
        lo, hi = path.domain
        ts = np.concatenate([[lo, hi, -0.0], rng.uniform(lo - 0.1, hi + 0.1, size=200)])
        xs, vs = path.jet(ts)
        assert xs.tobytes() == pt.paths.position_at(path, ts).tobytes()
        assert vs.tobytes() == pt.paths.velocity_at(path, ts).tobytes()


def test_field_over_a_reparametrized_path_calls_the_inner_jet_once_per_chunk(sphere_entry):
    calls = dict(jet=0, position=0, velocity=0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    bez = smooth_factors()[3]
    spied = {name: counted(name, getattr(bez, name)) for name in calls}
    path = pt.reparametrize(dataclasses.replace(bez, **spied), pt.bulge_reparametrization((-1.0, 2.0), (0.0, 1.0), 0.4))
    step = 3.0 / (2 * CHUNK + 5)
    pt.transport_matrix_over_path(sphere_entry.geometry, path, -1.0, 2.0, step=step)
    assert calls == dict(jet=math.ceil(engine._step_count(3.0, step) / CHUNK), position=0, velocity=0)


def test_triangle_transport_evaluates_each_sample_once(monkeypatch, ortho_entry):
    a = pt.great_circle((1.2, -0.3), (0.3, 0.6), domain=(0.0, 1.0))
    b = pt.great_circle(a.at(1.0), (-0.5, 0.1), domain=(0.0, 1.0))
    c = pt.segment(b.at(1.0), a.at(0.0))
    inner = pt.product_canonical(a, b)
    calls = {"position": 0, "velocity": 0, "embedded": 0, "sampled": 0}

    def counted(name, fn):
        def wrapper(s):
            calls[name] += 1
            return fn(s)

        return wrapper

    def spy(path):
        return dataclasses.replace(
            path, position=counted("position", path.position), velocity=counted("velocity", path.velocity)
        )

    loop = spy(pt.product_canonical(spy(inner), c))
    calls.update(position=0, velocity=0)  # the junction check at construction
    embed, rk4 = getattr(pt.paths, "_arc_embed", None), engine._rk4_transitions

    def counting_embed(s, *args):
        calls["embedded"] += np.size(s)
        return embed(s, *args)

    def counting_rk4(g, h, lengths, n_steps, **kwargs):
        calls["sampled"] += g.shape[-1]
        return rk4(g, h, lengths, n_steps, **kwargs)

    monkeypatch.setattr(pt.paths, "_arc_embed", counting_embed, raising=False)
    monkeypatch.setattr(engine, "_rk4_transitions", counting_rk4)
    pt.transport_matrix_over_path(ortho_entry.geometry, loop, 0.0, 1.0, step=1e-4)
    assert calls["position"] == calls["velocity"] == 0
    # The arcs run on [0, 1/4] and [1/4, 1/2], 2500 steps each, and the
    # segment on [1/2, 1], 5000 steps; each chunk of k steps takes 2k + 1 samples.
    def samples(n):
        return sum(2 * min(CHUNK, n - k0) + 1 for k0 in range(0, n, CHUNK))

    assert calls["sampled"] == 2 * samples(2500) + samples(5000)
    assert calls["embedded"] == 2 * samples(2500)


@pytest.mark.parametrize("n", [1, 2, 7, CHUNK])
@pytest.mark.parametrize("span", [(0.0, 1.0), (0.3, -0.7), (1.25, 1.5)])
def test_kernel_samples_the_rk4_nodes_ends_then_midpoints(n, span):
    a, b = span
    h = (b - a) / n
    nudge = (1e-9 * h, 2e-9 * h)
    seen = []

    def sample(chunks, pts):
        seen.append(np.array(pts))
        return np.tile(ROTATION_GEN[:, :, None], (1, 1, len(pts)))

    (out,) = engine._integrate([engine._Chunk(None, a, b, n, *nudge)], sample)
    assert out.shape == (2, 2)
    (pts,) = seen
    expected = a + 0.5 * h * np.arange(2 * n + 1)
    expected[0], expected[-1] = a + nudge[0], b - nudge[1]
    assert np.sort(pts).tobytes() == np.sort(expected).tobytes()
    assert pts[: n + 1].tobytes() == expected[::2].tobytes()
    assert pts[n + 1 :].tobytes() == expected[1::2].tobytes()
