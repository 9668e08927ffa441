import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathtransport as pt
from pathtransport.errors import IntervalError, NotApplicableError
from pathtransport.laws import DEFAULT_TOLERANCE, LawReport, random_paths


# --- report plumbing -----------------------------------------------------------


def test_passed_follows_residual_and_tolerance():
    assert LawReport("x", 1, 1e-7, 1e-6).passed
    assert not LawReport("x", 1, 2e-6, 1e-6).passed
    assert LawReport("x", 1, 1e-6, 1e-6).passed  # boundary counts as pass


def test_merge_takes_worst_residual():
    merged = pt.merge_reports("m", [LawReport("m", 2, 1e-9, 1e-6, seed=5), LawReport("m", 3, 1e-8, 1e-6, seed=6)])
    assert merged.samples == 5
    assert merged.max_residual == 1e-8
    assert merged.seed == 5


def test_report_serializations_are_deterministic():
    reports = [LawReport("groupoid", 10, 1.23456789e-9, 1e-6, seed=1)]
    csv1 = pt.law_reports_csv(reports)
    assert csv1 == pt.law_reports_csv(reports)
    assert "law_id,samples,max_residual,tolerance,passed,seed" in csv1
    assert "1.23456789e-09" in csv1
    table = pt.law_reports_table(reports)
    assert "groupoid" in table and "yes" in table


# --- groupoid laws ----------------------------------------------------------------


def test_groupoid_flat_residual_zero(flat_entry, rng):
    path = random_paths(rng, 1, dim=2, box=flat_entry.chart_box)[0]
    rep = pt.check_groupoid_laws(flat_entry.transport, path, samples=10, seed=1, step=1e-3)
    assert rep.max_residual == 0.0
    assert rep.passed


def test_groupoid_degenerate_triple(sphere_entry):
    lat = pt.latitude(1.0)
    rep = pt.check_groupoid_laws(
        sphere_entry.transport, lat, triples=[(2.0, 2.0, 2.0)], u_samples=[[1.0, 0.5]], step=1e-3
    )
    assert rep.max_residual == 0.0


def test_groupoid_sphere_within_tolerance(sphere_entry, rng):
    path = random_paths(rng, 1, dim=2, box=sphere_entry.chart_box)[0]
    rep = pt.check_groupoid_laws(sphere_entry.transport, path, samples=50, seed=3, step=1e-3)
    assert rep.passed
    assert rep.max_residual <= 1e-6
    assert rep.seed == 3


# --- parametrization laws -----------------------------------------------------------


def test_parametrization_identity_only_is_exact(sphere_entry):
    lat = pt.latitude(0.8)
    rep = pt.check_parametrization_laws(
        sphere_entry.transport,
        lat,
        subintervals=[(1.0, 4.0)],
        reparams=[pt.identity_reparametrization(lat.domain)],
        seed=2,
        step=1e-3,
    )
    assert rep.passed


def test_parametrization_flat_residual_zero(flat_entry, rng):
    path = random_paths(rng, 1, dim=2, box=flat_entry.chart_box)[0]
    rep = pt.check_parametrization_laws(flat_entry.transport, path, seed=2, step=1e-3)
    assert rep.max_residual == 0.0


def test_parametrization_quadratic_change_on_sphere(sphere_entry):
    # chi(s) = s^2 scaled onto the path domain
    lat = pt.latitude(1.1)
    hi = lat.domain[1]
    chi = pt.Reparametrization(
        (0.0, 1.0),
        (0.0, hi),
        lambda s: hi * np.asarray(s, dtype=float) ** 2,
        lambda s: 2 * hi * np.asarray(s, dtype=float),
    )
    rep = pt.check_parametrization_laws(
        sphere_entry.transport, lat, subintervals=[(0.5, 4.0)], reparams=[chi], seed=4, step=1e-3
    )
    assert rep.passed
    assert rep.max_residual <= 1e-6


def test_evolution_fails_reparametrization_but_not_restriction(evolution_entry, rng):
    # Constant coefficients: restrictions are respected, parameter changes are
    # not; this is exactly why the evolution transport admits no connection.
    path = random_paths(rng, 1, dim=1, box=evolution_entry.chart_box)[0]
    only_restriction = pt.check_parametrization_laws(
        evolution_entry.transport,
        path,
        reparams=[pt.identity_reparametrization(path.domain)],
        seed=5,
    )
    assert only_restriction.passed
    squeeze = pt.affine_reparametrization((0.0, 0.5), (0.0, 1.0))
    with_reparam = pt.check_parametrization_laws(
        evolution_entry.transport, path, subintervals=[(0.0, 1.0)], reparams=[squeeze], seed=5
    )
    assert not with_reparam.passed
    assert with_reparam.max_residual > 1e-3


# --- parallel axioms ------------------------------------------------------------------


def fixtures_for(entry, rng, count=3):
    return pt.make_parallel_fixtures(random_paths(rng, count, dim=entry.transport.base_dim, box=entry.chart_box))


def test_parallel_axioms_flat_all_zero(flat_entry, rng):
    psi = pt.parallel_from_transport(flat_entry.transport)
    reports = pt.check_parallel_axioms(psi, fixtures_for(flat_entry, rng), seed=1)
    assert [r.law_id for r in reports] == [
        "reparametrization-invariance",
        "inverse-path",
        "product-path",
        "point-identity",
    ]
    assert all(r.max_residual == 0.0 for r in reports)


def test_product_with_inverse_path_is_identity(sphere_entry, rng):
    # gamma * gamma^- transports back to the start: combine inverse and product laws
    psi = pt.parallel_from_transport(sphere_entry.transport)
    path = random_paths(rng, 1, dim=2, box=sphere_entry.chart_box)[0]
    loop = pt.product_canonical(path, pt.invert_canonical(path))
    u = pt.FibreVector(path.at(0.0), [0.7, -0.2])
    out = psi.apply(loop, u)
    assert np.max(np.abs(out.components - u.components)) <= 1e-6


def test_parallel_axioms_sphere_within_tolerance(sphere_entry, rng):
    psi = pt.parallel_from_transport(sphere_entry.transport)
    reports = pt.check_parallel_axioms(psi, fixtures_for(sphere_entry, rng), seed=2)
    assert all(r.passed for r in reports)
    assert all(r.max_residual <= 1e-6 for r in reports)


def test_product_law_on_split_latitude_arc(sphere_entry):
    # composing the transports over the two halves of a latitude arc agrees
    # with transporting over the whole arc
    arc = pt.reparametrize(
        pt.restrict(pt.latitude(math.pi / 3), (0.0, 3.0)),
        pt.affine_reparametrization((0.0, 1.0), (0.0, 3.0)),
    )
    left, right = pt.split_canonical(arc)
    psi = pt.parallel_from_transport(sphere_entry.transport)
    u = pt.FibreVector(arc.at(0.0), np.array([1.0, 0.0]))
    whole = psi.apply(pt.product_canonical(left, right), u)
    stepwise = psi.apply(right, psi.apply(left, u))
    direct = psi.apply(arc, u)
    assert np.max(np.abs(whole.components - stepwise.components)) <= 1e-6
    assert np.max(np.abs(whole.components - direct.components)) <= 1e-6


# --- smoothness conditions ---------------------------------------------------------------


def test_smoothness_flat_residuals_vanish(flat_entry, rng):
    path = random_paths(rng, 1, dim=2, box=flat_entry.chart_box)[0]
    rep = pt.check_smoothness_conditions(flat_entry.transport, path, 0.5, seed=1)
    assert rep.max_residual == 0.0


def test_smoothness_latitude_against_tangent_great_circle(sphere_entry):
    # Two paths sharing position and velocity at the probe parameter must lift
    # with the same tangent; compare a latitude circle against its tangent
    # great circle, and both against the coefficient contraction.
    theta0 = math.pi / 3
    lat = pt.latitude(theta0)
    s0 = 2.0
    x0 = lat.at(s0)
    v0 = pt.tangent(lat, s0)
    gc = pt.great_circle(x0, v0, domain=(-0.3, 0.3), anchor=0.0)
    u = pt.FibreVector(x0, np.array([0.8, 0.4]))
    h = 1e-3
    _, fib_lat = pt.lift_tangent(sphere_entry.transport, lat, s0, u, h)
    _, fib_gc = pt.lift_tangent(sphere_entry.transport, gc, 0.0, u, h)
    assert np.max(np.abs(fib_lat - fib_gc)) <= 1e-5
    analytic = -pt.coefficients_along_path(sphere_entry.geometry, lat, s0).value @ u.components
    assert np.max(np.abs(fib_lat - analytic)) <= 1e-5
    assert np.max(np.abs(fib_gc - analytic)) <= 1e-5


def test_smoothness_check_passes_on_sphere(sphere_entry, rng):
    path = random_paths(rng, 1, dim=2, box=sphere_entry.chart_box)[0]
    rep = pt.check_smoothness_conditions(sphere_entry.transport, path, 0.5, seed=3)
    assert rep.passed
    assert rep.max_residual <= 1e-5


def test_lift_tangent_converges_second_order(sphere_entry):
    lat = pt.latitude(1.0)
    u = pt.FibreVector(lat.at(2.0), np.array([1.0, 0.5]))
    analytic = -pt.coefficients_along_path(sphere_entry.geometry, lat, 2.0).value @ u.components
    errs = []
    for h in (2e-2, 1e-2, 5e-3):
        _, fib = pt.lift_tangent(sphere_entry.transport, lat, 2.0, u, h)
        errs.append(float(np.max(np.abs(fib - analytic))))
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


def test_smoothness_not_applicable_for_generic(nonlinear_entry):
    seg = pt.segment([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(NotApplicableError):
        pt.check_smoothness_conditions(nonlinear_entry.transport, seg, 0.5)


@pytest.mark.parametrize("h", [0.0, -1e-3])
def test_a_difference_width_that_is_not_positive_is_rejected(sphere_entry, h):
    # A zero width divided by zero (NaN tangents, a NaN residual); a
    # negative one passed the domain check and differenced backward.  A NaN
    # width already failed the domain check.
    lat = pt.latitude(1.0)
    u = pt.FibreVector(lat.at(2.0), [1.0, 0.0])
    with pytest.raises(IntervalError):
        pt.lift_tangent(sphere_entry.transport, lat, 2.0, u, h)
    with pytest.raises(IntervalError):
        pt.check_smoothness_conditions(sphere_entry.transport, lat, 2.0, u, h=h)


def test_smoothness_detects_evolution_transport(evolution_entry):
    # The lift tangent of the evolution transport ignores the probe velocity,
    # so the linear-combination condition fails: consistent with it not being
    # generated by any connection.
    seg = pt.segment([-0.5], [0.5], domain=(0.0, 1.0))
    rep = pt.check_smoothness_conditions(evolution_entry.transport, seg, 0.5, seed=1)
    assert not rep.passed
    assert rep.max_residual > 0.1


# --- linearity -------------------------------------------------------------------------


def test_linearity_matrix_transports(sphere_entry, evolution_entry, rng):
    lat = pt.latitude(1.2)
    rep = pt.check_linearity(sphere_entry.transport, lat, 0.0, 3.0, seed=1, step=1e-3)
    assert rep.passed and rep.max_residual <= 1e-12
    seg = pt.segment([0.0], [1.0])
    rep2 = pt.check_linearity(evolution_entry.transport, seg, 0.0, 1.0, seed=1)
    assert rep2.passed


def test_linearity_trivial_combination(flat_entry):
    seg = pt.segment([0.0, 0.0], [1.0, 0.0])
    rep = pt.check_linearity(
        flat_entry.transport, seg, 0.0, 1.0, sample_pairs=[(1.0, 0.0, np.array([1.0, 2.0]), np.array([0.0, 0.0]))]
    )
    assert rep.max_residual == 0.0


def test_linearity_fails_on_nonlinear_fixture(nonlinear_entry):
    seg = pt.segment([0.0, 0.0], [1.0, 0.5])
    pairs = [(1.0, 1.0, np.array([1.0, 1.0]), np.array([1.0, 1.0]))]
    rep = pt.check_linearity(nonlinear_entry.transport, seg, 0.0, 1.0, sample_pairs=pairs)
    assert not rep.passed
    assert rep.max_residual > 1e-3


# --- topological mode --------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
)
def test_groupoid_laws_hold_exactly_for_the_flow_fixture(r_, s_, t_, u1, u2):
    # The closed-form flow composes exactly, so the laws hold to round-off for
    # arbitrary parameter triples, independent of any integrator.
    entry = pt.nonlinear_fixture()
    path = pt.segment([0.0, 0.0], [1.0, 0.5])
    u = pt.FibreVector(path.at(r_), np.array([u1, u2]))
    T = entry.transport
    v = T.apply(path, r_, s_, u)
    w = T.apply(path, s_, t_, v)
    direct = T.apply(path, r_, t_, u)
    assert np.allclose(w.components, direct.components, atol=1e-12)
    back = T.apply(path, t_, s_, w)
    assert np.allclose(back.components, v.components, atol=1e-12)


@pytest.mark.parametrize("entry_id", ["flat", "sphere", "sphere-orthonormal", "evolution", "nonlinear"])
def test_topological_mode_implication(catalog, entry_id, rng):
    # Whenever groupoid + parametrization pass at tolerance eps, the derived
    # parallel transport satisfies the four axioms at 10 eps on the same
    # fixtures.  Entries that fail the premises (the evolution transport) are
    # exempt -- and must genuinely fail them.
    entry = catalog[entry_id]
    eps = DEFAULT_TOLERANCE
    paths = random_paths(rng, 3, dim=entry.transport.base_dim, box=entry.chart_box)
    premises = []
    for i, path in enumerate(paths):
        premises.append(pt.check_groupoid_laws(entry.transport, path, samples=5, seed=10 + i, step=1e-3, tolerance=eps))
        premises.append(pt.check_parametrization_laws(entry.transport, path, seed=10 + i, step=1e-3, tolerance=eps))
    if all(r.passed for r in premises):
        psi = pt.parallel_from_transport(entry.transport)
        fixtures = pt.make_parallel_fixtures(paths)
        axioms = pt.check_parallel_axioms(psi, fixtures, seed=11, tolerance=10 * eps)
        assert all(r.passed for r in axioms), entry_id
    else:
        assert entry_id == "evolution"


# --- the Bezier fixtures' evaluators ---------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 3),
    sub=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
    bulge=st.floats(-0.9, 0.9),
    params=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
)
def test_scalar_and_batched_fixture_evaluations_agree_bit_for_bit(seed, dim, sub, bulge, params):
    # A scalar lookup computes each coordinate in floats; it must give the
    # batched evaluator's bits, on the fixtures, their restrictions and their
    # reparametrizations.
    from pathtransport.paths import position_at, velocity_at

    rng = np.random.default_rng(seed)
    path = random_paths(rng, 1, dim=dim, box=[(-2.0, 3.0)] * dim)[0]
    piece = pt.restrict(path, tuple(sub))
    derived = [
        path,
        piece,
        pt.reparametrize(path, pt.affine_reparametrization((0.0, 1.0), (0.0, 1.0), reversing=True)),
        pt.reparametrize(path, pt.bulge_reparametrization((-1.0, 2.0), (0.0, 1.0), bulge)),
        pt.reparametrize(piece, pt.affine_reparametrization((0.0, 1.0), piece.domain)),
    ]
    for p in derived:
        lo, hi = p.domain
        ss = np.array([lo, hi] + [lo + (hi - lo) * u for u in params])
        xs, vs = position_at(p, ss), velocity_at(p, ss)
        for s, x, v in zip(ss.tolist(), xs, vs):
            assert position_at(p, s).tobytes() == x.tobytes(), (p.label, s)
            assert velocity_at(p, s).tobytes() == v.tobytes(), (p.label, s)
