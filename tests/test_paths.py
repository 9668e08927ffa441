import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathtransport as pt
from pathtransport.errors import ChartDomainError, EndpointMismatchError, IntervalError, SpecFormatError
from pathtransport.laws import _bezier_path
from pathtransport.paths import parse_scalar


def grid(n=101):
    return np.linspace(0.0, 1.0, n)


# --- restrict ---------------------------------------------------------------


def test_restrict_full_interval_is_identity():
    p = pt.segment([0.0, 0.0], [1.0, 2.0])
    q = pt.restrict(p, (0.0, 1.0))
    assert q.domain == (0.0, 1.0)
    assert np.allclose(q.at(grid()), p.at(grid()))


def test_restrict_agrees_pointwise():
    p = pt.segment([0.0, 0.0], [1.0, 2.0])
    q = pt.restrict(p, (0.2, 0.7))
    assert np.allclose(q.at(0.5), p.at(0.5))
    assert np.allclose(pt.tangent(q, 0.5), pt.tangent(p, 0.5))


def test_restrict_latitude_hits_antipodal_longitude():
    # Direct evaluation of the parametric formula: phi advances by pi.
    loop = pt.latitude(math.pi / 4)
    half = pt.restrict(loop, (0.0, math.pi))
    expected = np.array([math.pi / 4, math.pi])
    assert np.allclose(half.at(math.pi), expected, atol=1e-15)


def test_restrict_rejects_out_of_range():
    p = pt.segment([0.0], [1.0])
    with pytest.raises(IntervalError):
        pt.restrict(p, (0.5, 1.5))


# --- reparametrize ----------------------------------------------------------


def test_reparametrize_identity_is_noop():
    p = pt.segment([1.0, 0.0], [0.0, 1.0])
    q = pt.reparametrize(p, pt.identity_reparametrization(p.domain))
    assert np.allclose(q.at(grid()), p.at(grid()))


def test_reparametrize_chain_rule_doubles_velocity():
    p = pt.segment([0.0, 0.0], [3.0, -1.0])
    chi = pt.affine_reparametrization((0.0, 0.5), (0.0, 1.0))
    q = pt.reparametrize(p, chi)
    assert q.domain == (0.0, 0.5)
    s = 0.3
    assert np.allclose(q.at(s), p.at(2 * s))
    assert np.allclose(pt.tangent(q, s), 2 * pt.tangent(p, 2 * s))


def test_reparametrize_great_circle_speed():
    # Unit-speed great circle composed with chi(s) = pi s^2: the composed
    # speed at s = 0.5 is |chi'(0.5)| * 1 = pi, measured by finite differences.
    gc = pt.great_circle([math.pi / 2, 0.0], [0.0, 1.0], length=math.pi)
    chi = pt.Reparametrization(
        (0.0, 1.0),
        (0.0, math.pi),
        lambda s: math.pi * np.asarray(s, dtype=float) ** 2,
        lambda s: 2 * math.pi * np.asarray(s, dtype=float),
    )
    comp = pt.reparametrize(gc, chi)
    h = 1e-6
    fd = (comp.at(0.5 + h) - comp.at(0.5 - h)) / (2 * h)
    assert abs(np.linalg.norm(fd) - math.pi) < 1e-6
    assert abs(np.linalg.norm(pt.tangent(comp, 0.5)) - math.pi) < 1e-12


def test_reparametrize_domain_mismatch():
    p = pt.segment([0.0], [1.0])
    chi = pt.affine_reparametrization((0.0, 1.0), (0.0, 2.0))
    with pytest.raises(IntervalError):
        pt.reparametrize(p, chi)


def test_reparametrize_accepts_targets_within_the_domain_tolerance():
    # "Target equals the domain" follows the parameter rule,
    # 1e-12 * max(1, |lo|, |hi|): what restrict accepts, reparametrize accepts.
    long = pt.segment([0.0], [1.0], domain=(0.0, 1e4))
    pt.restrict(long, (0.0, 1e4 + 5e-9))
    pt.reparametrize(long, pt.affine_reparametrization((0.0, 1.0), (0.0, 1e4 + 5e-9)))
    unit = pt.segment([0.0], [1.0])
    pt.reparametrize(unit, pt.affine_reparametrization((0.0, 1.0), (-5e-13, 1.0 + 5e-13)))
    for path, target in ((long, (0.0, 1e4 + 2e-8)), (unit, (0.0, 1.0 + 2e-12)), (unit, (-2e-12, 1.0))):
        with pytest.raises(IntervalError):
            pt.reparametrize(path, pt.affine_reparametrization((0.0, 1.0), target))


def test_reparametrize_rejects_a_nan_target():
    chi = pt.Reparametrization((0.0, 1.0), (math.nan, 1.0), lambda s: np.asarray(s), lambda s: np.ones_like(s))
    with pytest.raises(IntervalError):
        pt.reparametrize(pt.segment([0.0], [1.0]), chi)


def test_reparametrization_validation():
    good = pt.affine_reparametrization((0.0, 1.0), (2.0, 5.0))
    pt.validate_reparametrization(good)
    bad = pt.Reparametrization((0.0, 1.0), (2.0, 5.0), lambda s: 2.0 + np.asarray(s), lambda s: np.ones_like(np.asarray(s)))
    with pytest.raises(IntervalError):
        pt.validate_reparametrization(bad)
    rev = pt.affine_reparametrization((0.0, 1.0), (2.0, 5.0), reversing=True)
    pt.validate_reparametrization(rev)
    assert float(rev.map(0.0)) == 5.0


def test_orientation_is_read_off_the_map(sphere_entry):
    # 1 - s reverses without being told so: the kink of a two-segment path
    # comes back at exactly 0.5, and the transport matches the affine reversal's.
    path = pt.product_canonical(pt.segment([1.0, 0.0], [1.3, 0.4]), pt.segment([1.3, 0.4], [1.1, 0.9]))
    chi = pt.Reparametrization(
        (0.0, 1.0), (0.0, 1.0), lambda s: 1.0 - np.asarray(s, dtype=float), lambda s: np.full_like(s, -1.0, dtype=float)
    )
    reversed_path = pt.reparametrize(path, chi)
    assert reversed_path.breakpoints == (0.5,)
    pt.validate_reparametrization(chi)
    affine = pt.reparametrize(path, pt.affine_reparametrization((0.0, 1.0), (0.0, 1.0), reversing=True))
    assert affine.breakpoints == (0.5,)
    assert pt.reparametrize(path, pt.affine_reparametrization((-2.0, 3.0), (0.0, 1.0))).breakpoints == (0.5,)
    got, want = (sphere_entry.transport.matrix(p, 0.0, 1.0, step=0.3).value for p in (reversed_path, affine))
    assert got.tobytes() == want.tobytes()
    assert chi.orientation == "reversing"
    assert pt.affine_reparametrization((0.0, 2.0), (1.0, 3.0)).orientation == "preserving"


# --- canonical inverse ------------------------------------------------------


def test_invert_constant_path():
    p = pt.constant_path([0.3, 0.4])
    q = pt.invert_canonical(p)
    assert np.allclose(q.at(grid()), p.at(grid()))


def test_invert_is_involution():
    p = pt.segment([0.0, 1.0], [2.0, -1.0])
    q = pt.invert_canonical(pt.invert_canonical(p))
    assert np.allclose(q.at(grid()), p.at(grid()))


def test_invert_swaps_endpoints():
    p = pt.segment([0.0, 0.0], [2.0, 1.0])
    q = pt.invert_canonical(p)
    assert np.allclose(q.at(0.0), [2.0, 1.0])
    assert np.allclose(q.at(1.0), [0.0, 0.0])
    assert np.allclose(pt.tangent(q, 0.5), -pt.tangent(p, 0.5))


def test_invert_requires_canonical_domain():
    p = pt.segment([0.0], [1.0], domain=(0.0, 2.0))
    with pytest.raises(IntervalError):
        pt.invert_canonical(p)


# --- canonical product ------------------------------------------------------


def test_product_first_half_formula():
    p = pt.segment([0.0, 0.0], [1.0, 1.0])
    q = pt.product_canonical(p, pt.constant_path(p.at(1.0)))
    assert np.allclose(q.at(0.25), p.at(0.5))


def test_product_junction_value():
    p1 = pt.segment([0.0], [1.0])
    p2 = pt.segment([1.0], [3.0])
    q = pt.product_canonical(p1, p2)
    assert np.allclose(q.at(0.5), p1.at(1.0))
    assert np.allclose(q.at(0.5), p2.at(0.0))
    assert q.breakpoints == (0.5,)


def test_product_of_quarter_latitude_arcs_matches_half_arc():
    lat = pt.latitude(math.pi / 3)
    q1 = pt.reparametrize(pt.restrict(lat, (0.0, math.pi / 2)), pt.affine_reparametrization((0.0, 1.0), (0.0, math.pi / 2)))
    q2 = pt.reparametrize(
        pt.restrict(lat, (math.pi / 2, math.pi)), pt.affine_reparametrization((0.0, 1.0), (math.pi / 2, math.pi))
    )
    prod = pt.product_canonical(q1, q2)
    half = pt.reparametrize(pt.restrict(lat, (0.0, math.pi)), pt.affine_reparametrization((0.0, 1.0), (0.0, math.pi)))
    ts = grid()
    assert np.max(np.abs(prod.at(ts) - half.at(ts))) < 1e-12
    # the two arcs continue each other smoothly, so the product stays C1
    assert prod.smoothness == pt.paths.C1


def test_product_tag_piecewise_for_genuine_kink():
    p1 = pt.segment([0.0, 0.0], [1.0, 0.0])
    p2 = pt.segment([1.0, 0.0], [1.0, 1.0])
    q = pt.product_canonical(p1, p2)
    assert q.smoothness == pt.paths.PIECEWISE_C1


def test_product_endpoint_mismatch():
    p1 = pt.segment([0.0], [1.0])
    p2 = pt.segment([1.1], [2.0])
    with pytest.raises(EndpointMismatchError):
        pt.product_canonical(p1, p2)
    # within tolerance is accepted
    p3 = pt.segment([1.0 + 1e-12], [2.0])
    pt.product_canonical(p1, p3)


# --- tangent ----------------------------------------------------------------


def test_tangent_of_constant_path_is_zero():
    p = pt.point_path(0.7, [1.0, 2.0])
    assert np.allclose(pt.tangent(p, 0.7), [0.0, 0.0])


def test_tangent_of_segment_is_exact():
    p = pt.segment([1.0, 1.0], [2.0, 3.0])
    assert np.allclose(pt.tangent(p, 0.25), [1.0, 2.0])


def test_tangent_fd_matches_analytic_on_latitude():
    lat = pt.latitude(0.9)
    bare = pt.Path(dim=2, domain=lat.domain, position=lat.position, velocity=None)
    fd = pt.tangent(bare, 0.0, h=1e-5)
    assert np.max(np.abs(fd - np.array([0.0, 1.0]))) <= 1e-8


def test_tangent_fd_second_order():
    gc = pt.great_circle([1.0, 0.0], [0.3, 0.8], length=1.5)
    bare = pt.Path(dim=2, domain=gc.domain, position=gc.position, velocity=None)
    errs = []
    for h in (2e-2, 1e-2, 5e-3):
        errs.append(np.max(np.abs(pt.tangent(bare, 0.7, h=h) - pt.tangent(gc, 0.7))))
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


# --- stationary paths ---------------------------------------------------------


def test_line_through_zero_direction_is_stationary_on_its_interval():
    x = np.array([1.0, 0.5])
    p = pt.line_through(x, 0.0 * np.array([0.3, -0.2]), 0.25)
    assert p.domain == (-0.25, 0.25)
    ts = np.linspace(-0.25, 0.25, 7)
    assert np.array_equal(pt.paths.velocity_at(p, ts), np.zeros((7, 2)))
    assert np.array_equal(pt.paths.position_at(p, ts), np.tile(x, (7, 1)))


def test_line_through_treats_directions_up_to_1e_8_as_zero():
    x = [1.0, 0.5]
    for direction in ([1e-8, 0.0], [-1e-8, 1e-8], [0.0, -0.0]):
        assert pt.line_through(x, direction).label == "constant", direction
    for direction in ([2e-8, 0.0], [0.0, -2e-8]):
        assert pt.line_through(x, direction).label == "segment", direction


def test_point_path_keeps_its_degenerate_domain_and_label():
    p = pt.point_path(0.7, [1.0, 2.0])
    assert p.domain == (0.7, 0.7)
    assert p.label == "point"
    assert p.is_point
    assert np.array_equal(p.at(0.7), [1.0, 2.0])
    assert np.array_equal(pt.paths.velocity_at(p, 0.7), [0.0, 0.0])
    assert np.array_equal(pt.paths.velocity_at(p, np.array([0.7, 0.7])), np.zeros((2, 2)))


# --- scalar-only evaluators ------------------------------------------------------


def scalar_only(fn):
    """An evaluator that takes one float and raises on anything else."""

    def wrapped(s):
        if not isinstance(s, float):
            raise TypeError("one float parameter at a time")
        return fn(s)

    return wrapped


def parabola(s):
    return np.array([1.0 + 0.2 * s, 0.3 * s * s])


def parabola_velocity(s):
    return np.array([0.2, 0.6 * s]) if np.ndim(s) == 0 else np.stack([np.full_like(s, 0.2), 0.6 * s], axis=1)


def batched_parabola():
    return pt.Path(
        dim=2,
        domain=(0.0, 1.0),
        position=lambda s: np.stack([1.0 + 0.2 * s, 0.3 * s * s], axis=-1),
        velocity=parabola_velocity,
    )


def scalar_parabola():
    return pt.Path(dim=2, domain=(0.0, 1.0), position=scalar_only(parabola), velocity=scalar_only(parabola_velocity))


def test_scalar_only_evaluators_through_the_adapters():
    p, q = scalar_parabola(), batched_parabola()
    ts = np.linspace(0.0, 1.0, 9)
    for at in (pt.paths.position_at, pt.paths.velocity_at):
        assert at(p, 0.5).shape == (2,)
        assert np.array_equal(at(p, 0.5), at(q, 0.5))
        assert at(p, ts).shape == (9, 2)
        assert np.array_equal(at(p, ts), at(q, ts))
    with pytest.raises(TypeError):
        p.position(ts)


def test_scalar_only_path_transports_like_its_batched_twin(sphere_entry):
    geo = sphere_entry.geometry
    m_scalar = pt.transport_matrix_over_path(geo, scalar_parabola(), 0.0, 1.0, step=1e-2)
    m_batched = pt.transport_matrix_over_path(geo, batched_parabola(), 0.0, 1.0, step=1e-2)
    assert np.array_equal(m_scalar.value, m_batched.value)


# --- properties -------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_reparametrized_position_is_composition(s, a, b):
    p = pt.segment([a, 0.0], [b, 1.0])
    chi = pt.bulge_reparametrization((0.0, 1.0), (0.0, 1.0), 0.5)
    q = pt.reparametrize(p, chi)
    assert np.allclose(q.at(s), p.at(float(chi.map(s))), atol=1e-12)


def test_reparametrized_position_composition_on_100_samples(rng):
    gc = pt.great_circle([1.3, -0.2], [0.4, 0.7], length=1.0, domain=(0.0, 1.0))
    chi = pt.bulge_reparametrization((-1.0, 2.0), (0.0, 1.0), -0.3)
    q = pt.reparametrize(gc, chi)
    ss = rng.uniform(-1.0, 2.0, size=100)
    assert np.max(np.abs(q.at(ss) - gc.at(np.asarray(chi.map(ss))))) <= 1e-13


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 1.0))
def test_invert_involution_pointwise(s):
    gc = pt.great_circle([1.2, 0.3], [0.5, 0.4], length=1.0, domain=(0.0, 1.0))
    q = pt.invert_canonical(pt.invert_canonical(gc))
    assert np.allclose(q.at(s), gc.at(s), atol=1e-12)


def test_product_associative_up_to_reparametrization():
    p1 = pt.segment([0.0, 0.0], [1.0, 0.0])
    p2 = pt.segment([1.0, 0.0], [1.0, 1.0])
    p3 = pt.segment([1.0, 1.0], [2.0, 1.0])
    left = pt.product_canonical(pt.product_canonical(p1, p2), p3)
    right = pt.product_canonical(p1, pt.product_canonical(p2, p3))

    # piecewise-affine change with knots 0, 1/2, 3/4, 1 -> 0, 1/4, 1/2, 1
    def chi(t):
        t = np.asarray(t, dtype=float)
        return np.where(t <= 0.5, 0.5 * t, np.where(t <= 0.75, 0.25 + (t - 0.5), 0.5 + 2 * (t - 0.75)))

    ts = grid(201)
    assert np.max(np.abs(right.at(ts) - left.at(chi(ts)))) < 1e-12


# --- builtin families and specs ----------------------------------------------


def test_latitude_closes_and_rejects_poles():
    loop = pt.latitude(math.pi / 3)
    assert np.allclose(loop.at(0.0), loop.at(loop.domain[1]))
    with pytest.raises(ChartDomainError):
        pt.latitude(1e-6)


def test_great_circle_starts_with_prescribed_velocity():
    gc = pt.great_circle([1.0, 0.5], [0.2, 0.7], length=1.0)
    assert np.allclose(gc.at(0.0), [1.0, 0.5], atol=1e-12)
    assert np.allclose(pt.tangent(gc, 0.0), [0.2, 0.7], atol=1e-10)
    with pytest.raises(ChartDomainError):
        pt.great_circle([0.1, 0.0], [-1.0, 0.0], length=0.5)  # runs over the pole


def test_great_circle_azimuth_stays_continuous():
    gc = pt.great_circle([math.pi / 2, 0.0], [0.0, 1.0], length=2 * math.pi - 0.1)
    ts = np.linspace(*gc.domain, 400)
    phis = gc.at(ts)[:, 1]
    assert np.max(np.abs(np.diff(phis))) < 0.1  # no 2*pi jumps


def test_spline_path_roundtrip(tmp_path):
    ss = np.linspace(0.0, 2.0, 21)
    xs = np.stack([np.cos(ss), np.sin(2 * ss)], axis=1)
    fname = tmp_path / "curve.csv"
    rows = "\n".join(",".join(f"{v:.12g}" for v in (s, *x)) for s, x in zip(ss, xs))
    fname.write_text(rows + "\n")
    p = pt.spline_path_from_csv(str(fname))
    assert p.dim == 2
    assert np.allclose(p.at(ss), xs, atol=1e-12)
    mid = pt.tangent(p, 1.0)
    assert np.allclose(mid, [-math.sin(1.0), 2 * math.cos(2.0)], atol=1e-3)


def test_parse_scalar_forms():
    assert parse_scalar("pi") == math.pi
    assert parse_scalar("pi/3") == pytest.approx(math.pi / 3)
    assert parse_scalar("-pi/2") == pytest.approx(-math.pi / 2)
    assert parse_scalar("2pi") == pytest.approx(2 * math.pi)
    assert parse_scalar("0.25") == 0.25
    with pytest.raises(SpecFormatError):
        parse_scalar("one")


def test_parse_path_spec_families():
    seg = pt.parse_path_spec("segment:from=0,0;to=1,1")
    assert np.allclose(seg.at(1.0), [1.0, 1.0])
    lat = pt.parse_path_spec("latitude:pi/3")
    assert np.allclose(lat.at(0.0), [math.pi / 3, 0.0])
    lat2 = pt.parse_path_spec("latitude:colatitude=pi/4;turns=2")
    assert lat2.domain == (0.0, 4 * math.pi)
    con = pt.parse_path_spec("constant:point=0.5,0.25")
    assert np.allclose(con.at(0.7), [0.5, 0.25])
    gc = pt.parse_path_spec("great_circle:point=pi/2,0;direction=0,1;length=pi")
    assert gc.domain == (0.0, math.pi)
    with pytest.raises(SpecFormatError):
        pt.parse_path_spec("helix:radius=1")
    with pytest.raises(SpecFormatError):
        pt.parse_path_spec("segment:from=0,0")


# --- samples-last storage -----------------------------------------------------


def shipped_paths():
    """One path of each shipped family with analytic evaluators."""
    bez = _bezier_path(np.array([[0.9, 0.1], [1.5, 0.6], [1.1, 0.9], [1.7, -0.3]]), (0.0, 1.0))
    gc = pt.great_circle((1.2, 0.3), (0.4, 0.5), domain=(0.0, 1.0))
    return {
        "segment": pt.segment([1.0, -0.4, 0.5], [1.6, 0.2, -0.1]),
        "latitude": pt.latitude(0.8, turns=2.0, phi0=5.0),
        "great_circle": gc,
        "constant": pt.constant_path([0.3, -1.2]),
        "bezier": bez,
        "reparametrized-bezier": pt.reparametrize(bez, pt.bulge_reparametrization((-1.0, 2.0), (0.0, 1.0), 0.4)),
        "reversed-great_circle": pt.reparametrize(
            gc, pt.affine_reparametrization((0.0, 2.0), (0.0, 1.0), reversing=True)
        ),
    }


@pytest.mark.parametrize("name", list(shipped_paths()))
def test_batched_evaluators_return_views_of_samples_last_storage(name, rng):
    path = shipped_paths()[name]
    lo, hi = path.domain
    ts = np.concatenate([[lo, hi], rng.uniform(lo, hi, size=257)])
    outputs = {"position": path.position(ts), "velocity": path.velocity(ts)}
    if path.jet is not None:
        outputs["jet-position"], outputs["jet-velocity"] = path.jet(ts)
    per_scalar = {
        "position": np.stack([path.position(float(t)) for t in ts]),
        "velocity": np.stack([path.velocity(float(t)) for t in ts]),
    }
    for what, out in outputs.items():
        assert out.shape == (ts.size, path.dim), what
        assert out.T.flags.c_contiguous, what
        assert np.ascontiguousarray(out).tobytes() == per_scalar[what.split("-")[-1]].tobytes(), what
