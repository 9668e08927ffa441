import math

import numpy as np
import pytest
from scipy.linalg import expm

import pathtransport as pt
from pathtransport import catalog as catalog_module
from pathtransport.bundles import coeffs3_at, coeffs3_batch
from pathtransport.errors import ChartDomainError, SpecFormatError
from pathtransport.laws import random_paths
from pathtransport.paths import SPHERE_POLE_MARGIN


def test_standard_catalog_ids(catalog):
    assert list(catalog) == ["flat", "sphere", "sphere-orthonormal", "evolution", "nonlinear"]


def test_get_entry_rejects_unknown():
    with pytest.raises(SpecFormatError):
        pt.get_entry("moebius")


# --- flat ----------------------------------------------------------------------


def test_flat_transport_is_identity_everywhere(flat_entry, rng):
    for path in random_paths(rng, 3, dim=2, box=flat_entry.chart_box):
        u = pt.FibreVector(path.at(0.2), rng.standard_normal(2))
        out = flat_entry.transport.apply(path, 0.2, 0.9, u)
        assert np.array_equal(out.components, u.components)


def test_flat_holonomy_is_identity(flat_entry):
    loop_path = pt.segment([0.0, 0.0], [1.0, 0.0])
    loop = pt.product_canonical(loop_path, pt.invert_canonical(loop_path))
    rep = pt.holonomy(flat_entry.transport, loop)
    assert rep.distance_to_identity == 0.0
    assert rep.angle == 0.0


def test_flat_dimensions_are_configurable():
    entry = pt.flat_bundle(3, 4)
    assert entry.geometry.base_dim == 3
    assert entry.geometry.fibre_dim == 4
    assert entry.geometry.coeffs3(np.zeros(3)).shape == (4, 4, 3)


# --- sphere (chart Christoffel symbols) ------------------------------------------


@pytest.mark.parametrize("entry_id", ["sphere", "sphere-orthonormal"])
def test_sphere_paths_reject_exactly_where_the_chart_ends(catalog, entry_id):
    # One pole collar, paths.SPHERE_POLE_MARGIN, for the chart and both path
    # families: a colatitude just inside it and one just outside, near each pole.
    assert catalog_module.SPHERE_POLE_MARGIN is SPHERE_POLE_MARGIN
    contains = catalog[entry_id].geometry.contains
    m = SPHERE_POLE_MARGIN
    for th in (m - 1e-9, m + 1e-9, math.pi - m - 1e-9, math.pi - m + 1e-9):
        inside = m < th < math.pi - m
        assert contains(np.array([th, 0.0])) == inside
        # A meridian arc from colatitude 0.5 (or pi - 0.5) that ends at th.
        start = 0.5 if th < 1.0 else math.pi - 0.5
        families = (
            lambda: pt.latitude(th),
            lambda: pt.great_circle([start, 0.0], [math.copysign(1.0, th - start), 0.0], abs(th - start)),
        )
        for build in families:
            if inside:
                build()
            else:
                with pytest.raises(ChartDomainError):
                    build()


@pytest.mark.parametrize("pole", ["north", "south"])
@pytest.mark.parametrize("offset", [-1e-9, 1e-9, -5e-5])
def test_great_circle_checks_its_closest_approach_to_each_pole(catalog, pole, offset):
    # An arc at unit speed whose closest approach to the pole, at s = 0,
    # lies halfway between two of its 4097 reference samples.
    h = 3 / 4096
    closest = SPHERE_POLE_MARGIN + offset
    th0 = closest if pole == "north" else math.pi - closest
    build = lambda: pt.great_circle(  # noqa: E731
        [th0, 0.0], [0.0, 1 / math.sin(th0)], domain=(-1.5 - h / 2, 1.5 - h / 2), anchor=0.0
    )
    geometry = catalog["sphere"].geometry
    assert geometry.contains(np.array([th0, 0.0])) == (offset > 0)
    if offset > 0:
        arc = build()
        catalog["sphere"].transport.matrix(arc, -1.5 - h / 2, 1.5 - h / 2)
    else:
        with pytest.raises(ChartDomainError):
            build()


def test_sphere_christoffel_values(sphere_entry):
    g = sphere_entry.geometry
    at_equator = coeffs3_at(g, np.array([math.pi / 2, 0.0]))
    assert at_equator[0, 1, 1] == pytest.approx(0.0, abs=1e-15)  # -sin cos at pi/2
    at_quarter = coeffs3_at(g, np.array([math.pi / 4, 1.0]))
    assert at_quarter[1, 0, 1] == pytest.approx(1.0)  # cot(pi/4)
    assert at_quarter[1, 1, 0] == pytest.approx(1.0)
    assert at_quarter[0, 1, 1] == pytest.approx(-0.5)  # -sin cos at pi/4
    # everything else vanishes
    mask = np.zeros((2, 2, 2), dtype=bool)
    mask[0, 1, 1] = mask[1, 0, 1] = mask[1, 1, 0] = True
    assert np.all(at_quarter[~mask] == 0.0)


@pytest.mark.parametrize("entry_id", ["flat", "sphere", "sphere-orthonormal"])
def test_batched_coefficients_are_views_of_samples_last_storage(catalog, entry_id, rng):
    entry = catalog[entry_id]
    lo, hi = np.array(entry.chart_box).T
    xs = rng.uniform(lo[:, None], hi[:, None], size=(lo.size, 33)).T  # as path jets return them
    batch = coeffs3_batch(entry.geometry, xs)
    assert batch.transpose(1, 2, 3, 0).flags.c_contiguous
    per_point = np.stack([entry.geometry.coeffs3(x) for x in xs])
    assert np.ascontiguousarray(batch).tobytes() == per_point.tobytes()


def test_sphere_factorizes(sphere_entry):
    v = pt.factorization_test(sphere_entry.transport, np.array([0.9, -0.4]), step=1e-3)
    assert v.factorizable and v.residual <= 1e-6


def test_orthonormal_frame_coefficients(ortho_entry):
    g = ortho_entry.geometry
    at = coeffs3_at(g, np.array([1.0, 0.3]))
    assert at[0, 1, 1] == pytest.approx(-math.cos(1.0))
    assert at[1, 0, 1] == pytest.approx(math.cos(1.0))
    assert at[0, 0, 0] == 0.0


def test_sphere_frames_agree_on_metric_invariants(sphere_entry, ortho_entry):
    # Same connection in two frames: latitude holonomy matrices are conjugate,
    # so their traces agree.
    lat = pt.latitude(0.8)
    m_chart = pt.holonomy(sphere_entry.transport, lat, step=1e-3).matrix
    m_ortho = pt.holonomy(ortho_entry.transport, lat, step=1e-3).matrix
    assert np.trace(m_chart) == pytest.approx(np.trace(m_ortho), abs=1e-9)


# --- matrix exponential -----------------------------------------------------------


def one_norm(m):
    return np.abs(m).sum(axis=0).max()


def test_expm_matches_scipy_on_random_matrices():
    # Both sides round in their squarings, so the difference grows with the
    # norm: at norm 1e2 scipy itself is up to ~1e-11 away from a 40-digit
    # reference on such matrices, while the in-house value stays ~1e-14 away.
    # The exact references below pin the in-house error at large norms.
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        for norm in np.logspace(-12, 2, 29):
            for _ in range(3):
                a = rng.standard_normal((n, n))
                a *= norm / one_norm(a)
                ref = expm(a)
                assert one_norm(catalog_module.expm(a) - ref) <= 1e-12 * max(1.0, norm) * one_norm(ref), (n, norm)


def test_expm_matches_exact_shifted_nilpotent_exponentials():
    # exp(cI + N) = e^c (I + N + ... + N^(n-1) / (n-1)!) for strictly upper
    # triangular N; with N >= 0 the sum has no cancellation, so it is exact to
    # a few roundings.  These are the non-normal matrices that make scaling
    # and squaring hard.
    rng = np.random.default_rng(8)
    for n in range(2, 7):
        for norm in np.logspace(-12, 2, 29):
            nil = np.triu(rng.uniform(0.0, 1.0, (n, n)), 1)
            nil *= norm / one_norm(nil)
            c = rng.uniform(-0.25, 0.25) * norm
            ref = math.exp(c) * sum(np.linalg.matrix_power(nil, k) / math.factorial(k) for k in range(n))
            got = catalog_module.expm(c * np.eye(n) + nil)
            assert one_norm(got - ref) <= 1e-13 * one_norm(ref), (n, norm)


def test_expm_of_realified_hamiltonians_matches_complex_exponential():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3):
        for tau in (1e-6, 0.3, 2.0, 25.0):
            h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = h + h.conj().T
            j = pt.complex_structure(n)
            got = catalog_module.expm(-tau * (j @ pt.realify_matrix(h)))
            # J H realifies i H, so the real form of exp(-i tau H) is expected.
            ref = pt.realify_matrix(expm(-1j * tau * h))
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, tau * one_norm(h))
            assert np.max(np.abs(got.T @ got - np.eye(2 * n))) <= 1e-12 * max(1.0, tau * one_norm(h))


def test_expm_of_plane_generator_is_rotation_to_four_ulps():
    j = pt.complex_structure(1)
    for tau in np.concatenate([np.linspace(-4.0, 4.0, 401), np.logspace(-12, 0, 25)]):
        rot = np.array([[math.cos(tau), math.sin(tau)], [-math.sin(tau), math.cos(tau)]])
        assert np.max(np.abs(catalog_module.expm(-tau * j) - rot)) <= 4 * np.spacing(1.0), tau


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_expm_of_zero_is_identity_bit_for_bit(n, zero):
    got = catalog_module.expm(np.full((n, n), zero))
    assert got.dtype == np.float64 and np.array_equal(got, np.eye(n))
    assert not np.signbit(got).any()


def test_expm_rejects_non_finite_matrices():
    # A column of zeros must not hide a NaN in another column, nor a finite
    # matrix one in another matrix of the stack.
    for bad in (np.nan, np.inf, -np.inf):
        for m in ([[bad, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, bad]]):
            with pytest.raises(ValueError):
                catalog_module.expm(np.array(m))
        for k in range(3):
            stack = np.tile(0.3 * pt.complex_structure(1), (3, 1, 1))
            stack[k, 1, 0] = bad
            with pytest.raises(ValueError):
                catalog_module.expm(stack)


def pade_choice(m) -> tuple[int, int]:
    """The Pade degree index and squaring count that the 1-norm of m picks."""
    norm = one_norm(m)
    for k, theta in enumerate(catalog_module._THETAS.tolist()):
        if norm <= theta:
            return k, 0
    return k, math.ceil(math.log2(norm / theta))


@pytest.mark.parametrize("n", [2, 4])
def test_a_stack_is_exponentiated_as_each_matrix_alone(n):
    # Every Pade degree, 0 to 6 squarings, zero and -0.0 entries, shuffled
    # into one stack.  (Not 1 x 1: a stack of them forms V and U in one matrix
    # product, where one alone takes a matrix-vector product, which rounds
    # otherwise.)
    rng = np.random.default_rng(n)
    thetas = catalog_module._THETAS.tolist()
    norms = [f * theta for theta in thetas for f in (0.6, 0.9)]
    norms += [f * thetas[-1] * 2.0**s for s in range(1, 7) for f in (0.6, 0.9)]
    mats = [np.zeros((n, n)), np.full((n, n), -0.0)]
    for norm in norms:
        for _ in range(3):
            m = rng.standard_normal((n, n))
            m[rng.random((n, n)) < 0.3] = 0.0
            m *= norm / one_norm(m)
            m[rng.random((n, n)) < 0.2] = -0.0
            mats.append(m)
    stack = np.array(mats)[rng.permutation(len(mats))]
    assert {pade_choice(m) for m in stack if one_norm(m)} == {(k, 0) for k in range(5)} | {(4, s) for s in range(1, 7)}
    got = catalog_module.expm(stack)
    assert got.shape == stack.shape
    assert [m.tobytes() for m in got] == [catalog_module.expm(m).tobytes() for m in stack]
    assert catalog_module.expm(stack[None]).tobytes() == got.tobytes()


def test_expm_is_the_in_house_catalog_function(monkeypatch):
    # benchmarks/tracing.py times the module global catalog.expm, so the
    # evolution transport must look it up there on every call.
    assert catalog_module.expm.__module__ == "pathtransport.catalog"
    calls = []
    monkeypatch.setattr(catalog_module, "expm", lambda a: calls.append(a) or np.broadcast_to(np.eye(2), a.shape))
    pt.evolution_transport().transport.matrix(pt.segment([0.0], [1.0]), 0.0, 0.5)
    assert len(calls) == 1 and calls[0].shape == (1, 2, 2)


# --- evolution transport -----------------------------------------------------------


def test_zero_hamiltonian_is_flat():
    entry = pt.evolution_transport(np.zeros((2, 2)))
    seg = pt.segment([0.0], [1.0])
    u = pt.FibreVector([0.0], [1.0, 2.0])
    out = entry.transport.apply(seg, 0.0, 1.0, u)
    assert np.array_equal(out.components, u.components)
    assert entry.traits.flat and entry.traits.factorizable and entry.traits.parallel


def test_identity_hamiltonian_rotates_plane():
    # H = hbar * Id_C realified: L(t, s) is the plane rotation by -(t - s).
    entry = pt.evolution_transport(np.eye(2), 1.0)
    seg = pt.segment([0.0], [1.0])
    dt = 0.6
    m = entry.transport.matrix(seg, 0.1, 0.1 + dt).value
    j = pt.complex_structure(1)
    assert np.max(np.abs(m - expm(-dt * j))) <= 1e-14
    rot = np.array([[math.cos(dt), math.sin(dt)], [-math.sin(dt), math.cos(dt)]])
    assert np.max(np.abs(m - rot)) <= 1e-12


def test_generator_is_real_form_of_schroedinger_coefficients():
    # Complex coefficients -H/(i hbar) = (i/hbar) H realify to J H / hbar.
    rng = np.random.default_rng(1)
    h_c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h_c = h_c + h_c.conj().T  # hermitian
    hbar = 0.7
    gamma_c = h_c / (1j * hbar) * (-1.0)
    h_r = pt.realify_matrix(h_c)
    j = pt.complex_structure(2)
    assert np.allclose(pt.realify_matrix(gamma_c), j @ h_r / hbar)


def test_evolution_is_not_connection_generated(evolution_entry):
    v = pt.factorization_test(evolution_entry.transport, np.array([0.3]))
    assert not v.factorizable
    assert v.residual >= 0.5


def test_evolution_rejects_odd_dimension_or_bad_hbar():
    with pytest.raises(SpecFormatError):
        pt.evolution_transport(np.eye(3))
    with pytest.raises(SpecFormatError):
        pt.evolution_transport(np.eye(2), hbar=0.0)


# --- nonlinear fixture ----------------------------------------------------------------


def test_nonlinear_fixes_zero_section(nonlinear_entry):
    seg = pt.segment([0.0, 0.0], [1.0, 1.0])
    u = pt.FibreVector([0.0, 0.0], [0.0, 0.0])
    out = nonlinear_entry.transport.apply(seg, 0.0, 1.0, u)
    assert np.array_equal(out.components, [0.0, 0.0])


def test_zero_alpha_gives_flat_behavior():
    entry = pt.nonlinear_fixture(alpha=0.0)
    seg = pt.segment([0.0, 0.0], [1.0, 1.0])
    u = pt.FibreVector([0.0, 0.0], [1.5, -0.5])
    out = entry.transport.apply(seg, 0.0, 1.0, u)
    assert np.array_equal(out.components, u.components)


def test_nonlinear_flow_matches_closed_form(nonlinear_entry):
    # weights c = (1, 1/2): w = c . displacement; u turns by alpha w |u|^2
    seg = pt.segment([0.0, 0.0], [1.0, 0.5])
    u = np.array([1.0, 1.0])
    out = nonlinear_entry.transport.apply(seg, 0.0, 1.0, pt.FibreVector([0.0, 0.0], u))
    angle = 0.1 * (1.0 + 0.5 * 0.5) * 2.0
    assert np.allclose(out.components, [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]] @ u)


def test_nonlinear_flow_is_total(tmp_path):
    # At seed 2713 the parallel axioms send u = (3.10, 0.88) along a weight
    # w = 3.96, where the former map u / (1 - alpha w u) had no value; the
    # twist is defined on the whole fibre and keeps |u|.
    from pathtransport.cli import main

    assert main(["check-laws", "--geometry", "nonlinear", "--seed", "2713", "--out", str(tmp_path)]) == 0
    seg = pt.segment([-2.0, -2.0], [2.0, 2.0])
    u = pt.FibreVector(seg.at(0.0), [30.0, -40.0])
    out = pt.nonlinear_fixture().transport.apply(seg, 0.0, 1.0, u)
    assert abs(np.hypot(*out.components) - 50.0) < 1e-12


# --- declared traits match measured verdicts --------------------------------------------


@pytest.mark.parametrize("entry_id", ["flat", "sphere", "sphere-orthonormal", "evolution", "nonlinear"])
def test_traits_match_measurements(catalog, entry_id, rng):
    entry = catalog[entry_id]
    transport = entry.transport
    path = random_paths(rng, 1, dim=transport.base_dim, box=entry.chart_box)[0]

    # groupoid laws hold for every entry
    assert pt.check_groupoid_laws(transport, path, samples=5, seed=1, step=1e-3).passed

    # linear <-> check_linearity verdict
    lin = pt.check_linearity(transport, path, 0.0, 1.0, seed=1, step=1e-3, tolerance=1e-9)
    assert lin.passed == entry.traits.linear

    # parallel <-> parametrization invariance (includes an orientation reversal)
    par = pt.check_parametrization_laws(transport, path, seed=1, step=1e-3)
    assert par.passed == entry.traits.parallel

    # factorizable <-> factorization verdict (linear realizations only)
    if transport.is_linear:
        center = np.array([0.5 * (a + b) for a, b in entry.chart_box])
        verdict = pt.factorization_test(transport, center, step=1e-3)
        assert verdict.factorizable == entry.traits.factorizable

    # flat <-> identity transport on a probe
    if entry.traits.flat:
        u = pt.FibreVector(path.at(0.0), rng.standard_normal(transport.fibre_dim))
        out = transport.apply(path, 0.0, 1.0, u)
        assert np.allclose(out.components, u.components)


# --- geometry specs ------------------------------------------------------------------------


def test_load_builtin_spec():
    entry = pt.load_geometry_spec("kind = builtin\nbuiltin_id = sphere\n")
    assert entry.id == "sphere"


def test_load_grid_spec(tmp_path):
    rows = []
    for x in np.linspace(-1, 1, 5):
        rows.append(f"{x:.6g},0,0,0,{0.5 * x:.6g}")
    grid = tmp_path / "c.csv"
    grid.write_text("\n".join(rows) + "\n")
    spec = f"kind = grid\nlabel = halfx\nbase_dim = 1\nfibre_dim = 1\ngrid_file = {grid}\n"
    entry = pt.load_geometry_spec(spec)
    assert entry.id == "halfx"
    assert entry.traits.linear and entry.traits.factorizable
    assert coeffs3_at(entry.geometry, np.array([0.4]))[0, 0, 0] == pytest.approx(0.2)
    # transports from this grid honor the laws
    rep = pt.check_groupoid_laws(entry.transport, pt.segment([-0.5], [0.5]), samples=3, seed=0, step=1e-3)
    assert rep.passed


def test_bad_specs_raise():
    with pytest.raises(SpecFormatError):
        pt.load_geometry_spec("kind = builtin\n")
    with pytest.raises(SpecFormatError):
        pt.load_geometry_spec("kind = warp\n")
    with pytest.raises(SpecFormatError):
        pt.load_geometry_spec("this is not key value")
