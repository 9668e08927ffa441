import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathtransport as pt
from pathtransport.bundles import coeffs3_at
from pathtransport.errors import ChartDomainError, SpecFormatError


def sphere_geometry():
    return pt.sphere_levi_civita().geometry


def brute_force_two_index(g3, comps):
    r, _, n = g3.shape
    out = np.zeros((r, n))
    for a in range(r):
        for mu in range(n):
            for b in range(r):
                out[a, mu] -= g3[a, b, mu] * comps[b]
    return out


def test_two_index_flat_is_zero(flat_entry):
    p = pt.FibreVector([0.3, -0.4], [1.0, 2.0])
    assert np.all(pt.two_index_at(flat_entry.geometry, p) == 0.0)


def test_two_index_zero_section_is_zero():
    g = sphere_geometry()
    p = pt.FibreVector([1.0, 0.5], [0.0, 0.0])
    assert np.all(pt.two_index_at(g, p) == 0.0)


def test_two_index_sphere_matches_brute_force_contraction():
    g = sphere_geometry()
    x = np.array([math.pi / 3, 0.0])
    comps = np.array([1.0, 0.0])
    got = pt.two_index_at(g, pt.FibreVector(x, comps))
    expected = brute_force_two_index(coeffs3_at(g, x), comps)
    assert np.allclose(got, expected, atol=0)
    # the only nonzero entry comes from G^phi_{theta,phi} * u^theta
    assert got[1, 1] == pytest.approx(-1.0 / math.tan(math.pi / 3))
    assert got[0, 0] == 0.0


@settings(max_examples=30, deadline=None)
@given(
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
)
def test_two_index_linear_in_components(alpha, beta, u1, u2):
    g = sphere_geometry()
    x = np.array([1.1, 0.4])
    p = np.array([u1, u2])
    q = np.array([u2 - u1, 0.5 * u1])
    lhs = pt.two_index_at(g, pt.FibreVector(x, alpha * p + beta * q))
    rhs = alpha * pt.two_index_at(g, pt.FibreVector(x, p)) + beta * pt.two_index_at(g, pt.FibreVector(x, q))
    assert np.allclose(lhs, rhs, atol=1e-12, rtol=1e-12)


def test_connection_matrices_flat(flat_entry):
    mats = pt.connection_matrices_at(flat_entry.geometry, np.zeros(2))
    assert len(mats) == 2
    assert all(np.all(m == 0.0) for m in mats)


def test_connection_matrices_scalar_readback():
    g = pt.BundleGeometry(
        base_dim=1,
        fibre_dim=1,
        coeffs3=lambda x: np.asarray(x, dtype=float).reshape(-1)[..., None, None, None][0]
        if np.asarray(x).ndim == 1
        else np.asarray(x, dtype=float)[:, :, None, None],
        label="1d",
    )
    (m,) = pt.connection_matrices_at(g, np.array([0.7]))
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx(0.7)


def test_connection_matrices_sphere_equator_entry():
    g = sphere_geometry()
    mats = pt.connection_matrices_at(g, np.array([math.pi / 2, 0.3]))
    # G^theta_{phi,phi} = -sin cos vanishes on the equator
    assert mats[1][0, 1] == pytest.approx(0.0, abs=1e-15)


def test_connection_matrices_consistent_with_two_index():
    g = sphere_geometry()
    x = np.array([0.8, -0.3])
    comps = np.array([0.5, -1.5])
    mats = pt.connection_matrices_at(g, x)
    stacked = -np.stack([m @ comps for m in mats], axis=1)
    assert np.array_equal(stacked, pt.two_index_at(g, pt.FibreVector(x, comps)))


def test_two_index_at_refuses_components_by_the_attachment_rule():
    g = sphere_geometry()
    u = pt.FibreVector([1.0, 0.3], [1.0, 0.0, 2.0])
    with pytest.raises(ChartDomainError) as got:
        pt.two_index_at(g, u)
    with pytest.raises(ChartDomainError) as rule:
        pt.bundles.require_attached([u], [u.base_point], g.fibre_dim)
    assert str(got.value) == str(rule.value) == "components of shape (3,) do not match fibre dimension 2"


def test_out_of_chart_is_hard_error():
    g = sphere_geometry()
    with pytest.raises(ChartDomainError):
        pt.two_index_at(g, pt.FibreVector([0.0, 0.0], [1.0, 0.0]))
    with pytest.raises(ChartDomainError):
        pt.connection_matrices_at(g, np.array([math.pi, 0.0]))


def test_fibre_vector_arrays_are_frozen():
    p = pt.FibreVector([0.1, 0.2], [1.0, 2.0])
    with pytest.raises(ValueError):
        p.components[0] = 3.0


# --- realified complex fibres -------------------------------------------------


def test_complex_structure_squares_to_minus_identity():
    j = pt.complex_structure(3)
    assert np.array_equal(j @ j, -np.eye(6))


def test_realify_matrix_respects_products_and_i_action():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.allclose(pt.realify_matrix(a @ b), pt.realify_matrix(a) @ pt.realify_matrix(b))
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert np.allclose(pt.realify_vector(1j * v), pt.complex_structure(2) @ pt.realify_vector(v))
    assert np.allclose(pt.realify_matrix(1j * np.eye(2)), pt.complex_structure(2))


# --- grid-backed geometries ---------------------------------------------------


def write_linear_grid(tmp_path, xs):
    # n = 1, r = 1 field G(x) = x: rows (x, a, b, mu, value)
    lines = [f"{x:.10g},0,0,0,{x:.10g}" for x in xs]
    f = tmp_path / "grid.csv"
    f.write_text("\n".join(lines) + "\n")
    return f


def test_grid_geometry_interpolates_linear_field_exactly(tmp_path):
    f = write_linear_grid(tmp_path, np.linspace(-1.0, 1.0, 5))
    g = pt.grid_geometry_from_csv(str(f), base_dim=1, fibre_dim=1)
    assert coeffs3_at(g, np.array([0.33]))[0, 0, 0] == pytest.approx(0.33)
    assert g.chart_box == ((-1.0, 1.0),)
    with pytest.raises(ChartDomainError):
        coeffs3_at(g, np.array([1.5]))


def test_grid_geometry_rejects_incomplete_files(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("0,0,0,0,1.0\n1,0,0,0,2.0\n0.5,0,0,0,1.5\n")
    g = pt.grid_geometry_from_csv(str(f), base_dim=1, fibre_dim=1)  # complete 3-point grid
    f2 = tmp_path / "bad2.csv"
    f2.write_text("0,0,0,0,1.0\n1,0,1,0,2.0\n")  # index out of range for r=1
    with pytest.raises(SpecFormatError):
        pt.grid_geometry_from_csv(str(f2), base_dim=1, fibre_dim=1)
    f3 = tmp_path / "bad3.csv"
    f3.write_text("0,0,0,0,1.0\n")
    pt.grid_geometry_from_csv(str(f3), base_dim=1, fibre_dim=1)
    f4 = tmp_path / "bad4.csv"
    f4.write_text("0,0,0,0,1.0\n1,0,0,0\n")
    with pytest.raises(SpecFormatError):
        pt.grid_geometry_from_csv(str(f4), base_dim=1, fibre_dim=1)


def test_grid_transport_matches_closed_form(tmp_path):
    # G(x) = x on a fine grid: transport along x(s) = s from 0 to 1 solves
    # dL/ds = -s L, so L = exp(-1/2).
    xs = np.linspace(-1.2, 1.2, 241)
    f = write_linear_grid(tmp_path, xs)
    g = pt.grid_geometry_from_csv(str(f), base_dim=1, fibre_dim=1)
    transport = pt.connection_transport(g)
    seg = pt.segment([0.0], [1.0])
    m = transport.matrix(seg, 0.0, 1.0, step=1e-3)
    # the grid interpolation is exact for a linear field, so only RK4 error remains
    assert m.value[0, 0] == pytest.approx(math.exp(-0.5), abs=1e-9)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fibre_vector_rejects_non_finite_base_points(bad):
    with pytest.raises(ChartDomainError):
        pt.FibreVector([1.0, bad], [1.0, 0.0])
    with pytest.raises(ChartDomainError):
        pt.FibreVector(bad, [1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fibre_vector_rejects_non_finite_components(bad):
    with pytest.raises(ChartDomainError):
        pt.FibreVector([1.0, 0.0], [1.0, bad])
