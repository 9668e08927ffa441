import math

import numpy as np
import pytest

import pathtransport as pt
from pathtransport.errors import NotALoopError, NotARotationError
from pathtransport.holonomy import angle_gap_mod_2pi
from pathtransport.laws import random_paths


def deficit(theta0: float) -> float:
    return 2 * math.pi * (1 - math.cos(theta0))


def closed_loop_from(path):
    return pt.product_canonical(path, pt.invert_canonical(path))


# --- rotation_angle -----------------------------------------------------------


def test_rotation_angle_identity_is_zero():
    assert pt.rotation_angle(np.eye(2)) == 0.0


def test_rotation_angle_quarter_turn():
    assert pt.rotation_angle(np.array([[0.0, -1.0], [1.0, 0.0]])) == pytest.approx(math.pi / 2)


def test_rotation_angle_rejects_non_rotations():
    # A shear, a reflection and a 3 x 3 matrix.
    for m in (np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([[1.0, 0.0], [0.0, -1.0]]), np.eye(3)):
        with pytest.raises(NotARotationError):
            pt.rotation_angle(m)
        # A report on such a matrix derives no angle, only the distance to I.
        report = pt.HolonomyReport("r", m)
        assert report.angle is None
        assert report.distance_to_identity == float(np.max(np.abs(m - np.eye(len(m)))))


@pytest.mark.parametrize("angle", [-2.5, -0.3, 0.0, 0.3, 0.7, 3.0])
def test_rotation_angle_roundtrip(angle):
    m = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    assert pt.rotation_angle(m) == pytest.approx(angle)
    report = pt.HolonomyReport("r", m)
    assert report.angle == pytest.approx(angle % (2 * math.pi))
    assert report.distance_to_identity == float(np.max(np.abs(m - np.eye(2))))


# --- holonomy reports -----------------------------------------------------------


def test_flat_loops_have_identity_holonomy(flat_entry, rng):
    path = random_paths(rng, 1, dim=2, box=flat_entry.chart_box)[0]
    rep = pt.holonomy(flat_entry.transport, closed_loop_from(path))
    assert rep.distance_to_identity == 0.0
    assert rep.angle == 0.0


def test_holonomy_requires_a_loop(sphere_entry):
    arc = pt.restrict(pt.latitude(1.0), (0.0, 3.0))
    with pytest.raises(NotALoopError):
        pt.holonomy(sphere_entry.transport, arc)


def test_latitude_loop_at_pi_over_3_rotates_by_pi(sphere_entry, ortho_entry):
    # The classical deficit 2 pi (1 - cos theta0) equals pi at theta0 = pi/3;
    # there the holonomy matrix is -Id in both frames.
    loop = pt.latitude(math.pi / 3)
    for entry in (sphere_entry, ortho_entry):
        rep = pt.holonomy(entry.transport, loop, step=1e-3)
        assert rep.angle == pytest.approx(math.pi, abs=1e-6)
        assert np.max(np.abs(rep.matrix + np.eye(2))) <= 1e-9


def test_orthonormal_sweep_matches_deficit_formula(ortho_entry):
    for theta0 in np.linspace(0.4, 1.5, 10):
        rep = pt.holonomy(ortho_entry.transport, pt.latitude(float(theta0)), step=1e-3)
        assert rep.angle is not None
        assert angle_gap_mod_2pi(rep.angle, deficit(float(theta0))) <= 1e-6


def test_sweep_is_monotone_towards_the_equator(ortho_entry):
    thetas = np.linspace(0.3, 1.5, 8)
    angles = [rep.angle for _, rep in pt.latitude_sweep(ortho_entry.transport, thetas, step=1e-3)]
    assert all(b > a for a, b in zip(angles, angles[1:]))


def test_chart_frame_matrices_are_metric_but_not_euclidean_orthogonal(sphere_entry):
    # In the coordinate frame the holonomy preserves diag(1, sin^2 theta0),
    # not the Euclidean structure, so no rotation angle is reported at a
    # generic colatitude.
    theta0 = 0.8
    rep = pt.holonomy(sphere_entry.transport, pt.latitude(theta0), step=1e-3)
    assert rep.angle is None
    g = np.diag([1.0, math.sin(theta0) ** 2])
    assert np.max(np.abs(rep.matrix.T @ g @ rep.matrix - g)) <= 1e-9


def test_orthonormal_holonomy_is_orthogonal(ortho_entry, rng):
    path = random_paths(rng, 1, dim=2, box=ortho_entry.chart_box)[0]
    rep = pt.holonomy(ortho_entry.transport, closed_loop_from(path), step=1e-3)
    assert np.max(np.abs(rep.matrix.T @ rep.matrix - np.eye(2))) <= 1e-7


def test_inverse_loop_inverts_the_holonomy(ortho_entry, rng):
    path = random_paths(rng, 1, dim=2, box=ortho_entry.chart_box)[0]
    loop = closed_loop_from(path)
    first = pt.holonomy(ortho_entry.transport, loop, step=1e-3).matrix
    second = pt.holonomy(ortho_entry.transport, pt.invert_canonical(loop), step=1e-3).matrix
    assert np.max(np.abs(second @ first - np.eye(2))) <= 1e-8


def test_concatenated_loops_multiply_in_traversal_order(ortho_entry, rng):
    # two loops at a common base point, built from Bezier arcs sharing a start
    from pathtransport.laws import _bezier_path

    lo = np.array([b[0] for b in ortho_entry.chart_box])
    hi = np.array([b[1] for b in ortho_entry.chart_box])
    pad = 0.15 * (hi - lo)
    c1 = rng.uniform(lo + pad, hi - pad, (4, 2))
    c2 = rng.uniform(lo + pad, hi - pad, (4, 2))
    c2[0] = c1[0]
    loop1 = closed_loop_from(_bezier_path(c1, (0.0, 1.0)))
    loop2 = closed_loop_from(_bezier_path(c2, (0.0, 1.0)))
    both = pt.product_canonical(loop1, loop2)
    h1 = pt.holonomy(ortho_entry.transport, loop1, step=1e-3).matrix
    h2 = pt.holonomy(ortho_entry.transport, loop2, step=1e-3).matrix
    h12 = pt.holonomy(ortho_entry.transport, both, step=1e-3).matrix
    assert np.max(np.abs(h12 - h2 @ h1)) <= 1e-7


def test_generic_holonomy_is_a_jacobian_linearization(nonlinear_entry, sphere_entry, rng):
    # For the displacement-weighted flow every loop has zero weight, so the
    # loop map is the identity and so is its Jacobian.
    path = random_paths(rng, 1, dim=2, box=nonlinear_entry.chart_box)[0]
    loop = closed_loop_from(path)
    rep = pt.holonomy(nonlinear_entry.transport, loop, base_vector=np.array([0.4, -0.2]))
    assert rep.distance_to_identity <= 1e-9

    # A linear transport stripped of its matrix realization linearizes to the
    # same holonomy matrix.
    T = sphere_entry.transport
    opaque = pt.TransportAlongPaths(
        kind="generic",
        base_dim=2,
        fibre_dim=2,
        apply_many_fn=lambda requests, step: T.apply_many(requests, step=1e-3),
        label="opaque-sphere",
    )
    lat = pt.latitude(1.0)
    direct = pt.holonomy(T, lat, step=1e-3).matrix
    linearized = pt.holonomy(opaque, lat, base_vector=np.zeros(2)).matrix
    assert np.max(np.abs(direct - linearized)) <= 1e-6


def test_generic_holonomy_is_one_batch(nonlinear_entry):
    # The 2r perturbed loop transports of the Jacobian reach the realization
    # as one batch, at the holonomy's step.
    inner = nonlinear_entry.transport
    batches = []

    def apply_many_fn(requests, step):
        batches.append((len(requests), step))
        return inner.apply_many(requests, step=step)

    counted = pt.TransportAlongPaths(kind="generic", base_dim=2, fibre_dim=2, apply_many_fn=apply_many_fn)
    loop = closed_loop_from(pt.segment([0.1, 0.2], [0.5, -0.3]))
    rep = pt.holonomy(counted, loop, base_vector=np.array([0.4, -0.2]), step=1e-3)
    assert batches == [(4, 1e-3)]
    assert np.array_equal(rep.matrix, pt.holonomy(inner, loop, base_vector=np.array([0.4, -0.2])).matrix)
