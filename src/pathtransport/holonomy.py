"""Holonomy of loops under a transport along paths.

For linear transports the holonomy is the transport matrix over the full loop
domain; for generic transports it is the central-difference Jacobian of the
loop map at a chosen fibre point (a linearization, reported as such).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .bundles import FibreVector
from .errors import NotALoopError, NotARotationError
from .paths import JUNCTION_TOL, Path, latitude, position_at
from .transports import TransportAlongPaths

ORTHOGONALITY_TOL = 1e-6
JACOBIAN_STEP = 1e-5


@dataclass(frozen=True)
class HolonomyReport:
    """Loop transport summary.

    ``angle`` and ``distance_to_identity`` are derived from ``matrix``.
    ``angle`` is the loop's rotation angle normalized to [0, 2*pi), present
    only for 2-d fibres whose holonomy matrix is orthogonal within tolerance;
    ``distance_to_identity`` is the max-norm of (matrix - identity).
    """

    loop_id: str
    matrix: np.ndarray
    angle: Optional[float] = field(init=False)
    distance_to_identity: float = field(init=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        try:
            angle = rotation_angle(m) % (2 * math.pi)
        except NotARotationError:
            angle = None
        object.__setattr__(self, "angle", angle)
        object.__setattr__(
            self, "distance_to_identity", float(np.max(np.abs(m - np.eye(m.shape[0]))))
        )


def rotation_angle(m: np.ndarray) -> float:
    """Angle of a proper 2x2 rotation, in (-pi, pi].

    Raises NotARotationError unless the matrix is orthogonal within
    ``ORTHOGONALITY_TOL`` with positive determinant.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise NotARotationError(f"expected a 2x2 matrix, got shape {m.shape}")
    defect = float(np.max(np.abs(m.T @ m - np.eye(2))))
    if defect > ORTHOGONALITY_TOL:
        raise NotARotationError(f"matrix is not orthogonal within {ORTHOGONALITY_TOL:g} (defect {defect:.3e})")
    if float(np.linalg.det(m)) <= 0:
        raise NotARotationError("matrix has non-positive determinant")
    return math.atan2(m[1, 0], m[0, 0])


def holonomy(
    transport: TransportAlongPaths,
    loop: Path,
    *,
    base_vector: Optional[np.ndarray] = None,
    step: float | None = None,
) -> HolonomyReport:
    """Transport around a closed loop (endpoints equal within ``paths.JUNCTION_TOL``),
    summarized as a fibre matrix.

    ``base_vector`` selects the linearization point (central differences of
    width ``JACOBIAN_STEP``) for generic transports (default: the zero fibre
    vector) and is ignored for linear ones.  The 2r perturbed loop transports
    of a generic transport run as one batch, at ``step`` as a linear
    transport's matrix does.
    """
    sigma, tau = loop.domain
    start = position_at(loop, sigma)
    end = position_at(loop, tau)
    gap = float(np.max(np.abs(start - end)))
    if gap > JUNCTION_TOL:
        raise NotALoopError(f"path endpoints differ by {gap:.3e} (tolerance {JUNCTION_TOL:g})")
    r = transport.fibre_dim
    if transport.is_linear:
        m = np.asarray(transport.matrix(loop, sigma, tau, step=step).value)
    else:
        u0 = np.zeros(r) if base_vector is None else np.asarray(base_vector, dtype=float)
        e = JACOBIAN_STEP * np.eye(r)
        requests = [(loop, sigma, tau, FibreVector(start, u0 + sign * e[j])) for j in range(r) for sign in (1, -1)]
        ends = np.array([v.components for v in transport.apply_many(requests, step=step)], dtype=float)
        m = (ends[0::2] - ends[1::2]).T / (2 * JACOBIAN_STEP)
    return HolonomyReport(loop.label or "loop", m)


def latitude_sweep(
    transport: TransportAlongPaths,
    colatitudes: Sequence[float],
    *,
    turns: float = 1.0,
    step: float | None = None,
) -> list[tuple[float, HolonomyReport]]:
    """Holonomy of latitude loops at the given colatitudes."""
    out = []
    for th in colatitudes:
        loop = latitude(float(th), turns=turns)
        out.append((float(th), holonomy(transport, loop, step=step)))
    return out


def angle_gap_mod_2pi(angle: float, target: float) -> float:
    """Distance between two angles on the circle."""
    d = (angle - target) % (2 * math.pi)
    return min(d, 2 * math.pi - d)
