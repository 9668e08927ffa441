"""Transports along paths, parallel transports, and the maps between them.

A transport along paths assigns to every path and parameter pair (s, t) a
fibre map obeying the composition and identity laws; a parallel transport
assigns to every closed-interval path a single fibre map from the start fibre
to the end fibre.  Deriving one from the other is a bijection on behavior:
the parallel transport of a transport is its full-interval map, and the
transport of a parallel transport acts through restrictions (inverting for
backward parameter pairs).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .bundles import BundleGeometry, FibreVector
from .engine import TransportMatrix, transport_matrix_over_path
from .errors import ChartDomainError, InverseUnavailableError, NotApplicableError
from .paths import Path, position_at, restrict

KIND_FROM_CONNECTION = "linear-from-connection"
KIND_LINEAR_CUSTOM = "linear-custom"
KIND_GENERIC = "generic"

#: How far a fibre vector may sit from its claimed base point.
BASE_POINT_TOL = 1e-8


class TransportAlongPaths:
    """A transport along paths, optionally with a matrix realization.

    ``apply_fn(path, s, t, u)`` maps fibre vectors; linear instances may
    instead (or additionally) provide ``matrix_fn(path, s, t, step)`` and get
    ``apply`` for free through the matrix action.
    """

    def __init__(
        self,
        *,
        kind: str,
        geometry: Optional[BundleGeometry] = None,
        base_dim: Optional[int] = None,
        fibre_dim: Optional[int] = None,
        apply_fn: Optional[Callable] = None,
        matrix_fn: Optional[Callable] = None,
        default_step: Optional[float] = None,
        label: str = "",
    ):
        if kind not in (KIND_FROM_CONNECTION, KIND_LINEAR_CUSTOM, KIND_GENERIC):
            raise ValueError(f"unknown transport kind {kind!r}")
        if apply_fn is None and matrix_fn is None:
            raise ValueError("a transport needs apply_fn or matrix_fn")
        self.kind = kind
        self.geometry = geometry
        self.base_dim = base_dim if base_dim is not None else (geometry.base_dim if geometry else None)
        self.fibre_dim = fibre_dim if fibre_dim is not None else (geometry.fibre_dim if geometry else None)
        if self.base_dim is None or self.fibre_dim is None:
            raise ValueError("transport dimensions could not be inferred")
        self._apply_fn = apply_fn
        self._matrix_fn = matrix_fn
        self.default_step = default_step
        self.label = label

    @property
    def is_linear(self) -> bool:
        return self._matrix_fn is not None

    def matrix(self, path: Path, s: float, t: float, *, step: float | None = None) -> TransportMatrix:
        if self._matrix_fn is None:
            raise NotApplicableError(f"transport {self.label or self.kind} has no matrix realization")
        return self._matrix_fn(path, float(s), float(t), step if step is not None else self.default_step)

    def apply(self, path: Path, s: float, t: float, u: FibreVector, *, step: float | None = None) -> FibreVector:
        """Carry the fibre vector u from path(s) to path(t)."""
        x_s = position_at(path, float(s))
        if float(np.max(np.abs(np.asarray(u.base_point) - x_s))) > BASE_POINT_TOL:
            raise ChartDomainError("fibre vector is not attached to path(s)")
        if self._apply_fn is not None:
            return self._apply_fn(path, float(s), float(t), u)
        m = self.matrix(path, s, t, step=step)
        return FibreVector(position_at(path, float(t)), m.value @ np.asarray(u.components))


class ParallelTransport:
    """A map sending a closed-interval path to its start-to-end fibre map."""

    def __init__(
        self,
        *,
        apply_fn: Callable,
        matrix_fn: Optional[Callable] = None,
        base_dim: int,
        fibre_dim: int,
        geometry: Optional[BundleGeometry] = None,
        label: str = "",
    ):
        self._apply_fn = apply_fn
        self._matrix_fn = matrix_fn
        self.base_dim = base_dim
        self.fibre_dim = fibre_dim
        self.geometry = geometry
        self.label = label

    @property
    def is_linear(self) -> bool:
        return self._matrix_fn is not None

    def apply(self, path: Path, u: FibreVector) -> FibreVector:
        return self._apply_fn(path, u)

    def matrix(self, path: Path) -> TransportMatrix:
        if self._matrix_fn is None:
            raise NotApplicableError(f"parallel transport {self.label} has no matrix realization")
        return self._matrix_fn(path)


def connection_transport(
    geometry: BundleGeometry, *, step: float | None = None, label: str = ""
) -> TransportAlongPaths:
    """The linear transport integrating the lift equation of a coefficient field."""

    def matrix_fn(path, s, t, step_):
        return transport_matrix_over_path(geometry, path, s, t, step=step_)

    return TransportAlongPaths(
        kind=KIND_FROM_CONNECTION,
        geometry=geometry,
        matrix_fn=matrix_fn,
        default_step=step,
        label=label or (geometry.label and f"transport:{geometry.label}") or "transport",
    )


def parallel_from_transport(transport: TransportAlongPaths) -> ParallelTransport:
    """The parallel transport acting over each path's full parameter interval."""

    def apply_fn(path: Path, u: FibreVector) -> FibreVector:
        sigma, tau = path.domain
        return transport.apply(path, sigma, tau, u)

    matrix_fn = None
    if transport.is_linear:

        def matrix_fn(path: Path) -> TransportMatrix:  # noqa: F811
            sigma, tau = path.domain
            return transport.matrix(path, sigma, tau)

    return ParallelTransport(
        apply_fn=apply_fn,
        matrix_fn=matrix_fn,
        base_dim=transport.base_dim,
        fibre_dim=transport.fibre_dim,
        geometry=transport.geometry,
        label=f"parallel:{transport.label}" if transport.label else "parallel",
    )


def transport_from_parallel(psi: ParallelTransport, *, label: str = "") -> TransportAlongPaths:
    """The transport along paths acting through restrictions of a parallel transport.

    For s <= t it applies psi over the restriction to [s, t]; for s >= t it
    inverts psi over [t, s], which needs a matrix realization
    (InverseUnavailableError otherwise).  The s == t branch returns its input
    unchanged.
    """

    def apply_fn(path: Path, s: float, t: float, u: FibreVector) -> FibreVector:
        if s == t:
            return u
        if s < t:
            return psi.apply(restrict(path, (s, t)), u)
        if not psi.is_linear:
            raise InverseUnavailableError(
                "cannot run a generic parallel transport backward; no numerical inverse is available"
            )
        m = psi.matrix(restrict(path, (t, s)))
        try:
            comps = np.linalg.solve(m.value, np.asarray(u.components))
        except np.linalg.LinAlgError as exc:
            raise InverseUnavailableError("parallel transport matrix is singular") from exc
        return FibreVector(position_at(path, t), comps)

    matrix_fn = None
    if psi.is_linear:

        def matrix_fn(path: Path, s: float, t: float, step_) -> TransportMatrix:  # noqa: F811
            if s == t:
                return TransportMatrix(np.eye(psi.fibre_dim), path_id=path.label, s=s, t=t, step=0.0)
            if s < t:
                inner = psi.matrix(restrict(path, (s, t)))
                return TransportMatrix(inner.value, path_id=path.label, s=s, t=t, step=inner.step)
            inner = psi.matrix(restrict(path, (t, s)))
            try:
                inv = np.linalg.inv(inner.value)
            except np.linalg.LinAlgError as exc:
                raise InverseUnavailableError("parallel transport matrix is singular") from exc
            return TransportMatrix(inv, path_id=path.label, s=s, t=t, step=inner.step)

    kind = KIND_LINEAR_CUSTOM if psi.is_linear else KIND_GENERIC
    return TransportAlongPaths(
        kind=kind,
        geometry=psi.geometry,
        base_dim=psi.base_dim,
        fibre_dim=psi.fibre_dim,
        apply_fn=apply_fn,
        matrix_fn=matrix_fn,
        label=label or (f"along:{psi.label}" if psi.label else "along-paths"),
    )
