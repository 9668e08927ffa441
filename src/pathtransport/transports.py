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

from .bundles import BundleGeometry, FibreVector, require_attached
from .engine import TransportMatrix, transport_matrices
from .errors import InverseUnavailableError, NotApplicableError
from .paths import Path, positions_at, restrict

KIND_FROM_CONNECTION = "linear-from-connection"
KIND_LINEAR_CUSTOM = "linear-custom"
KIND_GENERIC = "generic"


class TransportAlongPaths:
    """A transport along paths, realized by one batched callback.

    Either ``apply_many_fn(requests, step)`` carries the fibre vectors of a
    list of ``(path, s, t, u)`` requests, or ``matrices_fn(requests, step)``
    returns the matrices L(t, s) of a list of ``(path, s, t)`` requests; each
    returns one result per request.  A transport takes exactly one of them.
    One with ``matrices_fn`` is linear and acts through its matrices.
    """

    def __init__(
        self,
        *,
        kind: str,
        geometry: Optional[BundleGeometry] = None,
        base_dim: Optional[int] = None,
        fibre_dim: Optional[int] = None,
        apply_many_fn: Optional[Callable] = None,
        matrices_fn: Optional[Callable] = None,
        label: str = "",
    ):
        if kind not in (KIND_FROM_CONNECTION, KIND_LINEAR_CUSTOM, KIND_GENERIC):
            raise ValueError(f"unknown transport kind {kind!r}")
        if (apply_many_fn is None) == (matrices_fn is None):
            raise ValueError("a transport takes exactly one of apply_many_fn and matrices_fn")
        self.kind = kind
        self.geometry = geometry
        self.base_dim = base_dim if base_dim is not None else (geometry.base_dim if geometry else None)
        self.fibre_dim = fibre_dim if fibre_dim is not None else (geometry.fibre_dim if geometry else None)
        if self.base_dim is None or self.fibre_dim is None:
            raise ValueError("transport dimensions could not be inferred")
        self._apply_many_fn = apply_many_fn
        self._matrices_fn = matrices_fn
        self.label = label

    @property
    def is_linear(self) -> bool:
        return self._matrices_fn is not None

    def matrices(self, requests, *, step: float | None = None) -> list[TransportMatrix]:
        """The matrices L(t, s) of many ``(path, s, t)`` requests, integrated together where the realization allows."""
        if self._matrices_fn is None:
            raise NotApplicableError(f"transport {self.label or self.kind} has no matrix realization")
        return self._matrices_fn([(path, float(s), float(t)) for path, s, t in requests], step)

    def matrix(self, path: Path, s: float, t: float, *, step: float | None = None) -> TransportMatrix:
        return self.matrices([(path, s, t)], step=step)[0]

    def apply_many(self, requests, *, step: float | None = None) -> list[FibreVector]:
        """Carry each fibre vector u of many ``(path, s, t, u)`` requests from path(s) to path(t)."""
        return self.apply_many_with_matrices(requests, step=step)[0]

    def apply_many_with_matrices(
        self, requests, *, step: float | None = None
    ) -> tuple[list[FibreVector], Optional[list[TransportMatrix]]]:
        """``apply_many``'s results and the matrices that carried them: a
        linear transport applies each request's matrix to its u, a generic
        one has no matrices (None).  One ``positions_at`` call places the
        start of every request, and for a linear transport its end; the
        attachment rule runs once over the batch (``require_attached``), and
        the results are built in one batch (``FibreVector._batch``)."""
        requests = [(path, float(s), float(t), u) for path, s, t, u in requests]
        # The starts, and the ends where they are the results' base points (a generic realization places its own).
        at = (1, 2) if self.is_linear else (1,)
        points = positions_at([(request[0], request[k]) for request in requests for k in at])
        require_attached([u for *_, u in requests], points[:: len(at)], self.fibre_dim)
        if not self.is_linear:
            return self._apply_many_fn(requests, step), None
        mats = self.matrices([request[:3] for request in requests], step=step)
        return FibreVector._batch(points[1::2], [m.value @ u.components for (*_, u), m in zip(requests, mats)]), mats

    def apply(self, path: Path, s: float, t: float, u: FibreVector, *, step: float | None = None) -> FibreVector:
        """Carry the fibre vector u from path(s) to path(t)."""
        return self.apply_many([(path, s, t, u)], step=step)[0]


class ParallelTransport:
    """The full-domain view of a transport along paths: each closed-interval
    path goes to the transport's map from its start to its end, run at
    ``step`` (see ``TransportAlongPaths.matrices``).  It is linear when the
    transport is."""

    def __init__(self, transport: TransportAlongPaths, *, step: float | None = None):
        self.transport = transport
        self.step = step
        self.base_dim = transport.base_dim
        self.fibre_dim = transport.fibre_dim
        self.geometry = transport.geometry
        self.is_linear = transport.is_linear
        self.label = f"parallel:{transport.label}" if transport.label else "parallel"

    def apply_many(self, requests) -> list[FibreVector]:
        """The fibre maps of many ``(path, u)`` requests, integrated together where the realization allows."""
        return self.transport.apply_many([(path, *path.domain, u) for path, u in requests], step=self.step)

    def apply(self, path: Path, u: FibreVector) -> FibreVector:
        return self.apply_many([(path, u)])[0]

    def matrices(self, paths) -> list[TransportMatrix]:
        return self.transport.matrices([(path, *path.domain) for path in paths], step=self.step)

    def matrix(self, path: Path) -> TransportMatrix:
        return self.matrices([path])[0]


def connection_transport(geometry: BundleGeometry, *, label: str = "") -> TransportAlongPaths:
    """The linear transport integrating the lift equation of a coefficient field."""
    return TransportAlongPaths(
        kind=KIND_FROM_CONNECTION,
        geometry=geometry,
        matrices_fn=lambda requests, step: transport_matrices(geometry, requests, step=step),
        label=label or (geometry.label and f"transport:{geometry.label}") or "transport",
    )


#: The parallel transport of a transport is its full-domain view.
parallel_from_transport = ParallelTransport


def transport_from_parallel(psi: ParallelTransport) -> TransportAlongPaths:
    """The transport along paths acting through restrictions of a parallel transport.

    For s < t it runs psi over the restriction to [s, t].  A linear psi gives
    a linear transport whose s > t matrices invert psi's over [t, s] and whose
    s == t matrices are the identity.  A generic psi has no inverse: its
    transport raises InverseUnavailableError on s > t and returns its input
    for s == t.  The requests of one batch reach psi as one batch per direction.
    """

    def split(requests):
        """Indices of the forward and backward requests, and the restrictions they run on."""
        forward = [(i, restrict(req[0], (req[1], req[2]))) for i, req in enumerate(requests) if req[1] < req[2]]
        backward = [(i, restrict(req[0], (req[2], req[1]))) for i, req in enumerate(requests) if req[1] > req[2]]
        return forward, backward

    def matrices_fn(requests, step_):
        forward, backward = split(requests)
        ahead, behind = (psi.matrices([piece for _, piece in side]) for side in (forward, backward))
        try:
            # The backward matrices are inverted in one stacked call.
            inverses = np.linalg.inv(np.stack([m.value for m in behind])) if behind else []
        except np.linalg.LinAlgError as exc:
            raise InverseUnavailableError("parallel transport matrix is singular") from exc
        done = {i: (m.value, m.step) for (i, _), m in zip(forward, ahead)}
        done.update((i, (value, m.step)) for (i, _), value, m in zip(backward, inverses, behind))
        rows = []
        for i, (path, s, t) in enumerate(requests):
            value, step = done.get(i, (np.eye(psi.fibre_dim), 0.0))
            rows.append((value, path.label, s, t, step))
        return TransportMatrix._batch(rows)

    def apply_many_fn(requests, step_):
        forward, backward = split(requests)
        if backward:
            raise InverseUnavailableError(
                "cannot run a generic parallel transport backward; no numerical inverse is available"
            )
        out = [u for *_, u in requests]
        for (i, _), v in zip(forward, psi.apply_many([(piece, requests[i][3]) for i, piece in forward])):
            out[i] = v
        return out

    return TransportAlongPaths(
        kind=KIND_LINEAR_CUSTOM if psi.is_linear else KIND_GENERIC,
        geometry=psi.geometry,
        base_dim=psi.base_dim,
        fibre_dim=psi.fibre_dim,
        apply_many_fn=None if psi.is_linear else apply_many_fn,
        matrices_fn=matrices_fn if psi.is_linear else None,
        label=f"along:{psi.label}",
    )
