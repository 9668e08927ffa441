"""Transports along paths in finite-dimensional vector bundles.

Core objects: paths in a coordinate chart (``paths``), bundle geometries
described by connection coefficient fields (``bundles``), transports along
paths and parallel transports with the bijections between them
(``transports``), the RK4 matrix engine with the factorization criterion
(``engine``), law-checking suites (``laws``), shipped example geometries
(``catalog``) and loop holonomy (``holonomy``).  The ``pathtransport`` CLI
wires these together.
"""

from .bundles import (
    BundleGeometry,
    FibreVector,
    complex_structure,
    connection_matrices_at,
    geometry_from_grid,
    grid_geometry_from_csv,
    realify_matrix,
    realify_vector,
    two_index_at,
)
from .catalog import (
    GeometryCatalogEntry,
    Traits,
    evolution_transport,
    flat_bundle,
    get_entry,
    load_geometry_spec,
    nonlinear_fixture,
    sample_paths,
    sphere_levi_civita,
    sphere_orthonormal_frame,
    standard_catalog,
)
from .engine import (
    FactorizationVerdict,
    LiftedPath,
    TransportCoefficients,
    TransportMatrix,
    coefficients_along_path,
    coefficients_from_transport,
    connection_from_transport,
    factorization_test,
    horizontal_lift,
    integrate_transport_matrix,
    transport_matrices,
    transport_matrix_over_path,
)
from .holonomy import HolonomyReport, angle_gap_mod_2pi, holonomy, latitude_sweep, rotation_angle
from .laws import (
    LawReport,
    ParallelAxiomFixtures,
    check_groupoid_laws,
    check_linearity,
    check_parallel_axioms,
    check_parametrization_laws,
    check_smoothness_conditions,
    check_transport_laws,
    law_reports_csv,
    law_reports_table,
    lift_tangent,
    make_parallel_fixtures,
    merge_reports,
    random_paths,
    split_canonical,
)
from .paths import (
    Path,
    Reparametrization,
    affine_reparametrization,
    bulge_reparametrization,
    constant_path,
    great_circle,
    identity_reparametrization,
    invert_canonical,
    latitude,
    line_through,
    parse_path_spec,
    point_path,
    product_canonical,
    reparametrize,
    restrict,
    segment,
    spline_path,
    spline_path_from_csv,
    tangent,
    validate_reparametrization,
)
from .transports import (
    ParallelTransport,
    TransportAlongPaths,
    connection_transport,
    parallel_from_transport,
    transport_from_parallel,
)

__version__ = "0.1.0"
