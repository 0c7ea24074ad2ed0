"""Numerical laboratory for degenerating toric Kahler metrics.

Builds the symplectic-potential family u_s = v_P + phi + psi/s on a Delzant
polytope, discretizes the torus-reduced Laplacian family mode by mode, and
compares the small-s spectra against Gaussian harmonic oscillators on the
cones attached to quantized points of the polytope.
"""

from . import errors
from .curvature import (
    ModelSpec,
    RicciData,
    christoffel_ricci_oracle,
    model_T,
    model_T_prime,
    ricci_general,
    ricci_lower_bound_scan,
    ricci_of_potential,
)
from .harness import (
    ConvergenceReport,
    SweepConfig,
    emit_reports,
    run_sweep,
    sweep_config_from_json,
)
from .limit import (
    ConeModel,
    LimitSpectrum,
    cone_at,
    exact_cone_spectrum,
    is_separable,
    numeric_cone_spectrum,
    predicted_limit,
)
from .mesh import Mesh, build_mesh, interval_mesh, polygon_mesh
from .operator import (
    OperatorFactory,
    ReducedOperator,
    Spectrum,
    dbar_spectrum,
    map_dbar,
    mode_set,
    solve_eigs,
)
from .polytope import (
    BSPoint,
    DelzantPolytope,
    Face,
    LocalChart,
    bs_points,
    delzant_violations,
    fiber_holonomy,
    hirzebruch,
    local_chart,
    polytope_from_json,
    polytope_to_json,
    segment,
    simplex2,
    validate_delzant,
    vertices_and_faces,
)
from .potential import (
    GuilleminPotential,
    PolynomialFn,
    PotentialFamily,
    PotentialSpec,
    family_hessian_batch,
    ground_state,
    make_potential_spec,
    potential_spec_from_json,
)

__all__ = [
    "errors",
    # polytope
    "BSPoint", "DelzantPolytope", "Face", "LocalChart", "bs_points",
    "delzant_violations", "fiber_holonomy", "hirzebruch", "local_chart",
    "polytope_from_json", "polytope_to_json", "segment", "simplex2",
    "validate_delzant", "vertices_and_faces",
    # potential
    "GuilleminPotential", "PolynomialFn", "PotentialFamily", "PotentialSpec",
    "family_hessian_batch", "ground_state", "make_potential_spec",
    "potential_spec_from_json",
    # curvature
    "ModelSpec", "RicciData", "christoffel_ricci_oracle", "model_T",
    "model_T_prime", "ricci_general", "ricci_lower_bound_scan",
    "ricci_of_potential",
    # mesh and operator
    "Mesh", "build_mesh", "interval_mesh", "polygon_mesh", "OperatorFactory",
    "ReducedOperator", "Spectrum", "dbar_spectrum", "map_dbar", "mode_set",
    "solve_eigs",
    # limit
    "ConeModel", "LimitSpectrum", "cone_at", "exact_cone_spectrum",
    "is_separable", "numeric_cone_spectrum", "predicted_limit",
    # harness
    "ConvergenceReport", "SweepConfig", "emit_reports", "run_sweep",
    "sweep_config_from_json",
]

__version__ = "0.1.0"
