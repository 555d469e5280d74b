"""Anisotropic heat-kernel layer potentials, exact caloric polynomial bases,
and a Trefftz least-squares Dirichlet solver on finite cylinders."""

__version__ = "0.1.0"

from .core import (
    CoefficientMatrix,
    conormal_kernel_source,
    conormal_kernel_target,
    elliptic_conormal_kernel,
    elliptic_fundamental,
    fundamental_solution,
    make_coefficients,
)
from .errors import (
    CalorixError,
    ConfigInvalid,
    CornerTooClose,
    DegenerateData,
    DimensionMismatch,
    DimensionTooSmall,
    InvalidResolution,
    NotCaloric,
    NotPositiveDefinite,
    NotSymmetric,
    OffsetTooLarge,
    RegionMismatch,
    TargetOnBoundary,
    TaskFailed,
)
from .geometry import CrossSection, CylinderMesh, build_mesh, mesh_to_csv
from .polynomials import (
    CaloricPolynomial,
    apply_parabolic_operator,
    basis_matrix,
    caloric_poly,
    decompose,
    enumerate_basis,
    moment_identity_check,
)
from .potentials import (
    CaloricExponentialField,
    ConstantField,
    DensityField,
    JumpProbeReport,
    TranslatedKernelField,
    cap_potential,
    cap_potential_star,
    conormal_derivative_single_layer,
    double_layer,
    double_layer_star,
    elliptic_gauss_identity,
    jump_probe,
    representation_discrepancy,
    representation_values,
    single_layer,
    single_layer_star,
)
from .solver import (
    BoundaryData,
    CaloricApproximant,
    CrossValidation,
    StudyReport,
    TrefftzSystem,
    assemble_system,
    completeness_study,
    cross_validate,
    evaluate_solution,
    interior_probe_grid,
    parity_regions,
    solve_dirichlet,
)
