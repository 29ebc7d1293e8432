"""Computational toolkit for Hermitian structures, twistor charts and
harmonic-map residuals on flat spaces."""

__version__ = "0.1.0"

from .jets import (
    Jet,
    JetError,
    JetSpace,
    SmoothMap,
    complex_to_real_point,
    complex_view,
    dz,
    dz_power,
    dzbar,
    laplacian,
    real_to_complex_point,
)
from .pairings import DimensionError, bilinear_dot, hermitian_dot, is_isotropic_span
from .structures import (
    HermitianStructure,
    IsotropicSubspace,
    StructureError,
    canonical_structure,
    from_isotropic,
    is_positive,
    jv_apply,
    mj_basis,
    mj_residual,
    mu_from_structure,
    mu_matrix,
    so_action,
    structure_from_mu,
    to_isotropic,
    twistor_chart,
)
from .checkers import (
    CheckReport,
    conformality_residual,
    harmonic_morphism_residual,
    harmonicity_residual,
    holomorphy_residual,
    hwc_residual,
    one_one_geodesic_residual,
    pluriconformality_residual,
    pullback_harmonic_oracle,
    real_isotropy_residual,
    real_isotropy_residuals,
    umbilic_residual,
    weak_conformality,
)
from .lifts import (
    TwistorLift,
    j_vertical_residual,
    strictly_compatible_lift_r4,
    t10_stability_residual,
    vertical_part,
)
from .factory import (
    CP3Data,
    EuclideanTwistorData,
    cp3_constraints_residual,
    cp3_local_diffeo_check,
    cp3_point,
    euclid_r6_data,
    evaluate_morphism,
    invert_h,
    jacobian_min_sv,
    morphism_as_map,
    verify_chart_holomorphy,
    verify_horizontality,
)
from .variations import (
    affine_family,
    complex_family,
    first_order_residual,
    jacobi_operator_flat,
    tension_first_order,
)
from .connections import (
    GroupPath,
    LieValuedForm,
    curvature_02_residual,
    expm,
    flatness_residual,
    integrate_path,
    path_independence_defect,
)
