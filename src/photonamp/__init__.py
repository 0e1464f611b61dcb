"""Massless little-group kinematics, photon helicity amplitudes, and
coherent-state electromagnetic field expectations."""

from .lorentz import (
    METRIC,
    AxisAngle,
    boost_matrix,
    compose_axis_angle,
    metric_residual,
    minkowski,
    rotation_matrix,
    standard_boost_z,
    standard_lorentz,
    standard_rotation,
    su2_matrix,
)
from .little_group import (
    LittleGroupElement,
    alpha_from_angles,
    decompose_little_group,
    final_polar_angle,
    ibr_generators,
    ibr_matrix,
    ibr_physical_factors,
    isoenergetic_velocity,
)
from .wigner import (
    WignerData,
    wigner_boost,
    wigner_phase_boost_closed,
    wigner_phase_rotation_closed,
    wigner_rotation,
)
from .quadrature import BoxQuadrature
from .amplitudes import (
    HelicityAmplitude,
    TransformOp,
    expectation_momentum,
    from_descriptor,
    gaussian_wavepacket,
    inner_product,
    norm_squared,
    replay,
)
from .polarization import (
    PolarizationVector,
    covariance_residual,
    gauge_shift,
    polarization,
    reference_polarization,
    tensor_coeff,
)
from .fields import (
    FieldTensorGrid,
    NarrowbandSpec,
    SpatialGrid,
    bb_density,
    energy_expectation,
    energy_momentum_integrals,
    field_expectation_exact,
    field_expectation_grid,
    field_expectation_narrowband,
    localization_scale,
    maxwell_residual,
    narrowband_grid,
    positive_frequency_field,
    sipe_energy_integral,
    tensor_covariance_check,
    vector_potential,
)

__version__ = "0.1.0"
