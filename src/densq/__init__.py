"""Multi-scale density square functions, Wolff energies, truncated Riesz
transform energies, and Jones beta numbers of discrete measures in R^d."""

from .measures import (
    BallIndex,
    MeasureSpec,
    PointBudgetError,
    SegmentLattice,
    WeightedPointMeasure,
    build_cantor,
    build_dirac,
    build_flat,
    build_gamma_curve,
    build_polyline,
    ball_masses,
    mass_in_ball,
)
from .multiscale import (
    EnergyReport,
    RadialProfile,
    ScaleGrid,
    ThinBoundaryNotFound,
    ad_regularity_diagnostic,
    density,
    density_difference,
    find_thin_boundary_radius,
    local_energy_ratio,
    resolved_floor,
    smoothed_density_difference,
    square_function_and_wolff_energy,
    square_function_energy,
    verify_convolution_identity,
    wolff_energy,
)
from .riesz import (
    RieszEnergyReport,
    TruncationPair,
    riesz_energy,
    riesz_kernel,
    sup_riesz_energy,
    truncated_riesz,
)
from .betas import LineFit, beta2, beta_energy, beta_inf, beta_p
from .experiments import (
    EXPERIMENTS,
    SweepResult,
    fit_loglog_slope,
    run_comparability,
    run_identity_suite,
    run_integer_degeneracy,
    run_small_s_comparability,
    run_tent_counterexample,
)

__version__ = "0.1.0"
