"""Thermal Casimir effect for a cavity comoving on an equatorial Kerr orbit.

A small Dirichlet cavity rides a circular equatorial orbit around a
rotating source.  This package evaluates the renormalized Casimir free
energy, entropy and internal energy of a massless scalar field in that
cavity at finite temperature, together with the underlying equatorial
Kerr geometry, the cavity mode spectrum, low/high-temperature
asymptotics, and brute-force oracles that re-derive every closed form.

Natural units throughout: hbar = c = G = k_B = 1.
"""

from .asymptotic import (
    AsymptoticReport,
    Regime,
    high_T_expansion,
    low_T_entropy,
    low_T_free_energy,
    low_T_internal_energy,
)
from .errors import (
    DomainError,
    FDStepError,
    ForbiddenOrbitError,
    InsideHorizonError,
    KerrCasimirError,
    NakedSingularityError,
    QuadratureError,
    TruncationError,
)
from .geometry import (
    CavityGeometry,
    EquatorialOrbit,
    HatMetric,
    KerrParams,
    MetricFunctions,
    ProperFrame,
    allowed_omega_interval,
    comoving_metric,
    dragging_angular_velocity,
    equatorial_metric_functions,
    horizon_radius,
    orbit_from_band_fraction,
    proper_frame,
    velocity_normalization,
    zamo_angular_velocity,
)
from .modes import (
    ModeIndex,
    ValidityDiagnostics,
    cavity_validity,
    corrected_eigenfrequency,
    eigenfrequency,
)
from .oracles import (
    OracleConfig,
    blackbody_quadrature,
    double_sum_free_energy,
    finite_difference_thermo,
    quadrature_free_energy,
    thermal_correction_resummed_form,
    validation_checks,
)
from .sweep import (
    OutputRecord,
    PointRequest,
    PointStatus,
    SweepAxis,
    SweepSpec,
    evaluate_point,
    records_to_csv,
    records_to_jsonl,
    run_sweep,
)
from .thermal import (
    BetaHat,
    CasimirReport,
    SeriesControl,
    ZETA3,
    beta_hat,
    blackbody_density,
    casimir_report,
    entropy,
    flat_casimir_density,
    internal_energy,
    renorm_thermal_correction,
    thermal_correction_exact,
    total_free_energy,
    vacuum_energy,
)

__version__ = "0.1.0"
