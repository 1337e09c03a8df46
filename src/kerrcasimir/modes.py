"""Cavity eigenfrequencies in the small-cavity approximation.

With the cavity much smaller than the orbital radius, the comoving-frame
metric is treated as constant across the cavity and the wave equation
separates.  Dirichlet walls along the orbit direction quantize the x
mode number n; the transverse wave numbers k_y, k_z stay continuous.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError
from .geometry import CavityGeometry, EquatorialOrbit, KerrParams, _observer

__all__ = [
    "ModeIndex",
    "ValidityDiagnostics",
    "eigenfrequency",
    "corrected_eigenfrequency",
    "cavity_validity",
]

# Policy thresholds for the small-cavity guidance flag; not physics.
ALPHA_L_THRESHOLD = 0.01
L_OVER_R_THRESHOLD = 0.01


@dataclass(frozen=True)
class ModeIndex:
    """Dirichlet mode number n >= 1 and transverse wave numbers k_y, k_z."""

    n: int
    ky: float = 0.0
    kz: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"mode number must be >= 1, got n={self.n}")


class ValidityDiagnostics(NamedTuple):
    """Dimensionless measures of how well the small-cavity limit holds.

    alpha = (M - r)/r^2 is the coefficient of the neglected first-derivative
    term in the exact wave equation; L/r and ML/r^2 quantify the cavity-size
    assumption.  ``small_cavity_ok`` is a guidance flag, not a hard gate.
    The fields are OutputRecord's diagnostic columns, in order.
    """

    alpha: float
    L_over_r: float
    ML_over_r2: float
    small_cavity_ok: bool


def _frequency(mode: ModeIndex, params: KerrParams, orbit: EquatorialOrbit,
               cavity: CavityGeometry, first_derivative: complex, sqrt) -> complex:
    """Dispersion body of both eigenfrequencies; first_derivative is 2 i alpha k_y or 0."""
    mf, _, _, C = _observer(params, orbit)
    r = orbit.r
    d_over_r2 = mf.Delta / (r * r)
    kx = math.pi * mode.n / cavity.L
    inner = kx * kx + d_over_r2 * C * C * (d_over_r2 * mode.ky**2 + first_derivative + mode.kz**2)
    return (r / (math.sqrt(mf.Delta) * C * C)) * sqrt(inner)


def eigenfrequency(
    mode: ModeIndex,
    params: KerrParams,
    orbit: EquatorialOrbit,
    cavity: CavityGeometry,
) -> float:
    """Mode frequency of the scalar field in the comoving cavity.

    omega_n = (r / (sqrt(Delta) C^2)) * [ (pi n / L)^2
              + (Delta/r^2) C^2 ( (Delta/r^2) k_y^2 + k_z^2 ) ]^(1/2)

    For k_y = k_z = 0 this reduces to pi n / (L_p C) in terms of the proper
    separation.  In flat space with a static observer it is the familiar
    sqrt((pi n / L)^2 + k_y^2 + k_z^2).
    """
    return _frequency(mode, params, orbit, cavity, 0.0, math.sqrt)


def corrected_eigenfrequency(
    mode: ModeIndex,
    params: KerrParams,
    orbit: EquatorialOrbit,
    cavity: CavityGeometry,
) -> complex:
    """Mode frequency keeping the first-derivative term of the exact wave equation.

    Relaxing the constant-metric approximation adds 2 i alpha k_y, with
    alpha = (M - r)/r^2, inside the dispersion bracket:

    omega'_n = (r / (sqrt(Delta) C^2)) * [ (pi n / L)^2
               + (Delta/r^2) C^2 ( (Delta/r^2) k_y^2 + 2 i alpha k_y + k_z^2 ) ]^(1/2)

    The principal-branch square root is used, so omega'_n -> omega_n
    continuously as alpha*k_y -> 0.  The imaginary part is exposed as a
    diagnostic of the approximation only.
    """
    alpha = cavity_validity(params, orbit, cavity).alpha
    return _frequency(mode, params, orbit, cavity, 2j * alpha * mode.ky, cmath.sqrt)


def cavity_validity(
    params: KerrParams,
    orbit: EquatorialOrbit,
    cavity: CavityGeometry,
) -> ValidityDiagnostics:
    """Quantify the small-cavity approximation at this orbit.

    The guidance flag trips when |alpha|*L >= ALPHA_L_THRESHOLD or
    L/r >= L_OVER_R_THRESHOLD (0.01 each).
    """
    r = orbit.r
    alpha = (params.M - r) / (r * r)
    L_over_r = cavity.L / r
    ML_over_r2 = params.M * cavity.L / (r * r)
    ok = bool(abs(alpha) * cavity.L < ALPHA_L_THRESHOLD and L_over_r < L_OVER_R_THRESHOLD)
    return ValidityDiagnostics(
        alpha=alpha,
        L_over_r=L_over_r,
        ML_over_r2=ML_over_r2,
        small_cavity_ok=ok,
    )
