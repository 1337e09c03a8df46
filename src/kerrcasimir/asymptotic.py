"""High- and low-temperature asymptotics with leading correction estimates.

All expansions are parametrized by proper quantities (Tp, Lp, Sp, Vp); the
redshift factors that relate them to coordinate temperature are absorbed
into Tp.  Low temperature means beta_hat = 1/(2 Lp Tp) >> 1, where every
neglected term is exponentially small, of order e^(-pi/(Lp Tp)); high
temperature means beta_hat << 1, where the three-term expansion is
accurate up to terms that vanish faster than any power.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError
from .geometry import EquatorialOrbit, KerrParams, ProperFrame
from .thermal import ZETA3, blackbody_density, vacuum_energy

__all__ = [
    "AsymptoticReport",
    "high_T_expansion",
    "low_T_free_energy",
    "low_T_entropy",
    "low_T_internal_energy",
]


class AsymptoticReport(NamedTuple):
    """Asymptotic estimate plus the magnitude scale of the first neglected term.

    ``leading_correction`` carries the printed sign of the correction
    formula; comparisons against exact values should use its magnitude.
    """

    value: float
    leading_correction: float


def _exp_gap(Lp: float, Tp: float) -> float:
    """The exponentially small low-temperature factor e^(-pi/(Lp*Tp))."""
    if Tp == 0.0:
        return 0.0
    return math.exp(-math.pi / (Lp * Tp))


def high_T_expansion(frame: ProperFrame, Tp: float) -> float:
    """Complete power part of the thermal correction at high temperature.

    -Vp pi^2 Tp^4/90 + Sp zeta(3) Tp^3/(4 pi) - zeta(3) Sp Tp/(16 pi Lp^2)
    + pi^2 Sp/(1440 Lp^3)

    The quartic term is Vp times the black-body density; the linear term
    is the classical (hbar-free) contribution; the constant cancels the
    vacuum energy of a zero-angular-momentum cavity exactly.  There is no
    quadratic term, all higher inverse powers of Tp vanish identically,
    and the remaining error is exponentially small in Lp*Tp.
    """
    if not (0.0 < Tp < math.inf):
        raise DomainError(f"proper temperature must be finite and > 0, got Tp={Tp}")
    return (
        frame.Vp * blackbody_density(Tp)
        + frame.Sp * ZETA3 * Tp**3 / (4.0 * math.pi)
        - ZETA3 * frame.Sp * Tp / (16.0 * math.pi * frame.Lp**2)
        + math.pi**2 * frame.Sp / (1440.0 * frame.Lp**3)
    )


def low_T_free_energy(
    frame: ProperFrame,
    params: KerrParams,
    orbit: EquatorialOrbit,
    Tp: float,
) -> AsymptoticReport:
    """Low-temperature Casimir free energy.

    value = E0_ren - zeta(3) Sp Tp^3/(4 pi) + Vp pi^2 Tp^4/90 with leading
    correction -(Sp/(2 Lp)) Tp^2 e^(-pi/(Lp Tp)).
    """
    if not (0.0 <= Tp < math.inf):
        raise DomainError(f"proper temperature must be finite and >= 0, got Tp={Tp}")
    E0 = vacuum_energy(frame, params, orbit)
    value = (
        E0
        - ZETA3 * frame.Sp * Tp**3 / (4.0 * math.pi)
        - frame.Vp * blackbody_density(Tp)
    )
    correction = -(frame.Sp / (2.0 * frame.Lp)) * Tp**2 * _exp_gap(frame.Lp, Tp)
    return AsymptoticReport(value=value, leading_correction=correction)


def low_T_entropy(frame: ProperFrame, Tp: float) -> AsymptoticReport:
    """Low-temperature Casimir entropy.

    value = (3 zeta(3)/(4 pi)) Sp Tp^2 - (2 pi^2/45) Vp Tp^3 with leading
    correction (pi Sp/(2 Lp^2)) e^(-pi/(Lp Tp)).  Goes to zero with the
    temperature, so the third law holds.
    """
    if not (0.0 <= Tp < math.inf):
        raise DomainError(f"proper temperature must be finite and >= 0, got Tp={Tp}")
    value = (
        3.0 * ZETA3 / (4.0 * math.pi) * frame.Sp * Tp**2
        - 2.0 * math.pi**2 / 45.0 * frame.Vp * Tp**3
    )
    correction = math.pi * frame.Sp / (2.0 * frame.Lp**2) * _exp_gap(frame.Lp, Tp)
    return AsymptoticReport(value=value, leading_correction=correction)


def low_T_internal_energy(
    frame: ProperFrame,
    params: KerrParams,
    orbit: EquatorialOrbit,
    Tp: float,
) -> AsymptoticReport:
    """Low-temperature Casimir internal energy.

    value = E0_ren + zeta(3) Sp Tp^3/(2 pi) - Vp pi^2 Tp^4/30 with leading
    correction (pi Sp Tp/(2 Lp^2)) e^(-pi/(Lp Tp)).  The Tp^3 coefficients
    of free energy, entropy and internal energy cancel exactly in
    U - (F + Tp S), as the Legendre identity requires.
    """
    if not (0.0 <= Tp < math.inf):
        raise DomainError(f"proper temperature must be finite and >= 0, got Tp={Tp}")
    E0 = vacuum_energy(frame, params, orbit)
    value = (
        E0
        + ZETA3 * frame.Sp * Tp**3 / (2.0 * math.pi)
        - math.pi**2 * frame.Vp * Tp**4 / 30.0
    )
    correction = math.pi * frame.Sp * Tp / (2.0 * frame.Lp**2) * _exp_gap(frame.Lp, Tp)
    return AsymptoticReport(value=value, leading_correction=correction)
