"""Renormalized thermal Casimir quantities from one shared series pass.

All quantities are expressed in proper variables of the comoving observer:
plate separation Lp, plate area Sp, volume Vp = Sp*Lp and proper
temperature Tp, with k_B = 1.  The dimensionless series parameter is
beta_hat = 1/(2*Lp*Tp); small beta_hat is the high-temperature (or large
separation) regime, large beta_hat the low-temperature one.  The vacuum
energy E0 also needs the orbit's factor C_ZAMO/C = sqrt(1 - v2), which is
read from the frame (ProperFrame.v2), so every quantity here is a function
of the frame alone; the params and orbit arguments are not read for it.

F, S and U are built from the coth sum S(b) = sum_m coth(pi m b)/m^3 and
its first two derivatives.  With ce = coth - 1 and se = 1/sinh^2 =
ce(ce + 2), one loop sums A = sum ce/m^3, B = sum se/m^2 and
C = sum (1 + ce) se/m, so that S = zeta(3) + A, S' = -pi B and
S'' = 2 pi^2 C.  Two representations share that loop:

- direct, for beta_hat >= 1: the sums run at beta_hat, and the zeta(3)
  tails and the black-body/surface subtractions are added in closed form,
  kept apart from the exponentially small remainder so that low-temperature
  values are free of cancellation.
- inverted, for beta_hat < 1: Ramanujan's formula for zeta(3),
  S(b)/(2 pi b) + b S(1/b)/(2 pi) = pi^2 (b^2/180 + 1/36 + 1/(180 b^2)),
  the temperature-inversion symmetry of the slab (Brown & Maclay 1969;
  Ravndal & Tollefsen 1989), moves the sums to 1/beta_hat.  The subtracted
  power terms cancel algebraically; what is left is the complete
  high-temperature power part plus sums decaying like e^(-2 pi m/beta_hat).

Either way the sums run at an argument a >= 1, where each term is at most
e^(-2 pi) times the one before, and stop at the first term that leaves all
three unchanged, so a point needs at most 6 terms at any temperature.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .errors import DomainError
from .geometry import EquatorialOrbit, KerrParams, ProperFrame

__all__ = [
    "BetaHat",
    "CasimirReport",
    "ZETA3",
    "flat_casimir_density",
    "vacuum_energy",
    "beta_hat",
    "thermal_correction_exact",
    "renorm_thermal_correction",
    "blackbody_density",
    "total_free_energy",
    "entropy",
    "internal_energy",
    "casimir_report",
]

# zeta(3) enters the power tails; zeta(4) only ever appears as pi^4/90.
ZETA3 = 1.2020569031595942854

# Beyond x = 350 both e^(-2x) pieces underflow and every summand is an
# exact floating-point zero, so the sums terminate there unconditionally.
_X_CUTOFF = 350.0

_PI2 = math.pi**2
_PI3 = math.pi**3


class BetaHat(NamedTuple):
    """Dimensionless inverse proper temperature, 1/(2*Lp*Tp).

    Infinite at exactly zero temperature; all thermal kernels accept that
    and reduce to their zero-temperature limits.
    """

    value: float


class CasimirReport(NamedTuple):
    """Full set of renormalized thermal quantities plus series diagnostics.

    F_ren = E0_ren + DeltaTF_ren holds by construction and
    U_ren = F_ren + Tp*S_ren is the Legendre identity the closed forms
    satisfy.  terms_used counts the one series pass shared by F, S and U
    (direct for beta_hat >= 1, inverted below); it is at most 6, and 0 at
    zero temperature and for beta_hat below about 0.009, where
    e^(-2 pi/beta_hat) already underflows.  Every sum stops only where the
    terms it omits change no bit of it, so the series has no term cap and
    no truncation bound is carried; beta_hat is infinite on the
    zero-temperature path.
    DeltaTF_ren, S_ren and U_ren - E0_ren depend on the comoving Lp, Sp and
    Tp only; E0_ren also reads the frame's v2 and carries the ZAMO's cavity
    volume (see vacuum_energy).
    The fields are OutputRecord's report columns, in order.
    """

    E0_ren: float
    DeltaTF_ren: float
    F_ren: float
    S_ren: float
    U_ren: float
    f_bb: float
    beta_hat: float
    terms_used: int


def _kernel(bh: BetaHat) -> tuple[float, float, float, float, int]:
    """Brackets (g, f, s, w) of the thermal quantities from one series pass.

        thermal_correction_exact = -Sp g/(32 pi Lp^3),
        DeltaTF_ren = -Sp f/(32 pi Lp^3),  S_ren = Sp s/(16 pi Lp^2),
        U_ren - E0_ren = Sp w/(16 pi Lp^3),

    plus the number of terms.  One loop sums A = ce/m^3, B = se/m^2 and
    C = (1 + ce) se/m at the series argument beta_hat (direct) or, when
    beta_hat < 1, at u = 1/beta_hat (inverted); either way successive terms
    shrink by at least e^(-2 pi).  The loop stops, without adding it, at the
    first term that leaves A, B and C all unchanged: the increments are
    positive and decreasing, so no later term could change a bit, and at
    most 6 terms are added.  It also stops once pi m times the argument
    passes 350, where the terms underflow; the argument is >= 1, so that
    happens by m = 112 at the latest and the loop needs no cap.  With
    u = 1/beta_hat and f = g + zeta(3) u^3 - pi^3 u^4/45, direct:

        g = A u^3 + pi B u^2
        s = 3 (zeta(3) + A) u^2 + 3 pi B u + 2 pi^2 C - 4 pi^3 u^3/45
        w = (zeta(3) + A) u^3 + pi B u^2 + pi^2 C u - pi^3 u^4/30

    inverted, after the power terms cancel:

        f = zeta(3) u - pi^3/45 + u A + pi u^2 B
        s = zeta(3) + A + pi u B - 2 pi^2 u^2 C
        w = pi^3/90 - pi^2 u^3 C
    """
    b = bh.value
    if not (b > 0.0):
        raise DomainError(f"beta_hat must be > 0, got {b}")
    if math.isinf(b):
        return 0.0, 0.0, 0.0, 0.0, 0
    u = 1.0 / b
    inverted = b < 1.0
    arg = u if inverted else b
    A = B = C = 0.0
    for m in itertools.count(1):
        x = math.pi * m * arg
        if x > _X_CUTOFF:
            break
        ce = 2.0 / math.expm1(2.0 * x)
        se = ce * (ce + 2.0)
        A1 = A + ce / m**3
        B1 = B + se / m**2
        C1 = C + (1.0 + ce) * se / m
        # The increments are positive and decrease with m, so once term m
        # leaves all three sums unchanged no later term can change a bit.
        if A1 == A and B1 == B and C1 == C:
            break
        A, B, C = A1, B1, C1
    u2 = u * u
    u3 = u2 * u
    power = ZETA3 * u3 - _PI3 * u3 * u / 45.0
    if inverted:
        f = ZETA3 * u - _PI3 / 45.0 + u * A + math.pi * B * u2
        s = ZETA3 + A + math.pi * B * u - 2.0 * _PI2 * C * u2
        w = _PI3 / 90.0 - _PI2 * C * u3
        g = f - power
    else:
        g = A * u3 + math.pi * B * u2
        s = 3.0 * (ZETA3 + A) * u2 + 3.0 * math.pi * B * u + 2.0 * _PI2 * C - 4.0 * _PI3 * u3 / 45.0
        w = (ZETA3 + A) * u3 + math.pi * B * u2 + _PI2 * C * u - _PI3 * u3 * u / 30.0
        f = g + power
    return g, f, s, w, m - 1


def _thermal_parts(Lp: float, Sp: float, bh: BetaHat) -> tuple[float, float, float, int]:
    """DeltaTF_ren, S_ren, U_ren - E0_ren and the terms of one series pass
    at proper separation Lp and proper plate area Sp."""
    _, f, s, w, terms = _kernel(bh)
    scale = Sp / (16.0 * math.pi * Lp**2)
    # 0.0 - x is exactly -x, except that it gives +0.0 where -x is -0.0.
    return 0.0 - scale * f / (2.0 * Lp), scale * s, scale * w / Lp, terms


def flat_casimir_density(Lp: float) -> float:
    """Vacuum Casimir energy density -pi^2/(1440 Lp^4) of a flat Dirichlet slab."""
    if not (0.0 < Lp < math.inf):
        raise DomainError(f"proper separation must be finite and > 0, got Lp={Lp}")
    return -math.pi**2 / (1440.0 * Lp**4)


def vacuum_energy(frame: ProperFrame, params: KerrParams, orbit: EquatorialOrbit) -> float:
    """Renormalized zero-temperature Casimir energy of the comoving cavity.

    E0_ren = Vp * eps0(Lp) * (1 - v2)^(1/2),
    v2 = (A^2/(r^4 Delta)) (Omega - omega_d)^2,

    with eps0 the flat-space density at the proper separation and v2 the
    cavity's squared speed relative to the zero-angular-momentum observer
    (ZAMO).  The root is C_ZAMO/C, C_ZAMO = sqrt(A/(r^2 Delta)) being C of
    the ZAMO, so E0_ren = (S0 L C_ZAMO) eps0(Lp), the ZAMO's cavity volume
    times the comoving density; flat space gives sqrt(1 - r^2 Omega^2).
    The orbit factor is read from the frame (frame.v2, set by proper_frame
    in its one observer pass); params and orbit are not read.  A frame
    whose v2 lies outside [0, 1) raises DomainError.
    """
    if not (0.0 <= frame.v2 < 1.0):
        raise DomainError(f"squared speed relative to the ZAMO must lie in [0, 1), got v2={frame.v2}")
    return frame.Vp * flat_casimir_density(frame.Lp) * math.sqrt(1.0 - frame.v2)


def beta_hat(frame: ProperFrame) -> BetaHat:
    """Series parameter 1/(2*Lp*Tp); infinite when the proper temperature is
    zero or so small that 2*Lp*Tp underflows."""
    return _beta_hat(frame.Lp, frame.Tp)


def _beta_hat(Lp: float, Tp: float) -> BetaHat:
    """beta_hat of a proper separation Lp and proper temperature Tp."""
    if not (Tp >= 0.0):
        raise DomainError(f"proper temperature must be >= 0, got Tp={Tp}")
    denominator = 2.0 * Lp * Tp
    if denominator == 0.0:  # Tp = 0, or a product below the float range
        return BetaHat(value=math.inf)
    return BetaHat(value=1.0 / denominator)


def thermal_correction_exact(frame: ProperFrame, bh: BetaHat) -> float:
    """Unrenormalized thermal correction to the cavity free energy.

    Exact resummed value

        -(Sp/(32 pi Lp^3)) * sum_m [coth(pi m bh)/(m bh)^3
                                    + pi/((m bh)^2 sinh^2(pi m bh))]
        + zeta(3) Sp / (32 pi (Lp bh)^3);

    the zeta(3) term cancels the power tail of the coth sum, so for bh >= 1
    it is -(Sp/(32 pi Lp^3)) (A/bh^3 + pi B/bh^2), exponentially small at
    low temperature.  Below bh = 1 it is the inverted bracket f with the
    quartic and cubic terms added back (see _kernel).
    """
    return -frame.Sp / (32.0 * math.pi * frame.Lp**3) * _kernel(bh)[0]


def blackbody_density(Tp: float) -> float:
    """Free-energy density -pi^2 Tp^4/90 of scalar black-body radiation."""
    if not (0.0 <= Tp < math.inf):
        raise DomainError(f"proper temperature must be finite and >= 0, got Tp={Tp}")
    return 0.0 - math.pi**2 * Tp**4 / 90.0  # +0.0, not -0.0, at Tp = 0


def renorm_thermal_correction(frame: ProperFrame, bh: BetaHat) -> float:
    """Renormalized thermal correction to the Casimir free energy.

    The full hyperbolic sum (its exponential part plus the zeta(3)/bh^3
    power tail) with the black-body term Vp pi^2 Tp^4/90 added back after
    the quartic and cubic high-temperature terms have been subtracted.
    Vanishes at zero temperature; at high temperature it decreases
    linearly, approaching -zeta(3) Sp Tp/(16 pi Lp^2) + pi^2 Sp/(1440 Lp^3)
    (the classical term is not among the subtracted ones).
    """
    return _thermal_parts(frame.Lp, frame.Sp, bh)[0]


def total_free_energy(
    frame: ProperFrame,
    params: KerrParams,
    orbit: EquatorialOrbit,
    bh: BetaHat,
) -> float:
    """Total renormalized Casimir free energy E0_ren + renormalized correction."""
    return vacuum_energy(frame, params, orbit) + renorm_thermal_correction(frame, bh)


def entropy(frame: ProperFrame, bh: BetaHat) -> float:
    """Renormalized Casimir entropy -dF_ren/dTp (k_B = 1): bracket s of _kernel.

    Vanishes at zero temperature (third law), is positive throughout the
    low-temperature regime and tends to zeta(3) Sp/(16 pi Lp^2) at high
    temperature.
    """
    return _thermal_parts(frame.Lp, frame.Sp, bh)[1]


def internal_energy(
    frame: ProperFrame,
    params: KerrParams,
    orbit: EquatorialOrbit,
    bh: BetaHat,
) -> float:
    """Renormalized internal energy -Tp^2 d(F_ren/Tp)/dTp: E0_ren plus bracket w.

    Reduces to E0_ren at zero temperature and saturates at
    E0_ren + pi^2 Sp/(1440 Lp^3) at high temperature.
    """
    return vacuum_energy(frame, params, orbit) + _thermal_parts(frame.Lp, frame.Sp, bh)[2]


def casimir_report(frame: ProperFrame, params: KerrParams, orbit: EquatorialOrbit) -> CasimirReport:
    """Assemble every renormalized thermal quantity for one configuration.

    Uses the proper temperature stored in the frame.  F, S and U come from
    one series pass: direct sums at beta_hat >= 1, inverted sums at
    1/beta_hat below, each stopped at the first term that changes none of
    the sums, at most 6 terms either way; terms_used counts that pass and
    is 0 for beta_hat below about 0.009.  Tp = 0 takes the exact
    zero-temperature path (F = U = E0, S = 0, no series evaluation).
    It is vacuum_energy, the one part that reads v2, plus _report, which
    reads only Lp, Sp and Tp; a temperature sweep takes E0 and the frame
    once and calls _report alone at each temperature.
    """
    return _report(frame.Lp, frame.Sp, frame.Tp, vacuum_energy(frame, params, orbit))


def _report(Lp: float, Sp: float, Tp: float, E0: float) -> CasimirReport:
    """The CasimirReport at proper separation Lp, proper plate area Sp and
    proper temperature Tp of a cavity whose vacuum energy is E0."""
    bh = _beta_hat(Lp, Tp)
    DeltaTF_ren, S_ren, thermal_U, terms = _thermal_parts(Lp, Sp, bh)
    return CasimirReport(E0, DeltaTF_ren, E0 + DeltaTF_ren, S_ren, E0 + thermal_U,
                         blackbody_density(Tp), bh.value, terms)
