"""Equatorial Kerr geometry and the comoving (cavity) frame.

Everything here is evaluated on the equator (theta = pi/2) of a Kerr
source of mass M and specific angular momentum a, in Boyer-Lindquist
coordinates with signature (+,-,-,-) and natural units hbar = c = G = 1
(k_B = 1 as well, so temperatures are inverse geometric lengths).

The cavity is a small box comoving with an observer on a circular
equatorial orbit of coordinate angular velocity Omega = dphi/dt.  The
observer 4-velocity normalization C(Omega) doubles as the redshift
factor between coordinate and proper quantities, so proper cavity
dimensions and the proper temperature all carry factors of C(Omega).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    DomainError,
    ForbiddenOrbitError,
    InsideHorizonError,
    NakedSingularityError,
)

__all__ = [
    "KerrParams",
    "EquatorialOrbit",
    "CavityGeometry",
    "MetricFunctions",
    "HatMetric",
    "ProperFrame",
    "horizon_radius",
    "equatorial_metric_functions",
    "dragging_angular_velocity",
    "allowed_omega_interval",
    "velocity_normalization",
    "comoving_metric",
    "proper_frame",
    "orbit_from_band_fraction",
]


def _require_finite(**values: float) -> None:
    """Reject NaN and +-inf inputs by name, before any formula sees them."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {name}={value}")


@dataclass(frozen=True)
class KerrParams:
    """Mass and specific angular momentum of the rotating source.

    With ``black_hole_mode`` (the default) the parameters must describe a
    black hole, |a| <= M.  Setting it to False admits over-spun sources;
    all formulas remain valid wherever Delta(r) > 0.
    """

    M: float
    a: float = 0.0
    black_hole_mode: bool = True

    def __post_init__(self):
        _require_finite(M=self.M, a=self.a)
        if not (self.M >= 0.0):
            raise DomainError(f"mass must be >= 0, got M={self.M}")
        if self.black_hole_mode and abs(self.a) > self.M:
            raise NakedSingularityError(
                f"|a|={abs(self.a)} exceeds M={self.M}; pass black_hole_mode=False "
                "to evaluate an over-spun source"
            )


@dataclass(frozen=True)
class EquatorialOrbit:
    """Circular equatorial orbit: Boyer-Lindquist radius and Omega = dphi/dt.

    Omega is a free parameter, not solved from geodesic equations; it must
    lie strictly inside the band returned by :func:`allowed_omega_interval`.
    """

    r: float
    Omega: float = 0.0

    def __post_init__(self):
        _require_finite(r=self.r, Omega=self.Omega)
        if not (self.r > 0.0):
            raise DomainError(f"orbit radius must be > 0, got r={self.r}")


@dataclass(frozen=True)
class CavityGeometry:
    """Coordinate plate separation L (along the orbit) and plate area S0."""

    L: float
    S0: float

    def __post_init__(self):
        _require_finite(L=self.L, S0=self.S0)
        if not (self.L > 0.0):
            raise DomainError(f"plate separation must be > 0, got L={self.L}")
        if not (self.S0 > 0.0):
            raise DomainError(f"plate area must be > 0, got S0={self.S0}")


class MetricFunctions(NamedTuple):
    """Equatorial metric functions Sigma = r^2, Delta = r^2 + a^2 - 2Mr,
    A = (r^2 + a^2) r^2 + 2 M r a^2."""

    Sigma: float
    Delta: float
    BigA: float


class HatMetric(NamedTuple):
    """Metric components in the comoving Cartesian frame (t, x, y, z).

    x is tangent to the orbit, y points radially outward, z is normal to
    the equator.  ``tx`` is the tensor component g_tx = -(A/r^3)(Omega -
    omega_d); the dt dx term of the line element is 2*tx dt dx, and it
    vanishes for a zero-angular-momentum observer.  ``gS`` is the scalar
    weight -det(g)/g_tt entering phase-space volume integrals; it equals
    C(Omega)^2 identically, so sqrt(gS)*S0*L is the proper cavity volume.
    """

    tt: float
    tx: float
    xx: float
    yy: float
    zz: float
    gS: float


@dataclass(frozen=True)
class ProperFrame:
    """Cavity geometry and temperature as measured by the comoving observer.

    C is the 4-velocity normalization / redshift factor.  Lp, Sp, Vp are the
    proper plate separation, plate area and cavity volume; Sp*Lp = Vp holds
    identically.  Tp = T*C is the proper (Tolman) temperature for coordinate
    temperature T.  v2 = (A^2/(r^4 Delta))(Omega - omega_d)^2 is the
    cavity's squared speed relative to the zero-angular-momentum observer
    (ZAMO), from the same observer pass as C, so C_ZAMO/C = sqrt(1 - v2);
    the default 0.0 is a cavity comoving with the ZAMO (any static observer
    in flat space).  It is the one field that is not a record column.
    """

    C: float
    Lp: float
    Sp: float
    Vp: float
    Tp: float
    v2: float = 0.0


def horizon_radius(params: KerrParams) -> float:
    """Outer horizon radius r_+ = M + sqrt(M^2 - a^2), the larger root of Delta."""
    disc = params.M * params.M - params.a * params.a
    if disc < 0.0:
        raise NakedSingularityError(
            f"no horizon: |a|={abs(params.a)} > M={params.M}"
        )
    return params.M + math.sqrt(disc)


def equatorial_metric_functions(params: KerrParams, r: float) -> MetricFunctions:
    """Evaluate Sigma, Delta and A on the equator at radius r."""
    if not (r > 0.0):
        raise DomainError(f"radius must be > 0, got r={r}")
    M, a = params.M, params.a
    r2 = r * r
    a2 = a * a
    return MetricFunctions(
        Sigma=r2,
        Delta=r2 + a2 - 2.0 * M * r,
        BigA=(r2 + a2) * r2 + 2.0 * M * r * a2,
    )


def _omega_band(params: KerrParams, r: float) -> tuple[MetricFunctions, float, float]:
    """Metric functions, dragging velocity omega_d = 2Mar/A and half-width
    r^2 sqrt(Delta)/A of the timelike band at radius r, outside the horizon."""
    mf = equatorial_metric_functions(params, r)
    if mf.Delta <= 0.0:
        raise InsideHorizonError(
            f"Delta(r)={mf.Delta} <= 0 at r={r}: inside or on the horizon"
        )
    omega_d = 2.0 * params.M * params.a * r / mf.BigA
    return mf, omega_d, r * r * math.sqrt(mf.Delta) / mf.BigA


def dragging_angular_velocity(params: KerrParams, r: float) -> float:
    """Frame-dragging angular velocity omega_d = 2Mar/A of local inertial frames."""
    return _omega_band(params, r)[1]


def allowed_omega_interval(params: KerrParams, r: float) -> tuple[float, float]:
    """Open interval of angular velocities with a timelike comoving observer.

    The normalization bracket 1 - (A^2/(r^4 Delta))(Omega - omega_d)^2 is
    positive exactly for |Omega - omega_d| < r^2 sqrt(Delta)/A, so the band
    is centered on the dragging velocity.  Endpoints are excluded (null
    orbits, C diverges).
    """
    _, omega_d, half_width = _omega_band(params, r)
    return omega_d - half_width, omega_d + half_width


def _observer(
    params: KerrParams, orbit: EquatorialOrbit
) -> tuple[MetricFunctions, float, float, float]:
    """Metric functions, omega_d, v2 and C of the orbit.

    v2 = (A^2/(r^4 Delta))(Omega - omega_d)^2 is the cavity's squared speed
    relative to the zero-angular-momentum observer (ZAMO).  The
    normalization bracket 1 - v2 must be positive, and the band endpoints
    are compared as the same floats allowed_omega_interval returns, so
    feeding an endpoint back is rejected deterministically.
    """
    r = orbit.r
    mf, omega_d, half_width = _omega_band(params, r)
    if not (omega_d - half_width < orbit.Omega < omega_d + half_width):
        raise ForbiddenOrbitError(
            f"Omega={orbit.Omega} at r={r} is outside the open interval "
            f"({omega_d - half_width}, {omega_d + half_width}) of timelike orbits"
        )
    dOm = orbit.Omega - omega_d
    v2 = (mf.BigA * mf.BigA / (r**4 * mf.Delta)) * dOm * dOm
    bracket = 1.0 - v2
    if bracket <= 0.0:
        raise ForbiddenOrbitError(
            f"Omega={orbit.Omega} at r={r} is null or superluminal "
            "(normalization bracket <= 0)"
        )
    C = 1.0 / math.sqrt((r * r * mf.Delta / mf.BigA) * bracket)
    return mf, omega_d, v2, C


def velocity_normalization(params: KerrParams, orbit: EquatorialOrbit) -> float:
    """Normalization C(Omega) of the comoving observer 4-velocity.

    C = [ (r^2 Delta / A) (1 - (A^2/(r^4 Delta))(Omega - omega_d)^2) ]^(-1/2).

    Minimized over Omega at the zero-angular-momentum value Omega = omega_d,
    where C = sqrt(A/(r^2 Delta)).  Diverges on the light-cone boundary of
    the allowed band, which is treated as an error.
    """
    return _observer(params, orbit)[3]


def comoving_metric(params: KerrParams, orbit: EquatorialOrbit) -> HatMetric:
    """Metric components of the comoving Cartesian frame, plus the weight gS."""
    mf, omega_d, _, C = _observer(params, orbit)
    r = orbit.r
    tt = 1.0 / (C * C)
    tx = -(mf.BigA / r**3) * (orbit.Omega - omega_d)
    xx = -mf.BigA / r**4
    yy = -(r * r) / mf.Delta
    zz = -1.0
    det = (tt * xx - tx * tx) * yy * zz
    gS = -det / tt
    return HatMetric(tt=tt, tx=tx, xx=xx, yy=yy, zz=zz, gS=gS)


def proper_frame(
    params: KerrParams,
    orbit: EquatorialOrbit,
    cavity: CavityGeometry,
    T: float = 0.0,
) -> ProperFrame:
    """Proper cavity dimensions and proper temperature of the comoving observer.

    Lp = L sqrt(Delta) C / r,  Sp = (r / sqrt(Delta)) S0,  Vp = S0 L C,
    Tp = T C.  The identity Sp * Lp = Vp is exact.  A non-finite or
    negative T, or a frame that is not finite (inputs that bypassed the
    dataclass checks, or overflow), raises DomainError.
    """
    if not (0.0 <= T < math.inf):
        raise DomainError(f"temperature must be finite and >= 0, got T={T}")
    mf, _, v2, C = _observer(params, orbit)
    r = orbit.r
    sqrt_delta = math.sqrt(mf.Delta)
    frame = ProperFrame(
        C=C,
        Lp=cavity.L * sqrt_delta * C / r,
        Sp=(r / sqrt_delta) * cavity.S0,
        Vp=cavity.S0 * cavity.L * C,
        Tp=T * C + 0.0,  # +0.0, not -0.0, at T = -0.0
        v2=v2,
    )
    if not all(map(math.isfinite, (frame.Lp, frame.Sp, frame.Vp, frame.Tp))):
        raise DomainError(f"proper frame is not finite: {frame}")
    return frame


def orbit_from_band_fraction(params: KerrParams, r: float, fraction: float) -> EquatorialOrbit:
    """Orbit at Omega = omega_d + fraction * (half-width of the allowed band).

    ``fraction`` must lie in the open interval (-1, 1); 0 gives the
    zero-angular-momentum orbit.
    """
    if not (-1.0 < fraction < 1.0):
        raise ForbiddenOrbitError(
            f"band fraction must lie strictly inside (-1, 1), got {fraction}"
        )
    _, omega_d, half_width = _omega_band(params, r)
    return EquatorialOrbit(r=r, Omega=omega_d + fraction * half_width)
