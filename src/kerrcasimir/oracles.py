"""Brute-force re-derivations of every closed form, used as ground truth.

Each function here reaches the same quantity as the closed forms in
:mod:`kerrcasimir.thermal` by a deliberately different route: a raw double
sum over mode and Matsubara-like indices, direct numerical quadrature of
the mode-sum integral before any resummation, a momentum-space quadrature
for the black-body density, and centered finite differences for the
thermodynamic derivatives.  They are slow and simple on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import DomainError, FDStepError, QuadratureError, TruncationError
from .geometry import (
    CavityGeometry,
    EquatorialOrbit,
    KerrParams,
    ProperFrame,
    orbit_from_band_fraction,
    proper_frame,
)
from .thermal import (
    BetaHat,
    beta_hat,
    blackbody_density,
    entropy,
    internal_energy,
    thermal_correction_exact,
    total_free_energy,
)

__all__ = [
    "OracleConfig",
    "double_sum_free_energy",
    "quadrature_free_energy",
    "blackbody_quadrature",
    "finite_difference_thermo",
    "thermal_correction_resummed_form",
    "validation_checks",
    "STANDARD_BETA_HAT_GRID",
]

# Exponential arguments beyond this are numerically zero in float64.
_EXP_CUTOFF = 700.0


@dataclass(frozen=True)
class OracleConfig:
    """Cutoffs and steps for the brute-force evaluations."""

    n_max: int = 10**5
    m_max: int = 10**5
    quad_points: int = 200
    fd_step: float = 1e-5
    rel_tol: float = 1e-12

    def __post_init__(self):
        for name in ("n_max", "m_max", "quad_points"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be >= 1")
        if not (self.fd_step > 0.0):
            raise DomainError(f"fd_step must be > 0, got {self.fd_step}")
        if not (self.rel_tol > 0.0):
            raise DomainError(f"rel_tol must be > 0, got {self.rel_tol}")


def double_sum_free_energy(
    frame: ProperFrame, bh: BetaHat, cfg: OracleConfig = OracleConfig()
) -> float:
    """Thermal correction as the raw double sum over (n, m).

    -(Sp/(16 pi Lp^3 bh^3)) * sum_{n,m>=1} (1 + 2 pi m n bh) e^(-2 pi m n bh) / m^3

    summed over diagonal shells n + m = const (all terms share one sign, so
    ordering affects only rounding).  Truncation stops once a whole shell
    falls below rel_tol times the partial sum; if the n_max/m_max window
    clipped terms that could still matter at that tolerance, a
    TruncationError carrying the partial sum is raised.
    """
    b = bh.value
    if not (b > 0.0):
        raise DomainError(f"beta_hat must be > 0, got {b}")
    if math.isinf(b):
        return -0.0
    two_pi_b = 2.0 * math.pi * b

    def summand(n: int, m: int) -> float:
        z = two_pi_b * n * m
        if z > _EXP_CUTOFF:
            return 0.0
        return (1.0 + z) * math.exp(-z) / m**3

    total = 0.0
    largest_clipped = 0.0
    shell = 0.0
    converged = False
    for s in range(2, cfg.n_max + cfg.m_max + 1):
        m_lo = max(1, s - cfg.n_max)
        m_hi = min(s - 1, cfg.m_max)
        if m_lo > 1:
            largest_clipped = max(largest_clipped, summand(s - m_lo + 1, m_lo - 1))
        if m_hi < s - 1:
            largest_clipped = max(largest_clipped, summand(s - m_hi - 1, m_hi + 1))
        shell = 0.0
        for m in range(m_lo, m_hi + 1):
            shell += summand(s - m, m)
        total += shell
        if s > 2 and shell <= cfg.rel_tol * total:
            converged = True
            break
    prefactor = -frame.Sp / (16.0 * math.pi * frame.Lp**3 * b**3)
    if not converged or largest_clipped > cfg.rel_tol * total:
        raise TruncationError(
            f"double sum not converged within n_max={cfg.n_max}, m_max={cfg.m_max} "
            f"at beta_hat={b}",
            partial_sum=prefactor * total,
            tail_estimate=abs(prefactor) * max(shell, largest_clipped),
            terms_used=cfg.n_max + cfg.m_max,
        )
    return prefactor * total


def thermal_correction_resummed_form(
    frame: ProperFrame, bh: BetaHat, cfg: OracleConfig = OracleConfig()
) -> float:
    """Thermal correction as the single sum over m before resummation.

    -(Sp/(16 pi Lp^3)) * sum_m [(2 pi m bh + 1) e^(2 pi m bh) - 1]
                               / [(e^(2 pi m bh) - 1)^2 (m bh)^3]

    evaluated through decaying exponentials for overflow safety and summed
    term by term at bh itself (no inversion), until e^(-2 pi m bh)
    underflows.  It is the same function as the hyperbolic form, so the two
    agree to rounding.  More than cfg.m_max terms raises TruncationError.
    """
    b = bh.value
    if not (b > 0.0):
        raise DomainError(f"beta_hat must be > 0, got {b}")
    if math.isinf(b):
        return -0.0
    terms: list[float] = []
    for m in range(1, cfg.m_max + 1):
        z = 2.0 * math.pi * m * b
        if z > _EXP_CUTOFF:
            break
        # [(z+1)e^z - 1]/(e^z - 1)^2 = ((z+1) - e^(-z)) e^(-z)/(1 - e^(-z))^2
        emz = math.exp(-z)
        terms.append(((z + 1.0) - emz) * emz / (1.0 - emz) ** 2 / (m * b) ** 3)
    else:
        raise TruncationError(
            f"single sum not converged after m_max={cfg.m_max} terms at beta_hat={b}",
            partial_sum=math.fsum(terms),
            tail_estimate=terms[-1],
            terms_used=cfg.m_max,
        )
    return -frame.Sp / (16.0 * math.pi * frame.Lp**3) * math.fsum(terms)


def quadrature_free_energy(
    frame: ProperFrame,
    bh: BetaHat,
    cfg: OracleConfig = OracleConfig(),
    full_output: bool = False,
):
    """Thermal correction by direct quadrature of the mode-sum integral.

    Before any series expansion the correction is, per Dirichlet mode n, an
    integral over the transverse momentum plane.  Rescaling the transverse
    wave number by pi/L and rewriting the prefactor in proper quantities
    gives

        (pi Sp/(4 Lp^3 bh)) * sum_n int_0^inf t ln(1 - e^(-2 pi bh sqrt(n^2 + t^2))) dt,

    evaluated with adaptive quadrature on the semi-infinite axis, cut off
    where the exponential argument reaches 700 (the integrand is an exact
    float64 zero beyond).  With ``full_output`` a diagnostics dict with the
    number of n terms, the cutoff and the analytic tail bound is returned.
    """
    from scipy.integrate import quad  # here, so importing the package skips scipy

    b = bh.value
    if not (b > 0.0):
        raise DomainError(f"beta_hat must be > 0, got {b}")
    if math.isinf(b):
        result = -0.0
        return (result, {"n_used": 0, "t_cutoff": 0.0, "tail_estimate": 0.0}) if full_output else result
    two_pi_b = 2.0 * math.pi * b
    r_cut = _EXP_CUTOFF / two_pi_b  # radius where exp(-2 pi b rho) underflows

    def integrand(t: float, n: int) -> float:
        z = two_pi_b * math.hypot(n, t)
        if z > _EXP_CUTOFF:
            return 0.0
        return t * math.log1p(-math.exp(-z))

    total = 0.0
    n_used = 0
    t_cut = 0.0
    for n in range(1, cfg.n_max + 1):
        if n >= r_cut:
            break
        t_cut = math.sqrt(r_cut * r_cut - n * n)
        val, abserr, info, *message = quad(
            integrand,
            0.0,
            t_cut,
            args=(n,),
            epsabs=0.0,
            epsrel=max(cfg.rel_tol, 1e-13),
            limit=cfg.quad_points,
            full_output=1,
        )
        if message:
            raise QuadratureError(
                f"transverse quadrature failed for n={n} at beta_hat={b}: {message[0]}"
            )
        total += val
        n_used = n
        if abs(val) <= cfg.rel_tol * abs(total):
            break
    else:
        raise QuadratureError(
            f"mode sum not converged within n_max={cfg.n_max} at beta_hat={b}"
        )
    result = (math.pi * frame.Sp / (4.0 * frame.Lp**3 * b)) * total
    if full_output:
        return result, {"n_used": n_used, "t_cutoff": t_cut, "tail_estimate": 0.0}
    return result


def blackbody_quadrature(Tp: float, cfg: OracleConfig = OracleConfig()) -> float:
    """Black-body free-energy density from the 3D momentum integral.

    In the rescaled momentum u = k/Tp the density is
    (Tp^4/(2 pi^2)) int_0^inf u^2 ln(1 - e^(-u)) du, which evaluates to
    -pi^2 Tp^4 / 90.
    """
    from scipy.integrate import quad  # here, so importing the package skips scipy

    if not (Tp > 0.0):
        raise DomainError(f"proper temperature must be > 0, got Tp={Tp}")

    def integrand(u: float) -> float:
        if u <= 0.0 or u > _EXP_CUTOFF:
            return 0.0
        return u * u * math.log1p(-math.exp(-u))

    val, abserr, info, *message = quad(
        integrand, 0.0, _EXP_CUTOFF, epsabs=0.0, epsrel=1e-10,
        limit=cfg.quad_points, full_output=1,
    )
    if message:
        raise QuadratureError(f"black-body quadrature failed: {message[0]}")
    return Tp**4 / (2.0 * math.pi**2) * val


def finite_difference_thermo(
    frame: ProperFrame,
    params: KerrParams,
    orbit: EquatorialOrbit,
    Tp: float,
    cfg: OracleConfig = OracleConfig(),
) -> tuple[float, float]:
    """Entropy and internal energy by centered differences in Tp.

    Applies the defining derivatives S = -dF/dTp and
    U = -Tp^2 d(F/Tp)/dTp directly to the total free energy, with a
    relative step cfg.fd_step.  Returns (S_fd, U_fd).
    """
    if not (Tp > 0.0):
        raise DomainError(f"proper temperature must be > 0, got Tp={Tp}")
    h = cfg.fd_step * Tp
    T_plus, T_minus = Tp + h, Tp - h
    if T_plus == Tp or T_minus == Tp or T_minus <= 0.0:
        raise FDStepError(f"finite-difference step {h} underflows at Tp={Tp}")
    dT = T_plus - T_minus

    def F_at(T: float) -> float:
        f = replace(frame, Tp=T)
        return total_free_energy(f, params, orbit, beta_hat(f))

    F_plus, F_minus = F_at(T_plus), F_at(T_minus)
    S_fd = -(F_plus - F_minus) / dT
    U_fd = -Tp * Tp * (F_plus / T_plus - F_minus / T_minus) / dT
    return S_fd, U_fd


# Grid used by the validation suite and the resummation acceptance check.
STANDARD_BETA_HAT_GRID = (0.1, 0.5, 1.0, 2.0, 5.0)

# Grid for the purely algebraic hyperbolic-vs-single-sum identity.
_REPRESENTATION_GRID = (0.05, 0.2, 1.0, 5.0, 20.0)


def _rel_diff(x: float, y: float) -> float:
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale > 0.0 else 0.0


def _unit_flat_frame(Tp: float) -> ProperFrame:
    return ProperFrame(C=1.0, Lp=1.0, Sp=1.0, Vp=1.0, Tp=Tp)


def validation_checks(cfg: OracleConfig = OracleConfig()) -> list[dict]:
    """Run every oracle against its closed form; return one record per check.

    Each record has name, measured, tolerance, passed and detail fields.
    Oracle failures (TruncationError, QuadratureError) are reported as
    failed checks, never raised.  The comparison tolerances are fixed by
    the checks themselves: a loosened cfg.rel_tol is not allowed to degrade
    the oracle evaluations below what the checks require, while the
    n_max/m_max windows and the finite-difference step are honored as given.
    """
    checks: list[dict] = []
    cfg = replace(cfg, rel_tol=min(cfg.rel_tol, 1e-12))

    def add(name: str, fn, tolerance: float):
        try:
            measured = fn()
            checks.append({
                "name": name,
                "measured": measured,
                "tolerance": tolerance,
                "passed": bool(measured <= tolerance),
                "detail": "",
            })
        except (TruncationError, QuadratureError, DomainError, FDStepError) as exc:
            checks.append({
                "name": name,
                "measured": None,
                "tolerance": tolerance,
                "passed": False,
                "detail": f"{type(exc).__name__}: {exc}",
            })

    for b in STANDARD_BETA_HAT_GRID:
        bh = BetaHat(b)
        frame = _unit_flat_frame(1.0 / (2.0 * b))

        def pairwise(bh=bh, frame=frame):
            closed = thermal_correction_exact(frame, bh)
            double = double_sum_free_energy(frame, bh, cfg)
            quadr = quadrature_free_energy(frame, bh, cfg)
            return max(
                _rel_diff(closed, double),
                _rel_diff(closed, quadr),
                _rel_diff(double, quadr),
            )

        add(f"resummation_pairwise_bh={b:g}", pairwise, 1e-8)

    for b in _REPRESENTATION_GRID:
        bh = BetaHat(b)
        frame = _unit_flat_frame(1.0 / (2.0 * b))

        def representation(bh=bh, frame=frame):
            return _rel_diff(
                thermal_correction_exact(frame, bh),
                thermal_correction_resummed_form(frame, bh, cfg),
            )

        add(f"hyperbolic_vs_single_sum_bh={b:g}", representation, 1e-12)

    for Tp in (0.5, 1.0, 2.0):
        def blackbody(Tp=Tp):
            return _rel_diff(blackbody_quadrature(Tp, cfg), blackbody_density(Tp))

        add(f"blackbody_Tp={Tp:g}", blackbody, 1e-6)

    # Thermodynamic derivatives on a representative rotating configuration.
    # The orbit sits at 0.866 of the allowed band so the vacuum energy is
    # half the zero-angular-momentum value; that keeps the internal energy
    # away from its high-temperature zero crossing over the whole grid,
    # where relative comparisons would be meaningless.
    params = KerrParams(M=1.0, a=0.5)
    orbit = orbit_from_band_fraction(params, 10.0, 0.8660254037844386)
    cavity = CavityGeometry(L=0.01, S0=1e-4)
    frame0 = proper_frame(params, orbit, cavity, T=0.0)
    fd_grid = [0.2 * (5.0 / 0.2) ** (i / 4.0) for i in range(5)]
    for b in fd_grid:
        bh = BetaHat(b)
        Tp = 1.0 / (2.0 * frame0.Lp * b)
        frame = replace(frame0, Tp=Tp)

        def fd_pair(bh=bh, frame=frame, Tp=Tp):
            S_fd, U_fd = finite_difference_thermo(frame, params, orbit, Tp, cfg)
            S_cl = entropy(frame, bh)
            U_cl = internal_energy(frame, params, orbit, bh)
            return max(_rel_diff(S_fd, S_cl), _rel_diff(U_fd, U_cl))

        add(f"thermo_fd_bh={b:.4g}", fd_pair, 1e-7)

        def legendre(bh=bh, frame=frame, Tp=Tp):
            F = total_free_energy(frame, params, orbit, bh)
            S = entropy(frame, bh)
            U = internal_energy(frame, params, orbit, bh)
            return abs(U - (F + Tp * S)) / abs(U)

        add(f"legendre_identity_bh={b:.4g}", legendre, 1e-9)

    return checks
