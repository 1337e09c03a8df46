"""Brute-force re-derivations of every closed form, used as ground truth.

Each function here reaches the same quantity as the closed forms in
:mod:`kerrcasimir.thermal` by a deliberately different route: a raw double
sum over mode and Matsubara-like indices, direct numerical quadrature of
the mode-sum integral before any resummation, a momentum-space quadrature
for the black-body density, and centered finite differences for the
thermodynamic derivatives.  They are slow and simple on purpose.

Both quadratures use the adaptive 21-point Gauss-Kronrod rule defined here,
a port of the rule ``scipy.integrate.quad`` runs (QUADPACK), so the package
needs no third-party module at run time.
"""

from __future__ import annotations

import heapq
import math
import operator
import sys
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

# Both quadratures split their interval where the exponent z exceeds its
# smallest value by this much: e^(-32) ~ 1e-14, so the first piece holds the
# integral and the adaptive rule does not bisect its way down from 700.
_SPLIT_DZ = 32.0


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


# QUADPACK's 21-point Gauss-Kronrod pair (dqk21; Piessens, de Doncker-Kapenga,
# Ueberhuber & Kahaner, QUADPACK, Springer 1983): the Kronrod abscissae x >= 0
# in descending order, their weights, and the weights of the 10-point Gauss
# rule, whose abscissae are _XGK[1], _XGK[3], ..., _XGK[9].
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

# The same pair spread over [-1, 1] in ascending order, so that one
# integrand call takes all 21 abscissae; the Gauss ones sit at odd positions.
_GK21_NODES = tuple(-x for x in _XGK[:-1]) + _XGK[::-1]
_GK21_KRONROD = _WGK[:-1] + _WGK[::-1]
_GK21_GAUSS = _WG + _WG[::-1]

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min


def _gk21(f, a: float, b: float) -> tuple[float, float]:
    """One 21-point Gauss-Kronrod step on [a, b]: (integral, error estimate).

    ``f`` maps the list of the 21 abscissae to the list of integrand values.
    The error estimate is QUADPACK's: resasc * min(1, (200 |K - G|/resasc)^1.5),
    floored at 50 ulp of the integral of |f|.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fv = f([centr + hlgth * x for x in _GK21_NODES])
    resk = sum(map(operator.mul, _GK21_KRONROD, fv))
    resg = sum(map(operator.mul, _GK21_GAUSS, fv[1::2]))
    reskh = 0.5 * resk
    dhlgth = abs(hlgth)
    resasc = dhlgth * sum(map(operator.mul, _GK21_KRONROD, [abs(v - reskh) for v in fv]))
    result = resk * hlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    # resabs <= resasc + |result|, so the floor can bind only below this.
    if abserr < 50.0 * _EPMACH * (resasc + abs(result)):
        resabs = dhlgth * sum(map(operator.mul, _GK21_KRONROD, map(abs, fv)))
        if resabs > _UFLOW / (50.0 * _EPMACH):
            abserr = max(50.0 * _EPMACH * resabs, abserr)
    return result, abserr


def _adaptive_gk21(f, points, epsrel: float, limit: int, what: str) -> float:
    """Integral of ``f`` over [points[0], points[-1]] to relative accuracy ``epsrel``.

    Globally adaptive like QUADPACK's qag (qagp with break points): each
    interval between consecutive ``points`` gets one 21-point step, then the
    subinterval with the largest error estimate is bisected until the summed
    estimate is at most epsrel times the summed integral.  Needing more than
    ``limit`` subintervals raises QuadratureError, with ``what`` naming the
    integral.
    """
    heap = []
    for lo, hi in zip(points, points[1:]):
        r, e = _gk21(f, lo, hi)
        heap.append((-e, lo, hi, r))
    heapq.heapify(heap)
    area = sum(item[3] for item in heap)
    errsum = -sum(item[0] for item in heap)
    while errsum > epsrel * abs(area):
        if len(heap) >= limit:
            raise QuadratureError(
                f"{what}: error estimate {errsum:.1e} exceeds {epsrel:.0e} * |{area:.1e}| "
                f"with all {limit} subintervals (quad_points) used"
            )
        neg_err, lo, hi, r = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        r1, e1 = _gk21(f, lo, mid)
        r2, e2 = _gk21(f, mid, hi)
        area += r1 + r2 - r
        errsum += e1 + e2 + neg_err
        heapq.heappush(heap, (-e1, lo, mid, r1))
        heapq.heappush(heap, (-e2, mid, hi, r2))
    return math.fsum(item[3] for item in heap)


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

    each transverse integral taken on the finite axis up to where the
    exponential argument reaches 700 (the integrand is an exact float64 zero
    beyond) by the adaptive 21-point Gauss-Kronrod rule of this module, to
    relative accuracy max(cfg.rel_tol, 1e-13) within cfg.quad_points
    subintervals, with a break point where the argument has grown by 32
    from its value at t = 0.  The n sum stops at the first term below
    cfg.rel_tol times the partial sum.  With ``full_output`` a diagnostics
    dict with the number of n terms, the cutoff and the analytic tail bound
    is returned.  Raises QuadratureError when a transverse integral needs
    more subintervals, or the n sum more than cfg.n_max terms.
    """
    b = bh.value
    if not (b > 0.0):
        raise DomainError(f"beta_hat must be > 0, got {b}")
    if math.isinf(b):
        result = -0.0
        return (result, {"n_used": 0, "t_cutoff": 0.0, "tail_estimate": 0.0}) if full_output else result
    two_pi_b = 2.0 * math.pi * b
    r_cut = _EXP_CUTOFF / two_pi_b  # radius where exp(-2 pi b rho) underflows
    epsrel = max(cfg.rel_tol, 1e-13)

    total = 0.0
    n_used = 0
    t_cut = 0.0
    for n in range(1, cfg.n_max + 1):
        if n >= r_cut:
            break
        t_cut = math.sqrt(r_cut * r_cut - n * n)

        def integrand(ts: list[float], n: int = n) -> list[float]:
            out = []
            for t in ts:
                z = two_pi_b * math.hypot(n, t)
                out.append(0.0 if z > _EXP_CUTOFF else t * math.log1p(-math.exp(-z)))
            return out

        rho = n + _SPLIT_DZ / two_pi_b
        points = (0.0, math.sqrt(rho * rho - n * n), t_cut) if rho < r_cut else (0.0, t_cut)
        val = _adaptive_gk21(
            integrand, points, epsrel, cfg.quad_points,
            f"transverse quadrature for n={n} at beta_hat={b}",
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
    -pi^2 Tp^4 / 90.  The integral is taken on [0, 700], with a break point
    at u = 32, by the adaptive 21-point Gauss-Kronrod rule of this module to
    relative accuracy 1e-10; needing more than cfg.quad_points subintervals
    raises QuadratureError.
    """
    if not (Tp > 0.0):
        raise DomainError(f"proper temperature must be > 0, got Tp={Tp}")

    def integrand(us: list[float]) -> list[float]:
        return [
            0.0 if u <= 0.0 or u > _EXP_CUTOFF else u * u * math.log1p(-math.exp(-u))
            for u in us
        ]

    val = _adaptive_gk21(integrand, (0.0, _SPLIT_DZ, _EXP_CUTOFF), 1e-10, cfg.quad_points,
                         "black-body quadrature")
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
