"""Brute-force re-derivations of every closed form, used as ground truth.

Each function here reaches the same quantity as the closed forms in
:mod:`kerrcasimir.thermal` by a deliberately different route: a raw double
sum over mode and Matsubara-like indices, direct numerical quadrature of
the mode-sum integral before any resummation, a momentum-space quadrature
for the black-body density, and centered finite differences for the
thermodynamic derivatives.  They are slow and simple on purpose, but each
sum stops where its terms stop changing it and no integral is taken twice.
The double sum is taken row by row: each row stops at its first term, and
the rows at the first row, that leaves the sum unchanged (see
double_sum_free_energy).  The mode-sum quadrature shares its work exactly:
in rho = sqrt(n^2 + t^2) every mode's transverse integral has the same
integrand, so each unit segment in rho is integrated once for all modes,
and the modes are summed until they stop changing the sum (see
quadrature_free_energy).  validation_checks takes the black-body integral,
which does not depend on the temperature, once per call.  No setting trades
accuracy for speed.

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

from .errors import DomainError, FDStepError, QuadratureError, TruncationError, _checked_count
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

_LN2 = math.log(2.0)

# Relative accuracy of every integral of the mode-sum quadrature.
_MODE_EPSREL = 1e-12


@dataclass(frozen=True)
class OracleConfig:
    """Caps and the step of the brute-force evaluations.

    n_max caps the terms of each double-sum row and the modes of the
    mode-sum quadrature; m_max caps the double-sum rows and the single-sum
    terms; quad_points caps the subintervals of each quadrature.  A cap only
    decides whether an oracle raises, since each sum stops where its terms
    stop changing it.  fd_step is the relative step of the finite
    differences, a real number in (0, 1) so that Tp (1 - fd_step) > 0.
    The caps must be integers >= 1.
    """

    n_max: int = 10**5
    m_max: int = 10**5
    quad_points: int = 200
    fd_step: float = 1e-5

    def __post_init__(self):
        for name in ("n_max", "m_max", "quad_points"):
            object.__setattr__(self, name, _checked_count(name, getattr(self, name)))
        try:
            in_range = 0.0 < self.fd_step < 1.0
        except TypeError:  # a string or None
            in_range = False
        if not in_range:
            raise DomainError(f"fd_step must be a real number in (0, 1), got {self.fd_step!r}")


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

    -(Sp/(16 pi Lp^3 bh^3)) * sum_{m>=1} row_m,
        row_m = sum_{n>=1} (1 + z) e^(-z) / m^3,  z = 2 pi bh n m,

    summed row by row, each row's terms before its one division by m^3.
    Within a row the terms fall with n, so the row stops at its first term
    that leaves it unchanged, or where z passes 700 and e^(-z) underflows.
    Term by term, row_(m+1) <= e^(-2 pi bh) row_m: with d = 2 pi bh n <=
    z/m, (1 + z + d)/(1 + z) e^(-d) (m/(m+1))^3 <= (m/(m+1))^2 e^(-d).
    So the rows stop at the first one that leaves the total unchanged, and
    no term or row left out changes a bit: the value equals the same rows
    run until e^(-z) underflows.  A row that needs more than cfg.n_max
    terms, or a row past cfg.m_max that still changes the total, raises
    TruncationError.  Its partial_sum is the running total and its
    tail_estimate bounds the rest (the rest of the row by its next term
    plus the integral beyond it, the later rows by the geometric series in
    e^(-2 pi bh)), both scaled by the prefactor as the value is.
    """
    b = bh.value
    if not (b > 0.0):
        raise DomainError(f"beta_hat must be > 0, got {b}")
    if math.isinf(b):
        return 0.0
    two_pi_b = 2.0 * math.pi * b
    prefactor = -frame.Sp / (16.0 * math.pi * frame.Lp**3 * b**3)
    total = 0.0
    terms = 0

    def truncated(what: str, done: float, rest: float) -> TruncationError:
        """The error for a cut row whose terms taken sum to ``done`` and whose
        terms left out sum to at most ``rest``; the later rows add at most
        q/(1 - q) times the whole row, q = e^(-2 pi bh)."""
        q = math.exp(-two_pi_b)
        return TruncationError(
            f"double sum not converged: {what} at beta_hat={b}",
            partial_sum=prefactor * (total + done),
            tail_estimate=abs(prefactor) * (rest + q * done) / -math.expm1(-two_pi_b),
            terms_used=terms,
        )

    for m in range(1, cfg.m_max + 2):
        c, m3 = two_pi_b * m, m**3
        row = 0.0
        for n in range(1, cfg.n_max + 2):
            z = c * n
            if z > _EXP_CUTOFF:
                break
            term = (1.0 + z) * math.exp(-z)
            if row + term == row:
                break
            if n > cfg.n_max:
                # The terms fall with n: the rest of the row is at most this
                # term plus int_z^inf (1 + x) e^(-x) dx / c.
                raise truncated(f"row m={m} needs more than n_max={cfg.n_max} terms",
                                row / m3, (term + (2.0 + z) * math.exp(-z) / c) / m3)
            row += term
            terms += 1
        row /= m3
        if total + row == total:
            return prefactor * total
        if m > cfg.m_max:
            raise truncated(f"more than m_max={cfg.m_max} rows needed", 0.0, row)
        total += row


def thermal_correction_resummed_form(
    frame: ProperFrame, bh: BetaHat, cfg: OracleConfig = OracleConfig()
) -> float:
    """Thermal correction as the single sum over m before resummation.

    -(Sp/(16 pi Lp^3)) * sum_m [(2 pi m bh + 1) e^(2 pi m bh) - 1]
                               / [(e^(2 pi m bh) - 1)^2 (m bh)^3]

    evaluated through decaying exponentials for overflow safety and summed
    term by term at bh itself (no inversion).  It is the same function as
    the hyperbolic form, so the two agree to rounding.

    The terms are positive and each is at most q = e^(-2 pi bh) times the
    one before: term m is (2 pi)^3 e^(-z) k(z), z = 2 pi m bh, and
    k(z) = ((z + 1) - e^(-z))/((1 - e^(-z))^2 z^3) decreases.  So, like the
    double-sum rows, the sum stops at its first term that leaves it
    unchanged, or where z passes 700 and e^(-z) underflows, and the value
    equals the sum run to underflow, bit for bit.  Needing more than
    cfg.m_max terms raises TruncationError; its partial_sum is the running
    sum and its tail_estimate bounds the rest by the last term added times
    q/(1 - q), both scaled by the prefactor as the value is.
    """
    b = bh.value
    if not (b > 0.0):
        raise DomainError(f"beta_hat must be > 0, got {b}")
    if math.isinf(b):
        return 0.0
    prefactor = -frame.Sp / (16.0 * math.pi * frame.Lp**3)
    total = last = 0.0
    for m in range(1, cfg.m_max + 2):
        z = 2.0 * math.pi * m * b
        if z > _EXP_CUTOFF:
            break
        # [(z+1)e^z - 1]/(e^z - 1)^2 = ((z+1) - e^(-z)) e^(-z)/(1 - e^(-z))^2
        emz = math.exp(-z)
        term = ((z + 1.0) - emz) * emz / (1.0 - emz) ** 2 / (m * b) ** 3
        if total + term == total:
            break
        if m > cfg.m_max:
            raise TruncationError(
                f"single sum not converged after m_max={cfg.m_max} terms at beta_hat={b}",
                partial_sum=prefactor * total,
                tail_estimate=abs(prefactor) * last / math.expm1(2.0 * math.pi * b),
                terms_used=cfg.m_max,
            )
        total += term
        last = term
    return prefactor * total


def _mode_integrand(c: float):
    """f(rho) = rho ln(1 - e^(-c rho)), the integrand every mode shares in
    rho = sqrt(n^2 + t^2), mapped over a list of abscissae; 0 where c rho > 700.

    ln(1 - e^(-z)) is taken as log1p(-e^(-z)) above z = ln 2 and as
    ln(-expm1(-z)) below, accurate at every z > 0 (Maechler, "Accurately
    computing log(1 - exp(-|a|))", 2012); log1p(-e^(-z)) alone loses digits
    as z -> 0 and fails once e^(-z) rounds to 1.
    """

    def integrand(rhos: list[float]) -> list[float]:
        out = []
        for rho in rhos:
            z = c * rho
            if z > _EXP_CUTOFF:
                out.append(0.0)
            elif z > _LN2:
                out.append(rho * math.log1p(-math.exp(-z)))
            else:
                out.append(rho * math.log(-math.expm1(-z)))
        return out

    return integrand


def _transverse_integral(n: int, b: float, cfg: OracleConfig) -> float:
    """Transverse integral of mode n < 700/(2 pi b), taken in rho over
    [n, 700/(2 pi b)] as described in quadrature_free_energy."""
    c = 2.0 * math.pi * b
    r_cut = _EXP_CUTOFF / c  # radius where exp(-2 pi b rho) underflows
    rho = n + _SPLIT_DZ / c
    points = (n, rho, r_cut) if rho < r_cut else (n, r_cut)
    return _adaptive_gk21(
        _mode_integrand(c), points, _MODE_EPSREL, cfg.quad_points,
        f"transverse quadrature for n={n} at beta_hat={b}",
    )


def _mode_sum_tail(n_used: int, b: float) -> float:
    """Bound on the magnitude of the mode-sum terms n >= K = n_used + 1.

    With rho = sqrt(n^2 + t^2) and |ln(1 - x)| <= x/(1 - x), term n is at
    most q^n (cn + 1)/(c^2 (1 - q^K)), c = 2 pi b, q = e^(-c): geometric sums.
    """
    c, K = 2.0 * math.pi * b, n_used + 1
    q, one_minus_q = math.exp(-c), -math.expm1(-c)
    # One division per factor: their product underflows to 0 for tiny b.
    return math.exp(-c * K) * (1.0 + c * (K + q / one_minus_q)) / c / c / -math.expm1(-c * K) / one_minus_q


def _mode_integrals(b: float, cfg: OracleConfig) -> list[float]:
    """[J_1, ..., J_K], the transverse integrals of modes 1..K, built top-down
    from unit segments as described in quadrature_free_energy."""
    c = 2.0 * math.pi * b
    r_cut = _EXP_CUTOFF / c  # inf for the tiniest b
    # Modes n < r_cut contribute; one more than n_max shows whether n_max suffices.
    K = cfg.n_max + 1 if r_cut > cfg.n_max + 1 else math.ceil(r_cut) - 1
    if K < 1:
        return []
    integrand = _mode_integrand(c)

    def segment(k: int) -> float:
        return _adaptive_gk21(integrand, (k, k + 1), _MODE_EPSREL, cfg.quad_points,
                              f"mode-sum segment [{k}, {k + 1}] at beta_hat={b}")

    segments = []
    if K > 1:
        segments.append(segment(1))
        half_ulp = 0.5 * math.ulp(segments[0])
        K = next((k for k in range(2, K) if _mode_sum_tail(k - 1, b) < half_ulp), K)
    J = _transverse_integral(K, b, cfg)
    if not math.isfinite(J):  # R^2 overflows for b below about 1e-152
        raise QuadratureError(f"transverse quadrature for n={K} at beta_hat={b} is not finite")
    segments += [segment(k) for k in range(2, K)]
    modes = [J]
    for I_k in reversed(segments):
        J += I_k
        modes.append(J)
    return modes[::-1]


def _mode_sum(b: float, cfg: OracleConfig) -> tuple[float, int]:
    """(sum_n J_n, n_used): the modes of _mode_integrals summed until the
    first one that leaves the sum unchanged, as in quadrature_free_energy."""
    total = 0.0
    n_used = 0
    for J in _mode_integrals(b, cfg):
        if total + J == total:
            break
        if n_used == cfg.n_max:
            raise QuadratureError(
                f"mode sum not converged within n_max={cfg.n_max} at beta_hat={b}"
            )
        total += J
        n_used += 1
    return total, n_used


def quadrature_free_energy(frame: ProperFrame, bh: BetaHat, cfg: OracleConfig = OracleConfig()) -> float:
    """Thermal correction by direct quadrature of the mode-sum integral.

    Before any series expansion the correction is, per Dirichlet mode n, an
    integral over the transverse momentum plane.  Rescaling the transverse
    wave number by pi/L and rewriting the prefactor in proper quantities
    gives

        (pi Sp/(4 Lp^3 bh)) * sum_n int_0^inf t ln(1 - e^(-2 pi bh sqrt(n^2 + t^2))) dt,

    each transverse integral taken on the finite axis up to where the
    exponential argument reaches 700 (the integrand is an exact float64 zero
    beyond).  The exact change of variable rho = sqrt(n^2 + t^2), t dt =
    rho drho, turns mode n's integral into J_n = int_n^R f(rho) drho with
    f(rho) = rho ln(1 - e^(-2 pi bh rho)) and R = 700/(2 pi bh): one
    integrand for every mode.  So the unit segments I_k = int_k^(k+1) f are
    each integrated once and the modes are formed top-down, J_n = I_n +
    J_(n+1).  The top mode K is the first whose analytic tail bound (see
    _mode_sum_tail) lies below half an ulp of |I_1| <= |sum|, capped below
    R and at cfg.n_max + 1; J_K is integrated over [K, R] with a break point
    where the exponent has grown by 32.  Every integral uses the adaptive
    21-point Gauss-Kronrod rule of this module, to relative accuracy 1e-12
    within cfg.quad_points subintervals; all segments share one sign, so
    each J_n keeps that accuracy.  The n sum (_mode_sum) stops at the first
    J_n that leaves the running sum unchanged, which happens by n = K: the
    modes left out change no bit of it.  Raises QuadratureError when an
    integral needs more subintervals, the top one is not finite, or the n
    sum needs more than cfg.n_max terms.
    """
    b = bh.value
    if not (b > 0.0):
        raise DomainError(f"beta_hat must be > 0, got {b}")
    if math.isinf(b):
        return 0.0
    return math.pi * frame.Sp / (4.0 * frame.Lp**3 * b) * _mode_sum(b, cfg)[0]


def blackbody_quadrature(Tp: float, cfg: OracleConfig = OracleConfig()) -> float:
    """Black-body free-energy density from the 3D momentum integral.

    In the rescaled momentum u = k/Tp the density is
    (Tp^4/(2 pi^2)) int_0^inf u^2 ln(1 - e^(-u)) du, which evaluates to
    -pi^2 Tp^4 / 90.  The integral is taken on [0, 700], with a break point
    at u = 32, by the adaptive 21-point Gauss-Kronrod rule of this module to
    relative accuracy 1e-10; needing more than cfg.quad_points subintervals
    raises QuadratureError.
    """
    if not (0.0 < Tp < math.inf):
        raise DomainError(f"proper temperature must be finite and > 0, got Tp={Tp}")

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
    if not (0.0 < Tp < math.inf):
        raise DomainError(f"proper temperature must be finite and > 0, got Tp={Tp}")
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


# What an oracle raises when it cannot deliver; validation_checks reports
# each as a failed check.
_ORACLE_ERRORS = (TruncationError, QuadratureError, DomainError, FDStepError)


def _rel_diff(x: float, y: float) -> float:
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale > 0.0 else 0.0


def _unit_flat_frame(Tp: float) -> ProperFrame:
    return ProperFrame(C=1.0, Lp=1.0, Sp=1.0, Vp=1.0, Tp=Tp)


def validation_checks(cfg: OracleConfig = OracleConfig()) -> list[dict]:
    """Run every oracle against its closed form; return one record per check.

    Each record has name, measured, tolerance, passed and detail fields.
    Oracle failures (TruncationError, QuadratureError, DomainError,
    FDStepError) are reported as failed checks, never raised.  The
    comparison tolerances are fixed by the checks themselves; the caps and
    the finite-difference step of cfg are honored as given.
    """
    checks: list[dict] = []

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
        except _ORACLE_ERRORS as exc:
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

    # The u-integral does not depend on Tp: integrate it once.  Each Tp here
    # makes Tp^4 a power of two, so Tp^4 times the unit value is
    # blackbody_quadrature(Tp, cfg) bit for bit.
    try:
        unit_blackbody = blackbody_quadrature(1.0, cfg)
    except _ORACLE_ERRORS as exc:
        unit_blackbody = exc
    for Tp in (0.5, 1.0, 2.0):
        def blackbody(Tp=Tp):
            if isinstance(unit_blackbody, Exception):
                raise unit_blackbody
            return _rel_diff(Tp**4 * unit_blackbody, blackbody_density(Tp))

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
