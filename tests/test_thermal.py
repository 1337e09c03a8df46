"""Renormalized thermal Casimir quantities: closed forms and their identities."""

import math
from dataclasses import replace

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrcasimir import (
    BetaHat,
    CavityGeometry,
    DomainError,
    EquatorialOrbit,
    KerrParams,
    PointRequest,
    PointStatus,
    ProperFrame,
    ZETA3,
    beta_hat,
    blackbody_density,
    casimir_report,
    blackbody_quadrature,
    double_sum_free_energy,
    entropy,
    equatorial_metric_functions,
    evaluate_point,
    flat_casimir_density,
    high_T_expansion,
    horizon_radius,
    internal_energy,
    low_T_entropy,
    low_T_free_energy,
    low_T_internal_energy,
    orbit_from_band_fraction,
    proper_frame,
    renorm_thermal_correction,
    thermal_correction_exact,
    thermal_correction_resummed_form,
    total_free_energy,
    vacuum_energy,
)
from kerrcasimir import thermal

# Reference values computed with 40-digit arithmetic for the unit frame
# (Sp = Lp = 1); the unrenormalized thermal correction, the entropy and
# the thermal part of the internal energy.
E18_UNIT = {0.5: -0.03106777486451757731429, 1.0: -0.0002716434741837127996852}
S_UNIT_B1 = 0.0214993306198273700388
U_MINUS_E0_UNIT_B1 = 0.005374832654956842509701

FLAT = KerrParams(M=0.0, a=0.0)
STATIC = EquatorialOrbit(r=10.0, Omega=0.0)
UNIT_CAVITY = CavityGeometry(L=1.0, S0=1.0)


class TestFlatCasimirDensity:
    def test_unit_separation(self):
        assert flat_casimir_density(1.0) == -math.pi**2 / 1440.0
        assert flat_casimir_density(1.0) == pytest.approx(-6.853892e-3, rel=1e-6)

    def test_quartic_scaling(self):
        assert flat_casimir_density(2.0) == pytest.approx(flat_casimir_density(1.0) / 16.0, rel=1e-15)

    @pytest.mark.parametrize("Lp", [0.01, 0.5, 3.0, 100.0])
    def test_always_negative(self, Lp):
        assert flat_casimir_density(Lp) < 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            flat_casimir_density(0.0)


class TestVacuumEnergy:
    def test_flat_static_unit_cavity(self):
        frame = proper_frame(FLAT, STATIC, UNIT_CAVITY)
        assert vacuum_energy(frame, FLAT, STATIC) == -math.pi**2 / 1440.0

    def test_zamo_has_unit_bracket(self, kerr_zamo):
        params, orbit, cavity = kerr_zamo
        frame = proper_frame(params, orbit, cavity)
        assert frame.v2 == 0.0
        assert vacuum_energy(frame, params, orbit) == frame.Vp * flat_casimir_density(frame.Lp)

    @given(
        spin=st.floats(-0.99, 0.99),
        u=st.floats(0.0, 1.0),
        frac=st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True),
        T=st.floats(0.0, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_off_zamo_factor_is_the_ratio_of_normalizations(self, spin, u, frac, T):
        """E0 = Vp eps0(Lp) C_ZAMO/C, with C_ZAMO = sqrt(A/(r^2 Delta)) from the
        metric functions rather than from the frame's v2."""
        params = KerrParams(M=1.0, a=spin)
        r_min = 1.05 * horizon_radius(params)
        r = r_min + u * (100.0 - r_min)
        orbit = orbit_from_band_fraction(params, r, frac)
        frame = proper_frame(params, orbit, CavityGeometry(L=0.01, S0=1e-4), T)
        mf = equatorial_metric_functions(params, r)
        C_zamo = math.sqrt(mf.BigA / (r * r * mf.Delta))
        expected = frame.Vp * flat_casimir_density(frame.Lp) * C_zamo / frame.C
        E0 = vacuum_energy(frame, params, orbit)
        assert abs(E0 - expected) <= 1e-13 * abs(expected)
        hotter = replace(frame, Tp=2.0 * frame.Tp + 1.0)
        assert vacuum_energy(hotter, params, orbit) == E0

    def test_replace_keeps_the_frame_speed(self, kerr_fast):
        params, orbit, cavity = kerr_fast
        frame = proper_frame(params, orbit, cavity)
        hotter = replace(frame, Tp=2.0)
        assert hotter.v2 == frame.v2 > 0.0
        assert vacuum_energy(hotter, params, orbit) == vacuum_energy(frame, params, orbit)

    @pytest.mark.parametrize("v2", [-1e-3, 1.0, 2.0, math.nan, math.inf])
    def test_frame_speed_outside_the_light_cone_rejected(self, v2):
        frame = ProperFrame(C=1.0, Lp=1.0, Sp=1.0, Vp=1.0, Tp=0.0, v2=v2)
        with pytest.raises(DomainError):
            vacuum_energy(frame, FLAT, STATIC)

    def test_half_band_orbit(self):
        # Omega = omega_d + 0.5 * half-width makes the bracket exactly 0.75.
        params = KerrParams(M=1.0, a=0.5)
        orbit = orbit_from_band_fraction(params, 10.0, 0.5)
        cavity = CavityGeometry(L=0.01, S0=1e-4)
        frame = proper_frame(params, orbit, cavity)
        expected = frame.Vp * flat_casimir_density(frame.Lp) * math.sqrt(0.75)
        assert vacuum_energy(frame, params, orbit) == pytest.approx(expected, rel=1e-12)


class TestBetaHat:
    @pytest.mark.parametrize("Lp, Tp, expected", [(1.0, 0.5, 1.0), (2.0, 0.25, 1.0), (1.0, 0.1, 5.0)])
    def test_values(self, Lp, Tp, expected):
        frame = ProperFrame(C=1.0, Lp=Lp, Sp=1.0, Vp=Lp, Tp=Tp)
        assert beta_hat(frame).value == pytest.approx(expected, rel=1e-15)

    def test_zero_temperature_is_infinite(self):
        frame = ProperFrame(C=1.0, Lp=1.0, Sp=1.0, Vp=1.0, Tp=0.0)
        assert math.isinf(beta_hat(frame).value)


class TestThermalCorrectionExact:
    @pytest.mark.parametrize("b", sorted(E18_UNIT))
    def test_frozen_reference_values(self, unit_frame_at, b):
        frame = unit_frame_at(b)
        assert thermal_correction_exact(frame, BetaHat(b)) == pytest.approx(E18_UNIT[b], rel=1e-13)

    @pytest.mark.parametrize("b", [0.05, 0.2, 1.0, 5.0, 20.0])
    def test_equals_resummed_single_sum_form(self, unit_frame_at, b):
        """The hyperbolic form and the pre-resummation single sum are the
        same function, term by term; agreement is purely algebraic."""
        frame = unit_frame_at(b)
        x = thermal_correction_exact(frame, BetaHat(b))
        y = thermal_correction_resummed_form(frame, BetaHat(b))
        assert x == pytest.approx(y, rel=1e-12)

    @pytest.mark.parametrize("b", [0.05, 0.1, 1.0, 2.0, 20.0])
    def test_equals_double_sum_oracle(self, unit_frame_at, b):
        frame = unit_frame_at(b)
        assert thermal_correction_exact(frame, BetaHat(b)) == pytest.approx(
            double_sum_free_energy(frame, BetaHat(b)), rel=1e-10
        )

    def test_vanishes_exponentially_at_low_temperature(self, unit_frame_at):
        # The zeta(3) tail cancels the power part exactly, leaving only
        # terms of order e^(-2 pi bh).
        b = 10.0
        frame = unit_frame_at(b)
        value = thermal_correction_exact(frame, BetaHat(b))
        envelope = (1.0 + 2.0 * math.pi * b) * math.exp(-2.0 * math.pi * b) / (16.0 * math.pi * b**3)
        assert value < 0.0
        assert abs(value) <= 1.01 * envelope


class TestRenormThermalCorrection:
    def test_low_temperature_power_law(self, unit_frame_at):
        """At large bh the renormalized correction approaches
        -zeta(3) Sp Tp^3/(4 pi) + Vp pi^2 Tp^4/90, everything else being
        exponentially small."""
        b = 10.0
        frame = unit_frame_at(b)
        Tp = frame.Tp
        expected = -ZETA3 * Tp**3 / (4.0 * math.pi) + math.pi**2 * Tp**4 / 90.0
        value = renorm_thermal_correction(frame, BetaHat(b))
        assert value == pytest.approx(expected, rel=1e-12)

    def test_vanishes_as_temperature_goes_to_zero(self, unit_frame_at):
        b = 50.0
        frame = unit_frame_at(b)
        value = renorm_thermal_correction(frame, BetaHat(b))
        # Bounded by twice the leading Tp^3 term, and tiny in absolute terms.
        assert abs(value) <= 2.0 * ZETA3 * frame.Tp**3 / (4.0 * math.pi)
        frame0 = replace(frame, Tp=0.0)
        assert renorm_thermal_correction(frame0, beta_hat(frame0)) == 0.0

    def test_series_part_linear_in_plate_area(self, unit_frame_at):
        b = 1.0
        frame = unit_frame_at(b)
        doubled = replace(frame, Sp=2.0 * frame.Sp, Vp=2.0 * frame.Vp)
        assert thermal_correction_exact(doubled, BetaHat(b)) == 2.0 * thermal_correction_exact(
            frame, BetaHat(b)
        )
        assert renorm_thermal_correction(doubled, BetaHat(b)) == pytest.approx(
            2.0 * renorm_thermal_correction(frame, BetaHat(b)), rel=1e-14
        )


class TestBlackbodyDensity:
    def test_zero_temperature(self):
        assert blackbody_density(0.0) == 0.0

    def test_unit_temperature(self):
        assert blackbody_density(1.0) == -math.pi**2 / 90.0
        assert blackbody_density(1.0) == pytest.approx(-0.1096623, rel=1e-6)

    def test_quartic(self):
        assert blackbody_density(2.0) == pytest.approx(16.0 * blackbody_density(1.0), rel=1e-15)


_UNIT = ProperFrame(C=1.0, Lp=1.0, Sp=1.0, Vp=1.0, Tp=1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call", [
    blackbody_density,
    lambda Tp: low_T_free_energy(_UNIT, FLAT, STATIC, Tp),
    lambda Tp: low_T_entropy(_UNIT, Tp),
    lambda Tp: low_T_internal_energy(_UNIT, FLAT, STATIC, Tp),
    lambda Tp: high_T_expansion(_UNIT, Tp),
    blackbody_quadrature,
    flat_casimir_density,
], ids=["blackbody_density", "low_T_free_energy", "low_T_entropy", "low_T_internal_energy",
        "high_T_expansion", "blackbody_quadrature", "flat_casimir_density"])
def test_non_finite_temperature_or_separation_rejected(call, value):
    with pytest.raises(DomainError):
        call(value)


class TestTotalFreeEnergy:
    def test_zero_temperature_is_vacuum_energy(self):
        """As T -> 0 every thermal piece dies and F_ren -> E0_ren; for the
        unit flat cavity that is -pi^2/1440."""
        frame = proper_frame(FLAT, STATIC, UNIT_CAVITY, T=0.0)
        F = total_free_energy(frame, FLAT, STATIC, beta_hat(frame))
        assert F == -math.pi**2 / 1440.0

        cold = replace(frame, Tp=1.0 / 100.0)  # beta_hat = 50
        F_cold = total_free_energy(cold, FLAT, STATIC, beta_hat(cold))
        # Residual is the Tp^3 tail, ~ 1e-7 here, vanishing with Tp.
        assert abs(F_cold - F) <= ZETA3 * cold.Tp**3 / math.pi

    def test_decomposition_against_double_sum_oracle(self, unit_frame_at):
        """F = E0 + [unrenormalized correction] - zeta(3) Sp Tp^3/(4 pi)
        + Vp pi^2 Tp^4/90, with the correction from the brute-force sum."""
        b = 1.0
        frame = unit_frame_at(b)
        Tp = frame.Tp
        F = total_free_energy(frame, FLAT, STATIC, BetaHat(b))
        E0 = vacuum_energy(frame, FLAT, STATIC)
        oracle = double_sum_free_energy(frame, BetaHat(b))
        expected = E0 + oracle - ZETA3 * Tp**3 / (4.0 * math.pi) + math.pi**2 * Tp**4 / 90.0
        assert F == pytest.approx(expected, rel=1e-10)

    def test_thermal_part_universal_across_orbits(self, kerr_zamo):
        """Two configurations matched on (Lp, Sp, Tp) share the thermal
        parts of F, S, U no matter the underlying orbit."""
        params, orbit, cavity = kerr_zamo
        frame_k = proper_frame(params, orbit, cavity, T=3.0)
        bh_k = beta_hat(frame_k)

        flat_params = KerrParams(M=0.0, a=0.0)
        flat_orbit = EquatorialOrbit(r=8.0, Omega=0.0)  # powers of two keep Lp = L exact
        flat_cavity = CavityGeometry(L=frame_k.Lp, S0=frame_k.Sp)
        frame_f = proper_frame(flat_params, flat_orbit, flat_cavity, T=frame_k.Tp)
        assert (frame_f.Lp, frame_f.Sp, frame_f.Tp) == (frame_k.Lp, frame_k.Sp, frame_k.Tp)
        bh_f = beta_hat(frame_f)

        dF_k = total_free_energy(frame_k, params, orbit, bh_k) - vacuum_energy(frame_k, params, orbit)
        dF_f = total_free_energy(frame_f, flat_params, flat_orbit, bh_f) - vacuum_energy(
            frame_f, flat_params, flat_orbit
        )
        assert dF_k == pytest.approx(dF_f, rel=1e-12)
        assert entropy(frame_k, bh_k) == pytest.approx(entropy(frame_f, bh_f), rel=1e-12)


class TestEntropy:
    def test_frozen_reference_value(self, unit_frame_at):
        frame = unit_frame_at(1.0)
        assert entropy(frame, BetaHat(1.0)) == pytest.approx(S_UNIT_B1, rel=1e-13)

    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 5.0, 10.0, 50.0])
    def test_nonnegative(self, unit_frame_at, b):
        assert entropy(unit_frame_at(b), BetaHat(b)) >= 0.0

    def test_third_law_trend(self, unit_frame_at):
        bs = [5.0, 10.0, 20.0, 50.0]
        values = [entropy(unit_frame_at(b), BetaHat(b)) for b in bs]
        assert all(a > b for a, b in zip(values, values[1:]))
        frame0 = replace(unit_frame_at(1.0), Tp=0.0)
        assert entropy(frame0, beta_hat(frame0)) == 0.0


class TestInternalEnergy:
    def test_frozen_reference_value(self, unit_frame_at):
        frame = unit_frame_at(1.0)
        U = internal_energy(frame, FLAT, STATIC, BetaHat(1.0))
        E0 = vacuum_energy(frame, FLAT, STATIC)
        assert U - E0 == pytest.approx(U_MINUS_E0_UNIT_B1, rel=1e-13)

    def test_zero_temperature_is_vacuum_energy(self, unit_frame_at):
        frame0 = replace(unit_frame_at(1.0), Tp=0.0)
        assert internal_energy(frame0, FLAT, STATIC, beta_hat(frame0)) == vacuum_energy(
            frame0, FLAT, STATIC
        )

    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 5.0])
    def test_legendre_identity(self, unit_frame_at, b):
        frame = unit_frame_at(b)
        F = total_free_energy(frame, FLAT, STATIC, BetaHat(b))
        S = entropy(frame, BetaHat(b))
        U = internal_energy(frame, FLAT, STATIC, BetaHat(b))
        assert U == pytest.approx(F + frame.Tp * S, rel=1e-9)


class TestCasimirReport:
    def test_invariants(self, kerr_fast):
        params, orbit, cavity = kerr_fast
        frame = proper_frame(params, orbit, cavity, T=10.0)
        report = casimir_report(frame, params, orbit)
        assert report.F_ren == report.E0_ren + report.DeltaTF_ren
        assert report.U_ren == pytest.approx(report.F_ren + frame.Tp * report.S_ren, rel=1e-9)
        assert report.f_bb == blackbody_density(frame.Tp)
        assert report.terms_used > 0

    def test_zero_temperature_path(self, flat_static):
        params, orbit, cavity = flat_static
        frame = proper_frame(params, orbit, cavity, T=0.0)
        report = casimir_report(frame, params, orbit)
        assert report.S_ren == 0.0
        assert report.U_ren == report.E0_ren
        assert report.F_ren == report.E0_ren
        assert report.DeltaTF_ren == 0.0
        assert math.isinf(report.beta_hat)
        assert report.terms_used == 0


# beta_hat from deep high temperature to deep low temperature, with the
# switch between the inverted (< 1) and direct (>= 1) series at 1.
KERNEL_GRID = (1e-8, 1e-5, 1e-3, 0.01, 0.1, 0.5, 0.999, 1.0, 2.0, 10.0, 100.0, 1e4, 1e8)

# 65 beta_hat, four per decade from 1e-8 to 1e8, and the worst case of the
# kernel's term count (6 terms) found on 4,001 log-spaced points from 1e-16
# to 1e16.
LOG_GRID = [10.0 ** (-8.0 + 0.25 * i) for i in range(65)] + [0.8953647655495938]


def mp_reference(Lp, Sp, E0, b):
    """F_ren, S_ren, U_ren at 40 digits, independent of the inversion.

    For b >= 1e-3 the direct hyperbolic sums are taken at b itself, with
    about 11/b terms (the first omitted one is e^(-69) of the leading
    term), and the power terms are cancelled in 40-digit arithmetic.
    Below that the high-temperature power form is exact up to
    e^(-2 pi/b) < e^(-6000).
    """
    with mpmath.workdps(40):
        Lp, Sp, E0, b = (mpmath.mpf(v) for v in (Lp, Sp, E0, b))
        pi, z3, u = mpmath.pi, mpmath.zeta(3), 1 / b
        if b >= mpmath.mpf("1e-3"):
            A = B = C = mpmath.mpf(0)
            for m in range(1, int(11 / b) + 2):
                e = mpmath.exp(-2 * pi * m * b)
                ce = 2 * e / (1 - e)
                se = ce * (ce + 2)
                A += ce / m**3
                B += se / m**2
                C += (1 + ce) * se / m
            f = (z3 + A) * u**3 + pi * B * u**2 - pi**3 * u**4 / 45
            s = 3 * (z3 + A) * u**2 + 3 * pi * B * u + 2 * pi**2 * C - 4 * pi**3 * u**3 / 45
            w = (z3 + A) * u**3 + pi * B * u**2 + pi**2 * C * u - pi**3 * u**4 / 30
        else:
            f, s, w = z3 * u - pi**3 / 45, z3, pi**3 / 90
        k = Sp / (16 * pi * Lp**2)
        return float(E0 - k * f / (2 * Lp)), float(k * s), float(E0 + k * w / Lp)


def kerr_report_at(config, b):
    params, orbit, cavity = config
    frame0 = proper_frame(params, orbit, cavity)
    frame = replace(frame0, Tp=1.0 / (2.0 * frame0.Lp * b))
    return frame, casimir_report(frame, params, orbit)


def kernel_to_underflow(b):
    """thermal._kernel's (g, f, s, w) with every sum run until its terms
    underflow (pi m a > 350), the reference for the kernel's stop rule."""
    u = 1.0 / b
    inverted = b < 1.0
    arg = u if inverted else b
    A = B = C = 0.0
    m = 1
    while math.pi * m * arg <= 350.0:
        ce = 2.0 / math.expm1(2.0 * math.pi * m * arg)
        se = ce * (ce + 2.0)
        A += ce / m**3
        B += se / m**2
        C += (1.0 + ce) * se / m
        m += 1
    pi, pi2, pi3, u2, u3 = math.pi, math.pi**2, math.pi**3, u * u, u * u * u
    power = ZETA3 * u3 - pi3 * u3 * u / 45.0
    if inverted:
        f = ZETA3 * u - pi3 / 45.0 + u * A + pi * B * u2
        s = ZETA3 + A + pi * B * u - 2.0 * pi2 * C * u2
        w = pi3 / 90.0 - pi2 * C * u3
        return f - power, f, s, w
    g = A * u3 + pi * B * u2
    s = 3.0 * (ZETA3 + A) * u2 + 3.0 * pi * B * u + 2.0 * pi2 * C - 4.0 * pi3 * u3 / 45.0
    w = (ZETA3 + A) * u3 + pi * B * u2 + pi2 * C * u - pi3 * u3 * u / 30.0
    return g, g + power, s, w


class TestOnePassKernel:
    @pytest.mark.parametrize("b", KERNEL_GRID)
    def test_matches_40_digit_reference(self, kerr_zamo, b):
        frame, report = kerr_report_at(kerr_zamo, b)
        F, S, U = mp_reference(frame.Lp, frame.Sp, report.E0_ren, report.beta_hat)
        assert abs(report.F_ren - F) <= 1e-14 * abs(F)
        assert abs(report.S_ren - S) <= 1e-14 * abs(S)
        # U_ren tends to zero at high temperature on a ZAMO cavity, so its
        # error is measured against the vacuum energy it cancels.
        assert abs(report.U_ren - U) <= 1e-14 * max(abs(U), abs(report.E0_ren))

    def test_continuous_across_representation_switch(self, kerr_zamo):
        params, orbit, cavity = kerr_zamo
        frame = proper_frame(params, orbit, cavity, T=1.0)
        below, at, above = (BetaHat(v) for v in (math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0)))
        E0 = abs(vacuum_energy(frame, params, orbit))
        quantities = (
            (lambda bh: total_free_energy(frame, params, orbit, bh), 0.0),
            (lambda bh: entropy(frame, bh), 0.0),
            (lambda bh: internal_energy(frame, params, orbit, bh), E0),
        )
        for q, floor in quantities:
            for x, y in ((q(below), q(at)), (q(at), q(above))):
                assert abs(x - y) <= 1e-14 * max(abs(x), floor)

    def test_legendre_identity_and_bounded_terms_at_every_temperature(self, kerr_zamo):
        for b in LOG_GRID:
            frame, report = kerr_report_at(kerr_zamo, b)
            F, S, U = report.F_ren, report.S_ren, report.U_ren
            assert abs(U - (F + frame.Tp * S)) <= 1e-12 * max(abs(U), abs(F))
            assert report.terms_used <= 6
            if b < 0.0089:  # e^(-2 pi / b) underflows before the first term
                assert report.terms_used == 0

    @pytest.mark.parametrize("grid", ["65-point", "KERNEL_GRID"])
    def test_stop_rule_matches_the_sums_run_to_underflow_bit_for_bit(self, grid):
        """The loop stops at the first term that changes none of A, B and C;
        the terms it omits would not have changed a bit."""
        for b in LOG_GRID if grid == "65-point" else KERNEL_GRID:
            *brackets, terms = thermal._kernel(BetaHat(b))
            assert list(map(float.hex, brackets)) == list(map(float.hex, kernel_to_underflow(b))), b
            assert terms <= 6

    @pytest.mark.parametrize("b", [1e-70, 1e-30, 1e-16, 1e16, 1e100, 1e300, 1.7976931348623157e308])
    def test_loop_ends_without_a_cap_at_the_float_extremes(self, b):
        """Far outside LOG_GRID, pi times the series argument already passes
        350 at m = 1, so the uncapped loop ends before adding a term and the
        brackets are finite and equal the reference bit for bit."""
        *brackets, terms = thermal._kernel(BetaHat(b))
        assert terms == 0
        assert all(math.isfinite(x) for x in brackets)
        assert list(map(float.hex, brackets)) == list(map(float.hex, kernel_to_underflow(b)))

    def test_high_temperature_point_is_ok(self, kerr_zamo):
        params, orbit, cavity = kerr_zamo
        record = evaluate_point(PointRequest(params=params, orbit=orbit, cavity=cavity, T=1e6))
        assert record.status is PointStatus.OK
        assert record.beta_hat < 1e-4
        assert record.terms_used == 0
        assert all(math.isfinite(v) for v in (record.F_ren, record.S_ren, record.U_ren))


class TestThermodynamicInvariants:
    @pytest.mark.parametrize("frac", [None, 0.0, 0.9, -0.5], ids=["unit-flat", "zamo", "frac=0.9", "frac=-0.5"])
    def test_entropy_positive_free_energy_falling_heat_capacity_nonnegative(self, flat_static, frac):
        """Over 161 beta_hat from 1e3 down to 1e-5 (T rising): S_ren > 0,
        F_ren strictly decreasing and U_ren - E0_ren never decreasing (heat
        capacity >= 0), on the unit flat frame and on a = 0.5, r = 10 frames."""
        if frac is None:
            params, orbit, cavity = flat_static
        else:
            params = KerrParams(M=1.0, a=0.5)
            orbit = orbit_from_band_fraction(params, 10.0, frac)
            cavity = CavityGeometry(L=0.01, S0=1e-4)
        frame0 = proper_frame(params, orbit, cavity)
        reports = [casimir_report(replace(frame0, Tp=1.0 / (2.0 * frame0.Lp * 10.0 ** (3.0 - i / 20.0))),
                                  params, orbit) for i in range(161)]
        assert all(r.S_ren > 0.0 for r in reports)
        F = [r.F_ren for r in reports]
        assert all(hot < cold for cold, hot in zip(F, F[1:]))
        thermal_U = [r.U_ren - r.E0_ren for r in reports]
        assert all(hot >= cold for cold, hot in zip(thermal_U, thermal_U[1:]))
