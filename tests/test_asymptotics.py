"""Low- and high-temperature asymptotic forms against the exact series."""

import math
from dataclasses import replace

import pytest

from kerrcasimir import (
    BetaHat,
    KerrParams,
    EquatorialOrbit,
    ZETA3,
    blackbody_density,
    entropy,
    high_T_expansion,
    internal_energy,
    low_T_entropy,
    low_T_free_energy,
    low_T_internal_energy,
    thermal_correction_exact,
    total_free_energy,
    vacuum_energy,
)

FLAT = KerrParams(M=0.0, a=0.0)
STATIC = EquatorialOrbit(r=10.0, Omega=0.0)

# Float64 floor for relative comparisons whose true residual is
# exponentially below machine precision.
EPS_FLOOR = 2e-15


class TestHighTemperature:
    @pytest.mark.parametrize("b", [0.1, 0.05, 0.04, 0.03, 0.02])
    def test_matches_exact_correction(self, unit_frame_at, b):
        frame = unit_frame_at(b)
        exact = thermal_correction_exact(frame, BetaHat(b))
        approx = high_T_expansion(frame, frame.Tp)
        assert abs(exact - approx) / abs(approx) < 1e-4

    def test_error_does_not_grow_as_temperature_rises(self, unit_frame_at):
        errs = []
        for b in (0.05, 0.04, 0.03, 0.02):
            frame = unit_frame_at(b)
            exact = thermal_correction_exact(frame, BetaHat(b))
            errs.append(abs(exact - high_T_expansion(frame, frame.Tp)) / abs(exact))
        for prev, nxt in zip(errs, errs[1:]):
            assert nxt <= max(prev, EPS_FLOOR)

    def test_quartic_term_is_blackbody(self, unit_frame_at):
        # Subtracting the other powers isolates Vp * f_bb(Tp) exactly.
        frame = unit_frame_at(0.05)
        Tp = frame.Tp
        rest = (
            frame.Sp * ZETA3 * Tp**3 / (4.0 * math.pi)
            - ZETA3 * frame.Sp * Tp / (16.0 * math.pi * frame.Lp**2)
            + math.pi**2 * frame.Sp / (1440.0 * frame.Lp**3)
        )
        assert high_T_expansion(frame, Tp) - rest == pytest.approx(
            frame.Vp * blackbody_density(Tp), rel=1e-15
        )


class TestLowTemperatureReports:
    def test_zero_temperature_values(self, unit_frame_at):
        frame = replace(unit_frame_at(1.0), Tp=0.0)
        rf = low_T_free_energy(frame, FLAT, STATIC, 0.0)
        assert rf.value == vacuum_energy(frame, FLAT, STATIC)
        assert rf.leading_correction == 0.0
        assert low_T_entropy(frame, 0.0).value == 0.0
        ru = low_T_internal_energy(frame, FLAT, STATIC, 0.0)
        assert ru.value == vacuum_energy(frame, FLAT, STATIC)

    @pytest.mark.parametrize("b", [1.5, 2.0, 3.0, 4.0, 5.0])
    def test_exact_within_twice_the_leading_correction(self, unit_frame_at, b):
        frame = unit_frame_at(b)
        Tp = frame.Tp
        bh = BetaHat(b)
        checks = [
            (total_free_energy(frame, FLAT, STATIC, bh), low_T_free_energy(frame, FLAT, STATIC, Tp)),
            (entropy(frame, bh), low_T_entropy(frame, Tp)),
            (internal_energy(frame, FLAT, STATIC, bh), low_T_internal_energy(frame, FLAT, STATIC, Tp)),
        ]
        for exact, report in checks:
            assert abs(exact - report.value) <= 2.0 * abs(report.leading_correction)

    def test_deviation_approaches_the_leading_correction(self, unit_frame_at):
        """|exact - value| / |correction| -> 1 from above as bh grows."""
        for make_pair in (
            lambda f, bh: (total_free_energy(f, FLAT, STATIC, bh), low_T_free_energy(f, FLAT, STATIC, f.Tp)),
            lambda f, bh: (entropy(f, bh), low_T_entropy(f, f.Tp)),
            lambda f, bh: (internal_energy(f, FLAT, STATIC, bh), low_T_internal_energy(f, FLAT, STATIC, f.Tp)),
        ):
            ratios = []
            for b in (2.0, 3.0, 4.0):
                frame = unit_frame_at(b)
                exact, report = make_pair(frame, BetaHat(b))
                ratios.append(abs(exact - report.value) / abs(report.leading_correction))
            assert all(1.0 < r < 2.0 for r in ratios)
            assert ratios[0] > ratios[1] > ratios[2]

    def test_free_energy_machine_accurate_at_beta_hat_5(self, unit_frame_at):
        frame = unit_frame_at(5.0)
        exact = total_free_energy(frame, FLAT, STATIC, BetaHat(5.0))
        report = low_T_free_energy(frame, FLAT, STATIC, frame.Tp)
        assert abs(exact - report.value) / abs(exact) < 1e-12

    def test_internal_energy_machine_accurate_at_beta_hat_5(self, unit_frame_at):
        frame = unit_frame_at(5.0)
        exact = internal_energy(frame, FLAT, STATIC, BetaHat(5.0))
        report = low_T_internal_energy(frame, FLAT, STATIC, frame.Tp)
        assert abs(exact - report.value) / abs(exact) < 1e-12

    def test_entropy_positive_in_the_low_temperature_window(self, unit_frame_at):
        # value = (3 zeta(3)/(4 pi)) Sp Tp^2 - (2 pi^2/45) Vp Tp^3 stays
        # positive while Lp*Tp <= 0.25 (with Vp = Sp*Lp).
        for b in (2.0, 3.0, 5.0, 10.0):  # Lp*Tp = 1/(2b) <= 0.25
            frame = unit_frame_at(b)
            assert low_T_entropy(frame, frame.Tp).value > 0.0

    def test_corrections_shrink_with_temperature(self, unit_frame_at):
        corrections = [
            abs(low_T_entropy(unit_frame_at(b), unit_frame_at(b).Tp).leading_correction)
            for b in (2.0, 3.0, 4.0, 5.0)
        ]
        assert all(a > b for a, b in zip(corrections, corrections[1:]))

    def test_asymptotic_forms_satisfy_legendre_identity(self, unit_frame_at):
        """The Tp^3 coefficients obey -1/(4 pi) + 3/(4 pi) - 1/(2 pi) = 0
        and the Tp^4 ones 1/90 + 2/45 - 1/15... cancel likewise, so
        F_as + Tp*S_as - U_as vanishes identically."""
        for b in (0.5, 2.0, 5.0):
            frame = unit_frame_at(b)
            Tp = frame.Tp
            rf = low_T_free_energy(frame, FLAT, STATIC, Tp)
            rs = low_T_entropy(frame, Tp)
            ru = low_T_internal_energy(frame, FLAT, STATIC, Tp)
            residual = rf.value + Tp * rs.value - ru.value
            scale = max(abs(rf.value), abs(Tp * rs.value), abs(ru.value))
            assert abs(residual) <= 1e-14 * scale
