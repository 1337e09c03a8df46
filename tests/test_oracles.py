"""Brute-force oracles and the validation suite built on them."""

import math
from dataclasses import replace

import numpy as np
import pytest

from kerrcasimir import (
    BetaHat,
    DomainError,
    FDStepError,
    KerrParams,
    EquatorialOrbit,
    OracleConfig,
    QuadratureError,
    TruncationError,
    blackbody_density,
    blackbody_quadrature,
    double_sum_free_energy,
    entropy,
    finite_difference_thermo,
    internal_energy,
    quadrature_free_energy,
    thermal_correction_exact,
    validation_checks,
)
from kerrcasimir import oracles
from kerrcasimir.cli import main

FLAT = KerrParams(M=0.0, a=0.0)
STATIC = EquatorialOrbit(r=10.0, Omega=0.0)


class TestOracleConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            OracleConfig(n_max=0)
        with pytest.raises(DomainError):
            OracleConfig(fd_step=0.0)


class TestDoubleSum:
    @pytest.mark.parametrize("b", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_agrees_with_closed_form(self, unit_frame_at, b):
        frame = unit_frame_at(b)
        assert double_sum_free_energy(frame, BetaHat(b)) == pytest.approx(
            thermal_correction_exact(frame, BetaHat(b)), rel=1e-10
        )

    def test_leading_term_dominates_at_large_beta_hat(self, unit_frame_at):
        b = 6.0
        frame = unit_frame_at(b)
        value = double_sum_free_energy(frame, BetaHat(b))
        leading = -(1.0 + 2.0 * math.pi * b) * math.exp(-2.0 * math.pi * b) / (
            16.0 * math.pi * b**3
        )
        assert value == pytest.approx(leading, rel=1e-10)

    def test_monotone_exponential_decay(self, unit_frame_at):
        v3 = abs(double_sum_free_energy(unit_frame_at(3.0), BetaHat(3.0)))
        v6 = abs(double_sum_free_energy(unit_frame_at(6.0), BetaHat(6.0)))
        assert v6 < v3
        # Doubling beta_hat multiplies by roughly the exponential factor.
        predicted = v3 * (1.0 + 12.0 * math.pi) / (1.0 + 6.0 * math.pi) / 8.0 * math.exp(
            -6.0 * math.pi
        )
        assert v6 == pytest.approx(predicted, rel=1e-6)

    def test_truncation_error_when_window_too_small(self, unit_frame_at):
        frame = unit_frame_at(1.0)
        with pytest.raises(TruncationError) as excinfo:
            double_sum_free_energy(frame, BetaHat(1.0), OracleConfig(m_max=1))
        assert excinfo.value.partial_sum is not None


class TestQuadrature:
    @pytest.mark.parametrize("b", [0.1, 1.0, 5.0])
    def test_agrees_with_closed_form(self, unit_frame_at, b):
        frame = unit_frame_at(b)
        assert quadrature_free_energy(frame, BetaHat(b)) == pytest.approx(
            thermal_correction_exact(frame, BetaHat(b)), rel=1e-8
        )

    def test_tail_beyond_cutoff_is_negligible(self, unit_frame_at):
        frame = unit_frame_at(1.0)
        value, info = quadrature_free_energy(frame, BetaHat(1.0), full_output=True)
        assert info["tail_estimate"] <= 1e-12 * abs(value)
        assert info["t_cutoff"] > 0.0

    @pytest.mark.parametrize("b", [0.2, 0.5, 1.0, 2.0])
    def test_mode_sum_truncation_index_scales_inversely(self, unit_frame_at, b):
        cfg = OracleConfig()
        _, info = quadrature_free_energy(unit_frame_at(b), BetaHat(b), cfg, full_output=True)
        predicted = math.log(1.0 / cfg.rel_tol) / (2.0 * math.pi * b)
        assert predicted / 4.0 <= info["n_used"] <= predicted * 4.0


class TestBlackbodyQuadrature:
    @pytest.mark.parametrize("Tp", [0.5, 1.0, 2.0])
    def test_matches_closed_form(self, Tp):
        assert blackbody_quadrature(Tp) == pytest.approx(blackbody_density(Tp), rel=1e-6)

    def test_unit_temperature_reference(self):
        assert blackbody_quadrature(1.0) == pytest.approx(-math.pi**2 / 90.0, rel=1e-6)

    def test_quartic_scaling(self):
        assert blackbody_quadrature(2.0) == pytest.approx(16.0 * blackbody_quadrature(1.0), rel=1e-8)

    def test_negative(self):
        assert blackbody_quadrature(0.3) < 0.0


class TestFiniteDifferences:
    def test_matches_closed_forms(self, kerr_fast):
        params, orbit, cavity = kerr_fast
        from kerrcasimir import proper_frame

        frame0 = proper_frame(params, orbit, cavity, T=0.0)
        b = 1.0
        Tp = 1.0 / (2.0 * frame0.Lp * b)
        frame = replace(frame0, Tp=Tp)
        S_fd, U_fd = finite_difference_thermo(frame, params, orbit, Tp)
        assert S_fd == pytest.approx(entropy(frame, BetaHat(b)), rel=1e-7)
        assert U_fd == pytest.approx(internal_energy(frame, params, orbit, BetaHat(b)), rel=1e-7)

    def test_legendre_with_fd_entropy(self, kerr_fast):
        params, orbit, cavity = kerr_fast
        from kerrcasimir import proper_frame, total_free_energy, beta_hat

        frame0 = proper_frame(params, orbit, cavity, T=0.0)
        Tp = 1.0 / (2.0 * frame0.Lp)
        frame = replace(frame0, Tp=Tp)
        S_fd, U_fd = finite_difference_thermo(frame, params, orbit, Tp)
        F = total_free_energy(frame, params, orbit, beta_hat(frame))
        assert U_fd - (F + Tp * S_fd) == pytest.approx(0.0, abs=1e-7 * abs(U_fd))

    def test_second_order_convergence(self, unit_frame_at):
        """Richardson check: halving the step cuts the error fourfold over
        two decades of step size."""
        b = 1.0
        frame = unit_frame_at(b)
        S_exact = entropy(frame, BetaHat(b))
        steps = [1e-2, 1e-3, 1e-4]
        errors = []
        for h in steps:
            S_fd, _ = finite_difference_thermo(frame, FLAT, STATIC, frame.Tp, OracleConfig(fd_step=h))
            errors.append(abs(S_fd - S_exact))
        slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
        assert 1.9 < slope < 2.1

    def test_step_underflow_raises(self, unit_frame_at):
        frame = unit_frame_at(1.0)
        with pytest.raises(FDStepError):
            finite_difference_thermo(frame, FLAT, STATIC, frame.Tp, OracleConfig(fd_step=1e-17))


class TestValidationSuite:
    def test_default_configuration_passes(self):
        checks = validation_checks()
        failures = [c for c in checks if not c["passed"]]
        assert failures == []

    def test_loose_rel_tol_still_passes(self):
        """The check tolerances govern; the user's rel_tol does not degrade
        the comparisons."""
        checks = validation_checks(OracleConfig(rel_tol=1e-2))
        assert all(c["passed"] for c in checks)

    def test_tiny_m_max_surfaces_truncation_as_failed_check(self):
        checks = validation_checks(OracleConfig(m_max=1))
        failed = [c for c in checks if not c["passed"]]
        assert failed, "expected the starved double sum to fail"
        assert any("TruncationError" in c["detail"] for c in failed)


class TestGaussKronrod:
    """The in-package 21-point Gauss-Kronrod rule behind both quadratures."""

    @pytest.mark.parametrize("a, b", [(-1.0, 1.0), (0.0, 1.0), (0.5, 3.0)])
    def test_table_integrates_polynomials_exactly(self, a, b):
        centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
        abscissae = [centr + hlgth * x for x in oracles._GK21_NODES]
        gauss_abscissae = abscissae[1::2]

        def exact(k):
            return (b ** (k + 1) - a ** (k + 1)) / (k + 1)

        def rule(weights, xs, k):
            return hlgth * math.fsum(w * x**k for w, x in zip(weights, xs))

        for k in range(32):
            assert rule(oracles._GK21_KRONROD, abscissae, k) == pytest.approx(
                exact(k), rel=1e-14, abs=1e-15), k
        for k in range(20):
            assert rule(oracles._GK21_GAUSS, gauss_abscissae, k) == pytest.approx(
                exact(k), rel=1e-14, abs=1e-15), k

    def test_every_integral_agrees_with_scipy(self, monkeypatch):
        """Each per-n transverse integral and the black-body integral match
        scipy.integrate.quad, which runs the same QUADPACK rule."""
        from scipy.integrate import quad

        calls = []
        adaptive = oracles._adaptive_gk21

        def recording(f, points, epsrel, limit, what):
            value = adaptive(f, points, epsrel, limit, what)
            calls.append((f, points[0], points[-1], epsrel, value))
            return value

        monkeypatch.setattr(oracles, "_adaptive_gk21", recording)
        cfg = OracleConfig()
        for b in oracles.STANDARD_BETA_HAT_GRID:
            frame = oracles._unit_flat_frame(1.0 / (2.0 * b))
            quadrature_free_energy(frame, BetaHat(b), cfg)
        blackbody_quadrature(1.0, cfg)
        assert len(calls) > len(oracles.STANDARD_BETA_HAT_GRID) + 1
        for f, a, b, epsrel, value in calls:
            reference = quad(lambda t: f([t])[0], a, b, epsabs=0.0, epsrel=epsrel,
                             limit=cfg.quad_points)[0]
            assert value == pytest.approx(reference, rel=1e-12, abs=0.0)

    def test_subinterval_limit_raises_one_line_error(self, unit_frame_at):
        cfg = OracleConfig(quad_points=1)
        with pytest.raises(QuadratureError) as transverse:
            quadrature_free_energy(unit_frame_at(1.0), BetaHat(1.0), cfg)
        with pytest.raises(QuadratureError) as blackbody:
            blackbody_quadrature(1.0, cfg)
        for excinfo in (transverse, blackbody):
            message = str(excinfo.value)
            assert "\n" not in message
            assert "quad_points" in message

    def test_validate_reports_quadrature_failures_as_checks(self, capsys):
        assert main(["validate", "--quad-points", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        failed = [line for line in lines if line.endswith(")") and " FAIL " in line]
        assert len(failed) == 8
        assert all("QuadratureError" in line for line in failed)
        assert lines[-1] == "15/23 oracle checks passed"
