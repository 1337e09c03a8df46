"""Brute-force oracles and the validation suite built on them."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from kerrcasimir import (
    BetaHat,
    DomainError,
    FDStepError,
    KerrParams,
    EquatorialOrbit,
    OracleConfig,
    ProperFrame,
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
    thermal_correction_resummed_form,
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

    @pytest.mark.parametrize("name", ["n_max", "m_max", "quad_points"])
    @pytest.mark.parametrize("value", [2.5, 3.0, "3", None])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            OracleConfig(**{name: value})

    @pytest.mark.parametrize("fd_step", [0.0, -1e-5, 1.0, 2.0, math.inf, math.nan, "1e-5", None])
    def test_fd_step_must_be_a_real_number_in_the_unit_interval(self, fd_step):
        with pytest.raises(DomainError, match="fd_step must be a real number in"):
            OracleConfig(fd_step=fd_step)

    @pytest.mark.parametrize("name", ["n_max", "m_max", "quad_points"])
    def test_counts_take_any_integer_type(self, name):
        cfg = OracleConfig(**{name: np.int64(7)})
        assert type(getattr(cfg, name)) is int and cfg == OracleConfig(**{name: 7})

    def test_every_setting_does_work(self):
        """Each OracleConfig field, at a value other than its default,
        changes what validation_checks reports; a field that does nothing
        fails here."""
        non_default = {"n_max": 1, "m_max": 1, "quad_points": 1, "fd_step": 1e-3}
        assert [field.name for field in fields(OracleConfig)] == list(non_default)
        default = validation_checks()
        for name, value in non_default.items():
            assert validation_checks(OracleConfig(**{name: value})) != default, name


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


def double_sum_to_underflow(frame, b):
    """double_sum_free_energy with every row run until e^(-z) underflows and
    every row that has a term added, the reference for its stop rule."""
    two_pi_b = 2.0 * math.pi * b
    total = 0.0
    m = 1
    while two_pi_b * m <= 700.0:
        c = two_pi_b * m
        row = 0.0
        n = 1
        while c * n <= 700.0:
            z = c * n
            row += (1.0 + z) * math.exp(-z)
            n += 1
        total += row / m**3
        m += 1
    return -frame.Sp / (16.0 * math.pi * frame.Lp**3 * b**3) * total


class TestDoubleSumRows:
    """The double sum taken row by row, each row and the rows stopping where
    their terms stop changing the sum."""

    @pytest.mark.parametrize("b", [0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0])
    def test_agrees_with_closed_form_to_rounding(self, unit_frame_at, b):
        frame = unit_frame_at(b)
        value = double_sum_free_energy(frame, BetaHat(b))
        exact = thermal_correction_exact(frame, BetaHat(b))
        assert abs(value - exact) <= 1e-15 * abs(exact)

    def test_stop_rule_matches_the_rows_run_to_underflow_bit_for_bit(self, unit_frame_at):
        bs = [0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0] + [0.01 * 1e4 ** (i / 49) for i in range(50)]
        for b in bs:
            frame = unit_frame_at(b)
            value = double_sum_free_energy(frame, BetaHat(b))
            assert value.hex() == double_sum_to_underflow(frame, b).hex(), b

    @pytest.mark.parametrize("b", [0.5, 1.0])
    @pytest.mark.parametrize("window", [{"m_max": 1}, {"m_max": 2}, {"n_max": 1}, {"n_max": 2}])
    def test_truncation_error_is_scaled_like_the_value_and_bounds_the_rest(self, b, window):
        frame = ProperFrame(C=1.0, Lp=2.0, Sp=3.0, Vp=6.0, Tp=0.25)
        value = double_sum_free_energy(frame, BetaHat(b))
        with pytest.raises(TruncationError) as excinfo:
            double_sum_free_energy(frame, BetaHat(b), OracleConfig(**window))
        err = excinfo.value
        assert math.copysign(1.0, err.partial_sum) == math.copysign(1.0, value)
        assert abs(err.partial_sum) < abs(value)
        assert err.tail_estimate >= abs(value - err.partial_sum)


def single_sum_to_underflow(frame, b):
    """thermal_correction_resummed_form with the sum run until e^(-2 pi m b)
    underflows, the reference for its stop rule."""
    total = 0.0
    m = 1
    while 2.0 * math.pi * m * b <= 700.0:
        z = 2.0 * math.pi * m * b
        emz = math.exp(-z)
        total += ((z + 1.0) - emz) * emz / (1.0 - emz) ** 2 / (m * b) ** 3
        m += 1
    return -frame.Sp / (16.0 * math.pi * frame.Lp**3) * total


class TestSingleSum:
    @pytest.mark.parametrize("grid", ["representation", "200-point"])
    def test_stop_rule_matches_the_sum_run_to_underflow_bit_for_bit(self, unit_frame_at, grid):
        bs = (oracles._REPRESENTATION_GRID if grid == "representation"
              else [0.003 * (100.0 / 0.003) ** (i / 199) for i in range(200)])
        for b in bs:
            frame = unit_frame_at(b)
            value = thermal_correction_resummed_form(frame, BetaHat(b))
            assert value.hex() == single_sum_to_underflow(frame, b).hex(), b

    @pytest.mark.parametrize("b, needed", [(1.0, 6), (0.5, 11), (0.05, 80), (0.003, 814)])
    def test_m_max_caps_the_terms_the_value_needs(self, b, needed):
        """m_max equal to the number of terms the stop rule adds gives the
        uncapped value bit for bit; one fewer raises with that many terms."""
        frame = ProperFrame(C=1.0, Lp=2.0, Sp=3.0, Vp=6.0, Tp=0.25)
        value = thermal_correction_resummed_form(frame, BetaHat(b))
        capped = thermal_correction_resummed_form(frame, BetaHat(b), OracleConfig(m_max=needed))
        assert capped.hex() == value.hex()
        with pytest.raises(TruncationError) as excinfo:
            thermal_correction_resummed_form(frame, BetaHat(b), OracleConfig(m_max=needed - 1))
        assert excinfo.value.terms_used == needed - 1

    @pytest.mark.parametrize("b, m_max", [(1.0, 1), (0.05, 10), (0.003, 100)])
    def test_truncation_error_is_scaled_like_the_value(self, b, m_max):
        """The partial sum has the value's sign and a smaller magnitude, and
        the tail bound covers the rest (the last term alone falls 1.5x short
        at b = 0.05 and 24x at b = 0.003)."""
        frame = ProperFrame(C=1.0, Lp=2.0, Sp=3.0, Vp=6.0, Tp=0.25)
        value = thermal_correction_resummed_form(frame, BetaHat(b))
        with pytest.raises(TruncationError) as excinfo:
            thermal_correction_resummed_form(frame, BetaHat(b), OracleConfig(m_max=m_max))
        err = excinfo.value
        assert math.copysign(1.0, err.partial_sum) == math.copysign(1.0, value)
        assert abs(err.partial_sum) < abs(value)
        assert err.tail_estimate >= abs(value - err.partial_sum)
        if b == 1.0:
            assert abs(err.partial_sum) > abs(value) / 2.0
            assert 0.0 < err.tail_estimate <= abs(err.partial_sum)


class TestZeroTemperature:
    @pytest.mark.parametrize("oracle", [double_sum_free_energy, quadrature_free_energy,
                                        thermal_correction_resummed_form])
    def test_oracles_return_positive_zero(self, oracle):
        value = oracle(oracles._unit_flat_frame(1.0), BetaHat(math.inf))
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


class TestQuadrature:
    @pytest.mark.parametrize("b", [0.1, 1.0, 5.0])
    def test_agrees_with_closed_form(self, unit_frame_at, b):
        frame = unit_frame_at(b)
        assert quadrature_free_energy(frame, BetaHat(b)) == pytest.approx(
            thermal_correction_exact(frame, BetaHat(b)), rel=1e-8
        )

    def test_tail_beyond_cutoff_is_negligible(self, unit_frame_at):
        frame = unit_frame_at(1.0)
        value = quadrature_free_energy(frame, BetaHat(1.0))
        _, n_used = oracles._mode_sum(1.0, OracleConfig())
        prefactor = math.pi * frame.Sp / (4.0 * frame.Lp**3)
        assert prefactor * oracles._mode_sum_tail(n_used, 1.0) <= 1e-12 * abs(value)

    @pytest.mark.parametrize("b", [0.1, 1.0, 5.0])
    def test_tail_estimate_bounds_the_terms_left_out(self, unit_frame_at, b):
        """The n terms after the stopping rule, summed with the same transverse
        quadrature until they stop changing the sum, lie below the scaled
        _mode_sum_tail bound, and the bound is at most 10x their sum."""
        cfg = OracleConfig()
        frame = unit_frame_at(b)
        _, n_used = oracles._mode_sum(b, cfg)
        prefactor = math.pi * frame.Sp / (4.0 * frame.Lp**3 * b)
        remainder = 0.0
        n = n_used + 1
        while n < oracles._EXP_CUTOFF / (2.0 * math.pi * b):
            term = oracles._transverse_integral(n, b, cfg)
            remainder += term
            if abs(term) <= 1e-17 * abs(remainder):
                break
            n += 1
        remainder = abs(prefactor * remainder)
        estimate = prefactor * oracles._mode_sum_tail(n_used, b)
        assert remainder > 0.0
        assert estimate > 0.0
        # The bound holds for the exact terms; the quadrature reaches each of
        # them only to its relative accuracy.
        assert remainder <= estimate * (1.0 + oracles._MODE_EPSREL)
        assert estimate <= 10.0 * remainder

    @pytest.mark.parametrize("b", [0.2, 0.5, 1.0, 2.0])
    def test_mode_sum_truncation_index_scales_inversely(self, b):
        _, n_used = oracles._mode_sum(b, OracleConfig())
        predicted = math.log(1.0 / oracles._MODE_EPSREL) / (2.0 * math.pi * b)
        assert predicted / 4.0 <= n_used <= predicted * 4.0


def t_variable_integral(n, b, cfg):
    """Mode n's transverse integral in the transverse wave number t, as the
    oracle took it before the substitution rho = sqrt(n^2 + t^2): the
    integrand t ln(1 - e^(-2 pi b hypot(n, t))) on [0, t_cut], with a break
    point where the exponent has grown by 32."""
    two_pi_b = 2.0 * math.pi * b
    r_cut = 700.0 / two_pi_b
    t_cut = math.sqrt(r_cut * r_cut - n * n)

    def integrand(ts):
        out = []
        for t in ts:
            z = two_pi_b * math.hypot(n, t)
            out.append(0.0 if z > 700.0 else t * math.log1p(-math.exp(-z)))
        return out

    rho = n + 32.0 / two_pi_b
    points = (0.0, math.sqrt(rho * rho - n * n), t_cut) if rho < r_cut else (0.0, t_cut)
    return oracles._adaptive_gk21(integrand, points, oracles._MODE_EPSREL, cfg.quad_points,
                                  f"t-variable reference for n={n}")


class TestModeSumSegments:
    """The mode sum built from shared unit segments in rho."""

    @pytest.mark.parametrize("b", oracles.STANDARD_BETA_HAT_GRID)
    def test_mode_integrals_match_the_t_variable_quadrature(self, b):
        cfg = OracleConfig()
        modes = oracles._mode_integrals(b, cfg)
        _, n_used = oracles._mode_sum(b, cfg)
        assert len(modes) > n_used > 0
        for n in range(1, n_used + 1):
            reference = t_variable_integral(n, b, cfg)
            assert abs(modes[n - 1] - reference) <= 1e-13 * abs(reference), n

    @pytest.mark.parametrize("b", oracles.STANDARD_BETA_HAT_GRID)
    def test_agrees_with_closed_form_to_rounding(self, unit_frame_at, b):
        frame = unit_frame_at(b)
        value = quadrature_free_energy(frame, BetaHat(b))
        exact = thermal_correction_exact(frame, BetaHat(b))
        assert abs(value - exact) <= 1e-14 * abs(exact)

    def test_work_per_validation_and_modes_per_grid_point(self, monkeypatch):
        """One default validation_checks() makes at most 220 Gauss-Kronrod
        steps (538 when each mode was integrated on its own), and the mode
        sum stops where its terms stop changing it."""
        steps = []
        gk21 = oracles._gk21

        def counting(f, a, b):
            steps.append((a, b))
            return gk21(f, a, b)

        monkeypatch.setattr(oracles, "_gk21", counting)
        validation_checks()
        assert len(steps) <= 220
        n_used = {b: oracles._mode_sum(b, OracleConfig())[1] for b in oracles.STANDARD_BETA_HAT_GRID}
        assert n_used == {0.1: 63, 0.5: 13, 1.0: 7, 2.0: 4, 5.0: 2}

    @pytest.mark.parametrize("b", [700.0 / (2.0 * math.pi), 112.0, 1e6, 1e300])
    def test_no_mode_below_the_cutoff_gives_positive_zero(self, b):
        value = quadrature_free_energy(oracles._unit_flat_frame(1.0), BetaHat(b))
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
        assert oracles._mode_sum(b, OracleConfig()) == (0.0, 0)

    @pytest.mark.parametrize("b, n_max", [(5e-324, 10**5), (1e-310, 10**5), (1e-200, 10**5),
                                          (1e-20, 10), (1e-5, 10)])
    def test_tiny_beta_hat_is_a_quadrature_error(self, b, n_max):
        """Where e^(-2 pi b rho) rounds to 1, the cutoff 700/(2 pi b) overflows
        or a mode integral overflows, the oracle still reports QuadratureError."""
        with pytest.raises(QuadratureError):
            quadrature_free_energy(oracles._unit_flat_frame(1.0), BetaHat(b), OracleConfig(n_max=n_max))


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

    @pytest.mark.parametrize("Tp", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_non_finite_or_non_positive_temperature_is_a_domain_error(self, unit_frame_at, Tp):
        with pytest.raises(DomainError):
            finite_difference_thermo(unit_frame_at(1.0), FLAT, STATIC, Tp)


class TestValidationSuite:
    def test_default_configuration_passes(self):
        checks = validation_checks()
        failures = [c for c in checks if not c["passed"]]
        assert failures == []

    def test_default_check_names_and_order(self):
        """The 23 checks the benchmark's oracle workload expects, in order."""
        assert [c["name"] for c in validation_checks()] == [
            "resummation_pairwise_bh=0.1", "resummation_pairwise_bh=0.5",
            "resummation_pairwise_bh=1", "resummation_pairwise_bh=2",
            "resummation_pairwise_bh=5",
            "hyperbolic_vs_single_sum_bh=0.05", "hyperbolic_vs_single_sum_bh=0.2",
            "hyperbolic_vs_single_sum_bh=1", "hyperbolic_vs_single_sum_bh=5",
            "hyperbolic_vs_single_sum_bh=20",
            "blackbody_Tp=0.5", "blackbody_Tp=1", "blackbody_Tp=2",
            "thermo_fd_bh=0.2", "legendre_identity_bh=0.2",
            "thermo_fd_bh=0.4472", "legendre_identity_bh=0.4472",
            "thermo_fd_bh=1", "legendre_identity_bh=1",
            "thermo_fd_bh=2.236", "legendre_identity_bh=2.236",
            "thermo_fd_bh=5", "legendre_identity_bh=5",
        ]

    def test_tiny_m_max_surfaces_truncation_as_failed_check(self):
        checks = validation_checks(OracleConfig(m_max=1))
        failed = [c for c in checks if not c["passed"]]
        assert failed, "expected the starved double sum to fail"
        assert any("TruncationError" in c["detail"] for c in failed)


class TestValidationWork:
    """What one default validation_checks() integrates."""

    def test_gauss_kronrod_steps(self, monkeypatch):
        """At most 160 steps (198 when the black-body integral was taken once per Tp)."""
        steps = []
        gk21 = oracles._gk21

        def counting(f, a, b):
            steps.append((a, b))
            return gk21(f, a, b)

        monkeypatch.setattr(oracles, "_gk21", counting)
        validation_checks()
        assert len(steps) <= 160

    def test_blackbody_integral_taken_once_with_the_values_of_one_call_per_tp(self, monkeypatch):
        per_tp = {Tp: oracles._rel_diff(blackbody_quadrature(Tp), blackbody_density(Tp))
                  for Tp in (0.5, 1.0, 2.0)}
        calls = []
        quadrature = oracles.blackbody_quadrature

        def counting(Tp, cfg=OracleConfig()):
            calls.append(Tp)
            return quadrature(Tp, cfg)

        monkeypatch.setattr(oracles, "blackbody_quadrature", counting)
        checks = {c["name"]: c for c in validation_checks()}
        assert len(calls) == 1
        for Tp, measured in per_tp.items():
            assert checks[f"blackbody_Tp={Tp:g}"]["measured"].hex() == measured.hex()

    def test_a_failed_blackbody_integral_fails_each_blackbody_check(self):
        checks = [c for c in validation_checks(OracleConfig(quad_points=1))
                  if c["name"].startswith("blackbody_Tp=")]
        assert [c["name"] for c in checks] == ["blackbody_Tp=0.5", "blackbody_Tp=1", "blackbody_Tp=2"]
        for c in checks:
            assert not c["passed"] and c["measured"] is None
            assert c["detail"].startswith("QuadratureError: black-body quadrature")


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
