"""Cavity mode spectrum in the small-cavity approximation."""

import math

import numpy as np
import pytest

from kerrcasimir import (
    CavityGeometry,
    DomainError,
    EquatorialOrbit,
    KerrParams,
    ModeIndex,
    PointRequest,
    PointStatus,
    cavity_validity,
    corrected_eigenfrequency,
    eigenfrequency,
    evaluate_point,
    orbit_from_band_fraction,
    proper_frame,
    velocity_normalization,
)

FLAT = KerrParams(M=0.0, a=0.0)
STATIC = EquatorialOrbit(r=10.0, Omega=0.0)
UNIT_CAVITY = CavityGeometry(L=1.0, S0=1.0)


class TestEigenfrequency:
    def test_mode_index_validation(self):
        with pytest.raises(DomainError):
            ModeIndex(n=0)

    @pytest.mark.parametrize("n, ky, kz", [(1, 0.0, 0.0), (2, 1.5, 0.0), (3, 0.7, -2.0)])
    def test_flat_static_dispersion(self, n, ky, kz):
        omega = eigenfrequency(ModeIndex(n=n, ky=ky, kz=kz), FLAT, STATIC, UNIT_CAVITY)
        expected = math.sqrt((math.pi * n / 1.0) ** 2 + ky * ky + kz * kz)
        assert omega == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 5, 17])
    def test_longitudinal_mode_identity(self, n):
        """omega_n(n, 0, 0) * Lp * C = pi*n exactly, any configuration."""
        params = KerrParams(M=1.0, a=0.5)
        orbit = orbit_from_band_fraction(params, 10.0, 0.3)
        cavity = CavityGeometry(L=0.01, S0=1e-4)
        omega = eigenfrequency(ModeIndex(n=n), params, orbit, cavity)
        frame = proper_frame(params, orbit, cavity)
        assert omega * frame.Lp * frame.C == pytest.approx(math.pi * n, rel=1e-12)

    def test_kerr_value_against_second_path(self):
        # Independent evaluation from the raw metric numbers at
        # M=1, a=0.5, r=10: Delta=80.25, A=10030, C=sqrt(A/(r^2 Delta)).
        params = KerrParams(M=1.0, a=0.5)
        orbit = orbit_from_band_fraction(params, 10.0, 0.0)
        cavity = CavityGeometry(L=0.01, S0=1e-4)
        mode = ModeIndex(n=2, ky=1.0, kz=1.0)

        r, delta, big_a = 10.0, 80.25, 10030.0
        C2 = big_a / (r * r * delta)
        d_r2 = delta / (r * r)
        inner = (math.pi * 2 / 0.01) ** 2 + d_r2 * C2 * (d_r2 * 1.0 + 1.0)
        expected = (r / (math.sqrt(delta) * C2)) * math.sqrt(inner)

        omega = eigenfrequency(mode, params, orbit, cavity)
        assert omega == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_each_index(self):
        params = KerrParams(M=1.0, a=0.5)
        orbit = orbit_from_band_fraction(params, 10.0, 0.0)
        cavity = CavityGeometry(L=0.01, S0=1e-4)

        def w(n, ky, kz):
            return eigenfrequency(ModeIndex(n=n, ky=ky, kz=kz), params, orbit, cavity)

        ns = [w(n, 0.5, 0.5) for n in (1, 2, 3, 4)]
        assert all(a < b for a, b in zip(ns, ns[1:]))
        kys = [w(1, ky, 0.5) for ky in (0.0, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(kys, kys[1:]))
        kzs = [w(1, 0.5, kz) for kz in (0.0, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(kzs, kzs[1:]))
        # Transverse wave numbers enter quadratically.
        assert w(1, -2.0, 0.0) == w(1, 2.0, 0.0)


class TestCorrectedEigenfrequency:
    def test_no_transverse_momentum_means_no_correction(self):
        params = KerrParams(M=1.0, a=0.5)
        orbit = orbit_from_band_fraction(params, 10.0, 0.0)
        cavity = CavityGeometry(L=0.01, S0=1e-4)
        mode = ModeIndex(n=1, ky=0.0, kz=2.0)
        corrected = corrected_eigenfrequency(mode, params, orbit, cavity)
        assert corrected.imag == 0.0
        assert corrected.real == eigenfrequency(mode, params, orbit, cavity)

    def test_zero_alpha_means_no_correction(self):
        # alpha = (M - r)/r^2 vanishes at r = M; Delta > 0 there needs an
        # over-spun source, and the strong dragging needs a comoving orbit.
        params = KerrParams(M=1.0, a=1.5, black_hole_mode=False)
        orbit = orbit_from_band_fraction(params, 1.0, 0.0)
        cavity = CavityGeometry(L=0.001, S0=1e-6)
        mode = ModeIndex(n=1, ky=3.0, kz=0.0)
        corrected = corrected_eigenfrequency(mode, params, orbit, cavity)
        assert corrected.imag == 0.0
        assert corrected.real == pytest.approx(
            eigenfrequency(mode, params, orbit, cavity), rel=1e-14
        )

    def test_first_order_convergence_in_alpha(self):
        """|omega' - omega| scales linearly with alpha over two decades."""
        cavity = CavityGeometry(L=0.01, S0=1e-4)
        mode = ModeIndex(n=1, ky=1.0, kz=0.0)
        alphas, errors = [], []
        for r in (10.0, 31.622776601683793, 100.0):
            params = KerrParams(M=1.0, a=0.5)
            orbit = orbit_from_band_fraction(params, r, 0.0)
            alpha = (1.0 - r) / (r * r)
            w0 = eigenfrequency(mode, params, orbit, cavity)
            w1 = corrected_eigenfrequency(mode, params, orbit, cavity)
            alphas.append(abs(alpha))
            errors.append(abs(w1 - w0) / w0)
        slope = np.polyfit(np.log(alphas), np.log(errors), 1)[0]
        assert 0.9 < slope < 1.1

    def test_relative_deviation_bounded_by_alpha_ky(self):
        params = KerrParams(M=1.0, a=0.5)
        orbit = orbit_from_band_fraction(params, 10.0, 0.0)
        cavity = CavityGeometry(L=0.01, S0=1e-4)
        mode = ModeIndex(n=1, ky=1.0, kz=0.0)
        w0 = eigenfrequency(mode, params, orbit, cavity)
        w1 = corrected_eigenfrequency(mode, params, orbit, cavity)

        C = velocity_normalization(params, orbit)
        alpha = (1.0 - 10.0) / 100.0
        d_r2 = 80.25 / 100.0
        inner = (math.pi / 0.01) ** 2 + d_r2 * C * C * (d_r2 * 1.0)
        bound = d_r2 * C * C * abs(alpha) * mode.ky / inner
        assert abs(w1 - w0) / w0 <= bound * 1.01


class TestCavityValidity:
    def test_alpha_reference_value(self):
        d = cavity_validity(KerrParams(M=1.0), EquatorialOrbit(r=10.0), CavityGeometry(L=0.01, S0=1e-4))
        assert d.alpha == pytest.approx(-0.09, rel=1e-15)
        assert d.L_over_r == pytest.approx(0.001, rel=1e-15)
        assert d.ML_over_r2 == pytest.approx(1e-4, rel=1e-15)
        assert d.small_cavity_ok

    def test_alpha_vanishes_at_r_equals_M(self):
        params = KerrParams(M=1.0, a=1.5, black_hole_mode=False)
        d = cavity_validity(params, EquatorialOrbit(r=1.0), CavityGeometry(L=0.001, S0=1e-6))
        assert d.alpha == 0.0

    def test_large_cavity_flagged(self):
        d = cavity_validity(KerrParams(M=1.0), EquatorialOrbit(r=10.0), CavityGeometry(L=1.0, S0=1.0))
        assert not d.small_cavity_ok

    # One case on each side of 0.01 for each clause of the flag.  For r > M/2,
    # |alpha| L < L/r, so the L/r clause trips first; only an over-spun source
    # at r < M/2 trips the |alpha| L clause alone.
    @pytest.mark.parametrize("a, r, L, ok", [
        (0.5, 10.0, 0.095, True),   # L/r = 0.0095, |alpha| L = 0.0086
        (0.5, 10.0, 0.105, False),  # L/r = 0.0105, |alpha| L = 0.0095
        (2.0, 0.3, 0.001, True),    # |alpha| L = 0.0078, L/r = 0.0033
        (2.0, 0.3, 0.002, False),   # |alpha| L = 0.0156, L/r = 0.0067
    ])
    def test_each_clause_trips_the_flag_at_its_threshold(self, a, r, L, ok):
        params = KerrParams(M=1.0, a=a, black_hole_mode=False)
        orbit = orbit_from_band_fraction(params, r, 0.0)
        cavity = CavityGeometry(L=L, S0=1e-6)
        d = cavity_validity(params, orbit, cavity)
        assert d.small_cavity_ok is ok
        record = evaluate_point(PointRequest(params, orbit, cavity))
        assert record.status is PointStatus.OK and record.small_cavity_ok is ok
