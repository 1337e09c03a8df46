"""Equatorial Kerr geometry and the comoving frame."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from kerrcasimir import (
    CavityGeometry,
    DomainError,
    EquatorialOrbit,
    ForbiddenOrbitError,
    InsideHorizonError,
    KerrParams,
    NakedSingularityError,
    allowed_omega_interval,
    comoving_metric,
    dragging_angular_velocity,
    equatorial_metric_functions,
    horizon_radius,
    orbit_from_band_fraction,
    proper_frame,
    velocity_normalization,
)


class TestKerrParams:
    def test_negative_mass_rejected(self):
        with pytest.raises(DomainError):
            KerrParams(M=-1.0)

    def test_naked_singularity_rejected_by_default(self):
        with pytest.raises(NakedSingularityError):
            KerrParams(M=1.0, a=1.5)

    def test_overspun_source_allowed_behind_flag(self):
        p = KerrParams(M=1.0, a=1.5, black_hole_mode=False)
        assert p.a == 1.5


class TestHorizonRadius:
    def test_schwarzschild(self):
        assert horizon_radius(KerrParams(M=1.0, a=0.0)) == 2.0

    def test_extremal(self):
        assert horizon_radius(KerrParams(M=1.0, a=1.0)) == 1.0

    def test_matches_root_of_delta(self):
        # Independent oracle: outer root of Delta(r) = r^2 + a^2 - 2Mr.
        params = KerrParams(M=1.0, a=0.5)
        root = brentq(lambda r: r * r + 0.25 - 2.0 * r, 1.5, 2.0, xtol=1e-14)
        assert horizon_radius(params) == pytest.approx(root, rel=1e-12)
        assert horizon_radius(params) == pytest.approx(1.8660254037844386, rel=1e-12)

    def test_naked_raises(self):
        with pytest.raises(NakedSingularityError):
            horizon_radius(KerrParams(M=1.0, a=1.5, black_hole_mode=False))


class TestMetricFunctions:
    @pytest.mark.parametrize(
        "M, a, r, expected",
        [
            (0.0, 0.0, 2.0, (4.0, 4.0, 16.0)),
            (1.0, 0.0, 10.0, (100.0, 80.0, 10000.0)),
            (1.0, 0.5, 10.0, (100.0, 80.25, 10030.0)),
        ],
    )
    def test_values(self, M, a, r, expected):
        mf = equatorial_metric_functions(KerrParams(M=M, a=a), r)
        np.testing.assert_allclose((mf.Sigma, mf.Delta, mf.BigA), expected, rtol=1e-15)

    def test_sigma_is_r_squared(self):
        mf = equatorial_metric_functions(KerrParams(M=1.0, a=0.9), 3.7)
        assert mf.Sigma == 3.7 * 3.7

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(DomainError):
            equatorial_metric_functions(KerrParams(M=1.0), 0.0)


class TestDraggingAngularVelocity:
    def test_no_spin_no_dragging(self):
        assert dragging_angular_velocity(KerrParams(M=1.0, a=0.0), 10.0) == 0.0

    def test_no_mass_no_dragging(self):
        assert dragging_angular_velocity(KerrParams(M=0.0, a=0.5, black_hole_mode=False), 10.0) == 0.0

    def test_reference_value(self):
        # 2Mar/A = 2*1*0.5*10/10030
        omega = dragging_angular_velocity(KerrParams(M=1.0, a=0.5), 10.0)
        assert omega == pytest.approx(10.0 / 10030.0, rel=1e-15)
        assert omega == pytest.approx(9.97009e-4, rel=1e-5)

    def test_inside_horizon_rejected(self):
        with pytest.raises(InsideHorizonError):
            dragging_angular_velocity(KerrParams(M=1.0, a=0.0), 1.5)


class TestAllowedOmegaInterval:
    def test_flat_space_light_cone(self):
        lo, hi = allowed_omega_interval(KerrParams(M=0.0, a=0.0), 10.0)
        np.testing.assert_allclose((lo, hi), (-0.1, 0.1), rtol=1e-15)

    def test_kerr_reference(self):
        params = KerrParams(M=1.0, a=0.5)
        lo, hi = allowed_omega_interval(params, 10.0)
        omega_d = 10.0 / 10030.0
        half = 100.0 * math.sqrt(80.25) / 10030.0
        np.testing.assert_allclose((lo, hi), (omega_d - half, omega_d + half), rtol=1e-14)

    @pytest.mark.parametrize("M, a, r", [(0.0, 0.0, 3.0), (1.0, 0.5, 10.0), (1.0, 0.99, 2.5)])
    def test_contains_dragging_velocity(self, M, a, r):
        params = KerrParams(M=M, a=a)
        lo, hi = allowed_omega_interval(params, r)
        assert lo < dragging_angular_velocity(params, r) < hi

    def test_endpoints_are_forbidden(self):
        params = KerrParams(M=1.0, a=0.5)
        lo, hi = allowed_omega_interval(params, 10.0)
        for omega in (lo, hi):
            with pytest.raises(ForbiddenOrbitError):
                velocity_normalization(params, EquatorialOrbit(r=10.0, Omega=omega))


class TestVelocityNormalization:
    def test_flat_static_observer(self):
        C = velocity_normalization(KerrParams(M=0.0, a=0.0), EquatorialOrbit(r=5.0, Omega=0.0))
        assert C == 1.0

    def test_zamo_value(self):
        params = KerrParams(M=1.0, a=0.5)
        omega_d = dragging_angular_velocity(params, 10.0)
        C = velocity_normalization(params, EquatorialOrbit(r=10.0, Omega=omega_d))
        assert C == pytest.approx(math.sqrt(10030.0 / 8025.0), rel=1e-14)
        assert C == pytest.approx(1.11796, rel=1e-5)

    def test_flat_rotating_reduces_to_special_relativity(self):
        C = velocity_normalization(KerrParams(M=0.0, a=0.0), EquatorialOrbit(r=10.0, Omega=0.05))
        assert C == pytest.approx((1.0 - 0.25) ** -0.5, rel=1e-14)
        assert C == pytest.approx(1.1547005, rel=1e-7)

    def test_minimized_at_dragging_velocity(self):
        params = KerrParams(M=1.0, a=0.7)
        r = 6.0
        omega_d = dragging_angular_velocity(params, r)
        C_min = velocity_normalization(params, EquatorialOrbit(r=r, Omega=omega_d))
        for frac in np.linspace(-0.95, 0.95, 21):
            if frac == 0.0:
                continue
            C = velocity_normalization(params, orbit_from_band_fraction(params, r, frac))
            assert C >= C_min

    def test_superluminal_rejected(self):
        with pytest.raises(ForbiddenOrbitError):
            velocity_normalization(KerrParams(M=0.0, a=0.0), EquatorialOrbit(r=10.0, Omega=0.2))


class TestComovingMetric:
    def test_flat_static_is_minkowski(self):
        hat = comoving_metric(KerrParams(M=0.0, a=0.0), EquatorialOrbit(r=3.0, Omega=0.0))
        assert (hat.tt, hat.xx, hat.yy, hat.zz) == (1.0, -1.0, -1.0, -1.0)
        assert hat.tx == 0.0
        assert hat.gS == 1.0

    def test_zamo_kills_cross_term(self):
        params = KerrParams(M=1.0, a=0.5)
        orbit = orbit_from_band_fraction(params, 10.0, 0.0)
        hat = comoving_metric(params, orbit)
        assert hat.tx == 0.0
        assert hat.gS > 0.0

    def test_weight_reproduces_proper_volume(self):
        # sqrt(gS) * S0 * L must equal the proper volume for any cavity.
        params = KerrParams(M=1.0, a=0.5)
        orbit = EquatorialOrbit(r=10.0, Omega=0.002)
        cavity = CavityGeometry(L=0.01, S0=3e-4)
        hat = comoving_metric(params, orbit)
        frame = proper_frame(params, orbit, cavity)
        assert math.sqrt(hat.gS) * cavity.S0 * cavity.L == pytest.approx(frame.Vp, rel=1e-14)

    def test_components_match_line_element(self):
        params = KerrParams(M=1.0, a=0.5)
        orbit = EquatorialOrbit(r=10.0, Omega=0.002)
        hat = comoving_metric(params, orbit)
        C = velocity_normalization(params, orbit)
        omega_d = dragging_angular_velocity(params, 10.0)
        np.testing.assert_allclose(hat.tt, C**-2, rtol=1e-14)
        np.testing.assert_allclose(hat.tx, -(10030.0 / 1000.0) * (0.002 - omega_d), rtol=1e-14)
        np.testing.assert_allclose(hat.xx, -10030.0 / 1e4, rtol=1e-15)
        np.testing.assert_allclose(hat.yy, -100.0 / 80.25, rtol=1e-15)
        assert hat.zz == -1.0


class TestProperFrame:
    def test_flat_static_unit_cavity(self):
        frame = proper_frame(
            KerrParams(M=0.0, a=0.0),
            EquatorialOrbit(r=10.0, Omega=0.0),
            CavityGeometry(L=1.0, S0=1.0),
            T=0.1,
        )
        assert (frame.C, frame.Lp, frame.Sp, frame.Vp, frame.Tp) == (1.0, 1.0, 1.0, 1.0, 0.1)

    def test_zamo_proper_length(self):
        params = KerrParams(M=1.0, a=0.5)
        orbit = orbit_from_band_fraction(params, 10.0, 0.0)
        frame = proper_frame(params, orbit, CavityGeometry(L=0.01, S0=1e-4))
        C = math.sqrt(10030.0 / 8025.0)
        assert frame.Lp == pytest.approx(0.01 * math.sqrt(80.25) * C / 10.0, rel=1e-14)

    def test_negative_temperature_rejected(self):
        with pytest.raises(DomainError):
            proper_frame(
                KerrParams(M=0.0, a=0.0),
                EquatorialOrbit(r=1.0, Omega=0.0),
                CavityGeometry(L=1.0, S0=1.0),
                T=-0.5,
            )

    @given(
        M=st.floats(0.0, 2.0),
        spin=st.floats(-0.99, 0.99),
        r_factor=st.floats(1.2, 30.0),
        frac=st.floats(-0.9, 0.9),
        L=st.floats(1e-3, 1.0),
        S0=st.floats(1e-4, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_volume_identities(self, M, spin, r_factor, frac, L, S0):
        """Sp*Lp = Vp and sqrt(gS)*S0*L = Vp for any valid configuration."""
        params = KerrParams(M=M, a=spin * M)
        r = r_factor * max(2.0 * M, 1.0)
        orbit = orbit_from_band_fraction(params, r, frac)
        cavity = CavityGeometry(L=L, S0=S0)
        frame = proper_frame(params, orbit, cavity)
        hat = comoving_metric(params, orbit)
        assert frame.Sp * frame.Lp == pytest.approx(frame.Vp, rel=1e-12)
        assert math.sqrt(hat.gS) * S0 * L == pytest.approx(frame.Vp, rel=1e-12)


class TestFlatLimit:
    @given(r=st.floats(0.5, 50.0), u=st.floats(-0.95, 0.95))
    @settings(max_examples=100, deadline=None)
    def test_flat_reduction(self, r, u):
        """M = a = 0 reproduces the special-relativistic rotating observer."""
        params = KerrParams(M=0.0, a=0.0)
        omega = u / r
        orbit = EquatorialOrbit(r=r, Omega=omega)
        assert dragging_angular_velocity(params, r) == 0.0
        C = velocity_normalization(params, orbit)
        assert C == pytest.approx((1.0 - r * r * omega * omega) ** -0.5, rel=1e-12)
        frame = proper_frame(params, orbit, CavityGeometry(L=0.3, S0=2.0))
        assert frame.Sp == pytest.approx(2.0, rel=1e-12)
        # Proper length carries the kinematic factor; static observers see L.
        assert frame.Lp == pytest.approx(0.3 * C, rel=1e-12)

    def test_static_proper_length_is_coordinate_length(self):
        frame = proper_frame(
            KerrParams(M=0.0, a=0.0),
            EquatorialOrbit(r=7.0, Omega=0.0),
            CavityGeometry(L=0.3, S0=2.0),
        )
        assert frame.Lp == pytest.approx(0.3, rel=1e-15)


class TestOrbitPresets:
    def test_zero_fraction_is_zamo(self):
        params = KerrParams(M=1.0, a=0.5)
        orbit = orbit_from_band_fraction(params, 10.0, 0.0)
        assert orbit.Omega == pytest.approx(dragging_angular_velocity(params, 10.0), rel=1e-14)

    @pytest.mark.parametrize("frac", [-1.0, 1.0, 1.5])
    def test_band_edge_fractions_rejected(self, frac):
        with pytest.raises(ForbiddenOrbitError):
            orbit_from_band_fraction(KerrParams(M=1.0, a=0.5), 10.0, frac)


class TestOneObserverPass:
    """Every Kerr quantity of an orbit comes from one call of geometry._observer."""

    @pytest.fixture
    def observer_calls(self, monkeypatch):
        import sys

        from kerrcasimir import geometry

        original = geometry._observer
        calls = []

        def counting(params, orbit):
            calls.append(orbit)
            return original(params, orbit)

        for name, module in list(sys.modules.items()):
            if name.startswith("kerrcasimir") and getattr(module, "_observer", None) is original:
                monkeypatch.setattr(module, "_observer", counting)
        return calls

    def test_proper_frame_takes_one_pass(self, observer_calls, kerr_fast):
        params, orbit, cavity = kerr_fast
        proper_frame(params, orbit, cavity, T=1.0)
        assert observer_calls == [orbit]

    def test_evaluate_point_takes_one_pass(self, observer_calls, kerr_fast):
        from kerrcasimir import PointRequest, PointStatus, evaluate_point

        params, orbit, cavity = kerr_fast
        record = evaluate_point(PointRequest(params=params, orbit=orbit, cavity=cavity, T=1.0))
        assert record.status is PointStatus.OK
        # proper_frame's; E0 reads the frame and cavity_validity needs no observer.
        assert observer_calls == [orbit]

    def test_vacuum_energy_takes_no_pass(self, observer_calls, kerr_fast):
        from kerrcasimir import vacuum_energy

        params, orbit, cavity = kerr_fast
        frame = proper_frame(params, orbit, cavity)
        observer_calls.clear()
        vacuum_energy(frame, params, orbit)
        assert observer_calls == []

    @pytest.mark.parametrize("quantity", [
        "velocity_normalization", "comoving_metric",
        "eigenfrequency", "corrected_eigenfrequency",
    ])
    def test_each_orbit_quantity_takes_one_pass(self, observer_calls, kerr_fast, quantity):
        import kerrcasimir
        from kerrcasimir import ModeIndex

        params, orbit, cavity = kerr_fast
        fn = getattr(kerrcasimir, quantity)
        if quantity.endswith("eigenfrequency"):
            fn(ModeIndex(n=2, ky=3.0, kz=1.5), params, orbit, cavity)
        else:
            fn(params, orbit)
        assert observer_calls == [orbit]
