"""Shared configurations for the test suite."""

import os
from dataclasses import replace
from pathlib import Path

import pytest

from kerrcasimir import (
    CavityGeometry,
    EquatorialOrbit,
    KerrParams,
    orbit_from_band_fraction,
    proper_frame,
)


@pytest.fixture(scope="session", autouse=True)
def subprocesses_import_this_checkout():
    """Tests that start a fresh interpreter get this checkout's src/ on its path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(Path(__file__).resolve().parents[1] / "src"),
                  prepend=os.pathsep)
        yield


@pytest.fixture
def flat_static():
    """Flat space-time, non-rotating observer, unit cavity: Lp = Sp = Vp = 1."""
    params = KerrParams(M=0.0, a=0.0)
    orbit = EquatorialOrbit(r=10.0, Omega=0.0)
    cavity = CavityGeometry(L=1.0, S0=1.0)
    return params, orbit, cavity


@pytest.fixture
def unit_frame_at(flat_static):
    """Factory: unit flat frame holding the proper temperature for a given beta_hat."""
    params, orbit, cavity = flat_static

    def make(b: float):
        frame = proper_frame(params, orbit, cavity, T=0.0)
        return replace(frame, Tp=1.0 / (2.0 * frame.Lp * b))

    return make


@pytest.fixture
def kerr_zamo():
    """Spinning source, zero-angular-momentum orbit, small cavity."""
    params = KerrParams(M=1.0, a=0.5)
    orbit = orbit_from_band_fraction(params, 10.0, 0.0)
    cavity = CavityGeometry(L=0.01, S0=1e-4)
    return params, orbit, cavity


@pytest.fixture
def kerr_fast():
    """Spinning source, orbit at 0.866 of the allowed band (vacuum energy halved)."""
    params = KerrParams(M=1.0, a=0.5)
    orbit = orbit_from_band_fraction(params, 10.0, 0.8660254037844386)
    cavity = CavityGeometry(L=0.01, S0=1e-4)
    return params, orbit, cavity
