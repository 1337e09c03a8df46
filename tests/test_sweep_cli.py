"""Point evaluation, deterministic sweeps, serialization and the CLI."""

import csv
import io
import json
import math
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrcasimir import (
    CavityGeometry,
    DomainError,
    EquatorialOrbit,
    KerrParams,
    OracleConfig,
    PointRequest,
    PointStatus,
    SweepAxis,
    SweepSpec,
    dragging_angular_velocity,
    evaluate_point,
    records_to_csv,
    records_to_jsonl,
    run_sweep,
)
from kerrcasimir import cli
from kerrcasimir.cli import main
from kerrcasimir.sweep import CSV_COLUMNS

README = Path(__file__).resolve().parents[1] / "README.md"


def flat_request(T=0.0, L=1.0, S0=1.0):
    return PointRequest(
        params=KerrParams(M=0.0, a=0.0),
        orbit=EquatorialOrbit(r=10.0, Omega=0.0),
        cavity=CavityGeometry(L=L, S0=S0),
        T=T,
    )


def kerr_request(T=1.0, L=0.01, S0=1e-4):
    """Base configuration: M=1, a=0.5, r=10, ZAMO orbit, small cavity."""
    params = KerrParams(M=1.0, a=0.5)
    return PointRequest(
        params=params,
        orbit=EquatorialOrbit(r=10.0, Omega=dragging_angular_velocity(params, 10.0)),
        cavity=CavityGeometry(L=L, S0=S0),
        T=T,
    )


class TestEvaluatePoint:
    def test_flat_cold_cavity(self):
        record = evaluate_point(flat_request(T=0.0))
        assert record.status is PointStatus.OK
        assert record.F_ren == record.E0_ren == -math.pi**2 / 1440.0
        assert record.S_ren == 0.0

    def test_forbidden_orbit_status(self):
        req = flat_request()
        record = evaluate_point(
            PointRequest(params=req.params, orbit=EquatorialOrbit(r=10.0, Omega=0.5),
                         cavity=req.cavity, T=req.T)
        )
        assert record.status is PointStatus.FORBIDDEN_ORBIT
        assert record.F_ren is None

    def test_inside_horizon_status(self):
        record = evaluate_point(
            PointRequest(params=KerrParams(M=1.0, a=0.0),
                         orbit=EquatorialOrbit(r=0.5, Omega=0.0),
                         cavity=CavityGeometry(L=0.01, S0=1e-4), T=0.0)
        )
        assert record.status is PointStatus.INSIDE_HORIZON

    def test_kerr_hot_cavity_identity_recorded(self):
        params = KerrParams(M=1.0, a=0.5)
        omega = dragging_angular_velocity(params, 10.0)
        record = evaluate_point(
            PointRequest(params=params, orbit=EquatorialOrbit(r=10.0, Omega=omega),
                         cavity=CavityGeometry(L=0.01, S0=1e-4), T=10.0)
        )
        assert record.status is PointStatus.OK
        assert record.identity_residual <= 1e-9

    def test_naked_singularity_is_invalid_input(self):
        # Sweeping the spin axis may leave the black-hole window.
        base = PointRequest(params=KerrParams(M=1.0, a=0.0),
                            orbit=EquatorialOrbit(r=10.0, Omega=0.0),
                            cavity=CavityGeometry(L=0.01, S0=1e-4), T=0.0)
        spec = SweepSpec(axis=SweepAxis.A, start=0.0, stop=1.5, count=4, base=base)
        statuses = [r.status for r in run_sweep(spec)]
        assert statuses[0] is PointStatus.OK
        assert statuses[-1] is PointStatus.INVALID_INPUT


    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["T", "S0"])
    def test_non_finite_input_is_invalid_input(self, field, value):
        req = flat_request(T=1.0)
        if field == "T":
            req = replace(req, T=value)
        else:
            with pytest.raises(DomainError):
                CavityGeometry(L=1.0, S0=value)
            # A cavity that skipped its own check must not get through either.
            object.__setattr__(req.cavity, "S0", value)
        record = evaluate_point(req)
        assert record.status is PointStatus.INVALID_INPUT
        assert record.F_ren is None

    @pytest.mark.parametrize("T, L, S0", [
        (1e80, 0.01, 1e-4),   # Tp**4 overflows
        (1e300, 0.01, 1e-4),
        (1.0, 1e200, 1e-4),   # Lp**4 overflows
        (1.0, 1e-90, 1e-4),   # Lp**4 underflows to zero
        (1.0, 1e-30, 1e300),  # F, S and U leave the float range
        (1.0, 0.01, 5e-324),  # F and U underflow to zero
        (5.0, 113016259090188.0, 4.807000776901445e-286),  # subnormal F, S: U != F + Tp*S
    ])
    def test_results_beyond_the_float_range_are_invalid_input(self, T, L, S0):
        record = evaluate_point(kerr_request(T=T, L=L, S0=S0))
        assert record.status is PointStatus.INVALID_INPUT
        assert record.F_ren is None and record.identity_residual is None

    def test_temperature_below_the_float_range_is_zero_temperature(self):
        record = evaluate_point(kerr_request(T=5e-324))
        assert record.status is PointStatus.OK
        assert record.F_ren == record.U_ren == record.E0_ren
        assert record.S_ren == 0.0

    @given(T=st.floats(), L=st.floats(), S0=st.floats())
    @settings(max_examples=300, deadline=1000)  # ms: a point costs <= 6 terms
    def test_any_float_input_yields_a_finite_record(self, T, L, S0):
        try:
            cavity = CavityGeometry(L=L, S0=S0)
        except DomainError:
            # A cavity that skipped its own check must not get through either.
            cavity = object.__new__(CavityGeometry)
            object.__setattr__(cavity, "L", L)
            object.__setattr__(cavity, "S0", S0)
        record = evaluate_point(replace(kerr_request(), cavity=cavity, T=T))
        assert isinstance(record.status, PointStatus)
        if record.status is not PointStatus.OK:
            assert record.F_ren is None
            return
        F, S, U = record.F_ren, record.S_ren, record.U_ren
        assert all(math.isfinite(x) for x in (F, S, U))
        assert abs(U - (F + record.Tp * S)) <= 1e-9 * max(abs(U), abs(F))
        assert record.identity_residual <= 1e-9

    @given(M=st.floats(), a=st.floats(), r=st.floats(), Omega=st.floats())
    @settings(max_examples=300, deadline=1000)  # ms: a point costs <= 6 terms
    def test_any_float_source_and_orbit_yield_a_finite_record(self, M, a, r, Omega):
        try:
            params = KerrParams(M=M, a=a)
        except DomainError:
            # Dataclasses that skipped their own checks must not get through either.
            params = object.__new__(KerrParams)
            for name, value in (("M", M), ("a", a), ("black_hole_mode", True)):
                object.__setattr__(params, name, value)
        try:
            orbit = EquatorialOrbit(r=r, Omega=Omega)
        except DomainError:
            orbit = object.__new__(EquatorialOrbit)
            object.__setattr__(orbit, "r", r)
            object.__setattr__(orbit, "Omega", Omega)
        record = evaluate_point(replace(kerr_request(), params=params, orbit=orbit))
        assert isinstance(record.status, PointStatus)
        if record.status is not PointStatus.OK:
            assert record.F_ren is None
            return
        F, S, U = record.F_ren, record.S_ren, record.U_ren
        assert all(math.isfinite(x) for x in (F, S, U))
        assert abs(U - (F + record.Tp * S)) <= 1e-9 * max(abs(U), abs(F))
        assert record.identity_residual <= 1e-9

    @pytest.mark.parametrize("build", [
        lambda v: KerrParams(M=v),
        lambda v: KerrParams(M=1.0, a=v),
        lambda v: EquatorialOrbit(r=v),
        lambda v: EquatorialOrbit(r=10.0, Omega=v),
        lambda v: CavityGeometry(L=v, S0=1.0),
        lambda v: CavityGeometry(L=1.0, S0=v),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_dataclasses_reject_non_finite_fields(self, build, value):
        with pytest.raises(DomainError):
            build(value)


class TestRunSweep:
    def test_temperature_sweep_free_energy_decreases(self):
        spec = SweepSpec(axis=SweepAxis.T, start=0.01, stop=10.0, count=5,
                         scale="log", base=flat_request())
        records = run_sweep(spec)
        assert all(r.status is PointStatus.OK for r in records)
        F = [r.F_ren for r in records]
        assert all(a > b for a, b in zip(F, F[1:]))

    def test_radius_sweep_tracks_proper_geometry(self):
        params = KerrParams(M=1.0, a=0.5)
        base = PointRequest(params=params,
                            orbit=EquatorialOrbit(r=10.0, Omega=dragging_angular_velocity(params, 10.0)),
                            cavity=CavityGeometry(L=0.01, S0=1e-4), T=0.0)
        spec = SweepSpec(axis=SweepAxis.R, start=6.0, stop=20.0, count=5, base=base)
        for rec in run_sweep(spec):
            if rec.status is not PointStatus.OK:
                continue
            delta = rec.r**2 + 0.25 - 2.0 * rec.r
            assert rec.Sp == pytest.approx((rec.r / math.sqrt(delta)) * rec.S0, rel=1e-12)
            assert rec.Lp == pytest.approx(rec.L * math.sqrt(delta) * rec.C / rec.r, rel=1e-12)

    @pytest.mark.parametrize("workers", [4, 8])
    def test_parallel_output_is_bitwise_identical(self, workers):
        spec = SweepSpec(axis=SweepAxis.T, start=0.01, stop=5.0, count=12,
                         scale="log", base=flat_request())
        serial = records_to_csv(run_sweep(spec, parallelism=1))
        parallel = records_to_csv(run_sweep(spec, parallelism=workers))
        assert serial == parallel == records_to_csv(run_sweep(spec, workers))

    @pytest.mark.parametrize("workers", [0, 2.5, "2", None])
    def test_parallelism_must_be_an_integer_of_at_least_one(self, workers):
        spec = SweepSpec(axis=SweepAxis.T, start=0.5, stop=1.5, count=3, base=flat_request())
        with pytest.raises(DomainError, match="parallelism must be"):
            run_sweep(spec, workers)

    @pytest.mark.parametrize("start, stop, count", [
        (0.01, 10.0, 5), (1e-5, 1e3, 9), (3.0, 300.0, 1024), (1e-3, 1e-2, 4),
        (0.7, 0.7000001, 50), (1e-300, 1e300, 101),
    ])
    def test_grid_matches_numpy(self, start, stop, count):
        linear = SweepSpec(axis=SweepAxis.T, start=start, stop=stop, count=count,
                           base=flat_request()).grid()
        log = SweepSpec(axis=SweepAxis.T, start=start, stop=stop, count=count,
                        scale="log", base=flat_request()).grid()
        assert linear == np.linspace(start, stop, count).tolist()
        assert all(type(v) is float for v in linear + log)
        assert len(log) == count and log[0] == start and log[-1] == stop
        assert all(a < b for a, b in zip(log, log[1:]))
        assert log == pytest.approx(np.geomspace(start, stop, count).tolist(), rel=1e-13, abs=0.0)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            SweepSpec(axis=SweepAxis.T, start=1.0, stop=0.5, count=3, base=flat_request())
        with pytest.raises(DomainError):
            SweepSpec(axis=SweepAxis.T, start=0.0, stop=1.0, count=3, scale="log",
                      base=flat_request())
        with pytest.raises(DomainError):
            SweepSpec(axis=SweepAxis.T, start=0.0, stop=1.0, count=1, base=flat_request())
        with pytest.raises(DomainError, match="sweep axis must be one of"):
            SweepSpec(axis="x", start=0.0, stop=1.0, count=3, base=flat_request())
        with pytest.raises(DomainError, match="sweep count must be an integer"):
            SweepSpec(axis=SweepAxis.T, start=0.0, stop=1.0, count=3.0, base=flat_request())
        for start, stop in ((0.1, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.1, math.nan),
                            (-math.inf, math.inf)):
            with pytest.raises(DomainError, match="finite start < stop"):
                SweepSpec(axis=SweepAxis.T, start=start, stop=stop, count=4, base=flat_request())

    def test_axis_given_by_name_sweeps_that_axis(self):
        base = kerr_request()
        by_name = run_sweep(SweepSpec(axis="T", start=0.5, stop=0.9, count=3, base=base))
        assert by_name == run_sweep(SweepSpec(axis=SweepAxis.T, start=0.5, stop=0.9, count=3,
                                              base=base))
        assert [(rec.a, rec.T) for rec in by_name] == [(0.5, 0.5), (0.5, 0.7), (0.5, 0.9)]


class TestSerialization:
    def test_csv_round_trips_through_float(self):
        records = run_sweep(
            SweepSpec(axis=SweepAxis.T, start=0.3, stop=3.0, count=3, base=flat_request())
        )
        text = records_to_csv(records)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 3
        for row, rec in zip(rows, records):
            assert float(row["F_ren"]) == rec.F_ren
            assert row["status"] == "ok"

    def test_no_nan_or_inf_serialized(self):
        # T = 0 gives an infinite beta_hat; it must serialize as empty.
        text = records_to_csv([evaluate_point(flat_request(T=0.0))])
        assert "inf" not in text and "nan" not in text
        row = next(csv.DictReader(io.StringIO(text)))
        assert row["beta_hat"] == ""

    def test_failed_points_have_empty_numeric_fields(self):
        req = flat_request()
        rec = evaluate_point(
            PointRequest(params=req.params, orbit=EquatorialOrbit(r=10.0, Omega=0.5),
                         cavity=req.cavity, T=req.T)
        )
        row = next(csv.DictReader(io.StringIO(records_to_csv([rec]))))
        assert row["status"] == "forbidden_orbit"
        assert row["F_ren"] == "" and row["C"] == ""
        assert float(row["M"]) == 0.0  # inputs are always present

    @pytest.mark.parametrize("axis, start, stop", [(SweepAxis.R, 6.0, 20.0), (SweepAxis.L, 1e-3, 1e-2)])
    def test_geometry_sweeps_serialize_plain_booleans(self, axis, start, stop):
        params = KerrParams(M=1.0, a=0.5)
        base = PointRequest(params=params,
                            orbit=EquatorialOrbit(r=10.0, Omega=dragging_angular_velocity(params, 10.0)),
                            cavity=CavityGeometry(L=0.01, S0=1e-4), T=1.0)
        spec = SweepSpec(axis=axis, start=start, stop=stop, count=4, scale="log", base=base)
        assert all(type(v) is float for v in spec.grid())
        records = run_sweep(spec)
        assert all(r.status is PointStatus.OK for r in records)
        rows = list(csv.DictReader(io.StringIO(records_to_csv(records))))
        assert all(row["small_cavity_ok"] in ("true", "false") for row in rows)
        lines = records_to_jsonl(records).splitlines()
        assert len(lines) == 4
        assert all(json.loads(line)["small_cavity_ok"] in (True, False) for line in lines)

    def test_jsonl_matches_schema(self):
        rec = evaluate_point(flat_request(T=1.0))
        line = records_to_jsonl([rec]).splitlines()[0]
        obj = json.loads(line)
        assert list(obj.keys()) == list(CSV_COLUMNS)
        assert obj["status"] == "ok"
        assert obj["F_ren"] == pytest.approx(rec.F_ren, rel=1e-16)


class TestCli:
    def test_point_flat_cavity(self, capsys):
        code = main([
            "point", "--mass", "0", "--spin", "0", "--radius", "10",
            "--omega", "0", "--length", "1", "--area", "1", "--temperature", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["E0_ren"]) == -math.pi**2 / 1440.0

    def test_point_zamo_preset(self, capsys):
        code = main(["point", "--mass", "1", "--spin", "0.5", "--radius", "10",
                     "--omega", "zamo", "--temperature", "1"])
        assert code == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert float(row["Omega"]) == pytest.approx(10.0 / 10030.0, rel=1e-13)

    def test_point_band_fraction_preset(self, capsys):
        code = main(["point", "--mass", "1", "--spin", "0.5", "--radius", "10",
                     "--omega", "frac=0.5"])
        assert code == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        omega_d = 10.0 / 10030.0
        half = 100.0 * math.sqrt(80.25) / 10030.0
        assert float(row["Omega"]) == pytest.approx(omega_d + 0.5 * half, rel=1e-13)

    def test_point_forbidden_orbit_exits_2(self, capsys):
        code = main(["point", "--mass", "0", "--spin", "0", "--radius", "10",
                     "--omega", "0.5"])
        assert code == 2
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert row["status"] == "forbidden_orbit"

    def test_invalid_input_exits_2(self, capsys):
        assert main(["point", "--mass", "-1"]) == 2
        assert main(["point", "--length", "0"]) == 2
        assert main(["point", "--omega", "frac=1.5"]) == 2
        assert main(["validate", "--fd-step", "inf"]) == 2

    @pytest.mark.parametrize("command, value", [
        (["point"], "abc"),
        (["point"], "frac=x"),
        (["point"], "frac="),
        (["sweep", "--axis", "r", "--start", "3", "--stop", "30", "--count", "3"], "abc"),
    ], ids=["point number", "point fraction", "point empty fraction", "sweep number"])
    def test_malformed_omega_names_its_flag(self, capsys, command, value):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--omega", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"argument --omega: must be a number, 'zamo' or 'frac=<number>', "
                f"got {value!r}") in captured.err

    @pytest.mark.parametrize("omega", ["zamo", "frac=0.5"])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_point_preset_inside_the_horizon_writes_its_record(self, capsys, omega, fmt):
        """No dragging velocity exists inside the horizon, so the record keeps
        the inputs as given with an empty Omega cell."""
        code = main(["point", "--spin", "0.5", "--radius", "1.5", "--omega", omega,
                     "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "kerrcasimir: point status inside_horizon\n"
        if fmt == "csv":
            row = next(csv.DictReader(io.StringIO(captured.out)))
            assert row["status"] == "inside_horizon" and row["Omega"] == ""
            assert (row["M"], row["a"], row["r"], row["L"], row["S0"], row["T"]) == (
                "1", "0.5", "1.5", "0.01", "0.0001", "0")
        else:
            obj = json.loads(captured.out)
            assert obj["status"] == "inside_horizon" and obj["Omega"] is None
            assert (obj["M"], obj["a"], obj["r"], obj["T"]) == (1.0, 0.5, 1.5, 0.0)

    def test_point_band_fraction_outside_the_band_is_an_input_error(self, capsys):
        """frac= outside (-1, 1) exits 2 with its message, inside the horizon too."""
        assert main(["point", "--spin", "0.5", "--radius", "1.5", "--omega", "frac=1.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "band fraction must lie strictly inside (-1, 1)" in captured.err

    def test_sweep_jsonl_format(self, capsys):
        code = main(["sweep", "--mass", "0", "--spin", "0", "--radius", "10",
                     "--omega", "0", "--length", "1", "--area", "1",
                     "--axis", "T", "--start", "0.5", "--stop", "1.5", "--count", "3",
                     "--format", "jsonl"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all(json.loads(line)["status"] == "ok" for line in lines)

    def test_config_file_defaults_and_flag_override(self, tmp_path, capsys):
        config = tmp_path / "defaults.cfg"
        config.write_text("mass=0\nspin=0\nradius=10\nomega=0\nlength=1\narea=1\ntemperature=2.0\n")
        code = main(["point", "--config", str(config)])
        assert code == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert float(row["T"]) == 2.0

        code = main(["point", "--config", str(config), "--temperature", "3.0"])
        assert code == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert float(row["T"]) == 3.0

    def test_point_beyond_the_float_range_exits_2(self, capsys):
        assert main(["point", "--mass", "1", "--spin", "0.5", "--temperature", "1e80"]) == 2
        captured = capsys.readouterr()
        assert "invalid_input" in captured.err
        assert next(csv.DictReader(io.StringIO(captured.out)))["status"] == "invalid_input"

    def test_sweep_with_no_ok_point_exits_2(self, capsys):
        args = ["sweep", "--mass", "1", "--axis", "r", "--start", "0.5", "--stop", "1.5",
                "--count", "3"]
        assert main(args) == 2
        captured = capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert [row["status"] for row in rows] == ["inside_horizon"] * 3
        assert "none of the 3 sweep points is ok" in captured.err
        # One ok point is enough for success.
        assert main(args[:-4] + ["--stop", "2.5", "--count", "3"]) == 0

    def test_omega_sweep_does_not_resolve_the_base_omega(self, capsys):
        """The axis replaces Omega at every point, so a base radius inside the
        horizon still gives one inside_horizon record per grid value."""
        args = ["sweep", "--spin", "0.5", "--radius", "1.5", "--axis", "Omega",
                "--start", "-0.1", "--stop", "0.1", "--count", "3"]
        assert main(args) == 2
        captured = capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert [row["status"] for row in rows] == ["inside_horizon"] * 3
        assert [float(row["Omega"]) for row in rows] == [-0.1, 0.0, 0.1]
        assert captured.err == "kerrcasimir: none of the 3 sweep points is ok\n"

    @pytest.mark.parametrize("omega", ["zamo", "frac=0.5"])
    def test_other_sweeps_need_the_base_omega(self, capsys, omega):
        assert main(["sweep", "--spin", "0.5", "--radius", "1.5", "--omega", omega,
                     "--axis", "r", "--start", "1.5", "--stop", "10", "--count", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--omega {omega} cannot be resolved at --radius 1.5" in captured.err

    def test_sweep_config_supplies_required_flags(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text("mass=0\nomega=0\naxis=T\nstart=0.1\nstop=1\ncount=3\n")
        assert main(["sweep", "--config", str(config)]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [float(row["T"]) for row in rows] == [0.1, 0.55, 1.0]
        # Explicit flags still win over the file.
        assert main(["sweep", "--config", str(config), "--stop", "2", "--axis", "L",
                     "--start", "0.5"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [float(row["L"]) for row in rows] == [0.5, 1.25, 2.0]

    def test_sweep_config_without_required_flags_exits_2(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text("mass=0\nomega=0\naxis=T\n")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(config)])
        assert exc.value.code == 2
        assert "--start, --stop" in capsys.readouterr().err

    def test_bad_config_key_exits_2(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("masss=1\n")
        assert main(["point", "--config", str(config)]) == 2

    @pytest.mark.parametrize("line", ["allow_naked=true", "allow-naked=yes"])
    def test_config_switches_an_on_off_flag_on(self, tmp_path, capsys, line):
        config = tmp_path / "naked.cfg"
        config.write_text(f"{line}\nspin=1.2\nomega=0\n")
        assert main(["point", "--config", str(config)]) == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert (row["a"], row["status"]) == ("1.2", "ok")

    def test_config_switches_an_on_off_flag_off(self, tmp_path, capsys):
        config = tmp_path / "covered.cfg"
        config.write_text("allow_naked=false\nspin=1.2\nomega=0\n")
        assert main(["point", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "|a|=1.2 exceeds M=1.0" in captured.err

    @pytest.mark.parametrize("value, code", [("on", 0), ("ON", 0), ("off", 2), ("No", 2)])
    def test_config_reads_on_and_off(self, tmp_path, capsys, value, code):
        config = tmp_path / "naked.cfg"
        config.write_text(f"allow_naked={value}\nspin=1.2\nomega=0\n")
        assert main(["point", "--config", str(config)]) == code
        captured = capsys.readouterr()
        if code == 0:
            assert next(csv.DictReader(io.StringIO(captured.out)))["status"] == "ok"
        else:
            assert captured.out == "" and "|a|=1.2 exceeds M=1.0" in captured.err

    def test_config_rejects_an_unknown_on_off_value(self, tmp_path, capsys):
        config = tmp_path / "typo.cfg"
        config.write_text("spin=1.2\nallow_naked=ture\nomega=0\n")
        assert main(["point", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{config}:2: allow_naked must be one of" in captured.err
        assert "'ture'" in captured.err

    @pytest.mark.parametrize("command, line, message", [
        (["point"], "temperature=hot", "temperature must be float, got 'hot'"),
        (["sweep", "--axis", "T", "--start", "0.5", "--stop", "1.5"], "count=1e3",
         "count must be int, got '1e3'"),
        (["point"], "omega=abc", "omega must be a number, 'zamo' or 'frac=<number>', got 'abc'"),
    ], ids=["float key", "int key", "omega key"])
    def test_config_value_of_the_wrong_type_names_its_line(self, tmp_path, capsys,
                                                             command, line, message):
        config = tmp_path / "typed.cfg"
        config.write_text(f"mass=1\n{line}\n")
        assert main(command + ["--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{config}:2: {message}" in captured.err

    def test_config_skips_comment_and_blank_lines(self, tmp_path, capsys):
        config = tmp_path / "commented.cfg"
        config.write_text("# flat cavity\nmass=0\n\n   \nomega=0\n# hot\ntemperature=2.0\n")
        assert main(["point", "--config", str(config)]) == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert (row["M"], row["T"], row["status"]) == ("0", "2", "ok")

    def test_config_line_without_equals_exits_2(self, tmp_path, capsys):
        config = tmp_path / "broken.cfg"
        config.write_text("mass=0\nspin 0.5\n")
        assert main(["point", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "broken.cfg:2: expected key=value" in captured.err

    def test_sweep_with_a_non_finite_end_exits_2(self, capsys):
        assert main(["sweep", "--axis", "T", "--start", "0.1", "--stop", "inf",
                     "--count", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite start < stop" in captured.err

    def test_validate_config_accepts_its_own_keys(self, tmp_path, monkeypatch, capsys):
        config = tmp_path / "validate.cfg"
        config.write_text("fd_step=2e-5\nquad-points=150\nn_max=50000\n")
        seen = []

        def fake_checks(cfg):
            seen.append(cfg)
            return [{"name": "stub", "measured": 0.0, "tolerance": 1.0, "passed": True, "detail": ""}]

        monkeypatch.setattr(cli, "validation_checks", fake_checks)
        assert main(["validate", "--config", str(config)]) == 0
        assert (seen[0].fd_step, seen[0].quad_points, seen[0].n_max) == (2e-5, 150, 50000)
        # Keys are typed and checked as the flags are.
        config.write_text("quad_points=many\n")
        assert main(["validate", "--config", str(config)]) == 2
        config.write_text("format=xml\n")
        assert main(["point", "--config", str(config)]) == 2

    def test_validate_flags_are_the_oracle_config_fields(self, monkeypatch, capsys):
        seen = []
        stub = {"name": "stub", "measured": 0.0, "tolerance": 1.0, "passed": True, "detail": ""}
        monkeypatch.setattr(cli, "validation_checks", lambda cfg: seen.append(cfg) or [stub])
        assert main(["validate"]) == 0
        assert main(["validate", "--m-max", "7", "--fd-step", "1e-4"]) == 0
        assert seen == [OracleConfig(), OracleConfig(m_max=7, fd_step=1e-4)]
        assert type(seen[1].m_max) is int and type(seen[1].fd_step) is float

    def test_readme_lists_the_validate_flags(self):
        """README's list of validate flags is the options the parser gives it."""
        lines = README.read_text(encoding="utf-8").splitlines()
        start = lines.index("`validate` takes these flags:") + 2
        listed = []
        for line in lines[start:lines.index("", start)]:
            if not line.startswith("  "):  # not a wrapped item
                listed.append(line[line.index("`") + 1:line.index("`:")])
        sub = cli.build_parser().subcommand_parsers["validate"]
        assert listed == [option for action in sub._actions for option in action.option_strings
                          if option.startswith("--") and option != "--help"]

    @pytest.mark.parametrize("command", [
        ["point"],
        ["sweep", "--axis", "T", "--start", "0.5", "--stop", "1.5", "--count", "3"],
        ["validate"],
    ])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, command):
        missing = tmp_path / "missing" / "out.txt"
        assert main(command + ["--output", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("kerrcasimir: ") and str(missing) in err
        assert err.count("\n") == 1
        assert not missing.exists()

    def test_validate_passes_and_writes_json(self, tmp_path, capsys):
        report = tmp_path / "validate.json"
        code = main(["validate", "--output", str(report)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "FAIL" not in out
        payload = json.loads(report.read_text())
        assert payload["failures"] == 0
        assert all(c["passed"] for c in payload["checks"])

    def test_validate_starved_sum_exits_1(self, capsys):
        code = main(["validate", "--m-max", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "TruncationError" in out


def test_cli_imports_neither_scipy_nor_numpy():
    """Point and sweep runs, start-up included, stay off scipy and numpy."""
    script = textwrap.dedent("""
        import contextlib, io, sys
        import kerrcasimir, kerrcasimir.cli as cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["point", "--spin", "0.5", "--temperature", "1"]) == 0
            assert cli.main(["sweep", "--axis", "T", "--scale", "log",
                             "--start", "0.01", "--stop", "100", "--count", "5"]) == 0
        print(sorted({m.split(".")[0] for m in sys.modules} & {"scipy", "numpy"}))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_validate_imports_neither_scipy_nor_numpy():
    """The oracle suite runs on the in-package quadrature alone."""
    script = textwrap.dedent("""
        import contextlib, io, sys
        import kerrcasimir.cli as cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["validate"]) == 0
        print(sorted({m.split(".")[0] for m in sys.modules} & {"scipy", "numpy"}))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
