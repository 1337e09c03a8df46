"""The record schema: one declaration, inputs kept on failure, no NaN/Inf out."""

import csv
import io
import json
import math
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kerrcasimir import (
    AsymptoticReport,
    BetaHat,
    CasimirReport,
    CavityGeometry,
    DomainError,
    EquatorialOrbit,
    HatMetric,
    KerrParams,
    MetricFunctions,
    OutputRecord,
    PointRequest,
    PointStatus,
    ProperFrame,
    SweepAxis,
    SweepSpec,
    ValidityDiagnostics,
    beta_hat,
    casimir_report,
    cavity_validity,
    comoving_metric,
    dragging_angular_velocity,
    equatorial_metric_functions,
    evaluate_point,
    low_T_entropy,
    proper_frame,
    records_to_csv,
    records_to_jsonl,
    run_sweep,
)
import kerrcasimir
from kerrcasimir import sweep
from kerrcasimir.cli import main
from kerrcasimir.sweep import CSV_COLUMNS

README = Path(__file__).resolve().parents[1] / "README.md"
INPUTS = ("M", "a", "r", "Omega", "L", "S0", "T")


def kerr_request(T=1.0):
    """Base configuration: M=1, a=0.5, r=10, ZAMO orbit, small cavity."""
    params = KerrParams(M=1.0, a=0.5)
    return PointRequest(
        params=params,
        orbit=EquatorialOrbit(r=10.0, Omega=dragging_angular_velocity(params, 10.0)),
        cavity=CavityGeometry(L=0.01, S0=1e-4),
        T=T,
    )


def unchecked(cls, **fields):
    """An instance of a frozen dataclass that skipped its own checks."""
    try:
        return cls(**fields)
    except DomainError:
        obj = object.__new__(cls)
        for name, value in fields.items():
            object.__setattr__(obj, name, value)
        return obj


def reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def assert_finite_serialization(records):
    text = records_to_csv(records)
    assert "nan" not in text.lower() and "inf" not in text.lower()
    rows = list(csv.reader(io.StringIO(text)))
    assert tuple(rows[0]) == CSV_COLUMNS
    for row in rows[1:]:
        assert len(row) == len(CSV_COLUMNS)
        for cell in row[:-1]:
            if cell not in ("", "true", "false"):
                assert math.isfinite(float(cell))
    lines = records_to_jsonl(records).splitlines()
    assert len(lines) == len(records)
    for line in lines:
        obj = json.loads(line, parse_constant=reject_constant)
        assert list(obj) == list(CSV_COLUMNS)


def assert_formats_agree(records):
    """Every CSV cell and its JSONL value are the same plain value."""
    rows = list(csv.reader(io.StringIO(records_to_csv(records))))[1:]
    objs = [json.loads(line) for line in records_to_jsonl(records).splitlines()]
    assert len(rows) == len(objs) == len(records)
    for row, obj in zip(rows, objs):
        for column, cell in zip(CSV_COLUMNS, row):
            value = obj[column]
            if column == "status":
                assert cell == value and PointStatus(value)
            elif cell == "":
                assert value is None
            elif cell in ("true", "false"):
                assert value is (cell == "true")
            else:
                assert type(value) is (int if column == "terms_used" else float)
                assert float(cell) == value


class TestSchema:
    def test_columns_are_the_record_fields(self):
        assert CSV_COLUMNS == OutputRecord._fields
        assert CSV_COLUMNS[:7] == INPUTS and CSV_COLUMNS[-1] == "status"
        for dropped in ("rel_tol", "m_max", "truncation_estimate"):
            assert dropped not in CSV_COLUMNS

    def test_records_are_immutable_with_attribute_access(self):
        rec = evaluate_point(kerr_request())
        assert rec.status is PointStatus.OK and isinstance(rec.F_ren, float)
        with pytest.raises(AttributeError):
            rec.F_ren = 0.0

    def test_readme_documents_the_csv_header(self):
        assert ",".join(CSV_COLUMNS) in README.read_text(encoding="utf-8")

    def test_readme_counts_the_names_and_lists_the_failed_statuses(self):
        """README's count of public names is the package's, and its list of
        failed statuses is every status but ok, in order."""
        text = " ".join(README.read_text(encoding="utf-8").split())
        assert re.findall(r"(\d+) names\.", text) == [str(len(kerrcasimir.__all__))]
        listed = re.search(r"a status of ((?:`\w+`(?:, | or ))+`\w+`)", text).group(1)
        assert re.findall(r"`(\w+)`", listed) == [s.value for s in PointStatus if s is not PointStatus.OK]

    def test_frame_report_and_diagnostics_are_record_columns_in_order(self):
        """evaluate_point lays these values end to end into the record."""
        frame_fields = [field.name for field in fields(ProperFrame)]
        assert CSV_COLUMNS[7:12] == tuple(name for name in frame_fields if name != "v2")
        # The squared speed relative to the ZAMO feeds E0 and is not written.
        assert [name for name in frame_fields if name not in CSV_COLUMNS] == ["v2"]
        assert CSV_COLUMNS[12:20] == CasimirReport._fields
        assert CSV_COLUMNS[20:24] == ValidityDiagnostics._fields


def computed_values():
    """One instance of each computed, read-only value type."""
    req = kerr_request()
    frame = proper_frame(req.params, req.orbit, req.cavity, req.T)
    return [
        equatorial_metric_functions(req.params, req.orbit.r),
        comoving_metric(req.params, req.orbit),
        beta_hat(frame),
        casimir_report(frame, req.params, req.orbit),
        cavity_validity(req.params, req.orbit, req.cavity),
        low_T_entropy(frame, frame.Tp),
    ]


@pytest.mark.parametrize("value", computed_values(), ids=lambda value: type(value).__name__)
def test_computed_values_are_read_only_named_tuples(value):
    assert type(value) in (MetricFunctions, HatMetric, BetaHat, CasimirReport,
                           ValidityDiagnostics, AsymptoticReport)
    assert isinstance(value, tuple)
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], 0.0)


class TestFailedRecords:
    def test_failed_sweep_records_keep_their_inputs(self):
        base = replace(kerr_request(T=0.5), params=KerrParams(M=1.0, a=0.0))
        spec = SweepSpec(axis=SweepAxis.A, start=0.0, stop=1.5, count=7, base=base)
        records = run_sweep(spec)
        failed = [rec for rec in records if rec.status is not PointStatus.OK]
        assert [rec.a for rec in failed] == [v for v in spec.grid() if v > 1.0] == [1.25, 1.5]
        for rec in failed:
            assert rec.status is PointStatus.INVALID_INPUT
            assert (rec.M, rec.r, rec.Omega, rec.L, rec.S0, rec.T) == (
                base.params.M, base.orbit.r, base.orbit.Omega,
                base.cavity.L, base.cavity.S0, base.T,
            )
            results = {name: value for name, value in rec._asdict().items()
                       if name not in INPUTS and name != "status"}
            assert results and all(value is None for value in results.values())


class TestNothingNonFiniteIsSerialized:
    @given(M=st.floats(), a=st.floats(), r=st.floats(), Omega=st.floats(),
           L=st.floats(), S0=st.floats(), T=st.floats())
    @settings(max_examples=200, deadline=1000)  # ms: a point costs <= 6 terms
    def test_evaluated_points(self, M, a, r, Omega, L, S0, T):
        req = PointRequest(
            params=unchecked(KerrParams, M=M, a=a, black_hole_mode=True),
            orbit=unchecked(EquatorialOrbit, r=r, Omega=Omega),
            cavity=unchecked(CavityGeometry, L=L, S0=S0),
            T=T,
        )
        assert_finite_serialization([evaluate_point(req), evaluate_point(replace(kerr_request(), T=T))])

    @given(axis=st.sampled_from(list(SweepAxis)), value=st.floats())
    @settings(max_examples=200, deadline=1000)
    def test_sweep_axis_values(self, axis, value):
        spec = SweepSpec(axis=axis, start=0.5, stop=2.0, count=3, base=kerr_request())
        records = [spec.evaluate_at(v) for v in (*spec.grid(), math.inf, -math.inf, math.nan, value)]
        kept = getattr(records[-1], axis.value)
        assert kept == value or (math.isnan(kept) and math.isnan(value))
        assert_finite_serialization(records)


class TestNoNegativeZero:
    def test_zero_temperature_record(self):
        # DeltaTF_ren and f_bb vanish at T = 0: +0.0, so no cell reads -0 or -0.0.
        rec = evaluate_point(kerr_request(T=0.0))
        assert rec.status is PointStatus.OK
        assert (rec.DeltaTF_ren, rec.f_bb) == (0.0, 0.0)

        def negative_zeros(values):
            return [v for v in values
                    if isinstance(v, float) and v == 0.0 and math.copysign(1.0, v) < 0]

        assert negative_zeros(rec) == []
        assert negative_zeros(json.loads(records_to_jsonl([rec])).values()) == []
        assert "-0" not in records_to_csv([rec]).splitlines()[1].split(",")

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_negative_zero_temperature(self, fmt, capsys):
        """T = -0.0 is echoed as given, but the proper temperature is +0.0."""
        assert main(["point", "--spin", "0.5", "--temperature", "-0", "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "csv":
            row = dict(zip(CSV_COLUMNS, out.splitlines()[1].split(",")))
            assert row.pop("T") == "-0"
            assert "-0" not in row.values() and row["Tp"] == "0"
        else:
            obj = json.loads(out)
            assert math.copysign(1.0, obj.pop("T")) < 0
            assert not any(isinstance(v, float) and math.copysign(1.0, v) < 0 and v == 0.0
                           for v in obj.values())
            assert obj["Tp"] == 0.0


class TestFormatsAgree:
    @given(M=st.floats(), a=st.floats(), r=st.floats(), Omega=st.floats(),
           L=st.floats(), S0=st.floats(), T=st.floats())
    @settings(max_examples=200, deadline=1000)
    def test_evaluated_points(self, M, a, r, Omega, L, S0, T):
        req = PointRequest(
            params=unchecked(KerrParams, M=M, a=a, black_hole_mode=True),
            orbit=unchecked(EquatorialOrbit, r=r, Omega=Omega),
            cavity=unchecked(CavityGeometry, L=L, S0=S0),
            T=T,
        )
        assert_formats_agree([evaluate_point(req), evaluate_point(replace(kerr_request(), T=T))])

    def test_sweeps_over_every_status(self):
        base = kerr_request()
        specs = [
            SweepSpec(axis=SweepAxis.R, start=0.5, stop=30.0, count=16, base=base),
            SweepSpec(axis=SweepAxis.OMEGA, start=-0.15, stop=0.15, count=16, base=base),
            SweepSpec(axis=SweepAxis.T, start=0.0, stop=1e3, count=16, base=base),
            SweepSpec(axis=SweepAxis.A, start=0.0, stop=1.5, count=16, base=base),
        ]
        records = [rec for spec in specs for rec in run_sweep(spec)]
        assert {rec.status for rec in records} == set(PointStatus)
        assert_formats_agree(records)

    def test_no_records(self):
        assert records_to_csv([]) == ",".join(CSV_COLUMNS) + "\n"
        assert records_to_jsonl([]) == ""


# The writers' reference: each cell's plain value, spelled with "{:.17g}"
# per CSV cell and json.dumps per JSONL line.
COUNT_COLUMN, FLAG_COLUMN = "terms_used", "small_cavity_ok"
FLOAT_COLUMNS = [c for c in CSV_COLUMNS if c not in (COUNT_COLUMN, FLAG_COLUMN, "status")]


def reference_plain(column, value):
    if value is None:
        return None
    if column == "status":
        return value.value
    if column == COUNT_COLUMN:
        return int(value)
    if column == FLAG_COLUMN:
        return bool(value)
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def reference_csv(records):
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        cells = []
        for column, value in zip(CSV_COLUMNS, rec):
            value = reference_plain(column, value)
            if value is None:
                cells.append("")
            elif column == FLAG_COLUMN:
                cells.append("true" if value else "false")
            elif column in FLOAT_COLUMNS:
                cells.append("{:.17g}".format(value))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def reference_jsonl(records):
    return "".join(
        json.dumps({c: reference_plain(c, v) for c, v in zip(CSV_COLUMNS, rec)},
                   separators=(",", ":")) + "\n"
        for rec in records
    )


EDGE_FLOATS = (-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308)
finite_floats = st.one_of(st.sampled_from(EDGE_FLOATS),
                          st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def complete_records(draw):
    """An ok record with every cell of its exact column type, as evaluate_point builds it."""
    floats = dict(zip(FLOAT_COLUMNS, draw(st.lists(finite_floats, min_size=len(FLOAT_COLUMNS),
                                                   max_size=len(FLOAT_COLUMNS)))))
    return OutputRecord(**floats, terms_used=draw(st.integers(0, 10**6)),
                        small_cavity_ok=draw(st.booleans()), status=PointStatus.OK)


# One cell that sends its column down the cell-by-cell spelling, by kind: (column, value).
float_columns = st.sampled_from(FLOAT_COLUMNS)
HOLES = {
    "None": st.tuples(st.sampled_from(CSV_COLUMNS[:-1]), st.none()),
    "nan": st.tuples(float_columns, st.just(math.nan)),
    "inf": st.tuples(float_columns, st.sampled_from([math.inf, -math.inf])),
    "np.float64": st.tuples(float_columns, finite_floats.map(np.float64)),
    "np.float32": st.tuples(float_columns, st.floats(width=32, allow_nan=False,
                                                     allow_infinity=False).map(np.float32)),
    "int": st.tuples(float_columns, st.integers(-(2**64), 2**64)),
    "int beyond the float range": st.tuples(float_columns, st.sampled_from([10**400, -(10**400)])),
    "failed status": st.tuples(st.just("status"), st.sampled_from(list(PointStatus)[1:])),
    "terms_used beyond the float range": st.tuples(st.just("terms_used"), st.just(10**400)),
    "terms_used bool": st.tuples(st.just("terms_used"), st.booleans()),
    "terms_used np.int64": st.tuples(st.just("terms_used"),
                                     st.integers(0, 10**6).map(np.int64)),
}


class TestRowTemplates:
    """Exact, finite number cells are spelled by the template, every other
    one on its own; both give the bytes of the reference."""

    @given(rec=complete_records())
    @example(rec=OutputRecord(**dict(zip(FLOAT_COLUMNS, EDGE_FLOATS * 5)), terms_used=1,
                              small_cavity_ok=False, status=PointStatus.OK))
    @settings(max_examples=100)
    def test_complete_rows(self, rec):
        assert records_to_csv([rec]) == reference_csv([rec])
        assert records_to_jsonl([rec]) == reference_jsonl([rec])

    @pytest.mark.parametrize("hole", list(HOLES))
    @given(data=st.data())
    @settings(max_examples=25)
    def test_rows_with_a_hole(self, hole, data):
        column, value = data.draw(HOLES[hole])
        rec = data.draw(complete_records())._replace(**{column: value})
        assert records_to_csv([rec]) == reference_csv([rec])
        assert records_to_jsonl([rec]) == reference_jsonl([rec])

    def test_complete_rows_skip_the_per_cell_path(self, monkeypatch):
        """No number cell of a complete list is spelled on its own, and one
        hole spells only that cell on its own: the path, not only the bytes."""
        calls = []
        per_cell = sweep._plain_cell
        monkeypatch.setattr(sweep, "_plain_cell", lambda i, value: calls.append(
            (CSV_COLUMNS[i], value)) or per_cell(i, value))

        def number_cells():
            return [call for call in calls if call[0] not in (FLAG_COLUMN, "status")]

        spec = SweepSpec(axis=SweepAxis.R, start=3.0, stop=30.0, count=16, base=kerr_request())
        records = run_sweep(spec)
        assert all(rec.status is PointStatus.OK for rec in records)
        records_to_csv(records)
        records_to_jsonl(records)
        assert number_cells() == []
        records[5] = records[5]._replace(F_ren=None)
        records_to_csv(records)
        assert number_cells() == [("F_ren", None)]
        records_to_jsonl(records)
        assert number_cells() == [("F_ren", None)] * 2


@st.composite
def record_lists(draw):
    """2-12 complete rows: one complete_records() draw with a random set of
    number columns, and small_cavity_ok, drawn anew in each row."""
    base = draw(complete_records())
    records = []
    for _ in range(draw(st.integers(2, 12))):
        varied = draw(st.sets(st.sampled_from(FLOAT_COLUMNS + [COUNT_COLUMN])))
        records.append(base._replace(
            small_cavity_ok=draw(st.booleans()),
            **{column: draw(st.integers(0, 10**6) if column == COUNT_COLUMN else finite_floats)
               for column in sorted(varied)}))
    return records


def assert_lists_match_reference(records):
    """A list and a generator of the records both give the reference bytes."""
    for write, reference in ((records_to_csv, reference_csv), (records_to_jsonl, reference_jsonl)):
        assert write(records) == reference(records)
        assert write(rec for rec in records) == reference(records)


# Three complete rows, every column of them varying.
EDGE_LIST = [OutputRecord(**dict(zip(FLOAT_COLUMNS, (EDGE_FLOATS[i:] + EDGE_FLOATS[:i]) * 5)),
                          terms_used=i, small_cavity_ok=bool(i % 2), status=PointStatus.OK)
             for i in range(3)]


class TestRecordLists:
    """Lists of several rows: a cell that holds one value along the list is
    spelled into its template once, and every byte stays the reference's."""

    @given(records=record_lists())
    @example(records=EDGE_LIST)
    @settings(max_examples=60)
    def test_complete_lists(self, records):
        assert_lists_match_reference(records)

    @given(records=record_lists(), column=float_columns,
           negative=st.lists(st.booleans(), min_size=12, max_size=12))
    @example(records=EDGE_LIST, column="F_ren", negative=[False, True, False] * 4)
    @settings(max_examples=30)
    def test_a_column_of_signed_zeros(self, records, column, negative):
        """0.0 == -0.0, yet they spell 0 and -0."""
        assert_lists_match_reference([rec._replace(**{column: -0.0 if neg else 0.0})
                                      for rec, neg in zip(records, negative)])

    @given(records=record_lists(), column=float_columns)
    @settings(max_examples=25)
    def test_the_largest_float_in_every_row(self, records, column):
        assert_lists_match_reference([rec._replace(**{column: 1.7976931348623157e308})
                                      for rec in records])

    @given(records=record_lists(), column=float_columns, row=st.integers(0, 11))
    @example(records=EDGE_LIST, column="F_ren", row=0)
    @settings(max_examples=30)
    def test_an_int_one_among_float_ones(self, records, column, row):
        """1 == 1.0, yet a JSONL float one reads 1.0."""
        records = [rec._replace(**{column: 1.0}) for rec in records]
        row %= len(records)
        records[row] = records[row]._replace(**{column: 1})
        assert_lists_match_reference(records)

    @given(data=st.data())
    @settings(max_examples=30)
    def test_lists_with_holes(self, data):
        records = data.draw(record_lists())
        for row in data.draw(st.sets(st.integers(0, len(records) - 1), min_size=1)):
            column, value = data.draw(st.one_of(*HOLES.values()))
            records[row] = records[row]._replace(**{column: value})
        assert_lists_match_reference(records)


class TestNumpyScalarInputs:
    def test_records_serialize_as_plain_values(self):
        req = kerr_request()
        numpy_cavity = CavityGeometry(L=np.float64(0.01), S0=1e-4)
        assert type(cavity_validity(req.params, req.orbit, numpy_cavity).small_cavity_ok) is bool
        records = [
            evaluate_point(replace(req, cavity=numpy_cavity)),
            evaluate_point(replace(req, T=np.float32(1.0))),
        ]
        rows = list(csv.DictReader(io.StringIO(records_to_csv(records))))
        objs = [json.loads(line) for line in records_to_jsonl(records).splitlines()]
        for rec, row, obj in zip(records, rows, objs):
            assert rec.status is PointStatus.OK
            assert row["small_cavity_ok"] in ("true", "false")
            assert obj["small_cavity_ok"] is (row["small_cavity_ok"] == "true")
            for column in ("L", "T", "Lp", "Tp", "F_ren", "S_ren", "U_ren"):
                assert row[column] == f"{float(getattr(rec, column)):.17g}"
                assert obj[column] == float(row[column])
        assert rows[1]["T"] == "1"
        assert_formats_agree(records)

    def test_int_beyond_the_float_range_is_missing(self):
        rec = evaluate_point(replace(kerr_request(), T=10**400))
        assert rec.status is PointStatus.INVALID_INPUT
        assert next(csv.DictReader(io.StringIO(records_to_csv([rec]))))["T"] == ""
        assert json.loads(records_to_jsonl([rec]))["T"] is None
        assert_formats_agree([rec])


class TestSeriesFlagsRemoved:
    @pytest.mark.parametrize("command, flag", [
        *[(command, flag) for command in (["point"], ["sweep", "--axis", "T", "--start", "0.5",
                                                       "--stop", "1.5", "--count", "3"])
          for flag in ("--rel-tol", "--m-max")],
        (["validate"], "--rel-tol"),
        (["sweep", "--axis", "T", "--start", "0.5", "--stop", "1.5", "--count", "3"],
         "--parallelism"),
    ])
    def test_flag_is_rejected(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(command + [flag, "10"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [
        *[("point", key) for key in ("rel_tol", "m_max", "rel-tol")],
        ("validate", "rel_tol"),
        ("sweep", "parallelism"),
    ])
    def test_config_key_is_unknown(self, tmp_path, capsys, command, key):
        config = tmp_path / f"{command}.cfg"
        config.write_text(f"{key}=10\n")
        assert main([command, "--config", str(config)]) == 2
        assert "unknown config key" in capsys.readouterr().err
