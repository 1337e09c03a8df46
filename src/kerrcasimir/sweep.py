"""Single-point evaluation, deterministic parameter sweeps and serialization.

Every grid point is evaluated by a pure function in one process, in grid
order, so the emitted bytes depend only on the sweep specification.  A
point costs at most 6 series terms at any temperature, and the GIL
serializes the pure-Python kernel, so sweeps run without a thread pool.
Along T only the proper temperature moves, so a T sweep computes the
frame, E0_ren and the validity diagnostics once, from the point at T = 0,
and then one series pass per grid value; its records are evaluate_point's
bit for bit.  The r, Omega, L and a axes evaluate every point in full.
A record is an ``OutputRecord`` named tuple whose fields are the CSV
columns in order.  Failed points (forbidden orbit, inside horizon, naked
singularity, non-finite or out-of-domain input) keep their inputs and
status and carry None in every result field; no exception escapes.  The
series has no term cap, so no point fails for truncation.
Both serializers write each column's declared type as a plain value (a
float, None for a missing or non-finite number, int, bool or the status
string), so NaN/Inf never appear and int or numpy inputs become floats.
Each writer builds one row template per record list, column by column: a
number column of exact finite ``float`` (or ``int``) cells, as
``evaluate_point`` builds them, enters as its %-conversion; any other
number column is spelled cell by cell, and the flag and status once per
value.  A column that holds the same value, bit for bit, in every row is
written into the template once, and each row is one %-format call.  A list
with failed points spells its result columns cell by cell (see README).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Optional, get_type_hints

from .errors import DomainError, ForbiddenOrbitError, InsideHorizonError, _checked_count, _is_real
from .geometry import (
    CavityGeometry,
    EquatorialOrbit,
    KerrParams,
    _checked_temperature,
    _proper_temperature,
    proper_frame,
)
from .modes import cavity_validity
from .thermal import _report, casimir_report

__all__ = [
    "PointStatus",
    "PointRequest",
    "SweepAxis",
    "SweepSpec",
    "OutputRecord",
    "evaluate_point",
    "run_sweep",
    "records_to_csv",
    "records_to_jsonl",
    "CSV_COLUMNS",
]


# Relative Legendre residual |U - (F + Tp*S)| / max(|U|, |F|) every ok record
# meets; in the float range the closed forms stay below 1e-12.
_IDENTITY_TOL = 1e-9

# What a formula raises for an input outside its domain or the float range.
_INVALID = (DomainError, OverflowError, ZeroDivisionError)


class PointStatus(str, Enum):
    OK = "ok"
    FORBIDDEN_ORBIT = "forbidden_orbit"
    INSIDE_HORIZON = "inside_horizon"
    INVALID_INPUT = "invalid_input"


@dataclass(frozen=True)
class PointRequest:
    """One full configuration: source, orbit, cavity, coordinate temperature."""

    params: KerrParams
    orbit: EquatorialOrbit
    cavity: CavityGeometry
    T: float = 0.0


class SweepAxis(str, Enum):
    R = "r"
    OMEGA = "Omega"
    T = "T"
    L = "L"
    A = "a"


@dataclass(frozen=True)
class SweepSpec:
    """Grid over one axis of a base request.

    axis is one of r, Omega, T, L, a; count >= 2 points between start and
    stop inclusive, spaced linearly or logarithmically.
    """

    axis: SweepAxis
    start: float
    stop: float
    count: int
    base: PointRequest
    scale: str = "linear"

    def __post_init__(self):
        try:
            object.__setattr__(self, "axis", SweepAxis(self.axis))
        except ValueError:
            raise DomainError(f"sweep axis must be one of {[a.value for a in SweepAxis]}, "
                              f"got {self.axis!r}") from None
        object.__setattr__(self, "count", _checked_count("sweep count", self.count, 2))
        try:
            ordered = (_is_real(self.start) and _is_real(self.stop) and math.isfinite(self.start)
                       and math.isfinite(self.stop) and self.start < self.stop)
        except OverflowError:  # an int beyond the float range
            ordered = False
        if not ordered:
            raise DomainError(f"sweep needs real, finite start < stop, "
                              f"got [{self.start!r}, {self.stop!r}]")
        if self.scale not in ("linear", "log"):
            raise DomainError(f"scale must be 'linear' or 'log', got {self.scale!r}")
        if self.scale == "log" and self.start <= 0.0:
            raise DomainError("log scale requires start > 0")

    def grid(self) -> list[float]:
        """Axis values as Python floats, with start and stop exactly at the ends.

        The linear grid is ``np.linspace``'s formula, bit for bit.  The log
        grid is start**(1 - t) * stop**t with t = i/(count - 1): within a few
        ulps of the exact geometric grid (``np.geomspace`` agrees to 1e-13),
        and it cannot overflow the way start * (stop/start)**t does when
        stop/start exceeds the float range.
        """
        n = self.count - 1
        if self.scale == "log":
            inner = [self.start ** (1.0 - i / n) * self.stop ** (i / n) for i in range(1, n)]
        else:
            step = (self.stop - self.start) / n
            inner = [self.start + i * step for i in range(1, n)]
        return [float(self.start), *inner, float(self.stop)]

    def request_at(self, value: float) -> PointRequest:
        """Base request with the axis value substituted; may raise DomainError
        (or one of its subclasses) if the value leaves the valid domain."""
        b = self.base
        if self.axis is SweepAxis.R:
            return PointRequest(b.params, EquatorialOrbit(value, b.orbit.Omega), b.cavity, b.T)
        if self.axis is SweepAxis.OMEGA:
            return PointRequest(b.params, EquatorialOrbit(b.orbit.r, value), b.cavity, b.T)
        if self.axis is SweepAxis.T:
            return PointRequest(b.params, b.orbit, b.cavity, value)
        if self.axis is SweepAxis.L:
            return PointRequest(b.params, b.orbit, CavityGeometry(value, b.cavity.S0), b.T)
        params = KerrParams(b.params.M, value, b.params.black_hole_mode)
        return PointRequest(params, b.orbit, b.cavity, b.T)

    def evaluate_at(self, value: float) -> OutputRecord:
        """Evaluate one grid value; domain violations at construction time
        (a sweep can leave the black-hole window, for example) become
        invalid_input records rather than exceptions."""
        try:
            req = self.request_at(value)
        except DomainError:
            failed = _failed(_inputs(self.base), PointStatus.INVALID_INPUT)
            return failed._replace(**{self.axis.value: value})
        return evaluate_point(req)


class OutputRecord(NamedTuple):
    """One grid point: inputs, proper frame, thermal report, diagnostics, status.

    The fields are the CSV columns in order (see CSV_COLUMNS): the inputs,
    then the ProperFrame fields other than v2, a CasimirReport and a
    ValidityDiagnostics, each in its own field order.  Result fields are
    None for points whose status is not 'ok'; identity_residual is the
    relative residual of U - (F + Tp*S), recorded as an always-on internal
    consistency diagnostic.
    """

    M: float
    a: float
    r: float
    Omega: float
    L: float
    S0: float
    T: float
    C: Optional[float]
    Lp: Optional[float]
    Sp: Optional[float]
    Vp: Optional[float]
    Tp: Optional[float]
    E0_ren: Optional[float]
    DeltaTF_ren: Optional[float]
    F_ren: Optional[float]
    S_ren: Optional[float]
    U_ren: Optional[float]
    f_bb: Optional[float]
    beta_hat: Optional[float]
    terms_used: Optional[int]
    alpha: Optional[float]
    L_over_r: Optional[float]
    ML_over_r2: Optional[float]
    small_cavity_ok: Optional[bool]
    identity_residual: Optional[float]
    status: PointStatus


CSV_COLUMNS = OutputRecord._fields

# Every field between the seven inputs and the status.
_NO_RESULTS = (None,) * (len(CSV_COLUMNS) - 8)


def _inputs(req: PointRequest) -> tuple:
    """The input fields of a record, in order."""
    return (req.params.M, req.params.a, req.orbit.r, req.orbit.Omega,
            req.cavity.L, req.cavity.S0, req.T)


def _failed(inputs: tuple, status: PointStatus) -> OutputRecord:
    """A record of the given inputs and status with every result field None."""
    return OutputRecord(*inputs, *_NO_RESULTS, status)


def evaluate_point(req: PointRequest) -> OutputRecord:
    """Evaluate one configuration; never raises, failures become statuses.

    An orbit outside its band is forbidden_orbit, a radius at or inside the
    horizon inside_horizon and any other domain error invalid_input; the
    series has no term cap, so no point fails for truncation.  Finite
    inputs whose results leave the float range (a power such as Tp**4
    overflowing, Lp**4 underflowing to zero, an infinite F, S or U, or
    subnormal intermediates that break U = F + Tp*S beyond _IDENTITY_TOL)
    are invalid_input too, so an ok record always carries finite numbers
    that satisfy the Legendre identity.
    """
    base = _inputs(req)
    try:
        frame = proper_frame(req.params, req.orbit, req.cavity, req.T)
        report = casimir_report(frame, req.params, req.orbit)
        validity = cavity_validity(req.params, req.orbit, req.cavity)
    except ForbiddenOrbitError:
        return _failed(base, PointStatus.FORBIDDEN_ORBIT)
    except InsideHorizonError:
        return _failed(base, PointStatus.INSIDE_HORIZON)
    except _INVALID:
        return _failed(base, PointStatus.INVALID_INPUT)
    return _checked(base, (frame.C, frame.Lp, frame.Sp, frame.Vp), frame.Tp, report, validity)


def _checked(inputs: tuple, cells: tuple, Tp: float, report, validity) -> OutputRecord:
    """The ok record of a point whose frame cells (C, Lp, Sp, Vp), proper
    temperature Tp, report and validity diagnostics were computed, or
    invalid_input when F, S or U is not finite or they break
    U = F + Tp*S by more than _IDENTITY_TOL (relative to max(|U|, |F|))."""
    F, S, U = report.F_ren, report.S_ren, report.U_ren
    if not (math.isfinite(F) and math.isfinite(S) and math.isfinite(U)):
        return _failed(inputs, PointStatus.INVALID_INPUT)
    try:
        residual = abs(U - (F + Tp * S)) / max(abs(U), abs(F)) if Tp > 0.0 else 0.0
    except ZeroDivisionError:  # U = F = 0 at Tp > 0
        return _failed(inputs, PointStatus.INVALID_INPUT)
    if not residual <= _IDENTITY_TOL:
        return _failed(inputs, PointStatus.INVALID_INPUT)
    return OutputRecord._make((*inputs, *cells, Tp, *report, *validity, residual, PointStatus.OK))


def _temperature_sweep(base: PointRequest, grid: list) -> list[OutputRecord]:
    """evaluate_point's records over a grid of temperatures, with what T
    does not move computed once.

    Only Tp = T*C depends on T: the frame's C, Lp, Sp and Vp, E0_ren and
    the validity diagnostics do not.  At T = 0 no series runs, so the
    record at T = 0 holds exactly those parts.  When it is not ok, every
    grid value takes the point path.  Else each grid value costs
    proper_frame's T check and Tp, one _report and _checked:
    evaluate_point's arithmetic on the same floats, so the records are
    equal bit for bit.
    """
    zero = evaluate_point(PointRequest(base.params, base.orbit, base.cavity, 0.0))
    if zero.status is not PointStatus.OK:
        return [evaluate_point(PointRequest(base.params, base.orbit, base.cavity, T)) for T in grid]
    six = zero[:6]
    C, Lp, Sp, E0 = zero.C, zero.Lp, zero.Sp, zero.E0_ren
    cells = (C, Lp, Sp, zero.Vp)
    validity = (zero.alpha, zero.L_over_r, zero.ML_over_r2, zero.small_cavity_ok)
    records = []
    for T in grid:
        inputs = (*six, T)
        try:
            _checked_temperature(T)
            Tp = _proper_temperature(T, C)
            report = _report(Lp, Sp, Tp, E0)
        except _INVALID:
            records.append(_failed(inputs, PointStatus.INVALID_INPUT))
            continue
        records.append(_checked(inputs, cells, Tp, report, validity))
    return records


def run_sweep(spec: SweepSpec, parallelism: int = 1) -> list[OutputRecord]:
    """Evaluate the grid in order, returning records ordered by axis value.

    Every record is evaluate_point's for its grid value.  A T sweep
    computes the frame, E0_ren and the validity diagnostics once, from the
    point at T = 0, and then one series pass per grid value; the r, Omega,
    L and a axes evaluate each point in full.  Points are evaluated one
    after another in the calling thread, so the records are the same for
    every ``parallelism``.  The parameter starts no worker and must be an
    integer >= 1 (DomainError otherwise); it stays in second place under
    its name because callers pass it both ways, as ``run_sweep(spec, 2)``
    and ``run_sweep(spec, parallelism=8)``.
    """
    _checked_count("parallelism", parallelism)
    if spec.axis is SweepAxis.T:
        return _temperature_sweep(spec.base, spec.grid())
    return [spec.evaluate_at(v) for v in spec.grid()]


def _finite(value) -> Optional[float]:
    """The number as a float, or None when it is not a finite real number
    (a string, a Decimal or a complex number left in an input cell)."""
    if not _is_real(value):
        return None
    try:
        value = float(value)
    except OverflowError:  # an int beyond the float range
        return None
    return value if math.isfinite(value) else None


# Per declared column type: the exact type evaluate_point gives the cell,
# the plain value of a present cell, and its CSV spelling.  A missing cell
# (None) is None in every column, so a non-finite number joins it and
# neither format ever carries NaN/Inf.
_COLUMN_TYPES = {
    float: (float, _finite, "{:.17g}".format),
    Optional[float]: (float, _finite, "{:.17g}".format),
    Optional[int]: (int, int, str),
    Optional[bool]: (bool, bool, ("false", "true").__getitem__),
    PointStatus: (PointStatus, operator.attrgetter("value"), str),
}
_EXACT, _PLAIN, _SPELL = zip(*(_COLUMN_TYPES[t] for t in get_type_hints(OutputRecord).values()))
_JSON = json.JSONEncoder(separators=(",", ":"))
_JSON_KEYS = [_JSON.encode(name) + ":" for name in CSV_COLUMNS]


def _same_bits(column: tuple) -> bool:
    """Every value of the column is its first, bit for bit (0.0 == -0.0, so
    a zero also compares spellings)."""
    first = column[0]
    return (column[-1] == first and column.count(first) == len(column)
            and (first != 0 or len(set(map(repr, column))) == 1))


def _plain_cell(i: int, value):
    """The cell of column i as None, float, int, bool or str, by column type."""
    return None if value is None else _PLAIN[i](value)


def _rows(records: Iterable[OutputRecord], conversions: dict, cell, join) -> list:
    """Every record's row from one template per list.  A number column of
    exact, finite cells enters as its ``conversions`` entry; any other is
    spelled cell by cell (exact finite cells by the conversion, the rest by
    ``cell``) and enters as "%s", as do the flag and the status, spelled by
    ``cell`` once per value.  An overflowing float sum only sends its column
    cell by cell.  A column of one value is written into the template."""
    columns = list(zip(*records))
    if not columns:
        return []
    texts, varying = [], []
    for i, (exact, column) in enumerate(zip(_EXACT, columns)):
        conversion = conversions.get(exact)
        if conversion is None:
            spelled = {value: cell(i, value) for value in set(column)}
            column, conversion = list(map(spelled.__getitem__, column)), "%s"
        elif not (list(map(type, column)).count(exact) == len(column)
                  and (exact is not float or math.isfinite(sum(column)))):
            column = [conversion % value
                      if type(value) is exact and (exact is not float or math.isfinite(value))
                      else cell(i, value) for value in column]
            conversion = "%s"
        if _same_bits(column):
            texts.append((conversion % column[0]).replace("%", "%%"))
        else:
            texts.append(conversion)
            varying.append(column)
    template = join(texts)
    return [template % cells for cells in (zip(*varying) if varying else [()] * len(columns[0]))]


# "%.17g" % x is "{:.17g}".format(x), %r of a float is the float.__repr__
# that json writes, and %d of an int is str(), so a %-conversion writes the
# bytes of the cell's plain value spelled on its own.
def records_to_csv(records: Iterable[OutputRecord]) -> str:
    """Fixed-column CSV with header; byte-stable for identical inputs."""
    rows = _rows(records, {float: "%.17g", int: "%d"},
                 lambda i, value: "" if (plain := _plain_cell(i, value)) is None
                 else _SPELL[i](plain), ",".join)
    return "\n".join([",".join(CSV_COLUMNS), *rows]) + "\n"


def records_to_jsonl(records: Iterable[OutputRecord]) -> str:
    """One JSON object per line, holding the same plain values as the CSV."""
    rows = _rows(records, {float: "%r", int: "%d"},
                 lambda i, value: _JSON.encode(_plain_cell(i, value)),
                 lambda texts: "{" + ",".join(map(str.__add__, _JSON_KEYS, texts)) + "}")
    return "".join(row + "\n" for row in rows)
