"""Single-point evaluation, deterministic parameter sweeps and serialization.

Every grid point is evaluated by a pure function in one process, in grid
order, so the emitted bytes depend only on the sweep specification.  A
point costs at most 111 series terms at any temperature, and the GIL
serializes the pure-Python kernel, so sweeps run without a thread pool.
A record is an ``OutputRecord`` named tuple whose fields are the CSV
columns in order.  Failed points (forbidden orbit, inside horizon, naked
singularity, non-finite or out-of-domain input, series truncation) keep
their inputs and status and carry None in every result field; no
exception escapes.  The default kernel never truncates, so no point is
truncation_error today; the status is kept for a computed truncation bound.
Both serializers write each column's declared type as a plain value (a
float, None for a missing or non-finite number, int, bool or the status
string), so NaN/Inf never appear and int or numpy inputs become floats.
A complete row (status ok, every float cell an exact finite ``float``,
``terms_used`` an ``int`` and ``small_cavity_ok`` a ``bool``, as
``evaluate_point`` builds it) is spelled by one %-format call over a row
template built at import from the declared column types.  Every other row
(a None cell, a non-finite, numpy or int-typed value, a failed status)
takes the per-cell path; both paths write the same bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter, itemgetter
from typing import Iterable, NamedTuple, Optional, get_type_hints

from .errors import DomainError, ForbiddenOrbitError, InsideHorizonError, TruncationError
from .geometry import (
    CavityGeometry,
    EquatorialOrbit,
    KerrParams,
    proper_frame,
)
from .modes import cavity_validity
from .thermal import casimir_report

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


class PointStatus(str, Enum):
    OK = "ok"
    FORBIDDEN_ORBIT = "forbidden_orbit"
    INSIDE_HORIZON = "inside_horizon"
    TRUNCATION_ERROR = "truncation_error"
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
        if self.count < 2:
            raise DomainError(f"sweep count must be >= 2, got {self.count}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop) and self.start < self.stop):
            raise DomainError(f"sweep needs finite start < stop, got [{self.start}, {self.stop}]")
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
    then the ProperFrame fields, a CasimirReport and a ValidityDiagnostics,
    each in its own field order.  Result fields are None for points whose
    status is not 'ok'; identity_residual is the relative residual of
    U - (F + Tp*S), recorded as an always-on internal consistency diagnostic.
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
    truncation_estimate: Optional[float]
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

    Finite inputs whose results leave the float range (a power such as
    Tp**4 overflowing, Lp**4 underflowing to zero, an infinite F, S or U,
    or subnormal intermediates that break U = F + Tp*S beyond _IDENTITY_TOL)
    are invalid_input, so an ok record always carries finite numbers that
    satisfy the Legendre identity.
    """
    base = _inputs(req)
    try:
        frame = proper_frame(req.params, req.orbit, req.cavity, req.T)
        report = casimir_report(frame, req.params, req.orbit)
        validity = cavity_validity(req.params, req.orbit, req.cavity)
        if frame.Tp > 0.0:
            identity_residual = abs(
                report.U_ren - (report.F_ren + frame.Tp * report.S_ren)
            ) / max(abs(report.U_ren), abs(report.F_ren))
        else:
            identity_residual = 0.0
    except ForbiddenOrbitError:
        return _failed(base, PointStatus.FORBIDDEN_ORBIT)
    except InsideHorizonError:
        return _failed(base, PointStatus.INSIDE_HORIZON)
    except TruncationError:
        return _failed(base, PointStatus.TRUNCATION_ERROR)
    except (DomainError, OverflowError, ZeroDivisionError):
        return _failed(base, PointStatus.INVALID_INPUT)
    finite = all(map(math.isfinite, (report.F_ren, report.S_ren, report.U_ren)))
    if not (finite and identity_residual <= _IDENTITY_TOL):
        return _failed(base, PointStatus.INVALID_INPUT)

    return OutputRecord(*base, frame.C, frame.Lp, frame.Sp, frame.Vp, frame.Tp,
                        *report, *validity, identity_residual, PointStatus.OK)


def run_sweep(spec: SweepSpec, parallelism: int = 1) -> list[OutputRecord]:
    """Evaluate the grid in order, returning records ordered by axis value.

    Points are evaluated one after another in the calling thread.
    ``parallelism`` is validated (>= 1) and kept for API compatibility, but
    no worker pool is started: threads gained nothing over the GIL-bound
    kernel, so the output is the same bytes for every value.
    """
    if parallelism < 1:
        raise DomainError(f"parallelism must be >= 1, got {parallelism}")
    return [spec.evaluate_at(v) for v in spec.grid()]


def _finite(value) -> Optional[float]:
    """The number as a float, or None when it is not a finite float."""
    try:
        value = float(value)
    except OverflowError:  # an int beyond the float range
        return None
    return value if math.isfinite(value) else None


# Per declared column type: the exact type the cell has in a complete row,
# the plain value of a present cell, and its CSV spelling.  A missing cell
# (None) is None in every column, so a non-finite number joins it and
# neither format ever carries NaN/Inf.
_COLUMN_TYPES = {
    float: (float, _finite, "{:.17g}".format),
    Optional[float]: (float, _finite, "{:.17g}".format),
    Optional[int]: (int, int, str),
    Optional[bool]: (bool, bool, ("false", "true").__getitem__),
    PointStatus: (PointStatus, attrgetter("value"), str),
}
_EXACT, _PLAIN, _SPELL = zip(*(_COLUMN_TYPES[t] for t in get_type_hints(OutputRecord).values()))
_JSON = json.JSONEncoder(separators=(",", ":"))

# A complete row (see _complete) is spelled by one %-format call over its
# float and int cells.  "%.17g" % x is "{:.17g}".format(x), %r of a float is
# the float.__repr__ that json writes, and %d of an int is str(), so the
# template writes the bytes of the per-cell path.
_CONVERSIONS = {float: ("%.17g", "%r"), int: ("%d", "%d")}
_FLOATS = itemgetter(*(i for i, exact in enumerate(_EXACT) if exact is float))
_NUMBERS = itemgetter(*(i for i, exact in enumerate(_EXACT) if exact in _CONVERSIONS))


def _row_templates(flag: bool) -> tuple[str, str]:
    """CSV and JSONL templates of a complete row whose small_cavity_ok is
    ``flag``: a conversion per number cell, and fixed text for the flag and
    the ok status."""
    fixed = {bool: flag, PointStatus: PointStatus.OK}
    csv_cells, json_cells = [], []
    for name, exact, plain, spell in zip(CSV_COLUMNS, _EXACT, _PLAIN, _SPELL):
        if exact in _CONVERSIONS:
            csv_cell, json_cell = _CONVERSIONS[exact]
        else:
            value = plain(fixed[exact])
            csv_cell, json_cell = spell(value), _JSON.encode(value)
        csv_cells.append(csv_cell)
        json_cells.append(_JSON.encode(name) + ":" + json_cell)
    return ",".join(csv_cells), "{" + ",".join(json_cells) + "}"


# Indexed by small_cavity_ok.
_CSV_ROW, _JSONL_ROW = zip(_row_templates(False), _row_templates(True))


def _complete(rec: OutputRecord) -> bool:
    """An ok record whose cells have their exact column types (no None, no
    numpy scalar, no int in a float column) and whose floats are finite."""
    return (rec[-1] is PointStatus.OK and tuple(map(type, rec)) == _EXACT
            and math.isfinite(sum(_FLOATS(rec))))


def _plain(rec: OutputRecord) -> list:
    """The record's cells as None, float, int, bool or str, by column type."""
    return [None if value is None else plain(value) for plain, value in zip(_PLAIN, rec)]


def records_to_csv(records: Iterable[OutputRecord]) -> str:
    """Fixed-column CSV with header; byte-stable for identical inputs."""
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        if _complete(rec):
            lines.append(_CSV_ROW[rec.small_cavity_ok] % _NUMBERS(rec))
        else:
            lines.append(",".join(["" if v is None else spell(v)
                                   for spell, v in zip(_SPELL, _plain(rec))]))
    return "\n".join(lines) + "\n"


def records_to_jsonl(records: Iterable[OutputRecord]) -> str:
    """One JSON object per line, holding the same plain values as the CSV."""
    lines = [_JSONL_ROW[rec.small_cavity_ok] % _NUMBERS(rec) if _complete(rec)
             else _JSON.encode(dict(zip(CSV_COLUMNS, _plain(rec)))) for rec in records]
    return "".join(line + "\n" for line in lines)
