"""Golden outputs: every checked-in CLI output is regenerated and compared byte for byte.

The cases and the writer live in tests/golden/regen.py.  A mismatch names
the file, the differing cells per column and the largest ulp distance, so
a last-bit drift (another libm, reordered arithmetic) reads apart from a
changed formula.
"""

import csv
import importlib.util
import io
import json
import struct
from collections import Counter
from pathlib import Path

import pytest

from kerrcasimir import PointStatus

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

NAMES = sorted(regen.CASES) + [regen.EXITS]


@pytest.fixture(scope="module")
def current():
    return regen.outputs()


def rows(name: str, data: bytes) -> list[dict]:
    text = data.decode("utf-8")
    if name.endswith(".csv"):
        return list(csv.DictReader(io.StringIO(text)))
    return [json.loads(line) for line in text.splitlines()]


def as_float(cell):
    if isinstance(cell, bool):
        return None
    try:
        return float(cell)
    except (TypeError, ValueError):  # None, an empty cell, true/false, a status
        return None


def ordered(x: float) -> int:
    """The double's position on the integer line of all doubles (-0.0 and 0.0 coincide)."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)


def describe(name: str, expected: bytes, got: bytes) -> str:
    """Where the regenerated file differs from the golden one."""
    if name == regen.EXITS:
        old, new = expected.decode().splitlines(), got.decode().splitlines()
        changed = [f"  - {a}\n  + {b}" for a, b in zip(old, new) if a != b]
        return f"{name} differs ({len(old)} -> {len(new)} lines):\n" + "\n".join(changed)
    old, new = rows(name, expected), rows(name, got)
    if len(old) != len(new) or (old and list(old[0]) != list(new[0])):
        return f"{name}: the rows or columns changed ({len(old)} -> {len(new)} rows)"
    cells, ulps = Counter(), Counter()
    for a, b in zip(old, new):
        for column in a:
            if a[column] != b[column]:
                cells[column] += 1
                x, y = as_float(a[column]), as_float(b[column])
                if x is not None and y is not None:
                    ulps[column] = max(ulps[column], abs(ordered(x) - ordered(y)))
    per_column = ", ".join(f"{c}: {n} cells, {ulps[c]} ulp" for c, n in cells.items())
    return (
        f"{name}: differing cells per column (largest ulp distance) {per_column}. "
        "A few ulps in F, S or U is a last-bit drift (another libm, or reordered "
        "arithmetic; identity_residual is itself a rounding measure and moves by many); "
        "more is a changed formula; 0 ulp is the same double spelled differently. Regenerate with tests/golden/regen.py "
        "only together with a CHANGES.md output-change note."
    )


def test_the_checked_in_files_are_the_golden_set():
    on_disk = {path.name for path in GOLDEN.iterdir() if path.suffix in (".csv", ".jsonl", ".txt")}
    assert on_disk == set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_output_is_byte_identical(current, name):
    expected = (GOLDEN / name).read_bytes()
    if current[name] != expected:
        pytest.fail(describe(name, expected, current[name]), pytrace=False)


def test_the_set_reaches_every_status():
    seen = {row["status"] for name in regen.CASES for row in rows(name, (GOLDEN / name).read_bytes())}
    assert seen == {s.value for s in PointStatus}
