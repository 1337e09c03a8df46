"""Golden outputs: the CLI runs whose bytes tests/test_golden.py pins.

Each case is one ``kerrcasimir`` command run in-process.  Its stdout is the
file ``<case>.csv`` or ``<case>.jsonl``; the exit code and stderr of every
case are lines of ``exits.txt``.  Rewrite the files from the repository
root with

    PYTHONPATH=src python tests/golden/regen.py

and only together with a CHANGES.md note that gives the cells changed and
why: the files assume this host's libm, and a test that regenerates them
to turn green checks nothing.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from kerrcasimir.cli import main

HERE = Path(__file__).resolve().parent

# Base configuration of every sweep: M=1, a=0.5, r=10, ZAMO, L=0.01,
# S0=1e-4, T=1 (beta_hat ~ 45); each sweep moves one axis over 9 points.
_BASE = ("--spin", "0.5", "--temperature", "1")
_SWEEPS = {
    "sweep_r": ("--axis", "r", "--start", "0.5", "--stop", "30"),
    "sweep_omega": ("--axis", "Omega", "--start", "-0.15", "--stop", "0.15"),
    "sweep_T_linear": ("--axis", "T", "--start", "0", "--stop", "1e3"),
    "sweep_T_log": ("--axis", "T", "--start", "1e-3", "--stop", "1e5", "--scale", "log"),
    "sweep_L_log": ("--axis", "L", "--start", "1e-4", "--stop", "10", "--scale", "log"),
    "sweep_a_black_hole": ("--axis", "a", "--start", "-1.5", "--stop", "1.5"),
    "sweep_a_overspun": ("--axis", "a", "--start", "-1.5", "--stop", "1.5", "--allow-naked"),
    "sweep_r_overspun": ("--axis", "r", "--start", "0.1", "--stop", "5", "--allow-naked",
                         "--spin", "1.2"),
}
_POINTS = {
    "point_zamo.csv": ("point",) + _BASE,
    "point_frac09.jsonl": ("point",) + _BASE + ("--omega", "frac=0.9", "--format", "jsonl"),
    "point_inside_horizon.csv": ("point",) + _BASE + ("--radius", "1.5", "--omega", "0"),
    "point_outside_band.csv": ("point",) + _BASE + ("--omega", "0.5"),
}

# Output file name -> argv of the run that writes it to stdout.
CASES = {
    **{f"{name}.{fmt}": ("sweep",) + _BASE + args + ("--count", "9", "--format", fmt)
       for name, args in _SWEEPS.items() for fmt in ("csv", "jsonl")},
    **_POINTS,
}
EXITS = "exits.txt"


def run(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def outputs() -> dict[str, bytes]:
    """Every golden file name and the bytes the current code writes for it."""
    files, exits = {}, []
    for name, argv in CASES.items():
        code, out, err = run(argv)
        files[name] = out.encode("utf-8")
        exits.append(f"{name} exit={code} stderr={json.dumps(err)}\n")
    files[EXITS] = "".join(exits).encode("utf-8")
    return files


if __name__ == "__main__":
    for name, data in outputs().items():
        (HERE / name).write_bytes(data)
        print(f"wrote {name} ({len(data)} bytes)")
