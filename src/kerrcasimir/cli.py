"""Command-line front end: point evaluation, sweeps and oracle validation.

Exit codes: 0 success, 1 validation failure, 2 invalid input.  ``point``
exits 2 when its record is not ``ok``, and ``sweep`` when none of its
records is; the records are written either way.  An output file that
cannot be written (``--output`` in a missing directory, say) also exits 2,
with a one-line reason on stderr.  A config file of plain
``key=value`` lines may set defaults for any flag of the subcommand it is
given to, required ones included (keys are the long flag names, with
``-`` or ``_`` interchangeable, typed and checked as the flags are);
explicit flags always win.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .errors import DomainError, ForbiddenOrbitError, InsideHorizonError, NakedSingularityError
from .geometry import (
    CavityGeometry,
    EquatorialOrbit,
    KerrParams,
    dragging_angular_velocity,
    orbit_from_band_fraction,
)
from .oracles import OracleConfig, validation_checks
from .sweep import (
    PointRequest,
    PointStatus,
    SweepAxis,
    SweepSpec,
    evaluate_point,
    records_to_csv,
    records_to_jsonl,
    run_sweep,
)
from .thermal import SeriesControl


def _add_point_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mass", type=float, default=1.0, help="source mass M (geometric units)")
    parser.add_argument("--spin", type=float, default=0.0, help="specific angular momentum a")
    parser.add_argument("--radius", type=float, default=10.0, help="orbit radius r (Boyer-Lindquist)")
    parser.add_argument(
        "--omega", default="zamo",
        help="orbit angular velocity: a number, 'zamo' (= dragging value), "
             "or 'frac=<f>' for omega_d + f * (allowed half-width), f in (-1, 1)",
    )
    parser.add_argument("--length", type=float, default=0.01, help="coordinate plate separation L")
    parser.add_argument("--area", type=float, default=1e-4, help="coordinate plate area S0")
    parser.add_argument("--temperature", type=float, default=0.0, help="coordinate temperature T")
    parser.add_argument("--rel-tol", type=float, default=1e-12, help="series relative tolerance")
    parser.add_argument("--m-max", type=int, default=10**6, help="series term cap")
    parser.add_argument("--allow-naked", action="store_true",
                        help="admit |a| > M (over-spun source)")
    parser.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    parser.add_argument("--output", default=None, help="output path (default stdout)")
    parser.add_argument("--config", default=None, help="key=value file with flag defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerrcasimir",
        description="Thermal Casimir quantities for a cavity on an equatorial Kerr orbit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="evaluate a single configuration")
    _add_point_flags(p_point)

    p_sweep = sub.add_parser("sweep", help="evaluate a grid along one axis")
    _add_point_flags(p_sweep)
    p_sweep.add_argument("--axis", choices=[a.value for a in SweepAxis], required=True)
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--count", type=int, default=11)
    p_sweep.add_argument("--scale", choices=("linear", "log"), default="linear")
    p_sweep.add_argument("--parallelism", type=int, default=1,
                         help="accepted for compatibility (>= 1); points run in grid order")

    p_val = sub.add_parser("validate", help="run the brute-force oracle suite")
    p_val.add_argument("--n-max", type=int, default=10**5)
    p_val.add_argument("--m-max", type=int, default=10**5)
    p_val.add_argument("--quad-points", type=int, default=200)
    p_val.add_argument("--fd-step", type=float, default=1e-5)
    p_val.add_argument("--rel-tol", type=float, default=1e-12)
    p_val.add_argument("--output", default=None, help="write the JSON report here")
    p_val.add_argument("--config", default=None, help="key=value file with flag defaults")

    # Config-file defaults must land on the subparser owning the flags,
    # because subparser defaults overwrite parent-level ones.
    parser.subcommand_parsers = {"point": p_point, "sweep": p_sweep, "validate": p_val}
    return parser


def _load_config(path: str, sub: argparse.ArgumentParser) -> dict:
    """Typed flag defaults from a key=value file, for the flags of ``sub``.

    The allowed keys, their types and their choices come from the
    subparser's own options, so every flag of a subcommand is a valid key.
    """
    actions = {
        action.dest: action for action in sub._actions
        if action.option_strings and action.dest not in ("help", "config")
    }
    defaults = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            action = actions.get(key)
            if action is None:
                raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
            value = value.strip()
            if action.nargs == 0:  # on/off flag such as --allow-naked
                typed = value.lower() in ("1", "true", "yes")
            else:
                typed = (action.type or str)(value)
            if action.choices is not None and typed not in action.choices:
                raise DomainError(f"{path}:{lineno}: {key} must be one of {list(action.choices)}")
            defaults[key] = typed
    return defaults


def _apply_config(parser: argparse.ArgumentParser, argv: Sequence[str]) -> argparse.Namespace:
    """Find --config, fold its values in as subcommand defaults, then parse once.

    argparse's required check ignores defaults, so every flag the file sets
    stops being required; the command-line flags still win.
    """
    sub = parser.subcommand_parsers.get(argv[0]) if argv else None
    if sub is not None:
        finder = argparse.ArgumentParser(add_help=False)
        finder.add_argument("--config")
        config_path = finder.parse_known_args(argv[1:])[0].config
        if config_path:
            defaults = _load_config(config_path, sub)
            for action in sub._actions:
                if action.dest in defaults:
                    action.required = False
            sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def _resolve_omega(spec: str | float, params: KerrParams, r: float) -> EquatorialOrbit:
    if isinstance(spec, float):
        return EquatorialOrbit(r=r, Omega=spec)
    text = spec.strip().lower()
    if text == "zamo":
        return EquatorialOrbit(r=r, Omega=dragging_angular_velocity(params, r))
    if text.startswith("frac="):
        return orbit_from_band_fraction(params, r, float(text[5:]))
    return EquatorialOrbit(r=r, Omega=float(text))


def _build_request(args: argparse.Namespace) -> PointRequest:
    params = KerrParams(M=args.mass, a=args.spin, black_hole_mode=not args.allow_naked)
    orbit = _resolve_omega(args.omega, params, args.radius)
    cavity = CavityGeometry(L=args.length, S0=args.area)
    control = SeriesControl(rel_tol=args.rel_tol, m_max=args.m_max)
    return PointRequest(params=params, orbit=orbit, cavity=cavity, T=args.temperature, control=control)


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_point(args: argparse.Namespace) -> int:
    record = evaluate_point(_build_request(args))
    text = records_to_csv([record]) if args.format == "csv" else records_to_jsonl([record])
    _emit(text, args.output)
    if record.status is not PointStatus.OK:
        print(f"kerrcasimir: point status {record.status.value}", file=sys.stderr)
        return 2
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = SweepSpec(
        axis=SweepAxis(args.axis),
        start=args.start,
        stop=args.stop,
        count=args.count,
        scale=args.scale,
        base=_build_request(args),
    )
    records = run_sweep(spec, parallelism=args.parallelism)
    text = records_to_csv(records) if args.format == "csv" else records_to_jsonl(records)
    _emit(text, args.output)
    if not any(rec.status is PointStatus.OK for rec in records):
        print(f"kerrcasimir: none of the {len(records)} sweep points is ok", file=sys.stderr)
        return 2
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg = OracleConfig(
        n_max=args.n_max,
        m_max=args.m_max,
        quad_points=args.quad_points,
        fd_step=args.fd_step,
        rel_tol=args.rel_tol,
    )
    checks = validation_checks(cfg)
    width = max(len(c["name"]) for c in checks)
    for c in checks:
        measured = "-" if c["measured"] is None else f"{c['measured']:.3e}"
        status = "PASS" if c["passed"] else "FAIL"
        line = f"{c['name']:<{width}}  measured={measured:>10}  tol={c['tolerance']:.0e}  {status}"
        if c["detail"]:
            line += f"  ({c['detail']})"
        print(line)
    n_fail = sum(not c["passed"] for c in checks)
    print(f"{len(checks) - n_fail}/{len(checks)} oracle checks passed")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump({"checks": checks, "failures": n_fail}, fh, indent=2)
            fh.write("\n")
    return 0 if n_fail == 0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = _apply_config(parser, sys.argv[1:] if argv is None else list(argv))
    except (DomainError, ForbiddenOrbitError, OSError, ValueError) as exc:
        print(f"kerrcasimir: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "point":
            return _cmd_point(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_validate(args)
    except (DomainError, NakedSingularityError, InsideHorizonError, ForbiddenOrbitError,
            ValueError, OSError) as exc:
        print(f"kerrcasimir: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
