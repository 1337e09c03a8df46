"""Command-line front end: point evaluation, sweeps and oracle validation.

Exit codes: 0 success, 1 validation failure, 2 invalid input.  ``point``
exits 2 when its record is not ``ok``, and ``sweep`` when none of its
records is; the records are written either way.  An output file that
cannot be written (``--output`` in a missing directory, say) also exits 2,
with a one-line reason on stderr.  A config file of plain
``key=value`` lines may set defaults for any flag of the subcommand it is
given to, required ones included (keys are the long flag names, with
``-`` or ``_`` interchangeable, typed and checked as the flags are; an
on/off flag reads 1/true/yes/on or 0/false/no/off in any case); explicit
flags always win, and any other key or on/off value exits 2.  ``point`` and
``sweep`` take no series flags: the thermal series always stops where its
terms stop changing the sums, so ``--m-max`` belongs to ``validate``,
whose flags are the ``OracleConfig`` fields.
Both write their records with the serializer that ``--format`` names.
``sweep --axis Omega`` does not resolve ``--omega``, which the axis
replaces at every point; any other sweep exits 2 when ``zamo`` or
``frac=`` cannot be resolved at ``--radius``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from typing import Optional, Sequence, get_type_hints

from .errors import DomainError, InsideHorizonError
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
    _failed,
    evaluate_point,
    records_to_csv,
    records_to_jsonl,
    run_sweep,
)

_WRITERS = {"csv": records_to_csv, "jsonl": records_to_jsonl}
# Config-file spellings of an on/off flag such as --allow-naked, lower case.
_ON_OFF = {"1": True, "true": True, "yes": True, "on": True,
           "0": False, "false": False, "no": False, "off": False}


def _omega_spec(text: str) -> str:
    """--omega's value, unchanged once it reads as a number, 'zamo' or
    'frac=<number>' (any case); _resolve_omega gives it meaning."""
    spec = text.strip().lower()
    if spec != "zamo":
        try:
            float(spec[5:] if spec.startswith("frac=") else spec)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"must be a number, 'zamo' or 'frac=<number>', got {text!r}") from None
    return text


def _add_point_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mass", type=float, default=1.0, help="source mass M (geometric units)")
    parser.add_argument("--spin", type=float, default=0.0, help="specific angular momentum a")
    parser.add_argument("--radius", type=float, default=10.0, help="orbit radius r (Boyer-Lindquist)")
    parser.add_argument(
        "--omega", type=_omega_spec, default="zamo",
        help="orbit angular velocity: a number, 'zamo' (= dragging value), "
             "or 'frac=<f>' for omega_d + f * (allowed half-width), f in (-1, 1)",
    )
    parser.add_argument("--length", type=float, default=0.01, help="coordinate plate separation L")
    parser.add_argument("--area", type=float, default=1e-4, help="coordinate plate area S0")
    parser.add_argument("--temperature", type=float, default=0.0, help="coordinate temperature T")
    parser.add_argument("--allow-naked", action="store_true",
                        help="admit |a| > M (over-spun source)")
    parser.add_argument("--format", choices=tuple(_WRITERS), default="csv")
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

    p_val = sub.add_parser("validate", help="run the brute-force oracle suite")
    # One flag per OracleConfig field (n_max <-> --n-max), typed and
    # defaulted by the field itself.
    types = get_type_hints(OracleConfig)
    helps = {
        "n_max": "most terms (n) per row of the double sum and most modes of the "
                 "mode-sum quadrature",
        "m_max": "most rows (m) of the double sum and terms of the single sum",
        "quad_points": "most subintervals per quadrature",
        "fd_step": "relative step of the finite differences in Tp",
    }
    for field in fields(OracleConfig):
        p_val.add_argument("--" + field.name.replace("_", "-"),
                           type=types[field.name], default=field.default,
                           help=helps[field.name])
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
                typed = _ON_OFF.get(value.lower())
                if typed is None:
                    raise DomainError(f"{path}:{lineno}: {key} must be one of "
                                      f"{'/'.join(_ON_OFF)}, got {value!r}")
            else:
                convert = action.type or str
                try:
                    typed = convert(value)
                except argparse.ArgumentTypeError as exc:  # a checker that states its rule
                    raise DomainError(f"{path}:{lineno}: {key} {exc}") from None
                except ValueError:
                    raise DomainError(f"{path}:{lineno}: {key} must be {convert.__name__}, "
                                      f"got {value!r}") from None
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


def _resolve_omega(spec: str, params: KerrParams, r: float) -> EquatorialOrbit:
    text = spec.strip().lower()
    if text == "zamo":
        return EquatorialOrbit(r=r, Omega=dragging_angular_velocity(params, r))
    if text.startswith("frac="):
        return orbit_from_band_fraction(params, r, float(text[5:]))
    return EquatorialOrbit(r=r, Omega=float(text))


def _build_request(args: argparse.Namespace, omega: Optional[float] = None) -> PointRequest:
    """The request the flags describe; ``omega``, when given, is the orbit's
    Omega and --omega is not resolved."""
    params = KerrParams(M=args.mass, a=args.spin, black_hole_mode=not args.allow_naked)
    cavity = CavityGeometry(L=args.length, S0=args.area)
    if omega is None:
        orbit = _resolve_omega(args.omega, params, args.radius)
    else:
        orbit = EquatorialOrbit(r=args.radius, Omega=omega)
    return PointRequest(params=params, orbit=orbit, cavity=cavity, T=args.temperature)


def _write(records: list, args: argparse.Namespace) -> None:
    text = _WRITERS[args.format](records)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_point(args: argparse.Namespace) -> int:
    try:
        record = evaluate_point(_build_request(args))
    except InsideHorizonError:
        # 'zamo' and 'frac=' need the dragging velocity, which does not
        # exist inside the horizon: the record keeps an empty Omega cell.
        inputs = (args.mass, args.spin, args.radius, None, args.length, args.area,
                  args.temperature)
        record = _failed(inputs, PointStatus.INSIDE_HORIZON)
    _write([record], args)
    if record.status is not PointStatus.OK:
        print(f"kerrcasimir: point status {record.status.value}", file=sys.stderr)
        return 2
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    axis = SweepAxis(args.axis)
    try:
        # An Omega axis replaces the orbit's Omega at every point, so its base
        # orbit takes the first grid value and --omega is not resolved.
        base = _build_request(args, args.start if axis is SweepAxis.OMEGA else None)
    except InsideHorizonError as exc:
        raise DomainError(f"--omega {args.omega} cannot be resolved at "
                          f"--radius {args.radius}: {exc}") from exc
    spec = SweepSpec(axis=axis, start=args.start, stop=args.stop, count=args.count,
                     scale=args.scale, base=base)
    records = run_sweep(spec)
    _write(records, args)
    if not any(rec.status is PointStatus.OK for rec in records):
        print(f"kerrcasimir: none of the {len(records)} sweep points is ok", file=sys.stderr)
        return 2
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg = OracleConfig(**{f.name: getattr(args, f.name) for f in fields(OracleConfig)})
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
    except (DomainError, OSError, ValueError) as exc:
        print(f"kerrcasimir: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "point":
            return _cmd_point(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_validate(args)
    except (DomainError, ValueError, OSError) as exc:
        print(f"kerrcasimir: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
