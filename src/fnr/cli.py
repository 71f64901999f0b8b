"""Command line front end.

    fnr support-lines --r 0.5          CSV + SVG of the supporting-line family
    fnr boundary --r 0.5               CSV + SVG of the two-regime boundary
    fnr verify [--r 0.5 --N 400]       runs the verification suites, JSON report
    fnr resultant [--r 1/2,1/3]        divisibility certificates, text + JSON

Each command takes only the flags it reads; any other flag is a usage error.
Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, 3 I/O error.  Outputs land in --out (default: current directory) under
fixed names, and identical configurations and seeds produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import boundary, checks, exact, render
from .config import DEFAULT_TOLERANCES, Tolerances

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

MAX_RADIUS = 1e150
"""Largest radius the float commands accept.  Above it the closed-form sweeps
overflow: the sextic trace of the boundary figure raises OverflowError from
about r = 1e151, and the support-line offsets turn to inf from about 1e155."""

RADIUS_MATCH = 1e-12
"""Relative tolerance within which --r must equal |a|/2 when --a is also given."""


class UsageError(ValueError):
    """Bad flag combination or out-of-range configuration value."""


class VerificationFailure(RuntimeError):
    """At least one requested check failed."""


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse {text!r} as a rational number") from exc


def _parse_radius(text: str) -> float:
    rational = _parse_rational(text)
    try:
        value = float(rational)
    except OverflowError as exc:
        raise UsageError(f"--r {text} overflows a double") from exc
    if value == 0 and rational != 0:
        raise UsageError(f"--r {text} underflows a double to zero")
    return value


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"--a expects 're,im', got {text!r}")
    try:
        value = complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise UsageError(f"--a expects 're,im', got {text!r}") from exc
    if not math.isfinite(math.hypot(value.real, value.imag)):
        raise UsageError(f"--a {text!r} is not finite or |a| overflows a double")
    return value


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are usage errors that ``main`` returns."""

    def error(self, message: str):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fnr",
        description="Numerical range of Foguel operators: figures, verification, certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flag groups shared by several commands: --out by all four, and the float
    # radius with its sample count by all but resultant.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=str, default=".", help="output directory")
    floats = argparse.ArgumentParser(add_help=False)
    r_help = f"radius r = |a|/2 (float or p/q); with --a, must match to {RADIUS_MATCH:g} relative"
    floats.add_argument("--r", type=str, default=None, help=r_help)
    floats.add_argument("--a", type=str, default=None, help="coupling scalar as 're,im'")
    floats.add_argument("--samples", type=int, default=720, help="boundary/line sample count")

    for name, handler, help_text in (
        ("support-lines", cmd_support_lines, "emit the supporting-line family"),
        ("boundary", cmd_boundary, "emit the boundary curve"),
    ):
        figure = sub.add_parser(name, parents=[floats, out], help=help_text)
        figure.set_defaults(handler=handler)
        figure.add_argument(
            "--format",
            action="append",
            choices=("csv", "svg"),
            default=None,
            help="output formats (repeatable; default both)",
        )

    ver = sub.add_parser("verify", parents=[floats, out], help="run the verification suites")
    ver.set_defaults(handler=cmd_verify)
    ver.add_argument("--N", type=int, default=400, dest="level", help="truncation level")
    ver.add_argument("--grid", type=int, default=720, help="angle grid size for checks")
    ver.add_argument("--seed", type=int, default=1, help="seed for --with-resultant")
    tol = DEFAULT_TOLERANCES
    ver.add_argument("--tol-alg", type=float, default=tol.algebraic, help="algebraic tolerance")
    ver.add_argument("--tol-env", type=float, default=tol.envelope, help="envelope tolerance")
    ver.add_argument("--tol-conv", type=float, default=tol.convergence, help="convergence tolerance")
    ver.add_argument("--with-resultant", action="store_true", help="also run the certificate")

    res = sub.add_parser("resultant", parents=[out], help="run the divisibility certificates")
    res.set_defaults(handler=cmd_resultant)
    res.add_argument("--r", type=str, default="1/2,1/3", help="comma-separated exact radii p/q")
    res.add_argument("--seed", type=int, default=1, help="seed for certificate sampling")
    res.add_argument(
        "--degree-bound",
        type=int,
        default=28,
        help=f"cofactor total degree bound, 0 to {exact.MAX_DEGREE_BOUND}",
    )
    res.add_argument(
        "--mutate",
        action="store_true",
        help="self-test: corrupt one sextic coefficient and demand failure",
    )
    return parser


def _command_flags(parser: argparse.ArgumentParser) -> dict:
    """The option strings of each command's parser, -h/--help aside."""
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: [
            s for a in command._actions if not isinstance(a, argparse._HelpAction)
            for s in a.option_strings
        ]
        for name, command in commands.items()
    }


def _at_least(flag: str, value: int, minimum: int) -> None:
    if value < minimum:
        raise UsageError(f"{flag} must be at least {minimum}, got {value}")


def _float_radius(args: argparse.Namespace) -> tuple:
    """(r, a) of a float command from --r/--a; checks --samples too."""
    if args.a is not None:
        a = _parse_complex(args.a)
        r = abs(a) / 2.0
        if args.r is not None and not math.isclose(_parse_radius(args.r), r, rel_tol=RADIUS_MATCH):
            raise UsageError(f"--r {args.r} conflicts with |a|/2 = {r} from --a {args.a}")
    else:
        r = _parse_radius(args.r if args.r is not None else "0.5")
        a = complex(2.0 * r, 0.0)
    _at_least("--samples", args.samples, 8)
    if r < 0:
        raise UsageError(f"--r must be nonnegative, got {r}")
    if r > MAX_RADIUS:
        raise UsageError(f"r = {r:g} exceeds the largest supported radius {MAX_RADIUS:g}")
    return r, a


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dump_json(payload: dict, path: Path) -> None:
    render._write_text(path, json.dumps(payload, indent=2) + "\n")


def _emit_figure(args: argparse.Namespace, stem: str, write_csv, figure) -> int:
    """Write ``stem``.csv by ``write_csv(path)`` and ``stem``.svg from ``figure()``, as asked."""
    formats = args.format or ["csv", "svg"]
    out = _out_dir(args)
    written = []
    if "csv" in formats:
        written.append(out / f"{stem}.csv")
        write_csv(written[-1])
    if "svg" in formats:
        written.append(out / f"{stem}.svg")
        render.write_svg(figure(), written[-1])
    for path in written:
        print(path)
    return EXIT_OK


def cmd_support_lines(args: argparse.Namespace) -> int:
    r, _ = _float_radius(args)
    thetas = boundary.angle_grid(args.samples)
    offsets = boundary.support_function(thetas, r)
    return _emit_figure(
        args,
        "support_lines",
        lambda path: render.write_support_lines_csv(path, zip(thetas.tolist(), offsets.tolist())),
        lambda: render.support_lines_svg(r, thetas, offsets),
    )


def cmd_boundary(args: argparse.Namespace) -> int:
    r, _ = _float_radius(args)
    if r == 0:
        raise UsageError(
            "r = 0: the numerical range is the open unit disk; there is no "
            "two-regime boundary to draw -- plot the unit circle instead"
        )
    points = boundary.boundary_curve(r, args.samples)
    return _emit_figure(
        args,
        "boundary",
        lambda path: render.write_boundary_csv(path, points),
        lambda: render.boundary_svg(r, points),
    )


def cmd_verify(args: argparse.Namespace) -> int:
    r, a = _float_radius(args)
    if r > 0 and 1.0 + r == 1.0:
        raise UsageError(
            f"r = {r!r} is below the double resolution at 1: 1 + r rounds to 1, "
            "so the comparison ellipse degenerates to the unit circle"
        )
    _at_least("--N", args.level, 1)
    _at_least("--grid", args.grid, 64)
    tolerances = {"--tol-alg": args.tol_alg, "--tol-env": args.tol_env, "--tol-conv": args.tol_conv}
    for flag, value in tolerances.items():
        if not (math.isfinite(value) and value >= 0):
            raise UsageError(f"{flag} must be a finite number >= 0, got {value}")
    rational = Fraction(r).limit_denominator(10**6)  # the radius the certificate runs at
    if args.with_resultant and r > 0 and rational == 0:
        raise UsageError(
            f"--with-resultant needs r > 5e-7: r = {r!r} rounds to 0 at denominators up to 10^6"
        )
    tol = Tolerances(algebraic=args.tol_alg, envelope=args.tol_env, convergence=args.tol_conv)
    out = _out_dir(args)
    if r == 0:
        results = checks.degenerate_checks(args.grid)
    else:
        results = checks.closedform_checks(r, tol, args.grid)
        results.extend(checks.truncation_checks(a, args.level, tol))
        results.append(checks.ellipse_check(r, max(args.samples, 2000)))
        if args.with_resultant:
            results.append(checks.resultant_check(rational, args.seed))
    all_pass = all(c.passed for c in results)
    payload = {
        "command": "verify",
        "r": r,
        "a": [a.real, a.imag],
        "level": args.level,
        "samples": args.samples,
        "grid": args.grid,
        "seed": args.seed,
        "tolerances": {
            "algebraic": tol.algebraic,
            "envelope": tol.envelope,
            "convergence": tol.convergence,
        },
        "checks": [c.to_json_dict() for c in results],
        "all_pass": all_pass,
    }
    path = out / "verify.json"
    _dump_json(payload, path)
    print(path)
    for c in results:
        status = "pass" if c.passed else "FAIL"
        print(f"  [{status}] {c.name}: measured {c.measured:.6g} vs tolerance {c.tolerance:.6g}")
    if not all_pass:
        failing = ", ".join(c.name for c in results if not c.passed)
        raise VerificationFailure(f"checks failed: {failing}")
    return EXIT_OK


def cmd_resultant(args: argparse.Namespace) -> int:
    parts = args.r.split(",")
    radii = [_parse_rational(part) for part in parts]
    if args.degree_bound < 0:
        raise UsageError(f"--degree-bound must be nonnegative, got {args.degree_bound}")
    if args.degree_bound > exact.MAX_DEGREE_BOUND:
        raise UsageError(
            f"--degree-bound must be at most {exact.MAX_DEGREE_BOUND}, the largest total "
            f"degree the cofactor can have, got {args.degree_bound}"
        )
    # Every radius must be nonzero, and nonnegative and finite as a double.
    for part, rr in zip(parts, radii):
        value = _parse_radius(part)
        if value < 0:
            raise UsageError(f"--r must be nonnegative, got {value}")
        if rr == 0:
            raise UsageError("r = 0 degenerates the elimination; pick a nonzero rational")
    out = _out_dir(args)
    reports = [
        exact.verify_sextic_resultant_identity(
            rr, degree_bound=args.degree_bound, seed=args.seed, mutate=args.mutate
        )
        for rr in radii
    ]
    ok = all(rep.success for rep in reports)
    if args.mutate and ok:
        raise VerificationFailure(
            "mutated sextic was not rejected: the certificate lost its sensitivity"
        )
    payload = {
        "command": "resultant",
        "seed": args.seed,
        "degree_bound": args.degree_bound,
        "mutated": args.mutate,
        "reports": [rep.to_json_dict() for rep in reports],
        "all_success": ok,
    }
    _dump_json(payload, out / "resultant.json")
    text = "\n\n".join(rep.to_text() for rep in reports) + "\n"
    render._write_text(out / "resultant.txt", text)
    print(out / "resultant.json")
    print(out / "resultant.txt")
    sys.stdout.write(text)
    if not ok:
        raise VerificationFailure("divisibility certificate failed")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:
            flags = ", ".join(_command_flags(parser)[args.command])
            raise UsageError(
                f"{args.command} does not take {' '.join(unknown)}; its flags are {flags}"
            )
        return args.handler(args)
    except UsageError as exc:
        print(f"fnr: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationFailure as exc:
        print(f"fnr: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except OSError as exc:
        target = getattr(exc, "filename", None)
        print(f"fnr: I/O error on {target or 'output'}: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
