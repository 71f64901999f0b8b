"""Command line front end.

    fnr support-lines --r 0.5          CSV + SVG of the supporting-line family
    fnr boundary --r 0.5               CSV + SVG of the two-regime boundary
    fnr verify [--r 0.5 --N 400]       runs the verification suites, JSON report
    fnr resultant [--r 1/2,1/3]        divisibility certificates, text + JSON

``verify`` runs one fixed suite: its angle grids, sample counts and bounds
belong to the checks (``fnr.checks``), and the certificate runs only under
``resultant``, on exact radii.  The certificate's grid is fixed at every
radius and sampled only when the held-out check fails (``fnr.exact``), so
``resultant`` takes no size setting; its reports record the grid's degree
bound, 28.

The figures depend on the coupling a only through r = |a|/2, so they take
``--r`` alone and always write both files; ``verify`` builds its truncations
from a and takes ``--a`` too.

Each command takes only the flags it reads; any other flag is a usage error.
The parser is built once, at import, and every ``main`` call parses with it.
Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, 3 I/O error.  Outputs land in --out (default: current directory) under
fixed names, and identical configurations and seeds produce byte-identical
files.  Every output file is written here, by :func:`_write_text`; the
layers only build text.

At import this module loads the standard library and :mod:`fnr.exact`, which
needs nothing else, so ``resultant`` runs without numpy.  Each other command
imports the layers it runs when it is dispatched.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import exact

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

MAX_RADIUS = 1e150
"""Largest radius the float commands accept.  Above it the closed-form sweeps
fail: the sextic trace of the boundary figure raises OverflowError from about
r = 1e151, and from sqrt(DBL_MAX) = 1.34e154, where r^2 overflows a double,
the closed forms refuse r with ValueError."""

MAX_SAMPLES = 1_000_000
"""Largest --samples.  The figures hold every sample as text: at 100 000
samples the support-line SVG is 14 MB and the command peaks near 85 MB."""

MAX_LEVEL = 100_000
"""Largest --N.  The eigenvalue sweeps step through the truncation one level
at a time, so time grows with the level: --N 4000 takes about 1.5 s."""


class UsageError(ValueError):
    """Bad flag combination or out-of-range configuration value."""


class VerificationFailure(RuntimeError):
    """At least one requested check failed."""


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse {text!r} as a rational number") from exc


def _parse_radius(text: str) -> tuple:
    """(rational, double) of a radius, refused if the double is inf, negative or underflows."""
    rational = _parse_rational(text)
    try:
        value = float(rational)
    except OverflowError as exc:
        raise UsageError(f"--r {text} overflows a double") from exc
    if value == 0 and rational != 0:
        raise UsageError(f"--r {text} underflows a double to zero")
    if value < 0:
        raise UsageError(f"--r must be nonnegative, got {value}")
    return rational, value


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

    # Flag groups: --out is shared by all four commands, the figure flags by
    # both figures, and the radius or coupling belongs to verify.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=str, default=".", help="output directory")
    figure = argparse.ArgumentParser(add_help=False)
    figure.add_argument("--r", type=str, default="0.5", help="radius |a|/2, float or p/q")
    figure.add_argument("--samples", type=int, default=720, help="boundary/line sample count")
    coupling = argparse.ArgumentParser(add_help=False)
    radius = coupling.add_mutually_exclusive_group()
    # A default of None, never equal to a parsed flag, keeps argparse's exclusion
    radius.add_argument("--r", type=str, default=None, help="radius |a|/2, float or p/q (0.5)")
    radius.add_argument("--a", type=str, default=None, help="coupling scalar as 're,im'")

    for name, handler, help_text in (
        ("support-lines", cmd_support_lines, "emit the supporting-line family"),
        ("boundary", cmd_boundary, "emit the boundary curve"),
    ):
        sub.add_parser(name, parents=[figure, out], help=help_text).set_defaults(handler=handler)

    ver = sub.add_parser("verify", parents=[coupling, out], help="run the verification suites")
    ver.set_defaults(handler=cmd_verify)
    ver.add_argument("--N", type=int, default=400, dest="level", help="truncation level")

    res = sub.add_parser("resultant", parents=[out], help="run the divisibility certificates")
    res.set_defaults(handler=cmd_resultant)
    res.add_argument("--r", type=str, default="1/2,1/3", help="comma-separated exact radii p/q")
    res.add_argument("--seed", type=int, default=1, help="seed for certificate sampling")
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


def _within(flag: str, value: int, minimum: int, maximum: int) -> None:
    if value < minimum:
        raise UsageError(f"{flag} must be at least {minimum}, got {value}")
    if value > maximum:
        raise UsageError(f"{flag} must be at most {maximum}, got {value}")


def _float_radius(r_text: str, a_text: str | None = None) -> tuple:
    """(r, a) of a float command from the --a text if given, else from the --r text."""
    if a_text is not None:
        a = _parse_complex(a_text)
        r = abs(a) / 2.0
    else:
        _, r = _parse_radius(r_text)
        a = complex(2.0 * r, 0.0)
    if r > MAX_RADIUS:
        raise UsageError(f"r = {r:g} exceeds the largest supported radius {MAX_RADIUS:g}")
    return r, a


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as ASCII with LF line ends: the one file writer."""
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write(text)


def _dump_json(payload: dict, path: Path) -> None:
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def _emit_figure(args: argparse.Namespace, stem: str, table, figure) -> int:
    """Write ``stem``.csv from ``table()``, then ``stem``.svg from ``figure()``."""
    out = _out_dir(args)
    csv_path, svg_path = out / f"{stem}.csv", out / f"{stem}.svg"
    _write_text(csv_path, table())
    _write_text(svg_path, figure())
    print(csv_path)
    print(svg_path)
    return EXIT_OK


def cmd_support_lines(args: argparse.Namespace) -> int:
    from . import boundary, render

    r, _ = _float_radius(args.r)
    _within("--samples", args.samples, 8, MAX_SAMPLES)
    thetas = boundary.angle_grid(args.samples)
    offsets = boundary.support_function(thetas, r)
    return _emit_figure(
        args,
        "support_lines",
        lambda: render.support_lines_csv(zip(thetas.tolist(), offsets.tolist())),
        lambda: render.support_lines_svg(r, thetas, offsets),
    )


def cmd_boundary(args: argparse.Namespace) -> int:
    from . import boundary, render

    r, _ = _float_radius(args.r)
    _within("--samples", args.samples, 8, MAX_SAMPLES)
    if r == 0:
        raise UsageError(
            "r = 0: the numerical range is the open unit disk; there is no "
            "two-regime boundary to draw -- plot the unit circle instead"
        )
    points = boundary.boundary_curve(r, args.samples)
    return _emit_figure(
        args,
        "boundary",
        lambda: render.boundary_csv(points),
        lambda: render.boundary_svg(r, points),
    )


def cmd_verify(args: argparse.Namespace) -> int:
    from . import boundary, checks

    r, a = _float_radius(args.r if args.r is not None else "0.5", args.a)
    if r > 0 and 1.0 + r == 1.0:
        raise UsageError(
            f"r = {r!r} is below the double resolution at 1: 1 + r rounds to 1, "
            "so the comparison ellipse degenerates to the unit circle"
        )
    if boundary.switching_cosine(r) == 0.0:
        raise UsageError(
            f"r = {r!r} is too large for the checks: the switching cosine "
            "(sqrt(4 + r^2) - r)/2 rounds to 0, so the angle sweeps have no sextic arc"
        )
    _within("--N", args.level, 1, MAX_LEVEL)
    out = _out_dir(args)
    if r == 0:
        results = checks.degenerate_checks()
    else:
        results = checks.closedform_checks(r)
        results.extend(checks.truncation_checks(a, args.level))
        results.append(checks.ellipse_check(r))
    all_pass = all(c.passed for c in results)
    payload = {
        "command": "verify",
        "r": r,
        "a": [a.real, a.imag],
        "level": args.level,
        "tolerances": {
            "algebraic": checks.ALGEBRAIC_SLACK,
            "envelope": checks.ENVELOPE_SLACK,
            "convergence": checks.CONVERGENCE_BOUND,
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
    radii = []
    for part in args.r.split(","):
        rr, _ = _parse_radius(part)
        if rr == 0:
            raise UsageError("r = 0 degenerates the elimination; pick a nonzero rational")
        radii.append(rr)
    out = _out_dir(args)
    reports = [
        exact.verify_sextic_resultant_identity(rr, seed=args.seed, mutate=args.mutate)
        for rr in radii
    ]
    ok = all(rep.success for rep in reports)
    if args.mutate and ok:
        raise VerificationFailure(
            "mutated sextic was not rejected: the certificate lost its sensitivity"
        )
    records = [rep.to_json_dict() for rep in reports]
    payload = {
        "command": "resultant",
        "seed": args.seed,
        "degree_bound": records[0]["degree_bound"],
        "mutated": args.mutate,
        "reports": records,
        "all_success": ok,
    }
    _dump_json(payload, out / "resultant.json")
    text = "\n\n".join(rep.to_text() for rep in reports) + "\n"
    _write_text(out / "resultant.txt", text)
    print(out / "resultant.json")
    print(out / "resultant.txt")
    sys.stdout.write(text)
    if not ok:
        raise VerificationFailure("divisibility certificate failed")
    return EXIT_OK


_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args, unknown = _PARSER.parse_known_args(argv)
        if unknown:
            flags = ", ".join(_command_flags(_PARSER)[args.command])
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
