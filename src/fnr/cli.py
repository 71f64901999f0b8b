"""Command line front end.

    fnr support-lines --r 0.5          CSV + SVG of the supporting-line family
    fnr boundary --r 0.5               CSV + SVG of the two-regime boundary
    fnr verify [--r 0.5 --N 400]       runs the verification suites, JSON report
    fnr resultant [--r 1/2,1/3]        divisibility certificates, text + JSON

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
from dataclasses import dataclass
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


@dataclass
class RunConfig:
    command: str
    r: float
    a: complex | None  # every command but resultant
    r_list: list  # resultant command only
    samples: int
    level: int
    grid: int
    seed: int
    out: Path
    formats: list
    tol: Tolerances
    with_resultant: bool
    mutate: bool
    degree_bound: int

    def validate(self) -> None:
        if self.samples < 8:
            raise UsageError(f"--samples must be at least 8, got {self.samples}")
        if self.level < 1:
            raise UsageError(f"--N must be at least 1, got {self.level}")
        if self.grid < 64:
            raise UsageError(f"--grid must be at least 64, got {self.grid}")
        if self.degree_bound < 0:
            raise UsageError(f"--degree-bound must be nonnegative, got {self.degree_bound}")
        if self.r < 0:
            raise UsageError(f"--r must be nonnegative, got {self.r}")
        if self.command != "resultant" and self.r > MAX_RADIUS:
            raise UsageError(
                f"r = {self.r:g} exceeds the largest supported radius {MAX_RADIUS:g}"
            )
        if self.command in ("boundary",) and self.r == 0:
            raise UsageError(
                "r = 0: the numerical range is the open unit disk; there is no "
                "two-regime boundary to draw -- plot the unit circle instead"
            )
        if self.command == "resultant" and any(rr == 0 for rr in self.r_list):
            raise UsageError("r = 0 degenerates the elimination; pick a nonzero rational")


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse {text!r} as a rational number") from exc


def _parse_radius(text: str) -> float:
    try:
        return float(_parse_rational(text))
    except OverflowError as exc:
        raise UsageError(f"--r {text} overflows a double") from exc


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fnr",
        description="Numerical range of Foguel operators: figures, verification, certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        r_help = f"radius r = |a|/2 (float or p/q); with --a, must match to {RADIUS_MATCH:g} relative"
        p.add_argument("--r", type=str, default=None, help=r_help)
        p.add_argument("--a", type=str, default=None, help="coupling scalar as 're,im'")
        p.add_argument("--samples", type=int, default=720, help="boundary/line sample count")
        p.add_argument("--N", type=int, default=400, dest="level", help="truncation level")
        p.add_argument("--grid", type=int, default=720, help="angle grid size for checks")
        p.add_argument("--seed", type=int, default=1, help="seed for certificate sampling")
        p.add_argument("--out", type=str, default=".", help="output directory")
        p.add_argument(
            "--format",
            action="append",
            choices=("csv", "svg", "json"),
            default=None,
            help="output formats (repeatable)",
        )
        tol = DEFAULT_TOLERANCES
        p.add_argument("--tol-alg", type=float, default=tol.algebraic, help="algebraic tolerance")
        p.add_argument("--tol-env", type=float, default=tol.envelope, help="envelope tolerance")
        p.add_argument(
            "--tol-conv", type=float, default=tol.convergence, help="convergence tolerance"
        )

    sup = sub.add_parser("support-lines", help="emit the supporting-line family")
    add_common(sup)

    bnd = sub.add_parser("boundary", help="emit the boundary curve")
    add_common(bnd)

    ver = sub.add_parser("verify", help="run the verification suites")
    add_common(ver)
    ver.add_argument(
        "--with-resultant",
        action="store_true",
        help="also run the divisibility certificate",
    )

    res = sub.add_parser("resultant", help="run the divisibility certificates")
    add_common(res)
    res.add_argument(
        "--degree-bound", type=int, default=28, help="total degree bound for the cofactor"
    )
    res.add_argument(
        "--mutate",
        action="store_true",
        help="self-test: corrupt one sextic coefficient and demand failure",
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    r_list = []
    if args.command == "resultant":
        if args.a is not None:
            raise UsageError("resultant takes exact radii from --r (e.g. --r 1/2,1/3), not --a")
        text = args.r if args.r is not None else "1/2,1/3"
        r_list = [_parse_rational(part) for part in text.split(",")]
        r = _parse_radius(text.split(",")[0])
        a = None
    elif args.a is not None:
        a = _parse_complex(args.a)
        r = abs(a) / 2.0
        if args.r is not None and not math.isclose(_parse_radius(args.r), r, rel_tol=RADIUS_MATCH):
            raise UsageError(f"--r {args.r} conflicts with |a|/2 = {r} from --a {args.a}")
    else:
        r = _parse_radius(args.r if args.r is not None else "0.5")
        a = complex(2.0 * r, 0.0)
    config = RunConfig(
        command=args.command,
        r=r,
        a=a,
        r_list=r_list,
        samples=args.samples,
        level=args.level,
        grid=args.grid,
        seed=args.seed,
        out=Path(args.out),
        formats=args.format or [],
        tol=Tolerances(algebraic=args.tol_alg, envelope=args.tol_env, convergence=args.tol_conv),
        with_resultant=getattr(args, "with_resultant", False),
        mutate=getattr(args, "mutate", False),
        degree_bound=getattr(args, "degree_bound", 28),
    )
    config.validate()
    return config


def _ensure_out(config: RunConfig) -> Path:
    config.out.mkdir(parents=True, exist_ok=True)
    return config.out


def _dump_json(payload: dict, path: Path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _emit_figure(config: RunConfig, stem: str, write_csv, figure) -> int:
    """Write ``stem``.csv by ``write_csv(path)`` and ``stem``.svg from ``figure()``, as asked."""
    formats = config.formats or ["csv", "svg"]
    out = _ensure_out(config)
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


def cmd_support_lines(config: RunConfig) -> int:
    thetas = boundary.angle_grid(config.samples)
    offsets = boundary.support_function(thetas, config.r)
    return _emit_figure(
        config,
        "support_lines",
        lambda path: render.write_support_lines_csv(path, zip(thetas.tolist(), offsets.tolist())),
        lambda: render.support_lines_svg(config.r, thetas, offsets),
    )


def cmd_boundary(config: RunConfig) -> int:
    points = boundary.boundary_curve(config.r, config.samples)
    return _emit_figure(
        config,
        "boundary",
        lambda path: render.write_boundary_csv(path, points),
        lambda: render.boundary_svg(config.r, points),
    )


def cmd_verify(config: RunConfig) -> int:
    out = _ensure_out(config)
    if config.r == 0:
        results = checks.degenerate_checks(config.grid)
    else:
        results = checks.closedform_checks(config.r, config.tol, config.grid)
        results.extend(
            checks.truncation_checks(config.a, config.level, config.tol)
        )
        results.append(checks.ellipse_check(config.r, max(config.samples, 2000)))
        if config.with_resultant:
            rational = Fraction(config.r).limit_denominator(10**6)
            results.append(checks.resultant_check(rational, config.seed))
    all_pass = all(c.passed for c in results)
    payload = {
        "command": "verify",
        "r": config.r,
        "a": [config.a.real, config.a.imag] if config.a is not None else None,
        "level": config.level,
        "samples": config.samples,
        "grid": config.grid,
        "seed": config.seed,
        "tolerances": {
            "algebraic": config.tol.algebraic,
            "envelope": config.tol.envelope,
            "convergence": config.tol.convergence,
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


def cmd_resultant(config: RunConfig) -> int:
    out = _ensure_out(config)
    reports = []
    for rr in config.r_list:
        sextic = exact.mutated_sextic() if config.mutate else None
        reports.append(
            exact.verify_sextic_resultant_identity(
                rr,
                degree_bound=config.degree_bound,
                seed=config.seed,
                sextic=sextic,
            )
        )
    ok = all(rep.success for rep in reports)
    if config.mutate and ok:
        raise VerificationFailure(
            "mutated sextic was not rejected: the certificate lost its sensitivity"
        )
    payload = {
        "command": "resultant",
        "seed": config.seed,
        "degree_bound": config.degree_bound,
        "mutated": config.mutate,
        "reports": [rep.to_json_dict() for rep in reports],
        "all_success": all(rep.success for rep in reports),
    }
    _dump_json(payload, out / "resultant.json")
    text = "\n\n".join(rep.to_text() for rep in reports) + "\n"
    with open(out / "resultant.txt", "w", encoding="ascii", newline="\n") as handle:
        handle.write(text)
    print(out / "resultant.json")
    print(out / "resultant.txt")
    sys.stdout.write(text)
    if not ok:
        raise VerificationFailure("divisibility certificate failed")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        handler = {
            "support-lines": cmd_support_lines,
            "boundary": cmd_boundary,
            "verify": cmd_verify,
            "resultant": cmd_resultant,
        }[config.command]
        return handler(config)
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
