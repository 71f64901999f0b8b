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
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import boundary, checks, exact, render
from .config import Tolerances

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

MAX_RADIUS = 1e150
"""Largest radius the float commands accept.  Above it the closed-form sweeps
overflow: the sextic trace of the boundary figure raises OverflowError from
about r = 1e151, and the support-line offsets turn to inf from about 1e155."""


class UsageError(ValueError):
    """Bad flag combination or out-of-range configuration value."""


class VerificationFailure(RuntimeError):
    """At least one requested check failed."""


@dataclass
class RunConfig:
    command: str
    r: float = 0.5
    a: complex | None = None
    r_list: list = field(default_factory=list)  # resultant command only
    samples: int = 720
    level: int = 400
    grid: int = 720
    seed: int = 1
    out: Path = Path(".")
    formats: list = field(default_factory=list)
    tol: Tolerances = Tolerances()
    with_resultant: bool = False
    mutate: bool = False
    degree_bound: int = 28

    def validate(self) -> None:
        if self.samples < 8:
            raise UsageError(f"--samples must be at least 8, got {self.samples}")
        if self.level < 1:
            raise UsageError(f"--N must be at least 1, got {self.level}")
        if self.grid < 64:
            raise UsageError(f"--grid must be at least 64, got {self.grid}")
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
        p.add_argument("--r", type=str, default=None, help="radius r = |a|/2 (float or p/q)")
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
        p.add_argument("--tol-alg", type=float, default=1e-12, help="algebraic tolerance")
        p.add_argument("--tol-env", type=float, default=1e-8, help="envelope tolerance")
        p.add_argument("--tol-conv", type=float, default=5e-3, help="convergence tolerance")

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
    config = RunConfig(command=args.command)
    config.samples = args.samples
    config.level = args.level
    config.grid = args.grid
    config.seed = args.seed
    config.out = Path(args.out)
    config.formats = list(args.format) if args.format else []
    config.tol = Tolerances(
        algebraic=args.tol_alg,
        envelope=args.tol_env,
        convergence=args.tol_conv,
    )
    config.with_resultant = getattr(args, "with_resultant", False)
    config.mutate = getattr(args, "mutate", False)
    config.degree_bound = getattr(args, "degree_bound", 28)

    if args.command == "resultant":
        text = args.r if args.r is not None else "1/2,1/3"
        config.r_list = [_parse_rational(part) for part in text.split(",")]
        config.r = _parse_radius(text.split(",")[0])
    else:
        if args.a is not None:
            config.a = _parse_complex(args.a)
            radius = abs(config.a) / 2.0
            if args.r is not None and _parse_radius(args.r) != radius:
                raise UsageError(
                    f"--r {args.r} conflicts with |a|/2 = {radius} from --a {args.a}"
                )
            config.r = radius
        elif args.r is not None:
            config.r = _parse_radius(args.r)
        if config.a is None:
            config.a = complex(2.0 * config.r, 0.0)
    config.validate()
    return config


def _ensure_out(config: RunConfig) -> Path:
    config.out.mkdir(parents=True, exist_ok=True)
    return config.out


def _dump_json(payload: dict, path: Path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def cmd_support_lines(config: RunConfig) -> int:
    formats = config.formats or ["csv", "svg"]
    out = _ensure_out(config)
    thetas = boundary.angle_grid(config.samples)
    offsets = boundary.support_function(thetas, config.r)
    written = []
    if "csv" in formats:
        path = out / "support_lines.csv"
        render.write_support_lines_csv(path, zip(thetas.tolist(), np.atleast_1d(offsets).tolist()))
        written.append(path)
    if "svg" in formats:
        path = out / "support_lines.svg"
        render.write_svg(render.support_lines_svg(config.r, thetas, np.atleast_1d(offsets)), path)
        written.append(path)
    for path in written:
        print(path)
    return EXIT_OK


def cmd_boundary(config: RunConfig) -> int:
    formats = config.formats or ["csv", "svg"]
    out = _ensure_out(config)
    points = boundary.boundary_curve(config.r, config.samples)
    written = []
    if "csv" in formats:
        path = out / "boundary.csv"
        render.write_boundary_csv(path, points)
        written.append(path)
    if "svg" in formats:
        path = out / "boundary.svg"
        render.write_svg(render.boundary_svg(config.r, points), path)
        written.append(path)
    for path in written:
        print(path)
    return EXIT_OK


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
