"""End-to-end benchmark of fnr on three seeded workloads.

    python3 perfbench/run.py --workload atlas --seed 3 --seconds 10 --trace 0

Run from the root of a source checkout: the program is imported from
``src/fnr`` of that checkout, never from an installed copy.  Workloads are
closed loops; one process runs a fixed batch of operations, one after
another, and repeats the batch while the next repetition is expected to end
within ``--seconds`` (it always runs once).  An operation is one CLI command,
run in-process through ``fnr.cli.main``, or one library query.

* ``verify-default``: ``fnr verify`` at its defaults, with the seed picking
  the phase of ``a`` (``|a| = 1``).
* ``certify``: ``fnr resultant --r 1/2,1/3,2`` and the ``--mutate`` self-test
  at a seed-chosen certificate seed.
* ``atlas``: 32 log-uniform radii in ``[1e-2, 1e2]`` (one per stratum), each
  run through ``fnr boundary``, ``fnr support-lines``,
  ``boundary.ellipse_gap`` and 300 ``boundary.classify_point`` queries.

Every operation's output is checked against ``reference.json``; see
``make_reference.py``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end figures; with ``--trace 1`` the batch is run once
with tracing on (see ``tracer.py``) and the metrics are per layer.
BLAS runs on one thread and ``FNR_THREADS`` is removed from the environment.

End-to-end times are given at a fixed reference speed of the machine.  A
shared virtual machine drifts in speed by 15-30% over tens of seconds, which
would swamp the changes the benchmark is there to see.  So a fixed loop,
``speed_kernel``, is timed every ``SAMPLE_EVERY_S`` seconds throughout the
run (from a ``SIGALRM`` handler, so samples also fall inside a single long
operation).  Each operation's times are scaled by
``REFERENCE_KERNEL_S`` over the median kernel time seen during that
operation or, for a short one, in the samples nearest to it.  The kernel's
own time is excluded from the operations it interrupts.  ``setup_s`` is
scaled the same way, by kernel samples taken between its probes.  The raw,
unscaled times are printed on the detail line before the result.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
TAIL_BEYOND = 10  # samples required above the reported tail percentile
FROZEN_ELLIPSE_GAP = 0.09842444710573406
TOLERANCE = 1e-12

KERNEL_LOOPS = 10_000
KERNEL_ARRAY_CALLS = 80
REFERENCE_KERNEL_S = 0.0045  # median speed_kernel time on the reference machine, see NOTES.md
SAMPLE_EVERY_S = 0.2
SPEED_NEIGHBOURS = 7  # fewest kernel samples that set an op's speed
SETUP_KERNELS = 5  # kernel samples before each setup probe and after the last

CERT_SEEDS = 16  # certificate seeds 1..16 carry reference digests
ATLAS_STRATA = 32
ATLAS_CHOICES = 4  # candidate radii per stratum
ATLAS_SAMPLES = 2000
ATLAS_POINTS = 300


@dataclass
class Op:
    """One timed operation and the untimed extraction of its outputs."""

    label: str
    run: Callable[[], object]
    facts: Callable[[object], dict]
    expect: dict
    outputs: tuple = ()  # files removed before each run, so stale ones cannot pass


# ---------------------------------------------------------------------------
# Program loading and environment
# ---------------------------------------------------------------------------


def pin_environment() -> str | None:
    """Fix the BLAS thread count and drop FNR_THREADS; returns its old value."""
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    return os.environ.pop("FNR_THREADS", None)


def load_fnr():
    """Import fnr from this checkout's ``src``; exits 2 when it is missing."""
    if not (SRC / "fnr" / "__init__.py").is_file():
        print(f"perfbench: no fnr sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import fnr
    import fnr.boundary
    import fnr.checks
    import fnr.cli
    import fnr.exact
    import fnr.render
    import fnr.truncation

    if Path(fnr.__file__).resolve().parent != SRC / "fnr":
        print(f"perfbench: fnr imported from {fnr.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return fnr


def layer_modules(fnr) -> dict:
    return {
        "cli": fnr.cli,
        "checks": fnr.checks,
        "truncation": fnr.truncation,
        "boundary": fnr.boundary,
        "exact": fnr.exact,
        "render": fnr.render,
    }


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _blas_runtime_threads(numpy) -> int | None:
    """Thread count reported by the OpenBLAS bundled with numpy, if found."""
    import ctypes
    import glob

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def environment(fnr_threads_seen: str | None) -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "blas_threads_runtime": _blas_runtime_threads(numpy),
        "nproc": len(os.sched_getaffinity(0)),
        "FNR_THREADS": fnr_threads_seen,  # as found; removed for the run
        "git_sha": _git_sha(),
    }


# ---------------------------------------------------------------------------
# Output facts and their comparison
# ---------------------------------------------------------------------------


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def call_cli(fnr, argv: list) -> int:
    """Run one CLI command in-process; its text output is discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return fnr.cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            return exc.code


def mismatches(expect, seen, where="") -> list:
    """Differences between expected and observed facts; floats to 1e-12."""
    if isinstance(expect, dict):
        if not isinstance(seen, dict):
            return [f"{where}: expected a mapping, got {seen!r}"]
        out = []
        for key, value in expect.items():
            if key not in seen:
                out.append(f"{where}/{key}: missing")
            else:
                out.extend(mismatches(value, seen[key], f"{where}/{key}"))
        return out
    if isinstance(expect, list):
        if not isinstance(seen, (list, tuple)) or len(seen) != len(expect):
            return [f"{where}: expected {len(expect)} items, got {seen!r}"]
        return [m for i, (e, s) in enumerate(zip(expect, seen)) for m in mismatches(e, s, f"{where}[{i}]")]
    if isinstance(expect, float) and isinstance(seen, (int, float)) and not isinstance(seen, bool):
        if math.isfinite(seen) and abs(seen - expect) <= TOLERANCE * max(1.0, abs(expect)):
            return []
        return [f"{where}: expected {expect!r} within {TOLERANCE}, got {seen!r}"]
    if expect != seen:
        return [f"{where}: expected {expect!r}, got {seen!r}"]
    return []


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Workloads: seed -> inputs -> operations
# ---------------------------------------------------------------------------


def verify_phase(seed: int) -> float:
    return 2.0 * math.pi * random.Random(f"verify:{seed}").random()


def verify_ops(fnr, seed: int, reference: dict | None) -> list:
    return verify_phase_ops(fnr, verify_phase(seed), reference)


def verify_phase_ops(fnr, phase: float, reference: dict | None) -> list:
    out = WORK / "verify"
    argv = ["verify", f"--a={math.cos(phase)!r},{math.sin(phase)!r}", "--out", str(out)]

    def facts(code):
        report = json.loads((out / "verify.json").read_text())
        return {
            "exit": code,
            "all_pass": report["all_pass"],
            "checks": [[c["name"], float(c["measured"]), c["pass"]] for c in report["checks"]],
            "ellipse_gap": next(
                float(c["measured"]) for c in report["checks"] if c["name"] == "ellipse-gap-positive"
            ),
        }

    expect = {"exit": 0, "all_pass": True, "ellipse_gap": FROZEN_ELLIPSE_GAP}
    if reference is not None:
        expect["checks"] = reference["verify"]["checks"]
    return [Op(f"verify phase={phase:.6f}", lambda: call_cli(fnr, argv), facts, expect, (out / "verify.json",))]


def certify_ops(fnr, seed: int, reference: dict | None) -> list:
    cert_seed = 1 + seed % CERT_SEEDS
    expected = reference["certify"][str(cert_seed)] if reference is not None else {}
    ops = []
    for label, extra, code, success in (
        ("certify", ["--r", "1/2,1/3,2"], 0, True),
        ("mutate", ["--r", "1/2", "--mutate"], 1, False),
    ):
        out = WORK / label
        argv = ["resultant", *extra, "--seed", str(cert_seed), "--out", str(out)]

        def facts(exit_code, out=out):
            report = json.loads((out / "resultant.json").read_text())
            return {
                "exit": exit_code,
                "all_success": report["all_success"],
                "resultant.json": sha256(out / "resultant.json"),
                "resultant.txt": sha256(out / "resultant.txt"),
            }

        expect = {"exit": code, "all_success": success, **expected.get(label, {})}
        files = (out / "resultant.json", out / "resultant.txt")
        ops.append(Op(f"{label} seed={cert_seed}", lambda argv=argv: call_cli(fnr, argv), facts, expect, files))
    return ops


def atlas_pool() -> list:
    """Candidate radii: ATLAS_CHOICES per stratum of log10 r in [-2, 2]."""
    rng = random.Random("atlas-pool")
    return [
        [f"{10.0 ** (-2.0 + 4.0 * (k + rng.random()) / ATLAS_STRATA):.6g}" for _ in range(ATLAS_CHOICES)]
        for k in range(ATLAS_STRATA)
    ]


def atlas_radii(seed: int) -> list:
    rng = random.Random(f"atlas:{seed}")
    return [row[rng.randrange(ATLAS_CHOICES)] for row in atlas_pool()]


def atlas_points(text: str) -> list:
    """Seeded probe points in a box around the region of radius ``text``."""
    r = float(text)
    rng = random.Random(f"points:{text}")
    half_x, half_y = 1.25 * (1.0 + r), 1.25 * math.sqrt(1.0 + r * r)
    return [(rng.uniform(-half_x, half_x), rng.uniform(-half_y, half_y)) for _ in range(ATLAS_POINTS)]


LABELS = {"i": "interior", "b": "boundary", "e": "exterior"}  # reference.json keeps initials


def branch_changes(path: Path) -> int:
    branches = [line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[1:]]
    return sum(1 for a, b in zip(branches, branches[1:]) if a != b)


def atlas_radius_ops(fnr, text: str, expected: dict) -> list:
    r = float(text)
    out = WORK / "atlas"
    samples = str(ATLAS_SAMPLES)
    points = atlas_points(text)

    def boundary_facts(code):
        csv = out / "boundary.csv"
        return {
            "exit": code,
            "boundary.csv": sha256(csv),
            "boundary.svg": sha256(out / "boundary.svg"),
            "branch_changes": branch_changes(csv),
        }

    def lines_facts(code):
        return {
            "exit": code,
            "support_lines.csv": sha256(out / "support_lines.csv"),
            "support_lines.svg": sha256(out / "support_lines.svg"),
        }

    def gap_facts(result):
        gap, theta = result
        return {"ellipse_gap": float(gap), "argmax": [abs(math.cos(theta)), abs(math.sin(theta))]}

    def classify_op(k, x, y):
        expect = {"label": LABELS[expected["classify_point"][k]]} if expected else {}
        return Op(
            f"classify_point r={text} point={k}",
            lambda: fnr.boundary.classify_point(x, y, r).value,
            lambda label: {"label": label},
            expect,
        )

    def cli_op(command):
        argv = [command, "--r", text, "--samples", samples, "--out", str(out)]
        return lambda: call_cli(fnr, argv)

    return [
        Op(
            f"boundary r={text}",
            cli_op("boundary"),
            boundary_facts,
            {"exit": 0, "branch_changes": 4, **expected.get("boundary", {})},
            (out / "boundary.csv", out / "boundary.svg"),
        ),
        Op(
            f"support-lines r={text}",
            cli_op("support-lines"),
            lines_facts,
            {"exit": 0, **expected.get("support-lines", {})},
            (out / "support_lines.csv", out / "support_lines.svg"),
        ),
        Op(
            f"ellipse_gap r={text}",
            lambda: fnr.boundary.ellipse_gap(r, ATLAS_SAMPLES),
            gap_facts,
            expected.get("ellipse_gap", {}),
        ),
        *(classify_op(k, x, y) for k, (x, y) in enumerate(points)),
    ]


def atlas_ops(fnr, seed: int, reference: dict | None) -> list:
    ops = []
    for text in atlas_radii(seed):
        expected = reference["atlas"][text] if reference is not None else {}
        ops.extend(atlas_radius_ops(fnr, text, expected))
    return ops


BUILDERS = {"verify-default": verify_ops, "certify": certify_ops, "atlas": atlas_ops}
SETUP_COMMAND = {"verify-default": "verify", "certify": "resultant", "atlas": "boundary"}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def speed_kernel() -> float:
    """Seconds a fixed loop takes now; independent of fnr.

    Half interpreted float arithmetic, half numpy calls on small arrays, the
    two kinds of work the workloads do outside of BLAS.
    """
    import numpy  # not at module level: numpy must load after pin_environment

    angles = numpy.linspace(-math.pi, math.pi, 720)
    t0 = time.perf_counter()
    total = 0.0
    for i in range(KERNEL_LOOPS):
        total += math.sin(i * 1e-3) * math.sqrt(i + 1.0)
    for i in range(KERNEL_ARRAY_CALLS):
        total += float(numpy.max(i * numpy.cos(angles) + numpy.sin(angles)))
    return time.perf_counter() - t0


class SpeedSampler:
    """Samples ``speed_kernel`` every SAMPLE_EVERY_S seconds, from SIGALRM.

    ``wall`` and ``cpu`` accumulate the time spent sampling, so that callers
    can exclude it from what they time.
    """

    def __init__(self):
        self.times = []  # perf_counter at the start of each sample
        self.samples = []  # kernel seconds
        self.wall = 0.0
        self.cpu = 0.0
        self._previous = None
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:  # a timer signal arrived during an explicit sample
            return
        self._busy = True
        c0 = time.process_time()
        t0 = time.perf_counter()
        self.samples.append(speed_kernel())
        self.times.append(t0)
        self.wall += time.perf_counter() - t0
        self.cpu += time.process_time() - c0
        self._busy = False

    def factor(self, start: float, end: float) -> float:
        """Reference speed over the machine's speed from ``start`` to ``end``.

        The speed is the median of the samples taken in that interval, or of
        the SPEED_NEIGHBOURS samples nearest its middle when it holds fewer.
        """
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < SPEED_NEIGHBOURS:
            middle = bisect.bisect_left(self.times, (start + end) / 2.0)
            lo = max(0, min(middle - SPEED_NEIGHBOURS // 2, len(self.times) - SPEED_NEIGHBOURS))
            hi = lo + SPEED_NEIGHBOURS
        return REFERENCE_KERNEL_S / statistics.median(self.samples[lo:hi])

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


@dataclass
class Batch:
    starts: list  # perf_counter at the start of each op
    op_seconds: list  # wall time of each op
    op_cpu: list  # CPU time of each op
    failed: int

    @property
    def wall(self) -> float:
        return sum(self.op_seconds)

    @property
    def cpu(self) -> float:
        return sum(self.op_cpu)

    def at_reference_speed(self, sampler: SpeedSampler) -> "Batch":
        """The same batch with every op time scaled to the reference speed."""
        factors = [sampler.factor(t, t + s) for t, s in zip(self.starts, self.op_seconds)]
        return Batch(
            self.starts,
            [s * f for s, f in zip(self.op_seconds, factors)],
            [c * f for c, f in zip(self.op_cpu, factors)],
            self.failed,
        )


def run_batch(ops: list, problems: list, sampler: SpeedSampler | None = None) -> Batch:
    """Run each op once; only ``op.run`` is timed, the output check is not.

    Time the sampler spends inside an op is taken out of that op's times.
    """
    batch = Batch([], [], [], 0)
    for op in ops:
        for path in op.outputs:
            path.unlink(missing_ok=True)
        s_wall, s_cpu = (sampler.wall, sampler.cpu) if sampler is not None else (0.0, 0.0)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception:  # a crashing operation counts as failed, the run goes on
            result, error = None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0
        used = time.process_time() - c0
        if sampler is not None:
            elapsed -= sampler.wall - s_wall
            used -= sampler.cpu - s_cpu
        batch.starts.append(t0)
        batch.op_seconds.append(elapsed)
        batch.op_cpu.append(used)
        if error is None:
            try:
                found = mismatches(op.expect, op.facts(result))
            except Exception:  # unreadable or missing output files
                found = [traceback.format_exc(limit=3)]
        else:
            found = [error]
        if found:
            batch.failed += 1
            problems.append(f"{op.label}: " + "; ".join(found))
    return batch


def tail(samples: list) -> tuple:
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile).  With TAIL_BEYOND samples or fewer no such
    percentile exists and the maximum is reported, as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def batch_tail(batches: list) -> tuple:
    """Median over batches of each batch's ``tail``, and its percentile.

    Every batch runs the same operations, so the percentile is the same in
    each and does not depend on how many batches fit in ``--seconds``.  (A
    tail over all the run's samples moves to a higher percentile with every
    batch added, and on ``atlas`` jumps between ``ellipse_gap`` calls at
    middling and at the largest radii.)
    """
    tails = [tail(b.op_seconds) for b in batches]
    return statistics.median(value for value, _ in tails), tails[0][1]


def measure_setup(workload: str, sampler: SpeedSampler) -> tuple:
    """Import-and-parse times of fresh interpreters, SETUP_PROBES times.

    Returns the raw times and the times at reference speed.  Kernel samples
    are taken between the probes, never during one, so that the two do not
    compete for the machine.
    """
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    spans = []
    times = []
    for _ in range(SETUP_PROBES):
        for _ in range(SETUP_KERNELS):
            sampler.sample()
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(probe), SETUP_COMMAND[workload]],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        spans.append((t0, time.perf_counter()))
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    for _ in range(SETUP_KERNELS):
        sampler.sample()
    return times, [t * sampler.factor(*span) for t, span in zip(times, spans)]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, fnr, ops) -> tuple:
    sampler = SpeedSampler()
    setup_raw, setup = measure_setup(args.workload, sampler)
    problems = []
    raw_batches = []
    spent = []  # per batch, output checks included
    started = time.perf_counter()
    with sampler:
        while True:
            t0 = time.perf_counter()
            raw_batches.append(run_batch(ops, problems, sampler))
            spent.append(time.perf_counter() - t0)
            # Start another batch only if it should end within --seconds.
            if time.perf_counter() - started + statistics.median(spent) > args.seconds:
                break
    batches = [b.at_reference_speed(sampler) for b in raw_batches]
    samples = [s for b in batches for s in b.op_seconds]
    raw_samples = [s for b in raw_batches for s in b.op_seconds]
    tail_value, tail_pct = batch_tail(batches)
    metrics = {
        "wall_s": metric(statistics.median(b.wall for b in batches), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "cpu_s": metric(statistics.median(b.cpu for b in batches), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "op_s.p50": metric(statistics.median(samples), "s"),
        "op_s.tail": metric(tail_value, "s"),
    }
    attempted = len(samples)
    failed = sum(b.failed for b in batches)
    detail = {
        "batches": len(batches),
        "ops_per_batch": len(ops),
        "op_samples": attempted,
        "op_s.tail_percentile": tail_pct,
        "failed_ratio": failed / attempted,
        "speed_samples": len(sampler.samples),
        "kernel_s_median": statistics.median(sampler.samples),
        "raw": {
            "wall_s": statistics.median(b.wall for b in raw_batches),
            "setup_s": statistics.median(setup_raw),
            "cpu_s": statistics.median(b.cpu for b in raw_batches),
            "op_s.p50": statistics.median(raw_samples),
            "op_s.tail": batch_tail(raw_batches)[0],
        },
        "setup_s_samples": setup,
        "batch_wall_s": [b.wall for b in batches],
    }
    return metrics, attempted, failed, problems, detail


def traced(args, fnr, ops) -> tuple:
    """One traced batch; its counts repeat exactly from run to run.

    Tracing overhead is ``trace.wall_s`` minus the untraced run's ``wall_s``
    at the same seed; ``trace.overhead_s`` estimates it in-run as the span
    count times the wrapper cost calibrated on an empty function.
    """
    from tracer import LAYERS, Tracer, layer_metrics, wrapper_cost

    problems = []
    tracer = Tracer()
    tracer.install(layer_modules(fnr))
    try:
        batch = run_batch(ops, problems)
    finally:
        tracer.uninstall()
    values = layer_metrics(tracer)
    values["trace.wall_s"] = batch.wall
    values["trace.overhead_s"] = values["trace.spans"] * wrapper_cost()
    units = {}
    for name in values:
        if name.endswith((".calls", ".matvecs", ".bytes", ".spans")):
            units[name] = "count"
        elif name.endswith(".ms_p50"):
            units[name] = "ms"
        else:
            units[name] = "s"
    metrics = {name: metric(value, units[name]) for name, value in values.items()}
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / f"trace-{args.workload}.json", "w", encoding="utf-8") as handle:
        json.dump(tracer.dump(), handle)
    detail = {"layer_share_of_traced_wall": {layer: values[f"{layer}.s"] / batch.wall for layer in LAYERS}}
    return metrics, len(ops), batch.failed, problems, detail


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=BUILDERS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    fnr_threads_seen = pin_environment()
    fnr = load_fnr()
    reference = load_reference()
    ops = BUILDERS[args.workload](fnr, args.seed, reference)
    print(json.dumps({"environment": environment(fnr_threads_seen)}))
    if args.trace:
        metrics, attempted, failed, problems, detail = traced(args, fnr, ops)
    else:
        metrics, attempted, failed, problems, detail = end_to_end(args, fnr, ops)
    for problem in problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
