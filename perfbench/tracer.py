"""Span tracing of the fnr layers, done entirely from the benchmark side.

The tracer replaces public functions of the ``fnr`` modules with wrappers
that record one span per call: ``(name, parent, start, end)``.  Calls made
through module globals (``checks`` -> ``truncation.top_eigenvalue`` ->
``top_eigenvalue_info``, the certificate -> ``exact.resultant``,
``boundary_curve`` -> ``envelope_point``) go through the module dictionary,
so replacing the attribute is enough; nothing in ``src/fnr`` changes.  Spans
are kept in memory and written once, by the caller, when the run ends.

Layer accounting:

* a span's layer is the part of its name before the first dot;
* an *entry span* of a layer has no ancestor in the same layer;
* ``<layer>.s`` sums the durations of the layer's entry spans;
* ``<layer>.self_s`` sums, over the entry spans, the duration minus the
  durations of their direct child spans.  For ``exact`` this is the
  certificate time minus the resultant time; for ``cli`` it is argument
  parsing plus JSON and text dumping.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import time

LAYERS = ("cli", "checks", "truncation", "boundary", "exact", "render")

# Public helpers left unwrapped: they sit inside per-point inner loops, where
# a wrapper would cost more than the call itself and skew the spans around
# them.  Their time is charged to the traced caller.
UNTRACED = frozenset(
    {
        "boundary.switching_cosine",
        "boundary.selected_branch",
        "boundary.membership_tolerance",
        "boundary.ellipse_axes",
        "render.format_float",
        "render.clip_segment",
        "render.support_line_segment",
        "exact.sylvester_matrix",
        "exact.bareiss_determinant",
        "truncation.foguel_truncation",
        "truncation.worker_count",
        "truncation.parallel_map",
    }
)


def _eigen_note(args, kwargs, result):
    level = kwargs.get("level", args[2] if len(args) > 2 else None)
    return (level, getattr(result, "iterations", 0), getattr(result, "method", None))


def _written_bytes(position):
    """Size of the file named by the ``path`` argument at ``position``."""

    def observe(args, kwargs, result):
        return os.path.getsize(kwargs["path"] if "path" in kwargs else args[position])

    return observe


# Extra per-call data some metrics need, taken from arguments and results.
OBSERVERS = {
    "truncation.top_eigenvalue_info": _eigen_note,
    "render.write_svg": _written_bytes(1),
    "render.write_boundary_csv": _written_bytes(0),
    "render.write_support_lines_csv": _written_bytes(0),
}


class Tracer:
    """Records nested call spans for the wrapped functions while installed."""

    def __init__(self):
        self.spans = []  # (name, parent index or -1, start, end)
        self.notes = {}  # span index -> observer output
        self._stack = [-1]
        self._saved = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, notes, stack = self.spans, self.notes, self._stack
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end)
            if observe is not None:
                notes[index] = observe(args, kwargs, result)
            return result

        return traced

    def install(self, modules):
        """Wrap every public function of each ``{layer: module}`` entry."""
        for layer, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                name = f"{layer}.{attr}"
                if name in UNTRACED or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def dump(self):
        """The spans and their notes, ready for ``json.dump``."""
        return {"spans": self.spans, "notes": self.notes}


def wrapper_cost(calls: int = 50_000) -> float:
    """Seconds one traced call adds over a plain call, on an empty function."""

    def empty():
        return None

    traced = Tracer()._wrap("calibration.empty", empty)
    clock = time.perf_counter
    start = clock()
    for _ in range(calls):
        empty()
    plain = clock() - start
    start = clock()
    for _ in range(calls):
        traced()
    return max(0.0, (clock() - start - plain) / calls)


def _median_ms(durations):
    return 1000.0 * statistics.median(durations) if durations else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-function and per-layer figures from the recorded spans."""
    spans = tracer.spans
    layer_of = [span[0].split(".", 1)[0] for span in spans]
    durations = [span[3] - span[2] for span in spans]
    children = [0.0] * len(spans)
    for span, dur in zip(spans, durations):
        if span[1] >= 0:
            children[span[1]] += dur

    def has_ancestor(index, predicate):
        parent = spans[index][1]
        while parent >= 0:
            if predicate(parent):
                return True
            parent = spans[parent][1]
        return False

    by_name = {}
    outer_by_name = {}
    layer_total = dict.fromkeys(LAYERS, 0.0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for index, (name, _parent, _start, _end) in enumerate(spans):
        by_name.setdefault(name, []).append(index)
        if not has_ancestor(index, lambda p: spans[p][0] == name):
            outer_by_name.setdefault(name, []).append(index)
        layer = layer_of[index]
        if not has_ancestor(index, lambda p: layer_of[p] == layer):
            layer_total[layer] += durations[index]
            layer_self[layer] += durations[index] - children[index]

    def seconds(name):
        return sum((durations[i] for i in outer_by_name.get(name, ())), 0.0)

    def calls(name):
        return len(by_name.get(name, ()))

    def ms_p50(name, keep=lambda i: True):
        return _median_ms([durations[i] for i in by_name.get(name, ()) if keep(i)])

    def at_level400(index):
        return tracer.notes.get(index, (None,))[0] == 400

    eigen = "truncation.top_eigenvalue_info"
    eigen_notes = [tracer.notes[i] for i in by_name.get(eigen, ()) if i in tracer.notes]
    scan = "truncation.support_function_via_condition"
    cert = "exact.verify_sextic_resultant_identity"
    csv_writers = ("render.write_boundary_csv", "render.write_support_lines_csv")
    written = [tracer.notes[i] for name in ("render.write_svg",) + csv_writers for i in by_name.get(name, ())]

    values = {
        f"{eigen}.s": seconds(eigen),
        f"{eigen}.calls": calls(eigen),
        f"{eigen}.matvecs": sum(note[1] for note in eigen_notes),
        f"{eigen}.level400.s": sum((durations[i] for i in by_name.get(eigen, ()) if at_level400(i)), 0.0),
        f"{eigen}.level400.ms_p50": ms_p50(eigen, at_level400),
        f"{eigen}.dense.calls": sum(1 for note in eigen_notes if note[2] == "dense"),
        f"{scan}.s": seconds(scan),
        f"{scan}.calls": calls(scan),
        f"{scan}.ms_p50": ms_p50(scan),
        "truncation.symbol_range_grid.s": seconds("truncation.symbol_range_grid"),
        "checks.closedform_checks.s": seconds("checks.closedform_checks"),
        "checks.truncation_checks.s": seconds("checks.truncation_checks"),
        "checks.ellipse_check.s": seconds("checks.ellipse_check"),
        "checks.self_s": layer_self["checks"],
        f"{cert}.s": seconds(cert),
        f"{cert}.ms_p50": ms_p50(cert),
        "exact.resultant.calls": calls("exact.resultant"),
        "exact.resultant.s": seconds("exact.resultant"),
        "exact.self_s": layer_self["exact"],
        "boundary.ellipse_gap.s": seconds("boundary.ellipse_gap"),
        "boundary.ellipse_distance.calls": calls("boundary.ellipse_distance"),
        "boundary.boundary_curve.s": seconds("boundary.boundary_curve"),
        "boundary.envelope_point.calls": calls("boundary.envelope_point"),
        "boundary.classify_point.s": seconds("boundary.classify_point"),
        "boundary.support_function.calls": calls("boundary.support_function"),
        "render.boundary_svg.s": seconds("render.boundary_svg"),
        "render.support_lines_svg.s": seconds("render.support_lines_svg"),
        "render.write_svg.s": seconds("render.write_svg"),
        "render.csv.s": sum(seconds(name) for name in csv_writers),
        "render.bytes": sum(written),
        "cli.self_s": layer_self["cli"],
    }
    for layer in LAYERS:
        values[f"{layer}.s"] = layer_total[layer]
    values["trace.spans"] = len(spans)
    return values
