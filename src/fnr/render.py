"""CSV and SVG emitters for the supporting-line and boundary figures.

CSV files carry a header row and floats printed with 17 significant digits,
which round-trips doubles exactly.  SVG documents are assembled as text, one
element per line, in a y-up user coordinate system; the boundary figure
overlays the solid boundary polygon with the dashed full circles, the dashed
full sextic curve, the four switching points and their dashed supporting
lines.  Every attribute value is a formatted float or a module constant, so
no value needs XML escaping.  Every output file of the package is written by
:func:`_write_text`, in ASCII with LF line ends.  All output is deterministic:
same inputs, same bytes.
"""

from __future__ import annotations

import math

import numpy as np

from .boundary import envelope_points, sextic_envelope, support_function, switching_cosine

__all__ = [
    "format_float",
    "write_support_lines_csv",
    "write_boundary_csv",
    "clip_segment",
    "support_line_segment",
    "support_lines_svg",
    "boundary_svg",
    "write_svg",
]

# Two-tone figure style: blue curves (solid boundary, dashed auxiliaries) and
# red switching decorations.
PRIMARY_COLOR = "#1f5fa8"
SWITCH_COLOR = "#c23b22"
DASH_PATTERN = "0.06,0.05"
_SEXTIC_TRACE_POINTS = 1200


def format_float(value: float) -> str:
    """17 significant digits: exact round-trip for IEEE doubles."""
    return format(float(value), ".17g")


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as ASCII with LF line ends: the one file writer."""
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write(text)


def write_support_lines_csv(path, rows) -> None:
    """Rows of (theta, offset) under a ``theta,offset`` header."""
    lines = ["theta,offset"]
    for theta, offset in rows:
        lines.append(f"{format_float(theta)},{format_float(offset)}")
    _write_text(path, "\n".join(lines) + "\n")


def write_boundary_csv(path, points) -> None:
    """A :class:`~fnr.boundary.BoundaryCurve` under a ``theta,x,y,branch`` header."""
    lines = ["theta,x,y,branch"]
    for theta, x, y, branch in zip(*(column.tolist() for column in points)):
        lines.append(f"{format_float(theta)},{format_float(x)},{format_float(y)},{branch.value}")
    _write_text(path, "\n".join(lines) + "\n")


def clip_segment(p0, p1, limit: float):
    """Clip segment p0-p1 to the square [-limit, limit]^2 (Liang-Barsky)."""
    x0, y0 = p0
    x1, y1 = p1
    dx, dy = x1 - x0, y1 - y0
    t_lo, t_hi = 0.0, 1.0
    for delta, start in ((dx, x0), (dy, y0)):
        for sign in (1.0, -1.0):
            # sign * coordinate <= limit
            rate = sign * delta
            gap = limit - sign * start
            if rate == 0.0:
                if gap < 0.0:
                    return None
                continue
            ratio = gap / rate
            if rate > 0.0:
                t_hi = min(t_hi, ratio)
            else:
                t_lo = max(t_lo, ratio)
            if t_lo > t_hi:
                return None
    head = p0 if t_lo == 0.0 else (x0 + t_lo * dx, y0 + t_lo * dy)
    tail = p1 if t_hi == 1.0 else (x0 + t_hi * dx, y0 + t_hi * dy)
    return head, tail


def support_line_segment(theta: float, offset: float, limit: float):
    """Chord of the supporting line inside the bounding square, if any.

    The line is parametrized as (offset cos - s sin, offset sin + s cos);
    the parameter is clipped against both coordinate bands.
    """
    c, s = math.cos(theta), math.sin(theta)
    base = (offset * c, offset * s)
    span = 4.0 * limit
    p0 = (base[0] + span * s, base[1] - span * c)
    p1 = (base[0] - span * s, base[1] + span * c)
    return clip_segment(p0, p1, limit)


def _coords(x: float, y: float) -> str:
    return f"{x:.6f},{y:.6f}"


def _element(tag: str, attrs: dict) -> str:
    """One empty element on its own line, attributes in insertion order."""
    return "    <" + tag + "".join(f' {key}="{value}"' for key, value in attrs.items()) + " />"


def _document(limit: float, body: list) -> str:
    """The svg document: a y-up drawing group holding the ``body`` lines."""
    size = 2.0 * limit
    box = f"{-limit:.6f} {-limit:.6f} {size:.6f} {size:.6f}"
    head = f'<svg xmlns="http://www.w3.org/2000/svg" width="560" height="560" viewBox="{box}">'
    # Flip to the mathematical orientation (y grows upward).
    return "\n".join([head, '  <g transform="scale(1,-1)">', *body, "  </g>", "</svg>"]) + "\n"


def _stroked(tag, attrs, color, width, dashed) -> str:
    """``tag`` with ``attrs`` followed by the stroke attributes, in that order."""
    attrs.update({"stroke": color, "stroke-width": f"{width:.4f}", "fill": "none"})
    if dashed:
        attrs["stroke-dasharray"] = DASH_PATTERN
    return _element(tag, attrs)


def _line(segment, cls, color, width, dashed) -> str:
    (x1, y1), (x2, y2) = segment
    attrs = {"class": cls, "x1": f"{x1:.6f}", "y1": f"{y1:.6f}", "x2": f"{x2:.6f}", "y2": f"{y2:.6f}"}
    return _stroked("line", attrs, color, width, dashed)


def _polyline(points, cls, color, width, dashed, closed=False) -> str:
    attrs = {"class": cls, "points": " ".join(_coords(x, y) for x, y in points)}
    return _stroked("polygon" if closed else "polyline", attrs, color, width, dashed)


def support_lines_svg(r: float, thetas, offsets) -> str:
    """Figure: the family of supporting lines, clipped to the frame.

    The frame is the square of half-width 1 + r + 0.5; the envelope of the
    drawn chords silhouettes the numerical range.
    """
    limit = 1.0 + r + 0.5
    width = 0.0035 * limit
    body = []
    for theta, offset in zip(thetas, offsets):
        segment = support_line_segment(theta, offset, limit)
        if segment is not None:
            body.append(_line(segment, "support-line", PRIMARY_COLOR, width, False))
    return _document(limit, body)


def _sextic_polylines(r: float, limit: float):
    """Clipped polylines tracing the full sextic curve (both halves).

    The curve is swept through its envelope parametrization over the whole
    upper half-range of angles, not only the boundary regime, and clipped to
    the frame; the lower half is its mirror image.
    """
    n = _SEXTIC_TRACE_POINTS
    delta = 0.5 / n
    thetas = delta + (math.pi - 2.0 * delta) * np.arange(n + 1) / n
    xs, ys = sextic_envelope(thetas, r)
    upper = list(zip(xs.tolist(), ys.tolist()))
    polylines = []
    for mirror in (1.0, -1.0):
        run = []
        for i in range(len(upper) - 1):
            p0 = (upper[i][0], mirror * upper[i][1])
            p1 = (upper[i + 1][0], mirror * upper[i + 1][1])
            clipped = clip_segment(p0, p1, limit)
            if clipped is None:
                if len(run) >= 2:
                    polylines.append(run)
                run = []
                continue
            if not run:
                run = [clipped[0]]
            run.append(clipped[1])
            if clipped[1] != p1:
                polylines.append(run)
                run = []
        if len(run) >= 2:
            polylines.append(run)
    return polylines


def boundary_svg(r: float, points) -> str:
    """Figure: solid boundary with the dashed generating curves.

    Overlays, in paint order: the dashed full circles of radius r at (+-1, 0),
    the dashed full sextic curve, the dashed supporting lines through the four
    switching points, the solid boundary polygon, and the switching points as
    filled markers.
    """
    limit = 1.0 + r + 0.5
    thin = 0.0035 * limit
    thick = 0.007 * limit
    body = []
    for centre in (1.0, -1.0):
        attrs = {"class": "aux-circle", "cx": f"{centre:.6f}", "cy": "0", "r": f"{r:.6f}"}
        stroke = {"stroke": PRIMARY_COLOR, "stroke-width": f"{thin:.4f}", "stroke-dasharray": DASH_PATTERN}
        body.append(_element("circle", {**attrs, **stroke, "fill": "none"}))
    for polyline in _sextic_polylines(r, limit):
        body.append(_polyline(polyline, "aux-sextic", PRIMARY_COLOR, thin, True))

    angle = math.acos(switching_cosine(r))
    switch_thetas = [angle, -angle, math.pi - angle, -(math.pi - angle)]
    for theta in switch_thetas:
        segment = support_line_segment(theta, support_function(theta, r), limit)
        if segment is not None:
            body.append(_line(segment, "switch-line", SWITCH_COLOR, thin, True))

    boundary = zip(points.x.tolist(), points.y.tolist())
    body.append(_polyline(boundary, "boundary", PRIMARY_COLOR, thick, False, closed=True))

    markers = envelope_points(np.array(switch_thetas), r)
    marker_r = f"{0.018 * limit:.6f}"
    for x, y in zip(markers.x.tolist(), markers.y.tolist()):
        attrs = {"class": "switch-marker", "cx": f"{x:.6f}", "cy": f"{y:.6f}", "r": marker_r}
        body.append(_element("circle", {**attrs, "fill": SWITCH_COLOR, "stroke": "none"}))
    return _document(limit, body)


def write_svg(svg: str, path) -> None:
    """Write an svg document made by :func:`support_lines_svg` or :func:`boundary_svg`."""
    _write_text(path, svg)
