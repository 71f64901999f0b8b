"""CSV and SVG text of the supporting-line and boundary figures.

Every function here builds text and writes no file; :mod:`fnr.cli` puts the
text on disk.  CSV documents carry a header row and floats printed with 17
significant digits, which round-trips doubles exactly.  SVG documents are
assembled as text, one element per line, in a y-up user coordinate system;
the boundary figure overlays the solid boundary polygon with the dashed full
circles, the dashed full sextic curve, the four switching points and their
dashed supporting lines.  Each family of chords (the supporting lines, the
switching lines, each half of the sextic trace) is clipped to the frame in
one call of :func:`clip_segments`, which runs Liang-Barsky over whole arrays
and keeps, element for element, the float operations of the one-segment
algorithm.  Each element kind is spelled by one template; every attribute
value is a formatted float or a module constant, so no value needs XML
escaping.  The text is ASCII with LF line ends, and it is deterministic:
same inputs, same bytes.
"""

from __future__ import annotations

import math

import numpy as np

from .boundary import Branch, envelope_points, sextic_envelope, support_function, switching_cosine

__all__ = [
    "support_lines_csv",
    "boundary_csv",
    "clip_segments",
    "support_line_segments",
    "support_lines_svg",
    "boundary_svg",
]

# Two-tone figure style: blue curves (solid boundary, dashed auxiliaries) and
# red switching decorations.
PRIMARY_COLOR = "#1f5fa8"
SWITCH_COLOR = "#c23b22"
DASH_PATTERN = "0.06,0.05"
_SEXTIC_TRACE_POINTS = 1200

# A CSV float field: 17 significant digits round-trip every IEEE double.
_FIELD = "%.17g"
_SUPPORT_ROW = f"{_FIELD},{_FIELD}\n"
_BOUNDARY_ROW = f"{_FIELD},{_FIELD},{_FIELD},%s\n"
_BRANCH_LABELS = {branch: branch.value for branch in Branch}


def support_lines_csv(rows) -> str:
    """Rows of (theta, offset) tuples under a ``theta,offset`` header."""
    return "theta,offset\n" + "".join(map(_SUPPORT_ROW.__mod__, rows))


def boundary_csv(points) -> str:
    """A :class:`~fnr.boundary.BoundaryCurve` under a ``theta,x,y,branch`` header."""
    *floats, branches = (column.tolist() for column in points)
    rows = zip(*floats, map(_BRANCH_LABELS.__getitem__, branches))
    return "theta,x,y,branch\n" + "".join(map(_BOUNDARY_ROW.__mod__, rows))


def clip_segments(x0, y0, x1, y1, limit: float) -> tuple:
    """Clip the segments (x0, y0)-(x1, y1) to the square [-limit, limit]^2 (Liang-Barsky).

    The four coordinates broadcast to one shape.  Returns the arrays
    (hx, hy, tx, ty, kept): the clipped head and tail of each segment, and
    whether any of it lies in the square.  A head is the segment's start
    where its parameter stays 0, else x0 + t dx; a tail is its end where its
    parameter stays 1.  Ends of segments not kept are meaningless.
    """
    x0, y0, x1, y1 = np.broadcast_arrays(*(np.asarray(z, dtype=float) for z in (x0, y0, x1, y1)))
    dx, dy = x1 - x0, y1 - y0
    t_lo, t_hi = np.zeros(dx.shape), np.ones(dx.shape)
    kept = np.ones(dx.shape, dtype=bool)
    with np.errstate(all="ignore"):  # unselected ratios and ends may be inf or nan
        for delta, start in ((dx, x0), (dy, y0)):
            for sign in (1.0, -1.0):
                # sign * coordinate <= limit; a parallel segment needs a nonnegative gap
                rate = sign * delta
                gap = limit - sign * start
                kept &= ~((rate == 0.0) & (gap < 0.0))
                ratio = gap / rate
                t_hi = np.where((rate > 0.0) & (ratio < t_hi), ratio, t_hi)
                t_lo = np.where((rate < 0.0) & (ratio > t_lo), ratio, t_lo)
        kept &= t_lo <= t_hi
        head, tail = t_lo == 0.0, t_hi == 1.0
        return (
            np.where(head, x0, x0 + t_lo * dx),
            np.where(head, y0, y0 + t_lo * dy),
            np.where(tail, x1, x0 + t_hi * dx),
            np.where(tail, y1, y0 + t_hi * dy),
            kept,
        )


def support_line_segments(thetas, offsets, limit: float) -> tuple:
    """Chords of the supporting lines inside the bounding square, by :func:`clip_segments`.

    Line k is parametrized as (offset cos - s sin, offset sin + s cos) for s
    within 4 limit of 0; that segment is clipped to the square.
    """
    c, s = np.cos(thetas), np.sin(thetas)
    base_x, base_y = offsets * c, offsets * s
    span = 4.0 * limit
    x0, y0 = base_x + span * s, base_y - span * c
    return clip_segments(x0, y0, base_x - span * s, base_y + span * c, limit)


def _points(xs, ys) -> list:
    """The "x,y" coordinate pairs of a ``points`` attribute."""
    return list(map("%.6f,%.6f".__mod__, zip(xs.tolist(), ys.tolist())))


def _stroke(color: str, width: float, dashed: bool) -> str:
    """Stroke attributes of a line, polyline or polygon, in their fixed order."""
    dash = f' stroke-dasharray="{DASH_PATTERN}"' if dashed else ""
    return f'stroke="{color}" stroke-width="{width:.4f}" fill="none"{dash}'


def _lines(cls: str, segments, stroke: str) -> list:
    """One ``line`` element per kept chord of a :func:`clip_segments` result."""
    *ends, kept = segments
    # The class and stroke hold no "%", so they are baked into the template once
    line = f'    <line class="{cls}" x1="%.6f" y1="%.6f" x2="%.6f" y2="%.6f" {stroke} />'
    return list(map(line.__mod__, zip(*(end[kept].tolist() for end in ends))))


def _path(tag: str, cls: str, points: list, stroke: str) -> str:
    """A ``polyline`` or ``polygon`` element through ``points``, from :func:`_points`."""
    return f'    <{tag} class="{cls}" points="{" ".join(points)}" {stroke} />'


def _circle(cls: str, cx: str, cy: str, radius: str, paint: str) -> str:
    """A ``circle`` element; ``paint`` holds its stroke and fill attributes."""
    return f'    <circle class="{cls}" cx="{cx}" cy="{cy}" r="{radius}" {paint} />'


def _document(limit: float, body: list) -> str:
    """The svg document: a y-up drawing group holding the ``body`` lines."""
    size = 2.0 * limit
    box = f"{-limit:.6f} {-limit:.6f} {size:.6f} {size:.6f}"
    head = f'<svg xmlns="http://www.w3.org/2000/svg" width="560" height="560" viewBox="{box}">'
    # Flip to the mathematical orientation (y grows upward).
    return "\n".join([head, '  <g transform="scale(1,-1)">', *body, "  </g>", "</svg>"]) + "\n"


def support_lines_svg(r: float, thetas, offsets) -> str:
    """Figure: the family of supporting lines, clipped to the frame.

    The frame is the square of half-width 1 + r + 0.5; the envelope of the
    drawn chords silhouettes the numerical range.
    """
    limit = 1.0 + r + 0.5
    segments = support_line_segments(thetas, offsets, limit)
    stroke = _stroke(PRIMARY_COLOR, 0.0035 * limit, False)
    return _document(limit, _lines("support-line", segments, stroke))


def _sextic_polylines(r: float, limit: float, stroke: str) -> list:
    """Polyline elements tracing the full sextic curve (both halves), clipped.

    The curve is swept through its envelope parametrization over the whole
    upper half-range of angles, not only the boundary regime, and clipped to
    the frame; the lower half is its mirror image.  A polyline runs through
    consecutive kept chords and ends at a chord that leaves the frame or
    before one that is dropped.
    """
    n = _SEXTIC_TRACE_POINTS
    delta = 0.5 / n
    thetas = delta + (math.pi - 2.0 * delta) * np.arange(n + 1) / n
    xs, upper = sextic_envelope(thetas, r)
    polylines = []
    for ys in (upper, -upper):
        hx, hy, tx, ty, kept = clip_segments(xs[:-1], ys[:-1], xs[1:], ys[1:], limit)
        leaves = (tx != xs[1:]) | (ty != ys[1:])
        joined = kept[1:] & kept[:-1] & ~leaves[:-1]  # chord k + 1 extends chord k's polyline
        firsts = np.flatnonzero(kept & np.append(True, ~joined))
        lasts = np.flatnonzero(kept & np.append(~joined, True))
        heads, tails = _points(hx[firsts], hy[firsts]), _points(tx, ty)
        for head, first, last in zip(heads, firsts.tolist(), lasts.tolist()):
            points = [head, *tails[first : last + 1]]
            polylines.append(_path("polyline", "aux-sextic", points, stroke))
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
    # The circles put the dash pattern before the fill, unlike _stroke
    paint = f'stroke="{PRIMARY_COLOR}" stroke-width="{thin:.4f}" '
    paint += f'stroke-dasharray="{DASH_PATTERN}" fill="none"'
    body = [_circle("aux-circle", f"{c:.6f}", "0", f"{r:.6f}", paint) for c in (1.0, -1.0)]
    body += _sextic_polylines(r, limit, _stroke(PRIMARY_COLOR, thin, True))

    angle = math.acos(switching_cosine(r))
    switch_thetas = np.array([angle, -angle, math.pi - angle, -(math.pi - angle)])
    segments = support_line_segments(switch_thetas, support_function(switch_thetas, r), limit)
    body += _lines("switch-line", segments, _stroke(SWITCH_COLOR, thin, True))

    thick = _stroke(PRIMARY_COLOR, 0.007 * limit, False)
    body.append(_path("polygon", "boundary", _points(points.x, points.y), thick))

    markers = envelope_points(switch_thetas, r)
    marker_r = f"{0.018 * limit:.6f}"
    paint = f'fill="{SWITCH_COLOR}" stroke="none"'
    for x, y in zip(markers.x.tolist(), markers.y.tolist()):
        body.append(_circle("switch-marker", f"{x:.6f}", f"{y:.6f}", marker_r, paint))
    return _document(limit, body)
