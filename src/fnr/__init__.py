"""Numerical range of Foguel operators with scalar coupling.

Three independent routes to the same convex region, cross-validated:

* :mod:`fnr.boundary` -- closed-form support function, circle/sextic boundary
  arcs, switching points, membership tests, and the deviation from the
  comparison ellipse;
* :mod:`fnr.truncation` -- finite matrix compressions whose top eigenvalues
  approach the support function from below, plus the underlying
  singularity condition, solved sample by sample on the circle;
* :mod:`fnr.exact` -- exact rational arithmetic reproducing the elimination
  that produces the sextic, certified against the resultant's closed-form
  cofactor with exact held-out validation.

Each public name is imported from the module that defines it, as in
``from fnr.boundary import support_function``.

The ``fnr`` command line tool renders the supporting-line and boundary
figures and runs the verification suites; see :mod:`fnr.cli`.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
