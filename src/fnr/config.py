"""Shared tolerance configuration.

Every tolerance used by the geometric checks lives in one record so that the
library, the CLI and the test suite agree on what "equal" means.  Algebraic
identities (branch continuity, circle equations, interval consistency) are
held to an absolute 1e-12; the sextic residual is checked relative to its
largest monomial because the curve's coefficients span several orders of
magnitude at moderate radii.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Tolerance record shared by library checks, CLI and tests."""

    algebraic: float = 1e-12
    """Absolute slack for closed-form identities evaluated in floats."""

    envelope: float = 1e-8
    """Relative slack for the sextic residual at envelope points."""

    support: float = 1e-10
    """Slack for the supporting half-plane inequalities."""

    convexity: float = 1e-10
    """Slack for cross products of consecutive boundary edges."""

    convergence: float = 5e-3
    """Largest admissible support gap of the level-400 truncation."""


DEFAULT_TOLERANCES = Tolerances()
