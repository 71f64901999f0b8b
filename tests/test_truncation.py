"""Truncation oracle: construction, eigenvalues, condition scan, boundary."""

import functools
import json
import math
import os
import re
import runpy
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import fnr.truncation
from fnr.boundary import Region, classify_point, support_function, switching_cosine
from fnr.checks import closedform_checks, truncation_checks
from fnr.truncation import (
    _PIVMIN,
    OFFSET_STEP,
    EigensolverError,
    boundary_from_truncation,
    support_function_via_condition,
    symbol_range_grid,
    top_eigenvalue,
)

# ---------------------------------------------------------------------------
# Construction: the dense reference the block entries are checked against
# ---------------------------------------------------------------------------


def foguel_truncation(a: complex, level: int) -> np.ndarray:
    """The 2N x 2N compression of the Foguel operator with coupling a, N = ``level``."""
    if level < 1:
        raise ValueError(f"truncation level must be at least 1, got {level}")
    out = np.zeros((2 * level, 2 * level), dtype=complex)
    i = np.arange(level)
    out[i[:-1], i[1:]] = 1.0  # adjoint shift block: superdiagonal
    out[level + i[1:], level + i[:-1]] = 1.0  # shift block: subdiagonal
    out[i, level + i] = complex(a)
    return out


def hermitian_rotation(theta: float, a: complex, level: int) -> np.ndarray:
    """Hermitian part of e^{-i theta} times :func:`foguel_truncation`, as a dense matrix."""
    rotated = np.exp(-1j * theta) * foguel_truncation(a, level)
    # (M + M^†)/2 is hermitian bit-for-bit: entry (j, i) is computed by the
    # conjugate of the identical float operations as entry (i, j).
    return (rotated + rotated.conj().T) / 2.0


def test_smallest_truncation():
    dense = foguel_truncation(1.0, 1)
    assert dense.shape == (2, 2)
    assert np.array_equal(dense, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_shift_block_layout():
    dense = foguel_truncation(1.0, 2)
    # adjoint-shift block carries its single 1 in row 1, column 2 (1-based)
    assert dense[0, 1] == 1.0
    assert dense[1, 0] == 0.0
    # shift block: subdiagonal
    assert dense[3, 2] == 1.0 and dense[2, 3] == 0.0


def test_coupling_block_is_scalar():
    a = 2j
    dense = foguel_truncation(a, 3)
    assert np.array_equal(dense[:3, 3:], a * np.eye(3))
    assert np.count_nonzero(dense[3:, :3]) == 0


@pytest.mark.parametrize("level", [1, 2, 5, 40])
def test_sparsity_and_norm_bound(level):
    a = 1.5 - 0.5j
    dense = foguel_truncation(a, level)
    assert np.count_nonzero(dense) == 3 * level - 2
    assert np.linalg.norm(dense, 2) <= 2.0 + abs(a)


def test_rejects_level_zero():
    with pytest.raises(ValueError):
        foguel_truncation(1.0, 0)
    with pytest.raises(ValueError):
        hermitian_rotation(0.3, 1.0, 0)
    with pytest.raises(ValueError):
        top_eigenvalue(0.3, 1.0, 0)


@pytest.mark.parametrize("theta", [0.0, 0.4, -2.2, math.pi / 2.0])
def test_hermitian_rotation_is_bitwise_hermitian(theta):
    dense = hermitian_rotation(theta, 1.0 + 0.3j, 9)
    adjoint = dense.conj().T
    assert np.array_equal(dense.real, adjoint.real)
    assert np.array_equal(dense.imag, adjoint.imag)


def test_block_entries_match_permuted_dense():
    # In the order (e_1, f_1, e_2, f_2, ...) the rotation is block tridiagonal
    # with A = [[0, conj(c)], [c, 0]] on the diagonal and B = diag(conj(b), b)
    # below it, for the entries (c, b) of each angle.
    level = 13
    order = np.ravel(np.column_stack([np.arange(level), level + np.arange(level)]))
    lower = np.eye(level, k=-1)
    thetas = (-math.pi, -2.2, 0.0, 0.9, math.pi)
    for a in (0.0, 0.7 - 1.1j, 5.0):
        blocks = fnr.truncation._block_entries(np.array(thetas), a, 1.0)
        assert blocks.shape == (2, len(thetas))
        for theta, (c, b) in zip(thetas, blocks.T):
            diagonal = np.array([[0.0, np.conj(c)], [c, 0.0]])
            below = np.diag([np.conj(b), b])
            rebuilt = (
                np.kron(np.eye(level), diagonal)
                + np.kron(lower, below)
                + np.kron(lower.T, below.conj().T)
            )
            permuted = hermitian_rotation(theta, a, level)[np.ix_(order, order)]
            assert np.max(np.abs(rebuilt - permuted)) <= 1e-16


# ---------------------------------------------------------------------------
# Top eigenvalue
# ---------------------------------------------------------------------------


def test_top_eigenvalue_tiny_case():
    assert abs(top_eigenvalue(0.0, 1.0, 1) - 0.5) <= 1e-14


@pytest.mark.parametrize("theta", [0.0, 0.7, 1.5707963267948966, 2.9])
@pytest.mark.parametrize("level", [5, 24, 64])
def test_uncoupled_truncation_has_chebyshev_top(theta, level):
    got = top_eigenvalue(theta, 0.0, level)
    assert abs(got - math.cos(math.pi / (level + 1))) <= 1e-12


def test_top_eigenvalue_matches_dense_eigvalsh():
    # One broadcast call for every (level, a, angle); its elements equal the
    # scalar calls (see test_top_eigenvalue_broadcasts_its_arguments).
    thetas = (-math.pi, -2.1, 0.0, 0.4, 0.9, math.pi / 2.0, math.pi)
    couplings = (0.0, 1.0, 1.5 - 0.5j, 5.0, 100.0, 1e-8)
    levels = np.arange(1, 41)[:, None, None]
    values = top_eigenvalue(np.array(thetas), np.array(couplings)[:, None], levels)
    assert values.shape == (40, len(couplings), len(thetas))
    for level, rows in zip(levels.ravel().tolist(), values):
        for a, row in zip(couplings, rows):
            dense = np.array([hermitian_rotation(theta, a, level) for theta in thetas])
            for got, expected in zip(row.tolist(), np.linalg.eigvalsh(dense)[:, -1].tolist()):
                assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


@pytest.mark.parametrize("offset", [1e-9, -1e-9])
def test_top_eigenvalue_certificate_rejects_a_shifted_bracket(monkeypatch, offset):
    search = fnr.truncation._search

    def shifted(*args):
        lo, hi = search(*args)
        return lo + offset, hi + offset

    monkeypatch.setattr(fnr.truncation, "_search", shifted)
    with pytest.raises(EigensolverError):
        top_eigenvalue(0.9, 1.0, 40)
    with pytest.raises(EigensolverError):
        top_eigenvalue(np.array([-2.0, 0.9, 3.0]), 1.0, 40)
    with pytest.raises(EigensolverError, match="level 5, 40"):
        top_eigenvalue(np.array([-2.0, 0.9, 3.0]), 1.0, np.array([40, 5, 40])[:, None])


def test_top_eigenvalue_takes_arrays_of_angles():
    thetas = np.array([[-math.pi, 0.3], [1.2, 2.5]])
    values = top_eigenvalue(thetas, 1.5 - 0.5j, 30)
    assert values.shape == thetas.shape
    for theta, value in zip(thetas.ravel(), values.ravel()):
        assert value == top_eigenvalue(float(theta), 1.5 - 0.5j, 30)
    with pytest.raises(ValueError, match="finite"):
        top_eigenvalue(np.array([0.0, math.nan]), 1.0, 10)


@pytest.mark.parametrize("a", [0.0, 1.0, 1.5 - 0.5j, 100.0, 1e-8])
def test_level_ladder_equals_one_call_per_level(a):
    # Levels in any order, with 1 and a repeat: a repeated level is allowed
    # and gives the same row twice.
    levels = [30, 1, 7, 64, 7, 2]
    thetas = np.array([-math.pi, -2.1, 0.0, 0.4, math.pi / 2.0, 2.9])
    ladder = top_eigenvalue(thetas, a, np.array(levels)[:, None])
    assert ladder.shape == (len(levels), thetas.size)
    for row, level in zip(ladder, levels):
        assert np.array_equal(row, top_eigenvalue(thetas, a, level))
    assert np.array_equal(ladder[2], ladder[4])
    one_angle = top_eigenvalue(0.4, a, np.array(levels))
    assert one_angle.shape == (len(levels),)
    assert np.array_equal(one_angle, ladder[:, 3])
    empty = top_eigenvalue(np.array([]), a, np.array(levels)[:, None])
    assert empty.shape == (len(levels), 0)


@pytest.mark.parametrize("level", [[], [5, 6], [5, 0], 2.5, [4.0]])
def test_level_ladder_rejects_bad_levels(level):
    # [5, 6] is a well-formed level array that does not broadcast against three angles
    with pytest.raises(ValueError, match="level"):
        top_eigenvalue(np.array([0.3, 0.4, 0.5]), 1.0, level)


def test_top_eigenvalue_broadcasts_its_arguments():
    # The Gershgorin bounds |a|/2 + 1 of these couplings lie in [1, 2), [2, 4)
    # and [4, 8), so the columns of one call carry three different scales.
    couplings = np.array([0.3, 2.0, 7.5, 1.5 - 0.5j])
    bounds = (np.hypot(couplings.real, couplings.imag) / 2.0 + 1.0) * (1.0 + 2.0**-48)
    assert np.unique(np.frexp(bounds)[1]).size == 3
    levels = np.array([30, 1, 64, 7, 30, 2])
    thetas = np.array([-math.pi, -2.1, 0.0, 0.4, math.pi / 2.0])
    values = top_eigenvalue(thetas, couplings[:, None, None], levels[:, None])
    assert values.shape == (couplings.size, levels.size, thetas.size)
    for a, block in zip(couplings.tolist(), values):
        for level, row in zip(levels.tolist(), block):
            assert row.tolist() == [top_eigenvalue(theta, a, level) for theta in thetas.tolist()]
    # Elementwise: angle k with coupling pick[k] at level levels[k]
    pick = [0, 1, 2, 3, 1]
    per_column = top_eigenvalue(thetas, couplings[pick], levels[: thetas.size])
    assert per_column.tolist() == [values[i, k, k] for k, i in enumerate(pick)]


@pytest.mark.parametrize("level", [1, 2, 50, 400, 1600])
def test_axis_top_eigenvalue_is_exact(level):
    # At theta = 0 and pi with real a = 2r the rotation is +-[[T, rI], [rI, T]],
    # T = tridiag(1/2, 0, 1/2), whose spectrum is symmetric, so its top
    # eigenvalue is r + cos(pi/(N+1)).  Most of these cases meet trial values
    # with an exactly zero pivot, so the test also guards the pivot floor.
    rs = np.array([1e-6, 1e-2, 0.5, 1.0, 100.0, 1e4])
    expected = rs[:, None] + math.cos(math.pi / (level + 1))
    got = top_eigenvalue(np.array([0.0, math.pi]), 2.0 * rs[:, None], level)
    assert np.all(np.abs(got - expected) <= 4.0 * np.finfo(float).eps * np.maximum(1.0, expected))


def test_top_eigenvalue_at_the_four_axis_angles_is_in_closed_form():
    """r + mu_1 at theta = 0 and pi, sqrt(r^2 + mu_1^2) at +-pi/2, mu_1 = cos(pi/(N + 1)).

    The formulas.  With r = |a|/2 the rotation has diagonal blocks
    [[0, conj(c)], [c, 0]], |c| = r, and blocks diag(conj(b), b) below them,
    b = e^{-i theta}/2 (``_block_entries``).  Write a vector as (x_k, y_k)
    and put x_k = e^{ik theta} X_k, y_k = e^{-ik theta} Y_k.  Both chains
    become T = (S + S*)/2, with eigenvalues mu_j = cos(j pi/(N + 1)), and
    the coupling of X_k and Y_k becomes conj(c) e^{-2ik theta}.  At theta = 0
    and pi it is constant, and commutes with T, so the eigenvalues are
    mu_j +- r.  At +-pi/2 it is conj(c) (-1)^k; flipping the sign of every
    other X_k turns that chain into -T and the coupling into the constant
    conj(c), so each eigenvector of T spans a block [[-mu_j, conj(c)],
    [c, mu_j]] with eigenvalues +-sqrt(r^2 + mu_j^2).  At N = 1 there is no
    chain and mu_1 = 0 exactly, where float cos(pi/2) would be 6.1e-17.

    The bound, with u = 2^-53.  top_eigenvalue returns the midpoint of a
    bracket at most two ulps wide around the top eigenvalue of its float
    matrix: 1 ulp.  That matrix differs from the exact one at the exact
    angle by the rounding of w = e^{-i theta}, at most 4u (the float angle
    is within 1.1u of 0, pi or +-pi/2, and cos and sin are within an ulp),
    so by 2u in b and, with the complex product's sqrt(5) u, by 6.3 u r in
    c.  By Weyl's inequality the top eigenvalue moves by at most the largest
    row sum, (4 + 6.3 r) u.  The formula's inputs are within (4 + 2 r) u
    (|a|/2 within an ulp, mu_1 within 4u), and its own roundings add 2 ulps.
    So the error is at most 3 ulps + (8 + 8.3 r) u.  Measured: 2 ulps at
    most.  A top eigenvalue lowered by 1e-9 of itself is at least 4e6 ulps
    off.
    """
    rs = np.array([1e-3, 0.1, 0.5, 2.0, 100.0])[:, None, None]
    phases = np.array([0.0, math.pi / 7, 2.0])[:, None]
    levels = np.array([1, 2, 3, 7, 50, 400, 1600])
    thetas = np.array([0.0, math.pi, math.pi / 2, -math.pi / 2])[:, None, None, None]
    a = 2.0 * rs * np.exp(1j * phases)
    got = top_eigenvalue(thetas, a, levels)
    r = np.abs(a) / 2.0
    mu = np.where(levels == 1, 0.0, np.cos(math.pi / (levels + 1)))
    want = np.stack([r + mu, r + mu, np.hypot(r, mu), np.hypot(r, mu)])
    bound = 3.0 * np.spacing(want) + (8.0 + 9.0 * r) * 2.0**-53
    assert got.shape == (4, 5, 3, 7)
    assert np.all(np.abs(got - want) <= bound)


def test_compression_value_approaches_radius_from_below():
    value = top_eigenvalue(0.0, 1.0, 400)
    assert 0 < 1.5 - value < 5e-3


def test_compression_monotone_in_level_and_below_closed_form():
    thetas = np.linspace(-math.pi, math.pi, 9)
    ladder = top_eigenvalue(thetas, 1.0, np.array([10, 20, 40, 80])[:, None])
    closed = support_function(thetas, 0.5)
    previous = None
    for values in ladder:
        assert np.all(values <= closed + 1e-10)
        if previous is not None:
            assert np.all(values >= previous - 1e-12)
        previous = values


def test_convergence_table_script_shows_second_order_decay(tmp_path, capsys):
    script = Path(__file__).resolve().parent.parent / "scripts" / "convergence_table.py"
    out = tmp_path / "table.json"
    main = runpy.run_path(str(script))["main"]
    assert main(["--levels", "25,50,100", "--json", str(out)]) == 0
    capsys.readouterr()
    rows = json.loads(out.read_text())["rows"]
    gaps = [row["max_gap"] for row in rows]
    assert gaps[0] > gaps[1] > gaps[2] > 0
    assert all(1.5 <= row["order"] <= 2.5 for row in rows[1:])


def test_cli_import_leaves_scipy_out():
    src = Path(fnr.truncation.__file__).resolve().parent.parent
    code = "import sys, fnr.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.stdout.strip() == "[]"


def _fresh_cli_run(argv: list, watched: list) -> list:
    """[exit code, the ``watched`` modules loaded] after ``fnr.cli.main(argv)`` in a new interpreter."""
    src = Path(fnr.truncation.__file__).resolve().parent.parent
    code = (
        "import json, sys, fnr.cli; code = fnr.cli.main(json.loads(sys.argv[1])); "
        "print(json.dumps([code, [m for m in json.loads(sys.argv[2]) if m in sys.modules]]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argv), json.dumps(watched)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    return json.loads(result.stdout.splitlines()[-1])


def test_verify_leaves_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma on first use, 12-15 ms of a default verify run;
    # the condition scan builds its knots without it.
    assert _fresh_cli_run(["verify", "--N", "50", "--out", str(tmp_path)], ["numpy.ma"]) == [0, []]


@pytest.mark.parametrize("flags, code", [([], 0), (["--mutate"], 1)], ids=["certify", "mutate"])
def test_resultant_runs_on_the_standard_library(tmp_path, flags, code):
    # The certificate is exact and needs nothing outside the standard library;
    # the float layers and numpy would cost it more start-up than its work.
    watched = ["numpy", "fnr.boundary", "fnr.truncation", "fnr.checks", "fnr.render"]
    argv = ["resultant", "--r", "1/2", *flags, "--out", str(tmp_path)]
    assert _fresh_cli_run(argv, watched) == [code, []]


def test_resultant_loads_neither_dataclasses_nor_inspect(tmp_path):
    # The reports are NamedTuples: importing the two modules for a dataclass
    # would cost every fnr command about 7 ms of start-up.
    argv = ["resultant", "--r", "1/2", "--out", str(tmp_path)]
    assert _fresh_cli_run(argv, ["dataclasses", "inspect"]) == [0, []]


def test_the_figures_leave_the_truncation_route_unimported(tmp_path):
    argv = ["boundary", "--r", "0.5", "--samples", "90", "--out", str(tmp_path)]
    assert _fresh_cli_run(argv, ["fnr.truncation", "fnr.checks"]) == [0, []]


def test_phase_invariance_of_top_eigenvalue():
    for phi in (0.3, math.pi / 7.0, 2.0):
        phase = complex(math.cos(phi), math.sin(phi))
        for theta in (0.0, 1.1, -2.4):
            straight = top_eigenvalue(theta, 1.0, 60)
            rotated = top_eigenvalue(theta, phase, 60)
            assert abs(straight - rotated) <= 1e-10


# The inertia kernel as it stood before its work arrays were allocated once
# per call, kept verbatim: the in-place kernel must perform the same float
# operations and so give the same bits.
def _definite_reference(blocks: np.ndarray, levels: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Whether lam I - H is positive definite, for the trial values lams[j, m] of column m.

    Column m of ``blocks`` holds the :func:`_block_entries` (c, b) of an
    angle, scaled so the Gershgorin bound is at most 1, and H is that angle's
    rotation at level ``levels[m]``; the levels must not increase from one
    column to the next.  By Sylvester's law of inertia lam lies above the
    spectrum exactly when both pivots p and t = s - |q|^2 / p of every
    D_k = [[p, conj(q)], [q, s]] of the block LDL^T recurrence
    D_{k+1} = lam I - A - B D_k^{-1} B^* are positive; here that is
    p' = lam - |b|^2 s / det, s' = lam - |b|^2 p / det and
    q' = b^2 q / det - c.  A pivot at or below ``_PIVMIN`` fails the test, and
    the failed value's later blocks are carried with det = 1 so every entry
    stays finite.  One sweep serves every level: the trailing columns whose
    level the sweep has reached record their verdict and leave it.
    """
    coupling, shift = blocks
    verdict = np.empty(lams.shape, dtype=bool)
    # B_0 = 0 stands above the first block, so the loop starts from D_0 = I
    square = cross = 0.0
    p = s = det = 1.0
    q, definite = np.zeros(lams.shape, dtype=complex), np.ones(lams.shape, dtype=bool)
    width = lams.shape[1]
    for k in range(1, int(levels.max(initial=0)) + 1):
        inv = 1.0 / det
        p, s = lams - square * (s * inv), lams - square * (p * inv)
        # q' = cross (q inv) - c in place, as fresh complex temporaries cost more
        # than the arithmetic; products use FMA, so cross stays the first factor
        q *= inv
        np.multiply(cross, q, out=q)
        q -= coupling
        t = s - (q.real**2 + q.imag**2) / np.maximum(p, _PIVMIN)
        definite &= np.minimum(p, t) > _PIVMIN
        det = np.where(definite, p * t, 1.0)
        if k == 1:
            square, cross = shift.real**2 + shift.imag**2, shift * shift
        if levels[width - 1] == k:  # the last running column ends here
            running = int(np.count_nonzero(levels[:width] > k))
            verdict[:, running:width] = definite[:, running:]
            lams, coupling, square, cross, p, s, det, q, definite = (
                x[..., :running] for x in (lams, coupling, square, cross, p, s, det, q, definite)
            )
            width = running
    return verdict


@pytest.mark.parametrize("a", [0.0, 1e-8, 1e-3, 1.0, 1.5 - 0.5j, 7.5, 1e4])
def test_top_eigenvalue_equals_the_reference_kernel(monkeypatch, a):
    thetas = np.linspace(-math.pi, math.pi, 72, endpoint=False)
    levels = np.array([1, 2, 40, 400])[:, None]
    got = top_eigenvalue(thetas, a, levels)
    monkeypatch.setattr(fnr.truncation, "_definite", _definite_reference)
    assert np.array_equal(got, top_eigenvalue(thetas, a, levels))


def test_definite_verdicts_equal_the_reference_kernel():
    rng = np.random.default_rng(20221018)
    for a in (0.0, 1e-3, 1.5 - 0.5j, 7.5, 1e4):
        bound = (abs(a) / 2.0 + 1.0) * (1.0 + 2.0**-48)
        scale = 2.0 ** -math.frexp(bound)[1]
        blocks = fnr.truncation._block_entries(rng.uniform(-math.pi, math.pi, 40), a, scale)
        levels = np.sort(rng.choice([1, 2, 3, 17, 40, 200], size=40))[::-1].copy()
        lo, hi = fnr.truncation._search(blocks, levels, np.full(40, bound * scale))
        trials = np.vstack([rng.uniform(-1.0, 1.0, (6, 40)), lo, hi, lo + (hi - lo) / 2.0])
        for rows in (trials, trials[-3:-1]):
            verdict = fnr.truncation._definite(blocks, levels, rows)
            assert np.array_equal(verdict, _definite_reference(blocks, levels, rows))
        assert not verdict[0].any() and verdict[1].all()


def test_definite_stops_once_every_trial_has_failed():
    # Every trial lies below the spectrum, so every pivot fails at the first
    # step; a sweep that ran on to the level would take about 30 s.
    blocks = fnr.truncation._block_entries(np.linspace(-3.0, 3.0, 8), 1.5 - 0.5j, 0.5)
    start = time.perf_counter()
    verdict = fnr.truncation._definite(blocks, np.full(8, 10**6), np.full((15, 8), -1.0))
    assert time.perf_counter() - start < 1.0
    assert verdict.shape == (15, 8) and not verdict.any()


@pytest.mark.parametrize("a", [0.0, 1.5 - 0.5j, 1e4])
def test_candidate_count_moves_the_output_by_at_most_one_ulp(monkeypatch, a):
    # The search stops once its bracket is at most two ulps wide (three across
    # a binade edge), so the bracket's width and midpoint depend on the trial
    # grid.  Here the outputs of 7, 15 and 63 candidates differ in up to 86 of
    # the 288 elements, by at most one ulp.
    thetas = np.linspace(-math.pi, math.pi, 72, endpoint=False)
    levels = np.array([1, 2, 40, 400])[:, None]
    expected = top_eigenvalue(thetas, a, levels)
    for candidates in (7, 63):
        monkeypatch.setattr(fnr.truncation, "_CANDIDATES", candidates)
        got = top_eigenvalue(thetas, a, levels)
        assert np.all(np.abs(got - expected) <= np.spacing(np.abs(expected)))


_CLAMPED_BEAM = 4.730040744862704**4
"""First eigenvalue mu of u'''' = mu u on [0, 1] with u = u' = 0 at both ends."""


def test_gap_at_the_switching_angle_follows_the_quartic_law():
    """gap (N+1)^4 8r / mu = 1 at the switching angle, within spread + 2 ulp(h) / gap.

    With c = cos theta, s = sin theta and x = sin^2 phi, the top of the
    symbol's numerical range expands as
    lam_phi = c cos phi + sqrt(r^2 + s^2 x)
            = (c + r) + x (s^2 - r c) / (2r) - x^2 (c + s^4 / r^3) / 8 + O(x^3).
    At the switching angle c (c + r) = 1, so s^2 = 1 - c^2 = r c: the x term
    vanishes and the x^2 term is -c (c + r) / (8r) = -1 / (8r).  With
    x = phi^2 + O(phi^4), lam_phi = h - phi^4 / (8r) + O(phi^6): a quartic
    maximum, not a quadratic one.  The compression to N blocks sees it as
    the lowest eigenvalue of (1 / 8r) d^4/dx^4 on [0, N + 1] with clamped
    ends, so the gap h - lam_N tends to mu / (8r (N + 1)^4).

    The bound has two parts.  The spread 1e-3 bounds the finite-N error of
    the law: measured |ratio - 1| is 9.6e-4, 2.0e-4 and 7.1e-5 at
    r = 0.1, 0.5 and 2 for N = 400, and 5.8e-5, 6.6e-6 and 6.5e-5 for
    N = 1600.  The rounding term covers the computed gap: h and the top
    eigenvalue each carry about an ulp of h of rounding, so the gap, and
    with it the ratio, carries a relative error of about 2 ulp(h) / gap;
    that is 1.9e-4 at r = 2 and N = 1600 and below 2.4e-5 elsewhere.
    Lowering the top eigenvalue by 1e-9 moves the ratio by 0.04 at r = 0.1
    and N = 400, and by 0.2 to 210 elsewhere.
    """
    rs = np.array([0.1, 0.5, 2.0])
    thetas = np.array([math.acos(switching_cosine(r)) for r in rs.tolist()])
    levels = np.array([400, 1600])[:, None]
    h = np.array([support_function(theta, r) for theta, r in zip(thetas.tolist(), rs.tolist())])
    gaps = h - top_eigenvalue(thetas, 2.0 * rs, levels)
    ratios = gaps * (levels + 1.0) ** 4 * 8.0 * rs / _CLAMPED_BEAM
    assert np.all(np.abs(ratios - 1.0) <= 1e-3 + 2.0 * np.spacing(h) / gaps)


# ---------------------------------------------------------------------------
# Brute-force symbol range and the condition scan
# ---------------------------------------------------------------------------


def test_symbol_range_grid_examples():
    lo, hi = symbol_range_grid(2.0, 0.0)
    assert type(lo) is type(hi) is float
    assert abs(lo + 6.0) <= 1e-7
    assert abs(hi - 10.0) <= 1e-7

    lo, hi = symbol_range_grid(1.5, math.pi / 2.0)
    assert abs(lo + 2.0) <= 1e-7
    assert abs(hi) <= 1e-7


def test_symbol_range_grid_takes_an_array_of_offsets():
    lams = np.array([1.05, 1.2, 1.7, 2.5, -0.3])
    for theta in (0.0, 0.7, math.pi / 2.0, -2.4):
        lo, hi = symbol_range_grid(lams, theta)
        assert lo.shape == hi.shape == lams.shape
        for k, lam in enumerate(lams.tolist()):
            assert (lo[k], hi[k]) == symbol_range_grid(lam, theta)
    for ends in symbol_range_grid(np.array([]), 0.3):
        assert ends.shape == (0,)
    with pytest.raises(ValueError, match="finite"):
        symbol_range_grid(np.array([1.5, math.nan, 2.0]), 0.3)
    with pytest.raises(ValueError, match="one-dimensional"):
        symbol_range_grid(np.ones((2, 2)), 0.3)


def test_symbol_range_grid_takes_an_array_of_angles():
    thetas = np.array([0.0, 0.7, math.pi / 2.0, -2.4, 0.7])
    for lam in (1.2, np.array([1.05, 1.7, 2.5, -0.3])):
        lo, hi = symbol_range_grid(lam, thetas)
        assert lo.shape == hi.shape == thetas.shape + np.shape(lam)
        for k, theta in enumerate(thetas.tolist()):
            single_lo, single_hi = symbol_range_grid(lam, theta)
            assert np.array_equal(lo[k], single_lo) and np.array_equal(hi[k], single_hi)
    for ends in symbol_range_grid(1.2, np.array([])):
        assert ends.shape == (0,)
    for ends in symbol_range_grid(np.array([1.5, 2.0]), np.array([])):
        assert ends.shape == (0, 2)
    with pytest.raises(ValueError, match="one-dimensional"):
        symbol_range_grid(1.2, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="finite"):
        symbol_range_grid(1.2, np.array([0.3, math.nan]))


_TABLE_PAIR_BYTES = 2 * 100_000 * 8
"""cos phi and cos 2phi at the 100 000 samples of the brute-force check."""


def _traced_closedform_checks() -> tuple:
    """Bytes still held after closedform_checks returns, and its peak, under tracemalloc."""
    tracemalloc.start()
    try:
        closedform_checks(0.5)
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_closedform_checks_drop_the_circle_tables_before_their_outer_products():
    # The suite's peak, 5.38 MiB, falls inside the brute-force check, whose
    # 100 000-sample tables must be freed when symbol_range_grid returns, and
    # support-consistency must take its margins 64 rows at a time: whole
    # 720 x 720 outer products raise the peak to 8.10 MiB.  A cache that kept
    # the tables would not raise the peak, so what is still held after the
    # call is bounded too: about 40 kB, against 1.64 MB with a memoized table.
    held, peak = _traced_closedform_checks()
    assert peak <= 6 * 2**20
    assert held < _TABLE_PAIR_BYTES


def test_memory_guard_sees_a_memoized_circle_table(monkeypatch):
    monkeypatch.setattr(fnr.truncation, "_circle", functools.cache(fnr.truncation._circle))
    held, peak = _traced_closedform_checks()
    assert peak <= 6 * 2**20
    assert held >= _TABLE_PAIR_BYTES


def test_condition_scan_examples():
    assert abs(support_function_via_condition(0.0, 0.5) - 1.5) <= 1e-4
    assert abs(support_function_via_condition(math.pi / 2.0, 0.5) - math.sqrt(1.25)) <= 1e-4
    theta = math.pi / 3.0
    assert abs(
        support_function_via_condition(theta, 0.5) - support_function(theta, 0.5)
    ) <= 1e-4


def test_condition_scan_takes_an_array_of_angles():
    thetas = np.array([0.0, math.pi / 2.0, -2.0 * math.e / 3.0, 2.0**-0.5, 0.0])
    for r in (1.0, 0.25, 0.5):
        values = support_function_via_condition(thetas, r)
        assert isinstance(values, np.ndarray) and values.shape == thetas.shape
        for theta, value in zip(thetas.tolist(), values.tolist()):
            assert value == support_function_via_condition(theta, r)
    assert support_function_via_condition(np.array([]), 0.5).shape == (0,)
    with pytest.raises(ValueError, match="one-dimensional"):
        support_function_via_condition(np.zeros((2, 2)), 0.5)
    with pytest.raises(ValueError, match="finite"):
        support_function_via_condition(np.array([0.3, math.nan]), 0.5)


def test_condition_scan_rejects_a_radius_whose_square_overflows():
    # Above sqrt(DBL_MAX) r^2 is inf, and the offset index was ceil(-inf).
    limit = math.sqrt(sys.float_info.max)
    assert support_function_via_condition(0.3, 1e154) == 1e154
    assert support_function_via_condition(0.3, limit) == limit
    for r in (math.nextafter(limit, math.inf), 1e155, 1e160, 1e200, sys.float_info.max):
        with pytest.raises(ValueError, match=re.escape(f"at most {limit!r},")):
            support_function_via_condition(np.array([0.0, 0.3]), r)


def test_truncation_checks_run_one_search_and_one_circle_table_per_radius(monkeypatch):
    calls = {"_search": 0, "_circle": []}
    search, circle = fnr.truncation._search, fnr.truncation._circle

    def counted_search(*args):
        calls["_search"] += 1
        return search(*args)

    def counted_circle(samples):
        calls["_circle"].append(samples)
        return circle(samples)

    monkeypatch.setattr(fnr.truncation, "_search", counted_search)
    monkeypatch.setattr(fnr.truncation, "_circle", counted_circle)
    results = truncation_checks(1.0, 50)
    assert all(result.passed for result in results)
    assert calls == {"_search": 1, "_circle": [fnr.truncation._F_SAMPLES] * 3}


def _offset_grid(r, step):
    """The descending offsets (r + 2) - step k that cover [1, r + 2]."""
    return (r + 2.0) - step * np.arange(int(math.floor((r + 1.0) / step)) + 2)


def _row_hits(theta, r, lams, f_samples=10_001):
    """Whether 2 (r^2 - lam^2) lies in the sampled range of f, one entry per offset."""
    phi = 2.0 * math.pi * np.arange(f_samples) / f_samples
    cos_phi = np.cos(phi)
    cos_two_phi = np.cos(2.0 * phi)
    cos_theta = math.cos(theta)
    cos_two_theta = math.cos(2.0 * theta)
    table = (
        cos_two_phi[None, :]
        + cos_two_theta
        - 4.0 * cos_theta * lams[:, None] * cos_phi[None, :]
    )
    target = 2.0 * (r * r - lams * lams)
    return (target >= table.min(axis=1)) & (target <= table.max(axis=1))


def _exhaustive_scan(theta, r, grid, chunk=256):
    """The condition scan: every offset's row, in grid order, up to the first hit."""
    for start in range(0, grid.size, chunk):
        lams = grid[start : start + chunk]
        hits = np.flatnonzero(_row_hits(theta, r, lams))
        if hits.size:
            return float(lams[hits[0]])
    raise AssertionError(f"no offset qualifies at theta = {theta}, r = {r}")


_DUAL_ROUTE_ANGLES = np.linspace(0.0, math.pi / 2.0, 24)
"""The angles at which the ``dual-route`` check runs the condition route."""


def test_condition_route_returns_the_first_offset_the_scan_admits():
    # At the 72 pairs of dual-route, the value is a grid offset whose row
    # passes the scan's test, and the next offset up fails it
    for r in (0.25, 0.5, 1.0):
        values = support_function_via_condition(_DUAL_ROUTE_ANGLES, r)
        for theta, value in zip(_DUAL_ROUTE_ANGLES.tolist(), values.tolist()):
            k = round(((r + 2.0) - value) / OFFSET_STEP)
            assert k >= 1 and value == (r + 2.0) - OFFSET_STEP * k
            above = (r + 2.0) - OFFSET_STEP * (k - 1)
            assert _row_hits(theta, r, np.array([value, above])).tolist() == [True, False]


def test_condition_route_equals_the_exhaustive_scan_on_a_coarse_grid(monkeypatch):
    # Off theta = 0 and pi, where the largest root r + 1 lands on a grid
    # offset and the root and the row test may split the tie
    monkeypatch.setattr(fnr.truncation, "OFFSET_STEP", 1e-2)
    thetas = np.array([math.pi / 2.0, -math.pi / 2.0, 2.0**-0.5, -2.0 * math.e / 3.0, 0.3, 2.5])
    for r in (0.01, 0.5, 3.0, 10.0):
        grid = _offset_grid(r, 1e-2)
        expected = [_exhaustive_scan(theta, r, grid) for theta in thetas.tolist()]
        assert support_function_via_condition(thetas, r).tolist() == expected


def test_condition_route_snaps_to_the_largest_grid_offset_at_or_below_its_root(monkeypatch):
    # With one sample, cos phi = c, the root at theta = 0 is exactly c + r, so
    # it can be put on a grid offset or next to one, where the division that
    # finds k lands on either side and a fix-up decides
    def one_sample(c):
        return lambda samples: (np.array([2.0 * c * c - 1.0]), np.array([c]))

    rng = np.random.default_rng(21)
    for r in np.concatenate([[0.25, 0.5, 1.0, 3.0], 10.0 ** rng.uniform(-3, 8, 60)]).tolist():
        top = r + 2.0
        for k in rng.integers(10_000, 30_001, 3).tolist():
            offset = top - OFFSET_STEP * k
            for c in (offset - r, math.nextafter(offset - r, -2.0), math.nextafter(offset - r, 2.0)):
                monkeypatch.setattr(fnr.truncation, "_circle", one_sample(c))
                window = top - OFFSET_STEP * np.arange(k - 3, k + 4)
                assert window[0] > c + r
                expected = float(window[window <= c + r].max())
                assert support_function_via_condition(0.0, r) == expected


def _traced_peak(function, *args) -> int:
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_condition_route_holds_its_step_at_large_radii():
    # The route builds no offset grid, which would hold (r + 1) / OFFSET_STEP
    # offsets: what it allocates does not grow with r
    for r in (1e2, 1e4, 1e6, 1e8):
        values = support_function_via_condition(_DUAL_ROUTE_ANGLES, r)
        assert np.max(np.abs(values - support_function(_DUAL_ROUTE_ANGLES, r))) <= OFFSET_STEP
    small = _traced_peak(support_function_via_condition, _DUAL_ROUTE_ANGLES, 1.0)
    assert _traced_peak(support_function_via_condition, _DUAL_ROUTE_ANGLES, 1e8) <= small


def test_condition_route_at_radius_zero_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = support_function_via_condition(_DUAL_ROUTE_ANGLES, 0.0)
    assert np.max(np.abs(values - support_function(_DUAL_ROUTE_ANGLES, 0.0))) <= OFFSET_STEP


@pytest.mark.parametrize(
    "theta, r",
    [(math.nan, 0.5), (math.inf, 0.5), (0.0, math.nan), (0.0, math.inf), (0.0, -0.5)],
)
def test_condition_scan_rejects_non_finite_or_negative_input(theta, r):
    with pytest.raises(ValueError, match="finite"):
        support_function_via_condition(theta, r)


# ---------------------------------------------------------------------------
# Boundary reconstruction
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def straight_boundary():
    return boundary_from_truncation(1.0, 200, 360)


def test_truncation_boundary_stays_inside_the_range(straight_boundary):
    assert straight_boundary.shape == (360, 2)
    for x, y in straight_boundary:
        assert classify_point(x, y, 0.5, tol=1e-2) is not Region.EXTERIOR


def test_uncoupled_truncation_boundary_hugs_the_unit_circle():
    points = boundary_from_truncation(0.0, 200, 360)
    radii = np.hypot(points[:, 0], points[:, 1])
    assert np.all(radii < 1.0)
    assert np.all(1.0 - radii < 1e-3)


def test_truncation_boundary_phase_invariance(straight_boundary):
    phase = complex(math.cos(1.0), math.sin(1.0))
    rotated = boundary_from_truncation(phase, 200, 360)
    assert np.max(np.abs(straight_boundary - rotated)) <= 1e-8


def test_truncation_boundary_input_validation():
    with pytest.raises(ValueError):
        boundary_from_truncation(1.0, 49, 360)
    with pytest.raises(ValueError):
        boundary_from_truncation(1.0, 200, 89)
