"""Bands, PT classification, Zak phases, winding numbers, phase diagram."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eig_oracle import zak_phase
from ptwalk.errors import ExceptionalPoint
from ptwalk.floquet import CoinParams
from ptwalk.spectrum import (
    EP_TOL,
    PTPhase,
    band_structure,
    min_gap,
    phase_diagram,
    pt_classify,
    walk_eigensystem,
    winding_number,
)

P36 = 0.36
ALPHA36 = CoinParams(0, 0, P36).alpha
FLAT_REAL = CoinParams(-np.pi / 2, float(np.arcsin(np.cos(np.pi / 6) / ALPHA36)), P36)
FLAT_IMAG = CoinParams(-np.pi / 2, (np.pi - float(np.arccos(1 / ALPHA36))) / 2, P36)


def test_flat_real_band_period_six():
    ks = np.linspace(-np.pi, np.pi, 64, endpoint=False)
    for params in (CoinParams(-np.pi / 2, np.pi / 3, 0.0), FLAT_REAL):
        for k in ks:
            ep, em = walk_eigensystem(params, float(k)).quasienergies
            assert ep == pytest.approx(np.pi / 6, abs=1e-12)
            assert em == -ep


def test_flat_imaginary_band():
    ks = np.linspace(-np.pi, np.pi, 64, endpoint=False)
    for k in ks:
        ep, em = walk_eigensystem(FLAT_IMAG, float(k)).quasienergies
        assert abs(ep.real) < 1e-10
        assert ep.imag > 0
        assert em == -ep


def test_exceptional_point_raises():
    # theta1 + theta2 = 0 at p = 0 closes the gap at k = 0 (d0 = 1)
    params = CoinParams(0.4, -0.4, 0.0)
    with pytest.raises(ExceptionalPoint):
        walk_eigensystem(params, 0.0)


def _extreme(params: CoinParams) -> float:
    """max_k |d0| of one walk, in the operation order min_gap uses."""
    th1, th2 = params.theta1, params.theta2
    a = params.alpha * math.cos(th1) * math.cos(th2)
    b = -params.alpha * math.sin(th1) * math.sin(th2)
    return abs(a) + abs(b)


def test_min_gap_is_its_scalar_formula_bit_for_bit(rng):
    for th1, th2, p in rng.uniform((-np.pi, -np.pi, 0.0), (np.pi, np.pi, 0.95), (20000, 3)):
        params = CoinParams(float(th1), float(th2), float(p))
        e = _extreme(params)
        assert min_gap(params) == 1.0 - e * e


# Python's x**2 (the C library's pow) misses the rounded square of this
# walk's max |d0| by one ulp.
POW_MISSES = CoinParams(0.6824285933795462, -0.6006370749507517, 0.25967413616133167)


def _rounded_gap(x: float) -> float:
    """1 - x^2 with the square taken exactly and rounded once to a float."""
    return 1.0 - float(Fraction(x) ** 2)


def test_min_gap_squares_are_correctly_rounded(rng):
    x = _extreme(POW_MISSES)
    assert 1.0 - x**2 != _rounded_gap(x)
    draws = rng.uniform((-np.pi, -np.pi, 0.0), (np.pi, np.pi, 0.95), (2000, 3))
    for params in [POW_MISSES, *(CoinParams(*map(float, row)) for row in draws)]:
        assert min_gap(params) == _rounded_gap(_extreme(params))
    # The diagram's column, on a grid through the same walk.
    thetas1 = np.append(np.linspace(-np.pi, np.pi, 31, endpoint=False), POW_MISSES.theta1)
    thetas2 = np.append(np.linspace(-np.pi, np.pi, 31, endpoint=False), POW_MISSES.theta2)
    cells = phase_diagram(thetas1, thetas2, POW_MISSES.p)
    want = [_rounded_gap(_extreme(CoinParams(th1, th2, POW_MISSES.p)))
            for th1, th2 in zip(cells.theta1.tolist(), cells.theta2.tolist())]
    assert cells.min_gap.tolist() == want
    assert cells.min_gap[-1] == min_gap(POW_MISSES)


def test_pt_classify_examples():
    assert pt_classify(CoinParams(np.pi / 4, -np.pi / 2, P36)) is PTPhase.UNBROKEN
    assert pt_classify(FLAT_IMAG) is PTPhase.BROKEN
    assert pt_classify(FLAT_REAL) is PTPhase.UNBROKEN


def test_unitary_walks_never_break(rng):
    for _ in range(25):
        th1, th2 = rng.uniform(-np.pi, np.pi, size=2)
        assert pt_classify(CoinParams(th1, th2, 0.0)) is PTPhase.UNBROKEN


def test_band_structure_mask_matches_imaginary_part():
    ks = np.linspace(-np.pi, np.pi, 256, endpoint=False)
    params = CoinParams(0.3, 0.2, 0.5)  # broken near |k| = pi/2 only
    bands = band_structure(params, ks)
    assert bands.pt_broken_mask.any() and not bands.pt_broken_mask.all()
    np.testing.assert_array_equal(
        bands.pt_broken_mask, np.abs(bands.energies.imag) > 1e-10
    )


def hermitian_berry_phase(params: CoinParams, band: int, n_k: int) -> float:
    """Ordinary Wilson loop with unit-norm right eigenvectors (p = 0 oracle)."""
    assert params.p == 0.0
    ks = np.linspace(-np.pi, np.pi, n_k, endpoint=False)
    grid = walk_eigensystem(params, ks)
    b = 0 if band == +1 else 1
    psi = grid.right[:, b, :]
    links = np.einsum("kc,kc->k", psi.conj(), np.roll(psi, -1, axis=0))
    return float(-np.angle(links).sum())


def test_zak_phase_hermitian_oracle():
    params = CoinParams(-np.pi / 2, np.pi / 3, 0.0)
    for band in (+1, -1):
        assert zak_phase(params, band, 1024) == pytest.approx(
            hermitian_berry_phase(params, band, 1024), abs=1e-6
        )
    generic = CoinParams(0.9, 0.7, 0.0)
    for band in (+1, -1):
        assert zak_phase(generic, band, 1024) == pytest.approx(
            hermitian_berry_phase(generic, band, 1024), abs=1e-6
        )


def test_zak_phase_grid_convergence():
    params = CoinParams(-np.pi / 2, np.pi / 3, 0.2)
    coarse = zak_phase(params, +1, 256)
    mid = zak_phase(params, +1, 512)
    fine = zak_phase(params, +1, 1024)
    assert abs(mid - coarse) < 1e-5
    assert abs(fine - mid) < 1e-6


def test_band_sum_is_quantized(rng):
    for params in (
        CoinParams(np.pi / 4, -np.pi / 2, P36),
        CoinParams(-np.pi / 2, np.pi / 3, 0.0),
        FLAT_REAL,
        CoinParams(7 * np.pi / 25, -9 * np.pi / 20, P36),
    ):
        total = zak_phase(params, +1, 1024) + zak_phase(params, -1, 1024)
        assert abs(total / (2 * np.pi) - round(total / (2 * np.pi))) < 1e-6


def test_winding_numbers_of_the_four_marker_points():
    assert winding_number(CoinParams(np.pi / 4, -np.pi / 2, P36)) == 0
    assert winding_number(CoinParams(-np.pi / 2, np.pi / 3, 0.0)) == -2
    assert winding_number(FLAT_REAL) == -2
    assert winding_number(CoinParams(7 * np.pi / 25, -9 * np.pi / 20, P36)) == 0


def wilson_winding(params: CoinParams, n_k: int) -> float:
    """The Wilson-loop reference: the Zak phase band sum over 2 pi."""
    return (zak_phase(params, +1, n_k) + zak_phase(params, -1, n_k)) / (2 * np.pi)


def refined_wilson_winding(params: CoinParams, n_k: int, max_n_k: int = 4096) -> float:
    """:func:`wilson_winding` on grids doubled from n_k until two agree to 0.05.

    Beside a band touching a coarse loop can alias onto a wrong integer: at
    min_gap 3e-4 the 64-point loop gives -4 where every finer one gives -2.
    """
    last = wilson_winding(params, n_k)
    while n_k < max_n_k:
        n_k *= 2
        wilson = wilson_winding(params, n_k)
        if abs(wilson - last) < 0.05:
            return wilson
        last = wilson
    return last


def assert_winding_is_the_cell_nu(params: CoinParams, cell) -> None:
    """winding_number equals the diagram cell's nu, or raises where nu is NaN."""
    if np.isnan(cell.nu):
        with pytest.raises(ExceptionalPoint):
            winding_number(params)
    else:
        assert winding_number(params) == cell.nu


def test_winding_grid_refinement_and_offset_invariance():
    params = CoinParams(-np.pi / 2, np.pi / 3, 0.0)
    for n_k in (256, 512, 1024):
        assert round(wilson_winding(params, n_k)) == winding_number(params)


def test_winding_raises_in_broken_regime():
    with pytest.raises(ExceptionalPoint):
        winding_number(FLAT_IMAG)


def test_phase_diagram_p0_has_no_broken_cells():
    # cell-centered grid: the closing lines themselves carry max d0^2 = 1
    thetas = np.linspace(-np.pi, np.pi, 32, endpoint=False) + np.pi / 32
    cells = phase_diagram(thetas, thetas, 0.0)
    assert not cells.pt_broken.any()
    assert set(cells.nu[~np.isnan(cells.nu)].tolist()) >= {0, -2}


def test_phase_diagram_resolution_precondition():
    with pytest.raises(ValueError):
        phase_diagram(np.zeros(8), np.zeros(8), 0.0)


@pytest.mark.parametrize("axis", [0, 1])
def test_phase_diagram_rejects_a_non_finite_angle(axis):
    thetas = [np.linspace(-np.pi, np.pi, 32, endpoint=False) for _ in range(2)]
    thetas[axis][5] = np.nan
    with pytest.raises(ValueError, match="^coin angles must be finite$"):
        phase_diagram(*thetas, 0.36)


@pytest.mark.parametrize("p", [0.0, P36])
def test_phase_diagram_is_one_record_array_of_every_cell(p):
    # The CLI's default axis (reversed for theta2): at p = 0 some cells sit on
    # a band touching.
    thetas1 = np.linspace(-np.pi, np.pi, 32, endpoint=False)
    thetas2 = thetas1[::-1]
    cells = phase_diagram(thetas1, thetas2, p)
    assert isinstance(cells, np.recarray)
    assert cells.dtype == np.dtype([
        ("theta1", np.float64), ("theta2", np.float64), ("nu", np.float64),
        ("pt_broken", np.bool_), ("min_gap", np.float64),
    ])
    assert len(cells) == thetas1.size * thetas2.size
    assert cells.theta1.tobytes() == np.repeat(thetas1, thetas2.size).tobytes()
    assert cells.theta2.tobytes() == np.tile(thetas2, thetas1.size).tobytes()
    for cell in cells:
        params = CoinParams(float(cell.theta1), float(cell.theta2), p)
        assert cell.min_gap == min_gap(params)
        assert cell.pt_broken == (pt_classify(params) is PTPhase.BROKEN)
        assert_winding_is_the_cell_nu(params, cell)
    assert np.isnan(cells.nu).any() and not np.isnan(cells.nu).all()


def test_phase_diagram_lossy_broken_bands_separate_phases():
    thetas = np.linspace(-np.pi, np.pi, 36, endpoint=False)
    cells = phase_diagram(thetas, thetas, P36)
    broken = cells.pt_broken
    assert broken.any()
    assert np.isnan(cells.nu[broken]).all()
    assert (cells.min_gap[broken] < 1e-12).all()
    # along every grid row (theta1-major, theta2 ascending), a change of
    # defined nu passes through undefined cells
    for row in cells.nu.reshape(len(thetas), len(thetas)).tolist():
        last_nu, pending_undefined = None, False
        for nu in row:
            if math.isnan(nu):
                pending_undefined = True
                continue
            if last_nu is not None and nu != last_nu:
                assert pending_undefined, (
                    f"nu jumped {last_nu} -> {nu} with no boundary cell between"
                )
            last_nu, pending_undefined = nu, False


def test_min_gap_sign_tracks_pt_phase(rng):
    for _ in range(40):
        th1, th2 = rng.uniform(-np.pi, np.pi, size=2)
        params = CoinParams(float(th1), float(th2), P36)
        gap = min_gap(params)
        if abs(gap) < 1e-9:
            continue
        assert (gap < 0) == (pt_classify(params) is PTPhase.BROKEN)


def test_winding_and_zak_phase_raise_at_a_band_touching():
    # sitting on a gap-closing line: no winding is defined, so both fail
    # loudly rather than return a guess
    params = CoinParams(0.4, -0.4 + 1e-9, 0.0)
    assert min_gap(params) == 0.0
    with pytest.raises(ExceptionalPoint):
        winding_number(params)
    with pytest.raises(ExceptionalPoint):
        zak_phase(params, +1, 128)


RES = 32
STEP = 2 * np.pi / RES
# Offsets of 0 or a hair put grid angles on or beside 0 and +-pi/2.
OFFSETS = st.one_of(
    st.floats(-STEP / 2, STEP / 2),
    st.sampled_from([0.0, 1e-13, -1e-13, 1e-9, -1e-9]),
)


@st.composite
def diagram_draws(draw):
    """Grid offsets, p and a few cells, pushed onto |tan theta1| = |tan theta2|.

    With equal offsets the cells (i, i) and (i, i + 16) sit on theta2 = theta1
    (mod pi); with opposite offsets (i, -i) and (i, 16 - i) sit on
    theta2 = -theta1 (mod pi).
    """
    off1 = draw(OFFSETS)
    off2 = draw(st.one_of(OFFSETS, st.just(off1), st.just(-off1)))
    p = draw(st.floats(0.0, 0.95))
    picks = []
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, RES - 1))
        j = draw(st.one_of(
            st.integers(0, RES - 1),
            st.sampled_from([i, i + 16, -i, 16 - i]).map(lambda n: n % RES),
        ))
        picks.append((i, j))
    return off1, off2, p, picks


@settings(derandomize=True, deadline=None, database=None)
@given(diagram_draws())
def test_phase_diagram_against_classification_and_wilson_loop(draw):
    off1, off2, p, picks = draw
    n_k = 64
    grid = np.linspace(-np.pi, np.pi, RES, endpoint=False)
    thetas1, thetas2 = grid + off1, grid + off2
    cells = phase_diagram(thetas1, thetas2, p)
    undefined = cells.pt_broken | (np.abs(cells.min_gap) <= EP_TOL)
    assert (np.isnan(cells.nu) == undefined).all()
    assert (cells.pt_broken == (cells.min_gap < -EP_TOL)).all()
    for i, j in picks:
        cell = cells[RES * i + j]
        params = CoinParams(float(thetas1[i]), float(thetas2[j]), p)
        assert (cell.theta1, cell.theta2) == (params.theta1, params.theta2)
        assert cell.min_gap == min_gap(params)
        assert cell.pt_broken == (pt_classify(params) is PTPhase.BROKEN)
        assert_winding_is_the_cell_nu(params, cell)
        if np.isnan(cell.nu):
            continue
        wilson = refined_wilson_winding(params, n_k)
        if abs(wilson - round(wilson)) < 0.05:  # skip a grid too coarse to quantize
            assert round(wilson) == cell.nu


def test_pt_verdict_is_min_gap_alone_at_the_threshold(rng):
    # Step theta2 ulp by ulp across max d0^2 = 1 + EP_TOL: the diagram, the
    # scalar classification, min_gap and winding_number give one verdict on
    # every cell.
    seen = set()
    for trial in range(16):
        p = float(rng.uniform(0.01, 0.9))
        th1 = float(rng.uniform(-np.pi, np.pi))
        alpha = CoinParams(0.0, 0.0, p).alpha
        # |cos(th1 - th2)| or |cos(th1 + th2)| at threshold: d0 peaks at
        # cos 2k = -1 or at cos 2k = +1.
        mirror = (1, -1)[trial // 4 % 2]
        centre = mirror * th1 - math.acos(math.sqrt(1.0 + EP_TOL) / alpha)
        theta2s = centre + np.arange(-40, 41) * np.spacing(centre)
        cells = phase_diagram(np.full(RES, th1), theta2s, p)
        for cell in cells[: theta2s.size]:
            params = CoinParams(th1, cell.theta2, p)
            broken = pt_classify(params) is PTPhase.BROKEN
            assert cell.pt_broken == (cell.min_gap < -EP_TOL) == broken
            assert np.isnan(cell.nu) == (cell.min_gap <= EP_TOL)
            assert_winding_is_the_cell_nu(params, cell)
            seen.add(broken)
    assert seen == {True, False}


def test_min_gap_just_below_minus_ep_tol_is_broken():
    # 1 - min_gap and 1 + EP_TOL round to the same double here, so a test on
    # max d0^2 called this operator unbroken and gave its cell nu = 0.
    params = CoinParams(2.4957679180609933, 2.2883995805199553, 0.5663349652781536)
    assert min_gap(params) < -EP_TOL
    assert pt_classify(params) is PTPhase.BROKEN
    cell = phase_diagram(np.full(RES, params.theta1), np.full(RES, params.theta2), params.p)[0]
    assert cell.pt_broken and np.isnan(cell.nu)
