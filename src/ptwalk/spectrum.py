"""Quasienergy bands, PT classification, generalized Zak phases, and windings.

The rescaled operator has unit determinant, so its eigenvalues pair up as
lambda_{k,+-} = d0 -+ i sqrt(1 - d0^2) with quasienergies
eps_{k,+-} = i log(lambda) = +-E_k.  While d0^2 < 1 the spectrum is entirely
real with E_k = arccos(d0) (unbroken symmetry); once d0^2 > 1 the pair splits
into growing and decaying modes and the + band is the growing one, Im E > 0
(with Re E = -pi on the d0 < -1 branch of the principal logarithm).  d0 is an
affine function of cos(2k), so its extrema sit at k = 0 and k = pi/2, which
makes the broken/unbroken classification exact.

Winding numbers are global Berry phases: the sum of the two bands' generalized
Zak phases over the full zone k in [-pi, pi), divided by 2 pi.  Each Zak phase
is computed as a Wilson loop of biorthogonal overlaps <chi_kj | psi_kj+1>,
accumulating the phase link by link so the result converges to the continuum
integral rather than its value mod 2 pi.  That loop is the defining path; the
phase diagram evaluates its closed form over the whole coin-angle grid at once.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import EigenSystem, eig_biorthogonal_grid
from .errors import DegenerateSpectrum, ExceptionalPoint, NonQuantized
from .floquet import CoinParams, d_coefficients, momentum_operator_closed

__all__ = [
    "PTPhase",
    "BandStructure",
    "PhaseDiagramCell",
    "quasienergies",
    "band_structure",
    "pt_classify",
    "zak_phase",
    "winding_number",
    "phase_diagram",
    "min_gap",
    "walk_eigensystem",
]

EP_TOL = 1e-12
QUANTIZATION_TOL = 0.05


class PTPhase(enum.Enum):
    UNBROKEN = "unbroken"
    BROKEN = "broken"


@dataclass(frozen=True)
class BandStructure:
    """Quasienergy E_k = eps_{k,+} sampled on a momentum grid."""

    ks: np.ndarray            # (n_k,)
    energies: np.ndarray      # (n_k,) complex, the + band; the - band is -E_k
    pt_broken_mask: np.ndarray  # (n_k,) bool, d0(k)^2 > 1 (Im E_k != 0)


@dataclass(frozen=True)
class PhaseDiagramCell:
    theta1: float
    theta2: float
    nu: int | None            # None when undefined (broken or band touching)
    pt_broken: bool
    min_gap: float            # min_k (1 - d0^2), negative inside broken regions


def _energy_plus_from_d0(d0: np.ndarray) -> np.ndarray:
    """eps_+ from the real coefficient d0, on or off the unit-circle regime.

    Unbroken: E = arccos(d0) in (0, pi).  Broken: E = i log of the growing
    eigenvalue d0 + sign(d0) sqrt(d0^2 - 1), so Im E > 0 always (and
    Re E = -pi on the d0 < -1 branch).
    """
    d0 = np.asarray(d0, dtype=float)
    broken = d0 * d0 > 1.0
    root = np.sqrt(np.maximum(d0 * d0 - 1.0, 0.0))
    lam_grow = np.where(broken, d0 + np.sign(d0) * root, 1.0).astype(complex)
    return np.where(broken, 1j * np.log(lam_grow), np.arccos(np.clip(d0, -1.0, 1.0)))


def quasienergies(params: CoinParams, k: float) -> tuple[complex, complex]:
    """(eps_+, eps_-) at one momentum, with eps_- = -eps_+ exactly.

    Raises
    ------
    ExceptionalPoint
        If |d0^2 - 1| <= 1e-12 (band touching).
    """
    d0 = float(d_coefficients(params, k)[..., 0].real)
    if abs(d0 * d0 - 1.0) <= EP_TOL:
        raise ExceptionalPoint(f"band touching at k = {k!r} (d0 = {d0!r})")
    e_plus = complex(_energy_plus_from_d0(d0))
    return e_plus, -e_plus


def band_structure(params: CoinParams, ks: np.ndarray) -> BandStructure:
    """Vectorized band survey; exceptional momenta are reported, not raised."""
    ks = np.asarray(ks, dtype=float)
    d0 = d_coefficients(params, ks)[..., 0].real
    return BandStructure(
        ks=ks,
        energies=_energy_plus_from_d0(d0),
        pt_broken_mask=d0 * d0 > 1.0,
    )


def _coin_trig(params: CoinParams) -> tuple[float, float, float, float]:
    """(cos theta1, sin theta1, cos theta2, sin theta2), as in :func:`d_coefficients`."""
    return (
        math.cos(params.theta1),
        math.sin(params.theta1),
        math.cos(params.theta2),
        math.sin(params.theta2),
    )


def _axis_trig(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of each angle with ``math``, so every cell matches its scalar path."""
    angles = thetas.tolist()
    return np.array([math.cos(t) for t in angles]), np.array([math.sin(t) for t in angles])


def _min_gaps(alpha: float, c1, s1, c2, s2) -> np.ndarray:
    """min_k (1 - d0^2) elementwise over broadcast cos/sin of the two angles.

    d0 = alpha (cos 2k c1 c2 - s1 s2) is affine in cos 2k, so its extrema sit
    at cos 2k = +-1 and max_k |d0| = |alpha c1 c2| + |alpha s1 s2|.  The square
    is Python's float power (the C library's pow), not numpy's x*x: the two
    differ in the last bit for about one value in a thousand.
    """
    extreme = np.abs(alpha * c1 * c2) + np.abs(alpha * s1 * s2)
    squares = [e**2 for e in np.ravel(extreme).tolist()]
    return 1.0 - np.reshape(squares, np.shape(extreme))


def _pt_broken(alpha: float, c1, s1, c2, s2, gap, n_k: int) -> np.ndarray:
    """The PT classification elementwise: max(grid max of d0^2, 1 - gap) > 1 + EP_TOL.

    The grid is the n_k-point zone grid of :func:`pt_classify`.  In float
    arithmetic d0 = alpha * (x * c1 * c2 - s1 * s2) is still monotone in
    x = cos 2k, because each rounded step is, so the grid maximum of d0^2 sits
    at the grid's smallest or largest cos 2k.  Two evaluations per cell give
    it bit for bit, without a (cells, n_k) array.
    """
    cos2k = np.cos(2 * np.linspace(-np.pi, np.pi, n_k, endpoint=False))
    d0_lo = alpha * (cos2k.min() * c1 * c2 - s1 * s2)
    d0_hi = alpha * (cos2k.max() * c1 * c2 - s1 * s2)
    grid_max = np.maximum(d0_lo * d0_lo, d0_hi * d0_hi)
    return np.maximum(grid_max, 1.0 - gap) > 1.0 + EP_TOL


def min_gap(params: CoinParams) -> float:
    """min_k (1 - d0^2); zero at a band touching, negative once PT breaks."""
    return float(_min_gaps(params.alpha, *_coin_trig(params)))


def pt_classify(params: CoinParams, n_k: int = 512) -> PTPhase:
    """BROKEN iff d0(k)^2 exceeds 1 somewhere (Im E != 0 for some momentum).

    Exact band touchings (max d0^2 == 1) keep an entirely real spectrum and
    classify as UNBROKEN; they are the transition locus itself.  Checked
    analytically (extrema of d0 sit at cos 2k = +-1) and on the n_k-point
    zone grid, whose maximum is exact from its two extreme values of cos 2k.
    """
    if n_k < 64:
        raise ValueError("n_k must be >= 64")
    broken = _pt_broken(params.alpha, *_coin_trig(params), min_gap(params), n_k)
    return PTPhase.BROKEN if broken else PTPhase.UNBROKEN


def walk_eigensystem(params: CoinParams, k) -> EigenSystem:
    """Biorthogonal eigensystem of Ut_k at every momentum of ``k`` (any shape).

    Raises
    ------
    ExceptionalPoint
        If two eigenvalues meet at some momentum (band touching).
    """
    try:
        return eig_biorthogonal_grid(momentum_operator_closed(params, k))
    except DegenerateSpectrum as exc:
        raise ExceptionalPoint(str(exc)) from exc


def _wilson_phases(params: CoinParams, n_k: int, k_offset: float) -> tuple[float, float]:
    """Zak phases (phi_+, phi_-) of both bands from one eigen-grid."""
    if n_k < 16:
        raise ValueError("n_k must be >= 16")
    if pt_classify(params, max(64, n_k)) is PTPhase.BROKEN:
        raise ExceptionalPoint("PT-broken regime: Zak phase undefined")
    ks = k_offset + np.linspace(-np.pi, np.pi, n_k, endpoint=False)
    grid = walk_eigensystem(params, ks)
    phases = []
    for b in (0, 1):
        links = np.einsum("kc,kc->k", grid.left[:, b, :], np.roll(grid.right[:, b, :], -1, axis=0))
        phases.append(float(-np.angle(links).sum()))
    return phases[0], phases[1]


def zak_phase(
    params: CoinParams,
    band: int,
    n_k: int = 512,
    k_offset: float = 0.0,
) -> float:
    """Generalized Zak phase of one band over the full zone k in [-pi, pi).

    The Wilson-loop phase is accumulated link by link with periodic
    wraparound, so the returned value is the continuum line integral (the
    per-band winding is kept, not reduced mod 2 pi).  ``band`` is +1 or -1.
    """
    if band not in (+1, -1):
        raise ValueError("band must be +1 or -1")
    plus, minus = _wilson_phases(params, n_k, k_offset)
    return plus if band == +1 else minus


def winding_number(params: CoinParams, n_k: int = 512, k_offset: float = 0.0) -> int:
    """Integer winding from the global Berry phase (phi_Z+ + phi_Z-)/2 pi.

    This Wilson loop is the defining path; :func:`phase_diagram` uses a
    closed form that the tests check against it.

    Raises
    ------
    NonQuantized
        If the rounding residual exceeds 0.05 (grid too coarse or parameters
        too close to a phase boundary).
    ExceptionalPoint
        In the PT-broken regime or at a band touching on the grid.
    """
    plus, minus = _wilson_phases(params, n_k, k_offset)
    nu = (plus + minus) / (2 * np.pi)
    rounded = int(round(nu))
    if abs(nu - rounded) >= QUANTIZATION_TOL:
        raise NonQuantized(f"global Berry phase / 2pi = {nu:.4f} is not near an integer")
    return rounded


def phase_diagram(
    theta1s: np.ndarray,
    theta2s: np.ndarray,
    p: float,
    n_k: int = 512,
) -> list[PhaseDiagramCell]:
    """Winding number and PT phase over a coin-parameter grid, as one broadcast.

    The winding is the closed form

        nu = 2 sign(sin theta1)  if |cos theta1 sin theta2| < |sin theta1 cos theta2|,
        nu = 0                   otherwise,

    minus the planar winding of (d2, d3): over the zone they trace twice an
    ellipse centred at (alpha c1 s2, 0) with semi-axes |alpha s1 c2| and
    |alpha c2|, which encloses the origin exactly under the condition above.
    It holds on every unbroken cell.  The winding can only change where
    d2 = d3 = 0, where the sum rule gives d0^2 = 1 + beta^2; for p > 0 every
    such gap-closing line therefore lies inside broken cells, and for p = 0 it
    is the band touching itself.  :func:`winding_number` (the Wilson loop)
    stays the reference that the tests compare against.

    ``pt_broken`` is bit-identical to ``pt_classify(params, max(64, n_k))``:
    d0 is monotone in cos 2k even after rounding, so the grid maximum of d0^2
    comes from the grid's two extreme values of cos 2k (see ``_pt_broken``).
    Cells that are broken or at a band touching (|min_gap| <= 1e-12) carry
    ``nu=None`` rather than a guess.
    """
    theta1s = np.asarray(theta1s, dtype=float)
    theta2s = np.asarray(theta2s, dtype=float)
    if theta1s.size < 32 or theta2s.size < 32:
        raise ValueError("phase diagram resolution must be at least 32x32")
    if n_k < 16:
        raise ValueError("n_k must be >= 16")
    if not (np.isfinite(theta1s).all() and np.isfinite(theta2s).all()):
        raise ValueError("coin angles must be finite")
    alpha = CoinParams(0.0, 0.0, p).alpha
    c1, s1 = (v[:, None] for v in _axis_trig(theta1s))
    c2, s2 = _axis_trig(theta2s)
    gap = _min_gaps(alpha, c1, s1, c2, s2)
    broken = _pt_broken(alpha, c1, s1, c2, s2, gap, max(64, n_k))
    winding = np.where(np.abs(c1 * s2) < np.abs(s1 * c2), np.where(s1 > 0, 2, -2), 0)
    defined = ~broken & (np.abs(gap) > EP_TOL)
    columns = (a.ravel().tolist() for a in (winding, defined, broken, gap))
    return [
        PhaseDiagramCell(theta1=th1, theta2=th2, nu=nu if ok else None, pt_broken=br, min_gap=g)
        for (th1, th2), nu, ok, br, g in zip(
            itertools.product(theta1s.tolist(), theta2s.tolist()), *columns
        )
    ]
