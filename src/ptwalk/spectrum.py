"""Quasienergy bands, the biorthogonal eigensystem, PT classification, and windings.

The rescaled operator has unit determinant, so its eigenvalues pair up as
lambda_{k,+-} = e^{-+iE_k} = d0 -+ i sin E_k with quasienergies
eps_{k,+-} = +-E_k.  While d0^2 < 1 the spectrum is entirely real with
E_k = arccos(d0) (unbroken symmetry); once d0^2 > 1 the pair splits into
growing and decaying modes and the + band is the growing one, Im E > 0 (with
Re E = -pi on the d0 < -1 branch of the principal logarithm).  Every path
takes E from d0 by that one rule, the biorthogonal eigensystem
(:func:`walk_eigensystem`) included, which is built in closed form from the
d coefficients; :func:`lower_band_kets` runs the same solve for the
minus-band kets alone.  d0 is an affine function of cos(2k), so its extrema
sit at k = 0 and k = pi/2, which makes the broken/unbroken classification
exact.

Winding numbers are global Berry phases: the sum of the two bands' generalized
Zak phases over the full zone k in [-pi, pi), divided by 2 pi.  One closed form
in the coin angles gives them (:func:`winding_number` for one operator,
:func:`phase_diagram` over a grid).  The diagram is one numpy record array,
a record per cell with the columns ``theta1``, ``theta2``, ``nu`` (a float,
NaN where the winding is undefined), ``pt_broken`` and ``min_gap``.  The
tests check the closed form against the Wilson loop of biorthogonal overlaps
<chi_kj | psi_kj+1> over :func:`walk_eigensystem`, kept with them as the
oracle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import PAULI, SIGMA_0, EigenSystem
from .errors import ExceptionalPoint
from .floquet import CoinParams, d_coefficients

__all__ = [
    "PTPhase",
    "BandStructure",
    "band_structure",
    "pt_classify",
    "winding_number",
    "phase_diagram",
    "min_gap",
    "walk_eigensystem",
    "lower_band_kets",
]

EP_TOL = 1e-12
GAP_TOL = 1e-9              # smallest eigenvalue gap |lambda_+ - lambda_-| a solve accepts


class PTPhase(enum.Enum):
    UNBROKEN = "unbroken"
    BROKEN = "broken"


@dataclass(frozen=True)
class BandStructure:
    """Quasienergy E_k = eps_{k,+} sampled on a momentum grid."""

    ks: np.ndarray            # (n_k,)
    energies: np.ndarray      # (n_k,) complex, the + band; the - band is -E_k
    pt_broken_mask: np.ndarray  # (n_k,) bool, d0(k)^2 > 1 (Im E_k != 0)


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


def band_structure(params: CoinParams, ks: np.ndarray) -> BandStructure:
    """Vectorized band survey; exceptional momenta are reported, not raised."""
    ks = np.asarray(ks, dtype=float)
    d0 = d_coefficients(params, ks)[..., 0].real
    return BandStructure(
        ks=ks,
        energies=_energy_plus_from_d0(d0),
        pt_broken_mask=d0 * d0 > 1.0,
    )


def _axis_trig(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of each angle with ``math``, so every cell matches its scalar path."""
    angles = thetas.tolist()
    return np.array([math.cos(t) for t in angles]), np.array([math.sin(t) for t in angles])


def _min_gaps(alpha: float, c1, s1, c2, s2) -> np.ndarray:
    """min_k (1 - d0^2) elementwise over broadcast cos/sin of the two angles.

    d0 = alpha (cos 2k c1 c2 - s1 s2) is affine in cos 2k, so its extrema sit
    at cos 2k = +-1 and max_k |d0| = |alpha c1 c2| + |alpha s1 s2|.  The square
    is one IEEE multiply, so it is correctly rounded; Python's ``x**2`` (the C
    library's pow) is not, and misses it in the last bit for about one value
    in a thousand.
    """
    extreme = np.abs(alpha * c1 * c2) + np.abs(alpha * s1 * s2)
    return 1.0 - extreme * extreme


def min_gap(params: CoinParams) -> float:
    """min_k (1 - d0^2); zero at a band touching, negative once PT breaks."""
    return float(_min_gaps(params.alpha, *params.trig))


def pt_classify(params: CoinParams) -> PTPhase:
    """BROKEN iff min_gap < -1e-12: d0(k)^2 exceeds 1 somewhere (Im E != 0).

    :func:`min_gap` is exact in closed form (the extrema of d0 sit at
    cos 2k = +-1), so no momentum grid enters the verdict.  Band touchings
    (max d0^2 == 1 to within 1e-12) keep an entirely real spectrum and
    classify as UNBROKEN; they are the transition locus itself.
    """
    return PTPhase.BROKEN if min_gap(params) < -EP_TOL else PTPhase.UNBROKEN


def _solve(params: CoinParams, k) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(eps, lambda, mu, h.sigma) at the momenta ``k`` flattened: the solve
    that :func:`walk_eigensystem` and :func:`lower_band_kets` share.

    Numpy's 0-d (scalar) arithmetic rounds differently from its array loops,
    so every batch, shape () included, is solved as a flat 1-D batch.
    """
    k = np.asarray(k, dtype=float)
    if not np.isfinite(k).all():
        raise ValueError("momenta must be finite")
    d = d_coefficients(params, k.reshape(-1))
    d0 = d[:, 0].real
    energy = _energy_plus_from_d0(d0)
    eps = np.stack([energy, -energy], axis=-1)
    lam = np.exp(-1j * eps)
    h = d[:, 1:]
    mu = np.where(d0 < -1.0, -1.0, 1.0) * np.sqrt(np.einsum("kj,kj->k", h, h))
    gap = np.minimum(np.abs(lam[:, 0] - lam[:, 1]), 2 * np.abs(mu))
    if np.any(gap <= GAP_TOL):
        raise ExceptionalPoint(
            f"eigenvalue gap {gap.min():.3e} <= {GAP_TOL:.1e} somewhere on the grid"
        )
    return eps, lam, mu, np.einsum("kj,jab->kab", h, PAULI[1:])


def _unit_kets(proj: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The larger-norm column of each projector by |entry| sums (``size``),
    a tie keeping the first, as argmax; unit-norm."""
    col = (size[..., 0, 1] + size[..., 1, 1] > size[..., 0, 0] + size[..., 1, 0])[..., None]
    right = np.where(col, proj[..., 1], proj[..., 0])
    return right / np.linalg.norm(right, axis=-1, keepdims=True)


def walk_eigensystem(params: CoinParams, k) -> EigenSystem:
    """Biorthogonal eigensystem of Ut_k at every momentum of ``k`` (any shape).

    Closed form from the d coefficients, with no general 2x2 solve:
    Ut_k = d0 - i h.sigma with h = (d1, d2, d3), so the eigenvectors are those
    of h.sigma.  The + band has eps_+ = E from :func:`_energy_plus_from_d0`
    and lambda_+ = e^{-iE}.  Its eigenvalue of h.sigma is mu = sin E, so that
    lambda_+ = d0 - i mu on every branch: mu^2 = h.h = 1 - d0^2, and mu is
    the principal sqrt(h.h) except on the d0 < -1 branch, where it is minus
    that.  It is taken from h.h rather than from d0, so that the projectors
    match h.sigma to rounding next to a band touching.  Each band's vectors
    are the larger-norm column (ket) and row (bra) of its spectral projector
    (1 + h.sigma / m) / 2, m = +-mu, whose scale also fixes their phase; right
    vectors are unit-norm and left vectors rescaled so that
    <chi_b|psi_b> = 1.  Each momentum's result does not depend on the batch
    it sits in.  The solve up to h.sigma, with its gap check, is the one
    :func:`lower_band_kets` runs, so the two give the same minus-band ket.

    Raises
    ------
    ValueError
        If a momentum is not finite.
    ExceptionalPoint
        If the eigenvalue gap |lambda_+ - lambda_-| = 2 |sin E| = 2 |mu|
        (the smaller of the two roundings) is at or below ``GAP_TOL`` at some
        momentum (band touching).
    """
    batch = np.shape(k)
    eps, lam, mu, h_sigma = _solve(params, k)
    m = np.stack([mu, -mu], axis=1)[..., None, None]
    proj = (SIGMA_0 + h_sigma[:, None] / m) / 2
    size = np.abs(proj)
    right = _unit_kets(proj, size)
    # The larger-norm row by the same rule.
    row = (size[..., 1, 0] + size[..., 1, 1] > size[..., 0, 0] + size[..., 0, 1])[..., None]
    left = np.where(row, proj[..., 1, :], proj[..., 0, :])
    left = left / np.einsum("kbc,kbc->kb", left, right)[..., None]
    vec, mat = batch + (2,), batch + (2, 2)
    return EigenSystem(lam.reshape(vec), eps.reshape(vec), right.reshape(mat), left.reshape(mat))


def lower_band_kets(params: CoinParams, k) -> np.ndarray:
    """The minus-band kets of Ut_k at every momentum of ``k``, shape k.shape + (2,).

    Bit for bit ``walk_eigensystem(params, k).right[..., 1, :]``, with the
    same errors: the same solve, then only the minus-band projector
    (1 + h.sigma / (-mu)) / 2 and its larger-norm column, unit-norm.  The
    plus band, the bras and their normalization are not formed.
    """
    batch = np.shape(k)
    _, _, mu, h_sigma = _solve(params, k)
    proj = (SIGMA_0 + h_sigma / (-mu)[:, None, None]) / 2
    return _unit_kets(proj, np.abs(proj)).reshape(batch + (2,))


def _windings(c1, s1, c2, s2) -> np.ndarray:
    """The closed-form winding of :func:`phase_diagram`, elementwise over cos/sin."""
    return np.where(np.abs(c1 * s2) < np.abs(s1 * c2), np.where(s1 > 0, 2, -2), 0)


def winding_number(params: CoinParams) -> int:
    """The closed-form winding of :func:`phase_diagram`: bit for bit its cell's ``nu``.

    Raises
    ------
    ExceptionalPoint
        Where the cell's ``nu`` is NaN: ``min_gap(params) <= 1e-12``.
    """
    if min_gap(params) <= EP_TOL:
        raise ExceptionalPoint("PT-broken regime or band touching: winding undefined")
    return int(_windings(*params.trig))


def phase_diagram(theta1s: np.ndarray, theta2s: np.ndarray, p: float) -> np.recarray:
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
    is the band touching itself.  The band sum of the generalized Zak phases
    (the Wilson loop, in the tests) is the reference it is compared against.

    One record per cell, theta1-major: fields ``theta1``, ``theta2``, ``nu``
    (float), ``pt_broken`` and ``min_gap``, each a column over the n1 * n2
    cells.  ``pt_broken`` is ``min_gap < -1e-12``, bit-identical to
    :func:`pt_classify` of the cell.  Cells that are broken or at a band
    touching (``min_gap <= 1e-12``) carry ``nu = NaN`` rather than a guess.
    """
    theta1s = np.asarray(theta1s, dtype=float)
    theta2s = np.asarray(theta2s, dtype=float)
    if theta1s.size < 32 or theta2s.size < 32:
        raise ValueError("phase diagram resolution must be at least 32x32")
    if not (np.isfinite(theta1s).all() and np.isfinite(theta2s).all()):
        raise ValueError("coin angles must be finite")
    alpha = CoinParams(0.0, 0.0, p).alpha
    c1, s1 = (v[:, None] for v in _axis_trig(theta1s))
    c2, s2 = _axis_trig(theta2s)
    gap = _min_gaps(alpha, c1, s1, c2, s2).ravel()
    nu = np.where(gap > EP_TOL, _windings(c1, s1, c2, s2).ravel(), np.nan)
    return np.rec.fromarrays(
        [np.repeat(theta1s, theta2s.size), np.tile(theta2s, theta1s.size), nu,
         gap < -EP_TOL, gap],
        names=["theta1", "theta2", "nu", "pt_broken", "min_gap"],
    )
