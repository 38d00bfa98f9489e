"""Oracles for the package's eigensolver ``ptwalk.spectrum.walk_eigensystem``.

:func:`eig_biorthogonal` is an np.linalg.eig-based biorthogonal eigensolver.
It shares no code with ``walk_eigensystem`` (closed form from the d
coefficients) beyond the result type and the gap tolerance.  Its band
rule is generic: if the two quasienergies eps = i log(lambda) have distinct
imaginary parts, the "+" band is the one with the larger Im(eps); otherwise
the "+" band has the larger real part.  On a walk operator that is the
package's rule except where d0 < -1: there i log of the negative eigenvalue
lands on Re eps = +-pi by the sign of a rounding zero, and the package fixes
Re E = -pi, so callers compare eps modulo 2 pi.

:func:`quasienergies` is E at one momentum from a 0-d d0, a scalar path
beside the package's batch solve.  :func:`zak_phase` is the Wilson loop of
biorthogonal overlaps <chi_kj | psi_kj+1> over ``walk_eigensystem``; the band
sum of the two Zak phases over 2 pi is the reference for the closed-form
winding of ``winding_number`` and ``phase_diagram``.
"""

import numpy as np

from ptwalk.core import PAULI, SIGMA_0, EigenSystem
from ptwalk.errors import DegenerateSpectrum, ExceptionalPoint
from ptwalk.floquet import CoinParams, d_coefficients
from ptwalk.spectrum import EP_TOL, GAP_TOL, _energy_plus_from_d0, min_gap, walk_eigensystem

IM_SPLIT_TOL = 1e-12


def eig_biorthogonal(m, gap_tol=GAP_TOL):
    """Biorthogonal eigendecomposition of one diagonalizable 2x2 matrix.

    Right eigenvectors come from the matrix itself, left eigenvectors from the
    conjugate transpose (eigenvalue lambda*), then each left vector is rescaled
    against its right partner.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix has non-finite entries")

    lam, vecs = np.linalg.eig(m)
    if abs(lam[0] - lam[1]) <= gap_tol:
        raise DegenerateSpectrum(
            f"eigenvalue gap {abs(lam[0] - lam[1]):.3e} <= {gap_tol:.1e}"
        )
    eps = 1j * np.log(lam)
    if abs(eps[0].imag - eps[1].imag) > IM_SPLIT_TOL:
        plus_first = eps[0].imag > eps[1].imag
    else:
        plus_first = eps[0].real > eps[1].real
    if not plus_first:
        lam, eps, vecs = lam[::-1], eps[::-1], vecs[:, ::-1]

    lam_left, vecs_left = np.linalg.eig(m.conj().T)
    right = np.empty((2, 2), dtype=complex)
    left = np.empty((2, 2), dtype=complex)
    for b in range(2):
        psi = vecs[:, b] / np.linalg.norm(vecs[:, b])
        match = int(np.argmin(np.abs(lam_left - lam[b].conjugate())))
        bra = vecs_left[:, match].conj()
        overlap = bra @ psi
        if abs(overlap) <= 1e-12:
            raise DegenerateSpectrum("left/right eigenvectors nearly orthogonal")
        right[b] = psi
        left[b] = bra / overlap
    return EigenSystem(values=lam, quasienergies=eps, right=right, left=left)


def walk_projectors(params, k):
    """(eigenvalues, quasienergies, spectral projectors) of the walk at the
    momenta ``k`` (flattened), exactly as ``walk_eigensystem`` forms them:
    shapes (K, 2), (K, 2) and (K, 2, 2, 2), projector [k, band, row, column]."""
    d = d_coefficients(params, np.asarray(k, dtype=float).reshape(-1))
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
    m = np.stack([mu, -mu], axis=1)[..., None, None]
    return lam, eps, (SIGMA_0 + np.einsum("kj,jab->kab", h, PAULI[1:])[:, None] / m) / 2


def walk_eigensystem_by_gather(params, k):
    """``walk_eigensystem`` with its eigenvector pick written as a gather.

    Each band's ket is the column, and its bra the row, of the projector with
    the largest sum of |entries|, found by ``argmax`` (the first on a tie) and
    taken with ``take_along_axis``; the normalization is the package's.
    """
    batch = np.shape(k)
    lam, eps, proj = walk_projectors(params, k)
    col = np.argmax(np.abs(proj).sum(axis=-2), axis=-1)
    row = np.argmax(np.abs(proj).sum(axis=-1), axis=-1)
    right = np.take_along_axis(proj, col[..., None, None], axis=-1)[..., 0]
    right = right / np.linalg.norm(right, axis=-1, keepdims=True)
    left = np.take_along_axis(proj, row[..., None, None], axis=-2)[..., 0, :]
    left = left / np.einsum("kbc,kbc->kb", left, right)[..., None]
    vec, mat = batch + (2,), batch + (2, 2)
    return EigenSystem(lam.reshape(vec), eps.reshape(vec), right.reshape(mat), left.reshape(mat))


def quasienergies(params: CoinParams, k: float) -> tuple[complex, complex]:
    """(eps_+, eps_-) at one momentum, with eps_- = -eps_+ exactly.

    Raises ``ExceptionalPoint`` if |d0^2 - 1| <= 1e-12 (band touching).
    """
    d0 = float(d_coefficients(params, k)[..., 0].real)
    if abs(d0 * d0 - 1.0) <= EP_TOL:
        raise ExceptionalPoint(f"band touching at k = {k!r} (d0 = {d0!r})")
    e_plus = complex(_energy_plus_from_d0(d0))
    return e_plus, -e_plus


def zak_phase(params: CoinParams, band: int, n_k: int = 512) -> float:
    """Generalized Zak phase of one band over the full zone k in [-pi, pi).

    The Wilson-loop phase is accumulated link by link with periodic
    wraparound, so the returned value is the continuum line integral (the
    per-band winding is kept, not reduced mod 2 pi).  ``band`` is +1 or -1.
    Raises ``ExceptionalPoint`` if ``min_gap(params) <= 1e-12``: PT-broken or
    at a band touching.
    """
    if band not in (+1, -1):
        raise ValueError("band must be +1 or -1")
    if n_k < 16:
        raise ValueError("n_k must be >= 16")
    if min_gap(params) <= EP_TOL:
        raise ExceptionalPoint("PT-broken regime or band touching: Zak phase undefined")
    grid = walk_eigensystem(params, np.linspace(-np.pi, np.pi, n_k, endpoint=False))
    b = 0 if band == +1 else 1
    links = np.einsum("kc,kc->k", grid.left[:, b, :], np.roll(grid.right[:, b, :], -1, axis=0))
    return float(-np.angle(links).sum())
