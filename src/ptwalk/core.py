"""Complex 2x2 matrix arithmetic, Pauli basis, and biorthogonal eigendecomposition.

Everything downstream (band structure, quench dynamics, reconstruction) runs on
the primitives in this module.  Band labels are fixed here once and for all:

* if the two quasienergies eps = i log(lambda) have distinct imaginary parts
  (amplifying/decaying pair), the "+" band is the one with Im(eps) > 0;
* otherwise the "-" band is the one with the lower real part.

Right eigenvectors are kept unit-norm; left eigenvectors are rescaled so that
<chi_mu|psi_nu> = delta_mu,nu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, SingularMatrix

__all__ = [
    "PAULI",
    "SIGMA_0",
    "SIGMA_1",
    "SIGMA_2",
    "SIGMA_3",
    "KET_H",
    "KET_V",
    "KET_PLUS",
    "KET_MINUS",
    "KET_L",
    "KET_D",
    "EigenSystem",
    "eig_biorthogonal_grid",
    "pauli_expand",
    "pauli_assemble",
]

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = np.stack([SIGMA_0, SIGMA_1, SIGMA_2, SIGMA_3])

# Polarization basis states of the coin.
KET_H = np.array([1, 0], dtype=complex)
KET_V = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
KET_MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)
KET_L = np.array([1, -1j], dtype=complex) / np.sqrt(2)
KET_D = KET_PLUS

GAP_TOL = 1e-9
_IM_SPLIT_TOL = 1e-12


@dataclass(frozen=True)
class EigenSystem:
    """Biorthogonal eigensystems of 2x2 matrices, with any leading batch axes.

    Band order is [plus, minus] in every array; a single matrix has batch
    shape ().  ``right[..., b, :]`` is the unit-norm right eigenvector (ket) of
    band b; ``left[..., b, :]`` is the left eigenvector as a row vector (bra),
    rescaled so that ``left[..., b, :] @ right[..., b, :] == 1``.
    """

    values: np.ndarray        # (..., 2) eigenvalues [lambda_+, lambda_-]
    quasienergies: np.ndarray  # (..., 2) eps = i log(lambda), [eps_+, eps_-]
    right: np.ndarray         # (..., 2, 2) kets, right[..., band, component]
    left: np.ndarray          # (..., 2, 2) bras, left[..., band, component]

    @property
    def psi_plus(self) -> np.ndarray:
        return self.right[..., 0, :]

    @property
    def psi_minus(self) -> np.ndarray:
        return self.right[..., 1, :]

    def completeness(self) -> np.ndarray:
        """sum_mu |psi_mu><chi_mu|, identity for a biorthonormal system."""
        return np.einsum("...bc,...bd->...cd", self.right, self.left)


def _order_plus_first(eps_a, eps_b):
    """True where (eps_a, eps_b) is already (plus, minus) under the band rule."""
    im_split = np.abs(eps_a.imag - eps_b.imag) > _IM_SPLIT_TOL
    return np.where(im_split, eps_a.imag > eps_b.imag, eps_a.real > eps_b.real)


def eig_biorthogonal_grid(ms: np.ndarray, gap_tol: float = GAP_TOL) -> EigenSystem:
    """Closed-form biorthogonal eigensystems of 2x2 matrices, shape (..., 2, 2).

    Uses the quadratic formula for the eigenvalues and spectral projectors
    P_mu = (m - lambda_nu I)/(lambda_mu - lambda_nu) for the vector pairs,
    which keeps the construction branch-free and fully vectorized.  Each
    matrix's result does not depend on the batch it sits in.

    Raises
    ------
    ValueError
        If the trailing axes are not (2, 2) or an entry is not finite.
    DegenerateSpectrum
        If an eigenvalue gap is at or below ``gap_tol`` (exceptional point).
    SingularMatrix
        If an eigenvalue is exactly zero, so it has no quasienergy.
    """
    ms = np.asarray(ms, dtype=complex)
    if ms.shape[-2:] != (2, 2):
        raise ValueError(f"expected 2x2 matrices, got shape {ms.shape}")
    if not np.isfinite(ms).all():
        raise ValueError("matrix has non-finite entries")
    # Numpy's 0-d (scalar) arithmetic rounds differently from its array loops,
    # so every batch, shape () included, is solved as a flat 1-D batch.
    batch = ms.shape[:-2]
    ms = ms.reshape(-1, 2, 2)
    tr = ms[..., 0, 0] + ms[..., 1, 1]
    det = ms[..., 0, 0] * ms[..., 1, 1] - ms[..., 0, 1] * ms[..., 1, 0]
    disc = np.sqrt(tr * tr / 4 - det)
    lam_a, lam_b = tr / 2 + disc, tr / 2 - disc
    gap = np.abs(lam_a - lam_b)
    if np.any(gap <= gap_tol):
        raise DegenerateSpectrum(
            f"eigenvalue gap {gap.min():.3e} <= {gap_tol:.1e} somewhere on the grid"
        )
    if np.any(lam_a == 0) or np.any(lam_b == 0):
        raise SingularMatrix("zero eigenvalue somewhere on the grid: no quasienergy")
    eps_a, eps_b = 1j * np.log(lam_a), 1j * np.log(lam_b)
    keep = _order_plus_first(eps_a, eps_b)
    lam = np.stack([np.where(keep, lam_a, lam_b), np.where(keep, lam_b, lam_a)], axis=-1)
    eps = np.stack([np.where(keep, eps_a, eps_b), np.where(keep, eps_b, eps_a)], axis=-1)

    eye = np.broadcast_to(SIGMA_0, ms.shape)
    right = np.empty(ms.shape, dtype=complex)
    left = np.empty_like(right)
    for b in range(2):
        lam_own = lam[..., b, None, None]
        lam_other = lam[..., 1 - b, None, None]
        proj = (ms - lam_other * eye) / (lam_own - lam_other)
        # Branch-robust column/row picks: largest L1 norm.
        col = np.argmax(np.abs(proj).sum(axis=-2), axis=-1)
        row = np.argmax(np.abs(proj).sum(axis=-1), axis=-1)
        psi = np.take_along_axis(proj, col[..., None, None], axis=-1)[..., 0]
        psi = psi / np.linalg.norm(psi, axis=-1, keepdims=True)
        bra = np.take_along_axis(proj, row[..., None, None], axis=-2)[..., 0, :]
        bra = bra / np.einsum("...c,...c->...", bra, psi)[..., None]
        right[..., b, :] = psi
        left[..., b, :] = bra
    vec, mat = batch + (2,), batch + (2, 2)
    return EigenSystem(lam.reshape(vec), eps.reshape(vec), right.reshape(mat), left.reshape(mat))


def pauli_expand(m: np.ndarray) -> np.ndarray:
    """Coefficients c_j with m = sum_j c_j sigma_j, via c_j = Tr(m sigma_j)/2."""
    m = np.asarray(m, dtype=complex)
    return np.einsum("jab,...ba->...j", PAULI, m) / 2


def pauli_assemble(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pauli_expand`."""
    coeffs = np.asarray(coeffs, dtype=complex)
    return np.einsum("...j,jab->...ab", coeffs, PAULI)
