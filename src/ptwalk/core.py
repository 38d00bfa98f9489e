"""Pauli basis, coin basis states, and the biorthogonal eigensystem type.

Everything downstream (band structure, quench dynamics, reconstruction) runs on
the primitives in this module.  The eigensystems themselves are built in
closed form by :func:`ptwalk.spectrum.walk_eigensystem`, which also fixes the
band labels: eps_+ = E with Im E > 0 once the pair is complex (Re E = -pi on
the d0 < -1 branch), and E = arccos(d0) in (0, pi) while it is real.

Right eigenvectors are kept unit-norm; left eigenvectors are rescaled so that
<chi_mu|psi_nu> = delta_mu,nu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PAULI",
    "SIGMA_0",
    "SIGMA_1",
    "SIGMA_2",
    "SIGMA_3",
    "KET_L",
    "KET_D",
    "EigenSystem",
    "pauli_assemble",
]

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = np.stack([SIGMA_0, SIGMA_1, SIGMA_2, SIGMA_3])

# Polarization basis states of the coin that the interference measurements use.
KET_L = np.array([1, -1j], dtype=complex) / np.sqrt(2)
KET_D = np.array([1, 1], dtype=complex) / np.sqrt(2)


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


def pauli_assemble(coeffs: np.ndarray) -> np.ndarray:
    """The matrix sum_j c_j sigma_j of the Pauli coefficients c on the last axis."""
    coeffs = np.asarray(coeffs, dtype=complex)
    return np.einsum("...j,jab->...ab", coeffs, PAULI)
