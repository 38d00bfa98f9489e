"""np.linalg.eig-based biorthogonal eigensolver: the oracle for the package's solver.

It shares no code with ``ptwalk.core.eig_biorthogonal_grid`` (quadratic
formula plus spectral projectors) beyond the result type and the band rule,
which it restates: if the two quasienergies eps = i log(lambda) have distinct
imaginary parts, the "+" band is the one with the larger Im(eps); otherwise
the "+" band has the larger real part.
"""

import numpy as np

from ptwalk.core import GAP_TOL, EigenSystem
from ptwalk.errors import DegenerateSpectrum

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
