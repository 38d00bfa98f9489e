"""One-pair-at-a-time reconstruction: the oracle for the package's array pipeline.

``matrix_elements_from_pairs`` applies the on-site and the eight Re/Im
identities pair by pair to the ``PairProbabilities`` of
``ptwalk.measurement.all_pair_probabilities``, with the operand order of the
array code, so the two tables must agree bit for bit.  ``assemble_einsum``
is rho'(k) summed over every (x1, x2) term directly; the package sums along
the diagonals x1 - x2 first, so the two agree only to rounding.
"""

import numpy as np

from ptwalk.core import PAULI
from ptwalk.measurement import MatrixElementTable


def matrix_elements_from_pairs(site, pairs) -> MatrixElementTable:
    """<psi_x2|sigma_j|psi_x1> from site probabilities and a list of pairs."""
    n = len(site.probs)
    ph, pv = site.probs[:, 0], site.probs[:, 1]
    pl, pd = site.probs[:, 2], site.probs[:, 3]
    table = np.zeros((n, n, 4), dtype=complex)

    diag = np.arange(n)
    table[diag, diag, 0] = ph + pv
    table[diag, diag, 1] = 2 * pd - ph - pv
    table[diag, diag, 2] = -2 * pl + ph + pv
    table[diag, diag, 3] = ph - pv

    for pair in pairs:
        i1, i2 = pair.x1 - site.x_min, pair.x2 - site.x_min
        p1l, p2l, p3l, p4l = pair.p_l
        p1d, p2d, p3d, p4d = pair.p_d
        sum_minus = (ph[i1] + ph[i2] - pv[i1] - pv[i2]) / 2
        sum_plus = (ph[i1] + ph[i2] + pv[i1] + pv[i2]) / 2
        sum_cross = (pv[i1] + ph[i2] + ph[i1] + pv[i2]) / 2
        skew = (pv[i1] + ph[i2] - ph[i1] - pv[i2]) / 2
        table[i1, i2, 0] = (p1d - p2d - sum_minus) + 1j * (p1l - p2l - sum_minus)
        table[i1, i2, 1] = (p3d + p4d - sum_cross) + 1j * (p3l + p4l - sum_cross)
        table[i1, i2, 2] = (p3l - p4l - skew) + 1j * (p4d - p3d + skew)
        table[i1, i2, 3] = (p1d + p2d - sum_plus) + 1j * (p1l + p2l - sum_plus)
    return MatrixElementTable(x_min=site.x_min, table=table)


def assemble_einsum(table: MatrixElementTable, k) -> np.ndarray:
    """rho'(k) = 1/2 sum_j sum_{x1,x2} e^{-ik(x1-x2)} table[x1,x2,j] sigma_j."""
    k = np.asarray(k, dtype=float)
    xs = table.sites.astype(float)
    dx = xs[:, None] - xs[None, :]
    phases = np.exp(-1j * np.multiply.outer(k, dx))
    return 0.5 * np.einsum("...xy,xyj,jab->...ab", phases, table.table, PAULI)
