"""One-pair-at-a-time measurement and one-step-at-a-time reconstruction.

These are the oracles for the package's array pipeline.
``matrix_elements_direct`` reads the matrix-element table straight from the
amplitudes, the reference for the identities themselves.
``interference_probabilities`` measures one ordered pair of sites, and
``matrix_elements_from_pairs`` applies the on-site and the eight Re/Im
identities pair by pair to the ``PairProbabilities`` of
``all_pair_probabilities``, with the operand order of the array code, so the
intensities and the table must agree bit for bit.  ``pair_intensities_matmul``
is the package's former pair stage, every prepared spinor contracted with
each conjugate ket in one stacked matmul; it too must agree bit for bit.
``assemble_einsum`` is rho'(k) summed over every (x1, x2) term directly; the
package sums along the diagonals x1 - x2 first, so the two agree only to
rounding.  ``phase_matrix_transform`` is the package's former momentum
transform, one phase matrix exp(-i k d) at any momenta and one matmul; the
package's FFT on the grid agrees with it to rounding.
``assemble_add_at`` is the package's former diagonal sum: ``np.add.at`` in
order of x1 and a phase matrix of the table's own width, which
``assemble_hermitian_density``, the package's skewed diagonal sums made into
one table's rho'(k), must match bit for bit.  ``fourier``
is the momentum spinor psi_k of a position state.  ``bloch_field_per_step``
sums each step's ``intensity_planes`` with ``np.add.at`` and maps its Stokes
vectors on their own, as the package did before it transformed and mapped
all steps at once; the two must agree bit for bit.
``diagonal_sums_add_at`` of the table of ``reconstruct_matrix_elements`` is
the package's former order, the identities applied to every pair's
intensities and the table then summed along its diagonals; the package's
identities on the diagonal sums of the intensities agree with it to
rounding.

``bloch_vector`` is n(k, t) at one point from ``overlap_grid`` and the
coefficient form, and ``density_matrix`` the quench's non-Hermitian density
matrix |psi(t)><chi(t)| / <chi(t)|psi(t)> built from the evolved states, its
reference.

``to_nonhermitian``, ``tau_basis`` and ``bloch_from_density`` are the
textbook frame map: rho = rho' sum_mu |chi_mu><chi_mu| / Tr[...] as a 2x2
matrix, then n_j = Tr[rho tau_j] in the dressed Pauli basis.  The package
applies the same map as one real 4x4 matrix per momentum to the Stokes
vector of rho', so the two agree only to rounding.
"""

from dataclasses import dataclass

import numpy as np

from ptwalk.core import KET_D, KET_L, PAULI, EigenSystem, pauli_assemble
from ptwalk.errors import SingularNormalization
from ptwalk.measurement import (
    MatrixElementTable,
    PairIntensities,
    _diagonal_sums,
    _frame_map,
    _momentum_transform,
    _stokes_by_offset,
    _stokes_frame,
    onsite_probabilities,
    pair_intensities,
    sample_shot_noise,
)
from ptwalk.quench import (
    NORM_FLOOR,
    QuenchSpec,
    _dressed_coefficients,
    bloch_from_coefficients,
    initial_spinors,
    overlap_grid,
)
from ptwalk.spectrum import walk_eigensystem
from ptwalk.walksim import evolve


@dataclass(frozen=True)
class PairProbabilities:
    """Interference intensities for one ordered pair, per preparation j=1..4."""

    x1: int
    x2: int
    p_l: np.ndarray  # (4,)
    p_d: np.ndarray  # (4,)


def spinor_at(state, x: int) -> np.ndarray:
    """The (a, b) spinor on site x; zero outside the state's window."""
    if state.x_min <= x <= state.x_max:
        return state.amplitudes[x - state.x_min]
    return np.zeros(2, dtype=complex)


def interference_probabilities(state, x1: int, x2: int) -> PairProbabilities:
    """Two-site interference intensities in the {L, D} bases."""
    if x1 == x2:
        raise ValueError("interference measurement needs two distinct sites")
    a1, b1 = spinor_at(state, x1)
    a2, b2 = spinor_at(state, x2)
    phis = np.array([[a1, a2], [b1, -b2], [b1, a2], [a1, b2]])
    return PairProbabilities(
        x1=x1,
        x2=x2,
        p_l=np.abs(phis @ KET_L.conj()) ** 2,
        p_d=np.abs(phis @ KET_D.conj()) ** 2,
    )


def all_pair_probabilities(state) -> list[PairProbabilities]:
    """Interference data for every ordered pair of window sites."""
    xs = state.sites
    return [
        interference_probabilities(state, int(x1), int(x2))
        for x1 in xs
        for x2 in xs
        if x1 != x2
    ]


def matrix_elements_direct(state) -> MatrixElementTable:
    """The table straight from the amplitudes (oracle for the identities)."""
    amps = state.amplitudes
    table = np.einsum("jab,ya,xb->xyj", PAULI, amps.conj(), amps)
    return MatrixElementTable(x_min=state.x_min, table=table)


def pair_intensities_matmul(state) -> PairIntensities:
    """Every ordered pair's intensities from an (n, n, 4, 2) array of the
    prepared spinors contracted with each conjugate ket (the package's former
    form)."""
    amps = state.amplitudes
    n = len(amps)
    a, b = amps[:, 0], amps[:, 1]
    phis = np.empty((n, n, 4, 2), dtype=complex)
    phis[:, :, 0, 0], phis[:, :, 0, 1] = a[:, None], a[None, :]
    phis[:, :, 1, 0], phis[:, :, 1, 1] = b[:, None], -b[None, :]
    phis[:, :, 2, 0], phis[:, :, 2, 1] = b[:, None], a[None, :]
    phis[:, :, 3, 0], phis[:, :, 3, 1] = a[:, None], b[None, :]
    p_l = np.abs(phis @ KET_L.conj()) ** 2
    p_d = np.abs(phis @ KET_D.conj()) ** 2
    diag = np.arange(n)
    p_l[diag, diag] = p_d[diag, diag] = 0.0
    return PairIntensities(x_min=state.x_min, p_l=p_l, p_d=p_d)


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


def phase_matrix_transform(by_offset: np.ndarray, k) -> np.ndarray:
    """s(k) = sum_d by_offset[d + w - 1] e^{-ikd} of (..., 2 w - 1, 4) diagonal
    sums at any momenta, as one phase matrix and one matmul (the package's
    former transform)."""
    width = (by_offset.shape[-2] + 1) // 2
    phases = np.exp(-1j * np.multiply.outer(np.asarray(k, float), np.arange(1.0 - width, width)))
    return phases @ by_offset


def diagonal_sums_add_at(table: MatrixElementTable) -> np.ndarray:
    """(2n - 1, 4) sums of the table along x1 - x2 = d (row d + n - 1),
    accumulated one table entry at a time."""
    n = len(table.table)
    by_offset = np.zeros((2 * n - 1, 4), dtype=complex)
    offset_row = (np.arange(n)[:, None] - np.arange(n)[None, :] + n - 1).ravel()
    np.add.at(by_offset, offset_row, table.table.reshape(n * n, 4))
    return by_offset


def stokes_add_at(table: MatrixElementTable, k) -> np.ndarray:
    """s(k) with 2 rho'(k) = sum_j s_j sigma_j, from diagonal sums accumulated
    one table entry at a time."""
    return phase_matrix_transform(diagonal_sums_add_at(table), k)


def assemble_hermitian_density(table: MatrixElementTable, k) -> np.ndarray:
    """rho'(k) = 1/2 sum_j sum_{x1,x2} e^{-ik(x1-x2)} table[x1,x2,j] sigma_j.

    Equals |psi_k><psi_k| for a noiseless table; shape (..., 2, 2) following k.
    The table is first summed along its 2n - 1 diagonals d = x1 - x2 by the
    package's skewed sums, as in ``reconstruct_bloch_field``, so the momentum
    transform runs over d alone.
    """
    n = len(table.table)
    return 0.5 * pauli_assemble(phase_matrix_transform(_diagonal_sums(table.table, n), k))


def assemble_add_at(table: MatrixElementTable, k) -> np.ndarray:
    """rho'(k) from the ``np.add.at`` diagonal sums of :func:`stokes_add_at`."""
    return 0.5 * pauli_assemble(stokes_add_at(table, k))


def fourier(state, k) -> np.ndarray:
    """Momentum spinor psi_k = sum_x e^{-ikx} psi_x (unnormalized), (..., 2)."""
    k = np.asarray(k, dtype=float)
    phases = np.exp(-1j * np.multiply.outer(k, state.sites.astype(float)))
    return np.einsum("...x,xc->...c", phases, state.amplitudes)


def intensity_planes(site, pairs) -> np.ndarray:
    """(n, n, 12) planes: p_l[..., j], p_d[..., j], then P_H and P_V of the
    first site x1 and of the second site x2 of each ordered pair."""
    n = len(site.probs)
    ph, pv = site.probs[:, 0], site.probs[:, 1]
    planes = np.empty((n, n, 12))
    planes[..., :4], planes[..., 4:8] = pairs.p_l, pairs.p_d
    planes[..., 8], planes[..., 9] = ph[:, None], pv[:, None]
    planes[..., 10], planes[..., 11] = ph[None, :], pv[None, :]
    return planes


def bloch_field_per_step(spec, t_max, n_k, n_samples=None, seed=0) -> np.ndarray:
    """n(k, t) of ``reconstruct_bloch_field``, each step summed with
    ``np.add.at`` and mapped on its own."""
    coin = initial_spinors(spec, np.array([0.0]))[0]
    ks = np.linspace(-np.pi, np.pi, n_k, endpoint=False)
    final = walk_eigensystem(spec.final, ks)
    width = 4 * t_max + 1
    n_field = np.empty((n_k, t_max + 1, 3))
    for t, state in enumerate(evolve(coin, spec.final, t_max)):
        site, pairs = onsite_probabilities(state), pair_intensities(state)
        if n_samples is not None:
            site = sample_shot_noise(site, n_samples, seed=seed * 1000003 + t)
            pairs = sample_shot_noise(pairs, n_samples, seed=seed * 1000003 + t)
        n = len(site.probs)
        sums = np.zeros((2 * width - 1, 10))
        offset_row = (np.arange(n)[:, None] - np.arange(n)[None, :] + width - 1).ravel()
        np.add.at(sums, offset_row, intensity_planes(site, pairs)[..., :10].reshape(n * n, 10))
        site_sums = np.zeros((1, 4))
        np.add.at(site_sums, np.zeros(n, dtype=int), site.probs)
        stokes = _momentum_transform(_stokes_by_offset(sums, site_sums[0]), n_k)
        n_field[:, t, :] = _frame_map(stokes, _stokes_frame(final.left))
    return n_field


def to_nonhermitian(rho_prime: np.ndarray, system: EigenSystem) -> np.ndarray:
    """Non-Hermitian density matrix from the Hermitian one.

    Multiplies by sum_mu |chi_mu><chi_mu| of the final eigensystem and
    normalizes by the trace; invariant under any positive rescaling of
    rho_prime, so the decayed norm of the measured state drops out.
    ``rho_prime`` (..., 2, 2) broadcasts against the batch axes of ``system``.
    """
    chi_sum = np.einsum("...bc,...bd->...cd", system.left.conj(), system.left)
    numer = np.asarray(rho_prime, dtype=complex) @ chi_sum
    denom = numer[..., 0, 0] + numer[..., 1, 1]
    if np.any(np.abs(denom) <= NORM_FLOOR):
        raise SingularNormalization(
            f"|Tr[rho' sum|chi><chi|]| = {np.abs(denom).min():.3e} <= {NORM_FLOOR:.0e}"
        )
    return numer / denom[..., None, None]


def tau_basis(system: EigenSystem) -> np.ndarray:
    """Dressed Pauli basis tau_j = sum_{mu,nu} |psi_mu> sigma_j^{mu nu} <chi_nu|.

    Shape (..., 4, 2, 2), following the batch axes of ``system``.
    """
    return np.einsum("jmn,...mc,...nd->...jcd", PAULI, system.right, system.left)


def bloch_from_density(rho: np.ndarray, system: EigenSystem) -> np.ndarray:
    """n_j = Tr[rho tau_j] for j = 1, 2, 3 (trace over the dressed basis).

    ``rho`` (..., 2, 2) broadcasts against the batch axes of ``system``.
    """
    comps = np.einsum("...ab,...jba->...j", rho, tau_basis(system))
    return comps[..., 1:].real


def density_matrix(spec: QuenchSpec, k: float, t: float) -> np.ndarray:
    """Non-Hermitian density matrix |psi(t)><chi(t)| / <chi(t)|psi(t)>.

    Built explicitly from the evolving right state and its associated left
    state in the polarization basis; trace 1 by construction.  This is an
    independent code path from :func:`bloch_vector`, checked against it via
    n_j = Tr[rho tau_j] with tau from :func:`tau_basis`.

    Raises
    ------
    SingularNormalization
        If <chi(t)|psi(t)> vanishes (possible only off the +-E pairing, e.g.
        for non-eigenstate initial conditions at complex parameters).
    """
    system = walk_eigensystem(spec.final, k)
    psi_i = initial_spinors(spec, np.array([k]))[0]
    c = system.left @ psi_i  # (c_+, c_-)
    ct = c * np.exp(-1j * system.quasienergies * t)
    psi_t = ct @ system.right
    chi_t = ct.conj() @ system.left
    denom = chi_t @ psi_t
    if abs(denom) <= NORM_FLOOR:
        raise SingularNormalization(f"<chi(t)|psi(t)> = {denom:.3e} at k = {k!r}")
    return np.outer(psi_t, chi_t) / denom


def bloch_vector(spec: QuenchSpec, k: float, t: float) -> np.ndarray:
    """n(k,t) as a real unit 3-vector; t is continuous and >= 0 is not required."""
    cp, cm, final = overlap_grid(spec, np.array([k]))
    ct_p, ct_m = _dressed_coefficients(cp[0], cm[0], final.quasienergies[0, 0], t)
    return bloch_from_coefficients(ct_p, ct_m)
