"""Biorthogonal eigensolver and Pauli-basis round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eig_oracle import eig_biorthogonal
from ptwalk.core import (
    GAP_TOL,
    PAULI,
    SIGMA_3,
    eig_biorthogonal_grid,
    pauli_assemble,
    pauli_expand,
)
from ptwalk.errors import DegenerateSpectrum
from ptwalk.floquet import CoinParams, momentum_operator_closed


def quadratic_eigenvalues(m):
    """Independent oracle: roots of the characteristic polynomial."""
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = np.sqrt(tr * tr / 4 - det + 0j)
    return tr / 2 + disc, tr / 2 - disc


def random_matrix(rng, scale=1.0):
    return scale * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))


def test_identity_is_degenerate():
    with pytest.raises(DegenerateSpectrum):
        eig_biorthogonal_grid(np.eye(2, dtype=complex))


def test_sigma3_hermitian_diagonal():
    system = eig_biorthogonal_grid(SIGMA_3)
    assert np.allclose(sorted(system.values.real), [-1, 1])
    # lambda = +1 (eps = 0) is the plus band; basis vectors, left = right
    assert np.allclose(np.abs(system.psi_plus), [1, 0])
    assert np.allclose(np.abs(system.psi_minus), [0, 1])
    np.testing.assert_allclose(np.abs(system.left), np.abs(system.right), atol=1e-12)
    np.testing.assert_allclose(system.left @ system.right.T, np.eye(2), atol=1e-14)


def test_walk_operator_biorthonormality_and_oracle():
    params = CoinParams(-np.pi / 2, np.pi / 3, 0.36)
    m = momentum_operator_closed(params, 0.3)
    system = eig_biorthogonal_grid(m)
    # biorthonormality <chi_mu|psi_nu> = delta
    gram = system.left @ system.right.T
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)
    # completeness sum_mu |psi_mu><chi_mu| = 1
    np.testing.assert_allclose(system.completeness(), np.eye(2), atol=1e-12)
    # eigenvalues against the quadratic-formula oracle
    lam_a, lam_b = quadratic_eigenvalues(m)
    assert sorted(np.round(system.values, 12)) == pytest.approx(
        sorted(np.round([lam_a, lam_b], 12))
    )


def test_spectral_reconstruction(rng):
    for _ in range(100):
        m = random_matrix(rng)
        try:
            system = eig_biorthogonal_grid(m)
        except DegenerateSpectrum:
            continue
        rebuilt = sum(
            system.values[b] * np.outer(system.right[b], system.left[b]) for b in range(2)
        )
        np.testing.assert_allclose(rebuilt, m, atol=1e-10)


def test_scale_consistency(rng):
    for _ in range(25):
        m = random_matrix(rng)
        c = complex(rng.normal(), rng.normal())
        if abs(c) < 0.1:
            continue
        try:
            base = eig_biorthogonal_grid(m)
            scaled = eig_biorthogonal_grid(c * m)
        except DegenerateSpectrum:
            continue
        # same eigenvalue set scaled by c
        got = sorted(scaled.values, key=lambda z: (z.real, z.imag))
        want = sorted(c * base.values, key=lambda z: (z.real, z.imag))
        np.testing.assert_allclose(got, want, atol=1e-10)
        # identical projector rays, band labels aside
        proj = lambda s, b: np.outer(s.right[b], s.left[b])
        base_projs = {0: proj(base, 0), 1: proj(base, 1)}
        for b in range(2):
            match = min(
                np.abs(base_projs[0] - proj(scaled, b)).max(),
                np.abs(base_projs[1] - proj(scaled, b)).max(),
            )
            assert match < 1e-10


def test_left_eigenvector_definition(rng):
    """U^dag |chi> = lambda^* |chi>, i.e. <chi| U = lambda <chi|."""
    for _ in range(20):
        m = random_matrix(rng)
        try:
            system = eig_biorthogonal_grid(m)
        except DegenerateSpectrum:
            continue
        for b in range(2):
            np.testing.assert_allclose(
                system.left[b] @ m, system.values[b] * system.left[b], atol=1e-10
            )


def test_grid_solver_matches_scalar(rng):
    mats, systems = [], []
    while len(mats) < 64:
        m = random_matrix(rng)
        try:
            systems.append(eig_biorthogonal(m))
        except DegenerateSpectrum:
            continue
        mats.append(m)
    grid = eig_biorthogonal_grid(np.array(mats))
    for i, system in enumerate(systems):
        np.testing.assert_allclose(grid.values[i], system.values, atol=1e-10)
        for b in range(2):
            np.testing.assert_allclose(
                np.outer(grid.right[i, b], grid.left[i, b]),
                np.outer(system.right[b], system.left[b]),
                atol=1e-10,
            )


# Zero or at least 1e-3 in size: LAPACK (the oracle) loses the eigenvectors of
# a matrix whose entries span dozens of orders of magnitude.
_ENTRY = st.floats(-2.0, 2.0).filter(lambda x: x == 0 or abs(x) >= 1e-3)


@st.composite
def matrix_batches(draw):
    """Batches of 1-5 complex 2x2 matrices, half of them pushed toward GAP_TOL.

    A pushed matrix is c I + d m: its eigenvalue gap is d times that of m,
    with d down to 1e-10, so draws land on both sides of the gap tolerance.
    """
    n = draw(st.integers(1, 5))
    mats = []
    for _ in range(n):
        parts = [draw(_ENTRY) for _ in range(8)]
        m = (np.array(parts[:4]) + 1j * np.array(parts[4:])).reshape(2, 2)
        if draw(st.booleans()):
            d = 10.0 ** draw(st.floats(-10.0, 0.0))
            m = complex(draw(_ENTRY), draw(_ENTRY)) * np.eye(2) + d * m
        mats.append(m)
    shape = draw(st.sampled_from([(n,), (1, n), (n, 1)]))
    return np.array(mats).reshape(shape + (2, 2))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # log(0) of singular draws
@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(matrix_batches())
def test_batch_solve_is_its_members_solve_and_matches_the_eig_oracle(batch):
    members = batch.reshape(-1, 2, 2)
    systems = []
    for m in members:
        try:
            systems.append(eig_biorthogonal_grid(m))
        except DegenerateSpectrum:
            with pytest.raises(DegenerateSpectrum):
                eig_biorthogonal_grid(batch)
            return
    batched = eig_biorthogonal_grid(batch)
    assert batched.values.shape == batch.shape[:-1]
    assert batched.right.shape == batch.shape
    for i, (m, system) in enumerate(zip(members, systems)):
        assert system.values.shape == (2,) and system.left.shape == (2, 2)
        for field in ("values", "quasienergies", "right", "left"):
            whole = getattr(batched, field)
            got = whole.reshape((-1,) + whole.shape[batch.ndim - 2 :])[i]
            assert got.tobytes() == getattr(system, field).tobytes(), field

        # 1e-10 on well-separated spectra; near the gap tolerance both solvers
        # lose digits as eps |m|^2 / gap (eigenvalues) and / gap^2 (projectors),
        # so they may also disagree on which side of GAP_TOL a gap lies.
        gap = abs(system.values[0] - system.values[1])
        cond = 1e-13 * np.abs(m).max() ** 2 / gap
        try:
            oracle = eig_biorthogonal(m)
        except DegenerateSpectrum:
            assert gap <= GAP_TOL + 2 * (1e-10 + cond)
            continue
        assert np.abs(system.values - oracle.values).max() <= 1e-10 + cond
        for b in range(2):
            proj = np.outer(system.right[b], system.left[b])
            proj_oracle = np.outer(oracle.right[b], oracle.left[b])
            assert np.abs(proj - proj_oracle).max() <= 1e-10 + cond / gap


def test_solver_rejects_bad_shapes_and_non_finite_entries():
    with pytest.raises(ValueError):
        eig_biorthogonal_grid(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        eig_biorthogonal_grid(np.array([[1.0, np.nan], [0.0, 2.0]]))
    with pytest.raises(DegenerateSpectrum):
        eig_biorthogonal_grid(np.stack([SIGMA_3, np.zeros((2, 2)), SIGMA_3]))


def test_grid_solver_biorthonormal_on_walk_operators(rng):
    ks = np.linspace(-np.pi, np.pi, 128, endpoint=False)
    params = CoinParams(0.7, -1.1, 0.36)
    grid = eig_biorthogonal_grid(momentum_operator_closed(params, ks))
    gram = np.einsum("kbc,kdc->kbd", grid.left, grid.right)
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(2), gram.shape), atol=1e-12)
    # completeness: sum_b |psi_b><chi_b| = 1
    complete = np.einsum("kbc,kbd->kcd", grid.right, grid.left)
    np.testing.assert_allclose(
        complete, np.broadcast_to(np.eye(2), complete.shape), atol=1e-12
    )


def test_quasienergies_come_in_opposite_pairs(rng):
    """Unit-determinant walk operators: eps_+ + eps_- = 0 mod 2 pi."""
    ks = np.linspace(-np.pi, np.pi, 64, endpoint=False)
    for p in (0.0, 0.36, 0.7):
        params = CoinParams(
            float(rng.uniform(-np.pi, np.pi)), float(rng.uniform(-np.pi, np.pi)), p
        )
        grid = eig_biorthogonal_grid(momentum_operator_closed(params, ks))
        total = grid.quasienergies.sum(axis=-1)
        wrapped = (total.real + np.pi) % (2 * np.pi) - np.pi
        np.testing.assert_allclose(wrapped, 0.0, atol=1e-10)
        np.testing.assert_allclose(total.imag, 0.0, atol=1e-10)


def test_pauli_expand_basis_elements():
    np.testing.assert_allclose(pauli_expand(PAULI[1]), [0, 1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(pauli_expand(np.eye(2)), [1, 0, 0, 0], atol=1e-15)


def test_pauli_round_trip(rng):
    for _ in range(50):
        m = rng.uniform(-1, 1, size=(2, 2)) + 1j * rng.uniform(-1, 1, size=(2, 2))
        np.testing.assert_allclose(pauli_assemble(pauli_expand(m)), m, atol=1e-14)
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        np.testing.assert_allclose(
            pauli_expand(pauli_assemble(coeffs)), coeffs, atol=1e-14
        )
