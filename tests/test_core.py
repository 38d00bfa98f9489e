"""The walk's closed-form biorthogonal eigensystem and Pauli-basis round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_coin_params
from eig_oracle import eig_biorthogonal, walk_eigensystem_by_gather, walk_projectors
from ptwalk.core import PAULI, pauli_assemble
from ptwalk.errors import DegenerateSpectrum, ExceptionalPoint
from ptwalk.floquet import CoinParams, momentum_operator_closed
from ptwalk.spectrum import GAP_TOL, walk_eigensystem


def pauli_expand(m):
    """Coefficients c_j with m = sum_j c_j sigma_j, via c_j = Tr(m sigma_j)/2."""
    return np.einsum("jab,...ba->...j", PAULI, np.asarray(m, dtype=complex)) / 2


def quadratic_eigenvalues(m):
    """Independent oracle: roots of the characteristic polynomial."""
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = np.sqrt(tr * tr / 4 - det + 0j)
    return tr / 2 + disc, tr / 2 - disc


def random_walk(rng):
    """A random lossy walk (p up to 0.99, so both broken branches occur) and a momentum."""
    return random_coin_params(rng, p_max=0.99), float(rng.uniform(-np.pi, np.pi))


def test_identity_is_degenerate():
    # Ut_0 is the identity at theta1 = theta2 = p = 0.  With theta2 = -theta1
    # it is d0 I with d0 one ulp below 1: 2 |sin E| reads 3e-8 there, but
    # h = 0, so the gap is taken from h as well.
    cases = ((CoinParams(0.0, 0.0, 0.0), 1.0), (CoinParams(0.25, -0.25, 0.0), 1 - 2**-53))
    for params, d0 in cases:
        np.testing.assert_array_equal(momentum_operator_closed(params, 0.0), d0 * np.eye(2))
        with pytest.raises(DegenerateSpectrum):
            walk_eigensystem(params, 0.0)


def test_walk_operator_biorthonormality_and_oracle():
    params = CoinParams(-np.pi / 2, np.pi / 3, 0.36)
    m = momentum_operator_closed(params, 0.3)
    system = walk_eigensystem(params, 0.3)
    # biorthonormality <chi_mu|psi_nu> = delta
    gram = system.left @ system.right.T
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)
    # completeness sum_mu |psi_mu><chi_mu| = 1
    np.testing.assert_allclose(system.right.T @ system.left, np.eye(2), atol=1e-12)
    # eigenvalues against the quadratic-formula oracle
    lam_a, lam_b = quadratic_eigenvalues(m)
    assert sorted(np.round(system.values, 12)) == pytest.approx(
        sorted(np.round([lam_a, lam_b], 12))
    )


def test_spectral_reconstruction(rng):
    for _ in range(100):
        params, k = random_walk(rng)
        try:
            system = walk_eigensystem(params, k)
        except DegenerateSpectrum:
            continue
        rebuilt = sum(
            system.values[b] * np.outer(system.right[b], system.left[b]) for b in range(2)
        )
        np.testing.assert_allclose(rebuilt, momentum_operator_closed(params, k), atol=1e-10)


def test_left_eigenvector_definition(rng):
    """U^dag |chi> = lambda^* |chi>, i.e. <chi| U = lambda <chi|."""
    for _ in range(20):
        params, k = random_walk(rng)
        try:
            system = walk_eigensystem(params, k)
        except DegenerateSpectrum:
            continue
        m = momentum_operator_closed(params, k)
        for b in range(2):
            np.testing.assert_allclose(
                system.left[b] @ m, system.values[b] * system.left[b], atol=1e-10
            )


def test_grid_solver_matches_scalar(rng):
    for _ in range(4):
        params = random_coin_params(rng, p_max=0.99)
        ks = rng.uniform(-np.pi, np.pi, 64)
        grid = walk_eigensystem(params, ks)
        for i, k in enumerate(ks):
            system = eig_biorthogonal(momentum_operator_closed(params, k))
            np.testing.assert_allclose(grid.values[i], system.values, atol=1e-10)
            for b in range(2):
                np.testing.assert_allclose(
                    np.outer(grid.right[i, b], grid.left[i, b]),
                    np.outer(system.right[b], system.left[b]),
                    atol=1e-10,
                )


_ANGLE = st.floats(-np.pi, np.pi)
# Up to p = 0.99 (alpha = 1.74), so both broken branches are wide.
_LOSS = st.floats(0.0, 0.99)


def _d0_targets(closest: float):
    """d0 = +-(1 +- 10^u): both broken branches (out to |d0| = 2) and the
    unbroken band down to d0 = 0, with |1 - |d0|| from 10^closest to 1."""
    return st.tuples(
        st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0]), st.floats(closest, 0.0)
    ).map(lambda v: v[0] * (1.0 + v[1] * 10.0 ** v[2]))


@st.composite
def walk_batches(draw):
    """A walk and a batch of 1-5 momenta, most of them aimed at a chosen d0.

    d0 = alpha (cos 2k c1 c2 - s1 s2) is affine in x = cos 2k, so a target d0
    fixes x; a target out of reach is clipped to x = +-1, an extreme of d0.

    Half the walks are unitary.  Their operators are normal, so the error
    model below holds up to the band touching, and targets come within one
    ulp of d0 = +-1 (gap 2 sqrt|1 - d0^2| ~ 3e-8, a few tens of GAP_TOL).
    Two thirds of the walks have theta2 = +-theta1, exactly or up to 0.5.
    Exactly, d0 = alpha at k = 0 or d0 = -alpha at k = pi/2: a band touching
    of a unitary walk (d0 exactly 1 or one ulp off, so draws land on both
    sides of the gap tolerance) and the far end of a broken branch of a lossy
    one.  Near it, max |d0| = alpha max |cos(theta1 -+ theta2)| is at least
    alpha cos 0.5, so at larger losses both broken branches stay in reach of
    the targets.  A lossy walk's band touching is an exceptional point, where
    the projectors of any solver in double precision lose digits as
    1 / gap^3 rather than 1 / gap^2 (at p = 0.9 the oracle's error is already
    0.4 of the bound 3e-6 from |d0| = 1); its targets stay 1e-4 from
    |d0| = 1 (gap >= 0.028).
    """
    theta1 = draw(_ANGLE)
    unitary = draw(st.booleans())
    pairing = draw(st.sampled_from(["free", "exact", "near"]))
    if pairing == "free":
        theta2 = draw(_ANGLE)
    else:
        theta2 = draw(st.sampled_from([-1.0, 1.0])) * theta1
        if pairing == "near":
            theta2 += draw(st.floats(-0.5, 0.5))
    params = CoinParams(theta1, theta2, 0.0 if unitary else draw(_LOSS))
    targets = _d0_targets(-16.0 if unitary else -4.0)
    c1, s1 = np.cos(params.theta1), np.sin(params.theta1)
    c2, s2 = np.cos(params.theta2), np.sin(params.theta2)
    ks = []
    for _ in range(draw(st.integers(1, 5))):
        how = draw(st.sampled_from(["uniform", "target", "target", "target", "end"]))
        if how == "uniform":
            ks.append(draw(_ANGLE))
        elif how == "end":
            ks.append(draw(st.sampled_from([0.0, np.pi / 2])))
        else:
            x = (draw(targets) / params.alpha + s1 * s2) / (c1 * c2) if c1 * c2 else 0.0
            half = np.arccos(np.clip(x, -1.0, 1.0)) / 2
            ks.append(float(draw(st.sampled_from([1, -1])) * half))
    shape = draw(st.sampled_from([(len(ks),), (1, len(ks)), (len(ks), 1)]))
    return params, np.array(ks).reshape(shape)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(walk_batches())
def test_batch_solve_is_its_members_solve_and_matches_the_eig_oracle(draw):
    params, batch = draw
    members = batch.reshape(-1)
    systems, raised = [], False
    for k in members:
        try:
            systems.append(walk_eigensystem(params, float(k)))
        except ExceptionalPoint:
            raised = True
    if raised:
        with pytest.raises(ExceptionalPoint):
            walk_eigensystem(params, batch)
        return
    batched = walk_eigensystem(params, batch)
    assert batched.values.shape == batch.shape + (2,)
    assert batched.right.shape == batch.shape + (2, 2)
    for i, (k, system) in enumerate(zip(members, systems)):
        assert system.values.shape == (2,) and system.left.shape == (2, 2)
        for field in ("values", "quasienergies", "right", "left"):
            whole = getattr(batched, field)
            got = whole.reshape((-1,) + whole.shape[batch.ndim :])[i]
            assert got.tobytes() == getattr(system, field).tobytes(), field

        # 1e-10 on well-separated spectra; near the gap tolerance both solvers
        # lose digits as eps |m|^2 / gap (eigenvalues) and / gap^2 (projectors),
        # so they may also disagree on which side of GAP_TOL a gap lies.
        m = momentum_operator_closed(params, k)
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


def pick_cases(rng):
    """(params, momenta): lossy walks at random momenta, lossless ones (beta = 0)
    at k in {0, +-pi/2, pi} and at random k, and angles on multiples of pi/4,
    lossless and lossy, at k in {0, +-pi/2, pi}, where the |entry| sums of a
    projector's columns or rows can tie."""
    special = np.array([0.0, np.pi / 2, -np.pi / 2, np.pi])
    for _ in range(40):
        yield random_coin_params(rng, p_max=0.99), rng.uniform(-np.pi, np.pi, size=16)
        yield random_coin_params(rng, p_max=0.0), np.concatenate([special, rng.uniform(-4, 4, 4)])
    for i in range(-4, 5):
        for j in range(-4, 5):
            for p in (0.0, 0.36, 0.9):
                yield CoinParams(i * np.pi / 4, j * np.pi / 4, p), special


def test_the_eigenvector_pick_is_the_argmax_gather_bit_for_bit(rng):
    """The comparison-and-where pick of walk_eigensystem equals the argmax and
    take_along_axis gather of tests/eig_oracle.py in every bit, ties included,
    for batch shapes () and (n,)."""
    fields = ("values", "quasienergies", "right", "left")
    ties = solved = 0
    for params, ks in pick_cases(rng):
        for batch in [ks] + [k for k in ks[:4]]:
            try:
                want = walk_eigensystem_by_gather(params, batch)
            except ExceptionalPoint:
                with pytest.raises(ExceptionalPoint):
                    walk_eigensystem(params, batch)
                continue
            got = walk_eigensystem(params, batch)
            for field in fields:
                assert getattr(got, field).shape == getattr(want, field).shape, field
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
            size = np.abs(walk_projectors(params, batch)[2])
            ties += np.sum(size.sum(axis=-2)[..., 0] == size.sum(axis=-2)[..., 1])
            ties += np.sum(size.sum(axis=-1)[..., 0] == size.sum(axis=-1)[..., 1])
            solved += 1
    assert solved > 1000 and ties > 100, (solved, ties)


def test_walk_eigensystem_rejects_non_finite_momenta():
    params = CoinParams(0.7, -1.1, 0.36)
    for bad in (np.nan, np.inf, np.array([0.1, -np.inf])):
        with pytest.raises(ValueError):
            walk_eigensystem(params, bad)


def test_grid_solver_biorthonormal_on_walk_operators(rng):
    ks = np.linspace(-np.pi, np.pi, 128, endpoint=False)
    params = CoinParams(0.7, -1.1, 0.36)
    grid = walk_eigensystem(params, ks)
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
        grid = walk_eigensystem(params, ks)
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
