"""Measurement emulation and the probability-only reconstruction pipeline."""

import numpy as np
import pytest

from ptwalk.core import KET_D, KET_L, PAULI
from ptwalk.errors import SingularNormalization
from ptwalk.floquet import CoinParams, momentum_operator_closed
from ptwalk.measurement import (
    all_pair_probabilities,
    assemble_hermitian_density,
    interference_probabilities,
    matrix_elements_direct,
    onsite_probabilities,
    reconstruct_bloch_field,
    reconstruct_matrix_elements,
    sample_shot_noise,
    to_nonhermitian,
)
from eig_oracle import eig_biorthogonal
from ptwalk.quench import QuenchSpec, bloch_field, initial_spinors
from ptwalk.walksim import PositionState, evolve, fourier


def random_two_site_state(rng, scale=0.5):
    """Random two-site state with total flux <= 1 (a physical decayed state)."""
    amps = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return PositionState(x_min=0, amplitudes=scale * amps / np.linalg.norm(amps))


def test_onsite_probability_basics():
    state = PositionState(x_min=0, amplitudes=[[1, 0]])
    probs = onsite_probabilities(state).probs[0]
    np.testing.assert_allclose(probs, [1, 0, 0.5, 0.5], atol=1e-15)


def test_onsite_circular_component(rng):
    # (|H> + i|V>)/sqrt(2) is orthogonal to |L> = (|H> - i|V>)/sqrt(2)
    state = PositionState(x_min=0, amplitudes=[[1 / np.sqrt(2), 1j / np.sqrt(2)]])
    probs = onsite_probabilities(state).probs[0]
    psi = state.amplitudes[0]
    np.testing.assert_allclose(
        probs,
        [0.5, 0.5, abs(np.vdot(KET_L, psi)) ** 2, abs(np.vdot(KET_D, psi)) ** 2],
        atol=1e-15,
    )
    assert probs[2] == pytest.approx(0.0, abs=1e-15)


def test_onsite_diagonal_identities(rng):
    for _ in range(50):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        state = PositionState(x_min=3, amplitudes=[psi * 0.6])
        ph, pv, pl, pd = onsite_probabilities(state).probs[0]
        v = psi * 0.6
        np.testing.assert_allclose(ph + pv, np.vdot(v, v).real, atol=1e-12)
        np.testing.assert_allclose(2 * pd - ph - pv, np.vdot(v, PAULI[1] @ v).real, atol=1e-12)
        np.testing.assert_allclose(-2 * pl + ph + pv, np.vdot(v, PAULI[2] @ v).real, atol=1e-12)
        np.testing.assert_allclose(ph - pv, np.vdot(v, PAULI[3] @ v).real, atol=1e-12)


def test_interference_single_amplitude():
    state = PositionState(x_min=0, amplitudes=[[1, 0], [0, 0]])
    pair = interference_probabilities(state, 0, 1)
    # phi_1 = (1, 0): balanced L and D projections
    assert pair.p_l[0] == pytest.approx(0.5, abs=1e-15)
    assert pair.p_d[0] == pytest.approx(0.5, abs=1e-15)
    # phi_2, phi_3 vanish; phi_4 = (1, 0) again
    assert pair.p_l[1] == pair.p_d[1] == 0
    assert pair.p_l[2] == pair.p_d[2] == 0
    assert pair.p_d[3] == pytest.approx(0.5, abs=1e-15)


def test_interference_equal_amplitudes_direct_oracle(rng):
    state = PositionState(
        x_min=0, amplitudes=[[1 / np.sqrt(2), 0], [1 / np.sqrt(2), 0]]
    )
    pair = interference_probabilities(state, 0, 1)
    phi1 = np.array([1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert pair.p_d[0] == pytest.approx(abs(np.vdot(KET_D, phi1)) ** 2, abs=1e-15)
    assert pair.p_d[0] == pytest.approx(1.0, abs=1e-15)
    assert pair.p_l[0] == pytest.approx(0.5, abs=1e-15)


def test_interference_requires_distinct_sites():
    state = PositionState(x_min=0, amplitudes=[[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        interference_probabilities(state, 1, 1)


def test_eight_identities_random_states(rng):
    """Reconstructed Re/Im of every matrix element, 1000 random two-site states."""
    worst = 0.0
    for _ in range(1000):
        state = random_two_site_state(rng)
        table = reconstruct_matrix_elements(
            onsite_probabilities(state), all_pair_probabilities(state)
        )
        direct = matrix_elements_direct(state)
        worst = max(worst, np.abs(table.table - direct.table).max())
    assert worst < 1e-12


def test_zero_state_zero_table():
    state = PositionState(x_min=-1, amplitudes=np.zeros((3, 2)))
    table = reconstruct_matrix_elements(
        onsite_probabilities(state), all_pair_probabilities(state)
    )
    np.testing.assert_array_equal(table.table, 0)


def test_table_hermitian_symmetry(rng):
    state = random_two_site_state(rng)
    table = reconstruct_matrix_elements(
        onsite_probabilities(state), all_pair_probabilities(state)
    ).table
    for j in (0, 1, 3):
        np.testing.assert_allclose(table[..., j], table[..., j].conj().T, atol=1e-12)
    # sigma_2 entry obeys the same adjoint relation (sigma_2 is Hermitian)
    np.testing.assert_allclose(table[..., 2], table[..., 2].conj().T, atol=1e-12)


def test_rho_prime_is_momentum_projector(rng):
    params = CoinParams(0.8, -0.5, 0.36)
    state = evolve([0.76, 0.65j], params, 4)[-1]
    table = reconstruct_matrix_elements(
        onsite_probabilities(state), all_pair_probabilities(state)
    )
    ks = np.linspace(-np.pi, np.pi, 32, endpoint=False)
    rho_p = assemble_hermitian_density(table, ks)
    psi_k = fourier(state, ks)
    outer = np.einsum("ka,kb->kab", psi_k, psi_k.conj())
    np.testing.assert_allclose(rho_p, outer, atol=1e-10)
    # Hermitian, rank 1
    np.testing.assert_allclose(rho_p, rho_p.conj().transpose(0, 2, 1), atol=1e-10)
    dets = np.linalg.det(rho_p)
    np.testing.assert_allclose(dets, 0, atol=1e-10)


def test_left_frame_normalization_unitary_limit(rng):
    system = eig_biorthogonal(momentum_operator_closed(CoinParams(0.4, 0.9, 0.0), 0.7))
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    rho_p = np.outer(psi, psi.conj())
    rho = to_nonhermitian(rho_p, system)
    np.testing.assert_allclose(rho, rho_p / np.trace(rho_p), atol=1e-12)
    rho_scaled = to_nonhermitian(0.64 * rho_p, system)
    np.testing.assert_allclose(rho_scaled, rho, atol=1e-14)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)


def test_left_frame_normalization_singular_input():
    system = eig_biorthogonal(momentum_operator_closed(CoinParams(0.4, 0.9, 0.0), 0.7))
    with pytest.raises(SingularNormalization):
        to_nonhermitian(np.zeros((2, 2)), system)


def test_pipeline_matches_analytics(spec_fig3a, spec_fig3b):
    """The module's defining test: probabilities alone rebuild n(k,t) exactly."""
    for spec in (spec_fig3a, spec_fig3b):
        rec = reconstruct_bloch_field(spec, t_max=8, n_k=64)
        ana = bloch_field(spec, n_k=64, ts=rec.ts)
        assert np.abs(rec.n - ana.n).max() < 1e-9


def test_pipeline_scale_invariance(spec_fig3b):
    """Rescaling the initial spinor leaves the reconstructed field unchanged."""
    base_state = initial_spinors(spec_fig3b, np.array([0.0]))[0]
    scaled = QuenchSpec(
        initial=spec_fig3b.initial,
        final=spec_fig3b.final,
        initial_state=tuple(0.37 * base_state),
    )
    rec_base = reconstruct_bloch_field(spec_fig3b, t_max=4, n_k=32)
    rec_scaled = reconstruct_bloch_field(scaled, t_max=4, n_k=32)
    np.testing.assert_allclose(rec_scaled.n, rec_base.n, atol=1e-9)


def test_pipeline_rejects_momentum_dependent_initial():
    spec = QuenchSpec(
        initial=CoinParams(0.3, 0.8, 0.2),  # cos(theta2) != 0
        final=CoinParams(-0.9, 0.4, 0.2),
    )
    with pytest.raises(ValueError):
        reconstruct_bloch_field(spec, t_max=2, n_k=16)


# ---------------------------------------------------------------------------
# shot noise


def test_noise_determinism(rng):
    state = random_two_site_state(rng, scale=0.4)
    site = onsite_probabilities(state)
    a = sample_shot_noise(site, 10_000, seed=7)
    b = sample_shot_noise(site, 10_000, seed=7)
    np.testing.assert_array_equal(a.probs, b.probs)
    c = sample_shot_noise(site, 10_000, seed=8)
    assert np.any(a.probs != c.probs)
    pair = interference_probabilities(state, 0, 1)
    np.testing.assert_array_equal(
        sample_shot_noise(pair, 5000, seed=1).p_l,
        sample_shot_noise(pair, 5000, seed=1).p_l,
    )


def test_noise_lossless_state_keeps_total_flux(rng):
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    state = PositionState(x_min=0, amplitudes=[psi])
    site = onsite_probabilities(state)
    noisy = sample_shot_noise(site, 50_000, seed=3)
    # H/V analysis: no flux is lost for a unit-norm state
    assert noisy.probs[:, :2].sum() == pytest.approx(1.0, abs=1e-12)


def test_noise_convergence_rate(rng):
    state = random_two_site_state(rng, scale=0.9)
    site = onsite_probabilities(state)
    errors = {}
    for n in (10_000, 1_000_000):
        noisy = sample_shot_noise(site, n, seed=11)
        errors[n] = np.abs(noisy.probs - site.probs).max()
    assert errors[1_000_000] < 3e-3
    # an order of magnitude in error for two orders in samples (loose factor)
    assert errors[1_000_000] < errors[10_000] / 3


def test_noisy_pipeline_near_unit_norm(spec_fig3b):
    """10^6 samples per configuration keep n near the unit sphere.

    The deviation scales with the window size: ~3e-4 while the walk covers
    one site, ~3e-2 by t = 3 (13 sites, ~160 noisy pair configurations per
    momentum).
    """
    rec = reconstruct_bloch_field(spec_fig3b, t_max=3, n_k=32, n_samples=1_000_000, seed=5)
    norms = np.linalg.norm(rec.n, axis=-1)
    assert np.abs(norms[:, 1] - 1.0).max() < 0.01
    assert np.abs(norms - 1.0).max() < 0.05
    ana = bloch_field(spec_fig3b, n_k=32, ts=rec.ts)
    unit = rec.n / norms[..., None]
    assert np.abs(unit - ana.n).max() < 0.05


def test_noisy_pipeline_convergence(spec_fig3b):
    ana = bloch_field(spec_fig3b, n_k=16, ts=np.arange(3.0))
    errs = {}
    for n in (10_000, 1_000_000):
        rec = reconstruct_bloch_field(spec_fig3b, t_max=2, n_k=16, n_samples=n, seed=2)
        unit = rec.n / np.linalg.norm(rec.n, axis=-1, keepdims=True)
        errs[n] = np.abs(unit - ana.n).max()
    assert errs[1_000_000] < errs[10_000] / 3
    assert errs[1_000_000] < 0.02
