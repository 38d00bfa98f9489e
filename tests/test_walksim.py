"""Position-space evolution against the momentum-space operator."""

import numpy as np
import pytest

from ptwalk.core import KET_H
from ptwalk.floquet import CoinParams, momentum_operator_closed
from ptwalk.presets import PRESETS, build_spec
from ptwalk.quench import initial_spinors
from ptwalk.walksim import PositionState, evolve, fourier, step_position
from conftest import random_coin_params


def inverse_fourier(spinors_k, ks, xs):
    """Recover site spinors from momentum samples on a uniform k grid."""
    phases = np.exp(1j * np.multiply.outer(xs.astype(float), np.asarray(ks)))
    return np.einsum("xk,kc->xc", phases, spinors_k) / len(ks)


def test_double_left_shift_of_h():
    params = CoinParams(0.0, 0.0, 0.0)
    state = PositionState(x_min=0, amplitudes=[[1, 0]])
    stepped = step_position(state, params)
    assert stepped.t == 1
    np.testing.assert_allclose(stepped.spinor_at(-2), [1, 0], atol=1e-15)
    assert stepped.norm == pytest.approx(1.0, abs=1e-15)


def test_unitary_norm_conservation(rng):
    params = CoinParams(0.9, -0.3, 0.0)
    coin = rng.normal(size=2) + 1j * rng.normal(size=2)
    coin = coin / np.linalg.norm(coin)
    states = evolve(coin, params, 12)
    for state in states:
        assert state.norm == pytest.approx(1.0, abs=1e-12)


def test_t0_returns_initial_coin():
    states = evolve([0.6, 0.8j], CoinParams(0.5, 0.5, 0.2), 0)
    assert len(states) == 1
    np.testing.assert_allclose(states[0].spinor_at(0), [0.6, 0.8j])


def test_norm_monotone_under_loss(rng):
    for _ in range(5):
        params = random_coin_params(rng, p_max=0.8)
        if params.p < 0.05:
            continue
        coin = rng.normal(size=2) + 1j * rng.normal(size=2)
        states = evolve(coin / np.linalg.norm(coin), params, 8)
        norms = [s.norm for s in states]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_light_cone():
    params = CoinParams(1.1, 0.3, 0.36)
    states = evolve([1 / np.sqrt(2), 1j / np.sqrt(2)], params, 7)
    for state in states:
        assert state.x_min == -2 * state.t
        assert state.x_max == 2 * state.t


def test_momentum_position_equivalence_fig3b():
    spec = build_spec(PRESETS["fig3b"])
    coin = initial_spinors(spec, np.array([0.0]))[0]
    states = evolve(coin, spec.final, 6)
    ks = np.linspace(-np.pi, np.pi, 128, endpoint=False)
    gamma = spec.final.gamma
    u = momentum_operator_closed(spec.final, ks)
    target = np.broadcast_to(coin, (len(ks), 2)).copy()
    for t, state in enumerate(states):
        np.testing.assert_allclose(fourier(state, ks), target, atol=1e-10)
        target = np.einsum("kab,kb->ka", u, target) / gamma


def test_equivalence_every_step_random(rng):
    params = random_coin_params(rng)
    coin = rng.normal(size=2) + 1j * rng.normal(size=2)
    ks = np.linspace(-np.pi, np.pi, 64, endpoint=False)
    u = momentum_operator_closed(params, ks) / params.gamma
    psi_k = np.broadcast_to(coin, (len(ks), 2)).copy()
    state = PositionState(x_min=0, amplitudes=[coin])
    for _ in range(6):
        state = step_position(state, params)
        psi_k = np.einsum("kab,kb->ka", u, psi_k)
        np.testing.assert_allclose(fourier(state, ks), psi_k, atol=1e-10)


def test_fourier_single_site_phases():
    state = PositionState(x_min=1, amplitudes=[[1, 0]])
    ks = np.array([0.0, 0.7, -2.0])
    expected = np.stack([np.exp(-1j * ks), np.zeros(3)], axis=-1)
    np.testing.assert_allclose(fourier(state, ks), expected, atol=1e-15)
    centered = PositionState(x_min=0, amplitudes=[[0.3, -0.4j]])
    np.testing.assert_allclose(
        fourier(centered, ks), np.broadcast_to([0.3, -0.4j], (3, 2)), atol=1e-15
    )


def test_fourier_round_trip_12_steps(rng):
    params = CoinParams(0.8, -0.5, 0.36)
    state = evolve(KET_H, params, 12)[-1]
    ks = np.linspace(-np.pi, np.pi, 256, endpoint=False)
    spectra = fourier(state, ks)
    recovered = inverse_fourier(spectra, ks, state.sites)
    np.testing.assert_allclose(recovered, state.amplitudes, atol=1e-10)
