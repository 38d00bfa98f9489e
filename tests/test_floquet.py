"""Operator construction: closed form vs direct product, derived parameters."""

import numpy as np
import pytest

from ptwalk.floquet import CoinParams, d_coefficients, momentum_operator_closed
from ptwalk.spectrum import walk_eigensystem
from conftest import random_coin_params
from operator_oracle import momentum_operator_direct


def test_p_one_rejected():
    with pytest.raises(ValueError):
        CoinParams(0.1, 0.2, 1.0)
    with pytest.raises(ValueError):
        CoinParams(0.1, 0.2, -0.01)
    CoinParams(0.1, 0.2, 0.0)  # boundary p = 0 is fine


@pytest.mark.parametrize("angles", [(np.nan, 0.2), (0.1, np.inf), (-np.inf, np.nan)])
def test_non_finite_coin_angles_are_rejected(angles):
    with pytest.raises(ValueError, match="^coin angles must be finite$"):
        CoinParams(*angles, 0.36)


def test_derived_loss_parameters():
    params = CoinParams(0.0, 0.0, 0.36)
    assert params.gamma == pytest.approx(1.1180339887498949, abs=1e-12)
    assert params.alpha == pytest.approx(1.0062305898749054, abs=1e-12)
    assert params.beta == pytest.approx(0.1118033988749895, abs=1e-12)
    unitary = CoinParams(0.3, -0.4, 0.0)
    assert unitary.gamma == 1.0 and unitary.alpha == 1.0 and unitary.beta == 0.0


def test_identity_coins_give_double_shift():
    params = CoinParams(0.0, 0.0, 0.0)
    for k in (0.0, 0.37, -1.2):
        d = d_coefficients(params, k)
        np.testing.assert_allclose(
            d, [np.cos(2 * k), 0, 0, -np.sin(2 * k)], atol=1e-14
        )
        want = np.diag([np.exp(2j * k), np.exp(-2j * k)])
        np.testing.assert_allclose(momentum_operator_closed(params, k), want, atol=1e-14)
        np.testing.assert_allclose(momentum_operator_direct(params, k), want, atol=1e-14)


def test_hand_evaluated_d_vector():
    d = d_coefficients(CoinParams(-np.pi / 2, np.pi / 3, 0.0), 0.0)
    np.testing.assert_allclose(d, [np.sqrt(3) / 2, 0, -0.5, 0], atol=1e-14)


def test_closed_equals_direct_randomized(rng):
    ks = rng.uniform(-np.pi, np.pi, size=200)
    for _ in range(40):
        params = random_coin_params(rng)
        closed = momentum_operator_closed(params, ks)
        direct = momentum_operator_direct(params, ks)
        np.testing.assert_allclose(closed, direct, atol=1e-12)


def test_gamma_scaling_gives_passive_operator(rng):
    for _ in range(20):
        params = random_coin_params(rng)
        k = float(rng.uniform(-np.pi, np.pi))
        passive = momentum_operator_direct(params, k) / params.gamma
        np.testing.assert_allclose(
            momentum_operator_closed(params, k) / params.gamma, passive, atol=1e-12
        )
        # the passive operator never amplifies any spinor
        sv = np.linalg.svd(passive, compute_uv=False)
        assert sv.max() <= 1 + 1e-12


def test_unit_determinant_sum_rule(rng):
    for _ in range(40):
        params = random_coin_params(rng)
        k = float(rng.uniform(-np.pi, np.pi))
        d = d_coefficients(params, k)
        assert complex(np.sum(d * d)) == pytest.approx(1.0, abs=1e-12)
        det = np.linalg.det(momentum_operator_closed(params, k))
        assert abs(det) == pytest.approx(1.0, abs=1e-12)
        if params.p == 0.0:
            assert np.abs(d.imag).max() < 1e-14


def test_quasienergy_reality_dichotomy_and_k_parity(rng):
    for _ in range(40):
        params = random_coin_params(rng)
        k = float(rng.uniform(-np.pi, np.pi))
        try:
            ep, em = walk_eigensystem(params, k).quasienergies
            ep_rev, _ = walk_eigensystem(params, -k).quasienergies
        except Exception:
            continue
        assert ep == -em
        # bands are real or imaginary mod pi, never generically complex
        assert min(abs(ep.imag), abs(ep.real) % np.pi) < 1e-10
        # spectra at k and -k coincide (d0 is even in k)
        assert ep == pytest.approx(ep_rev, abs=1e-12)


def test_momentum_independent_operator_when_cos_theta2_zero(rng):
    """One dashed-line locus: theta2 = +-pi/2 makes U_k the same for all k."""
    ks = np.linspace(-np.pi, np.pi, 64, endpoint=False)
    for theta2 in (np.pi / 2, -np.pi / 2):
        params = CoinParams(float(rng.uniform(-np.pi, np.pi)), theta2, 0.36)
        ops = momentum_operator_closed(params, ks)
        np.testing.assert_allclose(ops, np.broadcast_to(ops[0], ops.shape), atol=1e-13)


def test_flat_bands_when_cos_theta1_zero(rng):
    """The other locus: theta1 = +-pi/2 makes d0, hence E_k, k-independent."""
    ks = np.linspace(-np.pi, np.pi, 64, endpoint=False)
    for theta1 in (np.pi / 2, -np.pi / 2):
        params = CoinParams(theta1, float(rng.uniform(-np.pi, np.pi)), 0.36)
        d0 = d_coefficients(params, ks)[:, 0].real
        assert np.ptp(d0) < 1e-13
