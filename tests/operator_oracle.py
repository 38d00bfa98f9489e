"""The walk operator multiplied out factor by factor: the reference for
``ptwalk.floquet.momentum_operator_closed``.

The closed Pauli form rests on the sign conventions of every factor, so the
two must agree elementwise to machine precision for all parameters.  The coin
and loss factors are the package's own, which the position-space walk applies;
only the momentum-space shift is written here.
"""

import numpy as np

from ptwalk.floquet import CoinParams, coin_rotation, loss_matrix


def shift_matrix(k) -> np.ndarray:
    """Momentum representation diag(e^{ik}, e^{-ik}) of the double-sided shift."""
    k = np.asarray(k, dtype=float)
    out = np.zeros(k.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = np.exp(1j * k)
    out[..., 1, 1] = np.exp(-1j * k)
    return out


def momentum_operator_direct(params: CoinParams, k) -> np.ndarray:
    """gamma R(theta1/2) S R(theta2/2) M R(theta2/2) S R(theta1/2), (..., 2, 2)."""
    r1 = coin_rotation(params.theta1 / 2)
    r2 = coin_rotation(params.theta2 / 2)
    s = shift_matrix(k)
    inner = r2 @ loss_matrix(params.p) @ r2
    return params.gamma * (r1 @ s @ inner @ s @ r1)
