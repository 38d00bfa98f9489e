"""Floquet operator of the lossy split-step walk in momentum space.

One period applies, right to left,

    U = R(theta1/2) S R(theta2/2) M R(theta2/2) S R(theta1/2)

where R(theta) = exp(-i theta sigma_2) rotates the coin, S shifts |H> to x-1
and |V> to x+1, and M = |+><+| + sqrt(1-p)|-><-| removes part of the |->
component each step.  With the Fourier convention psi_k = sum_x e^{-ikx} psi_x
the shift becomes S_k = diag(e^{ik}, e^{-ik}).

The rescaled operator Ut_k = gamma U_k, gamma = (1-p)^(-1/4), has unit
determinant and the closed Pauli form

    Ut_k = d0 sigma_0 - i(d1 sigma_1 + d2 sigma_2 + d3 sigma_3),   d1 = i beta,

with d0, d2, d3 real trigonometric polynomials in (2k, theta1, theta2).  Only
the closed form is computed here; the tests multiply the factors out and
require agreement to machine precision, which pins every sign convention
above.  The position-space walk applies the same coin and loss factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import pauli_assemble

__all__ = [
    "CoinParams",
    "coin_rotation",
    "loss_matrix",
    "d_coefficients",
    "momentum_operator_closed",
]


@dataclass(frozen=True)
class CoinParams:
    """Coin angles (radians) and loss probability of one walk family."""

    theta1: float
    theta2: float
    p: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.theta1) and math.isfinite(self.theta2)):
            raise ValueError("coin angles must be finite")
        if not 0.0 <= self.p < 1.0:
            # gamma = (1-p)^(-1/4) diverges at p = 1.
            raise ValueError(f"loss probability must satisfy 0 <= p < 1, got {self.p}")

    @property
    def gamma(self) -> float:
        return (1.0 - self.p) ** -0.25

    @property
    def alpha(self) -> float:
        return 0.5 * self.gamma * (1.0 + math.sqrt(1.0 - self.p))

    @property
    def beta(self) -> float:
        return 0.5 * self.gamma * (1.0 - math.sqrt(1.0 - self.p))

    @property
    def trig(self) -> tuple[float, float, float, float]:
        """(cos theta1, sin theta1, cos theta2, sin theta2) with ``math``."""
        return (math.cos(self.theta1), math.sin(self.theta1),
                math.cos(self.theta2), math.sin(self.theta2))


def coin_rotation(theta: float) -> np.ndarray:
    """R(theta) = exp(-i theta sigma_2), a real rotation of the coin."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def loss_matrix(p: float) -> np.ndarray:
    """M = |+><+| + sqrt(1-p)|-><-| in the polarization basis."""
    m = math.sqrt(1.0 - p)
    return 0.5 * np.array([[1 + m, 1 - m], [1 - m, 1 + m]], dtype=complex)


def d_coefficients(params: CoinParams, k) -> np.ndarray:
    """Pauli coefficients (d0, d1, d2, d3) of Ut_k, shape (..., 4) complex.

    d0, d2, d3 are real; d1 = i beta is purely imaginary.  Unit determinant of
    Ut_k gives the sum rule d0^2 + d1^2 + d2^2 + d3^2 = 1.
    """
    k = np.asarray(k, dtype=float)
    a = params.alpha
    c1, s1, c2, s2 = params.trig
    cos2k, sin2k = np.cos(2 * k), np.sin(2 * k)
    out = np.empty(k.shape + (4,), dtype=complex)
    out[..., 0] = a * (cos2k * c1 * c2 - s1 * s2)
    out[..., 1] = 1j * params.beta
    out[..., 2] = a * (cos2k * c2 * s1 + c1 * s2)
    out[..., 3] = -a * sin2k * c2
    return out


def momentum_operator_closed(params: CoinParams, k) -> np.ndarray:
    """Rescaled operator Ut_k from the closed-form d coefficients, (..., 2, 2)."""
    return pauli_assemble(d_coefficients(params, k) * np.array([1, -1j, -1j, -1j]))
