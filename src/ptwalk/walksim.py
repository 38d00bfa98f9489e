"""Stroboscopic position-space evolution of the lossy walk.

States are stored densely on a contiguous site window that follows the light
cone (2 sites per step on each side), with no truncation of small amplitudes.
Evolution applies the unrescaled operator, so norms genuinely decay for p > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .floquet import CoinParams, coin_rotation, loss_matrix

__all__ = ["PositionState", "step_position", "evolve", "fourier"]


@dataclass(frozen=True)
class PositionState:
    """Coin spinors on a contiguous window of lattice sites.

    ``amplitudes[i]`` is the (a, b) spinor on site ``x_min + i``.
    """

    x_min: int
    amplitudes: np.ndarray  # (n_sites, 2) complex
    t: int = 0

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 2 or amps.shape[1] != 2:
            raise ValueError(f"amplitudes must be (n_sites, 2), got {amps.shape}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def x_max(self) -> int:
        return self.x_min + len(self.amplitudes) - 1

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.x_min, self.x_max + 1)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def spinor_at(self, x: int) -> np.ndarray:
        if self.x_min <= x <= self.x_max:
            return self.amplitudes[x - self.x_min]
        return np.zeros(2, dtype=complex)


def _shift(amps: np.ndarray) -> np.ndarray:
    """Move a components one site left and b components one site right."""
    out = np.zeros((len(amps) + 2, 2), dtype=complex)
    out[:-2, 0] = amps[:, 0]
    out[2:, 1] = amps[:, 1]
    return out


def step_position(state: PositionState, params: CoinParams) -> PositionState:
    """Apply one full (unrescaled) walk period; the window grows by 2 per side."""
    r1 = coin_rotation(params.theta1 / 2).T
    r2 = coin_rotation(params.theta2 / 2).T
    m = loss_matrix(params.p).T
    amps = state.amplitudes @ r1
    amps = _shift(amps)
    amps = amps @ r2 @ m @ r2
    amps = _shift(amps)
    amps = amps @ r1
    return PositionState(x_min=state.x_min - 2, amplitudes=amps, t=state.t + 1)


def evolve(initial_coin: np.ndarray, params: CoinParams, t_max: int) -> list[PositionState]:
    """States after 0..t_max steps, starting localized at x = 0."""
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    coin = np.asarray(initial_coin, dtype=complex).reshape(1, 2)
    states = [PositionState(x_min=0, amplitudes=coin, t=0)]
    for _ in range(t_max):
        states.append(step_position(states[-1], params))
    return states


def fourier(state: PositionState, k) -> np.ndarray:
    """Momentum spinor psi_k = sum_x e^{-ikx} psi_x (unnormalized), (..., 2)."""
    k = np.asarray(k, dtype=float)
    phases = np.exp(-1j * np.multiply.outer(k, state.sites.astype(float)))
    return np.einsum("...x,xc->...c", phases, state.amplitudes)
