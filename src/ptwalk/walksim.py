"""Stroboscopic position-space evolution of the lossy walk.

States are stored densely on a contiguous site window that follows the light
cone (2 sites per step on each side), with no truncation of small amplitudes.
Evolution applies the unrescaled operator, so norms genuinely decay for p > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .floquet import CoinParams, coin_rotation, loss_matrix

__all__ = ["PositionState", "step_position", "evolve"]


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


def _shift(amps: np.ndarray) -> np.ndarray:
    """Move a components one site left and b components one site right."""
    out = np.zeros((len(amps) + 2, 2), dtype=complex)
    out[:-2, 0] = amps[:, 0]
    out[2:, 1] = amps[:, 1]
    return out


def _period_factors(params: CoinParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The transposed half-angle rotations R(theta1/2), R(theta2/2) and loss matrix M,
    which act on the (n_sites, 2) amplitudes from the right."""
    r1 = coin_rotation(params.theta1 / 2).T
    r2 = coin_rotation(params.theta2 / 2).T
    return r1, r2, loss_matrix(params.p).T


def _step(state: PositionState, r1: np.ndarray, r2: np.ndarray, m: np.ndarray) -> PositionState:
    amps = state.amplitudes @ r1
    amps = _shift(amps)
    amps = amps @ r2 @ m @ r2
    amps = _shift(amps)
    amps = amps @ r1
    return PositionState(x_min=state.x_min - 2, amplitudes=amps, t=state.t + 1)


def step_position(state: PositionState, params: CoinParams) -> PositionState:
    """Apply one full (unrescaled) walk period; the window grows by 2 per side."""
    return _step(state, *_period_factors(params))


def evolve(initial_coin: np.ndarray, params: CoinParams, t_max: int) -> list[PositionState]:
    """States after 0..t_max steps, starting localized at x = 0."""
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    coin = np.asarray(initial_coin, dtype=complex).reshape(1, 2)
    states = [PositionState(x_min=0, amplitudes=coin, t=0)]
    factors = _period_factors(params)
    for _ in range(t_max):
        states.append(_step(states[-1], *factors))
    return states
