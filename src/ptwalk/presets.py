"""Bundled quench configurations used by the CLI and the regression suite.

Angles are stored as symbolic expressions and evaluated against each preset's
loss probability, so parameters defined through alpha = gamma(1+sqrt(1-p))/2
stay exact.  ``initial_state=None`` means the lower-band eigenstate of the
initial operator; fig4 starts from the explicit coin state (|H>+|V>)/sqrt(2),
which is not an eigenstate (the steady state there is reached regardless).
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import evaluate, evaluate_angle
from .floquet import CoinParams
from .quench import QuenchSpec

__all__ = ["Preset", "PRESETS", "build_spec", "final_params", "preset_names"]


@dataclass(frozen=True)
class Preset:
    name: str
    theta1_i: str
    theta2_i: str
    theta1_f: str
    theta2_f: str
    p: float
    initial_state: tuple[str, str] | None
    description: str


PRESETS: dict[str, Preset] = {
    preset.name: preset
    for preset in (
        Preset(
            name="fig3a",
            theta1_i="pi/4",
            theta2_i="-pi/2",
            theta1_f="-pi/2",
            theta2_f="pi/3",
            p=0.0,
            initial_state=None,
            description="unitary quench across winding numbers 0 -> -2, flat bands",
        ),
        Preset(
            name="fig3b",
            theta1_i="pi/4",
            theta2_i="-pi/2",
            theta1_f="-pi/2",
            theta2_f="arcsin(cos(pi/6)/alpha)",
            p=0.36,
            initial_state=None,
            description="lossy quench across winding numbers 0 -> -2, flat real bands",
        ),
        Preset(
            name="fig4",
            theta1_i="pi/4",
            theta2_i="-pi/2",
            theta1_f="-pi/2",
            theta2_f="(pi - arccos(1/alpha))/2",
            p=0.36,
            initial_state=("1/sqrt(2)", "1/sqrt(2)"),
            description="quench into the PT-broken regime; flat imaginary bands",
        ),
        Preset(
            name="fig6",
            theta1_i="pi/4",
            theta2_i="-pi/2",
            theta1_f="7*pi/25",
            theta2_f="-9*pi/20",
            p=0.36,
            initial_state=None,
            description="lossy quench within one winding sector; curved bands",
        ),
    )
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def _coin_params(theta1: str, theta2: str, p: float) -> CoinParams:
    return CoinParams(evaluate_angle(theta1, p), evaluate_angle(theta2, p), p)


def final_params(preset: Preset) -> CoinParams:
    """Evaluate a preset's final walk operator alone (single-operator commands)."""
    return _coin_params(preset.theta1_f, preset.theta2_f, preset.p)


def build_spec(preset: Preset) -> QuenchSpec:
    """Evaluate a preset's expressions into a concrete quench specification."""
    p = preset.p
    initial = _coin_params(preset.theta1_i, preset.theta2_i, p)
    final = final_params(preset)
    state = None
    if preset.initial_state is not None:
        state = (
            complex(evaluate(preset.initial_state[0], p)),
            complex(evaluate(preset.initial_state[1], p)),
        )
    return QuenchSpec(initial=initial, final=final, initial_state=state)
