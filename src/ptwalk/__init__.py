"""Non-unitary quantum-walk quench dynamics and its emergent topology.

A library and CLI for lossy split-step walks with balanced gain/loss
structure: quasienergy spectra and winding numbers, quench Bloch-vector
textures n(k, t) with their fixed points, dynamic Chern numbers on
momentum-time submanifolds, and a position-space measurement pipeline that
rebuilds n(k, t) from projective and interference probabilities alone.
"""

__version__ = "0.1.0"

from .chern import (
    ChernResult,
    Submanifold,
    build_submanifolds,
    chern_numbers,
)
from .core import EigenSystem, pauli_assemble
from .errors import (
    ConfigError,
    DegenerateSpectrum,
    DegenerateTriangle,
    ExceptionalPoint,
    SingularNormalization,
    WalkError,
)
from .floquet import CoinParams, d_coefficients, momentum_operator_closed
from .measurement import (
    onsite_probabilities,
    reconstruct_bloch_field,
    sample_shot_noise,
)
from .presets import PRESETS, build_spec
from .quench import (
    BlochField,
    FixedPoint,
    FixedPointKind,
    QuenchSpec,
    bloch_field,
    find_fixed_points,
)
from .spectrum import (
    BandStructure,
    PTPhase,
    band_structure,
    phase_diagram,
    pt_classify,
    winding_number,
)
from .walksim import PositionState, evolve, step_position

__all__ = [
    "__version__",
    "BandStructure",
    "BlochField",
    "ChernResult",
    "CoinParams",
    "ConfigError",
    "DegenerateSpectrum",
    "DegenerateTriangle",
    "EigenSystem",
    "ExceptionalPoint",
    "FixedPoint",
    "FixedPointKind",
    "PRESETS",
    "PTPhase",
    "PositionState",
    "QuenchSpec",
    "SingularNormalization",
    "Submanifold",
    "WalkError",
    "band_structure",
    "bloch_field",
    "build_spec",
    "build_submanifolds",
    "chern_numbers",
    "d_coefficients",
    "evolve",
    "find_fixed_points",
    "momentum_operator_closed",
    "onsite_probabilities",
    "pauli_assemble",
    "phase_diagram",
    "pt_classify",
    "reconstruct_bloch_field",
    "sample_shot_noise",
    "step_position",
    "winding_number",
]
