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
    chern_riemann,
    chern_solid_angle,
)
from .core import EigenSystem, eig_biorthogonal_grid, pauli_assemble, pauli_expand
from .errors import (
    ConfigError,
    DegenerateSpectrum,
    DegenerateTriangle,
    ExceptionalPoint,
    ImaginaryEnergy,
    NonQuantized,
    SingularNormalization,
    WalkError,
)
from .floquet import (
    CoinParams,
    d_coefficients,
    momentum_operator_closed,
    momentum_operator_direct,
)
from .measurement import (
    assemble_hermitian_density,
    interference_probabilities,
    onsite_probabilities,
    reconstruct_bloch_field,
    reconstruct_matrix_elements,
    sample_shot_noise,
    to_nonhermitian,
)
from .presets import PRESETS, build_spec
from .quench import (
    BlochField,
    FixedPoint,
    FixedPointKind,
    OverlapPair,
    QuenchSpec,
    bloch_field,
    bloch_vector,
    density_matrix,
    find_fixed_points,
    oscillation_period,
    overlaps,
)
from .spectrum import (
    BandStructure,
    PhaseDiagramCell,
    PTPhase,
    band_structure,
    phase_diagram,
    pt_classify,
    quasienergies,
    winding_number,
    zak_phase,
)
from .walksim import PositionState, evolve, fourier, step_position

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
    "ImaginaryEnergy",
    "NonQuantized",
    "OverlapPair",
    "PRESETS",
    "PTPhase",
    "PhaseDiagramCell",
    "PositionState",
    "QuenchSpec",
    "SingularNormalization",
    "Submanifold",
    "WalkError",
    "assemble_hermitian_density",
    "band_structure",
    "bloch_field",
    "bloch_vector",
    "build_spec",
    "build_submanifolds",
    "chern_riemann",
    "chern_solid_angle",
    "d_coefficients",
    "density_matrix",
    "eig_biorthogonal_grid",
    "evolve",
    "find_fixed_points",
    "fourier",
    "interference_probabilities",
    "momentum_operator_closed",
    "momentum_operator_direct",
    "onsite_probabilities",
    "oscillation_period",
    "overlaps",
    "pauli_assemble",
    "pauli_expand",
    "phase_diagram",
    "pt_classify",
    "quasienergies",
    "reconstruct_bloch_field",
    "reconstruct_matrix_elements",
    "sample_shot_noise",
    "step_position",
    "to_nonhermitian",
    "winding_number",
    "zak_phase",
]
