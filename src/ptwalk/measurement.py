"""Position-space measurement emulation and density-matrix reconstruction.

Two measurement primitives are emulated on a walk state:

* on each site, projective polarization analysis in {H, V, L, D} with
  |L> = (|H> - i|V>)/sqrt(2) and |D> = (|H> + |V>)/sqrt(2);
* for each ordered site pair (x1, x2), interference of the two amplitudes
  into a single mode, preparing one of four two-component states

      phi_1 = (a_x1,  a_x2),  phi_2 = (b_x1, -b_x2),
      phi_3 = (b_x1,  a_x2),  phi_4 = (a_x1,  b_x2),

  followed by {L, D} projections.

All probabilities are intensities relative to unit input flux, so they do not
sum to one under loss; this is the normalization under which the eight
reconstruction identities for Re/Im of <psi_x2|sigma_j|psi_x1> are exact.
From the reconstructed matrix-element table the Hermitian momentum-space
matrix rho'(k) = |psi_k><psi_k| is assembled, and the trace-normalized product
with sum_mu |chi^f_mu><chi^f_mu| recovers the non-Hermitian density matrix of
the quench, independent of the overall decayed norm.

Optional multinomial shot noise emulates finite photon counting per
measurement configuration with deterministic, configuration-keyed seeding.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .core import KET_D, KET_L, PAULI, EigenSystem
from .errors import SingularNormalization
from .quench import (
    EIGENSTATE_TOL,
    NORM_FLOOR,
    REAL_E_TOL,
    BlochField,
    QuenchSpec,
    bloch_from_density,
    final_eigensystem,
    initial_spinors,
    initial_state_residual,
)
from .walksim import PositionState, evolve

__all__ = [
    "SiteProbabilities",
    "PairProbabilities",
    "MatrixElementTable",
    "onsite_probabilities",
    "interference_probabilities",
    "all_pair_probabilities",
    "reconstruct_matrix_elements",
    "matrix_elements_direct",
    "assemble_hermitian_density",
    "to_nonhermitian",
    "sample_shot_noise",
    "reconstruct_bloch_field",
]


@dataclass(frozen=True)
class SiteProbabilities:
    """Per-site intensities in the four analysis bases, columns [H, V, L, D]."""

    x_min: int
    probs: np.ndarray  # (n_sites, 4)

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.x_min, self.x_min + len(self.probs))


@dataclass(frozen=True)
class PairProbabilities:
    """Interference intensities for one ordered pair, per preparation j=1..4."""

    x1: int
    x2: int
    p_l: np.ndarray  # (4,)
    p_d: np.ndarray  # (4,)


@dataclass(frozen=True)
class MatrixElementTable:
    """table[i1, i2, j] = <psi_{x2}|sigma_j|psi_{x1}> with x = x_min + i."""

    x_min: int
    table: np.ndarray  # (n_sites, n_sites, 4) complex

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.x_min, self.x_min + len(self.table))


def onsite_probabilities(state: PositionState) -> SiteProbabilities:
    """Projective polarization analysis on every site of the window."""
    amps = state.amplitudes
    out = np.empty((len(amps), 4))
    out[:, 0] = np.abs(amps[:, 0]) ** 2
    out[:, 1] = np.abs(amps[:, 1]) ** 2
    out[:, 2] = np.abs(amps @ KET_L.conj()) ** 2
    out[:, 3] = np.abs(amps @ KET_D.conj()) ** 2
    return SiteProbabilities(x_min=state.x_min, probs=out)


def interference_probabilities(state: PositionState, x1: int, x2: int) -> PairProbabilities:
    """Two-site interference intensities in the {L, D} bases."""
    if x1 == x2:
        raise ValueError("interference measurement needs two distinct sites")
    a1, b1 = state.spinor_at(x1)
    a2, b2 = state.spinor_at(x2)
    phis = np.array([[a1, a2], [b1, -b2], [b1, a2], [a1, b2]])
    return PairProbabilities(
        x1=x1,
        x2=x2,
        p_l=np.abs(phis @ KET_L.conj()) ** 2,
        p_d=np.abs(phis @ KET_D.conj()) ** 2,
    )


def all_pair_probabilities(state: PositionState) -> list[PairProbabilities]:
    """Interference data for every ordered pair of window sites."""
    xs = state.sites
    return [
        interference_probabilities(state, int(x1), int(x2))
        for x1 in xs
        for x2 in xs
        if x1 != x2
    ]


def reconstruct_matrix_elements(
    site: SiteProbabilities, pairs: Iterable[PairProbabilities]
) -> MatrixElementTable:
    """Matrix elements <psi_x2|sigma_j|psi_x1> from probabilities alone.

    Diagonal entries use the four on-site identities, e.g.
    <sigma_1> = 2 P_D - P_H - P_V; off-diagonal entries apply the eight
    Re/Im combinations of pair and on-site intensities verbatim.
    """
    n = len(site.probs)
    ph, pv = site.probs[:, 0], site.probs[:, 1]
    pl, pd = site.probs[:, 2], site.probs[:, 3]
    table = np.zeros((n, n, 4), dtype=complex)

    diag = np.arange(n)
    table[diag, diag, 0] = ph + pv
    table[diag, diag, 1] = 2 * pd - ph - pv
    table[diag, diag, 2] = -2 * pl + ph + pv
    table[diag, diag, 3] = ph - pv

    for pair in pairs:
        i1, i2 = pair.x1 - site.x_min, pair.x2 - site.x_min
        if not (0 <= i1 < n and 0 <= i2 < n):
            raise ValueError(f"pair ({pair.x1}, {pair.x2}) outside the site window")
        p1l, p2l, p3l, p4l = pair.p_l
        p1d, p2d, p3d, p4d = pair.p_d
        sum_minus = (ph[i1] + ph[i2] - pv[i1] - pv[i2]) / 2
        sum_plus = (ph[i1] + ph[i2] + pv[i1] + pv[i2]) / 2
        sum_cross = (pv[i1] + ph[i2] + ph[i1] + pv[i2]) / 2
        skew = (pv[i1] + ph[i2] - ph[i1] - pv[i2]) / 2
        table[i1, i2, 0] = (p1d - p2d - sum_minus) + 1j * (p1l - p2l - sum_minus)
        table[i1, i2, 1] = (p3d + p4d - sum_cross) + 1j * (p3l + p4l - sum_cross)
        table[i1, i2, 2] = (p3l - p4l - skew) + 1j * (p4d - p3d + skew)
        table[i1, i2, 3] = (p1d + p2d - sum_plus) + 1j * (p1l + p2l - sum_plus)
    return MatrixElementTable(x_min=site.x_min, table=table)


def matrix_elements_direct(state: PositionState) -> MatrixElementTable:
    """The same table straight from the amplitudes (oracle for the identities)."""
    amps = state.amplitudes
    table = np.einsum("jab,ya,xb->xyj", PAULI, amps.conj(), amps)
    return MatrixElementTable(x_min=state.x_min, table=table)


def assemble_hermitian_density(table: MatrixElementTable, k) -> np.ndarray:
    """rho'(k) = 1/2 sum_j sum_{x1,x2} e^{-ik(x1-x2)} table[x1,x2,j] sigma_j.

    Equals |psi_k><psi_k| for a noiseless table; shape (..., 2, 2) following k.
    """
    k = np.asarray(k, dtype=float)
    xs = table.sites.astype(float)
    dx = xs[:, None] - xs[None, :]
    phases = np.exp(-1j * np.multiply.outer(k, dx))
    return 0.5 * np.einsum("...xy,xyj,jab->...ab", phases, table.table, PAULI)


def to_nonhermitian(rho_prime: np.ndarray, system: EigenSystem) -> np.ndarray:
    """Non-Hermitian density matrix from the Hermitian one.

    Multiplies by sum_mu |chi_mu><chi_mu| of the final eigensystem and
    normalizes by the trace; invariant under any positive rescaling of
    rho_prime, so the decayed norm of the measured state drops out.
    ``rho_prime`` (..., 2, 2) broadcasts against the batch axes of ``system``.
    """
    chi_sum = np.einsum("...bc,...bd->...cd", system.left.conj(), system.left)
    numer = np.asarray(rho_prime, dtype=complex) @ chi_sum
    denom = np.trace(numer, axis1=-2, axis2=-1)
    if np.any(np.abs(denom) <= NORM_FLOOR):
        raise SingularNormalization(
            f"|Tr[rho' sum|chi><chi|]| = {np.abs(denom).min():.3e} <= {NORM_FLOOR:.0e}"
        )
    return numer / denom[..., None, None]


def _resolve_rng(seed, *tags: int) -> np.random.Generator:
    """Deterministic per-configuration stream; negative seeds are masked."""
    mask = (1 << 63) - 1
    return np.random.default_rng([int(seed) & mask] + [int(t) & mask for t in tags])


def _multinomial_fraction(rng, probs: np.ndarray, n_samples: int) -> np.ndarray:
    """Resample a sub-distribution; the implicit remainder absorbs lost flux."""
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if total > 1.0 + 1e-9:
        raise ValueError(f"probabilities sum to {total:.6f} > 1; not a sub-distribution")
    full = np.append(probs, max(0.0, 1.0 - total))
    full = full / full.sum()
    counts = rng.multinomial(n_samples, full)
    return counts[:-1] / n_samples


def sample_shot_noise(probabilities, n_samples: int, seed: int):
    """Multinomial counting noise per measurement configuration.

    Site data use three configurations (the H/V analysis, the L setting, and
    the D setting, each over all sites with a lost-flux outcome); pair data
    use one configuration per preparation and analysis basis.  Streams are
    keyed by (seed, configuration), so resampling is deterministic and safe
    to parallelize.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if isinstance(probabilities, SiteProbabilities):
        probs = probabilities.probs
        out = np.empty_like(probs)
        hv = _multinomial_fraction(
            _resolve_rng(seed, 0, 0), probs[:, :2].ravel(), n_samples
        ).reshape(-1, 2)
        out[:, :2] = hv
        for col, tag in ((2, 1), (3, 2)):
            out[:, col] = _multinomial_fraction(
                _resolve_rng(seed, 0, tag), probs[:, col], n_samples
            )
        return replace(probabilities, probs=out)
    if isinstance(probabilities, PairProbabilities):
        base = 1 << 16  # site indices can be negative
        new = {}
        for name, values, tag in (("p_l", probabilities.p_l, 0), ("p_d", probabilities.p_d, 1)):
            sampled = np.empty(4)
            for j in range(4):
                rng = _resolve_rng(
                    seed, 1, probabilities.x1 + base, probabilities.x2 + base, j, tag
                )
                sampled[j] = _multinomial_fraction(rng, values[j : j + 1], n_samples)[0]
            new[name] = sampled
        return replace(probabilities, **new)
    raise TypeError(f"cannot resample {type(probabilities).__name__}")


def reconstruct_bloch_field(
    spec: QuenchSpec,
    t_max: int = 6,
    n_k: int = 256,
    n_samples: int | None = None,
    seed: int = 0,
) -> BlochField:
    """Full pipeline: walk, measure, reconstruct rho', recover n(k,t).

    Runs the position-space walk from a localized site, so the initial coin
    state must be momentum-independent (an explicit state, or a lower-band
    eigenstate of a coin operator with cos(theta2) = 0).
    """
    coin = initial_spinors(spec, np.array([0.0]))[0]
    # eigenstate residual of the one localized coin state across all sectors
    probe = QuenchSpec(spec.initial, spec.final, initial_state=tuple(coin))
    residual = initial_state_residual(probe)
    if spec.initial_state is None and residual > EIGENSTATE_TOL:
        raise ValueError(
            "position-space reconstruction needs a momentum-independent "
            f"initial state (eigenstate residual {residual:.2e} across sectors)"
        )
    ks = np.linspace(-np.pi, np.pi, n_k, endpoint=False)
    final = final_eigensystem(spec, ks)

    states = evolve(coin, spec.final, t_max)
    ts = np.arange(t_max + 1, dtype=float)
    n_field = np.empty((n_k, t_max + 1, 3))
    for t, state in enumerate(states):
        site = onsite_probabilities(state)
        pairs = all_pair_probabilities(state)
        if n_samples is not None:
            site = sample_shot_noise(site, n_samples, seed=seed * 1000003 + t)
            pairs = [
                sample_shot_noise(pair, n_samples, seed=seed * 1000003 + t)
                for pair in pairs
            ]
        table = reconstruct_matrix_elements(site, pairs)
        rho = to_nonhermitian(assemble_hermitian_density(table, ks), final)
        n_field[:, t, :] = bloch_from_density(rho, final)
    return BlochField(
        ks=ks,
        ts=ts,
        n=n_field,
        real_regime=np.abs(final.quasienergies[:, 0].imag) <= REAL_E_TOL,
        source="reconstructed",
        eigenstate_initial=residual < EIGENSTATE_TOL,
        initial_residual=residual,
    )
