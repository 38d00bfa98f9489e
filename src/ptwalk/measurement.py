"""Position-space measurement emulation and density-matrix reconstruction.

Two measurement primitives are emulated on a walk state:

* on each site, projective polarization analysis in {H, V, L, D} with
  |L> = (|H> - i|V>)/sqrt(2) and |D> = (|H> + |V>)/sqrt(2);
* for each ordered site pair (x1, x2), interference of the two amplitudes
  into a single mode, preparing one of four two-component states

      phi_1 = (a_x1,  a_x2),  phi_2 = (b_x1, -b_x2),
      phi_3 = (b_x1,  a_x2),  phi_4 = (a_x1,  b_x2),

  followed by {L, D} projections.

All probabilities are intensities relative to unit input flux (the start is a
unit spinor by construction), so they do not sum to one under loss; this is
the normalization under which the eight reconstruction identities for Re/Im
of <psi_x2|sigma_j|psi_x1> are exact.
The diagonal sums of these elements give the Stokes vector s of the
Hermitian momentum-space matrix rho'(k) = |psi_k><psi_k|,
2 rho' = sum_i s_i sigma_i; rho' is not formed.  The quench's density matrix
rho = rho' sum_mu |chi_mu><chi_mu| / Tr[...] has n_j = Tr[rho tau_j] with
tau_j = R^T sigma_j L, the rows of L and R being the final bras <chi_mu| and
kets |psi_mu>.  As sum_mu |chi_mu><chi_mu| = L^dag L and L R^T = 1, the
cyclic trace gives Tr[rho' L^dag L R^T sigma_j L] = Tr[sigma_j L rho' L^dag],
so n = Re((Lambda s)_{1..3} / (Lambda s)_0) for any decayed norm, with one
real 4x4 matrix Lambda_ji = Tr[sigma_j L sigma_i L^dag] / 2 per momentum.

Each walk step is only measured: the pair intensities of every ordered site
pair at once (per-site products with each conjugate ket, added over the
pairs by broadcasting), then the sums of the real intensity planes along
their diagonals x1 - x2, read off a skewed view, into one stack over all
steps.  The measured density matrix is positive, so by Cauchy-Schwarz
|rho(x1, x2)|^2 <= rho(x1, x1) rho(x2, x2): a site whose counts are zero in
every basis has zero matrix elements, and the planes of its pairs are
zeroed before the sums.  The identities are linear in the intensities, so
after the walk they run once over that stack, in ``_stokes_by_offset``, the
package's one copy of them, and give the diagonal sums of the matrix-element
table, which is never formed; the four on-site identities fill the offset
d = 0, where no pair is measured.  On the grid k_m = -pi + 2 pi m / n_k,
exp(-i k_m d) = (-1)^d exp(-2 pi i m d / n_k), so one FFT over the offsets
d mod n_k gives s at every step, and one call maps them through Lambda to
n(k, t).  A walk from one site moves by an even number of sites per step,
and the shift fills the sites it opens with zeros, so the other parity of
sites holds exactly 0.0, noise included (intensity 0 counts 0): no pair at
an odd offset is counted, and every odd-offset sum reads exactly 0.0.  The
sum over d then has period pi in k, and ``quench.half_zone`` decides the
momenta solved, as for ``bloch_field``: on an even grid one FFT of length
n_k / 2 over d / 2 gives the k < 0 half, the final frame and the regime are
solved there alone, and the result is written into both halves; an odd grid
is transformed at every momentum.  Lambda = Re(P T P^T) / 2 is one matrix
product, with P the Pauli matrices as rows and
T[(a, b), (c, d)] = L_bc conj(L_ad).  The per-pair table
(``reconstruct_matrix_elements``), the one-pair, one-step form and the
phase-matrix transform are the tests' oracles (``tests/measurement_oracle.py``).

Optional shot noise emulates finite photon counting per measurement
configuration, with one deterministic stream per (seed, step, configuration
family).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import KET_D, KET_L, PAULI
from .errors import SingularNormalization
from .quench import (
    EIGENSTATE_TOL,
    NORM_FLOOR,
    BlochField,
    QuenchSpec,
    half_zone,
    initial_spinors,
    initial_state_residual,
)
from .spectrum import walk_eigensystem
from .walksim import PositionState, evolve

__all__ = [
    "SiteProbabilities",
    "PairIntensities",
    "onsite_probabilities",
    "pair_intensities",
    "sample_shot_noise",
    "reconstruct_bloch_field",
]


@dataclass(frozen=True)
class SiteProbabilities:
    """Per-site intensities in the four analysis bases, columns [H, V, L, D]."""

    x_min: int
    probs: np.ndarray  # (n_sites, 4)


@dataclass(frozen=True)
class PairIntensities:
    """Interference intensities of every ordered pair of window sites.

    ``p_l[i1, i2, j - 1]`` and ``p_d[i1, i2, j - 1]`` belong to the pair
    (x_min + i1, x_min + i2) and preparation j; the diagonal i1 == i2 is not
    a measurement and holds zeros.
    """

    x_min: int
    p_l: np.ndarray  # (n_sites, n_sites, 4)
    p_d: np.ndarray  # (n_sites, n_sites, 4)


def onsite_probabilities(state: PositionState) -> SiteProbabilities:
    """Projective polarization analysis on every site of the window."""
    amps = state.amplitudes
    out = np.empty((len(amps), 4))
    out[:, 0] = np.abs(amps[:, 0]) ** 2
    out[:, 1] = np.abs(amps[:, 1]) ** 2
    out[:, 2] = np.abs(amps @ KET_L.conj()) ** 2
    out[:, 3] = np.abs(amps @ KET_D.conj()) ** 2
    return SiteProbabilities(x_min=state.x_min, probs=out)


def pair_intensities(state: PositionState) -> PairIntensities:
    """Two-site {L, D} interference intensities of every ordered pair at once.

    Each preparation's amplitude in an analysis basis is a first-site term
    plus a second-site term, so the per-site products with the conjugate ket
    are taken once and broadcast over the pairs.
    """
    amps = state.amplitudes
    n = len(amps)
    kets = np.array([KET_L, KET_D]).conj()[:, None, None, :]
    # the preparations' first-site spinor parts (a, b, b, a), second-site (a, -b, a, b)
    second_parts = amps[:, [0, 1, 0, 1]]
    np.negative(second_parts[:, 1], out=second_parts[:, 1])
    first = amps[:, [0, 1, 1, 0]] * kets[..., 0]  # (basis, x1, j)
    second = second_parts * kets[..., 1]  # (basis, x2, j)
    p_l, p_d = np.abs(first[:, :, None] + second[:, None, :]) ** 2
    diag = np.arange(n)
    p_l[diag, diag] = p_d[diag, diag] = 0.0
    return PairIntensities(x_min=state.x_min, p_l=p_l, p_d=p_d)


def _diagonal_sums(table: np.ndarray, width: int) -> np.ndarray:
    """Row d + width - 1 of these (2 width - 1, P) sums adds table[x1, x2] over x1 - x2 = d."""
    # the flipped, zero-padded table read in rows of 2 width - 1 is skewed: d is one column
    n, planes = len(table), table.shape[-1]
    skewed = np.zeros((n, 2 * width, planes), dtype=table.dtype)
    skewed[:, width - n : width] = table[:, ::-1]
    return skewed.reshape(-1, planes)[: n * (2 * width - 1)].reshape(n, -1, planes).sum(0, initial=0)


def _intensity_sums(site: SiteProbabilities, pairs: PairIntensities) -> np.ndarray:
    """(2 n - 1, 10) diagonal sums of the planes p_l[..., j], p_d[..., j],
    P_H(x1) and P_V(x1) of an n-site window, in that order, over the pairs
    of sites that were counted.

    The measured density matrix is positive, so |rho(x1, x2)|^2 <=
    rho(x1, x1) rho(x2, x2): a site whose counts are zero in every basis has
    zero matrix elements, and its rows and columns of every plane are zeroed
    before the sums.  The sums of P_H(x2) and P_V(x2) over x1 - x2 = d are
    those of P_H(x1) and P_V(x1) over x1 - x2 = -d, the same sites added in
    the same order, so they are read off in reverse (``_stokes_by_offset``).
    """
    n = len(site.probs)
    onsite = np.broadcast_to(site.probs[:, None, :2], (n, n, 2))
    planes = np.concatenate([pairs.p_l, pairs.p_d, onsite], axis=-1)
    empty = ~site.probs.any(1)
    if empty.any():
        planes[empty] = planes[:, empty] = 0.0
    return _diagonal_sums(planes, n)


def _stokes_by_offset(sums: np.ndarray, site_sums: np.ndarray) -> np.ndarray:
    """(..., 2 w - 1, 4) diagonal sums of the matrix-element table from the
    (..., 2 w - 1, 10) sums of ``_intensity_sums`` and the (..., 4) sums of
    the site intensities [H, V, L, D].

    The package's one copy of the identities: the eight Re/Im identities are
    linear in the intensities, so they hold for the sums along each
    diagonal; the four on-site identities give the offset d = 0.  The tests'
    per-pair table applies them to each pair before the sums.
    """
    p1l, p2l, p3l, p4l, p1d, p2d, p3d, p4d, ph1, pv1 = np.moveaxis(sums, -1, 0)
    ph2, pv2 = ph1[..., ::-1], pv1[..., ::-1]
    sum_minus = (ph1 + ph2 - pv1 - pv2) / 2
    sum_plus = (ph1 + ph2 + pv1 + pv2) / 2
    sum_cross = (pv1 + ph2 + ph1 + pv2) / 2
    skew = (pv1 + ph2 - ph1 - pv2) / 2
    out = np.empty(sums.shape[:-1] + (4,), dtype=complex)
    re, im = out.real, out.imag
    re[..., 0], im[..., 0] = p1d - p2d - sum_minus, p1l - p2l - sum_minus
    re[..., 1], im[..., 1] = p3d + p4d - sum_cross, p3l + p4l - sum_cross
    re[..., 2], im[..., 2] = p3l - p4l - skew, p4d - p3d + skew
    re[..., 3], im[..., 3] = p1d + p2d - sum_plus, p1l + p2l - sum_plus
    ph, pv, pl, pd = np.moveaxis(site_sums, -1, 0)
    out[..., sums.shape[-2] // 2, :] = np.stack(
        [ph + pv, 2 * pd - ph - pv, -2 * pl + ph + pv, ph - pv], axis=-1
    )
    return out


def _momentum_transform(by_offset: np.ndarray, n_k: int, stride: int = 1) -> np.ndarray:
    """s[..., m, :] = sum_d by_offset[..., d + w - 1, :] exp(-i k_m d) at the
    momenta k_m = -pi + 2 pi m / n_k, m < n_k / stride, from (..., 2 w - 1, 4)
    diagonal sums that are zero at every offset d not divisible by ``stride``
    (1, or 2 on an even grid).

    As exp(-i k_m d) = (-1)^d exp(-2 pi i m (d / stride) / (n_k / stride)),
    this is one FFT of length n_k / stride of the signed sums over
    d / stride mod n_k / stride.  At stride 2 the sum has period pi in k, and
    the momenta returned are the k < 0 half.  Offsets that share a residue are
    added one at a time in order of d, so sums padded with zero offsets fold
    to the same bits.
    """
    rows, size = by_offset.shape[-2], n_k // stride
    first = 1 - (rows + 1) // 2  # the offset of row 0
    start = -first % stride  # the first row whose offset stride divides
    offsets = np.arange(first + start, 1 - first, stride)
    signed = by_offset[..., start::stride, :].swapaxes(-1, -2) * (1.0 - 2.0 * (offsets % 2))
    folded = np.zeros(by_offset.shape[:-2] + (4, size), dtype=complex)
    for lo in range(0, len(offsets), size):  # size consecutive offsets have distinct residues
        folded[..., offsets[lo : lo + size] // stride % size] += signed[..., lo : lo + size]
    return np.fft.fft(folded).swapaxes(-1, -2)


# kron(P, P)^T with P = PAULI.reshape(4, 4): row (ab, cd), column (j, i)
_PAULI_PAIRS = np.kron(PAULI.reshape(4, 4), PAULI.reshape(4, 4)).T


def _stokes_frame(left: np.ndarray) -> np.ndarray:
    """Lambda (n_k, 4, 4) of bras L (n_k, 2, 2); it keeps s_0^2 - |s|^2 up to
    |det L|^2, so a rank-one rho' (null s) maps to a unit n.  Without loss,
    Lambda = diag(1, R) with R a rotation.

    Lambda = Re(P T P^T) / 2 with P = PAULI.reshape(4, 4) and
    T[k, (a, b), (c, d)] = L[k, b, c] conj(L[k, a, d]), taken as one product
    of the flattened T with kron(P, P)^T.
    """
    products = left[:, None, :, :, None] * left.conj()[:, :, None, None, :]
    return 0.5 * (products.reshape(-1, 16) @ _PAULI_PAIRS).real.reshape(-1, 4, 4)


def _frame_map(stokes: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """n = Re((Lambda s)_{1..3} / (Lambda s)_0) of Stokes vectors s (..., n_k, 4);
    |(Lambda s)_0| = |Tr[rho' sum_mu |chi_mu><chi_mu|]| must exceed ``NORM_FLOOR``."""
    mapped = (frame @ stokes[..., None])[..., 0]
    denom = mapped[..., 0]
    if np.any(np.abs(denom) <= NORM_FLOOR):
        raise SingularNormalization(
            f"|Tr[rho' sum|chi><chi|]| = {np.abs(denom).min():.3e} <= {NORM_FLOOR:.0e}"
        )
    return (mapped[..., 1:] / denom[..., None]).real


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


def _binomial_fraction(rng, probs: np.ndarray, n_samples: int) -> np.ndarray:
    """Resample many one-outcome configurations at once; the rest is lost flux."""
    probs = np.clip(probs, 0.0, None)
    worst = probs.max(initial=0.0)
    if worst > 1.0 + 1e-9:
        raise ValueError(f"probability {worst:.6f} > 1; not a sub-distribution")
    return rng.binomial(n_samples, np.minimum(probs, 1.0)) / n_samples


def sample_shot_noise(probabilities, n_samples: int, seed: int):
    """Multinomial counting noise per measurement configuration.

    Site data use three configurations (the H/V analysis, the L setting, and
    the D setting, each over all sites with a lost-flux outcome).  Pair data
    use one configuration per pair, preparation and analysis basis, each with
    a single outcome besides lost flux; all {L} configurations share one
    stream and all {D} configurations another.  Streams are keyed by
    (seed, configuration family), so resampling is deterministic.
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
    if isinstance(probabilities, PairIntensities):
        return replace(
            probabilities,
            p_l=_binomial_fraction(_resolve_rng(seed, 1, 0), probabilities.p_l, n_samples),
            p_d=_binomial_fraction(_resolve_rng(seed, 1, 1), probabilities.p_d, n_samples),
        )
    raise TypeError(f"cannot resample {type(probabilities).__name__}")


def reconstruct_bloch_field(
    spec: QuenchSpec,
    t_max: int = 6,
    n_k: int = 256,
    n_samples: int | None = None,
    seed: int = 0,
    on_step: Callable[[int, SiteProbabilities, PairIntensities], None] | None = None,
) -> BlochField:
    """Full pipeline: walk, measure, recover n(k, t) from the intensities.

    Runs the position-space walk from a localized site, so the initial coin
    state must be momentum-independent (an explicit state, or a lower-band
    eigenstate of a coin operator with cos(theta2) = 0).  The noise of step t
    is keyed by ``seed * 1000003 + t``.  ``on_step(t, site, pairs)``, if
    given, receives the intensities each step is reconstructed from.  The
    Stokes vectors of every step are transformed and mapped through the final
    frame at once after the walk, so a :class:`SingularNormalization` is
    raised only after every step has been measured and passed to ``on_step``.

    ``_stokes_by_offset``, the one copy of the identities, applies them to
    the diagonal sums of every step's intensities; neither the per-pair
    table (the tests' oracle) nor rho' is formed, only its Stokes vectors.
    Pairs with a site of zero counts in every basis are dropped, so no pair
    at an odd offset is counted.  The final eigensystem of the momenta that
    ``half_zone`` names is solved before the walk, and they alone are
    transformed and mapped: on an even grid the k < 0 half, written into
    both halves, so n and ``real_regime`` repeat bit for bit; on an odd grid
    every momentum.
    """
    if t_max < 0 or n_k < 1:
        raise ValueError("t_max must be >= 0" if t_max < 0 else "n_k must be >= 1")
    coin = initial_spinors(spec, np.array([0.0]))[0]
    # eigenstate residual of the one localized coin state across all sectors
    probe = QuenchSpec(spec.initial, spec.final, initial_state=tuple(coin))
    residual = initial_state_residual(probe)
    if spec.initial_state is None and residual > EIGENSTATE_TOL:
        raise ValueError(
            "position-space reconstruction needs a momentum-independent "
            f"initial state (eigenstate residual {residual:.2e} across sectors)"
        )
    ks, half = half_zone(n_k)
    final = walk_eigensystem(spec.final, ks[:half])

    width = 4 * t_max + 1  # sites in the last, widest window
    sums = np.zeros((t_max + 1, 2 * width - 1, 10))
    site_sums = np.empty((t_max + 1, 4))
    for t, state in enumerate(evolve(coin, spec.final, t_max)):
        site, pairs = onsite_probabilities(state), pair_intensities(state)
        if n_samples is not None:
            site = sample_shot_noise(site, n_samples, seed=seed * 1000003 + t)
            pairs = sample_shot_noise(pairs, n_samples, seed=seed * 1000003 + t)
        if on_step is not None:
            on_step(t, site, pairs)
        size = len(site.probs)  # 4 t + 1 sites, so the offsets |d| < size are centred
        sums[t, width - size : width + size - 1] = _intensity_sums(site, pairs)
        site_sums[t] = site.probs.sum(0)
    by_offset = _stokes_by_offset(sums, site_sums)
    stokes = _momentum_transform(by_offset, n_k, n_k // half)
    n = _frame_map(stokes, _stokes_frame(final.left)).swapaxes(0, 1)
    return BlochField.from_half_zone(
        ks, np.arange(t_max + 1, dtype=float), n, final.quasienergies[:, 0].imag == 0,
        "reconstructed", residual,
    )
