"""Sudden-quench dynamics: overlaps, Bloch vector n(k,t), and fixed points.

A quench prepares the lower-band eigenstate of one walk operator (or an
explicit coin state) and evolves it with another.  In each momentum sector the
state decomposes over the final operator's biorthogonal eigenbasis with
coefficients c_+- = <chi^f_{k,+-} | psi^i_{k,->, and the dressed coefficients

    ct_+(t) = c_+ e^{-i E t},   ct_-(t) = c_- e^{+i E t},

carry all of the dynamics (eps_+- = +-E exactly).  The associated left state
evolves with the same coefficients, so the non-Hermitian density matrix
|psi(t)><chi(t)| / <chi(t)|psi(t)> has the Bloch form (tau_0 + n . tau)/2 with
a REAL unit vector n(k,t): the ordinary Bloch vector of (ct_+, ct_-).

For real E the motion is a rotation about the poles with period t0 = pi/E and
momenta where c_- = 0 or c_+ = 0 are fixed points (n pinned at a pole).  For
imaginary E (Im E > 0 by band convention) there are no fixed points and n
relaxes to the north pole.  Time is a continuous parameter throughout; the
stroboscopic walk corresponds to integer t.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .core import PAULI, EigenSystem
from .errors import ImaginaryEnergy, SingularNormalization
from .floquet import CoinParams, momentum_operator_closed
from .spectrum import PTPhase, pt_classify, quasienergies, walk_eigensystem

__all__ = [
    "QuenchSpec",
    "OverlapPair",
    "FixedPointKind",
    "FixedPoint",
    "BlochField",
    "final_eigensystem",
    "overlap_grid",
    "overlaps",
    "bloch_from_coefficients",
    "bloch_vector",
    "density_matrix",
    "tau_basis",
    "bloch_from_density",
    "bloch_field",
    "find_fixed_points",
    "oscillation_period",
    "initial_state_residual",
]

REAL_E_TOL = 1e-10          # |Im E| up to which a quasienergy counts as real
FIXED_POINT_RESIDUAL = 1e-10
EIGENSTATE_TOL = 1e-8       # residual below which a start counts as an eigenstate
NORM_FLOOR = 1e-12          # smallest normalization denominator accepted


@dataclass(frozen=True)
class QuenchSpec:
    """Initial/final walk parameters plus the initial-state choice.

    ``initial_state=None`` selects the lower-band eigenstate of the initial
    operator in every momentum sector, so the initial operator must be
    PT-unbroken; that is checked once, here.  An explicit coin state is used
    verbatim in every sector, which models a walker localized on a single site.
    """

    initial: CoinParams
    final: CoinParams
    initial_state: tuple[complex, complex] | None = None

    def __post_init__(self):
        if self.initial_state is None:
            if pt_classify(self.initial) is PTPhase.BROKEN:
                raise ValueError(
                    "lower-band initial state requires a PT-unbroken initial operator"
                )
            return
        a, b = complex(self.initial_state[0]), complex(self.initial_state[1])
        if abs(a) == 0 and abs(b) == 0:
            raise ValueError("initial coin state must be nonzero")
        object.__setattr__(self, "initial_state", (a, b))


@dataclass(frozen=True)
class OverlapPair:
    c_plus: complex
    c_minus: complex


class FixedPointKind(enum.Enum):
    C_MINUS_ZERO = "c_minus_zero"  # n pinned at the north pole (0, 0, +1)
    C_PLUS_ZERO = "c_plus_zero"    # n pinned at the south pole (0, 0, -1)


@dataclass(frozen=True)
class FixedPoint:
    k: float
    kind: FixedPointKind
    residual: float  # |c|^2 at the minimum


@dataclass(frozen=True)
class BlochField:
    """n(k,t) sampled on a momentum-time grid."""

    ks: np.ndarray            # (n_k,)
    ts: np.ndarray            # (n_t,)
    n: np.ndarray             # (n_k, n_t, 3) real unit vectors
    real_regime: np.ndarray   # (n_k,) bool; True where E_k is real
    source: str = "analytic"
    eigenstate_initial: bool = True
    initial_residual: float = 0.0


def initial_spinors(spec: QuenchSpec, ks: np.ndarray) -> np.ndarray:
    """The initial spinor in each momentum sector, shape (n_k, 2)."""
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    if spec.initial_state is not None:
        state = np.array(spec.initial_state, dtype=complex)
        return np.broadcast_to(state, (len(ks), 2)).copy()
    return walk_eigensystem(spec.initial, ks).right[:, 1, :]


def initial_state_residual(spec: QuenchSpec, n_k: int = 64) -> float:
    """Worst-case eigenstate residual of the initial state over a k grid.

    Zero (to rounding) when the initial state really is an eigenstate of the
    initial operator in every sector; O(1) for a genuinely non-eigenstate
    start such as a quench into the broken regime from an arbitrary coin
    state.
    """
    ks = np.linspace(-np.pi, np.pi, n_k, endpoint=False)
    psi = initial_spinors(spec, ks)
    psi = psi / np.linalg.norm(psi, axis=1, keepdims=True)
    u = momentum_operator_closed(spec.initial, ks)
    upsi = np.einsum("kab,kb->ka", u, psi)
    rayleigh = np.einsum("kc,kc->k", psi.conj(), upsi)
    residual = upsi - rayleigh[:, None] * psi
    return float(np.linalg.norm(residual, axis=1).max())


def final_eigensystem(spec: QuenchSpec, k) -> EigenSystem:
    """Biorthogonal eigensystem of the final operator at each momentum of ``k``.

    All quench quantities share the eigenvector gauge of this construction;
    mixing gauges would rotate the in-plane components n1, n2 (the physical
    matrix rho is gauge invariant, its dressed components are covariant).
    """
    return walk_eigensystem(spec.final, k)


def overlap_grid(
    spec: QuenchSpec, ks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, EigenSystem]:
    """(c_plus, c_minus, final eigensystem) over a momentum grid.

    The quench core: one solve of each operator (the initial one only for an
    eigenstate start) gives every quantity the quench is built from.
    """
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    psi_i = initial_spinors(spec, ks)
    final = final_eigensystem(spec, ks)
    c_plus = np.einsum("kc,kc->k", final.left[:, 0, :], psi_i)
    c_minus = np.einsum("kc,kc->k", final.left[:, 1, :], psi_i)
    return c_plus, c_minus, final


def overlaps(spec: QuenchSpec, k: float) -> OverlapPair:
    """Expansion coefficients of the initial state over the final eigenbasis."""
    cp, cm, _ = overlap_grid(spec, np.array([k]))
    return OverlapPair(c_plus=complex(cp[0]), c_minus=complex(cm[0]))


def _dressed_coefficients(cp, cm, energy, t):
    """ct_+ = c_+ e^{-iEt}, ct_- = c_- e^{+iEt} with eps_+- = +-E exactly."""
    t = np.asarray(t, dtype=float)
    return cp * np.exp(-1j * energy * t), cm * np.exp(1j * energy * t)


def bloch_from_coefficients(ct_plus, ct_minus) -> np.ndarray:
    """Unit Bloch vector of the dressed coefficient spinor, stacked on axis -1.

    For real E this is the oscillatory closed form (n0 constant in time); for
    imaginary E the weights e^{-+ 2 Im(E) t} reproduce the relaxation form with
    its n1, n2 frozen and n3 -> 1.

    Raises
    ------
    SingularNormalization
        Where n0 = |ct_+|^2 + |ct_-|^2 is zero or not finite, e.g. once the
        growing weight e^{2 Im(E) t} overflows at long times.
    """
    with np.errstate(over="ignore"):  # an overflow is reported just below
        wp = np.abs(ct_plus) ** 2
        wm = np.abs(ct_minus) ** 2
        n0 = wp + wm
    ok = np.isfinite(n0) & (n0 > 0)
    if not ok.all():
        raise SingularNormalization(
            f"|ct_+|^2 + |ct_-|^2 is zero or not finite at {np.size(ok) - ok.sum()} points"
        )
    cross = np.conj(ct_plus) * ct_minus
    return np.stack(
        [2 * cross.real / n0, 2 * cross.imag / n0, (wp - wm) / n0], axis=-1
    )


def bloch_vector(spec: QuenchSpec, k: float, t: float) -> np.ndarray:
    """n(k,t) as a real unit 3-vector; t is continuous and >= 0 is not required."""
    pair = overlaps(spec, k)
    energy, _ = quasienergies(spec.final, k)
    ct_p, ct_m = _dressed_coefficients(pair.c_plus, pair.c_minus, energy, t)
    return bloch_from_coefficients(ct_p, ct_m)


def tau_basis(system: EigenSystem) -> np.ndarray:
    """Dressed Pauli basis tau_j = sum_{mu,nu} |psi_mu> sigma_j^{mu nu} <chi_nu|.

    Shape (..., 4, 2, 2), following the batch axes of ``system``.
    """
    return np.einsum("jmn,...mc,...nd->...jcd", PAULI, system.right, system.left)


def density_matrix(spec: QuenchSpec, k: float, t: float) -> np.ndarray:
    """Non-Hermitian density matrix |psi(t)><chi(t)| / <chi(t)|psi(t)>.

    Built explicitly from the evolving right state and its associated left
    state in the polarization basis; trace 1 by construction.  This is an
    independent code path from :func:`bloch_vector` (cross-checked in tests
    via n_j = Tr[rho tau_j]).

    Raises
    ------
    SingularNormalization
        If <chi(t)|psi(t)> vanishes (possible only off the +-E pairing, e.g.
        for non-eigenstate initial conditions at complex parameters).
    """
    system = final_eigensystem(spec, k)
    psi_i = initial_spinors(spec, np.array([k]))[0]
    c = system.left @ psi_i  # (c_+, c_-)
    energy, _ = quasienergies(spec.final, k)
    eps = np.array([energy, -energy])
    ct = c * np.exp(-1j * eps * t)
    psi_t = ct @ system.right
    chi_t = ct.conj() @ system.left
    denom = chi_t @ psi_t
    if abs(denom) <= NORM_FLOOR:
        raise SingularNormalization(f"<chi(t)|psi(t)> = {denom:.3e} at k = {k!r}")
    return np.outer(psi_t, chi_t) / denom


def bloch_from_density(rho: np.ndarray, system: EigenSystem) -> np.ndarray:
    """n_j = Tr[rho tau_j] for j = 1, 2, 3 (trace over the dressed basis).

    ``rho`` (..., 2, 2) broadcasts against the batch axes of ``system``.
    """
    comps = np.einsum("...ab,...jba->...j", rho, tau_basis(system))
    return comps[..., 1:].real


def bloch_field(
    spec: QuenchSpec,
    n_k: int = 256,
    ts: np.ndarray | None = None,
    t_max: int = 6,
) -> BlochField:
    """Sample n(k,t) on a full-zone momentum grid times a time grid.

    ``ts`` defaults to the stroboscopic times 0..t_max.  Momentum sectors in
    the broken regime are evolved with their complex energies; ``real_regime``
    records the dichotomy per k.
    """
    ks = np.linspace(-np.pi, np.pi, n_k, endpoint=False)
    if ts is None:
        ts = np.arange(t_max + 1, dtype=float)
    ts = np.asarray(ts, dtype=float)
    cp, cm, final = overlap_grid(spec, ks)
    energy = final.quasienergies[:, 0]
    ct_p, ct_m = _dressed_coefficients(cp[:, None], cm[:, None], energy[:, None], ts[None, :])
    residual = initial_state_residual(spec)
    return BlochField(
        ks=ks,
        ts=ts,
        n=bloch_from_coefficients(ct_p, ct_m),
        real_regime=np.abs(energy.imag) <= REAL_E_TOL,
        source="analytic",
        eigenstate_initial=residual < EIGENSTATE_TOL,
        initial_residual=residual,
    )


def _wrap_zone(k: float) -> float:
    """Wrap a momentum into [-pi, pi)."""
    return float((k + np.pi) % (2 * np.pi) - np.pi)


def find_fixed_points(spec: QuenchSpec, n_k: int = 512) -> list[FixedPoint]:
    """Momenta where one overlap coefficient vanishes, sorted over [-pi, pi).

    Scans |c_+-|^2 on a uniform grid, brackets local minima (with periodic
    wraparound), and refines each bracket by golden-section minimization.
    Only momenta with a real quasienergy can host fixed points; sectors in
    the broken regime are skipped, so a fully broken final operator yields an
    empty list.  A grid below 64 points is rejected: it can miss whole
    k, k + pi pairs of fixed points without any sign of it.
    """
    if n_k < 64:
        raise ValueError("n_k must be >= 64")
    ks = np.linspace(-np.pi, np.pi, n_k, endpoint=False)
    cp, cm, final = overlap_grid(spec, ks)
    energy = final.quasienergies[:, 0]
    real_regime = np.abs(energy.imag) <= REAL_E_TOL
    dk = 2 * np.pi / n_k

    found: list[FixedPoint] = []
    for kind, values in (
        (FixedPointKind.C_PLUS_ZERO, np.abs(cp) ** 2),
        (FixedPointKind.C_MINUS_ZERO, np.abs(cm) ** 2),
    ):
        def objective(k: float, _idx=0 if kind is FixedPointKind.C_PLUS_ZERO else 1) -> float:
            c = overlap_grid(spec, np.array([k]))[_idx]
            return float(np.abs(c[0]) ** 2)

        for i in range(n_k):
            if not real_regime[i]:
                continue
            left, right = values[(i - 1) % n_k], values[(i + 1) % n_k]
            if not (values[i] <= left and values[i] < right and values[i] < 1e-2):
                continue
            bracket = (ks[i] - dk, ks[i], ks[i] + dk)
            try:
                result = optimize.minimize_scalar(
                    objective, bracket=bracket, method="golden", options={"xtol": 1e-12}
                )
            except ValueError:
                # Grid tie at the bracket edge; Brent on the bounds instead.
                result = optimize.minimize_scalar(
                    objective,
                    bounds=(bracket[0], bracket[2]),
                    method="bounded",
                    options={"xatol": 1e-12},
                )
            k_star = _wrap_zone(result.x)
            residual = float(result.fun)
            if residual < FIXED_POINT_RESIDUAL:
                found.append(FixedPoint(k=k_star, kind=kind, residual=residual))

    found.sort(key=lambda fp: fp.k)
    deduped: list[FixedPoint] = []
    for fp in found:
        if deduped and abs(fp.k - deduped[-1].k) < 1e-8 and fp.kind is deduped[-1].kind:
            continue
        deduped.append(fp)
    return deduped


def oscillation_period(spec: QuenchSpec, k: float) -> float:
    """t0 = pi / E_k of the final operator (continuous time units).

    Raises
    ------
    ImaginaryEnergy
        If E_k is not real at this momentum.
    """
    energy, _ = quasienergies(spec.final, k)
    if abs(energy.imag) > REAL_E_TOL:
        raise ImaginaryEnergy(f"E = {energy:.6g} is not real at k = {k!r}")
    return float(np.pi / energy.real)
