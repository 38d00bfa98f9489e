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
import math
from dataclasses import dataclass

import numpy as np

from .core import PAULI, EigenSystem
from .errors import ExceptionalPoint, SingularNormalization
from .floquet import CoinParams, d_coefficients, momentum_operator_closed
from .spectrum import (
    EP_TOL,
    PTPhase,
    lower_band_kets,
    min_gap,
    pt_classify,
    walk_eigensystem,
)

__all__ = [
    "QuenchSpec",
    "FixedPointKind",
    "FixedPoint",
    "BlochField",
    "overlap_grid",
    "bloch_from_coefficients",
    "bloch_field",
    "find_fixed_points",
    "initial_state_residual",
]

FIXED_POINT_RESIDUAL = 1e-10
EIGENSTATE_TOL = 1e-8       # residual below which a start counts as an eigenstate
NORM_FLOOR = 1e-12          # smallest normalization denominator accepted
_RESIDUAL_SAMPLES = 64      # momenta at which initial_state_residual probes the start
_G_SAMPLES = 16             # samples in theta: more than 2 * 4 + 1, so g (degree 4) does not alias
_COEFF_FLOOR = 1e-13        # end coefficients below this times the largest are rounding
_COMMUTING_FLOOR = 1e-12    # |w| below this times |h_a| |h_f| everywhere: w = 0 to rounding
_UNIT_CIRCLE_TOL = 1e-3     # |log |z|| up to which a root is a candidate momentum
_SPLIT_SCALE = 10.0         # m roots within this times eps^(1/m) are one split m-fold root
_NEWTON_STEPS = 9           # most Gauss-Newton steps per root
_ROOT_TOL = 1e-11           # distance in theta up to which a polished angle is a zero
_W_ROUNDING = 1e-14         # |W| below this times |h_a|^2 |h_f| is zero to rounding


@dataclass(frozen=True)
class QuenchSpec:
    """Initial/final walk parameters plus the initial-state choice.

    ``initial_state=None`` selects the lower-band eigenstate of the initial
    operator in every momentum sector, so the initial operator must be
    PT-unbroken; that is checked once, here.  An explicit coin state is used,
    divided by its norm, in every sector: a walker localized on one site.
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
        norm = math.hypot(a.real, a.imag, b.real, b.imag)
        if not 0 < norm < math.inf:
            raise ValueError(f"initial coin state must have a positive finite norm, got {norm}")
        object.__setattr__(self, "initial_state", (a / norm, b / norm))


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
    """The initial spinor in each momentum sector, shape (n_k, 2).

    For an eigenstate start this is the initial operator's minus-band ket from
    :func:`~ptwalk.spectrum.lower_band_kets`, the solve and column pick of
    ``walk_eigensystem`` without the plus band and the bras, so it equals
    ``walk_eigensystem(spec.initial, ks).right[:, 1, :]`` bit for bit.

    Raises
    ------
    ExceptionalPoint
        For an eigenstate start whose bands touch (:func:`_bands_touch`) at
        one of ``ks``: the start is undefined there, by the gate that
        :func:`find_fixed_points` applies at its roots.  Where the solve's
        own gap check fails first, its error is the one raised.
    """
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    if spec.initial_state is not None:
        state = np.array(spec.initial_state, dtype=complex)
        return np.broadcast_to(state, (len(ks), 2)).copy()
    kets = lower_band_kets(spec.initial, ks)
    if _bands_touch(spec.initial, ks).any():
        raise ExceptionalPoint("initial bands touch at a sampled momentum: the start is undefined")
    return kets


def _bands_touch(params: CoinParams, ks: np.ndarray) -> np.ndarray:
    """Where the bands of ``params`` touch, |1 - d0^2| <= ``EP_TOL``, over ``ks``.

    The one gate that decides where an eigenstate start is undefined, on a
    grid and at a root of g alike.  It is looser than the eigensolver's own
    gap check (``GAP_TOL`` on 2 |mu|, mu^2 = 1 - d0^2), which passes bands
    5e-8 apart: from ``CoinParams(0, 2.5673154940413493e-08)`` the roots of g
    sit on them at k = 0 and -pi/2, and a grid through those momenta has to
    say so as the roots do.  Only operators with ``min_gap <= EP_TOL`` can
    touch, so the others cost no d coefficients.
    """
    if min_gap(params) > EP_TOL:
        return np.zeros(np.shape(ks), dtype=bool)
    return np.abs(1.0 - d_coefficients(params, ks)[:, 0].real ** 2) <= EP_TOL


def initial_state_residual(spec: QuenchSpec) -> float:
    """Worst-case eigenstate residual of the initial state over a k grid.

    Zero (to rounding) when the initial state really is an eigenstate of the
    initial operator in every sector; O(1) for a genuinely non-eigenstate
    start such as a quench into the broken regime from an arbitrary coin
    state.
    """
    ks = np.linspace(-np.pi, np.pi, _RESIDUAL_SAMPLES, endpoint=False)
    psi = initial_spinors(spec, ks)
    u = momentum_operator_closed(spec.initial, ks)
    upsi = np.einsum("kab,kb->ka", u, psi)
    rayleigh = np.einsum("kc,kc->k", psi.conj(), upsi)
    residual = upsi - rayleigh[:, None] * psi
    return float(np.linalg.norm(residual, axis=1).max())


def overlap_grid(
    spec: QuenchSpec, ks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, EigenSystem]:
    """(c_plus, c_minus, final eigensystem) over a momentum grid.

    The quench core: one solve of each operator (the initial one only for an
    eigenstate start) gives every quantity the quench is built from.  All of
    them share the gauge of ``walk_eigensystem(spec.final, ks)``; mixing
    gauges would rotate n1, n2 (rho is gauge invariant, its dressed
    components are covariant).
    """
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    psi_i = initial_spinors(spec, ks)
    final = walk_eigensystem(spec.final, ks)
    c_plus, c_minus = np.einsum("kbc,kc->bk", final.left, psi_i)
    return c_plus, c_minus, final


def _dressed_coefficients(cp, cm, energy, t):
    """ct_+ = c_+ e^{-iEt}, ct_- = c_- e^{+iEt} with eps_+- = +-E exactly."""
    t = np.asarray(t, dtype=float)
    # A growing weight overflows to inf (and 0 * inf to nan) at long times;
    # bloch_from_coefficients reports it as SingularNormalization.
    with np.errstate(over="ignore", invalid="ignore"):
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
    if t_max < 0 or n_k < 1:
        raise ValueError("t_max must be >= 0" if t_max < 0 else "n_k must be >= 1")
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
        real_regime=energy.imag == 0,
        source="analytic",
        eigenstate_initial=residual < EIGENSTATE_TOL,
        initial_residual=residual,
    )


def _bloch_axes(spec: QuenchSpec, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h_a, h_f), shape (n_k, 3): the vectors h of the operators d0 - i h.sigma.

    h_f = (d1, d2, d3) of the final operator.  h_a is that of the initial
    operator for an eigenstate start, and the constant Bloch vector v^dag sigma v
    of an explicit coin state v, whose eigenvectors are v and the state
    orthogonal to it.
    """
    h_f = d_coefficients(spec.final, ks)[:, 1:]
    if spec.initial_state is None:
        return d_coefficients(spec.initial, ks)[:, 1:], h_f
    v = np.array(spec.initial_state, dtype=complex)
    h_a = np.einsum("c,jcd,d->j", v.conj(), PAULI[1:], v)
    return np.broadcast_to(h_a, h_f.shape), h_f


def _merge_split_roots(roots: np.ndarray) -> np.ndarray:
    """Each group of m roots at most ``_SPLIT_SCALE`` eps^(1/m) across, replaced by
    its mean: ``np.roots`` splits an m-fold root into an m-gon about eps^(1/m)
    wide, but the sum of the m is exact to rounding.  A root's group is the most
    of its nearest roots that fit; groups keep their order, a lone root its bits."""
    gap = np.abs(roots[:, None] - roots)
    sizes = np.arange(1, len(roots) + 1)
    limit = _SPLIT_SCALE * np.finfo(float).eps ** (1 / sizes)
    if not np.any(np.sort(gap, axis=1)[:, 1:] <= limit[1:]):
        return roots  # no root has m - 1 others as close as an m-fold split
    near = np.argsort(gap, axis=1, kind="stable")
    spread = gap[near[:, :, None], near[:, None, :]]  # gaps among each root's m nearest
    width = np.maximum.accumulate(np.maximum.accumulate(spread, 1), 2).diagonal(axis1=1, axis2=2)
    fit = np.max(sizes * (width <= limit), axis=1, initial=1)
    member = np.argsort(near, axis=1) < fit[:, None]
    same = np.all(member[:, None] == member, axis=2)
    groups = member[~np.tril(same, -1).any(axis=1)].astype(float)  # each group once
    return groups @ roots / groups.sum(axis=1)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b on the last axis, rounded as ``np.cross`` rounds it: each
    component is one product minus another.

    Two array products over gathered components in place of ``np.cross``'s six
    strided ones, so that a stack of small cross products costs one call.  It
    passes no ufunc ``out=``, so it runs on every numpy the package allows.
    """
    return a[..., [1, 2, 0]] * b[..., [2, 0, 1]] - a[..., [2, 0, 1]] * b[..., [1, 2, 0]]


def _polish_on_start(h_coeffs: np.ndarray, sign: int, theta: np.ndarray) -> np.ndarray:
    """Refine candidate angles to the zeros of W = h_a x w + i m w; drop the others.

    W = 0 iff the start is an eigenvector of the final operator B = h_f.sigma:
    with P = (1 + h_a.sigma / m) / 2 the projector on the start,
    (1 - P) B P = 0 reduces to W = 0 by Pauli algebra.  Here m =
    sign * sqrt(h_a.h_a) is the start's eigenvalue of h_a.sigma (sign -1 for
    the lower band, +1 for an explicit state), and ``h_coeffs`` (n, 2, 3)
    holds the Fourier coefficients of h_a and h_f in theta.

    Gauss-Newton steps reach full precision at a simple zero of W.  Where |W|
    is zero to rounding W / W' is noise, so a step longer than ``_ROOT_TOL`` is
    skipped.  An angle is kept if, before the last step, |W| / |dW/dtheta| is
    at most ``_ROOT_TOL`` (a zero of W is that close) or |W| is zero to rounding.

    Each step evaluates h and dh/dtheta from one phase matrix, and its five
    cross products as two stacked calls of :func:`_cross`: [h_a, dh_a, h_a]
    x [h_f, h_f, dh_f] gives w and the two terms of dw, then [h_a, dh_a, h_a]
    x [w, w, dw] the cross terms of W and dW.  The sums are those of five
    ``np.cross`` calls, so every angle keeps its bits.
    """
    harmonics = np.fft.fftfreq(len(h_coeffs), 1.0 / len(h_coeffs))
    derivative = 1j * harmonics
    for _ in range(_NEWTON_STEPS):
        phase = np.exp(1j * np.outer(theta, harmonics))
        h_a, h_f = np.tensordot(phase, h_coeffs, axes=1).transpose(1, 0, 2)
        dh_a, dh_f = np.tensordot(phase * derivative, h_coeffs, axes=1).transpose(1, 0, 2)
        lhs = np.stack([h_a, dh_a, h_a])
        w, dw_a, dw_f = _cross(lhs, np.stack([h_f, h_f, dh_f]))
        dw = dw_a + dw_f
        m = sign * np.sqrt(np.sum(h_a * h_a, axis=1, keepdims=True))
        with np.errstate(divide="ignore", invalid="ignore"):
            dm = np.sum(h_a * dh_a, axis=1, keepdims=True) / m
            a_w, da_w, a_dw = _cross(lhs, np.stack([w, w, dw]))
            big_w = a_w + 1j * m * w
            d_big_w = da_w + a_dw + 1j * (dm * w + m * dw)
            slope = np.sum(np.abs(d_big_w) ** 2, axis=1)
            step = np.sum(d_big_w.conj() * big_w, axis=1).real / slope
        size = np.sum(np.abs(h_a) ** 2, axis=1) * np.linalg.norm(h_f, axis=1)
        rounding = (_W_ROUNDING * size) ** 2
        residual = np.sum(np.abs(big_w) ** 2, axis=1)
        floored = (residual <= rounding) & (np.abs(step) > _ROOT_TOL)  # W / W' is noise there
        step = np.where(np.isfinite(step) & ~floored, step, 0.0)
        theta = theta - step
        if np.all(np.abs(step) <= 1e-15):
            break
    return theta[residual <= _ROOT_TOL**2 * slope + rounding]


def _shared_eigenvector_angles(spec: QuenchSpec) -> np.ndarray:
    """Angles theta = 2k in one period where the start is an eigenvector of
    the final operator.

    Two 2x2 matrices share an eigenvector iff their commutator is singular
    (Shemesh, Linear Algebra Appl. 62, 1984).  For a.sigma and b.sigma the
    commutator is 2i (a x b).sigma, so the condition is g = w.w = 0 with
    w = h_a x h_f.  d1 = i beta is constant and d2, d3 are affine in
    (cos 2k, sin 2k), so g is a trigonometric polynomial of degree <= 4 in
    theta: 16 samples give its coefficients by FFT, and its zeros are the
    unit-circle roots of a polynomial of degree <= 8 in z = e^{i theta}.

    Without loss every root of g is at least double, and the sixfold root of a
    third-order zero (from CoinParams(0, pi/4) into CoinParams(pi/2, 0) at
    k = 0) splits by 3e-3: :func:`_merge_split_roots` joins split roots before
    the unit-circle test.  :func:`_polish_on_start` keeps the start's roots,
    not its partner's.  Where the initial bands of an eigenstate start touch at
    a root and the final ones do not, the start is undefined: ExceptionalPoint.
    """
    thetas = 2 * np.pi * np.arange(_G_SAMPLES) / _G_SAMPLES
    h_a, h_f = _bloch_axes(spec, thetas / 2)
    w = np.cross(h_a, h_f)
    scale = np.max(np.linalg.norm(h_a, axis=1) * np.linalg.norm(h_f, axis=1))
    coeffs = np.fft.fft(np.einsum("kc,kc->k", w, w)) / _G_SAMPLES
    ascending = coeffs[np.arange(-4, 5)]
    size = np.abs(ascending)
    if size.max() <= (_COMMUTING_FLOOR * scale) ** 2:
        return np.empty(0)  # g is zero to rounding: no zero is isolated
    kept = np.flatnonzero(size > _COEFF_FLOOR * size.max())
    roots = _merge_split_roots(np.roots(ascending[kept[0]:kept[-1] + 1][::-1]))
    theta = np.angle(roots[np.abs(np.log(np.abs(roots))) < _UNIT_CIRCLE_TOL])
    if spec.initial_state is None:
        touching = _bands_touch(spec.initial, theta / 2)
        if touching.any() and np.any(touching & ~_bands_touch(spec.final, theta / 2)):
            raise ExceptionalPoint("initial bands touch at a root of g: the start is undefined")
    h_coeffs = np.fft.fft(np.stack([h_a, h_f], axis=1), axis=0) / _G_SAMPLES
    return _polish_on_start(h_coeffs, -1 if spec.initial_state is None else 1, theta)


def find_fixed_points(spec: QuenchSpec) -> list[FixedPoint]:
    """Momenta where one overlap coefficient vanishes, sorted over [-pi, pi).

    Closed form, no search: a fixed point is a momentum where the start is an
    eigenvector of the final operator.  :func:`_shared_eigenvector_angles`
    finds every such theta = 2k by one polynomial root solve and polishes it
    to rounding; each theta gives k = theta/2 and k + pi.  One batched
    :func:`overlap_grid` at these momenta then keeps a pair where the
    quasienergy is real and one coefficient has |c|^2 below
    ``FIXED_POINT_RESIDUAL``; that coefficient gives the kind.  Roots at a
    band touching of the final operator (|d0^2 - 1| <= ``EP_TOL``), where
    c_+- are undefined, are dropped.

    A fully broken final operator yields an empty list, and so does a quench
    whose operators commute at every momentum, where no fixed point is
    isolated.
    """
    theta = _shared_eigenvector_angles(spec)
    d0 = d_coefficients(spec.final, theta / 2)[:, 0].real
    theta = theta[np.abs(d0 * d0 - 1.0) > EP_TOL]
    if theta.size == 0:
        return []
    ks = (np.concatenate([theta / 2, theta / 2 + np.pi]) + np.pi) % (2 * np.pi) - np.pi
    cp, cm, final = overlap_grid(spec, ks)
    weights = np.abs(np.stack([cp, cm], axis=1)) ** 2
    # The k and k + pi of one root are one operator, so they are decided together.
    band = np.tile(np.argmin(weights[: len(theta)], axis=1), 2)
    residual = weights[np.arange(len(ks)), band]
    ok = (final.quasienergies[:, 0].imag == 0) & (residual < FIXED_POINT_RESIDUAL)
    ok = np.tile(ok.reshape(2, -1).all(axis=0), 2)
    kinds = (FixedPointKind.C_PLUS_ZERO, FixedPointKind.C_MINUS_ZERO)
    found = [
        FixedPoint(k=k, kind=kinds[b], residual=r)
        for k, b, r, keep in zip(ks.tolist(), band.tolist(), residual.tolist(), ok.tolist())
        if keep
    ]
    found.sort(key=lambda fp: fp.k)
    deduped: list[FixedPoint] = []
    for fp in found:
        if deduped and abs(fp.k - deduped[-1].k) < 1e-8 and fp.kind is deduped[-1].kind:
            continue
        deduped.append(fp)
    return deduped
