"""Dynamic Chern numbers on momentum-time submanifolds between fixed points.

Between two adjacent fixed points the Bloch vector field n(k,t), taken over
one oscillation period t in [0, pi/E_k], closes into a sphere: the endpoint
columns sit at the poles and the time direction is periodic.  The degree of
that map,

    C = 1/(4 pi) int dk int dt  [n x dn/dt] . dn/dk,

is computed two independent ways.  Both integrators work in the rescaled time
tau = t E_k / pi in [0, 1], which turns the k-dependent period into a
rectangle; the integrand is a 2-form, so the reparameterization Jacobian
cancels identically.  In tau the dressed coefficients are simply
(c_+(k), c_-(k) e^{2 pi i tau}) up to a global phase, so each column of the
field costs one eigensystem.

The Riemann integrator discretizes the integral by the midpoint rule with
central differences; the solid-angle integrator sums exact signed
spherical-triangle areas over grid plaquettes, which yields an exactly integer
total for any admissible grid.  The two must agree after rounding.

One tau row stands for all ``n_t`` of them.  The phase e^{i pi tau} turns
n1 + i n2 = 2 conj(c_+) c_- e^{2 pi i tau} / n0 and leaves n3 alone, so row
tau of the grid is R_z(2 pi tau) applied to row 0 (C. Yang, L. Li and S. Chen,
PRB 97, 060304(R) (2018)).  Both summands are built from dot and triple
products of the field and its differences, which a rotation leaves unchanged,
so every row of the ``n_k`` x ``n_t`` sum adds the same number.  Each
integrator therefore evaluates the rows its stencil touches at tau = 0 and
multiplies by ``n_t``: the same lattice, differences and triangulation as the
full grid, equal to it up to rounding.  The full-grid sums are kept in the
tests as the oracle.

:func:`chern_numbers`, the one entry point, evaluates both integrators on
every submanifold of a quench from one overlap solve, in one array pass per
integrator over them all; of a list closed under k -> k + pi, on its first
half only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTriangle, ExceptionalPoint
from .quench import (
    FixedPoint,
    FixedPointKind,
    QuenchSpec,
    bloch_from_coefficients,
    overlap_grid,
)

__all__ = [
    "Submanifold",
    "ChernResult",
    "build_submanifolds",
    "chern_numbers",
]


@dataclass(frozen=True)
class Submanifold:
    """The (k, t) patch between two adjacent fixed points, k unwrapped."""

    k_lo: float
    k_hi: float
    kind_lo: FixedPointKind
    kind_hi: FixedPointKind


@dataclass(frozen=True)
class ChernResult:
    value: float
    rounded: int
    residual: float
    method: str


def build_submanifolds(fixed_points: list[FixedPoint]) -> list[Submanifold]:
    """Consecutive fixed-point pairs around the zone, with wraparound.

    Fewer than two fixed points close no submanifold; the result is empty.
    """
    if len(fixed_points) < 2:
        return []
    fps = sorted(fixed_points, key=lambda fp: fp.k)
    out = []
    for i, fp in enumerate(fps):
        nxt = fps[(i + 1) % len(fps)]
        k_hi = nxt.k if i + 1 < len(fps) else nxt.k + 2 * np.pi
        out.append(
            Submanifold(k_lo=fp.k, k_hi=k_hi, kind_lo=fp.kind, kind_hi=nxt.kind)
        )
    return out


def _momenta(lo: np.ndarray, hi: np.ndarray, method: str, n_k: int, n_t: int) -> np.ndarray:
    """The (S, m) momenta at which ``method`` samples the S submanifolds [lo, hi]."""
    least, grid = (64, "integration") if method == "riemann" else (8, "triangulation")
    if n_k < least or n_t < least:
        raise ValueError(f"{grid} grid must be at least {least}x{least}")
    if method == "solid_angle":
        return np.linspace(lo, hi, n_k + 1, axis=-1)
    # Midpoint lattice plus one halo column for the centered k derivative.
    dk = (hi - lo)[:, None] / n_k
    return lo[:, None] + (np.arange(-1, n_k + 1) + 0.5) * dk


def _bloch_grid(cp: np.ndarray, cm: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """n on the (k, tau) product grid, shape cp.shape + (n_tau, 3).

    In rescaled time the dressed spinor is (c_+ e^{-i pi tau}, c_- e^{+i pi tau});
    the global phase drops out of the Bloch map.
    """
    phase = np.exp(1j * np.pi * taus)
    return bloch_from_coefficients(cp[..., None] / phase, cm[..., None] * phase)


def _riemann(lo: np.ndarray, hi: np.ndarray, n_k: int, n_t: int, cp, cm) -> np.ndarray:
    dk = (hi - lo) / n_k
    dt = 1.0 / n_t
    # Of the n_t midpoint rows only the first, tau = dt/2, is evaluated, with its
    # two neighbours for the centered tau derivative: every row has the same sum.
    n = _bloch_grid(cp, cm, (np.arange(-1, 2) + 0.5) * dt)
    dn_dk = (n[:, 2:, 1] - n[:, :-2, 1]) / (2 * dk[:, None, None])
    dn_dt = (n[:, 1:-1, 2] - n[:, 1:-1, 0]) / (2 * dt)
    density = np.einsum("skc,skc->sk", np.cross(n[:, 1:-1, 1], dn_dt), dn_dk)
    return n_t * density.sum(axis=1) * dk * dt / (4 * np.pi)


def _triangle_areas(v1: np.ndarray, v2: np.ndarray, v3: np.ndarray) -> np.ndarray:
    """Signed solid angles of spherical triangles (vectorized, last axis xyz)."""
    numer = np.einsum("...c,...c->...", v1, np.cross(v2, v3))
    denom = (
        1.0
        + np.einsum("...c,...c->...", v1, v2)
        + np.einsum("...c,...c->...", v2, v3)
        + np.einsum("...c,...c->...", v3, v1)
    )
    bad = (np.abs(denom) < 1e-12) & (np.abs(numer) < 1e-12)
    if np.any(bad):
        raise DegenerateTriangle(
            "antipodal Bloch vectors on adjacent grid nodes; refine the grid"
        )
    return 2.0 * np.arctan2(numer, denom)


def _solid_angle(lo: np.ndarray, hi: np.ndarray, n_k: int, n_t: int, cp, cm) -> np.ndarray:
    # The strip of plaquettes between tau = 0 and 1/n_t; each of the n_t
    # strips around the period covers the same area.
    n = _bloch_grid(cp, cm, np.array([0.0, 1.0 / n_t]))
    v00, v01, v10, v11 = n[:, :-1, 0], n[:, :-1, 1], n[:, 1:, 0], n[:, 1:, 1]
    # Orientation (t, k): matches the [n x dn/dt].dn/dk integrand sign.
    total = _triangle_areas(v00, v01, v11).sum(axis=1) + _triangle_areas(v00, v11, v10).sum(axis=1)
    return n_t * total / (4 * np.pi)


def _integrate(spec: QuenchSpec, subs: list[Submanifold], grids: tuple) -> list[list[ChernResult]]:
    """Results [sub][grid] for the (method, n_k, n_t) ``grids``, from one overlap
    solve and one array pass per grid.  A complex E anywhere raises, so errors
    come in order only for one submanifold and grid (see :func:`chern_numbers`)."""
    lo, hi = np.array([(sub.k_lo, sub.k_hi) for sub in subs]).T
    ks = [_momenta(lo, hi, *grid) for grid in grids]
    cp, cm, final = overlap_grid(spec, np.concatenate(ks, axis=None))
    if np.any(final.quasienergies[:, 0].imag != 0):
        raise ExceptionalPoint("submanifold touches the PT-broken regime; no periodic time cycle")
    cut = np.cumsum([k.size for k in ks])[:-1]
    values = []
    for (method, n_k, n_t), p, m in zip(grids, np.split(cp, cut), np.split(cm, cut)):
        integrand = _riemann if method == "riemann" else _solid_angle
        values.append(integrand(lo, hi, n_k, n_t, p.reshape(len(lo), -1), m.reshape(len(lo), -1)))
    return [[ChernResult(v, round(v), abs(v - round(v)), g[0]) for v, g in zip(row, grids)]
            for row in np.stack(values, axis=1).tolist()]


# How far a list's second half may sit from its first shifted by pi and still
# count as that shift: 4 ulp(2 pi), beyond the rounding of k + pi wrapped into
# [-pi, pi) and unwrapped again by one 2 pi.
_PI_PAIR_TOL = 4 * np.spacing(2 * np.pi)


def _pi_closed(subs: list[Submanifold]) -> bool:
    """Whether ``subs[h + i]`` is ``subs[i]`` shifted by pi, kinds alike, h = S / 2."""
    half, odd = divmod(len(subs), 2)
    if odd or not half:
        return False
    if any(a.kind_lo is not b.kind_lo or a.kind_hi is not b.kind_hi
           for a, b in zip(subs, subs[half:])):
        return False
    edges = np.array([(sub.k_lo, sub.k_hi) for sub in subs])
    return bool(np.all(np.abs(edges[half:] - edges[:half] - np.pi) <= _PI_PAIR_TOL))


def chern_numbers(
    spec: QuenchSpec, subs: list[Submanifold], n_k: int = 256, n_t: int = 256
) -> list[tuple[ChernResult, ChernResult]]:
    """(Riemann, solid-angle) result per submanifold, from one overlap solve.

    The Riemann grid is ``n_k`` x ``n_t``; the triangulation, whose areas are
    exact, takes min(n_k, 128) x min(n_t, 128).

    U_{k+pi} = U_k and the start is pi-periodic, so n(k + pi, tau) = n(k, tau)
    and E_{k+pi} = E_k: a submanifold shifted by pi carries the same field and
    the same Chern numbers.  :func:`find_fixed_points` returns k and k + pi
    as one pair, so its submanifold lists are pi-closed: of S = 2h, sub[h + i]
    has the kinds of sub[i] and ``k_lo``, ``k_hi`` pi above, here to within
    4 ulp(2 pi) = 3.6e-15.  Such a list integrates its first half only and
    returns those results twice; a partner differs from its own integral by
    rounding alone.  Every other list, a hand-made one included, integrates
    every submanifold.

    Each result the integrators compute equals its integrator run on that
    submanifold alone bit for bit, and errors come in that order: submanifold
    by submanifold, Riemann first (of a pi-closed list, over its first half).
    A band touching, a complex E or a degenerate triangle anywhere stops the
    batch, so then the integrators run one at a time and the first to fail
    raises.
    """
    grids = (("riemann", n_k, n_t), ("solid_angle", min(n_k, 128), min(n_t, 128)))
    if not subs:
        return []
    solved = subs[: len(subs) // 2] if _pi_closed(subs) else subs
    try:
        results = _integrate(spec, solved, grids)
    except (ExceptionalPoint, DegenerateTriangle):
        results = [[_integrate(spec, [sub], (grid,))[0][0] for grid in grids] for sub in solved]
    return [tuple(pair) for pair in results] * (len(subs) // len(solved))
