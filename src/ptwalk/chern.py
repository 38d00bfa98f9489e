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

``chern_riemann`` discretizes the integral by the midpoint rule with central
differences; ``chern_solid_angle`` sums exact signed spherical-triangle areas
over grid plaquettes, which yields an exactly integer total for any admissible
grid.  The two must agree after rounding.

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
    "chern_riemann",
    "chern_solid_angle",
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


def _field_columns(spec: QuenchSpec, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c_plus, c_minus) per k, guarding that every column oscillates (real E)."""
    cp, cm, final = overlap_grid(spec, ks)
    if np.any(final.quasienergies[:, 0].imag != 0):
        raise ExceptionalPoint(
            "submanifold touches the PT-broken regime; no periodic time cycle"
        )
    return cp, cm


def _bloch_grid(cp: np.ndarray, cm: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """n on the (k, tau) product grid, shape (n_k, n_tau, 3).

    In rescaled time the dressed spinor is (c_+ e^{-i pi tau}, c_- e^{+i pi tau});
    the global phase drops out of the Bloch map.
    """
    phase = np.exp(1j * np.pi * taus)
    return bloch_from_coefficients(
        cp[:, None] / phase[None, :], cm[:, None] * phase[None, :]
    )


def chern_riemann(
    sub: Submanifold, spec: QuenchSpec, n_k: int = 256, n_t: int = 256
) -> ChernResult:
    """Midpoint-rule integral of the degree density with central differences."""
    if n_k < 64 or n_t < 64:
        raise ValueError("integration grid must be at least 64x64")
    dk = (sub.k_hi - sub.k_lo) / n_k
    dt = 1.0 / n_t
    # Midpoint lattice plus one halo column for the centered k derivative.  Of
    # the n_t midpoint rows only the first, tau = dt/2, is evaluated, with its
    # two neighbours for the centered tau derivative: every row has the same sum.
    ks = sub.k_lo + (np.arange(-1, n_k + 1) + 0.5) * dk
    taus = (np.arange(-1, 2) + 0.5) * dt
    cp, cm = _field_columns(spec, ks)
    n = _bloch_grid(cp, cm, taus)
    dn_dk = (n[2:, 1] - n[:-2, 1]) / (2 * dk)
    dn_dt = (n[1:-1, 2] - n[1:-1, 0]) / (2 * dt)
    density = np.einsum("kc,kc->k", np.cross(n[1:-1, 1], dn_dt), dn_dk)
    value = float(n_t * density.sum() * dk * dt / (4 * np.pi))
    rounded = int(round(value))
    return ChernResult(value=value, rounded=rounded, residual=abs(value - rounded), method="riemann")


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


def chern_solid_angle(
    sub: Submanifold, spec: QuenchSpec, n_k: int = 128, n_t: int = 128
) -> ChernResult:
    """Degree of the n map as total signed spherical area over 4 pi.

    The (k, tau) rectangle is triangulated on grid nodes (tau periodic, k
    endpoints at the poles); summed spherical-triangle areas give an exactly
    integer multiple of 4 pi up to floating-point rounding.
    """
    if n_k < 8 or n_t < 8:
        raise ValueError("triangulation grid must be at least 8x8")
    ks = np.linspace(sub.k_lo, sub.k_hi, n_k + 1)
    # The strip of plaquettes between tau = 0 and 1/n_t; each of the n_t
    # strips around the period covers the same area.
    cp, cm = _field_columns(spec, ks)
    n = _bloch_grid(cp, cm, np.array([0.0, 1.0 / n_t]))
    v00, v01 = n[:-1, 0], n[:-1, 1]
    v10, v11 = n[1:, 0], n[1:, 1]
    # Orientation (t, k): matches the [n x dn/dt].dn/dk integrand sign.
    total = _triangle_areas(v00, v01, v11).sum() + _triangle_areas(v00, v11, v10).sum()
    value = float(n_t * total / (4 * np.pi))
    rounded = int(round(value))
    return ChernResult(
        value=value, rounded=rounded, residual=abs(value - rounded), method="solid_angle"
    )
