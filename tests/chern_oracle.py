"""Full-grid Chern integrators: the reference for the one-row sums in ``ptwalk.chern``.

These evaluate the field on every tau row of the integration grid, with the
same lattice, central differences and triangulation as the package, and sum
all ``n_k`` x ``n_t`` terms.  The package sums one row and multiplies by
``n_t``, which rests on n(k, tau) = R_z(2 pi tau) n(k, 0); a difference beyond
rounding between the two is a defect in that step.

``chern_riemann_one`` and ``chern_solid_angle_one`` run one of the package's
one-row integrators on one submanifold alone, the path ``chern_numbers``
falls back to when its batch raises; the batch must equal them bit for bit.
"""

import numpy as np

from ptwalk.chern import ChernResult, Submanifold, _bloch_grid, _integrate, _triangle_areas
from ptwalk.errors import ExceptionalPoint
from ptwalk.quench import QuenchSpec, overlap_grid


def field_columns(spec: QuenchSpec, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c_plus, c_minus) per k, guarding that every column oscillates (real E)."""
    cp, cm, final = overlap_grid(spec, ks)
    if np.any(final.quasienergies[:, 0].imag != 0):
        raise ExceptionalPoint(
            "submanifold touches the PT-broken regime; no periodic time cycle"
        )
    return cp, cm


def riemann_density_grid(sub: Submanifold, spec: QuenchSpec, n_k: int, n_t: int) -> np.ndarray:
    """[n x dn/dtau] . dn/dk on the full (n_k, n_t) midpoint lattice."""
    dk = (sub.k_hi - sub.k_lo) / n_k
    dt = 1.0 / n_t
    # Midpoint lattice plus one halo column/row for the centered derivatives;
    # tau halo rows need no wrapping because the field is exactly 1-periodic.
    ks = sub.k_lo + (np.arange(-1, n_k + 1) + 0.5) * dk
    taus = (np.arange(-1, n_t + 1) + 0.5) * dt
    cp, cm = field_columns(spec, ks)
    n = _bloch_grid(cp, cm, taus)
    dn_dk = (n[2:, 1:-1] - n[:-2, 1:-1]) / (2 * dk)
    dn_dt = (n[1:-1, 2:] - n[1:-1, :-2]) / (2 * dt)
    core = n[1:-1, 1:-1]
    return np.einsum("ktc,ktc->kt", np.cross(core, dn_dt), dn_dk)


def triangle_area_grid(sub: Submanifold, spec: QuenchSpec, n_k: int, n_t: int) -> np.ndarray:
    """Signed areas of both triangles of every plaquette, shape (2, n_k, n_t)."""
    ks = np.linspace(sub.k_lo, sub.k_hi, n_k + 1)
    taus = np.arange(n_t) / n_t
    cp, cm = field_columns(spec, ks)
    n = _bloch_grid(cp, cm, taus)
    v00 = n[:-1, :]
    v10 = n[1:, :]
    v11 = np.roll(n[1:, :], -1, axis=1)
    v01 = np.roll(n[:-1, :], -1, axis=1)
    # Orientation (t, k): matches the [n x dn/dt].dn/dk integrand sign.
    return np.stack([_triangle_areas(v00, v01, v11), _triangle_areas(v00, v11, v10)])


def _result(value: float, method: str) -> ChernResult:
    rounded = int(round(value))
    return ChernResult(value=value, rounded=rounded, residual=abs(value - rounded), method=method)


def chern_riemann_full(
    sub: Submanifold, spec: QuenchSpec, n_k: int = 256, n_t: int = 256
) -> ChernResult:
    """Midpoint-rule integral of the degree density over the whole grid."""
    if n_k < 64 or n_t < 64:
        raise ValueError("integration grid must be at least 64x64")
    dk = (sub.k_hi - sub.k_lo) / n_k
    dt = 1.0 / n_t
    density = riemann_density_grid(sub, spec, n_k, n_t)
    return _result(float(density.sum() * dk * dt / (4 * np.pi)), "riemann")


def chern_solid_angle_full(
    sub: Submanifold, spec: QuenchSpec, n_k: int = 128, n_t: int = 128
) -> ChernResult:
    """Total signed spherical area of the whole triangulation over 4 pi."""
    if n_k < 8 or n_t < 8:
        raise ValueError("triangulation grid must be at least 8x8")
    areas = triangle_area_grid(sub, spec, n_k, n_t)
    return _result(float((areas[0].sum() + areas[1].sum()) / (4 * np.pi)), "solid_angle")


def chern_riemann_one(sub: Submanifold, spec: QuenchSpec, n_k: int, n_t: int) -> ChernResult:
    """The package's one-row Riemann sum on ``sub`` alone."""
    return _integrate(spec, [sub], (("riemann", n_k, n_t),))[0][0]


def chern_solid_angle_one(sub: Submanifold, spec: QuenchSpec, n_k: int, n_t: int) -> ChernResult:
    """The package's one-strip solid-angle sum on ``sub`` alone."""
    return _integrate(spec, [sub], (("solid_angle", n_k, n_t),))[0][0]
