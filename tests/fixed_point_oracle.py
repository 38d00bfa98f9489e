"""Grid-scan fixed-point search: the independent reference for the root solver.

Scans |c_+-|^2 on a uniform momentum grid, brackets every local minimum below
1e-2 (with periodic wraparound) and refines it by golden-section search on
the bracket [k - dk, k + dk].  A refined minimum counts as a fixed point when
its |c|^2 is below ``FIXED_POINT_RESIDUAL``.  It can miss a pair of close
zeros that one grid cell holds, but it never invents one, so a point it
finds and the solver lacks is a solver defect.
"""

import math

import numpy as np

from ptwalk.quench import (
    FIXED_POINT_RESIDUAL,
    FixedPoint,
    FixedPointKind,
    overlap_grid,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(f, lo: np.ndarray, hi: np.ndarray, xtol: float = 1e-12):
    """(x, f(x)) at a minimum of a unimodal ``f`` on each bracket [lo, hi].

    Runs every bracket at once: ``f`` maps an array of abscissae to an array
    of values, one per bracket.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while np.max(b - a) > xtol:
        left = fc <= fd  # the minimum is in [a, d]: drop (d, b]
        a, b = np.where(left, a, c), np.where(left, d, b)
        c, d = np.where(left, b - GOLDEN * (b - a), d), np.where(left, c, a + GOLDEN * (b - a))
        fresh = f(np.where(left, c, d))
        fc, fd = np.where(left, fresh, fd), np.where(left, fc, fresh)
    return np.where(fc <= fd, c, d), np.minimum(fc, fd)


def grid_fixed_points(spec, n_k: int = 512) -> list[FixedPoint]:
    """Fixed points found by the grid scan, sorted over [-pi, pi)."""
    ks = np.linspace(-np.pi, np.pi, n_k, endpoint=False)
    cp, cm, final = overlap_grid(spec, ks)
    real_regime = final.quasienergies[:, 0].imag == 0
    weights = np.abs(np.stack([cp, cm])) ** 2  # (kind, k)
    minima = (
        real_regime
        & (weights <= np.roll(weights, 1, axis=1))
        & (weights < np.roll(weights, -1, axis=1))
        & (weights < 1e-2)
    )
    band, at = np.nonzero(minima)
    if band.size == 0:
        return []

    def objective(k: np.ndarray) -> np.ndarray:
        cp, cm, _ = overlap_grid(spec, k)
        return np.abs(np.where(band == 0, cp, cm)) ** 2

    dk = 2 * np.pi / n_k
    k_star, residual = golden_section(objective, ks[at] - dk, ks[at] + dk)
    kinds = (FixedPointKind.C_PLUS_ZERO, FixedPointKind.C_MINUS_ZERO)
    found = sorted(
        (
            FixedPoint(k=float((k + np.pi) % (2 * np.pi) - np.pi), kind=kinds[b], residual=r)
            for k, b, r in zip(k_star.tolist(), band.tolist(), residual.tolist())
            if r < FIXED_POINT_RESIDUAL
        ),
        key=lambda fp: fp.k,
    )
    deduped = []
    for fp in found:
        if deduped and abs(fp.k - deduped[-1].k) < 1e-8 and fp.kind is deduped[-1].kind:
            continue
        deduped.append(fp)
    return deduped
