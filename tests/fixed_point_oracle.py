"""Fixed-point references: a grid-scan search, and the root polish one
cross product at a time.

:func:`grid_fixed_points` is the independent reference for the root solver.

Scans |c_+-|^2 on a uniform momentum grid, brackets every local minimum below
1e-2 (with periodic wraparound) and refines it by golden-section search on
the bracket [k - dk, k + dk].  A refined minimum counts as a fixed point when
its |c|^2 is below ``FIXED_POINT_RESIDUAL``.  It can miss a pair of close
zeros that one grid cell holds, but it never invents one, so a point it
finds and the solver lacks is a solver defect.

:func:`polish_by_np_cross` is the Gauss-Newton polish of
``ptwalk.quench._polish_on_start`` written plainly: a phase matrix per
derivative order, five ``np.cross`` calls per step, and the partner test on
the first step's W, one angle at a time.  The package's stacked polish must
return the same angles bit for bit.
"""

import math

import numpy as np

from ptwalk.quench import (
    _NEWTON_STEPS,
    _PARTNER_FLOOR,
    _PARTNER_RATIO,
    _ROOT_TOL,
    _W_ROUNDING,
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


def _trig_poly(coeffs, theta):
    """sum_m a_m e^{i m theta} and its theta derivative at each theta."""
    m = np.fft.fftfreq(len(coeffs), 1.0 / len(coeffs))
    phase = np.exp(1j * np.outer(theta, m))
    return tuple(np.tensordot(phase * (1j * m) ** order, coeffs, axes=1) for order in (0, 1))


def polish_by_np_cross(h_coeffs, sign, theta):
    """The Gauss-Newton polish of candidate angles, with five ``np.cross`` per step.

    Each angle is polished on its own, so it stops at its own step.  It is
    evaluated as a batch of two copies of itself, because numpy hands a
    one-row product to gemv, which rounds otherwise than the rows of gemm.
    """
    polished = [_polish_alone(h_coeffs, sign, np.array([angle, angle]))[:1] for angle in theta]
    return np.concatenate([np.empty(0), *polished])


def _polish_alone(h_coeffs, sign, theta):
    """The polish of one angle, repeated in ``theta``.

    Before the first step it drops the angle where the partner's
    W- = h_a x w - i m w is a thousandfold below W and W is clear of its
    rounding floor.
    """
    for count in range(_NEWTON_STEPS):
        (h_a, h_f), (dh_a, dh_f) = (v.transpose(1, 0, 2) for v in _trig_poly(h_coeffs, theta))
        w = np.cross(h_a, h_f)
        dw = np.cross(dh_a, h_f) + np.cross(h_a, dh_f)
        m = sign * np.sqrt(np.sum(h_a * h_a, axis=1, keepdims=True))
        with np.errstate(divide="ignore", invalid="ignore"):
            dm = np.sum(h_a * dh_a, axis=1, keepdims=True) / m
            big_w = np.cross(h_a, w) + 1j * m * w
            d_big_w = np.cross(dh_a, w) + np.cross(h_a, dw) + 1j * (dm * w + m * dw)
            slope = np.sum(np.abs(d_big_w) ** 2, axis=1)
            step = np.sum(d_big_w.conj() * big_w, axis=1).real / slope
        size = np.sum(np.abs(h_a) ** 2, axis=1) * np.linalg.norm(h_f, axis=1)
        rounding = (_W_ROUNDING * size) ** 2
        residual = np.sum(np.abs(big_w) ** 2, axis=1)
        if count == 0:
            partner = np.sum(np.abs(np.cross(h_a, w) - 1j * m * w) ** 2, axis=1)
            keep = ~((partner < _PARTNER_RATIO**2 * residual)
                     & (residual > (_PARTNER_FLOOR * size) ** 2))
            theta, step, slope, rounding, residual = (
                theta[keep], step[keep], slope[keep], rounding[keep], residual[keep])
        # At the rounding floor W / W' is noise: a step longer than _ROOT_TOL is not taken.
        step[(residual <= rounding) & (np.abs(step) > _ROOT_TOL)] = 0.0
        step = np.where(np.isfinite(step), step, 0.0)
        theta = theta - step
        if np.all(np.abs(step) <= 1e-15):
            break
    return theta[residual <= _ROOT_TOL**2 * slope + rounding]
