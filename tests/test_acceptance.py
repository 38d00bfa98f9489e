"""Acceptance criteria, one pass/fail line per criterion at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s``.

The step operator U_k depends on k only through 2k, so it is exactly
pi-periodic and the zeros of each overlap coefficient come in exact
pi-shifted pairs.  Every pinned fixed-point list is therefore closed under
k -> k + pi, and ``match_sets`` checks that before it compares, so a
mistyped fixture fails as a fixture error rather than as a solver miss.
"""

import time

import numpy as np

from ptwalk.chern import build_submanifolds, chern_numbers
from ptwalk.floquet import CoinParams, momentum_operator_closed
from ptwalk.measurement import (
    onsite_probabilities,
    pair_intensities,
    reconstruct_bloch_field,
    reconstruct_matrix_elements,
)
from ptwalk.presets import PRESETS, build_spec
from ptwalk.quench import (
    QuenchSpec,
    bloch_field,
    find_fixed_points,
    initial_spinors,
)
from ptwalk.spectrum import band_structure, walk_eigensystem
from ptwalk.walksim import PositionState
from conftest import period
from eig_oracle import zak_phase
from measurement_oracle import bloch_vector, density_matrix, matrix_elements_direct
from operator_oracle import momentum_operator_direct

PI = np.pi


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    return ok


def modular_distance(ks, k):
    """Distance from k to the nearest of ks on the circle of length 2 pi."""
    return np.abs((np.asarray(ks) - k + PI) % (2 * PI) - PI).min()


def match_sets(found, expected, tol):
    """Worst modular distance between matched sorted momentum sets.

    ``expected`` must itself be closed under k -> k + pi within ``tol``.
    """
    unpaired = [k for k in expected if modular_distance(expected, k + PI) >= tol]
    assert not unpaired, (
        f"fixture error: {np.round(np.array(unpaired) / PI, 4)} pi have no "
        "k + pi partner in the expected list, but fixed points of the "
        "pi-periodic step operator come in pi-shifted pairs"
    )
    if len(found) != len(expected):
        return np.inf
    worst = 0.0
    for want in expected:
        worst = max(worst, modular_distance(found, want))
    return worst


def test_criterion_1_operator_identity():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        params = CoinParams(
            float(rng.uniform(-PI, PI)),
            float(rng.uniform(-PI, PI)),
            float(rng.uniform(0.0, 0.95)),
        )
        k = float(rng.uniform(-PI, PI))
        delta = np.abs(
            momentum_operator_closed(params, k) - momentum_operator_direct(params, k)
        ).max()
        worst = max(worst, delta)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    assert report(
        "criterion 1 (operator identity)",
        ok,
        f"max |closed - gamma*product| = {worst:.2e} over 1000 draws, {elapsed:.2f} s",
    )


def test_criterion_2_flat_unitary_quench():
    spec = build_spec(PRESETS["fig3a"])
    start = time.perf_counter()
    fps = find_fixed_points(spec)
    worst_k = match_sets([fp.k for fp in fps], [-PI, -PI / 2, 0.0, PI / 2], 1e-6 * PI)
    t0 = period(spec, 0.37)
    field = bloch_field(spec, n_k=256, ts=np.linspace(0.0, 6.0, 61))
    norm_dev = np.abs(np.linalg.norm(field.n, axis=-1) - 1.0).max()
    elapsed = time.perf_counter() - start
    ok = worst_k < 1e-6 * PI and abs(t0 - 6.0) < 1e-9 and norm_dev < 1e-10 and elapsed < 5.0
    assert report(
        "criterion 2 (unitary quench)",
        ok,
        f"fixed points within {worst_k / PI:.2e} pi, t0 = {t0:.12f}, "
        f"max |n|-1 = {norm_dev:.2e} on 256x61, {elapsed:.2f} s",
    )


def test_criterion_3_period():
    spec = build_spec(PRESETS["fig3b"])
    t0 = period(spec, -1.234)
    ok = abs(t0 - 6.0) < 1e-9
    assert report("criterion 3 (lossy quench period)", ok, f"t0 = {t0:.12f}")


def test_criterion_3_fixed_points_literal_fixture():
    """Lossy-quench fixed points against the pinned list, within 5e-4 pi.

    The list holds two pi-shifted pairs: -0.4399 / 0.5601 pi and
    -0.0099 / 0.9901 pi.
    """
    spec = build_spec(PRESETS["fig3b"])
    fps = find_fixed_points(spec)
    # 0.5601 was once mistyped as 0.5901, which has no pi partner in the list;
    # 0.5601 is the k + pi partner of the list's own -0.4399.
    worst = match_sets(
        [fp.k for fp in fps],
        np.array([-0.4399, -0.0099, 0.5601, 0.9901]) * PI,
        5e-4 * PI,
    )
    ok = worst < 5e-4 * PI
    report(
        "criterion 3 (lossy quench fixed points, literal fixture)",
        ok,
        f"worst match {worst / PI:.4f} pi against "
        "[-0.4399, -0.0099, 0.5601, 0.9901] pi",
    )
    assert ok, (
        f"fig3b fixed points miss the pinned list by {worst / PI:.4f} pi "
        "(tolerance 5e-4 pi)"
    )


def _chern_table(name, n_k=256, n_t=256):
    spec = build_spec(PRESETS[name])
    fps = find_fixed_points(spec)
    subs = build_submanifolds(fps)
    pairs = chern_numbers(spec, subs, n_k, n_t)
    return fps, subs, [r for r, _ in pairs], [s for _, s in pairs]


def test_criterion_4_chern_numbers():
    start = time.perf_counter()
    details = []
    ok = True
    for name in ("fig3a", "fig3b"):
        _, subs, riemann, solid = _chern_table(name)
        values = [r.rounded for r in riemann]
        ok &= len(values) == 4
        ok &= all(r.residual < 0.02 for r in riemann)
        ok &= all(s.residual < 1e-6 for s in solid)
        ok &= [r.rounded for r in riemann] == [s.rounded for s in solid]
        ok &= sorted(values) == [-1, -1, 1, 1]
        ok &= all(a == -b for a, b in zip(values, values[1:] + values[:1]))
        details.append(f"{name}: {values}")
    _, subs6, riemann6, solid6 = _chern_table("fig6")
    ok &= all(r.rounded == 0 and r.residual < 0.02 for r in riemann6)
    ok &= all(s.rounded == 0 for s in solid6)
    details.append(f"fig6: {[r.rounded for r in riemann6]}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    assert report(
        "criterion 4 (dynamic Chern numbers)",
        bool(ok),
        "; ".join(details) + f", {elapsed:.2f} s",
    )


def test_criterion_4_fig6_fixed_points_literal_fixture():
    """Same-winding fixed points against the pinned list, within 5e-4 pi.

    The list holds two pi-shifted pairs: -0.5069 / 0.4931 pi and
    -0.0319 / 0.9681 pi.
    """
    spec = build_spec(PRESETS["fig6"])
    fps = find_fixed_points(spec)
    # 0.4931 was once mistyped as 0.4913, a digit transposition with no pi
    # partner in the list; 0.4931 is the k + pi partner of the list's -0.5069.
    worst = match_sets(
        [fp.k for fp in fps],
        np.array([0.9681, -0.5069, -0.0319, 0.4931]) * PI,
        5e-4 * PI,
    )
    ok = worst < 5e-4 * PI
    report(
        "criterion 4 (same-winding fixed points, literal fixture)",
        ok,
        f"worst match {worst / PI:.4f} pi against "
        "[0.9681, -0.5069, -0.0319, 0.4931] pi",
    )
    assert ok, (
        f"fig6 fixed points miss the pinned list by {worst / PI:.4f} pi "
        "(tolerance 5e-4 pi)"
    )


def test_criterion_5_winding_numbers():
    alpha = CoinParams(0, 0, 0.36).alpha
    cases = [
        (CoinParams(PI / 4, -PI / 2, 0.36), 0),
        (CoinParams(-PI / 2, PI / 3, 0.0), -2),
        (CoinParams(-PI / 2, float(np.arcsin(np.cos(PI / 6) / alpha)), 0.36), -2),
        (CoinParams(7 * PI / 25, -9 * PI / 20, 0.36), 0),
    ]
    ok = True
    details = []
    for params, want in cases:
        total = zak_phase(params, +1, 512) + zak_phase(params, -1, 512)
        nu = total / (2 * PI)
        residual = abs(nu - round(nu))
        ok &= round(nu) == want and residual < 0.05
        details.append(f"nu = {round(nu):+d} (residual {residual:.1e})")
    assert report("criterion 5 (winding numbers)", bool(ok), ", ".join(details))


def test_criterion_6_broken_steady_state():
    spec = build_spec(PRESETS["fig4"])
    ks = np.linspace(-PI, PI, 256, endpoint=False)
    bands = band_structure(spec.final, ks)
    re_max = np.abs(bands.energies.real).max()
    field = bloch_field(spec, n_k=256, ts=np.array([12.0]))
    n3_dev = np.abs(field.n[:, 0, 2] - 1.0).max()
    fps = find_fixed_points(spec)
    ok = re_max < 1e-10 and n3_dev < 0.05 and not fps
    assert report(
        "criterion 6 (broken-regime steady state)",
        ok,
        f"max |Re E| = {re_max:.1e}, max |n3(k,12)-1| = {n3_dev:.3f}, "
        f"{len(fps)} fixed points",
    )


def test_criterion_7_end_to_end_reconstruction():
    start = time.perf_counter()
    worst = 0.0
    for name in ("fig3a", "fig3b"):
        spec = build_spec(PRESETS[name])
        rec = reconstruct_bloch_field(spec, t_max=6, n_k=256)
        ana = bloch_field(spec, n_k=256, ts=rec.ts)
        worst = max(worst, float(np.abs(rec.n - ana.n).max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 10.0
    assert report(
        "criterion 7 (probability-only reconstruction)",
        ok,
        f"max |n_rec - n_analytic| = {worst:.2e} over t <= 6 x 256 momenta, "
        f"{elapsed:.2f} s",
    )


def test_criterion_8_reconstruction_identities():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        amps = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        state = PositionState(x_min=0, amplitudes=0.5 * amps / np.linalg.norm(amps))
        table = reconstruct_matrix_elements(
            onsite_probabilities(state), pair_intensities(state)
        )
        worst = max(worst, float(np.abs(table.table - matrix_elements_direct(state).table).max()))
    ok = worst < 1e-12
    assert report(
        "criterion 8 (reconstruction identities)",
        ok,
        f"max identity violation = {worst:.2e} over 1000 random two-site states",
    )


def test_criterion_9_property_suite():
    rng = np.random.default_rng(9)
    from ptwalk.spectrum import PTPhase, pt_classify

    # unit-norm n and trace-1 rho over random unbroken quenches
    unit_dev = trace_dev = biortho_dev = complete_dev = 0.0
    specs = []
    while len(specs) < 10:
        initial = CoinParams(*rng.uniform(-PI, PI, 2), float(rng.uniform(0, 0.6)))
        final = CoinParams(*rng.uniform(-PI, PI, 2), float(rng.uniform(0, 0.6)))
        if pt_classify(initial) is PTPhase.UNBROKEN:
            specs.append(QuenchSpec(initial=initial, final=final))
    for spec in specs:
        for _ in range(10):
            k = float(rng.uniform(-PI, PI))
            t = float(rng.uniform(0, 9))
            try:
                n = bloch_vector(spec, k, t)
                rho = density_matrix(spec, k, t)
                system = walk_eigensystem(spec.final, k)
            except Exception:
                continue
            unit_dev = max(unit_dev, abs(float(np.linalg.norm(n)) - 1.0))
            trace_dev = max(trace_dev, abs(complex(np.trace(rho)) - 1.0))
            gram = system.left @ system.right.T
            biortho_dev = max(biortho_dev, float(np.abs(gram - np.eye(2)).max()))
            complete_dev = max(
                complete_dev, float(np.abs(system.right.T @ system.left - np.eye(2)).max())
            )

    # Chern sum rule on the reference quenches
    sum_rule = 0
    for name in ("fig3a", "fig3b", "fig6"):
        spec = build_spec(PRESETS[name])
        subs = build_submanifolds(find_fixed_points(spec))
        sum_rule += abs(sum(r.rounded for r, _ in chern_numbers(spec, subs, 128, 128)))

    # pipeline scale invariance under amplitude rescaling
    spec = build_spec(PRESETS["fig3b"])
    base = initial_spinors(spec, np.array([0.0]))[0]
    scaled = QuenchSpec(spec.initial, spec.final, initial_state=tuple(0.2j * base))
    rec_a = reconstruct_bloch_field(spec, t_max=3, n_k=32)
    rec_b = reconstruct_bloch_field(scaled, t_max=3, n_k=32)
    scale_dev = float(np.abs(rec_a.n - rec_b.n).max())

    ok = (
        unit_dev < 1e-10
        and trace_dev < 1e-12
        and biortho_dev < 1e-12
        and complete_dev < 1e-12
        and sum_rule == 0
        and scale_dev < 1e-9
    )
    assert report(
        "criterion 9 (property suite)",
        ok,
        f"|n|-1 <= {unit_dev:.1e}, |Tr rho - 1| <= {trace_dev:.1e}, "
        f"biorthonormality <= {biortho_dev:.1e}, completeness <= {complete_dev:.1e}, "
        f"Chern sum rule = {sum_rule}, scale invariance <= {scale_dev:.1e}",
    )
