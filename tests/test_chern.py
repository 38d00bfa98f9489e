"""Dynamic Chern numbers: both integrators, quantization, sign rules."""

import numpy as np
import pytest

from ptwalk.chern import build_submanifolds, chern_riemann, chern_solid_angle
from ptwalk.quench import FixedPointKind, QuenchSpec, find_fixed_points
from conftest import random_coin_params

PI = np.pi


def all_cherns(spec, n_k=128, n_t=128):
    fps = find_fixed_points(spec, 256)
    subs = build_submanifolds(fps)
    return subs, [chern_riemann(s, spec, n_k, n_t) for s in subs], [
        chern_solid_angle(s, spec, min(n_k, 128), min(n_t, 128)) for s in subs
    ]


def test_submanifold_geometry_fig3a(spec_fig3a):
    fps = find_fixed_points(spec_fig3a)
    subs = build_submanifolds(fps)
    assert len(subs) == 4
    edges = [(s.k_lo / PI, s.k_hi / PI) for s in subs]
    np.testing.assert_allclose(
        edges, [(-1, -0.5), (-0.5, 0), (0, 0.5), (0.5, 1)], atol=1e-6
    )
    # wraparound: last edge closes the zone
    assert subs[-1].k_hi - subs[0].k_lo == pytest.approx(2 * PI, abs=1e-6)


def test_few_fixed_points_close_nothing(spec_fig3a, spec_fig4):
    assert build_submanifolds([]) == []
    one = find_fixed_points(spec_fig3a)[:1]
    assert build_submanifolds(one) == []


def test_sign_rules_and_alternation_fig3a(spec_fig3a):
    subs, riemann, solid = all_cherns(spec_fig3a, 256, 256)
    for sub, r, s in zip(subs, riemann, solid):
        if sub.kind_lo is FixedPointKind.C_PLUS_ZERO:
            want = +1  # south pole on the left, north on the right
        else:
            want = -1
        assert r.rounded == want and r.residual < 0.02
        assert s.rounded == want and s.residual < 1e-6
    values = [r.rounded for r in riemann]
    assert sorted(values) == [-1, -1, 1, 1]
    assert all(a == -b for a, b in zip(values, values[1:]))  # alternating
    assert sum(values) == 0


def test_sign_rules_fig3b(spec_fig3b):
    subs, riemann, solid = all_cherns(spec_fig3b, 256, 256)
    assert len(subs) == 4
    for sub, r, s in zip(subs, riemann, solid):
        want = +1 if sub.kind_lo is FixedPointKind.C_PLUS_ZERO else -1
        assert r.rounded == want and r.residual < 0.02
        assert s.rounded == want
    assert sum(r.rounded for r in riemann) == 0


def test_same_kind_gives_zero_fig6(spec_fig6):
    subs, riemann, solid = all_cherns(spec_fig6, 256, 256)
    assert len(subs) == 4
    assert all(r.rounded == 0 and r.residual < 0.02 for r in riemann)
    assert all(s.rounded == 0 for s in solid)


def test_grid_refinement_stability(spec_fig3b):
    sub = build_submanifolds(find_fixed_points(spec_fig3b))[0]
    values = {
        n: chern_riemann(sub, spec_fig3b, n, n).rounded for n in (128, 256, 512)
    }
    assert len(set(values.values())) == 1
    solid = {n: chern_solid_angle(sub, spec_fig3b, n, n).rounded for n in (64, 128)}
    assert set(solid.values()) == set(values.values())


def pole(kind):
    """n3 at a fixed point: +1 (north) where c_- = 0, -1 (south) where c_+ = 0."""
    return 1 if kind is FixedPointKind.C_MINUS_ZERO else -1


def test_methods_agree_on_random_quenches(rng):
    """Rounded Riemann values equal the exactly-integer solid angles, 100 specs.

    Thin submanifolds converge slowly at 128x128 (observed worst residual
    ~0.12), so the cross-validation contract here is agreement after
    rounding plus the zone sum rule; tight residuals are pinned on the
    reference configurations above.  Both must also equal the exact degree
    (s_hi - s_lo) / 2, with s the pole that n is pinned to at each end: in
    rescaled time n rotates rigidly about the z axis, so only the poles count.
    """
    from ptwalk.errors import WalkError
    from ptwalk.spectrum import PTPhase, pt_classify

    checked = 0
    while checked < 100:
        initial = random_coin_params(rng, 0.6)
        final = random_coin_params(rng, 0.6)
        if pt_classify(initial) is PTPhase.BROKEN or pt_classify(final) is PTPhase.BROKEN:
            continue
        spec = QuenchSpec(initial=initial, final=final)
        try:
            fps = find_fixed_points(spec, 256)
            if len(fps) < 2:
                continue
            subs = build_submanifolds(fps)
            total = 0
            for sub in subs:
                r = chern_riemann(sub, spec, 128, 128)
                s = chern_solid_angle(sub, spec, 96, 96)
                assert r.rounded == s.rounded, (spec, sub, r.value, s.value)
                assert r.residual < 0.3
                assert r.rounded == (pole(sub.kind_hi) - pole(sub.kind_lo)) // 2, (spec, sub)
                total += r.rounded
            assert total == 0, spec
        except WalkError:
            continue
        checked += 1


def test_skyrmion_coverage_iff_nonzero(spec_fig3b, spec_fig6):
    """Nonzero submanifold Chern number means n3 attains both signs inside."""
    for spec, expect_cover in ((spec_fig3b, True), (spec_fig6, False)):
        subs = build_submanifolds(find_fixed_points(spec))
        from ptwalk.chern import _bloch_grid, _field_columns

        for sub in subs:
            ks = np.linspace(sub.k_lo, sub.k_hi, 41)[1:-1]
            cp, cm = _field_columns(spec, ks)
            n = _bloch_grid(cp, cm, np.linspace(0, 1, 37, endpoint=False))
            covers = (n[..., 2].min() < -0.2) and (n[..., 2].max() > 0.2)
            assert covers == expect_cover


def test_constant_field_zero_area():
    from ptwalk.chern import _triangle_areas

    v = np.array([0.0, 0.6, 0.8])
    assert _triangle_areas(v, v, v) == pytest.approx(0.0, abs=1e-15)


def test_degenerate_triangle_raises():
    from ptwalk.chern import _triangle_areas
    from ptwalk.errors import DegenerateTriangle

    v1 = np.array([0.0, 0.0, 1.0])
    v2 = np.array([0.0, 0.0, -1.0])
    v3 = np.array([1.0, 0.0, 0.0])
    with pytest.raises(DegenerateTriangle):
        _triangle_areas(v1, v2, v3)


def test_riemann_grid_precondition(spec_fig3a):
    sub = build_submanifolds(find_fixed_points(spec_fig3a))[0]
    with pytest.raises(ValueError):
        chern_riemann(sub, spec_fig3a, 32, 32)
