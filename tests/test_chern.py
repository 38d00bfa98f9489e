"""Dynamic Chern numbers: both integrators, quantization, sign rules."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chern_oracle import chern_riemann_one, chern_solid_angle_one
from ptwalk.chern import Submanifold, _pi_closed, build_submanifolds, chern_numbers
from ptwalk.errors import DegenerateTriangle, ExceptionalPoint, WalkError
from ptwalk.floquet import CoinParams
from ptwalk.quench import FixedPointKind, QuenchSpec, find_fixed_points
from ptwalk.spectrum import PTPhase, pt_classify
from conftest import random_coin_params

PI = np.pi


def all_cherns(spec, n_k=128, n_t=128):
    fps = find_fixed_points(spec)
    subs = build_submanifolds(fps)
    pairs = chern_numbers(spec, subs, n_k, n_t)
    return subs, [r for r, _ in pairs], [s for _, s in pairs]


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
        n: chern_riemann_one(sub, spec_fig3b, n, n).rounded for n in (128, 256, 512)
    }
    assert len(set(values.values())) == 1
    solid = {n: chern_solid_angle_one(sub, spec_fig3b, n, n).rounded for n in (64, 128)}
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
    checked = 0
    while checked < 100:
        initial = random_coin_params(rng, 0.6)
        final = random_coin_params(rng, 0.6)
        if pt_classify(initial) is PTPhase.BROKEN or pt_classify(final) is PTPhase.BROKEN:
            continue
        spec = QuenchSpec(initial=initial, final=final)
        try:
            fps = find_fixed_points(spec)
            if len(fps) < 2:
                continue
            subs = build_submanifolds(fps)
            total = 0
            for sub in subs:
                r = chern_riemann_one(sub, spec, 128, 128)
                s = chern_solid_angle_one(sub, spec, 96, 96)
                assert r.rounded == s.rounded, (spec, sub, r.value, s.value)
                assert r.residual < 0.3
                assert r.rounded == (pole(sub.kind_hi) - pole(sub.kind_lo)) // 2, (spec, sub)
                total += r.rounded
            assert total == 0, spec
        except WalkError:
            continue
        checked += 1


def unbroken_quenches(rng):
    """Quenches drawn as in test_methods_agree_on_random_quenches: both
    operators unbroken, at least two fixed points; with their submanifolds."""
    while True:
        initial = random_coin_params(rng, 0.6)
        final = random_coin_params(rng, 0.6)
        if pt_classify(initial) is PTPhase.BROKEN or pt_classify(final) is PTPhase.BROKEN:
            continue
        spec = QuenchSpec(initial=initial, final=final)
        try:
            fps = find_fixed_points(spec)
        except WalkError:
            continue
        if len(fps) >= 2:
            yield spec, build_submanifolds(fps)


def one_at_a_time(spec, subs, n_k, n_t):
    """Both integrators per submanifold on their own, with the grids of chern_numbers."""
    solid = (min(n_k, 128), min(n_t, 128))
    return [(chern_riemann_one(s, spec, n_k, n_t), chern_solid_angle_one(s, spec, *solid))
            for s in subs]


def bits(pairs):
    """Every field of every result, floats as exact hex strings."""
    return [[(r.value.hex(), r.rounded, r.residual.hex(), r.method) for r in pair]
            for pair in pairs]


def raised(func, *args):
    """(type, message) of the WalkError that ``func`` raises; fails if it returns."""
    with pytest.raises(WalkError) as info:
        func(*args)
    return type(info.value), str(info.value)


def batch_cases(rng):
    """(spec, submanifolds, grid): the presets at the CLI grids and 100 random
    quenches of unbroken_quenches at 128 x 96."""
    from ptwalk.presets import PRESETS, build_spec

    for name in sorted(PRESETS):
        spec = build_spec(PRESETS[name])
        yield spec, build_submanifolds(find_fixed_points(spec)), (256, 256)
    for spec, subs in itertools.islice(unbroken_quenches(rng), 100):
        yield spec, subs, (128, 96)


def test_the_batch_equals_the_integrators_one_at_a_time(rng):
    """chern_numbers gives the same bits as each integrator run on each
    submanifold alone, on the presets at the CLI grids and on the random
    quenches at 128 x 96.  Of a list closed under k -> k + pi, that holds for
    the first half, and each second-half result is its first-half partner's
    bit for bit; the same list without its last submanifold, which is not
    pi-closed, equals the integrators on every submanifold."""
    compared = closed = 0
    for spec, subs, grid in batch_cases(rng):
        half = len(subs) // 2 if _pi_closed(subs) else len(subs)
        closed += half < len(subs)
        # Each submanifold alone: its bits, or the (type, message) it raises.
        alone = []
        for sub in subs[:max(half, len(subs) - 1)]:
            try:
                alone.append(bits(one_at_a_time(spec, [sub], *grid))[0])
            except WalkError as exc:
                alone.append((type(exc), str(exc)))
        for listed, solved in ((subs, half), (subs[:-1], len(subs) - 1)):
            failed = [outcome for outcome in alone[:solved] if isinstance(outcome, tuple)]
            if failed:
                assert raised(chern_numbers, spec, listed, *grid) == failed[0], spec
                continue
            got = bits(chern_numbers(spec, listed, *grid))
            assert got[:solved] == alone[:solved], spec
            assert got[solved:] == got[: len(listed) - solved], spec
            compared += len(listed)
    assert compared >= 700 and closed >= 100


def test_each_pi_partner_integrated_alone_is_its_copy_to_rounding(rng):
    """A second-half submanifold run through each integrator alone lies within
    1e-14 of the first-half result chern_numbers returns for it, with the same
    rounded value: n(k + pi, tau) = n(k, tau) and E_{k+pi} = E_k, so the two
    integrands are one function and only rounding tells them apart."""
    compared = 0
    for spec, subs, grid in batch_cases(rng):
        if not subs:
            continue
        assert _pi_closed(subs), spec
        try:
            pairs = chern_numbers(spec, subs, *grid)
        except WalkError:
            continue
        half = len(subs) // 2
        for copies, alone in zip(pairs[half:], one_at_a_time(spec, subs[half:], *grid)):
            for copy, own in zip(copies, alone):
                assert abs(copy.value - own.value) <= 1e-14, (spec, copy, own)
                assert (copy.rounded, copy.method) == (own.rounded, own.method), spec
            compared += 1
    assert compared >= 200


def test_the_batch_raises_what_the_first_failing_integrator_raises():
    """Errors surface in submanifold order, Riemann before solid angle, even
    where the one overlap solve of the batch fails on a later submanifold."""
    touching = CoinParams(PI / 5, -PI / 5, 0.0)  # bands touch at k = 0 exactly
    # An explicit start along z: n is at one pole just left of k = 0 and at the
    # other just right, so the triangle strip of the first submanifold spans
    # antipodal nodes; the second submanifold has a node at the touching.
    spec = QuenchSpec(initial=touching, final=touching, initial_state=(1, 0))
    subs = [
        Submanifold(-0.25e-6, 63.75e-6, FixedPointKind.C_MINUS_ZERO, FixedPointKind.C_PLUS_ZERO),
        Submanifold(0.0, 1.0, FixedPointKind.C_PLUS_ZERO, FixedPointKind.C_MINUS_ZERO),
    ]
    got = raised(chern_numbers, spec, subs, 64, 64)
    assert got == raised(one_at_a_time, spec, subs, 64, 64)
    assert got[0] is DegenerateTriangle
    assert raised(chern_numbers, spec, subs[1:], 64, 64)[0] is ExceptionalPoint

    # A final operator broken around k = +-pi/2 only: the second submanifold
    # touches its broken regime, while the first has a node at the initial
    # operator's band touching, so the first raises.
    spec = QuenchSpec(initial=touching, final=CoinParams(PI / 4, PI / 4, 0.5))
    subs[0] = Submanifold(0.0, 1.0, FixedPointKind.C_PLUS_ZERO, FixedPointKind.C_MINUS_ZERO)
    subs[1] = Submanifold(1.2, 2.0, FixedPointKind.C_MINUS_ZERO, FixedPointKind.C_PLUS_ZERO)
    got = raised(chern_numbers, spec, subs, 64, 64)
    assert got == raised(one_at_a_time, spec, subs, 64, 64)
    assert got[0] is ExceptionalPoint and got[1].startswith("eigenvalue gap")
    broken = raised(chern_numbers, spec, subs[1:], 64, 64)
    assert broken == raised(one_at_a_time, spec, subs[1:], 64, 64)
    assert broken[0] is ExceptionalPoint and "PT-broken" in broken[1]
    shifted = Submanifold(0.2, 1.0, FixedPointKind.C_PLUS_ZERO, FixedPointKind.C_MINUS_ZERO)
    assert raised(chern_numbers, spec, [shifted, subs[1]], 64, 64) == broken


def overlap_sizes(monkeypatch):
    """The momentum count of every overlap solve chern_numbers makes, as it makes it."""
    import ptwalk.chern

    sizes = []
    solve = ptwalk.chern.overlap_grid

    def counted(spec, ks):
        sizes.append(len(ks))
        return solve(spec, ks)

    monkeypatch.setattr(ptwalk.chern, "overlap_grid", counted)
    return sizes


def test_a_chern_job_makes_one_overlap_solve_for_its_integrators(monkeypatch, tmp_path):
    """fig3b: 4 submanifolds closed under k -> k + pi, so the first 2 are
    integrated, at 258 Riemann and 129 triangulation momenta each."""
    from ptwalk.cli import main

    sizes = overlap_sizes(monkeypatch)
    assert main(["chern", "--preset", "fig3b", "--out", str(tmp_path / "chern.csv")]) == 0
    assert sizes == [2 * (258 + 129)]


def test_a_list_that_is_not_pi_closed_integrates_every_submanifold(monkeypatch, spec_fig3b):
    """An odd count, a kind that differs from its partner's and an endpoint
    1e-9 off its partner's + pi each integrate all S submanifolds (S * 387
    momenta at the CLI grids), with the integrators' own bits; an endpoint one
    ulp off, inside the 4 ulp(2 pi) of the rule, still pairs."""
    import dataclasses

    subs = build_submanifolds(find_fixed_points(spec_fig3b))
    last = subs[3]
    flipped = next(kind for kind in FixedPointKind if kind is not last.kind_hi)
    lists = {
        "closed": (subs, 2),
        "one ulp": (subs[:3] + [dataclasses.replace(last, k_hi=np.nextafter(last.k_hi, 9))], 2),
        "odd": (subs[:3], 3),
        "kind": (subs[:3] + [dataclasses.replace(last, kind_hi=flipped)], 4),
        "moved": (subs[:3] + [dataclasses.replace(last, k_hi=last.k_hi + 1e-9)], 4),
    }
    sizes = overlap_sizes(monkeypatch)
    for name, (listed, solved) in lists.items():
        sizes.clear()
        got = bits(chern_numbers(spec_fig3b, listed))
        assert sizes == [solved * (258 + 129)], name
        assert got[:solved] == bits(one_at_a_time(spec_fig3b, listed[:solved], 256, 256)), name
        assert got[solved:] == got[: len(listed) - solved], name


def test_skyrmion_coverage_iff_nonzero(spec_fig3b, spec_fig6):
    """Nonzero submanifold Chern number means n3 attains both signs inside."""
    for spec, expect_cover in ((spec_fig3b, True), (spec_fig6, False)):
        subs = build_submanifolds(find_fixed_points(spec))
        from chern_oracle import field_columns
        from ptwalk.chern import _bloch_grid

        for sub in subs:
            ks = np.linspace(sub.k_lo, sub.k_hi, 41)[1:-1]
            cp, cm = field_columns(spec, ks)
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
    with pytest.raises(ValueError, match="integration grid must be at least 64x64"):
        chern_numbers(spec_fig3a, [sub], 32, 32)


def rotation_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def invariance_cases(rng):
    """(spec, submanifold) on the presets plus a few random unbroken quenches."""
    from ptwalk.presets import PRESETS, build_spec

    specs = [build_spec(PRESETS[name]) for name in ("fig3a", "fig3b", "fig6")]
    while len(specs) < 8:
        initial, final = random_coin_params(rng, 0.6), random_coin_params(rng, 0.6)
        if PTPhase.BROKEN not in (pt_classify(initial), pt_classify(final)):
            specs.append(QuenchSpec(initial=initial, final=final))
    for spec in specs:
        for sub in build_submanifolds(find_fixed_points(spec))[:2]:
            yield spec, sub


def test_bloch_rows_are_rigid_z_rotations_of_row_zero(rng):
    """n(k, tau) = R_z(2 pi tau) n(k, 0): the identity the one-row integrators rest on."""
    from chern_oracle import field_columns
    from ptwalk.chern import _bloch_grid

    taus = np.concatenate([np.arange(37) / 37, rng.uniform(-1.0, 2.0, size=8)])
    for spec, sub in invariance_cases(rng):
        cp, cm = field_columns(spec, np.linspace(sub.k_lo, sub.k_hi, 65))
        n = _bloch_grid(cp, cm, taus)
        assert n.shape == (65, len(taus), 3)
        for j, tau in enumerate(taus):
            rotated = n[:, 0] @ rotation_z(2 * PI * tau).T
            np.testing.assert_allclose(n[:, j], rotated, rtol=0, atol=1e-14)


def test_every_row_of_the_full_grid_adds_the_same_chern_share(rng):
    """Each tau row of the Riemann density and of the triangle areas sums to the same.

    Shares are in units of C: a row's sum times the other grid factors, so
    that one row stands for the whole integral.
    """
    from chern_oracle import riemann_density_grid, triangle_area_grid

    for spec, sub in invariance_cases(rng):
        n_k, n_t = 97, 65
        dk = (sub.k_hi - sub.k_lo) / n_k
        rows = riemann_density_grid(sub, spec, n_k, n_t).sum(axis=0) * dk / (4 * PI)
        np.testing.assert_allclose(rows, rows[0], rtol=0, atol=1e-13)
        n_k, n_t = 40, 33
        rows = triangle_area_grid(sub, spec, n_k, n_t).sum(axis=(0, 1)) * n_t / (4 * PI)
        np.testing.assert_allclose(rows, rows[0], rtol=0, atol=1e-13)


def test_a_quarter_turn_gauge_jump_between_two_columns_keeps_the_chern_numbers(spec_fig3b):
    """The ket's gauge can switch between two grid momenta, which multiplies
    c_- by e^{i phi(k)} with phi a step: n1 + i n2 turns by phi there, a
    rotation about z, and n3 stays.  With a pi/2 step between two columns of
    each fig3b submanifold, at the edges and in the middle, both rounded values
    stay.  A strip of triangles spans two latitude polygons, whose areas a turn
    of one leaves alone, so the solid-angle value stays to rounding.  The
    Riemann central differences across the step pick up (R - 1) n, whose
    sin(phi) (z x n) part [n x dn/dtau] . (z x n) = 0 cancels; the
    (1 - cos(phi)) part moves the value (by 3.3e-3 here), not its rounding."""
    from ptwalk.chern import _momenta, _riemann, _solid_angle
    from ptwalk.quench import overlap_grid

    subs = build_submanifolds(find_fixed_points(spec_fig3b))
    lo, hi = np.array([(sub.k_lo, sub.k_hi) for sub in subs]).T
    for method, integrand, n in (("riemann", _riemann, 256), ("solid_angle", _solid_angle, 128)):
        ks = _momenta(lo, hi, method, n, n)
        cp, cm, _ = overlap_grid(spec_fig3b, ks.ravel())
        cp, cm = cp.reshape(ks.shape), cm.reshape(ks.shape)
        smooth = integrand(lo, hi, n, n, cp, cm)
        columns = ks.shape[1]
        for step in (1, 40, columns // 2, columns - 1):
            phi = np.where(np.arange(columns) >= step, PI / 2, 0.0)
            jumped = integrand(lo, hi, n, n, cp, cm * np.exp(1j * phi))
            np.testing.assert_array_equal(np.round(jumped), np.round(smooth), err_msg=method)
            if method == "solid_angle":
                np.testing.assert_allclose(jumped, smooth, rtol=0, atol=1e-13)


ANGLES = st.floats(-PI, PI)
LOSSES = st.one_of(st.just(0.0), st.floats(0.0, 0.6))


@st.composite
def chern_cases(draw):
    """A quench, a submanifold of it and the two integration grids.

    Quenches start from the lower band of an unbroken operator or from an
    explicit state, with a relative phase of i half the time (the family with
    isolated fixed points); a broken final operator is kept, so both sides
    must raise ``ExceptionalPoint``.  The submanifold is one between adjacent
    fixed points or, a quarter of the time or where there are none, any
    interval down to 1e-4 wide.  Grids run from the minimum (64 for Riemann,
    8 for solid angle) through odd sizes, with n_k and n_t drawn apart.
    """
    final = CoinParams(draw(ANGLES), draw(ANGLES), draw(LOSSES))
    if draw(st.booleans()):
        initial = CoinParams(draw(ANGLES), draw(ANGLES), draw(LOSSES))
        assume(pt_classify(initial) is PTPhase.UNBROKEN)
        spec = QuenchSpec(initial=initial, final=final)
    else:
        mix = draw(ANGLES)
        phase = draw(st.one_of(st.just(1j), ANGLES.map(lambda phi: np.exp(1j * phi))))
        spec = QuenchSpec(
            initial=final, final=final,
            initial_state=(complex(np.cos(mix)), complex(phase * np.sin(mix))),
        )
    try:
        subs = build_submanifolds(find_fixed_points(spec))
    except WalkError:
        subs = []
    if subs and draw(st.integers(0, 3)):
        sub = subs[draw(st.integers(0, len(subs) - 1))]
    else:
        k_lo = draw(ANGLES)
        width = 10.0 ** draw(st.floats(-4.0, np.log10(2 * PI)))
        sub = Submanifold(k_lo, k_lo + width, FixedPointKind.C_PLUS_ZERO,
                          FixedPointKind.C_MINUS_ZERO)
    riemann = (draw(st.integers(64, 161)), draw(st.integers(64, 161)))
    solid = (draw(st.integers(8, 97)), draw(st.integers(8, 97)))
    return spec, sub, riemann, solid


def solid_angle_rounding_bound(sub, spec, n_k, n_t):
    """How far rounding alone can move the one-strip sum from the full-grid sum.

    A triangle's area is 2 atan2(numer, denom).  Rotated rows round numer and
    denom differently, by a few ulps (taken as 4 eps), and atan2 scales an
    input error by 1 / hypot(numer, denom); rows differ in nothing else.
    Beside a band touching the eigenbasis flips, adjacent nodes turn almost
    antipodal, hypot falls toward 0 and the bound rises far above 1e-12.
    """
    from chern_oracle import field_columns
    from ptwalk.chern import _bloch_grid

    cp, cm = field_columns(spec, np.linspace(sub.k_lo, sub.k_hi, n_k + 1))
    n = _bloch_grid(cp, cm, np.array([0.0, 1.0 / n_t]))
    v00, v01, v10, v11 = n[:-1, 0], n[:-1, 1], n[1:, 0], n[1:, 1]
    inverse_hypot = 0.0
    for a, b, c in ((v00, v01, v11), (v00, v11, v10)):
        numer = np.einsum("kc,kc->k", a, np.cross(b, c))
        denom = 1 + np.einsum("kc,kc->k", a, b) + np.einsum("kc,kc->k", b, c)
        denom += np.einsum("kc,kc->k", c, a)
        inverse_hypot += np.sum(1 / np.hypot(numer, denom))
    return n_t * 8 * np.finfo(float).eps * inverse_hypot / (4 * PI)


def outcome(integrator, *args):
    """The ChernResult, or the type of the WalkError raised instead."""
    try:
        return integrator(*args)
    except WalkError as exc:
        return type(exc)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(chern_cases())
def test_one_row_integrators_match_the_full_grid_oracle(case):
    from chern_oracle import chern_riemann_full, chern_solid_angle_full

    spec, sub, riemann, solid = case
    pairs = [
        (outcome(chern_riemann_one, sub, spec, *riemann),
         outcome(chern_riemann_full, sub, spec, *riemann)),
        (outcome(chern_solid_angle_one, sub, spec, *solid),
         outcome(chern_solid_angle_full, sub, spec, *solid)),
    ]
    for got, want in pairs:
        if isinstance(got, type) or isinstance(want, type):
            assert got == want, (spec, sub, got, want)
            continue
        tol = 1e-12
        if got.method == "solid_angle":
            tol = max(tol, solid_angle_rounding_bound(sub, spec, *solid))
        assert abs(got.value - want.value) <= tol, (spec, sub, got, want, tol)
        assert got.rounded == want.rounded, (spec, sub, got, want)
        assert got.method == want.method
