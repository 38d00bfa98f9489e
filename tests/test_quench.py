"""Quench dynamics: overlaps, Bloch vector, density matrix, fixed points."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eig_oracle import quasienergies
from fixed_point_oracle import grid_fixed_points, polish_by_np_cross
from measurement_oracle import bloch_from_density, bloch_vector, density_matrix, tau_basis
import ptwalk.quench
from ptwalk.chern import build_submanifolds, chern_numbers
from ptwalk.errors import ExceptionalPoint, WalkError
from ptwalk.floquet import CoinParams, d_coefficients
from ptwalk.presets import PRESETS, build_spec
from ptwalk.quench import (
    _cross,
    FIXED_POINT_RESIDUAL,
    FixedPointKind,
    QuenchSpec,
    bloch_field,
    bloch_from_coefficients,
    find_fixed_points,
    initial_spinors,
    initial_state_residual,
    overlap_grid,
)
from ptwalk.spectrum import (
    PTPhase,
    _energy_plus_from_d0,
    band_structure,
    pt_classify,
    walk_eigensystem,
)
from conftest import period, random_coin_params

PI = np.pi


def random_spec(rng, p_max=0.75):
    """Random quench with an unbroken initial operator (eigenstate start)."""
    from ptwalk.spectrum import PTPhase, pt_classify

    while True:
        initial = random_coin_params(rng, p_max)
        final = random_coin_params(rng, p_max)
        if pt_classify(initial) is PTPhase.UNBROKEN:
            return QuenchSpec(initial=initial, final=final)


def oscillatory_closed_form(c_plus, c_minus, energy, t):
    """Literal transcription of the real-regime closed form."""
    n0 = np.conj(c_plus) * c_plus + np.conj(c_minus) * c_minus
    z = np.conj(c_minus) * c_plus * np.exp(-2j * energy * t)
    n1 = (z + np.conj(z)) / n0
    n2 = 1j * (z - np.conj(z)) / n0
    n3 = (np.conj(c_plus) * c_plus - np.conj(c_minus) * c_minus) / n0
    return np.array([n1.real, n2.real, n3.real])


def relaxation_closed_form(c_plus, c_minus, energy, t):
    """Literal transcription of the imaginary-regime closed form (Im E > 0)."""
    grow = np.conj(c_plus) * c_plus * np.exp(-2j * energy * t)
    decay = np.conj(c_minus) * c_minus * np.exp(2j * energy * t)
    n0 = grow + decay
    w = np.conj(c_minus) * c_plus
    n1 = (w + np.conj(w)) / n0
    n2 = 1j * (w - np.conj(w)) / n0
    n3 = (grow - decay) / n0
    return np.array([n1.real, n2.real, n3.real])


def test_no_quench_gives_pure_lower_band(rng):
    for _ in range(10):
        params = random_coin_params(rng, 0.6)
        from ptwalk.spectrum import PTPhase, pt_classify

        if pt_classify(params) is PTPhase.BROKEN:
            continue
        spec = QuenchSpec(initial=params, final=params)
        for k in rng.uniform(-PI, PI, size=5):
            (c_plus,), (c_minus,), _ = overlap_grid(spec, np.array([float(k)]))
            assert c_minus == pytest.approx(1.0, abs=1e-12)
            assert abs(c_plus) < 1e-12


def test_overlap_completeness_reconstruction(rng):
    for _ in range(20):
        spec = random_spec(rng)
        k = float(rng.uniform(-PI, PI))
        try:
            (c_plus,), (c_minus,), _ = overlap_grid(spec, np.array([k]))
            system = walk_eigensystem(spec.final, k)
        except Exception:
            continue
        psi_i = initial_spinors(spec, np.array([k]))[0]
        rebuilt = c_plus * system.right[0] + c_minus * system.right[1]
        np.testing.assert_allclose(rebuilt, psi_i, atol=1e-12)


def test_printed_initial_state_digits(spec_fig3b):
    """The lossy lower-band eigenstate matches its 4-digit printed form."""
    psi = initial_spinors(spec_fig3b, np.array([0.0]))[0]
    psi = psi / (psi[0] / abs(psi[0]))  # gauge: first component real positive
    np.testing.assert_allclose(psi.real, [0.7606, 0.0], atol=5e-4)
    np.testing.assert_allclose(psi.imag, [0.0, 0.6492], atol=5e-4)


def test_unitary_initial_state_is_circular(spec_fig3a):
    psi = initial_spinors(spec_fig3a, np.array([0.4]))[0]
    psi = psi / (psi[0] / abs(psi[0]))
    np.testing.assert_allclose(psi, [1 / np.sqrt(2), 1j / np.sqrt(2)], atol=1e-12)


def test_bloch_vector_unit_norm_both_regimes(rng, spec_fig3b, spec_fig4):
    for spec in (spec_fig3b, spec_fig4):
        for _ in range(20):
            k = float(rng.uniform(-PI, PI))
            t = float(rng.uniform(0, 9))
            n = bloch_vector(spec, k, t)
            assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-10)


def test_bloch_vector_matches_oscillatory_form(rng, spec_fig3b):
    for _ in range(20):
        k = float(rng.uniform(-PI, PI))
        t = float(rng.uniform(0, 12))
        (c_plus,), (c_minus,), _ = overlap_grid(spec_fig3b, np.array([k]))
        energy, _ = quasienergies(spec_fig3b.final, k)
        assert energy.imag == 0
        np.testing.assert_allclose(
            bloch_vector(spec_fig3b, k, t),
            oscillatory_closed_form(c_plus, c_minus, energy.real, t),
            atol=1e-12,
        )


def test_bloch_vector_matches_relaxation_form(rng, spec_fig4):
    for _ in range(20):
        k = float(rng.uniform(-PI, PI))
        t = float(rng.uniform(0, 6))
        (c_plus,), (c_minus,), _ = overlap_grid(spec_fig4, np.array([k]))
        energy, _ = quasienergies(spec_fig4.final, k)
        assert energy.real == 0 and energy.imag > 0
        np.testing.assert_allclose(
            bloch_vector(spec_fig4, k, t),
            relaxation_closed_form(c_plus, c_minus, energy, t),
            atol=1e-12,
        )


def test_real_regime_periodicity(rng, spec_fig3a, spec_fig3b):
    for spec in (spec_fig3a, spec_fig3b):
        for _ in range(10):
            k = float(rng.uniform(-PI, PI))
            t = float(rng.uniform(0, 5))
            t0 = period(spec, k)
            np.testing.assert_allclose(
                bloch_vector(spec, k, t + t0), bloch_vector(spec, k, t), atol=1e-10
            )


def test_broken_regime_relaxes_to_north_pole(spec_fig4):
    ks = np.linspace(-PI, PI, 128, endpoint=False)
    field = bloch_field(spec_fig4, n_k=128, ts=np.array([12.0]))
    assert not field.real_regime.any()
    assert np.all(np.abs(field.n[:, 0, 2] - 1.0) < 0.05)
    # and the trend is monotone towards the pole at late times
    late = bloch_field(spec_fig4, n_k=128, ts=np.array([20.0]))
    assert np.all(late.n[:, 0, 2] >= field.n[:, 0, 2] - 1e-9)
    assert not field.eigenstate_initial  # (|H>+|V>)/sqrt(2) is not an eigenstate
    assert initial_state_residual(spec_fig4) > 1e-3


def test_density_matrix_properties(rng):
    for _ in range(15):
        spec = random_spec(rng)
        k = float(rng.uniform(-PI, PI))
        t = float(rng.uniform(0, 8))
        try:
            rho = density_matrix(spec, k, t)
        except Exception:
            continue
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)


def test_density_matrix_hermitian_limit(rng):
    spec = QuenchSpec(
        initial=CoinParams(np.pi / 4, -np.pi / 2, 0.0),
        final=CoinParams(-np.pi / 2, np.pi / 3, 0.0),
    )
    for _ in range(10):
        k = float(rng.uniform(-PI, PI))
        t = float(rng.uniform(0, 6))
        rho = density_matrix(spec, k, t)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-10)
        # equals the normalized projector onto the evolved state
        system = walk_eigensystem(spec.final, k)
        (c_plus,), (c_minus,), _ = overlap_grid(spec, np.array([k]))
        energy, _ = quasienergies(spec.final, k)
        psi_t = c_plus * np.exp(-1j * energy * t) * system.right[0] + \
            c_minus * np.exp(1j * energy * t) * system.right[1]
        proj = np.outer(psi_t, psi_t.conj()) / np.linalg.norm(psi_t) ** 2
        np.testing.assert_allclose(rho, proj, atol=1e-10)


def test_density_path_equals_closed_forms(rng):
    """Two independent code paths: explicit rho(k,t) vs the coefficient forms."""
    for _ in range(25):
        spec = random_spec(rng)
        k = float(rng.uniform(-PI, PI))
        t = float(rng.uniform(0, 10))
        try:
            rho = density_matrix(spec, k, t)
            system = walk_eigensystem(spec.final, k)
        except Exception:
            continue
        np.testing.assert_allclose(
            bloch_from_density(rho, system), bloch_vector(spec, k, t), atol=1e-10
        )


def test_tau_basis_su2(rng):
    spec = random_spec(rng)
    k = float(rng.uniform(-PI, PI))
    system = walk_eigensystem(spec.final, k)
    taus = tau_basis(system)
    np.testing.assert_allclose(taus[0], np.eye(2), atol=1e-12)
    # su(2) commutators [tau_1, tau_2] = 2i tau_3 and cyclic
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        comm = taus[a] @ taus[b] - taus[b] @ taus[a]
        np.testing.assert_allclose(comm, 2j * taus[c], atol=1e-12)


def test_scale_invariance_of_dynamics(rng, spec_fig3b):
    """Rescaling the initial spinor changes nothing downstream, at any norm."""
    base_state = initial_spinors(spec_fig3b, np.array([0.0]))[0]
    points = [(float(rng.uniform(-PI, PI)), float(rng.uniform(0, 8))) for _ in range(10)]
    base_fps = find_fixed_points(spec_fig3b)
    for scale in (0.17 - 0.83j, 1e-200, 1e200):
        scaled = QuenchSpec(
            initial=spec_fig3b.initial,
            final=spec_fig3b.final,
            initial_state=tuple(scale * base_state),
        )
        for k, t in points:
            np.testing.assert_allclose(
                bloch_vector(scaled, k, t), bloch_vector(spec_fig3b, k, t), atol=1e-10
            )
        scaled_fps = find_fixed_points(scaled)
        np.testing.assert_allclose(
            [fp.k for fp in scaled_fps], [fp.k for fp in base_fps], atol=1e-9
        )


# ---------------------------------------------------------------------------
# fixed points


def modular_match(found, expected, tol):
    """Each expected momentum is hit by exactly one found one (mod 2 pi)."""
    assert len(found) == len(expected)
    for want in expected:
        dist = np.abs((np.asarray(found) - want + PI) % (2 * PI) - PI)
        assert dist.min() < tol, f"no fixed point near {want / PI:+.4f} pi"


def test_fixed_points_fig3a(spec_fig3a):
    fps = find_fixed_points(spec_fig3a)
    modular_match([fp.k for fp in fps], [-PI, -PI / 2, 0.0, PI / 2], 1e-6 * PI)
    kinds = {round(fp.k / PI, 3): fp.kind for fp in fps}
    # frozen regression of the derived kinds
    assert kinds[round(-1.0, 3)] is FixedPointKind.C_PLUS_ZERO
    assert kinds[0.0] is FixedPointKind.C_PLUS_ZERO
    assert kinds[-0.5] is FixedPointKind.C_MINUS_ZERO
    assert kinds[0.5] is FixedPointKind.C_MINUS_ZERO
    assert all(fp.residual < 1e-10 for fp in fps)


def test_fixed_points_fig3b_pi_consistent(spec_fig3b):
    """Zeros come in exact pi-shifted pairs; regression of the derived values.

    The operator depends on k only through 2k, so |c(k + pi)| = |c(k)|; the
    third value is therefore -0.4399 pi + pi = +0.5601 pi.
    """
    fps = find_fixed_points(spec_fig3b)
    modular_match(
        [fp.k for fp in fps],
        np.array([-0.43987, -0.00990, 0.56013, 0.99010]) * PI,
        5e-4 * PI,
    )
    kinds = [fp.kind for fp in sorted(fps, key=lambda f: f.k)]
    assert kinds == [
        FixedPointKind.C_MINUS_ZERO,
        FixedPointKind.C_PLUS_ZERO,
        FixedPointKind.C_MINUS_ZERO,
        FixedPointKind.C_PLUS_ZERO,
    ]


def test_fixed_points_fig6_pi_consistent(spec_fig6):
    """All four zeros are of one kind; pairs are exactly pi-shifted."""
    fps = find_fixed_points(spec_fig6)
    modular_match(
        [fp.k for fp in fps],
        np.array([-0.50695, -0.03189, 0.49305, 0.96811]) * PI,
        5e-4 * PI,
    )
    assert {fp.kind for fp in fps} == {FixedPointKind.C_PLUS_ZERO}


def test_fixed_point_pairs_are_pi_shifted(spec_fig3b, spec_fig6):
    """U_k depends on k only through 2k, so every zero has a pi-shifted twin."""
    for spec in (spec_fig3b, spec_fig6):
        fps = find_fixed_points(spec)
        for fp in fps:
            twin = (fp.k + PI + PI) % (2 * PI) - PI
            dists = [
                abs((other.k - twin + PI) % (2 * PI) - PI)
                for other in fps
                if other.kind is fp.kind
            ]
            assert min(dists) < 1e-9


def test_fixed_points_sit_at_poles(spec_fig3a, spec_fig3b):
    for spec in (spec_fig3a, spec_fig3b):
        for fp in find_fixed_points(spec):
            pole = 1.0 if fp.kind is FixedPointKind.C_MINUS_ZERO else -1.0
            t0 = period(spec, fp.k)
            for t in np.linspace(0, t0, 13):
                n = bloch_vector(spec, fp.k, float(t))
                assert np.abs(n - [0, 0, pole]).max() < 1e-6


def test_kind_alternation_matches_winding_change(spec_fig3a, spec_fig3b, spec_fig6):
    from ptwalk.spectrum import winding_number

    for spec in (spec_fig3a, spec_fig3b, spec_fig6):
        fps = find_fixed_points(spec)
        kinds = [fp.kind for fp in fps]
        nu_i = winding_number(spec.initial)
        nu_f = winding_number(spec.final)
        if nu_i != nu_f:
            assert all(a is not b for a, b in zip(kinds, kinds[1:] + kinds[:1]))
        else:
            assert len(set(kinds)) == 1


def test_no_fixed_points_for_broken_final(spec_fig4):
    assert find_fixed_points(spec_fig4) == []


def zone_distance(a, b):
    return abs((a - b + PI) % (2 * PI) - PI)


ANGLES = st.floats(-PI, PI)
LOSSES = st.one_of(st.just(0.0), st.floats(0.0, 0.6))


@st.composite
def quenches(draw):
    """Lossy or unitary quenches from the lower band or from an explicit state.

    Explicit states are drawn with a relative phase of i half the time: their
    Bloch vector then lies in the 2-3 plane, the family whose states meet
    lossy final eigenvectors on isolated momenta.
    """
    final = CoinParams(draw(ANGLES), draw(ANGLES), draw(LOSSES))
    if draw(st.booleans()):
        initial = CoinParams(draw(ANGLES), draw(ANGLES), draw(LOSSES))
        assume(pt_classify(initial) is PTPhase.UNBROKEN)
        return QuenchSpec(initial=initial, final=final)
    mix = draw(ANGLES)
    phase = draw(st.one_of(st.just(1j), ANGLES.map(lambda phi: np.exp(1j * phi))))
    state = (complex(np.cos(mix)), complex(phase * np.sin(mix)))
    return QuenchSpec(initial=final, final=final, initial_state=state)


def clear_of_band_touching(spec, k):
    """1 - d0^2 >= 1e-6 at k for the final operator, and for the initial one
    under an eigenstate start.

    Closer to a band touching the eigenvectors lose digits, so |c|^2 at a
    root is only held to ``FIXED_POINT_RESIDUAL``, and the grid scan's golden
    section cannot follow the dip of |c| there.
    """
    operators = [spec.final] + ([spec.initial] if spec.initial_state is None else [])
    d0 = np.array([d_coefficients(params, k)[0].real for params in operators])
    return bool(np.all(1 - d0 * d0 >= 1e-6))


def depth_of_minimum(spec, fp):
    """|c| / |dc/dk| after three Newton steps on c from a scan point.

    About 1e-16 at a zero of c; at a near miss, where |c| has a small
    nonzero minimum, the depth of that minimum in units of k.
    """
    band = 0 if fp.kind is FixedPointKind.C_PLUS_ZERO else 1
    k, h = fp.k, 1e-7
    for _ in range(3):
        c, ahead, behind = overlap_grid(spec, np.array([k, k + h, k - h]))[band]
        if c == 0:
            return 0.0
        if ahead == behind:
            return np.inf
        ratio = c * 2 * h / (ahead - behind)
        k -= ratio.real
    return abs(ratio)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(quenches())
def test_fixed_points_are_exact_pi_closed_and_cover_the_grid_search(spec):
    """Every point is a zero, its k + pi twin is there, and the scan finds no other.

    A scan point is owed only where c has a zero there: the scan's 1e-10 cut
    also passes near misses, such as the 2.9e-21 minimum of |c_+|^2 from the
    state (1, 1e-10 e^i) into (1, 0, p = 0), where c never vanishes.
    """
    try:
        expected = grid_fixed_points(spec, 512)
    except WalkError:
        assume(False)  # the scan grid sits on a band touching
    cp, cm, _ = overlap_grid(spec, np.linspace(-PI, PI, 512, endpoint=False))
    # Operators that commute at every momentum pin the whole zone: no isolated point.
    assume(np.minimum(np.abs(cp), np.abs(cm)).max() > 1e-6)
    fps = find_fixed_points(spec)
    for fp in fps:
        (c_plus,), (c_minus,), _ = overlap_grid(spec, np.array([fp.k]))
        c = c_plus if fp.kind is FixedPointKind.C_PLUS_ZERO else c_minus
        bound = 1e-20 if clear_of_band_touching(spec, fp.k) else FIXED_POINT_RESIDUAL
        assert abs(c) ** 2 <= bound, (spec, fp)
        twins = [zone_distance(o.k, fp.k + PI) for o in fps if o.kind is fp.kind]
        assert min(twins) <= 1e-12, (spec, fp)
        # A zero that several candidates polish to is reported once.
        others = [zone_distance(o.k, fp.k) for o in fps if o is not fp and o.kind is fp.kind]
        assert min(others, default=PI) >= 1e-8, (spec, fp)
    for want in expected:
        if clear_of_band_touching(spec, want.k) and depth_of_minimum(spec, want) <= 1e-13:
            near = [zone_distance(fp.k, want.k) for fp in fps if fp.kind is want.kind]
            assert near and min(near) < 1e-6, (spec, want, fps)


NEAR_COMMUTING = QuenchSpec(
    initial=CoinParams(2.4022143578701058, 2.6622718067689037, 0.22109003065873159),
    final=CoinParams(-0.90144427841236041, -0.31764905069588423, 0.22109003065873159),
)


def test_a_root_shared_by_the_partner_band_is_not_a_fixed_point():
    """|h_a x h_f| is about 1e-5 near k = 0, so g has two close real roots.

    At k = +2.46e-6 the start is the shared eigenvector; at k = -2.46e-6 it is
    the upper initial band, yet |c_+|^2 = 9.3e-11 there passes the residual
    cut.  Only the first is a fixed point.
    """
    fps = find_fixed_points(NEAR_COMMUTING)
    assert len(fps) == 8
    assert all(zone_distance(fp.k, -2.4627e-6) > 1e-6 for fp in fps)
    near_zero = [fp for fp in fps if abs(fp.k) < 1e-5]
    assert len(near_zero) == 1 and near_zero[0].k == pytest.approx(2.4627e-6, abs=1e-9)
    (c_plus,), _, _ = overlap_grid(NEAR_COMMUTING, np.array([-2.4627e-6]))
    assert abs(c_plus) ** 2 < FIXED_POINT_RESIDUAL


TURNING_TOGETHER = QuenchSpec(initial=CoinParams(0.0, PI / 4), final=CoinParams(PI / 2, 0.0))
# |c_+|^2 vanishes to fourth order at k = +-pi/2: g = w.w has a fourfold root there.
LOSSY_DOUBLE_ZERO = QuenchSpec(
    initial=CoinParams(0.0, PI / 4, 0.3), final=CoinParams(-PI / 2, PI / 4, 0.3)
)


def test_a_third_order_fixed_point_is_found():
    """h_a = (0, 1, -sin 2k) / sqrt(2) and h_f = (0, cos 2k, -sin 2k) turn together
    at k = 0, so w = h_a x h_f and c_+ have third-order zeros there.

    g = w.w then has a sixfold root, which ``np.roots`` splits by about
    eps^(1/6); the merged split roots must reach it to rounding, with its
    kind, once, and with no near miss beside it, as the simple zeros of c_-
    at k = +-pi/2 are reached.
    """
    fps = find_fixed_points(TURNING_TOGETHER)
    want = [(-PI, FixedPointKind.C_PLUS_ZERO), (-PI / 2, FixedPointKind.C_MINUS_ZERO),
            (0.0, FixedPointKind.C_PLUS_ZERO), (PI / 2, FixedPointKind.C_MINUS_ZERO)]
    assert len(fps) == len(want), fps
    for fp, (k, kind) in zip(fps, want):
        assert abs(fp.k - k) <= 1e-12 and fp.kind is kind, (fp, k)


def test_a_third_order_fixed_point_bounds_unit_chern_submanifolds():
    """Four points give four submanifolds, with no C = 0 sliver beside k = 0 or pi."""
    subs = build_submanifolds(find_fixed_points(TURNING_TOGETHER))
    results = chern_numbers(TURNING_TOGETHER, subs)
    assert [r.rounded for r, _ in results] == [s.rounded for _, s in results] == [1, -1, 1, -1]


def test_a_lossy_double_zero_is_found():
    """The fourfold root of g at k = +-pi/2 is one c_+ zero, beside the simple ones."""
    fps = find_fixed_points(LOSSY_DOUBLE_ZERO)
    assert len(fps) == 6
    for k in (-PI / 2, PI / 2):
        hits = [fp for fp in fps if zone_distance(fp.k, k) <= 1e-9]
        assert len(hits) == 1 and hits[0].kind is FixedPointKind.C_PLUS_ZERO, (k, fps)


@pytest.mark.parametrize("final", [CoinParams(1.0, PI / 3), CoinParams(PI / 3, 1.0)])
def test_a_root_of_g_on_a_band_touching_of_the_start_raises(final):
    """The lower bands of CoinParams(-pi/4, -pi/4) touch at k = +-pi/2, where
    h_a = 0, so g has a root there for any final operator.  The start is
    undefined there, and the candidate step says so before the polish, whose
    steps on the double zero of W at the touching would decide by rounding."""
    with pytest.raises(ExceptionalPoint):
        find_fixed_points(QuenchSpec(initial=CoinParams(-PI / 4, -PI / 4), final=final))


def test_a_grid_and_the_roots_of_g_agree_on_an_undefined_start():
    """The initial bands are 2 sin(2.6e-8) apart at k = 0 and -pi/2, which the
    eigensolver's gap check passes, and the roots of g sit there.  The fixed
    points call the start undefined; a grid through those momenta says so too."""
    spec = QuenchSpec(initial=CoinParams(0.0, 2.5673154940413493e-08), final=CoinParams(0.0, 1.0))
    ks = np.linspace(-PI, PI, 512, endpoint=False)
    walk_eigensystem(spec.initial, ks)
    for run in (find_fixed_points, lambda s: overlap_grid(s, ks), lambda s: bloch_field(s, 8)):
        with pytest.raises(ExceptionalPoint, match="initial bands touch"):
            run(spec)
    cp, _, _ = overlap_grid(spec, ks[1:128])  # clear of k = -pi and -pi/2
    assert np.isfinite(cp).all()


# Lossy quenches (initial theta1, theta2; p; final theta1; theta2_f at a 4 -> 8 pair
# creation; the side of it with 8 points), bisected to the last bit of theta2_f.
PAIR_CREATIONS = [
    (1.9348490455536158, 0.0962933399642707, 0.42200116949815214, -1.3458496214483335,
     -1.8718367738677872, -1),
    (-0.7328149346083426, -0.5750798109183086, 0.12157228095266258, -2.857120220482243,
     -2.950787801394588, 1),
    (2.979399722353973, 2.498682104261955, 0.2739790208900568, 2.1628673977784247,
     -1.0475869395229114, 1),
    (-0.0438376661931823, 1.1101719393600389, 0.2569618657339113, -2.7595579408950774,
     -1.167208736020302, 1),
]


@pytest.mark.parametrize("theta1, theta2, p, theta1_f, theta2_f, side", PAIR_CREATIONS)
def test_a_freshly_created_pair_keeps_both_points(theta1, theta2, p, theta1_f, theta2_f, side):
    """Off the transition by 1e-10 to 1e-3 in theta2_f the two new zeros lie
    about 1e-5 to 1e-1 apart in k: as simple roots they must not merge.  A
    merge radius that does not shrink with the root count, such as 1e-2, loses
    them up to offsets of 1e-6 or 1e-5."""
    for offset in (1e-10, 1e-8, 1e-6, 1e-5, 1e-4, 1e-3):
        final = CoinParams(theta1_f, theta2_f + side * offset, p)
        fps = find_fixed_points(QuenchSpec(initial=CoinParams(theta1, theta2, p), final=final))
        assert len(fps) == 8, (offset, fps)


def special_angle_quenches(p):
    """A slice of the special-angle grids: operators with theta1 in {0, pi/2,
    pi/3} and theta2 in {0, pi/4, pi/3} at loss p, each final one reached from
    every PT-unbroken one and from two explicit states.

    It holds the families where multiple zeros of c occur: the third-order
    zeros from (0, pi/4) into (pi/2, 0), the double zeros from (pi/2, pi/4)
    into (0, pi/4) at p = 0.3, and those from (0, pi/3) into (pi/3, pi/3).
    """
    ops = [CoinParams(a, b, p) for a in (0.0, PI / 2, PI / 3) for b in (0.0, PI / 4, PI / 3)]
    for final in ops:
        for initial in ops:
            if pt_classify(initial) is PTPhase.UNBROKEN:
                yield QuenchSpec(initial=initial, final=final)
        for state in ((1.0, 1j), (np.cos(1.0), np.exp(1j * PI / 3) * np.sin(1.0))):
            yield QuenchSpec(initial=final, final=final, initial_state=state)


GRID_MOMENTA = np.arange(-64, 64) * PI / 64


def grid_zeros(spec):
    """(k, kind) of every exact zero of c on the momenta k = m pi / 64.

    A zero has a real E, 1 - d0^2 >= 1e-6 in the final operator, |c|^2 <=
    1e-28 at k and |c|^2 > 1e-24 at k + 1e-3, so that c is not zero to
    rounding over a whole stretch of k.
    """
    cp, cm, final = overlap_grid(spec, np.concatenate([GRID_MOMENTA, GRID_MOMENTA + 1e-3]))
    d0 = d_coefficients(spec.final, GRID_MOMENTA)[:, 0].real
    n = len(GRID_MOMENTA)
    clear = (final.quasienergies[:n, 0].imag == 0) & (1 - d0 * d0 >= 1e-6)
    zeros = []
    for kind, c in ((FixedPointKind.C_PLUS_ZERO, cp), (FixedPointKind.C_MINUS_ZERO, cm)):
        weight = np.abs(c) ** 2
        hit = clear & (weight[:n] <= 1e-28) & (weight[n:] > 1e-24)
        zeros += [(k, kind) for k in GRID_MOMENTA[hit]]
    return zeros


@pytest.mark.parametrize("p", [0.0, 0.3])
def test_every_exact_zero_on_the_special_angle_grid_is_found(p):
    """Every grid zero is a reported point to 1e-9 with its kind, and every
    other point clear of a band touching is a zero of c (Newton depth at most
    1e-13), not a near miss beside a multiple zero."""
    count = 0
    for spec in special_angle_quenches(p):
        try:
            fps = find_fixed_points(spec)
            zeros = grid_zeros(spec)
        except WalkError:
            continue  # a band touching of the start on the grid or at a root
        count += len(zeros)
        for k, kind in zeros:
            assert any(zone_distance(fp.k, k) <= 1e-9 and fp.kind is kind for fp in fps), (
                spec, k, kind, fps)
        for fp in fps:
            on_grid = any(zone_distance(fp.k, k) <= 1e-9 and fp.kind is kind for k, kind in zeros)
            if not on_grid and clear_of_band_touching(spec, fp.k):
                assert depth_of_minimum(spec, fp) <= 1e-13, (spec, fp)
    assert count >= 20  # 196 at p = 0, 28 at p = 0.3


NEAR_EXCEPTIONAL = QuenchSpec(
    initial=CoinParams(1.9836359223531348, -1.2601778077210952, 0.32351857298293757),
    final=CoinParams(1.4565490957949168, -1.4366393689142958, 0.32351857298293757),
)


def test_a_fixed_point_next_to_a_band_touching_is_reported():
    """|c_-|^2 drops to ~4e-20 inside a dip about 1e-7 wide, where 1 - d0^2 = 6.6e-8.

    A grid scan misses it even at 8192 points.
    """
    fps = find_fixed_points(NEAR_EXCEPTIONAL)
    hits = [fp for fp in fps if zone_distance(fp.k, -2.74470) < 1e-5]
    assert len(hits) == 1
    fp = hits[0]
    assert fp.kind is FixedPointKind.C_MINUS_ZERO and fp.residual <= 1e-19
    d0 = d_coefficients(NEAR_EXCEPTIONAL.final, fp.k)[0].real
    assert 1 - d0 * d0 < 1e-7
    for step in (-1e-7, 1e-7):
        _, (c_minus,), _ = overlap_grid(NEAR_EXCEPTIONAL, np.array([fp.k + step]))
        assert abs(c_minus) ** 2 > 1e-4
    assert any(zone_distance(o.k, fp.k + PI) < 1e-12 for o in fps if o is not fp)


# The 8-submanifold quench of the CI smoke step.
CHERN8 = QuenchSpec(
    initial=CoinParams(3.0164423629324615, -0.47799822555225857, 0.18581753724986383),
    final=CoinParams(2.3064608091792387, 0.015475035026474515, 0.18581753724986383),
)


def polish_test_quenches():
    """The presets, the CHERN8 quench, random eigenstate and explicit-state
    starts, lossless (beta = 0) and lossy, from a fixed seed, and the two
    multiple-zero quenches, whose merged roots sit where a step is skipped."""
    specs = [build_spec(preset) for preset in PRESETS.values()] + [CHERN8]
    rng = np.random.default_rng(21)
    while len(specs) < 49:
        p = 0.0 if len(specs) % 2 else float(rng.uniform(0.0, 0.6))
        final = CoinParams(*rng.uniform(-PI, PI, 2), p)
        if len(specs) % 3:
            initial = CoinParams(*rng.uniform(-PI, PI, 2), p)
            if pt_classify(initial) is PTPhase.UNBROKEN:
                specs.append(QuenchSpec(initial=initial, final=final))
        else:
            mix, phi = rng.uniform(-PI, PI, 2)
            state = (complex(np.cos(mix)), complex(np.exp(1j * phi) * np.sin(mix)))
            specs.append(QuenchSpec(initial=final, final=final, initial_state=state))
    return specs + [TURNING_TOGETHER, LOSSY_DOUBLE_ZERO]


def test_the_stacked_polish_is_the_np_cross_polish_bit_for_bit(monkeypatch):
    """``_polish_on_start`` returns the angles of the five-``np.cross`` oracle
    in every bit: on the candidates ``find_fixed_points`` hands it, on their
    first one alone, and on random batches of 8 and of 1 angle (numpy's
    complex loops may round a one-element batch differently)."""
    polish = ptwalk.quench._polish_on_start
    calls = []

    def spy(h_coeffs, sign, theta):
        calls.append((h_coeffs, sign, theta))
        return polish(h_coeffs, sign, theta)

    monkeypatch.setattr(ptwalk.quench, "_polish_on_start", spy)
    for spec in polish_test_quenches():
        try:
            find_fixed_points(spec)
        except WalkError:
            pass
    assert len(calls) >= 45
    rng = np.random.default_rng(22)
    for h_coeffs, sign, theta in calls:
        for batch in (theta, theta[:1], rng.uniform(-PI, PI, 8), rng.uniform(-PI, PI, 1)):
            want = polish_by_np_cross(h_coeffs, sign, batch)
            assert polish(h_coeffs, sign, batch).tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(1, 3), (16, 3), (3, 1, 3), (3, 8, 3)])
def test_the_cross_helper_is_np_cross_bit_for_bit(shape):
    rng = np.random.default_rng(23)
    for _ in range(20):
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        a.real[rng.random(shape) < 0.2] = -0.0
        a.imag[rng.random(shape) < 0.2] = 0.0
        b.real[rng.random(shape) < 0.2] = 0.0
        b.imag[rng.random(shape) < 0.2] = -0.0
        for x, y in ((a, b), (a, b.real), (b.real, a)):
            want = np.cross(x, y)
            got = _cross(x, y)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_initial_spinors_are_the_minus_band_kets_of_walk_eigensystem(rng):
    for size in (1, 1, 2, 7, 64, 300):
        spec = QuenchSpec(initial=random_coin_params(rng, p_max=0.6), final=CoinParams(0.3, 0.2))
        ks = rng.uniform(-PI, PI, size)
        want = walk_eigensystem(spec.initial, ks).right[:, 1, :]
        assert initial_spinors(spec, ks).tobytes() == want.tobytes()


@pytest.mark.parametrize("k, error", [(0.0, ExceptionalPoint), (np.nan, ValueError),
                                      (np.inf, ValueError)])
def test_initial_spinors_raise_what_walk_eigensystem_raises(k, error):
    spec = QuenchSpec(initial=CoinParams(0.0, 0.0), final=CoinParams(0.3, 0.2))  # d0 = cos 2k
    ks = np.array([0.5, k])
    with pytest.raises(error) as want:
        walk_eigensystem(spec.initial, ks)
    with pytest.raises(error) as got:
        initial_spinors(spec, ks)
    assert str(got.value) == str(want.value)


def test_overflowing_dressed_weights_raise(spec_fig4):
    """|ct_+|^2 overflows once Im(E) t passes ~355; no NaN row comes back."""
    from ptwalk.errors import SingularNormalization

    field = bloch_field(spec_fig4, n_k=8, ts=np.array([0.0, 3000.0]))
    assert np.isfinite(field.n).all()
    with pytest.raises(SingularNormalization):
        bloch_field(spec_fig4, n_k=8, ts=np.array([0.0, 4000.0]))
    with pytest.raises(SingularNormalization):
        bloch_from_coefficients(np.zeros(3), np.zeros(3))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_dressing_raises_the_typed_error_and_warns_nothing(spec_fig4):
    """At t = 5e4 e^{Im(E) t} itself overflows, and 0 * inf is nan, before n0 is formed."""
    from ptwalk.errors import SingularNormalization

    with pytest.raises(SingularNormalization):
        bloch_field(spec_fig4, ts=np.linspace(0.0, 1e5, 3))


def test_oscillation_periods(spec_fig3a, spec_fig3b, spec_fig4, spec_fig6, rng):
    for spec in (spec_fig3a, spec_fig3b):
        for k in rng.uniform(-PI, PI, size=8):
            assert period(spec, float(k)) == pytest.approx(6.0, abs=1e-9)
    # broken bands: E is imaginary, so there is no period
    assert walk_eigensystem(spec_fig4.final, 0.3).quasienergies[0].imag > 0
    # curved bands: momentum-dependent period
    periods = [period(spec_fig6, float(k)) for k in np.linspace(0.1, 1.4, 7)]
    assert np.ptp(periods) > 0.5


def test_bloch_field_grid(spec_fig3b):
    ts = np.linspace(0.0, 6.0, 61)
    field = bloch_field(spec_fig3b, n_k=256, ts=ts)
    assert field.n.shape == (256, 61, 3)
    norms = np.linalg.norm(field.n, axis=-1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-10)
    assert field.real_regime.all()
    assert field.eigenstate_initial


@pytest.mark.parametrize(
    "t_max, n_k, message",
    [(-1, 16, "t_max must be >= 0"), (2, 0, "n_k must be >= 1"), (2, -2, "n_k must be >= 1")],
)
def test_bloch_field_rejects_bad_sizes_by_name(spec_fig3b, t_max, n_k, message):
    with pytest.raises(ValueError, match=message):
        bloch_field(spec_fig3b, n_k=n_k, t_max=t_max)


def test_a_quasienergy_is_exactly_real_or_clearly_complex():
    """Im E = 0.0 exactly wherever d0^2 <= 1 and |Im E| >= 2e-8 wherever d0^2 > 1.

    The smallest d0^2 - 1 above zero is a few ulps of 1, so the growing
    eigenvalue is at least 1 + sqrt of that; a real-regime test may therefore
    compare Im E with 0 exactly, with no tolerance.  Probed on the 50 doubles
    on each side of +1 and of -1 and on a fine grid over [-1, 1].
    """
    near = []
    for edge in (1.0, -1.0):
        for toward in (np.inf, -np.inf):
            d0 = edge
            for _ in range(50):
                d0 = np.nextafter(d0, toward)
                near.append(d0)
    d0 = np.concatenate([[1.0, -1.0], near, np.linspace(-1.0, 1.0, 100_001)])
    energy = _energy_plus_from_d0(d0)
    broken = d0 * d0 > 1.0
    assert broken.sum() == 100 and (~broken).sum() == len(d0) - 100
    assert np.all(energy[~broken].imag == 0.0)
    assert np.all(np.abs(energy[broken].imag) >= 2e-8)


def test_overlaps_raise_at_band_touching():
    from ptwalk.errors import ExceptionalPoint

    spec = QuenchSpec(
        initial=CoinParams(np.pi / 4, -np.pi / 2, 0.0),
        final=CoinParams(0.4, -0.4, 0.0),  # gap closes at k = 0
    )
    with pytest.raises(ExceptionalPoint):
        overlap_grid(spec, np.array([0.0]))


def test_lower_band_initial_requires_unbroken():
    alpha = CoinParams(0, 0, 0.36).alpha
    broken = CoinParams(-np.pi / 2, (np.pi - float(np.arccos(1 / alpha))) / 2, 0.36)
    with pytest.raises(ValueError):
        QuenchSpec(initial=broken, final=CoinParams(0.3, 0.4, 0.36))


@pytest.mark.parametrize("state", [(0, 0), (np.inf, 0), (np.nan, 1), (1.5e308 + 1.5e308j, 0)])
def test_an_explicit_state_needs_a_positive_finite_norm(state):
    with pytest.raises(ValueError, match="positive finite norm"):
        QuenchSpec(initial=CoinParams(0.3, 0.4), final=CoinParams(0.3, 0.4), initial_state=state)


ALPHA36 = CoinParams(0, 0, 0.36).alpha
# Explicit-state quenches at p = 0.36 whose final operator has d0 < -1
# sectors: everywhere (d0 = -alpha sin theta2 is flat), around k = +-pi/2,
# and a generic pair of angles.
BELOW_MINUS_ONE = [
    QuenchSpec(initial=final, final=final, initial_state=state)
    for final, state in (
        (CoinParams(PI / 2, (PI - float(np.arccos(1 / ALPHA36))) / 2, 0.36), (1, 0)),
        (CoinParams(0.3, 0.3, 0.36), (1 / np.sqrt(2), 1j / np.sqrt(2))),
        (CoinParams(1.4, 1.3, 0.36), (np.cos(0.4), np.exp(0.9j) * np.sin(0.4))),
    )
]


@pytest.mark.parametrize("spec", BELOW_MINUS_ONE, ids=["flat", "near-pi/2", "generic"])
def test_d0_below_minus_one_is_on_the_minus_pi_branch_on_every_path(spec):
    """Re E = -pi and Im E > 0 wherever d0 < -1, whichever path computes E.

    i log of the negative growing eigenvalue may land on +pi or -pi by the
    sign of a rounding zero; at integer t the two agree, but at non-integer t
    n1 and n2 move by O(1), so the texture must follow the one documented
    branch.
    """
    ks = np.linspace(-PI, PI, 256, endpoint=False)
    ts = np.linspace(0.0, 6.0, 61)
    d0 = d_coefficients(spec.final, ks)[:, 0].real
    below = d0 < -1
    assert below.sum() >= 8
    paths = {
        "quasienergies": np.array([quasienergies(spec.final, k)[0] for k in ks[below]]),
        "band_structure": band_structure(spec.final, ks).energies[below],
        "walk_eigensystem": walk_eigensystem(spec.final, ks).quasienergies[below, 0],
    }
    for name, energy in paths.items():
        assert np.all(energy.real == -PI), name
        assert np.all(energy.imag > 0), name

    field = bloch_field(spec, n_k=256, ts=ts)
    cp, cm, _ = overlap_grid(spec, ks)
    energy = _energy_plus_from_d0(d0)[:, None]
    want = bloch_from_coefficients(cp[:, None] * np.exp(-1j * energy * ts),
                                   cm[:, None] * np.exp(1j * energy * ts))
    np.testing.assert_allclose(field.n, want, rtol=0, atol=1e-13)
