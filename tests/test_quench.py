"""Quench dynamics: overlaps, Bloch vector, density matrix, fixed points."""

import numpy as np
import pytest

from ptwalk.errors import ImaginaryEnergy
from ptwalk.floquet import CoinParams
from ptwalk.quench import (
    FixedPointKind,
    QuenchSpec,
    bloch_field,
    bloch_from_coefficients,
    bloch_from_density,
    bloch_vector,
    density_matrix,
    final_eigensystem,
    find_fixed_points,
    initial_spinors,
    initial_state_residual,
    oscillation_period,
    overlaps,
    tau_basis,
)
from ptwalk.spectrum import quasienergies
from conftest import random_coin_params

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
            pair = overlaps(spec, float(k))
            assert pair.c_minus == pytest.approx(1.0, abs=1e-12)
            assert abs(pair.c_plus) < 1e-12


def test_overlap_completeness_reconstruction(rng):
    for _ in range(20):
        spec = random_spec(rng)
        k = float(rng.uniform(-PI, PI))
        try:
            pair = overlaps(spec, k)
            system = final_eigensystem(spec, k)
        except Exception:
            continue
        psi_i = initial_spinors(spec, np.array([k]))[0]
        rebuilt = pair.c_plus * system.psi_plus + pair.c_minus * system.psi_minus
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
        pair = overlaps(spec_fig3b, k)
        energy, _ = quasienergies(spec_fig3b.final, k)
        assert energy.imag == 0
        np.testing.assert_allclose(
            bloch_vector(spec_fig3b, k, t),
            oscillatory_closed_form(pair.c_plus, pair.c_minus, energy.real, t),
            atol=1e-12,
        )


def test_bloch_vector_matches_relaxation_form(rng, spec_fig4):
    for _ in range(20):
        k = float(rng.uniform(-PI, PI))
        t = float(rng.uniform(0, 6))
        pair = overlaps(spec_fig4, k)
        energy, _ = quasienergies(spec_fig4.final, k)
        assert energy.real == 0 and energy.imag > 0
        np.testing.assert_allclose(
            bloch_vector(spec_fig4, k, t),
            relaxation_closed_form(pair.c_plus, pair.c_minus, energy, t),
            atol=1e-12,
        )


def test_real_regime_periodicity(rng, spec_fig3a, spec_fig3b):
    for spec in (spec_fig3a, spec_fig3b):
        for _ in range(10):
            k = float(rng.uniform(-PI, PI))
            t = float(rng.uniform(0, 5))
            t0 = oscillation_period(spec, k)
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
        system = final_eigensystem(spec, k)
        pair = overlaps(spec, k)
        energy, _ = quasienergies(spec.final, k)
        psi_t = pair.c_plus * np.exp(-1j * energy * t) * system.psi_plus + \
            pair.c_minus * np.exp(1j * energy * t) * system.psi_minus
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
            system = final_eigensystem(spec, k)
        except Exception:
            continue
        np.testing.assert_allclose(
            bloch_from_density(rho, system), bloch_vector(spec, k, t), atol=1e-10
        )


def test_tau_basis_su2(rng):
    spec = random_spec(rng)
    k = float(rng.uniform(-PI, PI))
    system = final_eigensystem(spec, k)
    taus = tau_basis(system)
    np.testing.assert_allclose(taus[0], np.eye(2), atol=1e-12)
    # su(2) commutators [tau_1, tau_2] = 2i tau_3 and cyclic
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        comm = taus[a] @ taus[b] - taus[b] @ taus[a]
        np.testing.assert_allclose(comm, 2j * taus[c], atol=1e-12)


def test_scale_invariance_of_dynamics(rng, spec_fig3b):
    """Rescaling the initial spinor changes nothing downstream."""
    base_state = initial_spinors(spec_fig3b, np.array([0.0]))[0]
    scaled = QuenchSpec(
        initial=spec_fig3b.initial,
        final=spec_fig3b.final,
        initial_state=tuple((0.17 - 0.83j) * base_state),
    )
    for _ in range(10):
        k = float(rng.uniform(-PI, PI))
        t = float(rng.uniform(0, 8))
        np.testing.assert_allclose(
            bloch_vector(scaled, k, t), bloch_vector(spec_fig3b, k, t), atol=1e-10
        )
    base_fps = find_fixed_points(spec_fig3b, 256)
    scaled_fps = find_fixed_points(scaled, 256)
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
            t0 = oscillation_period(spec, fp.k)
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
    assert find_fixed_points(spec_fig4, 256) == []


def test_fixed_point_grid_below_64_is_rejected(spec_fig3b):
    # fig3b has 4 fixed points; grids of up to 16 points find 2 of them.
    for n_k in (1, 8, 16, 63):
        with pytest.raises(ValueError):
            find_fixed_points(spec_fig3b, n_k)
    assert len(find_fixed_points(spec_fig3b, 64)) == 4


def test_overflowing_dressed_weights_raise(spec_fig4):
    """|ct_+|^2 overflows once Im(E) t passes ~355; no NaN row comes back."""
    from ptwalk.errors import SingularNormalization

    field = bloch_field(spec_fig4, n_k=8, ts=np.array([0.0, 3000.0]))
    assert np.isfinite(field.n).all()
    with pytest.raises(SingularNormalization):
        bloch_field(spec_fig4, n_k=8, ts=np.array([0.0, 4000.0]))
    with pytest.raises(SingularNormalization):
        bloch_from_coefficients(np.zeros(3), np.zeros(3))


def test_oscillation_periods(spec_fig3a, spec_fig3b, spec_fig4, spec_fig6, rng):
    for spec in (spec_fig3a, spec_fig3b):
        for k in rng.uniform(-PI, PI, size=8):
            assert oscillation_period(spec, float(k)) == pytest.approx(6.0, abs=1e-9)
    with pytest.raises(ImaginaryEnergy):
        oscillation_period(spec_fig4, 0.3)
    # curved bands: momentum-dependent period
    periods = [oscillation_period(spec_fig6, float(k)) for k in np.linspace(0.1, 1.4, 7)]
    assert np.ptp(periods) > 0.5


def test_bloch_field_grid(spec_fig3b):
    ts = np.linspace(0.0, 6.0, 61)
    field = bloch_field(spec_fig3b, n_k=256, ts=ts)
    assert field.n.shape == (256, 61, 3)
    norms = np.linalg.norm(field.n, axis=-1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-10)
    assert field.real_regime.all()
    assert field.eigenstate_initial


def test_overlaps_raise_at_band_touching():
    from ptwalk.errors import ExceptionalPoint

    spec = QuenchSpec(
        initial=CoinParams(np.pi / 4, -np.pi / 2, 0.0),
        final=CoinParams(0.4, -0.4, 0.0),  # gap closes at k = 0
    )
    with pytest.raises(ExceptionalPoint):
        overlaps(spec, 0.0)


def test_lower_band_initial_requires_unbroken():
    alpha = CoinParams(0, 0, 0.36).alpha
    broken = CoinParams(-np.pi / 2, (np.pi - float(np.arccos(1 / alpha))) / 2, 0.36)
    with pytest.raises(ValueError):
        QuenchSpec(initial=broken, final=CoinParams(0.3, 0.4, 0.36))
