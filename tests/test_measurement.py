"""Measurement emulation and the probability-only reconstruction pipeline."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from ptwalk import measurement
from ptwalk.core import KET_D, KET_L, PAULI, pauli_assemble
from ptwalk.errors import ExceptionalPoint, SingularNormalization, WalkError
from ptwalk.floquet import CoinParams, momentum_operator_closed
from ptwalk.measurement import (
    SiteProbabilities,
    _frame_map,
    _intensity_sums,
    _momentum_transform,
    _stokes_by_offset,
    _stokes_frame,
    onsite_probabilities,
    pair_intensities,
    reconstruct_bloch_field,
    sample_shot_noise,
)
from eig_oracle import eig_biorthogonal
from measurement_oracle import (
    MatrixElementTable,
    all_pair_probabilities,
    assemble_add_at,
    assemble_einsum,
    assemble_hermitian_density,
    bloch_field_per_step,
    bloch_from_density,
    counted,
    diagonal_sums_add_at,
    fourier,
    intensity_planes,
    interference_probabilities,
    matrix_elements_direct,
    matrix_elements_from_pairs,
    pair_intensities_matmul,
    phase_matrix_transform,
    reconstruct_matrix_elements,
    stokes_add_at,
    to_nonhermitian,
)
from ptwalk.presets import PRESETS, build_spec
from ptwalk.quench import (
    EIGENSTATE_TOL,
    QuenchSpec,
    bloch_field,
    initial_spinors,
    initial_state_residual,
)
from ptwalk.spectrum import walk_eigensystem
from ptwalk.walksim import PositionState, evolve


def random_two_site_state(rng, scale=0.5):
    """Random two-site state with total flux <= 1 (a physical decayed state)."""
    amps = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return PositionState(x_min=0, amplitudes=scale * amps / np.linalg.norm(amps))


def test_onsite_probability_basics():
    state = PositionState(x_min=0, amplitudes=[[1, 0]])
    probs = onsite_probabilities(state).probs[0]
    np.testing.assert_allclose(probs, [1, 0, 0.5, 0.5], atol=1e-15)


def test_onsite_circular_component(rng):
    # (|H> + i|V>)/sqrt(2) is orthogonal to |L> = (|H> - i|V>)/sqrt(2)
    state = PositionState(x_min=0, amplitudes=[[1 / np.sqrt(2), 1j / np.sqrt(2)]])
    probs = onsite_probabilities(state).probs[0]
    psi = state.amplitudes[0]
    np.testing.assert_allclose(
        probs,
        [0.5, 0.5, abs(np.vdot(KET_L, psi)) ** 2, abs(np.vdot(KET_D, psi)) ** 2],
        atol=1e-15,
    )
    assert probs[2] == pytest.approx(0.0, abs=1e-15)


def test_onsite_diagonal_identities(rng):
    for _ in range(50):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        state = PositionState(x_min=3, amplitudes=[psi * 0.6])
        ph, pv, pl, pd = onsite_probabilities(state).probs[0]
        v = psi * 0.6
        np.testing.assert_allclose(ph + pv, np.vdot(v, v).real, atol=1e-12)
        np.testing.assert_allclose(2 * pd - ph - pv, np.vdot(v, PAULI[1] @ v).real, atol=1e-12)
        np.testing.assert_allclose(-2 * pl + ph + pv, np.vdot(v, PAULI[2] @ v).real, atol=1e-12)
        np.testing.assert_allclose(ph - pv, np.vdot(v, PAULI[3] @ v).real, atol=1e-12)


def test_interference_single_amplitude():
    state = PositionState(x_min=0, amplitudes=[[1, 0], [0, 0]])
    pair = interference_probabilities(state, 0, 1)
    # phi_1 = (1, 0): balanced L and D projections
    assert pair.p_l[0] == pytest.approx(0.5, abs=1e-15)
    assert pair.p_d[0] == pytest.approx(0.5, abs=1e-15)
    # phi_2, phi_3 vanish; phi_4 = (1, 0) again
    assert pair.p_l[1] == pair.p_d[1] == 0
    assert pair.p_l[2] == pair.p_d[2] == 0
    assert pair.p_d[3] == pytest.approx(0.5, abs=1e-15)


def test_interference_equal_amplitudes_direct_oracle(rng):
    state = PositionState(
        x_min=0, amplitudes=[[1 / np.sqrt(2), 0], [1 / np.sqrt(2), 0]]
    )
    pair = interference_probabilities(state, 0, 1)
    phi1 = np.array([1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert pair.p_d[0] == pytest.approx(abs(np.vdot(KET_D, phi1)) ** 2, abs=1e-15)
    assert pair.p_d[0] == pytest.approx(1.0, abs=1e-15)
    assert pair.p_l[0] == pytest.approx(0.5, abs=1e-15)


def test_interference_requires_distinct_sites():
    state = PositionState(x_min=0, amplitudes=[[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        interference_probabilities(state, 1, 1)


def test_eight_identities_random_states(rng):
    """Reconstructed Re/Im of every matrix element, 1000 random two-site states."""
    worst = 0.0
    for _ in range(1000):
        state = random_two_site_state(rng)
        table = reconstruct_matrix_elements(
            onsite_probabilities(state), pair_intensities(state)
        )
        direct = matrix_elements_direct(state)
        worst = max(worst, np.abs(table.table - direct.table).max())
    assert worst < 1e-12


def test_zero_state_zero_table():
    state = PositionState(x_min=-1, amplitudes=np.zeros((3, 2)))
    table = reconstruct_matrix_elements(
        onsite_probabilities(state), pair_intensities(state)
    )
    np.testing.assert_array_equal(table.table, 0)


def test_table_hermitian_symmetry(rng):
    state = random_two_site_state(rng)
    table = reconstruct_matrix_elements(
        onsite_probabilities(state), pair_intensities(state)
    ).table
    for j in (0, 1, 3):
        np.testing.assert_allclose(table[..., j], table[..., j].conj().T, atol=1e-12)
    # sigma_2 entry obeys the same adjoint relation (sigma_2 is Hermitian)
    np.testing.assert_allclose(table[..., 2], table[..., 2].conj().T, atol=1e-12)


def test_rho_prime_is_momentum_projector(rng):
    params = CoinParams(0.8, -0.5, 0.36)
    state = evolve([0.76, 0.65j], params, 4)[-1]
    table = reconstruct_matrix_elements(
        onsite_probabilities(state), pair_intensities(state)
    )
    ks = np.linspace(-np.pi, np.pi, 32, endpoint=False)
    rho_p = assemble_hermitian_density(table, ks)
    psi_k = fourier(state, ks)
    outer = np.einsum("ka,kb->kab", psi_k, psi_k.conj())
    np.testing.assert_allclose(rho_p, outer, atol=1e-10)
    # Hermitian, rank 1
    np.testing.assert_allclose(rho_p, rho_p.conj().transpose(0, 2, 1), atol=1e-10)
    dets = np.linalg.det(rho_p)
    np.testing.assert_allclose(dets, 0, atol=1e-10)


def test_left_frame_normalization_unitary_limit(rng):
    system = eig_biorthogonal(momentum_operator_closed(CoinParams(0.4, 0.9, 0.0), 0.7))
    frame = _stokes_frame(system.left[None])
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    stokes = np.einsum("c,jcd,d->j", psi.conj(), PAULI, psi)[None]
    # no loss: sum_mu |chi_mu><chi_mu| = 1, so the norm is Tr[rho'] = s_0
    assert (frame[0] @ stokes[0])[0] == pytest.approx(stokes[0, 0].real, rel=1e-12)
    n = _frame_map(stokes, frame)
    np.testing.assert_allclose(_frame_map(0.64 * stokes, frame), n, atol=1e-14)
    assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)


def test_left_frame_normalization_singular_input():
    system = eig_biorthogonal(momentum_operator_closed(CoinParams(0.4, 0.9, 0.0), 0.7))
    with pytest.raises(SingularNormalization):
        _frame_map(np.zeros((1, 4)), _stokes_frame(system.left[None]))


def test_pipeline_matches_analytics(spec_fig3a, spec_fig3b):
    """The module's defining test: probabilities alone rebuild n(k,t) exactly."""
    for spec in (spec_fig3a, spec_fig3b):
        rec = reconstruct_bloch_field(spec, t_max=8, n_k=64)
        ana = bloch_field(spec, n_k=64, ts=rec.ts)
        assert np.abs(rec.n - ana.n).max() < 1e-9


def test_pipeline_scale_invariance(spec_fig3b):
    """Rescaling the initial spinor leaves the reconstructed field unchanged.

    Under shot noise too: the start is normalized before it is measured, so
    a start four times as large gives the same counts and the same bytes.
    """
    base_state = initial_spinors(spec_fig3b, np.array([0.0]))[0]
    scaled = QuenchSpec(
        initial=spec_fig3b.initial,
        final=spec_fig3b.final,
        initial_state=tuple(0.37 * base_state),
    )
    rec_base = reconstruct_bloch_field(spec_fig3b, t_max=4, n_k=32)
    rec_scaled = reconstruct_bloch_field(scaled, t_max=4, n_k=32)
    np.testing.assert_allclose(rec_scaled.n, rec_base.n, atol=1e-9)
    noisy = [
        reconstruct_bloch_field(
            QuenchSpec(spec_fig3b.initial, spec_fig3b.final, initial_state=tuple(s * base_state)),
            t_max=4, n_k=32, n_samples=1000, seed=5,
        ).n
        for s in (1, 4)
    ]
    assert noisy[0].tobytes() == noisy[1].tobytes()


@pytest.mark.parametrize(
    "t_max, n_k, message",
    [(-1, 16, "t_max must be >= 0"), (2, 0, "n_k must be >= 1"), (2, -2, "n_k must be >= 1")],
)
def test_pipeline_rejects_bad_sizes_by_name(spec_fig3b, t_max, n_k, message):
    with pytest.raises(ValueError, match=message):
        reconstruct_bloch_field(spec_fig3b, t_max=t_max, n_k=n_k)


@pytest.mark.parametrize("name", ["fig3a", "fig3b", "fig6"])
def test_one_site_window_matches_the_field(name):
    """t_max = 0, n_k = 1: one site, one diagonal and a one-column phase matrix."""
    spec = build_spec(PRESETS[name])
    rec = reconstruct_bloch_field(spec, t_max=0, n_k=1)
    ana = bloch_field(spec, n_k=1, ts=rec.ts)
    assert rec.n.shape == (1, 1, 3)
    assert np.abs(rec.n - ana.n).max() < 1e-9


def test_pipeline_rejects_momentum_dependent_initial():
    spec = QuenchSpec(
        initial=CoinParams(0.3, 0.8, 0.2),  # cos(theta2) != 0
        final=CoinParams(-0.9, 0.4, 0.2),
    )
    with pytest.raises(ValueError):
        reconstruct_bloch_field(spec, t_max=2, n_k=16)


# ---------------------------------------------------------------------------
# the array pipeline against the one-pair oracle


@st.composite
def position_states(draw):
    """Windows of 1-12 sites with exact zeros and amplitudes down to 1e-150.

    Either sublattice may be emptied, as the walk leaves every other site
    unoccupied.
    """
    n = draw(st.integers(1, 12))
    component = st.one_of(
        st.just(0j),
        st.builds(
            lambda exponent, phase: 10.0**exponent * complex(np.cos(phase), np.sin(phase)),
            st.floats(-150.0, 0.0),
            st.floats(-np.pi, np.pi),
        ),
    )
    amps = np.array(draw(st.lists(st.tuples(component, component), min_size=n, max_size=n)))
    empty = draw(st.sampled_from([None, 0, 1]))
    if empty is not None:
        amps[empty::2] = 0
    return PositionState(x_min=draw(st.integers(-40, 40)), amplitudes=amps)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(position_states())
def test_array_pipeline_matches_the_pair_oracle(state):
    n = len(state.amplitudes)
    site, pairs = onsite_probabilities(state), pair_intensities(state)
    oracle_pairs = all_pair_probabilities(state)
    assert len(oracle_pairs) == n * (n - 1)
    for pair in oracle_pairs:
        i1, i2 = pair.x1 - state.x_min, pair.x2 - state.x_min
        assert pairs.p_l[i1, i2].tobytes() == pair.p_l.tobytes()
        assert pairs.p_d[i1, i2].tobytes() == pair.p_d.tobytes()
    diag = np.arange(n)
    assert not pairs.p_l[diag, diag].any() and not pairs.p_d[diag, diag].any()

    table = reconstruct_matrix_elements(site, pairs)
    oracle = matrix_elements_from_pairs(site, oracle_pairs)
    assert table.table.tobytes() == oracle.table.tobytes()

    ks = np.linspace(-np.pi, np.pi, 33)
    scale = np.abs(table.table).max()
    error = np.abs(assemble_hermitian_density(table, ks) - assemble_einsum(table, ks)).max()
    assert error <= 1e-13 * scale


@pytest.mark.parametrize("n", range(1, 42))
def test_skewed_diagonal_sums_match_the_add_at_oracle(n):
    rng = np.random.default_rng(n)
    table = MatrixElementTable(
        x_min=-n, table=rng.normal(size=(n, n, 4)) + 1j * rng.normal(size=(n, n, 4))
    )
    ks = np.linspace(-np.pi, np.pi, 37, endpoint=False)
    assert assemble_hermitian_density(table, ks).tobytes() == assemble_add_at(table, ks).tobytes()


def test_pair_intensities_match_the_stacked_matmul_oracle(rng):
    """Bit for bit over 300 windows of 1-44 sites: plain, scaled to 1e-8,
    sprinkled with exact zeros, and all zero."""
    for trial in range(300):
        n = 1 + trial % 44
        amps = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        if trial % 4 == 1:
            amps *= 1e-8
        elif trial % 4 == 2:
            amps[rng.random((n, 2)) < 0.4] = 0
        elif trial % 4 == 3:
            amps[:] = 0
        state = PositionState(x_min=int(rng.integers(-40, 40)), amplitudes=amps)
        got, want = pair_intensities(state), pair_intensities_matmul(state)
        assert got.p_l.tobytes() == want.p_l.tobytes()
        assert got.p_d.tobytes() == want.p_d.tobytes()


@pytest.mark.parametrize("n", range(1, 46))
def test_identities_on_the_diagonal_sums_match_the_table_first_oracle(n):
    """Windows of n sites: noiseless, binomial-resampled, with intensities
    sprinkled with zeros, and all zero.  The diagonal sums of the intensity
    planes of the counted pairs equal their ``np.add.at`` sums bit for bit,
    the x2 planes' sums being the x1 planes' sums reversed; the Stokes vectors
    from the identities on those sums differ from those of the table-first
    oracle, its uncounted sites' rows and columns zeroed, by at most
    1e-13 sum_d |B_d| per component, B the oracle's diagonal sums (measured:
    under 1.8e-15)."""
    rng = np.random.default_rng(n)
    offset_row = (np.arange(n)[:, None] - np.arange(n)[None, :] + n - 1).ravel()
    for variant in ("noiseless", "resampled", "zeros", "all zero"):
        amps = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        amps *= rng.uniform(0.05, 1.0) / np.linalg.norm(amps)
        if variant == "all zero":
            amps[:] = 0
        state = PositionState(x_min=int(rng.integers(-40, 40)), amplitudes=amps)
        site, pairs = onsite_probabilities(state), pair_intensities(state)
        if variant == "resampled":
            site = sample_shot_noise(site, 1000, seed=n)
            pairs = sample_shot_noise(pairs, 1000, seed=n)
        elif variant == "zeros":
            site, pairs = (
                replace(site, probs=np.where(rng.random((n, 4)) < 0.3, 0.0, site.probs)),
                replace(pairs, p_l=np.where(rng.random((n, n, 4)) < 0.3, 0.0, pairs.p_l),
                        p_d=np.where(rng.random((n, n, 4)) < 0.3, 0.0, pairs.p_d)),
            )
        sums = _intensity_sums(site, pairs)
        want_sums = np.zeros((2 * n - 1, 12))
        support = counted(site)
        planes = intensity_planes(site, pairs) * support[..., None]
        np.add.at(want_sums, offset_row, planes.reshape(n * n, 12))
        assert sums.tobytes() == want_sums[:, :10].tobytes()
        assert want_sums[::-1, 8:10].tobytes() == want_sums[:, 10:].tobytes()

        got = _stokes_by_offset(sums, site.probs.sum(0))
        table = reconstruct_matrix_elements(site, pairs)
        want = diagonal_sums_add_at(replace(table, table=table.table * support[..., None]))
        bound = 1e-13 * np.abs(want).sum(axis=0)
        for n_k in (1, 7, 64):
            error = np.abs(_momentum_transform(got, n_k) - _momentum_transform(want, n_k))
            assert np.all(error <= bound), (variant, n_k)


@pytest.mark.parametrize("t_max", range(11))
def test_the_fft_transform_matches_the_phase_matrix(t_max):
    """|ds| <= 1e-13 sum_d |B_d| per component at n_k = 1-64, offsets folding
    onto d mod n_k wherever 2 w - 1 > n_k (measured: under 6.2e-15)."""
    rng = np.random.default_rng(t_max)
    width = 4 * t_max + 1
    for n_k in range(1, 65):
        by_offset = (rng.normal(size=(t_max + 1, 2 * width - 1, 4))
                     + 1j * rng.normal(size=(t_max + 1, 2 * width - 1, 4)))
        ks = np.linspace(-np.pi, np.pi, n_k, endpoint=False)
        got = _momentum_transform(by_offset, n_k)
        assert got.shape == (t_max + 1, n_k, 4)
        error = np.abs(got - phase_matrix_transform(by_offset, ks))
        assert np.all(error <= 1e-13 * np.abs(by_offset).sum(axis=-2)[:, None, :])


# ---------------------------------------------------------------------------
# every step mapped in one call against one step at a time


def explicit_run(theta1, theta2, p, radius, mix, phase, t_max, n_k, n_samples, seed):
    """A localized explicit start of norm ``radius`` under the walk (theta1, theta2, p)."""
    final = CoinParams(theta1, theta2, p)
    state = (radius * np.cos(mix), radius * np.sin(mix) * np.exp(1j * phase))
    return QuenchSpec(initial=final, final=final, initial_state=state), t_max, n_k, n_samples, seed


@st.composite
def explicit_runs(draw, n_ks=st.integers(1, 64), samples=st.sampled_from([None, 1000])):
    """Localized explicit starts with |v| <= 1 under a random lossy final walk."""
    angle = st.floats(-np.pi, np.pi)
    return explicit_run(
        draw(angle), draw(angle), draw(st.floats(0.0, 0.9)), draw(st.floats(1e-3, 1.0)),
        draw(angle), draw(angle), draw(st.integers(0, 10)), draw(n_ks),
        draw(samples), draw(st.integers(0, 99)),
    )


@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(explicit_runs())
# One momentum folds every offset onto one residue.  A fold that adds the
# offsets in another order than d's, e.g. numpy's pairwise sum over a
# contiguous axis, differs from the per-step sums in the last bit on these.
@example(explicit_run(1.6644836690336229, -0.22861868362146476, 0.6359166905729337,
                      0.023773538865862438, 1.3894320818210124, 1.6431763523509817,
                      10, 1, None, 3))
@example(explicit_run(1.5730757780616624, -2.297024568325068, 0.5807940062477353,
                      0.18541409972435333, -2.6926273111719157, 0.6511674394025952,
                      3, 1, 1000, 3))
def test_one_call_over_all_steps_matches_the_per_step_oracle(run):
    spec, t_max, n_k, n_samples, seed = run
    try:
        want = bloch_field_per_step(spec, t_max, n_k, n_samples=n_samples, seed=seed)
    except WalkError as error:
        with pytest.raises(type(error)):
            reconstruct_bloch_field(spec, t_max=t_max, n_k=n_k, n_samples=n_samples, seed=seed)
        return
    got = reconstruct_bloch_field(spec, t_max=t_max, n_k=n_k, n_samples=n_samples, seed=seed)
    assert got.n.shape == (n_k, t_max + 1, 3)
    assert np.array_equal(got.n, want)


# ---------------------------------------------------------------------------
# the support the counts allow


@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(explicit_runs(n_ks=st.integers(1, 40).map(lambda half: 2 * half)))
@example((build_spec(PRESETS["fig6"]), 10, 256, None, 1))
@example((build_spec(PRESETS["fig6"]), 10, 256, 1000, 1))
@example((build_spec(PRESETS["fig3b"]), 6, 256, 1_000_000, 7))
def test_the_reconstructed_halves_repeat_bit_for_bit_on_an_even_grid(run):
    """A walk from one site fills one parity of sites per step, so no pair at
    an odd offset is counted, noiseless or noisy: n and the regime at k >= 0
    repeat those at k < 0.  Explicit starts, and preset eigenstate starts at
    the benchmark's size."""
    spec, t_max, n_k, n_samples, seed = run
    try:
        field = reconstruct_bloch_field(spec, t_max=t_max, n_k=n_k, n_samples=n_samples, seed=seed)
    except WalkError:
        reject()
    half = n_k // 2
    assert field.n[:half].tobytes() == field.n[half:].tobytes()
    assert np.array_equal(field.real_regime[:half], field.real_regime[half:])


@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(explicit_runs(n_ks=st.integers(0, 32).map(lambda half: 2 * half + 1),
                     samples=st.just(None)))
@example(explicit_run(0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 10, 15, None, 0))
def test_an_odd_grid_matches_the_analytic_field(run):
    """An odd grid is not pi-closed, so every offset is transformed at every
    momentum (measured: under 2.6e-14)."""
    spec, t_max, n_k, _, _ = run
    try:
        want = bloch_field(spec, n_k=n_k, t_max=t_max)
        got = reconstruct_bloch_field(spec, t_max=t_max, n_k=n_k)
    except WalkError:
        reject()
    assert np.abs(got.n - want.n).max() < 1e-12
    assert np.array_equal(got.real_regime, want.real_regime)


_SHOTS = [None, 10, 1000, 1_000_000]


def assert_the_odd_sites_stay_empty(spec, t_max, n_samples, seed):
    """Each step of a walk from site 0 moves the walker by an even number of
    sites, and the shift fills the sites it opens with zeros, so the odd
    sites hold exactly 0.0; shot noise at intensity 0 counts 0.  So no pair
    at an odd offset is counted, and every odd-offset diagonal sum reads
    exactly 0.0: the even-grid reconstruction transforms the even offsets
    alone."""
    coin = initial_spinors(spec, np.array([0.0]))[0]
    for t, state in enumerate(evolve(coin, spec.final, t_max)):
        odd = state.sites % 2 == 1
        assert not state.amplitudes[odd].any()
        site, pairs = onsite_probabilities(state), pair_intensities(state)
        if n_samples is not None:
            site = sample_shot_noise(site, n_samples, seed=seed * 1000003 + t)
            pairs = sample_shot_noise(pairs, n_samples, seed=seed * 1000003 + t)
        assert not site.probs[odd].any()
        both_odd = np.ix_(odd, odd)
        assert not pairs.p_l[both_odd].any() and not pairs.p_d[both_odd].any()
        # row d + 4 t of the (8 t + 1)-row sums: d is odd where the row is
        assert not _intensity_sums(site, pairs)[1::2].any()


@pytest.mark.parametrize("n_samples", _SHOTS)
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_a_preset_walk_leaves_the_odd_sites_empty(name, n_samples):
    assert_the_odd_sites_stay_empty(build_spec(PRESETS[name]), 10, n_samples, seed=1)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(explicit_runs(n_ks=st.none(), samples=st.sampled_from(_SHOTS)))
def test_an_explicit_walk_leaves_the_odd_sites_empty(run):
    spec, t_max, _, n_samples, seed = run
    assert_the_odd_sites_stay_empty(spec, t_max, n_samples, seed)


@pytest.mark.parametrize("n_k", [15])
def test_a_state_on_both_parities_keeps_its_odd_offsets(monkeypatch, n_k):
    """Hand-built windows with weight on both parities of sites, one site of
    each left uncounted: pairs at odd offsets are counted, so an odd grid
    takes every offset at every momentum, and n is that of
    rho'(k) = |psi_k><psi_k| of each window (measured: under 1e-14)."""
    rng = np.random.default_rng(36)
    spec, t_max = build_spec(PRESETS["fig3b"]), 3
    states = []
    for t in range(t_max + 1):
        amps = rng.normal(size=(4 * t + 1, 2)) + 1j * rng.normal(size=(4 * t + 1, 2))
        if t:
            amps[rng.integers(4 * t + 1)] = 0
        states.append(PositionState(x_min=-2 * t, amplitudes=0.5 * amps / np.linalg.norm(amps)))
    monkeypatch.setattr(measurement, "evolve", lambda coin, params, t_max: states)
    got = reconstruct_bloch_field(spec, t_max=t_max, n_k=n_k)
    system = walk_eigensystem(spec.final, got.ks)
    for t, state in enumerate(states):
        psi = fourier(state, got.ks)
        rho_prime = psi[:, :, None] * psi.conj()[:, None, :]
        want = bloch_from_density(to_nonhermitian(rho_prime, system), system)
        assert np.abs(got.n[:, t] - want).max() < 1e-13


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_the_support_rule_moves_noiseless_cells_by_rounding(name):
    """Against the all-offset route at the benchmark's size: |dn| < 1e-13
    (measured: under 1.3e-14), and the error against the analytic field does
    not grow."""
    spec = build_spec(PRESETS[name])
    got = reconstruct_bloch_field(spec, t_max=10, n_k=256).n
    before = bloch_field_per_step(spec, 10, 256, all_offsets=True)
    want = bloch_field(spec, n_k=256, t_max=10).n
    assert np.abs(got - before).max() < 1e-13
    assert np.abs(got - want).max() <= np.abs(before - want).max()


def _noisy_cases():
    """The presets and four explicit-state quenches drawn from ``default_rng(9)``."""
    cases = [pytest.param(build_spec(PRESETS[name]), id=name) for name in sorted(PRESETS)]
    rng = np.random.default_rng(9)
    for i in range(4):
        theta1, theta2, mix, phase = rng.uniform(-np.pi, np.pi, 4)
        final = CoinParams(theta1, theta2, rng.uniform(0.0, 0.5))
        start = (np.cos(mix), np.sin(mix) * np.exp(1j * phase))
        cases.append(pytest.param(QuenchSpec(initial=final, final=final, initial_state=start),
                                  id=f"explicit{i}"))
    return cases


@pytest.mark.parametrize("n_samples", [10_000, 1_000_000])
@pytest.mark.parametrize("spec", _noisy_cases())
def test_noisy_error_does_not_rise_against_the_all_offset_route(spec, n_samples):
    """Median over seeds 0-3 of max |n - analytic| at t_max 6 and n_k 256
    (measured: x0.12-x0.63 of the all-offset route's)."""
    want = bloch_field(spec, n_k=256, t_max=6).n
    got, before = [], []
    for seed in range(4):
        field = reconstruct_bloch_field(spec, t_max=6, n_k=256, n_samples=n_samples, seed=seed)
        got.append(np.abs(field.n - want).max())
        old = bloch_field_per_step(spec, 6, 256, n_samples=n_samples, seed=seed, all_offsets=True)
        before.append(np.abs(old - want).max())
    assert np.median(got) <= np.median(before)


def test_frame_maps_broadcast_over_a_stack_of_steps(spec_fig3b):
    ks = np.linspace(-np.pi, np.pi, 48, endpoint=False)
    frame = _stokes_frame(walk_eigensystem(spec_fig3b.final, ks).left)
    coin = initial_spinors(spec_fig3b, np.array([0.0]))[0]
    stack = np.stack([
        stokes_add_at(
            reconstruct_matrix_elements(onsite_probabilities(s), pair_intensities(s)), ks
        )
        for s in evolve(coin, spec_fig3b.final, 5)
    ])
    n = _frame_map(stack, frame)
    for t in range(len(stack)):
        assert n[t].tobytes() == _frame_map(stack[t], frame).tobytes()


# ---------------------------------------------------------------------------
# the real 4x4 frame Lambda against its algebra and the 2x2 oracle

ETA = np.diag([1.0, -1.0, -1.0, -1.0])
EPS = np.finfo(float).eps


@st.composite
def final_frames(draw):
    """Final eigensystems at 1-16 momenta of a walk with loss up to p = 0.9."""
    angle = st.floats(-np.pi, np.pi)
    params = CoinParams(draw(angle), draw(angle), draw(st.floats(0.0, 0.9)))
    ks = np.array(draw(st.lists(angle, min_size=1, max_size=16)))
    try:
        return walk_eigensystem(params, ks)
    except ExceptionalPoint:
        assume(False)


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(final_frames())
def test_the_frame_is_a_lorentz_map_up_to_scale(system):
    """Lambda^T eta Lambda = |det L|^2 eta, PT-broken frames (boosts) included."""
    frame = _stokes_frame(system.left)
    det2 = np.abs(np.linalg.det(system.left)) ** 2
    error = np.abs(frame.swapaxes(-1, -2) @ ETA @ frame - det2[:, None, None] * ETA)
    scale = np.abs(frame).max(axis=(1, 2)) ** 2
    assert np.all(error.max(axis=(1, 2)) <= 64 * EPS * scale)


def test_the_lossless_frame_is_a_rotation(rng):
    for _ in range(20):
        params = CoinParams(*rng.uniform(-np.pi, np.pi, 2), 0.0)
        frame = _stokes_frame(walk_eigensystem(params, rng.uniform(-np.pi, np.pi, 32)).left)
        np.testing.assert_allclose(frame[:, 0], [[1, 0, 0, 0]] * 32, atol=1e-14)
        np.testing.assert_allclose(frame[:, 1:, 0], 0, atol=1e-14)
        rot = frame[:, 1:, 1:]
        np.testing.assert_allclose(rot @ rot.swapaxes(-1, -2) - np.eye(3), 0, atol=1e-14)
        np.testing.assert_allclose(np.linalg.det(rot), 1, atol=1e-14)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(final_frames())
def test_the_frame_is_its_trace_definition(system):
    """Lambda_ji = Tr[sigma_j L sigma_i L^dag] / 2 to 8 eps |L|^2."""
    left = system.left
    left_dag = left.conj().swapaxes(-1, -2)
    want = 0.5 * np.einsum("jab,kbc,icd,kda->kji", PAULI, left, PAULI, left_dag).real
    scale = np.abs(left).max(axis=(1, 2)) ** 2
    error = np.abs(_stokes_frame(left) - want).max(axis=(1, 2))
    assert np.all(error <= 8 * EPS * scale)


def test_the_frame_map_matches_the_two_by_two_oracle(rng):
    """|dn| <= 64 eps cond over random complex Stokes stacks, where
    cond = max|L|^4 max|s| (1 + |n|) / |(Lambda s)_0| bounds how far
    rounding in Lambda s, rho' sum|chi><chi| and tau_j can move n."""
    worst = 0.0
    for _ in range(300):
        params = CoinParams(*rng.uniform(-np.pi, np.pi, 2), float(rng.uniform(0, 0.9)))
        try:
            system = walk_eigensystem(params, rng.uniform(-np.pi, np.pi, 8))
        except ExceptionalPoint:
            continue
        stokes = rng.normal(size=(3, 8, 4)) + 1j * rng.normal(size=(3, 8, 4))
        frame = _stokes_frame(system.left)
        n = _frame_map(stokes, frame)
        want = bloch_from_density(to_nonhermitian(0.5 * pauli_assemble(stokes), system), system)
        norm = np.abs((frame @ stokes[..., None])[..., 0, 0])
        cond = (np.abs(system.left).max(axis=(1, 2)) ** 4 * np.abs(stokes).max(axis=-1)
                * (1 + np.linalg.norm(n, axis=-1)) / norm)
        worst = max(worst, (np.abs(n - want).max(axis=-1) / (EPS * cond)).max())
    assert worst <= 64


def test_table_rejects_pairs_of_another_window():
    state = PositionState(x_min=0, amplitudes=[[1, 0], [0, 1]])
    shifted = PositionState(x_min=1, amplitudes=state.amplitudes)
    with pytest.raises(ValueError):
        reconstruct_matrix_elements(onsite_probabilities(state), pair_intensities(shifted))


@pytest.mark.parametrize("t_max", [6, 10, 20])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_noiseless_reconstruction_matches_the_field(name, t_max):
    spec = build_spec(PRESETS[name])
    rec = reconstruct_bloch_field(spec, t_max=t_max, n_k=64)
    ana = bloch_field(spec, n_k=64, ts=rec.ts)
    assert np.abs(rec.n - ana.n).max() < 1e-10


@pytest.mark.parametrize("n_k", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_the_smallest_grids_match_the_field(name, n_k):
    """One, two and three momenta (measured: under 1e-14); the two momenta of
    n_k = 2 are one solved row written twice.  Both producers record the
    start's residual and judge it by the same tolerance."""
    spec = build_spec(PRESETS[name])
    rec = reconstruct_bloch_field(spec, t_max=10, n_k=n_k)
    ana = bloch_field(spec, n_k=n_k, t_max=10)
    assert np.abs(rec.n - ana.n).max() < 1e-12
    assert np.array_equal(rec.real_regime, ana.real_regime)
    if n_k == 2:
        assert rec.n[0].tobytes() == rec.n[1].tobytes()
        assert ana.n[0].tobytes() == ana.n[1].tobytes()
    assert ana.initial_residual == initial_state_residual(spec)
    for field in (rec, ana):
        assert field.eigenstate_initial == (field.initial_residual < EIGENSTATE_TOL)
    assert rec.eigenstate_initial == ana.eigenstate_initial


# ---------------------------------------------------------------------------
# shot noise


def test_noise_determinism(rng):
    state = random_two_site_state(rng, scale=0.4)
    site = onsite_probabilities(state)
    a = sample_shot_noise(site, 10_000, seed=7)
    b = sample_shot_noise(site, 10_000, seed=7)
    np.testing.assert_array_equal(a.probs, b.probs)
    c = sample_shot_noise(site, 10_000, seed=8)
    assert np.any(a.probs != c.probs)
    pairs = pair_intensities(state)
    np.testing.assert_array_equal(
        sample_shot_noise(pairs, 5000, seed=1).p_l,
        sample_shot_noise(pairs, 5000, seed=1).p_l,
    )


def test_noise_lossless_state_keeps_total_flux(rng):
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    state = PositionState(x_min=0, amplitudes=[psi])
    site = onsite_probabilities(state)
    noisy = sample_shot_noise(site, 50_000, seed=3)
    # H/V analysis: no flux is lost for a unit-norm state
    assert noisy.probs[:, :2].sum() == pytest.approx(1.0, abs=1e-12)


def test_noise_convergence_rate(rng):
    state = random_two_site_state(rng, scale=0.9)
    site = onsite_probabilities(state)
    errors = {}
    for n in (10_000, 1_000_000):
        noisy = sample_shot_noise(site, n, seed=11)
        errors[n] = np.abs(noisy.probs - site.probs).max()
    assert errors[1_000_000] < 3e-3
    # an order of magnitude in error for two orders in samples (loose factor)
    assert errors[1_000_000] < errors[10_000] / 3


def test_noisy_pipeline_near_unit_norm(spec_fig3b):
    """10^6 samples per configuration keep n near the unit sphere.

    The deviation scales with the window size: ~3e-4 while the walk covers
    one site, ~3e-2 by t = 3 (13 sites, ~160 noisy pair configurations per
    momentum).
    """
    rec = reconstruct_bloch_field(spec_fig3b, t_max=3, n_k=32, n_samples=1_000_000, seed=5)
    norms = np.linalg.norm(rec.n, axis=-1)
    assert np.abs(norms[:, 1] - 1.0).max() < 0.01
    assert np.abs(norms - 1.0).max() < 0.05
    ana = bloch_field(spec_fig3b, n_k=32, ts=rec.ts)
    unit = rec.n / norms[..., None]
    assert np.abs(unit - ana.n).max() < 0.05


def test_noisy_pipeline_convergence(spec_fig3b):
    ana = bloch_field(spec_fig3b, n_k=16, ts=np.arange(3.0))
    errs = {}
    for n in (10_000, 1_000_000):
        rec = reconstruct_bloch_field(spec_fig3b, t_max=2, n_k=16, n_samples=n, seed=2)
        unit = rec.n / np.linalg.norm(rec.n, axis=-1, keepdims=True)
        errs[n] = np.abs(unit - ana.n).max()
    assert errs[1_000_000] < errs[10_000] / 3
    assert errs[1_000_000] < 0.02


def test_pair_noise_streams_are_keyed_and_exact_at_zero():
    amps = np.array([[0.3, 0.2j], [0, 0], [0.1 - 0.4j, 0.25], [0, 0], [0.2j, -0.3]])
    pairs = pair_intensities(PositionState(x_min=-2, amplitudes=amps))
    a = sample_shot_noise(pairs, 1000, seed=11)
    b = sample_shot_noise(pairs, 1000, seed=11)
    c = sample_shot_noise(pairs, 1000, seed=12)
    assert a.p_l.tobytes() == b.p_l.tobytes() and a.p_d.tobytes() == b.p_d.tobytes()
    assert np.any(a.p_l != c.p_l) and np.any(a.p_d != c.p_d)
    for noisy, exact in ((a.p_l, pairs.p_l), (a.p_d, pairs.p_d)):
        zero = exact == 0
        assert zero.any() and not noisy[zero].any()
        np.testing.assert_array_equal(noisy * 1000, np.round(noisy * 1000))


def test_pair_noise_rejects_an_intensity_above_one():
    pairs = pair_intensities(PositionState(x_min=0, amplitudes=[[0.5, 0], [0.5, 0]]))
    edge = replace(pairs, p_d=np.where(pairs.p_d > 0, 1.0 + 1e-10, 0.0))
    np.testing.assert_array_equal(sample_shot_noise(edge, 50, seed=1).p_d, edge.p_d > 0)
    over = replace(pairs, p_d=np.where(pairs.p_d > 0, 1.0 + 2e-9, 0.0))
    with pytest.raises(ValueError):
        sample_shot_noise(over, 50, seed=1)


def test_shot_noise_preconditions():
    pairs = pair_intensities(PositionState(x_min=0, amplitudes=[[0.5, 0], [0.5, 0]]))
    with pytest.raises(ValueError, match="^n_samples must be >= 1$"):
        sample_shot_noise(pairs, 0, seed=1)
    # The H and V columns of one site share a configuration, so they may not sum past 1.
    site = SiteProbabilities(x_min=0, probs=np.array([[0.6, 0.5, 0.3, 0.3]]))
    with pytest.raises(ValueError, match=r"^probabilities sum to 1\.100000 > 1; not a sub-d"):
        sample_shot_noise(site, 100, seed=1)
    with pytest.raises(TypeError, match="^cannot resample ndarray$"):
        sample_shot_noise(site.probs, 100, seed=1)


def test_noisy_steps_use_the_step_keyed_streams(spec_fig3b):
    seen = {}
    rec = reconstruct_bloch_field(
        spec_fig3b, t_max=3, n_k=16, n_samples=1000, seed=5,
        on_step=lambda t, site, pairs: seen.setdefault(t, (site, pairs)),
    )
    again = reconstruct_bloch_field(spec_fig3b, t_max=3, n_k=16, n_samples=1000, seed=5)
    other = reconstruct_bloch_field(spec_fig3b, t_max=3, n_k=16, n_samples=1000, seed=6)
    assert rec.n.tobytes() == again.n.tobytes()
    assert np.any(rec.n != other.n)
    coin = initial_spinors(spec_fig3b, np.array([0.0]))[0]
    for t, state in enumerate(evolve(coin, spec_fig3b.final, 3)):
        site, pairs = seen[t]
        key = 5 * 1000003 + t
        want_site = sample_shot_noise(onsite_probabilities(state), 1000, seed=key)
        want_pairs = sample_shot_noise(pair_intensities(state), 1000, seed=key)
        assert site.probs.tobytes() == want_site.probs.tobytes()
        assert pairs.p_l.tobytes() == want_pairs.p_l.tobytes()
        assert pairs.p_d.tobytes() == want_pairs.p_d.tobytes()
