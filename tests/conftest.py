import numpy as np
import pytest

from ptwalk.presets import PRESETS, build_spec


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def spec_fig3a():
    return build_spec(PRESETS["fig3a"])


@pytest.fixture
def spec_fig3b():
    return build_spec(PRESETS["fig3b"])


@pytest.fixture
def spec_fig4():
    return build_spec(PRESETS["fig4"])


@pytest.fixture
def spec_fig6():
    return build_spec(PRESETS["fig6"])


def random_coin_params(rng, p_max=0.9):
    from ptwalk.floquet import CoinParams

    th1, th2 = rng.uniform(-np.pi, np.pi, size=2)
    return CoinParams(float(th1), float(th2), float(rng.uniform(0.0, p_max)))


def period(spec, k):
    """t0 = pi / E_k of the final operator at one momentum, where E_k is real."""
    from ptwalk.spectrum import walk_eigensystem

    energy = walk_eigensystem(spec.final, k).quasienergies[0]
    assert energy.imag == 0, (spec, k, energy)
    return np.pi / energy.real
