"""floattext.g17_text against '%.17g' % itself, byte for byte."""

import math

import numpy as np
import pytest

from ptwalk.floattext import _BLOCK, _fixed_text, g17_text

N = 10**6


def oracle(values):
    return "\n".join(map("%.17g".__mod__, values.tolist()))


def assert_same_text(got, want):
    if got != want:  # the first wrong lines, not a diff of two texts of a million lines
        pytest.fail(repr([(g, w) for g, w in zip(got.split("\n"), want.split("\n")) if g != w][:3]))


def signs(rng, n):
    return rng.choice([-1.0, 1.0], n)


def ties(rng, n):
    """Exact doubles whose 18th significant digit is a final 5: q 5^k / 10^k = q / 2^k.

    For odd q with 10^17 <= q 5^k < 10^18 and q < 2^53, q / 2^k is exact and its
    decimal digits are the 18 digits of q 5^k.  k from 2 to 21 puts the decimal
    exponent 17 - k on each fixed-notation exponent but 16.
    """
    k = rng.integers(2, 22, n)
    five = 5.0 ** k
    low, high = np.ceil(1e17 / five), np.minimum(1e18 / five, 2.0**53)
    q = (low + np.floor(rng.random(n) * (high - low))).astype(np.int64) | 1
    assert np.all(q < 2**53)
    return signs(rng, n) * np.ldexp(q.astype(np.float64), -k)


CLASSES = {
    "uniform": lambda rng, n: rng.uniform(-1.0, 1.0, n),
    "log-spread": lambda rng, n: signs(rng, n) * np.ldexp(rng.uniform(1.0, 2.0, n),
                                                          rng.integers(-1074, 1024, n)),
    "bits": lambda rng, n: rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
    "subnormal": lambda rng, n: signs(rng, n) * rng.integers(1, 2**52, n).view(np.float64),
    "tie": ties,
}


@pytest.mark.parametrize("name", CLASSES)
def test_the_encoder_writes_what_percent_writes_on_a_million_values(name):
    # g17_text writes the rows that _fixed_text takes and gives every other
    # row to '%' itself, so the rows _fixed_text takes carry all its risk.
    values = CLASSES[name](np.random.default_rng(sorted(CLASSES).index(name)), N)
    rows, text = [], []
    for start in range(0, N, _BLOCK):
        block_rows, block_text = _fixed_text(values[start:start + _BLOCK])
        rows.append(start + block_rows)
        text += block_text
    rows = np.concatenate(rows)
    assert_same_text("\n".join(text), oracle(values[rows]))
    if name in ("uniform", "tie"):  # the fixed-notation classes stay off the '%' path
        assert rows.size > 0.999 * N


def mixed(rng, n):
    """Every class at once, with fixed-notation values spread over every exponent."""
    parts = [make(rng, n) for make in CLASSES.values()]
    parts.append(signs(rng, n) * 10.0 ** rng.uniform(-6.0, 18.0, n))
    values = np.concatenate(parts + [[0.0, -0.0, math.inf, -math.inf, math.nan]])
    return values[rng.permutation(values.size)]


def test_a_mixed_column_over_many_blocks_is_percent_text(rng):
    values = mixed(rng, 30_000)
    assert values.size > 10 * _BLOCK
    assert_same_text("\n".join(g17_text(values)), oracle(values))


def power_of_ten_neighbours(q):
    """The double nearest 10^q, four neighbours on each side, and their negatives."""
    nearest = float(f"1e{q}")
    values = [nearest]
    for direction in (-math.inf, math.inf):
        x = nearest
        for _ in range(4):
            x = math.nextafter(x, direction)
            values.append(x)
    return np.array(values + [-v for v in values])


@pytest.mark.parametrize("q", range(-25, 26))
def test_both_neighbours_of_each_power_of_ten(q):
    # The decimal exponent changes here, and log10 may be off by one.
    values = power_of_ten_neighbours(q)
    assert g17_text(values).tolist() == oracle(values).split("\n")


@pytest.mark.parametrize("direction", [-math.inf, math.inf])
def test_a_log10_one_ulp_off_changes_no_text(direction, monkeypatch):
    # The exact range test on the product, not log10, decides the exponent: a
    # log10 one ulp low or high next to a power of ten sends the row to '%'.
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), direction))
    values = np.concatenate([power_of_ten_neighbours(q) for q in range(-5, 18)])
    assert g17_text(values).tolist() == oracle(values).split("\n")


def test_zeros_infinities_and_nan():
    values = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, 1e-4, 1e17])
    assert g17_text(values).tolist() == ["0", "-0", "inf", "-inf", "nan", "nan",
                                         "4.9406564584124654e-324", "0.0001", "1e+17"]
    assert g17_text(np.zeros(0)).tolist() == []
