"""floattext.float_rows against '%.17g' % and float.__repr__ themselves, byte for byte."""

import math

import numpy as np
import pytest

from ptwalk.floattext import _BLOCK, _WIDTH, _fixed_rows, float_rows, text_rows

N = 10**6
# repr's oracle costs 0.7-1 us per value here, so its classes draw half as many:
# the added tier-1 seconds stay under 5.
N_REPR = 5 * 10**5


def percent(values):
    return list(map("%.17g".__mod__, values.tolist()))


def shortest(values):
    return list(map(float.__repr__, values.tolist()))


ORACLES = {False: percent, True: shortest}


def text_of(rows):
    """The text of 0xFF-padded byte rows, each row ended by a newline."""
    ends = np.full((rows.shape[0], 1), ord("\n"), dtype=np.uint8)
    return np.hstack([rows, ends]).tobytes().translate(None, b"\xff").decode()


def lines(rows):
    return text_of(rows).split("\n")[:-1]


def text(values, mode):
    return lines(float_rows(values, mode, ORACLES[mode]))


def assert_fixed_rows_match(values, mode):
    """float_rows writes the rows _fixed_rows takes and gives every other row to
    Python itself, so the rows _fixed_rows takes carry all its risk; returns their count."""
    taken, rows = [], []
    for start in range(0, values.size, _BLOCK):
        block_taken, block_rows = _fixed_rows(values[start:start + _BLOCK], mode)
        taken.append(start + block_taken)
        rows.append(block_rows)
    taken = np.concatenate(taken)
    got, want = text_of(np.concatenate(rows)), ORACLES[mode](values[taken])
    if got != "\n".join([*want, ""]):  # the first wrong lines, not a diff of a million
        pytest.fail(repr([(g, w) for g, w in zip(got.split("\n"), want) if g != w][:3]))
    return taken.size


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


def neighbours(rng, values):
    """Each value, or the double just below or just above it, at random."""
    return np.nextafter(values, values * rng.choice([0.0, 1.0, np.inf], values.size))


def decimals(rng, n):
    """Doubles nearest decimals: a third of 15 or 16 significant digits, a third
    of 1 to 14, over the exponents of repr's fixed notation and just below it,
    and a third integers below 10^16, each with its ulp neighbours.

    The significand m stays below 2^53, so it is exact, and m 10^k or m / 10^-k
    of two exact doubles is the double nearest the decimal.
    """
    third = rng.integers(0, 3, n)
    digits = np.where(third == 0, rng.choice([15, 16], n), rng.integers(1, 15, n))
    m = rng.integers(10 ** (digits - 1), np.minimum(10**digits, 2**53)).astype(np.float64)
    k = rng.integers(-4 - digits, 16 - digits + 1)  # m 10^k in [1e-5, 1e16)
    values = np.where(k < 0, m / 10.0 ** -np.minimum(k, 0), m * 10.0 ** np.maximum(k, 0))
    values = np.where(third == 2, np.floor(10.0 ** rng.uniform(0.0, 16.0, n)), values)
    return neighbours(rng, signs(rng, n) * values)


CLASSES = {
    "uniform": lambda rng, n: rng.uniform(-1.0, 1.0, n),
    "log-spread": lambda rng, n: signs(rng, n) * np.ldexp(rng.uniform(1.0, 2.0, n),
                                                          rng.integers(-1074, 1024, n)),
    "bits": lambda rng, n: rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
    "subnormal": lambda rng, n: signs(rng, n) * rng.integers(1, 2**52, n).view(np.float64),
    "tie": ties,
}
# repr's fixed notation spans [1e-4, 1e16): the classes put values there with 17
# significant digits (uniform, log-spread), with 1 to 16 and their neighbours
# (decimal), and at and beside each power of two, whose read-back interval is lopsided.
REPR_CLASSES = {
    "uniform": CLASSES["uniform"],
    "log-spread": lambda rng, n: signs(rng, n) * 10.0 ** rng.uniform(-6.0, 18.0, n),
    "bits": CLASSES["bits"],
    "power-of-two": lambda rng, n: neighbours(rng, signs(rng, n) * np.ldexp(
        1.0, rng.integers(-1074, 1024, n))),
    "decimal": decimals,
}


@pytest.mark.parametrize("name", CLASSES)
def test_the_encoder_writes_what_percent_writes_on_a_million_values(name):
    values = CLASSES[name](np.random.default_rng(sorted(CLASSES).index(name)), N)
    taken = assert_fixed_rows_match(values, False)
    if name in ("uniform", "tie"):  # the fixed-notation classes stay off the '%' path
        assert taken > 0.999 * N


@pytest.mark.parametrize("name", REPR_CLASSES)
def test_repr_mode_writes_what_repr_writes_on_half_a_million_values(name):
    values = REPR_CLASSES[name](np.random.default_rng(100 + sorted(REPR_CLASSES).index(name)),
                                N_REPR)
    taken = assert_fixed_rows_match(values, True)
    if name in ("uniform", "decimal"):  # repr writes few of them
        assert taken > 0.9 * N_REPR


def mixed(rng, n):
    """Every class at once, with fixed-notation values spread over every exponent."""
    parts = [make(rng, n) for make in CLASSES.values()]
    parts.append(signs(rng, n) * 10.0 ** rng.uniform(-6.0, 18.0, n))
    values = np.concatenate(parts + [[0.0, -0.0, math.inf, -math.inf, math.nan]])
    return values[rng.permutation(values.size)]


def test_a_mixed_column_over_many_blocks_is_percent_text(rng):
    values = mixed(rng, 30_000)
    assert values.size > 10 * _BLOCK
    assert text(values, False) == percent(values)


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
    for mode in (False, True):
        assert text(values, mode) == ORACLES[mode](values)


@pytest.mark.parametrize("direction", [-math.inf, math.inf])
def test_a_log10_one_ulp_off_changes_no_text(direction, monkeypatch):
    # The exact range test on the product, not log10, decides the exponent: a
    # log10 one ulp low or high next to a power of ten sends the row to Python.
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), direction))
    values = np.concatenate([power_of_ten_neighbours(q) for q in range(-5, 18)])
    for mode in (False, True):
        assert text(values, mode) == ORACLES[mode](values)


def test_zeros_infinities_and_nan():
    values = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, 1e-4, 1e17,
                       1e16, 1.0, 0.1, 2.0**53])
    assert text(values, False) == ["0", "-0", "inf", "-inf", "nan", "nan",
                                   "4.9406564584124654e-324", "0.0001", "1e+17",
                                   "10000000000000000", "1", "0.10000000000000001",
                                   "9007199254740992"]
    assert text(values, True) == ["0.0", "-0.0", "inf", "-inf", "nan", "nan", "5e-324",
                                  "0.0001", "1e+17", "1e+16", "1.0", "0.1",
                                  "9007199254740992.0"]
    for mode in (False, True):
        assert float_rows(np.zeros(0), mode, ORACLES[mode]).shape == (0, 24)


def test_each_segment_ends_with_its_separator_right_after_the_padding(rng):
    # The segments of a table's float columns: the CSV and JSON separators, an
    # empty segment, and segments that start and end inside a block.
    values = mixed(rng, 2000)
    ends = [(_BLOCK + 5, b","), (0, b"\n"), (3, b",\n      "),
            (values.size - _BLOCK - 8, b"\n    ],\n    [\n      ")]
    for mode in (False, True):
        plain = float_rows(values, mode, ORACLES[mode])
        rows = float_rows(values, mode, ORACLES[mode], ends)
        width = _WIDTH + max(len(end) for _, end in ends)
        assert rows.shape == (values.size, width)
        assert np.array_equal(rows[:, :_WIDTH], plain)  # the text bytes do not change
        start = 0
        for count, end in ends:
            segment = rows[start:start + count]
            assert (segment[:, _WIDTH:width - len(end)] == 0xFF).all()
            assert segment[:, width - len(end):].tobytes() == end * count
            start += count
    texts = ["", "a\x00b", "é", "日本"]
    assert np.array_equal(text_rows(texts, b",\n  ")[:, :-4], text_rows(texts))
    assert text_rows(texts, b",\n  ")[:, -4:].tobytes() == b",\n  " * len(texts)
    assert text_rows([], b",").shape == (0, 1)
