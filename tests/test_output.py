"""Column-wise table encoding against the row-at-a-time writer it replaced."""

import itertools
import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from output_oracle import table_text
from ptwalk import cli, floattext
from ptwalk.cli import _bloch_columns, _table_data
from ptwalk.errors import WalkError
from ptwalk.floattext import float_rows
from ptwalk.floquet import CoinParams
from ptwalk.measurement import reconstruct_bloch_field
from ptwalk.presets import PRESETS, build_spec
from ptwalk.quench import QuenchSpec, bloch_field, initial_spinors
from ptwalk.spectrum import PTPhase, pt_classify

SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
                  -2.2250738585072e-308, 1.7976931348623157e308, 0.1, 1e16, 1e-7,
                  123456789012345678.0]
SPECIAL_TEXT = ['"', "\\", '\\"', "é", "日本", "𝔭", ", ", "\n", "a,b", "", "\x00", "\t"]

floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_subnormal=True))
ints = st.integers(min_value=-(2**63), max_value=2**63 - 1)
texts = st.one_of(st.sampled_from(SPECIAL_TEXT), st.text())
# Each column holds one value type; numpy arrays are what the commands pass
# for large tables, lists and tuples what they pass for short ones.
KINDS = {"float": (floats, np.float64), "int": (ints, np.int64), "bool": (st.booleans(), bool),
         "str": (texts, str)}


def table_text_of(fmt, columns, meta):
    """The bytes the CLI writes for a table, as the text stdout gets."""
    return _table_data(fmt, columns, meta).decode("utf-8")


@st.composite
def tables(draw):
    n_rows = draw(st.integers(0, 12))
    names = draw(st.lists(texts, min_size=1, max_size=5, unique=True))
    columns = []
    for _ in names:
        elements, dtype = KINDS[draw(st.sampled_from(sorted(KINDS)))]
        values = draw(st.lists(elements, min_size=n_rows, max_size=n_rows))
        container = draw(st.sampled_from([list, tuple, np.array]))
        columns.append(np.array(values, dtype=dtype) if container is np.array
                       else container(values))
    meta = draw(st.dictionaries(texts, st.one_of(floats, ints, texts), max_size=3))
    return names, columns, meta


def oracle_rows(columns):
    return list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(tables(), st.sampled_from(["csv", "json"]))
def test_column_encoding_matches_the_row_writer(table, fmt):
    names, columns, meta = table
    want = table_text(fmt, names, oracle_rows(columns), meta)
    assert table_text_of(fmt, dict(zip(names, columns)), meta) == want


def nested(flat, shape):
    """A flat list as nested Python lists of the given shape (at most two axes)."""
    if not shape:
        return flat[0]
    if len(shape) == 1:
        return list(flat)
    return [flat[i * shape[1]:(i + 1) * shape[1]] for i in range(shape[0])]


@st.composite
def broadcast_tables(draw):
    # Columns at the shapes a Bloch table passes: (n, 1) per momentum, (m,) per
    # time, (n, m) per cell and () for the whole table.  n >= 1, because as
    # nested Python lists an (0, 1) column would read as shape (0,).
    n, m = draw(st.integers(1, 5)), draw(st.integers(0, 5))
    shapes = {"cell": (n, m), "row": (n, 1), "time": (m,), "table": ()}
    names = draw(st.lists(texts, min_size=1, max_size=5, unique=True))
    columns = []
    for _ in names:
        shape = shapes[draw(st.sampled_from(sorted(shapes)))]
        kind = draw(st.sampled_from(sorted(KINDS)))
        elements, dtype = KINDS[kind]
        size = math.prod(shape)
        flat = draw(st.lists(elements, min_size=size, max_size=size))
        if kind == "str" and draw(st.booleans()):
            columns.append((nested(flat, shape), shape))  # Python text
        else:
            columns.append((np.array(flat, dtype=dtype).reshape(shape), shape))
    meta = draw(st.dictionaries(texts, st.one_of(floats, ints, texts), max_size=3))
    return names, columns, meta


def broadcast_rows(columns):
    """The rows of a table of broadcast columns, one cell at a time in C order.

    A column of shape s fills cell (i, j) of an (n, m) table from its trailing
    indices, with index 0 along each axis where s has length 1.
    """
    shape = np.broadcast_shapes(*(s for _, s in columns))
    values = [(c.tolist() if isinstance(c, np.ndarray) else c, s) for c, s in columns]
    rows = []
    for cell in itertools.product(*map(range, shape)):
        row = []
        for value, column_shape in values:
            for i, size in zip(cell[len(cell) - len(column_shape):], column_shape):
                value = value[0 if size == 1 else i]
            row.append(value)
        rows.append(tuple(row))
    return rows


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(broadcast_tables(), st.sampled_from(["csv", "json"]))
def test_broadcast_columns_match_the_row_writer_on_the_materialized_rows(table, fmt):
    names, columns, meta = table
    want = table_text(fmt, names, broadcast_rows(columns), meta)
    assert table_text_of(fmt, dict(zip(names, (c for c, _ in columns))), meta) == want


INT64_EDGES = [-(2**63), -1, 0, 1, 2**63 - 1]
# The values each kind's pool always holds, beside a few drawn ones.
POOLS = {"float": SPECIAL_FLOATS, "int": INT64_EDGES, "bool": [True, False],
         "str": SPECIAL_TEXT}


@st.composite
def big_tables(draw):
    # One float column of at least 1024 distinct values lays the whole table out
    # as bytes.  The other columns draw their cells from a pool of specials and a
    # few drawn values, at a one-axis shape or at the shapes of a Bloch table.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        shape = (draw(st.integers(1024, 1100)),)
        shapes = [shape, ()]
    else:
        shape = (draw(st.integers(32, 40)), draw(st.integers(32, 40)))
        shapes = [shape, (shape[0], 1), (shape[1],), ()]
    size = math.prod(shape)
    spread = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-6.0, 18.0, size)
    big = rng.permutation(np.concatenate([SPECIAL_FLOATS, rng.uniform(-1, 1, size), spread]))
    big = big[:size]
    assert np.unique(big.view(np.int64)).size >= 1024
    names = draw(st.lists(texts, min_size=2, max_size=6, unique=True))
    big_at = draw(st.integers(0, len(names) - 1))
    columns = []
    for i in range(len(names)):
        if i == big_at:
            kind, column_shape, flat = "float", shape, big.tolist()
        else:
            kind = draw(st.sampled_from(sorted(KINDS)))
            column_shape = draw(st.sampled_from(shapes))
            pool = POOLS[kind] + draw(st.lists(KINDS[kind][0], max_size=4))
            flat = [pool[j] for j in rng.integers(0, len(pool), math.prod(column_shape))]
        if draw(st.booleans()):
            columns.append((nested(flat, column_shape), column_shape))  # Python values
        else:
            column = np.array(flat, dtype=KINDS[kind][1]).reshape(column_shape)
            columns.append((column, column_shape))
    meta = draw(st.dictionaries(texts, st.one_of(floats, ints, texts), max_size=3))
    return names, columns, meta


def byte_table(names):
    """A table laid out as bytes, its columns in the order of ``names``: x, a
    float column of 600 distinct values, and beside it y, floats of few
    distinct values, s, text, and n, integers."""
    rng = np.random.default_rng(len(names))
    size = 600
    pools = {"y": SPECIAL_FLOATS, "s": SPECIAL_TEXT, "n": INT64_EDGES}
    cells = {name: [pool[j] for j in rng.integers(0, len(pool), size)]
             for name, pool in pools.items()}
    cells["x"] = rng.permutation(np.concatenate(
        [SPECIAL_FLOATS, rng.uniform(-1, 1, size - len(SPECIAL_FLOATS))])).tolist()
    assert np.unique(np.array(cells["x"]).view(np.int64)).size >= cli._G17_DISTINCT
    return list(names), [(cells[name], (size,)) for name in names], {"command": "test"}


# The row separator after a text row and after a float row (in JSON beside a
# float column whose cell separator is shorter), and a table of one column.
BYTE_TABLES = [byte_table(names) for names in [("x", "n", "s"), ("y", "s", "x"), ("x",)]]


@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(big_tables(), st.sampled_from(["csv", "json"]))
@example(BYTE_TABLES[0], "csv")
@example(BYTE_TABLES[0], "json")
@example(BYTE_TABLES[1], "csv")
@example(BYTE_TABLES[1], "json")
@example(BYTE_TABLES[2], "csv")
@example(BYTE_TABLES[2], "json")
def test_tables_laid_out_as_bytes_match_the_row_writer(table, fmt):
    names, columns, meta = table
    want = table_text(fmt, names, broadcast_rows(columns), meta)
    assert table_text_of(fmt, dict(zip(names, (c for c, _ in columns))), meta) == want


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_bloch_table_with_both_regimes_matches_the_row_writer(fmt):
    # fig4's start quenched into a final walk that is PT-broken at some momenta.
    fig4 = build_spec(PRESETS["fig4"])
    spec = replace(fig4, final=CoinParams(0.3, 0.4, fig4.final.p))
    field = bloch_field(spec, n_k=256, ts=np.linspace(0.0, 6.0, 61))
    assert 0 < field.real_regime.sum() < 256
    names = ["k", "t", "n1", "n2", "n3", "regime", "source"]
    rows = [
        (k, t, *field.n[i, j].tolist(), "real" if field.real_regime[i] else "imaginary",
         field.source)
        for i, k in enumerate(field.ks.tolist()) for j, t in enumerate(field.ts.tolist())
    ]
    meta = {"command": "quench"}
    want = table_text(fmt, names, rows, meta)
    columns = _bloch_columns(field)
    assert list(columns) == names
    got = table_text_of(fmt, columns, meta)
    # The first wrong lines, not a diff of two texts of 15 000 lines.
    assert [(g, w) for g, w in zip(got.split("\n"), want.split("\n")) if g != w][:3] == []
    assert got == want


coin_angles = st.floats(-math.pi, math.pi)


@st.composite
def bloch_fields(draw):
    """A Bloch field on an odd or even grid, and whether its table may take the half shape.

    Lossless and lossy quenches, from the lower band of an unbroken initial
    operator or from an explicit coin state.  The field is analytic, or
    analytic with one k >= 0 cell of n moved by one ulp or one k >= 0 regime
    flipped, or reconstructed from the walk: only the analytic field of an even
    grid has a k >= 0 half that repeats the k < 0 half bit for bit.
    """
    p = draw(st.sampled_from([0.0, draw(st.floats(0.0, 0.6))]))
    final = CoinParams(draw(coin_angles), draw(coin_angles), p)
    if draw(st.booleans()):
        initial = CoinParams(draw(coin_angles), draw(coin_angles), p)
        if pt_classify(initial) is not PTPhase.UNBROKEN:
            reject()
        spec = QuenchSpec(initial=initial, final=final)
    else:
        mix, phi = draw(coin_angles), draw(coin_angles)
        state = (complex(np.cos(mix)), complex(np.exp(1j * phi) * np.sin(mix)))
        spec = QuenchSpec(initial=final, final=final, initial_state=state)
    n_k, n_t = draw(st.integers(1, 64)), draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["analytic", "moved", "flipped", "reconstructed"]))
    try:
        if kind == "reconstructed":  # from the start's coin state at k = 0
            coin = tuple(initial_spinors(spec, np.array([0.0]))[0])
            return reconstruct_bloch_field(replace(spec, initial_state=coin), t_max=n_t - 1,
                                           n_k=n_k), False
        field = bloch_field(spec, n_k=n_k, ts=np.linspace(0.0, 6.0, n_t))
    except WalkError:
        reject()
    i = draw(st.integers(n_k // 2, n_k - 1))
    if kind == "moved":
        n = field.n.copy()
        cell = (i, draw(st.integers(0, n_t - 1)), draw(st.integers(0, 2)))
        n[cell] = np.nextafter(n[cell], draw(st.sampled_from([-np.inf, np.inf])))
        field = replace(field, n=n)
    elif kind == "flipped":
        regime = field.real_regime.copy()
        regime[i] = not regime[i]
        field = replace(field, real_regime=regime)
    return field, kind == "analytic" and n_k % 2 == 0


@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(bloch_fields(), st.booleans())
def test_a_bloch_table_takes_the_half_shape_only_where_its_halves_repeat(drawn, as_bytes):
    field, half = drawn
    n_k, n_t = field.n.shape[:2]
    names = ["k", "t", "n1", "n2", "n3", "regime", "source"]
    rows = [
        (k, t, *field.n[i, j].tolist(), "real" if field.real_regime[i] else "imaginary",
         field.source)
        for i, k in enumerate(field.ks.tolist()) for j, t in enumerate(field.ts.tolist())
    ]
    columns = _bloch_columns(field)
    assert list(columns) == names
    assert columns["k"].shape == ((2, n_k // 2, 1) if half else (n_k, 1))
    assert columns["n1"].shape == columns["n3"].shape == (n_k // 2 if half else n_k, n_t)
    # From one distinct float on, the table is laid out as bytes.
    with mock.patch.object(cli, "_G17_DISTINCT", 1 if as_bytes else cli._G17_DISTINCT):
        for fmt in ["csv", "json"]:
            meta = {"command": "quench"}
            assert table_text_of(fmt, columns, meta) == table_text(fmt, names, rows, meta)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_rows", [0, 1, len(SPECIAL_FLOATS)])
def test_special_values_and_short_tables(fmt, n_rows):
    # Both zeros share one column, so a value-based dedupe would merge them.
    floats = SPECIAL_FLOATS[:n_rows] if n_rows > 1 else [-0.0] * n_rows
    columns = {
        "x": np.array(floats),
        "x_list": list(floats),
        "n": list(range(-1, n_rows - 1)),
        "flag": np.arange(n_rows) % 2 == 0,
        "label": [SPECIAL_TEXT[i % len(SPECIAL_TEXT)] for i in range(n_rows)],
    }
    meta = {"command": "test", "p": math.nan, "note": 'a "quoted" é'}
    want = table_text(fmt, list(columns), oracle_rows(list(columns.values())), meta)
    assert table_text_of(fmt, columns, meta) == want


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_long_bool_and_int_columns_match_the_row_writer(fmt, rng):
    # Few distinct values over many rows, as in a phase diagram's pt_broken
    # column or the integer columns of a --dump-probs table.
    n_rows = 10_007
    columns = {
        "flag": rng.random(n_rows) < 0.3,
        "n": rng.choice(np.array(INT64_EDGES, dtype=np.int64), n_rows),
        "site": rng.integers(-40, 41, n_rows),
    }
    columns["flag"][:2] = [True, False]
    columns["n"][:len(INT64_EDGES)] = INT64_EDGES
    assert columns["n"].dtype == np.int64
    meta = {"command": "test"}
    want = table_text(fmt, list(columns), oracle_rows(list(columns.values())), meta)
    got = table_text_of(fmt, columns, meta)
    # The first wrong lines, not a diff of two texts of 10 000 lines.
    assert [(g, w) for g, w in zip(got.split("\n"), want.split("\n")) if g != w][:3] == []
    assert got == want


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_distinct", [cli._G17_DISTINCT - 1, cli._G17_DISTINCT])
def test_a_float_column_on_either_side_of_the_fast_encoder_matches_the_row_writer(
        n_distinct, fmt, rng, monkeypatch):
    # From the cut-off on, one floattext.float_rows call writes every float column.
    # A mostly fixed-notation column, with every value it leaves to Python mixed in.
    calls = []

    def counted(values, shortest, texts, ends):
        calls.append((values.size, shortest))
        return float_rows(values, shortest, texts, ends)

    monkeypatch.setattr(floattext, "float_rows", counted)
    powers = [float(f"1e{q}") for q in range(-6, 19) if q not in (-1, 16)]  # not special yet
    leftover = SPECIAL_FLOATS + powers + [math.nextafter(p, 0.0) for p in powers]
    values = np.concatenate([leftover, 1e15 + np.arange(1, 5) / 4,
                             rng.uniform(-1, 1, n_distinct - len(leftover) - 4)])
    values = np.concatenate([values, values[rng.integers(0, n_distinct, 500)]])
    assert np.unique(values.view(np.int64)).size == n_distinct
    columns = {"row": np.arange(values.size), "x": values, "y": -values[::-1]}
    meta = {"command": "test"}
    want = table_text(fmt, list(columns), oracle_rows(list(columns.values())), meta)
    assert table_text_of(fmt, columns, meta) == want
    shortest = fmt == "json"
    assert calls == ([(2 * n_distinct, shortest)] if n_distinct >= cli._G17_DISTINCT else [])


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("order, wide", [
    pytest.param(("x", "s", "flag"), 0, id="0"),
    pytest.param(("x", "s", "flag"), 9, id="9"),
    pytest.param(("x", "s", "flag"), 400, id="400"),
    # The row separator after a text row, after a float row, and in a table of one column.
    pytest.param(("x", "flag", "s"), 400, id="text-last"),
    pytest.param(("s", "flag", "x"), 400, id="float-last"),
    pytest.param(("x",), 0, id="one-column"),
])
def test_tables_laid_out_in_blocks_match_the_row_writer_at_the_block_edges(
        fmt, order, wide, rng, monkeypatch):
    # With the cut-off at one distinct float, tables of under 512 distinct floats are laid
    # out as bytes too.  The text column sets the row width, and so the block size.
    monkeypatch.setattr(cli, "_G17_DISTINCT", 1)
    if order == ("x",):  # rows of 25 to 43 bytes: blocks of a few hundred rows, not thousands
        monkeypatch.setattr(cli, "_BLOCK_BYTES", 2**13)
    pool = ["\x00", "a\x00b", "é", "日本", "𝔭", "", "x" * wide]
    cell_sep, row_sep = (",", "\n") if fmt == "csv" else (cli._JSON_CELL, cli._JSON_ROW)
    # A row: a float (24 bytes), the widest text, True (4 bytes) and the separators.
    text_width = max(len((str if fmt == "csv" else json.dumps)(s).encode()) for s in pool)
    widths = {"x": floattext._WIDTH, "s": text_width, "flag": 4}
    width = sum(widths[name] for name in order) + (len(order) - 1) * len(cell_sep) + len(row_sep)
    block = cli._BLOCK_BYTES // width
    meta = {"command": "test"}
    for n_rows in [0, 1, block - 1, block, block + 1, 3 * block - 1, 3 * block + 1]:
        # (m, 1) columns beside a (c,) flag: c = 0 broadcasts m rows to none.
        m, c = (n_rows or 3, int(n_rows > 0)) if "flag" in order else (n_rows, 1)
        x = rng.uniform(-1, 1, m)
        x[:len(SPECIAL_FLOATS)] = SPECIAL_FLOATS[:m]
        text = [pool[j] for j in rng.integers(0, len(pool), m)]
        text[:len(pool)] = pool[:m]
        table = {"x": x.reshape(m, 1), "s": nested(text, (m, 1)), "flag": np.ones(c, dtype=bool)}
        table = {name: table[name] for name in order}
        if n_rows >= len(pool):  # the widest text is in the table, so the edges are as above
            assert len(cli._table_rows(table, fmt, cell_sep, row_sep)) == -(-n_rows // block)
        cells = {"x": x.tolist(), "s": text, "flag": [True] * m}
        rows = list(zip(*(cells[name] for name in order)))[:n_rows]
        assert table_text_of(fmt, table, meta) == table_text(fmt, list(order), rows, meta), n_rows
