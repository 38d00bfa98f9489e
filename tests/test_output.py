"""Column-wise table encoding against the row-at-a-time writer it replaced."""

import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from output_oracle import table_text
from ptwalk import cli, floattext
from ptwalk.cli import _bloch_columns, _table_data
from ptwalk.floattext import float_rows
from ptwalk.floquet import CoinParams
from ptwalk.presets import PRESETS, build_spec
from ptwalk.quench import bloch_field

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


@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(big_tables(), st.sampled_from(["csv", "json"]))
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
@pytest.mark.parametrize("n_distinct", [1023, 1024])
def test_a_float_column_on_either_side_of_the_fast_encoder_matches_the_row_writer(
        n_distinct, fmt, rng, monkeypatch):
    # From 1024 distinct values on, one floattext.float_rows call writes every float column.
    # A mostly fixed-notation column, with every value it leaves to Python mixed in.
    calls = []

    def counted(values, shortest, texts):
        calls.append((values.size, shortest))
        return float_rows(values, shortest, texts)

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
    assert calls == ([(2 * n_distinct, shortest)] if n_distinct >= 1024 else [])


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("wide", [0, 9, 400])
def test_tables_laid_out_in_blocks_match_the_row_writer_at_the_block_edges(
        fmt, wide, rng, monkeypatch):
    # With the cut-off at one distinct float, tables of under 1024 rows are laid
    # out as bytes too.  The text column sets the row width, and so the block size.
    monkeypatch.setattr(cli, "_G17_DISTINCT", 1)
    pool = ["\x00", "a\x00b", "é", "日本", "𝔭", "", "x" * wide]
    cell_sep, row_sep = (",", "\n") if fmt == "csv" else (cli._JSON_CELL, cli._JSON_ROW)
    # A row: a float (24 bytes), the widest text, True (4 bytes) and the separators.
    text_width = max(len((str if fmt == "csv" else json.dumps)(s).encode()) for s in pool)
    width = floattext._WIDTH + text_width + 4 + 2 * len(cell_sep) + len(row_sep)
    block = cli._BLOCK_BYTES // width
    meta = {"command": "test"}
    for n_rows in [0, 1, block - 1, block, block + 1, 3 * block - 1, 3 * block + 1]:
        # (m, 1) columns beside a (c,) flag: c = 0 broadcasts m rows to none.
        m, c = n_rows or 3, int(n_rows > 0)
        x = rng.uniform(-1, 1, m)
        x[:len(SPECIAL_FLOATS)] = SPECIAL_FLOATS[:m]
        text = [pool[j] for j in rng.integers(0, len(pool), m)]
        text[:len(pool)] = pool[:m]
        table = {"x": x.reshape(m, 1), "s": nested(text, (m, 1)), "flag": np.ones(c, dtype=bool)}
        if n_rows >= len(pool):  # the widest text is in the table, so the edges are as above
            assert len(cli._table_rows(table, fmt, cell_sep, row_sep)) == -(-n_rows // block)
        want = table_text(fmt, list(table), list(zip(x.tolist(), text, [True] * n_rows)), meta)
        assert table_text_of(fmt, table, meta) == want, n_rows
