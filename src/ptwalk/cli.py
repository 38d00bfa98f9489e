"""Command-line frontend: parameter parsing, presets, and deterministic export.

Every subcommand writes a plot-ready table (CSV with headers, or JSON with
run metadata) either to --out or to stdout.  Angle-valued flags accept
symbolic expressions ("pi/4", "arcsin(cos(pi/6)/alpha)"); alpha, beta, gamma
resolve from the --p of the run.  All outputs are byte-identical for
identical configurations and seeds.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Sequence
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .chern import build_submanifolds, chern_numbers
from .errors import ConfigError, WalkError
from .measurement import PairIntensities, reconstruct_bloch_field
from .presets import PRESETS, Preset, build_spec, final_params, preset_names
from .quench import QuenchSpec, bloch_field, find_fixed_points, initial_spinors
from .spectrum import band_structure, phase_diagram, pt_classify
from .walksim import evolve

__all__ = ["main"]


def _say(args, text: str) -> None:
    """Human-readable summary; kept off stdout when the table goes there."""
    stream = sys.stdout if args.out else sys.stderr
    print(text, file=stream)


# Cell text per format.  CSV writes floats with '%.17g' and every other value
# with str(), so bools read True/False.  JSON writes what json.dumps writes:
# float.__repr__ with NaN/Infinity/-Infinity, true/false, ASCII-escaped strings.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# From this many distinct floats in one column on, a table is laid out as bytes,
# its float text written by floattext in numpy.  Tables of few distinct floats
# (phase-diagram, chern) are faster in the Python join.
_G17_DISTINCT = 1024
# Such a table is laid out this many bytes of rows at a time, in one buffer.
# A 256 x 61 quench table took x0.74-0.92 of the time it took laid out whole in
# blocks of 2^16 to 2^20 bytes; 2^14 and 2^22 gained little.
_BLOCK_BYTES = 2**18
_JSON_CELL, _JSON_ROW = ",\n      ", "\n    ],\n    [\n      "


def _distinct(values) -> tuple[np.ndarray, np.ndarray]:
    """A column's distinct values, and each cell's index into them at the column's shape."""
    column = np.asarray(values)
    if column.dtype.kind == "U":  # numpy text drops trailing NULs; keep Python's strings
        column = np.array(values, dtype=object)
    key = column.reshape(-1)
    floats = column.dtype.kind == "f"
    if floats:  # bits, not values, so that -0.0 keeps its sign
        key = np.ascontiguousarray(key, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(key, return_inverse=True)
    return (distinct.view(np.float64) if floats else distinct), inverse.reshape(column.shape)


def _column_text(distinct: np.ndarray, fmt: str) -> list[str]:
    """The cell text of each distinct value of one column, by Python itself.

    A table with a float column of 1024 or more distinct values is laid out as
    bytes instead: every float column's text comes from ``floattext.float_rows``
    ('%.17g' for CSV, float.__repr__ for JSON, exact in numpy for the values in
    fixed notation and by this function for the rest), every other column's
    from this function as UTF-8, each distinct value one row padded with 0xFF.
    """
    if distinct.dtype.kind != "f":
        return list(map(str if fmt == "csv" else json.dumps, distinct.tolist()))
    text = list(map("%.17g".__mod__ if fmt == "csv" else float.__repr__, distinct.tolist()))
    if fmt == "json" and not np.isfinite(distinct).all():
        text = [_JSON_NONFINITE.get(s, s) for s in text]
    return text


def _table_rows(columns: dict[str, Sequence], fmt: str, cell_sep: str,
                row_sep: str) -> list[bytes]:
    """Each row's cells joined by cell_sep and ended by row_sep, in row order over
    the shape the columns broadcast to, as parts of whole rows to be joined."""
    distincts, indexes = zip(*map(_distinct, columns.values()))
    indexes = [index.reshape(-1) for index in np.broadcast_arrays(*indexes)]
    if not any(d.dtype.kind == "f" and d.size >= _G17_DISTINCT for d in distincts):
        cells = [np.array(_column_text(distinct, fmt), dtype=object)[index].tolist()
                 for distinct, index in zip(distincts, indexes)]
        return [row_sep.join([*map(cell_sep.join, zip(*cells)), ""]).encode()]
    # Imported on first use: its code and tables cost about 1 ms, which only a
    # table this large repays.
    from .floattext import float_rows, text_rows

    floats = [d for d in distincts if d.dtype.kind == "f"]  # in one call: each costs 0.1-0.2 ms
    float_text = iter(np.split(
        float_rows(np.concatenate(floats), fmt == "json", lambda rest: _column_text(rest, fmt)),
        np.cumsum([d.size for d in floats])[:-1]))
    rows = [next(float_text) if d.dtype.kind == "f" else text_rows(_column_text(d, fmt))
            for d in distincts]
    seps = [np.frombuffer(sep.encode(), dtype=np.uint8)
            for sep in [cell_sep] * (len(rows) - 1) + [row_sep]]
    n_rows = indexes[0].size
    width = sum(r.shape[1] + s.size for r, s in zip(rows, seps))
    block_rows = max(1, _BLOCK_BYTES // width)
    # One buffer for every block, its separator columns written once.
    block = np.empty((min(block_rows, n_rows), width), dtype=np.uint8)
    spans, start = [], 0
    for row, sep in zip(rows, seps):
        end = start + row.shape[1]
        block[:, end:end + sep.size] = sep
        spans.append(slice(start, end))
        start = end + sep.size
    parts = []
    for first in range(0, n_rows, block_rows):
        rows_here = block[:n_rows - first]
        for row, index, span in zip(rows, indexes, spans):
            # The indexes are in range; mode "clip" lets take write into the
            # strided out unbuffered.
            np.take(row, index[first:first + block_rows], axis=0, out=rows_here[:, span],
                    mode="clip")
        parts.append(rows_here.tobytes().translate(None, b"\xff"))
    return parts


def _csv_text(columns: dict[str, Sequence]) -> bytes:
    return b"".join([(",".join(columns) + "\n").encode(), *_table_rows(columns, "csv", ",", "\n")])


def _json_text(columns: dict[str, Sequence], meta: dict) -> bytes:
    """json.dumps(payload, indent=2, sort_keys=True) of the table, byte for byte."""
    text = json.dumps({"meta": meta, "columns": list(columns), "rows": []},
                      indent=2, sort_keys=True)
    rows = _table_rows(columns, "json", _JSON_CELL, _JSON_ROW)
    if not any(rows):
        return (text + "\n").encode()
    # "rows" sorts last, so the payload ends with its empty list: '[]\n}'.
    # Every part ends with a whole row; the last row's separator becomes the tail.
    head = (text[:-4] + "[\n    [\n      ").encode()
    return b"".join([head, *rows[:-1], rows[-1][:-len(_JSON_ROW)], b"\n    ]\n  ]\n}\n"])


def _table_data(fmt: str, columns: dict[str, Sequence], meta: dict) -> bytes:
    if fmt == "csv":
        return _csv_text(columns)
    if fmt == "json":
        return _json_text(columns, meta)
    raise ConfigError(f"unknown format {fmt!r}")


def _write_file(path: str, data: bytes) -> None:
    """Write one output file; a path that cannot be written is a ConfigError."""
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def _write_output(args, columns: dict[str, Sequence], meta: dict) -> None:
    data = _table_data(args.format, columns, meta)
    if args.out:
        _write_file(args.out, data)
    else:
        sys.stdout.write(data.decode("utf-8"))


def _rows_to_columns(names: list[str], rows: list[tuple]) -> dict[str, Sequence]:
    """Columns of a table of a few rows (fixed points, submanifolds)."""
    return dict(zip(names, zip(*rows))) if rows else dict.fromkeys(names, ())


def _meta(args, command: str, **extra) -> dict:
    meta = {"command": command, "version": __version__}
    for key in ("theta1", "theta2", "theta1_f", "theta2_f", "initial_state", "p", "preset",
                "kgrid", "tgrid", "tmax", "samples", "seed"):
        if hasattr(args, key) and getattr(args, key) is not None:
            meta[key] = getattr(args, key)
    meta.update(extra)
    return meta


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset (None) flags from the optional JSON config file.

    A config file can set the --flags its subcommand reads, but not --config
    itself; the positional is always set on the command line.
    """
    if not getattr(args, "config", None):
        return args
    try:
        data = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object of flag values")
    flags = {flag[2:].replace("-", "_"): _FLAGS[flag] for flag in _COMMANDS[args.command][2]
             if flag.startswith("--") and flag != "--config"}
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest not in flags:
            raise ConfigError(
                f"config key {key!r} is not a flag a config file can set for {args.command}"
            )
        if value is None:
            continue
        value = _config_value(key, value, flags[dest])
        if getattr(args, dest) is None:
            setattr(args, dest, value)
    return args


def _config_value(key: str, value, keywords: dict):
    """A config value as its flag would hold it; text goes through the flag's type.

    A JSON number where the flag takes one (any number for a float flag, an
    integer for an int flag) becomes the flag's type, so that {"p": 0} writes
    the meta "p": 0.0 as --p 0 does; anything else is a ConfigError.
    """
    kind = keywords.get("type", str)
    if isinstance(value, str):
        try:
            value = kind(value)
        except ValueError:
            raise ConfigError(
                f"config key {key!r}: {value!r} is not a valid {kind.__name__}"
            ) from None
    elif type(value) is kind or kind is float and type(value) is int:
        try:
            value = kind(value)
        except OverflowError:  # a JSON integer beyond the double range
            raise ConfigError(f"config key {key!r}: integer out of float range") from None
    else:
        raise ConfigError(
            f"config key {key!r} takes a {kind.__name__}, got {type(value).__name__} {value!r}"
        )
    choices = keywords.get("choices")
    if choices is not None and value not in choices:
        raise ConfigError(f"config key {key!r}: {value!r} is not one of {list(choices)}")
    return value


# The smallest value of each size flag; --tgrid 0 means stroboscopic times and
# --samples 0 noiseless probabilities.
_SIZE_MINIMA = {"kgrid": 1, "res": 1, "tmax": 0, "tgrid": 0, "samples": 0}


def _check_sizes(args) -> None:
    for key, minimum in _SIZE_MINIMA.items():
        value = getattr(args, key, None)
        if value is not None and value < minimum:
            kind = "positive" if minimum else "non-negative"
            raise ConfigError(f"--{key} must be {kind}, got {value}")


def _require(args, *keys):
    for key in keys:
        if getattr(args, key) is None:
            flag = "--" + key.replace("_", "-")
            raise ConfigError(f"{flag} is required for this command")


def _defaults(args, **pairs):
    for key, value in pairs.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; choose from {', '.join(preset_names())}"
        ) from None


# The preset field each angle flag writes over.  Single-operator commands
# (spectrum) read --theta1/--theta2 as the angles of the final operator.
_SINGLE_FIELDS = {"theta1": "theta1_f", "theta2": "theta2_f"}
_QUENCH_FIELDS = {"theta1": "theta1_i", "theta2": "theta2_i", "theta1_f": "theta1_f",
                  "theta2_f": "theta2_f"}
# Base of a run without --preset: lossless, lower-band start, all angles from flags.
_FLAGS_ONLY = Preset("", "", "", "", "", p=0.0, initial_state=None, description="")


def _flag_preset(args, fields: dict[str, str]) -> Preset:
    """The chosen preset (or flags alone) with every given flag written over it."""
    if args.preset:
        base = _preset(args.preset)
    else:
        _require(args, *fields)
        base = _FLAGS_ONLY
    changes = {
        field: getattr(args, flag) for flag, field in fields.items()
        if getattr(args, flag) is not None
    }
    if args.p is not None:
        changes["p"] = args.p
    if getattr(args, "initial_state", None) is not None:
        changes["initial_state"] = _initial_state(args.initial_state)
    return replace(base, **changes)


def _quench_spec(args) -> QuenchSpec:
    """Quench specification from flags, optionally seeded by a preset."""
    return build_spec(_flag_preset(args, _QUENCH_FIELDS))


def _initial_state(text: str) -> tuple[str, str] | None:
    if text == "eigenstate":
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(
            "--initial-state takes 'eigenstate' or two comma-separated amplitudes"
        )
    return parts[0], parts[1]


def _bloch_columns(field) -> dict[str, Sequence]:
    """The n(k, t) table, k-major: each column at its own shape, broadcast to (n_k, n_t)."""
    return {
        "k": field.ks[:, None],
        "t": field.ts,
        "n1": field.n[..., 0],
        "n2": field.n[..., 1],
        "n3": field.n[..., 2],
        "regime": np.where(field.real_regime, "real", "imaginary")[:, None],
        "source": field.source,
    }


def cmd_spectrum(args) -> int:
    _defaults(args, kgrid=512)
    params = final_params(_flag_preset(args, _SINGLE_FIELDS))
    bands = band_structure(params, np.linspace(-np.pi, np.pi, args.kgrid, endpoint=False))
    columns = {
        "k": bands.ks,
        "re_energy": bands.energies.real,
        "im_energy": bands.energies.imag,
        "pt_broken": bands.pt_broken_mask,
    }
    _write_output(args, columns, _meta(args, "spectrum", pt_phase=pt_classify(params).value))
    return 0


def cmd_phase_diagram(args) -> int:
    _defaults(args, res=32, p=0.0)
    thetas1 = np.linspace(-np.pi, np.pi, args.res, endpoint=False)
    thetas2 = np.linspace(-np.pi, np.pi, args.res, endpoint=False)
    cells = phase_diagram(thetas1, thetas2, args.p)
    columns = {name: cells[name] for name in cells.dtype.names}
    _write_output(args, columns, _meta(args, "phase-diagram", res=args.res))
    return 0


def cmd_quench(args) -> int:
    _defaults(args, kgrid=256, tmax=6)
    spec = _quench_spec(args)
    ts = np.linspace(0.0, args.tmax, args.tgrid) if args.tgrid else None
    field = bloch_field(spec, n_k=args.kgrid, ts=ts, t_max=args.tmax)
    meta = _meta(args, "quench", eigenstate_initial=bool(field.eigenstate_initial))
    _write_output(args, _bloch_columns(field), meta)
    return 0


def cmd_fixed_points(args) -> int:
    spec = _quench_spec(args)
    points = find_fixed_points(spec)
    for fp in points:
        _say(args, f"k/pi = {fp.k / np.pi:+.6f}  {fp.kind.value}  |c|^2 = {fp.residual:.3e}")
    if not points:
        _say(args, "no fixed points found")
    rows = [(fp.k, fp.k / np.pi, fp.kind.value, fp.residual) for fp in points]
    columns = _rows_to_columns(["k", "k_over_pi", "kind", "residual"], rows)
    _write_output(args, columns, _meta(args, "fixed-points", count=len(points)))
    return 0


def cmd_chern(args) -> int:
    _defaults(args, kgrid=256, tgrid=256)
    spec = _quench_spec(args)
    points = find_fixed_points(spec)
    subs = build_submanifolds(points)
    rows = []
    for sub, (riemann, solid) in zip(subs, chern_numbers(spec, subs, args.kgrid, args.tgrid)):
        rows.append(
            (
                sub.k_lo,
                sub.k_hi,
                sub.kind_lo.value,
                sub.kind_hi.value,
                riemann.value,
                riemann.rounded,
                solid.value,
                solid.rounded,
            )
        )
        _say(
            args,
            f"[{sub.k_lo / np.pi:+.4f}pi, {sub.k_hi / np.pi:+.4f}pi]  "
            f"C = {riemann.rounded:+d} (riemann {riemann.value:+.5f}, "
            f"solid-angle {solid.value:+.5f})",
        )
    if not subs:
        _say(args, "fewer than two fixed points: no submanifolds")
    columns = _rows_to_columns(
        ["k_lo", "k_hi", "kind_lo", "kind_hi", "c_riemann", "c_riemann_rounded",
         "c_solid_angle", "c_solid_angle_rounded"],
        rows,
    )
    _write_output(args, columns, _meta(args, "chern", submanifolds=len(subs)))
    return 0


def cmd_reconstruct(args) -> int:
    _defaults(args, kgrid=256, tmax=6, seed=0)
    spec = _quench_spec(args)
    steps = []

    def record(t, site, pairs):
        steps.append(_pair_columns(t, pairs))

    field = reconstruct_bloch_field(
        spec,
        t_max=args.tmax,
        n_k=args.kgrid,
        n_samples=args.samples or None,
        seed=args.seed,
        on_step=record if args.dump_probs else None,
    )
    meta = _meta(args, "reconstruct", eigenstate_initial=bool(field.eigenstate_initial))
    if args.dump_probs:
        dump = {name: np.concatenate([step[name] for step in steps]) for name in steps[0]}
        _write_file(args.dump_probs, _csv_text(dump))
    if args.dump_amps:
        _dump_amplitudes(args, spec)
    _write_output(args, _bloch_columns(field), meta)
    return 0


def _dump_amplitudes(args, spec: QuenchSpec) -> None:
    coin = initial_spinors(spec, np.array([0.0]))[0]
    states = evolve(coin, spec.final, args.tmax)
    amps = np.concatenate([state.amplitudes for state in states])
    columns = {
        "t": np.repeat(np.arange(len(states)), [len(state.amplitudes) for state in states]),
        "x": np.concatenate([state.sites for state in states]),
        "re_a": amps[:, 0].real,
        "im_a": amps[:, 0].imag,
        "re_b": amps[:, 1].real,
        "im_b": amps[:, 1].imag,
    }
    _write_file(args.dump_amps, _csv_text(columns))


def _pair_columns(t: int, pairs: PairIntensities) -> dict[str, np.ndarray]:
    """Dump rows of one step: pairs x1 != x2 in row-major order, then j = 1..4."""
    distinct = ~np.eye(len(pairs.p_l), dtype=bool)
    i1, i2 = np.nonzero(distinct)
    return {
        "t": np.full(4 * len(i1), t),
        "x1": np.repeat(i1 + pairs.x_min, 4),
        "x2": np.repeat(i2 + pairs.x_min, 4),
        "j": np.tile(np.arange(1, 5), len(i1)),
        "p_l": pairs.p_l[distinct].reshape(-1),
        "p_d": pairs.p_d[distinct].reshape(-1),
    }


def cmd_preset(args) -> int:
    preset = _preset(args.name)
    args.preset = preset.name
    _say(args, f"# preset {preset.name}: {preset.description}")
    return cmd_quench(args)


# Every argument once, with its add_argument keywords; argparse derives the dest.
_FLAGS = {
    "name": {"choices": preset_names(), "help": "bundled configuration"},
    "--theta1": {"help": "initial coin angle 1 (expression)"},
    "--theta2": {"help": "initial coin angle 2 (expression)"},
    "--theta1-f": {"help": "final coin angle 1 (expression)"},
    "--theta2-f": {"help": "final coin angle 2 (expression)"},
    "--initial-state": {"help": "'eigenstate' (default) or 'a,b': two amplitude expressions"},
    "--preset": {"help": f"one of: {', '.join(preset_names())}"},
    "--p": {"type": float, "help": "loss probability in [0, 1)"},
    "--kgrid": {"type": int, "help": "momentum grid size"},
    "--tgrid": {"type": int, "help": "time grid size"},
    "--tmax": {"type": int, "help": "number of walk steps"},
    "--samples": {"type": int, "help": "shot-noise samples per configuration"},
    "--seed": {"type": int, "help": "noise seed"},
    "--res": {"type": int, "help": "cells per angle axis (>= 32)"},
    "--dump-probs": {"help": "also write raw pair intensities"},
    "--dump-amps": {"help": "also write per-step walk amplitudes"},
    "--out": {"help": "output path (default: stdout)"},
    # No default here: a config file may set it; main() falls back to csv.
    "--format": {"choices": ("csv", "json"), "help": "csv (default) or json"},
    "--config": {"help": "JSON file of flag values (flags override)"},
}
_QUENCH_FLAGS = ("--theta1", "--theta2", "--theta1-f", "--theta2-f", "--initial-state", "--p")
_OUTPUT_FLAGS = ("--out", "--format", "--config")
# Per subcommand: handler, help, the arguments it reads and any per-command help.
_COMMANDS = {
    "spectrum": (cmd_spectrum, "quasienergy bands over the momentum zone",
                 ("--theta1", "--theta2", "--preset", "--p", "--kgrid", *_OUTPUT_FLAGS),
                 {"--theta1": "coin angle 1 of the operator (expression)",
                  "--theta2": "coin angle 2 of the operator (expression)",
                  "--preset": "take the final-operator angles and p from one of: "
                             + ", ".join(preset_names())}),
    "phase-diagram": (cmd_phase_diagram, "winding numbers over the coin-angle plane",
                      ("--p", "--res", *_OUTPUT_FLAGS), {}),
    "quench": (cmd_quench, "Bloch-vector texture n(k, t)",
               (*_QUENCH_FLAGS, "--preset", "--kgrid", "--tgrid", "--tmax", *_OUTPUT_FLAGS), {}),
    "fixed-points": (cmd_fixed_points, "momenta where one overlap vanishes",
                     (*_QUENCH_FLAGS, "--preset", *_OUTPUT_FLAGS), {}),
    "chern": (cmd_chern, "dynamic Chern numbers per submanifold",
              (*_QUENCH_FLAGS, "--preset", "--kgrid", "--tgrid", *_OUTPUT_FLAGS), {}),
    "reconstruct": (cmd_reconstruct, "walk, measure, and rebuild n(k, t) from probabilities",
                    (*_QUENCH_FLAGS, "--preset", "--kgrid", "--tmax", "--samples", "--seed",
                     "--dump-probs", "--dump-amps", *_OUTPUT_FLAGS), {}),
    "preset": (cmd_preset, "run a bundled configuration end to end",
               ("name", *_QUENCH_FLAGS, "--kgrid", "--tgrid", "--tmax", *_OUTPUT_FLAGS), {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptwalk",
        description="Non-unitary quantum-walk quench dynamics and its topology",
    )
    parser.add_argument("--version", action="version", version=f"ptwalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, text, flags, helps) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=text)
        for flag in flags:
            keywords = _FLAGS[flag] | {"help": helps.get(flag, _FLAGS[flag]["help"])}
            cmd.add_argument(flag, **keywords)
        cmd.set_defaults(func=func)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: parse_args leaves no state in it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args)
        args.format = args.format or "csv"
        _check_sizes(args)
        try:
            return args.func(args)
        except ValueError as exc:  # a library precondition: grid size, loss range, ...
            raise ConfigError(str(exc)) from None
    except WalkError as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
