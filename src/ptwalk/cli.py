"""Command-line frontend: parameter parsing, presets, and deterministic export.

Every subcommand writes a plot-ready table (CSV with headers, or JSON with
run metadata) either to --out or to stdout.  Angle-valued flags accept
symbolic expressions ("pi/4", "arcsin(cos(pi/6)/alpha)"); alpha, beta, gamma
resolve from the --p of the run.  All outputs are byte-identical for
identical configurations and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .chern import build_submanifolds, chern_riemann, chern_solid_angle
from .errors import ConfigError, WalkError
from .floquet import CoinParams
from .measurement import (
    all_pair_probabilities,
    reconstruct_bloch_field,
    sample_shot_noise,
)
from .presets import PRESETS, Preset, build_spec, final_params, preset_names
from .quench import QuenchSpec, bloch_field, find_fixed_points, initial_spinors
from .spectrum import band_structure, phase_diagram, pt_classify
from .walksim import evolve

__all__ = ["main"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _say(args, text: str) -> None:
    """Human-readable summary; kept off stdout when the table goes there."""
    stream = sys.stdout if args.out else sys.stderr
    print(text, file=stream)


def _write_output(args, columns: list[str], rows: list[tuple], meta: dict) -> None:
    fmt = args.format
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = {
            "meta": meta,
            "columns": columns,
            "rows": [list(row) for row in rows],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _meta(args, command: str, **extra) -> dict:
    meta = {"command": command, "version": __version__}
    for key in ("theta1", "theta2", "theta1_f", "theta2_f", "p", "preset", "kgrid",
                "tgrid", "tmax", "samples", "seed"):
        if hasattr(args, key) and getattr(args, key) is not None:
            meta[key] = getattr(args, key)
    meta.update(extra)
    return meta


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset (None) flags from the optional JSON config file."""
    if not getattr(args, "config", None):
        return args
    try:
        data = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object of flag values")
    for key, value in data.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ConfigError(f"config key {key!r} does not match any flag")
        if getattr(args, attr) is None:
            setattr(args, attr, value)
    return args


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
    changes = {field: getattr(args, flag) for flag, field in fields.items() if getattr(args, flag)}
    if args.p is not None:
        changes["p"] = args.p
    if getattr(args, "initial_state", None) is not None:
        changes["initial_state"] = _initial_state(args.initial_state)
    return replace(base, **changes)


def _single_params(args) -> CoinParams:
    """Coin parameters for single-operator commands (spectrum)."""
    return final_params(_flag_preset(args, _SINGLE_FIELDS))


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


def _bloch_rows(field) -> list[tuple]:
    rows = []
    for i, k in enumerate(field.ks):
        regime = "real" if field.real_regime[i] else "imaginary"
        for j, t in enumerate(field.ts):
            n1, n2, n3 = field.n[i, j]
            rows.append((float(k), float(t), float(n1), float(n2), float(n3),
                         regime, field.source))
    return rows


_BLOCH_COLUMNS = ["k", "t", "n1", "n2", "n3", "regime", "source"]


def cmd_spectrum(args) -> int:
    _defaults(args, kgrid=512)
    params = _single_params(args)
    bands = band_structure(params, np.linspace(-np.pi, np.pi, args.kgrid, endpoint=False))
    rows = [
        (float(k), float(e.real), float(e.imag), bool(m))
        for k, e, m in zip(bands.ks, bands.energies, bands.pt_broken_mask)
    ]
    meta = _meta(args, "spectrum", pt_phase=pt_classify(params).value)
    _write_output(args, ["k", "re_energy", "im_energy", "pt_broken"], rows, meta)
    return 0


def cmd_phase_diagram(args) -> int:
    _defaults(args, res=32, kgrid=256, p=0.0)
    thetas1 = np.linspace(-np.pi, np.pi, args.res, endpoint=False)
    thetas2 = np.linspace(-np.pi, np.pi, args.res, endpoint=False)
    cells = phase_diagram(thetas1, thetas2, args.p, n_k=args.kgrid)
    rows = [
        (
            c.theta1,
            c.theta2,
            float("nan") if c.nu is None else float(c.nu),
            c.pt_broken,
            c.min_gap,
        )
        for c in cells
    ]
    meta = _meta(args, "phase-diagram", res=args.res)
    _write_output(args, ["theta1", "theta2", "nu", "pt_broken", "min_gap"], rows, meta)
    return 0


def cmd_quench(args) -> int:
    _defaults(args, kgrid=256, tmax=6)
    spec = _quench_spec(args)
    ts = (
        np.linspace(0.0, args.tmax, args.tgrid)
        if args.tgrid
        else np.arange(args.tmax + 1, dtype=float)
    )
    field = bloch_field(spec, n_k=args.kgrid, ts=ts)
    meta = _meta(args, "quench", eigenstate_initial=bool(field.eigenstate_initial))
    _write_output(args, _BLOCH_COLUMNS, _bloch_rows(field), meta)
    return 0


def cmd_fixed_points(args) -> int:
    _defaults(args, kgrid=512)
    spec = _quench_spec(args)
    points = find_fixed_points(spec, n_k=args.kgrid)
    for fp in points:
        _say(args, f"k/pi = {fp.k / np.pi:+.6f}  {fp.kind.value}  |c|^2 = {fp.residual:.3e}")
    if not points:
        _say(args, "no fixed points found")
    rows = [(fp.k, fp.k / np.pi, fp.kind.value, fp.residual) for fp in points]
    meta = _meta(args, "fixed-points", count=len(points))
    _write_output(args, ["k", "k_over_pi", "kind", "residual"], rows, meta)
    return 0


def cmd_chern(args) -> int:
    _defaults(args, kgrid=256, tgrid=256)
    spec = _quench_spec(args)
    points = find_fixed_points(spec, n_k=512)
    subs = build_submanifolds(points)
    rows = []
    for sub in subs:
        riemann = chern_riemann(sub, spec, n_k=args.kgrid, n_t=args.tgrid)
        solid = chern_solid_angle(
            sub, spec, n_k=min(args.kgrid, 128), n_t=min(args.tgrid, 128)
        )
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
    meta = _meta(args, "chern", submanifolds=len(subs))
    _write_output(
        args,
        ["k_lo", "k_hi", "kind_lo", "kind_hi", "c_riemann", "c_riemann_rounded",
         "c_solid_angle", "c_solid_angle_rounded"],
        rows,
        meta,
    )
    return 0


def cmd_reconstruct(args) -> int:
    _defaults(args, kgrid=256, tmax=6, seed=0)
    spec = _quench_spec(args)
    field = reconstruct_bloch_field(
        spec,
        t_max=args.tmax,
        n_k=args.kgrid,
        n_samples=args.samples or None,
        seed=args.seed,
    )
    meta = _meta(args, "reconstruct", eigenstate_initial=bool(field.eigenstate_initial))
    if args.dump_probs:
        _dump_probabilities(args, spec)
    if args.dump_amps:
        _dump_amplitudes(args, spec)
    _write_output(args, _BLOCH_COLUMNS, _bloch_rows(field), meta)
    return 0


def _dump_amplitudes(args, spec: QuenchSpec) -> None:
    coin = initial_spinors(spec, np.array([0.0]))[0]
    lines = ["t,x,re_a,im_a,re_b,im_b"]
    for t, state in enumerate(evolve(coin, spec.final, args.tmax)):
        for x, (a, b) in zip(state.sites, state.amplitudes):
            lines.append(
                ",".join(_fmt(v) for v in (t, int(x), a.real, a.imag, b.real, b.imag))
            )
    Path(args.dump_amps).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _dump_probabilities(args, spec: QuenchSpec) -> None:
    coin = initial_spinors(spec, np.array([0.0]))[0]
    rows = []
    for t, state in enumerate(evolve(coin, spec.final, args.tmax)):
        pairs = all_pair_probabilities(state)
        if args.samples:
            pairs = [
                sample_shot_noise(p, args.samples, seed=args.seed * 1000003 + t)
                for p in pairs
            ]
        for pair in pairs:
            for j in range(4):
                rows.append((t, pair.x1, pair.x2, j + 1, pair.p_l[j], pair.p_d[j]))
    lines = ["t,x1,x2,j,p_l,p_d"]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    Path(args.dump_probs).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_preset(args) -> int:
    preset = _preset(args.name)
    args.preset = preset.name
    _say(args, f"# preset {preset.name}: {preset.description}")
    return cmd_quench(args)


def _add_common(parser: argparse.ArgumentParser, *, quench_params: bool) -> None:
    parser.add_argument("--theta1", help="initial coin angle 1 (expression)")
    parser.add_argument("--theta2", help="initial coin angle 2 (expression)")
    if quench_params:
        parser.add_argument("--theta1-f", dest="theta1_f", help="final coin angle 1")
        parser.add_argument("--theta2-f", dest="theta2_f", help="final coin angle 2")
        parser.add_argument(
            "--initial-state",
            dest="initial_state",
            help="'eigenstate' (default) or two comma-separated amplitude expressions",
        )
        parser.add_argument("--preset", help=f"one of: {', '.join(preset_names())}")
    parser.add_argument("--p", type=float, help="loss probability in [0, 1)")
    parser.add_argument("--kgrid", type=int, help="momentum grid size")
    parser.add_argument("--tgrid", type=int, help="time grid size")
    parser.add_argument("--tmax", type=int, help="number of walk steps")
    parser.add_argument("--samples", type=int, help="shot-noise samples per configuration")
    parser.add_argument("--seed", type=int, help="noise seed")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--config", help="JSON file of flag values (flags override)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptwalk",
        description="Non-unitary quantum-walk quench dynamics and its topology",
    )
    parser.add_argument("--version", action="version", version=f"ptwalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="quasienergy bands over the momentum zone")
    _add_common(p_spec, quench_params=False)
    p_spec.add_argument("--preset", help="take final-operator angles from a preset")
    p_spec.set_defaults(func=cmd_spectrum)

    p_diag = sub.add_parser("phase-diagram", help="winding numbers over the coin-angle plane")
    _add_common(p_diag, quench_params=False)
    p_diag.add_argument("--preset", help=argparse.SUPPRESS)
    p_diag.add_argument("--res", type=int, help="cells per angle axis (>= 32)")
    p_diag.set_defaults(func=cmd_phase_diagram)

    p_quench = sub.add_parser("quench", help="Bloch-vector texture n(k, t)")
    _add_common(p_quench, quench_params=True)
    p_quench.set_defaults(func=cmd_quench)

    p_fp = sub.add_parser("fixed-points", help="momenta where one overlap vanishes")
    _add_common(p_fp, quench_params=True)
    p_fp.set_defaults(func=cmd_fixed_points)

    p_chern = sub.add_parser("chern", help="dynamic Chern numbers per submanifold")
    _add_common(p_chern, quench_params=True)
    p_chern.set_defaults(func=cmd_chern)

    p_rec = sub.add_parser(
        "reconstruct", help="walk, measure, and rebuild n(k, t) from probabilities"
    )
    _add_common(p_rec, quench_params=True)
    p_rec.add_argument("--dump-probs", dest="dump_probs", help="also write raw pair intensities")
    p_rec.add_argument("--dump-amps", dest="dump_amps", help="also write per-step walk amplitudes")
    p_rec.set_defaults(func=cmd_reconstruct)

    p_preset = sub.add_parser("preset", help="run a bundled configuration end to end")
    p_preset.add_argument("name", choices=preset_names())
    _add_common(p_preset, quench_params=True)
    p_preset.set_defaults(func=cmd_preset)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args)
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
