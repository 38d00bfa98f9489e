"""Command-line interface: exports, presets, determinism, error mapping."""

import argparse
import csv
import hashlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from ptwalk import cli
from ptwalk.cli import build_parser, main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, "empty table"
    return rows


# The flags each subcommand reads, and no other: 77 settable values in all.
QUENCH_FLAGS = {"--theta1", "--theta2", "--theta1-f", "--theta2-f", "--initial-state", "--p"}
OUTPUT_FLAGS = {"--out", "--format", "--config"}
COMMAND_FLAGS = {
    "spectrum": {"--theta1", "--theta2", "--preset", "--p", "--kgrid", *OUTPUT_FLAGS},
    "phase-diagram": {"--p", "--res", *OUTPUT_FLAGS},
    "quench": {*QUENCH_FLAGS, "--preset", "--kgrid", "--tgrid", "--tmax", *OUTPUT_FLAGS},
    "fixed-points": {*QUENCH_FLAGS, "--preset", *OUTPUT_FLAGS},
    "chern": {*QUENCH_FLAGS, "--preset", "--kgrid", "--tgrid", *OUTPUT_FLAGS},
    "reconstruct": {*QUENCH_FLAGS, "--preset", "--kgrid", "--tmax", "--samples", "--seed",
                    "--dump-probs", "--dump-amps", *OUTPUT_FLAGS},
    "preset": {"name", *QUENCH_FLAGS, "--kgrid", "--tgrid", "--tmax", *OUTPUT_FLAGS},
}
# Flags a subcommand does not read: each is a usage error there.
UNREAD_FLAGS = {
    "spectrum": ("--tgrid", "--tmax", "--samples", "--seed"),
    "phase-diagram": ("--theta1", "--theta2", "--preset", "--kgrid", "--tgrid", "--tmax",
                      "--samples", "--seed"),
    "quench": ("--samples", "--seed"),
    "fixed-points": ("--kgrid", "--tgrid", "--tmax", "--samples", "--seed"),
    "chern": ("--tmax", "--samples", "--seed"),
    "reconstruct": ("--tgrid",),
    "preset": ("--preset", "--samples", "--seed"),
}
UNREAD = [(command, flag) for command, flags in UNREAD_FLAGS.items() for flag in flags]


def test_each_subcommand_takes_only_the_flags_it_reads():
    parser = build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: {a.option_strings[-1] if a.option_strings else a.dest
               for a in command._actions if a.dest != "help"}
        for name, command in commands.choices.items()
    }
    assert flags == COMMAND_FLAGS
    assert sum(map(len, flags.values())) == 77
    assert len(UNREAD) == 26


@pytest.mark.parametrize("command, flag", UNREAD, ids=[" ".join(pair) for pair in UNREAD])
def test_a_flag_the_command_does_not_read_is_a_usage_error(command, flag, capsys):
    argv = [command, *(["fig3b"] if command == "preset" else []), flag, "1"]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_quench_preset_export(tmp_path, capsys):
    out = tmp_path / "texture.csv"
    code, _, _ = run_cli(["preset", "fig3b", "--out", str(out), "--kgrid", "32"], capsys)
    assert code == 0
    rows = read_csv(out.read_text())
    assert set(rows[0]) == {"k", "t", "n1", "n2", "n3", "regime", "source"}
    assert len(rows) == 32 * 7
    ns = np.array([[float(r["n1"]), float(r["n2"]), float(r["n3"])] for r in rows])
    np.testing.assert_allclose(np.linalg.norm(ns, axis=1), 1.0, atol=1e-10)
    assert all(r["regime"] == "real" and r["source"] == "analytic" for r in rows)


def test_fixed_points_preset_stdout(capsys):
    code, out, err = run_cli(["fixed-points", "--preset", "fig3a"], capsys)
    assert code == 0
    printed = [line for line in err.splitlines() if line.startswith("k/pi")]
    assert len(printed) == 4
    for want in ("-1.000000", "-0.500000", "+0.000000", "+0.500000"):
        assert any(want in line for line in printed), printed
    rows = read_csv(out)
    ks = sorted(float(r["k_over_pi"]) for r in rows)
    np.testing.assert_allclose(ks, [-1.0, -0.5, 0.0, 0.5], atol=1e-6)


def test_chern_preset_fig6_all_zero(tmp_path, capsys):
    out = tmp_path / "chern.csv"
    code, _, _ = run_cli(
        ["chern", "--preset", "fig6", "--kgrid", "96", "--tgrid", "96", "--out", str(out)],
        capsys,
    )
    assert code == 0
    rows = read_csv(out.read_text())
    assert len(rows) == 4
    assert all(int(r["c_riemann_rounded"]) == 0 for r in rows)
    assert all(int(r["c_solid_angle_rounded"]) == 0 for r in rows)


def test_quench_preset_broken_regime(capsys):
    code, out, _ = run_cli(["quench", "--preset", "fig4", "--kgrid", "16", "--tmax", "2"], capsys)
    assert code == 0
    rows = read_csv(out)
    assert all(r["regime"] == "imaginary" for r in rows)
    # relaxation: n3 never decreases along t in any momentum sector
    by_k = {}
    for r in rows:
        by_k.setdefault(r["k"], []).append((float(r["t"]), float(r["n3"])))
    for series in by_k.values():
        series.sort()
        n3s = [v for _, v in series]
        assert all(b >= a - 1e-12 for a, b in zip(n3s, n3s[1:]))


def test_spectrum_explicit_angles(capsys):
    code, out, _ = run_cli(
        ["spectrum", "--theta1=-pi/2", "--theta2", "pi/3", "--kgrid", "64"], capsys
    )
    assert code == 0
    rows = read_csv(out)
    energies = {float(r["re_energy"]) for r in rows}
    assert all(abs(e - np.pi / 6) < 1e-12 for e in energies)
    assert all(r["pt_broken"] == "False" for r in rows)


def test_symbolic_alpha_expression(capsys):
    code, out, _ = run_cli(
        [
            "spectrum",
            "--theta1=-pi/2",
            "--theta2",
            "arcsin(cos(pi/6)/alpha)",
            "--p",
            "0.36",
            "--kgrid",
            "64",
        ],
        capsys,
    )
    assert code == 0
    rows = read_csv(out)
    assert all(abs(float(r["re_energy"]) - np.pi / 6) < 1e-12 for r in rows)


def test_byte_identical_outputs(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, _, _ = run_cli(
            ["reconstruct", "--preset", "fig3b", "--kgrid", "16", "--tmax", "2",
             "--samples", "2000", "--seed", "42", "--out", str(path)],
            capsys,
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    code, _, _ = run_cli(
        ["reconstruct", "--preset", "fig3b", "--kgrid", "16", "--tmax", "2",
         "--samples", "2000", "--seed", "43", "--out", str(tmp_path / "c.csv")],
        capsys,
    )
    assert (tmp_path / "c.csv").read_bytes() != paths[0].read_bytes()


def test_reconstruct_matches_quench_noiseless(tmp_path, capsys):
    rec_path, ana_path = tmp_path / "rec.csv", tmp_path / "ana.csv"
    run_cli(["reconstruct", "--preset", "fig3a", "--kgrid", "16", "--tmax", "3",
             "--out", str(rec_path)], capsys)
    run_cli(["quench", "--preset", "fig3a", "--kgrid", "16", "--tmax", "3",
             "--out", str(ana_path)], capsys)
    rec = read_csv(rec_path.read_text())
    ana = read_csv(ana_path.read_text())
    assert len(rec) == len(ana)
    for a, b in zip(rec, ana):
        assert a["source"] == "reconstructed" and b["source"] == "analytic"
        for col in ("n1", "n2", "n3"):
            assert abs(float(a[col]) - float(b[col])) < 1e-9


def test_json_format_and_meta(capsys):
    code, out, _ = run_cli(
        ["quench", "--preset", "fig3a", "--kgrid", "8", "--tmax", "1", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["command"] == "quench"
    assert payload["meta"]["preset"] == "fig3a"
    assert payload["columns"][:2] == ["k", "t"]
    assert len(payload["rows"]) == 16


def test_json_meta_names_the_initial_state_flag(capsys):
    argv = ["quench", "--preset", "fig3b", "--kgrid", "8", "--tmax", "1", "--format", "json"]
    code, out, _ = run_cli([*argv, "--initial-state=1,i"], capsys)
    assert code == 0
    assert json.loads(out)["meta"]["initial_state"] == "1,i"
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert "initial_state" not in json.loads(out)["meta"]


def test_phase_diagram_export(capsys):
    code, out, _ = run_cli(["phase-diagram", "--p", "0.0", "--res", "32"], capsys)
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 32 * 32
    nus = {r["nu"] for r in rows}
    assert "0" in nus or "0.0" in nus
    assert any(r["nu"] == "nan" for r in rows)  # boundary cells stay undefined


def argv_ids(cases):
    """(argv, digest) cases, each with its argv alone as the test id, so that a
    declared re-pin does not rename the test."""
    return [pytest.param(args, digest, id=" ".join(args)) for args, digest in cases]


@pytest.mark.parametrize(
    "args, digest",
    argv_ids([
        (["--p", "0"], "62cc76b36d14ad5480c1ef69f516b3e393a730ea681609f8959a58060a751f2d"),
        (["--p", "0.36"], "b7b67a0d8474920d2f7af3a70e79de45e093c640b62099d9d99e15111a32f51e"),
    ]),
)
def test_phase_diagram_default_csv_is_pinned(args, digest, capsys):
    # Digests of the CSV written by the Wilson-loop implementation of the
    # diagram; the closed-form broadcast must reproduce it byte for byte.
    code, out, _ = run_cli(["phase-diagram", *args], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "args",
    [
        ["phase-diagram", "--res", "8"],
        ["chern", "--preset", "fig6", "--kgrid", "0"],
        ["reconstruct", "--preset", "fig3a", "--tmax", "-1"],
        ["reconstruct", "--preset", "fig3a", "--samples", "-5"],
        ["quench", "--preset", "fig3a", "--tmax", "-2"],
        ["quench", "--preset", "fig3a", "--tgrid", "-1"],
    ],
    ids=" ".join,
)
def test_bad_size_flags_are_config_errors(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == "ConfigError"


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--theta1", "pi/4", "--theta2", "pi/4", "--p", "1.0"],
        ["spectrum", "--theta1", "pi/4", "--theta2", "pi/4", "--p", "1.5"],
        # broken initial operator with a lower-band (eigenstate) start
        ["quench", "--theta1=-pi/2", "--theta2=(pi - arccos(1/alpha))/2",
         "--theta1-f=0.3", "--theta2-f=0.4", "--p", "0.36"],
        # initial eigenstate depends on momentum: no localized walker
        ["reconstruct", "--theta1=0.4", "--theta2=0.3", "--theta1-f=0.3",
         "--theta2-f=0.4", "--tmax", "2"],
        # expressions that overflow, or nest too deep to parse or to evaluate
        ["spectrum", "--theta1", "exp(1000)", "--theta2", "0"],
        ["spectrum", "--theta1", "10**400", "--theta2", "0"],
        pytest.param(["spectrum", "--theta1=" + "1+" * 1500 + "1", "--theta2", "0"],
                     id="spectrum --theta1=1+1+...+1"),
        pytest.param(["spectrum", "--theta1=" + "-" * 3000 + "1", "--theta2", "0"],
                     id="spectrum --theta1=---...-1"),
        # output paths under a directory that does not exist
        ["spectrum", "--preset", "fig3a", "--out", "missing/n.csv"],
        ["reconstruct", "--preset", "fig3a", "--kgrid", "4", "--tmax", "1",
         "--dump-probs", "missing/probs.csv"],
        ["reconstruct", "--preset", "fig3a", "--kgrid", "4", "--tmax", "1",
         "--dump-amps", "missing/amps.csv"],
    ],
    ids=" ".join,
)
def test_library_preconditions_are_config_errors(args, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # an empty directory: "missing/" is not there
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "ConfigError"
    for path in (arg for arg in args if arg.startswith("missing/")):
        assert f"cannot write {path!r}" in payload["message"]


def test_overflowing_broken_regime_is_an_error_not_nan_rows(capsys):
    # Im E = 0.0966 for fig4, so |ct_+|^2 overflows once t is past ~3700.
    code, out, err = run_cli(
        ["preset", "fig4", "--tmax", "4000", "--tgrid", "2", "--kgrid", "8"], capsys
    )
    assert code == 1
    assert out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == "SingularNormalization"


# Digests of the output before the solver and the quench core were merged;
# the merged code must reproduce every byte.  The reconstruct digest was
# re-pinned when rho' assembly moved to diagonal sums, which sum in another
# order (max |dn| against the einsum assembly was 5e-15).  The fixed-points
# and chern digests were re-pinned when the closed-form root solve replaced
# the grid scan with golden section (max |dk| against the search 5.6e-13).
# The chern digest was re-pinned again when the integrators came to sum one
# tau row times n_t (max |dC| against the full grid 4.4e-16 Riemann, 5.6e-16
# solid angle; every other column byte-identical).  All four were re-pinned
# when the walk eigensystem came to be built from the d coefficients instead
# of a general 2x2 solve (max |dn| 5.3e-15, |dC| 4.4e-16, fixed-point k
# byte-identical and residuals moved by 4.9e-32).  The reconstruct digest was
# re-pinned when rho' came to be mapped to n through one real 4x4 frame per
# momentum instead of the 2x2 non-Hermitian density matrix (max |dn| 8.9e-16),
# and again when the momentum transform became one FFT over the diagonal
# offsets and the frame a product with kron(P, P) (max |dn| 2.2e-15).
@pytest.mark.parametrize(
    "args, digest",
    argv_ids([
        (["preset", "fig3b"],
         "cfddacc3d4c4d07e2cd7d90274313427a9785872c87b29e9ae0b0ed0d7fc68d6"),
        (["fixed-points", "--preset", "fig6"],
         "653ce58775b006c434b7ff479b866ef3f9df5b6636b426025181b7069e1f4a31"),
        (["chern", "--preset", "fig3b"],
         "f59e98114932274cd48cfd6ee58288643d8ef25a33193a13bf5107437e78834e"),
        (["reconstruct", "--preset", "fig3b", "--tmax", "6"],
         "fc0f0b83c58538a9b0e05bdb373a41861f82f52728ff17ef5a45782850730aef"),
    ]),
)
def test_quench_outputs_are_pinned(args, digest, capsys):
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# Digests of the JSON written by the row-at-a-time writer (one
# json.dumps(indent=2, sort_keys=True) over the whole payload); the
# column-wise encoder must reproduce every byte, NaN and empty tables included.
# The chern digest was re-pinned when the integrators came to sum one tau row
# times n_t (max |dC| 4.7e-17 Riemann, 2.3e-16 solid angle).  The quench,
# chern and reconstruct digests were re-pinned when the walk eigensystem came
# to be built from the d coefficients (max |dn| 5.3e-15, |dC| 1.1e-16).  The
# fixed-points digest was re-pinned when the command lost its --kgrid flag,
# which the closed-form root solve never read: its meta no longer holds
# "kgrid": 512, and every other byte is the same.  The phase-diagram digest
# was re-pinned when that command lost its --kgrid flag, once the PT verdict
# came from min_gap alone: its meta no longer holds "kgrid": 256, and every
# other byte is the same.  The reconstruct digest was re-pinned when rho' came
# to be mapped to n through one real 4x4 frame per momentum (max |dn| 8.9e-16),
# and again when the momentum transform became one FFT over the diagonal
# offsets and the frame a product with kron(P, P) (max |dn| 2.2e-15).
@pytest.mark.parametrize(
    "args, digest",
    argv_ids([
        (["quench", "--preset", "fig3b"],
         "c064beea15bce8a45341b230fea184754e99883fc5563bb2d2b9a9b2aaf6f3be"),
        (["phase-diagram", "--p", "0.36"],
         "454310501895a1cfa2b6f8819bc7af753f6b82eaf1c1220873b8c604a1fd7810"),
        (["fixed-points", "--theta1=1", "--theta2=0.2", "--theta1-f=1", "--theta2-f=0.2"],
         "4b55eb1999e2b7b29d15ab90e9da6976eb6ec9fbbb213fba06b415ce2657a95d"),
        (["chern", "--preset", "fig6"],
         "69c64962a54d87c46802e25b61c306d2ab02052c2e75a4c63f6e8a1b8ea1c8eb"),
        (["reconstruct", "--preset", "fig3b", "--tmax", "6"],
         "07b7ec9486098ca005921857ecc3f79f78fd0f2489ce7263570bbad9fe7ca4f2"),
    ]),
)
def test_json_outputs_are_pinned(args, digest, capsys):
    code, out, _ = run_cli([*args, "--format", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_amplitude_dump_is_pinned(tmp_path, capsys):
    amps = tmp_path / "amps.csv"
    code, _, _ = run_cli(
        ["reconstruct", "--preset", "fig3b", "--tmax", "6", "--dump-amps", str(amps),
         "--out", str(tmp_path / "n.csv")],
        capsys,
    )
    assert code == 0
    assert hashlib.sha256(amps.read_bytes()).hexdigest() == (
        "0f3fffd5b75b2871887a26006d6733f4379ec5a88d92b5229d314c826dd39b2c"
    )


def test_noisy_reconstruction_and_dump_are_pinned(tmp_path, capsys):
    # Pins the pair noise stream: one generator per (seed, step, basis).  The
    # table was re-pinned when the walk eigensystem came to be built from the
    # d coefficients (the dump did not change), and again when rho' came to be
    # mapped to n through one real 4x4 frame per momentum (max |dn| 1.2e-14;
    # the dump did not change), and again when the momentum transform became
    # one FFT over the diagonal offsets and the frame a product with
    # kron(P, P) (max |dn| 1.3e-13; the dump did not change).
    dump = tmp_path / "probs.csv"
    code, out, _ = run_cli(
        ["reconstruct", "--preset", "fig3b", "--tmax", "6", "--samples", "1000",
         "--seed", "7", "--dump-probs", str(dump)],
        capsys,
    )
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "b6928d02285c25acad7281a280aea500647e374f0a65e6b244833214b2f90d58"
    )
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == (
        "d9b2f768b9fe519c227b4d6e55f85df00d668e0931b3a86420edc9714d01a90c"
    )


def test_noiseless_dump_is_pinned(tmp_path, capsys):
    # Digest of the dump written by the scalar, one-pair-at-a-time
    # measurement; the array intensities must reproduce every byte.
    dump = tmp_path / "probs.csv"
    code, _, _ = run_cli(
        ["reconstruct", "--preset", "fig3b", "--tmax", "6", "--dump-probs", str(dump),
         "--out", str(tmp_path / "n.csv")],
        capsys,
    )
    assert code == 0
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == (
        "f6b0d65069cc4b2ab35c4b9e280829cbcc89fc17005e0929c5a946290bd372dc"
    )


def test_dump_holds_the_intensities_the_reconstruction_used(tmp_path, capsys):
    from ptwalk.measurement import reconstruct_bloch_field
    from ptwalk.presets import PRESETS, build_spec

    dump = tmp_path / "probs.csv"
    code, _, _ = run_cli(
        ["reconstruct", "--preset", "fig3a", "--tmax", "3", "--kgrid", "8", "--samples",
         "500", "--seed", "9", "--dump-probs", str(dump), "--out", str(tmp_path / "n.csv")],
        capsys,
    )
    assert code == 0
    used = {}
    reconstruct_bloch_field(
        build_spec(PRESETS["fig3a"]), t_max=3, n_k=8, n_samples=500, seed=9,
        on_step=lambda t, site, pairs: used.setdefault(t, pairs),
    )
    rows = read_csv(dump.read_text())
    assert len(rows) == sum(4 * len(p.p_l) * (len(p.p_l) - 1) for p in used.values())
    for r in rows:
        pairs = used[int(r["t"])]
        i1, i2, j = int(r["x1"]) - pairs.x_min, int(r["x2"]) - pairs.x_min, int(r["j"]) - 1
        assert i1 != i2
        assert float(r["p_l"]) == pairs.p_l[i1, i2, j]
        assert float(r["p_d"]) == pairs.p_d[i1, i2, j]


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"theta1": "-pi/2", "theta2": "pi/3", "kgrid": 16}))
    code, out, _ = run_cli(["spectrum", "--config", str(config)], capsys)
    assert code == 0
    assert len(read_csv(out)) == 16
    code, out, _ = run_cli(
        ["spectrum", "--config", str(config), "--kgrid", "8"], capsys
    )
    assert len(read_csv(out)) == 8


def test_config_file_sets_the_format_and_the_flag_beats_it(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"format": "json"}))
    argv = ["spectrum", "--preset", "fig4", "--kgrid", "4"]
    code, out, _ = run_cli([*argv, "--config", str(config)], capsys)
    assert code == 0
    assert out == run_cli([*argv, "--format", "json"], capsys)[1]
    assert json.loads(out)["meta"]["preset"] == "fig4"
    code, out, _ = run_cli([*argv, "--config", str(config), "--format", "csv"], capsys)
    assert code == 0
    assert out == run_cli(argv, capsys)[1]
    assert out.startswith("k,re_energy,im_energy,pt_broken\n")


def test_error_is_machine_readable(capsys):
    code, _, err = run_cli(["spectrum", "--theta1", "pi/nope", "--theta2", "0"], capsys)
    assert code == 1
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "ConfigError"
    code, _, err = run_cli(["quench", "--theta1", "0.1", "--theta2", "0.2"], capsys)
    assert code == 1
    assert json.loads(err.strip().splitlines()[-1])["error"] == "ConfigError"
    # an empty angle is a value to parse, with or without a preset under it
    for preset in ([], ["--preset", "fig3b"]):
        argv = ["quench", *preset, "--theta1", "", "--theta2", "0.2",
                "--theta1-f", "0.3", "--theta2-f", "0.4", "--kgrid", "4", "--tmax", "1"]
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["error"] == "ConfigError"
        assert "cannot parse ''" in payload["message"]


def test_unknown_preset_fails_cleanly(capsys):
    code, _, err = run_cli(["fixed-points", "--preset", "fig9"], capsys)
    assert code == 1
    assert json.loads(err.strip().splitlines()[-1])["error"] == "ConfigError"


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ptwalk.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ptwalk" in proc.stdout


def test_dump_probs_and_amps(tmp_path, capsys):
    out = tmp_path / "n.csv"
    probs = tmp_path / "probs.csv"
    amps = tmp_path / "amps.csv"
    code, _, _ = run_cli(
        ["reconstruct", "--preset", "fig3a", "--kgrid", "8", "--tmax", "2",
         "--out", str(out), "--dump-probs", str(probs), "--dump-amps", str(amps)],
        capsys,
    )
    assert code == 0
    rows = read_csv(probs.read_text())
    assert set(rows[0]) == {"t", "x1", "x2", "j", "p_l", "p_d"}
    assert {r["j"] for r in rows} == {"1", "2", "3", "4"}
    amp_rows = read_csv(amps.read_text())
    assert set(amp_rows[0]) == {"t", "x", "re_a", "im_a", "re_b", "im_b"}
    # light cone: |x| <= 2t on every row
    assert all(abs(int(r["x"])) <= 2 * int(r["t"]) for r in amp_rows)


@pytest.mark.parametrize(
    "config, flags",
    [({"kgrid": "64"}, ["--kgrid", "64"]), ({"p": "0.3"}, ["--p", "0.3"])],
    ids=["kgrid", "p"],
)
def test_config_text_goes_through_the_flag_type(config, flags, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(["spectrum", "--preset", "fig4", "--config", str(path)], capsys)
    assert code == 0, err
    assert out == run_cli(["spectrum", "--preset", "fig4", *flags], capsys)[1]


def test_a_config_number_writes_the_bytes_its_flag_writes(tmp_path, capsys):
    # JSON's 0 is an int; --p holds a float, so the meta must read "p": 0.0 either way.
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"p": 0}))
    argv = ["spectrum", "--preset", "fig3a", "--kgrid", "4", "--format", "json"]
    code, out, err = run_cli([*argv, "--config", str(path)], capsys)
    assert code == 0, err
    assert json.loads(out)["meta"]["p"] == 0.0 and '"p": 0.0' in out
    assert out == run_cli([*argv, "--p", "0"], capsys)[1]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stdout_is_the_out_file_for_a_table_laid_out_as_bytes(fmt, tmp_path, capsys):
    # 32 x 61 cells: the n columns hold over 1024 distinct floats each.
    argv = ["quench", "--preset", "fig3b", "--kgrid", "32", "--tgrid", "61", "--format", fmt]
    code, out, _ = run_cli(argv, capsys)
    path = tmp_path / f"n.{fmt}"
    assert run_cli([*argv, "--out", str(path)], capsys)[0] == code == 0
    n1 = ([r["n1"] for r in read_csv(out)] if fmt == "csv"
          else [r[2] for r in json.loads(out)["rows"]])
    assert len(set(n1)) >= 1024
    assert out.encode("utf-8") == path.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stdout_is_the_out_file_for_a_table_laid_out_in_many_blocks(
        fmt, tmp_path, capsys, monkeypatch):
    # 256 x 61 cells: 15 616 rows laid out in 9 blocks as CSV, in 13 as JSON.
    table_rows, parts = cli._table_rows, []

    def recorded(*args):
        parts.append(table_rows(*args))
        return parts[-1]

    monkeypatch.setattr(cli, "_table_rows", recorded)
    argv = ["quench", "--preset", "fig6", "--tgrid", "61", "--format", fmt]
    code, out, _ = run_cli(argv, capsys)
    path = tmp_path / f"n.{fmt}"
    assert run_cli([*argv, "--out", str(path)], capsys)[0] == code == 0
    assert out.encode("utf-8") == path.read_bytes()
    assert [len(p) for p in parts] == 2 * [{"csv": 9, "json": 13}[fmt]]


@pytest.mark.parametrize(
    "config, argv",
    [
        ({"theta1": 1.0}, ["spectrum", "--theta2", "0.3"]),
        ({"kgrid": "sixty-four"}, ["spectrum", "--preset", "fig4"]),
        ({"kgrid": 64.0}, ["spectrum", "--preset", "fig4"]),
        ({"kgrid": True}, ["spectrum", "--preset", "fig4"]),
        ({"p": [0.3]}, ["spectrum", "--preset", "fig4"]),
        ({"p": 10**400}, ["spectrum", "--preset", "fig4"]),
        ({"format": "xml"}, ["spectrum", "--preset", "fig4"]),
        ({"func": "x"}, ["spectrum", "--preset", "fig4"]),
        # --config is read before the file is, and the positional is always given.
        ({"config": "other.json"}, ["spectrum", "--preset", "fig4"]),
        ({"name": "fig6"}, ["preset", "fig3b"]),
        # a flag the command does not read is no flag of it
        ({"seed": 3}, ["spectrum", "--preset", "fig4"]),
        ({"kgrid": 64}, ["fixed-points", "--preset", "fig3b"]),
    ],
    ids=["theta1-number", "kgrid-text", "kgrid-float", "kgrid-bool", "p-list", "p-huge-int",
         "format-choice", "not-a-flag", "config", "preset-name", "removed-seed", "removed-kgrid"],
)
def test_bad_config_value_is_a_config_error_naming_the_key(config, argv, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli([*argv, "--config", str(path)], capsys)
    assert code == 1
    assert out == ""
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "ConfigError"
    assert repr(next(iter(config))) in payload["message"]


def test_initial_state_eigenstate_is_the_default(capsys):
    for argv in (["quench", "--preset", "fig3b"],
                 ["quench", "--theta1=0.4", "--theta2=0.3", "--theta1-f=0.3", "--theta2-f=0.4"]):
        argv += ["--kgrid", "16", "--tgrid", "5"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert run_cli([*argv, "--initial-state", "eigenstate"], capsys) == (0, out, "")


@pytest.mark.parametrize("state", ["1", "1,2,3", ""])
def test_initial_state_takes_two_amplitudes(state, capsys):
    code, out, err = run_cli(["quench", "--preset", "fig3b", f"--initial-state={state}"], capsys)
    assert code == 1 and out == ""
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": "ConfigError",
        "message": "--initial-state takes 'eigenstate' or two comma-separated amplitudes",
    }


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read config 'run.json': [Errno 2] No such file or directory"),
        (b'{"kgrid": 8', "cannot read config 'run.json': Expecting ',' delimiter"),
        (b'\xff{"kgrid": 8}', "cannot read config 'run.json': 'utf-8' codec can't decode"),
        (b"[8]", "config file must hold a JSON object of flag values"),
    ],
    ids=["missing", "not-json", "not-utf-8", "array"],
)
def test_a_config_that_is_not_a_json_object_is_a_config_error(
        content, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if content is not None:
        (tmp_path / "run.json").write_bytes(content)
    code, out, err = run_cli(["spectrum", "--preset", "fig4", "--config", "run.json"], capsys)
    assert code == 1 and out == ""
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "ConfigError"
    assert payload["message"].startswith(message)


def test_a_null_config_value_leaves_its_flag_unset(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"kgrid": None, "format": None, "theta1": None}))
    argv = ["spectrum", "--preset", "fig4"]
    code, out, _ = run_cli([*argv, "--config", str(path)], capsys)
    assert code == 0
    assert len(read_csv(out)) == 512
    assert out == run_cli(argv, capsys)[1]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_chern_without_two_fixed_points_writes_only_the_header(fmt, capsys):
    # Initial and final walks are the same: n(k, t) never moves.
    argv = ["chern", "--theta1=0.3", "--theta2=0.2", "--theta1-f=0.3", "--theta2-f=0.2"]
    code, out, err = run_cli([*argv, "--format", fmt], capsys)
    assert code == 0
    assert err == "fewer than two fixed points: no submanifolds\n"
    names = ["k_lo", "k_hi", "kind_lo", "kind_hi", "c_riemann", "c_riemann_rounded",
             "c_solid_angle", "c_solid_angle_rounded"]
    if fmt == "csv":
        assert out == ",".join(names) + "\n"
    else:
        table = json.loads(out)
        assert (table["columns"], table["rows"], table["meta"]["submanifolds"]) == (names, [], 0)


@pytest.mark.parametrize(
    "expression, message",
    [
        ("0.5j", "literal 0.5j is not a number"),
        ("True", "literal True is not a number"),
        ("False", "literal False is not a number"),
        ("1/0", "division by zero in expression"),
        ("floor(1)", "unsupported function call floor(1)"),
        ("sin(1, 2)", "unsupported function call sin(1, 2)"),
        ("arcsin(2)", "domain error in arcsin: math domain error"),
        ("sin(i)", "sin expects a real argument"),
        ("pi[0]", "unsupported syntax: pi[0]"),
        ("1e308*10", "'1e308*10' does not evaluate to a finite number"),
        ("1+i", "'1+i' is not real-valued"),
    ],
    ids=["complex-literal", "true-literal", "false-literal", "division-by-zero", "unknown-call",
         "two-arguments", "domain", "complex-argument", "subscript", "overflow-to-inf",
         "not-real"],
)
def test_expression_errors_are_config_errors(expression, message, capsys):
    code, out, err = run_cli(["spectrum", f"--theta1={expression}", "--theta2=0"], capsys)
    assert code == 1 and out == ""
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "ConfigError"
    assert payload["message"].startswith(message)


def test_the_parser_keeps_no_state_between_calls(capsys):
    argv = ["spectrum", "--preset", "fig4", "--kgrid", "16"]
    code, out, _ = run_cli([*argv, "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["meta"]["preset"] == "fig4"
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out.startswith("k,re_energy,im_energy,pt_broken\n")

    angles = ["--theta1=0.4", "--theta2=0.3", "--theta1-f=0.3", "--theta2-f=0.4"]
    flags = ["--kgrid", "8", "--format", "json"]
    code, _, _ = run_cli(["quench", "--preset", "fig3b", *flags], capsys)
    assert code == 0
    code, out, _ = run_cli(["quench", *angles, *flags], capsys)
    assert code == 0
    assert "preset" not in json.loads(out)["meta"]
    fresh = subprocess.run(
        [sys.executable, "-m", "ptwalk.cli", "quench", *angles, *flags],
        capture_output=True, text=True, check=True,
    )
    assert out == fresh.stdout
