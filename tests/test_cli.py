"""Command-line interface: exports, presets, determinism, error mapping."""

import csv
import hashlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from ptwalk.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, "empty table"
    return rows


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
    code, out, err = run_cli(["fixed-points", "--preset", "fig3a", "--kgrid", "256"], capsys)
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


def test_phase_diagram_export(capsys):
    code, out, _ = run_cli(
        ["phase-diagram", "--p", "0.0", "--res", "32", "--kgrid", "128"], capsys
    )
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 32 * 32
    nus = {r["nu"] for r in rows}
    assert "0" in nus or "0.0" in nus
    assert any(r["nu"] == "nan" for r in rows)  # boundary cells stay undefined


@pytest.mark.parametrize(
    "args, digest",
    [
        (["--p", "0"], "62cc76b36d14ad5480c1ef69f516b3e393a730ea681609f8959a58060a751f2d"),
        (["--p", "0.36"], "b7b67a0d8474920d2f7af3a70e79de45e093c640b62099d9d99e15111a32f51e"),
    ],
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
        ["phase-diagram", "--kgrid", "0"],
        ["chern", "--preset", "fig6", "--kgrid", "0"],
        ["reconstruct", "--preset", "fig3a", "--tmax", "-1"],
        ["reconstruct", "--preset", "fig3a", "--samples", "-5"],
        ["fixed-points", "--preset", "fig3a", "--kgrid", "0"],
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
    ],
    ids=" ".join,
)
def test_library_preconditions_are_config_errors(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == "ConfigError"


@pytest.mark.parametrize("kgrid", ["1", "8", "63"])
def test_fixed_points_reject_a_coarse_grid(kgrid, capsys):
    # fig3b has 4 fixed points; grids up to 16 points find only 2 of them.
    code, out, err = run_cli(["fixed-points", "--preset", "fig3b", "--kgrid", kgrid], capsys)
    assert code == 1
    assert out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == "ConfigError"


def test_overflowing_broken_regime_is_an_error_not_nan_rows(capsys):
    # Im E = 0.0966 for fig4, so |ct_+|^2 overflows once t is past ~3700.
    code, out, err = run_cli(
        ["preset", "fig4", "--tmax", "4000", "--tgrid", "2", "--kgrid", "8"], capsys
    )
    assert code == 1
    assert out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == "SingularNormalization"


# Digests of the parent implementation's output before the solver and the
# quench core were merged; the merged code must reproduce every byte.
@pytest.mark.parametrize(
    "args, digest",
    [
        (["preset", "fig3b"],
         "10b15c1b28b8af0344b5d7ab2715ab067ed685835eae1d8e23fd63a599ca88d9"),
        (["fixed-points", "--preset", "fig6"],
         "0291df5d231e2cfc791292b70174436f6298099d0927f228ac90b7d133da5a11"),
        (["chern", "--preset", "fig3b"],
         "f47680376b51b48e3b5e19edb08467af7e6d1be9dcb6a3dcee431739a3ab2aaf"),
        (["reconstruct", "--preset", "fig3b", "--tmax", "6"],
         "be85f90bed99b8dccc8a769d81de1186f3e734769b96b8020c2383a11f66b298"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v[:8],
)
def test_quench_outputs_are_pinned(args, digest, capsys):
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_noisy_reconstruction_and_dump_are_pinned(tmp_path, capsys):
    dump = tmp_path / "probs.csv"
    code, out, _ = run_cli(
        ["reconstruct", "--preset", "fig3b", "--tmax", "6", "--samples", "1000",
         "--seed", "7", "--dump-probs", str(dump)],
        capsys,
    )
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "7b8cc58b2a9622ee3deb851443c028bec2360f803446db9e0d7e221f578d5eb4"
    )
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == (
        "8c168724b5c4d7cac3a3a053f0687664ce9080abb85a3602f9983fd53716ae47"
    )


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


def test_error_is_machine_readable(capsys):
    code, _, err = run_cli(["spectrum", "--theta1", "pi/nope", "--theta2", "0"], capsys)
    assert code == 1
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "ConfigError"
    code, _, err = run_cli(["quench", "--theta1", "0.1", "--theta2", "0.2"], capsys)
    assert code == 1
    assert json.loads(err.strip().splitlines()[-1])["error"] == "ConfigError"


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
