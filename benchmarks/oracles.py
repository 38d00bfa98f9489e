"""Output checks for every job kind, each on a path independent of the CLI.

An oracle takes the bytes a job wrote and returns a list of problems; an
empty list means the output is correct.  ``plant`` returns a copy of a
correct output with one wrong answer in it, which its oracle must reject:
``self_test`` uses it so that "no failures" is never vacuous.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from workloads import Job, step_operator, winding_closed_form

UNIT_TOL = 1e-12           # |n| = 1 for analytic textures
RESIDUAL_TOL = 1e-10       # |c|^2 at a fixed point
PI_PAIR_TOL = 1e-9         # fixed points pair up at k and k + pi
EIGEN_TOL = 1e-9           # spectrum energy against the direct-product eigenvalue
RECONSTRUCT_TOL = 1e-9     # noiseless reconstruction against the analytic field

# Phase diagrams write nu = NaN for cells whose winding is undefined (broken,
# band touching, or not quantized); everywhere else NaN is a failure.
NAN_ALLOWED = {"phase-diagram": {"nu"}}


def parse_table(data: bytes, ext: str) -> tuple[list[str], list[list[str]]]:
    """Columns and rows (cells as text) of a CSV or JSON CLI output."""
    text = data.decode("utf-8")
    if ext == "json":
        payload = json.loads(text)
        return payload["columns"], [[str(v) for v in row] for row in payload["rows"]]
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _column(columns, rows, name) -> np.ndarray:
    i = columns.index(name)
    return np.array([float(row[i]) for row in rows])


def _non_finite(kind, columns, rows) -> list[str]:
    allowed = NAN_ALLOWED.get(kind, set())
    for r, row in enumerate(rows):
        for name, cell in zip(columns, row):
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value) and not (math.isnan(value) and name in allowed):
                return [f"row {r}: {name} = {cell}"]
    return []


def check_phase_diagram(job: Job, columns, rows) -> list[str]:
    th1, th2 = _column(columns, rows, "theta1"), _column(columns, rows, "theta2")
    nu = _column(columns, rows, "nu")
    problems = []
    if len(rows) != 32 * 32:
        problems.append(f"{len(rows)} cells, expected 1024")
    for a, b, v in zip(th1, th2, nu):
        expected = winding_closed_form(a, b)
        if not math.isnan(v) and int(v) != expected:
            problems.append(f"nu({a:.6f}, {b:.6f}) = {v:g}, closed form {expected}")
    return problems


def check_spectrum(job: Job, columns, rows) -> list[str]:
    ks = _column(columns, rows, "k")
    energy = _column(columns, rows, "re_energy") + 1j * _column(columns, rows, "im_energy")
    lam = np.linalg.eigvals(step_operator(job.params["theta1"], job.params["theta2"],
                                          job.params["p"], ks))
    # eps = i log(lambda)  <=>  lambda = exp(-i eps); either band may be reported.
    target = np.exp(-1j * energy)[:, None]
    err = np.min(np.abs(lam - target), axis=1) / np.maximum(1.0, np.abs(target[:, 0]))
    worst = int(np.argmax(err))
    if err[worst] > EIGEN_TOL:
        return [f"k = {ks[worst]:.6f}: exp(-iE) misses the eigenvalues by {err[worst]:.2e}"]
    return []


def _wrap(k):
    return (k + math.pi) % (2 * math.pi) - math.pi


def check_fixed_points(job: Job, columns, rows) -> list[str]:
    ks = _column(columns, rows, "k")
    residual = _column(columns, rows, "residual")
    kinds = [row[columns.index("kind")] for row in rows]
    problems = [f"residual {r:.2e} at k = {k:.6f}"
                for k, r in zip(ks, residual) if r >= RESIDUAL_TOL]
    for k, kind in zip(ks, kinds):
        partner = [abs(_wrap(k2 - k - math.pi)) for k2, kind2 in zip(ks, kinds) if kind2 == kind]
        if not partner or min(partner) > PI_PAIR_TOL:
            problems.append(f"k = {k:.12f} ({kind}) has no partner at k + pi")
    return problems


def check_chern(job: Job, columns, rows) -> list[str]:
    riemann = _column(columns, rows, "c_riemann_rounded").astype(int)
    solid = _column(columns, rows, "c_solid_angle_rounded").astype(int)
    problems = [f"submanifold {i}: riemann {a} != solid angle {b}"
                for i, (a, b) in enumerate(zip(riemann, solid)) if a != b]
    if riemann.sum() != 0:
        problems.append(f"Chern numbers sum to {riemann.sum()} over the zone")
    return problems


def _bloch_n(columns, rows) -> np.ndarray:
    return np.stack([_column(columns, rows, c) for c in ("n1", "n2", "n3")], axis=-1)


def check_texture(job: Job, columns, rows) -> list[str]:
    err = np.abs(np.linalg.norm(_bloch_n(columns, rows), axis=1) - 1.0)
    if err.max() > UNIT_TOL:
        return [f"|n| - 1 = {err.max():.2e} at row {int(err.argmax())}"]
    return []


def analytic_field(job: Job) -> np.ndarray:
    """n(k, t) of the job's quench from the package's analytic path."""
    from ptwalk.floquet import CoinParams
    from ptwalk.quench import QuenchSpec, bloch_field

    prm = job.params
    spec = QuenchSpec(
        initial=CoinParams(prm["theta1"], prm["theta2"], prm["p"]),
        final=CoinParams(prm["theta1_f"], prm["theta2_f"], prm["p"]),
        initial_state=prm["state"],
    )
    return bloch_field(spec, n_k=256, t_max=prm["tmax"]).n.reshape(-1, 3)


def reconstruction_error(job: Job, columns, rows, reference: np.ndarray) -> float:
    n = _bloch_n(columns, rows)
    if n.shape != reference.shape:
        return math.inf
    return float(np.max(np.abs(n - reference)))


def check_reconstruct(job: Job, columns, rows, reference=None) -> list[str]:
    if job.params["noisy"]:
        return []  # finiteness is checked for every output
    err = reconstruction_error(job, columns, rows, reference)
    return [f"max |n_rec - n_analytic| = {err:.2e}"] if err > RECONSTRUCT_TOL else []


def check_dump(data: bytes) -> list[str]:
    columns, rows = parse_table(data, "csv")
    for name in ("p_l", "p_d"):
        values = _column(columns, rows, name)
        if not np.all(np.isfinite(values)) or values.min() < 0 or values.max() > 1:
            return [f"dump column {name} leaves [0, 1]"]
    return []


CHECKS = {
    "phase-diagram": check_phase_diagram,
    "spectrum": check_spectrum,
    "fixed-points": check_fixed_points,
    "chern": check_chern,
    "quench": check_texture,
}


def check(job: Job, data: bytes, dump: bytes | None = None, reference=None) -> list[str]:
    """All problems with one job's output (and its probability dump, if any)."""
    try:
        columns, rows = parse_table(data, job.ext)
        problems = _non_finite(job.kind, columns, rows)
        if job.kind == "reconstruct":
            problems += check_reconstruct(job, columns, rows, reference)
        else:
            problems += CHECKS[job.kind](job, columns, rows)
        if dump is not None:
            problems += check_dump(dump)
    except (ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return problems


def _edit_cell(job: Job, data: bytes, pick, change) -> bytes:
    """Rewrite one cell: the first row where ``pick(row)`` holds, via ``change``."""
    columns, rows = parse_table(data, job.ext)
    for row in rows:
        if pick(columns, row):
            change(columns, row)
            break
    else:
        raise ValueError("no cell to plant a wrong answer in")
    if job.ext == "json":
        payload = json.loads(data)
        payload["rows"] = [[_typed(v) for v in row] for row in rows]
        return json.dumps(payload).encode()
    return ("\n".join(",".join(row) for row in [columns] + rows) + "\n").encode()


def _typed(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _nudge(name: str, delta: float):
    def change(columns, row):
        i = columns.index(name)
        row[i] = format(float(row[i]) + delta, ".17g")
    return change


def _scale_n(columns, row):
    """Lengthen n by one part in a million, whatever its direction."""
    for name in ("n1", "n2", "n3"):
        i = columns.index(name)
        row[i] = format(float(row[i]) * (1 + 1e-6), ".17g")


def _nan_n(columns, row):
    row[columns.index("n1")] = "nan"


def _defined_nu(columns, row):
    return row[columns.index("nu")] != "nan"


def _any_row(columns, row):
    return True


def _flip_nu(columns, row):
    i = columns.index("nu")
    row[i] = "-2" if row[i] == "2" else "2"


PLANTS = {
    "phase-diagram": ("flipped nu", _defined_nu, _flip_nu),
    "spectrum": ("perturbed energy", _any_row, _nudge("re_energy", 1e-6)),
    "fixed-points": ("shifted fixed point", _any_row, _nudge("k", 1e-6)),
    "chern": ("changed Chern number", _any_row, _nudge("c_riemann_rounded", 1)),
    "quench": ("lengthened n", _any_row, _scale_n),
    "reconstruct": ("lengthened n", _any_row, _scale_n),
}
NOISY_PLANT = ("non-finite n", _any_row, _nan_n)


def plant(job: Job, data: bytes) -> tuple[str, bytes]:
    """A description and a copy of ``data`` with one planted wrong answer."""
    label, pick, change = NOISY_PLANT if job.params.get("noisy") else PLANTS[job.kind]
    return label, _edit_cell(job, data, pick, change)
