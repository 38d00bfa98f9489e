"""Seeded job lists for the three benchmark workloads.

A job is one ``ptwalk`` CLI invocation.  Parameters are drawn from the
benchmark seed only; the program under test receives nothing but the
generated argv.  Floats are written with ``format(x, ".17g")`` (``repr`` of a
numpy float reads ``np.float64(...)``, which the CLI's expression parser
rejects) and amplitudes as ``a+b*i`` (the parser has no complex literals).

The physics the generators need (winding class, gap, fixed-point count) is
computed here from the operator's defining product, independently of the
package, so that a change to the package cannot change the workload.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("scan", "topology", "measure")

P_MAX = 0.6          # loss probabilities are drawn from [0, P_MAX]
GAP_MIN = 0.05       # closed-form |min_gap| kept away from band touchings
KGRID_COUNT = 2048   # momentum grid of the generator's fixed-point count


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``argv`` excludes ``--out`` and ``--dump-probs``."""

    kind: str                 # oracle selector, e.g. "phase-diagram", "reconstruct"
    argv: tuple[str, ...]
    ext: str = "csv"
    dump_probs: bool = False
    params: dict = field(default_factory=dict, compare=False)  # what the oracle needs


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def amplitude(z: complex) -> str:
    return f"{fmt(z.real)}+{fmt(z.imag)}*i"


def alpha(p: float) -> float:
    return 0.5 * (1.0 - p) ** -0.25 * (1.0 + math.sqrt(1.0 - p))


def min_gap(theta1: float, theta2: float, p: float) -> float:
    """min_k (1 - d0^2) with d0 = alpha (cos 2k c1 c2 - s1 s2)."""
    a = alpha(p)
    extreme = abs(math.cos(theta1) * math.cos(theta2)) + abs(math.sin(theta1) * math.sin(theta2))
    return 1.0 - (a * extreme) ** 2


def winding_closed_form(theta1: float, theta2: float) -> int:
    """nu = 2 sign(sin th1) if |cos th1 sin th2| < |sin th1 cos th2|, else 0."""
    if abs(math.cos(theta1) * math.sin(theta2)) < abs(math.sin(theta1) * math.cos(theta2)):
        return 2 if math.sin(theta1) > 0 else -2
    return 0


def step_operator(theta1: float, theta2: float, p: float, ks: np.ndarray) -> np.ndarray:
    """gamma R(th1/2) S_k R(th2/2) M R(th2/2) S_k R(th1/2), shape (n_k, 2, 2).

    Built factor by factor from the walk's definition (coin rotation
    exp(-i th sigma_2), shift diag(e^{ik}, e^{-ik}), loss |+><+| +
    sqrt(1-p)|-><-|) rather than through the package's closed form.
    """

    def rot(theta):
        c, s = math.cos(theta), math.sin(theta)
        return np.array([[c, -s], [s, c]], dtype=complex)

    m = math.sqrt(1.0 - p)
    loss = 0.5 * np.array([[1 + m, 1 - m], [1 - m, 1 + m]], dtype=complex)
    shift = np.zeros((len(ks), 2, 2), dtype=complex)
    shift[:, 0, 0] = np.exp(1j * ks)
    shift[:, 1, 1] = np.exp(-1j * ks)
    r1, r2 = rot(theta1 / 2), rot(theta2 / 2)
    gamma = (1.0 - p) ** -0.25
    return gamma * (r1 @ shift @ (r2 @ loss @ r2) @ shift @ r1)


def fixed_point_count(initial: tuple, final: tuple, n_k: int = KGRID_COUNT) -> int:
    """Momenta where the initial lower-band state is parallel to a final band.

    Both operators must be PT-unbroken, so every eigenvalue lies on the unit
    circle; the lower band is the one with Im(lambda) > 0 and the upper band
    the one with Im(lambda) < 0 (LAPACK's own eigenvalue order changes with
    k, so bands are picked by that sign).  A zero of the normalized 2x2
    determinant is a fixed point; it is counted as a grid local minimum below
    1e-2 (a simple zero gives a minimum of O(dk)).  Used only to balance the
    cost mix of a pass, so a rare miscount changes no check.
    """
    ks = np.linspace(-np.pi, np.pi, n_k, endpoint=False)
    lam_i, vec_i = np.linalg.eig(step_operator(*initial, ks))
    lam_f, vec_f = np.linalg.eig(step_operator(*final, ks))
    rows = np.arange(n_k)
    psi = vec_i[rows, :, np.argmax(lam_i.imag, axis=1)]
    count = 0
    for pick in (np.argmin, np.argmax):
        phi = vec_f[rows, :, pick(lam_f.imag, axis=1)]
        det = np.abs(psi[:, 0] * phi[:, 1] - psi[:, 1] * phi[:, 0])
        det /= np.linalg.norm(psi, axis=1) * np.linalg.norm(phi, axis=1)
        minima = (det < np.roll(det, 1)) & (det <= np.roll(det, -1)) & (det < 1e-2)
        count += int(minima.sum())
    return count


def _angles(rng: random.Random, n: int) -> list[float]:
    return [rng.uniform(-math.pi, math.pi) for _ in range(n)]


def _quench_flags(t1, t2, t1f, t2f, p) -> tuple[str, ...]:
    return (
        f"--theta1={fmt(t1)}", f"--theta2={fmt(t2)}",
        f"--theta1-f={fmt(t1f)}", f"--theta2-f={fmt(t2f)}", f"--p={fmt(p)}",
    )


# Phase-diagram cost depends on the share of unbroken cells, hence on p; the
# p values are stratified over [0, P_MAX] so every seed gets a comparable mix.
# Diagrams in the top stratum run about a quarter faster than the rest; with
# one spectrum job per five diagrams the median job stays among the slower
# strata instead of on the boundary between the two groups.
SCAN_DIAGRAMS = 5
SCAN_SPECTRA = 1


def scan_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for i in range(SCAN_DIAGRAMS):
        p = P_MAX * (i + rng.random()) / SCAN_DIAGRAMS
        jobs.append(Job("phase-diagram", ("phase-diagram", f"--p={fmt(p)}")))
    for _ in range(SCAN_SPECTRA):
        t1, t2 = _angles(rng, 2)
        p = rng.uniform(0.0, P_MAX)
        argv = ("spectrum", f"--theta1={fmt(t1)}", f"--theta2={fmt(t2)}", f"--p={fmt(p)}",
                "--kgrid", "512")
        jobs.append(Job("spectrum", argv, params={"theta1": t1, "theta2": t2, "p": p}))
    rng.shuffle(jobs)
    return jobs


# Fixed-point search and Chern integration cost grow with the number of fixed
# points (0, 4 or 8 for these draws), so each seed gets the same count mix.
TOPOLOGY_FIXED_POINT_MIX = {0: 1, 4: 4, 8: 1}
TOPOLOGY_JSON_QUENCHES = 2
PRESET_NAMES = ("fig3a", "fig3b", "fig4", "fig6")


def topology_jobs(rng: random.Random) -> list[Job]:
    wanted = dict(TOPOLOGY_FIXED_POINT_MIX)
    quenches = []
    while any(wanted.values()):
        p = rng.uniform(0.0, P_MAX)
        t1, t2, t1f, t2f = _angles(rng, 4)
        if min(min_gap(t1, t2, p), min_gap(t1f, t2f, p)) <= GAP_MIN:
            continue
        count = fixed_point_count((t1, t2, p), (t1f, t2f, p))
        if wanted.get(count, 0) > 0:
            wanted[count] -= 1
            quenches.append((t1, t2, t1f, t2f, p))
    rng.shuffle(quenches)
    json_quenches = set(rng.sample(range(len(quenches)), TOPOLOGY_JSON_QUENCHES))
    jobs = []
    for q, (t1, t2, t1f, t2f, p) in enumerate(quenches):
        flags = _quench_flags(t1, t2, t1f, t2f, p)
        jobs.append(Job("fixed-points", ("fixed-points",) + flags))
        jobs.append(Job("chern", ("chern",) + flags))
        if q in json_quenches:
            jobs.append(Job("quench", ("quench",) + flags + ("--tgrid", "61", "--format", "json"),
                            ext="json"))
        else:
            jobs.append(Job("quench", ("quench",) + flags + ("--tgrid", "61")))
    jobs += [Job("quench", ("preset", name)) for name in PRESET_NAMES]
    rng.shuffle(jobs)
    return jobs


# Noiseless jobs are bound by the matrix-element table and rho' assembly,
# noisy ones by shot-noise sampling.  The noiseless share (6 of 10) keeps the
# median job inside the noiseless cluster, and the noisy share (4 of 10) keeps
# the tail job (10 jobs beyond it) inside the noisy one for any run of 3 to
# 10 passes.
MEASURE_NOISELESS = 6
MEASURE_NOISY = 3
MEASURE_NOISY_DUMP = 1
MEASURE_SAMPLES = 1_000_000


def measure_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    kinds = (
        [(10, False, False)] * MEASURE_NOISELESS
        + [(6, True, False)] * MEASURE_NOISY
        + [(6, True, True)] * MEASURE_NOISY_DUMP
    )
    for tmax, noisy, dump in kinds:
        p = rng.uniform(0.0, P_MAX)
        t1, t2, t1f, t2f = _angles(rng, 4)
        while abs(min_gap(t1f, t2f, p)) <= GAP_MIN:
            t1f, t2f = _angles(rng, 2)
        state = complex(rng.gauss(0, 1), rng.gauss(0, 1)), complex(rng.gauss(0, 1), rng.gauss(0, 1))
        norm = math.hypot(abs(state[0]), abs(state[1]))
        state = (state[0] / norm, state[1] / norm)
        argv = ("reconstruct",) + _quench_flags(t1, t2, t1f, t2f, p) + (
            f"--initial-state={amplitude(state[0])},{amplitude(state[1])}",
            "--tmax", str(tmax),
        )
        if noisy:
            argv += ("--samples", str(MEASURE_SAMPLES), "--seed", str(rng.randrange(1 << 20)))
        params = {"theta1": t1, "theta2": t2, "theta1_f": t1f, "theta2_f": t2f, "p": p,
                  "state": state, "tmax": tmax, "noisy": noisy}
        jobs.append(Job("reconstruct", argv, dump_probs=dump, params=params))
    rng.shuffle(jobs)
    return jobs


def generate(workload: str, seed: int) -> list[Job]:
    """The job list of one pass; the same (workload, seed) gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    return {"scan": scan_jobs, "topology": topology_jobs, "measure": measure_jobs}[workload](rng)
