"""ptwalk benchmark: one seeded workload of CLI jobs, timed end to end.

    python3 benchmarks/run.py --workload scan --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The seeded job list of the workload
(see workloads.py) is executed closed-loop by one client in this process
through ``ptwalk.cli.main(argv)``, each job writing its table to a file with
``--out``, so argument parsing, spec building, compute and CSV/JSON writing
are all inside a job's latency.  Passes over the job list repeat until the
time is used up, with at least three passes (two when tracing).  Every
output is checked by an oracle (oracles.py) and its digest is compared with
the first pass's, so a job that answers wrongly or differently on a rerun
counts as failed.

Job and set-up times are reported in reference seconds, which cancel much of
the shared host's speed swings (see hostspeed.py); wall-clock figures are
printed beside them and kept in the run record.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones (tracing.py), plus the tracing overhead.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "benchmarks" / "out"

# One BLAS thread: the jobs are a single client, and a fixed thread count
# keeps runs comparable.  Set before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import oracles  # noqa: E402  (imports numpy)
import workloads  # noqa: E402
from hostspeed import REFERENCE_KERNEL_S, Interval, kernel_seconds, to_reference  # noqa: E402
from tracing import Tracer  # noqa: E402

MIN_PASSES = 3          # untraced runs: >= 2 reruns per job for the digest check
MIN_PASSES_TRACED = 2   # traced runs: one untraced and one traced pass
SETUP_PROBES = 7        # fresh interpreters timed for setup_s, after one warm-up
IMPORTTIME_PROBES = 3
TAIL_BEYOND = 10        # the tail percentile leaves at least this many jobs above it


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scan", "topology", "measure"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


READY = "import ptwalk.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"


def setup_probe(env) -> tuple[float, float, list[float]]:
    """Seconds from spawning a fresh interpreter to ``import ptwalk.cli`` returning.

    Returns wall seconds, reference seconds and the two kernel times; the
    second kernel runs once the child has exited, so they do not share the CPU.
    """
    before = kernel_seconds()
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", READY], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, env=env, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.communicate(timeout=120)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"import probe failed (exit {proc.returncode})")
    after = kernel_seconds()
    return elapsed, to_reference(elapsed, before, after), [before, after]


def importtime_probe(env) -> dict[str, float]:
    """Summed self import time (s) of numpy, scipy and ptwalk modules."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ptwalk.cli"],
                          capture_output=True, env=env, cwd=ROOT, timeout=120, check=True)
    totals = {"numpy": 0.0, "scipy": 0.0, "ptwalk": 0.0}
    for line in proc.stderr.decode().splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        package = fields[2].strip().split(".")[0]
        if package in totals:
            totals[package] += int(fields[0]) / 1e6
    return totals


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS loaded into this process."""
    import ctypes

    counts = {}
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                counts[Path(path).name] = int(getattr(lib, symbol)())
                break
    return counts


def run_metadata(args, jobs, nproc: int, cpu: int) -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    except OSError:
        sha = None
    source = hashlib.sha256()
    for path in sorted((SRC / "ptwalk").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "source_sha256": source.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": nproc, "pinned_cpu": cpu,
        "blas_threads": blas_threads(), "client": "closed loop, 1 client, in-process",
        "jobs_per_pass": len(jobs),
    }


@dataclass
class Pass:
    """One pass over the job list: each job's wall and reference seconds."""

    traced: bool
    latencies: list[float] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)
    kernels: list[float] = field(default_factory=list)  # every kernel time of the pass


class Runner:
    """Executes and checks the jobs of one workload."""

    def __init__(self, cli, jobs, workdir: Path, tracer=None):
        self.cli, self.jobs = cli, jobs
        self.workdir = workdir
        self.tracer = tracer
        self.digests: dict[int, str] = {}
        self.outputs: dict[int, tuple[bytes, bytes | None]] = {}
        self.references: dict[int, object] = {}
        self.failures: list[str] = []
        self.passes: list[Pass] = []

    def paths(self, index: int):
        job = self.jobs[index]
        out = self.workdir / f"job{index:02d}.{job.ext}"
        dump = self.workdir / f"job{index:02d}.probs.csv" if job.dump_probs else None
        return out, dump

    def argv(self, index: int) -> list[str]:
        out, dump = self.paths(index)
        argv = list(self.jobs[index].argv) + ["--out", out.name]
        if dump is not None:
            argv += ["--dump-probs", dump.name]
        return argv

    def run_pass(self, pass_no: int, traced: bool) -> None:
        record = Pass(traced)
        self.passes.append(record)
        if traced:
            self.tracer.install()
        try:
            for index in range(len(self.jobs)):
                interval, problem = self.run_job(pass_no, index, traced)
                record.latencies.append(interval.wall)
                record.reference_s.append(interval.reference)
                record.kernels += interval.kernels()
                problem = problem or self.verify(index)
                if problem:
                    self.failures.append(f"pass {pass_no} job {index}: {problem}")
        finally:
            if traced:
                self.tracer.uninstall()

    def run_job(self, pass_no: int, index: int, traced: bool) -> tuple[Interval, str | None]:
        for path in self.paths(index):
            if path is not None:
                path.unlink(missing_ok=True)
        argv = self.argv(index)
        sink = io.StringIO()
        if traced:
            self.tracer.start_job(pass_no, index)
        try:
            with Interval() as interval, redirect_stdout(sink), redirect_stderr(sink):
                code = self.cli.main(argv)
            problem = None if code == 0 else f"exit code {code}: {sink.getvalue()[-300:]}"
        except (Exception, SystemExit):  # a failing job is counted; the run goes on
            problem = "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        if traced:
            self.tracer.end_job()
        return interval, problem

    def read(self, index: int) -> tuple[bytes, bytes | None]:
        out, dump = self.paths(index)
        return out.read_bytes(), (dump.read_bytes() if dump is not None else None)

    @staticmethod
    def digest(data: bytes, dump: bytes | None) -> str:
        return hashlib.sha256(data + b"\0" + (dump or b"")).hexdigest()

    def verify(self, index: int) -> str | None:
        """Oracle check on the first output of a job, digest match afterwards."""
        try:
            data, dump = self.read(index)
        except OSError as exc:
            return f"no output: {exc}"
        if index in self.digests:
            return self.rerun_problem(index, data, dump)
        self.digests[index] = self.digest(data, dump)
        self.outputs[index] = (data, dump)
        problems = oracles.check(self.jobs[index], data, dump, self.reference(index))
        if problems:
            return "oracle: " + "; ".join(problems[:3])
        return None

    def rerun_problem(self, index: int, data: bytes, dump: bytes | None) -> str | None:
        if self.digest(data, dump) != self.digests[index]:
            return "output differs from the first pass with the same seed"
        return None

    def reference(self, index: int):
        job = self.jobs[index]
        if job.kind != "reconstruct" or job.params["noisy"]:
            return None
        if index not in self.references:
            self.references[index] = oracles.analytic_field(job)
        return self.references[index]

    def self_test(self) -> tuple[list[str], list[str]]:
        """Plant one wrong answer per oracle and one changed rerun output.

        Returns the planted answers and the ones that went unnoticed.
        """
        planted, missed, tried = [], [], set()
        kinds = {(job.kind, bool(job.params.get("noisy"))) for job in self.jobs}
        for index, (data, dump) in self.outputs.items():
            job = self.jobs[index]
            key = (job.kind, bool(job.params.get("noisy")))
            if key in tried:
                continue
            try:
                label, bad = oracles.plant(job, data)
            except ValueError:
                continue  # an empty table: try another job of this kind
            tried.add(key)
            planted.append(f"{job.kind}: {label}")
            if not oracles.check(job, bad, dump, self.reference(index)):
                missed.append(planted[-1])
        missed += [f"{kind}: no output to plant into" for kind, _ in kinds - tried]
        planted.append("digest: changed rerun output")
        if not self.outputs:
            missed.append(planted[-1])
        for index, (data, dump) in list(self.outputs.items())[:1]:
            if self.rerun_problem(index, data[:-1] + b"\n\n", dump) is None:
                missed.append(planted[-1])
        return planted, missed

    def summary_counts(self) -> tuple[int, int]:
        """(rows, bytes) written per pass, from the first pass's outputs."""
        rows = nbytes = 0
        for index, (data, dump) in self.outputs.items():
            columns, table = oracles.parse_table(data, self.jobs[index].ext)
            rows += len(table)
            nbytes += len(data) + len(dump or b"")
        return rows, nbytes

    def noiseless_error(self) -> float:
        worst = 0.0
        for index, (data, _) in self.outputs.items():
            reference = self.reference(index)
            if reference is not None:
                columns, rows = oracles.parse_table(data, self.jobs[index].ext)
                worst = max(worst, oracles.reconstruction_error(
                    self.jobs[index], columns, rows, reference))
        return worst


def mean_pass_s(passes: list[Pass]) -> float:
    return statistics.mean(sum(p.reference_s) for p in passes)


def per_job_median(passes: list[Pass]) -> list[float]:
    """Each job's median reference latency over the passes."""
    return [statistics.median(column) for column in zip(*(p.reference_s for p in passes))]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(0, n - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / n


def run_passes(runner: Runner, workdir: Path, args) -> tuple[float, list[str], list[str]]:
    """Repeat passes while another one fits in ``args.seconds``.

    Returns the measured wall time, the planted wrong answers of the
    self-test and the ones it missed.
    """
    planted, missed = [], []
    min_passes = MIN_PASSES_TRACED if args.trace else MIN_PASSES
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        start = perf_counter()
        while True:
            pass_no = len(runner.passes)
            runner.run_pass(pass_no, traced=bool(args.trace) and pass_no % 2 == 1)
            if pass_no == 0:
                planted, missed = runner.self_test()
            done = pass_no + 1
            elapsed = perf_counter() - start
            if done >= min_passes and elapsed * (done + 1) / done > args.seconds:
                return elapsed, planted, missed
    finally:
        os.chdir(cwd)


def end_to_end_metrics(runner: Runner, setup_probes: list[tuple]) -> dict[str, float]:
    lat = [x for p in runner.passes for x in p.reference_s]
    wall = [x for p in runner.passes for x in p.latencies]
    kernels = [x for p in runner.passes for x in p.kernels]
    kernels += [x for _, _, pair in setup_probes for x in pair]
    tail_value, tail_pct = tail(lat)
    print(f"job_tail_ms is p{tail_pct:.1f} of {len(lat)} jobs ({TAIL_BEYOND} jobs beyond it); "
          f"setup_s is the median of {len(setup_probes)} fresh interpreters; times are in "
          f"reference seconds (calibration kernel = {1000 * REFERENCE_KERNEL_S:g} ms)")
    print(f"wall clock: jobs_per_s {len(wall) / sum(wall):.4f}, "
          f"job_p50_ms {1000 * statistics.median(wall):.2f}, "
          f"setup_s {statistics.median(s for s, _, _ in setup_probes):.4f}; calibration kernel "
          f"median {1000 * statistics.median(kernels):.3f} ms, range "
          f"{1000 * min(kernels):.3f}-{1000 * max(kernels):.3f} ms over {len(kernels)} runs")
    return {
        "setup_s": statistics.median(ref for _, ref, _ in setup_probes),
        "jobs_per_s": len(runner.jobs) / sum(per_job_median(runner.passes)),
        "job_p50_ms": 1000.0 * statistics.median(lat),
        "job_tail_ms": 1000.0 * tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(runner: Runner, tracer: Tracer, imports: list[dict], args) -> dict[str, float]:
    plain = [p for p in runner.passes if not p.traced]
    traced = [p for p in runner.passes if p.traced]
    metrics = tracer.layer_metrics(len(traced))
    rows, nbytes = runner.summary_counts()
    metrics.update({
        "cli.rows": rows,
        "cli.bytes_out": nbytes,
        "measurement.max_err_noiseless": runner.noiseless_error(),
        "setup.import_numpy_s": statistics.median(p["numpy"] for p in imports),
        "setup.import_scipy_s": statistics.median(p["scipy"] for p in imports),
        "setup.import_ptwalk_s": statistics.median(p["ptwalk"] for p in imports),
        "trace.overhead_frac": mean_pass_s(traced) / mean_pass_s(plain) - 1.0,
    })
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write_spans(spans_path)
    print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ptwalk" / "cli.py").is_file():
        print(f"error: no ptwalk sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for the client, the calibration kernel and the set-up probes
    # (children inherit it), so a kernel time describes the CPU the timed
    # interval ran on.
    nproc = len(os.sched_getaffinity(0))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    jobs = workloads.generate(args.workload, args.seed)
    env = probe_env()
    setup_probe(env)  # warm-up: compiles bytecode and fills the page cache
    if args.trace:
        imports = [importtime_probe(env) for _ in range(IMPORTTIME_PROBES)]
    else:
        setup_probes = [setup_probe(env) for _ in range(SETUP_PROBES)]

    import ptwalk.cli as cli

    tracer = Tracer() if args.trace else None
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"jobs-{os.getpid()}"
    workdir.mkdir()
    meta = run_metadata(args, jobs, nproc, cpu)
    runner = Runner(cli, jobs, workdir, tracer)
    for index in range(len(jobs)):
        print(f"job {index:02d}: ptwalk {shlex.join(runner.argv(index))}")
    try:
        measured, planted, missed = run_passes(runner, workdir, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.latencies) for p in runner.passes)
    problems = list(runner.failures)
    problems += [f"self-test: planted wrong answer not caught ({m})" for m in missed]
    problems += [f"BLAS {lib} runs {n} threads > nproc {meta['nproc']}"
                 for lib, n in meta["blas_threads"].items() if n > meta["nproc"]]
    meta.update(passes=len(runner.passes), measured_s=round(measured, 3), attempted=attempted,
                failed=len(runner.failures),
                pass_s=[round(sum(p.latencies), 3) for p in runner.passes])
    if args.trace:
        metrics, section = layer_metrics(runner, tracer, imports, args), "per_layer"
    else:
        metrics, section = end_to_end_metrics(runner, setup_probes), "end_to_end"
    units = metric_units(section)
    if set(metrics) != set(units):
        differ = sorted(set(metrics) ^ set(units))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {differ}")

    print(f"self-test: {len(planted) - len(missed)} of {len(planted)} planted wrong answers "
          f"caught ({'; '.join(planted)})")
    print("meta: " + json.dumps(meta, sort_keys=True))
    for problem in problems[:20]:
        print("FAIL " + problem, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "argv": [runner.argv(i) for i in range(len(jobs))],
                                  "latencies_s": [p.latencies for p in runner.passes],
                                  "reference_s": [p.reference_s for p in runner.passes],
                                  "kernel_s": [p.kernels for p in runner.passes],
                                  "problems": problems, **result}, indent=1) + "\n",
                      encoding="utf-8")
    print(json.dumps(result))
    return 0


def metric_units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


if __name__ == "__main__":
    sys.exit(main())
