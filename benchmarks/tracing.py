"""Outside-in layer tracing of the ptwalk package, from the benchmark's side.

Every public function of every layer module is replaced by a timing wrapper
while a traced pass runs.  Modules bind each other's functions by name
(``from .quench import find_fixed_points``), so the wrapper is installed in
every ``ptwalk`` namespace that holds the original object; patching only the
defining module would let those callers bypass it.  No file of the package
changes.

A span is (pass, job, span id, parent id, name, start, end, error); spans of
one job share the job index.  Self time is a span's duration minus the time
its child spans cover.  Counters that need a result (batch sizes, cells,
fixed points found) are taken by per-function observers after the call; their
own cost is charged to no span.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "floquet", "core", "spectrum", "quench", "chern", "walksim", "measurement")

# Public functions outside a module's __all__ that other modules import.
EXTRA_TARGETS = {"quench": ("initial_spinors",)}


def targets() -> list[tuple[str, str]]:
    """(layer, function name) for every traced function."""
    out = []
    for layer in LAYERS:
        module = sys.modules[f"ptwalk.{layer}"]
        names = list(module.__all__) + list(EXTRA_TARGETS.get(layer, ()))
        for name in names:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                out.append((layer, name))
    return out


def _arg(fn_sig, args, kwargs, name):
    bound = fn_sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


class Tracer:
    """Collects spans and counters; ``install``/``uninstall`` bracket a pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stats = defaultdict(lambda: [0, 0.0, 0])  # name -> [calls, self_s, errors]
        self.counters = defaultdict(float)
        self.active = False
        self.pass_no = 0
        self.job_no = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple] = []
        self._seen_inputs: set[bytes] = set()
        self._riemann: dict = {}
        self._observers = {
            "core.eig_biorthogonal_grid": self._observe_eig,
            "spectrum.phase_diagram": self._observe_phase_diagram,
            "quench.find_fixed_points": self._observe_fixed_points,
            "quench.bloch_field": self._observe_bloch_field,
            "chern.build_submanifolds": self._observe_submanifolds,
            "chern.chern_riemann": self._observe_riemann,
            "chern.chern_solid_angle": self._observe_solid_angle,
            "walksim.evolve": self._observe_evolve,
            "measurement.all_pair_probabilities": self._observe_pairs,
            "measurement.assemble_hermitian_density": self._observe_assemble,
        }

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        namespaces = [m for n, m in sys.modules.items() if n == "ptwalk" or n.startswith("ptwalk.")]
        for layer, name in targets():
            original = getattr(sys.modules[f"ptwalk.{layer}"], name)
            wrapper = self._wrap(f"{layer}.{name}", original)
            for module in namespaces:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def start_job(self, pass_no: int, job_no: int) -> None:
        self.pass_no, self.job_no = pass_no, job_no
        self._seen_inputs.clear()
        self._riemann.clear()
        self.active = True

    def end_job(self) -> None:
        self.active = False

    # -- spans ------------------------------------------------------------
    def _wrap(self, name: str, fn):
        observe = self._observers.get(name)
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0, tracer.counters["core.eig_grid.calls"]]
            stack.append(frame)
            t0 = perf_counter()
            error = False
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                entry = tracer.stats[name]
                entry[0] += 1
                entry[1] += (t1 - t0) - frame[1]
                entry[2] += error
                tracer.spans.append(
                    (tracer.pass_no, tracer.job_no, span_id, parent, name, t0, t1, error))
                if error and stack:
                    stack[-1][1] += perf_counter() - t0
            if observe is not None:
                observe(sig, args, kwargs, result, frame)
            if stack:
                # The parent's self time excludes this span and its observer.
                stack[-1][1] += perf_counter() - t0
            return result

        return wrapper

    # -- observers ----------------------------------------------------------
    def _observe_eig(self, sig, args, kwargs, result, frame):
        ms = np.ascontiguousarray(_arg(sig, args, kwargs, "ms"))
        c = self.counters
        c["core.eig_grid.calls"] += 1
        c["core.eig_grid.matrices"] += ms.size // 4
        key = hashlib.blake2b(ms.tobytes(), digest_size=16).digest() + repr(ms.shape).encode()
        if key in self._seen_inputs:
            c["core.eig_grid.repeats"] += 1
        self._seen_inputs.add(key)

    def _observe_phase_diagram(self, sig, args, kwargs, result, frame):
        self.counters["spectrum.phase_diagram.cells"] += len(result)
        self.counters["spectrum.nu_defined"] += sum(cell.nu is not None for cell in result)

    def _observe_fixed_points(self, sig, args, kwargs, result, frame):
        c = self.counters
        c["quench.fixed_points.found"] += len(result)
        c["quench.fixed_points.eig_calls"] += c["core.eig_grid.calls"] - frame[2]
        worst = max((fp.residual for fp in result), default=0.0)
        c["quench.fixed_points.max_residual"] = max(c["quench.fixed_points.max_residual"], worst)

    def _observe_bloch_field(self, sig, args, kwargs, result, frame):
        self.counters["quench.bloch_field.points"] += result.n.shape[0] * result.n.shape[1]

    def _observe_submanifolds(self, sig, args, kwargs, result, frame):
        self.counters["chern.submanifolds"] += len(result)

    def _observe_riemann(self, sig, args, kwargs, result, frame):
        n_k, n_t = _arg(sig, args, kwargs, "n_k"), _arg(sig, args, kwargs, "n_t")
        self.counters["chern.riemann.points"] += n_k * n_t
        self._riemann[_arg(sig, args, kwargs, "sub")] = result.value

    def _observe_solid_angle(self, sig, args, kwargs, result, frame):
        n_k, n_t = _arg(sig, args, kwargs, "n_k"), _arg(sig, args, kwargs, "n_t")
        self.counters["chern.solid_angle.triangles"] += 2 * n_k * n_t
        riemann = self._riemann.get(_arg(sig, args, kwargs, "sub"))
        if riemann is not None:
            c = self.counters
            c["chern.max_disagreement"] = max(c["chern.max_disagreement"], abs(riemann - result.value))

    def _observe_evolve(self, sig, args, kwargs, result, frame):
        self.counters["walksim.site_steps"] += sum(len(state.amplitudes) for state in result)

    def _observe_pairs(self, sig, args, kwargs, result, frame):
        c = self.counters
        c["measurement.pairs.count"] += len(result)
        c["measurement.pairs.zero"] += sum(
            not (pair.p_l.any() or pair.p_d.any()) for pair in result
        )

    def _observe_assemble(self, sig, args, kwargs, result, frame):
        table, k = _arg(sig, args, kwargs, "table"), _arg(sig, args, kwargs, "k")
        self.counters["measurement.assemble.terms"] += np.size(k) * len(table.table) ** 2

    # -- report -------------------------------------------------------------
    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, as totals per pass over the job list."""
        s, c = self.stats, self.counters

        def calls(*names):
            return sum(s[n][0] for n in names) / passes

        def self_s(*names):
            return sum(s[n][1] for n in names) / passes

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for layer in LAYERS:
            names = [n for n in list(s) if n.split(".")[0] == layer]
            out[f"{layer}.calls"] = calls(*names)
            out[f"{layer}.self_s"] = self_s(*names)
            out[f"{layer}.errors"] = sum(s[n][2] for n in names) / passes
        eig = "core.eig_biorthogonal_grid"
        pairs = ("measurement.all_pair_probabilities", "measurement.interference_probabilities")
        out.update({
            "floquet.operator.calls": calls("floquet.momentum_operator_closed"),
            "floquet.operator.self_s": self_s("floquet.momentum_operator_closed"),
            "core.eig_grid.calls": calls(eig),
            "core.eig_grid.matrices": c["core.eig_grid.matrices"] / passes,
            "core.eig_grid.self_s": self_s(eig),
            "core.eig_grid.matrices_per_call": ratio(c["core.eig_grid.matrices"], s[eig][0]),
            "core.eig_grid.repeat_frac": ratio(c["core.eig_grid.repeats"], s[eig][0]),
            "spectrum.phase_diagram.cells": c["spectrum.phase_diagram.cells"] / passes,
            "spectrum.phase_diagram.self_s": self_s("spectrum.phase_diagram"),
            "spectrum.winding.calls": calls("spectrum.winding_number"),
            "spectrum.winding.self_s": self_s("spectrum.winding_number", "spectrum.zak_phase"),
            "spectrum.pt_classify.calls": calls("spectrum.pt_classify"),
            "spectrum.pt_classify.self_s": self_s("spectrum.pt_classify"),
            "spectrum.nu_defined_frac": ratio(c["spectrum.nu_defined"],
                                              c["spectrum.phase_diagram.cells"]),
            "quench.fixed_points.calls": calls("quench.find_fixed_points"),
            "quench.fixed_points.self_s": self_s("quench.find_fixed_points"),
            "quench.fixed_points.found": c["quench.fixed_points.found"] / passes,
            "quench.fixed_points.eig_calls_per_point": ratio(
                c["quench.fixed_points.eig_calls"], c["quench.fixed_points.found"]),
            "quench.fixed_points.max_residual": c["quench.fixed_points.max_residual"],
            "quench.initial_spinors.calls": calls("quench.initial_spinors"),
            "quench.initial_spinors.self_s": self_s("quench.initial_spinors"),
            "quench.bloch_field.self_s": self_s("quench.bloch_field"),
            "quench.bloch_field.points": c["quench.bloch_field.points"] / passes,
            "chern.submanifolds": c["chern.submanifolds"] / passes,
            "chern.riemann.self_s": self_s("chern.chern_riemann"),
            "chern.riemann.points": c["chern.riemann.points"] / passes,
            "chern.solid_angle.self_s": self_s("chern.chern_solid_angle"),
            "chern.solid_angle.triangles": c["chern.solid_angle.triangles"] / passes,
            "chern.max_disagreement": c["chern.max_disagreement"],
            "walksim.evolve.self_s": self_s("walksim.evolve", "walksim.step_position"),
            "walksim.site_steps": c["walksim.site_steps"] / passes,
            "measurement.pairs.self_s": self_s(*pairs),
            "measurement.pairs.count": c["measurement.pairs.count"] / passes,
            "measurement.pairs.zero_frac": ratio(c["measurement.pairs.zero"],
                                                 c["measurement.pairs.count"]),
            "measurement.table.self_s": self_s("measurement.reconstruct_matrix_elements"),
            "measurement.assemble.self_s": self_s("measurement.assemble_hermitian_density"),
            "measurement.assemble.terms": c["measurement.assemble.terms"] / passes,
            "measurement.noise.calls": calls("measurement.sample_shot_noise"),
            "measurement.noise.self_s": self_s("measurement.sample_shot_noise"),
            "measurement.reconstruct.self_s": self_s("measurement.reconstruct_bloch_field"),
        })
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("pass,job,span,parent,name,start_s,end_s,error\n")
            for span in self.spans:
                fh.write("%d,%d,%d,%d,%s,%.9f,%.9f,%d\n" % span)
