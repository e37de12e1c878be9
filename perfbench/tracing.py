"""Span tracing of the program's layers, from outside the program.

``Tracer.install`` wraps every public function of the traced modules and
puts the wrapper in place of each module-level name bound to the original
function, in every ``conformalflow`` module.  Callers look those names up at
call time (``flow.integrate`` finds ``vector_field_fast`` in ``flow``'s
namespace, ``lab`` finds ``modulation.track_modulation`` as a module
attribute), so every call into a layer opens a span.  ``uninstall`` puts the
originals back; untraced solves run the unmodified program.

A span is (name, start, end, parent index).  Spans stay in memory until
``write_spans`` saves them when the benchmark exits.  A span's self time is
its duration minus the time its child spans cover; the program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("kernel", "flow", "observables", "modulation", "linearized", "lab")


def _table_bytes(args, kwargs, result):
    # computed from the returned array's shape, not measured
    return result.nbytes


def _newton_iters(args, kwargs, result):
    return len(result.residual_history)


def _keep_result(args, kwargs, result):
    return result


def _csv_path(args, kwargs, result):
    return Path(args[0] if args else kwargs["path"])


#: what a wrapper keeps from a call besides its span
NOTES = {
    "kernel.layered_pair_sums": _table_bytes,
    "flow.integrate": _keep_result,
    "modulation.decompose": _newton_iters,
    "lab.write_trajectory_csv": _csv_path,
    "lab.write_track_csv": _csv_path,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = [-1]
        self.notes: dict[str, list] = defaultdict(list)
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn):
        spans, stack, notes = self.spans, self.stack, self.notes
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if note is not None:
                notes[name].append(note(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"conformalflow.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "conformalflow" and not mod_name.startswith("conformalflow."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ spans

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write("index,name,start_s,end_s,parent\n")
            for idx, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{idx},{name},{start!r},{end!r},{parent}\n")


def layer_totals(spans, first: int, last: int) -> tuple[dict, dict, dict]:
    """Calls, inclusive seconds and self seconds per span name in spans[first:last]."""
    covered = defaultdict(float)
    for _, start, end, parent in spans[first:last]:
        if parent >= first:
            covered[parent] += end - start
    calls, total, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    for idx in range(first, last):
        name, start, end, _ = spans[idx]
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - covered[idx]
    return calls, total, self_s


def per_layer_metrics(tracer: Tracer, first: int, last: int) -> dict[str, float]:
    """The per-layer metrics of one traced solve: spans[first:last] and the
    notes taken since ``tracer.notes`` was last cleared."""
    calls, total, self_s = layer_totals(tracer.spans, first, last)
    notes = tracer.notes
    records = notes.get("flow.integrate", [])
    accepted = sum(r.accepted for r in records)
    rejected = sum(r.rejected for r in records)
    drift = max((max(r.max_relative_drift().values()) for r in records), default=0.0)
    csv_paths = notes.get("lab.write_trajectory_csv", []) + notes.get("lab.write_track_csv", [])

    def self_of(*names: str) -> float:
        return sum(self_s[n] for n in names)

    return {
        "kernel.table_calls": calls["kernel.layered_pair_sums"],
        "kernel.table_s": self_of("kernel.layered_pair_sums"),
        "kernel.prefix_s": self_of("kernel.layer_prefix_sums"),
        "kernel.table_bytes": max(notes.get("kernel.layered_pair_sums", []), default=0),
        "flow.rhs_evals": calls["flow.vector_field_fast"],
        "flow.rhs_s": total["flow.vector_field_fast"],
        "flow.contract_s": self_of("flow.vector_field_fast"),
        "flow.integrate_self_s": self_of("flow.integrate"),
        "flow.steps_accepted": accepted,
        "flow.steps_rejected": rejected,
        # 0 when the workload takes no steps
        "flow.accept_ratio": accepted / (accepted + rejected) if accepted + rejected else 0.0,
        "flow.oracle_checks": calls["flow.vector_field_naive"],
        "flow.max_rel_drift": drift,
        "observables.energy_calls": calls["observables.energy_fast"],
        "observables.energy_s": self_of("observables.energy_fast"),
        "modulation.decompose_calls": calls["modulation.decompose"],
        "modulation.decompose_s": self_of("modulation.decompose"),
        "modulation.newton_iters": sum(notes.get("modulation.decompose", [])),
        "modulation.orbit_distance_calls": calls["modulation.orbit_distance"],
        "modulation.orbit_distance_s": self_of("modulation.orbit_distance"),
        "modulation.track_s": self_of("modulation.track_modulation"),
        "linearized.build_ops_s": self_of("linearized.build_ground_ops", "linearized.build_single_mode_ops"),
        "linearized.eigh_s": self_of("linearized.spectrum"),
        "linearized.eigvals_s": self_of("linearized.stability_spectrum"),
        "linearized.ladder_s": self_of("linearized.ladder_check", "linearized.mu_ladder"),
        "linearized.commutators_s": self_of("linearized.commutators"),
        "linearized.identities_s": self_of("linearized.appendix_identities", "linearized.mode_energy_relation"),
        "lab.perturbation_s": self_of("lab.generate_perturbation"),
        "lab.csv_write_s": self_of("lab.write_trajectory_csv", "lab.write_track_csv"),
        "lab.csv_bytes": sum(os.path.getsize(p) for p in csv_paths if p.is_file()),
        "trace.spans": last - first,
    }


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
