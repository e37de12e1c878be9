"""Self-test of the benchmark at a tiny size.

From the root of a checkout:

    python3 perfbench/selftest.py

For each workload it runs the measuring loop once untraced and once traced,
requires every metric BENCHMARK.json lists and a correct result, and then
shows that each output check trips on a deliberately corrupted result.
Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import shutil
import sys
from pathlib import Path

import run

SEED = 3


def _first_key(mapping: dict):
    return next(iter(mapping))


#: one corruption per check in workloads.CHECKS, applied to a collected result
CORRUPTIONS = {
    "drift-n48": {
        "exit_code": lambda r: r.update(exit_code=3),
        "n_failed": lambda r: r["summary"].update(n_failed=1),
        "member_ok": lambda r: r["summary"]["runs"][0].update(ok=False),
        "energy_budget": lambda r: r["summary"]["runs"][-1].update(max_energy_budget_error=1e-6),
        "track_csv_rows": lambda r: r["csv_rows"].update({_first_key(r["csv_rows"]): r["expected_rows"] - 1}),
        "oracle_field": lambda r: r["oracle"].update(field_rel=1e-6),
        "oracle_energy": lambda r: r["oracle"].update(energy_rel=float("nan")),
    },
    "track-n512": {
        "completed": lambda r: r.update(error="FlowError('step size underflow')"),
        "drift_H": lambda r: r["drift"].update(H=2e-8),
        "drift_Q": lambda r: r["drift"].update(Q=float("nan")),
        "drift_E": lambda r: r["drift"].update(E=1.0),
        "trajectory_csv_rows": lambda r: r.update(trajectory_rows=-1),
        "track_csv_rows": lambda r: r.update(track_rows=r["expected_rows"] + 1),
    },
    "spectrum-n512": {
        "exit_code": lambda r: r.update(exit_code=3),
        "ground_minus_err": lambda r: r["report"]["ground"]["0.3"].update(minus_err=1e-6),
        "ground_plus_err": lambda r: r["report"]["ground"]["0.6"].update(plus_err=float("inf")),
        "ground_omega_err": lambda r: r["report"]["ground"]["0.0"].update(omega_err=1e-7),
        "ground_kernel": lambda r: r["report"]["ground"]["0.3"].update(jordan_partners=0),
        "ground_unstable": lambda r: r["report"]["ground"]["0.6"].update(unstable=True),
        "ladder_residual": lambda r: r["report"]["ground"]["0.3"].update(ladder_max_residual=1e-6),
        "mu_residual": lambda r: r["report"]["ground"]["0.6"].update(mu_max_residual=float("nan")),
        "commutator": lambda r: r["report"]["ground"]["0.6"].update(commutator_max=1e-5),
        "single_mode_omega_err": lambda r: r["report"]["single_mode"]["0"].update(omega_err=1e-3),
        "single_mode_count": lambda r: r["report"]["single_mode"]["1"].update(count_got=10),
        "single_mode_unstable": lambda r: r["report"]["single_mode"]["2"].update(unstable=True),
        "identities_appendix": lambda r: r["report"]["identities"]["0.3"]["appendix"].update(folded_sum=1e-9),
        "identities_mode_energy": lambda r: r["report"]["identities"]["0.6"]["mode_energy"].update(orthogonality=-1e-6),
    },
}


def check_trips(name: str, workloads) -> list[str]:
    """Problems found when corrupting each output of one tiny solve of ``name``."""
    problems = []
    if set(CORRUPTIONS[name]) != set(workloads.CHECKS[name]):
        problems.append(f"{name}: corruptions do not cover the checks {workloads.CHECKS[name]}")
    inp = workloads.make_inputs(name, SEED, "tiny", Path(".bench_out") / f"selftest-{name}")
    workloads.reset_workdir(inp)
    try:
        result = workloads.collect(inp, workloads.solve(inp))
    finally:
        shutil.rmtree(inp.workdir, ignore_errors=True)
    clean = workloads.check(inp, result)
    if clean:
        problems.append(f"{name}: uncorrupted result failed {clean}")
    for label, corrupt in CORRUPTIONS[name].items():
        bad = copy.deepcopy(result)
        corrupt(bad)
        tripped = {check for _, check in workloads.check(inp, bad)}
        if label not in tripped:
            problems.append(f"{name}: corrupting {label} tripped {sorted(tripped) or 'nothing'}")
    return problems


def main() -> int:
    root = Path.cwd()
    src = run.use_checkout_source(root)
    spec = run.load_spec(root)
    import workloads

    problems = []
    for name in run.NAMES:
        found = []
        for trace in (False, True):
            measured = run.run_workload(root, src, name, SEED, 1, trace, size="tiny")
            line = run.result_line(spec, trace, measured)
            if not line["correct"]:
                found.append(f"{name} trace={int(trace)}: {measured['failures']}")
        found += check_trips(name, workloads)
        print(f"{name}: {'FAIL' if found else 'ok'}, {len(CORRUPTIONS[name])} corrupted outputs")
        problems += found
    for problem in problems:
        print("FAIL " + problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
