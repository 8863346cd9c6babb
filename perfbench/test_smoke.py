"""Fast smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

It drives each workload in process through ``worker.run`` (traced, so the
exact layer counts can be asserted), checks that tracing leaves no patched
name behind and nests calls made from a signal handler, corrupts outputs
to prove the output checks bite, and checks that ``run.py`` prints no
result without the sources.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402
from quniverse import cli, core, dynamics, iel, locality, verification  # noqa: E402

N = 4
STEPS = 20


def _traced(workload, scale, tmp_path):
    return worker.run(workload, seed=5, seconds=0.0, min_reps=2, trace=True, scale=scale,
                      spans_path=tmp_path / "spans.npz")


def test_audit_counts_are_exact(tmp_path):
    record = _traced("audit", N, tmp_path)
    layers = record["layers"]
    assert record["problems"] == [] and record["failed"] == 0
    assert record["attempted"] == 2 * N and len(record["digests"]) == 1
    assert layers["locality.rep_observables.points"] == 38 * N
    assert layers["locality.rep_observables.calls"] == 38 * N
    assert layers["locality.sample_interior_rep.calls"] == N
    assert layers["locality.solve_least_squares.calls"] == N
    assert layers["locality.run_experiment.calls"] == 1
    assert layers["locality.failed"] == 0
    assert 0 < layers["locality.residual.max"] < workloads.AUDIT_THRESHOLD
    assert layers["locality.margin"] > 1
    assert layers["cli.report_bytes"] == record["output_bytes"] > 0
    _assert_self_time_within_wall(layers)
    assert (tmp_path / "spans.npz").is_file()


def test_trajectory_touches_no_locality(tmp_path):
    record = _traced("trajectory", STEPS, tmp_path)
    layers = record["layers"]
    assert record["problems"] == [] and record["attempted"] == 2 * (STEPS + 1)
    assert layers["locality.rep_observables.calls"] == 0
    assert layers["dynamics.trajectory.calls"] == 1
    assert layers["dynamics.extended_state.calls"] == 2 * (STEPS + 1)
    assert layers["iel.evaluate_law.calls"] == STEPS + 1
    assert layers["iel.rc_undefined_rows"] == 0
    assert layers["cli.csv_bytes"] == record["output_bytes"] > 0
    _assert_self_time_within_wall(layers)


def test_selfcheck_runs_every_suite(tmp_path):
    record = _traced("selfcheck", None, tmp_path)
    layers = record["layers"]
    # the summary the CLI wrote and the suites' return values must agree
    assert record["attempted"] == record["reps"] * layers["verification.cases"] > 0
    assert record["failed"] == record["reps"] * layers["verification.failures"]
    assert (record["problems"] == []) == (record["failed"] == 0)
    for suite in verification.SUITES:
        assert layers[f"verification.{suite}.calls"] == 1
    _assert_self_time_within_wall(layers)


def _assert_self_time_within_wall(layers):
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert self_total <= layers["trace.wall_s"]
    assert layers["trace.covered_frac"] > 0.9


def test_tracing_restores_every_name(tmp_path):
    originals = [cli.main, cli._cmd_sample, locality.rep_observables, iel.extended_state,
                 cli.mean_energy, iel.evaluate_law, core.UniverseState.__init__,
                 dynamics.trajectory, dict(verification.SUITES)]
    _traced("audit", 1, tmp_path)
    after = [cli.main, cli._cmd_sample, locality.rep_observables, iel.extended_state,
             cli.mean_energy, iel.evaluate_law, core.UniverseState.__init__,
             dynamics.trajectory, dict(verification.SUITES)]
    assert all(a is b for a, b in zip(originals[:-1], after[:-1]))
    assert originals[-1] == after[-1]


def _report(n=N, seed=5, **changes):
    report = {"n_samples": n, "seed": seed, "threshold": workloads.AUDIT_THRESHOLD,
              "n_solvable": n, "failed_indices": []}
    report.update(changes)
    return json.dumps(report).encode()


@pytest.mark.parametrize("changes", [
    {"n_solvable": N - 1},
    {"n_solvable": N - 1, "failed_indices": [2]},
    {"n_samples": N + 1},
    {"seed": 6},
])
def test_corrupt_report_is_caught(changes):
    assert workloads.check_report(_report(), N, 5).ok
    outcome = workloads.check_report(_report(**changes), N, 5)
    assert not outcome.ok


def test_truncated_report_is_caught():
    assert not workloads.check_report(_report()[:-5], N, 5).ok


def _csv(rows, delta=0.5):
    lines = [workloads.CSV_HEADER]
    for i, (defect, mean_h) in enumerate(rows):
        lines.append(f"{i * 0.1!r},0.1,0.2,0.3,{mean_h!r},{defect!r}")
    return "\n".join(lines) + "\n"


def test_corrupt_csv_is_caught():
    good = [(-0.5, 1.25)] * 3
    assert workloads.check_csv(_csv(good), 2, 0.5).ok
    assert not workloads.check_csv(_csv(good), 3, 0.5).ok
    assert not workloads.check_csv(_csv(good).replace("mean_h", "mean_H"), 2, 0.5).ok
    off_law = workloads.check_csv(_csv([(-0.5, 1.25), (-0.5 + 1e-9, 1.25), (-0.5, 1.25)]), 2, 0.5)
    assert off_law.failed == 1 and not off_law.ok
    drift = workloads.check_csv(_csv([(-0.5, 1.25), (-0.5, 1.25), (-0.5, 1.25 + 1e-11)]), 2, 0.5)
    assert drift.failed == 1
    empty_cells = _csv(good).replace("0.1,0.2,0.3", ",,", 1)
    assert workloads.check_csv(empty_cells, 2, 0.5).failed == 1


def test_failed_selfcheck_is_caught():
    summary = {"suites": [{"name": n, "cases": 2, "failures": []} for n in verification.SUITES],
               "all_passed": True}
    assert workloads.check_summary(json.dumps(summary)).ok
    summary["suites"][1]["failures"] = ["rho_dot oracle"]
    summary["all_passed"] = False
    outcome = workloads.check_summary(json.dumps(summary))
    assert outcome.failed == 1 and not outcome.ok


def test_spans_nest_under_signal_handler_calls():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(200)))

    def busy():
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            outer_step()

    outer_step = tracer.wrap("step", lambda: sum(range(50)))
    outer = tracer.wrap("outer", busy)
    previous = signal.signal(signal.SIGALRM, lambda *_: inner())
    signal.setitimer(signal.ITIMER_REAL, 0.001, 0.001)
    try:
        outer()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    totals = tracer.totals()
    assert totals["outer"]["calls"] == 1 and totals["inner"]["calls"] > 20
    assert all(t["self_s"] >= 0 for t in totals.values())
    wall = totals["outer"]["total_s"]
    assert abs(sum(t["self_s"] for t in totals.values()) - wall) < 1e-9


def test_fault_injection_is_caught():
    assert run.fault_check(5, run.child_env(), time.monotonic() + 60) == []


def test_no_result_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "audit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
