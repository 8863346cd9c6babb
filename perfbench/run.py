"""quniverse benchmark: run one seeded workload, check its outputs, print metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload audit --seed 0 --seconds 20 --trace 0

``--workload`` is ``audit``, ``trajectory``, ``selfcheck`` (see
``workloads.py`` for what each runs and why) or ``all``, which runs the
three in turn.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are the ones declared in ``BENCHMARK.json``.

With ``--trace 0`` the end-to-end metrics are measured with tracing off:

``items_per_s``
    median over repetitions of items per calibrated second, one
    repetition being one ``quniverse.cli.main`` call at the workload's
    stated size;
``setup_s``
    median over several fresh interpreters of the calibrated time from
    launch until ``quniverse.cli`` is imported and ready for its first call;
``peak_rss_mb``
    peak resident memory of the process that ran only that workload.

Repetitions continue until ``--seconds`` have passed, and there are at
least two, since the outputs of every repetition must be byte-identical;
one ``audit`` repetition alone takes 13-20 s on a 2-vCPU Xeon VM.

Calibrated seconds are wall seconds scaled by the fixed loop of
``calibration.py``, sampled every 0.1 s during each repetition and right
after each launch is ready: the speed
of a shared machine drifts by up to a factor of two over tens of seconds,
which no amount of repetition averages away.  The wall-clock figures and
every calibration time are kept in the record and printed beside the
metrics, so drift stays visible.

With ``--trace 1`` the time is split between an untraced and a traced
process, and the per-layer metrics (calls, wall-clock self time and
counts for one repetition, taken by ``tracer.py``) are printed instead,
with ``trace.overhead_frac``, the traced slowdown against the untraced
run, and ``machine.iteration_s``, the calibration loop's speed meanwhile.

Every workload runs in its own fresh subprocess with BLAS threads pinned
to one, one process at a time.  The full record, with provenance, goes to
``.perfbench_out/``.  Any failed output check makes ``correct`` false; the
exit status is 0 whenever a result is printed and 2 when none could be
produced (for example when the sources under ``src/`` are missing).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: fresh interpreters timed for ``setup_s``, half before and half after the
#: workload so that the median spans the run; one launch varies too much
SETUP_LAUNCHES = 8
#: a single-workload run must finish within 180 s
DEADLINE_S = 170.0

SETUP_SNIPPET = """\
import time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import quniverse.cli
t2 = time.perf_counter()
print(t1 - t0, t2 - t1, flush=True)
import sys
sys.path.insert(0, sys.argv[1])
from calibration import speed_factor
print(speed_factor(), flush=True)
"""

CLI_SNIPPET = "import sys; from quniverse import cli; sys.exit(cli.main(sys.argv[1:]))"


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    return left


def measure_setup(env: dict, deadline: float, launches: int) -> dict:
    """Launch-to-ready times of fresh interpreters importing ``quniverse.cli``.

    Once ready, each interpreter samples the calibration loop, and its
    launch time is converted to calibrated seconds like a repetition.
    """
    out = {"ready_s": [], "speed_factor": [], "setup_s": [],
           "import_numpy_s": [], "import_quniverse_s": []}
    for _ in range(launches):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_SNIPPET, str(HERE)], env=env,
                                cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=remaining(deadline))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line:
            raise BenchError("importing quniverse.cli failed")
        numpy_s, quniverse_s = (float(v) for v in line.split())
        factor = float(rest)
        out["ready_s"].append(ready)
        out["speed_factor"].append(factor)
        out["setup_s"].append(ready * factor)
        out["import_numpy_s"].append(numpy_s)
        out["import_quniverse_s"].append(quniverse_s)
    return out


def run_worker(workload: str, seed: int, seconds: float, min_reps: int, trace: bool,
               env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--min-reps", str(min_reps), "--trace", str(int(trace))]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=remaining(deadline))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker ran out of time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fault_check(seed: int, env: dict, deadline: float) -> list:
    """``verify --inject-fault`` must exit 1 and report failures: the checks bite."""
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"fault-seed{seed}-{os.getpid()}.json"
    argv = ["verify", "--inject-fault", workloads.FAULT, "--seed", str(seed), "--out", str(out)]
    try:
        proc = subprocess.run([sys.executable, "-c", CLI_SNIPPET, *argv], env=env, cwd=ROOT,
                              stdout=subprocess.DEVNULL, timeout=remaining(deadline))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("fault-injection run ran out of time") from exc
    try:
        outcome = workloads.check_summary(out.read_text(encoding="utf-8"))
        out.unlink()
    except OSError:
        return ["fault-injection run wrote no summary"]
    problems = []
    if proc.returncode != 1:
        problems.append(f"verify --inject-fault exited {proc.returncode}, expected 1")
    if outcome.failed == 0:
        problems.append("verify --inject-fault reported no failing case")
    return problems


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, units: dict) -> dict:
    """Measure one workload; returns the result object and the full record."""
    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    setup = measure_setup(env, deadline, SETUP_LAUNCHES // 2)
    if trace:
        workers = [run_worker(workload, seed, seconds / 2, 1, False, env, deadline),
                   run_worker(workload, seed, seconds / 2, 1, True, env, deadline)]
    else:
        workers = [run_worker(workload, seed, seconds, 2, False, env, deadline)]
    for key, values in measure_setup(env, deadline, SETUP_LAUNCHES // 2).items():
        setup[key] += values
    problems = [p for w in workers for p in w["problems"]]
    if len({d for w in workers for d in w["digests"]}) != 1:
        problems.append("outputs differ between repetitions with the same seed")
    for w in workers:
        if Path(w["provenance"]["quniverse"]) != SRC / "quniverse":
            problems.append(f"imported quniverse from {w['provenance']['quniverse']}")
    if workload == "selfcheck":
        problems += fault_check(seed, env, deadline)

    untraced = workers[0]
    if trace:
        traced = workers[1]
        values = dict(traced["layers"])
        values["setup.import_numpy_s"] = statistics.median(setup["import_numpy_s"])
        values["setup.import_quniverse_s"] = statistics.median(setup["import_quniverse_s"])
        values["trace.overhead_frac"] = untraced["items_per_s"] / traced["items_per_s"] - 1.0
        values["machine.iteration_s"] = statistics.median(traced["calibration_iteration_s"])
    else:
        values = {
            "items_per_s": untraced["items_per_s"],
            "setup_s": statistics.median(setup["setup_s"]),
            "peak_rss_mb": untraced["peak_rss_mb"],
        }
    declared = units[int(trace)]
    missing = sorted(set(declared) - set(values))
    if missing:
        raise BenchError(f"metrics declared but not produced: {missing}")
    result = {
        "correct": not problems and all(w["failed"] == 0 for w in workers),
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }
    record = {"result": result, "problems": problems, "setup": setup, "workers": workers,
              "undeclared": {k: v for k, v in values.items() if k not in declared}}
    return record


def summary_lines(record: dict) -> list:
    """Human-readable lines: each metric with its unit and sample count."""
    worker = record["workers"][0]
    samples = {"items_per_s": worker["reps"], "setup_s": len(record["setup"]["setup_s"])}
    lines = []
    for name, metric in record["result"]["metrics"].items():
        note = f"  (median of {samples[name]})" if name in samples else ""
        lines.append(f"  {name:42s} {metric['value']:<14.6g} {metric['unit']}{note}")
    prov = worker["provenance"]
    per_iteration = worker["calibration_iteration_s"]
    lines.append(f"  wall clock {worker['items_per_wall_s']:.6g} items/s, setup "
                 f"{statistics.median(record['setup']['ready_s']):.4f} s; calibration loop "
                 f"{min(per_iteration):.3g}-{max(per_iteration):.3g} s per iteration "
                 f"(reference {worker['calibration_reference_s']:.3g} s), "
                 f"{worker['calibration_before_s']:.4f} s before and "
                 f"{worker['calibration_after_s']:.4f} s after the workload")
    lines.append(f"  {prov['nproc']} cpus ({prov['cpu_model']}), python {prov['python']}, "
                 f"numpy {prov['numpy']}, {prov['blas']}, commit {prov['git_commit'][:12]}")
    lines += [f"  PROBLEM: {p}" for p in record["problems"]]
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "quniverse" / "cli.py").is_file():
        print(f"error: no quniverse sources under {SRC}", file=sys.stderr)
        return 2

    units = declared_metrics()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    OUT_DIR.mkdir(exist_ok=True)
    for workload in names:
        try:
            record = run_workload(workload, args.seed, args.seconds, bool(args.trace), units)
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 2
        path = OUT_DIR / f"run-{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"{workload} seed={args.seed} trace={args.trace} -> {path.relative_to(ROOT)}")
        print("\n".join(summary_lines(record)))
        results[workload] = record["result"]

    if len(results) == 1:
        final = results[names[0]]
    else:
        for workload, result in results.items():
            print(json.dumps({"workload": workload, **result}))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
