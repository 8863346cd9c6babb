"""Run repetitions of one workload in this process and print a JSON record.

Started by ``run.py`` in a fresh interpreter per workload, with BLAS
threads pinned to one.  Every repetition is one call of
``quniverse.cli.main`` under a :class:`calibration.SpeedSampler`, which
yields its wall time and its calibrated time; its output file is read
back and checked outside the timed region.  With ``--trace 1`` the calls
are traced through :class:`tracer.Tracer` and the record carries
per-layer totals for one repetition.

Usage: python3 perfbench/worker.py --workload audit --seed 0 --seconds 10 \
           --min-reps 2 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from quniverse import cli, core, dynamics, iel, locality, verification

import workloads
from calibration import REFERENCE_ITERATION_S, SpeedSampler, loop_s
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

OUTPUT_SUFFIX = {"audit": "json", "trajectory": "csv", "selfcheck": "json"}
WARMUP_SCALE = {"audit": 5, "trajectory": 10, "selfcheck": None}


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "quniverse": str(Path(cli.__file__).resolve().parent),
    }


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class LayerCounts:
    """Counts taken at the traced boundaries, beside the spans."""

    def __init__(self):
        self.points = 0
        self.residuals = []
        self.failed_samples = 0
        self.rc_undefined = 0
        self.cases = 0
        self.failures = 0

    def install(self, tracer: Tracer):
        def points(args, _):
            x = np.asarray(args[0])
            self.points += x.size // x.shape[-1]

        def residual(_, result):
            self.residuals.append(result[1])

        def experiment(_, report):
            self.failed_samples += report.n_samples - report.n_solvable

        def undefined(_, exc):
            if isinstance(exc, iel.RCUndefinedError):
                self.rc_undefined += 1

        def suite(_, result):
            self.cases += result.cases
            self.failures += len(result.failures)

        fn = tracer.patch_function
        fn("cli.main", cli.main)
        fn("cli.sample", cli._cmd_sample)
        fn("cli.simulate", cli._cmd_simulate)
        fn("cli.verify", cli._cmd_verify)
        fn("locality.run_experiment", locality.run_experiment, on_return=experiment)
        fn("locality.sample_interior_rep", locality.sample_interior_rep)
        fn("locality.build_system", locality.build_system)
        fn("locality.numerical_jacobian", locality.numerical_jacobian)
        fn("locality.rep_observables", locality.rep_observables, on_return=points)
        fn("locality.solve_least_squares", locality.solve_least_squares, on_return=residual)
        fn("dynamics.trajectory", dynamics.trajectory)
        fn("dynamics.extended_state", dynamics.extended_state)
        fn("core.mean_energy", core.mean_energy)
        fn("iel.evaluate_law", iel.evaluate_law, on_raise=undefined)
        tracer.patch_class("core.UniverseState", core.UniverseState)
        for name in list(verification.SUITES):
            tracer.patch_entry(f"verification.{name}", verification.SUITES, name, on_return=suite)

    def metrics(self, reps: int) -> dict:
        """Counts for one repetition; residual figures are 0 where none were computed."""
        res = self.residuals
        worst = max(res) if res else 0.0
        return {
            "locality.rep_observables.points": _per_rep(self.points, reps),
            "locality.residual.p50": float(np.quantile(res, 0.5)) if res else 0.0,
            "locality.residual.p99": float(np.quantile(res, 0.99)) if res else 0.0,
            "locality.residual.max": worst,
            "locality.margin": workloads.AUDIT_THRESHOLD / worst if worst > 0 else 0.0,
            "locality.failed": _per_rep(self.failed_samples, reps),
            "iel.rc_undefined_rows": _per_rep(self.rc_undefined, reps),
            "verification.cases": _per_rep(self.cases, reps),
            "verification.failures": _per_rep(self.failures, reps),
        }


def _per_rep(count: int, reps: int):
    """A whole count per repetition stays an integer."""
    return count // reps if count % reps == 0 else count / reps


def _call(argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def run(workload: str, seed: int, seconds: float, min_reps: int, trace: bool,
        scale: int | None = None, spans_path: Path | None = None) -> dict:
    """Repeat the workload for ``seconds`` (at least ``min_reps`` times)."""
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload}-seed{seed}-{os.getpid()}.{OUTPUT_SUFFIX[workload]}"
    argv = workloads.argv(workload, seed, str(out), scale)
    _call(workloads.argv(workload, seed, str(out), WARMUP_SCALE[workload]))

    tracer, counts = (Tracer(), LayerCounts()) if trace else (None, None)
    sampler = SpeedSampler()
    if trace:
        counts.install(tracer)
        # sampler time becomes its own span instead of inflating the one it interrupts
        sampler.tick = tracer.wrap("calibration.sample", sampler.tick)
    loop_before = loop_s()
    wall_s, rep_s, calibrated_s, iteration_s = [], [], [], []
    digests, problems = set(), []
    attempted = failed = out_bytes = 0
    try:
        start = time.perf_counter()
        while len(rep_s) < min_reps or time.perf_counter() - start < seconds:
            with sampler:
                t0 = time.perf_counter()
                code = _call(argv)
                wall_s.append(time.perf_counter() - t0)
            rep_s.append(wall_s[-1] - sampler.spent_s)
            iteration_s.append(sampler.iteration_s())
            calibrated_s.append(rep_s[-1] * REFERENCE_ITERATION_S / iteration_s[-1])
            data = out.read_bytes()
            outcome = workloads.check_output(workload, seed, data, scale)
            attempted += outcome.attempted
            failed += outcome.failed
            problems += outcome.problems
            if code != 0:
                problems.append(f"exit status {code}")
            digests.add(hashlib.sha256(data).hexdigest())
            out_bytes = len(data)
    finally:
        if trace:
            tracer.restore()
    loop_after = loop_s()
    out.unlink()

    n_items = workloads.items(workload, scale)
    record = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "trace": trace,
        "reps": len(rep_s),
        "rep_s": rep_s,
        "calibrated_rep_s": calibrated_s,
        "calibration_iteration_s": iteration_s,
        "calibration_reference_s": REFERENCE_ITERATION_S,
        "calibration_before_s": loop_before,
        "calibration_after_s": loop_after,
        "items_per_rep": n_items,
        "items_per_s": statistics.median(n_items / t for t in calibrated_s),
        "items_per_wall_s": statistics.median(n_items / t for t in rep_s),
        "attempted": attempted,
        "failed": failed,
        "problems": sorted(set(problems)),
        "digests": sorted(digests),
        "output_bytes": out_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        record["layers"] = layer_metrics(tracer, counts, workload, wall_s, out_bytes)
        if spans_path is not None:
            tracer.save(spans_path)
            record["spans_file"] = str(spans_path)
    return record


def layer_metrics(tracer: Tracer, counts: LayerCounts, workload: str, wall_s: list,
                  out_bytes: int) -> dict:
    """Per-layer figures for one repetition, keyed by metric name.

    ``wall_s`` are the traced repetitions' wall times, sampler ticks
    included: those have their own ``calibration.sample`` span.
    """
    reps = len(wall_s)
    metrics = {}
    covered = 0.0
    for name, total in tracer.totals().items():
        metrics[f"{name}.calls"] = _per_rep(total["calls"], reps)
        metrics[f"{name}.self_s"] = total["self_s"] / reps
        covered += total["self_s"]
    metrics.update(counts.metrics(reps))
    metrics["cli.report_bytes"] = out_bytes if workload == "audit" else 0
    metrics["cli.csv_bytes"] = out_bytes if workload == "trajectory" else 0
    metrics["trace.wall_s"] = sum(wall_s) / reps
    metrics["trace.covered_frac"] = covered / sum(wall_s)
    metrics["trace.spans"] = len(tracer.spans) // reps
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-reps", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz" if args.trace else None
    record = run(args.workload, args.seed, args.seconds, args.min_reps, bool(args.trace),
                 spans_path=spans)
    record["provenance"] = provenance()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
