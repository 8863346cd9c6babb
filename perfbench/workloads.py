"""Workload inputs and output checks for the quniverse benchmark.

Each workload is one ``quniverse`` subcommand run through the public
``quniverse.cli.main`` entry point.  Inputs come from the workload seed
alone; the checks read only what the command wrote.  This module imports
neither numpy nor quniverse, so the launcher can use it cheaply.

Why these workloads:

``audit``
    ``sample`` at its CLI default n=5000: the paper's headline experiment.
    The 38-call central-difference Jacobian loop over ``rep_observables``
    carries most of the work.
``trajectory``
    ``simulate --law rc --alpha 0`` on a long grid, so the per-row loop
    (extended states, value-object construction, law evaluation, CSV)
    dominates.  It never touches ``locality``: the no-change control for
    Jacobian or least-squares work.
``selfcheck``
    ``verify`` over all five suites: many small audits (n=25), single-point
    system builds and thousands of small validated objects, so a change
    tuned for n=5000 that costs small inputs shows here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

WORKLOADS = ("audit", "trajectory", "selfcheck")

#: items per repetition at the stated size; one item is an audited sample,
#: a CSV row and a full ``verify`` run respectively
AUDIT_N = 5000
TRAJECTORY_STEPS = 10000

AUDIT_THRESHOLD = 1e-12
CSV_HEADER = "t,u_a,u_b,u_total,mean_h,defect"
#: acceptance-test tolerances for the control-case offset law
DEFECT_TOL = 1e-10
MEAN_H_TOL = 1e-12

FAULT = "rho-dot-sign"


def trajectory_params(seed: int) -> dict:
    """Control-case parameters drawn from the seed.

    The initial state ``(|00> + |01> + |10>) / sqrt(3)`` stays away from
    the poles of the one-excitation Bloch sphere when the exchange term
    (``2 Re lam >= 1.2``) dominates the detuning (``1 - omega_b <= 0.3``),
    so both coherences stay far from zero and the ``rc`` law is defined,
    and accurate to the offset-law tolerance, on every row.
    """
    rng = random.Random(seed)
    return {
        "omega_b": rng.uniform(0.7, 0.95),
        "lambda_re": rng.uniform(0.6, 1.0),
        "lambda_im": rng.uniform(-0.5, 0.5),
        "delta": rng.uniform(0.2, 0.8),
    }


def argv(workload: str, seed: int, out: str, scale: int | None = None) -> list:
    """CLI arguments of one repetition; ``scale`` shrinks audit and trajectory."""
    if workload == "audit":
        n = AUDIT_N if scale is None else scale
        return ["sample", "--n", str(n), "--seed", str(seed), "--delta-e", "1",
                "--threshold", repr(AUDIT_THRESHOLD), "--out", out]
    if workload == "trajectory":
        steps = TRAJECTORY_STEPS if scale is None else scale
        p = trajectory_params(seed)
        return ["simulate", "--law", "rc", "--alpha", "0",
                "--omega-b", repr(p["omega_b"]), "--lambda-re", repr(p["lambda_re"]),
                "--lambda-im", repr(p["lambda_im"]), "--delta", repr(p["delta"]),
                "--n-steps", str(steps), "--out", out]
    if workload == "selfcheck":
        return ["verify", "--seed", str(seed), "--out", out]
    raise ValueError(f"unknown workload {workload!r}")


def items(workload: str, scale: int | None = None) -> int:
    """Items in one repetition: samples, CSV rows, or one ``verify`` run."""
    if workload == "audit":
        return AUDIT_N if scale is None else scale
    if workload == "trajectory":
        return (TRAJECTORY_STEPS if scale is None else scale) + 1
    return 1


@dataclass
class Outcome:
    """Operations attempted and failed in one output, plus check problems."""

    attempted: int
    failed: int
    problems: list

    @property
    def ok(self) -> bool:
        return not self.problems and self.failed == 0


def check_report(blob: bytes, n: int, seed: int) -> Outcome:
    """An operation is a sample; it fails if unsolvable or in ``failed_indices``."""
    try:
        report = json.loads(blob)
    except ValueError as exc:
        return Outcome(n, n, [f"report is not JSON: {exc}"])
    problems = []
    for key, want in (("n_samples", n), ("seed", seed), ("threshold", AUDIT_THRESHOLD)):
        if report.get(key) != want:
            problems.append(f"report {key} is {report.get(key)!r}, expected {want!r}")
    solvable = report.get("n_solvable")
    failed_indices = report.get("failed_indices")
    if not isinstance(solvable, int) or not isinstance(failed_indices, list):
        return Outcome(n, n, problems + ["report lacks n_solvable or failed_indices"])
    if solvable != n:
        problems.append(f"only {solvable}/{n} samples solvable")
    if failed_indices:
        problems.append(f"failed_indices not empty: {failed_indices[:5]}")
    return Outcome(n, n - solvable, problems)


def check_csv(text: str, n_steps: int, delta: float) -> Outcome:
    """An operation is a row; it fails if it breaks the offset-law oracle."""
    lines = text.split("\n")
    problems = []
    if lines[0] != CSV_HEADER:
        problems.append(f"header is {lines[0]!r}")
    if lines[-1] != "":
        problems.append("file does not end with a newline")
    rows = lines[1:-1]
    if len(rows) != n_steps + 1:
        problems.append(f"{len(rows)} rows, expected {n_steps + 1}")
    failed = 0
    mean_h0 = None
    for row in rows:
        try:
            _, u_a, u_b, u_total, mean_h, defect = (float(c) for c in row.split(","))
        except ValueError:
            failed += 1
            continue
        if mean_h0 is None:
            mean_h0 = mean_h
        if not (abs(defect + delta) <= DEFECT_TOL and abs(mean_h - mean_h0) <= MEAN_H_TOL):
            failed += 1
    if failed:
        problems.append(f"{failed} rows break the offset law or energy conservation")
    return Outcome(max(len(rows), 1), failed, problems)


def check_summary(text: str) -> Outcome:
    """An operation is a check case; it fails if listed in ``failures``."""
    try:
        summary = json.loads(text)
        suites = summary["suites"]
        cases = sum(int(s["cases"]) for s in suites)
        failures = sum(len(s["failures"]) for s in suites)
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome(1, 1, [f"summary is malformed: {exc}"])
    problems = []
    if [s["name"] for s in suites] != ["core", "dynamics", "models", "iel", "locality"]:
        problems.append(f"suites ran: {[s['name'] for s in suites]}")
    if summary.get("all_passed") is not True:
        problems.append("all_passed is not true")
    if failures:
        failed = [f"{s['name']}: {label}" for s in suites for label in s["failures"]]
        problems.append(f"{failures} check cases failed: {'; '.join(failed)}")
    return Outcome(max(cases, 1), failures, problems)


def check_output(workload: str, seed: int, data: bytes, scale: int | None = None) -> Outcome:
    if workload == "audit":
        return check_report(data, AUDIT_N if scale is None else scale, seed)
    if workload == "trajectory":
        steps = TRAJECTORY_STEPS if scale is None else scale
        return check_csv(data.decode("utf-8"), steps, trajectory_params(seed)["delta"])
    return check_summary(data.decode("utf-8"))

