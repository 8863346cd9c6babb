"""Command-line front end: solvability runs, trajectory export, self checks.

Three subcommands:

``sample``
    Run the solvability experiment and write a JSON report.  Exits 0 only
    when every sample was solvable at the chosen threshold.

``simulate``
    Evolve a preset initial state under the excitation-conserving family
    and write one CSV row per time point with the per-subsystem energies
    of the chosen law, their total, the mean energy and the defect.

``verify``
    Run the seeded self-check suites and print a JSON summary.

Every parameter can come from a flat JSON config file (``--config``);
explicit flags win over file values.  All outputs are byte-identical
across reruns with the same parameters.  Energies are meant in units of
the A gap and times in its inverse; the defaults set ``omega_a = 1``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import dynamics, iel, locality, models
from .core import (
    UniverseState,
    check_states,
    mean_energies,
    mean_energy,  # noqa: F401  (perfbench traces cli.mean_energy by name)
)

__all__ = ["main"]

_SAMPLE_KEYS = {
    "n": (5000, int),
    "seed": (0, int),
    "h_step": (1e-6, float),
    "threshold": (1e-12, float),
    "delta_e": (1.0, float),
    "per_sample": (False, bool),
    "out": ("solvability_report.json", str),
}

_SIMULATE_KEYS = {
    "omega_a": (1.0, float),
    "omega_b": (0.85, float),
    "lambda_re": (0.83, float),
    "lambda_im": (0.41, float),
    "delta": (0.0, float),
    "alpha": (0.0, float),
    "t_max": (20.0, float),
    "n_steps": (1000, int),
    "law": ("rc", str),
    "out": ("trajectory.csv", str),
}

_VERIFY_KEYS = {
    "suite": ("all", str),
    "seed": (2024, int),
    "inject_fault": (None, str),
    "out": (None, str),
}

CSV_HEADER = "t,u_a,u_b,u_total,mean_h,defect"

#: trajectory rows per stacked law evaluation in ``simulate``; it bounds the
#: ``(chunk, 4, 4)`` temporaries of the extended-state kernel
SIMULATE_CHUNK = 512


class UsageError(Exception):
    """Bad parameters; reported on stderr with exit status 2."""


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a flat JSON object")
    return data


def _merge(args: argparse.Namespace, keys: dict) -> dict:
    config = _load_config(args.config) if args.config else {}
    unknown = sorted(set(config) - set(keys))
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    merged = {}
    for key, (default, cast) in keys.items():
        flag_value = getattr(args, key)
        if flag_value is not None:
            merged[key] = flag_value
        elif key in config:
            value = config[key]
            try:
                merged[key] = cast(value) if value is not None else None
            except (TypeError, ValueError) as exc:
                raise UsageError(f"config key {key!r}: {exc}") from exc
        else:
            merged[key] = default
        if cast is float and merged[key] is not None and not np.isfinite(merged[key]):
            raise UsageError(f"{key} must be finite, got {merged[key]!r}")
    return merged


def _cmd_sample(args: argparse.Namespace) -> int:
    params = _merge(args, _SAMPLE_KEYS)
    if params["n"] < 1:
        raise UsageError(f"n must be at least 1, got {params['n']}")
    if params["h_step"] <= 0 or params["threshold"] <= 0:
        raise UsageError("h_step and threshold must be positive")
    if params["delta_e"] == 0:
        raise UsageError("delta_e must be nonzero")
    report = locality.run_experiment(
        n=params["n"],
        seed=params["seed"],
        h_step=params["h_step"],
        threshold=params["threshold"],
        delta_e=params["delta_e"],
        keep_samples=bool(params["per_sample"]),
    )
    payload = report.to_json_dict(per_sample=bool(params["per_sample"]))
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    Path(params["out"]).write_text(text, encoding="utf-8")
    print(
        f"solvable {report.n_solvable}/{report.n_samples} "
        f"at threshold {report.threshold:g} -> {params['out']}"
    )
    return 0 if report.n_solvable == report.n_samples else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = _merge(args, _SIMULATE_KEYS)
    if params["omega_a"] <= 0 or params["omega_b"] <= 0:
        raise UsageError("omega_a and omega_b must be positive")
    if params["t_max"] <= 0:
        raise UsageError(f"t_max must be positive, got {params['t_max']}")
    if params["n_steps"] < 1:
        raise UsageError(f"n_steps must be at least 1, got {params['n_steps']}")
    if params["law"] not in iel.LAWS:
        raise UsageError(f"unknown law {params['law']!r}, available: {sorted(iel.LAWS)}")

    spec = models.NumberConservingSpec(
        lam=complex(params["lambda_re"], params["lambda_im"]), delta=params["delta"]
    )
    hamiltonian = models.number_conserving_hamiltonian(
        spec, params["omega_a"], params["omega_b"]
    )
    amplitudes = np.array([1.0, 1.0, 1.0, params["alpha"]], dtype=complex)
    initial = UniverseState(amplitudes / np.linalg.norm(amplitudes))

    times = np.linspace(0.0, params["t_max"], params["n_steps"] + 1)
    states = dynamics.trajectory(initial, hamiltonian, times)
    table = _energy_table(iel.LAWS[params["law"]], times, states, hamiltonian)
    undefined = np.isnan(table[:, 1]) | np.isnan(table[:, 2])
    n_undefined = int(undefined.sum())
    if n_undefined:
        t_undefined = times[undefined]
        print(
            f"rotating-coherence law undefined at {n_undefined} of {len(times)} rows, "
            f"t={float(t_undefined[0])!r} to t={float(t_undefined[-1])!r}; "
            "emitting empty energy cells",
            file=sys.stderr,
        )
    with open(params["out"], "w", encoding="utf-8", newline="\n") as handle:
        handle.write(CSV_HEADER + "\n")
        for start in range(0, len(times), SIMULATE_CHUNK):
            rows = slice(start, start + SIMULATE_CHUNK)
            handle.write("".join(map(_csv_line, table[rows].tolist(), undefined[rows].tolist())))
    print(f"wrote {len(times)} rows ({len(times) - n_undefined} with energies) -> {params['out']}")
    return 0


def _energy_table(law, times: np.ndarray, states: np.ndarray, hamiltonian) -> np.ndarray:
    """``(n, 6)`` CSV columns of a trajectory, filled :data:`SIMULATE_CHUNK` rows at a time.

    Every row passes the checks a ``UniverseState`` and the law apply to
    one configuration, and equals ``evaluate_law`` and ``mean_energy`` at
    that configuration bit for bit.  Energy cells are NaN where the law is
    undefined.
    """
    table = np.empty((len(times), 6))
    table[:, 0] = times
    for start in range(0, len(times), SIMULATE_CHUNK):
        rows = slice(start, start + SIMULATE_CHUNK)
        psi = states[rows]
        check_states(psi)
        table[rows, 4] = mean_energies(psi, hamiltonian.matrix)
        table[rows, 1], table[rows, 2] = law(psi, hamiltonian)
    table[:, 3] = table[:, 1] + table[:, 2]
    table[:, 5] = table[:, 3] - table[:, 4]
    return table


def _csv_line(row: list, undefined: bool) -> str:
    t, u_a, u_b, total, mean_h, defect = map(repr, row)
    if undefined:
        return f"{t},,,,{mean_h},\n"
    return f"{t},{u_a},{u_b},{total},{mean_h},{defect}\n"


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verification

    params = _merge(args, _VERIFY_KEYS)
    selection = [s.strip() for s in params["suite"].split(",") if s.strip()]
    if not selection:
        raise UsageError("empty suite selection")
    names = list(verification.SUITES) if selection == ["all"] else selection
    unknown = [n for n in names if n not in verification.SUITES]
    if unknown:
        raise UsageError(
            f"unknown suites: {', '.join(unknown)}; "
            f"available: {', '.join(verification.SUITES)} (or 'all')"
        )
    fault = params["inject_fault"]
    if fault not in (None, "rho-dot-sign"):
        raise UsageError(f"unknown fault {fault!r}, available: rho-dot-sign")

    if fault == "rho-dot-sign":
        dynamics._rho_dot_sign = -1.0
    try:
        results = verification.run_suites(names, seed=params["seed"])
    finally:
        dynamics._rho_dot_sign = 1.0

    summary = verification.summary_dict(results)
    text = json.dumps(summary, indent=2) + "\n"
    if params["out"]:
        Path(params["out"]).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0 if summary["all_passed"] else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quniverse",
        description="Two-qubit universe energy laws: solvability runs, trajectories, self checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sample = sub.add_parser("sample", help="run the solvability experiment")
    sample.add_argument("--config", help="flat JSON config file; flags win")
    sample.add_argument("--n", type=int, help="number of sampled representations (default 5000)")
    sample.add_argument("--seed", type=int, help="master seed (default 0)")
    sample.add_argument("--h-step", dest="h_step", type=float, help="finite-difference step (default 1e-6)")
    sample.add_argument("--threshold", type=float, help="residual threshold (default 1e-12)")
    sample.add_argument("--delta-e", dest="delta_e", type=float, help="requested energy increment (default 1)")
    sample.add_argument("--per-sample", dest="per_sample", action="store_true", default=None,
                        help="include per-sample residuals in the report")
    sample.add_argument("--out", help="report path (default solvability_report.json)")
    sample.set_defaults(func=_cmd_sample)

    simulate = sub.add_parser("simulate", help="export one trajectory as CSV")
    simulate.add_argument("--config", help="flat JSON config file; flags win")
    simulate.add_argument("--omega-a", dest="omega_a", type=float, help="gap of subsystem A (default 1)")
    simulate.add_argument("--omega-b", dest="omega_b", type=float, help="gap of subsystem B (default 0.85)")
    simulate.add_argument("--lambda-re", dest="lambda_re", type=float, help="Re of the exchange amplitude (default 0.83)")
    simulate.add_argument("--lambda-im", dest="lambda_im", type=float, help="Im of the exchange amplitude (default 0.41)")
    simulate.add_argument("--delta", type=float, help="dephasing strength (default 0)")
    simulate.add_argument("--alpha", type=float, help="double-excitation amplitude of the initial state (default 0)")
    simulate.add_argument("--t-max", dest="t_max", type=float, help="final time (default 20)")
    simulate.add_argument("--n-steps", dest="n_steps", type=int, help="number of steps (default 1000)")
    simulate.add_argument("--law", help="registered energy law to tabulate, e.g. bare or rc (default rc)")
    simulate.add_argument("--out", help="CSV path (default trajectory.csv)")
    simulate.set_defaults(func=_cmd_simulate)

    verify = sub.add_parser("verify", help="run the self-check suites")
    verify.add_argument("--config", help="flat JSON config file; flags win")
    verify.add_argument("--suite", help="comma-separated suite names, or 'all' (default)")
    verify.add_argument("--seed", type=int, help="seed for the randomized checks (default 2024)")
    verify.add_argument("--inject-fault", dest="inject_fault", choices=["rho-dot-sign"],
                        help="flip a sign in the local derivative to prove the checks bite")
    verify.add_argument("--out", help="write the JSON summary here instead of stdout")
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
