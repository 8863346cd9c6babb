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
import contextlib
import functools
import json
import os
import re
import stat
import sys

import numpy as np

from . import dynamics, iel, locality, models
from .core import UniverseState, check_states, mean_energies

__all__ = ["main"]


class UsageError(Exception):
    """Bad parameters; reported on stderr with exit status 2."""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose own errors (a bad flag value, say) are usage errors,
    and which reads ``-1e-3`` as a negative number, not as an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern knows only -digits and -digits.digits
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        raise UsageError(message)


_NUMBER = (int, float)
_KINDS = {int: "an integer", _NUMBER: "a number", bool: "true or false", str: "a string"}


def _kind(kind, test=None, need: str = ""):
    """Check of one parameter: a finite number, int, bool or str that passes
    ``test``, numbers returned as floats; anything else raises UsageError."""
    def check(key: str, value):
        if isinstance(value, bool) is not (kind is bool) or not isinstance(value, kind):
            raise UsageError(f"{key} must be {_KINDS[kind]}, got {value!r}")
        # NaN fails the comparison; a huge integer would overflow float()
        if kind is _NUMBER and not abs(value) <= sys.float_info.max:
            raise UsageError(f"{key} must be finite, got {value!r}")
        if test is not None and not test(value):
            raise UsageError(f"{key} must be {need}, got {value!r}")
        return float(value) if kind is _NUMBER else value
    return check


def _one_of(options, what: str):
    def check(key: str, value) -> str:
        if _kind(str)(key, value) not in options:
            raise UsageError(f"unknown {what} {value!r}, available: {', '.join(options)}")
        return value
    return check


def _suites(key: str, value) -> list | None:
    """Comma-separated suite names; ``None`` selects all of them."""
    selection = [s.strip() for s in _kind(str)(key, value).split(",") if s.strip()]
    if not selection:
        raise UsageError("empty suite selection")
    return None if selection == ["all"] else selection


_REAL = _kind(_NUMBER)
_POSITIVE = _kind(_NUMBER, lambda v: v > 0, "positive")
_SEED = _kind(int, lambda v: v >= 0, "at least 0")
_COUNT = _kind(int, lambda v: v >= 1, "at least 1")

# key -> (default, check, help), one table per subcommand.  Each key is a
# flag, --key with dashes, and a config-file key; _build_parser makes the flag
# and shows the default, and the check validates its flag or config-file value
# once, in _merge.  A key whose default is None may be null.
_SAMPLE_KEYS = {
    "n": (5000, _COUNT, "number of sampled representations"),
    "seed": (0, _SEED, "master seed"),
    "h_step": (1e-6, _POSITIVE, "step of the central-difference oracle"),
    "threshold": (1e-12, _POSITIVE, "residual threshold"),
    "delta_e": (1.0, _kind(_NUMBER, lambda v: v != 0, "nonzero"),
                "requested energy increment; checked but unused, since the audit solves the unit request"),
    "per_sample": (False, _kind(bool), "include per-sample residuals in the report"),
    "out": ("solvability_report.json", _kind(str), "report path"),
}

_SIMULATE_KEYS = {
    "omega_a": (1.0, _POSITIVE, "gap of subsystem A"),
    "omega_b": (0.85, _POSITIVE, "gap of subsystem B"),
    "lambda_re": (0.83, _REAL, "Re of the exchange amplitude"),
    "lambda_im": (0.41, _REAL, "Im of the exchange amplitude"),
    "delta": (0.0, _REAL, "dephasing strength"),
    "alpha": (0.0, _REAL, "double-excitation amplitude of the initial state"),
    "t_max": (20.0, _POSITIVE, "final time"),
    "n_steps": (1000, _COUNT, "number of steps"),
    "law": ("rc", _one_of(iel.LAWS, "law"), f"energy law to tabulate: {', '.join(iel.LAWS)}"),
    "out": ("trajectory.csv", _kind(str), "CSV path"),
}

_VERIFY_KEYS = {
    "suite": ("all", _suites, "comma-separated suite names, or all"),
    "seed": (2024, _SEED, "seed for the randomized checks"),
    "inject_fault": (None, _one_of(dynamics.FAULTS, "fault"),
                     f"fault to inject to prove the checks bite: {', '.join(dynamics.FAULTS)}"),
    "out": (None, _kind(str), "JSON summary path; stdout if null"),
}

CSV_HEADER = "t,u_a,u_b,u_total,mean_h,defect"
#: cells left empty in a row where the law is undefined: all but t and mean_h
_ENERGY_CELLS = np.array([False, True, True, True, False, True])

#: trajectory rows per stacked law evaluation in ``simulate``; it bounds that
#: evaluation's temporaries, at most 16 complex numbers a row, since both laws
#: read only the 8 entries per row that the records sum.  It also bounds the
#: CSV text of one write, and the strings formatted for it, in ``_write_csv``
SIMULATE_CHUNK = 512

#: largest ``||H||_F t_max eps`` that ``simulate`` accepts.  It bounds the
#: rounding, in radians, of the propagation phases ``E t``; far above it the
#: phases, and so the trajectory, are noise.  The defaults give 1e-14, and
#: ``--omega-a 1e6`` gives 6e-9.
PHASE_ROUNDING_LIMIT = 1e-6


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict; a key given twice is a usage error, not its last value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise UsageError(f"config file repeats key {key!r}")
        data[key] = value
    return data


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise UsageError("config file is nested deeper than the JSON decoder can follow") from exc
    except ValueError as exc:
        # an integer literal past Python's limit on digits for int() (4300 by default)
        raise UsageError(f"config file holds a number too long to read: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a flat JSON object")
    return data


def _merge(args: argparse.Namespace, keys: dict) -> dict:
    """Each key's flag value, else its config-file value, else its default, checked."""
    config = {} if args.config is None else _load_config(args.config)
    unknown = sorted(set(config) - set(keys))
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    merged = {}
    for key, (default, check, _) in keys.items():
        value = getattr(args, key)
        if value is None:
            value = config.get(key, default)
        merged[key] = None if value is None and default is None else check(key, value)
    return merged


@contextlib.contextmanager
def _output(path: str | None):
    """Claim a run's output before its work: stdout if ``path`` is None, else the
    file, opened at once without truncating, so that a path that cannot be opened
    (a missing directory, a NUL, ``""``) fails first and a refused run leaves an
    existing file byte for byte and removes one it created.  Yields ``replace()``,
    called once the run has succeeded: it empties a regular file (not a device
    or pipe) and returns the handle.  A failed open or write is a usage error.
    A symlink is followed: "created" and the removal refer to its target, so a
    link to a missing file survives a refused run."""
    if path is None:
        yield lambda: sys.stdout
        return
    try:
        target = os.path.realpath(path)
        created = not os.path.exists(target)
        handle = open(path, "a", encoding="utf-8", newline="\n")
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot write output file: {exc}") from exc

    def replace():
        # in append mode every write lands at the end, which is 0 once truncated
        if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            handle.truncate(0)
        return handle

    try:
        with handle:
            yield replace
    except BaseException as exc:
        if created:
            os.remove(target)
        if isinstance(exc, OSError):
            raise UsageError(f"cannot write output file: {exc}") from exc
        raise


def _cmd_sample(args: argparse.Namespace) -> int:
    params = _merge(args, _SAMPLE_KEYS)
    with _output(params["out"]) as replace:
        try:
            report = locality.run_experiment(n=params["n"], seed=params["seed"],
                                             h_step=params["h_step"], threshold=params["threshold"])
        except (ValueError, MemoryError) as exc:
            # an --h-step that fails the central-difference oracle, or an --n
            # whose residual vector cannot be allocated
            raise UsageError(str(exc)) from exc
        payload = report.to_json_dict(per_sample=params["per_sample"])
        replace().write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    print(f"solvable {report.n_solvable}/{report.n_samples} "
          f"at threshold {report.threshold:g} -> {params['out']}")
    return 0 if report.n_solvable == report.n_samples else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = _merge(args, _SIMULATE_KEYS)
    spec = models.NumberConservingSpec(lam=complex(params["lambda_re"], params["lambda_im"]),
                                       delta=params["delta"])
    with _output(params["out"]) as replace:
        # finite parameters can still overflow (a huge gap, coupling or time); the
        # phase, state and energy checks then name what broke, and numpy's
        # MemoryError names a time grid too large to allocate
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                hamiltonian = models.number_conserving_hamiltonian(
                    spec, params["omega_a"], params["omega_b"]
                )
                # needs only H and t_max, so a refused run stops before it propagates;
                # an overflowing ||H||_F is left to the mean-energy check, which names it
                phase_rounding = hamiltonian.frobenius_norm * params["t_max"] * np.finfo(float).eps
                if np.isfinite(hamiltonian.frobenius_norm) and phase_rounding > PHASE_ROUNDING_LIMIT:
                    raise ValueError(f"propagation phases rounded by up to ||H||_F t_max eps = "
                                     f"{phase_rounding:.3g} rad, above {PHASE_ROUNDING_LIMIT:g}")
                times = np.linspace(0.0, params["t_max"], params["n_steps"] + 1)
                amplitudes = np.array([1.0, 1.0, 1.0, params["alpha"]], dtype=complex)
                # scaled to a largest modulus of 1 first, so that the norm cannot
                # overflow; for |alpha| <= 1 that divides by exactly 1.0
                amplitudes /= np.abs(amplitudes).max()
                initial = UniverseState(amplitudes / np.linalg.norm(amplitudes))
                states = dynamics.trajectory(initial, hamiltonian, times)
                table = _energy_table(iel.LAWS[params["law"]], times, states, hamiltonian)
        except (ValueError, MemoryError) as exc:
            raise UsageError(f"cannot simulate these parameters: {exc}") from exc
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
        _write_csv(replace(), table, undefined)
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
        table[rows, 4] = mean_energies(psi, hamiltonian)
        table[rows, 1], table[rows, 2] = law(psi, hamiltonian)
    table[:, 3] = table[:, 1] + table[:, 2]
    table[:, 5] = table[:, 3] - table[:, 4]
    return table


def _write_csv(handle, table: np.ndarray, undefined: np.ndarray) -> None:
    """Write the header and the ``(n, 6)`` table, :data:`SIMULATE_CHUNK` rows at a time.

    Each cell is ``repr`` of its float, and each distinct float of a chunk is
    formatted once: the memo is keyed on the bit pattern, so ``-0.0`` and
    ``0.0``, or two NaN payloads, never share a string.  The four energy
    cells of each ``undefined`` row are empty.
    """
    handle.write(CSV_HEADER + "\n")
    for start in range(0, len(table), SIMULATE_CHUNK):
        chunk = table[start:start + SIMULATE_CHUNK]
        bits, inverse = np.unique(chunk.view(np.int64), return_inverse=True)
        strings = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
        # the inverse's shape for a 2-D input has differed between numpy releases
        cells = strings[inverse.reshape(chunk.shape)]
        cells[undefined[start:start + SIMULATE_CHUNK, None] & _ENERGY_CELLS] = ""
        handle.write("\n".join(map(",".join, cells.tolist())) + "\n")


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verification

    params = _merge(args, _VERIFY_KEYS)
    with _output(params["out"]) as replace:
        try:
            results = verification.run_suites(params["suite"], params["seed"], params["inject_fault"])
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        summary = verification.summary_dict(results)
        replace().write(json.dumps(summary, indent=2) + "\n")
    return 0 if summary["all_passed"] else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use (not at import) and reused by every ``main`` call."""
    parser = _Parser(
        prog="quniverse",
        description="Two-qubit universe energy laws: solvability runs, trajectories, self checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, about, keys, func in (
        ("sample", "run the solvability experiment", _SAMPLE_KEYS, _cmd_sample),
        ("simulate", "export one trajectory as CSV", _SIMULATE_KEYS, _cmd_simulate),
        ("verify", "run the self-check suites", _VERIFY_KEYS, _cmd_verify),
    ):
        command = sub.add_parser(name, help=about)
        command.set_defaults(func=func)
        command.add_argument("--config", help="flat JSON config file; flags win")
        for key, (default, _, text) in keys.items():
            # every flag defaults to None, so that _merge can tell it was not
            # given; the help shows the table's default as a config file spells it
            kind = ({"action": "store_true"} if isinstance(default, bool)
                    else {"type": str if default is None else type(default)})
            command.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                                 help=f"{text} (default {json.dumps(default)})", **kind)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
