"""Command-line surface: exit codes, file formats, reproducibility."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quniverse import cli, core, dynamics, iel, locality, models, verification
from quniverse.cli import CSV_HEADER, main


def _read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    return rows


def _column(rows, name):
    return np.array([float(r[name]) for r in rows if r[name] != ""])


def _int_error(digits: str) -> str:
    """What ``int`` says of a literal past Python's limit on digits (4300 by default)."""
    try:
        int(digits)
    except ValueError as exc:
        return str(exc)
    return "no error: this Python sets no limit"


def test_sample_writes_report_and_succeeds(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["sample", "--n", "25", "--seed", "9", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["n_samples"] == 25
    assert report["n_solvable"] == 25
    assert report["seed"] == 9
    assert report["h_step"] == 1e-6
    assert report["threshold"] == 1e-12
    assert report["failed_indices"] == []
    assert report["max_residual"] < 1e-12
    assert "sampler" in report
    assert "25/25" in capsys.readouterr().out


def test_sample_per_sample_array(tmp_path):
    out = tmp_path / "report.json"
    assert main(["sample", "--n", "6", "--seed", "1", "--per-sample", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["samples"]) == 6
    index, residual = report["samples"][0]
    assert index == 0 and residual < 1e-12


def test_per_sample_report_extends_the_plain_one(tmp_path, monkeypatch):
    # both reports are read off one residual vector; sample 7's NaN matrix
    # leaves a gap in the pairs, which keep each sample's own index
    original = locality.audit_jacobian
    target = locality._draw_chunk(5, range(8))[7]

    def poisoned(x):
        out = original(x)
        out[np.all(x == target, axis=-1)] = np.nan
        return out

    monkeypatch.setattr(locality, "audit_jacobian", poisoned)
    plain, detailed = tmp_path / "plain.json", tmp_path / "detailed.json"
    assert main(["sample", "--n", "300", "--seed", "5", "--out", str(plain)]) == 1
    assert main(["sample", "--n", "300", "--seed", "5", "--per-sample", "--out", str(detailed)]) == 1
    report = json.loads(detailed.read_text())
    pairs = report.pop("samples")
    assert report == json.loads(plain.read_text())
    residuals = locality.run_experiment(n=300, seed=5).residuals
    finite = np.flatnonzero(np.isfinite(residuals)).tolist()
    assert len(finite) == 299 and 7 not in finite
    assert pairs == [[i, residuals[i]] for i in finite]
    with pytest.raises(ValueError, match="read-only"):
        residuals[0] = 0.0


def test_sample_too_large_to_allocate_is_one_line_usage_error(tmp_path, capsys):
    # numpy refuses the 7 PiB residual vector before taking any memory
    out = tmp_path / "report.json"
    assert main(["sample", "--n", "1000000000000000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate")
    assert err.count("\n") == 1
    assert not out.exists()


def test_sample_rejects_empty_run(tmp_path, capsys):
    assert main(["sample", "--n", "0", "--out", str(tmp_path / "r.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_sample_unsolvable_threshold_exits_one(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["sample", "--n", "3", "--seed", "2", "--threshold", "1e-300", "--out", str(out)]
    )
    assert code == 1
    assert json.loads(out.read_text())["n_solvable"] == 0


def test_sample_verdict_does_not_depend_on_delta_e(tmp_path):
    # absolute residuals scale with the request: at delta_e 1000 about half
    # of these samples used to exceed 1e-12, and at 1e200 every squared
    # misfit overflowed
    plain = tmp_path / "plain.json"
    assert main(["sample", "--n", "200", "--seed", "3", "--out", str(plain)]) == 0
    for delta_e in ["1000", "1e200", "-1e300"]:
        out = tmp_path / f"report{delta_e}.json"
        code = main(["sample", "--n", "200", "--seed", "3", "--delta-e", delta_e, "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["n_solvable"] == 200
        assert report["max_residual"] < 1e-13
        assert out.read_bytes() == plain.read_bytes()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_sample_all_failed_report_is_strict_json(tmp_path, capsys, monkeypatch):
    # an engine whose every matrix is non-finite fails every sample
    monkeypatch.setattr(locality, "audit_jacobian", lambda x: np.full((len(x), 14, 19), np.nan))
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sample", "--n", "20", "--seed", "0", "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert report["failed_indices"] == list(range(20))
    assert report["n_solvable"] == 0
    assert report["max_residual"] is None and report["median_residual"] is None
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("h_step", ["1e100", "1e300"])
def test_sample_step_that_fails_the_oracle_is_one_line_usage_error(h_step, tmp_path, capsys):
    # 1e100 used to report 40/40 solvable from matrices that were not the Jacobian
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sample", "--n", "40", "--seed", "2", "--h-step", h_step, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: h_step ") and "central-difference oracle" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, dangling", [
    (["sample", "--n", "40", "--seed", "2", "--h-step", "1e100"], False),
    (["sample", "--n", "1000000000000000"], False),
    (["simulate", "--omega-a", "1e9"], False),
    (["verify", "--suite", "core,core"], False),
    (["sample", "--n", "40", "--seed", "2", "--h-step", "1e100"], True),
], ids=["sample-oracle", "sample-unallocatable", "simulate-rounded", "verify-repeated-suite",
        "sample-dangling-symlink"])
def test_refused_run_leaves_an_existing_output_untouched(argv, dangling, tmp_path, capsys):
    # the output is opened before the work runs, so opening it must not truncate
    # it; a symlink to a missing file is opened through, creating its target,
    # and only that target may go
    out, target = tmp_path / "keep.json", tmp_path / "target.json"
    if dangling:
        out.symlink_to(target)
    else:
        out.write_text('{"kept": true}\n')
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    if dangling:
        assert out.is_symlink() and not target.exists()
    else:
        assert out.read_text() == '{"kept": true}\n'


def test_sample_replaces_a_longer_existing_report(tmp_path):
    fresh, out = tmp_path / "fresh.json", tmp_path / "old.json"
    out.write_text("x" * 100_000)
    assert main(["sample", "--n", "3", "--out", str(fresh)]) == 0
    assert main(["sample", "--n", "3", "--out", str(out)]) == 0
    assert out.read_bytes() == fresh.read_bytes()


def test_sample_writes_to_a_device(capsys):
    # a device cannot be truncated, so only a regular file is
    assert main(["sample", "--n", "3", "--out", os.devnull]) == 0
    assert capsys.readouterr().err == ""


def test_sample_output_is_byte_identical(tmp_path):
    one = tmp_path / "a.json"
    two = tmp_path / "b.json"
    main(["sample", "--n", "10", "--seed", "4", "--out", str(one)])
    main(["sample", "--n", "10", "--seed", "4", "--out", str(two)])
    assert one.read_bytes() == two.read_bytes()


def test_simulate_header_and_grid(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["simulate", "--n-steps", "40", "--out", str(out)]) == 0
    text = out.read_text()
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 43  # header + 41 rows + trailing newline
    assert lines[-1] == ""
    assert "\r" not in text
    rows = _read_csv(out)
    assert float(rows[0]["t"]) == 0.0
    assert float(rows[-1]["t"]) == 20.0


def test_simulate_consistent_when_no_dephasing(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["simulate", "--delta", "0", "--n-steps", "200", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert len(_column(rows, "defect")) == 201
    assert np.max(np.abs(_column(rows, "defect"))) < 1e-10


def test_simulate_offset_when_dephasing(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["simulate", "--delta", "0.64", "--n-steps", "200", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert np.max(np.abs(_column(rows, "defect") + 0.64)) < 1e-10


def test_simulate_double_excitation_breaks_constancy(tmp_path):
    out = tmp_path / "t.csv"
    assert main(
        ["simulate", "--alpha", "1", "--delta", "0.64", "--n-steps", "500", "--out", str(out)]
    ) == 0
    rows = _read_csv(out)
    totals = _column(rows, "u_total")
    means = _column(rows, "mean_h")
    assert totals.max() - totals.min() > 1e-3
    assert means.max() - means.min() < 1e-12


def test_simulate_undefined_points_emit_empty_cells(tmp_path, capsys):
    # alpha = -1 zeroes both coherences at t = 0, so the first row carries
    # no energies but keeps its mean_h cell
    out = tmp_path / "t.csv"
    assert main(["simulate", "--alpha", "-1", "--n-steps", "50", "--out", str(out)]) == 0
    rows = _read_csv(out)
    first = rows[0]
    assert first["u_a"] == "" and first["u_total"] == "" and first["defect"] == ""
    assert first["mean_h"] != ""
    captured = capsys.readouterr()
    assert "rotating-coherence law undefined" in captured.err
    assert "50 with energies" in captured.out


def _pointwise_rows(law, alpha=0.0, n_steps=1000):
    """CSV rows at the simulate defaults, one Configuration per row."""
    spec = models.NumberConservingSpec(lam=complex(0.83, 0.41), delta=0.0)
    ham = models.number_conserving_hamiltonian(spec, 1.0, 0.85)
    amplitudes = np.array([1.0, 1.0, 1.0, alpha], dtype=complex)
    initial = core.UniverseState(amplitudes / np.linalg.norm(amplitudes))
    times = np.linspace(0.0, 20.0, n_steps + 1)
    rows = []
    for t, psi in zip(times, dynamics.trajectory(initial, ham, times)):
        config = core.Configuration(state=core.UniverseState(psi), hamiltonian=ham)
        mean_h = core.mean_energy(config)
        try:
            pair = iel.evaluate_law(law, config)
        except iel.RCUndefinedError:
            cells = [repr(float(t)), "", "", "", repr(mean_h), ""]
        else:
            cells = [repr(float(t))] + [
                repr(v) for v in (pair.u_a, pair.u_b, pair.total, mean_h, pair.total - mean_h)
            ]
        rows.append(",".join(cells))
    return rows


@pytest.mark.parametrize(
    "law, alpha", [("rc", 0.0), ("bare", 0.0), ("rc", -1.0)], ids=["rc", "bare", "rc-undefined"]
)
def test_simulate_rows_equal_pointwise_evaluation(law, alpha, tmp_path):
    # every cell is the repr of what evaluate_law and mean_energy give at
    # that row's configuration, bit for bit
    out = tmp_path / "t.csv"
    assert main(["simulate", "--law", law, "--alpha", repr(alpha), "--out", str(out)]) == 0
    lines = out.read_text().split("\n")
    assert lines[1:-1] == _pointwise_rows(law, alpha)


def test_simulate_chunk_size_does_not_change_output(tmp_path, monkeypatch):
    argv = ["simulate", "--alpha", "-1", "--n-steps", "40", "--out"]
    default = tmp_path / "default.csv"
    assert main(argv + [str(default)]) == 0
    monkeypatch.setattr(cli, "SIMULATE_CHUNK", 7)
    chunked = tmp_path / "chunked.csv"
    assert main(argv + [str(chunked)]) == 0
    assert chunked.read_bytes() == default.read_bytes()


def _float_of_bits(bits):
    return np.array([bits], dtype=np.uint64).view(float).item()


# every column draws from a small pool, so values repeat within a chunk, and
# the pool holds both zeros, both infinities and NaNs with distinct payloads
_CELL = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 1.0 / 3.0, -2.5e-300, 5e-324, math.inf, -math.inf,
                     _float_of_bits(0x7FF8000000000000), _float_of_bits(0xFFF8000000000000),
                     _float_of_bits(0x7FF8000000000001), _float_of_bits(0x7FF4000000000000)]),
    st.floats(),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(rows=st.lists(st.tuples(*[_CELL] * 6), max_size=40), chunk=st.integers(1, 8))
def test_csv_writer_formats_each_cell_as_its_repr(rows, chunk):
    table = np.array(rows, dtype=float).reshape(-1, 6)
    # rows where only u_b is NaN, so that either energy blanks the row
    table[::5, 2] = math.nan
    undefined = np.isnan(table[:, 1]) | np.isnan(table[:, 2])
    handle = io.StringIO()
    with mock.patch.object(cli, "SIMULATE_CHUNK", chunk):
        cli._write_csv(handle, table, undefined)
    expected = [CSV_HEADER]
    for row in table.tolist():
        cells = list(map(repr, row))
        if math.isnan(row[1]) or math.isnan(row[2]):
            cells[1] = cells[2] = cells[3] = cells[5] = ""
        expected.append(",".join(cells))
    assert handle.getvalue() == "\n".join(expected) + "\n"


def test_simulate_summarizes_undefined_rows_in_one_line(tmp_path, capsys):
    # without exchange the Hamiltonian is diagonal and alpha = -1 keeps both
    # coherences at zero on every row
    out = tmp_path / "t.csv"
    argv = ["simulate", "--lambda-re", "0", "--lambda-im", "0", "--alpha", "-1",
            "--n-steps", "10", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        "rotating-coherence law undefined at 11 of 11 rows, t=0.0 to t=20.0; "
        "emitting empty energy cells\n"
    )
    assert "0 with energies" in captured.out
    rows = _read_csv(out)
    assert all(r["u_a"] == r["u_b"] == r["u_total"] == r["defect"] == "" for r in rows)
    assert all(r["mean_h"] != "" for r in rows)


def test_simulate_runs_a_registered_law(tmp_path):
    def excited_a(psi, ham):
        p1_a = np.abs(psi[..., 2]) ** 2 + np.abs(psi[..., 3]) ** 2
        return ham.omega_a * p1_a, np.zeros(psi.shape[:-1])

    iel.register_law("test-excited-a", excited_a)
    try:
        out = tmp_path / "t.csv"
        assert main(["simulate", "--law", "test-excited-a", "--n-steps", "20",
                     "--out", str(out)]) == 0
        rows = _read_csv(out)
    finally:
        iel.LAWS.pop("test-excited-a")
    assert len(rows) == 21
    # the initial state (|00> + |01> + |10>) / sqrt(3) has p1_A = 1/3
    assert float(rows[0]["u_a"]) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert all(float(r["u_b"]) == 0.0 for r in rows)
    assert "test-excited-a" not in iel.LAWS


def test_simulate_bare_law(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["simulate", "--law", "bare", "--n-steps", "50", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert len(_column(rows, "u_total")) == 51


def test_simulate_rejects_unknown_law(tmp_path, capsys):
    code = main(["simulate", "--law", "alicki", "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert "unknown law" in capsys.readouterr().err


def test_simulate_output_is_byte_identical(tmp_path):
    one = tmp_path / "a.csv"
    two = tmp_path / "b.csv"
    # a rerun replaces whatever the path held, a longer file included
    two.write_text("x" * 100_000)
    main(["simulate", "--n-steps", "30", "--delta", "0.2", "--out", str(one)])
    main(["simulate", "--n-steps", "30", "--delta", "0.2", "--out", str(two)])
    assert one.read_bytes() == two.read_bytes()


def test_config_file_supplies_values_and_flags_win(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"delta": 0.64, "n_steps": 100}))
    out = tmp_path / "t.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert len(rows) == 101
    assert np.max(np.abs(_column(rows, "defect") + 0.64)) < 1e-10

    assert main(
        ["simulate", "--config", str(config), "--delta", "0", "--out", str(out)]
    ) == 0
    rows = _read_csv(out)
    assert np.max(np.abs(_column(rows, "defect"))) < 1e-10


def test_config_unknown_key_is_usage_error(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"detla": 0.64}))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "t.csv")]) == 2
    assert "unknown config keys: detla" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--n", "2", "--threshold", "nan"],
        ["sample", "--n", "2", "--h-step", "inf"],
        ["sample", "--n", "2", "--delta-e", "nan"],
        ["simulate", "--omega-a", "nan"],
        ["simulate", "--t-max", "inf"],
    ],
)
def test_nonfinite_float_is_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_nonfinite_config_value_is_usage_error(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text('{"lambda_re": NaN}')
    out = tmp_path / "t.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    assert "error: lambda_re must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, config, message", [
    (["sample", "--seed", "-1"], None, "seed must be at least 0, got -1"),
    (["verify", "--seed", "-1"], None, "seed must be at least 0, got -1"),
    (["sample"], {"per_sample": "false"}, "per_sample must be true or false, got 'false'"),
    (["sample"], {"n": 2.7}, "n must be an integer, got 2.7"),
    (["sample"], {"n": True}, "n must be an integer, got True"),
    (["verify"], {"inject_fault": "rho-dot"}, "unknown fault 'rho-dot', available: rho-dot-sign"),
    (["sample", "--delta-e", "0"], None, "delta_e must be nonzero, got 0.0"),
    (["verify", "--inject-fault", "rho-dot"], None, "unknown fault 'rho-dot', available: rho-dot-sign"),
    (["verify"], b"\xff", "config file is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: "
                         "invalid start byte"),
    (["simulate"], b"[" * 100_000, "config file is nested deeper than the JSON decoder can follow"),
    (["sample"], b'{"n": 3, "n": 4}', "config file repeats key 'n'"),
    (["sample"], b'{"n": 1' + b"0" * 5000 + b"}",
     f"config file holds a number too long to read: {_int_error('1' + '0' * 5000)}"),
    (["simulate"], b"{", "config file is not valid JSON: Expecting property name enclosed in double quotes: "
                         "line 1 column 2 (char 1)"),
    (["sample"], b"[1, 2]", "config file must hold a flat JSON object"),
], ids=["sample-seed", "verify-seed", "per-sample-string", "n-fraction", "n-bool", "fault", "delta-e-zero",
        "fault-flag", "config-not-utf8", "config-too-deep", "config-repeated-key", "config-long-integer",
        "config-not-json", "config-not-an-object"])
def test_bad_value_is_usage_error(argv, config, message, tmp_path, capsys):
    if config is not None:
        # bytes are the config file itself; anything else is written as JSON
        text = config if isinstance(config, bytes) else json.dumps(config).encode()
        (tmp_path / "run.json").write_bytes(text)
        argv = argv + ["--config", str(tmp_path / "run.json")]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "2.7"],
    ["sample", "--n", "abc"],
    ["simulate", "--omega-a", "x"],
    ["verify", "--inject-fault", "nope"],
], ids=["n-fraction", "n-word", "omega-word", "fault"])
def test_flag_rejected_by_argparse_is_one_line_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, keys, flags", [
    ("sample", cli._SAMPLE_KEYS, "--n --seed --h-step --threshold --delta-e --per-sample --out"),
    ("simulate", cli._SIMULATE_KEYS,
     "--omega-a --omega-b --lambda-re --lambda-im --delta --alpha --t-max --n-steps --law --out"),
    ("verify", cli._VERIFY_KEYS, "--suite --seed --inject-fault --out"),
], ids=["sample", "simulate", "verify"])
def test_help_lists_each_key_of_its_table_with_its_default(command, keys, flags, capsys):
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    options = " ".join(capsys.readouterr().out.split()).split("show this help message and exit ")[1]
    # one entry per flag, from the flag to the next one
    entries = {entry.split()[0]: entry for entry in re.split(r" (?=--[a-z])", options)}
    assert list(entries) == ["--config"] + flags.split()
    for key, (default, _, _) in keys.items():
        assert entries["--" + key.replace("_", "-")].endswith(f"(default {json.dumps(default)})")


def test_verify_all_suites_pass(tmp_path):
    out = tmp_path / "verify.json"
    out.write_text("x" * 100_000)
    assert main(["verify", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert summary["all_passed"] is True
    assert {s["name"] for s in summary["suites"]} == {
        "core", "dynamics", "models", "iel", "locality"
    }
    assert all(s["failures"] == [] for s in summary["suites"])


def test_verify_subset(capsys):
    assert main(["verify", "--suite", "core,iel"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert [s["name"] for s in summary["suites"]] == ["core", "iel"]


def test_verify_injected_fault_fails_oracle_suites(tmp_path):
    out = tmp_path / "verify.json"
    code = main(
        ["verify", "--suite", "dynamics,models", "--inject-fault", "rho-dot-sign",
         "--out", str(out)]
    )
    assert code == 1
    summary = json.loads(out.read_text())
    assert not summary["all_passed"]
    for suite in summary["suites"]:
        assert suite["failures"], f"suite {suite['name']} should have caught the fault"
    # the fault ends with the run
    assert _rho_dot_error() < 1e-8


@pytest.mark.parametrize("fault", [None, "rho-dot-sign"])
def test_verify_summary_carries_each_worst_error_and_tolerance(tmp_path, fault):
    out = tmp_path / "verify.json"
    argv = ["verify", "--suite", "dynamics,locality", "--out", str(out)]
    code = main(argv + (["--inject-fault", fault] if fault else []))
    assert code == (1 if fault else 0)
    for suite in json.loads(out.read_text())["suites"]:
        registered = [case for suite_name, _, _, cases in verification.CHECKS.values()
                      if suite_name == suite["name"] for case in cases]
        checks = suite["checks"]
        assert [(c["label"], c["tolerance"]) for c in checks] == registered
        assert suite["cases"] == len(checks)
        assert suite["failures"] == [c["label"] for c in checks
                                     if c["worst"] is None or not c["worst"] < c["tolerance"]]


def test_verify_summary_writes_a_nonfinite_worst_as_null():
    result = verification.SuiteResult("core", (("a", 0.0, 1e-12), ("b", math.inf, 1e-12)))
    summary = verification.summary_dict([result])
    json.dumps(summary, allow_nan=False)
    assert summary["suites"][0]["checks"] == [
        {"label": "a", "worst": 0.0, "tolerance": 1e-12},
        {"label": "b", "worst": None, "tolerance": 1e-12},
    ]


def test_verify_reports_a_check_that_raises_as_failed(tmp_path, monkeypatch):
    def broken(rng, n):
        raise ValueError("oracle refused")

    suite, _, n, cases = verification.CHECKS["linear_map"]
    monkeypatch.setitem(verification.CHECKS, "linear_map", (suite, broken, n, cases))
    out = tmp_path / "verify.json"
    assert main(["verify", "--suite", "locality", "--out", str(out)]) == 1
    (summary,) = json.loads(out.read_text())["suites"]
    assert summary["errors"] == ["linear_map: ValueError: oracle refused"]
    assert summary["failures"] == [label for label, _ in cases]
    checks = {c["label"]: c["worst"] for c in summary["checks"]}
    assert [checks[label] for label, _ in cases] == [None]
    # the checks after the broken one still ran and passed
    assert summary["cases"] == sum(len(row[3]) for row in verification.CHECKS.values() if row[0] == "locality")
    assert sum(worst is not None for worst in checks.values()) == summary["cases"] - 1
    # a summary without a broken check has no errors key
    assert main(["verify", "--suite", "core", "--out", str(out)]) == 0
    assert "errors" not in json.loads(out.read_text())["suites"][0]


def test_sample_and_simulate_never_import_numpy_random(tmp_path):
    # numpy.random costs 11-17 ms and 2 MB of peak RSS to import; the audit's
    # substream kernel re-derives the streams so that it is never loaded
    script = (
        "import sys\n"
        "from quniverse.cli import main\n"
        f"assert main(['sample', '--n', '200', '--seed', '3', '--out', {str(tmp_path / 'r.json')!r}]) == 0\n"
        f"assert main(['simulate', '--out', {str(tmp_path / 't.csv')!r}]) == 0\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _rho_dot_error():
    config = core.rep_to_config(locality.sample_interior_rep(3))
    oracle = dynamics.finite_difference_rho_dot(config, "A")
    return np.max(np.abs(dynamics.rho_dot_local(config, "A") - oracle))


def test_injected_fault_stays_in_its_own_thread(monkeypatch):
    errors = {}

    def probe(seed):
        # a thread started inside the faulted run must not see the fault
        errors["run"] = _rho_dot_error()
        thread = threading.Thread(target=lambda: errors.update(thread=_rho_dot_error()))
        thread.start()
        thread.join(timeout=30)
        return verification.SuiteResult("core")

    monkeypatch.setitem(verification.SUITES, "core", probe)
    verification.run_suites(["core"], fault="rho-dot-sign")
    assert errors["run"] > 1e-3 and errors["thread"] < 1e-8


def test_verify_empty_suite_selection_is_usage_error(capsys):
    assert main(["verify", "--suite", " , "]) == 2
    assert "empty suite" in capsys.readouterr().err


def test_verify_unknown_suite_is_usage_error(capsys):
    assert main(["verify", "--suite", "core,quantum"]) == 2
    assert "unknown suites" in capsys.readouterr().err


def test_run_suites_refuses_a_bare_suite_name():
    # a string is an iterable of its characters, which would be taken as suite names
    with pytest.raises(TypeError, match="not the string 'core'"):
        verification.run_suites("core")


def test_run_suites_refuses_an_unknown_fault():
    # checked before any suite runs
    with pytest.raises(ValueError, match="unknown fault 'nope', available: rho-dot-sign"):
        verification.run_suites(fault="nope")


def test_verify_repeated_suite_is_usage_error(capsys):
    # a suite named twice would run twice and count its cases twice
    with pytest.raises(ValueError, match="repeated suites: core"):
        verification.run_suites(["core", "core"])
    assert main(["verify", "--suite", "locality,core,locality"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: repeated suites: locality\n"


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "3"],
    ["simulate"],
    ["verify", "--suite", "core"],
], ids=["sample", "simulate", "verify"])
def test_unwritable_out_is_one_line_usage_error(argv, tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the work ran before the output path was checked")

    monkeypatch.setattr(locality, "run_experiment", no_work)
    monkeypatch.setattr(dynamics, "trajectory", no_work)
    monkeypatch.setattr(verification, "run_suites", no_work)
    out = tmp_path / "missing" / "out"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write output file: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.parent.exists()


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "3"],
    ["simulate", "--n-steps", "10"],
    ["verify", "--suite", "core"],
], ids=["sample", "simulate", "verify"])
def test_empty_out_path_is_unwritable(argv, tmp_path, capsys, monkeypatch):
    # the empty path names no file; only null selects stdout, and only for verify
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: cannot write output file: [Errno 2] No such file or directory: ''\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_empty_config_path_is_unreadable(tmp_path, capsys, monkeypatch):
    # the empty path names no file; it must not select the defaults
    monkeypatch.chdir(tmp_path)
    assert main(["sample", "--n", "2", "--config", ""]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: cannot read config file: [Errno 2] No such file or directory: ''\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "3"],
    ["simulate", "--n-steps", "10"],
    ["verify", "--suite", "core"],
], ids=["sample", "simulate", "verify"])
def test_out_with_an_embedded_nul_is_one_line_usage_error(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps({"out": "report\u0000.json"}))
    assert main(argv + ["--config", "run.json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: cannot write output file: embedded null byte\n"
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, a device whose writes fail")
@pytest.mark.parametrize("argv", [
    ["sample", "--n", "3"],
    ["simulate", "--n-steps", "10"],
    ["verify", "--suite", "core"],
], ids=["sample", "simulate", "verify"])
def test_failed_write_is_one_line_usage_error(argv, capsys):
    assert main(argv + ["--out", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: cannot write output file: [Errno 28] No space left on device\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["--omega-a", "1e308", "--omega-b", "1e308"],
    ["--t-max", "1e308"],
    ["--lambda-re", "1e300"],
], ids=["gaps", "t-max", "lambda-re"])
def test_simulate_overflowing_parameters_are_one_line_usage_errors(argv, tmp_path, capsys):
    out = tmp_path / "t.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate"] + argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot simulate these parameters: ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["1e155", "-1e200", "1e200", "1e308"])
def test_simulate_huge_alpha_is_the_double_excitation(alpha, tmp_path):
    # the amplitudes are scaled to a largest modulus of 1 before they are
    # normalized, so no alpha overflows the norm: every such run is the
    # |11> run of alpha = 1e153, whose coherences vanish on every row
    out, reference = tmp_path / "t.csv", tmp_path / "reference.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--alpha", alpha, "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert len(rows) == 1001
    assert all(r["u_a"] == r["u_b"] == r["u_total"] == r["defect"] == "" for r in rows)
    assert main(["simulate", "--alpha", "1e153", "--out", str(reference)]) == 0
    assert out.read_bytes() == reference.read_bytes()


def test_simulate_refuses_rounded_phases_before_propagating(monkeypatch, tmp_path, capsys):
    def no_trajectory(*args, **kwargs):
        raise AssertionError("the trajectory was propagated before the phase check")

    monkeypatch.setattr(dynamics, "trajectory", no_trajectory)
    out = tmp_path / "t.csv"
    assert main(["simulate", "--omega-a", "1e9", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: cannot simulate these parameters: propagation phases rounded by up to "
        "||H||_F t_max eps = 6.28e-06 rad, above 1e-06\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("argv, reason", [
    (["--lambda-re", "1e150"], "propagation phases rounded by up to ||H||_F t_max eps = 6.28e+135 rad"),
    (["--omega-a", "1e9"], "propagation phases rounded by up to ||H||_F t_max eps = 6.28e-06 rad"),
    (["--lambda-re", "1e300"], "mean energy out of range: ||H||_F |psi|^2 overflows"),
    # numpy refuses the 7 PiB grid before taking any memory
    (["--n-steps", "1000000000000000"], "Unable to allocate"),
], ids=["noise-phases", "imprecise-phases", "overflow", "n-steps"])
def test_simulate_names_why_large_parameters_are_refused(argv, reason, tmp_path, capsys):
    out = tmp_path / "t.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate"] + argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot simulate these parameters: " + reason)
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--lambda-re"],
    ["simulate", "--lambda-im"],
    ["simulate", "--delta"],
    ["simulate", "--alpha"],
    ["sample", "--n", "3", "--delta-e"],
], ids=["lambda-re", "lambda-im", "delta", "alpha", "delta-e"])
def test_negative_value_in_exponent_notation_is_a_number(argv, tmp_path):
    # argparse alone reads -1e-3 as an option and the flag as missing its value
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert main(argv + ["-1e-3", "--out", str(spaced)]) == 0
    assert main(argv[:-1] + [argv[-1] + "=-1e-3", "--out", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()


@pytest.mark.parametrize("argv", [
    ["--omega-a", "1e5"],
    ["--omega-a", "1e6"],
    ["--lambda-re", "1e5"],
], ids=["omega-a-1e5", "omega-a-1e6", "lambda-re-1e5"])
def test_simulate_large_parameters_give_real_mean_energies(argv, tmp_path):
    # rounding alone left an imaginary part above an absolute 1e-12 here
    out = tmp_path / "t.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--n-steps", "50"] + argv + ["--out", str(out)]) == 0
    rows = _read_csv(out)
    means = _column(rows, "mean_h")
    assert len(means) == 51
    assert np.max(np.abs(means - means[0])) <= 1e-12 * abs(means[0])
