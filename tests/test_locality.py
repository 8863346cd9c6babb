"""Sampling, finite-difference Jacobians, the audit system and its chart."""

import json
import os
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quniverse import core, dynamics, locality, verification
from shared_checks import shared_check

test_jacobian_of_norm_row_matches_gradient = shared_check("norm_gradient", seed=1, n=25)
test_jacobian_exact_on_linear_maps = shared_check("linear_map", seed=3, n=6)
test_raw_route_ties_to_extended_state = shared_check("reduced_states", seed=21, n=25)
test_run_experiment_is_deterministic = shared_check("audit_and_chart", seed=77, n=5)
test_exact_jacobian_matches_central_differences = shared_check("exact_jacobian", seed=24, n=10)
test_schmidt_identities_annihilate_the_audit_matrix = shared_check("schmidt_identities", seed=25, n=25)
test_deflated_solve_matches_the_svd = shared_check("deflated_solve", seed=26, n=25)
test_chart_jacobian_matches_central_differences = shared_check("chart_jacobian", seed=27, n=10)
test_higher_order_jacobians_match_central_differences = shared_check("exact_jacobian", seed=28, n=50)
test_records_match_time_differences_of_partial_traces = shared_check("time_derivatives", seed=29, n=50)


def test_sampler_is_bitwise_deterministic():
    one = locality.sample_interior_rep(123)
    two = locality.sample_interior_rep(123)
    assert np.array_equal(one.to_array(), two.to_array())


def test_sampler_stays_interior():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        rep = locality.sample_interior_rep(rng)
        assert np.all(rep.r > 0.0)
        assert abs(np.sum(rep.r**2) - 1.0) < 1e-12
        assert np.all((rep.theta > 0.0) & (rep.theta < 2 * np.pi))
        assert 0.0 < rep.omega_a < 1.0 and 0.0 < rep.omega_b < 1.0
        assert np.all((rep.h > -1.0) & (rep.h < 1.0))


def _reference_draw(seed, index):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    return locality.sample_interior_rep(rng).to_array()


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(seed=st.integers(0, 2**64), start=st.integers(0, 10**7), size=st.integers(1, 4))
def test_chunk_draw_equals_the_sequential_sampler(seed, start, size):
    indices = range(start, start + size)
    chunk = locality._draw_chunk(seed, indices)
    assert chunk.shape == (size, 19)
    for row, index in zip(chunk, indices):
        assert row.tobytes() == _reference_draw(seed, index).tobytes()


_WORDS = st.integers(1, 5).flatmap(lambda n: st.integers(0, 2 ** (32 * n) - 1))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(seed=_WORDS, keys=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6))
@example(seed=2**96, keys=[7])
@example(seed=2**128 - 1, keys=[7])
@example(seed=2**128, keys=[7])
@example(seed=2**200 + 12345, keys=[7])
@example(seed=2**288 - 1, keys=[7])
def test_kernel_rows_equal_their_substreams(seed, keys):
    # seeds of one to five uint32 words, and wider ones (up to nine words) whose
    # words past the fourth are mixed in after the pool, keys at both ends of one word
    keys = [0, 2**32 - 1] + keys
    rows = locality._uniforms(seed, keys)
    assert rows.shape == (len(keys), 19)
    for row, key in zip(rows, keys):
        assert row.tobytes() == locality._substream(seed, key).random(19).tobytes()


def test_keys_of_two_words_draw_from_their_substreams(monkeypatch):
    kernel_keys = []
    original = locality._uniforms

    def recorded(seed, keys):
        kernel_keys.extend(int(key) for key in keys)
        return original(seed, keys)

    monkeypatch.setattr(locality, "_uniforms", recorded)
    indices = range(2**32 - 2, 2**32 + 2)
    chunk = locality._draw_chunk(9, indices)
    assert kernel_keys == [2**32 - 2, 2**32 - 1]
    for row, index in zip(chunk, indices):
        assert row.tobytes() == _reference_draw(9, index).tobytes()
    kernel_keys.clear()
    assert locality._draw_chunk(9, range(2**64, 2**64 + 2)).tobytes() == np.stack(
        [_reference_draw(9, 2**64), _reference_draw(9, 2**64 + 1)]).tobytes()
    assert kernel_keys == []


class _ScriptedGenerator(np.random.Generator):
    """Generator whose unit doubles come from a script."""

    def __init__(self, script):
        super().__init__(np.random.PCG64(0))
        self._script = list(script)

    def random(self, size=None):
        count = int(np.prod(size))
        taken, self._script = self._script[:count], self._script[count:]
        return np.array(taken).reshape(size)


def test_rejected_draws_fall_back_on_the_sequential_sampler(monkeypatch):
    scripts = [list(np.random.default_rng(s).uniform(0.05, 0.95, 40)) for s in range(4)]
    scripts[1][2] = 0.0  # a zero modulus
    scripts[2][:4] = [1e-4] * 4  # a moduli norm below 1e-3
    scripts[3][4] = 0.0  # a phase on the interval's lower bound
    # the kernel gives each sample's first 19 doubles, the substream the redraw
    monkeypatch.setattr(locality, "_uniforms", lambda seed, keys: np.array([scripts[k][:19] for k in keys]))
    monkeypatch.setattr(locality, "_substream", lambda seed, index: _ScriptedGenerator(scripts[index]))
    chunk = locality._draw_chunk(0, range(4))
    for index, row in enumerate(chunk):
        expected = locality.sample_interior_rep(_ScriptedGenerator(scripts[index])).to_array()
        assert row.tobytes() == expected.tobytes()
    # a rejected draw is redone whole, from the next 19 doubles
    for index in (1, 2, 3):
        redraw = np.array([scripts[index][19:38]])
        assert locality._interior(redraw)[0]
        assert chunk[index].tobytes() == core.check_reps(redraw)[0].tobytes()


@pytest.mark.parametrize("rejects", ["none", "always"])
def test_verify_draws_are_the_sequential_samplers_draws(rejects, monkeypatch):
    # verify's checks draw n samples from their generator in one stacked pass;
    # a row the map rejects ("always") is redrawn in a block of one attempt,
    # the one acceptance still missing
    n = 25
    target = np.random.default_rng(35).random((8, 19))[7]
    interior, sizes, rejected = locality._interior, [], []

    def rejecting(u):
        hit = np.all(u == target, axis=1)
        accepted = interior(u)
        sizes.append(len(u))
        if np.any(hit) and rejects == "always":
            rejected.append(len(u))
            accepted &= ~hit
        return accepted

    monkeypatch.setattr(locality, "_interior", rejecting)
    reference = np.random.default_rng(35)
    expected = np.stack([locality.sample_interior_rep(reference).to_array() for _ in range(n)])
    sizes.clear()
    rng = np.random.default_rng(35)
    drawn = locality._interior_draws(rng, n)
    assert sizes == {"none": [n], "always": [n, 1]}[rejects]
    assert rejected == {"none": [], "always": [1, n]}[rejects]
    assert drawn.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == reference.bit_generator.state
    if rejects == "always":
        # the rejected draw was redone, from the next 19 doubles
        assert not np.any(np.all(expected[:, 10:] == 2.0 * target[10:] - 1.0, axis=1))


@pytest.mark.parametrize("n", [1, 25])
def test_accepted_rows_are_the_one_attempt_loops_rows(n):
    # acceptance reads each row's content, a first double of at least 0.8, so
    # about four attempts in five are rejected; a block of the helper holds
    # only the acceptances still missing, so it draws no attempt the loop does not
    reference, expected, attempts = np.random.default_rng(1), [], 0
    while len(expected) < n:
        u = reference.random(19)
        attempts += 1
        if u[0] >= 0.8:
            expected.append(u)
    assert attempts > n
    rng, blocks = np.random.default_rng(1), []

    def draw(m):
        blocks.append(m)
        return rng.random((m, 19))

    rows = locality._accepted(draw, lambda u: u[:, 0] >= 0.8, n)
    assert rows.tobytes() == np.stack(expected).tobytes()
    assert rng.bit_generator.state == reference.bit_generator.state
    assert sum(blocks) == attempts
    assert blocks[0] == n and len(blocks) > 1


def test_jacobian_calls_f_once_for_a_stack_and_for_a_point():
    calls = []

    def counted(x):
        calls.append(np.shape(x))
        return locality.rep_observables(x)

    x = locality._draw_chunk(3, range(5))
    stacked = locality.numerical_jacobian(counted, x)
    assert calls == [(2 * 19 * 5, 19)]
    assert stacked.shape == (5, 14, 19) and stacked.flags["C_CONTIGUOUS"]
    calls.clear()
    point = locality.numerical_jacobian(counted, x[2])
    assert calls == [(2 * 19, 19)]
    assert point.tobytes() == stacked[2].tobytes()


@pytest.mark.parametrize("poisoned, name", [((5, 15), "theta1"), ((15,), "h_yz")])
def test_stacked_jacobian_names_the_first_nonfinite_coordinate(poisoned, name):
    x = locality._draw_chunk(4, range(6))

    def bad(y):
        # non-finite only at point 3 displaced along the poisoned coordinates
        out = locality.rep_observables(y)
        near = np.max(np.abs(y - x[3]), axis=-1) < 1e-5
        moved = np.any(y[:, list(poisoned)] != x[3, list(poisoned)], axis=-1)
        out[near & moved] = np.inf
        return out

    with pytest.raises(locality.JacobianEvaluationError, match=name):
        locality.numerical_jacobian(bad, x)


def test_report_does_not_depend_on_the_chunk_size(monkeypatch):
    reports = []
    for chunk, block in ((1, 1024), (7, 1024), (16, 1024), (64, 1024), (16, 5), (7, 33)):
        monkeypatch.setattr(locality, "AUDIT_CHUNK", chunk)
        monkeypatch.setattr(locality, "AUDIT_BLOCK", block)
        report = locality.run_experiment(n=70, seed=31)
        reports.append((report.to_json_dict(per_sample=True), report.residuals.tobytes()))
    assert all(other == reports[0] for other in reports[1:])


def test_jacobian_mean_energy_gap_column_uncoupled():
    # without coupling the mean energy is linear in the gaps with slopes
    # R2^2 + R3^2 and R1^2 + R3^2
    rng = np.random.default_rng(2)
    for _ in range(10):
        rep = locality.sample_interior_rep(rng)
        x = rep.to_array()
        x[10:] = 0.0
        jac = locality.numerical_jacobian(
            lambda y: locality.rep_observables(y)[..., 13], x, h_step=1e-6
        )
        assert abs(jac[0, 8] - (rep.r[2] ** 2 + rep.r[3] ** 2)) < 1e-9
        assert abs(jac[0, 9] - (rep.r[1] ** 2 + rep.r[3] ** 2)) < 1e-9


@pytest.mark.parametrize("seed", [5, 8, 884953773])
def test_verify_locality_suite_passes_on_former_rounding_seeds(seed):
    # these seeds pushed the old random-normal linear-map check past its
    # tolerance through rounding alone
    (result,) = verification.run_suites(["locality"], seed=seed)
    assert result.passed, result.failures


def test_jacobian_propagates_nonfinite_with_coordinate_name():
    def bad(x):
        return np.full((len(x), 1), np.nan)

    with pytest.raises(locality.JacobianEvaluationError, match="R0"):
        locality.numerical_jacobian(bad, locality.sample_interior_rep(4), h_step=1e-6)


@pytest.mark.parametrize("h_step", [np.nan, np.inf], ids=["nan", "inf"])
def test_nonfinite_step_is_refused_before_any_coordinate_is_displaced(h_step):
    with pytest.raises(ValueError, match=f"^h_step must be positive and finite, got {h_step!r}$"):
        locality.numerical_jacobian(locality.rep_norm_sq, locality.sample_interior_rep(4), h_step)
    with pytest.raises(ValueError, match=f"^h_step must be positive and finite, got {h_step!r}$"):
        locality.run_experiment(n=3, seed=2, h_step=h_step)


def test_raw_route_derivative_rows_match_propagator_oracle():
    # the propagator route shares no algebra with the commutator kernel
    rng = np.random.default_rng(22)
    for _ in range(25):
        rep = locality.sample_interior_rep(rng)
        config = core.rep_to_config(rep)
        raw = locality.rep_observables(rep.to_array())
        for offset, subsystem in zip((3, 9), dynamics.SUBSYSTEMS):
            oracle = dynamics.finite_difference_rho_dot(config, subsystem)
            expected = [oracle[0, 1].real, oracle[0, 1].imag, oracle[1, 1].real]
            assert np.max(np.abs(raw[offset:offset + 3] - expected)) < 1e-8


def test_stacked_evaluation_matches_points_bitwise():
    # every other point displaced off the sphere, as finite-difference points are
    rng = np.random.default_rng(23)
    x = np.stack([locality.sample_interior_rep(rng).to_array() for _ in range(40)])
    x[::2] += rng.normal(0.0, 1e-3, x[::2].shape)
    observables = locality.rep_observables(x)
    norms = locality.numerical_jacobian(locality.rep_norm_sq, x, h_step=1e-4)
    systems = locality.build_system(x)
    assert observables.shape == (40, 14)
    assert norms.shape == (40, 1, 19)
    assert systems.shape == (40, 14, 19) and systems.flags["C_CONTIGUOUS"]
    for i in range(40):
        assert observables[i].tobytes() == locality.rep_observables(x[i]).tobytes()
        point_norm = locality.numerical_jacobian(locality.rep_norm_sq, x[i], h_step=1e-4)
        assert norms[i].tobytes() == point_norm.tobytes()
        assert systems[i].tobytes() == locality.build_system(x[i]).tobytes()


def test_stacked_jacobian_matches_exact_oracle():
    x = np.stack([locality.sample_interior_rep(s).to_array() for s in range(200)])
    matrices = locality.build_system(x)
    assert np.max(np.abs(matrices - locality.audit_jacobian(x))) < 1e-8


def _partial_trace_records(m):
    """The six entries per subsystem that the records read off column 1 of
    the textbook partial traces of a 4x4 matrix, ``(2, 3)``."""
    columns = [dynamics.partial_trace(m, subsystem)[:, 1] for subsystem in dynamics.SUBSYSTEMS]
    return np.array([[c.real, c.imag, p1.real] for c, p1 in columns])


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plain", "rho-dot-sign"])
def test_exact_jacobian_hamiltonian_columns_match_the_textbook_commutator(sign):
    # along gap or coupling h only H moves, by U_h: the derivative rows move by
    # the records of -i s [U_h, rho], the energy row by <psi|U_h|psi>, and no
    # state row or the norm row at all; none of it shares the forms' algebra
    x = locality._draw_chunk(41, range(200))
    token = dynamics.RHO_DOT_SIGN.set(sign)
    try:
        exact = locality.audit_jacobian(x)
    finally:
        dynamics.RHO_DOT_SIGN.reset(token)
    psi = x[:, :4] * np.exp(1j * x[:, 4:8])
    columns = exact[:, :12, 8:].reshape(200, 2, 6, 11)
    for point, rho in enumerate(psi[:, :, None] * psi[:, None, :].conj()):
        for h, unit in enumerate(locality._UNIT_HAMILTONIANS):
            expected = sign * _partial_trace_records(-1j * (unit @ rho - rho @ unit))
            assert np.max(np.abs(columns[point, :, 3:6, h] - expected)) < 1e-14
            energy = (psi[point].conj() @ unit @ psi[point]).real
            assert abs(exact[point, 13, 8 + h] - energy) < 1e-14
    assert np.all(columns[:, :, :3] == 0.0) and np.all(exact[:, 12, 8:] == 0.0)


def test_state_forms_reproduce_the_state_records():
    # the forms M read off the reader by polarization give back its state halves
    x = locality._draw_chunk(42, range(200))
    x[::2, :4] *= 1.7  # off the sphere too
    psi = x[:, :4] * np.exp(1j * x[:, 4:8])
    forms = locality._FORM_ROWS.reshape(2, 3, 4, 4)
    assert np.array_equal(forms, forms.conj().swapaxes(-1, -2))
    assert set(np.concatenate([forms.real, forms.imag]).ravel().tolist()) <= {0.0, 0.5, -0.5, 1.0}
    quadratic = np.einsum("ni,skij,nj->nsk", psi.conj(), forms, psi).real
    records = dynamics.pure_extended_coordinates(psi, np.zeros_like(psi))[..., :3]
    assert np.max(np.abs(quadratic - records)) < 1e-15 * np.max(locality.rep_norm_sq(x))


def _orders(rows, order):
    """Rows of orders ``0..order`` of a hierarchy stack ``(n, 6 (K + 1) + 2, ...)``, in its layout."""
    records = rows[:, :-2].reshape((len(rows), 2, -1, 3) + rows.shape[2:])[:, :, :order + 1]
    return np.concatenate([records.reshape((len(rows), -1) + rows.shape[2:]), rows[:, -2:]], axis=1)


def test_hierarchy_rows_do_not_depend_on_the_order_bound():
    # the order only bounds the loops: every row is the same bits at any larger
    # order, and the order-1 row values are rep_observables up to rounding
    x = locality._draw_chunk(43, range(60))
    jac = locality._hierarchy(x, 3)
    for order in range(3):
        lower = locality._hierarchy(x, order)
        assert lower.shape == (60, 6 * (order + 1) + 2, 19)
        assert lower.tobytes() == _orders(jac, order).tobytes()
    values = locality._row_values(_orders(jac, 1), x)
    assert np.max(np.abs(values - locality.rep_observables(x))) < 1e-15


# rank pairs a -> b of the title claim: the records and the norm have rank a,
# and with the energy row rank b, so b = a means the records fix <H> locally;
# per order, with all 19 columns, with the gaps known (no columns 8-9) and
# with H known (no columns 8-18)
_RANK_PAIRS = {
    0: [(6, 7), (6, 7), (6, 7)],
    1: [(11, 12), (11, 12), (7, 7)],
    2: [(16, 17), (16, 16), (7, 7)],
    3: [(18, 18), (16, 16), (7, 7)],
}
_COLUMN_SETS = [np.arange(19), np.delete(np.arange(19), [8, 9]), np.arange(8)]


@pytest.mark.parametrize("order", sorted(_RANK_PAIRS))
def test_hierarchy_gives_the_rank_pairs_of_every_order(order):
    jac = locality._hierarchy(locality._draw_chunk(0, range(40)), order)
    for columns, pair in zip(_COLUMN_SETS, _RANK_PAIRS[order]):
        matrices = jac[:, :, columns]
        ranks = {(np.linalg.matrix_rank(a[:-1]), np.linalg.matrix_rank(a)) for a in matrices}
        assert ranks == {pair}


def _poison_engine(monkeypatch, targets):
    """Make the exact engine return a NaN matrix at each of the coordinate vectors ``targets``."""
    original = locality.audit_jacobian

    def poisoned(x):
        out = original(x)
        for target in targets:
            out[np.all(x == target, axis=-1)] = np.nan
        return out

    monkeypatch.setattr(locality, "audit_jacobian", poisoned)


def test_exact_jacobian_rows_equal_their_own_points_bitwise():
    x = locality._draw_chunk(14, range(40))
    stacked = locality.audit_jacobian(x)
    assert stacked.shape == (40, 14, 19)
    assert locality.audit_jacobian(x.reshape(4, 10, 19)).tobytes() == stacked.tobytes()
    for i in range(40):
        assert locality.audit_jacobian(x[i]).tobytes() == stacked[i].tobytes()


@pytest.mark.parametrize("layout", [
    np.asfortranarray,
    lambda x: np.repeat(x, 2, axis=0)[::2],
    lambda x: np.repeat(x, 2, axis=1)[:, ::2],
], ids=["fortran", "row-strided", "column-strided"])
def test_exact_jacobian_of_any_layout_is_the_c_ordered_bits(layout):
    x = locality._draw_chunk(0, range(5))
    other = layout(x)
    assert other.tobytes() == x.tobytes() and not other.flags.c_contiguous
    assert locality.audit_jacobian(other).tobytes() == locality.audit_jacobian(x).tobytes()
    assert locality._hierarchy(other, 3).tobytes() == locality._hierarchy(x, 3).tobytes()


def _count_calls(monkeypatch, **names):
    """Replace each ``locality`` function named by a value with a counting
    wrapper; returns the counts, keyed as the keywords are."""
    calls = dict.fromkeys(names, 0)
    # the audit's worker threads call the wrapped functions concurrently
    lock = threading.Lock()

    def counted(key, original):
        def wrapper(*args, **kwargs):
            with lock:
                calls[key] += 1
            return original(*args, **kwargs)
        return wrapper

    for key, name in names.items():
        monkeypatch.setattr(locality, name, counted(key, getattr(locality, name)))
    return calls


def test_run_experiment_audits_through_the_engine_with_one_oracle_call(monkeypatch):
    calls = _count_calls(monkeypatch, engine="audit_jacobian", oracle="build_system")
    report = locality.run_experiment(n=2 * locality.AUDIT_CHUNK + 1, seed=5)
    assert report.n_solvable == report.n_samples
    assert calls == {"engine": 3, "oracle": 1}


def test_run_experiment_solves_once_per_block(monkeypatch):
    calls = _count_calls(monkeypatch, engine="audit_jacobian", solve="_solve_deflated")
    n = 2 * locality.AUDIT_BLOCK + 1
    report = locality.run_experiment(n=n, seed=5)
    assert report.n_solvable == n
    assert calls == {"engine": -(-n // locality.AUDIT_CHUNK), "solve": 3}


@pytest.mark.parametrize("h_step", [1e100, 1e300, 1e-3, 1e-9])
def test_run_experiment_rejects_a_step_that_fails_the_oracle(h_step):
    # 1e100 differences sines of points far apart, 1e300 overflows, and 1e-3
    # and 1e-9 carry truncation and rounding errors above the bound
    with pytest.raises(ValueError, match="central-difference oracle"):
        locality.run_experiment(n=3, seed=2, h_step=h_step)


@pytest.fixture(params=[1, 2, 3], ids=lambda width: f"{width}-workers")
def workers(request, monkeypatch):
    """Run the audit on 1, 2 or 3 workers, whatever the machine has."""
    monkeypatch.setattr(locality, "_usable_cpus", lambda: request.param)
    return request.param


@pytest.mark.parametrize("n", [3 * locality.AUDIT_BLOCK + 17, locality.AUDIT_BLOCK],
                         ids=["four-blocks", "one-block"])
def test_reports_do_not_depend_on_the_worker_count(monkeypatch, n):
    reports = []
    for width in (1, 2, 3):
        monkeypatch.setattr(locality, "_usable_cpus", lambda width=width: width)
        report = locality.run_experiment(n=n, seed=41)
        reports.append((report.residuals.tobytes(), json.dumps(report.to_json_dict(per_sample=True))))
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_more_workers_than_cores_under_a_short_switch_interval(monkeypatch):
    # every worker writes its own slices of the residuals and the counter
    # takes a lock: a lost write or a lost count would show here
    width = locality._usable_cpus() + 1
    n = 2 * width * locality.AUDIT_BLOCK + 3
    serial = locality.run_experiment(n=n, seed=53)
    monkeypatch.setattr(locality, "_usable_cpus", lambda: width)
    calls = _count_calls(monkeypatch, engine="audit_jacobian", solve="_solve_deflated")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = locality.run_experiment(n=n, seed=53)
    finally:
        sys.setswitchinterval(interval)
    assert threaded.residuals.tobytes() == serial.residuals.tobytes()
    blocks = 2 * width + 1
    assert calls == {"engine": blocks * -(-locality.AUDIT_BLOCK // locality.AUDIT_CHUNK) - 1, "solve": blocks}


def test_workers_run_in_the_callers_context(monkeypatch):
    # the flipped sign leaves every residual bitwise as it was, so only a spy
    # in the engine shows whether the worker threads saw the caller's fault
    n = 4 * locality.AUDIT_BLOCK
    clean = locality.run_experiment(n=n, seed=43)
    monkeypatch.setattr(locality, "_usable_cpus", lambda: 2)
    seen, engine = [], locality.audit_jacobian

    def spy(x):
        seen.append((dynamics.RHO_DOT_SIGN.get(), threading.get_ident()))
        return engine(x)

    monkeypatch.setattr(locality, "audit_jacobian", spy)
    token = dynamics.RHO_DOT_SIGN.set(-1.0)
    try:
        faulty = locality.run_experiment(n=n, seed=43)
    finally:
        dynamics.RHO_DOT_SIGN.reset(token)
    assert {sign for sign, _ in seen} == {-1.0}
    assert len({thread for _, thread in seen}) >= 2
    assert faulty.residuals.tobytes() == clean.residuals.tobytes()


class _BlockFailure(Exception):
    pass


def test_a_failing_block_fails_the_run_and_leaves_no_thread(monkeypatch, workers):
    # block 1 belongs to worker 1 on two or three workers, to this thread on one
    n, seed = 4 * locality.AUDIT_BLOCK, 47
    first_of_block_1 = locality._draw_chunk(seed, range(locality.AUDIT_BLOCK, locality.AUDIT_BLOCK + 1))[0]
    solve = locality._solve_deflated

    def failing(matrices, coords):
        if np.array_equal(coords[0], first_of_block_1):
            raise _BlockFailure("block 1")
        return solve(matrices, coords)

    monkeypatch.setattr(locality, "_solve_deflated", failing)
    before = threading.active_count()
    with pytest.raises(_BlockFailure, match="block 1"):
        locality.run_experiment(n=n, seed=seed)
    assert threading.active_count() == before


def test_an_interrupt_of_the_caller_stops_every_worker(monkeypatch, workers):
    # a worker that starts a block holds it until this thread is interrupted,
    # and must then stop after that block instead of auditing its other nine
    n = 20 * locality.AUDIT_BLOCK
    engine, interrupting = locality.audit_jacobian, threading.Event()
    worker_calls = []

    def interrupted(x):
        if threading.current_thread() is threading.main_thread():
            interrupting.set()
            raise KeyboardInterrupt
        interrupting.wait(timeout=60)
        worker_calls.append(threading.get_ident())
        return engine(x)

    monkeypatch.setattr(locality, "audit_jacobian", interrupted)
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        locality.run_experiment(n=n, seed=47)
    assert threading.active_count() == before
    chunks_per_block = -(-locality.AUDIT_BLOCK // locality.AUDIT_CHUNK)
    assert len(worker_calls) <= 2 * chunks_per_block * (workers - 1)


def test_a_multi_block_run_raises_the_oracles_error(workers):
    with pytest.raises(ValueError) as one_block:
        locality.run_experiment(n=3, seed=2, h_step=1e100)
    before = threading.active_count()
    with pytest.raises(ValueError) as four_blocks:
        locality.run_experiment(n=4 * locality.AUDIT_BLOCK, seed=2, h_step=1e100)
    assert str(four_blocks.value) == str(one_block.value)
    assert "central-difference oracle" in str(one_block.value)
    assert threading.active_count() == before


@pytest.mark.parametrize("n, cpus", [(1, 3), (locality.AUDIT_BLOCK, 3), (3 * locality.AUDIT_BLOCK + 17, 1)],
                         ids=["one-sample", "one-block", "one-cpu"])
def test_one_block_or_one_cpu_starts_no_thread(monkeypatch, n, cpus):
    def refuse(*args, **kwargs):
        raise AssertionError("the audit started a thread")

    monkeypatch.setattr(locality, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(threading, "Thread", refuse)
    assert locality.run_experiment(n=n, seed=5).n_solvable == n


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert locality._usable_cpus() == (os.cpu_count() or 1)


def test_failure_stays_with_its_sample_inside_a_chunk(monkeypatch):
    # two poisoned samples, in the first and the second chunk: each chunk's
    # stacked evaluation holds a NaN matrix, yet only those samples may be lost
    n, bad = locality.AUDIT_CHUNK + 6, (5, locality.AUDIT_CHUNK + 2)
    clean = locality.run_experiment(n=n, seed=31)
    assert clean.failed_indices == ()
    _poison_engine(monkeypatch, locality._draw_chunk(31, range(n))[list(bad)])
    report = locality.run_experiment(n=n, seed=31)
    assert report.failed_indices == bad
    assert report.n_solvable == n - len(bad)
    assert np.all(np.isnan(report.residuals[list(bad)]))
    kept = np.delete(np.arange(n), bad)
    assert report.residuals[kept].tobytes() == clean.residuals[kept].tobytes()


def test_per_sample_pairs_name_their_own_sample(monkeypatch):
    # after a failed sample, each later [index, residual] pair must still
    # carry that sample's index, not its position among the kept samples
    clean = locality.run_experiment(n=4, seed=31)
    _poison_engine(monkeypatch, [locality._draw_chunk(31, range(4))[1]])
    report = locality.run_experiment(n=4, seed=31)
    assert report.failed_indices == (1,)
    residuals = clean.residuals.tolist()
    assert report.to_json_dict(per_sample=True)["samples"] == [
        [0, residuals[0]], [2, residuals[2]], [3, residuals[3]]
    ]


def test_build_system_shape_and_rhs():
    # the request is implicit, a unit increment in the last row and zero
    # elsewhere: a zero matrix misses it by exactly 1, and a matrix that
    # reaches only its last row meets it
    assert locality.build_system(locality.sample_interior_rep(5)).shape == (14, 19)
    _, missed = locality.solve_least_squares(np.zeros((14, 19)))
    last_only = np.zeros((14, 19))
    last_only[13, 2] = 4.0
    solution, met = locality.solve_least_squares(last_only)
    assert missed == 1.0
    assert met < 1e-15 and np.max(np.abs(solution - 0.25 * np.eye(19)[2])) < 1e-15


def test_build_system_is_bitwise_deterministic():
    rep = locality.sample_interior_rep(6)
    assert locality.build_system(rep).tobytes() == locality.build_system(rep).tobytes()


def test_build_system_gap_column_uncoupled():
    # without coupling the coherence derivative rotates at the gap, so the
    # gap column of those rows reproduces the coherence components
    rep = locality.sample_interior_rep(7)
    x = rep.to_array()
    x[10:] = 0.0
    matrix = locality.build_system(x)
    config = core.rep_to_config(core.ConfigRep.from_array(x))
    ext = dynamics.extended_state(config, "A")
    assert abs(matrix[3, 8] - (-ext.im_c)) < 1e-9
    assert abs(matrix[4, 8] - ext.re_c) < 1e-9
    assert abs(matrix[5, 8]) < 1e-9


def test_least_squares_consistent_underdetermined_system():
    # x2 + x3 = 1 with x0 = x1 = 0: the minimum-norm solution splits the unit
    # request evenly between x2 and x3 and leaves the free x4 at 0
    matrix = np.array([[1.0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0], [0, 0, 1.0, 1.0, 0]])
    solution, residual = locality.solve_least_squares(matrix)
    assert residual < 1e-14
    assert np.max(np.abs(solution - [0.0, 0.0, 0.5, 0.5, 0.0])) < 1e-14


def test_least_squares_duplicated_row_is_inconsistent():
    # two copies of one unit row, the unit request asking 0 of the first and
    # 1 of the second: best split is 1/2 each, so the residual is exactly 1/sqrt(2)
    row = np.zeros(19)
    row[0] = 1.0
    _, residual = locality.solve_least_squares(np.vstack([row, row]))
    assert abs(residual - 1.0 / np.sqrt(2.0)) < 1e-12


def _lstsq_reference(matrices):
    """Per-system ``np.linalg.lstsq(rcond=None)`` of the unit request in the last
    row: solutions, residual norms and ranks."""
    rhs = np.eye(matrices.shape[-2])[-1]
    results = [np.linalg.lstsq(a, rhs, rcond=None) for a in matrices]
    solutions = np.array([r[0] for r in results])
    residuals = np.array([np.linalg.norm(a @ x - rhs) for a, x in zip(matrices, solutions)])
    return solutions, residuals, [int(r[2]) for r in results]


def test_stacked_solve_matches_lstsq_on_audit_matrices():
    # finite-difference noise lifts the two vanishing singular values to
    # about 1e-13 of the largest, above lstsq's cutoff: rank 14.  A coarser
    # cutoff would drop them and move the residuals by more than 1e-14.
    matrices = locality.build_system(locality._draw_chunk(12, range(64)))
    solutions, residuals = locality._solve_stack(matrices)
    _, expected, ranks = _lstsq_reference(matrices)
    assert solutions.shape == (64, 19) and residuals.shape == (64,)
    assert ranks == [14] * 64
    assert np.max(np.abs(residuals - expected)) < 1e-14


def test_stacked_solve_cuts_the_exact_jacobian_at_rank_12():
    # the exact Jacobian has rank 12; its two vanishing singular values sit
    # far below lstsq's cutoff, so both solvers must drop them, and then
    # the solutions agree to rounding
    x = np.stack([locality.sample_interior_rep(s).to_array() for s in range(200)])
    matrices = locality.audit_jacobian(x)
    solutions, residuals = locality._solve_stack(matrices)
    expected_solutions, expected, ranks = _lstsq_reference(matrices)
    assert ranks == [12] * 200
    assert np.max(np.abs(residuals - expected)) < 1e-14
    scale = np.max(np.abs(expected_solutions), axis=1, keepdims=True)
    assert np.max(np.abs(solutions - expected_solutions) / scale) < 1e-12


def test_deflated_solve_matches_lstsq_on_exact_matrices():
    x = np.stack([locality.sample_interior_rep(s).to_array() for s in range(200)])
    matrices = locality.audit_jacobian(x)
    solutions, residuals = locality._solve_deflated(matrices, x)
    expected_solutions, expected, _ = _lstsq_reference(matrices)
    assert np.max(np.abs(residuals - expected)) < 1e-14
    scale = np.max(np.abs(expected_solutions), axis=1, keepdims=True)
    assert np.max(np.abs(solutions - expected_solutions) / scale) < 1e-11


_PRODUCT_STATE, _BELL_STATE = verification._PRODUCT_STATE, verification._BELL_STATE


def test_the_audit_cutoff_keeps_every_sampled_rank():
    # _solve_stack and _solve_deflated drop what lies below _cutoff(A) * s_1;
    # every sampled matrix keeps its 12 singular values there, and the
    # product and Bell points of verify's deflated-solve check keep 10 and 9
    def kept(matrices):
        s = np.linalg.svd(matrices, compute_uv=False)
        return (s > locality._cutoff(matrices) * s[:, :1]).sum(axis=1)

    assert (kept(locality.audit_jacobian(locality._draw_chunk(0, range(5000)))) == 12).all()
    assert list(kept(locality.audit_jacobian(np.stack([_PRODUCT_STATE, _BELL_STATE])))) == [10, 9]


def test_deflated_solve_hands_degenerate_points_to_the_svd(monkeypatch):
    degenerate = np.stack([_PRODUCT_STATE, _BELL_STATE])
    assert [np.linalg.matrix_rank(a) for a in locality.audit_jacobian(degenerate)] == [10, 9]
    x = np.concatenate([locality._draw_chunk(3, range(5)), degenerate, locality._draw_chunk(4, range(3))])
    matrices = locality.audit_jacobian(x)
    handed, verdicts = [], []
    original, original_certified = locality._solve_stack, locality._certified

    def spy(stack):
        handed.append(stack.copy())
        return original(stack)

    def certified_spy(r, rcond):
        verdicts.append(original_certified(r, rcond))
        return verdicts[-1]

    monkeypatch.setattr(locality, "_solve_stack", spy)
    monkeypatch.setattr(locality, "_certified", certified_spy)
    solutions, residuals = locality._solve_deflated(matrices, x)
    assert len(handed) == 1 and handed[0].tobytes() == matrices[5:7].tobytes()
    expected_solutions, expected = original(matrices[5:7])
    assert residuals[5:7].tobytes() == expected.tobytes()
    assert solutions[5:7].tobytes() == expected_solutions.tobytes()
    # R's diagonal sends the product state; the Bell state fails it too, but
    # with that certificate switched off the pivot test alone still sends it,
    # its first normal vanishing on every state row
    (diagonal,) = verdicts
    assert diagonal.tolist()[:6] == [True] * 5 + [False] and diagonal.tolist()[7:] == [True] * 3
    handed.clear()
    monkeypatch.setattr(locality, "_certified", lambda r, rcond: np.ones(len(r), dtype=bool))
    locality._solve_deflated(matrices, x)
    assert len(handed) == 1 and handed[0].tobytes() == matrices[6:7].tobytes()


def test_deflated_solve_rows_equal_one_system_stacks_bitwise():
    x = np.concatenate([locality._draw_chunk(13, range(40)), [_PRODUCT_STATE]])
    matrices = locality.audit_jacobian(x)
    solutions, residuals = locality._solve_deflated(matrices, x)
    for i in range(len(x)):
        one_solution, one_residual = locality._solve_deflated(matrices[i:i + 1], x[i:i + 1])
        assert one_residual.tobytes() == residuals[i:i + 1].tobytes()
        assert one_solution.tobytes() == solutions[i:i + 1].tobytes()


def test_stacked_solve_rows_equal_one_system_stacks_bitwise():
    matrices = locality.build_system(locality._draw_chunk(13, range(64)))
    solutions, residuals = locality._solve_stack(matrices)
    for i, matrix in enumerate(matrices):
        one_solution, one_residual = locality._solve_stack(matrices[i:i + 1])
        assert one_residual.tobytes() == residuals[i:i + 1].tobytes()
        assert one_solution.tobytes() == solutions[i:i + 1].tobytes()
        solution, residual = locality.solve_least_squares(matrix)
        assert type(residual) is float and residual == residuals[i]
        assert solution.tobytes() == solutions[i].tobytes()


def test_sampled_systems_are_solvable():
    rng = np.random.default_rng(8)
    for _ in range(5):
        matrix = locality.build_system(locality.sample_interior_rep(rng))
        _, residual = locality.solve_least_squares(matrix)
        assert residual < 1e-12


def test_solutions_are_tangent_to_the_moduli_sphere():
    rng = np.random.default_rng(10)
    for _ in range(10):
        rep = locality.sample_interior_rep(rng)
        solution, residual = locality.solve_least_squares(locality.build_system(rep))
        assert residual < 1e-12
        assert abs(np.dot(rep.r, solution[:4])) < 1e-9


def test_run_experiment_rejects_empty_run():
    with pytest.raises(ValueError, match="at least 1"):
        locality.run_experiment(n=0, seed=0)


@pytest.mark.parametrize("n", [2.5, 5000.0, "3"])
def test_run_experiment_takes_only_an_integer_count(n):
    # as the seed is taken: through operator.index, before any work
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        locality.run_experiment(n=n, seed=0)


@pytest.mark.parametrize("seed, error, message", [
    (-1, ValueError, "seed must be a non-negative integer, got -1"),
    (1.5, TypeError, "cannot be interpreted as an integer"),
    ("7", TypeError, "cannot be interpreted as an integer"),
], ids=["negative", "fraction", "string"])
def test_run_experiment_checks_the_seed_before_any_work(seed, error, message):
    # the residuals of 10**15 samples would need petabytes, so an allocation
    # ahead of the check would raise MemoryError instead
    with pytest.raises(error, match=message):
        locality.run_experiment(n=10**15, seed=seed)


@pytest.mark.parametrize("threshold", [np.nan, 0.0, -1.0, np.inf], ids=["nan", "zero", "negative", "inf"])
def test_run_experiment_rejects_a_threshold_that_is_not_positive_and_finite(threshold):
    # nan, 0 and -1 would call every sample unsolvable, inf every sample solvable
    with pytest.raises(ValueError, match="threshold must be positive and finite"):
        locality.run_experiment(n=5, seed=0, threshold=threshold)


def test_solvable_flag_tracks_threshold():
    report = locality.run_experiment(n=10, seed=12)
    assert report.n_solvable == np.count_nonzero(report.residuals < report.threshold) == 10
    strict = locality.run_experiment(n=10, seed=12, threshold=1e-300)
    assert strict.n_solvable == 0
    assert strict.residuals.tobytes() == report.residuals.tobytes()


def test_report_serialization_round_trip():
    report = locality.run_experiment(n=4, seed=13)
    payload = report.to_json_dict(per_sample=True)
    assert payload["n_samples"] == 4
    assert payload["samples"] == [[i, r] for i, r in enumerate(report.residuals.tolist())]
    assert json.loads(json.dumps(payload)) == payload


def test_hyperspherical_radius_of_unit_vectors():
    rng = np.random.default_rng(14)
    for _ in range(100):
        moduli = rng.uniform(0.05, 1.0, 4)
        moduli /= np.linalg.norm(moduli)
        radius, *_ = locality.hyperspherical_forward(moduli)
        assert abs(radius - 1.0) < 1e-12


def test_hyperspherical_round_trip_from_angles():
    rng = np.random.default_rng(16)
    for _ in range(1000):
        angles = rng.uniform(0.05, np.pi / 2 - 0.05, 3)
        moduli = locality.hyperspherical_backward(1.0, *angles)
        _, alpha, beta, gamma = locality.hyperspherical_forward(moduli)
        assert np.max(np.abs(np.array([alpha, beta, gamma]) - angles)) < 1e-12


def test_hyperspherical_pathological_points_raise():
    with pytest.raises(ValueError, match="pathological"):
        locality.hyperspherical_forward([0.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="pathological"):
        locality.hyperspherical_forward([0.0, 0.5, 0.5, 0.0])
    with pytest.raises(ValueError, match="zero moduli"):
        locality.hyperspherical_forward([0.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_hyperspherical_forward_rejects_nonfinite_moduli(value):
    with pytest.raises(ValueError, match="finite"):
        locality.hyperspherical_forward([0.5, value, 0.5, 0.5])


def _scalar_forward(m):
    # the one-vector chart as numpy scalars compute it, the reference for the stacked map
    s1 = float(np.hypot(m[2], np.hypot(m[0], m[3])))
    radius = float(np.hypot(m[1], s1))
    return (radius, float(np.arccos(np.clip(m[1] / radius, -1.0, 1.0))),
            float(np.arccos(np.clip(m[2] / s1, -1.0, 1.0))),
            float(np.mod(np.arctan2(m[0], m[3]), 2.0 * np.pi)))


def test_hyperspherical_forward_of_a_stack_is_bitwise_each_row():
    rng = np.random.default_rng(33)
    moduli = rng.uniform(0.02, 1.0, (200, 4))
    moduli[100:] /= np.linalg.norm(moduli[100:], axis=1, keepdims=True)
    stacked = np.array(locality.hyperspherical_forward(moduli))
    rows = [locality.hyperspherical_forward(m) for m in moduli]
    assert all(type(value) is float for row in rows for value in row)
    assert rows == [_scalar_forward(m) for m in moduli]
    assert stacked.shape == (4, 200)
    assert stacked.tobytes() == np.array(rows).T.tobytes()
    # leading axes of any shape
    folded = np.array(locality.hyperspherical_forward(moduli.reshape(10, 20, 4)))
    assert folded.tobytes() == stacked.reshape(4, 10, 20).tobytes()


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_hyperspherical_forward_of_moduli_far_from_unit_scale(scale):
    # the squares of these moduli overflow or underflow; their angles must not move
    moduli = np.array([[3.0, 1.0, 2.0, 1.0], [1.0, 2.0, 3.0, 4.0], [0.3, 0.9, 0.1, 0.2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        radius, *angles = locality.hyperspherical_forward(scale * moduli)
        one = locality.hyperspherical_forward(scale * moduli[1])
    unit_radius, *unit_angles = locality.hyperspherical_forward(moduli)
    assert np.max(np.abs(np.array(angles) - np.array(unit_angles))) <= 1e-15
    assert np.allclose(radius / scale, unit_radius, rtol=1e-15, atol=0)
    assert one == tuple(row[1] for row in [radius, *angles])


@pytest.mark.parametrize("bad, message", [
    ([0.5, np.nan, 0.5, 0.5], "moduli must be finite, got \\[0.5, nan, 0.5, 0.5\\]"),
    ([0.0, 0.0, 0.0, 0.0], "zero moduli vector has no hyperspherical angles"),
    ([0.0, 0.5, 0.5, 0.0], "pathological point: a sine in the angle chain vanishes"),
], ids=["nonfinite", "zero", "pathological"])
def test_hyperspherical_forward_of_a_stack_raises_its_bad_rows_own_message(bad, message):
    moduli = np.random.default_rng(34).uniform(0.02, 1.0, (6, 4))
    moduli[3] = bad
    # a later row of another kind does not decide the message
    moduli[5] = [0.0, 1.0, 0.0, 0.0] if "finite" in message else [np.inf, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError) as alone:
        locality.hyperspherical_forward(moduli[3])
    with pytest.raises(ValueError, match=f"^{message}$") as stacked:
        locality.hyperspherical_forward(moduli)
    assert str(stacked.value) == str(alone.value)


def test_transport_of_zero_is_zero():
    rep = locality.sample_interior_rep(17)
    assert np.array_equal(locality.transport_solution(np.zeros(19), rep), np.zeros(18))


def test_transport_phase_increment_passes_through():
    # the chart touches only the moduli block; a pure phase increment maps
    # to the same slot shifted by one
    rep = locality.sample_interior_rep(18)
    dx = np.zeros(19)
    dx[4] = 0.25
    dy = locality.transport_solution(dx, rep)
    expected = np.zeros(18)
    expected[3] = 0.25
    assert np.array_equal(dy, expected)


def test_transport_requires_tangency():
    rep = locality.sample_interior_rep(19)
    dx = np.zeros(19)
    dx[0] = 1e-3
    with pytest.raises(ValueError, match="tangent"):
        locality.transport_solution(dx, rep)


@pytest.mark.parametrize("entry", [0, 4], ids=["modulus", "phase"])
def test_transport_rejects_a_nonfinite_solution(entry):
    # a NaN modulus increment makes the radial product NaN, which
    # ``abs(radial) > TANGENCY_TOL`` lets through; a NaN phase never enters it
    rep = locality.sample_interior_rep(20)
    dx = np.zeros(19)
    dx[entry] = np.nan
    with pytest.raises(ValueError, match="finite"):
        locality.transport_solution(dx, rep)


@pytest.mark.parametrize("scale", [2.0, 0.5])
def test_transported_solutions_satisfy_the_tangent_system_off_the_unit_sphere(scale):
    # both entries read the chart at the base point's own radius
    for x0 in locality._draw_chunk(0, range(5)):
        x0[:4] *= scale
        solution, _ = locality.solve_least_squares(locality.audit_jacobian(x0))
        dy = locality.transport_solution(solution, x0)
        matrix, rhs = locality.build_tangent_system(x0)
        assert np.linalg.norm(matrix @ dy - rhs) <= 1e-12


# the two entries that take a base point on the chart
_CHART_ENTRIES = {
    "transport": lambda x0: locality.transport_solution(np.zeros(19), x0),
    "tangent-system": locality.build_tangent_system,
}


@pytest.mark.parametrize("entry", _CHART_ENTRIES.values(), ids=_CHART_ENTRIES)
def test_transport_rejects_a_nonfinite_base_point(entry):
    # checked before the tangency test, which would blame the solution for the NaN;
    # a NaN phase would otherwise give a NaN tangent system without a word
    x0 = locality.sample_interior_rep(21).to_array()
    x0[4] = np.nan
    with pytest.raises(ValueError, match="base point must be finite"):
        entry(x0)


@pytest.mark.parametrize("entry", _CHART_ENTRIES.values(), ids=_CHART_ENTRIES)
def test_transport_rejects_a_short_base_point(entry):
    x0 = locality.sample_interior_rep(22).to_array()[:18]
    with pytest.raises(ValueError, match=r"^expected a 19-coordinate base point, got shape \(18,\)$"):
        entry(x0)


# inside the sampler's box, moduli normalized as it normalizes them
_BOX_COORDS = st.tuples(
    arrays(float, 4, elements=st.floats(0.05, 1.0)),
    arrays(float, 4, elements=st.floats(0.0, 2.0 * np.pi)),
    arrays(float, 2, elements=st.floats(0.05, 1.0)),
    arrays(float, 9, elements=st.floats(-1.0, 1.0)),
).map(lambda parts: np.concatenate([parts[0] / np.linalg.norm(parts[0]), *parts[1:]]))


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(x=_BOX_COORDS)
def test_exact_jacobian_matches_central_differences_in_the_sampler_box(x):
    exact = locality.audit_jacobian(x)
    assert np.max(np.abs(exact - locality.build_system(x))) < locality.FD_ORACLE_TOL


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(seed=st.integers(0, 2**64))
def test_exact_jacobian_has_rank_12_on_sampled_points(seed):
    # matrix_rank's default cutoff is _solve_stack's, eps * max(k, d) * s_1.
    # Rank 12 holds almost surely, not everywhere in the box: at a product
    # state with h = 0, (1, 1, 1, 1) / 2 with equal phases, it is 10.
    exact = locality.audit_jacobian(locality.sample_interior_rep(seed).to_array())
    assert np.linalg.matrix_rank(exact) == 12


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(x=_BOX_COORDS, sign=st.sampled_from([1.0, -1.0]))
def test_schmidt_normals_annihilate_the_exact_jacobian(x, sign):
    # det rho_A = det rho_B, and its time derivative, hold under either sign of rho_dot
    token = dynamics.RHO_DOT_SIGN.set(sign)
    try:
        matrix, values = locality.audit_jacobian(x), locality.rep_observables(x)
    finally:
        dynamics.RHO_DOT_SIGN.reset(token)
    normals = locality._schmidt_normals(values)
    assert np.all(normals[13] == 0.0)
    # the deflated solve drops state row p and derivative row p + 3, whose 2x2
    # minor of [n1 n2] is n1[p]^2 because n1 vanishes on the derivative rows
    # and n2 there repeats n1 on the state rows, bit for bit
    derivative_rows = locality._STATE_ROWS + 3
    assert np.all(normals[derivative_rows, 0] == 0.0)
    assert normals[derivative_rows, 1].tobytes() == normals[locality._STATE_ROWS, 0].tobytes()
    products = np.linalg.norm(normals.T @ matrix, axis=-1)
    assert np.all(products <= 1e-13 * np.linalg.norm(normals, axis=0) * np.linalg.norm(matrix))
    # the deflated solve reads rows 0-12 off the moduli columns (Euler's theorem)
    euler = 0.5 * matrix[:13, :4] @ x[:4]
    assert np.max(np.abs(euler - values[:13])) < 1e-14 * _audit_scale(x)


# moduli, phases, then gaps and couplings, off the sphere and out of range too
_RAW_COORDS = st.tuples(
    arrays(float, 4, elements=st.floats(-2.0, 2.0)),
    arrays(float, 4, elements=st.floats(0.0, 2.0 * np.pi)),
    arrays(float, 11, elements=st.floats(-2.0, 2.0)),
).map(np.concatenate)


def _audit_scale(x):
    # every row is at most quadratic in the amplitudes and linear in H; floored
    # at the smallest normal double, so that 1e-14 times it cannot underflow to 0
    matrix = core.hamiltonian_matrix(x[8], x[9], x[10:].reshape(3, 3))
    scale = locality.rep_norm_sq(x) * max(1.0, np.linalg.norm(matrix, ord=2))
    return max(scale, np.finfo(float).tiny)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(x=_RAW_COORDS)
def test_relabeling_swaps_the_two_extended_states(x):
    # psi[2a + b] -> psi[2b + a], omega_a <-> omega_b, h -> h^T is the A <-> B swap
    swapped = x.copy()
    swapped[0:4] = x[[0, 2, 1, 3]]
    swapped[4:8] = x[[4, 6, 5, 7]]
    swapped[8:10] = x[[9, 8]]
    swapped[10:] = x[10:].reshape(3, 3).T.ravel()
    before = locality.rep_observables(x)
    after = locality.rep_observables(swapped)
    expected = np.concatenate([before[6:12], before[0:6], before[12:]])
    assert np.all(np.abs(after - expected) <= 1e-14 * _audit_scale(x))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(x=_RAW_COORDS, angle=st.floats(0.0, 2.0 * np.pi))
# a subnormal scale: row 8 moves by one subnormal ulp, 5e-324
@example(x=np.concatenate([[0.0, 1.08725376e-157], np.zeros(17)]), angle=2.0)
def test_global_phase_leaves_every_audited_row_unchanged(x, angle):
    turned = x.copy()
    turned[4:8] += angle
    before = locality.rep_observables(x)
    after = locality.rep_observables(turned)
    assert np.all(np.abs(after - before) <= 1e-14 * _audit_scale(x))


def _chart_points(count: int) -> np.ndarray:
    """``count`` audit base points, every third one off the unit sphere."""
    x = locality._draw_chunk(31, range(count))
    x[::3, :4] *= 1.7
    return x


def test_stacked_chart_kernels_are_rows_of_the_one_point_entries():
    x = _chart_points(120)
    jacobians = locality.audit_jacobian(x)
    solutions, _ = locality._solve_stack(jacobians)
    transported = locality._transported(solutions, x)
    systems = locality._tangent_systems(x, jacobians)
    charts = locality._forward_jacobian(*locality.hyperspherical_forward(x[:, :4]))
    assert transported.shape == (120, 18) and systems.shape == (120, 13, 18) and charts.shape == (120, 4, 4)
    for i, x0 in enumerate(x):
        assert locality.transport_solution(solutions[i], x0).tobytes() == transported[i].tobytes()
        matrix, rhs = locality.build_tangent_system(x0)
        assert matrix.tobytes() == systems[i].tobytes()
        assert np.array_equal(rhs, np.eye(13)[-1])
        angles = locality.hyperspherical_forward(x0[:4])
        assert locality._forward_jacobian(*angles).tobytes() == charts[i].tobytes()


def _refusal(entry, *args) -> str:
    with pytest.raises(ValueError) as refused:
        entry(*args)
    return str(refused.value)


@pytest.mark.parametrize("fault", ["nonfinite base", "nonfinite solution", "not tangent", "pathological"])
def test_a_stacked_chart_kernel_raises_its_first_refused_rows_message(fault):
    x = _chart_points(8)
    solutions, _ = locality._solve_stack(locality.audit_jacobian(x))
    # row 5 is refused for the fault; row 6 for another reason, which must not decide the message
    x[6, :4] = [0.0, 1.0, 0.0, 0.0]
    solutions[6, 0] = 1.0
    if fault == "nonfinite base":
        x[5, 4] = np.nan
    elif fault == "nonfinite solution":
        solutions[5, 7] = np.inf
    elif fault == "not tangent":
        solutions[5, :4] += x[5, :4]
    else:
        x[5, :4] = [0.0, 0.5, 0.5, 0.0]
        x[5, :4] /= np.linalg.norm(x[5, :4])
        solutions[5, :4] = 0.0
    alone = _refusal(locality.transport_solution, solutions[5], x[5])
    assert _refusal(locality._transported, solutions, x) == alone
    if fault in ("nonfinite base", "pathological"):
        jacobians = locality.audit_jacobian(x)
        assert _refusal(locality._tangent_systems, x, jacobians) == _refusal(locality.build_tangent_system, x[5])
