"""Evolution, reduced states and their derivatives against independent routes."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quniverse import core, dynamics, locality
from quniverse.verification import random_control_case
from shared_checks import shared_check

test_norm_and_energy_conserved_along_trajectory = shared_check("conservation", seed=0, n=5)
test_reduced_states_are_legal_density_matrices = shared_check("reduced_states", seed=5, n=100)
test_rho_dot_is_traceless_hermitian = shared_check("reduced_states", seed=7, n=50)
test_rho_dot_matches_finite_difference_oracle = shared_check("reduced_states", seed=8, n=100)
test_extended_state_relabeling_symmetry = shared_check("relabeling", seed=11, n=25)


def _random_config(seed):
    return core.rep_to_config(locality.sample_interior_rep(seed))


def _hpsi(psi, matrix):
    return (matrix @ psi[..., None])[..., 0]


def _records(rho, rho_dot):
    """``(2, 6)`` records of both subsystems, read off column 1 of the
    textbook partial traces of a 4x4 ``rho`` and ``rho_dot``."""
    rows = []
    for subsystem in dynamics.SUBSYSTEMS:
        (c, p1), (cdot, p1dot) = (dynamics.partial_trace(m, subsystem)[:, 1] for m in (rho, rho_dot))
        rows.append([c.real, c.imag, p1.real, cdot.real, cdot.imag, p1dot.real])
    return np.array(rows)


def test_propagate_zero_time_is_identity():
    config = _random_config(2)
    after = dynamics.propagate(config.state, config.hamiltonian, 0.0)
    assert np.max(np.abs(after.psi - config.state.psi)) < 1e-14


def test_propagate_group_property():
    rng = np.random.default_rng(3)
    for _ in range(20):
        config = core.rep_to_config(locality.sample_interior_rep(rng))
        t1, t2 = rng.uniform(-5, 5, 2)
        two_steps = dynamics.propagate(
            dynamics.propagate(config.state, config.hamiltonian, t1),
            config.hamiltonian,
            t2,
        )
        one_step = dynamics.propagate(config.state, config.hamiltonian, t1 + t2)
        assert np.max(np.abs(two_steps.psi - one_step.psi)) < 1e-10


@pytest.mark.parametrize("evolve", [
    lambda psi, matrix: dynamics.trajectory(psi, matrix, [0.0]),
    lambda psi, matrix: dynamics.propagate(psi, matrix, 0.0),
], ids=["trajectory", "propagate"])
def test_evolution_takes_only_a_hamiltonian_spec(evolve):
    # eigh reads one triangle of a raw matrix, so a non-Hermitian one would be
    # silently evolved as a different Hamiltonian
    config = _random_config(4)
    with pytest.raises(TypeError, match="hamiltonian must be a HamiltonianSpec, got ndarray"):
        evolve(config.state.psi, np.eye(4))


@pytest.mark.parametrize("amplitudes, message", [
    (np.ones(4), "state not normalized: sum \\|psi_k\\|\\^2 = 4.0"),
    ([np.nan, 0.0, 0.0, 0.0], "state amplitudes must be finite"),
], ids=["norm-2", "nan"])
def test_trajectory_refuses_raw_amplitudes_that_are_not_a_state(amplitudes, message):
    # raw amplitudes are checked as UniverseState checks them, before evolving
    with pytest.raises(ValueError, match=message):
        dynamics.trajectory(amplitudes, _random_config(5).hamiltonian, [0.0, 1.0])


@pytest.mark.parametrize("time", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_evolution_refuses_a_nonfinite_time(time, monkeypatch):
    # refused before the eigendecomposition, so no numpy warning precedes it
    spec = _random_config(6).hamiltonian
    state = _random_config(7).state
    monkeypatch.setattr(np.linalg, "eigh", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"times must be finite, got {time!r}"):
            dynamics.trajectory(state, spec, [0.0, time])
        with pytest.raises(ValueError, match=f"times must be finite, got {time!r}"):
            dynamics.propagate(state, spec, time)


@pytest.mark.parametrize("times", [np.zeros((2, 3)), 0.0], ids=["2-d", "scalar"])
def test_trajectory_refuses_times_that_are_not_a_grid(times, monkeypatch):
    # a 2-D array used to be flattened into one row per entry
    monkeypatch.setattr(np.linalg, "eigh", None)
    with pytest.raises(ValueError, match=re.escape(f"times must be a 1-D grid, got shape {np.shape(times)}")):
        dynamics.trajectory(_random_config(7).state, _random_config(6).hamiltonian, times)


def test_partial_trace_ground_state():
    state = core.UniverseState(np.array([1, 0, 0, 0], dtype=complex))
    assert np.array_equal(
        dynamics.partial_trace(state, "A"), np.diag([1.0, 0.0]).astype(complex)
    )


def test_partial_trace_bell_state_is_maximally_mixed():
    psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    for subsystem in dynamics.SUBSYSTEMS:
        reduced = dynamics.partial_trace(psi, subsystem)
        assert np.max(np.abs(reduced - 0.5 * np.eye(2))) < 1e-15


def test_partial_trace_no_double_excitation_closed_form():
    # with psi_3 = 0 the A marginal is [[1-|psi_a|^2, psi_0 conj(psi_a)], [cc, |psi_a|^2]]
    state = random_control_case(np.random.default_rng(4))
    psi = np.array([state.psi0, state.psi_b, state.psi_a, 0.0])
    reduced = dynamics.partial_trace(psi, "A")
    assert abs(reduced[0, 0] - (1 - abs(state.psi_a) ** 2)) < 1e-12
    assert abs(reduced[0, 1] - state.psi0 * np.conj(state.psi_a)) < 1e-12
    assert abs(reduced[1, 1] - abs(state.psi_a) ** 2) < 1e-12


def test_partial_trace_rejects_bad_shapes():
    with pytest.raises(ValueError, match="4x4"):
        dynamics.partial_trace(np.zeros((3, 3)), "A")
    with pytest.raises(ValueError, match="subsystem"):
        dynamics.partial_trace(np.zeros(4), "C")
    # a stack of states is not a stack of matrices
    for shape in [(3, 4), (5, 4), (2, 3, 4)]:
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            dynamics.partial_trace(np.zeros(shape), "A")


@pytest.mark.parametrize("step", [0.0, -1e-6, np.inf, np.nan])
def test_finite_difference_rho_dot_refuses_a_step_that_is_not_positive_and_finite(step):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"step must be positive and finite, got {step!r}")):
            dynamics.finite_difference_rho_dot(_random_config(13), "A", step=step)


@pytest.mark.parametrize("step", [1e-300, 1e-310])
def test_finite_difference_rho_dot_refuses_a_step_below_the_time_resolution(step):
    config = _random_config(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"step {step!r} is below the time resolution")):
            dynamics.finite_difference_rho_dot(config, "A", step=step)
    # the floor is relative to ||H||_F: just above it, the step is taken
    step = 2e-12 / config.hamiltonian.frobenius_norm
    assert np.isfinite(dynamics.finite_difference_rho_dot(config, "B", step=step)).all()


def test_finite_difference_rho_dot_propagates_once(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda matrix: calls.append(matrix) or eigh(matrix))
    dynamics.finite_difference_rho_dot(_random_config(14), "B")
    assert len(calls) == 1


def test_partial_trace_of_a_stack_is_bitwise_each_matrix():
    rng = np.random.default_rng(12)
    stack = rng.normal(size=(3, 5, 4, 4)) + 1j * rng.normal(size=(3, 5, 4, 4))
    for subsystem in dynamics.SUBSYSTEMS:
        reduced = dynamics.partial_trace(stack, subsystem)
        assert reduced.shape == (3, 5, 2, 2)
        for index in np.ndindex(3, 5):
            assert reduced[index].tobytes() == dynamics.partial_trace(stack[index], subsystem).tobytes()


def test_rho_dot_uncoupled_rotates_coherence():
    rng = np.random.default_rng(6)
    for _ in range(20):
        rep = locality.sample_interior_rep(rng)
        config = core.rep_to_config(replace(rep, h=np.zeros((3, 3))))
        for subsystem, omega in (("A", rep.omega_a), ("B", rep.omega_b)):
            rho = dynamics.partial_trace(config.state, subsystem)
            rho_dot = dynamics.rho_dot_local(config, subsystem)
            assert abs(rho_dot[0, 1] - 1j * omega * rho[0, 1]) < 1e-12
            assert abs(rho_dot[0, 0]) < 1e-12 and abs(rho_dot[1, 1]) < 1e-12


def test_extended_state_of_stationary_ground_state_is_zero():
    config = core.Configuration(
        state=core.UniverseState(np.array([1, 0, 0, 0], dtype=complex)),
        hamiltonian=core.HamiltonianSpec(1.0, 1.0, np.zeros((3, 3))),
    )
    for subsystem in dynamics.SUBSYSTEMS:
        ext = dynamics.extended_state(config, subsystem)
        assert np.array_equal(ext.to_array(), np.zeros(6))


def test_extended_state_uncoupled_rotation_relation():
    rng = np.random.default_rng(9)
    for _ in range(20):
        rep = locality.sample_interior_rep(rng)
        config = core.rep_to_config(replace(rep, h=np.zeros((3, 3))))
        for subsystem, omega in (("A", rep.omega_a), ("B", rep.omega_b)):
            ext = dynamics.extended_state(config, subsystem)
            assert abs(ext.re_cdot + omega * ext.im_c) < 1e-12
            assert abs(ext.im_cdot - omega * ext.re_c) < 1e-12


def test_extended_state_gauge_invariant():
    rng = np.random.default_rng(10)
    for _ in range(100):
        rep = locality.sample_interior_rep(rng)
        shifted = replace(rep, theta=rep.theta + rng.uniform(0, 2 * np.pi))
        for subsystem in dynamics.SUBSYSTEMS:
            one = dynamics.extended_state(core.rep_to_config(rep), subsystem)
            two = dynamics.extended_state(core.rep_to_config(shifted), subsystem)
            assert np.max(np.abs(one.to_array() - two.to_array())) < 1e-12


def test_extended_state_rejects_illegal_population():
    with pytest.raises(ValueError, match="population"):
        dynamics.ExtendedStateRep(0.0, 0.0, 1.5, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="coherence"):
        dynamics.ExtendedStateRep(0.9, 0.0, 0.5, 0.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "bad_row",
    [(0.0, 0.0, 1.5, 0.0, 0.0, 0.0), (0.9, 0.0, 0.5, 0.0, 0.0, 0.0),
     (np.nan, 0.0, 0.5, 0.0, 0.0, 0.0), (0.0, 0.0, 0.5, 0.0, 0.0, np.inf)],
    ids=["population", "coherence", "nan-coherence", "infinite-derivative"],
)
def test_stacked_extended_check_raises_what_one_record_raises(bad_row):
    configs = [_random_config(seed) for seed in range(8)]
    psi = np.stack([c.state.psi for c in configs])
    matrix = np.stack([c.hamiltonian.matrix for c in configs])
    coords = dynamics.pure_extended_coordinates(psi, _hpsi(psi, matrix))[:, 0]
    dynamics.check_extended_coordinates(coords)
    coords[5] = bad_row
    with pytest.raises(ValueError) as one:
        dynamics.ExtendedStateRep(*bad_row)
    with pytest.raises(ValueError) as stacked:
        dynamics.check_extended_coordinates(coords.reshape(2, 4, 6))
    assert str(stacked.value) == str(one.value)


def test_extended_coordinates_are_column_one_of_the_partial_traces():
    # the state half is the textbook partial trace of |psi><psi| bit for bit;
    # the derivative half is that of the commutator, up to rounding
    for seed in range(20):
        config = _random_config(seed)
        psi, matrix = config.state.psi, config.hamiltonian.matrix
        rho = np.outer(psi, psi.conj())
        expected = _records(rho, -1j * (matrix @ rho - rho @ matrix))
        coords = dynamics.pure_extended_coordinates(psi, _hpsi(psi, matrix))
        for subsystem, row in zip(dynamics.SUBSYSTEMS, coords):
            c, p1 = dynamics.partial_trace(psi, subsystem)[:, 1]
            assert row[:3].tolist() == [c.real, c.imag, p1.real]
        assert np.max(np.abs(coords - expected)) <= 1e-14 * np.linalg.norm(matrix, ord=2)


def test_extended_state_formula_broadcasts_bitwise():
    configs = [_random_config(seed) for seed in range(30)]
    psi = np.stack([c.state.psi for c in configs]).reshape(5, 6, 4)
    matrix = np.stack([c.hamiltonian.matrix for c in configs]).reshape(5, 6, 4, 4)
    stacked = dynamics.pure_extended_coordinates(psi, _hpsi(psi, matrix))
    assert stacked.shape == (5, 6, 2, 6)
    for flat, config in enumerate(configs):
        idx = np.unravel_index(flat, (5, 6))
        for row, subsystem in enumerate(dynamics.SUBSYSTEMS):
            point = dynamics.extended_state(config, subsystem).to_array()
            assert stacked[idx][row].tobytes() == point.tobytes()


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(
    parts=arrays(float, (5, 2, 4), elements=st.floats(-1.0, 1.0)),
    entries=arrays(float, (5, 2, 4, 4), elements=st.floats(-10.0, 10.0)),
    angle=st.floats(0.0, 2.0 * np.pi),
    size=st.integers(1, 5),
)
def test_rho_dot_is_the_hermitian_commutator(parts, entries, angle, size):
    # the records of a stack of random states and Hermitian H, and of each point alone
    psi = parts[:size, 0] + 1j * parts[:size, 1]
    norms = np.linalg.norm(psi, axis=-1, keepdims=True)
    assume(np.all(norms > 1e-3))
    psi = psi / norms
    m = entries[:size, 0] + 1j * entries[:size, 1]
    matrix = m + m.conj().swapaxes(-1, -2)
    scale = np.linalg.norm(matrix, ord=2, axis=(-2, -1))[:, None, None]
    hpsi = _hpsi(psi, matrix)
    records = dynamics.pure_extended_coordinates(psi, hpsi)
    turned_psi = np.exp(1j * angle) * psi
    turned = dynamics.pure_extended_coordinates(turned_psi, _hpsi(turned_psi, matrix))
    rho = psi[:, :, None] * psi[:, None, :].conj()
    commutator = -1j * (matrix @ rho - rho @ matrix)
    expected = np.stack([_records(r, d) for r, d in zip(rho, commutator)])
    # the derivative halves, which scale with H; the floor keeps the bound
    # from underflowing below the spacing of subnormals when H is subnormal
    bound = 1e-14 * scale + 4 * np.finfo(float).smallest_subnormal
    assert np.all(np.abs(records - expected)[..., 3:] <= bound)
    assert np.all(np.abs(turned - records)[..., 3:] <= bound)
    for i in range(size):
        assert dynamics.pure_extended_coordinates(psi[i], hpsi[i]).tobytes() == records[i].tobytes()


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(
    parts=arrays(float, (2, 4), elements=st.floats(-1.0, 1.0)),
    gaps=arrays(float, 2, elements=st.floats(1e-3, 10.0)),
    h=arrays(float, (3, 3), elements=st.floats(-10.0, 10.0)),
    t_max=st.floats(0.0, 100.0),
)
def test_trajectory_conserves_norm_and_energy(parts, gaps, h, t_max):
    psi = parts[0] + 1j * parts[1]
    norm = np.linalg.norm(psi)
    assume(norm > 1e-3)
    spec = core.HamiltonianSpec(gaps[0], gaps[1], h)
    states = dynamics.trajectory(psi / norm, spec, np.linspace(0.0, t_max, 64))
    assert np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)) < 1e-13
    energies = core.expectation(states, spec.matrix).real
    assert np.max(np.abs(energies - energies[0])) < 1e-13 * spec.frobenius_norm


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plain", "rho-dot-sign"])
def test_pure_extended_coordinates_equal_the_matrix_route_bitwise(sign):
    # half the points displaced off the sphere, as finite-difference points are
    rng = np.random.default_rng(31)
    x = np.stack([locality.sample_interior_rep(rng).to_array() for _ in range(60)])
    x[::2] += rng.normal(0.0, 1e-2, x[::2].shape)
    psi = x[:, :4] * np.exp(1j * x[:, 4:8])
    matrix = core.hamiltonian_matrix(x[:, 8], x[:, 9], x[:, 10:].reshape(-1, 3, 3))
    hpsi = _hpsi(psi, matrix)
    token = dynamics.RHO_DOT_SIGN.set(sign)
    try:
        lean = dynamics.pure_extended_coordinates(psi, hpsi)
        observables = locality.rep_observables(x)
        points = [dynamics.pure_extended_coordinates(p, h) for p, h in zip(psi, hpsi)]
        nested = dynamics.pure_extended_coordinates(psi.reshape(3, 20, 4), hpsi.reshape(3, 20, 4))
    finally:
        dynamics.RHO_DOT_SIGN.reset(token)
    # the full 4x4 matrices, written out as outer products
    rho = psi[:, :, None] * psi[:, None, :].conj()
    a = (sign * -1j) * hpsi[:, :, None] * psi[:, None, :].conj()
    expected = np.stack([_records(r, d) for r, d in zip(rho, a + a.conj().swapaxes(-1, -2))])
    assert lean.shape == (60, 2, 6)
    assert lean.tobytes() == expected.tobytes()
    assert np.stack(points).tobytes() == lean.tobytes()
    assert nested.tobytes() == lean.tobytes()
    assert observables[:, :12].tobytes() == expected.reshape(60, 12).tobytes()
    assert observables[:, 13].tobytes() == core.expectation(psi, matrix).real.tobytes()
    # the fault enters once: it flips the derivative rows and nothing else
    plain = dynamics.pure_extended_coordinates(psi, hpsi)
    assert np.array_equal(lean[..., :3], plain[..., :3])
    assert np.array_equal(lean[..., 3:], sign * plain[..., 3:])


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plain", "rho-dot-sign"])
def test_audit_jacobian_is_the_derivative_of_the_reader(sign):
    # half the points displaced off the sphere, as finite-difference points are
    rng = np.random.default_rng(33)
    x = np.stack([locality.sample_interior_rep(rng).to_array() for _ in range(50)])
    x[::2] += rng.normal(0.0, 1e-2, x[::2].shape)
    token = dynamics.RHO_DOT_SIGN.set(sign)
    try:
        exact = locality.audit_jacobian(x)
        central = locality.numerical_jacobian(locality.rep_observables, x)
    finally:
        dynamics.RHO_DOT_SIGN.reset(token)
    assert exact.shape == (50, 14, 19)
    assert np.max(np.abs(exact - central)) < locality.FD_ORACLE_TOL
    # the fault enters through phi alone: it flips the derivative rows and nothing else
    plain = locality.audit_jacobian(x)
    derivative, others = [3, 4, 5, 9, 10, 11], [0, 1, 2, 6, 7, 8, 12, 13]
    assert np.array_equal(exact[:, derivative], sign * plain[:, derivative])
    assert np.array_equal(exact[:, others], plain[:, others])
