"""The excitation-conserving family and its closed-form oracles."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quniverse import core, dynamics, iel, models
from quniverse.verification import random_control_case, random_spec
from shared_checks import shared_check

test_family_commutes_with_number_operator = shared_check("number_conservation", seed=1, n=25)
test_control_rho_dot_matches_general_machinery = shared_check("control_closed_forms", seed=3, n=50)
test_mean_energy_matches_general_machinery = shared_check("control_closed_forms", seed=9, n=50)
test_total_sits_delta_below_mean_energy = shared_check("control_closed_forms", seed=8, n=50)
test_no_double_excitation_block_is_invariant = shared_check("excitation_block", seed=10, n=10)
test_rc_energies_match_general_machinery = shared_check("control_closed_forms", seed=6, n=50)


def _ladder_oracle(lam: complex, delta: float) -> np.ndarray:
    """Interaction built directly from |10><01| and the parity diagonal."""
    matrix = np.zeros((4, 4), dtype=complex)
    matrix[2, 1] = lam
    matrix[1, 2] = np.conj(lam)
    matrix += delta * np.diag([1.0, -1.0, -1.0, 1.0])
    return matrix


def test_h_num_pure_dephasing():
    table = models.h_num(models.NumberConservingSpec(lam=0.0, delta=0.4))
    expected = np.zeros((3, 3))
    expected[2, 2] = 0.4
    assert np.array_equal(table, expected)


def test_h_num_real_exchange():
    table = models.h_num(models.NumberConservingSpec(lam=0.6, delta=0.4))
    assert table[0, 0] == 0.3 and table[1, 1] == 0.3
    assert table[0, 1] == 0.0 and table[1, 0] == 0.0
    assert table[2, 2] == 0.4
    assert np.all(table[[0, 1], 2] == 0.0) and np.all(table[2, [0, 1]] == 0.0)


def test_h_num_matches_ladder_oracle_exactly():
    rng = np.random.default_rng(0)
    for _ in range(25):
        spec = random_spec(rng)
        assembled = core.hamiltonian_matrix(0.0, 0.0, models.h_num(spec))
        assert np.array_equal(assembled, _ladder_oracle(spec.lam, spec.delta))


def test_exchange_matrix_element():
    lam = 0.83 + 0.41j
    ham = models.number_conserving_hamiltonian(
        models.NumberConservingSpec(lam=lam, delta=0.64), 1.0, 0.85
    )
    assert ham.matrix[2, 1] == lam
    assert ham.matrix[1, 2] == np.conj(lam)


def test_number_operator_counts_excitations():
    number_op = models.number_operator()
    assert np.array_equal(number_op, np.diag([0.0, 1.0, 1.0, 2.0]))
    ground = np.array([1, 0, 0, 0], dtype=complex)
    doubly = np.array([0, 0, 0, 1], dtype=complex)
    assert np.vdot(ground, number_op @ ground) == 0.0
    assert np.vdot(doubly, number_op @ doubly) == 2.0


def test_pure_dephasing_moves_no_population():
    rng = np.random.default_rng(2)
    state = random_control_case(rng)
    spec = models.NumberConservingSpec(lam=0.0, delta=0.8)
    for subsystem in dynamics.SUBSYSTEMS:
        rho_dot = models.control_rho_dot_analytic(state, spec, 1.0, 0.85, subsystem)
        assert rho_dot[0, 0] == 0.0 and rho_dot[1, 1] == 0.0


def test_control_rho_dot_swap_symmetry():
    # B follows from A by swapping the subsystem labels with lam -> conj(lam)
    rng = np.random.default_rng(4)
    state = random_control_case(rng)
    spec = random_spec(rng)
    swapped_state = models.ControlCaseState(
        psi0=state.psi0, psi_a=state.psi_b, psi_b=state.psi_a
    )
    swapped_spec = models.NumberConservingSpec(lam=np.conj(spec.lam), delta=spec.delta)
    direct = models.control_rho_dot_analytic(state, spec, 0.9, 0.6, "B")
    mirrored = models.control_rho_dot_analytic(swapped_state, swapped_spec, 0.6, 0.9, "A")
    assert np.max(np.abs(direct - mirrored)) < 1e-15


def test_rc_energies_bare_limit():
    rng = np.random.default_rng(5)
    state = random_control_case(rng)
    spec = models.NumberConservingSpec(lam=0.0, delta=0.0)
    energies = models.rc_energies_analytic(state, spec, 0.9, 0.6)
    assert abs(energies.u_a - abs(state.psi_a) ** 2 * 0.9) < 1e-15
    assert abs(energies.u_b - abs(state.psi_b) ** 2 * 0.6) < 1e-15


def test_rc_energies_undefined_at_vanishing_amplitude():
    state = models.ControlCaseState(psi0=1.0, psi_a=0.0, psi_b=0.0)
    with pytest.raises(iel.RCUndefinedError):
        models.rc_energies_analytic(state, random_spec(np.random.default_rng(7)), 1.0, 1.0)


def test_mean_energy_of_vacuum_is_delta():
    state = models.ControlCaseState(psi0=1.0, psi_a=0.0, psi_b=0.0)
    spec = models.NumberConservingSpec(lam=0.3 + 0.1j, delta=0.64)
    assert models.mean_energy_analytic(state, spec, 1.0, 0.85) == 0.64


def test_offset_constant_along_trajectories():
    rng = np.random.default_rng(11)
    for _ in range(10):
        state = random_control_case(rng)
        spec = random_spec(rng)
        omega_a, omega_b = rng.uniform(0.1, 1.0, 2)
        ham = models.number_conserving_hamiltonian(spec, omega_a, omega_b)
        states = dynamics.trajectory(
            models.embed_control_state(state), ham, np.linspace(0.0, 20.0, 50)
        )
        means = []
        for psi in states:
            evolved = models.ControlCaseState(psi0=psi[0], psi_a=psi[2], psi_b=psi[1])
            energies = models.rc_energies_analytic(evolved, spec, omega_a, omega_b)
            mean = models.mean_energy_analytic(evolved, spec, omega_a, omega_b)
            means.append(mean)
            assert abs(energies.u_total - mean + spec.delta) < 1e-10
        assert np.max(means) - np.min(means) < 1e-12


def test_control_state_validation():
    with pytest.raises(ValueError, match="not normalized"):
        models.ControlCaseState(psi0=1.0, psi_a=0.5, psi_b=0.0)


def test_embedding_order():
    state = models.ControlCaseState(psi0=0.6, psi_a=0.8j, psi_b=0.0)
    embedded = models.embed_control_state(state)
    assert embedded.psi[0] == 0.6
    assert embedded.psi[1] == 0.0
    assert embedded.psi[2] == 0.8j
    assert embedded.psi[3] == 0.0


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(
    parts=arrays(float, (2, 4), elements=st.floats(-1.0, 1.0)),
    interaction=arrays(float, 3, elements=st.floats(-2.0, 2.0)),
    gaps=arrays(float, 2, elements=st.floats(1e-3, 2.0)),
    t_max=st.floats(0.0, 50.0),
)
def test_trajectory_conserves_the_excitation_number(parts, interaction, gaps, t_max):
    psi = parts[0] + 1j * parts[1]
    norm = np.linalg.norm(psi)
    assume(norm > 1e-3)
    spec = models.NumberConservingSpec(lam=complex(*interaction[:2]), delta=interaction[2])
    hamiltonian = models.number_conserving_hamiltonian(spec, *gaps)
    states = dynamics.trajectory(psi / norm, hamiltonian, np.linspace(0.0, t_max, 64))
    numbers = core.expectation(states, models.number_operator()).real
    assert np.max(np.abs(numbers - numbers[0])) < 1e-12
