"""Evolution, reduced states and their derivatives against independent routes."""

from dataclasses import replace

import numpy as np
import pytest

from quniverse import core, dynamics, locality
from quniverse.verification import random_control_case


def _random_config(seed):
    return core.rep_to_config(locality.sample_interior_rep(seed))


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


def test_norm_and_energy_conserved_along_trajectory():
    for seed in range(5):
        config = _random_config(seed)
        times = np.linspace(0.0, 50.0, 1000)
        states = dynamics.trajectory(config.state, config.hamiltonian, times)
        norms = np.linalg.norm(states, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        energies = np.real(
            np.einsum("ti,ij,tj->t", states.conj(), config.hamiltonian.matrix, states)
        )
        assert np.max(np.abs(energies - energies[0])) < 1e-12


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


def test_reduced_states_are_legal_density_matrices():
    rng = np.random.default_rng(5)
    for _ in range(100):
        config = core.rep_to_config(locality.sample_interior_rep(rng))
        for subsystem in dynamics.SUBSYSTEMS:
            reduced = dynamics.partial_trace(config.state, subsystem)
            assert np.max(np.abs(reduced - reduced.conj().T)) < 1e-12
            assert abs(np.trace(reduced).real - 1.0) < 1e-12
            assert np.min(np.linalg.eigvalsh(reduced)) > -1e-12


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


def test_rho_dot_is_traceless_hermitian():
    rng = np.random.default_rng(7)
    for _ in range(50):
        config = core.rep_to_config(locality.sample_interior_rep(rng))
        for subsystem in dynamics.SUBSYSTEMS:
            rho_dot = dynamics.rho_dot_local(config, subsystem)
            assert abs(np.trace(rho_dot)) < 1e-12
            assert np.max(np.abs(rho_dot - rho_dot.conj().T)) < 1e-12


def test_rho_dot_matches_finite_difference_oracle():
    rng = np.random.default_rng(8)
    for _ in range(100):
        config = core.rep_to_config(locality.sample_interior_rep(rng))
        for subsystem in dynamics.SUBSYSTEMS:
            algebraic = dynamics.rho_dot_local(config, subsystem)
            numeric = dynamics.finite_difference_rho_dot(config, subsystem, step=1e-6)
            assert np.max(np.abs(algebraic - numeric)) < 1e-8


def test_extended_state_of_stationary_ground_state_is_zero():
    config = core.Configuration(
        state=core.UniverseState(np.array([1, 0, 0, 0], dtype=complex)),
        hamiltonian=core.assemble_hamiltonian(1.0, 1.0, np.zeros((3, 3))),
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


def test_extended_state_relabeling_symmetry():
    # swapping the subsystems means swapping |01> with |10>, the gaps, and
    # transposing the coupling table
    rng = np.random.default_rng(11)
    for _ in range(25):
        rep = locality.sample_interior_rep(rng)
        swapped = core.ConfigRep(
            r=rep.r[[0, 2, 1, 3]],
            theta=rep.theta[[0, 2, 1, 3]],
            omega_a=rep.omega_b,
            omega_b=rep.omega_a,
            h=rep.h.T,
        )
        for ours, theirs in (("A", "B"), ("B", "A")):
            one = dynamics.extended_state(core.rep_to_config(rep), ours)
            two = dynamics.extended_state(core.rep_to_config(swapped), theirs)
            assert np.max(np.abs(one.to_array() - two.to_array())) < 1e-12


def test_extended_state_rejects_illegal_population():
    with pytest.raises(ValueError, match="population"):
        dynamics.ExtendedStateRep(0.0, 0.0, 1.5, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="coherence"):
        dynamics.ExtendedStateRep(0.9, 0.0, 0.5, 0.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "bad_row",
    [(0.0, 0.0, 1.5, 0.0, 0.0, 0.0), (0.9, 0.0, 0.5, 0.0, 0.0, 0.0)],
    ids=["population", "coherence"],
)
def test_stacked_extended_check_raises_what_one_record_raises(bad_row):
    configs = [_random_config(seed) for seed in range(8)]
    psi = np.stack([c.state.psi for c in configs])
    matrix = np.stack([c.hamiltonian.matrix for c in configs])
    coords = dynamics.extended_coordinates(*dynamics.rho_and_derivative(psi, matrix), "A")
    dynamics.check_extended_coordinates(coords)
    coords[5] = bad_row
    with pytest.raises(ValueError) as one:
        dynamics.ExtendedStateRep(*bad_row)
    with pytest.raises(ValueError) as stacked:
        dynamics.check_extended_coordinates(coords.reshape(2, 4, 6))
    assert str(stacked.value) == str(one.value)


def test_extended_coordinates_are_column_one_of_the_partial_traces():
    for seed in range(20):
        config = _random_config(seed)
        rho, rho_dot = dynamics.rho_and_derivative(config.state.psi, config.hamiltonian.matrix)
        for subsystem in dynamics.SUBSYSTEMS:
            (c, p1), (cdot, p1dot) = (
                dynamics.partial_trace(m, subsystem)[:, 1] for m in (rho, rho_dot)
            )
            expected = [c.real, c.imag, p1.real, cdot.real, cdot.imag, p1dot.real]
            coords = dynamics.extended_coordinates(rho, rho_dot, subsystem)
            assert coords.tolist() == expected


def test_extended_state_formula_broadcasts_bitwise():
    configs = [_random_config(seed) for seed in range(30)]
    psi = np.stack([c.state.psi for c in configs]).reshape(5, 6, 4)
    matrix = np.stack([c.hamiltonian.matrix for c in configs]).reshape(5, 6, 4, 4)
    rho, rho_dot = dynamics.rho_and_derivative(psi, matrix)
    assert rho.shape == rho_dot.shape == (5, 6, 4, 4)
    for subsystem in dynamics.SUBSYSTEMS:
        stacked = dynamics.extended_coordinates(rho, rho_dot, subsystem)
        assert stacked.shape == (5, 6, 6)
        for flat, config in enumerate(configs):
            idx = np.unravel_index(flat, (5, 6))
            point_rho, point_rho_dot = dynamics.rho_and_derivative(
                config.state.psi, config.hamiltonian.matrix
            )
            assert rho[idx].tobytes() == point_rho.tobytes()
            assert rho_dot[idx].tobytes() == point_rho_dot.tobytes()
            point = dynamics.extended_state(config, subsystem).to_array()
            assert stacked[idx].tobytes() == point.tobytes()


def test_extended_coordinates_of_real_matrices():
    # a real rho must be read as complex, not reinterpreted bytewise
    rho = np.diag([0.25, 0.25, 0.25, 0.25])
    rho[0, 2] = rho[2, 0] = 0.1
    coords = dynamics.extended_coordinates(rho, np.zeros((4, 4)), "A")
    assert np.array_equal(coords, [0.1, 0.0, 0.5, 0.0, 0.0, 0.0])
