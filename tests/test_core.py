"""Basis conventions, Hamiltonian assembly and configuration round trips."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from quniverse import core, locality
from shared_checks import shared_check

test_pauli_z_assigns_positive_to_excited = shared_check("pauli", seed=0, n=0)
test_hamiltonian_exactly_hermitian = shared_check("hamiltonian", seed=7, n=50)
test_interaction_marginals_are_zero = shared_check("hamiltonian", seed=8, n=20)
test_global_phase_shift_gives_equal_configuration = shared_check("gauge_and_round_trip", seed=9, n=20)
test_round_trip_preserves_coordinates = shared_check("gauge_and_round_trip", seed=0, n=100)
test_mean_energy_gauge_invariant = shared_check("gauge_and_round_trip", seed=10, n=100)


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_pauli_involution(axis):
    p = core.pauli(axis)
    assert np.array_equal(p @ p, np.eye(2, dtype=complex))
    assert np.array_equal(p, p.conj().T)


def test_pauli_cyclic_product():
    sx, sy, sz = (core.pauli(a) for a in "xyz")
    assert np.array_equal(sx @ sy, 1j * sz)
    assert np.array_equal(sy @ sz, 1j * sx)
    assert np.array_equal(sz @ sx, 1j * sy)


def test_pauli_unknown_axis():
    with pytest.raises(ValueError, match="axis"):
        core.pauli("w")


def test_bare_hamiltonian_is_diagonal():
    ham = core.assemble_hamiltonian(1.0, 1.0, np.zeros((3, 3)))
    assert np.array_equal(ham.matrix, np.diag([0.0, 1.0, 1.0, 2.0]).astype(complex))


def test_dephasing_coupling_adds_parity_diagonal():
    # expanding sigma_z (x) sigma_z on the binary basis gives diag(1,-1,-1,1)
    omega_a, omega_b, delta = 0.9, 0.4, 0.7
    h = np.zeros((3, 3))
    h[2, 2] = delta
    expected = np.diag(
        [delta, omega_b - delta, omega_a - delta, omega_a + omega_b + delta]
    ).astype(complex)
    assert np.array_equal(core.assemble_hamiltonian(omega_a, omega_b, h).matrix, expected)


def test_gap_validation():
    with pytest.raises(ValueError, match="omega_a"):
        core.assemble_hamiltonian(0.0, 1.0, np.zeros((3, 3)))
    with pytest.raises(ValueError, match="omega_b"):
        core.assemble_hamiltonian(1.0, -0.2, np.zeros((3, 3)))


def test_hamiltonian_matrix_broadcasts_bitwise():
    rng = np.random.default_rng(9)
    omega_a, omega_b = rng.uniform(0, 1, (2, 5, 3))
    h = rng.uniform(-1, 1, (5, 3, 3, 3))
    stack = core.hamiltonian_matrix(omega_a, omega_b, h)
    assert stack.shape == (5, 3, 4, 4)
    for idx in np.ndindex(5, 3):
        point = core.hamiltonian_matrix(omega_a[idx], omega_b[idx], h[idx])
        assert stack[idx].tobytes() == point.tobytes()
        # at most two nonzero terms meet in any entry, so the loop order is moot
        expected = np.diag([0.0, omega_b[idx], omega_a[idx], omega_a[idx] + omega_b[idx]])
        for j, k in np.ndindex(3, 3):
            pair = np.kron(core.pauli(core.AXES[j]), core.pauli(core.AXES[k]))
            expected = expected + h[idx][j, k] * pair
        assert np.array_equal(point, expected)


def test_rep_to_config_ground_state():
    rep = core.ConfigRep(
        r=[1.0, 0.0, 0.0, 0.0],
        theta=np.zeros(4),
        omega_a=1.0,
        omega_b=1.0,
        h=np.zeros((3, 3)),
    )
    config = core.rep_to_config(rep)
    assert np.array_equal(config.state.psi, np.array([1, 0, 0, 0], dtype=complex))


def test_rep_normalization_gate():
    with pytest.raises(ValueError, match="not normalized"):
        core.ConfigRep(
            r=[0.8, 0.0, 0.0, 0.0],
            theta=np.zeros(4),
            omega_a=1.0,
            omega_b=1.0,
            h=np.zeros((3, 3)),
        )


def test_state_normalization_within_1e12():
    for seed in range(100):
        config = core.rep_to_config(locality.sample_interior_rep(seed))
        assert abs(np.sum(np.abs(config.state.psi) ** 2) - 1.0) < 1e-12


def _valid_states(n, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    return psi / np.linalg.norm(psi, axis=-1, keepdims=True)


@pytest.mark.parametrize("fault", ["unnormalized", "nonfinite"])
def test_stacked_state_check_raises_what_one_state_raises(fault):
    psi = _valid_states(12, seed=40)
    core.check_states(psi)
    if fault == "unnormalized":
        psi[7] *= 1.1
    else:
        psi[7, 2] = np.inf
    with pytest.raises(ValueError) as one:
        core.UniverseState(psi[7])
    with pytest.raises(ValueError) as stacked:
        core.check_states(psi.reshape(3, 4, 4))
    assert str(stacked.value) == str(one.value)


@pytest.mark.parametrize("column, value", [
    (5, np.nan), (0, -0.1), (1, 2.0), (8, 0.0), (9, np.inf), (14, np.nan),
], ids=["phase-nan", "negative-modulus", "unnormalized", "zero-gap", "infinite-gap", "coupling-nan"])
def test_stacked_rep_check_raises_what_one_rep_raises(column, value):
    x = locality._draw_chunk(42, range(12))
    assert np.array_equal(core.check_reps(x), x)
    x[7, column] = value
    x[9, 8] = -1.0  # a later bad row never wins
    with pytest.raises(ValueError) as one:
        core.ConfigRep.from_array(x[7])
    with pytest.raises(ValueError) as stacked:
        core.check_reps(x.reshape(3, 4, 19))
    assert str(stacked.value) == str(one.value)


def test_stacked_rep_check_wraps_phases():
    x = locality._draw_chunk(43, range(3))
    shifted = x.copy()
    shifted[:, 4:8] += 2 * np.pi
    wrapped = core.check_reps(shifted)
    assert np.all((wrapped[:, 4:8] >= 0) & (wrapped[:, 4:8] < 2 * np.pi))
    assert np.max(np.abs(wrapped - x)) < 1e-14
    assert wrapped[1].tobytes() == core.ConfigRep.from_array(shifted[1]).to_array().tobytes()


def test_mean_energies_of_a_stack_equal_each_row():
    configs = [core.rep_to_config(locality.sample_interior_rep(s)) for s in range(20)]
    psi = np.stack([c.state.psi for c in configs])
    matrix = np.stack([c.hamiltonian.matrix for c in configs])
    values = core.mean_energies(psi, matrix)
    assert values.shape == (20,)
    assert values.tolist() == [core.mean_energy(c) for c in configs]


def test_mean_energies_reject_a_non_real_row():
    psi = _valid_states(5, seed=41)
    skew = np.diag([1j, 0, 0, 0])
    psi[:, 0] = 0.0
    psi[3, 0] = 1.0
    with pytest.raises(ValueError, match="mean energy came out non-real: 1j"):
        core.mean_energies(psi, skew)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6, 1e12])
def test_mean_energies_judge_the_imaginary_part_relative_to_the_scale(scale):
    # rounding grows with the energy; a skew part of 1e-9 of ||H|| is no rounding
    configs = [core.rep_to_config(locality.sample_interior_rep(s)) for s in range(20)]
    psi = np.stack([c.state.psi for c in configs])
    matrix = scale * np.stack([c.hamiltonian.matrix for c in configs])
    values = core.mean_energies(psi, matrix)
    assert np.allclose(values, scale * core.mean_energies(psi, matrix / scale), rtol=1e-14, atol=0)
    skewed = matrix.copy()
    skewed[7, 0, 0] += 1e-9j * np.linalg.norm(skewed[7])
    with pytest.raises(ValueError, match="mean energy came out non-real"):
        core.mean_energies(psi, skewed)


def test_cached_frobenius_norm_is_the_norm_of_the_matrix():
    for seed in range(200):
        ham = core.rep_to_config(locality.sample_interior_rep(seed)).hamiltonian
        assert abs(ham.frobenius_norm - np.linalg.norm(ham.matrix)) <= 4e-16 * ham.frobenius_norm
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert core.assemble_hamiltonian(1e300, 1.0, np.zeros((3, 3))).frobenius_norm == np.inf


def test_mean_energy_judges_with_the_cached_norm_as_without_it():
    configs = [core.rep_to_config(locality.sample_interior_rep(s)) for s in range(20)]
    for config in configs:
        psi, matrix = config.state.psi, config.hamiltonian.matrix
        assert core.mean_energy(config) == float(core.mean_energies(psi, matrix))
    huge = core.Configuration(configs[0].state, core.assemble_hamiltonian(1e300, 1.0, np.zeros((3, 3))))
    with pytest.raises(ValueError, match="mean energy out of range"):
        core.mean_energy(huge)


def test_mean_energies_reject_an_overflowing_scale():
    matrix = np.diag([1e300, 0.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="mean energy out of range"):
        core.mean_energies(_valid_states(3, seed=42), matrix)


def test_config_equal_rejects_gap_change():
    rep = locality.sample_interior_rep(3)
    a = core.rep_to_config(rep)
    b = core.rep_to_config(replace(rep, omega_a=rep.omega_a + 1e-3))
    assert not core.config_equal(a, b, tol=1e-6)


def test_config_equal_rejects_different_states():
    ham = core.assemble_hamiltonian(1.0, 1.0, np.zeros((3, 3)))
    bell = core.Configuration(
        state=core.UniverseState(np.array([1, 0, 0, 1]) / np.sqrt(2)), hamiltonian=ham
    )
    product = core.Configuration(
        state=core.UniverseState(np.array([1, 0, 0, 0], dtype=complex)), hamiltonian=ham
    )
    assert not core.config_equal(bell, product, tol=1e-6)


def test_mean_energy_ground_state_zero():
    config = core.Configuration(
        state=core.UniverseState(np.array([1, 0, 0, 0], dtype=complex)),
        hamiltonian=core.assemble_hamiltonian(1.0, 1.0, np.zeros((3, 3))),
    )
    assert core.mean_energy(config) == 0.0


def test_mean_energy_ground_state_with_dephasing():
    h = np.zeros((3, 3))
    h[2, 2] = 0.37
    config = core.Configuration(
        state=core.UniverseState(np.array([1, 0, 0, 0], dtype=complex)),
        hamiltonian=core.assemble_hamiltonian(1.0, 1.0, h),
    )
    assert abs(core.mean_energy(config) - 0.37) < 1e-15


def test_serialization_order():
    rep = core.ConfigRep(
        r=[0.5, 0.5, 0.5, 0.5],
        theta=[0.1, 0.2, 0.3, 0.4],
        omega_a=0.9,
        omega_b=0.8,
        h=np.arange(9, dtype=float).reshape(3, 3) / 10.0,
    )
    flat = rep.to_array()
    assert flat.shape == (19,)
    assert len(core.COORD_NAMES) == 19
    assert core.COORD_NAMES.index("h_xy") == 11
    assert flat[11] == rep.h[0, 1]
    assert flat[8] == 0.9 and flat[9] == 0.8
    again = core.ConfigRep.from_array(flat)
    assert np.array_equal(again.to_array(), flat)


def test_values_are_frozen():
    rep = locality.sample_interior_rep(1)
    with pytest.raises(ValueError):
        rep.r[0] = 0.0
    config = core.rep_to_config(rep)
    with pytest.raises(ValueError):
        config.state.psi[0] = 0.0
    with pytest.raises(ValueError):
        config.hamiltonian.matrix[0, 0] = 1.0
