"""Basis conventions, Hamiltonian assembly and configuration round trips."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quniverse import core, locality, models
from shared_checks import shared_check

test_pauli_z_assigns_positive_to_excited = shared_check("pauli", seed=0, n=0)
test_hamiltonian_exactly_hermitian = shared_check("hamiltonian", seed=7, n=50)
test_interaction_marginals_are_zero = shared_check("hamiltonian", seed=8, n=20)
test_global_phase_shift_gives_equal_configuration = shared_check("gauge_and_round_trip", seed=9, n=20)
test_round_trip_preserves_coordinates = shared_check("gauge_and_round_trip", seed=0, n=100)
test_mean_energy_gauge_invariant = shared_check("gauge_and_round_trip", seed=10, n=100)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(
    moduli=arrays(float, 4, elements=st.floats(0.05, 1.0)),
    theta=arrays(float, 4, elements=st.floats(0.0, 2.0 * np.pi)),
    gaps=arrays(float, 2, elements=st.floats(1e-6, 1e6)),
    h=arrays(float, (3, 3), elements=st.floats(-1e6, 1e6)),
)
def test_representation_round_trip_returns_every_coordinate(moduli, theta, gaps, h):
    rep = core.ConfigRep(r=moduli / np.linalg.norm(moduli), theta=theta,
                         omega_a=gaps[0], omega_b=gaps[1], h=h)
    back = core.config_to_rep(core.rep_to_config(rep))
    assert np.max(np.abs(back.r - rep.r)) < 1e-15
    wrapped = np.mod(back.theta - rep.theta + np.pi, 2.0 * np.pi) - np.pi
    assert np.max(np.abs(wrapped)) < 1e-14
    assert back.to_array()[8:].tobytes() == rep.to_array()[8:].tobytes()


def test_pauli_cyclic_product():
    sx, sy, sz = (core.pauli(a) for a in "xyz")
    assert np.array_equal(sx @ sy, 1j * sz)
    assert np.array_equal(sy @ sz, 1j * sx)
    assert np.array_equal(sz @ sx, 1j * sy)


def test_pauli_unknown_axis():
    with pytest.raises(ValueError, match="axis"):
        core.pauli("w")


def test_bare_hamiltonian_is_diagonal():
    ham = core.HamiltonianSpec(1.0, 1.0, np.zeros((3, 3)))
    assert np.array_equal(ham.matrix, np.diag([0.0, 1.0, 1.0, 2.0]).astype(complex))


def test_dephasing_coupling_adds_parity_diagonal():
    # expanding sigma_z (x) sigma_z on the binary basis gives diag(1,-1,-1,1)
    omega_a, omega_b, delta = 0.9, 0.4, 0.7
    h = np.zeros((3, 3))
    h[2, 2] = delta
    expected = np.diag(
        [delta, omega_b - delta, omega_a - delta, omega_a + omega_b + delta]
    ).astype(complex)
    assert np.array_equal(core.HamiltonianSpec(omega_a, omega_b, h).matrix, expected)


def test_gap_validation():
    with pytest.raises(ValueError, match="omega_a"):
        core.HamiltonianSpec(0.0, 1.0, np.zeros((3, 3)))
    with pytest.raises(ValueError, match="omega_b"):
        core.HamiltonianSpec(1.0, -0.2, np.zeros((3, 3)))


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


def test_rep_to_config_assembles_one_hamiltonian(monkeypatch):
    calls = []
    assemble = core.hamiltonian_matrix
    monkeypatch.setattr(core, "hamiltonian_matrix", lambda *args: calls.append(args) or assemble(*args))
    core.rep_to_config(locality.sample_interior_rep(0))
    assert len(calls) == 1


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


def test_stacked_rep_check_requires_19_coordinates():
    x = np.append(locality._draw_chunk(44, range(1))[0], 0.5)
    with pytest.raises(ValueError, match=r"expected \(\.\.\., 19\) coordinates, got shape \(20,\)"):
        core.check_reps(x)


def test_stacked_state_check_requires_4_amplitudes():
    psi = np.full(5, 5**-0.5, dtype=complex)
    with pytest.raises(ValueError, match=r"expected \(\.\.\., 4\) amplitudes, got shape \(5,\)"):
        core.check_states(psi)


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
    hamiltonian = configs[0].hamiltonian
    psi = np.stack([c.state.psi for c in configs])
    values = core.mean_energies(psi, hamiltonian)
    assert values.shape == (20,)
    assert values.tolist() == [core.mean_energy(core.Configuration(c.state, hamiltonian)) for c in configs]
    assert values.tolist() == core.expectation(psi, hamiltonian.matrix).real.tolist()
    assert core.mean_energies(psi.reshape(4, 5, 4), hamiltonian).ravel().tolist() == values.tolist()


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), exponent=st.integers(-300, 150))
def test_mean_energy_of_any_scale_is_real_up_to_rounding(seed, exponent):
    # a spec's matrix is Hermitian exactly, so the imaginary part is rounding alone
    config = core.rep_to_config(locality.sample_interior_rep(seed))
    scale = 10.0**exponent
    ham = config.hamiltonian
    scaled = core.HamiltonianSpec(scale * ham.omega_a, scale * ham.omega_b, scale * ham.h)
    psi = config.state.psi
    value = core.expectation(psi, scaled.matrix)
    assert abs(value.imag) <= 1e-14 * scaled.frobenius_norm * np.vdot(psi, psi).real
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        energy = core.mean_energy(core.Configuration(config.state, scaled))
    assert energy == value.real
    assert abs(energy - scale * core.mean_energy(config)) <= 1e-14 * scaled.frobenius_norm


def test_cached_frobenius_norm_is_the_norm_of_the_matrix():
    for seed in range(200):
        ham = core.rep_to_config(locality.sample_interior_rep(seed)).hamiltonian
        assert abs(ham.frobenius_norm - np.linalg.norm(ham.matrix)) <= 4e-16 * ham.frobenius_norm
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert core.HamiltonianSpec(1e300, 1.0, np.zeros((3, 3))).frobenius_norm == np.inf


@pytest.mark.parametrize("scale", [1e-170, 1e-300])
def test_cached_frobenius_norm_of_tiny_parameters_does_not_underflow(scale):
    # the squares of these parameters underflow; the norm must not
    for seed in range(200):
        rep = locality.sample_interior_rep(seed)
        ham = core.HamiltonianSpec(scale * rep.omega_a, scale * rep.omega_b, scale * rep.h)
        reference = scale * np.linalg.norm(ham.matrix / scale)
        assert abs(ham.frobenius_norm - reference) <= 4e-16 * reference


def test_mean_energies_reject_an_overflowing_scale():
    huge = core.HamiltonianSpec(1e300, 1.0, np.zeros((3, 3)))
    with pytest.raises(ValueError, match=r"mean energy out of range: \|\|H\|\|_F \|psi\|\^2 overflows"):
        core.mean_energies(_valid_states(3, seed=42), huge)
    state = core.UniverseState(_valid_states(1, seed=42)[0])
    with pytest.raises(ValueError, match="mean energy out of range"):
        core.mean_energy(core.Configuration(state, huge))


def test_config_equal_rejects_gap_change():
    rep = locality.sample_interior_rep(3)
    a = core.rep_to_config(rep)
    b = core.rep_to_config(replace(rep, omega_a=rep.omega_a + 1e-3))
    assert not core.config_equal(a, b, tol=1e-6)


def test_config_equal_rejects_different_states():
    ham = core.HamiltonianSpec(1.0, 1.0, np.zeros((3, 3)))
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
        hamiltonian=core.HamiltonianSpec(1.0, 1.0, np.zeros((3, 3))),
    )
    assert core.mean_energy(config) == 0.0


def test_mean_energy_ground_state_with_dephasing():
    h = np.zeros((3, 3))
    h[2, 2] = 0.37
    config = core.Configuration(
        state=core.UniverseState(np.array([1, 0, 0, 0], dtype=complex)),
        hamiltonian=core.HamiltonianSpec(1.0, 1.0, h),
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


@pytest.mark.parametrize("owner, field", [
    ("rep", "r"), ("rep", "theta"), ("rep", "h"), ("state", "psi"), ("spec", "h"), ("spec", "matrix"),
])
def test_fields_are_frozen_copies_of_the_callers_arrays(owner, field):
    x = locality.sample_interior_rep(1).to_array()
    h = x[10:19].reshape(3, 3)
    psi = x[0:4] * np.exp(1j * x[4:8])
    built = {
        "rep": core.ConfigRep(r=x[0:4], theta=x[4:8], omega_a=x[8], omega_b=x[9], h=h),
        "state": core.UniverseState(psi),
        "spec": core.HamiltonianSpec(x[8], x[9], h),
    }[owner]
    value = getattr(built, field)
    before = value.copy()
    x[:] = 0.5
    psi[:] = 0.5
    assert np.array_equal(value, before)
    with pytest.raises(ValueError):
        value[(0,) * value.ndim] = 0.0
    with pytest.raises(ValueError):
        value.setflags(write=True)
    assert np.array_equal(value, before)


@pytest.mark.parametrize("build, message", [
    (lambda: core.UniverseState(np.full(3, 3**-0.5)), r"state must hold 4 amplitudes, got shape \(3,\)"),
    (lambda: core.HamiltonianSpec(1.0, 1.0, np.zeros((2, 3))), r"coupling table must be 3x3, got shape \(2, 3\)"),
    (lambda: core.ConfigRep(np.full(3, 3**-0.5), np.zeros(4), 1.0, 1.0, np.zeros((3, 3))),
     "moduli and phases must each hold 4 values"),
    (lambda: core.ConfigRep(np.full(4, 0.5), np.zeros(4), 1.0, 1.0, np.zeros((2, 2))),
     r"coupling table must be 3x3, got shape \(2, 2\)"),
    (lambda: core.ConfigRep.from_array(np.zeros(18)), r"expected 19 coordinates, got shape \(18,\)"),
    (lambda: locality.hyperspherical_forward(np.full(3, 3**-0.5)), r"expected 4 moduli, got shape \(3,\)"),
    (lambda: models.NumberConservingSpec(lam=complex(np.nan, 0.0), delta=0.4), "interaction parameters must be finite"),
], ids=["state-3-amplitudes", "spec-2x3-h", "rep-3-moduli", "rep-2x2-h", "rep-18-coordinates", "chart-3-moduli",
        "family-nan-lam"])
def test_values_refuse_malformed_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()
