"""Energy laws: the bare and rotating-coherence assignments and their audit."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quniverse import core, dynamics, iel, locality, models
from quniverse.verification import random_control_case, random_uncoupled_config
from shared_checks import shared_check

test_rc_frequency_recovers_gap_without_interaction = shared_check("uncoupled", seed=0, n=25)
test_rc_equals_bare_without_interaction = shared_check("uncoupled", seed=1, n=25)
test_audit_uncoupled_rc_has_zero_defect = shared_check("uncoupled", seed=7, n=25)
test_audit_control_case_defect_is_minus_dephasing = shared_check("control_offset", seed=0, n=25)
test_audit_bare_defect_is_minus_interaction_average = shared_check("bare_defect", seed=8, n=25)


def _control(seed, lam=0.83 + 0.41j, delta=0.64, omega_a=1.0, omega_b=0.85):
    state = random_control_case(np.random.default_rng(seed))
    spec = models.NumberConservingSpec(lam=lam, delta=delta)
    return state, spec, models.control_configuration(state, spec, omega_a, omega_b)


def test_rc_frequency_pure_rotation():
    # cdot = i * lam * c rotates the phasor at rate lam
    ext = dynamics.ExtendedStateRep(
        re_c=0.2, im_c=0.1, p1=0.5, re_cdot=-0.7 * 0.1, im_cdot=0.7 * 0.2, p1dot=0.0
    )
    assert abs(iel.rc_frequency(ext) - 0.7) < 1e-14


def test_rc_frequency_radial_motion_is_zero():
    ext = dynamics.ExtendedStateRep(
        re_c=0.2, im_c=0.1, p1=0.5, re_cdot=0.6, im_cdot=0.3, p1dot=0.0
    )
    assert iel.rc_frequency(ext) == 0.0


def test_rc_frequency_cutoff():
    ext = dynamics.ExtendedStateRep(
        re_c=1e-13, im_c=0.0, p1=0.5, re_cdot=0.0, im_cdot=1.0, p1dot=0.0
    )
    with pytest.raises(iel.RCUndefinedError):
        iel.rc_frequency(ext)


def test_rc_control_case_frequency_formula():
    state, spec, config = _control(2)
    ext = dynamics.extended_state(config, "A")
    expected = (
        config.hamiltonian.omega_a
        - 2.0 * spec.delta
        + np.real(spec.lam * state.psi_b / state.psi_a)
    )
    assert abs(iel.rc_frequency(ext) - expected) < 1e-12


def test_rc_undefined_on_zero_coherence_state():
    ham = core.HamiltonianSpec(1.0, 0.85, np.zeros((3, 3)))
    bell = core.Configuration(
        state=core.UniverseState(np.array([1, 0, 0, 1]) / np.sqrt(2)), hamiltonian=ham
    )
    with pytest.raises(iel.RCUndefinedError) as err:
        iel.evaluate_law("rc", bell)
    assert err.value.subsystem == "A"


def test_unknown_law_is_rejected():
    config = random_uncoupled_config(np.random.default_rng(3))
    with pytest.raises(ValueError, match="unknown law"):
        iel.evaluate_law("alicki", config)


def test_registry_is_open_but_write_once():
    try:
        def zeros(psi, ham):
            return np.zeros(psi.shape[:-1]), np.zeros(psi.shape[:-1])

        iel.register_law("half-bare", zeros)
        config = random_uncoupled_config(np.random.default_rng(4))
        assert iel.evaluate_law("half-bare", config) == iel.EnergyPair(0.0, 0.0)
        with pytest.raises(ValueError, match="already registered"):
            iel.register_law("half-bare", lambda psi, ham: (1.0, 1.0))
        assert iel.LAWS["half-bare"] is zeros
    finally:
        iel.LAWS.pop("half-bare", None)


_unit = st.floats(-1.0, 1.0, allow_subnormal=False)


@settings(derandomize=True, deadline=None, database=None)
@given(
    parts=arrays(float, st.tuples(st.integers(1, 12), st.just(8)), elements=_unit),
    gaps=st.tuples(st.floats(0.01, 3.0), st.floats(0.01, 3.0)),
    couplings=arrays(float, (3, 3), elements=_unit),
)
@pytest.mark.parametrize("law", ["bare", "rc"])
def test_stacked_law_equals_pointwise_evaluation(law, parts, gaps, couplings):
    # float draws hit exact zeros often, so undefined rc rows are covered too
    psi = parts[:, :4] + 1j * parts[:, 4:]
    norms = np.linalg.norm(psi, axis=-1)
    assume(np.all(norms > 1e-3))
    psi /= norms[:, None]
    ham = core.HamiltonianSpec(gaps[0], gaps[1], couplings)
    u_a, u_b = iel.LAWS[law](psi, ham)
    assert u_a.shape == u_b.shape == psi.shape[:1]
    for row, stacked in zip(psi, zip(u_a.tolist(), u_b.tolist())):
        config = core.Configuration(state=core.UniverseState(row), hamiltonian=ham)
        try:
            pair = iel.evaluate_law(law, config)
        except iel.RCUndefinedError as exc:
            undefined = [s for s, u in zip(dynamics.SUBSYSTEMS, stacked) if np.isnan(u)]
            assert undefined and exc.subsystem == undefined[0]
        else:
            assert [repr(u) for u in stacked] == [repr(pair.u_a), repr(pair.u_b)]


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(
    parts=arrays(float, st.tuples(st.integers(1, 12), st.just(8)), elements=_unit),
    gaps=st.tuples(st.floats(0.01, 3.0), st.floats(0.01, 3.0)),
    couplings=arrays(float, (3, 3), elements=_unit),
)
def test_bare_law_equals_gap_times_partial_trace_population(parts, gaps, couplings):
    # float draws hit exact zeros often, so zero amplitudes are covered too
    psi = parts[:, :4] + 1j * parts[:, 4:]
    norms = np.linalg.norm(psi, axis=-1)
    assume(np.all(norms > 1e-3))
    psi /= norms[:, None]
    ham = core.HamiltonianSpec(gaps[0], gaps[1], couplings)
    energies = iel.LAWS["bare"](psi, ham)
    for omega, subsystem, stacked in zip(gaps, dynamics.SUBSYSTEMS, energies):
        oracle = [omega * dynamics.partial_trace(row, subsystem)[1, 1].real for row in psi]
        assert [repr(u) for u in stacked.tolist()] == [repr(float(u)) for u in oracle]


@pytest.mark.parametrize("law", ["bare", "rc"])
def test_effective_hamiltonian_population_is_the_partial_traces(law):
    for row in locality._draw_chunk(21, range(50)):
        config = core.rep_to_config(core.ConfigRep.from_array(row))
        pair = iel.evaluate_law(law, config)
        for subsystem in dynamics.SUBSYSTEMS:
            p1 = float(dynamics.partial_trace(config.state, subsystem)[1, 1].real)
            observable = iel.effective_hamiltonian(law, config, subsystem)
            assert repr(float(observable[1, 1].real)) == repr(pair.for_subsystem(subsystem) / p1)


def test_effective_hamiltonian_of_bare_law_reads_populations_unvalidated():
    # within NORM_TOL of 1, yet with a pure reduced state |c|^2 exceeds
    # p1 (1 - p1) by 2.5e-10, which the extended-state records refuse
    psi = np.full(4, 0.5 * np.sqrt(1.0 + 5e-10), dtype=complex)
    config = core.Configuration(
        state=core.UniverseState(psi),
        hamiltonian=core.HamiltonianSpec(1.0, 0.85, np.zeros((3, 3))),
    )
    with pytest.raises(ValueError, match="positive 2x2"):
        dynamics.extended_state(config, "A")
    for subsystem, omega in zip(dynamics.SUBSYSTEMS, (1.0, 0.85)):
        observable = iel.effective_hamiltonian("bare", config, subsystem)
        assert np.array_equal(observable, np.diag([0.0, omega]))


def test_effective_hamiltonian_of_bare_law_is_bare():
    rng = np.random.default_rng(5)
    for _ in range(10):
        config = random_uncoupled_config(rng)
        for subsystem, omega in zip(
            dynamics.SUBSYSTEMS, (config.hamiltonian.omega_a, config.hamiltonian.omega_b)
        ):
            observable = iel.effective_hamiltonian("bare", config, subsystem)
            assert np.max(np.abs(observable - np.diag([0.0, omega]))) < 1e-12


def test_effective_hamiltonian_rc_uncoupled_is_bare():
    rng = np.random.default_rng(12)
    for _ in range(10):
        config = random_uncoupled_config(rng)
        for subsystem, omega in zip(
            dynamics.SUBSYSTEMS, (config.hamiltonian.omega_a, config.hamiltonian.omega_b)
        ):
            observable = iel.effective_hamiltonian("rc", config, subsystem)
            assert np.max(np.abs(observable - np.diag([0.0, omega]))) < 1e-10


def test_effective_hamiltonian_rc_control_case():
    state, spec, config = _control(6)
    ext = dynamics.extended_state(config, "A")
    observable = iel.effective_hamiltonian("rc", config, "A")
    assert np.max(np.abs(observable - np.diag([0.0, iel.rc_frequency(ext)]))) < 1e-12


def test_effective_hamiltonian_reads_only_its_own_subsystem():
    # A carries a coherence, B sits in |0> and has none: the rc law is
    # defined for A alone, and A's observable must not depend on B
    config = core.Configuration(
        state=core.UniverseState(np.array([0.6, 0.0, 0.8, 0.0], dtype=complex)),
        hamiltonian=core.HamiltonianSpec(1.0, 0.85, np.zeros((3, 3))),
    )
    assert iel.rc_frequency(dynamics.extended_state(config, "A")) == 1.0
    observable = iel.effective_hamiltonian("rc", config, "A")
    assert np.max(np.abs(observable - np.diag([0.0, 1.0]))) < 1e-12
    with pytest.raises(iel.RCUndefinedError, match="subsystem B") as refused:
        iel.effective_hamiltonian("rc", config, "B")
    assert refused.value.subsystem == "B"
    with pytest.raises(iel.RCUndefinedError, match="subsystem B"):
        iel.evaluate_law("rc", config)


def test_effective_hamiltonian_undefined_at_zero_population():
    config = core.Configuration(
        state=core.UniverseState(np.array([1, 0, 0, 0], dtype=complex)),
        hamiltonian=core.HamiltonianSpec(1.0, 1.0, np.zeros((3, 3))),
    )
    with pytest.raises(iel.UndefinedObservableError, match="population"):
        iel.effective_hamiltonian("bare", config, "A")


@settings(derandomize=True, deadline=None, database=None)
@given(
    parts=arrays(float, st.tuples(st.integers(1, 12), st.just(8)), elements=_unit),
    gaps=st.tuples(st.floats(0.01, 3.0), st.floats(0.01, 3.0)),
    couplings=arrays(float, (3, 3), elements=_unit),
    angle=st.floats(0.0, 2.0 * np.pi),
)
def test_laws_are_gauge_invariant(parts, gaps, couplings, angle):
    # a global phase changes no reduced state, so no law may see it
    psi = parts[:, :4] + 1j * parts[:, 4:]
    norms = np.linalg.norm(psi, axis=-1)
    assume(np.all(norms > 1e-3))
    psi /= norms[:, None]
    ham = core.HamiltonianSpec(gaps[0], gaps[1], couplings)
    records = dynamics.pure_extended_coordinates(psi, (ham.matrix @ psi[..., None])[..., 0])
    # Im(cdot / c) amplifies rounding by 1 / |c|, a conditioning of the rc
    # law and not a gauge dependence, so below |c| = 1e-2 its rows are held
    # to being defined alike
    conditioned = np.hypot(records[..., 0], records[..., 1]) >= 1e-2
    for name, law in iel.LAWS.items():
        pairs = zip(law(psi, ham), law(np.exp(1j * angle) * psi, ham), conditioned.T)
        for one, two, well in pairs:
            undefined = np.isnan(one)
            assert np.array_equal(np.isnan(two), undefined)
            held = ~undefined & (well if name == "rc" else True)
            assert np.all(np.abs(one - two)[held] <= 1e-12)


def test_rc_depends_only_on_extended_states():
    # shifting delta by s while raising both gaps by 2s leaves both extended
    # states unchanged but moves the mean energy by s: a configuration
    # collision that the rc law cannot distinguish
    state, spec, config = _control(10, delta=0.2, omega_a=0.9, omega_b=0.7)
    s = 0.3
    shifted_spec = models.NumberConservingSpec(lam=spec.lam, delta=spec.delta + s)
    shifted = models.control_configuration(
        state, shifted_spec, 0.9 + 2 * s, 0.7 + 2 * s
    )
    for subsystem in dynamics.SUBSYSTEMS:
        one = dynamics.extended_state(config, subsystem).to_array()
        two = dynamics.extended_state(shifted, subsystem).to_array()
        assert np.max(np.abs(one - two)) < 1e-12
    pair = iel.evaluate_law("rc", config)
    pair_shifted = iel.evaluate_law("rc", shifted)
    assert abs(pair.u_a - pair_shifted.u_a) < 1e-12
    assert abs(pair.u_b - pair_shifted.u_b) < 1e-12
    assert abs(core.mean_energy(shifted) - core.mean_energy(config) - s) < 1e-12


@pytest.mark.parametrize("delta", [0.0, 0.64])
def test_audit_constant_along_control_trajectories(delta):
    state, spec, config = _control(11, delta=delta)
    times = np.linspace(0.0, 20.0, 200)
    states = dynamics.trajectory(config.state, config.hamiltonian, times)
    defects = []
    for psi in states:
        snapshot = core.Configuration(
            state=core.UniverseState(psi), hamiltonian=config.hamiltonian
        )
        defects.append(iel.consistency_audit("rc", snapshot).defect)
    defects = np.array(defects)
    assert np.max(np.abs(defects + delta)) < 1e-10
