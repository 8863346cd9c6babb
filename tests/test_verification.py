"""The stacked self-checks against the per-sample draws and wrappers they replace."""

import numpy as np
import pytest

from quniverse import core, dynamics, iel, locality, models, verification
from quniverse.verification import random_control_case, random_spec, random_uncoupled_config


class _CountingGenerator(np.random.Generator):
    """``default_rng(seed)`` that counts its ``normal`` and ``random`` calls."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.calls = {"normal": 0, "random": 0}

    def normal(self, *args, **kwargs):
        self.calls["normal"] += 1
        return super().normal(*args, **kwargs)

    def random(self, *args, **kwargs):
        self.calls["random"] += 1
        return super().random(*args, **kwargs)


#: one sample's generator calls in each check's per-sample loop, in loop order
SEQUENTIAL_DRAWS = {
    "gauge_and_round_trip": lambda rng: (locality.sample_interior_rep(rng), rng.uniform(0, 2 * np.pi)),
    "reduced_states": locality.sample_interior_rep,
    "relabeling": locality.sample_interior_rep,
    "number_conservation": lambda rng: (random_spec(rng), rng.uniform(0.2, 1.5)),
    "control_closed_forms": lambda rng: (random_control_case(rng), random_spec(rng), rng.uniform(0.1, 1.0, 2)),
    "uncoupled": random_uncoupled_config,
    "control_offset": lambda rng: (random_control_case(rng), random_spec(rng), rng.uniform(0, 2 * np.pi)),
    "bare_defect": locality.sample_interior_rep,
}

#: at seed 30 both random_control_case and random_uncoupled_config reject draws
REJECTING_SEED = 30


def _reject_low_first_coordinates(monkeypatch):
    """Make the interior sampler reject every draw whose first unit double is below 0.1."""
    interior = locality._interior

    def rejecting(u):
        low = u[:, 0] < 0.1
        return interior(u) & ~low

    monkeypatch.setattr(locality, "_interior", rejecting)


@pytest.mark.parametrize("draws", ["seed 0", "rejecting seed", "interior rejections"])
@pytest.mark.parametrize("name", sorted(SEQUENTIAL_DRAWS))
def test_each_check_leaves_the_generator_where_its_sequential_draws_do(name, draws, monkeypatch):
    seed = REJECTING_SEED if draws == "rejecting seed" else 0
    if draws == "interior rejections":
        _reject_low_first_coordinates(monkeypatch)
    n = verification.CHECKS[name][2]
    reference = _CountingGenerator(seed)
    for _ in range(n):
        SEQUENTIAL_DRAWS[name](reference)
    rng = np.random.default_rng(seed)
    verification.run_check(name, rng)
    assert rng.bit_generator.state == reference.bit_generator.state
    if draws == "interior rejections" and name not in ("number_conservation", "control_closed_forms",
                                                      "control_offset"):
        assert reference.calls["random"] > n
    if draws == "rejecting seed" and name in ("control_closed_forms", "control_offset"):
        assert reference.calls["normal"] > 2 * n
    if draws == "rejecting seed" and name == "uncoupled":
        assert reference.calls["random"] > n


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float if np.isrealobj(value) else complex).tobytes()


def _assert_wrappers_are_rows(configs, psi, matrices, gaps):
    """Each per-configuration wrapper at ``configs[i]`` gives row ``i`` of its stacked kernel."""
    records = dynamics._records(psi, matrices)
    mean_h = core.expectation(psi, matrices).real
    laws = {"bare": np.stack(iel._bare_energies(records, gaps[:, 0], gaps[:, 1]), axis=-1),
            "rc": np.stack(iel._rc_energies(records), axis=-1)}
    reduced_derivatives = dynamics._rho_dot_matrices(records)
    for i, config in enumerate(configs):
        assert _bits(config.state.psi) == _bits(psi[i])
        assert _bits(config.hamiltonian.matrix) == _bits(matrices[i])
        assert _bits(core.mean_energy(config)) == _bits(mean_h[i])
        for k, s in enumerate(dynamics.SUBSYSTEMS):
            assert _bits(dynamics.extended_state(config, s).to_array()) == _bits(records[i, k])
            assert _bits(dynamics.rho_dot_local(config, s)) == _bits(reduced_derivatives[i, k])
        for law, energies in laws.items():
            pair = iel.evaluate_law(law, config)
            assert _bits([pair.u_a, pair.u_b]) == _bits(energies[i])
            audit = iel.consistency_audit(law, config)
            defect = iel._defect(energies[i, 0], energies[i, 1], mean_h[i])
            assert _bits([audit.u_a, audit.u_b, audit.mean_h, audit.defect]) == _bits(
                [*energies[i], mean_h[i], defect])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wrappers_equal_rows_of_their_stacked_kernels_on_sampled_points(seed):
    x = verification._draws(np.random.default_rng(seed), 50)
    psi, matrices = core._psi_and_matrix(x)
    configs = [core.rep_to_config(core.ConfigRep.from_array(row)) for row in x]
    _assert_wrappers_are_rows(configs, psi, matrices, x[:, 8:10])
    back = core.check_reps(np.concatenate([*core._polar(psi), x[:, 8:]], axis=1))
    for i, config in enumerate(configs):
        assert _bits(core.config_to_rep(config).to_array()) == _bits(back[i])
    shifted = psi * np.exp(1j * np.linspace(0.0, 6.0, 50))[:, None]
    equal = core._equal_up_to_phase(psi, matrices, shifted, matrices, 1e-12)
    for i, config in enumerate(configs):
        other = core.Configuration(core.UniverseState(shifted[i]), config.hamiltonian)
        assert core.config_equal(config, other, tol=1e-12) == equal[i]


@pytest.mark.parametrize("seed", [0, 1])
def test_the_central_stencil_row_is_finite_difference_rho_dot(seed):
    config = core.rep_to_config(locality.sample_interior_rep(seed))
    row = dynamics._time_differences(config, verification._CENTRAL_TIMES, verification._CENTRAL)[0]
    for k, s in enumerate(dynamics.SUBSYSTEMS):
        assert _bits(row[k]) == _bits(dynamics.finite_difference_rho_dot(config, s))


def test_reduced_states_propagates_once_per_sample(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda matrix: calls.append(matrix) or eigh(matrix))
    verification.run_check("reduced_states", np.random.default_rng(0))
    assert len(calls) == verification.CHECKS["reduced_states"][2]


@pytest.mark.parametrize("seed", [3, 4])
def test_wrappers_equal_rows_of_their_stacked_kernels_on_control_cases(seed):
    rng = np.random.default_rng(seed)
    draws = [(random_control_case(rng), random_spec(rng), rng.uniform(0.1, 1.0, 2)) for _ in range(50)]
    states, specs, gaps = zip(*draws)
    gaps = np.array(gaps)
    psi = verification._control_states(states)
    matrices = verification._conserving_hamiltonians(specs, gaps[:, 0], gaps[:, 1])
    configs = [models.control_configuration(*draw[:2], *draw[2]) for draw in draws]
    _assert_wrappers_are_rows(configs, psi, matrices, gaps)


def test_an_undefined_stacked_energy_raises_what_evaluate_law_raises():
    # the first row with a NaN, and A before B within it
    nan = float("nan")
    with pytest.raises(iel.RCUndefinedError, match="subsystem B"):
        iel._require_defined(np.array([1.0, 2.0]), np.array([0.0, nan]))
    with pytest.raises(iel.RCUndefinedError, match="subsystem A"):
        iel._require_defined(np.array([1.0, nan]), np.array([2.0, nan]))
    iel._require_defined(np.array([1.0]), np.array([2.0]))
