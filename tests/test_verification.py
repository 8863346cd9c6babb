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
    "conservation": locality.sample_interior_rep,
    "reduced_states": locality.sample_interior_rep,
    "relabeling": locality.sample_interior_rep,
    "number_conservation": lambda rng: (random_spec(rng), rng.uniform(0.2, 1.5)),
    "control_closed_forms": lambda rng: (random_control_case(rng), random_spec(rng), rng.uniform(0.1, 1.0, 2)),
    "excitation_block": lambda rng: (random_control_case(rng), random_spec(rng)),
    "uncoupled": random_uncoupled_config,
    "control_offset": lambda rng: (random_control_case(rng), random_spec(rng), rng.uniform(0, 2 * np.pi)),
    "bare_defect": locality.sample_interior_rep,
    "time_derivatives": locality.sample_interior_rep,
}

#: at seed 30 both random_control_case and random_uncoupled_config reject draws
REJECTING_SEED = 30

#: at seed 3 the forced interior rejections below hit every check that samples the interior
INTERIOR_REJECTION_SEED = 3


def _seed(draws):
    return {"seed 0": 0, "rejecting seed": REJECTING_SEED, "interior rejections": INTERIOR_REJECTION_SEED}[draws]


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
    seed = _seed(draws)
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
                                                      "excitation_block", "control_offset"):
        assert reference.calls["random"] > n
    if draws == "rejecting seed" and name in ("control_closed_forms", "control_offset"):
        assert reference.calls["normal"] > 2 * n
    if draws == "rejecting seed" and name == "uncoupled":
        assert reference.calls["random"] > n


@pytest.mark.parametrize("draws", ["seed 0", "rejecting seed", "interior rejections"])
def test_block_draws_are_the_sequential_draws_bit_for_bit(draws, monkeypatch):
    seed = _seed(draws)
    if draws == "interior rejections":
        _reject_low_first_coordinates(monkeypatch)
    reference = np.random.default_rng(seed)
    expected = [(locality.sample_interior_rep(reference).to_array(), reference.uniform(0, 2 * np.pi))
                for _ in range(50)]
    u = verification._draws(np.random.default_rng(seed), 50, extra=1)
    assert _bits(u[:, :19]) == _bits([x for x, _ in expected])
    assert _bits(2 * np.pi * u[:, 19]) == _bits([shift for _, shift in expected])
    reference = np.random.default_rng(seed)
    expected = [verification._uncoupled_coordinates(reference) for _ in range(25)]
    assert _bits(verification._uncoupled_draws(np.random.default_rng(seed), 25)) == _bits(expected)


def test_uncoupled_draws_fall_back_to_the_loop_when_the_block_accepts_too_few(monkeypatch):
    coherent = verification._coherent
    # the block keeps one attempt in four; the loop's one-row tests are untouched
    monkeypatch.setattr(verification, "_coherent", lambda x: coherent(x) & (np.arange(len(x)) % 4 == 0)
                        if len(x) > 1 else coherent(x))
    rng, reference = np.random.default_rng(1), np.random.default_rng(1)
    x = verification._uncoupled_draws(rng, 25)
    assert _bits(x) == _bits([verification._uncoupled_coordinates(reference) for _ in range(25)])
    assert rng.bit_generator.state == reference.bit_generator.state


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
    row = dynamics._time_differences(config.state.psi[None], config.hamiltonian.matrix[None],
                                     verification._CENTRAL_TIMES, verification._CENTRAL)[0, 0]
    for k, s in enumerate(dynamics.SUBSYSTEMS):
        assert _bits(row[k]) == _bits(dynamics.finite_difference_rho_dot(config, s))


@pytest.mark.parametrize("times, weights", [(verification._CENTRAL_TIMES, verification._CENTRAL),
                                            (verification._STENCIL_TIMES, verification._STENCIL)])
def test_stacked_time_differences_are_rows_of_one_configuration_calls(times, weights):
    psi, matrices = core._psi_and_matrix(verification._draws(np.random.default_rng(5), 20))
    stacked = dynamics._time_differences(psi, matrices, times, weights)
    assert stacked.shape == (20, len(weights), 2, 2, 2)
    for i in range(20):
        assert _bits(stacked[i]) == _bits(dynamics._time_differences(psi[i:i + 1], matrices[i:i + 1],
                                                                     times, weights)[0])


def test_trajectory_is_a_row_of_the_stacked_propagator():
    x = verification._draws(np.random.default_rng(6), 20)
    psi, matrices = core._psi_and_matrix(x)
    # the simulate default grid, the self-check grids and a single time
    for times in (np.linspace(0.0, 20.0, 1001), np.linspace(0.0, 50.0, 1000), np.array([0.7])):
        stacked = dynamics._evolve(psi, matrices, times)
        for i, row in enumerate(x):
            config = core.rep_to_config(core.ConfigRep.from_array(row))
            assert _bits(dynamics.trajectory(config.state, config.hamiltonian, times)) == _bits(stacked[i])


def test_the_frobenius_norm_of_a_spec_is_a_row_of_the_stacked_norms():
    rng = np.random.default_rng(8)
    gaps, h = rng.uniform(0.1, 1.0, (4, 2)), rng.uniform(-1.0, 1.0, (4, 3, 3))
    # ordinary, underflowing and overflowing squares
    gaps, h = gaps * [[1.0], [1e-170], [1e200], [1.0]], h * [[[1.0]], [[1e-170]], [[1.0]], [[1e200]]]
    norms = core._frobenius_norms(gaps[:, 0], gaps[:, 1], h)
    for i in range(4):
        assert _bits(core.HamiltonianSpec(*gaps[i], h[i]).frobenius_norm) == _bits(norms[i])
    assert np.isinf(norms[2:]).all() and 0.0 < norms[1] < 1e-168


#: the checks that propagate, each with one stacked eigendecomposition
PROPAGATING = ("conservation", "reduced_states", "excitation_block", "time_derivatives")


def test_each_propagating_check_makes_one_eigendecomposition(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda matrix: calls.append(matrix) or eigh(matrix))
    for name in verification.CHECKS:
        calls.clear()
        verification.run_check(name, np.random.default_rng(0))
        assert len(calls) == (name in PROPAGATING), name
    calls.clear()
    verification.run_suites()
    assert len(calls) == len(PROPAGATING)


@pytest.mark.parametrize("seed", [3, 4])
def test_wrappers_equal_rows_of_their_stacked_kernels_on_control_cases(seed):
    rng = np.random.default_rng(seed)
    draws = [(random_control_case(rng), random_spec(rng), rng.uniform(0.1, 1.0, 2)) for _ in range(50)]
    states, specs, gaps = zip(*draws)
    gaps = np.array(gaps)
    psi = verification._control_states(np.array([[s.psi0, s.psi_a, s.psi_b] for s in states]))
    matrices = verification._conserving_hamiltonians(np.array([s.lam for s in specs]),
                                                     np.array([s.delta for s in specs]), gaps[:, 0], gaps[:, 1])
    configs = [models.control_configuration(*draw[:2], *draw[2]) for draw in draws]
    _assert_wrappers_are_rows(configs, psi, matrices, gaps)
    arguments = (*np.array([[s.psi0, s.psi_a, s.psi_b] for s in states]).T, np.array([s.lam for s in specs]),
                 np.array([s.delta for s in specs]), gaps[:, 0], gaps[:, 1])
    rho_dot = models._control_rho_dot(*arguments)
    energies, mean = models._rc_energies(*arguments), models._mean_energy(*arguments)
    for i, (state, spec, g) in enumerate(draws):
        for k, s in enumerate(dynamics.SUBSYSTEMS):
            assert _bits(models.control_rho_dot_analytic(state, spec, *g, s)) == _bits(rho_dot[i, k])
        assert _bits(models.rc_energies_analytic(state, spec, *g)) == _bits(energies[i])
        assert _bits(models.mean_energy_analytic(state, spec, *g)) == _bits(mean[i])


def test_an_undefined_stacked_energy_raises_what_evaluate_law_raises():
    # the first row with a NaN, and A before B within it
    nan = float("nan")
    with pytest.raises(iel.RCUndefinedError, match="subsystem B"):
        iel._require_defined(np.array([1.0, 2.0]), np.array([0.0, nan]))
    with pytest.raises(iel.RCUndefinedError, match="subsystem A"):
        iel._require_defined(np.array([1.0, nan]), np.array([2.0, nan]))
    iel._require_defined(np.array([1.0]), np.array([2.0]))


#: the checks that draw nothing and so take any n
_DRAWLESS = ("pauli",)


@pytest.mark.parametrize("name", sorted(set(verification.CHECKS) - set(_DRAWLESS)))
def test_run_check_refuses_a_count_below_one(name):
    for n in (0, -3):
        with pytest.raises(ValueError, match=f"^n must be at least 1, got {n}$"):
            verification.run_check(name, np.random.default_rng(0), n)
    with pytest.raises(TypeError):
        verification.run_check(name, np.random.default_rng(0), 2.5)


def test_a_check_that_draws_nothing_takes_any_count():
    for name in _DRAWLESS:
        assert verification.CHECKS[name][2] == 0
        default = verification.run_check(name, np.random.default_rng(0))
        for n in (0, -3):
            assert verification.run_check(name, np.random.default_rng(0), n) == default


def test_run_check_at_its_default_count_is_unchanged():
    for name in ("number_conservation", "control_offset"):
        n = verification.CHECKS[name][2]
        assert (verification.run_check(name, np.random.default_rng(5))
                == verification.run_check(name, np.random.default_rng(5), n))


@pytest.mark.parametrize("seed", [0, REJECTING_SEED, 2024])
def test_control_draws_are_the_sequential_draws_bit_for_bit(seed):
    n = 60
    extras = {0: lambda rng: np.empty(0), 1: lambda rng: [rng.uniform(0, 2 * np.pi)],
              2: lambda rng: rng.uniform(0.1, 1.0, 2)}
    for extra, draw in extras.items():
        reference = np.random.default_rng(seed)
        expected = [(random_control_case(reference), random_spec(reference), draw(reference)) for _ in range(n)]
        rng = np.random.default_rng(seed)
        amps, lam, delta, u = verification._control_draws(rng, n, extra)
        assert rng.bit_generator.state == reference.bit_generator.state
        assert _bits(amps) == _bits([[s.psi0, s.psi_a, s.psi_b] for s, _, _ in expected])
        assert _bits(lam) == _bits([spec.lam for _, spec, _ in expected])
        assert _bits(delta) == _bits([spec.delta for _, spec, _ in expected])
        bounds = {1: (0.0, 2 * np.pi), 2: (0.1, 1.0)}.get(extra, (0.0, 1.0))
        assert _bits(verification._uniform(u, *bounds)) == _bits([e for _, _, e in expected])
    # number_conservation's block of four uniforms per sample
    reference = np.random.default_rng(seed)
    expected = [(random_spec(reference), reference.uniform(0.2, 1.5)) for _ in range(n)]
    u = np.random.default_rng(seed).random((n, 4))
    lam, delta = verification._spec_arrays(u[:, :3])
    assert _bits(lam) == _bits([spec.lam for spec, _ in expected])
    assert _bits(delta) == _bits([spec.delta for spec, _ in expected])
    assert _bits(verification._uniform(u[:, 3], 0.2, 1.5)) == _bits([gap for _, gap in expected])


def test_the_rejecting_seed_rejects_control_amplitudes():
    # one normal(size=6) per attempt, so more calls than samples means a rejection
    rng = _CountingGenerator(REJECTING_SEED)
    verification._control_draws(rng, 100)
    assert rng.calls["normal"] > 100
