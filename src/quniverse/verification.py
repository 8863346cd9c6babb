"""Seeded self-check suites behind the ``verify`` CLI command.

Each suite runs a compact batch of the oracle-equivalence and invariant
checks that also back the test suite, sized to finish in seconds.  All
randomness is drawn from the seed handed in, so a run is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import core, dynamics, iel, locality, models

__all__ = [
    "SUITES",
    "SuiteResult",
    "random_control_case",
    "random_uncoupled_config",
    "run_suites",
    "summary_dict",
]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: int
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


class _Recorder:
    def __init__(self):
        self.cases = 0
        self.failures = []

    def check(self, label: str, ok: bool):
        self.cases += 1
        if not ok:
            self.failures.append(label)


def random_control_case(rng: np.random.Generator, min_modulus: float = 0.05) -> models.ControlCaseState:
    """Random no-double-excitation state with all moduli bounded below."""
    while True:
        amps = rng.normal(size=3) + 1j * rng.normal(size=3)
        amps /= np.linalg.norm(amps)
        if np.all(np.abs(amps) > min_modulus):
            return models.ControlCaseState(psi0=amps[0], psi_a=amps[1], psi_b=amps[2])


def random_uncoupled_config(rng: np.random.Generator, min_coherence: float = 0.05) -> core.Configuration:
    """Random interior configuration with ``h = 0`` and sizable local coherences."""
    while True:
        rep = locality.sample_interior_rep(rng)
        config = core.rep_to_config(replace(rep, h=np.zeros((3, 3))))
        coherences = [
            abs(complex(dynamics.partial_trace(config.state, s)[0, 1]))
            for s in dynamics.SUBSYSTEMS
        ]
        if min(coherences) > min_coherence:
            return config


def _random_spec(rng: np.random.Generator) -> models.NumberConservingSpec:
    lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return models.NumberConservingSpec(lam=lam, delta=float(rng.uniform(-1, 1)))


def _suite_core(seed: int) -> SuiteResult:
    rec = _Recorder()
    rng = np.random.default_rng(seed)

    sx, sy, sz = (core.pauli(a) for a in core.AXES)
    rec.check("pauli: sigma_z excited-positive", sz[1, 1] == 1.0 and sz[0, 0] == -1.0)
    rec.check("pauli: involution", np.array_equal(sx @ sx, np.eye(2)))
    rec.check("pauli: cyclic product", np.allclose(sx @ sy, 1j * sz, atol=0))

    hermitian = True
    marginal_free = True
    for _ in range(25):
        rep = locality.sample_interior_rep(rng)
        ham = core.assemble_hamiltonian(rep.omega_a, rep.omega_b, rep.h)
        hermitian &= np.array_equal(ham.matrix, ham.matrix.conj().T)
        interaction = ham.matrix - core.hamiltonian_matrix(
            rep.omega_a, rep.omega_b, np.zeros((3, 3))
        )
        for s in dynamics.SUBSYSTEMS:
            marginal_free &= bool(
                np.max(np.abs(dynamics.partial_trace(interaction, s))) < 1e-14
            )
    rec.check("hamiltonian exactly hermitian", hermitian)
    rec.check("interaction has traceless marginals", marginal_free)

    gauge_ok = True
    round_trip_ok = True
    for _ in range(50):
        rep = locality.sample_interior_rep(rng)
        config = core.rep_to_config(rep)
        phi = rng.uniform(0, 2 * np.pi)
        shifted = core.rep_to_config(replace(rep, theta=rep.theta + phi))
        gauge_ok &= abs(core.mean_energy(config) - core.mean_energy(shifted)) < 1e-12
        gauge_ok &= core.config_equal(config, shifted, tol=1e-12)
        back = core.config_to_rep(config)
        round_trip_ok &= bool(
            np.max(np.abs(back.r - rep.r)) < 1e-12
            and np.max(np.abs(np.mod(back.theta - rep.theta + np.pi, 2 * np.pi) - np.pi)) < 1e-12
            and np.max(np.abs(back.h - rep.h)) < 1e-12
        )
    rec.check("mean energy is gauge invariant", gauge_ok)
    rec.check("representation round trip", round_trip_ok)
    return SuiteResult("core", rec.cases, tuple(rec.failures))


def _suite_dynamics(seed: int) -> SuiteResult:
    rec = _Recorder()
    rng = np.random.default_rng(seed)

    conserved = True
    for _ in range(5):
        config = core.rep_to_config(locality.sample_interior_rep(rng))
        times = np.linspace(0.0, 25.0, 400)
        states = dynamics.trajectory(config.state, config.hamiltonian, times)
        norms = np.linalg.norm(states, axis=1)
        energies = np.real(np.einsum("ti,ij,tj->t", states.conj(), config.hamiltonian.matrix, states))
        conserved &= bool(np.max(np.abs(norms - 1.0)) < 1e-12)
        conserved &= bool(np.max(np.abs(energies - energies[0])) < 1e-12)
    rec.check("norm and energy conserved along trajectories", conserved)

    oracle_ok = True
    legal = True
    tie_ok = True
    for _ in range(25):
        rep = locality.sample_interior_rep(rng)
        config = core.rep_to_config(rep)
        for s in dynamics.SUBSYSTEMS:
            algebraic = dynamics.rho_dot_local(config, s)
            numeric = dynamics.finite_difference_rho_dot(config, s)
            oracle_ok &= bool(np.max(np.abs(algebraic - numeric)) < 1e-8)
            legal &= abs(np.trace(algebraic)) < 1e-12
            legal &= bool(np.max(np.abs(algebraic - algebraic.conj().T)) < 1e-12)
            reduced = dynamics.partial_trace(config.state, s)
            legal &= bool(np.max(np.abs(reduced - reduced.conj().T)) < 1e-12)
            legal &= abs(np.trace(reduced) - 1.0) < 1e-12
            legal &= bool(np.min(np.linalg.eigvalsh(reduced)) > -1e-12)
        tie = locality.rep_observables(rep.to_array())[0:12]
        typed = np.concatenate(
            [dynamics.extended_state(config, s).to_array() for s in dynamics.SUBSYSTEMS]
        )
        tie_ok &= bool(np.max(np.abs(tie - typed)) < 1e-12)
    rec.check("algebraic rho_dot matches finite-difference oracle", oracle_ok)
    rec.check("reduced states and derivatives are legal", legal)
    rec.check("raw coordinate route ties to extended_state", tie_ok)

    symmetric = True
    for _ in range(10):
        rep = locality.sample_interior_rep(rng)
        swapped = core.ConfigRep(
            r=rep.r[[0, 2, 1, 3]],
            theta=rep.theta[[0, 2, 1, 3]],
            omega_a=rep.omega_b,
            omega_b=rep.omega_a,
            h=rep.h.T,
        )
        one = dynamics.extended_state(core.rep_to_config(rep), "B").to_array()
        other = dynamics.extended_state(core.rep_to_config(swapped), "A").to_array()
        symmetric &= bool(np.max(np.abs(one - other)) < 1e-12)
    rec.check("A<->B relabeling symmetry", symmetric)
    return SuiteResult("dynamics", rec.cases, tuple(rec.failures))


def _suite_models(seed: int) -> SuiteResult:
    rec = _Recorder()
    rng = np.random.default_rng(seed)

    number_op = models.number_operator()
    commutes = True
    for _ in range(10):
        ham = models.number_conserving_hamiltonian(_random_spec(rng), 1.0, rng.uniform(0.2, 1.5))
        commutes &= bool(
            np.max(np.abs(ham.matrix @ number_op - number_op @ ham.matrix)) == 0.0
        )
    rec.check("conserving family commutes with the number operator", commutes)

    rho_dot_ok = True
    energies_ok = True
    mean_ok = True
    for _ in range(100):
        state = random_control_case(rng)
        spec = _random_spec(rng)
        omega_a, omega_b = rng.uniform(0.1, 1.0, 2)
        config = models.control_configuration(state, spec, omega_a, omega_b)
        for s in dynamics.SUBSYSTEMS:
            analytic = models.control_rho_dot_analytic(state, spec, omega_a, omega_b, s)
            rho_dot_ok &= bool(
                np.max(np.abs(analytic - dynamics.rho_dot_local(config, s))) < 1e-12
            )
        closed = models.rc_energies_analytic(state, spec, omega_a, omega_b)
        pair = iel.evaluate_law("rc", config)
        energies_ok &= abs(closed.u_a - pair.u_a) < 1e-12
        energies_ok &= abs(closed.u_b - pair.u_b) < 1e-12
        mean = models.mean_energy_analytic(state, spec, omega_a, omega_b)
        mean_ok &= abs(mean - core.mean_energy(config)) < 1e-12
        mean_ok &= abs(closed.u_total - (mean - spec.delta)) < 1e-10
    rec.check("analytic rho_dot matches general machinery", rho_dot_ok)
    rec.check("analytic rc energies match the rc law", energies_ok)
    rec.check("analytic mean energy and energy offset", mean_ok)

    confined = True
    for _ in range(5):
        state = random_control_case(rng)
        spec = _random_spec(rng)
        ham = models.number_conserving_hamiltonian(spec, 1.0, 0.85)
        states = dynamics.trajectory(models.embed_control_state(state), ham, np.linspace(0, 30, 500))
        confined &= bool(np.max(np.abs(states[:, 3])) < 1e-12)
    rec.check("no-double-excitation block is invariant", confined)
    return SuiteResult("models", rec.cases, tuple(rec.failures))


def _suite_iel(seed: int) -> SuiteResult:
    rec = _Recorder()
    rng = np.random.default_rng(seed)

    recovered = True
    for _ in range(25):
        config = random_uncoupled_config(rng)
        bare = iel.evaluate_law("bare", config)
        rotating = iel.evaluate_law("rc", config)
        recovered &= abs(bare.u_a - rotating.u_a) < 1e-12
        recovered &= abs(bare.u_b - rotating.u_b) < 1e-12
        for s in dynamics.SUBSYSTEMS:
            omega = config.hamiltonian.omega_a if s == "A" else config.hamiltonian.omega_b
            freq = iel.rc_frequency(dynamics.extended_state(config, s))
            recovered &= abs(freq - omega) < 1e-10
    rec.check("rc reduces to bare without interaction", recovered)

    offset_ok = True
    gauge_ok = True
    for _ in range(25):
        state = random_control_case(rng)
        spec = _random_spec(rng)
        config = models.control_configuration(state, spec, 0.9, 0.6)
        audit = iel.consistency_audit("rc", config)
        offset_ok &= abs(audit.defect + spec.delta) < 1e-10
        phi = rng.uniform(0, 2 * np.pi)
        shifted = core.Configuration(
            state=core.UniverseState(config.state.psi * np.exp(1j * phi)),
            hamiltonian=config.hamiltonian,
        )
        pair = iel.evaluate_law("rc", config)
        pair_shifted = iel.evaluate_law("rc", shifted)
        gauge_ok &= abs(pair.u_a - pair_shifted.u_a) < 1e-12
        gauge_ok &= abs(pair.u_b - pair_shifted.u_b) < 1e-12
    rec.check("control-case defect is minus the dephasing strength", offset_ok)
    rec.check("rc law is gauge invariant", gauge_ok)

    bare_ok = True
    for _ in range(25):
        config = core.rep_to_config(locality.sample_interior_rep(rng))
        audit = iel.consistency_audit("bare", config)
        interaction = config.hamiltonian.matrix - core.hamiltonian_matrix(
            config.hamiltonian.omega_a, config.hamiltonian.omega_b, np.zeros((3, 3))
        )
        psi = config.state.psi
        mean_int = float(np.real(np.vdot(psi, interaction @ psi)))
        bare_ok &= abs(audit.defect + mean_int) < 1e-12
    rec.check("bare defect equals minus the interaction average", bare_ok)
    return SuiteResult("iel", rec.cases, tuple(rec.failures))


def _suite_locality(seed: int) -> SuiteResult:
    rec = _Recorder()
    rng = np.random.default_rng(seed)

    gradient_ok = True
    for _ in range(10):
        rep = locality.sample_interior_rep(rng)
        # quadratic: truncation-free at any step, so a larger step only
        # lowers the rounding floor (~eps/h)
        jac = locality.numerical_jacobian(locality.rep_norm_sq, rep, 1e-4)
        expected = np.concatenate([2.0 * rep.r, np.zeros(15)])
        gradient_ok &= bool(np.max(np.abs(jac[0] - expected)) < 1e-10)
    rec.check("norm-row jacobian matches the analytic gradient", gradient_ok)

    # small integers and a power-of-two step keep every intermediate a
    # short dyadic rational, so central differences carry no rounding at all
    matrix = rng.integers(-9, 10, size=(5, 19)).astype(float)
    point = rng.integers(-9, 10, size=19).astype(float)
    jac = locality.numerical_jacobian(lambda x: matrix @ x, point, 2.0**-10)
    rec.check("linear maps differentiate exactly", np.array_equal(jac, matrix))

    report = locality.run_experiment(n=25, seed=seed, keep_samples=True)
    rec.check("small experiment: every sample solvable", report.n_solvable == report.n_samples)
    repeat = locality.run_experiment(n=25, seed=seed, keep_samples=True)
    rec.check(
        "experiment is reproducible",
        report.to_json_dict(per_sample=True) == repeat.to_json_dict(per_sample=True),
    )

    trips_ok = True
    for _ in range(200):
        moduli = rng.uniform(0.02, 1.0, 4)
        moduli /= np.linalg.norm(moduli)
        radius, alpha, beta, gamma = locality.hyperspherical_forward(moduli)
        back = locality.hyperspherical_backward(radius, alpha, beta, gamma)
        trips_ok &= bool(np.max(np.abs(back - moduli)) < 1e-12)
    rec.check("hyperspherical round trips", trips_ok)

    transport_ok = True
    for sample in report.samples[:3]:
        solution, _ = locality.solve_least_squares(locality.build_system(sample.rep))
        dy = locality.transport_solution(solution, sample.rep)
        tangent_matrix, tangent_rhs = locality.build_tangent_system(sample.rep)
        transport_ok &= bool(
            np.linalg.norm(tangent_matrix @ dy - tangent_rhs) < 1e-8
        )
    rec.check("transported solutions satisfy the intrinsic system", transport_ok)
    return SuiteResult("locality", rec.cases, tuple(rec.failures))


SUITES = {
    "core": _suite_core,
    "dynamics": _suite_dynamics,
    "models": _suite_models,
    "iel": _suite_iel,
    "locality": _suite_locality,
}


def run_suites(names=None, seed: int = 2024) -> list:
    """Run the named suites (all of them by default), in registry order."""
    if names is None:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites {unknown}, available: {sorted(SUITES)}")
    return [SUITES[name](seed) for name in names]


def summary_dict(results) -> dict:
    """Machine-readable summary of a batch of suite results."""
    return {
        "suites": [
            {"name": r.name, "cases": r.cases, "failures": list(r.failures)}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
