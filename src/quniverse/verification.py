"""Seeded invariant checks behind ``quniverse verify`` and the unit tests.

A check maps a random generator and a sample count ``n`` to its worst
measured error, one per label when several labels share its sample loop.
``verify`` runs each suite's checks in :data:`CHECKS` order on one generator
seeded from the run seed; the unit tests run them at their own seeds and counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import core, dynamics, iel, locality, models

__all__ = [
    "CHECKS",
    "EXACT",
    "SUITES",
    "SuiteResult",
    "random_control_case",
    "random_spec",
    "random_uncoupled_config",
    "run_check",
    "run_suites",
    "summary_dict",
]

#: tolerance of an exact check: only an error of zero lies below it
EXACT = math.ulp(0.0)


@dataclass(frozen=True)
class SuiteResult:
    """One suite's outcome: ``(label, worst, tolerance)`` of every case in run
    order, and each raised check's message; the counts are read off the cases."""

    name: str
    checks: tuple = ()
    errors: tuple = ()

    @property
    def cases(self) -> int:
        return len(self.checks)

    @property
    def failures(self) -> tuple:
        return tuple(label for label, error, tol in self.checks if not error < tol)

    @property
    def passed(self) -> bool:
        return not self.failures


def random_control_case(rng: np.random.Generator, min_modulus: float = 0.05) -> models.ControlCaseState:
    """Random no-double-excitation state with all moduli bounded below."""
    while True:
        amps = rng.normal(size=3) + 1j * rng.normal(size=3)
        amps /= np.linalg.norm(amps)
        if (np.abs(amps) > min_modulus).all():
            return models.ControlCaseState(psi0=amps[0], psi_a=amps[1], psi_b=amps[2])


def random_uncoupled_config(rng: np.random.Generator) -> core.Configuration:
    """Random interior configuration with ``h = 0`` and both local coherences above 0.05."""
    while True:
        rep = locality.sample_interior_rep(rng)
        config = core.rep_to_config(replace(rep, h=np.zeros((3, 3))))
        coherences = [abs(complex(dynamics.partial_trace(config.state, s)[0, 1]))
                      for s in dynamics.SUBSYSTEMS]
        if min(coherences) > 0.05:
            return config


def random_spec(rng: np.random.Generator) -> models.NumberConservingSpec:
    """Random exchange amplitude and dephasing strength, each part uniform in (-1, 1)."""
    lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return models.NumberConservingSpec(lam=lam, delta=float(rng.uniform(-1, 1)))


def _draws(rng: np.random.Generator, n: int) -> np.ndarray:
    """``(n, 19)`` coordinates of ``n`` calls of ``locality.sample_interior_rep(rng)``, bit for bit.

    One ``rng.random((n, 19))`` feeds the sampler's map and check for every
    row at once.  If the map rejects a row, ``rng`` goes back to where it
    was and the sampler itself draws the ``n`` rows, redrawing that one; so
    ``rng`` ends where ``n`` sampler calls leave it either way.
    """
    state = rng.bit_generator.state
    x = rng.random((n, 19))
    if np.all(locality._interior(x)):
        return core.check_reps(x)
    rng.bit_generator.state = state
    return np.stack([locality.sample_interior_rep(rng).to_array() for _ in range(n)])


def _dist(a, b=0.0) -> float:
    """Largest entrywise ``|a - b|``; a NaN propagates, so it fails any tolerance."""
    return float(np.abs(np.subtract(a, b)).max())


def _miss(ok: bool) -> float:
    """Error of an exact assertion: zero where it holds, infinite where it fails."""
    return 0.0 if ok else math.inf


#: check name -> (suite, check, samples in ``verify``, ((label, tolerance), ...))
CHECKS = {}


def _check(suite: str, n: int, *cases):
    """Enter the decorated check in :data:`CHECKS` under its name."""
    def register(check):
        CHECKS[check.__name__.lstrip("_")] = (suite, check, n, cases)
        return check
    return register


@_check("core", 0, ("pauli: sigma_z excited-positive", EXACT), ("pauli: involution", EXACT),
        ("pauli: cyclic product", EXACT))
def _pauli(rng, n):
    sx, sy, sz = paulis = [core.pauli(a) for a in core.AXES]
    involution = [_dist(p @ p, np.eye(2)) for p in paulis] + [_dist(p, p.conj().T) for p in paulis]
    cyclic = [_dist(sx @ sy, 1j * sz), _dist(sy @ sz, 1j * sx), _dist(sz @ sx, 1j * sy)]
    return _dist(sz, np.diag([-1.0, 1.0])), _dist(involution), _dist(cyclic)


@_check("core", 25, ("hamiltonian exactly hermitian", EXACT),
        ("interaction has traceless marginals", EXACT))
def _hamiltonian(rng, n):
    x = _draws(rng, n)
    couplings = x[:, 10:].reshape(n, 3, 3)
    matrices = np.stack([core.HamiltonianSpec(*gaps, h).matrix for gaps, h in zip(x[:, 8:10], couplings)])
    marginals = [dynamics.partial_trace(interaction, s)
                 for interaction in core.hamiltonian_matrix(0.0, 0.0, couplings) for s in dynamics.SUBSYSTEMS]
    return _dist(matrices, matrices.conj().swapaxes(-1, -2)), _dist(marginals)


@_check("core", 50, ("mean energy is gauge invariant", 1e-12), ("representation round trip", 1e-12))
def _gauge_and_round_trip(rng, n):
    gauge, trip = [], []
    for _ in range(n):
        rep = locality.sample_interior_rep(rng)
        config = core.rep_to_config(rep)
        shifted = core.rep_to_config(replace(rep, theta=rep.theta + rng.uniform(0, 2 * np.pi)))
        gauge.append(abs(core.mean_energy(config) - core.mean_energy(shifted))
                     + _miss(core.config_equal(config, shifted, tol=1e-12)))
        back = core.config_to_rep(config)
        wrapped = np.mod(back.theta - rep.theta + np.pi, 2 * np.pi) - np.pi
        # the gaps and couplings come back bit for bit
        exact = np.array_equal(back.to_array()[8:], rep.to_array()[8:])
        trip.append(_dist(np.concatenate([back.r - rep.r, wrapped])) + _miss(exact))
    return _dist(gauge), _dist(trip)


@_check("dynamics", 5, ("norm and energy conserved along trajectories", 1e-12))
def _conservation(rng, n):
    errors = []
    for _ in range(n):
        config = core.rep_to_config(locality.sample_interior_rep(rng))
        states = dynamics.trajectory(config.state, config.hamiltonian, np.linspace(0.0, 50.0, 1000))
        energies = np.real(np.einsum("ti,ij,tj->t", states.conj(), config.hamiltonian.matrix, states))
        errors += [_dist(np.linalg.norm(states, axis=1), 1.0), _dist(energies, energies[0])]
    return _dist(errors)


@_check("dynamics", 25, ("algebraic rho_dot matches finite-difference oracle", 1e-8),
        ("reduced states and derivatives are legal", 1e-12),
        ("raw coordinate route ties to extended_state", 1e-12))
def _reduced_states(rng, n):
    oracle, legal, tie = [], [], []
    x = _draws(rng, n)
    for row, raw in zip(x, locality.rep_observables(x)):
        config = core.rep_to_config(core.ConfigRep.from_array(row))
        for s in dynamics.SUBSYSTEMS:
            algebraic = dynamics.rho_dot_local(config, s)
            oracle.append(_dist(algebraic, dynamics.finite_difference_rho_dot(config, s)))
            reduced = dynamics.partial_trace(config.state, s)
            legal += [abs(np.trace(algebraic)), _dist(algebraic, algebraic.conj().T),
                      _dist(reduced, reduced.conj().T), abs(np.trace(reduced) - 1.0),
                      _dist(np.minimum(np.linalg.eigvalsh(reduced), 0.0))]
        typed = [dynamics.extended_state(config, s).to_array() for s in dynamics.SUBSYSTEMS]
        tie += [_dist(raw[:12], np.concatenate(typed)), abs(raw[12] - 1.0),
                abs(raw[13] - core.mean_energy(config))]
    return _dist(oracle), _dist(legal), _dist(tie)


@_check("dynamics", 10, ("A<->B relabeling symmetry", 1e-12))
def _relabeling(rng, n):
    # swapping the subsystems swaps |01> with |10> and the gaps, and transposes h
    swap = [0, 2, 1, 3]
    errors = []
    for _ in range(n):
        rep = locality.sample_interior_rep(rng)
        swapped = core.ConfigRep(r=rep.r[swap], theta=rep.theta[swap], omega_a=rep.omega_b,
                                 omega_b=rep.omega_a, h=rep.h.T)
        config, mirrored = core.rep_to_config(rep), core.rep_to_config(swapped)
        for ours, theirs in (("B", "A"), ("A", "B")):
            one = dynamics.extended_state(config, ours).to_array()
            errors.append(_dist(one, dynamics.extended_state(mirrored, theirs).to_array()))
    return _dist(errors)


@_check("models", 10, ("conserving family commutes with the number operator", EXACT))
def _number_conservation(rng, n):
    number_op = models.number_operator()
    hams = [models.number_conserving_hamiltonian(random_spec(rng), 1.0, rng.uniform(0.2, 1.5))
            for _ in range(n)]
    return _dist([_dist(ham.matrix @ number_op, number_op @ ham.matrix) for ham in hams])


@_check("models", 100, ("analytic rho_dot matches general machinery", 1e-12),
        ("analytic rc energies match the rc law", 1e-12),
        ("analytic mean energy and energy offset", 1e-12))
def _control_closed_forms(rng, n):
    rho_dot, energies, mean = [], [], []
    for _ in range(n):
        state = random_control_case(rng)
        spec = random_spec(rng)
        gaps = rng.uniform(0.1, 1.0, 2)
        config = models.control_configuration(state, spec, *gaps)
        rho_dot += [_dist(models.control_rho_dot_analytic(state, spec, *gaps, s),
                          dynamics.rho_dot_local(config, s)) for s in dynamics.SUBSYSTEMS]
        closed = models.rc_energies_analytic(state, spec, *gaps)
        pair = iel.evaluate_law("rc", config)
        energies += [abs(closed.u_a - pair.u_a), abs(closed.u_b - pair.u_b),
                     _miss(abs(closed.u_total - (closed.u_a + closed.u_b)) < 1e-14)]
        analytic = models.mean_energy_analytic(state, spec, *gaps)
        mean += [abs(analytic - core.mean_energy(config)),
                 abs(closed.u_total - (analytic - spec.delta))]
    return _dist(rho_dot), _dist(energies), _dist(mean)


@_check("models", 5, ("no-double-excitation block is invariant", 1e-12))
def _excitation_block(rng, n):
    draws = [(random_control_case(rng), random_spec(rng)) for _ in range(n)]
    return _dist([dynamics.trajectory(models.embed_control_state(state),
                                      models.number_conserving_hamiltonian(spec, 1.0, 0.85),
                                      np.linspace(0, 30, 500))[:, 3] for state, spec in draws])


@_check("iel", 25, ("rc reduces to bare without interaction", 1e-12))
def _uncoupled(rng, n):
    # both laws agree, rc splits <H> exactly, and each coherence rotates at its gap
    errors = []
    for _ in range(n):
        config = random_uncoupled_config(rng)
        bare = iel.evaluate_law("bare", config)
        rotating = iel.evaluate_law("rc", config)
        gaps = (config.hamiltonian.omega_a, config.hamiltonian.omega_b)
        errors += [abs(bare.u_a - rotating.u_a), abs(bare.u_b - rotating.u_b),
                   abs(rotating.total - core.mean_energy(config))]
        errors += [abs(iel.rc_frequency(dynamics.extended_state(config, s)) - omega)
                   for s, omega in zip(dynamics.SUBSYSTEMS, gaps)]
    return _dist(errors)


@_check("iel", 25, ("control-case defect is minus the dephasing strength", 1e-10),
        ("rc law is gauge invariant", 1e-12))
def _control_offset(rng, n):
    offset, gauge = [], []
    for _ in range(n):
        state = random_control_case(rng)
        spec = random_spec(rng)
        config = models.control_configuration(state, spec, 0.9, 0.6)
        audit = iel.consistency_audit("rc", config)
        offset.append(abs(audit.defect + spec.delta)
                      + _miss(audit.defect == audit.u_a + audit.u_b - audit.mean_h))
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        shifted = replace(config, state=core.UniverseState(config.state.psi * phase))
        pair, pair_shifted = (iel.evaluate_law("rc", c) for c in (config, shifted))
        gauge += [abs(pair.u_a - pair_shifted.u_a), abs(pair.u_b - pair_shifted.u_b)]
    return _dist(offset), _dist(gauge)


@_check("iel", 25, ("bare defect equals minus the interaction average", 1e-12))
def _bare_defect(rng, n):
    errors = []
    for _ in range(n):
        rep = locality.sample_interior_rep(rng)
        config = core.rep_to_config(rep)
        psi = config.state.psi
        coupling = float(np.real(np.vdot(psi, core.hamiltonian_matrix(0.0, 0.0, rep.h) @ psi)))
        errors.append(abs(iel.consistency_audit("bare", config).defect + coupling))
    return _dist(errors)


@_check("locality", 10, ("norm-row jacobian matches the analytic gradient", 1e-10))
def _norm_gradient(rng, n):
    x = _draws(rng, n)
    # quadratic: truncation-free at any step, so a larger step only lowers
    # the rounding floor (~eps/h)
    jac = locality.numerical_jacobian(locality.rep_norm_sq, x, 1e-4)
    return _dist(jac[:, 0], np.concatenate([2.0 * x[:, :4], np.zeros((n, 15))], axis=1))


@_check("locality", 5, ("linear maps differentiate exactly", EXACT))
def _linear_map(rng, n):
    # small integers and a power-of-two step keep every intermediate a short
    # dyadic rational, so central differences carry no rounding at all
    matrix = rng.integers(-9, 10, size=(n, 19)).astype(float)
    point = rng.integers(-9, 10, size=19).astype(float)
    return _dist(locality.numerical_jacobian(lambda x: x @ matrix.T, point, 2.0**-10), matrix)


@_check("locality", 25, ("small experiment: every sample solvable", EXACT),
        ("experiment is reproducible", EXACT), ("hyperspherical round trips", 1e-12),
        ("transported solutions satisfy the intrinsic system", 1e-12))
def _audit_and_chart(rng, n):
    # an n-sample audit (sample i drawn from (seed, i), as ``sample --seed`` does),
    # 8n round trips through the chart, and three exact audit solutions transported
    # into the exact intrinsic system
    seed = rng.bit_generator.seed_seq.entropy
    report, repeat = [locality.run_experiment(n=n, seed=seed) for _ in range(2)]
    same = report.to_json_dict(per_sample=True) == repeat.to_json_dict(per_sample=True)
    moduli = rng.uniform(0.02, 1.0, (8 * n, 4))
    moduli /= np.linalg.norm(moduli, axis=1, keepdims=True)
    trips = locality.hyperspherical_backward(*locality.hyperspherical_forward(moduli)).T
    transport = []
    for x in locality._draw_chunk(seed, range(3)):
        solution, _ = locality.solve_least_squares(locality.audit_jacobian(x))
        dy = locality.transport_solution(solution, x)
        transport.append(float(locality._residual_norms(locality._exact_tangent_system(x), dy)))
    return report.n_samples - report.n_solvable, _miss(same), _dist(trips, moduli), _dist(transport)


@_check("locality", 10, ("exact audit Jacobian matches central differences", locality.FD_ORACLE_TOL),
        ("exact order-2 Jacobian matches central differences", 1e-8),
        ("exact order-3 Jacobian matches central differences", 1e-8))
def _exact_jacobian(rng, n):
    # orders 2 and 3 on every tenth point only, since their central differences
    # cost about 30 times the order-1 ones; an order-m row scales as |H|^m, so
    # each order's error is relative to the largest entry of its rows there
    x = _draws(rng, n)
    few = x[::10]
    exact = locality._hierarchy(few, 3)
    central = locality.numerical_jacobian(lambda y: locality._row_values(locality._hierarchy(y, 3), y), few)
    orders = [block[:, :-2].reshape(len(few), 2, 4, 3, 19) for block in (exact, central)]
    relative = [np.max(np.abs(orders[0][:, :, m] - orders[1][:, :, m]), axis=(1, 2, 3))
                / np.max(np.abs(orders[0][:, :, m]), axis=(1, 2, 3)) for m in (2, 3)]
    return _dist(locality.audit_jacobian(x), locality.build_system(x)), *map(_dist, relative)


@_check("locality", 10, ("Schmidt identities annihilate the audit matrix", 1e-13))
def _schmidt_identities(rng, n):
    # |n^T A| / (|n| |A|) for the gradients of det_A - det_B and of its time
    # derivative, built from the observables, not from the Jacobian
    x = _draws(rng, n)
    matrices = locality.audit_jacobian(x)
    normals = locality._schmidt_normals(locality.rep_observables(x))
    products = np.linalg.norm(normals.swapaxes(-1, -2) @ matrices, axis=-1)
    scales = np.linalg.norm(normals, axis=-2) * np.linalg.norm(matrices, axis=(-2, -1))[:, None]
    return _dist(products / scales)


# points of the box's closure that the deflated solve must hand to the SVD: a
# product state without coupling (rank 10) and a Bell state (rank 9)
_PRODUCT_STATE = np.concatenate([[0.5] * 4, [0.3] * 4, [0.4, 0.7], [0.0] * 9])
_BELL_STATE = np.concatenate([[2**-0.5, 0.0, 0.0, 2**-0.5], [0.1, 0.2, 0.3, 0.4], [0.4, 0.7],
                              np.linspace(-0.8, 0.8, 9)])


@_check("locality", 25, ("deflated solve matches the SVD on sampled points", 1e-13),
        ("degenerate points take the SVD's residuals bitwise", EXACT))
def _deflated_solve(rng, n):
    # residual gaps to the SVD: rounding on sampled points, none where the
    # deflation cannot be certified
    x = np.concatenate([_draws(rng, n), [_PRODUCT_STATE, _BELL_STATE]])
    matrices = locality.audit_jacobian(x)
    _, deflated = locality._solve_deflated(matrices, x)
    _, reference = locality._solve_stack(matrices)
    return _dist(deflated[:n], reference[:n]), _dist(deflated[n:], reference[n:])


@_check("locality", 10, ("chart Jacobian matches central differences", 1e-8))
def _chart_jacobian(rng, n):
    # the angle columns of the unit-radius chart, which carry solutions into the
    # intrinsic system, against central differences of the backward map
    angles = rng.uniform(0.1, np.pi / 2 - 0.1, (n, 3))
    exact = [locality._forward_jacobian(1.0, *a)[:, 1:] for a in angles]
    central = locality.numerical_jacobian(lambda y: locality.hyperspherical_backward(1.0, *y.T).T,
                                          angles)
    return _dist(exact, central)


# a 3-point second difference at step 1e-4, then a 4-point third difference at
# step 1e-3 on points -3/2, -1/2, 1/2 and 3/2 steps out: row 0 of _STENCIL
# weighs the states at the 7 times for the second derivative, row 1 for the third
_STENCIL_TIMES = np.array([-1e-4, 0.0, 1e-4, -1.5e-3, -0.5e-3, 0.5e-3, 1.5e-3])
_STENCIL = np.array([[1e8, -2e8, 1e8, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1e9, 3e9, -3e9, 1e9]])


@_check("locality", 6, ("order-2 records match second time differences of partial traces", 1e-6),
        ("order-3 records match third time differences of partial traces", 1e-4))
def _time_derivatives(rng, n):
    # the textbook partial traces of the propagated states share no algebra with
    # the hierarchy; being linear, each takes a stencil's sum of |psi><psi| at once.
    # Time reversal (the rho-dot-sign fault) flips the odd orders, which no rank
    # can show.  An order-m record scales as ||H||^m, so each error is relative
    # to ||H||_F^m
    x = _draws(rng, n)
    values = locality._row_values(locality._hierarchy(x, 3), x)
    errors = []
    for row, exact in zip(x, values[:, :-2].reshape(n, 2, 4, 3)):
        config = core.rep_to_config(core.ConfigRep.from_array(row))
        states = dynamics.trajectory(config.state, config.hamiltonian, _STENCIL_TIMES)
        differences = _STENCIL @ (states[:, :, None] * states[:, None, :].conj()).reshape(7, 16)
        for order, difference in zip((2, 3), differences.reshape(2, 4, 4)):
            columns = [dynamics.partial_trace(difference, s)[:, 1] for s in dynamics.SUBSYSTEMS]
            records = [[c.real, c.imag, p1.real] for c, p1 in columns]
            errors.append(_dist(records, exact[:, order]) / config.hamiltonian.frobenius_norm**order)
    return _dist(errors[0::2]), _dist(errors[1::2])


def run_check(name: str, rng: np.random.Generator, n: int | None = None) -> list:
    """``(label, error, tolerance)`` of each case of one check, which passes
    when ``error < tolerance``; ``n`` defaults to the count in ``verify``."""
    _, check, default_n, cases = CHECKS[name]
    errors = np.atleast_1d(check(rng, default_n if n is None else n))
    return [(label, float(error), tol) for (label, tol), error in zip(cases, errors, strict=True)]


def _run_suite(suite: str, seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    cases, errors = [], []
    for name in [name for name, row in CHECKS.items() if row[0] == suite]:
        try:
            cases += run_check(name, rng)
        except Exception as exc:
            # a broken check fails each of its cases unmeasured; the rest still run
            cases += [(label, math.nan, tol) for label, tol in CHECKS[name][3]]
            errors.append(f"{name}: {type(exc).__name__}: {exc}")
    return SuiteResult(suite, tuple(cases), tuple(errors))


#: suite name -> ``(seed) -> SuiteResult``, in the order of :data:`CHECKS`
SUITES = {suite: partial(_run_suite, suite) for suite in dict.fromkeys(row[0] for row in CHECKS.values())}


def run_suites(names=None, seed: int = 2024, fault: str | None = None) -> list:
    """Run the named suites (all of them by default), in registry order.

    ``fault``, one of ``dynamics.FAULTS``, is injected for the length of the run
    through a context variable, so other threads and tasks never see it.
    ``names`` is an iterable of suite names; a bare string raises ``TypeError``.
    """
    if isinstance(names, str):
        raise TypeError(f"names must be an iterable of suite names, not the string {names!r}")
    names = list(SUITES) if names is None else list(names)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {', '.join(unknown)}; available: {', '.join(SUITES)}")
    repeated = [n for n in dict.fromkeys(names) if names.count(n) > 1]
    if repeated:
        raise ValueError(f"repeated suites: {', '.join(repeated)}")
    if fault is not None and fault not in dynamics.FAULTS:
        raise ValueError(f"unknown fault {fault!r}, available: {', '.join(dynamics.FAULTS)}")
    token = dynamics.RHO_DOT_SIGN.set(-1.0 if fault == "rho-dot-sign" else 1.0)
    try:
        return [SUITES[name](seed) for name in names]
    finally:
        dynamics.RHO_DOT_SIGN.reset(token)


def summary_dict(results) -> dict:
    """Machine-readable summary of a batch of suite results.

    Each suite lists its checks' worst measured errors beside their
    tolerances, so the summary shows how close each case came to failing;
    a worst error that is not finite (a failed exact assertion, a NaN, a
    check that raised) is written as ``null``, which keeps the summary
    strict JSON.  ``errors`` lists any raised check's message.
    """
    suites = [
        {"name": r.name, "cases": r.cases, "failures": list(r.failures),
         "checks": [{"label": label, "worst": error if math.isfinite(error) else None,
                     "tolerance": tol} for label, error, tol in r.checks]}
        | ({"errors": list(r.errors)} if r.errors else {})
        for r in results
    ]
    return {"suites": suites, "all_passed": all(r.passed for r in results)}
