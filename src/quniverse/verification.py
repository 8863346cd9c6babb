"""Seeded invariant checks behind ``quniverse verify`` and the unit tests.

A check maps a random generator and a sample count ``n`` to its worst
measured error, one per label when several labels share its samples.
``verify`` runs each suite's checks in :data:`CHECKS` order on one generator
seeded from the run seed; the unit tests run them at their own seeds and counts.

A check first draws its ``n`` samples into raw arrays, leaving the
generator where a loop drawing one attempt at a time would: every interior
rejection loop (``locality._interior_draws``, ``_uncoupled_draws`` and
``gauge_and_round_trip``'s draws) is ``locality._accepted``, whose blocks
hold only the acceptances still needed.  A control-case sample makes two
calls, ``normal(size=6)`` for its amplitudes and one ``random`` for its
spec and extras (``_control_draws``); its normals interleave with those
uniforms, so its rejection loop stays per sample.  Then the check
evaluates its draws as one stack, through the kernels behind the
per-configuration wrappers, each row bitwise the wrapper's value at that
sample.  Every oracle takes the stack: the propagator
(``dynamics._evolve``), the textbook time differences
(``dynamics._time_differences``, the central difference of
``finite_difference_rho_dot`` or the orders 2 and 3 of
``_time_derivatives``), ``partial_trace`` and the ``models`` closed forms, so
a propagating check makes one stacked eigendecomposition.

Each draw kind has one implementation, and its public sampler, which takes a
seed or a ``numpy.random.Generator``, is the one-row read of it:
:func:`random_control_case` of ``_control_amplitudes``, :func:`random_spec`
of ``_spec_arrays`` and :func:`random_uncoupled_config` of ``_uncoupled_draws``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
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


def _control_amplitudes(rng: np.random.Generator, min_modulus: float = 0.05) -> np.ndarray:
    """``(psi0, psi_a, psi_b)`` of one :func:`random_control_case` draw, unchecked.

    Each attempt is one ``normal(size=6)``, the real parts, then the
    imaginary parts, normalized and kept once every modulus exceeds
    ``min_modulus``.
    """
    while True:
        z = rng.normal(size=6)
        amps = z[:3] + 1j * z[3:]
        amps /= np.linalg.norm(amps)
        if (np.abs(amps) > min_modulus).all():
            return amps


def random_control_case(rng, min_modulus: float = 0.05) -> models.ControlCaseState:
    """Random no-double-excitation state with all moduli above ``min_modulus``.

    No normalized 3-vector has all moduli above ``3**-0.5``, so a
    ``min_modulus`` outside ``[0, 3**-0.5)`` raises ``ValueError``.
    """
    if not 0 <= min_modulus < 3**-0.5:
        raise ValueError(f"min_modulus must lie in [0, 3**-0.5), got {min_modulus!r}")
    return models.ControlCaseState(*_control_amplitudes(np.random.default_rng(rng), min_modulus))


def _coherent(x: np.ndarray) -> np.ndarray:
    """Which rows of ``(n, 19)`` coordinates have both local coherences above 0.05."""
    rho = dynamics._projectors(core._amplitudes(x))
    return np.all([core._modulus(dynamics.partial_trace(rho, s)[:, 0, 1]) > 0.05 for s in dynamics.SUBSYSTEMS],
                  axis=0)


def _accept_uncoupled(u: np.ndarray) -> np.ndarray:
    """Map ``(m, 19)`` attempts as ``locality._interior`` does, couplings zeroed; return
    which are accepted: interior, with both local coherences above 0.05."""
    accepted = locality._interior(u)
    u[:, 10:] = 0.0
    accepted[accepted] = _coherent(u[accepted])
    return accepted


def _uncoupled_draws(rng: np.random.Generator, n: int) -> np.ndarray:
    """Checked ``(n, 19)`` coordinates of ``n`` uncoupled draws, one 19-double attempt each."""
    return core.check_reps(locality._accepted(lambda m: rng.random((m, 19)), _accept_uncoupled, n))


def random_uncoupled_config(rng) -> core.Configuration:
    """Random interior configuration with ``h = 0`` and both local coherences above 0.05."""
    x = _uncoupled_draws(np.random.default_rng(rng), 1)[0]
    return core.rep_to_config(core.ConfigRep.from_array(x))


def random_spec(rng) -> models.NumberConservingSpec:
    """Random exchange amplitude and dephasing strength, each part uniform in (-1, 1)."""
    lam, delta = _spec_arrays(np.random.default_rng(rng).random((1, 3)))
    return models.NumberConservingSpec(lam=lam[0], delta=delta[0])


def _uniform(u, low: float, high: float):
    """``Generator.uniform(low, high)`` of unit doubles ``u``, bit for bit: ``low + (high - low) u``."""
    return low + (high - low) * u


def _spec_arrays(u: np.ndarray) -> tuple:
    """``(n,)`` arrays of ``lam`` and ``delta`` of :func:`random_spec` from its ``(n, 3)`` unit doubles."""
    parts = _uniform(u, -1.0, 1.0)
    # the real and imaginary parts side by side are the complex lam, as complex() builds it
    return np.ascontiguousarray(parts[:, :2]).view(complex)[:, 0], parts[:, 2]


def _control_draws(rng: np.random.Generator, n: int, extra: int = 0) -> tuple:
    """``n`` draws of :func:`random_control_case`, :func:`random_spec` and ``extra`` unit doubles, in loop order.

    A sample makes two generator calls where no rejection intervenes: the
    amplitudes' ``normal(size=6)``, then one ``rng.random(3 + extra)``
    holding the spec's three uniforms and the ``extra`` doubles, which the
    caller maps as ``Generator.uniform`` would (:func:`_uniform`).  Returns
    the ``(n, 3)`` amplitudes ``(psi0, psi_a, psi_b)``, ``(n,)`` arrays of
    ``lam`` and ``delta``, and the ``(n, extra)`` unit doubles.
    """
    amps, u = np.empty((n, 3), dtype=complex), np.empty((n, 3 + extra))
    for i in range(n):
        amps[i] = _control_amplitudes(rng)
        rng.random(out=u[i])
    return amps, *_spec_arrays(u[:, :3]), u[:, 3:]


def _realized(x: np.ndarray):
    """``(n, 4)`` amplitudes and ``(n, 4, 4)`` Hamiltonians of ``core.rep_to_config`` at each row of ``x``.

    The amplitudes are checked as ``UniverseState`` checks them; ``check_reps``
    has checked what ``HamiltonianSpec`` checks.
    """
    psi, matrices = core._psi_and_matrix(x)
    core.check_states(psi)
    return psi, matrices


def _conserving_hamiltonians(lam, delta, omega_a, omega_b) -> np.ndarray:
    """``(n, 4, 4)`` matrices of ``models.number_conserving_hamiltonian`` at each draw.

    The gaps are drawn positive and ``lam`` and ``delta`` finite, which is
    all ``NumberConservingSpec`` and ``HamiltonianSpec`` check.
    """
    return core.hamiltonian_matrix(omega_a, omega_b, models._couplings(lam, delta))


def _control_states(amps: np.ndarray) -> np.ndarray:
    """``(n, 4)`` amplitudes of ``models.embed_control_state`` at ``(n, 3)`` ``(psi0, psi_a, psi_b)``,
    checked as ``UniverseState`` is."""
    psi = models._embedded(*amps.T)
    core.check_states(psi)
    return psi


def _rc_pairs(records: np.ndarray) -> np.ndarray:
    """``(n, 2)`` ``rc`` energies of ``(n, 2, 6)`` records, raising where ``evaluate_law`` would."""
    energies = iel._rc_energies(records)
    iel._require_defined(*energies)
    return np.stack(energies, axis=-1)


def _dist(a, b=0.0) -> float:
    """Largest entrywise ``|a - b|``; a NaN propagates, so it fails any tolerance."""
    return float(np.abs(np.subtract(a, b)).max())


def _worst(*errors) -> float:
    """Largest entry of several error stacks of any shapes; a NaN propagates."""
    return _dist(np.concatenate([np.ravel(e) for e in errors]))


def _miss(ok):
    """Error of an exact assertion: zero where it holds, infinite where it fails, entrywise on a stack."""
    return np.where(ok, 0.0, math.inf)


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
    x = locality._interior_draws(rng, n)
    couplings = x[:, 10:].reshape(n, 3, 3)
    matrices = core.hamiltonian_matrix(x[:, 8], x[:, 9], couplings)
    interactions = core.hamiltonian_matrix(0.0, 0.0, couplings)
    marginals = [dynamics.partial_trace(interactions, s) for s in dynamics.SUBSYSTEMS]
    return _dist(matrices, matrices.conj().swapaxes(-1, -2)), _dist(marginals)


@_check("core", 50, ("mean energy is gauge invariant", 1e-12), ("representation round trip", 1e-12))
def _gauge_and_round_trip(rng, n):
    # 20 doubles an attempt, accepted on the first 19; the last is its rng.uniform(0, 2 pi) shift
    u = locality._accepted(lambda m: rng.random((m, 20)), lambda u: locality._interior(u[:, :19]), n)
    x = core.check_reps(u[:, :19])
    moved = x.copy()
    moved[:, 4:8] += 2 * np.pi * u[:, 19:]
    (psi, matrices), (shifted, shifted_matrices) = _realized(x), _realized(core.check_reps(moved))
    equal = core._equal_up_to_phase(psi, matrices, shifted, shifted_matrices, 1e-12)
    energies = core.expectation(psi, matrices).real, core.expectation(shifted, shifted_matrices).real
    gauge = np.abs(energies[0] - energies[1])
    back = core.check_reps(np.concatenate([*core._polar(psi), x[:, 8:]], axis=1))
    wrapped = np.mod(back[:, 4:8] - x[:, 4:8] + np.pi, 2 * np.pi) - np.pi
    trip = np.abs(np.concatenate([back[:, :4] - x[:, :4], wrapped], axis=1)).max(axis=1)
    # the gaps and couplings come back bit for bit
    exact = (back[:, 8:] == x[:, 8:]).all(axis=1)
    return _dist(gauge + _miss(equal)), _dist(trip + _miss(exact))


@_check("dynamics", 5, ("norm and energy conserved along trajectories", 1e-12))
def _conservation(rng, n):
    psi, matrices = _realized(locality._interior_draws(rng, n))
    states = dynamics._evolve(psi, matrices, np.linspace(0.0, 50.0, 1000))
    energies = core.expectation(states, matrices[:, None]).real
    return _worst(np.linalg.norm(states, axis=-1) - 1.0, energies - energies[:, :1])


#: the stencil of ``dynamics.finite_difference_rho_dot`` at its default step
_CENTRAL_TIMES, _CENTRAL = np.array([1e-6, -1e-6]), np.array([[0.5e6, -0.5e6]])


@_check("dynamics", 25, ("algebraic rho_dot matches finite-difference oracle", 1e-8),
        ("reduced states and derivatives are legal", 1e-12),
        ("raw coordinate route ties to extended_state", 1e-12))
def _reduced_states(rng, n):
    x = locality._interior_draws(rng, n)
    psi, matrices = _realized(x)
    records = dynamics._records(psi, matrices)
    dynamics.check_extended_coordinates(records)
    algebraic = dynamics._rho_dot_matrices(records)
    oracle = dynamics._time_differences(psi, matrices, _CENTRAL_TIMES, _CENTRAL)[:, 0]
    rho = dynamics._projectors(psi)
    reduced = np.stack([dynamics.partial_trace(rho, s) for s in dynamics.SUBSYSTEMS], axis=1)

    traces = np.trace(algebraic, axis1=-2, axis2=-1), np.trace(reduced, axis1=-2, axis2=-1) - 1.0
    legal = [*(core._modulus(t) for t in traces), algebraic - algebraic.conj().swapaxes(-1, -2),
             reduced - reduced.conj().swapaxes(-1, -2), np.minimum(np.linalg.eigvalsh(reduced), 0.0)]
    raw = locality.rep_observables(x)
    tie = [raw[:, :12] - records.reshape(n, 12), raw[:, 12] - 1.0,
           raw[:, 13] - core.expectation(psi, matrices).real]
    return _dist(algebraic, oracle), _worst(*legal), _worst(*tie)


# swapping the subsystems swaps |01> with |10> and the gaps, and transposes h
_MIRROR = np.concatenate([[0, 2, 1, 3, 4, 6, 5, 7, 9, 8], 10 + np.arange(9).reshape(3, 3).T.ravel()])


@_check("dynamics", 10, ("A<->B relabeling symmetry", 1e-12))
def _relabeling(rng, n):
    x = locality._interior_draws(rng, n)
    records, mirrored = (dynamics._records(*_realized(y)) for y in (x, core.check_reps(x[:, _MIRROR])))
    for coords in (records, mirrored):
        dynamics.check_extended_coordinates(coords)
    # B's records against the mirror's A, then A's against its B
    return _dist(records[:, ::-1], mirrored)


@_check("models", 10, ("conserving family commutes with the number operator", EXACT))
def _number_conservation(rng, n):
    # each sample's three spec uniforms, then its rng.uniform(0.2, 1.5) gap
    u = rng.random((n, 4))
    matrices = _conserving_hamiltonians(*_spec_arrays(u[:, :3]), 1.0, _uniform(u[:, 3], 0.2, 1.5))
    number_op = models.number_operator()
    return _dist(matrices @ number_op, number_op @ matrices)


@_check("models", 100, ("analytic rho_dot matches general machinery", 1e-12),
        ("analytic rc energies match the rc law", 1e-12),
        ("analytic mean energy and energy offset", 1e-12))
def _control_closed_forms(rng, n):
    amps, lam, delta, u = _control_draws(rng, n, extra=2)
    gaps = _uniform(u, 0.1, 1.0)
    psi, matrices = _control_states(amps), _conserving_hamiltonians(lam, delta, gaps[:, 0], gaps[:, 1])
    records = dynamics._records(psi, matrices)
    closed_form = (*amps.T, lam, delta, gaps[:, 0], gaps[:, 1])
    analytic_rho_dot = models._control_rho_dot(*closed_form)
    closed, analytic = models._rc_energies(*closed_form), models._mean_energy(*closed_form)
    energies = [closed[:, :2] - _rc_pairs(records),
                _miss(np.abs(closed[:, 2] - (closed[:, 0] + closed[:, 1])) < 1e-14)]
    mean = [analytic - core.expectation(psi, matrices).real, closed[:, 2] - (analytic - delta)]
    return _dist(analytic_rho_dot, dynamics._rho_dot_matrices(records)), _worst(*energies), _worst(*mean)


@_check("models", 5, ("no-double-excitation block is invariant", 1e-12))
def _excitation_block(rng, n):
    amps, lam, delta, _ = _control_draws(rng, n)
    matrices = _conserving_hamiltonians(lam, delta, 1.0, 0.85)
    return _dist(dynamics._evolve(_control_states(amps), matrices, np.linspace(0, 30, 500))[..., 3])


@_check("iel", 25, ("rc reduces to bare without interaction", 1e-12))
def _uncoupled(rng, n):
    # both laws agree, rc splits <H> exactly, and each coherence rotates at its gap
    x = _uncoupled_draws(rng, n)
    psi, matrices = _realized(x)
    records = dynamics._records(psi, matrices)
    bare = iel._bare_energies(records, x[:, 8], x[:, 9])
    iel._require_defined(*bare)
    # the rc energies check the records as extended states, and are undefined
    # wherever a rotation frequency is
    rotating = _rc_pairs(records)
    total = rotating[:, 0] + rotating[:, 1]
    return _worst(np.stack(bare, axis=-1) - rotating, total - core.expectation(psi, matrices).real,
                  iel._rotation_frequency(records) - x[:, 8:10])


@_check("iel", 25, ("control-case defect is minus the dephasing strength", 1e-10),
        ("rc law is gauge invariant", 1e-12))
def _control_offset(rng, n):
    amps, lam, delta, u = _control_draws(rng, n, extra=1)
    phases = np.exp(1j * _uniform(u[:, 0], 0.0, 2 * np.pi))
    psi, matrices = _control_states(amps), _conserving_hamiltonians(lam, delta, 0.9, 0.6)
    energies = _rc_pairs(dynamics._records(psi, matrices))
    mean_h = core.expectation(psi, matrices).real
    defect = iel._defect(energies[:, 0], energies[:, 1], mean_h)
    offset = np.abs(defect + delta) + _miss(defect == energies[:, 0] + energies[:, 1] - mean_h)
    shifted = psi * phases[:, None]
    core.check_states(shifted)
    return _dist(offset), _dist(energies, _rc_pairs(dynamics._records(shifted, matrices)))


@_check("iel", 25, ("bare defect equals minus the interaction average", 1e-12))
def _bare_defect(rng, n):
    x = locality._interior_draws(rng, n)
    psi, matrices = _realized(x)
    u_a, u_b = iel._bare_energies(dynamics._records(psi, matrices), x[:, 8], x[:, 9])
    iel._require_defined(u_a, u_b)
    defect = iel._defect(u_a, u_b, core.expectation(psi, matrices).real)
    coupling = core.expectation(psi, core.hamiltonian_matrix(0.0, 0.0, x[:, 10:].reshape(n, 3, 3))).real
    return _dist(defect + coupling)


@_check("locality", 10, ("norm-row jacobian matches the analytic gradient", 1e-10))
def _norm_gradient(rng, n):
    x = locality._interior_draws(rng, n)
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
    x = locality._draw_chunk(seed, range(3))
    jacobians = locality.audit_jacobian(x)
    solutions, _ = locality._solve_stack(jacobians)
    transported = locality._transported(solutions, x)
    transport = locality._residual_norms(locality._tangent_systems(x, jacobians), transported)
    return report.n_samples - report.n_solvable, _miss(same), _dist(trips, moduli), _dist(transport)


@_check("locality", 10, ("exact audit Jacobian matches central differences", locality.FD_ORACLE_TOL),
        ("exact order-2 Jacobian matches central differences", 1e-8),
        ("exact order-3 Jacobian matches central differences", 1e-8))
def _exact_jacobian(rng, n):
    # orders 2 and 3 on every tenth point only, since their central differences
    # cost about 30 times the order-1 ones; an order-m row scales as |H|^m, so
    # each order's error is relative to the largest entry of its rows there
    x = locality._interior_draws(rng, n)
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
    x = locality._interior_draws(rng, n)
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
    x = np.concatenate([locality._interior_draws(rng, n), [_PRODUCT_STATE, _BELL_STATE]])
    matrices = locality.audit_jacobian(x)
    _, deflated = locality._solve_deflated(matrices, x)
    _, reference = locality._solve_stack(matrices)
    return _dist(deflated[:n], reference[:n]), _dist(deflated[n:], reference[n:])


@_check("locality", 10, ("chart Jacobian matches central differences", 1e-8))
def _chart_jacobian(rng, n):
    # the angle columns of the unit-radius chart, which carry solutions into the
    # intrinsic system, against central differences of the backward map
    angles = rng.uniform(0.1, np.pi / 2 - 0.1, (n, 3))
    exact = locality._forward_jacobian(1.0, *angles.T)[..., 1:]
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
    # the hierarchy; one dynamics._time_differences call takes both stencils at
    # every point.  Time reversal (the rho-dot-sign fault) flips the odd orders,
    # which no rank can show.  An order-m record scales as ||H||^m, so each
    # error is relative to ||H||_F^m
    x = locality._interior_draws(rng, n)
    exact = locality._row_values(locality._hierarchy(x, 3), x)[:, :-2].reshape(n, 2, 4, 3)[:, :, 2:]
    # [point, order, subsystem, row, column] -> column 1: c, then p1
    column = dynamics._time_differences(*_realized(x), _STENCIL_TIMES, _STENCIL)[..., 1]
    records = np.stack([column[..., 0].real, column[..., 0].imag, column[..., 1].real], axis=-1)
    scales = core._frobenius_norms(x[:, 8], x[:, 9], x[:, 10:].reshape(n, 3, 3))[:, None] ** (2, 3)
    errors = np.abs(records - exact.swapaxes(1, 2)).max(axis=(2, 3)) / scales
    return _dist(errors[:, 0]), _dist(errors[:, 1])


def run_check(name: str, rng, n: int | None = None) -> list:
    """``(label, error, tolerance)`` of each case of one check, which passes
    when ``error < tolerance``; ``n`` defaults to the count in ``verify``.

    ``rng`` is a seed or a ``numpy.random.Generator``, taken through
    ``np.random.default_rng``.  An ``n`` is taken through ``operator.index``,
    and one below 1 raises ``ValueError``; a check that draws nothing
    (count 0) takes any ``n``.
    """
    rng = np.random.default_rng(rng)
    _, check, default_n, cases = CHECKS[name]
    if n is None:
        n = default_n
    elif default_n:
        n = operator.index(n)
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n!r}")
    errors = np.atleast_1d(check(rng, n))
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
