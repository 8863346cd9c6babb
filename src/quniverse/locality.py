"""Solvability audit: can the mean energy move while both reduced records stay put?

For a sampled interior representation ``X0`` the audit stacks the
Jacobians of the two six-coordinate extended states, of the moduli norm
``sum R_k^2`` and of the mean energy into a 14x19 linear system whose
right-hand side asks for a pure energy increment.  A solution is a
direction in coordinate space that changes the mean energy at first order
while leaving both extended states (and the norm constraint) unchanged,
which rules out reconstructing the energy from those records alone.
``run_experiment`` repeats the audit over seeded samples, in chunks that
share one exact forward-mode Jacobian evaluation (``audit_jacobian``) and
one SVD, and aggregates the residual norms relative to the requested
increment.  The central-difference route (``numerical_jacobian``,
``build_system``) stays as the oracle it is checked against.

A hyperspherical chart of the moduli sphere gives an equivalent 13x18
system in intrinsic coordinates; ``transport_solution`` carries a solution
across and ``build_tangent_system`` rebuilds that system so the transport
can be checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import core
from .core import COORD_NAMES, ConfigRep
from .dynamics import pure_extended_coordinates, pure_extended_tangent

__all__ = [
    "FD_ORACLE_TOL",
    "JacobianEvaluationError",
    "SAMPLER_ID",
    "SampleResult",
    "SolvabilityReport",
    "audit_jacobian",
    "build_system",
    "build_tangent_system",
    "hyperspherical_backward",
    "hyperspherical_forward",
    "numerical_jacobian",
    "rep_norm_sq",
    "rep_observables",
    "run_experiment",
    "sample_interior_rep",
    "solve_least_squares",
    "transport_solution",
]

#: identifies the sampling law recorded in every report
SAMPLER_ID = "moduli:u01-normalized(reject |R|<1e-3); theta:u(0,2pi); omega:u(0,1); h:u(-1,1)"

#: solutions must be tangent to the moduli sphere to transport
TANGENCY_TOL = 1e-9

#: samples per exact Jacobian evaluation and per stacked SVD in
#: :func:`run_experiment`.  The report does not depend on it.  A 5000-sample
#: audit took 0.54 s of CPU at 8, 0.41 s at 16, 0.39 s at 32 and 0.45 s at
#: 64 (one BLAS thread, 2-vCPU Xeon VM).
AUDIT_CHUNK = 16


#: largest entrywise difference :func:`run_experiment` allows between the
#: exact audit matrix and its central-difference oracle at ``h_step``; the
#: two agree to 5.8e-10 at the default step 1e-6
FD_ORACLE_TOL = 1e-8


class JacobianEvaluationError(RuntimeError):
    """A displaced evaluation produced a non-finite value."""


# ---------------------------------------------------------------------------
# raw coordinate functions
#
# Everything below is evaluated on plain 19-vectors, including displaced
# points that violate normalization or gap positivity; the formulas are
# polynomial/trigonometric in the coordinates, so no validation belongs here.
# ---------------------------------------------------------------------------

def _psi_and_matrix(x: np.ndarray):
    psi = x[..., :4] * np.exp(1j * x[..., 4:8])
    matrix = core.hamiltonian_matrix(
        x[..., 8], x[..., 9], x[..., 10:19].reshape(x.shape[:-1] + (3, 3))
    )
    return psi, matrix


def rep_norm_sq(x):
    """Moduli norm ``sum R_k^2`` of a raw 19-vector, or of each in a ``(..., 19)`` stack."""
    x = np.asarray(x, dtype=float)
    return np.sum(x[..., :4] ** 2, axis=-1)


def rep_observables(x) -> np.ndarray:
    """All 14 audited quantities in system row order.

    Rows 0-5 are the extended state of A, 6-11 that of B, row 12 the
    moduli norm and row 13 the mean energy ``<psi|H|psi>``.  One product
    ``H psi`` serves all three: both extended states are read through
    :func:`quniverse.dynamics.pure_extended_coordinates`, the formula of
    :func:`quniverse.dynamics.extended_state`, and the energy is
    :func:`quniverse.core.expectation`'s ``vecdot(psi, H psi)``.
    Broadcasts over leading axes: a ``(..., 19)`` stack gives ``(..., 14)``,
    and each row of a stack is bitwise the row of its own 19-vector.
    """
    x = np.asarray(x, dtype=float)
    psi, matrix = _psi_and_matrix(x)
    hpsi = core._apply(matrix, psi)
    out = np.empty(x.shape[:-1] + (14,))
    out[..., 0:12] = pure_extended_coordinates(psi, hpsi).reshape(x.shape[:-1] + (12,))
    out[..., 12] = rep_norm_sq(x)
    out[..., 13] = np.vecdot(psi, hpsi).real
    return out


# H is linear in (omega_a, omega_b, h): its derivative along each of those 11
# coordinates is the Hamiltonian of one unit vector, [coordinate - 8, row, column]
_UNIT_HAMILTONIANS = core.hamiltonian_matrix(*np.eye(11)[:, :2].T, np.eye(11)[:, 2:].reshape(11, 3, 3))
_UNIT_HAMILTONIANS.setflags(write=False)


def audit_jacobian(x) -> np.ndarray:
    """Exact Jacobian of :func:`rep_observables`: ``(..., 19)`` coordinates give ``(..., 14, 19)``.

    Forward mode, with no step: one ``H psi`` per point, and the tangents of
    ``psi`` and ``H psi`` along the 19 coordinates.  Along ``R_k`` and
    ``theta_k`` only ``psi_k`` moves, by ``e^{i theta_k}`` and by
    ``i psi_k``, so ``d(H psi)`` is column ``k`` of ``H`` times that; along
    a gap or a coupling only ``H`` moves, by a constant unit Hamiltonian.
    Rows 0-11 read the tangents through
    :func:`quniverse.dynamics.pure_extended_tangent`, the derivative of the
    records' own formula; row 12 is ``2 R`` and row 13 the derivative of
    ``Re vecdot(psi, H psi)``.  No validation; each point's matrix is
    computed from its own coordinates alone, and a non-finite coordinate
    gives a non-finite matrix.
    """
    x = np.asarray(x, dtype=float)
    lead = x.shape[:-1]
    x = x.reshape(-1, 19)
    psi, matrix = _psi_and_matrix(x)
    hpsi = core._apply(matrix, psi)
    # tangents along the 19 coordinates, [point, coordinate, amplitude]
    k = np.arange(4)
    phase = np.exp(1j * x[:, 4:8])
    turned = 1j * psi
    dpsi = np.zeros((len(x), 19, 4), dtype=complex)
    dpsi[:, k, k] = phase
    dpsi[:, 4 + k, k] = turned
    dhpsi = np.empty_like(dpsi)
    columns = matrix.swapaxes(-1, -2)
    dhpsi[:, 0:4] = columns * phase[:, :, None]
    dhpsi[:, 4:8] = columns * turned[:, :, None]
    dhpsi[:, 8:] = core._apply(_UNIT_HAMILTONIANS, psi[:, None])
    jac = np.zeros((len(x), 14, 19))
    records = pure_extended_tangent(psi[:, None], hpsi[:, None], dpsi, dhpsi)
    jac[:, :12] = records.reshape(-1, 19, 12).swapaxes(-1, -2)
    jac[:, 12, k] = 2.0 * x[:, :4]
    jac[:, 13] = (np.vecdot(dpsi, hpsi[:, None]) + np.vecdot(psi[:, None], dhpsi)).real
    return jac.reshape(lead + (14, 19))


# ---------------------------------------------------------------------------
# finite differences and the linear system
# ---------------------------------------------------------------------------

def _as_coords(x0) -> np.ndarray:
    if isinstance(x0, ConfigRep):
        return x0.to_array()
    return np.array(x0, dtype=float)


def numerical_jacobian(f: Callable, x0, h_step: float = 1e-6) -> np.ndarray:
    """Two-point central-difference Jacobian of ``f`` at ``x0``.

    ``f`` maps a coordinate vector to ``k`` reals; entry ``(i, j)`` is
    ``(f_i(x0 + h e_j) - f_i(x0 - h e_j)) / (2 h)``.  The step 1e-6 is
    near optimal for double precision and smooth integrands.  For a 1-D
    ``x0``, ``f`` is called once per displaced point, ``2 d`` times in all.

    ``x0`` may also be an ``(m, d)`` stack of points when ``f`` maps an
    ``(n, d)`` stack to ``(n, k)`` (or ``(n,)``) values row by row.  Then
    ``f`` is called once, on the ``(2 d m, d)`` stack of every displaced
    copy of every point, and the result is the C-contiguous ``(m, k, d)``
    stack of Jacobians.  A non-finite value at any point raises, naming
    the first coordinate whose displacement produced one.
    """
    x0 = _as_coords(x0)
    if h_step <= 0:
        raise ValueError(f"h_step must be positive, got {h_step!r}")
    size = x0.shape[-1]
    # points[0, j] is x0 with coordinate j raised by h_step, points[1, j] with it lowered
    points = np.empty((2, size) + x0.shape)
    points[...] = x0
    j = np.arange(size)
    points[0, j, ..., j] += h_step
    points[1, j, ..., j] -= h_step
    flat = points.reshape(-1, size)
    if x0.ndim == 1:
        values = np.stack([np.asarray(f(x), dtype=float).reshape(-1) for x in flat])
    else:
        values = np.asarray(f(flat), dtype=float)
    values = values.reshape((2, size) + x0.shape[:-1] + (-1,))
    finite = np.all(np.isfinite(values.reshape(2, size, -1)), axis=(0, 2))
    if not np.all(finite):
        bad = int(np.argmin(finite))
        name = COORD_NAMES[bad] if size == len(COORD_NAMES) else f"coordinate {bad}"
        raise JacobianEvaluationError(f"non-finite value while displacing {name} by {h_step:g}")
    return np.ascontiguousarray(np.moveaxis((values[0] - values[1]) / (2.0 * h_step), 0, -1))


def _energy_rhs(rows: int, delta_e: float) -> np.ndarray:
    """Right-hand side asking for ``delta_e`` in the last row, zero elsewhere."""
    if delta_e == 0.0:
        raise ValueError("delta_e must be nonzero")
    rhs = np.zeros(rows)
    rhs[-1] = float(delta_e)
    return rhs


def build_system(x0, h_step: float = 1e-6, delta_e: float = 1.0):
    """Assemble the 14x19 audit system at one representation.

    Returns ``(matrix, rhs)``.  One Jacobian pass over
    :func:`rep_observables` yields the rows in order: extended state of
    A, extended state of B, moduli norm, mean energy.  The right-hand
    side requests the energy increment ``delta_e`` while pinning
    everything else to zero.

    ``x0`` may also be an ``(m, 19)`` stack; then ``matrix`` is the
    ``(m, 14, 19)`` stack of the systems, each bitwise the matrix built
    from its own representation, and the one ``rhs`` serves them all.
    """
    rhs = _energy_rhs(14, delta_e)
    return numerical_jacobian(rep_observables, x0, h_step), rhs


def _solve_stack(matrices: np.ndarray, rhs: np.ndarray):
    """Minimum-norm least-squares solutions of a ``(m, k, d)`` stack and their residual norms.

    One SVD of the whole stack; ``rhs`` is one ``(k,)`` vector shared by
    every system.  Returns ``(m, d)`` solutions and ``(m,)`` residual norms,
    each residual re-evaluated from its solution, not taken from the
    factorization.  Every row is bitwise the one a 1-system stack gives.
    """
    matrices = np.ascontiguousarray(matrices, dtype=float)
    u, s, vt = np.linalg.svd(matrices, full_matrices=False)
    # lstsq's rcond=None cutoff, s > eps * max(k, d) * s_1.  Machine precision
    # is required here: two exact identities among the reduced-state rows (a
    # pure global state forces det rho_A = det rho_B, and likewise for the
    # time derivative) leave the true matrix with rank 12, so a coarser
    # cutoff truncates noise-scale directions that the right-hand side still
    # overlaps and inflates residuals above 1e-13.
    kept = s > np.finfo(float).eps * max(matrices.shape[-2:]) * s[..., :1]
    coefficients = np.divide(rhs @ u, s, out=np.zeros_like(s), where=kept)
    solutions = (coefficients[..., None, :] @ vt)[..., 0, :]
    misfit = (matrices @ solutions[..., None])[..., 0] - rhs
    return solutions, np.sqrt(np.vecdot(misfit, misfit))


def solve_least_squares(system):
    """Minimum-norm least-squares solution and its achieved residual norm.

    ``system`` is one ``(matrix, rhs)`` pair; returns ``(solution, float)``.
    The residual is re-evaluated from the returned solution, not taken from
    the factorization.  :func:`run_experiment` solves its samples a chunk
    at a time through the same stacked solver, so this residual is bitwise
    the one the audit reports for the same matrix.
    """
    matrix, rhs = (np.asarray(a, dtype=float) for a in system)
    solutions, residuals = _solve_stack(matrix[None], rhs)
    return solutions[0], float(residuals[0])


# ---------------------------------------------------------------------------
# sampling and the experiment loop
# ---------------------------------------------------------------------------

def _open_uniform(rng: np.random.Generator, low: float, high: float, size):
    # uniform() is half-open [low, high); redraw exact boundary hits so the
    # sample stays in the open interval
    while True:
        values = rng.uniform(low, high, size)
        if np.all(values > low):
            return values


def sample_interior_rep(rng) -> ConfigRep:
    """Draw one representation from the interior of the configuration surface.

    Moduli come from the unit box, rejected when the norm falls below
    1e-3, then normalized onto the sphere; phases from the open interval
    (0, 2pi); gaps from (0, 1); couplings from (-1, 1).  Only energy
    ratios matter, so bounded gap and coupling ranges lose no generality.
    ``rng`` is a seed or a ``numpy.random.Generator``; a given seed
    reproduces the sample bitwise.  :func:`run_experiment` draws its
    samples in one call each and falls back on this sampler, which stays
    the reference for those draws.
    """
    rng = np.random.default_rng(rng)
    while True:
        raw = rng.uniform(0.0, 1.0, 4)
        norm = float(np.linalg.norm(raw))
        if norm > 1e-3 and np.all(raw > 0.0):
            break
    moduli = raw / norm
    theta = _open_uniform(rng, 0.0, 2.0 * np.pi, 4)
    omega = _open_uniform(rng, 0.0, 1.0, 2)
    couplings = _open_uniform(rng, -1.0, 1.0, (3, 3))
    return ConfigRep(
        r=moduli, theta=theta, omega_a=omega[0], omega_b=omega[1], h=couplings
    )


# bounds of the 19 coordinates in the order sample_interior_rep draws them:
# moduli (before normalization), phases, gaps, couplings
_LOW = np.array([0.0] * 10 + [-1.0] * 9)
_SPAN = np.array([1.0] * 4 + [2.0 * np.pi] * 4 + [1.0] * 2 + [2.0] * 9)


def _substream(seed: int, index: int) -> np.random.Generator:
    """Generator of sample ``index`` of a run with master ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _draw_chunk(seed: int, indices) -> np.ndarray:
    """Checked ``(len(indices), 19)`` coordinates of the samples ``indices``.

    The row of sample ``i`` is bitwise
    ``sample_interior_rep(_substream(seed, i)).to_array()``:
    the 19 doubles that sampler consumes are drawn in one call and mapped
    as ``Generator.uniform`` maps them, ``low + span * u``.  A draw the
    sampler would reject (a zero modulus, a norm at or below 1e-3, a value
    on an interval's lower bound) is redone by the sampler itself.
    """
    x = np.empty((len(indices), 19))
    for row, index in zip(x, indices):
        _substream(seed, index).random(out=row)
    x *= _SPAN
    x += _LOW
    # a 1-D np.linalg.norm is sqrt(dot(v, v)); vecdot gives each row those
    # bits, which norm(axis=1) does not
    norms = np.sqrt(np.vecdot(x[:, :4], x[:, :4]))
    accepted = np.all(x > _LOW, axis=1) & (norms > 1e-3)
    np.divide(x[:, :4], norms[:, None], out=x[:, :4], where=accepted[:, None])
    for row in np.flatnonzero(~accepted):
        x[row] = sample_interior_rep(_substream(seed, indices[row])).to_array()
    return core.check_reps(x)


@dataclass(frozen=True, eq=False)
class SampleResult:
    """One audited representation with its residual verdict.

    ``index`` is the sample's position in the run (its substream key);
    ``residual_norm`` is relative to the requested energy increment,
    ``||A dx - b|| / |delta_e|``.
    """

    index: int
    rep: ConfigRep
    residual_norm: float
    solvable: bool


@dataclass(frozen=True)
class SolvabilityReport:
    """Aggregate outcome of a seeded solvability experiment.

    Residuals are relative to the requested energy increment; the maximum
    and median are ``None`` when every sample failed.
    """

    n_samples: int
    h_step: float
    threshold: float
    seed: int
    n_solvable: int
    max_residual: float | None
    median_residual: float | None
    sampler: str = SAMPLER_ID
    failed_indices: tuple = ()
    samples: tuple | None = None

    def to_json_dict(self, per_sample: bool = False) -> dict:
        """Flat dictionary ready for JSON serialization."""
        out = {
            "n_samples": self.n_samples,
            "h_step": self.h_step,
            "threshold": self.threshold,
            "seed": self.seed,
            "n_solvable": self.n_solvable,
            "max_residual": self.max_residual,
            "median_residual": self.median_residual,
            "sampler": self.sampler,
            "failed_indices": list(self.failed_indices),
        }
        if per_sample:
            if self.samples is None:
                raise ValueError("per-sample data was not kept for this run")
            out["samples"] = [[s.index, s.residual_norm] for s in self.samples]
        return out


def _check_oracle(x0: np.ndarray, exact: np.ndarray, h_step: float) -> None:
    """Raise ``ValueError`` unless ``build_system(x0, h_step)`` is within
    :data:`FD_ORACLE_TOL` of the exact audit matrix ``exact`` at ``x0``."""
    failed = f"h_step {h_step:g} fails the central-difference oracle"
    try:
        oracle = build_system(x0[None], h_step)[0][0]
    except JacobianEvaluationError as exc:
        raise ValueError(f"{failed}: {exc}") from None
    difference = float(np.max(np.abs(oracle - exact)))
    if not difference <= FD_ORACLE_TOL:
        raise ValueError(f"{failed}: it misses the exact Jacobian by {difference:.3g}, "
                         f"above {FD_ORACLE_TOL:g}")


def run_experiment(
    n: int,
    seed: int,
    h_step: float = 1e-6,
    threshold: float = 1e-12,
    delta_e: float = 1.0,
    keep_samples: bool = False,
) -> SolvabilityReport:
    """Audit ``n`` freshly sampled interior representations.

    Each sample draws from its own substream ``(seed, index)``, so the
    report is identical however the loop is scheduled; samples are drawn
    and checked as one ``(m, 19)`` array per chunk of :data:`AUDIT_CHUNK`
    and audited through one exact Jacobian evaluation
    (:func:`audit_jacobian`) and one stacked least-squares solve each
    (bitwise what :func:`solve_least_squares` gives one sample).  Failures,
    verdicts and kept residuals are read off each chunk's residual vector;
    a :class:`ConfigRep` is built, one sample at a time, only for the
    samples ``keep_samples`` keeps.  A residual is judged relative to the
    request, ``||A dx - b|| / |delta_e|``, because it scales with
    ``delta_e``.  Samples whose matrix turns non-finite are recorded in
    ``failed_indices`` and excluded from ``n_solvable`` rather than
    aborting the run; numpy's overflow and invalid-value warnings are
    silenced.

    ``h_step`` is the step of a central-difference oracle run once, on the
    first sample (skipped if that sample failed): if :func:`build_system`
    at that step misses the exact matrix by more than
    :data:`FD_ORACLE_TOL`, or turns non-finite, ``ValueError`` is raised.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n!r}")
    rhs = _energy_rhs(14, delta_e)
    scale = abs(float(delta_e))
    residual_chunks = []
    failed = []
    samples = []
    n_solvable = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, AUDIT_CHUNK):
            indices = range(start, min(start + AUDIT_CHUNK, n))
            coords = _draw_chunk(seed, indices)
            matrices = audit_jacobian(coords)
            evaluated = np.all(np.isfinite(matrices), axis=(1, 2))
            if start == 0 and evaluated[0]:
                _check_oracle(coords[0], matrices[0], h_step)
            chunk_residuals = np.full(len(coords), np.nan)
            chunk_residuals[evaluated] = _solve_stack(matrices[evaluated], rhs)[1] / scale
            finite = np.isfinite(chunk_residuals)
            failed.extend(indices[row] for row in np.flatnonzero(~finite).tolist())
            kept = chunk_residuals[finite]
            n_solvable += int(np.count_nonzero(kept < threshold))
            residual_chunks.append(kept)
            if keep_samples:
                for row in np.flatnonzero(finite).tolist():
                    residual = float(chunk_residuals[row])
                    samples.append(
                        SampleResult(
                            index=indices[row],
                            rep=ConfigRep.from_array(coords[row]),
                            residual_norm=residual,
                            solvable=bool(residual < threshold),
                        )
                    )
    residuals = np.concatenate(residual_chunks)
    return SolvabilityReport(
        n_samples=n,
        h_step=float(h_step),
        threshold=float(threshold),
        seed=int(seed),
        n_solvable=n_solvable,
        max_residual=float(np.max(residuals)) if residuals.size else None,
        median_residual=float(np.median(residuals)) if residuals.size else None,
        failed_indices=tuple(failed),
        samples=tuple(samples) if keep_samples else None,
    )


# ---------------------------------------------------------------------------
# hyperspherical chart of the moduli sphere
# ---------------------------------------------------------------------------

def hyperspherical_forward(moduli):
    """Angles ``(r, alpha, beta, gamma)`` of a moduli 4-vector.

    Inverse of :func:`hyperspherical_backward`; undefined where a sine in
    the chain vanishes (any point with ``R0 = R2 = R3 = 0`` or
    ``R0 = R3 = 0``), which the interior sampler never produces.
    """
    moduli = np.asarray(moduli, dtype=float)
    if moduli.shape != (4,):
        raise ValueError(f"expected 4 moduli, got shape {moduli.shape}")
    radius = float(np.linalg.norm(moduli))
    if radius == 0.0:
        raise ValueError("zero moduli vector has no hyperspherical angles")
    s1 = float(np.sqrt(moduli[0] ** 2 + moduli[2] ** 2 + moduli[3] ** 2))
    s2 = float(np.hypot(moduli[0], moduli[3]))
    if s1 < 1e-12 * radius or s2 < 1e-12 * radius:
        raise ValueError("pathological point: a sine in the angle chain vanishes")
    alpha = float(np.arccos(np.clip(moduli[1] / radius, -1.0, 1.0)))
    beta = float(np.arccos(np.clip(moduli[2] / s1, -1.0, 1.0)))
    gamma = float(np.mod(np.arctan2(moduli[0], moduli[3]), 2.0 * np.pi))
    return radius, alpha, beta, gamma


def hyperspherical_backward(radius: float, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Moduli 4-vector of hyperspherical angles, ordered ``(R0, R1, R2, R3)``."""
    sin_a, cos_a = np.sin(alpha), np.cos(alpha)
    sin_b, cos_b = np.sin(beta), np.cos(beta)
    sin_g, cos_g = np.sin(gamma), np.cos(gamma)
    return radius * np.array(
        [sin_a * sin_b * sin_g, cos_a, sin_a * cos_b, sin_a * sin_b * cos_g]
    )


def _forward_jacobian(radius, alpha, beta, gamma) -> np.ndarray:
    """d(R0..R3) / d(r, alpha, beta, gamma) of the backward map."""
    sin_a, cos_a = np.sin(alpha), np.cos(alpha)
    sin_b, cos_b = np.sin(beta), np.cos(beta)
    sin_g, cos_g = np.sin(gamma), np.cos(gamma)
    r = radius
    return np.array(
        [
            [sin_a * sin_b * sin_g, r * cos_a * sin_b * sin_g, r * sin_a * cos_b * sin_g, r * sin_a * sin_b * cos_g],
            [cos_a, -r * sin_a, 0.0, 0.0],
            [sin_a * cos_b, r * cos_a * cos_b, -r * sin_a * sin_b, 0.0],
            [sin_a * sin_b * cos_g, r * cos_a * sin_b * cos_g, r * sin_a * cos_b * cos_g, -r * sin_a * sin_b * sin_g],
        ]
    )


def transport_solution(dx, x0) -> np.ndarray:
    """Carry a 19-coordinate solution into the 18 intrinsic coordinates.

    The moduli increments must be tangent to the sphere
    (``|sum R_k dR_k| <= 1e-9``, enforced); they map to the three angle
    increments through the inverted chart Jacobian, in which case the
    radial increment vanishes identically.  The remaining 15 increments
    copy over unchanged.
    """
    x0 = _as_coords(x0)
    dx = np.asarray(dx, dtype=float)
    if dx.shape != (19,):
        raise ValueError(f"expected a 19-coordinate solution, got shape {dx.shape}")
    radial = float(np.dot(x0[:4], dx[:4]))
    if abs(radial) > TANGENCY_TOL:
        raise ValueError(
            f"solution is not tangent to the moduli sphere: |sum R_k dR_k| = {abs(radial):.3e}"
        )
    chart = _forward_jacobian(*hyperspherical_forward(x0[:4]))
    d_angles = np.linalg.inv(chart)[1:] @ dx[:4]
    return np.concatenate([d_angles, dx[4:]])


def _tangent_observables(y: np.ndarray) -> np.ndarray:
    x = np.empty(19)
    x[:4] = hyperspherical_backward(1.0, y[0], y[1], y[2])
    x[4:] = y[3:]
    observables = rep_observables(x)
    # the norm row is identically 1 on the sphere chart
    return np.concatenate([observables[:12], observables[13:]])


def build_tangent_system(x0, h_step: float = 1e-6, delta_e: float = 1.0):
    """13x18 audit system in the intrinsic chart at the same base point.

    Returns ``(matrix, rhs)``.  A transported solution of the
    19-coordinate system must satisfy this one up to finite-difference
    noise; that equivalence is what justifies auditing with the extra
    norm row instead of intrinsic coordinates.
    """
    rhs = _energy_rhs(13, delta_e)
    x0 = _as_coords(x0)
    _, alpha, beta, gamma = hyperspherical_forward(x0[:4])
    y0 = np.concatenate([[alpha, beta, gamma], x0[4:]])
    return numerical_jacobian(_tangent_observables, y0, h_step), rhs
