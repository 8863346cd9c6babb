"""Solvability audit: can the mean energy move while both reduced records stay put?

For a sampled interior representation ``X0`` the audit stacks the
Jacobians of the two six-coordinate extended states, of the moduli norm
``sum R_k^2`` and of the mean energy into a 14x19 linear system whose
right-hand side asks for a unit energy increment.  A solution is a
direction in coordinate space that changes the mean energy at first order
while leaving both extended states (and the norm constraint) unchanged,
which rules out reconstructing the energy from those records alone.
``run_experiment`` repeats the audit over seeded samples; its report is
the vector of their residual norms relative to any requested increment,
``report.residuals`` (NaN for a sample whose matrix turned non-finite),
and every figure of the report is read off it.  It takes
``AUDIT_BLOCK`` samples at a time: their coordinates come from one
``_uniforms`` pass, their exact Jacobians (``audit_jacobian``) from
one call per ``AUDIT_CHUNK`` samples, and their least-squares
solutions from one ``_solve_deflated`` call.  Once per run, on the first
sample, the exact matrix is checked against the central-difference one
(``build_system``) at the run's ``h_step``.  Blocks do not depend on each
other, so they run on one thread per CPU the process may use.

The solve needs no SVD.  A pure global state gives both reduced states the
same spectrum, so ``det rho_A = det rho_B`` and its time derivative hold
identically; their gradients ``n1`` and ``n2`` (``_schmidt_normals``) are
left null vectors of every exact audit matrix, which has rank 12, and both
are zero in the energy row.  ``n1`` vanishes on the derivative rows and
``n2`` there repeats ``n1`` on the state rows, so the state row ``p`` of
largest ``|n1|`` and the derivative row ``p + 3`` are combinations of the
other 12 rows, with zero right-hand side.  Dropping them leaves a 12x19
system of full row rank, whose minimum-norm solution is one scaled column
of the ``Q`` of a single Householder QR, applied from the stored
reflectors.  A sample this cannot certify (a vanishing pivot, a small
diagonal of ``R``, a non-finite solution), such as a Bell state or a
product state without coupling, goes to the SVD (``_solve_stack``, the
reference, also behind ``solve_least_squares``).  Every residual is
re-evaluated against the full 14-row matrix, so a wrong deflation would
show as a large residual, never as a false "solvable".

Each sample has its own ``SeedSequence(entropy=seed, spawn_key=(index,))``
substream (``_substream``, the bitwise reference), so sample ``i``'s
coordinates are ``sample_interior_rep(np.random.SeedSequence(entropy=seed,
spawn_key=(i,)))``; a block of samples is
drawn at once by ``_uniforms``, a vectorized re-derivation of numpy's
SeedSequence -> PCG64 chain that reaches each sample's 19 generator
states by jump-ahead rather than by 19 sequential steps, so reports are
byte-identical to drawing each sample from its own ``Generator``.  The
central-difference route (``numerical_jacobian``, one call for every
displaced point, and ``build_system``) stays as the oracle.

The exact Jacobian has one engine for every derivative order,
``_hierarchy``: each record's ``n``-th time derivative is a quadratic form
``<psi|Q|psi>`` built from ``phi_j = (-i s H)^j psi``, so one vector ``Q
psi`` per row gives its value and its moduli and phase columns, and the
derivatives of the ``phi_j`` along each gap and coupling give the rest.
The order is only the bound of its loops; ``audit_jacobian`` is its order
1.  Its orders 2 and 3 are checked against central differences of its own
values and, independently, against time differences of the textbook
partial traces along the propagated trajectory (``quniverse verify``).

A hyperspherical chart of the moduli sphere gives an equivalent 13x18
system in intrinsic coordinates, ``build_tangent_system``: the exact
pullback of ``audit_jacobian`` through the chart, without the norm row.
``transport_solution`` carries a solution across, where it meets that
system to rounding at any moduli radius: both read the chart Jacobian at
``x0``'s own radius and refuse the same malformed base points.  Both
directions of the chart take stacks: ``hyperspherical_forward`` maps
``(..., 4)`` moduli to four arrays of angles, each row bitwise the four
floats of its own 4-vector, by one ``hypot`` path at every scale, and
``hyperspherical_backward`` broadcasts over its angles.
"""

from __future__ import annotations

import contextvars
import math
import operator
import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import core
from .core import COORD_NAMES, ConfigRep
from .dynamics import _rates, pure_extended_coordinates

__all__ = [
    "FD_ORACLE_TOL",
    "JacobianEvaluationError",
    "SAMPLER_ID",
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

#: samples per exact Jacobian evaluation in :func:`run_experiment`.  The
#: report does not depend on it.  In process, ``run_experiment(5000, s)``
#: at AUDIT_BLOCK = 512 ran x1.15-1.18, x1.24-1.28 and x1.22-1.27 faster
#: than at (chunk, block) = (128, 256) with chunks of 128, 256 and 512 on
#: two workers, and x1.06-1.14, x1.06-1.12 and x1.06-1.12 under ``taskset
#: -c 0`` (pair-ratio medians of 40 interleaved runs in each of 4
#: processes, one BLAS thread, 2-vCPU Xeon VM, numpy 2.4; BENCH_42.json).
#: The Jacobian's transients (tracemalloc) are 1.05 MB at 128 samples,
#: 1.85 MB at 256 and 3.53 MB at 512, where the chunk is the whole block.
AUDIT_CHUNK = 256

#: samples drawn, mapped, checked and solved at a time in
#: :func:`run_experiment`: one :func:`_uniforms` pass, one
#: :func:`_solve_deflated` call, and :data:`AUDIT_CHUNK`-sample Jacobian
#: calls in between, so memory does not grow with ``n``.  The report does
#: not depend on it.  Measured as for AUDIT_CHUNK, at chunks of 256: blocks
#: of 256, 384, 512, 768 and 1024 ran x1.05-1.08, x1.13-1.14, x1.24-1.28,
#: x1.25-1.30 and x1.18-1.30 on two workers, x0.98-1.03, x1.02-1.07,
#: x1.06-1.12, x1.07-1.15 and x1.06-1.11 on one core, and eight ``sample``
#: runs in one process peaked at 37.7, 38.5, 39.4, 42.4 and 46.3 MB of RSS
#: (36.4 MB at (128, 256)).  Past 512 a block buys no clear speed for 3 MB
#: or more; a 512-sample solve holds 1.91 MB of transients, 0.96 MB at 256.
AUDIT_BLOCK = 512

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
    psi, matrix = core._psi_and_matrix(x)
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


def _state_forms() -> np.ndarray:
    """``(2, 3, 4, 4)`` Hermitian ``M`` with ``<psi|M|psi>`` the state half of each record.

    Read off :func:`quniverse.dynamics.pure_extended_coordinates` by
    polarization, ``M_ij = (f(e_i + e_j) - f(e_i) - f(e_j)) / 2 - i (f(e_i +
    i e_j) - f(e_i) - f(e_j)) / 2``, so the records keep one hand-written
    formula.  Every entry is ``0``, ``1/2``, ``i/2`` or ``1`` up to sign, and
    comes out exactly.
    """
    basis = np.eye(4, dtype=complex)
    pairs = np.stack([basis[:, None] + basis, basis[:, None] + 1j * basis])

    def form(psi):
        return pure_extended_coordinates(psi, np.zeros_like(psi))[..., :3]

    diagonal = form(basis)
    excess = form(pairs) - diagonal[:, None] - diagonal
    forms = 0.5 * excess[0] - 0.5j * excess[1]
    # [row i, column j, subsystem, k] -> [subsystem, k, row, column]
    return np.ascontiguousarray(forms.transpose(2, 3, 0, 1))


# the state forms' rows and the unit Hamiltonians' rows, each stacked as one matrix
_FORM_ROWS = _state_forms().reshape(24, 4)
_FORM_ROWS.setflags(write=False)
_UNIT_ROWS = _UNIT_HAMILTONIANS.reshape(44, 4)


def _times(matrix: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``H v_r`` for each row ``v_r`` of a ``(n, k, 4)`` stack: one ``(4, 4) @ (4, k)`` product per point."""
    return (matrix @ v.swapaxes(-1, -2)).swapaxes(-1, -2)


def _hierarchy(x, order: int) -> np.ndarray:
    """Exact Jacobian of the records and their time derivatives up to ``order``.

    ``(..., 19)`` coordinates give ``(..., r, 19)``, ``r = 6 (order + 1) +
    2``, and :func:`_row_values` reads the rows' values off it.  The rows
    are A's records, then B's, each as orders ``0..order`` of ``(re c, im
    c, p1)``, then the moduli norm and the mean energy; at order 1 that is
    the row order of :func:`rep_observables`.

    With ``phi_0 = psi`` and ``phi_j = -i s H phi_{j-1}`` (``s`` the sign
    of ``rho_dot``, which enters only through
    :func:`quniverse.dynamics._rates`), the order-``n`` record of a state
    form ``M`` (:func:`_state_forms`) is ``sum_j C(n, j) <phi_j|M|phi_{n -
    j}>``, a quadratic form ``<psi|Q|psi>`` in the amplitudes.  So one
    vector per row, ``w = Q psi = sum_j C(n, j) (i s H)^{n - j} M phi_j``
    (Horner's rule), gives its moduli and phase columns: ``psi_k`` moves by ``t_k = e^{i theta_k}`` along
    ``R_k`` and by ``t_k = i psi_k`` along ``theta_k``, and the column is
    ``2 Re(conj(w_k) t_k)``.  The norm row has ``w = psi`` and the energy
    row ``w = H psi``.  Along a gap or a coupling only ``H`` moves, by a
    constant unit Hamiltonian ``U``: ``phi_i`` moves by ``dphi_i = -i s (H
    dphi_{i - 1} + U phi_{i - 1})`` from ``dphi_0 = 0``, an order-``n``
    record by ``2 Re sum_j C(n, j) <M phi_j, dphi_{n - j}>``, the energy
    row by ``Re <psi|U psi>``, and the norm row not at all.  The norm row's
    columns are written exactly, ``2 R`` and zeros.  The order is only the
    bound of these loops.  No validation; each point's rows are computed
    from its own coordinates alone, and a non-finite coordinate gives
    non-finite rows.  A stack of any memory layout gives the bits of its
    C-ordered copy.
    """
    # the (re, im) views below need the layout of a C-ordered x, which they inherit
    x = np.ascontiguousarray(x, dtype=float)
    lead = x.shape[:-1]
    x = x.reshape(-1, 19)
    n, rows = len(x), 6 * (order + 1) + 2
    psi, matrix = core._psi_and_matrix(x)
    hpsi = core._apply(matrix, psi)
    phi = [psi, _rates(hpsi)]
    while len(phi) <= order:
        phi.append(_rates(core._apply(matrix, phi[-1])))
    # forms[j][:, m] = M_m phi_j for the six state forms, A's then B's
    forms = [core._apply(_FORM_ROWS, p).reshape(n, 6, 4) for p in phi[:order + 1]]
    # w[:, r] = Q_r psi; the record rows as [point, subsystem, order, k, amplitude].
    # Each reshape written through below only splits an axis, so it is a view.
    w = np.empty((n, rows, 4), dtype=complex)
    records = w[:, :-2].reshape(n, 2, order + 1, 3, 4)
    for m in range(order + 1):
        horner = forms[0]
        for j in range(1, m + 1):
            # a complex product by 1 can flip the sign of a zero, so 1 is not applied
            coefficient = math.comb(m, j)
            term = forms[j] if coefficient == 1 else coefficient * forms[j]
            # i s H v is minus the rate of H v
            horner = term - _rates(_times(matrix, horner))
        records[:, :, m] = horner.reshape(n, 2, 3, 4)
    w[:, -2] = psi
    w[:, -1] = hpsi
    # 2 conj(t), so that Re(w 2 conj(t)) = 2 Re(conj(w) t)
    tangents = np.empty((n, 1, 2, 4), dtype=complex)
    tangents[:, 0, 0] = 2.0 * np.exp(-1j * x[:, 4:8])
    tangents[:, 0, 1] = -2j * psi.conj()
    jac = np.empty((n, rows, 19))
    jac[:, :, :8].reshape(n, rows, 2, 4)[...] = (w[:, :, None] * tangents).real
    jac[:, -2, :4] = 2.0 * x[:, :4]
    jac[:, -2, 4:] = 0.0
    # Re(conj(a) b) of complex 4-vectors is the dot product of their (re, im) views
    unit = core._apply(_UNIT_ROWS, psi).reshape(n, 11, 4)
    # dphi[i][:, h] = d phi_i / d(coordinate 8 + h); dphi_0 = 0 is never read
    dphi = [None, _rates(unit)]
    while len(dphi) <= order:
        moved = core._apply(_UNIT_ROWS, phi[len(dphi) - 1]).reshape(n, 11, 4)
        moved += _times(matrix, dphi[-1])
        dphi.append(_rates(moved))
    gaps = jac[:, :-2, 8:].reshape(n, 2, order + 1, 3, 11)
    gaps[:, :, 0] = 0.0
    for m in range(1, order + 1):
        products = [forms[j].view(float) @ dphi[m - j].view(float).swapaxes(-1, -2) for j in range(m)]
        total = products[0]
        for j in range(1, m):
            total += math.comb(m, j) * products[j]
        gaps[:, :, m] = 2.0 * total.reshape(n, 2, 3, 11)
    jac[:, -1, 8:] = (unit.view(float) @ psi.view(float)[:, :, None])[..., 0]
    return jac.reshape(lead + (rows, 19))


def _row_values(matrices: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Values of the rows of exact Jacobians ``(..., r, 19)`` at their coordinates ``(..., 19)``.

    Every row of :func:`_hierarchy` is quadratic in the moduli, so by
    Euler's theorem its value is half its moduli gradient dotted with the
    moduli, ``Re <psi, Q psi>``.
    """
    return 0.5 * (matrices[..., :4] @ coords[..., :4, None])[..., 0]


def audit_jacobian(x) -> np.ndarray:
    """Exact Jacobian of :func:`rep_observables`: ``(..., 19)`` coordinates give ``(..., 14, 19)``.

    The order-1 read of :func:`_hierarchy`: rows 0-5 are A's records and
    their first time derivatives, rows 6-11 B's, row 12 the moduli norm and
    row 13 the mean energy.  Each point's matrix is computed from its own
    coordinates alone, with no validation; a non-finite coordinate gives a
    non-finite matrix.
    """
    return _hierarchy(x, 1)


# ---------------------------------------------------------------------------
# finite differences and the linear system
# ---------------------------------------------------------------------------

def _as_coords(x0) -> np.ndarray:
    if isinstance(x0, ConfigRep):
        return x0.to_array()
    return np.array(x0, dtype=float)


def numerical_jacobian(f: Callable, x0, h_step: float = 1e-6) -> np.ndarray:
    """Two-point central-difference Jacobian of ``f`` at ``x0``.

    ``f`` maps an ``(n, d)`` stack of coordinate vectors to ``(n, k)`` (or
    ``(n,)``) reals row by row; entry ``(i, j)`` is ``(f_i(x0 + h e_j) -
    f_i(x0 - h e_j)) / (2 h)``.  The step 1e-6 is near optimal for double
    precision and smooth integrands.  ``f`` is called once, on the ``(2 d m,
    d)`` stack of every displaced copy of the ``m`` points of ``x0``: a
    ``d``-vector (``m = 1``) gives the ``(k, d)`` Jacobian, an ``(m, d)``
    stack the C-contiguous ``(m, k, d)`` stack of them.  A non-finite value
    at any point raises, naming the first coordinate whose displacement
    produced one.
    """
    x0 = _as_coords(x0)
    if not 0 < h_step < np.inf:
        raise ValueError(f"h_step must be positive and finite, got {h_step!r}")
    size = x0.shape[-1]
    # points[0, j] is x0 with coordinate j raised by h_step, points[1, j] with it lowered
    points = np.empty((2, size) + x0.shape)
    points[...] = x0
    j = np.arange(size)
    points[0, j, ..., j] += h_step
    points[1, j, ..., j] -= h_step
    values = np.asarray(f(points.reshape(-1, size)), dtype=float).reshape((2, size) + x0.shape[:-1] + (-1,))
    finite = np.all(np.isfinite(values.reshape(2, size, -1)), axis=(0, 2))
    if not np.all(finite):
        bad = int(np.argmin(finite))
        name = COORD_NAMES[bad] if size == len(COORD_NAMES) else f"coordinate {bad}"
        raise JacobianEvaluationError(f"non-finite value while displacing {name} by {h_step:g}")
    return np.ascontiguousarray(np.moveaxis((values[0] - values[1]) / (2.0 * h_step), 0, -1))


def build_system(x0, h_step: float = 1e-6) -> np.ndarray:
    """Central-difference matrix of the 14x19 audit system at one representation.

    One Jacobian pass over :func:`rep_observables` yields the rows in
    order: extended state of A, extended state of B, moduli norm, mean
    energy.  The audit asks of it one request, a unit energy increment
    with everything else pinned, which the solvers here take as given; by
    linearity it answers every request.

    ``x0`` may also be an ``(m, 19)`` stack; then the result is the
    ``(m, 14, 19)`` stack of the matrices, each bitwise the matrix built
    from its own representation.
    """
    return numerical_jacobian(rep_observables, x0, h_step)


def _cutoff(matrices: np.ndarray) -> float:
    """lstsq's ``rcond=None`` cutoff ``eps * max(k, d)`` of a ``(..., k, d)`` stack.

    Machine precision is required here: two exact identities among the
    reduced-state rows (a pure global state forces det rho_A = det rho_B,
    and likewise for the time derivative) leave the true matrix with rank
    12, so a coarser cutoff truncates noise-scale directions that the
    request still overlaps and inflates residuals above 1e-13.
    """
    return np.finfo(float).eps * max(matrices.shape[-2:])


def _solve_stack(matrices: np.ndarray):
    """Minimum-norm least-squares solutions of a ``(m, k, d)`` stack and their residual norms.

    One SVD of the whole stack; every system is asked for the unit request
    in its last row, zero elsewhere.  Returns ``(m, d)`` solutions and
    ``(m,)`` residual norms (:func:`_residual_norms`).  Every row is
    bitwise the one a 1-system stack gives.  The reference for
    :func:`_solve_deflated`, which hands it the samples its 12-row solve
    does not certify.
    """
    matrices = np.ascontiguousarray(matrices, dtype=float)
    u, s, vt = np.linalg.svd(matrices, full_matrices=False)
    kept = s > _cutoff(matrices) * s[..., :1]
    # the request's components along U's columns are U's last row
    coefficients = np.divide(u[..., -1, :], s, out=np.zeros_like(s), where=kept)
    solutions = (coefficients[..., None, :] @ vt)[..., 0, :]
    return solutions, _residual_norms(matrices, solutions)


def _residual_norms(matrices: np.ndarray, solutions: np.ndarray) -> np.ndarray:
    """``|A x - e|`` for each system ``A`` of a ``(..., k, d)`` stack and its solution ``x``.

    ``e`` is the unit request in the last row; one ``(k, d)`` system and
    its ``(d,)`` solution give a scalar.  Re-evaluated from the
    solution, not taken from a factorization.  The least-squares misfit is
    at most 1 (``x = 0`` achieves 1) up to rounding, so its squares cannot
    overflow.
    """
    misfit = (matrices @ solutions[..., None])[..., 0]
    misfit[..., -1] -= 1.0
    return np.sqrt(np.vecdot(misfit, misfit))


def _schmidt_normals(values: np.ndarray) -> np.ndarray:
    """Left null vectors of the audit matrix, ``(..., 14, 2)``, from the values of rows 0-12.

    A pure global state gives both reduced states the same spectrum
    (Schmidt decomposition), so ``det rho_A = det rho_B`` at every point
    and time, with ``det = (N - p1) p1 - |c|^2`` in record coordinates and
    ``N`` the norm row; the time derivative is ``(N - 2 p1) p1dot - 2
    Re(conj(c) cdot)``, ``N`` being conserved.  Column 0 is the gradient
    of ``det_A - det_B`` over the 14 rows, column 1 that of its time
    derivative; both are zero in the energy slot, so ``n^T A = 0`` for
    every audit matrix ``A`` while ``n^T e_13 = 0``.  ``values`` is
    ``(..., 13)`` or wider: A's record, B's record, the norm.
    """
    lead = values.shape[:-1]
    records = values[..., :12].reshape(lead + (2, 6))
    # the gradient of det is (-2 re_c, -2 im_c, N - 2 p1) in the state's slots;
    # that of its derivative is (-2 re_cdot, -2 im_cdot, -2 p1dot) there and
    # det's gradient again in the derivative's slots; B's enter negated
    grad = -2.0 * records
    grad[..., 2] += values[..., 12, None]
    grad[..., 1, :] *= -1.0
    normals = np.zeros(lead + (2, 14))
    slots = normals[..., :12].reshape(lead + (2, 2, 6))
    slots[..., 0, :, :3] = grad[..., :3]
    slots[..., 1, :, :3] = grad[..., 3:]
    slots[..., 1, :, 3:] = grad[..., :3]
    # d det / dN is p1, and d/dN of its derivative p1dot
    normals[..., 12] = records[..., 0, 2::3] - records[..., 1, 2::3]
    return normals.swapaxes(-1, -2)


def _certified(r: np.ndarray, rcond: float) -> np.ndarray:
    """Whether each triangular factor of a ``(m, k, d)`` stack has every
    ``|R_ii|`` above ``rcond`` times the largest."""
    diagonal = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    return np.all(diagonal > rcond * np.max(diagonal, axis=-1, keepdims=True), axis=-1)


# the state rows of both records, where the first Schmidt normal may pivot, and
# for each pivot p the 12 rows left once p and its derivative row p + 3 are
# dropped; the energy row stays last
_STATE_ROWS = np.array([0, 1, 2, 6, 7, 8])
_KEPT_ROWS = np.array([np.delete(np.arange(14), [p, p + 3]) for p in _STATE_ROWS])


def _solve_deflated(matrices: np.ndarray, coords: np.ndarray):
    """:func:`_solve_stack` for a ``(m, 14, 19)`` stack of exact audit matrices at ``coords``.

    It solves the unit energy request ``e_13``.  The two
    :func:`_schmidt_normals` ``n1``, ``n2`` annihilate every exact audit
    matrix; the row values they are built from are read off the matrix
    itself (:func:`_row_values`).  ``n1`` is zero on the derivative rows,
    and ``n2`` on derivative row ``p + 3`` is ``n1`` on
    state row ``p``, so with ``p`` the state row of largest ``|n1|`` the 2x2
    minor of ``[n1 n2]`` on rows ``(p, p + 3)`` is ``n1[p]^2``: those two
    rows are combinations of the other 12, with zero right-hand side, and
    dropping them leaves the solution set as it was.  The kept rows form
    ``B``, energy last, so its right-hand side is ``e_11``; with one
    Householder QR ``B^T = Q R``, stored as reflectors, the minimum-norm
    solution ``Q R^{-T} e_11`` is ``1 / R[11, 11]`` times ``Q``'s
    last column, which the 12 reflectors give from ``e_11`` without forming
    ``Q`` (Golub & Van Loan, *Matrix Computations*, §5.2).  When ``A`` has
    rank 12 this is the SVD's solution up to rounding.  Each residual is
    re-evaluated from its solution against the full ``A``.

    A sample is solved by :func:`_solve_stack` instead when ``|n1[p]|`` is
    at most lstsq's cutoff ``eps * 19`` times the norm row ``N``, when ``R``
    fails :func:`_certified` at that cutoff, or when the solution is not
    finite.  A Bell state (rank 9), whose ``n1`` vanishes, fails the first
    test; a product state without coupling (rank 10) fails the second.
    Every row is bitwise the one a 1-system stack gives.
    """
    values = _row_values(matrices[:, :13], coords)
    first = _schmidt_normals(values)[:, _STATE_ROWS, 0]
    pivots = np.argmax(np.abs(first), axis=-1)
    samples = np.arange(len(matrices))
    rcond = _cutoff(matrices)
    certified = np.abs(first[samples, pivots]) > rcond * values[:, 12]
    # the kept rows are gathered into a temporary that qr copies and then frees
    h, tau = np.linalg.qr(matrices[samples[:, None], _KEPT_ROWS[pivots]].swapaxes(-1, -2), mode="raw")
    certified &= _certified(h, rcond)
    # h[:, j] holds R's column j up to the diagonal and, past it, the stored
    # part of reflector j's vector v_j, whose entry j is 1 and whose earlier
    # entries are 0; Q = H_0 ... H_11 with H_j = I - tau_j v_j v_j^T
    solutions = np.zeros((len(h), 19))
    solutions[:, 11] = np.divide(1.0, h[:, 11, 11], out=np.zeros(len(h)), where=certified)
    for j in range(11, -1, -1):
        v = h[:, j, j + 1:]
        step = tau[:, j] * (solutions[:, j] + np.vecdot(v, solutions[:, j + 1:]))
        solutions[:, j] -= step
        solutions[:, j + 1:] -= step[:, None] * v
    residuals = _residual_norms(matrices, solutions)
    certified &= np.all(np.isfinite(solutions), axis=-1)
    if not np.all(certified):
        solutions[~certified], residuals[~certified] = _solve_stack(matrices[~certified])
    return solutions, residuals


def solve_least_squares(matrix):
    """Minimum-norm least-squares solution of the unit energy request and its residual norm.

    ``matrix`` is one ``(k, d)`` system, such as :func:`build_system`'s,
    asked for a unit increment in its last row and zero elsewhere; returns
    ``(solution, float)``.  The residual is re-evaluated from the returned
    solution, not taken from the factorization.  This is the SVD that
    :func:`run_experiment` falls back on, bitwise its residual for a sample
    that :func:`_solve_deflated` does not certify; a certified sample's
    residual comes from the 12 rows that solve keeps, re-evaluated against
    all 14, and agrees with this one to rounding, not bitwise.
    """
    solutions, residuals = _solve_stack(np.asarray(matrix, dtype=float)[None])
    return solutions[0], float(residuals[0])


# ---------------------------------------------------------------------------
# sampling and the experiment loop
# ---------------------------------------------------------------------------

# bounds of the 19 coordinates in the COORD_NAMES order: moduli (before
# normalization), phases, gaps, couplings
_LOW = np.array([0.0] * 10 + [-1.0] * 9)
_SPAN = np.array([1.0] * 4 + [2.0 * np.pi] * 4 + [1.0] * 2 + [2.0] * 9)


def _interior(u: np.ndarray) -> np.ndarray:
    """Map a ``(m, 19)`` stack of unit doubles in place onto sampled coordinates.

    Each coordinate becomes ``low + span * u``, as ``Generator.uniform``
    maps it, and the moduli are put on the unit sphere.  Returns which rows
    are accepted: no coordinate on its lower bound, and a moduli norm above
    1e-3.  A rejected row is left unnormalized, to be drawn again whole.
    """
    u *= _SPAN
    u += _LOW
    # a 1-D np.linalg.norm is sqrt(dot(v, v)); vecdot gives each row those
    # bits, which norm(axis=1) does not
    norms = np.sqrt(np.vecdot(u[:, :4], u[:, :4]))
    accepted = (u > _LOW).all(axis=1) & (norms > 1e-3)
    np.divide(u[:, :4], norms[:, None], out=u[:, :4], where=accepted[:, None])
    return accepted


def sample_interior_rep(rng) -> ConfigRep:
    """Draw one representation from the interior of the configuration surface.

    One draw is 19 unit doubles, mapped by :func:`_interior`: moduli from the
    unit box, normalized onto the sphere; phases from (0, 2pi); gaps from
    (0, 1); couplings from (-1, 1).  A draw with a coordinate on its lower
    bound or a moduli norm at or below 1e-3 is redone whole.  Only energy
    ratios matter, so bounded gap and coupling ranges lose no generality.
    ``rng`` is a seed or a ``numpy.random.Generator``; a given seed
    reproduces the sample bitwise.  :func:`run_experiment` draws its
    samples a block at a time and falls back on this sampler, which stays
    the reference for those draws.
    """
    rng = np.random.default_rng(rng)
    while True:
        x = rng.random((1, 19))
        if _interior(x)[0]:
            return ConfigRep.from_array(x[0])


def _substream(seed: int, index: int) -> np.random.Generator:
    """Generator of sample ``index`` of a run with master ``seed``.

    The reference for :func:`_uniforms`, and the source of every draw it
    does not make: rejected samples and spawn keys of ``2**32`` or more.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


# numpy's SeedSequence -> PCG64 -> Generator.random chain, re-derived from its
# documented, stream-stable algorithms (numpy/random/bit_generator.pyx and
# numpy/random/src/pcg64) so that many substreams run as one uint32/uint64
# array pass.  SeedSequence hash and mix constants:
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(const: int, mult: int, count: int):
    """``(xor, multiplier)`` uint32 arrays of ``count`` successive SeedSequence
    hashes whose running constant starts at ``const``."""
    consts = [const]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts[:-1], np.uint32), np.array(consts[1:], np.uint32)


# generate_state's hashes of the 8 output words; the same for every seed
_STATE_XOR, _STATE_MUL = _hash_constants(_INIT_B, _MULT_B, 8)

# SeedSequence's two uint32 primitives, on Python ints and on uint32 arrays alike


def _hash(value, xor, mult):
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _seed_pool(seed: int):
    """SeedSequence's pool once the words of ``seed`` are mixed in, and the
    running hash constant the spawn-key word starts from.

    With a spawn key the run entropy is padded with zero words to the pool
    size, 4, so the pool at this point depends on the seed alone.  numpy's
    ``SeedSequence(seed).pool`` agrees, but importing ``numpy.random``, which
    ``sample`` otherwise never loads, costs it 11-17 ms and 2 MB of peak RSS.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [(seed >> shift) & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        xor, const = const, const * _MULT_A & _MASK32
        return _hash(value, xor, const)

    pool = [hashmix(word) for word in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool, const


def _lcg_jumps(count: int) -> tuple:
    """Factors that carry PCG64's seeds to its state after ``j = 1..count`` outputs.

    ``pcg_setseq_128_srandom_r`` sets the state to ``(inc + initstate) M +
    inc``, and each output first steps ``state -> state M + inc``, so after
    ``j`` outputs the state is ``M^(j+1) initstate + (1 + M + ... +
    M^(j+1)) inc`` mod ``2**128``.  Returns the (high, low) uint64 words of
    those two factors, each ``(2, 1, count)``: ``[initstate or inc, 1, j - 1]``.
    """
    modulus = 2**128
    powers, sums = [1], [1]
    for _ in range(count + 1):
        powers.append(powers[-1] * _PCG_MULT % modulus)
        sums.append((sums[-1] + powers[-1]) % modulus)
    factors = [[powers[2:]], [sums[2:]]]
    return (np.array([[[f >> 64 for f in row] for row in pair] for pair in factors], np.uint64),
            np.array([[[f & (2**64 - 1) for f in row] for row in pair] for pair in factors], np.uint64))


_JUMP_HI, _JUMP_LO = _lcg_jumps(19)


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit product of uint64 ``a`` and ``b``, in 32-bit limbs."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    low, cross, other = a0 * b0, a0 * b1, a1 * b0
    mid = (low >> 32) + (cross & _MASK32) + (other & _MASK32)
    return a1 * b1 + (cross >> 32) + (other >> 32) + (mid >> 32)


def _uniforms(seed: int, keys) -> np.ndarray:
    """``(len(keys), 19)`` unit doubles; row ``j`` is bitwise
    ``_substream(seed, keys[j]).random(19)`` for every key below ``2**32``.

    One vectorized pass over all keys: the seed's words are mixed into the
    SeedSequence pool once, in Python ints; each key, one uint32 spawn-key
    word, is mixed into its own copy of the pool; ``generate_state(4,
    uint64)`` gives PCG64's ``initstate`` and ``initseq``; and the 19
    states that follow seeding are reached by jump-ahead
    (:func:`_lcg_jumps`), all in one pass over a ``(keys, 19)`` array of
    128-bit products mod ``2**128``.  Each state yields the XSL-RR output
    ``out``, mapped as ``(out >> 11) * 2**-53``.
    """
    keys = np.asarray(keys, dtype=np.uint32)
    pool, const = _seed_pool(seed)
    mixed = _mix(np.array(pool, np.uint32), _hash(keys[:, None], *_hash_constants(const, _MULT_A, 4)))
    words = _hash(mixed[:, [0, 1, 2, 3, 0, 1, 2, 3]], _STATE_XOR, _STATE_MUL).astype(np.uint64)
    # little-endian pairs: initstate (high, low), then initseq (high, low)
    init_hi, init_lo, seq_hi, seq_lo = (words[:, 0::2] | words[:, 1::2] << 32).T
    # [initstate or inc, key, 1], against the factors' [initstate or inc, 1, output]
    hi = np.stack([init_hi, seq_hi << 1 | seq_lo >> 63])[..., None]
    lo = np.stack([init_lo, seq_lo << 1 | 1])[..., None]
    terms_hi = hi * _JUMP_LO + lo * _JUMP_HI + _mulhi(lo, _JUMP_LO)
    terms_lo = lo * _JUMP_LO
    state_lo = terms_lo[0] + terms_lo[1]
    state_hi = terms_hi[0] + terms_hi[1] + (state_lo < terms_lo[0])
    folded = state_hi ^ state_lo
    rotation = state_hi >> 58
    out = folded >> rotation | folded << ((64 - rotation) & 63)
    return (out >> 11) * 2.0**-53


def _draw_chunk(seed: int, indices: range) -> np.ndarray:
    """Checked ``(len(indices), 19)`` coordinates of the samples in a range of indices.

    The row of sample ``i`` is bitwise
    ``sample_interior_rep(_substream(seed, i)).to_array()``:
    the 19 doubles that sampler consumes come from :func:`_uniforms`, one
    pass for the whole range, and go through the sampler's map,
    :func:`_interior`.  A spawn key of ``2**32`` or more takes two
    SeedSequence words, which the kernel does not mix, so such samples draw
    from :func:`_substream` itself; no feasible run reaches one.  A draw the
    map rejects is redone by the sampler itself.
    """
    x = np.empty((len(indices), 19))
    narrow = range(indices.start, min(indices.stop, 2**32), indices.step)
    if narrow:
        x[:len(narrow)] = _uniforms(seed, np.arange(narrow.start, narrow.stop, narrow.step))
    for row in range(len(narrow), len(indices)):
        _substream(seed, indices[row]).random(out=x[row])
    for row in np.flatnonzero(~_interior(x)):
        x[row] = sample_interior_rep(_substream(seed, indices[row])).to_array()
    return core.check_reps(x)


@dataclass(frozen=True, eq=False)
class SolvabilityReport:
    """Outcome of a seeded solvability experiment, read off one residual vector.

    ``residuals[i]`` is sample ``i``'s residual relative to the requested
    energy increment, NaN where its matrix turned non-finite;
    :func:`run_experiment` hands it over read-only.  Every other figure is
    derived from it: a non-finite entry is a failed sample, a finite one
    below ``threshold`` a solvable one, and the maximum and median run over
    the finite entries (``None`` when every sample failed).
    """

    residuals: np.ndarray
    h_step: float
    threshold: float
    seed: int

    @property
    def n_samples(self) -> int:
        return self.residuals.size

    @property
    def n_solvable(self) -> int:
        return int(np.count_nonzero(self.residuals < self.threshold))

    @property
    def failed_indices(self) -> tuple:
        return tuple(np.flatnonzero(~np.isfinite(self.residuals)).tolist())

    @property
    def max_residual(self) -> float | None:
        finite = self.residuals[np.isfinite(self.residuals)]
        return float(np.max(finite)) if finite.size else None

    @property
    def median_residual(self) -> float | None:
        finite = self.residuals[np.isfinite(self.residuals)]
        return float(np.median(finite)) if finite.size else None

    def to_json_dict(self, per_sample: bool = False) -> dict:
        """Flat dictionary ready for JSON serialization.

        With ``per_sample``, ``samples`` lists ``[index, residual]`` for each
        finite sample in index order.
        """
        out = {
            "n_samples": self.n_samples,
            "h_step": self.h_step,
            "threshold": self.threshold,
            "seed": self.seed,
            "n_solvable": self.n_solvable,
            "max_residual": self.max_residual,
            "median_residual": self.median_residual,
            "sampler": SAMPLER_ID,
            "failed_indices": list(self.failed_indices),
        }
        if per_sample:
            finite = np.isfinite(self.residuals)
            out["samples"] = [[index, residual] for index, residual in
                              zip(np.flatnonzero(finite).tolist(), self.residuals[finite].tolist())]
        return out


def _check_oracle(x0: np.ndarray, exact: np.ndarray, h_step: float) -> None:
    """Raise ``ValueError`` unless ``build_system(x0, h_step)`` is within
    :data:`FD_ORACLE_TOL` of the exact audit matrix ``exact`` at ``x0``."""
    failed = f"h_step {h_step:g} fails the central-difference oracle"
    try:
        oracle = build_system(x0, h_step)
    except JacobianEvaluationError as exc:
        raise ValueError(f"{failed}: {exc}") from None
    difference = float(np.max(np.abs(oracle - exact)))
    if not difference <= FD_ORACLE_TOL:
        raise ValueError(f"{failed}: it misses the exact Jacobian by {difference:.3g}, "
                         f"above {FD_ORACLE_TOL:g}")


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(n: int, seed: int, h_step: float = 1e-6, threshold: float = 1e-12) -> SolvabilityReport:
    """Audit ``n`` freshly sampled interior representations.

    Sample ``i`` draws from its own substream ``(seed, i)``, so the report
    is identical however the loop is scheduled; its coordinates are
    ``sample_interior_rep(np.random.SeedSequence(entropy=seed,
    spawn_key=(i,)))``.  The run goes a block of :data:`AUDIT_BLOCK` samples
    at a time: the block is drawn by the vectorized substream kernel
    (:func:`_uniforms`, bitwise what :func:`_substream` gives each sample)
    and checked as one ``(m, 19)`` array, its ``(m, 14, 19)`` exact matrices
    are filled by one :func:`audit_jacobian` call per :data:`AUDIT_CHUNK`
    samples, and the samples whose matrix is finite are solved by one
    :func:`_solve_deflated` call (the minimum-norm solution of
    :func:`solve_least_squares` up to rounding, and bitwise its residual for
    a sample handed to the SVD).  Each block's residuals are written
    straight into the report's ``residuals``, which is all the report
    holds.  The request solved is the unit energy increment ``e_13``; by
    linearity its residual is that of every request relative to the
    request, so no request overflows the solve.  A sample whose matrix
    turns non-finite keeps a NaN residual and fails alone rather than
    aborting the run; numpy's overflow and invalid-value warnings are silenced.

    Blocks do not depend on each other, and their heavy steps (the stacked
    QR, the large ufuncs) release the GIL, so they run on ``min(usable CPUs,
    blocks)`` threads, the usable CPUs being the process's affinity mask
    (``os.sched_getaffinity``, which ``taskset`` limits).  Worker ``k``
    takes blocks ``k, k + width, ...``; the calling thread is worker 0, so
    it runs the oracle, and a one-block run or a one-CPU process starts no
    thread.  Each worker runs in a copy of the caller's context, so context
    variables such as ``dynamics.RHO_DOT_SIGN`` reach it.  The first
    exception of any worker, or an interrupt of the caller, stops the
    others between blocks; every thread is joined before that exception is
    re-raised.  The report is byte-identical for every worker count.

    ``h_step`` is the step of a central-difference oracle run once, on the
    first sample (skipped if that sample failed): if :func:`build_system`
    at that step misses the exact matrix by more than
    :data:`FD_ORACLE_TOL`, or turns non-finite, ``ValueError`` is raised.
    ``n`` and ``seed`` are taken through ``operator.index`` before any work,
    so a float raises ``TypeError``; a negative ``seed`` raises
    ``ValueError``.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n!r}")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if not 0 < h_step < np.inf:
        raise ValueError(f"h_step must be positive and finite, got {h_step!r}")
    if not 0 < threshold < np.inf:
        raise ValueError(f"threshold must be positive and finite, got {threshold!r}")
    residuals = np.full(n, np.nan)
    starts = range(0, n, AUDIT_BLOCK)
    width = min(_usable_cpus(), len(starts))
    stop, errors = threading.Event(), []

    def fail(exc: BaseException) -> None:
        errors.append(exc)
        stop.set()

    def audit_blocks(worker: int) -> None:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                # one buffer per worker (1.04 MB at 512 samples) holds its blocks'
                # matrices in turn, so the heap does not cycle a block-sized array
                # per block; the audit benchmark peaks at 45.6 MB on two workers,
                # 42.3 MB on one
                buffer = np.empty((min(n, AUDIT_BLOCK), 14, 19))
                for block_start in starts[worker::width]:
                    if stop.is_set():
                        return
                    indices = range(block_start, min(block_start + AUDIT_BLOCK, n))
                    coords = _draw_chunk(seed, indices)
                    matrices = buffer[:len(indices)]
                    for start in range(0, len(indices), AUDIT_CHUNK):
                        matrices[start:start + AUDIT_CHUNK] = audit_jacobian(coords[start:start + AUDIT_CHUNK])
                    evaluated = np.all(np.isfinite(matrices), axis=(1, 2))
                    if indices[0] == 0 and evaluated[0]:
                        _check_oracle(coords[0], matrices[0], h_step)
                    # a boolean index copies the stack, so it is taken only when a sample failed
                    solvable = slice(None) if np.all(evaluated) else evaluated
                    _, solved = _solve_deflated(matrices[solvable], coords[solvable])
                    residuals[indices.start:indices.stop][solvable] = solved
        except BaseException as exc:
            fail(exc)

    # worker k takes blocks k, k + width, ...; this thread is worker 0, so it
    # holds block 0 and its oracle, and a one-block run starts no thread
    threads = []
    try:
        for worker in range(1, width):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(audit_blocks, worker),
                                      name=f"audit-{worker}")
            thread.start()
            threads.append(thread)
        audit_blocks(0)
    except BaseException as exc:
        fail(exc)
    for thread in threads:
        while thread.is_alive():
            try:
                thread.join()
            except BaseException as exc:  # a KeyboardInterrupt while waiting
                fail(exc)
    if errors:
        raise errors[0]
    residuals.setflags(write=False)
    return SolvabilityReport(residuals=residuals, h_step=float(h_step), threshold=float(threshold),
                             seed=seed)


# ---------------------------------------------------------------------------
# hyperspherical chart of the moduli sphere
# ---------------------------------------------------------------------------

def hyperspherical_forward(moduli):
    """Angles ``(r, alpha, beta, gamma)`` of a moduli 4-vector, or of each row of a ``(..., 4)`` stack.

    Inverse of :func:`hyperspherical_backward`; undefined where a sine in
    the chain vanishes (any point with ``R0 = R2 = R3 = 0`` or
    ``R0 = R3 = 0``), which the interior sampler never produces.  One
    4-vector gives four floats; a stack gives four arrays of its leading
    shape, each row bitwise its own 4-vector's angles, and raises the
    ``ValueError`` that its first non-finite, zero or pathological row
    would raise alone.  Finite moduli of any scale have angles: the norms
    are chains of ``hypot``, which neither overflows nor underflows.
    """
    moduli = np.asarray(moduli, dtype=float)
    if moduli.shape[-1:] != (4,):
        raise ValueError(f"expected 4 moduli, got shape {moduli.shape}")
    finite = np.all(np.isfinite(moduli), axis=-1)
    m0, m1, m2, m3 = np.moveaxis(moduli, -1, 0)
    # hypot neither overflows nor underflows, so finite moduli of any scale take this one path
    s2 = np.hypot(m0, m3)
    s1 = np.hypot(m2, s2)
    radius = np.hypot(m1, s1)
    row = core._first_row(~finite | (radius == 0.0) | (s1 < 1e-12 * radius) | (s2 < 1e-12 * radius))
    if row is not None:
        if not finite[row]:
            raise ValueError(f"moduli must be finite, got {moduli[row].tolist()}")
        if radius[row] == 0.0:
            raise ValueError("zero moduli vector has no hyperspherical angles")
        raise ValueError("pathological point: a sine in the angle chain vanishes")
    alpha = np.arccos(np.clip(m1 / radius, -1.0, 1.0))
    beta = np.arccos(np.clip(m2 / s1, -1.0, 1.0))
    gamma = np.mod(np.arctan2(m0, m3), 2.0 * np.pi)
    if moduli.ndim == 1:
        return float(radius), float(alpha), float(beta), float(gamma)
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


def _chart_coords(coords, what: str) -> np.ndarray:
    """``coords`` as a finite 19-vector, else the ``ValueError`` naming ``what``."""
    if coords.shape != (19,):
        raise ValueError(f"expected a 19-coordinate {what}, got shape {coords.shape}")
    if not np.all(np.isfinite(coords)):
        raise ValueError(f"{what} must be finite")
    return coords


def transport_solution(dx, x0) -> np.ndarray:
    """Carry a 19-coordinate solution into the 18 intrinsic coordinates.

    The base point and the solution must be finite 19-vectors, and the
    moduli increments tangent to the sphere (``|sum R_k dR_k| <= 1e-9``),
    each enforced by ``ValueError``; they map to the three angle
    increments through the inverted chart Jacobian, in which case the
    radial increment vanishes identically.  The remaining 15 increments
    copy over unchanged.
    """
    x0 = _chart_coords(_as_coords(x0), "base point")
    dx = _chart_coords(np.asarray(dx, dtype=float), "solution")
    radial = float(np.dot(x0[:4], dx[:4]))
    if not abs(radial) <= TANGENCY_TOL:
        raise ValueError(
            f"solution is not tangent to the moduli sphere: |sum R_k dR_k| = {abs(radial):.3e}"
        )
    chart = _forward_jacobian(*hyperspherical_forward(x0[:4]))
    d_angles = np.linalg.inv(chart)[1:] @ dx[:4]
    return np.concatenate([d_angles, dx[4:]])


def build_tangent_system(x0):
    """13x18 audit system in the intrinsic chart at a point ``x0``.

    The exact pullback of :func:`audit_jacobian` without its norm row: the
    moduli columns times the chart's derivatives along ``(alpha, beta,
    gamma)`` at ``x0``'s own radius, the Jacobian that
    :func:`transport_solution` inverts, then the other 15 columns.  The
    base point is checked as :func:`transport_solution` checks it.  Returns
    ``(matrix, rhs)``, ``rhs`` the unit energy request in the last row.  A
    transported solution of the 19-coordinate system satisfies this one to
    rounding at any radius; that equivalence is what justifies auditing
    with the extra norm row instead of intrinsic coordinates.
    """
    x0 = _chart_coords(_as_coords(x0), "base point")
    rows = np.delete(audit_jacobian(x0), 12, axis=0)
    chart = _forward_jacobian(*hyperspherical_forward(x0[:4]))[:, 1:]
    return np.concatenate([rows[:, :4] @ chart, rows[:, 4:]], axis=1), np.eye(13)[-1]
