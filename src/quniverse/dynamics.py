"""Exact closed-universe evolution and the reduced single-qubit states.

The universe Hamiltonian is constant, so evolution is done by one 4x4
Hermitian eigendecomposition rather than time stepping; no integrator
tolerance enters anywhere.  Reduced states and their time derivatives are
obtained algebraically from ``rho_dot = -i [H, rho]`` followed by a partial
trace; for a pure state the commutator needs no 4x4 product, only
``phi = -i H psi`` and the outer products ``phi psi^†`` and ``psi phi^†``.
The extended-state records read column 1 of each reduced matrix, which
sums 8 entries of ``rho`` and of ``rho_dot``; :func:`pure_extended_coordinates`
forms only those, and :func:`rho_and_derivative` all 16, through one entry
formula.  A central-difference route through the propagator is kept as an
independent oracle for tests.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .core import Configuration, HamiltonianSpec, UniverseState, _apply, _first_row

__all__ = [
    "FAULTS",
    "RHO_DOT_SIGN",
    "SUBSYSTEMS",
    "ExtendedStateRep",
    "check_extended_coordinates",
    "extended_coordinates",
    "extended_state",
    "finite_difference_rho_dot",
    "partial_trace",
    "propagate",
    "pure_extended_coordinates",
    "rho_and_derivative",
    "rho_dot_local",
    "trajectory",
]

SUBSYSTEMS = ("A", "B")

#: sign of every ``rho_dot``, -1.0 under the ``rho-dot-sign`` fault; a context
#: variable, so a fault set in one thread or task stays there
RHO_DOT_SIGN: ContextVar[float] = ContextVar("RHO_DOT_SIGN", default=1.0)

#: faults ``verification.run_suites`` can inject into this module
FAULTS = ("rho-dot-sign",)


def _subsystem_index(subsystem: str) -> int:
    try:
        return SUBSYSTEMS.index(subsystem)
    except ValueError:
        raise ValueError(
            f"unknown subsystem {subsystem!r}, expected 'A' or 'B'"
        ) from None


def _as_psi(state) -> np.ndarray:
    if isinstance(state, UniverseState):
        return state.psi
    psi = np.asarray(state, dtype=complex)
    if psi.shape != (4,):
        raise ValueError(f"expected 4 amplitudes, got shape {psi.shape}")
    return psi


def _as_matrix(hamiltonian) -> np.ndarray:
    if isinstance(hamiltonian, HamiltonianSpec):
        return hamiltonian.matrix
    mat = np.asarray(hamiltonian, dtype=complex)
    if mat.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {mat.shape}")
    return mat


def trajectory(state, hamiltonian, times) -> np.ndarray:
    """Evolve through ``exp(-i H t)`` at every requested time.

    Returns an ``(len(times), 4)`` complex array.  A single
    eigendecomposition serves the whole grid, so long trajectories carry
    no accumulated stepping error.
    """
    psi = _as_psi(state)
    w, v = np.linalg.eigh(_as_matrix(hamiltonian))
    coeff = v.conj().T @ psi
    phases = np.exp(-1j * np.outer(np.asarray(times, dtype=float), w))
    return (phases * coeff) @ v.T


def propagate(state, hamiltonian, t: float) -> UniverseState:
    """State at time ``t`` under the constant Hamiltonian."""
    return UniverseState(trajectory(state, hamiltonian, [float(t)])[0])


def partial_trace(state_or_rho, keep: str) -> np.ndarray:
    """Reduced 2x2 matrix of one subsystem.

    Accepts a pure state (``UniverseState`` or 4 amplitudes) or a 4x4
    matrix.  The operation is linear and performs no normalization, so it
    is equally valid on density matrices and on derivatives like
    ``rho_dot``.
    """
    _subsystem_index(keep)
    if isinstance(state_or_rho, UniverseState):
        state_or_rho = state_or_rho.psi
    arr = np.asarray(state_or_rho, dtype=complex)
    if arr.shape not in ((4,), (4, 4)):
        raise ValueError(f"expected 4 amplitudes or a 4x4 matrix, got shape {arr.shape}")
    return _reduced(_density(arr) if arr.shape == (4,) else arr, keep)


def _reduced(m: np.ndarray, keep: str) -> np.ndarray:
    """Partial trace of a ``(..., 4, 4)`` stack, as a sum of two 2x2 sub-blocks."""
    if keep == "A":
        return m[..., ::2, ::2] + m[..., 1::2, 1::2]
    return m[..., :2, :2] + m[..., 2:, 2:]


def _reduced_column(m: np.ndarray, keep: str) -> np.ndarray:
    """Column 1 of :func:`_reduced`, summing only the two sub-block columns it needs."""
    if keep == "A":
        return m[..., ::2, 2] + m[..., 1::2, 3]
    return m[..., :2, 1] + m[..., 2:, 3]


def _rates(hpsi: np.ndarray) -> np.ndarray:
    """``phi = -i H psi`` from ``H psi``; the one place where the fault-injection sign enters."""
    return (RHO_DOT_SIGN.get() * -1j) * hpsi


def _entries(rows: np.ndarray, psi_j: np.ndarray, phi_j: np.ndarray) -> np.ndarray:
    """Entries ``(i, j)`` of ``rho`` and ``rho_dot``, stacked on axis 0 as ``rows`` is.

    ``rows`` stacks the row operands ``psi_i`` and ``phi_i`` on axis 0, and
    ``psi_j``, ``phi_j`` are the column operands, all broadcast against
    each other, where ``phi = -i H psi``.  ``rho_ij = psi_i conj(psi_j)``
    and ``rho_dot_ij = a_ij + conj(a_ji)`` with ``a_ij = phi_i conj(psi_j)``:
    each entry is the same products whichever entries are asked for.
    """
    out = rows * psi_j.conj()
    out[1] += (phi_j * rows[0].conj()).conj()
    return out


def rho_and_derivative(psi: np.ndarray, matrix: np.ndarray):
    """Global ``rho = |psi><psi|`` and ``rho_dot = -i [H, rho]`` of raw arrays.

    ``H`` must be Hermitian: the commutator is built from ``phi = -i H psi``
    as ``rho_dot = a + a^†`` with ``a = phi psi^†``, which equals
    ``-i (H rho - rho H)`` only then, and is Hermitian bitwise.
    No validation and no normalization, so it serves displaced
    finite-difference points as well as valid configurations.  Broadcasts
    over leading axes: ``(..., 4)`` amplitudes and ``(..., 4, 4)``
    Hamiltonians give two ``(..., 4, 4)`` stacks, each entry bitwise the
    one computed from its own point and the one
    :func:`pure_extended_coordinates` reads.
    """
    phi = _rates(_apply(matrix, psi))
    rows = np.empty((2,) + phi.shape, dtype=complex)
    rows[0] = psi
    rows[1] = phi
    rho, rho_dot = _entries(rows[..., :, None], psi[..., None, :], phi[..., None, :])
    return rho, rho_dot


def _density(psi: np.ndarray) -> np.ndarray:
    """``|psi><psi|`` of a ``(..., 4)`` stack of raw amplitudes."""
    return psi[..., :, None] * psi[..., None, :].conj()


def extended_coordinates(rho: np.ndarray, rho_dot: np.ndarray, subsystem: str) -> np.ndarray:
    """``(re_c, im_c, p1, re_cdot, im_cdot, p1dot)`` of one subsystem.

    Reads the coherence and excited population (column 1 of the reduced
    matrix) of the reduced state and of its derivative from the global
    ``(rho, rho_dot)`` pair.  Broadcasts over leading axes: ``(..., 4, 4)``
    stacks give ``(..., 6)``.
    """
    _subsystem_index(subsystem)
    columns = np.concatenate(
        [_reduced_column(rho, subsystem), _reduced_column(rho_dot, subsystem)],
        axis=-1,
        dtype=complex,
    )
    # (re c, im c, re p1, im p1) of the state, then of its derivative
    return columns.view(float)[..., [0, 1, 2, 4, 5, 6]]


#: amplitude rows read by :func:`pure_extended_coordinates`, of ``psi`` then of
#: ``phi``: each subsystem's 2x2 ``[kept, traced]`` view, ``psi[2a + b]`` at
#: ``[a, b]`` for A and at ``[b, a]`` for B
_VIEWS = np.array([0, 1, 2, 3, 0, 2, 1, 3, 4, 5, 6, 7, 4, 6, 5, 7])


def pure_extended_coordinates(psi: np.ndarray, hpsi: np.ndarray) -> np.ndarray:
    """Extended coordinates of both subsystems of pure states, from ``psi`` and ``H psi``.

    Returns ``(..., 2, 6)``: row 0 is A's and row 1 B's
    ``(re_c, im_c, p1, re_cdot, im_cdot, p1dot)``, each bitwise
    ``extended_coordinates(*rho_and_derivative(psi, H), subsystem)``.  Only
    the 8 entries of ``rho`` and of ``rho_dot`` that column 1 of a reduced
    matrix sums are formed, through the same products and pair sums.
    ``hpsi`` is ``(H @ psi[..., None])[..., 0]`` with ``H`` Hermitian, of
    the shape ``(..., 4)`` of ``psi``; no validation, and any leading axes.
    """
    lead = psi.shape[:-1]
    # transposed, so the points are the last axes and every product loops over them
    amps = np.concatenate([psi, _rates(hpsi)], axis=-1).T
    # [psi or phi, subsystem, kept, traced, points]
    rows = amps[_VIEWS].reshape((2, 2, 2, 2) + amps.shape[1:])
    # entries (k t, 1 t) of each view, then their sum over t: rows (c, p1) of
    # column 1 of each reduced matrix, [rho or rho_dot, subsystem, k, points]
    entries = _entries(rows, rows[0, :, 1:], rows[1, :, 1:])
    columns = entries[:, :, :, 0] + entries[:, :, :, 1]
    out = np.empty(lead + (2, 2, 3))
    # (re c, im c, re p1) of the state, then of its derivative
    out.T[0] = columns[:, :, 0].real
    out.T[1] = columns[:, :, 0].imag
    out.T[2] = columns[:, :, 1].real
    return out.reshape(lead + (2, 6))


def rho_dot_local(config: Configuration, subsystem: str) -> np.ndarray:
    """Time derivative of one reduced state, ``Tr_other(-i [H, rho])``.

    Hermitian exactly, traceless up to rounding.
    """
    _, rho_dot = rho_and_derivative(config.state.psi, config.hamiltonian.matrix)
    return partial_trace(rho_dot, keep=subsystem)


def finite_difference_rho_dot(
    config: Configuration, subsystem: str, step: float = 1e-6
) -> np.ndarray:
    """Central-difference oracle for :func:`rho_dot_local`.

    Differentiates the reduced state of the exactly propagated trajectory;
    shares no algebra with the commutator route.
    """
    plus = partial_trace(propagate(config.state, config.hamiltonian, step), subsystem)
    minus = partial_trace(propagate(config.state, config.hamiltonian, -step), subsystem)
    return (plus - minus) / (2.0 * step)


def check_extended_coordinates(coords: np.ndarray) -> None:
    """Require a ``(..., 6)`` stack of extended coordinates of positive 2x2 states.

    The excited population must lie in ``[0, 1]`` and the coherence must obey
    ``|c|^2 <= p1 (1 - p1)``, each up to 1e-12.  These are the checks
    :class:`ExtendedStateRep` applies to one record, applied to every row of
    a stack; the first offending row raises the same ``ValueError``.
    """
    # unpacking the transpose hands one record over as cheap numpy scalars;
    # each result is transposed back before rows are located
    re_c, im_c, p1 = coords.T[:3]
    off_range = ~((-1e-12 <= p1) & (p1 <= 1.0 + 1e-12))
    coh_sq = re_c * re_c + im_c * im_c
    row = _first_row((off_range | (coh_sq > p1 * (1.0 - p1) + 1e-12)).T)
    if row is None:
        return
    if off_range.T[row]:
        raise ValueError(f"excited population out of range: {float(p1.T[row])!r}")
    raise ValueError(
        "coherence incompatible with a positive 2x2 state: "
        f"|c|^2 = {float(coh_sq.T[row])!r}, p1 = {float(p1.T[row])!r}"
    )


@dataclass(frozen=True)
class ExtendedStateRep:
    """Six real coordinates of one subsystem's state and its derivative.

    ``(re_c, im_c, p1)`` are the coherence and excited population of the
    reduced matrix; ``(re_cdot, im_cdot, p1dot)`` the same entries of its
    time derivative.  Hermiticity and the trace conditions make these six
    numbers a complete record.
    """

    re_c: float
    im_c: float
    p1: float
    re_cdot: float
    im_cdot: float
    p1dot: float

    def __post_init__(self):
        check_extended_coordinates(self.to_array())

    def to_array(self) -> np.ndarray:
        return np.array(
            [self.re_c, self.im_c, self.p1, self.re_cdot, self.im_cdot, self.p1dot]
        )


def extended_state(config: Configuration, subsystem: str) -> ExtendedStateRep:
    """Pack the reduced state and its derivative into the six coordinates."""
    psi = config.state.psi
    coords = pure_extended_coordinates(psi, _apply(config.hamiltonian.matrix, psi))
    return ExtendedStateRep(*coords[_subsystem_index(subsystem)].tolist())
