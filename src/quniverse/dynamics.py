"""Exact closed-universe evolution and the reduced single-qubit states.

The universe Hamiltonian is constant, so evolution is done by one 4x4
Hermitian eigendecomposition rather than time stepping; no integrator
tolerance enters anywhere.  Reduced states and their time derivatives are
obtained algebraically from ``rho_dot = -i [H, rho]`` followed by a partial
trace; for a pure state the commutator needs no 4x4 product, only
``phi = H psi`` and the outer products ``phi psi^†`` and ``psi phi^†``.  A
central-difference route through the propagator is kept as an independent
oracle for tests.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .core import Configuration, HamiltonianSpec, UniverseState, _first_row

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


def rho_and_derivative(psi: np.ndarray, matrix: np.ndarray):
    """Global ``rho = |psi><psi|`` and ``rho_dot = -i [H, rho]`` of raw arrays.

    ``H`` must be Hermitian: the commutator is built from ``phi = H psi``
    as ``rho_dot = a + a^†`` with ``a = -i phi psi^†``, which equals
    ``-i (H rho - rho H)`` only then, and is Hermitian bitwise.
    No validation and no normalization, so it serves displaced
    finite-difference points as well as valid configurations.  Broadcasts
    over leading axes: ``(..., 4)`` amplitudes and ``(..., 4, 4)``
    Hamiltonians give two ``(..., 4, 4)`` stacks, each entry bitwise the
    one computed from its own point.  This is the one place where the
    fault-injection sign enters.
    """
    # the product core.expectation uses, so a stacked row is bitwise its point
    phi = (RHO_DOT_SIGN.get() * -1j) * (matrix @ psi[..., None])[..., 0]
    a = phi[..., :, None] * psi[..., None, :].conj()
    return _density(psi), a + a.conj().swapaxes(-1, -2)


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
    rho, rho_dot = rho_and_derivative(config.state.psi, config.hamiltonian.matrix)
    return ExtendedStateRep(*extended_coordinates(rho, rho_dot, subsystem).tolist())
