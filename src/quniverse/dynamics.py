"""Exact closed-universe evolution and the reduced single-qubit states.

The universe Hamiltonian is constant, so evolution is done by one 4x4
Hermitian eigendecomposition rather than time stepping; no integrator
tolerance enters anywhere.  Reduced states and their time derivatives are
read by one entry formula from ``rho_dot = -i [H, rho]``; for a pure
state the commutator needs no 4x4 product, only ``phi = -i H psi`` and
the outer products ``phi psi^†`` and ``psi phi^†``.  The extended-state
records read column 1 of each reduced matrix, which sums 8 entries of
``rho`` and of ``rho_dot``; :func:`pure_extended_coordinates` forms only
those, and :func:`rho_dot_local` assembles a reduced derivative from them.
Each state record is a quadratic form ``<psi|M|psi>`` with a constant local
``M``, and its ``n``-th time derivative ``sum_j C(n, j) <phi_j|M|phi_{n -
j}>`` with ``phi_j = (-i s H)^j psi`` (``s`` the sign of ``rho_dot``, which
enters only through ``_rates``); ``quniverse.locality`` reads the ``M`` off
this reader and differentiates that hierarchy exactly, at any order.  The
textbook route, :func:`partial_trace` of ``|psi><psi|`` and differences in
time through the propagator (:func:`finite_difference_rho_dot`, and the
higher-order stencils of ``quniverse verify``), shares none of that algebra
and is kept as the independent oracle.  :func:`trajectory` and
:func:`propagate` check raw amplitudes as :class:`UniverseState` does before
they evolve them.
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
    "extended_state",
    "finite_difference_rho_dot",
    "partial_trace",
    "propagate",
    "pure_extended_coordinates",
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
    """The amplitudes of a state, raw amplitudes checked as :class:`UniverseState` checks them."""
    return (state if isinstance(state, UniverseState) else UniverseState(state)).psi


def trajectory(state, hamiltonian: HamiltonianSpec, times) -> np.ndarray:
    """Evolve through ``exp(-i H t)`` at every requested time.

    Returns an ``(len(times), 4)`` complex array.  A single
    eigendecomposition serves the whole grid, so long trajectories carry
    no accumulated stepping error.  ``hamiltonian`` must be a
    :class:`HamiltonianSpec`, whose matrix is Hermitian exactly, and
    ``state`` a :class:`UniverseState` or four finite amplitudes of unit
    norm, which it checks as :class:`UniverseState` does.  ``times`` that
    are not a 1-D grid, or hold a non-finite time, raise ``ValueError``
    before anything is evolved.
    """
    if not isinstance(hamiltonian, HamiltonianSpec):
        raise TypeError(f"hamiltonian must be a HamiltonianSpec, got {type(hamiltonian).__name__}")
    psi = _as_psi(state)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"times must be a 1-D grid, got shape {times.shape}")
    if not np.isfinite(times).all():
        raise ValueError(f"times must be finite, got {float(times[~np.isfinite(times)][0])!r}")
    w, v = np.linalg.eigh(hamiltonian.matrix)
    coeff = v.conj().T @ psi
    phases = np.exp(-1j * np.outer(times, w))
    return (phases * coeff) @ v.T


def propagate(state, hamiltonian: HamiltonianSpec, t: float) -> UniverseState:
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
    m = arr[:, None] * arr.conj() if arr.shape == (4,) else arr
    if keep == "A":
        return m[::2, ::2] + m[1::2, 1::2]
    return m[:2, :2] + m[2:, 2:]


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


#: amplitude rows read by :func:`pure_extended_coordinates`, of ``psi`` then of
#: ``phi``: each subsystem's 2x2 ``[kept, traced]`` view, ``psi[2a + b]`` at
#: ``[a, b]`` for A and at ``[b, a]`` for B
_VIEWS = np.array([0, 1, 2, 3, 0, 2, 1, 3, 4, 5, 6, 7, 4, 6, 5, 7])


def _views(psi: np.ndarray, hpsi: np.ndarray) -> np.ndarray:
    """``[psi or phi, subsystem, kept, traced, points]`` views of ``(..., 4)`` amplitudes.

    Transposed, so the points are the last axes and every product loops
    over them.
    """
    amps = np.concatenate([psi, _rates(hpsi)], axis=-1).T
    return amps[_VIEWS].reshape((2, 2, 2, 2) + amps.shape[1:])


def _pack(entries: np.ndarray, lead: tuple) -> np.ndarray:
    """``(lead, 2, 6)`` records from the entries ``(k t, 1 t)`` of each view.

    Their sum over ``t`` gives rows ``(c, p1)`` of column 1 of each reduced
    matrix, ``[rho or rho_dot, subsystem, k, points]``.
    """
    columns = entries[:, :, :, 0] + entries[:, :, :, 1]
    out = np.empty(lead + (2, 2, 3))
    # (re c, im c, re p1) of the state, then of its derivative
    out.T[0] = columns[:, :, 0].real
    out.T[1] = columns[:, :, 0].imag
    out.T[2] = columns[:, :, 1].real
    return out.reshape(lead + (2, 6))


def pure_extended_coordinates(psi: np.ndarray, hpsi: np.ndarray) -> np.ndarray:
    """Extended coordinates of both subsystems of pure states, from ``psi`` and ``H psi``.

    Returns ``(..., 2, 6)``: row 0 is A's and row 1 B's
    ``(re_c, im_c, p1, re_cdot, im_cdot, p1dot)``, read off column 1 of
    the reduced ``rho`` and ``rho_dot``.  Only the 8 entries of the global
    ``rho`` and ``rho_dot`` that those columns sum are formed, through
    :func:`_entries`, and each pair is summed once.
    ``hpsi`` is ``(H @ psi[..., None])[..., 0]`` with ``H`` Hermitian, of
    the shape ``(..., 4)`` of ``psi``; no validation, and any leading axes.
    """
    rows = _views(psi, hpsi)
    return _pack(_entries(rows, rows[0, :, 1:], rows[1, :, 1:]), psi.shape[:-1])


def _records(psi: np.ndarray, hamiltonian: HamiltonianSpec) -> np.ndarray:
    """``(..., 2, 6)`` records of both subsystems of ``(..., 4)`` states; one ``H psi`` serves both."""
    return pure_extended_coordinates(psi, _apply(hamiltonian.matrix, psi))


def _record(config: Configuration, subsystem: str) -> list:
    """One subsystem's six extended coordinates at a configuration, unvalidated."""
    return _records(config.state.psi, config.hamiltonian)[_subsystem_index(subsystem)].tolist()


def rho_dot_local(config: Configuration, subsystem: str) -> np.ndarray:
    """Time derivative of one reduced state, ``Tr_other(-i [H, rho])``.

    Assembled from the subsystem's record in
    :func:`pure_extended_coordinates`: ``[[-p1dot, cdot], [conj(cdot),
    p1dot]]``, Hermitian and traceless exactly.
    """
    *_, re_cdot, im_cdot, p1dot = _record(config, subsystem)
    cdot = complex(re_cdot, im_cdot)
    return np.array([[-p1dot, cdot], [cdot.conjugate(), p1dot]])


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
    return ExtendedStateRep(*_record(config, subsystem))
