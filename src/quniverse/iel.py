"""Internal-energy laws: per-subsystem energy assignments and their audit.

A *law* maps a stack of global states and the Hamiltonian to a pair of
real energies ``(u_a, u_b)`` per state, NaN where it is undefined; one
evaluation covers a whole trajectory.  The registry ships two entries:

``bare``
    The uncorrected assignment ``u_j = omega_j * p1_j``; it reads the gap
    straight off the configuration.

``rc``
    The rotating-coherence law.  The coherence of a reduced state is a
    phasor; its instantaneous rotation frequency ``Im(cdot / c)`` plays
    the role of an effective gap, and ``u_j = p1_j * Im(cdot_j / c_j)``.
    The law is a function of the extended state alone, and it reduces to
    ``bare`` whenever the two subsystems do not interact.

The audit quantifies how far a law is from splitting the conserved total:
``defect = u_a + u_b - <H>``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Configuration, HamiltonianSpec, _first_row, mean_energy
from .dynamics import (
    SUBSYSTEMS,
    ExtendedStateRep,
    _record,
    _records,
    _subsystem_index,
    check_extended_coordinates,
)

__all__ = [
    "COHERENCE_CUTOFF",
    "LAWS",
    "ConsistencyAudit",
    "EnergyPair",
    "RCUndefinedError",
    "UndefinedObservableError",
    "consistency_audit",
    "effective_hamiltonian",
    "evaluate_law",
    "rc_frequency",
    "register_law",
]

#: below this coherence magnitude the rotating-coherence law is undefined
COHERENCE_CUTOFF = 1e-12


class RCUndefinedError(ValueError):
    """The rotating-coherence law has no value at this configuration."""

    def __init__(self, subsystem: str | None = None, detail: str = ""):
        self.subsystem = subsystem
        where = f" for subsystem {subsystem}" if subsystem else ""
        super().__init__(
            f"rotating-coherence law undefined{where}: "
            f"|coherence| < {COHERENCE_CUTOFF:g}" + (f" ({detail})" if detail else "")
        )


class UndefinedObservableError(ValueError):
    """No effective observable exists (vanishing excited population)."""


@dataclass(frozen=True)
class EnergyPair:
    """Energies assigned to the two subsystems by one law."""

    u_a: float
    u_b: float

    @property
    def total(self) -> float:
        return self.u_a + self.u_b

    def for_subsystem(self, subsystem: str) -> float:
        return (self.u_a, self.u_b)[_subsystem_index(subsystem)]


@dataclass(frozen=True)
class ConsistencyAudit:
    """One law evaluated against the conserved total at one configuration."""

    u_a: float
    u_b: float
    mean_h: float
    defect: float


def _rotation_frequency(coords: np.ndarray) -> np.ndarray:
    """``Im(cdot / c)`` of ``(..., 6)`` extended coordinates.

    NaN where ``|c|`` is below :data:`COHERENCE_CUTOFF`.
    """
    # unpacking the transpose hands one record over as cheap numpy scalars
    re_c, im_c, _, re_cdot, im_cdot, _ = coords.T
    denom = re_c * re_c + im_c * im_c
    # dividing by NaN where undefined gives NaN without a warning
    defined_denom = np.where(np.sqrt(denom) >= COHERENCE_CUTOFF, denom, np.nan)
    return ((re_c * im_cdot - im_c * re_cdot) / defined_denom).T


def rc_frequency(ext: ExtendedStateRep) -> float:
    """Rotation frequency of the coherence phasor, ``Im(cdot / c)``."""
    freq = float(_rotation_frequency(ext.to_array()))
    if math.isnan(freq):
        raise RCUndefinedError()
    return freq


def _bare_energies(coords: np.ndarray, omega_a, omega_b):
    """``(u_a, u_b)`` of the ``bare`` law from ``(..., 2, 6)`` records and floats or ``(...)`` gaps."""
    # only the excited populations enter, and they are left unvalidated
    p1 = coords[..., 2]
    return omega_a * p1[..., 0], omega_b * p1[..., 1]


def _bare_law(psi: np.ndarray, hamiltonian: HamiltonianSpec):
    return _bare_energies(_records(psi, hamiltonian.matrix), hamiltonian.omega_a, hamiltonian.omega_b)


def _rc_energies(coords: np.ndarray):
    """``(u_a, u_b)`` of the ``rc`` law from ``(..., 2, 6)`` records, checked as extended states are."""
    check_extended_coordinates(coords)
    energies = coords[..., 2] * _rotation_frequency(coords)
    return energies[..., 0], energies[..., 1]


def _rc_law(psi: np.ndarray, hamiltonian: HamiltonianSpec):
    return _rc_energies(_records(psi, hamiltonian.matrix))


#: a law maps a ``(..., 4)`` stack of states and the Hamiltonian to two
#: ``(...)`` float arrays ``(u_a, u_b)``, NaN where it is undefined
_Law = Callable[[np.ndarray, HamiltonianSpec], tuple]

#: open registry of named laws; keys are stable CLI-facing identifiers
LAWS: dict[str, _Law] = {
    "bare": _bare_law,
    "rc": _rc_law,
}


def register_law(name: str, evaluator: _Law) -> None:
    """Add a named law to the registry.  Existing names cannot be rebound.

    ``evaluator(psi, hamiltonian)`` takes a ``(..., 4)`` stack of states and
    a :class:`~quniverse.core.HamiltonianSpec` and returns ``(u_a, u_b)``,
    two ``(...)`` float arrays with NaN where the law is undefined.
    """
    if name in LAWS:
        raise ValueError(f"law {name!r} is already registered")
    LAWS[name] = evaluator


def _energies(law: str, config: Configuration) -> list:
    """``[u_a, u_b]`` of a registered law at a configuration, NaN where undefined."""
    try:
        evaluator = LAWS[law]
    except KeyError:
        raise ValueError(
            f"unknown law {law!r}, registered: {sorted(LAWS)}"
        ) from None
    return [float(u) for u in evaluator(config.state.psi, config.hamiltonian)]


def _require_defined(u_a, u_b) -> None:
    """Raise :class:`RCUndefinedError` at the first of ``(...)`` energy stacks' rows with a NaN.

    It names A where both energies of that row are NaN, as
    :func:`evaluate_law` does at that row's configuration.
    """
    row = _first_row(np.isnan(np.stack([u_a, u_b], axis=-1)))
    if row is not None:
        raise RCUndefinedError(SUBSYSTEMS[row[-1]])


def evaluate_law(law: str, config: Configuration) -> EnergyPair:
    """Apply a registered law to a configuration.

    Raises :class:`RCUndefinedError` naming the first subsystem whose
    energy is undefined (NaN).
    """
    values = _energies(law, config)
    _require_defined(*values)
    return EnergyPair(*values)


def effective_hamiltonian(law: str, config: Configuration, subsystem: str) -> np.ndarray:
    """2x2 observable whose average under the reduced state gives the energy.

    Rescales the bare ``omega * |1><1|`` so that ``tr(rho H_eff) = u_j``;
    undefined when the excited population vanishes.  Only the requested
    subsystem's energy is read: :class:`RCUndefinedError` names it when
    that energy is NaN, whatever the other subsystem's.
    """
    energy = _energies(law, config)[_subsystem_index(subsystem)]
    if math.isnan(energy):
        raise RCUndefinedError(subsystem)
    # read unvalidated, as the bare law reads it
    p1 = _record(config, subsystem)[2]
    if p1 < 1e-12:
        raise UndefinedObservableError(
            f"no effective observable for subsystem {subsystem}: "
            f"excited population {p1!r} vanishes"
        )
    return np.array([[0.0, 0.0], [0.0, energy / p1]], dtype=complex)


def _defect(u_a, u_b, mean_h):
    """``u_a + u_b - <H>``, of floats or of ``(...)`` stacks alike."""
    return u_a + u_b - mean_h


def consistency_audit(law: str, config: Configuration) -> ConsistencyAudit:
    """Evaluate a law and report how far the pair misses the conserved total."""
    pair = evaluate_law(law, config)
    total = mean_energy(config)
    return ConsistencyAudit(
        u_a=pair.u_a,
        u_b=pair.u_b,
        mean_h=total,
        defect=_defect(pair.u_a, pair.u_b, total),
    )
