"""Excitation-conserving interactions and their closed-form oracles.

The two-parameter family ``lam * s+ s- + conj(lam) * s- s+ + delta * sz sz``
is the most general two-qubit coupling that commutes with the total
excitation number ``N = diag(0, 1, 1, 2)``.  Setting ``delta = 0`` gives a
pure exchange coupling, ``lam = 0`` a pure dephasing one.

When the initial state carries no double excitation the dynamics stays in
the span of ``(|00>, |01>, |10>)`` and everything of interest has a short
closed form.  Those formulas live here and double as independent oracles
for the general machinery: reduced-state derivatives, rotating-coherence
energies and the mean energy, whose totals obey

    u_a + u_b = <H> - delta

at every instant of such a trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Configuration, HamiltonianSpec, UniverseState, check_states
from .dynamics import _subsystem_index
from .iel import COHERENCE_CUTOFF, RCUndefinedError

__all__ = [
    "ControlCaseState",
    "NumberConservingSpec",
    "RCEnergies",
    "control_configuration",
    "control_rho_dot_analytic",
    "embed_control_state",
    "h_num",
    "mean_energy_analytic",
    "number_conserving_hamiltonian",
    "number_operator",
    "rc_energies_analytic",
]


@dataclass(frozen=True)
class NumberConservingSpec:
    """Exchange amplitude and dephasing strength of the conserving family."""

    lam: complex
    delta: float

    def __post_init__(self):
        lam = complex(self.lam)
        delta = float(self.delta)
        if not (np.isfinite(lam.real) and np.isfinite(lam.imag) and np.isfinite(delta)):
            raise ValueError("interaction parameters must be finite")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "delta", delta)


def h_num(spec: NumberConservingSpec) -> np.ndarray:
    """Coupling table of the excitation-conserving interaction.

    Expanding the ladder operators ``s+- = (sigma_x +- i sigma_y) / 2``
    leaves only four axis pairs: ``h_xx = h_yy = Re(lam)/2``,
    ``h_xy = -h_yx = Im(lam)/2`` and ``h_zz = delta``.
    """
    h = np.zeros((3, 3))
    h[0, 0] = h[1, 1] = spec.lam.real / 2.0
    h[0, 1] = spec.lam.imag / 2.0
    h[1, 0] = -spec.lam.imag / 2.0
    h[2, 2] = spec.delta
    return h


def number_conserving_hamiltonian(
    spec: NumberConservingSpec, omega_a: float, omega_b: float
) -> HamiltonianSpec:
    """Total Hamiltonian with the excitation-conserving interaction."""
    return HamiltonianSpec(omega_a, omega_b, h_num(spec))


def number_operator() -> np.ndarray:
    """Total excitation number on the binary basis, ``diag(0, 1, 1, 2)``."""
    return np.diag([0.0, 1.0, 1.0, 2.0])


@dataclass(frozen=True)
class ControlCaseState:
    """Normalized amplitudes of a state with no double excitation.

    ``psi_a`` multiplies ``|10>`` and ``psi_b`` multiplies ``|01>``, so each
    is directly the excitation amplitude of its subsystem.
    """

    psi0: complex
    psi_a: complex
    psi_b: complex

    def __post_init__(self):
        # the embedded state (psi0, psi_b, psi_a, 0) is checked as any state is
        check_states(np.array([self.psi0, self.psi_b, self.psi_a, 0.0], dtype=complex))
        object.__setattr__(self, "psi0", complex(self.psi0))
        object.__setattr__(self, "psi_a", complex(self.psi_a))
        object.__setattr__(self, "psi_b", complex(self.psi_b))


def embed_control_state(state: ControlCaseState) -> UniverseState:
    """Four-amplitude global state ``(psi0, psi_b, psi_a, 0)``."""
    return UniverseState(np.array([state.psi0, state.psi_b, state.psi_a, 0.0]))


def control_configuration(
    state: ControlCaseState, spec: NumberConservingSpec, omega_a: float, omega_b: float
) -> Configuration:
    """Configuration of an embedded control-case state under the family."""
    return Configuration(
        state=embed_control_state(state),
        hamiltonian=number_conserving_hamiltonian(spec, omega_a, omega_b),
    )


def control_rho_dot_analytic(
    state: ControlCaseState,
    spec: NumberConservingSpec,
    omega_a: float,
    omega_b: float,
    subsystem: str,
) -> np.ndarray:
    """Closed-form reduced-state derivative in the no-double-excitation block.

    For A the coherence derivative is
    ``i psi0 (conj(lam) conj(psi_b) + (omega_a - 2 delta) conj(psi_a))`` and
    the population derivative ``+2 Im(lam conj(psi_a) psi_b)``; B follows by
    swapping the subsystems along with ``lam -> conj(lam)``.
    """
    lam, delta = spec.lam, spec.delta
    p0, pa, pb = state.psi0, state.psi_a, state.psi_b
    if _subsystem_index(subsystem) == 0:
        cdot = 1j * p0 * (np.conj(lam) * np.conj(pb) + (omega_a - 2.0 * delta) * np.conj(pa))
        p1dot = 2.0 * np.imag(lam * np.conj(pa) * pb)
    else:
        cdot = 1j * p0 * (lam * np.conj(pa) + (omega_b - 2.0 * delta) * np.conj(pb))
        p1dot = -2.0 * np.imag(lam * np.conj(pa) * pb)
    return np.array([[-p1dot, cdot], [np.conj(cdot), p1dot]], dtype=complex)


class RCEnergies(NamedTuple):
    u_a: float
    u_b: float
    u_total: float


def rc_energies_analytic(
    state: ControlCaseState, spec: NumberConservingSpec, omega_a: float, omega_b: float
) -> RCEnergies:
    """Closed-form rotating-coherence energies on a control-case state.

    ``u_a = |psi_a|^2 (omega_a - 2 delta) + Re(lam psi_b conj(psi_a))`` and
    the B counterpart; the total can be rearranged by normalization into
    ``|psi_a|^2 omega_a + |psi_b|^2 omega_b + 2 Re(lam conj(psi_a) psi_b)
    - 2 (1 - |psi0|^2) delta``, which sits exactly ``delta`` below the mean
    energy.
    """
    lam, delta = spec.lam, spec.delta
    pa, pb = state.psi_a, state.psi_b
    for subsystem, amp in (("A", pa), ("B", pb)):
        if abs(amp) < COHERENCE_CUTOFF:
            raise RCUndefinedError(subsystem, detail="vanishing excitation amplitude")
    cross = np.real(lam * pb * np.conj(pa))
    u_a = abs(pa) ** 2 * (omega_a - 2.0 * delta) + cross
    u_b = abs(pb) ** 2 * (omega_b - 2.0 * delta) + cross
    u_total = (
        abs(pa) ** 2 * omega_a
        + abs(pb) ** 2 * omega_b
        + 2.0 * cross
        - 2.0 * (1.0 - abs(state.psi0) ** 2) * delta
    )
    return RCEnergies(float(u_a), float(u_b), float(u_total))


def mean_energy_analytic(
    state: ControlCaseState, spec: NumberConservingSpec, omega_a: float, omega_b: float
) -> float:
    """Closed-form mean energy on a control-case state."""
    lam, delta = spec.lam, spec.delta
    pa, pb = state.psi_a, state.psi_b
    return float(
        abs(pa) ** 2 * omega_a
        + abs(pb) ** 2 * omega_b
        + 2.0 * np.real(lam * np.conj(pa) * pb)
        - 2.0 * (1.0 - abs(state.psi0) ** 2) * delta
        + delta
    )
