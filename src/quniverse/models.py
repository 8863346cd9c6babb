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

Each closed form is the one-row read of a stacked kernel on raw arrays
``psi0, psi_a, psi_b, lam, delta, omega_a, omega_b`` of one shape ``(...)``,
which ``quniverse verify`` evaluates on its whole stack of draws; moduli go
through ``core._modulus``, so each row is bitwise its own draw's value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Configuration, HamiltonianSpec, UniverseState, _modulus, check_states
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
    return _couplings(spec.lam, spec.delta)


def _couplings(lam, delta) -> np.ndarray:
    """:func:`h_num` of ``(...)`` arrays of ``lam`` and ``delta``, as ``(..., 3, 3)``."""
    lam = np.asarray(lam, dtype=complex)
    h = np.zeros(lam.shape + (3, 3))
    h[..., 0, 0] = h[..., 1, 1] = lam.real / 2.0
    h[..., 0, 1] = lam.imag / 2.0
    h[..., 1, 0] = -lam.imag / 2.0
    h[..., 2, 2] = delta
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
        # the embedded state is checked as any state is
        check_states(_embedded(self.psi0, self.psi_a, self.psi_b))
        object.__setattr__(self, "psi0", complex(self.psi0))
        object.__setattr__(self, "psi_a", complex(self.psi_a))
        object.__setattr__(self, "psi_b", complex(self.psi_b))


def _embedded(psi0, psi_a, psi_b) -> np.ndarray:
    """The four amplitudes ``(psi0, psi_b, psi_a, 0)`` of ``(...)`` control-case amplitudes, unchecked."""
    psi0 = np.asarray(psi0, dtype=complex)
    psi = np.zeros(psi0.shape + (4,), dtype=complex)
    psi[..., 0], psi[..., 1], psi[..., 2] = psi0, psi_b, psi_a
    return psi


def embed_control_state(state: ControlCaseState) -> UniverseState:
    """Four-amplitude global state ``(psi0, psi_b, psi_a, 0)``."""
    return UniverseState(_embedded(state.psi0, state.psi_a, state.psi_b))


def control_configuration(
    state: ControlCaseState, spec: NumberConservingSpec, omega_a: float, omega_b: float
) -> Configuration:
    """Configuration of an embedded control-case state under the family."""
    return Configuration(
        state=embed_control_state(state),
        hamiltonian=number_conserving_hamiltonian(spec, omega_a, omega_b),
    )


def _row(state: ControlCaseState, spec: NumberConservingSpec, omega_a: float, omega_b: float) -> list:
    """The kernels' seven arguments at one control case, each a length-1 array."""
    values = (state.psi0, state.psi_a, state.psi_b, spec.lam, spec.delta, omega_a, omega_b)
    return [np.array([v]) for v in values]


def _control_rho_dot(psi0, psi_a, psi_b, lam, delta, omega_a, omega_b) -> np.ndarray:
    """Closed-form reduced derivatives, ``(..., 2, 2, 2)``: A's then B's 2x2 matrix."""
    p1dot = 2.0 * np.imag(lam * np.conj(psi_a) * psi_b)
    cdot = [1j * psi0 * (np.conj(lam) * np.conj(psi_b) + (omega_a - 2.0 * delta) * np.conj(psi_a)),
            1j * psi0 * (lam * np.conj(psi_a) + (omega_b - 2.0 * delta) * np.conj(psi_b))]
    out = np.empty(p1dot.shape + (2, 2, 2), dtype=complex)
    for k, (c, p) in enumerate(zip(cdot, (p1dot, -p1dot))):
        out[..., k, 0, 0], out[..., k, 0, 1] = -p, c
        out[..., k, 1, 0], out[..., k, 1, 1] = np.conj(c), p
    return out


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
    return _control_rho_dot(*_row(state, spec, omega_a, omega_b))[0, _subsystem_index(subsystem)]


class RCEnergies(NamedTuple):
    u_a: float
    u_b: float
    u_total: float


def _rc_energies(psi0, psi_a, psi_b, lam, delta, omega_a, omega_b) -> np.ndarray:
    """Closed-form ``(u_a, u_b, u_total)``, as ``(..., 3)``; vanishing amplitudes are not refused."""
    pop_a, pop_b = _modulus(psi_a) ** 2, _modulus(psi_b) ** 2
    cross = np.real(lam * psi_b * np.conj(psi_a))
    u_a = pop_a * (omega_a - 2.0 * delta) + cross
    u_b = pop_b * (omega_b - 2.0 * delta) + cross
    u_total = pop_a * omega_a + pop_b * omega_b + 2.0 * cross - 2.0 * (1.0 - _modulus(psi0) ** 2) * delta
    return np.stack([u_a, u_b, u_total], axis=-1)


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
    for subsystem, amp in (("A", state.psi_a), ("B", state.psi_b)):
        if abs(amp) < COHERENCE_CUTOFF:
            raise RCUndefinedError(subsystem, detail="vanishing excitation amplitude")
    return RCEnergies(*_rc_energies(*_row(state, spec, omega_a, omega_b))[0].tolist())


def _mean_energy(psi0, psi_a, psi_b, lam, delta, omega_a, omega_b) -> np.ndarray:
    """Closed-form mean energy, as ``(...)``."""
    return (_modulus(psi_a) ** 2 * omega_a
            + _modulus(psi_b) ** 2 * omega_b
            + 2.0 * np.real(lam * np.conj(psi_a) * psi_b)
            - 2.0 * (1.0 - _modulus(psi0) ** 2) * delta
            + delta)


def mean_energy_analytic(
    state: ControlCaseState, spec: NumberConservingSpec, omega_a: float, omega_b: float
) -> float:
    """Closed-form mean energy on a control-case state."""
    return float(_mean_energy(*_row(state, spec, omega_a, omega_b))[0])
