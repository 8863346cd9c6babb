"""Fixed-basis algebra for a closed universe of two coupled two-level systems.

All matrices act on the product basis ``(|00>, |01>, |10>, |11>)``, ordered
in binary with subsystem A first.  Pauli operators are built over the local
(ground, excited) bases with the excited-state-positive convention, so the
bare Hamiltonian of one subsystem is ``omega * |1><1|`` with ``omega > 0``.

A configuration pairs a pure global state with the total Hamiltonian.  Its
flat 19-coordinate representation (four moduli, four phases, two gaps, nine
couplings) is the working currency of the solvability experiment; see
:data:`COORD_NAMES` for the serialization order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AXES",
    "COORD_NAMES",
    "NORM_TOL",
    "ConfigRep",
    "Configuration",
    "HamiltonianSpec",
    "UniverseState",
    "check_reps",
    "check_states",
    "config_equal",
    "config_to_rep",
    "expectation",
    "hamiltonian_matrix",
    "mean_energies",
    "mean_energy",
    "pauli",
    "rep_to_config",
]

TWO_PI = 2.0 * np.pi

#: hard validation gate on state / representation normalization
NORM_TOL = 1e-9

#: flat serialization order of a configuration representation
COORD_NAMES = (
    "R0", "R1", "R2", "R3",
    "theta0", "theta1", "theta2", "theta3",
    "omega_a", "omega_b",
    "h_xx", "h_xy", "h_xz", "h_yx", "h_yy", "h_yz", "h_zx", "h_zy", "h_zz",
)

AXES = ("x", "y", "z")

_SIGMA = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, 1j], [-1j, 0.0]], dtype=complex),
    "z": np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex),
}
for _m in _SIGMA.values():
    _m.setflags(write=False)

# sigma_j (x) sigma_k for the nine axis pairs, indexed [j, k, :, :]
_PAULI_PAIRS = np.array(
    [[np.kron(_SIGMA[j], _SIGMA[k]) for k in AXES] for j in AXES]
)
_PAULI_PAIRS.setflags(write=False)


def pauli(axis: str) -> np.ndarray:
    """Pauli operator on the local (ground, excited) basis.

    ``sigma_z = diag(-1, +1)`` assigns the positive eigenvalue to the
    excited state; ``sigma_x`` and ``sigma_y`` are fixed by the same
    ordering, with ``sigma_x @ sigma_y == 1j * sigma_z``.
    """
    try:
        return _SIGMA[axis].copy()
    except KeyError:
        raise ValueError(
            f"unknown Pauli axis {axis!r}, expected one of 'x', 'y', 'z'"
        ) from None


def hamiltonian_matrix(omega_a, omega_b, h) -> np.ndarray:
    """Raw 4x4 total Hamiltonian, without any validation of the inputs.

    Bare part ``diag(0, omega_b, omega_a, omega_a + omega_b)`` plus the
    nine-term coupling sum ``sum_jk h[j, k] sigma_j (x) sigma_k``.  Kept
    free of range checks so it can be evaluated at finite-difference
    displacements that leave the physical parameter region.

    Broadcasts over leading axes: gaps of shape ``(...)`` and couplings of
    shape ``(..., 3, 3)`` give ``(..., 4, 4)``.  Each real or imaginary
    part of an entry sums at most two nonzero products ``+-h[j, k]``, so
    the summation order cannot change a bit and each matrix of a stack is
    bitwise the one assembled from its own parameters.
    """
    h = np.asarray(h, dtype=float)
    lead = h.shape[:-2]
    bare = np.zeros(lead + (4, 4), dtype=complex)
    bare[..., 1, 1] = omega_b
    bare[..., 2, 2] = omega_a
    bare[..., 3, 3] = np.add(omega_a, omega_b)
    coupling = h.reshape(lead + (9,)) @ _PAULI_PAIRS.reshape(9, 16)
    return bare + coupling.reshape(lead + (4, 4))


def _frozen(values: np.ndarray) -> np.ndarray:
    """``values`` made read-only in place, returned as a view, which refuses
    ``setflags(write=True)`` as well as item assignment."""
    values.setflags(write=False)
    return values.view()


def _hamiltonian_error(gaps, h):
    """What is wrong with one pair of gaps and coupling table, or ``None``.

    Gaps must be positive and finite, couplings finite.
    """
    for name, gap in zip(("omega_a", "omega_b"), gaps):
        if not 0 < gap < np.inf:
            return f"{name} must be a positive real, got {float(gap)!r}"
    if not np.isfinite(h).all():
        return "coupling table must be finite"
    return None


def _validated_hamiltonian_params(omega_a, omega_b, h):
    """Gaps as positive finite floats and the coupling table as a frozen finite 3x3 copy."""
    gaps = (float(omega_a), float(omega_b))
    h = np.array(h, dtype=float)
    if h.shape != (3, 3):
        raise ValueError(f"coupling table must be 3x3, got shape {h.shape}")
    error = _hamiltonian_error(gaps, h)
    if error is not None:
        raise ValueError(error)
    return gaps[0], gaps[1], _frozen(h)


def _first_row(mask: np.ndarray):
    """Index of the first flagged row of a boolean ``(...)`` stack (C order), or ``None``."""
    if not np.count_nonzero(mask):
        return None
    return np.unravel_index(np.argmax(mask), mask.shape)


def check_reps(x) -> np.ndarray:
    """Require a ``(..., 19)`` stack of representations; return a copy with phases modulo 2*pi.

    The checks :class:`ConfigRep` applies to one representation, applied
    to every row of a stack: finite moduli and phases, non-negative moduli
    with ``|sum R_k^2 - 1| <= NORM_TOL``, positive finite gaps and finite
    couplings.  The first offending row raises the same ``ValueError``.
    """
    x = np.array(x, dtype=float)
    if x.shape[-1:] != (19,):
        raise ValueError(f"expected (..., 19) coordinates, got shape {x.shape}")
    r = x[..., 0:4]
    norm_sq = (r**2).sum(axis=-1)
    valid = (
        np.isfinite(x).all(axis=-1)
        & (r >= 0).all(axis=-1)
        & (np.abs(norm_sq - 1.0) <= NORM_TOL)
        & (x[..., 8:10] > 0).all(axis=-1)
    )
    row = _first_row(~valid)
    if row is not None:
        bad = x[row]
        if not np.isfinite(bad[0:8]).all():
            raise ValueError("moduli and phases must be finite")
        if (bad[0:4] < 0).any():
            raise ValueError("moduli must be non-negative")
        if not abs(norm_sq[row] - 1.0) <= NORM_TOL:
            raise ValueError(f"moduli not normalized: sum R_k^2 = {float(norm_sq[row])!r}")
        raise ValueError(_hamiltonian_error(bad[8:10], bad[10:19]))
    np.mod(x[..., 4:8], TWO_PI, out=x[..., 4:8])
    return x


def check_states(psi: np.ndarray) -> None:
    """Require a ``(..., 4)`` stack of finite amplitudes with unit norm.

    The checks :class:`UniverseState` applies to one state, applied to every
    row of a stack; the first offending row raises the same ``ValueError``.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[-1:] != (4,):
        raise ValueError(f"expected (..., 4) amplitudes, got shape {psi.shape}")
    # a non-finite amplitude makes the norm non-finite, so one test covers both
    moduli = np.abs(psi)
    norm_sq = np.vecdot(moduli, moduli)
    row = _first_row(~(np.abs(norm_sq - 1.0) <= NORM_TOL))
    if row is None:
        return
    if not (np.isfinite(psi[row].real).all() and np.isfinite(psi[row].imag).all()):
        raise ValueError("state amplitudes must be finite")
    raise ValueError(f"state not normalized: sum |psi_k|^2 = {float(norm_sq[row])!r}")


@dataclass(frozen=True, eq=False)
class UniverseState:
    """Pure global state: four complex amplitudes on the binary basis."""

    psi: np.ndarray

    def __post_init__(self):
        # the one copy of the caller's amplitudes, frozen once checked
        psi = np.array(self.psi, dtype=complex)
        if psi.shape != (4,):
            raise ValueError(f"state must hold 4 amplitudes, got shape {psi.shape}")
        check_states(psi)
        object.__setattr__(self, "psi", _frozen(psi))


@dataclass(frozen=True, eq=False)
class HamiltonianSpec:
    """Total Hamiltonian: two positive gaps plus the 3x3 coupling table.

    The assembled 4x4 matrix is cached at construction and is Hermitian
    exactly (entrywise equal to its conjugate transpose), and so is its
    Frobenius norm ``frobenius_norm``, the one formula for ``||H||_F``: the
    bound :func:`mean_energies` checks and the scale of the propagation's
    phase rounding.  The bare part and the nine Pauli products are
    orthogonal under the trace inner product, so ``||H||_F^2 = omega_a^2 +
    omega_b^2 + (omega_a + omega_b)^2 + 4 sum h_jk^2``; in Python floats it
    is ``inf``, without a warning, where that square overflows, and where it
    underflows (parameters below about 1e-154) the norm is taken by
    ``math.hypot`` of the same terms instead.
    """

    omega_a: float
    omega_b: float
    h: np.ndarray
    matrix: np.ndarray = field(init=False, repr=False)
    frobenius_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        omega_a, omega_b, h = _validated_hamiltonian_params(self.omega_a, self.omega_b, self.h)
        object.__setattr__(self, "omega_a", omega_a)
        object.__setattr__(self, "omega_b", omega_b)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "matrix", _frozen(hamiltonian_matrix(omega_a, omega_b, h)))
        couplings = h.ravel().tolist()
        bare = omega_a * omega_a + omega_b * omega_b + (omega_a + omega_b) * (omega_a + omega_b)
        norm_sq = bare + 4.0 * sum(v * v for v in couplings)
        if norm_sq < np.finfo(float).tiny:
            # the squares underflowed; hypot scales them, so the norm keeps its precision
            norm = math.hypot(omega_a, omega_b, omega_a + omega_b, *(2.0 * v for v in couplings))
        else:
            norm = math.sqrt(norm_sq)
        object.__setattr__(self, "frobenius_norm", norm)


@dataclass(frozen=True, eq=False)
class ConfigRep:
    """19 real coordinates of a configuration.

    Fields mirror the flat serialization order: moduli ``r`` (unit
    Euclidean norm), phases ``theta`` (stored modulo 2*pi), the two gaps
    and the coupling table.  Two representations related by a joint phase
    shift ``theta_k -> theta_k + phi`` describe the same configuration;
    no canonical gauge is ever picked.
    """

    r: np.ndarray
    theta: np.ndarray
    omega_a: float
    omega_b: float
    h: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        theta = np.asarray(self.theta, dtype=float)
        if r.shape != (4,) or theta.shape != (4,):
            raise ValueError("moduli and phases must each hold 4 values")
        h = np.asarray(self.h, dtype=float)
        if h.shape != (3, 3):
            raise ValueError(f"coupling table must be 3x3, got shape {h.shape}")
        gaps = [float(self.omega_a), float(self.omega_b)]
        # check_reps returns a copy, whose slices are the fields
        x = _frozen(check_reps(np.concatenate([r, theta, gaps, h.ravel()])))
        object.__setattr__(self, "r", x[0:4])
        object.__setattr__(self, "theta", x[4:8])
        object.__setattr__(self, "omega_a", float(x[8]))
        object.__setattr__(self, "omega_b", float(x[9]))
        object.__setattr__(self, "h", x[10:19].reshape(3, 3))

    def to_array(self) -> np.ndarray:
        """Flat 19-vector in the :data:`COORD_NAMES` order."""
        return np.concatenate(
            [self.r, self.theta, [self.omega_a, self.omega_b], self.h.ravel()]
        )

    @classmethod
    def from_array(cls, x) -> "ConfigRep":
        x = np.asarray(x, dtype=float)
        if x.shape != (19,):
            raise ValueError(f"expected 19 coordinates, got shape {x.shape}")
        return cls(
            r=x[0:4],
            theta=x[4:8],
            omega_a=x[8],
            omega_b=x[9],
            h=x[10:19].reshape(3, 3),
        )


@dataclass(frozen=True, eq=False)
class Configuration:
    """Everything knowable about the universe at one instant."""

    state: UniverseState
    hamiltonian: HamiltonianSpec


def rep_to_config(rep: ConfigRep) -> Configuration:
    """Realize a representation: ``psi_k = R_k exp(i theta_k)`` plus the Hamiltonian."""
    psi = rep.r * np.exp(1j * rep.theta)
    return Configuration(
        state=UniverseState(psi),
        hamiltonian=HamiltonianSpec(rep.omega_a, rep.omega_b, rep.h),
    )


def config_to_rep(config: Configuration) -> ConfigRep:
    """Polar coordinates of the state plus the Hamiltonian parameters.

    One representative of the gauge family is returned; amplitudes that
    vanish get phase 0.
    """
    psi = config.state.psi
    ham = config.hamiltonian
    return ConfigRep(
        r=np.abs(psi),
        theta=np.mod(np.angle(psi), TWO_PI),
        omega_a=ham.omega_a,
        omega_b=ham.omega_b,
        h=ham.h,
    )


def config_equal(a: Configuration, b: Configuration, tol: float = 1e-9) -> bool:
    """Same Hamiltonian entrywise and same state up to one global phase."""
    if float(np.max(np.abs(a.hamiltonian.matrix - b.hamiltonian.matrix))) > tol:
        return False
    overlap = abs(complex(np.vdot(a.state.psi, b.state.psi)))
    return abs(overlap - 1.0) <= tol


def _apply(matrix: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """``M psi`` of a ``(..., 4)`` stack, each row bitwise the product of that row alone.

    The one product behind every mean energy and every ``rho_dot``.
    """
    return (matrix @ psi[..., None])[..., 0]


def expectation(psi: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Raw ``<psi|M|psi>`` of a ``(..., 4)`` stack of amplitudes, as ``(...)`` complex.

    The one mean-energy formula, ``vecdot(psi, M psi)``: no normalization
    and no checks, so it serves displaced finite-difference points as well.
    Each row is bitwise the value computed from that row alone.
    """
    return np.vecdot(psi, _apply(matrix, psi))


def mean_energies(psi: np.ndarray, hamiltonian: HamiltonianSpec) -> np.ndarray:
    """Real :func:`expectation` values of ``hamiltonian`` in a ``(..., 4)`` stack, as ``(...)`` floats.

    A spec's matrix is Hermitian exactly, so the imaginary part of each
    value is rounding alone and is dropped.  ``||H||_F |psi|^2`` bounds each
    value; ``ValueError`` is raised on the first row where that bound
    overflows (a spec caches ``||H||_F = inf`` once its squared parameters
    overflow, from about 1e154), since its value cannot be trusted.
    """
    values = expectation(psi, hamiltonian.matrix)
    scale = hamiltonian.frobenius_norm * np.vecdot(psi, psi).real
    row = _first_row(np.isinf(scale))
    if row is not None:
        raise ValueError(f"mean energy out of range: ||H||_F |psi|^2 overflows at {complex(values[row])!r}")
    return values.real


def mean_energy(config: Configuration) -> float:
    """Expectation value of the total Hamiltonian in the global state."""
    return float(mean_energies(config.state.psi, config.hamiltonian))
