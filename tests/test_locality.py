"""Sampling, finite-difference Jacobians, the audit system and its chart."""

import numpy as np
import pytest

from quniverse import core, dynamics, locality, verification
from shared_checks import shared_check

test_jacobian_of_norm_row_matches_gradient = shared_check("norm_gradient", seed=1, n=25)
test_jacobian_exact_on_linear_maps = shared_check("linear_map", seed=3, n=6)
test_raw_route_ties_to_extended_state = shared_check("reduced_states", seed=21, n=25)
test_run_experiment_is_deterministic = shared_check("audit_and_chart", seed=77, n=5)


def test_sampler_is_bitwise_deterministic():
    one = locality.sample_interior_rep(123)
    two = locality.sample_interior_rep(123)
    assert np.array_equal(one.to_array(), two.to_array())


def test_sampler_stays_interior():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        rep = locality.sample_interior_rep(rng)
        assert np.all(rep.r > 0.0)
        assert abs(np.sum(rep.r**2) - 1.0) < 1e-12
        assert np.all((rep.theta > 0.0) & (rep.theta < 2 * np.pi))
        assert 0.0 < rep.omega_a < 1.0 and 0.0 < rep.omega_b < 1.0
        assert np.all((rep.h > -1.0) & (rep.h < 1.0))


def test_jacobian_mean_energy_gap_column_uncoupled():
    # without coupling the mean energy is linear in the gaps with slopes
    # R2^2 + R3^2 and R1^2 + R3^2
    rng = np.random.default_rng(2)
    for _ in range(10):
        rep = locality.sample_interior_rep(rng)
        x = rep.to_array()
        x[10:] = 0.0
        jac = locality.numerical_jacobian(
            lambda y: locality.rep_observables(y)[13], x, h_step=1e-6
        )
        assert abs(jac[0, 8] - (rep.r[2] ** 2 + rep.r[3] ** 2)) < 1e-9
        assert abs(jac[0, 9] - (rep.r[1] ** 2 + rep.r[3] ** 2)) < 1e-9


@pytest.mark.parametrize("seed", [5, 8, 884953773])
def test_verify_locality_suite_passes_on_former_rounding_seeds(seed):
    # these seeds pushed the old random-normal linear-map check past its
    # tolerance through rounding alone
    (result,) = verification.run_suites(["locality"], seed=seed)
    assert result.passed, result.failures


def test_jacobian_propagates_nonfinite_with_coordinate_name():
    def bad(x):
        return np.array([np.nan])

    with pytest.raises(locality.JacobianEvaluationError, match="R0"):
        locality.numerical_jacobian(bad, locality.sample_interior_rep(4), h_step=1e-6)


def test_raw_route_derivative_rows_match_propagator_oracle():
    # the propagator route shares no algebra with the commutator kernel
    rng = np.random.default_rng(22)
    for _ in range(25):
        rep = locality.sample_interior_rep(rng)
        config = core.rep_to_config(rep)
        raw = locality.rep_observables(rep.to_array())
        for offset, subsystem in zip((3, 9), dynamics.SUBSYSTEMS):
            oracle = dynamics.finite_difference_rho_dot(config, subsystem)
            expected = [oracle[0, 1].real, oracle[0, 1].imag, oracle[1, 1].real]
            assert np.max(np.abs(raw[offset:offset + 3] - expected)) < 1e-8


def test_stacked_evaluation_matches_points_bitwise():
    # every other point displaced off the sphere, as finite-difference points are
    rng = np.random.default_rng(23)
    x = np.stack([locality.sample_interior_rep(rng).to_array() for _ in range(40)])
    x[::2] += rng.normal(0.0, 1e-3, x[::2].shape)
    observables = locality.rep_observables(x)
    norms = locality.numerical_jacobian(locality.rep_norm_sq, x, h_step=1e-4)
    systems, rhs = locality.build_system(x)
    assert observables.shape == (40, 14)
    assert norms.shape == (40, 1, 19)
    assert systems.shape == (40, 14, 19) and systems.flags["C_CONTIGUOUS"]
    for i in range(40):
        assert observables[i].tobytes() == locality.rep_observables(x[i]).tobytes()
        point_norm = locality.numerical_jacobian(locality.rep_norm_sq, x[i], h_step=1e-4)
        assert norms[i].tobytes() == point_norm.tobytes()
        matrix, point_rhs = locality.build_system(x[i])
        assert systems[i].tobytes() == matrix.tobytes()
        assert np.array_equal(rhs, point_rhs)


def _exact_audit_jacobian(x):
    """Forward-mode ``(m, 14, 19)`` Jacobian of ``rep_observables`` at an ``(m, 19)`` stack.

    Tangents along the 19 coordinate directions: ``drho = dpsi psi^+ +
    psi dpsi^+`` and ``drho_dot = -i([dH, rho] + [H, drho])``, read through
    the linear ``extended_coordinates``; the norm row is ``2 R.dR`` and the
    energy row ``2 Re(psi^+ H dpsi) + psi^+ dH psi``.
    """
    m = x.shape[0]
    k = np.arange(4)
    phase = np.exp(1j * x[:, 4:8])
    psi = x[:, :4] * phase
    matrix = core.hamiltonian_matrix(x[:, 8], x[:, 9], x[:, 10:].reshape(m, 3, 3))
    dpsi = np.zeros((m, 19, 4), dtype=complex)
    dpsi[:, k, k] = phase
    dpsi[:, 4 + k, k] = 1j * psi
    # H is linear in (omega_a, omega_b, h): its derivatives are H of unit vectors
    unit = np.eye(11)
    dmatrix = np.zeros((m, 19, 4, 4), dtype=complex)
    dmatrix[:, 8:] = core.hamiltonian_matrix(unit[:, 0], unit[:, 1], unit[:, 2:].reshape(11, 3, 3))
    psi, matrix = psi[:, None], matrix[:, None]
    rho = psi[..., :, None] * psi[..., None, :].conj()
    drho = dpsi[..., :, None] * psi[..., None, :].conj()
    drho = drho + psi[..., :, None] * dpsi[..., None, :].conj()
    drho_dot = -1j * (dmatrix @ rho - rho @ dmatrix + matrix @ drho - drho @ matrix)
    jac = np.zeros((m, 19, 14))
    jac[..., 0:6] = dynamics.extended_coordinates(drho, drho_dot, "A")
    jac[..., 6:12] = dynamics.extended_coordinates(drho, drho_dot, "B")
    jac[:, k, 12] = 2.0 * x[:, :4]
    h_dpsi = (matrix @ dpsi[..., None])[..., 0]
    dh_psi = (dmatrix @ psi[..., None])[..., 0]
    jac[..., 13] = 2.0 * np.vecdot(psi, h_dpsi).real + np.vecdot(psi, dh_psi).real
    return jac.transpose(0, 2, 1)


def test_stacked_jacobian_matches_exact_oracle():
    x = np.stack([locality.sample_interior_rep(s).to_array() for s in range(200)])
    matrices, _ = locality.build_system(x)
    assert np.max(np.abs(matrices - _exact_audit_jacobian(x))) < 1e-8


def test_failure_stays_with_its_sample_inside_a_chunk(monkeypatch):
    # two poisoned samples, in the first and the second chunk: each chunk's
    # stacked call fails, yet only those samples may be lost
    n, bad = locality.AUDIT_CHUNK + 6, (5, locality.AUDIT_CHUNK + 2)
    clean = locality.run_experiment(n=n, seed=31, keep_samples=True)
    assert clean.failed_indices == ()
    targets = [clean.samples[i].rep.to_array() for i in bad]
    original = locality.rep_observables

    def poisoned(x):
        out = original(x)
        for target in targets:
            out[np.max(np.abs(np.asarray(x) - target), axis=-1) < 1e-5] = np.nan
        return out

    monkeypatch.setattr(locality, "rep_observables", poisoned)
    report = locality.run_experiment(n=n, seed=31, keep_samples=True)
    assert report.failed_indices == bad
    assert report.n_solvable == n - len(bad)
    expected = [s.residual_norm for i, s in enumerate(clean.samples) if i not in bad]
    assert [s.residual_norm for s in report.samples] == expected


def test_per_sample_pairs_name_their_own_sample(monkeypatch):
    # after a failed sample, each later [index, residual] pair must still
    # carry that sample's index, not its position among the kept samples
    clean = locality.run_experiment(n=4, seed=31, keep_samples=True)
    target = clean.samples[1].rep.to_array()
    original = locality.rep_observables

    def poisoned(x):
        out = original(x)
        out[np.max(np.abs(np.asarray(x) - target), axis=-1) < 1e-5] = np.nan
        return out

    monkeypatch.setattr(locality, "rep_observables", poisoned)
    report = locality.run_experiment(n=4, seed=31, keep_samples=True)
    assert report.failed_indices == (1,)
    residuals = [s.residual_norm for s in clean.samples]
    assert report.to_json_dict(per_sample=True)["samples"] == [
        [0, residuals[0]], [2, residuals[2]], [3, residuals[3]]
    ]


def test_residuals_are_relative_to_the_request():
    base = locality.run_experiment(n=20, seed=32, keep_samples=True)
    scaled = locality.run_experiment(n=20, seed=32, delta_e=-1000.0, keep_samples=True)
    assert scaled.n_solvable == 20
    for one, two in zip(base.samples, scaled.samples):
        assert abs(one.residual_norm - two.residual_norm) < 1e-14


def test_build_system_shape_and_rhs():
    matrix, rhs = locality.build_system(locality.sample_interior_rep(5), delta_e=1.0)
    assert matrix.shape == (14, 19)
    assert rhs.shape == (14,)
    assert rhs[13] == 1.0
    assert np.all(rhs[:13] == 0.0)
    with pytest.raises(ValueError, match="delta_e"):
        locality.build_system(locality.sample_interior_rep(5), delta_e=0.0)


def test_build_system_is_bitwise_deterministic():
    rep = locality.sample_interior_rep(6)
    one = locality.build_system(rep)
    two = locality.build_system(rep)
    assert np.array_equal(one[0], two[0])
    assert np.array_equal(one[1], two[1])


def test_build_system_gap_column_uncoupled():
    # without coupling the coherence derivative rotates at the gap, so the
    # gap column of those rows reproduces the coherence components
    rep = locality.sample_interior_rep(7)
    x = rep.to_array()
    x[10:] = 0.0
    matrix, _ = locality.build_system(x)
    config = core.rep_to_config(core.ConfigRep.from_array(x))
    ext = dynamics.extended_state(config, "A")
    assert abs(matrix[3, 8] - (-ext.im_c)) < 1e-9
    assert abs(matrix[4, 8] - ext.re_c) < 1e-9
    assert abs(matrix[5, 8]) < 1e-9


def test_least_squares_consistent_underdetermined_system():
    matrix = np.hstack([np.eye(3), np.zeros((3, 2))])
    rhs = np.array([1.0, -2.0, 0.5])
    solution, residual = locality.solve_least_squares((matrix, rhs))
    assert residual < 1e-14
    assert np.max(np.abs(matrix @ solution - rhs)) < 1e-14


def test_least_squares_duplicated_row_is_inconsistent():
    # two copies of one unit row with targets 0 and 1: best split is 1/2
    # each, so the residual is exactly 1/sqrt(2)
    row = np.zeros(19)
    row[0] = 1.0
    matrix = np.vstack([row, row])
    rhs = np.array([0.0, 1.0])
    _, residual = locality.solve_least_squares((matrix, rhs))
    assert abs(residual - 1.0 / np.sqrt(2.0)) < 1e-12


def test_sampled_systems_are_solvable():
    rng = np.random.default_rng(8)
    for _ in range(5):
        system = locality.build_system(locality.sample_interior_rep(rng))
        _, residual = locality.solve_least_squares(system)
        assert residual < 1e-12


def test_residual_not_below_homogeneous_subsystem():
    rng = np.random.default_rng(9)
    for _ in range(5):
        matrix, rhs = locality.build_system(locality.sample_interior_rep(rng))
        _, full = locality.solve_least_squares((matrix, rhs))
        _, homogeneous = locality.solve_least_squares((matrix[:13], np.zeros(13)))
        assert homogeneous <= full + 1e-15
        assert homogeneous < 1e-14


def test_solutions_are_tangent_to_the_moduli_sphere():
    rng = np.random.default_rng(10)
    for _ in range(10):
        rep = locality.sample_interior_rep(rng)
        solution, residual = locality.solve_least_squares(locality.build_system(rep))
        assert residual < 1e-12
        assert abs(np.dot(rep.r, solution[:4])) < 1e-9


def test_run_experiment_rejects_empty_run():
    with pytest.raises(ValueError, match="at least 1"):
        locality.run_experiment(n=0, seed=0)


def test_run_experiment_small_batch_all_solvable():
    report = locality.run_experiment(n=50, seed=11)
    assert report.n_solvable == 50
    assert report.failed_indices == ()
    assert report.max_residual < 1e-13
    tighter = locality.run_experiment(n=50, seed=11, threshold=1e-13)
    assert tighter.n_solvable == 50


def test_solvable_flag_tracks_threshold():
    report = locality.run_experiment(n=10, seed=12, keep_samples=True)
    for sample in report.samples:
        assert sample.solvable == (sample.residual_norm < report.threshold)
    strict = locality.run_experiment(n=10, seed=12, threshold=1e-300, keep_samples=True)
    assert strict.n_solvable == 0
    assert all(not s.solvable for s in strict.samples)


def test_report_serialization_round_trip():
    report = locality.run_experiment(n=4, seed=13, keep_samples=True)
    payload = report.to_json_dict(per_sample=True)
    assert payload["n_samples"] == 4
    assert len(payload["samples"]) == 4
    assert payload["samples"][0][0] == 0
    bare = locality.run_experiment(n=4, seed=13)
    with pytest.raises(ValueError, match="per-sample"):
        bare.to_json_dict(per_sample=True)


def test_hyperspherical_radius_of_unit_vectors():
    rng = np.random.default_rng(14)
    for _ in range(100):
        moduli = rng.uniform(0.05, 1.0, 4)
        moduli /= np.linalg.norm(moduli)
        radius, *_ = locality.hyperspherical_forward(moduli)
        assert abs(radius - 1.0) < 1e-12


def test_hyperspherical_round_trip_from_moduli():
    rng = np.random.default_rng(15)
    for _ in range(1000):
        moduli = rng.uniform(0.02, 1.0, 4)
        back = locality.hyperspherical_backward(*locality.hyperspherical_forward(moduli))
        assert np.max(np.abs(back - moduli)) < 1e-12


def test_hyperspherical_round_trip_from_angles():
    rng = np.random.default_rng(16)
    for _ in range(1000):
        angles = rng.uniform(0.05, np.pi / 2 - 0.05, 3)
        moduli = locality.hyperspherical_backward(1.0, *angles)
        _, alpha, beta, gamma = locality.hyperspherical_forward(moduli)
        assert np.max(np.abs(np.array([alpha, beta, gamma]) - angles)) < 1e-12


def test_hyperspherical_pathological_points_raise():
    with pytest.raises(ValueError, match="pathological"):
        locality.hyperspherical_forward([0.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="pathological"):
        locality.hyperspherical_forward([0.0, 0.5, 0.5, 0.0])
    with pytest.raises(ValueError, match="zero moduli"):
        locality.hyperspherical_forward([0.0, 0.0, 0.0, 0.0])


def test_transport_of_zero_is_zero():
    rep = locality.sample_interior_rep(17)
    assert np.array_equal(locality.transport_solution(np.zeros(19), rep), np.zeros(18))


def test_transport_phase_increment_passes_through():
    # the chart touches only the moduli block; a pure phase increment maps
    # to the same slot shifted by one
    rep = locality.sample_interior_rep(18)
    dx = np.zeros(19)
    dx[4] = 0.25
    dy = locality.transport_solution(dx, rep)
    expected = np.zeros(18)
    expected[3] = 0.25
    assert np.array_equal(dy, expected)


def test_transport_requires_tangency():
    rep = locality.sample_interior_rep(19)
    dx = np.zeros(19)
    dx[0] = 1e-3
    with pytest.raises(ValueError, match="tangent"):
        locality.transport_solution(dx, rep)


def test_transported_solutions_satisfy_tangent_system():
    rng = np.random.default_rng(20)
    for _ in range(10):
        rep = locality.sample_interior_rep(rng)
        solution, _ = locality.solve_least_squares(locality.build_system(rep))
        transported = locality.transport_solution(solution, rep)
        matrix, rhs = locality.build_tangent_system(rep)
        assert np.linalg.norm(matrix @ transported - rhs) < 1e-8
