"""The stacked training path against per-sample references.

Training evaluates the algebra once over a whole demonstration.  Each check
here compares a stacked call with a loop of single-value calls written out
in the test: bit for bit wherever the arithmetic per sample is the same,
and to 1e-12 of each output dimension's largest weight where full
(non-diagonal) gain matrices change the summation order of a 3x3 product.
"""

import numpy as np
import pytest

import dqdmp.canonical as canonical
from dqdmp import (
    DualQuaternion,
    Pose,
    Trajectory,
    basis_scheme_a,
    classical_target_forcing,
    design_matrix,
    differentiate,
    dq_error,
    dq_from_pose,
    dq_train,
    fit_weights,
    gen_somersault,
    phase,
    pose_train,
    quat_conjugate,
    quat_product,
    quat_rotate,
    quat_rotate_inverse,
    quat_train,
    quat_vec,
    twist_body_from_demo,
)
from dqdmp.dmp import DqRollout
from dqdmp.dualquat import dq_position
from dqdmp.traj import ScalarDemo

from conftest import random_unit_quat

N = 257


def unit_quats(rng, n=N):
    q = rng.normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=1)[:, None]


def rows(fn, *stacks):
    """Loop of single-value calls over the rows of the stacks."""
    return np.array([fn(*row) for row in zip(*stacks)])


# -- kernels --------------------------------------------------------------------


def test_quat_kernels_equal_single_calls(rng):
    a, b = unit_quats(rng), unit_quats(rng)
    v = rng.normal(size=(N, 3))
    one = random_unit_quat(rng)
    assert np.array_equal(quat_product(a, b), rows(quat_product, a, b))
    assert np.array_equal(quat_product(a, one),
                          rows(lambda x: quat_product(x, one), a))
    assert np.array_equal(quat_product(one, b),
                          rows(lambda x: quat_product(one, x), b))
    assert np.array_equal(quat_conjugate(a), rows(quat_conjugate, a))
    assert np.array_equal(quat_vec(a), rows(quat_vec, a))
    assert np.array_equal(quat_rotate(a, v), rows(quat_rotate, a, v))
    assert np.array_equal(quat_rotate_inverse(a, v), rows(quat_rotate_inverse, a, v))


def test_dual_quaternion_kernels_equal_single_calls(rng):
    q, p = unit_quats(rng), rng.uniform(-50.0, 50.0, size=(N, 3))
    stacked = dq_from_pose(Pose(p, q))
    single = [dq_from_pose(Pose(pk, qk)) for pk, qk in zip(p, q)]
    assert np.array_equal(stacked.as_array(), [d.as_array() for d in single])
    goal = dq_from_pose(Pose(rng.normal(size=3), random_unit_quat(rng)))
    assert np.array_equal(dq_error(stacked, goal), [dq_error(d, goal) for d in single])
    assert np.array_equal(dq_position(stacked), [dq_position(d) for d in single])
    omega, p_b, p_b_dot = (rng.normal(size=(N, 3)) for _ in range(3))
    assert np.array_equal(twist_body_from_demo(omega, p_b, p_b_dot).as_array(),
                          rows(lambda *a: twist_body_from_demo(*a).as_array(),
                               omega, p_b, p_b_dot))


def test_rollout_poses_equal_single_extraction(rng):
    q, p = unit_quats(rng), rng.uniform(-5.0, 5.0, size=(N, 3))
    dq = dq_from_pose(Pose(p, q)).as_array()
    roll = DqRollout(np.arange(N) * 0.01, np.ones(N), dq, np.zeros((N, 6)),
                     np.zeros((N, 6)), np.zeros((N, 6)), np.zeros((N, 3)))
    pos, quats = roll.poses()
    assert np.array_equal(pos, [dq_position(DualQuaternion(d[:4], d[4:])) for d in dq])
    assert np.array_equal(quats, q)


# -- design matrix and fits -----------------------------------------------------


def reference_design_matrix(xs, basis):
    A = np.empty((len(xs), basis.n_kernels))
    for k, x in enumerate(xs):
        psi = basis.kernel_values(x)
        s = psi.sum()
        A[k] = psi / s * x if s >= 1e-300 else 0.0
    return A


@pytest.mark.parametrize("basis", [basis_scheme_a(30, 2.0)], ids=["scheme_a"])
def test_design_matrix_equals_per_row_evaluation(basis):
    xs = np.concatenate([phase(np.linspace(0.0, 3.0, 301), basis.alpha_x, 1.0),
                         np.linspace(-400.0, 400.0, 40001)])
    sums = np.array([basis.kernel_values(x).sum() for x in xs])
    # rows above, just below (still positive) and far below the floor
    assert np.any(sums >= 1e-300)
    assert np.any((sums > 0.0) & (sums < 1e-300))
    assert np.any(sums == 0.0)
    assert np.array_equal(design_matrix(xs, basis), reference_design_matrix(xs, basis))


def test_fit_weights_columns_equal_single_fits(rng, monkeypatch):
    basis = basis_scheme_a(25, 2.0)
    xs = phase(np.linspace(0.0, 2.0, 400), 2.0, 1.0)
    targets = rng.normal(size=(400, 5))
    targets[:, 1] = 0.0
    targets[:, 4] = 0.0
    calls = []
    real_design_matrix = canonical.design_matrix
    monkeypatch.setattr(canonical, "design_matrix",
                        lambda *a: calls.append(1) or real_design_matrix(*a))
    weights, residuals = fit_weights(xs, targets, basis)
    assert len(calls) == 1
    assert weights.shape == (5, 25) and residuals.shape == (5,)
    for j in range(5):
        w, r = fit_weights(xs, targets[:, j], basis)
        assert np.array_equal(weights[j], w)
        assert residuals[j] == r
    assert not np.any(weights[[1, 4]]) and not np.any(residuals[[1, 4]])
    calls.clear()
    weights, residuals = fit_weights(xs, np.zeros((400, 3)), basis)
    assert not calls and not np.any(weights) and not np.any(residuals)


# -- training -------------------------------------------------------------------


def mounted_loop(rng):
    """Small tilted, body-mounted loop: every twist channel is non-zero."""
    loop = gen_somersault(5.0, 4.0, 0.01)
    tilt, mount = random_unit_quat(rng), random_unit_quat(rng)
    return Trajectory(loop.t, quat_rotate(tilt, loop.positions) + [1.0, -2.0, 3.0],
                      quat_product(quat_product(tilt, loop.quaternions), mount))


def reference_fit(xs, targets, basis):
    """One single-column fit per output dimension, as (dims, N)."""
    A = reference_design_matrix(xs, basis)
    weights = np.zeros((targets.shape[1], basis.n_kernels))
    for j in range(targets.shape[1]):
        if np.any(targets[:, j]):
            weights[j], *_ = np.linalg.lstsq(A, targets[:, j], rcond=1e-10)
    return weights


def reference_twists(traj):
    q, n = traj.quaternions, len(traj)
    qdot = np.gradient(q, traj.dt, axis=0, edge_order=2)
    omega_b, p_b = np.empty((n, 3)), np.empty((n, 3))
    for k in range(n):
        omega_b[k] = 2.0 * quat_vec(quat_product(quat_conjugate(q[k]), qdot[k]))
        p_b[k] = quat_rotate_inverse(q[k], traj.positions[k])
    p_b_dot = np.gradient(p_b, traj.dt, axis=0, edge_order=2)
    xi = np.empty((n, 6))
    for k in range(n):
        xi[k, :3] = omega_b[k]
        xi[k, 3:] = p_b_dot[k] + np.cross(omega_b[k], p_b[k])
    return omega_b, xi, np.gradient(xi, traj.dt, axis=0, edge_order=2)


def reference_dq_weights(traj, tau, k_rot, k_pos, d_rot, d_pos, basis):
    _, xi, xi_dot = reference_twists(traj)
    dqs = [dq_from_pose(Pose(p, q)) for p, q in zip(traj.positions, traj.quaternions)]
    xs = phase(traj.t, basis.alpha_x, tau)
    kinv_r, kinv_p = np.linalg.inv(k_rot), np.linalg.inv(k_pos)
    e0 = dq_error(dqs[0], dqs[-1])
    fd = np.empty((len(traj), 6))
    for k in range(len(traj)):
        e = dq_error(dqs[k], dqs[-1])
        drive_r = tau**2 * xi_dot[k, :3] + tau * d_rot @ xi[k, :3]
        drive_p = tau**2 * xi_dot[k, 3:] + tau * d_pos @ xi[k, 3:]
        fd[k, :3] = kinv_r @ drive_r - e[:3] + e0[:3] * xs[k]
        fd[k, 3:] = kinv_p @ drive_p - e[3:] + e0[3:] * xs[k]
    return reference_fit(xs, fd, basis)


def reference_quat_weights(traj, tau, k, d, basis, frame):
    omega_b, _, _ = reference_twists(traj)
    omega_dot = np.gradient(omega_b, traj.dt, axis=0, edge_order=2)
    q, qd = traj.quaternions, traj.quaternions[-1]
    omega = omega_b
    if frame == "inertial":
        omega = np.array([quat_rotate(q[j], omega_b[j]) for j in range(len(q))])
        omega_dot = np.array([quat_rotate(q[j], omega_dot[j]) for j in range(len(q))])

    def err(qk):
        if frame == "body":
            return quat_vec(quat_product(quat_conjugate(qk), qd))
        return quat_vec(quat_product(qd, quat_conjugate(qk)))

    xs = phase(traj.t, basis.alpha_x, tau)
    kinv, e0 = np.linalg.inv(k), err(q[0])
    fd = np.empty((len(q), 3))
    for j in range(len(q)):
        fd[j] = kinv @ (tau**2 * omega_dot[j] + tau * d @ omega[j]) - err(q[j]) + e0 * xs[j]
    return reference_fit(xs, fd, basis)


def spd(rng, scale):
    m = rng.normal(size=(3, 3))
    return scale * (m @ m.T + 3.0 * np.eye(3))


GAINS = ["scalar", "diagonal", "full"]


def gains(rng, kind):
    if kind == "scalar":
        return 1.0 * np.eye(3), 10.0 * np.eye(3)
    if kind == "diagonal":
        return np.diag([1.0, 2.0, 4.0]), np.diag([10.0, 12.0, 15.0])
    return spd(rng, 1.0), spd(rng, 10.0)


def assert_matches(got, expected, kind):
    assert np.all(np.any(expected, axis=1))    # every dimension was solved
    if kind == "full":
        # relative to each dimension's largest weight: a weight near zero
        # carries the rounding of its larger neighbours
        scale = np.abs(expected).max(axis=1, keepdims=True)
        assert np.all(np.abs(got - expected) <= 1e-12 * scale)
    else:
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("kind", GAINS)
def test_dq_train_matches_per_sample_reference(rng, kind):
    traj = mounted_loop(rng)
    k, d = gains(rng, kind)
    basis = basis_scheme_a(30, 0.05)
    m = dq_train(traj, traj.duration, k, 2.0 * k, d, 2.0 * d, basis)
    ref = reference_dq_weights(traj, traj.duration, k, 2.0 * k, d, 2.0 * d, basis)
    assert_matches(m.weights, ref, kind)
    start = dq_from_pose(Pose(traj.positions[0], traj.quaternions[0]))
    assert np.array_equal(m.dq0.as_array(), start.as_array())


@pytest.mark.parametrize("frame", ["body", "inertial"])
@pytest.mark.parametrize("kind", GAINS)
def test_quat_train_matches_per_sample_reference(rng, kind, frame):
    traj = mounted_loop(rng)
    k, d = gains(rng, kind)
    basis = basis_scheme_a(50, 0.1)
    m = quat_train(traj, traj.duration, k, d, basis, frame=frame)
    ref = reference_quat_weights(traj, traj.duration, k, d, basis, frame)
    assert_matches(m.weights, ref, kind)


def test_differentiate_matches_per_sample_reference(rng):
    traj = mounted_loop(rng)
    der = differentiate(traj)
    omega_b, xi, xi_dot = reference_twists(traj)
    assert np.array_equal(der.omega_b, omega_b)
    assert np.array_equal(der.xi, xi)
    assert np.array_equal(der.xi_dot, xi_dot)


def test_pose_train_matches_per_sample_reference(rng):
    traj = mounted_loop(rng)
    tau, alpha_x = traj.duration, 0.1
    m = pose_train(traj, tau, alpha_x, 30, 10.0, 10.0 * np.sqrt(10.0), 50, 1.0, 10.0)
    pos_basis = basis_scheme_a(30, alpha_x)
    xs = phase(traj.t, alpha_x, tau)
    alpha_z, beta_z = 10.0 * np.sqrt(10.0), 10.0 / (10.0 * np.sqrt(10.0))
    vel = np.gradient(traj.positions, traj.dt, axis=0, edge_order=2)
    acc = np.gradient(vel, traj.dt, axis=0, edge_order=2)
    for dim, axis in enumerate(m.position):
        demo = ScalarDemo(traj.t, traj.positions[:, dim], vel[:, dim], acc[:, dim])
        fd = classical_target_forcing(demo, float(traj.positions[-1, dim]), tau,
                                      alpha_z, beta_z)
        assert np.array_equal(axis.weights, reference_fit(xs, fd[:, None], pos_basis)[0])
        assert axis.y0 == traj.positions[0, dim] and axis.goal == traj.positions[-1, dim]
    ref = reference_quat_weights(traj, tau, np.eye(3), 10.0 * np.eye(3),
                                 basis_scheme_a(50, alpha_x), "body")
    assert np.array_equal(m.orientation.weights, ref)
