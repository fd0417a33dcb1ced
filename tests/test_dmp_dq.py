"""Coupled pose-primitive tests: forcing extraction, training, rollout."""

import io
import json

import numpy as np
import pytest

from dqdmp import (
    DualQuaternion,
    DualQuaternionDmp,
    Pose,
    Trajectory,
    basis_scheme_a,
    dq_from_pose,
    dq_product,
    dq_rollout,
    dq_target_forcing,
    dq_to_pose,
    dq_train,
    gen_somersault,
    load_model,
    phase,
    save_model,
)
from dqdmp.dmp import _pose_energy
from dqdmp.dualquat import dq_constraint_errors

from conftest import (
    dq_add,
    dq_error_oracle,
    dq_normalize,
    dq_scale,
    pose_components,
    pose_error,
    random_unit_dq,
)

BASIS = basis_scheme_a(30, 2.0)
EYE3 = np.eye(3)


def small_somersault():
    return gen_somersault(5.0, 5.0, 0.01)


def train_small(traj, k=1.0, d=10.0, n=30, alpha_x=0.05):
    basis = basis_scheme_a(n, alpha_x)
    return dq_train(traj, traj.duration, k, k, d, d, basis)


def rollout_metrics(roll, traj):
    n = min(len(roll.t), len(traj))
    pos, quat = roll.poses()
    dp = pos[:n] - traj.positions[:n]
    pos_rmse = float(np.sqrt(np.mean(np.sum(dp**2, axis=1))))
    dots = np.abs(np.sum(quat[:n] * traj.quaternions[:n], axis=1))
    ang = 2.0 * np.arccos(np.clip(dots, 0.0, 1.0))
    return pos_rmse, float(np.sqrt(np.mean(ang**2)))


# -- forcing extraction ---------------------------------------------------------


def test_dq_forcing_zero_for_stationary_demo(rng):
    goal = random_unit_dq(rng)
    n = 50
    dqs = [goal] * n
    xi = np.zeros((n, 6))
    xs = phase(np.arange(n) * 0.01, 2.0, 1.0)
    fd = dq_target_forcing(np.array([pose_components(q) for q in dqs]), xi, xi, xs,
                           goal, goal, 1.0, EYE3, EYE3,
                           2.0 * EYE3, 2.0 * EYE3)
    np.testing.assert_allclose(fd, 0.0, atol=1e-12)


def rk4_unforced_dq_demo(start, goal, k, d, alpha_x, tau, dt, T):
    """High-order reference solution of the unforced coupled dynamics.

    Independent oracle (RK4 on the flat 14-dim state); the error is read off
    the public dual quaternion product, not the package's (q, p) error.
    """
    e0 = dq_error_oracle(start, goal)

    def rhs(t, q, xi):
        x = np.exp(-alpha_x * t / tau)
        e = dq_error_oracle(q, goal)
        xi_dot = (k @ (e[:3] - e0[:3] * x) - d @ xi[:3],
                  k @ (e[3:] - e0[3:] * x) - d @ xi[3:])
        xi_dot = np.concatenate(xi_dot) / tau
        tw = DualQuaternion(np.array([0.0, *xi[:3]]), np.array([0.0, *xi[3:]]))
        qdot = dq_scale(dq_product(q, tw), 0.5 / tau)
        return qdot, xi_dot

    n = int(round(T / dt))
    qs = [start]
    xis = np.empty((n + 1, 6))
    xis[0] = 0.0
    q, xi = start, np.zeros(6)
    for i in range(n):
        t = i * dt
        k1q, k1x = rhs(t, q, xi)
        k2q, k2x = rhs(t + dt / 2, dq_add(q, dq_scale(k1q, dt / 2)), xi + dt / 2 * k1x)
        k3q, k3x = rhs(t + dt / 2, dq_add(q, dq_scale(k2q, dt / 2)), xi + dt / 2 * k2x)
        k4q, k4x = rhs(t + dt, dq_add(q, dq_scale(k3q, dt)), xi + dt * k3x)
        incr = dq_add(dq_add(k1q, dq_scale(k2q, 2.0)), dq_add(dq_scale(k3q, 2.0), k4q))
        q = dq_normalize(dq_add(q, dq_scale(incr, dt / 6.0)))
        xi = xi + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        qs.append(q)
        xis[i + 1] = xi
    return np.arange(n + 1) * dt, qs, xis


def test_dq_forcing_zero_for_unforced_rollout(rng):
    # invert the coupled dynamics along an accurate unforced solution:
    # the recovered forcing must vanish to the differencing floor
    start, goal = random_unit_dq(rng, 1.0), random_unit_dq(rng, 1.0)
    k, d = 1.0 * EYE3, 2.0 * EYE3
    dt = 0.002
    t, dqs, xis = rk4_unforced_dq_demo(start, goal, k, d, 2.0, 1.0, dt, 4.0)
    xi_dot = np.gradient(xis, dt, axis=0, edge_order=2)
    xs = phase(t, 2.0, 1.0)
    fd = dq_target_forcing(np.array([pose_components(q) for q in dqs]), xis, xi_dot,
                           xs, goal, start, 1.0, k, k, d, d)
    assert np.max(np.abs(fd)) <= 1e-5


def test_dq_forcing_somersault_initial_sample():
    # the loop demo starts at rest at its own goal pose, so the initial
    # forcing target reduces to the inverse-stiffness-scaled twist rate
    traj = small_somersault()
    der = traj.derived()
    start, goal = (dq_from_pose(Pose(traj.positions[k], traj.quaternions[k]))
                   for k in (0, -1))
    tau = traj.duration
    xs = phase(traj.t, 0.05, tau)
    k, d = 1.0 * EYE3, 10.0 * EYE3
    fd = dq_target_forcing(np.column_stack([traj.quaternions, traj.positions]), der.xi,
                           der.xi_dot, xs, goal, start, tau, k, k, d, d)
    e0 = pose_error(start, goal)
    np.testing.assert_allclose(e0, 0.0, atol=1e-9)
    expected = tau**2 * der.xi_dot[0] + tau * 10.0 * der.xi[0]
    np.testing.assert_allclose(fd[0], expected, atol=1e-9)
    assert np.all(np.isfinite(fd))


def test_training_inverts_the_error_the_rollout_integrates(rng):
    # at one pose with zero twist and rate and x = 0 the forcing target is
    # minus the pose error; it must be the rollout's error to the bit, and
    # at the trained start the error and e0 must cancel exactly at x = 1
    gains = (np.diag([1.0, 2.0, 3.0]), 4.0 * EYE3, 10.0 * EYE3, np.diag([5.0, 6.0, 7.0]))
    zero = np.zeros((1, 6))
    for _ in range(200):
        start, goal, at = (random_unit_dq(rng, 100.0) for _ in range(3))
        m = DualQuaternionDmp(*gains, BASIS, np.zeros((6, 30)), start, goal, 1.0)

        def target(dq, x):
            return dq_target_forcing(pose_components(dq)[None, :], zero, zero, np.array([x]),
                                     goal, start, 1.0, *gains)[0]

        for dq in (at, start):
            roll = dq_rollout(m, dq, dt=0.01, duration=0.0)
            assert np.array_equal(target(dq, 0.0), -roll.error[0])
        assert not np.any(target(start, 1.0))


# -- training -------------------------------------------------------------------


def test_dq_train_zero_weights_on_unforced_demo(rng):
    # a converged unforced rollout carries no forcing information
    start, goal = random_unit_dq(rng, 1.0), random_unit_dq(rng, 1.0)
    k, d = 25.0 * EYE3, 25.0 * EYE3
    m0 = DualQuaternionDmp(k, k, d, d, BASIS, np.zeros((6, 30)), start, goal, 1.0)
    roll = dq_rollout(m0, dt=5e-4, duration=25.0)
    pos, quat = roll.poses()
    traj = Trajectory(roll.t, pos, quat)
    m = dq_train(traj, 1.0, k, k, d, d, BASIS)
    assert np.max(np.abs(m.weights)) <= 2e-3


def test_dq_train_somersault_reproduction():
    traj = small_somersault()
    m = train_small(traj)
    xi0 = traj.derived().xi[0] * traj.duration
    roll = dq_rollout(m, xi0=xi0, dt=traj.dt, duration=traj.duration)
    pos_rmse, ori_rmse = rollout_metrics(roll, traj)
    assert pos_rmse < 0.02 * (2 * 5.0)  # 2% of the loop diameter
    assert ori_rmse < 0.05


def test_dq_train_self_consistency():
    # retraining on the model's own rollout: the second generation must
    # reproduce its training demo as faithfully as the first did (the
    # train/rollout loop is a near fixed point)
    traj = small_somersault()
    m1 = train_small(traj)
    xi0 = traj.derived().xi[0] * traj.duration
    roll1 = dq_rollout(m1, xi0=xi0, dt=traj.dt, duration=traj.duration)
    rmse1 = rollout_metrics(roll1, traj)

    pos, quat = roll1.poses()
    traj2 = Trajectory(roll1.t, pos, quat)
    m2 = train_small(traj2)
    xi0_2 = traj2.derived().xi[0] * traj2.duration
    roll2 = dq_rollout(m2, xi0=xi0_2, dt=traj.dt, duration=traj.duration)
    rmse2 = rollout_metrics(roll2, traj2)
    assert rmse2[0] <= 2.0 * rmse1[0] + 1e-6
    assert rmse2[1] <= 2.0 * rmse1[1] + 1e-6


# -- rollout --------------------------------------------------------------------


def test_dq_rollout_equilibrium(rng):
    goal = random_unit_dq(rng)
    m = DualQuaternionDmp(EYE3, EYE3, 2 * EYE3, 2 * EYE3, BASIS,
                          np.zeros((6, 30)), goal, goal, 1.0)
    roll = dq_rollout(m, dt=0.01, duration=2.0)
    assert np.max(np.abs(roll.xi)) <= 1e-12
    np.testing.assert_allclose(roll.dq, np.tile(goal.as_array(), (len(roll.t), 1)),
                               atol=1e-12)


def test_dq_rollout_unforced_convergence(rng):
    # goal attractor alone: random starts reach the goal pose by 10 tau
    k, d = 625.0, 250.0
    for _ in range(10):
        start, goal = random_unit_dq(rng), random_unit_dq(rng)
        m = DualQuaternionDmp(k * EYE3, k * EYE3, d * EYE3, d * EYE3, BASIS,
                              np.zeros((6, 30)), start, goal, 1.0)
        roll = dq_rollout(m, dt=0.0035, duration=10.0)
        pose = dq_to_pose(DualQuaternion(roll.dq[-1, :4], roll.dq[-1, 4:]))
        gpose = dq_to_pose(goal)
        assert np.linalg.norm(pose.position - gpose.position) < 1e-3
        ang = 2 * np.arccos(min(1.0, abs(pose.orientation @ gpose.orientation)))
        assert ang < 1e-3
        assert np.linalg.norm(roll.xi[-1]) < 1e-3


def test_dq_rollout_v1_monotone_unforced(rng):
    start, goal = random_unit_dq(rng), random_unit_dq(rng)
    m = DualQuaternionDmp(625 * EYE3, 625 * EYE3, 250 * EYE3, 250 * EYE3,
                          BASIS, np.zeros((6, 30)), start, goal, 1.0)
    roll = dq_rollout(m, dt=0.0035, duration=10.0)
    assert np.max(np.diff(roll.lyap[:, 1])) <= 1e-8


def test_dq_rollout_constraints_stay_tight():
    traj = small_somersault()
    m = train_small(traj)
    roll = dq_rollout(m, xi0=traj.derived().xi[0] * traj.duration,
                      dt=traj.dt, duration=traj.duration)
    for k in range(len(roll.t)):
        dq = DualQuaternion(roll.dq[k, :4], roll.dq[k, 4:])
        nerr, derr = dq_constraint_errors(dq)
        assert nerr <= 1e-6 and derr <= 1e-6


def test_dq_rollout_time_scaling_exact():
    # doubling tau and dt together replays the same discrete path
    traj = small_somersault()
    m = train_small(traj)
    xi0 = traj.derived().xi[0] * traj.duration
    nominal = dq_rollout(m, xi0=xi0, dt=0.01, duration=traj.duration)
    slowed = dq_rollout(m, xi0=xi0, dt=0.02, duration=2 * traj.duration,
                        tau_override=2 * m.tau)
    assert len(slowed.t) == len(nominal.t)
    np.testing.assert_allclose(slowed.t, 2.0 * nominal.t, atol=1e-12)
    np.testing.assert_allclose(slowed.dq, nominal.dq, atol=1e-9)
    np.testing.assert_allclose(slowed.xi, nominal.xi, atol=1e-9)


def test_dq_rollout_goal_override(rng):
    # retargeting moves the terminal pose to the new goal without retraining
    traj = small_somersault()
    m = train_small(traj)
    shift = np.array([1.0, 0.0, 0.0])
    gpose = dq_to_pose(m.dqd)
    new_goal = dq_from_pose(Pose(gpose.position + shift, gpose.orientation))
    # the shaping-term tail decays at the phase rate, so settle well past it
    roll = dq_rollout(m, xi0=traj.derived().xi[0] * traj.duration, dt=0.01,
                      duration=160 * m.tau, goal_override=new_goal)
    pose = dq_to_pose(DualQuaternion(roll.dq[-1, :4], roll.dq[-1, 4:]))
    assert np.linalg.norm(pose.position - (gpose.position + shift)) < 1e-2
    ang = 2 * np.arccos(min(1.0, abs(pose.orientation @ gpose.orientation)))
    assert ang < 1e-2


def test_dq_rollout_t_start_resumes_phase():
    traj = small_somersault()
    m = train_small(traj)
    xi0 = traj.derived().xi[0] * traj.duration
    full = dq_rollout(m, xi0=xi0, dt=0.01, duration=4.0)
    half = dq_rollout(m, xi0=xi0, dt=0.01, duration=2.0)
    endstate = DualQuaternion(half.dq[-1, :4].copy(), half.dq[-1, 4:].copy())
    rest = dq_rollout(m, dq0=endstate, xi0=half.xi[-1], dt=0.01, duration=2.0,
                      t_start=2.0)
    np.testing.assert_allclose(rest.dq[-1], full.dq[-1], atol=1e-9)
    np.testing.assert_allclose(rest.xi[-1], full.xi[-1], atol=1e-9)


# -- energy diagnostic ----------------------------------------------------------


def pose_energy(dq, xi, goal, k_rot, k_pos):
    """(V, V1, V2) of one pose state and tau-scaled twist against a goal,
    through dmp._pose_energy, the formula of DqRollout.lyap."""
    return _pose_energy(dq.real, dq_to_pose(dq).position, np.asarray(xi, dtype=float),
                        goal.real, dq_to_pose(goal).position,
                        np.full(3, 1.0 / k_rot), np.full(3, 1.0 / k_pos))


def test_lyapunov_zero_at_goal(rng):
    goal = random_unit_dq(rng)
    v, v1, v2 = pose_energy(goal, np.zeros(6), goal, 1.0, 1.0)
    assert v == 0.0 and v1 == 0.0 and v2 == 0.0


def test_lyapunov_v1_is_chordal_distance_at_rest(rng):
    dq, goal = random_unit_dq(rng), random_unit_dq(rng)
    _, v1, _ = pose_energy(dq, np.zeros(6), goal, 3.0, 5.0)
    chordal = np.sum((goal.real - dq.real) ** 2)
    assert abs(v1 - chordal) <= 1e-12


def test_lyapunov_positive_off_goal(rng):
    for _ in range(100):
        dq, goal = random_unit_dq(rng), random_unit_dq(rng)
        xi = rng.normal(size=6)
        v, v1, v2 = pose_energy(dq, xi, goal, 2.0, 4.0)
        assert v >= 0.0 and v1 >= 0.0 and v2 >= 0.0
        assert v == pytest.approx(v1 + v2)


def test_lyapunov_matches_rollout_diagnostics(rng):
    # V1 = ||qd - q||^2 + 0.5 w K_rot^-1 w, V2 = 0.5 ||pd - p||^2 + 0.5 v K_pos^-1 v
    start, goal = random_unit_dq(rng), random_unit_dq(rng)
    k, d = 9.0, 12.0
    m = DualQuaternionDmp(k * EYE3, k * EYE3, d * EYE3, d * EYE3, BASIS,
                          np.zeros((6, 30)), start, goal, 1.0)
    roll = dq_rollout(m, dt=0.01, duration=1.0)
    goal_position = dq_to_pose(goal).position
    for idx in (0, 17, 50, 100):
        pose = dq_to_pose(DualQuaternion(roll.dq[idx, :4], roll.dq[idx, 4:]))
        w, v = roll.xi[idx, :3], roll.xi[idx, 3:]
        v1 = np.sum((goal.real - pose.orientation) ** 2) + 0.5 * (w @ w) / k
        v2 = 0.5 * np.sum((goal_position - pose.position) ** 2) + 0.5 * (v @ v) / k
        np.testing.assert_allclose(roll.lyap[idx], [v1 + v2, v1, v2], atol=1e-12)


def test_dq_rollout_refuses_a_start_off_the_unit_constraints():
    # a start of norm 2 was stored as row 0 and stepped from there
    m = train_small(small_somersault())
    start = DualQuaternion(2.0 * m.dq0.real, 2.0 * m.dq0.dual)
    with pytest.raises(ValueError, match="unit constraints"):
        dq_rollout(m, dq0=start, dt=0.01, duration=1.0)
    off = DualQuaternion(m.dq0.real, m.dq0.dual + 1e-3 * m.dq0.real)  # <real, dual> != 0
    with pytest.raises(ValueError, match="unit constraints"):
        dq_rollout(m, dq0=off, dt=0.01, duration=1.0)


def test_a_boundary_pose_off_the_unit_constraints_is_named():
    # each got the bare "dual quaternion violates unit constraints (...)"
    m = train_small(small_somersault())
    doubled = DualQuaternion(2.0 * m.dqd.real, m.dqd.dual)
    with pytest.raises(ValueError, match="^goal_override: dual quaternion violates unit"):
        dq_rollout(m, goal_override=doubled, dt=0.01, duration=1.0)
    with pytest.raises(ValueError, match="^dq0: dual quaternion violates unit"):
        dq_rollout(m, dq0=doubled, dt=0.01, duration=1.0)
    for name in ("dq0", "dqd"):
        doc = json.loads(_saved(m))
        doc["boundary"][name] = doubled.as_array().tolist()
        with pytest.raises(ValueError, match=f"^{name}: dual quaternion violates unit"):
            load_model(io.StringIO(json.dumps(doc)))


@pytest.mark.parametrize("name", ["dq0", "goal_override"])
def test_dq_rollout_refuses_a_flat_array_by_name(name):
    # the flat [real, dual] 8-array of model files raised AttributeError
    m = train_small(small_somersault())
    with pytest.raises(ValueError, match=f"^{name} must be a DualQuaternion, not ndarray$"):
        dq_rollout(m, dt=0.01, duration=1.0, **{name: m.dqd.as_array()})


def _saved(model) -> str:
    buf = io.StringIO()
    save_model(model, buf)
    return buf.getvalue()
