"""Classical and quaternion primitive tests (training oracles + rollouts)."""

from dataclasses import fields, replace

import numpy as np
import pytest

from dqdmp import (
    ClassicalDmp,
    QuaternionDmp,
    Trajectory,
    basis_scheme_a,
    classical_rollout,
    classical_target_forcing,
    classical_train,
    gen_min_jerk,
    gen_somersault,
    phase,
    pose_rollout,
    pose_train,
    quat_exp,
    quat_product,
    quat_rollout,
    quat_target_forcing,
    quat_train,
)
from dqdmp.traj import ScalarDemo, _minjerk_s

from conftest import random_unit_quat

BASIS = basis_scheme_a(30, 2.0)


def critically_damped_demo(y0, g, alpha_z, T, dt):
    """Analytic unforced solution of the scalar attractor at beta = alpha/4.

    y(t) = g + e^{-at/2} ((y0-g) + a/2 (y0-g) t) for tau = 1; the forcing
    recovered from it must vanish identically.
    """
    t = np.arange(int(round(T / dt)) + 1) * dt
    a = alpha_z / 2.0
    c = y0 - g
    y = g + np.exp(-a * t) * (c + a * c * t)
    yd = np.exp(-a * t) * (-a * c * a * t)  # d/dt: -a e(..)(c+act) + e(..)ac
    ydd = np.exp(-a * t) * (a * a * c * (a * t - 1.0))
    return ScalarDemo(t, y, yd, ydd)


def two_axis_attitude_demo(T=2.0, dt=0.01):
    """Smooth non-commuting attitude maneuver (roll then pitch ramps)."""
    n = int(round(T / dt))
    t = np.arange(n + 1) * dt
    s, _, _ = _minjerk_s(t / T)
    quats = np.empty((n + 1, 4))
    for k in range(n + 1):
        roll = quat_exp(np.array([0.4 * s[k], 0.0, 0.0]))
        pitch = quat_exp(np.array([0.0, 0.6 * s[k], 0.0]))
        quats[k] = quat_product(roll, pitch)
    return Trajectory(t, np.zeros((n + 1, 3)), quats)


# -- classical -----------------------------------------------------------------


def test_classical_forcing_zero_for_constant_demo():
    t = np.arange(100) * 0.01
    demo = ScalarDemo(t, np.full(100, 2.0), np.zeros(100), np.zeros(100))
    fd = classical_target_forcing(demo, 2.0, 1.0, 25.0, 6.25)
    np.testing.assert_allclose(fd, 0.0, atol=1e-12)


def test_classical_forcing_zero_for_unforced_solution():
    demo = critically_damped_demo(0.3, 1.0, 25.0, 2.0, 0.001)
    fd = classical_target_forcing(demo, 1.0, 1.0, 25.0, 6.25)
    assert np.max(np.abs(fd)) <= 1e-6


def test_classical_forcing_initial_value():
    demo = gen_min_jerk(0.0, 1.0, 1.0, 0.01)
    fd = classical_target_forcing(demo, 1.0, 1.0, 25.0, 6.25)
    assert abs(fd[0] - (-25.0 * 6.25 * (1.0 - 0.0))) <= 1e-12


def test_classical_rollout_equilibrium():
    m = ClassicalDmp(25.0, 6.25, BASIS, np.zeros(30), 1.0, 1.0, 1.0)
    roll = classical_rollout(m, 1.0, 0.01, 2.0)
    np.testing.assert_allclose(roll.y, 1.0, atol=1e-12)
    np.testing.assert_allclose(roll.z, 0.0, atol=1e-12)


def test_classical_unforced_convergence_matches_analytic():
    # critically damped: no overshoot, |y - g| below 1e-3 by ten time scales
    m = ClassicalDmp(25.0, 6.25, BASIS, np.zeros(30), 0.0, 1.0, 1.0)
    roll = classical_rollout(m, 0.0, 1e-4, 10.0)
    assert abs(roll.y[-1] - 1.0) < 1e-3
    err = np.abs(roll.y - 1.0)
    assert np.all(np.diff(err) <= 1e-12)
    demo = critically_damped_demo(0.0, 1.0, 25.0, 10.0, 1e-4)
    assert np.max(np.abs(roll.y - demo.y)) < 1e-3


def test_classical_reproduction_minjerk():
    demo = gen_min_jerk(0.0, 1.0, 1.0, 0.01)
    m = classical_train(demo, 1.0, 1.0, 25.0, 6.25, BASIS)
    roll = classical_rollout(m, 0.0, 0.01, 1.0)
    rmse = np.sqrt(np.mean((roll.y - demo.y) ** 2))
    assert rmse < 1e-2


def test_classical_goal_scaling_time_invariance():
    # doubling tau with the step reproduces the same path on a slower clock
    demo = gen_min_jerk(0.0, 1.0, 1.0, 0.01)
    m = classical_train(demo, 1.0, 1.0, 25.0, 6.25, BASIS)
    from dataclasses import replace
    nominal = classical_rollout(m, 0.0, 0.01, 1.0)
    slowed = classical_rollout(replace(m, tau=2.0), 0.0, 0.02, 2.0)
    np.testing.assert_allclose(slowed.y, nominal.y, atol=1e-9)


# -- quaternion ----------------------------------------------------------------


def test_quat_forcing_zero_for_stationary_demo(rng):
    q = random_unit_quat(rng)
    n = 50
    quats = np.tile(q, (n, 1))
    omega = np.zeros((n, 3))
    xs = phase(np.arange(n) * 0.01, 2.0, 1.0)
    fd = quat_target_forcing(quats, omega, omega, xs, q, q, 1.0,
                             4.0 * np.eye(3), 6.0 * np.eye(3))
    np.testing.assert_allclose(fd, 0.0, atol=1e-12)


def rk4_unforced_quat_demo(q0, qd, k, d, alpha_x, tau, dt, T):
    """High-order reference solution of the unforced body-frame dynamics.

    Independent oracle: classic RK4 on (q, omega) with the start-error
    shaping term included analytically; no package integrator involved.
    """
    from dqdmp import quat_conjugate

    def err(q):
        return np.array(
            [*(quat_product(quat_conjugate(q), qd))[1:]])

    e0 = err(q0)

    def rhs(t, q, om):
        x = np.exp(-alpha_x * t / tau)
        om_dot = (k @ (err(q) - e0 * x) - d @ om) / tau
        qdot = 0.5 * quat_product(q, np.array([0.0, *(om / tau)]))
        return qdot, om_dot

    n = int(round(T / dt))
    qs = np.empty((n + 1, 4))
    oms = np.empty((n + 1, 3))
    q, om = q0.copy(), np.zeros(3)
    qs[0], oms[0] = q, om
    for i in range(n):
        t = i * dt
        k1q, k1o = rhs(t, q, om)
        k2q, k2o = rhs(t + dt / 2, q + dt / 2 * k1q, om + dt / 2 * k1o)
        k3q, k3o = rhs(t + dt / 2, q + dt / 2 * k2q, om + dt / 2 * k2o)
        k4q, k4o = rhs(t + dt, q + dt * k3q, om + dt * k3o)
        q = q + dt / 6 * (k1q + 2 * k2q + 2 * k3q + k4q)
        q /= np.linalg.norm(q)
        om = om + dt / 6 * (k1o + 2 * k2o + 2 * k3o + k4o)
        qs[i + 1], oms[i + 1] = q, om
    return np.arange(n + 1) * dt, qs, oms


def test_quat_forcing_zero_for_unforced_rollout(rng):
    # invert the dynamics along an accurate unforced solution: the
    # recovered forcing must vanish to the differencing floor
    q0, qd = random_unit_quat(rng), random_unit_quat(rng)
    k, d = 1.0 * np.eye(3), 2.0 * np.eye(3)
    dt = 0.002
    t, qs, oms = rk4_unforced_quat_demo(q0, qd, k, d, 2.0, 1.0, dt, 4.0)
    xs = phase(t, 2.0, 1.0)
    omega = oms / 1.0
    omega_dot = np.gradient(omega, dt, axis=0, edge_order=2)
    fd = quat_target_forcing(qs, omega, omega_dot, xs, qd, q0, 1.0, k, d)
    assert np.max(np.abs(fd)) <= 1e-5


def test_quat_rollout_stationary_at_goal(rng):
    q = random_unit_quat(rng)
    m = QuaternionDmp("body", 4.0 * np.eye(3), 6.0 * np.eye(3), BASIS,
                      np.zeros((3, 30)), q, q, 1.0)
    roll = quat_rollout(m, dt=0.01, duration=2.0)
    assert np.max(np.abs(roll.omega)) <= 1e-12
    for k in range(len(roll.t)):
        assert abs(abs(roll.q[k] @ q) - 1.0) <= 1e-12


@pytest.mark.parametrize("frame", ["body"])
def test_quat_unforced_convergence(rng, frame):
    # goal attractor alone: geodesic error below 1e-3 rad by t = 10 tau
    k, d = 625.0, 250.0
    for _ in range(10):
        q0, qd = random_unit_quat(rng), random_unit_quat(rng)
        m = QuaternionDmp(frame, k * np.eye(3), d * np.eye(3), BASIS,
                          np.zeros((3, 30)), q0, qd, 1.0)
        roll = quat_rollout(m, dt=0.0035, duration=10.0)
        ang = 2 * np.arccos(min(1.0, abs(roll.q[-1] @ qd)))
        assert ang < 1e-3
        assert np.linalg.norm(roll.omega[-1]) < 1e-3


def test_quat_reproduction_two_axis_demo():
    traj = two_axis_attitude_demo()
    m = quat_train(traj, traj.duration, 25.0, 50.0, BASIS)
    roll = quat_rollout(m, dt=traj.dt, duration=traj.duration)
    dots = np.abs(np.sum(roll.q * traj.quaternions, axis=1))
    ang = 2 * np.arccos(np.clip(dots, 0, 1))
    assert np.sqrt(np.mean(ang**2)) < 0.02


def test_quat_rollout_v1_non_increasing(rng):
    q0, qd = random_unit_quat(rng), random_unit_quat(rng)
    m = QuaternionDmp("body", 100.0 * np.eye(3), 100.0 * np.eye(3), BASIS,
                      np.zeros((3, 30)), q0, qd, 1.0)
    roll = quat_rollout(m, dt=0.005, duration=10.0)
    assert np.max(np.diff(roll.v1)) <= 1e-8


def test_quat_train_zero_weights_on_unforced_demo(rng):
    # a converged unforced rollout carries no forcing information, so the
    # fitted weights must be near zero (its endpoint becomes the goal)
    q0, qd = random_unit_quat(rng), random_unit_quat(rng)
    k, d = 25.0 * np.eye(3), 25.0 * np.eye(3)
    m0 = QuaternionDmp("body", k, d, BASIS, np.zeros((3, 30)), q0, qd, 1.0)
    roll = quat_rollout(m0, dt=5e-4, duration=25.0)
    traj = Trajectory(roll.t, np.zeros((len(roll.t), 3)), roll.q)
    m = quat_train(traj, 1.0, k, d, BASIS)
    assert np.max(np.abs(m.weights)) <= 1e-3


def test_quat_rollout_rejects_bad_dt(rng):
    q = random_unit_quat(rng)
    m = QuaternionDmp("body", np.eye(3), np.eye(3), BASIS,
                      np.zeros((3, 30)), q, q, 1.0)
    with pytest.raises(ValueError):
        quat_rollout(m, dt=0.0, duration=1.0)


def test_gain_validation():
    from dqdmp.dmp import _gain_matrix
    with pytest.raises(ValueError):
        _gain_matrix(-1.0)
    with pytest.raises(ValueError):
        _gain_matrix(np.diag([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        _gain_matrix(np.ones((2, 2)))
    np.testing.assert_allclose(_gain_matrix(2.0), 2.0 * np.eye(3))


@pytest.mark.parametrize("gain", [np.inf, np.nan, np.diag([1.0, np.inf, 1.0])])
def test_gain_validation_refuses_non_finite(gain):
    from dqdmp.dmp import _gain_matrix
    with pytest.raises(ValueError, match="^gains must be finite$"):
        _gain_matrix(gain)


@pytest.mark.parametrize("k_pos, d_pos", [(0.0, 0.0), (1.0, 0.0), (-1.0, 10.0),
                                          (np.nan, 1.0), (1.0, np.inf)])
def test_pose_train_rejects_bad_position_gains(k_pos, d_pos):
    # alpha_z = d_pos and beta_z = k_pos / d_pos: a zero damping divided by zero
    demo = gen_somersault(5.0, 1.0, 0.01)
    with pytest.raises(ValueError, match="position stiffness and damping"):
        pose_train(demo, 1.0, 0.1, 10, k_pos, d_pos, 10, 1.0, 10.0)


@pytest.mark.parametrize("y0, goal", [(np.nan, 1.0), (0.0, np.inf), (0.0, np.nan)])
def test_classical_rollout_refuses_non_finite_start_or_goal(y0, goal):
    m = ClassicalDmp(25.0, 6.25, BASIS, np.zeros(30), 0.0, goal, 1.0)
    with pytest.raises(ValueError, match="goal must be finite"):
        classical_rollout(m, y0, 0.01, 1.0)


@pytest.mark.parametrize("goal_override, z0", [(1e300, 0.0), (None, 1e200)])
def test_classical_rollout_refuses_an_energy_that_overflows(goal_override, z0):
    # 0.5 (g - y)^2 + 0.5 z^2 / (alpha_z beta_z) overflowed under two numpy
    # warnings, and the rollout returned its inf energies
    m = ClassicalDmp(25.0, 6.25, BASIS, np.zeros(30), 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="the energy overflows"):
        classical_rollout(m, 0.0, 0.01, 0.1, z0=z0, goal_override=goal_override)


def test_pose_rollout_refuses_non_finite_goal_position():
    # refused before the integrator turns it into a non-finite state
    m = pose_train(gen_somersault(5.0, 1.0, 0.01), 1.0, 0.1, 10, 100.0, 20.0, 10, 1.0, 10.0)
    with pytest.raises(ValueError, match="goal must be finite"):
        pose_rollout(m, 0.01, 1.0, goal_position=[np.nan, 0.0, 0.0])


def test_quat_rollout_rejects_non_unit_goal(rng):
    q = random_unit_quat(rng)
    m = QuaternionDmp("body", np.eye(3), np.eye(3), BASIS,
                      np.zeros((3, 30)), q, q, 1.0)
    with pytest.raises(ValueError, match="unit quaternion"):
        quat_rollout(m, dt=0.01, duration=1.0, goal_override=[2.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("goal, tau", [(2.5, None), (None, 0.4), (-1.0, 3.0)])
def test_classical_rollout_overrides_equal_a_replaced_model(goal, tau):
    demo = gen_min_jerk(0.0, 1.0, 1.0, 0.01)
    m = classical_train(demo, 1.0, 1.0, 25.0, 6.25, BASIS)
    changed = replace(m, goal=m.goal if goal is None else goal, tau=m.tau if tau is None else tau)
    a = classical_rollout(m, 0.2, 0.01, 2.0, goal_override=goal, tau_override=tau)
    b = classical_rollout(changed, 0.2, 0.01, 2.0)
    for f in fields(a):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


@pytest.mark.parametrize("tau", [None, 2.5])
def test_pose_rollout_duration_defaults_to_one_and_a_half_tau(tau):
    m = pose_train(gen_somersault(5.0, 2.0, 0.01), 2.0, 0.1, 10, 100.0, 20.0, 10, 1.0, 10.0)
    a = pose_rollout(m, 0.01, tau_override=tau, goal_position=[1.0, 2.0, 3.0])
    b = pose_rollout(m, 0.01, 1.5 * (tau or 2.0), tau_override=tau, goal_position=[1.0, 2.0, 3.0])
    assert len(a.t) == int(round(1.5 * (tau or 2.0) / 0.01)) + 1
    for f in fields(a):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


@pytest.mark.parametrize("alpha_z, beta_z", [(-1.0, 6.25), (0.0, 6.25), (25.0, 0.0),
                                             (np.inf, 6.25), (25.0, np.nan)])
def test_classical_train_refuses_gains_the_loader_refuses(alpha_z, beta_z):
    demo = gen_min_jerk(0.0, 1.0, 1.0, 0.01)
    with pytest.raises(ValueError, match="alpha_z and beta_z must be positive and finite"):
        classical_train(demo, 1.0, 1.0, alpha_z, beta_z, BASIS)


def test_quat_rollout_refuses_an_unknown_frame(rng):
    # "Body" is not "body", the one frame a quaternion model takes
    q = random_unit_quat(rng)
    m = QuaternionDmp("Body", np.eye(3), np.eye(3), BASIS, np.zeros((3, 30)), q, q, 1.0)
    with pytest.raises(ValueError, match="unknown frame 'Body'"):
        quat_rollout(m, dt=0.01, duration=1.0)


@pytest.mark.parametrize("samples", [2, 3])
def test_pose_train_refuses_a_demo_too_short_to_differentiate(samples):
    demo = gen_somersault(5.0, 1.0, 0.01)
    short = Trajectory(demo.t[:samples], demo.positions[:samples], demo.quaternions[:samples])
    with pytest.raises(ValueError, match="too short to differentiate"):
        pose_train(short, 1.0, 0.1, 10, 100.0, 20.0, 10, 1.0, 10.0)
