"""Classical and quaternion primitive tests (training oracles + rollouts)."""

import io
import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from dqdmp import (
    ClassicalDmp,
    DualQuaternionDmp,
    Pose,
    QuaternionDmp,
    Trajectory,
    basis_scheme_a,
    classical_rollout,
    classical_target_forcing,
    classical_train,
    dq_from_pose,
    dq_rollout,
    dq_train,
    gen_min_jerk,
    gen_somersault,
    phase,
    pose_rollout,
    load_model,
    pose_train,
    quat_exp,
    quat_product,
    quat_rollout,
    quat_target_forcing,
    quat_train,
    save_model,
)
from dqdmp.traj import ScalarDemo, _minjerk_s

from conftest import random_unit_dq, random_unit_quat, refused

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
    fd = classical_target_forcing(demo, 2.0, phase(t, 2.0, 1.0), 1.0, 25.0, 6.25)
    np.testing.assert_allclose(fd, 0.0, atol=1e-12)


def test_classical_forcing_zero_for_unforced_solution():
    # the attractor reproduces the unforced solution, so the forcing only
    # cancels the start-error term: the targets are e0 x, e0 = g - y0
    demo = critically_damped_demo(0.3, 1.0, 25.0, 2.0, 0.001)
    xs = phase(demo.t, 2.0, 1.0)
    fd = classical_target_forcing(demo, 1.0, xs, 1.0, 25.0, 6.25)
    assert np.max(np.abs(fd - 0.7 * xs)) <= 1e-6


def test_classical_forcing_initial_value():
    demo = gen_min_jerk(0.0, 1.0, 1.0, 0.01)
    fd = classical_target_forcing(demo, 1.0, phase(demo.t, 2.0, 1.0), 1.0, 25.0, 6.25)
    # the demo starts at rest, and the start-error term cancels the goal error
    assert abs(fd[0]) <= 1e-12


def test_classical_rollout_equilibrium():
    m = ClassicalDmp(25.0, 6.25, BASIS, np.zeros(30), 1.0, 1.0, 1.0)
    roll = classical_rollout(m, 1.0, 0.01, 2.0)
    np.testing.assert_allclose(roll.y, 1.0, atol=1e-12)
    np.testing.assert_allclose(roll.z, 0.0, atol=1e-12)


def test_classical_unforced_convergence_matches_analytic():
    # critically damped: no overshoot, |y - g| below 1e-3 by ten time scales;
    # weights all e0 = g - y0 give f = e0 x, which cancels the start-error term
    m = ClassicalDmp(25.0, 6.25, BASIS, np.full(30, 1.0), 0.0, 1.0, 1.0)
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


def criterion_3_classical_pairs():
    """The (y0, g) pairs of acceptance criterion 3's classical variant, drawn
    after its 100 dq and 100 quaternion pairs from the same generator."""
    rng = np.random.default_rng(3)
    for _ in range(200):
        random_unit_dq(rng)
    for _ in range(200):
        random_unit_quat(rng)
    return [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(100)]


def test_classical_energy_does_not_rise_from_rest_at_the_trained_start():
    # zero weights leave the start-error term, so tau dV/dt = -e0 x z - D z^2 / K:
    # no rise while z keeps the sign of e0, as it does from rest at y0
    for y0, g in criterion_3_classical_pairs():
        m = ClassicalDmp(250.0, 2.5, BASIS, np.zeros(30), y0, g, 1.0)
        energy = classical_rollout(m, y0, 0.0035, 10.0).energy
        assert np.max(np.diff(energy)) <= 0.0


@pytest.mark.parametrize("alpha_z, beta_z", [(1e200, 1e200), (1e-200, 1e-200), (1.0, 1e-310)])
def test_classical_gains_refuse_a_stiffness_or_reciprocal_that_overflows(alpha_z, beta_z):
    # K = alpha_z beta_z: with K = inf the targets were finite and training passed
    msg = re.escape(f"classical alpha_z {alpha_z:g} and beta_z {beta_z:g}: their product K "
                    f"or its reciprocal overflows")
    with refused(msg):
        classical_train(gen_min_jerk(0.0, 1.0, 1.0, 0.01), 1.0, 1.0, alpha_z, beta_z, BASIS)
    with refused(msg):
        ClassicalDmp(alpha_z, beta_z, BASIS, np.zeros(30), 0.0, 1.0, 1.0)
    if alpha_z == 1.0:  # pose_train's alpha_z = d_pos, beta_z = k_pos / d_pos
        with refused(msg):
            pose_train(gen_somersault(5.0, 1.0, 0.01), 1.0, 0.1, 10, beta_z, 1.0, 10, 1.0, 10.0)


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
    with refused():
        quat_rollout(m, dt=0.0, duration=1.0)


def test_gain_validation():
    from dqdmp.dmp import _gain_matrix
    for bad in (-1.0, np.diag([1.0, 1.0, 0.0]), np.ones((2, 2)), np.ones((3, 3))):
        with refused("^k_gain must be "):
            _gain_matrix(bad, "k_gain")
    np.testing.assert_allclose(_gain_matrix(2.0, "k_gain"), 2.0 * np.eye(3))


@pytest.mark.parametrize("gain", [np.inf, np.nan, np.diag([1.0, np.inf, 1.0])])
def test_gain_validation_refuses_non_finite(gain):
    from dqdmp.dmp import _gain_matrix
    with refused("^d_rot must be a positive, finite scalar or diagonal 3x3 matrix$"):
        _gain_matrix(gain, "d_rot")


# symmetric positive definite, so it was taken before gains were per-axis
OFF_DIAGONAL = np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 1.0]])


@pytest.mark.parametrize("gain", ["k_rot", "k_pos", "d_rot", "d_pos"])
def test_dq_train_refuses_an_off_diagonal_gain_by_name(gain):
    traj = gen_somersault(10.0, 2.0, 0.01)
    kw = dict(k_rot=1.0, k_pos=1.0, d_rot=10.0, d_pos=10.0) | {gain: OFF_DIAGONAL}
    with refused(f"^{gain} must be "):
        dq_train(traj, 2.0, basis=basis_scheme_a(10, 0.05), **kw)


@pytest.mark.parametrize("gain", ["k_gain", "d_gain"])
def test_quat_train_refuses_an_off_diagonal_gain_by_name(gain):
    traj = gen_somersault(10.0, 2.0, 0.01)
    kw = dict(k_gain=1.0, d_gain=10.0) | {gain: OFF_DIAGONAL}
    with refused(f"^{gain} must be "):
        quat_train(traj, 2.0, basis=basis_scheme_a(10, 0.05), **kw)


@pytest.mark.parametrize("gain", ["k_rot", "k_pos", "d_rot", "d_pos"])
def test_dq_rollout_of_a_built_model_refuses_an_off_diagonal_gain(gain):
    start = dq_from_pose(Pose(np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0])))
    kw = dict(k_rot=np.eye(3), k_pos=np.eye(3), d_rot=np.eye(3), d_pos=np.eye(3)) | {
        gain: OFF_DIAGONAL}
    with refused(f"^{gain} must be "):
        dq_rollout(DualQuaternionDmp(basis=BASIS, weights=np.zeros((6, 30)), dq0=start,
                                     dqd=start, tau=1.0, **kw), dt=0.01, duration=0.1)


@pytest.mark.parametrize("gain", ["k_gain", "d_gain"])
def test_quat_rollout_of_a_built_model_refuses_an_off_diagonal_gain(gain):
    q = np.array([1.0, 0.0, 0.0, 0.0])
    kw = dict(k_gain=np.eye(3), d_gain=np.eye(3)) | {gain: OFF_DIAGONAL}
    with refused(f"^{gain} must be "):
        quat_rollout(QuaternionDmp("body", basis=BASIS, weights=np.zeros((3, 30)),
                                   q0=q, qd=q, tau=1.0, **kw), dt=0.01, duration=0.1)


@pytest.mark.parametrize("variant, key, gain", [("quaternion", "k", "k_gain"),
                                                ("quaternion", "d", "d_gain"),
                                                ("dual_quaternion", "k_pos", "k_pos"),
                                                ("dual_quaternion", "d_rot", "d_rot")])
def test_load_model_refuses_an_off_diagonal_gain_by_name(variant, key, gain):
    q = np.array([1.0, 0.0, 0.0, 0.0])
    if variant == "quaternion":
        m = QuaternionDmp("body", np.eye(3), np.eye(3), BASIS, np.zeros((3, 30)), q, q, 1.0)
    else:
        start = dq_from_pose(Pose(np.zeros(3), q))
        m = DualQuaternionDmp(*[np.eye(3)] * 4, BASIS, np.zeros((6, 30)), start, start, 1.0)
    buf = io.StringIO()
    save_model(m, buf)
    doc = json.loads(buf.getvalue())
    doc["gains"][key] = OFF_DIAGONAL.tolist()
    with refused(f"^{gain} must be "):
        load_model(io.StringIO(json.dumps(doc)))


@pytest.mark.parametrize("k_pos, d_pos", [(0.0, 0.0), (1.0, 0.0), (-1.0, 10.0),
                                          (np.nan, 1.0), (1.0, np.inf)])
def test_pose_train_rejects_bad_position_gains(k_pos, d_pos):
    # alpha_z = d_pos and beta_z = k_pos / d_pos: a zero damping divided by zero
    demo = gen_somersault(5.0, 1.0, 0.01)
    name = "k_pos" if not 0.0 < k_pos < np.inf else "d_pos"
    with refused(f"^{name} must be positive and finite$"):
        pose_train(demo, 1.0, 0.1, 10, k_pos, d_pos, 10, 1.0, 10.0)


@pytest.mark.parametrize("gains, name", [((-1.0, 10.0), "k_rot"), ((1.0, 0.0), "d_rot")])
def test_pose_train_names_the_orientation_gain_it_refuses(gains, name):
    demo = gen_somersault(5.0, 1.0, 0.01)
    with refused(f"^{name} must be "):
        pose_train(demo, 1.0, 0.1, 10, 100.0, 20.0, 10, *gains)


@pytest.mark.parametrize("y0, goal", [(np.nan, 1.0), (0.0, np.inf), (0.0, np.nan)])
def test_classical_rollout_refuses_non_finite_start_or_goal(y0, goal):
    # a non-finite goal is refused when the model is built, a start by the rollout
    with refused("goal must be finite"):
        classical_rollout(ClassicalDmp(25.0, 6.25, BASIS, np.zeros(30), 0.0, goal, 1.0),
                          y0, 0.01, 1.0)


@pytest.mark.parametrize("goal_override, z0", [(1e300, 0.0), (None, 1e200)])
def test_classical_rollout_refuses_an_energy_that_overflows(goal_override, z0):
    # 0.5 (g - y)^2 + 0.5 z^2 / (alpha_z beta_z) overflowed under two numpy
    # warnings, and the rollout returned its inf energies
    m = ClassicalDmp(25.0, 6.25, BASIS, np.zeros(30), 0.0, 1.0, 1.0)
    with refused("the energy overflows"):
        classical_rollout(m, 0.0, 0.01, 0.1, z0=z0, goal_override=goal_override)


@pytest.mark.parametrize("y0, goal", [(-1e308, 1e308), (1e308, -1e308)])
def test_classical_model_refuses_a_goal_minus_y0_that_overflows(y0, goal):
    # it built and saved, and every rollout of it failed blaming the step:
    # "non-finite state at sample 1 (t = 0.01): dt / tau too large?"
    with refused(r"^classical y0 \S+ and goal \S+: goal - y0 overflows$"):
        ClassicalDmp(25.0, 6.25, BASIS, np.zeros(30), y0, goal, 1.0)


@pytest.mark.parametrize("y0, trained_y0", [(-1e308, 0.0), (0.0, -1e308)],
                         ids=["start", "trained start"])
def test_classical_rollout_refuses_a_start_or_goal_whose_g_minus_y0_overflows(y0, trained_y0):
    # g - y0 (or the start-error term g - model.y0) overflowed in the loop,
    # which then blamed the step: "non-finite state at sample 1"
    m = ClassicalDmp(25.0, 6.25, BASIS, np.zeros(30), trained_y0, 0.0, 1.0)
    with refused("^" + re.escape(
            f"classical rollout: start {y0:g} or trained start {trained_y0:g} too far "
            f"from goal 1e+308: g - y0 overflows")):
        classical_rollout(m, y0, 0.01, 1.0, goal_override=1e308)


def test_pose_rollout_refuses_non_finite_goal_position():
    # refused before the integrator turns it into a non-finite state
    m = pose_train(gen_somersault(5.0, 1.0, 0.01), 1.0, 0.1, 10, 100.0, 20.0, 10, 1.0, 10.0)
    with refused("goal must be finite"):
        pose_rollout(m, 0.01, 1.0, goal_position=[np.nan, 0.0, 0.0])


@pytest.mark.parametrize("goal", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0]],
                                  [1.0, np.inf, 3.0], []])
def test_pose_rollout_refuses_a_goal_position_of_other_than_three_components(goal):
    # [1, 2] raised IndexError, [1, 2, 3, 4] lost its 4th component and
    # [[1, 2, 3]] raised TypeError
    m = pose_train(gen_somersault(5.0, 1.0, 0.01), 1.0, 0.1, 10, 100.0, 20.0, 10, 1.0, 10.0)
    with refused("^goal_position: "):
        pose_rollout(m, 0.01, 1.0, goal_position=goal)


@pytest.mark.parametrize("goal", [[2.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
def test_pose_rollout_blames_a_bad_goal_quat_on_goal_quat(goal):
    # both were blamed on goal_override, which pose_rollout does not take
    m = pose_train(gen_somersault(5.0, 1.0, 0.01), 1.0, 0.1, 10, 100.0, 20.0, 10, 1.0, 10.0)
    with refused(r"^goal_quat must be a unit quaternion \[w, x, y, z\]$"):
        pose_rollout(m, 0.01, 1.0, goal_quat=goal)


def test_pose_train_positions_equal_dq_train_on_a_rotation_free_demo():
    # one drive: with R = I the dq translation block is the scalar primitive, and
    # both train on the same targets; Ijspeert's form of the scalar primitive
    # left the dq positions by 2.48 m at 3 T, and by 4.84 m under the shift
    T, dt = 10.0, 0.01
    t = np.arange(1001) * dt
    line = np.outer(_minjerk_s(t / T)[0], [30.0, 0.0, 0.0])
    identity = np.array([1.0, 0.0, 0.0, 0.0])
    traj = Trajectory(t, line, np.tile(identity, (len(t), 1)))
    dq = dq_train(traj, T, 1.0, 1.0, 10.0, 10.0, basis_scheme_a(30, 0.05))
    pose = pose_train(traj, T, 0.05, 30, 1.0, 10.0, 30, 1.0, 10.0)
    for goal in line[-1], line[-1] + [10.0, 0.0, 0.0]:
        want = dq_rollout(dq, dt=dt, duration=3 * T,
                          goal_override=dq_from_pose(Pose(goal, identity))).p
        got = pose_rollout(pose, dt, 3 * T, goal_position=goal).positions
        assert np.max(np.abs(got - want)) <= 1e-12


def test_pose_rollout_goal_position_retargets_each_axis():
    m = pose_train(gen_somersault(5.0, 1.0, 0.01), 1.0, 0.1, 10, 100.0, 20.0, 10, 1.0, 10.0)
    goal_quat = np.array([0.5, -0.5, 0.5, 0.5])
    roll = pose_rollout(m, 0.01, 1.0, goal_position=np.array([1.0, 2.0, 3.0]),
                        goal_quat=goal_quat)
    for dim, axis in enumerate(m.position):
        ref = classical_rollout(axis, axis.y0, 0.01, 1.0, goal_override=dim + 1.0,
                                tau_override=m.orientation.tau)
        assert np.array_equal(roll.positions[:, dim], ref.y)
    ref = quat_rollout(m.orientation, dt=0.01, duration=1.0, goal_override=goal_quat,
                       tau_override=m.orientation.tau)
    assert np.array_equal(roll.q, ref.q) and np.array_equal(roll.omega, ref.omega)
    assert np.array_equal(roll.energy[:, 1], ref.v1)


def test_quat_rollout_rejects_non_unit_goal(rng):
    q = random_unit_quat(rng)
    m = QuaternionDmp("body", np.eye(3), np.eye(3), BASIS,
                      np.zeros((3, 30)), q, q, 1.0)
    with refused("unit quaternion"):
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
    with refused("alpha_z and beta_z must be positive and finite"):
        classical_train(demo, 1.0, 1.0, alpha_z, beta_z, BASIS)


def test_quaternion_model_refuses_an_unknown_frame(rng):
    # "Body" is not "body", the one frame a quaternion model takes
    q = random_unit_quat(rng)
    with refused("unknown frame 'Body'"):
        QuaternionDmp("Body", np.eye(3), np.eye(3), BASIS, np.zeros((3, 30)), q, q, 1.0)


@pytest.mark.parametrize("samples", [2, 3])
def test_pose_train_refuses_a_demo_too_short_to_differentiate(samples):
    demo = gen_somersault(5.0, 1.0, 0.01)
    short = Trajectory(demo.t[:samples], demo.positions[:samples], demo.quaternions[:samples])
    with refused("too short to differentiate"):
        pose_train(short, 1.0, 0.1, 10, 100.0, 20.0, 10, 1.0, 10.0)
