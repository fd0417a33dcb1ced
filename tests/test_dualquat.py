import warnings

import numpy as np
import pytest

from dqdmp import (
    INERTIAL,
    DualQuaternion,
    DualQuaternionDmp,
    Pose,
    Twist,
    basis_scheme_a,
    dq_conjugate,
    dq_derivative_body,
    dq_error,
    dq_exp,
    dq_from_pose,
    dq_log,
    dq_product,
    dq_rollout,
    dq_to_pose,
    quat_product,
    quat_to_rotmat,
    quat_vec,
    twist_to_inertial,
)
from dqdmp.dualquat import _screw, dq_constraint_errors
from dqdmp.quat import _exp, _turn, quat_rotate

from conftest import (
    dq_add,
    dq_identity,
    dq_scale,
    quat_identity,
    random_rotvec,
    random_unit_dq,
    random_unit_quat,
)


def step(q, p, xi, dt):
    """The rollout's pose step on the rotation q and inertial position p for a
    body twist xi over dt: (s, t) = _screw(dt/2 xi), q <- normalize(q (x) s),
    p <- p + R(q) t."""
    s, t = _screw((0.5 * dt * xi.as_array()).tolist())
    return np.array(_turn(q.tolist(), s)), p + quat_rotate(q, np.array(t))


def ode_exp_oracle(r, v, nsteps=4000):
    """Flow of d(q)/ds = q (x) (r~ + eps v~) from identity over s in [0,1].

    RK4 on the linear right-multiplication ODE, built only from dq_product
    and dq_add; independent of the closed form under test.
    """
    xi = DualQuaternion(np.array([0.0, *r]), np.array([0.0, *v]))
    q = dq_identity()
    h = 1.0 / nsteps
    for _ in range(nsteps):
        k1 = dq_product(q, xi)
        k2 = dq_product(dq_add(q, dq_scale(k1, h / 2)), xi)
        k3 = dq_product(dq_add(q, dq_scale(k2, h / 2)), xi)
        k4 = dq_product(dq_add(q, dq_scale(k3, h)), xi)
        incr = dq_add(dq_add(k1, dq_scale(k2, 2.0)),
                      dq_add(dq_scale(k3, 2.0), k4))
        q = dq_add(q, dq_scale(incr, h / 6.0))
    return q


def pose_matrix(pose: Pose) -> np.ndarray:
    T = np.eye(4)
    T[:3, :3] = quat_to_rotmat(pose.orientation)
    T[:3, 3] = pose.position
    return T


# -- construction / extraction ------------------------------------------------


def test_from_pose_identity():
    dq = dq_from_pose(Pose(np.zeros(3), quat_identity()))
    np.testing.assert_allclose(dq.real, quat_identity())
    np.testing.assert_allclose(dq.dual, np.zeros(4), atol=1e-15)


def test_from_pose_pure_translation():
    dq = dq_from_pose(Pose(np.array([2.0, 0, 0]), quat_identity()))
    np.testing.assert_allclose(dq.dual, [0, 1, 0, 0], atol=1e-15)


def test_pose_round_trip(rng):
    for _ in range(500):
        pose = Pose(rng.uniform(-5, 5, 3), random_unit_quat(rng))
        out = dq_to_pose(dq_from_pose(pose))
        np.testing.assert_allclose(out.position, pose.position, atol=1e-12)
        np.testing.assert_allclose(out.orientation, pose.orientation, atol=1e-12)


def test_to_pose_identity():
    pose = dq_to_pose(dq_identity())
    np.testing.assert_allclose(pose.position, np.zeros(3))
    np.testing.assert_allclose(pose.orientation, quat_identity())


def test_to_pose_pure_translation():
    dq = DualQuaternion(quat_identity(), np.array([0.0, 1, 0, 0]))
    np.testing.assert_allclose(dq_to_pose(dq).position, [2, 0, 0])


def test_to_pose_rejects_constraint_violation():
    with pytest.raises(ValueError):
        dq_to_pose(DualQuaternion(np.array([1.1, 0, 0, 0]), np.zeros(4)))
    with pytest.raises(ValueError):
        dq_to_pose(DualQuaternion(quat_identity(), np.array([1e-3, 0, 0, 0])))


def test_unit_constraints_after_construction(rng):
    for _ in range(200):
        dq = random_unit_dq(rng)
        nerr, derr = dq_constraint_errors(dq)
        assert nerr <= 1e-9 and derr <= 1e-9


# -- algebra -------------------------------------------------------------------


def test_product_identity(rng):
    dq = random_unit_dq(rng)
    out = dq_product(dq_identity(), dq)
    np.testing.assert_allclose(out.real, dq.real, atol=1e-15)
    np.testing.assert_allclose(out.dual, dq.dual, atol=1e-15)


def test_product_with_conjugate_is_identity(rng):
    for _ in range(1000):
        dq = random_unit_dq(rng)
        out = dq_product(dq, dq_conjugate(dq))
        np.testing.assert_allclose(out.real, quat_identity(), atol=1e-12)
        np.testing.assert_allclose(out.dual, np.zeros(4), atol=1e-12)


def test_product_associative(rng):
    for _ in range(200):
        a, b, c = (random_unit_dq(rng) for _ in range(3))
        lhs = dq_product(dq_product(a, b), c)
        rhs = dq_product(a, dq_product(b, c))
        np.testing.assert_allclose(lhs.real, rhs.real, atol=1e-12)
        np.testing.assert_allclose(lhs.dual, rhs.dual, atol=1e-12)


def test_conjugate_involution_and_product_reversal(rng):
    a, b = random_unit_dq(rng), random_unit_dq(rng)
    aa = dq_conjugate(dq_conjugate(a))
    np.testing.assert_allclose(aa.real, a.real)
    np.testing.assert_allclose(aa.dual, a.dual)
    lhs = dq_conjugate(dq_product(a, b))
    rhs = dq_product(dq_conjugate(b), dq_conjugate(a))
    np.testing.assert_allclose(lhs.real, rhs.real, atol=1e-12)
    np.testing.assert_allclose(lhs.dual, rhs.dual, atol=1e-12)


def test_translation_composition():
    a = dq_from_pose(Pose(np.array([1.0, 0, 0]), quat_identity()))
    b = dq_from_pose(Pose(np.array([0.0, 1, 0]), quat_identity()))
    np.testing.assert_allclose(dq_to_pose(dq_product(a, b)).position,
                               [1, 1, 0], atol=1e-12)


def test_pose_composition_homomorphism(rng):
    # dual-quaternion product must compose poses like homogeneous matrices
    for _ in range(200):
        pa = Pose(rng.uniform(-3, 3, 3), random_unit_quat(rng))
        pb = Pose(rng.uniform(-3, 3, 3), random_unit_quat(rng))
        composed = dq_to_pose(dq_product(dq_from_pose(pa), dq_from_pose(pb)))
        np.testing.assert_allclose(pose_matrix(composed),
                                   pose_matrix(pa) @ pose_matrix(pb), atol=1e-9)


# -- pose error ----------------------------------------------------------------


def test_error_self_is_zero(rng):
    dq = random_unit_dq(rng)
    np.testing.assert_allclose(dq_error(dq, dq), np.zeros(6), atol=1e-12)


def test_error_pure_translation_goal():
    goal = dq_from_pose(Pose(np.array([1.0, 0, 0]), quat_identity()))
    np.testing.assert_allclose(dq_error(dq_identity(), goal),
                               [0, 0, 0, 1, 0, 0], atol=1e-15)


def test_error_sign_flip_invariance_of_pose(rng):
    # -q_hat encodes the same pose, so the implied pose error is unchanged
    dq = random_unit_dq(rng)
    goal = random_unit_dq(rng)
    flipped = DualQuaternion(-dq.real, -dq.dual)
    pa, pb = dq_to_pose(dq), dq_to_pose(flipped)
    np.testing.assert_allclose(pa.position, pb.position, atol=1e-12)
    assert min(np.linalg.norm(pa.orientation - pb.orientation),
               np.linalg.norm(pa.orientation + pb.orientation)) <= 1e-12
    # the 6-vector error flips its rotation sign but the translation part
    # of the underlying pose mismatch is identical
    ea, eb = dq_error(dq, goal), dq_error(flipped, goal)
    np.testing.assert_allclose(np.abs(ea), np.abs(eb), atol=1e-12)


# -- exp / log -----------------------------------------------------------------


def test_exp_zero_twist_is_identity():
    out = dq_exp(Twist(np.zeros(3), np.zeros(3)))
    np.testing.assert_allclose(out.real, quat_identity())
    np.testing.assert_allclose(out.dual, np.zeros(4), atol=1e-15)


def test_exp_pure_translation():
    out = dq_exp(Twist(np.zeros(3), np.array([1.0, 0, 0])))
    np.testing.assert_allclose(out.real, quat_identity())
    np.testing.assert_allclose(dq_to_pose(out).position, [2, 0, 0], atol=1e-12)


def test_exp_matches_ode_oracle(rng):
    for _ in range(10):
        r = random_rotvec(rng, 2.5)
        v = rng.normal(size=3)
        closed = dq_exp(Twist(r, v))
        oracle = ode_exp_oracle(r, v)
        np.testing.assert_allclose(closed.real, oracle.real, atol=1e-9)
        np.testing.assert_allclose(closed.dual, oracle.dual, atol=1e-9)


def test_exp_output_satisfies_constraints(rng):
    for _ in range(500):
        out = dq_exp(Twist(random_rotvec(rng, np.pi - 0.05), rng.normal(size=3)))
        nerr, derr = dq_constraint_errors(out)
        assert nerr <= 1e-12 and derr <= 1e-12


def test_log_identity_is_zero_twist():
    tw = dq_log(dq_identity())
    np.testing.assert_allclose(tw.r, np.zeros(3))
    np.testing.assert_allclose(tw.v, np.zeros(3))


def test_log_pure_translation():
    dq = dq_from_pose(Pose(np.array([3.0, -1.0, 2.0]), quat_identity()))
    tw = dq_log(dq)
    p_b = 2.0 * quat_vec(quat_product(np.array([1.0, 0, 0, 0]), dq.dual))
    np.testing.assert_allclose(tw.r, np.zeros(3))
    np.testing.assert_allclose(tw.v, p_b / 2.0, atol=1e-12)


def test_exp_log_round_trip(rng):
    for _ in range(1000):
        r = random_rotvec(rng, np.pi - 0.1)
        v = rng.normal(size=3)
        tw = dq_log(dq_exp(Twist(r, v)))
        assert np.linalg.norm(tw.r - r) <= 1e-9
        assert np.linalg.norm(tw.v - v) <= 1e-9


def test_log_near_branch_cut_raises():
    dq = dq_exp(Twist(np.array([np.pi - 1e-9, 0, 0]), np.zeros(3)))
    with pytest.raises(ValueError):
        dq_log(dq)


# -- kinematics ----------------------------------------------------------------


def test_derivative_zero_twist(rng):
    dq = random_unit_dq(rng)
    out = dq_derivative_body(dq, Twist(np.zeros(3), np.zeros(3)))
    np.testing.assert_allclose(out.real, np.zeros(4))
    np.testing.assert_allclose(out.dual, np.zeros(4))


def test_derivative_at_identity(rng):
    w, v = rng.normal(size=3), rng.normal(size=3)
    out = dq_derivative_body(dq_identity(), Twist(w, v))
    np.testing.assert_allclose(out.real, [0, *(w / 2)], atol=1e-15)
    np.testing.assert_allclose(out.dual, [0, *(v / 2)], atol=1e-15)


def test_derivative_constraint_tangency(rng):
    # d/dt ||q_o||^2 = 2 <q_o, q_o_dot> and d/dt <q_o, q_p> must vanish
    for _ in range(1000):
        dq = random_unit_dq(rng)
        der = dq_derivative_body(dq, Twist(rng.normal(size=3), rng.normal(size=3)))
        assert abs(dq.real @ der.real) <= 1e-12
        assert abs(der.real @ dq.dual + dq.real @ der.dual) <= 1e-12


def test_derivative_rejects_inertial_twist(rng):
    dq = random_unit_dq(rng)
    with pytest.raises(ValueError):
        dq_derivative_body(dq, Twist(np.zeros(3), np.zeros(3), INERTIAL))


def test_step_zero_twist(rng):
    q, p = random_unit_quat(rng), rng.normal(size=3)
    q1, p1 = step(q, p, Twist(np.zeros(3), np.zeros(3)), 0.1)
    np.testing.assert_allclose(q1, q, atol=1e-15)
    assert np.array_equal(p1, p)


def test_step_pure_rotation_reduces_to_quat_step(rng):
    w = rng.normal(size=3)
    q, p = step(quat_identity(), np.zeros(3), Twist(w, np.zeros(3)), 0.37)
    np.testing.assert_allclose(q, _turn([1.0, 0.0, 0.0, 0.0], _exp((0.5 * 0.37 * w).tolist())),
                               atol=1e-12)
    assert np.array_equal(p, np.zeros(3))


def test_step_substep_composition(rng):
    q, p = random_unit_quat(rng), rng.normal(size=3)
    tw = Twist(random_rotvec(rng, 1.5), rng.normal(size=3))
    one = step(q, p, tw, 1.0)
    many = q, p
    for _ in range(100):
        many = step(*many, tw, 0.01)
    np.testing.assert_allclose(many[0], one[0], atol=1e-9)
    np.testing.assert_allclose(many[1], one[1], atol=1e-9)


def test_step_is_the_dual_quaternion_step(rng):
    # (q, p) stepped by the screw kernel is the pose of q_hat (x) exp(dt/2 xi)
    for _ in range(200):
        pose = Pose(rng.uniform(-50.0, 50.0, 3), random_unit_quat(rng))
        tw = Twist(random_rotvec(rng, 2.0), rng.normal(size=3))
        q, p = step(pose.orientation, pose.position, tw, 0.5)
        want = dq_to_pose(dq_product(dq_from_pose(pose),
                                     dq_exp(Twist(0.25 * tw.r, 0.25 * tw.v))))
        np.testing.assert_allclose(q, want.orientation, atol=1e-15)
        np.testing.assert_allclose(p, want.position, atol=1e-12)


def test_step_rejects_bad_inputs(rng):
    # the rollout refuses, before its first step, what the step cannot take
    dq = random_unit_dq(rng)
    m = DualQuaternionDmp(np.eye(3), np.eye(3), np.eye(3), np.eye(3),
                          basis_scheme_a(5, 1.0), np.zeros((6, 5)), dq, dq, 1.0)
    with pytest.raises(ValueError, match="dt must be positive"):
        dq_rollout(m, dt=0.0)


def test_constraints_hold_over_long_random_walk(rng):
    q, p = random_unit_quat(rng), rng.normal(size=3)
    for _ in range(10000):
        q, p = step(q, p, Twist(rng.normal(size=3) * 0.05, rng.normal(size=3) * 0.05), 0.01)
    nerr, derr = dq_constraint_errors(dq_from_pose(Pose(p, q)))
    assert nerr <= 1e-12 and derr <= 1e-12


def test_to_pose_refuses_an_overflowing_real_part():
    # quat_norm printed an overflow warning before the unit check raised
    dq = DualQuaternion(np.array([1e200, 1e200, 0.0, 0.0]), np.zeros(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^dual quaternion violates unit constraints "
                                             r"\(norm err inf,"):
            dq_to_pose(dq)


# -- frame duality ---------------------------------------------------------------


def test_kinematics_frame_duality(rng):
    # 1/2 xi_s~ (x) q_hat == 1/2 q_hat (x) xi_b~ for the converted twist
    for _ in range(1000):
        dq = random_unit_dq(rng)
        xi_b = Twist(rng.normal(size=3), rng.normal(size=3))
        xi_s = twist_to_inertial(xi_b, dq)
        rhs = dq_derivative_body(dq, xi_b)
        w = np.array([0.0, *xi_s.r])
        v = np.array([0.0, *xi_s.v])
        lhs = DualQuaternion(
            0.5 * quat_product(w, dq.real),
            0.5 * (quat_product(w, dq.dual) + quat_product(v, dq.real)))
        np.testing.assert_allclose(lhs.real, rhs.real, atol=1e-9)
        np.testing.assert_allclose(lhs.dual, rhs.dual, atol=1e-9)


def test_inertial_twist_closed_form(rng):
    # adjoint-converted twist must match (R w, pdot_s + p_s x w_s)
    for _ in range(200):
        pose = Pose(rng.uniform(-3, 3, 3), random_unit_quat(rng))
        dq = dq_from_pose(pose)
        w_b, v_b = rng.normal(size=3), rng.normal(size=3)
        xi_s = twist_to_inertial(Twist(w_b, v_b), dq)
        R = quat_to_rotmat(pose.orientation)
        w_s = R @ w_b
        pdot_s = R @ v_b  # v_b is the body-frame linear velocity
        np.testing.assert_allclose(xi_s.r, w_s, atol=1e-9)
        np.testing.assert_allclose(xi_s.v, pdot_s + np.cross(pose.position, w_s),
                                   atol=1e-9)
