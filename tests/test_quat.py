import numpy as np

from dqdmp import (
    DualQuaternion,
    Twist,
    dq_derivative_body,
    quat_conjugate,
    quat_exp,
    quat_log,
    quat_product,
    quat_rotate,
    quat_rotate_inverse,
    quat_to_rotmat,
    quat_vec,
)
from dqdmp.dmp import _quat_error
from dqdmp.quat import _exp, _turn

from conftest import quat_identity, random_rotvec, random_unit_quat


def step(q, omega, dt):
    """The integrator's step of a body rate: q (x) exp(dt/2 omega), renormalized."""
    return np.array(_turn(q.tolist(), _exp((0.5 * dt * np.asarray(omega)).tolist())))


def rotation_error(q, qd):
    """Vector part of the rollout's rotation q* (x) qd from q to qd (dmp._quat_error)."""
    return np.array(_quat_error(q, qd)[1:])


def rate(q, omega):
    """1/2 q (x) [0, omega]: the rotation part of dq_derivative_body."""
    return dq_derivative_body(DualQuaternion(q, np.zeros(4)), Twist(omega, np.zeros(3))).real


def test_product_identity_element(rng):
    for _ in range(50):
        q = random_unit_quat(rng)
        np.testing.assert_allclose(quat_product(quat_identity(), q), q, atol=1e-15)
        np.testing.assert_allclose(quat_product(q, quat_identity()), q, atol=1e-15)


def test_product_ij_equals_k():
    # hand expansion: scalar 0*0 - i.j = 0, vector i x j = k
    out = quat_product(np.array([0.0, 1, 0, 0]), np.array([0.0, 0, 1, 0]))
    np.testing.assert_allclose(out, [0, 0, 0, 1], atol=1e-15)


def test_product_with_conjugate_is_identity(rng):
    for _ in range(1000):
        q = random_unit_quat(rng)
        np.testing.assert_allclose(quat_product(q, quat_conjugate(q)),
                                   quat_identity(), atol=1e-12)


def test_product_not_commutative():
    i = np.array([0.0, 1, 0, 0])
    j = np.array([0.0, 0, 1, 0])
    assert not np.allclose(quat_product(i, j), quat_product(j, i))


def test_product_associative(rng):
    for _ in range(200):
        a, b, c = (random_unit_quat(rng) for _ in range(3))
        np.testing.assert_allclose(
            quat_product(quat_product(a, b), c),
            quat_product(a, quat_product(b, c)), atol=1e-12)


def test_conjugate_basics():
    np.testing.assert_allclose(quat_conjugate(quat_identity()), quat_identity())
    np.testing.assert_allclose(quat_conjugate(np.array([0.0, 1, 2, 3])),
                               [0, -1, -2, -3])


def test_conjugate_is_involution(rng):
    q = rng.normal(size=4)
    np.testing.assert_allclose(quat_conjugate(quat_conjugate(q)), q)


def test_conjugate_reverses_products(rng):
    for _ in range(1000):
        a, b = rng.normal(size=4), rng.normal(size=4)
        np.testing.assert_allclose(
            quat_conjugate(quat_product(a, b)),
            quat_product(quat_conjugate(b), quat_conjugate(a)), atol=1e-12)


def test_exp_zero_is_identity():
    np.testing.assert_allclose(quat_exp(np.zeros(3)), quat_identity())


def test_exp_quarter_turn():
    np.testing.assert_allclose(quat_exp(np.array([np.pi / 2, 0, 0])),
                               [0, 1, 0, 0], atol=1e-15)


def test_exp_unit_norm(rng):
    for _ in range(500):
        q = quat_exp(random_rotvec(rng, np.pi + 1.0))
        assert abs(np.linalg.norm(q) - 1.0) <= 1e-12


def test_log_basics():
    np.testing.assert_allclose(quat_log(quat_identity()), np.zeros(3))
    np.testing.assert_allclose(quat_log(np.array([0.0, 1, 0, 0])),
                               [np.pi / 2, 0, 0], atol=1e-15)


def test_exp_log_round_trip(rng):
    for _ in range(1000):
        r = random_rotvec(rng, np.pi - 1e-3)
        assert np.linalg.norm(quat_log(quat_exp(r)) - r) <= 1e-9


def test_log_exp_round_trip_up_to_sign(rng):
    for _ in range(500):
        q = random_unit_quat(rng)
        q2 = quat_exp(quat_log(q))
        assert min(np.linalg.norm(q2 - q), np.linalg.norm(q2 + q)) <= 1e-9


def test_log_clamps_eta_overshoot():
    # norm slightly above 1 must not produce NaN
    q = np.array([1.0 + 1e-16, 1e-13, 0, 0])
    assert np.all(np.isfinite(quat_log(q)))


def test_vec():
    np.testing.assert_allclose(quat_vec(quat_identity()), np.zeros(3))
    np.testing.assert_allclose(quat_vec(np.array([0.5, 0.1, 0.2, 0.3])),
                               [0.1, 0.2, 0.3])


def test_vec_of_conjugate_product_is_zero(rng):
    q = random_unit_quat(rng)
    np.testing.assert_allclose(
        quat_vec(quat_product(q, quat_conjugate(q))), np.zeros(3), atol=1e-15)


def test_orientation_error_self_is_zero(rng):
    q = random_unit_quat(rng)
    np.testing.assert_allclose(rotation_error(q, q), np.zeros(3), atol=1e-15)


def test_orientation_error_example():
    # vec(q* (x) qd) is [1, 0, 0] from the identity
    np.testing.assert_allclose(
        rotation_error(quat_identity(), np.array([0.0, 1, 0, 0])), [1, 0, 0])


def test_orientation_error_bounded(rng):
    for _ in range(1000):
        q, qd = random_unit_quat(rng), random_unit_quat(rng)
        assert np.linalg.norm(rotation_error(q, qd)) <= 1.0 + 1e-12


def test_derivative_zero_rate():
    q = quat_exp(np.array([0.3, -0.2, 0.5]))
    np.testing.assert_allclose(rate(q, np.zeros(3)), np.zeros(4))


def test_derivative_at_identity():
    np.testing.assert_allclose(rate(quat_identity(), np.array([1.0, 0, 0])),
                               [0, 0.5, 0, 0])


def test_derivative_tangency(rng):
    # d/dt ||q||^2 = 2 <q, qdot> must vanish
    for _ in range(1000):
        q = random_unit_quat(rng)
        qdot = rate(q, rng.normal(size=3))
        assert abs(q @ qdot) <= 1e-12


def test_step_body_zero_rate(rng):
    q = random_unit_quat(rng)
    np.testing.assert_allclose(step(q, np.zeros(3), 0.5), q)


def test_step_body_half_turn():
    np.testing.assert_allclose(step(quat_identity(), np.array([np.pi, 0, 0]), 1.0),
                               [0, 1, 0, 0], atol=1e-15)


def test_step_body_substep_composition(rng):
    # the step is exact for constant rate, so substeps must compose exactly
    q = random_unit_quat(rng)
    omega = rng.normal(size=3)
    one = step(q, omega, 1.0)
    many = q
    for _ in range(100):
        many = step(many, omega, 0.01)
    assert min(np.linalg.norm(many - one), np.linalg.norm(many + one)) <= 1e-9


def test_rotmat_identity():
    np.testing.assert_allclose(quat_to_rotmat(quat_identity()), np.eye(3))


def test_rotmat_x_half_turn():
    np.testing.assert_allclose(quat_to_rotmat(np.array([0.0, 1, 0, 0])),
                               np.diag([1.0, -1.0, -1.0]), atol=1e-15)


def test_rotmat_orthonormal_and_proper(rng):
    for _ in range(1000):
        R = quat_to_rotmat(random_unit_quat(rng))
        np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-9)
        assert abs(np.linalg.det(R) - 1.0) <= 1e-9


def test_rotmat_matches_sandwich(rng):
    for _ in range(1000):
        q = random_unit_quat(rng)
        u = rng.normal(size=3)
        sandwich = quat_vec(quat_product(
            q, quat_product(np.array([0.0, *u]), quat_conjugate(q))))
        np.testing.assert_allclose(quat_to_rotmat(q) @ u, sandwich, atol=1e-9)


def test_rotate_helpers_match_rotmat(rng):
    for _ in range(200):
        q = random_unit_quat(rng)
        u = rng.normal(size=3)
        R = quat_to_rotmat(q)
        np.testing.assert_allclose(quat_rotate(q, u), R @ u, atol=1e-12)
        np.testing.assert_allclose(quat_rotate_inverse(q, u), R.T @ u, atol=1e-12)


def test_unit_norm_preserved_by_steps(rng):
    q = random_unit_quat(rng)
    for _ in range(100):
        q = step(q, rng.normal(size=3), 0.05)
        assert abs(np.linalg.norm(q) - 1.0) <= 1e-9
