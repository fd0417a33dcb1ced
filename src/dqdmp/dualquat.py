"""Unit dual quaternion algebra for rigid-body poses on SE(3).

A pose is stored as ``q_hat = real + eps * dual`` where ``real`` is the
body-to-inertial rotation quaternion and ``dual = 1/2 real (x) [0, p_b]``
carries the translation (``p_b`` is the position expressed in body axes,
``eps`` the nilpotent dual unit, ``eps^2 = 0``).  A unit dual quaternion
satisfies ``||real|| = 1`` and ``<real, dual> = 0``.

Twists are 6-vectors ``(r, v)`` with an explicit frame tag.  In the body
frame the linear component is the body-frame linear velocity,

    v = p_b_dot + omega_b x p_b  ( = R(q)^T p_s_dot ),

which is exactly the convention under which the pose kinematics read
``d(q_hat)/dt = 1/2 q_hat (x) xi_b~``.  Mixing frames is treated as a
programming error and raises.

Everything here is a pure function over immutable values.  The parts of a
``DualQuaternion`` or ``Pose`` may also be ``(n, 4)`` / ``(n, 3)`` stacks;
the product, conjugate, encoding (``dq_from_pose``), position, error and
``twist_body_from_demo`` functions then work row by row with the bits of
the single-value call.
The ``_raw`` helpers at the bottom operate on bare (4,) arrays and are
shared with the integrator hot loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quat import (
    quat_conjugate,
    quat_log,
    quat_norm,
    quat_product,
    quat_rotate,
    quat_rotate_inverse,
    quat_vec,
)

BODY = "body"
INERTIAL = "inertial"

# Acceptable drift of the two unit constraints before pose extraction refuses.
_UNIT_TOL = 1e-6
# Keep-away band around the ||r|| = pi branch cut of the logarithm.
_BRANCH_CUT_TOL = 1e-6


@dataclass(frozen=True)
class DualQuaternion:
    """Dual quaternion with quaternion-valued real and dual parts."""

    real: np.ndarray
    dual: np.ndarray

    def as_array(self) -> np.ndarray:
        """Flat length-8 array [real, dual], scalar-first in each part
        ((n, 8) for stacked parts)."""
        return np.concatenate([self.real, self.dual], axis=-1)


@dataclass(frozen=True)
class Twist:
    """6-dof rigid-body velocity or displacement with a frame tag.

    ``r`` is the angular component, ``v`` the linear component.
    """

    r: np.ndarray
    v: np.ndarray
    frame: str = BODY

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.r, self.v], axis=-1)


@dataclass(frozen=True)
class Pose:
    """Inertial-frame position plus body-to-inertial orientation."""

    position: np.ndarray
    orientation: np.ndarray


def dq_identity() -> DualQuaternion:
    return DualQuaternion(np.array([1.0, 0, 0, 0]), np.zeros(4))


def dq_product(a: DualQuaternion, b: DualQuaternion) -> DualQuaternion:
    """Dual quaternion product: (a.r (x) b.r) + eps (a.r (x) b.d + a.d (x) b.r)."""
    return DualQuaternion(
        quat_product(a.real, b.real),
        quat_product(a.real, b.dual) + quat_product(a.dual, b.real),
    )


def dq_conjugate(q: DualQuaternion) -> DualQuaternion:
    """Conjugate both parts; inverse of a unit dual quaternion."""
    return DualQuaternion(quat_conjugate(q.real), quat_conjugate(q.dual))


def dq_add(a: DualQuaternion, b: DualQuaternion) -> DualQuaternion:
    return DualQuaternion(a.real + b.real, a.dual + b.dual)


def dq_scale(a: DualQuaternion, s: float) -> DualQuaternion:
    return DualQuaternion(s * a.real, s * a.dual)


def dq_normalize(q: DualQuaternion) -> DualQuaternion:
    """Re-project onto the unit constraints.

    The real part is rescaled to unit norm and the component of the dual
    part along it is removed.  Called after every integration step; keeps
    constraint drift at rounding level over arbitrarily long rollouts.
    """
    real, dual = _dq_normalize_raw(q.real.copy(), q.dual.copy())
    return DualQuaternion(real, dual)


def dq_constraint_errors(q: DualQuaternion) -> tuple[float, float]:
    """(norm error of the real part, real/dual inner product)."""
    return abs(quat_norm(q.real) - 1.0), float(abs(q.real @ q.dual))


def dq_from_pose(pose: Pose) -> DualQuaternion:
    """Build the unit dual quaternion encoding a pose (or a stack of poses)."""
    q = np.asarray(pose.orientation, dtype=float)
    p_b = quat_rotate_inverse(q, np.asarray(pose.position, dtype=float))
    pure = np.zeros(p_b.shape[:-1] + (4,))
    pure[..., 1:] = p_b
    return DualQuaternion(q, 0.5 * quat_product(q, pure))


def dq_position(dq: DualQuaternion) -> np.ndarray:
    """Inertial position carried by a dual quaternion; no constraint check."""
    p_b = 2.0 * quat_vec(quat_product(quat_conjugate(dq.real), dq.dual))
    return quat_rotate(dq.real, p_b)


def dq_to_pose(dq: DualQuaternion) -> Pose:
    """Extract the pose; refuses input whose unit constraints have drifted."""
    nerr, derr = dq_constraint_errors(dq)
    if nerr > _UNIT_TOL or derr > _UNIT_TOL:
        raise ValueError(
            f"dual quaternion violates unit constraints (norm err {nerr:.2e}, "
            f"orthogonality err {derr:.2e})")
    return Pose(dq_position(dq), dq.real.copy())


def dq_error(dq: DualQuaternion, dq_d: DualQuaternion,
             rotation_error: str = "vec") -> np.ndarray:
    """6-vector pose error [rot_err, vec(p_e)] of dq relative to a goal dq_d.

    Forms q_e = dq* (x) dq_d, extracts the carried translation
    p_e = vec(2 q_oe* (x) q_pe), and pairs it with a rotation error that is
    either the vector part of q_oe (default) or its full logarithm (which
    takes single values only).
    """
    qe = dq_product(dq_conjugate(dq), dq_d)
    p_e = 2.0 * quat_vec(quat_product(quat_conjugate(qe.real), qe.dual))
    if rotation_error == "vec":
        rot = quat_vec(qe.real)
    elif rotation_error == "log":
        rot = quat_log(qe.real)
    else:
        raise ValueError(f"unknown rotation_error {rotation_error!r}")
    return np.concatenate([rot, p_e], axis=-1)


def dq_exp(xi: Twist) -> DualQuaternion:
    """Exponential of a twist displacement (r, v) into a unit dual quaternion.

    The real part is quat_exp(r); the dual part is the screw-motion closed
    form, so the result equals the exact flow of
    d(q_hat)/ds = q_hat (x) (r~ + eps v~) from the identity over unit s.
    Requires ||r|| < pi.
    """
    real, dual = _dq_exp_raw(np.asarray(xi.r, dtype=float), np.asarray(xi.v, dtype=float))
    return DualQuaternion(real, dual)


def dq_log(dq: DualQuaternion) -> Twist:
    """Inverse of dq_exp; body-frame twist displacement.

    Errors out within 1e-6 of the ||r|| = pi branch cut where the screw
    decomposition loses the axis.
    """
    if dq.real[0] < 0.0 and np.sqrt(dq.real[1:] @ dq.real[1:]) < _BRANCH_CUT_TOL:
        # real part near -identity: rotation at the pi branch cut, axis lost
        raise ValueError("dual quaternion log near the branch cut (real part ~ -1)")
    r = quat_log(dq.real)
    th = float(np.sqrt(r @ r))
    if th < _BRANCH_CUT_TOL:
        # pure translation: exp(eps v~) = 1 + eps [0, v]
        return Twist(r, quat_vec(dq.dual), BODY)
    if th > np.pi - _BRANCH_CUT_TOL:
        raise ValueError(f"dual quaternion log near the branch cut (angle {th:.8f})")
    n = r / th
    st, ct = np.sin(th), np.cos(th)
    d = -float(dq.dual[0]) / st
    m = (quat_vec(dq.dual) - d * ct * n) / st
    return Twist(r, d * n + th * m, BODY)


def dq_derivative_body(dq: DualQuaternion, xi_b: Twist) -> DualQuaternion:
    """Pose kinematics 1/2 q_hat (x) xi_b~ for a body-frame twist."""
    _require_frame(xi_b, BODY)
    w = np.array([0.0, *xi_b.r])
    v = np.array([0.0, *xi_b.v])
    return DualQuaternion(
        0.5 * quat_product(dq.real, w),
        0.5 * (quat_product(dq.real, v) + quat_product(dq.dual, w)),
    )


def twist_body_from_demo(omega_b: np.ndarray, p_b: np.ndarray,
                         p_b_dot: np.ndarray) -> Twist:
    """Assemble the body twist from body rate and body-frame position data.

    The linear component is p_b_dot + omega_b x p_b, i.e. the body-frame
    linear velocity; this is the unique choice consistent with the pose
    kinematics used by dq_step_body (checked against a fine-step
    integration oracle in the tests).
    """
    return Twist(np.asarray(omega_b, dtype=float),
                 np.asarray(p_b_dot, dtype=float) + np.cross(omega_b, p_b),
                 BODY)


def twist_to_inertial(xi_b: Twist, dq: DualQuaternion) -> Twist:
    """Convert a body twist to the inertial frame: q_hat (x) xi~ (x) q_hat*."""
    _require_frame(xi_b, BODY)
    w = np.array([0.0, *xi_b.r])
    v = np.array([0.0, *xi_b.v])
    qc = dq_conjugate(dq)
    inner = DualQuaternion(quat_product(w, qc.real),
                           quat_product(w, qc.dual) + quat_product(v, qc.real))
    out = dq_product(dq, inner)
    return Twist(quat_vec(out.real), quat_vec(out.dual), INERTIAL)


def twist_to_body(xi_s: Twist, dq: DualQuaternion) -> Twist:
    """Convert an inertial twist to the body frame: q_hat* (x) xi~ (x) q_hat."""
    _require_frame(xi_s, INERTIAL)
    w = np.array([0.0, *xi_s.r])
    v = np.array([0.0, *xi_s.v])
    qc = dq_conjugate(dq)
    inner = DualQuaternion(quat_product(w, dq.real),
                           quat_product(w, dq.dual) + quat_product(v, dq.real))
    out = dq_product(qc, inner)
    return Twist(quat_vec(out.real), quat_vec(out.dual), BODY)


def dq_step_body(dq: DualQuaternion, xi_b: Twist, dt: float) -> DualQuaternion:
    """Advance a pose by a constant body twist over dt.

    Computes q_hat (x) exp(dt/2 xi) with the constraints re-enforced;
    exact for constant xi.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    _require_frame(xi_b, BODY)
    sr, sd = _dq_exp_raw(0.5 * dt * xi_b.r, 0.5 * dt * xi_b.v)
    real = quat_product(dq.real, sr)
    dual = quat_product(dq.real, sd) + quat_product(dq.dual, sr)
    real, dual = _dq_normalize_raw(real, dual)
    return DualQuaternion(real, dual)


def _require_frame(xi: Twist, frame: str) -> None:
    if xi.frame != frame:
        raise ValueError(f"expected a {frame}-frame twist, got {xi.frame!r}")


# ---------------------------------------------------------------------------
# raw-array helpers shared with the integrator hot loops


def _dq_exp_raw(r: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    th = float(np.sqrt(r @ r))
    if th >= np.pi:
        raise ValueError(f"twist rotation magnitude {th:.6f} outside the exp domain")
    if th < 1e-12:
        return np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, u[0], u[1], u[2]])
    n = r / th
    d = float(n @ u)
    m = (u - d * n) / th
    st, ct = np.sin(th), np.cos(th)
    real = np.array([ct, st * n[0], st * n[1], st * n[2]])
    dual = np.empty(4)
    dual[0] = -d * st
    dual[1:] = st * m + d * ct * n
    return real, dual


def _dq_normalize_raw(real: np.ndarray, dual: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = float(np.sqrt(real @ real))
    real = real / n
    dual = dual / n
    dual = dual - float(real @ dual) * real
    return real, dual
