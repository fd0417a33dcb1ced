"""Unit dual quaternion algebra for rigid-body poses on SE(3).

A pose is stored as ``q_hat = real + eps * dual`` where ``real`` is the
body-to-inertial rotation quaternion and ``dual = 1/2 real (x) [0, p_b]``
carries the translation (``p_b`` is the position expressed in body axes,
``eps`` the nilpotent dual unit, ``eps^2 = 0``).  A unit dual quaternion
satisfies ``||real|| = 1`` and ``<real, dual> = 0``.

A twist is a ``(6,)`` float array ``[r, v]``, angular part first.  A body
twist's linear part is the inertial velocity in body axes,

    v = R(q)^T p_s_dot,

which is exactly the convention under which the pose kinematics read
``d(q_hat)/dt = 1/2 q_hat (x) xi_b~``.  Every twist taken here is a body
twist; ``twist_to_inertial`` is the one function that returns another.  The
twist functions refuse any ``xi`` that is not a 6-array.

Everything here is a pure function over immutable values.  The parts of a
``DualQuaternion`` or ``Pose`` may also be ``(n, 4)`` / ``(n, 3)`` stacks;
the product, conjugate, encoding (``dq_from_pose``) and position functions
then work row by row with the bits of the single-value call: ``dq_product``
runs the quaternion kernel ``quat._product`` on a single value's floats or a
stack's columns (``quat._cols``).  ``_screw`` (the screw exponential as a
rotation quaternion and an inertial translation, on flat floats) is written once
under ``dq_exp``; the rollout in ``dmp`` steps (rotation, position) with it.
The pose error the dq primitive is driven by lives in ``dmp``, on that
(rotation, position) state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quat import (
    _cols,
    _product,
    _vector,
    quat_conjugate,
    quat_log,
    quat_norm,
    quat_product,
    quat_rotate,
    quat_rotate_inverse,
    quat_vec,
)

BODY = "body"

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
class Pose:
    """Inertial-frame position plus body-to-inertial orientation."""

    position: np.ndarray
    orientation: np.ndarray


def dq_product(a: DualQuaternion, b: DualQuaternion) -> DualQuaternion:
    """Dual quaternion product: (a.r (x) b.r) + eps (a.r (x) b.d + a.d (x) b.r)."""
    ar, ad, br, bd = _cols(a.real), _cols(a.dual), _cols(b.real), _cols(b.dual)
    w1, x1, y1, z1 = _product(ar, bd)
    w2, x2, y2, z2 = _product(ad, br)
    return DualQuaternion(np.array(_product(ar, br)).T,
                          np.array((w1 + w2, x1 + x2, y1 + y2, z1 + z2)).T)


def dq_conjugate(q: DualQuaternion) -> DualQuaternion:
    """Conjugate both parts; inverse of a unit dual quaternion."""
    return DualQuaternion(quat_conjugate(q.real), quat_conjugate(q.dual))


def dq_constraint_errors(q: DualQuaternion) -> tuple[float, float]:
    """(norm error of the real part, real/dual inner product)."""
    return abs(quat_norm(q.real) - 1.0), float(abs(q.real @ q.dual))


def dq_from_pose(pose: Pose) -> DualQuaternion:
    """Build the unit dual quaternion encoding a pose (or a stack of poses)."""
    q = _vector(pose.orientation, 4, "pose.orientation", True)
    p_b = quat_rotate_inverse(q, _vector(pose.position, 3, "pose.position", True))
    pure = np.zeros(p_b.shape[:-1] + (4,))
    pure[..., 1:] = p_b
    return DualQuaternion(q, 0.5 * quat_product(q, pure))


def dq_position(dq: DualQuaternion) -> np.ndarray:
    """Inertial position carried by a dual quaternion; no constraint check."""
    p_b = 2.0 * quat_vec(quat_product(quat_conjugate(dq.real), dq.dual))
    return quat_rotate(dq.real, p_b)


def dq_to_pose(dq: DualQuaternion) -> Pose:
    """Extract the pose; refuses input whose unit constraints have drifted."""
    _check_unit(dq)
    return Pose(dq_position(dq), dq.real.copy())


def _check_unit(dq: DualQuaternion, what: str = "dual quaternion") -> None:
    """Refuse a dual quaternion, named what, whose unit constraints have drifted."""
    nerr, derr = dq_constraint_errors(dq)
    if not (nerr <= _UNIT_TOL and derr <= _UNIT_TOL):
        raise ValueError(f"{what} violates unit constraints (norm err {nerr:.2e}, "
                         f"orthogonality err {derr:.2e})")


def dq_exp(xi: np.ndarray) -> DualQuaternion:
    """Exponential of a twist displacement [r, v]: the pose of _screw, the flow
    of d(q_hat)/ds = q_hat (x) (r~ + eps v~) from the identity over unit s,
    as a unit dual quaternion.  Requires ||r|| < pi."""
    s = _screw(*_vector(xi, 6, "xi").tolist())
    return dq_from_pose(Pose(np.array(s[4:]), np.array(s[:4])))


def dq_log(dq: DualQuaternion) -> np.ndarray:
    """Inverse of dq_exp; the body twist displacement [r, v].

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
        return np.concatenate([r, quat_vec(dq.dual)])
    if th > np.pi - _BRANCH_CUT_TOL:
        raise ValueError(f"dual quaternion log near the branch cut (angle {th:.8f})")
    n = r / th
    st, ct = np.sin(th), np.cos(th)
    d = -float(dq.dual[0]) / st
    m = (quat_vec(dq.dual) - d * ct * n) / st
    return np.concatenate([r, d * n + th * m])


def dq_derivative_body(dq: DualQuaternion, xi_b: np.ndarray) -> DualQuaternion:
    """Pose kinematics 1/2 q_hat (x) xi_b~ for a body twist [r, v]."""
    out = dq_product(dq, _pure(xi_b))
    return DualQuaternion(0.5 * out.real, 0.5 * out.dual)


def twist_to_inertial(xi_b: np.ndarray, dq: DualQuaternion) -> np.ndarray:
    """Convert a body twist [r, v] to the inertial frame: q_hat (x) xi~ (x) q_hat*."""
    out = dq_product(dq, dq_product(_pure(xi_b), dq_conjugate(dq)))
    return np.concatenate([quat_vec(out.real), quat_vec(out.dual)])


def _pure(xi: np.ndarray) -> DualQuaternion:
    """The twist [0, r] + eps [0, v] as a dual quaternion."""
    xi = _vector(xi, 6, "xi")
    return DualQuaternion(np.array([0.0, *xi[:3]]), np.array([0.0, *xi[3:]]))


# ---------------------------------------------------------------------------
# component kernels


def _screw(rx, ry, rz, ux, uy, uz):
    """Rotation quaternion (sw, sx, sy, sz) and inertial translation
    (tx, ty, tz), as one 7-tuple, of the screw exponential of the float twist
    displacement (r, u): the pose d(q_hat)/ds = q_hat (x) (r~ + eps u~)
    reaches from the identity at s = 1.  With r = th n, d = n . u and
    m = (u - d n) / th, t = 2 d n + sin(2 th) m - (1 - cos(2 th)) (m x n).
    Requires ||r|| < pi."""
    th = (rx * rx + ry * ry + rz * rz) ** 0.5
    if th < 1e-12:
        return 1.0, 0.0, 0.0, 0.0, 2.0 * ux, 2.0 * uy, 2.0 * uz
    if th >= math.pi:
        raise ValueError(f"twist rotation magnitude {th:.6f} outside the exp domain")
    nx, ny, nz = rx / th, ry / th, rz / th
    d = nx * ux + ny * uy + nz * uz
    mx, my, mz = (ux - d * nx) / th, (uy - d * ny) / th, (uz - d * nz) / th
    st, ct = math.sin(th), math.cos(th)
    # sin 2th = 2 st ct and 1 - cos 2th = 2 st^2, with no cancellation at small th
    a, b = st * ct, st * st
    return (ct, st * nx, st * ny, st * nz,
            2.0 * (d * nx + a * mx - b * (my * nz - mz * ny)),
            2.0 * (d * ny + a * my - b * (mz * nx - mx * nz)),
            2.0 * (d * nz + a * mz - b * (mx * ny - my * nx)))
