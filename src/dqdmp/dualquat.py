"""Unit dual quaternion algebra for rigid-body poses on SE(3).

A pose is stored as ``q_hat = real + eps * dual`` where ``real`` is the
body-to-inertial rotation quaternion and ``dual = 1/2 real (x) [0, p_b]``
carries the translation (``p_b`` is the position expressed in body axes,
``eps`` the nilpotent dual unit, ``eps^2 = 0``).  A unit dual quaternion
satisfies ``||real|| = 1`` and ``<real, dual> = 0``.

Twists are 6-vectors ``(r, v)`` with an explicit frame tag.  In the body
frame the linear component is the inertial velocity in body axes,

    v = R(q)^T p_s_dot,

which is exactly the convention under which the pose kinematics read
``d(q_hat)/dt = 1/2 q_hat (x) xi_b~``.  Mixing frames is treated as a
programming error and raises.

Everything here is a pure function over immutable values.  The parts of a
``DualQuaternion`` or ``Pose`` may also be ``(n, 4)`` / ``(n, 3)`` stacks;
the product, conjugate, encoding (``dq_from_pose``), position and error
functions then work row by row with the bits of the single-value call.
As in ``quat``, each formula of the integrator is written once, in
component form: ``_mul`` (the product of two dual quaternions given by
their real and dual parts), ``_error`` (the goal-relative pose), ``_exp``
(the screw exponential), ``_normalize`` and ``_step``.  ``_mul`` and
``_error`` take a single value's parts as floats and a stack's as columns
(``quat._cols``); the other three take floats.  The loop in ``dmp`` calls
them directly; ``dq_product``, ``dq_error`` and ``dq_exp`` are thin calls
into the first three, and ``_normalize`` and ``_step`` have no public
counterpart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quat import (
    _cols,
    _conj,
    _floats,
    _product,
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


def dq_product(a: DualQuaternion, b: DualQuaternion) -> DualQuaternion:
    """Dual quaternion product: (a.r (x) b.r) + eps (a.r (x) b.d + a.d (x) b.r)."""
    return _from_parts(_mul(_cols(a.real), _cols(a.dual), _cols(b.real), _cols(b.dual)))


def dq_conjugate(q: DualQuaternion) -> DualQuaternion:
    """Conjugate both parts; inverse of a unit dual quaternion."""
    return DualQuaternion(quat_conjugate(q.real), quat_conjugate(q.dual))


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
    if not (nerr <= _UNIT_TOL and derr <= _UNIT_TOL):
        raise ValueError(
            f"dual quaternion violates unit constraints (norm err {nerr:.2e}, "
            f"orthogonality err {derr:.2e})")
    return Pose(dq_position(dq), dq.real.copy())


def dq_error(dq: DualQuaternion, dq_d: DualQuaternion) -> np.ndarray:
    """6-vector pose error [vec(q_oe), vec(p_e)] of dq relative to a goal dq_d.

    Forms q_e = dq* (x) dq_d, extracts the carried translation
    p_e = vec(2 q_oe* (x) q_pe), and pairs it with the rotation error, the
    vector part of q_oe.
    """
    e = _error(_cols(dq.real), _cols(dq.dual), _cols(dq_d.real), _cols(dq_d.dual))
    return np.array(e[1:]).T


def dq_exp(xi: Twist) -> DualQuaternion:
    """Exponential of a twist displacement (r, v) into a unit dual quaternion.

    The real part is quat_exp(r); the dual part is the screw-motion closed
    form, so the result equals the exact flow of
    d(q_hat)/ds = q_hat (x) (r~ + eps v~) from the identity over unit s.
    Requires ||r|| < pi.
    """
    return DualQuaternion(*map(np.array, _exp(_floats(xi.as_array()))))


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
    out = dq_product(dq, _pure(xi_b))
    return DualQuaternion(0.5 * out.real, 0.5 * out.dual)


def twist_to_inertial(xi_b: Twist, dq: DualQuaternion) -> Twist:
    """Convert a body twist to the inertial frame: q_hat (x) xi~ (x) q_hat*."""
    out = dq_product(dq, dq_product(_pure(xi_b), dq_conjugate(dq)))
    return Twist(quat_vec(out.real), quat_vec(out.dual), INERTIAL)


def _pure(xi: Twist) -> DualQuaternion:
    """The body twist [0, r] + eps [0, v] as a dual quaternion."""
    if xi.frame != BODY:
        raise ValueError(f"expected a body-frame twist, got {xi.frame!r}")
    return DualQuaternion(np.array([0.0, *xi.r]), np.array([0.0, *xi.v]))


# ---------------------------------------------------------------------------
# component kernels over the flat [real, dual] 8-sequence


def _from_parts(p) -> DualQuaternion:
    return DualQuaternion(np.array(p[:4]).T, np.array(p[4:]).T)


def _mul(ar, ad, br, bd):
    """Components [real, dual] of (ar + eps ad) (x) (br + eps bd) for
    4-sequence parts of floats or of stack columns."""
    w1, x1, y1, z1 = _product(ar, bd)
    w2, x2, y2, z2 = _product(ad, br)
    return (*_product(ar, br), w1 + w2, x1 + x2, y1 + y2, z1 + z2)


def _error(pr, pd, gr, gd):
    """Components [q_oe, p_e] of the pose g = gr + eps gd relative to the
    pose p = pr + eps pd.

    q_oe = pr* (x) gr is the rotation between them and
    p_e = vec(2 q_oe* (x) q_pe), with q_pe the dual part of p* (x) g, the
    translation it carries.  The parts are 4-sequences of floats or columns.
    """
    qw, qx, qy, qz, fw, fx, fy, fz = _mul(_conj(pr), _conj(pd), gr, gd)
    _, px, py, pz = _product(_conj((qw, qx, qy, qz)), (fw, fx, fy, fz))
    return qw, qx, qy, qz, 2.0 * px, 2.0 * py, 2.0 * pz


def _exp(z):
    """Parts (real, dual) of the screw exponential of the float 6-sequence
    z = (r, v), rotation then translation; requires ||r|| < pi."""
    rx, ry, rz, ux, uy, uz = z
    th = (rx * rx + ry * ry + rz * rz) ** 0.5
    if th < 1e-12:
        return (1.0, 0.0, 0.0, 0.0), (0.0, ux, uy, uz)
    if th >= math.pi:
        raise ValueError(f"twist rotation magnitude {th:.6f} outside the exp domain")
    nx, ny, nz = rx / th, ry / th, rz / th
    d = nx * ux + ny * uy + nz * uz
    mx, my, mz = (ux - d * nx) / th, (uy - d * ny) / th, (uz - d * nz) / th
    st, ct = math.sin(th), math.cos(th)
    return ((ct, st * nx, st * ny, st * nz),
            (-d * st, st * mx + d * ct * nx, st * my + d * ct * ny, st * mz + d * ct * nz))


def _normalize(p):
    """Components of p re-projected onto the unit constraints: the real
    part rescaled to unit norm, the dual part's component along it removed."""
    rw, rx, ry, rz, dw, dx, dy, dz = p
    inv = 1.0 / (rw * rw + rx * rx + ry * ry + rz * rz) ** 0.5
    rw, rx, ry, rz = rw * inv, rx * inv, ry * inv, rz * inv
    dw, dx, dy, dz = dw * inv, dx * inv, dy * inv, dz * inv
    dot = rw * dw + rx * dx + ry * dy + rz * dz
    return (rw, rx, ry, rz, dw - dot * rw, dx - dot * rx, dy - dot * ry, dz - dot * rz)


def _step(pr, pd, z):
    """Components of normalize(p (x) exp(z)) for the float 4-sequence parts
    of a pose p and a float 6-sequence twist displacement z = (r, v)."""
    return _normalize(_mul(pr, pd, *_exp(z)))
