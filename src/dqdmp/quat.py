"""Hamilton quaternion algebra on plain numpy arrays.

Conventions used throughout the package:

* Quaternions are length-4 float arrays in scalar-first order
  ``[w, x, y, z]`` (w is the scalar part, [x, y, z] the vector part).
  The same ordering is used in every file format.
* Rotation quaternions map body-frame vectors to the inertial frame:
  ``v_inertial = q (x) [0, v_body] (x) q*``.
* Rotation vectors use the half-angle convention: ``quat_exp(r)`` is a
  rotation by the angle ``2 * ||r||`` about ``r / ||r||``.  A step of a
  body rate ``omega`` over ``dt`` is therefore ``quat_exp(dt/2 * omega)``.
* The double cover is not resolved here: ``q`` and ``-q`` encode the same
  rotation.  Sign continuity of sampled sequences is enforced by the
  trajectory tooling, not by this module.

All functions are pure and allocate fresh arrays; they are safe to call
concurrently.  The products are written out component-wise on purpose.
The algebra kernels (product, conjugate, vector part, rotations) unpack
the last axis with ``a.T``, so one formula serves a single ``(4,)``
quaternion and an ``(n, 4)`` stack (broadcasting a single operand against
a stack), with the same bits per row either way; training evaluates them
once per demonstration.  The exponential, logarithm, norm and step
functions take single values.  The integrators keep their own float-level
``_raw`` forms (in ``dmp`` and ``dualquat``), which are several times
faster per step than any array expression.
"""

from __future__ import annotations

import numpy as np

# Below this vector-part norm the rotation axis is numerically meaningless
# and the logarithm falls back to the zero vector.
_AXIS_EPS = 1e-12
# sign pattern of the conjugate
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def quat_identity() -> np.ndarray:
    """Identity rotation [1, 0, 0, 0]."""
    return np.array([1.0, 0.0, 0.0, 0.0])


def quat_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a (x) b.

    Component form of [w1*w2 - v1.v2, w1*v2 + w2*v1 + v1 x v2]; associative,
    not commutative.
    """
    aw, ax, ay, az = a.T
    bw, bx, by, bz = b.T
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + bw * ax + ay * bz - az * by,
        aw * by + bw * ay + az * bx - ax * bz,
        aw * bz + bw * az + ax * by - ay * bx,
    ]).T


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    """Conjugate [w, -x, -y, -z]; equals the inverse for unit quaternions."""
    return q * _CONJ


def quat_vec(q: np.ndarray) -> np.ndarray:
    """Vector (imaginary) part of q."""
    return q[..., 1:].copy()


def quat_norm(q: np.ndarray) -> float:
    return float(np.sqrt(q @ q))


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Rescale to unit norm. Raises on a near-zero quaternion."""
    n = quat_norm(q)
    if n < _AXIS_EPS:
        raise ValueError("cannot normalize near-zero quaternion")
    return q / n


def quat_exp(r: np.ndarray) -> np.ndarray:
    """Exponential map of a rotation vector to a unit quaternion.

    Returns [cos||r||, sin||r||* r/||r||]; the zero vector maps to the
    identity.  sin(n)/n is evaluated through np.sinc so the r -> 0 limit
    needs no branch.
    """
    n = float(np.sqrt(r @ r))
    s = np.sinc(n / np.pi)  # sin(n)/n, exactly 1.0 at n = 0
    return np.array([np.cos(n), s * r[0], s * r[1], s * r[2]])


def quat_log(q: np.ndarray) -> np.ndarray:
    """Inverse of quat_exp on the principal branch.

    Returns arccos(w) * v/||v||, with w clamped to [-1, 1] against
    floating-point overshoot.  Near-identity input (||v|| below 1e-12)
    returns the zero vector.
    """
    vn = float(np.sqrt(q[1] * q[1] + q[2] * q[2] + q[3] * q[3]))
    if vn < _AXIS_EPS:
        return np.zeros(3)
    ang = np.arccos(np.clip(q[0], -1.0, 1.0))
    return (ang / vn) * np.array([q[1], q[2], q[3]])


def orientation_error(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Rotation error vec(q1 (x) q2*) between two unit quaternions.

    Zero iff q1 = +/- q2; its norm never exceeds 1 (it is the vector part
    of a unit quaternion).
    """
    return quat_vec(quat_product(q1, quat_conjugate(q2)))


def quat_derivative(q: np.ndarray, omega_body: np.ndarray) -> np.ndarray:
    """Kinematic derivative 1/2 q (x) [0, omega] for a body-frame rate."""
    ox, oy, oz = float(omega_body[0]), float(omega_body[1]), float(omega_body[2])
    qw, qx, qy, qz = q
    return 0.5 * np.array([
        -qx * ox - qy * oy - qz * oz,
        qw * ox + qy * oz - qz * oy,
        qw * oy + qz * ox - qx * oz,
        qw * oz + qx * oy - qy * ox,
    ])


def quat_step_body(q: np.ndarray, omega_body: np.ndarray, dt: float) -> np.ndarray:
    """Advance q by a constant body rate: q (x) exp(dt/2 * omega).

    Exact for constant omega; the result is renormalized to absorb
    floating-point drift.
    """
    return quat_normalize(quat_product(q, quat_exp(0.5 * dt * omega_body)))


def quat_step_inertial(q: np.ndarray, omega_inertial: np.ndarray, dt: float) -> np.ndarray:
    """Advance q by a constant inertial rate: exp(dt/2 * omega) (x) q."""
    return quat_normalize(quat_product(quat_exp(0.5 * dt * omega_inertial), q))


def quat_to_rotmat(q: np.ndarray) -> np.ndarray:
    """Body-to-inertial rotation matrix of a unit quaternion.

    Satisfies quat_to_rotmat(q) @ u == vec(q (x) [0, u] (x) q*).
    """
    w, x, y, z = q
    ww, xx, yy, zz = w * w, x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    return np.array([
        [ww + xx - yy - zz, 2.0 * (xy - wz), 2.0 * (xz + wy)],
        [2.0 * (xy + wz), ww - xx + yy - zz, 2.0 * (yz - wx)],
        [2.0 * (xz - wy), 2.0 * (yz + wx), ww - xx - yy + zz],
    ])


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate a 3-vector from the body frame to the inertial frame."""
    w, x, y, z = q.T
    return _rotate(w, x, y, z, v)


def quat_rotate_inverse(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate a 3-vector from the inertial frame to the body frame."""
    w, x, y, z = q.T
    return _rotate(w, -x, -y, -z, v)


def _rotate(w, ux, uy, uz, v: np.ndarray) -> np.ndarray:
    """Rotate v by the unit quaternion [w, ux, uy, uz]."""
    # v + 2 w (u x v) + 2 u x (u x v), crosses written out (np.cross has
    # far too much dispatch overhead for single 3-vectors)
    vx, vy, vz = v.T
    tx = 2.0 * (uy * vz - uz * vy)
    ty = 2.0 * (uz * vx - ux * vz)
    tz = 2.0 * (ux * vy - uy * vx)
    return np.array([
        vx + w * tx + uy * tz - uz * ty,
        vy + w * ty + uz * tx - ux * tz,
        vz + w * tz + ux * ty - uy * tx,
    ]).T
