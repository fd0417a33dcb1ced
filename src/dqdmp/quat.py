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
concurrently.  Each formula is written once in this module, in component
form, by a private kernel: ``_product`` (the Hamilton product), ``_exp`` (the
exponential) and ``_rotate`` (a vector turned by a quaternion).  The loops
over time in ``dmp`` call ``_exp`` and ``_rotate`` with flat float arguments
(sin and cos from ``math``); the rollout steps there write the error
q* (x) q_d and the renormalized turn normalize(q (x) s) out inline, with
``_product``'s operations in its order.  ``quat_product``, ``quat_exp``,
``quat_rotate`` and ``quat_rotate_inverse`` are thin calls into the
kernels (the last three refuse a wrong-length argument by name first; the
kernels check nothing), and ``quat_to_rotmat`` is the rotate kernel's matrix.
``_product`` and ``_rotate`` take one value as Python floats and a stack as
its columns (``_cols``), with the same bits per row either way: both run
the same IEEE operations in the same order.  So the product, conjugate,
vector part and rotations serve one value, a stack, or one value against a
stack.  The exponential, logarithm and norm take single values.
"""

from __future__ import annotations

import math

import numpy as np

# Below this norm the rotation axis is numerically meaningless: the
# logarithm falls back to the zero vector, the exponential to [1, r].
_AXIS_EPS = 1e-12
# sign pattern of the conjugate
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def _product(a, b):
    """Components of a (x) b for 4-sequences of floats or of stack columns.
    Negation is exact: ``_product(_conj(a), b)`` has the expanded bits."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + bw * ax + ay * bz - az * by,
            aw * by + bw * ay + az * bx - ax * bz,
            aw * bz + bw * az + ax * by - ay * bx)


def _cols(a):
    """A single value's components as floats, a stack's as its columns."""
    return a.tolist() if a.ndim == 1 else a.T


def _conj(a):
    """Components of the conjugate [w, -x, -y, -z]."""
    aw, ax, ay, az = a
    return aw, -ax, -ay, -az


def quat_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a (x) b.

    Component form of [w1*w2 - v1.v2, w1*v2 + w2*v1 + v1 x v2]; associative,
    not commutative.
    """
    return np.array(_product(_cols(a), _cols(b))).T


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    """Conjugate [w, -x, -y, -z]; equals the inverse for unit quaternions."""
    return q * _CONJ


def quat_vec(q: np.ndarray) -> np.ndarray:
    """Vector (imaginary) part of q."""
    return q[..., 1:].copy()


def quat_norm(q: np.ndarray) -> float:
    """Euclidean norm; inf, with no warning, when the squared norm overflows."""
    with np.errstate(over="ignore"):
        return float(np.sqrt(q @ q))


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Rescale to unit norm. Raises on a near-zero quaternion and on one whose
    squared norm overflows (an infinite component included); NaN stays NaN."""
    n = quat_norm(q)
    if n == math.inf:
        raise ValueError("cannot normalize a quaternion whose squared norm overflows")
    if n < _AXIS_EPS:
        raise ValueError("cannot normalize near-zero quaternion")
    return q / n


def _exp(rx, ry, rz):
    """Components of quat_exp for the float rotation vector (rx, ry, rz); nan
    components when ||r|| overflows, where math.sin would raise on the
    infinite angle."""
    th = (rx * rx + ry * ry + rz * rz) ** 0.5
    if th < _AXIS_EPS:
        return 1.0, rx, ry, rz
    if th == math.inf:
        return (math.nan,) * 4
    st = math.sin(th) / th
    return math.cos(th), st * rx, st * ry, st * rz


def _vector(a, n: int, name: str, stacks: bool = False) -> np.ndarray:
    """a as a float array; refused by name unless an n-vector, or an (m, n) stack if stacks."""
    a = np.asarray(a, dtype=float)
    if a.shape[-1:] != (n,) or a.ndim > 1 + stacks:
        raise ValueError(f"{name} must be a {n}-vector{' or a stack of them' * stacks}; "
                         f"got shape {a.shape}")
    return a


def quat_exp(r: np.ndarray) -> np.ndarray:
    """Exponential map of a rotation vector to a unit quaternion.

    Returns [cos||r||, sin||r||* r/||r||]; below ||r|| = 1e-12 it returns
    the first-order [1, r], which is the identity for the zero vector.
    """
    return np.array(_exp(*_vector(r, 3, "r").tolist()))


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


def quat_to_rotmat(q: np.ndarray) -> np.ndarray:
    """Body-to-inertial rotation matrix of a unit quaternion: column j is
    quat_rotate(q, e_j) bit for bit, so R @ u is quat_rotate(q, u) up to
    rounding."""
    return quat_rotate(q, np.eye(3)).T


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate a 3-vector from the body frame to the inertial frame."""
    w, x, y, z = _cols(_vector(q, 4, "q", True))
    return np.array(_rotate(w, x, y, z, *_cols(_vector(v, 3, "v", True)))).T


def quat_rotate_inverse(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate a 3-vector from the inertial frame to the body frame."""
    w, x, y, z = _cols(_vector(q, 4, "q", True))
    return np.array(_rotate(w, -x, -y, -z, *_cols(_vector(v, 3, "v", True)))).T


def _rotate(w, ux, uy, uz, vx, vy, vz):
    """Components of (vx, vy, vz) rotated by the unit quaternion
    [w, ux, uy, uz], for floats or stack columns."""
    # v + 2 w (u x v) + 2 u x (u x v), crosses written out (np.cross has
    # far too much dispatch overhead for single 3-vectors)
    tx = 2.0 * (uy * vz - uz * vy)
    ty = 2.0 * (uz * vx - ux * vz)
    tz = 2.0 * (ux * vy - uy * vx)
    return (vx + w * tx + uy * tz - uz * ty,
            vy + w * ty + uz * tx - ux * tz,
            vz + w * tz + ux * ty - uy * tx)
