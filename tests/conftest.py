import io

import numpy as np
import pytest

from dqdmp import (
    DualQuaternion,
    Pose,
    dq_conjugate,
    dq_from_pose,
    dq_product,
    quat_conjugate,
    quat_product,
    save_trajectory,
)
from dqdmp.dmp import _pose_error
from dqdmp.dualquat import dq_position
from dqdmp.quat import _product


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


def random_unit_quat(rng) -> np.ndarray:
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def random_rotvec(rng, max_angle: float) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return axis * rng.uniform(0.0, max_angle)


def random_unit_dq(rng, pos_scale: float = 2.0) -> DualQuaternion:
    return dq_from_pose(Pose(rng.uniform(-pos_scale, pos_scale, size=3),
                             random_unit_quat(rng)))


# Literals and oracle arithmetic the tests share; the package has no public
# function for them.


def quat_identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def dq_identity() -> DualQuaternion:
    return DualQuaternion(np.array([1.0, 0, 0, 0]), np.zeros(4))


def dq_add(a: DualQuaternion, b: DualQuaternion) -> DualQuaternion:
    return DualQuaternion(a.real + b.real, a.dual + b.dual)


def dq_scale(a: DualQuaternion, s: float) -> DualQuaternion:
    return DualQuaternion(s * a.real, s * a.dual)


def dq_normalize(q: DualQuaternion) -> DualQuaternion:
    """Re-projection onto the unit constraints: the real part rescaled to unit
    norm, the dual part's component along it removed."""
    n = np.linalg.norm(q.real)
    real, dual = q.real / n, q.dual / n
    return DualQuaternion(real, dual - (real @ dual) * real)


def turn(q, s) -> np.ndarray:
    """normalize(q (x) s) for float 4-sequences q and s, with the operations
    of the rollout steps' turn: the step of a body rate r is turn(q, _exp(*r))."""
    w, x, y, z = _product(q, s)
    inv = 1.0 / (w * w + x * x + y * y + z * z) ** 0.5
    return np.array([w * inv, x * inv, y * inv, z * inv])


def pose_components(dq: DualQuaternion) -> np.ndarray:
    """The 7 components [q, p] of the (rotation, position) state at dq."""
    return np.concatenate([dq.real, dq_position(dq)])


def pose_error(dq: DualQuaternion, goal: DualQuaternion) -> np.ndarray:
    """The 6-vector error the dq primitive is driven by, of dq relative to
    goal, evaluated as the rollout does: on dq's [q, p], as floats."""
    return np.array(_pose_error(goal)(pose_components(dq).tolist())[1:])


def dq_error_oracle(dq: DualQuaternion, goal: DualQuaternion) -> np.ndarray:
    """[vec(q_oe), vec(2 q_oe* (x) q_pe)] of q_e = q_oe + eps q_pe = dq* (x)
    goal: the pose error read off the dual quaternion product."""
    qe = dq_product(dq_conjugate(dq), goal)
    p_e = 2.0 * quat_product(quat_conjugate(qe.real), qe.dual)
    return np.concatenate([qe.real[1:], p_e[1:]])


def trajectory_to_csv(traj) -> str:
    """save_trajectory's text, as written to a file."""
    buf = io.StringIO()
    save_trajectory(traj, buf)
    return buf.getvalue()
