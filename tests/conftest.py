import io

import numpy as np
import pytest

from dqdmp import DualQuaternion, Pose, dq_from_pose, save_trajectory


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


def trajectory_to_csv(traj) -> str:
    """save_trajectory's text, as written to a file."""
    buf = io.StringIO()
    save_trajectory(traj, buf)
    return buf.getvalue()
