"""Trajectory learning with dynamic motion primitives over dual quaternions.

Encodes demonstrated rigid-body maneuvers as second-order attractor systems
with phase-gated learned forcing, coupling translation and rotation through
unit dual quaternions on SE(3); classical scalar and quaternion-only
primitives are included as baselines, along with synthetic maneuver
generators, trajectory tooling and a CLI.
"""

from .canonical import (
    GaussianBasis,
    basis_scheme_a,
    design_matrix,
    fit_weights,
    forcing,
    phase,
)
from .dmp import (
    ClassicalDmp,
    ClassicalRollout,
    DqRollout,
    DualQuaternionDmp,
    PoseDecoupledDmp,
    PoseRollout,
    QuaternionDmp,
    QuatRollout,
    classical_rollout,
    classical_target_forcing,
    classical_train,
    dq_rollout,
    dq_target_forcing,
    dq_train,
    load_model,
    pose_rollout,
    pose_train,
    quat_rollout,
    quat_target_forcing,
    quat_train,
    save_model,
)
from .dualquat import (
    BODY,
    DualQuaternion,
    Pose,
    dq_conjugate,
    dq_exp,
    dq_from_pose,
    dq_log,
    dq_product,
    dq_to_pose,
    dq_derivative_body,
    twist_to_inertial,
)
from .quat import (
    quat_conjugate,
    quat_exp,
    quat_log,
    quat_normalize,
    quat_product,
    quat_rotate,
    quat_rotate_inverse,
    quat_to_rotmat,
    quat_vec,
)
from .traj import (
    ScalarDemo,
    Trajectory,
    differentiate,
    gen_min_jerk,
    gen_somersault,
    load_scalar_demo,
    load_trajectory,
    save_trajectory,
)

__version__ = "0.1.0"
