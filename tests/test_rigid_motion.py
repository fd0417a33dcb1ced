"""Every pose variant is blind to where the world frame sits: the model
trained on a rigidly moved demo rolls out the moved rollout of the model
trained on the demo itself."""

from functools import cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dqdmp import (
    Trajectory,
    basis_scheme_a,
    dq_rollout,
    dq_train,
    gen_somersault,
    pose_rollout,
    pose_train,
    quat_product,
    quat_rollout,
    quat_rotate,
    quat_train,
)

# a short tilted loop on a body mount, so that every twist channel moves
_LOOP = gen_somersault(5.0, 1.0, 0.01)
_TILT = np.array([0.9, 0.3, -0.2, 0.25]) / np.linalg.norm([0.9, 0.3, -0.2, 0.25])
_MOUNT = np.array([0.8, -0.1, 0.5, 0.3]) / np.linalg.norm([0.8, -0.1, 0.5, 0.3])
DEMO = Trajectory(_LOOP.t, quat_rotate(_TILT, _LOOP.positions),
                  quat_product(quat_product(_TILT, _LOOP.quaternions), _MOUNT))
EXTENT = float(np.max(np.ptp(DEMO.positions, axis=0)))


def rollouts(traj):
    """(positions, quaternions) of the dq, quat and pose-decoupled rollouts of
    models trained on traj, each over the demo's own step and duration; the
    dq and quat settings are those of compare."""
    T, dt = traj.duration, traj.dt
    dq = dq_train(traj, T, 1.0, 1.0, 10.0, 10.0, basis_scheme_a(30, 0.05))
    droll = dq_rollout(dq, xi0=traj.derived().xi[0] * T, dt=dt, duration=T)
    qroll = quat_rollout(quat_train(traj, T, 1.0, 10.0, basis_scheme_a(50, 0.1)),
                         dt=dt, duration=T)
    proll = pose_rollout(pose_train(traj, T, 0.1, 30, 10.0, 10.0 * np.sqrt(10.0),
                                    50, 1.0, 10.0), dt, T)
    return {"dq": droll.poses(), "quat": (None, qroll.q),
            "pose_decoupled": (proll.positions, proll.q)}


@cache
def demo_rollouts():
    return rollouts(DEMO)


unit = st.floats(-1.0, 1.0)
rotations = st.tuples(unit, unit, unit, unit).filter(lambda q: sum(c * c for c in q) > 0.01)
offsets = st.tuples(*[st.floats(-1000.0, 1000.0)] * 3)


@settings(max_examples=25, deadline=None)
@given(rotation=rotations, offset=offsets)
def test_a_rigidly_moved_demo_rolls_out_the_moved_rollout(rotation, offset):
    # the dq model differenced the body-axes position, whose O(dt^2) error
    # grows with the distance from the origin: its rollouts moved by
    # millimetres under a move of a kilometre
    q = np.array(rotation) / np.linalg.norm(rotation)
    moved = Trajectory(DEMO.t, quat_rotate(q, DEMO.positions) + offset,
                       quat_product(q, DEMO.quaternions))
    got = rollouts(moved)
    for variant, (positions, quats) in demo_rollouts().items():
        p, r = got[variant]
        if positions is not None:
            err = np.max(np.abs(p - (quat_rotate(q, positions) + offset)))
            assert err <= 1e-9 * EXTENT, (variant, err)
        assert np.max(np.abs(r - quat_product(q, quats))) <= 1e-9, variant
