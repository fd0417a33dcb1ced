"""Every pose variant is blind to where the world frame sits: the model
trained on a rigidly moved demo rolls out the moved rollout of the model
trained on the demo itself.  The coupled model is also blind to it without
retraining: moving its boundary poses moves its rollout."""

from dataclasses import replace
from functools import cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dqdmp import (
    Pose,
    Trajectory,
    basis_scheme_a,
    dq_from_pose,
    dq_product,
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

from conftest import rollout_models

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


def test_a_model_with_rigidly_moved_boundary_poses_rolls_out_the_moved_rollout():
    # e0 stays anchored at the trained start, so the same maneuver from
    # another place or heading g is the model with dq0 and dqd moved by g;
    # the weights are kept.  The baseline's inertial axes, moved the same
    # way, are printed with no bar
    baseline = pose_train(DEMO, DEMO.duration, 0.1, 30, 10.0, 10.0 * np.sqrt(10.0), 50, 1.0, 10.0)
    deviations = []

    @settings(max_examples=20, deadline=None)
    @given(rotation=rotations, offset=st.tuples(*[st.floats(-500.0, 500.0)] * 3),
           seed=st.integers(0, 2**32 - 1))
    def moved(rotation, offset, seed):
        q = np.array(rotation) / np.linalg.norm(rotation)
        g = dq_from_pose(Pose(np.array(offset), q))
        dq, quat, _ = rollout_models(np.random.default_rng(seed))
        p, r = dq_rollout(dq, dt=0.01, duration=2.0).poses()
        moved_dq = replace(dq, dq0=dq_product(g, dq.dq0), dqd=dq_product(g, dq.dqd))
        got_p, got_r = dq_rollout(moved_dq, dt=0.01, duration=2.0).poses()
        want_p = quat_rotate(q, p) + offset
        scale = max(1.0, float(np.max(np.linalg.norm(want_p, axis=1))))
        assert np.max(np.linalg.norm(got_p - want_p, axis=1)) <= 1e-9 * scale
        assert np.max(np.abs(got_r - quat_product(q, r))) <= 1e-9
        r = quat_rollout(quat, dt=0.01, duration=2.0).q
        got_r = quat_rollout(replace(quat, q0=quat_product(q, quat.q0),
                                     qd=quat_product(q, quat.qd)), dt=0.01, duration=2.0).q
        assert np.max(np.abs(got_r - quat_product(q, r))) <= 1e-9

        ends = quat_rotate(q, np.array([[a.y0, a.goal] for a in baseline.position]).T) + offset
        shifted = replace(baseline, orientation=replace(
            baseline.orientation, q0=quat_product(q, baseline.orientation.q0),
            qd=quat_product(q, baseline.orientation.qd)), position=tuple(
            replace(a, y0=float(y0), goal=float(goal))
            for a, (y0, goal) in zip(baseline.position, ends.T)))
        want_p = quat_rotate(q, pose_rollout(baseline, DEMO.dt, DEMO.duration).positions) + offset
        got_p = pose_rollout(shifted, DEMO.dt, DEMO.duration).positions
        deviations.append(float(np.max(np.linalg.norm(got_p - want_p, axis=1))))

    moved()
    print(f"\npose-decoupled baseline with moved y0 / goal and q0 / qd: position deviation "
          f"up to {max(deviations):.3g} m over {len(deviations)} motions (no bar)")
