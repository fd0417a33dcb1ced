import io

import numpy as np
import pytest

from dqdmp import (
    Trajectory,
    differentiate,
    gen_min_jerk,
    gen_somersault,
    load_trajectory,
    quat_exp,
    quat_step_body,
    quat_to_rotmat,
    resample,
)
from dqdmp.traj import trajectory_to_csv

MINIMAL = """t,px,py,pz,qw,qx,qy,qz
0,0,0,0,1,0,0,0
0.1,0,0,0,1,0,0,0
"""


def test_load_minimal_file():
    traj = load_trajectory(io.StringIO(MINIMAL))
    assert len(traj) == 2
    assert abs(traj.dt - 0.1) < 1e-15


def test_load_rejects_bad_quaternion_norm():
    text = MINIMAL.replace("0.1,0,0,0,1,0,0,0", "0.1,0,0,0,0.9,0,0,0")
    with pytest.raises(ValueError, match="sample 1"):
        load_trajectory(io.StringIO(text))


def test_load_renormalizes_small_drift():
    text = MINIMAL.replace("0.1,0,0,0,1,0,0,0", "0.1,0,0,0,1.0000005,0,0,0")
    traj = load_trajectory(io.StringIO(text))
    assert abs(np.linalg.norm(traj.quaternions[1]) - 1.0) < 1e-12


def test_load_reports_malformed_row_line():
    text = MINIMAL + "0.2,0,0\n"
    with pytest.raises(ValueError, match="line 4"):
        load_trajectory(io.StringIO(text))


def test_load_rejects_nonuniform_times():
    text = MINIMAL + "0.35,0,0,0,1,0,0,0\n"
    with pytest.raises(ValueError, match="uniform"):
        load_trajectory(io.StringIO(text))


def test_load_rejects_missing_header():
    with pytest.raises(ValueError, match="header"):
        load_trajectory(io.StringIO("0,0,0,0,1,0,0,0\n"))


def test_round_trip_is_byte_identical():
    traj = gen_somersault(5.0, 2.0, 0.05)
    text = trajectory_to_csv(traj)
    again = trajectory_to_csv(load_trajectory(io.StringIO(text)))
    assert text == again


def test_round_trip_preserves_scale_metadata():
    traj = gen_somersault(5.0, 2.0, 0.05)
    traj.scale = 0.2
    traj.positions = traj.positions * 0.2  # stored at normalized scale
    text = trajectory_to_csv(traj)
    assert text.startswith("# scale 0.2")
    back = load_trajectory(io.StringIO(text))
    assert back.scale == 0.2
    # scale application costs one rounding each way; values, not bytes
    np.testing.assert_allclose(back.positions, traj.positions, rtol=1e-15)
    np.testing.assert_allclose(back.quaternions, traj.quaternions, atol=1e-15)


def test_sign_continuity_enforced_on_load():
    rows = ["t,px,py,pz,qw,qx,qy,qz"]
    q = np.array([1.0, 0, 0, 0])
    for k in range(6):
        sign = -1.0 if k in (2, 3) else 1.0  # two samples flipped
        step = quat_exp(np.array([0.05 * k, 0, 0]))
        rows.append(",".join(f"{v:.17g}" for v in
                             [0.1 * k, 0, 0, 0, *(sign * step)]))
    traj = load_trajectory(io.StringIO("\n".join(rows) + "\n"))
    dots = np.sum(traj.quaternions[:-1] * traj.quaternions[1:], axis=1)
    assert np.all(dots >= 0.0)


@pytest.mark.parametrize("row", ["nan,0,0,0,1,0,0,0", "0.2,0,nan,0,1,0,0,0",
                                 "0.2,0,0,0,nan,0,0,0", "0.2,0,0,0,1,0,inf,0"])
def test_load_rejects_non_finite_sample(row):
    # a NaN norm never exceeds the unit-norm tolerance, so only an explicit
    # finiteness check catches the quaternion case
    text = MINIMAL + row + "\n"
    with pytest.raises(ValueError, match="non-finite value at sample 2"):
        load_trajectory(io.StringIO(text))


def test_load_rejects_time_axis_not_starting_at_zero():
    text = "\n".join(["t,px,py,pz,qw,qx,qy,qz", "1,0,0,0,1,0,0,0",
                      "1.1,0,0,0,1,0,0,0", "1.2,0,0,0,1,0,0,0"]) + "\n"
    with pytest.raises(ValueError, match="start at 0.*sample 0"):
        load_trajectory(io.StringIO(text))


def test_start_time_within_rounding_of_zero_is_accepted():
    t = np.arange(5) * 0.01 + 1e-13
    traj = Trajectory(t, np.zeros((5, 3)), np.tile([1.0, 0, 0, 0], (5, 1)))
    assert len(traj) == 5


def _greedy_sign_continuity(quats):
    """The walk the constructor replaces: flip q_k when its dot with the
    corrected q_{k-1} is negative."""
    q = quats.copy()
    for k in range(1, len(q)):
        if q[k - 1] @ q[k] < 0.0:
            q[k] = -q[k]
    return q


def test_sign_continuity_matches_greedy_walk(rng):
    # a slow rotation sampled with long runs of flipped signs, plus one
    # sample exactly orthogonal to its predecessor: the walk resets the
    # sign to +1 there, as a zero dot is not negative
    n = 400
    angles = np.linspace(0.0, 3.0, n)
    quats = np.stack([np.cos(angles), np.sin(angles) * 0.6,
                      np.sin(angles) * 0.8, np.zeros(n)], axis=1)
    signs = np.ones(n)
    for start, length in ((20, 70), (120, 3), (130, 150), (300, 1), (320, 79)):
        signs[start:start + length] = -1.0
    signs[rng.integers(0, n, size=25)] *= -1.0
    quats = quats * signs[:, None]
    quats[200] = [0.0, 0.0, 0.0, 1.0]
    quats[201] = -quats[201]
    assert quats[199] @ quats[200] == 0.0
    t = np.arange(n) * 0.01
    traj = Trajectory(t, np.zeros((n, 3)), quats)
    expected = _greedy_sign_continuity(quats / np.linalg.norm(quats, axis=1)[:, None])
    assert np.array_equal(traj.quaternions, expected)
    assert np.array_equal(traj.quaternions[200], [0.0, 0.0, 0.0, 1.0])


def test_constructor_requires_two_samples():
    with pytest.raises(ValueError):
        Trajectory([0.0], np.zeros((1, 3)), np.array([[1.0, 0, 0, 0]]))


# -- differentiation ---------------------------------------------------------


def test_differentiate_constant_pose():
    n = 10
    q = np.tile([1.0, 0, 0, 0], (n, 1))
    p = np.tile([1.0, 2.0, 3.0], (n, 1))
    traj = Trajectory(np.arange(n) * 0.01, p, q)
    der = differentiate(traj)
    np.testing.assert_allclose(der.omega_b, 0, atol=1e-12)
    np.testing.assert_allclose(der.p_b_dot, 0, atol=1e-12)
    np.testing.assert_allclose(der.xi, 0, atol=1e-12)
    np.testing.assert_allclose(der.xi_dot, 0, atol=1e-12)


def test_differentiate_requires_four_samples():
    q = np.tile([1.0, 0, 0, 0], (3, 1))
    traj = Trajectory(np.arange(3) * 0.01, np.zeros((3, 3)), q)
    with pytest.raises(ValueError, match="short"):
        differentiate(traj)


def test_differentiate_recovers_constant_rate(rng):
    # sample an exact constant-rate rotation at 100 Hz
    omega = np.array([0.4, -0.3, 0.6])
    n = 200
    q = np.empty((n, 4))
    q[0] = [1.0, 0, 0, 0]
    for k in range(1, n):
        q[k] = quat_step_body(q[k - 1], omega, 0.01)
    traj = Trajectory(np.arange(n) * 0.01, np.zeros((n, 3)), q)
    der = differentiate(traj)
    assert np.max(np.linalg.norm(der.omega_b - omega, axis=1)) <= 1e-4


def test_differentiate_second_order_convergence():
    # halving dt must shrink the worst rate error by at least 3.5x
    errs = []
    for dt in (0.02, 0.01):
        traj = gen_somersault(5.0, 4.0, dt)
        der = differentiate(traj)
        t = traj.t
        u = t / 4.0
        sd = (30 * u**2 - 60 * u**3 + 30 * u**4) / 4.0
        omega_true = np.stack([np.zeros_like(t), 2 * np.pi * sd,
                               np.zeros_like(t)], axis=1)
        errs.append(np.max(np.linalg.norm(der.omega_b - omega_true, axis=1)))
    assert errs[0] / errs[1] >= 3.5


def test_differentiate_smooth_twist_rate():
    traj = gen_somersault(50.0, 18.9, 0.01)
    xi_dot = differentiate(traj).xi_dot
    assert np.all(np.isfinite(xi_dot))
    mag = np.linalg.norm(xi_dot, axis=1)
    for k in range(1, len(mag) - 1):
        bound = 10.0 * max(mag[k - 1], mag[k + 1]) + 1e-9
        assert mag[k] <= bound


# -- resampling ----------------------------------------------------------------


def test_resample_same_dt_is_identity():
    traj = gen_somersault(5.0, 2.0, 0.02)
    out = resample(traj, 0.02)
    np.testing.assert_array_equal(out.positions, traj.positions)
    np.testing.assert_array_equal(out.quaternions, traj.quaternions)


def test_resample_preserves_endpoints():
    traj = gen_somersault(5.0, 2.0, 0.02)
    out = resample(traj, 0.03)
    np.testing.assert_array_equal(out.positions[0], traj.positions[0])
    np.testing.assert_array_equal(out.positions[-1], traj.positions[-1])
    np.testing.assert_array_equal(out.quaternions[-1], traj.quaternions[-1])
    assert abs(out.duration - traj.duration) < 1e-12


def test_resample_down_up_round_trip():
    traj = gen_somersault(50.0, 18.9, 0.01)
    back = resample(resample(traj, 0.015), 0.01)
    assert len(back) == len(traj)
    pos_err = np.max(np.linalg.norm(back.positions - traj.positions, axis=1))
    dots = np.abs(np.sum(back.quaternions * traj.quaternions, axis=1))
    ang_err = np.max(2 * np.arccos(np.clip(dots, 0, 1)))
    assert pos_err < 1e-3 and ang_err < 1e-3


def test_resample_rejects_bad_dt():
    traj = gen_somersault(5.0, 2.0, 0.02)
    with pytest.raises(ValueError):
        resample(traj, -0.1)


# -- generators ----------------------------------------------------------------


def test_min_jerk_boundaries():
    d = gen_min_jerk(-1.0, 2.0, 1.5, 0.01)
    assert d.y[0] == -1.0 and abs(d.y[-1] - 2.0) < 1e-12
    assert abs(d.yd[0]) < 1e-12 and abs(d.yd[-1]) < 1e-12
    assert abs(d.ydd[0]) < 1e-12 and abs(d.ydd[-1]) < 1e-12


def test_min_jerk_derivative_consistency():
    # analytic acceleration must match differenced velocity at 100 Hz
    # (horizon long enough that the differencing floor sits below 1e-6)
    d = gen_min_jerk(0.0, 1.0, 15.0, 0.01)
    ydd_num = np.gradient(d.yd, 0.01, edge_order=2)
    assert np.max(np.abs(ydd_num - d.ydd)) <= 1e-6


def test_min_jerk_degenerate_is_constant():
    d = gen_min_jerk(0.7, 0.7, 1.0, 0.01)
    np.testing.assert_allclose(d.y, 0.7)
    np.testing.assert_allclose(d.yd, 0.0)


def test_somersault_is_closed_loop():
    traj = gen_somersault(50.0, 18.9, 0.01)
    assert len(traj) == 1891
    np.testing.assert_allclose(traj.positions[0], 0, atol=1e-9)
    np.testing.assert_allclose(traj.positions[-1], 0, atol=1e-9 * 50)
    # end attitude is the same rotation (other cover of the identity)
    np.testing.assert_allclose(np.abs(traj.quaternions[-1]), [1, 0, 0, 0],
                               atol=1e-12)
    der = differentiate(traj)
    # analytic end rates are exactly zero; derived ones sit at the
    # one-sided differencing floor
    assert np.linalg.norm(der.omega_b[0]) < 1e-5
    assert np.linalg.norm(der.omega_b[-1]) < 1e-5


def test_somersault_midpoint_is_apex():
    traj = gen_somersault(50.0, 18.9, 0.01)
    k = 945  # t = T/2 lies on the grid
    np.testing.assert_allclose(traj.positions[k], [0, 0, 100.0], atol=1e-9)
    # upside down: pitch by pi
    np.testing.assert_allclose(np.abs(traj.quaternions[k]), [0, 0, 1, 0],
                               atol=1e-9)


def test_somersault_kinematic_consistency():
    # finite-difference inertial velocity equals the rotated body velocity
    traj = gen_somersault(5.0, 18.9, 0.01)
    der = differentiate(traj)
    pdot_fd = np.gradient(traj.positions, 0.01, axis=0, edge_order=2)
    for k in range(len(traj)):
        R = quat_to_rotmat(traj.quaternions[k])
        v_s = R @ (der.p_b_dot[k] + np.cross(der.omega_b[k], der.p_b[k]))
        assert np.linalg.norm(pdot_fd[k] - v_s) <= 1e-3


def test_generators_deterministic():
    a = trajectory_to_csv(gen_somersault(7.0, 3.0, 0.02))
    b = trajectory_to_csv(gen_somersault(7.0, 3.0, 0.02))
    assert a == b
