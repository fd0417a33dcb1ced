"""The shared rollout driver against the per-variant loops it replaced.

The reference loops below are ``quat_rollout`` and ``dq_rollout`` written
the way the earlier per-variant loops were: a diagonal-gain fast path, the
error, step and energy formulas written out on floats, and the energies
evaluated inside the loop.  For diagonal gains the driver must reproduce
their states bit for bit; for full gains the summation order of the gain
products differs, so states agree to 1e-12.

The dq reference steps the rotation and the inertial position, as the
driver does.  ``dual_quaternion_loop`` is the dq rollout as it ran on a
unit dual quaternion state, before it moved onto (q, p): a second,
independent check that the two states carry the same math.
"""

import numpy as np
import pytest

from conftest import random_rotvec, random_unit_dq, random_unit_quat
from dqdmp import (
    BODY,
    DualQuaternion,
    DualQuaternionDmp,
    QuaternionDmp,
    basis_scheme_a,
    Pose,
    Trajectory,
    dq_from_pose,
    dq_rollout,
    dq_to_pose,
    dq_train,
    gen_somersault,
    quat_conjugate,
    quat_normalize,
    quat_product,
    quat_rollout,
    quat_rotate,
    quat_to_rotmat,
    quat_vec,
)
from dqdmp.canonical import forcing_rows, phase

BASIS = basis_scheme_a(30, 2.0)
ENERGY_TOL = dict(rtol=1e-12, atol=1e-15)


# -- reference: the earlier loops -----------------------------------------------


def _product(aw, ax, ay, az, bw, bx, by, bz):
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + bw * ax + ay * bz - az * by,
            aw * by + bw * ay + az * bx - ax * bz,
            aw * bz + bw * az + ax * by - ay * bx)


def _conj_product(aw, ax, ay, az, bw, bx, by, bz):
    return (aw * bw + ax * bx + ay * by + az * bz,
            aw * bx - bw * ax - ay * bz + az * by,
            aw * by - bw * ay - az * bx + ax * bz,
            aw * bz - bw * az - ax * by + ay * bx)


def _diag_gains(*mats):
    diags = []
    for m in mats:
        if np.any(m != np.diag(np.diag(m))):
            return None
        diags.append(np.diag(m))
    return np.concatenate(diags)


def _quad_energy(u0, u1, u2, kinv, kinv_diag):
    if kinv_diag is not None:
        return 0.5 * (u0 * u0 * kinv_diag[0] + u1 * u1 * kinv_diag[1]
                      + u2 * u2 * kinv_diag[2])
    u = np.array([u0, u1, u2])
    return 0.5 * float(u @ (kinv @ u))


def _quat_error(q, qd):
    return quat_vec(quat_product(quat_conjugate(q), qd))


def _quat_error_raw(q, qd):
    aw, ax, ay, az = float(q[0]), float(q[1]), float(q[2]), float(q[3])
    bw, bx, by, bz = float(qd[0]), float(qd[1]), float(qd[2]), float(qd[3])
    _, ex, ey, ez = _conj_product(aw, ax, ay, az, bw, bx, by, bz)
    return np.array([ex, ey, ez])


def _quat_step_raw(q, zr):
    rx, ry, rz = float(zr[0]), float(zr[1]), float(zr[2])
    th = (rx * rx + ry * ry + rz * rz) ** 0.5
    if th < 1e-12:
        sw, sx, sy, sz = 1.0, rx, ry, rz
    else:
        st = np.sin(th) / th
        sw, sx, sy, sz = np.cos(th), st * rx, st * ry, st * rz
    aw, ax, ay, az = float(q[0]), float(q[1]), float(q[2]), float(q[3])
    w, x, y, z = _product(aw, ax, ay, az, sw, sx, sy, sz)
    inv = 1.0 / (w * w + x * x + y * y + z * z) ** 0.5
    return np.array([w * inv, x * inv, y * inv, z * inv])


def _rot_energy(q, qd, omega, kinv, kinv_diag=None):
    d = qd - q
    return float(d @ d) + _quad_energy(float(omega[0]), float(omega[1]),
                                       float(omega[2]), kinv, kinv_diag)


def reference_quat_rollout(model, q0=None, omega0=None, dt=0.01, duration=None,
                           goal_override=None, tau_override=None, t_start=0.0):
    tau = float(tau_override) if tau_override is not None else model.tau
    qd = np.asarray(goal_override, dtype=float) if goal_override is not None else model.qd
    if duration is None:
        duration = 1.5 * tau
    q = quat_normalize(np.asarray(q0, dtype=float)) if q0 is not None else model.q0.copy()
    om = np.asarray(omega0, dtype=float).copy() if omega0 is not None else np.zeros(3)
    n = int(round(duration / dt))
    ts = t_start + np.arange(n + 1) * dt
    xs = phase(ts, model.basis.alpha_x, tau)
    out_q = np.empty((n + 1, 4))
    out_om = np.empty((n + 1, 3))
    out_f = np.empty((n + 1, 3))
    out_e = np.empty((n + 1, 3))
    out_v1 = np.empty(n + 1)
    kinv = np.linalg.inv(model.k_gain)
    kinv_diag = tuple(np.diag(kinv)) if _diag_gains(model.k_gain) is not None else None
    e0 = _quat_error(model.q0, qd)
    K, D, W = model.k_gain, model.d_gain, model.weights
    K3 = _diag_gains(K)
    D3 = _diag_gains(D)
    diag = K3 is not None and D3 is not None
    dt_tau = dt / tau
    half = dt / (2.0 * tau)
    forcing_active = bool(np.any(W))
    zero3 = np.zeros(3)
    out_q[0], out_om[0] = q, om
    out_v1[0] = _rot_energy(q, qd, om, kinv, kinv_diag)
    for k in range(n):
        e = _quat_error_raw(q, qd)
        f = forcing_rows(xs[k], model.basis, W) if forcing_active else zero3
        out_e[k], out_f[k] = e, f
        u = e - e0 * xs[k] + f
        if diag:
            om = om + dt_tau * (K3 * u - D3 * om)
        else:
            om = om + dt_tau * (K @ u - D @ om)
        q = _quat_step_raw(q, half * om)
        out_q[k + 1], out_om[k + 1] = q, om
        out_v1[k + 1] = _rot_energy(q, qd, om, kinv, kinv_diag)
    out_e[n] = _quat_error(q, qd)
    out_f[n] = forcing_rows(xs[n], model.basis, W)
    return dict(t=ts, x=xs, q=out_q, omega=out_om, forcing=out_f, error=out_e,
                v1=out_v1)


def _dq_step_raw(qr, qd_, zr, zv):
    rx, ry, rz = float(zr[0]), float(zr[1]), float(zr[2])
    ux, uy, uz = float(zv[0]), float(zv[1]), float(zv[2])
    th = (rx * rx + ry * ry + rz * rz) ** 0.5
    if th < 1e-12:
        sw, sx, sy, sz = 1.0, 0.0, 0.0, 0.0
        tw, tx, ty, tz = 0.0, ux, uy, uz
    else:
        if th >= np.pi:
            raise ValueError(f"step rotation magnitude {th:.6f} outside the exp domain")
        nx, ny, nz = rx / th, ry / th, rz / th
        d = nx * ux + ny * uy + nz * uz
        mx, my, mz = (ux - d * nx) / th, (uy - d * ny) / th, (uz - d * nz) / th
        st, ct = np.sin(th), np.cos(th)
        sw, sx, sy, sz = ct, st * nx, st * ny, st * nz
        tw = -d * st
        tx, ty, tz = st * mx + d * ct * nx, st * my + d * ct * ny, st * mz + d * ct * nz
    aw, ax, ay, az = float(qr[0]), float(qr[1]), float(qr[2]), float(qr[3])
    bw, bx, by, bz = float(qd_[0]), float(qd_[1]), float(qd_[2]), float(qd_[3])
    rw2, rx2, ry2, rz2 = _product(aw, ax, ay, az, sw, sx, sy, sz)
    d1 = _product(aw, ax, ay, az, tw, tx, ty, tz)
    d2 = _product(bw, bx, by, bz, sw, sx, sy, sz)
    dw2, dx2, dy2, dz2 = d1[0] + d2[0], d1[1] + d2[1], d1[2] + d2[2], d1[3] + d2[3]
    inv = 1.0 / (rw2 * rw2 + rx2 * rx2 + ry2 * ry2 + rz2 * rz2) ** 0.5
    rw2, rx2, ry2, rz2 = rw2 * inv, rx2 * inv, ry2 * inv, rz2 * inv
    dw2, dx2, dy2, dz2 = dw2 * inv, dx2 * inv, dy2 * inv, dz2 * inv
    dot = rw2 * dw2 + rx2 * dx2 + ry2 * dy2 + rz2 * dz2
    return (np.array([rw2, rx2, ry2, rz2]),
            np.array([dw2 - dot * rw2, dx2 - dot * rx2,
                      dy2 - dot * ry2, dz2 - dot * rz2]))


def _dq_error_raw(qr, qd_, gr, gd):
    aw, ax, ay, az = float(qr[0]), float(qr[1]), float(qr[2]), float(qr[3])
    dw, dx, dy, dz = float(qd_[0]), float(qd_[1]), float(qd_[2]), float(qd_[3])
    gw, gx, gy, gz = float(gr[0]), float(gr[1]), float(gr[2]), float(gr[3])
    hw, hx, hy, hz = float(gd[0]), float(gd[1]), float(gd[2]), float(gd[3])
    ew, ex, ey, ez = _conj_product(aw, ax, ay, az, gw, gx, gy, gz)
    f1 = _conj_product(aw, ax, ay, az, hw, hx, hy, hz)
    f2 = _conj_product(dw, dx, dy, dz, gw, gx, gy, gz)
    fw, fx, fy, fz = (f1[0] + f2[0], f1[1] + f2[1], f1[2] + f2[2], f1[3] + f2[3])
    _, px, py, pz = _conj_product(ew, ex, ey, ez, fw, fx, fy, fz)
    return np.array([ex, ey, ez, 2.0 * px, 2.0 * py, 2.0 * pz])


def _lyap_raw(qr, qd_, xi, gr, gp, kinv_r, kinv_p, kinv_r_diag=None, kinv_p_diag=None):
    aw, ax, ay, az = float(qr[0]), float(qr[1]), float(qr[2]), float(qr[3])
    d0 = float(gr[0]) - aw
    d1 = float(gr[1]) - ax
    d2 = float(gr[2]) - ay
    d3 = float(gr[3]) - az
    v1 = (d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3
          + _quad_energy(float(xi[0]), float(xi[1]), float(xi[2]),
                         kinv_r, kinv_r_diag))
    _, bx, by, bz = _conj_product(aw, ax, ay, az, float(qd_[0]), float(qd_[1]),
                                  float(qd_[2]), float(qd_[3]))
    bx, by, bz = 2.0 * bx, 2.0 * by, 2.0 * bz
    tx = 2.0 * (ay * bz - az * by)
    ty = 2.0 * (az * bx - ax * bz)
    tz = 2.0 * (ax * by - ay * bx)
    dpx = float(gp[0]) - (bx + aw * tx + ay * tz - az * ty)
    dpy = float(gp[1]) - (by + aw * ty + az * tx - ax * tz)
    dpz = float(gp[2]) - (bz + aw * tz + ax * ty - ay * tx)
    v2 = (0.5 * (dpx * dpx + dpy * dpy + dpz * dpz)
          + _quad_energy(float(xi[3]), float(xi[4]), float(xi[5]),
                         kinv_p, kinv_p_diag))
    return v1 + v2, v1, v2


def dual_quaternion_loop(model, dq0=None, xi0=None, dt=0.01, duration=None,
                         goal_override=None, tau_override=None, t_start=0.0):
    """dq_rollout on a unit dual quaternion state: the error from four
    products, the step q_hat (x) exp(z) with the constraints re-enforced."""
    tau = float(tau_override) if tau_override is not None else model.tau
    goal = goal_override if goal_override is not None else model.dqd
    if duration is None:
        duration = 1.5 * tau
    start = dq0 if dq0 is not None else model.dq0
    xi = np.zeros(6) if xi0 is None else np.asarray(xi0, dtype=float).copy()
    n = int(round(duration / dt))
    ts = t_start + np.arange(n + 1) * dt
    xs = phase(ts, model.basis.alpha_x, tau)
    out_dq = np.empty((n + 1, 8))
    out_xi = np.empty((n + 1, 6))
    out_f = np.empty((n + 1, 6))
    out_e = np.empty((n + 1, 6))
    out_l = np.empty((n + 1, 3))
    qr = start.real.copy()
    qd_ = start.dual.copy()
    gr, gd = goal.real, goal.dual
    gp = dq_to_pose(goal).position
    K_r, K_p, D_r, D_p = model.k_rot, model.k_pos, model.d_rot, model.d_pos
    kinv_r, kinv_p = np.linalg.inv(K_r), np.linalg.inv(K_p)
    K6 = _diag_gains(K_r, K_p)
    D6 = _diag_gains(D_r, D_p)
    diag = K6 is not None and D6 is not None
    kinv_r_diag = tuple(np.diag(kinv_r)) if _diag_gains(K_r) is not None else None
    kinv_p_diag = tuple(np.diag(kinv_p)) if _diag_gains(K_p) is not None else None
    W = model.weights
    basis = model.basis
    forcing_active = bool(np.any(W))
    zero6 = np.zeros(6)
    e0 = _dq_error_raw(model.dq0.real, model.dq0.dual, gr, gd)
    half = dt / (2.0 * tau)
    dt_tau = dt / tau
    out_dq[0, :4], out_dq[0, 4:] = qr, qd_
    out_xi[0] = xi
    out_l[0] = _lyap_raw(qr, qd_, xi, gr, gp, kinv_r, kinv_p, kinv_r_diag, kinv_p_diag)
    for k in range(n):
        e = _dq_error_raw(qr, qd_, gr, gd)
        f = forcing_rows(xs[k], basis, W) if forcing_active else zero6
        out_e[k], out_f[k] = e, f
        u = e - e0 * xs[k] + f
        if diag:
            xi = xi + dt_tau * (K6 * u - D6 * xi)
        else:
            rhs = np.empty(6)
            rhs[:3] = K_r @ u[:3] - D_r @ xi[:3]
            rhs[3:] = K_p @ u[3:] - D_p @ xi[3:]
            xi = xi + dt_tau * rhs
        qr, qd_ = _dq_step_raw(qr, qd_, half * xi[:3], half * xi[3:])
        out_dq[k + 1, :4], out_dq[k + 1, 4:] = qr, qd_
        out_xi[k + 1] = xi
        out_l[k + 1] = _lyap_raw(qr, qd_, xi, gr, gp, kinv_r, kinv_p,
                                 kinv_r_diag, kinv_p_diag)
    out_e[n] = _dq_error_raw(qr, qd_, gr, gd)
    out_f[n] = forcing_rows(xs[n], basis, W)
    return dict(t=ts, x=xs, dq=out_dq, xi=out_xi, forcing=out_f, error=out_e,
                lyap=out_l)


def _qp_error_raw(q, p, gr, gp, rt):
    """Rotation error vec(q* (x) q_d) and translation error R(q_d)^T (p_d - p)."""
    aw, ax, ay, az = float(q[0]), float(q[1]), float(q[2]), float(q[3])
    gw, gx, gy, gz = float(gr[0]), float(gr[1]), float(gr[2]), float(gr[3])
    _, ex, ey, ez = _conj_product(aw, ax, ay, az, gw, gx, gy, gz)
    dx, dy, dz = float(gp[0]) - float(p[0]), float(gp[1]) - float(p[1]), float(gp[2]) - float(p[2])
    return np.array([ex, ey, ez] + [float(rt[i, 0]) * dx + float(rt[i, 1]) * dy
                                    + float(rt[i, 2]) * dz for i in range(3)])


def _qp_step_raw(q, p, zr, zv):
    """q <- normalize(q (x) s) and p <- p + R(q) t for the screw exponential
    (s, t) of z = (zr, zv)."""
    rx, ry, rz = float(zr[0]), float(zr[1]), float(zr[2])
    ux, uy, uz = float(zv[0]), float(zv[1]), float(zv[2])
    th = (rx * rx + ry * ry + rz * rz) ** 0.5
    if th < 1e-12:
        sw, sx, sy, sz = 1.0, 0.0, 0.0, 0.0
        tx, ty, tz = 2.0 * ux, 2.0 * uy, 2.0 * uz
    else:
        if th >= np.pi:
            raise ValueError(f"step rotation magnitude {th:.6f} outside the exp domain")
        nx, ny, nz = rx / th, ry / th, rz / th
        d = nx * ux + ny * uy + nz * uz
        mx, my, mz = (ux - d * nx) / th, (uy - d * ny) / th, (uz - d * nz) / th
        st, ct = np.sin(th), np.cos(th)
        sw, sx, sy, sz = ct, st * nx, st * ny, st * nz
        a, b = st * ct, st * st
        tx = 2.0 * (d * nx + a * mx - b * (my * nz - mz * ny))
        ty = 2.0 * (d * ny + a * my - b * (mz * nx - mx * nz))
        tz = 2.0 * (d * nz + a * mz - b * (mx * ny - my * nx))
    aw, ax, ay, az = float(q[0]), float(q[1]), float(q[2]), float(q[3])
    w, x, y, z = _product(aw, ax, ay, az, sw, sx, sy, sz)
    inv = 1.0 / (w * w + x * x + y * y + z * z) ** 0.5
    # R(q) t as t + 2 w (u x t) + 2 u x (u x t)
    cx = 2.0 * (ay * tz - az * ty)
    cy = 2.0 * (az * tx - ax * tz)
    cz = 2.0 * (ax * ty - ay * tx)
    return (np.array([w * inv, x * inv, y * inv, z * inv]),
            np.array([float(p[0]) + (tx + aw * cx + ay * cz - az * cy),
                      float(p[1]) + (ty + aw * cy + az * cx - ax * cz),
                      float(p[2]) + (tz + aw * cz + ax * cy - ay * cx)]))


def _qp_lyap_raw(q, p, xi, gr, gp, kinv_r, kinv_p, kinv_r_diag=None, kinv_p_diag=None):
    v1 = _rot_energy(q, gr, xi[:3], kinv_r, kinv_r_diag)
    d = gp - p
    v2 = 0.5 * float(d @ d) + _quad_energy(float(xi[3]), float(xi[4]), float(xi[5]),
                                           kinv_p, kinv_p_diag)
    return v1 + v2, v1, v2


def reference_dq_rollout(model, dq0=None, xi0=None, dt=0.01, duration=None,
                         goal_override=None, tau_override=None, t_start=0.0):
    tau = float(tau_override) if tau_override is not None else model.tau
    goal = goal_override if goal_override is not None else model.dqd
    if duration is None:
        duration = 1.5 * tau
    start = dq0 if dq0 is not None else model.dq0
    xi = np.zeros(6) if xi0 is None else np.asarray(xi0, dtype=float).copy()
    n = int(round(duration / dt))
    ts = t_start + np.arange(n + 1) * dt
    xs = phase(ts, model.basis.alpha_x, tau)
    out_dq = np.empty((n + 1, 8))
    out_xi = np.empty((n + 1, 6))
    out_f = np.empty((n + 1, 6))
    out_e = np.empty((n + 1, 6))
    out_l = np.empty((n + 1, 3))
    q, p = start.real.copy(), dq_to_pose(start).position
    gr, gp = goal.real, dq_to_pose(goal).position
    rt = quat_to_rotmat(gr).T
    K_r, K_p, D_r, D_p = model.k_rot, model.k_pos, model.d_rot, model.d_pos
    kinv_r, kinv_p = np.linalg.inv(K_r), np.linalg.inv(K_p)
    K6 = _diag_gains(K_r, K_p)
    D6 = _diag_gains(D_r, D_p)
    diag = K6 is not None and D6 is not None
    kinv_r_diag = tuple(np.diag(kinv_r)) if _diag_gains(K_r) is not None else None
    kinv_p_diag = tuple(np.diag(kinv_p)) if _diag_gains(K_p) is not None else None
    W = model.weights
    basis = model.basis
    forcing_active = bool(np.any(W))
    zero6 = np.zeros(6)
    e0 = _qp_error_raw(model.dq0.real, dq_to_pose(model.dq0).position, gr, gp, rt)
    half = dt / (2.0 * tau)
    dt_tau = dt / tau
    out_dq[0] = start.as_array()
    out_xi[0] = xi
    out_l[0] = _qp_lyap_raw(q, p, xi, gr, gp, kinv_r, kinv_p, kinv_r_diag, kinv_p_diag)
    for k in range(n):
        e = _qp_error_raw(q, p, gr, gp, rt)
        f = forcing_rows(xs[k], basis, W) if forcing_active else zero6
        out_e[k], out_f[k] = e, f
        u = e - e0 * xs[k] + f
        if diag:
            xi = xi + dt_tau * (K6 * u - D6 * xi)
        else:
            rhs = np.empty(6)
            rhs[:3] = K_r @ u[:3] - D_r @ xi[:3]
            rhs[3:] = K_p @ u[3:] - D_p @ xi[3:]
            xi = xi + dt_tau * rhs
        q, p = _qp_step_raw(q, p, half * xi[:3], half * xi[3:])
        out_dq[k + 1] = dq_from_pose(Pose(p, q)).as_array()
        out_xi[k + 1] = xi
        out_l[k + 1] = _qp_lyap_raw(q, p, xi, gr, gp, kinv_r, kinv_p,
                                    kinv_r_diag, kinv_p_diag)
    out_e[n] = _qp_error_raw(q, p, gr, gp, rt)
    out_f[n] = forcing_rows(xs[n], basis, W)
    return dict(t=ts, x=xs, dq=out_dq, xi=out_xi, forcing=out_f, error=out_e,
                lyap=out_l)


# -- cases -----------------------------------------------------------------------


def spd(rng, scale):
    a = rng.normal(size=(3, 3))
    return scale * (np.eye(3) + 0.3 * (a @ a.T) / 3.0)


def gains(rng, full):
    """(K, D): diagonal with distinct entries, or full symmetric positive definite."""
    if full:
        return spd(rng, 9.0), spd(rng, 6.0)
    return np.diag(rng.uniform(4.0, 16.0, size=3)), np.diag(rng.uniform(4.0, 10.0, size=3))


def weights(rng, dims, forced):
    return rng.normal(scale=2.0, size=(dims, 30)) if forced else np.zeros((dims, 30))


def assert_states(got, want, names, full):
    for name in names:
        a, b = getattr(got, name), want[name]
        if full:
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=name)
        else:
            assert np.array_equal(a, b), name


CASES = [(full, forced) for full in (False, True) for forced in (False, True)]


@pytest.mark.parametrize("frame", [BODY])
@pytest.mark.parametrize("full,forced", CASES)
def test_quat_rollout_matches_reference(rng, frame, full, forced):
    K, D = gains(rng, full)
    m = QuaternionDmp(frame, K, D, BASIS, weights(rng, 3, forced),
                      random_unit_quat(rng), random_unit_quat(rng), 1.3)
    omega0 = rng.normal(size=3)
    goal = random_unit_quat(rng)
    runs = [
        dict(dt=0.01, duration=3.0),
        dict(omega0=omega0, dt=0.005, duration=2.0),
        dict(dt=0.01, duration=2.0, goal_override=goal, tau_override=2.1),
    ]
    for kw in runs:
        got, want = quat_rollout(m, **kw), reference_quat_rollout(m, **kw)
        assert_states(got, want, ("t", "x", "q", "omega", "forcing", "error"), full)
        np.testing.assert_allclose(got.v1, want["v1"], **ENERGY_TOL)
    # resume from a midpoint on the offset clock
    first = quat_rollout(m, dt=0.01, duration=1.0)
    kw = dict(q0=first.q[-1], omega0=first.omega[-1], dt=0.01, duration=1.0,
              t_start=1.0)
    got, want = quat_rollout(m, **kw), reference_quat_rollout(m, **kw)
    assert_states(got, want, ("t", "x", "q", "omega", "forcing", "error"), full)
    np.testing.assert_allclose(got.v1, want["v1"], **ENERGY_TOL)


@pytest.mark.parametrize("full,forced", CASES)
def test_dq_rollout_matches_reference(rng, full, forced):
    K_r, D_r = gains(rng, full)
    K_p, D_p = gains(rng, full)
    m = DualQuaternionDmp(K_r, K_p, D_r, D_p, BASIS, weights(rng, 6, forced),
                          random_unit_dq(rng), random_unit_dq(rng), 1.3)
    xi0 = np.concatenate([random_rotvec(rng, 1.0), rng.normal(size=3)])
    goal = random_unit_dq(rng)
    runs = [
        dict(dt=0.01, duration=3.0),
        dict(xi0=xi0, dt=0.005, duration=2.0),
        dict(dt=0.01, duration=2.0, goal_override=goal, tau_override=2.1),
    ]
    for kw in runs:
        got, want = dq_rollout(m, **kw), reference_dq_rollout(m, **kw)
        assert_states(got, want, ("t", "x", "dq", "xi", "forcing", "error"), full)
        np.testing.assert_allclose(got.lyap, want["lyap"], **ENERGY_TOL)
    first = dq_rollout(m, dt=0.01, duration=1.0)
    end = DualQuaternion(first.dq[-1, :4].copy(), first.dq[-1, 4:].copy())
    kw = dict(dq0=end, xi0=first.xi[-1], dt=0.01, duration=1.0, t_start=1.0)
    got, want = dq_rollout(m, **kw), reference_dq_rollout(m, **kw)
    assert_states(got, want, ("t", "x", "dq", "xi", "forcing", "error"), full)
    np.testing.assert_allclose(got.lyap, want["lyap"], **ENERGY_TOL)



# -- the float loop against the reference: bit-exact cases --------------------------


K_ROT, D_ROT = np.diag([3.0, 7.0, 13.0]), np.diag([4.0, 6.5, 9.0])
K_POS, D_POS = np.diag([20.0, 11.0, 5.0]), np.diag([12.0, 8.0, 3.5])


@pytest.mark.parametrize("forced", [False, True])
def test_dq_distinct_rotation_and_translation_blocks_bit_exact(rng, forced):
    m = DualQuaternionDmp(K_ROT, K_POS, D_ROT, D_POS, BASIS, weights(rng, 6, forced),
                          random_unit_dq(rng), random_unit_dq(rng), 1.1)
    xi0 = np.concatenate([random_rotvec(rng, 1.0), rng.normal(size=3)])
    for kw in (dict(dt=0.01, duration=2.5), dict(xi0=xi0, dt=0.004, duration=1.0)):
        got, want = dq_rollout(m, **kw), reference_dq_rollout(m, **kw)
        assert_states(got, want, ("t", "x", "dq", "xi", "forcing", "error"), False)


@pytest.mark.parametrize("frame", [BODY])
def test_quat_distinct_per_axis_gains_bit_exact(rng, frame):
    m = QuaternionDmp(frame, K_ROT, D_ROT, BASIS, weights(rng, 3, True),
                      random_unit_quat(rng), random_unit_quat(rng), 0.9)
    kw = dict(omega0=rng.normal(size=3), dt=0.01, duration=2.0)
    got, want = quat_rollout(m, **kw), reference_quat_rollout(m, **kw)
    assert_states(got, want, ("t", "x", "q", "omega", "forcing", "error"), False)


def test_forced_rollouts_past_1024_steps_bit_exact(rng):
    kw = dict(dt=0.002, duration=3.0)  # 1,500 steps
    m = DualQuaternionDmp(K_ROT, K_POS, D_ROT, D_POS, BASIS, weights(rng, 6, True),
                          random_unit_dq(rng), random_unit_dq(rng), 1.7)
    got, want = dq_rollout(m, **kw), reference_dq_rollout(m, **kw)
    assert len(got.t) > 1025
    assert_states(got, want, ("t", "x", "dq", "xi", "forcing", "error"), False)
    q = QuaternionDmp(BODY, K_POS, D_POS, BASIS, weights(rng, 3, True),
                      random_unit_quat(rng), random_unit_quat(rng), 1.7)
    got, want = quat_rollout(q, **kw), reference_quat_rollout(q, **kw)
    assert_states(got, want, ("t", "x", "q", "omega", "forcing", "error"), False)


# -- the benchmark's rollout-many shape: bit-exact ---------------------------------
# K = 625 I, D = 250 I, tau = 1, dt = 0.0035 over 10 s: 2857 steps.  The
# reference loops take sin / cos from numpy, the driver from math, so these
# also fail on a platform where the two disagree.

BENCH_K, BENCH_D = 625.0 * np.eye(3), 250.0 * np.eye(3)
BENCH_RUN = dict(dt=0.0035, duration=10.0)


@pytest.mark.parametrize("forced", [False, True])
def test_dq_rollout_at_the_benchmark_shape_bit_exact(rng, forced):
    m = DualQuaternionDmp(BENCH_K, BENCH_K, BENCH_D, BENCH_D, BASIS,
                          weights(rng, 6, forced), random_unit_dq(rng),
                          random_unit_dq(rng), 1.0)
    got, want = dq_rollout(m, **BENCH_RUN), reference_dq_rollout(m, **BENCH_RUN)
    assert len(got.t) == 2858
    assert_states(got, want, ("t", "x", "dq", "xi", "forcing", "error"), False)


@pytest.mark.parametrize("frame", [BODY])
@pytest.mark.parametrize("forced", [False, True])
def test_quat_rollout_at_the_benchmark_shape_bit_exact(rng, frame, forced):
    m = QuaternionDmp(frame, BENCH_K, BENCH_D, BASIS, weights(rng, 3, forced),
                      random_unit_quat(rng), random_unit_quat(rng), 1.0)
    got, want = quat_rollout(m, **BENCH_RUN), reference_quat_rollout(m, **BENCH_RUN)
    assert len(got.t) == 2858
    assert_states(got, want, ("t", "x", "q", "omega", "forcing", "error"), False)


# -- the (q, p) loop against the dual-quaternion loop it replaced -----------------
# Same math, other state: the rotation error and step are the same float
# operations, so the quaternions (and the rotation twist) stay bit for bit;
# the translation, now R(q_d)^T (p_d - p) and p + R(q) t, moves by rounding.

_TILT = np.array([0.9, 0.3, -0.2, 0.25]) / np.linalg.norm([0.9, 0.3, -0.2, 0.25])
_MOUNT = np.array([0.8, -0.1, 0.5, 0.3]) / np.linalg.norm([0.8, -0.1, 0.5, 0.3])


def _loop_case(tilted):
    """The 50 m reference loop's dq model, as criterion 5 trains and rolls it,
    on the loop itself or on it tilted, body-mounted and moved by
    (300, -200, 50) m."""
    loop = gen_somersault(50.0, 18.9, 0.01)
    if tilted:
        loop = Trajectory(loop.t, quat_rotate(_TILT, loop.positions) + [300.0, -200.0, 50.0],
                          quat_product(quat_product(_TILT, loop.quaternions), _MOUNT))
    T = loop.duration
    m = dq_train(loop, T, 1.0, 1.0, 10.0, 10.0, basis_scheme_a(30, 0.05))
    return m, dict(xi0=loop.derived().xi[0] * T, dt=loop.dt, duration=T)


def _bench_case(rng, forced):
    m = DualQuaternionDmp(BENCH_K, BENCH_K, BENCH_D, BENCH_D, BASIS,
                          weights(rng, 6, forced), random_unit_dq(rng),
                          random_unit_dq(rng), 1.0)
    return m, BENCH_RUN


@pytest.mark.parametrize("case", ["loop", "tilted_offset_loop", "bench_unforced",
                                  "bench_forced"])
def test_dq_rollout_is_the_dual_quaternion_loop(rng, case):
    m, kw = (_loop_case(case == "tilted_offset_loop") if "loop" in case
             else _bench_case(rng, case == "bench_forced"))
    got, want = dq_rollout(m, **kw), dual_quaternion_loop(m, **kw)
    assert np.array_equal(got.dq[:, :4], want["dq"][:, :4])
    assert np.array_equal(got.xi[:, :3], want["xi"][:, :3])
    positions = got.poses()[0]
    want_positions = np.array([dq_to_pose(DualQuaternion(d[:4], d[4:])).position
                               for d in want["dq"]])
    scale = np.max(np.abs(want_positions))
    assert np.max(np.abs(positions - want_positions)) <= 1e-9 * scale
    assert np.max(np.abs(got.xi - want["xi"])) <= 1e-9 * np.max(np.abs(want["xi"]))
