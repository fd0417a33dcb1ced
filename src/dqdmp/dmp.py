"""Dynamic motion primitives: scalar, quaternion and dual-quaternion variants.

All three share the same structure: a goal attractor (spring-damper on a
pose error), a phase-gated learned forcing term, and the clock
x = exp(-alpha_x t / tau).  The internal velocity states are the
tau-scaled ones of the governing dynamics (z = tau ydot,
omega_state = tau omega, xi_state = tau xi), which makes every rollout
exactly covariant under time rescaling: doubling tau and dt reproduces the
same discrete path on a stretched clock.

Integration is semi-implicit Euler: the velocity state steps first, then
the pose advances by the exact exponential step with the new velocity.
The pose never leaves its manifold (unit norms are re-enforced each step)
and, for the rotational states, the discrete step inherits the
monotonically decreasing rotational energy of the continuous dynamics.

Training inverts the dynamics along a demonstration to per-sample forcing
targets, one array expression per stage over the whole demonstration, and
fits kernel weights per output dimension by least squares, all dimensions
sharing one phase and one design matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .canonical import (
    GaussianBasis,
    basis_scheme_a,
    fit_weights,
    forcing_rows,
    phase,
)
from .dualquat import (
    BODY,
    DualQuaternion,
    Pose,
    Twist,
    dq_error,
    dq_from_pose,
    dq_position,
    dq_to_pose,
)
from .quat import (
    quat_conjugate,
    quat_normalize,
    quat_product,
    quat_rotate,
    quat_vec,
)
from .traj import ScalarDemo, Trajectory

INERTIAL = "inertial"


def _gain_matrix(g) -> np.ndarray:
    """Promote a scalar gain to gain * I; validate positive definiteness."""
    g = np.asarray(g, dtype=float)
    if g.ndim == 0:
        g = float(g) * np.eye(3)
    if g.shape != (3, 3):
        raise ValueError("gains must be scalars or 3x3 matrices")
    if not np.allclose(g, g.T, atol=1e-12) or np.any(np.linalg.eigvalsh(g) <= 0.0):
        raise ValueError("gain matrices must be symmetric positive definite")
    return g


# ---------------------------------------------------------------------------
# models


@dataclass(frozen=True)
class ClassicalDmp:
    """Scalar second-order attractor with learned forcing."""

    alpha_z: float
    beta_z: float
    basis: GaussianBasis
    weights: np.ndarray          # (N,)
    y0: float
    goal: float
    tau: float


@dataclass(frozen=True)
class QuaternionDmp:
    """Orientation primitive; frame selects the angular-velocity convention.

    In the body frame the error is vec(q* (x) q_d) and the pose steps on
    the right; in the inertial frame the error is vec(q_d (x) q*) and the
    pose steps on the left.
    """

    frame: str
    k_gain: np.ndarray           # (3, 3)
    d_gain: np.ndarray           # (3, 3)
    basis: GaussianBasis
    weights: np.ndarray          # (3, N)
    q0: np.ndarray               # (4,)
    qd: np.ndarray               # (4,)
    tau: float


@dataclass(frozen=True)
class DualQuaternionDmp:
    """Coupled pose primitive over unit dual quaternions (body frame)."""

    k_rot: np.ndarray            # (3, 3)
    k_pos: np.ndarray            # (3, 3)
    d_rot: np.ndarray            # (3, 3)
    d_pos: np.ndarray            # (3, 3)
    basis: GaussianBasis
    weights: np.ndarray          # (6, N)
    dq0: DualQuaternion
    dqd: DualQuaternion
    tau: float


@dataclass(frozen=True)
class PoseDecoupledDmp:
    """Baseline: three scalar position primitives plus an orientation
    primitive, coupled only through the shared phase."""

    position: tuple[ClassicalDmp, ClassicalDmp, ClassicalDmp]
    orientation: QuaternionDmp


# ---------------------------------------------------------------------------
# classical variant


def classical_target_forcing(demo: ScalarDemo, g: float, tau: float,
                             alpha_z: float, beta_z: float) -> np.ndarray:
    """Forcing targets tau^2 ydd - alpha_z (beta_z (g - y) - tau yd)."""
    return (tau**2 * demo.ydd
            - alpha_z * (beta_z * (g - demo.y) - tau * demo.yd))


def classical_train(demo: ScalarDemo, g: float, tau: float, alpha_z: float,
                    beta_z: float, basis: GaussianBasis) -> ClassicalDmp:
    fd = classical_target_forcing(demo, g, tau, alpha_z, beta_z)
    xs = phase(demo.t, basis.alpha_x, tau)
    w, _ = fit_weights(xs, fd, basis)
    return ClassicalDmp(alpha_z, beta_z, basis, w,
                        float(demo.y[0]), float(g), float(tau))


@dataclass(frozen=True)
class ClassicalRollout:
    """Row k holds the state at t[k]; z is the tau-scaled velocity."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    forcing: np.ndarray


def classical_rollout(model: ClassicalDmp, y0: float, dt: float,
                      duration: float | None = None, z0: float = 0.0,
                      t_start: float = 0.0) -> ClassicalRollout:
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if duration is None:
        duration = 1.5 * model.tau
    n = int(round(duration / dt))
    ts = t_start + np.arange(n + 1) * dt
    xs = phase(ts, model.basis.alpha_x, model.tau)
    y = np.empty(n + 1)
    z = np.empty(n + 1)
    f = np.empty(n + 1)
    yk, zk = float(y0), float(z0)
    y[0], z[0] = yk, zk
    az, bz, g, tau = model.alpha_z, model.beta_z, model.goal, model.tau
    w = model.weights[None, :]
    forcing_active = bool(np.any(w))
    for k in range(n):
        fk = float(forcing_rows(xs[k], model.basis, w)[0]) if forcing_active else 0.0
        f[k] = fk
        zk += dt * (az * (bz * (g - yk) - zk) + fk) / tau
        yk += dt * zk / tau
        y[k + 1], z[k + 1] = yk, zk
    f[n] = float(forcing_rows(xs[n], model.basis, w)[0]) if forcing_active else 0.0
    return ClassicalRollout(ts, xs, y, z, f)


# ---------------------------------------------------------------------------
# quaternion variant


def _quat_error(q: np.ndarray, qd: np.ndarray, frame: str) -> np.ndarray:
    """Rotation error of q (single or (n, 4) stack) against the goal qd."""
    if frame == BODY:
        return quat_vec(quat_product(quat_conjugate(q), qd))
    return quat_vec(quat_product(qd, quat_conjugate(q)))


def quat_target_forcing(quats: np.ndarray, omega: np.ndarray,
                        omega_dot: np.ndarray, xs: np.ndarray,
                        qd: np.ndarray, q0: np.ndarray, tau: float,
                        k_gain: np.ndarray, d_gain: np.ndarray,
                        frame: str) -> np.ndarray:
    """Per-sample forcing targets for the orientation primitive.

    omega and omega_dot must be expressed in the model frame;
    f_d = K^-1 (tau^2 omega_dot + tau D omega) - e + e_start * x.
    """
    kinv = np.linalg.inv(k_gain)
    e0 = _quat_error(q0, qd, frame)
    e = _quat_error(quats, qd, frame)
    drive = tau**2 * omega_dot + omega @ (tau * d_gain).T
    return drive @ kinv.T - e + e0 * xs[:, None]


def model_frame_rates(traj: Trajectory, frame: str) -> tuple[np.ndarray, np.ndarray]:
    """Demonstrated angular rate and its derivative in the model frame."""
    der = traj.derived()
    omega, omega_dot = der.omega_b, np.gradient(der.omega_b, traj.dt, axis=0,
                                                edge_order=2)
    if frame == INERTIAL:
        # omega_s = R omega_b; the transport term R(omega x omega) vanishes
        omega = quat_rotate(traj.quaternions, omega)
        omega_dot = quat_rotate(traj.quaternions, omega_dot)
    return omega, omega_dot


def quat_train(traj: Trajectory, tau: float, k_gain, d_gain,
               basis: GaussianBasis, frame: str = BODY) -> QuaternionDmp:
    """Fit the orientation primitive to a demonstration's attitude track."""
    if frame not in (BODY, INERTIAL):
        raise ValueError(f"unknown frame {frame!r}")
    k_gain = _gain_matrix(k_gain)
    d_gain = _gain_matrix(d_gain)
    omega, omega_dot = model_frame_rates(traj, frame)
    xs = phase(traj.t, basis.alpha_x, tau)
    q0, qd = traj.quaternions[0], traj.quaternions[-1]
    fd = quat_target_forcing(traj.quaternions, omega, omega_dot, xs, qd, q0,
                             tau, k_gain, d_gain, frame)
    weights, _ = fit_weights(xs, fd, basis)
    return QuaternionDmp(frame, k_gain, d_gain, basis, weights,
                         q0.copy(), qd.copy(), float(tau))


@dataclass(frozen=True)
class QuatRollout:
    """Row k holds the state at t[k]; omega is the tau-scaled rate whose
    value drove the step into sample k."""

    t: np.ndarray
    x: np.ndarray
    q: np.ndarray        # (n, 4)
    omega: np.ndarray    # (n, 3)
    forcing: np.ndarray  # (n, 3)
    error: np.ndarray    # (n, 3)
    v1: np.ndarray       # rotational energy diagnostic


def quat_rollout(model: QuaternionDmp, q0: np.ndarray | None = None,
                 omega0: np.ndarray | None = None, dt: float = 0.01,
                 duration: float | None = None,
                 goal_override: np.ndarray | None = None,
                 tau_override: float | None = None,
                 t_start: float = 0.0) -> QuatRollout:
    if dt <= 0.0:
        raise ValueError("dt must be positive")
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
    e0 = _quat_error(model.q0, qd, model.frame)
    body = model.frame == BODY
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
        e = _quat_error_raw(q, qd, body)
        f = forcing_rows(xs[k], model.basis, W) if forcing_active else zero3
        out_e[k], out_f[k] = e, f
        u = e - e0 * xs[k] + f
        if diag:
            om = om + dt_tau * (K3 * u - D3 * om)
        else:
            om = om + dt_tau * (K @ u - D @ om)
        q = _quat_step_raw(q, half * om, body)
        out_q[k + 1], out_om[k + 1] = q, om
        out_v1[k + 1] = _rot_energy(q, qd, om, kinv, kinv_diag)
    out_e[n] = _quat_error(q, qd, model.frame)
    out_f[n] = forcing_rows(xs[n], model.basis, W)
    return QuatRollout(ts, xs, out_q, out_om, out_f, out_e, out_v1)


def _rot_energy(q: np.ndarray, qd: np.ndarray, omega: np.ndarray,
                kinv: np.ndarray, kinv_diag=None) -> float:
    d = qd - q
    return float(d @ d) + _quad_energy(float(omega[0]), float(omega[1]),
                                       float(omega[2]), kinv, kinv_diag)


def _quat_error_raw(q: np.ndarray, qd: np.ndarray, body: bool) -> np.ndarray:
    """_quat_error on plain floats (hot path)."""
    aw, ax, ay, az = float(q[0]), float(q[1]), float(q[2]), float(q[3])
    bw, bx, by, bz = float(qd[0]), float(qd[1]), float(qd[2]), float(qd[3])
    if body:
        _, ex, ey, ez = _conj_product(aw, ax, ay, az, bw, bx, by, bz)
    else:
        # vec(qd (x) q*) = -vec(q (x) qd*) = -vec(conj(conj(q)) ...) --
        # expand qd (x) conj(q) directly
        _, ex, ey, ez = _product(bw, bx, by, bz, aw, -ax, -ay, -az)
    return np.array([ex, ey, ez])


def _quat_step_raw(q: np.ndarray, zr: np.ndarray, body: bool) -> np.ndarray:
    """normalize(q (x) exp(z)) (or exp(z) (x) q) on plain floats (hot path)."""
    rx, ry, rz = float(zr[0]), float(zr[1]), float(zr[2])
    th = (rx * rx + ry * ry + rz * rz) ** 0.5
    if th < 1e-12:
        sw, sx, sy, sz = 1.0, rx, ry, rz
    else:
        st = np.sin(th) / th
        sw, sx, sy, sz = np.cos(th), st * rx, st * ry, st * rz
    aw, ax, ay, az = float(q[0]), float(q[1]), float(q[2]), float(q[3])
    if body:
        w, x, y, z = _product(aw, ax, ay, az, sw, sx, sy, sz)
    else:
        w, x, y, z = _product(sw, sx, sy, sz, aw, ax, ay, az)
    inv = 1.0 / (w * w + x * x + y * y + z * z) ** 0.5
    return np.array([w * inv, x * inv, y * inv, z * inv])


# ---------------------------------------------------------------------------
# dual quaternion variant


def dq_target_forcing(dqs: np.ndarray, xi: np.ndarray,
                      xi_dot: np.ndarray, xs: np.ndarray,
                      dqd: DualQuaternion, dq0: DualQuaternion, tau: float,
                      k_rot: np.ndarray, k_pos: np.ndarray,
                      d_rot: np.ndarray, d_pos: np.ndarray) -> np.ndarray:
    """Per-sample 6-vector forcing targets for the coupled pose primitive.

    dqs is the (n, 8) stack of demonstrated poses [real, dual]; xi / xi_dot
    are the demonstration's body twist and twist rate in real time;
    f_d = K^-1 (tau^2 xi_dot + tau D xi) - e + e_start * x.
    """
    kinv_r, kinv_p = np.linalg.inv(k_rot), np.linalg.inv(k_pos)
    e0 = dq_error(dq0, dqd)
    e = dq_error(DualQuaternion(dqs[:, :4], dqs[:, 4:]), dqd)
    drive_r = tau**2 * xi_dot[:, :3] + xi[:, :3] @ (tau * d_rot).T
    drive_p = tau**2 * xi_dot[:, 3:] + xi[:, 3:] @ (tau * d_pos).T
    drive = np.concatenate([drive_r @ kinv_r.T, drive_p @ kinv_p.T], axis=1)
    return drive - e + e0 * xs[:, None]


def dq_train(traj: Trajectory, tau: float, k_rot, k_pos, d_rot, d_pos,
             basis: GaussianBasis) -> DualQuaternionDmp:
    """Fit the coupled pose primitive to a demonstration.

    Six independent weight fits against the shared phase; boundary poses
    are the demonstration endpoints.
    """
    k_rot, k_pos = _gain_matrix(k_rot), _gain_matrix(k_pos)
    d_rot, d_pos = _gain_matrix(d_rot), _gain_matrix(d_pos)
    der = traj.derived()
    dqs = dq_from_pose(Pose(traj.positions, traj.quaternions)).as_array()
    start = DualQuaternion(dqs[0, :4], dqs[0, 4:])
    goal = DualQuaternion(dqs[-1, :4], dqs[-1, 4:])
    xs = phase(traj.t, basis.alpha_x, tau)
    fd = dq_target_forcing(dqs, der.xi, der.xi_dot, xs, goal, start, tau,
                           k_rot, k_pos, d_rot, d_pos)
    weights, _ = fit_weights(xs, fd, basis)
    return DualQuaternionDmp(k_rot, k_pos, d_rot, d_pos, basis, weights,
                             start, goal, float(tau))


def lyapunov_value(dq: DualQuaternion, xi, dqd: DualQuaternion,
                   k_rot, k_pos) -> tuple[float, float, float]:
    """Energy diagnostic (V, V1, V2) of a pose state relative to a goal.

    V1 is the rotational part (quaternion chordal distance squared plus
    rate energy through K_rot^-1); V2 pairs the inertial position error
    with the linear-rate energy through K_pos^-1.  Nonnegative; zero only
    at the goal with zero twist.  Along unforced rollouts V1 is
    non-increasing; V is convergent but not monotone (the rotation-
    translation coupling term is sign-indefinite).
    """
    xi = xi.as_array() if isinstance(xi, Twist) else np.asarray(xi, dtype=float)
    k_rot, k_pos = _gain_matrix(k_rot), _gain_matrix(k_pos)
    d = dqd.real - dq.real
    v1 = float(d @ d + 0.5 * xi[:3] @ np.linalg.solve(k_rot, xi[:3]))
    p = dq_to_pose(dq).position
    pd = dq_to_pose(dqd).position
    dp = pd - p
    v2 = float(0.5 * dp @ dp + 0.5 * xi[3:] @ np.linalg.solve(k_pos, xi[3:]))
    return v1 + v2, v1, v2


@dataclass(frozen=True)
class DqRollout:
    """Row k holds the state at t[k].

    xi is the tau-scaled twist state whose value drove the step into
    sample k; the physical twist is xi / tau.  lyap columns are (V, V1, V2)
    relative to the effective goal.
    """

    t: np.ndarray
    x: np.ndarray
    dq: np.ndarray       # (n, 8) flattened [real, dual]
    xi: np.ndarray       # (n, 6)
    forcing: np.ndarray  # (n, 6)
    error: np.ndarray    # (n, 6)
    lyap: np.ndarray     # (n, 3)

    def poses(self) -> tuple[np.ndarray, np.ndarray]:
        """(positions (n,3), quaternions (n,4)) extracted from the states."""
        return (dq_position(DualQuaternion(self.dq[:, :4], self.dq[:, 4:])),
                self.dq[:, :4].copy())


def dq_rollout(model: DualQuaternionDmp, dq0: DualQuaternion | None = None,
               xi0=None, dt: float = 0.01, duration: float | None = None,
               goal_override: DualQuaternion | None = None,
               tau_override: float | None = None,
               t_start: float = 0.0) -> DqRollout:
    """Integrate the coupled pose primitive.

    Semi-implicit Euler on the twist state followed by the exact
    exponential pose step; unit constraints re-enforced every step.
    goal_override retargets the attractor (and the start-error shaping
    term) without retraining; tau_override rescales time.  t_start offsets
    the clock so a rollout can be resumed from a previous endpoint.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    tau = float(tau_override) if tau_override is not None else model.tau
    goal = goal_override if goal_override is not None else model.dqd
    if duration is None:
        duration = 1.5 * tau
    start = dq0 if dq0 is not None else model.dq0
    if xi0 is None:
        xi = np.zeros(6)
    elif isinstance(xi0, Twist):
        if xi0.frame != BODY:
            raise ValueError("dq_rollout expects a body-frame start twist")
        xi = xi0.as_array()
    else:
        xi = np.asarray(xi0, dtype=float).copy()

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
    # start-error shaping anchored at the trained start pose: the term is
    # part of the learned model, so resuming or restarting elsewhere must
    # not change the vector field
    e0 = _dq_error_raw(model.dq0.real, model.dq0.dual, gr, gd)
    half = dt / (2.0 * tau)
    dt_tau = dt / tau

    out_dq[0, :4], out_dq[0, 4:] = qr, qd_
    out_xi[0] = xi
    out_l[0] = _lyap_raw(qr, qd_, xi, gr, gp, kinv_r, kinv_p,
                         kinv_r_diag, kinv_p_diag)
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
    return DqRollout(ts, xs, out_dq, out_xi, out_f, out_e, out_l)


def _conj_product(aw, ax, ay, az, bw, bx, by, bz):
    """Components of conj(a) (x) b on plain floats (hot path)."""
    return (aw * bw + ax * bx + ay * by + az * bz,
            aw * bx - bw * ax - ay * bz + az * by,
            aw * by - bw * ay - az * bx + ax * bz,
            aw * bz - bw * az - ax * by + ay * bx)


def _product(aw, ax, ay, az, bw, bx, by, bz):
    """Components of a (x) b on plain floats (hot path)."""
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + bw * ax + ay * bz - az * by,
            aw * by + bw * ay + az * bx - ax * bz,
            aw * bz + bw * az + ax * by - ay * bx)


def _diag_gains(*mats) -> np.ndarray | None:
    """Stacked diagonal of gain matrices, or None if any is non-diagonal."""
    diags = []
    for m in mats:
        if np.any(m != np.diag(np.diag(m))):
            return None
        diags.append(np.diag(m))
    return np.concatenate(diags)


def _dq_step_raw(qr, qd_, zr, zv) -> tuple[np.ndarray, np.ndarray]:
    """One exact exponential pose step (hot path).

    Computes normalize(q_hat (x) exp(z)) for the half-step twist
    displacement z = (zr, zv) on plain floats.
    """
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
    # re-enforce the unit constraints
    inv = 1.0 / (rw2 * rw2 + rx2 * rx2 + ry2 * ry2 + rz2 * rz2) ** 0.5
    rw2, rx2, ry2, rz2 = rw2 * inv, rx2 * inv, ry2 * inv, rz2 * inv
    dw2, dx2, dy2, dz2 = dw2 * inv, dx2 * inv, dy2 * inv, dz2 * inv
    dot = rw2 * dw2 + rx2 * dx2 + ry2 * dy2 + rz2 * dz2
    return (np.array([rw2, rx2, ry2, rz2]),
            np.array([dw2 - dot * rw2, dx2 - dot * rx2,
                      dy2 - dot * ry2, dz2 - dot * rz2]))


def _dq_error_raw(qr, qd_, gr, gd) -> np.ndarray:
    """dq_error on bare arrays (hot path): [vec(q_oe), vec(p_e)]."""
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


def _quad_energy(u0, u1, u2, kinv, kinv_diag) -> float:
    """0.5 u^T K^-1 u with a float fast path for diagonal gains."""
    if kinv_diag is not None:
        return 0.5 * (u0 * u0 * kinv_diag[0] + u1 * u1 * kinv_diag[1]
                      + u2 * u2 * kinv_diag[2])
    u = np.array([u0, u1, u2])
    return 0.5 * float(u @ (kinv @ u))


def _lyap_raw(qr, qd_, xi, gr, gp, kinv_r, kinv_p,
              kinv_r_diag=None, kinv_p_diag=None) -> tuple[float, float, float]:
    """(V, V1, V2) on bare arrays (hot path)."""
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
    # p_s = R(qr) @ (2 p_b-half): rotate via the expanded double cross
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


# ---------------------------------------------------------------------------
# pose-decoupled baseline


def pose_train(traj: Trajectory, tau: float, alpha_x: float,
               n_pos_kernels: int, k_pos: float, d_pos: float,
               n_rot_kernels: int, k_rot, d_rot) -> PoseDecoupledDmp:
    """Train the decoupled baseline: per-axis scalar primitives on the
    inertial position plus a body-frame orientation primitive.

    The scalar attractor is parameterized by stiffness/damping through
    alpha_z = d_pos, beta_z = k_pos / d_pos (so alpha_z beta_z = k_pos).
    """
    pos_basis = basis_scheme_a(n_pos_kernels, alpha_x)
    rot_basis = basis_scheme_a(n_rot_kernels, alpha_x)
    alpha_z = float(d_pos)
    beta_z = float(k_pos) / float(d_pos)
    vel = np.gradient(traj.positions, traj.dt, axis=0, edge_order=2)
    acc = np.gradient(vel, traj.dt, axis=0, edge_order=2)
    # the three axes as one (n, 3) scalar demo: one design matrix for all
    y0, g = traj.positions[0], traj.positions[-1]
    fd = classical_target_forcing(ScalarDemo(traj.t, traj.positions, vel, acc),
                                  g, tau, alpha_z, beta_z)
    weights, _ = fit_weights(phase(traj.t, pos_basis.alpha_x, tau), fd, pos_basis)
    axes = tuple(ClassicalDmp(alpha_z, beta_z, pos_basis, weights[dim],
                              float(y0[dim]), float(g[dim]), float(tau))
                 for dim in range(3))
    orientation = quat_train(traj, tau, k_rot, d_rot, rot_basis, frame=BODY)
    return PoseDecoupledDmp(axes, orientation)


@dataclass(frozen=True)
class PoseRollout:
    t: np.ndarray
    x: np.ndarray
    positions: np.ndarray   # (n, 3)
    velocities: np.ndarray  # (n, 3) physical inertial velocity
    q: np.ndarray           # (n, 4)
    omega: np.ndarray       # (n, 3) tau-scaled body rate state


def pose_rollout(model: PoseDecoupledDmp, dt: float, duration: float,
                 goal_position: np.ndarray | None = None,
                 goal_quat: np.ndarray | None = None,
                 tau_override: float | None = None) -> PoseRollout:
    """Roll the decoupled baseline; sub-systems share only the clock."""
    axes = model.position
    if goal_position is not None:
        axes = tuple(replace(m, goal=float(g))
                     for m, g in zip(axes, goal_position))
    if tau_override is not None:
        axes = tuple(replace(m, tau=float(tau_override)) for m in axes)
    rolls = [classical_rollout(m, m.y0, dt, duration) for m in axes]
    qroll = quat_rollout(model.orientation, dt=dt, duration=duration,
                         goal_override=goal_quat, tau_override=tau_override)
    tau = tau_override if tau_override is not None else model.orientation.tau
    positions = np.stack([r.y for r in rolls], axis=1)
    velocities = np.stack([r.z for r in rolls], axis=1) / tau
    return PoseRollout(rolls[0].t, rolls[0].x, positions, velocities,
                       qroll.q, qroll.omega)


# ---------------------------------------------------------------------------
# model files

_FORMAT_VERSION = 1


def _basis_doc(basis: GaussianBasis) -> dict:
    doc = {
        "scheme": basis.scheme,
        "alpha_x": basis.alpha_x,
        "n_kernels": basis.n_kernels,
        "centers": basis.centers.tolist(),
        "widths": basis.widths.tolist(),
    }
    if basis.scheme == "b":
        doc["total_time"] = basis.total_time
        doc["dt"] = basis.dt
    return doc


def _basis_from_doc(doc: dict) -> GaussianBasis:
    return GaussianBasis(doc["scheme"], doc["alpha_x"],
                         np.array(doc["centers"]), np.array(doc["widths"]),
                         total_time=doc.get("total_time"), dt=doc.get("dt"))


def _model_doc(model) -> dict:
    if isinstance(model, ClassicalDmp):
        return {
            "format_version": _FORMAT_VERSION,
            "variant": "classical",
            "frame": INERTIAL,
            "tau": model.tau,
            "gains": {"alpha_z": model.alpha_z, "beta_z": model.beta_z},
            "basis": _basis_doc(model.basis),
            "weights": [model.weights.tolist()],
            "boundary": {"y0": model.y0, "goal": model.goal},
        }
    if isinstance(model, QuaternionDmp):
        return {
            "format_version": _FORMAT_VERSION,
            "variant": "quaternion",
            "frame": model.frame,
            "tau": model.tau,
            "gains": {"k": model.k_gain.tolist(), "d": model.d_gain.tolist()},
            "basis": _basis_doc(model.basis),
            "weights": model.weights.tolist(),
            "boundary": {"q0": model.q0.tolist(), "qd": model.qd.tolist()},
        }
    if isinstance(model, DualQuaternionDmp):
        return {
            "format_version": _FORMAT_VERSION,
            "variant": "dual_quaternion",
            "frame": BODY,
            "tau": model.tau,
            "gains": {"k_rot": model.k_rot.tolist(), "k_pos": model.k_pos.tolist(),
                      "d_rot": model.d_rot.tolist(), "d_pos": model.d_pos.tolist()},
            "basis": _basis_doc(model.basis),
            "weights": model.weights.tolist(),
            "boundary": {"dq0": model.dq0.as_array().tolist(),
                         "dqd": model.dqd.as_array().tolist()},
        }
    if isinstance(model, PoseDecoupledDmp):
        return {
            "format_version": _FORMAT_VERSION,
            "variant": "pose_decoupled",
            "position": [_model_doc(m) for m in model.position],
            "orientation": _model_doc(model.orientation),
        }
    raise TypeError(f"cannot serialize {type(model).__name__}")


def _model_from_doc(doc: dict):
    version = doc.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    variant = doc["variant"]
    if variant == "pose_decoupled":
        return PoseDecoupledDmp(
            tuple(_model_from_doc(d) for d in doc["position"]),
            _model_from_doc(doc["orientation"]))
    basis = _basis_from_doc(doc["basis"])
    weights = np.array(doc["weights"])
    if variant == "classical":
        g = doc["gains"]
        b = doc["boundary"]
        return ClassicalDmp(g["alpha_z"], g["beta_z"], basis, weights[0],
                            b["y0"], b["goal"], doc["tau"])
    if variant == "quaternion":
        g = doc["gains"]
        b = doc["boundary"]
        return QuaternionDmp(doc["frame"], np.array(g["k"]), np.array(g["d"]),
                             basis, weights, np.array(b["q0"]),
                             np.array(b["qd"]), doc["tau"])
    if variant == "dual_quaternion":
        g = doc["gains"]
        b = doc["boundary"]
        dq0 = np.array(b["dq0"])
        dqd = np.array(b["dqd"])
        return DualQuaternionDmp(
            np.array(g["k_rot"]), np.array(g["k_pos"]),
            np.array(g["d_rot"]), np.array(g["d_pos"]), basis, weights,
            DualQuaternion(dq0[:4], dq0[4:]), DualQuaternion(dqd[:4], dqd[4:]),
            doc["tau"])
    raise ValueError(f"unknown model variant {variant!r}")


def save_model(model, sink) -> None:
    """Write a model as a self-describing JSON document.

    The rendering is canonical (sorted keys, repr-exact floats), so
    save -> load -> save reproduces the file byte for byte.
    """
    if isinstance(sink, (str, bytes)):
        with open(sink, "w", encoding="utf-8", newline="\n") as fh:
            save_model(model, fh)
        return
    json.dump(_model_doc(model), sink, indent=2, sort_keys=True)
    sink.write("\n")


def load_model(source):
    if isinstance(source, (str, bytes)):
        with open(source, "r", encoding="utf-8") as fh:
            return load_model(fh)
    return _model_from_doc(json.load(source))
