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
The quaternion and dual-quaternion rollouts run on one driver,
``_integrate``; each variant passes its (K, D) 3x3 gain blocks and its
error and pose step (component kernels of ``quat`` and ``dualquat``).  Its
loop over time makes no numpy call: plain floats, one float kernel per
gain block, states packed into preallocated arrays, the forcing grid from
before the loop and the finiteness check, error rows and energies after.
The scalar primitive keeps its own short float loop: its position step is
Euler, its forcing unscaled and it has no start-error term.

Training inverts the dynamics along a demonstration to per-sample forcing
targets, one array expression per stage over the whole demonstration, and
fits kernel weights per output dimension by least squares, all dimensions
sharing one phase and one design matrix.  A trained model keeps the
residual norms of that fit (fit_residuals); a loaded one has none.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from struct import Struct

import numpy as np

from .canonical import (
    GaussianBasis,
    basis_scheme_a,
    fit_weights,
    forcing_rows,
    phase,
)
from .dualquat import (
    _UNIT_TOL,
    BODY,
    DualQuaternion,
    Pose,
    Twist,
    _error as _dq_error,
    _step as _dq_step,
    dq_error,
    dq_from_pose,
    dq_position,
    dq_to_pose,
)
from .quat import (
    _conj,
    _product,
    _step as _quat_step,
    quat_norm,
    quat_normalize,
    quat_rotate,
)
from .traj import ScalarDemo, Trajectory

INERTIAL = "inertial"
# residual norms of the weight fit per output dimension, (dims, 2): absolute
# and over the norm of the dimension's targets; set by training, not saved
_FIT_RESIDUALS = dict(default=None, compare=False, repr=False)


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
    fit_residuals: np.ndarray | None = field(**_FIT_RESIDUALS)


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
    fit_residuals: np.ndarray | None = field(**_FIT_RESIDUALS)


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
    fit_residuals: np.ndarray | None = field(**_FIT_RESIDUALS)


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
    w, res = _fit(phase(demo.t, basis.alpha_x, tau), fd, basis)
    return ClassicalDmp(alpha_z, beta_z, basis, w,
                        float(demo.y[0]), float(g), float(tau), res)


def _fit(xs: np.ndarray, fd: np.ndarray, basis: GaussianBasis):
    """fit_weights of the targets fd, and its residual norms per target
    column: absolute and over the column's norm, one (2,) row per column."""
    weights, res = fit_weights(xs, fd, basis)
    scale = [max(np.linalg.norm(col), 1e-300) for col in fd.reshape(len(fd), -1).T]
    res = np.atleast_1d(res)
    return weights, np.column_stack([res, res / scale])


@dataclass(frozen=True)
class ClassicalRollout:
    """Row k holds the state at t[k]; z is the tau-scaled velocity.

    energy is 0.5 (g - y)^2 + 0.5 z^2 / (alpha_z beta_z); it does not rise
    along unforced rollouts at a stable step size.
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    forcing: np.ndarray
    energy: np.ndarray


def classical_rollout(model: ClassicalDmp, y0: float, dt: float,
                      duration: float | None = None, z0: float = 0.0,
                      t_start: float = 0.0) -> ClassicalRollout:
    """Integrate the scalar primitive: semi-implicit Euler on plain floats."""
    ts, xs = _clock(model.basis.alpha_x, model.tau, dt, duration, t_start)
    f = forcing_rows(xs, model.basis, model.weights[None, :])[:, 0]
    az, bz = float(model.alpha_z), float(model.beta_z)
    g, tau = float(model.goal), float(model.tau)
    y, z = np.empty(len(xs)), np.empty(len(xs))
    yk, zk = float(y0), float(z0)
    y[0], z[0] = yk, zk
    for k, fk in enumerate(f[:-1].tolist()):
        zk += dt * (az * (bz * (g - yk) - zk) + fk) / tau
        yk += dt * zk / tau
        y[k + 1], z[k + 1] = yk, zk
    _check_finite(ts, y, z)
    energy = 0.5 * (g - y) ** 2 + 0.5 * z * z / (az * bz)
    return ClassicalRollout(ts, xs, y, z, f, energy)


# ---------------------------------------------------------------------------
# the shared integrator


def _clock(alpha_x: float, tau: float, dt: float, duration: float | None,
           t_start: float) -> tuple[np.ndarray, np.ndarray]:
    """Time grid t_start + k dt over duration (default 1.5 tau) and its phase."""
    if not (dt > 0.0 and np.isfinite(dt)):
        raise ValueError("dt must be positive and finite")
    if duration is None:
        duration = 1.5 * tau
    if not (duration >= 0.0 and np.isfinite(duration)):
        raise ValueError("duration must be non-negative and finite")
    if not np.isfinite(t_start):
        raise ValueError("t_start must be finite")
    ts = t_start + np.arange(int(round(duration / dt)) + 1) * dt
    return ts, phase(ts, alpha_x, tau)


def _integrate(model, tau: float, dt: float, duration: float | None,
               t_start: float, gains, anchor: np.ndarray, start: np.ndarray,
               vel: np.ndarray, error, step):
    """Semi-implicit Euler driver of the quaternion and dual-quaternion
    primitives, run on plain floats with no numpy call per step.

    Poses are sequences of float components.  error(pose) gives the goal
    error and step(pose, z) the pose moved by the exponential step of the
    displacement z; error also takes the columns of the stacked poses.
    gains holds one (K, D) pair of 3x3 blocks per three velocity components.
    Each step drives the tau-scaled velocity with u = e - e0 x + f, e0 the
    error of the trained start pose (anchor), then steps the pose by
    dt / (2 tau) times the new velocity (the half-angle convention).
    Returns (t, x, poses, velocities, forcing, errors), one row per sample.
    """
    if vel.shape != (3 * len(gains),):
        raise ValueError(f"the start velocity must have {3 * len(gains)} components")
    ts, xs = _clock(model.basis.alpha_x, tau, dt, duration, t_start)
    forcing = forcing_rows(xs, model.basis, model.weights)
    # start-error shaping anchored at the trained start pose: the term is
    # part of the learned model, so resuming or restarting elsewhere must
    # not change the vector field
    e0 = error(anchor.tolist())
    dt_tau, half = dt / tau, dt / (2.0 * tau)
    blocks = [(slice(3 * b, 3 * b + 3), k.ravel().tolist(), d.ravel().tolist())
              for b, (k, d) in enumerate(gains)]
    poses, vels = np.empty((len(xs), len(start))), np.empty((len(xs), len(vel)))
    poses[0], vels[0] = start, vel
    pose, vel = start.tolist(), vel.tolist()
    row_p, row_v = Struct(f"{len(pose)}d"), Struct(f"{len(vel)}d")
    rows = zip(*[iter(memoryview(forcing.ravel()))] * len(vel))
    # a diverging state gives nan in the step's sin / cos; _check_finite reports it
    with np.errstate(invalid="ignore"):
        for j, x, f in zip(range(1, len(xs)), memoryview(xs), rows):
            u = [ei - ci * x + fi for ei, ci, fi in zip(error(pose), e0, f)]
            vel = [c for b, k, d in blocks for c in _gain_step(vel[b], u[b], k, d, dt_tau)]
            pose = step(pose, [half * c for c in vel])
            row_p.pack_into(poses, j * row_p.size, *pose)
            row_v.pack_into(vels, j * row_v.size, *vel)
    _check_finite(ts, poses, vels)
    return ts, xs, poses, vels, forcing, np.array(error(poses.T)).T


def _gain_step(v, u, k, d, dt_tau: float):
    """v + dt_tau (K u - D v) for one 3x3 gain block on float 3-sequences;
    k and d are the row-major entries, each product summed left to right."""
    v0, v1, v2 = v
    u0, u1, u2 = u
    return (v0 + dt_tau * ((k[0] * u0 + k[1] * u1 + k[2] * u2)
                           - (d[0] * v0 + d[1] * v1 + d[2] * v2)),
            v1 + dt_tau * ((k[3] * u0 + k[4] * u1 + k[5] * u2)
                           - (d[3] * v0 + d[4] * v1 + d[5] * v2)),
            v2 + dt_tau * ((k[6] * u0 + k[7] * u1 + k[8] * u2)
                           - (d[6] * v0 + d[7] * v1 + d[8] * v2)))


def _check_finite(ts: np.ndarray, *states: np.ndarray) -> None:
    """Raise on the first sample of a rollout whose state is not finite."""
    if not all(np.isfinite(s).all() for s in states):
        k = int(np.argmin(np.isfinite(np.column_stack(states)).all(axis=1)))
        raise ValueError(f"non-finite state at sample {k} (t = {ts[k]:g}): dt / tau too large?")


def _rotation_energy(q: np.ndarray, qd: np.ndarray, omega: np.ndarray,
                     kinv: np.ndarray) -> np.ndarray:
    """V1 per row: chordal distance ||qd - q||^2 plus 0.5 omega^T K^-1 omega."""
    d = qd - q
    return np.sum(d * d, axis=-1) + _rate_energy(omega, kinv)


def _rate_energy(vel: np.ndarray, kinv: np.ndarray) -> np.ndarray:
    """0.5 v^T K^-1 v per row of tau-scaled velocities."""
    return 0.5 * np.sum(vel * (vel @ kinv.T), axis=-1)


def _unit_quat(q, what: str) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (4,) or not abs(quat_norm(q) - 1.0) <= _UNIT_TOL:
        raise ValueError(f"{what} must be a unit quaternion [w, x, y, z]")
    return q


# ---------------------------------------------------------------------------
# quaternion variant


def _quat_error(q, qd, frame: str):
    """Rotation error components of q against the goal qd: vec(q* (x) qd)
    in the body frame, vec(qd (x) q*) in the inertial frame.  q and qd are
    4-sequences of floats or of stack columns."""
    if frame == BODY:
        return _product(_conj(q), qd)[1:]
    return _product(qd, _conj(q))[1:]


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
    e0 = np.array(_quat_error(q0, qd, frame))
    e = np.array(_quat_error(quats.T, qd, frame)).T
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
    weights, res = _fit(xs, fd, basis)
    return QuaternionDmp(frame, k_gain, d_gain, basis, weights,
                         q0.copy(), qd.copy(), float(tau), res)


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
    """Integrate the orientation primitive with the shared driver.

    goal_override retargets the attractor (a unit quaternion; anything
    else raises), tau_override rescales time and t_start offsets the
    clock so a rollout can resume from a previous endpoint.

    The double cover is not resolved: the goal's sign picks the direction
    of turn, so a start in the opposite hemisphere (q0 . qd < 0) unwinds
    the long way, turning through more than half a revolution to reach
    qd rather than -qd.  A signed goal is part of the model: a loop
    demonstration ends at -q0, and its model must rotate all the way round.
    """
    tau = float(tau_override) if tau_override is not None else model.tau
    qd = _unit_quat(goal_override, "goal_override") if goal_override is not None else model.qd
    q = quat_normalize(np.asarray(q0, dtype=float)) if q0 is not None else model.q0
    om = np.asarray(omega0, dtype=float) if omega0 is not None else np.zeros(3)
    frame, body, goal = model.frame, model.frame == BODY, qd.tolist()
    ts, xs, qs, oms, f, e = _integrate(
        model, tau, dt, duration, t_start, [(model.k_gain, model.d_gain)], model.q0,
        q, om, lambda p: _quat_error(p, goal, frame), lambda p, z: _quat_step(p, z, body))
    v1 = _rotation_energy(qs, qd, oms, np.linalg.inv(model.k_gain))
    return QuatRollout(ts, xs, qs, oms, f, e, v1)


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
    weights, res = _fit(xs, fd, basis)
    return DualQuaternionDmp(k_rot, k_pos, d_rot, d_pos, basis, weights,
                             start, goal, float(tau), res)


def lyapunov_value(dq: DualQuaternion, xi, dqd: DualQuaternion,
                   k_rot, k_pos) -> tuple[float, float, float]:
    """Energy diagnostic (V, V1, V2) of a pose state relative to a goal.

    V1 is the rotational part (quaternion chordal distance squared plus
    rate energy through K_rot^-1); V2 pairs the inertial position error
    with the linear-rate energy through K_pos^-1.  Nonnegative; zero only
    at the goal with zero twist.  Along unforced rollouts V1 is
    non-increasing; V is convergent but not monotone (the rotation-
    translation coupling term is sign-indefinite).  Both poses must hold
    their unit constraints.
    """
    xi = xi.as_array() if isinstance(xi, Twist) else np.asarray(xi, dtype=float)
    k_rot, k_pos = _gain_matrix(k_rot), _gain_matrix(k_pos)
    v = _pose_energy(dq.real, dq_to_pose(dq).position, xi, dqd.real,
                     dq_to_pose(dqd).position, np.linalg.inv(k_rot),
                     np.linalg.inv(k_pos))
    return float(v[0]), float(v[1]), float(v[2])


def _pose_energy(q, p, xi, qd, pd, kinv_r, kinv_p) -> np.ndarray:
    """(V, V1, V2) per row from the attitudes q, inertial positions p and
    tau-scaled twists xi, against the goal attitude qd and position pd."""
    v1 = _rotation_energy(q, qd, xi[..., :3], kinv_r)
    dp = pd - p
    v2 = 0.5 * np.sum(dp * dp, axis=-1) + _rate_energy(xi[..., 3:], kinv_p)
    return np.stack([v1 + v2, v1, v2], axis=-1)


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
    """Integrate the coupled pose primitive with the shared driver.

    Semi-implicit Euler on the twist state followed by the exact
    exponential pose step; unit constraints re-enforced every step.
    goal_override retargets the attractor (and the start-error shaping
    term) without retraining; a goal off the unit constraints raises.
    tau_override rescales time.  t_start offsets the clock so a rollout
    can be resumed from a previous endpoint.

    As in quat_rollout, the goal's sign picks the direction of turn: a
    start whose real part lies in the opposite hemisphere of the goal's
    unwinds the long way, and converges more slowly for it.
    """
    tau = float(tau_override) if tau_override is not None else model.tau
    goal = goal_override if goal_override is not None else model.dqd
    goal_position = dq_to_pose(goal).position
    start = dq0 if dq0 is not None else model.dq0
    if xi0 is None:
        xi = np.zeros(6)
    elif isinstance(xi0, Twist):
        if xi0.frame != BODY:
            raise ValueError("dq_rollout expects a body-frame start twist")
        xi = xi0.as_array()
    else:
        xi = np.asarray(xi0, dtype=float)
    g = goal.as_array().tolist()
    ts, xs, dqs, xis, f, e = _integrate(
        model, tau, dt, duration, t_start,
        [(model.k_rot, model.d_rot), (model.k_pos, model.d_pos)], model.dq0.as_array(),
        start.as_array(), xi, lambda p: _dq_error(p, g)[1:], _dq_step)
    positions = dq_position(DualQuaternion(dqs[:, :4], dqs[:, 4:]))
    lyap = _pose_energy(dqs[:, :4], positions, xis, goal.real, goal_position,
                        np.linalg.inv(model.k_rot), np.linalg.inv(model.k_pos))
    return DqRollout(ts, xs, dqs, xis, f, e, lyap)


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
    weights, res = _fit(phase(traj.t, pos_basis.alpha_x, tau), fd, pos_basis)
    axes = tuple(ClassicalDmp(alpha_z, beta_z, pos_basis, weights[dim],
                              float(y0[dim]), float(g[dim]), float(tau), res[dim:dim + 1])
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
    energy: np.ndarray      # (n, 3) (V, V1, V2): orientation V1, position axes V2


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
    v2 = rolls[0].energy + rolls[1].energy + rolls[2].energy
    energy = np.stack([qroll.v1 + v2, qroll.v1, v2], axis=1)
    return PoseRollout(rolls[0].t, rolls[0].x, positions, velocities,
                       qroll.q, qroll.omega, energy)


# ---------------------------------------------------------------------------
# model files

_FORMAT_VERSION = 1


def _basis_doc(basis: GaussianBasis) -> dict:
    return {
        "scheme": "a",
        "alpha_x": basis.alpha_x,
        "n_kernels": basis.n_kernels,
        "centers": basis.centers.tolist(),
        "widths": basis.widths.tolist(),
    }


def _basis_from_doc(doc: dict) -> GaussianBasis:
    if doc["scheme"] != "a":
        raise ValueError(f"unknown kernel scheme {doc['scheme']!r}")
    return GaussianBasis(doc["alpha_x"], np.array(doc["centers"], dtype=float),
                         np.array(doc["widths"], dtype=float))


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
    """Rebuild a model from its document, checking what a rollout relies on:
    a positive tau, weights of shape (dims, n_kernels), symmetric positive
    definite gains, positive scalar gains and unit boundary poses."""
    version = doc.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    variant = doc["variant"]
    if variant == "pose_decoupled":
        return PoseDecoupledDmp(
            tuple(_model_from_doc(d) for d in doc["position"]),
            _model_from_doc(doc["orientation"]))
    dims = {"classical": 1, "quaternion": 3, "dual_quaternion": 6}.get(variant)
    if dims is None:
        raise ValueError(f"unknown model variant {variant!r}")
    if not 0.0 < doc["tau"] < np.inf:
        raise ValueError("tau must be positive and finite")
    basis = _basis_from_doc(doc["basis"])
    weights = np.array(doc["weights"], dtype=float)
    if weights.shape != (dims, basis.n_kernels) or not np.all(np.isfinite(weights)):
        raise ValueError(f"{variant} weights must be finite, of shape "
                         f"{(dims, basis.n_kernels)}; got shape {weights.shape}")
    g = doc["gains"]
    b = doc["boundary"]
    if variant == "classical":
        if not (0.0 < g["alpha_z"] < np.inf and 0.0 < g["beta_z"] < np.inf
                and np.isfinite(b["y0"]) and np.isfinite(b["goal"])):
            raise ValueError("classical alpha_z and beta_z must be positive and "
                             "finite, y0 and goal finite")
        return ClassicalDmp(g["alpha_z"], g["beta_z"], basis, weights[0],
                            b["y0"], b["goal"], doc["tau"])
    if variant == "quaternion":
        if doc["frame"] not in (BODY, INERTIAL):
            raise ValueError(f"unknown frame {doc['frame']!r}")
        return QuaternionDmp(doc["frame"], _gain_matrix(g["k"]), _gain_matrix(g["d"]),
                             basis, weights, _unit_quat(b["q0"], "q0"),
                             _unit_quat(b["qd"], "qd"), doc["tau"])
    return DualQuaternionDmp(
        _gain_matrix(g["k_rot"]), _gain_matrix(g["k_pos"]),
        _gain_matrix(g["d_rot"]), _gain_matrix(g["d_pos"]), basis, weights,
        _unit_dq(b["dq0"], "dq0"), _unit_dq(b["dqd"], "dqd"), doc["tau"])


def _unit_dq(a, what: str) -> DualQuaternion:
    a = np.asarray(a, dtype=float)
    if a.shape != (8,):
        raise ValueError(f"{what} must be a dual quaternion [real, dual]")
    dq = DualQuaternion(a[:4], a[4:])
    dq_to_pose(dq)  # refuses a pose off the unit constraints
    return dq


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
    doc = json.load(source)
    try:
        return _model_from_doc(doc)
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed model file ({type(exc).__name__}: {exc})") from exc
