"""Dynamic motion primitives: scalar, quaternion and dual-quaternion variants.

All three share the same structure: a goal attractor (spring-damper on a
pose error), a phase-gated learned forcing term, and the clock
x = exp(-alpha_x t / tau); orientation is in the body frame only.  The
internal velocity states are the tau-scaled ones of the governing dynamics
(z = tau ydot, omega_state = tau omega, xi_state = tau xi), which makes
every rollout exactly covariant under time rescaling: doubling tau and dt
reproduces the same discrete path on a stretched clock.

Integration is semi-implicit Euler: the velocity state steps first, then
the pose advances by the exact exponential step with the new velocity.  The
rotation is renormalized each step, and the discrete step inherits the
monotonically decreasing rotational energy of the continuous dynamics.  The
quaternion and dual-quaternion rollouts run on one driver, ``_integrate``,
each with a step closure built from ``_drive``, once per 3x3 (K, D) gain
block, and the float kernels of ``quat`` and ``dualquat``.  The dq loop
state is (q, p), rotation and inertial position, stepped by the screw
exponential ``dualquat._screw``; ``DqRollout.dq`` is encoded after the
loop.  The loop over time makes no numpy call (sin and cos come from
``math``): plain floats, states packed into preallocated arrays, the
forcing grid from before the loop and the finiteness check, error rows and
energies after.
The energies exist only as rollout columns (``QuatRollout.v1``,
``DqRollout.lyap``, ``ClassicalRollout.energy``, ``PoseRollout.energy``).
The scalar primitive keeps its own short float loop: its position step is
Euler, its forcing unscaled and it has no start-error term.

Training inverts the dynamics along a demonstration to per-sample forcing
targets, one array expression per stage over the whole demonstration, and
fits kernel weights per output dimension by least squares on one phase, one
design matrix and one QR of it, each dimension solved on its own; a trained
model keeps the residual norms of that fit (fit_residuals), a loaded one none.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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
    INERTIAL,
    DualQuaternion,
    Pose,
    _screw,
    dq_error,
    dq_from_pose,
    dq_position,
    dq_to_pose,
)
from .quat import (
    _conj,
    _product,
    _exp,
    _rotate,
    _turn,
    quat_norm,
    quat_normalize,
    quat_to_rotmat,
)
from .traj import ScalarDemo, Trajectory, open_text

# the longest float array numpy can make: a longer time grid is refused
_MAX_SAMPLES = np.iinfo(np.intp).max // np.dtype(float).itemsize
# residual norms of the weight fit per output dimension, (dims, 2): absolute
# and over the norm of the dimension's targets; set by training, not saved
_FIT_RESIDUALS = dict(default=None, compare=False, repr=False)


def _gain_matrix(g) -> np.ndarray:
    """Promote a scalar gain to gain * I; validate positive definiteness."""
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("gains must be finite")
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
    """Orientation primitive in the body frame, the only frame it takes: the
    error is vec(q* (x) q_d), the rate a body rate and the pose steps on the
    right."""

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
    return (np.float64(tau) ** 2 * demo.ydd
            - alpha_z * (beta_z * (g - demo.y) - tau * demo.yd))


def _check_scalar_gains(alpha_z: float, beta_z: float) -> None:
    if not (0.0 < alpha_z < np.inf and 0.0 < beta_z < np.inf):
        raise ValueError("classical alpha_z and beta_z must be positive and finite")


def classical_train(demo: ScalarDemo, g: float, tau: float, alpha_z: float,
                    beta_z: float, basis: GaussianBasis) -> ClassicalDmp:
    _check_scalar_gains(alpha_z, beta_z)
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
                      t_start: float = 0.0, goal_override: float | None = None,
                      tau_override: float | None = None) -> ClassicalRollout:
    """Integrate the scalar primitive: semi-implicit Euler on plain floats;
    goal_override and tau_override act as in quat_rollout."""
    tau = float(tau_override if tau_override is not None else model.tau)
    g = float(goal_override if goal_override is not None else model.goal)
    if not np.isfinite([y0, z0, g]).all():
        raise ValueError("classical rollout: y0, z0 and goal must be finite")
    ts, xs = _clock(model.basis.alpha_x, tau, dt, duration, t_start)
    f = forcing_rows(xs, model.basis, model.weights[None, :])[:, 0]
    az, bz = float(model.alpha_z), float(model.beta_z)
    y, z = np.empty(len(xs)), np.empty(len(xs))
    yk, zk = float(y0), float(z0)
    y[0], z[0] = yk, zk
    for k, fk in enumerate(f[:-1].tolist()):
        zk += dt * (az * (bz * (g - yk) - zk) + fk) / tau
        yk += dt * zk / tau
        y[k + 1], z[k + 1] = yk, zk
    _check_finite(ts, y, z)
    with np.errstate(over="ignore", invalid="ignore"):
        energy = 0.5 * (g - y) ** 2 + 0.5 * z * z / (az * bz)
    if not np.isfinite(energy).all():
        raise ValueError(f"classical rollout: the energy overflows (start {y0:g}, goal {g:g})")
    return ClassicalRollout(ts, xs, y, z, f, energy)


# ---------------------------------------------------------------------------
# the shared integrator


def _clock(alpha_x: float, tau: float, dt: float, duration: float | None,
           t_start: float) -> tuple[np.ndarray, np.ndarray]:
    """Time grid t_start + k dt over duration (default 1.5 tau) and its phase."""
    if not (dt > 0.0 and np.isfinite(dt)):
        raise ValueError("dt must be positive and finite")
    if duration is None:
        phase(0.0, alpha_x, tau)  # blames a bad tau, not the duration 1.5 tau
        duration = 1.5 * tau
    if not (duration >= 0.0 and np.isfinite(duration)):
        raise ValueError("duration must be non-negative and finite")
    if not np.isfinite(t_start):
        raise ValueError("t_start must be finite")
    if not duration / dt < _MAX_SAMPLES:
        raise ValueError(f"duration {duration:g} over dt {dt:g} is more samples "
                         f"than an array can hold")
    ts = t_start + np.arange(int(round(duration / dt)) + 1) * dt
    return ts, phase(ts, alpha_x, tau)


def _integrate(model, tau: float, dt: float, duration: float | None,
               t_start: float, anchor: np.ndarray, start: np.ndarray,
               vel: np.ndarray, error, step):
    """Semi-implicit Euler driver of the quaternion and dual-quaternion
    primitives, run on plain floats with no numpy call per step.

    Poses are sequences of float components.  error(pose) gives the
    goal-relative pose, its rotation's scalar part and then the goal error;
    it also takes the columns of stacked poses.
    step(pose, vel, x, f, dt / tau, dt / (2 tau), e0) -> (pose, vel) drives
    the tau-scaled velocity with u = e - e0 x + f, e0 the error of the
    trained start pose (anchor) in blocks of three, then moves the pose by
    dt / (2 tau) times the new velocity (the half-angle convention).
    Returns (t, x, poses, velocities, forcing, errors), one row per sample.
    """
    if start.shape != anchor.shape:
        raise ValueError(f"the start pose must have {len(anchor)} components")
    if vel.shape != (len(model.weights),):
        raise ValueError(f"the start velocity must have {len(model.weights)} components")
    if not (np.isfinite(start).all() and np.isfinite(vel).all()):
        raise ValueError("the start pose and velocity must be finite")
    ts, xs = _clock(model.basis.alpha_x, tau, dt, duration, t_start)
    forcing = forcing_rows(xs, model.basis, model.weights)
    # start-error shaping anchored at the trained start pose: the term is
    # part of the learned model, so resuming or restarting elsewhere must
    # not change the vector field
    e0 = error(anchor.tolist())[1:]
    blocks = [e0[i:i + 3] for i in range(0, len(e0), 3)]
    h, half = dt / tau, dt / (2.0 * tau)
    poses, vels = np.empty((len(xs), len(start))), np.empty((len(xs), len(vel)))
    poses[0], vels[0] = start, vel
    pose, vel = start.tolist(), vel.tolist()
    row_p, row_v = Struct(f"{len(pose)}d"), Struct(f"{len(vel)}d")
    pack_p, pack_v, n_p, n_v = row_p.pack_into, row_v.pack_into, row_p.size, row_v.size
    # forcing rows built one at a time: tolist() would hold all their floats at once
    rows = zip(*[iter(memoryview(forcing.ravel()))] * len(vel))
    for op, ov, x, f in zip(range(n_p, poses.nbytes, n_p), range(n_v, vels.nbytes, n_v),
                            memoryview(xs), rows):
        pose, vel = step(pose, vel, x, f, h, half, blocks)
        pack_p(poses, op, *pose)
        pack_v(vels, ov, *vel)
    _check_finite(ts, poses, vels)
    return ts, xs, poses, vels, forcing, np.array(error(poses.T)[1:]).T


def _drive(v, e, c, f, x: float, k, d, dt_tau: float):
    """_gain_step of the velocity block v driven by u = e - c x + f from the
    error e, start error c, phase x and forcing f (float 3-sequences)."""
    (e0, e1, e2), (c0, c1, c2), (f0, f1, f2) = e, c, f
    return _gain_step(v, (e0 - c0 * x + f0, e1 - c1 * x + f1, e2 - c2 * x + f2),
                      k, d, dt_tau)


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


def _target_block(acc, vel, e, e0, xs: np.ndarray, tau: float, k, d) -> np.ndarray:
    """K^-1 (tau^2 acc + tau D vel) - e + e0 x per sample: the forcing that
    makes _drive reproduce a demonstration on one 3x3 (K, D) gain block."""
    # a numpy square overflows to inf, which the fit refuses; a float's raises
    drive = np.float64(tau) ** 2 * acc + vel @ (tau * d).T
    return drive @ np.linalg.inv(k).T - e + e0 * xs[:, None]


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


def _check_body(frame: str) -> None:
    """Raise on a frame other than BODY, the one frame of a quaternion model."""
    if frame != BODY:
        raise ValueError(f"unknown frame {frame!r}")


def _quat_error(q, qd):
    """Components of q* (x) qd, the rotation from q to the goal qd; its vector
    part is the rotation error.  q and qd are 4-sequences of floats or of
    stack columns."""
    return _product(_conj(q), qd)


def quat_target_forcing(quats: np.ndarray, omega: np.ndarray,
                        omega_dot: np.ndarray, xs: np.ndarray,
                        qd: np.ndarray, q0: np.ndarray, tau: float,
                        k_gain: np.ndarray, d_gain: np.ndarray) -> np.ndarray:
    """Per-sample forcing targets for the orientation primitive from the body
    rate omega and its derivative; the targets are those of _target_block."""
    e0 = np.array(_quat_error(q0, qd)[1:])
    e = np.array(_quat_error(quats.T, qd)[1:]).T
    return _target_block(omega_dot, omega, e, e0, xs, tau, k_gain, d_gain)


def quat_train(traj: Trajectory, tau: float, k_gain, d_gain,
               basis: GaussianBasis) -> QuaternionDmp:
    """Fit the orientation primitive to a demonstration's attitude track."""
    k_gain, d_gain = _gain_matrix(k_gain), _gain_matrix(d_gain)
    der = traj.derived()
    xs = phase(traj.t, basis.alpha_x, tau)
    q0, qd = traj.quaternions[0], traj.quaternions[-1]
    fd = quat_target_forcing(traj.quaternions, der.xi[:, :3], der.xi_dot[:, :3], xs,
                             qd, q0, tau, k_gain, d_gain)
    weights, res = _fit(xs, fd, basis)
    return QuaternionDmp(BODY, k_gain, d_gain, basis, weights,
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
    _check_body(model.frame)
    goal = qd.tolist()
    k, d = model.k_gain.ravel().tolist(), model.d_gain.ravel().tolist()

    def step(p, w, x, f, h, half, c):
        _, e0, e1, e2 = _quat_error(p, goal)
        w0, w1, w2 = _drive(w, (e0, e1, e2), c[0], f, x, k, d, h)
        return _turn(p, _exp((half * w0, half * w1, half * w2))), (w0, w1, w2)

    ts, xs, qs, oms, f, e = _integrate(model, tau, dt, duration, t_start, model.q0, q, om,
                                       lambda p: _quat_error(p, goal), step)
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
    are the demonstration's body twist and twist rate in real time; the
    targets are those of _target_block, per (rotation, translation) block.
    """
    e0 = dq_error(dq0, dqd)
    e = dq_error(DualQuaternion(dqs[:, :4], dqs[:, 4:]), dqd)
    rot = _target_block(xi_dot[:, :3], xi[:, :3], e[:, :3], e0[:3], xs, tau, k_rot, d_rot)
    pos = _target_block(xi_dot[:, 3:], xi[:, 3:], e[:, 3:], e0[3:], xs, tau, k_pos, d_pos)
    return np.concatenate([rot, pos], axis=1)


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


def _pose_energy(q, p, xi, qd, pd, kinv_r, kinv_p) -> np.ndarray:
    """(V, V1, V2) per row from the attitudes q, inertial positions p and
    tau-scaled twists xi, against the goal attitude qd and position pd.

    V1 is the rotational part (_rotation_energy through K_rot^-1); V2 pairs
    the inertial position error with the linear-rate energy through
    K_pos^-1.  Nonnegative; zero only at the goal with zero twist.  Along
    unforced rollouts V1 is non-increasing; V is convergent but not
    monotone (the rotation-translation coupling term is sign-indefinite).
    """
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
               xi0: np.ndarray | None = None, dt: float = 0.01,
               duration: float | None = None,
               goal_override: DualQuaternion | None = None,
               tau_override: float | None = None,
               t_start: float = 0.0) -> DqRollout:
    """Integrate the coupled pose primitive with the shared driver.

    Semi-implicit Euler on the twist state, then the exact screw step of
    the (rotation, position) state; .dq is encoded after the loop.
    xi0 is the tau-scaled start twist [omega_b, v_b], zero by default.
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
    start = _unit_dq(dq0.as_array(), "dq0") if dq0 is not None else model.dq0
    xi = np.zeros(6) if xi0 is None else np.asarray(xi0, dtype=float)
    gq, (gx, gy, gz) = goal.real.tolist(), goal_position.tolist()
    # R(q_d)^T row by row: vec(2 q_oe* (x) q_pe) of dq_error is R(q_d)^T (p_d - p)
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = quat_to_rotmat(goal.real).T.ravel().tolist()
    kr, kp, dr, dp = (g.ravel().tolist() for g in (model.k_rot, model.k_pos,
                                                   model.d_rot, model.d_pos))

    def error(p):
        qw, qx, qy, qz, px, py, pz = p
        ex, ey, ez = gx - px, gy - py, gz - pz
        return (*_quat_error((qw, qx, qy, qz), gq), a0 * ex + a1 * ey + a2 * ez,
                a3 * ex + a4 * ey + a5 * ez, a6 * ex + a7 * ey + a8 * ez)

    def step(p, v, x, f, h, half, c):
        qw, qx, qy, qz, px, py, pz = p
        _, e0, e1, e2, e3, e4, e5 = error(p)
        f0, f1, f2, f3, f4, f5 = f
        v0, v1, v2, v3, v4, v5 = v
        r0, r1, r2 = _drive((v0, v1, v2), (e0, e1, e2), c[0], (f0, f1, f2), x, kr, dr, h)
        t0, t1, t2 = _drive((v3, v4, v5), (e3, e4, e5), c[1], (f3, f4, f5), x, kp, dp, h)
        s, t = _screw((half * r0, half * r1, half * r2, half * t0, half * t1, half * t2))
        ux, uy, uz = _rotate(qw, qx, qy, qz, t)
        return ((*_turn((qw, qx, qy, qz), s), px + ux, py + uy, pz + uz),
                (r0, r1, r2, t0, t1, t2))

    anchor, first = (np.concatenate([d.real, dq_position(d)]) for d in (model.dq0, start))
    ts, xs, poses, xis, f, e = _integrate(model, tau, dt, duration, t_start, anchor, first,
                                          xi, error, step)
    q, positions = poses[:, :4], poses[:, 4:]
    dqs = dq_from_pose(Pose(positions, q)).as_array()
    dqs[0] = start.as_array()
    lyap = _pose_energy(q, positions, xis, goal.real, goal_position,
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
    traj.derived()  # refuses a demo too short to differentiate
    if not (0.0 < k_pos < np.inf and 0.0 < d_pos < np.inf):
        raise ValueError("position stiffness and damping must be positive and finite")
    pos_basis = basis_scheme_a(n_pos_kernels, alpha_x)
    rot_basis = basis_scheme_a(n_rot_kernels, alpha_x)
    alpha_z = float(d_pos)
    beta_z = float(k_pos) / float(d_pos)
    _check_scalar_gains(alpha_z, beta_z)  # the quotient can overflow or underflow
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
    orientation = quat_train(traj, tau, k_rot, d_rot, rot_basis)
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


def pose_rollout(model: PoseDecoupledDmp, dt: float, duration: float | None = None,
                 goal_position: np.ndarray | None = None,
                 goal_quat: np.ndarray | None = None,
                 tau_override: float | None = None) -> PoseRollout:
    """Roll the decoupled baseline; sub-systems share only the clock, which runs
    on the orientation primitive's tau or tau_override, 1.5 tau by default."""
    tau = tau_override if tau_override is not None else model.orientation.tau
    goals = goal_position if goal_position is not None else [None] * 3
    rolls = [classical_rollout(m, m.y0, dt, duration, goal_override=g, tau_override=tau)
             for m, g in zip(model.position, goals)]
    qroll = quat_rollout(model.orientation, dt=dt, duration=duration,
                         goal_override=goal_quat, tau_override=tau)
    positions = np.stack([r.y for r in rolls], axis=1)
    velocities = np.stack([r.z for r in rolls], axis=1) / tau
    v2 = rolls[0].energy + rolls[1].energy + rolls[2].energy
    energy = np.stack([qroll.v1 + v2, qroll.v1, v2], axis=1)
    return PoseRollout(rolls[0].t, rolls[0].x, positions, velocities,
                       qroll.q, qroll.omega, energy)


# ---------------------------------------------------------------------------
# model files

_FORMAT_VERSION = 1
# the one frame a file of each variant may name
_FRAMES = {"classical": INERTIAL, "quaternion": BODY, "dual_quaternion": BODY}


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
    if doc["n_kernels"] != len(doc["centers"]):
        raise ValueError(f"n_kernels is {doc['n_kernels']!r} for {len(doc['centers'])} centers")
    return GaussianBasis(doc["alpha_x"], np.array(doc["centers"], dtype=float),
                         np.array(doc["widths"], dtype=float))


def _model_doc(model) -> dict:
    if isinstance(model, ClassicalDmp):
        return {
            "format_version": _FORMAT_VERSION,
            "variant": "classical",
            "frame": _FRAMES["classical"],
            "tau": model.tau,
            "gains": {"alpha_z": model.alpha_z, "beta_z": model.beta_z},
            "basis": _basis_doc(model.basis),
            "weights": [model.weights.tolist()],
            "boundary": {"y0": model.y0, "goal": model.goal},
        }
    if isinstance(model, QuaternionDmp):
        _check_body(model.frame)
        return {
            "format_version": _FORMAT_VERSION,
            "variant": "quaternion",
            "frame": _FRAMES["quaternion"],
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
            "frame": _FRAMES["dual_quaternion"],
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
    if doc["frame"] != _FRAMES[variant]:
        raise ValueError(f"unknown frame {doc['frame']!r}")
    if not 0.0 < doc["tau"] < np.inf:
        raise ValueError("tau must be positive and finite")
    basis = _basis_from_doc(doc["basis"])
    weights = np.array(doc["weights"], dtype=float)
    if weights.shape != (dims, basis.n_kernels):
        raise ValueError(f"{variant} weights must be of shape {(dims, basis.n_kernels)}; "
                         f"got shape {weights.shape}")
    if not np.all(np.isfinite(weights)):
        d, k = np.argwhere(~np.isfinite(weights))[0]
        raise ValueError(f"non-finite {variant} weight {weights[d, k]} at dim {d}, kernel {k}")
    g = doc["gains"]
    b = doc["boundary"]
    if variant == "classical":
        _check_scalar_gains(g["alpha_z"], g["beta_z"])
        if not (np.isfinite(b["y0"]) and np.isfinite(b["goal"])):
            raise ValueError("classical y0 and goal must be finite")
        return ClassicalDmp(g["alpha_z"], g["beta_z"], basis, weights[0],
                            b["y0"], b["goal"], doc["tau"])
    if variant == "quaternion":
        return QuaternionDmp(BODY, _gain_matrix(g["k"]), _gain_matrix(g["d"]),
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
    """Write a model to a path or text stream as a self-describing JSON document.

    The rendering is canonical (sorted keys, repr-exact floats), so
    save -> load -> save reproduces the file byte for byte.
    """
    with open_text(sink, "w") as fh:
        json.dump(_model_doc(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(source):
    """Read a model file from a path or text stream; ValueError if malformed."""
    with open_text(source) as fh:
        doc = json.load(fh)
    try:
        return _model_from_doc(doc)
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed model file ({type(exc).__name__}: {exc})") from exc
