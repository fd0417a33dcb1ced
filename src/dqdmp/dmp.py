"""Dynamic motion primitives: scalar, quaternion and dual-quaternion variants.

All three run one formulation: the per-axis drive v += h (K (e - e0 x + f) - D v)
on a pose error e, with e0 the error at the trained start, a phase-gated
learned forcing f and the clock x = exp(-alpha_x t / tau); orientation is in
the body frame only.  The scalar primitive is the dq translation row at R = I,
with K = alpha_z beta_z and D = alpha_z.  The velocity states are tau-scaled
(z = tau ydot, omega_state = tau omega, xi_state = tau xi), so doubling tau and
dt reproduces the same discrete path on a stretched clock.

Integration is semi-implicit Euler: the velocity steps first, then the pose
by the exact exponential step with the new velocity, the rotation
renormalized; the step inherits the decreasing rotational energy of the
continuous dynamics.  The scalar, quaternion and dual-quaternion rollouts run
on one driver, ``_integrate``, around each variant's loop function, which runs
the whole time loop on local floats with no numpy call (sin and cos come from
``math``) and packs the whole state per step as one row of one buffer.  Per
step the rotation error vec(q* (x) q_d) (and, for dq, R(q_d)^T (p_d - p)), the
drive and the turn normalize(q (x) s) repeat the IEEE operations of
``_quat_error``, ``_pose_error`` and ``quat._product`` in their order, so a
step keeps their bits; a quat step calls only ``quat._exp``, a dq step only
``dualquat._screw`` and ``quat._rotate``, a scalar step nothing.  The dq state
is (q, p), rotation and inertial position; ``DqRollout.dq`` is encoded after
the loop, and ``_pose_error`` is also the error training inverts.  Each
variant takes e0 from its error function before the loop and its error rows
and energies after it, refusing an energy that overflows (``pose_rollout`` its
sum too); the energies exist only as rollout columns (``QuatRollout.v1``,
``DqRollout.lyap``, ``ClassicalRollout.energy``, ``PoseRollout.energy``).

Training inverts the dynamics along a demonstration to per-sample forcing
targets, one array expression per stage over the whole demonstration, and
fits kernel weights per output dimension by least squares on one phase, one
design matrix and one QR of it, each dimension solved on its own; a trained
model keeps the residual norms of that fit (fit_residuals), a loaded one none.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import length_hint
from struct import Struct

import numpy as np

from .canonical import (
    GaussianBasis,
    _norm,
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
    _check_unit,
    _screw,
    dq_from_pose,
    dq_position,
)
from .quat import (
    _conj,
    _product,
    _exp,
    _rotate,
    quat_norm,
    quat_normalize,
)
from .traj import ScalarDemo, Trajectory, _check_rates, _time_grid, open_text

# residual norms of the weight fit per output dimension, (dims, 2): absolute
# and over the norm of the dimension's targets; set by training, not saved
_FIT_RESIDUALS = dict(default=None, compare=False, repr=False)


def _gain_matrix(g, name: str) -> np.ndarray:
    """A gain's 3x3 matrix (g I for a scalar g); refused unless diagonal, positive, finite."""
    g = np.asarray(g, dtype=float)
    g = np.diag(np.full(3, g)) if g.ndim == 0 else g
    k = np.diag(g) if g.shape == (3, 3) else np.zeros(3)
    if not (np.all((0.0 < k) & (k < np.inf)) and np.array_equal(g, np.diag(k))):
        raise ValueError(f"{name} must be a positive, finite scalar or diagonal 3x3 matrix")
    _check_normal(k.min(), name)
    return g


def _check_normal(value: float, name: str) -> None:
    """Refuse a positive value below the smallest normal float."""
    if value < np.finfo(float).tiny:
        raise ValueError(f"{name} {value:g} is too small: its reciprocal overflows")


def _check_model(model, variant: str, dims: int, gains=(), **fields) -> None:
    """The checks every model makes when it is built: a positive, finite tau,
    finite weights of shape (dims, n_kernels) (one row for the scalar
    primitive) and per-axis gains; sets them, as floats, and fields."""
    if not 0.0 < model.tau < np.inf:
        raise ValueError("tau must be positive and finite")
    _check_normal(model.tau, "tau")
    given = np.asarray(model.weights, dtype=float)
    weights, shape = np.atleast_2d(given), (dims, model.basis.n_kernels)
    if weights.shape != shape:
        raise ValueError(f"{variant} weights must be of shape {shape}; got shape {given.shape}")
    if not np.isfinite(weights).all():
        d, k = np.argwhere(~np.isfinite(weights))[0]
        raise ValueError(f"non-finite {variant} weight {weights[d, k]} at dim {d}, kernel {k}")
    fields.update({name: _gain_matrix(getattr(model, name), name) for name in gains},
                  tau=float(model.tau), weights=weights[0] if dims == 1 else weights)
    for name, value in fields.items():
        object.__setattr__(model, name, value)


# ---------------------------------------------------------------------------
# models


@dataclass(frozen=True)
class ClassicalDmp:
    """Scalar second-order attractor with learned forcing.  Refuses a bad field
    when built, as load_model does, so any model that builds saves and loads."""

    alpha_z: float
    beta_z: float
    basis: GaussianBasis
    weights: np.ndarray          # (N,)
    y0: float
    goal: float
    tau: float
    fit_residuals: np.ndarray | None = field(**_FIT_RESIDUALS)

    def __post_init__(self):
        _check_scalar_gains(self.alpha_z, self.beta_z)
        if not (np.isfinite(self.y0) and np.isfinite(self.goal)):
            raise ValueError("classical y0 and goal must be finite")
        # float() refuses a nested list, which np.isfinite takes
        _check_model(self, "classical", 1, alpha_z=float(self.alpha_z),
                     beta_z=float(self.beta_z), y0=float(self.y0), goal=float(self.goal))
        if not abs(self.goal - self.y0) < np.inf:
            raise ValueError(f"classical y0 {self.y0:g} and goal {self.goal:g}: "
                             f"goal - y0 overflows")


@dataclass(frozen=True)
class QuaternionDmp:
    """Orientation primitive in the body frame, the only frame it takes: the
    error is vec(q* (x) q_d), the rate a body rate and the pose steps on the
    right.  Refuses a bad field when built, so any model that builds saves and loads."""

    frame: str
    k_gain: np.ndarray           # (3, 3) diagonal
    d_gain: np.ndarray           # (3, 3) diagonal
    basis: GaussianBasis
    weights: np.ndarray          # (3, N)
    q0: np.ndarray               # (4,)
    qd: np.ndarray               # (4,)
    tau: float
    fit_residuals: np.ndarray | None = field(**_FIT_RESIDUALS)

    def __post_init__(self):
        if self.frame != BODY:
            raise ValueError(f"unknown frame {self.frame!r}")
        _check_model(self, "quaternion", 3, ("k_gain", "d_gain"),
                     q0=_unit_quat(self.q0, "q0"), qd=_unit_quat(self.qd, "qd"))


@dataclass(frozen=True)
class DualQuaternionDmp:
    """Coupled pose primitive over unit dual quaternions (body frame); dq0 and
    dqd may be 8 components.  Refuses a bad field when built, so it saves and loads."""

    k_rot: np.ndarray            # (3, 3) diagonal
    k_pos: np.ndarray            # (3, 3) diagonal
    d_rot: np.ndarray            # (3, 3) diagonal
    d_pos: np.ndarray            # (3, 3) diagonal
    basis: GaussianBasis
    weights: np.ndarray          # (6, N)
    dq0: DualQuaternion
    dqd: DualQuaternion
    tau: float
    fit_residuals: np.ndarray | None = field(**_FIT_RESIDUALS)

    def __post_init__(self):
        _check_model(self, "dual_quaternion", 6, ("k_rot", "k_pos", "d_rot", "d_pos"),
                     dq0=_unit_dq(self.dq0, "dq0"), dqd=_unit_dq(self.dqd, "dqd"))


@dataclass(frozen=True)
class PoseDecoupledDmp:
    """Baseline: three scalar position primitives plus an orientation
    primitive, coupled only through the shared phase: every sub-model must
    have the orientation primitive's alpha_x and tau."""

    position: tuple[ClassicalDmp, ClassicalDmp, ClassicalDmp]
    orientation: QuaternionDmp

    def __post_init__(self):
        o = self.orientation
        for axis, m in enumerate(self.position):
            for name, a, b in ("alpha_x", m.basis.alpha_x, o.basis.alpha_x), ("tau", m.tau, o.tau):
                if a != b:
                    raise ValueError(f"position axis {axis} has {name} {a}, the orientation "
                                     f"primitive {b}: the sub-models share one clock")


# ---------------------------------------------------------------------------
# classical variant


def classical_target_forcing(demo: ScalarDemo, g: float | np.ndarray, xs: np.ndarray,
                             tau: float, alpha_z: float, beta_z: float) -> np.ndarray:
    """_target_block's targets for the scalar primitive, K = alpha_z beta_z, D = alpha_z
    and e0 = g - y0, on the demo's (n,) channels or (n, dims) axes, one goal each;
    refused, naming them, on bad gains or where 0.5 (g - y)^2 overflows."""
    _check_scalar_gains(alpha_z, beta_z)
    y = np.asarray(demo.y, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        e = (g - y).reshape(len(y), -1)
        if not np.isfinite(0.5 * e * e).all():
            raise ValueError(f"goal {np.asarray(g).tolist()}: the energy 0.5 (g - y)^2 overflows")
    k, d = alpha_z * beta_z * np.eye(e.shape[1]), alpha_z * np.eye(e.shape[1])
    fd = _target_block(demo.ydd.reshape(e.shape), demo.yd.reshape(e.shape), e, e[0], xs, tau, k, d)
    return fd.reshape(y.shape)


def _check_scalar_gains(alpha_z: float, beta_z: float) -> None:
    if not (0.0 < alpha_z < np.inf and 0.0 < beta_z < np.inf):
        raise ValueError("classical alpha_z and beta_z must be positive and finite")
    if not np.finfo(float).tiny <= float(alpha_z) * float(beta_z) < np.inf:
        raise ValueError(f"classical alpha_z {alpha_z:g} and beta_z {beta_z:g}: their "
                         f"product K or its reciprocal overflows")


def classical_train(demo: ScalarDemo, g: float, tau: float, alpha_z: float,
                    beta_z: float, basis: GaussianBasis) -> ClassicalDmp:
    xs = phase(demo.t, basis.alpha_x, tau)
    w, res = _fit(xs, classical_target_forcing(demo, g, xs, tau, alpha_z, beta_z), basis)
    return ClassicalDmp(alpha_z, beta_z, basis, w,
                        float(demo.y[0]), float(g), float(tau), res)


def _fit(xs: np.ndarray, fd: np.ndarray, basis: GaussianBasis):
    """fit_weights of the targets fd, and its residual norms per target
    column: absolute and over the column's norm, one (2,) row per column."""
    weights, res = fit_weights(xs, fd, basis)
    scale = [max(_norm(col), 1e-300) for col in fd.reshape(len(fd), -1).T]
    return weights, np.column_stack([res, np.divide(res, scale)])


@dataclass(frozen=True)
class ClassicalRollout:
    """Row k holds the state at t[k]; z is the tau-scaled velocity.

    energy is 0.5 (g - y)^2 + 0.5 z^2 / (alpha_z beta_z); it does not rise
    along zero-weight rollouts from rest at the trained y0 at a stable step size.
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
    """Integrate the scalar primitive with the shared driver, the dq translation
    row at R = I: z += h (K (g - y - e0 x + f) - D z), y += h z, h = dt / tau,
    e0 = g - y0 at the trained y0; goal_override and tau_override act as in quat_rollout."""
    g = float(goal_override if goal_override is not None else model.goal)
    if not np.isfinite([y0, z0, g]).all():
        raise ValueError("classical rollout: y0, z0 and goal must be finite")
    if not max(abs(g - float(y0)), abs(g - model.y0)) < np.inf:
        raise ValueError(f"classical rollout: start {y0:g} or trained start {model.y0:g} "
                         f"too far from goal {g:g}: g - y0 overflows")
    k, d = model.alpha_z * model.beta_z, model.alpha_z

    def loop(grid, pose, vel, h, half, e0, pack, rows):
        (yk,), (zk,), (c,) = pose, vel, e0
        for o, x, fk in grid:
            zk += h * (k * (g - yk - c * x + fk) - d * zk)
            yk += h * zk
            pack(rows, o, yk, zk)

    ts, xs, y, z, f = _integrate(model, tau_override, dt, duration, t_start, [g - model.y0],
                                 np.array([y0], dtype=float), np.array([z0], dtype=float), loop)
    y, z = y[:, 0], z[:, 0]
    energy = _checked_energy("classical", f"start {y0:g}, goal {g:g}",
                             lambda: 0.5 * (g - y) ** 2 + 0.5 * z * z / k)
    return ClassicalRollout(ts, xs, y, z, f[:, 0], energy)


# ---------------------------------------------------------------------------
# the shared integrator


def _clock(alpha_x: float, tau: float, dt: float, duration: float | None,
           t_start: float) -> tuple[np.ndarray, np.ndarray]:
    """Time grid t_start + k dt over duration (default 1.5 tau) and phase; refused on overflow."""
    if not (dt > 0.0 and np.isfinite(dt)):
        raise ValueError("dt must be positive and finite")
    if duration is None:
        phase(0.0, alpha_x, tau)  # blames a bad tau, not the duration 1.5 tau
        duration = 1.5 * tau
    if not (duration >= 0.0 and np.isfinite(duration)):
        raise ValueError("duration must be non-negative and finite")
    if not np.isfinite(t_start):
        raise ValueError("t_start must be finite")
    # on floats, which overflow to inf with no warning: |t| <= |t_start| + duration + dt,
    # exp(709.78) is near the largest float, and phase() below refuses a bad tau
    a, t0 = float(alpha_x), float(t_start)
    if 0.0 < tau and not ((abs(t0) + float(duration) + float(dt)) * max(a, 1.0) / tau < np.inf
                          and -a * t0 / tau < 709.78):
        raise ValueError(f"tau {tau:g} too small or t_start {t0:g} too far from 0: phase overflow")
    ts = t_start + _time_grid(duration, dt)
    return ts, phase(ts, alpha_x, tau)


def _integrate(model, tau_override: float | None, dt: float, duration: float | None,
               t_start: float, e0, start: np.ndarray, vel, loop):
    """Semi-implicit Euler driver of the scalar, quaternion and dual-quaternion
    primitives around the variant's loop over time, which makes no numpy call.

    The clock and the step dt / tau run on tau_override, model.tau if None; vel
    None is a zero start velocity, one component per row of np.atleast_2d(model.weights).
    e0 holds the variant's error floats at the trained start, not at start: the
    start-error term is part of the learned model, so resuming or restarting
    elsewhere must not change the vector field.  loop(grid, pose, vel, dt / tau,
    dt / (2 tau), e0, pack, rows) runs ``for o, x, f0, f1, ... in grid`` on local
    floats from the start pose and velocity lists, one forcing float per row of
    np.atleast_2d(model.weights): the drive, the pose step, and pack(rows, o,
    *pose, *vel) of the state as one row at byte offset o.  A ValueError from the
    loop, a kernel out of its domain, is re-raised naming the sample it stepped
    from, read off how far grid got; so is a non-finite state row after it.
    Returns (t, x, poses, velocities, forcing), one row per sample.
    """
    tau = model.tau if tau_override is None else float(tau_override)
    weights = np.atleast_2d(model.weights)
    vel = np.zeros(len(weights)) if vel is None else np.asarray(vel, dtype=float)
    if vel.shape != (len(weights),):
        raise ValueError(f"the start velocity must have {len(weights)} components")
    if not (np.isfinite(start).all() and np.isfinite(vel).all()):
        raise ValueError("the start pose and velocity must be finite")
    ts, xs = _clock(model.basis.alpha_x, tau, dt, duration, t_start)
    _check_normal(tau, "tau")  # after _clock, which names a tau whose phase overflows
    forcing = forcing_rows(xs, model.basis, weights)
    # one state row [pose, vel] per sample, in a bytearray: pack_into takes it faster than an array
    row = Struct(f"{len(start) + len(vel)}d")
    buf = bytearray(len(xs) * row.size)
    rows = np.frombuffer(buf).reshape(len(xs), -1)
    rows[0] = *start, *vel
    # byte offsets of rows 1..n-1; forcing floats one at a time (tolist() holds them all)
    offsets = iter(range(row.size, len(buf), row.size))
    grid = zip(offsets, memoryview(xs), *[iter(memoryview(forcing.ravel()))] * len(vel))
    try:
        loop(grid, start.tolist(), vel.tolist(), dt / tau, dt / (2.0 * tau), e0,
             row.pack_into, buf)
    except ValueError as exc:  # a step out of its kernel's domain, named by the sample
        raise _unstable(str(exc), ts, len(xs) - 2 - length_hint(offsets)) from exc
    if not np.isfinite(rows).all():
        raise _unstable("non-finite state", ts, int(np.argmin(np.isfinite(rows).all(axis=1))))
    return ts, xs, rows[:, :len(start)].copy(), rows[:, len(start):].copy(), forcing


def _target_block(acc, vel, e, e0, xs: np.ndarray, tau: float, k, d) -> np.ndarray:
    """(tau^2 acc + tau D vel) / K - e + e0 x per sample and axis: the forcing
    that makes the rollout's gain drive reproduce a demonstration on one
    (K, D) block; refused, naming tau, K and D, where a target overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        drive = np.float64(tau) ** 2 * acc + vel * (tau * np.diag(d))
        fd = drive * (1.0 / np.diag(k)) - e + e0 * xs[:, None]
    if not np.isfinite(fd).all():
        raise ValueError(f"the forcing targets overflow: tau {tau:g}, K {np.diag(k).tolist()} "
                         f"or D {np.diag(d).tolist()} too large for the demo")
    return fd


def _unstable(what: str, ts: np.ndarray, k: int) -> ValueError:
    return ValueError(f"{what} at sample {k} (t = {ts[k]:g}): dt / tau too large?")


def _checked_energy(variant: str, cause: str, energy) -> np.ndarray:
    """energy() with no numpy warning; refused, naming the variant and cause, where it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        v = energy()
    if not np.isfinite(v).all():
        raise ValueError(f"{variant} rollout: the energy overflows ({cause})")
    return v


def _rotation_energy(q: np.ndarray, qd: np.ndarray, omega: np.ndarray,
                     kinv: np.ndarray) -> np.ndarray:
    """V1 per row: chordal distance ||qd - q||^2 plus 0.5 omega^T K^-1 omega."""
    d = qd - q
    return np.sum(d * d, axis=-1) + _rate_energy(omega, kinv)


def _rate_energy(vel: np.ndarray, kinv: np.ndarray) -> np.ndarray:
    """0.5 v^T K^-1 v per row of tau-scaled velocities; kinv is diag(K^-1)."""
    return 0.5 * np.sum(vel * (vel * kinv), axis=-1)


def _unit_quat(q, what: str) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (4,) or not abs(quat_norm(q) - 1.0) <= _UNIT_TOL:
        raise ValueError(f"{what} must be a unit quaternion [w, x, y, z]")
    return q


# ---------------------------------------------------------------------------
# quaternion variant


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
    k_gain, d_gain = _gain_matrix(k_gain, "k_gain"), _gain_matrix(d_gain, "d_gain")
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
    qd = _unit_quat(goal_override, "goal_override") if goal_override is not None else model.qd
    q = quat_normalize(np.asarray(q0, dtype=float)) if q0 is not None else model.q0
    if q.shape != (4,):
        raise ValueError("the start pose must have 4 components")
    goal, gains = qd.tolist(), np.diagonal([model.k_gain, model.d_gain], 0, 1, 2).tolist()

    def loop(grid, pose, vel, h, half, e0, pack, rows):
        # per step vec(q* (x) q_d), the gain drive and normalize(q (x) exp(half w)),
        # with the operations of _quat_error, the drive and _product in their order
        (gw, gx, gy, gz), ((k0, k1, k2), (d0, d1, d2)), (c0, c1, c2) = goal, gains, e0
        (qw, qx, qy, qz), (w0, w1, w2) = pose, vel
        for o, x, f0, f1, f2 in grid:
            w0 += h * (k0 * (qw * gx - gw * qx - qy * gz + qz * gy - c0 * x + f0) - d0 * w0)
            w1 += h * (k1 * (qw * gy - gw * qy - qz * gx + qx * gz - c1 * x + f1) - d1 * w1)
            w2 += h * (k2 * (qw * gz - gw * qz - qx * gy + qy * gx - c2 * x + f2) - d2 * w2)
            sw, sx, sy, sz = _exp(half * w0, half * w1, half * w2)
            rw = qw * sw - qx * sx - qy * sy - qz * sz
            rx = qw * sx + sw * qx + qy * sz - qz * sy
            ry = qw * sy + sw * qy + qz * sx - qx * sz
            rz = qw * sz + sw * qz + qx * sy - qy * sx
            inv = 1.0 / (rw * rw + rx * rx + ry * ry + rz * rz) ** 0.5
            qw, qx, qy, qz = rw * inv, rx * inv, ry * inv, rz * inv
            pack(rows, o, qw, qx, qy, qz, w0, w1, w2)

    ts, xs, qs, oms, f = _integrate(model, tau_override, dt, duration, t_start,
                                    _quat_error(model.q0.tolist(), goal)[1:], q, omega0, loop)
    v1 = _checked_energy("quaternion", "a body rate too large for K",
                         lambda: _rotation_energy(qs, qd, oms, 1.0 / np.diag(model.k_gain)))
    return QuatRollout(ts, xs, qs, oms, f, np.array(_quat_error(qs.T, goal)[1:]).T, v1)


# ---------------------------------------------------------------------------
# dual quaternion variant


def _goal_floats(goal: DualQuaternion) -> tuple[list, list, tuple]:
    """The goal's rotation q_d and position p_d as floats, and the rows of
    R(q_d)^T: row j is e_j turned by q_d, as in quat_to_rotmat."""
    gq = goal.real.tolist()
    return gq, dq_position(goal).tolist(), tuple(_rotate(*gq, *e) for e in np.eye(3).tolist())


def _pose_error(goal: DualQuaternion):
    """error(pose) of the pose [qw, qx, qy, qz, px, py, pz], 7 floats or 7
    stack columns, relative to the goal: the components of q* (x) q_d, whose
    vector part is the rotation error, then the translation error
    R(q_d)^T (p_d - p), the translation of dq* (x) dq_d.  The goal is bound
    once, as floats."""
    gq, (gx, gy, gz), ((a0, a1, a2), (a3, a4, a5), (a6, a7, a8)) = _goal_floats(goal)

    def error(p):
        qw, qx, qy, qz, px, py, pz = p
        ex, ey, ez = gx - px, gy - py, gz - pz
        return (*_quat_error((qw, qx, qy, qz), gq), a0 * ex + a1 * ey + a2 * ez,
                a3 * ex + a4 * ey + a5 * ez, a6 * ex + a7 * ey + a8 * ez)
    return error


def _pose_anchor(dq: DualQuaternion) -> np.ndarray:
    """The 7 components [q, p] of the (rotation, position) state at dq."""
    return np.concatenate([dq.real, dq_position(dq)])


def dq_target_forcing(poses: np.ndarray, xi: np.ndarray,
                      xi_dot: np.ndarray, xs: np.ndarray,
                      dqd: DualQuaternion, dq0: DualQuaternion, tau: float,
                      k_rot: np.ndarray, k_pos: np.ndarray,
                      d_rot: np.ndarray, d_pos: np.ndarray) -> np.ndarray:
    """Per-sample 6-vector forcing targets for the coupled pose primitive.

    poses is the (n, 7) stack [q, p] of demonstrated quaternions and inertial
    positions; xi / xi_dot are the demonstration's body twist and twist rate
    in real time; the targets are those of _target_block, per (rotation,
    translation) block, on the error of dq_rollout (_pose_error), with e0
    at dq0's [q, p] as the rollout anchors it.
    """
    error = _pose_error(dqd)
    e0 = np.array(error(_pose_anchor(dq0).tolist())[1:])
    e = np.array(error(poses.T)[1:]).T
    rot = _target_block(xi_dot[:, :3], xi[:, :3], e[:, :3], e0[:3], xs, tau, k_rot, d_rot)
    pos = _target_block(xi_dot[:, 3:], xi[:, 3:], e[:, 3:], e0[3:], xs, tau, k_pos, d_pos)
    return np.concatenate([rot, pos], axis=1)


def dq_train(traj: Trajectory, tau: float, k_rot, k_pos, d_rot, d_pos,
             basis: GaussianBasis) -> DualQuaternionDmp:
    """Fit the coupled pose primitive to a demonstration.

    Six independent weight fits against the shared phase; boundary poses
    are the demonstration endpoints, the only poses encoded as dual
    quaternions.
    """
    k_rot, k_pos = _gain_matrix(k_rot, "k_rot"), _gain_matrix(k_pos, "k_pos")
    d_rot, d_pos = _gain_matrix(d_rot, "d_rot"), _gain_matrix(d_pos, "d_pos")
    der = traj.derived()
    start, goal = (dq_from_pose(Pose(traj.positions[k], traj.quaternions[k])) for k in (0, -1))
    xs = phase(traj.t, basis.alpha_x, tau)
    fd = dq_target_forcing(np.column_stack([traj.quaternions, traj.positions]), der.xi,
                           der.xi_dot, xs, goal, start, tau, k_rot, k_pos, d_rot, d_pos)
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
    p: np.ndarray        # (n, 3) inertial positions, as the loop held them
    xi: np.ndarray       # (n, 6)
    forcing: np.ndarray  # (n, 6)
    error: np.ndarray    # (n, 6)
    lyap: np.ndarray     # (n, 3)

    def poses(self) -> tuple[np.ndarray, np.ndarray]:
        """(positions (n,3), quaternions (n,4)) of the states."""
        return self.p.copy(), self.dq[:, :4].copy()


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
    for name, dq in ("dq0", dq0), ("goal_override", goal_override):
        if dq is not None and not isinstance(dq, DualQuaternion):
            raise ValueError(f"{name} must be a DualQuaternion, not {type(dq).__name__}")
    goal = (model.dqd if goal_override is None
            else _unit_dq(goal_override, "goal_override"))
    start = _unit_dq(dq0, "dq0") if dq0 is not None else model.dq0
    goal_floats = _goal_floats(goal)
    gains = np.diagonal([model.k_rot, model.d_rot, model.k_pos, model.d_pos], 0, 1, 2).tolist()

    def loop(grid, pose, vel, h, half, e0, pack, rows):
        # per step the error of _pose_error, the gain drive and the screw step with
        # their operations in their order; the turn is normalize(q (x) s) as in _product
        (gw, gx, gy, gz), (ox, oy, oz), ((a0, a1, a2), (a3, a4, a5), (a6, a7, a8)) = goal_floats
        (kr0, kr1, kr2), (dr0, dr1, dr2), (kp0, kp1, kp2), (dp0, dp1, dp2) = gains
        (qw, qx, qy, qz, px, py, pz), (v0, v1, v2, v3, v4, v5) = pose, vel
        c0, c1, c2, c3, c4, c5 = e0
        for o, x, f0, f1, f2, f3, f4, f5 in grid:
            ex, ey, ez = ox - px, oy - py, oz - pz
            v0 += h * (kr0 * (qw * gx - gw * qx - qy * gz + qz * gy - c0 * x + f0) - dr0 * v0)
            v1 += h * (kr1 * (qw * gy - gw * qy - qz * gx + qx * gz - c1 * x + f1) - dr1 * v1)
            v2 += h * (kr2 * (qw * gz - gw * qz - qx * gy + qy * gx - c2 * x + f2) - dr2 * v2)
            v3 += h * (kp0 * (a0 * ex + a1 * ey + a2 * ez - c3 * x + f3) - dp0 * v3)
            v4 += h * (kp1 * (a3 * ex + a4 * ey + a5 * ez - c4 * x + f4) - dp1 * v4)
            v5 += h * (kp2 * (a6 * ex + a7 * ey + a8 * ez - c5 * x + f5) - dp2 * v5)
            sw, sx, sy, sz, tx, ty, tz = _screw(half * v0, half * v1, half * v2,
                                                half * v3, half * v4, half * v5)
            ux, uy, uz = _rotate(qw, qx, qy, qz, tx, ty, tz)
            rw = qw * sw - qx * sx - qy * sy - qz * sz
            rx = qw * sx + sw * qx + qy * sz - qz * sy
            ry = qw * sy + sw * qy + qz * sx - qx * sz
            rz = qw * sz + sw * qz + qx * sy - qy * sx
            inv = 1.0 / (rw * rw + rx * rx + ry * ry + rz * rz) ** 0.5
            qw, qx, qy, qz = rw * inv, rx * inv, ry * inv, rz * inv
            px, py, pz = px + ux, py + uy, pz + uz
            pack(rows, o, qw, qx, qy, qz, px, py, pz, v0, v1, v2, v3, v4, v5)

    error = _pose_error(goal)
    ts, xs, poses, xis, f = _integrate(model, tau_override, dt, duration, t_start,
                                       error(_pose_anchor(model.dq0).tolist())[1:],
                                       _pose_anchor(start), xi0, loop)
    q, positions = poses[:, :4], poses[:, 4:].copy()
    dqs = dq_from_pose(Pose(positions, q)).as_array()
    dqs[0] = start.as_array()
    lyap = _checked_energy("dq", "a position error or twist too large for K", lambda: _pose_energy(
        q, positions, xis, goal.real, dq_position(goal), 1.0 / np.diag(model.k_rot),
        1.0 / np.diag(model.k_pos)))
    return DqRollout(ts, xs, dqs, positions, xis, f, np.array(error(poses.T)[1:]).T, lyap)


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
    for name, gain in (("k_pos", k_pos), ("d_pos", d_pos)):
        if not 0.0 < gain < np.inf:
            raise ValueError(f"{name} must be positive and finite")
    k_rot, d_rot = _gain_matrix(k_rot, "k_rot"), _gain_matrix(d_rot, "d_rot")
    pos_basis = basis_scheme_a(n_pos_kernels, alpha_x)
    alpha_z, beta_z = float(d_pos), float(k_pos) / float(d_pos)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        vel = np.gradient(traj.positions, traj.dt, axis=0, edge_order=2)
        acc = np.gradient(vel, traj.dt, axis=0, edge_order=2)
    _check_rates(traj.t, vel, acc)
    # the three axes as one (n, 3) scalar demo: one design matrix for all
    y0, g = traj.positions[0], traj.positions[-1]
    xs = phase(traj.t, pos_basis.alpha_x, tau)
    fd = classical_target_forcing(ScalarDemo(traj.t, traj.positions, vel, acc),
                                  g, xs, tau, alpha_z, beta_z)
    weights, res = _fit(xs, fd, pos_basis)
    axes = tuple(ClassicalDmp(alpha_z, beta_z, pos_basis, weights[dim],
                              float(y0[dim]), float(g[dim]), float(tau), res[dim:dim + 1])
                 for dim in range(3))
    return PoseDecoupledDmp(axes, quat_train(traj, tau, k_rot, d_rot,
                                             basis_scheme_a(n_rot_kernels, alpha_x)))


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
    goals = [None] * 3 if goal_position is None else np.asarray(goal_position, dtype=float)
    if goal_position is not None and not (goals.shape == (3,) and np.isfinite(goals).all()):
        raise ValueError("goal_position: the goal must be finite, with 3 components [px, py, pz]")
    if goal_quat is not None:
        goal_quat = _unit_quat(goal_quat, "goal_quat")
    rolls = [classical_rollout(m, m.y0, dt, duration, goal_override=g, tau_override=tau)
             for m, g in zip(model.position, goals)]
    qroll = quat_rollout(model.orientation, dt=dt, duration=duration,
                         goal_override=goal_quat, tau_override=tau)
    positions = np.stack([r.y for r in rolls], axis=1)
    velocities = np.stack([r.z for r in rolls], axis=1) / tau

    def energy():  # (V, V1, V2), V2 the sum of the axes' energies
        v2 = rolls[0].energy + rolls[1].energy + rolls[2].energy
        return np.stack([qroll.v1 + v2, qroll.v1, v2], axis=1)
    return PoseRollout(rolls[0].t, rolls[0].x, positions, velocities, qroll.q, qroll.omega,
                       _checked_energy("pose-decoupled", "position errors too large", energy))


# ---------------------------------------------------------------------------
# model files

_FORMAT_VERSION = 2
# the one frame a file of each variant may name
_FRAMES = {"classical": "inertial", "quaternion": BODY, "dual_quaternion": BODY}


def _basis_doc(basis: GaussianBasis) -> dict:
    return {"scheme": "a", "alpha_x": basis.alpha_x, "n_kernels": basis.n_kernels,
            "centers": basis.centers.tolist(), "widths": basis.widths.tolist()}


def _basis_from_doc(doc: dict) -> GaussianBasis:
    if doc["scheme"] != "a":
        raise ValueError(f"unknown kernel scheme {doc['scheme']!r}")
    if doc["n_kernels"] != len(doc["centers"]):
        raise ValueError(f"n_kernels is {doc['n_kernels']!r} for {len(doc['centers'])} centers")
    return GaussianBasis(doc["alpha_x"], np.array(doc["centers"], dtype=float),
                         np.array(doc["widths"], dtype=float))


def _model_doc(model) -> dict:
    if isinstance(model, PoseDecoupledDmp):
        return {"format_version": _FORMAT_VERSION, "variant": "pose_decoupled",
                "position": [_model_doc(m) for m in model.position],
                "orientation": _model_doc(model.orientation)}
    if isinstance(model, ClassicalDmp):
        variant, gains = "classical", {"alpha_z": model.alpha_z, "beta_z": model.beta_z}
        boundary = {"y0": model.y0, "goal": model.goal}
    elif isinstance(model, QuaternionDmp):
        variant, gains = "quaternion", {"k": model.k_gain.tolist(), "d": model.d_gain.tolist()}
        boundary = {"q0": model.q0.tolist(), "qd": model.qd.tolist()}
    elif isinstance(model, DualQuaternionDmp):
        variant = "dual_quaternion"
        gains = {k: getattr(model, k).tolist() for k in ("k_rot", "k_pos", "d_rot", "d_pos")}
        boundary = {"dq0": model.dq0.as_array().tolist(), "dqd": model.dqd.as_array().tolist()}
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    return {"format_version": _FORMAT_VERSION, "variant": variant, "frame": _FRAMES[variant],
            "tau": model.tau, "gains": gains, "basis": _basis_doc(model.basis),
            "weights": np.atleast_2d(model.weights).tolist(), "boundary": boundary}


def _model_from_doc(doc: dict):
    """Rebuild a model from its document.  Only the document's own keys are
    checked here (format version, variant, frame, basis); the model refuses
    bad fields when it is built."""
    version = doc.get("format_version")
    if version not in (1, _FORMAT_VERSION):
        raise ValueError(f"unsupported model format version {version!r}")
    variant = doc["variant"]
    if version == 1 and variant in ("classical", "pose_decoupled"):  # quat, dq: as in 2
        raise ValueError(f"model format version 1: {variant} weights are of the old formulation")
    if variant == "pose_decoupled":
        return PoseDecoupledDmp(
            tuple(_model_from_doc(d) for d in doc["position"]),
            _model_from_doc(doc["orientation"]))
    if variant not in _FRAMES:
        raise ValueError(f"unknown model variant {variant!r}")
    if doc["frame"] != _FRAMES[variant]:
        raise ValueError(f"unknown frame {doc['frame']!r}")
    g, b, tau = doc["gains"], doc["boundary"], doc["tau"]
    basis, weights = _basis_from_doc(doc["basis"]), doc["weights"]
    if variant == "classical":
        return ClassicalDmp(g["alpha_z"], g["beta_z"], basis, weights, b["y0"], b["goal"], tau)
    if variant == "quaternion":
        return QuaternionDmp(BODY, g["k"], g["d"], basis, weights, b["q0"], b["qd"], tau)
    return DualQuaternionDmp(g["k_rot"], g["k_pos"], g["d_rot"], g["d_pos"], basis, weights,
                             b["dq0"], b["dqd"], tau)


def _unit_dq(dq, what: str) -> DualQuaternion:
    """A DualQuaternion, or its 8 components, as one of (4,) parts; refused off unit."""
    a = np.asarray(dq.as_array() if isinstance(dq, DualQuaternion) else dq, dtype=float)
    if a.shape != (8,):
        raise ValueError(f"{what} must be a dual quaternion [real, dual]")
    dq = DualQuaternion(a[:4], a[4:])
    _check_unit(dq, f"{what}: dual quaternion")
    return dq


def save_model(model, sink) -> None:
    """Write a model to a path or text stream as a self-describing JSON document.

    The rendering is canonical (sorted keys, repr-exact floats), so
    save -> load -> save reproduces the file byte for byte.
    """
    with open_text(sink, "w") as fh:
        json.dump(_model_doc(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _refuse_booleans(node, path: str = "") -> None:
    """Refuse a JSON true / false anywhere in a model document: no field is a
    boolean, and np.isfinite, float() and comparisons all take true as 1."""
    if isinstance(node, bool):
        raise TypeError(f"{path[1:] or 'the document'} is {json.dumps(node)}; "
                        f"no model field is a boolean")
    for key, child in (node.items() if isinstance(node, dict)
                       else enumerate(node) if isinstance(node, list) else ()):
        _refuse_booleans(child, f"{path}.{key}")


def load_model(source):
    """Read a model file from a path or text stream; ValueError if malformed.
    A model refuses bad fields when it is built, from a file or in code, so
    any model that builds can be saved and loaded again."""
    with open_text(source) as fh:
        doc = json.load(fh)
    try:
        _refuse_booleans(doc)
        return _model_from_doc(doc)
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed model file ({type(exc).__name__}: {exc})") from exc
