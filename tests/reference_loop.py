"""The one reference rollout loop the oracle tests share; pytest does not collect it."""

import numpy as np

from dqdmp.canonical import phase


def reference_loop(model, tau_override, dt, duration, t_start, e0, pose, vel, gains, *,
                   error, turn, forcing, energy=None):
    """The DMP state equations stepped as written from (pose, vel), on the clock
    t_start + k dt, k = 0 .. round(duration / dt), and its phase x: the drive
    v <- v + h (K (e - e0 x + f) - D v), h = dt / tau, then pose <- turn(pose, v, h).

    Each reference hands in its variant's own float formulas: e = error(pose),
    f = forcing(x), the turn and energy(pose, v).  tau is tau_override, model.tau
    if None; duration defaults to 1.5 tau and vel None to zero; gains is (K, D).
    Returns t, x, the list of poses and, one row per sample, arrays of v,
    forcing, energy and error."""
    tau = model.tau if tau_override is None else float(tau_override)
    n = int(round((1.5 * tau if duration is None else duration) / dt))
    ts = t_start + np.arange(n + 1) * dt
    xs = phase(ts, model.basis.alpha_x, tau)
    (K, D), h = gains, dt / tau
    v = np.zeros(np.shape(e0)) if vel is None else np.asarray(vel, dtype=float)
    fs, poses, vs = [forcing(x) for x in xs], [pose], [v]
    for x, f in zip(xs[:-1], fs):
        v = v + h * (K * (error(pose) - e0 * x + f) - D * v)
        pose = turn(pose, v, h)
        poses.append(pose)
        vs.append(v)
    energies = None if energy is None else np.array([energy(*s) for s in zip(poses, vs)])
    return dict(t=ts, x=xs, poses=poses, v=np.array(vs), forcing=np.array(fs), energy=energies,
                error=np.array([error(p) for p in poses]))
