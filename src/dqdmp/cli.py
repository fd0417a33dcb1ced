"""Command-line front end: generate demos, train, roll out, compare.

Subcommands
-----------
gen      write a synthetic demonstration (somersault trajectory CSV or
         scalar min-jerk demo CSV)
train    fit a primitive (classical | quat | dq | pose-decoupled) to a
         demo file and write the model JSON
rollout  integrate a trained model and write a plot-ready CSV table
compare  train both the coupled and the decoupled pose model on one demo
         and report reproduction / consistency metrics

Diagnostics go to stderr, data to files or stdout.  Every command is
deterministic given its flags and inputs.  Default parameters follow the
package defaults: coupled model alpha_x 0.05, 30 kernels, unit stiffness;
decoupled baseline alpha_x 0.1, 30/50 kernels, stiffness 10/1; damping
10 sqrt(K) throughout.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .canonical import basis_scheme_a, basis_scheme_b, design_matrix, phase
from .dmp import (
    ClassicalDmp,
    classical_target_forcing,
    dq_target_forcing,
    quat_target_forcing,
    DualQuaternionDmp,
    PoseDecoupledDmp,
    QuaternionDmp,
    classical_rollout,
    classical_train,
    dq_rollout,
    dq_train,
    load_model,
    model_frame_rates,
    pose_rollout,
    pose_train,
    quat_rollout,
    quat_train,
    save_model,
)
from .dualquat import Pose, dq_from_pose, dq_to_pose
from .quat import quat_normalize, quat_to_rotmat
from .traj import (
    ScalarDemo,
    Trajectory,
    gen_min_jerk,
    gen_somersault,
    load_trajectory,
    save_trajectory,
)

_ROLLOUT_HEADER = ("t,x,px,py,pz,qw,qx,qy,qz,wx,wy,wz,vx,vy,vz,V,V1,V2")


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _write_lines(path: str | None, lines) -> None:
    if path is None or path == "-":
        for line in lines:
            sys.stdout.write(line + "\n")
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    if args.dt <= 0.0 or args.duration <= args.dt:
        return _fail("need duration > dt > 0")
    if args.kind == "somersault":
        if args.radius <= 0.0:
            return _fail("radius must be positive")
        traj = gen_somersault(args.radius, args.duration, args.dt)
        save_trajectory(traj, args.output)
        print(f"wrote {len(traj)} samples to {args.output}", file=sys.stderr)
        return 0
    demo = gen_min_jerk(args.start, args.to, args.duration, args.dt)
    lines = ["t,y,yd,ydd"]
    for k in range(len(demo.t)):
        lines.append(",".join(f"{v:.17g}" for v in
                              (demo.t[k], demo.y[k], demo.yd[k], demo.ydd[k])))
    _write_lines(args.output, lines)
    print(f"wrote {len(demo.t)} samples to {args.output}", file=sys.stderr)
    return 0


def load_scalar_demo(path: str) -> ScalarDemo:
    """Read the scalar demo CSV written by `gen minjerk`."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line == "t,y,yd,ydd":
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: expected 4 fields")
            rows.append([float(p) for p in parts])
    if len(rows) < 4:
        raise ValueError("scalar demo too short (need >= 4 samples)")
    data = np.array(rows)
    return ScalarDemo(data[:, 0], data[:, 1], data[:, 2], data[:, 3])


# ---------------------------------------------------------------------------
# train


def _build_basis(scheme: str, n: int, alpha_x: float, total_time: float,
                 dt: float):
    if scheme == "a":
        return basis_scheme_a(n, alpha_x)
    return basis_scheme_b(n, alpha_x, total_time, dt)


def cmd_train(args) -> int:
    try:
        if args.variant == "classical":
            demo = load_scalar_demo(args.demo)
            tau = args.tau if args.tau is not None else demo.duration
            basis = _build_basis(args.scheme, args.kernels, args.alpha_x,
                                 demo.duration, demo.dt)
            model = classical_train(demo, float(demo.y[-1]), tau,
                                    args.alpha_z, args.beta_z, basis)
            fd_residual_report(model, demo=demo)
        else:
            traj = load_trajectory(args.demo)
            if len(traj) < 4:
                return _fail("demo too short to differentiate (need >= 4 samples)")
            tau = args.tau if args.tau is not None else traj.duration
            if args.variant == "dq":
                basis = _build_basis(args.scheme, args.kernels, args.alpha_x,
                                     traj.duration, traj.dt)
                d_rot = args.d_ratio * np.sqrt(args.k_rot)
                d_pos = args.d_ratio * np.sqrt(args.k_pos)
                model = dq_train(traj, tau, args.k_rot, args.k_pos,
                                 d_rot, d_pos, basis)
            elif args.variant == "quat":
                basis = _build_basis(args.scheme, args.kernels, args.alpha_x,
                                     traj.duration, traj.dt)
                model = quat_train(traj, tau, args.k_rot,
                                   args.d_ratio * np.sqrt(args.k_rot), basis,
                                   frame=args.frame)
            elif args.variant == "pose-decoupled":
                model = pose_train(
                    traj, tau, args.alpha_x, args.pos_kernels, args.k_pos,
                    args.d_ratio * np.sqrt(args.k_pos), args.rot_kernels,
                    args.k_rot, args.d_ratio * np.sqrt(args.k_rot))
            else:
                return _fail(f"unknown variant {args.variant}")
            fd_residual_report(model, traj=traj)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))
    save_model(model, args.output)
    print(f"wrote model to {args.output}", file=sys.stderr)
    return 0


def fd_residual_report(model, traj: Trajectory | None = None,
                       demo: ScalarDemo | None = None) -> None:
    """Print per-dimension reproduction residuals of the weight fits."""
    if isinstance(model, PoseDecoupledDmp):
        for axis, sub in zip("xyz", model.position):
            fd_residual_report(sub, demo=ScalarDemo(
                traj.t, traj.positions[:, "xyz".index(axis)],
                np.gradient(traj.positions[:, "xyz".index(axis)], traj.dt,
                            edge_order=2),
                np.gradient(np.gradient(traj.positions[:, "xyz".index(axis)],
                                        traj.dt, edge_order=2), traj.dt,
                            edge_order=2)))
        fd_residual_report(model.orientation, traj=traj)
        return
    if isinstance(model, ClassicalDmp):
        xs = phase(demo.t, model.basis.alpha_x, model.tau)
        fd = classical_target_forcing(demo, model.goal, model.tau,
                                      model.alpha_z, model.beta_z)
        A = design_matrix(xs, model.basis)
        res = np.linalg.norm(A @ model.weights - fd)
        scale = max(np.linalg.norm(fd), 1e-300)
        print(f"fit residual (scalar): {res:.3e} (relative {res/scale:.3e})",
              file=sys.stderr)
        return
    xs = phase(traj.t, model.basis.alpha_x, model.tau)
    if isinstance(model, QuaternionDmp):
        omega, omega_dot = model_frame_rates(traj, model.frame)
        fd = quat_target_forcing(traj.quaternions, omega, omega_dot, xs,
                                 model.qd, model.q0, model.tau, model.k_gain,
                                 model.d_gain, model.frame)
    else:
        der = traj.derived()
        dqs = dq_from_pose(Pose(traj.positions, traj.quaternions)).as_array()
        fd = dq_target_forcing(dqs, der.xi, der.xi_dot, xs, model.dqd,
                               model.dq0, model.tau, model.k_rot, model.k_pos,
                               model.d_rot, model.d_pos)
    A = design_matrix(xs, model.basis)
    for dim in range(fd.shape[1]):
        res = np.linalg.norm(A @ model.weights[dim] - fd[:, dim])
        scale = max(np.linalg.norm(fd[:, dim]), 1e-300)
        print(f"fit residual dim {dim}: {res:.3e} (relative {res/scale:.3e})",
              file=sys.stderr)


# ---------------------------------------------------------------------------
# rollout


def _parse_goal(text: str):
    vals = [float(v) for v in text.split(",")]
    if len(vals) == 3:
        return np.array(vals), None
    if len(vals) == 7:
        return np.array(vals[:3]), quat_normalize(np.array(vals[3:]))
    raise ValueError("--goal takes 'px,py,pz' or 'px,py,pz,qw,qx,qy,qz'")


def cmd_rollout(args) -> int:
    try:
        model = load_model(args.model)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))
    goal_pos = goal_quat = None
    if args.goal is not None:
        try:
            goal_pos, goal_quat = _parse_goal(args.goal)
        except ValueError as exc:
            return _fail(str(exc))
    duration = args.duration
    if isinstance(model, ClassicalDmp):
        tau = args.tau if args.tau is not None else model.tau
        if duration is None:
            duration = 1.5 * tau
        m = model
        if args.tau is not None:
            m = replace(m, tau=args.tau)
        if goal_pos is not None:
            m = replace(m, goal=float(goal_pos[0]))
        roll = classical_rollout(m, m.y0, args.dt, duration)
        k_cl = m.alpha_z * m.beta_z
        lines = [_ROLLOUT_HEADER]
        for k in range(len(roll.t)):
            err = m.goal - roll.y[k]
            v = roll.z[k] / m.tau
            v2 = 0.5 * err * err + 0.5 * v * v / k_cl
            row = [roll.t[k], roll.x[k], roll.y[k], 0.0, 0.0,
                   1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, v, 0.0, 0.0,
                   v2, 0.0, v2]
            lines.append(",".join(f"{val:.17g}" for val in row))
    elif isinstance(model, QuaternionDmp):
        tau = args.tau if args.tau is not None else model.tau
        if duration is None:
            duration = 1.5 * tau
        roll = quat_rollout(model, dt=args.dt, duration=duration,
                            goal_override=goal_quat, tau_override=args.tau)
        lines = [_ROLLOUT_HEADER]
        for k in range(len(roll.t)):
            om = roll.omega[k] / tau
            row = [roll.t[k], roll.x[k], 0.0, 0.0, 0.0, *roll.q[k], *om,
                   0.0, 0.0, 0.0, roll.v1[k], roll.v1[k], 0.0]
            lines.append(",".join(f"{val:.17g}" for val in row))
    elif isinstance(model, DualQuaternionDmp):
        tau = args.tau if args.tau is not None else model.tau
        if duration is None:
            duration = 1.5 * tau
        goal_dq = None
        if goal_pos is not None:
            base = dq_to_pose(model.dqd)
            goal_dq = dq_from_pose(Pose(
                goal_pos, goal_quat if goal_quat is not None else base.orientation))
        roll = dq_rollout(model, dt=args.dt, duration=duration,
                          goal_override=goal_dq, tau_override=args.tau)
        pos, quat = roll.poses()
        lines = [_ROLLOUT_HEADER]
        for k in range(len(roll.t)):
            tw = roll.xi[k] / tau
            row = [roll.t[k], roll.x[k], *pos[k], *quat[k], *tw,
                   *roll.lyap[k]]
            lines.append(",".join(f"{val:.17g}" for val in row))
    elif isinstance(model, PoseDecoupledDmp):
        tau = args.tau if args.tau is not None else model.orientation.tau
        if duration is None:
            duration = 1.5 * tau
        roll = pose_rollout(model, args.dt, duration, goal_position=goal_pos,
                            goal_quat=goal_quat, tau_override=args.tau)
        k_rot = model.orientation.k_gain
        k_cl = model.position[0].alpha_z * model.position[0].beta_z
        goals = np.array([m.goal for m in model.position]) \
            if goal_pos is None else goal_pos
        qd = model.orientation.qd if goal_quat is None else goal_quat
        lines = [_ROLLOUT_HEADER]
        for k in range(len(roll.t)):
            om = roll.omega[k] / tau
            dqq = qd - roll.q[k]
            v1 = float(dqq @ dqq
                       + 0.5 * roll.omega[k] @ np.linalg.solve(k_rot, roll.omega[k]))
            dp = goals - roll.positions[k]
            vel = roll.velocities[k] * tau
            v2 = float(0.5 * dp @ dp + 0.5 * vel @ vel / k_cl)
            row = [roll.t[k], roll.x[k], *roll.positions[k], *roll.q[k],
                   *om, *roll.velocities[k], v1 + v2, v1, v2]
            lines.append(",".join(f"{val:.17g}" for val in row))
    else:
        return _fail("unsupported model type")
    _write_lines(args.output, lines)
    print(f"rollout table: {len(lines) - 1} rows", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# compare


def compare_on_demo(traj: Trajectory, dt: float | None = None,
                    dq_params: dict | None = None,
                    pose_params: dict | None = None) -> dict:
    """Train the coupled and the decoupled model on one demo and measure.

    Returns a dict with per-model position RMSE, orientation geodesic RMSE,
    terminal errors and the kinematic-consistency residual: the mean over
    samples of || finite-difference pdot_s - R(q) v_body ||, where v_body
    is each model's own body-frame linear-velocity channel (the twist state
    for the coupled model, the attitude-rotated position-primitive velocity
    for the decoupled one).
    """
    dt = traj.dt if dt is None else dt
    T = traj.duration
    dqp = {"alpha_x": 0.05, "kernels": 30, "k_rot": 1.0, "k_pos": 1.0,
           "d_ratio": 10.0}
    dqp.update(dq_params or {})
    pp = {"alpha_x": 0.1, "pos_kernels": 30, "k_pos": 10.0, "rot_kernels": 50,
          "k_rot": 1.0, "d_ratio": 10.0}
    pp.update(pose_params or {})

    basis = basis_scheme_a(dqp["kernels"], dqp["alpha_x"])
    dq_model = dq_train(traj, T, dqp["k_rot"], dqp["k_pos"],
                        dqp["d_ratio"] * np.sqrt(dqp["k_rot"]),
                        dqp["d_ratio"] * np.sqrt(dqp["k_pos"]), basis)
    xi0 = traj.derived().xi[0] * T
    droll = dq_rollout(dq_model, xi0=xi0, dt=dt, duration=T)
    dpos, dquat = droll.poses()
    dvel_body = droll.xi[:, 3:] / T

    pose_model = pose_train(traj, T, pp["alpha_x"], pp["pos_kernels"],
                            pp["k_pos"], pp["d_ratio"] * np.sqrt(pp["k_pos"]),
                            pp["rot_kernels"], pp["k_rot"],
                            pp["d_ratio"] * np.sqrt(pp["k_rot"]))
    proll = pose_rollout(pose_model, dt, T)

    def metrics(pos, quat, v_body):
        n = min(len(pos), len(traj))
        dp = pos[:n] - traj.positions[:n]
        pos_rmse = float(np.sqrt(np.mean(np.sum(dp**2, axis=1))))
        dots = np.abs(np.sum(quat[:n] * traj.quaternions[:n], axis=1))
        ang = 2.0 * np.arccos(np.clip(dots, 0.0, 1.0))
        ori_rmse = float(np.sqrt(np.mean(ang**2)))
        term_pos = float(np.linalg.norm(pos[n - 1] - traj.positions[n - 1]))
        term_ang = float(ang[n - 1])
        pdot_fd = np.gradient(pos[:n], dt, axis=0, edge_order=2)
        resid = np.array([
            np.linalg.norm(pdot_fd[k] - quat_to_rotmat(quat[k]) @ v_body[k])
            for k in range(n)])
        return {
            "position_rmse_m": pos_rmse,
            "orientation_rmse_rad": ori_rmse,
            "terminal_position_m": term_pos,
            "terminal_orientation_rad": term_ang,
            "kinematic_residual_mean_mps": float(resid.mean()),
            "kinematic_residual_max_mps": float(resid.max()),
        }

    pvel_body = np.array([
        quat_to_rotmat(proll.q[k]).T @ proll.velocities[k]
        for k in range(len(proll.t))])
    return {
        "dq": metrics(dpos, dquat, dvel_body),
        "pose_decoupled": metrics(proll.positions, proll.q, pvel_body),
    }


def cmd_compare(args) -> int:
    try:
        traj = load_trajectory(args.demo)
        if len(traj) < 4:
            return _fail("demo too short to differentiate (need >= 4 samples)")
        report = compare_on_demo(traj, dt=args.dt)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))
    fields = ["position_rmse_m", "orientation_rmse_rad",
              "terminal_position_m", "terminal_orientation_rad",
              "kinematic_residual_mean_mps", "kinematic_residual_max_mps"]
    lines = ["model," + ",".join(fields)]
    for name in ("dq", "pose_decoupled"):
        lines.append(name + "," +
                     ",".join(f"{report[name][f]:.17g}" for f in fields))
    _write_lines(args.output, lines)
    print("comparison on", args.demo, file=sys.stderr)
    for name in ("dq", "pose_decoupled"):
        m = report[name]
        print(f"  {name:15s} pos RMSE {m['position_rmse_m']:.4f} m | "
              f"ori RMSE {m['orientation_rmse_rad']:.5f} rad | "
              f"consistency {m['kinematic_residual_mean_mps']:.4f} m/s",
              file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dqdmp",
                                description="dual-quaternion motion primitives")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic demonstration")
    gsub = g.add_subparsers(dest="kind", required=True)
    gs = gsub.add_parser("somersault", help="closed vertical loop trajectory")
    gs.add_argument("--radius", type=float, default=50.0)
    gs.add_argument("--duration", type=float, default=18.9)
    gs.add_argument("--dt", type=float, default=0.01)
    gs.add_argument("-o", "--output", default="-")
    gs.set_defaults(func=cmd_gen)
    gm = gsub.add_parser("minjerk", help="scalar rest-to-rest demo")
    gm.add_argument("--from", dest="start", type=float, default=0.0)
    gm.add_argument("--to", type=float, default=1.0)
    gm.add_argument("--duration", type=float, default=1.0)
    gm.add_argument("--dt", type=float, default=0.01)
    gm.add_argument("-o", "--output", default="-")
    gm.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="fit a primitive to a demo file")
    t.add_argument("--variant", choices=["classical", "quat", "dq",
                                         "pose-decoupled"], default="dq")
    t.add_argument("--demo", required=True)
    t.add_argument("-o", "--output", required=True)
    t.add_argument("--scheme", choices=["a", "b"], default="a")
    t.add_argument("--alpha-x", type=float, default=0.05)
    t.add_argument("--kernels", type=int, default=30)
    t.add_argument("--k-rot", type=float, default=1.0)
    t.add_argument("--k-pos", type=float, default=1.0)
    t.add_argument("--d-ratio", type=float, default=10.0,
                   help="damping = d-ratio * sqrt(stiffness)")
    t.add_argument("--tau", type=float, default=None,
                   help="time scale; defaults to the demo duration")
    t.add_argument("--frame", choices=["body", "inertial"], default="body")
    t.add_argument("--alpha-z", type=float, default=25.0)
    t.add_argument("--beta-z", type=float, default=6.25)
    t.add_argument("--pos-kernels", type=int, default=30)
    t.add_argument("--rot-kernels", type=int, default=50)
    t.set_defaults(func=cmd_train)

    r = sub.add_parser("rollout", help="integrate a trained model")
    r.add_argument("--model", required=True)
    r.add_argument("--dt", type=float, default=0.01)
    r.add_argument("--duration", type=float, default=None,
                   help="defaults to 1.5 tau")
    r.add_argument("--goal", default=None,
                   help="override goal: 'px,py,pz[,qw,qx,qy,qz]'")
    r.add_argument("--tau", type=float, default=None)
    r.add_argument("-o", "--output", default="-")
    r.set_defaults(func=cmd_rollout)

    c = sub.add_parser("compare", help="coupled vs decoupled on one demo")
    c.add_argument("--demo", required=True)
    c.add_argument("--dt", type=float, default=None,
                   help="rollout step; defaults to the demo step")
    c.add_argument("-o", "--output", default="-")
    c.set_defaults(func=cmd_compare)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
