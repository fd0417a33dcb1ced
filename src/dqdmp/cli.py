"""Command-line front end: generate demos, train, roll out, compare.

Subcommands
-----------
gen      write a synthetic demonstration (somersault trajectory CSV or
         scalar min-jerk demo CSV)
train    fit a primitive (classical | quat | dq | pose-decoupled; every
         orientation in the body frame) to a demo and write the model JSON
rollout  integrate a trained model and write a plot-ready CSV table; a
         --goal may set only components the model has a state for
compare  train both the coupled and the decoupled pose model on one demo
         and report reproduction / consistency metrics

Diagnostics go to stderr, data to files or stdout.  Every command is
deterministic given its flags and inputs.  train's flags default to
alpha_x 0.05, 30 kernels (30 / 50 for the baseline's position /
orientation), unit stiffness K_rot = K_pos = 1 and damping 10 sqrt(K) for
every variant.  compare trains the coupled model at those settings and the
decoupled baseline at alpha_x 0.1 and stiffness 10 / 1.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .canonical import basis_scheme_a
# unused here; bench/spans.py wraps these three names on this module
from .canonical import design_matrix
from .dmp import dq_target_forcing, quat_target_forcing
from .dmp import (
    ClassicalDmp,
    DualQuaternionDmp,
    PoseDecoupledDmp,
    QuaternionDmp,
    _gain_matrix,
    classical_rollout,
    classical_train,
    dq_rollout,
    dq_train,
    load_model,
    pose_rollout,
    pose_train,
    quat_rollout,
    quat_train,
    save_model,
)
from .dualquat import Pose, dq_from_pose
from .quat import quat_conjugate, quat_normalize, quat_product, quat_rotate, quat_rotate_inverse
from .traj import (
    Trajectory,
    csv_chunks,
    gen_min_jerk,
    gen_somersault,
    load_scalar_demo,
    load_trajectory,
    open_text,
    save_trajectory,
)

_ROLLOUT_HEADER = ("t,x,px,py,pz,qw,qx,qy,qz,wx,wy,wz,vx,vy,vz,V,V1,V2")


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _text_sink(path: str):
    """stdout for '-', else the file at path opened for writing."""
    return open_text(sys.stdout if path == "-" else path, "w")


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    # the demo is made before the sink is opened: a refused flag writes nothing
    try:
        if args.kind == "somersault":
            demo = gen_somersault(args.radius, args.duration, args.dt)
        else:
            demo = gen_min_jerk(args.start, args.to, args.duration, args.dt)
    except ValueError as exc:
        return _fail(str(exc))
    with _text_sink(args.output) as fh:
        if args.kind == "somersault":
            save_trajectory(demo, fh)
        else:
            fh.writelines(csv_chunks(
                "t,y,yd,ydd", np.column_stack([demo.t, demo.y, demo.yd, demo.ydd])))
    print(f"wrote {len(demo.t)} samples to {args.output}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# train


def _damping(args, stiffness: str):
    """--d-ratio times the square root of the stiffness flag k_rot or k_pos,
    refused by the flag's name first (the root of a negative one warns)."""
    k = getattr(args, stiffness)
    if not 0.0 < k < np.inf:
        raise ValueError(f"{stiffness} must be positive and finite")
    return args.d_ratio * np.sqrt(k)


def cmd_train(args) -> int:
    try:
        if args.variant == "classical":
            demo = load_scalar_demo(args.demo)
            tau = args.tau if args.tau is not None else demo.duration
            model = classical_train(demo, float(demo.y[-1]), tau, args.alpha_z,
                                    args.beta_z, basis_scheme_a(args.kernels, args.alpha_x))
        else:
            traj = load_trajectory(args.demo)
            tau = args.tau if args.tau is not None else traj.duration
            if args.variant == "dq":
                model = dq_train(traj, tau, args.k_rot, args.k_pos,
                                 _damping(args, "k_rot"), _damping(args, "k_pos"),
                                 basis_scheme_a(args.kernels, args.alpha_x))
            elif args.variant == "quat":
                # checked under the flags' gain names, not the model's k_gain / d_gain
                model = quat_train(traj, tau, _gain_matrix(args.k_rot, "k_rot"),
                                   _gain_matrix(_damping(args, "k_rot"), "d_rot"),
                                   basis_scheme_a(args.kernels, args.alpha_x))
            else:  # pose-decoupled
                model = pose_train(
                    traj, tau, args.alpha_x, args.pos_kernels, args.k_pos,
                    _damping(args, "k_pos"), args.rot_kernels, args.k_rot,
                    _damping(args, "k_rot"))
    except (ValueError, OSError) as exc:
        return _fail(str(exc))
    _print_fit_residuals(model)
    save_model(model, args.output)
    print(f"wrote model to {args.output}", file=sys.stderr)
    return 0


def _print_fit_residuals(model) -> None:
    """Print the per-dimension residuals of the weight fits from training."""
    if isinstance(model, PoseDecoupledDmp):
        for sub in (*model.position, model.orientation):
            _print_fit_residuals(sub)
        return
    for dim, (res, rel) in enumerate(model.fit_residuals):
        label = "(scalar)" if isinstance(model, ClassicalDmp) else f"dim {dim}"
        print(f"fit residual {label}: {res:.3e} (relative {rel:.3e})", file=sys.stderr)


# ---------------------------------------------------------------------------
# rollout


def _parse_goal(text: str, model):
    """--goal as the model's rollout takes its goal override: px, a unit
    quaternion, a unit dual quaternion or the baseline's (position, unit
    quaternion or None).  Checks the flag's own rules (finite numbers, 3 or 7,
    none the model has no state for), then the goal with the model's own
    rollout, run for zero duration; refused under the flag's name."""
    try:
        vals = [float(v) for v in text.split(",")]
        if not np.isfinite(vals).all():
            raise ValueError("components must be finite")
        if len(vals) not in (3, 7):
            raise ValueError("takes 'px,py,pz' or 'px,py,pz,qw,qx,qy,qz'")
        pos = np.array(vals[:3])
        quat = quat_normalize(np.array(vals[3:])) if len(vals) == 7 else None
        if isinstance(model, QuaternionDmp) and (quat is None or pos.any()):
            raise ValueError("a quaternion model has only an attitude: give '0,0,0,qw,qx,qy,qz'")
        if isinstance(model, ClassicalDmp) and (quat is not None or pos[1:].any()):
            raise ValueError("a classical model has only px: give 'px,0,0'")
        if isinstance(model, QuaternionDmp):
            goal = quat
        elif isinstance(model, DualQuaternionDmp):
            goal = dq_from_pose(Pose(pos, model.dqd.real if quat is None else quat))
        else:
            goal = vals[0] if isinstance(model, ClassicalDmp) else (pos, quat)
        _rollout_table(model, 1.0, 0.0, None, goal)
        return goal
    except ValueError as exc:
        raise ValueError(f"--goal {text!r}: {exc}") from None


def cmd_rollout(args) -> int:
    try:
        model = load_model(args.model)
        goal = None if args.goal is None else _parse_goal(args.goal, model)
        table = _rollout_table(model, args.dt, args.duration, args.tau, goal)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))
    with _text_sink(args.output) as fh:
        fh.writelines(csv_chunks(_ROLLOUT_HEADER, table))
    print(f"rollout table: {len(table)} rows", file=sys.stderr)
    return 0


def _rollout_table(model, dt: float, duration: float | None,
                   tau_override: float | None, goal):
    """Roll a model out to the goal override of _parse_goal (None for the
    model's own goal) and lay its states out in the _ROLLOUT_HEADER
    columns, with physical (not tau-scaled) rates: wx, wy, wz the body rate, vx,
    vy, vz R(q)^T pdot in body axes (dq, xi[3:] / tau), the inertial pdot
    (pose-decoupled), z / tau in vx alone (classical) or zero (quat)."""
    tau = tau_override
    if tau is None:
        tau = model.orientation.tau if isinstance(model, PoseDecoupledDmp) else model.tau
    if isinstance(model, ClassicalDmp):
        roll = classical_rollout(model, model.y0, dt, duration, tau_override=tau_override,
                                 goal_override=goal)
        zero, one = np.zeros(len(roll.t)), np.ones(len(roll.t))
        return np.column_stack([roll.t, roll.x, roll.y, zero, zero,
                                one, zero, zero, zero, zero, zero, zero,
                                roll.z / tau, zero, zero,
                                roll.energy, zero, roll.energy])
    if isinstance(model, QuaternionDmp):
        roll = quat_rollout(model, dt=dt, duration=duration,
                            goal_override=goal, tau_override=tau_override)
        zero = np.zeros(len(roll.t))
        return np.column_stack([roll.t, roll.x, zero, zero, zero, roll.q,
                                roll.omega / tau, zero, zero, zero,
                                roll.v1, roll.v1, zero])
    if isinstance(model, DualQuaternionDmp):
        roll = dq_rollout(model, dt=dt, duration=duration,
                          goal_override=goal, tau_override=tau_override)
        pos, quat = roll.poses()
        return np.column_stack([roll.t, roll.x, pos, quat, roll.xi / tau,
                                roll.lyap])
    goal_pos, goal_quat = (None, None) if goal is None else goal
    roll = pose_rollout(model, dt, duration, goal_position=goal_pos,
                        goal_quat=goal_quat, tau_override=tau_override)
    return np.column_stack([roll.t, roll.x, roll.positions, roll.q,
                            roll.omega / tau, roll.velocities, roll.energy])


# ---------------------------------------------------------------------------
# compare


def compare_on_demo(traj: Trajectory) -> dict:
    """Train the coupled and the decoupled model on one demo, roll both out
    on the demo's own step and measure them against it sample by sample.

    Returns a dict with per-model position RMSE, orientation geodesic RMSE,
    terminal errors and the kinematic-consistency residual: the mean over
    samples of || finite-difference pdot_s - R(q) v_body ||, where v_body
    is each model's own body-frame linear-velocity channel (the twist state
    for the coupled model, the attitude-rotated position-primitive velocity
    for the decoupled one).
    """
    dt, T = traj.dt, traj.duration
    # coupled: alpha_x 0.05, 30 kernels, K 1, damping 10 sqrt(K)
    dq_model = dq_train(traj, T, 1.0, 1.0, 10.0, 10.0, basis_scheme_a(30, 0.05))
    xi0 = traj.derived().xi[0] * T
    droll = dq_rollout(dq_model, xi0=xi0, dt=dt, duration=T)
    dpos, dquat = droll.poses()
    dvel_body = droll.xi[:, 3:] / T

    # decoupled: alpha_x 0.1, 30 position / 50 orientation kernels, K 10 / 1
    pose_model = pose_train(traj, T, 0.1, 30, 10.0, 10.0 * np.sqrt(10.0), 50, 1.0, 10.0)
    proll = pose_rollout(pose_model, dt, T)

    def metrics(pos, quat, v_body):
        # on the demo's step and duration, row k of a rollout is at demo time t[k]
        dp = pos - traj.positions
        pos_rmse = float(np.sqrt(np.mean(np.sum(dp**2, axis=1))))
        r = quat_product(quat_conjugate(quat), traj.quaternions)  # 0 for equal rotations
        ang = 2.0 * np.arctan2(np.linalg.norm(r[:, 1:], axis=1), np.abs(r[:, 0]))
        ori_rmse = float(np.sqrt(np.mean(ang**2)))
        term_pos = float(np.linalg.norm(pos[-1] - traj.positions[-1]))
        term_ang = float(ang[-1])
        pdot_fd = np.gradient(pos, dt, axis=0, edge_order=2)
        resid = np.linalg.norm(pdot_fd - quat_rotate(quat, v_body), axis=1)
        return {
            "position_rmse_m": pos_rmse,
            "orientation_rmse_rad": ori_rmse,
            "terminal_position_m": term_pos,
            "terminal_orientation_rad": term_ang,
            "kinematic_residual_mean_mps": float(resid.mean()),
            "kinematic_residual_max_mps": float(resid.max()),
        }

    pvel_body = quat_rotate_inverse(proll.q, proll.velocities)
    return {
        "dq": metrics(dpos, dquat, dvel_body),
        "pose_decoupled": metrics(proll.positions, proll.q, pvel_body),
    }


def cmd_compare(args) -> int:
    try:
        report = compare_on_demo(load_trajectory(args.demo))
    except (ValueError, OSError) as exc:
        return _fail(str(exc))
    fields = list(report["dq"])
    lines = ["model," + ",".join(fields)]
    for name in ("dq", "pose_decoupled"):
        lines.append(name + "," +
                     ",".join(f"{report[name][f]:.17g}" for f in fields))
    with _text_sink(args.output) as fh:
        fh.writelines(line + "\n" for line in lines)
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
    t.add_argument("--alpha-x", type=float, default=0.05)
    t.add_argument("--kernels", type=int, default=30)
    t.add_argument("--k-rot", type=float, default=1.0)
    t.add_argument("--k-pos", type=float, default=1.0)
    t.add_argument("--d-ratio", type=float, default=10.0,
                   help="damping = d-ratio * sqrt(stiffness)")
    t.add_argument("--tau", type=float, default=None,
                   help="time scale; defaults to the demo duration")
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
    c.add_argument("-o", "--output", default="-")
    c.set_defaults(func=cmd_compare)
    return p


def main(argv=None) -> int:
    # argparse takes a value such as '-1,0,0', '-5e-1' or '-inf' for an option of
    # its own: bind the next word to every option but --help, as '--flag=value'
    words, argv = iter(sys.argv[1:] if argv is None else argv), []
    for word in words:
        takes_value = word.startswith("-") and "=" not in word and word not in ("-h", "--help")
        value = next(words, None) if takes_value else None
        argv.append(word if value is None else f"{word}={value}")
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
