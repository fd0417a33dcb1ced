"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criteria with runtime budgets measure wall time of the work they perform;
the coupled-model training is cached so later criteria reuse it, with its
training time charged to the reproduction criterion that owns it.
"""

import time

import numpy as np

from dqdmp import (
    BODY,
    ClassicalDmp,
    DualQuaternion,
    DualQuaternionDmp,
    Pose,
    QuaternionDmp,
    basis_scheme_a,
    classical_rollout,
    classical_train,
    dq_derivative_body,
    dq_exp,
    dq_from_pose,
    dq_log,
    dq_rollout,
    dq_to_pose,
    dq_train,
    forcing,
    gen_min_jerk,
    gen_somersault,
    phase,
    fit_weights,
    quat_conjugate,
    quat_exp,
    quat_log,
    quat_product,
    quat_rollout,
    quat_to_rotmat,
    quat_vec,
    twist_to_inertial,
)

from conftest import random_rotvec, random_unit_dq, random_unit_quat

# reference maneuver and coupled-model parameters shared by criteria 5-9
RADIUS, DURATION, DT = 50.0, 18.9, 0.01
ALPHA_X, N_KERNELS, K_GAIN = 0.05, 30, 1.0
D_GAIN = 10.0 * np.sqrt(K_GAIN)

_cache = {}


def report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def somersault_model():
    """Train the reference coupled model once; remember the training time."""
    if "model" not in _cache:
        traj = gen_somersault(RADIUS, DURATION, DT)
        t0 = time.perf_counter()
        model = dq_train(traj, DURATION, K_GAIN, K_GAIN, D_GAIN, D_GAIN,
                         basis_scheme_a(N_KERNELS, ALPHA_X))
        _cache["train_time"] = time.perf_counter() - t0
        _cache["traj"] = traj
        _cache["model"] = model
        _cache["xi0"] = traj.derived().xi[0] * DURATION
    return _cache["traj"], _cache["model"], _cache["xi0"]


def reproduction_rollout():
    if "repro" not in _cache:
        traj, model, xi0 = somersault_model()
        t0 = time.perf_counter()
        roll = dq_rollout(model, xi0=xi0, dt=DT, duration=DURATION)
        _cache["repro_time"] = time.perf_counter() - t0
        _cache["repro"] = roll
    return _cache["repro"]


def pose_errors(dq_row, goal):
    pose = dq_to_pose(DualQuaternion(dq_row[:4].copy(), dq_row[4:].copy()))
    gpose = dq_to_pose(goal)
    pos = float(np.linalg.norm(pose.position - gpose.position))
    ang = 2.0 * np.arccos(min(1.0, abs(pose.orientation @ gpose.orientation)))
    return pos, ang


def test_criterion_1_algebra_suite():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = dict(conj=0.0, rev=0.0, rt_q=0.0, rt_dq=0.0, orth=0.0, sand=0.0)
    for _ in range(1000):
        q = random_unit_quat(rng)
        worst["conj"] = max(worst["conj"], np.max(np.abs(
            quat_product(q, quat_conjugate(q)) - [1, 0, 0, 0])))
        a, b = random_unit_quat(rng), random_unit_quat(rng)
        worst["rev"] = max(worst["rev"], np.max(np.abs(
            quat_conjugate(quat_product(a, b))
            - quat_product(quat_conjugate(b), quat_conjugate(a)))))
        r = random_rotvec(rng, np.pi - 1e-3)
        worst["rt_q"] = max(worst["rt_q"],
                            np.linalg.norm(quat_log(quat_exp(r)) - r))
        rr = random_rotvec(rng, np.pi - 0.1)
        v = rng.normal(size=3)
        tw = dq_log(dq_exp(np.concatenate([rr, v])))
        worst["rt_dq"] = max(worst["rt_dq"],
                             max(np.linalg.norm(tw[:3] - rr),
                                 np.linalg.norm(tw[3:] - v)))
        R = quat_to_rotmat(q)
        worst["orth"] = max(worst["orth"], np.max(np.abs(R.T @ R - np.eye(3))))
        u = rng.normal(size=3)
        sandwich = quat_vec(quat_product(
            q, quat_product(np.array([0.0, *u]), quat_conjugate(q))))
        worst["sand"] = max(worst["sand"], np.max(np.abs(R @ u - sandwich)))
    elapsed = time.perf_counter() - t0
    ok = (worst["conj"] <= 1e-12 and worst["rev"] <= 1e-12
          and worst["rt_q"] <= 1e-9 and worst["rt_dq"] <= 1e-9
          and worst["orth"] <= 1e-9 and worst["sand"] <= 1e-9
          and elapsed < 5.0)
    report(1, ok,
           f"algebra suite over 1000 seeds: conj {worst['conj']:.1e}, "
           f"reversal {worst['rev']:.1e}, quat exp/log {worst['rt_q']:.1e}, "
           f"dq exp/log {worst['rt_dq']:.1e}, orthonormality {worst['orth']:.1e}, "
           f"sandwich {worst['sand']:.1e} ({elapsed:.2f} s < 5 s)")


def test_criterion_2_kinematics_duality():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        dq = random_unit_dq(rng)
        xi_b = np.concatenate([rng.normal(size=3), rng.normal(size=3)])
        xi_s = twist_to_inertial(xi_b, dq)
        rhs = dq_derivative_body(dq, xi_b)
        w = np.array([0.0, *xi_s[:3]])
        v = np.array([0.0, *xi_s[3:]])
        lhs_real = 0.5 * quat_product(w, dq.real)
        lhs_dual = 0.5 * (quat_product(w, dq.dual) + quat_product(v, dq.real))
        worst = max(worst, np.max(np.abs(lhs_real - rhs.real)),
                    np.max(np.abs(lhs_dual - rhs.dual)))
    ok = worst <= 1e-9
    report(2, ok, f"body/inertial kinematics agree on 1000 states "
                  f"(worst {worst:.2e} <= 1e-9)")


def test_criterion_3_goal_convergence():
    rng = np.random.default_rng(3)
    basis = basis_scheme_a(30, 2.0)
    k, d = 625.0, 10.0 * np.sqrt(625.0)
    dt, horizon, runs = 0.0035, 10.0, 100
    t0 = time.perf_counter()

    worst_pose = worst_vel = 0.0
    worst_v1_inc = -np.inf
    for _ in range(runs):
        start, goal = random_unit_dq(rng), random_unit_dq(rng)
        m = DualQuaternionDmp(k * np.eye(3), k * np.eye(3), d * np.eye(3),
                              d * np.eye(3), basis, np.zeros((6, 30)),
                              start, goal, 1.0)
        roll = dq_rollout(m, dt=dt, duration=horizon)
        pos, ang = pose_errors(roll.dq[-1], goal)
        worst_pose = max(worst_pose, pos, ang)
        worst_vel = max(worst_vel, np.linalg.norm(roll.xi[-1]))
        worst_v1_inc = max(worst_v1_inc, np.max(np.diff(roll.lyap[:, 1])))

    worst_q_pose = worst_q_vel = 0.0
    for _ in range(runs):
        q0, qd = random_unit_quat(rng), random_unit_quat(rng)
        m = QuaternionDmp(BODY, k * np.eye(3), d * np.eye(3), basis,
                          np.zeros((3, 30)), q0, qd, 1.0)
        roll = quat_rollout(m, dt=dt, duration=horizon)
        ang = 2 * np.arccos(min(1.0, abs(roll.q[-1] @ qd)))
        worst_q_pose = max(worst_q_pose, ang)
        worst_q_vel = max(worst_q_vel, np.linalg.norm(roll.omega[-1]))

    worst_c_pose = worst_c_vel = 0.0
    alpha_z, beta_z = d, k / d
    for _ in range(runs):
        y0, g = rng.uniform(-2, 2), rng.uniform(-2, 2)
        m = ClassicalDmp(alpha_z, beta_z, basis, np.zeros(30), y0, g, 1.0)
        roll = classical_rollout(m, y0, dt, horizon)
        worst_c_pose = max(worst_c_pose, abs(roll.y[-1] - g))
        worst_c_vel = max(worst_c_vel, abs(roll.z[-1]))

    elapsed = time.perf_counter() - t0
    ok = (worst_pose < 1e-3 and worst_vel < 1e-3
          and worst_q_pose < 1e-3 and worst_q_vel < 1e-3
          and worst_c_pose < 1e-3 and worst_c_vel < 1e-3
          and worst_v1_inc <= 1e-8 and elapsed < 30.0)
    report(3, ok,
           f"zero-weight convergence, D = 10 sqrt(K), {runs} pairs/variant: "
           f"dq pose {worst_pose:.1e} vel {worst_vel:.1e}, "
           f"quat pose {worst_q_pose:.1e} vel {worst_q_vel:.1e}, "
           f"classical pose {worst_c_pose:.1e} vel {worst_c_vel:.1e}, "
           f"max V1 step increase {worst_v1_inc:.1e} <= 1e-8 "
           f"({elapsed:.1f} s < 30 s)")


def test_criterion_4_classical_reproduction():
    demo = gen_min_jerk(0.0, 1.0, 1.0, 0.01)
    basis = basis_scheme_a(30, 2.0)
    model = classical_train(demo, 1.0, 1.0, 25.0, 6.25, basis)
    roll = classical_rollout(model, 0.0, 0.01, 3.0)
    n = len(demo.t)
    rmse = float(np.sqrt(np.mean((roll.y[:n] - demo.y) ** 2)))
    endpoint = abs(roll.y[-1] - 1.0)
    ok = rmse < 1e-2 and endpoint < 1e-3
    report(4, ok, f"min-jerk reproduction: rollout RMSE {rmse:.2e} < 1e-2, "
                  f"endpoint {endpoint:.2e} < 1e-3")


def test_criterion_5_dq_reproduction():
    traj, model, xi0 = somersault_model()
    roll = reproduction_rollout()
    t0 = time.perf_counter()
    pos, quat = roll.poses()
    dp = pos - traj.positions
    pos_rmse = float(np.sqrt(np.mean(np.sum(dp ** 2, axis=1))))
    dots = np.abs(np.sum(quat * traj.quaternions, axis=1))
    ang = 2.0 * np.arccos(np.clip(dots, 0.0, 1.0))
    ori_rmse = float(np.sqrt(np.mean(ang ** 2)))
    # settle past the forcing support so the attractor can finish the job
    # (the translational stiffness of 1 over tau = 18.9 s settles slowly)
    end = DualQuaternion(roll.dq[-1, :4].copy(), roll.dq[-1, 4:].copy())
    settle = dq_rollout(model, dq0=end, xi0=roll.xi[-1], dt=0.05,
                        duration=1800.0, t_start=DURATION)
    term_pos, term_ang = pose_errors(settle.dq[-1], model.dqd)
    elapsed = (time.perf_counter() - t0 + _cache["train_time"]
               + _cache["repro_time"])
    ok = (pos_rmse < 0.02 * 2 * RADIUS and ori_rmse < 0.05
          and term_pos < 1e-2 and term_ang < 1e-2 and elapsed < 10.0)
    report(5, ok,
           f"loop reproduction: position RMSE {pos_rmse:.3f} m < {0.02*2*RADIUS:.0f} m, "
           f"orientation RMSE {ori_rmse:.4f} rad < 0.05, terminal "
           f"{term_pos:.2e} m / {term_ang:.2e} rad < 1e-2 ({elapsed:.1f} s < 10 s)")


def test_criterion_6_time_scale_invariance():
    # tau and the step are doubled together, so sample k of the slowed
    # rollout sits at the same normalized time as sample k of the nominal.
    # As gated this holds by construction: h = dt / tau, the phase grid and
    # every float operation repeat exactly, so it reads 0 and pins the
    # tau-scaled state, not the integrator's step error
    traj, model, xi0 = somersault_model()
    nominal = reproduction_rollout()
    slowed = dq_rollout(model, xi0=xi0, dt=2 * DT, duration=2 * DURATION,
                        tau_override=2 * DURATION)
    assert len(slowed.t) == len(nominal.t)
    pos_n, quat_n = nominal.poses()
    pos_s, quat_s = slowed.poses()
    pos_dev = float(np.max(np.linalg.norm(pos_s - pos_n, axis=1)))
    # 2 atan2(|vec(q_s* (x) q_n)|, |w|) reads 0 for equal rotations, where
    # 2 acos(|q_s . q_n|) floors at about 2e-8 rad
    r = quat_product(quat_conjugate(quat_s), quat_n)
    ang_dev = float(np.max(2.0 * np.arctan2(np.linalg.norm(r[:, 1:], axis=1), np.abs(r[:, 0]))))
    ok = pos_dev < 1e-3 and ang_dev < 1e-3
    report(6, ok, f"tau doubled, compared at equal normalized time: "
                  f"position dev {pos_dev:.2e} m, orientation dev "
                  f"{ang_dev:.2e} rad (both < 1e-3)")


def test_criterion_7_goal_adaptation():
    traj, model, xi0 = somersault_model()
    gpose = dq_to_pose(model.dqd)
    new_goal = dq_from_pose(Pose(gpose.position + np.array([10.0, 0.0, 0.0]),
                                 gpose.orientation))
    # the shaping-term tail decays at the phase rate alpha_x / tau, which
    # dominates the settle; integrate far past it
    roll = dq_rollout(model, xi0=xi0, dt=0.02, duration=170 * DURATION,
                      goal_override=new_goal)
    term_pos, term_ang = pose_errors(roll.dq[-1], new_goal)
    ok = term_pos < 1e-2 and term_ang < 1e-2
    report(7, ok, f"goal translated by [10, 0, 0] m: terminal error "
                  f"{term_pos:.2e} m / {term_ang:.2e} rad (both < 1e-2)")


def test_criterion_8_constraint_drift():
    # holds by construction: dq_rollout encodes its dual quaternions after the
    # loop from the renormalized q and the position, so both unit constraints
    # hold to rounding whatever the step did; it pins that renormalization
    roll = reproduction_rollout()
    norm_err = np.abs(np.linalg.norm(roll.dq[:, :4], axis=1) - 1.0)
    orth_err = np.abs(np.sum(roll.dq[:, :4] * roll.dq[:, 4:], axis=1))
    worst = float(max(norm_err.max(), orth_err.max()))
    ok = worst <= 1e-6
    report(8, ok, f"unit constraints over the full {DURATION} s rollout: "
                  f"worst drift {worst:.2e} <= 1e-6")


def test_criterion_9_comparison_harness(tmp_path):
    # drive the actual compare command on the reference demo file
    from dqdmp.cli import main
    from dqdmp.traj import save_trajectory

    traj, _, _ = somersault_model()
    demo_path = tmp_path / "somersault.csv"
    out_path = tmp_path / "compare.csv"
    save_trajectory(traj, str(demo_path))
    rc = main(["compare", "--demo", str(demo_path), "-o", str(out_path)])
    lines = out_path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = {ln.split(",")[0]: dict(zip(header[1:], map(float, ln.split(",")[1:])))
            for ln in lines[1:]}
    dq_res = rows["dq"]["kinematic_residual_mean_mps"]
    pose_res = rows["pose_decoupled"]["kinematic_residual_mean_mps"]
    ok = (rc == 0 and set(rows) == {"dq", "pose_decoupled"}
          and np.isfinite(pose_res) and dq_res < 0.1
          and np.isfinite(rows["dq"]["position_rmse_m"])
          and np.isfinite(rows["pose_decoupled"]["position_rmse_m"]))
    report(9, ok,
           f"compare command exit {rc}: coupled consistency residual "
           f"{dq_res:.3f} m/s < 0.1; decoupled residual {pose_res:.3f} m/s "
           f"(reported, no bar); RMSE rows: dq "
           f"{rows['dq']['position_rmse_m']:.3f} m / "
           f"{rows['dq']['orientation_rmse_rad']:.4f} rad, decoupled "
           f"{rows['pose_decoupled']['position_rmse_m']:.3f} m / "
           f"{rows['pose_decoupled']['orientation_rmse_rad']:.4f} rad")


def test_criterion_10_weight_recovery():
    rng = np.random.default_rng(10)
    worst = 0.0
    for n_kernels in (10, 30):
        basis = basis_scheme_a(n_kernels, 2.0)
        xs = phase(np.linspace(0.0, 1.0, 10 * n_kernels + 1), 2.0, 1.0)
        for _ in range(20):
            w_true = rng.normal(size=n_kernels) * rng.uniform(0.5, 50.0)
            targets = np.array([forcing(x, basis, w_true) for x in xs])
            w, _ = fit_weights(xs, targets, basis)
            worst = max(worst, np.linalg.norm(w - w_true)
                        / np.linalg.norm(w_true))
    ok = worst <= 1e-6
    report(10, ok, f"synthesized weights recovered at >= 10 N samples: "
                   f"worst relative error {worst:.2e} <= 1e-6")
