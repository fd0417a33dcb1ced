"""Command-line behavior: file products, exit codes, determinism."""

import io
import json
import re
import warnings

import numpy as np
import pytest

from dqdmp import (
    BODY,
    ClassicalDmp,
    GaussianBasis,
    QuaternionDmp,
    basis_scheme_a,
    classical_rollout,
    classical_target_forcing,
    classical_train,
    design_matrix,
    dq_rollout,
    dq_target_forcing,
    dq_train,
    gen_min_jerk,
    load_model,
    load_trajectory,
    phase,
    pose_rollout,
    pose_train,
    quat_rollout,
    quat_target_forcing,
    quat_train,
    save_model,
)
from dqdmp.cli import compare_on_demo, load_scalar_demo
from dqdmp.traj import ScalarDemo, Trajectory, gen_somersault, save_trajectory

from conftest import (
    assert_refused,
    refused,
    run,
    stiff_dq_model,
    trajectory_to_csv,
)


def test_gen_somersault_row_count(tmp_path, capsys):
    out = tmp_path / "demo.csv"
    assert run(["gen", "somersault", "--radius", "50", "--duration", "18.9",
                "--dt", "0.01", "-o", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    data_rows = [ln for ln in lines
                 if ln and not ln.startswith("#") and not ln.startswith("t,")]
    assert len(data_rows) == 1891  # duration/dt + 1 samples
    assert "t,px,py,pz,qw,qx,qy,qz" in lines


def test_gen_minjerk_scalar_demo(tmp_path):
    out = tmp_path / "demo.csv"
    assert run(["gen", "minjerk", "--from", "0", "--to", "1",
                "--duration", "1", "-o", str(out)]) == 0
    demo = load_scalar_demo(str(out))
    assert demo.y[0] == 0.0 and abs(demo.y[-1] - 1.0) < 1e-12
    assert len(demo.t) == 101


def test_gen_rejects_bad_dt(tmp_path, capsys):
    assert_refused(capsys, tmp_path / "x.csv", ["gen", "somersault", "--dt", "-0.01"], "error")


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["gen", "somersault", "--radius", "5", "--duration", "2",
            "--dt", "0.02"]
    run(args + ["-o", str(a)])
    run(args + ["-o", str(b)])
    assert a.read_text() == b.read_text()


def test_train_dq_writes_model_and_residuals(tmp_path, demo_file, capsys):
    out = tmp_path / "model.json"
    rc = run(["train", "--variant", "dq", "--demo", demo_file,
              "-o", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    assert err.count("fit residual dim") == 6
    doc = json.loads(out.read_text())
    assert doc["variant"] == "dual_quaternion"
    assert doc["format_version"] == 2
    assert len(doc["weights"]) == 6


def residual_lines(model, demo, f, label=None):
    """The lines `train` prints for a model fit to the targets f, one column
    per dimension: norm(A @ w - f), and that over norm(f)."""
    A = design_matrix(phase(demo.t, model.basis.alpha_x, model.tau), model.basis)
    lines = []
    for dim, (w, col) in enumerate(zip(np.atleast_2d(model.weights), f.T)):
        res, scale = np.linalg.norm(A @ w - col), np.linalg.norm(col)
        rel = res / scale if scale > 0.0 else 0.0
        lines.append(f"fit residual {label or f'dim {dim}'}: {res:.3e} (relative {rel:.3e})")
    return lines


@pytest.mark.parametrize("variant", ["dq", "pose-decoupled"])
def test_train_prints_the_residuals_of_the_fit(tmp_path, demo_file, capsys, variant):
    out = tmp_path / "model.json"
    assert run(["train", "--variant", variant, "--demo", demo_file, "-o", str(out)]) == 0
    printed = [ln for ln in capsys.readouterr().err.splitlines()
               if ln.startswith("fit residual")]
    model, traj = load_model(str(out)), load_trajectory(demo_file)
    if variant == "dq":
        der = traj.derived()
        poses = np.column_stack([traj.quaternions, traj.positions])
        xs = phase(traj.t, model.basis.alpha_x, model.tau)
        f = dq_target_forcing(poses, der.xi, der.xi_dot, xs, model.dqd, model.dq0,
                              model.tau, model.k_rot, model.k_pos, model.d_rot,
                              model.d_pos)
        expected = residual_lines(model, traj, f)
    else:
        vel = np.gradient(traj.positions, traj.dt, axis=0, edge_order=2)
        acc = np.gradient(vel, traj.dt, axis=0, edge_order=2)
        expected = []
        for dim, m in enumerate(model.position):
            demo = ScalarDemo(traj.t, traj.positions[:, dim], vel[:, dim], acc[:, dim])
            xs = phase(traj.t, m.basis.alpha_x, m.tau)
            f = classical_target_forcing(demo, m.goal, xs, m.tau, m.alpha_z, m.beta_z)
            expected += residual_lines(m, demo, f[:, None], "(scalar)")
        q, der = model.orientation, traj.derived()
        f = quat_target_forcing(traj.quaternions, der.xi[:, :3], der.xi_dot[:, :3],
                                phase(traj.t, q.basis.alpha_x, q.tau), q.qd, q.q0,
                                q.tau, q.k_gain, q.d_gain)
        expected += residual_lines(q, traj, f)
    assert len(expected) == 6
    assert printed == expected
    # the loop moves in the x-z plane and pitches: three fits are not exact
    assert sum("0.000e+00 (relative 0.000e+00)" not in ln for ln in printed) == 3


def test_train_pose_decoupled_two_submodels(tmp_path, demo_file):
    out = tmp_path / "pose.json"
    rc = run(["train", "--variant", "pose-decoupled", "--demo", demo_file,
              "-o", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["variant"] == "pose_decoupled"
    assert len(doc["position"]) == 3
    assert doc["orientation"]["variant"] == "quaternion"
    # baseline defaults: 30 position kernels, 50 orientation kernels
    assert doc["position"][0]["basis"]["n_kernels"] == 30
    assert doc["orientation"]["basis"]["n_kernels"] == 50


def test_train_rejects_too_short_demo(tmp_path, capsys):
    short = tmp_path / "short.csv"
    short.write_text("t,px,py,pz,qw,qx,qy,qz\n"
                     "0,0,0,0,1,0,0,0\n"
                     "0.01,0,0,0,1,0,0,0\n"
                     "0.02,0,0,0,1,0,0,0\n")
    assert_refused(capsys, tmp_path / "m.json",
                   ["train", "--variant", "dq", "--demo", str(short)], "short")


BAD_ROWS = {"nan_position": "0.02,nan,0,0,1,0,0,0",
            "nan_quaternion": "0.02,0,0,0,nan,nan,nan,nan"}


def _bad_demo(path, case):
    t0 = 0.5 if case == "late_start" else 0.0
    rows = [f"{t0 + 0.01 * k:.2f},{k},0,0,1,0,0,0" for k in range(8)]
    if case in BAD_ROWS:
        rows[2] = BAD_ROWS[case]
    path.write_text("t,px,py,pz,qw,qx,qy,qz\n" + "\n".join(rows) + "\n")


@pytest.mark.parametrize("case", ["nan_position", "nan_quaternion", "late_start"])
@pytest.mark.parametrize("command", ["train", "compare"])
def test_bad_demo_fails_with_exit_code_1(tmp_path, capsys, case, command):
    demo = tmp_path / "bad.csv"
    _bad_demo(demo, case)
    assert_refused(capsys, tmp_path / "out", [command, "--demo", str(demo)], "sample")


@pytest.mark.parametrize("case", ["nan_sample", "late_start"])
def test_bad_scalar_demo_fails_with_exit_code_1(tmp_path, capsys, case):
    demo = tmp_path / "d.csv"
    assert run(["gen", "minjerk", "-o", str(demo)]) == 0
    lines = demo.read_text().splitlines()
    if case == "nan_sample":
        lines[11] = "0.08,nan,0,0"     # row 10, after the header
    else:
        lines[1:] = [",".join([repr(float(ln.split(",")[0]) + 0.5)] + ln.split(",")[1:])
                     for ln in lines[1:]]
    demo.write_text("\n".join(lines) + "\n")
    assert_refused(capsys, tmp_path / "m.json",
                   ["train", "--variant", "classical", "--demo", str(demo)],
                   "sample 10" if case == "nan_sample" else "sample 0")


@pytest.mark.parametrize("case", ["garbled", "headerless"])
def test_unreadable_scalar_demo_names_its_line(tmp_path, capsys, case):
    demo = tmp_path / "d.csv"
    assert run(["gen", "minjerk", "-o", str(demo)]) == 0
    lines = demo.read_text().splitlines()
    if case == "garbled":
        lines[2] = "0.01,abc,0,0"     # row 2, after the header
    else:
        del lines[0]
    demo.write_text("\n".join(lines) + "\n")
    assert_refused(capsys, tmp_path / "m.json",
                   ["train", "--variant", "classical", "--demo", str(demo)],
                   "line 3: unparseable" if case == "garbled" else "line 1: expected header")


def test_train_missing_demo_fails(tmp_path, capsys):
    assert_refused(capsys, tmp_path / "m.json",
                   ["train", "--variant", "dq", "--demo", str(tmp_path / "nope.csv")])


def load_rollout_table(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def test_rollout_table_format(tmp_path, dq_model_file):
    out = tmp_path / "roll.csv"
    rc = run(["rollout", "--model", dq_model_file, "--duration", "5",
              "-o", str(out)])
    assert rc == 0
    header, data = load_rollout_table(out)
    assert header == ["t", "x", "px", "py", "pz", "qw", "qx", "qy", "qz",
                      "wx", "wy", "wz", "vx", "vy", "vz", "V", "V1", "V2"]
    assert data.shape[0] == 501
    # the phase column decreases monotonically
    assert np.all(np.diff(data[:, 1]) < 0)
    # Lyapunov columns satisfy V = V1 + V2
    np.testing.assert_allclose(data[:, 15], data[:, 16] + data[:, 17],
                               atol=1e-9)


def test_rollout_tau_override_scales_time(tmp_path, dq_model_file):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["rollout", "--model", dq_model_file, "--duration", "5",
         "--dt", "0.01", "-o", str(a)])
    run(["rollout", "--model", dq_model_file, "--duration", "10",
         "--dt", "0.02", "--tau", "10.0", "-o", str(b)])
    _, da = load_rollout_table(a)
    _, db = load_rollout_table(b)
    assert db[-1, 0] == 2.0 * da[-1, 0]
    # same spatial path sampled on the stretched clock
    np.testing.assert_allclose(db[:, 2:9], da[:, 2:9], atol=1e-3)


def test_rollout_goal_override_reaches_new_goal(tmp_path, dq_model_file):
    out = tmp_path / "g.csv"
    # goal shifted 1 m along x; settle far past the shaping-term tail
    rc = run(["rollout", "--model", dq_model_file, "--goal", "1,0,0",
              "--duration", "800", "--dt", "0.02", "-o", str(out)])
    assert rc == 0
    _, data = load_rollout_table(out)
    assert np.linalg.norm(data[-1, 2:5] - [1.0, 0.0, 0.0]) < 1e-2


def test_rollout_missing_model_fails(tmp_path, capsys):
    assert_refused(capsys, tmp_path / "r.csv", ["rollout", "--model", str(tmp_path / "nope.json")])


def test_compare_reports_both_models(tmp_path, demo_file, capsys):
    out = tmp_path / "cmp.csv"
    rc = run(["compare", "--demo", demo_file, "-o", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("model,position_rmse_m,orientation_rmse_rad")
    assert lines[1].startswith("dq,")
    assert lines[2].startswith("pose_decoupled,")
    err = capsys.readouterr().err
    assert "dq" in err and "pose_decoupled" in err


# compare.csv of the demo_file fixture, as written before compare lost its
# --dt option; the rollouts run on the demo's own step either way.  The dq
# row's position and residual columns were re-taken when the twist's linear
# part became R^T pdot (its orientation columns kept their bits)
COMPARE_ROWS = {
    "dq": [0.06753361208911611, 0.0071363668577911297, 0.070378142368910462,
           0.0018496440117741928, 0.12203823540304169, 0.27968889027239757],
    "pose_decoupled": [0.035885064235494105, 0.0071777044524886932, 0.0017480606119206529,
                       0.0018885337152848517, 0.067736630663808362, 0.13943702683004852],
}


def test_compare_report_is_on_the_demo_step(tmp_path, demo_file):
    out = tmp_path / "cmp.csv"
    assert run(["compare", "--demo", demo_file, "-o", str(out)]) == 0
    rows = {ln.split(",")[0]: [float(v) for v in ln.split(",")[1:]]
            for ln in out.read_text().strip().split("\n")[1:]}
    assert rows.keys() == COMPARE_ROWS.keys()
    for name, values in COMPARE_ROWS.items():
        np.testing.assert_allclose(rows[name], values, rtol=1e-9)


def test_compare_has_no_step_option(tmp_path, demo_file, capsys):
    # a step other than the demo's matched rollout and demo samples at different times
    out = tmp_path / "cmp.csv"
    with pytest.raises(SystemExit) as exc:
        run(["compare", "--demo", demo_file, "--dt", "0.02", "-o", str(out)])
    assert exc.value.code == 2
    assert "--dt" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("samples", [2, 3])
@pytest.mark.parametrize("command", [["train", "--variant", "dq"],
                                     ["train", "--variant", "quat"],
                                     ["train", "--variant", "pose-decoupled"],
                                     ["compare"]])
def test_too_short_demo_fails_with_the_differentiate_error(tmp_path, capsys, samples, command):
    demo = tmp_path / "short.csv"
    lines = trajectory_to_csv(gen_somersault(5.0, 1.0, 0.01)).split("\n")
    demo.write_text("\n".join(lines[:2 + samples]) + "\n")  # source note, header, rows
    assert_refused(capsys, tmp_path / "out", [*command, "--demo", str(demo)],
                   "trajectory too short to differentiate (need >= 4 samples)")


def test_compare_missing_demo_fails(tmp_path, capsys):
    assert_refused(capsys, tmp_path / "cmp.csv", ["compare", "--demo", str(tmp_path / "nope.csv")])


def test_compare_pure_translation_tracks_agree(tmp_path):
    # with no rotation the coupled and decoupled models reduce to nearly
    # identical position tracks
    T, dt = 4.0, 0.01
    n = int(round(T / dt))
    t = np.arange(n + 1) * dt
    u = t / T
    s = 10 * u**3 - 15 * u**4 + 6 * u**5
    pos = np.stack([2.0 * s, -1.0 * s, 0.5 * s], axis=1)
    quat = np.tile([1.0, 0, 0, 0], (n + 1, 1))
    from dqdmp import Trajectory
    traj = Trajectory(t, pos, quat)
    report = compare_on_demo(traj)
    assert report["dq"]["position_rmse_m"] < 1e-2
    assert report["pose_decoupled"]["position_rmse_m"] < 1e-2


def test_cli_deterministic_training(tmp_path, demo_file):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["train", "--variant", "dq", "--demo", demo_file]
    run(args + ["-o", str(a)])
    run(args + ["-o", str(b)])
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("tau", [0.4, 1.0, 3.0])
def test_classical_rollout_energy_never_rises(tmp_path, tau):
    # V = 0.5 e^2 + 0.5 z^2 / (alpha_z beta_z) with the tau-scaled z is an
    # energy of the unforced scalar system for any tau
    from dqdmp import ClassicalDmp, basis_scheme_a, save_model
    model = tmp_path / "classical.json"
    save_model(ClassicalDmp(25.0, 6.25, basis_scheme_a(20, 2.0), np.zeros(20),
                            0.0, 1.0, 1.0), str(model))
    out = tmp_path / "roll.csv"
    assert run(["rollout", "--model", str(model), "--tau", str(tau),
                "--duration", str(3 * tau), "-o", str(out)]) == 0
    v = np.loadtxt(out, delimiter=",", skiprows=1)[:, 15]
    assert v[0] == 0.5
    assert np.max(np.diff(v)) <= 1e-12 * v[0]


def test_gen_somersault_to_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["gen", "somersault", "--radius", "5", "--duration", "1",
                "--dt", "0.1", "-o", "-"]) == 0
    expected = io.StringIO()
    save_trajectory(gen_somersault(5.0, 1.0, 0.1), expected)
    out = capsys.readouterr().out
    assert out == expected.getvalue()
    assert "t,px,py,pz,qw,qx,qy,qz" in out.split("\n")
    assert len([ln for ln in out.split("\n") if ln[:1].isdigit()]) == 11
    assert list(tmp_path.iterdir()) == []


def test_rollout_non_finite_state_fails_with_exit_code_1(tmp_path, capsys):
    # K = 625, D = 250 at dt = 0.01, tau = 1: the semi-implicit step is unstable
    model = QuaternionDmp(BODY, 625.0 * np.eye(3), 250.0 * np.eye(3),
                          basis_scheme_a(30, 2.0), np.zeros((3, 30)),
                          np.array([1.0, 0.0, 0.0, 0.0]),
                          np.array([0.0, 1.0, 0.0, 0.0]), 1.0)
    path = tmp_path / "unstable.json"
    save_model(model, str(path))
    assert_refused(capsys, tmp_path / "roll.csv",
                   ["rollout", "--model", str(path), "--dt", "0.01", "--duration", "10"],
                   "non-finite state at sample")


def test_rollout_of_an_unstable_dq_model_fails_with_exit_code_1(tmp_path, capsys):
    path = tmp_path / "unstable.json"
    save_model(stiff_dq_model(), str(path))
    assert_refused(capsys, tmp_path / "roll.csv",
                   ["rollout", "--model", str(path), "--dt", "0.01", "--duration", "10"],
                   "outside the exp domain at sample 25 (t = 0.25): dt / tau too large?")


@pytest.mark.parametrize("value", ["1", "0.5", "abc", "0", "nan", "inf", "1e-320"])
def test_train_rejects_bad_scale_metadata(tmp_path, capsys, value):
    # positions are meters: a scale line, even '# scale 1', stops every command that loads it
    demo = tmp_path / "demo.csv"
    lines = trajectory_to_csv(gen_somersault(5.0, 1.0, 0.05)).split("\n")
    demo.write_text("\n".join(["# source x", f"# scale {value}"] + lines))
    for argv in (["train", "--variant", "dq"], ["train", "--variant", "quat"],
                 ["train", "--variant", "pose-decoupled"], ["compare"]):
        assert_refused(capsys, tmp_path / "out", argv + ["--demo", str(demo)],
                       "line 2: '# scale' is not supported; positions must be meters")


def test_train_rejects_infinite_tau(tmp_path, demo_file, capsys):
    assert_refused(capsys, tmp_path / "m.json",
                   ["train", "--variant", "dq", "--demo", demo_file, "--tau", "inf"],
                   "tau must be positive and finite")


def test_rollout_rejects_infinite_tau(tmp_path, dq_model_file, capsys):
    # the phase of an infinite tau never moves: a table that never moved
    assert_refused(capsys, tmp_path / "roll.csv",
                   ["rollout", "--model", dq_model_file, "--tau", "inf", "--duration", "1"],
                   "tau must be positive and finite")


@pytest.fixture(scope="module")
def boundary_inputs():
    traj, demo = gen_somersault(5.0, 2.0, 0.01), gen_min_jerk(0.0, 1.0, 1.0, 0.01)
    basis = basis_scheme_a(10, 0.05)
    # a line at 1e306 m/s turned 45 degrees about z: its body twist and twist rate
    # are finite, the inertial acceleration that pose_train differences is not
    t = np.arange(101) * 0.01
    fast = Trajectory(t, np.outer(t - 0.5, [1e306, 0.0, 0.0]),
                      np.tile([np.cos(np.pi / 8), 0.0, 0.0, np.sin(np.pi / 8)], (101, 1)))
    return dict(traj=traj, demo=demo, basis=basis, fast=fast,
                huge=Trajectory(traj.t, traj.positions * 1e306, traj.quaternions),
                vast=Trajectory(traj.t, traj.positions * 1e200, traj.quaternions),
                quat=quat_train(traj, 2.0, 1.0, 10.0, basis),
                pose=pose_train(traj, 2.0, 0.05, 10, 1.0, 10.0, 10, 1.0, 10.0),
                dq=dq_train(traj, 2.0, 1.0, 1.0, 10.0, 10.0, basis),
                classical=classical_train(demo, 1.0, 1.0, 25.0, 6.25, basis))


BOUNDARY = {
    # case: (call on boundary_inputs, or the CLI command and flags; what the error names)
    "quat_rollout tau_override": (
        lambda i: quat_rollout(i["quat"], duration=1.0, tau_override=1e-320), "tau "),
    "dq_rollout tau_override": (
        lambda i: dq_rollout(i["dq"], duration=1.0, tau_override=1e-320), "tau "),
    "classical_rollout tau_override": (
        lambda i: classical_rollout(i["classical"], 0.0, 0.01, 1.0, tau_override=1e-320), "tau "),
    "quat_rollout t_start": (
        lambda i: quat_rollout(i["quat"], duration=1.0, t_start=-1e308), "t_start -1e+308"),
    # the phase reached e^700: kernel_values warned "overflow encountered in square"
    "quat_rollout negative t_start": (
        lambda i: quat_rollout(i["quat"], dt=0.01, duration=0.05, t_start=-2.8e4),
        "t_start -28000 must be at least 0"),
    # the phase passed 1, outside every kernel's range, with no word
    "dq_rollout negative t_start": (
        lambda i: dq_rollout(i["dq"], dt=0.01, duration=1.0, t_start=-1.0),
        "t_start -1 must be at least 0"),
    "dq_train tau": (
        lambda i: dq_train(i["traj"], 1e308, 1.0, 1.0, 10.0, 10.0, i["basis"]), "tau 1e+308"),
    "quat_train tau": (
        lambda i: quat_train(i["traj"], 1e308, 1.0, 10.0, i["basis"]), "tau 1e+308"),
    "pose_train tau": (
        lambda i: pose_train(i["traj"], 1e308, 0.05, 10, 1.0, 10.0, 10, 1.0, 10.0), "tau 1e+308"),
    "dq_train k_rot": (
        lambda i: dq_train(i["traj"], 2.0, 1e-320, 1.0, 10.0, 10.0, i["basis"]), "k_rot "),
    "classical_train g": (
        lambda i: classical_train(i["demo"], 1e308, 1.0, 25.0, 6.25, i["basis"]), "goal 1e+308"),
    "quat_train tiny tau": (
        lambda i: quat_train(i["traj"], 1e-320, 1.0, 10.0, i["basis"]), "tau 9.99989e-321"),
    "dq_train tiny tau": (
        lambda i: dq_train(i["traj"], 1e-320, 1.0, 1.0, 10.0, 10.0, i["basis"]),
        "tau 9.99989e-321"),
    "classical_train vast g": (
        lambda i: classical_train(i["demo"], 1e200, 1.0, 25.0, 6.25, i["basis"]), "goal 1e+200"),
    "pose_train vast demo": (
        lambda i: pose_train(i["vast"], 2.0, 0.05, 10, 1.0, 10.0, 10, 1.0, 10.0),
        "the energy 0.5 (g - y)^2 overflows"),
    "classical_train tiny tau": (
        lambda i: classical_train(i["demo"], 1.0, 1e-320, 25.0, 6.25, i["basis"]),
        "tau 9.99989e-321"),
    "dq_train huge demo": (
        lambda i: dq_train(i["huge"], 2.0, 1.0, 1.0, 10.0, 10.0, i["basis"]),
        "the demo's acceleration overflows at sample 68"),
    "pose_train huge demo": (
        lambda i: pose_train(i["huge"], 2.0, 0.05, 10, 1.0, 10.0, 10, 1.0, 10.0),
        "the demo's acceleration overflows at sample 68"),
    "pose_train fast demo": (
        lambda i: pose_train(i["fast"], 1.0, 0.05, 10, 1.0, 10.0, 10, 1.0, 10.0),
        "the demo's acceleration overflows at sample 0"),
    "dq_train d_pos": (
        lambda i: dq_train(i["traj"], 1e150, 1.0, 1.0, 10.0, 1e200, i["basis"]),
        "D [1e+200, 1e+200, 1e+200]"),
    "dq_rollout vast model": (
        lambda i: dq_rollout(dq_train(i["vast"], 2.0, 1.0, 1.0, 10.0, 10.0, i["basis"]),
                             duration=1.0), "dq rollout: the energy overflows"),
    "quat_rollout omega0": (
        lambda i: quat_rollout(i["quat"], omega0=[1e160, 0.0, 0.0], duration=0.0),
        "quaternion rollout: the energy overflows"),
    # each axis energy is 7.2e307, their sum inf
    "pose_rollout goal_position": (
        lambda i: pose_rollout(i["pose"], 0.01, 1.0, goal_position=[1.2e154] * 3),
        "pose-decoupled rollout: the energy overflows"),
    # refused cleanly before, but never run by a test
    "Trajectory shapes": (
        lambda i: Trajectory(i["traj"].t[:2], i["traj"].positions[:3], i["traj"].quaternions[:3]),
        "inconsistent sample array shapes"),
    "GaussianBasis widths": (
        lambda i: GaussianBasis(0.05, np.array([1.0, 0.5]), np.array([1.0])),
        "need at least two kernels with matching widths"),
    "GaussianBasis centers": (
        lambda i: GaussianBasis(0.05, np.array([1e300, 0.5]), np.array([1.0, 1.0])),
        "kernel centers must lie in the phase range [0, 1]; center 0 is 1e+300"),
    "GaussianBasis center below 0": (
        lambda i: GaussianBasis(0.05, np.array([1.0, -1e-300]), np.array([1.0, 1.0])),
        "kernel centers must lie in the phase range [0, 1]; center 1 is -1e-300"),
    "cli rollout --duration": (["rollout", "--duration", "-1"],
                               "duration must be non-negative and finite"),
    "cli rollout --goal": (["rollout", "--goal", "1,2"],
                           "takes 'px,py,pz' or 'px,py,pz,qw,qx,qy,qz'"),
    "cli rollout --tau": (["rollout", "--tau", "1e-320"], "tau "),
    "cli rollout --tau --duration": (["rollout", "--tau", "1e-320", "--duration", "1"], "tau "),
    "cli train --tau": (["train", "--tau", "1e-320"], "tau 9.99989e-321"),
    # a subnormal tau whose grid is short enough for _clock: roll.xi / tau wrote inf rates
    "cli rollout subnormal --tau": (
        ["rollout", "--tau", "1e-310", "--dt", "1e-312", "--duration", "1e-311"],
        "error: tau 1e-310 is too small: its reciprocal overflows"),
}


@pytest.mark.parametrize("case", BOUNDARY)
def test_an_overflowing_input_is_refused_by_name_without_a_warning(
        tmp_path, capsys, boundary_inputs, dq_model_file, demo_file, case):
    # each one showed a numpy RuntimeWarning (overflow in divide, exp, power or
    # multiply) or, for the d_pos case, named only tau, where the caller now
    # sees a ValueError naming the argument; CLI train wrote a model no rollout took
    call, name = BOUNDARY[case]
    if case.startswith("cli"):
        command, *flags = call
        source = ["--model", dq_model_file] if command == "rollout" else ["--demo", demo_file]
        assert_refused(capsys, tmp_path / "product", [command, *source, *flags], name)
    else:
        with refused(re.escape(name)):
            call(boundary_inputs)


def test_a_vast_demo_trains_with_finite_residuals_and_no_warning(boundary_inputs):
    # the residual norms squared the 1e200-scale targets: overflow in dot, and
    # "inf (relative nan)"; scaled, the relative ones are the unscaled demo's
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vast = dq_train(boundary_inputs["vast"], 2.0, 1.0, 1.0, 10.0, 10.0,
                        boundary_inputs["basis"])
    np.testing.assert_allclose(vast.fit_residuals[:, 1],
                               boundary_inputs["dq"].fit_residuals[:, 1], rtol=1e-6)


REFUSED_ROLLOUTS = {
    # case: (the model file's document, from boundary_inputs; the rollout's flags;
    # what the error names)
    "dq energy": (
        lambda i: _doc(dq_train(i["vast"], 2.0, 1.0, 1.0, 10.0, 10.0, i["basis"])), [],
        "error: dq rollout: the energy overflows"),
    "classical goal": (
        lambda i: _doc(ClassicalDmp(25.0, 6.25, i["basis"], np.zeros(10), -1e308, 0.0, 1.0)),
        ["--goal", "1e308,0,0"], "g - y0 overflows"),
    "classical model": (
        lambda i: dict(_doc(i["classical"]), boundary={"y0": -1e308, "goal": 1e308}), [],
        "error: classical y0 -1e+308 and goal 1e+308: goal - y0 overflows"),
    # each axis energy 0.5 (goal - y0)^2 is 7.2e307, their sum inf
    "pose energy": (
        lambda i: dict(_doc(i["pose"]), position=[
            dict(axis, boundary={"y0": -6e153, "goal": 6e153})
            for axis in _doc(i["pose"])["position"]]), [],
        "error: pose-decoupled rollout: the energy overflows"),
    # the file loaded; its rollout wrote inf rates, and --goal was blamed for its tau
    "dq subnormal tau": (
        lambda i: dict(_doc(i["dq"]), tau=1e-310), ["--dt", "1e-312", "--duration", "1e-311"],
        "error: tau 1e-310 is too small: its reciprocal overflows"),
    "dq subnormal tau --goal": (
        lambda i: dict(_doc(i["dq"]), tau=1e-310), ["--goal", "1,0,0"],
        "error: tau 1e-310 is too small: its reciprocal overflows"),
    # the file loaded, and its rollout warned "overflow encountered in square"
    "dq center": (
        lambda i: _edited(_doc(i["dq"]), "basis", "centers", 0, 1e300), [],
        "error: kernel centers must lie in the phase range [0, 1]; center 0 is 1e+300"),
    # "invalid value encountered in matmul" came before the unit check's refusal
    "dq0 not finite": (
        lambda i: _edited(_doc(i["dq"]), "boundary", "dq0", 0, np.inf), [],
        "error: dq0: dual quaternion must be finite, with a finite position"),
    # the file loaded; its rollout warned twice, then blamed the start pose
    "dq0 position": (
        lambda i: _edited(_doc(i["dq"]), "boundary", "dq0", 5, 1e308), [],
        "error: dq0: dual quaternion must be finite, with a finite position"),
    # the file loaded; its rollout blamed the step: "dt / tau too large?"
    "dqd position": (
        lambda i: _edited(_doc(i["dq"]), "boundary", "dqd", 5, 1e308), [],
        "error: dqd: dual quaternion must be finite, with a finite position"),
}


def _doc(model) -> dict:
    buf = io.StringIO()
    save_model(model, buf)
    return json.loads(buf.getvalue())


def _edited(doc: dict, part: str, key: str, index: int, value: float) -> dict:
    """doc with entry index of doc[part][key] set to value."""
    doc[part][key][index] = value
    return doc


@pytest.mark.parametrize("case", REFUSED_ROLLOUTS)
def test_rollout_of_a_model_whose_energy_or_goal_overflows_fails_with_one_error_line(
        tmp_path, capsys, boundary_inputs, case):
    # the dq model wrote a table of infinite energies under two numpy warnings;
    # the classical ones failed as "non-finite state at sample 1", blaming the step
    make, flags, name = REFUSED_ROLLOUTS[case]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(make(boundary_inputs)))
    assert_refused(capsys, tmp_path / "roll.csv",
                   ["rollout", "--model", str(path), "--duration", "1", *flags], name)


def test_rollout_refuses_a_step_no_time_grid_can_hold(tmp_path, dq_model_file, capsys):
    # it printed numpy's "error: Maximum allowed size exceeded"
    assert_refused(capsys, tmp_path / "roll.csv",
                   ["rollout", "--model", dq_model_file, "--dt", "1e-300", "--duration", "1"],
                   "error: duration 1 over dt 1e-300 is more samples than an array can hold")


def test_rollout_blames_a_negative_tau_not_the_default_duration(tmp_path, dq_model_file,
                                                                capsys):
    # the default duration 1.5 tau was checked first: "duration must be non-negative"
    assert_refused(capsys, tmp_path / "roll.csv",
                   ["rollout", "--model", dq_model_file, "--tau", "-5"],
                   "error: alpha_x and tau must be positive and finite")


@pytest.mark.parametrize("argv, fragment", [
    (["gen", "somersault", "--radius", "nan"], "radius"),
    (["gen", "somersault", "--radius", "inf"], "radius"),
    (["gen", "somersault", "--dt", "nan"], "dt"),
    (["gen", "minjerk", "--duration", "nan"], "duration"),
    (["gen", "minjerk", "--duration", "inf"], "duration"),
    (["gen", "minjerk", "--from", "nan"], "non-finite value at sample 0"),
    (["gen", "minjerk", "--duration", "1e-200", "--dt", "1e-201"], "duration 1e-200"),
    (["gen", "somersault", "--radius", "1e308"], "radius"),
])
def test_gen_rejects_bad_flags_without_writing(tmp_path, capsys, argv, fragment):
    assert_refused(capsys, tmp_path / "demo.csv", argv, fragment)


@pytest.mark.parametrize("argv", [["gen", "minjerk", "--dt", "1e-320"],
                                  ["gen", "somersault", "--duration", "1e308", "--dt", "0.1"]])
def test_gen_refuses_a_grid_no_array_can_hold_without_writing(tmp_path, capsys, argv):
    # each ended in an OverflowError traceback
    assert_refused(capsys, tmp_path / "demo.csv", argv, "is more samples than an array can hold")


@pytest.mark.parametrize("argv", [["gen", "minjerk"], ["gen", "somersault"],
                                  ["rollout", "--model", "dq"]])
def test_a_time_grid_numpy_cannot_allocate_is_refused_by_duration_and_dt(
        tmp_path, capsys, monkeypatch, dq_model_file, argv):
    # such a grid (gen minjerk --duration 1e9 --dt 1e-3) ended in numpy's
    # _ArrayMemoryError traceback; here the grid's own allocation fails on
    # purpose, so nothing large is allocated
    real_arange = np.arange

    def arange(n, *args, **kwargs):
        if n == 12346:  # the grid's sample count
            raise MemoryError("Unable to allocate 96.5 KiB for an array with shape (12346,)")
        return real_arange(n, *args, **kwargs)
    monkeypatch.setattr(np, "arange", arange)
    argv = [dq_model_file if word == "dq" else word for word in argv]
    assert_refused(capsys, tmp_path / "product.csv",
                   argv + ["--duration", "12.345", "--dt", "0.001"],
                   "error: duration 12.345 over dt 0.001 is more samples than memory can hold")


@pytest.mark.parametrize("flags", [["--k-pos", "0"], ["--k-pos", "nan"],
                                   ["--k-rot", "inf"], ["--d-ratio", "0"],
                                   ["--k-pos", "1e300", "--d-ratio", "1e-160"]])
def test_train_pose_decoupled_rejects_bad_gains(tmp_path, demo_file, capsys, flags):
    assert_refused(capsys, tmp_path / "m.json",
                   ["train", "--variant", "pose-decoupled", "--demo", demo_file, *flags])


@pytest.mark.parametrize("flags, gain", [
    (["--k-rot", "-1"], "k_rot"),
    (["--k-pos", "0"], "k_pos"),
    (["--d-ratio", "-2"], "d_rot"),
    # the quaternion model's own gains are k_gain / d_gain; the flags name k_rot / d_rot
    (["--variant", "quat", "--k-rot", "-1"], "k_rot"),
    (["--variant", "quat", "--d-ratio", "-1"], "d_rot"),
    (["--variant", "pose-decoupled", "--k-rot", "-1"], "k_rot"),
    (["--variant", "pose-decoupled", "--k-pos", "-1"], "k_pos"),
    (["--variant", "pose-decoupled", "--d-ratio", "-1"], "d_pos"),
])
def test_train_names_the_gain_it_refuses(tmp_path, demo_file, capsys, flags, gain):
    # each was refused as "gain matrices must be symmetric positive definite",
    # "k_gain must be" or "position stiffness and damping must be"
    assert_refused(capsys, tmp_path / "m.json", ["train", "--demo", demo_file, *flags],
                   f"error: {gain} must be ")


@pytest.mark.parametrize("model, goal", [
    ("dq_model_file", "nan,0,0"),
    ("pose_model_file", "nan,0,0"),
    ("dq_model_file", "1,0,0,inf,0,0,0"),
    ("dq_model_file", "a,b,c"),
    ("dq_model_file", "1,0,0,0,0,0,0"),
    ("dq_model_file", "1,0,0,1e308,1e308,0,0"),
    ("pose_model_file", "1,0,0,1e308,1e308,0,0"),
])
def test_rollout_refuses_non_finite_goal(tmp_path, capsys, request, model, goal):
    # the error names the flag, not the unit constraint or state it would break
    assert_refused(capsys, tmp_path / "roll.csv",
                   ["rollout", "--model", request.getfixturevalue(model), "--goal", goal,
                    "--duration", "1"], "--goal")


@pytest.mark.parametrize("flags", [["--alpha-z", "-1"], ["--alpha-z", "0"],
                                   ["--beta-z", "0"], ["--alpha-z", "inf"]])
def test_train_classical_refuses_gains_the_loader_refuses(tmp_path, capsys, flags):
    demo = tmp_path / "reach.csv"
    assert run(["gen", "minjerk", "-o", str(demo)]) == 0
    assert_refused(capsys, tmp_path / "m.json",
                   ["train", "--variant", "classical", "--demo", str(demo), *flags],
                   "alpha_z and beta_z must be positive and finite")


def test_train_refuses_non_finite_forcing_targets(tmp_path, capsys):
    # alpha_z beta_z overflows, so the targets are inf: the fit wrote NaN weights,
    # printed a numpy overflow warning and a nan residual, and exited 0
    demo = tmp_path / "minjerk.csv"
    assert run(["gen", "minjerk", "-o", str(demo)]) == 0
    assert_refused(capsys, tmp_path / "m.json",
                   ["train", "--variant", "classical", "--alpha-z", "1e200", "--beta-z", "1e200",
                    "--demo", str(demo)],
                   "classical alpha_z 1e+200 and beta_z 1e+200: "
                   "their product K or its reciprocal overflows")


@pytest.mark.parametrize("variant", ["dq", "quat", "pose-decoupled", "classical"])
def test_train_refuses_a_tau_whose_square_overflows(tmp_path, demo_file, capsys, variant):
    # squared as a Python float, tau = 1e160 raised OverflowError: a traceback, not an error line
    demo = demo_file
    if variant == "classical":
        demo = str(tmp_path / "minjerk.csv")
        assert run(["gen", "minjerk", "-o", demo]) == 0
    assert_refused(capsys, tmp_path / "m.json",
                   ["train", "--variant", variant, "--tau", "1e160", "--demo", demo],
                   "the forcing targets overflow: ", "tau 1e+160")


@pytest.mark.parametrize("model, goal", [
    ("quat_model_file", "1,2,3"),
    ("quat_model_file", "0,0,0"),
    ("quat_model_file", "1,0,0,0,1,0,0"),
    ("classical_model_file", "2,7,7"),
    ("classical_model_file", "2,0,1"),
    ("classical_model_file", "2,0,0,1,0,0,0"),
])
def test_rollout_refuses_a_goal_component_the_model_has_no_state_for(
        tmp_path, capsys, request, model, goal):
    # each component was dropped: exit 0 and the table of the goal without it
    assert_refused(capsys, tmp_path / "roll.csv",
                   ["rollout", "--model", request.getfixturevalue(model), "--goal", goal,
                    "--duration", "1"], f"error: --goal {goal!r}: ")


@pytest.mark.parametrize("model, goal", [("pose_model_file", "1e300,1e300,1e300"),
                                         ("pose_model_file", "1.2e154,1.2e154,1.2e154"),
                                         ("classical_model_file", "1e300,0,0"),
                                         ("dq_model_file", "1e50,1e50,1e50")])
def test_rollout_blames_a_far_goal_on_the_flag(tmp_path, capsys, request, model, goal):
    # the pose model wrote inf energies under two numpy warnings and exited 0;
    # the dq model failed on its unit constraints and named no flag
    assert_refused(capsys, tmp_path / "roll.csv",
                   ["rollout", "--model", request.getfixturevalue(model), "--goal", goal,
                    "--duration", "0.1"], f"error: --goal {goal!r}: ")


@pytest.mark.parametrize("tau", [None, 3.0])
def test_rollout_table_of_a_pose_decoupled_model_holds_its_rollout_bit_for_bit(
        tmp_path, pose_model_file, tau):
    # the table's pose-decoupled columns: rates physical, energies (V, V1, V2)
    out = tmp_path / "roll.csv"
    flags = [] if tau is None else ["--tau", repr(tau)]
    assert run(["rollout", "--model", pose_model_file, "--duration", "1", *flags,
                "-o", str(out)]) == 0
    header, data = load_rollout_table(out)
    model = load_model(pose_model_file)
    roll = pose_rollout(model, 0.01, 1.0, tau_override=tau)
    assert header == ["t", "x", "px", "py", "pz", "qw", "qx", "qy", "qz",
                      "wx", "wy", "wz", "vx", "vy", "vz", "V", "V1", "V2"]
    assert data.shape == (101, 18)
    rate = roll.omega / (model.orientation.tau if tau is None else tau)
    assert np.array_equal(data, np.column_stack([roll.t, roll.x, roll.positions, roll.q, rate,
                                                 roll.velocities, roll.energy]))
    assert np.array_equal(data[:, 15], data[:, 16] + data[:, 17])


@pytest.mark.parametrize("model", ["dq_model_file", "classical_model_file"])
def test_rollout_takes_a_negative_goal_as_a_separate_word(tmp_path, request, model):
    # argparse read '-1,0,0' after --goal as an option and exited 2
    path, tables = request.getfixturevalue(model), []
    for goal in (["--goal", "-1,0,0"], ["--goal=-1,0,0"], []):
        out = tmp_path / f"roll{len(tables)}.csv"
        assert run(["rollout", "--model", path, *goal, "--duration", "1", "-o", str(out)]) == 0
        tables.append(out.read_bytes())
    assert tables[0] == tables[1] != tables[2]


def test_every_option_takes_a_negative_value_as_a_separate_word(tmp_path, capsys):
    # argparse read '-1.' and '-5e-1' after their options as options and exited 2
    out = tmp_path / "reach.csv"
    assert run(["gen", "minjerk", "--from", "-1.", "--to", "-5e-1", "-o", str(out)]) == 0
    demo = load_scalar_demo(str(out))
    assert demo.y[0] == -1.0 and demo.y[-1] == -0.5
    # an option's help is not bound to the next word
    with pytest.raises(SystemExit) as exc:
        run(["rollout", "--help", "--dt", "1"])
    assert exc.value.code == 0 and "--goal GOAL" in capsys.readouterr().out


def test_rollout_takes_a_far_dq_goal_its_encoding_holds(tmp_path, dq_model_file):
    out = tmp_path / "roll.csv"
    assert run(["rollout", "--model", dq_model_file, "--goal", "1e12,1e12,1e12",
                "--duration", "1", "-o", str(out)]) == 0
    _, data = load_rollout_table(out)
    assert np.isfinite(data).all()


@pytest.mark.parametrize("model, goal", [("quat_model_file", "0,0,0,0,1,0,0"),
                                         ("classical_model_file", "2,0,0"),
                                         ("pose_model_file", "1,2,3,0,0,1,0")])
def test_rollout_takes_a_goal_the_model_has_a_state_for(tmp_path, request, model, goal):
    path, a, b = request.getfixturevalue(model), tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["rollout", "--model", path, "--duration", "1", "-o", str(a)]) == 0
    assert run(["rollout", "--model", path, "--goal", goal, "--duration", "1",
                "-o", str(b)]) == 0
    assert a.read_text() != b.read_text()


def test_rollout_refuses_an_inertial_quaternion_model(tmp_path, capsys, quat_model_file):
    # the inertial convention is gone: its file is refused, not rolled out as body
    with open(quat_model_file) as fh:
        doc = json.load(fh)
    doc["frame"] = "inertial"
    path = tmp_path / "inertial.json"
    path.write_text(json.dumps(doc))
    assert_refused(capsys, tmp_path / "roll.csv", ["rollout", "--model", str(path)],
                   "error: unknown frame 'inertial'")
