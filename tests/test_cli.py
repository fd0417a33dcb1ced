"""Command-line behavior: file products, exit codes, determinism."""

import io
import json

import numpy as np
import pytest

from dqdmp import (
    BODY,
    Pose,
    QuaternionDmp,
    basis_scheme_a,
    classical_target_forcing,
    design_matrix,
    dq_from_pose,
    dq_target_forcing,
    load_model,
    load_trajectory,
    phase,
    quat_target_forcing,
    save_model,
)
from dqdmp.cli import compare_on_demo, load_scalar_demo, main
from dqdmp.dmp import model_frame_rates
from dqdmp.traj import ScalarDemo, gen_somersault, save_trajectory


def run(argv):
    return main(argv)


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
    rc = run(["gen", "somersault", "--dt", "-0.01", "-o",
              str(tmp_path / "x.csv")])
    assert rc != 0
    assert "error" in capsys.readouterr().err


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["gen", "somersault", "--radius", "5", "--duration", "2",
            "--dt", "0.02"]
    run(args + ["-o", str(a)])
    run(args + ["-o", str(b)])
    assert a.read_text() == b.read_text()


@pytest.fixture(scope="module")
def demo_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("demo") / "somersault.csv"
    save_trajectory(gen_somersault(5.0, 5.0, 0.01), str(path))
    return str(path)


def test_train_dq_writes_model_and_residuals(tmp_path, demo_file, capsys):
    out = tmp_path / "model.json"
    rc = run(["train", "--variant", "dq", "--demo", demo_file,
              "-o", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    assert err.count("fit residual dim") == 6
    doc = json.loads(out.read_text())
    assert doc["variant"] == "dual_quaternion"
    assert doc["format_version"] == 1
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
        dqs = dq_from_pose(Pose(traj.positions, traj.quaternions)).as_array()
        xs = phase(traj.t, model.basis.alpha_x, model.tau)
        f = dq_target_forcing(dqs, der.xi, der.xi_dot, xs, model.dqd, model.dq0,
                              model.tau, model.k_rot, model.k_pos, model.d_rot,
                              model.d_pos)
        expected = residual_lines(model, traj, f)
    else:
        vel = np.gradient(traj.positions, traj.dt, axis=0, edge_order=2)
        acc = np.gradient(vel, traj.dt, axis=0, edge_order=2)
        expected = []
        for dim, m in enumerate(model.position):
            demo = ScalarDemo(traj.t, traj.positions[:, dim], vel[:, dim], acc[:, dim])
            f = classical_target_forcing(demo, m.goal, m.tau, m.alpha_z, m.beta_z)
            expected += residual_lines(m, demo, f[:, None], "(scalar)")
        q = model.orientation
        omega, omega_dot = model_frame_rates(traj, q.frame)
        f = quat_target_forcing(traj.quaternions, omega, omega_dot,
                                phase(traj.t, q.basis.alpha_x, q.tau), q.qd, q.q0,
                                q.tau, q.k_gain, q.d_gain, q.frame)
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
    rc = run(["train", "--variant", "dq", "--demo", str(short),
              "-o", str(tmp_path / "m.json")])
    assert rc != 0
    assert "short" in capsys.readouterr().err


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
    out = tmp_path / "out"
    assert run([command, "--demo", str(demo), "-o", str(out)]) == 1
    assert "sample" in capsys.readouterr().err
    if command == "train":
        assert not out.exists()


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
    out = tmp_path / "m.json"
    assert run(["train", "--variant", "classical", "--demo", str(demo), "-o", str(out)]) == 1
    assert ("sample 10" if case == "nan_sample" else "sample 0") in capsys.readouterr().err
    assert not out.exists()


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
    out = tmp_path / "m.json"
    assert run(["train", "--variant", "classical", "--demo", str(demo), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert ("line 3: unparseable" if case == "garbled" else "line 1: expected header") in err
    assert not out.exists()


def test_train_missing_demo_fails(tmp_path, capsys):
    rc = run(["train", "--variant", "dq", "--demo",
              str(tmp_path / "nope.csv"), "-o", str(tmp_path / "m.json")])
    assert rc != 0


@pytest.fixture(scope="module")
def dq_model_file(tmp_path_factory, demo_file):
    path = tmp_path_factory.mktemp("model") / "dq.json"
    assert run(["train", "--variant", "dq", "--demo", demo_file,
                "-o", str(path)]) == 0
    return str(path)


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
    rc = run(["rollout", "--model", str(tmp_path / "nope.json"),
              "-o", str(tmp_path / "r.csv")])
    assert rc != 0


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


def test_compare_missing_demo_fails(tmp_path):
    rc = run(["compare", "--demo", str(tmp_path / "nope.csv"),
              "-o", str(tmp_path / "cmp.csv")])
    assert rc != 0


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
    out = tmp_path / "roll.csv"
    with np.errstate(invalid="ignore"):
        rc = run(["rollout", "--model", str(path), "--dt", "0.01",
                  "--duration", "10", "-o", str(out)])
    assert rc == 1
    assert "non-finite state at sample" in capsys.readouterr().err
    assert not out.exists()
