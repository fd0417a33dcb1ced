"""Model file round trips: field fidelity and byte-exact re-serialization."""

import io
import json

import numpy as np
import pytest

from dqdmp import (
    basis_scheme_a,
    classical_rollout,
    classical_train,
    dq_rollout,
    dq_train,
    gen_min_jerk,
    gen_somersault,
    load_model,
    pose_train,
    quat_train,
    save_model,
)


def roundtrip(model):
    buf = io.StringIO()
    save_model(model, buf)
    text = buf.getvalue()
    loaded = load_model(io.StringIO(text))
    buf2 = io.StringIO()
    save_model(loaded, buf2)
    return text, loaded, buf2.getvalue()


def test_classical_roundtrip_bytes_and_fields():
    demo = gen_min_jerk(0.0, 1.0, 1.0, 0.01)
    m = classical_train(demo, 1.0, 1.0, 25.0, 6.25, basis_scheme_a(20, 2.0))
    text, loaded, again = roundtrip(m)
    assert text == again
    assert loaded.alpha_z == m.alpha_z and loaded.beta_z == m.beta_z
    assert loaded.tau == m.tau and loaded.goal == m.goal and loaded.y0 == m.y0
    np.testing.assert_array_equal(loaded.weights, m.weights)
    np.testing.assert_array_equal(loaded.basis.centers, m.basis.centers)
    np.testing.assert_array_equal(loaded.basis.widths, m.basis.widths)


def test_quaternion_roundtrip():
    traj = gen_somersault(5.0, 3.0, 0.01)
    m = quat_train(traj, 3.0, 2.0, 9.0, basis_scheme_a(25, 1.0),
                   frame="inertial")
    text, loaded, again = roundtrip(m)
    assert text == again
    assert loaded.frame == "inertial"
    np.testing.assert_array_equal(loaded.k_gain, m.k_gain)
    np.testing.assert_array_equal(loaded.weights, m.weights)
    np.testing.assert_array_equal(loaded.q0, m.q0)
    np.testing.assert_array_equal(loaded.qd, m.qd)


def test_dual_quaternion_roundtrip_and_rollout_equivalence():
    traj = gen_somersault(5.0, 3.0, 0.01)
    m = dq_train(traj, 3.0, 1.0, 1.0, 10.0, 10.0, basis_scheme_a(30, 0.05))
    text, loaded, again = roundtrip(m)
    assert text == again
    np.testing.assert_array_equal(loaded.weights, m.weights)
    np.testing.assert_array_equal(loaded.dq0.as_array(), m.dq0.as_array())
    # a loaded model must integrate to the identical path
    ra = dq_rollout(m, dt=0.01, duration=1.0)
    rb = dq_rollout(loaded, dt=0.01, duration=1.0)
    np.testing.assert_array_equal(ra.dq, rb.dq)
    np.testing.assert_array_equal(ra.xi, rb.xi)


def test_pose_decoupled_roundtrip():
    traj = gen_somersault(5.0, 3.0, 0.01)
    m = pose_train(traj, 3.0, 0.1, 30, 10.0, 10.0 * np.sqrt(10.0), 50, 1.0, 10.0)
    text, loaded, again = roundtrip(m)
    assert text == again
    assert len(loaded.position) == 3
    for sub_l, sub_m in zip(loaded.position, m.position):
        np.testing.assert_array_equal(sub_l.weights, sub_m.weights)
    np.testing.assert_array_equal(loaded.orientation.weights,
                                  m.orientation.weights)
    # classical sub-rollouts identical after the round trip
    ra = classical_rollout(m.position[0], m.position[0].y0, 0.01, 1.0)
    rb = classical_rollout(loaded.position[0], loaded.position[0].y0, 0.01, 1.0)
    np.testing.assert_array_equal(ra.y, rb.y)


def test_load_rejects_unknown_version():
    with pytest.raises(ValueError, match="version"):
        load_model(io.StringIO('{"format_version": 99, "variant": "classical"}'))


def test_load_rejects_unknown_variant():
    with pytest.raises(ValueError, match="variant"):
        load_model(io.StringIO(
            '{"format_version": 1, "variant": "mystery", "tau": 1.0,'
            ' "basis": {"scheme": "a", "alpha_x": 1.0, "n_kernels": 2,'
            ' "centers": [1.0, 0.5], "widths": [1.0, 1.0]},'
            ' "weights": [[0.0, 0.0]]}'))


# -- malformed model files --------------------------------------------------------


def _docs():
    """One small valid document per variant, as save_model writes it."""
    from dqdmp import ClassicalDmp, DualQuaternionDmp, QuaternionDmp, dq_identity
    basis = basis_scheme_a(5, 1.0)
    eye = np.eye(3)
    q = np.array([1.0, 0.0, 0.0, 0.0])
    models = {
        "classical": ClassicalDmp(25.0, 6.25, basis, np.zeros(5), 0.0, 1.0, 1.0),
        "quaternion": QuaternionDmp("body", eye, 2 * eye, basis, np.zeros((3, 5)),
                                    q, q, 1.0),
        "dual_quaternion": DualQuaternionDmp(eye, eye, 2 * eye, 2 * eye, basis,
                                             np.zeros((6, 5)), dq_identity(),
                                             dq_identity(), 1.0),
    }
    docs = {}
    for name, m in models.items():
        buf = io.StringIO()
        save_model(m, buf)
        docs[name] = json.loads(buf.getvalue())
    return docs


def _rename_weights(d):
    d["wieghts"] = d.pop("weights")


def _scale(key, factor):
    def edit(d):
        d["boundary"][key] = [factor * v for v in d["boundary"][key]]
    return edit


BAD_FILES = {
    "missing key": ("dual_quaternion", lambda d: d.pop("gains")),
    "mistyped key": ("quaternion", _rename_weights),
    "weights columns": ("dual_quaternion", lambda d: [w.pop() for w in d["weights"]]),
    "weights rows": ("quaternion", lambda d: d["weights"].pop()),
    "gains not positive definite": ("dual_quaternion",
                                    lambda d: d["gains"].update(k_rot=(-np.eye(3)).tolist())),
    "gains not symmetric": ("quaternion",
                            lambda d: d["gains"].update(d=[[1, 2, 0], [0, 1, 0], [0, 0, 1]])),
    "tau not positive": ("quaternion", lambda d: d.update(tau=0.0)),
    "alpha_z not positive": ("classical", lambda d: d["gains"].update(alpha_z=0.0)),
    "beta_z not positive": ("classical", lambda d: d["gains"].update(beta_z=-6.25)),
    "q0 off unit": ("quaternion", _scale("q0", 1.0 + 1e-5)),
    "dqd off unit": ("dual_quaternion", _scale("dqd", 1.0 + 1e-5)),
    "weight not finite": ("dual_quaternion", lambda d: d["weights"][2].__setitem__(1, np.nan)),
    "goal not finite": ("classical", lambda d: d["boundary"].update(goal=np.inf)),
    "y0 not finite": ("classical", lambda d: d["boundary"].update(y0=np.nan)),
    "alpha_z not finite": ("classical", lambda d: d["gains"].update(alpha_z=np.inf)),
    "tau not finite": ("dual_quaternion", lambda d: d.update(tau=np.inf)),
    "dqd not finite": ("dual_quaternion", lambda d: d["boundary"]["dqd"].__setitem__(5, np.nan)),
    "center not finite": ("quaternion", lambda d: d["basis"]["centers"].__setitem__(2, np.nan)),
    "scheme b": ("classical", lambda d: d["basis"].update(scheme="b", total_time=1.0, dt=0.01)),
}


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_malformed_model_file_is_rejected(tmp_path, capsys, case):
    from dqdmp.cli import main
    variant, edit = BAD_FILES[case]
    doc = _docs()[variant]
    load_model(io.StringIO(json.dumps(doc)))
    edit(doc)
    text = json.dumps(doc)
    with pytest.raises(ValueError):
        load_model(io.StringIO(text))
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["rollout", "--model", str(path), "-o", str(tmp_path / "r.csv")]) == 1
    assert "error" in capsys.readouterr().err

