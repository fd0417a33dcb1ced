import contextlib
import io
import warnings

import numpy as np
import pytest

from dqdmp import (
    BODY,
    ClassicalDmp,
    DualQuaternion,
    DualQuaternionDmp,
    Pose,
    QuaternionDmp,
    basis_scheme_a,
    dq_conjugate,
    dq_from_pose,
    dq_product,
    gen_somersault,
    quat_conjugate,
    quat_product,
    save_trajectory,
)
from dqdmp.cli import main
from dqdmp.dmp import _pose_error
from dqdmp.dualquat import dq_position
from dqdmp.quat import _product


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


def random_unit_quat(rng) -> np.ndarray:
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def random_rotvec(rng, max_angle: float) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return axis * rng.uniform(0.0, max_angle)


def random_unit_dq(rng, pos_scale: float = 2.0) -> DualQuaternion:
    return dq_from_pose(Pose(rng.uniform(-pos_scale, pos_scale, size=3),
                             random_unit_quat(rng)))


# Literals and oracle arithmetic the tests share; the package has no public
# function for them.


def quat_identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def dq_identity() -> DualQuaternion:
    return DualQuaternion(np.array([1.0, 0, 0, 0]), np.zeros(4))


def dq_add(a: DualQuaternion, b: DualQuaternion) -> DualQuaternion:
    return DualQuaternion(a.real + b.real, a.dual + b.dual)


def dq_scale(a: DualQuaternion, s: float) -> DualQuaternion:
    return DualQuaternion(s * a.real, s * a.dual)


def dq_normalize(q: DualQuaternion) -> DualQuaternion:
    """Re-projection onto the unit constraints: the real part rescaled to unit
    norm, the dual part's component along it removed."""
    n = np.linalg.norm(q.real)
    real, dual = q.real / n, q.dual / n
    return DualQuaternion(real, dual - (real @ dual) * real)


def turn(q, s) -> np.ndarray:
    """normalize(q (x) s) for float 4-sequences q and s, with the operations
    of the rollout steps' turn: the step of a body rate r is turn(q, _exp(*r))."""
    w, x, y, z = _product(q, s)
    inv = 1.0 / (w * w + x * x + y * y + z * z) ** 0.5
    return np.array([w * inv, x * inv, y * inv, z * inv])


def pose_components(dq: DualQuaternion) -> np.ndarray:
    """The 7 components [q, p] of the (rotation, position) state at dq."""
    return np.concatenate([dq.real, dq_position(dq)])


def pose_error(dq: DualQuaternion, goal: DualQuaternion) -> np.ndarray:
    """The 6-vector error the dq primitive is driven by, of dq relative to
    goal, evaluated as the rollout does: on dq's [q, p], as floats."""
    return np.array(_pose_error(goal)(pose_components(dq).tolist())[1:])


def dq_error_oracle(dq: DualQuaternion, goal: DualQuaternion) -> np.ndarray:
    """[vec(q_oe), vec(2 q_oe* (x) q_pe)] of q_e = q_oe + eps q_pe = dq* (x)
    goal: the pose error read off the dual quaternion product."""
    qe = dq_product(dq_conjugate(dq), goal)
    p_e = 2.0 * quat_product(quat_conjugate(qe.real), qe.dual)
    return np.concatenate([qe.real[1:], p_e[1:]])


def trajectory_to_csv(traj) -> str:
    """save_trajectory's text, as written to a file."""
    buf = io.StringIO()
    save_trajectory(traj, buf)
    return buf.getvalue()


def rollout_models(rng):
    """A forced dq, quat and classical model with per-axis gains and tau 1.3."""
    K, D = np.diag([4.0, 6.0, 9.0]), np.diag([5.0, 6.0, 7.0])
    return (
        DualQuaternionDmp(K, 2.0 * K, D, 1.5 * D, basis_scheme_a(30, 2.0),
                          rng.normal(size=(6, 30)), random_unit_dq(rng), random_unit_dq(rng), 1.3),
        QuaternionDmp(BODY, K, D, basis_scheme_a(30, 2.0), rng.normal(size=(3, 30)),
                      random_unit_quat(rng), random_unit_quat(rng), 1.3),
        ClassicalDmp(5.0, 1.2, basis_scheme_a(30, 2.0), rng.normal(size=30), 0.3, -0.4, 1.3),
    )


def stiff_dq_model() -> DualQuaternionDmp:
    """K = 625, D = 250, tau = 1: at dt = 0.01 its screw step leaves the exp
    domain at sample 25."""
    return DualQuaternionDmp(625.0 * np.eye(3), 625.0 * np.eye(3), 250.0 * np.eye(3),
                             250.0 * np.eye(3), basis_scheme_a(30, 2.0), np.zeros((6, 30)),
                             dq_from_pose(Pose(np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))),
                             dq_from_pose(Pose(np.array([1.0, 0.0, 0.0]),
                                               np.array([0.0, 1.0, 0.0, 0.0]))), 1.0)


# The command line, run in-process, and the files its tests share.


def run(argv) -> int:
    return main(argv)


def assert_one_error_line(capsys, *fragments):
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("error: "), err
    for fragment in fragments:
        assert fragment in err[0]


# The two refusal harnesses: the library's and the command line's.


@contextlib.contextmanager
def refused(match=None):
    """The block raises a ValueError whose message match finds (re.search;
    None takes any message), and no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match) as exc:
            yield exc


def assert_refused(capsys, out, argv, *fragments):
    """argv, writing to out, exits 1 with one 'error:' line that holds every
    fragment; it writes no out and raises no warning."""
    capsys.readouterr()  # what came before, a fixture's training report among it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([*argv, "-o", str(out)]) == 1
    assert not caught, [str(w.message) for w in caught]
    assert_one_error_line(capsys, *fragments)
    assert not out.exists()


@pytest.fixture(scope="session")
def demo_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("demo") / "somersault.csv"
    save_trajectory(gen_somersault(5.0, 5.0, 0.01), str(path))
    return str(path)


@pytest.fixture(scope="session")
def reach_file(tmp_path_factory):
    """gen minjerk's default demo: a 1 s reach from 0 to 1."""
    path = tmp_path_factory.mktemp("demo") / "reach.csv"
    assert run(["gen", "minjerk", "-o", str(path)]) == 0
    return str(path)


def _trained(tmp_path_factory, variant, demo):
    path = tmp_path_factory.mktemp("model") / f"{variant}.json"
    assert run(["train", "--variant", variant, "--demo", demo, "-o", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="session")
def dq_model_file(tmp_path_factory, demo_file):
    return _trained(tmp_path_factory, "dq", demo_file)


@pytest.fixture(scope="session")
def quat_model_file(tmp_path_factory, demo_file):
    return _trained(tmp_path_factory, "quat", demo_file)


@pytest.fixture(scope="session")
def pose_model_file(tmp_path_factory, demo_file):
    return _trained(tmp_path_factory, "pose-decoupled", demo_file)


@pytest.fixture(scope="session")
def classical_model_file(tmp_path_factory, reach_file):
    return _trained(tmp_path_factory, "classical", reach_file)
