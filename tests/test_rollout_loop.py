"""The float-level rollout loop: its per-axis gain drive, the arrays it
returns, the inputs and states it refuses and the numpy calls it does not
make."""

import math
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dqdmp.dmp
import dqdmp.dualquat
import dqdmp.quat
from conftest import pose_error, random_unit_dq, random_unit_quat
from dqdmp import (
    BODY,
    ClassicalDmp,
    DualQuaternionDmp,
    Pose,
    PoseDecoupledDmp,
    QuaternionDmp,
    basis_scheme_a,
    classical_rollout,
    dq_from_pose,
    dq_rollout,
    pose_rollout,
    quat_rollout,
)
from dqdmp.canonical import forcing_rows
from dqdmp.dmp import _clock, _quat_error
from dqdmp.quat import _exp

BASIS = basis_scheme_a(30, 2.0)

values = st.floats(-1e3, 1e3, allow_nan=False)
positive = st.floats(1e-3, 1e3)
vec6 = st.lists(values, min_size=6, max_size=6)
dt_tau = st.floats(1e-4, 0.5)


def matrix_update(v, u, K, D, h):
    """The update as matrix products: v + h (K u - D v)."""
    v, u = np.array(v), np.array(u)
    return v + h * (K @ u - D @ v)


FEW = basis_scheme_a(5, 2.0)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), v=vec6, kd=st.lists(positive, min_size=12, max_size=12),
       w=st.lists(values, min_size=30, max_size=30), t_start=st.floats(0.0, 3.0), dt=dt_tau)
def test_gain_step_equals_matrix_update_for_diagonal_blocks(seed, v, kd, w, t_start, dt):
    # one step of each rollout: its new velocity is v + h (K u - D v) with
    # u = e - e0 x + f at the start sample, e0 the error of the model's start
    rng = np.random.default_rng(seed)
    Kr, Dr, Kp, Dp = (np.diag(kd[i:i + 3]) for i in range(0, 12, 3))
    tau, weights = 1.3, np.reshape(w, (6, 5))
    h, half = dt / tau, dt / (2.0 * tau)
    xs = _clock(FEW.alpha_x, tau, dt, dt, t_start)[1]
    x, f = xs[0], forcing_rows(xs, FEW, weights)[0]

    quat = QuaternionDmp(BODY, Kr, Dr, FEW, weights[:3], random_unit_quat(rng),
                         random_unit_quat(rng), tau)
    q0 = random_unit_quat(rng)
    roll = quat_rollout(quat, q0=q0, omega0=v[:3], dt=dt, duration=dt, t_start=t_start)
    e, e0 = (np.array(_quat_error(q.tolist(), quat.qd.tolist())[1:]) for q in (roll.q[0], quat.q0))
    assert np.array_equal(roll.omega[1], matrix_update(v[:3], e - e0 * x + f[:3], Kr, Dr, h))

    dq = DualQuaternionDmp(Kr, Kp, Dr, Dp, FEW, weights, random_unit_dq(rng),
                           random_unit_dq(rng), tau)
    dq0 = random_unit_dq(rng)
    u = pose_error(dq0, dq.dqd) - pose_error(dq.dq0, dq.dqd) * x + f
    want = np.concatenate([matrix_update(v[:3], u[:3], Kr, Dr, h),
                           matrix_update(v[3:], u[3:], Kp, Dp, h)])
    rx, ry, rz = (half * r for r in want[:3].tolist())
    if (rx * rx + ry * ry + rz * rz) ** 0.5 < math.pi:
        roll = dq_rollout(dq, dq0=dq0, xi0=v, dt=dt, duration=dt, t_start=t_start)
        assert np.array_equal(roll.xi[1], want)
    else:  # the screw step of that twist is outside the exp domain
        with pytest.raises(ValueError, match=r"outside the exp domain at sample 0 \(t = "):
            dq_rollout(dq, dq0=dq0, xi0=v, dt=dt, duration=dt, t_start=t_start)


def _models(rng):
    K, D = np.diag([4.0, 6.0, 9.0]), np.diag([5.0, 6.0, 7.0])
    return (
        DualQuaternionDmp(K, 2.0 * K, D, 1.5 * D, BASIS, rng.normal(size=(6, 30)),
                          random_unit_dq(rng), random_unit_dq(rng), 1.3),
        QuaternionDmp(BODY, K, D, BASIS, rng.normal(size=(3, 30)),
                      random_unit_quat(rng), random_unit_quat(rng), 1.3),
        ClassicalDmp(5.0, 1.2, BASIS, rng.normal(size=30), 0.3, -0.4, 1.3),
    )


def _rollouts(rng, **kw):
    dq, quat, classical = _models(rng)
    return (dq_rollout(dq, **kw), quat_rollout(quat, **kw),
            classical_rollout(classical, classical.y0, **kw))


def test_rollout_states_are_contiguous_writable_and_unshared(rng):
    first = _rollouts(rng, dt=0.01, duration=2.0)
    second = _rollouts(rng, dt=0.01, duration=2.0)
    states = (("t", "x", "dq", "xi", "forcing"), ("t", "x", "q", "omega", "forcing"),
              ("t", "x", "y", "z", "forcing"))
    for a, b, names in zip(first, second, states):
        for name in names:
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == np.float64 and x.flags.c_contiguous, name
            assert x.flags.writeable, name
            assert not np.shares_memory(x, y), name
            kept = y.copy()
            x[...] = 0.0
            assert np.array_equal(y, kept), name


def test_zero_duration_rollout_is_one_sample(rng):
    dq, quat, classical = _models(rng)
    xi0, omega0 = rng.normal(size=6), rng.normal(size=3)
    r = dq_rollout(dq, xi0=xi0, dt=0.01, duration=0.0, t_start=0.4)
    assert r.t.tolist() == [0.4] and r.dq.shape == (1, 8) and r.xi.shape == (1, 6)
    assert np.array_equal(r.dq[0], dq.dq0.as_array()) and np.array_equal(r.xi[0], xi0)
    r = quat_rollout(quat, omega0=omega0, dt=0.01, duration=0.0)
    assert r.t.tolist() == [0.0] and r.q.shape == (1, 4) and r.omega.shape == (1, 3)
    assert np.array_equal(r.q[0], quat.q0) and np.array_equal(r.omega[0], omega0)
    r = classical_rollout(classical, 0.25, 0.01, 0.0, z0=0.5)
    assert r.y.tolist() == [0.25] and r.z.tolist() == [0.5]


@pytest.mark.parametrize("t_start", [np.nan, np.inf, -np.inf])
def test_rollouts_reject_non_finite_t_start(rng, t_start):
    dq, quat, classical = _models(rng)
    with pytest.raises(ValueError, match="t_start"):
        dq_rollout(dq, dt=0.01, duration=1.0, t_start=t_start)
    with pytest.raises(ValueError, match="t_start"):
        quat_rollout(quat, dt=0.01, duration=1.0, t_start=t_start)
    with pytest.raises(ValueError, match="t_start"):
        classical_rollout(classical, classical.y0, 0.01, 1.0, t_start=t_start)


# K = 625, D = 250 at dt = 0.01, tau = 1: the semi-implicit step is unstable


def test_unstable_quat_rollout_raises_on_non_finite_state():
    m = QuaternionDmp(BODY, 625.0 * np.eye(3), 250.0 * np.eye(3), BASIS,
                      np.zeros((3, 30)), np.array([1.0, 0.0, 0.0, 0.0]),
                      np.array([0.0, 1.0, 0.0, 0.0]), 1.0)
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValueError, match=r"non-finite state at sample \d+ \(t = "):
        quat_rollout(m, dt=0.01, duration=10.0)


def test_unstable_quat_rollout_raises_before_any_numpy_warning():
    # the nan that reaches the step's sin / cos is the fault the error reports
    m = QuaternionDmp(BODY, 625.0 * np.eye(3), 250.0 * np.eye(3), BASIS,
                      np.zeros((3, 30)), np.array([1.0, 0.0, 0.0, 0.0]),
                      np.array([0.0, 1.0, 0.0, 0.0]), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite state at sample 898"):
            quat_rollout(m, dt=0.01, duration=10.0)


def test_unstable_dq_rollout_names_the_sample_time_and_step_size():
    # it raised "twist rotation magnitude 3.794419 outside the exp domain"
    # with no sample, no time and no hint
    m = DualQuaternionDmp(625.0 * np.eye(3), 625.0 * np.eye(3), 250.0 * np.eye(3),
                          250.0 * np.eye(3), BASIS, np.zeros((6, 30)),
                          dq_from_pose(Pose(np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))),
                          dq_from_pose(Pose(np.array([1.0, 0.0, 0.0]),
                                            np.array([0.0, 1.0, 0.0, 0.0]))), 1.0)
    with pytest.raises(ValueError, match=r"^twist rotation magnitude 3\.794419 outside the exp "
                                         r"domain at sample 25 \(t = 0\.25\): dt / tau too "
                                         r"large\?$"):
        dq_rollout(m, dt=0.01, duration=10.0)


def _stiff_dq_model():
    # the model above: its screw step leaves the exp domain at sample 25
    return DualQuaternionDmp(625.0 * np.eye(3), 625.0 * np.eye(3), 250.0 * np.eye(3),
                             250.0 * np.eye(3), BASIS, np.zeros((6, 30)),
                             dq_from_pose(Pose(np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))),
                             dq_from_pose(Pose(np.array([1.0, 0.0, 0.0]),
                                               np.array([0.0, 1.0, 0.0, 0.0]))), 1.0)


def test_a_dq_rollout_out_of_the_exp_domain_on_its_first_step_names_sample_0(rng):
    dq, _, _ = _models(rng)
    with pytest.raises(ValueError, match=r"^twist rotation magnitude \d+\.\d+ outside the exp "
                                         r"domain at sample 0 \(t = 0\.37\): dt / tau"):
        dq_rollout(dq, xi0=[2000.0, 0.0, 0.0, 0.0, 0.0, 0.0], dt=0.01, duration=1.0,
                   t_start=0.37)


def test_a_dq_rollout_out_of_the_exp_domain_on_its_last_step_names_sample_n_minus_2():
    # to t = 0.25 the rollout ends at sample 25, before the step out of the
    # domain; to t = 0.26 that step is its last, from sample 25 of 27
    m = _stiff_dq_model()
    assert len(dq_rollout(m, dt=0.01, duration=0.25).t) == 26
    with pytest.raises(ValueError, match=r"^twist rotation magnitude 3\.794419 outside the exp "
                                         r"domain at sample 25 \(t = 0\.25\): dt / tau too "
                                         r"large\?$"):
        dq_rollout(m, dt=0.01, duration=0.26)


def test_unstable_classical_rollout_raises_on_non_finite_state():
    m = ClassicalDmp(250.0, 2.5, BASIS, np.zeros(30), 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match=r"non-finite state at sample \d+ \(t = "):
        classical_rollout(m, m.y0, 0.01, 30.0)


def test_rollouts_reject_a_start_velocity_of_the_wrong_length(rng):
    dq, quat, _ = _models(rng)
    for omega0 in ([1.0, 2.0], [1.0, 2.0, 3.0, 4.0], 1.0):
        for duration in (0.0, 1.0):
            with pytest.raises(ValueError, match="start velocity must have 3 components"):
                quat_rollout(quat, omega0=omega0, dt=0.01, duration=duration)
    with pytest.raises(ValueError, match="start velocity must have 6 components"):
        dq_rollout(dq, xi0=np.zeros(5), dt=0.01, duration=1.0)


def test_quat_rollout_rejects_a_start_pose_of_the_wrong_length(rng):
    # it failed with "not enough values to unpack (expected 4, got 3)"
    _, quat, _ = _models(rng)
    for duration in (0.0, 1.0):
        with pytest.raises(ValueError, match="^the start pose must have 4 components$"):
            quat_rollout(quat, q0=[0.6, 0.8, 0.0], dt=0.01, duration=duration)


@pytest.mark.parametrize("q0", [[1e200, 1e200, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0]],
                         ids=["overflowing", "infinite"])
def test_quat_rollout_refuses_a_start_whose_squared_norm_overflows(rng, q0):
    # the first printed an overflow warning, normalized to zeros and raised
    # ZeroDivisionError; the second warned of an invalid divide first
    _, quat, _ = _models(rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^cannot normalize a quaternion whose squared "
                                             "norm overflows$"):
            quat_rollout(quat, q0=q0, dt=0.01, duration=1.0)


def test_quat_rollout_refuses_a_goal_whose_squared_norm_overflows(rng):
    # quat_norm printed an overflow warning before the unit check raised
    _, quat, _ = _models(rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^goal_override must be a unit quaternion"):
            quat_rollout(quat, goal_override=[1e200, 1e200, 0.0, 0.0], dt=0.01, duration=1.0)


def test_rollouts_refuse_a_time_grid_no_array_can_hold(rng):
    # each failed with numpy's "Maximum allowed size exceeded"; a step this
    # small is refused before any array is made
    dq, quat, classical = _models(rng)
    kw = dict(dt=1e-300, duration=1.0)
    for run in (lambda: dq_rollout(dq, **kw), lambda: quat_rollout(quat, **kw),
                lambda: classical_rollout(classical, classical.y0, **kw)):
        with pytest.raises(ValueError, match="^duration 1 over dt 1e-300 is more samples "
                                             "than an array can hold$"):
            run()


def test_quat_rollout_keeps_the_bits_of_a_large_finite_start(rng):
    _, quat, _ = _models(rng)
    q0 = 1e150 * random_unit_quat(rng)
    roll = quat_rollout(quat, q0=q0, dt=0.01, duration=0.0)
    assert np.array_equal(roll.q[0], q0 / float(np.sqrt(q0 @ q0)))


@pytest.mark.parametrize("tau", [-5.0, np.nan, -np.inf])
def test_rollouts_blame_a_bad_tau_not_the_default_duration(rng, tau):
    # the default duration 1.5 tau was checked first: "duration must be non-negative"
    dq, quat, classical = _models(rng)
    for run in (lambda: dq_rollout(dq, tau_override=tau),
                lambda: quat_rollout(quat, tau_override=tau),
                lambda: classical_rollout(classical, classical.y0, 0.01, tau_override=tau)):
        with pytest.raises(ValueError, match="^alpha_x and tau must be positive and finite$"):
            run()


@pytest.mark.parametrize("variant, start", [
    ("quat", {"q0": [np.nan, 0.0, 0.0, 0.0]}),
    ("quat", {"omega0": [np.nan, 0.0, 0.0]}),
    ("quat", {"omega0": [0.0, 0.0, -np.inf]}),
    ("dq", {"xi0": [np.inf, 0.0, 0.0, 0.0, 0.0, 0.0]}),
    ("dq", {"xi0": [0.0, 0.0, 0.0, 0.0, np.nan, 0.0]}),
])
def test_rollouts_refuse_a_non_finite_start(rng, variant, start):
    # each failed as "non-finite state at sample 0 (t = 0): dt / tau too large?"
    dq, quat, _ = _models(rng)
    rollout, model = (dq_rollout, dq) if variant == "dq" else (quat_rollout, quat)
    with pytest.raises(ValueError, match="^the start pose and velocity must be finite$"):
        rollout(model, dt=0.01, duration=1.0, **start)


# -- the loop over time makes no numpy call ----------------------------------------


class _CountedNumpy:
    """Stands in for numpy in the kernel modules and counts every attribute
    read: a profiler sees no ufunc call, but each np.sin is a read."""

    def __init__(self):
        self.reads = 0

    def __getattr__(self, name):
        self.reads += 1
        return getattr(np, name)


def _numpy_calls(monkeypatch, run) -> int:
    """Numpy functions and array methods the profiler sees run, plus the
    reads of numpy's names in quat, dualquat and dmp."""
    counted, calls = _CountedNumpy(), 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += frame.f_globals.get("__name__", "").startswith("numpy")
        elif event == "c_call":
            module = getattr(arg, "__module__", None) or type(arg.__self__).__module__
            calls += module.startswith("numpy")

    with monkeypatch.context() as patch:
        for module in (dqdmp.quat, dqdmp.dualquat, dqdmp.dmp):
            patch.setattr(module, "np", counted)
        sys.setprofile(profile)
        try:
            run()
        finally:
            sys.setprofile(None)
    return calls + counted.reads


def test_rollouts_make_as_many_numpy_calls_for_n_steps_as_for_2n(rng, monkeypatch):
    # 200 and 400 steps: one block of the forcing grid either way
    dq, quat, _ = _models(rng)
    for rollout, model in ((dq_rollout, dq), (quat_rollout, quat)):
        short, long = (_numpy_calls(monkeypatch, lambda: rollout(model, dt=0.005, duration=d))
                       for d in (1.0, 2.0))
        assert short == long > 0, rollout.__name__


def test_quat_exp_of_an_overflowing_angle_is_nan():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in ([1e200, 0.0, 0.0], [math.inf, 1.0, 0.0], [1e155, -1e155, 1e155]):
            assert all(math.isnan(c) for c in _exp(*r)), r


# -- the loop over time calls only its kernels ------------------------------------


def _profiled_calls(run, event="call") -> Counter:
    """Functions the profiler sees called while run runs, by name: Python
    functions for event "call", built-in ones (a Struct's pack_into) for "c_call"."""
    calls = Counter()

    def profile(frame, what, arg):
        if what == event:
            calls[arg.__name__ if what == "c_call" else frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_a_rollout_step_calls_only_its_kernels(rng):
    # 200 and 400 steps: per step a dq rollout calls _screw and _rotate, a
    # quat rollout _exp, a classical rollout nothing; the step closure the
    # driver called once per step is gone
    dq, quat, classical = _models(rng)
    for name, rollout, kernels in (
            ("dq", lambda d: dq_rollout(dq, dt=0.005, duration=d), ("_screw", "_rotate")),
            ("quat", lambda d: quat_rollout(quat, dt=0.005, duration=d), ("_exp",)),
            ("classical", lambda d: classical_rollout(classical, 0.3, 0.005, d), ())):
        short, long = (_profiled_calls(lambda: rollout(d)) for d in (1.0, 2.0))
        assert long - short == Counter(dict.fromkeys(kernels, 200)), name
        assert all(short[kernel] == 200 for kernel in kernels[:1]), name


def test_every_rollout_runs_on_the_one_driver(rng):
    # the scalar primitive had its own loop beside _integrate; the baseline
    # drives three position axes and its orientation primitive on it
    dq, quat, classical = _models(rng)
    baseline = PoseDecoupledDmp((classical,) * 3, quat)
    for name, run, drives in (
            ("dq", lambda: dq_rollout(dq, dt=0.01, duration=1.0), 1),
            ("quat", lambda: quat_rollout(quat, dt=0.01, duration=1.0), 1),
            ("classical", lambda: classical_rollout(classical, 0.3, 0.01, 1.0), 1),
            ("pose", lambda: pose_rollout(baseline, 0.01, 1.0), 4)):
        assert _profiled_calls(run)["_integrate"] == drives, name


def test_a_rollout_step_stores_its_state_with_one_pack(rng):
    # 200 and 400 steps: each step of a dq, quat or classical rollout stores its
    # whole state, pose and velocity, as one row with one pack_into
    dq, quat, classical = _models(rng)
    for name, rollout in (("dq", lambda d: dq_rollout(dq, dt=0.005, duration=d)),
                          ("quat", lambda d: quat_rollout(quat, dt=0.005, duration=d)),
                          ("classical", lambda d: classical_rollout(classical, 0.3, 0.005, d))):
        packs = [_profiled_calls(lambda: rollout(d), "c_call")["pack_into"] for d in (1.0, 2.0)]
        assert packs == [200, 400], name
