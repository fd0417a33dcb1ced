"""The float-level rollout loop: its gain-block kernel, the arrays it
returns and the inputs and states it refuses."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_unit_dq, random_unit_quat
from dqdmp import (
    BODY,
    ClassicalDmp,
    DualQuaternionDmp,
    QuaternionDmp,
    basis_scheme_a,
    classical_rollout,
    dq_rollout,
    quat_rollout,
)
from dqdmp.dmp import _gain_step

BASIS = basis_scheme_a(30, 2.0)

values = st.floats(-1e3, 1e3, allow_nan=False)
positive = st.floats(1e-3, 1e3)
vec3 = st.lists(values, min_size=3, max_size=3)
dt_tau = st.floats(1e-4, 0.5)


def matrix_update(v, u, K, D, h):
    """The update as matrix products: v + h (K u - D v)."""
    v, u = np.array(v), np.array(u)
    return v + h * (K @ u - D @ v)


@settings(max_examples=300, deadline=None)
@given(v=vec3, u=vec3, kd=st.lists(positive, min_size=6, max_size=6), h=dt_tau)
def test_gain_step_equals_matrix_update_for_diagonal_blocks(v, u, kd, h):
    K, D = np.diag(kd[:3]), np.diag(kd[3:])
    got = np.array(_gain_step(v, u, K.ravel().tolist(), D.ravel().tolist(), h))
    assert np.array_equal(got, matrix_update(v, u, K, D, h))


@settings(max_examples=300, deadline=None)
@given(v=vec3, u=vec3, seed=st.integers(0, 2**32 - 1), h=dt_tau)
def test_gain_step_matches_matrix_update_for_spd_blocks(v, u, seed, h):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    K, D = 50.0 * (np.eye(3) + a @ a.T), 20.0 * (np.eye(3) + b @ b.T)
    got = np.array(_gain_step(v, u, K.ravel().tolist(), D.ravel().tolist(), h))
    # rounding is bounded by the magnitude of the summands
    scale = np.abs(v) + h * (np.abs(K) @ np.abs(u) + np.abs(D) @ np.abs(v))
    assert np.all(np.abs(got - matrix_update(v, u, K, D, h)) <= 1e-12 * scale)


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
