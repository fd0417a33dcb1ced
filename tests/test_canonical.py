import numpy as np
import pytest

from dqdmp import (
    basis_scheme_a,
    design_matrix,
    fit_weights,
    forcing,
    gen_min_jerk,
    phase,
)


def test_phase_starts_at_one():
    assert phase(0.0, 2.0, 1.0) == 1.0


def test_phase_monotone_decreasing():
    t = np.linspace(0.0, 50.0, 400)
    x = phase(t, 0.5, 3.0)
    assert np.all(np.diff(x) < 0.0)
    assert x[-1] < 1e-3


def test_phase_closed_form_slow_clock():
    # alpha_x 0.05, tau 18.9 evaluated at one time constant
    assert abs(phase(18.9, 0.05, 18.9) - np.exp(-0.05)) < 1e-15


def test_phase_rejects_bad_params():
    with pytest.raises(ValueError):
        phase(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        phase(1.0, 1.0, 0.0)


def test_scheme_a_first_center_is_one():
    for n in (2, 5, 30, 100):
        assert basis_scheme_a(n, 0.7).centers[0] == 1.0


def test_scheme_a_two_kernel_values():
    b = basis_scheme_a(2, 1.0)
    c2 = np.exp(-1.0)
    np.testing.assert_allclose(b.centers, [1.0, c2])
    h1 = 1.0 / (c2 - 1.0) ** 2
    np.testing.assert_allclose(b.widths, [h1, h1])


def test_scheme_a_widths_positive():
    b = basis_scheme_a(30, 0.05)
    assert np.all(b.widths > 0) and np.all(np.isfinite(b.widths))
    assert np.all(np.diff(b.centers) < 0)


def test_scheme_a_rejects_single_kernel():
    with pytest.raises(ValueError):
        basis_scheme_a(1, 1.0)


def test_forcing_zero_weights():
    b = basis_scheme_a(10, 2.0)
    for x in np.linspace(1e-3, 1.0, 50):
        assert forcing(x, b, np.zeros(10)) == 0.0


def test_forcing_constant_weights_give_cx():
    # the normalized mix of equal weights is that constant, so f = c x
    b = basis_scheme_a(10, 2.0)
    w = np.full(10, 3.7)
    for x in np.linspace(1e-3, 1.0, 50):
        assert abs(forcing(x, b, w) - 3.7 * x) <= 1e-12 * max(1.0, 3.7 * x)


def test_forcing_vanishes_with_phase():
    b = basis_scheme_a(10, 2.0)
    w = np.linspace(-5, 5, 10)
    bound = np.max(np.abs(w))
    for x in np.logspace(-6, 0, 40):
        assert abs(forcing(x, b, w)) <= bound * x + 1e-15


def test_forcing_extinguished_on_activation_underflow():
    # far outside the kernel range the activations underflow; the forcing
    # must report exactly zero instead of 0/0
    b = basis_scheme_a(10, 0.05)  # kernels clustered near x ~ 1, very narrow
    assert forcing(1e-8, b, np.full(10, 2.0)) == 0.0


def test_partition_positive_on_unit_interval():
    b = basis_scheme_a(30, 2.0)
    for x in np.linspace(1e-3, 1.0, 200):
        assert b.kernel_values(x).sum() > 0.0


def test_fit_weights_zero_targets():
    b = basis_scheme_a(15, 2.0)
    xs = phase(np.linspace(0, 1, 200), 2.0, 1.0)
    w, resid = fit_weights(xs, np.zeros(200), b)
    np.testing.assert_allclose(w, np.zeros(15))
    assert resid == 0.0


def test_fit_weights_recovers_known_weights(rng):
    # synthesize targets from known weights; with samples >> kernels the
    # minimum-norm solution must recover them
    b = basis_scheme_a(12, 2.0)
    w_true = rng.normal(size=12) * 5.0
    xs = phase(np.linspace(0, 1, 400), 2.0, 1.0)
    targets = np.array([forcing(x, b, w_true) for x in xs])
    w, resid = fit_weights(xs, targets, b)
    assert np.linalg.norm(w - w_true) / np.linalg.norm(w_true) <= 1e-6
    assert resid <= 1e-9 * np.linalg.norm(targets)


def test_fit_weights_minjerk_residual():
    from dqdmp import classical_target_forcing
    demo = gen_min_jerk(0.0, 1.0, 1.0, 0.01)
    fd = classical_target_forcing(demo, 1.0, 1.0, 25.0, 6.25)
    b = basis_scheme_a(30, 2.0)
    xs = phase(demo.t, 2.0, 1.0)
    _, resid = fit_weights(xs, fd, b)
    assert resid / np.linalg.norm(fd) < 1e-3


def test_fit_weights_is_least_squares_optimal(rng):
    # compare against a brute-force normal-equations solve and check that
    # perturbed weights never beat the returned residual
    b = basis_scheme_a(6, 1.5)
    xs = phase(np.linspace(0, 1, 40), 1.5, 1.0)
    targets = rng.normal(size=40)
    w, resid = fit_weights(xs, targets, b)
    A = design_matrix(xs, b)
    w_ref = np.linalg.solve(A.T @ A, A.T @ targets)
    resid_ref = np.linalg.norm(A @ w_ref - targets)
    assert resid <= resid_ref + 1e-9
    for _ in range(50):
        w_pert = w + rng.normal(size=6) * 1e-3
        assert np.linalg.norm(A @ w_pert - targets) >= resid - 1e-12


def test_design_matrix_shape_and_gating():
    b = basis_scheme_a(8, 2.0)
    xs = np.array([1.0, 0.5, 0.25])
    A = design_matrix(xs, b)
    assert A.shape == (3, 8)
    # rows are normalized activations scaled by the phase value
    np.testing.assert_allclose(A.sum(axis=1), xs, atol=1e-12)
