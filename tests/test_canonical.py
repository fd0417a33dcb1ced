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


@pytest.mark.parametrize("alpha_x, tau", [(1.0, np.inf), (np.inf, 1.0), (1.0, np.nan)])
def test_phase_rejects_non_finite_params(alpha_x, tau):
    # an infinite tau froze the clock at x = 1 and trained nan weights
    with pytest.raises(ValueError, match="positive and finite"):
        phase(np.arange(3) * 0.1, alpha_x, tau)


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
    xs = phase(demo.t, 2.0, 1.0)
    fd = classical_target_forcing(demo, 1.0, xs, 1.0, 25.0, 6.25)
    b = basis_scheme_a(30, 2.0)
    _, resid = fit_weights(xs, fd, b)
    # e0 x (e0 = 1) is in the kernels' span, so the residual is that of the
    # targets less the start-error term: measured against those
    assert resid / np.linalg.norm(fd - xs) < 1e-3


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


# -- the solve: one QR of the design matrix, each column against it on its own --

SOLVER_CASES = {
    # name: (samples, kernels, alpha_x, span of the demo in tau, rows under the floor)
    "dq 1100 x 30": (1100, 30, 0.05, 1.0, 0),
    "dq 2900 x 30": (2900, 30, 0.05, 1.0, 0),
    "orientation 1100 x 50": (1100, 50, 0.1, 1.0, 0),
    "orientation 2900 x 50": (2900, 50, 0.1, 1.0, 0),
    "kernels > samples": (40, 60, 2.0, 1.0, 0),
    "a tenth of tau, rank 7": (1100, 30, 0.05, 0.1, 0),
    "rows under the floor": (1100, 30, 0.05, 1.0, 200),
    "all rows under the floor": (0, 30, 0.05, 1.0, 50),
}


def solver_case(case):
    n, n_kernels, alpha_x, span, n_floor = SOLVER_CASES[case]
    basis = basis_scheme_a(n_kernels, alpha_x)
    xs = np.concatenate([phase(np.linspace(0.0, span, n), alpha_x, 1.0),
                         np.full(n_floor, 1e-8)])
    return xs, basis, design_matrix(xs, basis)


@pytest.mark.parametrize("case", SOLVER_CASES)
def test_fit_weights_matches_lstsq(rng, case):
    xs, basis, A = solver_case(case)
    assert np.any(A) == (case != "all rows under the floor")
    assert np.all(np.any(A, axis=1)) == (SOLVER_CASES[case][4] == 0)
    targets = np.cumsum(rng.normal(size=(len(xs), 4)), axis=0)
    weights, residuals = fit_weights(xs, targets, basis)
    for j in range(4):
        w, *_ = np.linalg.lstsq(A, targets[:, j], rcond=1e-10)
        # relative to the column's largest weight: a small weight carries the
        # rounding of its larger neighbours
        assert np.all(np.abs(weights[j] - w) <= 1e-13 * np.abs(w).max())
        assert residuals[j] == np.linalg.norm(A @ weights[j] - targets[:, j])


def test_fit_weights_is_minimum_norm_with_more_kernels_than_samples(rng):
    xs, basis, A = solver_case("kernels > samples")
    targets = rng.normal(size=len(xs))
    w, resid = fit_weights(xs, targets, basis)
    _, s, vt = np.linalg.svd(A)
    rank = np.count_nonzero(s > 1e-10 * s[0])
    assert rank < basis.n_kernels
    # no component in the null space of A: any other solution is longer
    assert np.linalg.norm(vt[rank:] @ w) <= 1e-12 * np.linalg.norm(w)
    assert resid <= 1e-9 * np.linalg.norm(targets)


def test_fit_weights_on_an_all_zero_design_is_zero(rng):
    xs, basis, A = solver_case("all rows under the floor")
    assert not np.any(A)
    targets = rng.normal(size=(len(xs), 2))
    weights, residuals = fit_weights(xs, targets, basis)
    assert not np.any(weights)
    assert list(residuals) == [np.linalg.norm(-targets[:, j]) for j in range(2)]


def test_fit_weights_factors_once_and_calls_no_lstsq(rng, monkeypatch):
    calls = []
    for name in ("qr", "lstsq"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _n=name, _f=real, **k: calls.append(_n) or _f(*a, **k))
    basis = basis_scheme_a(30, 0.05)
    xs = phase(np.linspace(0.0, 1.0, 500), 0.05, 1.0)
    fit_weights(xs, rng.normal(size=(500, 6)), basis)
    assert calls == ["qr"]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_fit_weights_refuses_non_finite_targets(bad):
    # an inf target made every weight NaN, silently
    basis = basis_scheme_a(10, 2.0)
    xs = phase(np.linspace(0.0, 1.0, 50), 2.0, 1.0)
    targets = np.ones((50, 3))
    targets[9, 1] = targets[7, 2] = bad
    with pytest.raises(ValueError, match=f"target {bad} at sample 7, dimension 2"):
        fit_weights(xs, targets, basis)
    with pytest.raises(ValueError, match=f"target {bad} at sample 9, dimension 0"):
        fit_weights(xs, targets[:, 1], basis)
