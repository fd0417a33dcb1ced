"""Kernels and forcing over a whole phase grid against per-phase formulas.

A rollout takes the forcing of its whole time grid from one
``forcing_rows`` call.  The references below are the single-phase formulas
written out as they were before the kernels took stacks: the kernels
``exp(-h (x - c)^2)``, ``(W @ psi) / psi.sum() * x`` with the 1e-300
floor, and the scalar primitive's rollout loop that evaluated the forcing
one phase at a time.  Every comparison is bit for bit.
"""

import numpy as np
import pytest

from dqdmp import ClassicalDmp, basis_scheme_a, classical_rollout
from dqdmp.canonical import design_matrix, forcing, forcing_rows, phase

BASES = [basis_scheme_a(30, 2.0)]
IDS = ["scheme_a"]


def reference_kernels(basis, x):
    return np.exp(-basis.widths * (x - basis.centers) ** 2)


def reference_forcing(basis, weights, x):
    psi = reference_kernels(basis, x)
    s = psi.sum()
    if s < 1e-300:
        return np.zeros(weights.shape[0])
    return (weights @ psi) / s * x


def grid(basis):
    """A rollout's phase grid plus phases far outside it, where the kernel
    sums fall just below the floor (still positive) and to zero."""
    xs = np.concatenate([phase(np.linspace(0.0, 3.0, 301), basis.alpha_x, 1.0),
                         np.linspace(-400.0, 400.0, 4001)])
    sums = np.array([reference_kernels(basis, x).sum() for x in xs])
    assert np.any(sums >= 1e-300)
    assert np.any((sums > 0.0) & (sums < 1e-300))
    assert np.any(sums == 0.0)
    return xs


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_stacked_kernels_equal_per_phase_formula(basis):
    xs = grid(basis)
    stacked = basis.kernel_values(xs)
    assert stacked.shape == (len(xs), basis.n_kernels)
    assert np.array_equal(stacked, [reference_kernels(basis, x) for x in xs])
    assert np.array_equal(basis.kernel_values(float(xs[7])), reference_kernels(basis, xs[7]))


@pytest.mark.parametrize("dims", [1, 3, 6])
@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_stacked_forcing_equals_per_phase_formula(basis, dims, rng):
    xs = grid(basis)
    weights = rng.normal(scale=1e3, size=(dims, basis.n_kernels))
    rows = forcing_rows(xs, basis, weights)
    assert rows.shape == (len(xs), dims)
    assert np.array_equal(rows, [reference_forcing(basis, weights, x) for x in xs])
    # a row does not depend on the grid it sits in
    for k in (0, 150, 300, 1023, 1024, 2000, len(xs) - 1):
        assert np.array_equal(rows[k], forcing_rows(xs[k], basis, weights))
        assert np.array_equal(rows[k], forcing_rows(float(xs[k]), basis, weights))
    assert forcing(float(xs[5]), basis, weights[0]) == reference_forcing(
        basis, weights[:1], xs[5])[0]


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_zero_weights_give_zero_forcing(basis):
    xs = grid(basis)
    zeros = np.zeros((6, basis.n_kernels))
    assert np.array_equal(forcing_rows(xs, basis, zeros), np.zeros((len(xs), 6)))
    assert np.array_equal(forcing_rows(0.5, basis, zeros), np.zeros(6))


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_design_matrix_equals_per_phase_formula(basis):
    xs = grid(basis)
    expected = []
    for x in xs:
        psi = reference_kernels(basis, x)
        s = psi.sum()
        expected.append(psi / s * x if s >= 1e-300 else np.zeros_like(psi))
    assert np.array_equal(design_matrix(xs, basis), expected)


def reference_classical_rollout(model, y0, dt, duration, t_start=0.0):
    """The scalar primitive's loop with the forcing taken one phase at a time."""
    n = int(round(duration / dt))
    ts = t_start + np.arange(n + 1) * dt
    xs = phase(ts, model.basis.alpha_x, model.tau)
    y, z, f = np.empty(n + 1), np.empty(n + 1), np.empty(n + 1)
    yk, zk = float(y0), 0.0
    y[0], z[0] = yk, zk
    az, bz, g, tau = model.alpha_z, model.beta_z, model.goal, model.tau
    w = model.weights[None, :]
    for k in range(n):
        fk = float(reference_forcing(model.basis, w, xs[k])[0])
        f[k] = fk
        zk += dt * (az * (bz * (g - yk) - zk) + fk) / tau
        yk += dt * zk / tau
        y[k + 1], z[k + 1] = yk, zk
    f[n] = float(reference_forcing(model.basis, w, xs[n])[0])
    return ts, xs, y, z, f


@pytest.mark.parametrize("basis", BASES, ids=IDS)
@pytest.mark.parametrize("t_start", [0.0, 0.7])
def test_forced_classical_rollout_equals_per_phase_loop(basis, t_start, rng):
    model = ClassicalDmp(25.0, 6.25, basis, rng.normal(scale=50.0, size=basis.n_kernels),
                         0.3, 1.2, 0.8)
    roll = classical_rollout(model, 0.3, 0.005, 6.0, t_start=t_start)
    ts, xs, y, z, f = reference_classical_rollout(model, 0.3, 0.005, 6.0, t_start)
    assert np.any(f != 0.0)
    for got, want in zip((roll.t, roll.x, roll.y, roll.z, roll.forcing), (ts, xs, y, z, f)):
        assert np.array_equal(got, want)
