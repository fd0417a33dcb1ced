"""Phase system, Gaussian kernel banks, forcing term and weight fitting.

The phase variable is the shared clock x(t) = exp(-alpha_x t / tau),
decaying from 1 toward 0; every output dimension of a primitive is driven
by the same phase, which is what synchronizes them.

The kernels are unnormalized Gaussians exp(-h (x - c)^2) with centers at
the phase values of uniformly spaced normalized times and widths from the
squared center spacing (basis_scheme_a).  They are written only in
kernel_values, which takes a whole phase grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Singular values below this fraction of the largest are discarded by the
# least-squares solve; heavily overlapped kernels make the design matrix
# ill-conditioned.
_SV_CUTOFF = 1e-10
# Total kernel activation below this is treated as extinguished forcing.
_ACTIVATION_FLOOR = 1e-300
_GRID_BLOCK = 1024      # phases per kernel evaluation of forcing_rows


def phase(t, alpha_x: float, tau: float):
    """Clock signal x = exp(-alpha_x t / tau); x(0) = 1, strictly decreasing."""
    if not (alpha_x > 0.0 and tau > 0.0):
        raise ValueError("alpha_x and tau must be positive")
    return np.exp(-alpha_x * np.asarray(t, dtype=float) / tau)


@dataclass(frozen=True)
class GaussianBasis:
    """Immutable kernel bank over the phase domain."""

    alpha_x: float
    centers: np.ndarray
    widths: np.ndarray

    def __post_init__(self):
        if len(self.centers) < 2 or len(self.centers) != len(self.widths):
            raise ValueError("need at least two kernels with matching widths")
        if not (np.all(np.isfinite(self.widths)) and np.all(self.widths > 0)
                and np.all(np.isfinite(self.centers)) and np.isfinite(self.alpha_x)):
            raise ValueError("kernel widths must be positive and finite, centers "
                             "and alpha_x finite")

    @property
    def n_kernels(self) -> int:
        return len(self.centers)

    def kernel_values(self, x) -> np.ndarray:
        """Activations of all kernels at one phase, (N,), or at each of an
        (n,) stack of phases, (n, N), evaluated in place in one buffer."""
        k = np.subtract(np.asarray(x, dtype=float)[..., None], self.centers)
        np.square(k, out=k)
        k *= -self.widths
        return np.exp(k, out=k)


def basis_scheme_a(n_kernels: int, alpha_x: float) -> GaussianBasis:
    """Kernel bank with centers exp(-alpha_x (i-1)/(N-1)), i = 1..N.

    Centers run from 1 down to exp(-alpha_x), i.e. the phase values at
    uniformly spaced fractions of one time constant tau; widths are
    1/spacing^2 with the last width repeated.
    """
    if n_kernels < 2:
        raise ValueError("need at least two kernels")
    i = np.arange(1, n_kernels + 1)
    c = np.exp(-alpha_x * (i - 1) / (n_kernels - 1))
    h = np.empty(n_kernels)
    h[:-1] = 1.0 / np.diff(c) ** 2
    h[-1] = h[-2]
    return GaussianBasis(float(alpha_x), c, h)


def forcing(x: float, basis: GaussianBasis, weights: np.ndarray) -> float:
    """Phase-gated kernel mix (sum_i w_i psi_i / sum_i psi_i) * x.

    The trailing factor x makes the forcing vanish with the phase; if the
    total activation underflows the forcing is reported as exactly zero
    rather than NaN.
    """
    return float(forcing_rows(x, basis, weights[None, :])[0])


def forcing_rows(x, basis: GaussianBasis, weights: np.ndarray) -> np.ndarray:
    """forcing() for a (dims, N) weight matrix at one phase, (dims,), or over a
    phase grid, (n, dims): one kernel pass per block of phases, one product
    with the weights per row, so a row has the bits of its phase alone."""
    x = np.asarray(x, dtype=float)
    if not np.any(weights):
        return np.zeros(x.shape + (len(weights),))
    if x.ndim and len(x) > _GRID_BLOCK:
        return np.concatenate([forcing_rows(b, basis, weights) for b in
                               np.split(x, range(_GRID_BLOCK, len(x), _GRID_BLOCK))])
    psi = basis.kernel_values(x)
    f = (weights @ psi[..., None])[..., 0]
    return _gate(f, psi.sum(axis=-1), x)


def _gate(rows: np.ndarray, s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """rows / s * x in place; rows with kernel activation s under the floor are 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rows /= s[..., None]
        rows *= x[..., None]
    rows[s < _ACTIVATION_FLOOR] = 0.0
    return rows


def design_matrix(xs: np.ndarray, basis: GaussianBasis) -> np.ndarray:
    """Rows of normalized, phase-gated kernel activations, one per sample:
    kernel_values(xs[k]) / its sum * xs[k], or zero where that sum is below
    the 1e-300 floor.  Built in place in one (n, N) buffer."""
    xs = np.asarray(xs, dtype=float)
    A = basis.kernel_values(xs)
    return _gate(A, A.sum(axis=1), xs)


def fit_weights(xs: np.ndarray, targets: np.ndarray, basis: GaussianBasis
                ) -> tuple[np.ndarray, float | np.ndarray]:
    """Minimum-norm least-squares kernel weights for per-sample targets.

    targets is (n,) or (n, dims).  Each column is solved on its own
    against design_matrix(xs), built once, through a rank-revealing svd
    with relative cutoff 1e-10; an all-zero column short-circuits to zero
    weights (and no design matrix is built if every column is zero).
    Returns (weights, residual norm): (N,) and a float for 1-D targets,
    (dims, N) and (dims,) for 2-D ones.
    """
    targets = np.asarray(targets, dtype=float)
    cols = targets[:, None] if targets.ndim == 1 else targets
    weights = np.zeros((cols.shape[1], basis.n_kernels))
    residuals = np.zeros(cols.shape[1])
    active = [j for j in range(cols.shape[1]) if np.any(cols[:, j])]
    if active:
        A = design_matrix(xs, basis)
        for j in active:
            weights[j], *_ = np.linalg.lstsq(A, cols[:, j], rcond=_SV_CUTOFF)
            residuals[j] = np.linalg.norm(A @ weights[j] - cols[:, j])
    if targets.ndim == 1:
        return weights[0], float(residuals[0])
    return weights, residuals
