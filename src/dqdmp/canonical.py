"""Phase system, Gaussian kernel banks, forcing term and weight fitting.

The phase variable is the shared clock x(t) = exp(-alpha_x t / tau),
decaying from 1 toward 0; every output dimension of a primitive is driven
by the same phase, which is what synchronizes them.

Two kernel layouts are supported:

* scheme "a": unnormalized kernels exp(-h (x - c)^2) with centers at the
  phase values of uniformly spaced normalized times and widths from the
  squared center spacing.  The default everywhere.
* scheme "b": pdf-normalized kernels exp(-(x-c)^2 / (2 h)) / sqrt(2 pi h)
  with centers spaced through a total duration T at sampling step dt.
  The width recipe for this scheme is taken literally from its source with
  the grouping documented in basis_scheme_b; its fit quality is checked
  against scheme "a" in the tests rather than asserted from the formula.
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


def phase(t, alpha_x: float, tau: float):
    """Clock signal x = exp(-alpha_x t / tau); x(0) = 1, strictly decreasing."""
    if alpha_x <= 0.0 or tau <= 0.0:
        raise ValueError("alpha_x and tau must be positive")
    return np.exp(-alpha_x * np.asarray(t, dtype=float) / tau)


@dataclass(frozen=True)
class GaussianBasis:
    """Immutable kernel bank over the phase domain."""

    scheme: str
    alpha_x: float
    centers: np.ndarray
    widths: np.ndarray
    # scheme "b" keeps its construction parameters for serialization
    total_time: float | None = None
    dt: float | None = None

    def __post_init__(self):
        if self.scheme not in ("a", "b"):
            raise ValueError(f"unknown kernel scheme {self.scheme!r}")
        if len(self.centers) < 2 or len(self.centers) != len(self.widths):
            raise ValueError("need at least two kernels with matching widths")
        if not (np.all(np.isfinite(self.widths)) and np.all(self.widths > 0)):
            raise ValueError("kernel widths must be positive and finite")

    @property
    def n_kernels(self) -> int:
        return len(self.centers)

    def kernel_values(self, x: float) -> np.ndarray:
        """Activations of all kernels at one phase value."""
        d2 = (x - self.centers) ** 2
        if self.scheme == "a":
            return np.exp(-self.widths * d2)
        return np.exp(-0.5 * d2 / self.widths) / np.sqrt(2.0 * np.pi * self.widths)


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
    return GaussianBasis("a", float(alpha_x), c, h)


def basis_scheme_b(n_kernels: int, alpha_x: float, total_time: float,
                   dt: float) -> GaussianBasis:
    """Duration-aware kernel bank with pdf-normalized kernels.

    Centers are c_i = exp(-alpha_x T i/(N+1)).  The width recipe is
    evaluated with the grouping

        h_i = (c_i - exp(-alpha_x (1 + (T-dt)(N-i)/(dt (N-1))
                                    + sqrt(10 T/dt)) dt))^2

    i.e. the inner sum is a time measured in sampling steps, scaled back
    by dt inside the exponential.  Construction fails if any width comes
    out non-positive or non-finite.
    """
    if n_kernels < 2:
        raise ValueError("need at least two kernels")
    if not total_time > dt > 0.0:
        raise ValueError("need total_time > dt > 0")
    N = n_kernels
    i = np.arange(1, N + 1)
    c = np.exp(-alpha_x * total_time * i / (N + 1))
    steps = 1.0 + (total_time - dt) * (N - i) / (dt * (N - 1)) + np.sqrt(10.0 * total_time / dt)
    h = (c - np.exp(-alpha_x * steps * dt)) ** 2
    return GaussianBasis("b", float(alpha_x), c, h,
                         total_time=float(total_time), dt=float(dt))


def forcing(x: float, basis: GaussianBasis, weights: np.ndarray) -> float:
    """Phase-gated kernel mix (sum_i w_i psi_i / sum_i psi_i) * x.

    The trailing factor x makes the forcing vanish with the phase; if the
    total activation underflows the forcing is reported as exactly zero
    rather than NaN.
    """
    psi = basis.kernel_values(x)
    s = psi.sum()
    if s < _ACTIVATION_FLOOR:
        return 0.0
    return float(weights @ psi) / s * x


def forcing_rows(x: float, basis: GaussianBasis, weights: np.ndarray) -> np.ndarray:
    """forcing() for a (dims, N) weight matrix; one shared kernel evaluation."""
    psi = basis.kernel_values(x)
    s = psi.sum()
    if s < _ACTIVATION_FLOOR:
        return np.zeros(weights.shape[0])
    return (weights @ psi) / s * x


def design_matrix(xs: np.ndarray, basis: GaussianBasis) -> np.ndarray:
    """Rows of normalized, phase-gated kernel activations, one per sample.

    Row k equals kernel_values(xs[k]) / its sum * xs[k], bit for bit, and
    is zero where the total activation is below the 1e-300 floor.  Built
    in place in one (n, N) buffer.
    """
    xs = np.asarray(xs, dtype=float)
    A = np.subtract(xs[:, None], basis.centers)
    np.square(A, out=A)
    if basis.scheme == "a":
        A *= -basis.widths
        np.exp(A, out=A)
    else:
        A *= -0.5
        A /= basis.widths
        np.exp(A, out=A)
        A /= np.sqrt(2.0 * np.pi * basis.widths)
    s = A.sum(axis=1)
    live = s >= _ACTIVATION_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        A /= s[:, None]
    A *= xs[:, None]
    A[~live] = 0.0
    return A


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
