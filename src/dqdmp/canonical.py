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

# Singular values of R (one Householder QR per design matrix) at or under this
# fraction of the largest are dropped: overlapped kernels make A ill-conditioned.
_SV_CUTOFF = 1e-10
# Total kernel activation below this is treated as extinguished forcing.
_ACTIVATION_FLOOR = 1e-300
_GRID_BLOCK = 1024      # phases per kernel evaluation of forcing_rows


def phase(t, alpha_x: float, tau: float):
    """Clock signal x = exp(-alpha_x t / tau); x(0) = 1, strictly decreasing.
    Refused, naming tau, where the exponent alpha_x t / tau overflows."""
    if not (0.0 < alpha_x < np.inf and 0.0 < tau < np.inf):
        raise ValueError("alpha_x and tau must be positive and finite")
    return np.exp(_finite(lambda: -alpha_x * np.asarray(t, dtype=float) / tau,
                          lambda _: f"tau {tau:g} too small for alpha_x {alpha_x:g}: "
                                    f"the phase exponent alpha_x t / tau overflows"))


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
                and np.all(np.isfinite(self.centers)) and 0.0 < self.alpha_x < np.inf):
            raise ValueError("kernel widths and alpha_x must be positive and finite, "
                             "centers finite")
        # the phase of a rollout, which starts at t >= 0, lies in (0, 1]
        outside = (self.centers < 0.0) | (self.centers > 1.0)
        if outside.any():
            k = int(np.argmax(outside))
            raise ValueError(f"kernel centers must lie in the phase range [0, 1]; "
                             f"center {k} is {self.centers[k]:g}")

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

    def refusal(_):
        return f"alpha_x {alpha_x:g} leaves {n_kernels} kernels no finite widths"
    c = _finite(lambda: np.exp(-alpha_x * (i - 1) / (n_kernels - 1)), refusal)
    h = _finite(lambda: 1.0 / np.diff(c) ** 2, refusal)
    return GaussianBasis(float(alpha_x), c, np.append(h, h[-1]))


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

    targets is (n,) or (n, dims), all finite.  Each non-zero column is solved
    on its own against design_matrix(xs), built once and factored once by a
    Householder QR and the svd of R, cutoff 1e-10 (_solve); an all-zero column
    short-circuits to zero weights (no design matrix if every column is zero).
    Returns (weights, residual norm): (N,) and a float for 1-D targets,
    (dims, N) and (dims,) for 2-D ones.
    """
    targets = np.asarray(targets, dtype=float)
    cols = targets[:, None] if targets.ndim == 1 else targets
    if not np.all(np.isfinite(cols)):
        k, j = np.argwhere(~np.isfinite(cols))[0]
        raise ValueError(f"non-finite forcing target {cols[k, j]} at sample {k}, dimension {j}")
    weights = np.zeros((cols.shape[1], basis.n_kernels))
    residuals = np.zeros(cols.shape[1])
    active = [j for j in range(cols.shape[1]) if np.any(cols[:, j])]
    if active:
        weights[active], residuals[active] = _solve(design_matrix(xs, basis), cols[:, active])
    if targets.ndim == 1:
        return weights[0], float(residuals[0])
    return weights, residuals


def _solve(A: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w = V S^+ U^T (Q^T b)[:k] and norm(A w - b) for each column b of cols, from one
    QR A = QR, k = min(A.shape), and R = U S V^T less singular values <= _SV_CUTOFF s[0]."""
    h, tau = np.linalg.qr(A, mode="raw")
    u, s, vt = np.linalg.svd(np.triu(h.T[:len(tau)]), full_matrices=False)
    r = np.count_nonzero(s > _SV_CUTOFF * s[0])
    h = np.ascontiguousarray(h)     # in place of qr's copy; reflector i: row i from i on
    np.fill_diagonal(h, 1.0)
    weights, residuals = np.empty((cols.shape[1], A.shape[1])), np.empty(cols.shape[1])
    for j, qtb in enumerate(cols.T.copy()):     # column by column: no column's bits
        for i, t in enumerate(tau):             # depend on the others
            qtb[i:] -= (t * (h[i, i:] @ qtb[i:])) * h[i, i:]
        weights[j] = vt[:r].T @ (u[:, :r].T @ qtb[:len(s)] / s[:r])
        residuals[j] = _norm(A @ weights[j] - cols[:, j])
    return weights, residuals


def _finite(compute, refusal):
    """compute() with no numpy warning; where any of its value is not finite,
    refused as ValueError(refusal(value))."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        value = compute()
    if not np.isfinite(value).all():
        raise ValueError(refusal(value))
    return value


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm(v), or where its square sum overflows, with no warning,
    s times the norm of v / s, s = max |v|."""
    with np.errstate(over="ignore", invalid="ignore"):
        n, s = np.linalg.norm(v), np.abs(v).max()
        return float(s * np.linalg.norm(v / s) if np.isinf(n) and s < np.inf else n)
