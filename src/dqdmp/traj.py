"""Trajectory data model, CSV round-trip, differentiation and demo generators.

A trajectory is a uniformly sampled sequence of inertial positions and
body-to-inertial quaternions.  On ingestion the quaternion sequence is made
sign-continuous (<q_k, q_{k+1}> >= 0 for all k) by flipping whole
quaternions; rotations are unchanged by this, but differentiation and the
dual-quaternion encoders need the continuous representative.

File format (one sample per line, '.' decimal separator, 17 significant
digits)::

    # key value            <- optional metadata comments
    t,px,py,pz,qw,qx,qy,qz
    0.0,0.0,0.0,0.0,1.0,0.0,0.0,0.0
    ...

Positions are inertial-frame meters in right-handed axes, in the file and
in memory; quaternions are scalar-first Hamilton, body-to-inertial.  The one
metadata key is ``# source``, a free-form note; a ``# scale`` line is
refused, so no file can put positions in any unit but meters.

Trajectory files and the scalar demos of ``load_scalar_demo`` (header
``t,y,yd,ydd``) share one block reader: one pass over the lines collects
the comments and checks the header, then a single ``np.loadtxt`` call
parses every data row, with the bits of a per-field ``float()``.  Only
when it refuses the block are the rows parsed again one at a time, to name
the first bad line (wrong field count or unparseable number).  Digit
underscores and non-ASCII digits, which ``float()`` would take, are
refused.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .canonical import _finite
from .quat import quat_conjugate, quat_product, quat_rotate_inverse, quat_vec

_HEADER = "t,px,py,pz,qw,qx,qy,qz"
_SCALAR_HEADER = "t,y,yd,ydd"
# loader rejects quaternions farther than this from unit norm ...
_QUAT_REJECT_TOL = 1e-3
# ... and silently renormalizes anything closer than this
_UNIFORM_TOL_FACTOR = 1e-9
_CSV_BLOCK = 1024       # rows per formatting call of csv_chunks
# the longest float array numpy can make: a longer time grid is refused
_MAX_SAMPLES = np.iinfo(np.intp).max // np.dtype(float).itemsize


class Trajectory:
    """Uniformly sampled pose sequence with lazily derived twist channels.

    Attributes
    ----------
    t : (n,) sample times, seconds, starting at 0
    positions : (n, 3) inertial positions, meters
    quaternions : (n, 4) scalar-first unit quaternions, sign-continuous
    dt : float, the uniform sampling step
    source : str, free-form provenance note (metadata)
    """

    def __init__(self, t, positions, quaternions, source: str = ""):
        t = np.asarray(t, dtype=float)
        positions = np.ascontiguousarray(positions, dtype=float)  # load hands a strided view
        quaternions = np.asarray(quaternions, dtype=float)
        if positions.shape != (len(t), 3) or quaternions.shape != (len(t), 4):
            raise ValueError("inconsistent sample array shapes")
        dt = _check_samples(t, positions, quaternions)
        norms = np.linalg.norm(quaternions, axis=1)
        if np.any(np.abs(norms - 1.0) > _QUAT_REJECT_TOL):
            bad = int(np.argmax(np.abs(norms - 1.0)))
            raise ValueError(f"non-unit quaternion at sample {bad} "
                             f"(norm {norms[bad]:.6f})")
        quaternions = _sign_continuous(quaternions / norms[:, None])
        self.t = t
        self.positions = positions
        self.quaternions = quaternions
        self.dt = dt
        self.source = source
        self._derived = None

    def __len__(self) -> int:
        return len(self.t)

    @property
    def duration(self) -> float:
        return float(self.t[-1])

    # -- derived channels -------------------------------------------------

    def derived(self) -> "DerivedChannels":
        """Body twist channels, computed once and cached."""
        if self._derived is None:
            self._derived = differentiate(self)
        return self._derived


def _check_samples(t: np.ndarray, *channels: np.ndarray) -> float:
    """Return the step of a sampled table: two samples or more, one row of each
    channel per time, all finite, times from 0 uniform to 1e-9 of the step."""
    if len(t) < 2 or any(len(c) != len(t) for c in channels):
        raise ValueError("need at least two samples and one row of each channel per time")
    finite = np.isfinite(t)
    for c in channels:
        finite &= np.all(np.isfinite(c.reshape(len(t), -1)), axis=1)
    if not np.all(finite):
        raise ValueError(f"non-finite value at sample {int(np.argmin(finite))}")
    dt = float(t[1] - t[0])
    if dt <= 0.0:
        raise ValueError("sample times must be increasing (sample 1)")
    if abs(t[0]) > _UNIFORM_TOL_FACTOR * dt:
        raise ValueError(f"sample times must start at 0 (sample 0 is at {t[0]:.17g})")
    off = np.abs(np.diff(t) - dt) > _UNIFORM_TOL_FACTOR * dt
    if np.any(off):
        raise ValueError(f"sample times are not uniform (sample {int(np.argmax(off)) + 1})")
    return dt


def _sign_continuous(q: np.ndarray) -> np.ndarray:
    """Flip whole quaternions so that <q_k, q_{k+1}> >= 0 along the sequence.

    Gives the result of walking the sequence and negating q_k whenever its
    dot with the already corrected q_{k-1} is negative: the sign of sample
    k is the product of the signs of the raw dots since the last exactly
    zero dot, which resets it to +1 (a zero dot is not negative).
    """
    # batched matmul takes the same dot per row as q[k-1] @ q[k]
    d = (q[:-1, None, :] @ q[1:, :, None])[:, 0, 0]
    flips = np.concatenate([[0], np.cumsum(d < 0.0)])
    reset = np.concatenate([[True], d == 0.0])
    base = np.maximum.accumulate(np.where(reset, flips, 0))
    odd = (flips - base) % 2 == 1
    return np.where(odd[:, None], -q, q)


@dataclass(frozen=True)
class DerivedChannels:
    """Numerically differentiated body-frame channels of a trajectory; the
    body rate is the twist's angular part xi[:, :3]."""

    xi: np.ndarray        # (n, 6) body twist [omega, v]
    xi_dot: np.ndarray    # (n, 6) body twist rate


@dataclass(frozen=True)
class ScalarDemo:
    """Analytic scalar demonstration (value and two derivatives)."""

    t: np.ndarray
    y: np.ndarray
    yd: np.ndarray
    ydd: np.ndarray

    def __post_init__(self):
        _check_samples(*(np.asarray(a, dtype=float)
                         for a in (self.t, self.y, self.yd, self.ydd)))

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def duration(self) -> float:
        return float(self.t[-1])


def differentiate(traj: Trajectory) -> DerivedChannels:
    """Derive body twist channels by second-order finite differences.

    Velocities are central differences (one-sided second-order at the
    ends).  The body rate comes from omega~ = 2 q* (x) qdot; the twist's
    linear part is R(q)^T pdot, the inertial velocity rotated into body
    axes, so it does not depend on where the world origin sits.  Keeps the
    twist (its angular part is the body rate) and its rate; needs four
    samples or more, and refuses a demo whose twist or rate overflows.
    """
    if len(traj) < 4:
        raise ValueError("trajectory too short to differentiate (need >= 4 samples)")
    q, dt = traj.quaternions, traj.dt

    def twists():
        qdot = np.gradient(q, dt, axis=0, edge_order=2)
        # vec() discards the O(dt^2) scalar part left by differencing unit data
        omega_b = 2.0 * quat_vec(quat_product(quat_conjugate(q), qdot))
        v_b = quat_rotate_inverse(q, np.gradient(traj.positions, dt, axis=0, edge_order=2))
        xi = np.concatenate([omega_b, v_b], axis=1)
        return xi, np.gradient(xi, dt, axis=0, edge_order=2)
    return DerivedChannels(*_finite(twists, lambda rates: _rate_refusal(traj.t, *rates)))


def _rate_refusal(t: np.ndarray, vel: np.ndarray, acc: np.ndarray) -> str:
    """A demo's refusal, naming the first sample whose velocity or acceleration is not finite."""
    ok_v, ok_a = np.isfinite(vel).all(axis=1), np.isfinite(acc).all(axis=1)
    k = int(np.argmin(ok_v & ok_a))
    return (f"the demo's {'acceleration' if ok_v[k] else 'velocity'} overflows at "
            f"sample {k} (t = {t[k]:g}): its positions are too large for its step")


# -- file round trip -------------------------------------------------------


@contextmanager
def open_text(target, mode: str = "r"):
    """The file at target, a str, bytes or os.PathLike path, opened as UTF-8
    text in mode 'r' or 'w'; any other target is an open text stream."""
    if not isinstance(target, (str, bytes, os.PathLike)):
        yield target
        return
    with open(target, mode, encoding="utf-8", newline="\n" if mode == "w" else None) as fh:
        yield fh


def save_trajectory(traj: Trajectory, sink) -> None:
    """Write the CSV form to a path or text stream; full precision, locale-independent."""
    with open_text(sink, "w") as fh:
        if traj.source:
            fh.write(f"# source {traj.source}\n")
        fh.writelines(csv_chunks(_HEADER, np.column_stack(
            [traj.t, traj.positions, traj.quaternions])))


def csv_chunks(header: str, table: np.ndarray):
    """The header line, then the rows of the table as full-precision
    ('%.17g') CSV, formatted and yielded one block of rows per '%'."""
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    yield header + "\n"
    for b in np.split(table, range(_CSV_BLOCK, len(table), _CSV_BLOCK)):
        yield row * len(b) % tuple(b.ravel().tolist())


def load_trajectory(source) -> Trajectory:
    """Parse and validate the CSV form from a path or text stream.

    Raises ValueError with the offending line number for malformed rows,
    a '# scale' line, non-uniform timestamps or quaternions off the unit
    sphere by more than 1e-3 (closer ones are renormalized).
    """
    with open_text(source) as fh:
        data, comments = _read_table(fh, _HEADER)
    source_note = ""
    for lineno, key, value in comments:
        if key == "scale":
            raise ValueError(f"line {lineno}: '# scale' is not supported; positions must be meters")
        elif key == "source":
            source_note = value
    return Trajectory(data[:, 0], data[:, 1:4], data[:, 4:8], source=source_note)


def load_scalar_demo(source) -> ScalarDemo:
    """Parse the scalar demo CSV (header 't,y,yd,ydd') of `gen minjerk` from a
    path or stream; errors as for load_trajectory, and at least four samples."""
    with open_text(source) as fh:
        data, _ = _read_table(fh, _SCALAR_HEADER)
    if len(data) < 4:
        raise ValueError("scalar demo too short (need >= 4 samples)")
    return ScalarDemo(*data.T)


def _read_table(source, header: str) -> tuple[np.ndarray, list[tuple[int, str, str]]]:
    """Read CSV lines: blank ones are skipped, '# key value' comments
    returned as (line number, key, value), the first other line must be the
    header and each later one a row of as many numbers as it has fields.
    Returns the rows as one array (parsed as one block) and the comments."""
    width = header.count(",") + 1
    comments = []
    numbered = []       # (line number, text) of the header and each row
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if line.startswith("#"):
            fields = line[1:].split(None, 1)
            if len(fields) == 2:
                comments.append((lineno, *fields))
        elif line:
            numbered.append((lineno, line))
    if not numbered:
        raise ValueError("missing header line")
    if numbered[0][1] != header:
        raise ValueError(f"line {numbered[0][0]}: expected header '{header}'")
    rows = [line for _, line in numbered[1:]]
    # loadtxt warns on no rows at all
    data = _parse_rows(rows, width) if rows else np.empty((0, width))
    if data is None:
        # a block is refused only if one of its rows is on its own
        lineno, line = next((n, ln) for n, ln in numbered[1:]
                            if _parse_rows([ln], width) is None)
        fields = line.count(",") + 1
        if fields != width:
            raise ValueError(f"line {lineno}: expected {width} fields, got {fields}")
        raise ValueError(f"line {lineno}: unparseable number")
    return data, comments


def _parse_rows(rows: list[str], width: int) -> np.ndarray | None:
    """The rows as one (len(rows), width) array, or None if any of them is
    not `width` comma-separated numbers.  No comment character: a '#' in a
    row is refused, not cut off."""
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return data if data.shape == (len(rows), width) else None


# -- synthetic demonstrations ----------------------------------------------


def _time_grid(duration: float, dt: float) -> np.ndarray:
    """Sample times k dt, k = 0 .. round(duration / dt); refused if too many for an
    array or for the memory numpy can allocate."""
    if not duration / dt < _MAX_SAMPLES:
        raise ValueError(f"duration {duration:g} over dt {dt:g} is more samples "
                         f"than an array can hold")
    try:
        return np.arange(int(round(duration / dt)) + 1) * dt
    except MemoryError:
        raise ValueError(f"duration {duration:g} over dt {dt:g} is more samples "
                         f"than memory can hold") from None


def _minjerk_s(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum-jerk interpolant s(u) on [0, 1] and two derivatives in u."""
    s = 10.0 * u**3 - 15.0 * u**4 + 6.0 * u**5
    sd = 30.0 * u**2 - 60.0 * u**3 + 30.0 * u**4
    sdd = 60.0 * u - 180.0 * u**2 + 120.0 * u**3
    return s, sd, sdd


def gen_min_jerk(y0: float, g: float, T: float, dt: float) -> ScalarDemo:
    """Scalar minimum-jerk demonstration from y0 to g over T seconds.

    Rest-to-rest: velocity and acceleration vanish at both endpoints;
    derivatives are analytic, not differenced.
    """
    if not (np.isfinite(y0) and np.isfinite(g)):
        raise ValueError(f"non-finite value at sample 0: y0 {y0:g} and g {g:g} must be finite")
    if not np.inf > T > dt > 0.0:
        raise ValueError("need duration > dt > 0, duration finite")
    t = _time_grid(T, dt)
    s, sd, sdd = _minjerk_s(t / T)
    a = float(g) - float(y0)  # on floats: inf, with no warning, where it overflows
    channels = _finite(lambda: (y0 + a * s, a * sd / T, a * sdd / np.float64(T) ** 2),
                       lambda _: f"duration {T:g} is too short to move from {y0:g} to {g:g}")
    return ScalarDemo(t, *channels)


def gen_somersault(radius: float, T: float, dt: float) -> Trajectory:
    """Closed vertical-loop maneuver with coupled pitch attitude.

    The loop angle follows minimum-jerk timing theta(t) = 2 pi s(t/T), the
    position traces a circle of the given radius in the x-z plane and the
    attitude pitches about the inertial y axis by the same angle, so
    position and orientation are driven by one underlying motion.  Starts
    and ends at rest at the origin with identity attitude (the final
    quaternion is the sign-flipped identity: the attitude walks the full
    great circle).
    """
    if not 0.0 < radius <= np.finfo(float).max / 2.0:
        raise ValueError(f"radius must be positive, with 2 radius finite; got {radius:g}")
    if not np.inf > T > dt > 0.0:
        raise ValueError("need duration > dt > 0, duration finite")
    t = _time_grid(T, dt)
    s, _, _ = _minjerk_s(t / T)
    theta = 2.0 * np.pi * s
    pos = np.stack([radius * np.sin(theta),
                    np.zeros(len(t)),
                    radius * (1.0 - np.cos(theta))], axis=1)
    half = 0.5 * theta
    quat = np.stack([np.cos(half), np.zeros(len(t)), np.sin(half),
                     np.zeros(len(t))], axis=1)
    return Trajectory(t, pos, quat, source=f"somersault R={radius:g} T={T:g}")
