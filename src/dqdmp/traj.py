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

Positions are inertial-frame meters in right-handed axes; quaternions are
scalar-first Hamilton, body-to-inertial.  An optional uniform position
scale factor can be carried in the metadata (``# scale 0.02``); it is
applied on load and inverted on save, so the file always holds physical
meters while the in-memory trajectory can run at a normalized scale.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .dualquat import twist_body_from_demo
from .quat import quat_conjugate, quat_product, quat_rotate_inverse, quat_vec

_HEADER = "t,px,py,pz,qw,qx,qy,qz"
_SCALAR_HEADER = "t,y,yd,ydd"
# loader rejects quaternions farther than this from unit norm ...
_QUAT_REJECT_TOL = 1e-3
# ... and silently renormalizes anything closer than this
_UNIFORM_TOL_FACTOR = 1e-9
_CSV_BLOCK = 1024       # rows per formatting call of csv_chunks


class Trajectory:
    """Uniformly sampled pose sequence with lazily derived twist channels.

    Attributes
    ----------
    t : (n,) sample times, seconds, starting at 0
    positions : (n, 3) inertial positions
    quaternions : (n, 4) scalar-first unit quaternions, sign-continuous
    dt : float, the uniform sampling step
    scale : float, uniform factor already applied to positions (metadata)
    source : str, free-form provenance note (metadata)
    """

    def __init__(self, t, positions, quaternions, scale: float = 1.0,
                 source: str = ""):
        t = np.asarray(t, dtype=float)
        positions = np.asarray(positions, dtype=float)
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
        self.scale = float(scale)
        self.source = source
        self._derived = None

    def __len__(self) -> int:
        return len(self.t)

    @property
    def duration(self) -> float:
        return float(self.t[-1])

    # -- derived channels -------------------------------------------------

    def derived(self) -> "DerivedChannels":
        """Body-frame velocity channels, computed once and cached."""
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
    """Numerically differentiated body-frame channels of a trajectory."""

    omega_b: np.ndarray   # (n, 3) body angular velocity
    p_b: np.ndarray       # (n, 3) position expressed in body axes
    p_b_dot: np.ndarray   # (n, 3) time derivative of p_b
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

    The body rate comes from omega~ = 2 q* (x) qdot with qdot by central
    differences (one-sided second-order at the ends); the twist linear part
    follows the body-frame convention of twist_body_from_demo.  Requires at
    least four samples.
    """
    if len(traj) < 4:
        raise ValueError("trajectory too short to differentiate (need >= 4 samples)")
    q = traj.quaternions
    qdot = np.gradient(q, traj.dt, axis=0, edge_order=2)
    # vec() discards the O(dt^2) scalar part left by differencing unit data
    omega_b = 2.0 * quat_vec(quat_product(quat_conjugate(q), qdot))
    p_b = quat_rotate_inverse(q, traj.positions)
    p_b_dot = np.gradient(p_b, traj.dt, axis=0, edge_order=2)
    xi = twist_body_from_demo(omega_b, p_b, p_b_dot).as_array()
    xi_dot = np.gradient(xi, traj.dt, axis=0, edge_order=2)
    return DerivedChannels(omega_b, p_b, p_b_dot, xi, xi_dot)


def resample(traj: Trajectory, new_dt: float) -> Trajectory:
    """Resample onto a uniform grid of step ~new_dt covering [0, duration].

    new_dt is snapped to duration/m (m = round(duration/new_dt)) so the
    grid stays uniform and both endpoints are preserved exactly.  Positions
    interpolate linearly, orientations along the shortest arc.
    """
    if new_dt <= 0.0:
        raise ValueError("new_dt must be positive")
    T = traj.duration
    m = max(1, int(round(T / new_dt)))
    t_new = np.arange(m + 1) * (T / m)
    pos = np.empty((m + 1, 3))
    quat = np.empty((m + 1, 4))
    for j, tj in enumerate(t_new):
        u = tj / traj.dt
        k = min(int(np.floor(u)), len(traj) - 2)
        w = u - k
        if w <= 1e-12:       # on a sample: copy it bit-exactly
            pos[j] = traj.positions[k]
            quat[j] = traj.quaternions[k]
            continue
        if w >= 1.0 - 1e-12:
            pos[j] = traj.positions[k + 1]
            quat[j] = traj.quaternions[k + 1]
            continue
        pos[j] = (1.0 - w) * traj.positions[k] + w * traj.positions[k + 1]
        quat[j] = _slerp(traj.quaternions[k], traj.quaternions[k + 1], w)
    return Trajectory(t_new, pos, quat, scale=traj.scale, source=traj.source)


def _slerp(qa: np.ndarray, qb: np.ndarray, w: float) -> np.ndarray:
    """Shortest-arc interpolation between unit quaternions."""
    dot = float(qa @ qb)
    if dot < 0.0:           # ingestion keeps sequences sign-continuous,
        qb, dot = -qb, -dot  # but stay safe for ad-hoc inputs
    dot = min(dot, 1.0)
    if dot > 1.0 - 1e-12:
        out = (1.0 - w) * qa + w * qb
        return out / np.linalg.norm(out)
    ang = np.arccos(dot)
    return (np.sin((1.0 - w) * ang) * qa + np.sin(w * ang) * qb) / np.sin(ang)


# -- file round trip -------------------------------------------------------


def save_trajectory(traj: Trajectory, sink) -> None:
    """Write the CSV form; full precision, locale-independent."""
    if isinstance(sink, (str, bytes)):
        with open(sink, "w", encoding="utf-8", newline="\n") as fh:
            save_trajectory(traj, fh)
        return
    if traj.scale != 1.0:
        sink.write(f"# scale {traj.scale:.17g}\n")
    if traj.source:
        sink.write(f"# source {traj.source}\n")
    sink.writelines(csv_chunks(_HEADER, np.column_stack(
        [traj.t, traj.positions * (1.0 / traj.scale), traj.quaternions])))


def csv_chunks(header: str, table: np.ndarray):
    """The header line, then the rows of the table as full-precision
    ('%.17g') CSV, formatted and yielded one block of rows per '%'."""
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    yield header + "\n"
    for b in np.split(table, range(_CSV_BLOCK, len(table), _CSV_BLOCK)):
        yield row * len(b) % tuple(b.ravel().tolist())


def load_trajectory(source) -> Trajectory:
    """Parse and validate the CSV form.

    Raises ValueError with the offending line number for malformed rows,
    non-uniform timestamps or quaternions off the unit sphere by more than
    1e-3 (closer ones are renormalized).
    """
    if isinstance(source, (str, bytes)):
        with open(source, "r", encoding="utf-8") as fh:
            return load_trajectory(fh)
    data, comments = _read_table(source, _HEADER)
    scale = 1.0
    source_note = ""
    for lineno, key, value in comments:
        if key == "scale":
            try:
                scale = float(value)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad scale value") from exc
        elif key == "source":
            source_note = value
    if len(data) < 2:
        raise ValueError("a trajectory needs at least two samples")
    return Trajectory(data[:, 0], data[:, 1:4] * scale, data[:, 4:8],
                      scale=scale, source=source_note)


def load_scalar_demo(source) -> ScalarDemo:
    """Parse the scalar demo CSV (header 't,y,yd,ydd') that `gen minjerk`
    writes; errors as for load_trajectory, and at least four samples."""
    if isinstance(source, (str, bytes)):
        with open(source, "r", encoding="utf-8") as fh:
            return load_scalar_demo(fh)
    data, _ = _read_table(source, _SCALAR_HEADER)
    if len(data) < 4:
        raise ValueError("scalar demo too short (need >= 4 samples)")
    return ScalarDemo(*data.T)


def _read_table(source, header: str) -> tuple[np.ndarray, list[tuple[int, str, str]]]:
    """Read CSV lines: blank ones are skipped, '# key value' comments
    returned as (line number, key, value), the first other line must be the
    header and each later one a row of as many numbers as it has fields.
    Returns the rows as one array and the comments."""
    width = header.count(",") + 1
    comments = []
    rows = []
    header_seen = False
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            fields = line[1:].split(None, 1)
            if len(fields) == 2:
                comments.append((lineno, *fields))
            continue
        if not header_seen:
            if line != header:
                raise ValueError(f"line {lineno}: expected header '{header}'")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise ValueError(f"line {lineno}: expected {width} fields, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: unparseable number") from exc
    if not header_seen:
        raise ValueError("missing header line")
    return np.array(rows), comments


def trajectory_to_csv(traj: Trajectory) -> str:
    buf = io.StringIO()
    save_trajectory(traj, buf)
    return buf.getvalue()


# -- synthetic demonstrations ----------------------------------------------


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
    if not T > dt > 0.0:
        raise ValueError("need T > dt > 0")
    n = int(round(T / dt))
    t = np.arange(n + 1) * dt
    s, sd, sdd = _minjerk_s(t / T)
    a = g - y0
    return ScalarDemo(t, y0 + a * s, a * sd / T, a * sdd / T**2)


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
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if not T > dt > 0.0:
        raise ValueError("need T > dt > 0")
    n = int(round(T / dt))
    t = np.arange(n + 1) * dt
    s, _, _ = _minjerk_s(t / T)
    theta = 2.0 * np.pi * s
    pos = np.stack([radius * np.sin(theta),
                    np.zeros(n + 1),
                    radius * (1.0 - np.cos(theta))], axis=1)
    half = 0.5 * theta
    quat = np.stack([np.cos(half), np.zeros(n + 1), np.sin(half),
                     np.zeros(n + 1)], axis=1)
    return Trajectory(t, pos, quat, source=f"somersault R={radius:g} T={T:g}")
