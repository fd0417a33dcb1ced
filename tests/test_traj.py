import io
import warnings

import numpy as np
import pytest

from dqdmp import (
    Pose,
    Trajectory,
    basis_scheme_a,
    differentiate,
    dq_exp,
    dq_from_pose,
    dq_product,
    dq_to_pose,
    gen_min_jerk,
    gen_somersault,
    load_scalar_demo,
    load_trajectory,
    quat_exp,
    quat_to_rotmat,
    save_trajectory,
)
from dqdmp.quat import _exp
from dqdmp.traj import ScalarDemo, _read_table, csv_chunks

from conftest import random_unit_quat, refused, trajectory_to_csv, turn

MINIMAL = """t,px,py,pz,qw,qx,qy,qz
0,0,0,0,1,0,0,0
0.1,0,0,0,1,0,0,0
"""


@pytest.mark.parametrize("as_path", [str, lambda p: str(p).encode(), lambda p: p],
                         ids=["str", "bytes", "pathlib"])
def test_file_functions_take_any_path(tmp_path, as_path):
    # str, bytes or os.PathLike (here pathlib.Path) name a file; the bytes match a stream's
    traj = gen_somersault(5.0, 1.0, 0.05)
    path = tmp_path / "demo.csv"
    save_trajectory(traj, as_path(path))
    assert path.read_bytes() == trajectory_to_csv(traj).encode()
    np.testing.assert_array_equal(load_trajectory(as_path(path)).positions, traj.positions)
    demo = gen_min_jerk(0.0, 1.0, 1.0, 0.1)
    path.write_text("".join(csv_chunks("t,y,yd,ydd", np.column_stack(
        [demo.t, demo.y, demo.yd, demo.ydd]))))
    np.testing.assert_array_equal(load_scalar_demo(as_path(path)).y, demo.y)


def test_load_minimal_file():
    traj = load_trajectory(io.StringIO(MINIMAL))
    assert len(traj) == 2
    assert abs(traj.dt - 0.1) < 1e-15


def test_load_rejects_bad_quaternion_norm():
    text = MINIMAL.replace("0.1,0,0,0,1,0,0,0", "0.1,0,0,0,0.9,0,0,0")
    with refused("sample 1"):
        load_trajectory(io.StringIO(text))


def test_load_renormalizes_small_drift():
    text = MINIMAL.replace("0.1,0,0,0,1,0,0,0", "0.1,0,0,0,1.0000005,0,0,0")
    traj = load_trajectory(io.StringIO(text))
    assert abs(np.linalg.norm(traj.quaternions[1]) - 1.0) < 1e-12


def test_load_reports_malformed_row_line():
    text = MINIMAL + "0.2,0,0\n"
    with refused("line 4"):
        load_trajectory(io.StringIO(text))


def test_load_rejects_nonuniform_times():
    text = MINIMAL + "0.35,0,0,0,1,0,0,0\n"
    with refused("uniform"):
        load_trajectory(io.StringIO(text))


def test_load_rejects_missing_header():
    with refused("header"):
        load_trajectory(io.StringIO("0,0,0,0,1,0,0,0\n"))


def test_round_trip_is_byte_identical():
    traj = gen_somersault(5.0, 2.0, 0.05)
    text = trajectory_to_csv(traj)
    again = trajectory_to_csv(load_trajectory(io.StringIO(text)))
    assert text == again


def test_sign_continuity_enforced_on_load():
    rows = ["t,px,py,pz,qw,qx,qy,qz"]
    q = np.array([1.0, 0, 0, 0])
    for k in range(6):
        sign = -1.0 if k in (2, 3) else 1.0  # two samples flipped
        step = quat_exp(np.array([0.05 * k, 0, 0]))
        rows.append(",".join(f"{v:.17g}" for v in
                             [0.1 * k, 0, 0, 0, *(sign * step)]))
    traj = load_trajectory(io.StringIO("\n".join(rows) + "\n"))
    dots = np.sum(traj.quaternions[:-1] * traj.quaternions[1:], axis=1)
    assert np.all(dots >= 0.0)


@pytest.mark.parametrize("row", ["nan,0,0,0,1,0,0,0", "0.2,0,nan,0,1,0,0,0",
                                 "0.2,0,0,0,nan,0,0,0", "0.2,0,0,0,1,0,inf,0"])
def test_load_rejects_non_finite_sample(row):
    # a NaN norm never exceeds the unit-norm tolerance, so only an explicit
    # finiteness check catches the quaternion case
    text = MINIMAL + row + "\n"
    with refused("non-finite value at sample 2"):
        load_trajectory(io.StringIO(text))


def test_load_rejects_time_axis_not_starting_at_zero():
    text = "\n".join(["t,px,py,pz,qw,qx,qy,qz", "1,0,0,0,1,0,0,0",
                      "1.1,0,0,0,1,0,0,0", "1.2,0,0,0,1,0,0,0"]) + "\n"
    with refused("start at 0.*sample 0"):
        load_trajectory(io.StringIO(text))


def test_start_time_within_rounding_of_zero_is_accepted():
    t = np.arange(5) * 0.01 + 1e-13
    traj = Trajectory(t, np.zeros((5, 3)), np.tile([1.0, 0, 0, 0], (5, 1)))
    assert len(traj) == 5


@pytest.mark.parametrize("case", ["nan_value", "nan_time", "late_start", "decreasing",
                                  "non_uniform", "ragged", "single_sample"])
def test_scalar_demo_rejects_bad_samples(case):
    t = np.arange(6) * 0.1
    y, yd, ydd = np.linspace(0.0, 1.0, 6), np.zeros(6), np.zeros(6)
    if case == "nan_value":
        yd[3] = np.nan
    elif case == "nan_time":
        t[3] = np.nan
    elif case == "late_start":
        t = t + 0.5
    elif case == "decreasing":
        t = -t
    elif case == "non_uniform":
        t[4] += 0.01
    elif case == "ragged":
        ydd = ydd[:-1]
    else:
        t, y, yd, ydd = t[:1], y[:1], yd[:1], ydd[:1]
    match = {"nan_value": "sample 3", "nan_time": "sample 3", "late_start": "sample 0",
             "decreasing": "sample 1", "non_uniform": "sample 4"}.get(case, "two samples")
    with refused(match):
        ScalarDemo(t, y, yd, ydd)


def test_scalar_demo_accepts_stacked_channels():
    t = np.arange(5) * 0.01 + 1e-13
    demo = ScalarDemo(t, np.zeros((5, 3)), np.zeros((5, 3)), np.zeros((5, 3)))
    assert demo.dt == t[1] - t[0]


def per_row_csv(traj):
    """The trajectory writer as it was: one f-string per value and row."""
    out = []
    if traj.source:
        out.append(f"# source {traj.source}\n")
    out.append("t,px,py,pz,qw,qx,qy,qz\n")
    for k in range(len(traj)):
        row = [traj.t[k], *traj.positions[k], *traj.quaternions[k]]
        out.append(",".join(f"{v:.17g}" for v in row) + "\n")
    return "".join(out)


@pytest.mark.parametrize("rows", [3, 1024, 1025, 2501])
def test_block_writer_equals_per_row_writer(rows):
    loop = gen_somersault(50.0, (rows - 1) * 0.01, 0.01)
    positions = loop.positions.copy()
    positions[1, 1] = -0.0
    traj = Trajectory(loop.t, positions, loop.quaternions, source="loop note")
    assert len(traj) == rows
    assert trajectory_to_csv(traj) == per_row_csv(traj)
    table = np.random.default_rng(rows).normal(size=(rows, 18)) * 1e3
    table[0, :3] = [-0.0, 1e-300, 123456789.125]
    assert "".join(csv_chunks("h", table)) == "h\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in table)


# -- the block reader --------------------------------------------------------

TRAJ_HEADER = "t,px,py,pz,qw,qx,qy,qz"
SCALAR_HEADER = "t,y,yd,ydd"
SPELLINGS = ["-0", "+1", ".5", "5.", "1E5", "1e+5", "-0.0", "0001.5000", " 7 ",
             "5e-324", "2.4e-324", "2.2250738585072009e-308",
             "1.7976931348623157e308", "1e500", "-1e500", "1e-400", "-1e-400",
             "nan", "-nan", "NaN", "inf", "-inf", "+inf", "Infinity", "iNF"]


def per_line_read(text, header):
    """The reader as it was: line by line, one float() per field."""
    width = header.count(",") + 1
    comments, rows, header_seen = [], [], False
    for lineno, line in enumerate(io.StringIO(text), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            fields = line[1:].split(None, 1)
            if len(fields) == 2:
                comments.append((lineno, *fields))
            continue
        if not header_seen:
            assert line == header
            header_seen = True
            continue
        parts = line.split(",")
        assert len(parts) == width
        rows.append([float(p) for p in parts])
    return np.array(rows).reshape(-1, width), comments


def reader_corpus(header, seed):
    """CSV text with comments before, between and after the rows, blank and
    whitespace-only lines, CRLF endings, padded fields, every spelling of
    SPELLINGS and random 64-bit patterns in repr and '%.17g' form."""
    width = header.count(",") + 1
    bits = np.random.default_rng(seed).integers(0, 2**64, size=600, dtype=np.uint64)
    values = SPELLINGS + [f(float(v)) for v in bits.view(float)
                          for f in (repr, "%.17g".__mod__)]
    values += ["0"] * (-len(values) % width)
    lines = ["# source reader corpus", "", "   ", "#", "# scale 1", header]
    for k in range(0, len(values), width):
        sep = ", " if k % 3 == 0 else ","
        lines.append(sep.join(values[k:k + width]))
        if k % 7 == 3:
            lines.append("# between rows")
        if k % 11 == 5:
            lines.append(" \t ")
    lines += ["", "# after the rows", "   "]
    return "\r\n".join(lines) + "\r\n"


@pytest.mark.parametrize("header", [TRAJ_HEADER, SCALAR_HEADER])
@pytest.mark.parametrize("seed", [1, 2])
def test_block_reader_equals_per_line_reader(header, seed):
    text = reader_corpus(header, seed)
    data, comments = _read_table(io.StringIO(text), header)
    expected, expected_comments = per_line_read(text, header)
    # tobytes(): array_equal would pass -0.0 for 0.0 and needs nan handling
    assert data.shape == expected.shape and data.dtype == np.float64
    assert data.tobytes() == expected.tobytes()
    assert comments == expected_comments
    assert comments[0] == (1, "source", "reader corpus")


def test_block_reader_equals_per_line_reader_on_a_demo():
    traj = gen_somersault(37.0, 28.5, 0.01)
    traj = Trajectory(traj.t, traj.positions + [1.0 / 3.0, -7.0, 1e-9], traj.quaternions,
                      source="mounted loop")
    text = trajectory_to_csv(traj)
    data, comments = _read_table(io.StringIO(text), TRAJ_HEADER)
    expected, expected_comments = per_line_read(text, TRAJ_HEADER)
    assert len(data) == len(traj) == 2851
    assert data.tobytes() == expected.tobytes() and comments == expected_comments
    loaded = load_trajectory(io.StringIO(text))
    assert loaded.positions.tobytes() == expected[:, 1:4].tobytes()


def test_block_reader_reads_a_crlf_file(tmp_path):
    path = tmp_path / "demo.csv"
    finite = "# scale 1\r\nt,y,yd,ydd\r\n" + "".join(
        f"{0.1 * k!r},{k}, -{k}.5 ,1E{k}\r\n" for k in range(5))
    path.write_bytes(finite.encode())
    demo = load_scalar_demo(str(path))
    assert demo.yd.tobytes() == np.array([-0.5, -1.5, -2.5, -3.5, -4.5]).tobytes()
    assert demo.ydd.tobytes() == (10.0 ** np.arange(5)).tobytes()


BAD_ROWS = {
    # case: (rows after the header, expected message)
    "short row": (["0.2,0,0"], "line 4: expected 8 fields, got 3"),
    "long row": (["0.2,0,0,0,1,0,0,0,0"], "line 4: expected 8 fields, got 9"),
    "empty field": (["0.2,0,0,0,1,0,,0"], "line 4: unparseable number"),
    "garbled": (["0.2,0,0,0,1,0,abc,0"], "line 4: unparseable number"),
    "comment in a row": (["0.2,0,0,0,1,0,0,0 # c"], "line 4: unparseable number"),
    "underscore": (["0.2,1_0,0,0,1,0,0,0"], "line 4: unparseable number"),
    "arabic digit": (["0.2,\u0661,0,0,1,0,0,0"], "line 4: unparseable number"),
    "hex": (["0.2,0x10,0,0,1,0,0,0"], "line 4: unparseable number"),
    "quoted": (['0.2,"0",0,0,1,0,0,0'], "line 4: unparseable number"),
    # a stream that does not translate newlines can hand one over
    "carriage return inside": (["0.2,0,0\r,0,1,0,0,0"], "line 4: unparseable number"),
    "first bad line wins": (["0.2,0,0,0,1,0,x,0", "0.3,0,0"], "line 4: unparseable number"),
    "after comments and blanks": (["# note", "", "0.2,0,0,0,1,0,0,0", "0.3,0,0"],
                                  "line 7: expected 8 fields, got 3"),
}


@pytest.mark.parametrize("case", BAD_ROWS)
def test_block_reader_names_the_first_bad_line(case):
    rows, message = BAD_ROWS[case]
    text = MINIMAL + "\n".join(rows) + "\n"
    with refused(f"^{message}$"):
        load_trajectory(io.StringIO(text))


def test_block_reader_names_a_bad_line_deep_in_a_long_table():
    rows = [f"{0.01 * k!r},0,0,0,1,0,0,0" for k in range(3000)]
    rows[2500] = rows[2500][:-1] + "1_0"
    rows[2900] = "0.2,0"
    lines = ["# source long", "t,px,py,pz,qw,qx,qy,qz"] + rows
    lines[1000:1000] = ["# between", ""]
    with refused("^line 2505: unparseable number$"):
        load_trajectory(io.StringIO("\n".join(lines)))


def test_block_reader_names_a_table_of_the_wrong_width():
    text = "t,y,yd,ydd\n" + "".join(f"{k},0,0,0,0\n" for k in range(6))
    with refused("^line 2: expected 4 fields, got 5$"):
        load_scalar_demo(io.StringIO(text))


@pytest.mark.parametrize("loader, header, message", [
    (load_trajectory, TRAJ_HEADER, "at least two samples"),
    (load_scalar_demo, SCALAR_HEADER, "need >= 4 samples"),
])
def test_header_only_file_gives_the_sample_count_error(loader, header, message):
    text = "# source empty\n\n" + header + "\n# nothing follows\n\n"
    with refused(message):
        loader(io.StringIO(text))
    with refused("missing header line"):
        loader(io.StringIO("# only a comment\n\n"))


@pytest.mark.parametrize("value", ["1", "0.5", "0", "-0.5", "nan", "inf", "-inf", "1e-320",
                                   "abc"])
def test_load_rejects_bad_scale(value):
    # positions are meters: every scale line is refused, a scale of 1 included
    text = f"# source x\n# scale {value}\n" + MINIMAL
    with refused("^line 2: '# scale' is not supported; positions must be meters$"):
        load_trajectory(io.StringIO(text))


@pytest.mark.parametrize("scale", [0.0, -0.5, np.nan, np.inf, 1e-320])
def test_trajectory_rejects_bad_scale(scale):
    # the constructor takes no scale at all: positions are meters
    with pytest.raises(TypeError, match="scale"):
        Trajectory([0.0, 0.1], np.zeros((2, 3)), np.tile([1.0, 0, 0, 0], (2, 1)),
                   scale=scale)


def _greedy_sign_continuity(quats):
    """The walk the constructor replaces: flip q_k when its dot with the
    corrected q_{k-1} is negative."""
    q = quats.copy()
    for k in range(1, len(q)):
        if q[k - 1] @ q[k] < 0.0:
            q[k] = -q[k]
    return q


def test_sign_continuity_matches_greedy_walk(rng):
    # a slow rotation sampled with long runs of flipped signs, plus one
    # sample exactly orthogonal to its predecessor: the walk resets the
    # sign to +1 there, as a zero dot is not negative
    n = 400
    angles = np.linspace(0.0, 3.0, n)
    quats = np.stack([np.cos(angles), np.sin(angles) * 0.6,
                      np.sin(angles) * 0.8, np.zeros(n)], axis=1)
    signs = np.ones(n)
    for start, length in ((20, 70), (120, 3), (130, 150), (300, 1), (320, 79)):
        signs[start:start + length] = -1.0
    signs[rng.integers(0, n, size=25)] *= -1.0
    quats = quats * signs[:, None]
    quats[200] = [0.0, 0.0, 0.0, 1.0]
    quats[201] = -quats[201]
    assert quats[199] @ quats[200] == 0.0
    t = np.arange(n) * 0.01
    traj = Trajectory(t, np.zeros((n, 3)), quats)
    expected = _greedy_sign_continuity(quats / np.linalg.norm(quats, axis=1)[:, None])
    assert np.array_equal(traj.quaternions, expected)
    assert np.array_equal(traj.quaternions[200], [0.0, 0.0, 0.0, 1.0])


def test_constructor_requires_two_samples():
    with refused():
        Trajectory([0.0], np.zeros((1, 3)), np.array([[1.0, 0, 0, 0]]))


# -- differentiation ---------------------------------------------------------


def test_differentiate_constant_pose():
    n = 10
    q = np.tile([1.0, 0, 0, 0], (n, 1))
    p = np.tile([1.0, 2.0, 3.0], (n, 1))
    traj = Trajectory(np.arange(n) * 0.01, p, q)
    der = differentiate(traj)
    np.testing.assert_allclose(der.xi, 0, atol=1e-12)
    np.testing.assert_allclose(der.xi_dot, 0, atol=1e-12)


def test_differentiate_requires_four_samples():
    q = np.tile([1.0, 0, 0, 0], (3, 1))
    traj = Trajectory(np.arange(3) * 0.01, np.zeros((3, 3)), q)
    with refused("short"):
        differentiate(traj)


def test_differentiate_recovers_constant_rate(rng):
    # sample an exact constant-rate rotation at 100 Hz
    omega = np.array([0.4, -0.3, 0.6])
    n = 200
    q = np.empty((n, 4))
    q[0] = [1.0, 0, 0, 0]
    for k in range(1, n):
        q[k] = turn(q[k - 1].tolist(), _exp(*(0.005 * omega).tolist()))
    traj = Trajectory(np.arange(n) * 0.01, np.zeros((n, 3)), q)
    der = differentiate(traj)
    assert np.max(np.linalg.norm(der.xi[:, :3] - omega, axis=1)) <= 1e-4


def constant_twist_demo(position, quaternion, w, v, dt=0.01, n=101):
    """Poses sampled exactly along the flow of the constant body twist (w, v)
    from a start pose: start (x) exp(t/2 (w, v)) at t = k dt."""
    start = dq_from_pose(Pose(np.asarray(position, dtype=float),
                              np.asarray(quaternion, dtype=float)))
    t = np.arange(n) * dt
    poses = [dq_to_pose(dq_product(start, dq_exp(np.concatenate([0.5 * tk * w, 0.5 * tk * v]))))
             for tk in t]
    return Trajectory(t, [p.position for p in poses], [p.orientation for p in poses])


def test_differentiate_recovers_a_constant_body_twist(rng):
    # the differencing error of R^T pdot depends on the twist, not on where
    # the pose sits: differencing the body-axes position instead missed v by
    # 1.5e-3 at 100 m from the origin
    identity = [1.0, 0.0, 0.0, 0.0]
    z, y = np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0])
    cases = [([1.0, 0.0, 0.0], identity, z, np.zeros(3)),  # spins in place
             (np.zeros(3), identity, z, y)]                 # circles the z axis
    for position in (np.zeros(3), [100.0, -50.0, 30.0]):
        for _ in range(5):
            w, v = rng.normal(size=3), rng.normal(size=3)
            cases.append((position, random_unit_quat(rng),
                          0.8 * w / np.linalg.norm(w), 2.0 * v / np.linalg.norm(v)))
    for position, quaternion, w, v in cases:
        xi = differentiate(constant_twist_demo(position, quaternion, w, v)).xi
        # O(dt^2) differencing error: dt^2 |w|^2 |v| / 3 at the one-sided ends
        assert np.max(np.abs(xi[:, :3] - w)) <= 1e-4
        assert np.max(np.abs(xi[:, 3:] - v)) <= 1e-4


def test_differentiate_second_order_convergence():
    # halving dt must shrink the worst rate error by at least 3.5x
    errs = []
    for dt in (0.02, 0.01):
        traj = gen_somersault(5.0, 4.0, dt)
        der = differentiate(traj)
        t = traj.t
        u = t / 4.0
        sd = (30 * u**2 - 60 * u**3 + 30 * u**4) / 4.0
        omega_true = np.stack([np.zeros_like(t), 2 * np.pi * sd,
                               np.zeros_like(t)], axis=1)
        errs.append(np.max(np.linalg.norm(der.xi[:, :3] - omega_true, axis=1)))
    assert errs[0] / errs[1] >= 3.5


def test_differentiate_smooth_twist_rate():
    traj = gen_somersault(50.0, 18.9, 0.01)
    xi_dot = differentiate(traj).xi_dot
    assert np.all(np.isfinite(xi_dot))
    mag = np.linalg.norm(xi_dot, axis=1)
    for k in range(1, len(mag) - 1):
        bound = 10.0 * max(mag[k - 1], mag[k + 1]) + 1e-9
        assert mag[k] <= bound


# -- generators ----------------------------------------------------------------


def test_min_jerk_boundaries():
    d = gen_min_jerk(-1.0, 2.0, 1.5, 0.01)
    assert d.y[0] == -1.0 and abs(d.y[-1] - 2.0) < 1e-12
    assert abs(d.yd[0]) < 1e-12 and abs(d.yd[-1]) < 1e-12
    assert abs(d.ydd[0]) < 1e-12 and abs(d.ydd[-1]) < 1e-12


def test_min_jerk_derivative_consistency():
    # analytic acceleration must match differenced velocity at 100 Hz
    # (horizon long enough that the differencing floor sits below 1e-6)
    d = gen_min_jerk(0.0, 1.0, 15.0, 0.01)
    ydd_num = np.gradient(d.yd, 0.01, edge_order=2)
    assert np.max(np.abs(ydd_num - d.ydd)) <= 1e-6


def test_min_jerk_degenerate_is_constant():
    d = gen_min_jerk(0.7, 0.7, 1.0, 0.01)
    np.testing.assert_allclose(d.y, 0.7)
    np.testing.assert_allclose(d.yd, 0.0)


@pytest.mark.parametrize("generate", [lambda: gen_min_jerk(0.0, 1.0, 1.0, 1e-320),
                                      lambda: gen_somersault(50.0, 1e308, 0.1)],
                         ids=["minjerk", "somersault"])
def test_generators_refuse_a_grid_no_array_can_hold(generate):
    # int(round(T / dt)) raised OverflowError; now the rollout clock's refusal
    with refused(r"^duration \S+ over dt \S+ is more samples than an array can hold$"):
        generate()


@pytest.mark.parametrize("generate, message", [
    (lambda: gen_min_jerk(0.0, 1.0, 1e-200, 1e-201), "duration 1e-200 is too short"),
    (lambda: gen_min_jerk(np.inf, 1.0, 1.0, 0.01), "y0 inf and g 1 must be finite"),
    (lambda: gen_somersault(1e308, 2.0, 0.01), "radius must be positive"),
    (lambda: basis_scheme_a(10, 1e308), "alpha_x 1e+308 leaves 10 kernels"),
], ids=["minjerk tiny duration", "minjerk y0 inf", "somersault radius", "basis alpha_x"])
def test_a_value_that_overflows_is_refused_by_name_with_no_warning(generate, message):
    # each printed a numpy RuntimeWarning first: a division by T**2 = 0, an
    # overflow of the radius times 2, inf * 0 and a division by a zero spacing
    with refused() as exc:
        generate()
    assert message in str(exc.value)


def test_min_jerk_over_a_huge_duration_is_finite():
    # T**2 of a Python float raised OverflowError; the acceleration is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = gen_min_jerk(0.0, 1.0, 1e200, 1e199)
    assert np.isfinite(d.ydd).all() and d.y[-1] == 1.0


def test_somersault_is_closed_loop():
    traj = gen_somersault(50.0, 18.9, 0.01)
    assert len(traj) == 1891
    np.testing.assert_allclose(traj.positions[0], 0, atol=1e-9)
    np.testing.assert_allclose(traj.positions[-1], 0, atol=1e-9 * 50)
    # end attitude is the same rotation (other cover of the identity)
    np.testing.assert_allclose(np.abs(traj.quaternions[-1]), [1, 0, 0, 0],
                               atol=1e-12)
    der = differentiate(traj)
    # analytic end rates are exactly zero; derived ones sit at the
    # one-sided differencing floor
    assert np.linalg.norm(der.xi[0, :3]) < 1e-5
    assert np.linalg.norm(der.xi[-1, :3]) < 1e-5


def test_somersault_midpoint_is_apex():
    traj = gen_somersault(50.0, 18.9, 0.01)
    k = 945  # t = T/2 lies on the grid
    np.testing.assert_allclose(traj.positions[k], [0, 0, 100.0], atol=1e-9)
    # upside down: pitch by pi
    np.testing.assert_allclose(np.abs(traj.quaternions[k]), [0, 0, 1, 0],
                               atol=1e-9)


def test_somersault_kinematic_consistency():
    # finite-difference inertial velocity equals the rotated body velocity
    traj = gen_somersault(5.0, 18.9, 0.01)
    der = differentiate(traj)
    pdot_fd = np.gradient(traj.positions, 0.01, axis=0, edge_order=2)
    for k in range(len(traj)):
        R = quat_to_rotmat(traj.quaternions[k])
        v_s = R @ der.xi[k, 3:]
        assert np.linalg.norm(pdot_fd[k] - v_s) <= 1e-3


def test_generators_deterministic():
    a = trajectory_to_csv(gen_somersault(7.0, 3.0, 0.02))
    b = trajectory_to_csv(gen_somersault(7.0, 3.0, 0.02))
    assert a == b
