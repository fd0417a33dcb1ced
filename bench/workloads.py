"""The three seeded workloads of the dqdmp benchmark.

Each workload makes its inputs from a seed in ``setup`` (the program sees
only those inputs, never the seed), runs one op per ``run`` call in a
closed loop, and checks every op's output in ``check`` against the bars of
the acceptance criteria.  Library calls go through the dqdmp module
attributes at call time, so the tracer's wrappers see them.

* ``train-mix``    parse a demo CSV, train the coupled and the decoupled model
* ``rollout-many`` one unforced rollout of the dq, quat or classical variant
* ``cli-loop``     one pass of the README CLI path on the reference loop
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import statistics
import tempfile
from time import perf_counter

import numpy as np

import dqdmp.canonical as canonical
import dqdmp.cli as cli
import dqdmp.dmp as dmp
import dqdmp.dualquat as dualquat
import dqdmp.quat as quat
import dqdmp.traj as traj


class CheckFailed(Exception):
    """An op returned, but its output misses an acceptance bar."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def digest_of(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _median_ms(seconds: list[float]) -> float:
    return 1e3 * statistics.median(seconds)


def _metric(value, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


def _data_rows(text: bytes) -> int:
    """Rows of a CSV table: lines that are neither comments nor the header."""
    lines = [ln for ln in text.split(b"\n") if ln and not ln.startswith(b"#")]
    return len(lines) - 1


def _model_json(model) -> bytes:
    buf = io.StringIO()
    dmp.save_model(model, buf)
    return buf.getvalue().encode()


class Workload:
    """Defaults for the hooks a workload may leave out."""

    # How the end-to-end op metrics sum up the op times of one input class:
    # "median", or "min" where a run holds so many short ops of a class that
    # some always fall in the machine's undisturbed phases (bench/README.md)
    op_summary = "median"

    def extra(self, out) -> dict:
        """Per-op figures the workload's own metrics need."""
        return {}

    def replay(self, out, tracer) -> None:
        """Traced run only: time stages that are too fine to wrap."""

    def close(self) -> None:
        """Remove whatever the workload made on disk."""


# ---------------------------------------------------------------------------
# train-mix


class TrainMix(Workload):
    """Train both pose models on seeded, body-mounted loop demos.

    Six demos per seed, sampled at 100 Hz, with durations spread over
    10-30 s (about 1.1k to 2.9k samples, 0.3-0.8 s per op), so a run
    holds about ten ops of every demo.  The seed
    draws each radius (20-100 m), body-mount rotation and position offset,
    and jitters each duration by up to 0.25 s, so the sample counts, and
    with them the cost of a cycle, barely move between seeds.  The planar
    reference loop has three all-zero twist channels and a constant y
    position, which would let ``fit_weights`` skip 3 of the 6 coupled and 1
    of the 6 decoupled solves.  Each demo is therefore re-expressed with a
    seeded constant body mount ``q_k (x) r0``, a seeded tilt of the loop
    plane ``r_w (x) q_k`` with ``p_k -> R(r_w) p_k`` (body twists unchanged)
    and a seeded offset, so all 12 fits solve.
    """

    name = "train-mix"
    digest_ops = 6      # one cycle
    # (sampling step, nominal duration): durations cover 10-30 s
    SHAPES = [(0.01, 11.0), (0.01, 14.5), (0.01, 18.0),
              (0.01, 21.5), (0.01, 25.0), (0.01, 28.5)]
    DQ = dict(alpha_x=0.05, kernels=30, k=1.0, d=10.0)
    POSE = dict(alpha_x=0.1, pos_kernels=30, k_pos=10.0, rot_kernels=50,
                k_rot=1.0, d_ratio=10.0)

    n_classes = len(SHAPES)

    def __init__(self):
        self.demos: list[dict] = []
        self.first_digest: dict[int, str] = {}

    def op_class(self, i: int) -> int:
        return i % len(self.SHAPES)

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)

        def unit_quat():
            q = rng.normal(size=4)
            return q / np.linalg.norm(q)

        self.demos = []
        for dt, nominal in self.SHAPES:
            radius = rng.uniform(20.0, 100.0)
            duration = round(nominal + rng.uniform(-0.25, 0.25), 2)
            tilt, mount = unit_quat(), unit_quat()
            offset = rng.uniform(-50.0, 50.0, size=3)
            loop = traj.gen_somersault(radius, duration, dt)
            mounted = traj.Trajectory(
                loop.t,
                np.array([quat.quat_rotate(tilt, p) for p in loop.positions]) + offset,
                np.array([quat.quat_product(quat.quat_product(tilt, q), mount)
                          for q in loop.quaternions]),
                source=f"mounted loop R={radius:.6g} T={duration:g}")
            buf = io.StringIO()
            traj.save_trajectory(mounted, buf)
            self.demos.append({"csv": buf.getvalue(), "radius": radius})
        self.first_digest = {}

    def input_digest(self) -> str:
        return digest_of(*(d["csv"].encode() for d in self.demos))

    def warm_up(self) -> None:
        # the first dq_train calls of a process run slower than later ones;
        # the three set-ups make three warm-up ops
        self.run(0)

    def run(self, i: int):
        demo = traj.load_trajectory(io.StringIO(self.demos[self.op_class(i)]["csv"]))
        T = demo.duration
        q, p = self.DQ, self.POSE
        dq_model = dmp.dq_train(demo, T, q["k"], q["k"], q["d"], q["d"],
                                canonical.basis_scheme_a(q["kernels"], q["alpha_x"]))
        pose_model = dmp.pose_train(
            demo, T, p["alpha_x"], p["pos_kernels"], p["k_pos"],
            p["d_ratio"] * np.sqrt(p["k_pos"]), p["rot_kernels"], p["k_rot"],
            p["d_ratio"] * np.sqrt(p["k_rot"]))
        return demo, dq_model, pose_model

    def units(self, i: int, out) -> int:
        return len(out[0])

    def check(self, i: int, out) -> str:
        demo, dq_model, pose_model = out
        weights = [dq_model.weights, pose_model.orientation.weights,
                   *(m.weights for m in pose_model.position)]
        _require(all(np.all(np.isfinite(w)) for w in weights), "non-finite weights")
        c = self.op_class(i)
        digest = digest_of(_model_json(dq_model), _model_json(pose_model))
        if c in self.first_digest:
            # same demo, same bits as the model the rollout below accepted
            _require(digest == self.first_digest[c],
                     f"demo {c}: models differ from the first training")
            return digest
        # criterion 5: the coupled model reproduces its demo
        T = demo.duration
        roll = dmp.dq_rollout(dq_model, xi0=demo.derived().xi[0] * T,
                              dt=demo.dt, duration=T)
        pos, quats = roll.poses()
        n = min(len(pos), len(demo))
        dp = pos[:n] - demo.positions[:n]
        pos_rmse = float(np.sqrt(np.mean(np.sum(dp ** 2, axis=1))))
        dots = np.abs(np.sum(quats[:n] * demo.quaternions[:n], axis=1))
        ori_rmse = float(np.sqrt(np.mean((2.0 * np.arccos(np.clip(dots, 0.0, 1.0))) ** 2)))
        bar = 0.02 * 2.0 * self.demos[c]["radius"]
        _require(pos_rmse < bar, f"demo {c}: position RMSE {pos_rmse:.3g} m >= {bar:.3g} m")
        _require(ori_rmse < 0.05, f"demo {c}: orientation RMSE {ori_rmse:.3g} rad >= 0.05")
        self.first_digest[c] = digest
        return digest

    def replay(self, out, tracer) -> None:
        """Time the dq_from_pose stage of dq_train on the op's demo."""
        demo = out[0]
        with tracer.span("dualquat.encode", len(demo)):
            [dualquat.dq_from_pose(dualquat.Pose(demo.positions[k], demo.quaternions[k]))
             for k in range(len(demo))]

    def detail(self, ok: list[dict]) -> dict:
        total = sum(r["seconds"] for r in ok)
        samples = sum(r["units"] for r in ok)
        return {
            "train_samples_per_s": _metric(samples / total, "samples/s", len(ok)),
            "train_job_ms_p50": _metric(_median_ms([r["seconds"] for r in ok]), "ms", len(ok)),
        }


# ---------------------------------------------------------------------------
# rollout-many


class RolloutMany(Workload):
    """Unforced rollouts from random start/goal pairs (criterion 3 shape).

    K = 625, D = 10 sqrt(K), dt = 0.0035 over a 10 s horizon with zero
    weights: the integrator step is the whole cost.  Ops cycle through the
    dq, quat and classical variants; every variant integrates 2857 steps.
    """

    name = "rollout-many"
    digest_ops = 30
    VARIANTS = ("dq", "quat", "classical")
    PAIRS = 128
    K, DT, HORIZON = 625.0, 0.0035, 10.0

    n_classes = len(VARIANTS)
    op_summary = "min"      # about 150 ops per class, 2-130 ms each

    def __init__(self):
        self.models: dict[str, list] = {}

    def op_class(self, i: int) -> int:
        return i % len(self.VARIANTS)

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        K, D = self.K, 10.0 * np.sqrt(self.K)
        basis = canonical.basis_scheme_a(30, 2.0)
        eye = np.eye(3)

        def unit_quat():
            q = rng.normal(size=4)
            return q / np.linalg.norm(q)

        def unit_dq():
            return dualquat.dq_from_pose(dualquat.Pose(rng.uniform(-2.0, 2.0, size=3),
                                                       unit_quat()))

        self.models = {
            "dq": [dmp.DualQuaternionDmp(K * eye, K * eye, D * eye, D * eye, basis,
                                         np.zeros((6, 30)), unit_dq(), unit_dq(), 1.0)
                   for _ in range(self.PAIRS)],
            "quat": [dmp.QuaternionDmp(dualquat.BODY, K * eye, D * eye, basis,
                                       np.zeros((3, 30)), unit_quat(), unit_quat(), 1.0)
                     for _ in range(self.PAIRS)],
            "classical": [dmp.ClassicalDmp(D, K / D, basis, np.zeros(30),
                                           rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), 1.0)
                          for _ in range(self.PAIRS)],
        }

    def input_digest(self) -> str:
        chunks = []
        for m in self.models["dq"]:
            chunks += [m.dq0.as_array().tobytes(), m.dqd.as_array().tobytes()]
        for m in self.models["quat"]:
            chunks += [m.q0.tobytes(), m.qd.tobytes()]
        for m in self.models["classical"]:
            chunks.append(np.array([m.y0, m.goal]).tobytes())
        return digest_of(*chunks)

    def warm_up(self) -> None:
        for i in range(len(self.VARIANTS)):
            self.run(i)

    def _model(self, i: int):
        variant = self.VARIANTS[self.op_class(i)]
        return variant, self.models[variant][(i // len(self.VARIANTS)) % self.PAIRS]

    def run(self, i: int):
        variant, m = self._model(i)
        if variant == "dq":
            return dmp.dq_rollout(m, dt=self.DT, duration=self.HORIZON)
        if variant == "quat":
            return dmp.quat_rollout(m, dt=self.DT, duration=self.HORIZON)
        return dmp.classical_rollout(m, m.y0, self.DT, self.HORIZON)

    def units(self, i: int, out) -> int:
        return len(out.t) - 1

    def check(self, i: int, out) -> str:
        # criteria 3 and 8: converged pose and velocity, non-increasing
        # rotational energy, unit constraints held
        variant, m = self._model(i)
        if variant == "dq":
            end = dualquat.dq_to_pose(dualquat.DualQuaternion(out.dq[-1, :4].copy(),
                                                              out.dq[-1, 4:].copy()))
            goal = dualquat.dq_to_pose(m.dqd)
            pos_err = float(np.linalg.norm(end.position - goal.position))
            ang = 2.0 * np.arccos(min(1.0, abs(float(end.orientation @ goal.orientation))))
            vel = float(np.linalg.norm(out.xi[-1]))
            v1_rise = float(np.max(np.diff(out.lyap[:, 1])))
            drift = max(float(np.max(np.abs(np.linalg.norm(out.dq[:, :4], axis=1) - 1.0))),
                        float(np.max(np.abs(np.sum(out.dq[:, :4] * out.dq[:, 4:], axis=1)))))
            err = max(pos_err, ang)
        elif variant == "quat":
            err = 2.0 * np.arccos(min(1.0, abs(float(out.q[-1] @ m.qd))))
            vel = float(np.linalg.norm(out.omega[-1]))
            v1_rise = float(np.max(np.diff(out.v1)))
            drift = float(np.max(np.abs(np.linalg.norm(out.q, axis=1) - 1.0)))
        else:
            err = abs(float(out.y[-1]) - m.goal)
            vel = abs(float(out.z[-1]))
            v1_rise, drift = 0.0, 0.0
        _require(err < 1e-3, f"{variant}: pose error {err:.3g} >= 1e-3")
        _require(vel < 1e-3, f"{variant}: velocity {vel:.3g} >= 1e-3")
        _require(v1_rise <= 1e-8, f"{variant}: V1 rose by {v1_rise:.3g} > 1e-8")
        _require(drift <= 1e-6, f"{variant}: unit-constraint drift {drift:.3g} > 1e-6")
        if variant == "dq":
            return digest_of(out.dq.tobytes(), out.xi.tobytes(), out.lyap.tobytes())
        if variant == "quat":
            return digest_of(out.q.tobytes(), out.omega.tobytes(), out.v1.tobytes())
        return digest_of(out.y.tobytes(), out.z.tobytes())

    def detail(self, ok: list[dict]) -> dict:
        total = sum(r["seconds"] for r in ok)
        out = {"rollout_steps_per_s": _metric(sum(r["units"] for r in ok) / total,
                                              "steps/s", len(ok))}
        for c, variant in enumerate(self.VARIANTS):
            times = [r["seconds"] for r in ok if r["class"] == c]
            out[f"rollout_{variant}_ms_p50"] = _metric(_median_ms(times), "ms", len(times))
        return out


# ---------------------------------------------------------------------------
# cli-loop


class CliLoop(Workload):
    """One in-process pass of the README CLI path per op.

    gen somersault -> train dq -> rollout (9.45k rows) -> train
    pose-decoupled -> rollout -> compare, on the reference loop (18.9 s at
    100 Hz).  The seed draws the radius within 5 % of the reference 50 m,
    which changes the numbers but not the amount of work.
    """

    name = "cli-loop"
    digest_ops = 1
    n_classes = 1
    # the rollouts run five times the demo's 18.9 s, so that a run holds
    # about ten passes
    DURATION, DT, ROLLOUT = 18.9, 0.01, 94.5
    STAGES = ("gen", "train", "rollout", "compare")
    FILES = ("demo.csv", "dq.json", "dq_rollout.csv", "pose.json",
             "pose_rollout.csv", "compare.csv")

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.radius = 0.0
        self.tmp = ""

    def op_class(self, i: int) -> int:
        return 0

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.radius = round(50.0 * (1.0 + rng.uniform(-0.05, 0.05)), 6)
        self.close()
        os.makedirs(self.workdir, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="cli-loop-", dir=self.workdir)

    def close(self) -> None:
        if self.tmp:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = ""

    def input_digest(self) -> str:
        return digest_of(repr(self.radius).encode())

    def _path(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def _commands(self, rollout_duration: float, with_compare: bool):
        f = self._path
        dur = f"{rollout_duration:g}"
        cmds = [
            ("gen", ["gen", "somersault", "--radius", repr(self.radius),
                     "--duration", f"{self.DURATION:g}", "--dt", f"{self.DT:g}",
                     "-o", f("demo.csv")]),
            ("train", ["train", "--variant", "dq", "--demo", f("demo.csv"),
                       "-o", f("dq.json")]),
            ("rollout", ["rollout", "--model", f("dq.json"), "--duration", dur,
                         "-o", f("dq_rollout.csv")]),
            ("train", ["train", "--variant", "pose-decoupled", "--alpha-x", "0.1",
                       "--demo", f("demo.csv"), "-o", f("pose.json")]),
            ("rollout", ["rollout", "--model", f("pose.json"), "--duration", dur,
                         "-o", f("pose_rollout.csv")]),
        ]
        if with_compare:
            cmds.append(("compare", ["compare", "--demo", f("demo.csv"),
                                     "-o", f("compare.csv")]))
        return cmds

    def _clear(self) -> None:
        for name in self.FILES:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self._path(name))

    def _pass(self, rollout_duration: float, with_compare: bool) -> dict:
        stages = dict.fromkeys(self.STAGES, 0.0)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            for stage, argv in self._commands(rollout_duration, with_compare):
                t0 = perf_counter()
                rc = cli.main(argv)
                stages[stage] += perf_counter() - t0
                if rc != 0:
                    raise CheckFailed(f"`{' '.join(argv[:2])}` exited {rc}: "
                                      f"{err.getvalue().strip()[-200:]}")
        return stages

    def warm_up(self) -> None:
        # every command of the pass, on a short rollout horizon
        self._pass(self.DURATION, with_compare=False)
        self._clear()

    def run(self, i: int):
        return {"stages": self._pass(self.ROLLOUT, with_compare=True)}

    def _read(self, name: str) -> bytes:
        with open(self._path(name), "rb") as fh:
            return fh.read()

    def check(self, i: int, out) -> str:
        # criterion 9 plus the expected table sizes
        demo_rows = int(round(self.DURATION / self.DT)) + 1
        roll_rows = int(round(self.ROLLOUT / self.DT)) + 1
        files = {name: self._read(name) for name in self.FILES}
        self._clear()
        for name, rows in (("demo.csv", demo_rows), ("dq_rollout.csv", roll_rows),
                           ("pose_rollout.csv", roll_rows)):
            got = _data_rows(files[name])
            _require(got == rows, f"{name}: {got} rows, expected {rows}")
        lines = files["compare.csv"].decode().strip().split("\n")
        _require(len(lines) == 3, f"compare.csv: {len(lines) - 1} rows, expected 2")
        names = {ln.split(",")[0] for ln in lines[1:]}
        _require(names == {"dq", "pose_decoupled"}, f"compare.csv rows {sorted(names)}")
        values = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[1:]])
        _require(bool(np.all(np.isfinite(values))), "compare.csv: non-finite values")
        # the files are gone after the check, so it records what they held
        out["rows"] = sum(_data_rows(b) for n, b in files.items() if n.endswith(".csv"))
        out["rollout_rows"] = 2 * roll_rows
        out["bytes"] = sum(len(b) for b in files.values())
        return digest_of(*(files[n] for n in self.FILES))

    def units(self, i: int, out) -> int:
        return out["rows"]

    def extra(self, out) -> dict:
        return {k: out[k] for k in ("stages", "rollout_rows", "bytes")}

    def replay(self, out, tracer) -> None:
        """Time pose encoding on the demo and forcing over the dq model's
        rollout phase grid."""
        demo = traj.load_trajectory(self._path("demo.csv"))
        model = dmp.load_model(self._path("dq.json"))
        with tracer.span("dualquat.encode", len(demo)):
            [dualquat.dq_from_pose(dualquat.Pose(demo.positions[k], demo.quaternions[k]))
             for k in range(len(demo))]
        n = int(round(self.ROLLOUT / self.DT))
        xs = canonical.phase(np.arange(n + 1) * self.DT, model.basis.alpha_x, model.tau)
        with tracer.span("canonical.forcing", n + 1):
            for x in xs:
                canonical.forcing_rows(x, model.basis, model.weights)

    def detail(self, ok: list[dict]) -> dict:
        out = {"cli_loop_s": _metric(statistics.median(r["seconds"] for r in ok), "s", len(ok))}
        for stage in ("train", "rollout", "compare"):
            out[f"cli_{stage}_s"] = _metric(
                statistics.median(r["stages"][stage] for r in ok), "s", len(ok))
        return out


def make(name: str, workdir: str):
    if name == TrainMix.name:
        return TrainMix()
    if name == RolloutMany.name:
        return RolloutMany()
    return CliLoop(workdir)

