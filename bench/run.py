"""dqdmp benchmark: one seeded workload, measured in a closed loop.

Usage, from the root of a checkout::

    python3 bench/run.py --workload train-mix --seed 1 --seconds 35 --trace 0

The run sets up five times (fresh-interpreter import of dqdmp, input
generation from the seed, warm-up ops) and reports the median as
``setup_s``.  It then runs ops back to back, each starting when the last
returned, until ``--seconds`` have passed, and checks every op's output.
Op times are summed up per input class, by the workload's ``op_summary``
(see ``class_times``).

The last line of standard output is the result: ``correct``, ops
``attempted`` and ``failed``, and the end-to-end metrics (``--trace 0``)
or the per-layer metrics from spans (``--trace 1``).  The line before it
is a detail record: the environment, the workload's own metrics with
their sample counts, and the digests that the determinism check compares.
Both are also written to ``.bench_out/`` in the checkout, with the spans
of a traced run.  See ``bench/README.md``.
"""

from __future__ import annotations

import os

# One BLAS thread: the load is this one process and its main thread, so a
# shared host's other cpu does not decide how fast a solve runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5


def _import_dqdmp():
    """Import dqdmp from this checkout's sources and nowhere else."""
    if not (SRC / "dqdmp" / "__init__.py").is_file():
        raise ImportError(f"no dqdmp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dqdmp
    if Path(dqdmp.__file__).resolve().parent != SRC / "dqdmp":
        raise ImportError(f"dqdmp imported from {dqdmp.__file__}, not {SRC}")
    return dqdmp


def _cold_import_s() -> float:
    """Wall time of a fresh interpreter importing dqdmp."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import dqdmp"], env=env, check=True,
                   cwd=ROOT)
    return perf_counter() - t0


def environment() -> dict:
    import numpy as np
    env = {
        "commit": None,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": None,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "hardware_counters": "not read: no cache-miss or bandwidth counters",
    }
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        env["commit"] = git.stdout.strip() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                     if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return env


def _process_threads() -> int | None:
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def run_op(wl, i: int, tracer=None) -> dict:
    """Run, time and check op i; a raise or a failed check fails the op."""
    rec = {"i": i, "class": wl.op_class(i), "ok": False, "seconds": 0.0,
           "units": 0, "digest": None}
    gc.collect()  # every op starts from a collected heap
    try:
        if tracer is not None:
            tracer.op, tracer.recording = i, True
        try:
            t0 = perf_counter()
            out = wl.run(i)
            rec["seconds"] = perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.recording = False
        if tracer is not None:
            wl.replay(out, tracer)
        rec["digest"] = wl.check(i, out)
        rec["units"] = wl.units(i, out)
        rec.update(wl.extra(out))
        rec["ok"] = True
    except Exception:  # the loop goes on; the failure is counted and shown
        print(f"op {i} failed:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
    return rec


def class_times(records: list[dict], summary: str) -> dict[int, tuple[float, int]]:
    """Per input class: the median or the fastest time of its ops, and one
    op's units.

    Every op of a class does the same work, so a class's figure does not
    depend on how many ops of the other classes the run happened to fit in,
    as a median over all ops of a mixed run would.
    """
    pick = min if summary == "min" else statistics.median
    by_class: dict[int, list[dict]] = {}
    for r in records:
        if r["ok"]:
            by_class.setdefault(r["class"], []).append(r)
    return {c: (pick(r["seconds"] for r in rs), rs[0]["units"])
            for c, rs in sorted(by_class.items())}


def end_to_end(setup_s: list[float], records: list[dict], summary: str) -> dict:
    per_class = class_times(records, summary)
    total = sum(s for s, _ in per_class.values())
    units = sum(u for _, u in per_class.values())
    return {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MiB"},
        "op_ms": {"value": 1e3 * total / len(per_class) if per_class else 0.0, "unit": "ms"},
        "op_us_per_unit": {"value": 1e6 * total / units if units else 0.0, "unit": "us"},
    }


def per_layer(totals: dict, records: list[dict]) -> dict:
    """Per-layer metrics from span totals; 0 where a layer did no work."""
    ok = [r for r in records if r["ok"]]
    n_ops = max(len(ok), 1)
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "units": 0}

    def t(name):
        return totals.get(name, empty)

    def per_unit(name, key="self_s"):
        return 1e6 * t(name)[key] / t(name)["units"] if t(name)["units"] else 0.0

    def per_call_ms(name):
        return 1e3 * t(name)["self_s"] / t(name)["calls"] if t(name)["calls"] else 0.0

    rollout_rows = sum(r.get("rollout_rows", 0) for r in ok)
    m = {
        "traj.load_us_per_row": (per_unit("traj.load"), "us"),
        "traj.save_us_per_row": (per_unit("traj.save"), "us"),
        "traj.ingest_us_per_sample": (per_unit("traj.ingest"), "us"),
        "traj.differentiate_us_per_sample": (per_unit("traj.differentiate"), "us"),
        "dualquat.encode_us_per_pose": (per_unit("dualquat.encode"), "us"),
        "canonical.design_matrix_us_per_sample": (per_unit("canonical.design_matrix"), "us"),
        "canonical.fit_weights_ms": (per_call_ms("canonical.fit_weights.solved"), "ms"),
        "canonical.fits_solved": (t("canonical.fit_weights.solved")["calls"] / n_ops, "count"),
        "canonical.fits_skipped": (t("canonical.fit_weights.skipped")["calls"] / n_ops, "count"),
        "canonical.forcing_us_per_step": (per_unit("canonical.forcing"), "us"),
        "dmp.dq_target_forcing_us_per_sample": (per_unit("dmp.dq_target_forcing"), "us"),
        "dmp.quat_target_forcing_us_per_sample": (per_unit("dmp.quat_target_forcing"), "us"),
        "dmp.dq_train_self_us_per_sample": (per_unit("dmp.dq_train"), "us"),
        "dmp.dq_rollout_us_per_step": (per_unit("dmp.dq_rollout"), "us"),
        "dmp.quat_rollout_us_per_step": (per_unit("dmp.quat_rollout"), "us"),
        "dmp.classical_rollout_us_per_step": (per_unit("dmp.classical_rollout"), "us"),
        "dmp.pose_rollout_us_per_step": (per_unit("dmp.pose_rollout", "total_s"), "us"),
        "dmp.poses_us_per_row": (per_unit("dmp.poses"), "us"),
        "dmp.steps": (sum(t(f"dmp.{v}_rollout")["units"]
                          for v in ("dq", "quat", "classical")) / n_ops, "count"),
        "cli.train_self_ms": (per_call_ms("cli.train"), "ms"),
        "cli.rollout_self_us_per_row": (1e6 * t("cli.rollout")["self_s"] / rollout_rows
                                        if rollout_rows else 0.0, "us"),
        "cli.compare_self_ms": (per_call_ms("cli.compare"), "ms"),
        "cli.rows_written": (sum(r["units"] for r in ok if "bytes" in r) / n_ops, "count"),
        "cli.bytes_written": (sum(r.get("bytes", 0) for r in ok) / n_ops, "count"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["train-mix", "rollout-many", "cli-loop"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    try:
        _import_dqdmp()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workdir = str(OUT_DIR / "tmp")
    wl = workloads.make(args.workload, workdir)
    try:
        setup_s, input_digests = [], []
        for _ in range(SETUP_REPEATS):
            import_s = _cold_import_s()
            t1 = perf_counter()
            wl.setup(args.seed)
            wl.warm_up()
            setup_s.append(import_s + perf_counter() - t1)
            input_digests.append(wl.input_digest())

        records = []
        t_loop = perf_counter()
        while len(records) < wl.n_classes or perf_counter() - t_loop < args.seconds:
            records.append(run_op(wl, len(records), tracer))
        loop_s = perf_counter() - t_loop

        checks = {"inputs_repeat": len(set(input_digests)) == 1}
        trace_info = None
        if tracer is not None:
            # outputs must not depend on tracing, and the seed must matter
            tracer.uninstall()
            plain = run_op(wl, 0)
            checks["traced_equals_untraced"] = plain["ok"] and plain["digest"] == records[0]["digest"]
            other = workloads.make(args.workload, workdir)
            other.setup(args.seed + 1)
            checks["seed_changes_inputs"] = other.input_digest() != input_digests[0]
            other.close()
            trace_info = {
                "op0_traced_s": records[0]["seconds"],
                "op0_untraced_s": plain["seconds"],
                "overhead_share_op0": (records[0]["seconds"] / plain["seconds"] - 1.0
                                       if plain["seconds"] else None),
                "spans": len(tracer.spans),
            }
    finally:
        wl.close()

    ok = [r for r in records if r["ok"]]
    failed = len(records) - len(ok)
    first = records[:wl.digest_ops]
    e2e = end_to_end(setup_s, records, wl.op_summary)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "process_threads": _process_threads(), "loadavg": os.getloadavg(),
        "loop_s": loop_s, "setup_runs_s": setup_s, "op_summary": wl.op_summary,
        "metrics": {**e2e, **(wl.detail(ok) if ok else {})},
        "determinism": {
            "input_digest": input_digests[0],
            "output_digest": workloads.digest_of(*(str(r["digest"]).encode() for r in first)),
            "digest_ops": len(first),
            "units_in_digest_ops": sum(r["units"] for r in first),
        },
        "checks": checks,
        "trace_info": trace_info,
    }
    metrics = per_layer(tracer.totals(), records) if tracer is not None else e2e
    result = {"correct": failed == 0 and all(checks.values()),
              "attempted": len(records), "failed": failed, "metrics": metrics}

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ops = [{k: r[k] for k in ("i", "class", "ok", "seconds", "units")} for r in records]
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result, "ops": ops}, fh, indent=1)
    if tracer is not None:
        tracer.dump(f"{stem}-spans.json")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
