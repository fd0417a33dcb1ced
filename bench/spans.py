"""Span recording around calls between dqdmp modules, for the traced run.

The tracer replaces public names that one dqdmp module imports from another
(``dqdmp.cli.dq_rollout``, ``dqdmp.dmp.fit_weights``, ...) and two methods
(``Trajectory.__init__``, ``DqRollout.poses``) with timing wrappers.  A
wrapper records one span: its name, the op it belongs to, its parent span
and its start and end times.  Spans nest through a stack, so the self time
of a span is its duration minus the durations of its direct children.

Per-sample algebra (``dq_error``, ``quat_product``, ``forcing_rows``) is
never wrapped: the wrapper would cost more than the call.  Those costs
show in the self time of the caller, or are measured by a replay in the
benchmark (see ``Tracer.span``).

Spans stay in memory while the benchmark runs and are written out once,
at the end.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter

import dqdmp.canonical as canonical
import dqdmp.cli as cli
import dqdmp.dmp as dmp
import dqdmp.traj as traj


def _first_len(args, kwargs, result):
    return len(args[0])


def _result_len(args, kwargs, result):
    return len(result)


def _rollout_steps(args, kwargs, result):
    return len(result.t) - 1


def _self_t_len(args, kwargs, result):
    return len(args[0].t)


# (owner, attribute, span name, work units of one call)
_TARGETS = [
    (traj, "load_trajectory", "traj.load", _result_len),
    (cli, "load_trajectory", "traj.load", _result_len),
    (traj, "save_trajectory", "traj.save", _first_len),
    (cli, "save_trajectory", "traj.save", _first_len),
    (traj.Trajectory, "__init__", "traj.ingest", _self_t_len),
    (traj, "differentiate", "traj.differentiate", _first_len),
    (cli, "gen_somersault", "traj.gen_somersault", _result_len),
    (canonical, "design_matrix", "canonical.design_matrix", _first_len),
    (cli, "design_matrix", "canonical.design_matrix", _first_len),
    (dmp, "fit_weights", "canonical.fit_weights", None),
    (dmp, "dq_target_forcing", "dmp.dq_target_forcing", _first_len),
    (cli, "dq_target_forcing", "dmp.dq_target_forcing", _first_len),
    (dmp, "quat_target_forcing", "dmp.quat_target_forcing", _first_len),
    (cli, "quat_target_forcing", "dmp.quat_target_forcing", _first_len),
    (dmp, "dq_train", "dmp.dq_train", _first_len),
    (cli, "dq_train", "dmp.dq_train", _first_len),
    (dmp, "quat_train", "dmp.quat_train", _first_len),
    (dmp, "classical_train", "dmp.classical_train", None),
    (dmp, "pose_train", "dmp.pose_train", _first_len),
    (cli, "pose_train", "dmp.pose_train", _first_len),
    (dmp, "dq_rollout", "dmp.dq_rollout", _rollout_steps),
    (cli, "dq_rollout", "dmp.dq_rollout", _rollout_steps),
    (dmp, "quat_rollout", "dmp.quat_rollout", _rollout_steps),
    (dmp, "classical_rollout", "dmp.classical_rollout", _rollout_steps),
    (dmp, "pose_rollout", "dmp.pose_rollout", _rollout_steps),
    (cli, "pose_rollout", "dmp.pose_rollout", _rollout_steps),
    (dmp.DqRollout, "poses", "dmp.poses", _self_t_len),
    (dmp, "save_model", "dmp.save_model", None),
    (cli, "save_model", "dmp.save_model", None),
    (cli, "load_model", "dmp.load_model", None),
    (cli, "cmd_gen", "cli.gen", None),
    (cli, "cmd_train", "cli.train", None),
    (cli, "cmd_rollout", "cli.rollout", None),
    (cli, "cmd_compare", "cli.compare", None),
]

# span fields
NAME, OP, PARENT, START, END, UNITS = range(6)


class Tracer:
    """Records spans while ``recording`` is set; ``op`` tags each span."""

    def __init__(self):
        self.spans: list[list] = []
        self.recording = False
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for owner, attr, name, units in _TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, units))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _open(self, name: str) -> list:
        span = [name, self.op, self._stack[-1] if self._stack else -1, 0.0, 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, fn, name, units):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                tracer._stack.pop()
            if units is not None:
                span[UNITS] = units(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str, units: int):
        """Record a span around the benchmark's own replay of a stage."""
        span = self._open(name)
        span[UNITS] = units
        span[START] = perf_counter()
        try:
            yield
        finally:
            span[END] = perf_counter()
            self._stack.pop()

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, self seconds, inclusive seconds, units.

        A call nested in a call of the same name (a function that re-enters
        itself through the module namespace, as ``load_trajectory(path)``
        does) adds its self time but not its units or inclusive time.
        """
        child_time = [0.0] * len(self.spans)
        has_child = [False] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
                has_child[s[PARENT]] = True
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            name = s[NAME]
            if name == "canonical.fit_weights":
                # a fit that builds no design matrix took the all-zero shortcut
                name += ".solved" if has_child[i] else ".skipped"
            t = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                      "total_s": 0.0, "units": 0})
            t["self_s"] += s[END] - s[START] - child_time[i]
            reentry = s[PARENT] >= 0 and self.spans[s[PARENT]][NAME] == s[NAME]
            if not reentry:
                t["calls"] += 1
                t["total_s"] += s[END] - s[START]
                t["units"] += s[UNITS]
        return out

    def dump(self, path) -> None:
        fields = ["name", "op", "parent", "start_s", "end_s", "units"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)
