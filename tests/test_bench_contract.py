"""The names the traced benchmark run wraps must exist where it looks.

``bench/spans.py`` replaces each ``owner.attr`` of its ``_TARGETS`` with a
timing wrapper, looking the attribute up in ``owner.__dict__``.  A refactor
that drops an import (say ``design_matrix`` from ``dqdmp.cli``) would break
the traced run, and no other test would notice.  The traced run's replays
also make single-value calls that no rollout or training makes any more;
those calls are made here with the same shapes.  A last test holds the
public surface to its callers: each name ``dqdmp`` exports is used by the
library, the benchmark or the acceptance criteria.
"""

import ast
import importlib.util
from pathlib import Path

import numpy as np

import dqdmp.canonical as canonical
import dqdmp.dualquat as dualquat
from dqdmp import basis_scheme_a, phase

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
SRC = ROOT / "src" / "dqdmp"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_on_its_owner():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in load_spans()._TARGETS
               if attr not in owner.__dict__]
    assert not missing, f"traced names not found: {missing}"



def test_replayed_single_value_calls_keep_their_shapes():
    # the cli-loop replay: forcing_rows at one float phase of the dq model,
    # and dq_from_pose on one pose of the demo
    basis = basis_scheme_a(30, 0.05)
    weights = np.random.default_rng(3).normal(size=(6, 30))
    x = float(phase(np.array([0.37]), basis.alpha_x, 18.9)[0])
    row = canonical.forcing_rows(x, basis, weights)
    assert row.shape == (6,)
    assert np.array_equal(row, canonical.forcing_rows(np.array([x]), basis, weights)[0])
    q = np.array([np.cos(0.2), 0.0, np.sin(0.2), 0.0])
    dq = dualquat.dq_from_pose(dualquat.Pose(np.array([1.0, -2.0, 0.5]), q))
    assert dq.real.shape == (4,) and dq.dual.shape == (4,)
    assert np.allclose(dualquat.dq_to_pose(dq).position, [1.0, -2.0, 0.5], atol=1e-12)


def test_every_imported_name_is_used():
    # only a name the traced run wraps on a module may be imported there unused
    wrapped = {(owner.__name__, attr) for owner, attr, _, _ in load_spans()._TARGETS}
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = f"dqdmp.{path.stem}"
        unused += [f"{module}.{name}" for name in sorted(imported - used)
                   if (module, name) not in wrapped]
    assert not unused, f"imported but unused: {unused}"


def test_every_exported_name_has_a_caller():
    # the package exports only what the library, the benchmark or the
    # acceptance criteria use; unit tests alone do not keep a name alive
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    callers = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    callers += [*sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    used = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert exported, "no exported names found"
    assert not exported - used, f"exported but never used: {sorted(exported - used)}"
