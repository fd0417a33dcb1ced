"""The names the traced benchmark run wraps must exist where it looks.

``bench/spans.py`` replaces each ``owner.attr`` of its ``_TARGETS`` with a
timing wrapper, looking the attribute up in ``owner.__dict__``.  A refactor
that drops an import (say ``design_matrix`` from ``dqdmp.cli``) would break
the traced run, and no other test would notice.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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

