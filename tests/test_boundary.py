"""The input boundary as a whole: every CLI flag and every model-file leaf.

SWEEP runs every numeric flag of gen, train and rollout over the values that
break a float, each given as a separate word: each run exits 0 with a finite
product, or exits 1 with one 'error:' line and no output file, and no run
raises a warning.  Argparse's own type errors, such as a non-integer
--kernels, are out of its scope.  An argv word '{dq}' names a file of the
cli_files fixture.

The leaf sweep sets each number of a small model file of each variant, one at
a time, to each of LEAF_VALUES: the file is refused by load_model, or it loads
and its 1 s rollout table is finite or refused, all with no warning.
"""

import io
import json
import warnings

import numpy as np
import pytest

from dqdmp import (
    basis_scheme_a,
    classical_train,
    dq_train,
    gen_min_jerk,
    gen_somersault,
    load_model,
    pose_train,
    quat_train,
    save_model,
    save_trajectory,
)
from dqdmp.cli import _rollout_table

from conftest import assert_one_error_line, assert_refused, run


@pytest.fixture(scope="session")
def cli_files(tmp_path_factory, demo_file, reach_file, dq_model_file, quat_model_file,
              pose_model_file, classical_model_file):
    """The files an argv's '{name}' words name; 'loop' is the 5 m, 2 s somersault."""
    loop = tmp_path_factory.mktemp("demo") / "loop.csv"
    save_trajectory(gen_somersault(5.0, 2.0, 0.01), str(loop))
    return dict(demo=demo_file, reach=reach_file, loop=str(loop), dq=dq_model_file,
                quat=quat_model_file, pose=pose_model_file, classical=classical_model_file)


@pytest.mark.parametrize("argv, fragment", [
    (["train", "--demo", "{demo}", "--tau", "-2e0"], "tau must be positive and finite"),
    (["rollout", "--model", "{dq}", "--dt", "-inf"], "dt must be positive"),
])
def test_a_negative_value_in_a_word_of_its_own_is_refused_by_the_command(
        tmp_path, capsys, cli_files, argv, fragment):
    # argparse took '-2e0' and '-inf' for options of their own and exited 2
    # with its usage message
    assert_refused(capsys, tmp_path / "product", [word.format(**cli_files) for word in argv],
                   fragment)


SWEPT = {
    # command: (its argv, its float flags, its integer flags); the swept flag
    # comes last, so it overrides the argv's own
    "gen somersault": (["gen", "somersault", "--radius", "5", "--duration", "2"],
                       "--radius --duration --dt", ""),
    "gen minjerk": (["gen", "minjerk"], "--from --to --duration --dt", ""),
    "train classical": (["train", "--variant", "classical", "--demo", "{reach}"],
                        "--alpha-x --tau --alpha-z --beta-z", "--kernels"),
    "train dq": (["train", "--variant", "dq", "--demo", "{loop}"],
                 "--alpha-x --tau --k-rot --k-pos --d-ratio", "--kernels"),
    "train quat": (["train", "--variant", "quat", "--demo", "{loop}"],
                   "--alpha-x --tau --k-rot --d-ratio", "--kernels"),
    "train pose-decoupled": (["train", "--variant", "pose-decoupled", "--demo", "{loop}"],
                             "--alpha-x --tau --k-rot --k-pos --d-ratio",
                             "--pos-kernels --rot-kernels"),
    **{f"rollout {name}": (["rollout", "--model", f"{{{name}}}", "--duration", "1"],
                           "--dt --duration --tau", "")
       for name in ("dq", "quat", "pose", "classical")},
}
SWEEP = {f"{command} {flag} {value}": [*argv, flag, value]
         for command, (argv, floats, ints) in SWEPT.items()
         for flags, values in ((floats, ("nan", "inf", "-inf", "0", "-1", "1e-320", "-1e308")),
                               (ints, ("0", "-1", "1")))
         for flag in flags.split() for value in values}


def finite_product(path) -> bool:
    """Whether the file a command wrote holds numbers only finite ones: a
    model document, or a table under its comments and header line."""
    text = path.read_text()
    if text.startswith("{"):
        json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in the model"))
        return True
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")][1:]
    return bool(rows) and bool(np.isfinite([[float(v) for v in ln.split(",")]
                                            for ln in rows]).all())


@pytest.mark.parametrize("case", SWEEP)
def test_cli_flag_sweep(tmp_path, capsys, cli_files, case):
    # each value a separate word: argparse took '-inf' and '-1e308' for options
    # of their own and exited 2 with its usage message
    out = tmp_path / "product"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run([word.format(**cli_files) for word in SWEEP[case]] + ["-o", str(out)])
    assert not caught, [str(w.message) for w in caught]
    if code == 0:
        assert finite_product(out)
    else:
        assert code == 1
        assert_one_error_line(capsys)
        assert not out.exists()


LEAF_VALUES = (np.nan, np.inf, -np.inf, 0.0, -1.0, 1e-320, 1e300, 1e308, -1e308)


@pytest.fixture(scope="module")
def model_texts():
    """The saved text of a 10-kernel model of each variant."""
    traj, basis = gen_somersault(5.0, 2.0, 0.01), basis_scheme_a(10, 0.05)
    models = dict(dq=dq_train(traj, 2.0, 1.0, 1.0, 10.0, 10.0, basis),
                  quat=quat_train(traj, 2.0, 1.0, 10.0, basis),
                  classical=classical_train(gen_min_jerk(0.0, 1.0, 1.0, 0.01), 1.0, 1.0,
                                            25.0, 6.25, basis),
                  pose=pose_train(traj, 2.0, 0.05, 10, 1.0, 10.0, 10, 1.0, 10.0))
    texts = {}
    for name, model in models.items():
        buf = io.StringIO()
        save_model(model, buf)
        texts[name] = buf.getvalue()
    return texts


def numeric_leaves(node, path=()):
    """The paths of a model document's numbers, format_version and n_kernels aside."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from numeric_leaves(child, path + (key,))
    elif isinstance(node, (int, float)) and path[-1] not in ("format_version", "n_kernels"):
        yield path


def load_and_roll(text: str) -> str | None:
    """What went wrong when the model file text is loaded and rolled out for 1 s,
    or None: the file is refused, or its table is finite or refused, with no warning."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = _rollout_table(load_model(io.StringIO(text)), 0.01, 1.0, None, None)
    except ValueError:
        return None
    except Exception as exc:  # a warning, raised as an error, among them
        return f"{type(exc).__name__}: {exc}"
    return None if np.isfinite(table).all() else "a table with a non-finite entry"


@pytest.mark.parametrize("variant", ["dq", "quat", "classical", "pose"])
def test_model_file_leaf_sweep(model_texts, variant):
    # a center of 1e300 loaded in every variant, and its rollout warned "overflow
    # encountered in square"; an infinite or overflowing dq boundary component
    # warned in matmul or multiply
    text = model_texts[variant]
    assert load_and_roll(text) is None
    failures = []
    for path in numeric_leaves(json.loads(text)):
        for value in LEAF_VALUES:
            doc = json.loads(text)
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            failure = load_and_roll(json.dumps(doc))
            if failure:
                failures.append(f"{'.'.join(map(str, path))} = {value:g}: {failure}")
    assert not failures, failures[:10] + [f"{len(failures)} failures"]
