"""The command-line tools under tools/, loaded from their files."""

import importlib.util
import json
import math
import os
import shutil
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def fingerprint():
    return load("fingerprint")


@pytest.fixture(scope="module")
def size():
    return load("size")


@pytest.fixture(scope="module")
def endtoend():
    return load("endtoend")


@pytest.fixture
def interleave(monkeypatch):
    # Loading the script sets thread variables and sys.dont_write_bytecode;
    # both are put back after the test.
    monkeypatch.setattr(os, "environ", dict(os.environ))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    return load("interleave")


def record(fingerprint, **fields):
    """One dumped record: every field 1.0 but those given, as float.hex."""
    values = {name: 1.0 for name in fingerprint.RECORD_FIELDS} | fields
    return [float(values[name]).hex() for name in fingerprint.RECORD_FIELDS]


def compare(fingerprint, tmp_path, capsys, old, new):
    """(exit code, {run: drift}) of --compare on these two dumps."""
    paths = []
    for name, dump in (("old.json", old), ("new.json", new)):
        (tmp_path / name).write_text(json.dumps(dump))
        paths.append(str(tmp_path / name))
    code = fingerprint.compare(*paths)
    lines = capsys.readouterr().out.splitlines()
    runs = lines[lines.index("# worst relative drift per run (records old new)") + 1:-1]
    drift = {}
    for line in runs:
        run, rest = line.split(" ", 1)
        drift[run] = math.inf if rest.startswith("only in") else float(rest.split()[0])
    return code, drift


def test_equal_dumps_drift_zero(fingerprint, tmp_path, capsys):
    dump = {"a": [record(fingerprint), record(fingerprint, F=math.nan, E1=math.inf)]}
    assert compare(fingerprint, tmp_path, capsys, dump, dump) == (0, {"a": 0.0})


def test_nan_on_one_side_drifts_inf(fingerprint, tmp_path, capsys):
    # max(0.0, nan) keeps 0.0, so a NaN against 1.0 once read as no drift.
    old = {"a": [record(fingerprint)], "b": [record(fingerprint, E2=math.inf)]}
    new = {"a": [record(fingerprint, F=math.nan)], "b": [record(fingerprint, E2=2.0)]}
    assert compare(fingerprint, tmp_path, capsys, old, new) == (1, {"a": math.inf, "b": math.inf})


def test_lost_record_drifts(fingerprint, tmp_path, capsys):
    # zip stops at the shorter list: the records both hold are equal.
    old = {"a": [record(fingerprint), record(fingerprint, t=2.0)], "b": [record(fingerprint)]}
    new = {"a": [record(fingerprint)], "b": [record(fingerprint)]}
    assert compare(fingerprint, tmp_path, capsys, old, new) == (1, {"a": math.inf, "b": 0.0})


def test_run_in_one_dump_only_drifts(fingerprint, tmp_path, capsys):
    old = {"a": [record(fingerprint)]}
    new = {"a": [record(fingerprint)], "b": [record(fingerprint)]}
    assert compare(fingerprint, tmp_path, capsys, old, new) == (1, {"a": 0.0, "b": math.inf})


def test_finite_drift_is_relative(fingerprint, tmp_path, capsys):
    old = {"a": [record(fingerprint, F=4.0, E1=0.0)]}
    new = {"a": [record(fingerprint, F=5.0, E1=0.5)]}
    assert compare(fingerprint, tmp_path, capsys, old, new) == (1, {"a": 0.5})


def test_code_lines_skip_docstrings_comments_and_blanks(size):
    text = """\
\"\"\"The module's docstring,
over two lines.\"\"\"

# A comment-only line.
import os  # a trailing comment leaves the line code


class Thing:
    \"\"\"The class's docstring.\"\"\"

    x = 1


def f(a):
    \"\"\"The function's
    docstring.\"\"\"

    # Another comment.
    return a
"""
    # import, class, x = 1, def, return
    assert size.code_lines(text) == 5


def test_code_lines_count_every_line_of_a_string_that_is_no_docstring(size):
    text = """\
def f():
    x = 1
    \"\"\"An expression after the first statement,
    so no docstring.\"\"\"
    return \"\"\"one
two
three\"\"\"
"""
    # def, x = 1, two string lines, three lines of the returned string
    assert size.code_lines(text) == 7


def test_module_lines_sum_to_the_totals(size, capsys):
    size.main()
    lines = capsys.readouterr().out.splitlines()
    totals = {key: int(value) for key, value in (line.split() for line in lines[:3])}
    modules = {name: (int(src), int(code)) for name, src, code in map(str.split, lines[3:])}
    assert "hyperburg/suite.py" in modules and len(modules) == len(lines) - 3
    assert sum(src for src, _ in modules.values()) == totals["src_lines"]
    assert sum(code for _, code in modules.values()) == totals["code_lines"]
    assert all(0 < code <= src for src, code in modules.values())


def test_against_a_copy_of_the_tree_reads_zero_deltas(size, tmp_path, capsys):
    # --against runs both listings in subprocesses; a copy of this tree's
    # src/ and size.py lists the same numbers, line for line.
    shutil.copytree(TOOLS.parent / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "tools").mkdir()
    shutil.copy(TOOLS / "size.py", tmp_path / "tools")
    size.main()
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    size.against(str(tmp_path))
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [line[0] for line in lines] == names and "hyperburg/suite.py" in names
    for _, old, new, delta in lines:
        assert old == new and {int(d) for d in delta.split("/")} == {0}


def test_ratio_line_prints_median_quartiles_and_wins(interleave):
    # Sorted 0.9, 0.95, 1.0, 1.1, 1.2: inclusive quartiles at positions 1 and 3.
    assert (interleave.ratio_line("total ratio", [1.1, 0.9, 1.2, 1.0, 0.95])
            == "total ratio 1.000 (IQR 0.950-1.100, 2/5 faster)")
    assert (interleave.ratio_line("ratio", [0.98, 1.02])
            == "ratio 1.000 (IQR 0.990-1.010, 1/2 faster)")
    assert interleave.ratio_line("ratio", [1.02]) == "ratio 1.020 (IQR 1.020-1.020, 0/1 faster)"


def test_endtoend_measures_wall_and_peak_memory_of_one_process(endtoend, monkeypatch):
    wall, peak_mb = endtoend.run_once(["-c", "pass"])
    assert wall > 0.0 and peak_mb > 0.0
    monkeypatch.setattr(endtoend, "REPEATS", 2)
    name, seconds, peak = endtoend.entry("noop", ["-c", "pass"]).split(" ")
    assert name == "noop" and float(seconds) > 0.0 and float(peak) > 0.0
    with pytest.raises(SystemExit, match="exited 3, not 0"):
        endtoend.run_once(["-c", "raise SystemExit(3)"])
