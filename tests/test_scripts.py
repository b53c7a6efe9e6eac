"""Smoke tests: each scan script under scripts/ runs and prints a row per
degree, and the mutation runner's table applies to the tree as it stands."""

from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from cohitlab import lambda_algebra

ROOT = Path(__file__).resolve().parents[1]


def run_raw(name: str, *args: str) -> subprocess.CompletedProcess:
    """Run a script with the package on its path."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def run_script(name: str, *args: str) -> list[int]:
    """Run a script that must succeed; the degrees of its rows."""
    proc = run_raw(name, *args)
    assert proc.returncode == 0, proc.stderr
    return [int(n) for n in re.findall(r"^n=\s*(\d+) ", proc.stdout, re.M)]


def test_degree_scan_with_coinvariants():
    degrees = run_script(
        "degree_scan.py", "--q", "3", "--start", "0", "--stop", "10", "--coinvariants"
    )
    assert degrees == list(range(11))


def test_degree_scan_reads_zero_where_mu_exceeds_the_rank():
    # mu(12) = 4 > 3: every monomial of degree 12 in 3 variables is hit
    proc = run_raw("degree_scan.py", "--q", "3", "--start", "12", "--stop", "12",
                   "--coinvariants", "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "n": 12, "mu": 4, "dim": 0, "weights": {}, "invariants": 0, "coinvariants": 0,
    }


def test_degree_scan_answers_a_spike_free_degree_past_the_column_budget():
    # mu(233) = 7 > 4, so every degree-233 monomial in 4 variables is hit,
    # although there are more of them than the column budget
    proc = run_raw("degree_scan.py", "--q", "4", "--start", "233", "--stop", "233",
                   "--coinvariants", "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "n": 233, "mu": 7, "dim": 0, "weights": {}, "invariants": 0, "coinvariants": 0,
    }


def test_degree_scan_counts_the_degrees_it_scanned():
    proc = run_raw("degree_scan.py", "--q", "2", "--start", "10", "--stop", "5")
    assert proc.returncode == 0, proc.stderr
    assert not proc.stdout
    assert proc.stderr.startswith("# scanned 0 degrees at q=2 ")
    proc = run_raw("degree_scan.py", "--q", "2", "--start", "3", "--stop", "5")
    assert proc.stderr.startswith("# scanned 3 degrees at q=2 ")


def test_transfer_report():
    assert run_script("transfer_report.py", "--q", "3", "--stop", "12") == list(range(13))


def load_script(name: str):
    """A script under scripts/, imported into this process as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_transfer_report_stops_with_exit_3_on_the_rewrite_budget(monkeypatch, capsys):
    # in this process, so the budget can be lowered; cold memos must rewrite
    script = load_script("transfer_report")
    lambda_algebra.clear_caches()
    monkeypatch.setattr(lambda_algebra, "MAX_REWRITES", 5)
    try:
        assert script.main(["--q", "4", "--degrees", "9"]) == 3
    finally:
        lambda_algebra.clear_caches()
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("n=9: stopped (") and len(err.splitlines()) == 1, err


def test_bad_input_is_one_line_and_exit_2():
    for name, args in (
        ("degree_scan.py", ("--q", "7")),
        ("transfer_report.py", ("--degrees", "-1")),
    ):
        proc = run_raw(name, *args)
        assert proc.returncode == 2, proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert not proc.stdout


def test_a_mutation_whose_old_text_is_not_there_once_is_stale(monkeypatch):
    mutate = load_script("mutate")

    def no_pytest(root, tests):
        raise AssertionError("pytest ran")

    monkeypatch.setattr(mutate, "_pytest", no_pytest)
    row = mutate.MUTATIONS[0]
    assert mutate.run(row._replace(old="a text no source holds")) == "stale"
    assert mutate.run(row._replace(old="\n")) == "stale"  # more than once
    assert mutate.run(row._replace(file="src/cohitlab/gone.py")) == "stale"
    # every further edit of the row must apply too
    assert mutate.run(row._replace(also=(("a text no source holds", ""),))) == "stale"
    # a file outside the copied folders is the repository's own: never written
    assert mutate.run(row._replace(file="README.md", old="## Scripts")) == "stale"


def test_every_mutation_row_applies_to_the_tree_as_it_stands():
    mutate = load_script("mutate")
    assert len(mutate.MUTATIONS) >= 19
    for row in mutate.MUTATIONS:
        assert row.file.startswith(("src/", "tests/")), row.name
        for old, _ in row.edits():
            assert (ROOT / row.file).read_text().count(old) == 1, row.name
        assert row.tests, row.name
        for node in row.tests:
            path, _, name = node.partition("::")
            assert f"\ndef {name}(" in (ROOT / path).read_text(), (row.name, node)
