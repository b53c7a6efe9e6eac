from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cohitlab import cli, cohit, refdata


@pytest.fixture
def sandbox(tmp_path, monkeypatch):
    """Run CLI invocations with the cache isolated under tmp_path."""
    monkeypatch.setenv("COHITLAB_CACHE", str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(capsys, *argv: str) -> tuple[int, str]:
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv: str) -> tuple[int, dict]:
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_mu_command(sandbox, capsys):
    code, data = run_json(capsys, "mu", "--n", "9")
    assert code == 0
    assert data == {"alpha": 2, "mu": 3, "n": 9}


def test_spike_command(sandbox, capsys):
    code, data = run_json(capsys, "spike", "--q", "4", "--n", "9")
    assert code == 0
    assert data["spike"] == [7, 1, 1, 0]
    assert data["weight"] == [3, 1, 1]
    code, data = run_json(capsys, "spike", "--q", "2", "--n", "5")
    assert data["spike"] is None


def test_cohit_command(sandbox, capsys):
    code, data = run_json(capsys, "cohit", "--q", "2", "--n", "6")
    assert code == 0
    assert data["dim"] == 1
    assert len(data["basis"]) == 1


def test_ext_command(sandbox, capsys):
    code, data = run_json(capsys, "ext", "--q", "3", "--n", "8")
    assert code == 0
    assert data == {"dim": 1, "n": 8, "s": 3}


def test_kameko_command(sandbox, capsys):
    code, data = run_json(capsys, "kameko", "--q", "3", "--n", "11")
    assert code == 0
    assert data["target_degree"] == 4
    assert data["rank"] == data["domain_dim"] == data["codomain_dim"] == 8
    assert data["kernel_dim"] == 0
    code, _ = run(capsys, "kameko", "--q", "3", "--n", "10")
    assert code == 2  # parity mismatch


def test_kameko_eliminates_the_images_once(sandbox, capsys, monkeypatch):
    from cohitlab import f2linalg

    calls = []

    def counted(name):
        def wrapper(*args):
            calls.append(name)
            return getattr(f2linalg, name)(*args)
        return wrapper

    # the halving map reaches the elimination only through these two names
    for name in ("image_kernel", "echelonize"):
        monkeypatch.setattr(cohit, name, counted(name), raising=False)
    code, data = run_json(capsys, "kameko", "--q", "4", "--n", "22", "--no-cache")
    assert code == 0
    assert data == {"codomain_dim": 46, "domain_dim": 116, "kernel_dim": 70, "n": 22,
                    "q": 4, "rank": 46, "surjective": True, "target_degree": 9}
    assert calls == ["image_kernel"]


def test_weight_commands(sandbox, capsys):
    code, data = run_json(capsys, "weight", "--q", "4", "--n", "9")
    assert code == 0
    assert data["total"] == 46
    assert data["weights"]["3,1,1"] == 36
    code, data = run_json(
        capsys, "weight", "--q", "4", "--n", "9", "--omega", "3,3"
    )
    assert data["dim"] == 10
    code, _ = run(capsys, "weight", "--q", "4", "--n", "9", "--omega", "x,y")
    assert code == 2


def test_invariants_and_coinvariants(sandbox, capsys):
    code, data = run_json(capsys, "invariants", "--q", "2", "--n", "2")
    assert code == 0 and data["dim"] == 1
    code, data = run_json(capsys, "coinvariants", "--q", "2", "--n", "2")
    assert code == 0 and data["dim"] == 1
    code, data = run_json(
        capsys, "invariants", "--q", "2", "--n", "3", "--group", "sigma"
    )
    assert code == 0


def test_primitives_command(sandbox, capsys):
    code, data = run_json(capsys, "primitives", "--q", "2", "--n", "6")
    assert code == 0
    assert data["dim"] == len(data["representatives"])


def test_file_commands(sandbox, capsys, tmp_path):
    elem = tmp_path / "elem.json"
    elem.write_text(
        json.dumps(
            {
                "q": 4,
                "degree": 9,
                "terms": [[1, 3, 3, 2], [1, 3, 4, 1], [1, 5, 2, 1], [1, 6, 1, 1]],
            }
        )
    )
    code, data = run_json(capsys, "annihilated", "--file", str(elem))
    assert code == 0 and data["annihilated"] is True
    code, data = run_json(capsys, "psi", "--file", str(elem))
    assert code == 0
    assert data["words"] == [[1, 3, 3, 2]]
    assert data["is_cycle"] is True


def test_psi_rejects_bad_files(sandbox, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"q": 4, "terms": [[1, 3, 3, 2], [1, 1, 1, 1]]})
    )
    code, out = run(capsys, "psi", "--file", str(bad))
    assert code == 2
    # q and every exponent must be JSON integers, not floats or booleans
    for data in ({"q": 2, "terms": [[1.5, 0.5]]}, {"q": 2.9, "terms": [[1, 0]]},
                 {"q": True, "terms": [[1]]}, {"q": 2, "terms": [[True, 0]]}):
        bad.write_text(json.dumps(data))
        for command in ("psi", "annihilated"):
            code = cli.main([command, "--file", str(bad)])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == "", (command, data)
            assert len(captured.err.splitlines()) == 1, (command, data)
    missing = tmp_path / "nope.json"
    code, _ = run(capsys, "psi", "--file", str(missing))
    assert code == 2
    code, _ = run(capsys, "psi")
    assert code == 2  # --file is required


def test_resource_limit_exit_code(sandbox, capsys, monkeypatch):
    monkeypatch.setattr(cohit, "MAX_COLUMNS", 100)
    code, data = run_json(capsys, "cohit", "--q", "4", "--n", "45")
    assert code == 3
    assert data["error"] == "resource-limit"
    assert data["detail"].endswith("budget is 100")


def test_ext_budget_refuses_before_building_a_basis(sandbox, capsys, monkeypatch):
    from cohitlab import lambda_algebra

    def no_basis(s, n):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(cohit, "MAX_COLUMNS", 1000)
    monkeypatch.setattr(lambda_algebra, "_admissible_words", no_basis)
    code, data = run_json(capsys, "ext", "--q", "4", "--n", "40", "--no-cache")
    assert code == 3
    assert data["error"] == "resource-limit"
    assert data["detail"].endswith("budget of 1000")


def test_ext_refuses_words_too_long_to_recurse(sandbox, capsys, monkeypatch):
    from cohitlab import lambda_algebra

    def no_basis(s, n):
        raise AssertionError("a basis was built")

    with monkeypatch.context() as patch:
        patch.setattr(lambda_algebra, "_admissible_words", no_basis)
        for s, n in (("450", "3"), ("990", "2")):
            code, data = run_json(capsys, "ext", "--q", s, "--n", n, "--no-cache")
            assert code == 3
            assert data["error"] == "resource-limit"
            assert data["detail"].startswith(f"words of length {int(s) + 1} ")
    # a fresh interpreter still answers at length 300
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)}
    argv = ["ext", "--q", "300", "--n", "3", "--no-cache"]
    proc = subprocess.run([sys.executable, "-m", "cohitlab.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=sandbox,
                          timeout=120, check=True)
    assert proc.stdout == '{"dim":0,"n":3,"s":300}\n'


def test_ext_and_psi_refuse_letters_above_the_cap(sandbox, capsys, monkeypatch,
                                                  tmp_path):
    from cohitlab import lambda_algebra

    def no_basis(*args):
        raise AssertionError("a basis or a word was built")

    assert lambda_algebra.MAX_LETTER == 1022
    with monkeypatch.context() as patch:
        patch.setattr(lambda_algebra, "_admissible_words", no_basis)
        patch.setattr(lambda_algebra, "_psi_words", no_basis)
        # ext at (2, 1022) needs the words of (1, 1023), the source of the
        # map into (2, 1022)
        for s, n in (("1", "1023"), ("2", "1022"), ("4", "5000")):
            code, data = run_json(capsys, "ext", "--q", s, "--n", n, "--no-cache")
            assert code == 3
            assert data["error"] == "resource-limit"
            assert data["detail"].endswith("above the cap of 1022")
        dual = tmp_path / "dual.json"
        dual.write_text(json.dumps({"q": 1, "terms": [[1023]]}))
        code, data = run_json(capsys, "psi", "--file", str(dual), "--no-cache")
        assert code == 3
        assert data["error"] == "resource-limit"
    code, data = run_json(capsys, "ext", "--q", "1", "--n", "1022", "--no-cache")
    assert code == 0
    assert data == {"dim": 0, "n": 1022, "s": 1}
    dual.write_text(json.dumps({"q": 1, "terms": [[1022]]}))
    code, data = run_json(capsys, "psi", "--file", str(dual), "--no-cache")
    assert code == 0
    assert data["words"] == [[1022]]


def test_psi_budget_refuses_before_building_a_word(sandbox, capsys, monkeypatch,
                                                  tmp_path):
    from cohitlab import lambda_algebra

    def no_words(*args):
        raise AssertionError("a word was built")

    dual = tmp_path / "dual.json"
    # 4 variables: degree 230 has 2,081,156 words of length 4, degree 231
    # has 2,108,184, just above the budget of 2^21
    with monkeypatch.context() as patch:
        patch.setattr(lambda_algebra, "_psi_words", no_words)
        for terms in ([[200, 100, 60, 40]], [[228, 1, 1, 1]]):
            dual.write_text(json.dumps({"q": 4, "terms": terms}))
            code, data = run_json(capsys, "psi", "--file", str(dual), "--no-cache")
            assert code == 3
            assert data["error"] == "resource-limit"
            assert data["detail"].endswith(f"budget is {cohit.MAX_COLUMNS}")
    dual.write_text(json.dumps({"q": 4, "terms": [[227, 1, 1, 1]]}))
    code, data = run_json(capsys, "psi", "--file", str(dual), "--no-cache")
    assert code == 0
    assert data["degree"] == 230


def test_rewrite_budget_exit_code(sandbox, capsys, monkeypatch):
    from cohitlab import lambda_algebra

    monkeypatch.setattr(lambda_algebra, "MAX_REWRITES", 0)
    lambda_algebra.clear_caches()
    try:
        code, data = run_json(capsys, "ext", "--q", "4", "--n", "9", "--no-cache")
    finally:
        lambda_algebra.clear_caches()
    assert code == 3
    assert data["error"] == "rewrite-budget"


def test_transfer_prints_the_coinvariant_representatives(sandbox, capsys):
    for q, n in ((4, 9), (4, 17), (4, 22), (4, 45), (3, 19)):
        argv = ("--q", str(q), "--n", str(n), "--no-cache")
        _, transfer = run_json(capsys, "transfer", *argv)
        _, coinvariants = run_json(capsys, "coinvariants", *argv)
        assert transfer["representatives"] == coinvariants["representatives"]
        assert len(transfer["representatives"]) == transfer["domain_dim"] > 0


def test_usage_errors(sandbox, capsys):
    code, _ = run(capsys, "cohit")  # missing --q/--n
    assert code == 2
    for argv in (
        ("cohit", "--q", "0", "--n", "3"),
        ("weight", "--q", "9", "--n", "3"),
        ("kameko", "--q", "0", "--n", "4"),
        ("invariants", "--q", "4", "--n", "-1"),
        ("transfer", "--q", "4", "--n", "-1"),
        ("mu", "--n", "-1"),
        ("ext", "--q", "-1", "--n", "3"),
    ):
        code = cli.main(list(argv))
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), argv
        assert err.count("\n") == 1 and err.startswith(f"cohitlab {argv[0]}: ")
    assert not (sandbox / "cache").exists()
    # for ext, --q is a word length, not a number of variables
    code, data = run_json(capsys, "ext", "--q", "6", "--n", "5")
    assert (code, data) == (0, {"dim": 0, "n": 5, "s": 6})
    code, data = run_json(capsys, "ext", "--q", "0", "--n", "0")
    assert (code, data) == (0, {"dim": 1, "n": 0, "s": 0})
    code, _ = run(capsys, "verify", "bogus")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["not-a-command"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_exit_codes(sandbox, capsys, monkeypatch):
    code, data = run_json(capsys, "verify", "remark26")
    assert code == 0
    assert data["passed"] is True
    broken = dict(refdata.PSI_RAW_TERM_IMAGES_9)
    broken[(1, 6, 1, 1)] = ((2, 5, 1, 1),)
    monkeypatch.setattr(refdata, "PSI_RAW_TERM_IMAGES_9", broken)
    code, data = run_json(capsys, "verify", "remark26")
    assert code == 1
    assert data["passed"] is False


def test_verify_exits_3_when_a_suite_hits_the_column_budget(
    sandbox, capsys, monkeypatch
):
    monkeypatch.setattr(cohit, "MAX_COLUMNS", 40)
    code, data = run_json(capsys, "verify", "dlc2", "--no-cache")
    assert code == 3
    assert data == {
        "detail": "degree 17 in 4 variables needs 1140 columns; budget is 40",
        "error": "resource-limit",
    }


def test_verify_table_output(sandbox, capsys):
    code, out = run(capsys, "verify", "remark26", "--out", "table")
    assert code == 0
    assert "suite remark26: pass" in out
    assert "[pass]" in out
    assert out.endswith("passed: True\n")


def test_cache_round_trip_is_byte_identical(sandbox, capsys):
    args = ("transfer", "--q", "4", "--n", "9")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    code3, out3 = run(capsys, *args, "--no-cache")
    assert code1 == code2 == code3 == 0
    assert out1 == out2 == out3
    entries = list((sandbox / "cache").glob("cli_transfer_*.json"))
    assert len(entries) == 1
    entry = json.loads(entries[0].read_text())
    assert entry["key"] == {
        "q": 4, "n": 9, "op": "transfer", "engine": cli.engine_digest()
    }
    assert entry["payload"] == json.loads(out1)
    assert "timestamp" in entry["provenance"]


def test_a_stored_entry_is_its_sorted_key_dump(sandbox, capsys):
    assert run(capsys, "cohit", "--q", "4", "--n", "21")[0] == 0
    (path,) = (sandbox / "cache").glob("cli_cohit_*.json")
    text = path.read_text()
    # the C encoder's bytes: no indent, no trailing newline
    assert text == json.dumps(json.loads(text), sort_keys=True)


def test_stale_or_foreign_cache_entries_are_ignored(sandbox, capsys):
    args = ("ext", "--q", "2", "--n", "2")
    code, out1 = run(capsys, *args)
    (entry,) = (sandbox / "cache").glob("cli_ext_*.json")
    data = json.loads(entry.read_text())
    data["payload"]["dim"] = 99
    data["key"]["engine"] = "0" * 64
    entry.write_text(json.dumps(data))
    code, out2 = run(capsys, *args)
    assert out2 == out1  # recomputed, not trusted
    entry.write_text("{broken")
    code, out3 = run(capsys, *args)
    assert out3 == out1
    # an entry of the first format: a schema number and a convention hash in
    # place of the engine digest, and hex-packed matrices
    data = json.loads(entry.read_text())
    data["schema"] = 1
    data["key"]["conventions"] = data["key"].pop("engine")[:12]
    data["payload"].update(dim=99, matrix_hex=["1"], matrix_cols=1)
    entry.write_text(json.dumps(data))
    code, out4 = run(capsys, *args)
    assert out4 == out1


def test_entries_not_shaped_as_written_are_recomputed(sandbox, capsys):
    args = ("ext", "--q", "2", "--n", "2")
    _, fresh = run(capsys, *args)
    (entry,) = (sandbox / "cache").glob("cli_ext_*.json")
    good = json.loads(entry.read_text())
    for bad in ([], None, "text", 3, {"key": []}, {**good, "key": None},
                {**good, "payload": []}, {**good, "payload": None}):
        entry.write_text(json.dumps(bad))
        assert run(capsys, *args) == (0, fresh), bad
        assert json.loads(entry.read_text())["key"] == good["key"], bad


def test_an_entry_of_another_engine_is_recomputed_in_place(
    sandbox, capsys, monkeypatch
):
    args = ("ext", "--q", "4", "--n", "9")
    monkeypatch.setattr(cli, "engine_digest", lambda: "a" * 64)
    _, cold = run(capsys, *args)
    (entry,) = (sandbox / "cache").iterdir()
    data = json.loads(entry.read_text())
    data["provenance"]["timestamp"] = "then"
    entry.write_text(json.dumps(data, sort_keys=True))
    stored = entry.read_bytes()
    # the same engine: served from the entry, which is left as it is
    assert run(capsys, *args) == (0, cold)
    assert entry.read_bytes() == stored
    # another engine: recomputed, and its entry replaces the old one
    monkeypatch.setattr(cli, "engine_digest", lambda: "b" * 64)
    assert run(capsys, *args) == (0, cold)
    assert list((sandbox / "cache").iterdir()) == [entry]
    data = json.loads(entry.read_text())
    assert data["key"]["engine"] == "b" * 64
    assert data["provenance"]["timestamp"] != "then"


def test_an_edit_to_the_source_recomputes_stored_answers(tmp_path):
    # a copy of the package, so that editing it leaves the engine under test alone
    package = tmp_path / "src" / "cohitlab"
    shutil.copytree(Path(cli.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {**os.environ, "PYTHONPATH": str(package.parent),
           "COHITLAB_CACHE": str(tmp_path / "cache")}

    def ext(*flags: str) -> str:
        argv = [sys.executable, "-m", "cohitlab.cli", "ext", "--q", "4", "--n", "9"]
        proc = subprocess.run([*argv, *flags], capture_output=True, text=True,
                              env=env, cwd=tmp_path, timeout=120, check=True)
        return proc.stdout

    fresh = ext("--no-cache")
    assert ext() == fresh
    (entry,) = (tmp_path / "cache").glob("cli_ext_*.json")
    data = json.loads(entry.read_text())
    data["payload"]["dim"] = 7
    entry.write_text(json.dumps(data))
    assert json.loads(ext())["dim"] == 7  # the same source: served as stored
    with open(package / "refdata.py", "a") as fh:
        fh.write("# an edit\n")
    assert ext() == fresh


def test_tampered_payload_with_matching_key_is_served(sandbox, capsys):
    # the cache is trusted once the query, the command and the engine all match
    args = ("ext", "--q", "2", "--n", "6")
    run(capsys, *args)
    (entry,) = (sandbox / "cache").glob("cli_ext_*.json")
    data = json.loads(entry.read_text())
    data["payload"]["dim"] = 7
    entry.write_text(json.dumps(data))
    _, out = run_json(capsys, *args)
    assert out["dim"] == 7
    _, fresh = run_json(capsys, *args, "--no-cache")
    assert fresh["dim"] == 1


def test_cache_directory_is_read_on_every_call(sandbox, capsys, monkeypatch):
    for name in ("first", "second"):
        monkeypatch.setenv("COHITLAB_CACHE", str(sandbox / name))
        run(capsys, "ext", "--q", "2", "--n", "3")
    for name in ("first", "second"):
        assert len(list((sandbox / name).glob("cli_ext_*.json"))) == 1


def test_group_is_keyed_only_where_it_is_read(sandbox, capsys):
    cohit = ("cohit", "--q", "2", "--n", "3")
    _, plain = run(capsys, *cohit)
    _, sigma = run(capsys, *cohit, "--group", "sigma")
    assert sigma == plain
    assert len(list((sandbox / "cache").glob("cli_cohit_*.json"))) == 1
    invariants = ("invariants", "--q", "2", "--n", "3")
    _, gl = run_json(capsys, *invariants)
    _, sigma = run_json(capsys, *invariants, "--group", "sigma")
    assert (gl["dim"], sigma["dim"]) == (1, 2)
    assert len(list((sandbox / "cache").glob("cli_invariants_*.json"))) == 2


def test_omega_is_keyed_only_where_it_is_read(sandbox, capsys):
    cohit = ("cohit", "--q", "2", "--n", "3")
    _, plain = run(capsys, *cohit)
    _, weighted = run(capsys, *cohit, "--omega", "3")
    assert weighted == plain
    assert len(list((sandbox / "cache").glob("cli_cohit_*.json"))) == 1
    weight = ("weight", "--q", "2", "--n", "3")
    _, table = run_json(capsys, *weight)
    _, one = run_json(capsys, *weight, "--omega", "3")
    assert "weights" in table and one["omega"] == [3]
    assert len(list((sandbox / "cache").glob("cli_weight_*.json"))) == 2


def test_trailing_zeros_of_omega_share_one_key_and_one_answer(sandbox, capsys):
    weight = ("weight", "--q", "4", "--n", "9")
    _, short = run(capsys, *weight, "--omega", "3,1,1")
    _, padded = run(capsys, *weight, "--omega", "3,1,1,0")
    assert padded == short
    assert json.loads(short)["omega"] == [3, 1, 1]
    assert len(list((sandbox / "cache").glob("cli_weight_*.json"))) == 1
    invariants = ("invariants", "--q", "4", "--n", "9")
    _, short = run(capsys, *invariants, "--omega", "3,1,1")
    _, padded = run(capsys, *invariants, "--omega", "3,1,1,0")
    assert padded == short
    assert len(list((sandbox / "cache").glob("cli_invariants_*.json"))) == 1
    # the empty weight is a subquotient, not the whole table
    code, data = run_json(capsys, *weight, "--omega", "0")
    assert (code, data) == (0, {"basis": [], "dim": 0, "n": 9, "omega": [], "q": 4})


def test_an_empty_omega_is_a_usage_error(sandbox, capsys):
    for command in ("weight", "invariants"):
        code = cli.main([command, "--q", "4", "--n", "9", "--omega", ""])
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), command
        assert err.startswith(f"cohitlab {command}: bad weight vector ''")
    assert not (sandbox / "cache").exists()
    # "0" still names the empty weight
    code, data = run_json(capsys, "invariants", "--q", "4", "--n", "9", "--omega", "0")
    assert (code, data["omega"], data["dim"]) == (0, [], 0)


def test_a_failed_cache_write_leaves_no_temporary_file(sandbox, capsys):
    args = ("cohit", "--q", "2", "--n", "3")
    _, fresh = run(capsys, *args, "--no-cache")
    run(capsys, *args)
    (entry,) = (sandbox / "cache").glob("cli_cohit_*.json")
    entry.unlink()
    entry.mkdir()  # a directory where the entry goes: every write fails
    for _ in range(3):
        assert run(capsys, *args) == (0, fresh)
    assert not list((sandbox / "cache").glob("*.tmp"))


def test_verify_rejects_jobs_below_one(sandbox, capsys):
    for jobs in ("0", "-4"):
        code = cli.main(["verify", "dlc1", "--jobs", jobs])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == f"cohitlab verify: --jobs must be at least 1, got {jobs}\n"


def test_column_budget_limits_computing_not_serving(sandbox, capsys, monkeypatch):
    args = ("cohit", "--q", "4", "--n", "9")
    code, cold = run(capsys, *args)
    assert code == 0
    monkeypatch.setattr(cohit, "MAX_COLUMNS", 10)
    code, warm = run(capsys, *args)
    assert code == 0 and warm == cold
    code, data = run_json(capsys, *args, "--no-cache")
    assert code == 3
    assert data["error"] == "resource-limit"


def test_no_cache_writes_nothing(sandbox, capsys):
    run(capsys, "ext", "--q", "2", "--n", "4", "--no-cache")
    assert not list((sandbox / "cache").glob("cli_ext_*"))


def test_table_output_lists_monomials(sandbox, capsys):
    code, out = run(capsys, "cohit", "--q", "2", "--n", "3", "--out", "table")
    assert code == 0
    assert "dim: 3" in out
    assert "3 0" in out  # the x1^3 spike row


def test_consecutive_calls_share_no_state(sandbox, capsys):
    # main reuses one parser per process: no option may outlive its call
    assert cli.build_parser() is cli.build_parser()
    query = ("coinvariants", "--q", "4", "--n", "22")
    _, sigma = run(capsys, *query, "--group", "sigma")
    _, default = run(capsys, *query)
    _, gl = run(capsys, *query, "--group", "gl")
    assert default == gl != sigma
    code, table = run(capsys, "mu", "--n", "9", "--out", "table")
    assert code == 0 and not table.startswith("{")
    code, data = run_json(capsys, "mu", "--n", "9")
    assert code == 0 and data["mu"] == 3
    code, _ = run(capsys, "cohit", "--q", "4")  # no --n
    assert code == 2
    code, data = run_json(capsys, "cohit", "--q", "2", "--n", "3")
    assert code == 0 and data["dim"] == 3
