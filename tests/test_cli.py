from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cohitlab import cli, cohit, refdata, transferlab
from cohitlab.polyspace import DualElement, count_monomials, mu
from cohitlab.steenrod import HitSpan

ROOT = Path(__file__).resolve().parents[1]


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


def test_a_spike_free_degree_past_the_column_budget_answers_zero(sandbox, capsys,
                                                                monkeypatch):
    from cohitlab import lambda_algebra, steenrod

    def refuse(*args):
        raise AssertionError("a refused basis or span was built")

    # mu(233) = 7 > 4: with no spike every monomial is hit (Wood), so the span
    # has no column, although the degree has more monomials than the budget
    assert mu(233) == 7 and count_monomials(4, 233) > cohit.MAX_COLUMNS
    for command in ("cohit", "primitives", "invariants", "coinvariants"):
        code, data = run_json(capsys, command, "--q", "4", "--n", "233", "--no-cache")
        assert code == 0 and data["dim"] == 0, command
    code, out = run(capsys, "cohit", "--q", "4", "--n", "233", "--no-cache")
    assert out == '{"basis":[],"dim":0,"n":233,"q":4}\n'
    # the transfer still needs Ext, whose words are past the budget; a budget
    # that stopped refusing fails here at once instead of building them
    with monkeypatch.context() as patch:
        patch.setattr(lambda_algebra, "_admissible_words", refuse)
        code, data = run_json(capsys, "transfer", "--q", "4", "--n", "233",
                              "--no-cache")
    assert code == 3 and data["error"] == "resource-limit"
    assert data["detail"].startswith("length 5 and degree 232 ")
    # a degree with a spike is still refused before any row is built
    with monkeypatch.context() as patch:
        patch.setattr(steenrod, "hit_span", refuse)
        code, data = run_json(capsys, "cohit", "--q", "5", "--n", "100", "--no-cache")
    assert code == 3 and data["detail"].endswith(f"budget is {cohit.MAX_COLUMNS}")


def test_a_weight_table_past_the_budget_refuses_before_listing_a_weight(
        sandbox, capsys, monkeypatch):
    from cohitlab import steenrod

    def refuse(*args):
        raise AssertionError("the weight vectors of a degree were listed")

    # spike-free, so its span has no column, but its table would list
    # 9,004,875 weights: the count refuses it without listing one
    assert mu(400000) > 4
    monkeypatch.setattr(cohit, "weight_vectors", refuse)
    monkeypatch.setattr(steenrod, "weight_vectors", refuse)
    code, out = run(capsys, "weight", "--q", "4", "--n", "400000", "--no-cache")
    assert code == 3
    assert out == ('{"detail":"degree 400000 in 4 variables has 9004875 weight '
                   'vectors; budget is 2097152","error":"resource-limit"}\n')
    # the refusal is not stored: no entry stands in for the answer
    assert not list((sandbox / "cache").glob("cli_weight_*.json"))


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


def test_transfer_refuses_under_the_ext_word_budget(sandbox, capsys, monkeypatch):
    from functools import cache

    from cohitlab import lambda_algebra

    def no_basis(s, n):
        raise AssertionError("a basis was built")

    # (4, 45) has 17,296 monomials, the span's and psi's budget, but (5, 44)
    # has 20,451 admissible words: the transfer's homology is refused as ext
    # is, on a memo of its own
    monkeypatch.setattr(cohit, "MAX_COLUMNS", count_monomials(4, 45))
    monkeypatch.setattr(lambda_algebra, "_homology",
                        cache(lambda_algebra._homology.__wrapped__))
    monkeypatch.setattr(lambda_algebra, "_admissible_words", no_basis)
    code, refused = run_json(capsys, "ext", "--q", "4", "--n", "45", "--no-cache")
    assert code == 3
    assert refused == {"detail": "length 5 and degree 44 have more admissible "
                                 "words than the budget of 17296",
                       "error": "resource-limit"}
    code, data = run_json(capsys, "transfer", "--q", "4", "--n", "45", "--no-cache")
    assert (code, data) == (3, refused)


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
    # the span's message: one column budget, one text
    assert data == {"detail": "degree 231 in 4 variables needs 2108184 columns; "
                              "budget is 2097152",
                    "error": "resource-limit"}
    dual.write_text(json.dumps({"q": 4, "terms": [[227, 1, 1, 1]]}))
    code, data = run_json(capsys, "psi", "--file", str(dual), "--no-cache")
    assert code == 0
    assert data["degree"] == 230


def test_annihilated_budget_refuses_before_building_a_square(sandbox, capsys,
                                                             monkeypatch, tmp_path):
    from cohitlab import steenrod

    def no_squares(*args):
        raise AssertionError("a dual square was built")

    dual = tmp_path / "dual.json"
    # the budget psi applies: (228, 1, 1, 1) is of degree 231, one past it,
    # and (170, ..., 170) of degree 850 in 5 variables has C(854, 4) monomials
    with monkeypatch.context() as patch:
        patch.setattr(steenrod, "sq_dual_all", no_squares)
        for terms in ([[228, 1, 1, 1]], [[170] * 5]):
            dual.write_text(json.dumps({"q": len(terms[0]), "terms": terms}))
            code, data = run_json(capsys, "annihilated", "--file", str(dual),
                                  "--no-cache")
            assert code == 3
            assert data["error"] == "resource-limit"
            assert data["detail"].endswith(f"budget is {cohit.MAX_COLUMNS}")
    assert data == {"detail": "degree 850 in 5 variables needs 22007201251 "
                              "columns; budget is 2097152",
                    "error": "resource-limit"}
    dual.write_text(json.dumps({"q": 4, "terms": [[227, 1, 1, 1]]}))
    code, data = run_json(capsys, "annihilated", "--file", str(dual), "--no-cache")
    assert code == 0
    assert data["degree"] == 230


def test_every_column_budget_is_the_one_check(sandbox, monkeypatch, tmp_path):
    from cohitlab import lambda_algebra, steenrod

    class Refused(Exception):
        pass

    def refuse(q, n):
        raise Refused(q, n)

    def built(*args):
        raise AssertionError("a span, word or dual square was built")

    # the span at a degree with a spike, psi and annihilated all ask
    # check_columns, and before any work
    monkeypatch.setattr(cohit, "check_columns", refuse)
    monkeypatch.setattr(steenrod, "hit_span", built)
    monkeypatch.setattr(steenrod, "sq_dual_all", built)
    monkeypatch.setattr(lambda_algebra, "_psi_words", built)
    monkeypatch.setattr(lambda_algebra, "_primitive_psi_words", built)
    theta = DualElement(4, [(3, 3, 2, 1)])
    dual = tmp_path / "dual.json"
    dual.write_text(json.dumps({"q": 4, "terms": [[3, 3, 2, 1]]}))
    for call in (lambda: cohit.span_for(4, 9), lambda: lambda_algebra.psi(theta),
                 lambda: lambda_algebra.psi(theta, primitive=True),
                 lambda: cli.main(["annihilated", "--file", str(dual), "--no-cache"])):
        with pytest.raises(Refused) as refused:
            call()
        assert refused.value.args == (4, 9)


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


def test_invariants_print_from_coordinates(sandbox, capsys, monkeypatch):
    # no fixed class is built as a polynomial, and the bytes keep their pin
    def refuse(self, bits):
        raise AssertionError("a class was built as a polynomial")

    monkeypatch.setattr(HitSpan, "from_coordinates", refuse)
    query = "invariants --q 4 --n 37 --group sigma"
    pins = (ROOT / ".github" / "span-outputs.sha256").read_text().splitlines()
    (digest,) = [line.split(" ", 1)[0] for line in pins if line.endswith(" " + query)]
    code, out = run(capsys, *query.split(), "--no-cache")
    assert code == 0 and json.loads(out)["dim"] > 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def _entry_lines(entry: Path) -> tuple[dict, str]:
    """An entry's key line, parsed, and its answer line."""
    head, answer = entry.read_text().split("\n")
    return json.loads(head), answer


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _count_computes(monkeypatch, command: str) -> list:
    """Record each call of a command's handler: one per answer computed."""
    calls, row = [], cli.COMMANDS[command]

    def counted(args):
        calls.append(args.command)
        return row.handler(args)

    monkeypatch.setitem(cli.COMMANDS, command, row._replace(handler=counted))
    return calls


def test_cache_round_trip_is_byte_identical(sandbox, capsys):
    args = ("transfer", "--q", "4", "--n", "9")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    code3, out3 = run(capsys, *args, "--no-cache")
    assert code1 == code2 == code3 == 0
    assert out1 == out2 == out3
    entries = list((sandbox / "cache").glob("cli_transfer_*.json"))
    assert len(entries) == 1
    key, answer = _entry_lines(entries[0])
    assert key == {"q": 4, "n": 9, "op": "transfer", "engine": cli.engine_digest(),
                   "answer": _sha256(answer)}
    assert answer + "\n" == out1  # no provenance: the answer line alone follows


def test_every_keyed_table_is_byte_identical_cold_warm_and_uncached(sandbox, capsys):
    # the table is rendered from the answer line, as stored or as computed
    queries = ["cohit --q 4 --n 21", "weight --q 4 --n 21",
               "weight --q 4 --n 21 --omega 3,1,1,1", "invariants --q 4 --n 21",
               "invariants --q 4 --n 9 --omega 3,1,1", "coinvariants --q 4 --n 22",
               "primitives --q 4 --n 21", "kameko --q 4 --n 22", "ext --q 4 --n 9",
               "transfer --q 4 --n 18"]
    assert {q.split()[0] for q in queries} == {
        name for name, command in cli.COMMANDS.items() if command.key
    }
    for query in queries:
        args = (*query.split(), "--out", "table")
        cold = run(capsys, *args)
        assert cold[0] == 0 and not cold[1].startswith("{"), query
        assert run(capsys, *args) == cold, query  # warm
        assert run(capsys, *args, "--no-cache") == cold, query
    assert len(list((sandbox / "cache").iterdir())) == len(queries)


def test_a_stored_entry_is_its_sorted_key_dump(sandbox, capsys):
    _, out = run(capsys, "cohit", "--q", "4", "--n", "21")
    (path,) = (sandbox / "cache").glob("cli_cohit_*.json")
    head, answer = path.read_text().split("\n")
    # the C encoder's bytes: no indent, and no newline after the answer line
    assert head == json.dumps(json.loads(head), sort_keys=True)
    assert answer + "\n" == out


def test_stale_or_foreign_cache_entries_are_ignored(sandbox, capsys, monkeypatch):
    args = ("ext", "--q", "2", "--n", "2")
    _, out1 = run(capsys, *args)
    (entry,) = (sandbox / "cache").glob("cli_ext_*.json")
    good = entry.read_text()
    key, answer = _entry_lines(entry)
    computes = _count_computes(monkeypatch, "ext")
    forged = answer.replace('"dim":1', '"dim":99')
    assert forged != answer
    stale = [
        # another engine, its answer line hashed as written
        json.dumps({**key, "engine": "0" * 64, "answer": _sha256(forged)},
                   sort_keys=True) + "\n" + forged,
        # another query's entry at this query's path
        json.dumps({**key, "n": 3, "answer": _sha256(forged)},
                   sort_keys=True) + "\n" + forged,
        "{broken",
        # the one-object entry before this format: key, payload and provenance
        json.dumps({"key": {k: v for k, v in key.items() if k != "answer"},
                    "payload": json.loads(forged),
                    "provenance": {"timestamp": "then"}}, sort_keys=True),
        # the first format: a schema number and a convention hash in place of
        # the engine digest, and hex-packed matrices
        json.dumps({"schema": 1, "key": {"q": 2, "n": 2, "op": "ext",
                                         "conventions": key["engine"][:12]},
                    "payload": {"dim": 99, "matrix_hex": ["1"], "matrix_cols": 1}}),
    ]
    for text in stale:
        entry.write_text(text)
        assert run(capsys, *args) == (0, out1), text  # recomputed, not trusted
        assert entry.read_text() == good, text  # and stored in its place
    assert computes == ["ext"] * len(stale)


def test_entries_not_shaped_as_written_are_recomputed(sandbox, capsys, monkeypatch):
    args = ("ext", "--q", "2", "--n", "2")
    _, fresh = run(capsys, *args)
    (entry,) = (sandbox / "cache").glob("cli_ext_*.json")
    good = entry.read_text()
    head, answer = good.split("\n")
    key = json.loads(head)
    computes = _count_computes(monkeypatch, "ext")
    bad_entries = [
        "", head, head + "\n",  # no newline, or no answer line
        answer, "\n" + answer,  # no key line
        # a bad key line
        *(json.dumps(bad) + "\n" + answer
          for bad in ([], None, "text", 3, [key], {**key, "answer": None})),
        "{broken\n" + answer,
        json.dumps({k: v for k, v in key.items() if k != "answer"}) + "\n" + answer,
        json.dumps({**key, "extra": 1}) + "\n" + answer,
        # an empty, truncated or edited answer line under the right key line
        head + "\n",
        head + "\n" + answer[:-1],
        head + "\n" + answer[:5],
        head + "\n" + answer.replace('"dim":1', '"dim":7'),
        head + "\n" + answer + "\n",
        head + "\n" + answer + "\n" + answer,
    ]
    for bad in bad_entries:
        entry.write_text(bad)
        assert run(capsys, *args) == (0, fresh), bad
        assert entry.read_text() == good, bad
    assert computes == ["ext"] * len(bad_entries)


def test_an_entry_of_another_engine_is_recomputed_in_place(
    sandbox, capsys, monkeypatch
):
    args = ("ext", "--q", "4", "--n", "9")
    monkeypatch.setattr(cli, "engine_digest", lambda: "a" * 64)
    _, cold = run(capsys, *args)
    (entry,) = (sandbox / "cache").iterdir()
    stored, inode = entry.read_bytes(), entry.stat().st_ino
    computes = _count_computes(monkeypatch, "ext")
    # the same engine: served from the entry, which is left as it is
    assert run(capsys, *args) == (0, cold)
    assert computes == []
    assert (entry.read_bytes(), entry.stat().st_ino) == (stored, inode)
    # another engine: recomputed, and its entry replaces the old one
    monkeypatch.setattr(cli, "engine_digest", lambda: "b" * 64)
    assert run(capsys, *args) == (0, cold)
    assert computes == ["ext"]
    assert list((sandbox / "cache").iterdir()) == [entry]
    assert entry.stat().st_ino != inode
    key, answer = _entry_lines(entry)
    assert key["engine"] == "b" * 64
    assert answer + "\n" == cold


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
    head, answer = entry.read_text().split("\n")
    edited = answer.replace('"dim":1', '"dim":7')
    assert edited != answer
    # an edited answer line no longer hashes to its key line's digest
    entry.write_text(head + "\n" + edited)
    assert ext() == fresh
    # a key line rehashed to the edited answer: the same source serves it
    key = {**json.loads(head), "answer": _sha256(edited)}
    entry.write_text(json.dumps(key, sort_keys=True) + "\n" + edited)
    assert json.loads(ext())["dim"] == 7
    with open(package / "refdata.py", "a") as fh:
        fh.write("# an edit\n")
    assert ext() == fresh


def test_an_edited_answer_line_under_a_matching_key_is_recomputed(
    sandbox, capsys, monkeypatch
):
    # the warm path prints the answer line unparsed: its digest guards it
    args = ("ext", "--q", "2", "--n", "6")
    run(capsys, *args)
    (entry,) = (sandbox / "cache").glob("cli_ext_*.json")
    good = entry.read_text()
    head, answer = good.split("\n")
    entry.write_text(head + "\n" + answer.replace('"dim":1', '"dim":7'))
    computes = _count_computes(monkeypatch, "ext")
    _, out = run_json(capsys, *args)
    assert out["dim"] == 1 and computes == ["ext"]
    assert entry.read_text() == good
    _, fresh = run_json(capsys, *args, "--no-cache")
    assert fresh == out


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


def test_one_argument_parser_is_built_per_process(monkeypatch):
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    # a parser tree builds one parser per command besides the top one
    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli.build_parser.cache_clear()
        try:
            parser = cli.build_parser()
        finally:
            cli.build_parser.cache_clear()
    assert built == ["cohitlab"]
    assert parser.parse_known_args(["mu", "--n", "9"])[1] == []


def test_the_help_page_lists_every_command_and_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    rows = [line.split(None, 1) for line in out.splitlines()]
    for name, command in cli.COMMANDS.items():
        assert [name, command.help] in rows, name
    (suites,) = [line for line in out.splitlines() if line.startswith("suites: ")]
    assert suites == f"suites: {', '.join(transferlab.SUITE_NAMES)}, or all"


def test_verify_suites_may_come_before_or_after_the_options(sandbox, capsys):
    before = run(capsys, "verify", "--jobs", "2", "remark26")
    after = run(capsys, "verify", "remark26", "--jobs", "2")
    assert before == after
    assert before[0] == 0 and json.loads(before[1])["passed"] is True
    code, data = run_json(capsys, "verify", "remark26", "--out", "json", "eq6")
    assert code == 0
    assert [suite["name"] for suite in data["suites"]] == ["remark26", "eq6"]


def test_a_stray_token_after_a_command_is_a_usage_error(sandbox, capsys):
    for argv in (("cohit", "--q", "2", "--n", "3", "extra"),
                 ("cohit", "extra", "--q", "2", "--n", "3"),
                 ("mu", "--n", "9", "--bogus")):
        code = cli.main(list(argv))
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), argv
        assert err.count("\n") == 1 and err.startswith(f"cohitlab {argv[0]}: "), argv
    assert not (sandbox / "cache").exists()


def test_no_package_module_imports_dataclasses():
    # dataclasses, with the inspect and ast it pulls in, was about 40% of a
    # CLI process's imports; the reports are NamedTuples instead
    package = Path(cli.__file__).parent
    modules = sorted(f"cohitlab.{p.stem}" for p in package.glob("*.py")
                     if p.stem != "__init__")
    code = (f"import sys; sys.path.insert(0, {str(package.parent)!r}); "
            f"import {', '.join(modules)}; print('dataclasses' in sys.modules)")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, timeout=60, check=True)
    assert len(modules) >= 9
    assert proc.stdout == "False\n"
