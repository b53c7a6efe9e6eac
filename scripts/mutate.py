"""Run the mutation table: each row breaks the engine one way, and its tests
must notice.

Example:
    python3 scripts/mutate.py

A row names a file under ``src/`` or ``tests/``, an old text that must occur
in it exactly once, the new text that replaces it, any further such pairs
for the same file, and the test node ids that must fail.  For each row,
``src/`` and ``tests/`` are copied to a temporary directory (every other
top-level entry is linked, for the tests that read the README or the
benchmark's tracer), the row is applied there, and ``pytest -x`` runs the
node ids in a subprocess under a 2 GB address space limit and a timeout.  A
row is *caught* when a named test fails, *stale* when one of its old texts
does not occur exactly once or pytest finds no named test, and *survived*
otherwise, a timeout included.  First the named tests must all pass
unmutated, or no row can be judged.  The run exits 0 only when every row is
caught: a row whose code moved must be updated, not dropped.
"""

from __future__ import annotations

import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# left out of the temporary tree: git's store, and the state that test and
# benchmark runs write, so that no run writes into the repository
UNLINKED = {".git", ".hypothesis", ".pytest_cache", ".cohitlab", ".perfbench_work"}
MEMORY_BYTES = 2 << 30  # RLIMIT_AS of each pytest run
TIMEOUT_S = 120  # per pytest run


class Mutation(NamedTuple):
    name: str
    file: str  # relative to the repository root, under src/ or tests/
    old: str  # must occur exactly once
    new: str
    tests: tuple[str, ...]  # node ids, one of which must fail
    also: tuple[tuple[str, str], ...] = ()  # more (old, new) edits to the file

    def edits(self) -> tuple[tuple[str, str], ...]:
        return ((self.old, self.new), *self.also)


LAMBDA = "src/cohitlab/lambda_algebra.py"
STEENROD = "src/cohitlab/steenrod.py"
F2LINALG = "src/cohitlab/f2linalg.py"
F2LINALG_TESTS = "tests/test_f2linalg.py"
TRANSFERLAB = "src/cohitlab/transferlab.py"
TRANSFERLAB_TESTS = "tests/test_transferlab.py"
CLI = "tests/test_cli.py"
LAMBDA_TESTS = "tests/test_lambda.py"
PRIMITIVE_PSI = (f"{LAMBDA_TESTS}::test_psi_of_a_primitive_reads_only_"
                 "first_exponents_two_to_the_i_minus_one",)
SQ0 = ("tests/test_properties.py::test_psi_commutes_with_sq0",)
BELOW_BOUND = ("tests/test_steenrod.py::test_plane_by_plane_below_bound_equals_"
               "the_weight_filter",)
SPIKE_FREE = (f"{CLI}::test_a_spike_free_degree_past_the_column_budget_answers_zero",)

MUTATIONS = (
    # psi of a primitive reads the first exponents 2^i - 1 only
    Mutation("psi split admits k = 2", LAMBDA,
             "        if not (k + 1) & k:\n",
             "        if not (k + 1) & k or k == 2:\n", PRIMITIVE_PSI),
    Mutation("psi split drops k = 0", LAMBDA,
             "        if not (k + 1) & k:\n",
             "        if k and not (k + 1) & k:\n", PRIMITIVE_PSI),
    # the letters psi writes
    Mutation("psi(a^(j)) is l_(j + 1)", LAMBDA,
             "return {j + 1 for (j,) in terms}",
             "return {j + 2 for (j,) in terms}", SQ0),
    Mutation("psi's leading letter shifted by one at q = 2", LAMBDA,
             "_times(k, _psi_words(q - 1, bucket), words)",
             "_times(k + (q == 2), _psi_words(q - 1, bucket), words)", SQ0),
    Mutation("psi's leading letter shifted by one for k > 6", LAMBDA,
             "_times(k, _psi_words(q - 1, bucket), words)",
             "_times(k + (k > 6), _psi_words(q - 1, bucket), words)", SQ0),
    # the plane-by-plane weight test of a monomial off the columns
    Mutation("_below_bound returns w > b", STEENROD,
             "                return w < b\n",
             "                return w > b\n", BELOW_BOUND),
    Mutation("_below_bound returns True on a tie", STEENROD,
             "                return w < b\n        return False\n",
             "                return w < b\n        return True\n", BELOW_BOUND),
    # one elimination with tags: image_kernel; solve_modulo is one call to it
    Mutation("image_kernel starts a tag at 0", F2LINALG,
             "        tag = 1 << i\n", "        tag = 0\n",
             (f"{F2LINALG_TESTS}::test_image_kernel_of_dependent_images",)),
    Mutation("solve_modulo reads its coefficients at offset 0", F2LINALG,
             "kernel[-1] >> len(modulus) + i & 1", "kernel[-1] >> i & 1",
             (f"{F2LINALG_TESTS}::test_solve_modulo_small",)),
    # the homology echelon keeps rows only: its tags are the t lowest columns
    Mutation("t is one short", LAMBDA,
             "    t = len(kernel) - ech.rank\n", "    t = len(kernel) - ech.rank - 1\n",
             (f"{LAMBDA_TESTS}::test_ext_dim_known_classes",)),
    Mutation("no check that t cycles are kept", LAMBDA,
             "            if len(cycles) == t:", "            if False:",
             (f"{LAMBDA_TESTS}::test_more_cycles_than_dim_ext_raise",)),
    Mutation("homology_coordinates drops its escape check", LAMBDA,
             "    if tag >> len(cycles):\n", "    if False:\n",
             (f"{LAMBDA_TESTS}::test_a_cycle_escaping_the_homology_echelon_raises",)),
    Mutation("normal_form ignores index", F2LINALG,
             "out |= 1 << index[p]", "out |= row",
             (f"{F2LINALG_TESTS}::test_indexed_normal_form_reads_the_"
              "free_coordinates",)),
    Mutation("a dead public name comes back", STEENROD,
             "    def dual_terms(self, bits: int) -> list[list[int]]:\n",
             "    def to_dual(self, bits: int) -> DualElement:\n"
             "        return DualElement(self.q, self.dual_terms(bits))\n\n"
             "    def dual_terms(self, bits: int) -> list[list[int]]:\n",
             ("tests/test_source.py::test_every_public_name_has_a_caller",)),
    # every budget, its check removed
    Mutation("no column budget", "src/cohitlab/cohit.py",
             "    if cols > MAX_COLUMNS:\n", "    if False:\n", SPIKE_FREE),
    Mutation("live_monomials drops the spike-free guard", STEENROD,
             "    if bound and bound[0] > q:\n        return []\n", "",
             ("tests/test_cohit.py::test_a_spike_free_degree_lists_no_weight_vector",)),
    Mutation("no letter cap", LAMBDA,
             "    if length > 0 and degree > MAX_LETTER:\n", "    if False:\n",
             (f"{CLI}::test_ext_and_psi_refuse_letters_above_the_cap",)),
    Mutation("no psi word budget", LAMBDA,
             "    cohit.check_columns(q, n)\n", "",
             (f"{CLI}::test_psi_budget_refuses_before_building_a_word",)),
    Mutation("no rewrite budget", LAMBDA,
             "        if _rewrite_count > MAX_REWRITES:\n", "        if False:\n",
             (f"{CLI}::test_rewrite_budget_exit_code",)),
    Mutation("no recursion guard", LAMBDA,
             "    if depth > sys.getrecursionlimit():\n", "    if False:\n",
             (f"{CLI}::test_ext_refuses_words_too_long_to_recurse",)),
    # the count reads the listing's rule: a tail's first index is at least
    # (j + 1) // 2, and a length-1 word is its one letter
    Mutation("the count's tail bound is j // 2", LAMBDA,
             "                least = (lo + 1) // 2\n",
             "                least = lo // 2\n",
             (f"{LAMBDA_TESTS}::test_admissible_count_is_the_basis_size",)),
    Mutation("the count has no word of length 1", LAMBDA,
             "tables[0].append([1] * (r + 1) + [0])", "tables[0].append([0] * (r + 2))",
             (f"{LAMBDA_TESTS}::test_admissible_count_is_the_basis_size",)),
    Mutation("no ext admissible-word budget", LAMBDA,
             "        if compositions > cap and admissible_count(length, degree, cap) > cap:\n",
             "        if False:\n", SPIKE_FREE),
    # every homology call is admitted where its maps are built
    Mutation("_homology admits nothing", LAMBDA,
             "    _admit(s, n)\n    ech = echelonize(", "    ech = echelonize(",
             (f"{LAMBDA_TESTS}::test_every_homology_call_is_admitted_where_the_maps_"
              "are_built",
              f"{CLI}::test_transfer_refuses_under_the_ext_word_budget")),
    # every element is admissible: the constructor reduces what it is given
    Mutation("the constructor stores inadmissible words unreduced", LAMBDA,
             "            words = _reduce(words)\n", "",
             (f"{LAMBDA_TESTS}::test_constructor_packs_and_flags_words_like_the_"
              "reference",)),
    # the lambda memos: tail differentials as tuples, words joined from tails
    Mutation("the tail bound is one letter high", LAMBDA,
             "bisect_left(tails, (j + 1) // 2 + 1,",
             "bisect_left(tails, (j + 1) // 2 + 2,",
             (f"{LAMBDA_TESTS}::test_admissible_basis_matches_brute_force_with_the_"
              "feasibility_cut",)),
    Mutation("several tails are summed with no cancelling", LAMBDA,
             "below.symmetric_difference_update(_D[u])", "below.update(_D[u])",
             (f"{LAMBDA_TESTS}::test_grouped_differential_matches_the_per_word_"
              "reference",)),
    Mutation("clear_caches skips the word table", LAMBDA,
             "    _admissible_words.cache_clear()\n", "",
             (f"{LAMBDA_TESTS}::test_clear_caches_empties_every_lambda_memo",)),
    Mutation("a memo hit is returned as its bare tuple", LAMBDA,
             "return LambdaElement._trusted(frozenset(d))",
             "return LambdaElement._trusted(d)",
             (f"{LAMBDA_TESTS}::test_differential_reads_a_memoized_word_and_stores_"
              "no_new_one",)),
    # one-step Adem products come from the pair table, deep ones recurse;
    # every left product is counted on every use
    Mutation("every product is treated as shallow", LAMBDA,
             "        if (r & MASK) >= low or not r:\n", "        if True:\n",
             (f"{LAMBDA_TESTS}::test_left_product_matches_the_reference_rewriting",)),
    Mutation("shallow products are not charged to the budget", LAMBDA,
             "            r <<= 2 * WIDTH\n",
             "            products -= 1\n            r <<= 2 * WIDTH\n",
             (f"{LAMBDA_TESTS}::test_a_shallow_product_counts_on_every_use",)),
    Mutation("deep products are not charged", LAMBDA,
             "        else:\n            for t in terms:\n",
             "        else:\n            products -= 1\n            for t in terms:\n",
             (f"{LAMBDA_TESTS}::test_a_deep_product_counts_on_every_use",)),
    # one value, one form
    Mutation("transfer matrix printed bit k last", TRANSFERLAB,
             '"matrix": [[row >> k & 1 for k in range(self.codomain_dim)]',
             '"matrix": [[row >> self.codomain_dim - 1 - k & 1 '
             "for k in range(self.codomain_dim)]",
             (f"{TRANSFERLAB_TESTS}::test_matrix_rows_are_bit_vectors_"
              "printed_bit_zero_first",)),
    # every verify helper can fail: one fixed-point check, one kernel check
    Mutation("the fixed-point check accepts any nonzero dimension", TRANSFERLAB,
             "    if report.dim != 1:\n", "    if not report.dim:\n",
             (f"{TRANSFERLAB_TESTS}::test_fixed_points_of_two_dimensions_are_not_"
              "generated_by_one_class",)),
    Mutation("the halving-kernel check returns True without testing membership",
             TRANSFERLAB,
             "    return not any(ech.reduce(v) for v in frozen)\n", "    return True\n",
             (f"{TRANSFERLAB_TESTS}::test_a_class_outside_the_halving_kernel_fails_"
              "the_kernel_check",)),
    Mutation("class_coordinates reads no quotient index", "src/cohitlab/glaction.py",
             "primitive_coordinates(theta),\n"
             "                                          self._quotient_index)",
             "primitive_coordinates(theta))",
             ("tests/test_glaction.py::test_representatives_have_unit_coordinates",)),
    Mutation("dual_terms out of the printed order", STEENROD,
             "return [list(self.columns[p]) for p in support(bits)]",
             "return [list(self.columns[p]) for p in support(bits)[::-1]]",
             ("tests/test_steenrod.py::test_primitive_k_is_dual_to_basis_monomial_k",)),
    Mutation("the span build tests each row with reduce first", STEENROD,
             "            if not self.echelon.add(row):\n"
             "                continue  # the whole orbit lies in the span already\n",
             "            if not self.echelon.reduce(row):\n"
             "                continue  # the whole orbit lies in the span already\n"
             "            self.echelon.add(row)\n",
             ("tests/test_steenrod.py::test_the_build_offers_each_orbit_row_with_one_add",)),
    # each orbit's bookkeeping done once: column-orbit tables, coset tables,
    # and the submasks of a lane walked up to the degree left only
    Mutation("the orbit table is read at the wrong permutation index", STEENROD,
             "from_support([table[k] for table in tables])",
             "from_support([table[k - 1] for table in tables])",
             ("tests/test_steenrod.py::test_orbit_build_equals_the_per_row_reference",)),
    Mutation("the coset table keeps the identity", STEENROD,
             "    del images[g]\n", "",
             ("tests/test_steenrod.py::test_the_coset_table_lists_each_distinct_image_"
              "once",)),
    Mutation("the submask slice runs one past r", STEENROD,
             "subs[:bisect_right(subs, r)]", "subs[:bisect_right(subs, r) + 1]",
             ("tests/test_steenrod.py::test_the_submask_walk_stops_at_the_degree_left",)),
    Mutation("homology_coordinates checks the cycle before admitting", LAMBDA,
             "        _admit(s, n)\n        if not is_cycle(el):\n"
             "            raise ValueError(\"element is not a cycle\")\n",
             "        if not is_cycle(el):\n"
             "            raise ValueError(\"element is not a cycle\")\n"
             "        _admit(s, n)\n",
             (f"{LAMBDA_TESTS}::test_homology_queries_admit_before_they_differentiate",)),
    Mutation("classes_equal takes its bidegree from the left side only", LAMBDA,
             "    el = y if x.is_zero() else x\n", "    el = x\n",
             (f"{LAMBDA_TESTS}::test_homology_queries_admit_before_they_differentiate",)),
    # one bidegree and one word index per lambda bidegree
    Mutation("bidegree reports the length one short", LAMBDA,
             "            return len(word), sum(word)\n",
             "            return len(word) - 1, sum(word)\n",
             (f"{LAMBDA_TESTS}::test_bidegree_is_the_length_and_index_sum_of_the_"
              "words",)),
    Mutation("_vector drops its unknown-word check", LAMBDA,
             "        if i is None:\n", "        if False:\n",
             (f"{LAMBDA_TESTS}::test_coordinates_reject_words_outside_the_"
              "admissible_basis",)),
    Mutation("_images reads its source words from the target's index", LAMBDA,
             "    for w in _admissible_words(s, n):\n        yield _vector(target,",
             "    for w in target:\n        yield _vector(target,",
             (f"{LAMBDA_TESTS}::test_homology_matches_kernel_minus_boundary_rank",)),
    Mutation("weight_table drops its weight-count comparison", "src/cohitlab/cohit.py",
             "    if weights > MAX_COLUMNS:\n", "    if False:\n",
             (f"{CLI}::test_a_weight_table_past_the_budget_refuses_before_listing_"
              "a_weight",)),
    # one parser: a leftover token is a suite of verify, or a usage error
    Mutation("a stray token after a command is ignored", "src/cohitlab/cli.py",
             '        if extra and args.command != "verify":\n',
             "        if False:\n",
             (f"{CLI}::test_a_stray_token_after_a_command_is_a_usage_error",)),
    # a warm hit prints the stored answer line unparsed: its key line guards it
    Mutation("cache_fetch skips the answer digest", "src/cohitlab/cli.py",
             '    if stored.pop("answer", None) != hashlib.sha256(answer).hexdigest():\n',
             '    if stored.pop("answer", None) is None:\n',
             (f"{CLI}::test_an_edited_answer_line_under_a_matching_key_is_recomputed",)),
    Mutation("cache_fetch ignores the engine digest", "src/cohitlab/cli.py",
             '    if stored != {**key, "op": op, "engine": engine_digest()}:\n',
             '    if stored != {**key, "op": op, "engine": stored.get("engine")}:\n',
             (f"{CLI}::test_an_entry_of_another_engine_is_recomputed_in_place",)),
    Mutation("no annihilated budget", "src/cohitlab/cli.py",
             "    cohit.check_columns(element.q, element.degree or 0)"
             "  # before any square\n", "",
             (f"{CLI}::test_annihilated_budget_refuses_before_building_a_square",)),
    # the reports are NamedTuples, and no package module imports dataclasses
    Mutation("every suite report shares one default checks list", TRANSFERLAB,
             "    checks: list[CheckResult]  #", "    checks: list[CheckResult] = []  #",
             (f"{TRANSFERLAB_TESTS}::test_suites_run_serially_each_hold_only_"
              "their_own_checks",),
             also=(("SuiteReport(name, [])", "SuiteReport(name)"),)),
    Mutation("a package module imports dataclasses", "src/cohitlab/cohit.py",
             "from collections import Counter\n",
             "from collections import Counter\nfrom dataclasses import dataclass\n",
             (f"{CLI}::test_no_package_module_imports_dataclasses",)),
    # one Lucas table, _dual_steps, for the dual squares, the Adem pairs, d(l_m)
    # and the annihilation test; one composition enumerator for act_dual
    Mutation("_dual_steps stops one short", STEENROD,
             "    return tuple(d for d in range(e // 2 + 1) if binom_odd(e - d, d))\n",
             "    return tuple(d for d in range(e // 2) if binom_odd(e - d, d))\n",
             ("tests/test_steenrod.py::test_sq_dual_equals_the_recursive_reference",
              f"{LAMBDA_TESTS}::test_adem_pair_fixture_cases")),
    Mutation("is_annihilated skips t = 1", STEENROD,
             "            if t and not t & (t - 1):\n",
             "            if t > 1 and not t & (t - 1):\n",
             ("tests/test_steenrod.py::test_is_annihilated_examples",)),
    Mutation("_d_generator keeps j = 0", LAMBDA,
             "for j in _dual_steps(m) if j)", "for j in _dual_steps(m))",
             (f"{LAMBDA_TESTS}::test_differential_of_generators",
              f"{LAMBDA_TESTS}::test_d_generator_equals_its_binomial_sum")),
    Mutation("adem_pair reads the steps of a - 2b - 1", LAMBDA,
             "    steps = _dual_steps(a - 2 * b - 2)\n",
             "    steps = _dual_steps(a - 2 * b - 1)\n",
             (f"{LAMBDA_TESTS}::test_adem_pair_fixture_cases",
              f"{LAMBDA_TESTS}::test_adem_pair_equals_its_binomial_sum")),
    Mutation("_dual_subst_term drops the last composition", "src/cohitlab/glaction.py",
             "            for comp in comps:\n", "            for comp in comps[:-1]:\n",
             ("tests/test_glaction.py::test_relations_match_the_divided_power_action",)),
    Mutation("lambda_algebra imports binom_odd again", LAMBDA,
             "from .steenrod import _dual_steps, sq_dual_all\n",
             "from .steenrod import _dual_steps, binom_odd, sq_dual_all\n",
             ("tests/test_source.py::test_the_package_imports_no_name_it_never_reads",)),
)


@contextmanager
def _tree():
    """A temporary tree: ``src/`` and ``tests/`` copied, every other entry
    of the repository linked."""
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        root = Path(tmp)
        for entry in ROOT.iterdir():
            if entry.name in ("src", "tests"):
                shutil.copytree(entry, root / entry.name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            elif entry.name not in UNLINKED:
                (root / entry.name).symlink_to(entry)
        yield root


def apply(root: Path, row: Mutation) -> bool:
    """Apply the row to the tree at root; False, changing nothing, when its
    old text does not occur exactly once in a file of the copied folders
    (any other file is linked to the repository's own)."""
    path = root / row.file
    copied = row.file.startswith(("src/", "tests/")) and path.is_file()
    text = path.read_text() if copied else ""
    for old, new in row.edits():
        if text.count(old) != 1:
            return False
        text = text.replace(old, new)
    path.write_text(text)
    return True


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def _pytest(root: Path, tests: tuple[str, ...]) -> int | None:
    """pytest's exit code on the node ids in the tree at root, None on timeout."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"),
           "PYTHONDONTWRITEBYTECODE": "1", "COHITLAB_CACHE": str(root / ".cache")}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            *tests]
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, preexec_fn=_limit_memory,
                            start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the tests' own subprocesses too
        proc.wait()
        return None


def run(row: Mutation) -> str:
    """caught, survived or stale: the verdict on one row."""
    with _tree() as root:
        if not apply(root, row):
            return "stale"
        code = _pytest(root, row.tests)
    if code in (4, 5):  # a node id pytest cannot find, or no test collected
        return "stale"
    return "caught" if code == 1 else "survived"


def main() -> int:
    tests = tuple(dict.fromkeys(t for row in MUTATIONS for t in row.tests))
    with _tree() as root:
        code = _pytest(root, tests)
    print(f"unmutated: pytest exits {code} on the named tests", flush=True)
    if code != 0:
        return 1
    missed = 0
    for row in MUTATIONS:
        start = time.perf_counter()
        status = run(row)
        missed += status != "caught"
        print(f"{status:<8} {time.perf_counter() - start:6.1f} s  {row.name}",
              flush=True)
    print(f"{len(MUTATIONS) - missed} of {len(MUTATIONS)} caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
