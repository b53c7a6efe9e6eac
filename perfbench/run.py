"""cohitlab benchmark: the command that runs one workload and prints its metrics.

    python3 perfbench/run.py --workload hit|lambda|transfer [--seed N]
        [--seconds S] [--trace 0|1]

Run from the root of a checkout; the engine is imported from its ``src``.
Every worker is a fresh process (``worker.py``); each cold pass gets an empty
cache directory of its own under ``.perfbench_work/``, which is removed
afterwards.

``--trace 0`` runs the cold workers of ``COLD_RUNS``, each a fresh process
that sets up once and then runs its cold passes, plus workers that only set
up.  The cold workers are followed, in equal shares, by ``WARM_WORKERS``
fresh warm workers, one after another, each repeating the warm pass for
``WARM_SECONDS`` against the first cold worker's filled cache.  Every time is
CPU seconds rescaled to a reference machine speed, which probes run all
through the work measure (``speed.py``): the shared machine's speed drifts by
a quarter and more within minutes.  It prints the end-to-end metrics: medians
over the set-ups and cold passes, and the mean warm pass, rescaled by the
probes of all warm workers together.  ``--trace 1`` runs one untraced cold
worker, one traced cold worker and one traced warm worker, and prints the
per-layer metrics from the traced spans (wall time) plus ``trace.overhead``;
a metric made of a traced name the engine no longer has is printed as
``null``, after an ``absent NAME`` line.  The amount of work is fixed, so
``--seconds`` does not change what runs: it is the run length
``BENCHMARK.json`` declares.

Every answer is checked against the frozen tables and the recorded stdout
digests (``digests.json``); a wrong answer, an exception or a non-zero exit
counts in ``failed``.  The committed ``.cohitlab/`` must be byte-identical
afterwards.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
machine, the seed, the speed ratios the probes measured and the time of every
query, rescaled and raw.

``--workload baseline`` times ``cohit`` and ``ext`` at (4, 45) and (4, 46),
the ROADMAP baseline rows, in one cold worker with no warm pass and a timeout
of its own (``BASELINE_TIMEOUT_S``); it takes minutes.  ``--record-digests``
runs one cold pass without digest checks and stores the digests of its correct
answers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import speed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"
WORKER_TIMEOUT_S = 170
BASELINE_TIMEOUT_S = 900
# workload -> (cold workers, cold passes per worker, set-ups in all).  A
# transfer set-up costs about four of its passes, so it gets more passes per
# set-up; a hit or lambda set-up takes 0.2 s and spreads by a sixth from one
# to the next, so workers that only set up add to the cold workers' set-ups
COLD_RUNS = {"hit": (2, 1, 8), "lambda": (2, 1, 8), "transfer": (2, 2, 2)}
WARM_WORKERS = 4  # in all
WARM_SECONDS = 0.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "slowest_query_s": "s",
    "warm_pass_s": "s",
    "peak_rss_mb": "MB",
    "queries": "count",
}


def machine() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"nproc={os.cpu_count()} python={platform.python_version()} cpu={cpu!r}"


def tree_digest(path: Path) -> str:
    """SHA-256 over the names and bytes of every file below path."""
    h = hashlib.sha256()
    if path.exists():
        for f in sorted(p for p in path.rglob("*") if p.is_file()):
            h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


class Runner:
    """Starts workers for one workload inside a private work directory."""

    def __init__(self, workdir: Path, workload: str, seed: int, record: bool):
        self.workdir = workdir
        self.workload = workload
        self.seed = seed
        self.record = record
        self.count = 0

    def fresh_cache(self) -> Path:
        self.count += 1
        cache = self.workdir / f"cache{self.count}"
        cache.mkdir()
        return cache

    def spawn(self, phase: str, cache: Path, trace: int = 0, seconds: float = 0,
              passes: int = 1, timeout: float = WORKER_TIMEOUT_S) -> dict:
        self.count += 1
        out = self.workdir / f"{phase}{self.count}.json"
        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--phase", phase, "--seconds", str(seconds), "--passes", str(passes),
            "--workdir", str(self.workdir), "--trace", str(trace),
            "--out", str(out),
        ]
        if not self.record:
            cmd += ["--digests", str(DIGESTS)]
        env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            COHITLAB_CACHE=str(cache),
            PYTHONDONTWRITEBYTECODE="1",
        )
        proc = subprocess.run(cmd, env=env, cwd=self.workdir, stdout=sys.stderr,
                              timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"{phase} worker exited with code {proc.returncode}")
        return json.loads(out.read_text())


def rows_of(results: list[dict]) -> list[dict]:
    return [row for r in results for p in r["passes"] for row in p["queries"]]


def cold_queries(result: dict) -> list[dict]:
    return result["passes"][0]["queries"]


def end_to_end(runner: Runner) -> tuple[dict, list, list]:
    cold, warm, filled = [], [], None
    workers, passes, setups = COLD_RUNS[runner.workload]
    for _ in range(workers):
        cache = runner.fresh_cache()
        cold.append(runner.spawn("cold", cache, passes=passes))
        for _ in range((setups - workers) // workers):
            cold.append(runner.spawn("cold", runner.fresh_cache(), passes=0))
        # warm workers alternate with cold ones, so that both sample the
        # machine over the whole run; all read the first cold worker's cache
        filled = filled or cache
        for _ in range(WARM_WORKERS // workers):
            warm.append(runner.spawn("warm", filled, seconds=WARM_SECONDS))
    metrics = cold_metrics(cold)
    # one ratio pooled over the warm workers: a worker's few probes spread
    # wider than the machine's speed does in the seconds they all take
    pooled = speed.ratio((0.0, 0.0, 0), (0.0, sum(r["probe_s"] for r in warm),
                                         sum(r["probes"] for r in warm)))
    warm_passes = [p for r in warm for p in r["passes"]]
    metrics["warm_pass_s"] = (
        sum(p["cpu_s"] for p in warm_passes) / len(warm_passes) / pooled
    )
    return metrics, cold, warm


def cold_metrics(cold: list[dict]) -> dict:
    passes = [p for r in cold for p in r["passes"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in cold),
        "pass_s": statistics.median(p["seconds"] for p in passes),
        "slowest_query_s": statistics.median(
            max(q["seconds"] for q in p["queries"]) for p in passes
        ),
        # a pass's peak: its own, or the set-up's it was forked from
        "peak_rss_mb": statistics.median(
            max(r["maxrss_kb"], p["maxrss_kb"]) / 1024 for r in cold for p in r["passes"]
        ),
        "queries": len(passes[0]["queries"]),
    }


def baseline(runner: Runner) -> tuple[dict, list, list]:
    """One cold worker over the baseline rows; there is no warm pass."""
    cold = [runner.spawn("cold", runner.fresh_cache(), timeout=BASELINE_TIMEOUT_S)]
    return cold_metrics(cold), cold, []


def traced(runner: Runner) -> tuple[dict, list, list, list[str]]:
    plain = runner.spawn("cold", runner.fresh_cache())
    cache = runner.fresh_cache()
    cold = runner.spawn("cold", cache, trace=1)
    engine_files = list(cache.glob("q*_n*.json"))
    warm = runner.spawn("warm", cache, trace=1)
    problems = []
    hits, fetches = tracing.cache_hits(cold["trace"])
    if hits:
        problems.append(f"cold pass read {hits} of {fetches} answers from the cache")
    metrics = tracing.layer_metrics(cold["trace"], warm["trace"])
    metrics["cohit.cache_files"] = len(engine_files)
    metrics["cohit.cache_bytes"] = sum(f.stat().st_size for f in engine_files)
    metrics["trace.overhead"] = (
        cold["passes"][0]["seconds"] / plain["passes"][0]["seconds"] - 1
    )
    for name in cold["trace"]["absent"]:
        print(f"absent {name}")
    return metrics, [plain, cold], [warm], problems


def record_digests(runner: Runner) -> int:
    result = runner.spawn("cold", runner.fresh_cache())
    rows = cold_queries(result)
    bad = [r for r in rows if r["problem"] is not None]
    for r in bad:
        print(f"FAIL {r['qid']}: {r['problem']}")
    if bad:
        return 1
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    new = {r["qid"]: r["digest"] for r in rows if r["digest"] is not None}
    DIGESTS.write_text(json.dumps({**digests, **new}, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(new)} digests for {runner.workload} in {DIGESTS}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True,
                    choices=("hit", "lambda", "transfer", "baseline"))
    ap.add_argument("--seed", type=int, default=0, help="permutes query order")
    ap.add_argument("--seconds", type=float, default=40,
                    help="declared run length; the work done is fixed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cohitlab" / "cli.py").is_file():
        print(f"no cohitlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.record_digests and not DIGESTS.is_file():
        print(f"missing {DIGESTS}", file=sys.stderr)
        return 2

    committed_cache = ROOT / ".cohitlab"
    cache_before = tree_digest(committed_cache)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workdir, args.workload, args.seed, args.record_digests)
        if args.record_digests:
            return record_digests(runner)
        problems = []
        if args.trace:
            metrics, cold, warm, problems = traced(runner)
            units = tracing.LAYER_UNITS
        elif args.workload == "baseline":
            metrics, cold, warm = baseline(runner)
            units = END_TO_END_UNITS
        else:
            metrics, cold, warm = end_to_end(runner)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    if tree_digest(committed_cache) != cache_before:
        problems.append(f"{committed_cache} changed during the run")

    rows = rows_of(cold) + rows_of(warm)
    failed = [r for r in rows if r["problem"] is not None]
    print(f"machine {machine()}")
    print(f"workload {args.workload} seed {args.seed} cold_workers {len(cold)} "
          f"cold_passes {sum(len(r['passes']) for r in cold)} "
          f"warm_passes {sum(len(r['passes']) for r in warm)}")
    for kind, results in (("cold", cold), ("warm", warm)):
        ratios = [p["speed_ratio"] for r in results for p in r["passes"]]
        if ratios:
            print(f"{kind} speed_ratio median {statistics.median(ratios):.3f} "
                  f"min {min(ratios):.3f} max {max(ratios):.3f}")
    for qid in [r["qid"] for r in cold_queries(cold[0])]:
        runs = [r for c in cold for p in c["passes"] for r in p["queries"]
                if r["qid"] == qid]
        print(f"query {qid!r} cold_s {statistics.median(r['seconds'] for r in runs):.4f} "
              f"cpu_s {statistics.median(r['cpu_s'] for r in runs):.4f}")
    for r in failed:
        print(f"FAIL {r['qid']}: {r['problem']}")
    for p in problems:
        print(f"FAIL {p}")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(rows),
        "failed": len(failed) + len(problems),
        "metrics": {
            k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
