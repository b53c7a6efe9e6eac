"""Self-tests of the benchmark harness; run with ``python3 perfbench/selftest.py``.

Each workload runs in-process at a tiny size and must pass its oracle.  A
wrong expectation, a wrong digest, a non-zero exit and an exception must each
count as a failure.  The tracer must report a missing name as absent, still
produce every per-layer metric, and give the metrics of that name as absent
(None) rather than 0.  The speed clock must probe while work runs and rescale
a time by its probes.  Exits 0 when every check holds.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import run_pass  # noqa: E402


def shrink() -> None:
    """Point every workload at its smallest degrees."""
    workloads.HIT_DEGREES = (9, 17)
    workloads.SLOW_EXT = {(4, 37), (4, 45), (4, 46)}
    workloads.D2_MAX_DEGREE = 8
    workloads.TRANSFER_SPANS = ((4, 9), (4, 17), (3, 19))
    workloads.TRANSFER_BIDEGREES = ((4, 9), (3, 19))
    workloads.GL_DEGREES = (9, 17)
    workloads.KAMEKO_DEGREES = (4, 10)


def check(cond: bool, what: str, failures: list[str]) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def main() -> int:
    from cohitlab.cli import main as cli_main

    failures: list[str] = []
    shrink()
    work = ROOT / ".perfbench_work" / f"selftest{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["COHITLAB_CACHE"] = str(work / "cache")
    try:
        for name in ("hit", "lambda", "transfer"):
            workloads.SETUP.get(name, lambda: None)()
            rows = run_pass(workloads.WORKLOADS[name](work), cli_main, None)["queries"]
            bad = [f"{r['qid']}: {r['problem']}" for r in rows if r["problem"]]
            check(rows and not bad, f"tiny {name} passes its oracle {bad}", failures)

        cohit9 = workloads._cli("cohit", "4", "9", check=workloads._expect(dim=46))
        wrong = workloads._cli("cohit", "4", "9", check=workloads._expect(dim=47))
        boom = workloads.Query("boom", call=lambda: 1 / 0)
        usage = workloads._cli("kameko", "4", "5")
        (good,) = run_pass([cohit9], cli_main, None)["queries"]
        check(good["problem"] is None, "cohit 4 9 matches dim 46", failures)
        digests = {"cohit 4 9": good["digest"]}
        rows = run_pass([cohit9, wrong, boom, usage], cli_main, digests)["queries"]
        problems = [r["problem"] for r in rows]
        check(problems[0] is None, "recorded digest accepted", failures)
        check(problems[1] is not None, "wrong expectation is a failure", failures)
        check(problems[2] is not None, "exception is a failure", failures)
        check(problems[3] is not None, "non-zero exit is a failure", failures)
        (stale,) = run_pass([cohit9], cli_main, {"cohit 4 9": "0" * 64})["queries"]
        check(stale["problem"] is not None, "wrong digest is a failure", failures)

        shutil.rmtree(work / "cache")
        from cohitlab import f2linalg, steenrod

        # install as if the engine no longer had the method, then put it back
        # untraced so that the engine still runs
        transpose = f2linalg.BitMatrix.transpose
        del f2linalg.BitMatrix.transpose
        tracer = tracing.Tracer()
        try:
            tracer.install()
        finally:
            f2linalg.BitMatrix.transpose = transpose
        check(tracer.absent == ["f2linalg.BitMatrix.transpose"],
              f"missing name reported absent {tracer.absent}", failures)

        steenrod.clear_cache()
        rows = run_pass(workloads.WORKLOADS["hit"](work), cli_main, None, tracer)["queries"]
        check(all(r["problem"] is None for r in rows), "traced tiny hit passes", failures)
        metrics = tracing.layer_metrics(tracer.dump(), tracer.dump())
        metrics.update({"cohit.cache_files": 0, "cohit.cache_bytes": 0,
                        "trace.overhead": 0.0})
        check(set(metrics) == set(tracing.LAYER_UNITS), "every layer metric", failures)
        absent = sorted(m for m, v in metrics.items() if v is None)
        check(absent == ["f2linalg.transpose_cells", "f2linalg.transpose_s"],
              f"metrics of the missing name are absent, not 0 {absent}", failures)
        check(metrics["steenrod.rows_offered"] >= metrics["steenrod.rank"] > 0,
              "hit span rows offered >= rank > 0", failures)

        clock = speed.SpeedClock()
        clock.start()
        try:
            start = clock.read()
            while clock.read()[0] - start[0] < 0.6:
                speed.probe()
            end = clock.read()
        finally:
            clock.stop()
        ratio = speed.ratio(start, end)
        check(end[2] - start[2] >= speed.MIN_PROBES and 0.2 < ratio < 5,
              f"speed probes ran {end[2] - start[2]} times, ratio {ratio}", failures)
        check(speed.scaled(start, end) == (end[0] - start[0]) / ratio,
              "a time is rescaled by its own probes", failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
