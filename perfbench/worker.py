"""One benchmark worker process: set-up, then cold or warm passes over a workload.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and ``COHITLAB_CACHE`` at a directory of its own.  The result, one JSON
object, goes to ``--out``.

Times are CPU seconds of the process that runs the work, rescaled to the
reference speed of ``speed.py``: a probe run every 20 ms measures how fast the
shared machine is running at the time, and a time is divided by the probes'
mean over their reference.  The engine is single-threaded and computes in
memory, so its CPU time is its wall time on an idle machine.  Set-up time is
the CPU time from process start, interpreter start and imports included, to
the first timed query.  A query with fewer than ``speed.MIN_PROBES`` probes
of its own is rescaled by its pass's ratio, a warm pass by its worker's.

A cold worker runs set-up, then ``--passes`` cold passes: every query of the
workload once, in the seed's order.  Each cold pass runs in a child forked
from the set-up process, so it starts from exactly the state a fresh worker
has after set-up, with an empty cache directory of its own (the first pass
uses ``COHITLAB_CACHE`` itself, which the warm workers then read).  A set-up
that costs several passes (``transfer``) is so paid once for several samples.
A warm worker repeats the warm pass, which runs only the CLI
queries the result cache serves (``workloads.CACHED_COMMANDS``), answered from
the cache the cold pass filled, until ``--seconds`` of CPU time have gone: a
pass takes 10-70 ms, too short for a speed sample of its own, so the worker
reports its probes too and ``run.py`` pools them over all warm workers.
Queries the cache does not store (``psi``, ``annihilated``, the API calls)
are left out of it: repeated in one process they would be served by the
engine's in-memory caches, which no fresh CLI call sees.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import traceback
from pathlib import Path

import speed
import workloads


def run_query(query: workloads.Query, cli_main) -> tuple[object, str | None]:
    """Run one query; return (its stdout or return value, error or None)."""
    try:
        if query.call is not None:
            return query.call(), None
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(list(query.argv))
        return buf.getvalue(), None if code == 0 else f"exit code {code}"
    except SystemExit as exc:  # argparse rejects the arguments
        return None, f"exit {exc.code}"
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def check_answer(query: workloads.Query, out, error: str | None,
                 digests) -> tuple[str | None, str | None]:
    """(problem or None, stdout digest or None) of one query's outcome."""
    digest = None
    if query.call is None and out is not None:
        digest = hashlib.sha256(out.encode()).hexdigest()
    if error is not None:
        return error, digest
    try:
        problem = query.check(out if query.call is not None else json.loads(out))
    except Exception as exc:
        return f"unreadable answer: {type(exc).__name__}: {exc}", digest
    if problem is None and digest is not None and digests is not None:
        if digest != digests.get(query.qid):
            problem = f"stdout sha256 {digest}, recorded {digests.get(query.qid)}"
    return problem, digest


def run_pass(queries, cli_main, digests, tracer=None, clock=None) -> dict:
    """Time each query, then check its answer, its digest and its exit status.

    Returns the pass's clock readings, each query's readings and its row.
    Without a running ``clock`` the times stay unscaled CPU seconds.
    """
    clock = clock or speed.SpeedClock()
    first = clock.read()
    rows, reads = [], []
    for i, query in enumerate(queries):
        if tracer is not None:
            tracer.query = i
        start = clock.read()
        out, error = run_query(query, cli_main)
        reads.append((start, clock.read()))
        problem, digest = check_answer(query, out, error, digests)
        rows.append({"qid": query.qid, "cpu_s": reads[-1][1][0] - start[0],
                     "problem": problem, "digest": digest})
    if tracer is not None:
        tracer.query = -1
    return {"reads": (first, clock.read()), "query_reads": reads, "queries": rows}


def rescale(done: dict, fallback: float | None = None) -> dict:
    """Replace a pass's clock readings by its times at the reference speed."""
    first, last = done.pop("reads")
    own = speed.ratio(first, last) if last[2] - first[2] >= speed.MIN_PROBES else None
    ratio = own or fallback or speed.ratio(first, last) or 1.0
    done["speed_ratio"] = ratio
    done["cpu_s"] = last[0] - first[0]
    done["seconds"] = done["cpu_s"] / ratio
    for row, (start, end) in zip(done["queries"], done.pop("query_reads")):
        row["seconds"] = speed.scaled(start, end, ratio)
    return done


def forked_pass(queries, cli_main, digests, tracer, cache: str, out: Path) -> dict:
    """Run one cold pass in a forked child with the given cache directory."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.environ["COHITLAB_CACHE"] = cache
            clock = speed.SpeedClock()  # a forked child has no interval timer
            clock.start()
            result = rescale(run_pass(queries, cli_main, digests, tracer, clock))
            clock.stop()
            result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if tracer is not None:
                result["trace"] = tracer.dump()
            out.write_text(json.dumps(result))
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"cold pass ended with wait status {status}")
    return json.loads(out.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--phase", choices=("cold", "warm"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="warm phase: repeat the pass for this much CPU time")
    ap.add_argument("--passes", type=int, default=1,
                    help="cold phase: forked cold passes after one set-up; "
                    "0 times the set-up alone")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--digests", type=Path, help="recorded stdout digests; "
                    "omitted when recording them")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    clock = speed.SpeedClock()
    clock.start()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    from cohitlab.cli import main as cli_main

    queries = workloads.WORKLOADS[args.workload](args.workdir)
    random.Random(args.seed).shuffle(queries)
    if args.phase == "warm":
        queries = [q for q in queries if workloads.served_by_cache(q)]
    else:
        workloads.SETUP.get(args.workload, lambda: None)()
    digests = json.loads(args.digests.read_text()) if args.digests else None
    setup = clock.read()
    setup_s = speed.scaled((0.0, 0.0, 0), setup)

    passes = []
    if args.phase == "cold":
        clock.stop()
        cache = os.environ["COHITLAB_CACHE"]
        for i in range(args.passes):
            passes.append(forked_pass(
                queries, cli_main, digests, tracer,
                cache if i == 0 else f"{cache}_pass{i}",
                args.out.with_name(f"{args.out.stem}_pass{i}.json"),
            ))
        dump = passes[0].pop("trace", None) if passes else None
    else:
        while not passes or clock.read()[0] - setup[0] < args.seconds:
            passes.append(run_pass(queries, cli_main, digests, tracer, clock))
        clock.stop()
        end = clock.read()
        passes = [rescale(p, speed.ratio(setup, end)) for p in passes]
        dump = tracer.dump() if tracer is not None else None
    result = {
        "setup_s": setup_s,
        "passes": passes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if args.phase == "warm":  # the passes' probes, for a ratio pooled over workers
        result["probe_s"], result["probes"] = end[1] - setup[1], end[2] - setup[2]
    if dump is not None:
        result["trace"] = {
            "workload": args.workload,
            "queries": [q.qid for q in queries],  # a span's query indexes this
            **dump,
        }
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
