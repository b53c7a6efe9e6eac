"""Spans recorded from outside the engine, and the per-layer metrics made of them.

``Tracer.install`` replaces each public function or method named in
``TARGETS`` by a wrapper that records one span per call: name, start, end,
parent span and the query being run.  A function is rebound in every loaded
``cohitlab`` module that holds it, so ``steenrod.enumerate_monomials`` and
``transferlab.psi`` are traced as well as the definitions.  A name that no
longer exists is reported absent instead of failing the run.  A few targets
also record counts, read from their return values and public attributes.

Spans stay in memory until ``dump``; ``layer_metrics`` turns dumped spans into
the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _hit_span_counts(args, out):
    span = args[0]
    return {"ncols": span.ncols, "rank": span.rank}


def _coinvariant_counts(args, out):
    from cohitlab.glaction import generator_images

    data = args[0]
    rows = data.primitive_dim * len(generator_images(data.q, data.group))
    return {"relation_rows": rows, "relation_rank": data.relations.rank}


def _ext_counts(args, out):
    from cohitlab import lambda_algebra

    # ``__wrapped__`` is the untraced, memoized original: no new spans or work
    basis = getattr(lambda_algebra.admissible_basis, "__wrapped__",
                    lambda_algebra.admissible_basis)
    s, n = args[0], args[1]
    return {"cells": len(basis(s, n)) * len(basis(s + 1, n - 1))}


# module.attribute[.method] -> function giving counts from (args, result)
TARGETS = {
    "polyspace.enumerate_monomials": lambda a, out: {"monomials": len(out)},
    "steenrod.HitSpan.__init__": _hit_span_counts,
    "f2linalg.EchelonForm.add": None,
    "f2linalg.EchelonForm.normal_form": None,
    "f2linalg.EchelonForm.kernel_basis": lambda a, out: {"vectors": len(out)},
    "f2linalg.BitMatrix.transpose": lambda a, out: {
        "cells": len(a[0].rows) * a[0].ncols
    },
    "f2linalg.echelonize": None,
    "f2linalg.solve_modulo": None,
    "cohit.span_for": None,
    "cohit.quotient": None,
    "cohit.cohit_basis": None,
    "cohit.cohit_dim": None,
    "cohit.weight_table": None,
    "cohit.weight_subquotient": None,
    "cohit.kameko_matrix": None,
    "glaction.substitute": None,
    "glaction.act_dual": None,
    "glaction.invariants": None,
    "glaction.CoinvariantData.__init__": _coinvariant_counts,
    "glaction.kameko_kernel_invariants": None,
    "lambda_algebra.admissible_basis": None,
    "lambda_algebra.differential": None,
    "lambda_algebra.adem_reduce": None,
    "lambda_algebra.ext_dim": _ext_counts,
    "lambda_algebra.homology_coordinates": None,
    "lambda_algebra.psi": None,
    "transferlab.verdict": None,
    "cli.cache_fetch": lambda a, out: {"hit": int(out is not None)},
    "cli.cache_put": None,
    "cli.emit": None,
}


class Tracer:
    """In-memory span recorder; one per traced worker process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # span = (name index, start ns, end ns, parent span, query, outermost)
        self.spans: list[tuple] = []
        self.counts: dict[int, dict] = {}
        self.absent: list[str] = []
        self.query = -1  # index into the pass's query list; -1 is set-up
        self._stack = [-1]
        self._depth: list[int] = []

    def install(self, targets=TARGETS) -> None:
        for name, counter in targets.items():
            module_name, _, attr_path = name.partition(".")
            try:
                module = importlib.import_module(f"cohitlab.{module_name}")
                owner, attr = module, attr_path
                if "." in attr_path:
                    cls_name, attr = attr_path.split(".")
                    owner = getattr(module, cls_name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            traced = self._wrap(name, original, counter)
            if owner is module:
                for mod in list(sys.modules.values()):
                    mod_name = getattr(mod, "__name__", "")
                    if mod_name.startswith("cohitlab") and mod.__dict__.get(attr) is original:
                        setattr(mod, attr, traced)
            else:
                setattr(owner, attr, traced)

    def _wrap(self, name: str, fn, counter):
        nid = len(self.names)
        self.names.append(name)
        self._depth.append(0)
        spans, stack, depth, counts = self.spans, self._stack, self._depth, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1]
            outermost = depth[nid] == 0
            spans.append(None)
            stack.append(idx)
            depth[nid] += 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                # a tuple of ints, which the garbage collector stops scanning
                spans[idx] = (nid, start, clock(), parent, self.query, outermost)
                depth[nid] -= 1
                stack.pop()
            if counter is not None:
                counts[idx] = counter(args, out)
            return out

        return traced

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "counts": {str(k): v for k, v in self.counts.items()},
            "absent": self.absent,
        }


# -- per-layer metrics ----------------------------------------------------------

# metric -> unit; every traced run reports each of them: 0 when the layer idles,
# None when a traced name it is made of no longer exists in the engine
LAYER_UNITS = {
    "polyspace.enumerate_s": "s",
    "polyspace.monomials": "count",
    "steenrod.rowgen_s": "s",
    "steenrod.ncols": "count",
    "steenrod.rows_offered": "count",
    "steenrod.rank": "count",
    "steenrod.row_yield": "ratio",
    "f2linalg.add_s": "s",
    "f2linalg.add_calls": "count",
    "f2linalg.transpose_s": "s",
    "f2linalg.transpose_cells": "count",
    "f2linalg.kernel_s": "s",
    "f2linalg.kernel_vectors": "count",
    "f2linalg.normal_form_s": "s",
    "f2linalg.normal_form_calls": "count",
    "f2linalg.solve_s": "s",
    "lambda_algebra.kernel_cells": "count",
    "lambda_algebra.self_s": "s",
    "lambda_algebra.differential_s": "s",
    "lambda_algebra.differential_calls": "count",
    "lambda_algebra.adem_reduce_s": "s",
    "lambda_algebra.adem_reduce_calls": "count",
    "lambda_algebra.admissible_basis_s": "s",
    "lambda_algebra.psi_s": "s",
    "glaction.substitute_s": "s",
    "glaction.substitute_calls": "count",
    "glaction.act_dual_s": "s",
    "glaction.act_dual_calls": "count",
    "glaction.self_s": "s",
    "glaction.relation_rows": "count",
    "glaction.relation_yield": "ratio",
    "transferlab.self_s": "s",
    "cohit.self_s": "s",
    "cohit.cache_files": "count",
    "cohit.cache_bytes": "B",
    "cli.cache_put_s": "s",
    "cli.emit_s": "s",
    "cli.cache_fetch_s": "s",
    "cli.cache_hit_ratio": "ratio",
    "trace.overhead": "ratio",
}

# metric -> traced name whose outermost spans it sums (time) or counts (calls)
_TIME = {
    "polyspace.enumerate_s": "polyspace.enumerate_monomials",
    "f2linalg.add_s": "f2linalg.EchelonForm.add",
    "f2linalg.transpose_s": "f2linalg.BitMatrix.transpose",
    "f2linalg.kernel_s": "f2linalg.EchelonForm.kernel_basis",
    "f2linalg.normal_form_s": "f2linalg.EchelonForm.normal_form",
    "f2linalg.solve_s": "f2linalg.solve_modulo",
    "lambda_algebra.differential_s": "lambda_algebra.differential",
    "lambda_algebra.adem_reduce_s": "lambda_algebra.adem_reduce",
    "lambda_algebra.admissible_basis_s": "lambda_algebra.admissible_basis",
    "lambda_algebra.psi_s": "lambda_algebra.psi",
    "glaction.substitute_s": "glaction.substitute",
    "glaction.act_dual_s": "glaction.act_dual",
    "cli.cache_put_s": "cli.cache_put",
    "cli.emit_s": "cli.emit",
}
_CALLS = {
    "f2linalg.add_calls": "f2linalg.EchelonForm.add",
    "f2linalg.normal_form_calls": "f2linalg.EchelonForm.normal_form",
    "lambda_algebra.differential_calls": "lambda_algebra.differential",
    "lambda_algebra.adem_reduce_calls": "lambda_algebra.adem_reduce",
    "glaction.substitute_calls": "glaction.substitute",
    "glaction.act_dual_calls": "glaction.act_dual",
}
# metric -> (traced name, count key) summed over that name's spans
_COUNT = {
    "polyspace.monomials": ("polyspace.enumerate_monomials", "monomials"),
    "steenrod.ncols": ("steenrod.HitSpan.__init__", "ncols"),
    "steenrod.rank": ("steenrod.HitSpan.__init__", "rank"),
    "f2linalg.transpose_cells": ("f2linalg.BitMatrix.transpose", "cells"),
    "f2linalg.kernel_vectors": ("f2linalg.EchelonForm.kernel_basis", "vectors"),
    "lambda_algebra.kernel_cells": ("lambda_algebra.ext_dim", "cells"),
    "glaction.relation_rows": ("glaction.CoinvariantData.__init__", "relation_rows"),
}
# metric -> span-name prefix whose self time it sums
_SELF = {
    "steenrod.rowgen_s": "steenrod.HitSpan.__init__",
    "lambda_algebra.self_s": "lambda_algebra.",
    "glaction.self_s": "glaction.",
    "transferlab.self_s": "transferlab.",
    "cohit.self_s": "cohit.",
}


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def span_totals(dump: dict) -> dict:
    """Per traced name: outermost-span seconds, calls, self seconds, summed counts.

    Only names that were installed appear; an absent one has no entry.
    """
    names = dump["names"]
    spans = dump["spans"]
    child_ns = [0] * len(spans)
    for nid, start, end, parent, _query, _outer in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = {
        name: {"s": 0.0, "calls": 0, "self_s": 0.0, "counts": {}} for name in names
    }
    for idx, (nid, start, end, parent, _query, outer) in enumerate(spans):
        entry = totals[names[nid]]
        entry["calls"] += 1
        entry["self_s"] += (end - start - child_ns[idx]) / 1e9
        if outer:
            entry["s"] += (end - start) / 1e9
    for idx, counts in dump["counts"].items():
        entry = totals[names[spans[int(idx)][0]]]["counts"]
        for key, value in counts.items():
            entry[key] = entry.get(key, 0) + value
    return totals


def _rows_offered(dump: dict) -> int | None:
    """Rows offered to an echelon directly by a hit span being built."""
    names, spans = dump["names"], dump["spans"]
    if "steenrod.HitSpan.__init__" not in names or "f2linalg.EchelonForm.add" not in names:
        return None
    init = names.index("steenrod.HitSpan.__init__")
    add = names.index("f2linalg.EchelonForm.add")
    return sum(1 for nid, _s, _e, parent, _q, _o in spans
               if nid == add and parent >= 0 and spans[parent][0] == init)


def layer_metrics(cold: dict, warm: dict) -> dict[str, float | None]:
    """Per-layer metrics: the cold worker's spans, and cache reads while warm.

    A metric made of a traced name that is absent is None, not 0, so that a
    layer which was removed does not read as a layer that became free.
    """
    totals = span_totals(cold)

    def get(name, field, key=None):
        if name not in totals:
            return None
        value = totals[name][field]
        return value if key is None else value.get(key, 0)

    out: dict[str, float | None] = {}
    for metric, name in _TIME.items():
        out[metric] = get(name, "s")
    for metric, name in _CALLS.items():
        out[metric] = get(name, "calls")
    for metric, (name, key) in _COUNT.items():
        out[metric] = get(name, "counts", key)
    for metric, prefix in _SELF.items():
        selves = [e["self_s"] for n, e in totals.items() if n.startswith(prefix)]
        out[metric] = sum(selves) if selves else None
    out["steenrod.rows_offered"] = _rows_offered(cold)
    out["steenrod.row_yield"] = _ratio(out["steenrod.rank"], out["steenrod.rows_offered"])
    out["glaction.relation_yield"] = _ratio(
        get("glaction.CoinvariantData.__init__", "counts", "relation_rank"),
        out["glaction.relation_rows"],
    )
    fetch = span_totals(warm).get("cli.cache_fetch")
    out["cli.cache_fetch_s"] = None if fetch is None else fetch["s"]
    out["cli.cache_hit_ratio"] = (
        None if fetch is None else _ratio(fetch["counts"].get("hit", 0), fetch["calls"])
    )
    return out


def cache_hits(dump: dict) -> tuple[int, int]:
    """(hits, fetches) of the CLI result cache in one worker's spans."""
    fetch = span_totals(dump).get("cli.cache_fetch")
    if fetch is None:
        return 0, 0
    return fetch["counts"].get("hit", 0), fetch["calls"]
