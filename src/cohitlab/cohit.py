"""Bases of the quotient of F2[x_1..x_q] by hit elements, degree by degree.

``Q_n = (degree-n polynomials) / (hit elements)``.  The quotient basis is the
set of non-pivot monomials of the hit-span echelon ("admissible monomials"):
each class has a unique normal form supported on them.

Because columns are eliminated largest-monomial-first and every echelon row is
"pivot plus strictly smaller monomials", pivots stratify by weight vector, and
``dim (Q_n)^w`` is the number of admissible monomials of weight w for the
weight subquotient ``(Q_n)^w``.  These per-weight dimensions sum to
``dim Q_n`` by construction.

Also here: the halving map on classes (divides all-odd exponent monomials by
squaring-root; zero otherwise).

Hit spans are memoized in-process and the engine never touches the disk: the
only persistent cache is the command line's result cache (:mod:`cohitlab.cli`).
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from . import steenrod
from .f2linalg import image_kernel
from .polyspace import (
    Monomial,
    WeightVector,
    check_rank,
    count_monomials,
    count_weight_vectors,
    minimal_spike,
    weight_vector,
    weight_vectors,
)


# The column budget: degrees with more monomials than this are refused.
MAX_COLUMNS = 1 << 21


class ResourceLimit(RuntimeError):
    """A query refused by a budget: a degree past :func:`check_columns` (a span
    with a spike, ``psi``, ``annihilated``), or homology words that may hold a
    letter above ``MAX_LETTER``, recurse too deep or have more admissible words
    than ``MAX_COLUMNS``.  Every budget raises this class or a subclass
    (``lambda_algebra.RewriteBudget``); ``error`` names it in CLI JSON."""

    error = "resource-limit"


def check_columns(q: int, n: int) -> None:
    """Raise :class:`ResourceLimit` when degree n in q variables has more
    monomials than ``MAX_COLUMNS``: the one column budget."""
    cols = count_monomials(q, n)
    if cols > MAX_COLUMNS:
        raise ResourceLimit(f"degree {n} in {q} variables needs {cols} columns; "
                            f"budget is {MAX_COLUMNS}")


# -- the quotient engine ------------------------------------------------------


def span_for(q: int, n: int) -> steenrod.HitSpan:
    """The (memoized) hit-span echelon used for all degree-(q, n) queries.

    Its columns stop at the minimal spike's weight: every monomial of
    smaller weight is hit (Singer's criterion), so dropping those columns
    leaves the same pivots, quotient basis, normal forms and primitives.
    With no spike (mu(n) > q, n > 0) every monomial is hit (Wood), and the
    bound ``(q + 1,)``, which no weight reaches, leaves no column.
    Raises :class:`ResourceLimit` past the column budget, memo or not; a
    degree with no spike has no column, so the budget never refuses it.
    """
    spike = minimal_spike(q, n)
    if spike is None and n:
        return steenrod.hit_span(q, n, (q + 1,))
    check_columns(q, n)
    return steenrod.hit_span(q, n, None if spike is None else weight_vector(spike))


def quotient(q: int, n: int) -> steenrod.HitSpan:
    """:func:`span_for` under another name, which no engine path calls.

    Only the benchmark's tracer keeps it: ``perfbench/tracing.py`` traces
    ``cohit.quotient``, and ``tests/test_source.py`` requires every traced
    name to exist, so it goes together with that tracer entry.
    """
    return span_for(q, n)


def cohit_basis(q: int, n: int) -> list[Monomial]:
    """Admissible-monomial basis of Q_n, ascending in the monomial order."""
    return list(span_for(q, n).basis)


def cohit_dim(q: int, n: int) -> int:
    return span_for(q, n).dim


def weight_table(q: int, n: int) -> dict[WeightVector, int]:
    """dim (Q_n)^w for every weight w of degree n, largest first; refused
    past ``MAX_COLUMNS`` weight vectors, counted before any is listed."""
    counts = Counter(map(weight_vector, span_for(q, n).basis))
    weights = count_weight_vectors(q, n)
    if weights > MAX_COLUMNS:
        raise ResourceLimit(f"degree {n} in {q} variables has {weights} weight "
                            f"vectors; budget is {MAX_COLUMNS}")
    return {w: counts[w] for w in reversed(weight_vectors(q, n))}


def weight_subquotient(
    q: int, n: int, omega: WeightVector
) -> tuple[int, list[Monomial]]:
    """(dimension, admissible monomials) of the weight-omega subquotient."""
    span = span_for(q, n)
    block = span.weight_block(omega)
    return len(block), list(span.basis[block.start:block.stop])


# -- halving maps ---------------------------------------------------------------


def kameko_down_monomial(mono: Monomial) -> Monomial | None:
    """(e_i) -> ((e_i - 1) / 2) when every exponent is odd, else None."""
    if any(e % 2 == 0 for e in mono):
        return None
    return tuple((e - 1) // 2 for e in mono)


class KamekoMap(NamedTuple):
    """The induced halving map on quotient bases Q_n -> Q_{(n-q)/2}."""

    q: int
    n: int
    domain: steenrod.HitSpan
    codomain: steenrod.HitSpan
    kernel: list[int]  # kernel basis of the images; rank is dim minus its size

    @property
    def target_degree(self) -> int:
        return (self.n - self.q) // 2

    def rank(self) -> int:
        return self.domain.dim - len(self.kernel)

    def is_surjective(self) -> bool:
        return self.rank() == self.codomain.dim


def kameko_matrix(q: int, n: int) -> KamekoMap:
    """The halving map on classes; requires n >= q and n = q mod 2."""
    check_rank(q)
    if n < q or (n - q) % 2:
        raise ValueError(f"halving map undefined for q={q}, n={n}")
    m = (n - q) // 2
    domain = span_for(q, n)
    codomain = span_for(q, m)
    images = [0 if d is None else codomain.sum_coordinates((d,))
              for d in map(kameko_down_monomial, domain.basis)]
    return KamekoMap(q, n, domain, codomain, image_kernel(images))
