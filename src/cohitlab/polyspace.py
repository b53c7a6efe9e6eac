"""Monomial and polynomial bookkeeping for F2[x_1, ..., x_q].

A ``Monomial`` is a tuple of q exponents ``(e_1, ..., e_q)``; the same tuple
type doubles as a ``DualMonomial`` (a product of divided powers
``a_1^(e_1) ... a_q^(e_q)`` in the dual).  A ``WeightVector`` is the tuple
``omega(x) = (omega_1, omega_2, ...)`` where ``omega_i`` counts how many
exponents have bit ``i-1`` set; trailing zeros are trimmed.

The total order on monomials of a fixed degree is: compare weight vectors
left-lexicographically first, then exponent tuples left-lexicographically
(index 1 first).  All basis extraction downstream is phrased in terms of this
order.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterable

Monomial = tuple[int, ...]
DualMonomial = tuple[int, ...]
WeightVector = tuple[int, ...]

MAX_RANK = 5


def check_rank(q: int) -> None:
    if not 1 <= q <= MAX_RANK:
        raise ValueError(f"number of variables must be between 1 and {MAX_RANK}, got {q}")


def degree(mono: Monomial) -> int:
    return sum(mono)


def alpha(n: int) -> int:
    """Number of ones in the binary expansion of n."""
    if n < 0:
        raise ValueError("alpha is defined for nonnegative integers")
    return n.bit_count()


def mu(n: int) -> int:
    """Smallest m such that n is a sum of m numbers of the form 2^t - 1.

    Equivalently the smallest m with alpha(n + m) <= m.
    """
    if n < 0:
        raise ValueError("mu is defined for nonnegative integers")
    if n == 0:
        return 0
    m = 1
    while alpha(n + m) > m:
        m += 1
    return m


def weight_vector(mono: Monomial) -> WeightVector:
    """omega(x): entry i counts exponents with binary bit i set (trailing zeros trimmed)."""
    if not mono:
        return ()
    if min(mono) < 0:
        raise ValueError(f"negative exponent in {mono}")
    bits = max(mono).bit_length()
    w = [0] * bits
    for e in mono:
        i = 0
        while e:
            w[i] += e & 1
            e >>= 1
            i += 1
    return tuple(w)  # the largest exponent sets the last entry


def trim_weight(omega: Iterable[int]) -> WeightVector:
    """omega as a weight vector: a tuple without trailing zeros."""
    omega = tuple(omega)
    while omega and omega[-1] == 0:
        omega = omega[:-1]
    return omega


def padded_weight(w: WeightVector, n: int) -> tuple[int, ...]:
    """w padded with zeros to a length shared by every weight in degree n.

    Left-lex comparison of padded weights is then correct for weights of
    monomials of equal degree n.
    """
    return tuple(w) + (0,) * (n.bit_length() + 1 - len(w))


def monomial_key(mono: Monomial) -> tuple[tuple[int, ...], Monomial]:
    """Sort key realizing the weight-then-exponent left-lex order."""
    return (padded_weight(weight_vector(mono), degree(mono)), mono)


def enumerate_monomials(q: int, n: int) -> list[Monomial]:
    """All degree-n monomials in q variables, exponent-lex ascending.

    ``steenrod.live_monomials(q, n, 0, ())`` lists them in the monomial order.
    """
    check_rank(q)
    if n < 0:
        return []
    out: list[Monomial] = []

    def rec(prefix: Monomial, remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining + 1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), n, q)
    return out


def weight_vectors(q: int, n: int) -> list[WeightVector]:
    """The weight vectors of the degree-n monomials in q variables, ascending.

    Entry i is at most q and has the parity of the degree left at bit i.
    Weights of one degree compare as tuples the way their padded forms do,
    so the order is the monomial order's.
    """
    if n == 0:
        return [()]
    return [
        (w0,) + rest
        for w0 in range(n & 1, min(q, n) + 1, 2)
        for rest in weight_vectors(q, (n - w0) >> 1)
    ]


def count_monomials(q: int, n: int) -> int:
    """Number of degree-n monomials in q variables: C(n+q-1, q-1)."""
    from math import comb

    return comb(n + q - 1, q - 1)


@cache
def count_weight_vectors(q: int, n: int) -> int:
    """``len(weight_vectors(q, n))`` by the same recursion, listing none."""
    if n == 0:
        return 1
    return sum(count_weight_vectors(q, (n - w0) >> 1)
               for w0 in range(n & 1, min(q, n) + 1, 2))


def is_spike(mono: Monomial) -> bool:
    """True when every exponent has the form 2^t - 1."""
    return all((e & (e + 1)) == 0 for e in mono)


def is_minimal_spike(mono: Monomial) -> bool:
    """True for the canonical minimal spike shape.

    The nonzero exponents must come first, each of the form 2^t - 1, strictly
    decreasing except that the last two may be equal (so an all-equal run of
    length >= 3 never qualifies), and trailing exponents must be zero.
    """
    if not is_spike(mono):
        return False
    nz = [e for e in mono if e]
    if sum(mono) == 0 or not nz:
        return False
    if list(mono[: len(nz)]) != nz:
        return False
    for i in range(len(nz) - 2):
        if nz[i] <= nz[i + 1]:
            return False
    if len(nz) >= 2 and nz[-2] < nz[-1]:
        return False
    return True


def minimal_spike(q: int, n: int) -> Monomial | None:
    """The unique degree-n spike with the minimal-spike shape, or None.

    Exists exactly when mu(n) <= q; it uses m = mu(n) variables with
    exponents 2^{d_1}-1, ..., 2^{d_m}-1 where d_1 > ... > d_{m-1} >= d_m >= 1.
    The parts 2^{d_i} sum to n + m: they are its binary digits, the
    smallest halved until there are m of them.  Bit 0 of n + m is never
    set, else alpha(n + m - 1) <= m - 1 and mu(n) < m.
    """
    check_rank(q)
    if n <= 0:
        return None
    m = mu(n)
    if m > q:
        return None
    total = n + m
    parts = [1 << d for d in reversed(range(total.bit_length())) if total >> d & 1]
    while len(parts) < m:
        half = parts.pop() >> 1
        parts += [half, half]
    mono = tuple(p - 1 for p in parts) + (0,) * (q - m)
    if not is_minimal_spike(mono) or degree(mono) != n:
        raise RuntimeError(f"built {mono}, not a minimal spike of degree {n}")
    return mono


def format_monomial(mono: Monomial) -> str:
    parts = []
    for i, e in enumerate(mono, start=1):
        if e == 0:
            continue
        parts.append(f"x{i}" + (f"^{e}" if e > 1 else ""))
    return " ".join(parts) if parts else "1"


class _TermSet:
    """A homogeneous sum over GF(2) of exponent tuples in q variables.

    The terms are a frozenset, so adding is symmetric difference.  A subclass
    gives its ``_name`` for messages, the ``_key`` of its terms in JSON and
    how one term prints (``_format``).  Elements of different subclasses are
    never equal and never add.
    """

    __slots__ = ("q", "terms")

    def __init__(self, q: int, terms: Iterable[Monomial] = ()):
        check_rank(q)
        ts = frozenset(tuple(t) for t in terms)
        if len({sum(t) for t in ts}) > 1:
            raise ValueError(f"{self._name} is not homogeneous")
        for t in ts:
            if len(t) != q or any(e < 0 for e in t):
                raise ValueError(f"bad term {t} of a {self._name} for q={q}")
        self.q = q
        self.terms = ts

    @property
    def degree(self) -> int | None:
        for t in self.terms:
            return sum(t)
        return None

    def is_zero(self) -> bool:
        return not self.terms

    def __xor__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.q != other.q:
            raise ValueError(f"{self._name}s live in different variable counts")
        return type(self)(self.q, self.terms ^ other.terms)

    __add__ = __xor__

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self.q == other.q
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.q, self.terms))

    def __len__(self) -> int:
        return len(self.terms)

    def map_terms(self, image: Callable[[Monomial], Iterable[Monomial]]):
        """The sum over the terms t of ``image(t)`` (distinct terms), in this type."""
        acc: set[Monomial] = set()
        for t in self.terms:
            acc.symmetric_difference_update(image(t))
        return type(self)(self.q, acc)

    def sorted_terms(self) -> list[Monomial]:
        return sorted(self.terms, key=monomial_key)

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        return " + ".join(map(self._format, self.sorted_terms()))

    @classmethod
    def from_json(cls, data: dict):
        """Read a JSON object holding ``q`` and, under the class's key
        (``monomials`` or ``terms``), the terms as exponent lists; q and every
        exponent must be ints, and any other field is ignored."""
        q, terms = data["q"], data[cls._key]
        if not all(type(x) is int for x in (q, *(e for t in terms for e in t))):
            raise TypeError(f"q and the exponents of a {cls._name} must be integers")
        return cls(q, terms)


class Polynomial(_TermSet):
    """A homogeneous polynomial over GF(2), stored as a set of monomials."""

    __slots__ = ()
    _name = "polynomial"
    _key = "monomials"
    _format = staticmethod(format_monomial)


class DualElement(_TermSet):
    """An element of the divided-power dual, stored as a set of dual monomials."""

    __slots__ = ()
    _name = "dual element"
    _key = "terms"

    @staticmethod
    def _format(t: DualMonomial) -> str:
        return " ".join(f"a{i}({e})" for i, e in enumerate(t, start=1))


def pairing(theta: DualElement, f: Polynomial) -> int:
    """The dual-basis pairing <theta, f> in GF(2)."""
    if theta.q != f.q:
        raise ValueError("mismatched variable counts")
    return len(theta.terms & f.terms) & 1
