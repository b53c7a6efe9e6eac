"""Bit-packed linear algebra over GF(2).

Vectors are stored as Python ints used as bitsets: bit p is the coordinate in
column p, so an echelon form needs no width.  Echelon forms pivot on the
*highest* set bit, so the last column has the highest elimination priority:
callers lay their columns out in ascending order of seniority, and a
column's position is its rank in that order.  The pivot is read in O(1) as
``v.bit_length() - 1``, and a stored row is only as wide as its pivot.  A
tag is just the least senior columns: input i fed in as ``r << k | 1 << i``
keeps in its low k bits the inputs its stored row sums.

Everything here is exact arithmetic; there is no floating point anywhere.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Mapping, Sequence


def from_support(positions: Iterable[int]) -> int:
    """Bit-vector with ones exactly at the given column positions."""
    bits = 0
    for p in positions:
        bits |= 1 << p
    return bits


def support(v: int) -> list[int]:
    """Sorted list of column positions where the vector is 1."""
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


class EchelonForm:
    """Incremental row echelon form over GF(2), held as one dict of rows.

    Rows are reduced on insertion so that each stored row has a distinct
    pivot — its highest set bit — and support only at lower positions.
    Supports membership tests and canonical normal forms modulo the span.
    """

    def __init__(self):
        self.rows: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vec: int) -> bool:
        """Insert a row; return True if the rank grew.  One loop reduces it
        as :meth:`reduce` does and stores the residual at its free pivot."""
        rows = self.rows
        while vec:
            p = vec.bit_length() - 1
            row = rows.get(p)
            if row is None:
                rows[p] = vec
                return True
            vec ^= row
        return False

    def reduce(self, vec: int) -> int:
        """Residual of vec after eliminating pivot positions greedily.

        Stops at the first position that is not a pivot, so the result is 0
        exactly when vec lies in the row space.  For the coordinates of the
        canonical coset representative use :meth:`normal_form`.
        """
        v = vec
        rows = self.rows
        while v:
            p = v.bit_length() - 1
            row = rows.get(p)
            if row is None:
                break
            v ^= row
        return v

    def normal_form(self, vec: int, index: Mapping[int, int]) -> int:
        """Coordinates of the canonical representative of vec modulo the row
        space, over the free columns.

        ``index`` maps every free column to its own position: a free column p
        of the representative sets bit ``index[p]``, read in the same walk.
        The result is 0 exactly when vec lies in the row space.
        """
        out = 0
        rows = self.rows
        while vec:
            p = vec.bit_length() - 1
            row = rows.get(p)
            if row is None:  # a free column: keep it
                row = 1 << p
                out |= 1 << index[p]
            vec ^= row
        return out

    def kernel_vector(self, f: int, pivots: Sequence[int] | None = None) -> int:
        """The kernel vector whose free-column support is exactly {f}.

        Back-substitutes over the pivots above f in increasing order, so the
        rows never need to be mutually reduced: a row pivoted below f never
        meets a vector supported from f up.  ``pivots`` is ``sorted(self.rows)``.
        """
        rows = self.rows
        if pivots is None:
            pivots = sorted(rows)
        x = 1 << f
        for p in pivots[bisect_left(pivots, f):]:
            if (rows[p] & x).bit_count() & 1:
                x |= 1 << p
        return x

    def free_columns(self, n: int) -> list[int]:
        """The columns below n that hold no pivot, ascending."""
        rows = self.rows
        return [f for f in range(n) if f not in rows]

    def kernel_basis(self, ncols: int) -> list[int]:
        """Basis of {x : r . x = 0 for every row r}, one vector per free column."""
        pivots = sorted(self.rows)
        return [self.kernel_vector(f, pivots) for f in self.free_columns(ncols)]


def echelonize(rows: Iterable[int]) -> EchelonForm:
    """Echelonize an iterable of bit-vector rows."""
    ech = EchelonForm()
    for r in rows:
        ech.add(r)
    return ech


def image_kernel(images: Iterable[int]) -> list[int]:
    """A basis of the kernel of a map, from the images of its source basis.

    ``images[i]`` is the image of source basis vector i.  Each image is
    reduced against the images before it, a tag from ``1 << i`` recording
    which source vectors it combines, and stored if it is not zero; one that
    reduces to zero gives the kernel vector of its tag, whose highest bit is
    i.  A stored tag only ever combines sources whose image was inserted, so
    the kernel vector of a dependent source i meets no other dependent
    source: it is the unique kernel vector whose support on the dependent
    sources is exactly {i}.  One per dependent source, in source order, these
    vectors are a basis of the kernel; none of it depends on the pivot rule.
    """
    rows: dict[int, int] = {}  # pivot -> stored residual, as in EchelonForm
    tags: dict[int, int] = {}  # pivot -> the sources that residual sums
    kernel = []
    for i, v in enumerate(images):
        tag = 1 << i
        while v:
            p = v.bit_length() - 1
            row = rows.get(p)
            if row is None:
                rows[p], tags[p] = v, tag
                break
            v ^= row
            tag ^= tags[p]
        else:
            kernel.append(tag)
    return kernel


def solve_modulo(
    target: int,
    rows: Sequence[int],
    modulus_rows: Iterable[int],
) -> tuple[int, ...] | None:
    """Coefficients c with target + sum(c_i * rows[i]) in span(modulus_rows).

    Returns None when no such combination exists: the target, the last
    source of :func:`image_kernel`, is solvable exactly when the last kernel
    vector tops out at it, and its bits after the modulus name the rows used.
    """
    modulus = list(modulus_rows)
    kernel = image_kernel([*modulus, *rows, target])
    if not kernel or not kernel[-1] >> len(modulus) + len(rows):
        return None
    return tuple(kernel[-1] >> len(modulus) + i & 1 for i in range(len(rows)))


class BitMatrix:
    """A list of bit-vector rows with a fixed number of columns, and its transpose."""

    def __init__(self, ncols: int, rows: Iterable[int] = ()):
        self.ncols = ncols
        self.rows: list[int] = list(rows)

    def append(self, row: int) -> None:
        self.rows.append(row)

    def __iter__(self):
        return iter(self.rows)

    def transpose(self) -> "BitMatrix":
        out = BitMatrix(len(self.rows))
        for j in range(self.ncols):
            v = 0
            for i, r in enumerate(self.rows):
                v |= ((r >> j) & 1) << i
            out.append(v)
        return out
