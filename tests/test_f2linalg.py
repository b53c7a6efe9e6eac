from __future__ import annotations

import random

from hypothesis import given
from hypothesis import strategies as st

from cohitlab.f2linalg import (
    BitMatrix,
    EchelonForm,
    echelonize,
    from_support,
    image_kernel,
    solve_modulo,
    support,
)


def naive_rank(rows: list[int], ncols: int) -> int:
    """Textbook row reduction over GF(2), kept independent of the library."""
    mat = [list((r >> c) & 1 for c in range(ncols)) for r in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                mat[i] = [a ^ b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


rows_strategy = st.lists(st.integers(0, (1 << 12) - 1), max_size=14)


def naive_transpose(rows: list[int], ncols: int) -> list[int]:
    """Column j of the row list, as a bit-vector over the row indices."""
    return [
        sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(ncols)
    ]


def naive_kernel(rows: list[int], ncols: int) -> list[int]:
    """Kernel of the rows by back-substitution over every pivot, in increasing order."""
    ech = echelonize(rows)
    out = []
    for f in range(ncols):
        if f in ech.rows:
            continue
        x = 1 << f
        for p in sorted(ech.rows):
            if (ech.rows[p] & x).bit_count() & 1:
                x |= 1 << p
        out.append(x)
    return out


def test_bit_helpers():
    assert from_support([0, 3, 5]) == 0b101001
    assert support(0b101001) == [0, 3, 5]
    assert support(0) == []


@given(rows_strategy)
def test_rank_matches_naive_elimination(rows):
    assert echelonize(rows).rank == naive_rank(rows, 12)


@given(rows_strategy)
def test_rank_nullity(rows):
    ech = echelonize(rows)
    assert ech.rank + len(ech.kernel_basis(12)) == 12


@given(rows_strategy)
def test_kernel_vectors_kill_every_row(rows):
    for k in echelonize(rows).kernel_basis(12):
        assert all((r & k).bit_count() % 2 == 0 for r in rows)


def identity(ech: EchelonForm, ncols: int) -> dict[int, int]:
    """The index that keeps each free column below ncols at its own bit, so
    ``normal_form`` returns the canonical representative itself."""
    return {p: p for p in ech.free_columns(ncols)}


@given(rows_strategy, st.integers(0, (1 << 12) - 1))
def test_normal_form_is_idempotent_and_span_invariant(rows, vec):
    ech = echelonize(rows)
    index = identity(ech, 12)
    nf = ech.normal_form(vec, index)
    assert ech.normal_form(nf, index) == nf
    # subtracting any row keeps the normal form
    for r in rows[:4]:
        assert ech.normal_form(vec ^ r, index) == nf


def two_loop_normal_form(ech: EchelonForm, vec: int) -> int:
    """The reference normal form: reduce, keep the free top bit, reduce again."""
    out = 0
    v = ech.reduce(vec)
    while v:
        top = 1 << (v.bit_length() - 1)
        out |= top
        v = ech.reduce(v ^ top)
    return out


@given(rows_strategy, st.integers(0, (1 << 12) - 1))
def test_normal_form_matches_the_two_loop_reference(rows, vec):
    ech = echelonize(rows)
    assert ech.normal_form(vec, identity(ech, 12)) == two_loop_normal_form(ech, vec)


@given(rows_strategy, st.integers(0, (1 << 12) - 1))
def test_indexed_normal_form_reads_the_free_coordinates(rows, vec):
    ech = echelonize(rows)
    index = {p: i for i, p in enumerate(ech.free_columns(12))}
    nf = ech.normal_form(vec, identity(ech, 12))
    assert nf == two_loop_normal_form(ech, vec)
    want = from_support(index[p] for p in support(nf))
    assert ech.normal_form(vec, index) == want


@given(rows_strategy)
def test_row_membership(rows):
    ech = echelonize(rows)
    rng = random.Random(7)
    for _ in range(5):
        combo = 0
        for r in rows:
            if rng.getrandbits(1):
                combo ^= r
        assert ech.normal_form(combo, identity(ech, 12)) == 0
        assert ech.contains(combo)


def test_add_reports_rank_growth():
    ech = EchelonForm()
    assert ech.add(0b0011)
    assert ech.add(0b0101)
    assert not ech.add(0b0110)  # the sum of the first two
    assert ech.rank == 2


def test_one_call_add_equals_reduce_then_store_at_the_pivot():
    rng = random.Random(41)
    in_span = 0
    for _ in range(200):
        width = rng.randint(1, 40)
        rows = []
        for _ in range(rng.randint(0, 30)):
            kind = rng.randrange(4)
            if kind == 0:  # a zero row
                rows.append(0)
            elif kind == 1:  # a sum of rows before it: in the span already
                rows.append(_xor_all(r for r in rows if rng.getrandbits(1)))
            else:
                rows.append(rng.getrandbits(width))
        ech, ref = EchelonForm(), EchelonForm()
        flags, want = [], []
        for r in rows:
            flags.append(ech.add(r))
            residual = ref.reduce(r)
            if residual:
                ref.rows[residual.bit_length() - 1] = residual
            want.append(bool(residual))
            in_span += bool(r) and not residual
        assert flags == want
        assert ech.rows == ref.rows
    assert in_span > 100


def _xor_all(rows):
    acc = 0
    for r in rows:
        acc ^= r
    return acc


def combination(vectors: list[int], tag: int) -> int:
    """The sum of the vectors whose indices the tag's bits name."""
    out = 0
    for i in support(tag):
        out ^= vectors[i]
    return out


def test_tagged_reduction_tracks_the_combination():
    # a tag is just the least senior columns: input i goes in as r << k | 1 << i
    rows = [0b0011, 0b0101, 0b1001]
    k = len(rows)
    ech = echelonize(r << k | 1 << i for i, r in enumerate(rows))
    target = rows[0] ^ rows[2]
    residual = ech.reduce(target << k)
    assert not residual >> k
    assert support(residual) == [0, 2]
    assert combination(rows, residual) == target


@given(rows_strategy)
def test_add_tagged_tags_name_the_inputs_each_row_sums(rows):
    # each input row carries its own index as a one-bit tag in the low columns
    k = len(rows)
    ech = echelonize(r << k | 1 << i for i, r in enumerate(rows))
    assert ech.rank == k
    for row in ech.rows.values():
        assert combination(rows, row & (1 << k) - 1) == row >> k
    # the rows with a high part span the inputs; the rest are their relations
    assert sum(1 for row in ech.rows.values() if row >> k) == naive_rank(rows, 12)
    target = combination(rows, 0b101) if k >= 3 else 0
    residual = ech.reduce(target << k)
    assert not residual >> k
    assert combination(rows, residual) == target


def test_solve_modulo_small():
    rows = [0b0011, 0b0110]
    modulus = [0b1000]
    # target = rows[0] + rows[1] + something in the modulus
    target = 0b0011 ^ 0b0110 ^ 0b1000
    sol = solve_modulo(target, rows, modulus)
    assert sol == (1, 1)
    # the coefficients follow the modulus: here no modulus row is used
    assert solve_modulo(0b0011, rows, modulus) == (1, 0)
    assert solve_modulo(0b0100 ^ 0b0011, [0b0011], [0b1000]) is None


@given(rows_strategy, rows_strategy, st.integers(0, (1 << 12) - 1))
def test_solve_modulo_reconstructs_target(rows, modulus, noise):
    rng = random.Random(11)
    combo = 0
    for r in rows:
        if rng.getrandbits(1):
            combo ^= r
    mod_part = 0
    for m in modulus:
        if rng.getrandbits(1):
            mod_part ^= m
    target = combo ^ mod_part
    sol = solve_modulo(target, rows, modulus)
    assert sol is not None
    rebuilt = 0
    for i, c in enumerate(sol):
        if c:
            rebuilt ^= rows[i]
    ech = echelonize(modulus)
    assert ech.normal_form(rebuilt ^ target, identity(ech, 12)) == 0


def test_bitmatrix_transpose_involution():
    rows = [0b1010, 0b0111, 0b0001]
    mat = BitMatrix(4, rows)
    assert list(mat.transpose().transpose()) == rows


@given(rows_strategy)
def test_restricted_back_substitution_matches_the_full_one(rows):
    assert echelonize(rows).kernel_basis(12) == naive_kernel(rows, 12)


@given(rows_strategy)
def test_image_kernel_is_the_kernel_reduced_on_the_dependent_sources(images):
    # images[i] is the image of source vector i: the kernel of that map is
    # the kernel of the transposed matrix, whose rows are the target columns
    kernel = image_kernel(images)
    for x in kernel:
        combo = 0
        for i in support(x):
            combo ^= images[i]
        assert combo == 0
    # the vectors span the whole kernel
    reference = naive_kernel(naive_transpose(images, 12), len(images))
    assert naive_rank(kernel, len(images)) == len(kernel) == len(reference)
    assert all(echelonize(kernel).contains(x) for x in reference)
    # vector j tops out at the j-th dependent source, and meets no other
    dependent = [
        i for i in range(len(images))
        if naive_rank(images[: i + 1], 12) == naive_rank(images[:i], 12)
    ]
    assert [x.bit_length() - 1 for x in kernel] == dependent
    for x, i in zip(kernel, dependent):
        assert [j for j in dependent if x >> j & 1] == [i]


def test_image_kernel_of_dependent_images():
    # image 2 = image 0 + image 1, image 3 = 0
    kernel = image_kernel([0b01, 0b10, 0b11, 0])
    assert kernel == [0b0111, 0b1000]


@given(rows_strategy)
def test_free_columns_are_the_complement_of_the_pivots(rows):
    ech = echelonize(rows)
    free = ech.free_columns(12)
    assert free == sorted(set(range(12)) - set(ech.rows))
    assert len(free) == 12 - ech.rank
