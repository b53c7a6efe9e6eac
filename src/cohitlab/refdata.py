"""Frozen reference values for the rank <= 4 computations.

Dimension tables, explicit admissible bases, invariant and coinvariant
generators, lambda-algebra cycles, and transfer verdicts.  The test-suite
and the verification suites of :mod:`cohitlab.transferlab`, the only engine
module that imports it, compare live computations against these constants.
Every entry is a literal except ``COHIT_BASIS_4_17``, which
:func:`_zero_insertions` builds in part from the rank-3 basis at import.

Two kinds of entries are mixed here and marked in the comments:

* closed-form values for the structured degree families (the generators and
  dimension censuses below have exact hand-checkable descriptions), and
* regression values frozen from validated runs of this engine, kept so that
  any future change to the elimination order or the rewrite tables is caught
  immediately.

Monomials are exponent tuples ``(e_1, ..., e_q)``; divided-power duals use
the same tuples.  Lambda words are index tuples in printed order.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# degree families
#
# The five structured families handled at rank 4, parametrized by s >= 1
# (and a second parameter t where applicable):
#
#   family A:  n = 3(2^s - 1) + 3 * 2^s        = 6 * 2^s - 3
#   family B:  n = 3(2^s - 1) + 7 * 2^s        = 10 * 2^s - 3
#   family C:  n = 3 * 2^s - 2
#   family D:  n = 3(2^s - 1) + 2^s (2^{t+1} - 1),   t >= 4
#   family E:  n = 2(2^s - 1) + 2^s (2^t - 1),       t >= 5
# ---------------------------------------------------------------------------

# dim Q_n at rank 4 for the family degrees reached by the test-suite
# (closed-form censuses: family A stabilizes at s >= 3, family B at s >= 3,
# family D at s >= 3 for each fixed t).
COHIT_DIMS = {
    (4, 9): 46,  # family A, s = 1
    (4, 21): 94,  # family A, s = 2
    (4, 45): 105,  # family A, s = 3
    (4, 17): 87,  # family B, s = 1
    (4, 37): 135,  # family B, s = 2
    (4, 65): 150,  # family D, s = 1, t = 4
}

# regression dims frozen from validated runs (not part of a printed census)
COHIT_DIMS_REGRESSION = {
    (4, 4): 21,  # family C, s = 1
    (4, 10): 70,  # family C, s = 2
    (4, 22): 116,  # family C, s = 3
    (4, 46): 164,  # family C, s = 4
    (4, 61): 45,
    (4, 64): 115,  # family E, s = 1, t = 5
}

# dim Q_n at ranks 2 and 3 (regression; zeros exactly where mu(n) > q)
COHIT_DIMS_RANK2 = {
    0: 1, 1: 2, 2: 1, 3: 3, 4: 2, 5: 0, 6: 1, 7: 3, 8: 3, 9: 0,
    10: 2, 11: 0, 12: 0, 13: 0, 14: 1, 15: 3, 16: 3, 17: 0, 18: 3,
    19: 0, 20: 0,
}
COHIT_DIMS_RANK3 = {
    0: 1, 1: 3, 2: 3, 3: 7, 4: 8, 5: 3, 6: 6, 7: 10, 8: 15, 9: 7,
    10: 14, 11: 8, 12: 0, 13: 3, 14: 7, 15: 13, 16: 14, 17: 10,
    18: 21, 19: 15, 20: 0, 21: 7, 22: 14, 23: 14, 24: 0, 25: 8,
}

# weight decomposition of Q_n: page dims per weight vector.  The weight
# vectors are the ones the degree admits; the per-weight dims are regression
# values except (4, 45) whose 90/15 split is part of the family-A census.
WEIGHT_DIMS = {
    (4, 9): {(3, 3): 10, (3, 1, 1): 36},
    (4, 17): {(3, 3, 2): 41, (3, 1, 1, 1): 46},
    (4, 37): {(3, 3, 3, 2): 45, (3, 3, 1, 1, 1): 90},
    (4, 45): {(3, 3, 3, 3): 15, (3, 3, 3, 1, 1): 90},
}


# ---------------------------------------------------------------------------
# explicit admissible bases
# ---------------------------------------------------------------------------

# the full admissible basis of Q_9 at rank 4 (46 classes; the first 28 have a
# zero exponent, the last 18 are all-positive)
COHIT_BASIS_4_9 = (
    (0, 1, 1, 7), (0, 1, 7, 1), (0, 7, 1, 1),
    (1, 0, 1, 7), (1, 0, 7, 1), (1, 1, 0, 7), (1, 1, 7, 0),
    (1, 7, 0, 1), (1, 7, 1, 0), (7, 0, 1, 1), (7, 1, 0, 1), (7, 1, 1, 0),
    (0, 1, 3, 5), (0, 3, 1, 5), (0, 3, 5, 1),
    (1, 0, 3, 5), (1, 3, 0, 5), (1, 3, 5, 0),
    (3, 0, 1, 5), (3, 0, 5, 1), (3, 1, 0, 5), (3, 1, 5, 0),
    (3, 5, 0, 1), (3, 5, 1, 0),
    (0, 3, 3, 3), (3, 0, 3, 3), (3, 3, 0, 3), (3, 3, 3, 0),
    (1, 1, 1, 6), (1, 1, 6, 1), (1, 6, 1, 1),
    (1, 1, 2, 5), (1, 2, 1, 5), (1, 2, 5, 1),
    (1, 2, 3, 3), (1, 3, 2, 3), (1, 3, 3, 2),
    (3, 1, 2, 3), (3, 1, 3, 2), (3, 3, 1, 2),
    (1, 1, 3, 4), (1, 3, 1, 4), (1, 3, 4, 1),
    (3, 1, 1, 4), (3, 1, 4, 1), (3, 4, 1, 1),
)

# the all-positive part of the admissible basis of Q_17 at rank 4
# (47 classes; the 40 classes with a zero exponent are not listed in full)
COHIT_BASIS_4_17_POSITIVE = (
    (1, 1, 1, 14), (1, 1, 14, 1), (1, 14, 1, 1),
    (1, 1, 2, 13), (1, 2, 1, 13), (1, 2, 13, 1),
    (1, 2, 5, 9), (1, 2, 7, 7), (1, 7, 2, 7), (1, 7, 7, 2),
    (7, 1, 2, 7), (7, 1, 7, 2), (7, 7, 1, 2),
    (1, 3, 6, 7), (1, 3, 7, 6), (1, 6, 3, 7), (1, 6, 7, 3),
    (1, 7, 3, 6), (1, 7, 6, 3), (3, 1, 6, 7), (3, 1, 7, 6),
    (3, 7, 1, 6), (7, 1, 3, 6), (7, 1, 6, 3), (7, 3, 1, 6),
    (3, 5, 2, 7), (3, 5, 7, 2), (3, 7, 5, 2), (7, 3, 5, 2),
    (3, 3, 5, 6), (3, 5, 3, 6), (3, 5, 6, 3),
    (3, 3, 4, 7), (3, 3, 7, 4), (3, 7, 3, 4), (7, 3, 3, 4),
    (1, 1, 3, 12), (1, 3, 1, 12), (1, 3, 12, 1),
    (3, 1, 1, 12), (3, 1, 12, 1),
    (1, 3, 4, 9), (3, 1, 4, 9),
    (1, 3, 5, 8), (3, 1, 5, 8), (3, 5, 1, 8), (3, 5, 8, 1),
)

# the all-positive admissible basis of Q_17 at rank 3 (10 classes); the
# zero-exponent part of the rank-4 basis in the same degree consists exactly
# of these with a zero inserted at each of the four positions
COHIT_BASIS_3_17_POSITIVE = (
    (1, 1, 15), (1, 3, 13), (1, 15, 1), (3, 1, 13), (3, 5, 9),
    (3, 7, 7), (3, 13, 1), (7, 3, 7), (7, 7, 3), (15, 1, 1),
)


def _zero_insertions(monos):
    out = set()
    for m in monos:
        for pos in range(len(m) + 1):
            out.add(m[:pos] + (0,) + m[pos:])
    return out


# the full admissible basis of Q_17 at rank 4 (87 = 40 + 47 classes)
COHIT_BASIS_4_17 = tuple(
    sorted(_zero_insertions(COHIT_BASIS_3_17_POSITIVE))
) + COHIT_BASIS_4_17_POSITIVE

# basis of the kernel of the halving map Q_4 -> Q_0 at rank 4 (20 classes)
KAMEKO_KERNEL_BASIS_4_4 = (
    (0, 0, 1, 3), (0, 0, 3, 1), (0, 1, 0, 3), (0, 1, 3, 0),
    (0, 3, 0, 1), (0, 3, 1, 0), (1, 0, 0, 3), (1, 0, 3, 0),
    (1, 3, 0, 0), (3, 0, 0, 1), (3, 0, 1, 0), (3, 1, 0, 0),
    (0, 1, 1, 2), (0, 1, 2, 1), (1, 0, 1, 2), (1, 0, 2, 1),
    (1, 1, 0, 2), (1, 1, 2, 0), (1, 2, 0, 1), (1, 2, 1, 0),
)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

# dim (Q_n)^{GL_4} for the census degrees
GL_INVARIANT_DIMS = {
    (4, 9): 1,
    (4, 17): 1,
    (4, 21): 0,
    (4, 37): 0,
    (4, 45): 1,
}

# dim of the GL_4-fixed points of the single weight subquotients of Q_45
GL_INVARIANT_DIMS_BY_WEIGHT_45 = {
    (3, 3, 3, 1, 1): 0,
    (3, 3, 3, 3): 1,
}

# dim (Q_n)^{Sigma_4} (regression; the value at n = 17 is a genuine
# computation — see the decision ledger for the cross-check)
SYMMETRIC_INVARIANT_DIMS = {(4, 9): 4, (4, 17): 8}

# generator of (Q_9)^{GL_4}: the class of this six-term sum
GL_INVARIANT_GENERATOR_9 = (
    (1, 1, 1, 6), (1, 1, 6, 1), (1, 6, 1, 1),
    (3, 1, 1, 4), (3, 1, 4, 1), (3, 4, 1, 1),
)

# generator of (Q_17)^{GL_4}: the class of this eight-term sum
GL_INVARIANT_GENERATOR_17 = (
    (1, 1, 1, 14), (1, 1, 14, 1),
    (1, 3, 1, 12), (1, 3, 12, 1), (3, 1, 1, 12), (3, 1, 12, 1),
    (3, 5, 1, 8), (3, 5, 8, 1),
)

# generator of the GL_4-fixed points of the weight-(3,3,3,3) subquotient of
# Q_45 (fifteen terms; the class is *not* fixed in Q_45 itself — the group
# only respects the weight filtration, not the grading)
GL_INVARIANT_GENERATOR_45_WEIGHT = (
    (0, 15, 15, 15), (15, 0, 15, 15), (15, 15, 0, 15), (15, 15, 15, 0),
    (1, 14, 15, 15), (1, 15, 14, 15), (1, 15, 15, 14),
    (15, 1, 14, 15), (15, 1, 15, 14), (15, 15, 1, 14),
    (3, 13, 14, 15), (3, 13, 15, 14), (3, 15, 13, 14), (15, 3, 13, 14),
    (7, 11, 13, 14),
)

# GL_4-fixed points inside the kernel of the halving map are trivial at the
# family-C degrees
KAMEKO_KERNEL_INVARIANT_DIMS = {
    (4, 4): 0,
    (4, 10): 0,
    (4, 22): 0,
    (4, 46): 0,
}


# ---------------------------------------------------------------------------
# coinvariants (divided-power side)
# ---------------------------------------------------------------------------

COINVARIANT_DIMS = {
    (4, 4): 0,
    (4, 9): 1,
    (4, 10): 0,
    (4, 17): 1,
    (4, 21): 0,
    (4, 22): 1,
    (4, 37): 0,
    (4, 45): 1,
    (4, 46): 0,
    (4, 61): 0,
    (3, 19): 1,
}

# stretch degrees (families D and E at their smallest parameters)
COINVARIANT_DIMS_STRETCH = {
    (4, 64): 1,  # family E, s = 1, t = 5
    (4, 65): 1,  # family D, s = 1, t = 4
}

# generator of the rank-4 coinvariants in degree 9 (four divided-power terms)
DUAL_GENERATOR_9 = ((1, 3, 3, 2), (1, 3, 4, 1), (1, 5, 2, 1), (1, 6, 1, 1))

# generator of the rank-4 coinvariants in degree 17 (forty-four terms)
DUAL_GENERATOR_17 = (
    (5, 5, 5, 2), (5, 5, 6, 1), (3, 5, 8, 1), (5, 3, 8, 1),
    (3, 6, 7, 1), (5, 7, 4, 1), (7, 5, 4, 1), (3, 9, 4, 1),
    (9, 3, 4, 1), (3, 9, 3, 2), (9, 3, 3, 2), (5, 9, 2, 1),
    (9, 5, 2, 1), (5, 10, 1, 1), (9, 6, 1, 1), (3, 11, 2, 1),
    (11, 3, 2, 1), (5, 5, 3, 4), (5, 3, 5, 4), (3, 5, 5, 4),
    (3, 12, 1, 1), (11, 4, 1, 1), (7, 8, 1, 1), (7, 7, 1, 2),
    (13, 2, 1, 1), (14, 1, 1, 1), (6, 5, 3, 3), (5, 3, 6, 3),
    (3, 6, 5, 3), (6, 3, 3, 5), (3, 3, 6, 5), (3, 6, 3, 5),
    (5, 3, 3, 6), (3, 5, 3, 6), (3, 3, 5, 6), (3, 3, 3, 8),
    (3, 3, 4, 7), (3, 5, 2, 7), (3, 6, 1, 7), (3, 3, 9, 2),
    (3, 3, 10, 1), (5, 3, 7, 2), (5, 7, 3, 2), (7, 5, 3, 2),
)

# generator of the rank-4 coinvariants in degree 22 (four terms)
DUAL_GENERATOR_22 = ((3, 7, 7, 5), (3, 7, 9, 3), (3, 11, 5, 3), (3, 13, 3, 3))

# generator of the rank-3 coinvariants in degree 19 (four terms)
DUAL_GENERATOR_19_RANK3 = ((7, 7, 5), (7, 9, 3), (11, 5, 3), (13, 3, 3))

# single-term generators (spike-type duals)
DUAL_GENERATOR_45 = ((0, 15, 15, 15),)
DUAL_GENERATOR_64 = ((1, 1, 31, 31),)  # family E, s = 1, t = 5
DUAL_GENERATOR_65 = ((0, 3, 31, 31),)  # family D, s = 1, t = 4

# the degree-21 spike dual is annihilated but its class vanishes in the
# coinvariants (family A, s = 2)
DUAL_SPIKE_21 = ((0, 7, 7, 7),)

# pairing witnesses: <generator polynomial class, dual generator> = 1
PAIRING_WITNESSES = (
    (4, 9, GL_INVARIANT_GENERATOR_9, DUAL_GENERATOR_9),
    (4, 17, GL_INVARIANT_GENERATOR_17, DUAL_GENERATOR_17),
    (4, 45, GL_INVARIANT_GENERATOR_45_WEIGHT, DUAL_GENERATOR_45),
)


# ---------------------------------------------------------------------------
# lambda algebra
# ---------------------------------------------------------------------------

# dim Ext_A^{s, s+n} over the admissible-word homology (s = word length,
# n = internal degree)
EXT_DIMS = {
    (3, 8): 1,
    (3, 19): 1,
    (4, 4): 0,
    (4, 9): 1,
    (4, 10): 0,
    (4, 17): 1,
    (4, 21): 0,
    (4, 22): 1,
    (4, 37): 0,
    (4, 45): 1,
    (4, 46): 0,
}

EXT_DIMS_STRETCH = {
    (4, 61): 1,
    (4, 64): 1,
    (4, 65): 1,
}

# standard chart names for the nonzero classes met by the suite
EXT_CLASS_NAMES = {
    (3, 8): "c_0",
    (3, 19): "c_1",
    (4, 9): "h_1 c_0",
    (4, 17): "e_0",
    (4, 22): "h_2 c_1",
    (4, 45): "h_0 h_4^3",
    (4, 61): "D_3(0)",
    (4, 64): "h_1^2 h_5^2",
    (4, 65): "h_0 h_2 h_5^2",
}

# reduced images of the dual generators under the length-peeling chain map
# (each image below is already admissible)
PSI_IMAGES = {
    (4, 9): (DUAL_GENERATOR_9, ((1, 3, 3, 2),)),
    (4, 22): (DUAL_GENERATOR_22, ((3, 7, 7, 5),)),
    (4, 45): (DUAL_GENERATOR_45, ((0, 15, 15, 15),)),
    (3, 19): (DUAL_GENERATOR_19_RANK3, ((7, 7, 5),)),
}

PSI_IMAGES_STRETCH = {
    (4, 64): (DUAL_GENERATOR_64, ((1, 1, 31, 31),)),
    (4, 65): (DUAL_GENERATOR_65, ((0, 3, 31, 31),)),
}

# the degree-17 image is only a cycle homologous to the five-term admissible
# cycle below; the difference is the boundary of the four-term chain
PSI_IMAGE_17_CYCLE = (
    (3, 3, 3, 8), (3, 5, 5, 4), (3, 3, 7, 4), (7, 5, 3, 2), (3, 3, 5, 6),
)
PSI_IMAGE_17_PREIMAGE = ((3, 5, 10), (3, 12, 3), (4, 7, 7), (0, 11, 7))

# chain-level images of single divided-power terms in degree 9, before any
# rewriting (the right-hand sides contain inadmissible words; they agree with
# the reduced images only after rewriting)
PSI_RAW_TERM_IMAGES_9 = {
    (1, 3, 3, 2): ((1, 3, 3, 2), (1, 3, 4, 1), (1, 4, 3, 1)),
    (1, 3, 4, 1): ((1, 3, 4, 1), (1, 4, 3, 1), (1, 5, 2, 1)),
    (1, 5, 2, 1): ((1, 5, 2, 1), (1, 6, 1, 1)),
    (1, 6, 1, 1): ((1, 6, 1, 1),),
}

# small rewriting identities: inadmissible pair -> admissible expansion
ADEM_PAIR_CASES = {
    (3, 1): (),
    (5, 2): (),
    (4, 1): ((3, 2),),
    (5, 1): ((3, 3),),
    (6, 1): ((3, 4), (4, 3)),
}


# ---------------------------------------------------------------------------
# transfer verdicts: (coinvariant dim, ext dim, isomorphism?)
# ---------------------------------------------------------------------------

TRANSFER_VERDICTS = {
    (4, 4): (0, 0, True),
    (4, 9): (1, 1, True),
    (4, 10): (0, 0, True),
    (4, 17): (1, 1, True),
    (4, 21): (0, 0, True),
    (4, 22): (1, 1, True),
    (4, 37): (0, 0, True),
    (4, 45): (1, 1, True),
    (4, 46): (0, 0, True),
    (3, 19): (1, 1, True),
    # the map is injective but misses the indecomposable in degree 61
    (4, 61): (0, 1, False),
}

TRANSFER_VERDICTS_STRETCH = {
    (4, 64): (1, 1, True),
    (4, 65): (1, 1, True),
}
