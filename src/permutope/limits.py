"""Default size guards.

All expensive enumerations are capped; every cap can be overridden per call,
and the CLI additionally honours the ``PERMUTOPE_CAP`` environment variable
(``name=value`` pairs, comma separated -- see the README).
"""

# Classical occurrence counting falls back to subset enumeration for pattern
# sizes >= 4; permutations longer than this are rejected there.
ENUM_N_CAP = 30

# Maximum number of simple cycles emitted by one enumeration.
CYCLE_CAP = 10**6

# Largest overlap graph built by default (7! = 5040 edges).
OVERLAP_K_CAP = 7

# Full-subgraph (face) enumeration is exponential in the edge count.
FACE_EDGE_CAP = 12

# Size |A| * |B| of a substitution product in the mixing construction.
MIX_SIZE_CAP = 10**7

# Points in one realizing permutation built by a realization plan.
REALIZE_SIZE_CAP = 10**7

# Pattern vectors carry k! entries.
VECTOR_K_CAP = 8
