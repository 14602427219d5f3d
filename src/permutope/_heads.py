"""Classical counts of every pattern of size k >= 3 from (k-1)-subsets.

Every k-subset of positions is a (k-1)-subset T, its head, plus one later
point.  Let T end at position p with values u_1 < ... < u_{k-1}, and let Q(x)
be the number of positions after p holding a value below x.  Then
Q(u_{r+1}) - Q(u_r) later points fall between u_r and u_{r+1} (u_0 = 0 and
u_k = n + 1), and each makes the size-k pattern ``perms._step_table(k)``
gives for T's pattern and rank r.  So each count is a difference of two sums
of Q over the heads of one pattern, and only the C(n-1, k-1) heads with a
later point are visited, never the C(n, k) subsets.

Heads come in batches of ``_BATCH`` that share p.  Each batch is packed into
big integers, one per column, with one fixed-width lane per head; lane-wise
subtraction compares values, giving each head's pattern id (its Lehmer code)
and Q at each column's value, with no Python step per head.  A tally counts
the keys (pattern, column, Q) in C; it is folded into the sums whenever it
holds more than ``_BATCH`` keys, so memory follows the batch, not C(n, k-1).

``perms._occ_counts_enumerated`` checks the ``enum`` cap and imports this
module on its first call.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from collections import Counter
from functools import lru_cache
from operator import sub

from .perms import _smaller_before, _step_table, all_patterns

# Heads per batch, and the tally size that triggers a fold.
_BATCH = 1 << 12


def classical_counts(word: tuple[int, ...], k: int) -> list[int]:
    """The classical count of every size-k pattern in a permutation word, in
    pattern order, for 3 <= k <= len(word)."""
    n = len(word)
    m = k - 1  # head size; columns 0..m-2 vary within a batch, column m-1 is p
    heads = math.factorial(m)
    span = n + 1  # a key's Q (or p) slot, in 0..n
    row = m * span  # keys per head pattern
    flag = n.bit_length()  # the comparison bit: every value is below it
    # Lanes hold a value with its flag, a head id times 2**flag, Q times
    # 2**flag, and a key; pick the narrower array type that fits them all.
    need = max((heads << flag).bit_length(), (n << flag).bit_length(), (heads * row).bit_length())
    code = "I" if array("I").itemsize * 8 >= need else "Q"
    unit = array(code, [1]).tobytes()  # one lane holding 1
    lehmer = [math.factorial(m - 1 - a) for a in range(m - 1)]
    below_after = [v - 1 - x for v, x in zip(word, _smaller_before(word))]
    # Per head pattern: the sums of Q at columns 0..m-1, then the later
    # points in all; a trailing 0 stands for Q(u_0).
    sums = [0] * (heads * (m + 1) + 1)
    tally = Counter()

    def fold() -> None:
        for key, count in tally.items():
            head, slot = divmod(key, row)
            column, value = divmod(slot, span)
            base = head * (m + 1)
            if column < m - 1:
                sums[base + column] += value * count
            else:  # value is p: column m-1 and the later points
                sums[base + column] += below_after[value] * count
                sums[base + m] += (n - 1 - value) * count
        tally.clear()

    def lanes(packed: int, size: int) -> memoryview:
        return memoryview(packed.to_bytes(len(unit) * size, sys.byteorder)).cast(code)

    for p in range(m - 1, n - 1):  # heads ending at n - 1 have no later point
        stream = itertools.chain.from_iterable(itertools.combinations(word[:p], m - 1))
        while flat := array(code, itertools.islice(stream, _BATCH * (m - 1))):
            size = len(flat) // (m - 1)
            one = int.from_bytes(unit * size, sys.byteorder)
            top = one << flag
            strided = memoryview(flat)
            columns = [int.from_bytes(strided[c :: m - 1], sys.byteorder) for c in range(m - 1)]
            columns.append(one * word[p])
            # (x_a | top) - x_b keeps the flag exactly when x_a > x_b.
            head = 0
            for a, weight in enumerate(lehmer):
                raised = columns[a] | top
                head += weight * sum((raised - x) & top for x in columns[a + 1 :])
            first_key = (head >> flag) * row
            later = [v * one for v in word[p + 1 :]]
            for c in range(m - 1):
                raised = columns[c] | top
                below = sum((raised - v) & top for v in later) >> flag
                keys = lanes(first_key + c * span * one + below, size)
                # A key whose Q is 0 adds nothing; leave it out.
                tally.update(itertools.compress(keys, lanes(below, size)))
            tally.update(lanes(first_key + ((m - 1) * span + p) * one, size))
            if len(tally) > _BATCH:
                fold()
    fold()
    hi, lo = _gap_slots(k)
    return list(map(sub, map(sums.__getitem__, hi), map(sums.__getitem__, lo)))


@lru_cache(maxsize=None)
def _gap_slots(k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For each size-k pattern, in order, the slots in the head sums whose
    difference is its count: the column of its head holding the value just
    above its last entry (or the later points in all), and the one just
    below (or the trailing 0)."""
    m = k - 1
    step = _step_table(k)
    hi, lo = [0] * math.factorial(k), [0] * math.factorial(k)
    for u, head in enumerate(all_patterns(m)):
        by_rank = sorted(range(m), key=head.word.__getitem__)
        slots = [-1, *(u * (m + 1) + c for c in by_rank), u * (m + 1) + m]
        for r, (eid, _) in enumerate(step[u]):
            lo[eid], hi[eid] = slots[r], slots[r + 1]
    return tuple(hi), tuple(lo)
