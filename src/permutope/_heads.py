"""Classical counts of every pattern of size k, loaded on the first
classical count because most processes that import perms never count a
classical pattern.

Sizes 2 and 3 come from one chunked sweep over a_j, the number of entries
before position j that are smaller.  Positions go in chunks of ``_CHUNK``.
For the entries of earlier chunks, ``seen`` marks their values and
``block_seen`` counts them per block of ``2**_BLOCK_BITS`` values; one prefix
sum over the blocks per chunk, plus one count of the marks between the block
start and v, gives each entry's count, all inside C ``map`` calls.  Entries
of the same chunk are counted by bisection into the sorted list of the
chunk's earlier values.  That is O(n^2 / 2^16 + n * 512) work, mostly in C.
No n-long list is built: each chunk's a_j are folded into the sums the counts
need while the chunk is small and cache-hot, and the counts follow from those
sums by closed forms.

The sums over positions lo..hi-1 need only the marks of the values before
lo, so a word of ``_SPLIT`` entries or more is swept in two halves at once
when this process has no other thread and at least two CPUs: a forked child
sweeps the first half and writes its sums to a pipe as decimal text, while
this process marks the first half's values and sweeps the second.  The child
ends in ``os._exit`` and is always reaped (killed first if this process's
own sweep raised), so none outlives the call; if the fork fails or the child
does not hand back its sums, this process sweeps the first half itself.

Sizes 4 and up come from (k-1)-subsets.  Every k-subset of positions is a
(k-1)-subset T, its head, plus one later point.  Let T end at position p
with values u_1 < ... < u_{k-1}, and let Q(x) be the number of positions
after p holding a value below x.  Then Q(u_{r+1}) - Q(u_r) later points fall
between u_r and u_{r+1} (u_0 = 0 and u_k = n + 1), and each makes the size-k
pattern ``perms._step_table(k)`` gives for T's pattern and rank r.  So each
count is a difference of two sums of Q over the heads of one pattern, and
only the C(n-1, k-1) heads with a later point are visited, never the C(n, k)
subsets.

Heads come in batches of ``_BATCH`` that share p.  Each batch is packed into
big integers, one per column, with one fixed-width lane per head; lane-wise
subtraction compares values, giving each head's pattern id (its Lehmer code)
and Q at each column's value, with no Python step per head.  A tally counts
the keys (pattern, column, Q) in C; it is folded into the sums whenever it
holds more than ``_BATCH`` keys, so memory follows the batch, not C(n, k-1).
``perms`` checks the ``enum`` cap on n before it asks for k >= 4.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from functools import lru_cache, partial
from operator import add, and_, mul, rshift, sub
from typing import Callable

from .limits import natural
from .perms import _step_table, all_patterns

# Heads per batch, and the tally size that triggers a fold.
_BATCH = 1 << 12

# The k <= 3 sweep takes positions in chunks of _CHUNK and groups values
# into blocks of 2**_BLOCK_BITS.
_CHUNK = 512
_BLOCK_BITS = 7

# Words this long are swept in two halves at once.  A fork and a pipe cost
# 2-3 ms, so the split breaks even near n = 5,000: against one sweep, medians
# of 15 on a 2-vCPU VM (Python 3.11, k = 2 / k = 3) read 0.59x / 0.66x at
# n = 2,000, 1.07x / 1.10x at 6,000, 1.12-1.25x / 1.22-1.40x at 8,000 and
# 1.48x / 1.50x at 16,384.  The VM's drift asks for the margin.
_SPLIT = 1 << 14


def classical_counts(word: tuple[int, ...], k: int) -> list[int]:
    """The classical count of every size-k pattern in a permutation word, in
    pattern order, for 1 <= k <= len(word)."""
    n = len(word)
    if k == 1:
        return [n]
    if k == 2:
        (rising,) = _smaller_before_sums(word, False)
        return [rising, math.comb(n, 2) - rising]
    if k > 3:
        return _counts_from_heads(word, k)
    # With 0-based position j and value w = v - 1, the smaller-before count
    # a gives the larger-before b = j - a, the smaller-after d = w - a and the
    # larger-after c = n - 1 - j - w + a.  Counting by the middle entry gives
    # 123 (the sum of a*c) and 321 (of b*d); counting by an end entry, the sum
    # of C(x, 2) gives 123 + 213 for x = a, 123 + 132 for c, 321 + 231 for b
    # and 321 + 312 for d.  Each of these sums is a polynomial in the sums of
    # a, a^2, a*j, a*w and j*w.
    s1, s2, sj, sv = _smaller_before_sums(word, True)
    sw = sv - s1
    t, q = n * (n - 1) // 2, (n - 1) * n * (2 * n - 1) // 6  # of j (or w), and of j^2 (or w^2)
    jw = sum(map(mul, range(n), word)) - t
    occ123 = (n - 1) * s1 - sj - sw + s2
    occ321 = jw - sj - sw + s2
    # The sum of c is s1, because the sum of n - 1 - j - w is 0.
    pairs_a = (s2 - s1) // 2
    pairs_b = (q - 2 * sj + s2 - t + s1) // 2
    pairs_d = (q - 2 * sw + s2 - t + s1) // 2
    pairs_c = (2 * q + 2 * jw - n * (n - 1) ** 2 + 2 * occ123 - s2 - s1) // 2
    occ132, occ213 = pairs_c - occ123, pairs_a - occ123
    return [occ123, occ132, occ213, pairs_b - occ321, pairs_d - occ321, occ321]


def _smaller_before_sums(word: tuple[int, ...], moments: bool) -> tuple[int, ...]:
    """For a permutation word of 1..n, with a_j the number of entries before
    position j that are smaller: the sum of a_j, and with ``moments`` also
    the sums of a_j^2, a_j * j (j 0-based) and a_j * v_j."""
    n = len(word)
    if n < _SPLIT or not _second_cpu_free():
        return _sweep(word, 0, n, moments)
    h = n // 2
    first, second = _forked(
        partial(_sweep, word, 0, h, moments),
        partial(_sweep, word, h, n, moments),
        4 if moments else 1,
    )
    if first is None:
        first = _sweep(word, 0, h, moments)
    return tuple(map(add, first, second))


def _sweep(word: tuple[int, ...], lo: int, hi: int, moments: bool) -> tuple[int, ...]:
    """The sums of ``_smaller_before_sums`` over positions lo..hi-1 alone."""
    n = len(word)
    seen = bytearray(n + 1)
    for v in itertools.islice(word, lo):
        seen[v] = 1
    count = seen.count
    ones = itertools.repeat(1)
    size = 1 << _BLOCK_BITS
    block_seen = list(map(count, ones, range(0, n + 1, size), range(size, n + 1 + size, size)))
    shifts = itertools.repeat(_BLOCK_BITS)
    masks = itertools.repeat(-1 << _BLOCK_BITS)
    s1 = s2 = sj = sv = 0
    for start in range(lo, hi, _CHUNK):
        chunk = word[start : min(start + _CHUNK, hi)]
        below_block = list(itertools.accumulate(block_seen, initial=0)).__getitem__
        # Both maps must be consumed before the loop marks this chunk's values.
        below = map(below_block, map(rshift, chunk, shifts))
        marked = map(count, ones, map(and_, chunk, masks), chunk)
        if moments:
            across = list(map(add, below, marked))
        else:
            s1 += sum(below) + sum(marked)
        inside: list[int] = []
        insert = inside.insert
        within: list[int] = []
        append = within.append
        for v in chunk:
            r = bisect_left(inside, v)
            insert(r, v)
            append(r)
            seen[v] = 1
            block_seen[v >> _BLOCK_BITS] += 1
        if not moments:
            s1 += sum(within)
            continue
        a = list(map(add, across, within))
        s1 += sum(a)
        s2 += sum(map(mul, a, a))
        sj += sum(map(mul, a, range(start, start + len(a))))
        sv += sum(map(mul, a, chunk))
    return (s1, s2, sj, sv) if moments else (s1,)


def _second_cpu_free() -> bool:
    """Whether a forked child can run beside this process: ``os.fork`` exists,
    this process may run on two CPUs or more, and no other Python thread runs
    (a child would copy none of them, and could find their locks held).
    ``threading`` is read only if something has imported it already."""
    threading = sys.modules.get("threading")
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) > 1
        and (threading is None or threading.active_count() == 1)
    )


def _forked(
    child: Callable[[], tuple[int, ...]], parent: Callable[[], tuple[int, ...]], size: int
) -> tuple[tuple[int, ...] | None, tuple[int, ...]]:
    """Run ``child`` in a forked process while ``parent`` runs here, and return
    both results.  The child's result is a tuple of ``size`` naturals, sent
    back as decimal text; it is None when the pipe or the fork could not be
    made, or the child did not exit 0 after writing exactly that."""
    try:
        read_end, write_end = os.pipe()
    except OSError:
        return None, parent()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None, parent()
    if pid == 0:
        # The child runs no atexit hook and flushes no inherited buffer.
        code = 1
        try:
            os.close(read_end)
            data = " ".join(map(str, child())).encode()
            while data:
                data = data[os.write(write_end, data) :]
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    exited_0 = False
    with open(read_end, "rb") as pipe:
        try:
            mine = parent()
            text = pipe.read()
        except BaseException:
            import signal

            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            try:
                exited_0 = os.waitpid(pid, 0)[1] == 0
            except ChildProcessError:  # reaped elsewhere, as when SIGCHLD is ignored
                pass
    if not exited_0:
        return None, mine
    try:
        theirs = tuple(map(natural, text.decode("ascii").split(" ")))
    except ValueError:
        return None, mine
    return (theirs if len(theirs) == size else None), mine


def _counts_from_heads(word: tuple[int, ...], k: int) -> list[int]:
    """The classical count of every size-k pattern in a permutation word, in
    pattern order, for 3 <= k <= len(word), from its (k-1)-subsets."""
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
    # Smaller entries after each position; n is at most the enum cap here.
    below_after = [sum(map(v.__gt__, word[j + 1 :])) for j, v in enumerate(word)]
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
