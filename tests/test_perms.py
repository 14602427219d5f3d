import itertools
import math
import os
import random
import threading
import time
from fractions import Fraction

import pytest

from permutope import (
    ArityError,
    CapacityError,
    DistinctnessError,
    EmptyError,
    PatternVector,
    Permutation,
    RationalityError,
    SizeError,
    all_patterns,
    build_overlap_graph,
    cocc,
    cocc_proportion,
    direct_sum,
    occ,
    occ_proportion,
    pattern_at,
    proportion_vector,
    repeat_sum,
    standardize,
    substitute,
)
from conftest import point_mass
from oracles import (
    classical_counts_by_subsets,
    classical_counts_small,
    merge_sort_smaller_before,
    naive_cocc,
    naive_occ,
    step_table_by_sorting,
    window_ids_by_walk,
)
from permutope import _heads as heads_module
from permutope import limits
from permutope import perms as perms_module
from permutope.limits import natural
from permutope.rationals import as_fraction

P = Permutation.parse


def random_perm(rng, n):
    word = list(range(1, n + 1))
    rng.shuffle(word)
    return Permutation(tuple(word))


def assert_counts_match(vector, sigma, den, total, naive):
    """Every nonzero entry is ``naive`` count / den and the counts add up to
    ``total``; since the naive counts over all patterns also add up to
    ``total``, every zero entry is then right as well."""
    counts = {p: v * den for p, v in vector.items() if v}
    assert all(c.denominator == 1 for c in counts.values())
    assert sum(counts.values()) == total
    for pattern, count in counts.items():
        assert count == naive(pattern.word, sigma.word), pattern


def all_perms_upto(n):
    for size in range(1, n + 1):
        for word in itertools.permutations(range(1, size + 1)):
            yield Permutation(word)


class TestPermutation:
    def test_word_validation(self):
        with pytest.raises(ValueError):
            Permutation((1, 3))
        with pytest.raises(ValueError):
            Permutation((1, 1, 2))
        with pytest.raises(ValueError):
            Permutation(())

    @pytest.mark.parametrize(
        "word", [(1.0, 2), (2, 1.0), (True, 2), (2, True), ("1", "2"), (1, Fraction(2))]
    )
    def test_non_integer_entries_rejected(self, word):
        with pytest.raises(ValueError, match="not a permutation word"):
            Permutation(word)

    def test_text_format_small_and_large(self):
        assert str(P("312")) == "312"
        big = repeat_sum(2, P("12345"))
        assert str(big) == "1,2,3,4,5,6,7,8,9,10"
        assert Permutation.parse(str(big)) == big

    def test_parse_rejects_garbage(self):
        for bad in ["", "0", "1a2", "1,2,2"]:
            with pytest.raises(ValueError):
                Permutation.parse(bad)

    # int() reads each of these forms, so each part is held to ASCII digits
    # first, the rule as_fraction applies to entry strings.
    @pytest.mark.parametrize("text", ["٣٢١", "3,2,١", "١٢"])
    def test_parse_refuses_non_ascii_digits(self, text):
        with pytest.raises(ValueError, match="not a permutation word"):
            Permutation.parse(text)

    @pytest.mark.parametrize("text", ["2,1_0,1,3,4,5,6,7,8,9", "1_0,1,2,3,4,5,6,7,8,9"])
    def test_parse_refuses_underscores(self, text):
        with pytest.raises(ValueError, match="not a permutation word"):
            Permutation.parse(text)

    @pytest.mark.parametrize("text", ["+1,2", "2,+1", "-1,1,2", "+1"])
    def test_parse_refuses_signs(self, text):
        with pytest.raises(ValueError, match="not a permutation word"):
            Permutation.parse(text)

    def test_parse_keeps_spaces_around_parts(self):
        assert Permutation.parse(" 3, 1 ,2 ") == P("312")

    def test_all_patterns_is_lexicographic(self):
        assert [str(p) for p in all_patterns(3)] == ["123", "132", "213", "231", "312", "321"]

    def test_equality_hash_and_order_follow_the_word(self):
        a, b = P("132"), P("213")
        assert (a < b, a <= b, a != b) == (True, True, True)
        assert not (a > b or a >= b or a == b)
        assert P("132") == a and hash(P("132")) == hash(a) == hash((a.word,))
        assert sorted([b, a, P("1")]) == [P("1"), a, b]
        assert a != (1, 3, 2) and a.__lt__((1, 3, 2)) is NotImplemented


class TestStandardize:
    def test_worked_example(self):
        assert standardize((7, 3, 6)) == P("312")

    def test_identity(self):
        assert standardize((1, 2, 3)) == P("123")

    def test_mixed_numeric_types(self):
        assert standardize((10, -2, 3.5, 0)) == P("4132")
        assert standardize((Fraction(1, 2), Fraction(1, 3))) == P("21")

    def test_errors(self):
        with pytest.raises(DistinctnessError):
            standardize((1, 2, 1))
        with pytest.raises(EmptyError):
            standardize(())


class TestPatternAt:
    def test_worked_example(self):
        assert pattern_at(P("87532461"), (2, 4, 7)) == P("312")

    def test_full_index_set(self):
        sigma = P("35142")
        assert pattern_at(sigma, range(1, 6)) == sigma

    def test_prefix_window(self):
        assert pattern_at(P("628451793"), (1, 2, 3, 4)) == P("3142")

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            pattern_at(P("123"), (1, 4))
        with pytest.raises(EmptyError):
            pattern_at(P("123"), ())


class TestStepTable:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
    def test_value_shifts_match_sorting(self, k):
        assert perms_module._step_table(k) == step_table_by_sorting(k)


class TestPatternStrings:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_every_pattern_spelled_as_str(self, k):
        assert list(perms_module._pattern_strings(k)) == [str(p) for p in all_patterns(k)]

    def test_comma_spelling_past_size_nine(self):
        # Only the first 1,000 words: nothing of size 10! is built.
        words = itertools.islice(itertools.permutations(range(1, 11)), 1000)
        strings = itertools.islice(perms_module._pattern_strings(10), 1000)
        assert list(strings) == [str(Permutation(w)) for w in words]


class TestWindowKernel:
    """Consecutive window ids from the packed-lane kernel against the walk
    that takes one step per window, id for id and in order."""

    # Both sides of each lane-type switch: 16-bit lanes hold values up to
    # 2**15 - 1 below their flag bit, 32-bit lanes the larger ones.
    LANE_EDGES = (2**15 - 1, 2**15, 2**16 + 1)
    # One full pass of windows, and one more window in a second pass.
    PASS_EDGES = (perms_module._LANES, perms_module._LANES + 1)

    @staticmethod
    def assert_matches_walk(word, k):
        expected = window_ids_by_walk(word, k)
        assert list(perms_module._window_ids(word, k)) == expected, (len(word), k)

    def test_every_permutation_up_to_size_7(self):
        for n in range(2, 8):
            for word in itertools.permutations(range(1, n + 1)):
                for k in range(2, n + 1):
                    self.assert_matches_walk(word, k)

    @pytest.mark.parametrize("k", range(2, limits.VECTOR_K_CAP + 1))
    def test_seeded_sizes_across_lane_types(self, k):
        rng = random.Random(k)
        for n in (k, k + 1, *(w + k - 1 for w in self.PASS_EDGES), *self.LANE_EDGES):
            self.assert_matches_walk(random_perm(rng, n).word, k)

    @pytest.mark.parametrize("k", range(2, limits.VECTOR_K_CAP + 1))
    def test_monotone_words_give_the_extreme_ids(self, k):
        for n in (k, 100, self.LANE_EDGES[1]):
            rising = tuple(range(1, n + 1))
            assert list(perms_module._window_ids(rising, k)) == [0] * (n - k + 1)
            assert list(perms_module._window_ids(rising[::-1], k)) == [
                math.factorial(k) - 1
            ] * (n - k + 1)

    @pytest.mark.parametrize("k", [2, 3, 5, 7])
    def test_walk_and_counts_read_the_same_ids(self, k):
        rng = random.Random(100 + k)
        og = build_overlap_graph(k)
        for n in (k, 50, 3000):
            sigma = random_perm(rng, n)
            expected = window_ids_by_walk(sigma.word, k)
            assert og.walk_of(sigma).edge_ids == tuple(expected)
            counts = perms_module._cocc_counts(sigma, k)
            assert sum(counts) == n - k + 1
            assert counts == [expected.count(eid) for eid in range(math.factorial(k))]


class TestCounts:
    def test_occ_examples(self):
        assert occ(P("12"), P("231")) == 1
        assert occ(P("21"), P("231")) == 2
        sigma = P("35142")
        assert occ(sigma, sigma) == 1

    def test_cocc_examples(self):
        assert cocc(P("12"), P("231")) == 1
        assert cocc(P("3142"), P("628451793")) == 1
        assert cocc(P("4312"), P("4312")) == 1

    def test_size_errors(self):
        with pytest.raises(SizeError):
            occ(P("123"), P("12"))
        with pytest.raises(SizeError):
            cocc(P("123"), P("12"))

    def test_proportions(self):
        assert occ_proportion(P("12"), P("231")) == Fraction(1, 3)
        assert cocc_proportion(P("12"), P("231")) == Fraction(1, 3)
        assert cocc_proportion(P("123"), P("123456")) == Fraction(4, 6)

    def test_occ_fast_path_matches_enumeration_on_long_input(self):
        rng = random.Random(7)
        word = list(range(1, 101))
        rng.shuffle(word)
        sigma = Permutation(tuple(word))
        for pattern in all_patterns(3):
            assert occ(pattern, sigma) == naive_occ(pattern.word, sigma.word)


class TestProportionVector:
    def test_classical_k2(self):
        vec = proportion_vector(2, P("12"), "classical")
        assert vec[P("12")] == 1 and vec[P("21")] == 0

    def test_consecutive_k2(self):
        vec = proportion_vector(2, P("21"), "consecutive")
        assert vec[P("12")] == 0 and vec[P("21")] == Fraction(1, 2)

    def test_consecutive_matches_windows_of_worked_example(self):
        vec = proportion_vector(4, P("628451793"), "consecutive")
        hits = {p: v for p, v in vec.items() if v != 0}
        assert hits == {
            P(w): Fraction(1, 9) for w in ["3142", "1423", "4231", "2314", "2134", "1342"]
        }
        vec3 = proportion_vector(3, P("628451793"), "consecutive")
        assert vec3[P("213")] == Fraction(2, 9)
        assert vec3[P("231")] == Fraction(2, 9)
        assert vec3[P("321")] == 0

    def test_sums(self):
        rng = random.Random(11)
        for n in (5, 8, 12):
            word = list(range(1, n + 1))
            rng.shuffle(word)
            sigma = Permutation(tuple(word))
            for k in (1, 2, 3):
                assert proportion_vector(k, sigma, "classical").total() == 1
                assert proportion_vector(k, sigma, "consecutive").total() == Fraction(n - k + 1, n)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            proportion_vector(2, P("12"), "sideways")

    @pytest.mark.parametrize("kind", ["classical", "consecutive"])
    def test_vector_cap_checked_before_counting(self, monkeypatch, kind):
        def refuse(*args):
            raise AssertionError("counted before the size checks")

        monkeypatch.setattr(heads_module, "classical_counts", refuse)
        monkeypatch.setattr(perms_module, "_cocc_counts", refuse)
        sigma = Permutation.identity(limits.VECTOR_K_CAP + 5)
        with pytest.raises(CapacityError, match="pattern vectors"):
            proportion_vector(limits.VECTOR_K_CAP + 1, sigma, kind)
        with pytest.raises(ValueError):
            proportion_vector(0, sigma, kind)
        # occ and cocc read the same k!-entry count lists, under the same cap
        count = occ if kind == "classical" else cocc
        with pytest.raises(CapacityError, match="pattern vectors"):
            count(Permutation.identity(limits.VECTOR_K_CAP + 1), sigma)


class TestAgreementWithNaiveEnumerator:
    """The library counters against a from-the-definition enumerator.

    Exhaustive over all permutations of size <= 6 for k <= 4 and over all of
    size 7 for the order-statistic fast paths (k <= 3); size 8 is covered by
    a large seeded sample to keep the suite inside its time budget.
    """

    def test_exhaustive_small(self):
        for sigma in all_perms_upto(6):
            n = len(sigma)
            for k in range(1, min(4, n) + 1):
                classical = proportion_vector(k, sigma, "classical")
                consecutive = proportion_vector(k, sigma, "consecutive")
                for pattern in all_patterns(k):
                    assert classical[pattern] == Fraction(
                        naive_occ(pattern.word, sigma.word), math.comb(n, k)
                    )
                    assert consecutive[pattern] == Fraction(
                        naive_cocc(pattern.word, sigma.word), n
                    )

    def _check_fast_paths(self, word):
        sigma = Permutation(word)
        n = len(word)
        for k in (2, 3):
            counts = proportion_vector(k, sigma, "classical")
            for pattern in all_patterns(k):
                assert counts[pattern] == Fraction(
                    naive_occ(pattern.word, sigma.word), math.comb(n, k)
                )
            assert cocc(P("12" if k == 2 else "213"), sigma) == naive_cocc(
                (1, 2) if k == 2 else (2, 1, 3), word
            )

    def test_exhaustive_fast_paths_size_7(self):
        for word in itertools.permutations(range(1, 8)):
            self._check_fast_paths(word)

    def test_sampled_fast_paths_size_8(self):
        rng = random.Random(8)
        for _ in range(3000):
            word = list(range(1, 9))
            rng.shuffle(word)
            self._check_fast_paths(tuple(word))

    @pytest.mark.parametrize("n", [7, 8])
    def test_sampled_k4(self, n):
        rng = random.Random(100 + n)
        for _ in range(200):
            word = list(range(1, n + 1))
            rng.shuffle(word)
            sigma = Permutation(tuple(word))
            vec = proportion_vector(4, sigma, "classical")
            for pattern in all_patterns(4):
                assert vec[pattern] == Fraction(
                    naive_occ(pattern.word, sigma.word), math.comb(n, 4)
                )
                assert cocc(pattern, sigma) == naive_cocc(pattern.word, sigma.word)

    def test_consecutive_window_scan_random(self):
        rng = random.Random(1910)
        for k in (1, 2, 5, 6, 7):
            for n in (k, k + 1, rng.randint(k, 400)):
                sigma = random_perm(rng, n)
                vec = proportion_vector(k, sigma, "consecutive")
                assert_counts_match(vec, sigma, n, n - k + 1, naive_cocc)

    @pytest.mark.parametrize("k, sizes", [(4, (12, 16, 20)), (5, (12, 14))])
    def test_classical_subset_enumeration_random(self, k, sizes):
        rng = random.Random(2233 + k)
        for n in sizes:
            sigma = random_perm(rng, n)
            vec = proportion_vector(k, sigma, "classical")
            den = math.comb(n, k)
            assert_counts_match(vec, sigma, den, den, naive_occ)

    def test_count_sums(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(4, 10)
            word = list(range(1, n + 1))
            rng.shuffle(word)
            sigma = Permutation(tuple(word))
            for k in range(1, 5):
                occ_total = sum(
                    occ(pattern, sigma) for pattern in all_patterns(k)
                )
                cocc_total = sum(cocc(pattern, sigma) for pattern in all_patterns(k))
                assert occ_total == math.comb(n, k)
                assert cocc_total == n - k + 1


class TestChunkedClassicalKernel:
    """Classical k = 2, 3 counts at sizes that cross the kernel's position
    chunks and value blocks, against the merge-sort oracle and, up to size
    60, the from-the-definition enumerator."""

    EDGE_SIZES = (1, 2, 3, 127, 128, 129, 511, 512, 513, 1023, 1024, 1025, 4097)

    @staticmethod
    def assert_sums_match_oracle(word):
        """The k = 3 sums (of a, a^2, a * j and a * v, j 0-based) and the
        k = 2 sum of a, with a the merge-sort smaller-before counts."""
        a = merge_sort_smaller_before(word)
        expected = (
            sum(a),
            sum(x * x for x in a),
            sum(x * j for j, x in enumerate(a)),
            sum(x * v for x, v in zip(a, word)),
        )
        assert heads_module._smaller_before_sums(word, True) == expected, word
        assert heads_module._smaller_before_sums(word, False) == expected[:1], word

    def assert_vectors_match_oracle(self, sigma):
        n = len(sigma)
        expected = classical_counts_small(sigma.word)
        for k in (2, 3):
            if k > n:
                continue
            vector = proportion_vector(k, sigma, "classical")
            assert vector.total() == 1
            den = math.comb(n, k)
            assert {p.word: v * den for p, v in vector.items()} == {
                p: c for p, c in expected.items() if len(p) == k
            }

    def test_constants_are_the_edges_crossed(self):
        assert heads_module._CHUNK == 512 and 1 << heads_module._BLOCK_BITS == 128

    def test_edge_sizes(self):
        rng = random.Random(90)
        for n in self.EDGE_SIZES:
            sigma = random_perm(rng, n)
            self.assert_sums_match_oracle(sigma.word)
            self.assert_vectors_match_oracle(sigma)

    def test_sums_on_every_permutation_up_to_size_7(self):
        for n in range(1, 8):
            for word in itertools.permutations(range(1, n + 1)):
                self.assert_sums_match_oracle(word)

    def test_sums_on_rising_and_falling_words(self):
        for n in self.EDGE_SIZES:
            rising = tuple(range(1, n + 1))
            self.assert_sums_match_oracle(rising)
            self.assert_sums_match_oracle(rising[::-1])

    def test_size_three_against_the_enumerator(self):
        # every permutation up to size 6, then ten random ones of each size to 30
        rng = random.Random(92)
        for n in range(3, 31):
            if n <= 6:
                words = itertools.permutations(range(1, n + 1))
            else:
                words = [rng.sample(range(1, n + 1), n) for _ in range(10)]
            for word in words:
                word = tuple(word)
                assert heads_module.classical_counts(word, 3) == heads_module._counts_from_heads(
                    word, 3
                )

    def test_against_naive_up_to_60(self):
        rng = random.Random(91)
        for n in (1, 2, 3, 9, 17, 40, 60):
            sigma = random_perm(rng, n)
            for k in (2, 3) if n <= 40 else (2,):
                if k <= n:
                    assert_counts_match(
                        proportion_vector(k, sigma, "classical"),
                        sigma,
                        math.comb(n, k),
                        math.comb(n, k),
                        naive_occ,
                    )

    def test_seeded_random_sizes(self):
        rng = random.Random(92)
        for _ in range(6):
            n = int(math.exp(rng.uniform(0, math.log(20_000))))
            self.assert_vectors_match_oracle(random_perm(rng, n))

    @pytest.mark.parametrize("k", [2, 3])
    def test_identity_and_reversal_at_200000(self, k):
        n = 200_000
        rising = Permutation.identity(n)
        falling = Permutation(rising.word[::-1])
        others = [0] * (math.factorial(k) - 1)
        assert proportion_vector(k, rising, "classical").values_by_pattern() == [1, *others]
        assert proportion_vector(k, falling, "classical").values_by_pattern() == [*others, 1]


class TestSplitSweep:
    """The k <= 3 sweep of a word of ``_SPLIT`` entries or more, in two halves
    at once with the first in a forked child, gives the one-process sums,
    falls back to sweeping the first half here when the child cannot help,
    forks nothing while another thread runs, and leaves no child behind."""

    SPLIT = heads_module._SPLIT

    @pytest.fixture
    def forks(self, monkeypatch):
        """Splits whenever the word is long enough, and records each fork."""
        calls = []
        fork = os.fork

        def counted():
            calls.append(1)
            return fork()

        monkeypatch.setattr(heads_module, "_second_cpu_free", lambda: True)
        monkeypatch.setattr(os, "fork", counted)
        return calls

    @staticmethod
    def word(n):
        return random_perm(random.Random(n), n).word

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("n", [SPLIT - 1, SPLIT, SPLIT + 1, 3 * SPLIT + 3])
    def test_sums_across_the_threshold(self, forks, monkeypatch, n):
        # this process sweeps only the second half when the child's sums arrive
        here = []
        sweep = heads_module._sweep
        parent = os.getpid()

        def recorded(word, lo, hi, moments):
            if os.getpid() == parent:
                here.append((lo, hi))
            return sweep(word, lo, hi, moments)

        monkeypatch.setattr(heads_module, "_sweep", recorded)
        TestChunkedClassicalKernel.assert_sums_match_oracle(self.word(n))
        split = n >= self.SPLIT
        assert len(forks) == (2 if split else 0)
        assert here == [(n // 2 if split else 0, n)] * 2
        self.assert_no_child_left()

    @pytest.mark.parametrize("call", ["fork", "pipe"])
    def test_same_sums_when_the_fork_fails(self, forks, monkeypatch, call):
        def refuse(*args):
            raise OSError("no more processes")

        monkeypatch.setattr(os, call, refuse)
        TestChunkedClassicalKernel.assert_sums_match_oracle(self.word(self.SPLIT + 1))
        self.assert_no_child_left()

    def test_same_sums_when_the_child_exits_without_writing(self, forks, monkeypatch):
        parent = os.getpid()
        sweep = heads_module._sweep

        def failing_in_the_child(*args):
            if os.getpid() != parent:
                raise RuntimeError("the child ends in os._exit(1) and writes nothing")
            return sweep(*args)

        monkeypatch.setattr(heads_module, "_sweep", failing_in_the_child)
        TestChunkedClassicalKernel.assert_sums_match_oracle(self.word(self.SPLIT + 1))
        assert len(forks) == 2
        self.assert_no_child_left()

    def test_child_is_reaped_when_this_sweep_raises(self, forks, monkeypatch):
        parent = os.getpid()
        sweep = heads_module._sweep

        def failing_here(word, lo, hi, moments):
            if os.getpid() != parent:
                time.sleep(60)  # a child still at work: it is killed, not awaited
            elif lo > 0:
                raise MemoryError("the second half")
            return sweep(word, lo, hi, moments)

        monkeypatch.setattr(heads_module, "_sweep", failing_here)
        start = time.perf_counter()
        with pytest.raises(MemoryError, match="the second half"):
            heads_module._smaller_before_sums(self.word(self.SPLIT), True)
        assert time.perf_counter() - start < 10
        assert len(forks) == 1
        self.assert_no_child_left()

    def test_no_fork_while_another_thread_runs(self, monkeypatch):
        def refuse():
            raise AssertionError("forked beside a running thread")

        monkeypatch.setattr(os, "fork", refuse)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            TestChunkedClassicalKernel.assert_sums_match_oracle(self.word(self.SPLIT))
        finally:
            release.set()
            other.join(timeout=30)
        assert not other.is_alive()
        self.assert_no_child_left()


class TestHeadKernel:
    """Classical k >= 4 counts, built from (k-1)-subsets and one later
    point, against the argsort-per-subset oracle and, on short words, the
    from-the-definition counter."""

    @staticmethod
    def kernel(word, k):
        return heads_module._counts_from_heads(tuple(word), k)

    @pytest.mark.parametrize("k", [4, 5])
    def test_every_permutation_up_to_size_7(self, k):
        for n in range(k, 8):
            for word in itertools.permutations(range(1, n + 1)):
                assert self.kernel(word, k) == classical_counts_by_subsets(word, k), word

    @pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
    def test_seeded_sizes(self, k):
        # The oracle takes C(n, k) steps: C(30, 8) is 5.9 million, so k = 7
        # and 8 stop at n = 24.  At k = 6 and n = 30 the C(28, 4) = 20,475
        # heads that end at position 29 take five batches.
        assert math.comb(28, 4) > 4 * heads_module._BATCH
        rng = random.Random(1800 + k)
        patterns = all_patterns(k)
        for n in (k, k + 1, 12, 20, 30 if k <= 6 else 24):
            word = rng.sample(range(1, n + 1), n)
            counts = self.kernel(word, k)
            assert counts == classical_counts_by_subsets(word, k), (n, word)
            assert sum(counts) == math.comb(n, k)
            if n <= 12:
                for i in {0, len(patterns) - 1, rng.randrange(len(patterns))}:
                    assert counts[i] == naive_occ(patterns[i].word, word), (n, word, i)

    @pytest.mark.parametrize("batch", [1, 2, 7])
    def test_small_batches(self, monkeypatch, batch):
        # a batch of one head, batches that split every head list, and a
        # tally folded after nearly every batch
        monkeypatch.setattr(heads_module, "_BATCH", batch)
        rng = random.Random(1807 + batch)
        for k in (3, 4, 5, 6):
            for n in (k, k + 1, 11):
                word = rng.sample(range(1, n + 1), n)
                assert self.kernel(word, k) == classical_counts_by_subsets(word, k), (k, word)

    @pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
    def test_monotone_words(self, k):
        for n in (k, 30 if k <= 6 else 16):
            rising = list(range(1, n + 1))
            only = [0] * (math.factorial(k) - 1)
            assert self.kernel(rising, k) == [math.comb(n, k), *only]
            assert self.kernel(rising[::-1], k) == [*only, math.comb(n, k)]


class TestCompositions:
    def test_direct_sum_examples(self):
        assert direct_sum(P("21"), P("12")) == P("2134")
        assert direct_sum(P("312"), P("21")) == P("31254")
        assert repeat_sum(3, P("1")) == P("123")

    def test_repeat_sum_empty(self):
        with pytest.raises(EmptyError):
            repeat_sum(0, P("1"))
        with pytest.raises(EmptyError):
            direct_sum()

    def test_direct_sum_associative_exhaustive(self):
        perms = list(all_perms_upto(4))
        for a in perms:
            for b in perms:
                ab = direct_sum(a, b)
                for c in perms:
                    abc = direct_sum(a, b, c)
                    assert direct_sum(ab, c) == direct_sum(a, direct_sum(b, c)) == abc

    def test_substitute_examples(self):
        assert substitute(P("21"), [P("12"), P("1")]) == P("231")
        sigma = P("35142")
        assert substitute(P("1"), [sigma]) == sigma

    def test_substitute_of_12_is_direct_sum(self):
        perms = list(all_perms_upto(6))
        twelve = P("12")
        # direct_sum is itself substitute over 12, so compare with the
        # word-level definition: b's values shifted above a's.
        for a in perms:
            for b in perms:
                assert substitute(twelve, [a, b]).word == a.word + tuple(v + len(a) for v in b.word)

    def test_substitute_arity(self):
        with pytest.raises(ArityError):
            substitute(P("21"), [P("1")])

    def test_substitution_window_patterns(self):
        # A pattern inside one inflated block survives substitution.
        inner = P("3142")
        outer = P("21")
        combined = substitute(outer, [inner, inner])
        assert cocc(P("3142"), combined) >= 2


class TestPatternVector:
    def test_uniform_and_point_mass(self):
        u = PatternVector.uniform(3)
        assert u.total() == 1 and u[P("312")] == Fraction(1, 6)
        pm = point_mass(P("21"))
        assert pm[P("21")] == 1 and pm[P("12")] == 0

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            PatternVector(2, {P("12"): 1})
        with pytest.raises(ValueError):
            PatternVector(2, {P("12"): 2, P("21"): -1})

    @pytest.mark.parametrize(
        "first, second, message",
        [
            (Fraction(-1, 2), Fraction(3, 2), "entry for 12 not in [0, 1]: -1/2"),
            (Fraction(3, 2), Fraction(-1, 2), "entry for 12 not in [0, 1]: 3/2"),
            (Fraction(1, 2), Fraction(3, 2), "entry for 21 not in [0, 1]: 3/2"),
        ],
    )
    def test_out_of_range_message(self, first, second, message):
        with pytest.raises(ValueError) as info:
            PatternVector(2, {P("12"): first, P("21"): second})
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            PatternVector.from_values(2, [first, second])
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            PatternVector.from_json_dict({"k": 2, "entries": {"12": str(first), "21": str(second)}})
        assert str(info.value) == message

    def test_out_of_range_message_at_k7(self):
        values = [Fraction(1, 5040)] * 5040
        values[5039] = Fraction(-1, 3)
        with pytest.raises(ValueError, match=r"^entry for 7654321 not in \[0, 1\]: -1/3$"):
            PatternVector.from_values(7, values)
        with pytest.raises(ValueError, match="^expected 5040 entries, got 5039$"):
            PatternVector.from_values(7, values[1:])

    @pytest.mark.parametrize("k", [0, -1])
    def test_sizes_below_one_rejected(self, k):
        for build in (PatternVector.uniform, lambda k: PatternVector.from_values(k, [1])):
            with pytest.raises(ValueError, match="^pattern size must be >= 1$"):
                build(k)

    def test_k7_vectors_build_no_patterns(self):
        # uniform, from_values and from_json_dict name the k! patterns by
        # their strings, so they never call all_patterns.
        before = all_patterns.cache_info()
        u = PatternVector.uniform(7)
        assert PatternVector.from_values(7, u.values_by_pattern()) == u
        assert PatternVector.from_json_dict(u.to_json_dict()) == u
        after = all_patterns.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_missing_and_extra_entry_messages(self):
        with pytest.raises(ValueError, match="^missing entry for pattern 21$"):
            PatternVector(2, {P("12"): 1})
        with pytest.raises(ValueError, match=r"^entries outside S_2: \['1'\]$"):
            PatternVector(2, {P("12"): 1, P("21"): 0, P("1"): 0})

    def test_entry_past_the_int_digit_limit_is_quoted_by_its_size(self):
        # str() refuses ints over the interpreter's 4,300-digit limit
        for value, size in (
            (10**5000, "a 5001-digit integer"),
            (-(10**4400), "a negative 4401-digit integer"),
        ):
            with pytest.raises(ValueError, match=rf"^entry for 12 not in \[0, 1\]: {size}$"):
                PatternVector.from_values(2, [value, 0])

    def test_floats_rejected(self):
        with pytest.raises(RationalityError):
            PatternVector(2, {P("12"): 0.5, P("21"): 0.5})

    @pytest.mark.parametrize(
        "data",
        [
            [1, 2, 3],
            "uniform",
            {"entries": {"12": "1/2", "21": "1/2"}},
            {"k": 2},
            {"k": 2, "entries": ["1/2", "1/2"]},
            {"k": [2], "entries": {"12": "1/2", "21": "1/2"}},
        ],
    )
    def test_malformed_json_is_value_error(self, data):
        with pytest.raises(ValueError):
            PatternVector.from_json_dict(data)

    @pytest.mark.parametrize(
        "text, value",
        [
            ("1e10000000", None),
            ("0.25", None),
            ("1_0", None),
            ("1 / 2", None),
            ("3/-4", None),
            ("", None),
            ("-3/4", Fraction(-3, 4)),
            (" 1/2 ", Fraction(1, 2)),
            ("+6/4", Fraction(3, 2)),
            ("007", Fraction(7)),
        ],
    )
    def test_rational_text_grammar(self, text, value):
        # an optional sign, digits and an optional /digits; nothing else is read
        if value is not None:
            assert as_fraction(text) == value
            return
        start = time.perf_counter()
        with pytest.raises(RationalityError, match="optional sign, digits and an optional non-zero /digits"):
            as_fraction(text)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("text", ["٣", "1_0", "+3", "-3", " 3", "3 ", "", "0x3", "9" * 5000])
    def test_natural_reads_ascii_digits_alone(self, text):
        # int() reads the first six; the last is past its digit limit
        with pytest.raises(ValueError, match="use ASCII digits only") as info:
            natural(text)
        assert len(str(info.value)) < 200
        assert natural("007") == 7 and natural("0") == 0

    @pytest.mark.parametrize("k", ["٣", "1_0", "+3", "", "3.0"])
    def test_string_k_is_ascii_digits(self, k):
        with pytest.raises(ValueError, match="pattern vector 'k' is not an integer"):
            PatternVector.from_json_dict({"k": k, "entries": {}})
        assert PatternVector.from_json_dict({"k": "2", "entries": {"12": 1, "21": 0}}).k == 2

    @pytest.mark.parametrize(
        "entry", ["9" * 4000, "9" * 5000, "1/" + "0" * 5000], ids=["4000", "5000", "over_zero"]
    )
    def test_long_entry_refusal_quotes_a_prefix(self, entry):
        # 4,000 digits parse and lie outside [0, 1]; 5,000 pass the
        # interpreter's digit limit; the last is a zero denominator
        with pytest.raises((ValueError, RationalityError)) as info:
            PatternVector.from_json_dict({"k": 2, "entries": {"12": entry, "21": "0"}})
        assert len(str(info.value)) < 200 and entry[:30] in str(info.value)

    def test_zero_denominator_is_rationality_error(self):
        with pytest.raises(RationalityError):
            PatternVector.from_json_dict({"k": 2, "entries": {"12": "1/0", "21": "1/2"}})

    def test_json_keys_other_than_pattern_names(self):
        thirds = PatternVector(2, {P("12"): Fraction(1, 3), P("21"): Fraction(2, 3)})
        comma = {"k": 2, "entries": {"1,2": "1/3", " 21": "2/3"}}
        assert PatternVector.from_json_dict(comma) == thirds
        # a later key naming the same pattern wins, as in a dict keyed by pattern
        twice = {"k": 2, "entries": {"12": "0", "21": "2/3", "1,2": "1/3"}}
        assert PatternVector.from_json_dict(twice) == thirds
        malformed = {"k": 2, "entries": {"12": "2", "1x": "1/2", "21": "1/2"}}
        with pytest.raises(ValueError, match="^not a permutation word: '1x'$"):
            PatternVector.from_json_dict(malformed)
        extra = {"k": 2, "entries": {"12": "1", "21": "0", "1": "0", "231": "0"}}
        with pytest.raises(ValueError, match=r"^entries outside S_2: \['1', '231'\]$"):
            PatternVector.from_json_dict(extra)
        # a missing entry is reported before a bad one later in pattern order
        # and before an extra key
        missing = {"k": 3, "entries": {"123": "1", "321": "2", "1": "0"}}
        with pytest.raises(ValueError, match="^missing entry for pattern 132$"):
            PatternVector.from_json_dict(missing)

    def test_json_k_errors_come_after_key_errors(self):
        with pytest.raises(ValueError, match="^not a permutation word: 'x'$"):
            PatternVector.from_json_dict({"k": 9, "entries": {"x": "1"}})
        with pytest.raises(CapacityError, match="vector cap"):
            PatternVector.from_json_dict({"k": 9, "entries": {"123456789": "1"}})
        with pytest.raises(ValueError, match="^pattern size must be >= 1$"):
            PatternVector.from_json_dict({"k": 0, "entries": {}})

    def test_json_round_trip(self):
        vec = proportion_vector(3, P("628451793"), "consecutive")
        data = vec.to_json_dict()
        assert set(data) == {"k", "entries"}
        assert len(data["entries"]) == 6
        assert PatternVector.from_json_dict(data) == vec

    def test_equal_vectors_hash_equal(self):
        thirds = PatternVector(2, {P("12"): Fraction(1, 3), P("21"): Fraction(2, 3)})
        same = PatternVector.from_values(2, ["2/6", "4/6"])
        assert same == thirds and hash(same) == hash(thirds)
        assert hash(thirds) == hash((2, 3, (1, 2)))
        assert len({thirds, same, PatternVector.uniform(2)}) == 2

    def test_distance(self):
        u = PatternVector.uniform(2)
        pm = point_mass(P("12"))
        assert u.linf_distance(pm) == Fraction(1, 2)
