"""Tests for the deterministic RNG."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scale

from repro.crypto.rng import DeterministicRNG


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = DeterministicRNG(1234)
        b = DeterministicRNG(1234)
        assert [a.randbits(16) for _ in range(50)] == [b.randbits(16) for _ in range(50)]

    def test_different_seeds_diverge(self):
        a = DeterministicRNG(1)
        b = DeterministicRNG(2)
        assert [a.randbits(32) for _ in range(8)] != [b.randbits(32) for _ in range(8)]

    def test_seed_types_accepted(self):
        for seed in (0, b"bytes", "string", 2**128):
            assert isinstance(DeterministicRNG(seed).randbits(8), int)

    def test_fork_streams_differ_from_parent(self):
        parent = DeterministicRNG(7)
        child = parent.fork("child")
        assert [parent.randbits(32) for _ in range(8)] != [
            child.randbits(32) for _ in range(8)
        ]

    def test_repeated_forks_differ(self):
        parent = DeterministicRNG(7)
        first = parent.fork("gmw")
        second = parent.fork("gmw")
        assert [first.randbits(32) for _ in range(4)] != [
            second.randbits(32) for _ in range(4)
        ]

    def test_fork_reproducible_across_runs(self):
        def sequence():
            parent = DeterministicRNG(7)
            return [parent.fork("x").randbits(32) for _ in range(4)]

        assert sequence() == sequence()


class TestRanges:
    def test_randbits_in_range(self):
        rng = DeterministicRNG(0)
        for k in (1, 7, 8, 9, 63, 64, 65):
            for _ in range(20):
                assert 0 <= rng.randbits(k) < (1 << k)

    def test_randbits_zero(self):
        assert DeterministicRNG(0).randbits(0) == 0

    def test_randbits_negative_raises(self):
        with pytest.raises(ValueError):
            DeterministicRNG(0).randbits(-1)

    def test_randbelow_covers_support(self):
        rng = DeterministicRNG(3)
        seen = {rng.randbelow(5) for _ in range(200)}
        assert seen == {0, 1, 2, 3, 4}

    def test_randbelow_invalid(self):
        with pytest.raises(ValueError):
            DeterministicRNG(0).randbelow(0)

    def test_randrange_two_arg(self):
        rng = DeterministicRNG(4)
        for _ in range(50):
            assert 10 <= rng.randrange(10, 20) < 20

    def test_randrange_empty(self):
        with pytest.raises(ValueError):
            DeterministicRNG(0).randrange(5, 5)

    def test_random_unit_interval(self):
        rng = DeterministicRNG(5)
        values = [rng.random() for _ in range(100)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.3 < sum(values) / len(values) < 0.7

    def test_randbytes_length(self):
        rng = DeterministicRNG(6)
        for n in (0, 1, 31, 32, 33, 100):
            assert len(rng.randbytes(n)) == n

    def test_randbytes_negative(self):
        with pytest.raises(ValueError):
            DeterministicRNG(0).randbytes(-1)

    def test_stream_is_pinned(self):
        """Every seeded result in the repository hangs off this stream: a
        faster ``randbytes`` must not move one byte of it."""
        digest = hashlib.sha256(DeterministicRNG(0).randbytes(100_000)).hexdigest()
        assert digest == "4e7c7c867fb3bfcab44595b1eed7eda6c5865788ddf9c8747da947955b40aa39"

    def test_chunked_reads_equal_one_whole_read(self):
        """The bulk path (a request larger than the buffer) and the
        buffered path interleave without dropping or repeating a byte,
        across block boundaries (a block is 32 bytes)."""
        sizes = [1, 31, 32, 33, 1000, 0, 64, 7] * 12
        whole = DeterministicRNG(9).randbytes(sum(sizes))
        chunked = DeterministicRNG(9)
        assert b"".join(chunked.randbytes(n) for n in sizes) == whole
        assert chunked.randbytes(40) == DeterministicRNG(9).randbytes(sum(sizes) + 40)[-40:]

    @pytest.mark.parametrize("skip", [0, 1, 13, 32])
    def test_randoms_equal_sequential_random_calls(self, skip):
        """One read for ``count`` uniforms: value for value, and the same
        state afterwards, wherever in a block the read starts."""
        for count in (0, 1, 2, 9, 96, 500):
            batched, sequential = DeterministicRNG(12), DeterministicRNG(12)
            batched.randbytes(skip), sequential.randbytes(skip)
            assert batched.randoms(count) == [sequential.random() for _ in range(count)]
            assert batched.getstate() == sequential.getstate()

    def test_fork_consumes_exactly_32_parent_bytes(self):
        forked = DeterministicRNG(10)
        forked.fork("label")
        skipped = DeterministicRNG(10)
        skipped.randbytes(32)
        assert forked.randbytes(48) == skipped.randbytes(48)


class TestDerive:
    def test_derive_leaves_the_parent_where_it_was(self):
        parent = DeterministicRNG(13)
        parent.randbytes(5)  # mid-block, with buffered bytes
        state = parent.getstate()
        parent.derive("gmw", 0, 7).randbytes(100)
        assert parent.getstate() == state

    def test_equal_labels_give_equal_streams_wherever_the_parent_stands(self):
        early, late = DeterministicRNG(13), DeterministicRNG(13)
        late.randbytes(1000)
        late.fork("moves the position")
        assert early.derive("gmw", 3, 1).randbytes(64) == late.derive("gmw", 3, 1).randbytes(64)

    def test_distinct_label_tuples_give_distinct_streams(self):
        parent = DeterministicRNG(13)
        tuples = [
            (),
            ("ab", "c"),
            ("a", "bc"),
            ("abc",),
            (1,),
            ("1",),
            (b"1",),
            (1, 2),
            (12,),
            (-1,),
            (255,),
            (256,),
            ("gmw", 0, 1),
            ("gmw", 1, 0),
            ("gmw", 0, 1, 0),
        ]
        streams = {labels: parent.derive(*labels).randbytes(32) for labels in tuples}
        assert len(set(streams.values())) == len(tuples)
        assert DeterministicRNG(14).derive("ab", "c").randbytes(32) != streams[("ab", "c")]

    def test_derived_reads_do_not_depend_on_chunking(self):
        sizes = [1, 31, 32, 33, 500, 0, 7] * 5
        whole = DeterministicRNG(15).derive("x", 1).randbytes(sum(sizes))
        chunked = DeterministicRNG(15).derive("x", 1)
        assert b"".join(chunked.randbytes(n) for n in sizes) == whole

    def test_unsupported_label_refused(self):
        with pytest.raises(TypeError):
            DeterministicRNG(0).derive(1.5)


class TestCollections:
    def test_shuffle_is_permutation(self):
        rng = DeterministicRNG(8)
        items = list(range(30))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # astronomically unlikely to be identity

    def test_sample_distinct(self):
        rng = DeterministicRNG(9)
        sample = rng.sample(list(range(20)), 10)
        assert len(sample) == len(set(sample)) == 10

    def test_sample_too_large(self):
        with pytest.raises(ValueError):
            DeterministicRNG(0).sample([1, 2], 3)

    def test_choice_empty(self):
        with pytest.raises(ValueError):
            DeterministicRNG(0).choice([])

    def test_choice_member(self):
        rng = DeterministicRNG(10)
        population = ["a", "b", "c"]
        assert rng.choice(population) in population


class TestStatistics:
    def test_bit_balance(self):
        rng = DeterministicRNG(11)
        ones = sum(rng.randbit() for _ in range(4000))
        assert 1800 < ones < 2200

    @given(st.integers(min_value=2, max_value=1000))
    @settings(max_examples=scale(30))
    def test_randbelow_bound_property(self, bound):
        rng = DeterministicRNG(bound)
        for _ in range(10):
            assert 0 <= rng.randbelow(bound) < bound
