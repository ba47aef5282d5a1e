"""The modexp kernel under every ``SchnorrGroup.exp`` — libcrypto's
``BN_mod_exp_mont_consttime`` through ctypes, ``pow`` where it is missing.

Every parity test runs against both kernels through the one seam the
module has (``modexp._LIB``, ``None`` = the fallback), so the line a
machine without libcrypto would run is tested on a machine that has it.
The kernel is one loop over ``(base, exponent)`` pairs (``powm_many``; a
single ``powm`` is its one-pair case): parity, the failure model and the
thread hammer below all go through that loop. ``exp_many`` / ``exp_bases``
≡ the loop over ``exp`` is in ``tests/test_modexp_batching.py``.
"""

from __future__ import annotations

import copy
import ctypes
import gc
import pickle
import sys
import threading
import time
from contextlib import contextmanager
from multiprocessing import get_context
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scale
from test_modexp_batching import SCHNORR_GROUPS, by_name, exponents_for

from repro.api.pool import create_executor
from repro.crypto import modexp
from repro.crypto.group import GROUP_256, TOY_GROUP_64, SchnorrGroup
from repro.crypto.modexp import Modulus
from repro.exceptions import CryptoError

BACKENDS = ["libcrypto", "pow"]


@contextmanager
def kernel(backend):
    """Run the body on ``backend``: the fallback by taking the library
    away, the C kernel only where this interpreter has it."""
    if backend == "pow":
        with mock.patch.object(modexp, "_LIB", None):
            yield
    elif modexp.BACKEND != "libcrypto":
        pytest.skip("this interpreter links no libcrypto")
    else:
        yield


def bases_for(group):
    """Elements, non-elements, and integers ``exp`` must reduce first."""
    p = group.p
    return st.one_of(
        st.sampled_from([0, 1, 2, p - 1, p, p + 1, 3 * p - 1, -1, -p, -p - 7]),
        st.integers(min_value=0, max_value=p - 1),
        st.integers(min_value=-3 * p, max_value=3 * p),
    )


# ------------------------------------------------------------------ parity --


def test_backend_is_libcrypto_wherever_ssl_imports():
    """A silent fall back to ``pow`` is a red test, not a slow benchmark."""
    pytest.importorskip("ssl")
    assert modexp.BACKEND == "libcrypto"
    assert modexp._LIB is not None


@pytest.mark.parametrize("backend", BACKENDS)
class TestParityWithPow:
    @pytest.mark.parametrize("group", SCHNORR_GROUPS, ids=by_name)
    @given(data=st.data())
    @settings(max_examples=scale(40), deadline=None)
    def test_exp_equals_pow(self, backend, group, data):
        base = data.draw(bases_for(group))
        exponent = data.draw(exponents_for(group))
        with kernel(backend):
            assert group.exp(base, exponent) == pow(base, exponent % group.order, group.p)

    @pytest.mark.parametrize("group", SCHNORR_GROUPS, ids=by_name)
    def test_edges(self, backend, group):
        p, q = group.p, group.order
        with kernel(backend):
            for base in (0, 1, 2, p - 1, p, p + 2, -1, -p, group.generator):
                for exponent in (0, 1, 2, 15, 16, 255, 256, q - 1, q, q + 3, -1, -q, 2 * q + 1):
                    assert group.exp(base, exponent) == pow(base, exponent % q, p)

    @pytest.mark.parametrize("group", SCHNORR_GROUPS, ids=by_name)
    def test_is_element(self, backend, group):
        p = group.p
        with kernel(backend):
            assert group.is_element(group.power_of_g(12345))
            assert group.is_element(1)
            # p - 1 has order 2 and, p being 3 mod 4, g**k * (p - 1) is a non-residue
            for outsider in (0, p, -1, p - 1, group.power_of_g(7) * (p - 1) % p, 1.0, "1", None):
                assert not group.is_element(outsider)

    def test_a_modulus_powers_any_base_and_only_an_exponent_below_p(self, backend):
        modulus = Modulus(1019)
        with kernel(backend):
            assert [modulus.powm(b, 1018) for b in (0, 1, 5, 1019, -3)] == [0, 1, 1, 0, 1]
            assert modulus.powm(0, 0) == 1
            for exponent in (-1, 1019, 1 << 64):
                with pytest.raises(CryptoError, match="exponent outside"):
                    modulus.powm(2, exponent)

    @pytest.mark.parametrize("p", [0, -7, 1, 2, 4, 1 << 64, -(1 << 80)])
    def test_an_even_or_non_positive_modulus_is_a_typed_error(self, backend, p):
        with kernel(backend), pytest.raises(CryptoError, match="odd modulus"):
            Modulus(p)


def pairs_for(group):
    """Batches with the shapes the callers send — one base under many
    exponents, many bases under one exponent (the shared operand the
    *same object*), and mixed — over bases the kernel must reduce first."""
    p = group.p
    base = st.one_of(
        st.sampled_from([0, 1, p - 1, p, 2 * p, p + 1, -1, -p]),
        st.integers(min_value=-2 * p, max_value=3 * p),
    )
    exponent = st.one_of(
        st.sampled_from([0, 1, 2, group.order, p - 1]), st.integers(min_value=0, max_value=p - 1)
    )
    same_base = st.tuples(base, st.lists(exponent, max_size=6)).map(
        lambda drawn: [(drawn[0], e) for e in drawn[1]]
    )
    same_exponent = st.tuples(st.lists(base, max_size=6), exponent).map(
        lambda drawn: [(b, drawn[1]) for b in drawn[0]]
    )
    mixed = st.lists(st.tuples(base, exponent), max_size=6)
    return st.one_of(same_base, same_exponent, mixed, st.tuples(same_base, mixed).map(sum_lists))


def sum_lists(lists):
    return [pair for batch in lists for pair in batch]


@pytest.mark.parametrize("backend", BACKENDS)
class TestBatchParityWithPow:
    @pytest.mark.parametrize("group", SCHNORR_GROUPS, ids=by_name)
    @given(data=st.data())
    @settings(max_examples=scale(40), deadline=None)
    def test_a_batch_equals_pow_pair_by_pair(self, backend, group, data):
        pairs = data.draw(pairs_for(group))
        with kernel(backend):
            assert group._modulus.powm_many(pairs) == [pow(b, e, group.p) for b, e in pairs]

    @pytest.mark.parametrize("group", SCHNORR_GROUPS, ids=by_name)
    def test_edges(self, backend, group):
        p, q = group.p, group.order
        modulus = group._modulus
        base, exponent = group.power_of_g(77), q // 3
        with kernel(backend):
            assert modulus.powm_many([]) == []
            assert modulus.powm_many(iter([(base, exponent)])) == [pow(base, exponent, p)]
            assert modulus.powm(base, exponent) == pow(base, exponent, p)
            # the same objects again and again, then equal values in new objects
            repeated = [(base, exponent)] * 3 + [(base + 0 * p, int(str(exponent)))] + [(base, 2)]
            assert modulus.powm_many(repeated) == [pow(b, e, p) for b, e in repeated]
            zeros = [(0, 5), (p, 5), (2 * p, 0), (0, 0), (-p, 1)]
            assert modulus.powm_many(zeros) == [0, 0, 1, 1, 0]
            assert modulus.powm_many([(p + 2, 3), (3 * p - 1, 2), (-1, q)]) == [8, 1, p - 1]

    def test_an_exponent_out_of_range_mid_batch_is_a_typed_error(self, backend):
        modulus = Modulus(1019)
        with kernel(backend):
            for exponent in (-1, 1019, 1 << 64):
                with pytest.raises(CryptoError, match="exponent outside"):
                    modulus.powm_many([(2, 3), (2, exponent), (2, 4)])
            assert modulus.powm_many([(2, 3), (2, 1018)]) == [8, 1]


def test_both_kernels_return_identical_lists():
    if modexp.BACKEND != "libcrypto":
        pytest.skip("this interpreter links no libcrypto")
    for group in SCHNORR_GROUPS:
        base = group.power_of_g(4242)
        step = group.order // 104729
        pairs = [(base, (i + 1) * step) for i in range(8)] + [
            (base * (i + 2) % group.p, step) for i in range(8)
        ]
        native = group._modulus.powm_many(pairs)
        with mock.patch.object(modexp, "_LIB", None):
            assert group._modulus.powm_many(pairs) == native


# ----------------------------------------------------------- failure model --


@pytest.mark.skipif(modexp.BACKEND != "libcrypto", reason="needs the C kernel")
class TestForeignCallFailures:
    """Every return code is checked; a refusal is a ``CryptoError`` and the
    call's operands are freed on the way out."""

    class Spy:
        """The real library, recording each call; ``refuse`` replaces one
        symbol's return value without making the call."""

        def __init__(self, refuse=None, returns=None, after=0):
            self._real, self._refuse, self._returns = modexp._LIB, refuse, returns
            self._after = after  # let this many calls of the symbol through first
            self.calls = []

        def __getattr__(self, name):
            real = getattr(self._real, name)

            def call(*args):
                refused = name == self._refuse and self._after <= 0
                if name == self._refuse:
                    self._after -= 1
                result = self._returns if refused else real(*args)
                self.calls.append((name, args, result))
                return result

            return call

        def args_of(self, name):
            return [args for called, args, _result in self.calls if called == name]

        def allocated(self):
            """Every ``BIGNUM`` handed out: ``BN_new``, and ``BN_bin2bn``
            asked to allocate (no destination) rather than to refill."""
            return sorted(
                result
                for called, args, result in self.calls
                if result and (called == "BN_new" or (called == "BN_bin2bn" and args[2] is None))
            )

        def freed(self):
            return sorted(p for (p,) in self.args_of("BN_free") if p)

    @pytest.mark.parametrize(
        "name, returns", [("BN_mod_exp_mont_consttime", 0), ("BN_bn2binpad", -1)]
    )
    def test_a_refused_exponentiation(self, name, returns):
        modulus = Modulus(TOY_GROUP_64.p)
        assert modulus.powm(4, 5) == 1024
        spy = self.Spy(name, returns)
        with mock.patch.object(modexp, "_LIB", spy):
            with pytest.raises(CryptoError, match="libcrypto failed"):
                modulus.powm(4, 5)
        assert len(spy.freed()) == 3 and spy.freed() == spy.allocated()
        assert modulus.powm(4, 5) == 1024

    @pytest.mark.parametrize(
        "name, returns, after",
        [
            ("BN_new", None, 0),
            ("BN_bin2bn", None, 0),  # the first base
            ("BN_bin2bn", None, 1),  # the first exponent
            ("BN_bin2bn", None, 3),  # a refill mid-batch: the old pointer must still be freed
            ("BN_mod_exp_mont_consttime", 0, 2),
            ("BN_bn2binpad", 0, 3),
        ],
    )
    def test_a_refusal_anywhere_in_a_batch_frees_every_operand(
        self, name, returns, after
    ):
        group = TOY_GROUP_64
        modulus = Modulus(group.p)
        base = group.power_of_g(5)
        pairs = [(base, e) for e in (3, 4, 5, 6)] + [(b, 7) for b in (2, 3, 4)]
        want = [pow(b, e, group.p) for b, e in pairs]
        assert modulus.powm_many(pairs) == want
        spy = self.Spy(name, returns, after)
        with mock.patch.object(modexp, "_LIB", spy):
            with pytest.raises(CryptoError, match="libcrypto failed"):
                modulus.powm_many(pairs)
        assert spy.freed() == spy.allocated()
        assert modulus.powm_many(pairs) == want

    def test_an_exponent_out_of_range_mid_batch_frees_every_operand(self):
        modulus = Modulus(TOY_GROUP_64.p)
        modulus.powm(4, 5)
        spy = self.Spy()
        with mock.patch.object(modexp, "_LIB", spy):
            with pytest.raises(CryptoError, match="exponent outside"):
                modulus.powm_many([(4, 5), (9, 6), (9, TOY_GROUP_64.p), (4, 7)])
        assert len(spy.allocated()) == 3 and spy.freed() == spy.allocated()
        assert len(spy.args_of("BN_mod_exp_mont_consttime")) == 2

    def test_a_batch_allocates_three_operands_whatever_its_length(self):
        group = GROUP_256
        modulus = Modulus(group.p)
        modulus.powm(4, 5)
        base = group.power_of_g(5)
        row, column = [(base, e) for e in range(2, 18)], [(b, 9) for b in range(2, 18)]
        for pairs in ([(base, 3)], row, column):
            spy = self.Spy()
            with mock.patch.object(modexp, "_LIB", spy):
                assert modulus.powm_many(pairs) == [pow(b, e, group.p) for b, e in pairs]
            assert len(spy.allocated()) == 3 and spy.freed() == spy.allocated()
            # the shared operand is converted once, the varying one per pair
            assert len(spy.args_of("BN_bin2bn")) == len(pairs) + 1
            assert len(spy.args_of("BN_mod_exp_mont_consttime")) == len(pairs)

    @pytest.mark.parametrize(
        "name, returns", [("BN_MONT_CTX_set", 0), ("BN_CTX_new", None), ("BN_MONT_CTX_new", None)]
    )
    def test_a_refused_context(self, name, returns):
        modulus = Modulus(TOY_GROUP_64.p)
        with mock.patch.object(modexp, "_LIB", self.Spy(name, returns)):
            with pytest.raises(CryptoError, match="Montgomery context"):
                modulus.powm(4, 5)
        assert modulus._native is None  # nothing half-built was kept
        assert modulus.powm(4, 5) == 1024

    def test_the_context_is_built_once_and_freed_with_its_modulus(self):
        spy = self.Spy()
        with mock.patch.object(modexp, "_LIB", spy):
            modulus = Modulus(GROUP_256.p)
            assert modulus._native is None
            assert modulus.powm(4, 5) == 1024 and modulus.powm(4, 6) == 4096
        bignum, ctx, mont = modulus._native
        assert len(spy.args_of("BN_MONT_CTX_set")) == 1
        assert not spy.args_of("BN_MONT_CTX_free")
        del modulus
        gc.collect()
        assert spy.args_of("BN_MONT_CTX_free") == [(mont,)]
        assert spy.args_of("BN_CTX_free") == [(ctx,)]
        assert spy.args_of("BN_free")[-1] == (bignum,)


# ------------------------------------------------------ threads and forks --


def in_forked_child(function, *args):
    """``function(*args)`` in a forked child; a child that dies (a native
    crash included) is an assertion here, not the end of the test run."""
    ctx = get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)

    def main():
        sender.send(function(*args))

    child = ctx.Process(target=main)
    child.start()
    sender.close()
    try:
        assert receiver.poll(60), "the forked child reported nothing"
        return receiver.recv()
    except EOFError:
        child.join(10)
        raise AssertionError(f"the forked child died (exit code {child.exitcode})") from None
    finally:
        child.join(10)
        assert not child.is_alive()


def check_samples(group, seed, count):
    """``count`` full-width exponentiations in this process against ``pow``."""
    base = group.power_of_g(seed)
    exponents = [(seed * 7919 + i) * (group.order // 104729) % group.order for i in range(count)]
    return all(group.exp(base, e) == pow(base, e, group.p) for e in exponents)


def hammer(group, threads=4, rounds=60, budget_s=30.0):
    """``threads`` (more than this box has cores) in a tight loop of single
    ``exp`` calls and whole batches (mixed pairs, one base under a row of
    exponents, a row of bases under one exponent) on one group object with
    the switch interval at its floor; returns the wrong answers and which
    threads finished. A batch is several foreign calls per pair, so the
    interpreter does switch threads inside one; what keeps them apart is
    that a batch's operands are local to its call and the one shared
    ``BN_CTX`` is only entered with the interpreter lock held. Load the
    library with ``CDLL`` and two threads do meet inside it — a wrong answer
    or a crash in libcrypto on most runs of this, not on all, which is why
    the test also pins the loader's type."""
    base = group.power_of_g(99)
    step = group.order // 104729
    table = [(base * (i + 1) % group.p, (i + 3) * step % group.order) for i in range(32)]
    table = [(b, e, pow(b, e, group.p)) for b, e in table]
    pairs = [(b, e) for b, e, _want in table]
    wants = [want for _b, _e, want in table]
    exponents = [e for _b, e in pairs]
    bases = [b for b, _e in pairs]
    row_wants = [pow(base, e, group.p) for e in exponents]
    column_wants = [pow(b, step, group.p) for b in bases]
    wrong, done = [], []
    deadline = time.monotonic() + budget_s

    def work(index):
        for _ in range(rounds):
            wrong.extend((b, e) for b, e, want in table if group.exp(b, e) != want)
            if group._modulus.powm_many(pairs) != wants:
                wrong.append("mixed batch")
            if group.exp_many(base, exponents) != row_wants:
                wrong.append("one base, a row of exponents")
            if group.exp_bases(bases, step) != column_wants:
                wrong.append("a row of bases, one exponent")
            if time.monotonic() > deadline:
                return
        done.append(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(index,)) for index in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(budget_s + 10)
    finally:
        sys.setswitchinterval(interval)
    return wrong, sorted(done), [worker.is_alive() for worker in workers]


class TestThreadsAndProcesses:
    def test_threads_hammering_one_group_agree_with_pow(self):
        if modexp.BACKEND == "libcrypto":
            assert isinstance(modexp._LIB, ctypes.PyDLL)  # CDLL drops the lock per call
        GROUP_256.exp(4, 5)
        wrong, done, alive = in_forked_child(hammer, GROUP_256)
        assert wrong == []
        assert done == [0, 1, 2, 3]
        assert alive == [False] * 4

    def test_a_forked_child_computes_after_the_parent_used_the_group(self):
        for group in (TOY_GROUP_64, GROUP_256):
            assert check_samples(group, 3, 20)
            assert in_forked_child(check_samples, group, 5, 200)
            assert check_samples(group, 7, 20)  # and the parent's context is unharmed

    def test_a_pre_forked_service_worker_computes(self):
        assert check_samples(GROUP_256, 11, 20)
        executor = create_executor(2)
        try:
            futures = [
                executor.submit(check_samples, group, seed, 100)
                for seed in (13, 17, 19)
                for group in (TOY_GROUP_64, GROUP_256)
            ]
            assert all(future.result(timeout=60) for future in futures)
        finally:
            executor.shutdown()


# ------------------------------------------------------- pickle / deepcopy --


class TestCopies:
    @pytest.mark.parametrize("group", SCHNORR_GROUPS, ids=by_name)
    def test_a_used_named_group_restores_as_the_named_instance(self, group):
        group.exp(group.generator, 5)
        assert pickle.loads(pickle.dumps(group)) is group
        assert copy.deepcopy(group) is group
        assert copy.deepcopy({"group": group})["group"] is group

    def test_a_used_group_carries_no_pointer(self):
        def build():
            return SchnorrGroup(GROUP_256.p, GROUP_256.order, 16, name="unnamed-256")

        used = build()
        assert used.exp(16, 3) == 4096
        if modexp.BACKEND == "libcrypto":
            assert used._modulus._native is not None
        assert pickle.dumps(used) == pickle.dumps(build())
        for clone in (pickle.loads(pickle.dumps(used)), copy.deepcopy(used)):
            assert clone is not used and clone._modulus is not used._modulus
            assert clone._modulus._native is None
            assert clone.exp(16, 3) == 4096

    def test_a_modulus_copies_by_value(self):
        modulus = Modulus(GROUP_256.p)
        modulus.powm(2, 10)
        for clone in (copy.copy(modulus), copy.deepcopy(modulus), pickle.loads(pickle.dumps(modulus))):
            assert (clone.p, clone._native) == (modulus.p, None)
            assert clone.powm(2, 10) == 1024
