"""The modexp kernels under every ``SchnorrGroup.exp`` — GMP's
``mpn_sec_powm`` up to 256 bits, libcrypto's ``BN_mod_exp_mont_consttime``
above, ``pow`` where neither loads — all through ctypes.

Every parity test runs against all three kernels on all four named
groups through the module's two seams (``modexp._GMP`` and
``modexp._LIB``, ``None`` = missing; ``conftest.modexp_kernel``), so the
line a machine without a library would run is tested on a machine that
has it, and the GMP kernel is checked at 512 bits too. Each kernel is
one loop over every base × exponent (``powm_grid``; a single ``powm`` is
its 1×1 case): parity, the failure model and the thread hammers below
all go through that loop. ``exp_grid`` ≡ the loop over ``exp`` is in
``tests/test_modexp_batching.py``.
"""

from __future__ import annotations

import copy
import ctypes
import gc
import pickle
import sys
import threading
import time
from multiprocessing import get_context
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MODEXP_KERNELS, modexp_kernel, scale
from test_modexp_batching import SCHNORR_GROUPS, by_name, exponents_for

from repro.api.pool import create_executor
from repro.crypto import modexp
from repro.crypto.group import GROUP_256, GROUP_512, TOY_GROUP_64, SchnorrGroup
from repro.crypto.modexp import Modulus
from repro.exceptions import CryptoError

BACKENDS = MODEXP_KERNELS
#: the kernels this interpreter can run
AVAILABLE = [
    backend
    for backend, lib in zip(BACKENDS, (modexp._GMP, modexp._LIB, pow))
    if lib is not None
]


def kernel(backend, *owners):
    """``conftest.modexp_kernel`` on the moduli of ``owners`` (groups or
    moduli): under ``gmp`` even the 512-bit group runs on GMP."""
    return modexp_kernel(backend, *(getattr(o, "_modulus", o) for o in owners))


class LibrarySpy:
    """A library, recording each call; ``refuse`` replaces one symbol's
    return value without making the call."""

    def __init__(self, real, refuse=None, returns=None, after=0):
        self._real, self._refuse, self._returns = real, refuse, returns
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


def bases_for(group):
    """Elements, non-elements, and integers ``exp`` must reduce first."""
    p = group.p
    return st.one_of(
        st.sampled_from([0, 1, 2, p - 1, p, p + 1, 3 * p - 1, -1, -p, -p - 7]),
        st.integers(min_value=0, max_value=p - 1),
        st.integers(min_value=-3 * p, max_value=3 * p),
    )


# ------------------------------------------------------------------ parity --


def test_libcrypto_loads_wherever_ssl_imports():
    """A silent fall back to ``pow`` is a red test, not a slow benchmark."""
    pytest.importorskip("ssl")
    assert modexp._LIB is not None
    assert GROUP_512._modulus.kernel == "libcrypto"


def test_the_width_rule_wherever_both_libraries_load():
    """Up to 256 bits on GMP, wider on libcrypto: a machine that lost
    libgmp is a red test here, not a quietly slower benchmark."""
    if modexp._GMP is None or modexp._LIB is None:
        pytest.skip("this interpreter cannot load both libraries")
    assert isinstance(modexp._GMP, ctypes.PyDLL)
    assert modexp._LIMB_BYTES in (4, 8)
    kernels = [group._modulus.kernel for group in SCHNORR_GROUPS]
    assert kernels == ["gmp", "gmp", "gmp", "libcrypto"]
    widths = (3, (1 << 256) - 189, (1 << 256) + 297)  # 2, 256 and 257 bits
    assert [Modulus(p).kernel for p in widths] == ["gmp", "gmp", "libcrypto"]


def test_without_gmp_every_modulus_runs_libcrypto():
    if modexp._LIB is None:
        pytest.skip("this interpreter links no libcrypto")
    with mock.patch.object(modexp, "_GMP", None):
        assert {group._modulus.kernel for group in SCHNORR_GROUPS} == {"libcrypto"}
        assert GROUP_256.exp(4, 5) == 1024 and GROUP_256._modulus._native is not None


@pytest.mark.parametrize("backend", BACKENDS)
class TestParityWithPow:
    @pytest.mark.parametrize("group", SCHNORR_GROUPS, ids=by_name)
    @given(data=st.data())
    @settings(max_examples=scale(40), deadline=None)
    def test_exp_equals_pow(self, backend, group, data):
        base = data.draw(bases_for(group))
        exponent = data.draw(exponents_for(group))
        with kernel(backend, group):
            assert group.exp(base, exponent) == pow(base, exponent % group.order, group.p)

    @pytest.mark.parametrize("group", SCHNORR_GROUPS, ids=by_name)
    def test_edges(self, backend, group):
        p, q = group.p, group.order
        with kernel(backend, group):
            for base in (0, 1, 2, p - 1, p, p + 2, -1, -p, group.generator):
                for exponent in (0, 1, 2, 15, 16, 255, 256, q - 1, q, q + 3, -1, -q, 2 * q + 1):
                    assert group.exp(base, exponent) == pow(base, exponent % q, p)

    @pytest.mark.parametrize("group", SCHNORR_GROUPS, ids=by_name)
    def test_is_element(self, backend, group):
        p = group.p
        with kernel(backend, group):
            assert group.is_element(group.power_of_g(12345))
            assert group.is_element(1)
            # p - 1 has order 2 and, p being 3 mod 4, g**k * (p - 1) is a non-residue
            for outsider in (0, p, -1, p - 1, group.power_of_g(7) * (p - 1) % p, 1.0, "1", None):
                assert not group.is_element(outsider)

    def test_a_modulus_powers_any_base_and_only_an_exponent_below_p(self, backend):
        modulus = Modulus(1019)
        with kernel(backend, modulus):
            assert [modulus.powm(b, 1018) for b in (0, 1, 5, 1019, -3)] == [0, 1, 1, 0, 1]
            assert modulus.powm(0, 0) == 1
            for exponent in (-1, 1019, 1 << 64):
                with pytest.raises(CryptoError, match="exponent outside"):
                    modulus.powm(2, exponent)

    @pytest.mark.parametrize("p", [0, -7, 1, 2, 4, 1 << 64, -(1 << 80)])
    def test_an_even_or_non_positive_modulus_is_a_typed_error(self, backend, p):
        with kernel(backend), pytest.raises(CryptoError, match="odd modulus"):
            Modulus(p)

    @pytest.mark.parametrize("group", SCHNORR_GROUPS, ids=by_name)
    def test_the_named_edges(self, backend, group):
        """Exponents 0, 1, q−1, p−1 on bases 0, 1, p−1, ≥ p and negative."""
        p, q = group.p, group.order
        bases = [0, 1, p - 1, p, p + 5, 2 * p - 1, -1, -5, -p]
        exponents = [0, 1, q - 1, p - 1]
        with kernel(backend, group):
            grid = group._modulus.powm_grid(bases, exponents)
        assert grid == pow_grid(bases, exponents, p)
        assert grid[0] == [1, 0, 0, 0] and grid[1] == [1, 1, 1, 1]
        assert grid[2] == [1, p - 1, 1, 1]  # q − 1 and p − 1 are even


def grids_for(group):
    """Grids with the shapes the callers send — one base under a row of
    exponents, a row of bases under one exponent, n×m, and empty — over
    bases the kernel must reduce first."""
    p = group.p
    base = st.one_of(
        st.sampled_from([0, 1, p - 1, p, 2 * p, p + 1, -1, -p]),
        st.integers(min_value=-2 * p, max_value=3 * p),
    )
    exponent = st.one_of(
        st.sampled_from([0, 1, 2, group.order, p - 1]), st.integers(min_value=0, max_value=p - 1)
    )
    row = st.tuples(base.map(lambda b: [b]), st.lists(exponent, max_size=6))
    column = st.tuples(st.lists(base, max_size=6), exponent.map(lambda e: [e]))
    grid = st.tuples(st.lists(base, max_size=4), st.lists(exponent, max_size=4))
    return st.one_of(row, column, grid)


def pow_grid(bases, exponents, p):
    return [[pow(b, e, p) for e in exponents] for b in bases]


@pytest.mark.parametrize("backend", BACKENDS)
class TestBatchParityWithPow:
    @pytest.mark.parametrize("group", SCHNORR_GROUPS, ids=by_name)
    @given(data=st.data())
    @settings(max_examples=scale(40), deadline=None)
    def test_a_batch_equals_pow_pair_by_pair(self, backend, group, data):
        bases, exponents = data.draw(grids_for(group))
        with kernel(backend, group):
            assert group._modulus.powm_grid(bases, exponents) == pow_grid(bases, exponents, group.p)

    @pytest.mark.parametrize("group", SCHNORR_GROUPS, ids=by_name)
    def test_edges(self, backend, group):
        p, q = group.p, group.order
        modulus = group._modulus
        base, exponent = group.power_of_g(77), q // 3
        with kernel(backend, group):
            assert modulus.powm_grid([], []) == []
            assert modulus.powm_grid([], [exponent]) == []
            assert modulus.powm_grid([base, 2], []) == [[], []]
            assert modulus.powm_grid((base,), (exponent,)) == [[pow(base, exponent, p)]]
            assert modulus.powm(base, exponent) == pow(base, exponent, p)
            # the same objects again and again, then equal values in new objects
            bases = [base] * 3 + [base + 0 * p]
            exponents = [exponent] * 2 + [int(str(exponent)), 2]
            assert modulus.powm_grid(bases, exponents) == pow_grid(bases, exponents, p)
            zeros = modulus.powm_grid([0, p, 2 * p, -p], [5, 0, 1])
            assert zeros == [[0, 1, 0]] * 4
            grid = modulus.powm_grid([p + 2, 3 * p - 1, -1], [3, 2, q])
            assert (grid[0][0], grid[1][1], grid[2][2]) == (8, 1, p - 1)
            assert grid == pow_grid([2, p - 1, p - 1], [3, 2, q], p)

    def test_an_exponent_out_of_range_mid_batch_is_a_typed_error(self, backend):
        modulus = Modulus(1019)
        with kernel(backend, modulus):
            for exponent in (-1, 1019, 1 << 64):
                for bases in ([2], [2, 3], []):
                    with pytest.raises(CryptoError, match="exponent outside"):
                        modulus.powm_grid(bases, [3, exponent, 4])
            assert modulus.powm_grid([2], [3, 1018]) == [[8, 1]]

    @pytest.mark.parametrize("group", SCHNORR_GROUPS, ids=by_name)
    def test_an_exponent_out_of_range_is_refused_before_any_foreign_call(self, backend, group):
        modulus = Modulus(group.p)
        with kernel(backend, modulus):
            spies = {name: LibrarySpy(getattr(modexp, name)) for name in ("_GMP", "_LIB")}
            with mock.patch.multiple(modexp, **spies):
                for bad in (-1, group.p, group.p << 70):
                    with pytest.raises(CryptoError, match="exponent outside"):
                        modulus.powm_grid([4, 9], [5, 6, bad, 7])
        assert [spy.calls for spy in spies.values()] == [[], []]
        assert modulus._native is None


def test_every_kernel_returns_identical_lists():
    for group in SCHNORR_GROUPS:
        base = group.power_of_g(4242)
        step = group.order // 104729
        bases = [base * (i + 2) % group.p for i in range(8)]
        exponents = [(i + 1) * step for i in range(8)]
        for shape in (([base], exponents), (bases, [step]), (bases, exponents)):
            grids = []
            for backend in AVAILABLE:
                with kernel(backend, group):
                    grids.append(group._modulus.powm_grid(*shape))
            assert grids == [pow_grid(*shape, group.p)] * len(AVAILABLE)


# ----------------------------------------------------------- failure model --


@pytest.mark.skipif(modexp._LIB is None, reason="needs libcrypto")
class TestForeignCallFailures:
    """Every libcrypto return code is checked; a refusal is a
    ``CryptoError`` and the call's operands are freed on the way out.
    GMP is hidden throughout, so every modulus runs on libcrypto."""

    @pytest.fixture(autouse=True)
    def libcrypto_only(self):
        with mock.patch.object(modexp, "_GMP", None):
            yield

    class Spy(LibrarySpy):
        """The real libcrypto, recording each call."""

        def __init__(self, refuse=None, returns=None, after=0):
            super().__init__(modexp._LIB, refuse, returns, after)

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
            ("BN_bin2bn", None, 0),  # the first exponent
            ("BN_bin2bn", None, 1),  # the second: the first must still be freed
            ("BN_bin2bn", None, 2),  # the first base
            ("BN_bin2bn", None, 3),  # a refill mid-grid: the old pointer must still be freed
            ("BN_mod_exp_mont_consttime", 0, 2),
            ("BN_bn2binpad", 0, 3),
        ],
    )
    def test_a_refusal_anywhere_in_a_batch_frees_every_operand(
        self, name, returns, after
    ):
        group = TOY_GROUP_64
        modulus = Modulus(group.p)
        bases, exponents = [group.power_of_g(5), 2, 3, 4], [3, 7]
        want = [[pow(b, e, group.p) for e in exponents] for b in bases]
        assert modulus.powm_grid(bases, exponents) == want
        spy = self.Spy(name, returns, after)
        with mock.patch.object(modexp, "_LIB", spy):
            with pytest.raises(CryptoError, match="libcrypto failed"):
                modulus.powm_grid(bases, exponents)
        assert spy.freed() == spy.allocated()
        assert modulus.powm_grid(bases, exponents) == want

    def test_a_fault_mid_grid_frees_every_operand(self):
        """A ladder refused half-way through a 4×16 grid: every exponent,
        the base and the result are freed, and no later cell runs."""
        group = GROUP_256
        modulus = Modulus(group.p)
        bases = [group.power_of_g(n) for n in range(5, 9)]
        exponents = [group.order // n for n in range(3, 19)]
        modulus.powm(4, 5)
        spy = self.Spy("BN_mod_exp_mont_consttime", 0, after=37)
        with mock.patch.object(modexp, "_LIB", spy):
            with pytest.raises(CryptoError, match="libcrypto failed"):
                modulus.powm_grid(bases, exponents)
        assert len(spy.allocated()) == 16 + 2 and spy.freed() == spy.allocated()
        assert len(spy.args_of("BN_mod_exp_mont_consttime")) == 38
        assert len(spy.args_of("BN_bin2bn")) == 16 + 3  # bases 0, 1, 2 reached
        assert modulus.powm_grid(bases, exponents) == pow_grid(bases, exponents, group.p)

    def test_an_exponent_out_of_range_mid_batch_frees_every_operand(self):
        modulus = Modulus(TOY_GROUP_64.p)
        modulus.powm(4, 5)
        spy = self.Spy()
        with mock.patch.object(modexp, "_LIB", spy):
            with pytest.raises(CryptoError, match="exponent outside"):
                modulus.powm_grid([4, 9], [5, 6, TOY_GROUP_64.p, 7])
        # refused before anything native is touched
        assert spy.calls == []

    def test_a_grid_converts_each_operand_once(self):
        group = GROUP_256
        modulus = Modulus(group.p)
        modulus.powm(4, 5)
        base = group.power_of_g(5)
        row, column = list(range(2, 18)), [group.power_of_g(n) for n in range(2, 18)]
        for bases, exponents in (([base], [3]), ([base], row), (column, [9]), (column[:4], row[:4])):
            spy = self.Spy()
            with mock.patch.object(modexp, "_LIB", spy):
                assert modulus.powm_grid(bases, exponents) == pow_grid(bases, exponents, group.p)
            # every exponent, one base refilled per row, one result
            assert len(spy.allocated()) == len(exponents) + 2
            assert spy.freed() == spy.allocated()
            assert len(spy.args_of("BN_bin2bn")) == len(bases) + len(exponents)
            assert len(spy.args_of("BN_mod_exp_mont_consttime")) == len(bases) * len(exponents)

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


# --------------------------------------------------------------- GMP path --


@pytest.mark.skipif(modexp._GMP is None, reason="needs libgmp")
class TestGmpKernel:
    """One ``mpn_sec_powm`` per cell, on buffers each grid allocates for
    itself; what a call is told about sizes never follows an exponent."""

    @pytest.mark.parametrize("group", SCHNORR_GROUPS, ids=by_name)
    def test_every_call_gets_the_same_sizes_whatever_the_exponents(self, group):
        p, q = group.p, group.order
        bases = [0, 1, group.power_of_g(5), p - 1, -3]
        exponents = [0, 1, 2, 255, 1 << 40, q // 3, q - 1, p - 1]
        modulus = Modulus(p)
        spy = LibrarySpy(modexp._GMP)
        with kernel("gmp", modulus), mock.patch.object(modexp, "_GMP", spy):
            assert modulus.powm_grid(bases, exponents) == pow_grid(bases, exponents, p)
        enb = p.bit_length()
        limbs = -(-enb // (8 * modexp._LIMB_BYTES))
        calls = spy.args_of("__gmpn_sec_powm")  # (rp, bp, bn, ep, enb, mp, n, tp)
        assert len(calls) == len(bases) * len(exponents)
        assert {(bn, enb_, n) for _r, _b, bn, _e, enb_, _m, n, _t in calls} == {(limbs, enb, limbs)}
        # every operand zero-padded to the modulus's limbs, one result and
        # one scratch for the whole grid
        size = limbs * modexp._LIMB_BYTES
        assert {(len(b), len(e), len(m)) for _r, b, _bn, e, _enb, m, _n, _t in calls} == {
            (size, size, size)
        }
        assert len({id(r) for r, *_rest in calls}) == 1
        assert len({id(t) for *_rest, t in calls}) == 1
        assert spy.args_of("__gmpn_sec_powm_itch") == [(limbs, enb, limbs)]
        assert modulus._native is None

    def test_each_grid_allocates_its_own_buffers(self):
        modulus = Modulus(TOY_GROUP_64.p)
        spy = LibrarySpy(modexp._GMP)
        with mock.patch.object(modexp, "_GMP", spy):
            assert modulus.powm_grid([4], [5]) == modulus.powm_grid([4], [5]) == [[1024]]
            assert modulus.powm_grid([], [5]) == [] and modulus.powm_grid([4], []) == [[]]
        first, second = spy.args_of("__gmpn_sec_powm")
        assert first[0] is not second[0] and first[7] is not second[7]
        assert modulus._native is None


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
    ``exp`` calls and whole grids (1×n, n×1, n×m and empty) on one group
    object with the switch interval at its floor; returns the wrong answers
    and which threads finished. A grid is one (GMP) or two (libcrypto)
    foreign calls per cell, so the interpreter does switch threads inside
    one; what keeps them apart is that a grid's operands, result and
    scratch are local to its call, and libcrypto's one shared ``BN_CTX``
    is only entered with the interpreter lock held. Load libcrypto with
    ``CDLL`` and two threads do meet inside it — a wrong answer or a crash
    on most runs of this, not on all, which is why the test also pins the
    loader's type."""
    base = group.power_of_g(99)
    step = group.order // 104729
    table = [(base * (i + 1) % group.p, (i + 3) * step % group.order) for i in range(32)]
    table = [(b, e, pow(b, e, group.p)) for b, e in table]
    bases = [b for b, _e, _want in table]
    exponents = [e for _b, e, _want in table]
    shapes = [
        ([base], exponents),
        (bases, [step]),
        (bases[:8], exponents[:6]),
        ([], exponents),
        (bases, []),
    ]
    wants = [pow_grid(b, e, group.p) for b, e in shapes]
    wrong, done = [], []
    deadline = time.monotonic() + budget_s

    def work(index):
        for _ in range(rounds):
            wrong.extend((b, e) for b, e, want in table if group.exp(b, e) != want)
            for (b, e), want in zip(shapes, wants):
                if group.exp_grid(b, e) != want:
                    wrong.append(f"a {len(b)}x{len(e)} grid")
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
    """A forked child inherits the parent's kernel choice (the patched
    seams included), so each C kernel is hammered and forked in turn."""

    @pytest.mark.parametrize("backend", ["gmp", "libcrypto"])
    def test_threads_hammering_one_group_agree_with_pow(self, backend):
        with kernel(backend, GROUP_256):
            library = modexp._GMP if backend == "gmp" else modexp._LIB
            assert isinstance(library, ctypes.PyDLL)  # CDLL drops the lock per call
            GROUP_256.exp(4, 5)
            wrong, done, alive = in_forked_child(hammer, GROUP_256)
        assert wrong == []
        assert done == [0, 1, 2, 3]
        assert alive == [False] * 4

    @pytest.mark.parametrize("backend", ["gmp", "libcrypto"])
    def test_a_forked_child_computes_after_the_parent_used_the_group(self, backend):
        with kernel(backend, TOY_GROUP_64, GROUP_256):
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

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_used_group_carries_no_pointer(self, backend):
        def build():
            return SchnorrGroup(GROUP_256.p, GROUP_256.order, 16, name="unnamed-256")

        used = build()
        with kernel(backend, used):
            assert used.exp(16, 3) == 4096
        # only libcrypto keeps a context, and GMP has nothing native to keep
        assert (used._modulus._native is not None) == (backend == "libcrypto")
        assert pickle.dumps(used) == pickle.dumps(build())
        for clone in (pickle.loads(pickle.dumps(used)), copy.deepcopy(used)):
            assert clone is not used and clone._modulus is not used._modulus
            assert clone._modulus._native is None
            assert clone.exp(16, 3) == 4096

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_modulus_copies_by_value(self, backend):
        modulus = Modulus(GROUP_256.p)
        with kernel(backend, modulus):
            modulus.powm(2, 10)
        for clone in (copy.copy(modulus), copy.deepcopy(modulus), pickle.loads(pickle.dumps(modulus))):
            assert (clone.p, clone._native) == (modulus.p, None)
            assert clone.powm(2, 10) == 1024
