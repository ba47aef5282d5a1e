"""Modular exponentiation in C: GMP's ``mpn_sec_powm`` up to 256 bits,
libcrypto's ``BN_mod_exp_mont_consttime`` above, ``pow`` where neither loads.

There is one loop, :meth:`Modulus.powm_grid`, ``b**e`` for every base ×
exponent; ``powm`` is its 1×1 case. Each :class:`Modulus` picks its
kernel from the width of its modulus (:data:`_GMP_MAX_BITS`, next to the
measured table that sets it) and :attr:`Modulus.kernel` names it; both
C kernels are side-channel silent ladders, whose multiplications and
memory accesses do not follow the exponent's bits. Each library is
loaded once at import, by soname, with ``PyDLL``: every foreign call
holds the interpreter lock. Nothing — config, environment, flag —
selects a kernel; a missing library or symbol falls through to the next.

*GMP* (little-endian hosts). One foreign call per cell, on buffers
Python owns and allocates per grid: the operands as little-endian limbs
(limb size from ``__gmp_bits_per_limb``), one result and a scratch sized
by ``mpn_sec_powm_itch``. Every exponent is zero-padded to the modulus's
limb count and passed with the same ``enb`` (the modulus's width), so
neither the time nor the cache pattern of a call follows the exponent's
value. No native state, nothing to free, no finalizer: two threads or a
forked child share nothing.

*libcrypto* (wider moduli, or every one without GMP), the copy
``hashlib`` and ``ssl`` already map. One Montgomery context per modulus,
built on first use and freed by a finalizer; operand ``BIGNUM``s and the
output buffer are allocated per call and freed in one ``finally``. The
per-modulus ``BN_CTX`` — the one native state a call writes to — is only
entered under the interpreter lock, so two threads never meet in it.
"""

from __future__ import annotations

import ctypes
import sys
import weakref
from ctypes import c_char, c_char_p, c_int, c_long, c_ulong, c_void_p
from typing import Dict, List, NoReturn, Optional, Sequence, Tuple

from repro.exceptions import CryptoError

__all__ = ["Modulus"]

_SONAMES = ("libcrypto.so.3", "libcrypto.so.1.1", "libcrypto.3.dylib", "libcrypto.1.1.dylib")
_GMP_SONAMES = ("libgmp.so.10", "libgmp.10.dylib")

#: name -> (restype, *argtypes) of every libcrypto symbol this module calls
_SYMBOLS = {
    "BN_new": (c_void_p,),
    "BN_bin2bn": (c_void_p, c_char_p, c_int, c_void_p),
    "BN_bn2binpad": (c_int, c_void_p, c_char_p, c_int),
    "BN_free": (None, c_void_p),
    "BN_CTX_new": (c_void_p,),
    "BN_CTX_free": (None, c_void_p),
    "BN_MONT_CTX_new": (c_void_p,),
    "BN_MONT_CTX_set": (c_int, c_void_p, c_void_p, c_void_p),
    "BN_MONT_CTX_free": (None, c_void_p),
    "BN_mod_exp_mont_consttime": (c_int,) + (c_void_p,) * 6,
}

#: mpn_sec_powm(rp, bp, bn, ep, enb, mp, n, tp) and the size of its scratch tp
_GMP_SYMBOLS = {
    "__gmpn_sec_powm": (None, c_char_p, c_char_p, c_long, c_char_p, c_ulong)
    + (c_char_p, c_long, c_char_p),
    "__gmpn_sec_powm_itch": (c_long, c_long, c_ulong, c_long),
}

#: The widest modulus (bits) that runs on GMP; wider ones run on libcrypto.
#: µs per exponentiation inside a 16×3 grid, best of 45 rounds with the
#: kernels alternating in one process (2-core x86-64 VM, GMP 6.2.1,
#: OpenSSL 3.0):
#:   bits         64    160    256    512
#:   GMP         3.2    7.7   15.7   79.3
#:   libcrypto   8.1   11.6   19.8   64.9
_GMP_MAX_BITS = 256


def _load(sonames: Sequence[str], symbols: Dict[str, tuple]) -> Optional[ctypes.PyDLL]:
    for soname in sonames:
        try:
            lib = ctypes.PyDLL(soname)
            for name, (restype, *argtypes) in symbols.items():
                function = getattr(lib, name)
                function.restype, function.argtypes = restype, argtypes
        except (OSError, AttributeError):
            continue
        return lib
    return None


def _load_libcrypto() -> Optional[ctypes.PyDLL]:
    try:
        # maps the interpreter's own libcrypto, so opening it by soname
        # below returns that copy and runs no ``find_library`` subprocess
        import _hashlib  # noqa: F401
    except ImportError:
        return None
    return _load(_SONAMES, _SYMBOLS)


def _load_gmp() -> Tuple[Optional[ctypes.PyDLL], int]:
    """The library and its limb size in bytes; none on a big-endian host."""
    lib = _load(_GMP_SONAMES, _GMP_SYMBOLS) if sys.byteorder == "little" else None
    if lib is not None:
        try:
            return lib, c_int.in_dll(lib, "__gmp_bits_per_limb").value // 8
        except ValueError:  # no such symbol
            pass
    return None, 0


_LIB = _load_libcrypto()
_GMP, _LIMB_BYTES = _load_gmp()


def _free_native(lib: ctypes.PyDLL, modulus: int, ctx: int, mont: int) -> None:
    lib.BN_MONT_CTX_free(mont)
    lib.BN_CTX_free(ctx)
    lib.BN_free(modulus)


def _refuse() -> NoReturn:
    raise CryptoError("libcrypto failed a modular exponentiation")


def _gmp_grid(
    gmp: ctypes.PyDLL, p: int, bases: Sequence[int], exponents: Sequence[int]
) -> List[List[int]]:
    """The grid on ``mpn_sec_powm``: the same ``bn``, ``enb`` and ``n`` in every call."""
    enb = p.bit_length()
    limbs = -(-enb // (8 * _LIMB_BYTES))
    size = limbs * _LIMB_BYTES
    sec_powm = gmp.__gmpn_sec_powm
    modulus = p.to_bytes(size, "little")
    scratch = (c_char * (gmp.__gmpn_sec_powm_itch(limbs, enb, limbs) * _LIMB_BYTES))()
    out = (c_char * size)()
    padded = [exponent.to_bytes(size, "little") for exponent in exponents]
    from_bytes = int.from_bytes
    grid: List[List[int]] = []
    for base in bases:
        b = (base % p).to_bytes(size, "little")
        row = []
        for e in padded:
            sec_powm(out, b, limbs, e, enb, modulus, limbs, scratch)
            row.append(from_bytes(out, "little"))
        grid.append(row)
    return grid


class Modulus:
    """An odd modulus ``p >= 3``; ``powm(b, e)`` is ``b**e mod p``."""

    def __init__(self, p: int) -> None:
        if p < 3 or p % 2 == 0:
            raise CryptoError("modular exponentiation needs an odd modulus >= 3")
        self.p = p
        self._size = (p.bit_length() + 7) // 8
        self._narrow = p.bit_length() <= _GMP_MAX_BITS
        #: (modulus BIGNUM, BN_CTX, BN_MONT_CTX), built by the first libcrypto call
        self._native: Optional[Tuple[int, int, int]] = None

    def __reduce__(self):
        return Modulus, (self.p,)  # a copy builds its own context: no pointer travels

    @property
    def kernel(self) -> str:
        """``"gmp"``, ``"libcrypto"`` or ``"pow"``: what runs this modulus's ladders."""
        if self._narrow and _GMP is not None:
            return "gmp"
        return "libcrypto" if _LIB is not None else "pow"

    def powm(self, base: int, exponent: int) -> int:
        """``base**exponent mod p`` for any integer base and ``0 <= exponent < p``."""
        return self.powm_grid((base,), (exponent,))[0][0]

    def powm_grid(self, bases: Sequence[int], exponents: Sequence[int]) -> List[List[int]]:
        """``[[b**e mod p for e in exponents] for b in bases]``, any integer
        bases, every ``0 <= e < p`` (all checked before the first ladder)."""
        p = self.p
        if not all(0 <= exponent < p for exponent in exponents):
            raise CryptoError("exponent outside [0, p): reduce it modulo the group order")
        gmp = _GMP
        if self._narrow and gmp is not None:
            return _gmp_grid(gmp, p, bases, exponents)
        lib = _LIB
        if lib is None:
            return [[pow(base, exponent, p) for exponent in exponents] for base in bases]
        # libcrypto: the exponents are converted up front, each base as its row starts
        modulus, ctx, mont = self._native or self._build_native(lib)
        size = self._size
        bin2bn, bn2binpad = lib.BN_bin2bn, lib.BN_bn2binpad
        mod_exp = lib.BN_mod_exp_mont_consttime
        from_bytes = int.from_bytes
        grid: List[List[int]] = []
        converted: List[int] = []  # the exponent BIGNUMs, in order
        a: Optional[int] = None  # what was never allocated: BN_free(NULL) is a no-op
        r: Optional[int] = None
        try:
            for exponent in exponents:
                converted.append(bin2bn(exponent.to_bytes(size, "big"), size, None) or _refuse())
            r = lib.BN_new() or _refuse()
            out = (c_char * size)()
            for base in bases:
                # a failed refill raises before assigning: the old pointer is freed
                a = bin2bn((base % p).to_bytes(size, "big"), size, a) or _refuse()
                row = []
                for e in converted:
                    if mod_exp(r, a, e, modulus, ctx, mont) != 1 or bn2binpad(r, out, size) != size:
                        _refuse()
                    row.append(from_bytes(out, "big"))
                grid.append(row)
        finally:
            for e in converted:
                lib.BN_free(e)
            lib.BN_free(a)
            lib.BN_free(r)
        return grid

    def _build_native(self, lib: ctypes.PyDLL) -> Tuple[int, int, int]:
        raw = self.p.to_bytes(self._size, "big")
        native = (lib.BN_bin2bn(raw, self._size, None), lib.BN_CTX_new(), lib.BN_MONT_CTX_new())
        weakref.finalize(self, _free_native, lib, *native)
        modulus, ctx, mont = native
        if not (modulus and ctx and mont and lib.BN_MONT_CTX_set(mont, modulus, ctx) == 1):
            raise CryptoError("libcrypto could not build the Montgomery context")
        self._native = native
        return native
