"""Modular exponentiation in C, through the libcrypto this interpreter links.

``hashlib`` and ``ssl`` already map OpenSSL's libcrypto into the process;
:class:`Modulus` reaches its ``BN_mod_exp_mont_consttime`` through
``ctypes``: one Montgomery context per modulus, a fixed-window ladder whose
multiplication schedule does not follow the exponent's bits, 8× faster
than ``pow`` at 256 bits. There is one loop, :meth:`Modulus.powm_many`,
over ``(base, exponent)`` pairs — a row of bases under one exponent, or
one base under a row of exponents, converts the shared operand once —
and ``powm`` is its one-pair case. Where the library or one symbol is
missing, that loop is ``pow`` — decided once at import and readable as
:data:`BACKEND`; nothing selects it.

The library is loaded with ``PyDLL``: every foreign call holds the
interpreter lock, so the per-modulus ``BN_CTX`` — the one piece of native
state a call writes to — is never entered by two threads. The three
operand ``BIGNUM``s and the output buffer are allocated per batch, local
to the call and freed before it returns; nothing native is shared
*between* calls.
"""

from __future__ import annotations

import ctypes
import weakref
from ctypes import c_char, c_char_p, c_int, c_void_p
from typing import Iterable, List, NoReturn, Optional, Tuple

from repro.exceptions import CryptoError

__all__ = ["BACKEND", "Modulus"]

_SONAMES = ("libcrypto.so.3", "libcrypto.so.1.1", "libcrypto.3.dylib", "libcrypto.1.1.dylib")

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


def _load_libcrypto() -> Optional[ctypes.PyDLL]:
    try:
        # maps the interpreter's own libcrypto, so opening it by soname
        # below returns that copy and runs no ``find_library`` subprocess
        import _hashlib  # noqa: F401
    except ImportError:
        return None
    for soname in _SONAMES:
        try:
            lib = ctypes.PyDLL(soname)
            for name, (restype, *argtypes) in _SYMBOLS.items():
                function = getattr(lib, name)
                function.restype, function.argtypes = restype, argtypes
        except (OSError, AttributeError):
            continue
        return lib
    return None


_LIB = _load_libcrypto()
#: ``"libcrypto"`` or ``"pow"``: which kernel is under :meth:`Modulus.powm`.
BACKEND = "libcrypto" if _LIB is not None else "pow"


def _free_native(lib: ctypes.PyDLL, modulus: int, ctx: int, mont: int) -> None:
    lib.BN_MONT_CTX_free(mont)
    lib.BN_CTX_free(ctx)
    lib.BN_free(modulus)


def _checked(exponent: int, p: int) -> int:
    if not 0 <= exponent < p:
        raise CryptoError("exponent outside [0, p): reduce it modulo the group order")
    return exponent


def _refuse() -> NoReturn:
    raise CryptoError("libcrypto failed a modular exponentiation")


class Modulus:
    """An odd modulus ``p >= 3``; ``powm(b, e)`` is ``b**e mod p``."""

    def __init__(self, p: int) -> None:
        if p < 3 or p % 2 == 0:
            raise CryptoError("modular exponentiation needs an odd modulus >= 3")
        self.p = p
        self._size = (p.bit_length() + 7) // 8
        #: (modulus BIGNUM, BN_CTX, BN_MONT_CTX), built by the first ``powm``
        self._native: Optional[Tuple[int, int, int]] = None

    def __reduce__(self):
        return Modulus, (self.p,)  # a copy builds its own context: no pointer travels

    def powm(self, base: int, exponent: int) -> int:
        """``base**exponent mod p`` for any integer base and ``0 <= exponent < p``."""
        return self.powm_many(((base, exponent),))[0]

    def powm_many(self, pairs: Iterable[Tuple[int, int]]) -> List[int]:
        """``[b**e mod p for b, e in pairs]``, any integer bases, every
        ``0 <= e < p``. An operand that is the previous pair's object is
        not converted again."""
        p = self.p
        lib = _LIB
        if lib is None:
            return [pow(base, _checked(exponent, p), p) for base, exponent in pairs]
        modulus, ctx, mont = self._native or self._build_native(lib)
        size = self._size
        bin2bn, bn2binpad = lib.BN_bin2bn, lib.BN_bn2binpad
        mod_exp = lib.BN_mod_exp_mont_consttime
        from_bytes = int.from_bytes
        results: List[int] = []
        # no pair holds ``results``: the first one converts both operands
        held_base: object = results
        held_exponent: object = results
        a: Optional[int] = None  # what was never allocated: BN_free(NULL) is a no-op
        e: Optional[int] = None
        r: Optional[int] = None
        try:
            r = lib.BN_new() or _refuse()
            out = (c_char * size)()
            for base, exponent in pairs:
                # a failed conversion raises before assigning: the old pointer is freed
                if base is not held_base:
                    a = bin2bn((base % p).to_bytes(size, "big"), size, a) or _refuse()
                    held_base = base
                if exponent is not held_exponent:
                    e = bin2bn(_checked(exponent, p).to_bytes(size, "big"), size, e) or _refuse()
                    held_exponent = exponent
                if mod_exp(r, a, e, modulus, ctx, mont) != 1 or bn2binpad(r, out, size) != size:
                    _refuse()
                results.append(from_bytes(out, "big"))
        finally:
            lib.BN_free(a)
            lib.BN_free(e)
            lib.BN_free(r)
        return results

    def _build_native(self, lib: ctypes.PyDLL) -> Tuple[int, int, int]:
        raw = self.p.to_bytes(self._size, "big")
        native = (lib.BN_bin2bn(raw, self._size, None), lib.BN_CTX_new(), lib.BN_MONT_CTX_new())
        weakref.finalize(self, _free_native, lib, *native)
        modulus, ctx, mont = native
        if not (modulus and ctx and mont and lib.BN_MONT_CTX_set(mont, modulus, ctx) == 1):
            raise CryptoError("libcrypto could not build the Montgomery context")
        self._native = native
        return native
