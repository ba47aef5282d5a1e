"""Modular exponentiation in C, through the libcrypto this interpreter links.

``hashlib`` and ``ssl`` already map OpenSSL's libcrypto into the process;
:class:`Modulus` reaches its ``BN_mod_exp_mont_consttime`` through
``ctypes``: one Montgomery context per modulus, a fixed-window ladder whose
multiplication schedule does not follow the exponent's bits, 8× faster
than ``pow`` at 256 bits. Where the library or one symbol is missing,
``powm`` is ``pow`` — decided once at import and readable as
:data:`BACKEND`; nothing selects it.

The library is loaded with ``PyDLL``: every foreign call holds the
interpreter lock, so the per-modulus ``BN_CTX`` — the one piece of native
state a call writes to — is never entered by two threads. Operands and
the result are allocated per call and freed before ``powm`` returns;
nothing native is shared *between* calls.
"""

from __future__ import annotations

import ctypes
import weakref
from ctypes import c_char_p, c_int, c_void_p
from typing import Optional, Tuple

from repro.exceptions import CryptoError

__all__ = ["BACKEND", "Modulus"]

_SONAMES = ("libcrypto.so.3", "libcrypto.so.1.1", "libcrypto.3.dylib", "libcrypto.1.1.dylib")

#: name -> (restype, *argtypes) of every libcrypto symbol this module calls
_SYMBOLS = {
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
        p = self.p
        if not 0 <= exponent < p:
            raise CryptoError("exponent outside [0, p): reduce it modulo the group order")
        lib = _LIB
        if lib is None:
            return pow(base, exponent, p)
        modulus, ctx, mont = self._native or self._build_native(lib)
        size = self._size
        a = lib.BN_bin2bn((base % p).to_bytes(size, "big"), size, None)
        e = lib.BN_bin2bn(exponent.to_bytes(size, "big"), size, None)
        out = ctypes.create_string_buffer(size)
        try:
            if not (
                a
                and e
                and lib.BN_mod_exp_mont_consttime(a, a, e, modulus, ctx, mont) == 1
                and lib.BN_bn2binpad(a, out, size) == size
            ):
                raise CryptoError("libcrypto failed a modular exponentiation")
        finally:
            lib.BN_free(a)  # BN_free(NULL) is a no-op
            lib.BN_free(e)
        return int.from_bytes(out.raw, "big")

    def _build_native(self, lib: ctypes.PyDLL) -> Tuple[int, int, int]:
        raw = self.p.to_bytes(self._size, "big")
        native = (lib.BN_bin2bn(raw, self._size, None), lib.BN_CTX_new(), lib.BN_MONT_CTX_new())
        weakref.finalize(self, _free_native, lib, *native)
        modulus, ctx, mont = native
        if not (modulus and ctx and mont and lib.BN_MONT_CTX_set(mont, modulus, ctx) == 1):
            raise CryptoError("libcrypto could not build the Montgomery context")
        self._native = native
        return native
