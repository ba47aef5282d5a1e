"""Secret sharing: XOR shares."""

from repro.sharing.xor import (
    reconstruct_bit,
    reconstruct_value,
    share_bit,
    share_bits,
    share_value,
    share_words,
    xor_all,
)

__all__ = [
    "reconstruct_bit",
    "reconstruct_value",
    "share_bit",
    "share_bits",
    "share_value",
    "share_words",
    "xor_all",
]
