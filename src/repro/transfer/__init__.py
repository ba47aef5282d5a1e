"""The DStress message transfer (§3.5): the setup-once pad transfer every
run uses (:mod:`repro.transfer.pads`), and the paper's per-iteration
ElGamal protocol (Appendix A) with its strawmen, which the ablation and
the estimator price."""

from repro.transfer.certificates import (
    BlockCertificate,
    MemberKeys,
    build_certificate,
    certificate_digest,
    generate_member_keys,
    verify_certificate,
)
from repro.transfer.pads import PadTransfer, SlotPads, agree_pads, pad_stream
from repro.transfer.protocol import (
    AggregatedShare,
    EncryptedSubshare,
    MessageTransferProtocol,
    TransferResult,
    TransferTraffic,
)
from repro.transfer.scheme import ShareTransferScheme, TransferInstance
from repro.transfer.strawman import Strawman1, Strawman2, Strawman3, StrawmanOutcome

__all__ = [
    "AggregatedShare",
    "BlockCertificate",
    "EncryptedSubshare",
    "MemberKeys",
    "MessageTransferProtocol",
    "PadTransfer",
    "ShareTransferScheme",
    "SlotPads",
    "Strawman1",
    "Strawman2",
    "Strawman3",
    "StrawmanOutcome",
    "TransferInstance",
    "TransferResult",
    "TransferTraffic",
    "agree_pads",
    "build_certificate",
    "certificate_digest",
    "generate_member_keys",
    "pad_stream",
    "verify_certificate",
]
