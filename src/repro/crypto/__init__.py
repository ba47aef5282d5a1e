"""Cryptographic substrate: groups, ElGamal, signatures, OT.

Everything DStress needs from cryptography. The protocols are Python;
modular exponentiation runs in C, on GMP's constant-time ``mpn_sec_powm``
up to 256 bits and libcrypto above, both loaded through ctypes:

- :mod:`repro.crypto.modexp` — the exponentiation kernel (``pow`` when
  neither library loads);
- :mod:`repro.crypto.group` — prime-order cyclic groups (Schnorr groups);
- :mod:`repro.crypto.ec` — NIST P-256 / P-384 elliptic curves (the paper's
  secp384r1 deployment group);
- :mod:`repro.crypto.elgamal` — exponential ElGamal with the additive
  homomorphism and key re-randomization required by §3;
- :mod:`repro.crypto.dlog` — bounded discrete-log recovery (lookup table /
  baby-step giant-step) for exponential-ElGamal decryption;
- :mod:`repro.crypto.keys` — Schnorr signatures for the trusted party;
- :mod:`repro.crypto.ot` / :mod:`repro.crypto.ot_extension` — base OT and
  IKNP OT extension for the GMW engine;
- :mod:`repro.crypto.rng` — deterministic randomness for replayable runs.
"""

from repro.crypto.dlog import BabyStepGiantStep, DlogTable
from repro.crypto.ec import P256, P384, EllipticCurveGroup, secp256r1, secp384r1
from repro.crypto.elgamal import (
    Ciphertext,
    CountingGroup,
    ElGamal,
    ExponentialElGamal,
    KeyPair,
)
from repro.crypto.group import (
    GROUP_160,
    GROUP_256,
    GROUP_512,
    TOY_GROUP_64,
    CyclicGroup,
    SchnorrGroup,
    default_group,
)
from repro.crypto.keys import SchnorrSignature, SchnorrSigner, Signed, SigningKeyPair
from repro.crypto.ot import (
    DDHObliviousTransfer,
    ObliviousTransfer,
    OTStats,
    SimulatedObliviousTransfer,
)
from repro.crypto.ot_extension import IKNPOTExtension
from repro.crypto.rng import DeterministicRNG

__all__ = [
    "BabyStepGiantStep",
    "Ciphertext",
    "CountingGroup",
    "CyclicGroup",
    "DDHObliviousTransfer",
    "DeterministicRNG",
    "DlogTable",
    "ElGamal",
    "EllipticCurveGroup",
    "ExponentialElGamal",
    "GROUP_160",
    "GROUP_256",
    "GROUP_512",
    "IKNPOTExtension",
    "KeyPair",
    "ObliviousTransfer",
    "OTStats",
    "P256",
    "P384",
    "SchnorrGroup",
    "SchnorrSignature",
    "SchnorrSigner",
    "Signed",
    "SigningKeyPair",
    "SimulatedObliviousTransfer",
    "TOY_GROUP_64",
    "default_group",
    "secp256r1",
    "secp384r1",
]
