"""Cryptography used by the workloads.

Real algorithms — SHA-256 and HMAC from the standard library, and a keyed
xorshift stream cipher — paired with a virtual-time cost model
(:mod:`repro.crypto.cost`), so workloads both *actually* encrypt/hash
their data and charge realistic compute for it.
"""

from repro.crypto.cost import (
    AES_NS_PER_BYTE,
    SHA256_NS_PER_BYTE,
    aes_cost_ns,
    sha256_cost_ns,
    stream_cost_ns,
)
from repro.crypto.hmac import hkdf_like, hmac_sha256, verify_hmac_sha256
from repro.crypto.sha256 import Sha256, sha256
from repro.crypto.stream import stream_xor

__all__ = [
    "AES_NS_PER_BYTE",
    "SHA256_NS_PER_BYTE",
    "Sha256",
    "aes_cost_ns",
    "hkdf_like",
    "hmac_sha256",
    "sha256",
    "sha256_cost_ns",
    "stream_cost_ns",
    "stream_xor",
    "verify_hmac_sha256",
]
