"""Virtual-time cost model for the crypto the workloads charge.

Simulated time is charged from this model, not from the host cost of the
real computation.  AES-NI-era software AES runs at ~1-3 cycles/byte;
SHA-256 at ~10 cycles/byte.  The stream cipher stands in for AES-CTR on
hot paths, so it is charged exactly as AES-CTR.
"""

from __future__ import annotations

AES_NS_PER_BYTE = 0.6
AES_SETUP_NS = 300
SHA256_NS_PER_BYTE = 3.0
SHA256_SETUP_NS = 200


def aes_cost_ns(nbytes: int) -> int:
    """Virtual cost of AES-CTR over ``nbytes``."""
    return int(AES_SETUP_NS + AES_NS_PER_BYTE * nbytes)


def sha256_cost_ns(nbytes: int) -> int:
    """Virtual cost of SHA-256 over ``nbytes``."""
    return int(SHA256_SETUP_NS + SHA256_NS_PER_BYTE * nbytes)


def stream_cost_ns(nbytes: int) -> int:
    """Virtual cost of one ``stream_xor`` pass over ``nbytes``, charged as AES-CTR."""
    return aes_cost_ns(nbytes)
