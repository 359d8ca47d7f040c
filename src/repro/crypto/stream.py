"""Fast keyed stream cipher used on simulator hot paths.

Workloads like SecureKeeper encrypt every request payload.  This
xorshift-based keystream is keyed, deterministic and self-inverse, and is
charged in virtual time as AES-CTR (:func:`repro.crypto.cost.stream_cost_ns`).

This is NOT a secure cipher and is not presented as one — it is a
cost-faithful stand-in.
"""

from __future__ import annotations

import struct

from repro.crypto.sha256 import sha256

_MASK = 0xFFFFFFFFFFFFFFFF


def _keystream_words(seed: int, count: int):
    state = seed or 0x9E3779B97F4A7C15
    for _ in range(count):
        state ^= (state << 13) & _MASK
        state ^= state >> 7
        state ^= (state << 17) & _MASK
        yield state


def stream_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """Encrypt/decrypt ``data`` (self-inverse) under ``key``/``nonce``.

    The seed is derived via SHA-256 so distinct keys and nonces yield
    unrelated keystreams.
    """
    seed = int.from_bytes(sha256(key + nonce)[:8], "big")
    n = len(data)
    words = (n + 7) // 8
    keystream = struct.pack(f">{words}Q", *_keystream_words(seed, words))
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(keystream[:n], "big")
    return mixed.to_bytes(n, "big")
