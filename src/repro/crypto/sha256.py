"""SHA-256 (FIPS 180-4), backed by :mod:`hashlib`.

Used by the workloads (certificate signing, request nonces, the stream
cipher's key schedule).  ``Sha256`` stays a Python class around the
``hashlib`` object so its methods can be wrapped at run time.
"""

from __future__ import annotations

import hashlib


class Sha256:
    """Incremental SHA-256 hasher (``hashlib``-like interface)."""

    digest_size = 32
    block_size = 64

    def __init__(self, data: bytes = b"") -> None:
        self._hash = hashlib.sha256(data)

    def update(self, data: bytes) -> "Sha256":
        """Absorb ``data``; returns self for chaining."""
        self._hash.update(data)
        return self

    def digest(self) -> bytes:
        """The 32-byte digest (does not consume the hasher)."""
        return self._hash.digest()

    def hexdigest(self) -> str:
        """The digest as a hex string."""
        return self._hash.hexdigest()

    def copy(self) -> "Sha256":
        """An independent copy of the current hasher state."""
        clone = Sha256()
        clone._hash = self._hash.copy()
        return clone


def sha256(data: bytes) -> bytes:
    """One-shot SHA-256."""
    return hashlib.sha256(data).digest()
