"""Application-level paging inside the enclave (paper §3.5, option iii).

Eleos and STANlite avoid SGX's expensive paging by managing memory
themselves: data lives **encrypted and integrity-protected in untrusted
memory**, and a small in-enclave cache holds decrypted working blocks.
Evicting or loading a block costs cryptography and a memory copy — but no
enclave transition and no kernel fault path, which is why it beats EPC
paging as soon as the working set oversubscribes the EPC.

:class:`SelfPagingStore` implements the pattern over this repository's
real crypto: blocks are sealed with the keyed stream cipher plus an
HMAC-SHA256 truncated tag, so tampering with the untrusted backing store
is detected on load.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.crypto.cost import stream_cost_ns
from repro.crypto.hmac import hmac_sha256
from repro.crypto.stream import stream_xor
from repro.sdk.trts import TrustedBuffer, TrustedContext

# Copy between enclave and untrusted memory: plain memcpy, no transition.
COPY_NS_PER_BYTE = 0.08
MAC_NS = 650  # HMAC over a block (amortised: truncated tag)
_TAG_BYTES = 16


class SealedBlockTampered(RuntimeError):
    """The untrusted backing store returned a corrupted block."""


class SelfPagingStore:
    """An enclave-managed block store backed by untrusted memory.

    ``read``/``write`` operate on fixed-size blocks identified by integer
    ids.  A bounded LRU cache of *decrypted* blocks lives on the enclave
    heap; everything else sits sealed in untrusted memory.
    """

    def __init__(
        self,
        ctx: TrustedContext,
        key: bytes,
        block_bytes: int = 4096,
        cache_blocks: int = 32,
    ) -> None:
        if cache_blocks < 1:
            raise ValueError("cache must hold at least one block")
        self.key = key
        self.block_bytes = block_bytes
        self.cache_blocks = cache_blocks
        self._arena: TrustedBuffer = ctx.malloc(block_bytes * cache_blocks)
        self._cache: OrderedDict[int, bytes] = OrderedDict()
        self._dirty: set[int] = set()
        # The untrusted backing store: block id -> (ciphertext, tag).
        self._backing: dict[int, tuple[bytes, bytes]] = {}
        self.stats = {"hits": 0, "misses": 0, "evictions": 0, "seals": 0}

    # -- sealing ---------------------------------------------------------------

    def _nonce(self, block_id: int) -> bytes:
        return b"blk" + block_id.to_bytes(8, "big")

    def _seal(self, ctx: TrustedContext, block_id: int, plaintext: bytes) -> None:
        ctx.compute(stream_cost_ns(len(plaintext)) + MAC_NS)
        ctx.compute(int(len(plaintext) * COPY_NS_PER_BYTE))
        ciphertext = stream_xor(self.key, self._nonce(block_id), plaintext)
        tag = hmac_sha256(self.key, self._nonce(block_id) + ciphertext)[:_TAG_BYTES]
        self._backing[block_id] = (ciphertext, tag)
        self.stats["seals"] += 1

    def _unseal(self, ctx: TrustedContext, block_id: int) -> bytes:
        ciphertext, tag = self._backing[block_id]
        ctx.compute(int(len(ciphertext) * COPY_NS_PER_BYTE))
        ctx.compute(stream_cost_ns(len(ciphertext)) + MAC_NS)
        expected = hmac_sha256(self.key, self._nonce(block_id) + ciphertext)[:_TAG_BYTES]
        if expected != tag:
            raise SealedBlockTampered(f"block {block_id} failed authentication")
        return stream_xor(self.key, self._nonce(block_id), ciphertext)

    # -- cache ---------------------------------------------------------------------

    def _touch_cache_slot(self, ctx: TrustedContext, block_id: int) -> None:
        slot = block_id % self.cache_blocks
        ctx.touch_heap_bytes(
            self._arena.allocation.offset + slot * self.block_bytes, 64, write=True
        )

    def _evict_if_needed(self, ctx: TrustedContext) -> None:
        while len(self._cache) > self.cache_blocks:
            victim_id, plaintext = self._cache.popitem(last=False)
            if victim_id in self._dirty:
                self._seal(ctx, victim_id, plaintext)
                self._dirty.discard(victim_id)
            self.stats["evictions"] += 1

    def _load(self, ctx: TrustedContext, block_id: int) -> bytes:
        cached = self._cache.get(block_id)
        if cached is not None:
            self._cache.move_to_end(block_id)
            self.stats["hits"] += 1
            return cached
        self.stats["misses"] += 1
        if block_id in self._backing:
            plaintext = self._unseal(ctx, block_id)
        else:
            plaintext = bytes(self.block_bytes)
        self._cache[block_id] = plaintext
        self._touch_cache_slot(ctx, block_id)
        self._evict_if_needed(ctx)
        return plaintext

    # -- public API ------------------------------------------------------------------

    def read(self, ctx: TrustedContext, block_id: int) -> bytes:
        """Read one block (decrypting it into the cache if needed)."""
        return self._load(ctx, block_id)

    def write(self, ctx: TrustedContext, block_id: int, data: bytes) -> None:
        """Write one block (sealed back to untrusted memory on eviction)."""
        if len(data) > self.block_bytes:
            raise ValueError(
                f"block is {self.block_bytes} bytes, got {len(data)}"
            )
        self._load(ctx, block_id)
        self._cache[block_id] = data.ljust(self.block_bytes, b"\x00")
        self._cache.move_to_end(block_id)
        self._dirty.add(block_id)
        self._touch_cache_slot(ctx, block_id)

    def flush(self, ctx: TrustedContext) -> None:
        """Seal every dirty cached block out to untrusted memory."""
        for block_id in sorted(self._dirty):
            self._seal(ctx, block_id, self._cache[block_id])
        self._dirty.clear()

    @property
    def resident_blocks(self) -> int:
        """Blocks currently decrypted in the enclave cache."""
        return len(self._cache)

    @property
    def sealed_blocks(self) -> int:
        """Blocks currently sealed in untrusted memory."""
        return len(self._backing)
