"""The trusted-side interface runtime: fused pairs and ocall batching.

An :class:`InterfaceRuntime` is installed on an enclave's
:class:`~repro.sdk.urts.EnclaveRuntime` (``runtime.interface``) when the
enclave is built with an optimization plan.  The TRTS consults it on
every ocall (:meth:`intercept_ocall`) and the URTS at every ecall return
(:meth:`on_ecall_return`) — with no plan installed both hooks are a
``None`` check and the runtime behaves byte-identically to the
unoptimized SDK.

**Fused pairs** (SDSC): when a plan'd *parent* ocall arrives it is not
issued — its arguments are parked on the calling thread and its result
predicted from the pair's result model.  If the matching *child* follows,
one fused ocall carries both argument lists across the boundary (one
EEXIT/EENTER round trip instead of two).  Any other boundary event —
a different ocall, the end of the ecall — first flushes the parked parent
as a plain ocall, so the untrusted side observes the original order.

**Batched ocalls** (SNC): plan'd defer-safe ocalls are appended to an
in-enclave buffer instead of crossing the boundary; the buffer is flushed
as one generated vector ocall when it reaches ``max_batch`` entries or
when the application destroys the enclave (via the generated flush
ecall).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.optimizer.plan import ECHO, OptimizationPlan
from repro.sdk import constants as sdkc
from repro.sdk.edl import Direction, EnclaveDefinition, copied_bytes


class InterfaceRuntime:
    """Per-enclave state for the fused-pair and batching transforms."""

    def __init__(
        self,
        plan: OptimizationPlan,
        definition: EnclaveDefinition,
        urts: Any,
    ) -> None:
        self.plan = plan
        self.definition = definition
        self.urts = urts
        self._fuse_by_parent = {pair.parent: pair for pair in plan.fused}
        self._fuse_by_child = {pair.child: pair for pair in plan.fused}
        self._batch = {batch.call: batch for batch in plan.batched}
        # Parked parent per thread token: (pair, args).  A parked parent
        # never survives its ecall (see on_ecall_return).
        self._pending: dict[Any, tuple[Any, tuple]] = {}
        # Batch buffers persist *across* ecalls, by design.
        self._buffers: dict[str, list[tuple]] = {b.call: [] for b in plan.batched}
        self.switchless: Any = None  # SwitchlessRuntime, bound by the rewriter
        self.stats = {"fused": 0, "deferred_flushed": 0, "batched": 0, "flushes": 0}

    # -- the TRTS hook -------------------------------------------------------

    def intercept_ocall(self, ctx: Any, name: str, args: tuple) -> tuple[bool, Any]:
        """First refusal on an ocall; returns ``(handled, result)``."""
        token = self.urts.current_thread_token()
        pending = self._pending.get(token)
        if pending is not None:
            pair, parent_args = pending
            if name == pair.child:
                # The predicted successor arrived: one fused round trip.
                del self._pending[token]
                ctx.compute(
                    ctx.sim.rng.jitter_ns("iface:fuse-stage", sdkc.FUSE_STAGE_NS)
                )
                result = ctx.ocall_raw(pair.name, *parent_args, *args)
                self.stats["fused"] += 1
                return True, result
            # Any other boundary crossing flushes the parked parent first,
            # preserving the untrusted-visible call order.
            del self._pending[token]
            self.stats["deferred_flushed"] += 1
            ctx.ocall_raw(pair.parent, *parent_args)
        pair = self._fuse_by_parent.get(name)
        if pair is not None:
            ctx.compute(ctx.sim.rng.jitter_ns("iface:fuse-defer", sdkc.FUSE_DEFER_NS))
            self._pending[token] = (pair, args)
            return True, self._predict(pair, args)
        batch = self._batch.get(name)
        if batch is not None:
            ctx.compute(
                ctx.sim.rng.jitter_ns("iface:batch-append", sdkc.BATCH_APPEND_NS)
            )
            buffer = self._buffers[name]
            buffer.append(args)
            self.stats["batched"] += 1
            if len(buffer) >= batch.max_batch:
                self._flush_batch(ctx, batch)
            return True, None
        return False, None

    def _predict(self, pair: Any, args: tuple) -> Any:
        if pair.result_model == ECHO and pair.result_arg is not None:
            return args[pair.result_arg]
        return None

    # -- the URTS hook -------------------------------------------------------

    def on_ecall_return(self, ctx: Any) -> None:
        """Flush this thread's parked parent before the ecall's EEXIT."""
        token = self.urts.current_thread_token()
        pending = self._pending.pop(token, None)
        if pending is not None:
            pair, parent_args = pending
            self.stats["deferred_flushed"] += 1
            ctx.ocall_raw(pair.parent, *parent_args)

    # -- batch flushing ------------------------------------------------------

    def _flush_batch(self, ctx: Any, batch: Any) -> None:
        buffer = self._buffers[batch.call]
        if not buffer:
            return
        self._buffers[batch.call] = []
        decl = self.definition.ocall(batch.call)
        nbytes = sum(self._request_bytes(decl, args) for args in buffer)
        self.stats["flushes"] += 1
        ctx.ocall_raw(batch.name, len(buffer), tuple(buffer), nbytes)

    def _request_bytes(self, decl: Any, args: tuple) -> int:
        """Marshalled size of one buffered request (8-byte slot header)."""
        by_value = sum(p.direction is Direction.VALUE for p in decl.params[: len(args)])
        return 8 + copied_bytes(decl.copies_in, args) + 8 * by_value

    def flush_batches(self, ctx: Any) -> int:
        """Flush every non-empty batch buffer (the flush ecall's body)."""
        flushed = 0
        for batch in self.plan.batched:
            if self._buffers[batch.call]:
                flushed += len(self._buffers[batch.call])
                self._flush_batch(ctx, batch)
        return flushed

    def has_buffered(self) -> bool:
        """Whether any batch buffer still holds requests."""
        return any(self._buffers[b.call] for b in self.plan.batched)

    # -- teardown ------------------------------------------------------------

    def before_destroy(self, handle: Any) -> None:
        """Drain the optimizer's state ahead of enclave destruction.

        Stops (and joins) the switchless worker first — its long-lived
        service ecall must retire before the enclave goes away — then
        flushes any residual batch buffers through the generated flush
        ecall so no buffered ocall is silently dropped.
        """
        from repro.optimizer.rewrite import FLUSH_ECALL

        if self.switchless is not None:
            self.switchless.shutdown()
        if self.has_buffered():
            handle.ecall(FLUSH_ECALL)
