"""The Trusted Runtime System.

The TRTS is the in-enclave half of the SDK: the generic entry trampoline
that resolves ecall identifiers to functions, the parameter marshalling for
``[in]``/``[out]`` buffers, and ``sgx_ocall`` — the common exit path that
looks up the ocall function pointer in the table the application passed to
``sgx_ecall`` (which is precisely the hook sgx-perf's logger swaps out,
paper §4.1.2).

Trusted application code receives a :class:`TrustedContext`: its window on
the world.  Through it the code consumes in-enclave compute time (sliced by
AEXs), allocates enclave heap, touches pages (driving EPC paging and the
working set estimator) and issues ocalls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.sdk import constants as sdkc
from repro.sdk.edl import EcallDecl, EnclaveDefinition, OcallDecl, copied_bytes
from repro.sdk.errors import SgxError, SgxStatus
from repro.sgx.enclave import Enclave, HeapAllocation, PageType
from repro.sgx.execution import EnclaveExecution


@dataclass
class EcallFrame:
    """One open ecall on a thread's SGX call stack."""

    runtime: Any  # EnclaveRuntime (duck-typed to avoid a module cycle)
    decl: EcallDecl
    execution: EnclaveExecution
    tcs_slot: int
    nested: bool


@dataclass
class OcallFrame:
    """One open ocall on a thread's SGX call stack."""

    runtime: Any
    decl: OcallDecl


class ThreadState:
    """Per-application-thread SGX call stack (ecall/ocall nesting)."""

    def __init__(self) -> None:
        self.frames: list[Any] = []

    @property
    def top(self) -> Optional[Any]:
        """Innermost open frame, if any."""
        return self.frames[-1] if self.frames else None

    def innermost_ecall(self, runtime: Any) -> Optional[EcallFrame]:
        """Deepest open ecall frame belonging to ``runtime``."""
        for frame in reversed(self.frames):
            if isinstance(frame, EcallFrame) and frame.runtime is runtime:
                return frame
        return None


class TrustedBuffer:
    """A buffer living on the enclave heap.

    Unlike raw :class:`HeapAllocation`, a ``TrustedBuffer`` can be touched
    (read/written) through a context, which drives both EPC paging and the
    working set estimator.
    """

    def __init__(self, enclave: Enclave, allocation: HeapAllocation) -> None:
        self.enclave = enclave
        self.allocation = allocation

    @property
    def size(self) -> int:
        """Allocation size in bytes."""
        return self.allocation.size

    def pages(self) -> list:
        """Heap pages this buffer spans."""
        return self.enclave.heap_pages_for(self.allocation)


class TrustedContext:
    """Execution context handed to trusted (in-enclave) functions."""

    def __init__(
        self,
        urts: Any,
        runtime: Any,
        execution: EnclaveExecution,
        thread_state: ThreadState,
    ) -> None:
        self.urts = urts
        self.runtime = runtime
        self.execution = execution
        self.thread_state = thread_state
        self.sim = execution.sim

    # -- compute -------------------------------------------------------------

    @property
    def enclave(self) -> Enclave:
        """The enclave this context executes in."""
        return self.execution.enclave

    def compute(self, duration_ns: int) -> None:
        """Consume in-enclave compute time (interruptible by AEXs)."""
        self.execution.compute(duration_ns)

    def compute_jittered(self, stream: str, mean_ns: float, rel_sigma: float = 0.08) -> None:
        """Consume a jittered amount of in-enclave compute time."""
        self.execution.compute(self.sim.rng.jitter_ns(stream, mean_ns, rel_sigma))

    # -- memory ----------------------------------------------------------------

    def malloc(self, nbytes: int) -> TrustedBuffer:
        """Allocate from the enclave heap and touch its pages.

        On an SGX v2 (EDMM) enclave, heap exhaustion grows the heap
        on demand — EAUG in the driver, EACCEPT charged in-enclave — as
        §2.3.3 describes; on SGX v1 it raises, as the paper warns.
        """
        from repro.sgx.enclave import EnclaveOutOfMemory

        self.compute(sdkc.MALLOC_NS)
        try:
            allocation = self.enclave.malloc(nbytes)
        except EnclaveOutOfMemory:
            if not self.enclave.config.sgx2_edmm:
                raise
            npages = -(-nbytes // 4096) + 1
            self.urts.device.driver.augment_heap(self.enclave, npages)
            # EACCEPT each fresh page from inside the enclave.
            self.execution.compute(npages * sdkc.EACCEPT_NS)
            allocation = self.enclave.malloc(nbytes)
        buffer = TrustedBuffer(self.enclave, allocation)
        self.touch(buffer, write=True)
        return buffer

    def free(self, buffer: TrustedBuffer) -> None:
        """Release an enclave heap buffer."""
        self.compute(sdkc.FREE_NS)
        self.enclave.free(buffer.allocation)

    def touch(self, buffer: TrustedBuffer, write: bool = False) -> None:
        """Access every page of ``buffer`` (faulting evicted pages back in)."""
        mmu = self.urts.mmu
        for page in buffer.pages():
            mmu.access(self.enclave, page, write=write, execution=self.execution)

    def touch_heap_bytes(self, offset: int, nbytes: int, write: bool = False) -> None:
        """Access an ad-hoc heap byte range (page-granular)."""
        alloc = HeapAllocation(offset, max(1, nbytes))
        buffer = TrustedBuffer(self.enclave, alloc)
        self.touch(buffer, write=write)

    # -- ocalls ------------------------------------------------------------------

    def ocall(self, name: str, *args: Any) -> Any:
        """Issue an ocall by name: the TRTS ``sgx_ocall`` path.

        When an interface runtime (:mod:`repro.optimizer`) is installed on
        the enclave, it gets first refusal — it may defer the call into a
        fused pair, buffer it into a batch, or pass.  Without one, this is
        exactly :meth:`ocall_raw`, at zero extra cost.
        """
        interface = getattr(self.runtime, "interface", None)
        if interface is not None:
            handled, result = interface.intercept_ocall(self, name, args)
            if handled:
                return result
        return self.ocall_raw(name, *args)

    def ocall_raw(self, name: str, *args: Any) -> Any:
        """The uninterposed ocall path.

        Marshals ``[in]`` parameters out, EEXITs, lets the URTS look the
        function pointer up in the *saved* ocall table, runs it, re-enters
        and marshals ``[out]`` parameters back.
        """
        runtime = self.runtime
        definition: EnclaveDefinition = runtime.definition
        index = definition.ocall_index(name)
        decl = definition.ocalls[index]
        self.compute(self.sim.rng.jitter_ns("trts:ocall-prep", sdkc.TRTS_OCALL_PREP_NS))
        self._charge_copies(decl.copies_in, args)
        self.execution.eexit()
        frame = OcallFrame(runtime=runtime, decl=decl)
        self.thread_state.frames.append(frame)
        try:
            result = self.urts.dispatch_ocall(runtime, index, args)
        finally:
            self.thread_state.frames.pop()
            self.execution.eenter()
        self.compute(self.sim.rng.jitter_ns("trts:ocall-resume", sdkc.TRTS_OCALL_RESUME_NS))
        self._charge_copies(decl.copies_out, args)
        return result

    def _charge_copies(self, copies: tuple, args: tuple) -> None:
        total = copied_bytes(copies, args)
        if total:
            self.execution.compute(self.urts.device.cpu.copy_cost_ns(total))

    # -- synchronisation -----------------------------------------------------------

    def mutex(self, name: str):
        """Get (or lazily create) a named SDK mutex for this enclave."""
        return self.runtime.mutex(name)

    def condvar(self, name: str):
        """Get (or lazily create) a named SDK condition variable."""
        return self.runtime.condvar(name)


class TrustedBridge:
    """The generated trusted half (``enclave_t.c``): trampoline + dispatch."""

    def __init__(
        self,
        definition: EnclaveDefinition,
        implementations: dict[str, Callable[..., Any]],
    ) -> None:
        missing = [e.name for e in definition.ecalls if e.name not in implementations]
        if missing:
            raise SgxError(
                SgxStatus.SGX_ERROR_INVALID_FUNCTION,
                "no implementation for ecalls: " + ", ".join(missing),
            )
        self.definition = definition
        self._impls = [implementations[e.name] for e in definition.ecalls]

    def dispatch(self, ctx: TrustedContext, index: int, args: tuple) -> Any:
        """Resolve an ecall identifier and run the implementation.

        Charges the trampoline cost, touches the code page hosting the
        implementation and marshals declared buffers both ways.
        """
        definition = self.definition
        if not 0 <= index < len(definition.ecalls):
            raise SgxError(SgxStatus.SGX_ERROR_INVALID_FUNCTION, f"ecall index {index}")
        decl = definition.ecalls[index]
        ctx.compute(ctx.sim.rng.jitter_ns("trts:dispatch", sdkc.TRTS_ECALL_DISPATCH_NS))
        self._touch_code_page(ctx, index)
        ctx._charge_copies(decl.copies_in, args)
        result = self._impls[index](ctx, *args)
        ctx._charge_copies(decl.copies_out, args)
        return result

    def invoke_local(self, ctx: TrustedContext, index: int, args: tuple) -> Any:
        """Run ecall ``index`` *inside an already-open enclave context*.

        The switchless worker's dispatch path: the worker thread is
        already in the enclave, so there is no EENTER/EEXIT and no entry
        trampoline — just a queue-pop dispatch, the code-page touch and
        the declared parameter copies (data still crosses the boundary
        through the shared request area).
        """
        definition = self.definition
        if not 0 <= index < len(definition.ecalls):
            raise SgxError(SgxStatus.SGX_ERROR_INVALID_FUNCTION, f"ecall index {index}")
        decl = definition.ecalls[index]
        ctx.compute(
            ctx.sim.rng.jitter_ns("trts:switchless-dispatch", sdkc.SWITCHLESS_DISPATCH_NS)
        )
        self._touch_code_page(ctx, index)
        ctx._charge_copies(decl.copies_in, args)
        result = self._impls[index](ctx, *args)
        ctx._charge_copies(decl.copies_out, args)
        return result

    def _touch_code_page(self, ctx: TrustedContext, index: int) -> None:
        enclave = ctx.enclave
        code_pages = enclave.code_pages
        if code_pages:
            page = code_pages[index % len(code_pages)]
            ctx.urts.mmu.access(enclave, page, write=False, execution=ctx.execution)
