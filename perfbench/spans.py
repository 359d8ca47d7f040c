"""Span recorder for the traced benchmark run.

The recorder lives entirely in the benchmark: it wraps the public entry
points of each layer of ``repro`` (the table in :data:`ENTRY_POINTS`) at
run time and restores them afterwards.  Nothing under ``src/`` changes.

Each span records its name, start, end, parent span and the run id (the
iteration it belongs to).  Parent stacks are thread-local because
simthreads are OS threads; a span opened on a thread whose stack is empty
takes the current phase span as its parent.  Spans are kept in memory and
written out when the run ends.

Self time is a span's duration minus the time its child spans cover.
Only one simthread holds the turn at a time, so a thread that waits for
its turn (a ``kernel.wait`` span around ``Simulation._yield_turn``) is not
running: that interval is covered neither by the waiting span's ancestors
nor by the wait itself.  It is reported as ``kernel.wait_s`` and the work
done meanwhile is charged to the spans of the thread that ran.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import os
import sys
import threading
import time
from typing import Callable, Optional

import numpy as np

WAIT_LAYER = "kernel.wait"
PHASE_LAYER = "phase"


def _size(obj) -> int:
    return len(obj) if hasattr(obj, "__len__") else 0


def _arg_len(index: int) -> Callable:
    return lambda args, result: _size(args[index])


def _result_len(args, result) -> int:
    return _size(result)


# (layer, "module" or "module:Class", attribute, value-extractor or None)
# A value extractor turns (args, result) into the span's count — bytes
# hashed, rows written, whether a page came in — so counts are taken at the
# same boundaries as the spans.
ENTRY_POINTS = [
    ("crypto", "repro.crypto.sha256", "sha256", _arg_len(0)),
    ("crypto", "repro.crypto.sha256:Sha256", "update", _arg_len(1)),
    ("crypto", "repro.crypto.sha256:Sha256", "digest", None),
    ("crypto", "repro.crypto.hmac", "hmac_sha256", _arg_len(1)),
    ("crypto", "repro.crypto.stream", "stream_xor", _arg_len(2)),
    ("sdk", "repro.sdk.edger8r:UntrustedProxies", "call", None),
    ("sdk", "repro.sdk.edger8r:UntrustedProxies", "try_call", None),
    ("sdk", "repro.sdk.trts:TrustedContext", "ocall", None),
    ("sdk", "repro.sdk.urts:Urts", "dispatch_ocall", None),
    ("sgx", "repro.sgx.execution:EnclaveExecution", "eenter", None),
    ("sgx", "repro.sgx.execution:EnclaveExecution", "eexit", None),
    ("sgx", "repro.sgx.execution:EnclaveExecution", "compute", None),
    ("sgx", "repro.sgx.execution:EnclaveExecution", "touch", None),
    ("paging", "repro.sgx.paging:SgxDriver", "load_page", None),
    ("paging", "repro.sgx.paging:SgxDriver", "_page_out", None),
    # The kprobe point fires once per page actually moved: value 1 = in.
    ("paging", "repro.sgx.paging:SgxDriver", "_fire", lambda a, r: int(a[4] == "page_in")),
    ("kernel", "repro.sim.kernel:Simulation", "compute", None),
    ("kernel", "repro.sim.kernel:Simulation", "futex_wait", None),
    ("kernel", "repro.sim.kernel:Simulation", "futex_wake", None),
    ("kernel", "repro.sim.kernel:Simulation", "block_current", None),
    ("kernel", "repro.sim.kernel:Simulation", "spawn", None),
    # One handoff: the thread gives the turn back and sleeps until it is
    # handed the turn again.
    (WAIT_LAYER, "repro.sim.kernel:Simulation", "_yield_turn", None),
    ("rng", "repro.sim.rng:DeterministicRng", "jitter_ns", None),
    ("rng", "repro.sim.rng:DeterministicRng", "heavy_tail_ns", None),
    ("net", "repro.sim.net:SimSocket", "send", _arg_len(1)),
    ("net", "repro.sim.net:SimSocket", "recv", None),
    ("logger", "repro.perf.logger:EventLogger", "flush", None),
    ("logger", "repro.perf.logger:EventLogger", "finalize", lambda a, r: a[0].events_recorded),
    *[
        ("db.write", "repro.perf.database:TraceDatabase", f"add_{table}_rows", _arg_len(1))
        for table in ("call", "aex", "paging", "sync", "fault")
    ],
    *[
        ("db.write", "repro.perf.database:TraceDatabase", f"add_{table}_row", lambda a, r: 1)
        for table in ("call", "aex", "paging", "sync", "fault")
    ],
    ("db.write", "repro.perf.database:TraceDatabase", "flush", None),
    ("db.close", "repro.perf.database:TraceDatabase", "close", None),
    *[
        ("db.fetch", "repro.perf.database:TraceDatabase", reader, _result_len)
        for reader in (
            "call_columns",
            "calls",
            "aex_events",
            "sync_events",
            "paging_events",
            "fault_events",
        )
    ],
    *[
        ("db.fetch", "repro.perf.database:TraceDatabase", f"{reader}_chunks", _result_len)
        for reader in (
            "call_columns",
            "call_durations",
            "ecall_intervals",
            "sync_rows",
            "paging_rows",
            "fault_events",
        )
    ],
    ("analysis.pass", "repro.perf.analysis.report:Analyzer", "run", None),
    ("analysis.pass", "repro.perf.analysis.streaming:StreamingAnalyzer", "run", None),
    ("analysis.stats", "repro.perf.analysis.stats", "all_statistics", None),
    ("analysis.stats", "repro.perf.analysis.streaming:CallFold", "statistics", None),
    *[
        ("analysis.detectors", "repro.perf.analysis.detectors", name, None)
        for name in (
            "detect_move_candidates",
            "detect_reorder_candidates",
            "detect_merge_batch_candidates",
            "detect_ssc",
            "detect_paging",
            "move_finding_from_counts",
            "reorder_finding_from_counts",
            "merge_finding_from_counts",
            "ssc_finding_from_counts",
            "paging_findings_from_counts",
        )
    ],
    ("analysis.callgraph", "repro.perf.analysis.callgraph", "build_call_graph", None),
    ("analysis.callgraph", "repro.perf.analysis.streaming:CallFold", "call_graph", None),
    ("analysis.fold", "repro.perf.analysis.streaming:CallFold", "fold", None),
    ("analysis.fold", "repro.perf.analysis.streaming:CallFold", "merge", None),
    ("analysis.fold", "repro.perf.analysis.streaming:CallFold", "seal", None),
    ("analysis.render", "repro.perf.analysis.report:AnalysisReport", "render_text", None),
    ("analysis.export", "repro.perf.analysis.export", "report_to_json", None),
    ("optimizer", "repro.optimizer.transforms", "build_plan", None),
    ("optimizer", "repro.optimizer.rewrite:InterfaceRewriter", "rewrite_definition", None),
    ("optimizer", "repro.optimizer.rerun", "run_rerun", None),
    ("optimizer", "repro.optimizer.switchless:SwitchlessRuntime", "submit", lambda a, r: int(r[0])),
    ("cluster.route", "repro.cluster.router", "route_requests", None),
    ("cluster.proxy", "repro.cluster.proxy:SecureKeeperClusterBackend", "execute_batch", None),
    ("cluster.proxy", "repro.cluster.proxy:TalosClusterBackend", "execute_batch", None),
    ("cluster.slo", "repro.cluster.slo", "cluster_slo_from_traces", None),
    ("cluster.orderly", "repro.cluster.orderly", "validate_trace_paths", None),
    *[
        ("faults", "repro.faults.injector:FaultInjector", hook, None)
        for hook in (
            "on_ecall_entry",
            "on_ocall_dispatch",
            "on_page_crossing",
            "on_net_send",
            "on_net_recv",
            "on_net_connect",
        )
    ],
    ("faults", "repro.faults.pressure:PressureInjector", "arm", None),
    ("faults", "repro.faults.pressure:PressureInjector", "_record", None),
]

# Generator readers: one span per chunk pulled, so consumer time between
# chunks is not charged to the fetch.
_GENERATORS = {attr for _, _, attr, _ in ENTRY_POINTS if attr.endswith("_chunks")}


class Tracer:
    """Wraps the entry points of every layer and records spans in memory."""

    def __init__(self, source_root: str) -> None:
        self.source_root = os.path.abspath(source_root)
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._ids = itertools.count()
        self.root = -1
        self.records: list[tuple] = []
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._name_ids[name]

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, name: str, layer: str, fn: Callable, value: Optional[Callable] = None):
        """A traced stand-in for ``fn``; outside a phase it adds no span."""
        nid = self.name_id(name, layer)
        stack_of = self._stack
        ids = self._ids
        append = self.records.append
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stack = stack_of()
            depth = len(stack)
            parent = stack[-1] if depth else tracer.root
            if parent < 0:
                return fn(*args, **kwargs)
            sid = next(ids)
            stack.append(sid)
            count = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if value is not None:
                    count = value(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                append((sid, parent, depth, nid, start, end, count))

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, layer: str, fn: Callable, value: Callable):
        """Like :meth:`wrap`, with one span per item the generator yields."""
        nid = self.name_id(name, layer)
        tracer = self

        def traced(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))

            def pull():
                while True:
                    stack = tracer._stack()
                    depth = len(stack)
                    parent = stack[-1] if depth else tracer.root
                    if parent < 0:
                        item = next(iterator, StopIteration)
                    else:
                        sid = next(tracer._ids)
                        start = time.perf_counter()
                        item = next(iterator, StopIteration)
                        count = 0 if item is StopIteration else value((), item)
                        tracer.records.append(
                            (sid, parent, depth, nid, start, time.perf_counter(), count)
                        )
                    if item is StopIteration:
                        return
                    yield item

            return pull()

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def phase(self, name: str):
        """A root span: every span opened meanwhile on any thread descends from it."""
        nid = self.name_id(f"phase.{name}", PHASE_LAYER)
        stack = self._stack()
        sid = next(self._ids)
        stack.append(sid)
        self.root = sid
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.root = -1
            self.records.append((sid, -1, 0, nid, start, end, 0))

    def take(self) -> "SpanSet":
        """Hand over the spans recorded so far and start a fresh list."""
        spans = SpanSet.from_records(self.records, self.names, self.layers)
        self.records.clear()
        return spans

    # -- patching --------------------------------------------------------------

    def _own_modules(self) -> list:
        modules = []
        for module in list(sys.modules.values()):
            path = getattr(module, "__file__", None) or ""
            if os.path.abspath(path).startswith(self.source_root):
                modules.append(module)
        return modules

    def install(self) -> None:
        """Patch every entry point, where it is defined and where it is bound."""
        modules = self._own_modules()
        for layer, target, attr, value in ENTRY_POINTS:
            module_name, _, class_name = target.partition(":")
            module = importlib.import_module(module_name)
            name = f"{layer}:{class_name + '.' if class_name else ''}{attr}"
            owner = getattr(module, class_name) if class_name else module
            original = owner.__dict__[attr]
            if attr in _GENERATORS:
                wrapper = self.wrap_generator(name, layer, original, value)
            else:
                wrapper = self.wrap(name, layer, original, value)
            if class_name:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, bound in list(vars(mod).items()):
                    if bound is original:
                        self._patch(mod, key, original, wrapper)
        self._install_impl_spans()

    def _install_impl_spans(self) -> None:
        """Trusted and untrusted implementation bodies are workload code.

        Without these spans the application's own work inside an ecall
        (bignum arithmetic, the SQL engine, TLS record handling) would be
        charged to the SDK transition layer that called it.
        """
        from repro.sdk import edger8r, trts

        tracer = self
        bridge_init = trts.TrustedBridge.__init__

        def traced_bridge_init(bridge, definition, implementations):
            bridge_init(bridge, definition, implementations)
            bridge._impls = [
                tracer.wrap("workload:trusted", "workload", impl) for impl in bridge._impls
            ]

        self._patch(trts.TrustedBridge, "__init__", bridge_init, traced_bridge_init)

        make_bridge = edger8r._make_ocall_bridge

        def traced_make_bridge(uctx, impl):
            return make_bridge(uctx, tracer.wrap("workload:untrusted", "workload", impl))

        self._patch(edger8r, "_make_ocall_bridge", make_bridge, traced_make_bridge)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class SpanSet:
    """Spans of one run as columns, with the self-time arithmetic."""

    def __init__(self, sid, parent, depth, name, start, end, value, names, layers, run=None):
        order = np.argsort(sid, kind="stable")
        self.sid = np.asarray(sid, dtype=np.int64)[order]
        # Parents become row indices; -1 (a phase) or an unknown id stays -1.
        parent = np.asarray(parent, dtype=np.int64)[order]
        if len(self.sid):
            row = np.minimum(np.searchsorted(self.sid, parent), len(self.sid) - 1)
            self.parent = np.where(self.sid[row] == parent, row, -1)
        else:
            self.parent = parent
        self.depth = np.asarray(depth, dtype=np.int64)[order]
        self.name = np.asarray(name, dtype=np.int64)[order]
        self.start = np.asarray(start, dtype=np.float64)[order]
        self.end = np.asarray(end, dtype=np.float64)[order]
        self.value = np.asarray(value, dtype=np.int64)[order]
        self.run = (
            np.zeros(len(self.sid), dtype=np.int64)
            if run is None
            else np.asarray(run, dtype=np.int64)[order]
        )
        self.names = list(names)
        self.layer_names = list(layers)
        self.layer = np.asarray(list(layers) or [""], dtype=object)[self.name]

    @classmethod
    def from_records(cls, records, names, layers) -> "SpanSet":
        columns = list(zip(*records)) if records else [()] * 7
        return cls(*columns, names, layers)

    def __len__(self) -> int:
        return len(self.sid)

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_times(self) -> np.ndarray:
        """Duration minus the running time child spans cover.

        A child opened on the parent's own thread (``depth > 0``) nests in
        it; a child opened on another thread (``depth == 0`` with a parent)
        ran while the parent's thread handed the turn on.  Waits are holes:
        a thread inside ``kernel.wait`` is not running, so neither the wait
        nor its ancestors on that thread are charged for that interval.
        """
        n = len(self)
        is_wait = self.layer == WAIT_LAYER
        waited = np.where(is_wait, self.duration, 0.0)
        same_thread = (self.depth > 0) & (self.parent >= 0)
        for level in range(int(self.depth.max(initial=0)), 0, -1):
            rows = same_thread & (self.depth == level)
            np.add.at(waited, self.parent[rows], waited[rows])
        running = self.duration - waited
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent], weights=running[has_parent], minlength=n
        )
        return running - covered

    def handoff_latencies(self) -> np.ndarray:
        """Seconds from a thread giving up the turn to the next one resuming.

        Taken wherever a wait begins and the next recorded wait event is
        *another* wait ending.  A thread start or exit in between gives no
        sample, and neither does a wait whose own end comes next (the turn
        went to a thread that never waited).
        """
        waits = np.flatnonzero(self.layer == WAIT_LAYER)
        times = np.concatenate([self.start[waits], self.end[waits]])
        ends = np.concatenate([np.zeros(len(waits), bool), np.ones(len(waits), bool)])
        owner = np.concatenate([waits, waits])
        order = np.argsort(times, kind="stable")
        times, ends, owner = times[order], ends[order], owner[order]
        pairs = ~ends[:-1] & ends[1:] & (owner[:-1] != owner[1:])
        return times[1:][pairs] - times[:-1][pairs]

    def save(self, path: str) -> None:
        """Write the spans as columns; a span's id is its row, ``parent`` a row."""
        np.savez(
            path,
            parent=self.parent.astype(np.int32),
            depth=self.depth.astype(np.int16),
            name=self.name.astype(np.int16),
            start=self.start,
            end=self.end,
            value=self.value.astype(np.int32),
            run=self.run.astype(np.int16),
            names=np.array(self.names),
            layers=np.array(self.layer_names),
        )


def concat(sets: list, runs: list) -> SpanSet:
    """Join per-iteration span sets into one, tagging each with its run id."""
    names = sets[0].names if sets else []
    layers = sets[0].layer_names if sets else []
    offset = 0
    parts = []
    for spans, run in zip(sets, runs):
        parent = np.where(spans.parent >= 0, spans.parent + offset, -1)
        parts.append(
            (
                np.arange(len(spans)) + offset,
                parent,
                spans.depth,
                spans.name,
                spans.start,
                spans.end,
                spans.value,
                np.full(len(spans), run),
            )
        )
        offset += len(spans)
    if not parts:
        return SpanSet.from_records([], names, layers)
    columns = [np.concatenate(col) for col in zip(*parts)]
    return SpanSet(*columns[:7], names, layers, run=columns[7])
