"""Per-layer metrics of one traced iteration, from its spans.

Each metric is named ``<layer>.<what>``.  Times ending in ``_s`` are either
a layer's *self* time (``*.self_s``, ``cluster.route_s``,
``cluster.proxy_s``, ``faults.inject_s``; see
:meth:`spans.SpanSet.self_times`) or the inclusive time of the outermost
calls into one entry point set (``db.fetch_s``, ``analysis.fold_s`` …).
Counts are taken by the same wrappers that record the spans.  ``REASONS``
says why a metric can read 0 on a workload.
"""

from __future__ import annotations

import numpy as np

# (metric, unit) in report order.
PER_LAYER = [
    ("crypto.calls", "count"),
    ("crypto.bytes", "B"),
    ("crypto.self_s", "s"),
    ("sdk.ecalls", "count"),
    ("sdk.ocalls", "count"),
    ("sdk.self_s", "s"),
    ("sdk.ecall_host_us_p50", "us"),
    ("sdk.ecall_host_us_p99", "us"),
    ("sgx.eenters", "count"),
    ("sgx.self_s", "s"),
    ("sgx.page_ins", "count"),
    ("sgx.page_outs", "count"),
    ("sgx.paging_self_s", "s"),
    ("kernel.compute_calls", "count"),
    ("kernel.handoffs", "count"),
    ("kernel.wait_s", "s"),
    ("kernel.handoff_us_p50", "us"),
    ("kernel.threads", "count"),
    ("kernel.record_unpinned_s", "s"),
    ("rng.draws", "count"),
    ("rng.self_s", "s"),
    ("net.sends", "count"),
    ("net.bytes", "B"),
    ("net.self_s", "s"),
    ("logger.events", "count"),
    ("logger.flushes", "count"),
    ("logger.flush_s", "s"),
    ("logger.finalize_s", "s"),
    ("db.rows_written", "count"),
    ("db.write_s", "s"),
    ("db.close_s", "s"),
    ("db.rows_fetched", "count"),
    ("db.fetch_s", "s"),
    ("db.fetch_per_row", "ratio"),
    ("analysis.stats_s", "s"),
    ("analysis.detectors_s", "s"),
    ("analysis.callgraph_s", "s"),
    ("analysis.fold_s", "s"),
    ("analysis.fold_chunks", "count"),
    ("analysis.render_s", "s"),
    ("analysis.export_s", "s"),
    ("analysis.findings", "count"),
    ("workload.self_s", "s"),
    ("optimizer.plan_s", "s"),
    ("optimizer.rewrite_s", "s"),
    ("optimizer.transforms", "count"),
    ("optimizer.fused_pairs", "count"),
    ("optimizer.switchless_served", "count"),
    ("optimizer.transition_ratio", "ratio"),
    ("cluster.requests", "count"),
    ("cluster.ok_ratio", "ratio"),
    ("cluster.retries", "count"),
    ("cluster.failovers", "count"),
    ("cluster.shed", "count"),
    ("cluster.route_s", "s"),
    ("cluster.proxy_s", "s"),
    ("cluster.slo_merge_s", "s"),
    ("cluster.orderly_s", "s"),
    ("faults.rows", "count"),
    ("faults.inject_s", "s"),
    ("trace.overhead", "ratio"),
]

# Why a metric may read 0 on a workload, by metric prefix (longest first).
REASONS = {
    "crypto.": "the workload calls no crypto entry point",
    "sgx.page_ins": "no evicted page was loaded back into the EPC",
    "sgx.page_outs": "the EPC never filled, so nothing was evicted",
    "sgx.paging": "the EPC never filled, so no page moved",
    "kernel.handoff": "the load runs inline: no simthread gives up its turn",
    "kernel.wait": "the load runs inline: no simthread gives up its turn",
    "kernel.threads": "the load runs inline: no simthread is spawned",
    "net.": "the workload opens no simulated socket",
    "analysis.callgraph": "neither analyser builds the call graph (only `sgxperf dot` does)",
    "analysis.fold": "only the streaming analyser folds; it ran no chunk",
    "optimizer.switchless": "the plan makes no ecall switchless",
    "optimizer.rewrite": "no interface is known, so no plan is applied (`sgxperf optimize TRACE`)",
    "optimizer.transforms": "the plan applies no transform",
    "optimizer.fused": "the plan fuses no ocall pair",
    "optimizer.transition": "only sqlite-optimize replays on an optimized interface",
    "cluster.": "only cluster-pressure runs the cluster",
    "cluster.shed": "no request was shed, or the workload runs no cluster",
    "faults.": "no fault or pressure injector is armed",
    "sdk.ocalls": "the workload issues no ocall",
}


def reason(metric: str) -> str:
    for prefix in sorted(REASONS, key=len, reverse=True):
        if metric.startswith(prefix):
            return REASONS[prefix]
    return "the layer was not exercised"


class _Index:
    """Masks over one span set by layer and by entry point name."""

    def __init__(self, spans) -> None:
        self.spans = spans
        layer_ids = {layer: i for i, layer in enumerate(sorted(set(spans.layer_names)))}
        per_name = np.array([layer_ids[layer] for layer in spans.layer_names] or [0])
        self.layer_ids = layer_ids
        self.layer = per_name[spans.name] if len(spans) else np.zeros(0, dtype=np.int64)
        has_parent = spans.parent >= 0
        self.parent_layer = np.where(has_parent, self.layer[np.maximum(spans.parent, 0)], -1)
        self.name_ids = {name: i for i, name in enumerate(spans.names)}

    def layer_in(self, *layers) -> np.ndarray:
        ids = [self.layer_ids[layer] for layer in layers if layer in self.layer_ids]
        return np.isin(self.layer, ids)

    def outermost(self, *layers) -> np.ndarray:
        """Spans of ``layers`` not nested in another span of ``layers``."""
        ids = [self.layer_ids[layer] for layer in layers if layer in self.layer_ids]
        return np.isin(self.layer, ids) & ~np.isin(self.parent_layer, ids)

    def named(self, *names) -> np.ndarray:
        ids = [self.name_ids[name] for name in names if name in self.name_ids]
        return np.isin(self.spans.name, ids)


def _percentile_us(seconds: np.ndarray, q: float) -> float:
    return float(np.percentile(seconds, q) * 1e6) if len(seconds) else 0.0


def layer_metrics(spans, outcome) -> dict:
    """Every per-layer metric except the two run.py derives, for one iteration."""
    ix = _Index(spans)
    self_time = spans.self_times()
    duration = spans.duration
    value = spans.value

    def total(values, mask) -> float:
        return float(values[mask].sum())

    def count(mask) -> int:
        return int(mask.sum())

    ecalls = ix.named("sdk:UntrustedProxies.call", "sdk:UntrustedProxies.try_call")
    kprobes = ix.named("paging:SgxDriver._fire")
    page_ins = int(value[kprobes].sum())
    sends = ix.named("net:SimSocket.send")
    flushes = ix.named("logger:EventLogger.flush")
    finalizes = ix.named("logger:EventLogger.finalize")
    fetches = ix.outermost("db.fetch")
    rows_fetched = int(value[fetches].sum())
    writes = ix.layer_in("db.write") & ~np.isin(
        ix.parent_layer, [ix.layer_ids.get("db.write", -1), ix.layer_ids.get("db.close", -1)]
    )
    counts = outcome.counts
    return {
        "crypto.calls": count(ix.outermost("crypto")),
        "crypto.bytes": int(value[ix.outermost("crypto")].sum()),
        "crypto.self_s": total(self_time, ix.layer_in("crypto")),
        "sdk.ecalls": count(ecalls),
        "sdk.ocalls": count(ix.named("sdk:TrustedContext.ocall")),
        "sdk.self_s": total(self_time, ix.layer_in("sdk")),
        "sdk.ecall_host_us_p50": _percentile_us(duration[ecalls], 50),
        "sdk.ecall_host_us_p99": _percentile_us(duration[ecalls], 99),
        "sgx.eenters": count(ix.named("sgx:EnclaveExecution.eenter")),
        "sgx.self_s": total(self_time, ix.layer_in("sgx")),
        "sgx.page_ins": page_ins,
        "sgx.page_outs": count(kprobes) - page_ins,
        "sgx.paging_self_s": total(self_time, ix.layer_in("paging")),
        "kernel.compute_calls": count(ix.named("kernel:Simulation.compute")),
        "kernel.handoffs": count(ix.layer_in("kernel.wait")),
        "kernel.wait_s": total(duration, ix.layer_in("kernel.wait")),
        "kernel.handoff_us_p50": _percentile_us(spans.handoff_latencies(), 50),
        "kernel.threads": count(ix.named("kernel:Simulation.spawn")),
        "rng.draws": count(ix.layer_in("rng")),
        "rng.self_s": total(self_time, ix.layer_in("rng")),
        "net.sends": count(sends),
        "net.bytes": int(value[sends].sum()),
        "net.self_s": total(self_time, ix.layer_in("net")),
        "logger.events": int(value[finalizes].sum()),
        "logger.flushes": count(flushes),
        "logger.flush_s": total(duration, flushes),
        "logger.finalize_s": total(duration, finalizes),
        "db.rows_written": int(value[writes].sum()),
        "db.write_s": total(duration, writes),
        "db.close_s": total(duration, ix.layer_in("db.close")),
        "db.rows_fetched": rows_fetched,
        "db.fetch_s": total(duration, fetches),
        "db.fetch_per_row": rows_fetched / outcome.analysed_rows if outcome.analysed_rows else 0.0,
        "analysis.stats_s": total(duration, ix.outermost("analysis.stats")),
        "analysis.detectors_s": total(duration, ix.outermost("analysis.detectors")),
        "analysis.callgraph_s": total(duration, ix.outermost("analysis.callgraph")),
        "analysis.fold_s": total(duration, ix.outermost("analysis.fold")),
        "analysis.fold_chunks": count(ix.named("analysis.fold:CallFold.fold")),
        "analysis.render_s": total(duration, ix.outermost("analysis.render")),
        "analysis.export_s": total(duration, ix.outermost("analysis.export")),
        "analysis.findings": counts.get("analysis.findings", 0),
        "workload.self_s": total(self_time, ix.layer_in("workload"))
        + total(self_time, ix.named("phase.record")),
        "optimizer.plan_s": total(duration, ix.named("optimizer:build_plan")),
        "optimizer.rewrite_s": total(
            duration, ix.named("optimizer:InterfaceRewriter.rewrite_definition")
        ),
        "optimizer.transforms": counts.get("optimizer.transforms", 0),
        "optimizer.fused_pairs": counts.get("optimizer.fused_pairs", 0),
        "optimizer.switchless_served": int(
            value[ix.named("optimizer:SwitchlessRuntime.submit")].sum()
        ),
        "optimizer.transition_ratio": counts.get("optimizer.transition_ratio", 0.0),
        "cluster.requests": counts.get("cluster.requests", 0),
        "cluster.ok_ratio": counts.get("cluster.ok_ratio", 0.0),
        "cluster.retries": counts.get("cluster.retries", 0),
        "cluster.failovers": counts.get("cluster.failovers", 0),
        "cluster.shed": counts.get("cluster.shed", 0),
        "cluster.route_s": total(self_time, ix.layer_in("cluster.route")),
        "cluster.proxy_s": total(self_time, ix.layer_in("cluster.proxy")),
        "cluster.slo_merge_s": total(duration, ix.layer_in("cluster.slo")),
        "cluster.orderly_s": total(duration, ix.layer_in("cluster.orderly")),
        "faults.rows": counts.get("faults.rows", 0),
        "faults.inject_s": total(self_time, ix.layer_in("faults")),
    }
