"""The four benchmark workloads, each a ``record → analyze`` pipeline.

A workload is built once per process (:meth:`Workload.__init__` is the
set-up the benchmark times as part of ``setup_s``) and then run any number
of times.  :meth:`Workload.run` times its phases through the ``phase``
callback and returns what the correctness gate checks: a fingerprint that
must be identical on every run of one seed (and equal the committed one
for the default seed) plus any broken invariant.

Every function of ``repro`` is called through its module, so the traced
run sees the same calls the untraced run makes.
"""

from __future__ import annotations

import glob
import hashlib
import os
from dataclasses import dataclass, field

from repro.cluster import orderly, runner, slo
from repro.cluster.spec import ClusterSpec
from repro.faults.campaign import trace_digest
from repro.optimizer import rerun, transforms
from repro.perf import database
from repro.perf.analysis import export, report, streaming
from repro.sgx.device import SgxDevice
from repro.sim.process import SimProcess
from repro.workloads import recorders

# Per-iteration shapes.  Each recording takes 0.2-2 s on a 2-vCPU x86-64
# VM, so a 20 s run takes 6-40 samples of every phase.  Short samples are
# what make the run steady on a shared host: a vCPU's speed changes within
# seconds, and a sample short enough to fall in one such stretch is scaled
# well by the reference loop around it (see worker.PhaseTimer).
TALOS_REQUESTS = 10
GLAMDRING_SIGNS = 1
SQLITE_REQUESTS = 250
CLUSTER_NODES = 2
CLUSTER_CLIENTS = 150
CLUSTER_EPC_PAGES = 1024

_ROW_TABLES = ("calls", "aex", "paging", "sync", "faults")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    """What one pipeline run produced, for the correctness gate and the metrics."""

    fingerprint: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    trace_bytes: int = 0  # recorded trace files on disk, as the recorder left them
    trace_rows: int = 0  # event rows in those traces
    analysed_rows: int = 0  # trace rows summed over every analysis pass
    counts: dict = field(default_factory=dict)  # per-layer counts known to the pipeline

    def account(self, paths: list, size: int, passes: int) -> None:
        """Record the traces' size and rows; each was analysed ``passes`` times."""
        self.trace_bytes = size
        for path in paths:
            with database.TraceDatabase(path) as db:
                counts = db.table_counts()
            self.trace_rows += sum(counts.get(table, 0) for table in _ROW_TABLES)
        self.analysed_rows = passes * self.trace_rows


def bytes_on_disk(paths: list) -> int:
    """Trace bytes on disk: the database file plus its write-ahead log."""
    return sum(
        os.path.getsize(name)
        for path in paths
        for name in (path, path + "-wal")
        if os.path.exists(name)
    )


def _analyse(path: str) -> tuple:
    """``sgxperf analyze`` in memory: the report, its text and its JSON."""
    with database.TraceDatabase(path) as db:
        result = report.Analyzer(db).run()
    return result, result.render_text(), export.report_to_json(result)


def _analyse_streaming(path: str) -> str:
    """The same report from the streaming analyser, single process."""
    with database.TraceDatabase(path) as db:
        result = streaming.StreamingAnalyzer(db, jobs=1).run()
    result.render_text()
    return export.report_to_json(result)


def _plan_from_trace(path: str):
    """``sgxperf optimize TRACE``: analyse, then derive the plan."""
    with database.TraceDatabase(path) as db:
        result = report.Analyzer(db).run()
    return transforms.build_plan(result.findings, source=os.path.basename(path))


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def run(self, workdir: str, phase, first: bool = False) -> Outcome:
        raise NotImplementedError


class _SingleTrace(Workload):
    """Record one trace, analyse it both ways, plan from it."""

    def record(self, path: str) -> None:
        raise NotImplementedError

    def run(self, workdir: str, phase, first: bool = False) -> Outcome:
        path = os.path.join(workdir, "trace.db")
        with phase("record"):
            self.record(path)
        size = bytes_on_disk([path])
        with phase("analyze"):
            result, _, memory_json = _analyse(path)
        with phase("analyze_streaming"):
            streaming_json = _analyse_streaming(path)
        with phase("optimize"):
            plan = _plan_from_trace(path)
        outcome = Outcome()
        with database.TraceDatabase(path) as db:
            outcome.fingerprint = {
                "trace": trace_digest(db),
                "report": _sha(memory_json),
                "plan": _sha(plan.to_json()),
            }
        if streaming_json != memory_json:
            outcome.errors.append("in-memory and streaming report JSON differ")
        outcome.account([path], size, passes=3)
        outcome.counts["analysis.findings"] = len(result.findings)
        return outcome


class TalosTls(_SingleTrace):
    """TaLoS serving HTTPS GETs: crypto and simthread handoffs dominate."""

    name = "talos-tls"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.workloads.talos import TalosApp

        process = SimProcess(seed=seed)
        TalosApp(process, SgxDevice(process.sim))

    def record(self, path: str) -> None:
        recorders.record_talos(path, seed=self.seed, requests=TALOS_REQUESTS)


class GlamdringSign(_SingleTrace):
    """Inline partitioned signing: the transition path and the logger dominate."""

    name = "glamdring-sign"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.workloads.glamdring import GlamdringSigner, SignerBuild

        process = SimProcess(seed=seed)
        GlamdringSigner(process, SgxDevice(process.sim), SignerBuild.PARTITIONED).close()

    def record(self, path: str) -> None:
        recorders.record_glamdring(path, seed=self.seed, signs=GLAMDRING_SIGNS)


def _transitions(path: str) -> int:
    """Boundary crossings in a trace: two per ecall row and per ocall row."""
    with database.TraceDatabase(path) as db:
        return 2 * (len(db.calls(kind="ecall")) + len(db.calls(kind="ocall")))


class SqliteOptimize(Workload):
    """minisql prepared inserts, optimized and replayed on the rewritten interface."""

    name = "sqlite-optimize"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.workloads.minisql import SqlBuild
        from repro.workloads.minisql.enclavised import EnclavedSqlApp, sqlite_definition

        self.definition = sqlite_definition
        process = SimProcess(seed=seed)
        EnclavedSqlApp(process, SgxDevice(process.sim), SqlBuild.ENCLAVE)
        sqlite_definition()

    def run(self, workdir: str, phase, first: bool = False) -> Outcome:
        baseline = os.path.join(workdir, "baseline.db")
        optimized = os.path.join(workdir, "optimized.db")
        with phase("record"):
            recorders.record_sqlite(
                baseline, seed=self.seed, requests=SQLITE_REQUESTS, prepared=True,
                spawn=True, latencies=[],
            )
        size = bytes_on_disk([baseline])
        with phase("analyze"):
            result, _, memory_json = _analyse(baseline)
        with phase("analyze_streaming"):
            streaming_json = _analyse_streaming(baseline)
        with phase("optimize"):
            plan = transforms.build_plan(
                result.findings, definition=self.definition(), source="baseline.db"
            )
            # edger8r rewrites the EDL for the plan as it builds the replay's proxies.
            recorders.record_sqlite(
                optimized, seed=self.seed, requests=SQLITE_REQUESTS, prepared=True,
                plan=plan, spawn=True, latencies=[],
            )
        outcome = Outcome()
        before, after = _transitions(baseline), _transitions(optimized)
        with database.TraceDatabase(baseline) as db:
            baseline_digest = trace_digest(db)
        with database.TraceDatabase(optimized) as db:
            optimized_digest = trace_digest(db)
        transforms_applied = sorted(
            [f"fuse:{p.name}" for p in plan.fused]
            + [f"switchless:{c.call}" for c in plan.switchless]
            + [f"batch:{b.name}" for b in plan.batched]
        )
        outcome.fingerprint = {
            "trace": baseline_digest,
            "optimized_trace": optimized_digest,
            "report": _sha(memory_json),
            "plan": _sha(plan.to_json()),
            "transforms": transforms_applied,
            "transitions": [before, after],
        }
        if streaming_json != memory_json:
            outcome.errors.append("in-memory and streaming report JSON differ")
        if not transforms_applied:
            outcome.errors.append("the plan applied no transforms")
        if not after < before:
            outcome.errors.append(f"optimized transitions {after} not below baseline {before}")
        if first:
            outcome.errors += self._cross_check(
                workdir, plan, before, after, baseline_digest, optimized_digest
            )
        outcome.account([baseline], size, passes=2)
        outcome.counts.update(
            {
                "analysis.findings": len(result.findings),
                "optimizer.transforms": plan.transform_count(),
                "optimizer.fused_pairs": len(plan.fused),
                "optimizer.transition_ratio": after / before,
            }
        )
        return outcome

    def _cross_check(self, workdir, plan, before, after, baseline_digest, optimized_digest):
        """The phases above must reproduce ``run_rerun("sqlite")`` exactly."""
        reference = rerun.run_rerun(
            "sqlite",
            seed=self.seed,
            requests=SQLITE_REQUESTS,
            workdir=os.path.join(workdir, "rerun"),
        )
        ours, theirs = plan.to_dict(), reference.plan.to_dict()
        ours.pop("source", None)
        theirs.pop("source", None)
        errors = []
        if ours != theirs:
            errors.append("plan differs from run_rerun's")
        if (reference.baseline.transitions, reference.optimized.transitions) != (before, after):
            errors.append("transition counts differ from run_rerun's")
        if (reference.baseline.digest, reference.optimized.digest) != (
            baseline_digest,
            optimized_digest,
        ):
            errors.append("trace digests differ from run_rerun's")
        return errors


class ClusterPressure(Workload):
    """Two SecureKeeper nodes, one killed, under an EPC-thrashing co-tenant."""

    name = "cluster-pressure"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.workloads.securekeeper import SecureKeeperProxy

        self.spec = ClusterSpec(
            variant="securekeeper",
            nodes=CLUSTER_NODES,
            clients=CLUSTER_CLIENTS,
            seed=seed,
            replication=2,
            stressor="epc-thrash",
            epc_pages=CLUSTER_EPC_PAGES,
        )
        process = SimProcess(seed=seed)
        SecureKeeperProxy(process, SgxDevice(process.sim), tcs_count=16)

    def run(self, workdir: str, phase, first: bool = False) -> Outcome:
        trace_dir = os.path.join(workdir, "shards")
        with phase("record"):
            cluster = runner.run_cluster(self.spec, jobs=0, trace_dir=trace_dir)
        paths = sorted(glob.glob(os.path.join(trace_dir, "*.db")))
        size = bytes_on_disk(paths)
        with phase("analyze"):
            memory_json = [_analyse(path) for path in paths]
            slo.cluster_slo_from_traces(paths)
            violations, _ = orderly.validate_trace_paths(paths)
        with phase("analyze_streaming"):
            streaming_json = [_analyse_streaming(path) for path in paths]
        with phase("optimize"):
            plans = [_plan_from_trace(path) for path in paths]
        outcome = Outcome()
        shard_digests = []
        for path in paths:
            with database.TraceDatabase(path) as db:
                shard_digests.append(trace_digest(db))
        outcome.fingerprint = {
            "manifest": cluster.digest,
            "traces": shard_digests,
            "reports": [_sha(text) for _, _, text in memory_json],
            "plans": [_sha(plan.to_json()) for plan in plans],
        }
        if [text for _, _, text in memory_json] != streaming_json:
            outcome.errors.append("in-memory and streaming report JSON differ")
        if not paths:
            outcome.errors.append("no shard traces written")
        if cluster.degraded:
            outcome.errors.append("a shard failed to run")
        if cluster.availability != 1.0:
            outcome.errors.append(f"availability {cluster.availability:.6f} below 100%")
        if cluster.lost_writes:
            outcome.errors.append(f"{cluster.lost_writes} acknowledged writes lost")
        if violations:
            outcome.errors.append(f"{len(violations)} orderliness violations")
        fault_rows = 0
        for path in paths:
            with database.TraceDatabase(path) as db:
                fault_rows += db.table_counts().get("faults", 0)
        outcome.account(paths, size, passes=3)
        summary = cluster.cluster_slo
        outcome.counts.update(
            {
                "analysis.findings": sum(len(r.findings) for r, _, _ in memory_json),
                "cluster.requests": summary.attempted,
                "cluster.ok_ratio": cluster.availability,
                "cluster.retries": summary.retries,
                "cluster.failovers": cluster.routing.failovers,
                "cluster.shed": summary.shed,
                "faults.rows": fault_rows,
            }
        )
        return outcome


WORKLOADS = {cls.name: cls for cls in (TalosTls, GlamdringSign, SqliteOptimize, ClusterPressure)}
