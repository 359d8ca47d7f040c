"""Figures 7 & 8 + §5.2.4: SecureKeeper under full load.

Reproduces: the narrow interface (2 ecalls / 6 ocalls, of which 2 and 3
are called), per-ecall means of ≈14 µs and ≈18 µs (4-6× the transition
cost), the connect-phase synchronisation ocalls (paper: 18), and the data
behind the figures — the 100-bin histogram of
``sgx_ecall_handle_input_from_client`` execution times (Figure 7) and the
duration-over-time scatter series (Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perf.analysis import stats as stats_mod
from repro.perf.columns import CallColumns
from repro.perf.logger import AexMode, EventLogger
from repro.sgx.device import SgxDevice
from repro.sim.process import SimProcess
from repro.workloads.securekeeper import (
    ECALL_FROM_CLIENT,
    ECALL_FROM_ZOOKEEPER,
    SecureKeeperProxy,
    run_securekeeper_load,
)


@dataclass
class Figures78Result:
    """Everything the SecureKeeper experiment reports."""

    operations: int
    ecall_events: int
    ocall_events: int
    distinct_ecalls: int
    distinct_ocalls_called: int
    client_mean_us: float
    zk_mean_us: float
    transition_us: float
    sync_ocalls: int
    histogram: stats_mod.Histogram
    scatter_starts_ns: np.ndarray
    scatter_durations_ns: np.ndarray
    verified_gets: int

    def render(self) -> str:
        lines = [
            "Figures 7/8 + SS5.2.4 - SecureKeeper (paper values in parentheses)",
            f"ecall events: {self.ecall_events} over {self.distinct_ecalls} ecalls (2); "
            f"ocall events: {self.ocall_events} over "
            f"{self.distinct_ocalls_called} called ocalls (3)",
            f"mean durations: client {self.client_mean_us:.1f} us (~14), "
            f"zookeeper {self.zk_mean_us:.1f} us (~18) "
            f"= {self.client_mean_us / self.transition_us:.1f}x / "
            f"{self.zk_mean_us / self.transition_us:.1f}x the transition (4-6x)",
            f"sync ocalls during connect phase: {self.sync_ocalls} (18)",
            f"end-to-end payload verification: {self.verified_gets} gets round-tripped",
            "",
            f"Figure 7 - histogram of {ECALL_FROM_CLIENT} ({len(self.histogram.counts)} bins):",
            self.histogram.render(width=50, max_rows=18),
        ]
        return "\n".join(lines)


def run_figures_7_8(
    clients: int = 8,
    operations_per_client: int = 60,
    seed: int = 0,
) -> Figures78Result:
    """Trace a SecureKeeper load run and extract the figures' data."""
    process = SimProcess(seed=seed)
    device = SgxDevice(process.sim)
    proxy = SecureKeeperProxy(process, device, tcs_count=max(4, clients * 2))
    logger = EventLogger(process, proxy.urts, aex_mode=AexMode.COUNT)
    logger.install()
    result = run_securekeeper_load(
        clients=clients,
        operations_per_client=operations_per_client,
        process=process,
        device=device,
        proxy=proxy,
    )
    logger.uninstall()
    db = logger.finalize()

    client_calls = db.calls(kind="ecall", name=ECALL_FROM_CLIENT)
    zk_calls = db.calls(kind="ecall", name=ECALL_FROM_ZOOKEEPER)
    # Figure 7/8 show the request path; connect handshakes (with their
    # in-ecall sleeps) are a separate phase.
    request_calls = [c for c in client_calls if c.duration_ns < 60_000]
    request_cols = CallColumns.from_events(request_calls)
    ecalls = db.calls(kind="ecall")
    ocalls = db.calls(kind="ocall")
    starts, durations = stats_mod.scatter_series(request_cols)
    transition_us = device.cpu.transition_round_trip_ns / 1000.0
    return Figures78Result(
        operations=result.operations,
        ecall_events=len(ecalls),
        ocall_events=len(ocalls),
        distinct_ecalls=len({c.name for c in ecalls}),
        distinct_ocalls_called=len({c.name for c in ocalls}),
        client_mean_us=float(np.mean([c.duration_ns for c in request_calls]) / 1000.0),
        zk_mean_us=float(np.mean([c.duration_ns for c in zk_calls]) / 1000.0),
        transition_us=transition_us,
        sync_ocalls=sum(1 for c in ocalls if c.is_sync),
        histogram=stats_mod.histogram(request_cols, bins=100),
        scatter_starts_ns=starts,
        scatter_durations_ns=durations,
        verified_gets=result.verified_gets,
    )
