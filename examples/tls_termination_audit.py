#!/usr/bin/env python
"""Audit the TaLoS enclave interface with sgx-perf (§5.2.1, Figure 5).

Serves HTTPS requests through the enclavised TLS library, then uses the
analyser to show why the OpenSSL API makes a poor enclave interface: the
ERR_* polling transitions, the chatty read/write ocalls, the user_check
pointers, and the call graph (written to ``talos_callgraph.dot`` — render
with Graphviz if available).

Run:  python examples/tls_termination_audit.py
"""

from repro.perf import AexMode, Analyzer, EventLogger
from repro.perf.analysis import stats as stats_mod
from repro.sgx import SgxDevice
from repro.sim import SimProcess
from repro.workloads.talos import TalosApp, run_talos_nginx


def main() -> None:
    process = SimProcess(seed=0)
    device = SgxDevice(process.sim)
    app = TalosApp(process, device)
    logger = EventLogger(process, app.urts, aex_mode=AexMode.COUNT)
    logger.install()
    result = run_talos_nginx(requests=120, process=process, device=device, app=app)
    logger.uninstall()
    trace = logger.finalize()

    ecalls = trace.calls(kind="ecall")
    ocalls = trace.calls(kind="ocall")
    print(f"served {result.requests} HTTPS requests "
          f"({result.client.responses_verified} verified end to end)")
    print(f"ecalls: {len(ecalls)} events, {len(ecalls) / result.requests:.1f} per "
          f"request (paper: 27.6) across {len({c.name for c in ecalls})} "
          f"distinct calls (paper: 61)")
    print(f"ocalls: {len(ocalls)} events, {len(ocalls) / result.requests:.1f} per "
          f"request (paper: 29.0)")
    short_e = stats_mod.fraction_shorter_than(
        trace.call_columns(kind="ecall").duration_ns(), 10_000
    )
    short_o = stats_mod.fraction_shorter_than(
        trace.call_columns(kind="ocall").duration_ns(), 10_000
    )
    print(f"short calls (<10us): {short_e:.1%} of ecalls (paper 60.78%), "
          f"{short_o:.1%} of ocalls (paper 73.69%)")
    print()

    analyzer = Analyzer(trace, definition=app.handle.definition)
    report = analyzer.run()
    print("top findings against the OpenSSL-as-enclave-interface design:")
    shown = 0
    for finding in report.findings_by_priority():
        print(f"  [{finding.problem.name:9}] {finding.kind} {finding.call}: "
              f"{finding.recommendations[0].value}")
        shown += 1
        if shown == 8:
            break
    print()

    dot = analyzer.call_graph_dot()
    with open("talos_callgraph.dot", "w") as f:
        f.write(dot)
    print(f"call graph written to talos_callgraph.dot "
          f"({dot.count('->')} edges; Figure 5 analogue)")


if __name__ == "__main__":
    main()
