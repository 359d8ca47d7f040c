"""Seeded traces and the report digests pinned for them.

``analysis_goldens.json`` holds three sha256 digests per trace:

* ``text`` — ``render_text()`` + ``"\\n"`` + ``render_availability()``;
* ``json`` — ``report_to_json`` (the ``--json`` export);
* ``dot``  — the call graph as Graphviz DOT.

They stand in for a second analyser implementation: every chunk size and
job count of the analyser must reproduce them byte for byte.  Regenerate
only when a change is meant to alter analysis output::

    PYTHONPATH=src python -m tests.perf.golden_traces --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import tempfile

GOLDENS_PATH = os.path.join(os.path.dirname(__file__), "analysis_goldens.json")

WORKLOADS = ("talos", "sqlite", "glamdring", "securekeeper")
# Each golden names the trace it analyses; "talos+edl" re-analyses the
# talos trace with TALOS_EDL supplied.
TRACES = WORKLOADS + ("faulty", "empty", "pressure", "export")
GOLDENS = TRACES + ("talos+edl",)

TALOS_EDL = """
enclave {
    trusted {
        public void ecall_handshake([user_check] void *ctx);
        void ecall_request(void);
    };
    untrusted {
        void ocall_read(void) allow(ecall_request, ecall_handshake);
    };
};
"""


def _add_fault_rows(path: str) -> None:
    """Serving, watchdog and recovery rows on a salvaged trace."""
    from repro.perf.database import TraceDatabase

    with TraceDatabase(path) as db:
        rows = []
        ts = 1_000
        for i in range(6):
            rows.append((10_000 + i, ts + i, 1, 1, "serve:request", "kvstore", f"ok +{90 + i} ns"))
        rows.append((10_006, ts + 6, 1, 1, "serve:retry", "kvstore", ""))
        rows.append((10_007, ts + 7, 1, 1, "serve:shed", "kvstore", ""))
        rows.append((10_008, ts + 8, 1, 2, "serve:failed", "kvstore", ""))
        rows.append((10_009, ts + 9, 1, 2, "watchdog:deadlock", "", "cycle"))
        rows.append((10_010, ts + 10, 1, 2, "inject:loss", "", ""))
        rows.append((10_011, ts + 11, 1, 2, "recover:recreate", "", ""))
        rows.append((10_012, ts + 12, 1, 2, "recover:retry", "ecall_sign", ""))
        db.add_fault_rows(rows)
        db.set_meta("trace_state", "salvaged")
        db.flush()


def record(name: str, path: str) -> None:
    """Write trace ``name`` (one of :data:`TRACES`) to a fresh ``path``."""
    from repro.perf.database import TraceDatabase
    from repro.workloads import recorders
    from repro.workloads.stressors.runner import run_stressor

    seed = 5
    if name == "talos":
        recorders.record_talos(path, seed, requests=60)
    elif name == "sqlite":
        recorders.record_sqlite(path, seed, requests=80)
    elif name == "glamdring":
        recorders.record_glamdring(path, seed, signs=2)
    elif name == "securekeeper":
        recorders.record_securekeeper(path, seed, operations=10)
    elif name == "faulty":
        recorders.record_glamdring(path, seed, signs=2)
        _add_fault_rows(path)
    elif name == "empty":
        with TraceDatabase(path) as db:
            db.flush()
    elif name == "pressure":
        run_stressor("epc-thrash", 2, db_path=path)
    elif name == "export":
        recorders.record_sqlite(path, seed=0, requests=80)
    else:
        raise ValueError(f"unknown golden trace {name!r}")


def trace_of(golden: str) -> str:
    """The trace a golden analyses."""
    return golden.split("+", 1)[0]


def definition_of(golden: str):
    """The EDL a golden is analysed with (``None`` for most)."""
    from repro.sdk.edl import parse_edl

    return parse_edl(TALOS_EDL) if golden == "talos+edl" else None


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(analyzer) -> dict:
    """Run ``analyzer`` and digest its report text, JSON export and DOT."""
    from repro.perf.analysis.callgraph import to_dot
    from repro.perf.analysis.export import report_to_json

    report = analyzer.run()
    return {
        "text": _sha(report.render_text() + "\n" + report.render_availability()),
        "json": _sha(report_to_json(report)),
        "dot": _sha(to_dot(analyzer.call_graph())),
    }


def load() -> dict:
    with open(GOLDENS_PATH) as f:
        return json.load(f)


def main(argv=None) -> int:
    from repro.perf.analysis import Analyzer
    from repro.perf.database import TraceDatabase

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {GOLDENS_PATH}")
    args = parser.parse_args(argv)
    out = {}
    with tempfile.TemporaryDirectory() as root:
        for name in TRACES:
            record(name, os.path.join(root, f"{name}.db"))
        for golden in GOLDENS:
            path = os.path.join(root, f"{trace_of(golden)}.db")
            with TraceDatabase(path) as db:
                out[golden] = digests(Analyzer(db, definition=definition_of(golden)))
    text = json.dumps(out, indent=2, sort_keys=True) + "\n"
    if args.write:
        with open(GOLDENS_PATH, "w") as f:
            f.write(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
