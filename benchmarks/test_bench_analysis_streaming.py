"""Streaming analyser: throughput and peak-memory gates on a 10× trace.

On a trace an order of magnitude larger than the workload defaults, the
chunked fold (:class:`StreamingAnalyzer`, 8192-row batches) must be at
least as fast as the same fold over one unbounded chunk
(:class:`Analyzer`) while holding at most 25% of its peak traced memory —
and still produce the byte-identical report.  :class:`Analyzer` fetches
every row as a Python tuple before building columns; the chunked path's
working set is one column batch plus the per-call-site accumulators
(~24 bytes of retained state per row).

Memory is measured with :mod:`tracemalloc` (both paths measured under the
same instrumentation); throughput is timed in a separate, uninstrumented
pass.  A parallel-scaling assertion is CPU-gated like the sweep scaling
benchmark; equivalence of ``--jobs 4`` is asserted everywhere.
"""

from __future__ import annotations

import os
import time
import tracemalloc

import pytest

from conftest import run_once

from repro.perf.analysis.report import Analyzer
from repro.perf.analysis.streaming import StreamingAnalyzer
from repro.perf.database import TraceDatabase

# 10× the default glamdring recording (signs=4 → ~25k calls).
SIGNS_10X = 40
CHUNK = 8_192
MAX_MEMORY_FRACTION = 0.25
MIN_THROUGHPUT_RATIO = 1.0


@pytest.fixture(scope="module")
def big_trace(tmp_path_factory) -> str:
    from repro.workloads.recorders import record_glamdring

    path = str(tmp_path_factory.mktemp("bench-streaming") / "big.db")
    record_glamdring(path, seed=0, signs=SIGNS_10X)
    return path


def _timed(fn) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bench_streaming_throughput_and_memory(big_trace, benchmark):
    """≥1× the one-chunk throughput at ≤25% of its peak memory, byte-identical."""
    with TraceDatabase(big_trace) as db:
        rows = db.calls_count()
        assert rows >= 200_000, f"10x trace unexpectedly small: {rows} calls"

        in_memory_s, ref = _timed(lambda: Analyzer(db).run())
        streaming_s, got = run_once(
            benchmark,
            lambda: _timed(lambda: StreamingAnalyzer(db, chunk_events=CHUNK).run()),
        )
        assert got.render_text() == ref.render_text()
        assert got.findings == ref.findings

        peak_in_memory = _traced_peak(lambda: Analyzer(db).run())
        peak_streaming = _traced_peak(
            lambda: StreamingAnalyzer(db, chunk_events=CHUNK).run()
        )

    ratio = in_memory_s / streaming_s
    fraction = peak_streaming / peak_in_memory
    print(
        f"\nstreaming analysis ({rows} calls): one chunk {in_memory_s:.2f}s "
        f"({rows / in_memory_s:,.0f} rows/s, peak {peak_in_memory / 1e6:.1f} MB), "
        f"chunk {CHUNK} {streaming_s:.2f}s ({rows / streaming_s:,.0f} rows/s, "
        f"peak {peak_streaming / 1e6:.1f} MB) — {ratio:.2f}x throughput at "
        f"{fraction:.1%} of peak memory"
    )
    assert ratio >= MIN_THROUGHPUT_RATIO, (
        f"streaming only {ratio:.2f}x the one-chunk throughput "
        f"(need >= {MIN_THROUGHPUT_RATIO}x)"
    )
    assert fraction <= MAX_MEMORY_FRACTION, (
        f"streaming peak memory {fraction:.1%} of one-chunk "
        f"(need <= {MAX_MEMORY_FRACTION:.0%})"
    )


def test_bench_parallel_equivalence_and_scaling(big_trace, benchmark):
    """--jobs 4 is byte-identical everywhere; faster where cores exist."""
    with TraceDatabase(big_trace) as db:
        serial_s, ref = _timed(lambda: StreamingAnalyzer(db, chunk_events=CHUNK).run())
        parallel_s, got = run_once(
            benchmark,
            lambda: _timed(
                lambda: StreamingAnalyzer(db, chunk_events=CHUNK, jobs=4).run()
            ),
        )
    assert got.render_text() == ref.render_text()
    assert got.findings == ref.findings
    print(
        f"\nparallel analysis: jobs=1 {serial_s:.2f}s, jobs=4 {parallel_s:.2f}s "
        f"({serial_s / parallel_s:.2f}x)"
    )
    cores = os.cpu_count() or 1
    if cores < 4:
        pytest.skip(f"scaling assertion needs >= 4 CPUs (have {cores})")
    # Sharded fold + sequential merge: expect a real win, not linearity
    # (the coordinator's sync/paging/fault passes stay sequential).
    assert parallel_s < serial_s
