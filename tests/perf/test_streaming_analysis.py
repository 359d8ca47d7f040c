"""The analyser against golden digests, at every chunk size and job count.

The contract under test: for ANY ``--chunk-events`` / ``--jobs`` setting,
and for the one-chunk :class:`Analyzer`, the report text, JSON export and
call graph hash to the digests pinned in ``analysis_goldens.json`` — on
seeded traces from all four bundled workloads, on a fault/serving trace,
an EPC-thrash paging trace and an empty trace.
"""

from __future__ import annotations

import pytest

from repro.perf.analysis.parallel import shard_threads
from repro.perf.analysis.report import Analyzer
from repro.perf.analysis.streaming import StreamingAnalyzer
from repro.perf.cli import main as cli_main
from repro.perf.database import TraceDatabase, TraceError
from tests.perf import golden_traces as G

WORKLOADS = list(G.WORKLOADS)
CHUNKS = [1, 7, 1000, None]  # None = the default batch (one chunk holds these traces)
SIDE_GOLDENS = ["faulty", "empty", "pressure", "talos+edl"]


@pytest.fixture(scope="module")
def traces(tmp_path_factory) -> dict:
    root = tmp_path_factory.mktemp("golden-traces")
    paths = {}
    for name in G.TRACES:
        paths[name] = str(root / f"{name}.db")
        G.record(name, paths[name])
    return paths


@pytest.fixture(scope="module")
def goldens() -> dict:
    return G.load()


def _streaming_digests(traces, golden: str, chunk, jobs: int = 1) -> dict:
    with TraceDatabase(traces[G.trace_of(golden)]) as db:
        return G.digests(
            StreamingAnalyzer(
                db, definition=G.definition_of(golden), chunk_events=chunk, jobs=jobs
            )
        )


@pytest.mark.parametrize("golden", G.GOLDENS)
def test_analyzer_matches_golden(traces, goldens, golden):
    with TraceDatabase(traces[G.trace_of(golden)]) as db:
        got = G.digests(Analyzer(db, definition=G.definition_of(golden)))
    assert got == goldens[golden]


@pytest.mark.parametrize("chunk", CHUNKS, ids=lambda c: f"chunk={c or 'inf'}")
@pytest.mark.parametrize("workload", WORKLOADS)
def test_streaming_byte_identical(traces, goldens, workload, chunk):
    assert _streaming_digests(traces, workload, chunk) == goldens[workload]


# Only securekeeper records more than one thread, so it is the workload
# that really shards; the others exercise the one-shard fallback.
@pytest.mark.parametrize(
    "workload, chunk",
    [("talos", 7), ("sqlite", 1000), ("glamdring", None), ("securekeeper", 1)],
    ids=lambda v: str(v),
)
def test_parallel_byte_identical(traces, goldens, workload, chunk):
    assert _streaming_digests(traces, workload, chunk, jobs=4) == goldens[workload]


@pytest.mark.parametrize("jobs", [1, 4], ids=lambda j: f"jobs={j}")
@pytest.mark.parametrize("chunk", CHUNKS, ids=lambda c: f"chunk={c or 'inf'}")
@pytest.mark.parametrize("golden", SIDE_GOLDENS)
def test_side_traces_match_goldens(traces, goldens, golden, chunk, jobs):
    assert _streaming_digests(traces, golden, chunk, jobs) == goldens[golden]


def test_streaming_with_edl_identical(traces, goldens):
    assert _streaming_digests(traces, "talos+edl", 13) == goldens["talos+edl"]


def test_fault_and_serving_sections_identical(traces, goldens):
    """Fault counts, availability and notes come out of the fault rows."""
    with TraceDatabase(traces["faulty"]) as db:
        analyzer = Analyzer(db)
        assert G.digests(analyzer) == goldens["faulty"]
        report = analyzer.run()
    assert report.trace_state == "salvaged"
    assert report.availability[0]["attempted"] == 7
    assert any("enclave loss" in note for note in report.notes)


def test_empty_trace_identical(traces, goldens):
    with TraceDatabase(traces["empty"]) as db:
        par = StreamingAnalyzer(db, jobs=4)  # no threads → in-process
        assert G.digests(par) == goldens["empty"]
        assert G.digests(Analyzer(db)) == goldens["empty"]


def test_paging_free_trace_reads_no_ecall_intervals(traces, monkeypatch):
    """The paging pass opens the ecall interval stream at the first paging row."""
    for name, expected in (("glamdring", 0), ("pressure", 1)):
        with TraceDatabase(traces[name]) as db:
            calls = []
            original = db.ecall_intervals_chunks

            def spy(*args, **kwargs):
                calls.append(args)
                return original(*args, **kwargs)

            monkeypatch.setattr(db, "ecall_intervals_chunks", spy)
            report = StreamingAnalyzer(db).run()
        assert len(calls) == expected
        assert (report.paging_events > 0) == bool(expected)


# -- satellite: count fast paths ------------------------------------------


def test_count_fast_paths(traces):
    with TraceDatabase(traces["glamdring"]) as db:
        cols = db.call_columns()
        assert db.calls_count() == len(cols)
        assert db.calls_count(kind="ecall") == sum(
            1 for k in cols.kind.tolist() if k == "ecall"
        )
        counts = db.table_counts()
        assert counts["calls"] == len(cols)
        assert db.event_count() == sum(counts.values())
        threads = dict(db.thread_row_counts())
        assert sum(threads.values()) == len(cols)


# -- read-only mode --------------------------------------------------------


def test_readonly_mode(traces):
    with pytest.raises(TraceError):
        TraceDatabase(":memory:", readonly=True)
    db = TraceDatabase(traces["glamdring"], readonly=True)
    try:
        assert db.calls_count() > 0
        assert len(db.call_columns()) == db.calls_count()
    finally:
        db.close()


# -- shard assignment -------------------------------------------------------


def test_shard_threads_deterministic_and_balanced():
    counts = [(1, 100), (2, 90), (3, 10), (4, 10), (5, 5)]
    shards = shard_threads(counts, 2)
    assert shards == shard_threads(counts, 2)  # deterministic
    assert sorted(t for s in shards for t in s) == [1, 2, 3, 4, 5]
    loads = [sum(dict(counts)[t] for t in s) for s in shards]
    # Greedy LPT, heaviest-first onto the lighter shard:
    # 100 | 90, 100|100, 110|100, 110|105.
    assert sorted(loads) == [105, 110]
    # More shards than threads: empties dropped, one thread each.
    assert shard_threads([(7, 3)], 4) == [[7]]
    with pytest.raises(ValueError):
        shard_threads(counts, 0)


# -- satellite: one columns fetch per Analyzer ------------------------------


def test_analyzer_fetches_columns_once(traces, monkeypatch):
    with TraceDatabase(traces["glamdring"]) as db:
        analyzer = Analyzer(db)
        fetches = []
        original = db.call_columns

        def counted(*args, **kwargs):
            fetches.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(db, "call_columns", counted)
        analyzer.run()
        analyzer.call_graph()
        stat = analyzer.run().statistics[0]
        analyzer.histogram(stat.kind, stat.name)
        analyzer.scatter(stat.kind, stat.name)
    assert len(fetches) == 1


# -- live top ---------------------------------------------------------------


def _run_top(seed: int, with_breaker: bool = False):
    from repro.perf.top import LiveTop
    from repro.workloads import recorders

    tops = []

    def attach(logger):
        breaker = None
        if with_breaker:
            from repro.workloads.serving import CircuitBreaker

            breaker = CircuitBreaker(logger.sim)
        top = LiveTop(logger, interval_ns=50_000, breaker=breaker)
        tops.append(top.attach())

    recorders.record_securekeeper(":memory:", seed, operations=5, attach=attach)
    return tops[0]


def test_live_top_deterministic():
    first = _run_top(seed=2)
    second = _run_top(seed=2)
    assert len(first.samples) > 2
    assert first.samples == second.samples
    # Counts only grow, and rates reflect the deltas.
    ecalls = [s.ecalls for s in first.samples]
    assert ecalls == sorted(ecalls)
    assert any(s.ecall_rate > 0 for s in first.samples)
    assert "samples over" in first.render_summary()


def test_live_top_breaker_and_render():
    top = _run_top(seed=2, with_breaker=True)
    sample = top.samples[-1]
    assert sample.breaker_state == "closed"
    assert "breaker closed" in sample.render()
    assert "ecalls" in sample.render()


def test_live_top_samples_inline_workloads():
    """Loads that run inline are driven under the scheduler when observed.

    Without that, ``sim.compute`` from the schedulerless context only
    advances the clock and the sampler daemon never gets a turn.
    """
    from repro.perf.top import LiveTop
    from repro.workloads import recorders

    tops = []

    def attach(logger):
        tops.append(LiveTop(logger, interval_ns=50_000).attach())

    recorders.record_sqlite(":memory:", seed=2, requests=30, attach=attach)
    assert len(tops[0].samples) > 0
    assert tops[0].samples[-1].ocalls > 0


def test_live_top_counters_match_trace(tmp_path):
    from repro.perf.top import LiveTop
    from repro.workloads import recorders

    path = str(tmp_path / "top.db")
    tops = []

    def attach(logger):
        tops.append(LiveTop(logger, interval_ns=50_000).attach())

    recorders.record_securekeeper(path, seed=2, operations=5, attach=attach)
    with TraceDatabase(path) as db:
        ecalls = db.calls_count(kind="ecall")
        ocalls = db.calls_count(kind="ocall")
    last = tops[0].samples[-1]
    # The sampler's last tick may precede the final calls of the run.
    assert 0 < last.ecalls <= ecalls
    assert last.ocalls <= ocalls


# -- CLI ---------------------------------------------------------------------


def test_cli_streaming_flags_match(traces, capsys):
    path = traces["securekeeper"]
    assert cli_main(["analyze", path]) == 0
    default = capsys.readouterr()
    assert cli_main(["analyze", path, "--chunk-events", "11"]) == 0
    chunked = capsys.readouterr()
    assert chunked.out == default.out
    # Pre-analysis sizing line goes to stderr, report to stdout.
    assert "190 calls" in default.err
    assert "jobs=1, chunk-events=65536" in default.err
    assert "jobs=1, chunk-events=11" in chunked.err


def test_cli_top(capsys):
    assert cli_main(["top", "securekeeper", "--interval-us", "100", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "top" in out
    assert "ecalls" in out
    assert "samples over" in out
