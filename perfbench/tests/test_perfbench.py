"""Self-tests of the benchmark: span arithmetic and a deliberately slowed layer.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
import tempfile
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

NAMES = ["phase.record", "sdk:call", "kernel.wait:_yield_turn", "crypto:sha256"]
LAYERS = ["phase", "sdk", spans.WAIT_LAYER, "crypto"]
ROOT_SPAN, CALL, WAIT, HASH = range(4)


def span_set(records):
    return spans.SpanSet.from_records(records, NAMES, LAYERS)


def test_self_time_on_hand_built_tree():
    # (id, parent, depth, name, start, end, value).  The phase runs 0-10 on
    # the main thread.  Thread A enters an ecall at 1, hashes 1.5-2, then
    # waits for its turn 2-5 while thread B hashes 2.5-4.5; A's ecall ends
    # at 6.  The main thread hashes 7-8 itself.
    tree = span_set(
        [
            (0, -1, 0, ROOT_SPAN, 0.0, 10.0, 0),
            (1, 0, 0, CALL, 1.0, 6.0, 0),
            (2, 1, 1, HASH, 1.5, 2.0, 0),
            (3, 1, 1, WAIT, 2.0, 5.0, 0),
            (4, 0, 0, HASH, 2.5, 4.5, 0),
            (5, 0, 1, HASH, 7.0, 8.0, 0),
        ]
    )
    self_time = tree.self_times()
    # The ecall ran 1-2 and 5-6; 0.5 of that is its hash.
    assert self_time[1] == pytest.approx(1.5)
    assert self_time[2] == pytest.approx(0.5)
    # A waiting thread runs nothing: the wait has no self time …
    assert self_time[3] == pytest.approx(0.0)
    # … and the work B did meanwhile is B's.
    assert self_time[4] == pytest.approx(2.0)
    assert self_time[5] == pytest.approx(1.0)
    # What no span covers: 0-1, 4.5-5, 6-7 and 8-10.
    assert self_time[0] == pytest.approx(5.0)
    # Only one thread runs at a time, so self times partition the phase.
    assert self_time.sum() == pytest.approx(10.0)


def test_self_time_nested_on_one_thread():
    tree = span_set(
        [
            (10, -1, 0, ROOT_SPAN, 0.0, 4.0, 0),
            (11, 10, 1, CALL, 0.5, 3.5, 0),
            (12, 11, 2, HASH, 1.0, 2.0, 0),
            (13, 12, 3, HASH, 1.2, 1.4, 0),
        ]
    )
    assert tree.self_times().tolist() == pytest.approx([1.0, 2.0, 0.8, 0.2])


def test_handoff_latency_pairs_a_yield_with_the_next_resume():
    handoffs = span_set(
        [
            (0, -1, 0, ROOT_SPAN, 0.0, 10.0, 0),
            (1, 0, 0, CALL, 0.0, 4.0, 0),
            (2, 1, 1, WAIT, 0.0, 1.2, 0),  # B waits from the start, resumed at 1.2
            (3, 0, 0, CALL, 0.5, 6.0, 0),
            (4, 3, 1, WAIT, 1.0, 3.0, 0),  # A yields at 1.0
            (5, 3, 1, WAIT, 5.0, 5.5, 0),  # nobody else resumes: no sample
        ]
    )
    assert handoffs.handoff_latencies().tolist() == pytest.approx([0.2])


def test_tracer_restores_every_patched_entry_point():
    from repro.sim.kernel import Simulation

    sha_mod = importlib.import_module("repro.crypto.sha256")

    original_hash = sha_mod.sha256
    original_compute = Simulation.__dict__["compute"]
    tracer = spans.Tracer(ROOT)
    tracer.install()
    try:
        assert sha_mod.sha256 is not original_hash
        with tracer.phase("record"):
            sha_mod.sha256(b"abc")
        sha_mod.sha256(b"outside any phase adds no span")
    finally:
        tracer.uninstall()
    assert sha_mod.sha256 is original_hash
    assert Simulation.__dict__["compute"] is original_compute
    recorded = tracer.take()
    names = [recorded.names[n] for n in recorded.name]
    assert names.count("crypto:sha256") == 1
    assert names.count("phase.record") == 1


def test_a_failed_worker_is_a_failed_operation(monkeypatch, capsys):
    import run

    def start(args, workdir, setup_only):
        if setup_only:
            return 0.5, []
        raise run.WorkerFailed("worker exited with -9 (ready=True)")

    monkeypatch.setattr(run, "_start", start)
    assert run.main(["--workload", "talos-tls", "--seed", "0", "--seconds", "1"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] == run.SETUP_SAMPLES + 1


# -- a deliberately slowed layer ----------------------------------------------

CRYPTO_DELAY_S = 500e-6
REPEATS = 5


class SlowCryptoTracer(spans.Tracer):
    """Adds a fixed busy delay inside every crypto entry point."""

    def wrap(self, name, layer, fn, value=None):
        if layer != "crypto":
            return super().wrap(name, layer, fn, value)

        def slowed(*args, **kwargs):
            until = time.perf_counter() + CRYPTO_DELAY_S
            while time.perf_counter() < until:
                pass
            return fn(*args, **kwargs)

        return super().wrap(name, layer, slowed, value)


@pytest.fixture
def one_cpu():
    """Run on one CPU, as the benchmark's worker does."""
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    worker.pin_to_one_cpu()
    yield
    if allowed is not None:
        os.sched_setaffinity(0, allowed)


def _record_once(workload, tracer_class) -> tuple[float, float, float]:
    """record_s as the benchmark reports it, its wall time, and crypto.self_s."""
    import pipelines

    tracer = tracer_class(ROOT)
    timer = worker.PhaseTimer(tracer)
    with tempfile.TemporaryDirectory() as workdir:
        tracer.install()
        try:
            with timer("record"):
                workload.record(os.path.join(workdir, "trace.db"))
        finally:
            tracer.uninstall()
    crypto_s = layers.layer_metrics(tracer.take(), pipelines.Outcome())["crypto.self_s"]
    return timer.samples["record"][0], timer.wall["record"][0], crypto_s


def _medians(workload) -> dict:
    """Medians of :func:`_record_once` per tracer, plain and slowed runs alternating."""
    samples = {spans.Tracer: [], SlowCryptoTracer: []}
    for _ in range(REPEATS):
        for tracer_class in samples:
            samples[tracer_class].append(_record_once(workload, tracer_class))
    return {
        tracer_class: tuple(statistics.median(column) for column in zip(*runs))
        for tracer_class, runs in samples.items()
    }


def _bound(metric: str) -> float:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == metric)


@pytest.mark.parametrize(
    "workload_name, trips",
    [("talos-tls", True), ("glamdring-sign", False)],
)
def test_slowed_crypto_trips_only_the_crypto_heavy_workload(workload_name, trips, one_cpu):
    import pipelines

    workload = pipelines.WORKLOADS[workload_name](0)
    medians = _medians(workload)
    plain_record, plain_wall, plain_crypto = medians[spans.Tracer]
    slow_record, _, slow_crypto = medians[SlowCryptoTracer]
    bound = _bound("record_s")
    assert slow_crypto > plain_crypto
    if trips:
        assert slow_record > plain_record * (1 + bound)
        assert slow_crypto - plain_crypto > bound * plain_wall
    else:
        assert slow_record < plain_record * (1 + bound)
