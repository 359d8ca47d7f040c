"""One workload in one fresh interpreter: set up, then repeat the pipeline.

Started by ``run.py``; not meant to be run by hand.  Prints ``READY`` once
set-up is done (the parent times interpreter start to that line as
``setup_s``), then, unless ``--setup-only``, runs one untimed warm-up
iteration followed by timed iterations for ``--seconds`` and prints one
JSON line with every iteration's phase samples, the correctness verdicts
and, with ``--trace 1``, the per-layer metrics of the traced iterations.

The worker runs on one CPU (:func:`pin_to_one_cpu`).  With ``--trace 1``
timed iterations cycle through traced, untraced, and untraced with the
worker free to use every allowed CPU, so the run also yields the tracing
overhead (traced over untraced ``pipeline_s``) and the recording time as
an unpinned user would see it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

PHASES = ("record", "analyze", "analyze_streaming", "optimize")
TRACE_CYCLES = 4


# What the reference loop takes on an uncontended core of the 2-vCPU x86-64
# VM the benchmark was written on.  Timings are reported at this speed.
REFERENCE_S = 0.005


def reference_loop(n: int = 16_000) -> int:
    """Fixed pure-Python work: dict updates, int/str conversion, small calls.

    It is the benchmark's own code, so no change to the program can make it
    faster or slower; only the host can.
    """
    table = {}
    total = 0
    for i in range(n):
        key = i % 251
        table[key] = table.get(key, 0) + i
        total += len(str(i)) + sum((key, i & 7))
    return total


def reference_seconds() -> float:
    """Time the reference loop where the worker runs now, with no collection.

    The loop creates no cycles; with the collector off, the garbage a
    phase left cannot slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def pin_to_one_cpu() -> None:
    """Run the worker, and every simthread it starts, on one CPU.

    Only one simthread holds the simulation's turn at a time, so one CPU
    runs the whole simulation.  Left free to use a second vCPU, each turn
    handoff becomes a wake-up of an idle vCPU: on a shared VM that is a
    hypervisor round trip of 0.3-1 ms under host load, against 28 us in
    the baseline table, and it swung the recordings of the threaded
    workloads by 2x with the neighbours' load.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class PhaseTimer:
    """Times each phase; with a tracer, makes each phase a root span.

    A phase entered several times in one iteration gives one sample each
    time.  Before the clock starts, the worker collects the garbage earlier
    phases left, so a collection they caused is not charged to the next
    phase.

    Each sample is bracketed by the reference loop, run right before and
    right after the phase, and is reported at the reference speed:
    ``wall × REFERENCE_S / mean(reference before, reference after)``.  On
    a shared host the speed of a vCPU changes by up to 2x within seconds
    and drifts for minutes with other tenants' load; the bracket measures
    that speed at the time of the sample, so the reported figure follows
    the program, not the neighbours.  Consecutive phases share the
    reference between them.  The raw wall times are kept too.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.samples = {name: [] for name in PHASES}
        self.wall = {name: [] for name in PHASES}
        self._reference = None  # the reference measured after the last phase

    @contextlib.contextmanager
    def __call__(self, name: str):
        span = self.tracer.phase(name) if self.tracer else contextlib.nullcontext()
        gc.collect()
        before = self._reference if self._reference is not None else reference_seconds()
        start = time.perf_counter()
        with span:
            yield
        wall = time.perf_counter() - start
        self._reference = after = reference_seconds()
        self.wall[name].append(wall)
        self.samples[name].append(wall * REFERENCE_S / ((before + after) / 2))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import layers
    import pipelines
    import spans as spans_mod

    workload = pipelines.WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    pin_to_one_cpu()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tracer = spans_mod.Tracer(root) if args.trace else None
    iterations = []
    span_sets = []

    def iterate(index: int, traced: bool, pinned: bool = True) -> float:
        workdir = os.path.join(args.workdir, f"it{index}")
        os.makedirs(workdir, exist_ok=True)
        timer = PhaseTimer(tracer if traced else None)
        record = {"index": index, "traced": traced, "pinned": pinned, "timed": index > 0}
        if traced:
            tracer.install()
        if not pinned and allowed is not None:
            os.sched_setaffinity(0, allowed)
        start = time.perf_counter()
        try:
            outcome = workload.run(workdir, timer, first=index == 0)
        except Exception:  # noqa: BLE001 - an exception is a failed operation
            record["errors"] = [traceback.format_exc(limit=4)]
            outcome = None
        finally:
            if traced:
                tracer.uninstall()
            pin_to_one_cpu()
        elapsed = time.perf_counter() - start
        if outcome is not None:
            record.update(
                errors=list(outcome.errors),
                fingerprint=outcome.fingerprint,
                phases={f"{name}_s": timer.samples[name] for name in PHASES},
                wall={f"{name}_s": timer.wall[name] for name in PHASES},
                pipeline_s=sum(statistics.median(timer.samples[name]) for name in PHASES),
                trace_bytes=outcome.trace_bytes,
                trace_rows=outcome.trace_rows,
            )
            if traced:
                spans = tracer.take()
                record["layers"] = layers.layer_metrics(spans, outcome)
                span_sets.append((spans, index))
        elif traced:
            tracer.take()
        shutil.rmtree(workdir, ignore_errors=True)
        iterations.append(record)
        return elapsed

    iterate(0, traced=False)
    spent = longest = 0.0
    index = 1
    while True:
        kind = index % 3 if args.trace else 2
        elapsed = iterate(index, traced=kind == 1, pinned=kind != 0)
        spent += elapsed
        longest = max(longest, elapsed)
        index += 1
        # Traced runs take at least four of each kind of iteration, so the
        # overhead ratio rests on more than one or two samples.
        enough = not args.trace or index > 3 * TRACE_CYCLES
        if enough and spent + longest > args.seconds:
            break

    if span_sets:
        out = os.path.join(args.workdir, "spans.npz")
        spans_mod.concat([s for s, _ in span_sets], [i for _, i in span_sets]).save(out)
        print(f"spans of {len(span_sets)} traced iterations written to {out}")
    result = {
        "iterations": iterations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
