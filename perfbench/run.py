"""sgx-perf benchmark: the record → analyze pipeline on one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload talos-tls --seed 0 --seconds 20 --trace 0

Workloads: talos-tls, glamdring-sign, sqlite-optimize, cluster-pressure
(see perfbench/README.md for why each is in the benchmark).

With ``--trace 0`` it prints every end-to-end metric; with ``--trace 1``
every per-layer metric, the tracing overhead and the recording time of
a worker not pinned to one CPU.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 1 when an operation failed.  The workload runs in fresh
interpreters started from here (``perfbench/worker.py``); set-up is timed
in several of them.  Scratch files go to ``.perfbench/`` under the
repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("talos-tls", "glamdring-sign", "sqlite-optimize", "cluster-pressure")
SETUP_SAMPLES = 7  # fresh interpreters timed from spawn to READY
PROCESS_TIMEOUT_S = 150.0
DEFAULT_SEED = 0  # the seed whose fingerprints are committed in expected.json

END_TO_END = [
    ("setup_s", "s"),
    ("record_s", "s"),
    ("analyze_s", "s"),
    ("analyze_streaming_s", "s"),
    ("optimize_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("trace_bytes_per_event", "B"),
]


class WorkerFailed(RuntimeError):
    pass


def _worker_command(args, workdir: str, setup_only: bool) -> list:
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", workdir,
    ]
    return command + (["--setup-only"] if setup_only else [])


def _environment(workdir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = env["SQLITE_TMPDIR"] = tmp
    return env


def _start(args, workdir: str, setup_only: bool) -> tuple[float, list]:
    """Run one worker; returns (seconds from spawn to READY, stdout lines after it)."""
    start = time.perf_counter()
    process = subprocess.Popen(
        _worker_command(args, workdir, setup_only),
        stdout=subprocess.PIPE,
        env=_environment(workdir),
        cwd=ROOT,
        text=True,
    )
    watchdog = threading.Timer(PROCESS_TIMEOUT_S, process.kill)
    watchdog.start()
    ready = None
    lines = []
    try:
        for line in process.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            elif ready is not None:
                lines.append(line.rstrip("\n"))
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
        process.wait()
        process.stdout.close()
    if process.returncode != 0 or ready is None:
        raise WorkerFailed(f"worker exited with {process.returncode} (ready={ready is not None})")
    return ready, lines


def _setup_samples(args, workdir: str) -> tuple[list, int]:
    """Time set-up in fresh interpreters; returns (samples, failed probes).

    Like every phase (see worker.PhaseTimer), each sample is scaled to the
    reference speed by the reference loop run right before the spawn and
    right after READY.  run.py and its probes share one CPU meanwhile, so
    the bracket measures the CPU the probe ran on.  The measuring worker
    is started afterwards with the full affinity restored.
    """
    import worker

    samples, failed = [], 0
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    worker.pin_to_one_cpu()
    try:
        for _ in range(SETUP_SAMPLES):
            try:
                before = worker.reference_seconds()
                ready = _start(args, workdir, setup_only=True)[0]
                after = worker.reference_seconds()
            except WorkerFailed as err:
                failed += 1
                print(f"setup probe failed: {err}")
                continue
            samples.append(ready * worker.REFERENCE_S / ((before + after) / 2))
    finally:
        if allowed is not None:
            os.sched_setaffinity(0, allowed)
    return samples, failed


def _median(values: list) -> float:
    return float(statistics.median(values)) if values else 0.0


def _load_expected(workload: str):
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f).get(workload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import layers

    workdir = os.path.join(ROOT, ".perfbench", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    setup, failed = _setup_samples(args, workdir)
    attempted = SETUP_SAMPLES
    result = {"iterations": [], "peak_rss_mb": 0.0}
    try:
        lines = _start(args, workdir, setup_only=False)[1]
        if not lines:
            raise WorkerFailed("worker printed no result")
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
    except (WorkerFailed, ValueError) as err:
        attempted += 1
        failed += 1
        print(f"measuring worker failed: {err}")

    expected = _load_expected(args.workload) if args.seed == DEFAULT_SEED else None
    first_fingerprint = None
    for it in result["iterations"]:
        attempted += 1
        errors = list(it.get("errors", []))
        fingerprint = it.get("fingerprint")
        if fingerprint is not None:
            if first_fingerprint is None:
                first_fingerprint = fingerprint
            elif fingerprint != first_fingerprint:
                errors.append("fingerprint differs between runs of one seed")
            if expected is not None and fingerprint != expected:
                errors.append("fingerprint differs from the committed one for the default seed")
        if errors:
            failed += 1
            print(f"iteration {it['index']} FAILED: " + " | ".join(errors))
    print(f"fingerprint (seed {args.seed}): {json.dumps(first_fingerprint, sort_keys=True)}")

    good = [it for it in result["iterations"] if it["timed"] and "phases" in it]
    untraced = [it for it in good if not it["traced"] and it["pinned"]]
    traced = [it for it in good if it["traced"]]
    unpinned = [it for it in good if not it["pinned"]]
    if not untraced or (args.trace and not (traced and unpinned)):
        # Nothing was measured: still report the failure against the attempts.
        failed = max(failed, 1)
        attempted = max(attempted, failed)
        print("error: no timed iteration completed", file=sys.stderr)
    metrics = {}
    if args.trace == 0:
        units = dict(END_TO_END)
        if untraced:
            for name in ("record_s", "analyze_s", "analyze_streaming_s", "optimize_s"):
                metrics[name] = _median([t for it in untraced for t in it["phases"][name]])
            metrics["pipeline_s"] = _median([it["pipeline_s"] for it in untraced])
            metrics["setup_s"] = _median(setup)
            metrics["peak_rss_mb"] = result["peak_rss_mb"]
            sizes = [it["trace_bytes"] / it["trace_rows"] for it in good if it["trace_rows"]]
            metrics["trace_bytes_per_event"] = _median(sizes)
        print(f"{args.workload} seed {args.seed}: {len(untraced)} timed iterations, "
              f"{len(setup)} set-ups")
        for name in ("record_s", "analyze_s", "analyze_streaming_s", "optimize_s"):
            wall = _median([t for it in untraced for t in it["wall"][name]])
            print(f"  {name:28} {wall:14.6g} s wall (not reference-scaled)")
    else:
        units = dict(layers.PER_LAYER)
        if untraced and traced and unpinned:
            for name in traced[0]["layers"]:
                metrics[name] = _median([it["layers"][name] for it in traced])
            metrics["kernel.record_unpinned_s"] = _median(
                [t for it in unpinned for t in it["phases"]["record_s"]]
            )
            metrics["trace.overhead"] = _median([it["pipeline_s"] for it in traced]) / _median(
                [it["pipeline_s"] for it in untraced]
            )
        print(f"{args.workload} seed {args.seed}: {len(traced)} traced, {len(untraced)} "
              f"untraced and {len(unpinned)} unpinned untraced iterations")
        pinned = _median([t for it in untraced for t in it["phases"]["record_s"]])
        print(f"  {'record_s':28} {pinned:14.6g} s (untraced, one CPU: next to "
              f"kernel.record_unpinned_s)")
    for name, value in metrics.items():
        note = f"  (absent: {layers.reason(name)})" if args.trace and value == 0 else ""
        print(f"  {name:28} {value:14.6g} {units[name]}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
