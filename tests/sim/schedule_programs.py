"""Seeded random simthread programs and the schedule digests pinned for them.

Each program is a pure function of its seed: 2–12 simthreads doing jittered
``compute``, timed and untimed ``futex_wait``, ``futex_wake`` with counts,
``yield_now`` and nested ``spawn`` (daemons included).  Running one records
a ``(tid, now_ns, op, result)`` entry per kernel call, the final virtual
time, each thread's outcome, and the type and message of any error
``Simulation.run()`` raised.  ``schedule_goldens.json`` maps each program to
the sha256 of that record.

The digests pin the schedule itself — pop order, ``seq`` bumps, clock
advances, kill and deadlock handling — independent of how the kernel hands
turns between OS threads, and both run queues must reproduce them.
Regenerate only when a change is meant to alter the schedule::

    PYTHONPATH=src python -m tests.sim.schedule_programs --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
from typing import Optional

from repro.sim.kernel import Simulation

GOLDENS_PATH = os.path.join(os.path.dirname(__file__), "schedule_goldens.json")

MAX_THREADS = 12
KEYS = ("a", "b", "c")
RANDOM_SEEDS = range(32)
# Programs with a planned ending: one thread raises while its peers are
# mid-flight, or every thread ends blocked on a key nobody wakes.
SPECIAL = ("raises", "deadlocks")
PROGRAMS = tuple(f"random-{seed}" for seed in RANDOM_SEEDS) + SPECIAL


class PlannedFailure(RuntimeError):
    """The error the ``raises`` program throws from one of its threads."""


def run_program(name: str, run_queue: str = "heap") -> dict:
    """Run program ``name`` to its end and return its schedule record."""
    kind, _, seed_text = name.partition("-")
    seed = int(seed_text) if seed_text else {"raises": 101, "deadlocks": 202}[kind]
    plan = random.Random(seed)
    sim = Simulation(seed=seed, run_queue=run_queue)
    log: list = []
    spawned = [0]
    raiser = (plan.randrange(2), plan.randrange(4, 10)) if kind == "raises" else None

    def record(op: str, result) -> None:
        log.append((sim.current_thread.tid, sim.now_ns, op, result))

    def body(index: int, rng: random.Random, depth: int, steps: int) -> None:
        tid = sim.current_thread.tid
        record("start", depth)
        for step in range(steps):
            if raiser and depth == 0 and (index, step) == (raiser[0], min(raiser[1], steps - 1)):
                raise PlannedFailure(f"tid {tid} step {step} at {sim.now_ns} ns")
            roll = rng.random()
            if roll < 0.35:
                mean = rng.choice((0, 40, 400, 3_000))
                ns = sim.rng.jitter_ns(f"compute-{tid}", mean) if mean else 0
                sim.compute(ns)
                record("compute", ns)
            elif roll < 0.5:
                timeout = rng.choice((0, 100, 1_000, 20_000))
                key = rng.choice(KEYS)
                record(f"timed_wait:{key}:{timeout}", sim.futex_wait(key, timeout_ns=timeout))
            elif roll < 0.6 and kind != "deadlocks":
                key = rng.choice(KEYS)
                record(f"wait:{key}", sim.futex_wait(key))
            elif roll < 0.78:
                key, count = rng.choice(KEYS), rng.choice((1, 2, 3))
                record(f"wake:{key}:{count}", sim.futex_wake(key, count))
            elif roll < 0.88 and spawned[0] < MAX_THREADS and depth < 3:
                spawned[0] += 1
                daemon = rng.random() < 0.3
                child = sim.spawn(
                    body,
                    index,
                    random.Random(rng.getrandbits(64)),
                    depth + 1,
                    rng.randint(1, 8),
                    daemon=daemon,
                )
                record(f"spawn:{int(daemon)}", child.tid)
            else:
                sim.yield_now()
                record("yield", None)
        if kind == "deadlocks":
            record("wait:never", sim.futex_wait("never"))
        record("end", None)

    def pulser(period: int) -> None:
        # Daemon that keeps every untimed wait live; killed at the end.
        while True:
            sim.compute(period)
            for key in KEYS:
                record(f"pulse:{key}", sim.futex_wake(key, MAX_THREADS))

    if kind != "deadlocks":
        spawned[0] += 1
        sim.spawn(pulser, plan.choice((500, 2_500, 9_000)), name="pulser", daemon=True)
    for index in range(plan.randint(2, 6)):
        spawned[0] += 1
        sim.spawn(body, index, random.Random(plan.getrandbits(64)), 0, plan.randint(3, 14))

    error: Optional[list] = None
    try:
        sim.run()
    except Exception as exc:  # noqa: BLE001 - the error is part of the record
        error = [type(exc).__name__, str(exc)]
    threads = [
        [t.tid, t.name, t.daemon, t.is_alive, type(t.exception).__name__ if t.exception else None]
        for t in sim._threads
    ]
    return {"log": log, "now_ns": sim.now_ns, "threads": threads, "error": error}


def digest(record: dict) -> str:
    """sha256 of a schedule record's canonical JSON."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def compute_goldens(run_queue: str = "heap") -> dict:
    return {name: digest(run_program(name, run_queue)) for name in PROGRAMS}


def load_goldens() -> dict:
    with open(GOLDENS_PATH) as fh:
        return json.load(fh)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite schedule_goldens.json")
    parser.add_argument("--run-queue", default="heap", choices=("heap", "linear"))
    args = parser.parse_args(argv)
    goldens = compute_goldens(args.run_queue)
    if args.write:
        with open(GOLDENS_PATH, "w") as fh:
            json.dump(goldens, fh, indent=2, sort_keys=True)
            fh.write("\n")
    for name, value in goldens.items():
        print(f"{name:12s} {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
