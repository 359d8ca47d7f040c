"""Simthread turn handoff against a raw ``_thread`` lock ping-pong.

A turn handoff is the thread giving up the turn picking its successor and
releasing that thread's lock, so its floor is two OS threads passing a turn
through two raw locks.  Both ping-pongs run in this process on one CPU (as
perfbench pins its workers, so a handoff is a thread switch rather than a
wake-up of an idle vCPU); the simthread handoff must cost at most
``MAX_RATIO`` times the raw one.  Each side is timed over ``ROUNDS`` rounds,
alternating, and its fastest round counts.

The schedule must not move: two threads computing in lockstep hand the turn
over on every ``compute``, and the virtual end time is pinned.
"""

from __future__ import annotations

import _thread
import os
import threading
import time

import pytest
from conftest import run_once

from repro.sim.kernel import Simulation

TURNS = 20_000
ROUNDS = 3
STEP_NS = 10
# Virtual end time of the ping-pong: each player computes TURNS // 2 steps.
END_NS = STEP_NS * (TURNS // 2)
# A direct lock handoff measures about 1.7x the raw ping-pong; a round trip
# through a scheduler thread with threading.Event measured 5.2x.
MAX_RATIO = 3.0


@pytest.fixture
def one_cpu():
    """Pin this process's threads (and the threads they start) to one CPU."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(saved)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def _simthread_ping_pong() -> tuple[float, int]:
    """Two simthreads alternating the turn; (wall seconds, virtual end ns)."""
    sim = Simulation()

    def player() -> None:
        for _ in range(TURNS // 2):
            sim.compute(STEP_NS)

    sim.spawn(player)
    sim.spawn(player)
    begin = time.perf_counter()
    sim.run()
    return time.perf_counter() - begin, sim.now_ns


def _raw_ping_pong() -> float:
    """Two OS threads passing a turn through two raw locks; wall seconds."""
    locks = [_thread.allocate_lock(), _thread.allocate_lock()]
    for lock in locks:
        lock.acquire()

    def player(mine: int) -> None:
        for _ in range(TURNS // 2):
            locks[mine].acquire()
            locks[1 - mine].release()

    players = [threading.Thread(target=player, args=(i,)) for i in (0, 1)]
    begin = time.perf_counter()
    for thread in players:
        thread.start()
    locks[0].release()
    for thread in players:
        thread.join()
    return time.perf_counter() - begin


def test_bench_handoff_near_raw_lock(benchmark, one_cpu):
    raw_walls, sim_walls = [], []
    for _ in range(ROUNDS - 1):
        raw_walls.append(_raw_ping_pong())
        wall, end_ns = _simthread_ping_pong()
        assert end_ns == END_NS
        sim_walls.append(wall)
    raw_walls.append(_raw_ping_pong())
    wall, end_ns = run_once(benchmark, _simthread_ping_pong)
    assert end_ns == END_NS
    sim_walls.append(wall)

    raw_us = min(raw_walls) / TURNS * 1e6
    sim_us = min(sim_walls) / TURNS * 1e6
    ratio = sim_us / raw_us
    print(
        f"\nturn handoff on one CPU ({TURNS} turns): raw lock {raw_us:.2f} us, "
        f"simthread {sim_us:.2f} us, ratio {ratio:.2f}x"
    )
    assert ratio <= MAX_RATIO, (
        f"simthread handoff costs {ratio:.2f}x a raw lock handoff (need <= {MAX_RATIO}x)"
    )
