"""Seeded random programs reproduce their pinned schedule digests on both run queues."""

import sys

import pytest

from tests.sim import schedule_programs as P

GOLDENS = P.load_goldens()


def test_goldens_cover_every_program():
    assert sorted(GOLDENS) == sorted(P.PROGRAMS)


@pytest.mark.parametrize("run_queue", ["heap", "linear"])
@pytest.mark.parametrize("name", P.PROGRAMS)
def test_schedule_matches_golden(name, run_queue):
    assert P.digest(P.run_program(name, run_queue)) == GOLDENS[name]


def test_special_programs_end_as_planned():
    assert P.run_program("raises")["error"][0] == "PlannedFailure"
    assert P.run_program("deadlocks")["error"][0] == "DeadlockError"


def test_goldens_hold_under_fast_thread_switching():
    # The thread handing the turn on keeps running for a few bytecodes after
    # waking its successor; forcing interpreter switches at almost every
    # bytecode would expose any shared state touched in that window.
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for name in P.PROGRAMS[::4] + P.SPECIAL:
            assert P.digest(P.run_program(name)) == GOLDENS[name], name
    finally:
        sys.setswitchinterval(saved)
