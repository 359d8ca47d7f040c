"""Simthread lifecycle: failing exit hooks, OS-thread cleanup, re-running, self-handoff."""

import itertools
import threading

import pytest

from repro.sim.kernel import DeadlockError, Simulation

_names = itertools.count()


def _run_in_helper(sim: Simulation, timeout_s: float = 10.0):
    """Run ``sim`` on a helper thread; fail instead of hanging; return its error."""
    outcome = {}

    def target():
        try:
            sim.run()
            outcome["error"] = None
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            outcome["error"] = exc

    helper = threading.Thread(target=target, name="run-helper", daemon=True)
    helper.start()
    helper.join(timeout_s)
    if helper.is_alive():
        pytest.fail(f"Simulation.run() did not return within {timeout_s} s")
    return outcome["error"]


def _sim_os_threads(prefix: str) -> list:
    return [t for t in threading.enumerate() if t.name.startswith(f"sim:{prefix}")]


@pytest.fixture(params=["heap", "linear"])
def run_queue(request):
    return request.param


class TestFailingExitHook:
    def test_raising_hook_fails_run_and_kills_peers(self, run_queue):
        sim = Simulation(run_queue=run_queue)

        def hook(thread):
            if thread.name == "victim":
                raise RuntimeError("exit hook failed")

        sim.on_thread_exit(hook)
        victim = sim.spawn(lambda: sim.compute(10), name="victim")
        blocked = sim.spawn(lambda: sim.futex_wait("never"), name="blocked")
        later = sim.spawn(lambda: sim.compute(1_000), name="later")
        error = _run_in_helper(sim)
        assert isinstance(error, RuntimeError) and str(error) == "exit hook failed"
        assert victim.exception is error
        assert not blocked.is_alive and not later.is_alive
        assert blocked.exception is None

    def test_hook_failure_does_not_mask_thread_failure(self):
        sim = Simulation()
        sim.on_thread_exit(lambda thread: 1 / 0)

        def boom():
            raise ValueError("boom")

        sim.spawn(boom)
        error = _run_in_helper(sim)
        assert isinstance(error, ValueError)


class TestNoLeftoverOsThreads:
    def test_normal_run_with_live_daemon(self, run_queue):
        prefix = f"leak{next(_names)}-"
        sim = Simulation(run_queue=run_queue)

        def daemon():
            while True:
                sim.compute(7)

        sim.spawn(daemon, name=prefix + "daemon", daemon=True)
        sim.spawn(lambda: sim.compute(100), name=prefix + "main")
        assert _run_in_helper(sim) is None
        assert _sim_os_threads(prefix) == []

    def test_exception_with_blocked_peers(self, run_queue):
        prefix = f"leak{next(_names)}-"
        sim = Simulation(run_queue=run_queue)

        def boom():
            sim.compute(50)
            raise ValueError("boom")

        for i in range(3):
            sim.spawn(lambda: sim.futex_wait("gate"), name=f"{prefix}peer{i}")
        sim.spawn(boom, name=prefix + "boom")
        assert isinstance(_run_in_helper(sim), ValueError)
        assert _sim_os_threads(prefix) == []

    def test_deadlock(self, run_queue):
        prefix = f"leak{next(_names)}-"
        sim = Simulation(run_queue=run_queue)
        for i in range(3):
            sim.spawn(lambda: sim.futex_wait("never"), name=f"{prefix}w{i}")
        assert isinstance(_run_in_helper(sim), DeadlockError)
        assert _sim_os_threads(prefix) == []


class TestRerunAndSelfHandoff:
    def test_run_twice_spawning_between_runs(self, run_queue):
        sim = Simulation(run_queue=run_queue)
        log = []

        def worker(step):
            sim.compute(step)
            log.append((sim.current_thread.name, sim.now_ns))

        def daemon():
            while True:
                sim.compute(3)

        sim.spawn(worker, 10, name="first")
        sim.spawn(daemon, name="d", daemon=True)
        assert _run_in_helper(sim) is None
        sim.spawn(worker, 5, name="second")
        sim.spawn(worker, 8, name="third")
        assert _run_in_helper(sim) is None
        assert log == [("first", 10), ("second", 15), ("third", 18)]
        assert sim.current_thread is None

    def test_lone_timed_wait_hands_turn_to_itself(self, run_queue):
        sim = Simulation(run_queue=run_queue)
        results = []

        def lone():
            sim.compute(20)
            results.append((sim.futex_wait("k", timeout_ns=100), sim.now_ns))
            results.append((sim.futex_wait("k", timeout_ns=0), sim.now_ns))

        sim.spawn(lone)
        assert _run_in_helper(sim) is None
        assert results == [(False, 120), (False, 120)]
