"""Direct/indirect parents (Figure 4) and general statistics."""

from collections import Counter

import numpy as np
from hypothesis import given, strategies as st

from repro.perf.analysis import stats as S
from repro.perf.analysis.callgraph import INDIRECT, build_call_graph, edge_counts
from repro.perf.analysis.streaming import fold_columns
from repro.perf.columns import CallColumns
from repro.perf.events import CallEvent, ECALL, OCALL


def call(event_id, kind, name, start, end, thread=1, parent=None):
    return CallEvent(
        event_id=event_id,
        kind=kind,
        name=name,
        call_index=0,
        enclave_id=1,
        thread_id=thread,
        start_ns=start,
        end_ns=end,
        parent_id=parent,
    )


def cols(events):
    return CallColumns.from_events(events)


def indirect_edges(calls):
    """(indirect parent name, child name) → count, from the call graph."""
    return edge_counts(build_call_graph(cols(calls)), INDIRECT)


class TestFigure4Cases:
    """The four indirect-parent examples of the paper's Figure 4."""

    def test_case1_sibling_ecalls_chain(self):
        calls = [
            call(1, ECALL, "E1", 0, 10),
            call(2, ECALL, "E2", 20, 30),
            call(3, ECALL, "E3", 40, 50),
        ]
        assert indirect_edges(calls) == {("E1", "E2"): 1, ("E2", "E3"): 1}

    def test_case2_ocalls_within_one_ecall_chain(self):
        calls = [
            call(1, ECALL, "E1", 0, 100),
            call(2, OCALL, "O2", 10, 20, parent=1),
            call(3, OCALL, "O3", 30, 40, parent=1),
        ]
        # Only O3 has an indirect parent.
        assert indirect_edges(calls) == {("O2", "O3"): 1}

    def test_case3_nested_alternating_no_indirect(self):
        calls = [
            call(1, ECALL, "E1", 0, 100),
            call(2, OCALL, "O2", 10, 90, parent=1),
            call(3, ECALL, "E3", 20, 80, parent=2),
        ]
        assert indirect_edges(calls) == {}

    def test_case4_skips_calls_of_other_kind(self):
        calls = [
            call(1, ECALL, "E1", 0, 30),
            call(2, OCALL, "O2", 10, 20, parent=1),
            call(3, ECALL, "E3", 40, 50),
        ]
        # E3's indirect parent is E1, not O2.
        assert indirect_edges(calls) == {("E1", "E3"): 1}

    def test_threads_do_not_mix(self):
        calls = [
            call(1, ECALL, "E", 0, 10, thread=1),
            call(2, ECALL, "E", 20, 30, thread=2),
        ]
        assert indirect_edges(calls) == {}


class TestDirectParentRecomputation:
    def test_matches_logged_parents(self, tmp_path):
        """Logged parent ids equal interval containment: per thread, the
        innermost call whose interval encloses the child's start."""
        from repro.perf.database import TraceDatabase
        from repro.workloads.recorders import record_sqlite

        path = str(tmp_path / "sqlite.db")
        record_sqlite(path, seed=1, requests=10)
        with TraceDatabase(path) as db:
            calls = db.calls()
        assert any(c.parent_id is not None for c in calls)
        by_thread: dict[int, list] = {}
        for event in calls:
            by_thread.setdefault(event.thread_id, []).append(event)
        for thread_calls in by_thread.values():
            thread_calls.sort(key=lambda c: (c.start_ns, -c.end_ns, c.event_id))
            stack = []
            for event in thread_calls:
                while stack and stack[-1].end_ns <= event.start_ns:
                    stack.pop()
                assert event.parent_id == (stack[-1].event_id if stack else None)
                stack.append(event)

    def test_gap_to_indirect_parent(self):
        calls = [
            call(1, ECALL, "E", 0, 4_000),
            call(2, ECALL, "E", 5_500, 5_600),
        ]
        fold = fold_columns(cols(calls))
        # One E -> E link whose gap is measured from the parent's end
        # (1.5 us): over the 1 us threshold, within 5/10/20 us.
        assert fold.merge_counts == {("ecall", "E", "ecall", "E"): [1, 0, 1, 1, 1]}

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=1, max_value=500),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_indirect_parent_always_precedes(self, spans):
        events = []
        cursor = 0
        for i, (gap, width) in enumerate(spans):
            start = cursor + gap
            events.append(call(i + 1, ECALL, f"E{i % 3}", start, start + width))
            cursor = start + width
        # Sequential top-level calls: each call's indirect parent is the
        # one that ended just before it started.
        expected = Counter(
            (earlier.name, later.name) for earlier, later in zip(events, events[1:])
        )
        assert indirect_edges(events) == dict(expected)


class TestStatistics:
    def make_events(self, durations):
        return [
            call(i + 1, ECALL, "e", i * 1_000, i * 1_000 + d)
            for i, d in enumerate(durations)
        ]

    def make_columns(self, durations):
        return cols(self.make_events(durations))

    def test_summary_values(self):
        stats = S.compute_statistics("ecall", "e", self.make_columns([100, 200, 300]))
        assert stats.count == 3
        assert stats.mean_ns == 200
        assert stats.median_ns == 200
        assert stats.min_ns == 100 and stats.max_ns == 300
        assert stats.total_ns == 600

    def test_percentiles_ordered(self):
        stats = S.compute_statistics(
            "ecall", "e", self.make_columns(list(range(1, 101)))
        )
        assert stats.p90_ns <= stats.p95_ns <= stats.p99_ns <= stats.max_ns

    def test_empty_group(self):
        stats = S.compute_statistics("ecall", "e", CallColumns.empty())
        assert stats.count == 0 and stats.mean_ns == 0.0

    def test_execution_durations_subtract_transition_for_ecalls(self):
        events = self.make_columns([5_000, 6_000])
        adjusted = S.execution_durations_ns(events, 2_130)
        assert list(adjusted) == [2_870, 3_870]

    def test_execution_durations_clamped_at_zero(self):
        events = self.make_columns([1_000])
        assert list(S.execution_durations_ns(events, 2_130)) == [0]

    def test_ocall_durations_not_adjusted(self):
        events = cols([call(1, OCALL, "o", 0, 5_000)])
        assert list(S.execution_durations_ns(events, 2_130)) == [5_000]

    def test_fraction_shorter_than(self):
        values = np.array([1, 5, 9, 20])
        assert S.fraction_shorter_than(values, 10) == 0.75
        assert S.fraction_shorter_than(np.array([]), 10) == 0.0

    def test_histogram_total_preserved(self):
        events = self.make_columns([10, 20, 30, 40, 50] * 10)
        hist = S.histogram(events, bins=5)
        assert sum(hist.counts) == 50

    def test_histogram_render_nonempty(self):
        events = self.make_columns(list(range(100, 200)))
        text = S.histogram(events, bins=100).render(max_rows=10)
        assert "us |" in text

    def test_scatter_series_alignment(self):
        events = self.make_columns([10, 20])
        starts, durations = S.scatter_series(events)
        assert list(starts) == [0, 1_000]
        assert list(durations) == [10, 20]

    def test_all_statistics_sorted_by_total(self):
        events = self.make_events([100] * 5) + [
            call(99, OCALL, "big", 0, 10_000)
        ]
        stats = S.all_statistics(cols(events))
        assert stats[0].name == "big"
