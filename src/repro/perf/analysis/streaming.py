"""The analyser's fold: every per-call analysis over column batches.

:class:`CallFold` is the one implementation of the paper's per-call
analyses (§4.3): general statistics, Equations 1–3, the call graph and
the security sets.  It folds :class:`~repro.perf.columns.CallColumns`
batches and keeps only per-call-site accumulator state, so the same code
serves every way of feeding it:

* :class:`~repro.perf.analysis.report.Analyzer` folds the whole trace as
  one unbounded chunk;
* :class:`StreamingAnalyzer` folds bounded-size chunks from
  :meth:`~repro.perf.database.TraceDatabase.call_columns_chunks`, so a
  multi-GB trace is analysed in O(window) transient memory, optionally
  sharded by thread across worker processes;
* the column-level entry points (``detect_*``, ``all_statistics``,
  ``build_call_graph``) fold their argument through :func:`fold_columns`.

**Byte-identity across chunkings is the contract.**  Decisions go through
the ``*_finding_from_counts`` builders, and every float that appears in a
report is reproduced exactly whatever the chunk size or job count:

* threshold *fractions* are accumulated as integer counts and divided
  once;
* ecall *execution-time* thresholds use the identity
  ``max(d - T, 0) < t  ⇔  d < T + t`` so no subtracted array is kept;
* per-call mean/std are order-dependent under NumPy's pairwise
  summation, so each call site keeps its raw ``(start, id, duration)``
  triples (24 bytes/row) and re-sorts them to the global ``(start, id)``
  reader order at finalise time.

Batches must arrive **thread-major** (``ORDER BY thread_id, start_ns,
id``): each thread is one contiguous run, so the direct-parent window and
the Figure 4 indirect-parent chains reset per thread and stay small.  The
fold relies on the event logger's recording invariants — a call's direct
parent is on the same thread and its interval encloses the child's start.

Figure 4 indirect parents relate calls of the same kind that share a
direct parent (top-level calls chain with top-level calls): within one
``(thread, direct parent, kind)`` group, ordered by ``(start, id)``, each
call's indirect parent is the one before it.

A :class:`CallFold` is plain picklable state with a commutative
:meth:`CallFold.merge`, which is what lets the parallel analyser shard a
trace by thread across spawn-context workers and still match the
sequential result exactly (see :mod:`repro.perf.analysis.parallel`).
Detectors that need cross-thread global state — SSC sleep matching,
paging attribution, fault/availability summaries — run as sequential
passes over the (small) side tables instead (:func:`sync_summary`,
:func:`attribute_paging`).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

import networkx as nx
import numpy as np

from repro.perf.analysis import callgraph as callgraph_mod
from repro.perf.analysis import detectors as det
from repro.perf.analysis import security as sec
from repro.perf.analysis import stats as stats_mod
from repro.perf.columns import NO_PARENT, CallColumns
from repro.perf.events import ECALL, OCALL, SyncKind

DEFAULT_TRANSITION_NS = 2_130  # §2.3.1 baseline if the trace lacks metadata

_REORDER_LIMITS = (10_000, 20_000)
_MERGE_LIMITS = (1_000, 5_000, 10_000, 20_000)


class _GroupState:
    """Accumulator for one (kind, name) call site."""

    __slots__ = (
        "kind",
        "name",
        "count",
        "first_start",
        "first_id",
        "call_index",
        "is_sync_first",
        "starts",
        "ids",
        "durs",
        "n1",
        "n5",
        "n10",
    )

    def __init__(self, kind: str, name: str) -> None:
        self.kind = kind
        self.name = name
        self.count = 0
        self.first_start: Optional[int] = None  # earliest (start, id) row
        self.first_id = 0
        self.call_index = 0
        self.is_sync_first = False
        self.starts: list[np.ndarray] = []
        self.ids: list[np.ndarray] = []
        self.durs: list[np.ndarray] = []
        self.n1 = 0  # execution-time threshold counts (Equation 1)
        self.n5 = 0
        self.n10 = 0

    def update_first(
        self, start: int, event_id: int, call_index: int, is_sync: bool
    ) -> None:
        if self.first_start is None or (start, event_id) < (self.first_start, self.first_id):
            self.first_start, self.first_id = start, event_id
            self.call_index = call_index
            self.is_sync_first = is_sync

    def merge(self, other: "_GroupState") -> None:
        self.count += other.count
        self.starts += other.starts
        self.ids += other.ids
        self.durs += other.durs
        self.n1 += other.n1
        self.n5 += other.n5
        self.n10 += other.n10
        if other.first_start is not None:
            self.update_first(
                other.first_start, other.first_id, other.call_index, other.is_sync_first
            )

    def sorted_durations(self) -> np.ndarray:
        """Durations re-sorted to the global ``(start, id)`` reader order."""
        if not self.durs:
            return np.empty(0, dtype=np.int64)
        starts = np.concatenate(self.starts)
        ids = np.concatenate(self.ids)
        durs = np.concatenate(self.durs)
        return durs[np.lexsort((ids, starts))]


class _ThreadState:
    """Transient per-thread parent window and Figure 4 chain tails.

    ``window`` maps an *open* call id (one whose interval may still
    enclose future rows of this thread) to ``(start, end, kind, name)``.
    ``chains`` maps ``(parent_id, kind)`` to the ``(end, kind, name)`` of
    the chain's last element.  ``dangling`` remembers parent ids that
    never resolved (rows referencing calls an aborted logger lost), whose
    chains must survive window-based eviction.
    """

    __slots__ = ("thread_id", "window", "chains", "dangling")

    def __init__(self, thread_id: int) -> None:
        self.thread_id = thread_id
        self.window: dict[int, tuple[int, int, str, str]] = {}
        self.chains: dict[tuple[int, str], tuple[int, str, str]] = {}
        self.dangling: set[int] = set()


class CallFold:
    """Folds thread-major call batches into every per-call accumulator.

    Picklable; :meth:`merge` is commutative over disjoint thread sets, so
    shard folds combine into exactly the sequential fold's state.

    Inside one batch, call sites are int64 codes from
    :meth:`~repro.perf.columns.CallColumns.group_codes`; parent/child
    pairs are keyed as ``parent * K + child`` integers and decoded to
    ``(kind, name)`` tuples once per distinct pair.  Rows whose parent or
    chain predecessor sits in an earlier batch extend the batch's code
    table through :meth:`_code_of`.
    """

    def __init__(
        self,
        transition_round_trip_ns: int,
        weights: det.AnalyzerWeights,
        sleep_counts: Optional[dict[int, int]] = None,
    ) -> None:
        self.transition_ns = int(transition_round_trip_ns)
        self.weights = weights
        # Sleep call_id → multiplicity, from the coordinator's sync pass.
        self.sleep_counts = dict(sleep_counts or {})
        self._sleep_ids: Optional[np.ndarray] = (
            np.fromiter(
                sorted(self.sleep_counts), dtype=np.int64, count=len(self.sleep_counts)
            )
            if self.sleep_counts
            else None
        )
        self.groups: dict[tuple[str, str], _GroupState] = {}
        self.ecall_rows = 0
        self.ocall_rows = 0
        self.ecall_short = 0
        self.ocall_short = 0
        self.aex_total = 0
        # (kind, name, parent_name) → [total, s10, s20, e10, e20]
        self.reorder_counts: dict[tuple[str, str, str], list[int]] = {}
        # (ckind, cname, pkind, pname) → [pairs, n1, n5, n10, n20]
        self.merge_counts: dict[tuple[str, str, str, str], list[int]] = {}
        # ((pkind, pname), (ckind, cname)) → count, sync-unfiltered
        self.direct_edges: dict[tuple[tuple[str, str], tuple[str, str]], int] = {}
        self.indirect_edges: dict[tuple[tuple[str, str], tuple[str, str]], int] = {}
        # Security: ecall → ocalls it nested under / ecalls seen top level.
        self.nested_under: dict[str, set[str]] = {}
        self.disqualified: set[str] = set()
        self.observed_allow: dict[str, set[str]] = {}
        self.ssc_matched = 0
        self.ssc_short = 0
        self._thread: Optional[_ThreadState] = None
        # The current batch's code → (kind, name) table and its inverse.
        self._keys: list[tuple[str, str]] = []
        self._code_index: dict[tuple[str, str], int] = {}

    # -- folding ------------------------------------------------------------

    def fold(self, cols: CallColumns) -> None:
        """Fold one thread-major batch into the accumulators."""
        n = len(cols)
        if n == 0:
            return
        durs = cols.duration_ns()
        codes, keys = cols.group_codes()
        self._keys = list(keys)
        self._code_index = {key: code for code, key in enumerate(keys)}
        kinds = np.asarray(cols.kind, dtype=object)
        is_ecall = kinds == ECALL
        w = self.weights
        self.ecall_rows += int(is_ecall.sum())
        self.ocall_rows += int((kinds == OCALL).sum())
        # max(d - T, 0) < t  ⇔  d < T + t  (ecall execution-time identity)
        self.ecall_short += int(
            (durs[is_ecall] < self.transition_ns + w.short_call_ns).sum()
        )
        self.ocall_short += int((durs[~is_ecall] < w.short_call_ns).sum())
        self.aex_total += int(cols.aex_count.sum())
        self._fold_sleep_matches(cols, durs)
        self._fold_groups(cols, durs, codes)
        kind_codes = np.unique([kind for kind, _ in keys], return_inverse=True)[1][codes]
        boundaries = np.flatnonzero(np.diff(cols.thread_id)) + 1
        for seg in np.split(np.arange(n), boundaries):
            self._fold_segment(cols, codes, kind_codes, seg)

    def _code_of(self, kind: str, name: str) -> int:
        """This batch's code for a call site, extending the table if new."""
        key = (kind, name)
        code = self._code_index.get(key)
        if code is None:
            code = self._code_index[key] = len(self._keys)
            self._keys.append(key)
        return code

    def _fold_sleep_matches(self, cols: CallColumns, durs: np.ndarray) -> None:
        if self._sleep_ids is None:
            return
        hits = np.flatnonzero(np.isin(cols.event_id, self._sleep_ids))
        threshold = self.weights.ssc_short_sleep_ns
        for pos in hits.tolist():
            mult = self.sleep_counts[int(cols.event_id[pos])]
            self.ssc_matched += mult
            if durs[pos] < threshold:
                self.ssc_short += mult

    def _fold_groups(self, cols: CallColumns, durs: np.ndarray, codes: np.ndarray) -> None:
        order = np.argsort(codes, kind="stable")
        boundaries = np.flatnonzero(np.diff(codes[order])) + 1
        for bucket in np.split(order, boundaries):
            kind, name = self._keys[int(codes[bucket[0]])]
            group = self.groups.get((kind, name))
            if group is None:
                group = self.groups[(kind, name)] = _GroupState(kind, name)
            starts = cols.start_ns[bucket]
            ids = cols.event_id[bucket]
            d = durs[bucket]
            group.count += len(bucket)
            group.starts.append(starts)
            group.ids.append(ids)
            group.durs.append(d)
            # Earliest (start, id) row carries call_index and the group's
            # is_sync flag.
            tied = bucket[starts == starts.min()]
            first = int(tied[np.argmin(cols.event_id[tied])])
            group.update_first(
                int(cols.start_ns[first]),
                int(cols.event_id[first]),
                int(cols.call_index[first]),
                bool(cols.is_sync[first]),
            )
            base = self.transition_ns if kind == ECALL else 0
            group.n1 += int((d < base + 1_000).sum())
            group.n5 += int((d < base + 5_000).sum())
            group.n10 += int((d < base + 10_000).sum())

    def _fold_segment(
        self, cols: CallColumns, codes: np.ndarray, kind_codes: np.ndarray, seg: np.ndarray
    ) -> None:
        """One contiguous same-thread run: parents, chains, window carry."""
        tid = int(cols.thread_id[seg[0]])
        state = self._thread
        if state is None or state.thread_id != tid:
            # Thread-major order: the previous thread is complete — its
            # window and chains can never be referenced again.
            state = self._thread = _ThreadState(tid)
        self._fold_direct_parents(cols, codes, seg, state)
        self._fold_chains(cols, codes, kind_codes, seg, state)
        self._advance_window(cols, seg, state)

    def _fold_direct_parents(
        self, cols: CallColumns, codes: np.ndarray, seg: np.ndarray, state: _ThreadState
    ) -> None:
        pids_all = cols.parent_id[seg]
        with_parent = np.flatnonzero(pids_all != NO_PARENT)
        resolved = np.zeros(len(seg), dtype=bool)
        if len(with_parent):
            rows_wp = seg[with_parent]
            ppos = cols.positions_of(pids_all[with_parent])
            in_chunk = ppos >= 0
            resolved[with_parent[in_chunk]] = True
            pos_ic = ppos[in_chunk]
            # Parents in earlier chunks come out of the carried window;
            # only boundary-crossing rows pay this Python loop.
            extra: list[tuple[int, int, int, int]] = []  # (row, start, end, code)
            for j in np.flatnonzero(~in_chunk).tolist():
                pid = int(pids_all[with_parent[j]])
                entry = state.window.get(pid)
                if entry is None:
                    state.dangling.add(pid)
                else:
                    resolved[with_parent[j]] = True
                    start, end, kind, name = entry
                    extra.append((int(rows_wp[j]), start, end, self._code_of(kind, name)))
            rows = np.concatenate(
                [rows_wp[in_chunk], np.array([e[0] for e in extra], dtype=np.int64)]
            )
            if len(rows):
                pstart = np.concatenate(
                    [cols.start_ns[pos_ic], np.array([e[1] for e in extra], dtype=np.int64)]
                )
                pend = np.concatenate(
                    [cols.end_ns[pos_ic], np.array([e[2] for e in extra], dtype=np.int64)]
                )
                pcode = np.concatenate(
                    [codes[pos_ic], np.array([e[3] for e in extra], dtype=np.int64)]
                )
                self._add_direct_links(cols, codes, rows, pstart, pend, pcode)
        # Ecalls with no parent, a dangling parent, or an ecall parent were
        # observed outside any ocall — never private candidates.
        loose = seg[(np.asarray(cols.kind[seg], dtype=object) == ECALL) & ~resolved]
        for code in np.unique(codes[loose]).tolist():
            self.disqualified.add(self._keys[code][1])

    def _add_direct_links(
        self,
        cols: CallColumns,
        codes: np.ndarray,
        rows: np.ndarray,
        pstart: np.ndarray,
        pend: np.ndarray,
        pcode: np.ndarray,
    ) -> None:
        """Direct-parent links ``pcode → rows``; ``pstart``/``pend`` bound each parent."""
        ccode = codes[rows]
        keys = self._keys
        width = len(keys)
        self._bump_edges(self.direct_edges, pcode * width + ccode, width)
        # Security sets: ecalls nested under ocalls vs anything else.
        site_is_ecall = np.array([kind == ECALL for kind, _ in keys])
        site_is_ocall = np.array([kind == OCALL for kind, _ in keys])
        ecall_child = site_is_ecall[ccode]
        under_ocall = ecall_child & site_is_ocall[pcode]
        for pair in np.unique(ccode[under_ocall] * width + pcode[under_ocall]).tolist():
            child, parent = keys[pair // width][1], keys[pair % width][1]
            self.nested_under.setdefault(child, set()).add(parent)
            self.observed_allow.setdefault(parent, set()).add(child)
        for code in np.unique(ccode[ecall_child & ~under_ocall]).tolist():
            self.disqualified.add(keys[code][1])
        # Equation 2 offsets, grouped per (kind, name, parent name).
        ns = ~cols.is_sync[rows]
        if ns.any():
            from_start = cols.start_ns[rows[ns]] - pstart[ns]
            from_end = pend[ns] - cols.end_ns[rows[ns]]
            self._bump_counts(
                self.reorder_counts,
                ccode[ns] * width + pcode[ns],
                width,
                [from_start <= t for t in _REORDER_LIMITS]
                + [from_end <= t for t in _REORDER_LIMITS],
                lambda child, parent: child + parent[1:],
            )

    def _fold_chains(
        self,
        cols: CallColumns,
        codes: np.ndarray,
        kind_codes: np.ndarray,
        seg: np.ndarray,
        state: _ThreadState,
    ) -> None:
        """Figure 4 chains: consecutive same-(parent, kind) rows in (start, id) order."""
        pids = cols.parent_id[seg]
        seg_kinds = kind_codes[seg]
        order = np.lexsort((cols.event_id[seg], cols.start_ns[seg], seg_kinds, pids))
        srows = seg[order]
        spids = pids[order]
        skinds = seg_kinds[order]
        same = np.zeros(len(seg), dtype=bool)
        if len(seg) > 1:
            same[1:] = (spids[1:] == spids[:-1]) & (skinds[1:] == skinds[:-1])
        # Links fully inside this chunk, vectorised.
        link_at = np.flatnonzero(same)
        if len(link_at):
            prev = srows[link_at - 1]
            self._add_links(cols, codes, srows[link_at], cols.end_ns[prev], codes[prev])
        # Each key group's head may continue a chain carried from the
        # previous chunk of this thread.
        if state.chains:
            carried: list[tuple[int, int, int]] = []  # (row, end, code)
            for i in np.flatnonzero(~same).tolist():
                row = int(srows[i])
                tail = state.chains.get((int(spids[i]), str(cols.kind[row])))
                if tail is not None:
                    carried.append((row, tail[0], self._code_of(tail[1], tail[2])))
            if carried:
                rows, pend, pcode = (np.array(column, dtype=np.int64) for column in zip(*carried))
                self._add_links(cols, codes, rows, pend, pcode)
        # Each key group's last row becomes the chain tail going forward.
        tail_at = np.flatnonzero(~np.append(same[1:], False))
        for i in tail_at.tolist():
            row = int(srows[i])
            state.chains[(int(spids[i]), str(cols.kind[row]))] = (
                int(cols.end_ns[row]),
                str(cols.kind[row]),
                str(cols.name[row]),
            )

    def _add_links(
        self,
        cols: CallColumns,
        codes: np.ndarray,
        rows: np.ndarray,
        pend: np.ndarray,
        pcode: np.ndarray,
    ) -> None:
        """Indirect-parent links ``pcode → rows``; ``pend`` is each parent's end."""
        ccode = codes[rows]
        width = len(self._keys)
        self._bump_edges(self.indirect_edges, pcode * width + ccode, width)
        ns = ~cols.is_sync[rows]  # Equation 3 filters sync *children* only
        if not ns.any():
            return
        gaps = cols.start_ns[rows[ns]] - pend[ns]
        self._bump_counts(
            self.merge_counts,
            ccode[ns] * width + pcode[ns],
            width,
            [gaps <= t for t in _MERGE_LIMITS],
            lambda child, parent: child + parent,
        )

    def _bump_edges(self, edges: dict, pairs: np.ndarray, width: int) -> None:
        """Count ``parent * width + child`` code pairs into ``edges``."""
        if len(pairs) == 0:
            return
        uniq, counts = np.unique(pairs, return_counts=True)
        keys = self._keys
        for pair, count in zip(uniq.tolist(), counts.tolist()):
            edge = (keys[pair // width], keys[pair % width])
            edges[edge] = edges.get(edge, 0) + count

    def _bump_counts(
        self,
        table: dict,
        pairs: np.ndarray,
        width: int,
        masks: list,
        key_of: Callable[[tuple, tuple], tuple],
    ) -> None:
        """Add ``[rows, *mask counts]`` per ``child * width + parent`` pair."""
        uniq, inverse = np.unique(pairs, return_inverse=True)
        sums = [np.bincount(inverse, minlength=len(uniq))]
        sums += [np.bincount(inverse, weights=mask, minlength=len(uniq)) for mask in masks]
        keys = self._keys
        for j, pair in enumerate(uniq.tolist()):
            key = key_of(keys[pair // width], keys[pair % width])
            counts = table.setdefault(key, [0] * len(sums))
            for slot, column in enumerate(sums):
                counts[slot] += int(column[j])

    def _advance_window(self, cols: CallColumns, seg: np.ndarray, state: _ThreadState) -> None:
        """Carry only still-open intervals; evict chains of closed parents.

        Same-chunk parents resolve through ``positions_of``, so the carry
        window only needs rows whose interval reaches past the segment's
        last start — the calls still open at the chunk boundary.
        """
        last_start = int(cols.start_ns[seg[-1]])
        for pid in [k for k, v in state.window.items() if v[1] < last_start]:
            del state.window[pid]
        still_open = seg[cols.end_ns[seg] >= last_start]
        for row in still_open.tolist():
            state.window[int(cols.event_id[row])] = (
                int(cols.start_ns[row]),
                int(cols.end_ns[row]),
                str(cols.kind[row]),
                str(cols.name[row]),
            )
        # A chain whose parent call has closed can never grow again; only
        # open parents, top-level chains and dangling ids stay live.
        dead = [
            key
            for key in state.chains
            if key[0] != NO_PARENT
            and key[0] not in state.window
            and key[0] not in state.dangling
        ]
        for key in dead:
            del state.chains[key]

    # -- sharding ------------------------------------------------------------

    def seal(self) -> "CallFold":
        """Drop transient per-thread and per-batch state (end of a shard's run)."""
        self._thread = None
        self._sleep_ids = None
        self._keys = []
        self._code_index = {}
        return self

    def merge(self, other: "CallFold") -> None:
        """Fold another shard's sealed state into this one (commutative)."""
        for key, group in other.groups.items():
            mine = self.groups.get(key)
            if mine is None:
                self.groups[key] = group
            else:
                mine.merge(group)
        self.ecall_rows += other.ecall_rows
        self.ocall_rows += other.ocall_rows
        self.ecall_short += other.ecall_short
        self.ocall_short += other.ocall_short
        self.aex_total += other.aex_total
        self.ssc_matched += other.ssc_matched
        self.ssc_short += other.ssc_short
        for table, theirs in (
            (self.reorder_counts, other.reorder_counts),
            (self.merge_counts, other.merge_counts),
        ):
            for key, counts in theirs.items():
                mine = table.get(key)
                if mine is None:
                    table[key] = counts
                else:
                    for i, c in enumerate(counts):
                        mine[i] += c
        for edges, theirs in (
            (self.direct_edges, other.direct_edges),
            (self.indirect_edges, other.indirect_edges),
        ):
            for key, count in theirs.items():
                edges[key] = edges.get(key, 0) + count
        for name, parents in other.nested_under.items():
            self.nested_under.setdefault(name, set()).update(parents)
        for name, children in other.observed_allow.items():
            self.observed_allow.setdefault(name, set()).update(children)
        self.disqualified.update(other.disqualified)

    # -- finalisation --------------------------------------------------------

    def _ordered_groups(self) -> list[_GroupState]:
        """Groups in global first-appearance order (min ``(start, id)``)."""
        return sorted(self.groups.values(), key=lambda g: (g.first_start, g.first_id))

    def statistics(self) -> list[stats_mod.CallStatistics]:
        """Per-call statistics, busiest first; ties keep first-appearance order."""
        stats = [
            stats_mod._statistics_from_values(g.kind, g.name, g.sorted_durations())
            for g in self._ordered_groups()
        ]
        stats.sort(key=lambda s: s.total_ns, reverse=True)
        return stats

    def move_findings(self) -> list[det.Finding]:
        findings = []
        for key in sorted(self.groups):
            g = self.groups[key]
            if g.is_sync_first or g.count < self.weights.min_calls:
                continue
            finding = det.move_finding_from_counts(
                g.kind, g.name, g.count, g.n1, g.n5, g.n10, self.weights
            )
            if finding is not None:
                findings.append(finding)
        return findings

    def reorder_findings(self) -> list[det.Finding]:
        findings = []
        for key in sorted(self.reorder_counts):
            total, s10, s20, e10, e20 = self.reorder_counts[key]
            if total < self.weights.min_calls:
                continue
            finding = det.reorder_finding_from_counts(
                key[0], key[1], key[2], total, s10, s20, e10, e20, self.weights
            )
            if finding is not None:
                findings.append(finding)
        return findings

    def merge_findings(self) -> list[det.Finding]:
        findings = []
        for key in sorted(self.merge_counts):
            pairs, n1, n5, n10, n20 = self.merge_counts[key]
            ck, cn, pk, pn = key
            finding = det.merge_finding_from_counts(
                (ck, cn),
                (pk, pn),
                pairs,
                n1,
                n5,
                n10,
                n20,
                self.groups[(ck, cn)].count,
                self.groups[(pk, pn)].count,
                self.weights,
            )
            if finding is not None:
                findings.append(finding)
        return findings

    def security_findings(self, definition) -> list[det.Finding]:
        findings = sec.private_ecall_findings_from_sets(
            self.nested_under, self.disqualified
        )
        findings += sec.allowlist_findings_from_observed(self.observed_allow, definition)
        if definition is not None:
            counts = {key: g.count for key, g in self.groups.items()}
            findings += sec.user_check_findings_from_counts(definition, counts)
        return findings

    def call_graph(self) -> nx.MultiDiGraph:
        """Name-level call graph with direct/indirect edges (Figure 5)."""
        graph = nx.MultiDiGraph()
        for g in self._ordered_groups():
            graph.add_node(
                f"{g.kind}:{g.name}",
                name=g.name,
                kind=g.kind,
                call_index=g.call_index,
                count=g.count,
            )
        for edges, relation in (
            (self.direct_edges, callgraph_mod.DIRECT),
            (self.indirect_edges, callgraph_mod.INDIRECT),
        ):
            for (src, dst), count in sorted(edges.items()):
                graph.add_edge(
                    f"{src[0]}:{src[1]}",
                    f"{dst[0]}:{dst[1]}",
                    key=relation,
                    relation=relation,
                    count=count,
                )
        return graph

    def distinct_counts(self) -> tuple[int, int]:
        """(distinct ecall names, distinct ocall names)."""
        ecalls = sum(1 for kind, _ in self.groups if kind == ECALL)
        return ecalls, len(self.groups) - ecalls


def fold_columns(
    cols: CallColumns,
    transition_round_trip_ns: int = DEFAULT_TRANSITION_NS,
    weights: Optional[det.AnalyzerWeights] = None,
    sleep_counts: Optional[dict[int, int]] = None,
) -> CallFold:
    """Fold an in-memory column set as one thread-major chunk."""
    fold = CallFold(transition_round_trip_ns, weights or det.AnalyzerWeights(), sleep_counts)
    fold.fold(cols.select(np.lexsort((cols.event_id, cols.start_ns, cols.thread_id))))
    return fold.seal()


def ecall_intervals(cols: CallColumns) -> Iterator[tuple[int, int, str]]:
    """``(start, end, name)`` of each ecall in ``cols``, in row order."""
    rows = np.flatnonzero(np.asarray(cols.kind, dtype=object) == ECALL)
    yield from zip(
        cols.start_ns[rows].tolist(), cols.end_ns[rows].tolist(), cols.name[rows].tolist()
    )


def sync_summary(rows: Iterable[tuple]) -> dict:
    """Sleep multiplicities, wake matrix and sync totals from ``sync`` rows."""
    total = sleeps = wakes = 0
    sleep_counts: dict[int, int] = {}
    wake_matrix: dict[tuple[int, int], int] = {}
    for row in rows:
        total += 1
        kind = row[3]
        if kind == SyncKind.SLEEP.value:
            sleeps += 1
            if row[4] is not None:
                call_id = int(row[4])
                sleep_counts[call_id] = sleep_counts.get(call_id, 0) + 1
        elif kind == SyncKind.WAKE.value:
            wakes += 1
            thread_id = int(row[2])
            for target in (row[5] or "").split(","):
                if target:
                    key = (thread_id, int(target))
                    wake_matrix[key] = wake_matrix.get(key, 0) + 1
    return {
        "total": total,
        "sleeps": sleeps,
        "wakes": wakes,
        "sleep_counts": sleep_counts,
        "wake_matrix": wake_matrix,
    }


def attribute_paging(
    paging_rows: Iterable[tuple], intervals: Iterable[tuple[int, int, str]]
) -> tuple[dict[str, int], int, int, int]:
    """Attribute paging events to enclosing ecalls via a merge-join.

    ``paging_rows`` are ``paging`` table rows and ``intervals`` ecall
    ``(start, end, name)`` triples, both time-ordered (intervals by
    ``(start, id)``).  "The last ecall started at or before the event's
    timestamp" is then a single forward pointer, which picks the last of
    tied starts.  ``intervals`` is not advanced before the first paging
    row, so a lazy interval reader costs nothing on a paging-free trace.
    Returns the :func:`~repro.perf.analysis.detectors.paging_findings_from_counts`
    arguments.
    """
    page_in = total = 0
    distinct: set[tuple[int, int]] = set()
    affected: dict[str, int] = {}
    ecalls = iter(intervals)
    upcoming = current = None  # next interval / last one started at or before ts
    for row in paging_rows:
        ts = int(row[1])
        if not total:
            upcoming = next(ecalls, None)
        total += 1
        if row[4] == "page_in":
            page_in += 1
        distinct.add((int(row[2]), int(row[3])))
        while upcoming is not None and upcoming[0] <= ts:
            current = upcoming
            upcoming = next(ecalls, None)
        if current is not None and current[1] >= ts:
            name = str(current[2])
            affected[name] = affected.get(name, 0) + 1
    return affected, page_in, total - page_in, len(distinct)


class StreamingAnalyzer:
    """The analyser over bounded-size chunks: windowed memory, optional sharding.

    Produces the same report as :class:`~repro.perf.analysis.report.Analyzer`
    from four passes over the trace database:

    1. a *sync* pass over the (small) sync table, producing the sleep
       multiplicities and wake matrix the SSC detector needs;
    2. the *call fold* — :class:`CallFold` over thread-major column
       chunks, optionally sharded by thread across worker processes
       (``jobs > 1``, see :mod:`repro.perf.analysis.parallel`);
    3. a *paging* pass merge-joining time-ordered paging records against
       time-ordered ecall intervals (:func:`attribute_paging`);
    4. a *fault* pass folding fault rows through
       :class:`~repro.perf.analysis.report.FaultAccumulator`.

    The report is byte-identical for any chunk size or job count; golden
    digests in the test suite and the CI digest gate hold it to that.
    """

    def __init__(
        self,
        database,
        definition=None,
        weights: Optional[det.AnalyzerWeights] = None,
        chunk_events: Optional[int] = None,
        jobs: int = 1,
    ) -> None:
        from repro.perf.database import DEFAULT_CHUNK_EVENTS

        self.db = database
        self.definition = definition
        self.weights = weights or det.AnalyzerWeights()
        self.chunk_events = int(chunk_events or DEFAULT_CHUNK_EVENTS)
        self.jobs = int(jobs)

    def run(self):
        from repro.perf.analysis.report import analyse_trace

        report, self._fold = analyse_trace(
            self.db,
            self.definition,
            self.weights,
            self.chunk_events,
            self._fold_trace,
            self._ecall_intervals(),
        )
        return report

    def call_graph(self) -> nx.MultiDiGraph:
        """Call graph from the last :meth:`run`'s fold (runs one if needed)."""
        if not hasattr(self, "_fold"):
            self.run()
        return self._fold.call_graph()

    def _ecall_intervals(self) -> Iterator[tuple[int, int, str]]:
        # A generator, so the ecall query only runs once paging rows need it.
        for rows in self.db.ecall_intervals_chunks(self.chunk_events):
            yield from rows

    def _fold_trace(self, transition_ns: int, sleep_counts: dict[int, int]) -> CallFold:
        if self.jobs > 1 and self.db.path != ":memory:":
            from repro.perf.analysis.parallel import parallel_fold

            fold = parallel_fold(
                self.db,
                transition_ns,
                self.weights,
                sleep_counts,
                jobs=self.jobs,
                chunk_events=self.chunk_events,
            )
            if fold is not None:
                return fold
        fold = CallFold(transition_ns, self.weights, sleep_counts)
        for cols in self.db.call_columns_chunks(self.chunk_events):
            fold.fold(cols)
        return fold.seal()
