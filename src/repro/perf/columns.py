"""Columnar view of the ``calls`` table.

The paper's analyses are all aggregations — fractions of short calls,
percentile tables, gap distributions (§4.3).  Inflating one
:class:`~repro.perf.events.CallEvent` dataclass per row just to feed NumPy
made the million-event traces (§5.2.4 records 1.1M ecall events)
analysis-bound in Python.  :class:`CallColumns` keeps the whole table as
eleven NumPy arrays instead; the analysers index and mask them directly.

``parent_id`` uses ``-1`` as the *no parent* sentinel (SQL ``NULL``), so
every column stays a dense integer array.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.perf.events import CallEvent

NO_PARENT = -1

# Column order mirrors the ``calls`` table schema.
CALL_COLUMN_NAMES = (
    "event_id",
    "kind",
    "name",
    "call_index",
    "enclave_id",
    "thread_id",
    "start_ns",
    "end_ns",
    "aex_count",
    "parent_id",
    "is_sync",
)


class CallColumns:
    """All call events of a trace, column-wise.

    ``kind`` and ``name`` are object arrays of strings; every other column
    is ``int64`` except ``is_sync`` (bool).  Rows keep the reader-side
    ordering convention: ``(start_ns, event_id)`` ascending.
    """

    __slots__ = CALL_COLUMN_NAMES + ("_id_order",)

    def __init__(
        self,
        event_id: np.ndarray,
        kind: np.ndarray,
        name: np.ndarray,
        call_index: np.ndarray,
        enclave_id: np.ndarray,
        thread_id: np.ndarray,
        start_ns: np.ndarray,
        end_ns: np.ndarray,
        aex_count: np.ndarray,
        parent_id: np.ndarray,
        is_sync: np.ndarray,
    ) -> None:
        self.event_id = event_id
        self.kind = kind
        self.name = name
        self.call_index = call_index
        self.enclave_id = enclave_id
        self.thread_id = thread_id
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.aex_count = aex_count
        self.parent_id = parent_id
        self.is_sync = is_sync
        self._id_order: Optional[tuple[np.ndarray, np.ndarray]] = None

    # -- construction --------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[tuple]) -> "CallColumns":
        """Build from database rows (``calls`` schema order)."""
        n = len(rows)
        if n == 0:
            return cls.empty()
        cols = list(zip(*rows))
        return cls(
            event_id=np.fromiter(cols[0], dtype=np.int64, count=n),
            kind=np.array(cols[1], dtype=object),
            name=np.array(cols[2], dtype=object),
            call_index=np.fromiter(cols[3], dtype=np.int64, count=n),
            enclave_id=np.fromiter(cols[4], dtype=np.int64, count=n),
            thread_id=np.fromiter(cols[5], dtype=np.int64, count=n),
            start_ns=np.fromiter(cols[6], dtype=np.int64, count=n),
            end_ns=np.fromiter(cols[7], dtype=np.int64, count=n),
            aex_count=np.fromiter(cols[8], dtype=np.int64, count=n),
            parent_id=np.fromiter(
                (NO_PARENT if p is None else p for p in cols[9]),
                dtype=np.int64,
                count=n,
            ),
            is_sync=np.fromiter(cols[10], dtype=bool, count=n),
        )

    @classmethod
    def from_events(cls, events: Iterable[CallEvent]) -> "CallColumns":
        """Build from reader-side :class:`CallEvent` objects."""
        return cls.from_rows([_event_row(e) for e in events])

    @classmethod
    def empty(cls) -> "CallColumns":
        """A zero-row column set."""
        i64 = np.empty(0, dtype=np.int64)
        return cls(
            event_id=i64,
            kind=np.empty(0, dtype=object),
            name=np.empty(0, dtype=object),
            call_index=i64,
            enclave_id=i64,
            thread_id=i64,
            start_ns=i64,
            end_ns=i64,
            aex_count=i64,
            parent_id=i64,
            is_sync=np.empty(0, dtype=bool),
        )

    # -- basics --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.event_id)

    def duration_ns(self) -> np.ndarray:
        """Measured durations, logger convention (``end - start``)."""
        return self.end_ns - self.start_ns

    def select(self, mask_or_indices: np.ndarray) -> "CallColumns":
        """A new column set restricted to ``mask_or_indices``."""
        m = mask_or_indices
        return CallColumns(
            event_id=self.event_id[m],
            kind=self.kind[m],
            name=self.name[m],
            call_index=self.call_index[m],
            enclave_id=self.enclave_id[m],
            thread_id=self.thread_id[m],
            start_ns=self.start_ns[m],
            end_ns=self.end_ns[m],
            aex_count=self.aex_count[m],
            parent_id=self.parent_id[m],
            is_sync=self.is_sync[m],
        )

    def event(self, position: int) -> CallEvent:
        """Inflate the row at ``position`` into a :class:`CallEvent`."""
        parent = int(self.parent_id[position])
        return CallEvent(
            event_id=int(self.event_id[position]),
            kind=str(self.kind[position]),
            name=str(self.name[position]),
            call_index=int(self.call_index[position]),
            enclave_id=int(self.enclave_id[position]),
            thread_id=int(self.thread_id[position]),
            start_ns=int(self.start_ns[position]),
            end_ns=int(self.end_ns[position]),
            aex_count=int(self.aex_count[position]),
            parent_id=None if parent == NO_PARENT else parent,
            is_sync=bool(self.is_sync[position]),
        )

    def to_events(self) -> list[CallEvent]:
        """Inflate every row (compatibility escape hatch — avoid in hot paths)."""
        return [self.event(i) for i in range(len(self))]

    # -- id lookups ----------------------------------------------------------

    def positions_of(self, ids: np.ndarray) -> np.ndarray:
        """Row positions of ``ids`` (``-1`` where absent or ``NO_PARENT``)."""
        if len(self) == 0:
            return np.full(len(ids), -1, dtype=np.int64)
        if self._id_order is None:
            order = np.argsort(self.event_id, kind="stable")
            self._id_order = (order, self.event_id[order])
        order, sorted_ids = self._id_order
        pos = np.searchsorted(sorted_ids, ids)
        pos_clipped = np.minimum(pos, len(sorted_ids) - 1)
        found = sorted_ids[pos_clipped] == ids
        return np.where(found, order[pos_clipped], np.int64(-1))

    # -- grouping ------------------------------------------------------------

    def group_codes(self) -> tuple[np.ndarray, list[tuple[str, str]]]:
        """Per-row group code and the code → ``(kind, name)`` table."""
        combined = np.array(
            [k + "\x00" + n for k, n in zip(self.kind, self.name)], dtype=object
        )
        uniq, inverse = np.unique(combined, return_inverse=True)
        keys = [tuple(u.split("\x00", 1)) for u in uniq]
        return inverse.astype(np.int64), keys


def _event_row(e: CallEvent) -> tuple:
    return (
        e.event_id,
        e.kind,
        e.name,
        e.call_index,
        e.enclave_id,
        e.thread_id,
        e.start_ns,
        e.end_ns,
        e.aex_count,
        e.parent_id,
        1 if e.is_sync else 0,
    )

