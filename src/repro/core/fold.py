"""One fold per analysis, one pass per /24 range.

FD/STU, churn (Secs. 4.1, 5.1) and the per-/24 window series behind
change and event detection (Sec. 5.2) are reductions of a /24's 256 ×
windows activity matrix (Figs. 6/7).  A :class:`BlockFold` keeps, per
/24 it has seen, 256-bit presence rows (four ``uint64`` words) and
per-row totals, with ``update(column)`` for the next snapshot column,
``merge(other)`` for a fold over a disjoint /24 range and the same
snapshots, and a result accessor.  The in-memory, streamed and live
paths drive the same folds: :func:`run_folds` treats a dataset as one
range and a store as its shards; ``repro serve`` calls ``update``.
"""

from __future__ import annotations

import datetime
from collections.abc import Callable, Iterable
from functools import partial
from typing import TYPE_CHECKING, Any, Generic, NamedTuple, Protocol, TypeVar, Union

import numpy as np
from numpy.typing import NDArray

from repro.core.dataset import ActivityDataset
from repro.errors import DatasetError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from typing import Self

    from repro.core.store import DatasetStore

#: A dataset (one range) or a store (its shards are the ranges).
Source = Union[ActivityDataset, "DatasetStore"]

#: ``uint64`` words in one /24's 256-bit presence row.
ROW_WORDS = 4

#: Set bits of every byte value, for counting presence bits.
_BYTE_BITS = np.array([bin(byte).count("1") for byte in range(256)], dtype=np.int64)

#: The bases every fold starts from, shared so that folds fed the same
#: columns share one bases array (see :meth:`BlockColumn.locate`).
_NO_BASES: NDArray[Any] = np.empty(0, dtype=np.uint32)
_NO_BASES.flags.writeable = False


class _Location(NamedTuple):
    bases: NDArray[Any]             # the bases after admitting the column
    added: NDArray[np.intp] | None  # ``np.insert`` positions of new /24s
    rows: NDArray[np.intp]          # each column /24's row in ``bases``


class BlockColumn:
    """A sorted unique ``uint32`` column split by /24, once for all folds.

    Its per-address *hits* are only read by :attr:`hits`.
    """

    __slots__ = ("bases", "counts", "words", "_starts", "_hits", "_block_hits", "_located")

    def __init__(self, ips: NDArray[Any], hits: NDArray[Any] | None = None) -> None:
        column = np.asarray(ips, dtype=np.uint32)
        blocks = column & np.uint32(0xFFFFFF00)
        first = np.ones(column.size, dtype=bool)
        first[1:] = blocks[1:] != blocks[:-1]
        starts = np.flatnonzero(first)
        self.bases: NDArray[Any] = blocks[starts]
        self.counts: NDArray[Any] = np.diff(np.append(starts, column.size))
        grid = np.zeros(starts.size * 256, dtype=bool)  # row r: r-th /24's bits
        grid[np.repeat(np.arange(0, grid.size, 256), self.counts) + column % 256] = True
        self.words = np.packbits(
            grid.reshape(-1, 256), axis=1, bitorder="little"
        ).view(np.uint64)
        self._starts = starts
        self._hits = hits
        self._block_hits: NDArray[np.uint64] | None = None
        self._located: tuple[NDArray[Any], _Location] | None = None

    @property
    def hits(self) -> NDArray[np.uint64]:
        """Exact ``uint64`` hit sum per /24, computed on first use."""
        if self._block_hits is None:
            if self._hits is None:
                raise DatasetError("this column was split without its hits")
            hits = np.asarray(self._hits, dtype=np.uint64)
            self._block_hits = np.add.reduceat(hits, self._starts)
        return self._block_hits

    def locate(self, bases: NDArray[Any]) -> _Location:
        """Place this column's /24s among the sorted, read-only *bases*.

        Cached by identity: folds fed the same columns hold the same
        bases array, so a pass computes this once per column.
        """
        if self._located is not None and self._located[0] is bases:
            return self._located[1]
        rows = np.searchsorted(bases, self.bases)
        known = rows < bases.size
        known[known] = bases[rows[known]] == self.bases[known]
        location = _Location(bases, None, rows)
        if not known.all():
            added = rows[~known]
            grown = np.insert(bases, added, self.bases[~known])
            grown.flags.writeable = False
            location = _Location(grown, added, np.searchsorted(grown, self.bases))
        self._located = (bases, location)
        return location


def row_bits(words: NDArray[Any]) -> NDArray[np.int64]:
    """Set bits per presence row."""
    counts: NDArray[np.int64] = _BYTE_BITS[words.view(np.uint8)].sum(axis=1)
    return counts


def popcount(words: NDArray[Any]) -> int:
    """Set bits over a whole presence array."""
    return int(row_bits(words).sum())


class BlockFold:
    """Per-/24 rows over one address range, grown as new /24s appear.

    Subclasses keep their per-row arrays in :attr:`_rows`; growth and
    :meth:`merge` keep them aligned with the sorted ``_bases``.
    """

    def __init__(self, rows: dict[str, NDArray[Any]]) -> None:
        self._bases = _NO_BASES
        self._rows = rows
        self._num_snapshots = 0

    @property
    def num_snapshots(self) -> int:
        """Columns folded in so far."""
        return self._num_snapshots

    def _admit(
        self, ips: BlockColumn | NDArray[Any]
    ) -> tuple[BlockColumn, NDArray[np.intp]]:
        """Count one more column; its split and its /24s' rows (adding new ones)."""
        self._num_snapshots += 1
        column = ips if isinstance(ips, BlockColumn) else BlockColumn(ips)
        location = column.locate(self._bases)
        if location.added is not None:
            self._bases = location.bases
            for name, state in self._rows.items():
                self._rows[name] = np.insert(state, location.added, 0, axis=0)
        return column, location.rows

    def merge(self, other: Self) -> None:
        """Absorb a fold over a disjoint /24 range and the same snapshots."""
        if other.num_snapshots != self.num_snapshots:
            raise DatasetError(
                f"cannot merge folds over {self.num_snapshots} and "
                f"{other.num_snapshots} snapshots"
            )
        bases = np.concatenate([self._bases, other._bases])  # O(active /24s)
        order = np.argsort(bases, kind="stable")
        bases = bases[order]
        if np.any(bases[1:] == bases[:-1]):
            raise DatasetError("cannot merge folds over overlapping /24 ranges")
        bases.flags.writeable = False
        self._bases = bases
        for name, state in self._rows.items():
            rows = np.concatenate([state, other._rows[name]])  # O(active /24s)
            self._rows[name] = rows[order]


class Fold(Protocol):
    """What :func:`run_folds` drives: one fold, a group, or a whole pass."""

    def update(self, column: BlockColumn) -> None: ...

    def merge(self, other: Self) -> None: ...


F = TypeVar("F", bound=Fold)
K = TypeVar("K")


class FoldGroup(Generic[K, F]):
    """Several folds fed the same columns: one pass serves them all."""

    def __init__(self, folds: dict[K, F]) -> None:
        self.folds = folds

    def update(self, column: BlockColumn) -> None:
        for fold in self.folds.values():
            fold.update(column)

    def merge(self, other: FoldGroup[K, F]) -> None:
        for key, fold in self.folds.items():
            fold.merge(other.folds[key])


def _fed(fold: F, columns: Iterable[tuple[NDArray[Any], NDArray[Any]]]) -> F:
    for ips, hits in columns:
        fold.update(BlockColumn(ips, hits))
    return fold


def run_folds(source: Source, make: Callable[[], F]) -> F:
    """Fold every column of *source*, a fresh fold per /24 range, merged.

    The only loop that reads ranges.  Each store shard is opened once
    and closed on every path; its fold merges into a fold over the
    empty range, so an empty store still counts its snapshots.  Peak
    memory is one shard's column plus the per-/24 rows.
    """
    if isinstance(source, ActivityDataset):
        return _fed(make(), ((snapshot.ips, snapshot.hits) for snapshot in source))
    count = len(source)
    empty = (np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.uint64))
    total = _fed(make(), [empty] * count)
    for shard in source.shards:
        try:
            part = _fed(make(), (shard.columns(index) for index in range(count)))
        finally:
            shard.close()
        total.merge(part)
    return total


class BlockSeries(BlockFold):
    """Per-/24 × per-window activity series as a fold — their one definition.

    Three ``blocks × windows`` channels: active addresses, the exact
    ``uint64`` hit sum, and churn — set bits of ``now ^ before`` over
    ``now | before`` on consecutive windows' presence rows (0 at the
    first window and where the /24 is idle in both; the last row is
    kept, as :class:`~repro.core.churn.IncrementalChurn` does).  Sized
    by the snapshot count, known before the pass; *start* and
    *window_days* date the windows.
    """

    def __init__(self, start: datetime.date, window_days: int, num_snapshots: int) -> None:
        super().__init__(
            {
                "active": np.zeros((0, num_snapshots), dtype=np.int64),
                "hits": np.zeros((0, num_snapshots), dtype=np.uint64),
                "churn": np.zeros((0, num_snapshots), dtype=np.float64),
                "last": np.zeros((0, ROW_WORDS), dtype=np.uint64),
            }
        )
        self.start = start
        self.window_days = window_days
        self._size = num_snapshots

    def __len__(self) -> int:
        return self._size

    def update(self, column: BlockColumn | NDArray[Any]) -> None:
        """Fold the next snapshot column in (its hits are read)."""
        column, rows = self._admit(column)
        window = self._num_snapshots - 1
        self._rows["active"][rows, window] = column.counts
        self._rows["hits"][rows, window] = column.hits
        before = self._rows["last"]
        now = np.zeros_like(before)
        now[rows] = column.words
        if window:
            union = row_bits(now | before)
            seen = union > 0
            self._rows["churn"][seen, window] = row_bits(now ^ before)[seen] / union[seen]
        self._rows["last"] = now

    @property
    def bases(self) -> NDArray[Any]:
        """Sorted /24 bases seen in any window, one per channel row."""
        return self._bases

    @property
    def active(self) -> NDArray[np.int64]:
        return self._rows["active"]

    @property
    def hits(self) -> NDArray[np.uint64]:
        return self._rows["hits"]

    @property
    def churn(self) -> NDArray[np.float64]:
        return self._rows["churn"]


def block_series(source: Source | BlockSeries) -> BlockSeries:
    """*source*'s :class:`BlockSeries` in one pass (a series is returned as is)."""
    if isinstance(source, BlockSeries):
        return source
    return run_folds(source, partial(BlockSeries, source.start, source.window_days, len(source)))
