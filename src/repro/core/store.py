"""Out-of-core dataset store: immutable raw ``.npz`` segments + manifest.

The legacy persistence format (:mod:`repro.core.io`) is one ``.npz``
holding every snapshot column — loading it materializes the full
address matrix, which caps analysis at whatever fits in RAM.  The paper
analyzed 1.2B active addresses over a year; this module is the layout
that lets the reproduction head there: a **store** is a set of
immutable **segments** plus a JSON manifest binding them together.  A
segment is a raw-member (uncompressed) ``.npz`` covering a contiguous
range of active /24 blocks over a contiguous range of snapshots.

A batch store (:class:`StoreWriter`) is the special case of one
segment per shard over every snapshot, all beside the manifest::

    <root>/
        store.manifest.json          # schema, day range, shard table,
                                     # per-shard SHA-256, dataset SHA-256
        shard_000000_000256.npz      # blocks [0, 256) of the sorted
        shard_000256_000512.npz      # active-/24 table, all snapshots

A **live** store (:class:`StoreAppender`) grows one snapshot per
commit.  Commit *k* writes only its own column, as segments chunked by
``shard_blocks``, into ``gen_<k>/`` beside a manifest that lists every
live segment (its own and those of commits ``1..k-1``), then flips
``live.json`` to *k* and deletes commit *k-1*'s now-superseded
manifest, so one manifest exists at rest::

    <root>/
        live.json                    # {"schema": 1, "generation": 3}
        gen_000001/                  # snapshot 0's segments
        gen_000002/                  # snapshot 1's segments
        gen_000003/
            store.manifest.json      # segments of snapshots 0..2
            shard_000000_000256.npz  # snapshot 2, its /24s [0, 256)
            shard_000256_000290.npz  # snapshot 2, its /24s [256, 290)

Shard files reuse the checkpoint naming convention from
:mod:`repro.sim.checkpoint` (``shard_<start>_<stop>.npz``, keyed by the
block range in the sorted active-/24 table of the segment's snapshot
range).  Each segment holds, per snapshot, the ``(ips, hits)`` columns
restricted to its address range, sorted — plus the same header members
as the legacy format (``start`` is the segment's first snapshot), so
every segment is independently a valid (partial) dataset file.

Segments are keyed by **sorted /24 base address**, not by world-gen
block index: the population allocator interleaves countries, so block
index order is not address order, and only address-keyed ranges make
``searchsorted`` slicing of sorted snapshot columns valid.  Segment
boundaries are 256-aligned — a /24 is never split — so per-/24
quantities (filling degree, STU, block activity) decompose exactly over
address ranges, and concatenating one snapshot's segments in address
order reproduces the legacy column bit-identically.  Every reader
composes segments that way; :attr:`DatasetStore.shards` presents a
segmented store to the streamed analyses as batch-shaped address-range
views, and the streamed dataset SHA-256 is byte-identical to the batch
digest.

Memory model: analyses stream shard by shard.  Segment *data* is read
with bounded buffered copies (one member at a time) rather than
``mmap`` — mapped pages fault into the process RSS and would defeat a
constant-memory ceiling — while :meth:`DatasetStore.to_dataset` and the
``load_dataset`` fast path use true zero-copy ``np.memmap`` views where
the caller wants the whole matrix anyway.
"""

from __future__ import annotations

import bisect
import datetime
import hashlib
import json
import math
import os
import zipfile
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import IO, Any

import numpy as np
from numpy.typing import NDArray

from repro.core.dataset import ActivityDataset, Snapshot
from repro.core.io import _CORRUPT_NPZ_ERRORS, atomic_write_npz, atomic_write_text
from repro.errors import DatasetError
from repro.obs import context as obs

#: Manifest schema of the batch layout: every shard covers every snapshot.
STORE_FORMAT_VERSION = 1

#: Manifest schema of the segmented (live) layout: every row also names
#: its snapshot range and the generation directory holding its file.
SEGMENTED_FORMAT_VERSION = 2

#: Manifest file name inside a store directory.
STORE_MANIFEST_NAME = "store.manifest.json"

#: Pointer file name inside a *live* store directory (appendable store).
LIVE_POINTER_NAME = "live.json"

#: Bump when the live-pointer schema changes.
LIVE_POINTER_VERSION = 1

#: Addresses per /24 block.
_BLOCK_SPAN = 256

#: Dataset-format version shared with the legacy single-file layout —
#: each segment is independently a valid (partial) legacy dataset file.
_DATASET_VERSION = 1

#: Size of the fixed portion of a zip local file header (bytes).
_ZIP_LOCAL_HEADER_SIZE = 30

_ZIP_LOCAL_MAGIC = b"PK\x03\x04"

#: A ``.npy`` member's located layout: shape, dtype, data offset (-1 = not raw).
_MemberLayout = tuple[tuple[int, ...], np.dtype[Any], int]


def shard_file_name(block_start: int, block_stop: int) -> str:
    """Shard file name for a global block range — checkpoint convention."""
    return f"shard_{block_start:06d}_{block_stop:06d}.npz"


def store_manifest_path(root: str | os.PathLike[str]) -> str:
    """Path of the manifest inside store directory *root*."""
    return os.path.join(os.fspath(root), STORE_MANIFEST_NAME)


def generation_dir_name(generation: int) -> str:
    """Directory name of one live-store generation (1-based)."""
    return f"gen_{generation:06d}"


def live_pointer_path(root: str | os.PathLike[str]) -> str:
    """Path of the generation pointer inside live store *root*."""
    return os.path.join(os.fspath(root), LIVE_POINTER_NAME)


def read_live_pointer(root: str | os.PathLike[str]) -> int | None:
    """The committed generation number of live store *root*.

    Returns ``None`` when no pointer file exists (the directory is not
    a live store, or no generation has ever been committed); raises
    :class:`~repro.errors.DatasetError` on a malformed pointer.
    """
    target = live_pointer_path(root)
    try:
        with open(target, encoding="utf-8") as stream:
            payload = json.load(stream)
    except FileNotFoundError:
        return None
    except (json.JSONDecodeError, OSError) as exc:
        raise DatasetError(
            f"corrupt or unreadable live-store pointer: {target} ({exc})"
        ) from exc
    if not isinstance(payload, dict):
        raise DatasetError(f"malformed live-store pointer: {target}")
    try:
        schema = int(payload["schema"])
        generation = int(payload["generation"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(
            f"malformed live-store pointer: {target} ({exc})"
        ) from exc
    if schema != LIVE_POINTER_VERSION:
        raise DatasetError(
            f"unsupported live-store pointer schema in {target}: {schema}"
        )
    if generation < 1:
        raise DatasetError(
            f"malformed live-store pointer: {target} (generation {generation})"
        )
    return generation


def resolve_store_root(path: str | os.PathLike[str]) -> str:
    """The directory whose manifest describes *path*'s dataset.

    A plain store directory resolves to itself.  A **live** store —
    one whose snapshots are appended interval by interval through
    :class:`StoreAppender` — points at its committed generation with
    ``live.json``, and that generation's manifest lists every live
    segment; such a root resolves to the committed generation
    directory, so every store consumer (``open_store``, ``repro
    analyze``) reads a live store transparently.
    """
    root = os.fspath(path)
    if os.path.isfile(store_manifest_path(root)):
        return root
    generation = read_live_pointer(root)
    if generation is not None:
        return os.path.join(root, generation_dir_name(generation))
    return root


def is_store(path: str | os.PathLike[str]) -> bool:
    """True when *path* is (or resolves to) a store-manifest directory."""
    target = os.fspath(path)
    if not os.path.isdir(target):
        return False
    try:
        resolved = resolve_store_root(target)
    except DatasetError:
        return False
    return os.path.isfile(store_manifest_path(resolved))


class RawNpzReader:
    """Random access to ``.npz`` members without whole-bundle loads.

    ``np.load`` on an ``.npz`` decompresses each member through a full
    in-memory copy even when the member was stored raw.  This reader
    parses the zip central directory once, locates each member's array
    data by its local-header offset, and then serves reads three ways:

    - :meth:`header` — shape and dtype from the ``.npy`` header alone
      (no data read), for size accounting and digests;
    - :meth:`array` — a bounded buffered copy (``np.fromfile`` at the
      data offset), the streaming-analysis path that keeps RSS flat;
    - :meth:`array` with ``mmap=True`` — a read-only ``np.memmap``
      view, true zero-copy for whole-matrix consumers.

    Members that are compressed (or Fortran-ordered / object-dtype)
    fall back to ``np.lib.format.read_array`` through the zip stream;
    :meth:`data_offset` returns ``-1`` for them so callers needing the
    zero-copy guarantee can detect and bail.  *members* seeds the
    located-layout cache, so a reader reopened on an immutable file
    skips the ``.npy`` header parses an earlier reader already did.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        members: dict[str, _MemberLayout] | None = None,
    ) -> None:
        self._path = os.fspath(path)
        self._zip = zipfile.ZipFile(self._path)
        self._file: IO[bytes] = open(self._path, "rb")
        # member name -> (shape, dtype, data offset; -1 = not raw)
        self._headers: dict[str, _MemberLayout] = {} if members is None else members

    def close(self) -> None:
        self._zip.close()
        self._file.close()

    def __enter__(self) -> "RawNpzReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def path(self) -> str:
        return self._path

    def keys(self) -> list[str]:
        """Member names (without the ``.npy`` suffix), archive order."""
        return [
            name[: -len(".npy")]
            for name in self._zip.namelist()
            if name.endswith(".npy")
        ]

    def _locate(self, name: str) -> _MemberLayout:
        cached = self._headers.get(name)
        if cached is not None:
            return cached
        try:
            info = self._zip.getinfo(name + ".npy")
        except KeyError as exc:
            raise DatasetError(
                f"not a dataset file: {self._path} (missing member {name!r})"
            ) from exc
        if info.compress_type == zipfile.ZIP_STORED:
            self._file.seek(info.header_offset)
            local = self._file.read(_ZIP_LOCAL_HEADER_SIZE)
            if (
                len(local) < _ZIP_LOCAL_HEADER_SIZE
                or local[:4] != _ZIP_LOCAL_MAGIC
            ):
                raise DatasetError(
                    f"corrupt or unreadable dataset file: {self._path} "
                    f"(bad local header for member {name!r})"
                )
            name_len = int.from_bytes(local[26:28], "little")
            extra_len = int.from_bytes(local[28:30], "little")
            payload = (
                info.header_offset + _ZIP_LOCAL_HEADER_SIZE + name_len + extra_len
            )
            self._file.seek(payload)
            shape, fortran, dtype = self._read_npy_header(self._file)
            offset = -1 if fortran or dtype.hasobject else self._file.tell()
        else:
            with self._zip.open(info) as stream:
                shape, _fortran, dtype = self._read_npy_header(stream)
            offset = -1
        located = (shape, dtype, offset)
        self._headers[name] = located
        return located

    @staticmethod
    def _read_npy_header(
        stream: IO[bytes],
    ) -> tuple[tuple[int, ...], bool, np.dtype[Any]]:
        version = np.lib.format.read_magic(stream)
        if version == (1, 0):
            return np.lib.format.read_array_header_1_0(stream)
        if version == (2, 0):
            return np.lib.format.read_array_header_2_0(stream)
        raise DatasetError(f"unsupported .npy member format version: {version}")

    def header(self, name: str) -> tuple[tuple[int, ...], np.dtype[Any]]:
        """Member *name*'s ``(shape, dtype)`` without reading its data."""
        shape, dtype, _offset = self._locate(name)
        return shape, dtype

    def data_offset(self, name: str) -> int:
        """Byte offset of *name*'s raw array data; ``-1`` when not raw."""
        _shape, _dtype, offset = self._locate(name)
        return offset

    def array(self, name: str, *, mmap: bool = False) -> NDArray[Any]:
        """Member *name* as an array.

        Raw members are read with a bounded buffered copy, or mapped
        read-only when ``mmap=True``.  Non-raw members (compressed,
        Fortran, object dtype) are decoded through the zip stream.
        """
        shape, dtype, offset = self._locate(name)
        if offset < 0:
            with self._zip.open(name + ".npy") as stream:
                decoded: NDArray[Any] = np.lib.format.read_array(
                    stream, allow_pickle=False
                )
            return decoded
        count = math.prod(shape)
        if count == 0:
            return np.empty(shape, dtype=dtype)
        if mmap:
            mapped: NDArray[Any] = np.memmap(
                self._path, mode="r", dtype=dtype, shape=shape, offset=offset
            )
            return mapped
        flat = np.fromfile(self._path, dtype=dtype, count=count, offset=offset)
        if flat.size != count:
            raise DatasetError(
                f"corrupt or truncated dataset file: {self._path} "
                f"(member {name!r} holds {flat.size} of {count} items)"
            )
        return flat.reshape(shape)


@dataclass(frozen=True)
class StoreHeader:
    """The day-range header of a store, or of one of its segments."""

    start: datetime.date
    window_days: int
    num_snapshots: int

    def describe(self) -> str:
        return (
            f"{self.num_snapshots} x {self.window_days}d "
            f"from {self.start.isoformat()}"
        )

    def segment(self, snapshot_start: int, snapshot_stop: int) -> "StoreHeader":
        """The header of a segment covering snapshots ``[start, stop)``."""
        return StoreHeader(
            self.start
            + datetime.timedelta(days=snapshot_start * self.window_days),
            self.window_days,
            snapshot_stop - snapshot_start,
        )


@dataclass(frozen=True)
class ShardInfo:
    """One manifest row: a segment's block, address and snapshot ranges, and hash.

    The block range indexes the sorted active-/24 table of the
    segment's snapshot range.  ``generation`` is ``None`` for a batch
    store's shards (the file sits beside the manifest); a live store's
    rows name the generation directory that holds the file.
    """

    name: str
    block_start: int
    block_stop: int
    base_lo: int
    base_hi: int  # exclusive
    sha256: str
    nbytes: int
    snapshot_start: int
    snapshot_stop: int  # exclusive
    generation: int | None = None

    @property
    def num_blocks(self) -> int:
        return self.block_stop - self.block_start

    def as_dict(self) -> dict[str, Any]:
        row: dict[str, Any] = {
            "name": self.name,
            "block_start": self.block_start,
            "block_stop": self.block_stop,
            "base_lo": self.base_lo,
            "base_hi": self.base_hi,
            "sha256": self.sha256,
            "bytes": self.nbytes,
        }
        if self.generation is not None:
            row.update(
                generation=self.generation,
                snapshot_start=self.snapshot_start,
                snapshot_stop=self.snapshot_stop,
            )
        return row

    @classmethod
    def from_dict(
        cls, payload: dict[str, Any], *, segmented: bool, num_snapshots: int
    ) -> "ShardInfo":
        """Parse one row; a batch row spans all *num_snapshots* snapshots."""
        try:
            return cls(
                name=str(payload["name"]),
                block_start=int(payload["block_start"]),
                block_stop=int(payload["block_stop"]),
                base_lo=int(payload["base_lo"]),
                base_hi=int(payload["base_hi"]),
                sha256=str(payload["sha256"]),
                nbytes=int(payload["bytes"]),
                snapshot_start=int(payload["snapshot_start"]) if segmented else 0,
                snapshot_stop=(
                    int(payload["snapshot_stop"]) if segmented else num_snapshots
                ),
                generation=int(payload["generation"]) if segmented else None,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(f"malformed store manifest shard entry: {exc}") from exc


class StoreShard:
    """One segment of a store: lazy reader plus its manifest row.

    *root* is the directory of the manifest listing the segment.  The
    header, per-snapshot sizes and member layout are cached for the
    object's lifetime — segments are immutable — so :meth:`close`
    releases only the OS handles.
    """

    def __init__(
        self,
        root: str | os.PathLike[str],
        info: ShardInfo,
        *,
        header: StoreHeader | None = None,
        sizes: list[int] | None = None,
    ) -> None:
        self.info = info
        directory = os.fspath(root)
        if info.generation is not None:
            directory = os.path.join(
                os.path.dirname(os.path.normpath(directory)),
                generation_dir_name(info.generation),
            )
        self.path = os.path.join(directory, info.name)
        self._reader: RawNpzReader | None = None
        self._header = header
        self._sizes = sizes
        self._members: dict[str, _MemberLayout] = {}

    def reader(self) -> RawNpzReader:
        if self._reader is None:
            try:
                self._reader = RawNpzReader(self.path, self._members)
            except FileNotFoundError as exc:
                raise DatasetError(f"missing store shard file: {self.path}") from exc
            except _CORRUPT_NPZ_ERRORS as exc:
                raise DatasetError(
                    f"corrupt or unreadable store shard: {self.path} ({exc})"
                ) from exc
        return self._reader

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()
            self._reader = None

    def covers(self, lo: int, hi: int) -> bool:
        """True when the segment's address range meets ``[lo, hi]``."""
        return self.info.base_hi > lo and self.info.base_lo <= hi

    def _scalar(self, name: str) -> int:
        try:
            return int(self.reader().array(name)[0])
        except (KeyError, IndexError) as exc:
            raise DatasetError(
                f"not a store shard: {self.path} (missing member {name!r})"
            ) from exc
        except _CORRUPT_NPZ_ERRORS as exc:
            raise DatasetError(
                f"corrupt or truncated store shard: {self.path} ({exc})"
            ) from exc

    def header(self) -> StoreHeader:
        """The segment's day-range header (validated dataset version)."""
        if self._header is None:
            version = self._scalar("version")
            if version != _DATASET_VERSION:
                raise DatasetError(
                    f"unsupported dataset format version in shard "
                    f"{self.path}: {version}"
                )
            self._header = StoreHeader(
                start=datetime.date.fromordinal(self._scalar("start")),
                window_days=self._scalar("window_days"),
                num_snapshots=self._scalar("num_snapshots"),
            )
        return self._header

    def ranges(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """The segment's recorded ``(block_range, base_range)`` members."""
        try:
            block_range = self.reader().array("block_range")
            base_range = self.reader().array("base_range")
        except _CORRUPT_NPZ_ERRORS as exc:
            raise DatasetError(
                f"corrupt or truncated store shard: {self.path} ({exc})"
            ) from exc
        if block_range.size != 2 or base_range.size != 2:
            raise DatasetError(f"malformed range members in shard: {self.path}")
        return (
            (int(block_range[0]), int(block_range[1])),
            (int(base_range[0]), int(base_range[1])),
        )

    def snapshot_sizes(self) -> list[int]:
        """Active addresses per covered snapshot, from headers only."""
        if self._sizes is None:
            count = self.header().num_snapshots
            sizes: list[int] = []
            for index in range(count):
                shape, _dtype = self.reader().header(f"ips_{index}")
                sizes.append(math.prod(shape))
            self._sizes = sizes
        return self._sizes

    def columns(
        self, index: int, *, mmap: bool = False
    ) -> tuple[NDArray[Any], NDArray[Any]]:
        """Store snapshot *index*'s ``(ips, hits)`` columns within this segment."""
        local = index - self.info.snapshot_start
        try:
            ips = self.reader().array(f"ips_{local}", mmap=mmap)
            hits = self.reader().array(f"hits_{local}", mmap=mmap)
        except _CORRUPT_NPZ_ERRORS as exc:
            raise DatasetError(
                f"corrupt or truncated store shard: {self.path} ({exc})"
            ) from exc
        return ips, hits


def _slice_segments(
    segments: Sequence[StoreShard],
    index: int,
    lo: int,
    hi: int,
    *,
    mmap: bool = False,
) -> tuple[NDArray[Any], NDArray[Any]]:
    """Snapshot *index*'s ``(ips, hits)`` in ``[lo, hi]`` from *segments*.

    *segments* are one snapshot range's segments in address order;
    only those meeting the range are read, and each is closed right
    after: a live store holds segments in proportion to its history,
    so holding them open would exhaust the process's file handles.
    A reopen is cheap — the segment keeps its member layout — and the
    returned columns are copies or maps that outlive the reader.
    """
    ips_parts: list[NDArray[Any]] = []
    hits_parts: list[NDArray[Any]] = []
    for segment in segments:
        if not segment.covers(lo, hi):
            continue
        try:
            ips, hits = segment.columns(index, mmap=mmap)
        finally:
            segment.close()
        left = int(np.searchsorted(ips, lo))
        right = int(np.searchsorted(ips, hi, side="right"))
        if right > left:
            ips_parts.append(ips[left:right])
            hits_parts.append(hits[left:right])
    if not ips_parts:
        return np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.uint64)
    return (
        np.concatenate(ips_parts),  # bounded: one requested address slice
        np.concatenate(hits_parts),  # bounded: one requested address slice
    )


@dataclass
class _Run:
    """Segments sharing one snapshot range, in ascending address order."""

    start: int
    stop: int
    segments: list[StoreShard] = field(default_factory=list)


def _group_runs(segments: Sequence[StoreShard]) -> list[_Run]:
    runs: list[_Run] = []
    for segment in segments:
        span = (segment.info.snapshot_start, segment.info.snapshot_stop)
        if not runs or (runs[-1].start, runs[-1].stop) != span:
            runs.append(_Run(*span))
        runs[-1].segments.append(segment)
    return runs


class StoreView:
    """One /24 address range of a segmented store, over every snapshot.

    Duck-types the part of :class:`StoreShard` the streamed analyses
    use — :meth:`columns` and :meth:`close` — by slicing the range out
    of each snapshot's segments, so a live store streams exactly as the
    batch store of the same dataset does.  Each slice releases the
    segments it read, so a view holds no handle between calls.
    """

    def __init__(self, store: "DatasetStore", base_lo: int, base_hi: int) -> None:
        self.base_lo = base_lo
        self.base_hi = base_hi  # exclusive
        self._store = store

    def __repr__(self) -> str:
        return f"StoreView([{self.base_lo:#010x}, {self.base_hi:#010x}))"

    def columns(
        self, index: int, *, mmap: bool = False
    ) -> tuple[NDArray[Any], NDArray[Any]]:
        """Store snapshot *index*'s ``(ips, hits)`` within this range."""
        return _slice_segments(
            self._store.segments_of(index),
            index,
            self.base_lo,
            self.base_hi - 1,
            mmap=mmap,
        )

    def close(self) -> None:
        """Nothing to release: :meth:`columns` closes what it opens."""


class DatasetStore:
    """A validated handle to an on-disk segmented dataset store.

    Open one with :meth:`DatasetStore.open` (or
    :func:`repro.core.io.open_store`).  Opening validates the manifest
    and every segment's header eagerly — segments sharing a snapshot
    range must tile their block range contiguously with 256-aligned,
    ascending, disjoint address ranges, snapshot ranges must ascend
    without overlap, and every segment must carry its snapshot range's
    day header — but reads segment *data* lazily, one member at a time.
    A snapshot no segment covers is empty.
    """

    def __init__(
        self,
        root: str,
        *,
        start: datetime.date,
        window_days: int,
        num_snapshots: int,
        shard_blocks: int,
        num_blocks: int,
        dataset_sha256: str,
        segments: list[StoreShard],
    ) -> None:
        self.root = root
        self.start = start
        self.window_days = window_days
        self.num_snapshots = num_snapshots
        self.shard_blocks = shard_blocks
        self.num_blocks = num_blocks
        self.dataset_sha256 = dataset_sha256
        self.segments = segments
        self._runs = _group_runs(segments)
        self._run_starts = [run.start for run in self._runs]
        self._views: list[StoreView] | None = None

    def __repr__(self) -> str:
        return (
            f"DatasetStore({self.root!r}, {self.num_blocks} blocks / "
            f"{len(self.segments)} segments, {self.num_snapshots} x "
            f"{self.window_days}d from {self.start.isoformat()})"
        )

    def __len__(self) -> int:
        return self.num_snapshots

    @property
    def total_days(self) -> int:
        """Days covered end to end."""
        return self.num_snapshots * self.window_days

    @property
    def header(self) -> StoreHeader:
        return StoreHeader(self.start, self.window_days, self.num_snapshots)

    @property
    def is_batch_layout(self) -> bool:
        """True when every segment covers every snapshot (one shard each)."""
        return all(
            run.start == 0 and run.stop == self.num_snapshots for run in self._runs
        )

    @property
    def shards(self) -> Sequence[StoreShard | StoreView]:
        """Ascending disjoint /24 ranges over every snapshot, for streaming.

        A batch-layout store's segments are its shards.  A segmented
        store gets :class:`StoreView` ranges instead: its active /24s in
        chunks of ``shard_blocks`` — the boundaries the batch store of
        the same dataset would have — found by one streamed pass.
        """
        if self.is_batch_layout:
            return self.segments
        if self._views is None:
            bases = self.active_block_bases()
            self._views = [
                StoreView(
                    self,
                    int(bases[offset]),
                    int(bases[min(offset + self.shard_blocks, bases.size) - 1])
                    + _BLOCK_SPAN,
                )
                for offset in range(0, int(bases.size), self.shard_blocks)
            ]
        return self._views

    def segments_of(self, index: int) -> Sequence[StoreShard]:
        """The segments holding snapshot *index*, in address order."""
        position = bisect.bisect_right(self._run_starts, index) - 1
        if position >= 0 and index < self._runs[position].stop:
            return self._runs[position].segments
        return ()

    def snapshot_start(self, index: int) -> datetime.date:
        return self.start + datetime.timedelta(days=index * self.window_days)

    def active_counts(self) -> NDArray[np.int64]:
        """Active addresses per snapshot — from ``.npy`` headers only."""
        counts = np.zeros(self.num_snapshots, dtype=np.int64)
        for segment in self.segments:
            try:
                counts[segment.info.snapshot_start : segment.info.snapshot_stop] += (
                    np.asarray(segment.snapshot_sizes(), dtype=np.int64)
                )
            finally:
                segment.close()
        return counts

    def nbytes(self) -> int:
        """Total segment file bytes, per the manifest."""
        return sum(segment.info.nbytes for segment in self.segments)

    def active_block_bases(self) -> NDArray[np.int64]:
        """Sorted /24 bases with any activity, streamed segment by segment.

        Within a snapshot range, segments cover ascending disjoint
        address ranges, so their sorted base sets concatenate; ranges
        are then merged by sorted union.  Peak memory is one segment's
        columns plus the base table itself (O(active /24s), not
        O(addresses)).
        """
        bases: NDArray[np.int64] = np.empty(0, dtype=np.int64)
        for run in self._runs:
            parts: list[NDArray[np.int64]] = []
            for segment in run.segments:
                try:
                    masked = [
                        (
                            segment.columns(index)[0] & np.uint32(0xFFFFFF00)
                        ).astype(np.int64)
                        for index in range(run.start, run.stop)
                    ]
                    nonempty = [blocks for blocks in masked if blocks.size]
                    if nonempty:
                        parts.append(
                            np.unique(np.concatenate(nonempty))  # bounded: one shard
                        )
                finally:
                    segment.close()
            if parts:
                run_bases = np.concatenate(parts)  # O(active /24s)
                bases = np.union1d(bases, run_bases) if bases.size else run_bases
        return bases

    def column_slice(
        self, index: int, lo: int, hi: int
    ) -> tuple[NDArray[Any], NDArray[Any]]:
        """Snapshot *index*'s ``(ips, hits)`` restricted to ``[lo, hi]``.

        *hi* is inclusive (the exclusive bound of the top /24 would
        overflow ``uint32``).  Reads only the segments of the snapshot
        whose address range overlaps the request, so the result is
        bounded by the requested slice plus one segment's columns.
        """
        return _slice_segments(self.segments_of(index), index, lo, hi)

    def iter_union_runs(self) -> Iterator[tuple[NDArray[Any], NDArray[Any]]]:
        """Sorted ``(ips, hits)`` union runs, one per shard, streaming.

        Concatenating every run reproduces ``kway_union`` of the whole
        dataset; peak memory is one shard's columns plus one run.
        """
        from repro.core.index import iter_union_runs

        def groups() -> Iterator[tuple[list[NDArray[Any]], list[NDArray[Any]]]]:
            for shard in self.shards:
                # finally, not close-after-yield: an abandoned generator
                # only runs finally blocks, and an exception mid-read
                # must not leak the open reader.
                try:
                    ips_parts: list[NDArray[Any]] = []
                    hits_parts: list[NDArray[Any]] = []
                    for index in range(self.num_snapshots):
                        ips, hits = shard.columns(index)
                        if ips.size:
                            ips_parts.append(ips)
                            hits_parts.append(hits)
                    yield ips_parts, hits_parts
                finally:
                    shard.close()

        return iter_union_runs(groups())

    def to_dataset(self, *, mmap: bool = True) -> ActivityDataset:
        """Materialize the full in-memory dataset, bit-identically.

        A snapshot's segments cover disjoint ascending address ranges,
        so concatenating them in order yields the legacy sorted column
        (``Snapshot`` re-validates strict ascent).  ``mmap=True`` backs
        the columns with read-only maps instead of copies.
        """
        snapshots: list[Snapshot] = []
        try:
            for index in range(self.num_snapshots):
                snapshots.append(self._snapshot(index, mmap=mmap))
        finally:
            # Readers are released per snapshot range inside the loop;
            # this catches a mid-stream error.
            self.close()
        return ActivityDataset(snapshots)

    def _snapshot(self, index: int, *, mmap: bool) -> Snapshot:
        segments = self.segments_of(index)
        ips_parts: list[NDArray[Any]] = []
        hits_parts: list[NDArray[Any]] = []
        for segment in segments:
            ips, hits = segment.columns(index, mmap=mmap)
            if ips.size:
                ips_parts.append(ips)
                hits_parts.append(hits)
        if segments and index + 1 == segments[0].info.snapshot_stop:
            # The snapshot range is done: release its handles, so a
            # live store holds one commit's segments open, not all.
            for segment in segments:
                segment.close()
        if ips_parts:
            # Materializing is this method's contract:
            ips_col: NDArray[Any] = np.concatenate(ips_parts)  # whole matrix wanted
            hits_col: NDArray[Any] = np.concatenate(hits_parts)  # whole matrix wanted
        else:
            ips_col = np.empty(0, dtype=np.uint32)
            hits_col = np.empty(0, dtype=np.uint64)
        return Snapshot(self.snapshot_start(index), self.window_days, ips_col, hits_col)

    def digest(self) -> str:
        """The dataset SHA-256, computed segment-at-a-time in bounded memory.

        Byte-for-byte the same stream as
        :func:`repro.obs.manifest.dataset_digest` hashes for the
        in-memory dataset: the header line, then per snapshot, per
        column kind, the dtype/size prefix followed by the column
        bytes.  A snapshot's column is split across its segments in
        ascending address order, so feeding each segment's member bytes
        in order reproduces the concatenated column exactly — holding
        only one member in memory at a time.
        """
        digest = hashlib.sha256()
        digest.update(
            f"v1|{self.start.toordinal()}|{self.window_days}|"
            f"{self.num_snapshots}".encode()
        )
        try:
            for index in range(self.num_snapshots):
                segments = self.segments_of(index)
                members = [
                    (segment, index - segment.info.snapshot_start)
                    for segment in segments
                ]
                total = sum(
                    segment.snapshot_sizes()[local] for segment, local in members
                )
                for member_prefix, expected_dtype in (("ips", "<u4"), ("hits", "<u8")):
                    digest.update(f"|{expected_dtype}|{total}|".encode())
                    for segment, local in members:
                        column = segment.reader().array(f"{member_prefix}_{local}")
                        if column.dtype.str != expected_dtype:
                            raise DatasetError(
                                f"bad column dtype in shard {segment.path}: "
                                f"{member_prefix}_{local} is {column.dtype.str}, "
                                f"expected {expected_dtype}"
                            )
                        digest.update(column.data)
                if segments and index + 1 == segments[0].info.snapshot_stop:
                    # The snapshot range is done: release its handles.
                    for segment in segments:
                        segment.close()
        finally:
            # Release every reader even on a mid-stream error (the
            # segments reopen lazily).
            for segment in self.segments:
                segment.close()
        return digest.hexdigest()

    def verify(self) -> None:
        """Re-hash every segment file against its manifest fingerprint."""
        for segment in self.segments:
            try:
                sha256, nbytes = _file_sha256(segment.path)
            except FileNotFoundError as exc:
                raise DatasetError(
                    f"missing store shard file: {segment.path}"
                ) from exc
            if nbytes != segment.info.nbytes or sha256 != segment.info.sha256:
                raise DatasetError(
                    f"store shard fingerprint mismatch: {segment.path} does not "
                    f"match the manifest at {store_manifest_path(self.root)}"
                )

    def manifest_text(self) -> str:
        """The manifest JSON describing this store."""
        segmented = any(s.info.generation is not None for s in self.segments)
        payload = {
            "schema": SEGMENTED_FORMAT_VERSION if segmented else STORE_FORMAT_VERSION,
            "start_ordinal": self.start.toordinal(),
            "window_days": self.window_days,
            "num_snapshots": self.num_snapshots,
            "shard_blocks": self.shard_blocks,
            "num_blocks": self.num_blocks,
            "dataset_sha256": self.dataset_sha256,
            "shards": [segment.info.as_dict() for segment in self.segments],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def close(self) -> None:
        for segment in self.segments:
            segment.close()

    def __enter__(self) -> "DatasetStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @classmethod
    def open(cls, path: str | os.PathLike[str]) -> "DatasetStore":
        """Open and validate the store at directory *path*."""
        root = os.fspath(path)
        manifest_file = store_manifest_path(root)
        try:
            with open(manifest_file, encoding="utf-8") as stream:
                payload = json.load(stream)
        except FileNotFoundError as exc:
            raise DatasetError(
                f"no dataset store at: {root} (missing {STORE_MANIFEST_NAME})"
            ) from exc
        except (json.JSONDecodeError, OSError) as exc:
            raise DatasetError(
                f"corrupt or unreadable store manifest: {manifest_file} ({exc})"
            ) from exc
        if not isinstance(payload, dict):
            raise DatasetError(f"malformed store manifest: {manifest_file}")
        try:
            schema = int(payload["schema"])
            start = datetime.date.fromordinal(int(payload["start_ordinal"]))
            window_days = int(payload["window_days"])
            num_snapshots = int(payload["num_snapshots"])
            shard_blocks = int(payload["shard_blocks"])
            num_blocks = int(payload["num_blocks"])
            dataset_sha256 = str(payload["dataset_sha256"])
            shard_entries = list(payload["shards"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(
                f"malformed store manifest: {manifest_file} ({exc})"
            ) from exc
        if schema not in (STORE_FORMAT_VERSION, SEGMENTED_FORMAT_VERSION):
            raise DatasetError(
                f"unsupported store manifest schema in {manifest_file}: {schema}"
            )
        if window_days < 1 or num_snapshots < 1 or shard_blocks < 1:
            raise DatasetError(f"malformed store manifest: {manifest_file}")
        segmented = schema == SEGMENTED_FORMAT_VERSION
        infos = [
            ShardInfo.from_dict(
                entry, segmented=segmented, num_snapshots=num_snapshots
            )
            for entry in shard_entries
        ]
        _check_segment_table(
            infos,
            manifest_file,
            num_snapshots=num_snapshots,
            num_blocks=num_blocks,
            segmented=segmented,
        )
        store = cls(
            root,
            start=start,
            window_days=window_days,
            num_snapshots=num_snapshots,
            shard_blocks=shard_blocks,
            num_blocks=num_blocks,
            dataset_sha256=dataset_sha256,
            segments=[StoreShard(root, info) for info in infos],
        )
        header = store.header
        for run in store._runs:
            expected = header.segment(run.start, run.stop)
            reference = run.segments[0]
            for segment in run.segments:
                # Validate, then release: a live store has thousands of
                # segments, and a failure must not leak the ones before.
                try:
                    _check_segment(segment, reference, expected, manifest_file)
                finally:
                    segment.close()
        return store


def _check_segment_table(
    infos: Sequence[ShardInfo],
    manifest_file: str,
    *,
    num_snapshots: int,
    num_blocks: int,
    segmented: bool,
) -> None:
    """Validate the manifest rows' ranges (no file is read)."""
    next_snapshot = 0
    span: tuple[int, int] | None = None
    next_block = next_base = 0
    run_blocks: list[int] = []
    for info in infos:
        if (info.snapshot_start, info.snapshot_stop) != span:
            if (
                info.snapshot_start < next_snapshot
                or info.snapshot_stop <= info.snapshot_start
                or info.snapshot_stop > num_snapshots
            ):
                raise DatasetError(
                    f"store manifest at {manifest_file} lists segment "
                    f"{info.name} for snapshots [{info.snapshot_start}, "
                    f"{info.snapshot_stop}) out of order"
                )
            if span is not None:
                run_blocks.append(next_block)
            span = (info.snapshot_start, info.snapshot_stop)
            next_snapshot = info.snapshot_stop
            next_block = next_base = 0
        if info.name != shard_file_name(info.block_start, info.block_stop):
            raise DatasetError(
                f"store manifest at {manifest_file} names shard "
                f"{info.name!r} for block range "
                f"[{info.block_start}, {info.block_stop})"
            )
        if segmented and (info.generation is None or info.generation < 1):
            raise DatasetError(
                f"store manifest at {manifest_file} places segment "
                f"{info.name} in generation {info.generation}"
            )
        if info.block_start != next_block or info.block_stop <= info.block_start:
            raise DatasetError(
                f"store shards do not tile the block range: {info.name} "
                f"starts at block {info.block_start}, expected {next_block}"
            )
        if (
            info.base_lo % _BLOCK_SPAN
            or info.base_hi % _BLOCK_SPAN
            or info.base_lo < next_base
            or info.base_hi - info.base_lo < info.num_blocks * _BLOCK_SPAN
            or info.base_hi > 2**32
        ):
            raise DatasetError(
                f"store shard {info.name} has a malformed address range "
                f"[{info.base_lo:#010x}, {info.base_hi:#010x})"
            )
        next_block = info.block_stop
        next_base = info.base_hi
    run_blocks.append(next_block)
    covered = max(run_blocks)
    if covered > num_blocks or (not segmented and covered != num_blocks):
        raise DatasetError(
            f"store manifest at {manifest_file} declares {num_blocks} "
            f"blocks but its shards cover {covered}"
        )


def _check_segment(
    segment: StoreShard,
    reference: StoreShard,
    expected: StoreHeader,
    manifest_file: str,
) -> None:
    """Validate one segment's header and range members against the manifest."""
    header = segment.header()
    if segment is reference:
        if header != expected:
            raise DatasetError(
                f"store manifest at {manifest_file} declares "
                f"{expected.describe()} but shard {segment.path} "
                f"covers {header.describe()}"
            )
    elif header != reference.header():
        raise DatasetError(
            f"day-range mismatch between shards: {reference.path} "
            f"covers {reference.header().describe()} but "
            f"{segment.path} covers {header.describe()}"
        )
    info = segment.info
    block_range, base_range = segment.ranges()
    if block_range != (info.block_start, info.block_stop) or (
        base_range != (info.base_lo, info.base_hi)
    ):
        raise DatasetError(
            f"store shard {segment.path} records ranges "
            f"{block_range}/{base_range} but the manifest at "
            f"{manifest_file} declares "
            f"({info.block_start}, {info.block_stop})/"
            f"({info.base_lo}, {info.base_hi})"
        )


def _file_sha256(path: str) -> tuple[str, int]:
    """SHA-256 and byte size of the file at *path*, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    nbytes = 0
    with open(path, "rb") as stream:
        while True:
            chunk = stream.read(1 << 20)
            if not chunk:
                break
            digest.update(chunk)
            nbytes += len(chunk)
    return digest.hexdigest(), nbytes


def _checked_bases(bases: NDArray[Any], min_base: int) -> NDArray[np.int64]:
    """A segment's /24 *bases*: non-empty, aligned, strictly ascending, >= *min_base*."""
    base_array = np.asarray(bases, dtype=np.int64)
    if base_array.ndim != 1 or base_array.size == 0:
        raise DatasetError("a store shard must cover at least one /24 block")
    misaligned = base_array[base_array % _BLOCK_SPAN != 0]
    if misaligned.size:
        raise DatasetError(
            f"shard boundary splits a /24: base {int(misaligned[0]):#010x} "
            "is not 256-aligned"
        )
    if base_array.size > 1 and not (base_array[1:] > base_array[:-1]).all():
        raise DatasetError("shard /24 bases must be strictly ascending")
    if int(base_array[0]) < min_base:
        raise DatasetError(
            "shards must be added in ascending address order: base "
            f"{int(base_array[0]):#010x} precedes the previous shard's "
            f"end {min_base:#010x}"
        )
    if int(base_array[0]) < 0 or int(base_array[-1]) >= 2**32:
        raise DatasetError(
            f"shard /24 base out of the IPv4 range: {int(base_array[-1])}"
        )
    return base_array


def _write_segment(
    directory: str,
    header: StoreHeader,
    bases: NDArray[Any],
    columns: Sequence[tuple[NDArray[Any], NDArray[Any]]],
    *,
    block_start: int,
    min_base: int,
    snapshot_start: int,
    generation: int | None,
) -> StoreShard:
    """Validate one segment, write it atomically, and fingerprint it.

    The one write path of both :class:`StoreWriter` and
    :class:`StoreAppender`.  *header* is the segment's own day header
    (its first snapshot, its snapshot count); *columns* holds one
    ``(ips, hits)`` pair per covered snapshot, restricted to the /24
    *bases*.  Raises :class:`DatasetError` on any violation — including
    a boundary that would split a /24.  The returned segment carries
    its header and sizes, so no reader re-parses what was just written.
    """
    base_array = _checked_bases(bases, min_base)
    if len(columns) != header.num_snapshots:
        raise DatasetError(
            f"shard has {len(columns)} columns for "
            f"{header.num_snapshots} snapshots"
        )
    base_lo = int(base_array[0])
    base_hi = int(base_array[-1]) + _BLOCK_SPAN
    block_stop = block_start + int(base_array.size)
    arrays: dict[str, NDArray[Any]] = {
        "version": np.array([_DATASET_VERSION]),
        "start": np.array([header.start.toordinal()]),
        "window_days": np.array([header.window_days]),
        "num_snapshots": np.array([header.num_snapshots]),
        "block_range": np.array([block_start, block_stop], dtype=np.int64),
        "base_range": np.array([base_lo, base_hi], dtype=np.int64),
    }
    sizes: list[int] = []
    for local, (ips, hits) in enumerate(columns):
        index = snapshot_start + local
        ips_col = np.ascontiguousarray(ips, dtype=np.uint32)
        hits_col = np.ascontiguousarray(hits, dtype=np.uint64)
        if ips_col.ndim != 1 or hits_col.shape != ips_col.shape:
            raise DatasetError(
                f"snapshot {index} column shape mismatch in shard "
                f"[{block_start}, {block_stop})"
            )
        if ips_col.size:
            if ips_col.size > 1 and not (ips_col[1:] > ips_col[:-1]).all():
                raise DatasetError(
                    f"snapshot {index} addresses are not strictly "
                    f"ascending in shard [{block_start}, {block_stop})"
                )
            if int(ips_col[0]) < base_lo or int(ips_col[-1]) >= base_hi:
                raise DatasetError(
                    f"snapshot {index} has addresses outside shard range "
                    f"[{base_lo:#010x}, {base_hi:#010x})"
                )
            blocks = (ips_col & np.uint32(0xFFFFFF00)).astype(np.int64)
            positions = np.searchsorted(base_array, blocks)
            if not (base_array[positions] == blocks).all():
                raise DatasetError(
                    f"snapshot {index} has addresses in a /24 outside "
                    f"this shard's block set"
                )
            if int(hits_col.min()) == 0:
                raise DatasetError("active addresses must have at least one hit")
        arrays[f"ips_{local}"] = ips_col
        arrays[f"hits_{local}"] = hits_col
        sizes.append(int(ips_col.size))
    name = shard_file_name(block_start, block_stop)
    path = os.path.join(directory, name)
    atomic_write_npz(path, arrays, compress=False)
    sha256, nbytes = _file_sha256(path)
    info = ShardInfo(
        name=name,
        block_start=block_start,
        block_stop=block_stop,
        base_lo=base_lo,
        base_hi=base_hi,
        sha256=sha256,
        nbytes=nbytes,
        snapshot_start=snapshot_start,
        snapshot_stop=snapshot_start + header.num_snapshots,
        generation=generation,
    )
    obs.add("store_shards_written_total")
    return StoreShard(directory, info, header=header, sizes=sizes)


class StoreWriter:
    """Incremental, constant-memory batch store writer.

    Shards are added one at a time in ascending /24 base order; each
    :meth:`add_shard` writes one segment covering every snapshot.
    :meth:`finalize` computes the streaming dataset digest and writes
    the manifest — which is deleted up front, so a crash mid-build
    leaves "no store here" rather than a manifest pointing at
    half-rewritten shards.
    """

    def __init__(
        self,
        root: str | os.PathLike[str],
        *,
        start: datetime.date,
        window_days: int,
        num_snapshots: int,
        shard_blocks: int,
    ) -> None:
        if window_days < 1:
            raise DatasetError(f"bad window length: {window_days}")
        if num_snapshots < 1:
            raise DatasetError(f"bad snapshot count: {num_snapshots}")
        if shard_blocks < 1:
            raise DatasetError(f"bad shard size: {shard_blocks} blocks")
        self._root = os.fspath(root)
        os.makedirs(self._root, exist_ok=True)
        manifest_file = store_manifest_path(self._root)
        if os.path.exists(manifest_file):
            os.unlink(manifest_file)
        self._header = StoreHeader(start, window_days, num_snapshots)
        self._shard_blocks = shard_blocks
        self._segments: list[StoreShard] = []
        self._next_block = 0
        self._next_base = 0
        self._finalized = False

    @property
    def root(self) -> str:
        return self._root

    def add_shard(
        self,
        bases: NDArray[Any],
        columns: Sequence[tuple[NDArray[Any], NDArray[Any]]],
    ) -> ShardInfo:
        """Write the next shard covering the /24 *bases* (sorted, aligned).

        *columns* holds one ``(ips, hits)`` pair per snapshot,
        restricted to the shard's address range; ``ips`` must be sorted
        strictly ascending ``uint32`` and every address must fall in
        one of *bases*.  Raises :class:`DatasetError` on any violation
        — including a shard boundary that would split a /24.
        """
        if self._finalized:
            raise DatasetError("store already finalized")
        segment = _write_segment(
            self._root,
            self._header,
            bases,
            columns,
            block_start=self._next_block,
            min_base=self._next_base,
            snapshot_start=0,
            generation=None,
        )
        self._segments.append(segment)
        self._next_block = segment.info.block_stop
        self._next_base = segment.info.base_hi
        return segment.info

    def finalize(self) -> DatasetStore:
        """Digest the shards, write the manifest, return the open store."""
        if self._finalized:
            raise DatasetError("store already finalized")
        self._finalized = True
        store = DatasetStore(
            self._root,
            start=self._header.start,
            window_days=self._header.window_days,
            num_snapshots=self._header.num_snapshots,
            shard_blocks=self._shard_blocks,
            num_blocks=self._next_block,
            dataset_sha256="",
            segments=self._segments,
        )
        store.dataset_sha256 = store.digest()
        atomic_write_text(store_manifest_path(self._root), store.manifest_text())
        obs.add("stores_finalized_total")
        return store


#: Commit-protocol phase names passed to a :class:`StoreAppender` hook.
COMMIT_PHASE_FINALIZED = "generation-finalized"
COMMIT_PHASE_FLIPPED = "pointer-flipped"


class StoreAppender:
    """Append one snapshot interval at a time to a **live** store.

    A live store root holds one generation directory per commit plus a
    ``live.json`` pointer naming the committed one::

        <root>/
            live.json                # {"schema": 1, "generation": 2}
            gen_000001/              # commit 1: snapshot 0's segments
                shard_*.npz
            gen_000002/              # commit 2: snapshot 1's segments
                store.manifest.json  #   + a manifest listing both commits'
                shard_*.npz

    :meth:`append` for commit ``k+1`` writes, in this order:

    1. the new column as immutable segments of at most ``shard_blocks``
       /24s each, into ``gen_<k+1>/`` (validated, fsynced, atomically
       renamed, fingerprinted);
    2. ``gen_<k+1>/store.manifest.json`` listing every live segment,
       with the streamed dataset SHA-256 (the one step that reads old
       segments);
    3. the ``live.json`` pointer, atomically — the *only* commit point;
    4. the deletion of ``gen_<k>/store.manifest.json``, which the new
       manifest supersedes (a restart redoes it after a crash here).

    No committed segment is rewritten or deleted, and old segments are
    never reopened for validation: the appender extends its in-memory
    segment table.  A crash at any instant leaves generation ``k`` or
    ``k+1`` committed — never a torn store — and a restarted service
    replays the missed interval into the same (deterministic) bytes,
    atomically overwriting any uncommitted ``gen_<k+1>/`` files.

    The optional *commit_hook* is called with
    :data:`COMMIT_PHASE_FINALIZED` after the new generation's manifest
    lands and :data:`COMMIT_PHASE_FLIPPED` after the pointer flip;
    fault-injection tests use it to kill the process at the
    worst-possible instants.
    """

    def __init__(
        self,
        root: str | os.PathLike[str],
        *,
        start: datetime.date,
        window_days: int,
        shard_blocks: int = 256,
        commit_hook: Callable[[str], None] | None = None,
    ) -> None:
        if window_days < 1:
            raise DatasetError(f"bad window length: {window_days}")
        if shard_blocks < 1:
            raise DatasetError(f"bad shard size: {shard_blocks} blocks")
        self._root = os.fspath(root)
        if os.path.isfile(store_manifest_path(self._root)):
            raise DatasetError(
                f"not a live store: {self._root} holds a plain store manifest"
            )
        os.makedirs(self._root, exist_ok=True)
        self._start = start
        self._window_days = window_days
        self._shard_blocks = shard_blocks
        self._commit_hook = commit_hook
        self._store: DatasetStore | None = None
        self._bases: NDArray[np.int64] = np.empty(0, dtype=np.int64)
        generation = read_live_pointer(self._root)
        self._committed = 0 if generation is None else generation
        if generation is not None:
            store = DatasetStore.open(
                os.path.join(self._root, generation_dir_name(generation))
            )
            try:
                self._check_resumable(store, generation)
                self._bases = store.active_block_bases()
            except BaseException:
                store.close()
                raise
            self._store = store
            # A crash between a pointer flip and the drop leaves one.
            self._drop_superseded_manifest(generation)

    def _check_resumable(self, store: DatasetStore, generation: int) -> None:
        if store.num_snapshots != generation:
            raise DatasetError(
                f"live store at {self._root} points at generation "
                f"{generation} holding {store.num_snapshots} snapshots"
            )
        if (
            store.start != self._start
            or store.window_days != self._window_days
            or store.shard_blocks != self._shard_blocks
        ):
            raise DatasetError(
                f"live store at {self._root} was built with "
                f"start={store.start.isoformat()} "
                f"window_days={store.window_days} "
                f"shard_blocks={store.shard_blocks}; refusing to append "
                f"with start={self._start.isoformat()} "
                f"window_days={self._window_days} "
                f"shard_blocks={self._shard_blocks}"
            )

    @property
    def root(self) -> str:
        return self._root

    @property
    def committed(self) -> int:
        """Number of snapshots in the committed generation (0 = none)."""
        return self._committed

    @property
    def store(self) -> DatasetStore | None:
        """The committed generation's store, or ``None`` before any commit."""
        return self._store

    def _drop_superseded_manifest(self, generation: int) -> None:
        """Delete ``gen_<generation-1>``'s manifest once *generation* is live.

        It lists a prefix of the live manifest's segments and the
        pointer no longer names it; kept, every commit's manifest would
        pile up into disk quadratic in history.  Its segments stay —
        they are live data.
        """
        if generation < 2:
            return
        superseded = store_manifest_path(
            os.path.join(self._root, generation_dir_name(generation - 1))
        )
        try:
            os.unlink(superseded)
        except FileNotFoundError:
            pass

    def _signal(self, phase: str) -> None:
        if self._commit_hook is not None:
            self._commit_hook(phase)

    def append(self, ips: NDArray[Any], hits: NDArray[Any]) -> DatasetStore:
        """Commit snapshot ``committed + 1`` and return the new store.

        *ips*/*hits* are one interval's sorted sparse columns (the
        shapes every snapshot carries).  The commit is crash-safe:
        segments, then the manifest, then the pointer.
        """
        ips_col = np.ascontiguousarray(ips, dtype=np.uint32)
        hits_col = np.ascontiguousarray(hits, dtype=np.uint64)
        if ips_col.ndim != 1 or hits_col.shape != ips_col.shape:
            raise DatasetError("appended snapshot column shape mismatch")
        if ips_col.size > 1 and not (ips_col[1:] > ips_col[:-1]).all():
            raise DatasetError(
                "appended snapshot addresses are not strictly ascending"
            )
        index = self._committed
        generation = index + 1
        gen_dir = os.path.join(self._root, generation_dir_name(generation))
        # A crash before the pointer flip leaves an uncommitted gen_dir;
        # the deterministic retry atomically overwrites its files.
        os.makedirs(gen_dir, exist_ok=True)
        segment_header = StoreHeader(
            self._start, self._window_days, generation
        ).segment(index, generation)
        new_bases = np.unique(ips_col & np.uint32(0xFFFFFF00)).astype(np.int64)
        segments: list[StoreShard] = (
            [] if self._store is None else list(self._store.segments)
        )
        for offset in range(0, int(new_bases.size), self._shard_blocks):
            chunk = new_bases[offset : offset + self._shard_blocks]
            left = int(np.searchsorted(ips_col, int(chunk[0])))
            # Inclusive top address: the exclusive bound overflows uint32.
            right = int(
                np.searchsorted(
                    ips_col, int(chunk[-1]) + _BLOCK_SPAN - 1, side="right"
                )
            )
            segments.append(
                _write_segment(
                    gen_dir,
                    segment_header,
                    chunk,
                    [(ips_col[left:right], hits_col[left:right])],
                    block_start=offset,
                    min_base=0,
                    snapshot_start=index,
                    generation=generation,
                )
            )
        bases = np.union1d(self._bases, new_bases)
        store = DatasetStore(
            gen_dir,
            start=self._start,
            window_days=self._window_days,
            num_snapshots=generation,
            shard_blocks=self._shard_blocks,
            num_blocks=int(bases.size),
            dataset_sha256="",
            segments=segments,
        )
        store.dataset_sha256 = store.digest()
        atomic_write_text(store_manifest_path(gen_dir), store.manifest_text())
        self._signal(COMMIT_PHASE_FINALIZED)
        atomic_write_text(
            live_pointer_path(self._root),
            json.dumps(
                {"schema": LIVE_POINTER_VERSION, "generation": generation},
                sort_keys=True,
            )
            + "\n",
        )
        self._drop_superseded_manifest(generation)
        self._signal(COMMIT_PHASE_FLIPPED)
        self._store = store
        self._bases = bases
        self._committed = generation
        obs.add("store_appends_total")
        return store

    def close(self) -> None:
        if self._store is not None:
            self._store.close()

    def __enter__(self) -> "StoreAppender":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
