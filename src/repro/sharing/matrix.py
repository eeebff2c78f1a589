"""The inter-process sharing matrix (paper Figure 2a).

``M[i][j]`` is the size in bytes of the sharing set ``SS(i,j) = DS(i) ∩
DS(j)``: the data touched by both process ``i`` and process ``j``.  The
diagonal holds each process's own footprint (``SS(i,i) = DS(i)``), matching
the paper's table.

One builder computes every entry exactly from the processes' enumerated
data sets: :meth:`IncrementalSharingMatrix.admit` makes one pass per array
over the sorted ``DS`` columns of all the array's holders
(:func:`_intersection_block`), and :func:`compute_sharing_matrix` is its
one-batch case.  Processes that touch no common array never meet, which
keeps construction near-linear for workload mixes whose tasks are
data-disjoint.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import UnknownProcessError, ValidationError
from repro.procgraph.process import Process
from repro.util.tables import format_matrix

if TYPE_CHECKING:
    from repro.procgraph.graph import ProcessGraph


class SharingMatrix:
    """Symmetric matrix of pairwise shared bytes between processes."""

    def __init__(self, pids: Sequence[str], matrix: np.ndarray) -> None:
        pids = tuple(pids)
        matrix = np.asarray(matrix, dtype=np.int64)
        if matrix.shape != (len(pids), len(pids)):
            raise ValidationError(
                f"matrix shape {matrix.shape} does not match {len(pids)} pids"
            )
        if not np.array_equal(matrix, matrix.T):
            raise ValidationError("sharing matrix must be symmetric")
        if (matrix < 0).any():
            raise ValidationError("sharing cannot be negative")
        self._pids = pids
        self._index = {pid: i for i, pid in enumerate(pids)}
        self._matrix = matrix
        self._matrix.setflags(write=False)

    @property
    def pids(self) -> tuple[str, ...]:
        """Process ids, in matrix order."""
        return self._pids

    @property
    def matrix(self) -> np.ndarray:
        """The raw (read-only) byte matrix."""
        return self._matrix

    def index_of(self, pid: str) -> int:
        """Row/column index of a process."""
        if pid not in self._index:
            raise UnknownProcessError(pid)
        return self._index[pid]

    def shared(self, pid_a: str, pid_b: str) -> int:
        """``|SS(a,b)|`` in bytes."""
        return int(self._matrix[self.index_of(pid_a), self.index_of(pid_b)])

    def footprint(self, pid: str) -> int:
        """The process's own footprint (the diagonal entry)."""
        i = self.index_of(pid)
        return int(self._matrix[i, i])

    def best_partner(
        self, pid: str, candidates: Sequence[str]
    ) -> tuple[str | None, int]:
        """The candidate with maximum sharing with ``pid``.

        Ties go to the earliest in ``candidates`` order.

        Returns ``(None, 0)`` when ``candidates`` is empty.
        """
        i = self.index_of(pid)
        if not candidates:
            return None, 0
        values = self._matrix[i, [self.index_of(c) for c in candidates]]
        best = int(np.argmax(values))  # the first maximum
        return candidates[best], int(values[best])

    def render(self, title: str = "Sharing matrix (bytes)") -> str:
        """ASCII rendering in the style of Figure 2(a)."""
        return format_matrix(
            self._matrix.tolist(), list(self._pids), list(self._pids), title=title
        )

    def __repr__(self) -> str:
        return f"SharingMatrix({len(self._pids)} processes)"


def compute_sharing_matrix(processes: Sequence[Process]) -> SharingMatrix:
    """Build the exact sharing matrix for a set of processes.

    The processes are admitted as one batch, in order, so the matrix rows
    follow ``processes``.
    """
    processes = list(processes)
    if not processes:
        raise ValidationError("cannot build a sharing matrix for zero processes")
    sharing = IncrementalSharingMatrix()
    sharing.admit(processes)
    return sharing.snapshot()


_ONE = np.uint64(1)
_BITS = np.arange(64, dtype=np.uint64)


def _intersection_block(columns: Sequence[np.ndarray]) -> np.ndarray:
    """``|c_a ∩ c_b|`` for every pair of sorted, distinct int64 columns.

    Exact in int64 for any values and any number of columns, in one pass:

    1. each column splits into maximal runs of consecutive values (data
       sets are nearly contiguous, so runs are few);
    2. a sweep over the sorted run boundaries tags every value with the
       *pattern* of columns that hold it, a bit mask of ``ceil(h/64)``
       words, and counts how many values carry each distinct pattern;
    3. the block is ``incidenceᵀ · (counts × incidence)`` over the
       distinct patterns, an integer product; its diagonal is each
       column's length.

    A boundary coordinate ``x`` tags ``x`` itself with the runs covering
    it and the open gap up to the next boundary with the runs still open
    after ``x``, so no run end is ever incremented past int64.
    """
    h = len(columns)
    lengths = np.fromiter((len(c) for c in columns), dtype=np.intp, count=h)
    if not lengths.any():
        return np.zeros((h, h), dtype=np.int64)
    values = np.concatenate(columns)
    holder = np.repeat(np.arange(h), lengths)
    # A difference that wraps is never 1, so the runs stay exact near
    # the int64 limits.
    cut = (np.diff(values) != 1) | (holder[1:] != holder[:-1])
    first = np.concatenate(([True], cut))
    last = np.concatenate((cut, [True]))
    coords = np.concatenate((values[first], values[last]))
    who = np.concatenate((holder[first], holder[last]))
    is_stop = np.arange(len(coords)) >= np.count_nonzero(first)
    order = np.argsort(coords, kind="stable")
    coords, who, is_stop = coords[order], who[order], is_stop[order]
    heads = np.flatnonzero(np.concatenate(([True], coords[1:] != coords[:-1])))
    bit = _ONE << (who % 64).astype(np.uint64)
    word = who // 64
    at = np.empty((len(heads), (h + 63) // 64), dtype=np.uint64)
    after = np.empty_like(at)
    for w in range(at.shape[1]):
        mine = np.where(word == w, bit, 0)
        starts = np.bitwise_xor.reduceat(np.where(is_stop, 0, mine), heads)
        stops = np.bitwise_xor.reduceat(np.where(is_stop, mine, 0), heads)
        after[:, w] = np.bitwise_xor.accumulate(starts ^ stops)
        at[:, w] = after[:, w] ^ stops
    # Gaps between boundaries, exact as unsigned differences.
    edges = coords[heads].view(np.uint64)
    gaps = np.zeros(len(heads), dtype=np.uint64)
    gaps[:-1] = edges[1:] - edges[:-1] - _ONE
    patterns = np.concatenate((at, after))
    counts = np.concatenate((np.ones(len(heads), dtype=np.uint64), gaps))
    # A gap held by some column has at most that column's length.
    keep = patterns.any(axis=1) & (counts > 0)
    patterns, counts = patterns[keep], counts[keep].astype(np.int64)
    order = np.lexsort(patterns.T)
    patterns, counts = patterns[order], counts[order]
    distinct = np.flatnonzero(
        np.concatenate(([True], (patterns[1:] != patterns[:-1]).any(axis=1)))
    )
    counts = np.add.reduceat(counts, distinct)
    incidence = (
        ((patterns[distinct, :, None] >> _BITS) & _ONE)
        .reshape(len(distinct), -1)[:, :h]
        .astype(np.int64)
    )
    return incidence.T @ (incidence * counts[:, None])


class IncrementalSharingMatrix:
    """A sharing matrix grown batch by batch; the only sharing builder.

    :meth:`admit` makes one :func:`_intersection_block` pass per array
    the batch touches, over every holder admitted so far, and writes the
    new processes' rows and columns; resident x resident entries keep
    their values.  Whatever the batches and their order, every entry
    equals the corresponding :func:`compute_sharing_matrix` entry, which
    is this class's one-batch case.
    """

    def __init__(self) -> None:
        self._pids: list[str] = []
        self._index: dict[str, int] = {}
        #: Per array: its element size (the first holder's declaration),
        #: and each holder's matrix row and sorted ``DS`` column.
        self._holders: dict[str, tuple[int, list[int], list[np.ndarray]]] = {}
        self._matrix = np.zeros((0, 0), dtype=np.int64)

    def __contains__(self, pid: str) -> bool:
        return pid in self._index

    def __len__(self) -> int:
        return len(self._pids)

    @property
    def pids(self) -> tuple[str, ...]:
        """Admitted process ids, in admission order."""
        return tuple(self._pids)

    def admit(self, processes: Sequence[Process]) -> int:
        """Admit a batch of processes; returns how many were new."""
        for process in processes:
            if not isinstance(process, Process):
                raise ValidationError(
                    f"expected a Process, got {type(process).__name__}"
                )
        new = [p for p in processes if p.pid not in self._index]
        if len({p.pid for p in new}) != len(new):
            raise ValidationError("duplicate process ids in sharing-matrix input")
        if not new:
            return 0
        # Enumerate every data set before any state changes, so a batch
        # whose analysis raises leaves the matrix as it was.
        data_sets = [process.data_sets() for process in new]
        resident = len(self._pids)
        touched: dict[str, None] = {}
        for row, (process, data) in enumerate(zip(new, data_sets), start=resident):
            self._index[process.pid] = row
            self._pids.append(process.pid)
            arrays = process.arrays
            for name, points in data.items():
                _, rows, columns = self._holders.setdefault(
                    name, (arrays[name].element_size, [], [])
                )
                rows.append(row)
                columns.append(points.flat())
                touched[name] = None
        n = len(self._pids)
        matrix = np.zeros((n, n), dtype=np.int64)
        matrix[:resident, :resident] = self._matrix
        for name in touched:
            size, rows, columns = self._holders[name]
            block = _intersection_block(columns) * size
            # Rows are in admission order: the residents come first.
            old = np.searchsorted(rows, resident)
            block[:old, :old] = 0
            matrix[np.ix_(rows, rows)] += block
        self._matrix = matrix
        return len(new)

    def shared(self, pid_a: str, pid_b: str) -> int:
        """``|SS(a,b)|`` in bytes (both pids must be admitted)."""
        try:
            return int(self._matrix[self._index[pid_a], self._index[pid_b]])
        except KeyError as exc:
            raise UnknownProcessError(exc.args[0]) from None

    def snapshot(self) -> SharingMatrix:
        """The admitted processes' matrix as a frozen :class:`SharingMatrix`."""
        return SharingMatrix(self.pids, self._matrix.copy())

    def __repr__(self) -> str:
        return f"IncrementalSharingMatrix({len(self._pids)} processes)"


#: Graph-keyed matrix memo; entries die with their graph.
_MATRIX_CACHE: "weakref.WeakKeyDictionary[ProcessGraph, SharingMatrix]" = (
    weakref.WeakKeyDictionary()
)


def sharing_matrix_for(epg: "ProcessGraph") -> SharingMatrix:
    """The sharing matrix of a whole graph, memoized per graph object.

    LS, LA, LS-static, and LSM each need the identical matrix for the
    same EPG; memoizing here means one experiment (and every campaign cell
    sharing a memoized workload graph) computes it once.  The matrix is
    immutable and the cache is weak, so sharing it is safe and the entry
    vanishes with the graph.  A graph that gained processes since the
    cached computation (the pid tuple is the validity check) is simply
    recomputed.

    Graphs carrying a deterministic ``content_identity`` (campaign
    workloads — see
    :func:`repro.campaign.spec.build_campaign_workload`) additionally
    persist their matrix in the shared memo store when one is
    configured, so fresh processes skip the computation entirely.
    """
    matrix = _MATRIX_CACHE.get(epg)
    if matrix is not None and matrix.pids == epg.pids:
        return matrix
    from repro.cache.store import active_memo_store, fingerprint_key

    store = active_memo_store()
    identity = getattr(epg, "content_identity", None)
    store_key = None
    if store is not None and identity is not None:
        store_key = fingerprint_key(identity)
        payload = store.get_sharing(store_key)
        if payload is not None:
            pids, raw = payload
            if pids == epg.pids:  # stale identity collisions recompute
                matrix = SharingMatrix(pids, raw)
                _MATRIX_CACHE[epg] = matrix
                return matrix
    matrix = compute_sharing_matrix(epg.processes())
    _MATRIX_CACHE[epg] = matrix
    if store_key is not None:
        store.put_sharing(store_key, matrix.pids, matrix.matrix)
    return matrix
