"""The inter-process sharing matrix (paper Figure 2a).

``M[i][j]`` is the size in bytes of the sharing set ``SS(i,j) = DS(i) ∩
DS(j)``: the data touched by both process ``i`` and process ``j``.  The
diagonal holds each process's own footprint (``SS(i,i) = DS(i)``), matching
the paper's table.

The matrix is computed exactly from the processes' enumerated data sets;
pairs that touch no common array are skipped, which keeps construction
near-linear for workload mixes whose tasks are data-disjoint.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import UnknownProcessError, ValidationError
from repro.procgraph.process import Process
from repro.util.invalidation import register_worker_state
from repro.util.memo import BoundedDict
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

    Exploits array disjointness: a process pair contributes only if the two
    processes reference at least one common array name.
    """
    processes = list(processes)
    if not processes:
        raise ValidationError("cannot build a sharing matrix for zero processes")
    pids = [p.pid for p in processes]
    if len(set(pids)) != len(pids):
        raise ValidationError("duplicate process ids in sharing-matrix input")
    n = len(processes)
    matrix = np.zeros((n, n), dtype=np.int64)
    data_sets = [p.data_sets() for p in processes]
    element_sizes = [
        {name: spec.element_size for name, spec in p.arrays.items()}
        for p in processes
    ]
    for i in range(n):
        matrix[i, i] = sum(
            len(points) * element_sizes[i][name]
            for name, points in data_sets[i].items()
        )
    # Visit only pairs that actually share an array: walk each array's
    # owner list instead of testing all O(n²) pairs for common names —
    # for data-disjoint task mixes almost every pair shares nothing.
    owners: dict[str, list[int]] = {}
    for i, footprint in enumerate(data_sets):
        for name in footprint:
            owners.setdefault(name, []).append(i)
    for name, holders in owners.items():
        if len(holders) < 2:
            continue
        for a in range(len(holders)):
            i = holders[a]
            points_i = data_sets[i][name]
            size = element_sizes[i][name]
            for b in range(a + 1, len(holders)):
                j = holders[b]
                shared = (
                    _pair_intersection(points_i, data_sets[j][name]) * size
                )
                matrix[i, j] += shared
                matrix[j, i] += shared
    return SharingMatrix(pids, matrix)


#: Pairwise intersection-size memo.  Keys are the operand ids; the entry
#: pins both operands, so an id can never be recycled while its entry is
#: alive.  Point sets are cached on (memoized) processes, so overlapping
#: workload mixes re-request the same pairs once per matrix.
_PAIR_MEMO: BoundedDict = BoundedDict(65536)
register_worker_state(
    __name__, "_PAIR_MEMO", note="content-addressed; values pure in keys"
)


def _pair_intersection(a, b) -> int:
    key = (id(a), id(b)) if id(a) <= id(b) else (id(b), id(a))
    entry = _PAIR_MEMO.get(key)
    if entry is None:
        entry = (a, b, a.intersection_size(b))
        _PAIR_MEMO.put(key, entry)
    return entry[2]


class IncrementalSharingMatrix:
    """A sharing matrix grown application by application.

    The closed-system schedulers compute the full ``n x n`` matrix up
    front; in an open system that front-loads Presburger work for apps
    that have not arrived yet.  This class admits process batches as
    their apps arrive and extends the matrix with only the new-vs-
    resident pairs, reusing the module's pairwise intersection memo —
    admitting ``k`` new processes against ``m`` residents costs
    ``O(k·(m+k))`` sparse pair visits, and pairs already intersected for
    another mix (or an earlier run) are free.

    The entries are exactly the corresponding
    :class:`SharingMatrix` entries: the growth order never changes a
    value, only when it is computed.
    """

    def __init__(self) -> None:
        self._processes: list[Process] = []
        self._index: dict[str, int] = {}
        self._data_sets: list[dict] = []
        self._element_sizes: list[dict[str, int]] = []
        self._owners: dict[str, list[int]] = {}
        self._matrix = np.zeros((0, 0), dtype=np.int64)

    def __contains__(self, pid: str) -> bool:
        return pid in self._index

    def __len__(self) -> int:
        return len(self._processes)

    @property
    def pids(self) -> tuple[str, ...]:
        """Admitted process ids, in admission order."""
        return tuple(p.pid for p in self._processes)

    def admit(self, processes: Sequence[Process]) -> int:
        """Admit a batch (one arriving app); returns how many were new."""
        for process in processes:
            if not isinstance(process, Process):
                raise ValidationError(
                    f"expected a Process, got {type(process).__name__}"
                )
        new = [p for p in processes if p.pid not in self._index]
        if not new:
            return 0
        old_n = len(self._processes)
        n = old_n + len(new)
        matrix = np.zeros((n, n), dtype=np.int64)
        matrix[:old_n, :old_n] = self._matrix
        for offset, process in enumerate(new):
            j = old_n + offset
            data = process.data_sets()
            sizes = {
                name: spec.element_size for name, spec in process.arrays.items()
            }
            matrix[j, j] = sum(
                len(points) * sizes[name] for name, points in data.items()
            )
            for name, points in data.items():
                for i in self._owners.get(name, ()):
                    shared = (
                        _pair_intersection(self._data_sets[i][name], points)
                        * sizes[name]
                    )
                    matrix[i, j] += shared
                    matrix[j, i] += shared
                self._owners.setdefault(name, []).append(j)
            self._processes.append(process)
            self._index[process.pid] = j
            self._data_sets.append(data)
            self._element_sizes.append(sizes)
        self._matrix = matrix
        return len(new)

    def shared(self, pid_a: str, pid_b: str) -> int:
        """``|SS(a,b)|`` in bytes (both pids must be admitted)."""
        try:
            return int(self._matrix[self._index[pid_a], self._index[pid_b]])
        except KeyError as exc:
            raise UnknownProcessError(exc.args[0]) from None

    def affinity(self, last_pid: str | None, ready: Sequence[str]) -> np.ndarray:
        """``M[last][q]`` for each ready ``q`` (zeros when the core is cold)."""
        rows = self._rows_of(ready)
        if last_pid is None:
            return np.zeros(len(rows), dtype=np.int64)
        try:
            last = self._index[last_pid]
        except KeyError:
            raise UnknownProcessError(last_pid) from None
        return self._matrix[last, rows]

    def concurrent_load(
        self, ready: Sequence[str], running: Sequence[str]
    ) -> np.ndarray:
        """``Σ_r M[q][r]`` over running ``r``, for each ready ``q``."""
        rows = self._rows_of(ready)
        cols = self._rows_of(running)
        if not len(cols):
            return np.zeros(len(rows), dtype=np.int64)
        return self._matrix[rows[:, None], cols].sum(axis=1)

    def _rows_of(self, pids: Sequence[str]) -> np.ndarray:
        try:
            return np.fromiter(
                (self._index[pid] for pid in pids), dtype=np.intp, count=len(pids)
            )
        except KeyError as exc:
            raise UnknownProcessError(exc.args[0]) from None

    def snapshot(self) -> SharingMatrix:
        """The admitted processes' matrix as a frozen :class:`SharingMatrix`."""
        return SharingMatrix(self.pids, self._matrix.copy())

    def __repr__(self) -> str:
        return f"IncrementalSharingMatrix({len(self._processes)} processes)"


#: Graph-keyed matrix memo; entries die with their graph.
_MATRIX_CACHE: "weakref.WeakKeyDictionary[ProcessGraph, SharingMatrix]" = (
    weakref.WeakKeyDictionary()
)


def sharing_matrix_for(epg: "ProcessGraph") -> SharingMatrix:
    """The sharing matrix of a whole graph, memoized per graph object.

    LS, LS-static, and LSM each need the identical matrix for the same
    EPG; memoizing here means one experiment (and every campaign cell
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
