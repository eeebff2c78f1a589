"""The compiled LRU kernel: built on first use, loaded with :mod:`ctypes`.

``_lru.c`` beside this module is an exact true-LRU, write-allocate cache
kernel over one core's tag state in flat arrays (:class:`KernelState`),
with two entry points: run a whole trace, and run a budgeted quantum
from a start index.  :func:`kernel` compiles it with the system C
compiler the first time a simulator run asks for it — never at import —
into a per-user cache keyed by the source hash and the platform, and
loads it with :mod:`ctypes`: no third-party dependency, no Python
headers.  With no compiler :func:`kernel` returns ``None``; a compiler
that fails warns once and also returns ``None``.  Either way the
simulator keeps its Python engines, so a missing kernel never fails a
run.

The scalar :class:`~repro.cache.sa_cache.SetAssociativeCache` stays the
oracle: ``tests/test_native_kernel.py`` compares every kernel call's
counters and the full end tag state (:meth:`KernelState.export_state`)
against it.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from repro.cache.fast_engine import CacheState
from repro.cache.geometry import CacheGeometry
from repro.errors import ValidationError
from repro.util.invalidation import register_worker_state

SOURCE = Path(__file__).with_name("_lru.c")

#: Flags of every build.  No ``-march=native``: the per-user cache may be
#: shared by machines with different instruction sets.
CFLAGS = ("-O2", "-shared", "-fPIC")

#: Compilers tried in order when the library is not cached yet.
COMPILERS = ("cc", "gcc", "clang")

#: ``(hits, misses, write_hits, write_misses, dirty_evictions)``.
Counters = tuple[int, int, int, int, int]

_library: ctypes.CDLL | None = None
_loaded = False
register_worker_state(
    __name__,
    "_library",
    note="set once per process on first use; a forked worker inherits it",
)
register_worker_state(__name__, "_loaded", note="set once with _library")


def cache_dir() -> Path:
    """Where built libraries live: ``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro``."""
    root = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(root) / "repro"


def library_path() -> Path:
    """The cached library for this source, platform and flag set."""
    tag = f"{sys.platform}-{platform.machine()}"
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update(" ".join((tag, *CFLAGS)).encode())
    return cache_dir() / f"lru-{tag}-{digest.hexdigest()[:16]}.so"


def _build(compiler: str, target: Path) -> None:
    """Compile into a temp file beside ``target``, then rename it in place,
    so concurrent builders never load a torn library."""
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, temp = tempfile.mkstemp(
        prefix=f".{target.stem}-", suffix=".so", dir=target.parent
    )
    os.close(fd)
    try:
        done = subprocess.run(
            [compiler, *CFLAGS, "-o", temp, str(SOURCE)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if done.returncode != 0:
            raise OSError(
                f"{compiler} exited with {done.returncode}: "
                f"{done.stderr.strip()[-400:]}"
            )
        os.replace(temp, target)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)


def _load() -> ctypes.CDLL | None:
    try:
        path = library_path()
        if not path.exists():
            compiler = next(filter(None, map(shutil.which, COMPILERS)), None)
            if compiler is None:
                return None
            _build(compiler, path)
        library = ctypes.CDLL(str(path))
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        warnings.warn(
            f"compiled LRU kernel unavailable, using the Python cache "
            f"engines: {exc}",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    address, i64, i32 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_int32
    state = (address, address, address, i64, i32)
    library.lru_run_trace.argtypes = (*state, address, address, i64, address)
    library.lru_run_trace.restype = None
    library.lru_run_budget.argtypes = (
        *state, address, address, address, i64, i64, i64, i64, address, address
    )
    library.lru_run_budget.restype = i64
    return library


def kernel() -> ctypes.CDLL | None:
    """The loaded kernel library, built on the first call; None if unavailable."""
    global _library, _loaded
    if not _loaded:
        _library = _load()
        _loaded = True
    return _library


def _address(array: np.ndarray) -> int:
    return int(array.ctypes.data)


class KernelTrace:
    """A trace in the kernel's input layout, its array addresses taken once.

    Contiguous int64 ``lines``, one byte per ``writes`` flag and the
    int64 per-access cost floor ``base`` that budgeted runs charge
    (whole-trace runs ignore it).  Taking an array's address costs
    microseconds, as much as a short quantum itself, so callers cache
    these per trace.
    """

    __slots__ = ("num_accesses", "lines", "writes", "base", "addresses")

    def __init__(
        self, lines: np.ndarray, writes: np.ndarray, base: np.ndarray
    ) -> None:
        self.lines = np.ascontiguousarray(lines, dtype=np.int64)
        self.writes = np.ascontiguousarray(writes, dtype=np.bool_)
        self.base = np.ascontiguousarray(base, dtype=np.int64)
        self.num_accesses = len(self.lines)
        if not len(self.writes) == len(self.base) == self.num_accesses:
            raise ValidationError("kernel trace arrays have mismatched lengths")
        self.addresses = (
            _address(self.lines),
            _address(self.writes),
            _address(self.base),
        )

    def __reduce__(self) -> tuple[type[KernelTrace], tuple[object, ...]]:
        # Addresses are per process: a copy or an unpickled trace must
        # take its own.
        return KernelTrace, (self.lines, self.writes, self.base)


class KernelState:
    """One core's tag state in the kernel's flat arrays.

    ``ways`` holds each set's resident lines MRU-first, ``fill`` the
    valid ways per set and ``dirty`` a flag per way.  In a simulator run
    it is authoritative for its core; the core's
    :class:`~repro.cache.sa_cache.SetAssociativeCache` only accumulates
    statistics.
    """

    __slots__ = (
        "num_sets", "assoc", "ways", "dirty", "fill", "_library", "_args", "_out",
        "_counters_address", "_used_address",
    )

    def __init__(self, library: ctypes.CDLL, geometry: CacheGeometry) -> None:
        self.num_sets = geometry.num_sets
        self.assoc = geometry.associativity
        self.ways = np.zeros(self.num_sets * self.assoc, dtype=np.int64)
        self.dirty = np.zeros(self.num_sets * self.assoc, dtype=np.uint8)
        self.fill = np.zeros(self.num_sets, dtype=np.int32)
        self._library = library
        # The five counters, then the cycles a budgeted run used.
        self._out = np.zeros(6, dtype=np.int64)
        self._counters_address = _address(self._out)
        self._used_address = self._counters_address + 5 * self._out.itemsize
        self._args = (
            _address(self.ways),
            _address(self.dirty),
            _address(self.fill),
            self.num_sets - 1,
            self.assoc,
        )

    def run_trace(self, trace: KernelTrace) -> Counters:
        """Run a whole trace; returns the call's counters."""
        lines, writes, _ = trace.addresses
        self._library.lru_run_trace(
            *self._args, lines, writes, trace.num_accesses, self._counters_address
        )
        hits, misses, write_hits, write_misses, dirty_evictions, _ = (
            self._out.tolist()
        )
        return hits, misses, write_hits, write_misses, dirty_evictions

    def run_budget(
        self, trace: KernelTrace, start: int, miss_extra: int, budget: int
    ) -> tuple[int, int, Counters]:
        """Run from ``start`` until ``budget`` cycles are spent.

        Same stop rule as :meth:`SetAssociativeCache.run_budget_rows`;
        returns ``(next_index, cycles_used, counters)``.
        """
        lines, writes, base = trace.addresses
        if not 0 <= start <= trace.num_accesses:
            raise ValidationError(f"start index {start} out of range")
        next_index = self._library.lru_run_budget(
            *self._args, lines, writes, base, start, trace.num_accesses,
            miss_extra, budget, self._counters_address, self._used_address,
        )
        hits, misses, write_hits, write_misses, dirty_evictions, used = (
            self._out.tolist()
        )
        return (
            next_index,
            used,
            (hits, misses, write_hits, write_misses, dirty_evictions),
        )

    def export_state(self) -> CacheState:
        """An immutable snapshot of the tag state, as the oracle exports it."""
        rows = self.ways.reshape(self.num_sets, self.assoc).tolist()
        flags = self.dirty.reshape(self.num_sets, self.assoc).tolist()
        sets: list[tuple[int, ...]] = []
        dirty: set[int] = set()
        for ways, marks, count in zip(rows, flags, self.fill.tolist()):
            sets.append(tuple(ways[:count]))
            dirty.update(line for line, mark in zip(ways[:count], marks) if mark)
        return CacheState(sets=tuple(sets), dirty=frozenset(dirty))
