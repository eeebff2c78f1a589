"""JSON-lines result store: append-only, resumable, corruption-tolerant.

Each completed cell is appended as one JSON object keyed by its
``cell_key``.  A campaign that dies mid-run (worker crash, Ctrl-C,
power loss mid-write) leaves at worst one truncated trailing line;
:meth:`ResultStore.load` skips lines that do not parse, so ``--resume``
re-runs exactly the missing cells and nothing else.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.errors import CampaignError

if TYPE_CHECKING:
    from repro.campaign.executor import RunResult
    from repro.campaign.failures import CellFailure


class ResultStore:
    """One campaign's completed cells, one JSON object per line."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    @classmethod
    def default_path(cls, spec_hash: str, root: str | Path = ".repro-campaign") -> Path:
        """Where a campaign stores results unless told otherwise."""
        return Path(root) / f"{spec_hash}.jsonl"

    def exists(self) -> bool:
        """True when the store file is present on disk."""
        return self.path.exists()

    def clear(self) -> None:
        """Drop previous results (fresh, non-resumed run).

        A non-empty store is renamed to ``<name>.bak`` (replacing any
        older backup) rather than unlinked, so forgetting ``--resume``
        cannot silently destroy hours of completed cells.
        """
        if not self.path.exists():
            return
        if self.path.stat().st_size > 0:
            self.path.replace(self.path.with_name(self.path.name + ".bak"))
        else:
            self.path.unlink()

    def _records(self) -> "Iterable[dict]":
        """Every parseable JSON object line, in file order.

        Corrupt or truncated lines (a partially-written tail after a
        crash) are skipped rather than fatal — that is the property that
        makes ``--resume`` safe after any failure.
        """
        if not self.path.exists():
            return
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(data, dict):
                yield data

    def load(self) -> dict[str, "RunResult"]:
        """All parseable results, keyed by cell key; last write wins.

        Quarantine records (``"failure": true`` lines) are deliberately
        *not* results: a failed key stays absent, so a resumed campaign
        re-attempts exactly the quarantined cells.
        """
        from repro.campaign.executor import RunResult

        results: dict[str, RunResult] = {}
        for data in self._records():
            if data.get("failure"):
                continue
            try:
                result = RunResult.from_dict(data)
            except (KeyError, TypeError, ValueError):
                continue
            results[result.key] = result
        return results

    def load_failures(self) -> dict[str, "CellFailure"]:
        """Quarantined cells whose *latest* record is still a failure.

        A later success line supersedes an earlier failure for the same
        key (the resume repair pass appends successes without rewriting
        history), so this reports only the cells still needing repair.
        """
        from repro.campaign.failures import CellFailure

        failures: dict[str, CellFailure] = {}
        for data in self._records():
            key = data.get("key")
            if not isinstance(key, str):
                continue
            if data.get("failure"):
                try:
                    failures[key] = CellFailure.from_dict(data)
                except (KeyError, TypeError, ValueError):
                    continue
            else:
                failures.pop(key, None)
        return failures

    def _append_record(self, record: dict[str, object]) -> None:
        """Durably append one JSON record.

        If a previous crash left a torn final line with no newline, a
        separator is inserted first so the new record cannot be glued
        onto (and lost with) the corrupt tail.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a+b") as handle:
            handle.seek(0, 2)
            if handle.tell() > 0:
                handle.seek(-1, 2)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
            handle.write((json.dumps(record) + "\n").encode("utf-8"))
            handle.flush()

    def append(self, result: "RunResult") -> None:
        """Durably append one completed cell."""
        self._append_record(result.to_dict())

    def append_failure(self, failure: "CellFailure") -> None:
        """Durably append one quarantined cell's failure record."""
        self._append_record(failure.to_dict())

    def __repr__(self) -> str:
        return f"ResultStore({str(self.path)!r})"


def as_store(store: "ResultStore | str | Path | None") -> "ResultStore | None":
    """Coerce a user-supplied store argument."""
    if store is None or isinstance(store, ResultStore):
        return store
    if isinstance(store, (str, Path)):
        return ResultStore(store)
    raise CampaignError(f"expected a ResultStore or path, got {store!r}")
