"""The generic plugin registry behind the :mod:`repro.api` facade.

A :class:`Registry` is an ordered ``name -> value`` table with decorator
registration, discovery (:meth:`Registry.names`, :meth:`Registry.entries`),
and unknown-name errors that enumerate the valid names and suggest the
nearest match.  The concrete scheduler/workload/machine registries in
:mod:`repro.api.registries` are instances of this one class, so a
third-party plugin registers the same way a builtin does — the only
difference is the ``origin`` tag shown by ``python -m repro list``.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Callable, Generic, TypeVar

from repro.errors import RegistryError, UnknownEntryError
from repro.util.invalidation import bump_worker_state_epoch

T = TypeVar("T")

#: Registered names must be CLI-safe: they appear in comma-separated
#: flag lists and (for workloads) in ``name:N`` references, so commas,
#: colons, and whitespace are excluded.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.+-]*$")


@dataclass(frozen=True)
class RegistryEntry(Generic[T]):
    """One registered value plus the metadata discovery tools show."""

    name: str
    value: T
    description: str = ""
    origin: str = "plugin"  # "builtin" for the paper's own entries


class Registry(Generic[T]):
    """An ordered, discoverable ``name -> value`` table.

    Entries keep registration order (builtins register in paper order,
    plugins append), which is the order discovery and ``repro list``
    report them in.
    """

    def __init__(self, kind: str) -> None:
        #: Human-readable singular noun used in error messages
        #: ("scheduler", "workload", "machine preset").
        self.kind = kind
        self._entries: dict[str, RegistryEntry[T]] = {}

    # -- registration --------------------------------------------------------

    def register(
        self,
        name: str,
        value: T | None = None,
        *,
        description: str = "",
        origin: str = "plugin",
        overwrite: bool = False,
    ) -> "T | Callable[[T], T]":
        """Register ``value`` under ``name``; usable as a decorator.

        With ``value`` omitted, returns a decorator that registers the
        decorated object and hands it back unchanged.  Re-registering a
        taken name is an error unless ``overwrite=True`` — silently
        shadowing a builtin is exactly the kind of spooky action a
        plugin system must refuse.
        """
        if value is None:
            def decorate(obj: T) -> T:
                self.register(
                    name,
                    obj,
                    description=description,
                    origin=origin,
                    overwrite=overwrite,
                )
                return obj

            return decorate
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise RegistryError(
                f"invalid {self.kind} name {name!r}: names must match "
                f"{_NAME_RE.pattern} (they appear in CLI comma lists and "
                f"'name:N' references)"
            )
        if name in self._entries and not overwrite:
            raise RegistryError(
                f"{self.kind} {name!r} is already registered "
                f"(origin: {self._entries[name].origin}); pass "
                f"overwrite=True to replace it"
            )
        if not description:
            description = _first_doc_line(value)
        self._entries[name] = RegistryEntry(
            name=name, value=value, description=description, origin=origin
        )
        # Forked campaign workers snapshot the registries at pool
        # creation; a registration after that must retire the pool.
        bump_worker_state_epoch()
        return value

    def unregister(self, name: str) -> None:
        """Remove an entry (plugin teardown, tests)."""
        self.get_entry(name)  # raise the helpful error on unknown names
        del self._entries[name]
        bump_worker_state_epoch()

    # -- lookup and discovery ------------------------------------------------

    def get_entry(self, name: str) -> RegistryEntry[T]:
        """The full entry for ``name``; raises :class:`UnknownEntryError`."""
        try:
            return self._entries[name]
        except (KeyError, TypeError):
            raise UnknownEntryError(self.kind, name, self.names()) from None

    def get(self, name: str) -> T:
        """The registered value for ``name``."""
        return self.get_entry(name).value

    def names(self) -> list[str]:
        """Registered names, in registration order."""
        return list(self._entries)

    def entries(self) -> list[RegistryEntry[T]]:
        """All entries, in registration order."""
        return list(self._entries.values())

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {self.names()!r})"


def _first_doc_line(value: object) -> str:
    doc = getattr(value, "__doc__", None)
    if not doc:
        return ""
    return doc.strip().splitlines()[0].rstrip(".")
