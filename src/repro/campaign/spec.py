"""Declarative campaign specifications.

A *campaign* is the paper's evaluation shape made explicit: the cross
product of workloads, machine variants, schedulers, and seeds.  The spec
layer is purely declarative — every element is a frozen dataclass of
primitives, so a spec can be hashed (for result-store keying), serialized
to JSON (for spec files), and pickled (for the multiprocessing executor)
without ever touching a simulator.

``CampaignSpec.expand()`` flattens the product into :class:`RunSpec`
cells; :mod:`repro.campaign.executor` turns each cell into one
simulation, and :class:`~repro.api.engine.Engine` runs the cells.

Workloads, schedulers, and machine presets resolve through the open
registries in :mod:`repro.api.registries`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping

from repro.api.registries import MACHINES, SCHEDULERS, WORKLOADS, WorkloadFactory
from repro.errors import CampaignError, UnknownEntryError
from repro.procgraph.graph import ExtendedProcessGraph
from repro.procgraph.task import Task
from repro.sched.base import Scheduler
from repro.sim.arrivals import ArrivalSpec
from repro.sim.config import MachineConfig
from repro.util.invalidation import register_worker_state
from repro.util.memo import BoundedDict
from repro.util.rng import derive_seed


def _canonical(obj: object) -> str:
    """Stable JSON encoding used for hashes and cell keys."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _pairs(mapping: Mapping[str, object]) -> tuple[tuple[str, object], ...]:
    """A hashable, order-insensitive view of a keyword mapping."""
    return tuple(sorted(mapping.items()))


# -- workload references ----------------------------------------------------------


def parse_workload_ref(ref: str) -> tuple[str, int | None]:
    """Validate a workload reference; returns ``(kind, count)``.

    A reference names a :data:`~repro.api.registries.WORKLOADS` entry:
    either plainly (``"MxM"`` — ``kind`` comes back as ``"app"``) or,
    for parameterized families, as ``"name:N"`` (``"mix:3"``,
    ``"random-mix:4"`` — ``kind`` is the family name).  Unknown names
    raise a :class:`CampaignError` that enumerates every registered
    workload and suggests the nearest match.
    """
    factory = _workload_factory(ref)
    base, sep, arg = ref.partition(":")
    if not factory.parameterized:
        return ("app", None)
    if not sep:
        raise CampaignError(
            f"workload {base!r} is a parameterized family; reference it "
            f"as '{factory.ref_syntax()}' (e.g. '{base}:2')"
        )
    try:
        count = int(arg)
    except ValueError:
        raise CampaignError(f"malformed workload reference {ref!r}") from None
    upper = factory.max_count
    if count < 1 or (upper is not None and count > upper):
        bound = str(upper) if upper is not None else "inf"
        raise CampaignError(f"{ref!r}: count must be in [1, {bound}]")
    return (base, count)


def _workload_factory(ref: str) -> WorkloadFactory:
    """Resolve a reference's registry entry (shared validation path)."""
    if not isinstance(ref, str):
        raise CampaignError(f"workload reference must be a string, got {ref!r}")
    base, sep, _ = ref.partition(":")
    try:
        factory = WORKLOADS.get(base)
    except UnknownEntryError as exc:
        raise CampaignError(str(exc)) from None
    if sep and not factory.parameterized:
        raise CampaignError(
            f"workload {base!r} does not take a ':N' count (got {ref!r})"
        )
    return factory


def workload_seed_sensitive(ref: str) -> bool:
    """Whether the cell seed changes the workload a reference builds.

    The executor's cell memo puts the seed in its key when this holds,
    so it must stay conservative: plugin workloads default to
    seed-sensitive unless they were registered with
    ``seed_sensitive=False``.
    """
    return _workload_factory(ref).seed_sensitive


#: (ref, scale, effective seed) → frozen EPG memo.  One campaign cell
#: per scheduler otherwise rebuilds the same deterministic workload —
#: including its enumerated iteration spaces and data sets — once per
#: cell; sharing the graph object lets every derived cache (data sets,
#: sharing matrices, built traces) amortize across the whole grid.
_WORKLOAD_MEMO: BoundedDict = BoundedDict(32)
register_worker_state(
    __name__, "_WORKLOAD_MEMO", note="content-addressed; values pure in keys"
)


def build_campaign_workload(
    ref: str, scale: float = 1.0, seed: int = 0
) -> ExtendedProcessGraph:
    """Instantiate the EPG a workload reference names (memoized, frozen).

    The reference resolves through the
    :data:`~repro.api.registries.WORKLOADS` registry, so plugin
    workloads build through the exact same path as the Table-1 suite.
    The returned graph is shared between cells and therefore frozen;
    callers needing a mutable graph should build one through
    :mod:`repro.workloads.suite` (or their registered builder) directly.
    """
    _, count = parse_workload_ref(ref)
    factory = _workload_factory(ref)
    key = (ref, float(scale), seed if factory.seed_sensitive else None)
    epg = _WORKLOAD_MEMO.get(key)
    if epg is None:
        built = factory.build(count=count, scale=scale, seed=seed)
        if isinstance(built, Task):
            built = ExtendedProcessGraph.from_tasks([built])
        if not isinstance(built, ExtendedProcessGraph):
            raise CampaignError(
                f"workload {ref!r} built {type(built).__name__}, expected "
                f"an ExtendedProcessGraph or a Task"
            )
        epg = built
        # The memo key doubles as the graph's deterministic content
        # identity: builders are pure functions of it, which is what
        # lets derived results (sharing matrices, campaign cells)
        # persist across processes in the shared memo store.  Builtin
        # workloads only: a plugin's builder code can change between
        # sessions without changing its reference, so nothing derived
        # from it may outlive the process.
        base = ref.partition(":")[0]
        if WORKLOADS.get_entry(base).origin == "builtin":
            epg.content_identity = key
        epg.freeze()
        _WORKLOAD_MEMO.put(key, epg)
    return epg


# -- machine variants -------------------------------------------------------------


@dataclass(frozen=True)
class MachineVariant:
    """A named delta against the Table-2 machine.

    Only the overridden fields are stored, so the variant stays readable
    in spec files and the hash does not change when unrelated
    :class:`MachineConfig` defaults gain new fields.
    """

    name: str = "paper"
    overrides: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        valid = {f.name for f in fields(MachineConfig)}
        for field_name, _ in self.overrides:
            if field_name not in valid:
                raise CampaignError(
                    f"machine variant {self.name!r} overrides unknown "
                    f"MachineConfig field {field_name!r}"
                )
        # Canonicalize contention parameters to the sorted-pair form the
        # config itself uses, so the variant stays hashable (memo keys)
        # and a dict-passing caller hashes identically to a JSON round
        # trip of the same variant.
        # Validate the values too (MachineConfig's own checks), so a bad
        # variant fails at spec time, not mid-campaign at its first cell.
        from repro.errors import ReproError

        try:
            if any(name == "contention_params" for name, _ in self.overrides):
                from repro.sim.contention import normalize_contention_params

                object.__setattr__(
                    self,
                    "overrides",
                    tuple(
                        (name, normalize_contention_params(value))
                        if name == "contention_params"
                        else (name, value)
                        for name, value in self.overrides
                    ),
                )
            self.build()
        except ReproError as exc:
            raise CampaignError(
                f"machine variant {self.name!r} is invalid: {exc}"
            ) from exc

    @classmethod
    def from_overrides(cls, name: str, **overrides: object) -> "MachineVariant":
        """Build a variant from keyword overrides."""
        return cls(name=name, overrides=_pairs(overrides))

    @classmethod
    def from_config(cls, name: str, config: MachineConfig) -> "MachineVariant":
        """Capture an existing config as a variant (diff vs. Table 2)."""
        default = MachineConfig.paper_default()
        diffs = {
            f.name: getattr(config, f.name)
            for f in fields(MachineConfig)
            if getattr(config, f.name) != getattr(default, f.name)
        }
        return cls.from_overrides(name, **diffs)

    def build(self) -> MachineConfig:
        """Materialize the :class:`MachineConfig`."""
        return MachineConfig.paper_default().with_overrides(**dict(self.overrides))

    def to_dict(self) -> dict[str, object]:
        return {"name": self.name, "overrides": dict(self.overrides)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "MachineVariant":
        if isinstance(data, str):
            return resolve_machine_preset(data)
        overrides = data.get("overrides", {})
        if not isinstance(overrides, Mapping):
            raise CampaignError(
                f"machine variant {data.get('name')!r}: 'overrides' must be a "
                f"JSON object mapping MachineConfig fields to values, "
                f"got {type(overrides).__name__}"
            )
        return cls.from_overrides(data["name"], **overrides)


def _preset_variant(
    name: str, overrides: tuple[tuple[str, object], ...]
) -> MachineVariant:
    """Wrap a registry preset (override pairs) into a validated variant."""
    return MachineVariant(name=name, overrides=tuple(overrides))


def resolve_machine_preset(name: str) -> MachineVariant:
    """Look up a preset in the :data:`~repro.api.registries.MACHINES` registry."""
    try:
        overrides = MACHINES.get(name)
    except UnknownEntryError as exc:
        raise CampaignError(str(exc)) from None
    return _preset_variant(name, overrides)


# -- scheduler specs --------------------------------------------------------------


@dataclass(frozen=True)
class SchedulerSpec:
    """One scheduling strategy, optionally parameterized and relabelled."""

    name: str
    params: tuple[tuple[str, object], ...] = ()
    label: str | None = None

    def __post_init__(self) -> None:
        try:
            SCHEDULERS.get(self.name)
        except UnknownEntryError as exc:
            raise CampaignError(str(exc)) from None

    @classmethod
    def of(
        cls, name: str, label: str | None = None, **params: object
    ) -> "SchedulerSpec":
        """Build a spec from keyword params."""
        return cls(name=name, params=_pairs(params), label=label)

    @property
    def effective_label(self) -> str:
        """The column label results are reported under."""
        return self.label if self.label is not None else self.name

    def build(self, seed: int) -> Scheduler:
        """Instantiate the scheduler for one cell."""
        try:
            return SCHEDULERS.get(self.name)(seed, **dict(self.params))
        except TypeError as exc:
            raise CampaignError(
                f"bad params {dict(self.params)!r} for scheduler "
                f"{self.name!r}: {exc}"
            ) from exc

    def to_dict(self) -> dict[str, object]:
        data: dict[str, object] = {"name": self.name}
        if self.params:
            data["params"] = dict(self.params)
        if self.label is not None:
            data["label"] = self.label
        return data

    @classmethod
    def from_dict(cls, data: Mapping | str) -> "SchedulerSpec":
        if isinstance(data, str):
            return cls(name=data)
        return cls.of(
            data["name"], label=data.get("label"), **data.get("params", {})
        )


#: The paper's four strategies in legend order, as campaign specs.
DEFAULT_SCHEDULERS: tuple[SchedulerSpec, ...] = (
    SchedulerSpec("RS"),
    SchedulerSpec("RRS"),
    SchedulerSpec("LS"),
    SchedulerSpec("LSM"),
)


# -- run cells --------------------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """One cell of the campaign grid: fully declarative, picklable.

    ``arrival=None`` is the paper's closed batch (everything at t=0);
    an :class:`~repro.sim.arrivals.ArrivalSpec` switches the cell to the
    open-system regime — applications arrive over time and the result
    carries response-time metrics.
    """

    workload: str
    machine: MachineVariant
    scheduler: SchedulerSpec
    seed: int
    scale: float = 1.0
    arrival: ArrivalSpec | None = None

    def cell_key(self) -> str:
        """Stable identifier for the result store.

        Human-readable prefix plus a fingerprint of the parts the prefix
        cannot disambiguate (machine overrides, scheduler params, and —
        for open cells only — the arrival params; closed cells keep
        their historical keys bit for bit).
        """
        parts: dict[str, object] = {
            "machine": dict(self.machine.overrides),
            "scheduler": [self.scheduler.name, dict(self.scheduler.params)],
        }
        prefix = ""
        if self.arrival is not None:
            parts["arrival"] = self.arrival.to_dict()
            prefix = f"{self.arrival.effective_label}|"
        fingerprint = hashlib.sha256(
            _canonical(parts).encode("utf-8")
        ).hexdigest()[:8]
        return (
            f"{self.workload}|{self.machine.name}|"
            f"{self.scheduler.effective_label}|{prefix}seed={self.seed}|"
            f"scale={self.scale}|{fingerprint}"
        )

    def derived_seed(self, *labels: str | int) -> int:
        """A per-cell child seed for any auxiliary randomness.

        The scheduler itself receives the cell's ``seed`` directly (so a
        one-cell campaign reproduces ``MPSoCSimulator.run`` bit for bit);
        use this for extra streams that must decorrelate across cells.
        """
        return derive_seed(
            self.seed,
            self.workload,
            self.machine.name,
            self.scheduler.effective_label,
            *labels,
        )


# -- the campaign -----------------------------------------------------------------


@dataclass(frozen=True)
class CampaignSpec:
    """The declarative cross product the executor expands and runs.

    ``arrivals`` is the optional fifth axis: each
    :class:`~repro.sim.arrivals.ArrivalSpec` turns every cell into an
    open-system run (empty — the default — keeps the classic closed
    grid, with spec hashes unchanged).
    """

    workloads: tuple[str, ...]
    machines: tuple[MachineVariant, ...] = (MachineVariant(),)
    schedulers: tuple[SchedulerSpec, ...] = DEFAULT_SCHEDULERS
    seeds: tuple[int, ...] = (0,)
    scale: float = 1.0
    name: str = "campaign"
    arrivals: tuple[ArrivalSpec, ...] = ()

    def __post_init__(self) -> None:
        if not (self.workloads and self.machines and self.schedulers and self.seeds):
            raise CampaignError(
                "campaign needs at least one workload, machine, scheduler, and seed"
            )
        if self.scale <= 0:
            raise CampaignError(f"scale must be positive, got {self.scale}")
        for ref in self.workloads:
            parse_workload_ref(ref)
        for axis, values in (
            ("workload", self.workloads),
            ("machine", [m.name for m in self.machines]),
            ("scheduler", [s.effective_label for s in self.schedulers]),
            ("seed", self.seeds),
            ("arrival", [a.effective_label for a in self.arrivals]),
        ):
            if len(set(values)) != len(values):
                raise CampaignError(
                    f"duplicate {axis} entries would collide in the result "
                    f"store: {list(values)}"
                )

    @property
    def num_cells(self) -> int:
        """Size of the expanded grid."""
        return (
            len(self.workloads)
            * len(self.machines)
            * len(self.schedulers)
            * len(self.seeds)
            * max(1, len(self.arrivals))
        )

    def expand(self) -> list[RunSpec]:
        """Flatten the cross product, workload-major, in declaration order."""
        return [
            RunSpec(
                workload=workload,
                machine=machine,
                scheduler=scheduler,
                seed=seed,
                scale=self.scale,
                arrival=arrival,
            )
            for workload in self.workloads
            for machine in self.machines
            for arrival in (self.arrivals or (None,))
            for scheduler in self.schedulers
            for seed in self.seeds
        ]

    def to_dict(self) -> dict[str, object]:
        data: dict[str, object] = {
            "name": self.name,
            "scale": self.scale,
            "workloads": list(self.workloads),
            "machines": [m.to_dict() for m in self.machines],
            "schedulers": [s.to_dict() for s in self.schedulers],
            "seeds": list(self.seeds),
        }
        # Only open-system campaigns serialize the axis, so every
        # pre-existing spec (and its store-keying hash) is unchanged.
        if self.arrivals:
            data["arrivals"] = [a.to_dict() for a in self.arrivals]
        return data

    def spec_hash(self) -> str:
        """Short stable digest keying the default result store."""
        return hashlib.sha256(
            _canonical(self.to_dict()).encode("utf-8")
        ).hexdigest()[:12]

    @classmethod
    def from_dict(cls, data: Mapping) -> "CampaignSpec":
        known = {
            "name", "scale", "workloads", "machines", "schedulers", "seeds",
            "arrivals",
        }
        unknown = set(data) - known
        if unknown:
            # a typo'd axis name would otherwise silently run the default
            # grid in its place — hours of compute on the wrong experiment
            raise CampaignError(
                f"unknown campaign spec keys {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        try:
            workloads = tuple(data["workloads"])
        except KeyError:
            raise CampaignError("campaign spec needs a 'workloads' list") from None
        machines = tuple(
            MachineVariant.from_dict(m) for m in data.get("machines", [{"name": "paper"}])
        )
        schedulers = tuple(
            SchedulerSpec.from_dict(s)
            for s in data.get("schedulers", [s.name for s in DEFAULT_SCHEDULERS])
        )
        try:
            seeds = tuple(int(s) for s in data.get("seeds", [0]))
            scale = float(data.get("scale", 1.0))
        except (TypeError, ValueError) as exc:
            raise CampaignError(f"bad campaign spec value: {exc}") from exc
        arrivals = tuple(
            ArrivalSpec.from_dict(a) for a in data.get("arrivals", [])
        )
        return cls(
            workloads=workloads,
            machines=machines,
            schedulers=schedulers,
            seeds=seeds,
            scale=scale,
            name=str(data.get("name", "campaign")),
            arrivals=arrivals,
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "CampaignSpec":
        """Load a JSON spec file."""
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CampaignError(f"cannot read campaign spec {path}: {exc}") from exc
        if not isinstance(data, Mapping):
            raise CampaignError(f"campaign spec {path} must be a JSON object")
        return cls.from_dict(data)
