"""Declarative run specifications: one serializable description per run.

A :class:`RunSpec` captures *everything* that determines a simulated
campaign run — cluster geometry, protocol tuning, fault scenarios, node
schedules and the service variant — as frozen dataclasses that
round-trip losslessly through plain JSON.  The motivation (see the
distributed system-level diagnosis literature: a diagnosis campaign is
itself configurable data) is operational: a run you can serialize is a
run you can pickle to a worker pool, shard across machines, cache by
digest, diff, or replay byte-identically.

The pieces:

* :class:`ProtocolSpec` — wraps :class:`~repro.core.config.ProtocolConfig`
  (JSON-native: the isolation mode is a string);
* :class:`ClusterSpec` — substrate geometry (round length, seed,
  channels, trace level);
* :class:`ScenarioSpec` — one fault scenario by registry ``type`` name
  plus its parameter dict; :data:`SCENARIO_REGISTRY` covers every
  scenario class in :mod:`repro.faults.scenarios` and
  :mod:`repro.faults.processes`;
* :class:`ScheduleSpec` — default / static (``exec_after``) / dynamic
  node schedules;
* :class:`VariantSpec` — diagnostic / membership / low-latency service
  and byzantine nodes;
* :class:`RunSpec` — the composition, plus the number of rounds to run
  and an optional named reducer (see :mod:`repro.spec.reducers`).

``RunSpec.digest()`` is a stable content hash of the canonical JSON
form; the executor stamps it into the metrics registry so merged
observability reports name the exact runs that produced them.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Optional, Tuple, Type, Union

from ..core.config import IsolationMode, ProtocolConfig
from ..core.diagnostic import TRACE_ALL
from ..faults import channels as _channels
from ..faults import processes as _processes
from ..faults import scenarios as _scenarios
from ..faults.scenarios import SerializableScenario
from ..tt.cluster import PAPER_ROUND_LENGTH

#: Schema tag stamped into serialized RunSpecs; bump on layout changes.
RUNSPEC_SCHEMA = "repro-runspec/2"

#: Schema 1 still reads: its variant carried two execution-strategy
#: knobs that never changed a result, dropped on read whatever their
#: values.
_RUNSPEC_SCHEMA_1 = "repro-runspec/1"
_SCHEMA_1_VARIANT_KNOBS = ("bitset", "fast_path")

#: The RunSpec sections that must be JSON objects.
_OBJECT_SECTIONS = ("protocol", "cluster", "schedule", "variant")

#: Known execution backends for :attr:`RunSpec.backend`.
BACKENDS = ("event", "vectorized")

#: Every serializable scenario class, by its ``type`` tag.
SCENARIO_REGISTRY: Dict[str, Type[SerializableScenario]] = {
    cls.__name__: cls
    for module in (_scenarios, _processes, _channels)
    for cls in vars(module).values()
    if isinstance(cls, type)
    and issubclass(cls, SerializableScenario)
    and cls.__module__ == module.__name__
    and hasattr(cls, "directives")
}


def _json_canonical(value: Any) -> Any:
    """Normalise ``value`` to JSON-native types (tuples become lists)."""
    return json.loads(json.dumps(value))


def _int(owner: str, name: str, value: Any) -> int:
    """``value`` as an ``int``; a bool or a non-integer is a ValueError.

    Spec fields are checked where they are read, so a malformed spec
    fails when it is parsed (HTTP 400 / exit 2), not when it is built.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{owner}.{name} must be an integer, got {value!r}")
    return int(value)


def _real(owner: str, name: str, value: Any) -> None:
    """Raise ValueError unless ``value`` is a number (bools are not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{owner}.{name} must be a number, got {value!r}")


def _field_values(spec: Any) -> Dict[str, Any]:
    """A flat spec dataclass's fields as a dict, in field order."""
    return {f.name: getattr(spec, f.name) for f in fields(spec)}


@dataclass(frozen=True)
class ProtocolSpec:
    """Serializable mirror of :class:`~repro.core.config.ProtocolConfig`.

    Field semantics are identical to the config's; the only differences
    are representational: ``criticalities`` is a tuple and
    ``isolation_mode`` is the enum *value* string (``"ignore"`` /
    ``"observe"``) so the spec survives JSON.
    """

    n_nodes: int
    penalty_threshold: int
    reward_threshold: int
    criticalities: Tuple[int, ...]
    all_send_curr_round: bool = False
    startup_rounds: int = 1
    isolation_mode: str = IsolationMode.IGNORE.value
    halt_on_self_isolation: Optional[bool] = None
    reintegration_reward_threshold: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("n_nodes", "penalty_threshold", "reward_threshold",
                     "startup_rounds"):
            object.__setattr__(self, name,
                               _int("protocol", name, getattr(self, name)))
        if self.reintegration_reward_threshold is not None:
            _int("protocol", "reintegration_reward_threshold",
                 self.reintegration_reward_threshold)
        object.__setattr__(self, "criticalities", tuple(
            _int("protocol", "criticalities", c) for c in self.criticalities))
        IsolationMode(self.isolation_mode)  # validates the string
        self.to_config()  # delegate the full range checks to the config

    @classmethod
    def from_config(cls, config: ProtocolConfig) -> "ProtocolSpec":
        """The spec describing an existing protocol configuration."""
        return cls(
            n_nodes=config.n_nodes,
            penalty_threshold=config.penalty_threshold,
            reward_threshold=config.reward_threshold,
            criticalities=tuple(config.criticalities),
            all_send_curr_round=config.all_send_curr_round,
            startup_rounds=config.startup_rounds,
            isolation_mode=config.isolation_mode.value,
            halt_on_self_isolation=config.halt_on_self_isolation,
            reintegration_reward_threshold=config.reintegration_reward_threshold,
        )

    def to_config(self) -> ProtocolConfig:
        """The live :class:`ProtocolConfig` this spec describes."""
        return ProtocolConfig(
            n_nodes=self.n_nodes,
            penalty_threshold=self.penalty_threshold,
            reward_threshold=self.reward_threshold,
            criticalities=list(self.criticalities),
            all_send_curr_round=self.all_send_curr_round,
            startup_rounds=self.startup_rounds,
            isolation_mode=IsolationMode(self.isolation_mode),
            halt_on_self_isolation=self.halt_on_self_isolation,
            reintegration_reward_threshold=self.reintegration_reward_threshold,
        )


@dataclass(frozen=True)
class ClusterSpec:
    """Substrate geometry: the :class:`~repro.tt.cluster.Cluster` knobs."""

    round_length: float = PAPER_ROUND_LENGTH
    tx_fraction: float = 0.8
    seed: int = 0
    n_channels: int = 1
    trace_level: int = TRACE_ALL

    def __post_init__(self) -> None:
        _real("cluster", "round_length", self.round_length)
        _real("cluster", "tx_fraction", self.tx_fraction)
        for name in ("seed", "n_channels", "trace_level"):
            _int("cluster", name, getattr(self, name))
        if self.round_length <= 0:
            raise ValueError("round_length must be positive")
        if not 0.0 < self.tx_fraction < 1.0:
            raise ValueError("tx_fraction must be in (0, 1)")
        if self.n_channels < 1:
            raise ValueError("n_channels must be >= 1")


@dataclass(frozen=True)
class ScenarioSpec:
    """One fault scenario: registry ``type`` tag plus its parameters.

    ``params`` is exactly what the scenario's ``spec_params`` returns;
    :meth:`build` rebuilds the live scenario, resolving any
    ``rng_stream`` name against a cluster's random streams.

    ``params`` is a plain dict, but it is never mutated after
    construction (``build`` and every reader copy or only read it).
    :meth:`RunSpec.full_digest` relies on this: it hashes a spec once
    and keeps the digest on the frozen instance.
    """

    type: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.type not in SCENARIO_REGISTRY:
            raise ValueError(
                f"unknown scenario type {self.type!r}; known: "
                f"{sorted(SCENARIO_REGISTRY)}")
        if not isinstance(self.params, dict):
            raise ValueError(
                f"scenario params must be an object, got "
                f"{type(self.params).__name__}")
        object.__setattr__(self, "params", _json_canonical(self.params))

    @classmethod
    def from_scenario(cls, scenario: SerializableScenario) -> "ScenarioSpec":
        """The spec describing a live scenario (via its ``to_dict``)."""
        data = scenario.to_dict()
        return cls(type=data.pop("type"), params=data)

    def build(self, streams=None) -> SerializableScenario:
        """Rebuild the live scenario this spec describes."""
        scenario_cls = SCENARIO_REGISTRY[self.type]
        return scenario_cls.from_dict({"type": self.type, **self.params},
                                      streams=streams)


_SCHEDULE_KINDS = ("default", "static", "dynamic")


@dataclass(frozen=True)
class ScheduleSpec:
    """Node schedule policy: library default, static ``l_i``, or dynamic.

    ``exec_after`` (static only) is either one position applied to every
    node or a per-node tuple, mirroring ``DiagnosedCluster(exec_after=...)``.
    """

    kind: str = "default"
    exec_after: Optional[Union[int, Tuple[int, ...]]] = None

    def __post_init__(self) -> None:
        if self.kind not in _SCHEDULE_KINDS:
            raise ValueError(
                f"schedule kind must be one of {_SCHEDULE_KINDS}, "
                f"got {self.kind!r}")
        if self.exec_after is not None:
            if self.kind != "static":
                raise ValueError("exec_after requires kind='static'")
            if isinstance(self.exec_after, (list, tuple)):
                object.__setattr__(self, "exec_after", tuple(
                    _int("schedule", "exec_after", p)
                    for p in self.exec_after))
            else:
                _int("schedule", "exec_after", self.exec_after)
        elif self.kind == "static":
            raise ValueError("kind='static' requires exec_after")


_SERVICES = ("diagnostic", "membership", "lowlatency")


@dataclass(frozen=True)
class VariantSpec:
    """Which protocol variant runs.

    ``service`` selects the per-node service class;
    ``lowlatency_membership`` enables the membership flavour of the
    Sec. 10 low-latency variant; ``byzantine_nodes`` lists nodes
    broadcasting random syndromes.
    """

    service: str = "diagnostic"
    lowlatency_membership: bool = False
    byzantine_nodes: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.service not in _SERVICES:
            raise ValueError(
                f"service must be one of {_SERVICES}, got {self.service!r}")
        object.__setattr__(self, "byzantine_nodes", tuple(
            _int("variant", "byzantine_nodes", b)
            for b in self.byzantine_nodes))
        if self.lowlatency_membership and self.service != "lowlatency":
            raise ValueError(
                "lowlatency_membership requires service='lowlatency'")
        if self.byzantine_nodes and self.service == "lowlatency":
            raise ValueError(
                "byzantine_nodes are not supported by the lowlatency service")


@dataclass(frozen=True)
class RunSpec:
    """The complete, serializable description of one simulated run.

    ``n_rounds`` is how long :func:`repro.spec.execute` drives the
    cluster; ``reducer`` optionally names a registered reducer (see
    :mod:`repro.spec.reducers`) that turns the finished cluster into
    the run's result value.
    """

    protocol: ProtocolSpec
    cluster: ClusterSpec = ClusterSpec()
    schedule: ScheduleSpec = ScheduleSpec()
    variant: VariantSpec = VariantSpec()
    scenarios: Tuple[ScenarioSpec, ...] = ()
    n_rounds: int = 0
    reducer: Optional[str] = None
    #: Execution backend: "event" (discrete-event engine, the oracle) or
    #: "vectorized" (numpy round kernel, bit-identical observables).  The
    #: backend never changes *what* is computed, only *how*, so it is
    #: excluded from digests: results cached from one backend satisfy
    #: requests made with the other.
    backend: str = "event"

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        if _int("RunSpec", "n_rounds", self.n_rounds) < 0:
            raise ValueError("n_rounds must be >= 0")
        if self.reducer is not None and not isinstance(self.reducer, str):
            raise ValueError(
                f"RunSpec.reducer must be a string, got {self.reducer!r}")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.variant.service == "lowlatency":
            if self.schedule.kind != "default":
                raise ValueError(
                    "the lowlatency service manages its own schedules; "
                    "use schedule kind 'default'")
        n = self.protocol.n_nodes
        exec_after = self.schedule.exec_after
        if exec_after is None:
            positions: Tuple[int, ...] = ()
        elif isinstance(exec_after, tuple):
            if len(exec_after) != n:
                raise ValueError(
                    f"schedule.exec_after must be one position or {n} "
                    f"(one per node), got {len(exec_after)}")
            positions = exec_after
        else:
            positions = (exec_after,)
        if any(not 0 <= p <= n for p in positions):
            raise ValueError(
                f"schedule.exec_after positions must be in 0..{n}, got "
                f"{exec_after!r}")
        if any(not 1 <= b <= n for b in self.variant.byzantine_nodes):
            raise ValueError(
                f"variant.byzantine_nodes must be node ids in 1..{n}, got "
                f"{list(self.variant.byzantine_nodes)}")

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _plain_dict(self) -> Dict[str, Any]:
        """The fields as nested plain containers, schema-tagged.

        Everything :meth:`to_dict` holds except the backend, in the same
        key order, built by an explicit field mapping (no deep copy);
        tuples stay tuples, which JSON renders as arrays.
        """
        return {
            "protocol": _field_values(self.protocol),
            "cluster": _field_values(self.cluster),
            "schedule": _field_values(self.schedule),
            "variant": _field_values(self.variant),
            "scenarios": [{"type": s.type, "params": s.params}
                          for s in self.scenarios],
            "n_rounds": self.n_rounds,
            "reducer": self.reducer,
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native nested dict (schema-tagged, lossless).

        The default backend is omitted so specs written before the
        backend field existed round-trip byte-identically.
        """
        data = self._plain_dict()
        if self.backend != "event":
            data["backend"] = self.backend
        data["spec"] = RUNSPEC_SCHEMA
        return _json_canonical(data)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Schema 1 specs still read: their ``variant.bitset`` and
        ``variant.fast_path`` knobs are dropped, since both values
        computed the same run.  Any other spec carrying them is
        rejected.  A section of the wrong JSON type is a
        :class:`ValueError`, like every other malformed field.
        """
        data = dict(data)
        schema = data.pop("spec", RUNSPEC_SCHEMA)
        if schema not in (RUNSPEC_SCHEMA, _RUNSPEC_SCHEMA_1):
            raise ValueError(
                f"unsupported spec schema {schema!r}: this build reads "
                f"{RUNSPEC_SCHEMA!r} and {_RUNSPEC_SCHEMA_1!r} specs; "
                f"re-emit the spec with "
                f"`repro-diag spec` from the matching version")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown RunSpec fields {unknown}")
        for name in _OBJECT_SECTIONS:
            if not isinstance(data.get(name, {}), dict):
                raise ValueError(
                    f"RunSpec field {name!r} must be an object, got "
                    f"{type(data[name]).__name__}")
        scenarios = data.get("scenarios", [])
        if not (isinstance(scenarios, (list, tuple))
                and all(isinstance(s, dict) for s in scenarios)):
            raise ValueError("RunSpec field 'scenarios' must be a list "
                             "of objects")
        variant = data.get("variant", {})
        dropped = [k for k in _SCHEMA_1_VARIANT_KNOBS if k in variant]
        if dropped:
            if schema != _RUNSPEC_SCHEMA_1:
                raise ValueError(
                    f"variant.{dropped[0]} was removed in "
                    f"{RUNSPEC_SCHEMA!r}: it never changed a result; "
                    f"drop the field")
            variant = {k: v for k, v in variant.items() if k not in dropped}
        exec_after = data.get("schedule", {}).get("exec_after")
        if isinstance(exec_after, list):
            data["schedule"] = dict(data["schedule"],
                                    exec_after=tuple(exec_after))
        return cls(
            protocol=ProtocolSpec(**data["protocol"]),
            cluster=ClusterSpec(**data.get("cluster", {})),
            schedule=ScheduleSpec(**data.get("schedule", {})),
            variant=VariantSpec(**variant),
            scenarios=tuple(ScenarioSpec(**s) for s in scenarios),
            n_rounds=data.get("n_rounds", 0),
            reducer=data.get("reducer"),
            backend=data.get("backend", "event"),
        )

    def to_json(self) -> str:
        """Stable JSON rendering (sorted keys, indent 2, newline)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        """Parse a spec previously rendered with :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def full_digest(self) -> str:
        """Untruncated sha256 hex digest of the canonical JSON form.

        This is the collision-resistant identity the result store keys
        payloads by; :meth:`digest` is its 12-hex prefix, kept short for
        display and metrics labels.  The execution backend is *not*
        hashed: both backends compute the same observables, so a stored
        event-engine result is a valid answer for a vectorized request
        and vice versa.

        The digest is computed once per instance and memoised on it: the
        spec is frozen and its scenario params are never mutated (see
        :class:`ScenarioSpec`).  ``dataclasses.replace`` builds a new
        instance, so a changed spec is hashed afresh.
        """
        digest = self.__dict__.get("_full_digest")
        if digest is None:
            # One dump of the plain fields gives the bytes of dumping
            # to_dict() without its backend: tuples and lists render
            # alike, and every dict key is a string (scenario params
            # are JSON-canonical since construction), so sort_keys
            # orders them as it would after a JSON round trip.
            data = self._plain_dict()
            data["spec"] = RUNSPEC_SCHEMA
            canonical = json.dumps(data, sort_keys=True,
                                   separators=(",", ":"))
            digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_full_digest", digest)
        return digest

    def digest(self) -> str:
        """Stable 12-hex-digit content hash (prefix of :meth:`full_digest`)."""
        return self.full_digest()[:12]

    def with_updates(self, **changes) -> "RunSpec":
        """A copy of the spec with the given fields replaced."""
        return replace(self, **changes)


__all__ = [
    "RUNSPEC_SCHEMA",
    "BACKENDS",
    "SCENARIO_REGISTRY",
    "ProtocolSpec",
    "ClusterSpec",
    "ScenarioSpec",
    "ScheduleSpec",
    "VariantSpec",
    "RunSpec",
]
