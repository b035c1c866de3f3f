"""Population specs: declarative distributions over the scenario space.

The paper's figures enumerate a handful of hand-picked scenarios; a
:class:`PopulationSpec` instead *describes a distribution* over the
registries the scenario model already speaks — weighted mix sizes drawn
from the benchmark pool (the same unordered combinations
:func:`repro.scenarios.n_way_mixes` enumerates), weighted network /
machine / session-variant draws, per-placement instance counts, a
containerization probability, and a seed policy — and
:func:`sample` turns it into a reproducible stream of
:class:`~repro.scenarios.Scenario` values.

Like a scenario, a spec is a frozen value object: it round-trips through
:meth:`PopulationSpec.to_dict` / :meth:`PopulationSpec.from_dict` (the
``fleet`` CLI's JSON format) and has a stable
:meth:`PopulationSpec.content_hash`.

**Sampling guarantees.**  ``sample(spec, n, seed)`` derives one
independent :class:`random.Random` per index from
``sha256(spec_hash : seed : index)``, so

* the same ``(spec, seed)`` yields a byte-identical
  ``content_hash`` sequence in any process on any machine;
* scenario ``i`` never depends on how many scenarios were drawn before
  it — the stream can be sliced, resumed, or generated lazily, and a
  10,000-scenario population never has to materialize in memory;
* any edit to any spec field (and only such an edit) changes the spec
  hash and therefore the whole sample.

Each index also gets its own seed-policy offset
(``seed_offset_base + index * seed_stride``), so two indices that draw
the same mix/network/machine/variant still hash — and therefore run and
cache — as distinct sessions unless ``seed_stride`` is explicitly 0.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from typing import Iterator, Mapping, Optional

from repro.apps.registry import all_benchmarks
from repro.scenarios.config import ExperimentConfig
from repro.scenarios.machines import MACHINE_SPECS
from repro.scenarios.mixes import sample_mix
from repro.scenarios.networks import NETWORKS
from repro.scenarios.scenario import (AGENT_FACTORIES, Placement, Scenario,
                                      SeedPolicy, canonical_hash,
                                      hashed_content, split_agent_name)
from repro.scenarios.variants import SESSION_VARIANTS

__all__ = ["POPULATION_SCHEMA_VERSION", "PopulationSpec", "sample",
           "sample_one"]

#: Bump when the serialized spec layout changes, so stale specs are
#: detectable (the hash itself deliberately excludes it, like Scenario's).
POPULATION_SCHEMA_VERSION = 1

_SPEC_FIELDS = {"schema", "name", "benchmarks", "mix_sizes",
                "instance_counts", "networks", "machines", "variants",
                "containerized", "config", "seed", "agents"}


def _as_weights(value, *, key_type=str) -> tuple[tuple, ...]:
    """Canonicalize a weight table: mapping ``value -> weight``, or a
    sequence of values (equal weights), into a sorted tuple of pairs."""
    if isinstance(value, Mapping):
        items = [(key_type(entry), float(weight))
                 for entry, weight in value.items()]
    elif isinstance(value, (list, tuple)):
        items = []
        for entry in value:
            if isinstance(entry, (list, tuple)) and len(entry) == 2:
                items.append((key_type(entry[0]), float(entry[1])))
            else:
                items.append((key_type(entry), 1.0))
    else:
        raise TypeError(f"cannot interpret {value!r} as a weight table "
                        "(use a mapping value -> weight, or a list of "
                        "values for equal weights)")
    if not items:
        raise ValueError("a weight table needs at least one entry")
    seen = set()
    for entry, weight in items:
        if entry in seen:
            raise ValueError(f"duplicate weight-table entry {entry!r}")
        seen.add(entry)
        if not weight > 0.0 or weight != weight or weight == float("inf"):
            raise ValueError(f"weight for {entry!r} must be a positive "
                             f"finite number, not {weight!r}")
    return tuple(sorted(items))


def _weighted(rng: random.Random, table: tuple[tuple, ...]):
    """One entry of ``table`` drawn with probability proportional to its
    weight.  Always consumes exactly one ``rng.random()`` output, so the
    draw positions of later fields never shift."""
    point = rng.random() * sum(weight for _, weight in table)
    cumulative = 0.0
    for entry, weight in table:
        cumulative += weight
        if point < cumulative:
            return entry
    return table[-1][0]     # floating-point edge: the last entry wins


@dataclass(frozen=True)
class PopulationSpec:
    """A declarative distribution over the scenario registries.

    Weight tables are stored canonically as sorted ``(value, weight)``
    tuples; :meth:`from_dict` also accepts JSON-friendly mappings
    (``{"lan_1gbps": 3, "cellular_5g": 1}``) and plain lists (equal
    weights).  ``config`` is a *partial* :class:`ExperimentConfig` dict
    merged over the base configuration at sampling time, exactly like a
    scenario spec's ``config`` section.
    """

    name: str = "population"
    #: The benchmark pool mixes are drawn from; empty = the full registry.
    benchmarks: tuple[str, ...] = ()
    #: Weighted number of *distinct* benchmarks per mix.
    mix_sizes: tuple = ((1, 1.0),)
    #: Weighted per-placement instance count.
    instance_counts: tuple = ((1, 1.0),)
    networks: tuple = (("lan_1gbps", 1.0),)
    machines: tuple = (("paper", 1.0),)
    variants: tuple = (("default", 1.0),)
    #: Probability that a sampled scenario runs containerized.
    containerized: float = 0.0
    #: Partial ExperimentConfig overrides applied to the base config.
    config: dict = field(default_factory=dict)
    #: Scenario ``i`` gets SeedPolicy(offset=offset_base + i * stride,
    #: base=seed_base); stride 0 makes equal draws collapse into one key.
    seed_base: Optional[int] = None
    seed_offset_base: int = 0
    seed_stride: int = 1
    #: Weighted per-placement agent names (``human``, ``intelligent``,
    #: ``intelligent@K``, ``intelligent#HASH``, ``deskbench[@K]`` — the
    #: scenario agent-name grammar).  The all-human default draws
    #: nothing, so existing spec hashes and sample streams are untouched.
    agents: tuple = (("human", 1.0),)

    def __post_init__(self) -> None:
        object.__setattr__(self, "benchmarks", tuple(self.benchmarks))
        object.__setattr__(self, "mix_sizes",
                           _as_weights(self.mix_sizes, key_type=int))
        object.__setattr__(self, "instance_counts",
                           _as_weights(self.instance_counts, key_type=int))
        object.__setattr__(self, "networks", _as_weights(self.networks))
        object.__setattr__(self, "machines", _as_weights(self.machines))
        object.__setattr__(self, "variants", _as_weights(self.variants))
        object.__setattr__(self, "agents", _as_weights(self.agents))
        object.__setattr__(self, "config", dict(self.config))
        if not self.name:
            raise ValueError("population name must be non-empty")
        known = set(all_benchmarks())
        unknown = [b for b in self.benchmarks if b not in known]
        if unknown:
            raise ValueError(f"unknown benchmarks in pool: {unknown}; "
                             f"known: {sorted(known)}")
        pool_size = len(self.pool())
        for size, _ in self.mix_sizes:
            if not 1 <= size <= pool_size:
                raise ValueError(f"mix size {size} is outside the pool "
                                 f"(1..{pool_size})")
        for count, _ in self.instance_counts:
            if count < 1:
                raise ValueError("instance counts must be at least 1")
        for table, registry, label in (
                (self.networks, NETWORKS, "network"),
                (self.machines, MACHINE_SPECS, "machine"),
                (self.variants, SESSION_VARIANTS, "session variant")):
            for entry, _ in table:
                if entry not in registry:
                    raise ValueError(f"unknown {label} {entry!r}; "
                                     f"known: {sorted(registry)}")
        for name, _ in self.agents:
            base, _, _ = split_agent_name(name)
            if base not in AGENT_FACTORIES:
                raise ValueError(f"unknown agent {base!r}; known: "
                                 f"{', '.join(sorted(AGENT_FACTORIES))}")
        if not 0.0 <= self.containerized <= 1.0:
            raise ValueError("containerized must be a probability in [0, 1]")
        unknown = set(self.config) - set(ExperimentConfig.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config fields {sorted(unknown)}")
        if self.seed_stride < 0:
            raise ValueError("seed_stride must be non-negative")

    def pool(self) -> tuple[str, ...]:
        """The effective benchmark pool (the registry when unspecified)."""
        return self.benchmarks or tuple(all_benchmarks())

    # -- serialization ----------------------------------------------------------------
    def to_dict(self) -> dict:
        """A plain-data form that round-trips through :meth:`from_dict`."""
        data = {
            "schema": POPULATION_SCHEMA_VERSION,
            "name": self.name,
            "benchmarks": list(self.benchmarks),
            "mix_sizes": {str(size): weight
                          for size, weight in self.mix_sizes},
            "instance_counts": {str(count): weight
                                for count, weight in self.instance_counts},
            "networks": dict(self.networks),
            "machines": dict(self.machines),
            "variants": dict(self.variants),
            "containerized": self.containerized,
            "config": dict(self.config),
            "seed": {"base": self.seed_base,
                     "offset_base": self.seed_offset_base,
                     "stride": self.seed_stride},
        }
        # The all-human default is omitted so every pre-agents spec (and
        # its pinned content hash) serializes exactly as it always did.
        if self.agents != (("human", 1.0),):
            data["agents"] = dict(self.agents)
        return data

    @staticmethod
    def from_dict(data: Mapping) -> "PopulationSpec":
        """Rebuild a spec from :meth:`to_dict` output or a hand-written
        JSON spec; every field is optional, unknown fields are rejected."""
        unknown = set(data) - _SPEC_FIELDS
        if unknown:
            raise KeyError(f"unknown population spec fields {sorted(unknown)}")
        seed_data = dict(data.get("seed", {}))
        unknown = set(seed_data) - {"base", "offset_base", "stride"}
        if unknown:
            raise KeyError(f"unknown population seed fields {sorted(unknown)}")
        kwargs = {}
        for spec_field in ("name", "benchmarks", "mix_sizes",
                           "instance_counts", "networks", "machines",
                           "variants", "containerized", "config", "agents"):
            if spec_field in data:
                kwargs[spec_field] = data[spec_field]
        return PopulationSpec(
            seed_base=seed_data.get("base"),
            seed_offset_base=int(seed_data.get("offset_base", 0)),
            seed_stride=int(seed_data.get("stride", 1)),
            **kwargs)

    def content_hash(self) -> str:
        """A stable SHA-256 over the spec's content (schema excluded, as
        for :meth:`Scenario.content_hash`)."""
        return canonical_hash(hashed_content(self.to_dict()))

    def short_hash(self) -> str:
        return self.content_hash()[:12]

    def describe(self) -> str:
        """A short human-readable label for progress output."""
        sizes = "/".join(str(size) for size, _ in self.mix_sizes)
        nets = "/".join(name for name, _ in self.networks)
        return (f"{self.name} [{self.short_hash()}] "
                f"mixes={sizes} nets={nets} pool={len(self.pool())}")


def _index_rng(spec_hash: str, seed: int, index: int) -> random.Random:
    """The independent RNG of sample ``index`` (see the module docstring)."""
    digest = hashlib.sha256(
        f"{spec_hash}:{seed}:{index}".encode("ascii")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def sample_one(spec: PopulationSpec, index: int, seed: int = 0,
               config: Optional[ExperimentConfig] = None,
               _spec_hash: Optional[str] = None) -> Scenario:
    """Scenario ``index`` of the population — independent of every other
    index, so streams can be sliced and resumed freely."""
    base = config or ExperimentConfig()
    if spec.config:
        merged = dict(spec.config)
        if "benchmarks" in merged:
            merged["benchmarks"] = tuple(merged["benchmarks"])
        base = replace(base, **merged)
    rng = _index_rng(_spec_hash or spec.content_hash(), seed, index)
    # Fixed draw order — size, mix, (agent, count) per placement,
    # network, machine, variant, containerized — so a spec edit never
    # shifts unrelated draws within one index (it changes the spec hash,
    # and thus all of them, anyway).  The all-human default skips the
    # agent draw entirely, keeping pre-agents sample streams identical.
    size = _weighted(rng, spec.mix_sizes)
    mix = sample_mix(rng, spec.pool(), size)
    default_agents = spec.agents == (("human", 1.0),)
    placements = tuple(
        Placement(benchmark,
                  agent=("human" if default_agents
                         else _weighted(rng, spec.agents)),
                  count=_weighted(rng, spec.instance_counts))
        for benchmark in mix)
    network = _weighted(rng, spec.networks)
    machine = _weighted(rng, spec.machines)
    variant = _weighted(rng, spec.variants)
    containerized = rng.random() < spec.containerized
    return Scenario(
        placements=placements, config=base, variant=variant,
        machine=machine, containerized=containerized, network=network,
        seed=SeedPolicy(
            offset=spec.seed_offset_base + index * spec.seed_stride,
            base=spec.seed_base))


def sample(spec: PopulationSpec, n: int, seed: int = 0,
           config: Optional[ExperimentConfig] = None) -> Iterator[Scenario]:
    """A reproducible stream of ``n`` scenarios drawn from ``spec``.

    Lazy: scenario ``i`` is constructed when the iterator reaches it, so
    arbitrarily large populations stream through a constant memory
    footprint.  ``config`` is the base experiment configuration (e.g. a
    CLI profile); the spec's partial ``config`` section is merged over
    it.  Same ``(spec, seed, config)`` ⇒ the identical
    ``content_hash`` sequence in any process.
    """
    if n < 0:
        raise ValueError("sample size must be non-negative")
    spec_hash = spec.content_hash()
    for index in range(n):
        yield sample_one(spec, index, seed=seed, config=config,
                         _spec_hash=spec_hash)
