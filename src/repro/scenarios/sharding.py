"""Sharded, checkpointed scenario execution for week-scale replays.

:class:`ShardedScenarioRunner` splits a scenario's epoch stream into
fixed-size *chunks* (e.g. one day of 1-minute epochs) and checkpoints
every chunk's :class:`~repro.scenarios.backends.EpochReport` list,
together with the backend ``snapshot()`` taken at the chunk's end,
through a content-addressed result cache. Chunk ``k`` restores chunk
``k-1``'s snapshot before stepping its own epochs, so in-flight flows,
wavelength occupancy, failed planes and RNG state all cross the
boundary. Traffic comes from counter-based per-epoch seeds
(:func:`~repro.scenarios.scenario.derive_epoch_seed`), so a chunk's
flows never depend on which process drew the earlier epochs. Together
these make the merged replay **bit-identical to a monolithic**
:class:`~repro.scenarios.runner.ScenarioRunner` run whose backend was
seeded with :func:`chunk_backend_seed`, at any chunk size.

That buys three things at once:

* **resume** — an interrupted week-scale replay restarts from the
  last checkpointed chunk: cached chunks load instantly and the
  missing tail restores the last stored snapshot;
* **sharding** — processes (or machines) pointed at the same cache
  directory each own the ``index % shards == shard_index`` slice of
  the chunk list. Chunks are sequentially dependent, so a shard
  computes an owned chunk only once its predecessor's checkpoint is
  in the shared cache; alternating shard passes (or one final
  ``shard_index=None`` resume) converge on the full replay;
* **identical aggregates** — a run is fully determined by (scenario,
  backend, backend parameters, base seed), never by the chunk size,
  the shard count, or how often it was interrupted.

This module deliberately never imports ``repro.experiments`` (the
dependency stays one-directional): the checkpoint store is duck-typed
to :class:`~repro.experiments.cache.ResultCache` — anything with
``load(key) -> dict | None`` and ``store(key, metrics)`` that reads
the key's ``spec_name`` / ``version`` / ``config`` / ``seed`` /
``config_hash`` attributes works.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

from repro.scenarios.backends import EpochReport, make_backend
from repro.scenarios.runner import ScenarioReport
from repro.scenarios.scenario import Scenario, derive_epoch_seed

#: Bump when chunk-execution semantics change: invalidates every
#: checkpointed chunk (the chunk analog of a spec's ``version``).
#: v3: every chunk restores its predecessor's end-of-chunk snapshot;
#: payloads always carry their own snapshot and no longer record a
#: boundary mode or replayed-event count.
CHUNK_FORMAT = 3


def chunk_ranges(n_epochs: int,
                 chunk_epochs: int) -> list[tuple[int, int]]:
    """Split ``[0, n_epochs)`` into ``chunk_epochs``-sized ranges
    (the last one ragged)."""
    if n_epochs < 1:
        raise ValueError("n_epochs must be >= 1")
    if chunk_epochs < 1:
        raise ValueError("chunk_epochs must be >= 1")
    return [(start, min(start + chunk_epochs, n_epochs))
            for start in range(0, n_epochs, chunk_epochs)]


def chunk_backend_seed(scenario: Scenario | str, start: int,
                       base_seed: int = 0) -> int:
    """RNG seed for the fresh backend a chunk starting at ``start``
    constructs — a pure function of the chunk's identity, so any
    shard computing the chunk agrees.

    The chunk at epoch 0 uses ``base_seed`` directly: a chunked
    replay is then bit-identical to the monolithic
    :class:`~repro.scenarios.runner.ScenarioRunner` run with a
    ``seed=base_seed`` backend (what ``repro scenario`` without
    ``--shards`` builds). Later chunks derive theirs counter-style;
    the restored snapshot overrides the backend's RNG state.
    """
    if start == 0:
        return base_seed
    return derive_epoch_seed(scenario, start, base_seed,
                             stream="backend")


def _stable_chunk_hash(config: dict) -> str:
    """Deterministic hex digest of a chunk config (sorted-key JSON;
    mirrors ``repro.experiments.spec.stable_hash`` without importing
    it, preserving the one-directional dependency rule)."""
    payload = json.dumps(config, sort_keys=True,
                         separators=(",", ":"), default=list)
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class ChunkKey:
    """Checkpoint-cache identity of one chunk (duck-types the
    ``SweepTask`` surface :class:`~repro.experiments.cache.ResultCache`
    reads: ``spec_name`` / ``version`` / ``config`` / ``seed`` /
    ``config_hash``)."""

    spec_name: str
    version: int
    config: dict
    seed: int

    @property
    def config_hash(self) -> str:
        return _stable_chunk_hash({"spec": self.spec_name,
                                   "version": self.version,
                                   "config": self.config})


def execute_chunk(scenario_config: dict, backend: str,
                  backend_params: dict, start: int, stop: int,
                  base_seed: int, snapshot: dict | None = None) -> dict:
    """Run epochs ``[start, stop)``; return the JSON-stable checkpoint
    payload.

    Every chunk after the first restores ``snapshot``, the previous
    chunk's end-of-chunk backend state, before its first epoch. The
    payload's ``"snapshot"`` key holds this chunk's own end state for
    the next chunk to restore.
    """
    if start > 0 and snapshot is None:
        raise ValueError(
            f"chunk starting at epoch {start} needs the previous "
            "chunk's snapshot")
    t0 = time.perf_counter()
    scenario = Scenario.from_config(scenario_config)
    fabric = make_backend(
        backend, scenario.n_nodes,
        seed=chunk_backend_seed(scenario, start, base_seed),
        **backend_params)
    if snapshot is not None:
        try:
            fabric.restore(snapshot)
        except ValueError as exc:
            raise ValueError(
                f"scenario {scenario.name!r} epochs "
                f"[{start}, {stop}): cannot restore the carried "
                f"snapshot: {exc}") from exc
    applied = ignored = 0
    reports: list[EpochReport] = []
    for epoch in range(start, stop):
        for event in scenario.events_at(epoch):
            if fabric.apply_event(event):
                applied += 1
            else:
                ignored += 1
        report = fabric.step(scenario.flow_batch_at(epoch, base_seed))
        report.epoch = epoch  # absolute, not chunk-relative
        reports.append(report)
    return {"start": start, "stop": stop,
            "events_applied": applied, "events_ignored": ignored,
            "duration_s": time.perf_counter() - t0,
            "epochs": [r.to_dict() for r in reports],
            "snapshot": fabric.snapshot()}


@dataclass(frozen=True)
class ChunkStatus:
    """How one chunk was satisfied in a sharded run."""

    index: int
    start: int
    stop: int
    #: "cached" (loaded from a checkpoint), "computed" (ran here),
    #: "pending" (owned by another shard, or waiting on a predecessor
    #: chunk's snapshot, and not yet checkpointed), or "failed"
    #: (raised here; ``error`` holds the message).
    state: str
    duration_s: float = 0.0
    error: str | None = None


@dataclass
class ShardedScenarioResult:
    """Everything one sharded run (or one shard of it) produced."""

    scenario: str
    backend: str
    chunk_epochs: int
    shards: int
    shard_index: int | None
    chunks: list[ChunkStatus] = field(default_factory=list)
    payloads: dict[int, dict] = field(default_factory=dict)
    wall_s: float = 0.0

    @property
    def n_cached(self) -> int:
        return sum(1 for c in self.chunks if c.state == "cached")

    @property
    def n_computed(self) -> int:
        return sum(1 for c in self.chunks if c.state == "computed")

    @property
    def n_pending(self) -> int:
        return sum(1 for c in self.chunks if c.state == "pending")

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.chunks if c.state == "failed")

    @property
    def complete(self) -> bool:
        """Does every chunk have a payload (cached or computed)?"""
        return len(self.payloads) == len(self.chunks)

    def report(self) -> ScenarioReport:
        """Merge all chunk payloads into one :class:`ScenarioReport`.

        Raises when chunks are pending or failed — aggregate over a
        partial replay would silently misreport the horizon.
        """
        if not self.complete:
            missing = [c.index for c in self.chunks
                       if c.index not in self.payloads]
            raise RuntimeError(
                f"sharded run incomplete: chunks {missing} pending or "
                "failed (run the owning shards, or rerun with "
                "resume=True once their checkpoints exist)")
        merged = ScenarioReport(scenario=self.scenario,
                                backend=self.backend)
        for index in sorted(self.payloads):
            payload = self.payloads[index]
            merged.epochs.extend(EpochReport.from_dict(e)
                                 for e in payload["epochs"])
            merged.events_applied += int(payload["events_applied"])
            merged.events_ignored += int(payload["events_ignored"])
        return merged

    def rows(self) -> list[dict]:
        """Per-chunk status table (the shard progress view)."""
        return [{"chunk": c.index, "epochs": f"[{c.start}, {c.stop})",
                 "state": c.state, "duration_s": c.duration_s}
                for c in self.chunks]

    def summary(self) -> str:
        """One-line human summary of the sharded run."""
        where = ("all shards" if self.shard_index is None
                 else f"shard {self.shard_index}/{self.shards}")
        failed = f", {self.n_failed} FAILED" if self.n_failed else ""
        return (f"{self.scenario} on {self.backend}: "
                f"{len(self.chunks)} chunk(s) of {self.chunk_epochs} "
                f"epoch(s) ({self.n_cached} cached, "
                f"{self.n_computed} computed, {self.n_pending} pending"
                f"{failed}) as {where} in {self.wall_s:.2f}s")


@dataclass
class ShardedScenarioRunner:
    """Chunked, shardable, resumable scenario execution.

    Parameters
    ----------
    scenario:
        The scenario to replay.
    backend:
        Backend name (any entry in
        :func:`~repro.scenarios.registry.available_backends`).
    backend_params:
        Keyword overrides for the backend constructor (must be
        JSON-stable: they are part of every chunk's cache identity).
    chunk_epochs:
        Checkpoint granularity. 1440 = one day of 1-minute epochs.
        Part of each chunk's cache identity (a chunk is its epoch
        range), never of the merged result.
    shards, shard_index:
        ``shard_index=None`` (default) drives every chunk from this
        process. An integer runs only the ``index % shards ==
        shard_index`` slice, computing each owned chunk whose
        predecessor's checkpoint already exists in the shared
        ``cache`` and leaving the rest ``pending``; alternate the
        shard processes (or finish with a ``shard_index=None`` pass
        with ``resume=True``) until the replay converges.
    base_seed:
        Stirred into every per-epoch episode seed and every chunk's
        backend seed.
    cache:
        Checkpoint store (duck-typed
        :class:`~repro.experiments.cache.ResultCache`); ``None``
        disables checkpointing (and therefore resume).
    """

    scenario: Scenario
    backend: str = "awgr"
    backend_params: dict = field(default_factory=dict)
    chunk_epochs: int = 1440
    shards: int = 1
    shard_index: int | None = None
    base_seed: int = 0
    cache: object | None = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if (self.shard_index is not None
                and not 0 <= self.shard_index < self.shards):
            raise ValueError("shard_index must be in [0, shards)")

    # -- chunk identity --------------------------------------------------------

    def ranges(self) -> list[tuple[int, int]]:
        """The run's chunk decomposition (shard-independent)."""
        return chunk_ranges(self.scenario.n_epochs, self.chunk_epochs)

    def chunk_key(self, start: int, stop: int) -> ChunkKey:
        """Checkpoint identity of one chunk. Deliberately excludes
        ``shards``/``shard_index`` — any shard may reuse any other
        shard's checkpoint."""
        return ChunkKey(
            spec_name=f"scenario-chunk-{self.scenario.name}",
            version=CHUNK_FORMAT,
            config={"scenario": self.scenario.to_config(),
                    "backend": self.backend,
                    "params": dict(self.backend_params),
                    "start": start, "stop": stop,
                    "base_seed": self.base_seed},
            seed=chunk_backend_seed(self.scenario, start,
                                    self.base_seed))

    def _owns(self, index: int) -> bool:
        return (self.shard_index is None
                or index % self.shards == self.shard_index)

    # -- execution -------------------------------------------------------------

    def run(self, resume: bool = True) -> ShardedScenarioResult:
        """Play (or finish playing) the scenario's chunk list.

        With ``resume`` (default) chunks already checkpointed in the
        cache are loaded instead of recomputed — the interrupted-run /
        multi-shard convergence path. ``resume=False`` recomputes this
        shard's chunks and refreshes their checkpoints in place.

        Chunks run inline in index order, each restoring its
        predecessor's snapshot, and each is checkpointed the moment it
        finishes, so an interrupt never loses a finished chunk. A
        chunk whose predecessor state is unavailable — owned by
        another shard and not yet checkpointed, or failed — stays
        ``pending`` rather than continuing from wrong state.
        """
        t0 = time.perf_counter()
        result = ShardedScenarioResult(
            scenario=self.scenario.name, backend=self.backend,
            chunk_epochs=self.chunk_epochs, shards=self.shards,
            shard_index=self.shard_index)
        scenario_config = self.scenario.to_config()
        carried: dict | None = None
        for index, (start, stop) in enumerate(self.ranges()):
            hit = None
            if self.cache is not None and resume:
                hit = self.cache.load(self.chunk_key(start, stop))
            if hit is not None:
                result.payloads[index] = hit
                result.chunks.append(
                    ChunkStatus(index, start, stop, "cached"))
                carried = hit["snapshot"]
                continue
            if not self._owns(index) or (index > 0 and carried is None):
                result.chunks.append(
                    ChunkStatus(index, start, stop, "pending"))
                carried = None
                continue
            try:
                payload = execute_chunk(
                    scenario_config, self.backend,
                    dict(self.backend_params), start, stop,
                    self.base_seed, snapshot=carried)
            except Exception as exc:
                result.chunks.append(ChunkStatus(
                    index, start, stop, "failed",
                    error=f"chunk {index} of scenario "
                          f"{self.scenario.name!r}: "
                          f"{type(exc).__name__}: {exc}"))
                carried = None
                continue
            if self.cache is not None:
                self.cache.store(self.chunk_key(start, stop), payload)
            result.payloads[index] = payload
            result.chunks.append(ChunkStatus(
                index, start, stop, "computed",
                duration_s=float(payload["duration_s"])))
            carried = payload["snapshot"]
        result.wall_s = time.perf_counter() - t0
        return result
