"""Flow-level slot simulator for the AWGR fabric (§IV, §VI-A).

The simulator advances in discrete slots. Each slot it admits arriving
flows through the :class:`~repro.network.routing.IndirectRouter`,
retires expiring flows, and steps the piggyback state so views age
realistically. It reports how traffic was carried (direct / indirect /
two-intermediate fallback / blocked), delivered bandwidth, and latency
statistics derived from the rack latency model.

This is deliberately a *flow-level* model, not a packet simulator: the
paper's §VI-A argument is about whether wavelength capacity exists for
each demand, which flow-level admission captures, while packet effects
are subsumed in the fixed 35 ns latency adder evaluated separately.

Two admission paths share one set of semantics:

* the **scalar** path (:meth:`AWGRNetworkSimulator.offer`) admits one
  flow at a time — the reference implementation;
* the **batched** path (:meth:`AWGRNetworkSimulator.offer_batch`)
  vectorizes a whole slot's arrivals. It groups the batch by
  (src, dst) pair once and compares every flow's inclusive per-pair
  demand with its pair's free sub-slots; each run of flows that fits
  is admitted with one scatter allocation, and each flow that does
  not is routed through the router's object-free ``route_tokens``
  fallback. An overflow flow changes only the budgets of the pairs it
  touched (its own, and those its reservations landed on), so only
  their later flows are re-evaluated. Direct admissions touch only
  their own pair's wavelengths, so this replays sequential admission
  exactly: both paths produce bit-identical
  :class:`SimulationReport` aggregates (and identical occupancy, RNG
  consumption, and piggyback state) for seeded runs.
  The batched path consumes :class:`~repro.network.traffic.FlowBatch`
  arrays directly and stores every admitted flow as sub-slot tokens,
  so a whole epoch runs without materializing a single ``Flow`` or
  ``RouteDecision`` object.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.network.routing import (
    BLOCKED,
    DIRECT,
    DOUBLE_INDIRECT,
    INDIRECT,
    IndirectRouter,
    RouteDecision,
    RouteKind,
)
from repro.network.state import PiggybackState
from repro.network.traffic import Flow, FlowBatch
from repro.network.wavelength import WavelengthAllocator


def _group_starts(sorted_pid: np.ndarray) -> np.ndarray:
    """Start index of each run of equal pair ids in ``sorted_pid``."""
    new_group = np.empty(len(sorted_pid), dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_pid[1:], sorted_pid[:-1], out=new_group[1:])
    return np.flatnonzero(new_group)


def sequential_sum(start: float, values: np.ndarray) -> float:
    """Strict left-to-right float accumulation starting from ``start``.

    ``np.add.accumulate`` must produce every prefix, so it folds left
    to right like a ``+=`` loop — unlike ``np.sum``, whose pairwise
    summation rounds differently. The batched report builders use this
    so their float aggregates stay *bit-identical* to the scalar
    per-flow accumulation.
    """
    if len(values) == 0:
        return start
    return float(np.add.accumulate(
        np.concatenate(((start,), values)))[-1])


@dataclass
class SimulationReport:
    """Aggregate results of one simulation run."""

    slots: int = 0
    offered: int = 0
    carried_direct: int = 0
    carried_indirect: int = 0
    carried_double: int = 0
    blocked: int = 0
    offered_gbps: float = 0.0
    carried_gbps: float = 0.0
    stale_mispredictions: int = 0
    hop_histogram: dict[int, int] = field(default_factory=dict)

    @property
    def carried(self) -> int:
        """All flows that found capacity."""
        return self.carried_direct + self.carried_indirect + self.carried_double

    @property
    def acceptance_ratio(self) -> float:
        """Fraction of offered flows carried.

        A zero-offered run reports 0.0, not 1.0 — an idle run must
        never read as "perfect fabric" in benchmark tables (the same
        bug the scenario-layer ratios had).
        """
        return self.carried / self.offered if self.offered else 0.0

    @property
    def throughput_ratio(self) -> float:
        """Fraction of offered bandwidth carried (0.0 when idle)."""
        return (self.carried_gbps / self.offered_gbps
                if self.offered_gbps else 0.0)

    @property
    def indirect_fraction(self) -> float:
        """Fraction of carried flows that needed any indirection."""
        if not self.carried:
            return 0.0
        return (self.carried_indirect + self.carried_double) / self.carried

    def as_dict(self) -> dict:
        """Plain-dict view for report rendering."""
        return {
            "slots": self.slots,
            "offered": self.offered,
            "carried": self.carried,
            "direct": self.carried_direct,
            "indirect": self.carried_indirect,
            "double_indirect": self.carried_double,
            "blocked": self.blocked,
            "acceptance_ratio": self.acceptance_ratio,
            "throughput_ratio": self.throughput_ratio,
            "indirect_fraction": self.indirect_fraction,
            "stale_mispredictions": self.stale_mispredictions,
        }


@dataclass
class BatchDecisions:
    """Vectorized outcome of one :meth:`offer_batch` call.

    Arrays are indexed by the batch's flow order: ``kinds`` holds the
    module-level kind codes (:data:`DIRECT` ... :data:`BLOCKED`),
    ``hops`` the photonic hops taken (0 when blocked), ``gbps`` the
    offered bandwidth per flow.
    """

    kinds: np.ndarray
    hops: np.ndarray
    gbps: np.ndarray

    @property
    def carried_mask(self) -> np.ndarray:
        """Boolean mask of flows that found capacity."""
        return self.kinds != BLOCKED


@dataclass
class _DirectBatch:
    """Compact sub-slot token store for one slot's bulk admissions.

    One row per reserved sub-slot: the (src, dst) wavelength pair, the
    plane carrying it, and the local flow index that owns it — enough
    to release everything with one scatter subtract at expiry and to
    drop whole flows when a plane fails, without materializing a
    Python ``RouteDecision`` per flow.
    """

    src: np.ndarray
    dst: np.ndarray
    plane: np.ndarray
    flow: np.ndarray

    def release(self, allocator: WavelengthAllocator) -> None:
        """Return every token to the allocator (flow expiry)."""
        allocator.release_tokens(self.src, self.dst, self.plane)

    def drop_plane(self, allocator: WavelengthAllocator,
                   plane: int) -> int:
        """Drop flows with any token on a failed plane.

        Surviving-plane tokens of dropped flows are released (the
        allocator already zeroed the failed plane's occupancy).
        Returns how many flows were dropped.
        """
        hit = self.plane == plane
        if not hit.any():
            return 0
        doomed_flows = np.unique(self.flow[hit])
        doomed = np.isin(self.flow, doomed_flows)
        live = doomed & ~hit
        allocator.release_tokens(self.src[live], self.dst[live],
                                 self.plane[live])
        keep = ~doomed
        self.src = self.src[keep]
        self.dst = self.dst[keep]
        self.plane = self.plane[keep]
        self.flow = self.flow[keep]
        return int(doomed_flows.size)

    def to_dict(self) -> dict:
        """JSON-stable form (simulator snapshots)."""
        return {"src": self.src.tolist(), "dst": self.dst.tolist(),
                "plane": self.plane.tolist(),
                "flow": self.flow.tolist()}

    @classmethod
    def from_dict(cls, payload: dict) -> "_DirectBatch":
        """Inverse of :meth:`to_dict` (accepts JSON-decoded dicts)."""
        return cls(src=np.asarray(payload["src"], dtype=np.int64),
                   dst=np.asarray(payload["dst"], dtype=np.int64),
                   plane=np.asarray(payload["plane"], dtype=np.int64),
                   flow=np.asarray(payload["flow"], dtype=np.int64))


@dataclass
class _ExpiryBucket:
    """Everything retiring at one future slot."""

    entries: list[tuple[Flow, RouteDecision]] = field(default_factory=list)
    batches: list[_DirectBatch] = field(default_factory=list)

    def release(self, router: IndirectRouter,
                allocator: WavelengthAllocator) -> None:
        for (_, decision) in self.entries:
            router.release(decision)
        for batch in self.batches:
            batch.release(allocator)

    def to_dict(self) -> dict:
        """JSON-stable form (simulator snapshots)."""
        return {"entries": [[flow.to_dict(), decision.to_dict()]
                            for (flow, decision) in self.entries],
                "batches": [batch.to_dict() for batch in self.batches]}

    @classmethod
    def from_dict(cls, payload: dict) -> "_ExpiryBucket":
        """Inverse of :meth:`to_dict` (accepts JSON-decoded dicts)."""
        return cls(
            entries=[(Flow.from_dict(flow), RouteDecision.from_dict(d))
                     for (flow, d) in payload["entries"]],
            batches=[_DirectBatch.from_dict(b)
                     for b in payload["batches"]])


@dataclass
class AWGRNetworkSimulator:
    """Slot-based admission simulator over parallel AWGR planes.

    Parameters
    ----------
    n_nodes:
        Attached endpoints (MCMs).
    planes:
        Parallel AWGR planes (direct wavelengths per pair).
    flows_per_wavelength:
        Sub-slot multiplexing granularity.
    gbps_per_wavelength:
        Line rate per wavelength.
    state_update_period:
        Piggyback broadcast period in slots (1 = fresh state).
    track_state:
        When false, skip the per-node piggyback boards and route with
        perfect information. The boards cost O(N^2) memory *per node*,
        so rack-scale (350-MCM) feasibility checks should disable them;
        staleness studies on smaller fabrics keep them on.
    batch_admission:
        When true (the default), :meth:`run` admits each slot's flows
        through the vectorized :meth:`offer_batch` hot path. The
        scalar per-flow path is semantically identical (see the module
        docstring); keep this switch for equivalence tests and
        benchmarking the two paths against each other.
    """

    n_nodes: int
    planes: int = 5
    flows_per_wavelength: int = 8
    gbps_per_wavelength: float = 25.0
    state_update_period: int = 1
    rng_seed: int = 0
    track_state: bool = True
    batch_admission: bool = True

    def __post_init__(self) -> None:
        self.allocator = WavelengthAllocator(
            n_nodes=self.n_nodes, planes=self.planes,
            flows_per_wavelength=self.flows_per_wavelength,
            gbps_per_wavelength=self.gbps_per_wavelength)
        self.state = None
        if self.track_state:
            self.state = PiggybackState(
                self.allocator, update_period=self.state_update_period,
                rng_seed=self.rng_seed)
        self.router = IndirectRouter(
            self.allocator, state=self.state, rng_seed=self.rng_seed)
        # Active flows keyed by expiry slot: step() pops exactly one
        # bucket instead of rebuilding an O(active) list every slot.
        self._buckets: dict[int, _ExpiryBucket] = {}
        self._now = 0

    @property
    def slot_gbps(self) -> float:
        """Bandwidth of one sub-slot."""
        return self.gbps_per_wavelength / self.flows_per_wavelength

    def _bucket_at(self, duration_slots: int) -> _ExpiryBucket:
        # Durations below one slot still survive until the next step,
        # matching the historical ``expiry <= now`` retirement check.
        expiry = self._now + max(1, duration_slots)
        bucket = self._buckets.get(expiry)
        if bucket is None:
            bucket = self._buckets[expiry] = _ExpiryBucket()
        return bucket

    # -- single-shot admission -----------------------------------------------------

    def offer(self, flow: Flow, duration_slots: int = 1) -> RouteDecision:
        """Admit one flow now; it retires after ``duration_slots``."""
        slots = flow.slots(self.slot_gbps)
        decision = self.router.route_flow(flow.src, flow.dst, slots)
        if decision.kind is not RouteKind.BLOCKED:
            self._bucket_at(duration_slots).entries.append((flow, decision))
        return decision

    # -- batched admission ---------------------------------------------------------

    def offer_batch(self, flows: FlowBatch | list[Flow],
                    duration_slots: int = 1) -> BatchDecisions:
        """Admit one slot's flows through the vectorized hot path.

        Accepts a :class:`FlowBatch` natively (the object-free form
        the generators emit); ``list[Flow]`` inputs are converted at
        the boundary. Sequential admission is replayed exactly. The
        batch is grouped by pair once (one stable argsort): a flow
        goes direct iff its inclusive per-pair demand is within its
        pair's budget, the pair's free sub-slots at batch start. Each
        run of fitting flows is bulk-admitted with one scatter
        allocation, and the flow that ends it is routed through the
        :meth:`IndirectRouter.route_tokens` fallback (same allocator
        mutations and RNG consumption as the scalar router). That flow
        returns its demand to its own pair's budget, and each of its
        reservations on a pair present in the batch takes the
        reserved sub-slots out of that pair's budget; only the later
        flows of those pairs are re-evaluated before the scan resumes.
        When the whole batch fits (the uniform-load hot case) the
        grouping is reused for the allocation.

        Every admitted flow — direct or indirect — lives on as rows
        of a :class:`_DirectBatch` token store, so expiry and plane
        failures on the batched path stay pure array compaction with
        no per-flow Python objects.
        """
        batch = FlowBatch.from_flows(flows)
        n = len(batch)
        kinds = np.full(n, DIRECT, dtype=np.uint8)
        hops = np.ones(n, dtype=np.int64)
        gbps = batch.gbps
        if n == 0:
            return BatchDecisions(kinds=kinds, hops=hops, gbps=gbps)
        src = batch.src
        dst = batch.dst
        # Same endpoint validation the scalar path gets from
        # WavelengthAllocator._check (numpy would otherwise wrap
        # negative indices silently).
        if (min(src.min(), dst.min()) < 0
                or max(src.max(), dst.max()) >= self.n_nodes):
            raise ValueError("flow endpoint out of range")
        slots = batch.slots(self.slot_gbps)
        alloc = self.allocator
        n_nodes = alloc.n_nodes
        pid = src * n_nodes + dst
        bucket = self._bucket_at(duration_slots)

        # Group the batch by pair once, order-preserving within each
        # pair: a flow goes direct iff its inclusive per-pair demand
        # fits its pair's budget (free sub-slots at batch start).
        order = np.argsort(pid, kind="stable")
        s_pid = pid[order]
        s_slots = slots[order]
        group_start = _group_starts(s_pid)
        group_sizes = np.diff(np.append(group_start, n))
        cumulative = np.cumsum(s_slots)
        demand = cumulative - np.repeat(
            (cumulative - s_slots)[group_start], group_sizes)
        u_pid = s_pid[group_start]
        u_src, u_dst = np.divmod(u_pid, n_nodes)
        total = alloc.healthy_planes * alloc.flows_per_wavelength
        budget = total - alloc._occupancy[u_src, u_dst].sum(axis=1)
        fits = demand <= np.repeat(budget, group_sizes)
        if fits.all():
            # The hot case under uniform load: everything is direct
            # and the batch-wide grouping doubles as the allocation's.
            self._admit_direct(bucket, order, s_pid, s_slots)
            return BatchDecisions(kinds=kinds, hops=hops, gbps=gbps)

        # Demand grows along each pair's flows, so the ones that fit
        # are a prefix and a pair needs tracking only up to its first
        # unfit flow, ``head[g]``. The heap orders the heads by flow
        # index; an entry whose head has since moved is stale and
        # skipped.
        group_end = group_start + group_sizes
        first_unfit = group_start + np.add.reduceat(
            fits.astype(np.int64), group_start)
        unfit_groups = np.flatnonzero(first_unfit < group_end)
        heap = list(zip(order[first_unfit[unfit_groups]].tolist(),
                        unfit_groups.tolist()))
        head = [-1] * len(u_pid)
        for (k, g) in heap:
            head[g] = k
        heapq.heapify(heap)
        order_l, demand_l, budget_l = (order.tolist(), demand.tolist(),
                                       budget.tolist())
        start_l, end_l = group_start.tolist(), group_end.tolist()
        pair_l = u_pid.tolist()
        src_l, dst_l, slots_l = src.tolist(), dst.tolist(), slots.tolist()
        # (a, b, planes, flow) of every router-carried reservation,
        # flushed as one _DirectBatch of sub-slot tokens after the
        # scan. Flow ids are batch indices, so the whole flow drops
        # together on plane failure.
        reserved: list[tuple[int, int, tuple[int, ...], int]] = []

        start = 0
        while True:
            while heap and head[heap[0][1]] != heap[0][0]:
                heapq.heappop(heap)
            stop, own = heap[0] if heap else (n, -1)
            if stop > start:
                # The router reads occupancy: admit the direct run
                # before routing the flow that ends it.
                adm = start + np.argsort(pid[start:stop], kind="stable")
                self._admit_direct(bucket, adm, pid[adm], slots[adm])
            if stop == n:
                break
            heapq.heappop(heap)
            # First flow the direct wavelengths cannot absorb: route it
            # exactly as the scalar path would (same allocator state,
            # same RNG draws).
            kinds[stop], hops[stop], reservations = (
                self.router.route_tokens(src_l[stop], dst_l[stop],
                                         slots_l[stop]))
            # Only the budgets of the pairs this flow touched change:
            # its own pair no longer owes its demand, and every
            # reservation eats into its pair's free sub-slots.
            budget_l[own] += slots_l[stop]
            touched = {own}
            for (a, b, planes) in reservations:
                reserved.append((a, b, planes, stop))
                key = a * n_nodes + b
                g = bisect_left(pair_l, key)
                if g < len(pair_l) and pair_l[g] == key:
                    budget_l[g] -= len(planes)
                    touched.add(g)
            # Re-evaluate the later flows of the touched pairs only.
            for g in touched:
                later = bisect_right(order_l, stop, start_l[g], end_l[g])
                unfit = bisect_right(demand_l, budget_l[g], later, end_l[g])
                head[g] = order_l[unfit] if unfit < end_l[g] else -1
                if head[g] >= 0:
                    heapq.heappush(heap, (head[g], g))
            start = stop + 1
        if reserved:
            res_src, res_dst, res_planes, res_flow = zip(*reserved)
            widths = np.fromiter(map(len, res_planes), dtype=np.int64,
                                 count=len(res_planes))
            bucket.batches.append(_DirectBatch(
                src=np.repeat(res_src, widths),
                dst=np.repeat(res_dst, widths),
                plane=np.fromiter(chain.from_iterable(res_planes),
                                  dtype=np.int64, count=int(widths.sum())),
                flow=np.repeat(res_flow, widths)))
        return BatchDecisions(kinds=kinds, hops=hops, gbps=gbps)

    def _admit_direct(self, bucket: _ExpiryBucket, flows: np.ndarray,
                      p_pid: np.ndarray, p_slots: np.ndarray) -> None:
        """Scatter-allocate flows known to fit their direct wavelengths.

        ``flows`` are batch indices grouped by pair (order-preserving
        within each pair), with pair ids ``p_pid`` and sub-slot counts
        ``p_slots``. The planes match sequential least-loaded
        ``allocate`` calls.
        """
        g_start = _group_starts(p_pid)
        g_src, g_dst = np.divmod(p_pid[g_start], self.allocator.n_nodes)
        totals = np.add.reduceat(p_slots, g_start)
        seq = self.allocator.allocate_pairs(g_src, g_dst, totals)
        token_mask = np.arange(seq.shape[1])[None, :] < totals[:, None]
        # Assignment-ordered tokens are flow-major within each pair, so
        # repeating flow ids by their slot counts labels every token.
        bucket.batches.append(_DirectBatch(
            src=g_src.repeat(totals), dst=g_dst.repeat(totals),
            plane=seq[token_mask], flow=flows.repeat(p_slots)))
        self.router.stats[RouteKind.DIRECT] += len(flows)

    # -- snapshot / restore ----------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-stable capture of every piece of mutable run state.

        Covers the slot clock, wavelength occupancy, failed planes,
        the piggyback boards (including their jitter phases), the
        router's RNG/stats, and the expiry buckets holding every
        in-flight flow — enough that ``restore(snapshot())`` on a
        freshly constructed (even differently seeded) simulator of the
        same shape continues *bit-identically* to a run that never
        stopped. Bucket insertion order is preserved through the JSON
        round trip so drain/failure scans walk flows in the original
        order. The dict survives the result cache's JSON encoding
        losslessly, which is what lets chunked scenario replays carry
        in-flight flows across checkpoint boundaries.
        """
        return {
            "config": self._snapshot_config(),
            "now": self._now,
            "allocator": self.allocator.snapshot(),
            "state": (None if self.state is None
                      else self.state.snapshot()),
            "router": self.router.snapshot(),
            "buckets": {str(expiry): bucket.to_dict()
                        for expiry, bucket in self._buckets.items()},
        }

    def restore(self, state: dict) -> None:
        """Inverse of :meth:`snapshot` (accepts JSON-decoded dicts).

        The receiving simulator must be configured identically to the
        one the snapshot was taken from — restoring only replaces
        mutable state, never structure.
        """
        config = state["config"]
        mine = self._snapshot_config()
        if config != mine:
            differing = sorted(k for k in set(config) | set(mine)
                               if config.get(k) != mine.get(k))
            raise ValueError(
                f"snapshot config does not match simulator config "
                f"(differing fields: {differing}): snapshot {config} "
                f"vs simulator {mine}")
        self._now = int(state["now"])
        self.allocator.restore(state["allocator"])
        if self.state is not None:
            self.state.restore(state["state"])
        self.router.restore(state["router"])
        self._buckets = {int(expiry): _ExpiryBucket.from_dict(bucket)
                         for expiry, bucket in state["buckets"].items()}

    def _snapshot_config(self) -> dict:
        """Structural identity a snapshot must match to be restorable."""
        return {"n_nodes": self.n_nodes, "planes": self.planes,
                "flows_per_wavelength": self.flows_per_wavelength,
                "gbps_per_wavelength": self.gbps_per_wavelength,
                "state_update_period": self.state_update_period,
                "track_state": self.track_state}

    # -- time ----------------------------------------------------------------------

    def step(self) -> None:
        """Advance one slot: retire expired flows, age piggyback state."""
        self._now += 1
        bucket = self._buckets.pop(self._now, None)
        if bucket is not None:
            bucket.release(self.router, self.allocator)
        if self.state is not None:
            self.state.step()

    # -- batch experiment ------------------------------------------------------------

    def run(self, flow_batches: list[list[Flow]],
            duration_slots: int = 4) -> SimulationReport:
        """Offer one batch of flows per slot and aggregate statistics.

        Dispatches to the vectorized batch-admission hot path unless
        ``batch_admission`` is off; both paths return bit-identical
        reports for the same seed.
        """
        if self.batch_admission:
            return self._run_batched(flow_batches, duration_slots)
        return self._run_scalar(flow_batches, duration_slots)

    def _run_scalar(self, flow_batches: list[list[Flow]],
                    duration_slots: int) -> SimulationReport:
        """Reference per-flow admission loop (the pre-batching path)."""
        report = SimulationReport()
        for batch in flow_batches:
            for flow in batch:
                decision = self.offer(flow, duration_slots)
                report.offered += 1
                report.offered_gbps += flow.gbps
                hops = decision.hops
                report.hop_histogram[hops] = (
                    report.hop_histogram.get(hops, 0) + 1)
                if decision.kind is RouteKind.DIRECT:
                    report.carried_direct += 1
                    report.carried_gbps += flow.gbps
                elif decision.kind is RouteKind.INDIRECT:
                    report.carried_indirect += 1
                    report.carried_gbps += flow.gbps
                elif decision.kind is RouteKind.DOUBLE_INDIRECT:
                    report.carried_double += 1
                    report.carried_gbps += flow.gbps
                else:
                    report.blocked += 1
            self.step()
            report.slots += 1
        report.stale_mispredictions = self.router.stale_mispredictions
        return report

    def _run_batched(self, flow_batches: list[list[Flow]],
                     duration_slots: int) -> SimulationReport:
        report = SimulationReport()
        histogram = report.hop_histogram
        for batch in flow_batches:
            decisions = self.offer_batch(batch, duration_slots)
            carried = decisions.carried_mask
            report.offered += len(batch)
            report.offered_gbps = sequential_sum(
                report.offered_gbps, decisions.gbps)
            report.carried_gbps = sequential_sum(
                report.carried_gbps, decisions.gbps[carried])
            counts = np.bincount(decisions.kinds, minlength=4)
            report.carried_direct += int(counts[DIRECT])
            report.carried_indirect += int(counts[INDIRECT])
            report.carried_double += int(counts[DOUBLE_INDIRECT])
            report.blocked += int(counts[BLOCKED])
            hop_values, hop_counts = np.unique(decisions.hops,
                                               return_counts=True)
            for hops, count in zip(hop_values.tolist(),
                                   hop_counts.tolist()):
                histogram[hops] = histogram.get(hops, 0) + count
            self.step()
            report.slots += 1
        report.stale_mispredictions = self.router.stale_mispredictions
        return report

    def drain(self) -> None:
        """Release every active flow (end of experiment)."""
        for bucket in self._buckets.values():
            bucket.release(self.router, self.allocator)
        self._buckets.clear()

    # -- failure injection ---------------------------------------------------------

    def fail_plane(self, plane: int) -> int:
        """Take a plane out of service mid-run (device failure).

        Active flows with any reservation on the failed plane are
        dropped — their surviving-plane reservations are released so
        capacity accounting stays exact (the allocator already zeroes
        the failed plane's occupancy). Returns how many flows were
        dropped; callers model their retry as fresh offers.

        Bulk-admitted flows are scanned vectorized (one mask over each
        batch's token arrays); only the few router-carried flows still
        walk their per-flow reservation tuples.
        """
        self.allocator.fail_plane(plane)
        dropped = 0
        for bucket in self._buckets.values():
            survivors = []
            for (flow, decision) in bucket.entries:
                planes_used = {p for (_, _, used) in decision.reservations
                               for p in used}
                if plane in planes_used:
                    dropped += 1
                    for (a, b, used) in decision.reservations:
                        live = [p for p in used if p != plane]
                        if live:
                            self.allocator.release(a, b, live)
                else:
                    survivors.append((flow, decision))
            bucket.entries = survivors
            for batch in bucket.batches:
                dropped += batch.drop_plane(self.allocator, plane)
        return dropped

    def repair_plane(self, plane: int) -> None:
        """Return a failed plane to service."""
        self.allocator.repair_plane(plane)
