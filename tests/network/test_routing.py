"""Indirect (Valiant) routing (paper §IV)."""

import numpy as np
import pytest

from repro.network.routing import (
    BLOCKED,
    DIRECT,
    DOUBLE_INDIRECT,
    INDIRECT,
    IndirectRouter,
    RouteKind,
)
from repro.network.simulator import AWGRNetworkSimulator
from repro.network.state import PiggybackState
from repro.network.traffic import Flow
from repro.network.wavelength import WavelengthAllocator


def make_router(n_nodes=6, planes=2, flows_per_wavelength=1,
                update_period=None, seed=0):
    alloc = WavelengthAllocator(n_nodes=n_nodes, planes=planes,
                                flows_per_wavelength=flows_per_wavelength)
    state = None
    if update_period is not None:
        state = PiggybackState(alloc, update_period=update_period,
                               jitter=False)
    return IndirectRouter(alloc, state=state, rng_seed=seed), alloc, state


class TestDirectFirst:
    def test_direct_when_available(self):
        router, _, _ = make_router()
        decision = router.route_flow(0, 1)
        assert decision.kind is RouteKind.DIRECT
        assert decision.path == (0, 1)
        assert decision.hops == 1

    def test_direct_until_exhausted(self):
        router, alloc, _ = make_router(planes=2)
        router.route_flow(0, 1)
        router.route_flow(0, 1)
        # Third flow cannot go direct (2 planes x 1 slot used).
        decision = router.route_flow(0, 1)
        assert decision.kind is RouteKind.INDIRECT
        assert len(decision.path) == 3

    def test_self_flow_rejected(self):
        router, _, _ = make_router()
        with pytest.raises(ValueError):
            router.route_flow(2, 2)


class TestIndirect:
    def test_indirect_uses_free_intermediate(self):
        router, alloc, _ = make_router(n_nodes=4, planes=1)
        alloc.allocate(0, 1)  # direct path busy
        decision = router.route_flow(0, 1)
        assert decision.kind is RouteKind.INDIRECT
        src, mid, dst = decision.path
        assert (src, dst) == (0, 1)
        assert mid in (2, 3)

    def test_indirect_reserves_both_hops(self):
        router, alloc, _ = make_router(n_nodes=4, planes=1)
        alloc.allocate(0, 1)
        decision = router.route_flow(0, 1)
        mid = decision.path[1]
        assert alloc.used_slots(0, mid) == 1
        assert alloc.used_slots(mid, 1) == 1

    def test_release_frees_everything(self):
        router, alloc, _ = make_router(n_nodes=4, planes=1)
        alloc.allocate(0, 1)
        decision = router.route_flow(0, 1)
        router.release(decision)
        mid = decision.path[1]
        assert alloc.used_slots(0, mid) == 0
        assert alloc.used_slots(mid, 1) == 0

    def test_blocked_when_saturated(self):
        router, alloc, _ = make_router(n_nodes=3, planes=1)
        # Saturate every wavelength out of 0 and into 1.
        alloc.allocate(0, 1)
        alloc.allocate(0, 2)
        decision = router.route_flow(0, 1)
        assert decision.kind is RouteKind.BLOCKED
        assert decision.hops == 0

    def test_candidates_respect_both_hops(self):
        router, alloc, _ = make_router(n_nodes=4, planes=1)
        alloc.allocate(0, 2)        # first hop busy to 2
        alloc.allocate(3, 1)        # second hop busy from 3
        candidates = router.candidate_intermediates(0, 1)
        assert list(candidates) == []


class TestStaleFallback:
    def test_stale_state_triggers_double_indirect(self):
        router, alloc, state = make_router(
            n_nodes=5, planes=1, update_period=1000)
        # Freeze views fresh, then occupy 0->1 and all mid->1 links so
        # every intermediate's onward hop is secretly busy.
        alloc.allocate(0, 1)
        for mid in (2, 3, 4):
            alloc.allocate(mid, 1)
        decision = router.route_flow(0, 1)
        # Stale views still claim mid->1 free; the intermediate falls
        # back to a second intermediate, or blocks if none exists.
        assert decision.kind in (RouteKind.DOUBLE_INDIRECT,
                                 RouteKind.BLOCKED)
        if decision.kind is RouteKind.DOUBLE_INDIRECT:
            assert decision.used_stale_fallback
            assert router.stale_mispredictions >= 1

    def test_fresh_state_avoids_mispredictions(self):
        router, alloc, state = make_router(
            n_nodes=5, planes=1, update_period=1)
        alloc.allocate(0, 1)
        state.broadcast_all()
        router.route_flow(0, 1)
        assert router.stale_mispredictions == 0

    def test_stats_accumulate(self):
        router, alloc, _ = make_router()
        router.route_flow(0, 1)
        router.route_flow(1, 2)
        assert router.stats[RouteKind.DIRECT] == 2


class TestConservation:
    def test_no_leaked_reservations_after_release(self):
        router, alloc, _ = make_router(n_nodes=6, planes=2)
        decisions = []
        for dst in range(1, 6):
            decisions.append(router.route_flow(0, dst))
        for d in decisions:
            if d.kind is not RouteKind.BLOCKED:
                router.release(d)
        assert alloc.utilization() == 0.0


class TestRouteTokensTwin:
    """route_tokens is the object-free twin of route_flow (SIM006)."""

    KIND_CODE = {RouteKind.DIRECT: 0, RouteKind.INDIRECT: 1,
                 RouteKind.DOUBLE_INDIRECT: 2, RouteKind.BLOCKED: 3}

    def drive(self, route):
        """Push one router through direct, indirect and blocked
        regimes, returning (outcomes, router, allocator)."""
        router, alloc, _ = make_router(n_nodes=5, planes=1, seed=7)
        outcomes = []
        for src, dst in [(0, 1), (0, 1), (0, 1), (0, 1), (0, 1),
                         (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]:
            outcomes.append(route(router, src, dst))
        return outcomes, router, alloc

    def test_bit_identical_outcomes(self):
        scalar, r_a, alloc_a = self.drive(
            lambda r, s, d: r.route_flow(s, d))
        batch, r_b, alloc_b = self.drive(
            lambda r, s, d: r.route_tokens(s, d))
        for decision, (code, hops, reservations) in zip(scalar, batch):
            assert self.KIND_CODE[decision.kind] == code
            assert decision.hops == hops
            assert decision.reservations == reservations

    def test_identical_rng_stats_and_occupancy(self):
        _, r_a, alloc_a = self.drive(lambda r, s, d: r.route_flow(s, d))
        _, r_b, alloc_b = self.drive(
            lambda r, s, d: r.route_tokens(s, d))
        # Same RNG stream consumed, same stats, same mispredictions.
        assert r_a.snapshot() == r_b.snapshot()
        # Same allocator mutations, plane for plane.
        for node in range(5):
            assert (alloc_a.free_slots_from(node)
                    == alloc_b.free_slots_from(node)).all()
            assert (alloc_a.free_slots_to(node)
                    == alloc_b.free_slots_to(node)).all()

    def test_twin_stays_identical_with_stale_state(self):
        def drive_stale(route):
            router, alloc, state = make_router(
                n_nodes=5, planes=1, update_period=1000, seed=3)
            alloc.allocate(0, 1)
            for mid in (2, 3, 4):
                alloc.allocate(mid, 1)
            return route(router, 0, 1), router

        decision, r_a = drive_stale(lambda r, s, d: r.route_flow(s, d))
        tokens, r_b = drive_stale(lambda r, s, d: r.route_tokens(s, d))
        assert self.KIND_CODE[decision.kind] == tokens[0]
        assert decision.reservations == tokens[2]
        assert r_a.snapshot() == r_b.snapshot()


class RecursiveReferenceRouter(IndirectRouter):
    """The stale-fallback walk as it was first written: a bounded
    recursion that allocates every mispredicted candidate's first hop
    before trying its fallback and releases it again on failure.

    Kept verbatim as an oracle for the two-level walk that replaced it,
    which reserves a first hop only once its fallback succeeds and
    counts, rather than tries, mispredicted second intermediates.
    """

    max_fallback_depth = 1

    def _route_core(self, src, dst, slots):
        code, path, reservations, stale = self._recursive_core(
            src, dst, slots, depth=0)
        assert stale == (code == DOUBLE_INDIRECT)
        return code, path, reservations

    def _recursive_core(self, src, dst, slots, depth):
        # 1. Direct wavelength.
        if self.allocator.has_capacity(src, dst, slots):
            planes = self.allocator.allocate(src, dst, slots)
            return (DIRECT if depth == 0 else DOUBLE_INDIRECT,
                    (src, dst), ((src, dst, tuple(planes)),), depth > 0)

        # 2. Valiant intermediate per the (possibly stale) local view.
        candidates = self.candidate_intermediates(src, dst, slots)
        self._rng.shuffle(candidates)
        if len(candidates):
            onward_free = (self.allocator.free_slots_to(dst)[candidates]
                           >= slots)
            free = np.flatnonzero(onward_free)
            mispredicted = int(free[0]) if free.size else len(candidates)
            for i in range(mispredicted):
                mid = int(candidates[i])
                if not self.allocator.has_capacity(src, mid, slots):
                    continue
                first = self.allocator.allocate(src, mid, slots)
                self.stale_mispredictions += 1
                if depth < self.max_fallback_depth:
                    code, path, reservations, _ = self._recursive_core(
                        mid, dst, slots, depth + 1)
                    if code != BLOCKED:
                        return (DOUBLE_INDIRECT, (src,) + path,
                                ((src, mid, tuple(first)),)
                                + reservations, True)
                self.allocator.release(src, mid, first)
            if mispredicted < len(candidates):
                mid = int(candidates[mispredicted])
                first = self.allocator.allocate(src, mid, slots)
                second = self.allocator.allocate(mid, dst, slots)
                return (INDIRECT if depth == 0 else DOUBLE_INDIRECT,
                        (src, mid, dst),
                        ((src, mid, tuple(first)),
                         (mid, dst, tuple(second))), depth > 0)

        return (BLOCKED, (src,), (), False)


class TestReferenceWalk:
    """The two-level walk replays the recursive reference exactly:
    same decisions, mispredictions, stats, RNG state and occupancy
    after every flow, across seeded stale-state regimes."""

    @pytest.mark.parametrize("n_nodes", [8, 16, 32])
    @pytest.mark.parametrize("period", [1, 4, 16])
    def test_matches_recursive_reference(self, n_nodes, period):
        def make():
            return AWGRNetworkSimulator(
                n_nodes=n_nodes, planes=3, flows_per_wavelength=2,
                state_update_period=period, rng_seed=n_nodes + period,
                batch_admission=False)

        fast, ref = make(), make()
        ref.router = RecursiveReferenceRouter(
            ref.allocator, state=ref.state, rng_seed=n_nodes + period)
        slot_gbps = fast.slot_gbps
        traffic = np.random.default_rng(1000 * n_nodes + period)
        n_slots = 12
        for t in range(n_slots):
            if t == n_slots // 2:
                # A plane fails mid-run: its flows drop and the
                # remaining planes absorb the rest of the run.
                assert fast.fail_plane(1) == ref.fail_plane(1)
            hotspot = int(traffic.integers(n_nodes))
            for _ in range(3 * n_nodes):
                src = int(traffic.integers(n_nodes))
                dst = (hotspot if traffic.random() < 0.5
                       else int(traffic.integers(n_nodes)))
                if src == dst:
                    continue
                flow = Flow(src, dst,
                            gbps=slot_gbps * int(traffic.integers(1, 4)))
                duration = int(traffic.integers(1, 4))
                assert (fast.offer(flow, duration)
                        == ref.offer(flow, duration))
                assert (fast.router.stale_mispredictions
                        == ref.router.stale_mispredictions)
                assert fast.router.stats == ref.router.stats
                assert (fast.router._rng.bit_generator.state
                        == ref.router._rng.bit_generator.state)
                assert np.array_equal(fast.allocator._occupancy,
                                      ref.allocator._occupancy)
            fast.step()
            ref.step()
        # The regimes really exercised the stale fallback.
        assert fast.router.stale_mispredictions > 0
        assert fast.router.stats[RouteKind.DOUBLE_INDIRECT] > 0
