"""Indirect (Valiant-style) routing over parallel AWGRs (paper §IV).

A source that needs more bandwidth toward a destination than its
direct wavelengths provide splits traffic across intermediate nodes:
traffic rides the source's direct wavelength to an intermediate ``i``,
then ``i``'s direct wavelength to the destination. Candidates must
look free in *both* hops according to the source's (possibly stale)
piggybacked state; among candidates, one is chosen uniformly at random
in a Valiant fashion, per flow (to keep packets of one flow in order).

When stale state misleads the source and the chosen intermediate's
onward wavelength is actually busy, the intermediate re-routes through
a *second* intermediate (the paper's fallback). The walk has exactly
two levels: the source's Valiant choice, then one fallback per
mispredicted intermediate; a second intermediate whose onward hop is
also busy is abandoned, never routed further.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.network.state import PiggybackState
from repro.network.wavelength import WavelengthAllocator


class RouteKind(Enum):
    """How a flow ended up being carried."""

    DIRECT = "direct"
    INDIRECT = "indirect"          # one intermediate
    DOUBLE_INDIRECT = "double"     # stale-state fallback, two intermediates
    BLOCKED = "blocked"


#: Integer kind codes for the object-free batch path (also re-exported
#: by :mod:`repro.network.simulator` for its ``BatchDecisions`` arrays).
DIRECT, INDIRECT, DOUBLE_INDIRECT, BLOCKED = range(4)

_KIND_BY_CODE = (RouteKind.DIRECT, RouteKind.INDIRECT,
                 RouteKind.DOUBLE_INDIRECT, RouteKind.BLOCKED)


@dataclass(frozen=True)
class RouteDecision:
    """Outcome of routing one flow.

    ``path`` lists the node sequence (src, [mid...,] dst) when carried;
    ``reservations`` records (src, dst, planes) tuples to release later.
    """

    kind: RouteKind
    path: tuple[int, ...]
    reservations: tuple[tuple[int, int, tuple[int, ...]], ...] = ()
    used_stale_fallback: bool = False

    @property
    def hops(self) -> int:
        """Photonic hops taken (0 when blocked)."""
        return max(0, len(self.path) - 1)

    def to_dict(self) -> dict:
        """JSON-stable form (simulator snapshots of in-flight flows)."""
        return {
            "kind": self.kind.value,
            "path": list(self.path),
            "reservations": [[a, b, list(planes)]
                             for (a, b, planes) in self.reservations],
            "used_stale_fallback": self.used_stale_fallback,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RouteDecision":
        """Inverse of :meth:`to_dict` (accepts JSON-decoded dicts)."""
        return cls(
            kind=RouteKind(payload["kind"]),
            path=tuple(int(n) for n in payload["path"]),
            reservations=tuple(
                (int(a), int(b), tuple(int(p) for p in planes))
                for (a, b, planes) in payload["reservations"]),
            used_stale_fallback=bool(
                payload.get("used_stale_fallback", False)))


@dataclass
class IndirectRouter:
    """Per-source routing logic over a shared allocator.

    Parameters
    ----------
    allocator:
        Ground-truth wavelength occupancy (shared by all sources).
    state:
        Piggybacked-view model; when ``None`` the router consults the
        allocator directly (perfect information).
    """

    allocator: WavelengthAllocator
    state: PiggybackState | None = None
    rng_seed: int = 0

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.rng_seed)
        self.stats = {kind: 0 for kind in RouteKind}
        self.stale_mispredictions = 0

    # -- public API --------------------------------------------------------------

    def route_flow(self, src: int, dst: int, slots: int = 1) -> RouteDecision:
        """Route one flow of ``slots`` sub-slots from ``src`` to ``dst``.

        Tries the direct wavelength first (§IV-A: "sources consider
        indirect paths only if the direct bandwidth ... does not
        suffice"), then a Valiant-chosen intermediate, then the
        intermediate's own fallback.
        """
        if src == dst:
            raise ValueError("source equals destination")
        code, path, reservations = self._route_core(src, dst, slots)
        decision = RouteDecision(
            kind=_KIND_BY_CODE[code], path=path,
            reservations=reservations,
            used_stale_fallback=code == DOUBLE_INDIRECT)
        self.stats[decision.kind] += 1
        return decision

    def route_tokens(self, src: int, dst: int, slots: int = 1
                     ) -> tuple[int, int, tuple]:
        """Route one flow without materializing a :class:`RouteDecision`.

        The object-free twin of :meth:`route_flow` for the batched
        admission path: identical allocator mutations, RNG consumption,
        and stats bookkeeping, but the outcome comes back as plain
        ``(kind_code, hops, reservations)`` — kind codes are the
        module-level :data:`DIRECT` ... :data:`BLOCKED` ints and
        ``reservations`` the usual (a, b, planes) tuples, ready to be
        scattered into sub-slot token arrays.
        """
        if src == dst:
            raise ValueError("source equals destination")
        code, path, reservations = self._route_core(src, dst, slots)
        self.stats[_KIND_BY_CODE[code]] += 1
        return code, max(0, len(path) - 1), reservations

    def release(self, decision: RouteDecision) -> None:
        """Release every reservation of a carried flow."""
        for (a, b, planes) in decision.reservations:
            self.allocator.release(a, b, list(planes))

    def snapshot(self) -> dict:
        """JSON-stable capture of the router's mutable state.

        The Valiant intermediate choice consumes the router RNG per
        indirect flow, so carrying a run across a checkpoint boundary
        requires the exact generator state — ``bit_generator.state``
        is a plain dict of ints and survives JSON round trips
        losslessly (Python ints are arbitrary precision).
        """
        return {
            "rng": self._rng.bit_generator.state,
            "stats": {kind.value: count
                      for kind, count in self.stats.items()},
            "stale_mispredictions": self.stale_mispredictions,
        }

    def restore(self, state: dict) -> None:
        """Inverse of :meth:`snapshot` (accepts JSON-decoded dicts)."""
        self._rng.bit_generator.state = state["rng"]
        self.stats = {kind: int(state["stats"].get(kind.value, 0))
                      for kind in RouteKind}
        self.stale_mispredictions = int(state["stale_mispredictions"])

    def candidate_intermediates(self, src: int, dst: int,
                                slots: int = 1) -> np.ndarray:
        """Intermediates that look free on both hops per src's view.

        Vectorized: the first hop (src -> mid) always uses the source's
        exact occupancy; the second hop (mid -> dst) uses the
        piggybacked board when one exists.
        """
        onward = self.allocator.free_slots_to(dst) >= slots
        return np.flatnonzero(
            self._candidate_rows([src], dst, slots, onward)[0])

    # -- internals ----------------------------------------------------------------

    def _route_core(self, src: int, dst: int, slots: int
                    ) -> tuple[int, tuple[int, ...], tuple]:
        """One flow's routing as plain data: (code, path, reservations).

        The walk has two levels. The source shuffles its Valiant
        candidates and takes the first whose onward hop is really
        free; every candidate before it was endorsed by the (stale)
        local view but is actually busy onward, so the flow reaches
        that intermediate, which runs the §IV-A fallback: it shuffles
        its *own* candidates toward ``dst`` and takes the first whose
        onward hop is really free. The first fallback that succeeds
        carries the flow over two intermediates.

        Nothing is allocated before a route is known to succeed, so
        the whole walk reads one fixed occupancy: ground-truth onward
        availability (column ``dst``) is evaluated once per flow, and
        the candidate masks of all mispredicted intermediates are read
        in one vectorized pass before their fallbacks run in turn.
        This replays a walk that reserves every hop as it tries it
        (and releases it on failure) exactly:

        * A fallback from ``mid`` reads only row ``mid`` (its first
          hops), ``mid``'s piggybacked board and column ``dst``. None
          of these contains the source's first hop ``(src, mid)``, so
          reserving that hop only once the fallback succeeds leaves
          every decision, plane choice and RNG draw unchanged.
        * A mispredicted *second* intermediate ends its branch of the
          walk: trying it and giving it up again would leave occupancy
          as it was and draws no RNG, so it only counts as a stale
          misprediction.
        * ``mid``'s direct wavelength toward ``dst`` is busy by
          definition of a misprediction, so a fallback goes straight to
          its candidate scan.

        First hops need no check either: candidates come from
        ``free_slots_from(src) >= slots`` on the same occupancy.
        """
        # 1. Direct wavelength.
        if self.allocator.has_capacity(src, dst, slots):
            return DIRECT, (src, dst), (self._reserve(src, dst, slots),)

        # 2. Valiant intermediate per the (possibly stale) local view.
        onward = self.allocator.free_slots_to(dst) >= slots
        candidates, first = self._valiant_pick(
            self._candidate_rows([src], dst, slots, onward)[0], onward)
        if first:
            # Stale information: these intermediates' onward hops are
            # actually busy, so each in turn performs its own indirect
            # routing (§IV-A) until one succeeds.
            mids = candidates[:first]
            rows = self._candidate_rows(mids, dst, slots, onward)
            for mid, row in zip(mids.tolist(), rows):
                self.stale_mispredictions += 1
                seconds, second = self._valiant_pick(row, onward)
                self.stale_mispredictions += second
                if second < len(seconds):
                    mid2 = int(seconds[second])
                    return (DOUBLE_INDIRECT, (src, mid, mid2, dst),
                            (self._reserve(src, mid, slots),
                             self._reserve(mid, mid2, slots),
                             self._reserve(mid2, dst, slots)))
        if first < len(candidates):
            mid = int(candidates[first])
            return (INDIRECT, (src, mid, dst),
                    (self._reserve(src, mid, slots),
                     self._reserve(mid, dst, slots)))

        return BLOCKED, (src,), ()

    def _candidate_rows(self, viewers: list[int] | np.ndarray, dst: int,
                        slots: int, onward: np.ndarray) -> np.ndarray:
        """(len(viewers), n_nodes) mask; row ``i`` marks the
        intermediates that look free on both hops toward ``dst`` per
        ``viewers[i]``'s view.

        The first hop uses each viewer's exact occupancy row. The
        second hop uses the viewer's piggybacked board, or ``onward``
        (the ground-truth ``free_slots_to(dst) >= slots`` mask) under
        perfect information.
        """
        alloc = self.allocator
        total = alloc.healthy_planes * alloc.flows_per_wavelength
        ok = alloc.slot_bitmaps(viewers) <= total - slots
        if self.state is None:
            ok &= onward
        else:
            # Boards count every plane: a view cannot know of failures.
            board_total = alloc.planes * alloc.flows_per_wavelength
            for row, viewer in zip(ok, viewers):
                row &= (self.state.board_of(int(viewer)).view[:, dst]
                        <= board_total - slots)
        ok[np.arange(len(ok)), viewers] = False
        ok[:, dst] = False
        return ok

    def _valiant_pick(self, mask: np.ndarray, onward: np.ndarray
                      ) -> tuple[np.ndarray, int]:
        """Shuffle the candidates in ``mask``; return them with the
        index of the first whose onward hop is really free (``len``
        when none). The candidates before that index are the
        mispredicted ones.
        """
        candidates = mask.nonzero()[0]
        self._rng.shuffle(candidates)
        free = onward[candidates].nonzero()[0]
        return candidates, int(free[0]) if free.size else len(candidates)

    def _reserve(self, a: int, b: int, slots: int
                 ) -> tuple[int, int, tuple[int, ...]]:
        """Allocate ``slots`` on ``(a, b)``; the reservation tuple."""
        return a, b, tuple(self.allocator.allocate(a, b, slots))
