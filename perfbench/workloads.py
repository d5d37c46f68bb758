"""The benchmark's workloads: scenario configs built from the seed.

Three arena replays, each sized so a different layer of the fabric
simulator does most of the work, and one service workload. Every
replay comes in two sizes: ``full`` (what a benchmark run measures)
and ``smoke`` (the same shape over fewer epochs, for the benchmark's
own tests). The seed never changes the shape of a workload; it picks
the base seeds of the per-epoch traffic (and, for the service, of each
session), so one seed always gives the same inputs.
"""

from __future__ import annotations

REPLAYS = ("cori_week", "hotspot_overflow", "rack_uniform")
#: Flows of each cori_week checkpoint-burst epoch (see replay_config).
CORI_BURST_FLOWS = 32
SERVICE = "service_sessions"
WORKLOADS = REPLAYS + (SERVICE,)
SIZES = ("full", "smoke")


def replay_config(workload: str, size: str = "full") -> dict:
    """``Scenario.to_config()``-shaped dict of one replay workload."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r} (known: {SIZES})")
    full = size == "full"
    if workload == "cori_week":
        # The paper's Cori replay: four diurnal cycles at six-minute
        # epochs, nightly checkpoint bursts, a plane failure at
        # epoch 840 and its repair at 920. Tiny batches (~13 flows).
        # The burst's Pareto(12, 1.6) count is fixed at its mean, 32:
        # drawn, about one input in six got a 900-1400 flow burst
        # whose overflow admission doubled the whole race (input cost
        # CV 15%, against 4% fixed).
        from repro.scenarios.library import week_cori_scenario
        config = week_cori_scenario(
            days=4, epochs_per_day=240 if full else 12).to_config()
        config["episodes"] = [
            {**episode, "flows": CORI_BURST_FLOWS}
            if episode["kind"] == "hotspot" else episode
            for episode in config["episodes"]]
        return config
    if workload == "hotspot_overflow":
        # Saturated regime: two hotspots plus uniform chatter on 32
        # nodes, 240 flows an epoch; a quarter of AWGR's carried flows
        # need an indirect route. Each hotspot's load sits at its
        # destination's ingress capacity, so with Poisson counts the
        # number of blocked flows (the costliest route calls) swung
        # an input's cost by 28% (CV); fixed counts leave 12%. Short
        # races, several inputs a run (see INPUTS_PER_RUN).
        return {
            "name": "hotspot_overflow", "n_nodes": 32,
            "n_epochs": 6 if full else 2,
            "episodes": [
                {"kind": "hotspot", "gbps": 25.0, "params": {"hotspot": 0},
                 "flows": 80},
                {"kind": "hotspot", "gbps": 25.0, "params": {"hotspot": 1},
                 "flows": 80},
                {"kind": "uniform", "gbps": 25.0, "flows": 80},
            ],
            "events": [],
            "description": "two 80-flow hotspots over 80 uniform flows "
                           "an epoch, 25 Gbps flows",
        }
    if workload == "rack_uniform":
        # The 350-MCM rack of the paper's feasibility study: ~1574
        # flows an epoch, all direct, so the WSS scheduler and the
        # piggyback state broadcast dominate.
        return {
            "name": "rack_uniform", "n_nodes": 350,
            "n_epochs": 6 if full else 2,
            "episodes": [
                {"kind": "uniform", "gbps": 25.0,
                 "flows": {"dist": "poisson", "mean": 1400}},
                {"kind": "cpu-mem"},
            ],
            "events": [],
            "description": "Poisson(1400) uniform 25 Gbps flows plus "
                           "a cpu-mem episode from half the rack",
        }
    raise ValueError(f"unknown replay workload {workload!r} "
                     f"(known: {REPLAYS})")


#: Inputs one run races per replay workload; a run reports the median
#: over its inputs. 6-epoch hotspot races vary by 12% (CV) between
#: inputs, Cori replays (fixed bursts) by 4-5%, the bulk rack batches
#: least.
INPUTS_PER_RUN = {"cori_week": 3, "hotspot_overflow": 8, "rack_uniform": 1}


def replay_inputs(workload: str, seed: int) -> list[int]:
    """Base seeds of the inputs a run at ``seed`` races."""
    count = INPUTS_PER_RUN[workload]
    return [seed * count + j for j in range(count)]


def first_epoch_input(seed: int, n: int) -> int:
    """Base seed of the ``n``-th first-epoch race of a run at ``seed``.

    Every first-epoch race draws a fresh input, so the median covers
    many draws of a first epoch instead of one repeated draw.
    """
    return seed * 1000 + n


def session_config() -> dict:
    """The scenario every service session plays, sent inline.

    The registered reconfiguration-lag transient (12 nodes, 12 epochs:
    uniform chatter, a hotspot and a slowed scheduler from epoch 6)
    plus a 75 Gbps collective ring on four nodes, whose 3-wavelength
    flows overflow AWGR's direct wavelengths every epoch, so sessions
    load the overflow layer too. Not diurnal_cori: its Pareto
    checkpoint burst sends one AWGR session in ten into overflow
    admission at 6-13x the median cost, so a run's throughput depended
    on which seeds it drew; that cost is hotspot_overflow's to measure.
    """
    from repro.scenarios.library import reconfig_lag_scenario

    config = reconfig_lag_scenario().to_config()
    config["name"] = "service_mix"
    config["episodes"] = [*config["episodes"], {
        "kind": "collective", "gbps": 75.0,
        "params": {"nodes": [0, 2, 4, 6]}}]
    return config


FORK_AT = 6
#: The what-if of every fork: a fabric plane fails at the fork point.
FORK_EVENTS = ({"epoch": FORK_AT, "action": "fail_plane", "value": 1},)


def session_plan(seed: int, index: int, backends: tuple[str, ...]
                 ) -> tuple[str, int]:
    """Backend and base seed of the service client's ``index``-th
    session: the client cycles through every registered backend."""
    return backends[index % len(backends)], seed + index
