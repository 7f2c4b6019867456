"""Seeded inputs for the in-process workloads.

Every input is a pure function of an integer market seed, made in two
steps: ``draw_*`` draws its numbers as plain data (numpy arrays, ints,
floats and tuples), and ``build_*`` turns them into the package's objects
through its public constructors only (``CostCurve``, ``Agent``,
``DisturbanceBudget``, and ``Scenario`` for the report leg). Set-up time
counts the build step, not the draw: the draw is the benchmark's own code
and would not change from one version of the program to the next. A run's
``--seed`` never reaches these functions directly: it picks the order in
which a run visits the fixed pool of market seeds whose outputs are stored
in ``refs/`` (see ``run.py``), so every operation can be checked.

Rules for the (32 buses, 100 agents) markets used by ``capped`` and
``tradeoff``, and why:

* Every bus has at least two agents (64 placed two per bus, the other 36
  on uniformly drawn buses). A bus with one agent has no supply left when
  that agent abstains.
* The cap level L = pi_tot / gamma_bar lies strictly between the lowest
  residual inertia and the lowest per-bus reach *without that bus's
  largest agent*, ``min_b (m0_b + capacity_b - max_cap_b)``. So the cap
  binds, and every single-agent abstention re-solve stays feasible: a
  pivotal agent would make ``run_auction_hard`` raise, and the run would
  time an error path instead of the clearing.
* The trade-off weight gamma puts the optimum level at a drawn target
  L_t strictly between the lowest residual inertia and the reach cap
  ``min_b (m0_b + capacity_b)``: gamma = L_t**2 * S(L_t) / pi_tot, where
  S is the summed marginal fill price of the buses below L_t. The target
  is a continuous draw, so it sits inside a linear piece and the
  stationarity condition of gamma * pi_tot / L + C(L) holds there exactly.
  An optimum at either end would skip the interior search the workload
  is meant to time.
* Bids equal true costs (truthful), as in the bundled case study.

Audit instances follow the defaults of ``scripts/audit_sweep.py``: 1-3
buses, 1-5 agents, residual inertia U(0.5, 4), pi_tot U(0.5, 20), gamma
log-uniform in [0.5, 200], 20 trials per instance. The ``audit`` workload
audits them in fixed batches of AUDIT_BATCH consecutive instances, one
batch per operation, as a sweep does. One instance takes about 7 ms, and
on the measuring machine about 1% of operations stall for a further
4-7 ms, so a one-instance tail latency (about p99.8 over a run) measured
those stalls: ten 40 s runs spread by 0.21 and 0.26 (interquartile range
over median), above the largest bound a metric may have.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from inertia_market import Agent, CostCurve, DisturbanceBudget, Scenario, ScenarioAgent

N_BUSES = 32
N_AGENTS = 100
AUDIT_TRIALS = 20
AUDIT_BATCH = 8

# Pool sizes: every operation of a run draws its input from these pools.
MARKET_POOL = 32
AUDIT_POOL = 256

# First word of each generator's seed sequence, so the streams never overlap.
_MARKET_STREAM = 1
_AUDIT_STREAM = 2


def draw_segments(rng, price_lo, price_hi, cap_lo, cap_hi) -> tuple:
    """1-3 (width, price) segments: log-uniform sorted prices, uniform total capacity."""
    n_seg = int(rng.integers(1, 4))
    prices = np.sort(np.exp(rng.uniform(np.log(price_lo), np.log(price_hi), size=n_seg)))
    cap = rng.uniform(cap_lo, cap_hi)
    widths = cap * rng.dirichlet(np.ones(n_seg))
    return tuple((float(w), float(p)) for w, p in zip(widths, prices))


def marginal_fill_price(curves, need: float) -> float:
    """Price of the cheapest unused segment after buying ``need`` at one bus.

    ``curves`` holds the segment tuples of the bus's agents.
    """
    filled = 0.0
    for price, width in sorted((p, w) for segments in curves for w, p in segments):
        filled += width
        if filled > need:
            return price
    raise ValueError("need exceeds the bus capacity")


@dataclass(frozen=True)
class Market:
    """One market with both clearing modes' parameters."""

    m0: np.ndarray
    agents: list
    budget: DisturbanceBudget
    gamma_bar: float
    gamma: float
    scenario: Scenario


def draw_market(seed: int, n_buses: int = N_BUSES, n_agents: int = N_AGENTS) -> dict:
    """The numbers of the market of ``seed``, as plain data.

    The size arguments exist for the benchmark's tests.
    """
    if n_agents < 2 * n_buses:
        raise ValueError("need at least two agents per bus")
    rng = np.random.default_rng([_MARKET_STREAM, seed])
    m0 = rng.uniform(5.0, 15.0, size=n_buses)
    buses = np.concatenate(
        [np.repeat(np.arange(n_buses), 2), rng.integers(n_buses, size=n_agents - 2 * n_buses)]
    )
    buses = [int(b) for b in rng.permutation(buses)]
    curves = [draw_segments(rng, 0.5, 20.0, 4.0, 30.0) for _ in range(n_agents)]
    pi_tot = float(rng.uniform(5.0, 20.0))

    at_bus = [[c for c, b in zip(curves, buses) if b == i] for i in range(n_buses)]
    caps = [[sum(w for w, _ in c) for c in cs] for cs in at_bus]
    lo = float(np.min(m0))
    reach_minus_largest = min(m0[i] + sum(caps[i]) - max(caps[i]) for i in range(n_buses))
    level_cap = lo + rng.uniform(0.3, 0.9) * (reach_minus_largest - lo)
    reach = min(m0[i] + sum(caps[i]) for i in range(n_buses))
    level_soft = lo + rng.uniform(0.3, 0.8) * (reach - lo)
    slope = sum(
        marginal_fill_price(at_bus[i], level_soft - m0[i])
        for i in range(n_buses)
        if m0[i] < level_soft
    )
    return {
        "name": f"market-{seed}",
        "m0": m0,
        "buses": buses,
        "curves": curves,
        "pi_tot": pi_tot,
        "gamma_bar": pi_tot / level_cap,
        "gamma": level_soft**2 * slope / pi_tot,
    }


def build_market(drawn: dict) -> Market:
    """A ``draw_market`` result built through the package's constructors."""
    m0, buses = drawn["m0"], drawn["buses"]
    curves = [CostCurve(segments=c) for c in drawn["curves"]]
    labels = tuple(str(i + 1) for i in range(len(m0)))
    ids = [f"g{k}" for k in range(len(curves))]
    budget = DisturbanceBudget(pi_tot=drawn["pi_tot"], n=len(m0))
    scenario = Scenario(
        name=drawn["name"],
        timescale="planning",
        kappa=1,
        bus_labels=labels,
        m0=m0,
        pi=None,
        budget=budget,
        agents=tuple(
            ScenarioAgent(id=a, bus=labels[b], bid=c, cost=c) for a, b, c in zip(ids, buses, curves)
        ),
        gamma=None,
        gamma_bar=drawn["gamma_bar"],
        grid=None,
        grid_illustrative=False,
        notes=None,
    )
    return Market(
        m0=m0,
        agents=[Agent(id=a, bus=b, curve=c) for a, b, c in zip(ids, buses, curves)],
        budget=budget,
        gamma_bar=drawn["gamma_bar"],
        gamma=drawn["gamma"],
        scenario=scenario,
    )


def make_market(seed: int, n_buses: int = N_BUSES, n_agents: int = N_AGENTS) -> Market:
    return build_market(draw_market(seed, n_buses, n_agents))


@dataclass(frozen=True)
class AuditInstance:
    m0: np.ndarray
    agents: list
    budget: DisturbanceBudget
    gamma: float
    trials: int
    audit_seed: int


def draw_audit_instance(seed: int) -> dict:
    """The numbers of audit instance ``seed``, as plain data."""
    rng = np.random.default_rng([_AUDIT_STREAM, seed])
    n = int(rng.integers(1, 4))
    m0 = rng.uniform(0.5, 4.0, size=n)
    n_agents = int(rng.integers(1, 6))
    agents = [
        (int(rng.integers(n)), draw_segments(rng, 0.1, 20.0, 1.0, 50.0)) for _ in range(n_agents)
    ]
    pi_tot = float(rng.uniform(0.5, 20.0))
    gamma = float(np.exp(rng.uniform(np.log(0.5), np.log(200.0))))
    return {"m0": m0, "agents": agents, "pi_tot": pi_tot, "gamma": gamma, "audit_seed": 1000 + seed}


def build_audit_instance(drawn: dict) -> AuditInstance:
    m0 = drawn["m0"]
    return AuditInstance(
        m0=m0,
        agents=[
            Agent(id=f"a{k}", bus=bus, curve=CostCurve(segments=segments))
            for k, (bus, segments) in enumerate(drawn["agents"])
        ],
        budget=DisturbanceBudget(pi_tot=drawn["pi_tot"], n=len(m0)),
        gamma=drawn["gamma"],
        trials=AUDIT_TRIALS,
        audit_seed=drawn["audit_seed"],
    )


def make_audit_instance(seed: int) -> AuditInstance:
    return build_audit_instance(draw_audit_instance(seed))


def draw_inputs(workload: str) -> dict:
    """The numbers of every input of a workload's pool, keyed by the pool key."""
    if workload in ("capped", "tradeoff"):
        return {str(s): draw_market(s) for s in range(MARKET_POOL)}
    if workload == "audit":
        return {str(s): draw_audit_instance(s) for s in range(AUDIT_POOL)}
    raise ValueError(f"no in-process inputs for workload {workload!r}")


def build_inputs(workload: str, drawn: dict) -> dict:
    """``draw_inputs(workload)`` built through the package's constructors.

    Audit instances come in batches keyed by batch number: batch b holds
    instances AUDIT_BATCH * b to AUDIT_BATCH * (b + 1) - 1.
    """
    if workload != "audit":
        return {key: build_market(d) for key, d in drawn.items()}
    instances = [build_audit_instance(drawn[str(s)]) for s in range(len(drawn))]
    return {
        str(b): tuple(instances[b * AUDIT_BATCH : (b + 1) * AUDIT_BATCH])
        for b in range(len(instances) // AUDIT_BATCH)
    }
