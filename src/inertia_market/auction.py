"""Sealed-bid procurement auction with externality (VCG) payments.

The operator clears the market by minimizing the bid-weighted social cost
and pays each provider its externality: the increase in everyone else's
optimal cost that the provider's absence would cause, plus its own bid
value at the cleared quantity. Two clearing objectives are supported:

* trade-off mode (``run_auction``): the social cost is
  gamma * Gamma(m(mu)) + sum bids, and abstention optima use the same
  objective. One fill level decides every plan, and an abstention changes
  the aggregate fill cost only at the abstainer's bus, so all N payments
  come from the base solve's one sorted sweep of fill-price breakpoints
  rather than N re-solves: each abstention optimum is a short walk from
  the base optimum, on the abstainer's bus with that agent dropped from
  its merged tiers. Always feasible, and the mode under which the
  truthfulness and participation properties are audited.
* capped mode (``run_auction_hard``): quantities come from the
  minimum-cost solve under the worst-case cap, and abstentions keep the
  cap. The cap fixes the level, so the metric terms cancel out of payments,
  the externality is a pure cost difference, and an abstention re-prices
  only the abstainer's bus, on the base solve's market. An abstention can
  miss the cap when a provider is indispensable; that is reported as one
  error naming every such provider, never hidden.

The incentive audit clears each trial on one market of the trial's bids.
The truthful plan is that market's optimum. The deviation and the
abstention each swap the deviator's bus supply for one no larger than its
own: the same widths re-priced, or one agent fewer. So a trial is one
market build, one level search for the truthful optimum and two short
walks from it, with no full re-solve.

Clearing is scalar arithmetic on tuples of floats and loads no numpy. The
incentive audit draws its random bids from numpy's ``Generator``, which
only ``incentive_audit`` imports, when it runs: a seed keeps giving the
same draws, so stored audit results stay comparable, and clearing commands
skip the numpy import. ``random_convex_curve`` and ``deviation_curve`` take
that generator and make the same calls on it, in the same order, as numpy's
``uniform`` and ``dirichlet`` would, but turn the draws into prices and
widths in plain Python: on arrays of one to three numbers, numpy's per-call
overhead would cost more than the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AuditError, GridError, InfeasibleError, NumericsError, count, real, reals
from .planner import Agent, Allocation, CostCurve, _Market
from .robust import DisturbanceBudget

__all__ = [
    "AuctionOutcome",
    "AuditReport",
    "run_auction",
    "run_auction_hard",
    "incentive_audit",
    "random_convex_curve",
    "deviation_curve",
]

# Audit verdicts use this slack for floating-point noise.
AUDIT_TOL = 1e-6


@dataclass(frozen=True)
class AuctionOutcome:
    """Cleared plan, payments, and the audit trail of objectives.

    ``allocation`` is the cleared plan; its objective is the social cost
    the market minimized (the bid cost alone in capped mode).
    ``utilities`` is filled only when true costs are supplied (payment
    minus true cost of the cleared quantity). ``exclusion_objectives[k]``
    is the social cost of the optimal plan with agent k absent; it is
    never below ``objective`` because abstention shrinks the feasible set.
    The per-agent fields are tuples of floats.
    """

    allocation: Allocation
    payments: tuple[float, ...]
    utilities: tuple[float, ...] | None
    exclusion_objectives: tuple[float, ...]
    gamma: float
    mode: str  # "soft" (trade-off) or "hard" (capped)

    @property
    def mu(self) -> tuple[float, ...]:
        return self.allocation.mu

    @property
    def level(self) -> float:
        return self.allocation.level

    @property
    def objective(self) -> float:
        return self.allocation.objective


def _externality_payment(excl_obj, base_obj, own_bid_value) -> float:
    """VCG payment: others' optimum without the agent minus their share of the base optimum."""
    return excl_obj - (base_obj - own_bid_value)


def _outcome(bids, base: Allocation, excl_objs, gamma: float, mode: str, true_costs) -> AuctionOutcome:
    """Pay each agent its externality against ``base`` and, given true costs, its utility."""
    if true_costs is not None and len(true_costs) != len(bids):
        raise GridError(f"true_costs has {len(true_costs)} curves for {len(bids)} bids")
    real(max(excl_objs, default=0.0), "exclusion objective")  # finite ones keep every payment finite
    payments = tuple(
        _externality_payment(excl, base.objective, ag.curve.value(q))
        for excl, ag, q in zip(excl_objs, bids, base.mu)
    )
    utilities = None
    if true_costs is not None:
        utilities = tuple(p - c.value(q) for p, q, c in zip(payments, base.mu, true_costs))
    return AuctionOutcome(
        allocation=base,
        payments=payments,
        utilities=utilities,
        exclusion_objectives=tuple(excl_objs),
        gamma=gamma,
        mode=mode,
    )


def run_auction(bids, gamma, m0, budget: DisturbanceBudget, true_costs=None) -> AuctionOutcome:
    """Clear the trade-off market on the submitted bid curves.

    Quantities minimize gamma * Gamma(m(mu)) + sum bids; each agent is
    paid its externality under the same objective. All abstention optima
    come from the base solve's sweep: removing agent k changes the
    aggregate fill cost only through its own bus's supply, so each is a
    walk from the base optimum to a lower level. A zero-quantity
    agent's abstention changes nothing, so its exclusion objective is the
    base objective and its payment exactly zero.
    """
    market = _Market(m0, bids, budget)
    base = market.solve(gamma)
    weight = market.weight(gamma)
    gamma = float(gamma)
    excl_objs = [
        market.swap_optimum(k, weight)[0] if q > 0 else base.objective for k, q in enumerate(base.mu)
    ]
    return _outcome(bids, base, excl_objs, gamma, "soft", true_costs)


def run_auction_hard(bids, gamma_bar, m0, budget: DisturbanceBudget, true_costs=None) -> AuctionOutcome:
    """Clear the capped market and pay cost-difference externalities.

    Quantities come from the minimum-cost solve under
    Gamma(m) <= gamma_bar; agent k's payment is its abstention's cost
    increase plus its own bid value. The cap fixes the level, so that
    abstention re-prices only k's bus, on the base solve's market. The
    equivalent trade-off multiplier of ``dual_gamma_iterate`` comes from
    the same market and is reported in ``gamma``. When some abstentions
    cannot meet the cap, one :class:`InfeasibleError` names all those
    pivotal agents and their buses.
    """
    market = _Market(m0, bids, budget)
    level = market.required_level(gamma_bar)
    base = market.fill(level)
    excl_costs = [
        market.capped_exclusion_cost(k, level) if q > 0 else base.total_cost for k, q in enumerate(base.mu)
    ]
    pivotal = [k for k, cost in enumerate(excl_costs) if cost is None]
    if pivotal:
        raise InfeasibleError(
            lambda name: "the cap cannot be met if any of these pivotal agents abstains: "
            + ", ".join(f"{bids[k].id!r} (bus {name(bids[k].bus)})" for k in pivotal),
            bus=bids[pivotal[0]].bus,
        )
    # The plan's objective is 0.0 + its cost, so it equals the cost exactly.
    return _outcome(bids, base, excl_costs, market._multiplier(level), "hard", true_costs)


# ---------------------------------------------------------------------------
# Incentive audit


@dataclass(frozen=True)
class AuditReport:
    """Result of a clean truthfulness audit over randomized deviations.

    A violation beyond ``tolerance`` raises :class:`AuditError` instead,
    so a report only exists when every trial passed.
    """

    trials: int
    max_violation: float
    mean_truthful_utility: float
    mean_deviation_utility: float
    tolerance: float


# Log-price ranges of the audit's draws: bids are log-uniform in [0.1, 20],
# deviation factors in [0.25, 4].
_LOG_PRICE_LO = math.log(0.1)
_LOG_PRICE_SPAN = math.log(20.0) - _LOG_PRICE_LO
_LOG_FACTOR_LO = math.log(0.25)
_LOG_FACTOR_SPAN = math.log(4.0) - _LOG_FACTOR_LO


def random_convex_curve(rng) -> CostCurve:
    """Random admissible bid: 1-3 segments, log-uniform prices, bounded cap.

    The widths split a cap uniform in [1, 50] by a flat Dirichlet draw. The
    draws and their arithmetic are numpy's own: ``uniform(a, b)`` is
    ``a + (b - a) * random()``, and ``dirichlet(ones(n))`` scales n standard
    exponentials by the reciprocal of their left-to-right sum.
    """
    n_seg = int(rng.integers(1, 4))
    prices = sorted(math.exp(_LOG_PRICE_LO + _LOG_PRICE_SPAN * u) for u in rng.random(n_seg).tolist())
    cap = 1.0 + 49.0 * rng.random()
    draws = rng.standard_exponential(n_seg).tolist()
    acc = 0.0
    for e in draws:  # not sum(): from Python 3.12 it compensates, numpy does not
        acc += e
    inv = 1.0 / acc
    return CostCurve(segments=tuple((cap * (e * inv), p) for e, p in zip(draws, prices)))


def deviation_curve(rng, curve: CostCurve) -> CostCurve:
    """Random deviation of a true curve: scale marginal prices, keep widths.

    Scale factors are log-uniform in [0.25, 4], covering under- and
    over-bidding; prices are re-sorted so the deviation stays an
    admissible convex message.
    """
    segments = curve.segments
    draws = rng.random(len(segments)).tolist()
    prices = sorted(p * math.exp(_LOG_FACTOR_LO + _LOG_FACTOR_SPAN * u) for (_, p), u in zip(segments, draws))
    return CostCurve(segments=tuple((w, p) for (w, _), p in zip(segments, prices)))


def _trial_utilities(market, k: int, deviation: CostCurve, weight: float):
    """Agent ``k``'s utilities from bidding truthfully and from ``deviation``, at ``market.weight(gamma)``.

    ``market`` holds the trial's bids with k bidding its true curve, so its
    own optimum is the truthful plan. The abstention and the deviation
    change only k's bus, so each is a walk from that optimum on the same
    sweep. Both bids are paid against the same abstention objective.
    """
    true_cost = market.agents[k].curve
    truthful = market.optimum(k, weight)
    excl_obj, _ = market.swap_optimum(k, weight)
    plans = ((true_cost, truthful), (deviation, market.swap_optimum(k, weight, deviation)))
    return tuple(
        _externality_payment(excl_obj, objective, bid.value(q)) - true_cost.value(q)
        for bid, (objective, q) in plans
    )


def incentive_audit(true_costs, gamma, m0, budget: DisturbanceBudget, trials: int, seed: int) -> AuditReport:
    """Randomized dominant-strategy audit of the trade-off auction.

    Each trial draws an agent, a random deviation of its true curve, and
    random admissible bids for everyone else, then checks that truthful
    bidding never loses more than the tolerance. A trial clears on one
    market of its bids: the truthful plan is that market's optimum, and the
    deviation and the abstention each swap the deviator's bus supply for
    one no larger than its own. A violation beyond the tolerance raises
    :class:`AuditError` carrying the instance for replay.
    """
    import numpy as np  # the audit's draws only; see the module docstring

    trials = count(trials, "trials", least=1)
    seed = count(seed, "seed", least=0)
    if not true_costs or not all(
        isinstance(ag, Agent) and isinstance(ag.curve, CostCurve) for ag in true_costs
    ):
        raise GridError(
            f"the audit needs one agent or more; agents must be Agents with CostCurves, got {true_costs!r}"
        )
    gamma = real(gamma, "gamma", positive=True)
    rng = np.random.default_rng(seed)
    m0 = reals(m0, "residual inertia", positive=True)
    n_agents = len(true_costs)
    max_violation = -math.inf
    sum_truth = 0.0
    sum_dev = 0.0
    for trial in range(trials):
        k = int(rng.integers(n_agents))
        bids = [
            ag if j == k else Agent(id=ag.id, bus=ag.bus, curve=random_convex_curve(rng))
            for j, ag in enumerate(true_costs)
        ]
        deviation = deviation_curve(rng, true_costs[k].curve)
        market = _Market(m0, bids, budget)
        if not trial:
            weight = market.weight(gamma)  # it reads only gamma, pi_tot and min(m0), as every trial's would
        u_truth, u_dev = _trial_utilities(market, k, deviation, weight)
        violation = u_dev - u_truth
        max_violation = max(max_violation, violation)
        sum_truth += u_truth
        sum_dev += u_dev
        if violation > AUDIT_TOL:
            instance = {
                "trial": trial,
                "agent": true_costs[k].id,
                "gamma": gamma,
                "pi_tot": budget.pi_tot,
                "m0": list(m0),
                "bids": [
                    {"id": ag.id, "bus": int(ag.bus), "segments": list(map(list, ag.curve.segments))}
                    for ag in bids
                ],
                "deviation": list(map(list, deviation.segments)),
                "u_truth": float(u_truth),
                "u_dev": float(u_dev),
            }
            raise AuditError(
                f"truthful bidding lost {violation:.3e} (> {AUDIT_TOL:.0e}) for agent "
                f"{true_costs[k].id!r} on trial {trial}",
                instance=instance,
            )
    # weight() keeps each utility finite; their sums over the trials can still overflow.
    real(abs(max_violation) + abs(sum_truth) + abs(sum_dev), "summed audit utilities", error=NumericsError)
    return AuditReport(
        trials=trials,
        max_violation=max_violation,
        mean_truthful_utility=sum_truth / trials,
        mean_deviation_utility=sum_dev / trials,
        tolerance=AUDIT_TOL,
    )
