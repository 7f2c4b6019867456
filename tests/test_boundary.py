"""The boundary contract, fuzzed: every market-layer call returns a checked result or raises a package error.

Each number a call takes is drawn from ordinary values or from adversarial
ones: zeros of both signs, subnormals, 1e308, the infinities, NaN, bools,
strings, None, ``Fraction``, ``Decimal`` and numpy scalars. A call must
either raise an :class:`InertiaMarketError` or return a result whose
fields are finite, whose level lies in [min m0, reach cap], whose capped
worst case meets the cap, and whose truthful utilities are nonnegative up
to rounding of the payment scale. The numpy matrix functions are out of
scope.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from inertia_market import (
    Agent,
    AuctionOutcome,
    CostCurve,
    DisturbanceBudget,
    GridError,
    InertiaMarketError,
    InfeasibleError,
    case_study,
    dual_gamma_iterate,
    expand_performance_constraint,
    h2_primary_effort_closed,
    incentive_audit,
    regulatory_allocation,
    run_auction,
    run_auction_hard,
    solve_centralized_hard,
    solve_centralized_soft,
    worst_case_metric,
)

ADVERSARIAL = [
    0, 0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 6e307, 1e308,
    math.inf, -math.inf, math.nan, -1.0, True, False, "1.5", "x", b"2", None,
    Fraction(3, 2), Decimal("2.5"), Decimal("nan"), Decimal("sNaN"),
    np.float64(2.0), np.float32(0.5), np.int64(3), np.float64(np.nan), 1j,
]  # fmt: skip

ordinary = st.floats(0.05, 60.0)
adversarial = st.sampled_from(ADVERSARIAL)
number = st.one_of(ordinary, adversarial)
BUS_INDICES = [True, False, 1.0, -1, 99, np.int64(0), "0", None]
BOUNDARY = settings(
    max_examples=120, derandomize=True, deadline=None, suppress_health_check=list(HealthCheck)
)


@st.composite
def curves(draw, value=number, malformed=True):
    """Segment lists, sorted by price when every price is a plain float so most of them are admissible."""
    segments = draw(st.lists(st.tuples(value, value), min_size=1, max_size=3))
    if all(type(p) is float and not math.isnan(p) for _, p in segments):
        segments.sort(key=lambda s: s[1])
    if malformed and draw(st.integers(0, 9)) == 0:
        segments.append(draw(st.sampled_from([(1.0,), (1.0, 2.0, 3.0), "ab", None])))
    return segments


@st.composite
def markets(draw):
    """(m0, agents, budget): an ordinary market with up to three of its numbers made adversarial,
    and now and then a bad bus index, a bad m0 or a non-agent.

    None when that already fails a constructor (``CostCurve`` or
    ``DisturbanceBudget``), whose own tests cover it.
    """
    rnd = random.Random(draw(st.integers(0, 2**32)))  # spreads the injections evenly; integers() favours 0
    n = draw(st.integers(1, 3))
    m0 = draw(st.lists(ordinary, min_size=n, max_size=n))
    agents = []
    for k in range(draw(st.integers(1, 4))):
        bus = draw(st.integers(0, n - 1))
        agents.append([f"a{k}", bus, [list(segment) for segment in draw(curves(ordinary, malformed=False))]])
    slots = [(m0, i) for i in range(n)] + [(seg, j) for _, _, segs in agents for seg in segs for j in (0, 1)]
    pi_tot = [draw(ordinary)]
    slots.append((pi_tot, 0))
    if rnd.random() < 0.1:
        agents[rnd.randrange(len(agents))][1] = rnd.choice(BUS_INDICES)
    for seq, i in rnd.sample(slots, min(len(slots), rnd.choice([0, 1, 1, 2, 3]))):
        seq[i] = rnd.choice(ADVERSARIAL)
    if rnd.random() < 0.05:
        m0 = rnd.choice([None, "12", 5.0])
    try:
        agents = [Agent(i, bus, CostCurve(tuple(map(tuple, segs)))) for i, bus, segs in agents]
        budget = DisturbanceBudget(pi_tot[0], n)
    except InertiaMarketError:
        return None
    if rnd.random() < 0.05:
        agents.append("not an agent")
    return m0, agents, budget


def _floats(values):
    return all(type(x) is float and math.isfinite(x) for x in values)


def _reach_cap(m0, agents):
    m0 = [float(x) for x in m0]
    reach = list(m0)
    for ag in agents:
        reach[ag.bus] += ag.curve.cap
    return min(m0), min(reach)


def check_allocation(alloc, m0, agents, budget, gamma_bar=None):
    assert _floats(alloc.mu) and _floats(alloc.m) and _floats(alloc.objective_parts), alloc
    lo, cap = _reach_cap(m0, agents)
    slack = 1e-9 * max(1.0, cap)
    if gamma_bar is None:
        assert lo - slack <= alloc.level <= cap + slack, (alloc.level, lo, cap)
    else:
        assert math.isfinite(alloc.level) and alloc.level <= cap + slack, (alloc.level, cap)
        assert budget.pi_tot * max(1.0 / x for x in alloc.m) <= float(gamma_bar) * (1 + 1e-9), alloc


def check_outcome(outcome: AuctionOutcome, m0, agents, budget, gamma_bar=None):
    check_allocation(outcome.allocation, m0, agents, budget, gamma_bar)
    assert _floats(outcome.payments) and _floats(outcome.exclusion_objectives) and _floats(outcome.utilities)
    assert math.isfinite(outcome.gamma)
    scale = max([1.0, abs(outcome.objective)] + [abs(p) for p in outcome.payments])
    # A level resolves quantities to its ulp; at the dearest bid price that rounds payments too.
    resolution = max(p for ag in agents for _, p in ag.curve.segments) * math.ulp(outcome.level) * 4
    assert min(outcome.utilities) >= -(1e-9 * scale + resolution), (outcome.utilities, scale, resolution)


def outcome_or_error(call, check):
    try:
        result = call()
    except InertiaMarketError:
        return
    check(result)


@given(segments=curves())
@BOUNDARY
def test_cost_curve(segments):
    def check(curve):
        assert all(math.isfinite(w) and w > 0 and math.isfinite(p) and p >= 0 for w, p in curve.segments)
        assert math.isfinite(curve.cap) and math.isfinite(curve.value(curve.cap))

    outcome_or_error(lambda: CostCurve(tuple(segments) if isinstance(segments, list) else segments), check)


@given(
    pi_tot=number,
    n=st.one_of(st.integers(-1, 3), st.sampled_from(BUS_INDICES)),
    m=st.lists(number, max_size=3),
    gamma_bar=number,
)
@BOUNDARY
def test_budget_and_worst_case(pi_tot, n, m, gamma_bar):
    try:
        budget = DisturbanceBudget(pi_tot, n)
    except InertiaMarketError:
        return
    assert type(budget.pi_tot) is float and math.isfinite(budget.pi_tot) and budget.pi_tot >= 0
    assert type(budget.n) is int and budget.n >= 1

    def check_worst(wc):
        assert _floats((wc.gamma, wc.rho)) and _floats(wc.pi_star) and 0 <= wc.argmax_bus < budget.n

    def check_level(level):
        assert type(level) is float and math.isfinite(level) and level >= 0

    outcome_or_error(lambda: worst_case_metric(m, budget), check_worst)
    outcome_or_error(lambda: expand_performance_constraint(gamma_bar, budget), check_level)


@given(m=st.lists(number, max_size=3), pi=st.lists(number, max_size=3), kappa=st.sampled_from([1, 2]))
@BOUNDARY
def test_h2_primary_effort_closed(m, pi, kappa):
    def check(value):
        assert type(value) is float and math.isfinite(value) and value >= 0

    outcome_or_error(lambda: h2_primary_effort_closed(m, pi, kappa=kappa), check)


@given(market=markets(), gamma=st.one_of(ordinary, ordinary, adversarial))
@BOUNDARY
def test_trade_off_calls(market, gamma):
    if market is None:
        return
    m0, agents, budget = market
    costs = [ag.curve for ag in agents] if all(isinstance(ag, Agent) for ag in agents) else None
    outcome_or_error(
        lambda: solve_centralized_soft(gamma, m0, agents, budget),
        lambda alloc: check_allocation(alloc, m0, agents, budget),
    )
    outcome_or_error(
        lambda: run_auction(agents, gamma, m0, budget, true_costs=costs),
        lambda out: check_outcome(out, m0, agents, budget),
    )

    def check_audit(report):
        fields = [report.max_violation, report.mean_truthful_utility, report.mean_deviation_utility]
        assert all(math.isfinite(x) for x in fields) and report.trials == 2

    if costs is not None:
        outcome_or_error(lambda: incentive_audit(agents, gamma, m0, budget, trials=2, seed=0), check_audit)


@given(market=markets(), gamma_bar=st.one_of(ordinary, ordinary, adversarial))
@BOUNDARY
def test_capped_calls(market, gamma_bar):
    if market is None:
        return
    m0, agents, budget = market
    costs = [ag.curve for ag in agents] if all(isinstance(ag, Agent) for ag in agents) else None

    def check_dual(result):
        gamma, alloc = result
        assert type(gamma) is float and math.isfinite(gamma) and gamma >= 0
        check_allocation(alloc, m0, agents, budget, gamma_bar)

    for solve in (solve_centralized_hard, regulatory_allocation):
        outcome_or_error(
            lambda: solve(gamma_bar, m0, agents, budget),
            lambda alloc: check_allocation(alloc, m0, agents, budget, gamma_bar),
        )
    outcome_or_error(lambda: dual_gamma_iterate(gamma_bar, m0, agents, budget), check_dual)
    outcome_or_error(
        lambda: run_auction_hard(agents, gamma_bar, m0, budget, true_costs=costs),
        lambda out: check_outcome(out, m0, agents, budget, gamma_bar),
    )


FREE = [Agent("a", 0, CostCurve.linear(0.0, 1.0)), Agent("b", 0, CostCurve.linear(0.0, 1.0))]
TINY = DisturbanceBudget(1e-20, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: solve_centralized_soft(1e-300, [1000.0], FREE[:1], TINY),
        lambda: run_auction(FREE, 1e-300, [1000.0], TINY),
        lambda: incentive_audit(FREE, 1e-300, [1000.0], TINY, trials=2, seed=0),
    ],
    ids=["soft", "auction", "audit"],
)
def test_underflowing_weight_is_a_grid_error(call):
    """weight / cap^2 rounds to 0 on a zero-price piece, whose slope the level search would divide by."""
    with pytest.raises(GridError, match="over the squared reach cap .* underflows"):
        call()


CASE = case_study()
CASE_AGENTS = CASE.market_agents("bid")


@pytest.mark.parametrize(
    "solve",
    [
        solve_centralized_hard,
        regulatory_allocation,
        dual_gamma_iterate,
        lambda gamma_bar, m0, agents, budget: run_auction_hard(agents, gamma_bar, m0, budget),
    ],
    ids=["hard", "regulatory", "dual", "auction-hard"],
)
@pytest.mark.parametrize("gamma_bar", [1e-300, 1e-320, 5e-324])
def test_overflowing_cap_level_is_infeasible(solve, gamma_bar):
    """pi_tot / gamma_bar overflows to inf below about 1e-308; no bus reaches it, and the weakest is named."""
    with pytest.raises(InfeasibleError, match="bus 3 can reach at most") as exc_info:  # index 3, label '5'
        solve(gamma_bar, CASE.m0, CASE_AGENTS, CASE.budget)
    assert exc_info.value.bus == CASE.bus_labels.index("5")


def test_overflowing_cap_level_is_refused_by_the_expansion():
    with pytest.raises(GridError, match="inertia level pi_tot / gamma_bar must be .* finite, got inf"):
        expand_performance_constraint(1e-320, CASE.budget)


@pytest.mark.parametrize("gamma, pi_tot", [(1e308, 10.0), (1e200, 1e200), (1e308, 1.0)])
def test_overflowing_weight_is_a_grid_error(gamma, pi_tot):
    """gamma * pi_tot (over min m0) overflows: payments would be infinite."""
    agents = [Agent("a", 0, CostCurve.linear(1.0, 5.0)), Agent("b", 0, CostCurve.linear(2.0, 5.0))]
    budget = DisturbanceBudget(pi_tot, 1)
    for call in (
        lambda: solve_centralized_soft(gamma, [0.5], agents, budget),
        lambda: run_auction(agents, gamma, [0.5], budget),
        lambda: incentive_audit(agents, gamma, [0.5], budget, trials=2, seed=0),
    ):
        with pytest.raises(GridError, match="gamma \\* pi_tot"):
            call()


def test_zero_weight_keeps_the_lowest_level():
    """pi_tot 0 makes the weight exactly 0: no metric term, so nothing is bought."""
    agents = [Agent("a", 0, CostCurve.linear(0.0, 1.0)), Agent("b", 1, CostCurve.linear(1.0, 1.0))]
    budget = DisturbanceBudget(0.0, 2)
    alloc = solve_centralized_soft(1e-300, [1000.0, 3.0], agents, budget)
    assert alloc.level == 3.0 and alloc.mu == (0.0, 0.0) and alloc.objective == 0.0
    outcome = run_auction(agents, 1e308, [1000.0, 3.0], budget)
    assert outcome.level == 3.0 and outcome.payments == (0.0, 0.0)
