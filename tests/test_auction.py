"""Auction clearing, externality payments, and the truthfulness audit."""

import dataclasses
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from inertia_market import (
    Agent,
    AuditError,
    CostCurve,
    DisturbanceBudget,
    GridError,
    InfeasibleError,
    case_study,
    incentive_audit,
    run_auction,
    run_auction_hard,
    solve_centralized_soft,
    worst_case_metric,
)
from inertia_market import planner
from inertia_market.auction import deviation_curve, random_convex_curve
from inertia_market.planner import _BusSupply

from helpers import (
    deviation_curve_oracle,
    incentive_audit_resolve_oracle,
    random_convex_curve_oracle,
    random_market,
    run_auction_hard_resolve_oracle,
    run_auction_resolve_oracle,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TIED_PRICES = (0.0, 0.5, 1.0, 2.0, 5.0)


def dense_market(rng, tied):
    """50 to 80 agents crowded onto one or two buses.

    ``tied`` draws prices from ``TIED_PRICES`` and gives every segment the
    width 0.3, so a bus's tiers hold many members, and knots re-summed
    without an agent, or in another order, land within an ulp of the
    sweep's breakpoints.
    """
    grids = {"price_grid": TIED_PRICES, "width_grid": (0.3,)} if tied else {}
    return random_market(rng, max_buses=2, max_agents=80, min_agents=50, **grids)


def single_bus_instance():
    agents = [
        Agent("A", 0, CostCurve.linear(1.0, 2.0)),
        Agent("B", 0, CostCurve.linear(3.0, 10.0)),
    ]
    return np.array([1.0]), agents, DisturbanceBudget(1.0, 1)


class TestTradeOffAuction:
    def test_single_bus_oracle_payments(self):
        # Base optimum: level 3, A at cap, objective 16/3 + 2. Without A the
        # stationary level is sqrt(16/3) with objective 10.8564, so A's
        # externality payment is 10.8564 - (7.3333 - 2) = 5.5231.
        m0, agents, budget = single_bus_instance()
        out = run_auction(agents, 16.0, m0, budget, true_costs=[a.curve for a in agents])
        np.testing.assert_allclose(out.mu, [2.0, 0.0], atol=1e-12)
        assert out.payments[0] == pytest.approx(5.5231, abs=1e-4)
        assert out.payments[1] == 0.0
        assert out.utilities[0] == pytest.approx(3.5231, abs=1e-4)
        assert out.utilities[1] == 0.0

    def test_zero_allocation_pays_zero(self):
        m0, agents, budget = single_bus_instance()
        out = run_auction(agents, 16.0, m0, budget)
        assert out.mu[1] == 0.0
        assert out.payments[1] == 0.0
        assert out.exclusion_objectives[1] == out.objective

    def test_efficiency_same_allocation_as_planner(self):
        m0, agents, budget = single_bus_instance()
        out = run_auction(agents, 16.0, m0, budget)
        central = solve_centralized_soft(16.0, m0, agents, budget)
        np.testing.assert_array_equal(out.mu, central.mu)
        assert out.objective == central.objective

    def test_exclusion_monotone(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            m0, agents, budget = random_market(rng, max_buses=3, max_agents=5)
            gamma = float(np.exp(rng.uniform(np.log(0.5), np.log(100.0))))
            out = run_auction(agents, gamma, m0, budget)
            assert all(e >= out.objective - 1e-9 for e in out.exclusion_objectives)

    def test_individual_rationality_truthful(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            m0, agents, budget = random_market(rng, max_buses=3, max_agents=5)
            gamma = float(np.exp(rng.uniform(np.log(0.5), np.log(100.0))))
            out = run_auction(agents, gamma, m0, budget, true_costs=[a.curve for a in agents])
            assert all(p >= -1e-9 for p in out.payments)
            assert all(u >= -1e-9 for u in out.utilities)


def assert_matches_resolve_oracle(bids, gamma, m0, budget):
    """run_auction agrees with N+1 re-solves to 1e-9 relative to max(1, |ref|)."""
    out = run_auction(bids, gamma, m0, budget)
    ref = run_auction_resolve_oracle(bids, gamma, m0, budget)
    for name in ("mu", "level", "objective", "payments", "exclusion_objectives"):
        got, want = np.atleast_1d(getattr(out, name)), np.atleast_1d(getattr(ref, name))
        assert got.shape == want.shape, name
        err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        assert np.all(err <= 1e-9), (name, got, want)
    return out, ref


class TestSweepPaymentsMatchResolves:
    def test_random_markets(self):
        rng = np.random.default_rng(101)
        for trial in range(300):
            grid = TIED_PRICES if trial % 2 else None
            m0, agents, budget = random_market(rng, max_buses=5, max_agents=10, price_grid=grid)
            gamma = float(np.exp(rng.uniform(np.log(0.05), np.log(500.0))))
            assert_matches_resolve_oracle(agents, gamma, m0, budget)
        for trial in range(60):
            m0, agents, budget = dense_market(rng, tied=trial % 2)
            gamma = float(np.exp(rng.uniform(np.log(0.05), np.log(500.0))))
            assert_matches_resolve_oracle(agents, gamma, m0, budget)

    def test_lone_agent_whose_abstention_sets_the_reach_cap(self):
        agents = [
            Agent("solo", 0, CostCurve.linear(1.0, 3.0)),
            Agent("p", 1, CostCurve.linear(1.0, 5.0)),
            Agent("q", 1, CostCurve.linear(2.0, 5.0)),
        ]
        m0, budget = np.array([1.0, 1.5]), DisturbanceBudget(2.0, 2)
        out, _ = assert_matches_resolve_oracle(agents, 20.0, m0, budget)
        assert out.mu[0] > 0
        # bus 0 is left without supply, so its residual inertia caps the level
        assert solve_centralized_soft(20.0, m0, agents, budget, excluded=(0,)).level == 1.0

    def test_colocated_agents_at_one_price_split_equally(self):
        agents = [
            Agent("A", 0, CostCurve.linear(2.0, 1.0)),
            Agent("B", 0, CostCurve.linear(2.0, 1.0)),
            Agent("C", 0, CostCurve.linear(2.0, 1.0)),
            Agent("D", 0, CostCurve.linear(2.0, 0.25)),
            Agent("E", 1, CostCurve.linear(2.0, 1.0)),
        ]
        m0, budget = np.array([1.0, 3.0]), DisturbanceBudget(1.0, 2)
        # stationary level sqrt(12.5 / 2) = 2.5 inside the shared price-2 tier
        out, _ = assert_matches_resolve_oracle(agents, 12.5, m0, budget)
        assert out.level == pytest.approx(2.5, rel=1e-12)
        assert out.mu[3] == pytest.approx(0.25, rel=1e-12)  # clipped at its cap
        np.testing.assert_allclose(out.mu[:3], (1.5 - 0.25) / 3, rtol=1e-12)

    def test_zero_budget_procures_nothing_and_pays_nothing(self):
        m0, agents, budget = random_market(np.random.default_rng(3), max_buses=3, max_agents=6)
        budget = DisturbanceBudget(0.0, budget.n)
        out, _ = assert_matches_resolve_oracle(agents, 5.0, m0, budget)
        assert out.level == float(np.min(m0))
        assert all(q == 0.0 for q in out.mu)
        assert all(p == 0.0 for p in out.payments)

    def test_optimum_at_lowest_residual_inertia(self):
        agents = [
            Agent("cheap", 0, CostCurve.linear(0.5, 2.0)),
            Agent("dear", 0, CostCurve.linear(50.0, 2.0)),
        ]
        m0, budget = np.array([1.0, 3.0]), DisturbanceBudget(1.0, 2)
        out, _ = assert_matches_resolve_oracle(agents, 4.0, m0, budget)
        assert out.level == pytest.approx(math.sqrt(8.0), rel=1e-12)
        # without the cheap agent, price 50 beats the marginal gain 4 / 1**2
        assert solve_centralized_soft(4.0, m0, agents, budget, excluded=(0,)).level == 1.0
        tiny, _ = assert_matches_resolve_oracle(agents, 0.1, m0, budget)
        assert tiny.level == 1.0 and all(p == 0.0 for p in tiny.payments)

    def test_optimum_at_reach_cap(self):
        agents = [
            Agent("A", 0, CostCurve.linear(1.0, 0.5)),
            Agent("B", 1, CostCurve.linear(1.0, 5.0)),
        ]
        m0, budget = np.array([1.0, 1.2]), DisturbanceBudget(1.0, 2)
        out, _ = assert_matches_resolve_oracle(agents, 100.0, m0, budget)
        assert out.level == 1.5  # bus 0 full: 1.0 + 0.5
        assert out.mu[0] == 0.5 and out.mu[1] == pytest.approx(0.3, rel=1e-12)
        assert solve_centralized_soft(100.0, m0, agents, budget, excluded=(1,)).level == 1.2

    def test_zero_price_segments(self):
        agents = [
            Agent("A", 0, CostCurve(((1.0, 0.0), (1.0, 3.0)))),
            Agent("B", 1, CostCurve(((0.5, 0.0), (2.0, 1.0)))),
            Agent("C", 1, CostCurve(((0.25, 0.0),))),
        ]
        m0, budget = np.array([1.0, 1.25]), DisturbanceBudget(2.0, 2)
        for gamma in (0.01, 1.0, 5.0, 50.0):
            out, _ = assert_matches_resolve_oracle(agents, gamma, m0, budget)
            # free capacity is always used
            assert out.level >= 2.0 - 1e-12

    def test_optimum_at_a_kink(self):
        agents = [
            Agent("A", 0, CostCurve(((1.0, 1.0), (1.0, 10.0)))),
            Agent("B", 0, CostCurve.linear(2.0, 0.5)),
        ]
        m0, budget = np.array([1.0]), DisturbanceBudget(1.0, 1)
        # slope 2 left of 2.5 and 10 right of it; 16 / 2.5**2 lies between
        out, _ = assert_matches_resolve_oracle(agents, 16.0, m0, budget)
        assert out.level == 2.5
        assert solve_centralized_soft(16.0, m0, agents, budget, excluded=(1,)).level == 2.0

    def test_abstention_optimum_on_a_knot_of_the_abstainers_bus(self):
        # Bus 0's first knot sits at 0.6 + 0.7, which rounds so that
        # (0.6 + 0.7) - 0.6 < 0.7: a slope probed at that breakpoint
        # would read bus 0's tier below it while the aggregate already
        # includes the jump. Without K the optimum sits exactly there,
        # and the next breakpoint (bus 2 at 1.35) is close enough that
        # the misread slope would move it.
        assert (0.6 + 0.7) - 0.6 < 0.7
        agents = [
            Agent("A", 0, CostCurve(((0.7, 1.0), (3.0, 10.0)))),
            Agent("K", 0, CostCurve.linear(4.0, 1.0)),
            Agent("far", 1, CostCurve.linear(2.0, 5.0)),
            Agent("near", 2, CostCurve.linear(1.0, 5.0)),
        ]
        m0, budget = np.array([0.6, 1.0, 1.35]), DisturbanceBudget(1.0, 3)
        # Slopes 1, 3, then 6 (12 without K) from 1.3, plus 1 from 1.35.
        out, _ = assert_matches_resolve_oracle(agents, 13.5, m0, budget)
        level = math.sqrt(13.5 / 7.0)
        assert out.level == pytest.approx(level, rel=1e-12)
        assert out.mu[1] == pytest.approx(level - 1.3, rel=1e-9)
        assert solve_centralized_soft(13.5, m0, agents, budget, excluded=(1,)).level == 0.6 + 0.7


class TestExclusionSolve:
    def test_removing_cheap_case_agent_fills_at_medium_price(self):
        scn = case_study()
        bids = scn.market_agents("bid")
        gamma = 12.0 * (10.0 / 0.29) ** 2 / 10.0
        k4c = next(k for k, ag in enumerate(scn.agents) if ag.id == "4c")
        excl = solve_centralized_soft(gamma, scn.m0, bids, scn.budget, excluded=(k4c,))
        assert excl.mu[k4c] == 0.0
        # level preserved: the bus-4 marginal price is unchanged at the margin
        assert excl.level == pytest.approx(10.0 / 0.29, rel=1e-9)
        bus4 = [k for k, ag in enumerate(scn.agents) if ag.bus == "4"]
        deficit = 10.0 / 0.29 - scn.m0[list(scn.bus_labels).index("4")]
        assert sum(excl.mu[k] for k in bus4) == pytest.approx(deficit, rel=1e-9)
        five_price = [k for k in bus4 if k != k4c and bids[k].curve.segments[0][1] == 5.0]
        np.testing.assert_allclose([excl.mu[k] for k in five_price], deficit / 5, rtol=1e-9)

    def test_removing_zero_allocated_agent_changes_nothing(self):
        m0, agents, budget = single_bus_instance()
        base = solve_centralized_soft(16.0, m0, agents, budget)
        excl = solve_centralized_soft(16.0, m0, agents, budget, excluded=(1,))
        np.testing.assert_array_equal(excl.mu, base.mu)
        assert excl.objective == base.objective

    def test_removing_only_agent_at_weakest_bus_drops_level(self):
        agents = [
            Agent("weak", 0, CostCurve.linear(1.0, 5.0)),
            Agent("rich", 1, CostCurve.linear(1.0, 5.0)),
        ]
        m0 = np.array([1.0, 2.0])
        budget = DisturbanceBudget(4.0, 2)
        base = solve_centralized_soft(50.0, m0, agents, budget)
        assert base.level > 2.0  # both buses get filled at this weight
        excl = solve_centralized_soft(50.0, m0, agents, budget, excluded=(0,))
        # no fill possible at the weakest bus: its residual pins the metric
        assert worst_case_metric(excl.m, budget).gamma == pytest.approx(4.0 / 1.0)
        assert excl.mu[0] == 0.0


class TestHardModeAuction:
    def test_case_study_per_unit_payments(self):
        scn = case_study()
        bids = scn.market_agents("bid")
        costs = [a.curve for a in scn.market_agents("cost")]
        out = run_auction_hard(bids, 0.29, scn.m0, scn.budget, true_costs=costs)
        per_unit = {
            ag.id: out.payments[k] / out.mu[k]
            for k, ag in enumerate(scn.agents)
            if out.mu[k] > 1e-9
        }
        for aid in ("4a", "4b", "4c", "4d", "4f", "4g", "12a"):
            assert per_unit[aid] == pytest.approx(5.0, abs=1e-6), aid
        assert per_unit["2a"] == pytest.approx(1.0, abs=1e-6)
        assert per_unit["2c"] == pytest.approx(1.7499, abs=1e-4)
        assert per_unit["8a"] == pytest.approx(5.0, abs=1e-6)
        assert per_unit["8b"] == pytest.approx(5.8048, abs=1e-4)
        # truthful utilities and payments stay nonnegative
        assert all(p >= -1e-9 for p in out.payments)
        assert all(u >= -1e-9 for u in out.utilities)

    def test_agent_4c_payment_decomposition(self):
        # Removing 4c refills its 20 cheap units at price 5: externality 80,
        # plus its own bid 20, so 100 in total and utility 80 when truthful.
        scn = case_study()
        bids = scn.market_agents("bid")
        costs = [a.curve for a in scn.market_agents("cost")]
        out = run_auction_hard(bids, 0.29, scn.m0, scn.budget, true_costs=costs)
        k4c = next(k for k, ag in enumerate(scn.agents) if ag.id == "4c")
        assert out.mu[k4c] == pytest.approx(20.0, rel=1e-12)
        assert out.payments[k4c] == pytest.approx(100.0, rel=1e-9)
        assert out.utilities[k4c] == pytest.approx(80.0, rel=1e-9)

    def test_agent_12a_payment_decomposition(self):
        scn = case_study()
        bids = scn.market_agents("bid")
        out = run_auction_hard(bids, 0.29, scn.m0, scn.budget)
        k = next(i for i, ag in enumerate(scn.agents) if ag.id == "12a")
        deficit = 10.0 / 0.29 - 19.98986085
        assert out.payments[k] == pytest.approx(deficit * 4 + deficit, rel=1e-9)

    def test_names_every_pivotal_agent(self):
        # Level 4 needs 3 units at each bus: only A has them at bus 0 and only
        # B at bus 1 (C's one unit falls short), so A and B are both pivotal.
        agents = [
            Agent("A", 0, CostCurve.linear(1.0, 5.0)),
            Agent("C", 1, CostCurve.linear(3.0, 1.0)),
            Agent("B", 1, CostCurve.linear(2.0, 5.0)),
        ]
        m0, budget = np.array([1.0, 1.0]), DisturbanceBudget(4.0, 2)
        pattern = r"pivotal agents abstains: 'A' \(bus 0\), 'B' \(bus 1\)$"
        with pytest.raises(InfeasibleError, match=pattern) as exc_info:
            run_auction_hard(agents, 1.0, m0, budget)
        assert exc_info.value.bus == 0

    def test_reports_equivalent_multiplier(self):
        scn = case_study()
        bids = scn.market_agents("bid")
        out = run_auction_hard(bids, 0.29, scn.m0, scn.budget)
        assert 1426.8 <= out.gamma <= 1427.0
        assert out.mode == "hard"


def _outcome_or_error(run, *args, **kwargs):
    try:
        return run(*args, **kwargs)
    except InfeasibleError as exc:
        return str(exc), exc.bus


def assert_capped_matches_oracle(bids, gamma_bar, m0, budget):
    """run_auction_hard equals N+2 re-solves exactly: every field, or the error's text and bus."""
    costs = [ag.curve for ag in bids]
    got = _outcome_or_error(run_auction_hard, bids, gamma_bar, m0, budget, true_costs=costs)
    want = _outcome_or_error(run_auction_hard_resolve_oracle, bids, gamma_bar, m0, budget, true_costs=costs)
    assert type(got) is type(want), (got, want)
    if isinstance(want, tuple):
        assert got == want
        return want
    for field in dataclasses.fields(want):
        g, w = getattr(got, field.name), getattr(want, field.name)
        assert g == w, field.name
        assert type(g) is type(w), field.name
        if isinstance(w, tuple):
            assert [type(x) for x in g] == [type(x) for x in w], field.name
    for q, p, e in zip(got.mu, got.payments, got.exclusion_objectives):
        if q == 0.0:
            assert p == 0.0 and e == got.allocation.total_cost
    return got


class TestCappedPaymentsMatchResolves:
    def test_random_markets(self):
        rng = np.random.default_rng(307)
        outcomes = {"feasible": 0, "pivotal": 0, "unreachable": 0, "unpaid": 0}
        for draw in range(1200):
            grid = TIED_PRICES if draw % 2 else None
            m0, agents, budget = random_market(rng, max_buses=5, max_agents=10, price_grid=grid)
            gamma_bar = worst_case_metric(m0, budget).gamma * rng.uniform(0.3, 1.2)
            if draw % 4 < 2:  # a numpy scalar cap must still give float outputs
                gamma_bar = np.float64(gamma_bar)
            out = assert_capped_matches_oracle(agents, gamma_bar, m0, budget)
            if isinstance(out, tuple):
                outcomes["pivotal" if "pivotal" in out[0] else "unreachable"] += 1
            else:
                outcomes["feasible"] += 1
                outcomes["unpaid"] += sum(q == 0.0 for q in out.mu)
        # every branch is exercised many times
        assert min(outcomes.values()) > 100, outcomes
        for draw in range(60):
            m0, agents, budget = dense_market(rng, tied=draw % 2)
            gamma_bar = worst_case_metric(m0, budget).gamma * rng.uniform(0.3, 1.2)
            assert_capped_matches_oracle(agents, gamma_bar, m0, budget)

    def test_pivotal_agents(self):
        agents = [
            Agent("A", 0, CostCurve.linear(1.0, 5.0)),
            Agent("C", 1, CostCurve.linear(3.0, 1.0)),
            Agent("B", 1, CostCurve.linear(2.0, 5.0)),
            Agent("D", 2, CostCurve.linear(1.0, 5.0)),
            Agent("E", 2, CostCurve.linear(2.0, 5.0)),
        ]
        m0, budget = np.array([1.0, 1.0, 1.0]), DisturbanceBudget(6.0, 3)
        message, bus = assert_capped_matches_oracle(agents, 1.5, m0, budget)
        assert message.endswith("abstains: 'A' (bus 0), 'B' (bus 1)") and bus == 0

    def test_level_on_a_tier_start(self):
        # The level 1.0 + 2.0 is where B's tier starts at bus 0.
        agents = [
            Agent("A", 0, CostCurve.linear(1.0, 2.0)),
            Agent("B", 0, CostCurve.linear(2.0, 2.0)),
            Agent("C", 1, CostCurve.linear(1.5, 4.0)),
            Agent("D", 1, CostCurve.linear(3.0, 4.0)),
        ]
        m0, budget = np.array([1.0, 2.0]), DisturbanceBudget(3.0, 2)
        out = assert_capped_matches_oracle(agents, 1.0, m0, budget)
        assert out.level == 3.0 and out.mu == (2.0, 0.0, 1.0, 0.0)
        # Without A, B fills bus 0 at price 2: 4 + 1.5 - (3.5 - 2) = 4.
        # Without C, D fills bus 1 at price 3: 2 + 3 - (3.5 - 1.5) = 3.
        assert out.payments == (4.0, 0.0, 3.0, 0.0)
        # The left slope at the level is A's price plus C's.
        assert out.gamma == 3.0**2 * (1.0 + 1.5) / 3.0
        # Without K the level sits on bus 0's first knot, 0.6 + 0.7, which
        # re-subtracts to a need below the knot's width.
        assert (0.6 + 0.7) - 0.6 < 0.7
        agents = [
            Agent("A", 0, CostCurve(((0.7, 1.0), (3.0, 10.0)))),
            Agent("K", 0, CostCurve.linear(1.0, 4.0)),
            Agent("B", 1, CostCurve.linear(2.0, 5.0)),
            Agent("B2", 1, CostCurve.linear(2.0, 6.0)),
        ]
        m0, budget = np.array([0.6, 1.0]), DisturbanceBudget(0.6 + 0.7, 2)
        out = assert_capped_matches_oracle(agents, 1.0, m0, budget)
        assert out.level == 0.6 + 0.7 and out.mu[0] == out.mu[1] > 0

    def test_lone_agent_at_the_bus_setting_the_reach(self):
        agents = [
            Agent("solo", 0, CostCurve.linear(1.0, 2.0)),
            Agent("p", 1, CostCurve.linear(1.0, 5.0)),
            Agent("q", 1, CostCurve.linear(2.0, 5.0)),
        ]
        m0 = np.array([1.0, 1.5])
        # At the reach cap 1.0 + 2.0, and well below it: solo is pivotal.
        for pi_tot in (6.0, 4.0):
            message, bus = assert_capped_matches_oracle(agents, 2.0, m0, DisturbanceBudget(pi_tot, 2))
            assert message.endswith("abstains: 'solo' (bus 0)") and bus == 0
        # A level within rounding of bus 0's residual inertia: solo's
        # abstention still meets the cap, and bus 0 then fills nothing.
        out = assert_capped_matches_oracle(agents, 1.0, m0, DisturbanceBudget(1.0 + 1e-10, 2))
        assert 0.0 < out.mu[0] < 1e-9
        assert out.exclusion_objectives[0] == 0.0

    def test_zero_budget(self):
        m0, agents, budget = random_market(np.random.default_rng(9), max_buses=3, max_agents=6)
        out = assert_capped_matches_oracle(agents, 1.0, m0, DisturbanceBudget(0.0, budget.n))
        assert out.level == 0.0 and out.gamma == 0.0
        assert all(q == 0.0 for q in out.mu) and all(p == 0.0 for p in out.payments)

    def test_zero_quantity_agents_paid_exactly_zero(self):
        # D and E sit above the level's marginal price and get nothing;
        # F's bus is above the level.
        agents = [
            Agent("A", 0, CostCurve.linear(1.0, 2.0)),
            Agent("D", 0, CostCurve.linear(3.0, 2.0)),
            Agent("B", 1, CostCurve(((1.0, 0.0), (1.0, 2.0)))),
            Agent("E", 1, CostCurve.linear(4.0, 4.0)),
            Agent("F", 2, CostCurve.linear(1.0, 1.0)),
        ]
        m0, budget = np.array([1.0, 1.0, 5.0]), DisturbanceBudget(2.5, 3)
        out = assert_capped_matches_oracle(agents, 1.0, m0, budget)
        unpaid = [ag.id for ag, q in zip(agents, out.mu) if q == 0.0]
        assert unpaid == ["D", "E", "F"]
        assert [out.payments[k] for k in (1, 3, 4)] == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize(
        "run, limit", [(run_auction, 30.0), (run_auction_hard, 3.0)], ids=["run_auction", "run_auction_hard"]
    )
    def test_one_market_per_auction(self, monkeypatch, run, limit):
        # One market, and one merge of each bus's offers: every abstention
        # drops its agent from the merged tiers instead of re-merging.
        built, soft_solves = {planner._Market: 0, planner._BusSupply: 0}, []

        def count(cls):
            original = cls.__init__

            def counting_init(self, *args, **kwargs):
                built[cls] += 1
                original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)

        count(planner._Market)
        count(planner._BusSupply)
        monkeypatch.setattr(planner, "solve_centralized_soft", lambda *args, **kwargs: soft_solves.append(args))
        agents = [Agent(f"a{k}", k % 3, CostCurve(((2.0, 1.0 + k), (3.0, 8.0 + k)))) for k in range(10)]
        m0, budget = (1.0, 1.5, 2.0), DisturbanceBudget(12.0, 3)
        out = run(agents, limit, m0, budget)
        assert sum(q > 0 for q in out.mu) > 3
        assert built == {planner._Market: 1, planner._BusSupply: 3} and soft_solves == []


def true_social_cost(out, bids, k, true_cost, gamma, budget):
    """F_true of ``out``'s plan: its social cost with agent k's true cost in place of k's bid."""
    cost = sum(ag.curve.value(q) for j, (ag, q) in enumerate(zip(bids, out.mu)) if j != k)
    cost += true_cost.value(out.mu[k])
    if out.mode == "soft":
        cost += gamma * worst_case_metric(out.allocation.m, budget).gamma
    return cost


@pytest.mark.parametrize("run", [run_auction, run_auction_hard], ids=["soft", "hard"])
def test_utility_is_exclusion_objective_minus_true_social_cost(run):
    # The payment rule makes agent k's utility from any bid equal to its
    # exclusion objective minus F_true(mu), the social objective of the
    # plan its bid clears with k's true cost in place of the bid. This pins
    # the payment formula on each instance, for the truthful bid and for a
    # deviation.
    rng = np.random.default_rng(401 if run is run_auction else 409)
    counts = {"checked": 0, "cleared_k": 0, "infeasible": 0}
    for _ in range(1500):
        m0, agents, budget = random_market(rng, max_buses=3, max_agents=10)
        k = int(rng.integers(len(agents)))
        true_costs = [ag.curve for ag in agents]
        deviated = list(agents)
        deviated[k] = Agent(agents[k].id, agents[k].bus, deviation_curve(rng, true_costs[k]))
        if run is run_auction:
            limit = gamma = float(np.exp(rng.uniform(np.log(0.05), np.log(500.0))))
        else:
            limit, gamma = worst_case_metric(m0, budget).gamma * rng.uniform(0.3, 1.0), 0.0
        try:
            outs = [run(bids, limit, m0, budget, true_costs=true_costs) for bids in (agents, deviated)]
        except InfeasibleError:  # the cap is out of reach, or k is pivotal
            counts["infeasible"] += 1
            continue
        for bids, out in zip((agents, deviated), outs):
            excl = out.exclusion_objectives[k]
            want = excl - true_social_cost(out, bids, k, true_costs[k], gamma, budget)
            assert abs(out.utilities[k] - want) <= 1e-9 * max(1.0, abs(excl)), (out.utilities[k], want)
        counts["checked"] += 1
        counts["cleared_k"] += any(out.mu[k] > 0 for out in outs)
    assert counts["checked"] >= 500 and counts["cleared_k"] >= 200, counts
    assert run is run_auction_hard or counts["infeasible"] == 0, counts


@pytest.mark.parametrize("run, limit", [(run_auction, 16.0), (run_auction_hard, 0.5)], ids=["soft", "hard"])
@pytest.mark.parametrize("n_costs", [1, 3], ids=["short", "long"])
def test_true_costs_of_the_wrong_length_rejected(run, limit, n_costs):
    m0, agents, budget = single_bus_instance()
    with pytest.raises(GridError, match=f"true_costs has {n_costs} curves for 2 bids"):
        run(agents, limit, m0, budget, true_costs=[agents[0].curve] * n_costs)


class TestIncentiveAudit:
    def test_case_study_audit_clean(self):
        scn = case_study()
        costs = scn.market_agents("cost")
        gamma = 12.0 * (10.0 / 0.29) ** 2 / 10.0
        report = incentive_audit(costs, gamma, scn.m0, scn.budget, trials=100, seed=4)
        assert report.max_violation <= 1e-6

    def test_single_bus_overbidding_never_helps(self):
        m0, agents, budget = single_bus_instance()
        truth = run_auction(agents, 16.0, m0, budget, true_costs=[a.curve for a in agents])
        overbid = [Agent("A", 0, CostCurve.linear(2.0, 2.0)), agents[1]]
        dev = run_auction(overbid, 16.0, m0, budget)
        u_dev = dev.payments[0] - agents[0].curve.value(dev.mu[0])
        assert u_dev <= truth.utilities[0] + 1e-9

    def test_identical_deviation_equal_utility(self):
        m0, agents, budget = single_bus_instance()
        a = run_auction(agents, 16.0, m0, budget, true_costs=[x.curve for x in agents])
        b = run_auction(list(agents), 16.0, m0, budget, true_costs=[x.curve for x in agents])
        np.testing.assert_array_equal(a.utilities, b.utilities)

    def test_audit_raises_on_violation_with_replay_instance(self, monkeypatch):
        # Force a defective trial, in which the deviation gains 1, to
        # confirm the failure path serializes the offending instance.
        import inertia_market.auction as auction_mod

        def rigged_trial(market, k, deviation, gamma):
            return 0.0, 1.0

        monkeypatch.setattr(auction_mod, "_trial_utilities", rigged_trial)
        m0, agents, budget = single_bus_instance()
        with pytest.raises(AuditError, match="truthful bidding lost") as exc_info:
            incentive_audit(agents, 16.0, m0, budget, trials=5, seed=1)
        instance = exc_info.value.instance
        assert instance is not None
        assert "bids" in instance and "deviation" in instance and "m0" in instance

    def test_audit_rejects_zero_trials(self):
        m0, agents, budget = single_bus_instance()
        with pytest.raises(Exception, match="trials"):
            incentive_audit(agents, 16.0, m0, budget, trials=0, seed=1)

    @pytest.mark.parametrize(
        "agents, trials, gamma, seed, named",
        [
            ([], 5, 16.0, 1, "agent"),
            ([Agent("a", 0, "x")], 5, 16.0, 1, "agents must be Agents with CostCurves"),
            (None, 2.5, 16.0, 1, "trials"),
            (None, 5, math.nan, 1, "gamma"),
            (None, 5, math.inf, 1, "gamma"),
            (None, 5, 0.0, 1, "gamma"),
            (None, 5, -1.0, 1, "gamma"),
            (None, 5, 16.0, -1, "seed"),
            (None, 5, 16.0, 1.5, "seed"),
        ],
        ids=[
            "no-agents",
            "curve-not-a-cost-curve",
            "fractional-trials",
            "nan-gamma",
            "inf-gamma",
            "zero-gamma",
            "negative-gamma",
            "negative-seed",
            "fractional-seed",
        ],
    )
    def test_audit_rejects_bad_inputs(self, agents, trials, gamma, seed, named):
        m0, valid, budget = single_bus_instance()
        with pytest.raises(GridError, match=named):
            incentive_audit(valid if agents is None else agents, gamma, m0, budget, trials=trials, seed=seed)

    def test_audit_report_fields(self):
        rng = np.random.default_rng(5)
        m0, agents, budget = random_market(rng, max_buses=2, max_agents=3)
        report = incentive_audit(agents, 10.0, m0, budget, trials=25, seed=11)
        assert report.trials == 25
        assert report.tolerance == 1e-6
        assert report.max_violation <= 1e-6

    def test_deviation_curves_are_admissible(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            curve = random_convex_curve(rng)
            dev = deviation_curve(rng, curve)
            assert dev.cap == pytest.approx(curve.cap, rel=1e-12)
            prices = [p for _, p in dev.segments]
            assert prices == sorted(prices)


def assert_same_draw(got, want):
    """Same segment count and widths (so caps), bit for bit; prices within 2 ulp."""
    assert len(got.segments) == len(want.segments)
    assert [w for w, _ in got.segments] == [w for w, _ in want.segments]
    assert got.cap == want.cap
    for (_, p), (_, q) in zip(got.segments, want.segments):
        assert abs(p - q) <= 2 * math.ulp(q), (p, q)


class TestAuditDrawsMatchNumpyOracle:
    # numpy's array calls (uniform, dirichlet, exp, sort) on the same
    # generator are the reference: a numpy upgrade that changed either the
    # stream or those calls' arithmetic would change every stored audit.
    @pytest.mark.parametrize("seed", [0, 7, 2024, 699863])
    def test_same_stream_and_values(self, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(1500):
            curve = random_convex_curve(rng)
            assert_same_draw(curve, random_convex_curve_oracle(ref))
            assert rng.bit_generator.state == ref.bit_generator.state
            dev = deviation_curve(rng, curve)
            assert_same_draw(dev, deviation_curve_oracle(ref, curve))
            assert rng.bit_generator.state == ref.bit_generator.state


def assert_audit_matches_oracle(agents, gamma, m0, budget, trials, seed):
    """incentive_audit agrees with three solves per trial on every report field."""
    got = incentive_audit(agents, gamma, m0, budget, trials=trials, seed=seed)
    want = incentive_audit_resolve_oracle(agents, gamma, m0, budget, trials=trials, seed=seed)
    assert got.trials == want.trials == trials
    for field in dataclasses.fields(want):
        g, w = getattr(got, field.name), getattr(want, field.name)
        assert abs(g - w) <= 1e-9 * max(1.0, abs(w)), (field.name, g, w)
    return got


class TestAuditMatchesResolveOracle:
    def test_random_markets(self):
        rng = np.random.default_rng(211)
        for draw in range(300):
            grid = TIED_PRICES if draw % 2 else None
            m0, agents, budget = random_market(rng, max_buses=4, max_agents=6, price_grid=grid)
            gamma = float(np.exp(rng.uniform(np.log(0.05), np.log(500.0))))
            assert_audit_matches_oracle(agents, gamma, m0, budget, trials=8, seed=draw)
        for draw in range(60):
            m0, agents, budget = dense_market(rng, tied=draw % 2)
            gamma = float(np.exp(rng.uniform(np.log(0.05), np.log(500.0))))
            assert_audit_matches_oracle(agents, gamma, m0, budget, trials=8, seed=draw)

    def test_one_bus_one_agent(self):
        agents = [Agent("solo", 0, CostCurve(((1.5, 0.5), (2.0, 4.0))))]
        m0, budget = np.array([1.0]), DisturbanceBudget(3.0, 1)
        for gamma in (0.1, 2.0, 50.0):
            assert_audit_matches_oracle(agents, gamma, m0, budget, trials=10, seed=3)

    def test_zero_budget(self):
        m0, agents, budget = random_market(np.random.default_rng(8), max_buses=3, max_agents=5)
        budget = DisturbanceBudget(0.0, budget.n)
        report = assert_audit_matches_oracle(agents, 5.0, m0, budget, trials=10, seed=4)
        assert report.max_violation == report.mean_truthful_utility == 0.0

    def test_deviation_re_summed_above_the_cap_bus_supply(self):
        # One bus, so it sets the reach cap, and a weight that puts the
        # optimum at the cap. On trial 6 agent a2's deviation interleaves
        # its widths with a1's differently, and the bus supply re-sums
        # one ulp above the original: a search topped at m0 + that
        # capacity ran past the last breakpoint of the sweep.
        agents = [
            Agent("a0", 0, CostCurve(((0.674204741645329, 0.2272837841732678),))),
            Agent(
                "a1",
                0,
                CostCurve(
                    ((1.6263195730551894, 0.21089851496056755), (0.31110829577208404, 10.237976441026639))
                ),
            ),
            Agent(
                "a2",
                0,
                CostCurve(
                    (
                        (0.6834653581362238, 0.524067556723272),
                        (1.2555752097302295, 0.6657928827875277),
                        (1.8816667563246303, 3.371031219118499),
                    )
                ),
            ),
        ]
        m0, budget = np.array([0.9694175492239064]), DisturbanceBudget(16.669686622428042, 1)
        gamma, seed = 2135.7085938895357, 699863
        rng = np.random.default_rng(seed)
        for _ in range(7):  # replay the audit's draws up to trial 6
            k = int(rng.integers(len(agents)))
            bids = [
                ag if j == k else Agent(ag.id, 0, random_convex_curve(rng)) for j, ag in enumerate(agents)
            ]
            deviation = deviation_curve(rng, agents[k].curve)
        own = _BusSupply(m0[0], list(enumerate(ag.curve for ag in bids)))
        swapped = own.swapped(k, deviation)
        assert k == 2 and swapped.capacity == math.nextafter(own.capacity, math.inf)
        assert_audit_matches_oracle(agents, gamma, m0, budget, trials=7, seed=seed)

    def test_colocated_partners_at_one_price(self):
        # The case study's buses 2 and 12 hold partners bidding the same
        # price (2a and 2c at 1.0), whose quantities split equally.
        scn = case_study()
        costs = scn.market_agents("cost")
        for gamma in (50.0, 1426.87):
            assert_audit_matches_oracle(costs, gamma, scn.m0, scn.budget, trials=40, seed=12)


def _load_perfbench(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up in sys.modules while being defined.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("batch", range(4))
def test_audit_matches_stored_benchmark_results(monkeypatch, batch):
    # The benchmark's audit batches (perfbench/markets.py) against its
    # stored results (perfbench/refs/audit.json), both read only.
    import inertia_market

    markets, ops = _load_perfbench("markets", monkeypatch), _load_perfbench("ops", monkeypatch)
    size = markets.AUDIT_BATCH
    instances = [markets.make_audit_instance(s) for s in range(batch * size, (batch + 1) * size)]
    out = ops.op_audit(inertia_market, instances)
    assert ops.check("audit", out, ops.load_refs("audit")[str(batch)]) == []
