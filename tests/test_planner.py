"""Breakpoint planner: bus fills, trade-off and capped solves, dual link."""

import math
from bisect import bisect_right

import numpy as np
import pytest

from inertia_market import (
    Agent,
    ContractError,
    CostCurve,
    DisturbanceBudget,
    GridError,
    InfeasibleError,
    ScenarioError,
    case_study,
    dual_gamma_iterate,
    incentive_audit,
    regulatory_allocation,
    run_auction,
    run_auction_hard,
    solve_centralized_hard,
    solve_centralized_soft,
    worst_case_metric,
)
from inertia_market.auction import deviation_curve
from inertia_market.planner import _BusSupply, _Market

from helpers import (
    bus_fill_resplit_oracle,
    dual_gamma_bisection_oracle,
    grid_search_objective,
    random_market,
    swapped_level_index_walk_oracle,
)

LEVEL = 10.0 / 0.29  # required level of the bundled study


def case_inputs(use="cost"):
    scn = case_study()
    return scn, scn.m0, scn.market_agents(use), scn.budget


class TestCostCurve:
    def test_evaluation(self):
        curve = CostCurve(((2.0, 1.0), (3.0, 4.0)))
        assert curve.value(0.0) == 0.0
        assert curve.value(1.0) == pytest.approx(1.0)
        assert curve.value(2.0) == pytest.approx(2.0)
        assert curve.value(4.0) == pytest.approx(2.0 + 2 * 4.0)
        assert curve.value(99.0) == pytest.approx(2.0 + 3 * 4.0)  # clamped at cap
        assert curve.cap == pytest.approx(5.0)

    def test_convexity_enforced(self):
        with pytest.raises(ScenarioError, match="nondecreasing"):
            CostCurve(((1.0, 5.0), (1.0, 2.0)))
        with pytest.raises(ScenarioError, match="width"):
            CostCurve(((0.0, 1.0),))
        with pytest.raises(ScenarioError, match="price"):
            CostCurve(((1.0, -1.0),))

    @pytest.mark.parametrize(
        "segment",
        [(1.0, math.nan), (1.0, math.inf), (math.inf, 1.0)],
        ids=["nan-price", "inf-price", "inf-width"],
    )
    def test_non_finite_segment_rejected(self, segment):
        with pytest.raises(ScenarioError, match="finite"):
            CostCurve((segment,))

    @pytest.mark.parametrize(
        "segment",
        [("1", 1.0), (1.0, None), (1.0,), (1.0, 2.0, 3.0)],
        ids=["str-width", "none-price", "one-number", "three-numbers"],
    )
    def test_non_numeric_segment_rejected(self, segment):
        with pytest.raises(ScenarioError, match="real numbers"):
            CostCurve((segment,))


def bus_fill(agents, target, m0_i):
    """Cost and fills, in ``agents`` order, lifting one bus from ``m0_i`` to ``target``."""
    supply = _BusSupply(m0_i, list(enumerate(ag.curve for ag in agents)))
    return supply.cost_at(target - m0_i), list(supply.fill(target - m0_i).values())


class TestNodeFillCost:
    def test_bus_two_case_data(self):
        agents = [
            Agent("2a", 0, CostCurve.linear(1.0, 20.0)),
            Agent("2b", 0, CostCurve.linear(5.0, 40.0)),
            Agent("2c", 0, CostCurve.linear(1.0, 60.0)),
        ]
        cost, fills = bus_fill(agents, LEVEL, 12.41408556)
        np.testing.assert_allclose(fills, [11.0343, 0.0, 11.0343], atol=1e-4)
        assert cost == pytest.approx(22.069, abs=1e-3)

    def test_bus_four_case_data(self):
        prices = [5.0, 5.0, 1.0, 5.0, 10.0, 5.0, 5.0]
        caps = [20.0, 40.0, 20.0, 40.0, 20.0, 40.0, 20.0]
        agents = [
            Agent(f"4{chr(97 + k)}", 0, CostCurve.linear(p, c))
            for k, (p, c) in enumerate(zip(prices, caps))
        ]
        cost, fills = bus_fill(agents, LEVEL, 7.219268219)
        np.testing.assert_allclose(
            fills, [1.4527, 1.4527, 20.0, 1.4527, 0.0, 1.4527, 1.4527], atol=1e-4
        )
        assert cost == pytest.approx(56.32, abs=1e-2)

    def test_no_deficit_no_fill(self):
        agents = [Agent("a", 0, CostCurve.linear(1.0, 5.0))]
        cost, fills = bus_fill(agents, 1.0, 2.0)
        assert cost == 0.0
        assert fills == [0.0]

    def test_equal_split_clips_and_resplits(self):
        agents = [
            Agent("small", 0, CostCurve.linear(2.0, 1.0)),
            Agent("large", 0, CostCurve.linear(2.0, 10.0)),
        ]
        cost, fills = bus_fill(agents, 8.0, 0.0)
        np.testing.assert_allclose(fills, [1.0, 7.0])
        assert cost == pytest.approx(16.0)

    def test_capacity_exceeded(self):
        # A need beyond the bus's capacity fills the whole capacity.
        supply = _BusSupply(1.0, [(3, CostCurve.linear(1.0, 2.0))])
        assert supply.reach == 3.0
        assert supply.fill(4.0) == supply.fill(2.0) == {3: 2.0}
        assert supply.cost_at(4.0) == supply.cost_at(2.0) == 2.0

    def test_random_tied_buses_match_resplit_oracle(self):
        # Dense buses on a tied price grid with zero prices, repeated prices
        # within a curve and, half the time, equal widths: the one-pass
        # split must agree with clip-and-resplit, and its unclipped agents
        # must get the same share to the bit.
        rng = np.random.default_rng(13)
        grid = [0.0, 1.0, 2.0, 5.0]
        equal_shares = 0
        for _ in range(300):
            widths = [0.5, 1.0, 1.5] if rng.random() < 0.5 else None
            offers = []
            for k in range(int(rng.integers(1, 41))):
                n_seg = int(rng.integers(1, 4))
                prices = np.sort(rng.choice(grid, size=n_seg))
                w = rng.choice(widths, size=n_seg) if widths else rng.uniform(0.3, 2.0, size=n_seg)
                offers.append((k, CostCurve(tuple((float(a), float(p)) for a, p in zip(w, prices)))))
            supply = _BusSupply(1.0, offers)
            needs = list(rng.uniform(0.0, 1.2 * supply.capacity, size=20)) + supply.knots
            for need in needs:
                ref_cost, ref_fills = bus_fill_resplit_oracle(offers, need)
                fills = supply.fill(need)
                assert list(fills) == list(ref_fills)
                for k, f in fills.items():
                    assert abs(f - ref_fills[k]) <= 1e-12 * max(1.0, need)
                assert abs(supply.cost_at(need) - ref_cost) <= 1e-12 * max(1.0, ref_cost)
                j = bisect_right(supply.knots, need) - 1
                if j < len(supply.tiers):
                    price, members = supply.tiers[j]
                    # Agents with nothing cheaper hold only their share of the split tier.
                    unclipped = [
                        fills[k]
                        for k, width in members.items()
                        if fills[k] < width and offers[k][1].segments[0][1] == price
                    ]
                    assert len(set(unclipped)) <= 1
                    equal_shares += len(unclipped) > 1
        assert equal_shares > 1000  # the equal-share check must actually have been exercised

    def test_abstention_drops_the_agent_as_a_rebuild_would(self):
        # An abstention removes k from the merged tiers without re-merging
        # the bus: every field, the knots, costs and starts included, must
        # equal a rebuild from the other offers, to the bit.
        rng = np.random.default_rng(17)
        dropped_tiers = 0
        for draw in range(200):
            tied = {"price_grid": (0.0, 0.5, 1.0, 2.0), "width_grid": (0.3,)} if draw % 2 else {}
            m0, agents, budget = random_market(rng, max_buses=2, max_agents=30, **tied)
            for supply in _Market(m0, agents, budget).supplies:
                for k, _ in supply.offers:
                    got = supply.swapped(k)
                    want = _BusSupply(supply.m0, [(j, c) for j, c in supply.offers if j != k])
                    assert vars(got) == vars(want)
                    dropped_tiers += len(got.tiers) < len(supply.tiers)
        assert dropped_tiers > 100  # agents alone at their price leave a tier too


def single_bus_instance():
    agents = [
        Agent("A", 0, CostCurve.linear(1.0, 2.0)),
        Agent("B", 0, CostCurve.linear(3.0, 10.0)),
    ]
    return np.array([1.0]), agents, DisturbanceBudget(1.0, 1)


class TestSoftSolve:
    def test_single_bus_analytic_oracle(self):
        # Fill with A while 16 / level^2 >= 1 up to its cap; B stays out
        # because 16 / 9 < 3 at the switch point, so the optimum sits at
        # level 3 with objective 16/3 + 2.
        m0, agents, budget = single_bus_instance()
        alloc = solve_centralized_soft(16.0, m0, agents, budget)
        assert alloc.level == pytest.approx(3.0, rel=1e-12)
        np.testing.assert_allclose(alloc.mu, [2.0, 0.0], atol=1e-12)
        assert alloc.objective == pytest.approx(16.0 / 3.0 + 2.0, rel=1e-12)

    def test_tiny_gamma_procures_nothing(self):
        m0, agents, budget = single_bus_instance()
        alloc = solve_centralized_soft(1e-9, m0, agents, budget)
        np.testing.assert_array_equal(alloc.mu, 0.0)
        assert alloc.level == pytest.approx(1.0)

    def test_no_agents_returns_zero(self):
        budget = DisturbanceBudget(2.0, 2)
        alloc = solve_centralized_soft(5.0, np.array([1.0, 2.0]), [], budget)
        assert alloc.mu == ()
        np.testing.assert_allclose(alloc.m, [1.0, 2.0])

    def test_stationarity_reproduces_capped_allocation(self):
        # Sum of active marginal prices at the case-study level is 12, so
        # gamma = 12 L^2 / pi_tot makes the trade-off solve land there.
        scn, m0, agents, budget = case_inputs()
        gamma = 12.0 * LEVEL**2 / budget.pi_tot
        soft = solve_centralized_soft(gamma, m0, agents, budget)
        hard = solve_centralized_hard(0.29, m0, agents, budget)
        assert soft.level == pytest.approx(LEVEL, rel=1e-12)
        np.testing.assert_allclose(soft.mu, hard.mu, atol=1e-9)

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            m0, agents, budget = random_market(rng)
            gamma = float(np.exp(rng.uniform(np.log(0.1), np.log(100.0))))
            alloc = solve_centralized_soft(gamma, m0, agents, budget)
            best, _ = grid_search_objective(gamma, m0, agents, budget)
            assert alloc.objective <= best + 1e-3
            assert alloc.objective >= best - 1e-3 - 1e-9

    def test_allocation_feasible_and_composed(self):
        rng = np.random.default_rng(103)
        for _ in range(40):
            m0, agents, budget = random_market(rng)
            gamma = float(np.exp(rng.uniform(np.log(0.1), np.log(100.0))))
            alloc = solve_centralized_soft(gamma, m0, agents, budget)
            for ag, q in zip(agents, alloc.mu):
                assert -1e-12 <= q <= ag.cap + 1e-9
            m = np.array(m0)
            for ag, q in zip(agents, alloc.mu):
                m[ag.bus] += q
            np.testing.assert_array_equal(m, alloc.m)

    def test_valley_filling(self):
        # Every bus that receives inertia ends exactly at the common level.
        rng = np.random.default_rng(107)
        seen_fill = 0
        for _ in range(40):
            m0, agents, budget = random_market(rng)
            gamma = float(np.exp(rng.uniform(np.log(1.0), np.log(200.0))))
            alloc = solve_centralized_soft(gamma, m0, agents, budget)
            filled = np.zeros(len(m0), dtype=bool)
            for ag, q in zip(agents, alloc.mu):
                if q > 1e-12:
                    filled[ag.bus] = True
            if filled.any():
                seen_fill += 1
                np.testing.assert_allclose(
                    np.asarray(alloc.m)[filled], alloc.level, rtol=1e-9, atol=1e-9
                )
        assert seen_fill > 5  # the property must actually have been exercised


class TestHardSolve:
    def test_case_study_cost(self):
        scn, m0, agents, budget = case_inputs()
        alloc = solve_centralized_hard(0.29, m0, agents, budget)
        assert alloc.total_cost == pytest.approx(201.6306, abs=0.01)
        assert worst_case_metric(alloc.m, budget).gamma == pytest.approx(0.29, abs=1e-9)

    def test_slack_cap_procures_nothing(self):
        m0, agents, budget = single_bus_instance()
        alloc = solve_centralized_hard(2.0, m0, agents, budget)  # Gamma(m0) = 1 <= 2
        np.testing.assert_array_equal(alloc.mu, 0.0)
        assert alloc.total_cost == 0.0

    def test_unreachable_cap_reports_blocking_bus(self):
        m0, agents, budget = single_bus_instance()
        with pytest.raises(InfeasibleError) as exc_info:
            solve_centralized_hard(1e-3, m0, agents, budget)  # would need level 1000
        assert exc_info.value.bus == 0

    def test_agrees_with_dual_iteration(self):
        rng = np.random.default_rng(109)
        checked = 0
        for _ in range(30):
            m0, agents, budget = random_market(rng)
            base = worst_case_metric(m0, budget).gamma
            gamma_bar = float(base * rng.uniform(0.5, 1.2))
            try:
                hard = solve_centralized_hard(gamma_bar, m0, agents, budget)
            except InfeasibleError:
                continue
            gamma_star, dual = dual_gamma_iterate(gamma_bar, m0, agents, budget)
            assert dual.total_cost == pytest.approx(
                hard.total_cost, rel=1e-6, abs=1e-9
            )
            checked += 1
        assert checked > 10


class TestDualGammaIterate:
    def test_case_study_multiplier(self):
        scn, m0, agents, budget = case_inputs()
        gamma_star, alloc = dual_gamma_iterate(0.29, m0, agents, budget)
        assert 1426.8 <= gamma_star <= 1427.0
        assert alloc.total_cost == pytest.approx(201.63, abs=0.01)

    def test_single_bus_bracket(self):
        # At the cap 1/3 the required level 3 is where A's price 1 gives way
        # to B's price 3, so any multiplier in 3^2 * [1, 3] / 1 = [9, 27]
        # solves it; the closed form returns the left-slope end.
        m0, agents, budget = single_bus_instance()
        gamma_star, alloc = dual_gamma_iterate(1.0 / 3.0, m0, agents, budget)
        assert gamma_star == 9.0
        assert worst_case_metric(alloc.m, budget).gamma == pytest.approx(1.0 / 3.0, rel=1e-7)

    def test_slack_cap_returns_zero_multiplier(self):
        m0, agents, budget = single_bus_instance()
        gamma_star, alloc = dual_gamma_iterate(5.0, m0, agents, budget)
        assert gamma_star == 0.0
        np.testing.assert_array_equal(alloc.mu, 0.0)
        assert alloc.level == solve_centralized_hard(5.0, m0, agents, budget).level == 1.0 / 5.0

    def test_zero_slope_at_the_level_gives_zero_multiplier(self):
        # Free supply covers the whole gap: C has slope 0 left of L = 2.
        agents = [Agent("free", 0, CostCurve(((1.5, 0.0), (1.0, 4.0))))]
        m0, budget = np.array([1.0, 3.0]), DisturbanceBudget(2.0, 2)
        gamma_star, alloc = dual_gamma_iterate(1.0, m0, agents, budget)
        assert gamma_star == 0.0
        assert alloc.mu[0] == pytest.approx(1.0, rel=1e-12)
        assert alloc.total_cost == 0.0
        assert worst_case_metric(alloc.m, budget).gamma <= 1.0 + 1e-12

    @pytest.mark.parametrize("price_grid", [None, [0.0, 1.0, 2.0, 5.0]], ids=["continuous", "tied"])
    def test_closed_form_inside_bisection_bracket(self, price_grid):
        rng = np.random.default_rng(113)
        checked = 0
        for _ in range(300):
            m0, agents, budget = random_market(rng, price_grid=price_grid)
            gamma_bar = float(worst_case_metric(m0, budget).gamma * rng.uniform(0.5, 1.2))
            try:
                hard = solve_centralized_hard(gamma_bar, m0, agents, budget)
            except InfeasibleError:
                continue
            lo, hi = dual_gamma_bisection_oracle(gamma_bar, m0, agents, budget)
            gamma_star, alloc = dual_gamma_iterate(gamma_bar, m0, agents, budget)
            assert lo * (1 - 1e-12) <= gamma_star <= hi * (1 + 1e-12)
            assert alloc.total_cost == pytest.approx(hard.total_cost, rel=1e-12, abs=1e-12)
            assert worst_case_metric(alloc.m, budget).gamma <= gamma_bar * (1 + 1e-9)
            checked += 1
        assert checked > 100

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_cap_rejected(self, bad):
        m0, agents, budget = single_bus_instance()
        for solve in (dual_gamma_iterate, solve_centralized_hard, regulatory_allocation):
            with pytest.raises(GridError, match="gamma_bar"):
                solve(bad, m0, agents, budget)


class TestRegulatory:
    def test_bus_two_proportions(self):
        scn, m0, agents, budget = case_inputs()
        alloc = regulatory_allocation(0.29, m0, agents, budget)
        by_id = {ag.id: alloc.mu[k] for k, ag in enumerate(scn.agents)}
        assert by_id["2a"] == pytest.approx(3.678, abs=1e-3)
        assert by_id["2b"] == pytest.approx(7.356, abs=1e-3)
        assert by_id["2c"] == pytest.approx(11.034, abs=1e-3)

    def test_capacity_proportional_at_every_bus(self):
        scn, m0, agents, budget = case_inputs()
        alloc = regulatory_allocation(0.29, m0, agents, budget)
        for i, label in enumerate(scn.bus_labels):
            members = [k for k, ag in enumerate(agents) if ag.bus == i]
            deficit = max(0.0, LEVEL - m0[i])
            total_cap = sum(agents[k].cap for k in members)
            for k in members:
                expected = deficit * agents[k].cap / total_cap if members else 0.0
                assert alloc.mu[k] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_meets_cap_and_dominates_optimum(self):
        rng = np.random.default_rng(113)
        checked = 0
        for _ in range(40):
            m0, agents, budget = random_market(rng)
            base = worst_case_metric(m0, budget).gamma
            gamma_bar = float(base * rng.uniform(0.5, 1.2))
            try:
                reg = regulatory_allocation(gamma_bar, m0, agents, budget)
                hard = solve_centralized_hard(gamma_bar, m0, agents, budget)
            except InfeasibleError:
                continue
            assert worst_case_metric(reg.m, budget).gamma <= gamma_bar + 1e-9
            assert reg.total_cost >= hard.total_cost - 1e-9
            checked += 1
        assert checked > 10


def test_gamma_must_be_positive():
    m0, agents, budget = single_bus_instance()
    with pytest.raises(GridError, match="gamma"):
        solve_centralized_soft(0.0, m0, agents, budget)


def test_gamma_must_be_finite():
    m0, agents, budget = single_bus_instance()
    with pytest.raises(GridError, match="gamma"):
        solve_centralized_soft(math.nan, m0, agents, budget)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0], ids=["nan", "inf", "zero"])
def test_residual_inertia_must_be_positive_and_finite(bad):
    _, agents, _ = single_bus_instance()
    m0, budget = np.array([2.0, bad]), DisturbanceBudget(1.0, 2)
    calls = [
        lambda: solve_centralized_soft(1.0, m0, agents, budget),
        lambda: solve_centralized_hard(1.0, m0, agents, budget),
        lambda: dual_gamma_iterate(1.0, m0, agents, budget),
        lambda: regulatory_allocation(1.0, m0, agents, budget),
    ]
    for call in calls:
        with pytest.raises(GridError, match="residual inertia"):
            call()


def agent_bus_calls(m0, agents, budget):
    """Every entry point that clears ``agents``, as zero-argument calls."""
    return [
        lambda: solve_centralized_soft(1.0, m0, agents, budget),
        lambda: solve_centralized_hard(1.0, m0, agents, budget),
        lambda: dual_gamma_iterate(1.0, m0, agents, budget),
        lambda: regulatory_allocation(1.0, m0, agents, budget),
        lambda: run_auction(agents, 1.0, m0, budget),
        lambda: run_auction_hard(agents, 1.0, m0, budget),
        lambda: incentive_audit(agents, 1.0, m0, budget, trials=2, seed=0),
    ]


@pytest.mark.parametrize("bus", [1.0, "1", None, True], ids=["float", "str", "none", "bool"])
def test_agent_bus_must_be_an_integer(bus):
    agents = [Agent("A", 0, CostCurve.linear(1.0, 2.0)), Agent("B", bus, CostCurve.linear(1.0, 2.0))]
    m0, budget = np.array([1.0, 1.0]), DisturbanceBudget(1.0, 2)
    for call in agent_bus_calls(m0, agents, budget):
        with pytest.raises(GridError, match=f"agent 'B': bus index must be an integer, got {bus!r}"):
            call()


@pytest.mark.parametrize(
    "agent", ["B", None, ("B", 1, CostCurve.linear(1.0, 2.0))], ids=["str", "none", "tuple"]
)
def test_agents_must_be_agents(agent):
    agents = [Agent("A", 0, CostCurve.linear(1.0, 2.0)), agent]
    m0, budget = np.array([1.0, 1.0]), DisturbanceBudget(1.0, 2)
    for call in agent_bus_calls(m0, agents, budget):
        with pytest.raises(GridError, match="Agent"):
            call()


def test_numpy_integer_agent_bus_accepted():
    curves = (CostCurve.linear(1.0, 2.0), CostCurve.linear(1.0, 2.0))
    m0, budget = np.array([1.0, 1.0]), DisturbanceBudget(1.0, 2)
    plain = [Agent("A", 0, curves[0]), Agent("B", 1, curves[1])]
    numpy = [Agent("A", np.int64(0), curves[0]), Agent("B", np.int32(1), curves[1])]
    for got, want in zip(agent_bus_calls(m0, numpy, budget), agent_bus_calls(m0, plain, budget)):
        assert got() == want()


class TestSwapOptimum:
    """A re-priced bid or an abstention priced on one market, against a re-solve."""

    @staticmethod
    def resolve(agents, k, curve, gamma, m0, budget):
        bids = list(agents)
        if curve is None:
            return solve_centralized_soft(gamma, m0, bids, budget, excluded=(k,)), 0.0
        bids[k] = Agent(agents[k].id, agents[k].bus, curve)
        alloc = solve_centralized_soft(gamma, m0, bids, budget)
        return alloc, alloc.mu[k]

    def test_colocated_partners_at_one_price(self):
        # A and C share price 1 at bus 0 (as 2a and 2c do in the case
        # study). A re-bid at that price keeps the tie and the equal
        # split; cheaper or dearer breaks it; abstaining removes it.
        agents = [
            Agent("A", 0, CostCurve.linear(1.0, 2.0)),
            Agent("B", 0, CostCurve.linear(5.0, 4.0)),
            Agent("C", 0, CostCurve.linear(1.0, 6.0)),
            Agent("D", 1, CostCurve(((1.0, 0.5), (3.0, 2.0)))),
        ]
        m0, budget = np.array([1.0, 1.5]), DisturbanceBudget(2.0, 2)
        curves = [None, CostCurve.linear(1.0, 2.0), CostCurve.linear(0.5, 2.0), CostCurve.linear(3.0, 2.0)]
        for gamma in (0.5, 4.0, 30.0, 400.0):
            market = _Market(m0, agents, budget)
            for curve in curves:
                objective, q = market.swap_optimum(0, market.weight(gamma), curve)
                alloc, want_q = self.resolve(agents, 0, curve, gamma, m0, budget)
                assert objective == pytest.approx(alloc.objective, rel=1e-12, abs=1e-12)
                assert q == pytest.approx(want_q, rel=1e-12, abs=1e-12)

    def test_own_bid_is_the_market_optimum(self):
        m0, agents, budget = random_market(np.random.default_rng(41), max_buses=3, max_agents=6)
        market = _Market(m0, agents, budget)
        for k, ag in enumerate(agents):
            base = market.solve(7.0)
            objective, q = market.optimum(k, market.weight(7.0))
            assert objective == pytest.approx(base.objective, rel=1e-12)
            assert q == base.mu[k]
            swapped, q_swapped = market.swap_optimum(k, market.weight(7.0), ag.curve)
            assert swapped == pytest.approx(objective, rel=1e-12)
            assert q_swapped == pytest.approx(q, rel=1e-12, abs=1e-15)

    @staticmethod
    def audit_instance_46():
        """Trial 13 of the benchmark's audit instance 46 (perfbench/markets.py), on one bus."""
        bids = [
            ((4.071292364064442, 0.2016982176493389), (2.736382906302997, 0.23153810669646432),
             (4.073068675313897, 0.42926856567458405)),
            ((27.543612570542194, 11.989964099076415), (8.591266205661567, 13.90900104058596)),
            ((20.004585023639716, 4.03583285934401), (22.68596493772571, 8.550229312512991),
             (0.32611458871845955, 9.60057804060385)),
            ((18.68347925891547, 0.2858839789937836),),
            ((16.511665789335225, 3.6402143096766735),),
        ]
        agents = [Agent(f"a{k}", 0, CostCurve(segments)) for k, segments in enumerate(bids)]
        deviation = CostCurve(
            ((4.071292364064442, 0.28868290116553874), (2.736382906302997, 0.5760781905547496),
             (4.073068675313897, 0.6549339136768537))
        )
        m0, budget = np.array([2.4694230969120254]), DisturbanceBudget(12.548090775367303, 1)
        gamma = 32.20903042649134
        return agents, deviation, m0, budget, gamma

    def test_deviation_with_a_swapped_start_one_ulp_below_a_breakpoint(self):
        # a0's deviation moves its first two segments above a3's,
        # so the bus re-sums the same three widths in another order, and that
        # knot starts a swapped tier one ulp below the sweep's breakpoint
        # 27.9606. The base optimum lies above it and the swapped optimum two
        # sub-pieces below: a walk that takes its direction from the one-ulp
        # sub-piece can stop at the breakpoint instead.
        agents, deviation, m0, budget, gamma = self.audit_instance_46()
        market = _Market(m0, agents, budget)
        weight = market.weight(gamma)
        pts, _, _ = market._sweep()
        supply = market.supplies[0].swapped(0, deviation)
        assert supply.starts[3] == math.nextafter(pts[3], 0.0) and round(pts[3], 4) == 27.9606
        assert market.level(weight) > pts[3]
        alloc, want_q = self.resolve(agents, 0, deviation, gamma, m0, budget)
        assert round(alloc.level, 4) == 26.4873
        assert market.swapped_level(weight, 0, supply) == pytest.approx(alloc.level, rel=1e-12)
        objective, q = market.swap_optimum(0, weight, deviation)
        assert objective == pytest.approx(alloc.objective, rel=1e-12)
        assert q == pytest.approx(want_q, rel=1e-12)

    def test_swapped_supply_larger_than_the_bus_rejected(self):
        agents = [Agent("A", 0, CostCurve.linear(1.0, 2.0)), Agent("B", 1, CostCurve.linear(1.0, 2.0))]
        market = _Market(np.array([1.0, 1.0]), agents, DisturbanceBudget(1.0, 2))
        larger = _BusSupply(1.0, [(0, CostCurve.linear(1.0, 2.0 + 1e-6))])
        with pytest.raises(ContractError, match="exceeds bus 0"):
            market.swapped_level(5.0, 0, larger)

    def test_swapped_supply_one_ulp_larger_stops_at_the_cap(self):
        agents = [Agent("A", 0, CostCurve.linear(1.0, 2.0)), Agent("B", 1, CostCurve.linear(1.0, 3.0))]
        market = _Market(np.array([1.0, 1.0]), agents, DisturbanceBudget(1.0, 2))
        ulp_larger = _BusSupply(1.0, [(0, CostCurve.linear(1.0, math.nextafter(2.0, math.inf)))])
        assert market.swapped_level(1e6, 0, ulp_larger) == market.cap == 3.0

    @staticmethod
    def cap_market():
        # Bus 0 lifts to 3 at price 0.25 (A) and on to 5 at price 1 (B), so
        # it sets the reach cap 5; bus 1 lifts to 3 at 0.5 and on to 6 at 3.
        # The sweep's breakpoints are 1, 3 and 5, with slopes 0.75 and 4.
        agents = [
            Agent("A", 0, CostCurve.linear(0.25, 2.0)),
            Agent("B", 0, CostCurve.linear(1.0, 2.0)),
            Agent("C", 1, CostCurve(((2.0, 0.5), (3.0, 3.0)))),
        ]
        return np.array([1.0, 1.0]), agents, DisturbanceBudget(1.0, 2)

    @pytest.mark.parametrize(
        "k, curve, gamma, base, want",
        [
            # Without A, bus 0 reaches only 3.0, a breakpoint of the sweep: the
            # walk starts on the empty sub-piece at 3.0, from a base optimum at
            # the reach cap and from one exactly at 3.0.
            (0, None, 150.0, 5.0, 3.0),
            (0, None, 9.375, 3.0, math.sqrt(9.375 / 1.5)),
            # Bus 1 re-bids; the cap stays 5.0, where the base optimum sits.
            (2, CostCurve(((2.0, 0.25), (3.0, 1.5))), 150.0, 5.0, 5.0),
            (2, CostCurve(((2.0, 1.0), (3.0, 6.0))), 150.0, 5.0, math.sqrt(150.0 / 7.0)),
            (2, CostCurve(((2.0, 20.0), (3.0, 120.0))), 150.0, 5.0, math.sqrt(150.0 / 20.25)),
        ],
        ids=["abstain-base-at-cap", "abstain-base-at-top", "cheaper", "dearer", "dearer-two-pieces-down"],
    )
    def test_walk_from_the_cap(self, k, curve, gamma, base, want):
        m0, agents, budget = self.cap_market()
        market = _Market(m0, agents, budget)
        weight = market.weight(gamma)
        assert market._sweep()[0] == [1.0, 3.0, 5.0] and market.cap == 5.0
        assert market.level(weight) == base
        b = agents[k].bus
        supply = market.supplies[b].swapped(k, curve)
        got = market.swapped_level(weight, b, supply)
        assert got == want == swapped_level_index_walk_oracle(market, weight, b, supply)
        alloc, _ = self.resolve(agents, k, curve, gamma, m0, budget)
        assert got == pytest.approx(alloc.level, rel=1e-15)


def scaled_prices(curve, factor):
    return CostCurve(tuple((width, price * factor) for width, price in curve.segments))


def test_swapped_level_matches_the_index_walk_oracle():
    # Abstentions, re-bids at half and twice the prices, and audit
    # deviations: on small markets, half on a tied price grid, and on 50-80
    # agents crowded onto 1-2 buses, half of those tied with every width
    # 0.3. The index walk skipped sub-pieces narrower than 1e-12 of their
    # end. Where a re-priced bus re-sums a knot up to 2 ulps below the
    # sweep's breakpoint and the minimizer is that kink, it returned the
    # breakpoint, and this walk the swapped start, which is also the level
    # of a re-solve with the bid in place.
    rng = np.random.default_rng(17)
    shapes = [
        {},
        {"price_grid": (0.0, 0.5, 1.0, 2.0, 5.0)},
        {"max_buses": 2, "min_agents": 50, "max_agents": 80},
        {"max_buses": 2, "min_agents": 50, "max_agents": 80, "price_grid": (0.0, 1.0, 2.0, 5.0),
         "width_grid": (0.3,)},
    ]
    checked, moved = 0, 0
    for draw in range(80):
        m0, agents, budget = random_market(rng, **shapes[draw % 4])
        market = _Market(m0, agents, budget)
        pts, _, _ = market._sweep()
        for gamma in np.exp(rng.uniform(np.log(0.1), np.log(5000.0), size=3)):
            weight = market.weight(float(gamma))
            for k in rng.choice(len(agents), size=min(len(agents), 4), replace=False):
                k, b, own = int(k), agents[k].bus, agents[k].curve
                for curve in (None, scaled_prices(own, 0.5), scaled_prices(own, 2.0), deviation_curve(rng, own)):
                    supply = market.supplies[b].swapped(k, curve)
                    got = market.swapped_level(weight, b, supply)
                    want = swapped_level_index_walk_oracle(market, weight, b, supply)
                    checked += 1
                    if got == want:
                        continue
                    moved += 1
                    assert curve is not None and got in supply.starts and want in pts
                    up = math.nextafter(got, math.inf)
                    assert want in (up, math.nextafter(up, math.inf))
                    alloc, _ = TestSwapOptimum.resolve(agents, k, curve, float(gamma), m0, budget)
                    assert got == alloc.level
    assert checked >= 1000 and moved < checked // 100


def test_audit_instance_46_matches_the_index_walk_oracle():
    agents, deviation, m0, budget, gamma = TestSwapOptimum.audit_instance_46()
    market = _Market(m0, agents, budget)
    for scale in (0.25, 1.0, 4.0):
        weight = market.weight(gamma * scale)
        for k, ag in enumerate(agents):
            for curve in (None, ag.curve, deviation if k == 0 else scaled_prices(ag.curve, 1.5)):
                supply = market.supplies[0].swapped(k, curve)
                want = swapped_level_index_walk_oracle(market, weight, 0, supply)
                assert market.swapped_level(weight, 0, supply) == want
