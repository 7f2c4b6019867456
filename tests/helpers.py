"""Shared generators and independent oracles for the test suite.

The oracles deliberately avoid the code paths they check: the Gramian
oracle integrates the matrix exponential numerically, the planner oracle
grid-searches the fill level, the worst-case oracle enumerates polytope
vertices, the auction oracles (trade-off and capped) re-solve the market
once per abstaining agent, through the solvers' ``excluded=`` keyword,
instead of reusing the base solve's market, the
multiplier oracle bisects on trade-off solves instead of reading the
fill-cost slope, and the Lyapunov oracle solves the deflated equation
with scipy's Bartels-Stewart solver instead of the package's sign
iteration. The audit oracle clears each trial's truthful bid, deviation
and abstention as three separate markets instead of swaps on one. The
bus-fill oracle adds up each tier's cost as it fills and splits a tie by
clipping and re-splitting until no agent clips, instead of reading the
cumulative knots and splitting in one ascending-width pass. The audit-draw
oracles make their draws with numpy's array calls (``uniform``,
``dirichlet``, ``exp``, ``sort``) instead of post-processing the same
generator stream in plain Python. The swapped-level oracle steps over
the merged breakpoints by a pair of indices and skips sub-pieces
narrower than rounding, instead of looking each sub-piece up from a
level.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np
from scipy.integrate import quad_vec
from scipy.linalg import expm, null_space, solve_continuous_lyapunov

from inertia_market import (
    Agent,
    AuctionOutcome,
    AuditReport,
    CostCurve,
    DisturbanceBudget,
    InfeasibleError,
    build_grid,
    dual_gamma_iterate,
    solve_centralized_hard,
    solve_centralized_soft,
    worst_case_metric,
)
from inertia_market.auction import AUDIT_TOL, deviation_curve, random_convex_curve


def make_grid(m0, d, lines, labels=None):
    """Grid from plain arrays; lines are (i, j, b) with integer indices, b passed as given."""
    n = len(m0)
    labels = labels or [str(k + 1) for k in range(n)]
    return build_grid(
        {
            "buses": [
                {"label": labels[k], "m0": float(m0[k]), "d": float(d[k])} for k in range(n)
            ],
            "lines": [
                {"from": labels[i], "to": labels[j], "b": b} for i, j, b in lines
            ],
        }
    )


def random_connected_grid(rng, n=None, n_range=(2, 8)):
    """Random spanning tree plus extra edges; moderate parameter ranges."""
    if n is None:
        n = int(rng.integers(n_range[0], n_range[1] + 1))
    lines = []
    for j in range(1, n):
        i = int(rng.integers(j))
        lines.append((i, j, float(rng.uniform(0.5, 2.0))))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        i, j = rng.choice(n, size=2, replace=False)
        if not any({i, j} == {a, b} for a, b, _ in lines):
            lines.append((int(i), int(j), float(rng.uniform(0.5, 2.0))))
    m0 = rng.uniform(0.5, 4.0, size=n)
    d = rng.uniform(0.5, 3.0, size=n)
    return make_grid(m0, d, lines)


def gramian_oracle(A, Q, rel_tol=1e-10):
    """Observability Gramian by quadrature of expm(A't) Q expm(At).

    Valid because Q annihilates the drift mode, so the integrand decays at
    the slowest strictly stable rate; the result is projected off the
    drift mode on both sides to scrub numerical leakage.
    """
    n2 = A.shape[0]
    n = n2 // 2
    eigs = np.linalg.eigvals(A)
    decay = -max(e.real for e in eigs if e.real < -1e-9)
    horizon = 40.0 / decay

    def integrand(t):
        E = expm(A * t)
        return E.T @ Q @ E

    P, _ = quad_vec(integrand, 0.0, horizon, epsabs=1e-12, epsrel=rel_tol)
    v0 = np.zeros(n2)
    v0[:n] = 1.0
    proj = np.eye(n2) - np.outer(v0, v0) / n
    return proj @ P @ proj


def constrained_lyapunov_oracle(A, Q):
    """P with P A + A'P + Q = 0 and P @ [1; 0] = 0, by scipy's Bartels-Stewart solve.

    Deflates the drift mode as the package does, with scipy's SVD-based
    ``null_space`` for the basis of its complement.
    """
    n = A.shape[0] // 2
    U = np.zeros((2 * n, 2 * n - 1))
    U[:n, : n - 1] = null_space(np.ones((1, n)))
    U[n:, n - 1 :] = np.eye(n)
    X = solve_continuous_lyapunov((U.T @ A @ U).T, -(U.T @ Q @ U))
    P = U @ X @ U.T
    return 0.5 * (P + P.T)


def random_psd_block_weight(rng, n):
    """Random Q = blkdiag(Q1, diag(Q2)) with Q1 PSD annihilating the all-ones mode."""
    W = rng.normal(size=(n, n))
    center = np.eye(n) - np.ones((n, n)) / n
    Q1 = center @ (W @ W.T) @ center
    Q1 = 0.5 * (Q1 + Q1.T)
    Q2 = rng.uniform(0.0, 2.0, size=n)
    Q = np.zeros((2 * n, 2 * n))
    Q[:n, :n] = Q1
    Q[n:, n:] = np.diag(Q2)
    return Q


def matrix_sqrt_psd(Q):
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues below the noise floor are zeroed so the root annihilates
    the kernel of Q exactly instead of leaking sqrt(eps).
    """
    vals, vecs = np.linalg.eigh(0.5 * (Q + Q.T))
    vals = np.clip(vals, 0.0, None)
    vals[vals < 1e-12 * max(vals.max(), 1e-300)] = 0.0
    return vecs @ np.diag(np.sqrt(vals)) @ vecs.T


def random_market(
    rng, max_buses=4, max_agents=6, max_segments=3, price_grid=None, min_agents=1, width_grid=None
):
    """Random planner instance: residual inertia, agents, budget.

    With ``price_grid``, prices are drawn from that finite set, so
    co-located agents often tie on price and zero prices occur if listed.
    With ``width_grid``, segment widths are drawn from that finite set, so
    knots re-summed in another order often land within an ulp of each
    other. The number of agents is drawn from ``min_agents`` to
    ``max_agents``.
    """
    n = int(rng.integers(1, max_buses + 1))
    m0 = rng.uniform(0.5, 4.0, size=n)
    n_agents = int(rng.integers(min_agents, max_agents + 1))
    agents = []
    for k in range(n_agents):
        n_seg = int(rng.integers(1, max_segments + 1))
        if price_grid is None:
            prices = np.sort(np.exp(rng.uniform(np.log(0.1), np.log(20.0), size=n_seg)))
        else:
            prices = np.sort(rng.choice(price_grid, size=n_seg))
        if width_grid is None:
            widths = rng.uniform(0.3, 2.0, size=n_seg)
        else:
            widths = rng.choice(width_grid, size=n_seg)
        curve = CostCurve(tuple((float(w), float(p)) for w, p in zip(widths, prices)))
        agents.append(Agent(id=f"a{k}", bus=int(rng.integers(n)), curve=curve))
    budget = DisturbanceBudget(pi_tot=float(rng.uniform(0.5, 20.0)), n=n)
    return m0, agents, budget


def fill_cost_knots(m0_i, agents_at_bus):
    """Piecewise-linear (level, cost) knots of the cheapest fill at one bus."""
    offers = []
    for ag in agents_at_bus:
        offers.extend((p, w) for w, p in ag.curve.segments)
    offers.sort()
    levels = [m0_i]
    costs = [0.0]
    for p, w in offers:
        levels.append(levels[-1] + w)
        costs.append(costs[-1] + w * p)
    return np.asarray(levels), np.asarray(costs)


def bus_fill_resplit_oracle(offers, need):
    """Cost and per-agent fills of the cheapest ``need`` at one bus, clamped to capacity.

    ``offers`` are (agent index, CostCurve) pairs; fills are keyed by agent
    index in offer order. Tiers of equal price fill in ascending price with
    a running subtraction. In the tier where ``need`` ends, the remainder
    splits equally over the tier's agents; every agent whose width is no
    more than the share is clipped at it, and what the clip frees is split
    again over the rest, until no agent clips.
    """
    entries = sorted(((price, k, width) for k, curve in offers for width, price in curve.segments),
                     key=lambda t: t[0])
    tiers = []  # (price, [(agent index, width), ...])
    for price, k, width in entries:
        if tiers and tiers[-1][0] == price:
            tiers[-1][1].append((k, width))
        else:
            tiers.append((price, [(k, width)]))
    fills = dict.fromkeys((k for k, _ in offers), 0.0)
    cost = 0.0
    remaining = min(need, sum(width for _, members in tiers for _, width in members))
    for price, members in tiers:
        if remaining <= 0:
            break
        avail = {}
        for k, width in members:
            avail[k] = avail.get(k, 0.0) + width
        tier_total = sum(avail.values())
        if remaining >= tier_total:
            for k, width in avail.items():
                fills[k] += width
            cost += tier_total * price
            remaining -= tier_total
            continue
        active = dict(avail)
        r = remaining
        while active and r > 0:
            share = r / len(active)
            clipped = [k for k, a in active.items() if a <= share]
            if not clipped:
                for k in active:
                    fills[k] += share
                break
            for k in clipped:
                r -= active.pop(k)
                fills[k] += avail[k]
        cost += remaining * price
        remaining = 0.0
    return cost, fills


def grid_search_objective(gamma, m0, agents, budget, step=1e-4):
    """Brute-force minimum of the trade-off objective over fill levels."""
    n = len(m0)
    by_bus = [[] for _ in range(n)]
    for ag in agents:
        by_bus[ag.bus].append(ag)
    lo = float(np.min(m0))
    cap = min(
        float(m0[i]) + sum(ag.cap for ag in by_bus[i]) for i in range(n)
    )
    levels = np.arange(lo, cap, step)
    levels = np.append(levels, cap)
    total = gamma * budget.pi_tot / levels
    for i in range(n):
        knots, costs = fill_cost_knots(float(m0[i]), by_bus[i])
        total += np.interp(levels, knots, costs)
    best = int(np.argmin(total))
    return float(total[best]), float(levels[best])


def interior_budget_points(rng, n, pi_tot, count):
    """Random strength vectors strictly inside the budget polytope."""
    points = rng.dirichlet(np.ones(n), size=count) * pi_tot
    return points * rng.uniform(0.0, 1.0, size=(count, 1))


def run_auction_resolve_oracle(bids, gamma, m0, budget):
    """Trade-off auction by N+1 full solves: the base plus one per abstaining agent.

    Payments are p_k = B(plan without k) - (B(base plan) - bid_k(mu_k)),
    every exclusion objective coming from its own ``solve_centralized_soft``
    with that agent excluded.
    """
    m0 = np.asarray(m0, dtype=float)
    base = solve_centralized_soft(gamma, m0, bids, budget)
    excl_objs = np.array(
        [solve_centralized_soft(gamma, m0, bids, budget, excluded=(k,)).objective for k in range(len(bids))]
    )
    payments = np.array(
        [
            excl_objs[k] - (base.objective - bids[k].curve.value(float(base.mu[k])))
            for k in range(len(bids))
        ]
    )
    return AuctionOutcome(
        allocation=base,
        payments=payments,
        utilities=None,
        exclusion_objectives=excl_objs,
        gamma=float(gamma),
        mode="soft",
    )


def run_auction_hard_resolve_oracle(bids, gamma_bar, m0, budget, true_costs=None):
    """Capped auction by N+2 full solves: the base, one per abstaining agent, and the multiplier's.

    Payments are p_k = C(plan without k) - (C(base plan) - bid_k(mu_k)),
    every exclusion cost coming from its own ``solve_centralized_hard``.
    Abstentions that miss the cap raise one :class:`InfeasibleError`
    naming every such agent.
    """
    m0 = tuple(map(float, m0))
    base = solve_centralized_hard(gamma_bar, m0, bids, budget)
    base_cost = base.total_cost
    n_agents = len(bids)
    payments = [0.0] * n_agents
    excl_costs = [0.0] * n_agents
    pivotal = []
    for k in range(n_agents):
        try:
            excl = solve_centralized_hard(gamma_bar, m0, bids, budget, excluded=(k,))
        except InfeasibleError:
            pivotal.append(k)
            continue
        excl_costs[k] = excl.total_cost
        payments[k] = excl.total_cost - (base_cost - bids[k].curve.value(base.mu[k]))
    if pivotal:
        raise InfeasibleError(
            "the cap cannot be met if any of these pivotal agents abstains: "
            + ", ".join(f"{bids[k].id!r} (bus {bids[k].bus})" for k in pivotal),
            bus=bids[pivotal[0]].bus,
        )
    gamma_star, _ = dual_gamma_iterate(gamma_bar, m0, bids, budget)
    utilities = None
    if true_costs is not None:
        utilities = tuple(p - c.value(q) for p, q, c in zip(payments, base.mu, true_costs))
    return AuctionOutcome(
        allocation=base,
        payments=tuple(payments),
        utilities=utilities,
        exclusion_objectives=tuple(excl_costs),
        gamma=gamma_star,
        mode="hard",
    )


def dual_gamma_bisection_oracle(gamma_bar, m0, agents, budget, tol=1e-9, max_steps=200):
    """Bracket (lo, hi) on the capped problem's multiplier by bisection.

    The trade-off plan at ``lo`` misses the cap Gamma(m) <= gamma_bar and
    the one at ``hi`` meets it; doubling finds a bracket, then bisection
    narrows it until it is ``tol`` wide and the two plans' costs (which
    sandwich the capped optimum) agree. A cap slack at ``m0`` gives (0, 0).
    """
    if worst_case_metric(m0, budget).gamma <= gamma_bar:
        return 0.0, 0.0

    def meets_cap(gamma):
        alloc = solve_centralized_soft(gamma, m0, agents, budget)
        return worst_case_metric(alloc.m, budget).gamma <= gamma_bar, alloc.total_cost

    lo, cost_lo, hi = 0.0, 0.0, 1.0
    for _ in range(max_steps):
        ok, cost_hi = meets_cap(hi)
        if ok:
            break
        lo, cost_lo, hi = hi, cost_hi, 2.0 * hi
    else:
        raise AssertionError("bisection oracle failed to bracket the multiplier")
    for _ in range(max_steps):
        if hi - lo <= tol and cost_hi - cost_lo <= max(1e-7 * abs(cost_hi), 5e-10):
            return lo, hi
        mid = 0.5 * (lo + hi)
        ok, cost_mid = meets_cap(mid)
        if ok:
            hi, cost_hi = mid, cost_mid
        else:
            lo, cost_lo = mid, cost_mid
    raise AssertionError(f"bisection oracle did not converge in {max_steps} steps")


def random_convex_curve_oracle(rng):
    """``random_convex_curve`` by numpy's array calls on the same generator."""
    n_seg = int(rng.integers(1, 4))
    prices = np.sort(np.exp(rng.uniform(np.log(0.1), np.log(20.0), size=n_seg)))
    cap = rng.uniform(1.0, 50.0)
    widths = cap * rng.dirichlet(np.ones(n_seg))
    return CostCurve(segments=tuple((float(w), float(p)) for w, p in zip(widths, prices)))


def deviation_curve_oracle(rng, curve):
    """``deviation_curve`` by numpy's array calls on the same generator."""
    widths = [w for w, _ in curve.segments]
    factors = np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=len(widths)))
    prices = sorted(p * f for (_, p), f in zip(curve.segments, factors))
    return CostCurve(segments=tuple((w, float(p)) for w, p in zip(widths, prices)))


def incentive_audit_resolve_oracle(true_costs, gamma, m0, budget, trials, seed):
    """``incentive_audit``'s report from three full solves per trial.

    Same draws in the same order; the abstention is a
    ``solve_centralized_soft`` with the agent excluded, and each bid one on
    the trial's bids with that bid in place. Violations are reported in ``max_violation``, not raised.
    """
    rng = np.random.default_rng(seed)
    max_violation, sum_truth, sum_dev = -np.inf, 0.0, 0.0
    for _ in range(trials):
        k = int(rng.integers(len(true_costs)))
        bids = [
            ag if j == k else Agent(id=ag.id, bus=ag.bus, curve=random_convex_curve(rng))
            for j, ag in enumerate(true_costs)
        ]
        true_cost = true_costs[k].curve
        deviation = deviation_curve(rng, true_cost)
        excl_obj = solve_centralized_soft(gamma, m0, bids, budget, excluded=(k,)).objective
        utilities = []
        for bid in (true_cost, deviation):
            trial_bids = list(bids)
            trial_bids[k] = Agent(id=bids[k].id, bus=bids[k].bus, curve=bid)
            base = solve_centralized_soft(gamma, m0, trial_bids, budget)
            q = base.mu[k]
            payment = excl_obj - (base.objective - bid.value(q))
            utilities.append(payment - true_cost.value(q))
        u_truth, u_dev = utilities
        max_violation = max(max_violation, u_dev - u_truth)
        sum_truth += u_truth
        sum_dev += u_dev
    return AuditReport(
        trials=trials,
        max_violation=max_violation,
        mean_truthful_utility=sum_truth / trials,
        mean_deviation_utility=sum_dev / trials,
        tolerance=AUDIT_TOL,
    )


def swapped_level_index_walk_oracle(market, weight, b, supply):
    """``market.swapped_level(weight, b, supply)`` by the earlier index-pair walk.

    Steps over the merged breakpoints of the sweep's ``pts`` and
    ``supply.starts`` by a pair of indices (piece i of the sweep, tier
    t - 1 of the supply), right while the derivative at a sub-piece's
    right end is negative, or left while it is not negative at its left
    end and the next sub-piece down still rises. It skips sub-pieces
    narrower than ``1e-12`` of their right end, and clamps the stationary
    point to the lowest sub-piece with a nonnegative derivative at its
    right end. No supply size check.
    """
    if weight <= 0:
        return market.lo
    old = market.supplies[b]
    lo, top = market.lo, min(market.cap, supply.reach)
    if top <= lo:
        return top
    pts, slopes, _ = market._sweep()
    starts, prices, n = supply.starts, supply.prices, len(supply.starts)
    x = min(market.level(weight), top)
    i, t = min(bisect_right(pts, x), len(slopes)) - 1, bisect_right(starts, x)
    move, found = 0, None  # move 1 is right, -1 left, 0 right until a sub-piece decides
    while True:
        a = max(pts[i], starts[t - 1]) if t else pts[i]
        e = min(pts[i + 1], starts[t], top) if t < n else min(pts[i + 1], top)
        if e - a > 1e-12 * e:
            s = slopes[i] + (prices[t - 1] if t else 0.0) - old.price_at(pts[i])
            if s < weight / (e * e):
                if move < 0:
                    break
                move = 1
            else:
                found = a, e, s
                if move > 0 or s < weight / (a * a):
                    break
                move = -1
        if move < 0:
            if a <= lo:
                break
            i, t = i - (a == pts[i]), t - (t > 0 and a == starts[t - 1])
        elif e < top:
            i, t = i + (e == pts[i + 1]), t + (t < n and e == starts[t])
        elif move > 0:
            break
        else:
            move = -1
    if found is None:
        return top
    a, e, s = found
    return min(max(math.sqrt(weight / s), a), e)
