"""Inertia procurement planning over piecewise-linear convex cost curves.

The worst-case metric depends only on the least-inertia bus, so optimal
plans are valley-filling: pick a level L, raise every bus below it to
exactly L at minimum cost, and leave the rest alone. Costs are convex
piecewise-linear in L, which makes the trade-off objective

    F(L) = gamma * pi_tot / L + total_fill_cost(L)

convex with finitely many slope breakpoints. The solver sorts the
breakpoints of every bus into one sweep of the aggregate slope, finds the
piece holding the minimizer by binary search, minimizes analytically
inside it, and is exact up to floating point. A change to one bus's
supply moves the minimizer by a short walk from there. The capped
problem fixes the level at pi_tot / gamma_bar, and the same sweep gives
its multiplier in closed form from the slope of the fill cost there.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import ContractError, GridError, InfeasibleError, ScenarioError, real, reals
from .robust import DisturbanceBudget, worst_case_metric

__all__ = [
    "CostCurve",
    "Agent",
    "Allocation",
    "solve_centralized_soft",
    "solve_centralized_hard",
    "dual_gamma_iterate",
    "regulatory_allocation",
]

@dataclass(frozen=True)
class CostCurve:
    """Convex nondecreasing piecewise-linear money-vs-quantity curve.

    ``segments`` is an ordered tuple of (width, marginal_price); widths are
    positive, prices nonnegative and nondecreasing, and the capacity (the
    summed width) and its cost are finite. numpy scalars are kept as
    floats, so float32 cannot lower the precision of the sums. The curve
    starts at value 0 for quantity 0.

    The checks run inline, not through ``errors.real``: the audit builds a
    curve per agent per trial.
    """

    segments: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.segments:
            raise ScenarioError("cost curve needs at least one segment")
        last_price = cap = cost = 0.0
        try:
            for k, (width, price) in enumerate(self.segments):
                if not width > 0:  # NaN fails too; infinities fail the sums' check
                    raise ScenarioError(f"segment {k}: width must be positive and finite, got {width!r}")
                if not price >= 0:
                    raise ScenarioError(f"segment {k}: price must be nonnegative and finite, got {price!r}")
                if price < last_price:
                    raise ScenarioError(
                        "marginal prices must be nondecreasing (convexity), "
                        f"segment {k} has {price!r} after {last_price!r}"
                    )
                last_price = price
                cap += width
                cost += width * price
        except (TypeError, ValueError, ArithmeticError) as exc:  # None, a str, a Decimal, three numbers, ...
            raise ScenarioError(
                f"segments must be (width, price) pairs of real numbers, got {self.segments!r}"
            ) from exc
        if not math.isfinite(cap + cost):
            raise ScenarioError(f"capacity {cap!r} and its cost {cost!r} must be finite")
        if type(cap) is not float or type(cost) is not float:  # numpy scalars carried into the sums
            object.__setattr__(self, "segments", tuple((float(w), float(p)) for w, p in self.segments))

    @property
    def cap(self) -> float:
        return sum(w for w, _ in self.segments)

    def value(self, q: float) -> float:
        """Curve value at quantity ``q``, clamped to [0, cap]."""
        if q <= 0:
            return 0.0
        total = 0.0
        remaining = q
        for width, price in self.segments:
            take = min(remaining, width)
            total += take * price
            remaining -= take
            if remaining <= 0:
                break
        return total

    @classmethod
    def linear(cls, price: float, cap: float) -> "CostCurve":
        return cls(segments=((cap, price),))


@dataclass(frozen=True)
class Agent:
    """A virtual inertia provider at one bus with a money-vs-inertia curve."""

    id: str
    bus: int
    curve: CostCurve

    @property
    def cap(self) -> float:
        return self.curve.cap


@dataclass(frozen=True)
class Allocation:
    """Procurement result: per-agent quantities and the resulting inertia.

    ``mu`` (per agent) and ``m`` (per bus) are tuples of floats.
    ``objective_parts`` is (gamma_term, cost_term); the gamma term is zero
    for the hard-constrained and regulatory solves, whose objective is cost
    alone.
    """

    mu: tuple[float, ...]
    m: tuple[float, ...]
    level: float
    objective_parts: tuple[float, float]

    @property
    def objective(self) -> float:
        return self.objective_parts[0] + self.objective_parts[1]

    @property
    def total_cost(self) -> float:
        return self.objective_parts[1]


class _BusSupply:
    """One bus's supply: the ascending-price merge of the curves offered there.

    ``offers`` are (agent index, CostCurve) pairs, and ``m0`` is the bus's
    residual inertia. ``tiers`` are (price, {agent index: width}) in
    ascending price, each agent's segments at one price summed into one
    width, and ``widths`` their summed widths. ``knots`` and
    ``knot_costs`` are the cumulative width and cost at each tier's end;
    ``starts`` are the levels at which the tiers begin, and ``reach`` the
    level the whole supply lifts the bus to.
    """

    def __init__(self, m0: float, offers):
        merged = {}
        for k, curve in offers:
            for width, price in curve.segments:
                members = merged.setdefault(price, {})
                members[k] = members.get(k, 0.0) + width
        tiers = sorted(merged.items())  # prices are distinct keys, so no dict is compared
        self._index(m0, offers, tiers, [sum(members.values()) for _, members in tiers])

    def _index(self, m0: float, offers, tiers, widths):
        """Set every field from the merged ``tiers`` and their ``widths``, summed in tier order."""
        self.m0, self.offers, self.tiers, self.widths = m0, offers, tiers, widths
        self.prices, self.starts = prices, starts = [], []
        self.knots, self.knot_costs = knots, knot_costs = [0.0], [0.0]
        knot = cost = 0.0
        for (price, _), width in zip(tiers, widths):
            prices.append(price)
            starts.append(m0 + knot)
            knot += width
            cost += width * price
            knots.append(knot)
            knot_costs.append(cost)
        self.capacity = knot
        self.reach = m0 + knot

    def price_at(self, x: float) -> float:
        """Marginal price of lifting the bus at level ``x``."""
        t = bisect_right(self.starts, x) - 1
        return self.prices[t] if t >= 0 else 0.0

    def cost_at(self, q: float) -> float:
        """Cost of the cheapest ``q``, clamped to capacity: the bus's only cost formula."""
        if q <= 0:
            return 0.0
        j = bisect_right(self.knots, q) - 1
        if j >= len(self.tiers):
            return self.knot_costs[-1]
        return self.knot_costs[j] + (q - self.knots[j]) * self.tiers[j][0]

    def fill(self, need: float) -> dict:
        """Per-agent fills of the cheapest ``need``, clamped to capacity; its cost is ``cost_at(need)``.

        Tiers below ``need`` fill whole. The tier it ends in splits its
        remainder equally over its agents, clipped at their widths: in
        ascending width, each agent takes its whole width while that is
        no more than an equal share of what is left, and the rest take
        that share. Fills are keyed by agent index, in offer order.
        """
        fills = dict.fromkeys((k for k, _ in self.offers), 0.0)
        if need <= 0:
            return fills
        j = bisect_right(self.knots, need) - 1
        for _, members in self.tiers[:j]:
            for k, width in members.items():
                fills[k] += width
        if j < len(self.tiers):
            r = need - self.knots[j]
            split = sorted(self.tiers[j][1].items(), key=lambda t: t[1])
            for i, (k, width) in enumerate(split):
                share = r / (len(split) - i)
                if width > share:
                    for k, _ in split[i:]:
                        fills[k] += share
                    break
                fills[k] += width
                r -= width
        return fills

    def swapped(self, k: int, curve=None) -> "_BusSupply":
        """This bus's supply with agent ``k`` bidding ``curve``, or abstaining for ``curve=None``.

        An abstention drops k from the merged tiers without a re-merge.
        Every other member keeps its width and its place, so the knots
        sum as a rebuild's would, to the bit. A re-priced bid re-merges.
        """
        if curve is not None:
            return _BusSupply(self.m0, [(j, curve if j == k else c) for j, c in self.offers])
        tiers, widths = [], []
        for tier, width in zip(self.tiers, self.widths):
            price, members = tier
            if k in members:
                members = members.copy()
                del members[k]
                if not members:
                    continue
                tier, width = (price, members), sum(members.values())
            tiers.append(tier)
            widths.append(width)
        supply = _BusSupply.__new__(_BusSupply)
        supply._index(self.m0, [(j, c) for j, c in self.offers if j != k], tiers, widths)
        return supply


def _beyond(level, reach):
    """Whether ``level`` lies above ``reach`` by more than rounding, relative to ``reach``.

    An infinite level always does, and a reach below 1 gets no absolute slack.
    """
    return level > reach and level - reach > 1e-9 * reach


class _Market:
    """One market's bus supplies and its aggregate fill-cost curve.

    Every bus contributes slope-increment events (m0_i + knot_j,
    price_j - price_{j-1}). Sorted, they give the breakpoints ``pts`` of
    the total fill cost C(L) on [min m0, reach cap], its slope on each
    piece and its value at each breakpoint. Minimizing weight / L + C(L)
    is then a binary search over pieces and a clamped stationary point;
    a capped plan fills to the level its cap requires.

    The same arrays price any change to one agent's bid that does not
    enlarge its bus's supply, an abstention or a re-priced bid: it changes
    C only through that bus's own supply, so its optimum is a short walk
    from this market's own optimum (``swapped_level``). A capped
    abstention keeps the level, so it re-prices that bus's cost alone and
    re-sums ``fill``'s bus costs.
    """

    def __init__(self, m0, agents, budget, excluded=frozenset()):
        m0 = reals(m0, "residual inertia", positive=True)
        n = len(m0)
        if budget.n != n:
            raise GridError(f"budget dimension {budget.n} does not match {n} buses")
        self.m0, self.agents, self.budget = m0, agents, budget
        offers = [[] for _ in range(n)]  # (agent index, curve) per bus, absentees left out
        # Checked inline, not through ``errors.count``: the audit builds a market per trial.
        try:
            for k, ag in enumerate(agents):
                bus = ag.bus
                if type(bus) is not int and (isinstance(bus, bool) or not hasattr(bus, "__index__")):
                    raise GridError(f"agent {ag.id!r}: bus index must be an integer, got {bus!r}")
                if bus < 0 or bus >= n:
                    raise GridError(f"agent {ag.id!r}: bus index {bus} out of range")
                if k not in excluded:
                    offers[bus].append((k, ag.curve))
            self.supplies = [_BusSupply(m0[i], offers[i]) for i in range(n)]
        except AttributeError:
            raise GridError(f"agents must be Agents with CostCurves, got {agents!r}") from None
        self.lo = min(m0)
        self._cap_bus = min(range(n), key=lambda i: self.supplies[i].reach)
        self.cap = self.supplies[self._cap_bus].reach
        self._curve = None
        self._levels = {}  # level(weight) by weight, where swapped walks start

    def _sweep(self):
        """Breakpoints ``pts`` of C (lo .. cap), its slope on (pts[j], pts[j+1]) and C(pts[j]).

        Built on first use: a capped plan fills to a given level and never needs it.
        """
        if self._curve is not None:
            return self._curve
        events = []
        for supply in self.supplies:
            prev = 0.0
            for level, price in zip(supply.starts, supply.prices):
                if level >= self.cap:
                    break
                events.append((level, price - prev))
                prev = price
        events.sort()
        pts, slopes, costs = [self.lo], [], [0.0]
        slope = 0.0
        for level, increment in events + [(self.cap, 0.0)]:  # the cap closes the last piece
            if level > pts[-1]:
                slopes.append(slope)
                costs.append(costs[-1] + slope * (level - pts[-1]))
                pts.append(level)
            slope += increment
        self._curve = pts, slopes, costs
        return self._curve

    def cost(self, level: float) -> float:
        """Total fill cost C(level) of lifting every bus to ``level``."""
        pts, slopes, costs = self._sweep()
        j = min(bisect_right(pts, level) - 1, len(slopes) - 1)
        if j < 0:
            return 0.0
        return costs[j] + slopes[j] * (level - pts[j])

    def level(self, weight: float) -> float:
        """Minimizer of weight / L + C(L) over [min m0, reach cap].

        The smallest piece whose right end has a nonnegative derivative
        holds the minimizer, found by binary search and kept per weight:
        ``swapped_level`` starts its walks there. The search divides by the
        slope, so a weight / cap^2 that underflows to 0, which a zero slope
        would meet, raises :class:`GridError`. A weight of 0 (pi_tot 0)
        keeps the lowest level.
        """
        if weight <= 0:
            return self.lo
        if weight not in self._levels:
            if weight / (self.cap * self.cap) == 0.0:
                raise GridError(f"trade-off weight {weight!r} over the squared reach cap {self.cap!r} "
                                "underflows")
            pts, slopes, _ = self._sweep()
            first = bisect_left(
                range(len(slopes)), True, key=lambda j: slopes[j] >= weight / (pts[j + 1] * pts[j + 1])
            )
            if first == len(slopes):
                self._levels[weight] = self.cap
            else:
                self._levels[weight] = min(max(math.sqrt(weight / slopes[first]), pts[first]), pts[first + 1])
        return self._levels[weight]

    def swapped_level(self, weight: float, b: int, supply: "_BusSupply") -> float:
        """Minimizer of weight / L + C(L) with bus b's supply replaced by ``supply``.

        ``supply`` may be any supply no larger than bus b's own, up to
        rounding, as an abstention or a re-priced bid at bus b is. The
        reach cap becomes ``min(cap, supply.reach)``: no other bus's reach
        moves, and re-summing the same widths in another order can come out
        an ulp above the original. A supply larger beyond rounding raises
        :class:`ContractError`, since the sweep stops at the cap.

        The swapped cost's sub-pieces lie between the merged breakpoints of
        ``pts`` and ``supply.starts``; ``sub_piece`` finds the one beside a
        level by bisection. From the sub-piece just right of
        ``level(weight)``, clamped to the cap, the walk steps right while
        the derivative at the right end is negative, then left while it is
        not negative at the left end. The minimizer is the right end if the
        derivative is still negative there, else the stationary point
        clamped to the sub-piece. Each step is a local convexity check, so
        a sub-piece one ulp wide, where a re-summed start falls beside the
        sweep's breakpoint for the same knot, is walked like any other.
        """
        if weight <= 0:
            return self.lo
        old = self.supplies[b]
        if supply.capacity - old.capacity > 1e-9 * max(1.0, old.capacity):
            raise ContractError(
                f"swapped-in supply {supply.capacity:.17g} exceeds bus {b}'s own {old.capacity:.17g}"
            )
        lo, top = self.lo, min(self.cap, supply.reach)
        if top <= lo:
            return top
        pts, slopes, _ = self._sweep()
        starts, prices, n = supply.starts, supply.prices, len(supply.starts)

        def sub_piece(x, right):
            """Sub-piece (a, e, slope) just right of ``x``, or just left of it."""
            side = bisect_right if right else bisect_left
            i, t = min(side(pts, x), len(slopes)) - 1, side(starts, x)
            a = max(pts[i], starts[t - 1]) if t else pts[i]
            e = min(pts[i + 1], starts[t], top) if t < n else min(pts[i + 1], top)
            # Every old start below the cap is a breakpoint, so bus b's old price is the one at pts[i].
            return a, e, slopes[i] + (prices[t - 1] if t else 0.0) - old.price_at(pts[i])

        x = min(self.level(weight), top)
        a, e, s = sub_piece(x, True)
        while s < weight / (e * e) and e < top:
            a, e, s = sub_piece(e, True)
        while s >= weight / (a * a) and a > lo:
            a, e, s = sub_piece(a, False)
        if s < weight / (e * e):
            return e
        return min(max(math.sqrt(weight / s), a), e)

    def required_level(self, gamma_bar: float) -> float:
        """Level pi_tot / gamma_bar that the cap Gamma(m) <= gamma_bar needs.

        Raises :class:`InfeasibleError` naming the bus that cannot reach it,
        also when the level overflows, which no finite reach meets
        (``expand_performance_constraint`` raises a :class:`GridError`
        there).
        """
        level = self.budget.pi_tot / real(gamma_bar, "gamma_bar", positive=True)
        if _beyond(level, self.cap):
            raise InfeasibleError(
                lambda name: f"performance cap needs inertia level {level:.6g} but bus "
                f"{name(self._cap_bus)} can reach at most {self.cap:.6g}",
                bus=self._cap_bus,
            )
        return real(level, "inertia level pi_tot / gamma_bar")  # inf here means every reach overflowed

    def fill(self, level: float, gamma: float = 0.0) -> Allocation:
        """Cheapest plan lifting every bus below ``level`` to it (or to its reach).

        Keeps ``bus_costs``, each bus's ``cost_at`` its need, summed in bus order.
        """
        level = float(level)
        mu = [0.0] * len(self.agents)
        m = list(self.m0)
        cost = 0.0
        self.bus_costs = [0.0] * len(self.m0)
        for i, supply in enumerate(self.supplies):
            if level <= supply.m0:
                continue
            need = level - supply.m0
            self.bus_costs[i] = supply.cost_at(need)
            cost += self.bus_costs[i]
            for k, f in supply.fill(need).items():
                mu[k] = f
                m[i] += f
        gamma_term = 0.0
        if gamma > 0:
            gamma_term = real(gamma * worst_case_metric(m, self.budget).gamma, "metric term gamma * Gamma(m)")
        cost = real(cost, "plan cost")
        return Allocation(mu=tuple(mu), m=tuple(m), level=level, objective_parts=(gamma_term, cost))

    def weight(self, gamma) -> float:
        """Trade-off weight gamma * pi_tot of the metric term gamma * pi_tot / L.

        It depends on the market only through ``lo``. The level search and
        the walks compare slopes with weight / L^2 for L from ``lo`` up, and
        objectives add weight / L, so both must stay finite at ``lo``, or
        :class:`GridError` is raised (``level`` checks the other end).
        """
        weight = real(gamma, "gamma", positive=True) * self.budget.pi_tot
        if weight > 0.0:
            floor = self.lo * self.lo if self.lo < 1.0 else self.lo  # weight / L^2 and weight / L peak at lo
            if floor == 0.0:
                raise GridError(f"trade-off weight gamma * pi_tot = {weight!r} over min(m0)^2 overflows")
            real(weight / floor, "gamma * pi_tot / min(m0), squared below 1,")
        return weight

    def solve(self, gamma) -> Allocation:
        return self.fill(self.level(self.weight(gamma)), float(gamma))

    def optimum(self, k: int, weight: float):
        """Optimal trade-off objective and agent ``k``'s quantity in that plan."""
        level = self.level(weight)
        supply = self.supplies[self.agents[k].bus]
        return weight / level + self.cost(level), supply.fill(level - supply.m0)[k]

    def swap_optimum(self, k: int, weight: float, curve=None):
        """Optimal trade-off objective and agent ``k``'s quantity with k bidding ``curve``.

        ``curve=None`` means agent k abstains (quantity 0). Either way only
        k's bus changes, so its level is one ``swapped_level`` walk from
        this market's optimum on its sweep.
        """
        b = self.agents[k].bus
        supply = self.supplies[b].swapped(k, curve)
        level = self.swapped_level(weight, b, supply)
        q = level - supply.m0
        objective = weight / level + self.cost(level) - self.supplies[b].cost_at(q) + supply.cost_at(q)
        return objective, 0.0 if curve is None else supply.fill(q)[k]

    def capped_exclusion_cost(self, k: int, level: float):
        """Cost at ``level``, after ``fill(level)``, without agent ``k``; None if k is pivotal.

        Re-prices k's bus alone with one ``cost_at`` and sums in ``fill``'s
        order: a re-solve's cost to the bit.
        """
        b = self.agents[k].bus
        supply = self.supplies[b].swapped(k)
        if _beyond(level, supply.reach):
            return None
        own = supply.cost_at(level - supply.m0)
        cost = 0.0
        for i, c in enumerate(self.bus_costs):
            cost += own if i == b else c
        return cost

    def _multiplier(self, level: float) -> float:
        """``dual_gamma_iterate``'s multiplier for the capped ``level``."""
        # The piece ending at L: bisect_left puts a level on a breakpoint into the piece to its left.
        pts, slopes, _ = self._sweep()
        j = min(bisect_left(pts, level), len(slopes)) - 1
        if j < 0:
            return 0.0
        return real(level * level * slopes[j] / self.budget.pi_tot, "multiplier L^2 * S(L) / pi_tot")


def solve_centralized_soft(gamma, m0, agents, budget: DisturbanceBudget, *, excluded=()) -> Allocation:
    """Global minimizer of gamma * Gamma(m(mu)) + sum_k cost_k(mu_k).

    The fill level ranges from the lowest residual inertia up to the
    highest level the weakest bus can reach. Between consecutive supply
    breakpoints the fill cost is affine with slope s, so the objective is
    minimized at sqrt(gamma * pi_tot / s) clamped to the piece; a binary
    search over the sorted breakpoints finds the piece. ``excluded``
    removes agents from the market (their allocation is pinned to zero),
    as an abstention does.
    """
    return _Market(m0, agents, budget, frozenset(excluded)).solve(gamma)


def solve_centralized_hard(gamma_bar, m0, agents, budget: DisturbanceBudget, *, excluded=()) -> Allocation:
    """Minimum-cost allocation meeting the worst-case cap Gamma(m) <= gamma_bar.

    Equivalent to lifting every deficient bus to the uniform level
    pi_tot / gamma_bar at minimum cost; infeasibility is reported with the
    blocking bus.
    """
    market = _Market(m0, agents, budget, frozenset(excluded))
    return market.fill(market.required_level(gamma_bar))


def dual_gamma_iterate(gamma_bar, m0, agents, budget: DisturbanceBudget):
    """Multiplier linking the trade-off and capped problems, in closed form.

    The capped plan fills to L = pi_tot / gamma_bar. The trade-off plan
    lands there iff 0 is a subgradient of gamma * pi_tot / L + C(L) at L,
    i.e. gamma in L^2 * [S-(L), S+(L)] / pi_tot, where S-/S+ are the left
    and right slopes of the total fill cost C. Returns (gamma_star,
    allocation): the smallest such multiplier, L^2 * S-(L) / pi_tot (0 when
    the cap is slack at m0), and the capped plan.
    """
    market = _Market(m0, agents, budget)
    level = market.required_level(gamma_bar)
    gamma = market._multiplier(level)
    return gamma, market.fill(level, gamma)


def regulatory_allocation(gamma_bar, m0, agents, budget: DisturbanceBudget) -> Allocation:
    """Capacity-proportional procurement meeting the worst-case cap.

    Each deficient bus's gap to the required level splits over its agents
    in proportion to their capacities, regardless of cost.
    """
    market = _Market(m0, agents, budget)
    level = market.required_level(gamma_bar)
    mu = [0.0] * len(agents)
    m = list(market.m0)
    cost = 0.0
    for i, supply in enumerate(market.supplies):
        deficit = level - supply.m0
        if deficit <= 0 or not supply.offers:
            continue
        total_cap = real(sum(curve.cap for _, curve in supply.offers), f"bus {i} capacity")
        for k, curve in supply.offers:
            share = deficit * (curve.cap / total_cap)  # never overflows: at most the deficit
            mu[k] = share
            m[i] += share
            cost += curve.value(share)
    return Allocation(mu=tuple(mu), m=tuple(m), level=level, objective_parts=(0.0, real(cost, "plan cost")))
