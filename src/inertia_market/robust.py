"""Worst-case droop-effort metric over the disturbance budget polytope.

Admissible disturbances are nonnegative strength vectors whose total does
not exceed pi_tot. The metric is linear in the strengths, so the worst
case sits at a polytope vertex: the whole budget lands on the bus with the
least inertia, giving Gamma(m) = pi_tot * max_i 1/m_i.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GridError, count, real, reals

__all__ = [
    "DisturbanceBudget",
    "WorstCase",
    "worst_case_metric",
    "expand_performance_constraint",
]


@dataclass(frozen=True)
class DisturbanceBudget:
    """Total disturbance-energy budget pi_tot over ``n`` buses."""

    pi_tot: float
    n: int

    def __post_init__(self):  # kept as a float and an int
        object.__setattr__(self, "pi_tot", real(self.pi_tot, "pi_tot"))
        object.__setattr__(self, "n", count(self.n, "budget dimension", least=1))


@dataclass(frozen=True)
class WorstCase:
    """Worst-case value with its dual multiplier and maximizing vertex."""

    gamma: float
    rho: float
    pi_star: tuple[float, ...]
    argmax_bus: int


def worst_case_metric(m, budget: DisturbanceBudget) -> WorstCase:
    """Gamma(m) = pi_tot * max_i 1/m_i, with the maximizing disturbance.

    Equivalently the value of the dual problem min pi_tot * rho subject to
    1/m_i <= rho. ``m`` is any sequence of reals. Ties in the attaining bus
    break to the lowest index; the value itself is tie-invariant.
    """
    m = reals(m, "inertia entries", positive=True)
    n = budget.n
    if len(m) != n:
        raise GridError(f"inertia vector has shape ({len(m)},), expected ({n},)")
    recip = [1.0 / x for x in m]
    i_star = max(range(n), key=recip.__getitem__)  # max keeps the first of equal keys
    rho = recip[i_star]
    gamma = real(budget.pi_tot * rho, "worst case pi_tot / min(m)")  # 1 / m overflows below 5.6e-309
    pi_star = [0.0] * n
    pi_star[i_star] = budget.pi_tot
    return WorstCase(gamma=gamma, rho=rho, pi_star=tuple(pi_star), argmax_bus=i_star)


def expand_performance_constraint(gamma_bar: float, budget: DisturbanceBudget) -> float:
    """Uniform inertia floor equivalent to the cap Gamma(m) <= gamma_bar.

    The vertex expansion of the worst-case constraint is pi_tot <=
    gamma_bar * m_i for every bus, i.e. m_i >= L with
    L = pi_tot / gamma_bar. Returns that level; the cap holds iff every
    bus clears it. A cap so small that the level overflows raises
    :class:`GridError`.
    """
    level = budget.pi_tot / real(gamma_bar, "gamma_bar", positive=True)
    return real(level, "inertia level pi_tot / gamma_bar")
