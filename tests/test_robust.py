"""Worst-case metric over the budget polytope and its constraint expansion."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from inertia_market import (
    DisturbanceBudget,
    GridError,
    expand_performance_constraint,
    h2_primary_effort_closed,
    worst_case_metric,
)

from helpers import interior_budget_points


def test_max_of_reciprocals():
    wc = worst_case_metric([2.0, 4.0, 5.0], DisturbanceBudget(10.0, 3))
    assert wc.gamma == pytest.approx(5.0)
    assert wc.rho == pytest.approx(0.5)
    assert wc.argmax_bus == 0
    np.testing.assert_allclose(wc.pi_star, [10.0, 0.0, 0.0])


def test_uniform_ties_break_to_first_bus():
    wc = worst_case_metric([3.0, 3.0, 3.0], DisturbanceBudget(6.0, 3))
    assert wc.gamma == pytest.approx(2.0)
    assert wc.argmax_bus == 0
    assert wc.pi_star[0] == 6.0


def test_invariants_hold():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        m = rng.uniform(0.2, 10.0, n)
        budget = DisturbanceBudget(float(rng.uniform(0.0, 20.0)), n)
        wc = worst_case_metric(m, budget)
        assert wc.gamma == budget.pi_tot * wc.rho
        assert all(p >= 0 for p in wc.pi_star)
        assert sum(wc.pi_star) == pytest.approx(budget.pi_tot, rel=1e-12)


def test_matches_explicit_lp():
    # min pi_tot * rho subject to 1/m_i <= rho, solved by an actual LP.
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        m = rng.uniform(0.2, 10.0, n)
        pi_tot = float(rng.uniform(0.1, 20.0))
        wc = worst_case_metric(m, DisturbanceBudget(pi_tot, n))
        res = linprog(
            c=[pi_tot],
            A_ub=-np.ones((n, 1)),
            b_ub=-1.0 / m,
            bounds=[(0, None)],
            method="highs",
        )
        assert res.success
        assert wc.gamma == pytest.approx(pi_tot * res.x[0], rel=1e-12, abs=1e-12)


def test_vertex_dominance_over_interior_points():
    rng = np.random.default_rng(3)
    m = rng.uniform(0.3, 5.0, 6)
    budget = DisturbanceBudget(7.5, 6)
    wc = worst_case_metric(m, budget)
    for pi in interior_budget_points(rng, 6, budget.pi_tot, 100):
        assert wc.gamma >= h2_primary_effort_closed(m, pi) - 1e-12


def test_rejects_nonpositive_inertia():
    with pytest.raises(GridError, match="positive"):
        worst_case_metric([1.0, 0.0], DisturbanceBudget(1.0, 2))
    with pytest.raises(GridError, match="shape"):
        worst_case_metric([1.0, 1.0, 1.0], DisturbanceBudget(1.0, 2))


def test_negative_budget_rejected():
    with pytest.raises(GridError, match="nonnegative"):
        DisturbanceBudget(-1.0, 2)


@pytest.mark.parametrize("pi_tot", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_budget_rejected(pi_tot):
    with pytest.raises(GridError, match="finite"):
        DisturbanceBudget(pi_tot, 2)


def test_non_numeric_budget_rejected():
    with pytest.raises(GridError, match="pi_tot must be nonnegative and finite, got '1'"):
        DisturbanceBudget("1", 2)


@pytest.mark.parametrize("n", [2.5, 2.0, "2", 0, -1], ids=["fraction", "float", "str", "zero", "negative"])
def test_budget_dimension_must_be_a_positive_integer(n):
    with pytest.raises(GridError, match=f"budget dimension must be an integer of at least 1, got {n!r}"):
        DisturbanceBudget(1.0, n)


def test_numpy_integer_budget_dimension_accepted():
    budget = DisturbanceBudget(1.0, np.int64(2))
    assert worst_case_metric((1.0, 2.0), budget).gamma == 1.0


class TestExpandPerformanceConstraint:
    def test_case_numbers(self):
        level = expand_performance_constraint(0.29, DisturbanceBudget(10.0, 9))
        assert level == pytest.approx(34.4828, abs=1e-4)

    def test_zero_budget_vacuous(self):
        assert expand_performance_constraint(1.0, DisturbanceBudget(0.0, 3)) == 0.0

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(GridError, match="gamma_bar"):
            expand_performance_constraint(0.0, DisturbanceBudget(1.0, 2))

    @pytest.mark.parametrize("gamma_bar", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_rejects_non_finite_cap(self, gamma_bar):
        with pytest.raises(GridError, match="finite"):
            expand_performance_constraint(gamma_bar, DisturbanceBudget(1.0, 2))

    def test_equality_at_the_level(self):
        budget = DisturbanceBudget(10.0, 3)
        level = expand_performance_constraint(0.29, budget)
        m = np.array([level, level + 5.0, level + 1.0])
        assert worst_case_metric(m, budget).gamma == pytest.approx(0.29, rel=1e-12)

    @given(
        st.lists(st.floats(min_value=0.2, max_value=50.0), min_size=1, max_size=6),
        st.floats(min_value=0.05, max_value=5.0),
        st.floats(min_value=0.1, max_value=30.0),
    )
    @settings(max_examples=200)
    def test_equivalence_both_directions(self, m, gamma_bar, pi_tot):
        m = np.asarray(m)
        budget = DisturbanceBudget(pi_tot, len(m))
        level = expand_performance_constraint(gamma_bar, budget)
        # Stay off the knife edge where the two float expressions may
        # round to different sides of the (measure-zero) boundary.
        assume(np.all(np.abs(m * gamma_bar - pi_tot) > 1e-9 * pi_tot))
        meets_cap = worst_case_metric(m, budget).gamma <= gamma_bar
        clears_level = bool(np.all(m >= level))
        assert meets_cap == clears_level
