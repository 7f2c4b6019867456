"""Entry points accept any sequence of reals and return tuples of floats."""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import inertia_market
from inertia_market import (
    case_study,
    dual_gamma_iterate,
    regulatory_allocation,
    run_auction,
    run_auction_hard,
    solve_centralized_hard,
    solve_centralized_soft,
    worst_case_metric,
)

CASE = case_study()
AGENTS = CASE.market_agents("bid")
COSTS = [ag.curve for ag in CASE.market_agents("cost")]
BUDGET = CASE.budget

ENTRY_POINTS = {
    "solve_centralized_soft": lambda m0: solve_centralized_soft(1000.0, m0, AGENTS, BUDGET),
    "solve_centralized_hard": lambda m0: solve_centralized_hard(0.29, m0, AGENTS, BUDGET),
    "regulatory_allocation": lambda m0: regulatory_allocation(0.29, m0, AGENTS, BUDGET),
    "dual_gamma_iterate": lambda m0: dual_gamma_iterate(0.29, m0, AGENTS, BUDGET),
    "run_auction": lambda m0: run_auction(AGENTS, 1000.0, m0, BUDGET, true_costs=COSTS),
    "run_auction_hard": lambda m0: run_auction_hard(AGENTS, 0.29, m0, BUDGET, true_costs=COSTS),
    "worst_case_metric": lambda m0: worst_case_metric(m0, BUDGET),
}


def _tuple_fields(output):
    """Every tuple-valued field of a result, nested results included."""
    for field in dataclasses.fields(output):
        value = getattr(output, field.name)
        if dataclasses.is_dataclass(value):
            yield from _tuple_fields(value)
        elif isinstance(value, tuple):
            yield field.name, value


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_ndarray_list_and_tuple_inputs_agree(name):
    solve = ENTRY_POINTS[name]
    results = [solve(form(CASE.m0)) for form in (np.asarray, list, tuple)]
    assert results[0] == results[1] == results[2]
    outputs = results[0] if isinstance(results[0], tuple) else (results[0],)  # dual: (gamma, plan)
    fields = []
    for output in outputs:
        if not dataclasses.is_dataclass(output):
            assert type(output) is float
            continue
        for field, value in _tuple_fields(output):
            fields.append(field)
            assert value and all(type(x) is float for x in value), (field, value)
    assert fields  # every entry point returns at least one per-bus or per-agent tuple


def test_package_exports_exactly_its_modules_public_names():
    modules = [
        importlib.import_module(f"inertia_market.{m.name}")
        for m in pkgutil.iter_modules(inertia_market.__path__)
        if m.name != "cli"
    ]
    names = inertia_market.__all__
    assert names[0] == "__version__"
    assert sorted(names[1:]) == sorted(name for module in modules for name in module.__all__)
    assert len(set(names)) == len(names) == 48
    assert all(hasattr(inertia_market, name) for name in names)
    assert {"random_convex_curve", "deviation_curve"} <= set(names)
    assert not {"real", "reals", "count", "number", "label"} & set(names)
