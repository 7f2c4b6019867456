#!/usr/bin/env python3
"""Sweep the trade-off weight and print the cost vs worst-case frontier.

For each gamma on a log grid, solves the trade-off procurement problem on
the bundled study (or a given scenario) and emits CSV rows of
gamma,level,worst_case,total_cost. Useful to see where a given performance
cap lands on the frontier.
"""

import argparse
import math
import sys

import numpy as np

from inertia_market import (
    case_study,
    parse_scenario,
    solve_centralized_soft,
    worst_case_metric,
)

from audit_sweep import positive_int  # the sibling script's argparse type


def positive_float(text: str) -> float:
    """A positive finite number, for argparse: anything else is a usage error."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scenario", nargs="?", default=None, help="scenario file (default: bundled study)")
    parser.add_argument("--gamma-min", type=positive_float, default=1.0)
    parser.add_argument("--gamma-max", type=positive_float, default=1e4)
    parser.add_argument("--points", type=positive_int, default=25)
    args = parser.parse_args()

    scn = parse_scenario(args.scenario) if args.scenario else case_study()
    agents = scn.market_agents(use="cost")
    print("gamma,level,worst_case,total_cost")
    for gamma in np.geomspace(args.gamma_min, args.gamma_max, args.points):
        alloc = solve_centralized_soft(float(gamma), scn.m0, agents, scn.budget)
        worst = worst_case_metric(alloc.m, scn.budget).gamma
        print(f"{gamma:.6g},{alloc.level:.6g},{worst:.6g},{alloc.total_cost:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
