#!/usr/bin/env python3
"""Randomized truthfulness audit sweep over random market instances.

Draws random instances (buses, residual inertia, convex cost curves),
runs the dominant-strategy audit on each, and prints per-instance and
aggregate statistics. The closing line also counts the vacuous instances,
whose truthful and deviation utilities and violation are all 0, so that
"all clean" is read against what was really checked. A nonzero exit means
some deviation beat truthful bidding beyond tolerance, with the offending
instance dumped for replay.
"""

import argparse
import sys

import numpy as np

from inertia_market import AuditError, incentive_audit
from inertia_market.auction import random_convex_curve
from inertia_market.planner import Agent


def random_instance(rng, max_buses, max_agents):
    n = int(rng.integers(1, max_buses + 1))
    m0 = rng.uniform(0.5, 4.0, size=n)
    n_agents = int(rng.integers(1, max_agents + 1))
    agents = [
        Agent(id=f"a{k}", bus=int(rng.integers(n)), curve=random_convex_curve(rng))
        for k in range(n_agents)
    ]
    return m0, agents


def positive_int(text: str) -> int:
    """An integer of at least 1, for argparse: anything else is a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    """An integer of at least 0, for argparse: anything else is a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=positive_int, default=50)
    parser.add_argument("--trials", type=positive_int, default=20, help="audit trials per instance")
    parser.add_argument("--seed", type=non_negative_int, default=0)
    parser.add_argument("--max-buses", type=positive_int, default=3)
    parser.add_argument("--max-agents", type=positive_int, default=5)
    args = parser.parse_args()

    from inertia_market import DisturbanceBudget

    rng = np.random.default_rng(args.seed)
    worst = -np.inf
    vacuous = 0
    for k in range(args.instances):
        m0, agents = random_instance(rng, args.max_buses, args.max_agents)
        budget = DisturbanceBudget(pi_tot=float(rng.uniform(0.5, 20.0)), n=len(m0))
        gamma = float(np.exp(rng.uniform(np.log(0.5), np.log(200.0))))
        try:
            report = incentive_audit(
                agents, gamma, m0, budget, trials=args.trials, seed=args.seed + 1000 + k
            )
        except AuditError as exc:
            import yaml  # only to dump the instance; a clean sweep never loads it

            print(f"instance {k}: VIOLATION: {exc}", file=sys.stderr)
            print(yaml.safe_dump(exc.instance), file=sys.stderr)
            return 1
        worst = max(worst, report.max_violation)
        # Every trial compared 0 with 0: nothing was tested on this instance.
        if report.mean_truthful_utility == report.mean_deviation_utility == report.max_violation == 0:
            vacuous += 1
        print(
            f"instance {k:3d}: trials={report.trials} max_violation={report.max_violation:+.3e} "
            f"mean_truthful_utility={report.mean_truthful_utility:.4f}"
        )
    print(f"all clean: {args.instances} instances x {args.trials} trials, "
          f"worst violation {worst:+.3e}, {vacuous} vacuous (truthful utility, "
          f"deviation utility and violation all 0)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
