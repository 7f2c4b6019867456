"""Command-line front door.

Subcommands: validate, h2, worst-case, plan, auction, compare, case-study.
Exit codes: 0 success, 1 input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .auction import run_auction, run_auction_hard
from .errors import (
    GridError,
    InertiaMarketError,
    InfeasibleError,
    NumericsError,
    ScenarioError,
)
from .grid import assemble_state_space, output_matrix_primary_effort
from .h2 import h2_norm_sq_gramian, h2_primary_effort_closed, upper_bound_worst
from .planner import regulatory_allocation, solve_centralized_hard, solve_centralized_soft
from .report import emit_report, make_report
from .robust import worst_case_metric
from .scenario import case_study, emit_scenario, parse_scenario

USAGE_ERROR = 1
NUMERIC_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inertia-market",
        description="Worst-case frequency-performance evaluation and virtual "
        "inertia procurement (planning, auction, regulatory).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a scenario file")
    p.set_defaults(handler=_cmd_validate)
    p.add_argument("scenario")

    p = sub.add_parser("h2", help="evaluate the squared H2 metric")
    p.set_defaults(handler=_cmd_h2)
    p.add_argument("scenario")
    p.add_argument("--method", choices=("gramian", "closed", "upper-bound"), required=True)
    p.add_argument("--kappa", type=int, choices=(1, 2), default=None)

    p = sub.add_parser("worst-case", help="worst-case metric over the budget polytope")
    p.set_defaults(handler=_cmd_worst_case)
    p.add_argument("scenario")

    p = sub.add_parser("plan", help="centralized procurement plan")
    p.set_defaults(handler=_cmd_plan)
    p.add_argument("scenario")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--gamma-bar", type=float, default=None)
    p.add_argument("--regulatory", action="store_true")
    p.add_argument("--format", choices=("csv", "text"), default="csv")
    p.add_argument("--out", default=None)

    p = sub.add_parser("auction", help="sealed-bid auction with externality payments")
    p.set_defaults(handler=_cmd_auction)
    p.add_argument("scenario")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--gamma-bar", type=float, default=None)
    p.add_argument("--format", choices=("csv", "text"), default="csv")
    p.add_argument("--out", default=None)

    p = sub.add_parser("compare", help="regulatory vs centralized vs auction, one bundle")
    p.set_defaults(handler=_cmd_compare)
    p.add_argument("scenario")
    p.add_argument("--gamma-bar", type=float, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("case-study", help="run compare on the bundled scenario")
    p.set_defaults(handler=_cmd_case_study)
    p.add_argument("--out", default=None)

    return parser


def _resolve_mode(scn, gamma, gamma_bar):
    """Merge CLI flags with the scenario's embedded mode; exactly one wins."""
    if gamma is not None and gamma_bar is not None:
        raise ScenarioError("--gamma and --gamma-bar are mutually exclusive")
    if gamma is None and gamma_bar is None:
        gamma, gamma_bar = scn.gamma, scn.gamma_bar
    if gamma is None and gamma_bar is None:
        raise ScenarioError("need --gamma or --gamma-bar (or one embedded in the scenario)")
    return gamma, gamma_bar


def _require_agents(scn):
    if not scn.agents:
        raise ScenarioError("this command needs at least one agent in the scenario")


@contextmanager
def _bus_labels(scn):
    """Name the buses of an infeasibility raised inside by the scenario's labels, not indices."""
    try:
        yield
    except InfeasibleError as exc:
        raise InfeasibleError(exc.describe(scn.bus_labels.__getitem__), bus=exc.bus) from None


def _cmd_validate(args) -> int:
    scn = parse_scenario(args.scenario)
    grid_part = f", grid with {scn.grid.n} buses" if scn.grid is not None else ""
    print(
        f"ok: {scn.name}: {len(scn.bus_labels)} buses, {len(scn.agents)} agents, "
        f"pi_tot={scn.budget.pi_tot:g}{grid_part}"
    )
    return 0


def _cmd_h2(args) -> int:
    scn = parse_scenario(args.scenario)
    kappa = args.kappa if args.kappa is not None else scn.kappa
    if args.method == "closed":
        value = h2_primary_effort_closed(scn.m0, scn.disturbance_strengths(), kappa=kappa)
        print(f"h2_squared={value:.9g} method=closed kappa={kappa}")
        return 0
    if scn.grid is None:
        raise ScenarioError(
            f"method {args.method!r} evaluates the full dynamics and needs the "
            "scenario's 'grid' topology section; this scenario has none"
        )
    grid = scn.grid
    pi = (scn.budget.pi_tot / grid.n,) * grid.n
    note = " (illustrative topology)" if scn.grid_illustrative else ""
    if args.method == "gramian":
        C = output_matrix_primary_effort(grid.d)
        sys_ = assemble_state_space(grid, grid.m0, pi, C)
        value = h2_norm_sq_gramian(sys_)
        print(f"h2_squared={value:.9g} method=gramian{note}")
    else:
        C = output_matrix_primary_effort(grid.d)
        Q = C.T @ C
        value = upper_bound_worst(grid.m0, grid, Q, scn.budget.pi_tot)
        print(f"h2_squared_upper_bound={value:.9g} method=upper-bound{note}")
    return 0


def _cmd_worst_case(args) -> int:
    scn = parse_scenario(args.scenario)
    wc = worst_case_metric(scn.m0, scn.budget)
    label = scn.bus_labels[wc.argmax_bus]
    pi_star = ", ".join(f"{x:.6g}" for x in wc.pi_star)
    print(f"gamma={wc.gamma:.9g}")
    print(f"rho={wc.rho:.9g}")
    print(f"argmax_bus={label}")
    print(f"pi_star=[{pi_star}]")
    return 0


def _cmd_plan(args) -> int:
    scn = parse_scenario(args.scenario)
    _require_agents(scn)
    gamma, gamma_bar = _resolve_mode(scn, args.gamma, args.gamma_bar)
    agents = scn.market_agents(use="cost")
    if args.regulatory:
        if gamma_bar is None:
            raise ScenarioError("--regulatory needs --gamma-bar")
        with _bus_labels(scn):
            alloc = regulatory_allocation(gamma_bar, scn.m0, agents, scn.budget)
        title = f"regulatory plan (gamma_bar={gamma_bar:g})"
    elif gamma_bar is not None:
        with _bus_labels(scn):
            alloc = solve_centralized_hard(gamma_bar, scn.m0, agents, scn.budget)
        title = f"centralized plan (gamma_bar={gamma_bar:g})"
    else:
        alloc = solve_centralized_soft(gamma, scn.m0, agents, scn.budget)
        title = f"centralized plan (gamma={gamma:g})"
    emit_report(make_report(scn, alloc, title=title), fmt=args.format, stream=sys.stdout, path=args.out)
    return 0


def _cmd_auction(args) -> int:
    scn = parse_scenario(args.scenario)
    _require_agents(scn)
    gamma, gamma_bar = _resolve_mode(scn, args.gamma, args.gamma_bar)
    bids = scn.market_agents(use="bid")
    costs = [ag.curve for ag in scn.market_agents(use="cost")]
    if gamma_bar is not None:
        with _bus_labels(scn):
            outcome = run_auction_hard(bids, gamma_bar, scn.m0, scn.budget, true_costs=costs)
        title = f"auction (gamma_bar={gamma_bar:g}, gamma*={outcome.gamma:.6g})"
    else:
        outcome = run_auction(bids, gamma, scn.m0, scn.budget, true_costs=costs)
        title = f"auction (gamma={gamma:g})"
    report = make_report(scn, outcome.allocation, payments=outcome.payments,
                         utilities=outcome.utilities, title=title)
    emit_report(report, fmt=args.format, stream=sys.stdout, path=args.out)
    return 0


def _compare(scn, gamma_bar, out, write_scenario) -> int:
    """The regulatory, centralized and market reports on ``scn``, and their CSVs in ``out``."""
    _require_agents(scn)
    gamma_bar = gamma_bar if gamma_bar is not None else scn.gamma_bar
    if gamma_bar is None:
        raise ScenarioError("compare needs --gamma-bar (or one embedded in the scenario)")

    agents_cost = scn.market_agents(use="cost")
    bids = scn.market_agents(use="bid")
    costs = [ag.curve for ag in agents_cost]

    with _bus_labels(scn):
        central = solve_centralized_hard(gamma_bar, scn.m0, agents_cost, scn.budget)
        outcome = run_auction_hard(bids, gamma_bar, scn.m0, scn.budget, true_costs=costs)
        regulatory = regulatory_allocation(gamma_bar, scn.m0, agents_cost, scn.budget)

    reports = {
        "centralized": make_report(scn, central, title=f"centralized (gamma_bar={gamma_bar:g})"),
        "market": make_report(
            scn,
            outcome.allocation,
            payments=outcome.payments,
            utilities=outcome.utilities,
            title=f"market (gamma_bar={gamma_bar:g}, gamma*={outcome.gamma:.6g})",
        ),
        "regulatory": make_report(scn, regulatory, title=f"regulatory (gamma_bar={gamma_bar:g})"),
    }
    if scn.notes:
        print(f"note: {scn.notes}")
    for rep in reports.values():
        emit_report(rep, fmt="text", stream=sys.stdout)
        print()
    print(
        "total cost: centralized={:.6g} market={:.6g} regulatory={:.6g}".format(
            reports["centralized"].summary.total_cost,
            reports["market"].summary.total_cost,
            reports["regulatory"].summary.total_cost,
        )
    )
    if out is not None:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, rep in reports.items():
            emit_report(rep, fmt="csv", path=out_dir / f"{name}.csv")
        if write_scenario:
            emit_scenario(scn, out_dir / "scenario.yaml")
        print(f"wrote {', '.join(n + '.csv' for n in reports)} to {out_dir}")
    return 0


def _cmd_compare(args) -> int:
    return _compare(parse_scenario(args.scenario), args.gamma_bar, args.out, write_scenario=False)


def _cmd_case_study(args) -> int:
    # The bundled scenario has no file of its own, so its bundle carries a copy.
    return _compare(case_study(), None, args.out, write_scenario=True)


def cli_dispatch(argv) -> int:
    """Run one command; returns the process exit status instead of exiting."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage or version; remap its exit codes.
        return 0 if exc.code == 0 else USAGE_ERROR
    try:
        return args.handler(args)
    except (ScenarioError, GridError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except InertiaMarketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
