"""The benchmark's operations, their stored references and the checks.

Each workload is a fixed pool of inputs (keys), one operation per input,
a ``summarize`` that turns the operation's output into plain data, and a
``check`` that compares that data with the stored reference for the same
key. ``make_refs.py`` writes the references with the same ``summarize``.

Tolerances: quantities, payments, costs and objectives must match to
1e-9 relative to max(1, |reference|); gamma* to 1e-6 relative; counts
and CLI output (stdout and every written file) exactly.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIO = ROOT / "scenarios" / "case_study.yaml"
REFS = Path(__file__).resolve().parent / "refs"
WORK = ROOT / ".perfbench_work"

VALUE_TOL = 1e-9
GAMMA_STAR_TOL = 1e-6

# Entry point equivalent to the installed ``inertia-market`` console script.
CLI_ENTRY = "from inertia_market.cli import main; main()"

# The README's "Command line" list plus the upper-bound method. Output
# paths are relative to the working directory the command runs in.
CLI_COMMANDS = {
    "validate": ["validate", "{scenario}"],
    "worst-case": ["worst-case", "{scenario}"],
    "h2-closed": ["h2", "{scenario}", "--method", "closed", "--kappa", "2"],
    "h2-gramian": ["h2", "{scenario}", "--method", "gramian"],
    "h2-upper-bound": ["h2", "{scenario}", "--method", "upper-bound"],
    "plan-capped": ["plan", "{scenario}", "--gamma-bar", "0.29"],
    "plan-regulatory": ["plan", "{scenario}", "--regulatory", "--gamma-bar", "0.29"],
    "auction-capped": ["auction", "{scenario}", "--gamma-bar", "0.29", "--format", "text"],
    "compare": ["compare", "{scenario}", "--gamma-bar", "0.29", "--out", "out/"],
    "case-study": ["case-study", "--out", "out/case_study"],
}


def require_checkout() -> None:
    """Refuse to run unless the package and the case study are next to the benchmark."""
    missing = [p for p in (SRC / "inertia_market" / "__init__.py", SCENARIO) if not p.is_file()]
    if missing:
        raise FileNotFoundError(
            "benchmark needs a checkout of the repository; missing "
            + ", ".join(str(p.relative_to(ROOT)) for p in missing)
        )


def import_package():
    """Import ``inertia_market`` from this checkout's ``src``, never from elsewhere."""
    require_checkout()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import inertia_market

    if Path(inertia_market.__file__).resolve().parent != SRC / "inertia_market":
        raise ImportError(f"inertia_market imported from {inertia_market.__file__}, not {SRC}")
    return inertia_market


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def load_refs(workload: str) -> dict:
    with open(REFS / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# In-process workloads


def op_capped(im, mk):
    """The ``compare`` pipeline on one market: three legs, reports and CSVs."""
    curves = [ag.curve for ag in mk.agents]
    central = im.solve_centralized_hard(mk.gamma_bar, mk.m0, mk.agents, mk.budget)
    outcome = im.run_auction_hard(mk.agents, mk.gamma_bar, mk.m0, mk.budget, true_costs=curves)
    regulatory = im.regulatory_allocation(mk.gamma_bar, mk.m0, mk.agents, mk.budget)
    m = mk.m0.copy()
    for ag, q in zip(mk.agents, outcome.mu):
        m[ag.bus] += q
    market = im.Allocation(
        mu=outcome.mu, m=m, level=outcome.level, objective_parts=(0.0, outcome.objective)
    )
    reports = [
        im.make_report(mk.scenario, central, title="centralized"),
        im.make_report(
            mk.scenario, market, payments=outcome.payments, utilities=outcome.utilities, title="market"
        ),
        im.make_report(mk.scenario, regulatory, title="regulatory"),
    ]
    csvs = [im.emit_report(rep, fmt="csv") for rep in reports]
    return central, outcome, regulatory, csvs


def op_tradeoff(im, mk):
    return im.run_auction(mk.agents, mk.gamma, mk.m0, mk.budget)


def op_audit(im, batch):
    """``incentive_audit`` on each instance of one batch, as a sweep runs them."""
    return [
        im.incentive_audit(
            inst.agents, inst.gamma, inst.m0, inst.budget, trials=inst.trials, seed=inst.audit_seed
        )
        for inst in batch
    ]


IN_PROCESS_OPS = {"capped": op_capped, "tradeoff": op_tradeoff, "audit": op_audit}


def _floats(xs):
    return [float(x) for x in xs]


def summarize(workload: str, out) -> dict:
    if workload == "capped":
        central, outcome, regulatory, _ = out
        return {
            "hard_mu": _floats(central.mu),
            "hard_cost": central.total_cost,
            "level": central.level,
            "market_mu": _floats(outcome.mu),
            "payments": _floats(outcome.payments),
            "exclusion_costs": _floats(outcome.exclusion_objectives),
            "market_cost": float(outcome.objective),
            "gamma_star": float(outcome.gamma),
            "regulatory_mu": _floats(regulatory.mu),
            "regulatory_cost": regulatory.total_cost,
        }
    if workload == "tradeoff":
        return {
            "mu": _floats(out.mu),
            "payments": _floats(out.payments),
            "exclusion_objectives": _floats(out.exclusion_objectives),
            "objective": float(out.objective),
            "level": float(out.level),
        }
    if workload == "audit":
        return {
            "trials": [rep.trials for rep in out],
            "max_violation": _floats(rep.max_violation for rep in out),
            "mean_truthful_utility": _floats(rep.mean_truthful_utility for rep in out),
            "mean_deviation_utility": _floats(rep.mean_deviation_utility for rep in out),
        }
    raise ValueError(f"unknown workload {workload!r}")


def _close(value, ref, tol) -> bool:
    return abs(value - ref) <= tol * max(1.0, abs(ref))


def compare_summary(summary: dict, ref: dict) -> list:
    """Names of the fields that differ from the reference beyond tolerance."""
    bad = []
    for key, want in ref.items():
        got = summary.get(key)
        if isinstance(want, int):
            ok = got == want
        elif isinstance(want, list) and all(isinstance(w, int) for w in want):
            ok = got == want
        elif isinstance(want, list):
            ok = got is not None and len(got) == len(want) and all(
                _close(g, w, VALUE_TOL) for g, w in zip(got, want)
            )
        elif key == "gamma_star":
            ok = got is not None and abs(got - want) <= GAMMA_STAR_TOL * abs(want)
        else:
            ok = got is not None and _close(got, want, VALUE_TOL)
        if not ok:
            bad.append(key)
    return bad


def _csv_mismatch(text: str, mu, payments, total_cost) -> bool:
    """True unless the CSV holds the given values at its six printed digits."""
    lines = text.splitlines()
    if lines[0] != "agent_id,bus,mu,cost,payment,per_unit_payment,utility" or len(lines) != len(mu) + 2:
        return True
    printed = [line.split(",") for line in lines[1:-1]]
    summary = dict(kv.split("=") for kv in lines[-1].removeprefix("# summary: ").split())
    pairs = [(float(row[2]), q) for row, q in zip(printed, mu)]
    pairs += [(float(row[4]), p) for row, p in zip(printed, payments)]
    pairs.append((float(summary["total_cost"]), total_cost))
    return not all(math.isclose(a, b, rel_tol=1e-5, abs_tol=1e-12) for a, b in pairs)


def check(workload: str, out, ref: dict) -> list:
    """Reasons the operation's output is wrong; empty when it matches."""
    summary = summarize(workload, out)
    bad = compare_summary(summary, ref)
    if workload == "capped":
        csvs = out[3]
        legs = [
            ("hard_mu", None, "hard_cost"),
            ("market_mu", "payments", "market_cost"),
            ("regulatory_mu", None, "regulatory_cost"),
        ]
        for text, (mu_key, pay_key, cost_key) in zip(csvs, legs):
            payments = summary[pay_key] if pay_key else [0.0] * len(summary[mu_key])
            if _csv_mismatch(text, summary[mu_key], payments, summary[cost_key]):
                bad.append(f"csv:{mu_key}")
    return bad


# ---------------------------------------------------------------------------
# CLI workload


def cli_argv(name: str) -> list:
    return [a.format(scenario=SCENARIO) for a in CLI_COMMANDS[name]]


def cli_workdir() -> Path:
    path = WORK / "cli"
    path.mkdir(parents=True, exist_ok=True)
    return path


def cli_prepare(workdir: Path) -> None:
    """Remove earlier output, so every written file is checked fresh."""
    shutil.rmtree(workdir / "out", ignore_errors=True)


def cli_run(prefix: list, name: str, workdir: Path) -> subprocess.CompletedProcess:
    """Run one command; stdout and stderr stay bytes, so checks are byte for byte."""
    return subprocess.run(
        [sys.executable, *prefix, *cli_argv(name)], cwd=workdir, env=child_env(), capture_output=True
    )


def cli_summary(proc: subprocess.CompletedProcess, workdir: Path) -> dict:
    out = workdir / "out"
    files = {}
    if out.is_dir():
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            files[path.relative_to(out).as_posix()] = path.read_bytes().decode("utf-8")
    return {"returncode": proc.returncode, "stdout": proc.stdout.decode("utf-8"), "files": files}


def cli_check(summary: dict, ref: dict) -> list:
    return [key for key in ("returncode", "stdout", "files") if summary[key] != ref[key]]
