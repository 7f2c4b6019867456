"""End-to-end CLI behaviour: subcommands, reports, exit codes."""

import csv
import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import yaml

import inertia_market
from inertia_market import case_study, emit_scenario, h2
from inertia_market.cli import cli_dispatch

REPO_ROOT = Path(__file__).resolve().parent.parent
CASE_FILE = str(REPO_ROOT / "scenarios" / "case_study.yaml")
# The benchmark's CLI commands (perfbench/ops.py) and their stored stdout and files.
CLI_OPS = REPO_ROOT / "perfbench" / "ops.py"
CLI_REFS = REPO_ROOT / "perfbench" / "refs" / "cli.json"
SOFT_AUCTION_CSV = Path(__file__).resolve().parent / "data" / "auction_soft_gamma1000.csv"


def run_cli(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report_csv(text):
    lines = text.strip().splitlines()
    summary_line = next(l for l in lines if l.startswith("# summary:"))
    rows = list(csv.DictReader(l for l in lines if not l.startswith("#")))
    summary = dict(
        item.split("=") for item in summary_line.removeprefix("# summary: ").split()
    )
    return rows, {k: float(v) for k, v in summary.items()}


def test_validate_ok(capsys):
    code, out, err = run_cli(capsys, "validate", CASE_FILE)
    assert code == 0
    assert "9 buses, 15 agents" in out


def test_validate_missing_file(capsys):
    code, out, err = run_cli(capsys, "validate", "/nope.yaml")
    assert code == 1
    assert "error" in err


def test_unknown_subcommand_usage_exit_one(capsys):
    code, out, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert "usage" in err.lower() or "invalid" in err.lower()


def test_unknown_flag_exit_one(capsys):
    code, out, err = run_cli(capsys, "validate", CASE_FILE, "--bogus")
    assert code == 1


def test_worst_case_reports_weakest_bus(capsys):
    code, out, err = run_cli(capsys, "worst-case", CASE_FILE)
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert float(fields["gamma"]) == pytest.approx(10.0 / 7.219268219, rel=1e-6)
    assert fields["argmax_bus"] == "4"
    assert float(fields["rho"]) == pytest.approx(1.0 / 7.219268219, rel=1e-6)


def test_h2_closed_both_kappas(capsys):
    code, out, _ = run_cli(capsys, "h2", CASE_FILE, "--method", "closed", "--kappa", "1")
    assert code == 0
    v1 = float(out.split("h2_squared=")[1].split()[0])
    code, out, _ = run_cli(capsys, "h2", CASE_FILE, "--method", "closed", "--kappa", "2")
    v2 = float(out.split("h2_squared=")[1].split()[0])
    assert v1 == pytest.approx(2 * v2, rel=1e-12)


def test_h2_closed_uses_per_bus_strengths(capsys, tmp_path):
    pi = tuple((i + 1) / 7 for i in range(9))
    scn = dataclasses.replace(case_study(), pi=pi)
    path = tmp_path / "per_bus_pi.yaml"
    emit_scenario(scn, path)
    code, out, _ = run_cli(capsys, "h2", str(path), "--method", "closed")
    assert code == 0
    assert out == f"h2_squared={h2.h2_primary_effort_closed(scn.m0, pi):.9g} method=closed kappa=1\n"
    assert out.startswith("h2_squared=0.311732646 ")


def test_h2_gramian_needs_topology(capsys, tmp_path):
    scn = dataclasses.replace(case_study(), grid=None, grid_illustrative=False)
    path = tmp_path / "no_grid.yaml"
    emit_scenario(scn, path)
    code, out, err = run_cli(capsys, "h2", str(path), "--method", "gramian")
    assert code == 1
    assert "grid" in err and "topology" in err


def test_h2_gramian_matches_closed_on_grid(capsys):
    code, out, _ = run_cli(capsys, "h2", CASE_FILE, "--method", "gramian")
    assert code == 0
    gram = float(out.split("h2_squared=")[1].split()[0])
    scn = case_study()
    pi_uniform = scn.budget.pi_tot / scn.grid.n
    from inertia_market import h2_primary_effort_closed

    closed = h2_primary_effort_closed(scn.grid.m0, [pi_uniform] * scn.grid.n, kappa=2)
    assert gram == pytest.approx(closed, rel=1e-8)


def test_h2_gramian_inexact_solve_exit_two(capsys, monkeypatch):
    exact = h2._lyapunov
    monkeypatch.setattr(h2, "_lyapunov", lambda a, q: 1.01 * exact(a, q))
    code, out, err = run_cli(capsys, "h2", CASE_FILE, "--method", "gramian")
    assert code == 2
    assert out == "" and "residuals too large" in err


def test_h2_upper_bound_runs(capsys):
    code, out, _ = run_cli(capsys, "h2", CASE_FILE, "--method", "upper-bound")
    assert code == 0
    assert "upper_bound" in out


def test_plan_hard_csv_totals(capsys):
    code, out, _ = run_cli(capsys, "plan", CASE_FILE, "--gamma-bar", "0.29")
    assert code == 0
    rows, summary = parse_report_csv(out)
    assert len(rows) == 15
    assert summary["total_cost"] == pytest.approx(201.631, abs=2e-3)
    assert summary["worst_case"] == pytest.approx(0.29, abs=1e-9)
    assert summary["total_cost"] == pytest.approx(
        sum(float(r["cost"]) for r in rows), abs=1e-2
    )


def test_plan_soft_mode(capsys):
    code, out, _ = run_cli(capsys, "plan", CASE_FILE, "--gamma", "1426.8727705112962")
    assert code == 0
    rows, summary = parse_report_csv(out)
    assert summary["level"] == pytest.approx(34.4828, abs=1e-3)
    assert summary["gamma_term"] > 0


def test_plan_regulatory(capsys):
    code, out, _ = run_cli(capsys, "plan", CASE_FILE, "--regulatory", "--gamma-bar", "0.29")
    assert code == 0
    rows, summary = parse_report_csv(out)
    assert summary["total_cost"] == pytest.approx(406.806, abs=1e-2)


def test_plan_regulatory_needs_gamma_bar(capsys):
    code, out, err = run_cli(capsys, "plan", CASE_FILE, "--regulatory", "--gamma", "5.0")
    assert code == 1
    assert "gamma-bar" in err


def test_plan_both_flags_rejected(capsys):
    code, out, err = run_cli(capsys, "plan", CASE_FILE, "--gamma", "1", "--gamma-bar", "1")
    assert code == 1
    assert "mutually exclusive" in err


def test_plan_uses_embedded_mode(capsys):
    # case file embeds gamma_bar: 0.29
    code, out, _ = run_cli(capsys, "plan", CASE_FILE)
    assert code == 0
    _, summary = parse_report_csv(out)
    assert summary["total_cost"] == pytest.approx(201.631, abs=2e-3)


def test_plan_without_mode_anywhere(capsys, tmp_path):
    scn = case_study()
    bare = dataclasses.replace(scn, gamma=None, gamma_bar=None)
    path = tmp_path / "modeless.yaml"
    emit_scenario(bare, path)
    code, out, err = run_cli(capsys, "plan", str(path))
    assert code == 1
    assert "--gamma" in err


def test_compare_without_gamma_bar_anywhere(capsys, tmp_path):
    path = tmp_path / "modeless.yaml"
    emit_scenario(dataclasses.replace(case_study(), gamma=None, gamma_bar=None), path)
    code, out, err = run_cli(capsys, "compare", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: compare needs --gamma-bar (or one embedded in the scenario)\n"


def test_compare_out_on_a_file_is_an_os_error(capsys, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, _, err = run_cli(capsys, "compare", CASE_FILE, "--out", str(taken))
    assert code == 1
    assert err.startswith("error: ") and str(taken) in err
    assert "Traceback" not in err
    assert taken.read_text() == ""


def test_auction_hard_report(capsys):
    code, out, _ = run_cli(capsys, "auction", CASE_FILE, "--gamma-bar", "0.29")
    assert code == 0
    rows, summary = parse_report_csv(out)
    by_id = {r["agent_id"]: r for r in rows}
    assert float(by_id["4c"]["per_unit_payment"]) == pytest.approx(5.0, abs=1e-4)
    assert float(by_id["12a"]["payment"]) == pytest.approx(72.4645, abs=1e-3)
    assert float(by_id["2b"]["payment"]) == 0.0
    assert summary["total_payment"] == pytest.approx(
        sum(float(r["payment"]) for r in rows), abs=1e-2
    )


def test_auction_soft_report(capsys):
    code, out, _ = run_cli(capsys, "auction", CASE_FILE, "--gamma", "1426.87")
    assert code == 0
    rows, summary = parse_report_csv(out)
    assert len(rows) == 15
    assert summary["gamma_term"] > 0


def test_auction_needs_agents(capsys, tmp_path):
    doc = {
        "format_version": 1,
        "name": "noagents",
        "pi_tot": 1.0,
        "gamma": 2.0,
        "buses": [{"label": "1", "m0": 1.0}],
    }
    path = tmp_path / "noagents.yaml"
    path.write_text(yaml.safe_dump(doc))
    code, out, err = run_cli(capsys, "auction", str(path))
    assert code == 1
    assert "agent" in err


def test_nan_budget_exit_one(capsys, tmp_path):
    path = tmp_path / "nan_budget.yaml"
    text = Path(CASE_FILE).read_text()
    path.write_text(text.replace("pi_tot: 10.0", "pi_tot: .nan", 1))
    assert "pi_tot: .nan" in path.read_text()
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert "pi_tot" in err


@pytest.mark.parametrize("command", ["plan", "auction"])
def test_nan_cap_exit_one(capsys, command):
    code, out, err = run_cli(capsys, command, CASE_FILE, "--gamma-bar", "nan")
    assert code == 1
    assert "gamma_bar" in err
    assert out == ""


def test_nan_residual_inertia_exit_one(capsys, tmp_path):
    path = tmp_path / "nan_m0.yaml"
    text = Path(CASE_FILE).read_text()
    path.write_text(text.replace("m0: 7.219268219", "m0: .nan", 1))
    assert "m0: .nan" in path.read_text()
    code, out, err = run_cli(capsys, "worst-case", str(path))
    assert code == 1
    assert "m0" in err


@pytest.mark.parametrize(
    "old, new, field",
    [("pi_tot: 10.0", "pi_tot: abc", "pi_tot"), ("m0: 7.219268219", "m0: x", "bus '4': m0")],
    ids=["pi_tot", "m0"],
)
def test_non_numeric_scenario_value_exit_one(capsys, tmp_path, old, new, field):
    path = tmp_path / "non_numeric.yaml"
    path.write_text(Path(CASE_FILE).read_text().replace(old, new, 1))
    assert new in path.read_text()
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and f"{field} must be a number" in err


def test_non_utf8_scenario_exit_one(capsys, tmp_path):
    path = tmp_path / "latin.yaml"
    path.write_bytes(b"name: \xff\xfe\n")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "not UTF-8 text" in err


@pytest.mark.parametrize(
    "argv",
    [["validate"], ["h2", "--method", "upper-bound"], ["h2", "--method", "gramian"]],
    ids=["validate", "h2-upper-bound", "h2-gramian"],
)
def test_nan_grid_inertia_exit_one(capsys, tmp_path, argv):
    # The first "m0: 1.0" is grid hub bus 3; the market buses carry no inertia of 1.
    path = tmp_path / "nan_grid_m0.yaml"
    text = Path(CASE_FILE).read_text()
    path.write_text(text.replace("    m0: 1.0\n", "    m0: .nan\n", 1))
    assert "label: '3'\n    m0: .nan" in path.read_text()
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "bus '3'" in err and "finite" in err


def _cli_refs():
    with open(CLI_REFS, encoding="utf-8") as fh:
        return json.load(fh)


def _cli_argv(name):
    spec = importlib.util.spec_from_file_location("perfbench_ops", CLI_OPS)
    ops = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ops)
    return ops.cli_argv(name)


@pytest.mark.parametrize("name", sorted(_cli_refs()))
def test_command_output_matches_stored_reference(capsys, tmp_path, monkeypatch, name):
    # Commands write under out/ in their working directory; stdout and
    # every written file must match the stored run byte for byte.
    ref = _cli_refs()[name]
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, *_cli_argv(name))
    files = {
        p.relative_to(tmp_path / "out").as_posix(): p.read_text(encoding="utf-8")
        for p in sorted((tmp_path / "out").rglob("*"))
        if p.is_file()
    }
    assert code == ref["returncode"]
    assert out == ref["stdout"]
    assert files == ref["files"]


def test_soft_auction_csv_matches_stored_output(capsys):
    code, out, _ = run_cli(capsys, "auction", CASE_FILE, "--gamma", "1000", "--format", "csv")
    assert code == 0
    assert out == SOFT_AUCTION_CSV.read_text(encoding="utf-8")


def test_infeasible_cap_exit_one(capsys):
    code, out, err = run_cli(capsys, "plan", CASE_FILE, "--gamma-bar", "0.0001")
    assert code == 1
    assert "reach" in err


@pytest.mark.parametrize("command", ["plan", "compare"])
def test_infeasible_cap_names_the_bus_label(capsys, command):
    # The weakest reach is at bus index 3, labelled '5'; bus '3' is a hub without inertia state.
    code, out, err = run_cli(capsys, command, CASE_FILE, "--gamma-bar", "0.05")
    assert code == 1
    assert "but bus 5 can reach at most 35.3801" in err


@pytest.mark.parametrize("value", ["1e-320", "5e-324", "1e308", "inf", "nan", "0", "-0.0"])
@pytest.mark.parametrize(
    "command, flag",
    [("plan", "--gamma"), ("plan", "--gamma-bar"), ("auction", "--gamma"), ("auction", "--gamma-bar"),
     ("compare", "--gamma-bar")],
)  # fmt: skip
def test_extreme_weight_or_cap_never_tracebacks(capsys, tmp_path, command, flag, value):
    """A flag at the edge of float range ends in an error line, or in output free of inf and nan."""
    out_dir = ["--out", str(tmp_path)] if command == "compare" else []
    code, out, err = run_cli(capsys, command, CASE_FILE, flag, value, *out_dir)
    if code == 0:
        assert not re.search(r"\b(inf|nan)\b", out, re.IGNORECASE), out
    else:
        assert code in (1, 2) and err.startswith("error:"), (code, err)


@pytest.mark.parametrize("command", ["plan", "auction", "compare"])
def test_overflowing_cap_level_names_the_bus_label(capsys, command):
    """pi_tot / 1e-320 overflows to inf, which no bus reaches; it used to pass as met."""
    code, out, err = run_cli(capsys, command, CASE_FILE, "--gamma-bar", "1e-320")
    assert code == 1 and out == ""
    assert "needs inertia level inf but bus 5 can reach at most 35.3801" in err


def test_pivotal_agent_names_the_bus_label(capsys, tmp_path):
    doc = {
        "format_version": 1,
        "name": "pivotal",
        "pi_tot": 2.0,
        "gamma_bar": 1.0,
        "buses": [{"label": "1", "m0": 1.0}, {"label": "2", "m0": 5.0}],
        "agents": [{"id": "a", "bus": "1", "bid": [{"width": 5.0, "price": 1.0}]}],
    }
    path = tmp_path / "pivotal.yaml"
    path.write_text(yaml.safe_dump(doc))
    code, out, err = run_cli(capsys, "auction", str(path))
    assert code == 1
    assert err.rstrip().endswith("abstains: 'a' (bus 1)")


def test_compare_and_out_files(capsys, tmp_path):
    out_dir = tmp_path / "bundle"
    code, out, _ = run_cli(
        capsys, "compare", CASE_FILE, "--gamma-bar", "0.29", "--out", str(out_dir)
    )
    assert code == 0
    assert "total cost:" in out
    for name in ("centralized", "market", "regulatory"):
        assert (out_dir / f"{name}.csv").exists()
    rows, summary = parse_report_csv((out_dir / "market.csv").read_text())
    assert summary["total_cost"] == pytest.approx(201.631, abs=2e-3)


def test_case_study_bundle(capsys, tmp_path):
    out_dir = tmp_path / "cs"
    code, out, _ = run_cli(capsys, "case-study", "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "scenario.yaml").exists()
    rows, central = parse_report_csv((out_dir / "centralized.csv").read_text())
    _, market = parse_report_csv((out_dir / "market.csv").read_text())
    _, reg = parse_report_csv((out_dir / "regulatory.csv").read_text())
    assert central["total_cost"] == pytest.approx(market["total_cost"], rel=1e-9)
    assert reg["total_cost"] > central["total_cost"]
    # centralized and market quantities coincide under truthful bids
    central_mu = [float(r["mu"]) for r in rows]
    market_rows, _ = parse_report_csv((out_dir / "market.csv").read_text())
    market_mu = [float(r["mu"]) for r in market_rows]
    assert central_mu == pytest.approx(market_mu, abs=1e-9)


def _run_fresh(script, *args):
    """Run ``script`` in a fresh interpreter on this package; returns the JSON it prints."""
    src = str(Path(inertia_market.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(proc.stdout)


def test_gramian_loads_no_scipy():
    # A fresh interpreter: this process already holds scipy through the test oracles.
    script = textwrap.dedent(
        """
        import json, sys
        import inertia_market, inertia_market.cli
        before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        from inertia_market import assemble_state_space, build_grid, h2_norm_sq_gramian
        from inertia_market import output_matrix_primary_effort
        grid = build_grid({
            "buses": [{"label": "a", "m0": 1.0, "d": 1.0}, {"label": "b", "m0": 2.0, "d": 1.0}],
            "lines": [{"from": "a", "to": "b", "b": 1.0}],
        })
        space = assemble_state_space(grid, grid.m0, [1.0, 1.0], output_matrix_primary_effort(grid.d))
        value = h2_norm_sq_gramian(space)
        print(json.dumps({"before": before, "value": value, "after": "scipy" in sys.modules}))
        """
    )
    result = _run_fresh(script)
    assert result["before"] == []
    # Closed form with kappa=2: sum(pi_i / (2 m_i)) = 1/2 + 1/4.
    assert result["value"] == pytest.approx(0.75, rel=1e-9)
    assert not result["after"]


def test_import_loads_no_numpy_until_linear_algebra():
    # A fresh interpreter: this process already holds numpy through the tests.
    script = textwrap.dedent(
        """
        import contextlib, io, json, sys
        import inertia_market, inertia_market.cli
        case = sys.argv[1]
        commands = [
            ["validate", case],
            ["worst-case", case],
            ["h2", case, "--method", "closed"],
            ["plan", case],
            ["plan", case, "--regulatory", "--gamma-bar", "0.29"],
            ["auction", case],
            ["compare", case],
            ["case-study"],
        ]
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in commands:
                codes.append(inertia_market.cli.cli_dispatch(argv))
        before = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes.append(inertia_market.cli.cli_dispatch(["h2", case, "--method", "upper-bound"]))
        print(json.dumps({"codes": codes, "before": before, "h2": out.getvalue(),
                          "after": "numpy" in sys.modules}))
        """
    )
    result = _run_fresh(script, CASE_FILE)
    assert result["codes"] == [0] * 9
    assert result["before"] == []
    assert result["after"]
    # The stored benchmark run of the same command (perfbench/refs/cli.json).
    assert result["h2"] == _cli_refs()["h2-upper-bound"]["stdout"]


def test_import_and_clearing_load_no_yaml():
    # A fresh interpreter: this process already holds PyYAML through the tests.
    script = textwrap.dedent(
        """
        import json, sys
        import inertia_market as im
        case = sys.argv[1]
        loaded = {"import": "yaml" in sys.modules}
        scn = im.case_study()
        loaded["case_study"] = "yaml" in sys.modules
        agents = scn.market_agents()
        im.solve_centralized_soft(1000.0, scn.m0, agents, scn.budget)
        im.solve_centralized_hard(0.29, scn.m0, agents, scn.budget)
        im.dual_gamma_iterate(0.29, scn.m0, agents, scn.budget)
        im.regulatory_allocation(0.29, scn.m0, agents, scn.budget)
        loaded["solvers"] = "yaml" in sys.modules
        im.run_auction(agents, 1000.0, scn.m0, scn.budget)
        im.run_auction_hard(agents, 0.29, scn.m0, scn.budget)
        loaded["auctions"] = "yaml" in sys.modules
        im.incentive_audit(agents, 1000.0, scn.m0, scn.budget, trials=3, seed=0)
        loaded["audit"] = "yaml" in sys.modules
        parsed = im.parse_scenario(case)
        loaded["parse"] = "yaml" in sys.modules
        print(json.dumps({"loaded": loaded, "same": parsed == scn}))
        """
    )
    result = _run_fresh(script, CASE_FILE)
    cleared = dict.fromkeys(["import", "case_study", "solvers", "auctions", "audit"], False)
    assert result["loaded"] == {**cleared, "parse": True}
    assert result["same"]


def test_version_flag(capsys):
    code, out, err = run_cli(capsys, "--version")
    assert code == 0
