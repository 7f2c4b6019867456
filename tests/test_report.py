"""Report assembly and rendering invariants."""

import csv
import io

import pytest

from inertia_market import (
    GridError,
    case_study,
    emit_report,
    make_report,
    run_auction_hard,
    solve_centralized_hard,
)

CSV_HEADER = "agent_id,bus,mu,cost,payment,per_unit_payment,utility"


def case_report(with_payments=True):
    scn = case_study()
    if with_payments:
        bids = scn.market_agents("bid")
        costs = [a.curve for a in scn.market_agents("cost")]
        out = run_auction_hard(bids, 0.29, scn.m0, scn.budget, true_costs=costs)
        alloc = solve_centralized_hard(0.29, scn.m0, scn.market_agents("cost"), scn.budget)
        return scn, make_report(scn, alloc, payments=out.payments,
                                utilities=out.utilities, title="market")
    alloc = solve_centralized_hard(0.29, scn.m0, scn.market_agents("cost"), scn.budget)
    return scn, make_report(scn, alloc, title="plan")


def test_csv_header_exact():
    _, report = case_report()
    text = emit_report(report, fmt="csv")
    assert text.splitlines()[0] == CSV_HEADER


def test_totals_equal_column_sums():
    _, report = case_report()
    assert report.summary.total_cost == pytest.approx(
        sum(r.cost for r in report.rows), abs=1e-9
    )
    assert report.summary.total_payment == pytest.approx(
        sum(r.payment for r in report.rows), abs=1e-9
    )


def test_csv_round_trip_parses(tmp_path):
    _, report = case_report()
    path = tmp_path / "report.csv"
    emit_report(report, fmt="csv", path=path)
    lines = path.read_text().splitlines()
    rows = list(csv.DictReader(l for l in lines if not l.startswith("#")))
    assert len(rows) == 15
    mu = [float(r["mu"]) for r in rows]
    assert mu == pytest.approx([r.mu for r in report.rows], rel=1e-5)


def test_empty_allocation_all_zero_rows():
    scn, _ = case_report(with_payments=False)
    alloc = solve_centralized_hard(2.0, scn.m0, scn.market_agents("cost"), scn.budget)
    report = make_report(scn, alloc, title="empty")
    assert all(r.mu == 0.0 and r.cost == 0.0 for r in report.rows)
    assert report.summary.total_cost == 0.0
    assert report.summary.total_payment == 0.0


def test_plan_report_has_zero_utilities():
    _, report = case_report(with_payments=False)
    assert all(r.utility == 0.0 and r.payment == 0.0 for r in report.rows)


def test_text_render_mentions_all_agents():
    scn, report = case_report()
    text = emit_report(report, fmt="text")
    for ag in scn.agents:
        assert ag.id in text
    assert "total_cost" in text


def test_rejects_unknown_format():
    _, report = case_report()
    with pytest.raises(GridError, match="format"):
        emit_report(report, fmt="json")


def test_stream_output():
    _, report = case_report()
    buf = io.StringIO()
    emit_report(report, fmt="csv", stream=buf)
    assert buf.getvalue().startswith(CSV_HEADER)


def test_unwritable_destination_raises(tmp_path):
    _, report = case_report()
    with pytest.raises(OSError):
        emit_report(report, fmt="csv", path=tmp_path / "missing_dir" / "report.csv")
