"""Per-agent result tables in CSV and aligned-text form.

The CSV schema is fixed: agent_id,bus,mu,cost,payment,per_unit_payment,
utility, one row per agent in scenario order, followed by a comment line
holding the summary (level, worst case, objective split, totals). Numbers
print with six significant digits; consumers should parse values rather
than compare strings.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from .planner import Allocation
from .robust import worst_case_metric

__all__ = ["ReportRow", "ReportSummary", "Report", "make_report", "emit_report"]


@dataclass(frozen=True)
class ReportRow:
    agent_id: str
    bus: str
    mu: float
    cost: float
    payment: float
    per_unit_payment: float
    per_unit_cost: float
    utility: float


@dataclass(frozen=True)
class ReportSummary:
    level: float
    worst_case: float
    gamma_term: float
    cost_term: float
    total_cost: float
    total_payment: float


@dataclass(frozen=True)
class Report:
    title: str
    rows: tuple[ReportRow, ...]
    summary: ReportSummary


def make_report(scenario, alloc: Allocation, payments=None, utilities=None, title="plan") -> Report:
    """Assemble the per-agent table for an allocation and optional payments.

    Costs use each agent's true curve when the scenario provides one and
    its bid curve otherwise (truthful default).
    """
    has_payments = payments is not None
    rows = []
    total_cost = 0.0
    total_payment = 0.0
    for k, ag in enumerate(scenario.agents):
        curve = ag.cost if ag.cost is not None else ag.bid
        mu = float(alloc.mu[k])
        cost = curve.value(mu)
        pay = float(payments[k]) if has_payments else 0.0
        if utilities is not None:
            util = float(utilities[k])
        else:
            util = pay - cost if has_payments else 0.0
        rows.append(
            ReportRow(
                agent_id=ag.id,
                bus=ag.bus,
                mu=mu,
                cost=cost,
                payment=pay,
                per_unit_payment=pay / mu if mu > 0 else 0.0,
                per_unit_cost=cost / mu if mu > 0 else 0.0,
                utility=util,
            )
        )
        total_cost += cost
        total_payment += pay
    summary = ReportSummary(
        level=alloc.level,
        worst_case=worst_case_metric(alloc.m, scenario.budget).gamma,
        gamma_term=alloc.objective_parts[0],
        cost_term=alloc.objective_parts[1],
        total_cost=total_cost,
        total_payment=total_payment,
    )
    return Report(title=title, rows=tuple(rows), summary=summary)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def render_csv(report: Report) -> str:
    out = io.StringIO()
    out.write("agent_id,bus,mu,cost,payment,per_unit_payment,utility\n")
    for r in report.rows:
        out.write(
            f"{r.agent_id},{r.bus},{_fmt(r.mu)},{_fmt(r.cost)},{_fmt(r.payment)},"
            f"{_fmt(r.per_unit_payment)},{_fmt(r.utility)}\n"
        )
    s = report.summary
    out.write(
        f"# summary: level={_fmt(s.level)} worst_case={_fmt(s.worst_case)} "
        f"gamma_term={_fmt(s.gamma_term)} cost_term={_fmt(s.cost_term)} "
        f"total_cost={_fmt(s.total_cost)} total_payment={_fmt(s.total_payment)}\n"
    )
    return out.getvalue()


def render_text(report: Report) -> str:
    header = ("agent", "bus", "inertia", "cost", "payment", "pay/unit", "cost/unit", "utility")
    table = [header]
    for r in report.rows:
        table.append(
            (
                r.agent_id,
                r.bus,
                _fmt(r.mu),
                _fmt(r.cost),
                _fmt(r.payment),
                _fmt(r.per_unit_payment),
                _fmt(r.per_unit_cost),
                _fmt(r.utility),
            )
        )
    widths = [max(len(row[c]) for row in table) for c in range(len(header))]
    out = io.StringIO()
    out.write(f"== {report.title} ==\n")
    for idx, row in enumerate(table):
        out.write("  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip() + "\n")
        if idx == 0:
            out.write("  ".join("-" * w for w in widths) + "\n")
    s = report.summary
    out.write(
        f"level={_fmt(s.level)}  worst_case={_fmt(s.worst_case)}  "
        f"gamma_term={_fmt(s.gamma_term)}  cost_term={_fmt(s.cost_term)}\n"
        f"total_cost={_fmt(s.total_cost)}  total_payment={_fmt(s.total_payment)}\n"
    )
    return out.getvalue()


def emit_report(report: Report, fmt: str = "csv", stream=None, path=None) -> str:
    """Render a report and optionally write it to a stream or file."""
    if fmt == "csv":
        text = render_csv(report)
    elif fmt == "text":
        text = render_text(report)
    else:
        raise ValueError(f"format must be 'csv' or 'text', got {fmt!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    if stream is not None:
        stream.write(text)
    return text
