"""Scenario files: schema, validation, the bundled case study, and round-trip IO.

A scenario is a single YAML document (see docs/scenario_format.md):

    format_version: 1
    name: <string>
    timescale: planning | day-ahead
    kappa: 1 | 2                  # metric normalization for direct evaluation
    pi_tot: <float>               # disturbance budget
    gamma: <float>                # at most one of gamma / gamma_bar
    gamma_bar: <float>
    buses:                        # buses carrying an inertia state
      - {label: '1', m0: 37.24, pi: 1.0}     # pi optional (all or none)
    agents:
      - id: 2a
        bus: '2'
        bid:  [{width: 20.0, price: 1.0}, ...]
        cost: [{width: 20.0, price: 1.0}, ...]   # optional true costs; absent or null: the bid
    grid:                         # optional topology for state-space demos
      illustrative: true
      buses: [{label: '1', m0: 37.24, d: 1.0}, ...]
      lines: [{from: '1', to: '3', b: 5.0}, ...]

Market and worst-case evaluation run on ``buses``; the ``grid`` section
only feeds the Gramian and upper-bound demos and may include extra buses
without inertia-market participation (pure network/load buses).

PyYAML is imported inside ``parse_scenario`` and ``emit_scenario``, the
only functions that read or write YAML, so importing the package, building
``case_study()``, clearing a market and auditing it never load it (about
1 MiB of resident memory and 20 ms of start-up on CPython 3.11).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ScenarioError, number, real
from .grid import Grid, build_grid
from .planner import Agent, CostCurve
from .robust import DisturbanceBudget

__all__ = [
    "ScenarioAgent",
    "Scenario",
    "parse_scenario",
    "emit_scenario",
    "case_study",
]

FORMAT_VERSION = 1
TIMESCALES = ("planning", "day-ahead")

# The PyYAML loader and dumper classes that scenario files go through. None,
# the default, picks at each read or write libyaml's parser and emitter when
# PyYAML was built with it, and PyYAML's pure-Python ones otherwise. They
# read and write scenario files identically; libyaml's are faster.
_LOADER = None
_DUMPER = None


@dataclass(frozen=True)
class ScenarioAgent:
    id: str
    bus: str
    bid: CostCurve
    cost: CostCurve | None


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: market data plus optional display topology.

    ``m0`` and ``pi`` hold one float per bus, as tuples.
    """

    name: str
    timescale: str
    kappa: int
    bus_labels: tuple[str, ...]
    m0: tuple[float, ...]
    pi: tuple[float, ...] | None
    budget: DisturbanceBudget
    agents: tuple[ScenarioAgent, ...]
    gamma: float | None
    gamma_bar: float | None
    grid: Grid | None
    grid_illustrative: bool
    notes: str | None

    def bus_index(self, label: str) -> int:
        try:
            return self.bus_labels.index(label)
        except ValueError:
            raise ScenarioError(f"unknown bus label {label!r}") from None

    def market_agents(self, use: str = "bid") -> list[Agent]:
        """Planner agents in file order, backed by bid or true-cost curves."""
        out = []
        for ag in self.agents:
            if use == "bid":
                curve = ag.bid
            elif use == "cost":
                curve = ag.cost if ag.cost is not None else ag.bid
            else:
                raise ValueError(f"use must be 'bid' or 'cost', got {use!r}")
            out.append(Agent(id=ag.id, bus=self.bus_index(ag.bus), curve=curve))
        return out

    def disturbance_strengths(self) -> tuple[float, ...]:
        """Per-bus strengths: the explicit vector, or the budget spread evenly."""
        if self.pi is not None:
            return self.pi
        n = len(self.bus_labels)
        return (self.budget.pi_tot / n,) * n


def _number(raw, where: str, *, positive=False) -> float:
    """A scenario number in range; one that ``float()`` cannot read, or a bool, "must be a number"."""
    try:
        value = number(raw)
    except (TypeError, ValueError):
        raise ScenarioError(f"{where} must be a number, got {raw!r}") from None
    return real(value, where, positive=positive, error=ScenarioError)


def _parse_curve(raw, where: str) -> CostCurve:
    if not isinstance(raw, list) or not raw:
        raise ScenarioError(f"{where}: expected a non-empty list of segments")
    segments = []
    for k, seg in enumerate(raw):
        if not isinstance(seg, dict) or "width" not in seg or "price" not in seg:
            raise ScenarioError(f"{where}[{k}]: expected {{width, price}}, got {seg!r}")
        width = _number(seg["width"], f"{where}[{k}].width", positive=True)
        segments.append((width, _number(seg["price"], f"{where}[{k}].price")))
    try:
        return CostCurve(segments=tuple(segments))
    except ScenarioError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _build_scenario(doc: dict, origin: str) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError(f"{origin}: scenario document must be a mapping")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ScenarioError(f"{origin}: format_version must be {FORMAT_VERSION}, got {version!r}")

    name = str(doc.get("name", "unnamed"))
    timescale = doc.get("timescale", "planning")
    if timescale not in TIMESCALES:
        raise ScenarioError(f"{origin}: timescale must be one of {TIMESCALES}, got {timescale!r}")
    kappa = doc.get("kappa", 1)
    if kappa not in (1, 2):
        raise ScenarioError(f"{origin}: kappa must be 1 or 2, got {kappa!r}")

    if "pi_tot" not in doc:
        raise ScenarioError(f"{origin}: missing pi_tot")
    pi_tot = _number(doc["pi_tot"], f"{origin}: pi_tot")

    gamma = doc.get("gamma")
    gamma_bar = doc.get("gamma_bar")
    if gamma is not None and gamma_bar is not None:
        raise ScenarioError(f"{origin}: gamma and gamma_bar are mutually exclusive")
    if gamma is not None:
        gamma = _number(gamma, f"{origin}: gamma", positive=True)
    if gamma_bar is not None:
        gamma_bar = _number(gamma_bar, f"{origin}: gamma_bar", positive=True)

    buses = doc.get("buses")
    if not isinstance(buses, list) or not buses:
        raise ScenarioError(f"{origin}: 'buses' must be a non-empty list")
    labels = []
    m0 = []
    pi_vals = []
    for k, entry in enumerate(buses):
        if not isinstance(entry, dict) or "label" not in entry or "m0" not in entry:
            raise ScenarioError(f"{origin}: buses[{k}]: expected {{label, m0}}, got {entry!r}")
        label = str(entry["label"])
        labels.append(label)
        m0.append(_number(entry["m0"], f"{origin}: bus {label!r}: m0", positive=True))
        pi_vals.append(entry.get("pi"))
    if len(set(labels)) != len(labels):
        raise ScenarioError(f"{origin}: duplicate bus labels")
    with_pi = [v is not None for v in pi_vals]
    if any(with_pi) and not all(with_pi):
        raise ScenarioError(f"{origin}: per-bus pi must be given for all buses or none")
    pi = None
    if all(with_pi):
        pi = tuple(_number(v, f"{origin}: bus {label!r}: pi") for label, v in zip(labels, pi_vals))

    agents = []
    ids = set()
    for k, entry in enumerate(doc.get("agents") or []):
        where = f"{origin}: agents[{k}]"
        if not isinstance(entry, dict) or "id" not in entry or "bus" not in entry:
            raise ScenarioError(f"{where}: expected {{id, bus, bid}}, got {entry!r}")
        agent_id = str(entry["id"])
        if agent_id in ids:
            raise ScenarioError(f"{where}: duplicate agent id {agent_id!r}")
        ids.add(agent_id)
        bus = str(entry["bus"])
        if bus not in labels:
            raise ScenarioError(f"{where}: unknown bus {bus!r}")
        if "bid" not in entry:
            raise ScenarioError(f"{where}: missing bid curve")
        bid = _parse_curve(entry["bid"], f"{where}.bid")
        cost = _parse_curve(entry["cost"], f"{where}.cost") if entry.get("cost") is not None else None
        agents.append(ScenarioAgent(id=agent_id, bus=bus, bid=bid, cost=cost))

    grid = None
    grid_illustrative = False
    if doc.get("grid") is not None:
        raw_grid = doc["grid"]
        if not isinstance(raw_grid, dict):
            raise ScenarioError(f"{origin}: 'grid' must be a mapping")
        grid_illustrative = bool(raw_grid.get("illustrative", False))
        try:
            grid = build_grid({"buses": raw_grid.get("buses"), "lines": raw_grid.get("lines")})
        except Exception as exc:
            raise ScenarioError(f"{origin}: grid: {exc}") from exc

    return Scenario(
        name=name,
        timescale=timescale,
        kappa=int(kappa),
        bus_labels=tuple(labels),
        m0=tuple(m0),
        pi=pi,
        budget=DisturbanceBudget(pi_tot=pi_tot, n=len(labels)),
        agents=tuple(agents),
        gamma=gamma,
        gamma_bar=gamma_bar,
        grid=grid,
        grid_illustrative=grid_illustrative,
        notes=doc.get("notes"),
    )


def parse_scenario(path) -> Scenario:
    """Load and validate a scenario file."""
    import yaml

    loader = _LOADER or getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=loader)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # the file handle decodes as either loader reads
        raise ScenarioError(f"{path}: not UTF-8 text: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: invalid YAML: {exc}") from exc
    return _build_scenario(doc, origin=str(path))


def _curve_doc(curve: CostCurve):
    return [{"width": float(w), "price": float(p)} for w, p in curve.segments]


def scenario_document(scn: Scenario) -> dict:
    """Plain-data form of a scenario, the inverse of parsing."""
    doc = {
        "format_version": FORMAT_VERSION,
        "name": scn.name,
        "timescale": scn.timescale,
        "kappa": scn.kappa,
        "pi_tot": float(scn.budget.pi_tot),
    }
    if scn.gamma is not None:
        doc["gamma"] = float(scn.gamma)
    if scn.gamma_bar is not None:
        doc["gamma_bar"] = float(scn.gamma_bar)
    if scn.notes:
        doc["notes"] = scn.notes
    buses = []
    for k, label in enumerate(scn.bus_labels):
        entry = {"label": label, "m0": float(scn.m0[k])}
        if scn.pi is not None:
            entry["pi"] = float(scn.pi[k])
        buses.append(entry)
    doc["buses"] = buses
    doc["agents"] = [
        {
            "id": ag.id,
            "bus": ag.bus,
            "bid": _curve_doc(ag.bid),
            **({"cost": _curve_doc(ag.cost)} if ag.cost is not None else {}),
        }
        for ag in scn.agents
    ]
    if scn.grid is not None:
        doc["grid"] = {
            "illustrative": scn.grid_illustrative,
            "buses": [
                {"label": lab, "m0": float(m), "d": float(d)}
                for lab, m, d in zip(scn.grid.labels, scn.grid.m0, scn.grid.d)
            ],
            "lines": [
                {"from": scn.grid.labels[i], "to": scn.grid.labels[j], "b": float(b)}
                for i, j, b in scn.grid.lines
            ],
        }
    return doc


def emit_scenario(scn: Scenario, path) -> None:
    """Write a scenario back to YAML; parsing the output reproduces it."""
    import yaml

    dumper = _DUMPER or getattr(yaml, "CSafeDumper", yaml.SafeDumper)
    with open(path, "w", encoding="utf-8") as fh:
        yaml.dump(scenario_document(scn), fh, Dumper=dumper, sort_keys=False)


# ---------------------------------------------------------------------------
# Bundled case study

# Residual inertia of the nine buses that keep an inertia state after
# network reduction; buses 3, 7, 11 are pure network hubs without one.
_CASE_M0 = {
    "1": 37.24225668,
    "2": 12.41408556,
    "4": 7.219268219,
    "5": 35.38014385,
    "6": 35.38014385,
    "8": 12.73239545,
    "9": 37.24225668,
    "10": 37.24225668,
    "12": 19.98986085,
}

# (id, bus, unit price, capacity): three cost tiers, low=1 / medium=5 / high=10.
_CASE_AGENTS = (
    ("2a", "2", 1.0, 20.0),
    ("2b", "2", 5.0, 40.0),
    ("2c", "2", 1.0, 60.0),
    ("4a", "4", 5.0, 20.0),
    ("4b", "4", 5.0, 40.0),
    ("4c", "4", 1.0, 20.0),
    ("4d", "4", 5.0, 40.0),
    ("4e", "4", 10.0, 20.0),
    ("4f", "4", 5.0, 40.0),
    ("4g", "4", 5.0, 20.0),
    ("8a", "8", 5.0, 20.0),
    ("8b", "8", 5.0, 40.0),
    ("8c", "8", 10.0, 60.0),
    ("12a", "12", 1.0, 20.0),
    ("12b", "12", 5.0, 40.0),
)

# Display topology: three four-bus regions, each a star on a hub bus
# (3, 7, 11), hubs tied in a ring. Susceptances are illustrative only.
_CASE_LINES = (
    ("1", "3", 5.0),
    ("2", "3", 5.0),
    ("4", "3", 5.0),
    ("5", "7", 5.0),
    ("6", "7", 5.0),
    ("8", "7", 5.0),
    ("9", "11", 5.0),
    ("10", "11", 5.0),
    ("12", "11", 5.0),
    ("3", "7", 1.0),
    ("7", "11", 1.0),
    ("11", "3", 1.0),
)
_CASE_HUB_M0 = 1.0

_CASE_NOTES = (
    "Three-region 12-bus study. The metric runs on the nine buses with an "
    "inertia state; buses 3, 7, 11 are network hubs without one. Line "
    "susceptances and hub parameters are illustrative placeholders for the "
    "state-space demos and do not affect the market results."
)


def case_study() -> Scenario:
    """The bundled three-region case study with truthful single-tier agents."""
    grid_buses = []
    for k in range(1, 13):
        label = str(k)
        m0 = _CASE_M0.get(label, _CASE_HUB_M0)
        grid_buses.append({"label": label, "m0": m0, "d": 1.0})
    grid = build_grid(
        {
            "buses": grid_buses,
            "lines": [{"from": i, "to": j, "b": b} for i, j, b in _CASE_LINES],
        }
    )
    agents = tuple(
        ScenarioAgent(
            id=aid,
            bus=bus,
            bid=CostCurve.linear(price, cap),
            cost=CostCurve.linear(price, cap),
        )
        for aid, bus, price, cap in _CASE_AGENTS
    )
    labels = tuple(_CASE_M0)
    return Scenario(
        name="three-region-12bus",
        timescale="planning",
        kappa=1,
        bus_labels=labels,
        m0=tuple(_CASE_M0[lab] for lab in labels),
        pi=None,
        budget=DisturbanceBudget(pi_tot=10.0, n=len(labels)),
        agents=agents,
        gamma=None,
        gamma_bar=0.29,
        grid=grid,
        grid_illustrative=True,
        notes=_CASE_NOTES,
    )
