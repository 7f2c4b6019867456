"""Scenario parsing, validation diagnostics, round-trips, and the bundled study."""

from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from inertia_market import (
    CostCurve,
    DisturbanceBudget,
    GridError,
    Scenario,
    ScenarioAgent,
    ScenarioError,
    build_grid,
    case_study,
    emit_scenario,
    parse_scenario,
)
from inertia_market import scenario as scenario_module
from inertia_market.scenario import TIMESCALES, scenario_document

REPO_ROOT = Path(__file__).resolve().parent.parent


def minimal_doc():
    return {
        "format_version": 1,
        "name": "mini",
        "pi_tot": 2.0,
        "gamma": 5.0,
        "buses": [{"label": "1", "m0": 1.0}, {"label": "2", "m0": 2.0}],
        "agents": [
            {"id": "a", "bus": "1", "bid": [{"width": 3.0, "price": 1.0}]},
        ],
    }


def write_doc(tmp_path, doc, name="scn.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


def test_minimal_scenario_parses(tmp_path):
    scn = parse_scenario(write_doc(tmp_path, minimal_doc()))
    assert scn.name == "mini"
    assert scn.bus_labels == ("1", "2")
    assert scn.gamma == 5.0 and scn.gamma_bar is None
    assert scn.agents[0].cost is None
    np.testing.assert_allclose(scn.disturbance_strengths(), [1.0, 1.0])


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(format_version=99), "format_version"),
        (lambda d: d.update(gamma_bar=0.3), "mutually exclusive"),
        (lambda d: d.update(timescale="hourly"), "timescale"),
        (lambda d: d.update(kappa=3), "kappa"),
        (lambda d: d.update(pi_tot=-1.0), "pi_tot"),
        (lambda d: d.update(buses=[]), "buses"),
        (lambda d: d["buses"].append({"label": "1", "m0": 1.0}), "duplicate bus"),
        (lambda d: d["buses"].__setitem__(0, {"label": "1", "m0": -1.0}), "m0 must be positive"),
        (lambda d: d["agents"].__setitem__(0, {"id": "a", "bus": "9", "bid": []}), "unknown bus"),
        (lambda d: d["agents"].append({"id": "a", "bus": "1", "bid": [{"width": 1, "price": 1}]}), "duplicate agent"),
        (lambda d: d["agents"].__setitem__(0, {"id": "a", "bus": "1"}), "missing bid"),
        (lambda d: d["agents"][0].update(cost=[]), r"cost: expected a non-empty list"),
        (lambda d: d["agents"][0].update(cost=0), r"cost: expected a non-empty list"),
    ],
)
def test_schema_violations_are_diagnosed(tmp_path, mutate, message):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(ScenarioError, match=message):
        parse_scenario(write_doc(tmp_path, doc))


def _with_gamma_bar(doc, value):
    del doc["gamma"]
    doc["gamma_bar"] = value


def _with_pi(doc, values):
    for bus, pi in zip(doc["buses"], values):
        bus["pi"] = pi


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: _with_gamma_bar(d, float("nan")), "gamma_bar must be positive and finite"),
        (lambda d: _with_gamma_bar(d, float("inf")), "gamma_bar must be positive and finite"),
        (lambda d: d.update(gamma=float("nan")), "gamma must be positive and finite"),
        (lambda d: d["buses"][1].update(m0=float("nan")), "bus '2': m0 must be positive and finite"),
        (lambda d: d["buses"][0].update(m0=float("inf")), "bus '1': m0 must be positive and finite"),
        (lambda d: _with_pi(d, [1.0, float("nan")]), "pi must be nonnegative and finite"),
        (lambda d: _with_pi(d, [float("inf"), 1.0]), "pi must be nonnegative and finite"),
    ],
    ids=["gamma_bar-nan", "gamma_bar-inf", "gamma-nan", "m0-nan", "m0-inf", "pi-nan", "pi-inf"],
)
def test_non_finite_values_rejected(tmp_path, mutate, message):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(ScenarioError, match=message):
        parse_scenario(write_doc(tmp_path, doc))


def _set_segment(doc, **fields):
    doc["agents"][0]["bid"][0].update(fields)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(pi_tot="abc"), "pi_tot must be a number, got 'abc'"),
        (lambda d: d.update(pi_tot=None), "pi_tot must be a number, got None"),
        (lambda d: d.update(gamma="x"), "gamma must be a number, got 'x'"),
        (lambda d: _with_gamma_bar(d, [0.3]), r"gamma_bar must be a number, got \[0.3\]"),
        (lambda d: d["buses"][1].update(m0="x"), "bus '2': m0 must be a number, got 'x'"),
        (lambda d: d["buses"][0].update(m0=None), "bus '1': m0 must be a number, got None"),
        (lambda d: _with_pi(d, [1.0, "high"]), "bus '2': pi must be a number, got 'high'"),
        (lambda d: _set_segment(d, width="wide"), r"bid\[0\].width must be a number, got 'wide'"),
        (lambda d: _set_segment(d, price=[1.0]), r"bid\[0\].price must be a number, got \[1.0\]"),
        (lambda d: d.update(pi_tot=True), "pi_tot must be a number, got True"),
        (lambda d: _set_segment(d, width=False), r"bid\[0\].width must be a number, got False"),
    ],
    ids=["pi_tot-str", "pi_tot-none", "gamma-str", "gamma_bar-list", "m0-str", "m0-none",
         "pi-str", "width-str", "price-list", "pi_tot-bool", "width-bool"],
)
def test_non_numeric_values_name_their_field(tmp_path, mutate, message):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(ScenarioError, match=message):
        parse_scenario(write_doc(tmp_path, doc))


@pytest.mark.parametrize("agents", [5, "abc", {"a": 1}], ids=["int", "str", "mapping"])
def test_agents_must_be_a_list(tmp_path, agents):
    doc = minimal_doc()
    doc["agents"] = agents
    with pytest.raises(ScenarioError, match="'agents' must be a list"):
        parse_scenario(write_doc(tmp_path, doc))


# Written as text, so the parser sees what YAML 1.1 reads an unquoted value as.
YAML_WITH_GRID = """\
format_version: 1
name: mini
kappa: 1
pi_tot: 2.0
buses: [{label: '1', m0: 1.0}, {label: '2', m0: 2.0}]
agents: [{id: a, bus: '1', bid: [{width: 3.0, price: 1.0}]}]
grid:
  illustrative: true
  buses: [{label: '1', m0: 1.0, d: 1.0}, {label: '2', m0: 2.0, d: 1.0}]
  lines: [{from: '1', to: '2', b: 1.0}]
"""


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("format_version: 1", "format_version: true", "format_version must be 1, got True"),
        ("format_version: 1", "format_version: 1.0", "format_version must be 1, got 1.0"),
        ("kappa: 1", "kappa: true", "kappa must be 1 or 2, got True"),
        ("kappa: 1", "kappa: 2.0", "kappa must be 1 or 2, got 2.0"),
        ("name: mini", "name: yes", "name must be a string, got True; quote it"),
        ("{label: '1', m0: 1.0}", "{label: yes, m0: 1.0}", r"buses\[0\].label must be a string, got True"),
        ("{label: '2', m0: 2.0}", "{label: ~, m0: 2.0}", r"buses\[1\].label must be a string, got None"),
        ("id: a", "id: on", r"agents\[0\].id must be a string, got True"),
        ("bus: '1'", "bus: no", r"agents\[0\].bus must be a string, got False"),
        ("{label: '2', m0: 2.0, d", "{label: off, m0: 2.0, d", r"grid: buses\[1\]: label must be a string, got False"),
        ("from: '1'", "from: yes", r"grid: lines\[0\]: from must be a string, got True"),
        ("to: '2'", "to: [2]", r"grid: lines\[0\]: to must be a string, got \[2\]"),
        ("illustrative: true", "illustrative: 1", "illustrative must be true or false, got 1"),
    ],
    ids=["format_version-bool", "format_version-float", "kappa-bool", "kappa-float", "name", "bus-label-bool",
         "bus-label-null", "agent-id", "agent-bus", "grid-label", "line-from", "line-to", "illustrative"],
)
def test_yaml_bools_and_nulls_are_refused(tmp_path, old, new, message):
    assert YAML_WITH_GRID.count(old) == 1
    path = tmp_path / "scn.yaml"
    path.write_text(YAML_WITH_GRID.replace(old, new))
    with pytest.raises(ScenarioError, match=message):
        parse_scenario(path)


def test_market_agents_rejects_unknown_curve_choice():
    with pytest.raises(GridError, match="use must be 'bid' or 'cost'"):
        case_study().market_agents(use="x")


def test_decreasing_marginal_prices_rejected(tmp_path):
    doc = minimal_doc()
    doc["agents"][0]["bid"] = [
        {"width": 1.0, "price": 5.0},
        {"width": 1.0, "price": 2.0},
    ]
    with pytest.raises(ScenarioError, match="nondecreasing"):
        parse_scenario(write_doc(tmp_path, doc))


def test_partial_pi_rejected(tmp_path):
    doc = minimal_doc()
    doc["buses"][0]["pi"] = 1.0
    with pytest.raises(ScenarioError, match="all buses or none"):
        parse_scenario(write_doc(tmp_path, doc))


def test_missing_file_is_scenario_error():
    with pytest.raises(ScenarioError, match="cannot read"):
        parse_scenario("/nonexistent/path.yaml")


def test_invalid_yaml_is_scenario_error(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("agents: [unclosed")
    with pytest.raises(ScenarioError, match="invalid YAML"):
        parse_scenario(path)


def test_integer_too_long_to_read_is_scenario_error(tmp_path):
    path = tmp_path / "long.yaml"
    path.write_text("format_version: 1\npi_tot: " + "1" * 5000 + "\nbuses: [{label: a, m0: 1.0}]\n")
    with pytest.raises(ScenarioError):  # int() refuses it, on interpreters that limit its digits
        parse_scenario(path)


def test_round_trip_minimal(tmp_path):
    doc = minimal_doc()
    doc["buses"][0]["pi"] = 0.5
    doc["buses"][1]["pi"] = 1.5
    scn = parse_scenario(write_doc(tmp_path, doc))
    out = tmp_path / "again.yaml"
    emit_scenario(scn, out)
    again = parse_scenario(out)
    assert scenario_document(again) == scenario_document(scn)


def test_round_trip_case_study(tmp_path):
    scn = case_study()
    out = tmp_path / "case.yaml"
    emit_scenario(scn, out)
    again = parse_scenario(out)
    assert scenario_document(again) == scenario_document(scn)
    np.testing.assert_array_equal(again.m0, scn.m0)
    assert again.grid is not None
    assert again.grid.lines == scn.grid.lines


def _yaml_fixtures():
    """The committed case study and the documents these tests write, as YAML text."""
    with_cost_and_pi = minimal_doc()
    with_cost_and_pi["agents"][0]["cost"] = [{"width": 3.0, "price": 0.5}]
    _with_pi(with_cost_and_pi, [0.5, 1.5])
    capped = minimal_doc()
    _with_gamma_bar(capped, 0.3)
    docs = [minimal_doc(), with_cost_and_pi, capped]
    committed = (REPO_ROOT / "scenarios" / "case_study.yaml").read_text(encoding="utf-8")
    return [committed] + [yaml.safe_dump(doc) for doc in docs]


libyaml = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")


@libyaml
@pytest.mark.parametrize("text", _yaml_fixtures(), ids=["case-study", "minimal", "cost-and-pi", "gamma_bar"])
def test_libyaml_and_pure_python_loaders_agree(tmp_path, monkeypatch, text):
    path, broken = tmp_path / "scn.yaml", tmp_path / "broken.yaml"
    path.write_text(text, encoding="utf-8")
    broken.write_text("agents: [unclosed")
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)
    parsed = []
    for loader in (yaml.CSafeLoader, yaml.SafeLoader):
        monkeypatch.setattr(scenario_module, "_LOADER", loader)
        parsed.append(scenario_document(parse_scenario(path)))
        with pytest.raises(ScenarioError, match="invalid YAML"):
            parse_scenario(broken)
    assert parsed[0] == parsed[1]


@pytest.mark.parametrize("loader", [pytest.param("CSafeLoader", marks=libyaml), "SafeLoader"])
def test_non_utf8_file_is_a_scenario_error(tmp_path, monkeypatch, loader):
    monkeypatch.setattr(scenario_module, "_LOADER", getattr(yaml, loader))
    path = tmp_path / "latin.yaml"
    path.write_bytes(b"name: \xff\xfe\n")
    with pytest.raises(ScenarioError, match="not UTF-8 text"):
        parse_scenario(path)


@libyaml
def test_libyaml_and_pure_python_dumpers_agree(tmp_path, monkeypatch):
    written = []
    for dumper in (yaml.CSafeDumper, yaml.SafeDumper):
        monkeypatch.setattr(scenario_module, "_DUMPER", dumper)
        out = tmp_path / f"{dumper.__name__}.yaml"
        emit_scenario(case_study(), out)
        written.append(out.read_bytes())
    assert written[0] == written[1]


# Strings a YAML 1.1 resolver would read as a bool, null, int or float if
# written plain, or that plain style cannot hold (empty, padded, indicators).
AMBIGUOUS = ["yes", "No", "on", "null", "~", "1e3", "1.5", "0x10", "0o17", "", " a ", "- x", "a: b", "#c",
             "'q'"]
# Subnormals, the largest decades and ordinary values.
EXTREME = [5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 0.1, 1.0, 37.24225668, 1e300, 1e308]

text = st.one_of(
    st.sampled_from(AMBIGUOUS),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)
positive = st.one_of(st.sampled_from(EXTREME), st.floats(min_value=5e-324, max_value=1e308))
nonnegative = st.one_of(st.just(0.0), positive)


@st.composite
def cost_curves(draw):
    """Admissible curves: widths and prices small enough that the capacity and its cost stay finite."""
    widths = draw(st.lists(st.sampled_from([5e-324, 1e-310, 0.5, 20.0, 1e300]), min_size=1, max_size=3))
    prices = sorted(draw(st.lists(st.sampled_from([0.0, 5e-324, 1e-310, 1.0, 1 / 3, 1e3]),
                                  min_size=len(widths), max_size=len(widths))))
    return CostCurve(segments=tuple(zip(widths, prices)))


@st.composite
def scenarios(draw):
    labels = draw(st.lists(text, min_size=1, max_size=4, unique=True))
    n = len(labels)
    ids = draw(st.lists(text, max_size=4, unique=True))
    agents = tuple(
        ScenarioAgent(
            id=agent_id,
            bus=draw(st.sampled_from(labels)),
            bid=draw(cost_curves()),
            cost=draw(st.none() | cost_curves()),
        )
        for agent_id in ids
    )
    mode = draw(st.sampled_from(["gamma", "gamma_bar", None]))
    grid = None
    if draw(st.booleans()):
        grid_labels = draw(st.lists(text, min_size=1, max_size=4, unique=True))
        path = zip(grid_labels, grid_labels[1:])  # connected, as build_grid requires
        grid = build_grid({
            "buses": [{"label": lab, "m0": draw(positive), "d": draw(positive)} for lab in grid_labels],
            "lines": [{"from": a, "to": b, "b": draw(nonnegative)} for a, b in path],
        })
    notes = draw(st.none() | st.builds(lambda a, b: f"{a}: {b} # {a}", text, text))
    return Scenario(
        name=draw(text),
        timescale=draw(st.sampled_from(TIMESCALES)),
        kappa=draw(st.sampled_from([1, 2])),
        bus_labels=tuple(labels),
        m0=tuple(draw(st.lists(positive, min_size=n, max_size=n))),
        pi=draw(st.none() | st.lists(nonnegative, min_size=n, max_size=n).map(tuple)),
        budget=DisturbanceBudget(pi_tot=draw(nonnegative), n=n),
        agents=agents,
        gamma=draw(positive) if mode == "gamma" else None,
        gamma_bar=draw(positive) if mode == "gamma_bar" else None,
        grid=grid,
        grid_illustrative=grid is not None and draw(st.booleans()),
        notes=notes,
    )


LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])
DUMPERS = [yaml.SafeDumper] + ([yaml.CSafeDumper] if yaml.__with_libyaml__ else [])


@settings(max_examples=60, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scn=scenarios())
def test_scenario_round_trips_through_every_loader_and_dumper(tmp_path_factory, scn):
    path = tmp_path_factory.getbasetemp() / "round_trip.yaml"
    with pytest.MonkeyPatch.context() as mp:
        for dumper in DUMPERS:
            mp.setattr(scenario_module, "_DUMPER", dumper)
            emit_scenario(scn, path)
            for loader in LOADERS:
                mp.setattr(scenario_module, "_LOADER", loader)
                assert parse_scenario(path) == scn, (dumper.__name__, loader.__name__)


def test_committed_example_matches_embedded_study():
    committed = REPO_ROOT / "scenarios" / "case_study.yaml"
    scn = parse_scenario(committed)
    assert scenario_document(scn) == scenario_document(case_study())


class TestCaseStudy:
    def test_structure(self):
        scn = case_study()
        assert len(scn.bus_labels) == 9
        assert len(scn.agents) == 15
        assert scn.gamma_bar == 0.29
        assert scn.budget.pi_tot == 10.0
        counts = {}
        for ag in scn.agents:
            counts[ag.bus] = counts.get(ag.bus, 0) + 1
        assert counts == {"2": 3, "4": 7, "8": 3, "12": 2}

    def test_bus_two_prices(self):
        scn = case_study()
        prices = [ag.cost.segments[0][1] for ag in scn.agents if ag.bus == "2"]
        assert prices == [1.0, 5.0, 1.0]

    def test_bus_eight_caps(self):
        scn = case_study()
        caps = [ag.cost.segments[0][0] for ag in scn.agents if ag.bus == "8"]
        assert caps == [20.0, 40.0, 60.0]

    def test_price_and_cap_vectors(self):
        scn = case_study()
        prices = [ag.cost.segments[0][1] for ag in scn.agents]
        caps = [ag.cost.segments[0][0] for ag in scn.agents]
        assert prices == [1, 5, 1, 5, 5, 1, 5, 10, 5, 5, 5, 5, 10, 1, 5]
        assert caps == [20, 40, 60, 20, 40, 20, 40, 20, 40, 20, 20, 40, 60, 20, 40]

    def test_truthful_bids(self):
        scn = case_study()
        for ag in scn.agents:
            assert ag.bid == ag.cost

    def test_grid_is_twelve_bus_illustrative(self):
        scn = case_study()
        assert scn.grid.n == 12
        assert scn.grid_illustrative
        # hub buses are present in the topology but carry no market state
        assert {"3", "7", "11"}.isdisjoint(scn.bus_labels)
        assert {"3", "7", "11"} < set(scn.grid.labels)
