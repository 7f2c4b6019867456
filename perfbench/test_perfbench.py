"""Tests of the benchmark itself, not of the package.

    python3 -m pytest perfbench
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inertia_market as im  # noqa: E402
import ops  # noqa: E402
from markets import (  # noqa: E402
    AUDIT_BATCH,
    AUDIT_POOL,
    AUDIT_TRIALS,
    MARKET_POOL,
    draw_audit_instance,
    draw_market,
    make_audit_instance,
    make_market,
)
from run import Loop, tail  # noqa: E402
from spans import Tracer, aggregate  # noqa: E402


def _market_data(mk):
    agents = [(ag.id, ag.bus, ag.curve.segments) for ag in mk.agents]
    return mk.m0.tolist(), agents, mk.budget, mk.gamma_bar, mk.gamma


def _audit_data(inst):
    agents = [(ag.id, ag.bus, ag.curve.segments) for ag in inst.agents]
    return inst.m0.tolist(), agents, inst.budget, inst.gamma, inst.trials, inst.audit_seed


def test_same_seed_gives_identical_inputs():
    assert _market_data(make_market(3)) == _market_data(make_market(3))
    assert _market_data(make_market(3)) != _market_data(make_market(4))
    assert _audit_data(make_audit_instance(7)) == _audit_data(make_audit_instance(7))
    assert _audit_data(make_audit_instance(7)) != _audit_data(make_audit_instance(8))


def _leaves(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def test_draw_step_is_plain_data():
    # Set-up time counts only the build step, so the draw must leave every
    # package constructor to it.
    plain = (int, float, str, np.ndarray)
    assert all(isinstance(x, plain) for x in _leaves(draw_market(0)))
    assert all(isinstance(x, plain) for x in _leaves(draw_audit_instance(0)))


@pytest.mark.parametrize("seed", range(MARKET_POOL))
def test_capped_market_binds_and_survives_every_abstention(seed):
    mk = make_market(seed)
    base = im.solve_centralized_hard(mk.gamma_bar, mk.m0, mk.agents, mk.budget)
    assert base.level > mk.m0.min()
    for k in range(len(mk.agents)):
        # Raises InfeasibleError if agent k were pivotal.
        im.solve_centralized_hard(mk.gamma_bar, mk.m0, mk.agents, mk.budget, excluded=(k,))


@pytest.mark.parametrize("seed", range(MARKET_POOL))
def test_tradeoff_optimum_is_interior(seed):
    mk = make_market(seed)
    alloc = im.solve_centralized_soft(mk.gamma, mk.m0, mk.agents, mk.budget)
    capacity = [0.0] * len(mk.m0)
    for ag in mk.agents:
        capacity[ag.bus] += ag.cap
    reach = min(m + c for m, c in zip(mk.m0, capacity))
    assert mk.m0.min() < alloc.level < reach


def test_references_cover_the_pools():
    assert sorted(ops.load_refs("capped"), key=int) == [str(s) for s in range(MARKET_POOL)]
    assert sorted(ops.load_refs("tradeoff"), key=int) == [str(s) for s in range(MARKET_POOL)]
    batches = [str(b) for b in range(AUDIT_POOL // AUDIT_BATCH)]
    assert sorted(ops.load_refs("audit"), key=int) == batches
    assert sorted(ops.load_refs("cli")) == sorted(ops.CLI_COMMANDS)


def test_payment_off_by_1e_6_counts_as_failed_operation():
    ref = ops.load_refs("capped")["0"]
    out = ops.op_capped(im, make_market(0))
    assert ops.check("capped", out, ref) == []
    k = next(k for k, p in enumerate(ref["payments"]) if 0 < abs(p) < 1000)
    perturbed = copy.deepcopy(ref)
    perturbed["payments"][k] += 1e-6
    loop = Loop(seconds=0)
    loop.record(False, 0.1, ops.check("capped", out, perturbed), "capped[0]")
    assert (loop.attempted, loop.failed) == (1, 1)


def _traced_calls(run):
    tracer = Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    return {name: s["calls"] for name, s in aggregate(tracer.spans).items()}


def test_traced_call_counts_on_a_small_market():
    mk = make_market(5, n_buses=4, n_agents=10)
    original = im.solve_centralized_hard
    calls = _traced_calls(lambda: ops.op_capped(im, mk))
    assert calls["planner.solve_centralized_hard"] == 10 + 2
    assert calls["planner.dual_gamma_iterate"] == 1
    assert im.solve_centralized_hard is original
    calls = _traced_calls(lambda: ops.op_tradeoff(im, mk))
    assert calls["planner.solve_centralized_soft"] == 10 + 1
    assert calls["auction.exclusion_solve"] == 10
    batch = (make_audit_instance(0), make_audit_instance(1))
    calls = _traced_calls(lambda: ops.op_audit(im, batch))
    assert calls["auction.incentive_audit"] == 2
    assert calls["planner.solve_centralized_soft"] == 2 * 3 * AUDIT_TRIALS


def test_self_time_excludes_children():
    spans = [(0, "a", 0.0, 10.0, -1), (0, "b", 1.0, 4.0, 0), (0, "b", 5.0, 6.0, 0)]
    stats = aggregate(spans)
    assert stats["a"] == {"calls": 1, "total": 10.0, "self": 6.0}
    assert stats["b"]["calls"] == 2 and stats["b"]["self"] == stats["b"]["total"] == 4.0


def test_tail_has_ten_samples_beyond():
    assert tail(list(range(1, 31))) == (20, pytest.approx(100 * 20 / 30), 10)
    assert tail([3, 1, 2]) == (3, 100.0, 0)
