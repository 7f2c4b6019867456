#!/usr/bin/env python3
"""Benchmark of the inertia-market package: four closed-loop workloads.

    python3 perfbench/run.py --workload <cli|capped|tradeoff|audit|all>
                             --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``. One client runs one operation at a time for ``--seconds``
seconds. Every operation's output is checked against ``refs/``; a
mismatch, an exception or a nonzero exit counts as a failed operation.

With ``--trace 0`` the last stdout line is a JSON object holding the
``end_to_end`` metrics of BENCHMARK.json; with ``--trace 1`` it holds the
``per_layer`` metrics, from a run in which every second operation is
traced (see spans.py). ``--workload all`` runs every workload in turn and
prints a table. See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import ops
from spans import PACKAGE, Tracer, aggregate, load_all_modules, load_spans

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli", "capped", "tradeoff", "audit")
# Set-ups measured before and again after the operations: the machine's
# speed drifts, and two moments a run apart steady the median.
SETUP_REPEATS = 2
PROBE_REPEATS = 5
TAIL_BEYOND = 10
SPAN_STATS = {
    "calls_per_op": lambda s, n_ops: s["calls"] / n_ops,
    "s_per_call": lambda s, n_ops: s["total"] / s["calls"] if s["calls"] else 0.0,
    "s_per_op": lambda s, n_ops: s["total"] / n_ops,
    "self_s_per_op": lambda s, n_ops: s["self"] / n_ops,
}


def metric_specs(kind: str) -> dict:
    with open(ops.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def tail(samples):
    """(value, percentile, samples above it) at the highest percentile with
    TAIL_BEYOND samples above it; the maximum when there are too few samples."""
    xs = sorted(samples)
    k = len(xs) - TAIL_BEYOND - 1 if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def measure_setup(workload: str, warm_up: bool) -> list:
    """Set-up times of SETUP_REPEATS fresh interpreters, after an optional warm-up.

    The warm-up fills ``__pycache__`` and the page cache, as any earlier
    use of an installed package would.
    """
    cmd = [sys.executable, str(HERE / "child.py"), "setup", workload]
    if workload == "cli":
        cmd.append(str(ops.SCENARIO))
    times = []
    for attempt in range(-1 if warm_up else 0, SETUP_REPEATS):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=ops.child_env(), cwd=ops.ROOT) as proc:
            line = proc.stdout.readline()
            ready = perf_counter()
            proc.stdout.read()
            code = proc.wait()
        word, _, draw_s = line.decode().partition(" ")
        if code != 0 or word != "ready":
            raise RuntimeError(f"set-up of {workload} failed with exit code {code}")
        if attempt >= 0:
            times.append(ready - start - float(draw_s))
    return times


def _wall(cmd) -> tuple:
    start = perf_counter()
    proc = subprocess.run(cmd, env=ops.child_env(), cwd=ops.ROOT, capture_output=True, text=True)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} failed: {proc.stderr.strip()}")
    return elapsed, proc.stderr


def import_split() -> dict:
    """Interpreter floor and import costs, measured in fresh interpreters.

    ``cli.import_s`` is the cumulative time of the top-level
    ``inertia_market`` entries of ``python -X importtime -c "import
    inertia_market.cli"``; ``h2.import_s`` and ``scenario.import_s`` are
    the cumulative times of those modules' entries in the same listing,
    0 when the CLI import no longer loads them.
    """
    samples = defaultdict(list)
    for _ in range(PROBE_REPEATS):
        samples["cli.interpreter_s"].append(_wall([sys.executable, "-c", "pass"])[0])
        _, err = _wall([sys.executable, "-X", "importtime", "-c", "import inertia_market.cli"])
        top, by_name = 0, {}
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            field = parts[2].rstrip()
            name = field.strip()
            cumulative = int(parts[1]) / 1e6
            by_name[name] = cumulative
            if name.startswith(PACKAGE) and len(field) - len(field.lstrip()) == 1:
                top += cumulative
        samples["cli.import_s"].append(top)
        samples["h2.import_s"].append(by_name.get(f"{PACKAGE}.h2", 0.0))
        samples["scenario.import_s"].append(by_name.get(f"{PACKAGE}.scenario", 0.0))
    return {name: statistics.median(xs) for name, xs in samples.items()}


class Loop:
    """Closed-loop bookkeeping: latencies by traced/untraced, failures."""

    def __init__(self, seconds: float):
        self.deadline = perf_counter() + seconds
        self.latencies = {False: [], True: []}
        self.attempted = 0
        self.failed = 0

    def running(self) -> bool:
        return perf_counter() < self.deadline

    def record(self, traced: bool, elapsed: float, problems: list, label: str) -> None:
        self.attempted += 1
        self.latencies[traced].append(elapsed)
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"failed operation {label}: {'; '.join(problems)}", file=sys.stderr)


def seeded_rounds(seed: int, keys: list, trace: bool):
    """Endless sequence of seeded permutations of ``keys``.

    In a traced run each key comes twice in a row, first untraced and then
    traced, so both halves of the run see the same inputs.
    """
    rng = random.Random(seed)
    while True:
        for key in rng.sample(keys, len(keys)):
            yield from (key, key) if trace else (key,)


def run_cli(seed: int, seconds: float, trace: bool) -> tuple:
    refs = ops.load_refs("cli")
    workdir = ops.cli_workdir()
    spans_file = workdir / "spans-child.json"
    loop = Loop(seconds)
    spans = []
    dispatch = defaultdict(list)
    order = seeded_rounds(seed, list(ops.CLI_COMMANDS), trace)
    i = 0
    while loop.running():
        name = next(order)
        traced = trace and i % 2 == 1
        prefix = [str(HERE / "child.py"), "cli", str(spans_file), str(i)] if traced else ["-c", ops.CLI_ENTRY]
        ops.cli_prepare(workdir)
        spans_file.unlink(missing_ok=True)
        start = perf_counter()
        proc = ops.cli_run(prefix, name, workdir)
        elapsed = perf_counter() - start
        problems = ops.cli_check(ops.cli_summary(proc, workdir), refs[name])
        if proc.returncode != 0:
            problems.append(f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}")
        loop.record(traced, elapsed, problems, name)
        if traced and spans_file.exists():
            child = load_spans(spans_file, len(spans))
            spans.extend(child)
            dispatch[name] += [end - start for _, span, start, end, _ in child if span == "cli.cli_dispatch"]
        i += 1
    ops.cli_prepare(workdir)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return loop, peak, spans, {name: statistics.mean(xs) for name, xs in dispatch.items()}


def run_in_process(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    im = ops.import_package()
    from markets import build_inputs, draw_inputs

    run_op = ops.IN_PROCESS_OPS[workload]
    inputs = build_inputs(workload, draw_inputs(workload))
    tracer = Tracer()
    if trace:
        load_all_modules()
    refs = ops.load_refs(workload)
    loop = Loop(seconds)
    order = seeded_rounds(seed, list(inputs), trace)
    i = 0
    while loop.running():
        key = next(order)
        traced = trace and i % 2 == 1
        if traced:
            tracer.op = i
            tracer.install()
        start = perf_counter()
        try:
            out = run_op(im, inputs[key])
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        if traced:
            tracer.uninstall()
        problems = [error] if error else ops.check(workload, out, refs[key])
        loop.record(traced, elapsed, problems, f"{workload}[{key}]")
        i += 1
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return loop, peak, tracer.spans, {}


def layer_metrics(specs, loop, spans, dispatch, probes) -> dict:
    stats = aggregate(spans)
    n_ops = max(1, len(loop.latencies[True]))
    empty = {"calls": 0, "total": 0.0, "self": 0.0}
    values = {}
    for name in specs:
        if name in probes:
            values[name] = probes[name]
        elif name.startswith("cli.dispatch_s."):
            values[name] = dispatch.get(name.removeprefix("cli.dispatch_s."), 0.0)
        elif name == "trace.overhead_ratio":
            values[name] = statistics.median(loop.latencies[True]) / statistics.median(
                loop.latencies[False]
            )
        else:
            span, stat = name.rsplit(".", 1)
            values[name] = SPAN_STATS[stat](stats.get(span, empty), n_ops)
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops.require_checkout()
    kind = "per_layer" if trace else "end_to_end"
    specs = metric_specs(kind)
    probes = import_split() if trace else {}
    setup = [] if trace else measure_setup(workload, warm_up=True)
    if workload == "cli":
        loop, peak, spans, dispatch = run_cli(seed, seconds, trace)
    else:
        loop, peak, spans, dispatch = run_in_process(workload, seed, seconds, trace)
    if not trace:
        setup += measure_setup(workload, warm_up=False)
    if spans:
        ops.WORK.mkdir(exist_ok=True)
        with open(ops.WORK / f"spans-{workload}.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)

    untraced = loop.latencies[False]
    if not untraced or (trace and not loop.latencies[True]):
        raise RuntimeError(f"{workload}: no operation completed within {seconds} s")
    lines = [f"workload {workload}: attempted {loop.attempted}, failed {loop.failed}"]
    if trace:
        values = layer_metrics(specs, loop, spans, dispatch, probes)
        lines.append(f"  traced operations: {len(loop.latencies[True])}")
    else:
        tail_value, tail_pct, beyond = tail(untraced)
        values = {
            "setup_s": statistics.median(setup),
            "op_p50_s": statistics.median(untraced),
            "op_tail_s": tail_value,
            "peak_rss_mib": peak,
        }
        notes = {
            "setup_s": f"median of {len(setup)} set-ups",
            "op_p50_s": f"n={len(untraced)}",
            "op_tail_s": f"p{tail_pct:.1f}, n={len(untraced)}, {beyond} beyond",
            "peak_rss_mib": "largest child" if workload == "cli" else "benchmark process",
        }
    for name, value in values.items():
        note = "" if trace else f"  ({notes[name]})"
        lines.append(f"  {name:<45} {value:.6g} {specs[name]}{note}")
    return {
        "lines": lines,
        "result": {
            "correct": loop.failed == 0,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": {name: {"value": values[name], "unit": specs[name]} for name in specs},
        },
    }


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    code = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {workload}: exit code {proc.returncode}")
            code = proc.returncode
            continue
        print("\n".join(proc.stdout.splitlines()[:-1]))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, ImportError, RuntimeError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
