"""Fresh-interpreter steps that run.py starts as subprocesses.

    child.py setup <workload> [scenario]
        Import the package and build every input the workload's operations
        need through its constructors, then print "ready <draw_s>". run.py
        times process start to that line, less ``draw_s``, the time spent
        drawing the inputs' numbers (see markets.py): the workload's set-up
        time. For ``cli`` this is ``import inertia_market.cli`` plus one
        ``parse_scenario``, and ``draw_s`` is 0.

    child.py cli <spans.json> <op> <argv...>
        Run one CLI command with every public function traced, print what
        the command prints, write the spans to <spans.json> and exit with
        the command's exit code.

The package is found through PYTHONPATH, which run.py points at the
checkout's ``src``. Only ``sys`` and ``time`` are imported before the timed
work, so set-up time holds no benchmark imports beyond the input generator.
"""

import sys
from time import perf_counter


def setup(workload: str, scenario: str | None) -> None:
    draw_s = 0.0
    if workload == "cli":
        import inertia_market.cli

        inertia_market.cli.parse_scenario(scenario)
    else:
        import inertia_market  # noqa: F401  the package import comes first, as in a run
        from markets import build_inputs, draw_inputs

        start = perf_counter()
        drawn = draw_inputs(workload)
        draw_s = perf_counter() - start
        build_inputs(workload, drawn)
    print(f"ready {draw_s!r}", flush=True)


def traced_cli(spans_path: str, op: int, argv: list) -> int:
    import inertia_market.cli as cli
    from spans import Tracer, load_all_modules

    load_all_modules()
    tracer = Tracer()
    tracer.op = op
    dispatch = tracer.wrap("cli.cli_dispatch", cli.cli_dispatch)
    tracer.install()
    try:
        return dispatch(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], sys.argv[3] if len(sys.argv) > 3 else None)
    elif sys.argv[1] == "cli":
        sys.exit(traced_cli(sys.argv[2], int(sys.argv[3]), sys.argv[4:]))
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
