#!/usr/bin/env python3
"""Write the stored references in refs/ from the current program.

    python3 perfbench/make_refs.py

The references record the outputs of the commit that defined the
benchmark. Regenerate them only in a change whose purpose is to alter
those outputs, and say so there: every later speed-up is checked
against them.
"""

from __future__ import annotations

import json

import ops


def write(workload: str, refs: dict) -> None:
    ops.REFS.mkdir(exist_ok=True)
    body = ",\n".join(f"{json.dumps(key)}: {json.dumps(value)}" for key, value in refs.items())
    (ops.REFS / f"{workload}.json").write_text("{\n" + body + "\n}\n", encoding="utf-8")


def main() -> None:
    im = ops.import_package()
    from markets import build_inputs, draw_inputs

    for workload, op in ops.IN_PROCESS_OPS.items():
        inputs = build_inputs(workload, draw_inputs(workload))
        write(workload, {key: ops.summarize(workload, op(im, inp)) for key, inp in inputs.items()})
    workdir = ops.cli_workdir()
    refs = {}
    for name in ops.CLI_COMMANDS:
        ops.cli_prepare(workdir)
        proc = ops.cli_run(["-c", ops.CLI_ENTRY], name, workdir)
        if proc.returncode != 0:
            raise SystemExit(f"{name} failed: {proc.stderr.decode(errors='replace')}")
        refs[name] = ops.cli_summary(proc, workdir)
    ops.cli_prepare(workdir)
    write("cli", refs)


if __name__ == "__main__":
    main()
