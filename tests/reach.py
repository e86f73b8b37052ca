"""List the package's functions that no command, demo or benchmark
workload runs.

Run from the repository root:

    PYTHONPATH=src python tests/reach.py

It traces function calls (sys.settrace, call events only) from before the
package is imported, then runs, in a scratch working directory:

- tidal list, tidal verify --points 3 and tidal list --echo-defaults;
- on each built-in scenario: compute, simulate --plot and
  sweep --plot --alphas, compute on the scenario written to a file, and
  deviate where the scenario has a deviation block;
- the four demos;
- one operation of each perfbench workload, with its gate.

It prints each function defined under src/tidalbundle that none of these
entered, as path:line qualified name, and exits 1 if a command exits 2
(bad input: a broken run, not a finding).  A function listed here is
reached by tests alone or not at all; tests/test_reach.py is the static
half, over the public names.  Tier-1 does not collect this script.
"""

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tidalbundle"

entered = set()


def _trace(frame, event, arg):
    code = frame.f_code
    entered.add((code.co_filename, code.co_firstlineno))


def _functions():
    """(path, first line, qualified name) of every def under SRC; the first
    line is the first decorator's, as the code object's is."""
    out = []

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                out.append((path, first, name))
                name += "."
            elif isinstance(child, ast.ClassDef):
                name = f"{prefix}{child.name}."
            visit(child, path, name)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), str(path), "")
    return out


def _runs(tmp):
    """Run every command, demo and workload; return the broken runs."""
    import tidalbundle
    from tidalbundle import BUILTIN_IDS, builtin_scenario
    from tidalbundle.cli import main

    commands = [["list"], ["list", "--echo-defaults"],
                ["verify", "--points", "3", "--out", "report.json"]]
    for sid in BUILTIN_IDS:
        scenario = ["--scenario", sid]
        commands += [
            ["compute", *scenario, "--out", f"{sid}.json"],
            ["simulate", *scenario, "--plot", "--out", f"{sid}.csv"],
            ["sweep", *scenario, "--points", "2", "--alphas", "-1,0,0.5",
             "--plot", "--out", f"{sid}-sweep.csv"],
            ["compute", "--scenario", str(tmp / f"{sid}.scenario.json")]]
        if builtin_scenario(sid).has_deviation:
            commands.append(["deviate", *scenario, "--out", f"{sid}-dev.csv"])
        raw = (SRC / "scenarios" / f"{sid}.json").read_text()
        (tmp / f"{sid}.scenario.json").write_text(raw)
    broken = []
    for argv in commands:
        code = main(argv)
        if code == 2:
            broken.append(argv)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS
    for workload_class in WORKLOADS.values():
        workload = workload_class(tidalbundle, 0)
        inp = workload.inputs(0)
        out, _ = workload.run(inp)
        if workload.gate(inp, out):
            broken.append(["perfbench", workload.name])
    return broken


def main():
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        sys.settrace(_trace)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                broken = _runs(Path(tmp))
        finally:
            sys.settrace(None)
            os.chdir(cwd)
    unrun = [f for f in _functions() if f[:2] not in entered]
    for path, line, name in unrun:
        print(f"{Path(path).relative_to(ROOT)}:{line} {name}")
    print(f"{len(unrun)} functions not run")
    for argv in broken:
        print("broken run:", " ".join(argv), file=sys.stderr)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
