"""Line coverage of src/gkpstab/ over the program's real traffic.

    python3 tools/line_trace.py

Run from the root of a checkout; it traces that checkout's src/. A
sys.settrace line tracer, installed before gkpstab is imported, records
every line executed in src/gkpstab/ while these run:
- the three benchmark operations, made as perfbench/workloads.py makes them:
  a decay trial and error_rate_experiment at eps = 0.1, dim 200 on a
  prebuilt code bundle, and `logical-ops --epsilon 0.05 --save-operators`;
- the six commands at the default truncation: `kappa --epsilon-range
  0.01:1:20:log`, `codewords` at eps = 0.1 on the qubit and the sensor
  lattice, `lyapunov --trials 2`, `qec-sim` and `logical-ops` at eps = 0.1
  and `check` at its default eps;
- the five demos.
Then every leaf statement (one with no statement body, docstrings left out)
with no traced line in its span is printed as `file:line  kind  source`,
where kind is `check` for an input check (a `raise`, or any statement in
the body of an `if` that only raises) and `-` otherwise. Command output goes
to a temporary directory and the demos' standard output is discarded.
Not part of the test suite; it takes about half a minute on two cores.
"""

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "gkpstab")

def traced_lines(run):
    """The (file, line) pairs of src/gkpstab/ that run() executes."""
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE + os.sep) else None

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hits


def run_traffic(outdir):
    from gkpstab import analysis, cli, codes, lindblad

    code = codes.build_code(codes.GkpParams(0.1, dim=200))
    lindblad.stabilizer_model(code)
    analysis.lyapunov_decay_experiment(0.1, dim=200, n_trials=1, seed=1000, code=code)
    analysis.error_rate_experiment(0.1, dim=200, seed=1, code=code)
    commands = (
        ["logical-ops", "--epsilon", "0.05", "--save-operators", "--prefix", "bench"],
        ["kappa", "--epsilon-range", "0.01:1:20:log"],
        ["codewords", "--epsilon", "0.1"],
        ["codewords", "--epsilon", "0.1", "--eta", "sensor", "--prefix", "sensor"],
        ["lyapunov", "--epsilon", "0.1", "--trials", "2"],
        ["qec-sim", "--epsilon", "0.1"],
        ["logical-ops", "--epsilon", "0.1"],
        ["check"],
    )
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv + ["--outdir", outdir])
    for name in sorted(os.listdir(os.path.join(ROOT, "demos"))):
        if name.endswith(".py"):
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(os.path.join(ROOT, "demos", name), run_name="__main__")


def _only_raises(body):
    return all(isinstance(s, ast.Raise) for s in body)


def leaves(tree):
    """(statement, is_check) for every leaf statement, docstrings left out."""
    out = []

    def visit(body, check):
        for i, stmt in enumerate(body):
            bodies = [getattr(stmt, f) for f in ("body", "orelse", "finalbody")
                      if getattr(stmt, f, None)]
            bodies += [h.body for h in getattr(stmt, "handlers", [])]
            bodies += [c.body for c in getattr(stmt, "cases", [])]
            if not bodies:
                docstring = (i == 0 and isinstance(stmt, ast.Expr)
                             and isinstance(stmt.value, ast.Constant)
                             and isinstance(stmt.value.value, str))
                if not docstring:
                    out.append((stmt, check or isinstance(stmt, ast.Raise)))
                continue
            for sub in bodies:
                raising_if = isinstance(stmt, ast.If) and sub is stmt.body and _only_raises(sub)
                visit(sub, check or raising_if)

    visit(tree.body, False)
    return out


def unreached(hits):
    """(file, line, kind, source) of every leaf statement no traced line reached."""
    rows = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            text = fh.read()
        lines = text.splitlines()
        for stmt, check in leaves(ast.parse(text)):
            span = range(stmt.lineno, stmt.end_lineno + 1)
            if not any((path, n) in hits for n in span):
                rows.append((name, stmt.lineno, "check" if check else "-",
                             lines[stmt.lineno - 1].strip()))
    return rows


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory() as outdir:
        hits = traced_lines(lambda: run_traffic(outdir))
    rows = unreached(hits)
    for name, line, kind, source in rows:
        print(f"{name}:{line}  {kind:5}  {source}")
    n_check = sum(kind == "check" for _, _, kind, _ in rows)
    print(f"{len(rows)} unreached leaf statements, {n_check} of them input checks")


if __name__ == "__main__":
    main()
