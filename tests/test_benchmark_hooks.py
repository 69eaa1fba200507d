"""The benchmark in perfbench/ wraps and rebinds package functions by name:
tracer.TRACED, the capture() hooks of workloads.py and the cli names that
cli_round times. Its rounds then score the fields of the results they get
back. A name or field that no longer resolves fails every traced or timed
run, so each is checked here. perfbench/ is read as source and not imported."""

import ast
import dataclasses
import importlib
import pathlib

import numpy as np

import gkpstab

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def parse(name):
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def traced():
    """tracer.TRACED as (module, attribute, span) triples."""
    for node in parse("tracer.py").body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and names == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TRACED")


def package_module(name):
    # as the harness does: import the submodule, then read it off the package
    importlib.import_module(f"gkpstab.{name}")
    return getattr(gkpstab, name)


def test_traced_names_resolve():
    entries = traced()
    assert entries
    missing = []
    for module, attr, _span in entries:
        owner = package_module(module)
        if "." in attr:
            cls_name, method = attr.split(".")
            found = method in vars(getattr(owner, cls_name, object))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{module}.{attr}")
    assert not missing, missing


def test_captured_names_resolve():
    targets = [
        (call.args[0].id, call.args[1].value)
        for call in ast.walk(parse("workloads.py"))
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        and call.func.id == "capture"
    ]
    assert len(targets) >= 2
    missing = [f"{m}.{a}" for m, a in targets if not callable(getattr(package_module(m), a, None))]
    assert not missing, missing


def test_cli_round_rebinds_names_cli_has():
    # cli_round loops over a tuple of names and rebinds getattr(cli, name)
    cli_round = next(node for node in parse("workloads.py").body
                     if isinstance(node, ast.FunctionDef) and node.name == "cli_round")
    names = [
        elt.value
        for loop in ast.walk(cli_round) if isinstance(loop, ast.For)
        and any(isinstance(call, ast.Call) and getattr(call.func, "id", None) == "getattr"
                and getattr(call.args[0], "id", None) == "cli" for call in ast.walk(loop))
        for elt in loop.iter.elts
    ]
    assert names
    cli = package_module("cli")
    missing = [name for name in names if not callable(getattr(cli, name, None))]
    assert not missing, missing


# the variables workloads.py holds results in, and the classes they hold
RESULTS = {
    "trial": [("analysis", "DecayTrial")],
    "report": [("analysis", "DecayReport"), ("analysis", "ErrorRateReport")],
    "logicals": [("lindblad", "LogicalOperators")],
    "traj": [("lindblad", "Trajectory")],
    "on": [("lindblad", "Trajectory")],
    "off": [("lindblad", "Trajectory")],
}


def test_scored_result_fields_resolve():
    reads = {
        (node.value.id, node.attr)
        for node in ast.walk(parse("workloads.py"))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in RESULTS
    }
    assert {name for name, _ in reads} == set(RESULTS)

    def has(module, cls_name, attr):
        cls = getattr(package_module(module), cls_name)
        return attr in {f.name for f in dataclasses.fields(cls)} or hasattr(cls, attr)

    missing = [f"{name}.{attr}" for name, attr in sorted(reads)
               if not any(has(module, cls, attr) for module, cls in RESULTS[name])]
    assert not missing, missing


def test_jump_hook_reads_factors_and_dim():
    # tracer._after_jump charges each jump by the attributes it reads off
    # the propagator: kraus, one entry per real Kraus factor, each with one
    # block per source block, and dim, the Fock truncation
    tracer = next(node for node in parse("tracer.py").body if isinstance(node, ast.ClassDef)
                  and any(getattr(f, "name", None) == "_after_jump" for f in node.body))
    hook = next(f for f in tracer.body if getattr(f, "name", None) == "_after_jump")
    reads = {node.attr for node in ast.walk(hook) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "prop"}
    assert reads == {"kraus", "dim"}

    etd, fock = package_module("etd"), package_module("fock")
    dim = 28
    ops = list(gkpstab.build_dissipators(gkpstab.GkpParams(0.1, dim=dim))) + [fock.make_ladder(dim)]
    rates = [1.0] * 4 + [0.02]
    prop = etd.SplitPropagator(ops, rates)
    assert prop.dim == dim
    factors = etd._charge_kraus([np.asarray(v, dtype=complex) for v in ops], rates)
    assert len(prop.kraus) == len(factors) == 5
    sizes = [len(b) for b in prop.basis]
    for (c, _), blocks in zip(factors, prop.kraus):
        assert [k.shape for k in blocks] == [(sizes[(j + c) % 4], sizes[j]) for j in range(4)]
