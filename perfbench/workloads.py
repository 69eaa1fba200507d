"""One benchmark run of one workload, in a process of its own.

run.py starts this file with PYTHONPATH pointing at the checkout's src/ and
the BLAS thread count set. It sets up the code bundle several times, runs
whole rounds of operations until the next round would overrun --seconds,
checks every output against the oracles, writes a result file and prints the
result as its last line of standard output.
"""

import argparse
import contextlib
import io as _stdio
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
import warnings

import numpy as np

import envinfo
import oracles
import tracer as tracing

import gkpstab
from gkpstab import analysis, cli, codes, lindblad

EPS, DIM = 0.1, 200          # criteria 4 and 7
CLI_EPS, CLI_DIM = 0.05, 400  # the dim-400 truncation of the long tier
SETUPS = {"decay": 9, "qec": 9, "logical-ops-400": 1}
# A CLI call's solve wanders by +-10% within one process over a few seconds;
# two calls a run halve that noise at a cost the run budget allows.
MIN_ROUNDS = {"decay": 1, "qec": 1, "logical-ops-400": 2}

END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "fock.matrix_exponential_s": "s", "fock.matrix_exponential_calls": "count",
    "hermite.hermite_functions_s": "s", "codes.build_dissipators_s": "s",
    "codes.build_codewords_s": "s", "codes.build_lyapunov_s": "s",
    "etd.init_s": "s", "etd.init_calls": "count",
    "etd.apply_jump_s": "s", "etd.apply_jump_calls": "count",
    "etd.step_s": "s", "etd.step_calls": "count",
    "etd.run_s": "s", "etd.steps_accepted": "count", "etd.steps_rejected": "count",
    "etd.accept_ratio": "ratio", "etd.jumps_per_accepted_step": "jumps/step",
    "etd.run_to_stationary_s": "s", "etd.stationary_steps": "count",
    "etd.jump_gflop": "GFLOP", "etd.jump_gflops": "GFLOP/s", "blas.zgemm_gflops": "GFLOP/s",
    "ode.integrate_s": "s", "ode.steps_accepted": "count", "ode.steps_rejected": "count",
    "lindblad.lindblad_rhs_calls": "count",
    "lindblad.evolve_s": "s", "lindblad.evolve_calls": "count", "lindblad.evolve_self_s": "s",
    "lindblad.logical_operators_s": "s",
    "analysis.experiment_s": "s", "analysis.experiment_self_s": "s",
    "cli.main_s": "s", "io.write_envelope_s": "s", "io.bytes_written": "bytes",
    "etd.trace_defect_max": "1", "lindblad.logical_residual": "1",
    "trace.solve_s": "s", "trace.overhead_pct": "%",
}


def setup(eps, dim):
    """The set-up that setup_s times: code bundle and engineered model."""
    t0 = time.perf_counter()
    code = codes.build_code(codes.GkpParams(eps, dim=dim))
    lindblad.stabilizer_model(code)
    return code, time.perf_counter() - t0


def capture(module, attr, sink):
    """Rebind module.attr so each return value is appended to sink."""
    original = getattr(module, attr)

    def hooked(*args, **kwargs):
        out = original(*args, **kwargs)
        sink.append(out)
        return out

    setattr(module, attr, hooked)
    return (module, attr, original)


# ---------------------------------------------------------------------------
# Operations. Each round returns (solve seconds, list of per-operation checks);
# a check is a dict with "ok" and the figures it was judged on.
# ---------------------------------------------------------------------------


def decay_round(ctx, index):
    trajs = []
    undo = capture(analysis, "evolve", trajs)
    try:
        t0 = time.perf_counter()
        report = analysis.lyapunov_decay_experiment(
            EPS, dim=DIM, n_trials=1, seed=1000 * ctx["seed"] + index, code=ctx["code"])
        solve = time.perf_counter() - t0
    finally:
        tracing.restore([undo])
    trial = report.trials[0]
    kappa = ctx["kappa"]
    check = {"trial_seed": trial.seed, "fitted_rate": trial.fitted_rate}
    if trial.degenerate or len(trajs) != 1:
        check["ok"] = False
        return solve, [check]
    traj = trajs[0]
    w = traj.column("lyapunov")
    ratio = w / (w[0] * np.exp(-kappa * traj.times))
    above = w > 1e-11 * w[0]
    trace_dev = float(np.abs(traj.column("trace") - 1.0).max())
    check.update(
        max_bound_ratio=float(ratio[above].max()),
        records_above_floor=int(above.sum()),
        trace_dev=trace_dev,
        steps_accepted=traj.meta.get("n_accept"),
        steps_rejected=traj.meta.get("n_reject"),
    )
    check["ok"] = bool(
        traj.times[0] == 0.0
        and check["max_bound_ratio"] <= 1.0
        and trace_dev <= 1e-8
        and trial.fitted_rate >= 0.95 * kappa
    )
    return solve, [check]


def qec_round(ctx, index):
    found = []
    undo = capture(analysis, "logical_operators", found)
    try:
        t0 = time.perf_counter()
        report = analysis.error_rate_experiment(EPS, dim=DIM, seed=ctx["seed"], code=ctx["code"])
        solve = time.perf_counter() - t0
    finally:
        tracing.restore([undo])
    zero, one = ctx["code"].codewords
    logicals = found[0]
    ops = [{"op": "logical_operators"}, {"op": "on"}, {"op": "off"}]

    ops[0]["codeword_dev"] = oracles.codeword_identity_defect(logicals.jz, logicals.jx, zero, one)
    ops[0]["residual"] = logicals.convergence_residual
    ops[0]["ok"] = bool(ops[0]["codeword_dev"] <= 1e-8)

    on = report.traj_on
    ops[1]["trace_dev"] = float(np.abs(on.column("trace") - 1.0).max())
    ops[1]["suppression_ratio"] = report.suppression_ratio
    ops[1]["steps"] = [on.meta.get("n_accept"), on.meta.get("n_reject")]
    ops[1]["ok"] = bool(ops[1]["trace_dev"] <= 1e-8 and 3.5 <= report.suppression_ratio <= 14.0)

    off = report.traj_off
    rho0 = np.outer(zero, zero.conj())
    jz_dev = 0.0
    for t, jz in zip(off.times, off.column("jz")):
        exact = oracles.pure_loss_channel(rho0, math.exp(-report.kappa1 * t))
        jz_dev = max(jz_dev, abs(jz - np.vdot(logicals.jz, exact).real))
    ops[2]["jz_dev"] = float(jz_dev)
    ops[2]["records"] = len(off.times)
    ops[2]["steps"] = [off.meta.get("n_accept"), off.meta.get("n_reject")]
    ops[2]["ok"] = bool(len(off.times) == len(report.times) and jz_dev <= 1e-8)
    return solve, ops


def cli_round(ctx, index):
    outdir = os.path.join(ctx["outdir"], "cli")
    prefix = f"logical_ops_seed{ctx['seed']}"
    undo, times = [], {}

    def timed(name, fn):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            times[name] = times.get(name, 0.0) + time.perf_counter() - t0
            return out
        return call

    for name in ("build_code", "stabilizer_model"):
        original = getattr(cli, name)
        setattr(cli, name, timed(name, original))
        undo.append((cli, name, original))
    stdout = _stdio.StringIO()
    try:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            code_rc = cli.main(["logical-ops", "--epsilon", str(CLI_EPS), "--save-operators",
                                "--outdir", outdir, "--prefix", prefix])
        total = time.perf_counter() - t0
    finally:
        tracing.restore(undo)
    setup_in_cli = times.get("build_code", 0.0) + times.get("stabilizer_model", 0.0)
    ctx["setup_samples"].append(setup_in_cli)
    check = {"exit_code": code_rc, "setup_in_cli_s": setup_in_cli}
    if code_rc != 0:
        check["ok"] = False
        return total - setup_in_cli, [check]
    with open(os.path.join(outdir, prefix + ".json")) as fh:
        payload = json.load(fh)["payload"]
    with np.load(os.path.join(outdir, prefix + ".npz")) as saved:
        ops = {name: saved[name] for name in ("jx", "jy", "jz")}
    spectra_dev, in_range = 0.0, True
    for name, op in ops.items():
        ew = np.linalg.eigvalsh(op)
        env = payload["spectra"][name]
        spectra_dev = max(spectra_dev, abs(ew[0] - env["min"]), abs(ew[-1] - env["max"]))
        in_range &= ew[0] >= -1.0 - 1e-6 and ew[-1] <= 1.0 + 1e-6
    zero, one = ctx["code"].codewords
    check.update(
        spectra_match_dev=float(spectra_dev),
        codeword_dev=oracles.codeword_identity_defect(ops["jz"], ops["jx"], zero, one),
        residual=payload["residual"],
    )
    check["ok"] = bool(payload["dim"] == CLI_DIM and in_range and spectra_dev <= 1e-9
                       and check["codeword_dev"] <= 1e-8)
    return total - setup_in_cli, [check]


# name: (epsilon, dim, round, operations per round)
WORKLOADS = {
    "decay": (EPS, DIM, decay_round, 1),
    "qec": (EPS, DIM, qec_round, 3),
    "logical-ops-400": (CLI_EPS, CLI_DIM, cli_round, 1),
}


def zgemm_gflops(dim, repeats=15):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 8.0 * dim ** 3 / statistics.median(times) / 1e9


def layer_metrics(tr, solve_s, span_cost):
    total, own, calls, jumps_in_run = tr.summary()
    c = tr.counts
    attempts = c["etd.steps_accepted"] + c["etd.steps_rejected"]
    out = {
        "fock.matrix_exponential_s": total["fock.matrix_exponential"],
        "fock.matrix_exponential_calls": calls["fock.matrix_exponential"],
        "hermite.hermite_functions_s": total["hermite.hermite_functions"],
        "codes.build_dissipators_s": total["codes.build_dissipators"],
        "codes.build_codewords_s": total["codes.build_codewords"],
        "codes.build_lyapunov_s": total["codes.build_lyapunov"],
        "etd.init_s": total["etd.init"],
        "etd.init_calls": calls["etd.init"],
        "etd.apply_jump_s": total["etd.apply_jump"],
        "etd.apply_jump_calls": calls["etd.apply_jump"],
        "etd.step_s": total["etd.step"],
        "etd.step_calls": calls["etd.step"],
        "etd.run_s": total["etd.run"],
        "etd.steps_accepted": c["etd.steps_accepted"],
        "etd.steps_rejected": c["etd.steps_rejected"],
        "etd.accept_ratio": c["etd.steps_accepted"] / attempts if attempts else 0.0,
        "etd.jumps_per_accepted_step": (jumps_in_run / c["etd.steps_accepted"]
                                        if c["etd.steps_accepted"] else 0.0),
        "etd.run_to_stationary_s": total["etd.run_to_stationary"],
        "etd.stationary_steps": c["etd.stationary_steps"],
        "etd.jump_gflop": c["etd.jump_gflop"],
        "etd.jump_gflops": (c["etd.jump_gflop"] / total["etd.apply_jump"]
                            if total["etd.apply_jump"] else 0.0),
        "ode.integrate_s": total["ode.integrate"],
        "ode.steps_accepted": c["ode.steps_accepted"],
        "ode.steps_rejected": c["ode.steps_rejected"],
        "lindblad.lindblad_rhs_calls": calls["lindblad.lindblad_rhs"],
        "lindblad.evolve_s": total["lindblad.evolve"],
        "lindblad.evolve_calls": calls["lindblad.evolve"],
        "lindblad.evolve_self_s": own["lindblad.evolve"] + total["lindblad.record_callback"],
        "lindblad.logical_operators_s": total["lindblad.logical_operators"],
        "analysis.experiment_s": total["analysis.experiment"],
        "analysis.experiment_self_s": own["analysis.experiment"],
        "cli.main_s": total["cli.main"],
        "io.write_envelope_s": total["io.write_envelope"],
        "io.bytes_written": c["io.bytes_written"],
        "etd.trace_defect_max": c["etd.trace_defect_max"],
        "lindblad.logical_residual": c["lindblad.logical_residual"],
        "trace.solve_s": solve_s,
        "trace.overhead_pct": 100.0 * len(tr.spans) * span_cost / solve_s,
    }
    return out, len(tr.spans)


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--outdir", required=True)
    args = p.parse_args(argv)

    eps, dim, round_fn, n_ops = WORKLOADS[args.workload]
    self_checks = oracles.self_check()
    kappa = oracles.kappa(eps)
    kappa_dev = abs(kappa / codes.kappa(eps) - 1.0)

    ctx = {"seed": args.seed, "kappa": kappa, "outdir": args.outdir, "setup_samples": []}
    for _ in range(SETUPS[args.workload]):
        ctx["code"] = None  # drop the previous bundle before building the next
        ctx["code"], took = setup(eps, dim)
        ctx["setup_samples"].append(took)

    tr = undo = None
    if args.trace:
        gflops = zgemm_gflops(dim)
        span_cost = tracing.span_cost_s()
        tr = tracing.Tracer()
        undo = tr.install(gkpstab)
        if round_fn is not cli_round:
            ctx["code"] = None
            ctx["code"], _ = setup(eps, dim)

    checks, solves, warned = [], [], []
    started = time.perf_counter()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            while True:
                round_started = time.perf_counter()
                try:
                    solve, ops = round_fn(ctx, len(solves))
                except Exception:  # a round that raises counts as failed operations
                    solve = time.perf_counter() - round_started
                    ops = [{"ok": False, "error": traceback.format_exc()}] * n_ops
                solves.append(solve)
                checks.append(ops)
                elapsed = time.perf_counter() - started
                if args.trace or (len(solves) >= MIN_ROUNDS[args.workload]
                                  and elapsed * (len(solves) + 1) / len(solves) > args.seconds):
                    break
            warned = sorted({f"{w.category.__name__}: {w.message}" for w in caught})
    finally:
        if undo:
            tracing.restore(undo)

    flat = [op for ops in checks for op in ops]
    attempted, failed = len(flat), sum(1 for op in flat if not op["ok"])
    if args.trace:
        metrics, n_spans = layer_metrics(tr, solves[0], span_cost)
        metrics["blas.zgemm_gflops"] = gflops
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(ctx["setup_samples"]),
            "solve_s": statistics.median(solves),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    result = {
        "correct": failed == 0 and kappa_dev <= 1e-10,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": envinfo.describe(),
        "result": result, "setup_samples_s": ctx["setup_samples"], "solve_s": solves,
        "kappa": kappa, "kappa_rel_dev_from_program": kappa_dev,
        "oracle_self_checks": self_checks, "operations": checks, "warnings": warned,
    }
    os.makedirs(args.outdir, exist_ok=True)
    stem = os.path.join(args.outdir, f"{args.workload}_seed{args.seed}_trace{args.trace}")
    if args.trace:
        record["spans"] = n_spans
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    if args.trace:
        with open(stem + "_spans.json", "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"], "spans": tr.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
