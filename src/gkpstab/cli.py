"""Command-line front end: reproducible experiment runs with file outputs.

Subcommands: kappa, codewords, lyapunov, qec-sim, check, logical-ops.

Every run resolves its parameters as CLI flag > config-file value > default,
echoes the config into a JSON envelope next to the CSV outputs, and exits
with 0 (success), 2 (usage/config: bad flags, config files or parameter
values, each reported as one `error:` line), 3 (numeric failure), or 4
(verification failure). The default output directory comes from
$GKPSTAB_OUTDIR.
"""

import argparse
import configparser
import json
import os
import sys
import time

import numpy as np

from . import __version__, io
from .analysis import (
    error_rate_experiment,
    lyapunov_decay_experiment,
    run_identity_suite,
)
from .codes import (
    ETA_QUBIT,
    ETA_SENSOR,
    GkpParams,
    build_code,
    convergence_rate,
    kernel_codewords,
    mean_photon_number,
)
from .errors import GkpStabError
from .lindblad import SolverOptions, logical_operators, stabilizer_model

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

LONG_RUNNING_EPS = 1.0 / 20.0  # runs at or below this need --long-running


class UsageError(Exception):
    pass


def _parse_eta(text):
    if text in (None, "", "qubit"):
        return ETA_QUBIT
    if text == "sensor":
        return ETA_SENSOR
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"eta must be 'qubit', 'sensor', or a number, got {text!r}")


def _parse_epsilons(args):
    if args.epsilons:
        try:
            eps = [float(tok) for tok in args.epsilons.split(",") if tok.strip()]
        except ValueError:
            raise UsageError(f"bad epsilon list {args.epsilons!r}")
    elif args.epsilon_range:
        parts = args.epsilon_range.split(":")
        if len(parts) not in (3, 4):
            raise UsageError("epsilon range must be lo:hi:n or lo:hi:n:log")
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise UsageError(f"bad epsilon range {args.epsilon_range!r}")
        if n < 1 or not (0 < lo <= hi):
            raise UsageError("epsilon range must satisfy 0 < lo <= hi and n >= 1")
        if len(parts) == 4 and parts[3] == "log":
            eps = list(np.geomspace(lo, hi, n))
        else:
            eps = list(np.linspace(lo, hi, n))
    else:
        eps = []
    if not eps:
        raise UsageError("no epsilon values given (use --epsilons or --epsilon-range)")
    if any(not (0 < e <= 1.0) for e in eps):
        raise UsageError("epsilon values must lie in (0, 1]")
    return eps


class Resolver:
    """flag > config > default, with the raw config text kept for the echo."""

    def __init__(self, config_path):
        self.flat, self.raw = ({}, "") if not config_path else io.parse_config(config_path)
        if "solver.method" in self.flat:
            raise UsageError("config key solver.method is not read: the integrator "
                             "is chosen from the model")

    def get(self, flag_value, key, default, cast=str):
        if flag_value is not None:
            return flag_value
        if key in self.flat:
            try:
                return cast(self.flat[key])
            except ValueError:
                raise UsageError(f"config key {key}: cannot read {self.flat[key]!r}")
        return default

    def echo(self, resolved):
        return {
            "file_text": self.raw,
            "resolved": {k: (v if not isinstance(v, float) else io.format_float(v))
                         for k, v in sorted(resolved.items())},
        }


def _outdir(args, resolver):
    out = resolver.get(args.outdir, "output.outdir",
                       os.environ.get("GKPSTAB_OUTDIR", "."))
    os.makedirs(out, exist_ok=True)
    return out


def _solver_options(args, resolver):
    return SolverOptions(
        rtol=resolver.get(args.rtol, "solver.rtol", 1e-8, float),
        atol=resolver.get(args.atol, "solver.atol", 1e-10, float),
    )


def _guard_long_running(epsilon, enabled):
    if epsilon <= LONG_RUNNING_EPS and not enabled:
        raise UsageError(
            f"epsilon={epsilon:g} is a long-running tier; pass --long-running to allow it"
        )


def _finish(outdir, prefix, command, resolver, resolved, payload, t0):
    env = io.envelope(command, resolver.echo(resolved), payload, time.time() - t0, __version__)
    path = os.path.join(outdir, f"{prefix}.json")
    io.write_envelope(path, env)
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_kappa(args, resolver):
    t0 = time.time()
    eps_list = _parse_epsilons(args)
    eta = _parse_eta(resolver.get(args.eta, "run.eta", "qubit"))
    rows = []
    for e in eps_list:
        cert = convergence_rate(e, eta)
        rows.append((e, cert.value, cert.certified, cert.asymptote))
    print(f"{'epsilon':>12} {'kappa':>24} {'certified':>10} {'asymptote':>24}")
    for e, k, c, a in rows:
        print(f"{e:>12.6g} {k:>24.17g} {str(c):>10} {a:>24.17g}")
    if args.prefix or args.outdir or resolver.flat:
        outdir = _outdir(args, resolver)
        prefix = args.prefix or "kappa"
        csv_text = io.table_csv_text(("epsilon", "kappa", "certified", "asymptote"), rows)
        io.atomic_write_text(os.path.join(outdir, f"{prefix}.csv"), csv_text)
        payload = {"rows": [
            {"epsilon": e, "kappa": k, "certified": c, "asymptote": a}
            for e, k, c, a in rows
        ], "eta": eta}
        _finish(outdir, prefix, "kappa", resolver,
                {"eta": eta, "epsilons": ",".join(io.format_float(e) for e in eps_list)},
                payload, t0)
    return EXIT_OK


def cmd_codewords(args, resolver):
    t0 = time.time()
    epsilon = resolver.get(args.epsilon, "run.epsilon", None, float)
    if epsilon is None:
        raise UsageError("codewords needs --epsilon")
    eta = _parse_eta(resolver.get(args.eta, "run.eta", "qubit"))
    dim = resolver.get(args.dim, "run.dim", None, int)
    params = GkpParams(epsilon, eta, dim)
    code = build_code(params)
    outdir = _outdir(args, resolver)
    prefix = args.prefix or "codewords"

    words = code.codewords
    columns = ["n"] + [f"c{i}" for i in range(len(words))]
    rows = [[n] + [w[n] for w in words] for n in range(params.dim)]
    io.atomic_write_text(os.path.join(outdir, f"{prefix}.csv"),
                         io.table_csv_text(columns, rows))

    eigen_words = kernel_codewords(code.lyapunov, len(words))
    span = np.vstack(words).T
    eig_span = np.vstack(eigen_words).T
    p_quad = span @ np.linalg.inv(span.conj().T @ span) @ span.conj().T
    p_eig = eig_span @ eig_span.conj().T
    residuals = code.codeword_residuals()
    overlap = complex(np.vdot(words[0], words[1])) if len(words) == 2 else 0.0
    payload = {
        "epsilon": epsilon,
        "eta": eta,
        "dim": params.dim,
        "norms": [float(np.linalg.norm(w)) for w in words],
        "overlap_01": {"re": overlap.real, "im": overlap.imag},
        "mean_photon": [mean_photon_number(w) for w in words],
        "odd_fock_weight": [float(np.sum(np.abs(w[1::2]) ** 2)) for w in words],
        "dissipator_residuals": residuals,
        "eigen_kernel_projector_distance": float(np.linalg.norm(p_quad - p_eig, 2)),
        "codeword_lyapunov_value": [
            float(np.real(np.vdot(w, code.lyapunov @ w))) for w in words
        ],
    }
    path = _finish(outdir, prefix, "codewords", resolver,
                   {"epsilon": epsilon, "eta": eta, "dim": params.dim}, payload, t0)
    print(f"codewords: {len(words)} vector(s), dim {params.dim}; "
          f"mean photon {payload['mean_photon']}; wrote {path}")
    return EXIT_OK


def cmd_lyapunov(args, resolver):
    t0 = time.time()
    epsilon = resolver.get(args.epsilon, "run.epsilon", None, float)
    if epsilon is None:
        raise UsageError("lyapunov needs --epsilon")
    _guard_long_running(epsilon, args.long_running)
    eta = _parse_eta(resolver.get(args.eta, "run.eta", "qubit"))
    dim = resolver.get(args.dim, "run.dim", None, int)
    seed = resolver.get(args.seed, "run.seed", 0, int)
    trials = resolver.get(args.trials, "run.trials", 10, int)
    report = lyapunov_decay_experiment(
        epsilon, eta, dim, n_trials=trials, seed=seed,
        solver=_solver_options(args, resolver),
    )
    outdir = _outdir(args, resolver)
    prefix = args.prefix or "lyapunov"
    rows = [
        (t.seed, t.initial_lyapunov, t.fitted_rate, t.n_fit_points, t.degenerate,
         t.n_accept, t.n_reject, t.n_jumps, t.blocks)
        for t in report.trials
    ]
    io.atomic_write_text(
        os.path.join(outdir, f"{prefix}_trials.csv"),
        io.table_csv_text(("seed", "initial_TrW", "fitted_rate", "n_fit_points", "degenerate",
                           "n_accept", "n_reject", "n_jumps", "blocks"), rows),
    )
    path = _finish(outdir, prefix, "lyapunov", resolver,
                   {"epsilon": epsilon, "eta": eta, "dim": report.dim,
                    "seed": seed, "trials": trials}, report, t0)
    n_deg = sum(1 for t in report.trials if t.degenerate)
    for t in report.trials:
        if t.degenerate:
            print(f"trial seed={t.seed}: degenerate (initial TrW {t.initial_lyapunov:.3e}), skipped")
    print(f"rate bound {report.rate_bound:.6g}; measured min {report.min_rate:.6g} "
          f"median {report.median_rate:.6g}; {n_deg} degenerate; "
          f"{'PASS' if report.passed else 'FAIL'}; wrote {path}")
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_qec_sim(args, resolver):
    t0 = time.time()
    epsilon = resolver.get(args.epsilon, "run.epsilon", None, float)
    if epsilon is None:
        raise UsageError("qec-sim needs --epsilon")
    _guard_long_running(epsilon, args.long_running)
    dim = resolver.get(args.dim, "run.dim", None, int)
    kappa1 = resolver.get(args.kappa1, "run.kappa1", None, float)
    records = resolver.get(args.records, "run.records", 51, int)
    report = error_rate_experiment(epsilon, dim=dim, kappa1=kappa1,
                                   n_records=records,
                                   solver=_solver_options(args, resolver))
    outdir = _outdir(args, resolver)
    prefix = args.prefix or "qec"
    io.write_trajectory_csv(os.path.join(outdir, f"{prefix}_on.csv"), report.traj_on)
    if report.traj_off is not None:
        io.write_trajectory_csv(os.path.join(outdir, f"{prefix}_off.csv"), report.traj_off)
    path = _finish(outdir, prefix, "qec-sim", resolver,
                   {"epsilon": epsilon, "dim": report.dim, "kappa1": report.kappa1,
                    "records": records}, report.scalar_payload(), t0)
    print(f"on_rate {report.on_rate:.6g}  off_rate {report.off_rate:.6g}  "
          f"suppression {report.suppression_ratio:.3f}; wrote {path}")
    return EXIT_OK


def cmd_check(args, resolver):
    t0 = time.time()
    epsilon = resolver.get(args.epsilon, "run.epsilon", 0.05, float)
    eta = _parse_eta(resolver.get(args.eta, "run.eta", "qubit"))
    dim = resolver.get(args.dim, "run.dim", None, int)
    results = run_identity_suite(epsilon, eta, dim)
    all_pass = True
    for r in results:
        flag = "PASS" if r.passed else "FAIL"
        print(f"{flag} {r.name}: measured {r.measured:.3e} (tol {r.tol:g})")
        all_pass &= r.passed
    if args.prefix or args.outdir or resolver.flat:
        outdir = _outdir(args, resolver)
        prefix = args.prefix or "check"
        _finish(outdir, prefix, "check", resolver,
                {"epsilon": epsilon, "eta": eta, "dim": dim or "auto"},
                {"results": results, "all_pass": all_pass}, t0)
    return EXIT_OK if all_pass else EXIT_VERIFY


def cmd_logical_ops(args, resolver):
    t0 = time.time()
    epsilon = resolver.get(args.epsilon, "run.epsilon", None, float)
    if epsilon is None:
        raise UsageError("logical-ops needs --epsilon")
    dim = resolver.get(args.dim, "run.dim", None, int)
    tol = resolver.get(args.tol, "run.tol", 1e-7, float)
    horizon = resolver.get(args.horizon_multiplier, "run.horizon_multiplier", 20.0, float)
    params = GkpParams(epsilon, ETA_QUBIT, dim)
    code = build_code(params)
    model = stabilizer_model(code)
    logicals = logical_operators(model, code, horizon_multiplier=horizon, tol=tol)
    spectra = logicals.spectra()
    payload = {
        "epsilon": epsilon,
        "dim": params.dim,
        "residual": logicals.convergence_residual,
        "spectra": {k: {"min": float(v[0]), "max": float(v[-1])} for k, v in spectra.items()},
    }
    outdir = _outdir(args, resolver)
    prefix = args.prefix or "logical_ops"
    if args.save_operators:
        np.savez(os.path.join(outdir, f"{prefix}.npz"),
                 jx=logicals.jx, jy=logicals.jy, jz=logicals.jz)
    path = _finish(outdir, prefix, "logical-ops", resolver,
                   {"epsilon": epsilon, "dim": params.dim, "tol": tol,
                    "horizon_multiplier": horizon}, payload, t0)
    for name, v in spectra.items():
        print(f"{name}: spectrum [{v[0]:.9f}, {v[-1]:.9f}]")
    print(f"residual {logicals.convergence_residual:.3e}; wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------

# shared flags, registered only on the subcommands that read them
FLAGS = {
    "epsilon": (float, "regularization strength"),
    "eta": (str, "lattice constant: qubit, sensor, or a number"),
    "dim": (int, "Fock truncation override (rule: 20/epsilon)"),
    "rtol": (float, "solver relative tolerance"),
    "atol": (float, "solver absolute tolerance"),
    "seed": (int, "random seed (default 0)"),
}


def build_parser():
    p = argparse.ArgumentParser(prog="gkpstab",
                                description="grid-state stabilization toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *flags):
        sp.add_argument("--config", help="INI config file; flags override its values")
        sp.add_argument("--outdir", help="output directory (default $GKPSTAB_OUTDIR or .)")
        sp.add_argument("--prefix", help="output file prefix")
        for flag in flags:
            kind, text = FLAGS[flag]
            sp.add_argument(f"--{flag}", type=kind, help=text)

    sp = sub.add_parser("kappa", help="decay-rate table over an epsilon grid")
    common(sp, "eta")
    sp.add_argument("--epsilons", help="comma-separated epsilon list")
    sp.add_argument("--epsilon-range", help="lo:hi:n or lo:hi:n:log")
    sp.set_defaults(func=cmd_kappa)

    sp = sub.add_parser("codewords", help="build codewords and diagnostics")
    common(sp, "epsilon", "eta", "dim")
    sp.set_defaults(func=cmd_codewords)

    sp = sub.add_parser("lyapunov", help="random-state decay-rate experiment")
    common(sp, "epsilon", "eta", "dim", "rtol", "atol", "seed")
    sp.add_argument("--trials", type=int, help="number of random initial states")
    sp.add_argument("--long-running", action="store_true",
                    help="allow epsilon <= 1/20 tiers")
    sp.set_defaults(func=cmd_lyapunov)

    sp = sub.add_parser("qec-sim", help="photon-loss on/off experiment")
    common(sp, "epsilon", "dim", "rtol", "atol")
    sp.add_argument("--kappa1", type=float, help="loss rate (default epsilon/5)")
    sp.add_argument("--records", type=int, help="number of record times")
    sp.add_argument("--long-running", action="store_true",
                    help="allow epsilon <= 1/20 tiers")
    sp.set_defaults(func=cmd_qec_sim)

    sp = sub.add_parser("check", help="closed-form identity verification suite")
    common(sp, "epsilon", "eta", "dim")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("logical-ops", help="stationary logical observables")
    common(sp, "epsilon", "dim")
    sp.add_argument("--tol", type=float, help="residual stopping tolerance")
    sp.add_argument("--horizon-multiplier", type=float,
                    help="fallback horizon in units of 1/kappa")
    sp.add_argument("--save-operators", action="store_true",
                    help="write jx/jy/jz to an npz file")
    sp.set_defaults(func=cmd_logical_ops)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        resolver = Resolver(args.config)
        return args.func(args, resolver)
    except GkpStabError as exc:  # ahead of ValueError, which several subclass
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_NUMERIC
    except (UsageError, FileNotFoundError, configparser.Error, ValueError) as exc:
        # parameter values the model rejects, e.g. epsilon < 0 or kappa <= 0
        print(f"error: {' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
