"""Command-line front end: reproducible experiment runs with file outputs.

Subcommands: kappa, codewords, lyapunov, qec-sim, check, logical-ops.

Every parameter is defined once, in PARAMS. A run resolves the ones its
subcommand reads as CLI flag > config-file value > default into one dict,
reads them from it, and echoes the config text and that same dict into a
JSON envelope next to the CSV outputs. It exits with 0 (success), 2
(usage/config: bad flags, config files or parameter values, each reported
as one `error:` line), 3 (numeric failure), or 4 (verification failure).
The default output directory comes from $GKPSTAB_OUTDIR.
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
from .lindblad import logical_operators, stabilizer_model

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

LONG_RUNNING_EPS = 1.0 / 20.0  # runs at or below this need --long-running


class UsageError(Exception):
    pass


def _parse_eta(text):
    if text in ("", "qubit"):
        return ETA_QUBIT
    if text == "sensor":
        return ETA_SENSOR
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"eta must be 'qubit', 'sensor', or a number, got {text!r}")


def _parse_epsilons(p):
    if p["epsilons"] and p["epsilon_range"]:
        raise UsageError("give --epsilons or --epsilon-range, not both")
    if p["epsilons"]:
        try:
            eps = [float(tok) for tok in p["epsilons"].split(",") if tok.strip()]
        except ValueError:
            raise UsageError(f"bad epsilon list {p['epsilons']!r}")
    elif p["epsilon_range"]:
        parts = p["epsilon_range"].split(":")
        if len(parts) not in (3, 4):
            raise UsageError("epsilon range must be lo:hi:n or lo:hi:n:log")
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise UsageError(f"bad epsilon range {p['epsilon_range']!r}")
        if n < 1 or not (0 < lo <= hi):
            raise UsageError("epsilon range must satisfy 0 < lo <= hi and n >= 1")
        if len(parts) == 4 and parts[3] != "log":
            raise UsageError(f"epsilon range spacing must be 'log', got {parts[3]!r}")
        if len(parts) == 4:
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
    """flag > config > default for every parameter of one command, with the
    raw config text kept for the echo and the run's start time for its
    clock. A config key no PARAMS entry defines is a usage error."""

    def __init__(self, command, config_path):
        self.command, self.t0 = command, time.time()
        self.flat, self.raw = ({}, "") if not config_path else io.parse_config(config_path)
        unread = sorted(set(self.flat) - {key for _, _, key, _ in PARAMS.values()})
        if unread:
            raise UsageError(f"no subcommand reads config key {', '.join(unread)}")

    def resolve(self, args):
        """The value of every parameter the command reads, by name."""
        _, _, names, own_defaults = COMMANDS[self.command]
        resolved = {}
        for name in ("outdir", "prefix") + names:
            kind, _, key, default = PARAMS[name]
            value = getattr(args, name)
            if value is None:
                value = self.flat.get(key)
            if value is None:
                value = own_defaults.get(name, default)
            if value is REQUIRED:
                raise UsageError(f"{self.command} needs --{name}")
            if isinstance(value, str):  # config text, eta flag text or default
                try:
                    value = kind(value)
                except ValueError:
                    raise UsageError(f"config key {key}: cannot read {value!r}")
            resolved[name] = value
        return resolved

    def echo(self, resolved):
        return {
            "file_text": self.raw,
            "resolved": {k: (v if not isinstance(v, float) else io.format_float(v))
                         for k, v in sorted(resolved.items())},
        }


def _stem(p, default_prefix):
    """Output path without extension; makes the output directory."""
    outdir = p["outdir"] or os.environ.get("GKPSTAB_OUTDIR", ".")
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, p["prefix"] or default_prefix)


def _guard_long_running(p):
    if p["epsilon"] <= LONG_RUNNING_EPS and not p["long_running"]:
        raise UsageError(
            f"epsilon={p['epsilon']:g} is a long-running tier; pass --long-running to allow it"
        )


def _finish(stem, resolver, p, payload):
    env = io.envelope(resolver.command, resolver.echo(p), payload,
                      time.time() - resolver.t0, __version__)
    io.write_envelope(f"{stem}.json", env)
    return f"{stem}.json"


# ---------------------------------------------------------------------------
# subcommands: each reads its parameters from p, the resolved dict
# ---------------------------------------------------------------------------


def cmd_kappa(p, resolver):
    columns = ("epsilon", "kappa", "certified", "asymptote")
    eps_list = _parse_epsilons(p)
    rows = []
    for e in eps_list:
        cert = convergence_rate(e, p["eta"])
        rows.append((e, cert.value, cert.certified, cert.asymptote))
    print(f"{'epsilon':>12} {'kappa':>24} {'certified':>10} {'asymptote':>24}")
    for e, k, c, a in rows:
        print(f"{e:>12.6g} {k:>24.17g} {str(c):>10} {a:>24.17g}")
    if p["prefix"] or p["outdir"] or resolver.flat:
        stem = _stem(p, "kappa")
        io.atomic_write_text(f"{stem}.csv", io.table_csv_text(columns, rows))
        payload = {"rows": [dict(zip(columns, row)) for row in rows], "eta": p["eta"]}
        _finish(stem, resolver, p, payload)
    return EXIT_OK


def cmd_codewords(p, resolver):
    params = GkpParams(p["epsilon"], p["eta"], p["dim"])
    code = build_code(params)
    stem = _stem(p, "codewords")

    words = code.codewords
    columns = ["n"] + [f"c{i}" for i in range(len(words))]
    rows = [[n] + [w[n] for w in words] for n in range(params.dim)]
    io.atomic_write_text(f"{stem}.csv", io.table_csv_text(columns, rows))

    eigen_words = kernel_codewords(code.lyapunov, len(words))
    span = np.vstack(words).T
    eig_span = np.vstack(eigen_words).T
    p_quad = span @ np.linalg.inv(span.conj().T @ span) @ span.conj().T
    p_eig = eig_span @ eig_span.conj().T
    residuals = code.codeword_residuals()
    overlap = complex(np.vdot(words[0], words[1])) if len(words) == 2 else 0j
    payload = {
        "epsilon": p["epsilon"],
        "eta": p["eta"],
        "dim": params.dim,
        "norms": [float(np.linalg.norm(w)) for w in words],
        "overlap_01": overlap,
        "mean_photon": [mean_photon_number(w) for w in words],
        "odd_fock_weight": [float(np.sum(np.abs(w[1::2]) ** 2)) for w in words],
        "dissipator_residuals": residuals,
        "eigen_kernel_projector_distance": float(np.linalg.norm(p_quad - p_eig, 2)),
        "codeword_lyapunov_value": [
            float(np.real(np.vdot(w, code.lyapunov @ w))) for w in words
        ],
    }
    path = _finish(stem, resolver, p, payload)
    print(f"codewords: {len(words)} vector(s), dim {params.dim}; "
          f"mean photon {payload['mean_photon']}; wrote {path}")
    return EXIT_OK


def cmd_lyapunov(p, resolver):
    _guard_long_running(p)
    report = lyapunov_decay_experiment(
        p["epsilon"], p["eta"], p["dim"], n_trials=p["trials"], seed=p["seed"])
    stem = _stem(p, "lyapunov")
    rows = [
        (t.seed, t.initial_lyapunov, t.fitted_rate, t.n_fit_points, t.degenerate,
         t.n_accept, t.n_reject, t.n_jumps, t.blocks)
        for t in report.trials
    ]
    io.atomic_write_text(
        f"{stem}_trials.csv",
        io.table_csv_text(("seed", "initial_TrW", "fitted_rate", "n_fit_points", "degenerate",
                           "n_accept", "n_reject", "n_jumps", "blocks"), rows),
    )
    path = _finish(stem, resolver, p, report)
    n_deg = sum(1 for t in report.trials if t.degenerate)
    for t in report.trials:
        if t.degenerate:
            print(f"trial seed={t.seed}: degenerate (initial TrW {t.initial_lyapunov:.3e}), skipped")
    print(f"rate bound {report.rate_bound:.6g}; measured min {report.min_rate:.6g} "
          f"median {report.median_rate:.6g}; {n_deg} degenerate; "
          f"{'PASS' if report.passed else 'FAIL'}; wrote {path}")
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_qec_sim(p, resolver):
    _guard_long_running(p)
    report = error_rate_experiment(p["epsilon"], dim=p["dim"], kappa1=p["kappa1"],
                                   n_records=p["records"])
    stem = _stem(p, "qec")
    io.write_trajectory_csv(f"{stem}_on.csv", report.traj_on)
    if report.traj_off is not None:
        io.write_trajectory_csv(f"{stem}_off.csv", report.traj_off)
    path = _finish(stem, resolver, p, report.scalar_payload())
    print(f"on_rate {report.on_rate:.6g}  off_rate {report.off_rate:.6g}  "
          f"suppression {report.suppression_ratio:.3f}; wrote {path}")
    return EXIT_OK


def cmd_check(p, resolver):
    code = build_code(GkpParams(p["epsilon"], p["eta"], p["dim"]))
    results = run_identity_suite(code)
    all_pass = True
    for r in results:
        flag = "PASS" if r.passed else "FAIL"
        print(f"{flag} {r.name}: measured {r.measured:.3e} (tol {r.tol:g})")
        all_pass &= r.passed
    if p["prefix"] or p["outdir"] or resolver.flat:
        _finish(_stem(p, "check"), resolver, p,
                {"dim": code.dim, "results": results, "all_pass": all_pass})
    return EXIT_OK if all_pass else EXIT_VERIFY


def cmd_logical_ops(p, resolver):
    params = GkpParams(p["epsilon"], ETA_QUBIT, p["dim"])
    code = build_code(params)
    model = stabilizer_model(code)
    logicals = logical_operators(model, code)
    spectra = logicals.spectra()
    payload = {
        "epsilon": p["epsilon"],
        "dim": params.dim,
        "residual": logicals.convergence_residual,
        "spectra": {k: {"min": float(v[0]), "max": float(v[-1])} for k, v in spectra.items()},
    }
    stem = _stem(p, "logical_ops")
    if p["save_operators"]:
        np.savez(f"{stem}.npz", jx=logicals.jx, jy=logicals.jy, jz=logicals.jz)
    path = _finish(stem, resolver, p, payload)
    for name, v in spectra.items():
        print(f"{name}: spectrum [{v[0]:.9f}, {v[-1]:.9f}]")
    print(f"residual {logicals.convergence_residual:.3e}; wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------

REQUIRED = object()

# The one definition of every parameter: name -> (kind, help, config key,
# default). kind reads a config value, and a flag too (argparse applies int
# and float itself); a parameter without a config key is a flag only, and a
# bool one is a switch. None defers to a rule: dim to 20/epsilon, kappa1 to
# epsilon/5, outdir to $GKPSTAB_OUTDIR or ., prefix to a name per command.
PARAMS = {
    "outdir": (str, "output directory (default $GKPSTAB_OUTDIR or .)", "output.outdir", None),
    "prefix": (str, "output file prefix", None, None),
    "epsilon": (float, "regularization strength", "run.epsilon", REQUIRED),
    "epsilons": (str, "comma-separated epsilon list", None, None),
    "epsilon_range": (str, "lo:hi:n or lo:hi:n:log", None, None),
    "eta": (_parse_eta, "lattice constant: qubit, sensor, or a number", "run.eta", "qubit"),
    "dim": (int, "Fock truncation override (rule: 20/epsilon)", "run.dim", None),
    "seed": (int, "random seed (default 0)", "run.seed", 0),
    "trials": (int, "number of random initial states", "run.trials", 10),
    "kappa1": (float, "loss rate (default epsilon/5)", "run.kappa1", None),
    "records": (int, "number of record times", "run.records", 51),
    "long_running": (bool, "allow epsilon <= 1/20 tiers", None, False),
    "save_operators": (bool, "write jx/jy/jz to an npz file", None, False),
}

# name: (handler, help, parameters read besides outdir and prefix, defaults
# that differ from PARAMS); flags a command does not read are not registered
COMMANDS = {
    "kappa": (cmd_kappa, "decay-rate table over an epsilon grid",
              ("eta", "epsilons", "epsilon_range"), {}),
    "codewords": (cmd_codewords, "build codewords and diagnostics",
                  ("epsilon", "eta", "dim"), {}),
    "lyapunov": (cmd_lyapunov, "random-state decay-rate experiment",
                 ("epsilon", "eta", "dim", "seed", "trials", "long_running"), {}),
    "qec-sim": (cmd_qec_sim, "photon-loss on/off experiment",
                ("epsilon", "dim", "kappa1", "records", "long_running"), {}),
    "check": (cmd_check, "closed-form identity verification suite",
              ("epsilon", "eta", "dim"), {"epsilon": 0.05}),
    "logical-ops": (cmd_logical_ops, "stationary logical observables",
                    ("epsilon", "dim", "save_operators"), {}),
}


def build_parser():
    p = argparse.ArgumentParser(prog="gkpstab",
                                description="grid-state stabilization toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for command, (_, text, names, _) in COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        sp.add_argument("--config", help="INI config file; flags override its values")
        for name in ("outdir", "prefix") + names:
            kind, help_text, _, _ = PARAMS[name]
            flag = "--" + name.replace("_", "-")
            if kind is bool:
                sp.add_argument(flag, action="store_true", help=help_text)
            else:
                sp.add_argument(flag, type=kind if kind in (int, float) else str,
                                help=help_text)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        resolver = Resolver(args.command, args.config)
        return COMMANDS[args.command][0](resolver.resolve(args), resolver)
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
