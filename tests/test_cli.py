import dataclasses
import json

import numpy as np
import pytest

from gkpstab import GkpParams, build_code, cli, lindblad
from gkpstab.analysis import ErrorRateReport
from gkpstab.codes import ETA_SENSOR
from gkpstab.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from gkpstab.io import format_float


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_kappa_table_stdout(capsys):
    assert main(["kappa", "--epsilons", "1e-3,1e-2,1e-1"]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 4  # header + three rows
    first = out[1].split()
    ratio = float(first[1]) / float(first[3])
    assert 0.95 <= ratio <= 1.05


def test_kappa_usage_errors(capsys):
    assert main(["kappa"]) == EXIT_USAGE
    assert main(["kappa", "--epsilons", ""]) == EXIT_USAGE
    assert main(["kappa", "--epsilon-range", "0.1:0.01:5"]) == EXIT_USAGE
    assert main(["kappa", "--epsilons", "2.0"]) == EXIT_USAGE  # outside (0, 1]
    assert main(["kappa", "--epsilons", "0.1", "--eta", "nonsense"]) == EXIT_USAGE
    # two grids: the run would use one and echo both
    capsys.readouterr()
    assert main(["kappa", "--epsilons", "0.1", "--epsilon-range", "0.1:0.2:3"]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_kappa_sensor_certified_column(tmp_path):
    assert main(["kappa", "--epsilons", "0.1,0.3", "--eta", "sensor",
                 "--outdir", str(tmp_path)]) == EXIT_OK
    rows = (tmp_path / "kappa.csv").read_text().strip().splitlines()
    assert rows[0] == "epsilon,kappa,certified,asymptote"
    assert rows[1].split(",")[2] == "true"   # 0.1 <= 1/(2 sqrt(2 pi)) ~ 0.199
    assert rows[2].split(",")[2] == "false"  # 0.3 outside the certified window


def test_kappa_range_parsing(capsys):
    assert main(["kappa", "--epsilon-range", "1e-3:1e-1:5:log"]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 6


def test_kappa_range_rejects_unknown_spacing(capsys):
    # a misspelt fourth field must not fall back to linear spacing
    assert main(["kappa", "--epsilon-range", "1e-3:0.1:3:lgo"]) == EXIT_USAGE
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "'lgo'" in err[0]
    assert captured.out == ""


@pytest.mark.parametrize("args", [["qec-sim", "--records", "0"], ["qec-sim", "--records", "1"],
                                  ["lyapunov", "--trials", "0"]],
                         ids=["records0", "records1", "trials0"])
def test_empty_experiment_is_usage_error(args, tmp_path, capsys):
    # no record at t_f, or no trial, leaves no rate to report or to test
    assert main(args + ["--epsilon", "0.14", "--outdir", str(tmp_path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert captured.out == "" and not any(tmp_path.iterdir())


def test_codewords_roundtrip(tmp_path):
    assert main(["codewords", "--epsilon", "0.2", "--outdir", str(tmp_path),
                 "--prefix", "cw"]) == EXIT_OK
    env = read_json(tmp_path / "cw.json")
    payload = env["payload"]
    assert payload["dim"] == 100
    assert abs(payload["mean_photon"][1] - 2.5) < 1.0
    assert payload["eigen_kernel_projector_distance"] <= 1e-5
    assert max(payload["odd_fock_weight"]) <= 1e-10
    assert max(max(row) for row in payload["dissipator_residuals"]) <= 2e-5

    # bit-exact round trip: 17 significant digits reproduce the doubles
    lines = (tmp_path / "cw.csv").read_text().strip().splitlines()
    assert lines[0] == "n,c0,c1"
    code = build_code(GkpParams(0.2))
    for row in lines[1:]:
        n_str, c0_str, c1_str = row.split(",")
        n = int(float(n_str))
        assert float(c0_str) == code.codewords[0][n]
        assert float(c1_str) == code.codewords[1][n]


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nepsilon = 0.25\ndim = 64\n\n[output]\noutdir = %s\n" % tmp_path)
    assert main(["codewords", "--config", str(cfg), "--prefix", "a"]) == EXIT_OK
    env = read_json(tmp_path / "a.json")
    assert env["payload"]["dim"] == 64
    assert env["config_echo"]["file_text"] == cfg.read_text()
    # flag overrides the file value
    assert main(["codewords", "--config", str(cfg), "--dim", "72",
                 "--prefix", "b"]) == EXIT_OK
    assert read_json(tmp_path / "b.json")["payload"]["dim"] == 72


# flags that a subcommand would not read are not registered on it
# and the tolerances are constants of ode and lindblad, read by no subcommand
@pytest.mark.parametrize("argv", [
    ["kappa", "--epsilons", "0.1", "--epsilon", "0.1"],
    ["kappa", "--epsilons", "0.1", "--dim", "50"],
    ["qec-sim", "--epsilon", "0.2", "--eta", "sensor"],
    ["logical-ops", "--epsilon", "0.2", "--eta", "sensor"],
    ["lyapunov", "--epsilon", "0.2", "--method", "rk45"],
] + [[command, "--epsilons" if command == "kappa" else "--epsilon", "0.2", flag, "1e-6"]
     for command in cli.COMMANDS
     for flag in ("--rtol", "--atol", "--tol", "--horizon-multiplier")],
    ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_unread_flag_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert argv[-2] in capsys.readouterr().err


def test_solver_method_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nepsilon = 0.25\n\n[solver]\nmethod = rk45\n")
    assert main(["codewords", "--config", str(cfg), "--outdir", str(tmp_path)]) == EXIT_USAGE
    assert "solver.method" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


def test_misspelt_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nepsilon = 0.25\n\n[solver]\nrtl = 1e-3\n")
    assert main(["codewords", "--config", str(cfg), "--outdir", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "solver.rtl" in err[0]
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("key", ["solver.rtol", "solver.atol", "run.tol",
                                 "run.horizon_multiplier"])
def test_removed_tolerance_config_key_is_usage_error(key, tmp_path, capsys):
    section, name = key.split(".")
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{section}]\n{name} = 1e-6\n")
    for command in ("lyapunov", "qec-sim", "logical-ops"):
        assert main([command, "--epsilon", "0.25", "--config", str(cfg),
                     "--outdir", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]
    assert not list(tmp_path.glob("*.json")) and not list(tmp_path.glob("*.csv"))


def test_config_key_of_another_subcommand_is_accepted(tmp_path):
    # codewords reads no seed, but lyapunov reads run.seed
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nepsilon = 0.25\nseed = 3\n")
    assert main(["codewords", "--config", str(cfg), "--outdir", str(tmp_path)]) == EXIT_OK


def test_check_subcommand_passes(tmp_path, capsys):
    assert main(["check", "--epsilon", "0.1", "--outdir", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") == 7
    env = read_json(tmp_path / "check.json")
    assert env["payload"]["all_pass"] is True


def test_check_failure_exit_code(capsys):
    # eps = 0.36 is past the certified window 1/(2 eta): T still matches its
    # closed forms, but lam_2 < 0 breaks the sign pattern
    assert main(["check", "--epsilon", "0.36"]) == EXIT_VERIFY
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 7
    assert [line.split(":")[0] for line in out if line.startswith("FAIL")] == [
        "FAIL t_spectrum_closed_forms"]


@pytest.mark.parametrize("config, argv", [
    ("epsilon = 0.1\n", ["codewords"]),  # no section header
    ("[run]\nepsilon = abc\n", ["codewords"]),
    (None, ["codewords", "--epsilon", "-0.1"]),
    (None, ["codewords", "--epsilon", "0", "--dim", "10"]),
    (None, ["lyapunov", "--epsilon", "0.3"]),  # kappa <= 0 from here on
    (None, ["qec-sim", "--epsilon", "0.3"]),
    (None, ["logical-ops", "--epsilon", "0.3"]),
    (None, ["qec-sim", "--epsilon", "0.15", "--dim", "40", "--records", "3", "--kappa1=-0.05"]),
    (None, ["qec-sim", "--epsilon", "0.15", "--dim", "40", "--records", "3", "--kappa1=nan"]),
    (None, ["codewords", "--epsilon", "nan", "--dim", "30"]),
    (None, ["codewords", "--epsilon", "nan"]),
    (None, ["codewords", "--epsilon", "inf"]),
    (None, ["codewords", "--epsilon", "0.2", "--eta", "nan"]),
    (None, ["check", "--epsilon", "nan", "--dim", "30"]),
    (None, ["logical-ops", "--epsilon", "nan", "--dim", "30"]),
    (None, ["kappa", "--epsilons", "0.1", "--eta", "nan"]),
    (None, ["kappa", "--epsilons", "0.1", "--eta", "inf"]),
], ids=["no-section", "bad-value", "negative-eps", "zero-eps", "lyapunov-kappa",
        "qec-kappa", "logical-ops-kappa", "qec-negative-kappa1", "qec-nan-kappa1",
        "nan-eps", "nan-eps-rule-dim", "inf-eps", "nan-eta", "check-nan-eps",
        "logical-ops-nan-eps", "kappa-nan-eta", "kappa-inf-eta"])
def test_bad_input_is_usage_error(config, argv, tmp_path, capsys):
    if config is not None:
        cfg = tmp_path / "run.ini"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    assert main(argv + ["--outdir", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    if "--eta" in argv:
        assert "eta" in err[0]


def test_long_running_gate(capsys):
    assert main(["qec-sim", "--epsilon", "0.05"]) == EXIT_USAGE
    assert main(["lyapunov", "--epsilon", "0.04"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--long-running" in err


def test_missing_required_epsilon():
    assert main(["codewords"]) == EXIT_USAGE


def test_numeric_failure_exit_code(capsys):
    # eps=0.01 needs dim=2000, over the desk-scale ceiling -> machine-readable
    # failure payload and the numeric exit code
    assert main(["qec-sim", "--epsilon", "0.01", "--long-running"]) == 3
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "ResourceLimitError"


@pytest.mark.slow
def test_check_at_dim_300(tmp_path):
    assert main(["check", "--epsilon", "0.05", "--dim", "300",
                 "--outdir", str(tmp_path)]) == EXIT_OK


def test_outdir_from_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GKPSTAB_OUTDIR", str(tmp_path / "envout"))
    assert main(["kappa", "--epsilons", "0.1", "--prefix", "k"]) == EXIT_OK
    assert (tmp_path / "envout" / "k.csv").exists()


@pytest.mark.slow
def test_lyapunov_command_deterministic(tmp_path):
    args = ["lyapunov", "--epsilon", "0.14", "--trials", "2", "--seed", "7",
            "--outdir", str(tmp_path)]
    assert main(args + ["--prefix", "r1"]) == EXIT_OK
    assert main(args + ["--prefix", "r2"]) == EXIT_OK

    # the payload holds no clock: the envelope's runtime_s is the run's only one
    p1 = read_json(tmp_path / "r1.json")["payload"]
    p2 = read_json(tmp_path / "r2.json")["payload"]
    assert p1 == p2
    t1 = (tmp_path / "r1_trials.csv").read_text()
    t2 = (tmp_path / "r2_trials.csv").read_text()
    assert t1 == t2
    assert p1["passed"] is True
    header, *rows = t1.strip().splitlines()
    assert header == ("seed,initial_TrW,fitted_rate,n_fit_points,degenerate,"
                      "n_accept,n_reject,n_jumps,blocks")
    assert len(rows) == 2
    for row, trial in zip(rows, p1["trials"]):
        assert row.split(",")[-1] == "4" and trial["blocks"] == 4
        assert trial["n_accept"] > 0 and trial["n_jumps"] > 0


@pytest.mark.slow
def test_qec_sim_no_loss_steady(tmp_path):
    assert main(["qec-sim", "--epsilon", "0.14", "--kappa1", "0.0",
                 "--records", "9", "--outdir", str(tmp_path),
                 "--prefix", "q"]) == EXIT_OK
    env = read_json(tmp_path / "q.json")
    assert env["payload"]["on_rate"] == 0.0
    lines = (tmp_path / "q_on.csv").read_text().strip().splitlines()
    assert lines[0] == "t,trace,TrW,jx,jy,jz,nbar"
    jz = [float(r.split(",")[5]) for r in lines[1:]]
    assert max(abs(v - 1.0) for v in jz) <= 1e-5
    assert not (tmp_path / "q_off.csv").exists()


@pytest.mark.slow
def test_logical_ops_command(tmp_path):
    assert main(["logical-ops", "--epsilon", "0.14", "--outdir", str(tmp_path),
                 "--save-operators"]) == EXIT_OK
    env = read_json(tmp_path / "logical_ops.json")
    for name in ("jx", "jy", "jz"):
        assert env["payload"]["spectra"][name]["max"] <= 1.0 + 1e-6
        assert env["payload"]["spectra"][name]["min"] >= -1.0 - 1e-6
    with np.load(tmp_path / "logical_ops.npz") as data:
        assert data["jz"].shape == (143, 143)


# every parameter a subcommand registers, set away from its default: some by
# flag, the rest by config (outdir always by config); the echo must hold
# exactly these, as the run used them (floats as 17-digit text)
ECHO_CASES = {
    "kappa-list": (
        ["kappa", "--epsilons", "0.1,0.2", "--prefix", "k"], "[run]\neta = sensor\n",
        {"eta": format_float(ETA_SENSOR), "epsilons": "0.1,0.2", "epsilon_range": None}),
    "kappa-range": (
        ["kappa", "--epsilon-range", "0.1:0.2:3", "--prefix", "k"], "[run]\neta = 2.5\n",
        {"eta": format_float(2.5), "epsilons": None, "epsilon_range": "0.1:0.2:3"}),
    "codewords": (
        ["codewords", "--epsilon", "0.2", "--prefix", "cw"],
        "[run]\neta = sensor\ndim = 60\n",
        {"epsilon": format_float(0.2), "eta": format_float(ETA_SENSOR), "dim": 60}),
    "lyapunov": (
        ["lyapunov", "--epsilon", "0.15", "--dim", "20", "--trials", "1",
         "--long-running", "--prefix", "ly"],
        "[run]\neta = sensor\nseed = 3\n",
        {"epsilon": format_float(0.15), "eta": format_float(ETA_SENSOR), "dim": 20,
         "seed": 3, "trials": 1, "long_running": True}),
    "qec-sim": (
        ["qec-sim", "--epsilon", "0.15", "--dim", "40", "--records", "3",
         "--long-running", "--prefix", "q"],
        "[run]\nkappa1 = 0.02\n",
        {"epsilon": format_float(0.15), "dim": 40, "kappa1": format_float(0.02), "records": 3,
         "long_running": True}),
    "check": (
        ["check", "--epsilon", "0.15", "--prefix", "c"], "[run]\neta = sensor\ndim = 60\n",
        {"epsilon": format_float(0.15), "eta": format_float(ETA_SENSOR), "dim": 60}),
    "logical-ops": (
        ["logical-ops", "--epsilon", "0.15", "--save-operators", "--prefix", "lo"],
        "[run]\ndim = 40\n",
        {"epsilon": format_float(0.15), "dim": 40, "save_operators": True}),
}


# the short runs stop before the adjoint march converges; only the echo counts
@pytest.mark.filterwarnings("ignore::gkpstab.ConvergenceWarning")
@pytest.mark.parametrize("case", list(ECHO_CASES))
def test_envelope_echoes_every_resolved_parameter(case, tmp_path, capsys):
    argv, config, expected = ECHO_CASES[case]
    cfg = tmp_path / "run.ini"
    cfg.write_text(config + f"[output]\noutdir = {tmp_path}\n")
    assert main(argv + ["--config", str(cfg)]) in (EXIT_OK, EXIT_VERIFY)
    prefix = argv[argv.index("--prefix") + 1]
    env = read_json(tmp_path / f"{prefix}.json")
    assert env["command"] == argv[0]
    assert env["config_echo"]["resolved"] == {**expected, "outdir": str(tmp_path),
                                              "prefix": prefix}
    if argv[0] == "qec-sim":
        # the report's fields declared as numbers, no array or trajectory
        scalars = {f.name for f in dataclasses.fields(ErrorRateReport) if f.type in (int, float)}
        assert set(env["payload"]) == scalars


def test_echo_leaves_rule_derived_dim_to_the_payload(tmp_path):
    assert main(["check", "--epsilon", "0.2", "--outdir", str(tmp_path)]) == EXIT_OK
    env = read_json(tmp_path / "check.json")
    assert env["config_echo"]["resolved"]["dim"] is None
    assert env["payload"]["dim"] == 100


@pytest.mark.filterwarnings("ignore::gkpstab.ConvergenceWarning")
def test_logical_ops_builds_through_module_globals(tmp_path, monkeypatch, capsys):
    # perfbench/workloads.py::cli_round times the set-up by wrapping these two
    # cli attributes and takes it out of solve_s; each must run exactly once
    calls = {}

    def counting(name, fn):
        def call(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return call

    for name in ("build_code", "stabilizer_model"):
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    monkeypatch.setattr(lindblad, "STATIONARY_HORIZON", 2.0)
    assert main(["logical-ops", "--epsilon", "0.14", "--dim", "60",
                 "--outdir", str(tmp_path)]) == EXIT_OK
    assert calls == {"build_code": 1, "stabilizer_model": 1}
