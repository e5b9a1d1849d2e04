import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from bb84_mismatch import keyrate_balanced, mismatch_penalty_ratio
from bb84_mismatch.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(out):
    values = {}
    for line in out.splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def parse_csv(out):
    rows = [line for line in out.splitlines() if line and not line.startswith("#")]
    header = rows[0].split(",")
    data = [[float(x) if x != "nan" else math.nan for x in row.split(",")] for row in rows[1:]]
    return header, data


def test_rate_perfect_setup(capsys):
    code, out, _ = run(capsys, "rate", "--qz", "0", "--qx", "0", "--eta", "1", "--t", "1")
    assert code == 0
    report = parse_report(out)
    assert float(report["K"]) == 1.0
    assert report["feasible"] == "true"


def test_rate_matches_library(capsys):
    code, out, _ = run(capsys, "rate", "--qz", "0.05", "--qx", "0.05", "--eta", "0.7")
    assert code == 0
    report = parse_report(out)
    expected = keyrate_balanced(0.05, 0.05, 0.7).rate
    assert math.isclose(float(report["K"]), expected, rel_tol=1e-10)


def test_rate_negative_reports_zero_operational(capsys):
    code, out, _ = run(capsys, "rate", "--qz", "0.3", "--qx", "0.3", "--eta", "0.5")
    assert code == 0
    report = parse_report(out)
    assert float(report["K"]) < 0.0
    assert float(report["operational_rate"]) == 0.0


def test_rate_two_detector_scaling(capsys):
    code, out, _ = run(capsys, "rate", "--qz", "0.02", "--qx", "0.02", "--eta0", "0.1", "--eta1", "0.07")
    assert code == 0
    report = parse_report(out)
    expected = 0.1 * keyrate_balanced(0.02, 0.02, 0.7).rate
    assert math.isclose(float(report["K"]), expected, rel_tol=1e-10)


def test_rate_infeasible_exit_code(capsys):
    # Zero x-error with an unbalanced pass rate admits no state.
    code, out, _ = run(
        capsys, "rate", "--qz", "0.05", "--qx", "0", "--eta", "0.5", "--t", "1", "--p-pass", "0.8"
    )
    assert code == 2


def test_rate_infeasible_above_half_x_error_reports(capsys):
    # 2*q_x = 1.8 exceeds 1 + sqrt(1 - delta^2) = 1.6 at delta = 0.8.
    code, out, err = run(
        capsys, "rate", "--qz", "0.02", "--qx", "0.9", "--eta", "0.6", "--t", "0.75", "--p-pass", "0.72"
    )
    assert code == 2 and err == ""
    report = parse_report(out)
    assert report["feasible"] == "false"
    assert report["K"] == "nan" and report["operational_rate"] == "0"


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "rate")[0] == 1
    assert run(capsys, "rate", "--bogus", "1")[0] == 1
    assert run(capsys, "sweep", "--variable", "eta")[0] == 1
    assert run(capsys, "rate", "--qz", "0.05", "--qx", "0.05", "--eta", "1.5")[0] == 1


def test_inconsistent_observations_exit_two(capsys):
    # eta = 1 forces p_pass = t; anything else is an impossible observation.
    code, _, _ = run(
        capsys, "rate", "--qz", "0.05", "--qx", "0.05", "--eta", "1", "--t", "1",
        "--p-pass", "0.9",
    )
    assert code == 2


def test_sweep_deterministic_output(capsys):
    argv = (
        "sweep", "--variable", "eta", "--start", "0.1", "--stop", "1.0",
        "--steps", "7", "--qz", "0.05", "--qx", "0.05",
        "--methods", "balanced,fung1,fung2",
    )
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_rows_format_as_fmt_does():
    # One "%.12g" % row call per CSV row must print each value as _fmt does:
    # the edge values, a None rate (a missing value) and 1,800 random floats.
    from bb84_mismatch.cli import _fmt, _rows

    rng = np.random.default_rng(21)
    edges = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max, math.nan, math.inf, -math.inf]
    values = [*edges, 0.25, None, -3.5, *(rng.standard_normal(1800) * 10.0 ** rng.uniform(-300, 300, 1800)).tolist()]
    table = [values[i : i + 3] for i in range(0, len(values), 3)]
    xs, rates = [row[0] for row in table], [row[1:] for row in table]
    assert _rows(xs, rates) == [",".join(map(_fmt, row)) for row in table]


def test_sweep_degenerate_two_rows(capsys):
    code, out, _ = run(
        capsys, "sweep", "--variable", "eta", "--start", "0.5", "--stop", "1.0",
        "--steps", "2", "--qz", "0", "--qx", "0", "--methods", "balanced",
    )
    assert code == 0
    header, data = parse_csv(out)
    assert header == ["eta", "balanced"]
    assert len(data) == 2


def test_sweep_balanced_dominates_fung1(capsys):
    code, out, _ = run(
        capsys, "sweep", "--variable", "eta", "--start", "0.05", "--stop", "1.0",
        "--steps", "20", "--qz", "0.05", "--qx", "0.05",
        "--methods", "balanced,fung1,fung2",
    )
    assert code == 0
    header, data = parse_csv(out)
    b, f1 = header.index("balanced"), header.index("fung1")
    for row in data:
        assert row[b] >= row[f1] - 1e-12


def test_sweep_ratio_mode(capsys):
    code, out, _ = run(
        capsys, "sweep", "--variable", "eta", "--start", "0.7", "--stop", "1.0",
        "--steps", "4", "--qz", "0.09", "--qx", "0.09", "--methods", "penalty_ratio",
    )
    assert code == 0
    _, data = parse_csv(out)
    assert data[0][1] > 0.9
    assert math.isclose(data[0][1], mismatch_penalty_ratio(0.09, 0.7), rel_tol=1e-10)


def test_sweep_ratio_ignores_common_loss(capsys):
    # A ratio of two rates cancels the common-loss factor max(eta0, eta1), and
    # an eta sweep overrides the mismatch, so the detector pair changes nothing.
    argv = ["sweep", "--variable", "eta", "--start", "0.7", "--stop", "1", "--steps", "2",
            "--qz", "0.09", "--qx", "0.09", "--methods", "penalty_ratio"]
    code, plain, _ = run(capsys, *argv)
    assert code == 0 and plain.splitlines()[-1] == "1,1"
    code, paired, _ = run(capsys, *argv, "--eta0", "0.9", "--eta1", "0.5")
    assert code == 0 and paired == plain


@pytest.mark.parametrize(
    "argv,fixed",
    [
        (["--variable", "eta", "--qz", "0.1", "--qx", "0.2", "--methods", "balanced,fung1"],
         "f_ec=1 q_x=0.2 q_z=0.1 t=1"),
        (["--variable", "eta", "--qz", "0.1", "--qx", "0.2", "--methods", "fung2"],
         "q_x=0.2 q_z=0.1 t=1"),
        (["--variable", "q", "--eta", "0.5", "--methods", "penalty_ratio"], "eta=0.5"),
        (["--variable", "q", "--eta", "0.5", "--methods", "discard_optimized"],
         "eta=0.5 f_ec=1 t=1"),
    ],
    ids=["eta_balanced_fung1", "eta_fung2", "q_penalty_ratio", "q_discard"],
)
def test_sweep_header_lists_only_read_fixed_parameters(capsys, argv, fixed):
    code, out, _ = run(capsys, "sweep", "--start", "0.1", "--stop", "0.2", "--steps", "2", *argv)
    assert code == 0
    assert out.splitlines()[1].split("fixed: ")[1] == fixed


def test_sweep_rejects_bad_method_combinations(capsys):
    code, _, err = run(
        capsys, "sweep", "--variable", "eta", "--start", "0.1", "--stop", "1.0",
        "--steps", "3", "--methods", "decoy",
    )
    assert code == 1
    assert "distance" in err


def test_decoy_sim_dominance_and_columns(capsys):
    code, out, _ = run(capsys, "decoy-sim", "--l-min", "0", "--l-max", "100", "--l-steps", "5")
    assert code == 0
    header, data = parse_csv(out)
    assert header == ["distance_km", "decoy", "theoretical_limit", "no_mismatch_limit"]
    for row in data:
        assert row[1] <= row[2] + 1e-10
        assert row[2] <= row[3] + 1e-10


def test_decoy_sim_matched_detectors_coincide(capsys):
    code, out, _ = run(
        capsys, "decoy-sim", "--eta0", "0.085", "--eta1", "0.085",
        "--l-min", "0", "--l-max", "60", "--l-steps", "3",
    )
    assert code == 0
    _, data = parse_csv(out)
    for row in data:
        assert abs(row[2] - row[3]) <= 1e-10


def test_decoy_sim_relabels_swapped_detectors(capsys):
    # eta0 < eta1 names the less efficient detector 0; the run relabels the
    # outcomes and prints the rows of the run with the flags swapped back.
    code, out, err = run(
        capsys, "decoy-sim", "--eta0", "0.07", "--eta1", "0.1", "--l-min", "0", "--l-max", "120",
        "--l-steps", "25",
    )
    assert code == 0 and err == ""
    golden = (GOLDEN / "decoy_sim_0_120_25.csv").read_text().splitlines()
    lines = out.splitlines()
    assert lines[2:] == golden[2:]
    # The header repeats the flags as given.
    assert "eta0=0.07 eta1=0.1 " in lines[1]
    assert lines[1].replace("eta0=0.07 eta1=0.1", "eta0=0.1 eta1=0.07") == golden[1]


def test_verify_passes_on_default_grid(capsys):
    # At eta = 1 the KKT check runs on a state with delta = 0, the only
    # imbalance consistent with eta = 1.
    for eta in ("0.6", "1"):
        code, out, _ = run(capsys, "verify", "--grid-density", "1", "--eta", eta)
        assert code == 0
        assert "analytic_vs_numeric" in out
        assert "FAIL" not in out


@pytest.mark.parametrize("eta", ["0.99999", "0.999999", "0.999999999"])
def test_verify_passes_near_eta_one(capsys, eta):
    # Gamma_1 and Gamma_3 nearly coincide here, with a condition number of
    # about 4/(1 - eta); the solve and the KKT residual run on the constant
    # operators (I, (I - J)/2, G0), which do not.
    code, out, _ = run(capsys, "verify", "--eta", eta)
    assert code == 0
    assert "FAIL" not in out


def test_verify_kkt_stays_at_rounding_level_and_prints_the_gap_of_f_below_the_closed_form(capsys):
    # At 1 - eta = 1e-12 the closed form's imbalance rounds 1 + eta, so f*
    # falls 8.3e-6 below it at delta = 0.05 (and lies 8.3e-6 above it at
    # -0.05): the check fails, printing the largest gap; the KKT residual
    # stays at rounding level.
    code, out, _ = run(capsys, "verify", "--eta", "0.999999999999")
    assert code == 3
    lines = dict(line.split(": max discrepancy ") for line in out.splitlines() if ": max discrepancy " in line)
    assert lines["analytic_vs_numeric"] == "8.33961639357e-06 [FAIL]"
    assert "verification failed: analytic_vs_numeric" in out
    kkt, verdict = lines["kkt_orthogonality"].split()
    assert float(kkt) < 1e-12 and verdict == "[pass]"


def test_rate_reads_an_entropy_argument_rounded_above_one_as_one(capsys):
    code, out, _ = run(capsys, "rate", "--qz", "0.02", "--qx", "0.5", "--eta", "0.019022432350671914",
                       "--t", "0.8802329510773045", "--p-pass", "0.8802329510773039")
    assert code == 0
    report = parse_report(out)
    assert (report["K"], report["delta"], report["lambda"]) == ("-0.124500626164", "1", "0")


def test_verify_perturbation_detection(capsys):
    code, out, _ = run(
        capsys, "verify", "--grid-density", "1", "--eta", "0.6", "--perturb", "0.01"
    )
    assert code == 0
    assert "kkt_perturbation_detected" in out


def test_verify_failure_exit_code(capsys, monkeypatch):
    # Exit-code plumbing: a failing check must exit 3 and be named.
    import bb84_mismatch.cli as cli

    monkeypatch.setattr(cli, "error_correction_leak", lambda rho, eta: 1.0)
    code, out, _ = run(capsys, "verify", "--grid-density", "1", "--eta", "0.6")
    assert code == 3
    assert "verification failed: error_correction_leak" in out


def test_config_file_with_flag_override(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("qz = 0.05\nqx = 0.05\neta = 0.7\n")
    code, out, _ = run(capsys, "rate", "--config", str(config))
    assert code == 0
    base = parse_report(out)
    assert math.isclose(float(base["K"]), keyrate_balanced(0.05, 0.05, 0.7).rate, rel_tol=1e-10)

    # Flag wins over the file value.
    code, out, _ = run(capsys, "rate", "--config", str(config), "--eta", "0.5")
    assert code == 0
    overridden = parse_report(out)
    assert math.isclose(
        float(overridden["K"]), keyrate_balanced(0.05, 0.05, 0.5).rate, rel_tol=1e-10
    )


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "rates.csv"
    code, out, _ = run(
        capsys, "sweep", "--variable", "eta", "--start", "0.5", "--stop", "1.0",
        "--steps", "3", "--qz", "0", "--qx", "0", "--methods", "balanced",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("#")


def test_malformed_config_exits_one(capsys, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("qz 0.05\n")
    assert run(capsys, "rate", "--config", str(config))[0] == 1


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name,argv",
    [
        ("decoy_sim_0_120_25.csv", ["decoy-sim", "--l-min", "0", "--l-max", "120", "--l-steps", "25"]),
        (
            "sweep_distance_decoy_limit.csv",
            ["sweep", "--variable", "distance_km", "--start", "0", "--stop", "120", "--steps", "13",
             "--methods", "decoy,theoretical_limit"],
        ),
        ("rate_qz005_eta07.txt", ["rate", "--qz", "0.05", "--qx", "0.05", "--eta", "0.7"]),
        (
            "rate_qz002_eta0_01_eta1_007.txt",
            ["rate", "--qz", "0.02", "--qx", "0.02", "--eta0", "0.1", "--eta1", "0.07"],
        ),
        (
            "sweep_eta_four_methods.csv",
            ["sweep", "--variable", "eta", "--start", "0.02", "--stop", "1.0", "--steps", "99",
             "--qz", "0.05", "--qx", "0.05", "--methods", "balanced,discard_optimized,fung1,fung2"],
        ),
        (
            "sweep_eta_penalty_ratio.csv",
            ["sweep", "--variable", "eta", "--start", "0.5", "--stop", "1.0", "--steps", "51",
             "--qz", "0.09", "--qx", "0.09", "--methods", "penalty_ratio"],
        ),
        (
            "sweep_q_all_methods.csv",
            ["sweep", "--variable", "q", "--start", "0", "--stop", "0.2", "--steps", "41", "--eta", "0.6",
             "--p-pass", "0.8", "--methods", "balanced,discard_optimized,fung1,fung2,general,penalty_ratio"],
        ),
    ],
)
def test_decoy_outputs_match_golden_bytes(capsys, name, argv):
    # The decoy cases were captured from the scalar-loop implementation of the
    # decoy path, the rate and eta/q sweep cases from the implementation with
    # separate dispatchers and golden-section searches in keyrates and cli.
    # Refactors of either must print the same bytes.
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("f_ec", ["nan", "inf", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["rate", "--qz", "0.05", "--qx", "0.05"],
        ["rate", "--qz", "0.05", "--qx", "0.05", "--p-pass", "0.9"],
        ["sweep", "--variable", "eta", "--start", "0.5", "--stop", "1", "--steps", "3", "--qz", "0.05",
         "--qx", "0.05", "--methods", "balanced,discard_optimized"],
        ["sweep", "--variable", "distance_km", "--start", "0", "--stop", "50", "--steps", "2",
         "--methods", "decoy"],
        ["decoy-sim", "--l-steps", "2"],
    ],
)
def test_bad_f_ec_exits_one(capsys, argv, f_ec):
    code, out, err = run(capsys, *argv, f"--f-ec={f_ec}")
    assert code == 1
    assert out == ""
    assert "f_ec" in err


def test_zero_f_ec_accepted(capsys):
    code, out, _ = run(capsys, "rate", "--qz", "0.05", "--qx", "0.05", "--f-ec", "0")
    assert code == 0
    assert float(parse_report(out)["K"]) > keyrate_balanced(0.05, 0.05, 1.0).rate


@pytest.mark.parametrize(
    "pair,flag",
    [(("0.5", "nan"), "--eta1"), (("0.5", "1.5"), "--eta1"), (("-0.5", "-1"), "--eta0"), (("0", "0.5"), "--eta0")],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["rate", "--qz", "0.05", "--qx", "0.05"],
        ["sweep", "--variable", "q", "--start", "0", "--stop", "0.1", "--steps", "2", "--methods", "balanced"],
        ["decoy-sim", "--l-steps", "2"],
    ],
)
def test_bad_detector_efficiency_exits_one(capsys, argv, pair, flag):
    code, out, err = run(capsys, *argv, "--eta0", pair[0], "--eta1", pair[1])
    assert code == 1
    assert out == ""
    assert f"{flag} = " in err


@pytest.mark.parametrize(
    "flag,value",
    [("--qz", "nan"), ("--qx", "-0.1"), ("--eta", "nan"), ("--t", "1.5"), ("--p-pass", "nan")],
)
def test_sweep_rejects_out_of_range_fixed_flags(capsys, flag, value):
    code, out, err = run(
        capsys, "sweep", "--variable", "eta", "--start", "0.5", "--stop", "1", "--steps", "2",
        "--qz", "0.05", "--qx", "0.05", "--methods", "balanced", flag, value,
    )
    assert code == 1
    assert out == ""
    assert f"{flag} = {value}" in err


FLAG_SETS = {
    "rate": ["eta", "eta0", "eta1", "qz", "qx", "t", "p-pass", "f-ec", "out", "config"],
    "sweep": ["eta", "eta0", "eta1", "qz", "qx", "t", "p-pass", "f-ec", "out", "config",
              "variable", "start", "stop", "steps", "methods",
              "mu", "nu1", "nu2", "alpha-db-km", "bob-loss-db", "e-det", "dark0", "dark1"],
    "decoy-sim": ["eta0", "eta1", "f-ec", "out", "config",
                  "mu", "nu1", "nu2", "alpha-db-km", "bob-loss-db", "e-det", "dark0", "dark1",
                  "l-min", "l-max", "l-steps"],
    "verify": ["eta", "grid-density", "perturb", "out", "config"],
}


def test_each_subcommand_registers_only_the_flags_it_reads(capsys):
    for command, flags in FLAG_SETS.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert re.findall(r"\[--([a-z0-9-]+)", usage) == flags, command
    assert sum(map(len, FLAG_SETS.values())) == 54


@pytest.mark.parametrize(
    "argv",
    [
        ["decoy-sim", "--l-steps", "2", "--eta", "0.5"],
        ["decoy-sim", "--l-steps", "2", "--eta", "nan", "--qz", "7"],
        ["verify", "--qz", "0.1"],
        ["verify", "--qz", "nan", "--f-ec", "-1"],
        ["sweep", "--variable", "eta", "--start", "0.5", "--stop", "1", "--steps", "2", "--methods", "balanced",
         "--l-max", "50"],
        ["rate", "--qz", "0.05", "--qx", "0.05", "--mu", "0.5"],
        # Flags are spelt in full: no abbreviations.
        ["rate", "--qz", "0.05", "--qx", "0.05", "--p-pa", "0.9"],
    ],
    ids=["decoy_eta", "decoy_eta_nan_qz", "verify_qz", "verify_qz_f_ec", "sweep_l_max", "rate_mu", "rate_abbrev"],
)
def test_unread_flag_exits_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --" in err


@pytest.mark.parametrize(
    "command,line,message",
    [
        (["sweep", "--variable", "eta", "--start", "0.5", "--stop", "1", "--steps", "2", "--qz", "0.05",
          "--methods", "balanced"], "q_x = 0.05", "unrecognized arguments: --q_x=0.05"),
        (["decoy-sim"], "l-steps = 2.5", "argument --l-steps: invalid int value: '2.5'"),
        (["sweep", "--start", "0", "--stop", "1", "--steps", "2", "--methods", "balanced"], "variable = time",
         "argument --variable: invalid choice: 'time'"),
        (["sweep", "--variable", "eta", "--start", "0.5", "--stop", "1", "--steps", "2", "--methods", "balanced"],
         "l-max = 50", "unrecognized arguments: --l-max=50"),
    ],
    ids=["misspelt_key", "non_integer_steps", "bad_choice", "unread_key"],
)
def test_config_entries_parse_as_flags(capsys, tmp_path, command, line, message):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    code, out, err = run(capsys, *command, "--config", str(config))
    assert code == 1
    assert out == ""
    assert message in err


def test_config_skips_blank_and_comment_lines_and_names_an_unreadable_file(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("# a comment\n\nqz = 0.05  # trailing\n   \nqx = 0.05\n")
    assert run(capsys, "rate", "--config", str(config)) == run(capsys, "rate", "--qz", "0.05", "--qx", "0.05")
    code, out, err = run(capsys, "rate", "--config", str(tmp_path / "missing.cfg"))
    assert (code, out) == (1, "") and "cannot read config file" in err


_SWEEP = ["sweep", "--start", "0.5", "--stop", "1", "--steps", "2"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["rate", "--qz", "0.05", "--qx", "0.05", "--eta0", "0.9"], "--eta0 and --eta1 must be given together"),
        ([*_SWEEP, "--methods", "balanced"], "sweep requires --variable"),
        ([*_SWEEP, "--variable", "eta", "--methods", " , "], "sweep requires at least one method"),
        ([*_SWEEP, "--variable", "eta", "--methods", "balanced,best"], "unknown methods: best"),
        (["sweep", "--variable", "distance_km", "--start", "0", "--stop", "10", "--steps", "2", "--methods",
          "decoy,balanced"], "methods ['balanced'] not valid for a distance sweep"),
    ],
    ids=["eta0_alone", "no_variable", "no_method", "unknown_method", "rate_over_distance"],
)
def test_sweep_and_detector_usage_errors_exit_one(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("value", ["1", "100001", "1000000000000000"])
@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize(
    "command, flag",
    [(["sweep", "--variable", "eta", "--start", "0.1", "--stop", "1", "--methods", "balanced"], "steps"),
     (["decoy-sim"], "l-steps")],
    ids=["sweep", "decoy_sim"],
)
def test_step_counts_outside_two_to_a_hundred_thousand_exit_one(
    capsys, tmp_path, monkeypatch, command, flag, via_config, value
):
    # A huge count once ended in numpy's memory-error traceback; the check
    # comes before any grid is allocated.
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was allocated")

    monkeypatch.setattr(np, "linspace", no_grid)
    if via_config:
        config = tmp_path / "run.cfg"
        config.write_text(f"{flag} = {value}\n")
        argv = [*command, "--config", str(config)]
    else:
        argv = [*command, f"--{flag}", value]
    assert run(capsys, *argv) == (1, "", f"error: --{flag} = {value} outside [2, 100000]\n")


def test_config_file_sweep_matches_flags(capsys, tmp_path):
    argv = ["--variable", "q", "--start", "0", "--stop", "0.2", "--steps", "3", "--eta0", "0.9", "--eta1", "0.5",
            "--methods", "balanced,penalty_ratio"]
    config = tmp_path / "run.cfg"
    config.write_text("".join(f"{k[2:]} = {v}\n" for k, v in zip(argv[::2], argv[1::2])))
    code, from_flags, _ = run(capsys, "sweep", *argv)
    assert code == 0
    assert run(capsys, "sweep", "--config", str(config)) == (0, from_flags, "")


@pytest.mark.parametrize(
    "argv,flag,value",
    [
        (["sweep", "--variable", "eta", "--start", "0.1", "--stop", "inf", "--steps", "3", "--methods", "balanced",
          "--qz", "0.05", "--qx", "0.05"], "--stop", "inf"),
        (["sweep", "--variable", "q", "--start", "nan", "--stop", "0.1", "--steps", "3", "--methods", "balanced"],
         "--start", "nan"),
        (["sweep", "--variable", "distance_km", "--start=-1e308", "--stop", "1e308", "--steps", "3",
          "--methods", "decoy"], "--start", "-1e+308"),
        (["decoy-sim", "--l-max", "inf"], "--l-max", "inf"),
        (["decoy-sim", "--l-min", "nan", "--l-steps", "2"], "--l-min", "nan"),
    ],
    ids=["sweep_stop_inf", "sweep_start_nan", "sweep_span_overflows", "decoy_l_max_inf", "decoy_l_min_nan"],
)
def test_non_finite_range_endpoint_exits_one(capsys, argv, flag, value):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"{flag} = {value} outside" in err


def test_out_of_domain_sweep_endpoints_exit_one(capsys):
    # These sweeps once printed nan rows with exit 0: a swept eta must lie in
    # (0, 1] and a swept q in [0, 1].
    for variable, start, stop, flag in (
        ("eta", "-0.5", "1", "--start"), ("eta", "0.5", "2", "--stop"), ("q", "0", "1.5", "--stop"),
    ):
        code, out, err = run(
            capsys, "sweep", "--variable", variable, "--start", start, "--stop", stop, "--steps", "4",
            "--qz", "0.05", "--qx", "0.05", "--methods", "balanced",
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {flag} = {float(start if flag == '--start' else stop)} outside")


def test_subnormal_mismatch_exits_one(capsys):
    code, out, err = run(capsys, "decoy-sim", "--l-steps", "2", "--eta1", "1e-320", "--bob-loss-db", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("error: eta = ")


@pytest.mark.filterwarnings("error")
def test_subnormal_outcome_gains_give_no_rate(capsys):
    # A gain below the normal range carries a few significant bits at most:
    # the Fung et al. columns printed +-5e-324 and -0 here with exit 0, and a
    # mismatch of 1e-320 printed a subnormal discard_optimized cell.
    from bb84_mismatch import keyrate_discard_optimized, keyrate_fung1, keyrate_fung2, keyrate_general

    code, out, err = run(
        capsys, "sweep", "--variable", "q", "--start", "0", "--stop", "0.3", "--steps", "4", "--eta", "0.7",
        "--t", "5e-324", "--methods", "balanced,fung1,fung2",
    )
    assert (code, err) == (0, "")
    _, data = parse_csv(out)
    assert all(math.isnan(v) for row in data for v in row[1:])
    code, out, _ = run(
        capsys, "sweep", "--variable", "eta", "--start", "1e-320", "--stop", "1", "--steps", "3",
        "--methods", "discard_optimized,fung1,fung2",
    )
    _, data = parse_csv(out)
    assert code == 0 and all(math.isnan(v) for v in data[0][1:]) and not any(math.isnan(v) for v in data[1])
    code, out, err = run(capsys, "rate", "--qz", "0", "--qx", "0", "--eta", "0.7", "--t", "5e-324")
    assert (code, out) == (2, "") and err.startswith("infeasible: ")
    for call in (lambda: keyrate_fung1(0.0, 0.0, 0.7, 5e-324), lambda: keyrate_fung2(0.0, 0.0, 1e-320, 0.5),
                 lambda: keyrate_discard_optimized(0.0, 0.0, 1e-320), lambda: mismatch_penalty_ratio(0.0, 1e-320)):
        with pytest.raises(ValueError, match="outcome gain"):
            call()
    # The general rate's gains t*(1+delta)/2 = 5e-321 and 2.5e-321 printed K = 2.78158958609e-321 with exit 0.
    point = ["--qz", "0.05", "--qx", "0.05", "--eta", "0.5", "--t", "1e-320", "--p-pass", "0.75e-320"]
    code, out, err = run(capsys, "rate", *point)
    assert (code, out) == (2, "")
    assert err == "infeasible: outcome gain t*(1+delta)/2 = 5e-321 outside [2.22507e-308, 1]\n"
    code, out, err = run(capsys, "sweep", "--variable", "q", "--start", "0.05", "--stop", "0.1", "--steps", "2",
                         *point[4:], "--methods", "general")
    _, data = parse_csv(out)
    assert (code, err) == (0, "") and all(math.isnan(row[1]) for row in data)
    # At t = 1e-300 the second gain p_pass - a is 1.0e-310 here.
    with pytest.raises(ValueError, match=r"outcome gain p_pass - t\*\(1\+delta\)/2 = 1\.00000212115687e-310 outside"):
        keyrate_general(0.05, 0.5, 0.5, 1e-300, 1e-300 - 1e-310)
    # An exact zero gain (delta = 1, so p_pass - a = 0) keeps its rate, -h(q_z).
    assert keyrate_general(0.05, 0.5, 0.5, 1.0, 1.0).rate == -0.28639695711595625


@pytest.mark.filterwarnings("error")
def test_subnormal_decoy_intensity_exits_one(capsys):
    # mu*nu1 - nu1^2 is 5e-321 here: it passed the > 0 test, the Q_1 bound's
    # prefactor overflowed to inf and every decoy row printed nan with exit 0.
    code, out, err = run(capsys, "decoy-sim", "--l-steps", "3", "--nu1", "1e-320")
    assert (code, out) == (1, "")
    assert err.startswith("error: degenerate decoy intensities: ")


@pytest.mark.parametrize("value", ["nan", "inf", "1e300", "-1.5"])
def test_verify_checks_perturb_before_any_check_runs(capsys, monkeypatch, value):
    import bb84_mismatch.cli as cli

    def no_checks(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "_verify_checks", no_checks)
    code, out, err = run(capsys, "verify", "--grid-density", "1", f"--perturb={value}")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: --perturb = {float(value)} outside [-1, 1]")


def test_unwritable_out_path_exits_one(capsys, tmp_path):
    path = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "rate", "--qz", "0.05", "--qx", "0.05", "--out", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write output file {path}: ")


def test_parser_is_built_once_and_calls_match_fresh_parsers(capsys, tmp_path, monkeypatch):
    import bb84_mismatch.cli as cli

    config = tmp_path / "run.cfg"
    config.write_text("qz = 0.05\nqx = 0.05\neta = 0.7\n")
    calls = [
        ["rate", "--qz", "0.05", "--qx", "0.05", "--eta", "0.7"],
        ["sweep", "--variable", "eta", "--start", "0.5", "--stop", "1.0", "--steps", "3", "--methods", "balanced"],
        ["decoy-sim", "--l-steps", "3"],
        ["verify", "--grid-density", "1", "--eta", "0.6"],
        ["rate", "--config", str(config), "--eta", "0.5"],
        ["rate", "--qz", "0.05", "--qx", "0.05", "--mu", "0.5"],
        ["rate", "--qz", "0.05", "--qx", "0.6", "--eta", "0.7", "--p-pass", "0.5"],
        ["sweep", "--variable", "distance_km", "--start", "0", "--stop", "60", "--steps", "3",
         "--methods", "decoy,theoretical_limit"],
    ]
    alone = []
    for argv in calls:
        cli._parser.cache_clear()
        alone.append(run(capsys, *argv))
    assert [code for code, _, _ in alone] == [0, 0, 0, 0, 0, 1, 2, 0]

    registrations = []
    add_argument = cli._Parser.add_argument
    monkeypatch.setattr(
        cli._Parser, "add_argument", lambda self, *a, **k: registrations.append(a) or add_argument(self, *a, **k)
    )
    cli._parser.cache_clear()
    try:
        assert [run(capsys, *argv) for argv in calls] == alone
    finally:
        cli._parser.cache_clear()
    # One parser: 54 flags, --version, and --help on it and its four subparsers.
    assert len(registrations) == 54 + 1 + 5


@pytest.mark.parametrize("value", ["0", "-1", "1001", "1000000000", "1" + "0" * 400])
def test_verify_rejects_grid_density_outside_one_to_a_thousand(capsys, monkeypatch, value):
    import bb84_mismatch.cli as cli

    def no_checks(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "_verify_checks", no_checks)
    assert run(capsys, "verify", "--grid-density", value) == (
        1, "", f"error: --grid-density = {int(value)} outside [1, 1000]\n"
    )


def test_verify_accepts_grid_density_from_one_to_a_thousand(capsys, monkeypatch):
    import bb84_mismatch.cli as cli

    sizes = []
    monkeypatch.setattr(cli, "_verify_checks", lambda etas, qx_grid, deltas, perturb: sizes.append(len(qx_grid)) or [])
    for value in ("1", "1000"):
        assert run(capsys, "verify", "--grid-density", value)[0] == 0
    assert sizes == [1, 1000]


_FAR = ["--dark0", "0", "--dark1", "0", "--eta1", "0.07", "--l-max", "120", "--l-steps", "13"]
_UNDERFLOW = "error: t*(1-eta) underflows to 0 at t = 5e-324, eta = 0.7000000000000001\n"
_VANISHES = "error: yield vanishes for i = 1, beta = 1; error rate undefined\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        # A decoy row's imbalance fails before the far distances' vanishing yields.
        (["decoy-sim", *_FAR, "--bob-loss-db", "3198"], _UNDERFLOW),
        (["decoy-sim", *_FAR, "--bob-loss-db", "3198", "--dark0", "1e-320"], _VANISHES),
        (["decoy-sim", *_FAR, "--bob-loss-db", "3198", "--eta0", "0.07", "--eta1", "0.1", "--dark1", "1e-320"],
         _VANISHES),
        (["sweep", "--variable", "distance_km", "--start", "0", "--stop", "120", "--steps", "13",
          "--methods", "theoretical_limit", "--eta0", "0.1", *_FAR[:6], "--bob-loss-db", "3198"], _VANISHES),
        # The limit row's imbalance, with every yield positive.
        (["sweep", "--variable", "distance_km", "--start", "0", "--stop", "120", "--steps", "13",
          "--methods", "theoretical_limit", "--eta0", "0.1", *_FAR[:6], "--bob-loss-db", "3195"], _UNDERFLOW),
    ],
    ids=["decoy_underflow_first", "vanishing_yield", "vanishing_yield_relabelled", "sweep_vanishing",
         "sweep_underflow"],
)
def test_decoy_errors_at_subnormal_gains_keep_their_order(capsys, argv, err):
    assert run(capsys, *argv) == (1, "", err)


def test_decoy_sim_at_subnormal_gains_prints_no_warning(capsys):
    # The corner test's allowance overflows to inf here, which fails the test
    # as intended; numpy's overflow warning must not reach stderr.
    code, out, err = run(capsys, "decoy-sim", *_FAR[:6], "--l-max", "10", "--l-steps", "13", "--bob-loss-db", "3150")
    assert (code, err) == (0, "")
    _, data = parse_csv(out)
    assert all(math.isfinite(x) for row in data for x in row)
