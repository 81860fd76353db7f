import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import fbrate
import fbrate.rate
from fbrate import ChannelParams, ErRequest, McConfig, er_auto
from fbrate.cli import build_parser, main
from fbrate.crosscheck import db_to_linear

from conftest import FIG1_R_A2, FIG2_J_BY_M, J_RAYLEIGH, R_RAYLEIGH, fresh_env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FIG1_FLAGS = ["--mu", "2", "--m", "1", "--kappa", "1", "--eta", "0.1",
              "--rho2", "0.1"]


class TestErCommand:
    def test_single_point_fig1(self, capsys):
        code, out, _ = run_cli(capsys, "er", *FIG1_FLAGS, "--A", "2",
                               "--snr-db", "0:0:1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "snr_db,vary,rate,j,method,err"
        fields = lines[1].split(",")
        assert float(fields[0]) == 0.0
        assert float(fields[2]) == pytest.approx(FIG1_R_A2, abs=1e-3)
        assert fields[4] == "closed_form"

    def test_rayleigh_preset(self, capsys):
        code, out, _ = run_cli(capsys, "er", "--preset", "rayleigh", "--A", "2",
                               "--snr-db", "0:0:1")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(R_RAYLEIGH, abs=1e-3)
        assert float(row[3]) == pytest.approx(J_RAYLEIGH, abs=1e-5)

    def test_nakagami_preset_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "er", "--preset", "nakagami-m", "--mu", "20",
                               "--A", "2")
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[4] == "closed_form"

    def test_closed_method_rejects_fractional_mu(self, capsys):
        code, out, err = run_cli(capsys, "er", "--mu", "1.5", "--m", "1",
                                 "--kappa", "1", "--eta", "0.1", "--rho2", "0.1",
                                 "--A", "2", "--method", "closed")
        assert code == 3
        assert "even integer mu" in err

    def test_bad_parameter_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "er", "--mu", "0", "--A", "2")
        assert code == 2
        assert "mu" in err

    def test_overflowing_shape_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "er", "--mu", "2", "--kappa", "1e300", "--A", "2")
        assert code == 2
        assert "(2.0, 1.0, 1e+300, 1.0, 1.0)" in err

    def test_overflowing_snr_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "er", "--mu", "2", "--m", "1", "--A", "2",
                                 "--snr-db", "4000")
        assert code == 2
        assert out == "" and err == "error: mean SNR 4000.0 dB is beyond the double range\n"

    def test_underflowing_snr_exits_2(self, capsys):
        # 10^(-400) underflows to 0.0, which must not reach the engines as a mean SNR
        code, out, err = run_cli(capsys, "er", "--mu", "2", "--m", "1", "--A", "2",
                                 "--snr-db", "-4000")
        assert code == 2
        assert out == "" and err == "error: mean SNR -4000.0 dB is beyond the double range\n"

    def test_unit_expectation_prints_rate_0(self, capsys):
        # at -400 dB J rounds to 1, and the rate prints as 0, not -0
        code, out, _ = run_cli(capsys, "er", "--mu", "2", "--m", "1", "--A", "2",
                               "--snr-db", "-400")
        assert code == 0
        assert out.splitlines()[1] == "-400,,0,1,closed_form,1e-09"

    @pytest.mark.parametrize("a, snr_db", [("5", "-200"), ("0.1", "-200:-100:20")])
    def test_quadrature_rounding_above_one_prints_rate_0(self, capsys, a, snr_db):
        # the quadrature rule rounds J to just above 1 here: a J of 1, not exit 2
        code, out, err = run_cli(capsys, "er", "--mu", "1.5", "--m", "1", "--kappa", "1",
                                 "--eta", "0.1", "--rho2", "0.1", "--A", a,
                                 f"--snr-db={snr_db}")
        assert (code, err) == (0, "")
        assert [row.split(",")[3:5] for row in out.splitlines()[1:]] == \
            [["1", "quadrature"]] * (1 if snr_db == "-200" else 6)

    def test_bad_vary_value_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "er", *FIG1_FLAGS, "--A", "2",
                               "--vary", "mu", "--vary-values", "0")
        assert code == 2
        assert "mu out of range" in err

    @pytest.mark.parametrize("flags", [("--mu", "2"),
                                       ("--vary", "mu", "--vary-values", "2")],
                             ids=["flag", "vary"])
    def test_preset_pins_hold_under_vary(self, capsys, flags):
        code, out, err = run_cli(capsys, "er", "--preset", "rayleigh", "--A", "2", *flags)
        assert code == 2
        assert out == "" and "pins mu" in err

    def test_bad_grid_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "er", *FIG1_FLAGS, "--A", "2",
                               "--snr-db", "10:0:1")
        assert code == 2

    @pytest.mark.parametrize("command, flag", [("er", "--snr-db"), ("mgf", "--s"),
                                               ("pdf", "--gamma")])
    @pytest.mark.parametrize("grid", ["0:10:nan", "nan:10:1", "0:inf:1", "-inf:0:1",
                                      "inf", "0:1e300:1e-300"])
    def test_non_finite_grid_exits_2(self, capsys, command, flag, grid):
        a_flags = ("--A", "2") if command == "er" else ()
        code, out, err = run_cli(capsys, command, *FIG1_FLAGS, *a_flags, f"{flag}={grid}")
        assert code == 2
        assert out == "" and err.startswith(f"error: {flag} grid ")

    def test_duplicate_vary_values_keep_their_rows(self, capsys):
        code, out, _ = run_cli(capsys, "er", *FIG1_FLAGS, "--A", "2",
                               "--snr-db=-5:5:10", "--vary", "mu",
                               "--vary-values", "4,2,2")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [(float(r[0]), float(r[1])) for r in rows] == [
            (-5.0, 2.0), (-5.0, 2.0), (-5.0, 4.0), (5.0, 2.0), (5.0, 2.0), (5.0, 4.0)]
        assert rows[0] == rows[1] and rows[3] == rows[4]

    def test_closed_method_runs_no_quadrature(self, capsys, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return quadrature_sweep(*args, **kwargs)

        quadrature_sweep = fbrate.rate.quadrature_sweep
        monkeypatch.setattr(fbrate.rate, "quadrature_sweep", counted)
        args = ("er", *FIG1_FLAGS, "--A", "2", "--snr-db=-10:30:10", "--vary", "mu",
                "--vary-values", "2,4")
        assert run_cli(capsys, *args, "--method", "closed")[0] == 0
        assert calls == []
        assert run_cli(capsys, *args)[0] == 0
        assert len(calls) == 2  # one batch per vary value

    @pytest.mark.parametrize("mu, vary, values", [
        ("2.0", "mu", "1.0,2.0,4.0"),
        ("1.5", "m", "0.5,1.0,3.0"),
    ], ids=["fig-1", "fig-2"])
    def test_figure_sweep_builds_one_channel_per_shape(self, capsys, monkeypatch,
                                                       mu, vary, values):
        # the base channel and one per vary value; mean SNR is no rebuild,
        # for the closed form neither
        args = ("er", "--mu", mu, "--m", "1.0", "--kappa", "1.0", "--eta", "0.1",
                "--rho2", "0.1", "--A", "2.0", "--snr-db=-10.0:30.0:1", "--vary", vary,
                "--vary-values", values, "--format", "jsonl")
        assert run_cli(capsys, *args)[0] == 0  # fills the per-shape expansion cache
        builds = []
        post_init = ChannelParams.__post_init__

        def counted(self):
            builds.append(self)
            post_init(self)

        monkeypatch.setattr(ChannelParams, "__post_init__", counted)
        assert run_cli(capsys, *args)[0] == 0
        assert len(builds) <= 4

    #: sha256 of the README figure sweeps' output, frozen before per-shape sweeps
    FIGURE_SHA256 = {
        ("mu", "csv"): "aacb7b8b4973e4f8802cd565237a3edbf6e01c49bab1f09dd0b70682c287b46d",
        ("m", "csv"): "b7fe65bbfb761da044660625abbee5c306d1bf55adf2753242f4aaffd0f72e27",
        ("mu", "jsonl"): "50dc558eb1805ebf2515159deb8b1a2c0f973e5360509ef44e264616fd05b0dc",
        ("m", "jsonl"): "8b570b8b506f7e4e76df3e6dd0607d4497a4e08f096f0a7d4fb28ddea9ebf7d8",
    }

    @pytest.mark.parametrize("vary, fmt", list(FIGURE_SHA256))
    def test_figure_sweep_bytes(self, capsys, vary, fmt):
        mu, values = ("2", "1,2,4") if vary == "mu" else ("1.5", "0.5,1,3")
        code, out, _ = run_cli(capsys, "er", "--mu", mu, "--m", "1", "--kappa", "1",
                               "--eta", "0.1", "--rho2", "0.1", "--A", "2",
                               "--snr-db=-10:30:1", "--vary", vary, "--vary-values", values,
                               "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.FIGURE_SHA256[vary, fmt]

    def test_monte_carlo_sweep_matches_per_point(self, capsys):
        code, out, _ = run_cli(capsys, "er", *FIG1_FLAGS, "--A", "2",
                               "--snr-db=0:10:10", "--vary", "mu", "--vary-values", "1,2",
                               "--method", "mc", "--samples", "20000", "--seed", "5",
                               "--format", "jsonl")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        config = McConfig(n_samples=20000, seed=5)
        expected = []
        for snr_db in (0.0, 10.0):
            for mu in (1.0, 2.0):
                p = ChannelParams(mu=mu, m=1.0, kappa=1.0, eta=0.1, rho2=0.1,
                                  gamma_bar=db_to_linear(snr_db))
                result = er_auto(ErRequest(params=p, a_exponent=2.0, method="monte_carlo"),
                                 mc_config=config)
                expected.append(dict(snr_db=snr_db, vary=mu, rate=result.rate,
                                     j=result.expectation_j, method="monte_carlo",
                                     err=result.error_estimate))
        assert rows == expected

    def test_failing_point_prints_nothing(self, capsys, monkeypatch):
        # at A = 0.5 the 80 dB row needs level 5 and the 0 dB row level 3
        monkeypatch.setattr(fbrate.rate, "DE_LEVELS", 4)
        code, out, err = run_cli(capsys, "er", *FIG1_FLAGS, "--A", "0.5",
                                 "--snr-db", "0:80:80", "--method", "quad")
        assert code == 3
        assert out == "" and "gamma_bar=100000000.0" in err

    def test_missing_a_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "er", *FIG1_FLAGS)
        assert code == 2
        assert "--A" in err

    def test_qos_triple_header(self, capsys):
        code, out, _ = run_cli(capsys, "er", *FIG1_FLAGS, "--theta", "0.0693147",
                               "--T", "1", "--B", "20", "--snr-db", "0:0:1")
        assert code == 0
        assert out.startswith("# A = theta*T*B/ln2 = ")
        a = 0.0693147 * 20 / math.log(2.0)
        assert f"{a:.9g}" in out.splitlines()[0]

    def test_sweep_with_vary_ordering(self, capsys):
        code, out, _ = run_cli(capsys, "er", *FIG1_FLAGS, "--A", "2",
                               "--snr-db=-5:5:5", "--vary", "mu",
                               "--vary-values", "4,2")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [(float(r[0]), float(r[1])) for r in rows] == [
            (-5.0, 2.0), (-5.0, 4.0), (0.0, 2.0), (0.0, 4.0), (5.0, 2.0), (5.0, 4.0)]
        # rate nondecreasing in both axes here
        rates = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
        assert rates[(0.0, 4.0)] >= rates[(0.0, 2.0)]
        assert rates[(5.0, 2.0)] >= rates[(0.0, 2.0)]

    def test_byte_stable_output(self, capsys):
        args = ("er", *FIG1_FLAGS, "--A", "2", "--snr-db=-10:10:5")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_jsonl_format(self, capsys):
        code, out, _ = run_cli(capsys, "er", *FIG1_FLAGS, "--A", "2",
                               "--snr-db", "0:0:1", "--format", "jsonl")
        assert code == 0
        record = json.loads(out.strip())
        assert record["method"] == "closed_form"
        assert record["rate"] == pytest.approx(FIG1_R_A2, abs=1e-3)

    def test_monte_carlo_method(self, capsys):
        code, out, _ = run_cli(capsys, "er", *FIG1_FLAGS, "--A", "2",
                               "--snr-db", "0:0:1", "--method", "mc",
                               "--samples", "200000", "--seed", "42")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[4] == "monte_carlo"
        assert float(row[2]) == pytest.approx(FIG1_R_A2, abs=0.01)

    def test_monte_carlo_real_mu(self, capsys):
        code, out, _ = run_cli(capsys, "er", "--mu", "1.5", "--m", "1", "--kappa", "1",
                               "--eta", "0.1", "--rho2", "0.1", "--A", "2",
                               "--snr-db", "0:0:1", "--method", "mc",
                               "--samples", "50000")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[4] == "monte_carlo"
        assert abs(float(row[3]) - FIG2_J_BY_M[1.0]) <= 4.0 * float(row[5])

    def test_monte_carlo_sub_unit_mu_with_los(self, capsys):
        # below one cluster with LoS the sampler draws Poisson mixtures
        code, out, _ = run_cli(capsys, "er", "--mu", "0.5", "--kappa", "1", "--A", "2",
                               "--method", "mc")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[4] == "monte_carlo"
        p = ChannelParams(mu=0.5, m=1.0, kappa=1.0, eta=1.0, rho2=1.0,
                          gamma_bar=db_to_linear(float(row[0])))
        j_quad = er_auto(ErRequest(params=p, a_exponent=2.0,
                                   method="quadrature")).expectation_j
        assert abs(float(row[3]) - j_quad) <= 4.0 * float(row[5])

    def test_monte_carlo_underflow_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "er", "--mu", "2", "--A", "1000",
                                 "--snr-db", "30:30:1", "--method", "mc",
                                 "--samples", "2000")
        assert code == 3
        assert err.startswith("error: ") and "underflowed" in err

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("FBRATE_SEED", "7")
        args = ("er", "--preset", "rayleigh", "--A", "2", "--snr-db", "0:0:1",
                "--method", "mc", "--samples", "50000")
        _, with_env, _ = run_cli(capsys, *args)
        _, again, _ = run_cli(capsys, *args)
        assert with_env == again
        monkeypatch.setenv("FBRATE_SEED", "8")
        _, different, _ = run_cli(capsys, *args)
        assert different != with_env


@pytest.mark.parametrize("flags, variables", [
    (("--samples", "0"), {}),
    ((), {"FBRATE_SEED": "abc"}),
], ids=["samples", "env-seed"])
def test_monte_carlo_input_is_read_only_by_monte_carlo(capsys, monkeypatch, flags, variables):
    for name, value in variables.items():
        monkeypatch.setenv(name, value)
    code, out, err = run_cli(capsys, "er", "--A", "2", *flags)
    assert code == 0 and err == "" and out.count("\n") == 2
    code, out, err = run_cli(capsys, "er", "--A", "2", *flags, "--method", "mc")
    assert code == 2 and out == "" and err.startswith("error: ")


class TestGridCommands:
    def test_mgf_at_zero_is_one(self, capsys):
        code, out, _ = run_cli(capsys, "mgf", *FIG1_FLAGS, "--s", "0:2:1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,value"
        assert lines[1] == "0,1"

    def test_mgf_rayleigh_half(self, capsys):
        code, out, _ = run_cli(capsys, "mgf", "--preset", "rayleigh",
                               "--s", "1:1:1")
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[1]) == pytest.approx(0.5)

    def test_pdf_rows_integrate_to_one(self, capsys):
        code, out, _ = run_cli(capsys, "pdf", *FIG1_FLAGS, "--gamma", "0:40:0.01")
        assert code == 0
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in out.strip().splitlines()[1:]])
        total = np.trapezoid(rows[:, 1], rows[:, 0])
        assert abs(total - 1.0) <= 1e-3

    def test_pdf_closed_form_regime_required(self, capsys):
        code, _, err = run_cli(capsys, "pdf", "--mu", "1.5", "--m", "1",
                               "--kappa", "1", "--eta", "0.1", "--rho2", "0.1")
        assert code == 3
        assert "even integer mu" in err

    def test_mgf_negative_grid_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "mgf", "--mu", "2", "--s=-1:0:1")
        assert code == 2
        assert err.startswith("error: ") and ">= 0" in err

    def test_pdf_negative_grid_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "pdf", "--mu", "2", "--gamma=-1:0:1")
        assert code == 2
        assert err.startswith("error: ") and ">= 0" in err


class TestValidateCommands:
    def test_validate_quick_pass(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--max-configs", "30",
                               "--skip-mc")
        assert code == 0
        assert "[PASS]" in out and "max rel diff" in out

    def test_validate_empty_grid_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--max-configs", "0",
                               "--skip-mc")
        assert code == 2

    def test_mc_validate_small(self, capsys):
        code, out, _ = run_cli(capsys, "mc-validate", "--samples", "20000",
                               "--seed", "42")
        assert code == 0
        assert "[PASS]" in out

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # main builds its parser once per process: calls made one after another
    # print what each prints from a parser built for it alone
    runs = [(("er", *FIG1_FLAGS, "--A", "2", "--method", "mc", "--seed", "5"), {}),
            (("er", *FIG1_FLAGS, "--A", "2", "--method", "mc"), {"FBRATE_SEED": "7"}),
            (("validate", "--skip-mc", "--max-configs", "30"), {})]

    def outputs(fresh_parser):
        results = []
        for argv, variables in runs:
            if fresh_parser:
                build_parser.cache_clear()
            with monkeypatch.context() as env:
                for name, value in variables.items():
                    env.setenv(name, value)
                results.append(run_cli(capsys, *argv))
        return results

    fresh = outputs(True)
    assert [code for code, _, _ in fresh] == [0, 0, 0]
    assert fresh[0][1] != fresh[1][1]
    assert outputs(False) == fresh
    assert build_parser() is build_parser()


def test_db_round_trip():
    for db in np.linspace(-40.0, 40.0, 17):
        assert 10.0 * math.log10(db_to_linear(db)) == pytest.approx(db, abs=1e-12)


def test_cli_import_loads_neither_scipy_nor_mpmath():
    # a fresh interpreter: the CLI must start without scipy or mpmath, which
    # only the tests use
    probe = ("import sys, fbrate.cli; "
             "print([m for m in ('scipy', 'mpmath') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, env=fresh_env())
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("flags, variables", [
    (("--vary", "mu", "--vary-values", "1,abc"), {}),
    (("--method", "mc"), {"FBRATE_SEED": "abc"}),
], ids=["vary-values", "env-seed"])
def test_bad_outside_input_exits_2_without_traceback(flags, variables):
    proc = subprocess.run([sys.executable, "-m", "fbrate.cli", "er", "--A", "2", *flags],
                          capture_output=True, text=True, env=fresh_env(**variables))
    assert proc.returncode == 2
    assert proc.stdout == "" and proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
