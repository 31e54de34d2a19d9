import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from femtoshare.experiments import ExperimentSpec, main, run


def _read_curve(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return rows


def test_fig3_preset_reference_crossing(tmp_path):
    summary = run(ExperimentSpec(preset="fig3", out_dir=tmp_path))
    assert summary["passed"]
    rows = _read_curve(tmp_path / "fig3_dmin_xi10.csv")
    by_power = {float(r["x"]): float(r["value"]) for r in rows}
    assert by_power[23.0] == pytest.approx(384.0, abs=10.0)
    assert all(float(r["std_err"]) == 0.0 for r in rows)


def test_fig3_leaves_out_caps_below_the_edge_minimum_power(tmp_path):
    # at 5 dB wall loss the cell-edge minimum is -19.41 dBm per subcarrier,
    # above the 10 and 11 dBm caps (-20.79 and -19.79 dBm per subcarrier)
    assert main(["run", "fig3", "--xi", "5", "--out", str(tmp_path)]) == 0
    rows = _read_curve(tmp_path / "fig3_dmin_xi5.csv")
    assert [float(r["x"]) for r in rows] == [float(x) for x in range(12, 24)]


def test_custom_preset_zero_intensity_baselines(tmp_path):
    spec = ExperimentSpec(preset="custom", sweep=("lambda_f", (0.0,)),
                          n_drops=10, n_trials=400, out_dir=tmp_path)
    summary = run(spec)
    assert summary["passed"]
    macro_sim = _read_curve(tmp_path / "custom_op_macro_sim_lambda_f0.csv")
    assert all(float(r["value"]) == 0.0 for r in macro_sim)
    macro_bound = _read_curve(tmp_path / "custom_op_macro_bound_lambda_f0.csv")
    assert all(abs(float(r["value"])) < 1e-12 for r in macro_bound)
    femto_bound = _read_curve(tmp_path / "custom_op_femto_bound_lambda_f0.csv")
    # with no interferer field the femto bound is the macro-only term
    from femtoshare.analysis import BoundContext, femto_outage_lower_bound
    from femtoshare.model import NetworkParams

    ctx = BoundContext.from_params(NetworkParams(lambda_f=0.0))
    for r in femto_bound:
        assert float(r["value"]) == pytest.approx(
            femto_outage_lower_bound(ctx, float(r["x"])).p_macro_only, rel=1e-12)


def test_rerun_is_byte_identical(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    spec = dict(preset="custom", n_drops=3, n_trials=50, seed=9)
    run(ExperimentSpec(out_dir=a_dir, **spec))
    run(ExperimentSpec(out_dir=b_dir, **spec))
    a_files = sorted(p.name for p in a_dir.glob("*.csv"))
    assert a_files
    for name in a_files:
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_csv_schema(tmp_path):
    run(ExperimentSpec(preset="custom", n_drops=2, n_trials=40, out_dir=tmp_path))
    for path in tmp_path.glob("*.csv"):
        rows = _read_curve(path)
        assert rows and list(rows[0].keys()) == ["x", "value", "std_err", "n"]
        xs = [float(r["x"]) for r in rows]
        assert xs == sorted(xs)


def test_cli_run_and_exit_code(tmp_path, capsys):
    rc = main(["run", "custom", "--drops", "20", "--trials", "200",
               "--out", str(tmp_path), "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[pass]" in out
    assert (tmp_path / "custom_summary.json").exists()
    summary = json.loads((tmp_path / "custom_summary.json").read_text())
    assert summary["passed"] and summary["seed"] == 3


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"n_f": 10, "xi_db": 15.0}))
    rc = main(["run", "fig3", "--config", str(cfg), "--out", str(tmp_path),
               "--xi", "15"])
    assert rc == 0
    assert (tmp_path / "fig3_dmin_xi15.csv").exists()


def test_cli_fig6_dense_field(tmp_path, capsys):
    rc = main(["run", "fig6", "--nf", "100", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rho = 0.145" in out
    prob_rows = _read_curve(tmp_path / "fig6_tx_prob_nf100.csv")
    assert all(float(r["value"]) == pytest.approx(0.145, abs=0.01) for r in prob_rows)
    power_rows = _read_curve(tmp_path / "fig6_tx_power_nf100.csv")
    vals = [float(r["value"]) for r in power_rows]
    assert vals[0] <= 23.0 + 1e-9 and vals[-1] < vals[0]


def test_cli_rejects_bad_sweep(tmp_path):
    rc = main(["run", "custom", "--sweep", "lambda_f", "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("flag, count", [("--drops", "0"), ("--trials", "0"),
                                         ("--drops", "-3"), ("--trials", "-1")])
def test_cli_rejects_non_positive_scale(tmp_path, capsys, flag, count):
    rc = main(["run", "custom", flag, count, "--out", str(tmp_path)])
    assert rc == 2
    assert f"{flag} must be a positive count" in capsys.readouterr().err
    assert not (tmp_path / "custom_summary.json").exists()


@pytest.mark.parametrize("preset, args, config", [
    ("fig6", ["--nf", "-5"], None),
    ("fig6", ["--nf", "nan"], None),
    ("fig3", ["--xi", "nan"], None),
    ("custom", ["--sweep", "n_rb", "50"], None),
    ("custom", ["--sweep", "n_rb", "100.5"], None),
    ("custom", ["--sweep", "xi_db", "abc"], None),
    ("custom", ["--sweep", "xi_db", "15", "10"], None),
    ("fig3", [], '{"eps_f": 2}'),
    ("fig3", [], "[1]"),
    ("fig3", [], "{"),
    ("custom", [], '{"n_rb": 50.0, "subcarriers_per_rb": 24}'),
    ("fig3", ["--config", "no-such-scenario.json"], None),
    ("fig1", ["--seed", "-1"], None),
    ("custom", ["--sweep", "p_f_max_total_dbm", "5"], None),
    # the macro ceiling is unreachable from 2518 m out, inside the drop region
    ("fig5", ["--nf", "100"], '{"eps_m": 0.02}'),
    ("fig7", [], '{"eps_m": 0.02}'),
    # fig4's ceiling curve and fig6's table to r_m, unreachable in a dense
    # field and, for every field, at a zero macro target
    ("fig4", ["--nf", "300000"], None),
    ("fig6", ["--nf", "300000"], None),
    ("fig4", [], '{"eps_m": 0}'),
    ("fig6", [], '{"eps_m": 0}'),
    # fig4's exact floor is unreachable at its grid's first distance, 400 m
    ("fig4", [], '{"xi_db": 3}'),
    # flags a preset would ignore
    ("fig6", ["--xi", "15"], None),
    ("fig1", ["--xi", "15"], None),
    ("custom", ["--xi", "15"], None),
    ("fig3", ["--nf", "30"], None),
    ("custom", ["--nf", "30"], None),
    ("fig4", ["--sweep", "xi_db", "5", "10"], None),
    ("fig7", ["--sweep", "xi_db", "5"], None),
    ("fig3", ["--drops", "5"], None),
    ("fig4", ["--trials", "5"], None),
    ("fig6", ["--drops", "5", "--trials", "5"], None),
    # refused only when the preset reaches the bad scenario: the second N_F,
    # the second sweep value
    ("fig5", ["--nf", "30", "--nf", "100", "--drops", "2", "--trials", "10"],
     '{"eps_m": 0.02}'),
    ("custom", ["--sweep", "r_f", "30", "999", "--drops", "2", "--trials", "10"], None),
], ids=["nf-negative", "nf-nan", "xi-nan", "sweep-inconsistent-rb", "sweep-fractional-rb",
        "sweep-not-a-number", "sweep-decreasing", "config-eps", "config-list",
        "config-not-json", "config-float-count", "config-missing", "seed-negative",
        "sweep-cap-below-edge-minimum", "fig5-table-infeasible", "fig7-table-infeasible",
        "fig4-ceiling-infeasible", "fig6-table-infeasible", "fig4-eps-m-zero",
        "fig6-eps-m-zero", "fig4-floor-infeasible",
        "fig6-xi", "fig1-xi", "custom-xi", "fig3-nf", "custom-nf", "fig4-sweep", "fig7-sweep",
        "fig3-drops", "fig4-trials", "fig6-drops-trials",
        "fig5-second-nf-infeasible", "custom-second-sweep-value-infeasible"])
def test_cli_rejects_bad_input_in_one_line(tmp_path, capsys, preset, args, config):
    # every bad input, whether refused before the preset starts or when it
    # reaches the bad scenario, ends in exit 2, one line on stderr, nothing
    # on stdout, no traceback, and no output written
    if config is not None:
        cfg = tmp_path / "scenario.json"
        cfg.write_text(config)
        args = args + ["--config", str(cfg)]
    out = tmp_path / "out"
    assert main(["run", preset, *args, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.exists()


def test_cli_runs_a_fig3_config_whose_cap_fig3_never_uses(tmp_path):
    # fig3 sweeps its own caps, 10-23 dBm, so a scenario file's 5 dBm cap,
    # below the cell-edge minimum power, never reaches a bound context;
    # --xi must not change that
    cfg = tmp_path / "scenario.json"
    cfg.write_text('{"p_f_max_total_dbm": 5}')
    for out, extra in (("all", []), ("xi10", ["--xi", "10"])):
        assert main(["run", "fig3", "--config", str(cfg), *extra,
                     "--out", str(tmp_path / out)]) == 0
    name = "fig3_dmin_xi10.csv"
    assert (tmp_path / "all" / name).read_bytes() == (tmp_path / "xi10" / name).read_bytes()


def test_cli_refuses_an_out_path_that_is_a_file(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["run", "fig3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out.read_text() == ""


def test_cli_sweeps_a_count_field_as_integers(tmp_path):
    rc = main(["run", "custom", "--sweep", "n_rb", "100", "--drops", "20", "--trials",
               "200", "--out", str(tmp_path), "--seed", "3"])
    assert rc == 0
    assert (tmp_path / "custom_op_femto_sim_n_rb100.csv").exists()


def test_zero_scale_is_not_replaced_by_the_preset_default(tmp_path):
    # an explicit 0 reaches the estimator, which rejects it, instead of
    # silently running the preset's default drops and trials
    for bad in (dict(preset="custom", n_drops=0), dict(preset="fig7", n_drops=0),
                dict(preset="fig7", n_trials=0)):
        with pytest.raises(ValueError, match="n_drops and n_trials"):
            run(ExperimentSpec(out_dir=tmp_path, **bad))
    assert ExperimentSpec(n_drops=0, n_trials=0).scale(100, 1000) == (0, 0)
    assert ExperimentSpec().scale(100, 1000) == (100, 1000)


def test_fig2_single_femtocell_count(tmp_path):
    # one point per curve: the monotonicity checks hold vacuously
    summary = run(ExperimentSpec(preset="fig2", nf_values=(30.0,), n_drops=2,
                                 n_trials=20, out_dir=tmp_path))
    monotone = [c for c in summary["checks"] if "_nondecreasing_in_nf_" in c["name"]]
    assert len(monotone) == 4
    assert all(c["passed"] and c["detail"] == "fewer than two points" for c in monotone)


@pytest.mark.parametrize("nf_values", [("0",), ("10", "30")], ids=["nf0", "nf10-nf30"])
def test_fig7_with_fewer_than_three_femtocell_counts(tmp_path, nf_values):
    # a peak inside the range needs a point on either side of it: with
    # fewer than three points the peak-then-decline check holds vacuously
    args = ["run", "fig7", "--drops", "6", "--trials", "60", "--out", str(tmp_path)]
    for nf in nf_values:
        args += ["--nf", nf]
    assert main(args) == 0
    summary = json.loads((tmp_path / "fig7_summary.json").read_text())
    peak = [c for c in summary["checks"]
            if c["name"] == "total_ase_peaks_then_declines_xi10"]
    assert len(peak) == 1
    assert peak[0]["passed"] and peak[0]["detail"] == "fewer than three points"


def test_fig4_without_femtocells(tmp_path):
    # no FAP can break the macro constraint: the ceiling is infinite, so
    # fig4 leaves it out and writes both floors
    assert main(["run", "fig4", "--nf", "0", "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
        "fig4_power_floor_approx_nf0.csv", "fig4_power_floor_exact_nf0.csv"]
    rows = _read_curve(tmp_path / "fig4_power_floor_exact_nf0.csv")
    assert all(math.isfinite(float(r["value"])) for r in rows)


def test_preset_nf_wins_over_the_scenario_intensity(tmp_path, capsys):
    # a scenario file's n_f becomes an intensity override; a preset that
    # sets N_F itself replaces it instead of passing both
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"n_f": 50}))
    plain, configured = tmp_path / "plain", tmp_path / "configured"
    assert main(["run", "fig6", "--out", str(plain)]) == 0
    assert main(["run", "fig6", "--config", str(cfg), "--out", str(configured)]) == 0
    names = sorted(p.name for p in plain.glob("*.csv"))
    assert names == sorted(p.name for p in configured.glob("*.csv"))
    for name in names:
        assert (plain / name).read_bytes() == (configured / name).read_bytes()
    spec = ExperimentSpec(overrides={"lambda_f": 2e-5, "xi_db": 15.0})
    assert spec.params().lambda_f == 2e-5
    assert spec.params(n_f=30.0).n_f == pytest.approx(30.0)
    assert spec.params(n_f=30.0).xi_db == 15.0
