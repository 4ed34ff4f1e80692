import pytest

import cdcrdyn as cd
import cdcrdyn.cli as cli_mod
from cdcrdyn.cli import main
from cdcrdyn.scenarios import Scenario
from cdcrdyn.recordio import RECORD_HEADER, SHAPES_HEADER, read_record_csv


def test_run_builtin_scenario(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nscenario = case1_step\nhorizon = 0.05\n"
                   "[sd]\nnodes = 61\ndt = 1e-4\n")
    code = main(["run", "--config", str(cfg), "--solver", "both",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "case1_step [galerkin]" in out and "case1_step [sd]" in out
    gal = tmp_path / "out" / "case1_step_galerkin.csv"
    assert gal.exists()
    assert (tmp_path / "out" / "case1_step_sd.csv").exists()
    assert (tmp_path / "out" / "case1_step_galerkin.svg").exists()
    assert read_record_csv(str(gal)).t.size > 1


def test_run_inline_scenario(tmp_path):
    cfg = tmp_path / "inline.ini"
    cfg.write_text("""
[run]
scenario = inline
horizon = 0.05

[profile]
kind = step
height = 3
t0 = 0
""")
    code = main(["run", "--config", str(cfg), "--solver", "galerkin",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "inline_galerkin.csv").exists()


def test_config_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.ini"
    for text in ("[galerkin]\ndt = -1\n", "[run]\nhorizon = inf\n",
                 "[galerkin]\ndt = inf\n", "[sd]\ndt = inf\n"):
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2, text
    # modal-only settings are checked on an SD run too; the Baumgarte gain,
    # the multiplier epsilon and the damping law are fixed, not keys; each of
    # these texts would otherwise run a short SD run
    for text in ("[galerkin]\npanels = 0\n", "[galerkin]\npoints_per_panel = 1\n",
                 "[galerkin]\nbasis = foo\n", "[galerkin]\nconstraint_gain = 20.0\n",
                 "[galerkin]\nlambda_epsilon = 1e-8\n",
                 "[galerkin]\ndamping_model = none\n",
                 "[galerkin]\ndamping_model = pointwise\n"):
        cfg.write_text("[run]\nhorizon = 0.01\n[sd]\nnodes = 51\n" + text)
        assert main(["run", "--config", str(cfg), "--solver", "sd",
                     "--out", str(tmp_path)]) == 2, text
    # non-finite model values and tabulated samples are refused before any step
    bad_time, bad_value = tmp_path / "bad_time.csv", tmp_path / "bad_value.csv"
    bad_time.write_text("0,0\nnan,1\n0.02,0.5\n")
    bad_value.write_text("0,0\n0.01,nan\n0.02,0.5\n")
    for text in ("[model]\ndamping_coeff = nan\n", "[model]\nyoungs_modulus = inf\n",
                 "[model]\ndensity = inf\n", "[model]\nlength = inf\n",
                 "[model]\ncable_spacing = inf\n", "[model]\nsecond_moment = inf\n",
                 "[model]\ntaper_d0 = 0.006\ntaper_d1 = -0.005\n",
                 f"[profile]\nkind = tabulated\ncsv = {bad_time}\n",
                 f"[profile]\nkind = tabulated\ncsv = {bad_value}\n"):
        cfg.write_text("[run]\nhorizon = 0.02\n" + text)
        assert main(["run", "--config", str(cfg), "--scenario", "case1_linear",
                     "--solver", "both", "--out", str(tmp_path)]) == 2, text


def test_literal_displacement_run_is_a_config_error(tmp_path, capsys):
    code = main(["run", "--scenario", "caseA", "--fidelity", "literal",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "force input only" in capsys.readouterr().err


def test_literal_displacement_sd_run_is_a_config_error(tmp_path, capsys):
    # the scenario rejects the pair, so the SD solver, which has no fidelity, never runs
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nhorizon = 0.05\n[sd]\nnodes = 51\n")
    code = main(["run", "--config", str(cfg), "--scenario", "caseA", "--solver", "sd",
                 "--fidelity", "literal", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "force input only" in capsys.readouterr().err


def test_suite_and_bench_honour_run_horizon(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nhorizon = 0.05\n")
    code = main(["suite", "--config", str(cfg), "--solver", "galerkin",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    # 0.05 s at dt = 1e-3 and stride 10 keeps t = 0, 0.01, ..., 0.05
    assert len(lines) == 15 and all(": 6 samples," in line for line in lines)
    benched = []

    def fake_benchmark(suite, repeats):
        benched.extend(suite)
        return cd.SpeedupReport(rows=[], mean_speedup=None)

    monkeypatch.setattr(cli_mod, "run_benchmark", fake_benchmark)
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "bench")]) == 0
    assert len(benched) == 15
    assert all(sc.horizon == sc.options.t_end == 0.05 for sc in benched)


def test_unknown_scenario_exit_code(tmp_path):
    assert main(["run", "--scenario", "caseZ", "--out", str(tmp_path)]) == 2


def test_nc_exit_code(tmp_path):
    cfg = tmp_path / "nc.ini"
    cfg.write_text("""
[run]
scenario = inline
horizon = 0.5
fidelity = literal

[profile]
kind = step
height = 1e9
""")
    code = main(["run", "--config", str(cfg), "--solver", "galerkin",
                 "--fidelity", "literal", "--out", str(tmp_path / "out")])
    assert code == 3


def test_io_error_exit_code(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory")
    code = main(["run", "--scenario", "case1_step", "--solver", "galerkin",
                 "--out", str(blocker / "nested")])
    assert code == 4


def test_compare_command(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nscenario = case1_step\nhorizon = 0.05\n"
                   "[sd]\nnodes = 61\ndt = 1e-4\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--solver", "both",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(["compare", str(out / "case1_step_galerkin.csv"),
                 str(out / "case1_step_sd.csv")])
    assert code == 0
    printed = capsys.readouterr().out
    assert "tip_rmse" in printed and "shape_rmse" in printed


def _tiny_suite(base=None):
    # one fast scenario, to keep the CLI benchmark tests quick
    options = cd.SolverOptions(t_end=0.05, sd_nodes=61, sd_dt=1e-4)
    return [Scenario(id="case1_step", model=cd.build_case_model("case1"),
                     profile=cd.ActuationProfile.step(3.0),
                     horizon=0.05, options=options)]


def test_bench_command(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli_mod, "builtin_suite", _tiny_suite)
    code = main(["bench", "--repeats", "3", "--out", str(tmp_path / "bench")])
    assert code == 0
    table = capsys.readouterr().out
    assert "Speedup" in table and "case1_step" in table
    assert (tmp_path / "bench" / "benchmark.csv").exists()


def test_bench_repeats_zero_is_an_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli_mod, "builtin_suite", _tiny_suite)
    code = main(["bench", "--repeats", "0", "--out", str(tmp_path / "bench")])
    assert code == 2
    assert "at least 3 repeats" in capsys.readouterr().err


@pytest.mark.parametrize("record_rows, shape_rows", [
    (["0,0.4,0,0,0,0,0,0,0,0,1", "0.01,0.4,abc,-0.01,0,-1.5,0,0,0,0,1"], None),
    (["0,0.4,0"], None),
    (["0,0.4,0,0,0,0,0,0,0,0,1", "0.01,0.4,-0.001,-0.01,0,-1.5,0,0,0,0,1"],
     ["0,0,0,0,0", "0,0.4,0.4,0,0", "0.01,0,0,0,0"]),
    ([], None),
    (["nan,0.4,0,0,0,0,0,0,0,0,1", "nan,0.4,-0.001,-0.01,0,-1.5,0,0,0,0,1"], None),
    (["0,0.4,0,0,0,0,0,0,0,0,1", "0.02,0.4,-0.001,-0.01,0,-1.5,0,0,0,0,1",
      "0.01,0.4,-0.002,-0.02,0,-1.5,0,0,0,0,1"], None),
], ids=["non_numeric_cell", "short_row", "ragged_shapes", "header_only", "nan_time",
        "time_goes_back"])
def test_compare_malformed_csv_exit_code(tmp_path, capsys, record_rows, shape_rows):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([RECORD_HEADER, *record_rows]) + "\n")
    if shape_rows is not None:
        (tmp_path / "bad_shapes.csv").write_text("\n".join([SHAPES_HEADER, *shape_rows]) + "\n")
    assert main(["compare", str(path), str(path)]) == 2
    assert "configuration error" in capsys.readouterr().err
