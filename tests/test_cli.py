import pytest

from cdcrdyn.cli import main
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
    cfg.write_text("[galerkin]\ndt = -1\n")
    assert main(["run", "--config", str(cfg)]) == 2


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


def test_bench_command(tmp_path, capsys, monkeypatch):
    # shrink the suite to one fast scenario to keep the CLI test quick
    import cdcrdyn.cli as cli_mod
    from cdcrdyn.scenarios import Scenario
    import cdcrdyn as cd

    def tiny_suite(base=None):
        options = cd.SolverOptions(t_end=0.05, sd_nodes=61, sd_dt=1e-4)
        return [Scenario(id="case1_step", model=cd.build_case_model("case1"),
                         profile=cd.ActuationProfile.step(3.0),
                         horizon=0.05, options=options)]

    monkeypatch.setattr(cli_mod, "builtin_suite", tiny_suite)
    code = main(["bench", "--repeats", "3", "--out", str(tmp_path / "bench")])
    assert code == 0
    table = capsys.readouterr().out
    assert "Speedup" in table and "case1_step" in table
    assert (tmp_path / "bench" / "benchmark.csv").exists()


@pytest.mark.parametrize("record_rows, shape_rows", [
    (["0,0.4,0,0,0,0,0,0,0,0,1", "0.01,0.4,abc,-0.01,0,-1.5,0,0,0,0,1"], None),
    (["0,0.4,0"], None),
    (["0,0.4,0,0,0,0,0,0,0,0,1", "0.01,0.4,-0.001,-0.01,0,-1.5,0,0,0,0,1"],
     ["0,0,0,0,0", "0,0.4,0.4,0,0", "0.01,0,0,0,0"]),
], ids=["non_numeric_cell", "short_row", "ragged_shapes"])
def test_compare_malformed_csv_exit_code(tmp_path, capsys, record_rows, shape_rows):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([RECORD_HEADER, *record_rows]) + "\n")
    if shape_rows is not None:
        (tmp_path / "bad_shapes.csv").write_text("\n".join([SHAPES_HEADER, *shape_rows]) + "\n")
    assert main(["compare", str(path), str(path)]) == 2
    assert "configuration error" in capsys.readouterr().err
