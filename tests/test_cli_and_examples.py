"""Smoke tests: the CLI and every example script run end-to-end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main as cli_main

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SRC = EXAMPLES.parent / "src"


class TestCli:
    def test_models(self, capsys):
        assert cli_main(["models"]) == 0
        out = capsys.readouterr().out
        assert "ResNet-152" in out
        assert "BERT-large" in out

    def test_experiments_listing(self, capsys):
        assert cli_main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig13" in out
        assert "table1" in out

    def test_run_table1(self, capsys):
        assert cli_main(["run", "table1"]) == 0
        assert "2816" in capsys.readouterr().out

    def test_run_unknown(self, capsys):
        assert cli_main(["run", "fig99"]) == 2

    def test_simulate(self, capsys):
        assert cli_main(["simulate", "SqueezeNet", "--batch", "16"]) == 0
        out = capsys.readouterr().out
        assert "DiVa" in out

    def test_scaling(self, capsys):
        assert cli_main(["scaling", "--chips", "1", "2",
                         "--models", "SqueezeNet",
                         "--algorithms", "DP-SGD", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "Speedup" in out
        assert "Efficiency" in out
        assert "SqueezeNet" in out

    def test_scaling_plan_auto_defaults(self, capsys):
        """``scaling --plan auto`` on its defaults takes each model's
        batch from the planner's budget (VGG-16: the 109 examples one
        chip holds, rounded down to 104 = 13 x lcm(1, 2, 4, 8)), and
        the one point no placement holds becomes a refusal row instead
        of an exit 2: BERT-large's DP-SGD step at batch 8 needs 14.6
        GiB of one chip's 14.4 GiB budget."""
        assert cli_main(["scaling", "--plan", "auto"]) == 0
        out = capsys.readouterr().out
        rows = [line.split("|") for line in out.splitlines()
                if line.count("|") == 10]
        assert len(rows) == 1 + 2 * 2 * 4
        batches = {(row[0].strip(), row[4].strip()) for row in rows[1:]}
        assert batches == {("VGG-16", "104"), ("BERT-large", "8*")}
        refused = [row for row in rows if "refused" in row[5]]
        assert [[cell.strip() for cell in row[:3]] for row in refused] \
            == [["BERT-large", "DP-SGD", "1"]]
        assert ("† BERT-large/DP-SGD on 1 chip: no feasible DP x PP x TP "
                "placement at batch 8 (14.4 GiB budget): stage memory "
                "14.6 GiB exceeds the 14.4 GiB budget") in out
        # The refused point is no series' baseline: the series starts
        # at its smallest priced cluster.
        assert [row[9].strip() for row in rows
                if row[0].strip() == "BERT-large"
                and row[1].strip() == "DP-SGD"] == ["-", "1.00", "1.80",
                                                    "2.92"]

    def test_scaling_rejects_bad_sweep_cleanly(self, capsys):
        assert cli_main(["scaling", "--chips", "1", "8",
                         "--models", "SqueezeNet", "--batch", "100"]) == 2
        assert "divide" in capsys.readouterr().err

    def test_serve(self, capsys):
        assert cli_main(["serve", "--trace-jobs", "12",
                         "--chips", "2", "--policy", "fifo"]) == 0
        out = capsys.readouterr().out
        assert "Fleet serving" in out
        # 12 seeded jobs need not reach every tenant: any tenant row.
        assert "Per-tenant privacy budget" in out and "tenant-" in out
        assert "Rejected" in out

    def test_serve_rejects_bad_fleet_cleanly(self, capsys):
        assert cli_main(["serve", "--chips", "4",
                         "--chips-per-cluster", "3"]) == 2
        assert "serve" in capsys.readouterr().err

    def test_serve_autoscaled_diurnal(self, capsys):
        assert cli_main(["serve", "--trace-jobs", "400",
                         "--chips", "2", "--policy", "fifo",
                         "--trace-shape", "diurnal",
                         "--mean-interarrival", "2",
                         "--autoscale", "--autoscale-max", "8",
                         "--provision-delay", "15"]) == 0
        out = capsys.readouterr().out
        assert "Peak" in out and "Scales" in out
        assert "Chip-h" in out and "Cost" in out

    def test_serve_rejects_unknown_trace_shape(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["serve", "--trace-shape", "weekly"])
        assert excinfo.value.code == 2
        assert "weekly" in capsys.readouterr().err

    def test_capacity(self, capsys):
        assert cli_main(["capacity", "--trace-jobs", "800",
                         "--max-p99-wait", "60"]) == 0
        out = capsys.readouterr().out
        assert "Capacity search" in out
        assert "meet the SLO" in out

    def test_capacity_infeasible_exits_nonzero(self, capsys):
        assert cli_main(["capacity", "--trace-jobs", "800",
                         "--mean-interarrival", "0.1",
                         "--max-p99-wait", "0.000001",
                         "--max-clusters", "2"]) == 1
        assert "DO NOT meet" in capsys.readouterr().out


@pytest.mark.parametrize("script,arg", [
    ("quickstart.py", "SqueezeNet"),
    ("workload_characterization.py", "LSTM-small"),
    ("accelerator_comparison.py", "SqueezeNet"),
    ("dp_training.py", None),
    ("multi_chip_scaling.py", "SqueezeNet"),
    ("fleet_serving.py", "30"),
])
def test_example_runs(script, arg):
    cmd = [sys.executable, str(EXAMPLES / script)]
    if arg:
        cmd.append(arg)
    result = subprocess.run(cmd, capture_output=True, text=True,
                            timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()


def test_startup_imports_skip_scipy_and_figures():
    """Serving, observability and the sweeps load neither SciPy (a test
    dependency only) nor any figure or table experiment."""
    code = ("import sys, repro.serve, repro.obs, repro.experiments.scaling, "
            "repro.experiments.design_space\n"
            "print(sorted(m for m in sys.modules if m.startswith(('scipy', "
            "'repro.experiments.fig', 'repro.experiments.table'))))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=120, env=env)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "[]"
