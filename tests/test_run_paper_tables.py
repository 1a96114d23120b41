"""scripts/run_paper_tables.py runs the shipped experiment configs, and those
configs are the ones the acceptance suite checks."""

import importlib.util
from pathlib import Path

import pytest

import wienerid as w

from suite_config import table_config

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture(scope="module")
def script():
    path = SCRIPTS / "run_paper_tables.py"
    spec = importlib.util.spec_from_file_location("run_paper_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_prints_both_tables_and_emits_reports(script, tmp_path, capsys):
    assert script.main(["--realizations", "3", "--skip-ml", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "=== gaussian.cfg: gaussian input, N=1000, 3 realizations ===" in out
    assert "=== uniform.cfg: uniform input, N=1000, 3 realizations ===" in out
    assert out.count("linear-sensor baseline std: 0.0300") == 2
    assert "ml_desk.cfg" not in out
    assert (tmp_path / "gaussian" / "raw.csv").exists()
    assert (tmp_path / "uniform" / "raw.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (["--realizations", "0"], "error: realizations must be >= 1\n"),
    (["--seed", "-1"], "error: master_seed must fit in an unsigned 64-bit integer, got -1\n"),
])
def test_bad_argument_prints_one_error_line(script, argv, message, capsys):
    assert script.main(argv + ["--skip-ml"]) == 1
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""


@pytest.mark.parametrize(
    "kind", [w.DistributionKind.GAUSSIAN_WHITE, w.DistributionKind.UNIFORM_WHITE]
)
def test_shipped_table_config_is_the_suite_config(kind):
    assert w.load_config(SCRIPTS / "configs" / f"{kind.value}.cfg") == table_config(kind)
