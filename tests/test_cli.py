import numpy as np
import pytest

from wienerid.cli import main
from wienerid.system import DataRecord

CONFIG = """\
theta_o = 0.5
sigma_v2 = 0.2
sigma_e2 = 0.1
sigma_u2 = 0.3333333333333333
input_kind = gaussian
n_obs = 80
realizations = 2
methods = PEM_W, II0
master_seed = 4242
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "experiment.cfg"
    path.write_text(CONFIG)
    return path


def test_simulate_writes_record(config_file, tmp_path, capsys):
    code = main(["simulate", "--config", str(config_file), "--out", str(tmp_path)])
    assert code == 0
    record = DataRecord.from_csv(tmp_path / "data.csv")
    assert record.n_obs == 80
    assert "data.csv" in capsys.readouterr().out


def test_estimate_prints_theta(config_file, tmp_path, capsys):
    main(["simulate", "--config", str(config_file), "--out", str(tmp_path)])
    code = main([
        "estimate", "--config", str(config_file),
        "--data", str(tmp_path / "data.csv"), "--method", "II1_W",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "method=II1_W" in out and "theta_hat=" in out and "predicted_std=" in out


def test_estimate_prints_the_zero_order_predicted_std(config_file, tmp_path, capsys):
    main(["simulate", "--config", str(config_file), "--out", str(tmp_path)])
    code = main([
        "estimate", "--config", str(config_file),
        "--data", str(tmp_path / "data.csv"), "--method", "II0",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "method=II0" in out and "predicted_std=" in out


def test_bench_writes_reports(config_file, tmp_path, capsys):
    out_dir = tmp_path / "results"
    code = main([
        "bench", "--config", str(config_file), "--out", str(out_dir), "--format", "json",
    ])
    assert code == 0
    assert (out_dir / "summary.json").exists()
    assert (out_dir / "raw.json").exists()
    assert (out_dir / "ledger.json").exists()


def test_baseline_prints_value(config_file, capsys):
    code = main(["baseline", "--config", str(config_file)])
    assert code == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(np.sqrt(0.3 / ((1 / 3) * 80)))


def test_seed_override_changes_data(config_file, tmp_path):
    main(["simulate", "--config", str(config_file), "--out", str(tmp_path / "a")])
    main(["simulate", "--config", str(config_file), "--out", str(tmp_path / "b"), "--seed", "1"])
    a = DataRecord.from_csv(tmp_path / "a" / "data.csv")
    b = DataRecord.from_csv(tmp_path / "b" / "data.csv")
    assert not np.allclose(a.u, b.u)


def test_bad_config_gives_nonzero_exit(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("nonsense = 1\n")
    code = main(["baseline", "--config", str(path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_missing_data_file_gives_nonzero_exit(config_file, capsys):
    code = main([
        "estimate", "--config", str(config_file),
        "--data", "/nonexistent/data.csv", "--method", "II0",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err
