import dataclasses
import warnings

import numpy as np
import pytest

from wienerid import bench, ml
from wienerid.cli import main
from wienerid.bla import estimate_weighting, fit_bla
from wienerid.indirect import ZERO_ORDER_LAGS, AnalyticMap, step2
from wienerid.numerics import _FLAT
from wienerid.pem import pem_estimate
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


def test_estimate_prints_the_search_flags_only_when_set(config_file, tmp_path, capsys):
    # on a theta_o = 4 record, outside the bracket (-3, 3), II0 stops at its
    # edge; on the paper's record the line has no flag
    edge_config = tmp_path / "edge.cfg"
    edge_config.write_text(CONFIG.replace("theta_o = 0.5", "theta_o = 4.0"))
    lines = {}
    for name, path in (("edge", edge_config), ("paper", config_file)):
        main(["simulate", "--config", str(path), "--out", str(tmp_path / name)])
        capsys.readouterr()
        code = main([
            "estimate", "--config", str(path),
            "--data", str(tmp_path / name / "data.csv"), "--method", "II0",
        ])
        assert code == 0
        lines[name] = capsys.readouterr().out
    assert lines["edge"] == (
        "method=II0 theta_hat=3 predicted_std=inf iterations=6 at_bracket_edge=True\n"
    )
    fields = lines["paper"].split()
    assert [f.split("=")[0] for f in fields] == [
        "method", "theta_hat", "predicted_std", "iterations"
    ]


def test_estimate_prints_ml_evaluations_and_fallback(config_file, tmp_path, capsys, monkeypatch):
    # ML's line tells Newton (3 to 8 evaluations, no flag) from the bracket
    # scan it hands over to (fallback=True, Newton's evaluations added)
    main(["simulate", "--config", str(config_file), "--out", str(tmp_path)])
    args = [
        "estimate", "--config", str(config_file), "--data", str(tmp_path / "data.csv"),
        "--method", "ML", "--desk-scale",
    ]
    capsys.readouterr()
    config = dataclasses.replace(bench.load_config(config_file), desk_scale=True)
    record = DataRecord.from_csv(tmp_path / "data.csv")
    lines = {}
    exact, calls = ml._nll_derivatives, []

    def seeded_newton_gives_up(*a):
        # a negative information at the first call of each Newton stage, so
        # the seeded Newton gives up and the scan's Newton recovers
        calls.append(a)
        value = exact(*a)
        return (*value[:2], -1.0) if len(calls) <= 2 else value

    for case in ("newton", "fallback"):
        if case == "fallback":
            monkeypatch.setattr(ml, "_nll_derivatives", seeded_newton_gives_up)
        est = bench.run_method(config, "ML", record)
        calls.clear()
        assert main(args) == 0
        lines[case] = capsys.readouterr().out
        assert lines[case] == (
            f"method=ML theta_hat={est.theta_hat[0]:.17g} "
            f"iterations={est.diagnostics.iterations}"
            + (" fallback=True" if case == "fallback" else "")
            + f" quad_order=200 quad_change={est.diagnostics.quad_change:.17g}\n"
        )
    assert 3 <= int(lines["newton"].split("iterations=")[1].split()[0]) <= ml._NEWTON_EVALS


def test_estimate_prints_the_order_and_change_of_the_ml_likelihood(config_file, tmp_path, capsys):
    # with ml_quad_order = 1000 as the cap, the fit ends on order 200, whose
    # likelihood at the estimate is within 16 ulps of order 100's; both
    # fields carry the estimate's own values, the change to 17 digits
    main(["simulate", "--config", str(config_file), "--out", str(tmp_path)])
    capsys.readouterr()
    config = bench.load_config(config_file)
    assert config.ml_quad_order == 1000 and not config.desk_scale
    est = bench.run_method(config, "ML", DataRecord.from_csv(tmp_path / "data.csv"))
    assert main([
        "estimate", "--config", str(config_file), "--data", str(tmp_path / "data.csv"),
        "--method", "ML",
    ]) == 0
    fields = dict(f.split("=") for f in capsys.readouterr().out.split())
    assert list(fields)[-2:] == ["quad_order", "quad_change"]
    assert fields["quad_order"] == "200" == str(est.diagnostics.quad_order)
    change = float(fields["quad_change"])
    assert change == est.diagnostics.quad_change and fields["quad_change"] == f"{change:.17g}"
    assert change <= _FLAT * abs(est.diagnostics.min_value)


@pytest.mark.parametrize("method", bench.METHOD_ORDER)
def test_estimate_on_a_record_of_no_observation_fails(tmp_path, config_file, capsys, method):
    # every row lies before t = 1: no method has a number to give
    path = tmp_path / "empty.csv"
    path.write_text("t,u,y\n-1,1.0,\n0,2.0,\n")
    with pytest.raises(ValueError, match="needs at least one observation"):
        DataRecord.from_csv(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([
            "estimate", "--config", str(config_file), "--data", str(path), "--method", method,
        ])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: a data record needs at least one observation (y is empty)\n"


@pytest.mark.parametrize("method", ["PEM_W", "II0", "II1_UNW", "II1_W"])
def test_estimate_on_a_record_of_another_length(config_file, tmp_path, capsys, method):
    # a CSV of 203 observations estimated with the n_obs = 80 config: the
    # estimate is that of the library calls of its two steps on that
    # record, bit for bit, so nothing of it comes from config.n_obs
    config = bench.load_config(config_file)
    path = tmp_path / "data.csv"
    bench.make_record(dataclasses.replace(config, n_obs=203), 0).to_csv(path)
    record = DataRecord.from_csv(path)
    assert record.n_obs == 203
    template = config.template()
    amap = AnalyticMap(config.sigma_u2, config.sigma_v2, template.input_dist.kurtosis)

    def zero_order():
        fit = estimate_weighting(record, fit_bla(record, ZERO_ORDER_LAGS))
        return step2(fit.beta_hat, np.eye(1), amap.coeffs[:, :1], beta_cov=fit.cov_beta)

    def first_order(weighted):
        fit = estimate_weighting(record, fit_bla(record, (0, 1)))
        return step2(fit.beta_hat, fit.W if weighted else np.eye(2), amap.coeffs,
                     beta_cov=fit.cov_beta)

    expected = {
        "PEM_W": lambda: pem_estimate(record, template),
        "II0": zero_order,
        "II1_UNW": lambda: first_order(False),
        "II1_W": lambda: first_order(True),
    }[method]()
    est = bench.run_method(config, method, record)
    assert est.theta_hat[0] == expected.theta_hat[0]
    assert est.predicted_std == expected.predicted_std
    code = main([
        "estimate", "--config", str(config_file), "--data", str(path), "--method", method,
    ])
    assert code == 0
    line = f"method={method} theta_hat={expected.theta_hat[0]:.17g}"
    if expected.predicted_std is not None:
        line += f" predicted_std={expected.predicted_std:.17g}"
    line += f" iterations={expected.diagnostics.iterations}"
    assert capsys.readouterr().out == line + "\n"


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


@pytest.mark.parametrize("command, flag", [
    ("simulate", "--format=json"), ("simulate", "--desk-scale"),
    ("estimate", "--out=."), ("estimate", "--format=json"),
    ("baseline", "--seed=1"), ("baseline", "--out=."), ("baseline", "--format=json"),
    ("baseline", "--desk-scale"),
])
def test_flag_the_subcommand_does_not_read_is_a_usage_error(config_file, capsys, command, flag):
    args = [command, "--config", str(config_file), flag]
    if command == "estimate":
        args += ["--data", "data.csv", "--method", "II0"]
    with pytest.raises(SystemExit) as exit_info:
        main(args)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
