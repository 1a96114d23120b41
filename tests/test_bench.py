import json

import numpy as np
import pytest

import wienerid.bench as bench
from wienerid.bench import (
    METHOD_ORDER,
    PREDICTS_STD,
    ExperimentConfig,
    emit_report,
    linear_baseline_std,
    load_ledger,
    load_raw,
    make_record,
    parse_config,
    replay_realization,
    run_experiment,
    run_method,
)
from wienerid.cli import main as cli_main
from wienerid.numerics import Estimate
from wienerid.signals import DistributionKind


def small_config(**overrides):
    base = dict(
        theta_o=0.5, sigma_v2=0.2, sigma_e2=0.1, sigma_u2=1 / 3,
        input_kind=DistributionKind.GAUSSIAN_WHITE, n_obs=120,
        realizations=3, methods=("PEM_W", "II0"), master_seed=99,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


CONFIG_TEXT = """\
# benchmark configuration
theta_o = 0.5
sigma_v2 = 0.2
sigma_e2 = 0.1
sigma_u2 = 0.3333333333333333
input_kind = gaussian
n_obs = 1000
realizations = 4
methods = PEM_W, II0, II1_UNW, II1_W
master_seed = 20260809
ml_quad_order = 1000
desk_scale = false
"""


class TestConfigParsing:
    def test_full_round_trip(self):
        config = parse_config(CONFIG_TEXT)
        assert config.theta_o == 0.5
        assert config.input_kind is DistributionKind.GAUSSIAN_WHITE
        assert config.methods == ("PEM_W", "II0", "II1_UNW", "II1_W")
        assert config.master_seed == 20260809
        assert bench.config_from_dict(bench.config_to_dict(config)) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config(CONFIG_TEXT + "bogus = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config(CONFIG_TEXT + "theta_o = 0.4\n")

    def test_missing_required_rejected(self):
        with pytest.raises(ValueError, match="missing required"):
            parse_config("theta_o = 0.5\n")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown methods"):
            parse_config(CONFIG_TEXT.replace("PEM_W,", "WRONG,"))

    def test_uniform_and_flags(self):
        text = CONFIG_TEXT.replace("gaussian", "uniform").replace(
            "desk_scale = false", "desk_scale = true"
        )
        config = parse_config(text)
        assert config.input_kind is DistributionKind.UNIFORM_WHITE
        assert config.desk_scale

    def test_unknown_input_kind_rejected(self):
        with pytest.raises(ValueError, match=r"input_kind must be one of \['gaussian', 'uniform'\]"):
            parse_config(CONFIG_TEXT.replace("input_kind = gaussian", "input_kind = binary"))

    def test_s_count_optional(self):
        config = parse_config(CONFIG_TEXT + "s_count = 7\n")
        assert config.s_count == 7
        config = parse_config(CONFIG_TEXT + "s_count = none\n")
        assert config.s_count is None

    @pytest.mark.parametrize("key, value, message", [
        ("s_count", "0", "s_count must be none or >= 1"),
        ("ml_quad_order", "0", "ml_quad_order must be >= 1"),
        ("theta_o", "nan", "theta_o and the variances must be finite"),
        ("sigma_e2", "inf", "theta_o and the variances must be finite"),
    ])
    def test_out_of_range_values_rejected(self, key, value, message, tmp_path, capsys):
        lines = [line for line in CONFIG_TEXT.splitlines() if not line.startswith(key)]
        text = "\n".join(lines + [f"{key} = {value}"]) + "\n"
        with pytest.raises(ValueError, match=message):
            parse_config(text)
        config = bench.config_to_dict(small_config())
        config[key] = float(value) if key in ("theta_o", "sigma_e2") else int(value)
        ledger = tmp_path / "ledger.json"
        ledger.write_text(json.dumps({"format": bench.LEDGER_FORMAT, "config": config}))
        with pytest.raises(ValueError, match=message):
            load_ledger(ledger)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert cli_main(["baseline", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestLinearBaseline:
    def test_paper_values(self):
        config = small_config(n_obs=1000)
        assert linear_baseline_std(config) == pytest.approx(0.03, abs=1e-15)

    def test_zero_noise(self):
        config = small_config(sigma_v2=0.0, sigma_e2=0.0)
        assert linear_baseline_std(config) == 0.0

    def test_quarter_sample_doubles(self):
        a = linear_baseline_std(small_config(n_obs=4000))
        b = linear_baseline_std(small_config(n_obs=1000))
        assert b == pytest.approx(2 * a, rel=1e-12)


class TestRunExperiment:
    def test_deterministic_repeat(self):
        config = small_config()
        first = run_experiment(config)
        second = run_experiment(config)
        for method in config.methods:
            np.testing.assert_array_equal(first.estimates[method], second.estimates[method])

    def test_replay_matches_stored_estimates(self):
        config = small_config()
        result = run_experiment(config)
        replayed = replay_realization(config, 1)
        for method, value in replayed.items():
            assert value == result.estimates[method][1]

    def test_summary_statistics(self):
        config = small_config()
        result = run_experiment(config)
        s = result.summary("PEM_W")
        values = result.estimates["PEM_W"]
        assert s.mean == pytest.approx(values.mean())
        assert s.std == pytest.approx(values.std(ddof=1))
        assert s.failures == 0
        assert s.n_runs == 3

    def test_consistency_toward_truth(self):
        config = small_config(n_obs=2000, realizations=6, methods=("II1_W",))
        result = run_experiment(config)
        assert abs(result.summary("II1_W").mean - 0.5) < 0.1

    def test_failures_recorded_not_dropped(self, monkeypatch):
        config = small_config()
        real_run = bench.run_method

        def flaky(cfg, method, record, realization=0, **kwargs):
            if method == "II0" and realization == 1:
                raise RuntimeError("synthetic failure")
            return real_run(cfg, method, record, realization, **kwargs)

        monkeypatch.setattr(bench, "run_method", flaky)
        result = run_experiment(config)
        assert len(result.failures) == 1
        assert result.failures[0].method == "II0"
        assert result.failures[0].realization == 1
        summary = result.summary("II0")
        assert summary.failures == 1
        good = result.estimates["II0"][np.isfinite(result.estimates["II0"])]
        assert summary.mean == pytest.approx(good.mean())

    def test_desk_scale_caps_ml_runs(self):
        assert bench._ml_runs(small_config(realizations=500, desk_scale=True)) == 200
        assert bench._ml_runs(small_config(realizations=500)) == 500
        assert bench._ml_runs(small_config(realizations=50, desk_scale=True)) == 50

    def test_simulated_step2_path(self):
        config = small_config(methods=("II1_W",), s_count=3, realizations=2, n_obs=200)
        result = run_experiment(config)
        assert result.summary("II1_W").failures == 0
        again = run_experiment(config)
        np.testing.assert_array_equal(result.estimates["II1_W"], again.estimates["II1_W"])

    def test_simulated_step2_rank_deficiency_recorded(self):
        # sigma_u2 = 0 gives u = 0: the simulated map refuses its regressors
        config = small_config(methods=("II1_UNW", "II1_W"), s_count=3, realizations=2, sigma_u2=0.0)
        result = run_experiment(config)
        assert len(result.failures) == 4
        assert all(f.message.startswith("RankDeficiencyError") for f in result.failures)
        assert np.all(np.isnan(result.estimates["II1_UNW"]))
        assert np.all(np.isnan(result.estimates["II1_W"]))


class TestStartChain:
    """run_experiment fits II0 once per record and seeds the other methods
    with it; ML starts from run_method's own II1_W."""

    def test_zero_order_fitted_once_per_realization(self, monkeypatch):
        calls = []
        real = bench.zero_order_estimate

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(bench, "zero_order_estimate", counted)
        run_experiment(small_config(methods=("PEM_W", "II0", "II1_UNW", "II1_W")))
        assert len(calls) == 3

    def test_ml_starts_from_the_experiment_ii1_w(self, monkeypatch):
        config = small_config(methods=("ML", "II1_W"), realizations=2, desk_scale=True)
        starts = []
        real = bench.ml_estimate

        def recorded(record, template, settings, start=None):
            starts.append(start)
            return real(record, template, settings, start=start)

        monkeypatch.setattr(bench, "ml_estimate", recorded)
        result = run_experiment(config)
        assert len(starts) == 2
        for r, start in enumerate(starts):
            assert start.theta_hat[0] == result.estimates["II1_W"][r]
            assert start.predicted_std == result.predicted_stds["II1_W"][r]


class TestRunMethod:
    # every method on one small record; ML at desk scale (order 200)
    config = small_config(methods=METHOD_ORDER, realizations=1, desk_scale=True)

    @pytest.fixture(scope="class")
    def experiment(self):
        return run_experiment(self.config)

    @pytest.mark.parametrize("method", METHOD_ORDER)
    def test_returns_the_experiment_cell(self, experiment, method):
        est = run_method(self.config, method, make_record(self.config, 0), realization=0)
        assert isinstance(est, Estimate)
        assert est.theta_hat.shape == (1,)
        assert est.theta_hat[0] == experiment.estimates[method][0]
        if method in PREDICTS_STD:
            assert est.predicted_std == experiment.predicted_stds[method][0]
        else:
            assert est.predicted_std is None


class TestEmitReport:
    def test_csv_layout_and_round_trip(self, tmp_path):
        config = small_config()
        result = run_experiment(config)
        paths = emit_report(result, fmt="csv", out_dir=tmp_path)
        raw_lines = paths["raw"].read_text().strip().splitlines()
        assert raw_lines[0] == "realization,method,theta_hat"
        assert len(raw_lines) == 1 + 2 * 3
        rows = load_raw(paths["raw"])
        for r, method, value in rows:
            assert value == result.estimates[method][r]

    def test_summary_consistent_with_raw(self, tmp_path):
        config = small_config()
        result = run_experiment(config)
        paths = emit_report(result, fmt="csv", out_dir=tmp_path)
        rows = load_raw(paths["raw"])
        summary_lines = paths["summary"].read_text().strip().splitlines()[1:]
        for line in summary_lines:
            method, mean = line.split(",")[0], float(line.split(",")[1])
            column = [v for _, m, v in rows if m == method]
            assert mean == pytest.approx(np.mean(column), rel=1e-15)

    def test_json_round_trip(self, tmp_path):
        config = small_config()
        result = run_experiment(config)
        paths = emit_report(result, fmt="json", out_dir=tmp_path)
        rows = load_raw(paths["raw"])
        for r, method, value in rows:
            assert value == result.estimates[method][r]
        summary = json.loads(paths["summary"].read_text())
        assert {row["method"] for row in summary} == {"PEM_W", "II0"}

    def test_ledger_supports_bit_exact_replay(self, tmp_path):
        config = small_config()
        result = run_experiment(config)
        paths = emit_report(result, fmt="csv", out_dir=tmp_path)
        recovered = load_ledger(paths["ledger"])
        assert recovered == config
        replayed = replay_realization(recovered, 2)
        stored = {m: v for r, m, v in load_raw(paths["raw"]) if r == 2}
        assert replayed == stored

    def test_ledger_with_unknown_input_kind_rejected(self, tmp_path):
        paths = emit_report(run_experiment(small_config(realizations=1)), out_dir=tmp_path)
        ledger = json.loads(paths["ledger"].read_text())
        ledger["config"]["input_kind"] = "binary"
        paths["ledger"].write_text(json.dumps(ledger))
        with pytest.raises(ValueError, match=r"input_kind must be one of \['gaussian', 'uniform'\]"):
            load_ledger(paths["ledger"])

    def test_unknown_format_rejected(self, tmp_path):
        result = run_experiment(small_config(realizations=1))
        with pytest.raises(ValueError, match="format"):
            emit_report(result, fmt="xml", out_dir=tmp_path)


class TestBenchmarkSetupInvariants:
    """Sanity of the full gaussian benchmark (session fixtures); the ML column
    runs in the desk-scale acceptance mode."""

    @pytest.mark.parametrize(
        "smaller, larger",
        [("ML", "PEM_W"), ("PEM_W", "II1_W"), ("II1_W", "II0"), ("II1_W", "II1_UNW")],
    )
    def test_method_ordering_with_slack(
        self, gaussian_experiment, ml_desk_experiment, smaller, larger
    ):
        stds = {m: gaussian_experiment.summary(m).std for m in gaussian_experiment.estimates}
        stds["ML"] = ml_desk_experiment.summary("ML").std
        assert stds[smaller] <= 1.1 * stds[larger], (
            f"std({smaller}) = {stds[smaller]:.4f} vs 1.1 * std({larger}) "
            f"= {1.1 * stds[larger]:.4f}"
        )

    def test_all_means_consistent_with_truth(self, gaussian_experiment, ml_desk_experiment):
        for result in (gaussian_experiment, ml_desk_experiment):
            for method in result.estimates:
                s = result.summary(method)
                band = 3.0 * s.std / np.sqrt(s.n_runs)
                assert abs(s.mean - 0.5) <= band, (
                    f"{method}: mean {s.mean:.4f} outside 0.5 +/- {band:.4f}"
                )


class TestMakeRecord:
    def test_fresh_streams_per_realization(self):
        config = small_config()
        a = make_record(config, 0)
        b = make_record(config, 1)
        assert not np.allclose(a.u, b.u)
        assert not np.allclose(a.y, b.y)

    def test_uniform_input_respected(self):
        config = small_config(input_kind=DistributionKind.UNIFORM_WHITE, n_obs=5000)
        record = make_record(config, 0)
        assert np.all(np.abs(record.u) <= np.sqrt(3 * config.sigma_u2))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            small_config(realizations=0)
        with pytest.raises(ValueError):
            small_config(methods=("NOPE",))
        with pytest.raises(ValueError):
            small_config(n_obs=1)
