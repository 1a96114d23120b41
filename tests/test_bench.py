import json
import re

import numpy as np
import pytest

import wienerid.bench as bench
from wienerid import bla, ml
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
from wienerid.indirect import FIRST_ORDER_LAGS, ZERO_ORDER_LAGS, SimulatedMap
from wienerid.numerics import Estimate
from wienerid.signals import DistributionKind
from wienerid.system import DataRecord

from stack_checks import Raised, outcome


def small_config(**overrides):
    base = dict(
        theta_o=0.5, sigma_v2=0.2, sigma_e2=0.1, sigma_u2=1 / 3,
        input_kind=DistributionKind.GAUSSIAN_WHITE, n_obs=120,
        realizations=3, methods=("PEM_W", "II0"), master_seed=99,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def zero_input_on(bad):
    """make_record with u = 0 on realization `bad`: the order-zero and
    lag-(0, 1) fits refuse that record's regressors."""
    real = bench.make_record

    def make(config, realization):
        record = real(config, realization)
        if realization == bad:
            record.u[:] = 0.0
        return record

    return make


def huge_output_on(bad):
    """make_record with one y = 1e200 on realization `bad`: its squares
    overflow PEM's Gram and the I_hat of both auxiliary fits, while u, all
    that the simulated map reads, is untouched."""
    real = bench.make_record

    def make(config, realization):
        record = real(config, realization)
        if realization == bad:
            record.y[5] = 1e200
        return record

    return make


def assert_cells_are_run_method(config, result) -> None:
    """Each cell of the experiment holds run_method's estimate and std on
    its record."""
    for r in range(config.realizations):
        record = make_record(config, r)
        for m in config.methods:
            est = run_method(config, m, record, r)
            assert est.theta_hat[0] == result.estimates[m][r], (r, m)
            if m in PREDICTS_STD:
                assert est.predicted_std == result.predicted_stds[m][r], (r, m)


def ledger_text(drop=None, **changes) -> str:
    """The ledger of small_config() less the config key `drop`, with `changes`."""
    config = bench.config_to_dict(small_config())
    config.pop(drop, None)
    return json.dumps({"format": bench.LEDGER_FORMAT, "config": {**config, **changes}})


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

    def test_line_without_a_value_rejected(self):
        with pytest.raises(ValueError, match=r"^line 13: expected 'key = value', got 'theta_o 0.5'$"):
            parse_config(CONFIG_TEXT + "theta_o 0.5\n")

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
        ("sigma_v2", "-0.1", "variances must be >= 0"),
        ("desk_scale", "maybe", "desk_scale must be true or false, got 'maybe'"),
    ])
    def test_out_of_range_values_rejected(self, key, value, message, tmp_path, capsys):
        lines = [line for line in CONFIG_TEXT.splitlines() if not line.startswith(key)]
        text = "\n".join(lines + [f"{key} = {value}"]) + "\n"
        with pytest.raises(ValueError, match=message):
            parse_config(text)
        config = bench.config_to_dict(small_config())
        config[key] = {"s_count": int, "ml_quad_order": int, "desk_scale": str}.get(key, float)(value)
        ledger = tmp_path / "ledger.json"
        ledger.write_text(json.dumps({"format": bench.LEDGER_FORMAT, "config": config}))
        with pytest.raises(ValueError, match=message):
            load_ledger(ledger)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert cli_main(["baseline", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("key, value", [
        ("methods", ""), ("master_seed", "-1"), ("master_seed", str(2**64)),
    ])
    def test_empty_methods_and_out_of_range_seed_rejected(self, key, value, tmp_path):
        # rejected when the config is built, before any record is drawn
        message = f"master_seed must fit in an unsigned 64-bit integer, got {value}"
        if key == "methods":
            message = "methods must name at least one of"
        text = "".join(
            line + "\n" for line in CONFIG_TEXT.splitlines() if not line.startswith(key)
        ) + f"{key} = {value}\n"
        with pytest.raises(ValueError, match=message):
            parse_config(text)
        with pytest.raises(ValueError, match=message):
            small_config(**{key: () if key == "methods" else int(value)})
        ledger = tmp_path / "ledger.json"
        ledger.write_text(ledger_text(**{key: [] if key == "methods" else int(value)}))
        with pytest.raises(ValueError, match=message):
            load_ledger(ledger)
        assert small_config(master_seed=2**64 - 1).master_seed == 2**64 - 1

    @pytest.mark.parametrize("order", [2001, 50000])
    def test_quad_order_above_the_bound_rejected_before_a_run(self, order, tmp_path, capsys):
        message = f"ml_quad_order must be <= 2000, got {order}"
        text = CONFIG_TEXT.replace("ml_quad_order = 1000", f"ml_quad_order = {order}")
        with pytest.raises(ValueError, match=message):
            parse_config(text)
        with pytest.raises(ValueError, match=message):
            small_config(ml_quad_order=order)
        path = tmp_path / "big.cfg"
        path.write_text(text)
        assert cli_main(["baseline", "--config", str(path)]) == 1
        assert message in capsys.readouterr().err
        largest = CONFIG_TEXT.replace("ml_quad_order = 1000", "ml_quad_order = 2000")
        assert parse_config(largest).ml_quad_order == 2000


class TestLinearBaseline:
    def test_paper_values(self):
        config = small_config(n_obs=1000)
        assert linear_baseline_std(config) == pytest.approx(0.03, abs=1e-15)

    def test_zero_noise(self):
        config = small_config(sigma_v2=0.0, sigma_e2=0.0)
        assert linear_baseline_std(config) == 0.0

    def test_silent_input_with_noise_is_infinite(self):
        assert linear_baseline_std(small_config(sigma_u2=0.0)) == float("inf")

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
        # u = 0 on record 1: the order-zero fit's row refuses its regressor,
        # and PEM_W flags a flat criterion but fails nothing
        config = small_config()
        monkeypatch.setattr(bench, "make_record", zero_input_on(1))
        result = run_experiment(config)
        assert len(result.failures) == 1
        assert result.failures[0].method == "II0"
        assert result.failures[0].realization == 1
        assert result.failures[0].message.startswith("RankDeficiencyError")
        summary = result.summary("II0")
        assert summary.failures == 1
        good = result.estimates["II0"][np.isfinite(result.estimates["II0"])]
        assert summary.mean == pytest.approx(good.mean())

    def test_desk_scale_caps_ml_runs(self):
        # desk scale caps every method of an experiment that runs ML
        with_ml = dict(methods=("ML", "II0"))
        assert bench._realizations(small_config(realizations=500, desk_scale=True, **with_ml)) == 200
        assert bench._realizations(small_config(realizations=500, **with_ml)) == 500
        assert bench._realizations(small_config(realizations=50, desk_scale=True, **with_ml)) == 50
        assert bench._realizations(small_config(realizations=500, desk_scale=True)) == 500

    def test_ml_runs_only_on_its_capped_realizations(self, monkeypatch):
        # and so does every other method of the experiment
        monkeypatch.setattr(bench, "DESK_ML_REALIZATIONS", 2)
        config = small_config(methods=("ML", "II0"), desk_scale=True)
        result = run_experiment(config)
        assert result.seed_ledger["runs"] == {"ML": 2, "II0": 2}
        assert [len(result.estimates[m]) for m in ("ML", "II0")] == [2, 2]
        assert np.isfinite(result.estimates["ML"]).all()
        assert replay_realization(config, 1).keys() == {"ML", "II0"}
        with pytest.raises(ValueError, match=r"^realization 2 outside 0\.\.1$"):
            replay_realization(config, 2)

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
    """II0's order-zero fit is made only where II0 is asked for: PEM_W and
    Step 2 take no start.  ML starts from the II1_W of its record."""

    def test_zero_order_fitted_once_per_realization(self, monkeypatch):
        # one stacked fit at the order-zero lags per chunk, each realization
        # in one of them
        calls = []
        real = bla.fit_bla

        def counted(records, lags):
            if lags == ZERO_ORDER_LAGS:
                calls.append(len(records))
            return real(records, lags)

        monkeypatch.setattr(bla, "fit_bla", counted)
        run_experiment(small_config(methods=("PEM_W", "II0", "II1_UNW", "II1_W")))
        assert calls == [3]
        del calls[:]
        run_experiment(small_config(methods=("II0",), realizations=bench.CHUNK + 1))
        assert calls == [bench.CHUNK, 1]
        # the simulated Step 2 without II0 as a method fits no II0
        del calls[:]
        run_experiment(small_config(methods=("II1_UNW", "II1_W"), s_count=3, n_obs=200))
        assert len(calls) == 0

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

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="^unknown method 'II2'$"):
            run_method(self.config, "II2", make_record(self.config, 0))


class TestRecordContext:
    """run_experiment fits the BLA once per chunk and builds the simulated
    map once per record, for every method that needs them, with the
    estimates, stds and failure messages of per-method calls that share
    nothing."""

    methods = ("ML", "II1_UNW", "II1_W")

    @pytest.fixture
    def counts(self, monkeypatch):
        # fit_bla counts the records it fits, over all its stacked calls
        counts = {"fit_bla": 0, "SimulatedMap": 0}
        real_fit, real_build = bla.fit_bla, SimulatedMap.__post_init__

        def counted_fit(records, lags):
            counts["fit_bla"] += len(records)
            return real_fit(records, lags)

        def counted_build(self):
            counts["SimulatedMap"] += 1
            real_build(self)

        monkeypatch.setattr(bla, "fit_bla", counted_fit)
        monkeypatch.setattr(SimulatedMap, "__post_init__", counted_build)
        return counts

    def test_one_fit_and_one_map_per_realization(self, counts):
        config = small_config(methods=self.methods, s_count=3, desk_scale=True)
        result = run_experiment(config)
        assert not result.failures
        assert counts == {"fit_bla": 3, "SimulatedMap": 3}
        # a lone call builds its own
        run_method(config, "ML", make_record(config, 0), realization=0)
        assert counts == {"fit_bla": 4, "SimulatedMap": 4}

    @pytest.mark.parametrize("s_count", [None, 3])
    def test_estimates_equal_unshared_calls(self, s_count):
        config = small_config(methods=self.methods, s_count=s_count, desk_scale=True)
        assert_cells_are_run_method(config, run_experiment(config))

    def test_rank_deficient_regressors_fail_each_method(self):
        # sigma_u2 = 0 gives u = 0: the lag-(0, 1) fit refuses its regressors
        config = small_config(methods=self.methods, sigma_u2=0.0, desk_scale=True)
        record = make_record(config, 0)
        messages = {m: str(outcome(lambda m=m: run_method(config, m, record, realization=0)))
                    for m in ("II1_UNW", "II1_W")}
        assert messages["II1_UNW"].startswith("RankDeficiencyError")
        result = run_experiment(config)
        assert sorted((f.realization, f.method, f.message) for f in result.failures) == sorted(
            (r, m, messages[m]) for r in range(config.realizations) for m in messages
        )
        # ML falls back to its unseeded search
        assert np.isfinite(result.estimates["ML"]).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_input_squares_fail_the_fit(self):
        # u of 1e-160 has subnormal squares, so J_hat's inverse overflows:
        # II1_UNW and II1_W fail with the fit's LinAlgError, and ML, without
        # its II1_W start, scans the whole bracket
        config = small_config(methods=self.methods, desk_scale=True)
        record = make_record(config, 0)
        tiny = DataRecord(u=record.u * 1e-160, y=record.y)
        for m in ("II1_UNW", "II1_W"):
            with pytest.raises(np.linalg.LinAlgError, match="cov_beta is not finite"):
                run_method(config, m, tiny)
        est = run_method(config, "ML", tiny)
        assert est.diagnostics.iterations >= ml.GRID_POINTS and not est.diagnostics.fallback

    def test_failed_fit_keeps_nothing(self, monkeypatch):
        # one y = 1e200 on record 1: its simulated map reads only u and
        # builds, its row of the stacked fit overflows I_hat, that error
        # fails II1_UNW and II1_W there, ML fails on its own likelihood as
        # its run_method does, and the other rows keep their estimates
        config = small_config(methods=self.methods, s_count=3, desk_scale=True)
        clean = run_experiment(config)
        monkeypatch.setattr(bench, "make_record", huge_output_on(1))
        result = run_experiment(config)
        record = bench.make_record(config, 1)
        messages = {m: str(outcome(lambda m=m: run_method(config, m, record, realization=1)))
                    for m in self.methods}
        assert messages["II1_UNW"].startswith("LinAlgError: I_hat is not finite")
        assert messages["ML"].startswith("QuadratureUnderflowError")
        assert [(f.realization, f.method, f.message) for f in result.failures] == [
            (1, m, messages[m]) for m in self.methods]
        for m in self.methods:
            for r in (0, 2):
                assert result.estimates[m][r] == clean.estimates[m][r], (r, m)

    def test_map_error_comes_before_fit_error(self, monkeypatch):
        # a record on which both the simulated map and the BLA fit fail
        # records the map's error
        config = small_config(methods=self.methods, s_count=3, desk_scale=True)

        def failing_map(self_map):
            raise np.linalg.LinAlgError("synthetic map failure")

        def failing_fit(data, lags):
            raise np.linalg.LinAlgError("synthetic fit failure")

        monkeypatch.setattr(SimulatedMap, "__post_init__", failing_map)
        monkeypatch.setattr(bla, "fit_bla", failing_fit)
        result = run_experiment(config)
        assert [(f.realization, f.method, f.message) for f in result.failures] == [
            (r, m, "LinAlgError: synthetic map failure")
            for r in range(config.realizations) for m in ("II1_UNW", "II1_W")
        ]
        assert np.isfinite(result.estimates["ML"]).all()

    def test_fit_error_of_another_type_fails_ml_too(self, monkeypatch):
        # only a NumericsError or ValueError from ML's II1_W start leaves ML
        # to its unseeded scan; any other error is ML's own failure.  The
        # stacked fit raises it as a whole on any stack holding record 1, so
        # it fails every row of that chunk
        config = small_config(methods=self.methods, desk_scale=True)
        bad_y = make_record(config, 1).y
        real_fit = bla.fit_bla

        def failing_with_record_1(records, lags):
            if any(np.array_equal(d.y, bad_y) for d in records):
                raise RuntimeError("synthetic fit failure")
            return real_fit(records, lags)

        monkeypatch.setattr(bla, "fit_bla", failing_with_record_1)
        result = run_experiment(config)
        assert [(f.realization, f.method, f.message) for f in result.failures] == [
            (r, m, "RuntimeError: synthetic fit failure")
            for r in range(config.realizations) for m in self.methods
        ]
        with pytest.raises(RuntimeError, match="synthetic fit failure"):
            run_method(config, "ML", make_record(config, 1), 1)
        # alone, record 0 is a stack without record 1
        assert np.isfinite(run_method(config, "ML", make_record(config, 0), 0).theta_hat).all()


class FailureParity:
    """A record that fails in run_experiment gives, in order, the failures
    of per-method run_method calls on the same records, and the other rows
    keep the estimates of a clean run."""

    methods = ("PEM_W", "II0", "II1_UNW", "II1_W")
    BAD = 1  # the realization made to fail

    def expected_failures(self, config):
        out = []
        for r in range(config.realizations):
            record = bench.make_record(config, r)
            for m in [m for m in METHOD_ORDER if m in config.methods]:
                own = outcome(lambda: run_method(config, m, record, realization=r))
                if isinstance(own, Raised):
                    out.append((r, m, str(own)))
        return out

    def assert_parity(self, config, clean, failing, bad=BAD):
        """The failures of the bad record are `failing`, (method, error
        type) pairs; the other records keep the clean run's estimates."""
        result = run_experiment(config)
        failures = [(f.realization, f.method, f.message) for f in result.failures]
        assert failures == self.expected_failures(config)
        assert [(r, m, msg.split(":")[0]) for r, m, msg in failures] == [
            (bad, m, kind) for m, kind in failing]
        for m in config.methods:
            for r in range(config.realizations):
                if r != bad:
                    assert result.estimates[m][r] == clean.estimates[m][r], (r, m)
                    if m in PREDICTS_STD:
                        assert result.predicted_stds[m][r] == clean.predicted_stds[m][r], (r, m)
        return result

    def assert_overflow_parity(self, monkeypatch, config, bad):
        """One y = 1e200 on record `bad` overflows PEM's Gram and the I_hat
        of both auxiliary fits: four typed errors, in METHOD_ORDER."""
        clean = run_experiment(config)
        monkeypatch.setattr(bench, "make_record", huge_output_on(bad))
        self.assert_parity(config, clean, [
            ("PEM_W", "CostEvaluationError"), ("II0", "LinAlgError"),
            ("II1_UNW", "LinAlgError"), ("II1_W", "LinAlgError")], bad)


class TestStackedStep2(FailureParity):
    """run_experiment runs the Step 2 of II0, II1_UNW and II1_W over every
    realization at once, with the failure parity of FailureParity."""

    @pytest.mark.parametrize("theta_o", [0.5, 4.0])
    def test_ii0_rows_are_run_method(self, monkeypatch, theta_o):
        # every row, the failing one too, is run_method's II0 bit for bit;
        # at theta_o = 4, outside the bracket, each row is its flagged edge
        config = small_config(theta_o=theta_o, methods=("II0",), realizations=4)
        monkeypatch.setattr(bench, "make_record", huge_output_on(self.BAD))
        result = run_experiment(config)
        assert [(f.realization, f.message.split(":")[0]) for f in result.failures] == [
            (self.BAD, "LinAlgError")]
        for r in range(config.realizations):
            record = bench.make_record(config, r)
            if r == self.BAD:
                own = outcome(lambda: run_method(config, "II0", record, r))
                assert result.failures[0].message == str(own) and own.type is np.linalg.LinAlgError
                assert np.isnan(result.estimates["II0"][r])
                continue
            est = run_method(config, "II0", record, r)
            assert est.theta_hat[0] == result.estimates["II0"][r], r
            assert est.predicted_std == result.predicted_stds["II0"][r], r
            assert est.diagnostics.at_bracket_edge == (theta_o == 4.0), r
            if theta_o == 4.0:
                assert est.theta_hat[0] == 3.0 and est.predicted_std == np.inf

    def test_rank_deficient_simulated_map(self):
        # sigma_u2 = 0 gives u = 0: every record's simulated map refuses it
        config = small_config(methods=self.methods, s_count=3, sigma_u2=0.0)
        result = run_experiment(config)
        failures = [(f.realization, f.method, f.message) for f in result.failures]
        assert failures == self.expected_failures(config)
        assert {(r, m) for r, m, _ in failures} >= {
            (r, m) for r in range(3) for m in ("II1_UNW", "II1_W")}
        assert all(msg.startswith("RankDeficiencyError") for r, m, msg in failures if m != "II0")

    def test_overflowing_output(self, monkeypatch):
        self.assert_overflow_parity(monkeypatch, small_config(methods=self.methods), self.BAD)

    def test_weighting_not_positive_definite(self, monkeypatch):
        config = small_config(methods=self.methods, s_count=3)
        clean = run_experiment(config)
        bad_y = make_record(config, self.BAD).y
        real = bla.estimate_weighting

        def indefinite_on_bad(records, fit):
            # II0's order-zero fit reads no W, and keeps its own
            est = real(records, fit)
            for i, record in enumerate(records):
                if np.array_equal(record.y, bad_y) and fit.lags == FIRST_ORDER_LAGS:
                    est.W[i] = [[1.0, 0.0], [0.0, -1.0]]
            return est

        monkeypatch.setattr(bla, "estimate_weighting", indefinite_on_bad)
        result = self.assert_parity(config, clean, [("II1_W", "ValueError")])
        assert result.failures[0].message.startswith("ValueError: W must be positive definite")
        assert np.isfinite(result.estimates["II1_UNW"]).all()

    def test_non_finite_map_coefficient(self, monkeypatch):
        config = small_config(methods=self.methods, s_count=3)
        clean = run_experiment(config)
        bad_seed = bench._simulation_seed(config, self.BAD)
        real = SimulatedMap.__post_init__

        def nan_on_bad(self_map):
            real(self_map)
            if self_map.seed == bad_seed:
                self_map.coeffs[2, 1] = np.nan

        monkeypatch.setattr(SimulatedMap, "__post_init__", nan_on_bad)
        result = self.assert_parity(config, clean, [("II1_UNW", "ValueError"), ("II1_W", "ValueError")])
        assert result.failures[0].message == "ValueError: coeffs must be finite"

    def test_tracer_sees_every_record_and_no_run_method(self, monkeypatch):
        # perfbench's tracer wraps the module-global make_record and
        # run_method; its make_record metric needs one span per realization.
        # run_experiment runs every method in its own record loop, so the
        # run_method spans stay empty
        records, runs = [], []
        real_make = bench.make_record

        def traced_make(config, realization):
            records.append(realization)
            return real_make(config, realization)

        monkeypatch.setattr(bench, "make_record", traced_make)
        monkeypatch.setattr(bench, "run_method", lambda *args, **kwargs: runs.append(args))
        config = small_config(methods=METHOD_ORDER, desk_scale=True)
        result = run_experiment(config)
        assert records == list(range(config.realizations))
        assert runs == []
        assert not result.failures

    def test_replay_of_a_large_table(self, gaussian_experiment):
        config = gaussian_experiment.config
        for r in (0, 1, 499, 998, 999):
            replayed = replay_realization(config, r)
            assert replayed == {m: gaussian_experiment.estimates[m][r] for m in config.methods}, r


class TestChunkedPem(FailureParity):
    """run_experiment runs PEM_W and the order-zero and lag-(0, 1) BLA fits
    on chunks of CHUNK records: a full chunk and the last partial one
    give run_method's estimate on each record, and a row that fails
    anywhere in its chunk gives the failures of per-method run_method
    calls.  An exception that a stacked call raises as a whole fails every
    row of its chunk."""

    @pytest.mark.parametrize("realizations", [1, bench.CHUNK + 1])
    def test_rows_match_run_method(self, realizations):
        config = small_config(methods=self.methods, realizations=realizations)
        result = run_experiment(config)
        assert not result.failures
        assert_cells_are_run_method(config, result)

    @pytest.mark.parametrize("bad", [0, bench.CHUNK // 2, bench.CHUNK - 1, bench.CHUNK])
    def test_overflowing_row_anywhere_in_its_chunk(self, monkeypatch, bad):
        # first, middle and last of the full chunk, and the partial chunk's one row
        config = small_config(methods=self.methods, realizations=bench.CHUNK + 1)
        self.assert_overflow_parity(monkeypatch, config, bad)

    @pytest.mark.parametrize("bad", [0, bench.CHUNK // 2, bench.CHUNK - 1, bench.CHUNK])
    def test_zero_input_row_anywhere_in_its_chunk(self, monkeypatch, bad):
        # u = 0: the order-zero and lag-(0, 1) fits refuse that row's
        # regressors, and ML, started nowhere, flags its flat likelihood
        config = small_config(methods=("ML",) + self.methods, realizations=bench.CHUNK + 1,
                              n_obs=60, desk_scale=True)
        clean = run_experiment(config)
        monkeypatch.setattr(bench, "make_record", zero_input_on(bad))
        result = self.assert_parity(config, clean, [
            (m, "RankDeficiencyError") for m in ("II0", "II1_UNW", "II1_W")], bad)
        assert result.estimates["ML"][bad] == result.estimates["PEM_W"][bad] == 0.0

    @pytest.mark.parametrize("target", ["fit_bla", "estimate_weighting"])
    @pytest.mark.parametrize("bad", [0, bench.CHUNK])
    def test_stack_wide_fit_error_fails_every_row_of_its_chunk(self, monkeypatch, target, bad):
        # the fit raises as a whole on the chunk holding record `bad`: the
        # full chunk at 0, the partial one at CHUNK, at both orders
        config = small_config(methods=self.methods, realizations=bench.CHUNK + 1)
        clean = run_experiment(config)
        bad_y = make_record(config, bad).y
        real = getattr(bla, target)

        def refusing(records, *args):
            if any(np.array_equal(d.y, bad_y) for d in records):
                raise RuntimeError("synthetic stack failure")
            return real(records, *args)

        monkeypatch.setattr(bla, target, refusing)
        result = run_experiment(config)
        chunk = range(bench.CHUNK) if bad == 0 else [bench.CHUNK]
        failing = ["II0", "II1_UNW", "II1_W"]
        assert [(f.realization, f.method, f.message) for f in result.failures] == [
            (r, m, "RuntimeError: synthetic stack failure") for r in chunk for m in failing]
        for m in config.methods:
            for r in range(config.realizations):
                if not (r in chunk and m in failing):
                    assert result.estimates[m][r] == clean.estimates[m][r], (r, m)

    def test_stack_wide_error_fails_every_row_of_its_chunk(self, monkeypatch):
        config = small_config(methods=("PEM_W", "II0"), realizations=bench.CHUNK + 1)
        clean = run_experiment(config)

        def refusing(records, template):
            raise RuntimeError("synthetic stack failure")

        monkeypatch.setattr(bench, "pem_estimate", refusing)
        result = run_experiment(config)
        assert [(f.realization, f.method, f.message) for f in result.failures] == [
            (r, "PEM_W", "RuntimeError: synthetic stack failure") for r in range(config.realizations)]
        assert np.isnan(result.estimates["PEM_W"]).all()
        np.testing.assert_array_equal(result.estimates["II0"], clean.estimates["II0"])

    def test_replay_on_both_sides_of_a_chunk_boundary(self):
        config = small_config(methods=self.methods, realizations=bench.CHUNK + 1)
        result = run_experiment(config)
        for r in (bench.CHUNK - 1, bench.CHUNK):
            assert replay_realization(config, r) == {
                m: result.estimates[m][r] for m in config.methods}, r


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

    @pytest.mark.parametrize("text, error", [
        (ledger_text(drop="input_kind"), "ValueError: missing required keys: input_kind)"),
        (ledger_text(bogus=1), "ValueError: config: unknown key 'bogus')"),
        (ledger_text(theta_o="half"), "ValueError: theta_o must be a number, got 'half')"),
        (f"[{ledger_text()}]", "AttributeError: "),
        ("realization,method,theta_hat\n", "JSONDecodeError: "),
        (ledger_text(s_count=3.0), "ValueError: s_count must be an integer, got '3.0')"),
        (ledger_text(theta_o=True), "ValueError: theta_o must be a number, got 'true')"),
        (ledger_text(n_obs=1000.0), "ValueError: n_obs must be an integer, got '1000.0')"),
        (json.dumps({"format": "wienerid-ledger-v0", "config": {}}),
         "ValueError: format 'wienerid-ledger-v0')"),
    ], ids=["no_input_kind", "unknown_key", "non_numeric_theta_o", "json_list", "not_json",
            "float_s_count", "bool_theta_o", "float_n_obs", "other_format"])
    def test_malformed_ledger_rejected(self, tmp_path, text, error):
        path = tmp_path / "ledger.json"
        path.write_text(text)
        prefix = rf"^{re.escape(str(path))}: not a wienerid-ledger-v1 ledger \({re.escape(error)}"
        with pytest.raises(ValueError, match=prefix):
            load_ledger(path)

    @pytest.mark.parametrize("text, desk_scale", [("false", False), ("true", True)])
    def test_ledger_string_read_as_its_cfg_text(self, tmp_path, text, desk_scale):
        # a JSON string is the text a .cfg file would hold, not a truthy value
        path = tmp_path / "ledger.json"
        path.write_text(ledger_text(desk_scale=text))
        assert load_ledger(path) == small_config(desk_scale=desk_scale)

    def test_unknown_format_rejected(self, tmp_path):
        result = run_experiment(small_config(realizations=1))
        with pytest.raises(ValueError, match="format"):
            emit_report(result, fmt="xml", out_dir=tmp_path)

    @pytest.mark.parametrize("name, text", [
        ("raw.csv", ""),
        ("raw.csv", "realization,method,theta_hat\n0,II0\n"),
        ("raw.json", ""),
        ("raw.json", '[{"realization": 0, "theta_hat": 0.5}]'),
        ("raw.json", '{"realization": 0}'),
    ], ids=["empty-csv", "short-csv-row", "empty-json", "json-row-without-method", "json-object"])
    def test_malformed_raw_file_rejected(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError, match="not a raw estimates file") as excinfo:
            load_raw(path)
        assert str(path) in str(excinfo.value)


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


class TestRealizationIndex:
    """A realization is an integer >= 0 at every entry point: int() would
    truncate 1.9 to realization 1's streams, and a negative one is no
    cell of any experiment."""

    @pytest.fixture(params=[None, 3], ids=["analytic", "s_count=3"])
    def config(self, request):
        return small_config(methods=METHOD_ORDER, s_count=request.param, desk_scale=True)

    @pytest.mark.parametrize("realization, error, message", [
        (1.9, TypeError, "realization must be an integer, got float"),
        (-1, ValueError, "realization must fit in an unsigned 64-bit integer, got -1"),
    ], ids=["float", "negative"])
    def test_make_record(self, config, realization, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            make_record(config, realization)
        numpy_int, plain = make_record(config, np.int64(1)), make_record(config, 1)
        assert numpy_int.y.tobytes() == plain.y.tobytes()

    @pytest.mark.parametrize("method", METHOD_ORDER)
    @pytest.mark.parametrize("realization, error", [
        (-1, ValueError), (1.5, TypeError), (1.0, TypeError)], ids=["-1", "1.5", "1.0"])
    def test_run_method(self, config, method, realization, error):
        with pytest.raises(error, match="^realization must"):
            run_method(config, method, make_record(config, 1), realization)

    @pytest.mark.parametrize("realization, error, message", [
        (1.5, TypeError, "realization must be an integer"),
        (-1, ValueError, r"realization -1 outside 0\.\.2"),
    ], ids=["float", "negative"])
    def test_replay_realization(self, config, realization, error, message):
        with pytest.raises(error, match=f"^{message}"):
            replay_realization(config, realization)
