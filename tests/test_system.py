import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wienerid.bench import make_record
from wienerid.bla import estimate_weighting, fit_bla
from wienerid.indirect import zero_order_fit
from wienerid.pem import pem_estimate
from wienerid.signals import DistributionKind, gaussian_white, gen_white
from wienerid.system import (
    DataRecord,
    FirStructure,
    NonFiniteDataError,
    SystemSpec,
    cubic,
    identity,
    linear_output,
    paper_fir,
    polynomial,
    simulate,
    stack_records,
)

from suite_config import table_config


def paper_spec(theta=0.5, sigma_v2=0.2, sigma_e2=0.1, nl=None):
    return SystemSpec(
        fir=paper_fir(),
        theta=np.array([theta]),
        nonlinearity=nl if nl is not None else cubic(),
        sigma_v2=sigma_v2,
        sigma_e2=sigma_e2,
        input_dist=gaussian_white(1.0 / 3.0),
    )


class TestLinearOutput:
    def test_direct_convolution(self):
        out = linear_output(paper_fir(), [0.5], [1.0, 0.0])
        np.testing.assert_allclose(out, [1.0])

    def test_zero_free_coefficient_shifts_input(self):
        u = np.array([3.0, -1.0, 2.0, 0.5])
        out = linear_output(paper_fir(), [0.0], u)
        np.testing.assert_array_equal(out, u[:-1])

    @given(
        theta=st.floats(-5, 5),
        alpha=st.floats(-10, 10),
        u=st.lists(st.floats(-100, 100), min_size=2, max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_linearity_in_input(self, theta, alpha, u):
        u = np.asarray(u)
        scaled = linear_output(paper_fir(), [theta], alpha * u)
        base = linear_output(paper_fir(), [theta], u)
        np.testing.assert_allclose(scaled, alpha * base, rtol=1e-12, atol=1e-9)

    def test_too_short_input_rejected(self):
        with pytest.raises(ValueError):
            linear_output(paper_fir(), [0.5], [1.0])

    def test_leading_theta_axis_matches_rows(self):
        fir = FirStructure(free_lags=(0, 2), fixed=((1, -1.0),))
        u = gen_white(gaussian_white(1.0), 40, 5, path=(0,))
        thetas = np.array([[2.0, 0.5], [-0.3, 1.7], [0.1, 0.0]])
        out = linear_output(fir, thetas, u)
        assert out.shape == (3, 38)
        for row, theta in zip(out, thetas):
            np.testing.assert_array_equal(row, linear_output(fir, theta, u))

    def test_larger_lags(self):
        # max lag 2, so u covers t = -1..2 and the output spans t = 1..2
        fir = FirStructure(free_lags=(0, 2), fixed=((1, -1.0),))
        u = np.array([1.0, 2.0, 3.0, 4.0])
        out = linear_output(fir, [2.0, 0.5], u)
        expected = [2.0 * 3.0 - 2.0 + 0.5 * 1.0, 2.0 * 4.0 - 3.0 + 0.5 * 2.0]
        np.testing.assert_allclose(out, expected)


class TestFirStructure:
    def test_duplicate_lags_rejected(self):
        with pytest.raises(ValueError):
            FirStructure(free_lags=(0, 1), fixed=((1, 1.0),))

    def test_needs_a_free_coefficient(self):
        with pytest.raises(ValueError):
            FirStructure(free_lags=(), fixed=((0, 1.0),))

    def test_theta_dimension_checked(self):
        with pytest.raises(ValueError):
            paper_spec(theta=np.array([0.5, 0.1]))


class TestSimulate:
    def test_cubic_unit_point(self):
        spec = paper_spec()
        z, y = simulate(spec, [1.0, 0.0], [0.0], [0.0])
        np.testing.assert_allclose(z, [1.0])
        np.testing.assert_allclose(y, [1.0])

    def test_cubic_negative_point(self):
        spec = paper_spec(theta=0.0)
        z, y = simulate(spec, [-2.0, 0.0], [0.0], [0.0])
        np.testing.assert_allclose(z, [-2.0])
        np.testing.assert_allclose(y, [-8.0])

    def test_noisy_replay_is_deterministic(self):
        spec = paper_spec()
        u = gen_white(gaussian_white(1 / 3), 101, seed=5, path=(0,))
        v = gen_white(gaussian_white(0.2), 100, seed=5, path=(1,))
        e = gen_white(gaussian_white(0.1), 100, seed=5, path=(2,))
        z1, y1 = simulate(spec, u, v, e)
        z2, y2 = simulate(spec, u, v, e)
        np.testing.assert_array_equal(z1, z2)
        np.testing.assert_array_equal(y1, y2)

    def test_identity_no_noise_matches_linear_output(self):
        spec = paper_spec(nl=identity())
        u = np.linspace(-1, 1, 20)
        zeros = np.zeros(19)
        z, y = simulate(spec, u, zeros, zeros)
        np.testing.assert_array_equal(y, linear_output(spec.fir, spec.theta, u))

    def test_cubic_inverts_exactly_without_measurement_noise(self):
        spec = paper_spec()
        u = gen_white(gaussian_white(1 / 3), 51, seed=9, path=(0,))
        v = gen_white(gaussian_white(0.2), 50, seed=9, path=(1,))
        z, y = simulate(spec, u, v, np.zeros(50))
        np.testing.assert_allclose(np.cbrt(y), z, rtol=1e-12)

    def test_length_mismatch_rejected(self):
        spec = paper_spec()
        with pytest.raises(ValueError):
            simulate(spec, [1.0, 0.0, 1.0], [0.0], [0.0, 0.0])


class TestNonlinearity:
    def test_polynomial_value(self):
        nl = polynomial([1.0, 0.0, 2.0])
        np.testing.assert_allclose(nl.value(3.0), 1.0 + 2.0 * 9.0)

    def test_empty_polynomial_rejected(self):
        with pytest.raises(ValueError):
            polynomial([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        # rejected at construction, not later as a non-finite cost
        with pytest.raises(ValueError, match="finite"):
            polynomial([0.0, bad])

    def test_named_nonlinearities_are_their_coefficients(self):
        assert cubic() == polynomial([0, 0, 0, 1]) and cubic().degree == 3
        assert identity() == polynomial([0, 1]) and identity().degree == 1


class TestDataRecordCsv:
    def test_round_trip_small(self, tmp_path):
        rec = DataRecord(u=np.array([0.1, -2.5, 3.75]), y=np.array([1.0, -0.125]))
        path = tmp_path / "rec.csv"
        rec.to_csv(path)
        back = DataRecord.from_csv(path)
        np.testing.assert_array_equal(back.u, rec.u)
        np.testing.assert_array_equal(back.y, rec.y)

    @given(
        n=st.integers(min_value=1, max_value=40),
        lead=st.integers(min_value=1, max_value=3),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip_bit_exact(self, n, lead, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        rec = DataRecord(
            u=rng.standard_normal(n + lead) * 10.0**rng.integers(-8, 8),
            y=rng.standard_normal(n) * 10.0**rng.integers(-8, 8),
        )
        path = tmp_path_factory.mktemp("csv") / "rec.csv"
        rec.to_csv(path)
        back = DataRecord.from_csv(path)
        np.testing.assert_array_equal(back.u, rec.u)
        np.testing.assert_array_equal(back.y, rec.y)

    def test_header_and_blank_output_layout(self, tmp_path):
        rec = DataRecord(u=np.array([1.0, 2.0, 3.0]), y=np.array([8.0, 27.0]))
        path = tmp_path / "rec.csv"
        rec.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,u,y"
        assert lines[1].startswith("0,") and lines[1].endswith(",")
        assert len(lines) == 4

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,u,y\n0,1.0,\n1,2.0,3.0\n")
        with pytest.raises(ValueError, match="header"):
            DataRecord.from_csv(path)

    def test_missing_output_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,u,y\n0,1.0,\n1,2.0,\n")
        with pytest.raises(ValueError, match="missing output"):
            DataRecord.from_csv(path)

    @pytest.mark.parametrize("name, index", [("u", 0), ("y", 3)])
    def test_non_finite_sample_rejected(self, name, index):
        samples = {"u": np.arange(6.0), "y": np.arange(5.0)}
        samples[name][index] = np.nan
        samples[name][index + 1] = np.inf
        with pytest.raises(NonFiniteDataError) as excinfo:
            DataRecord(**samples)
        assert isinstance(excinfo.value, ValueError)
        assert (excinfo.value.name, excinfo.value.index) == (name, index)

    def test_non_finite_sample_rejected_from_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("t,u,y\n0,0.5,\n1,0.25,1.0\n2,-0.5,nan\n3,1.0,2.0\n")
        with pytest.raises(NonFiniteDataError) as excinfo:
            DataRecord.from_csv(path)
        assert (excinfo.value.name, excinfo.value.index) == ("y", 1)

    def test_record_needs_leading_input(self):
        with pytest.raises(ValueError):
            DataRecord(u=np.array([1.0, 2.0]), y=np.array([1.0, 2.0]))

    def test_lagged_views(self):
        rec = DataRecord(u=np.array([1.0, 2.0, 3.0]), y=np.array([0.0, 0.0]))
        np.testing.assert_array_equal(rec.lagged(0), [2.0, 3.0])
        np.testing.assert_array_equal(rec.lagged(1), [1.0, 2.0])
        with pytest.raises(ValueError):
            rec.lagged(2)


class TestStackRecords:
    def test_one_record_is_a_view_of_its_arrays(self):
        record = DataRecord(u=np.arange(5.0), y=np.arange(4.0))
        u, y = stack_records(record)
        assert u.shape == (1, 5) and y.shape == (1, 4)
        assert np.shares_memory(u, record.u) and np.shares_memory(y, record.y)

    def test_no_kernel_writes_into_its_records(self):
        # read-only records: a kernel that wrote into a stacked view would raise
        config = table_config(DistributionKind.GAUSSIAN_WHITE)
        records = [make_record(config, r) for r in range(3)]
        before = [(d.u.copy(), d.y.copy()) for d in records]
        for d in records:
            d.u.setflags(write=False)
            d.y.setflags(write=False)
        for data in (records[0], records):
            estimate_weighting(data, fit_bla(data, (0, 1)))
            zero_order_fit(data)
            for weighted in (False, True):
                pem_estimate(data, config.template(), weighted=weighted)
        for d, (u, y) in zip(records, before):
            assert d.u.tobytes() == u.tobytes() and d.y.tobytes() == y.tobytes()
