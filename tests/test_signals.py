import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wienerid.signals import (
    Distribution,
    DistributionKind,
    StreamRole,
    gaussian_white,
    gen_white,
    substream,
    uniform_white,
)


def test_zero_variance_gaussian_is_all_zeros():
    out = gen_white(gaussian_white(0.0), 5, seed=123)
    np.testing.assert_array_equal(out, np.zeros(5))


def test_uniform_samples_stay_inside_support():
    out = gen_white(uniform_white(1.0 / 3.0), 10**5, seed=42)
    assert np.all(np.abs(out) <= 1.0)


def test_gaussian_sample_variance_near_target():
    var = 1.0 / 3.0
    out = gen_white(gaussian_white(var), 10**5, seed=42)
    assert abs(out.var() - var) < 0.05 * var


@pytest.mark.parametrize("make", [gaussian_white, uniform_white])
def test_large_sample_moments(make):
    var = 0.7
    n = 10**5
    out = gen_white(make(var), n, seed=2024)
    assert abs(out.mean()) < 4.0 * np.sqrt(var / n)
    assert abs(out.var() - var) < 0.05 * var


@pytest.mark.parametrize("kind", list(DistributionKind))
def test_kurtosis_matches_sample_fourth_moment(kind):
    dist = Distribution(kind, 0.7)
    ratio = gen_white(dist, 10**6, seed=2026) ** 4 / dist.variance**2
    se = np.std(ratio) / np.sqrt(len(ratio))
    assert abs(np.mean(ratio) - dist.kurtosis) < 3.0 * se


@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    n=st.integers(min_value=1, max_value=200),
    variance=st.floats(min_value=0.0, max_value=100.0),
    kind=st.sampled_from(list(DistributionKind)),
)
@settings(max_examples=40, deadline=None)
def test_determinism(seed, n, variance, kind):
    dist = Distribution(kind, variance)
    first = gen_white(dist, n, seed, path=(3, 1))
    second = gen_white(dist, n, seed, path=(3, 1))
    np.testing.assert_array_equal(first, second)


@given(variance=st.floats(min_value=1e-6, max_value=50.0), seed=st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_uniform_support_bound(variance, seed):
    out = gen_white(uniform_white(variance), 500, seed)
    assert np.all(np.abs(out) <= np.sqrt(3.0 * variance))


def test_distinct_roles_give_distinct_streams():
    dist = gaussian_white(1.0)
    streams = [
        gen_white(dist, 50, 99, path=(0, int(role)))
        for role in (StreamRole.INPUT, StreamRole.PROCESS_NOISE, StreamRole.MEASUREMENT_NOISE)
    ]
    assert not np.allclose(streams[0], streams[1])
    assert not np.allclose(streams[1], streams[2])


def test_distinct_realizations_give_distinct_streams():
    dist = gaussian_white(1.0)
    a = gen_white(dist, 50, 99, path=(0, 0))
    b = gen_white(dist, 50, 99, path=(1, 0))
    assert not np.allclose(a, b)


def test_negative_variance_rejected():
    with pytest.raises(ValueError):
        gaussian_white(-0.1)


def test_zero_count_rejected():
    with pytest.raises(ValueError):
        gen_white(gaussian_white(1.0), 0, seed=1)


def test_seed_out_of_range_rejected():
    with pytest.raises(ValueError):
        substream(2**64)
    with pytest.raises(ValueError):
        substream(-1)


def test_path_parts_must_be_integers():
    # int() would truncate 1.5 to the stream of path (1,)
    for part in (1.5, 1.0, np.float64(1.0)):
        with pytest.raises(TypeError):
            substream(7, part)
    a, b = substream(7, np.int64(1)).random(3), substream(7, 1).random(3)
    assert a.tobytes() == b.tobytes()
