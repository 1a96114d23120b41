"""Seeded generation of white input and noise sequences.

Every random stream in the toolkit is derived from a 64-bit master seed plus
an integer path, so that Monte Carlo realizations and the different noise
roles within one realization (input, process noise, measurement noise,
simulation replicates) get independent, replayable substreams.  The generator
is counter-based (Philox), so identical (seed, path) always reproduces the
identical sequence, bit for bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from operator import index

import numpy as np

# A seed is a plain unsigned 64-bit integer.
Seed = int

_SEED_MAX = 2**64


class DistributionKind(enum.Enum):
    GAUSSIAN_WHITE = "gaussian"
    UNIFORM_WHITE = "uniform"


# E{u^4} / E{u^2}^2: 3 for the normal, 9/5 for a symmetric uniform
_KURTOSIS = {DistributionKind.GAUSSIAN_WHITE: 3.0, DistributionKind.UNIFORM_WHITE: 9 / 5}


class StreamRole(enum.IntEnum):
    """Fixed substream roles within one Monte Carlo realization."""

    INPUT = 0
    PROCESS_NOISE = 1
    MEASUREMENT_NOISE = 2
    SIMULATION = 3  # followed by the replicate index s


@dataclass(frozen=True)
class Distribution:
    """Zero-mean white distribution with a given power: gaussian, or
    uniform on the one symmetric interval of that variance (gen_white)."""

    kind: DistributionKind
    variance: float

    def __post_init__(self):
        if not math.isfinite(self.variance) or self.variance < 0:
            raise ValueError(f"variance must be finite and >= 0, got {self.variance}")

    @property
    def kurtosis(self) -> float:
        """Fourth-moment ratio E{u^4} / variance^2, fixed by the kind alone."""
        return _KURTOSIS[self.kind]


def gaussian_white(variance: float) -> Distribution:
    return Distribution(DistributionKind.GAUSSIAN_WHITE, variance)


def uniform_white(variance: float) -> Distribution:
    return Distribution(DistributionKind.UNIFORM_WHITE, variance)


def check_seed(seed: Seed, name: str = "seed") -> None:
    """TypeError unless seed is an integer, ValueError unless it fits in an
    unsigned 64-bit integer."""
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(seed).__name__}")
    if not 0 <= int(seed) < _SEED_MAX:
        raise ValueError(f"{name} must fit in an unsigned 64-bit integer, got {seed}")


def substream(seed: Seed, *path: int) -> np.random.Generator:
    """Counter-based generator for the substream identified by (seed, path).

    Distinct paths yield statistically independent streams; equal (seed, path)
    yield bit-identical streams.  Each path part is an integer >= 0.
    """
    check_seed(seed)
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(index(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def gen_white(dist: Distribution, n: int, seed: Seed, path: tuple[int, ...] = ()) -> np.ndarray:
    """Draw n i.i.d. zero-mean samples with variance dist.variance.

    Gaussian samples come from the generator's exact normal transform scaled
    by the standard deviation; uniform samples from a scaled unit uniform on
    [-L, L) with L = sqrt(3 * variance), the half-width of that variance.
    Deterministic given (dist, n, seed, path).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = substream(seed, *path)
    if dist.kind is DistributionKind.GAUSSIAN_WHITE:
        return rng.standard_normal(n) * math.sqrt(dist.variance)
    half = math.sqrt(3.0 * dist.variance)
    return rng.uniform(-half, half, n)
