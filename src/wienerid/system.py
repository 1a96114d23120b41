"""Simulation of the stochastic Wiener system y(t) = f(G(q) u(t) + v(t)) + e(t).

The linear block is FIR with a mix of free (estimated) and fixed coefficients;
the static nonlinearity is a polynomial, nothing but its coefficients.
A data record carries the input back to u(1 - L) for maximum lag L, so the
output sequence y(1..N) never needs zero-padding or start-up trimming.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .numerics import horner
from .signals import Distribution


@dataclass(frozen=True)
class Nonlinearity:
    """Known static nonlinearity y = f(z) = sum_k coeffs[k] z^k, described by
    its ascending coefficients alone: at least one, all finite (else
    ValueError), stored as floats."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs or not all(map(math.isfinite, coeffs)):
            raise ValueError(f"nonlinearity needs finite coefficients, got {coeffs}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def value(self, x):
        return horner(self.coeffs, x)


def cubic() -> Nonlinearity:
    return Nonlinearity((0.0, 0.0, 0.0, 1.0))


def identity() -> Nonlinearity:
    return Nonlinearity((0.0, 1.0))


def polynomial(coeffs) -> Nonlinearity:
    return Nonlinearity(coeffs)


@dataclass(frozen=True)
class FirStructure:
    """FIR coefficient structure: free lags plus (lag, value) fixed taps."""

    free_lags: tuple[int, ...]
    fixed: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        lags = [*self.free_lags, *(lag for lag, _ in self.fixed)]
        if len(self.free_lags) == 0:
            raise ValueError("at least one free coefficient is required")
        if any(lag < 0 for lag in lags):
            raise ValueError("lags must be non-negative")
        if len(set(lags)) != len(lags):
            raise ValueError(f"lags must be distinct, got {lags}")

    @property
    def n_free(self) -> int:
        return len(self.free_lags)

    @property
    def max_lag(self) -> int:
        return max(lag for lag in (*self.free_lags, *(l for l, _ in self.fixed)))


def paper_fir() -> FirStructure:
    """Free coefficient at lag 0, fixed unit tap at lag 1."""
    return FirStructure(free_lags=(0,), fixed=((1, 1.0),))


@dataclass
class SystemSpec:
    """Complete description of a (true or model) stochastic Wiener system."""

    fir: FirStructure
    theta: np.ndarray
    nonlinearity: Nonlinearity
    sigma_v2: float
    sigma_e2: float
    input_dist: Distribution

    def __post_init__(self):
        self.theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        if self.theta.shape != (self.fir.n_free,):
            raise ValueError(
                f"theta has {self.theta.size} entries but the FIR structure has "
                f"{self.fir.n_free} free coefficients"
            )
        if self.sigma_v2 < 0 or self.sigma_e2 < 0:
            raise ValueError("noise variances must be >= 0")


def lagged_matrix(u: np.ndarray, n_obs: int, lags) -> np.ndarray:
    """Columns u(t - lag) for t = 1..n_obs, one per requested lag.

    The input array covers u(1 - lead .. n_obs) with lead = len(u) - n_obs;
    every requested lag must not exceed the lead.  A (K, len(u)) stack of
    inputs gives the (K, n_obs, len(lags)) stack of their matrices.
    """
    u = np.asarray(u, dtype=float)
    lead = u.shape[-1] - n_obs
    lags = [int(lag) for lag in lags]
    if any(lag > lead for lag in lags):
        raise ValueError(
            f"lag {max(lags)} exceeds the {lead} leading input samples available"
        )
    return np.stack([u[..., lead - lag : lead - lag + n_obs] for lag in lags], axis=-1)


def linear_output(fir: FirStructure, theta, u) -> np.ndarray:
    """Noise-free FIR output for t = 1..N with N = u.shape[-1] - max_lag.

    theta has shape (..., n_free); leading axes broadcast, so a (G, n_free)
    stack of parameter vectors gives a (G, N) output, row g computed with
    the same arithmetic as theta[g] alone.  A (G, L) stack of inputs takes a
    (G, n_free) theta, row g of the output being that of theta[g] on u[g].
    """
    u = np.asarray(u, dtype=float)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape[-1] != fir.n_free:
        raise ValueError(f"expected {fir.n_free} free coefficients, got {theta.shape[-1]}")
    n = u.shape[-1] - fir.max_lag
    if n < 1:
        raise ValueError(
            f"input of length {u.shape[-1]} cannot cover maximum lag {fir.max_lag}"
        )
    out = np.zeros(theta.shape[:-1] + (n,))
    for j, lag in enumerate(fir.free_lags):
        out += theta[..., j, None] * u[..., fir.max_lag - lag : fir.max_lag - lag + n]
    for lag, value in fir.fixed:
        out += value * u[..., fir.max_lag - lag : fir.max_lag - lag + n]
    return out


def simulate(spec: SystemSpec, u, v, e) -> tuple[np.ndarray, np.ndarray]:
    """Run the system: z(t) = G(q, theta) u(t) + v(t), y(t) = f(z(t)) + e(t)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    e = np.asarray(e, dtype=float)
    z_det = linear_output(spec.fir, spec.theta, u)
    n = len(z_det)
    if len(v) != n or len(e) != n:
        raise ValueError(
            f"noise lengths ({len(v)}, {len(e)}) do not match the {n} output samples"
        )
    z = z_det + v
    y = spec.nonlinearity.value(z) + e
    return z, y


class NonFiniteDataError(ValueError):
    """A data record holds a NaN or an infinite sample."""

    def __init__(self, name: str, index: int, value: float):
        self.name = name
        self.index = index
        self.value = value
        super().__init__(f"non-finite sample {name}[{index}] = {value}")


@dataclass
class DataRecord:
    """One experiment: inputs u(1-L .. N) and outputs y(1 .. N).

    Every sample must be finite; the first one that is not raises
    NonFiniteDataError with its 0-based array index.
    """

    u: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.u.ndim != 1 or self.y.ndim != 1:
            raise ValueError("u and y must be one-dimensional")
        for name, values in (("u", self.u), ("y", self.y)):
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise NonFiniteDataError(name, int(bad[0]), float(values[bad[0]]))
        if len(self.u) <= len(self.y):
            raise ValueError(
                f"u (length {len(self.u)}) must carry at least one sample before "
                f"t = 1 (y has length {len(self.y)})"
            )

    @property
    def n_obs(self) -> int:
        return len(self.y)

    @property
    def lead(self) -> int:
        """Number of input samples before t = 1 (the maximum usable lag)."""
        return len(self.u) - len(self.y)

    def lagged(self, lag: int) -> np.ndarray:
        """u(t - lag) for t = 1..N."""
        return lagged_matrix(self.u, self.n_obs, [lag])[:, 0]

    def regressors(self, lags) -> np.ndarray:
        return lagged_matrix(self.u, self.n_obs, lags)

    def to_csv(self, path) -> None:
        """Write rows t, u(t), y(t) for t = 1-L .. N; y is empty for t < 1.

        Values carry 17 significant digits so a read back round-trips
        bit-exactly.
        """
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "u", "y"])
            for i, t in enumerate(range(1 - self.lead, self.n_obs + 1)):
                yval = "" if t < 1 else f"{self.y[t - 1]:.17g}"
                writer.writerow([t, f"{self.u[i]:.17g}", yval])

    @classmethod
    def from_csv(cls, path) -> "DataRecord":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["t", "u", "y"]:
                raise ValueError(f"{path}: expected header 't,u,y', got {header}")
            ts, us, ys = [], [], []
            for row in reader:
                if not row:
                    continue
                if len(row) != 3:
                    raise ValueError(f"{path}: malformed row {row}")
                t = int(row[0])
                ts.append(t)
                us.append(float(row[1]))
                if row[2].strip() == "":
                    if t >= 1:
                        raise ValueError(f"{path}: missing output at t = {t}")
                else:
                    if t < 1:
                        raise ValueError(f"{path}: unexpected output at t = {t}")
                    ys.append(float(row[2]))
        if not ts or ts != list(range(ts[0], ts[0] + len(ts))):
            raise ValueError(f"{path}: time indices must be contiguous")
        if ts[-1] != len(ys):
            raise ValueError(f"{path}: outputs must run from t = 1 to the last row")
        return cls(u=np.array(us), y=np.array(ys))


def stack_records(data: DataRecord | Sequence[DataRecord]) -> tuple[np.ndarray, np.ndarray]:
    """The (K, len(u)) inputs and (K, n_obs) outputs of a stack of K records,
    all of one len(u) and one n_obs (else ValueError); one DataRecord is the
    stack of one, a view of its arrays, which no caller writes into."""
    if isinstance(data, DataRecord):
        return data.u[None], data.y[None]
    shapes = {(len(d.u), d.n_obs) for d in data}
    if len(shapes) != 1:
        raise ValueError(f"a stack needs records of one len(u) and one n_obs, got {sorted(shapes)}")
    return np.array([d.u for d in data]), np.array([d.y for d in data])
