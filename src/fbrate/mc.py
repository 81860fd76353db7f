"""Monte-Carlo sampling of the physical channel for integer cluster counts.

The channel is built from its cluster geometry: each of the mu clusters
contributes an in-phase Gaussian (variance sigma_x2, mean sqrt(xi) * p_i) and
a quadrature Gaussian (variance sigma_y2, mean sqrt(xi) * q_i), where a
single unit-mean gamma variate xi with shape m modulates the whole LoS field
per realization (xi = 1 at m = inf).  The received power is normalized by its
mean so that the sampled SNR averages gamma_bar.

Determinism: samples are generated in fixed-size chunks, each from its own
counter-based Philox stream keyed by (seed, chunk index), and per-chunk
partial sums are combined with exact (fsum) accumulation, so results are
bit-identical for a given (seed, chunk_size) no matter how many workers run
the chunks or in which order they finish.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .model import ChannelParams, validate

_INT_TOL = 1e-9


@dataclass(frozen=True)
class ClusterGeometry:
    """Per-cluster LoS components and scatter variances realizing the shape parameters."""

    p_components: tuple[float, ...]
    q_components: tuple[float, ...]
    sigma_x2: float
    sigma_y2: float
    normalization: float  # E[W], the mean unnormalized power


@dataclass(frozen=True)
class McConfig:
    """Sample budget and deterministic parallel layout."""

    n_samples: int = 1_000_000
    seed: int = 42
    chunk_size: int = 1 << 16

    def __post_init__(self):
        if self.n_samples < 1:
            raise ParameterError("n_samples must be positive")
        if self.n_samples < 1_000:
            warnings.warn("fewer than 1000 samples: standard errors are unreliable",
                          stacklevel=2)
        if not 0 <= self.seed < 2**64:
            raise ParameterError("seed must fit in 64 unsigned bits")
        if self.chunk_size < 1:
            raise ParameterError("chunk_size must be positive")


@dataclass(frozen=True)
class McEstimate:
    """Sampled expectation with its standard error and the implied rate."""

    j_hat: float
    j_stderr: float
    rate_hat: float
    n_samples: int
    seed: int


def _integer_mu(params: ChannelParams) -> int:
    mu = params.mu
    if abs(mu - round(mu)) > _INT_TOL or round(mu) < 1:
        raise ParameterError(
            f"sampling requires an integer cluster count, got mu={mu!r}")
    return int(round(mu))


def geometry_from_params(params: ChannelParams) -> ClusterGeometry:
    """Fix a cluster geometry reproducing (kappa, eta, rho2) for integer mu.

    Convention: sigma_y2 = 1, sigma_x2 = eta, total LoS powers
    q^2 = kappa * mu * (1 + eta) / (1 + rho2) and p^2 = rho2 * q^2, spread
    evenly across clusters (p_i = p/sqrt(mu)).  Any split with the same
    aggregates is statistically equivalent - the MGF only sees the totals -
    so the even split is fixed rather than configurable.
    """
    validate(params)
    mu = _integer_mu(params)
    sigma_x2 = params.eta
    sigma_y2 = 1.0
    q2 = params.kappa * mu * (sigma_x2 + sigma_y2) / (1.0 + params.rho2)
    p2 = params.rho2 * q2
    p_i = math.sqrt(p2 / mu)
    q_i = math.sqrt(q2 / mu)
    normalization = (1.0 + params.kappa) * mu * (sigma_x2 + sigma_y2)
    return ClusterGeometry(
        p_components=(p_i,) * mu,
        q_components=(q_i,) * mu,
        sigma_x2=sigma_x2,
        sigma_y2=sigma_y2,
        normalization=normalization,
    )


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Independent counter-based stream for one chunk, keyed by (seed, index)."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.Philox(seq))


def _sample_block(geometry: ClusterGeometry, params: ChannelParams,
                  rng: np.random.Generator, n: int) -> np.ndarray:
    """n SNR realizations as an ndarray (vectorized across clusters)."""
    m = params.m
    if math.isinf(m):
        root_xi = 1.0  # no LoS fluctuation: xi = 1 exactly, no gamma draws
    else:
        root_xi = np.sqrt(rng.gamma(shape=m, scale=1.0 / m, size=n))
    sx = math.sqrt(geometry.sigma_x2)
    sy = math.sqrt(geometry.sigma_y2)
    w = np.zeros(n)
    for p_i, q_i in zip(geometry.p_components, geometry.q_components):
        x = rng.standard_normal(n) * sx + root_xi * p_i
        y = rng.standard_normal(n) * sy + root_xi * q_i
        w += x * x + y * y
    return params.gamma_bar * w / geometry.normalization


def estimate_er(params: ChannelParams, a_exponent: float, config: McConfig,
                n_workers: int = 1) -> McEstimate:
    """Sample-mean estimate of J = E[(1+gamma)^-A] with its standard error.

    Chunks are independent substreams; each yields partial sums of
    (1+gamma)^-A and its square, which are combined exactly, so the estimate
    does not depend on ``n_workers``.
    """
    validate(params)
    if not a_exponent > 0:
        raise ParameterError(f"A must be > 0, got {a_exponent!r}")
    geometry = geometry_from_params(params)

    n = config.n_samples
    sizes = [config.chunk_size] * (n // config.chunk_size)
    if n % config.chunk_size:
        sizes.append(n % config.chunk_size)

    def run_chunk(idx_size):
        idx, size = idx_size
        gamma = _sample_block(geometry, params, _chunk_rng(config.seed, idx), size)
        values = (1.0 + gamma) ** -a_exponent
        return float(values.sum()), float((values * values).sum())

    tasks = list(enumerate(sizes))
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            partials = list(pool.map(run_chunk, tasks))
    else:
        partials = [run_chunk(t) for t in tasks]

    s1 = math.fsum(p[0] for p in partials)
    s2 = math.fsum(p[1] for p in partials)
    j_hat = s1 / n
    variance = max(s2 / n - j_hat * j_hat, 0.0) * n / max(n - 1, 1)
    j_stderr = math.sqrt(variance / n)
    rate_hat = -math.log2(j_hat) / a_exponent
    return McEstimate(j_hat=j_hat, j_stderr=j_stderr, rate_hat=rate_hat,
                      n_samples=n, seed=config.seed)
