"""Monte-Carlo sampling of the physical channel for any real cluster count.

Each of the floor(mu) whole clusters contributes an in-phase Gaussian
(variance eta, mean sqrt(xi) * p_i) and a quadrature Gaussian (variance 1,
mean sqrt(xi) * q_i), with the LoS powers p^2 = rho2 q^2 and
q^2 = kappa mu (1+eta)/(1+rho2) shared evenly, p_i^2 = p^2/floor(mu); a
single unit-mean gamma variate xi with shape m modulates the whole LoS field
per realization (xi = 1 at m = inf).  A fractional remainder f = mu - floor(mu)
adds central chi-square scatter with f degrees of freedom per branch,
2 (eta G1 + G2) with G1, G2 ~ Gamma(f/2, 1).  The in-phase power is then
eta chi'^2(mu, xi p^2/eta) and the quadrature power chi'^2(mu, xi q^2), whose
MGF is the real-mu model of :mod:`fbrate.mgf`.  Below one cluster only the
scatter term is left, so mu < 1 is sampled without LoS only.  The received
power is normalized by its mean so that the sampled SNR averages gamma_bar.

Determinism: samples are generated in fixed-size chunks, each from its own
counter-based Philox stream keyed by (seed, chunk index), and per-chunk
partial sums are combined with exact (fsum) accumulation, so results are
bit-identical for a given (seed, chunk_size) no matter how many workers run
the chunks or in which order they finish.  The chunks run on one
thread per CPU the process may run on (at most one per chunk); the result is
the same as a serial run, bit for bit.
"""

from __future__ import annotations

import contextvars
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError
from .model import ChannelParams, _check_a_exponent


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


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Independent counter-based stream for one chunk, keyed by (seed, index)."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.Philox(seq))


def _sample_block(params: ChannelParams, rng: np.random.Generator,
                  n: int) -> np.ndarray:
    """n SNR realizations as an ndarray (vectorized across samples).

    Draw order: xi, then (x, y) for each whole cluster, then the two
    fractional-scatter gammas.  Requires mu >= 1 when kappa > 0.  Works in
    place on at most five n-sized arrays, in the same floating-point order
    as the expression ``gamma_bar * w / normalization`` with
    ``w = sum(x*x + y*y) + 2 (eta G1 + G2)``.
    """
    m = params.m
    if math.isinf(m):
        root_xi = 1.0  # no LoS fluctuation: xi = 1 exactly, no gamma draws
    else:
        root_xi = rng.gamma(shape=m, scale=1.0 / m, size=n)
        np.sqrt(root_xi, out=root_xi)
    clusters = math.floor(params.mu)
    w = np.zeros(n)
    x = np.empty(n)
    y = np.empty(n)
    if clusters:
        q2 = params.kappa * params.mu * (params.eta + 1.0) / (1.0 + params.rho2)
        p_i = math.sqrt(params.rho2 * q2 / clusters)
        q_i = math.sqrt(q2 / clusters)
        sx = math.sqrt(params.eta)
        los_y = root_xi * q_i
        los_x = root_xi
        los_x *= p_i  # reuses the array of xi when it is sampled
        for _ in range(clusters):
            rng.standard_normal(out=x)
            x *= sx
            x += los_x
            rng.standard_normal(out=y)
            y += los_y
            x *= x
            y *= y
            x += y
            w += x
    frac = params.mu - clusters
    if frac:
        rng.standard_gamma(frac / 2, out=x)
        x *= params.eta
        rng.standard_gamma(frac / 2, out=y)
        x += y
        x *= 2.0
        w += x
    w *= params.gamma_bar
    w /= (1.0 + params.kappa) * params.mu * (params.eta + 1.0)
    return w


def _available_cpus() -> int:
    """CPUs this process may run on (all of them where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def estimate_er(params: ChannelParams, a_exponent: float, config: McConfig) -> McEstimate:
    """Sample-mean estimate of J = E[(1+gamma)^-A] with its standard error.

    Chunks are independent substreams; each yields partial sums of
    (1+gamma)^-A and its square, which are combined exactly, so the estimate
    does not depend on how many threads run them.  The chunks run on one
    thread per CPU the process may run on, at most one per chunk; a single
    chunk runs inline.  Raises :class:`ParameterError` for an A that is not
    finite and > 0 and for mu < 1 with LoS (kappa > 0), and
    :class:`ConvergenceError` when every sampled (1+gamma)^-A underflows to 0.
    """
    _check_a_exponent(a_exponent)
    if params.mu < 1 and params.kappa > 0:
        raise ParameterError(
            f"sampling with LoS (kappa > 0) requires mu >= 1, got mu={params.mu!r}")

    n = config.n_samples
    sizes = [config.chunk_size] * (n // config.chunk_size)
    if n % config.chunk_size:
        sizes.append(n % config.chunk_size)

    def run_chunk(idx_size):
        idx, size = idx_size
        values = _sample_block(params, _chunk_rng(config.seed, idx), size)
        values += 1.0
        values **= -a_exponent  # ndarray power: same fast paths as ``**``
        s1 = float(values.sum())
        values *= values
        return s1, float(values.sum())

    tasks = list(enumerate(sizes))
    workers = min(_available_cpus(), len(tasks))
    if workers > 1:
        # pool threads start in an empty context: give each chunk the caller's,
        # so that numpy error states (np.errstate) hold as in a serial run
        context = contextvars.copy_context()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(lambda t: context.copy().run(run_chunk, t), tasks))
    else:
        partials = [run_chunk(t) for t in tasks]

    s1 = math.fsum(p[0] for p in partials)
    s2 = math.fsum(p[1] for p in partials)
    if s1 == 0.0:
        raise ConvergenceError(
            f"every sampled (1+gamma)^-A underflowed to 0 (A={a_exponent!r}); "
            f"use quadrature")
    j_hat = s1 / n
    variance = max(s2 / n - j_hat * j_hat, 0.0) * n / max(n - 1, 1)
    j_stderr = math.sqrt(variance / n)
    rate_hat = -math.log2(j_hat) / a_exponent
    return McEstimate(j_hat=j_hat, j_stderr=j_stderr, rate_hat=rate_hat,
                      n_samples=n, seed=config.seed)
