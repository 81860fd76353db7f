"""Monte-Carlo sampling of the physical channel for any real cluster count.

Given the unit-mean gamma variate xi with shape m that modulates the LoS
field (xi = 1 at m = inf, and not drawn at kappa = 0), the in-phase power is
eta chi'^2(mu, xi p^2/eta) and the quadrature power chi'^2(mu, xi q^2), with
the LoS powers p^2 = rho2 q^2 and q^2 = kappa mu (1+eta)/(1+rho2); their sum
has the real-mu MGF of :mod:`fbrate.model`.  At eta = 1 the two branches are
one chi'^2(2 mu, xi (p^2 + q^2)) and are drawn once.  Each noncentral
chi-square is drawn whole, at a cost that does not grow with mu: from one
degree of freedom up as (Z + sqrt(lam))^2 + chi^2(dof - 1), below as the
Poisson mixture chi^2(dof + 2N) with N ~ Poisson(lam/2), and without LoS as
a central chi^2(dof).  A chi^2(1) is a squared normal and any other chi^2(r)
twice a Gamma(r/2) variate.  The received power is normalized by its mean,
2 omega, so that the sampled SNR averages gamma_bar.

Determinism: samples are generated in chunks of ``CHUNK_SIZE``, each from its
own counter-based Philox stream keyed by (seed, chunk index), and per-chunk
partial sums are combined with exact (fsum) accumulation, so results are
bit-identical for a given (n_samples, seed) no matter how many workers run
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

#: Samples per chunk, the unit of the Philox streams and of the thread pool.
CHUNK_SIZE = 1 << 16


@dataclass(frozen=True)
class McConfig:
    """Sample budget and seed, which fix the estimate bit for bit."""

    n_samples: int = 1_000_000
    seed: int = 42

    def __post_init__(self):
        if self.n_samples < 1:
            raise ParameterError("n_samples must be positive")
        if self.n_samples < 1_000:
            warnings.warn("fewer than 1000 samples: standard errors are unreliable",
                          stacklevel=2)
        if not 0 <= self.seed < 2**64:
            raise ParameterError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class McEstimate:
    """Sampled expectation with its standard error."""

    j_hat: float
    j_stderr: float


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Independent counter-based stream for one chunk, keyed by (seed, index)."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.Philox(seq))


def _sample_block(params: ChannelParams, rng: np.random.Generator,
                  rows: np.ndarray) -> np.ndarray:
    """SNR realizations drawn into ``rows``, a float64 (3, n) array; returns
    the row that holds them (vectorized across samples).

    Draw order: xi (only when kappa > 0 and m is finite), then the LoS part
    of each branch, in-phase first (a normal each from one degree of freedom
    up, a Poisson count each below), then the scatter chi-square of each
    branch.  Every draw covers all n samples, so the calls do not depend on
    mu.  For mu in [1, 2) with kappa > 0 and eta != 1 these are the draws of
    one Gaussian cluster plus fractional scatter, in the floating-point order
    of ``gamma_bar * w / normalization`` with
    ``w = (sqrt(eta) X + sqrt(xi) p)^2 + (Y + sqrt(xi) q)^2 + 2 (eta G1 + G2)``.
    Every draw and every operation after it writes into a row: the first
    LoS branch forms in row 0, the second in row 1 and joins it, and the
    scatter terms sum in the rows after the LoS part before they join it.
    Only the Poisson counts below one degree of freedom take arrays of
    their own.
    """
    mu, eta, kappa, q2 = params.mu, params.eta, params.kappa, params.q2
    if eta == 1.0:  # (variance, LoS power) of each branch; here one for both
        dof, branches = 2.0 * mu, ((1.0, params.rho2 * q2 + q2),)
    else:
        dof, branches = mu, ((eta, params.rho2 * q2), (1.0, q2))
    xi = 1.0  # no LoS fluctuation at m = inf, and no LoS to modulate at kappa = 0
    if kappa and not math.isinf(params.m):
        # gamma(m, scale=1/m) is scale * standard_gamma(m): the same bits
        xi = rng.standard_gamma(params.m, out=rows[2])
        xi *= 1.0 / params.m
    shapes = [dof / 2] * len(branches)  # scatter of each branch: chi^2(2 shape)
    first = 0  # row of the first scatter term: 1 past a LoS part in row 0
    if kappa and dof >= 1.0:  # chi'^2(dof, lam) = (Z + sqrt(lam))^2 + chi^2(dof - 1)
        root_xi = np.sqrt(xi, out=xi) if np.ndim(xi) else None
        for i, (var, los) in enumerate(branches):
            row = rows[i]
            rng.standard_normal(out=row)
            row *= math.sqrt(var)
            if root_xi is None:
                row += math.sqrt(los)
            else:  # the last branch needs sqrt(xi) no more and scales it in place
                offset = rows[2] if i == len(branches) - 1 else rows[1]
                row += np.multiply(root_xi, math.sqrt(los), out=offset)
            np.square(row, out=row)
        if len(branches) == 2:
            rows[0] += rows[1]
        shapes = [(dof - 1.0) / 2] * len(branches) if dof > 1.0 else []
        first = 1
    elif kappa:  # chi'^2(dof, lam) = chi^2(dof + 2N) with N ~ Poisson(lam / 2)
        try:
            shapes = [dof / 2 + rng.poisson(xi * (los / (2.0 * var)), size=rows.shape[1])
                      for var, los in branches]
        except ValueError as exc:  # numpy's Poisson stops near lam/2 = 9.2e18
            raise ParameterError(f"LoS noncentrality too large to sample at "
                                 f"mu={mu!r}, kappa={kappa!r}") from exc
    for (var, _), shape, row in zip(branches, shapes, rows[first:]):
        if np.ndim(shape) == 0 and shape == 0.5:  # chi^2(1): a squared normal
            np.square(rng.standard_normal(out=row), out=row)
        else:  # chi^2(2 shape) = 2 Gamma(shape)
            rng.standard_gamma(shape, out=row)
            row *= 2.0
        row *= var
    if len(shapes) == 2:
        rows[first] += rows[first + 1]
    if first and shapes:
        rows[0] += rows[1]
    gamma = rows[0]
    gamma *= params.gamma_bar
    gamma /= 2.0 * params.omega_cap
    return gamma


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
    thread per CPU the process may run on, at most one per chunk, worker w
    taking chunks w, w + workers, ...; a single chunk runs inline.  Each
    worker allocates one (3, chunk) array per call and draws every chunk of
    its share into it, so a call holds three chunk-sized rows per worker.
    Every real mu > 0 is sampled, with or without LoS.
    Raises :class:`ParameterError` for an A that is not finite and > 0, and
    for a LoS noncentrality beyond numpy's Poisson range (lam/2 > ~9.2e18)
    where it needs the Poisson mixture, and :class:`ConvergenceError` when
    every sampled (1+gamma)^-A underflows to 0.
    """
    _check_a_exponent(a_exponent)

    n = config.n_samples
    sizes = [CHUNK_SIZE] * (n // CHUNK_SIZE)
    if n % CHUNK_SIZE:
        sizes.append(n % CHUNK_SIZE)

    def run_chunks(tasks):
        rows = np.empty((3, sizes[0]))  # this worker's, reused chunk after chunk
        partials = []
        for idx, size in tasks:
            values = _sample_block(params, _chunk_rng(config.seed, idx), rows[:, :size])
            values += 1.0
            values **= -a_exponent  # ndarray power: same fast paths as ``**``
            s1 = float(values.sum())
            values *= values
            partials.append((s1, float(values.sum())))
        return partials

    tasks = list(enumerate(sizes))
    workers = min(_available_cpus(), len(tasks))
    if workers > 1:
        # pool threads start in an empty context: give each worker the caller's,
        # so that numpy error states (np.errstate) hold as in a serial run
        context = contextvars.copy_context()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = [p for ps in pool.map(lambda t: context.copy().run(run_chunks, t),
                                             [tasks[w::workers] for w in range(workers)])
                        for p in ps]
    else:
        partials = run_chunks(tasks)

    s1 = math.fsum(p[0] for p in partials)
    s2 = math.fsum(p[1] for p in partials)
    if s1 == 0.0:
        raise ConvergenceError(
            f"every sampled (1+gamma)^-A underflowed to 0 (A={a_exponent!r}); "
            f"use quadrature")
    j_hat = s1 / n
    variance = max(s2 / n - j_hat * j_hat, 0.0) * n / max(n - 1, 1)
    j_stderr = math.sqrt(variance / n)
    return McEstimate(j_hat=j_hat, j_stderr=j_stderr)
