"""Cross-engine and Monte-Carlo concordance grids.

These drive both the ``validate`` / ``mc-validate`` CLI subcommands and the
acceptance tests, through the routes users get.  At every point of the
closed-form grid ``auto`` must keep the closed form, its cross-check against
the quadrature route within 1e-6 relative; and the sampled estimates must
sit within four standard errors of the quadrature values on at least 95% of
the concordance grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

from .errors import ParameterError
from .mc import McConfig
from .model import ChannelParams, preset
from .rate import CROSS_REL_TOL, ErRequest, er_auto, er_sweep

MC_Z_LIMIT = 4.0
MC_PASS_FRACTION = 0.95

#: Cartesian axes of the closed-form cross-check grid.
GRID_M = (1, 2, 3)
GRID_MU = (2, 4, 6)
GRID_KAPPA = (0.5, 1.0, 2.0)
GRID_ETA = (0.1, 0.5, 1.0)
GRID_RHO2 = (0.1, 1.0)
GRID_SNR_DB = (-10.0, 0.0, 10.0, 20.0, 30.0)
GRID_A = (0.5, 1.0, 2.0, 5.0)


def db_to_linear(db: float) -> float:
    """10^(db/10); :class:`ParameterError` where that leaves the double range."""
    try:
        linear = 10.0 ** (db / 10.0)
    except OverflowError:
        linear = math.inf
    if linear in (0.0, math.inf):
        raise ParameterError(f"mean SNR {db!r} dB is beyond the double range")
    return linear


def closed_form_grid() -> list[tuple[ChannelParams, float]]:
    """All (params, A) combinations of the cross-check grid."""
    grid = []
    for m in GRID_M:
        for mu in GRID_MU:
            for kappa in GRID_KAPPA:
                for eta in GRID_ETA:
                    for rho2 in GRID_RHO2:
                        for snr_db in GRID_SNR_DB:
                            params = ChannelParams(
                                mu=float(mu), m=float(m), kappa=kappa, eta=eta,
                                rho2=rho2, gamma_bar=db_to_linear(snr_db))
                            for a in GRID_A:
                                grid.append((params, a))
    return grid


@dataclass(frozen=True)
class CrossCheckReport:
    n_configs: int
    max_rel_diff: float
    worst: tuple[ChannelParams, float] | None

    @property
    def passed(self) -> bool:
        return self.max_rel_diff <= CROSS_REL_TOL


def run_cross_check(grid=None) -> CrossCheckReport:
    """``auto`` over the grid, as users get it; reports the worst config.

    Each run of consecutive points that share a channel shape is one
    :func:`rate.er_sweep`, one A per mean SNR, at the default ``rel_tol`` of
    1e-8, so that one quadrature rule serves the run.  A point's difference
    is the ``cross_check_rel_diff`` that ``auto`` records where it keeps the
    closed form; a point that took any other route counts as inf.
    """
    if grid is None:
        grid = closed_form_grid()
    worst = None
    max_diff = 0.0
    for _, run in groupby(grid, key=lambda point: point[0].shape):
        run = list(run)
        results = er_sweep(ErRequest(*run[0]), [params.gamma_bar for params, _ in run],
                           a_exponents=[a for _, a in run])
        for point, result in zip(run, results):
            diff = (result.cross_check_rel_diff if result.method_used == "closed_form"
                    else math.inf)
            if diff > max_diff:
                max_diff, worst = diff, point
    return CrossCheckReport(n_configs=len(grid), max_rel_diff=max_diff, worst=worst)


def mc_grid() -> list[tuple[ChannelParams, float]]:
    """40 integer-cluster configurations for sampling concordance.

    Includes the two figure-reproduction sweeps (restricted to integer
    cluster counts), the named presets, and assorted corners of the
    closed-form grid.
    """
    grid: list[tuple[ChannelParams, float]] = []
    for mu in (1, 2, 4):  # figure-1 style sweep
        for snr_db in (-10.0, 0.0, 10.0, 20.0):
            grid.append((ChannelParams(mu=float(mu), m=1.0, kappa=1.0, eta=0.1,
                                       rho2=0.1, gamma_bar=db_to_linear(snr_db)), 2.0))
    for gbar in (1.0, 10.0):
        for a in (0.5, 2.0):
            grid.append((preset("rayleigh", gamma_bar=gbar), a))
    for mu in (2, 3):
        for gbar in (1.0, 10.0):
            grid.append((preset("nakagami-m", mu=mu, gamma_bar=gbar), 1.0))
    for gbar in (0.1, 1.0, 10.0):
        grid.append((preset("kappa-mu-shadowed", kappa=2.0, mu=3.0, m=2.0,
                            gamma_bar=gbar), 2.0))
    for gbar in (1.0, 10.0):
        for a in (1.0, 5.0):
            grid.append((preset("eta-mu", eta=0.5, mu=2.0, gamma_bar=gbar), a))
    for gbar in (1.0, 10.0):
        grid.append((preset("rician", kappa=3.0, gamma_bar=gbar), 2.0))
    for gbar in (1.0, 10.0):
        grid.append((preset("beckmann", kappa=1.0, eta=0.5, rho2=2.0,
                            gamma_bar=gbar), 2.0))
    for gbar in (0.1, 1.0, 10.0):
        for a in (0.5, 2.0):
            grid.append((ChannelParams(mu=4.0, m=2.0, kappa=0.5, eta=0.5,
                                       rho2=1.0, gamma_bar=gbar), a))
    for gbar in (1.0, 100.0):
        grid.append((ChannelParams(mu=6.0, m=3.0, kappa=2.0, eta=0.1, rho2=0.1,
                                   gamma_bar=gbar), 5.0))
    grid.append((ChannelParams(mu=2.0, m=1.0, kappa=1.0, eta=1.0, rho2=1.0,
                               gamma_bar=1.0), 0.5))
    assert len(grid) == 40
    return grid


@dataclass(frozen=True)
class McCheckResult:
    params: ChannelParams
    a_exponent: float
    j_quad: float
    j_hat: float
    j_stderr: float

    @property
    def z_score(self) -> float:
        return (self.j_hat - self.j_quad) / self.j_stderr


@dataclass(frozen=True)
class McCheckReport:
    results: tuple[McCheckResult, ...]

    @property
    def n_within(self) -> int:
        return sum(abs(r.z_score) <= MC_Z_LIMIT for r in self.results)

    @property
    def max_abs_z(self) -> float:
        return max(abs(r.z_score) for r in self.results)

    @property
    def passed(self) -> bool:
        return self.n_within >= math.ceil(MC_PASS_FRACTION * len(self.results))


def run_mc_check(n_samples: int = 1_000_000, seed: int = 42) -> McCheckReport:
    """Sampled vs quadrature expectations over the concordance grid :func:`mc_grid`.

    Both come from :func:`rate.er_auto`, with ``method`` ``quadrature`` and
    ``monte_carlo``.  Each estimate runs its chunks on every CPU the process
    may run on (see :func:`mc.estimate_er`); the report is the same as a
    serial run's.
    """
    config = McConfig(n_samples=n_samples, seed=seed)
    results = []
    for params, a in mc_grid():
        quad, sampled = (er_auto(ErRequest(params, a, method), config)
                         for method in ("quadrature", "monte_carlo"))
        results.append(McCheckResult(params=params, a_exponent=a, j_quad=quad.expectation_j,
                                     j_hat=sampled.expectation_j,
                                     j_stderr=sampled.error_estimate))
    return McCheckReport(results=tuple(results))
