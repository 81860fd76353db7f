"""Input points of the benchmark workloads, as plain numbers.

This module imports nothing from ``fbrate``: the oracle generator
(``oracle.py``) and the timed worker (``worker.py``) both enumerate the same
points from here, so a reference value always matches the request it checks.
"""

from __future__ import annotations

import random

#: Sub-dB grid offsets a seed may draw for one figure sweep or high-mult point.
OFFSETS = tuple(k / 10 for k in range(10))

A_FIG = 2.0
FIG_FIXED = dict(m=1.0, kappa=1.0, eta=0.1, rho2=0.1)
FIG_SNR_START = -10.0
FIG_SNR_POINTS = 41  # -10..30 dB at 1 dB
#: The README figure sweeps: base mu, the varied axis and its values.
FIG_SWEEPS = {
    "fig-1": dict(mu=2.0, vary="mu", values=(1.0, 2.0, 4.0)),
    "fig-2": dict(mu=1.5, vary="m", values=(0.5, 1.0, 3.0)),
}

HM_FIXED = dict(kappa=3.0, eta=0.3, rho2=0.3)
HM_M = (10.0, 20.0, 40.0)
HM_MU = (2.0, 20.0, 40.0)
HM_SNR_DB = (10.0, 20.0, 30.0)
HM_A = (2.0, 5.0)
HM_EXTRA = dict(mu=20.0, m=200.0, snr_db=20.0, a=5.0)  # 2m+mu = 420, under the 500 cap

#: Axes of the ``fbrate validate`` cross-engine grid, in its loop order.
GRID_M = (1.0, 2.0, 3.0)
GRID_MU = (2.0, 4.0, 6.0)
GRID_KAPPA = (0.5, 1.0, 2.0)
GRID_ETA = (0.1, 0.5, 1.0)
GRID_RHO2 = (0.1, 1.0)
GRID_SNR_DB = (-10.0, 0.0, 10.0, 20.0, 30.0)
GRID_A = (0.5, 1.0, 2.0, 5.0)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def snr_key(snr_db: float) -> str:
    """Oracle key of an SNR in dB; every benchmark SNR sits on a 0.1 dB grid."""
    return f"{snr_db:.1f}"


def fig_snr_grid(offset: float) -> list[float]:
    """The SNR grid of one sweep, computed as ``fbrate er --snr-db`` computes it."""
    start = FIG_SNR_START + offset
    return [start + 1.0 * k for k in range(FIG_SNR_POINTS)]


def fig_key(sweep: str, snr_db: float, vary: float) -> str:
    return f"{sweep}|{snr_key(snr_db)}|{vary:g}"


def fig_point(sweep: str, snr_db: float, vary: float) -> dict:
    """Channel parameters, linear SNR and A of one figure-sweep row."""
    spec = FIG_SWEEPS[sweep]
    params = dict(FIG_FIXED, mu=spec["mu"])
    params[spec["vary"]] = vary
    return dict(params, gamma_bar=db_to_linear(snr_db), a=A_FIG)


def hm_base_points() -> list[dict]:
    """The 55 high-multiplicity points before the seeded sub-dB offset."""
    pts = [dict(mu=mu, m=m, snr_db=snr, a=a)
           for m in HM_M for mu in HM_MU for snr in HM_SNR_DB for a in HM_A]
    pts.append(dict(HM_EXTRA))
    return pts


def hm_key(mu: float, m: float, snr_db: float, a: float) -> str:
    return f"hm|{mu:g}|{m:g}|{snr_key(snr_db)}|{a:g}"


def hm_point(mu: float, m: float, snr_db: float, a: float) -> dict:
    return dict(HM_FIXED, mu=mu, m=m, gamma_bar=db_to_linear(snr_db), a=a)


def grid_shapes() -> list[dict]:
    """The 162 channel shapes of the cross-engine grid (each has 20 SNR x A points)."""
    return [dict(mu=mu, m=m, kappa=kappa, eta=eta, rho2=rho2)
            for m in GRID_M for mu in GRID_MU for kappa in GRID_KAPPA
            for eta in GRID_ETA for rho2 in GRID_RHO2]


def grid_block(shape: dict) -> list[tuple[dict, float]]:
    """(params, A) pairs of one shape, in the order ``closed_form_grid`` lists them."""
    return [(dict(shape, gamma_bar=db_to_linear(snr)), a)
            for snr in GRID_SNR_DB for a in GRID_A]


# --- seeded draws -------------------------------------------------------------


def draw_fig_requests(seed: int, n: int) -> list[tuple[str, float]]:
    """n sweeps alternating fig-1 / fig-2, each with a seeded grid offset."""
    rng = random.Random(f"fig-sweep/{seed}")
    sweeps = list(FIG_SWEEPS)
    return [(sweeps[i % 2], rng.choice(OFFSETS)) for i in range(n)]


def draw_grid_shapes(seed: int, per_stratum: int) -> list[dict]:
    """Shapes drawn without replacement, the same number in every (mu, m, kappa) stratum.

    Stratifying finer than by mu alone keeps the share of shapes that reach
    the extended-precision re-run (mu >= 4, A = 5, high SNR) nearly the same
    on every seed; each mu still gets 9 * per_stratum shapes.
    """
    rng = random.Random(f"cross-grid/{seed}")
    strata: dict[tuple, list[dict]] = {}
    for shape in grid_shapes():
        strata.setdefault((shape["mu"], shape["m"], shape["kappa"]), []).append(shape)
    drawn = []
    for key in sorted(strata):
        drawn.extend(rng.sample(strata[key], per_stratum))
    rng.shuffle(drawn)
    return drawn


def draw_hm_points(seed: int) -> list[dict]:
    """The 55 high-multiplicity points, each shifted by a seeded sub-dB offset."""
    rng = random.Random(f"high-mult/{seed}")
    pts = []
    for p in hm_base_points():
        pts.append(dict(p, snr_db=p["snr_db"] + rng.choice(OFFSETS)))
    return pts


def mc_order(seed: int, n_configs: int) -> list[int]:
    """A seeded permutation of the Monte-Carlo configurations."""
    order = list(range(n_configs))
    random.Random(f"mc/{seed}").shuffle(order)
    return order
