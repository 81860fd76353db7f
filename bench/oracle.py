"""Independent reference values of J = E[(1+gamma)^-A] for the benchmark.

Each value is

    J = Gamma(A)^-1 * int_0^inf s^(A-1) e^(-s) M(s) ds

with M the SNR moment-generating function written straight from the physical
cluster model (the formula of ``cluster_model_mgf`` in the test suite):
mu clusters of in-phase / quadrature Gaussians with variances eta and 1, LoS
powers p^2 = rho2 * q^2 and q^2 = kappa*mu*(1+eta)/(1+rho2), a unit-mean gamma
(shape m) fluctuation of the LoS field, and the power normalised by its mean.
Nothing here uses ``fbrate``'s roots, poles, residues or quadrature rules.

Every value is computed twice at 30 digits, by tanh-sinh and by
Gauss-Legendre quadrature over the same knee-split intervals, and the file is
written only if the two agree to ``CERTIFY_RTOL``.

Regenerate the stored file (a few minutes on two cores) with

    python3 bench/oracle.py --jobs 2

The Monte-Carlo configurations are taken from ``fbrate.crosscheck.mc_grid()``
at generation time (inputs only) and frozen into the file with their values,
so the benchmark runs the same 40 configurations even if that grid changes.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import sys
import time
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).resolve().parent))
import points as P  # noqa: E402

ORACLE_PATH = Path(__file__).resolve().parent / "oracle.json"
DPS = 30
CERTIFY_RTOL = 1e-12
PARAM_FIELDS = ("mu", "m", "kappa", "eta", "rho2", "gamma_bar")


def expectation(mu, m, kappa, eta, rho2, gamma_bar, a, method="tanh-sinh"):
    """J at DPS digits by quadrature of the physical-form MGF; ``m`` may be inf.

    Tanh-sinh absorbs the s^(A-1) endpoint singularity of A < 1; for
    Gauss-Legendre that case is integrated over x = s^A instead, where the
    weight is smooth.
    """
    with mp.workdps(DPS):
        mu, kappa, eta, rho2, gbar, a = (mp.mpf(x) for x in
                                         (mu, kappa, eta, rho2, gamma_bar, a))
        no_fluctuation = math.isinf(m)
        m = None if no_fluctuation else mp.mpf(m)
        sx2, sy2 = eta, mp.mpf(1)
        q2 = kappa * mu * (sx2 + sy2) / (1 + rho2)
        p2 = rho2 * q2
        norm = (1 + kappa) * mu * (sx2 + sy2)
        log_norm_a = mp.loggamma(a)

        def log_mgf(s):
            t = s * gbar / norm
            g1 = 1 + 2 * t * sx2
            g2 = 1 + 2 * t * sy2
            u = p2 * t / g1 + q2 * t / g2
            log_m = -(mu / 2) * (mp.log(g1) + mp.log(g2))
            return log_m - (u if no_fluctuation else m * mp.log1p(u / m))

        def integrand(s):
            return mp.exp((a - 1) * mp.log(s) - s + log_mgf(s) - log_norm_a)

        def integrand_x(x):  # s = x^(1/A): s^(A-1) ds = dx / A
            s = x ** (1 / a)
            return mp.exp(-s + log_mgf(s) - log_norm_a) / a

        # split where the two Gaussian factors bend (s ~ 1/gamma_bar at high SNR)
        knees = {norm / (2 * sx2 * gbar), norm / (2 * sy2 * gbar)}
        cuts = sorted({k for k in knees if k < 50} | {mp.mpf(1), mp.mpf(10)})
        if method == "gauss-legendre" and a < 1:
            return mp.quad(integrand_x, [0, *(c ** a for c in cuts), mp.inf],
                           method=method)
        return mp.quad(integrand, [0, *cuts, mp.inf], method=method)


def certified(point: dict) -> tuple[str, float]:
    """(J as a 20-digit string, relative disagreement of the two rules)."""
    args = [point[k] for k in PARAM_FIELDS] + [point["a"]]
    with mp.workdps(DPS):
        v1 = expectation(*args)
        v2 = expectation(*args, method="gauss-legendre")
        rel = float(abs(v1 - v2) / abs(v1))
        return mp.nstr(v1, 20, strip_zeros=False), rel


def enumerate_points() -> tuple[dict, dict, list]:
    fig = {}
    for sweep, spec in P.FIG_SWEEPS.items():
        for offset in P.OFFSETS:
            for snr in P.fig_snr_grid(offset):
                for v in spec["values"]:
                    fig[P.fig_key(sweep, snr, v)] = P.fig_point(sweep, snr, v)
    hm = {}
    for base in P.hm_base_points():
        for offset in P.OFFSETS:
            snr = base["snr_db"] + offset
            hm[P.hm_key(base["mu"], base["m"], snr, base["a"])] = P.hm_point(
                base["mu"], base["m"], snr, base["a"])
    from fbrate.crosscheck import mc_grid  # inputs only
    mc = [dict({k: getattr(p, k) for k in PARAM_FIELDS}, a=a) for p, a in mc_grid()]
    return fig, hm, mc


def _encode_m(point: dict) -> dict:
    return dict(point, m="inf" if math.isinf(point["m"]) else point["m"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument("--out", type=Path, default=ORACLE_PATH)
    args = parser.parse_args(argv)

    fig, hm, mc = enumerate_points()
    work = list(fig.values()) + list(hm.values()) + mc
    t0 = time.perf_counter()
    if args.jobs > 1:
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(args.jobs) as pool:
            results = pool.map(certified, work, chunksize=16)
    else:
        results = [certified(p) for p in work]
    worst = max(rel for _, rel in results)
    print(f"{len(work)} points in {time.perf_counter() - t0:.0f} s; "
          f"worst tanh-sinh / Gauss-Legendre disagreement {worst:.1e}")
    if not worst <= CERTIFY_RTOL:
        print(f"error: disagreement above {CERTIFY_RTOL:g}; file not written",
              file=sys.stderr)
        return 1

    values = iter(j for j, _ in results)
    doc = {
        "about": "J = E[(1+gamma)^-A], physical-form MGF, mpmath quadrature; "
                 "see bench/oracle.py",
        "dps": DPS,
        "certified_rtol": CERTIFY_RTOL,
        "worst_disagreement": worst,
        "fig-sweep": {k: next(values) for k in fig},
        "high-mult": {k: next(values) for k in hm},
        "mc": [dict(_encode_m(p), j=next(values)) for p in mc],
    }
    args.out.write_text(json.dumps(doc, indent=0) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
