"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Golden
values were fixed before the build from high-precision quadrature of the
explicit rate integrand (see conftest.py); every tolerance is pinned here.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.integrate import quad

import fbrate.mc
from fbrate import ChannelParams, decompose, estimate_er, log_mgf, mgf, pdf, preset
from fbrate.crosscheck import (closed_form_grid, mc_grid, run_cross_check,
                               run_mc_check)
from fbrate.mc import McConfig
from fbrate.rate import effective_rate

from conftest import (FIG1_J_A2, FIG1_R_A2, J_RAYLEIGH, R_RAYLEIGH, closed_form_j,
                      fig1_params, quadrature_j, rayleigh_j, reconstruction_error,
                      unit_eta_shadowed_j)
from conftest import exp1 as _exp1, tricomi_u_int_a


def _report(n, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")
    assert ok, detail


def unique_param_sets():
    seen = {}
    for params, _ in closed_form_grid():
        seen.setdefault((params.mu, params.m, params.kappa, params.eta,
                         params.rho2, params.gamma_bar), params)
    return list(seen.values())


def test_criterion_1_cross_engine_exactness():
    start = time.perf_counter()
    report = run_cross_check()
    elapsed = time.perf_counter() - start
    ok = report.max_rel_diff <= 1e-6 and elapsed <= 60.0
    _report(1, ok, f"quad vs closed max rel diff {report.max_rel_diff:.3e} "
                   f"(limit 1e-6) over {report.n_configs} configs "
                   f"in {elapsed:.1f}s (limit 60s)")


def test_criterion_2_analytic_goldens():
    ray = preset("rayleigh")
    j_ray, _ = quadrature_j(ray, 2.0)
    r_ray = effective_rate(j_ray, 2.0)
    fig1 = fig1_params()
    j_fig1, _ = quadrature_j(fig1, 2.0)
    r_fig1 = effective_rate(j_fig1, 2.0)
    ok = (abs(j_ray - J_RAYLEIGH) <= 1e-5 and abs(r_ray - R_RAYLEIGH) <= 1e-3
          and abs(j_fig1 - FIG1_J_A2) <= 1e-5 and abs(r_fig1 - FIG1_R_A2) <= 1e-3)
    _report(2, ok,
            f"Rayleigh J={j_ray:.6f} (golden {J_RAYLEIGH:.6f} +-1e-5), "
            f"R={r_ray:.4f} (golden {R_RAYLEIGH:.4f} +-1e-3); "
            f"fig-1 config J={j_fig1:.6f}, R={r_fig1:.4f} "
            f"(oracle-fixed goldens {FIG1_J_A2:.6f}/{FIG1_R_A2:.4f})")


def test_criterion_3_figure_sweeps():
    start = time.perf_counter()
    csv_out = {}
    for label, vary, values in (("fig1", "mu", ("1", "2", "4")),
                                ("fig2", "m", ("0.5", "1", "3"))):
        base_mu = "2" if vary == "mu" else "1.5"
        base_m = "1"
        proc = subprocess.run(
            [sys.executable, "-m", "fbrate.cli", "er", "--mu", base_mu,
             "--m", base_m, "--kappa", "1", "--eta", "0.1", "--rho2", "0.1",
             "--A", "2", "--snr-db=-10:30:1", "--vary", vary,
             "--vary-values", ",".join(values)],
            capture_output=True, text=True, check=True)
        csv_out[label] = proc.stdout
    elapsed = time.perf_counter() - start

    ok = elapsed <= 5.0
    details = [f"CSV emitted in {elapsed:.1f}s (limit 5s)"]
    for label, out in csv_out.items():
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        curves = {}
        for r in rows:
            curves.setdefault(float(r[1]), []).append((float(r[0]), float(r[2])))
        ordered = sorted(curves)
        for v in ordered:
            rates = [rate for _, rate in sorted(curves[v])]
            if not np.all(np.diff(rates) > 0):
                ok = False
                details.append(f"{label}: rate not strictly increasing at {v}")
        for lo, hi in zip(ordered, ordered[1:]):
            low = np.array([r for _, r in sorted(curves[lo])])
            high = np.array([r for _, r in sorted(curves[hi])])
            if not np.all(high >= low):
                ok = False
                details.append(f"{label}: rate decreased from {lo} to {hi}")
        details.append(f"{label}: {len(ordered)} curves x {len(curves[ordered[0]])} "
                       f"points, increasing in snr and in {('mu', 'm')[label == 'fig2']}")
    _report(3, ok, "; ".join(details))


def test_criterion_4_model_invariants():
    worst_m0 = worst_mean = worst_mass = worst_snr_mean = 0.0
    for params in unique_param_sets():
        worst_m0 = max(worst_m0, abs(mgf(params, 0.0) - 1.0))
        # scale-aware central step keeps the h^2 truncation term below target
        h = 1e-6 / params.gamma_bar
        fd = -(math.exp(float(log_mgf(params, h)))
               - math.exp(float(log_mgf(params, -h)))) / (2.0 * h)
        worst_mean = max(worst_mean, abs(fd - params.gamma_bar) / params.gamma_bar)

        g = params.gamma_bar
        mass = quad(lambda u: g * pdf(params, g * u), 0.0, np.inf,
                    epsabs=1e-12, epsrel=1e-10, limit=300)[0]
        mean = quad(lambda u: g * g * u * pdf(params, g * u), 0.0, np.inf,
                    epsabs=1e-12, epsrel=1e-10, limit=300)[0]
        worst_mass = max(worst_mass, abs(mass - 1.0))
        worst_snr_mean = max(worst_snr_mean, abs(mean - g) / g)
    ok = (worst_m0 <= 1e-12 and worst_mean <= 1e-6
          and worst_mass <= 1e-8 and worst_snr_mean <= 1e-8)
    _report(4, ok,
            f"max |M(0)-1| = {worst_m0:.1e} (1e-12); "
            f"max rel mean-from-derivative err = {worst_mean:.1e} (1e-6); "
            f"max |int pdf - 1| = {worst_mass:.1e} (1e-8); "
            f"max rel |int g pdf - gbar| = {worst_snr_mean:.1e} (1e-8)")


def test_criterion_5_partial_fraction_reconstruction():
    worst = 0.0
    param_sets = unique_param_sets()
    for i, params in enumerate(param_sets):
        err = reconstruction_error(params, decompose(params),
                                   n_points=32, seed=1000 + i)
        worst = max(worst, err)
    ok = worst <= 1e-10
    _report(5, ok, f"max MGF reconstruction rel err {worst:.3e} (limit 1e-10) "
                   f"over {len(param_sets)} configurations x 32 points")


def test_criterion_6_reduction_oracles():
    # eta = 1 against the independently coded shadowed-fading oracle, 20 points
    worst_shadowed = 0.0
    points = 0
    for kappa, mu, m in ((2.0, 2.0, 2.0), (0.5, 2.0, 1.0), (4.0, 4.0, 3.0)):
        for gbar in (0.1, 1.0, 10.0, 100.0):
            for a in (0.5, 2.0):
                if points >= 20:
                    break
                p = ChannelParams(mu=mu, m=m, kappa=kappa, eta=1.0, rho2=1.0,
                                  gamma_bar=gbar)
                mine = closed_form_j(p, a)
                oracle = unit_eta_shadowed_j(kappa, mu, m, gbar, a)
                worst_shadowed = max(worst_shadowed, abs(mine - oracle) / oracle)
                points += 1

    # Rayleigh / Nakagami-style degenerations against textbook closed forms
    s_grid = np.array([0.05, 0.4, 1.0, 3.0, 9.0])
    worst_degen = 0.0
    ray = ChannelParams(mu=1.0, m=5.0, kappa=0.0, eta=1.0, rho2=1.0, gamma_bar=1.3)
    mine = np.exp(log_mgf(ray, s_grid))
    worst_degen = max(worst_degen, float(np.max(
        np.abs(mine - 1.0 / (1.0 + 1.3 * s_grid)) * (1.0 + 1.3 * s_grid))))
    nak = ChannelParams(mu=3.0, m=2.0, kappa=0.0, eta=1.0, rho2=1.0, gamma_bar=0.7)
    expected = (1.0 + 0.7 * s_grid / 3.0) ** -3.0
    mine = np.exp(log_mgf(nak, s_grid))
    worst_degen = max(worst_degen, float(np.max(np.abs(mine - expected) / expected)))
    # Gamma-density rate value: closed form vs frozen high-precision integral
    nak2 = ChannelParams(mu=2.0, m=1.0, kappa=0.0, eta=1.0, rho2=1.0, gamma_bar=1.0)
    j_nak = closed_form_j(nak2, 2.0)
    worst_degen = max(worst_degen, abs(j_nak - 0.33594340265867101637) / j_nak)

    ok = worst_shadowed <= 1e-8 and worst_degen <= 1e-9
    _report(6, ok, f"eta=1 vs shadowed oracle: max rel diff {worst_shadowed:.2e} "
                   f"(1e-8) at {points} points; degenerations vs textbook: "
                   f"max rel diff {worst_degen:.2e} (1e-9)")


def test_criterion_7_monte_carlo_concordance(monkeypatch):
    start = time.perf_counter()
    report = run_mc_check(n_samples=1_000_000, seed=42)
    elapsed = time.perf_counter() - start

    # determinism across thread counts on one configuration
    p = fig1_params()
    config = McConfig(n_samples=200_000, seed=42)
    monkeypatch.setattr(fbrate.mc, "_available_cpus", lambda: 1)
    serial = estimate_er(p, 2.0, config)
    monkeypatch.setattr(fbrate.mc, "_available_cpus", lambda: 4)
    threaded = estimate_er(p, 2.0, config)
    deterministic = serial == threaded

    ok = report.passed and deterministic and elapsed <= 120.0
    _report(7, ok,
            f"{report.n_within}/{len(report.results)} configs within 4 stderr "
            f"(need >=38), max |z| = {report.max_abs_z:.2f}, seed 42, 1e6 samples, "
            f"{elapsed:.1f}s (limit 120s); thread-count invariance: {deterministic}")


def test_criterion_8_special_function_suite():
    checks = []
    # Tricomi U identities against the module-private E1 oracle
    u_err = abs(tricomi_u_int_a(1, 0.0, 1.0) - (1.0 - math.e * _exp1(1.0)))
    checks.append(("U(1;0;1) vs 1-e*E1(1)", u_err <= 1e-11))
    u_err2 = abs(tricomi_u_int_a(1, 1.0, 2.5) - math.exp(2.5) * _exp1(2.5))
    checks.append(("U(1;1;z) vs e^z E1(z)", u_err2 <= 1e-11))
    bridge = quad(lambda g: (1.0 + g) ** -1.7 * math.exp(-0.8 * g), 0, np.inf,
                  epsabs=1e-14, epsrel=1e-12)[0]
    checks.append(("U(1;2-A;z) bridge integral",
                   abs(tricomi_u_int_a(1, 0.3, 0.8) - bridge) <= 1e-9 * bridge))
    # quadrature rule against the exact Rayleigh expectation z e^z E_A(z)
    for a, gbar in ((0.05, 1e8), (20.0, 1.0), (1e5, 1e-3)):
        p = ChannelParams(mu=1.0, m=0.5, kappa=0.0, eta=1.0, rho2=1.0, gamma_bar=gbar)
        j, err = quadrature_j(p, a, 1e-12)
        exact = rayleigh_j(gbar, a)
        checks.append((f"quadrature A={a:g} gbar={gbar:g} vs exact Rayleigh",
                       abs(j - exact) <= 1e-12 * exact and err <= 1e-12))
    ok = all(flag for _, flag in checks)
    _report(8, ok, "; ".join(f"{name}: {'ok' if flag else 'FAIL'}"
                             for name, flag in checks))
