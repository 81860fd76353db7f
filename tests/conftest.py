"""Shared fixtures, independent oracles, and frozen golden values.

Golden constants were computed before the implementation existed, with
mpmath at 40 significant digits: the rate integral by adaptive quadrature of
the explicit integrand s**(A-1) e**(-s) M(s), the exponential integral by its
power series, and the Tricomi U values by high-resolution quadrature of the
defining integral (cross-checked against a 200k-point trapezoid rule).  The
oracles below are coded independently of the package internals.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc

import fbrate
from fbrate import ChannelParams, ErRequest, er_auto, log_mgf
from fbrate.mc import _sample_block
from fbrate.model import channel_constants
from fbrate.specfun import _U_TOL, u_terms

# --- frozen goldens ----------------------------------------------------------

# Fig-1-style configuration: mu=2, m=1, kappa=1, eta=0.1, rho2=0.1, gamma_bar=1
FIG1 = dict(mu=2.0, m=1.0, kappa=1.0, eta=0.1, rho2=0.1)
FIG1_OMEGA = 2.2
FIG1_ALPHA1 = 0.061983471074380165
FIG1_BETA = -1.0
FIG1_C1 = 15.06222081039093476
FIG1_C2 = 1.071112522942398573
FIG1_MGF_AT_1 = 0.48496993987975952
FIG1_A11 = -0.0765566601970550627
FIG1_A21 = 1.0765566601970550627
FIG1_U_C1 = 0.05897733195077076724    # U(1; 0; c1)
FIG1_U_C2 = 0.39046097059192996872    # U(1; 0; c2)
FIG1_J_A2 = 0.38223819920982843384    # A = 2, 0 dB
FIG1_R_A2 = 0.69372806637498491411

# same kappa/eta/rho2/m at 0 dB, A=2, other cluster counts (quadrature route)
FIG1_J_MU1 = 0.45172746639826679901
FIG1_R_MU1 = 0.57323772910825050565
FIG1_J_MU4 = 0.33777076593451548996
FIG1_R_MU4 = 0.78294181331246692479

# mu=1.5 sweep at 0 dB, A=2 (kappa=1, eta=0.1, rho2=0.1)
FIG2_J_BY_M = {0.5: 0.42465243905911804835,
               1.0: 0.40790635246490488556,
               3.0: 0.39284231208502887653}

# Rayleigh, gamma_bar=1, A=2: J = 1 - e*E1(1)
E1_AT_1 = 0.21938393439552027368
J_RAYLEIGH = 0.40365263767680592566
R_RAYLEIGH = 0.65440688791771564054

# Nakagami-style degeneration mu=2, m=1, eta=1, kappa=0 at gamma_bar=1, A=2:
# density 4 g e^{-2g}, J = 4*U(2;1;2)
J_NAKAGAMI_MU2 = 0.33594340265867101637
U_2_1_2 = 0.08398585066466775409

# U(3; 0.5; 2), high-resolution quadrature of the defining integral
U_3_HALF_2 = 0.011037962739750986804

# z e^z E1(z) at z = 0.5  (Rayleigh gamma_bar=2 at A=1)
J_RAYLEIGH_G2_A1 = 0.46145531624186523442

# merged double pole: mu=2, m=2, eta=1, kappa=0, gamma_bar=3, A=0.5
J_MERGED_G3_A05 = 0.55005758560518021080

# high-multiplicity defects of the auto dispatcher (kappa=3, eta=rho2=0.3):
# (mu, m, snr_db, A) -> J by 30-digit mpmath quadrature of the physical-form
# MGF, tanh-sinh and Gauss-Legendre agreeing to 1e-17
HIGH_MULT = dict(kappa=3.0, eta=0.3, rho2=0.3)
HIGH_MULT_J = {(2.0, 40.0, 20.0, 5.0): 3.3049440292117800540e-6,
               (2.0, 40.0, 30.0, 2.0): 4.8493483720980410715e-6,
               (20.0, 200.0, 20.0, 5.0): 1.5536533120170195049e-10,
               # from the benchmark's independent 30-digit oracle
               # (bench/oracle.json, keys hm|mu|m|30.0|5 at sub-dB offset 0.0)
               (20.0, 10.0, 30.0, 5.0): 4.2006646660348833620e-15,
               (20.0, 20.0, 30.0, 5.0): 2.5668863163520493928e-15,
               (20.0, 40.0, 30.0, 5.0): 2.0010357510803371249e-15,
               (40.0, 10.0, 30.0, 5.0): 3.0628352526821976383e-15,
               (40.0, 20.0, 30.0, 5.0): 1.9523980185759522187e-15,
               (40.0, 40.0, 30.0, 5.0): 1.5537859482172561887e-15}


def fig1_params(gamma_bar: float = 1.0, mu: float = 2.0) -> ChannelParams:
    return ChannelParams(mu=mu, m=1.0, kappa=1.0, eta=0.1, rho2=0.1,
                         gamma_bar=gamma_bar)


# --- independent oracles ------------------------------------------------------


def unit_eta_shadowed_mgf(kappa, mu, m, gamma_bar, s):
    """LoS-shadowed MGF for eta = 1, from the cluster model directly.

    With equal in-phase/quadrature variances the conditional power is
    noncentral chi-square and the gamma-mixed MGF collapses to
    (1+x)^(m-mu) (1 + (1 + kappa*mu/m) x)^-m with x = gbar*s/(mu(1+kappa)).
    Shares nothing with the package's root/quadratic machinery.
    """
    x = gamma_bar * np.asarray(s, dtype=float) / (mu * (1.0 + kappa))
    return (1.0 + x) ** (m - mu) * (1.0 + (1.0 + kappa * mu / m) * x) ** -m


def unit_eta_shadowed_j(kappa, mu, m, gamma_bar, a_exponent):
    """Rate expectation for the eta = 1 oracle MGF by adaptive quadrature."""
    lg = math.gamma(a_exponent)

    def bare(s):
        return math.exp(-s) * float(unit_eta_shadowed_mgf(kappa, mu, m, gamma_bar, s)) / lg

    def full(s):
        return s ** (a_exponent - 1.0) * bare(s)

    v1, _ = quad(bare, 0.0, 1.0, weight="alg", wvar=(a_exponent - 1.0, 0.0),
                 epsabs=0.0, epsrel=1e-12, limit=200)
    v2, _ = quad(full, 1.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    return v1 + v2


def cluster_model_mgf(params: ChannelParams, s):
    """Analytic MGF straight from the physical cluster geometry.

    Chains the Gaussian MGF of each squared component with the gamma mixing
    of the LoS field; independent of the quadratic-root formulation.  At
    m = inf the mixing factor (1 + u/m)^-m is its limit exp(-u).
    """
    sx2 = params.eta
    sy2 = 1.0
    q2 = params.kappa * params.mu * (sx2 + sy2) / (1.0 + params.rho2)
    p2 = params.rho2 * q2
    norm = (1.0 + params.kappa) * params.mu * (sx2 + sy2)
    t = np.asarray(s, dtype=float) * params.gamma_bar / norm
    g1 = 1.0 + 2.0 * t * sx2
    g2 = 1.0 + 2.0 * t * sy2
    u = p2 * t / g1 + q2 * t / g2
    los = np.exp(-u) if math.isinf(params.m) else (1.0 + u / params.m) ** -params.m
    return g1 ** (-params.mu / 2.0) * g2 ** (-params.mu / 2.0) * los


def cluster_model_log_mgf_mp(params: ChannelParams, s: float) -> float:
    """log M(s) of the physical cluster model at 30 digits, for one scalar s.

    The chain of ``cluster_model_mgf`` in mpmath, with the mixing factor as
    -m log1p(u/m), so that no digit is lost at any m; -u at m = inf.
    """
    with mp.workdps(30):
        mu, kappa, eta, rho2 = (mp.mpf(v) for v in (params.mu, params.kappa, params.eta,
                                                     params.rho2))
        q2 = kappa * mu * (eta + 1) / (1 + rho2)
        t = mp.mpf(s) * params.gamma_bar / ((1 + kappa) * mu * (eta + 1))
        g1, g2 = 1 + 2 * t * eta, 1 + 2 * t
        u = rho2 * q2 * t / g1 + q2 * t / g2
        los = u if math.isinf(params.m) else params.m * mp.log1p(u / params.m)
        return float(-mu / 2 * (mp.log(g1) + mp.log(g2)) - los)


def cluster_model_j(params: ChannelParams, a_exponent: float) -> float:
    """J = Gamma(A)^-1 int exp(A x - e^x) M(e^x) dx by mpmath tanh-sinh in x = ln s.

    Integrates ``cluster_model_mgf`` over half-unit panels in x from below
    the lower MGF knee (s ~ 1/gamma_bar) to s = e^6, where the e^-s factor has
    buried the rest; uses neither the MGF form nor the nodes of the package.

    Accuracy: ``mp.quad`` runs at mpmath's working precision, 15 digits by
    default, over the double ``cluster_model_mgf``, and the 15-digit rule, not
    the double MGF, sets the error.  Against the 35-digit ``EXTENDED_GRID_J``
    of ``test_extended`` it lands 4.0e-15, 3.7e-14 and 1.2e-12 (relative) off
    on the three ``EXTENDED_GRID`` points; at 20 digits all three are within
    5e-16.  A check tighter than ~1e-11 should therefore compare against
    stored high-precision values like ``EXTENDED_GRID_J``.  At 20 digits a
    call costs ~1.1-1.6 times as much (0.04-0.06 s against 0.03-0.05 s on a
    shared 2-core x86_64 host); it stays at 15 digits so that the values the
    suite compares against do not move.
    """
    def integrand(x):
        s = mp.exp(x)
        return mp.exp(a_exponent * x - s) * float(cluster_model_mgf(params, float(s)))

    norm = (1.0 + params.kappa) * params.mu * (1.0 + params.eta)
    knee = math.log(norm / (2.0 * max(params.eta, 1.0) * params.gamma_bar))
    panels = [0.5 * k for k in range(2 * math.floor(knee) - 16, 13)]
    return float(mp.quad(integrand, [-mp.inf, *panels]) / mp.gamma(a_exponent))


def mgf_mean_check(params: ChannelParams) -> float:
    """Analytic -dM/ds at s = 0; algebra forces this to equal gamma_bar.

    Useful as a self-consistency probe: any mismatch flags a bug in the
    derived constants rather than a property of the parameters.  At m = inf
    the LoS factor exp(-u) contributes u'(0) = kappa/(1+kappa) instead of the
    m-weighted terms.
    """
    if math.isinf(params.m):
        return params.gamma_bar * (0.5 * params.mu * (1.0 + params.eta) / params.omega_cap
                                   + params.kappa / (1.0 + params.kappa))
    e_neg = params.mu / 2.0 - params.m  # -(m - mu/2)
    beta = channel_constants(*params.shape)[5]
    return params.gamma_bar * (
        e_neg * (1.0 + params.eta) / params.omega_cap - params.m * beta
    )


def sample_block(params: ChannelParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """n SNR realizations from the physical channel, drawn into fresh rows."""
    return _sample_block(params, rng, np.empty((3, n)))


def sample_snr(params: ChannelParams, rng: np.random.Generator) -> float:
    """Draw one SNR realization from the physical channel."""
    return float(sample_block(params, rng, 1)[0])


def quadrature_j(params: ChannelParams, a_exponent: float,
                 rel_tol: float = 1e-8) -> tuple[float, float]:
    """(J, error estimate) of the quadrature route, as ``er_auto`` gives it."""
    result = er_auto(ErRequest(params, a_exponent, "quadrature", rel_tol))
    return result.expectation_j, result.error_estimate


def closed_form_j(params: ChannelParams, a_exponent: float) -> float:
    """J of the closed-form route, as ``er_auto`` gives it."""
    return er_auto(ErRequest(params, a_exponent, "closed_form")).expectation_j


def rayleigh_j(gamma_bar: float, a_exponent: float) -> float:
    """Exact J for Rayleigh fading: z e^z E_A(z) with z = 1/gamma_bar.

    The SNR is exponential with mean gamma_bar, so J = z e^z E_A(z) =
    z int_0^inf (1+g)^-A e^(-z g) dg.  That integral is taken by 30-digit
    mpmath tanh-sinh, split at 1, 10 and 100 decay lengths 1/(A+z): it
    matches ``mpmath.expint`` to 1e-23 wherever that is fast, and stays at
    ~40 ms where ``expint`` takes seconds (A = z = 1000).
    """
    with mp.workdps(30):
        z = 1 / mp.mpf(gamma_bar)
        a = mp.mpf(a_exponent)
        splits = [k / (a + z) for k in (1, 10, 100)]
        return float(z * mp.quad(lambda g: mp.exp(-a * mp.log1p(g) - z * g),
                                 [0, *splits, mp.inf]))


def exp1(z: float) -> float:
    """E1(z) for z > 0 by power series (z <= 1) or continued fraction.

    Independent oracle for the U identities U(1;1;z) = e^z E1(z) and
    U(1;0;z) = 1 - z e^z E1(z).
    """
    if z <= 0:
        raise ValueError("E1 requires z > 0")
    if z <= 1.0:
        # E1 = -euler_gamma - ln z + sum_{k>=1} (-1)^{k+1} z^k / (k k!)
        total = -0.57721566490153286060651209 - math.log(z)
        term = 1.0
        for k in range(1, 60):
            term *= -z / k
            contrib = -term / k
            total += contrib
            if abs(contrib) < 1e-18 * abs(total):
                break
        return total
    # modified Lentz continued fraction: E1(z) = e^-z / (z + 1/(1 + 1/(z + 2/(1 + ...))))
    tiny = 1e-300
    f = tiny
    c = f
    d = 0.0
    for i in range(1, 300):
        if i == 1:
            an, bn = 1.0, z
        elif i % 2 == 0:
            an, bn = (i // 2), 1.0
        else:
            an, bn = (i // 2), z
        d = bn + an * d
        d = tiny if d == 0.0 else d
        c = bn + an / c
        c = tiny if c == 0.0 else c
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(-z) * f


@dataclass(frozen=True)
class UFamily:
    """W_j = z^j U(j; j-A+1; z) for j = 1..n, each certified to ``rel_tol``.

    A W_j below the double range is certified to ``rel_tol`` of the smallest
    normal double instead (see ``specfun._certified``).

    ``bounds[j-1]`` bounds |error of values[j-1]|; ``branches[j-1]`` names
    the evaluation that certified it: ``recurrence`` (W_1 direct, or
    forward), ``asymptotic`` (a seed from the large-z series),
    ``quadrature`` (a seed integral) or ``backward``.
    """

    values: tuple[float, ...]
    bounds: tuple[float, ...]
    branches: tuple[str, ...]


def u_family(a: float, z: float, n: int, rel_tol: float = _U_TOL) -> UFamily:
    """W_j = z^j U(j; j-A+1; z) = E[(1+X_j)^-A] for j = 1..n, A = ``a``, z > 0.

    The first n terms of ``specfun.u_terms``, gathered so that a test can
    index them.  As the seeds' place depends on n, a shorter family may
    differ from the start of a longer one in the last bits.
    """
    values, bounds, branches = zip(*u_terms(a, z, n, rel_tol))
    return UFamily(values=values, bounds=bounds, branches=branches)


def tricomi_u_int_a(a: int, b: float, z: float, rel_tol: float = _U_TOL) -> float:
    """U(a; b; z) for integer a >= 1, real b, z > 0, from the package's U family.

    The last member of :func:`u_family` with A = a - b + 1, scaled by
    z^-a.  Lets the U tests address single (a, b, z) points; raises
    ``ConvergenceError`` carrying the achieved error estimate if the target
    accuracy cannot be certified.
    """
    if a < 1 or a != int(a):
        raise ValueError(f"first argument must be a positive integer, got {a!r}")
    if z <= 0:
        raise ValueError(f"z must be > 0, got {z!r}")
    a = int(a)
    return u_family(a - b + 1.0, z, a, rel_tol).values[-1] * z**-a


def tricomi_u_integral_mp(j: int, b, z):
    """U(j; b; z) by mpmath quadrature of its defining Laplace integral.

    With s = z t, U = z^-j Gamma(j)^-1 int_0^inf s^(j-1) (1+s/z)^(b-j-1) e^-s ds.
    The integral is taken in x = ln s, split at the knee s = z, at s = 1 and
    around the Gamma peak s = j-1 (width sqrt j), and truncated where the
    integrand has fallen by e^(-3 dps).  ``mp.quad`` stops on an absolute
    tolerance, so the integrand is divided by its largest value at the split
    points first.  Shares nothing with the package's recurrence.  Runs at
    the caller's working precision.
    """
    def log_f(x):
        s = mp.exp(x)
        return j * x - s + (b - j - 1) * mp.log1p(s / z)

    digits = 3 * mp.mp.dps
    peak = (j - 1 + k * mp.sqrt(j) for k in (-4, -2, 0, 2, 4, 8))
    knots = {mp.log(z), mp.mpf(0), *(mp.log(s) for s in peak if s > 0)}
    points = sorted(knots | {min(knots) - digits / j, mp.log(2 * j + digits)})
    scale = max(log_f(x) for x in points)
    integral = mp.quad(lambda x: mp.exp(log_f(x) - scale), points)
    return integral * mp.exp(scale - mp.loggamma(j)) * z**-j


def reconstruct(expansion, gamma_bar: float, s):
    """Evaluate sum_ij A_ij (1 + g*s/theta_i)^-j (should reproduce the MGF)."""
    s = np.asarray(s, dtype=float)
    total = np.zeros(s.shape)
    for theta, _, coeffs in expansion.terms:
        base = 1.0 / (1.0 + gamma_bar * s / theta)
        powered = np.ones_like(total)
        for a_ij in coeffs:
            powered = powered * base
            total = total + a_ij * powered
    return total


def reconstruction_error(params: ChannelParams, expansion,
                         n_points: int = 32, seed: int = 0) -> float:
    """Max relative error of the expansion against the MGF at random s points.

    Points are drawn on the transform's own scale (gamma_bar * s up to 10):
    far beyond it the MGF underflows through cancellation of the
    partial-fraction terms, which no double-precision evaluation of the sum
    can represent, while the expansion coefficients themselves stay exact.
    """
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.0, 10.0, size=n_points) / params.gamma_bar
    truth = np.exp(log_mgf(params, s))
    approx = reconstruct(expansion, params.gamma_bar, s)
    return float(np.max(np.abs(approx - truth) / truth))


def expansion_cdf(expansion, gamma_bar):
    """CDF from a partial-fraction expansion (real poles), for KS tests."""
    terms = []
    for theta, _, coeffs in expansion.terms:
        assert abs(theta.imag) <= 1e-9 * abs(theta.real)
        for j, a_ij in enumerate(coeffs, start=1):
            if a_ij != 0:
                assert abs(a_ij.imag) <= 1e-9 * abs(a_ij.real) + 1e-300
                terms.append((a_ij.real, j, theta.real / gamma_bar))

    def cdf(x):
        x = np.asarray(x, dtype=float)
        total = np.zeros(x.shape)
        for weight, j, z in terms:
            total += weight * gammainc(j, z * x)
        return total

    return cdf


def ks_distance(samples: np.ndarray, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov distance of samples against a CDF."""
    x = np.sort(samples)
    n = x.size
    f = cdf(x)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return max(upper, lower)


def random_valid_params(rng: np.random.Generator, gamma_bar=None) -> ChannelParams:
    """Draw one broadly ranged valid parameter set."""
    return ChannelParams(
        mu=float(rng.uniform(0.3, 8.0)),
        m=float(rng.uniform(0.3, 10.0)),
        kappa=float(rng.uniform(0.0, 5.0)),
        eta=float(10.0 ** rng.uniform(-1.5, 1.5)),
        rho2=float(rng.uniform(0.0, 5.0)),
        gamma_bar=float(10.0 ** rng.uniform(-1.0, 3.0)) if gamma_bar is None else gamma_bar,
    )


def fresh_env(**variables) -> dict:
    """Environment for a fresh interpreter that imports this checkout's fbrate."""
    src = str(Path(fbrate.__file__).resolve().parents[1])
    return dict(os.environ, **variables, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def fresh_series():
    """An empty per-shape memo of the gamma-mixture series before and after the test.

    A test that patches a name the series' setup reads must neither meet a
    shape set up before its patch nor leave one set up under it.
    """
    fbrate._extended._shape_series.cache_clear()
    yield
    fbrate._extended._shape_series.cache_clear()
