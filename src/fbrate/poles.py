"""MGF factors, partial-fraction residues, and the closed-form SNR density.

For integer shadowing index m and even integer cluster count mu the MGF of
:mod:`fbrate.model` is a rational function of s built from four first-order
factors:

    M(s) = (1 + g*s/(O/eta))^e (1 + g*s/O)^e (1 + g*s/c1)^-m (1 + g*s/c2)^-m

with e = m - mu/2, and O = ``omega_cap``, ``c1`` and ``c2`` the constants a
:class:`ChannelParams` stores.  :func:`mgf_factors` writes it as signed
orders, positive for poles and negative for numerator factors, and is the one
place where coincidences are decided: factors within the root-merge tolerance
are one factor whose order is the sum, and zero orders drop out.  That is
what makes the unit-eta, zero-LoS and m = mu (Nakagami-m) degeneracies work
without special cases.

Residues are computed exactly - no numerical differentiation.  Writing
u = 1 + g*s/theta_i, every other factor becomes affine in u, so the partial
fraction coefficient A_ij is the Taylor coefficient of u**(w_i - j) of an
explicit product of affine powers, obtained by the logarithmic-derivative
recursion for power series.  The g (mean SNR) cancels entirely: A_ij depends
only on pole-location ratios.

The inverse transform of each basis term (1 + g*s/theta)^-j is
(theta/g)^j gamma^{j-1} e^{-theta*gamma/g} / (j-1)!, which fixes the density
normalization; sum_ij A_ij = M(0) = 1 keeps the density integrating to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ClosedFormUnavailableError, ConvergenceError, ParameterError
from .model import ChannelParams

#: Reject closed forms whose total pole multiplicity explodes (factorials in
#: the residue recursion and alternating coefficient growth make very high
#: multiplicities useless in double precision anyway).
MAX_TOTAL_MULTIPLICITY = 500

_INT_TOL = 1e-9

#: Factors closer than this, relatively, are one higher-order factor.  Exact
#: degeneracies (eta = 1, kappa = 0, m = mu) land many orders of magnitude
#: inside this tolerance.
ROOT_MERGE_RTOL = 1e-9


@dataclass(frozen=True)
class PartialFractionExpansion:
    """Coefficient table A_ij of M(s) = sum_i sum_j A_ij (1 + g*s/theta_i)^-j.

    ``terms``: tuple of (theta_i, multiplicity_i, coeffs) with
    coeffs[j-1] = A_ij for j = 1..multiplicity_i, all real.
    ``majorants``: per term, E_ij >= |A_ij|, the envelope of the residue
    recursion that the closed form's conditioning gate reads.
    """

    terms: tuple[tuple[float, int, tuple[float, ...]], ...]
    majorants: tuple[tuple[float, ...], ...]


def pole_exponents(params: ChannelParams) -> tuple[int, int]:
    """(mu/2, effective m): the integer exponents of the rational MGF.

    Requires a positive integer m and an even integer mu, except that
    kappa = 0 removes the LoS fluctuation from the MGF altogether (the
    m-dependent factors cancel exactly), so only even integer mu is required
    there and m may be anything, including the no-fluctuation limit m = inf.
    Raises :class:`ClosedFormUnavailableError` outside this regime,
    which is the one test of whether the closed form applies.
    """
    mu_int = round(params.mu)
    if abs(params.mu - mu_int) > _INT_TOL or mu_int < 2 or mu_int % 2:
        raise ClosedFormUnavailableError(
            f"closed form requires a positive even integer mu, got {params.mu!r}")
    mu_half = int(mu_int) // 2
    if params.kappa == 0.0:
        # The c-roots coincide with the omega points and every m cancels;
        # equivalent to m = mu/2, which zeroes the numerator exponents.
        return mu_half, mu_half
    m_eff = round(params.m) if math.isfinite(params.m) else 0
    if abs(params.m - m_eff) > _INT_TOL or m_eff < 1:
        raise ClosedFormUnavailableError(
            f"closed form requires a positive integer m, got {params.m!r}")
    if 2 * m_eff + 2 * mu_half > MAX_TOTAL_MULTIPLICITY:
        raise ClosedFormUnavailableError(
            f"total multiplicity 2*m + mu = {2 * m_eff + 2 * mu_half} exceeds "
            f"{MAX_TOTAL_MULTIPLICITY}; use the quadrature engine")
    return mu_half, m_eff


def mgf_factors(params: ChannelParams) -> list[tuple[float, int]]:
    """(theta_k, e_k) with M(s) = prod_k (1 + g*s/theta_k)^(-e_k), merged.

    c1 and c2 have order m_eff; omega/eta and omega have order mu/2 - m_eff,
    negative for numerator factors.  Factors within ``ROOT_MERGE_RTOL`` of an
    earlier one (in that order) join it: their orders add and the earlier
    location is kept.  Zero orders are dropped, so the locations returned are
    distinct and every order is nonzero; the orders still sum to mu.
    """
    mu_half, m_eff = pole_exponents(params)
    omega = params.omega_cap
    merged: list[list] = []
    for theta, e in ((params.c1, m_eff), (params.c2, m_eff),
                     (omega / params.eta, mu_half - m_eff), (omega, mu_half - m_eff)):
        for entry in merged:
            if abs(theta - entry[0]) <= ROOT_MERGE_RTOL * max(theta, entry[0]):
                entry[1] += e
                break
        else:
            merged.append([theta, e])
    return [(theta, e) for theta, e in merged if e != 0]


def power_series(t0, c: np.ndarray):
    """Yield T_n of t0 exp(sum_r c_r u^r / r) for n < len(c) (c[0] unused) by the
    recursion n*T_n = sum_r c_r T_(n-r), one dot product per coefficient."""
    n_terms = len(c)
    c_rev = c[::-1].copy()  # c_n..c_1 as one contiguous slice per step
    coeffs = np.empty(n_terms)
    coeffs[0] = t0
    yield t0
    for n in range(1, n_terms):
        coeffs[n] = np.dot(coeffs[:n], c_rev[n_terms - 1 - n:n_terms - 1]) / n
        yield coeffs[n].item()


def _taylor_coefficients(factors, n_terms: int) -> tuple[list, list]:
    """(T_n, E_n) for n < n_terms: the Taylor coefficients around u = 0 of
    prod_k (a_k + b_k u)**e_k, and their envelope.

    T_0 = prod a_k**e_k and c_r = (-1)^(r-1) sum_k e_k (b_k/a_k)^r feed
    :func:`power_series`.  All a_k must be nonzero (coincident factors are
    merged beforehand).  The envelope E_n is the same series from |T_0| and
    |c_r|, which bounds |T_n| and scales its rounding.  Raises
    :class:`ConvergenceError` if T_0 overflows or if c_r may: its bound
    sum_k |e_k| max_k |b_k/a_k|^r is checked in logs first.
    """
    t0 = 1.0
    try:
        for a, _, e in factors:
            t0 *= a**e
    except OverflowError as exc:
        raise ConvergenceError(
            f"residue recursion: T_0 = prod a_k**e_k overflows ({exc})",
            achieved=math.inf) from exc
    ratios = np.array([b / a for a, b, _ in factors])
    exponents = np.array([e for _, _, e in factors], dtype=float)
    if factors and ((n_terms - 1) * math.log(max(abs(ratios)))
                    + math.log(sum(abs(exponents))) > 709.0):  # ln of the largest double: 709.78
        raise ConvergenceError("residue recursion: a power sum c_r may overflow",
                               achieved=math.inf)
    c = -(exponents @ (-ratios[:, None]) ** np.arange(n_terms))  # (-1)^(r-1) q^r = -(-q)^r
    c[0] = 0.0
    return list(power_series(t0, c)), list(power_series(abs(t0), np.abs(c)))


def partial_fractions(factors: list[tuple[float, int]]) -> PartialFractionExpansion:
    """Exact partial-fraction coefficients of prod_k (1 + g*s/theta_k)^(-e_k).

    ``factors`` are distinct (theta_k, e_k) as :func:`mgf_factors` returns
    them.  For each pole theta_i (order w > 0), substitute
    u = 1 + g*s/theta_i; every other factor becomes (a + b*u)^(-e_k) with
    a = 1 - theta_i/theta_k and b = theta_i/theta_k.  A_ij is then the
    u**(w-j) Taylor coefficient of the product, and E_ij the same
    coefficient of its envelope.
    """
    terms = []
    majorants = []
    for theta_i, w in factors:
        if w <= 0:
            continue
        # a as an exact difference: no 1 - b cancellation
        others = [((theta_k - theta_i) / theta_k, theta_i / theta_k, -e_k)
                  for theta_k, e_k in factors if theta_k != theta_i]
        taylor, envelope = _taylor_coefficients(others, w)
        terms.append((theta_i, w, tuple(taylor[::-1])))
        majorants.append(tuple(envelope[::-1]))
    return PartialFractionExpansion(terms=tuple(terms), majorants=tuple(majorants))


def decompose(params: ChannelParams) -> PartialFractionExpansion:
    """The partial-fraction expansion of the MGF from its merged factors.

    The expansion depends on the channel shape alone (g cancels), so it is
    memoised per (mu, m, kappa, eta, rho2): an SNR sweep builds it once.
    """
    return _shape_expansion(*params.shape)


@lru_cache(maxsize=256)
def _shape_expansion(mu, m, kappa, eta, rho2) -> PartialFractionExpansion:
    return partial_fractions(mgf_factors(ChannelParams(mu, m, kappa, eta, rho2)))


def pdf(params: ChannelParams, gamma) -> np.ndarray | float:
    """SNR density f(gamma) from the partial-fraction expansion.

    f(g) = sum_ij A_ij (theta_i/gbar)^j g^{j-1} e^{-theta_i g/gbar} / (j-1)!
    with its limits f(0) = 0 (every closed-form shape has mu >= 2, and
    f ~ g^(mu-1)) and f(inf) = 0.  A negative sum within its rounding bound,
    n eps times the sum of the n terms' magnitudes, is clipped to 0; one
    beyond it signals an inconsistent residue table and raises
    :class:`ConvergenceError`.
    """
    gamma = np.asarray(gamma, dtype=float)
    if not np.all(gamma >= 0):  # also rejects NaN
        raise ParameterError("gamma must be >= 0")
    g = np.where(np.isinf(gamma), 0.0, gamma)  # both limits are 0, set below
    gbar = params.gamma_bar
    total = magnitude = np.zeros(g.shape)
    n_terms = 0
    for theta, _, coeffs in decompose(params).terms:
        z = theta / gbar
        decay = np.exp(-z * g)
        poly = poly_abs = np.zeros(g.shape)
        for j in range(len(coeffs), 0, -1):  # Horner in g >= 0
            a_ij = coeffs[j - 1] * z**j / math.factorial(j - 1)
            poly = poly * g + a_ij
            poly_abs = poly_abs * g + abs(a_ij)
        total = total + decay * poly
        magnitude = magnitude + decay * poly_abs
        n_terms += len(coeffs)
    inside = g > 0.0
    negative = inside & (total < -n_terms * np.finfo(float).eps * magnitude)
    if np.any(negative):
        raise ConvergenceError(
            f"density went negative ({total[negative].min():.3e}) beyond its rounding; "
            f"residue table is inconsistent")
    result = np.where(inside, np.maximum(total, 0.0), 0.0)
    return result if result.shape else float(result)
