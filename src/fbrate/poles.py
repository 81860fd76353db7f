"""Pole set, partial-fraction residues, and the closed-form SNR density.

For integer shadowing index m and even integer cluster count mu the MGF is a
rational function of s built from four first-order factors:

    M(s) = (1 + g*s/(O/eta))^e (1 + g*s/O)^e (1 + g*s/c1)^-m (1 + g*s/c2)^-m

with e = m - mu/2.  The pole groups are always {c1: m, c2: m}; when
mu/2 > m the two omega points join them as poles of order mu/2 - m, and when
mu/2 < m they are numerator polynomials folded into the residue derivatives.
Coincident poles (within the root-merge tolerance) are merged by summing
multiplicities, which is what makes the unit-eta and zero-LoS degeneracies
work without special cases.

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

import numpy as np

from .errors import ClosedFormUnavailableError, ParameterError
from .model import ROOT_MERGE_RTOL, ChannelParams, DerivedParams

#: Reject closed forms whose total pole multiplicity explodes (factorials in
#: the residue recursion and alternating coefficient growth make very high
#: multiplicities useless in double precision anyway).
MAX_TOTAL_MULTIPLICITY = 500

_INT_TOL = 1e-9


@dataclass(frozen=True)
class PoleSet:
    """Merged poles of the MGF plus the numerator factors the residues need.

    ``poles``: tuple of (location, multiplicity); locations are positive reals.
    ``numerator``: tuple of (location, positive integer exponent) for
    first-order numerator factors, present only when mu/2 < m.
    """

    poles: tuple[tuple[float, int], ...]
    numerator: tuple[tuple[float, int], ...] = ()


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


def _merge(points):
    """Sum multiplicities of points closer than the root-merge tolerance."""
    merged: list[list] = []
    for theta, mult in points:
        for entry in merged:
            if abs(theta - entry[0]) <= ROOT_MERGE_RTOL * max(abs(theta), abs(entry[0])):
                entry[1] += mult
                break
        else:
            merged.append([theta, mult])
    return [(t, m) for t, m in merged]


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


def mgf_factors(params: ChannelParams, derived: DerivedParams) -> list[tuple[float, int]]:
    """(theta_k, e_k) with M(s) = prod_k (1 + g*s/theta_k)^(-e_k), unmerged.

    c1 and c2 have order m_eff; omega/eta and omega have order mu/2 - m_eff,
    negative for numerator factors.  Zero orders are dropped.
    """
    mu_half, m_eff = pole_exponents(params)
    omega = derived.omega_cap
    factors = [(derived.c1, m_eff), (derived.c2, m_eff),
               (omega / params.eta, mu_half - m_eff), (omega, mu_half - m_eff)]
    return [(theta, e) for theta, e in factors if e != 0]


def build_pole_set(params: ChannelParams, derived: DerivedParams) -> PoleSet:
    """Merged poles and numerator factors of the rational MGF."""
    factors = mgf_factors(params, derived)
    return PoleSet(poles=tuple(_merge([(t, e) for t, e in factors if e > 0])),
                   numerator=tuple((t, -e) for t, e in factors if e < 0))


def power_series(t0, c: np.ndarray):
    """Yield T_n of t0 exp(sum_r c_r u^r / r) for n < len(c) (c[0] unused) by the
    recursion n*T_n = sum_r c_r T_(n-r), one dot product per coefficient."""
    n_terms = len(c)
    c_rev = c[::-1].copy()  # c_n..c_1 as one contiguous slice per step
    coeffs = np.empty(n_terms, dtype=np.result_type(t0, c))
    coeffs[0] = t0
    yield t0
    for n in range(1, n_terms):
        coeffs[n] = np.dot(coeffs[:n], c_rev[n_terms - 1 - n:n_terms - 1]) / n
        yield coeffs[n].item()


def _taylor_coefficients(factors, n_terms: int, majorants: list | None = None) -> list:
    """Taylor coefficients around u = 0 of prod_k (a_k + b_k u)**e_k.

    T_0 = prod a_k**e_k and c_r = (-1)^(r-1) sum_k e_k (b_k/a_k)^r feed
    :func:`power_series`.  All a_k must be nonzero (coincident factors are
    stripped beforehand); a_k and b_k may be complex.  A ``majorants`` list
    receives the envelope, the same series from |T_0| and |c_r|, which
    bounds |T_n| and scales its rounding.
    """
    t0 = 1.0
    for a, _, e in factors:
        t0 *= a**e
    if n_terms == 1:  # a simple pole: T_0 alone, without array overhead
        if majorants is not None:
            majorants.append(abs(t0))
        return [t0]
    ratios = np.array([b / a for a, b, _ in factors])
    exponents = np.array([e for _, _, e in factors], dtype=float)
    c = -(exponents @ (-ratios[:, None]) ** np.arange(n_terms))  # (-1)^(r-1) q^r = -(-q)^r
    c[0] = 0.0
    if majorants is not None:
        majorants.extend(power_series(abs(t0), np.abs(c)))
    return list(power_series(t0, c))


def partial_fractions(pole_set: PoleSet) -> PartialFractionExpansion:
    """Exact partial-fraction coefficients of a pole set.

    For pole theta_i of multiplicity w, substitute u = 1 + g*s/theta_i; each
    remaining factor (1 + g*s/theta_k)^e becomes (a + b*u)^e with
    a = 1 - theta_i/theta_k and b = theta_i/theta_k.  A numerator factor
    sitting exactly on the pole (a ~ 0) contributes a plain u-power shift.
    A_ij is then the u**(w-j) Taylor coefficient of the product, and E_ij
    the same coefficient of its envelope.
    """
    terms = []
    majorants = []
    for i, (theta_i, w) in enumerate(pole_set.poles):
        factors = []
        shift = 0
        scale = 1
        others = [(t, -m) for k, (t, m) in enumerate(pole_set.poles) if k != i]
        others.extend(pole_set.numerator)
        for theta_k, expo in others:
            b = theta_i / theta_k
            a = (theta_k - theta_i) / theta_k  # exact difference: no 1 - b cancellation
            if abs(a) <= ROOT_MERGE_RTOL * abs(b):
                if expo < 0:  # pragma: no cover - poles were merged already
                    raise ClosedFormUnavailableError("unmerged coincident poles")
                shift += expo
                scale *= b**expo
            else:
                factors.append((a, b, expo))
        n_terms = w - shift
        envelope = []
        taylor = _taylor_coefficients(factors, n_terms, envelope) if n_terms > 0 else []
        coeffs = []
        bounds = []
        for j in range(1, w + 1):
            idx = w - j - shift
            inside = 0 <= idx < len(taylor)
            coeffs.append(scale * taylor[idx] if inside else 0)
            bounds.append(abs(scale) * envelope[idx] if inside else 0)
        terms.append((theta_i, w, tuple(coeffs)))
        majorants.append(tuple(bounds))
    return PartialFractionExpansion(terms=tuple(terms), majorants=tuple(majorants))


def decompose(params: ChannelParams, derived: DerivedParams) -> PartialFractionExpansion:
    """The partial-fraction expansion of the MGF: pole set, then residues."""
    return partial_fractions(build_pole_set(params, derived))


def pdf(params: ChannelParams, derived: DerivedParams,
        expansion: PartialFractionExpansion, gamma) -> np.ndarray | float:
    """SNR density f(gamma) from the partial-fraction expansion.

    f(g) = sum_ij A_ij (theta_i/gbar)^j g^{j-1} e^{-theta_i g/gbar} / (j-1)!
    A tiny negative excursion is clipped; anything beyond -1e-12 signals an
    inconsistent residue table and raises.
    """
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0):
        raise ParameterError("gamma must be >= 0")
    gbar = params.gamma_bar
    total = np.zeros(g.shape)
    for theta, _, coeffs in expansion.terms:
        z = theta / gbar
        decay = np.exp(-z * g)
        poly = np.zeros(g.shape)
        for j in range(len(coeffs), 0, -1):  # Horner in g
            a_ij = coeffs[j - 1] * z**j / math.factorial(j - 1)
            poly = poly * g + a_ij
        total = total + decay * poly
    if np.any(total < -1e-12):
        raise ArithmeticError(
            f"density went negative ({total.min():.3e}); residue table is inconsistent")
    result = np.maximum(total, 0.0)
    return result if result.shape else float(result)
