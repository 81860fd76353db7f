"""Effective rate: J = E[(1+gamma)^-A] and R = -log2(J)/A, by two exact routes.

The quadrature route integrates the MGF against the weight s**(A-1) e**(-s)
with one nested double-exponential rule in log s, centred on the weight's
peak; it resolves the second scale the integrand gains at s ~ 1/gamma_bar at
high SNR and stops at the caller's ``rel_tol``.  The MGF depends on
gamma_bar only through gamma_bar*s, so ``quadrature_sweep`` runs the rule
for many mean SNRs of one channel shape at once.
The closed-form route expands the rational MGF into partial fractions and
evaluates each distinct pole's Tricomi-U family at once: one exponential
integral and a recurrence, certified term by term; where its terms cancel
the gamma-mixture series (``_extended``) replaces it.  Both compute the
identical scalar; ``er_sweep`` dispatches and cross-checks at every mean SNR
of one request's channel shape, with one quadrature sweep for all of them,
and ``er_auto`` is its one-SNR case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._extended import U_SUM_TOL, mixture_series
from .errors import ClosedFormUnavailableError, ConvergenceError, ParameterError
from .mc import McConfig, estimate_er
from .model import ChannelParams, _check_a_exponent, log_mgf
from .poles import PartialFractionExpansion, decompose, pole_exponents
from .specfun import log_gamma_peak, nested_trapezoid, u_family


#: Deepest level of the double-exponential rule (step 2**-(DE_LEVELS+1)).
DE_LEVELS = 10
_HALF_PI = 0.5 * math.pi

#: Largest relative disagreement between the quadrature and closed-form
#: engines that ``auto`` (and the cross-engine validation grid) accepts.
CROSS_REL_TOL = 1e-6

_METHODS = ("auto", "quadrature", "closed_form", "monte_carlo")


@dataclass(frozen=True)
class ErRequest:
    """One effective-rate evaluation: channel, QoS exponent, method, accuracy."""

    params: ChannelParams
    a_exponent: float
    method: str = "auto"
    rel_tol: float = 1e-8

    def __post_init__(self):
        _check_a_exponent(self.a_exponent)
        if self.method not in _METHODS:
            raise ParameterError(
                f"method must be one of {_METHODS}, got {self.method!r}")
        if not 1e-12 <= self.rel_tol <= 1e-2:
            raise ParameterError(
                f"rel_tol must lie in [1e-12, 1e-2], got {self.rel_tol!r}")


@dataclass(frozen=True)
class ErResult:
    """Computed expectation and rate, plus how they were obtained."""

    expectation_j: float
    rate: float
    method_used: str
    error_estimate: float
    diagnostics: tuple[tuple[str, str], ...] = field(default_factory=tuple)


def effective_rate(j: float, a_exponent: float) -> float:
    """R = -log2(j) / A for j in (0, 1]."""
    if not 0.0 < j <= 1.0:
        raise ParameterError(f"expectation must lie in (0, 1], got {j!r}")
    _check_a_exponent(a_exponent)
    return -math.log2(j) / a_exponent


def quadrature_sweep(shape: ChannelParams, gamma_bars, a_exponent,
                     rel_tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """J at every mean SNR in ``gamma_bars`` for one channel shape, by the MGF integral.

    :func:`specfun.nested_trapezoid` for s^(A-1) e^-s M(s) / Gamma(A) in
    t, with x = ln s = c + w (pi/2) sinh t: the integrand decays double-
    exponentially in t at both ends, and the two scales s ~ 1/gamma_bar and
    s ~ A become smooth bumps.  For A > 1 the map is centred on the weight's
    peak, c = ln A, and narrowed to its width, w = min(1, 2/sqrt(A)); for
    A <= 1, c = 0 and w = 1.  The log integrand is written about the peak,
    A (y - expm1 y) + K with y = x - ln A (see :func:`specfun.log_gamma_peak`), so that
    nothing of size A ln A cancels at large A.  The x-window drops under
    1e-19 of J: the mass below x_lo is at most e^(-45-5A)/Gamma(A+1) of J by
    the Jensen bound J >= (1+gamma_bar)^-A, and the mass above s = 60 + 2A at
    most Q(A, s)/P(A, A) of J, since M(s) decreases.

    ``a_exponent`` is one A for every row or one per row.  M depends on
    gamma_bar only through gamma_bar*s, so the shape's own ``gamma_bar`` is
    ignored and every mean SNR is one row of the rule, which gets the value
    the rule gives it on its own.  A row leaves once its last two levels
    agree within ``rel_tol``.

    Returns (values, relative differences of each row's last two levels,
    levels reached); raises :class:`ConvergenceError`, naming the mean SNR
    and A, if a row does not converge.
    """
    exponents = np.asarray(a_exponent, dtype=float)
    a_rows = exponents.tolist() if exponents.ndim else [float(exponents)]
    for a in set(a_rows):
        _check_a_exponent(a)
    gamma_bar = np.asarray(gamma_bars, dtype=float)
    bad = gamma_bar[~(np.isfinite(gamma_bar) & (gamma_bar > 0.0))]
    if bad.size:  # named alone: a sweep may hold 1e5 mean SNRs
        raise ParameterError(f"gamma_bars must be finite and > 0, got {float(bad[0])!r}")
    if len(a_rows) == 1:
        a_rows *= gamma_bar.size
    elif len(a_rows) != gamma_bar.size:
        raise ParameterError(
            f"a_exponent must be one A or one per mean SNR, got {a_exponent!r}")
    if not gamma_bar.size:
        return np.zeros(0), np.zeros(0), np.zeros(0, dtype=int)
    if shape.gamma_bar != 1.0:
        shape = replace(shape, gamma_bar=1.0)
    # one map per distinct A, from math so that each row's rule is the one a
    # sweep over its A alone forms: (A, c, w pi/2, c - ln A, K) as columns
    index = {a: i for i, a in enumerate(dict.fromkeys(a_rows))}
    rules = []
    for a in index:
        log_a = math.log(a)
        c = max(log_a, 0.0)
        rules.append((a, c, min(1.0, 2.0 / math.sqrt(a)) * _HALF_PI, c - log_a, log_gamma_peak(a)))
    a, c, scale, shift, log_peak = (rules[0] if len(rules) == 1  # scalars broadcast
                                    else np.array(rules).T[:, :, None])
    kind = [index[a_i] for a_i in a_rows]
    t_hi = [math.asinh((math.log(60.0 + 2.0 * a_r) - c_r) / scale_r)
            for a_r, c_r, scale_r, _, _ in rules]
    t_lo = [math.asinh((-45.0 / a_i - 5.0 - math.log1p(g) - rules[k][1]) / rules[k][2])
            for a_i, k, g in zip(a_rows, kind, gamma_bar.tolist())]

    def integrand(rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        u = scale * np.sinh(t)  # one row per distinct A, if more than one
        y = u + shift
        rule = [kind[i] for i in rows.tolist()] if len(rules) > 1 else slice(None)
        return np.exp((a * (y - np.expm1(y)) + log_peak)[rule]
                      + log_mgf(shape, gamma_bar[rows, None] * np.exp(c + u)[rule])
                      + np.log(scale * np.cosh(t))[rule])

    def settle(total: np.ndarray, prev: np.ndarray):
        diff = np.abs(total - prev) / total
        return diff, diff <= rel_tol

    values, errors, levels = nested_trapezoid(integrand, t_lo, [t_hi[k] for k in kind],
                                              DE_LEVELS, settle)
    unsettled = ~(errors <= rel_tol)
    if unsettled.any():
        i = int(np.argmax(unsettled))
        raise ConvergenceError(
            f"double-exponential quadrature reached rel diff {errors[i]:.2e} on value "
            f"{float(values[i])!r} at level {levels[i]} (target {rel_tol:.1e}) for "
            f"A={a_rows[i]}, params={replace(shape, gamma_bar=float(gamma_bar[i]))}",
            achieved=float(errors[i]))
    return values, errors, levels


def expectation_quadrature(params: ChannelParams, a_exponent: float,
                           rel_tol: float = 1e-8) -> tuple[float, float]:
    """J by the MGF integral; returns (value, relative error estimate).

    The one-row case of :func:`quadrature_sweep`: the estimate is the
    difference of its last two levels, and :class:`ConvergenceError` is
    raised if none agree within ``rel_tol``.
    """
    values, errors, _ = quadrature_sweep(params, [params.gamma_bar], a_exponent, rel_tol)
    return float(values[0]), float(errors[0])


#: Hand J to the gamma-mixture series when the residue majorant
#: sum_ij E_ij W_ij (E_ij >= |A_ij| the envelope of the residue recursion,
#: ``poles._taylor_coefficients``) exceeds it by more than this.  The majorant
#: amplifies the rounding of the residue table, to ~1e-10 of J per unit of
#: pole multiplicity at this limit: a conditioning limit, not a bound on J.
CLOSED_FORM_COND_LIMIT = 1e6


def _term_sums(expansion: PartialFractionExpansion, a_exponent: float,
               gamma_bar: float) -> tuple[float, float, float]:
    """sum A_ij W_ij, sum E_ij W_ij and sum |A_ij| err(W_ij).

    One :func:`specfun.u_family` per pole, every term certified to ``_U_TOL``.
    """
    contributions, envelope, u_error = [], [], []
    for (theta, w, coeffs), majorants in zip(expansion.terms, expansion.majorants):
        family = u_family(a_exponent, theta / gamma_bar, w)
        for a_ij, e_ij, w_j, err_j in zip(coeffs, majorants, family.values, family.bounds):
            contributions.append(a_ij * w_j)
            envelope.append(e_ij * w_j)
            u_error.append(abs(a_ij) * err_j)
    return math.fsum(contributions), math.fsum(envelope), math.fsum(u_error)


def expectation_closed_form(params: ChannelParams, a_exponent: float,
                            diagnostics: list | None = None) -> float:
    """J from the partial fractions: sum_ij A_ij (theta_i/g)^j U(j; j-A+1; theta_i/g).

    Each basis term's expectation is exactly Gamma(j) U(j; j-A+1; theta/g)
    times the density normalization (theta/g)^j / Gamma(j), so the gammas
    cancel and only W_j = z^j U(j; j-A+1; z) remains, one
    :func:`specfun.u_family` per pole of :func:`poles.decompose`.  The terms
    encode the vanishing density derivatives at zero through cancellation,
    so the sum is kept only if certified: J > 0, the residue majorant within
    ``CLOSED_FORM_COND_LIMIT`` J and the U errors within ``U_SUM_TOL`` J.
    Otherwise J comes from :func:`_extended.mixture_series`, and the
    ``closed_form_series`` diagnostic records why, its length and its
    relative bound.  A value outside (0, 1) raises :class:`ConvergenceError`.
    """
    _check_a_exponent(a_exponent)
    value, majorant, u_error = _term_sums(decompose(params), a_exponent, params.gamma_bar)
    reason = None
    if value <= 0.0:
        reason = f"partial-fraction sum {value:.1e}"
    elif majorant > CLOSED_FORM_COND_LIMIT * value:
        reason = f"residue majorant {majorant / value:.1e}"
    elif u_error > U_SUM_TOL * value:
        reason = f"U share {u_error / value:.1e}"
    if reason is not None:
        value, bound, n_terms = mixture_series(params, a_exponent)
        if diagnostics is not None:
            diagnostics.append(("closed_form_series",
                                f"{reason}; {n_terms} terms; bound {bound / value:.1e}"))
    if not 0.0 < value < 1.0 + 1e-12:
        raise ConvergenceError(f"closed-form expectation out of (0, 1): {value!r}")
    return min(value, 1.0)


def closed_form_applies(params: ChannelParams) -> bool:
    """True when the pole/residue route exists for these parameters."""
    try:
        pole_exponents(params)
    except ClosedFormUnavailableError:
        return False
    return True


def er_sweep(request: ErRequest, gamma_bars, mc_config=None) -> list[ErResult]:
    """One :class:`ErResult` per mean SNR in ``gamma_bars``, in order.

    Each is the result :func:`er_auto` gives for the request's channel at
    that mean SNR; the request's own ``gamma_bar`` is ignored.  ``auto`` and
    ``quadrature`` integrate every mean SNR in one :func:`quadrature_sweep`,
    whose rows each get the value they get on their own.  The closed form,
    the cross-check, the diagnostics and Monte Carlo run per mean SNR.
    """
    quadrature = [None] * len(gamma_bars)
    if request.method in ("auto", "quadrature"):
        values, errors, levels = quadrature_sweep(request.params, gamma_bars,
                                                  request.a_exponent, request.rel_tol)
        quadrature = zip(values.tolist(), errors.tolist(), levels.tolist())
    return [_evaluate(request, g, q, mc_config) for g, q in zip(gamma_bars, quadrature)]


def er_auto(request: ErRequest, mc_config=None) -> ErResult:
    """Dispatching front end: closed form when available, else quadrature.

    ``method="auto"`` runs the closed form whenever the parameters admit it
    and cross-evaluates the quadrature route, recording the relative
    discrepancy under the ``cross_check_rel_diff`` diagnostic.  It returns
    the quadrature value instead when the closed form raises (recorded as
    ``closed_form_failed``) or when the engines differ by more than
    ``CROSS_REL_TOL`` (recorded as ``engines_disagree``, with the difference
    folded into the error estimate).  The explicit methods run exactly what
    was asked for (raising if unavailable); ``monte_carlo`` delegates to the
    sampling engine.  A one-SNR :func:`er_sweep`.
    """
    return er_sweep(request, [request.params.gamma_bar], mc_config)[0]


def _evaluate(request: ErRequest, gamma_bar: float,
              quadrature: tuple[float, float, int] | None, mc_config) -> ErResult:
    """:func:`er_auto` at one mean SNR, given its quadrature (value, error, level)."""
    a = request.a_exponent
    diagnostics: list[tuple[str, str]] = []

    def result(j: float, method: str, err: float) -> ErResult:
        return ErResult(expectation_j=j, rate=effective_rate(j, a), method_used=method,
                        error_estimate=err, diagnostics=tuple(diagnostics))

    if request.method == "monte_carlo":
        estimate = estimate_er(replace(request.params, gamma_bar=gamma_bar), a,
                               mc_config or McConfig())
        diagnostics.extend([("n_samples", str(estimate.n_samples)),
                            ("seed", str(estimate.seed))])
        return result(estimate.j_hat, "monte_carlo", estimate.j_stderr)

    if request.method == "closed_form":
        params = replace(request.params, gamma_bar=gamma_bar)
        return result(expectation_closed_form(params, a, diagnostics), "closed_form",
                      U_SUM_TOL)

    j_closed = None
    if request.method == "auto" and closed_form_applies(request.params):
        params = replace(request.params, gamma_bar=gamma_bar)
        try:
            j_closed = expectation_closed_form(params, a, diagnostics)
        except (ConvergenceError, ClosedFormUnavailableError, ArithmeticError) as exc:
            diagnostics.append(("closed_form_failed", f"{type(exc).__name__}: {exc}"))

    j_quad, err, level = quadrature
    diagnostics.append(("quadrature_level", str(level)))
    if j_closed is not None:
        diff = abs(j_quad - j_closed) / j_closed
        # unrounded, so that the error estimate below bounds the reported value
        diagnostics.append(("cross_check_rel_diff", repr(diff)))
        if diff <= CROSS_REL_TOL:
            return result(j_closed, "closed_form", max(U_SUM_TOL, diff))
        diagnostics.append(("engines_disagree",
                            f"closed form {j_closed:.9e} rejected "
                            f"(limit {CROSS_REL_TOL:.0e})"))
        err = max(err, diff)
    return result(j_quad, "quadrature", err)
