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
from dataclasses import dataclass, replace

import numpy as np

from ._extended import U_SUM_TOL, mixture_series
from .errors import ClosedFormUnavailableError, ConvergenceError, ParameterError
from .mc import McConfig, estimate_er
from .model import ChannelParams, _check_a_exponent, log_mgf
from .poles import PartialFractionExpansion, decompose, pole_exponents
from .specfun import log_gamma_peak, nested_trapezoid, u_terms


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
    """Computed expectation and rate, plus how they were obtained.

    The fields after ``error_estimate`` are None where their step did not
    run.  ``series`` is :func:`_closed_form`'s; ``cross_check_rel_diff`` is
    unrounded; ``closed_form_error`` is "Type: message" of the closed form's
    exception, where ``auto`` fell back to quadrature for it.
    """

    expectation_j: float
    rate: float
    method_used: str
    error_estimate: float
    quadrature_level: int | None = None
    cross_check_rel_diff: float | None = None
    series: tuple[str, int, float] | None = None
    closed_form_error: str | None = None


def effective_rate(j: float, a_exponent: float) -> float:
    """R = -log2(j) / A for j in (0, 1]."""
    if not 0.0 < j <= 1.0:
        raise ParameterError(f"expectation must lie in (0, 1], got {j!r}")
    _check_a_exponent(a_exponent)
    return -math.log2(j) / a_exponent + 0.0  # + 0.0 turns the -0.0 of j = 1 into +0.0


def _check_gamma_bars(gamma_bars) -> np.ndarray:
    """``gamma_bars`` as a float array; :class:`ParameterError` unless all are finite and > 0."""
    gamma_bar = np.asarray(gamma_bars, dtype=float)
    bad = gamma_bar[~(np.isfinite(gamma_bar) & (gamma_bar > 0.0))]
    if bad.size:  # named alone: a sweep may hold 1e5 mean SNRs
        raise ParameterError(f"gamma_bars must be finite and > 0, got {float(bad[0])!r}")
    return gamma_bar


def _a_rows(a_exponent, n_rows: int) -> list[float]:
    """One A per row from one A for every row or one per row; :class:`ParameterError` else."""
    exponents = np.asarray(a_exponent, dtype=float)
    a_rows = exponents.tolist() if exponents.ndim else [float(exponents)]
    for a in set(a_rows):
        _check_a_exponent(a)
    if len(a_rows) == 1:
        return a_rows * n_rows
    if len(a_rows) != n_rows:
        raise ParameterError(
            f"a_exponent must be one A or one per mean SNR, got {a_exponent!r}")
    return a_rows


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
    gamma_bar = _check_gamma_bars(gamma_bars)
    a_rows = _a_rows(a_exponent, gamma_bar.size)
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
        with np.errstate(over="ignore"):  # s = inf past the double range, where M(s) = 0
            s = gamma_bar[rows, None] * np.exp(c + u)[rule]
        return np.exp((a * (y - np.expm1(y)) + log_peak)[rule] + log_mgf(shape, s)
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


#: Hand J to the gamma-mixture series when the residue majorant
#: sum_ij E_ij W_ij (E_ij >= |A_ij| the envelope of the residue recursion,
#: ``poles._taylor_coefficients``) exceeds it by more than this.  The majorant
#: amplifies the rounding of the residue table, to ~1e-10 of J per unit of
#: pole multiplicity at this limit: a conditioning limit, not a bound on J.
CLOSED_FORM_COND_LIMIT = 1e6


def _term_sums(expansion: PartialFractionExpansion, a_exponent: float,
               gamma_bar: float) -> tuple[float, float, float]:
    """sum A_ij W_ij, sum E_ij W_ij and sum |A_ij| err(W_ij).

    The w terms of :func:`specfun.u_terms` per pole, each certified to ``_U_TOL``.
    """
    contributions, envelope, u_error = [], [], []
    for (theta, w, coeffs), majorants in zip(expansion.terms, expansion.majorants):
        for a_ij, e_ij, (w_j, err_j, _) in zip(coeffs, majorants,
                                               u_terms(a_exponent, theta / gamma_bar, w)):
            contributions.append(a_ij * w_j)
            envelope.append(e_ij * w_j)
            u_error.append(abs(a_ij) * err_j)
    return math.fsum(contributions), math.fsum(envelope), math.fsum(u_error)


def _closed_form(shape: ChannelParams, gamma_bar: float,
                 a_exponent: float) -> tuple[float, tuple[str, int, float] | None]:
    """(J, series): J from the partial fractions of ``shape`` at ``gamma_bar``.

    J = sum_ij A_ij (theta_i/g)^j U(j; j-A+1; theta_i/g).  Each basis term's
    expectation is exactly Gamma(j) U(j; j-A+1; theta/g) times the density
    normalization (theta/g)^j / Gamma(j), so the gammas cancel and only
    W_j = z^j U(j; j-A+1; z) remains, the terms of one
    :func:`specfun.u_terms` per pole of :func:`poles.decompose`.  The terms
    encode the vanishing density derivatives at zero through cancellation,
    so the sum is kept only if certified: J > 0, the residue majorant within
    ``CLOSED_FORM_COND_LIMIT`` J and the U errors within ``U_SUM_TOL`` J.
    Otherwise J comes from :func:`_extended.mixture_series`, and ``series``
    is its (why the sum was refused, terms, relative bound), else None.  The
    partial fractions depend on the shape alone, so only the series builds a
    channel at ``gamma_bar``; ``shape.gamma_bar`` is ignored.
    """
    value, majorant, u_error = _term_sums(decompose(shape), a_exponent, gamma_bar)
    reason = series = None
    if value <= 0.0:
        reason = f"partial-fraction sum {value:.1e}"
    elif majorant > CLOSED_FORM_COND_LIMIT * value:
        reason = f"residue majorant {majorant / value:.1e}"
    elif u_error > U_SUM_TOL * value:
        reason = f"U share {u_error / value:.1e}"
    if reason is not None:
        value, bound, n_terms = mixture_series(replace(shape, gamma_bar=gamma_bar), a_exponent)
        series = (reason, n_terms, bound / value)
    return _unit_j(value, "closed-form"), series


def _unit_j(value: float, route: str) -> float:
    """``value`` as J: 1 up to 1e-12 above 1, :class:`ConvergenceError` beyond (0, 1]."""
    if not 0.0 < value < 1.0 + 1e-12:
        raise ConvergenceError(f"{route} expectation out of (0, 1): {value!r}")
    return value if value <= 1.0 else 1.0


def closed_form_applies(params: ChannelParams) -> bool:
    """True when the pole/residue route exists for these parameters."""
    try:
        pole_exponents(params)
    except ClosedFormUnavailableError:
        return False
    return True


def er_sweep(request: ErRequest, gamma_bars, mc_config=None,
             a_exponents=None) -> list[ErResult]:
    """One :class:`ErResult` per mean SNR in ``gamma_bars``, in order.

    Each is the result :func:`er_auto` gives for the request's channel at
    that mean SNR; the request's own ``gamma_bar`` is ignored.  Every mean
    SNR must be finite and > 0 (:class:`ParameterError` otherwise), and so
    must each A of ``a_exponents``, one per mean SNR in place of the
    request's ``a_exponent`` if given.  The per-shape work runs once: whether
    the closed form applies, its partial fractions, and for ``auto`` and
    ``quadrature`` one :func:`quadrature_sweep` over every (mean SNR, A) row,
    each of which gets the value it gets on its own.  Per row run only the
    closed form's U terms (and the series, where its sum cancels), the
    cross-check and Monte Carlo.
    """
    _check_gamma_bars(gamma_bars)
    a_rows = _a_rows(request.a_exponent if a_exponents is None else a_exponents,
                     len(gamma_bars))
    quadrature = [None] * len(gamma_bars)
    if request.method in ("auto", "quadrature"):
        values, errors, levels = quadrature_sweep(request.params, gamma_bars, a_rows,
                                                  request.rel_tol)
        quadrature = zip(values.tolist(), errors.tolist(), levels.tolist())
    cross = request.method == "auto" and closed_form_applies(request.params)
    return [_evaluate(request, g, a, q, cross, mc_config)
            for g, a, q in zip(gamma_bars, a_rows, quadrature)]


def er_auto(request: ErRequest, mc_config=None) -> ErResult:
    """Dispatching front end: closed form when available, else quadrature.

    ``method="auto"`` runs the closed form whenever the parameters admit it
    and cross-evaluates the quadrature route, recording the relative
    discrepancy as ``cross_check_rel_diff``.  It returns the quadrature
    value instead when the closed form raises (recorded as
    ``closed_form_error``) or when the engines differ by more than
    ``CROSS_REL_TOL`` (with the difference folded into the error estimate).
    The explicit methods run exactly what was asked for (raising if
    unavailable); ``monte_carlo`` delegates to the sampling engine.  An exact
    route's J less than 1e-12 above 1 is rounding and returns as 1; a J
    beyond (0, 1] raises :class:`ConvergenceError`.  A one-SNR
    :func:`er_sweep`.
    """
    return er_sweep(request, [request.params.gamma_bar], mc_config)[0]


def _evaluate(request: ErRequest, gamma_bar: float, a: float,
              quadrature: tuple[float, float, int] | None, cross: bool,
              mc_config) -> ErResult:
    """:func:`er_auto` at one mean SNR and A, given its quadrature (value, error, level).

    ``cross``: ``auto`` runs the closed form too, as it applies to the shape.
    """
    def result(j: float, method: str, err: float, **provenance) -> ErResult:
        return ErResult(expectation_j=j, rate=effective_rate(j, a), method_used=method,
                        error_estimate=err, **provenance)

    if request.method == "monte_carlo":
        estimate = estimate_er(replace(request.params, gamma_bar=gamma_bar), a,
                               mc_config or McConfig())
        return result(estimate.j_hat, "monte_carlo", estimate.j_stderr)

    if request.method == "closed_form":
        j, series = _closed_form(request.params, gamma_bar, a)
        return result(j, "closed_form", series[2] if series else U_SUM_TOL, series=series)

    j_closed = series = failure = None
    if cross:
        try:
            j_closed, series = _closed_form(request.params, gamma_bar, a)
        except (ConvergenceError, ClosedFormUnavailableError, ArithmeticError) as exc:
            failure = f"{type(exc).__name__}: {exc}"

    j_quad, err, level = quadrature
    j_quad = _unit_j(j_quad, "quadrature")
    if j_closed is None:
        return result(j_quad, "quadrature", err, quadrature_level=level,
                      closed_form_error=failure)
    diff = abs(j_quad - j_closed) / j_closed
    provenance = dict(quadrature_level=level, cross_check_rel_diff=diff, series=series)
    if diff <= CROSS_REL_TOL:
        return result(j_closed, "closed_form",
                      max(series[2] if series else U_SUM_TOL, diff), **provenance)
    return result(j_quad, "quadrature", max(err, diff), **provenance)
