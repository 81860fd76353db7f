"""Special functions backing the rate computation.

Provides log-gamma, the log of a Gamma density's peak, and the Tricomi
confluent hypergeometric function U(j; j-A+1; z) for positive integer j, a
whole family at a time.  With
X_j ~ Gamma(j, rate z),

    W_j = z^j U(j; j-A+1; z) = E[(1 + X_j)^-A],   W_0 = 1,   W_1 = z e^z E_A(z),

and the b-recurrence (DLMF 13.3.8, after Kummer's transformation DLMF
13.2.40) reads k W_{k+1} = (k-A-z) W_k + z W_{k-1}.  One exponential
integral per (A, z) therefore yields every W_j.  For k >= A+z both terms on
the right are nonnegative and forward recursion is stable; below that W is
the minimal solution and forward recursion loses digits, but there the
backward step W_{k-1} = (k W_{k+1} + (A+z-k) W_k) / z adds two nonnegative
terms instead (Gil, Segura & Temme, *Numerical Methods for Special
Functions*, SIAM 2007, ch. 4).  Each term carries a running absolute-error
bound.  The terms come in one order, each evaluated once and only when
read.  Two seeds W_(k-1), W_k sit next to the turning point A + z, and the
recursion runs backward below them and forward above them.  Where the
large-z asymptotic series (DLMF 13.7.3) converges at both seeds it gives
them, and W_1 alone comes before them, directly.  Elsewhere the forward
recursion runs from W_1 up to the first term it does not certify, and a
double-exponential rule integrates the seeds.  Anything still uncertified
raises :class:`ConvergenceError`.  Everything runs in double precision.
"""

from __future__ import annotations

import math
from itertools import chain, islice

import numpy as np

from .errors import ConvergenceError, ParameterError


def log_gamma_peak(a: float) -> float:
    """K = A ln A - A - ln Gamma(A), the log of the peak of s^A e^-s / Gamma(A).

    Past A = 30 the two terms cancel to ~0.5 ln A, so K comes from the
    Stirling remainder, whose first omitted term is under 1e-16 there.
    """
    if a < 30.0:
        return a * math.log(a) - a - math.lgamma(a)
    r = 1.0 / (a * a)
    return (0.5 * math.log(a / (2.0 * math.pi))
            - (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / a)


def nested_trapezoid(integrand, lo, hi, levels: int, settle):
    """Each row's trapezoid sum over its window [lo[r], hi[r]] in u, level by level.

    The level loop of both double-exponential rules here (Takahasi & Mori,
    Publ. RIMS 9 (1974) 721-741): ``integrand(rows, u)`` gives the rows'
    values at the nodes u as a (rows x nodes) array, and row r sums
    h f_r(i h) over the i h in its window.  The first sum is at h = 1/2; each
    of ``levels`` levels halves h and adds the odd i, the nodes the previous
    level lacks, to half the previous sum.  The nodes span the active rows'
    windows and each run of consecutive rows that share a window adds it in
    one reduction, so every row gets the sum it gets on its own.
    ``settle(sums, previous)`` gives the active rows' errors and which of
    them leave (a mask, or one flag for all); a sum that is not finite and
    > 0 stops the rule.

    Returns each row's last sum, its last error (inf if none) and the level
    at which it left or the rule stopped; raises :class:`ConvergenceError`
    if a window bound is not finite.
    """
    active = np.arange(len(lo))
    sums, errors, reached = np.zeros(len(lo)), np.full(len(lo), math.inf), np.zeros_like(active)
    bounds = np.array((lo, hi), dtype=float)
    if not np.isfinite(bounds).all():
        raise ConvergenceError(f"double-exponential rule: window bound "
                               f"{float(bounds[~np.isfinite(bounds)][0])!r} is not finite",
                               achieved=math.inf)
    # every row's window as node indices i at every level, with h = 2**-(level+1)
    inverse_h = np.ldexp(1.0, np.arange(1, levels + 2))[:, None]
    firsts = np.ceil(bounds[0] * inverse_h).astype(int)
    firsts[1:] |= 1  # the refinements add the odd i alone
    windows = list(zip(firsts.tolist(), np.floor(bounds[1] * inverse_h).astype(int).tolist()))

    def node_sums(level: int, h: float, step: int) -> np.ndarray:
        rows = active.tolist()
        first_row, last_row = windows[level]
        first_i = [first_row[r] for r in rows]
        last_i = [last_row[r] for r in rows]
        first = min(first_i)
        f = integrand(active, h * np.arange(first, max(last_i) + 1, step))
        n = len(rows)
        if first_i.count(first) == n and last_i.count(last_i[0]) == n:  # one window
            return np.add.reduce(f, axis=1)
        # one reduction per run of consecutive rows that share a window
        parts, r0 = [], 0
        for r in range(1, n + 1):
            if r < n and first_i[r] == first_i[r0] and last_i[r] == last_i[r0]:
                continue
            window = slice((first_i[r0] - first) // step, (last_i[r0] - first) // step + 1)
            if r - r0 == 1:
                parts.append(np.add.reduce(f[r0, window]))
            else:
                parts.extend(np.add.reduce(f[r0:r, window], axis=1).tolist())
            r0 = r
        return np.array(parts)

    h = 0.5
    total = h * node_sums(0, h, 1)
    for level in range(1, levels + 1):
        h /= 2.0
        prev, total = total, 0.5 * total + h * node_sums(level, h, 2)
        if not all(0.0 < x < math.inf for x in total.tolist()):
            break
        errors[active], done = settle(total, prev)
        if done.all():
            break
        if done.any():
            sums[active[done]] = total[done]
            reached[active[done]] = level
            active, total = active[~done], total[~done]
    sums[active] = total
    reached[active] = level
    return sums, errors, reached


# --- Tricomi U for positive integer first argument ---------------------------

_U_TOL = 1e-10  # one order tighter than the 1e-8 rate-pipeline budget... see tests
_UNIT = 2.0**-53  # unit roundoff of a double
_EULER = 0.5772156649015329
_TINY = 1e-300  # modified Lentz guard against a zero denominator
_MAX_CF_TERMS = 100_000
_HALF_PI = 0.5 * math.pi
_LN2 = math.log(2.0)
_SUBNORMAL = 5e-324  # spacing of the subnormal doubles
_MIN_NORMAL = 2.0**-1022
#: Deepest level of the seeds' double-exponential rule (step 2**-(_SEED_LEVELS+1)).
_SEED_LEVELS = 7


def _w_asymptotic(j: int, a: float, z: float, tol: float):
    """(W_j, absolute error bound) by the large-z expansion (DLMF 13.7.3).

    W_j ~ sum_k (-1)^k (j)_k (A)_k / (k! z^k).  Returns None unless the
    (divergent) series reaches ``tol`` before its terms start growing; the
    truncation error is bounded by the first omitted term for these real
    parameter ranges, and the bound adds the rounding of at most 60 terms.
    """
    term = total = prev = 1.0
    for k in range(60):
        term *= -(j + k) * (a + k) / ((k + 1.0) * z)
        if abs(term) >= prev:
            return None
        total += term
        prev = abs(term)
        if abs(term) <= tol * abs(total):
            return total, (tol + 256 * _UNIT) * abs(total)
    return None


def _w1(a: float, z: float) -> tuple[float, float]:
    """(W_1, absolute error bound) with W_1 = z e^z E_A(z).

    For z >= 1 a modified Lentz continued fraction (DLMF 8.19.17) gives
    e^z E_A(z) directly.  Below that the power series (DLMF 8.19.10, or its
    psi(n) limit 8.19.8 at positive integer A) is summed with every term's
    magnitude counted, so the cancellation of Gamma(1-A) z^(A-1) against the
    k = A-1 term near integer A shows in the bound.
    """
    if z >= 1:
        b = z + a
        c = 1 / _TINY
        d = 1 / b
        h = d
        for i in range(1, _MAX_CF_TERMS):
            an = -i * (a - 1 + i)
            b += 2
            d = an * d + b
            d = 1 / (d if d != 0 else _TINY)
            c = b + an / c
            if c == 0:
                c = _TINY
            delta = c * d
            h *= delta
            if abs(delta - 1) <= _UNIT:
                w = z * h
                return w, (4 * i + 8) * _UNIT * abs(w)
        raise ConvergenceError(
            f"continued fraction for E_A(z) did not converge (A={a}, z={z})")

    n = round(a)
    integer_a = a == n and n >= 1
    if integer_a:
        # (-z)^(n-1)/(n-1)! (psi(n) - ln z), psi(n) = H_(n-1) - Euler's constant
        coeff = 1
        for i in range(1, n):
            coeff *= -z / i
        psi = math.fsum(1.0 / i for i in range(1, n)) - _EULER
        log_z = math.log(z)
        lead = coeff * (psi - log_z)
        lead_err = abs(coeff) * (abs(psi) + abs(log_z)) * (n + 4)
    else:
        lead = math.gamma(1 - a) * z ** (a - 1)
        lead_err = 16 * abs(lead)
    # every denominator k+1-A summed is at least this far from zero
    gap = 1 if integer_a else min(1, abs(a - max(n, 1)))
    total = lead
    magnitude = lead_err  # in units of the unit roundoff
    power = 1  # (-z)^k / k!
    k = 0
    while True:
        if not (integer_a and k == n - 1):
            term = power / (k + 1 - a)
            total -= term
            magnitude += (2 * k + 4) * abs(term)
        k += 1
        power *= -z / k
        # |z| < 1 halves |power| at least every step: the tail is below 2|power|/gap
        tail = 2 * abs(power) / gap
        if tail <= _UNIT * abs(total):
            break
    scale = z * math.exp(z)
    w = scale * total
    return w, scale * (_UNIT * magnitude + tail) + 3 * _UNIT * abs(w)


def _forward(a, z, k: int, w_prev, e_prev, w, e):
    """Yield (W_j, bound) for j = k, k+1, ... by the forward b-recurrence.

    Starts from W_(k-1), W_k and their bounds; the bound of W_(j+1) carries
    the bounds of W_j and W_(j-1) through the recurrence plus the rounding of
    the step itself.  The caller stops the generator.
    """
    while True:
        yield w, e
        c = k - a - z
        w_next = (c * w + z * w_prev) / k
        e_next = ((abs(c) * e + z * e_prev
                   + 4 * _UNIT * ((k + abs(a) + z) * abs(w) + z * abs(w_prev))) / k
                  + _UNIT * abs(w_next) + _SUBNORMAL)
        w_prev, e_prev, w, e = w, e, w_next, e_next
        k += 1


def _seeds(a: float, z: float, k: int, tol: float):
    """(e, ((W_(k-1), bound), (W_k, bound)) times 2**-e) by a double-exponential rule.

    In x = ln t, W_k = int exp(phi(x)) dx with
    phi(x) = k (ln z + x) - z e^x - A ln(1 + e^x) - ln Gamma(k), which is
    concave; its peak t_k = e^(x_k) solves z t^2 + (z + A - k) t = k.  The map
    x = x_k + w sinh(u), w = (pi/2) min(1, 2/sqrt(-phi''(x_k))), makes the
    integrand decay double-exponentially in u, and phi - phi(x_k) is written
    in d = x - x_k so that nothing of size phi(x_k) cancels.  The Gamma(k-1)
    density is the Gamma(k) one times (k-1)/(z t), so the same nodes give
    W_(k-1).  The x-window drops under 1e-20 of both: for each j, with
    L = 46 + A ln(1 + j/z) and Jensen's W_j >= (1 + j/z)^-A, the mass below t
    is at most (z t)^j / j! and the mass above t = 2(j + L)/z at most e^-L, by
    the Chernoff bound on the Gamma tail.  By :func:`nested_trapezoid`, a
    bound is the last level difference plus every node's exponent rounding,
    and both seeds leave once both bounds are under ``tol`` of their values.
    The exponent e puts the integrand's peak near 1, so seeds below the
    double range keep their digits.
    """
    b = z + a - k
    root = math.sqrt(b * b + 4.0 * z * k)
    # the positive root, without cancellation for either sign of b
    t0 = 2.0 * k / (b + root) if b > 0.0 else (root - b) / (2.0 * z)
    zt0 = z * t0
    width = _HALF_PI * min(1.0, 2.0 / math.sqrt(zt0 + a * t0 / (1.0 + t0) ** 2))
    x0 = math.log(t0)
    log_z = math.log(z)
    d_lo = d_hi = 0.0
    for j in (k - 1, k):
        window = 46.0 + a * math.log1p(j / z)  # 46 = ln 1e20
        d_lo = min(d_lo, (math.lgamma(j + 1.0) - window) / j - log_z - x0)
        d_hi = max(d_hi, math.log(2.0 * (j + window) / z) - x0)
    u_lo, u_hi = math.asinh(d_lo / width), math.asinh(d_hi / width)
    log_t0 = math.log1p(t0)
    # phi(x_k) = K(k) + k (ln(1 + delta) - delta) - A ln(1 + t_k), delta = z t_k/k - 1:
    # its terms of size k ln k cancel inside log_gamma_peak, and 1 + delta is
    # formed only where it does not cancel
    delta = (zt0 - k) / k
    log_s = math.log1p(delta) if abs(delta) < 0.5 else math.log(zt0 / k)
    log_peak = log_gamma_peak(k) + k * (log_s - delta) - a * log_t0
    peak_err = 4.0 * _UNIT * (min(k, 30) * math.log(k + 1.0) + k * (abs(log_s) + abs(delta))
                              + a * log_t0 + 2.0)

    def integrand(_, u):
        # the integrands of W_(k-1) and W_k, and the same weighted by their rounding
        d = width * np.sinh(u)
        kd = k * d
        zem = zt0 * np.expm1(d)
        log_t = np.log1p(t0 * np.exp(d))  # ln(1+t) - ln(1+t0) cancels only to ~eps ln(1+t)
        f = np.exp(kd - zem - a * (log_t - log_t0)) * (width * np.cosh(u))
        g = f * np.exp(-d)
        err = 4.0 * _UNIT * (np.abs(kd) + np.abs(zem) + a * (log_t + log_t0) + np.abs(d) + 4.0)
        return np.array((g, f, g * err, f * err))

    def settle(total, prev):
        # both seeds' bounds, twice over so that all four rows leave together
        bound = np.abs(total[:2] - prev[:2]) + total[2:] + 8.0 * _UNIT * total[:2]
        return np.concatenate((bound, bound)), (bound <= tol * total[:2]).all()

    sums, bounds, _ = nested_trapezoid(integrand, (u_lo,) * 4, (u_hi,) * 4, _SEED_LEVELS, settle)
    exponent = round(log_peak / _LN2)
    scale = math.exp(log_peak - exponent * _LN2) * np.array([(k - 1) / zt0, 1.0])
    values = scale * sums[:2]
    bounds = scale * bounds[:2] + (peak_err + 3.0 * _UNIT) * values
    return exponent, tuple(zip(values.tolist(), bounds.tolist()))


def _backward(a: float, z: float, k: int, exponent: int, seeds):
    """W_1..W_k and error bounds by the backward b-recurrence from two seeds.

    ``seeds`` is ((W_(k-1), bound), (W_k, bound)) times 2**-``exponent``,
    with k - 1 <= A + z (or k = 2, which takes no step), so every step
    W_(j-1) = (j W_(j+1) + (A+z-j) W_j) / z adds two nonnegative terms and
    the relative error stays that of the seeds plus the rounding.  The
    recurrence runs in that scale, moved by 2**500 whenever W passes it, and
    each term is scaled back exactly; its bound adds the spacing of the
    subnormal doubles.
    """
    (w, e), (w_next, e_next) = seeds
    terms = [(w_next, e_next, exponent), (w, e, exponent)]
    for j in range(k - 1, 1, -1):
        c = a + z - j
        w_new = (j * w_next + c * w) / z
        e_new = ((j * e_next + abs(c) * e + 4 * _UNIT * (j * w_next + (j + a + z) * abs(w))) / z
                 + _UNIT * w_new)
        w_next, e_next, w, e = w, e, w_new, e_new
        if w > 2.0**500:
            w_next, e_next, w, e = (math.ldexp(v, -500) for v in (w_next, e_next, w, e))
            exponent += 500
        terms.append((w, e, exponent))
    terms.reverse()
    return ([math.ldexp(w, x) for w, _, x in terms],
            [math.ldexp(e, x) + _SUBNORMAL for _, e, x in terms])


def _certified(w: float, e: float, rel_tol: float) -> bool:
    """Whether bound ``e`` certifies W = ``w`` to ``rel_tol``.

    Relative to W, or to the smallest normal double for a W below the double
    range, whose relative error no bound can hold to ``rel_tol``.  An
    overflowed recurrence certifies nothing, though inf <= inf.
    """
    return w < math.inf and e <= rel_tol * max(w, _MIN_NORMAL)


def u_terms(a: float, z: float, n: int, rel_tol: float = _U_TOL):
    """Yield (W_j, bound, branch) for j = 1..n, A = ``a``, z > 0, each term evaluated once.

    The terms come from the seeds W_(k-1), W_k at k = floor(A+z) + 1, or n
    if that is lower (and k >= 2): at or below k by :func:`_backward`, stable
    below the turning point A + z, and above k by :func:`_forward` from the
    seeds, stable above it.  Where n > 1 and the asymptotic series converges
    at k and then at k - 1, it gives the seeds, and W_1 alone comes before
    them, direct.  Elsewhere :func:`_forward` runs from W_1 up to the first
    term whose bound exceeds ``rel_tol`` times its value, and :func:`_seeds`
    integrates the seeds.  The backward W_1 must agree with the direct one
    within their two bounds, which checks the seeds.  Each term is made
    when it is read, so a caller that stops early evaluates no more; n only
    places the seeds.  Raises :class:`ConvergenceError` if the seeds
    overflow or the check fails, or, carrying the term's relative bound, at
    the first term read that the seeds leave uncertified, and
    :class:`ParameterError` unless z is finite and > 0.
    """
    if not 0.0 < z < math.inf:
        raise ParameterError(f"U(j; j-A+1; z) needs z finite and > 0, got {z!r}")
    k = max(min(math.floor(a + z), n - 1) + 1, 2)
    lower = upper = None
    if n > 1:
        tol = min(rel_tol * 1e-2, 1e-14)
        upper = _w_asymptotic(k, a, z, tol)
        lower = upper and _w_asymptotic(k - 1, a, z, tol)
    first = _w1(a, z)
    j = 1
    for w, e in _forward(a, z, 1, 1, 0, *first):
        # the first test is _certified's common case, without a call per term
        if not (e <= rel_tol * w < math.inf or _certified(w, e, rel_tol)):
            break
        yield w, e, "recurrence"
        if j == n:
            return
        j += 1
        if lower is not None:  # the series' seeds serve every term above W_1
            break
    if lower is None:
        try:
            seeds = _seeds(a, z, k, rel_tol * 1e-2)
        except OverflowError:  # (1 + t_k)^2 at the seeds' peak t_k ~ (k - A)/z, as z -> 0
            raise ConvergenceError(f"U(j; j-A+1; z) with A={a}, z={z}: the seeds at j={k} "
                                   f"overflow", achieved=math.inf) from None
        branch = "quadrature"
    else:
        seeds, branch = (0, (lower, upper)), "asymptotic"
    values, bounds = _backward(a, z, k, *seeds)
    if not abs(values[0] - first[0]) <= bounds[0] + first[1]:
        raise ConvergenceError(
            f"U(j; j-A+1; z) with A={a}, z={z}: W_1 from the seeds at j={k} is "
            f"{values[0]!r}, the direct one {first[0]!r}", achieved=math.inf)
    above = islice(_forward(a, z, k, values[-2], bounds[-2], values[-1], bounds[-1]), 1, None)
    seeded = chain(zip(values, bounds, ("backward",) * (k - 2) + (branch,) * 2),
                   ((w, e, "recurrence") for w, e in above))
    # past the j - 1 terms the forward run certified
    for i, (w, e, branch) in enumerate(islice(seeded, j - 1, n), j):
        if not (e <= rel_tol * w < math.inf or _certified(w, e, rel_tol)):
            raise ConvergenceError(
                f"U(j; j-A+1; z) with A={a}, z={z} uncertified at j={i} "
                f"(target {rel_tol:.1e} relative)", achieved=e / w if w > 0 else math.inf)
        yield w, e, branch
