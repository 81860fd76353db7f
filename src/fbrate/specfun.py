"""Special functions backing the rate computation.

Provides log-gamma and the Tricomi confluent hypergeometric function
U(j; j-A+1; z) for positive integer j, a whole family at a time.  With
X_j ~ Gamma(j, rate z),

    W_j = z^j U(j; j-A+1; z) = E[(1 + X_j)^-A],   W_0 = 1,   W_1 = z e^z E_A(z),

and the b-recurrence (DLMF 13.3.8, after Kummer's transformation DLMF
13.2.40) reads k W_{k+1} = (k-A-z) W_k + z W_{k-1}.  One exponential
integral per (A, z) therefore yields every W_j.  Forward recursion is stable
for k >= A+z; below that W is the minimal solution and the recursion loses
digits, so each term carries a running absolute-error bound (Gil, Segura &
Temme, *Numerical Methods for Special Functions*, SIAM 2007, ch. 4).  Where
the large-z asymptotic series converges it replaces the recursion; terms
neither certifies are recomputed by the same code over ``mpmath.mpf`` at
rising precision up to just past A + z, and above it by double recursion
from the last two mpf values.  Anything still uncertified raises
:class:`ConvergenceError`.  mpmath is imported only for that re-run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError

ln_gamma = math.lgamma  # C library lgamma: relative error well under 1e-14 for x > 0


# --- Tricomi U for positive integer first argument ---------------------------

_U_TOL = 1e-10  # one order tighter than the 1e-8 rate-pipeline budget... see tests
_UNIT = 2.0**-53  # unit roundoff of a double
_EULER = 0.5772156649015329
_TINY = 1e-300  # modified Lentz guard against a zero denominator
_MAX_CF_TERMS = 100_000
#: Working precisions (digits) of the mpf re-run in :func:`u_family`.
_EXTENDED_DPS = (30, 60, 120, 240, 480)


@dataclass(frozen=True)
class UFamily:
    """W_j = z^j U(j; j-A+1; z) for j = 1..n, each certified to ``rel_tol``.

    ``bounds[j-1]`` bounds |error of values[j-1]|; ``branches[j-1]`` names
    the evaluation that certified it: ``asymptotic``, ``recurrence`` or
    ``extended`` (the mpf re-run).
    """

    values: tuple[float, ...]
    bounds: tuple[float, ...]
    branches: tuple[str, ...]


def _w_asymptotic(j: int, a: float, z: float, tol: float):
    """Large-z expansion W_j ~ sum_k (-1)^k (j)_k (A)_k / (k! z^k).

    Returns None unless the (divergent) series reaches ``tol`` before its
    terms start growing; the truncation error is bounded by the first
    omitted term for these real parameter ranges.
    """
    term = 1.0
    total = 1.0
    prev = 1.0
    for k in range(60):
        term *= -(j + k) * (a + k) / ((k + 1.0) * z)
        if abs(term) >= prev:
            return None
        total += term
        prev = abs(term)
        if abs(term) <= tol * abs(total):
            return total
    return None


def _w1(a, z, unit, lib):
    """(W_1, absolute error bound) with W_1 = z e^z E_A(z), in lib's scalar type.

    ``lib`` supplies ``exp``, ``log`` and ``gamma`` (``math`` for floats,
    ``mpmath`` for mpf) and ``unit`` is the unit roundoff.  For z >= 1 a
    modified Lentz continued fraction (DLMF 8.19.17) gives e^z E_A(z)
    directly.  Below that the power series (DLMF 8.19.10, or its psi(n) limit
    8.19.8 at positive integer A) is summed with every term's magnitude
    counted, so the cancellation of Gamma(1-A) z^(A-1) against the k = A-1
    term near integer A shows in the bound.
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
            if abs(delta - 1) <= unit:
                w = z * h
                return w, (4 * i + 8) * unit * abs(w)
        raise ConvergenceError(
            f"continued fraction for E_A(z) did not converge (A={a}, z={z})")

    n = round(a)
    integer_a = a == n and n >= 1
    if integer_a:
        # (-z)^(n-1)/(n-1)! (psi(n) - ln z)
        coeff = 1
        for i in range(1, n):
            coeff *= -z / i
        psi = _psi(n, lib)
        log_z = lib.log(z)
        lead = coeff * (psi - log_z)
        lead_err = abs(coeff) * (abs(psi) + abs(log_z)) * (n + 4)
    else:
        lead = lib.gamma(1 - a) * z ** (a - 1)
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
        if tail <= unit * abs(total):
            break
    scale = z * lib.exp(z)
    w = scale * total
    return w, scale * (unit * magnitude + tail) + 3 * unit * abs(w)


def _psi(n: int, lib):
    """Digamma at a positive integer n: H_(n-1) minus Euler's constant."""
    if lib is math:
        return math.fsum(1.0 / i for i in range(1, n)) - _EULER
    return lib.digamma(n)


def _forward(a, z, n: int, unit, lib, asymptotic_tol=None, seed=None):
    """W_1..W_n and error bounds by the forward b-recurrence, in lib's type.

    The bound of W_(k+1) carries the bounds of W_k and W_(k-1) through the
    recurrence plus the rounding of the step itself.  With
    ``asymptotic_tol`` (double precision only) each term also tries
    :func:`_w_asymptotic` until it first fails, and keeps whichever of the
    two values has the smaller bound, so a good asymptotic value also seeds
    the recursion.  A ``seed`` (k, W_(k-1), bound, W_k, bound) resumes at k.
    """
    k0, w_prev, e_prev, w, e = seed or (1, 1, 0, *_w1(a, z, unit, lib))
    values, bounds, branches = [], [], []
    for j in range(k0, n + 1):
        branch = "recurrence"
        if j > k0:
            k = j - 1
            c = k - a - z
            w_next = (c * w + z * w_prev) / k
            e_next = ((abs(c) * e + z * e_prev
                       + 4 * unit * ((k + abs(a) + z) * abs(w) + z * abs(w_prev))) / k
                      + unit * abs(w_next))
            w_prev, e_prev, w, e = w, e, w_next, e_next
        if asymptotic_tol is not None:
            series = _w_asymptotic(j, a, z, asymptotic_tol)
            if series is None:
                asymptotic_tol = None
            else:
                # truncation under tol, plus the rounding of at most 60 terms
                series_err = (asymptotic_tol + 256 * unit) * abs(series)
                if not e <= series_err:
                    w, e, branch = series, series_err, "asymptotic"
        values.append(w)
        bounds.append(e)
        branches.append(branch)
    return values, bounds, branches


def u_family(a: float, z: float, n: int, rel_tol: float = _U_TOL) -> UFamily:
    """W_j = z^j U(j; j-A+1; z) = E[(1+X_j)^-A] for j = 1..n, A = ``a``, z > 0.

    Runs :func:`_forward` in double precision with the asymptotic series
    where it converges.  Terms whose bound exceeds ``rel_tol`` times their
    value are recomputed over ``mpmath.mpf`` at 30, 60, ... digits up to
    k* = ceil(A+z) + 3; past the turning point A + z forward recursion is
    stable, so later ones resume it in double from the last two mpf values.
    Raises :class:`ConvergenceError` carrying the largest relative bound left
    when the last precision still fails.
    """
    values, bounds, branches = _forward(a, z, n, _UNIT, math,
                                        min(rel_tol * 1e-2, 1e-14))
    pending = [i for i in range(n) if not bounds[i] <= rel_tol * values[i]]
    if pending:
        import mpmath as mp

        last = pending[-1] + 1
        k_star = min(last, math.ceil(a + z) + 3)
        for dps in _EXTENDED_DPS:
            with mp.workdps(dps):
                ext_values, ext_bounds, _ = _forward(
                    mp.mpf(a), mp.mpf(z), k_star, mp.eps / 2, mp)
            ext = [(float(w), float(e) + _UNIT * abs(float(w)), "extended")
                   for w, e in zip(ext_values, ext_bounds)]
            if last > k_star:
                seed = (k_star, *ext[-2][:2], *ext[-1][:2])
                ext += list(zip(*_forward(a, z, last, _UNIT, math, seed=seed)))[1:]
            uncertified = {}
            for i in pending:
                w, e, _ = ext[i]
                if e <= rel_tol * w:
                    values[i], bounds[i], branches[i] = ext[i]
                else:
                    uncertified[i] = e / w if w > 0 else math.inf
            pending = list(uncertified)
            if not pending:
                break
        else:
            raise ConvergenceError(
                f"U(j; j-A+1; z) with A={a}, z={z} uncertified at j={pending[0] + 1} "
                f"after {_EXTENDED_DPS[-1]} digits (target {rel_tol:.1e} relative)",
                achieved=max(uncertified.values()))
    return UFamily(values=tuple(values), bounds=tuple(bounds), branches=tuple(branches))


def tricomi_u_int_a(a: int, b: float, z: float, rel_tol: float = _U_TOL) -> float:
    """U(a; b; z) for integer a >= 1, real b, z > 0.

    The last member of :func:`u_family` with A = a - b + 1, scaled by z^-a.
    Raises :class:`ConvergenceError` carrying the achieved error estimate if
    the target accuracy cannot be certified.
    """
    if a < 1 or a != int(a):
        raise ValueError(f"first argument must be a positive integer, got {a!r}")
    if z <= 0:
        raise ValueError(f"z must be > 0, got {z!r}")
    a = int(a)
    return u_family(a - b + 1.0, z, a, rel_tol).values[-1] * z**-a
