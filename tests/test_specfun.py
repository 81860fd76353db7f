import json
import math
import subprocess
import sys
from itertools import islice
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.special import exp1 as scipy_exp1

from fbrate import ConvergenceError, ParameterError
from fbrate import specfun
from fbrate.specfun import _U_TOL, _w1, u_terms

from conftest import (E1_AT_1, U_2_1_2, U_3_HALF_2, exp1 as _exp1, rayleigh_j,
                      fresh_env, tricomi_u_int_a, tricomi_u_integral_mp, u_family)


class TestLnGamma:
    """The C library lgamma that the quadrature windows use, to 1e-14 relative."""

    def test_one(self):
        assert math.lgamma(1.0) == 0.0

    def test_half(self):
        assert math.lgamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)

    def test_ten(self):
        assert math.lgamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-14)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            math.lgamma(0.0)


class TestExp1Oracle:
    def test_at_one(self):
        assert _exp1(1.0) == pytest.approx(E1_AT_1, rel=1e-14)

    def test_against_scipy_grid(self):
        for z in np.geomspace(1e-3, 50.0, 60):
            assert _exp1(float(z)) == pytest.approx(float(scipy_exp1(z)), rel=1e-13)


class TestTricomiU:
    def test_u_1_0_1_identity(self):
        # integral of e^{-t}(1+t)^{-2} equals 1 - e*E1(1)
        expected = 1.0 - math.e * _exp1(1.0)
        assert tricomi_u_int_a(1, 0.0, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_u_1_1_identity(self):
        # U(1;1;z) = e^z E1(z)
        for z in (0.3, 1.0, 7.0, 80.0):
            expected = math.exp(z) * _exp1(z) if z < 700 else None
            assert tricomi_u_int_a(1, 1.0, z) == pytest.approx(expected, rel=1e-11)

    def test_frozen_goldens(self):
        assert tricomi_u_int_a(3, 0.5, 2.0) == pytest.approx(U_3_HALF_2, rel=1e-11)
        assert tricomi_u_int_a(2, 1.0, 2.0) == pytest.approx(U_2_1_2, rel=1e-11)

    def test_rate_bridge_identity(self):
        # U(1; 2-A; z) equals the direct integral of (1+g)^-A e^{-z g}
        from scipy.integrate import quad
        for a_exp in (0.5, 1.0, 2.0, 3.7):
            for z in (0.05, 0.4, 2.0, 25.0):
                direct = quad(lambda g: (1.0 + g) ** -a_exp * math.exp(-z * g),
                              0.0, np.inf, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
                assert tricomi_u_int_a(1, 2.0 - a_exp, z) == pytest.approx(
                    direct, rel=1e-9)

    def test_kummer_recurrence_in_a(self):
        # U(a-1,b,z) + (b - 2a - z) U(a,b,z) + a (a - b + 1) U(a+1,b,z) = 0
        for b in (-1.5, 0.0, 0.5, 2.0):
            for z in (0.2, 1.0, 5.0, 40.0):
                for a in (2, 3, 5):
                    u_m = tricomi_u_int_a(a - 1, b, z)
                    u_0 = tricomi_u_int_a(a, b, z)
                    u_p = tricomi_u_int_a(a + 1, b, z)
                    residual = u_m + (b - 2 * a - z) * u_0 + a * (a - b + 1) * u_p
                    scale = max(abs(u_m), abs((b - 2 * a - z) * u_0),
                                abs(a * (a - b + 1) * u_p))
                    assert abs(residual) <= 1e-8 * scale

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            tricomi_u_int_a(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            tricomi_u_int_a(2, 1.0, 0.0)

    def test_asymptotic_and_quadrature_agree(self):
        # straddle the internal switchover
        for j, b in ((1, 0.0), (3, 1.5), (6, 6.0)):
            for z in (30.0, 80.0, 300.0):
                loose = tricomi_u_int_a(j, b, z, rel_tol=1e-8)
                tight = tricomi_u_int_a(j, b, z, rel_tol=1e-12)
                assert loose == pytest.approx(tight, rel=1e-9)


#: Exponents of the U-family grid: the validation grid's values, a large one,
#: and near-integer values whose small-z series cancels.
FAMILY_A = (0.0, 0.5, 1.0, 2.0, 5.0, 20.0, 2.0 + 1e-9, 2.0 - 1e-9, 2.0 + 1e-6,
            2.0 - 1e-6, 5.0 - 1e-7)
FAMILY_Z = tuple(float(z) for z in np.geomspace(1e-4, 1e3, 8))
FAMILY_N = 40


def reference_family(a: float, z: float, n: int, digits: int = 140) -> list:
    """W_0..W_n from mpmath's E_A(z) and the b-recurrence at 140 digits.

    The forward recurrence loses up to ~90 digits on this grid (A = 20 at
    small z, z = 1e3), so a run 20 digits shorter must agree to 1e-20 before
    the result is used; ``test_reference_matches_integral_oracle`` ties the
    recurrence itself to the defining integral.
    """
    runs = []
    for dps in (digits - 20, digits):
        with mp.workdps(dps):
            a_mp, z_mp = mp.mpf(a), mp.mpf(z)
            w = [mp.mpf(1), z_mp * mp.exp(z_mp) * mp.expint(a_mp, z_mp)]
            for k in range(1, n):
                w.append(((k - a_mp - z_mp) * w[k] + z_mp * w[k - 1]) / k)
            runs.append(w)
    for low, high in zip(*runs):
        assert abs(low - high) <= 1e-20 * abs(high)
    return runs[1]


#: W_0..W_61 at A = 60, z = 1e-4 from ``reference_family(60.0, 1e-4, 61,
#: digits=400)``, stored because that run takes several seconds; regenerate
#: with ``PYTHONPATH=src python tests/test_specfun.py``.
SEEDS_BELOW_DOUBLE = Path(__file__).with_name("u_family_a60_z1e-4.json")


def stored_seeds_below_double() -> list:
    """The stored W_0..W_61 as mpf at the digits they were written with."""
    data = json.loads(SEEDS_BELOW_DOUBLE.read_text())
    with mp.workdps(data["digits"]):
        return [mp.mpf(value) for value in data["values"]]


def write_seeds_below_double() -> None:
    digits = 400
    values = reference_family(60.0, 1e-4, 61, digits=digits)
    SEEDS_BELOW_DOUBLE.write_text(json.dumps(
        {"a": 60.0, "z": 1e-4, "n": 61, "digits": digits,
         "command": "PYTHONPATH=src python tests/test_specfun.py",
         "values": [mp.nstr(value, digits) for value in values]}, indent=1) + "\n")


class TestUFamily:
    @pytest.mark.parametrize("a", (0.5, 2.0, 5.0 - 1e-7, 20.0))
    def test_reference_matches_integral_oracle(self, a):
        for z in (1e-3, 1.0, 30.0):
            w = reference_family(a, z, 3)
            with mp.workdps(30):
                z_mp = mp.mpf(z)
                oracle = z_mp**3 * tricomi_u_integral_mp(3, 4 - mp.mpf(a), z_mp)
            assert abs(oracle - w[3]) <= 1e-20 * w[3]

    @pytest.mark.parametrize("z", (100.0, 1e3))
    def test_integral_oracle_at_large_z_j(self, z):
        # the Gamma peak (j-1)/z sits far from t = 1/z here; without the split
        # at it the oracle missed 2-44% of the mass
        for a in (0.0, 5.0, 20.0):
            w = reference_family(a, z, 40)
            with mp.workdps(30):
                z_mp = mp.mpf(z)
                oracle = z_mp**40 * tricomi_u_integral_mp(40, 41 - mp.mpf(a), z_mp)
            assert abs(oracle - w[40]) <= 1e-20 * w[40]

    @pytest.mark.parametrize("a", FAMILY_A)
    def test_values_and_bounds_against_reference(self, a):
        for z in FAMILY_Z:
            family = u_family(a, z, FAMILY_N)
            exact = reference_family(a, z, FAMILY_N)
            for j in range(1, FAMILY_N + 1):
                value, bound = family.values[j - 1], family.bounds[j - 1]
                error = abs(value - float(exact[j]))
                assert error <= _U_TOL * float(exact[j]), (a, z, j)
                assert bound >= error, (a, z, j, family.branches[j - 1])
                assert bound <= _U_TOL * value

    def test_every_branch_is_hit(self):
        branches = set()
        for a in FAMILY_A:
            for z in FAMILY_Z:
                branches.update(u_family(a, z, FAMILY_N).branches)
        assert branches == {"asymptotic", "recurrence", "quadrature", "backward"}

    def test_series_gives_only_the_seeds(self, monkeypatch):
        # the asymptotic series is tried at the seeds W_(k-1), W_k alone, at
        # most once each, and no other term is taken from it
        series = specfun._w_asymptotic
        calls = []

        def counted(j, *args):
            calls.append(j)
            return series(j, *args)

        monkeypatch.setattr(specfun, "_w_asymptotic", counted)
        families = [(a, z, FAMILY_N, _U_TOL) for a in FAMILY_A for z in FAMILY_Z]
        seeded = 0
        for a, z, n, rel_tol in families + [(43.67, 2.47e5, 5700, 5e-10)]:
            calls.clear()
            branches = u_family(a, z, n, rel_tol).branches
            k = max(min(math.floor(a + z), n - 1) + 1, 2)
            assert len(calls) <= 2 and set(calls) <= {k - 1, k}, (a, z, calls)
            asymptotic = {j for j, branch in enumerate(branches, 1) if branch == "asymptotic"}
            assert asymptotic <= {k - 1, k}, (a, z, asymptotic)
            seeded += bool(asymptotic)
        assert seeded > 0

    @pytest.mark.parametrize("a", (0.5, 1.0, 2.0, 5.0, 2.0 + 1e-9))
    def test_first_term_is_rayleigh_j(self, a):
        # W_1 = z e^z E_A(z) is the exact Rayleigh J at gamma_bar = 1/z
        for z in (1e-3, 0.3, 0.99, 1.0, 3.0, 100.0):
            assert u_family(a, z, 1).values[0] == pytest.approx(
                rayleigh_j(1.0 / z, a), rel=1e-10, abs=0.0)

    def test_near_integer_cancellation_shows_in_the_bound(self):
        # the double series for A = 2 + 1e-9 at z = 0.99 cancels Gamma(1-A)
        # z^(A-1) against its k = 1 term; its bound must send W_1 to the
        # seeds W_1, W_2
        a, z = 2.0 + 1e-9, 0.99
        w1, bound = _w1(a, z)
        exact = float(reference_family(a, z, 1)[1])
        assert abs(w1 - exact) <= bound
        assert bound > _U_TOL * exact
        family = u_family(a, z, 1)
        assert family.branches == ("quadrature",)
        assert family.values[0] == pytest.approx(exact, rel=1e-15, abs=0.0)
        assert family.bounds[0] >= abs(family.values[0] - exact)

    def test_seeds_sit_at_the_turning_point(self):
        # A = 5, z = 0.004: the forward recurrence loses ~eps/z^(j-1), so every
        # term past j = 2 is pending.  The seeds W_5, W_6 sit at k =
        # floor(A+z) + 1 = 6; below them the backward recurrence and above
        # them the forward one add nonnegative terms only
        a, z, n = 5.0, 0.004, 40
        family = u_family(a, z, n)
        exact = reference_family(a, z, n)
        assert family.branches == (("recurrence",) * 2 + ("backward",) * 2
                                   + ("quadrature",) * 2 + ("recurrence",) * (n - 6))
        for j in range(1, n + 1):
            error = abs(family.values[j - 1] - float(exact[j]))
            assert family.bounds[j - 1] >= error, j
            assert error <= _U_TOL * float(exact[j]), j

    def test_seeds_below_the_double_range(self):
        # A = 60, z = 1e-4: the seeds W_60 ~ 3e-320 and W_61 ~ 1e-322 lie
        # below the double range, W_10 ~ 4e-58 well inside it.  The backward
        # recurrence runs in the seeds' binary scale, and a term under
        # 2**-1022 is held to _U_TOL of that instead of its own size
        a, z, n = 60.0, 1e-4, 61
        family = u_family(a, z, n)
        exact = stored_seeds_below_double()
        assert family.branches[-2:] == ("quadrature", "quadrature")
        tiny = 2.0**-1022
        assert float(exact[n]) < tiny < float(exact[10])
        for j in range(1, n + 1):
            error = abs(family.values[j - 1] - float(exact[j]))
            assert family.bounds[j - 1] >= error, j
            assert family.bounds[j - 1] <= _U_TOL * max(family.values[j - 1], tiny), j

    def test_overflowed_recurrence_is_not_certified(self):
        # an overflowed recurrence, inf with bound inf, must stay pending, not
        # pass inf <= rel_tol * inf
        assert not specfun._certified(math.inf, math.inf, _U_TOL)
        # at z ~ 3e4 the series does not converge at the seeds and the forward
        # recurrence, unstable below A + z, leaves W_3 uncertified.  The seeds
        # sit at j = n, far below A + z, and the backward recurrence carries
        # them down 860 steps
        a, z, n = 47.62627798898563, 31483.729571022093, 862
        family = u_family(a, z, n)
        assert family.branches[-3:] == ("backward", "quadrature", "quadrature")
        for j in (n - 1, n):
            with mp.workdps(30):
                z_mp = mp.mpf(z)
                exact = float(z_mp**j * tricomi_u_integral_mp(j, j + 1 - mp.mpf(a), z_mp))
            error = abs(family.values[j - 1] - exact)
            assert error <= _U_TOL * exact
            assert family.bounds[j - 1] >= error

    def test_seeds_are_checked_against_w1(self, monkeypatch):
        # a seed 1e-6 off carries into the backward W_1, which then misses the
        # direct W_1 by more than the two bounds
        seeds = specfun._seeds

        def perturbed(*args):
            exponent, ((w_prev, e_prev), (w, e)) = seeds(*args)
            return exponent, ((w_prev, e_prev), (w * (1.0 + 1e-6), e))

        monkeypatch.setattr(specfun, "_seeds", perturbed)
        with pytest.raises(ConvergenceError, match="W_1 from the seeds") as info:
            u_family(5.0, 0.004, 40)
        assert info.value.achieved > _U_TOL

    def test_uncertified_term_raises(self):
        # no double-precision term reaches 1e-17 relative: the rounding of
        # the seeds alone is ~1e-15
        with pytest.raises(ConvergenceError, match="uncertified") as info:
            u_family(20.0, 1e-4, FAMILY_N, rel_tol=1e-17)
        assert info.value.achieved > 1e-17

    @pytest.mark.parametrize("z", [0.0, -1.0, math.inf])
    def test_bad_z_is_a_parameter_error(self, z):
        with pytest.raises(ParameterError, match="z finite and > 0"):
            next(u_terms(2.0, z, 2))

    def test_nan_z_is_a_parameter_error(self):
        # in a child process with a timeout: NaN once never left the W_1 series
        probe = ("import math\nfrom fbrate.specfun import u_terms\n"
                 "try:\n    next(u_terms(2.0, math.nan, 2))\n"
                 "except Exception as exc:\n    print(type(exc).__name__)\n")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              check=True, env=fresh_env(), timeout=60)
        assert proc.stdout.strip() == "ParameterError"

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 5.0, 60.0])
    def test_one_term_is_the_first_of_two(self, a):
        # n = 1 and n = 2 both seed at k = 2, and n = 1 tries no series: W_1
        # is the direct one wherever that certifies
        for z in np.geomspace(1e-6, 1e8, 60).tolist():
            assert list(u_terms(a, z, 1)) == list(islice(u_terms(a, z, 2), 1)), z


if __name__ == "__main__":
    write_seeds_below_double()
