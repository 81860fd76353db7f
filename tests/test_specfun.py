import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import exp1 as scipy_exp1

from fbrate import ConvergenceError, ln_gamma
from fbrate import specfun
from fbrate.specfun import _U_TOL, _w1, u_family

from conftest import (E1_AT_1, U_2_1_2, U_3_HALF_2, exp1 as _exp1, rayleigh_j,
                      tricomi_u_int_a, tricomi_u_integral_mp)


class TestLnGamma:
    def test_one(self):
        assert ln_gamma(1.0) == 0.0

    def test_half(self):
        assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)

    def test_ten(self):
        assert ln_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-14)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            ln_gamma(0.0)


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


def reference_family(a: float, z: float, n: int) -> list:
    """W_0..W_n from mpmath's E_A(z) and the b-recurrence at 140 digits.

    The forward recurrence loses up to ~90 digits on this grid (A = 20 at
    small z, z = 1e3), so a 120-digit run must agree to 1e-20 before the
    result is used; ``test_reference_matches_integral_oracle`` ties the
    recurrence itself to the defining integral.
    """
    runs = []
    for dps in (120, 140):
        with mp.workdps(dps):
            a_mp, z_mp = mp.mpf(a), mp.mpf(z)
            w = [mp.mpf(1), z_mp * mp.exp(z_mp) * mp.expint(a_mp, z_mp)]
            for k in range(1, n):
                w.append(((k - a_mp - z_mp) * w[k] + z_mp * w[k - 1]) / k)
            runs.append(w)
    for low, high in zip(*runs):
        assert abs(low - high) <= 1e-20 * abs(high)
    return runs[1]


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
        assert branches == {"asymptotic", "recurrence", "extended"}

    @pytest.mark.parametrize("a", (0.5, 1.0, 2.0, 5.0, 2.0 + 1e-9))
    def test_first_term_is_rayleigh_j(self, a):
        # W_1 = z e^z E_A(z) is the exact Rayleigh J at gamma_bar = 1/z
        for z in (1e-3, 0.3, 0.99, 1.0, 3.0, 100.0):
            assert u_family(a, z, 1).values[0] == pytest.approx(
                rayleigh_j(1.0 / z, a), rel=1e-10, abs=0.0)

    def test_near_integer_cancellation_shows_in_the_bound(self):
        # the double series for A = 2 + 1e-9 at z = 0.99 cancels Gamma(1-A)
        # z^(A-1) against its k = 1 term; its bound must send W_1 to mpf
        a, z = 2.0 + 1e-9, 0.99
        w1, bound = _w1(a, z, 2.0**-53, math)
        exact = float(reference_family(a, z, 1)[1])
        assert abs(w1 - exact) <= bound
        assert bound > _U_TOL * exact
        family = u_family(a, z, 1)
        assert family.branches == ("extended",)
        assert family.values[0] == pytest.approx(exact, rel=1e-15, abs=0.0)

    def test_mpf_rerun_stops_at_the_turning_point(self):
        # A = 5, z = 0.004: the double recurrence loses ~eps/z^(j-1), so every
        # term past j = 2 is pending, but only j <= ceil(A+z)+3 = 9 are re-run
        # in mpf; the rest resume the forward recurrence, stable above A + z,
        # from the last two mpf values
        a, z, n = 5.0, 0.004, 40
        family = u_family(a, z, n)
        exact = reference_family(a, z, n)
        k_star = math.ceil(a + z) + 3
        extended = {j for j, branch in enumerate(family.branches, start=1)
                    if branch == "extended"}
        assert extended == set(range(3, k_star + 1))
        for j in range(1, n + 1):
            error = abs(family.values[j - 1] - float(exact[j]))
            assert family.bounds[j - 1] >= error, j
            assert error <= _U_TOL * float(exact[j]), j

    def test_uncertified_term_raises(self, monkeypatch):
        # A = 20 at z = 1e-4 loses ~90 digits by j = 40; 30 cannot certify it
        monkeypatch.setattr(specfun, "_EXTENDED_DPS", (30,))
        with pytest.raises(ConvergenceError) as info:
            u_family(20.0, 1e-4, FAMILY_N)
        assert info.value.achieved > _U_TOL
