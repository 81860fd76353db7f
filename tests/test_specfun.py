import math

import numpy as np
import pytest
from scipy.special import exp1 as scipy_exp1

from fbrate import ln_gamma, tricomi_u_int_a

from conftest import E1_AT_1, U_2_1_2, U_3_HALF_2, exp1 as _exp1


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

