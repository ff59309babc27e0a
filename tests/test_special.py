import math

import numpy as np
import pytest
from scipy.stats import chi2

from svdshape.errors import DomainError
from svdshape.oracle import (Partition, enumerate_partitions, gen_pochhammer,
                             gen_pochhammer_log)
from svdshape.special import LogSign, chi_square_sf, multivariate_gamma


class TestLogSign:
    def test_of_and_value(self):
        for x in (3.5, -2.0, 1e-200, -1e200):
            ls = LogSign.of(x)
            # exp(log x) loses ~|log x| ulps, so the tolerance is scale-aware
            assert ls.value == pytest.approx(x, rel=1e-13)
        assert LogSign.of(0.0).sign == 0.0
        assert LogSign.zero().value == 0.0

    def test_mul_and_scale(self):
        a, b = LogSign.of(-3.0), LogSign.of(2.0)
        assert a.mul(b).value == pytest.approx(-6.0)
        assert a.scale(math.log(2.0)).value == pytest.approx(-6.0)
        assert a.mul(LogSign.zero()).sign == 0.0

    def test_overflow_safe(self):
        big = LogSign(800.0, 1.0)
        assert big.mul(big).log == 1600.0


class TestPartition:
    def test_validation(self):
        Partition((3, 1, 1))
        with pytest.raises(DomainError):
            Partition((1, 2))
        with pytest.raises(DomainError):
            Partition((2, 0))

    def test_weight_len_iter(self):
        p = Partition((4, 2, 1))
        assert p.weight == 7
        assert len(p) == 3
        assert list(p) == [4, 2, 1]


class TestEnumeratePartitions:
    def test_counts(self):
        # partition numbers p(n): 1, 1, 2, 3, 5, 7, 11
        for n, count in [(0, 1), (1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11)]:
            assert len(enumerate_partitions(n, n if n else 1)) == count

    def test_max_parts_restriction(self):
        two = enumerate_partitions(4, 2)
        assert {p.parts for p in two} == {(4,), (3, 1), (2, 2)}

    def test_reverse_lex_order(self):
        parts = [p.parts for p in enumerate_partitions(5, 5)]
        assert parts[0] == (5,)
        assert parts == sorted(parts, reverse=True)

    def test_errors(self):
        with pytest.raises(DomainError):
            enumerate_partitions(-1, 2)
        with pytest.raises(DomainError):
            enumerate_partitions(3, 0)


class TestGenPochhammer:
    def test_empty_partition(self):
        assert gen_pochhammer(1.7, Partition(())) == 1.0

    def test_known_value(self):
        # (a)_(2,1) = a(a+1) * (a - 1/2)
        a = 2.3
        expect = a * (a + 1) * (a - 0.5)
        assert gen_pochhammer(a, Partition((2, 1))) == pytest.approx(expect, rel=1e-14)

    def test_log_form_matches(self):
        a = 1.5
        for parts in [(3,), (2, 2), (4, 2, 1)]:
            lin = gen_pochhammer(a, Partition(parts))
            assert gen_pochhammer_log(a, Partition(parts)).value == pytest.approx(
                lin, rel=1e-13)

    def test_zero_factor(self):
        # (1/2)_(1,1) contains (1/2 - 1/2) = 0
        assert gen_pochhammer(0.5, Partition((1, 1))) == 0.0
        assert gen_pochhammer_log(0.5, Partition((1, 1))).sign == 0.0


class TestMultivariateGamma:
    def test_reduces_to_gamma(self):
        for a in (0.5, 1.0, 3.7):
            assert multivariate_gamma(1, a).value == pytest.approx(
                math.gamma(a), rel=1e-14)

    def test_dimension_two(self):
        a = 3.0
        expect = math.pi ** 0.5 * math.gamma(3.0) * math.gamma(2.5)
        assert multivariate_gamma(2, a).value == pytest.approx(expect, rel=1e-14)

    def test_pole_raises(self):
        with pytest.raises(DomainError):
            multivariate_gamma(2, 0.5)  # factor Gamma(0)

    def test_negative_argument_sign(self):
        # Gamma is negative on (-1, 0) and (-3, -2), positive on (-2, -1)
        assert multivariate_gamma(1, -0.5).sign == -1.0
        assert multivariate_gamma(1, -1.5).sign == 1.0
        assert multivariate_gamma(1, -2.5).sign == -1.0


class TestChiSquareSf:
    def test_against_scipy_stats(self):
        for df in list(range(1, 60)) + [99, 100, 317, 318, 400]:
            for x in np.geomspace(1e-6, 5 * df + 200, 200):
                want = chi2.sf(x, df)
                assert want > 0.0
                assert chi_square_sf(float(x), df) == pytest.approx(
                    want, rel=1e-12, abs=0.0), (df, x)

    def test_edges(self):
        assert chi_square_sf(0.0, 3) == 1.0
        assert chi_square_sf(0.0, 4) == 1.0
        assert chi_square_sf(math.inf, 3) == 0.0
        with pytest.raises(DomainError):
            chi_square_sf(-1.0, 3)
        with pytest.raises(DomainError):
            chi_square_sf(1.0, 0)
        with pytest.raises(DomainError):
            chi_square_sf(1.0, 2.5)
