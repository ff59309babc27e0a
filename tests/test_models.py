import math

import numpy as np
import pytest

from svdshape.errors import DomainError
from svdshape.models import (GeneratorSpec, IsotropicKind, ModelSpec, binomial_basis,
                             coefficient_polynomial, gaussian_model, h_log_value, h_value,
                             kotz_model)
from svdshape.oracle import h_derivative, radial_integral, radial_integral_quad


def kotz(M, T, R=0.5):
    return GeneratorSpec(M=M, T=T, R=R)


def gauss(M, R=0.5):
    return GeneratorSpec(M=M, R=R)


class TestGeneratorSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            gauss(0)
        with pytest.raises(DomainError):
            kotz(4, T=0)
        with pytest.raises(DomainError):
            gauss(4, R=-1.0)

    @pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_raises(self, R):
        with pytest.raises(DomainError, match="rate R"):
            kotz(4, T=2, R=R)

    def test_shape_is_stored_as_an_int(self):
        for gen in (kotz(4, T=3.0), kotz(4, T=1.0)):
            assert type(gen.T) is int

    def test_gaussian_is_kotz_t1(self):
        assert gauss(6) == kotz(6, T=1) == IsotropicKind.GAUSSIAN.generator(6)

    def test_log_value_at_zero(self):
        # h(0) vanishes for T > 1 and is the normalizing constant for T = 1
        assert h_log_value(kotz(6, T=2), 0.0) == -math.inf
        assert h_log_value(gauss(6), 0.0) == gauss(6).log_norm_const


class TestHValue:
    def test_gaussian_normal_density(self):
        # h(||z||^2) with R=1/2 is the standard M-variate normal density
        M = 4
        g = gauss(M)
        z = np.array([0.3, -1.0, 0.7, 0.2])
        expect = math.exp(-0.5 * float(z @ z)) / (2 * math.pi) ** (M / 2)
        assert h_value(g, float(z @ z)) == pytest.approx(expect, rel=1e-14)

    def test_negative_argument_raises(self):
        with pytest.raises(DomainError):
            h_value(gauss(4), -0.1)

    def test_kotz_zero_argument(self):
        assert h_value(kotz(4, T=3), 0.0) == 0.0
        assert h_value(kotz(4, T=1), 0.0) > 0


class TestHDerivative:
    @pytest.mark.parametrize("T", [2, 3])
    def test_finite_differences(self, T):
        g = kotz(8, T=T)
        eps = 1e-5
        for y in (0.5, 2.0, 7.0):
            fd1 = (h_value(g, y + eps) - h_value(g, y - eps)) / (2 * eps)
            assert h_derivative(g, 1, y) == pytest.approx(fd1, rel=1e-6, abs=1e-10)
            fd2 = (h_value(g, y + eps) - 2 * h_value(g, y)
                   + h_value(g, y - eps)) / eps ** 2
            assert h_derivative(g, 2, y) == pytest.approx(fd2, rel=1e-4, abs=1e-8)

    def test_gaussian_closed_form(self):
        g = gauss(6, R=0.5)
        for k in range(9):
            for y in (0.0, 1.3, 5.0):
                expect = (-0.5) ** k * h_value(g, y)
                assert h_derivative(g, k, y) == pytest.approx(expect, rel=1e-13)

    def test_kotz_t1_matches_gaussian(self):
        g, kz = gauss(6), kotz(6, T=1)
        for k in range(9):
            for y in (0.2, 2.0, 9.0):
                assert h_derivative(g, k, y) == pytest.approx(
                    h_derivative(kz, k, y), rel=1e-10)

    def test_order_zero_is_h(self):
        g = kotz(4, T=2)
        assert h_derivative(g, 0, 1.7) == pytest.approx(h_value(g, 1.7), rel=1e-14)

    def test_errors(self):
        with pytest.raises(DomainError):
            h_derivative(gauss(4), -1, 1.0)
        with pytest.raises(DomainError):
            h_derivative(kotz(4, T=2), 1, -1.0)


class TestRadialIntegral:
    @pytest.mark.parametrize("T", [1, 2, 3, 5])
    def test_closed_vs_quadrature(self, T):
        gen = kotz(8, T=T) if T > 1 else gauss(8)
        for t in (0, 1, 3):
            for a, b in ((1.0, 0.0), (0.5, 2.0), (2.3, 0.7)):
                closed = radial_integral(gen, t, a, b, 7, 1)
                quad = radial_integral_quad(gen, t, a, b, 7, 1)
                scale = max(abs(closed.value), abs(quad.value))
                assert abs(closed.value - quad.value) <= 1e-7 * scale

    def test_gaussian_closed_form_value(self):
        # t=0, b=0, M = m+n: a^{-M/2} Gamma(M/2) / (2 pi^{M/2}), R-free
        gen = gauss(8, R=0.5)
        got = radial_integral(gen, 0, 2.0, 0.0, 7, 1).value
        expect = 2.0 ** -4.0 * math.gamma(4.0) / (2 * math.pi ** 4)
        assert got == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("M", [4, 10])
    @pytest.mark.parametrize("T", [1, 2, 3])
    def test_radial_law_normalizes(self, M, T):
        # int_0^inf r^{M-1} h(r^2) dr times the sphere surface equals 1
        gen = kotz(M, T=T, R=0.7) if T > 1 else gauss(M, R=0.7)
        surf = 2 * math.pi ** (M / 2.0) / math.gamma(M / 2.0)
        mass = radial_integral(gen, 0, 1.0, 0.0, M - 1, 1).value * surf
        assert mass == pytest.approx(1.0, rel=1e-12)

    def test_exact_cancellation_detected(self):
        # this instance cancels exactly to zero; doubles alone return noise
        gen = kotz(8, T=5)
        assert radial_integral(gen, 6, 1.0, 0.0, 7, 1).sign == 0.0

    def test_domain_errors(self):
        gen = gauss(4)
        with pytest.raises(DomainError):
            radial_integral(gen, 0, -1.0, 0.0, 3, 1)
        with pytest.raises(DomainError):
            radial_integral(gen, 0, 1.0, -0.5, 3, 1)
        with pytest.raises(DomainError):
            radial_integral(gen, -1, 1.0, 0.0, 3, 1)


def _radial_log_factor(gen, b, t):
    """log of e^(log_norm_const - R b) R^(t - M/2) Gamma(M/2 + t) / 2."""
    M, R = gen.M, gen.R
    return (gen.log_norm_const - R * b + (t - M / 2.0) * math.log(R)
            + math.lgamma(M / 2.0 + t) - math.log(2.0))


class TestCoefficientPolynomial:
    @pytest.mark.parametrize("T", [1, 2, 3, 4])
    def test_radial_matches_the_per_degree_sum(self, T):
        # within 1e-11 of the sum of |terms|, the per-degree sum's own error
        for M, R in ((3, 0.5), (8, 0.7), (15, 0.5)):
            gen = kotz(M, T=T, R=R) if T > 1 else gauss(M, R=R)
            for b in (0.0, 0.3, 3.0, 36.0):
                delta, _ = coefficient_polynomial(gen, b)
                basis = binomial_basis(60, T)
                for t in range(0, 61, 6):
                    scale = math.exp(_radial_log_factor(gen, b, t))
                    got = scale * float(basis[t] @ delta)
                    ref = radial_integral(gen, t, 1.0, b, M - 1, 1).value
                    assert abs(got - ref) <= 1e-11 * scale * float(basis[t] @ np.abs(delta))

    @pytest.mark.parametrize("T", [1, 2, 3, 5])
    def test_derivative_form_matches_h_derivative(self, T):
        # h^(2t)(y) = e^(log_norm_const - R y) R^(2t) P(t)
        gen = kotz(6, T=T, R=0.7) if T > 1 else gauss(6, R=0.7)
        basis = binomial_basis(29, T)
        for y in (0.0, 0.4, 3.0, 20.0):
            delta, _ = coefficient_polynomial(gen, y, radial=False)
            for t in range(30):
                scale = math.exp(gen.log_norm_const - gen.R * y + 2 * t * math.log(gen.R))
                ref = h_derivative(gen, 2 * t, y)
                assert abs(scale * float(basis[t] @ delta) - ref) <= (
                    1e-13 * scale * float(basis[t] @ np.abs(delta)))

    @pytest.mark.parametrize("T", [2, 3])
    def test_isotropic_brackets_are_the_radial_polynomial(self, T):
        # at R = 1/2 and b = 2x, P(t) = 2^(T-1) p_t(x), and dP/db = 2^(T-2) dp_t/dx
        M, ts = 9, np.arange(61.0)
        gen = kotz(M, T=T)
        for x in (0.0, 0.7, 5.0, 30.0):
            delta, slope = coefficient_polynomial(gen, 2.0 * x)
            basis = binomial_basis(60, T)
            # the brackets of isotropic_shape_logdensity
            p_t = M / 2.0 + x - ts if T == 2 else (M / 2.0 + x - ts) ** 2 + M / 2.0 - ts
            dp_t = np.ones_like(ts) if T == 2 else 2.0 * (M / 2.0 + x - ts)
            magnitude = basis @ np.abs(delta)
            assert np.all(np.abs(basis @ delta - 2.0 ** (T - 1) * p_t) <= 1e-14 * magnitude)
            assert np.allclose(basis @ slope, 2.0 ** (T - 2) * dp_t, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("T", [2, 4, 6])
    def test_slope_is_the_b_derivative(self, T):
        gen = kotz(10, T=T, R=0.6)
        for b in (0.5, 4.0, 40.0):
            _, slope = coefficient_polynomial(gen, b)
            h = 1e-4 * b
            upper, lower = (coefficient_polynomial(gen, b + s)[0] for s in (h, -h))
            assert np.allclose(slope, (upper - lower) / (2 * h), rtol=1e-7,
                               atol=1e-9 * np.abs(upper).max())

    def test_gaussian_and_domain(self):
        delta, slope = coefficient_polynomial(gauss(5), 3.0)
        assert delta.tolist() == [1.0] and slope.tolist() == [0.0]
        with pytest.raises(DomainError):
            coefficient_polynomial(kotz(5, T=2), -0.1)


class TestModelSpec:
    def setup_method(self):
        self.Sigma = np.array([[1.0, 0.2, 0.0], [0.2, 0.8, 0.1], [0.0, 0.1, 1.1]])
        self.Theta = np.array([[1.0, 0.3], [0.3, 2.0]])
        self.mu = np.array([[0.5, -0.2], [0.1, 0.4], [0.0, 0.3]])

    def test_omega_definition(self):
        model = gaussian_model(self.Sigma, self.Theta, self.mu)
        mw = self.mu @ np.linalg.inv(_sqrtm(self.Theta))
        expect = np.linalg.inv(self.Sigma) @ mw @ mw.T
        assert np.allclose(model.omega, expect, atol=1e-12)
        assert model.trace_omega == pytest.approx(float(np.trace(expect)), rel=1e-12)

    def test_inputs_frozen(self):
        model = gaussian_model(self.Sigma, self.Theta, self.mu)
        with pytest.raises(ValueError):
            model.mu[0, 0] = 99.0

    def test_dimension_checks(self):
        with pytest.raises(DomainError):
            gaussian_model(self.Sigma, self.Theta, self.mu[:2])
        with pytest.raises(DomainError):
            # N-1 < K
            gaussian_model(np.eye(1), np.eye(2), np.zeros((1, 2)))
        with pytest.raises(DomainError):
            gaussian_model(np.array([[1.0, 0.9], [0.9, 0.5]]) * -1,
                           self.Theta, self.mu[:2])

    def test_kotz_model_generator(self):
        model = kotz_model(self.Sigma, self.Theta, self.mu, T=3, R=0.4)
        assert model.generator == kotz(6, T=3, R=0.4)
        assert model.M == 6


def _sqrtm(A):
    evals, evecs = np.linalg.eigh(A)
    return (evecs * np.sqrt(evals)) @ evecs.T
