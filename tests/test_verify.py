import math

import numpy as np
import pytest
from scipy import integrate, stats

from svdshape.errors import DomainError
from svdshape.geometry import preprocess, preshape_angles
from svdshape.models import gaussian_model, kotz_model
from svdshape.verify import (_box_draws, _chi2_critical_99, mc_normalization,
                             sample_landmarks, simulation_vs_density, sine_power_integrals)
from svdshape.zonal import SeriesControl


@pytest.fixture(scope="module")
def anis():
    Sigma = np.array([[1.0, 0.3], [0.3, 0.7]])
    Theta = np.array([[1.0, 0.1], [0.1, 0.8]])
    mu = np.array([[0.8, -0.4], [0.2, 0.5]])
    return Sigma, Theta, mu


class TestSampleLandmarks:
    def test_centered_mean(self):
        model = gaussian_model(np.eye(2), np.eye(2), np.zeros((2, 2)))
        lms = sample_landmarks(model, 20000, seed=1)
        Ys = np.array([preprocess(lm) for lm in lms])
        assert np.abs(Ys.mean(axis=0)).max() < 4.0 / math.sqrt(len(lms))

    def test_gaussian_second_moment(self):
        sigma2 = 2.5
        model = gaussian_model(sigma2 * np.eye(2), np.eye(2), np.zeros((2, 2)))
        lms = sample_landmarks(model, 20000, seed=2)
        Ys = np.array([preprocess(lm) for lm in lms])
        # ||Y||^2 / sigma2 is chi-square with M = 4 degrees of freedom
        stat = (Ys ** 2).sum(axis=(1, 2)) / sigma2
        assert stat.mean() == pytest.approx(4.0, abs=5 * math.sqrt(8.0 / len(lms)))

    def test_kotz_radial_law(self):
        T, R = 2, 0.5
        model = kotz_model(np.eye(2), np.eye(2), np.zeros((2, 2)), T=T, R=R)
        lms = sample_landmarks(model, 5000, seed=3)
        r2 = np.array([(preprocess(lm) ** 2).sum() for lm in lms])
        # radial law: r^2 ~ Gamma(M/2 + T - 1, rate R)
        ks = stats.kstest(r2, stats.gamma(a=2 + T - 1, scale=1.0 / R).cdf)
        assert ks.pvalue > 0.01

    def test_whitening_consistency(self, anis):
        Sigma, Theta, mu = anis
        model = gaussian_model(Sigma, Theta, mu)
        lms = sample_landmarks(model, 30000, seed=4)
        Ys = np.array([preprocess(lm) for lm in lms])   # raw, unwhitened
        assert np.allclose(Ys.mean(axis=0), mu, atol=0.05)
        # columns of (Y - mu) have covariance Sigma * Theta_jj (R = 1/2)
        resid = Ys - mu
        cov0 = np.einsum("sa,sb->ab", resid[:, :, 0], resid[:, :, 0]) / len(lms)
        assert np.allclose(cov0, Sigma * Theta[0, 0], atol=0.05)

    def test_deterministic_and_errors(self, anis):
        Sigma, Theta, mu = anis
        model = gaussian_model(Sigma, Theta, mu)
        a = sample_landmarks(model, 50, seed=9)
        b = sample_landmarks(model, 50, seed=9)
        assert all(np.array_equal(x.coords, y.coords) for x, y in zip(a, b))
        with pytest.raises(DomainError):
            sample_landmarks(model, 0, seed=1)


class TestMcNormalization:
    def test_central_mass(self):
        model = gaussian_model(np.eye(2), np.eye(2), np.zeros((2, 2)))
        mass, se = mc_normalization(model, mc_samples=20000, seed=5)
        assert abs(mass - 1.0) < max(3 * se, 1e-10)

    def test_noncentral_mass(self, anis):
        Sigma, Theta, mu = anis
        model = gaussian_model(Sigma, Theta, mu)
        mass, se = mc_normalization(model, mc_samples=40000, seed=6)
        assert abs(mass - 1.0) < 3 * se

    def test_kotz_mass(self, anis):
        Sigma, Theta, mu = anis
        model = kotz_model(Sigma, Theta, mu, T=2)
        mass, se = mc_normalization(model, mc_samples=40000, seed=6)
        assert abs(mass - 1.0) < 3 * se

    def test_plain_box_average(self, anis):
        # the one-bin mass is the box volume times the mean over every draw
        model = gaussian_model(*anis)
        vals = np.concatenate([w for _, w in _box_draws(model, None, 30000, 9)])
        vol = math.pi ** (model.M - 2) * 2.0 * math.pi
        mass, se = mc_normalization(model, mc_samples=30000, seed=9)
        assert mass == pytest.approx(vol * vals.mean(), rel=1e-13)
        assert se == pytest.approx(vol * vals.std() / math.sqrt(vals.size), rel=1e-10)

    def test_deterministic(self, anis):
        Sigma, Theta, mu = anis
        model = gaussian_model(Sigma, Theta, mu)
        assert (mc_normalization(model, mc_samples=2000, seed=8)
                == mc_normalization(model, mc_samples=2000, seed=8))


class TestSinePowerIntegrals:
    @pytest.mark.parametrize("p", range(13))
    def test_against_quadrature(self, p):
        # the bins of simulation_vs_density, and an uneven partition of [0, pi]
        grids = [np.linspace(0.0, math.pi, bins + 1) for bins in (10, 22, 47)]
        grids.append(np.concatenate([[0.0], np.sort(np.random.default_rng(p).uniform(
            0.0, math.pi, 30)), [math.pi]]))
        for edges in grids:
            got = sine_power_integrals(p, edges)
            want = np.array([integrate.quad(lambda x: math.sin(x) ** p, lo, hi,
                                            epsabs=0.0, epsrel=1e-13)[0]
                             for lo, hi in zip(edges[:-1], edges[1:])])
            total = want.sum()
            # every interval to a few ulps of the total; relative 1e-12 on
            # each one holding at least 1e-4 of it, which covers every bin a
            # chi-square at sim_count <= 50,000 scores (expected count > 5)
            assert np.max(np.abs(got - want)) <= 1e-15 * total
            big = want >= 1e-4 * total
            assert np.all(np.abs(got - want)[big] <= 1e-12 * want[big])

    def test_closed_forms(self):
        edges = np.array([0.0, 0.5, math.pi])
        assert np.array_equal(sine_power_integrals(0, edges), np.diff(edges))
        assert sine_power_integrals(2, np.array([0.0, math.pi]))[0] == pytest.approx(
            math.pi / 2.0, rel=1e-15)
        with pytest.raises(DomainError):
            sine_power_integrals(-1, edges)


class TestSimulationVsDensity:
    def test_central_gaussian(self):
        model = gaussian_model(np.eye(2), np.eye(2), np.zeros((2, 2)))
        rep = simulation_vs_density(model, sim_count=30000, seed=10)
        assert rep.passed
        assert len(rep.marginals) == 3
        for mr in rep.marginals:
            assert mr.chi2 < mr.critical_99

    def test_noncentral_gaussian(self):
        mu = np.array([[0.8, -0.3], [0.4, 0.6]])
        model = gaussian_model(0.9 * np.eye(2), np.eye(2), mu)
        rep = simulation_vs_density(model, sim_count=20000, seed=11,
                                    density_samples=300000)
        assert rep.passed

    def test_kotz_central_matches_generator_free_target(self):
        model = kotz_model(np.eye(2), np.eye(2), np.zeros((2, 2)), T=2)
        rep = simulation_vs_density(model, sim_count=20000, seed=12)
        assert rep.passed

    def test_validation(self):
        model = gaussian_model(np.eye(2), np.eye(2), np.zeros((2, 2)))
        with pytest.raises(DomainError):
            simulation_vs_density(model, sim_count=10, seed=0)

    def test_observed_counts_match_per_specimen_angles(self, anis):
        # whitening, Haar rotation and chart rebuilt one specimen at a time
        Sigma, Theta, mu = anis
        model = gaussian_model(Sigma, Theta, mu)
        rep = simulation_vs_density(model, sim_count=1000, seed=13,
                                    density_samples=2000)
        rng = np.random.Generator(np.random.Philox(13 + 1))
        angles = []
        for lm in sample_landmarks(model, 1000, seed=13):
            q, r = np.linalg.qr(rng.standard_normal((2, 2)))
            H = q * np.sign(np.diag(r))[None, :]
            angles.append(preshape_angles(preprocess(lm, Theta) @ H))
        angles = np.array(angles)
        for mr in rep.marginals:
            hi = 2.0 * math.pi if mr.angle_index == 2 else math.pi
            expected, _ = np.histogram(angles[:, mr.angle_index],
                                       bins=np.linspace(0.0, hi, rep.bins + 1))
            assert np.array_equal(mr.observed, expected)

    def test_critical_values_match_scipy(self):
        dof = np.arange(1, 201)
        want = stats.chi2.ppf(0.99, dof)
        got = np.array([_chi2_critical_99(int(d)) for d in dof])
        assert np.all(np.abs(got - want) <= 1e-12 * want)
