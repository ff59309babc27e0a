import math

import numpy as np
import pytest

from svdshape import inference
from svdshape.densities import shape_logdensities
from svdshape.errors import DomainError, NumericError, SeriesTruncationError
from svdshape.geometry import LandmarkSet, Mode, preprocess, svd_shape
from svdshape.inference import (_GTOL, EvidenceGrade, OptimizerConfig, SampleOfShapes,
                                ShapeLikelihood, _minimize_bfgs, bic_star,
                                evidence_grade, fit_location, log_likelihood,
                                lr_test_equal_means)
from svdshape.models import IsotropicKind, ModelSpec, kotz_model
from svdshape.oracle import _isotropic_bracket, isotropic_shape_logdensity
from svdshape.verify import _sample_centred
from svdshape.zonal import SeriesControl

CTRL = SeriesControl(max_degree=60)
SIGMA2 = 50.0


def likelihood(sample, kind, sigma2, ctrl=None):
    return ShapeLikelihood(sample, kind.generator(sample.Nm1 * sample.K), sigma2, ctrl)


def make_sample(gid, mu, sigma2, count, seed):
    rng = np.random.default_rng(seed)
    items = []
    for i in range(count):
        Y = mu + math.sqrt(sigma2) * rng.normal(size=mu.shape)
        items.append((f"{gid}-{i:03d}", svd_shape(Y)))
    return SampleOfShapes(gid, tuple(items))


@pytest.fixture(scope="module")
def mu_star():
    rng = np.random.default_rng(42)
    return rng.normal(size=(5, 2)) * 8.0   # N=6, K=2; moderate noncentrality


@pytest.fixture(scope="module")
def sample(mu_star):
    return make_sample("g", mu_star, SIGMA2, 23, seed=1)


class TestSampleOfShapes:
    def test_empty_raises(self):
        with pytest.raises(DomainError):
            SampleOfShapes("empty", ())

    def test_heterogeneous_raises(self, sample):
        rng = np.random.default_rng(2)
        other = svd_shape(rng.normal(size=(3, 2)))
        with pytest.raises(DomainError):
            SampleOfShapes("bad", sample.items + (("odd", other),))

    def test_properties(self, sample):
        assert sample.size == 23
        assert (sample.Nm1, sample.K) == (5, 2)


class TestNoReflectionChart:
    """The densities and the likelihood are the reflection shape's and depend
    on a frame only through W W', so the coordinates of svd_shape(Y,
    Mode.NO_REFLECTION), whose last singular value may be negative, give the
    reflection values."""

    @pytest.mark.parametrize("K", [2, 3])
    def test_same_values_as_the_reflection_chart(self, K):
        mu = np.random.default_rng(60 + K).normal(size=(4, K)) * 1.5
        rng = np.random.default_rng(70 + K)
        Ys = [mu + 2.0 * rng.normal(size=mu.shape) for _ in range(8)]
        refl, norefl = (SampleOfShapes(mode.value, tuple((f"s{i}", svd_shape(Y, mode))
                                                         for i, Y in enumerate(Ys)))
                        for mode in Mode)
        flipped = [sc.D[-1] < 0 for _, sc in norefl.items]
        assert any(flipped) and not all(flipped)
        model = kotz_model(4.0 * np.eye(4), np.eye(K), mu, T=2)
        want, got = (shape_logdensities(np.array([sc.u for _, sc in s.items]), model)[0]
                     for s in (refl, norefl))
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
        want, got = (likelihood(s, IsotropicKind.KOTZ_T2, 4.0).loglik(mu)
                     for s in (refl, norefl))
        assert abs(got - want) <= 1e-12 * abs(want)
        # a sample may hold coordinates of either chart
        assert SampleOfShapes("mixed", refl.items[:4] + norefl.items[4:]).size == 8


class TestLogLikelihood:
    def test_single_specimen_equals_density(self, sample, mu_star):
        one = SampleOfShapes("one", sample.items[:1])
        ll = log_likelihood(one, mu_star, SIGMA2, IsotropicKind.GAUSSIAN, CTRL)
        direct = isotropic_shape_logdensity(
            sample.items[0][1].u, mu_star, SIGMA2, IsotropicKind.GAUSSIAN,
            ctrl=CTRL).log_density
        assert ll == pytest.approx(direct, abs=1e-10)

    def test_duplicated_sample_doubles(self, sample, mu_star):
        ll1 = log_likelihood(sample, mu_star, SIGMA2, IsotropicKind.KOTZ_T2, CTRL)
        doubled = SampleOfShapes("double", sample.items + sample.items)
        ll2 = log_likelihood(doubled, mu_star, SIGMA2, IsotropicKind.KOTZ_T2, CTRL)
        assert ll2 == pytest.approx(2 * ll1, rel=1e-12)

    def test_central_point_model_free(self, sample):
        mu0 = np.zeros((5, 2))
        vals = [log_likelihood(sample, mu0, SIGMA2, kind, CTRL)
                for kind in IsotropicKind]
        assert max(vals) - min(vals) < 1e-10

    def test_permutation_invariance(self, sample, mu_star):
        items = sample.items[::-1]
        flipped = SampleOfShapes("r", items)
        a = log_likelihood(sample, mu_star, SIGMA2, IsotropicKind.GAUSSIAN, CTRL)
        b = log_likelihood(flipped, mu_star, SIGMA2, IsotropicKind.GAUSSIAN, CTRL)
        assert a == pytest.approx(b, rel=1e-13)

    def test_fast_kernel_matches_scalar_path(self, sample, mu_star):
        for kind in IsotropicKind:
            fast = likelihood(sample, kind, SIGMA2, CTRL).loglik(mu_star)
            slow = sum(isotropic_shape_logdensity(
                sc.u, mu_star, SIGMA2, kind, ctrl=CTRL).log_density
                for _, sc in sample.items)
            assert fast == pytest.approx(slow, abs=1e-9)

    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("kind", list(IsotropicKind))
    def test_equals_the_summed_shape_densities(self, K, kind):
        mu = np.random.default_rng(30 + K).normal(size=(4, K)) * 1.5
        sample = make_sample(f"k{K}", mu, 4.0, 8, seed=K)
        model = ModelSpec(kind.generator(4 * K), 4.0 * np.eye(4), np.eye(K), mu)
        densities = shape_logdensities(np.array([sc.u for _, sc in sample.items]), model)[0]
        value = likelihood(sample, kind, 4.0).loglik(mu)
        assert abs(value - math.fsum(densities)) <= 1e-12 * abs(value)

    @pytest.mark.parametrize("sigma2", [0.0, -1.0, math.nan, math.inf])
    def test_sigma2_must_be_positive_and_finite(self, sample, sigma2):
        with pytest.raises(DomainError, match="sigma2"):
            likelihood(sample, IsotropicKind.GAUSSIAN, sigma2)

    def test_raises_past_the_degree_cap_with_the_row(self):
        # K = 3: each specimen's series stops at its own degree; at degree 5
        # it has converged near the origin but not at mu, and the error
        # names a specimen
        mu = np.random.default_rng(13).normal(size=(4, 3)) * 1.5
        sample = make_sample("k3", mu, 4.0, 8, seed=3)
        short = likelihood(sample, IsotropicKind.KOTZ_T3, 4.0, SeriesControl(max_degree=5))
        assert math.isfinite(short.loglik(0.001 * mu))
        with pytest.raises(SeriesTruncationError) as err:
            short.loglik_and_grad(mu)
        assert 0 <= err.value.row < sample.size
        assert math.isfinite(likelihood(sample, IsotropicKind.KOTZ_T3, 4.0).loglik(mu))


def central_gradient(f, mu, h=1e-5):
    out = np.zeros_like(mu)
    for idx in np.ndindex(mu.shape):
        step = np.zeros_like(mu)
        step[idx] = h
        out[idx] = (f(mu + step) - f(mu - step)) / (2 * h)
    return out


@pytest.fixture(scope="module", params=[2, 3], ids=["K2", "K3"])
def small(request):
    """A likelihood per kind and a location, with N-1 = 4 and K = 2 or 3."""
    K = request.param
    mu = np.random.default_rng(10 + K).normal(size=(4, K)) * 1.5
    sample = make_sample(f"k{K}", mu, 4.0, 8, seed=K)
    return {kind: likelihood(sample, kind, 4.0) for kind in IsotropicKind}, mu


class TestGradient:
    @pytest.mark.parametrize("kind", list(IsotropicKind))
    def test_matches_central_differences(self, small, kind):
        liks, mu = small
        lik = liks[kind]
        value, grad = lik.loglik_and_grad(0.9 * mu)
        assert value == lik.loglik(0.9 * mu)
        fd = central_gradient(lik.loglik, 0.9 * mu)
        assert np.max(np.abs(grad - fd)) <= 1e-7 * np.max(np.abs(grad))

    @pytest.mark.parametrize("kind", list(IsotropicKind))
    def test_rank_one_location_with_a_zero_eigenvalue(self, small, kind):
        liks, mu = small
        lik = liks[kind]
        rank_one = np.zeros_like(mu)
        rank_one[:, 0] = mu[:, 0]
        G = lik._W.transpose(0, 2, 1) @ rank_one
        assert np.all(np.linalg.eigh(G.transpose(0, 2, 1) @ G)[0][:, 0] == 0.0)
        # the zero eigenvalue's partial meets G v = 0 in the chain rule, so
        # it only has to be finite there (0/0 would poison the gradient)
        value, grad = lik.loglik_and_grad(rank_one)
        assert value == lik.loglik(rank_one)
        assert np.all(np.isfinite(grad))
        fd = central_gradient(lik.loglik, rank_one)
        assert np.max(np.abs(grad - fd)) <= 1e-7 * np.max(np.abs(grad))

    def test_kotz_t3_bracket_changing_sign(self, sample, mu_star):
        lik = likelihood(sample, IsotropicKind.KOTZ_T3, SIGMA2, CTRL)
        x = float(np.sum(mu_star ** 2)) / (2 * SIGMA2)
        _, _, sign_b = _isotropic_bracket(IsotropicKind.KOTZ_T3, lik.generator.M, x, 60)
        assert np.any(sign_b < 0) and sign_b[0] > 0
        value, grad = lik.loglik_and_grad(mu_star)
        assert value == lik.loglik(mu_star)
        fd = central_gradient(lik.loglik, mu_star)
        assert np.max(np.abs(grad - fd)) <= 1e-7 * np.max(np.abs(grad))

    @pytest.mark.parametrize("kind", list(IsotropicKind))
    def test_scale_invariance_of_the_likelihood(self, sample, mu_star, kind):
        # (mu, sigma2) enter only through mu / sigma, so sigma2 is not identified
        base = log_likelihood(sample, mu_star, SIGMA2, kind, CTRL)
        for c in (0.5, 1.7, 3.0):
            scaled = log_likelihood(sample, c * mu_star, c * c * SIGMA2, kind, CTRL)
            assert scaled == pytest.approx(base, rel=1e-12, abs=1e-12)


class TestLogJacobian:
    def test_large_n_near_collinear_sample_builds(self):
        # J underflows to 0 for these specimens while log J stays finite
        rng = np.random.default_rng(0)
        N = 160
        x = np.linspace(0.0, 1.0, N)
        items = []
        for i in range(3):
            X = (np.column_stack([x, 0.002 * rng.standard_normal(N)])
                 + 0.001 * rng.standard_normal((N, 2)))
            items.append((f"s{i}", svd_shape(preprocess(LandmarkSet(f"s{i}", X)))))
        sample = SampleOfShapes("collinear", tuple(items))
        logj = [sc.log_jacobian for _, sc in sample.items]
        assert all(sc.jacobian == 0.0 for _, sc in sample.items)
        assert all(math.isfinite(lj) and lj < -700 for lj in logj)
        # at mu = 0 each density is J(u) Gamma(M/2) / (2 pi^(M/2)) at sigma2 = 1
        M = 2 * (N - 1)
        value = likelihood(sample, IsotropicKind.GAUSSIAN, 1.0, CTRL).loglik(np.zeros((N - 1, 2)))
        assert value == pytest.approx(sum(logj) + 3 * (math.lgamma(M / 2.0) - math.log(2.0)
                                                       - M / 2.0 * math.log(math.pi)), rel=1e-12)


class TestBicStar:
    def test_examples(self):
        assert bic_star(0.0, 0, 5) == 0.0
        assert bic_star(0.0, 1, 22) == pytest.approx(0.0, abs=1e-15)
        assert bic_star(-10.0, 10, 23) == pytest.approx(
            20.0 + 10.0 * (math.log(25) - math.log(24)), rel=1e-14)

    def test_errors(self):
        with pytest.raises(DomainError):
            bic_star(0.0, 1, 0)
        with pytest.raises(DomainError):
            bic_star(0.0, -1, 5)


class TestEvidenceGrade:
    def test_bands_and_boundaries(self):
        assert evidence_grade(1.0) is EvidenceGrade.WEAK
        assert evidence_grade(2.0) is EvidenceGrade.WEAK
        assert evidence_grade(4.0) is EvidenceGrade.POSITIVE
        assert evidence_grade(6.0) is EvidenceGrade.POSITIVE
        assert evidence_grade(7.0) is EvidenceGrade.STRONG
        assert evidence_grade(10.0) is EvidenceGrade.STRONG
        assert evidence_grade(33.7) is EvidenceGrade.VERY_STRONG

    def test_monotone(self):
        order = [EvidenceGrade.WEAK, EvidenceGrade.POSITIVE,
                 EvidenceGrade.STRONG, EvidenceGrade.VERY_STRONG]
        grades = [order.index(evidence_grade(d)) for d in np.linspace(0, 15, 40)]
        assert grades == sorted(grades)

    def test_negative_raises(self):
        with pytest.raises(DomainError):
            evidence_grade(-0.1)


class TestFitLocation:
    def test_recovers_synthetic_location(self, mu_star):
        big = make_sample("big", mu_star, SIGMA2, 200, seed=3)
        opt = OptimizerConfig(n_starts=2, seed=0)
        fit = fit_location(big, IsotropicKind.GAUSSIAN.generator(10), SIGMA2, opt, CTRL)
        assert fit.loglik >= log_likelihood(big, mu_star, SIGMA2, IsotropicKind.GAUSSIAN,
                                            CTRL) - 1e-6
        # mu is identified up to a right O(2) factor, so mu'mu is determined
        # only up to conjugation; its eigenvalues are the invariants
        ev_star = np.linalg.eigvalsh(mu_star.T @ mu_star)
        ev_hat = np.linalg.eigvalsh(fit.mu_hat.T @ fit.mu_hat)
        assert np.all(np.abs(ev_hat - ev_star) / ev_star < 0.15)
        assert fit.n_params == 10
        assert fit.bic_star == pytest.approx(
            bic_star(fit.loglik, 10, 200), abs=1e-12)

    def test_deterministic(self, sample):
        opt = OptimizerConfig(n_starts=2, seed=7)
        a = fit_location(sample, IsotropicKind.GAUSSIAN.generator(10), SIGMA2, opt, CTRL)
        b = fit_location(sample, IsotropicKind.GAUSSIAN.generator(10), SIGMA2, opt, CTRL)
        assert np.array_equal(a.mu_hat, b.mu_hat)
        assert a.loglik == b.loglik and a.evaluations == b.evaluations

    def test_canonical_sign(self, sample):
        opt = OptimizerConfig(n_starts=1, seed=0)
        fit = fit_location(sample, IsotropicKind.GAUSSIAN.generator(10), SIGMA2, opt, CTRL)
        flat = fit.mu_hat.reshape(-1)
        assert flat[np.nonzero(flat)[0][0]] > 0

    def test_stops_at_a_stationary_point(self, sample):
        opt = OptimizerConfig(n_starts=2, seed=0)
        fit = fit_location(sample, IsotropicKind.KOTZ_T3.generator(10), SIGMA2, opt, CTRL)
        like = likelihood(sample, IsotropicKind.KOTZ_T3, SIGMA2, CTRL)
        value, grad = like.loglik_and_grad(fit.mu_hat)
        assert fit.converged and value == fit.loglik
        assert np.max(np.abs(grad)) <= _GTOL
        assert fit.evaluations < 300


def _rosenbrock(x):
    r = x[1:] - x[:-1] ** 2
    grad = np.zeros_like(x)
    grad[:-1] = -400.0 * x[:-1] * r - 2.0 * (1.0 - x[:-1])
    grad[1:] += 200.0 * r
    return float(np.sum(100.0 * r * r + (1.0 - x[:-1]) ** 2)), grad


class TestBfgs:
    def test_convex_quadratic(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(10, 10))
        A = A @ A.T + np.eye(10)
        b = rng.normal(size=10)
        res = _minimize_bfgs(lambda x: (0.5 * x @ A @ x - b @ x, A @ x - b), np.zeros(10))
        assert res.converged
        assert np.max(np.abs(A @ res.x - b)) <= _GTOL
        assert res.x == pytest.approx(np.linalg.solve(A, b), abs=1e-5)

    @pytest.mark.parametrize("x0", [[-1.2, 1.0], [-1.0] * 6, [0.0] * 15])
    def test_rosenbrock(self, x0):
        res = _minimize_bfgs(_rosenbrock, np.array(x0))
        value, grad = _rosenbrock(res.x)
        assert res.converged and res.value == value
        assert np.max(np.abs(grad)) <= _GTOL
        assert np.max(np.abs(res.x - 1.0)) < 1e-5
        assert res.evaluations < 200

    def test_stops_at_the_evaluation_cap(self, monkeypatch):
        monkeypatch.setattr(inference, "_MAX_EVALUATIONS", 10)
        calls = []

        def counted(x):
            calls.append(x)
            return _rosenbrock(x)

        res = _minimize_bfgs(counted, np.array([-1.2, 1.0]))
        assert not res.converged
        assert res.evaluations == len(calls) == 10

    def test_numeric_error_at_a_trial_point_shortens_the_step(self):
        # the first trial step has length 1 and lands outside the radius 0.5
        # where the objective is defined; the minimum at c lies inside it
        c = np.array([0.3, 0.0])

        def bounded(x):
            if np.linalg.norm(x) > 0.5:
                raise NumericError("series summed to a non-positive value")
            return float((x - c) @ (x - c)), 2.0 * (x - c)

        res = _minimize_bfgs(bounded, np.zeros(2))
        assert res.converged
        assert res.x == pytest.approx(c, abs=1e-6)
        with pytest.raises(NumericError):       # not at the start point
            _minimize_bfgs(bounded, np.array([1.0, 0.0]))

    def test_series_truncation_error_at_a_trial_point_shortens_the_step(self):
        # as above, with a series that does not converge outside radius 0.5
        c = np.array([0.3, 0.0])

        def bounded(x):
            if np.linalg.norm(x) > 0.5:
                raise SeriesTruncationError("zonal series did not converge", row=0)
            return float((x - c) @ (x - c)), 2.0 * (x - c)

        res = _minimize_bfgs(bounded, np.zeros(2))
        assert res.converged
        assert res.x == pytest.approx(c, abs=1e-6)
        with pytest.raises(SeriesTruncationError):
            _minimize_bfgs(bounded, np.array([1.0, 0.0]))

    def test_a_collapsed_bracket_ends_the_line_search(self, mu_star):
        # 400 Kotz T=2 shapes fitted as Kotz T=3: a line search whose Wolfe
        # bracket collapses to one step ends there, instead of dividing by
        # the bracket's zero width
        model = kotz_model(SIGMA2 * np.eye(5), np.eye(2), mu_star, T=2)
        sample = SampleOfShapes("g", tuple(
            (f"s{i}", svd_shape(y)) for i, y in enumerate(_sample_centred(model, 400, 103))))
        fit = fit_location(sample, IsotropicKind.KOTZ_T3.generator(10), SIGMA2,
                           OptimizerConfig(seed=3))
        assert fit.converged
        assert fit.loglik == pytest.approx(-3029.849, abs=1e-3)

    def test_fit_reports_the_cap(self, sample, monkeypatch):
        monkeypatch.setattr(inference, "_MAX_EVALUATIONS", 3)
        fit = fit_location(sample, IsotropicKind.GAUSSIAN.generator(10), SIGMA2,
                           OptimizerConfig(n_starts=2, seed=0), CTRL)
        assert not fit.converged and fit.evaluations <= 6

    def test_a_converged_start_within_noise_beats_a_lower_one(self, mu_star, monkeypatch):
        # far from the origin (|mu|/sigma = 54) the log-likelihood's rounding
        # noise let the first start, stopped short of the gradient test, beat
        # three converged starts by under 1e-12
        mu = mu_star / np.linalg.norm(mu_star) * 54.0 * math.sqrt(SIGMA2)
        far = make_sample("far", mu, SIGMA2, 23, seed=7)
        runs = []

        def recorded(fun, x0):
            runs.append(minimize(fun, x0))
            return runs[-1]
        minimize = inference._minimize_bfgs
        monkeypatch.setattr(inference, "_minimize_bfgs", recorded)
        fit = fit_location(far, IsotropicKind.KOTZ_T3.generator(10), SIGMA2)
        lowest = min(run.value for run in runs)
        assert fit.converged
        assert -fit.loglik - lowest <= 1e-10 * abs(lowest)

    @pytest.mark.parametrize("runs, loglik, converged", [
        ([(-10.0, True), (-10.0 - 1e-12, False)], 10.0, True),     # within noise
        ([(-10.0, True), (-11.0, False)], 11.0, False),            # far below
    ])
    def test_best_start_prefers_converged_within_noise_only(self, sample, monkeypatch,
                                                            runs, loglik, converged):
        values = iter(runs)

        def fake(fun, x0):
            value, ok = next(values)
            return inference._Minimum(np.asarray(x0), value, ok, 1)
        monkeypatch.setattr(inference, "_minimize_bfgs", fake)
        fit = fit_location(sample, IsotropicKind.GAUSSIAN.generator(10), SIGMA2,
                           OptimizerConfig(n_starts=2))
        assert fit.loglik == loglik and fit.converged is converged

    def test_a_start_that_fails_is_skipped(self, sample, monkeypatch):
        # the second start's first evaluation raises; the others run
        calls = []

        def fake(fun, x0):
            calls.append(x0)
            if len(calls) == 2:
                raise SeriesTruncationError("zonal series did not converge", row=4)
            return inference._Minimum(np.asarray(x0), -10.0 - len(calls), True, 5)
        monkeypatch.setattr(inference, "_minimize_bfgs", fake)
        fit = fit_location(sample, IsotropicKind.GAUSSIAN.generator(10), SIGMA2,
                           OptimizerConfig(n_starts=3))
        assert len(calls) == 3
        assert fit.loglik == 13.0 and fit.converged
        assert fit.evaluations == 5 + 1 + 5     # the failed start counts its one

    @pytest.mark.parametrize("error", [NumericError, SeriesTruncationError])
    def test_the_first_error_when_every_start_fails(self, sample, monkeypatch, error):
        rows = iter(range(3, 10))

        def fake(fun, x0):
            raise error("series failed at the start point", row=next(rows))
        monkeypatch.setattr(inference, "_minimize_bfgs", fake)
        with pytest.raises(error) as err:
            fit_location(sample, IsotropicKind.GAUSSIAN.generator(10), SIGMA2,
                         OptimizerConfig(n_starts=3))
        assert err.value.row == 3

    def test_no_seed_aborts_a_k3_fit(self, monkeypatch):
        # the K = 3 sample of test_zonal's spatial-route test: some start
        # points lie where a specimen's series does not converge. Each start
        # evaluates its start point only, where such a failure would abort
        # the fit (a line search already treats one as too long a step)
        monkeypatch.setattr(inference, "_MAX_EVALUATIONS", 1)
        rng = np.random.default_rng(13)
        mu = rng.normal(size=(3, 3))
        rng.normal(size=(4, 3, 3))              # that test's four angle vectors
        k3 = SampleOfShapes("g", tuple(
            (f"s{i}", svd_shape(mu + rng.normal(size=(3, 3)))) for i in range(6)))
        failed = []
        minimize = inference._minimize_bfgs

        def recorded(fun, x0):
            try:
                return minimize(fun, x0)
            except (NumericError, SeriesTruncationError):
                failed.append(x0)
                raise
        monkeypatch.setattr(inference, "_minimize_bfgs", recorded)
        for seed in range(30):
            fit = fit_location(k3, IsotropicKind.GAUSSIAN.generator(9), 1.0,
                               OptimizerConfig(seed=seed))
            assert math.isfinite(fit.loglik) and fit.evaluations == 4
        assert failed                           # the sweep meets failing starts


class TestLrTest:
    def test_identical_groups(self, sample):
        opt = OptimizerConfig(n_starts=2, seed=0)
        res = lr_test_equal_means(sample, sample, IsotropicKind.GAUSSIAN.generator(10),
                                  SIGMA2, opt, CTRL)
        assert res.statistic == pytest.approx(0.0, abs=1e-4)
        assert res.p_value == pytest.approx(1.0, abs=1e-4)
        assert res.df == 10

    def test_nesting_and_detection(self, mu_star):
        g1 = make_sample("g1", mu_star, SIGMA2, 23, seed=21)
        g2 = make_sample("g2", mu_star + 12.0, SIGMA2, 23, seed=22)
        opt = OptimizerConfig(n_starts=2, seed=0)
        res = lr_test_equal_means(g1, g2, IsotropicKind.GAUSSIAN.generator(10), SIGMA2,
                                  opt, CTRL)
        assert res.statistic >= 0.0
        assert res.p_value < 0.01   # groups differ strongly

    def test_an_error_row_numbers_the_pooled_sample(self, sample, monkeypatch):
        # the pooled fit runs first, then group 1 and group 2; a row of
        # group 2 is offset by group 1's size
        calls = []

        def failing(s, *args):
            calls.append(s)
            if len(calls) == 3:
                raise SeriesTruncationError("zonal series did not converge", row=1)
            return fit_location(s, *args)

        monkeypatch.setattr(inference, "fit_location", failing)
        g1 = SampleOfShapes("g1", sample.items[:5])
        with pytest.raises(SeriesTruncationError) as err:
            lr_test_equal_means(g1, sample, IsotropicKind.GAUSSIAN.generator(10), SIGMA2,
                                OptimizerConfig(n_starts=1), CTRL)
        assert calls[2] is sample and err.value.row == 6

    def test_dimension_mismatch(self, sample):
        rng = np.random.default_rng(5)
        other = SampleOfShapes(
            "o", tuple((f"o-{i}", svd_shape(rng.normal(size=(3, 2))))
                       for i in range(4)))
        with pytest.raises(DomainError):
            lr_test_equal_means(sample, other, IsotropicKind.GAUSSIAN.generator(10),
                                SIGMA2, None, CTRL)
