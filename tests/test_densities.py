import math

import numpy as np
import pytest

from svdshape.densities import (batch_shape_logdensity, shape_logdensities, shape_logdensity,
                                size_and_shape_logdensity)
from svdshape.errors import DomainError, NumericError, SeriesTruncationError
from svdshape.geometry import (LandmarkSet, Mode, log_polar_jacobian,
                               preprocess, preshape_angles, svd_shape)
from svdshape.models import IsotropicKind, gaussian_model, kotz_model
from svdshape.oracle import (gaussian_shape_logdensity, isotropic_shape_logdensity,
                             series_shape_logdensities)
from svdshape.zonal import SeriesControl

CTRL = SeriesControl(max_degree=80)


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(10)
    Sigma = np.array([[1.0, 0.3, 0.0], [0.3, 0.7, 0.1], [0.0, 0.1, 1.2]])
    Theta = np.array([[1.0, 0.15], [0.15, 0.9]])
    mu = rng.normal(size=(3, 2)) * 0.7
    Y = rng.normal(size=(3, 2))
    sc = svd_shape(Y)
    return Sigma, Theta, mu, Y, sc


class TestCrossRouteIdentities:
    def test_generic_equals_gaussian_closed_form(self, setup):
        Sigma, Theta, mu, Y, sc = setup
        model = gaussian_model(Sigma, Theta, mu)
        a = shape_logdensity(sc.u, model, ctrl=CTRL).log_density
        b = gaussian_shape_logdensity(sc.u, model, ctrl=CTRL).log_density
        assert a == pytest.approx(b, abs=1e-10)

    def test_gaussian_closed_form_equals_isotropic(self, setup):
        _, _, mu, Y, sc = setup
        sigma2 = 0.8
        model = gaussian_model(sigma2 * np.eye(3), np.eye(2), mu)
        a = gaussian_shape_logdensity(sc.u, model, ctrl=CTRL).log_density
        b = isotropic_shape_logdensity(sc.u, mu, sigma2,
                                       IsotropicKind.GAUSSIAN, ctrl=CTRL).log_density
        assert a == pytest.approx(b, abs=1e-10)

    @pytest.mark.parametrize("T,kind", [(2, IsotropicKind.KOTZ_T2),
                                        (3, IsotropicKind.KOTZ_T3)])
    def test_kotz_bracket_equals_generic(self, setup, T, kind):
        _, _, mu, Y, sc = setup
        sigma2 = 0.8
        model = kotz_model(sigma2 * np.eye(3), np.eye(2), mu, T=T)
        a = shape_logdensity(sc.u, model, ctrl=CTRL).log_density
        b = isotropic_shape_logdensity(sc.u, mu, sigma2, kind,
                                       ctrl=CTRL).log_density
        assert a == pytest.approx(b, abs=1e-8)

    def test_central_collapse(self, setup):
        # a zero mu takes the closed form; the series at G = 0, b = 0 agrees
        Sigma, Theta, _, Y, sc = setup
        model = gaussian_model(Sigma, Theta, np.zeros((3, 2)))
        a = shape_logdensity(sc.u, model, ctrl=CTRL)
        b = series_shape_logdensities(sc.u[None], model, ctrl=CTRL)[0]
        assert a.log_density == pytest.approx(b, abs=1e-12)
        assert a.degrees_used == 0 and a.tail_bound == 0.0

    def test_central_invariant_across_generators(self, setup):
        Sigma, Theta, _, Y, sc = setup
        vals = []
        for model in (gaussian_model(Sigma, Theta, np.zeros((3, 2))),
                      kotz_model(Sigma, Theta, np.zeros((3, 2)), T=2),
                      kotz_model(Sigma, Theta, np.zeros((3, 2)), T=3, R=0.8)):
            vals.append(shape_logdensity(sc.u, model, ctrl=CTRL).log_density)
        assert max(vals) - min(vals) < 1e-12

    def test_noncentrality_continuity_at_zero(self, setup):
        Sigma, Theta, _, Y, sc = setup
        tiny = 1e-6 * np.ones((3, 2))
        central = shape_logdensity(
            sc.u, gaussian_model(Sigma, Theta, np.zeros((3, 2)))).log_density
        near = shape_logdensity(
            sc.u, gaussian_model(Sigma, Theta, tiny), ctrl=CTRL).log_density
        assert near == pytest.approx(central, abs=1e-6)

    def test_central_size_and_shape_collapse(self, setup):
        # a zero mu takes h(y0); a tiny one sums the series, off by |mu|^2
        Sigma, Theta, _, Y, sc = setup
        Rmat = sc.V.T @ np.diag(sc.D)
        a = size_and_shape_logdensity(Rmat, gaussian_model(Sigma, Theta, np.zeros((3, 2))))
        b = size_and_shape_logdensity(Rmat, gaussian_model(Sigma, Theta, 1e-8 * np.ones((3, 2))),
                                      ctrl=CTRL)
        assert a.log_density == pytest.approx(b.log_density, abs=1e-12)
        assert a.degrees_used == 0 and b.degrees_used > 0


class TestModeFactor:
    def test_all_densities_halve(self, setup):
        Sigma, Theta, mu, Y, sc = setup
        model = gaussian_model(Sigma, Theta, mu)
        Rmat = sc.V.T @ np.diag(sc.D)
        pairs = [
            (shape_logdensity(sc.u, model, Mode.REFLECTION, CTRL),
             shape_logdensity(sc.u, model, Mode.NO_REFLECTION, CTRL)),
            (size_and_shape_logdensity(Rmat, model, Mode.REFLECTION, CTRL),
             size_and_shape_logdensity(Rmat, model, Mode.NO_REFLECTION, CTRL)),
        ]
        pairs = [(refl.log_density, norefl.log_density) for refl, norefl in pairs]
        # the closed central form in one mode against the series in the other
        central = gaussian_model(Sigma, Theta, np.zeros((3, 2)))
        closed = [shape_logdensity(sc.u, central, mode).log_density for mode in Mode]
        series = [series_shape_logdensities(sc.u[None], central, mode, CTRL)[0] for mode in Mode]
        pairs += [(closed[0], series[1]), (series[0], closed[1])]
        for refl, norefl in pairs:
            assert refl - norefl == pytest.approx(math.log(2.0), abs=1e-12)


class TestOrbitInvariance:
    def test_density_constant_on_rotation_orbits(self, setup):
        # modulo the Jacobian, the density depends on u only through W W'
        Sigma, Theta, mu, Y, sc = setup
        model = gaussian_model(Sigma, Theta, mu)
        base = (shape_logdensity(sc.u, model, ctrl=CTRL).log_density
                - log_polar_jacobian(sc.u))
        for theta in (0.4, 1.9, 4.4):
            Q = np.array([[math.cos(theta), -math.sin(theta)],
                          [math.sin(theta), math.cos(theta)]])
            u2 = preshape_angles(Y @ Q)
            val = (shape_logdensity(u2, model, ctrl=CTRL).log_density
                   - log_polar_jacobian(u2))
            assert val == pytest.approx(base, abs=1e-10)

    def test_spectrum_route_invariance(self, setup):
        # reordering the matrix product inside the zonal argument changes
        # nothing because only eigenvalues enter
        Sigma, Theta, mu, Y, sc = setup
        model = gaussian_model(Sigma, Theta, mu)
        W = sc.W
        A = model.omega @ model.sigma_inv @ (W @ W.T)
        mw = model.mu_whitened
        B = mw.T @ model.sigma_inv @ (W @ W.T) @ model.sigma_inv @ mw
        ea = np.sort(np.real(np.linalg.eigvals(A)))[-2:]
        eb = np.sort(np.linalg.eigvalsh(B))
        assert np.allclose(ea, eb, atol=1e-12)


class TestBatchEvaluation:
    def test_batch_matches_scalar(self, setup):
        Sigma, Theta, mu, Y, sc = setup
        rng = np.random.default_rng(11)
        U = np.empty((12, 5))
        U[:, :-1] = rng.uniform(0, math.pi, size=(12, 4))
        U[:, -1] = rng.uniform(0, 2 * math.pi, size=12)
        for model in (gaussian_model(Sigma, Theta, mu),
                      kotz_model(Sigma, Theta, mu, T=3),
                      gaussian_model(Sigma, Theta, np.zeros((3, 2)))):
            batch = batch_shape_logdensity(U, model, ctrl=CTRL)
            scalar = [shape_logdensity(u, model, ctrl=CTRL) for u in U]
            assert np.allclose(batch, [dv.log_density for dv in scalar], atol=1e-10)
            _, used, _ = shape_logdensities(U, model, ctrl=CTRL)
            assert used.tolist() == [dv.degrees_used for dv in scalar]


@pytest.fixture(scope="module")
def setup_k3():
    """A K = 3 model and specimen: at K = 2 the shape density has a closed
    form and sums no series, so truncation is observable at K = 3 only."""
    rng = np.random.default_rng(12)
    Sigma = np.array([[1.0, 0.3, 0.0], [0.3, 0.7, 0.1], [0.0, 0.1, 1.2]])
    Theta = np.array([[1.0, 0.15, 0.0], [0.15, 0.9, 0.05], [0.0, 0.05, 1.1]])
    return Sigma, Theta, rng.normal(size=(3, 3)) * 0.7, svd_shape(rng.normal(size=(3, 3)))


class TestDiagnosticsAndErrors:
    def test_density_value_fields(self, setup_k3):
        Sigma, Theta, mu, sc = setup_k3
        dv = shape_logdensity(sc.u, gaussian_model(Sigma, Theta, mu), ctrl=CTRL)
        assert dv.density == pytest.approx(math.exp(dv.log_density))
        assert dv.degrees_used > 0
        assert dv.tail_bound < 1e-11
        assert dv.mode is Mode.REFLECTION

    def test_angle_validation(self, setup):
        Sigma, Theta, mu, _, _ = setup
        model = gaussian_model(Sigma, Theta, mu)
        with pytest.raises(DomainError):
            shape_logdensity(np.zeros(4), model)          # wrong length
        bad = np.array([4.0, 1.0, 1.0, 1.0, 1.0])         # first angle > pi
        with pytest.raises(DomainError):
            shape_logdensity(bad, model)

    @pytest.mark.parametrize("density", [shape_logdensity, gaussian_shape_logdensity])
    @pytest.mark.parametrize("u", [np.zeros(0), np.zeros(1)])
    def test_one_coordinate_has_no_angles(self, density, u):
        # N - 1 = K = 1: M = 1, so there is no shape and no angle box
        model = gaussian_model(np.eye(1), np.eye(1), np.array([[0.7]]))
        with pytest.raises(DomainError):
            density(u, model)

    def test_truncation_failure_raises(self, setup_k3):
        Sigma, Theta, _, sc = setup_k3
        model = gaussian_model(Sigma, Theta, np.ones((3, 3)) * 40.0)
        with pytest.raises(SeriesTruncationError):
            shape_logdensity(sc.u, model, ctrl=SeriesControl(max_degree=5))

    def test_k3_series_stops_at_the_kernel_cap(self):
        # the K = 3 kernel serves degrees up to 300: a series that has not
        # stopped there is truncated with its row at any larger max_degree
        rng = np.random.default_rng(0)
        model = kotz_model(0.2 * np.eye(4), np.eye(3), 8.0 * rng.normal(size=(4, 3)), T=2)
        U = np.array([svd_shape(model.mu + rng.normal(size=(4, 3))).u for _ in range(2)])
        with pytest.raises(SeriesTruncationError, match="within degree 300") as err:
            shape_logdensities(U, model, ctrl=SeriesControl(max_degree=400))
        assert err.value.row == 0

    def test_isotropic_validation(self):
        with pytest.raises(DomainError):
            isotropic_shape_logdensity(np.zeros(5), np.zeros((3, 2)), -1.0,
                                       IsotropicKind.GAUSSIAN)

    def test_size_and_shape_shape_check(self, setup):
        Sigma, Theta, mu, _, _ = setup
        with pytest.raises(DomainError):
            size_and_shape_logdensity(np.zeros((2, 2)),
                                      gaussian_model(Sigma, Theta, mu))


class TestSizeAndShape:
    def test_positive_and_finite(self, setup):
        Sigma, Theta, mu, Y, sc = setup
        model = kotz_model(Sigma, Theta, mu, T=2)
        Rmat = sc.V.T @ np.diag(sc.D)
        dv = size_and_shape_logdensity(Rmat, model, ctrl=CTRL)
        assert math.isfinite(dv.log_density)

    def test_rotation_invariance(self, setup):
        # the size-and-shape density depends on Rmat through Rmat Rmat'
        Sigma, Theta, mu, Y, sc = setup
        model = gaussian_model(Sigma, Theta, mu)
        Rmat = sc.V.T @ np.diag(sc.D)
        theta = 0.8
        Q = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        a = size_and_shape_logdensity(Rmat, model, ctrl=CTRL).log_density
        b = size_and_shape_logdensity(Rmat @ Q, model, ctrl=CTRL).log_density
        assert a == pytest.approx(b, abs=1e-10)


class TestCentralClosedForm:
    """A zero mu leaves only the t = 0 term, a closed form for any K."""

    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_shape_density_sums_no_series(self, K):
        rng = np.random.default_rng(30 + K)
        A = rng.normal(size=(K + 1, K + 1))
        Sigma = A @ A.T / (K + 1) + np.eye(K + 1)
        U = np.array([svd_shape(rng.normal(size=(K + 1, K))).u for _ in range(3)])
        logs = []
        for model in (gaussian_model(Sigma, np.eye(K), np.zeros((K + 1, K))),
                      kotz_model(Sigma, np.eye(K), np.zeros((K + 1, K)), T=3, R=0.8)):
            dvs = [shape_logdensity(u, model, Mode.NO_REFLECTION) for u in U]
            assert [(dv.degrees_used, dv.tail_bound) for dv in dvs] == [(0, 0.0)] * 3
            logs.append([dv.log_density for dv in dvs])
            if K < 4:
                series = series_shape_logdensities(U, model, Mode.NO_REFLECTION, CTRL)
                assert np.allclose(logs[-1], series, rtol=0.0, atol=1e-12)
        assert logs[0] == logs[1]

    def test_isotropic_shape_density_at_K_4_is_the_uniform_law(self):
        # Sigma = sigma^2 I: the uniform law on the sphere, J(u) Gamma(M/2) /
        # (2 pi^(M/2)), whatever sigma^2
        M = 20
        model = kotz_model(2.5 * np.eye(5), np.eye(4), np.zeros((5, 4)), T=2)
        u = svd_shape(np.random.default_rng(4).normal(size=(5, 4))).u
        want = (log_polar_jacobian(u) + math.lgamma(M / 2.0) - math.log(2.0)
                - M / 2.0 * math.log(math.pi))
        assert shape_logdensity(u, model).log_density == pytest.approx(want, abs=1e-12)

    def test_size_and_shape_at_K_4(self):
        # the Gaussian h(y) = (2 pi)^(-M/2) e^(-y/2), so |Sigma|^(-K/2) h(y0)
        # is the matrix normal density at Rmat
        rng = np.random.default_rng(4)
        A = rng.normal(size=(5, 5))
        Sigma = A @ A.T / 5.0 + np.eye(5)
        Rmat = rng.normal(size=(5, 4))
        dv = size_and_shape_logdensity(Rmat, gaussian_model(Sigma, np.eye(4), np.zeros((5, 4))))
        y0 = float(np.trace(np.linalg.solve(Sigma, Rmat @ Rmat.T)))
        want = -10.0 * math.log(2.0 * math.pi) - y0 / 2.0 - 2.0 * np.linalg.slogdet(Sigma)[1]
        assert dv.log_density == pytest.approx(want, abs=1e-12)
        assert (dv.degrees_used, dv.tail_bound) == (0, 0.0)

    def test_size_and_shape_where_h_vanishes(self):
        # Kotz T >= 2 has h(0) = 0
        with pytest.raises(DomainError, match="vanished"):
            size_and_shape_logdensity(np.zeros((3, 2)),
                                      kotz_model(np.eye(3), np.eye(2), np.zeros((3, 2)), T=2))


@pytest.mark.parametrize("K", [2, 3])
@pytest.mark.parametrize("T", [1, 2, 3, 5])
def test_kotz_rate_is_a_rescaled_sigma(K, T):
    # elliptical laws form a scale family (Fang & Zhang, 1990): the Kotz law
    # at rate R with row covariance Sigma is the law at rate 1/2 with
    # Sigma / (2R), so a rate option would only rescale --sigma2
    Sigma = np.array([[1.0, 0.3, 0.0], [0.3, 0.7, 0.1], [0.0, 0.1, 1.2]])
    Theta = np.eye(K) + 0.15 * (np.ones((K, K)) - np.eye(K))
    for R in (0.25, 1.0, 2.0):
        rng = np.random.default_rng([K, T, int(4 * R)])
        mu = rng.normal(size=(3, K)) * 0.7
        at_rate = kotz_model(Sigma, Theta, mu, T, R)
        rescaled = kotz_model(Sigma / (2.0 * R), Theta, mu, T, 0.5)
        for _ in range(3):
            sc = svd_shape(mu + rng.normal(size=(3, K)))
            for density, x in ((shape_logdensity, sc.u),
                               (size_and_shape_logdensity, sc.V.T @ np.diag(sc.D))):
                want = density(x, rescaled, ctrl=CTRL).log_density
                got = density(x, at_rate, ctrl=CTRL).log_density
                assert abs(got - want) <= 1e-13 * abs(want), (density.__name__, R)


# --- K = 2 closed form ------------------------------------------------------

SERIES_CTRL = SeriesControl(max_degree=300)
RATIOS = [0.5, 1.5, 3.0, 6.0]          # |mu| / sigma, i.e. sqrt(tr Omega)


def _planar_case(Nm1: int, ratio: float, T: int, isotropic: bool, seed: int = 0):
    """(model, angles) at K = 2: Gaussian (T = 1) or Kotz T, with sqrt(tr Omega)
    = ratio; Sigma = 0.8 I and Theta = I, or a diagonal Sigma and a
    non-identity Theta; five seeded rows of angles."""
    rng = np.random.default_rng(100 * Nm1 + 10 * T + seed)
    if isotropic:
        Sigma, Theta = 0.8 * np.eye(Nm1), np.eye(2)
    else:
        Sigma, Theta = np.diag(rng.uniform(0.5, 1.5, Nm1)), np.array([[1.0, 0.3], [0.3, 0.8]])

    def make(mu):
        return gaussian_model(Sigma, Theta, mu) if T == 1 else kotz_model(Sigma, Theta, mu, T=T)

    mu = rng.normal(size=(Nm1, 2))
    model = make(mu * ratio / math.sqrt(make(mu).trace_omega))
    m = 2 * Nm1 - 1
    U = np.empty((5, m))
    U[:, :-1] = rng.uniform(0.0, math.pi, size=(5, m - 1))
    U[:, -1] = rng.uniform(0.0, 2.0 * math.pi, size=5)
    return model, U


def _series_logdensities(U, model, mode, ctrl):
    """The degree series of shape_logdensities, summed by zonal_series_batch
    as at K = 1 and 3, whatever K: the radial integrals at a = 1, with each
    row's a^(-M/2-t) as a^(-M/2) and its spectrum over a."""
    from svdshape.densities import _chart, _noncentrality_spectra
    from svdshape.oracle import radial_integral
    from svdshape.zonal import SeriesControl, zonal_series_batch
    K, M = model.K, model.M
    W, log_j = _chart(U, model.Nm1, K, batch=True)
    a = np.einsum("ab,sak,sbk->s", model.sigma_inv, W, W)
    radial = [radial_integral(model.generator, t, 1.0, model.trace_omega, M - 1, 1)
              for t in range((ctrl or SeriesControl()).max_degree + 1)]
    log, sign, _, _ = zonal_series_batch(
        ([r.log for r in radial], [r.sign for r in radial]),
        _noncentrality_spectra(model, W) / a[:, None], K / 2.0, ctrl)
    assert np.all(sign > 0)
    mode_log = -math.log(2.0) if mode is Mode.NO_REFLECTION else 0.0
    return log_j - K / 2.0 * model.log_det_sigma + log - M / 2.0 * np.log(a) + mode_log


def _mpmath_logdensity(u, model):
    """The K = 2 shape log density (reflection mode) as the degree series
    summed at 50 digits: S_t = [(d1 + d2)^(2t) + (d1 - d2)^(2t)] / (2 t!)
    from the eigenvalues of G G', and the Kotz radial integrals as their
    Leibniz-binomial double sum, until a term falls below 1e-45 of the sum."""
    import mpmath as mp
    from svdshape.geometry import angles_to_frame
    gen = model.generator
    W = angles_to_frame(np.asarray(u), model.Nm1, 2)
    a = float(np.trace(model.sigma_inv @ W @ W.T))
    G = (model.sigma_inv @ model.mu_whitened).T @ W
    with mp.workdps(50):
        GG = mp.matrix(G.tolist()) * mp.matrix(G.T.tolist())
        tr, det = GG[0, 0] + GG[1, 1], GG[0, 0] * GG[1, 1] - GG[0, 1] * GG[1, 0]
        root = mp.sqrt(max(tr * tr - 4 * det, 0))
        d1, d2 = mp.sqrt((tr + root) / 2), mp.sqrt(max((tr - root) / 2, 0))
        T, R, b, am = gen.T, mp.mpf(gen.R), mp.mpf(model.trace_omega), mp.mpf(a)
        n = mp.mpf(model.M) / 2
        total, t, quiet = mp.mpf(0), 0, 0
        while quiet < 4:
            radial = mp.mpf(0)
            for j in range(min(2 * t, T - 1) + 1):
                jj = T - 1 - j
                cj = mp.binomial(2 * t, j) * mp.ff(T - 1, j) * (-R) ** (2 * t - j)
                for l in range(jj + 1):
                    radial += (cj * mp.binomial(jj, l) * b ** (jj - l) / 2
                               * R ** (-(n + t + l)) * mp.gamma(n + t + l))
            s_t = ((d1 + d2) ** (2 * t) + (d1 - d2) ** (2 * t)) / (2 * mp.factorial(t))
            term = radial * am ** (-(n + t)) * s_t / mp.factorial(t)
            total += term
            quiet = quiet + 1 if t > 2 and abs(term) < mp.mpf(10) ** -45 * abs(total) else 0
            t += 1
        log = mp.log(total) + gen.log_norm_const - R * b
    return float(log) + log_polar_jacobian(np.asarray(u)) - model.log_det_sigma


def _assert_close(values, oracle):
    oracle = np.asarray(oracle)
    assert np.all(np.abs(values - oracle) <= 1e-12 * np.maximum(1.0, np.abs(oracle)))


class TestPlanarClosedForm:
    @pytest.mark.parametrize("mode", [Mode.REFLECTION, Mode.NO_REFLECTION])
    @pytest.mark.parametrize("ratio", RATIOS)
    @pytest.mark.parametrize("Nm1", [2, 3, 5])
    def test_gaussian_matches_the_series(self, Nm1, ratio, mode):
        for isotropic in (True, False):
            model, U = _planar_case(Nm1, ratio, 1, isotropic)
            log, used, tail = shape_logdensities(U, model, mode)
            assert used.tolist() == [0] * len(U) and tail.tolist() == [0.0] * len(U)
            _assert_close(log, [gaussian_shape_logdensity(u, model, mode, SERIES_CTRL).log_density
                                for u in U])
            if isotropic:
                _assert_close(log, [isotropic_shape_logdensity(
                    u, model.mu, 0.8, IsotropicKind.GAUSSIAN, mode, SERIES_CTRL).log_density
                    for u in U])

    @pytest.mark.parametrize("mode", [Mode.REFLECTION, Mode.NO_REFLECTION])
    @pytest.mark.parametrize("ratio", RATIOS)
    @pytest.mark.parametrize("Nm1", [2, 3, 5])
    @pytest.mark.parametrize("T,kind", [(2, IsotropicKind.KOTZ_T2), (3, IsotropicKind.KOTZ_T3)])
    def test_kotz_matches_the_series(self, T, kind, Nm1, ratio, mode):
        model, U = _planar_case(Nm1, ratio, T, isotropic=True)
        log = shape_logdensities(U, model, mode)[0]
        _assert_close(log, [isotropic_shape_logdensity(u, model.mu, 0.8, kind, mode,
                                                       SERIES_CTRL).log_density for u in U])
        model, U = _planar_case(Nm1, ratio, T, isotropic=False)
        _assert_close(shape_logdensities(U, model, mode)[0],
                      _series_logdensities(U, model, mode, SERIES_CTRL))

    @pytest.mark.parametrize("ratio", RATIOS)
    @pytest.mark.parametrize("Nm1", [2, 3, 5])
    def test_kotz_t4_matches_a_50_digit_sum(self, Nm1, ratio):
        # the double-precision series loses up to ~1e-11 here, so the
        # oracle is the same series at 50 digits
        model, U = _planar_case(Nm1, ratio, 4, isotropic=False)
        _assert_close(shape_logdensities(U[:3], model)[0],
                      [_mpmath_logdensity(u, model) for u in U[:3]])

    @pytest.mark.parametrize("ratio", [6.0, 12.0])
    @pytest.mark.parametrize("Nm1", [2, 3, 5])
    def test_kotz_t6_matches_a_50_digit_sum(self, Nm1, ratio):
        # in R b - t and in moments about z the closed form loses under 4
        # digits to cancellation here
        model, U = _planar_case(Nm1, ratio, 6, isotropic=False)
        _assert_close(shape_logdensities(U[:3], model)[0],
                      [_mpmath_logdensity(u, model) for u in U[:3]])

    @pytest.mark.parametrize("T", [1, 3])
    def test_finite_where_the_series_does_not_converge(self, T):
        model, U = _planar_case(2, 12.0, T, isotropic=False)
        with pytest.raises(SeriesTruncationError):
            _series_logdensities(U, model, Mode.REFLECTION, SeriesControl())
        log, used, tail = shape_logdensities(U, model)
        assert np.all(np.isfinite(log))
        assert used.tolist() == [0] * len(U) and tail.tolist() == [0.0] * len(U)
        _assert_close(log[:2], [_mpmath_logdensity(u, model) for u in U[:2]])

    @pytest.mark.parametrize("n", [150, 200])
    def test_many_landmarks_far_out(self, n):
        # N - 1 = n, frames near the location and z near 1e4: z^(n-1) alone
        # overflows a double and the leading coefficient 1/(n-1)! underflows
        # from n = 171. Oracle: the Gaussian form Gamma(n) e^z L_{n-1}(-z)
        # (Laguerre) at 50 digits, with s+- from the singular values of G
        import mpmath as mp
        from svdshape.geometry import angles_to_frame, frame_to_angles
        model, _ = _planar_case(n, float(n), 1, isotropic=False)
        rng = np.random.default_rng(3)
        Y = model.mu_whitened + 5.0 * rng.normal(size=(2, n, 2))
        U = frame_to_angles(Y)
        R, b = model.generator.R, model.trace_omega
        expected, zmax = [], 0.0
        for u in U:
            W = angles_to_frame(u, n, 2)
            a = float(np.trace(model.sigma_inv @ W @ W.T))
            d1, d2 = np.linalg.svd((model.sigma_inv @ model.mu_whitened).T @ W,
                                   compute_uv=False)
            zmax = max(zmax, R * (d1 + d2) ** 2 / a)
            with mp.workdps(50):
                zs = [R * mp.mpf(s) ** 2 / a for s in (d1 + d2, d1 - d2)]
                series = sum(mp.exp(z) * mp.laguerre(n - 1, 0, -z) for z in zs) / 2
                expected.append(float(mp.log(series) + mp.loggamma(n))
                                - math.log(2.0) - n * math.log(math.pi) - R * b
                                - n * math.log(a) + log_polar_jacobian(u)
                                - model.log_det_sigma)
        assert zmax > 5e3
        _assert_close(shape_logdensities(U, model)[0], expected)

    def test_no_series_is_summed(self, monkeypatch):
        import svdshape.densities as densities
        import svdshape.zonal as zonal
        from svdshape.verify import mc_normalization, simulation_vs_density

        def forbidden(*args, **kwargs):
            raise AssertionError("a K = 2 shape density summed a degree series")

        monkeypatch.setattr(densities, "zonal_series_batch", forbidden)
        monkeypatch.setattr(zonal, "zonal_series_batch", forbidden)
        monkeypatch.setattr(zonal, "logsums", forbidden)
        for T in (1, 2, 3):
            model, U = _planar_case(3, 3.0, T, isotropic=False)
            assert np.all(np.isfinite(batch_shape_logdensity(U, model)))
            assert shape_logdensity(U[0], model, Mode.NO_REFLECTION).degrees_used == 0
        mass, _ = mc_normalization(model, mc_samples=2000, seed=1)
        assert math.isfinite(mass)
        assert simulation_vs_density(model, sim_count=1000, seed=2).marginals

    def test_a_non_positive_sum_is_a_numeric_error_with_its_row(self):
        # at T = 20 and |mu| = 24 the closed form cancels every digit: rows 3
        # and 4 come out non-positive, though the density is positive
        rng = np.random.default_rng(0)
        mu = rng.normal(size=(2, 2))
        mu *= 24.0 / np.linalg.norm(mu)
        U = np.array([svd_shape(mu + rng.normal(size=(2, 2))).u for _ in range(6)])
        with pytest.raises(NumericError, match="non-positive") as err:
            shape_logdensities(U, kotz_model(np.eye(2), np.eye(2), mu, T=20))
        assert err.value.row == 3


def _spatial_case(ratio: float):
    """A K = 3 Kotz T = 6 model at sqrt(tr Omega) = ratio and four frames near
    its location."""
    from svdshape.geometry import frame_to_angles
    rng = np.random.default_rng(5)
    mu = rng.normal(size=(3, 3))
    model = kotz_model(0.8 * np.eye(3), np.eye(3), mu * ratio / math.sqrt(np.sum(mu ** 2) / 0.8),
                       T=6)
    return model, frame_to_angles(model.mu_whitened + 0.5 * rng.normal(size=(4, 3, 3)))


def _exact_coefficient_logdensities(U, model, tmax):
    """The K = 3 shape log densities with every series coefficient at 50
    digits (P(t) in Newton form from its Leibniz-binomial double sum at
    t = 0..T-1) and the runtime kernel's log S_t, summed through ``tmax``:
    only the coefficients differ from :func:`shape_logdensities`."""
    import mpmath as mp
    from svdshape.densities import _chart, _noncentrality_spectra
    from svdshape.zonal import logsums
    gen, K = model.generator, model.K
    W, log_j = _chart(U, model.Nm1, K, batch=True)
    a = np.einsum("ab,sak,sbk->s", model.sigma_inv, W, W)
    log_s = logsums(K, _noncentrality_spectra(model, W), tmax)
    T = gen.T
    with mp.workdps(50):
        R, b, n = mp.mpf(gen.R), mp.mpf(model.trace_omega), mp.mpf(model.M) / 2
        values = [sum((-1) ** j * mp.binomial(2 * t, j) * mp.ff(T - 1, j) * R ** -j
                      * mp.binomial(T - 1 - j, l) * b ** (T - 1 - j - l) * R ** -l
                      * mp.rf(n + t, l) for j in range(T) for l in range(T - j))
                  for t in range(T)]
        delta = [sum((-1) ** (j - i) * mp.binomial(j, i) * values[i] for i in range(j + 1))
                 for j in range(T)]
        log_norm = ((T - 1 + n) * mp.log(R) + mp.loggamma(n) - n * mp.log(mp.pi)
                    - mp.loggamma(T - 1 + n))
        out = []
        for row in range(len(U)):
            total = mp.mpf(0)
            for t in range(tmax + 1):
                poly = sum(d * mp.binomial(t, j) for j, d in enumerate(delta))
                total += (poly * mp.exp(log_norm - R * b + (t - n) * mp.log(R)
                                        + mp.loggamma(n + t) - (n + t) * mp.log(a[row])
                                        + log_s[row, t] - mp.loggamma(t + 1)) / 2)
            out.append(float(mp.log(total)))
    return np.array(out) + log_j - K / 2.0 * model.log_det_sigma


class TestSpatialKotzCancellation:
    def test_kotz_t6_keeps_its_digits_short_of_the_limit(self):
        # about 5 digits cancel, so 1e-9 as at K = 2; the per-degree sum
        # (oracle.radial_integral) is 2e-7 off here
        model, U = _spatial_case(8.0)
        log = shape_logdensities(U[:2], model, ctrl=SERIES_CTRL)[0]
        oracle = _exact_coefficient_logdensities(U[:2], model, 130)
        assert np.all(np.abs(log - oracle) <= 1e-9 * np.maximum(1.0, np.abs(oracle)))

    def test_kotz_t6_raises_past_the_limit(self):
        # the alternating coefficients cancel 6.9 digits at row 2
        model, U = _spatial_case(10.0)
        with pytest.raises(NumericError) as err:
            shape_logdensities(U, model, ctrl=SERIES_CTRL)
        assert err.value.row == 2 and "cancellation" in str(err.value)
